"""Relational kernel and query counting.

Relations are sets of rows over interned value ids, so set semantics is
enforced at construction and every count is of distinct answers. Each
operator call builds one ``operator.itemgetter`` key or projection
extractor and applies it with ``map``, so the per-row work runs in C, and a
projection onto a relation's own schema costs nothing: it returns the
relation, or shares its rows under a new name. ``natural_join`` with
``onto`` projects inside the join: it keeps only the columns whose
variable is in ``onto``, and never builds the wider rows.

Every join of a bag or of Yannakakis's join phase keeps only what later
steps need, by two rules. A join drops each variable that no later step
holds: a bag join keeps the bag and the variables of the parts still to be
joined, and a node's join with a child keeps the output, the parent's
schema and the schemas of the children still to be joined (Yannakakis,
VLDB 1981). A join whose second relation then keeps no column beyond the
shared ones adds nothing, and runs as the semijoin it is (Bernstein and
Chiu, JACM 1981), through the filter ``semijoin`` uses.

The counting pipeline reduces a quantified instance to a quantifier-free
one: each quantified component is replaced by the relation of its
satisfiable free-boundary assignments, which Yannakakis's join-and-project
computes over the bags of the component's core piece, the atoms that meet
its quantified core. When those bags form a star, the paper's central
shape, a star route builds the relation instead: the bags share one
nonempty key (the variables that every bag holds), and no other variable
lies in two bags. Given a key value the bags then constrain disjoint
columns, so the join is exactly the union, over the key values that every
bag holds, of the product of each bag's rows at that value, each cut to
the free boundary. The route runs no semijoin, builds no intermediate that
carries the key, and enumerates no more tuples than a binary join's last
step would concatenate. The closure's boundary-only edges are left out: the
final count joins each of them anyway, as a kept atom when it is all-free
and else inside the one other component whose core it meets.
``count_acyclic_qf``, the pipeline's last step, then counts the rewritten
instance: it materializes one relation per bag and counts along the
decomposition's own tree. Each piece, a component's core piece or the
rewritten instance, gets its own join tree when it is acyclic; the query's
decomposition is restricted or rewritten only for the cyclic ones. A
piece's tree is one GYO run (``decomposition._join_tree``) over its
distinct edges, read off the query's hypergraph by ordinal or, for the
rewritten instance, off its relations' schemas: no hypergraph per piece.
``count_cq_via_ghd`` takes every kind and, once a tree decomposition is
guarded, materializes and rewrites each the same way: a node joins its
guard atoms, the atoms its weights name and those assigned to it, so a
fractional bag is built from its weighted edges. A node that is one atom
over exactly its bag keeps that atom's relation, unprojected.

Input is checked where it enters. ``Relation`` checks the width of every
row and ``Structure`` the range of every value id; the operators build
their outputs, valid by construction, without either check. Facts enter
through ``parser.parse_facts``, which is their check: its arity check
gives every row its width and its interning every value id its range, so
it builds its relations through ``_relation`` and its structure through
``_structure``, again without either check.
``count_cq_via_ghd`` verifies the decomposition it is given and binds each
atom once. The trees the pipeline builds for its pieces, the components'
and the rewritten query's, and the restrictions and the rewrite of a
verified decomposition, are not verified again; the differential verifies
them. The rewritten instance is counted in place, from the relations the
pipeline has built, keyed by edge id.

``count_cq_via_ghd`` and ``parser.parse_facts`` build rows in bulk (a
boundary relation can hold |dom|^(star size) rows), and they run with
Python's cyclic garbage collector paused, through ``_collector_paused``.
Reference counting frees everything they build, but each young-generation
pass of the collector walks the row tuples just built: on the
``clique-star`` benchmark the collector took 13-16% of each op, and 6% on
``c9-cli``. The pause is safe because of one invariant: these functions,
and the structure layer they call, make no reference cycle, so the
collector would reclaim nothing; ``tests/test_collector.py`` pins it. The
collector is process-wide, so another thread's cyclic garbage waits until
the paused call returns.
"""

from __future__ import annotations

import gc
from collections import defaultdict, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from itertools import chain, compress, product, repeat
from operator import add, countOf, itemgetter, mul
from typing import Collection, Iterable, Mapping, Optional, Sequence

from . import decomposition as dec, starsize
from .decomposition import (
    Decomposition,
    DecompKind,
    DecompNode,
    ensure_valid,
    induced_decomposition,
    verify,  # unused here, but bench/tracing.py wraps engine.verify
)
from .errors import BindError, InvariantViolation, TooLarge, UnknownVariable
from .hypergraph import Atom, Query, _first_ids, from_query, s_components

BRUTE_MAX_ASSIGNMENTS = 2_000_000


def _collector_paused(fn):
    """``fn`` with Python's cyclic collector paused for the call and enabled
    again however it ends. A caller that paused the collector itself keeps
    it paused. Only functions that make no reference cycle may use it, so
    that the pause delays nothing but the collector's walks over new rows."""

    @wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused


@dataclass(frozen=True)
class Relation:
    """Named finite relation; rows are tuples of value ids, deduplicated."""

    name: str
    schema: tuple[str, ...]
    rows: frozenset

    def __post_init__(self):
        width = len(self.schema)
        if countOf(map(len, self.rows), width) != len(self.rows):
            row = next(row for row in self.rows if len(row) != width)
            raise ValueError(f"row {row!r} does not match schema {self.schema!r}")

    @classmethod
    def from_rows(cls, name: str, schema: Iterable[str], rows: Iterable) -> "Relation":
        return cls(name, tuple(schema), frozenset(tuple(r) for r in rows))

    def __len__(self):
        return len(self.rows)


def _relation(name: str, schema: tuple, rows: frozenset) -> Relation:
    """A relation built by an operator, whose rows have the schema's width by
    construction: ``Relation`` without the check of every row."""
    rel = object.__new__(Relation)
    rel.__dict__.update(name=name, schema=schema, rows=rows)
    return rel


@dataclass(frozen=True)
class Structure:
    """Interned value domain plus named relations over it."""

    domain: tuple[str, ...]
    relations: Mapping[str, Relation]

    def __post_init__(self):
        n = len(self.domain)

        def vids():
            return chain.from_iterable(chain.from_iterable(r.rows for r in self.relations.values()))

        # min and max of the distinct ids at C speed; the search for the
        # first bad one runs only on a failure
        distinct = set(vids())
        if distinct and not (0 <= min(distinct) and max(distinct) < n):
            vid = next(v for v in vids() if not (0 <= v < n))
            raise ValueError(f"value id {vid} outside domain of size {n}")


def _structure(domain: tuple, relations: dict) -> Structure:
    """A structure whose value ids lie in its domain by construction, as the
    parser's interning guarantees: ``Structure`` without the check of every
    id."""
    structure = object.__new__(Structure)
    structure.__dict__.update(domain=domain, relations=relations)
    return structure


@dataclass(frozen=True)
class QueryInstance:
    query: Query
    structure: Structure

    def __post_init__(self):
        for atom in self.query.atoms:
            rel = self.structure.relations.get(atom.predicate)
            if rel is None:
                raise BindError(f"predicate {atom.predicate!r} not defined in the structure")
            _check_arity(atom, rel)


def _check_arity(atom: Atom, rel: Relation) -> None:
    if len(rel.schema) != len(atom.variables):
        raise BindError(
            f"atom {atom.predicate!r} has arity {len(atom.variables)}, "
            f"relation has arity {len(rel.schema)}"
        )


@dataclass(frozen=True)
class CountResult:
    count: int
    method: str
    stats: Mapping


# -- relational operators ---------------------------------------------------


def _keys(rows, positions: Sequence[int]):
    """Each row's values at ``positions``, in the order of ``rows``, from one
    extractor built for the call. One position gives a scalar, which is a
    sound key wherever both sides of a lookup are keyed the same way; no
    position gives the empty key."""
    if positions:
        return map(itemgetter(*positions), rows)
    return repeat((), len(rows))


def _tuples(rows, positions: Sequence[int]):
    """Like ``_keys``, but always tuples, for row parts that are stored or
    concatenated: ``zip`` wraps the scalars of a single position."""
    if len(positions) == 1:
        return zip(map(itemgetter(positions[0]), rows))
    return _keys(rows, positions)


def natural_join(
    r1: Relation, r2: Relation, name: Optional[str] = None, onto: Optional[Collection[str]] = None
) -> Relation:
    """Rows of r1 x r2 agreeing on shared variables; r1's schema order first.
    r2 is indexed by its shared values, each entry holding the tails (r2's
    other values) that a matching r1 row is extended by.

    With ``onto``, the result keeps only the columns whose variable is in
    ``onto``, in the same order; a repeated variable keeps all its columns.
    Each r1 row is cut to its kept head as it is read and the index holds
    only the kept tails, so the wider rows are never built. When r2 keeps
    no column beyond the shared ones, the join is the semijoin of r1's heads
    by r2 (Bernstein and Chiu, JACM 1981): one key set, with no index and
    no concatenation. The counting pipeline passes ``onto`` on every join,
    so each join drops every variable that no later step needs."""
    heads, schema = r1.rows, r1.schema
    extra = [v for v in r2.schema if v not in r1.schema]
    if onto is not None:
        keep = [i for i, v in enumerate(r1.schema) if v in onto]
        if len(keep) < len(r1.schema):
            heads, schema = _tuples(r1.rows, keep), tuple(r1.schema[i] for i in keep)
        extra = [v for v in extra if v in onto]
    name = name or f"({r1.name}*{r2.name})"
    if not extra:
        return _relation(name, schema, _matching(heads, r1, r2))
    shared = [v for v in r1.schema if v in r2.schema]
    p1 = [r1.schema.index(v) for v in shared]
    p2 = [r2.schema.index(v) for v in shared]
    pextra = [r2.schema.index(v) for v in extra]
    index: dict = {}
    # both maps walk the same frozenset, whose iteration order is fixed
    for key, tail in zip(_keys(r2.rows, p2), _tuples(r2.rows, pextra)):
        index.setdefault(key, []).append(tail)
    matches = map(index.get, _keys(r1.rows, p1), repeat(()))
    # head + tail for each matching tail, with no Python frame per row
    joined = chain.from_iterable(map(map, repeat(add), map(repeat, heads), matches))
    return _relation(name, schema + tuple(extra), frozenset(joined))


def project(r: Relation, variables: Sequence[str], name: Optional[str] = None) -> Relation:
    """The distinct rows of ``r`` restricted to ``variables``, in that order
    (a variable may repeat). Projecting onto ``r.schema`` itself, when its
    variables are distinct, costs nothing: it returns ``r``, or, under a new
    name, a relation sharing ``r.rows``. Relations are frozen, so sharing
    is safe."""
    positions = []
    for v in variables:
        if v not in r.schema:
            raise UnknownVariable(f"variable {v!r} not in schema {r.schema!r}")
        positions.append(r.schema.index(v))
    name = name or r.name
    variables = tuple(variables)
    if variables == r.schema and len(set(variables)) == len(variables):
        return r if name == r.name else _relation(name, r.schema, r.rows)
    return _relation(name, variables, frozenset(_tuples(r.rows, positions)))


def semijoin(r: Relation, s: Relation, name: Optional[str] = None) -> Relation:
    return _relation(name or r.name, r.schema, _matching(r.rows, r, s))


def _matching(heads, r: Relation, s: Relation) -> frozenset:
    """The ``heads``, one per row of ``r`` in the order of ``r.rows``, whose
    row agrees with some row of ``s`` on the variables both schemas share:
    one set of ``s``'s keys and one ``compress``. With no shared variable,
    every head is kept if ``s`` has a row."""
    shared = [v for v in r.schema if v in s.schema]
    if not shared:
        return frozenset(heads) if s.rows else frozenset()
    keys = set(_keys(s.rows, [s.schema.index(v) for v in shared]))
    # compress and the key map walk the same frozenset, in one fixed order
    return frozenset(compress(heads, map(keys.__contains__, _keys(r.rows, [r.schema.index(v) for v in shared]))))


def atom_relation(structure: Structure, atom: Atom, name: Optional[str] = None) -> Relation:
    """The atom's relation with repeated variables collapsed: schema is the
    atom's distinct variables in order, rows filtered to equal repeats."""
    rel = structure.relations[atom.predicate]
    _check_arity(atom, rel)
    schema = tuple(dict.fromkeys(atom.variables))
    if len(schema) == len(atom.variables):
        return _relation(name or atom.predicate, schema, rel.rows)
    first_pos = [atom.variables.index(v) for v in schema]
    groups = [
        [i for i, w in enumerate(atom.variables) if w == v]
        for v in schema
    ]
    rows = set()
    for row in rel.rows:
        if all(len({row[i] for i in grp}) == 1 for grp in groups):
            rows.add(tuple(row[i] for i in first_pos))
    return _relation(name or atom.predicate, schema, frozenset(rows))


# -- acyclic evaluation -------------------------------------------------------


def _bind(inst: QueryInstance) -> dict[int, Relation]:
    """One relation per atom, keyed by the atom's ordinal (its edge id)."""
    return {i: atom_relation(inst.structure, a, f"a{i}") for i, a in enumerate(inst.query.atoms)}


def _bag_materialize(rels: Mapping[int, Relation], d: Decomposition) -> dict[int, Relation]:
    """One relation per decomposition node, keyed by node id: the join of the
    node's atoms projected onto its bag. ``rels[e]`` is the relation of edge e.

    Every kind is materialized the same way. A node joins the atoms of its
    guard, the atoms its weights name and every atom assigned to it; each
    atom is assigned once, to the first node in topological order whose bag
    holds its variables (so zero-arity atoms land at the root). A valid
    decomposition's guard, or its weighted edges, cover the bag.

    The parts are joined left-deep in edge-id order, and each join keeps the
    bag and the variables of the parts still to be joined: a variable
    outside the bag is dropped as soon as no later part holds it, so the
    last join keeps only the bag and no projection follows it. A part that
    then adds no column is joined as a semijoin. A node whose one part is
    one atom over exactly its bag, as most nodes of a piece's own join tree
    are, keeps that atom's rows and column order under the bag's name, with
    no projection.
    """
    vertices = list(dict.fromkeys(v for rel in rels.values() for v in rel.schema))
    order = d.topo_order()
    parts_of = {n.node_id: set(n.guard).union(n.weights or ()) for n in order}
    for i, rel in rels.items():
        home = next((n for n in order if n.bag.issuperset(rel.schema)), None)
        if home is None:
            raise InvariantViolation(f"atom {i} is not covered by any bag")
        parts_of[home.node_id].add(i)

    out: dict[int, Relation] = {}
    for n in order:
        parts = [rels[i] for i in sorted(parts_of[n.node_id])]
        if len(parts) == 1 and len(parts[0].schema) == len(n.bag) and n.bag.issuperset(parts[0].schema):
            out[n.node_id] = _relation(f"b{n.node_id}", parts[0].schema, parts[0].rows)
            continue
        bag_vars = [v for v in vertices if v in n.bag]
        if parts:
            if not set(bag_vars).issubset(chain.from_iterable(rel.schema for rel in parts)):
                raise InvariantViolation(f"bag {bag_vars} not covered by joined atoms")
            acc, last = parts[0], len(parts) - 1
            for k in range(1, len(parts)):
                # keep the bag and what a later part still joins on, so the
                # last join keeps only the bag and no projection follows it
                onto = n.bag.union(*(rel.schema for rel in parts[k + 1:]))
                acc = natural_join(acc, parts[k], f"b{n.node_id}" if k == last else None, onto)
            out[n.node_id] = acc if last else project(acc, bag_vars, f"b{n.node_id}")
        else:
            if bag_vars:
                raise InvariantViolation(f"nonempty bag {bag_vars} with no covering atom")
            out[n.node_id] = _relation(f"b{n.node_id}", (), frozenset({()}))
    return out


def _bottom_up(jt: Decomposition, rels: dict[int, Relation]) -> dict[int, Relation]:
    reduced = dict(rels)
    for node in jt.post_order():
        if node.parent is not None:
            reduced[node.parent] = semijoin(reduced[node.parent], reduced[node.node_id])
    return reduced


def _top_down(jt: Decomposition, rels: dict[int, Relation]) -> dict[int, Relation]:
    reduced = dict(rels)
    for node in jt.topo_order():
        if node.parent is not None:
            reduced[node.node_id] = semijoin(reduced[node.node_id], reduced[node.parent])
    return reduced


def _join_project(jt: Decomposition, rels: dict[int, Relation], out: Sequence[str], name: str) -> Relation:
    """The join of the node relations projected onto ``out``.

    When the node relations form a star (``_star_key``: one nonempty key
    that every schema holds, and no other variable in two schemas), it is
    one product per key value (``_star_join``), exact because the relations
    constrain disjoint columns once the key is fixed. That enumerates no
    more tuples than Yannakakis's last join would concatenate, with no
    semijoin and no intermediate that carries the key. Every other input
    takes Yannakakis's route (``_yannakakis``). The test reads schemas only,
    so any piece, acyclic or restricted, may take either route."""
    nodes = [rels[n.node_id] for n in jt.nodes]
    key = _star_key(nodes)
    if key is not None:
        return _star_join(nodes, key, out, name)
    return _yannakakis(jt, rels, out, name)


def _star_key(rels: Sequence[Relation]) -> Optional[tuple]:
    """The key of a star of two relations or more, in the first schema's
    order; else None. A star's relations share one nonempty key, the
    variables that every schema holds, and each other variable lies in
    exactly one schema, once. Reads the schemas only: the columns number
    ``len(rels) * len(key)`` plus one per variable outside the key exactly
    when no schema repeats a variable and no two share one outside it."""
    if len(rels) < 2:
        return None
    schemas = [rel.schema for rel in rels]
    key = set(schemas[0]).intersection(*schemas[1:])
    columns = sum(map(len, schemas)) - len(rels) * len(key)
    if not key or columns != len(set(chain.from_iterable(schemas))) - len(key):
        return None
    return tuple(v for v in schemas[0] if v in key)


def _star_join(rels: Sequence[Relation], key: tuple, out: Sequence[str], name: str) -> Relation:
    """The join of a star's relations (``_star_key``) projected onto
    ``out``: over each key value that every relation holds, the product of
    each relation's tails at that value.

    Each relation's rows are grouped by key into sets of tails, in C: the
    first relation's tail is its columns in ``out``, the key's included,
    and any other's its columns in ``out`` outside the key. Intersecting
    the groups' keys does all that the full semijoin reduction would; a
    relation with no tail column is only that filter. When no tail has
    more than one column the tails are scalars and each product yields the
    rows themselves, else each product is flattened in C."""
    keep = set(out)
    tails = [[v for v in rel.schema if v in keep and (i == 0 or v not in key)] for i, rel in enumerate(rels)]
    flat = all(len(tail) <= 1 for tail in tails)
    cut = _keys if flat else _tuples
    keysets, groups = [], []
    for rel, tail in zip(rels, tails):
        keys = _keys(rel.rows, [rel.schema.index(v) for v in key])
        if tail:
            group: defaultdict = defaultdict(set)
            deque(map(set.add, map(group.__getitem__, keys), cut(rel.rows, [rel.schema.index(v) for v in tail])), 0)
            keysets.append(group)
            groups.append(group)
        else:
            keysets.append(set(keys))
    # filter the fewest keys through each other group, in C
    keysets.sort(key=len)
    alive = keysets[0]
    for keyset in keysets[1:]:
        alive = list(filter(keyset.__contains__, alive))
    if not groups:
        rows = frozenset({()}) if alive else frozenset()
    else:
        products = chain.from_iterable(map(product, *(map(group.__getitem__, alive) for group in groups)))
        rows = frozenset(products if flat else map(tuple, map(chain.from_iterable, products)))
    return project(_relation(name, tuple(chain.from_iterable(tails)), rows), out, name)


def _yannakakis(jt: Decomposition, rels: dict[int, Relation], out: Sequence[str], name: str) -> Relation:
    """The join of the node relations projected onto ``out`` (Yannakakis,
    VLDB 1981): a full semijoin reduction, then one bottom-up pass that
    builds each node's result already projected. A node joins its children's
    results into its own relation, and each of these joins keeps only
    ``out``, the variables of the parent's bag (``out`` alone at the root)
    and the variables of the children still to be joined, so the last join
    gives the node's result; a leaf is projected the same way. Running
    intersection makes dropping the rest safe. A child that then adds no
    column is joined as a semijoin."""
    reduced = _top_down(jt, _bottom_up(jt, rels))
    children = jt.children_map()
    keep_out = set(out)
    acc: dict[int, Relation] = {}
    for node in jt.post_order():
        rel = reduced[node.node_id]
        onto = keep_out if node.parent is None else keep_out.union(reduced[node.parent].schema)
        kids = children[node.node_id]
        if not kids and node.parent is not None:
            rel = project(rel, [v for v in rel.schema if v in onto])
        # children last to first, so kids[0] is the last join; each join
        # keeps ``onto`` and what a child still to be joined shares
        for i in range(len(kids) - 1, -1, -1):
            child = acc.pop(kids[i].node_id)
            rel = natural_join(rel, child, onto=onto.union(*(acc[k.node_id].schema for k in kids[:i])))
        acc[node.node_id] = rel
    return project(acc[jt.root().node_id], out, name)


def count_acyclic_qf(rels: Mapping[int, Relation], d: Decomposition) -> tuple[int, list[int]]:
    """The pipeline's last step: the number of answers of the rewritten,
    quantifier-free query whose edge e has the relation ``rels[e]``, along
    ``d``, and the sizes of its bag relations in topological order.

    Internal: ``count_cq_via_ghd`` is its one caller and passes the rewritten
    query's own join tree or the rewrite of its verified decomposition, both
    valid and guarded by construction, so nothing is checked again here. It
    keeps its own name because ``bench/tracing.py`` times this step by it.

    The bag relations of a valid decomposition form an acyclic instance over
    the decomposition's own tree. One bottom-up pass stores, per bag tuple,
    its number of distinct extensions into the subtree. No semijoin reduction
    is needed: a tuple that dangles anywhere below gets a zero child sum.
    """
    bags = _bag_materialize(rels, d)
    children = d.children_map()
    counts: dict[int, dict[tuple, int]] = {}
    for node in d.post_order():
        rel = bags[node.node_id]
        table: dict[tuple, int] = dict.fromkeys(rel.rows, 1)
        for child in children[node.node_id]:
            table = _absorb_child(table, rel.schema, counts[child.node_id], bags[child.node_id].schema)
        counts[node.node_id] = table
    return sum(counts[d.root().node_id].values()), [len(bags[n.node_id]) for n in d.topo_order()]


def _absorb_child(table: dict, schema: tuple, child: dict, child_schema: tuple) -> dict:
    """``table`` with each row's count multiplied by the summed counts of the
    ``child`` rows that agree with it on the variables both schemas share."""
    shared = [v for v in schema if v in child_schema]
    sums: dict = {}
    for key, c in zip(_keys(child, [child_schema.index(v) for v in shared]), child.values()):
        sums[key] = sums.get(key, 0) + c
    keys = _keys(table, [schema.index(v) for v in shared])
    return dict(zip(table, map(mul, table.values(), map(sums.get, keys, repeat(0)))))


# -- the quantified counting pipeline ----------------------------------------


@_collector_paused
def count_cq_via_ghd(inst: QueryInstance, d: Decomposition) -> CountResult:
    """Count along per-piece decompositions. The pieces are the S-components
    and the rewritten query, whose edges are the kept atoms plus one boundary
    edge per component. An acyclic piece is counted along its own join tree;
    only a cyclic piece uses ``d``, restricted to a component or rewritten
    for the final count. ``d``, of any kind, is verified against the whole
    query either way, and guarded if it is a tree decomposition.
    ``stats["pieces"]`` records each piece's kind, width and source."""
    sh = from_query(inst.query)
    h = sh.hypergraph
    ensure_valid(h, d, tuple(DecompKind))
    d = dec.guarded(h, d)
    comps = s_components(sh)
    atom_rels = _bind(inst)
    stats: dict = {
        "components": len(comps),
        "cover_sizes": [],
        "bag_sizes": [],
        "pieces": [],
    }

    quantified = set(h.vertices) - sh.s
    kept = [i for i, a in enumerate(inst.query.atoms) if not (set(a.variables) & quantified)]
    final_rels = [atom_rels[i] for i in kept]
    for idx, comp in enumerate(comps):
        final_rels.append(_component_relation(h, d, comp, atom_rels, stats, idx))

    # edge j over the schema of relation j, once per distinct set
    rewritten = _first_ids((j, frozenset(rel.schema)) for j, rel in enumerate(final_rels))
    df, _ = _piece_decomposition(stats, rewritten, lambda: _rebuild_decomposition(h, d, comps, kept))
    count, sizes = count_acyclic_qf(dict(enumerate(final_rels)), df)
    stats["bag_sizes"].append(sizes)
    stats["max_intermediate"] = max(chain.from_iterable(stats["bag_sizes"]), default=0)
    return CountResult(count, "fractional" if d.kind is DecompKind.FRACTIONAL else "ghd", stats)


count_cq_via_fractional = count_cq_via_ghd  # an alias, kept only because bench/tracing.py wraps it


def _piece_decomposition(stats: dict, edges, derive) -> tuple[Decomposition, bool]:
    """The join tree of the piece's distinct ``(id, set)`` edges, from one
    GYO run, or ``derive()`` from the query's decomposition when they are
    cyclic, and whether it is the piece's own; its kind, width and source
    are appended to ``stats["pieces"]``."""
    d = dec._join_tree(edges)[0]
    own = d is not None
    source = "own-jointree"
    if not own:
        source, d = "restricted", derive()
    stats["pieces"].append({"kind": d.kind.value, "width": d.raw_width(), "source": source})
    return d, own


def _component_relation(h, d, comp, atom_rels, stats, idx) -> Relation:
    """Steps (2)-(4) for one S-component: decompose it, materialize one
    relation per bag, and project their join onto the free boundary.

    The component is counted from its core piece: the atoms that meet its
    core, whose union is the closure, each whole. The closure's other,
    boundary-only edges (atoms over free variables only, and other
    components' atoms cut down to this closure) are left out, which is
    sound because the final count still joins each of them: an all-free
    atom is a kept atom of the rewritten query, and any other meets exactly
    one other core, so it lies inside that component's relation.

    An acyclic core piece gets its own join tree over its edges, read off
    ``h`` by ordinal (each atom's edge id). A cyclic one gets the
    subtree of the verified ``d`` that meets the closure, so its
    ``bag_sizes`` list only that subtree; that subtree's guards may name a
    boundary-only edge, so it joins every edge of the closure, each cut
    down to it, their ids read off ``h`` in declared order with no induced
    hypergraph built. Both trees are valid by construction, so each is also a
    join tree of its own bags, which ``starsize._bag_cover`` walks for
    ``cover_sizes``, and both name the original edge ids, which key the
    relations."""
    scope = comp.closure
    ordinals = sorted(h._meeting(comp.core))
    piece = _first_ids(map(h.edges.__getitem__, ordinals))
    di, own = _piece_decomposition(stats, piece, lambda: induced_decomposition(h, d, scope))
    if own:
        sub_rels = {o: atom_rels[o] for o in ordinals}
    else:
        sub_rels = {}
        for o in h.meeting_edge_ids(scope):
            rel = atom_rels[o]
            sub_rels[o] = project(rel, [v for v in rel.schema if v in scope], f"p{o}")

    bags = _bag_materialize(sub_rels, di)
    sizes = [len(bags[n.node_id]) for n in di.topo_order()]
    stats["bag_sizes"].append(sizes)
    # the edge-cover size is the paper's bound on the boundary relation
    _, cover = starsize._bag_cover(di.topo_order(), comp.s_vertices, h.vertex_index)
    stats["cover_sizes"].append(len(cover))

    s_schema = tuple(v for v in h.vertices if v in comp.s_vertices)
    return _join_project(di, bags, s_schema, f"c{idx}")


def _rebuild_decomposition(h, d, comps, kept) -> Decomposition:
    """Quantifier-elimination rewrite of the decomposition, the same for
    every kind. Kept atom ``kept[j]`` becomes edge j and component i's edge
    is ``len(kept) + i``. A node touches the components that its bag, its
    guard edges or its weighted edges meet. Its bag loses the core vertices
    and gains the boundary of each component the bag meets; its guard and
    its weights each keep their kept edges and gain the edge of each touched
    component, weighted 1. One vertex -> component map answers which cores
    a bag or an edge meets. Node ids and the tree are unchanged. The
    pipeline counts along it only when the rewritten query is cyclic."""
    comp_of = {v: i for i, comp in enumerate(comps) for v in comp.core}
    new_id = {e: j for j, e in enumerate(kept)}

    def hits(vs) -> set[int]:
        return {comp_of[v] for v in vs if v in comp_of}

    nodes = []
    for n in d.nodes:
        met = hits(n.bag)
        bag = frozenset(v for v in n.bag if v not in comp_of).union(*(comps[i].s_vertices for i in met))
        touched = met.union(*(hits(h.edge_set(e)) for e in n.guard.union(n.weights or ())))
        new_edges = [len(kept) + i for i in sorted(touched)]
        guard = frozenset(new_id[e] for e in n.guard if e in new_id).union(new_edges)
        weights = None
        if n.weights is not None:
            weights = {new_id[e]: w for e, w in n.weights.items() if e in new_id}
            weights.update(dict.fromkeys(new_edges, Fraction(1)))
        nodes.append(DecompNode(n.node_id, n.parent, guard, bag, weights))
    kind = DecompKind.FRACTIONAL if d.kind is DecompKind.FRACTIONAL else DecompKind.GHD
    return Decomposition(kind, tuple(nodes))


# -- brute-force oracle ------------------------------------------------------


def count_brute(inst: QueryInstance, *, max_assignments: int = BRUTE_MAX_ASSIGNMENTS) -> CountResult:
    """Enumerate free-variable assignments in lexicographic domain order and
    decide the existential remainder by backtracking over atoms."""
    free = inst.query.free_vars
    n = len(inst.structure.domain)
    total = n ** len(free)
    if total > max_assignments:
        raise TooLarge(f"{total} assignments exceed budget {max_assignments}")
    rels = [atom_relation(inst.structure, a) for a in inst.query.atoms]

    # rows grouped by the values at a fixed set of bound positions; the set of
    # position patterns is tiny because the query shape is fixed
    index_cache: dict = {}

    def rows_matching(i: int, bound: tuple) -> list:
        positions = tuple(pos for pos, _ in bound)
        key = (i, positions)
        idx = index_cache.get(key)
        if idx is None:
            idx = {}
            for row in rels[i].rows:
                idx.setdefault(tuple(row[p] for p in positions), []).append(row)
            index_cache[key] = idx
        return idx.get(tuple(val for _, val in bound), [])

    def exists(remaining: list[int], binding: dict) -> bool:
        if not remaining:
            return True
        best, best_unbound = None, None
        for i in remaining:
            unbound = sum(1 for v in rels[i].schema if v not in binding)
            if best_unbound is None or unbound < best_unbound:
                best, best_unbound = i, unbound
        rel = rels[best]
        rest = [i for i in remaining if i != best]
        bound = tuple((pos, binding[v]) for pos, v in enumerate(rel.schema) if v in binding)
        for row in rows_matching(best, bound):
            added = []
            for pos, v in enumerate(rel.schema):
                if v not in binding:
                    binding[v] = row[pos]
                    added.append(v)
            if exists(rest, binding):
                for v in added:
                    del binding[v]
                return True
            for v in added:
                del binding[v]
        return False

    count = 0
    indices = list(range(len(rels)))
    for combo in product(range(n), repeat=len(free)):
        if exists(indices, dict(zip(free, combo))):
            count += 1
    return CountResult(count, "brute", {"assignments": total})

