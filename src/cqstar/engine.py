"""Relational kernel and query counting.

Relations are sets of rows over interned value ids, so set semantics is
enforced at construction and every count is of distinct answers. The
counting pipelines reduce a quantified instance to a quantifier-free
acyclic one: materialize one relation per decomposition node, replace each
quantified component by the relation of its satisfiable free-boundary
assignments, which Yannakakis's join-and-project computes over the
component's bags, then count along the join tree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .decomposition import (
    Decomposition,
    DecompKind,
    DecompNode,
    blocks_hypergraph,
    ensure_valid,
    induced_decomposition,
    jointree_over_bags,
    require_width_one,
    verify,  # unused here, but bench/tracing.py wraps engine.verify
)
from .errors import (
    BindError,
    InvariantViolation,
    NotQuantifierFree,
    TooLarge,
    UnknownVariable,
)
from .hypergraph import Atom, Hypergraph, Query, from_query, s_components
from .starsize import acyclic_is_and_cover

BRUTE_MAX_ASSIGNMENTS = 2_000_000


@dataclass(frozen=True)
class Relation:
    """Named finite relation; rows are tuples of value ids, deduplicated."""

    name: str
    schema: tuple[str, ...]
    rows: frozenset

    def __post_init__(self):
        width = len(self.schema)
        for row in self.rows:
            if len(row) != width:
                raise ValueError(f"row {row!r} does not match schema {self.schema!r}")

    @classmethod
    def from_rows(cls, name: str, schema: Iterable[str], rows: Iterable) -> "Relation":
        return cls(name, tuple(schema), frozenset(tuple(r) for r in rows))

    def __len__(self):
        return len(self.rows)


@dataclass(frozen=True)
class Structure:
    """Interned value domain plus named relations over it."""

    domain: tuple[str, ...]
    relations: Mapping[str, Relation]

    def __post_init__(self):
        n = len(self.domain)
        for rel in self.relations.values():
            for row in rel.rows:
                for vid in row:
                    if not (0 <= vid < n):
                        raise ValueError(f"value id {vid} outside domain of size {n}")

    def value(self, vid: int) -> str:
        return self.domain[vid]


@dataclass(frozen=True)
class QueryInstance:
    query: Query
    structure: Structure

    def __post_init__(self):
        arities: dict[str, int] = {}
        for atom in self.query.atoms:
            arities.setdefault(atom.predicate, len(atom.variables))
            rel = self.structure.relations.get(atom.predicate)
            if rel is None:
                raise BindError(f"predicate {atom.predicate!r} not defined in the structure")
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


def natural_join(r1: Relation, r2: Relation, name: Optional[str] = None) -> Relation:
    """Rows of r1 x r2 agreeing on shared variables; r1's schema order first."""
    shared = [v for v in r1.schema if v in r2.schema]
    extra = [v for v in r2.schema if v not in r1.schema]
    schema = r1.schema + tuple(extra)
    p1 = [r1.schema.index(v) for v in shared]
    p2 = [r2.schema.index(v) for v in shared]
    pextra = [r2.schema.index(v) for v in extra]
    index: dict = {}
    for row in r2.rows:
        index.setdefault(tuple(row[i] for i in p2), []).append(row)
    out = set()
    for row in r1.rows:
        key = tuple(row[i] for i in p1)
        for other in index.get(key, ()):
            out.add(row + tuple(other[i] for i in pextra))
    return Relation(name or f"({r1.name}*{r2.name})", schema, frozenset(out))


def project(r: Relation, variables: Sequence[str], name: Optional[str] = None) -> Relation:
    positions = []
    for v in variables:
        if v not in r.schema:
            raise UnknownVariable(f"variable {v!r} not in schema {r.schema!r}")
        positions.append(r.schema.index(v))
    rows = frozenset(tuple(row[i] for i in positions) for row in r.rows)
    return Relation(name or r.name, tuple(variables), rows)


def select(r: Relation, binding: Mapping[str, int], name: Optional[str] = None) -> Relation:
    positions = []
    for v, value in binding.items():
        if v not in r.schema:
            raise UnknownVariable(f"variable {v!r} not in schema {r.schema!r}")
        positions.append((r.schema.index(v), value))
    rows = frozenset(row for row in r.rows if all(row[i] == val for i, val in positions))
    return Relation(name or r.name, r.schema, rows)


def semijoin(r: Relation, s: Relation, name: Optional[str] = None) -> Relation:
    shared = [v for v in r.schema if v in s.schema]
    if not shared:
        rows = r.rows if s.rows else frozenset()
        return Relation(name or r.name, r.schema, rows)
    pr = [r.schema.index(v) for v in shared]
    ps = [s.schema.index(v) for v in shared]
    keys = {tuple(row[i] for i in ps) for row in s.rows}
    rows = frozenset(row for row in r.rows if tuple(row[i] for i in pr) in keys)
    return Relation(name or r.name, r.schema, rows)


def atom_relation(structure: Structure, atom: Atom, name: Optional[str] = None) -> Relation:
    """The atom's relation with repeated variables collapsed: schema is the
    atom's distinct variables in order, rows filtered to equal repeats."""
    rel = structure.relations[atom.predicate]
    schema = tuple(dict.fromkeys(atom.variables))
    first_pos = [atom.variables.index(v) for v in schema]
    groups = [
        [i for i, w in enumerate(atom.variables) if w == v]
        for v in schema
    ]
    rows = set()
    for row in rel.rows:
        if all(len({row[i] for i in grp}) == 1 for grp in groups):
            rows.add(tuple(row[i] for i in first_pos))
    return Relation(name or atom.predicate, schema, frozenset(rows))


# -- acyclic evaluation -------------------------------------------------------


def _bind(inst: QueryInstance) -> list[Relation]:
    """One relation per atom, indexed by the atom's ordinal (its edge id)."""
    return [atom_relation(inst.structure, a, f"a{i}") for i, a in enumerate(inst.query.atoms)]


def _bag_materialize(rels: Sequence[Relation], d: Decomposition, fractional: bool) -> dict[int, Relation]:
    """One relation per decomposition node, keyed by node id: the join of the
    node's atoms projected onto its bag. ``rels[i]`` is the relation of edge i.

    A guard-based node joins its guard atoms and every atom assigned to it;
    each atom is assigned once, to the first node in topological order whose
    bag holds its variables (so zero-arity atoms land at the root). A
    fractional node joins every atom's projection onto its bag, and the root
    also enforces the zero-arity atoms.
    """
    vertices = list(dict.fromkeys(v for rel in rels for v in rel.schema))
    order = d.topo_order()
    assigned: dict[int, list[int]] = {n.node_id: [] for n in order}
    if not fractional:
        for i, rel in enumerate(rels):
            home = next((n for n in order if set(rel.schema) <= n.bag), None)
            if home is None:
                raise InvariantViolation(f"atom {i} is not covered by any bag")
            assigned[home.node_id].append(i)

    out: dict[int, Relation] = {}
    for n in order:
        bag_vars = [v for v in vertices if v in n.bag]
        if fractional:
            parts = [
                project(rel, [v for v in rel.schema if v in n.bag])
                for rel in rels
                if n.bag & set(rel.schema)
            ]
            if n.parent is None:
                parts += [rel for rel in rels if not rel.schema]
        else:
            parts = [rels[i] for i in sorted(set(n.guard).union(assigned[n.node_id]))]
        if parts:
            acc = parts[0]
            for rel in parts[1:]:
                acc = natural_join(acc, rel)
            if not set(bag_vars) <= set(acc.schema):
                raise InvariantViolation(f"bag {bag_vars} not covered by joined atoms")
            out[n.node_id] = project(acc, bag_vars, f"b{n.node_id}")
        else:
            if bag_vars:
                raise InvariantViolation(f"nonempty bag {bag_vars} with no covering atom")
            out[n.node_id] = Relation(f"b{n.node_id}", (), frozenset({()}))
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
    """The join of the node relations projected onto ``out`` (Yannakakis,
    VLDB 1981): a full semijoin reduction, then one bottom-up pass that joins
    each node into its parent, keeping only ``out`` and the variables the
    parent's bag shares. Running intersection makes dropping the rest safe."""
    reduced = _top_down(jt, _bottom_up(jt, rels))
    keep_out = set(out)
    acc = dict(reduced)
    for node in jt.post_order():
        if node.parent is not None:
            up = reduced[node.parent].schema
            rel = acc[node.node_id]
            rel = project(rel, [v for v in rel.schema if v in keep_out or v in up])
            acc[node.parent] = natural_join(acc[node.parent], rel)
    return project(acc[jt.root().node_id], out, name)


def boolean_acq(inst: QueryInstance, jt: Decomposition) -> bool:
    """Satisfiability of the instance by bottom-up semijoin reduction only;
    no tuples beyond the per-node relations are ever materialized."""
    require_width_one(from_query(inst.query).hypergraph, jt)
    rels = _bag_materialize(_bind(inst), jt, fractional=False)
    if any(not r.rows for r in rels.values()):
        return False
    reduced = _bottom_up(jt, rels)
    return bool(reduced[jt.root().node_id].rows)


def count_acyclic_qf(inst: QueryInstance, jt: Decomposition) -> CountResult:
    """Exact count for a quantifier-free acyclic instance.

    Semijoin reduction followed by one bottom-up pass that stores, per
    surviving tuple, its number of distinct extensions into the subtree.
    """
    q = inst.query
    if set(q.free_vars) != set(q.variables()):
        raise NotQuantifierFree("count_acyclic_qf requires all variables free")
    require_width_one(from_query(q).hypergraph, jt)
    rels = _bag_materialize(_bind(inst), jt, fractional=False)
    max_intermediate = max((len(r) for r in rels.values()), default=0)
    reduced = _top_down(jt, _bottom_up(jt, rels))
    children = jt.children_map()
    counts: dict[int, dict[tuple, int]] = {}
    for node in jt.post_order():
        rel = reduced[node.node_id]
        table: dict[tuple, int] = {row: 1 for row in rel.rows}
        for child in children[node.node_id]:
            crel = reduced[child.node_id]
            shared = [v for v in rel.schema if v in crel.schema]
            pc = [crel.schema.index(v) for v in shared]
            pp = [rel.schema.index(v) for v in shared]
            sums: dict[tuple, int] = {}
            for crow, c in counts[child.node_id].items():
                key = tuple(crow[i] for i in pc)
                sums[key] = sums.get(key, 0) + c
            for row in list(table):
                key = tuple(row[i] for i in pp)
                table[row] *= sums.get(key, 0)
        counts[node.node_id] = table
    total = sum(counts[jt.root().node_id].values())
    stats = {
        "bag_sizes": [len(rels[n.node_id]) for n in jt.topo_order()],
        "max_intermediate": max_intermediate,
    }
    return CountResult(total, "acyclic-qf", stats)


# -- the quantified counting pipeline ----------------------------------------


def count_cq_via_ghd(inst: QueryInstance, d: Decomposition) -> CountResult:
    return _count_pipeline(inst, d, fractional=False)


def count_cq_via_fractional(inst: QueryInstance, d: Decomposition) -> CountResult:
    return _count_pipeline(inst, d, fractional=True)


def _count_pipeline(inst: QueryInstance, d: Decomposition, fractional: bool) -> CountResult:
    sh = from_query(inst.query)
    h = sh.hypergraph
    if fractional:
        ensure_valid(h, d, (DecompKind.FRACTIONAL,))
    else:
        ensure_valid(h, d, (DecompKind.JOINTREE, DecompKind.GHD, DecompKind.HINGE))
    comps = s_components(sh)
    atom_rels = _bind(inst)
    stats: dict = {"components": len(comps), "cover_sizes": [], "bag_sizes": [], "max_intermediate": 0}

    quantified = set(h.vertices) - sh.s
    kept = [i for i, a in enumerate(inst.query.atoms) if not (set(a.variables) & quantified)]
    final_rels = [atom_rels[i] for i in kept]
    for idx, comp in enumerate(comps):
        final_rels.append(_component_relation(h, d, comp, atom_rels, fractional, stats, idx))

    final_atoms = tuple(Atom(f"__r{j}", rel.schema) for j, rel in enumerate(final_rels))
    final_query = Query("ans", inst.query.free_vars, final_atoms)
    final_h = from_query(final_query).hypergraph
    d2 = _rebuild_decomposition(h, d, comps, kept, fractional, final_h)
    ensure_valid(final_h, d2, (d2.kind,))

    bags = _bag_materialize(final_rels, d2, fractional)
    bag_rels = [bags[j] for j in range(len(d2.nodes))]
    free = tuple(dict.fromkeys(v for rel in bag_rels for v in rel.schema))
    if set(free) != set(inst.query.free_vars):
        raise InvariantViolation("materialized bags do not cover exactly the free variables")
    sizes = [len(rel) for rel in bag_rels]
    stats["bag_sizes"].append(sizes)
    stats["max_intermediate"] = max(stats["max_intermediate"], max(sizes, default=0))

    bag_query = Query("bags", free, tuple(Atom(f"__b{j}", rel.schema) for j, rel in enumerate(bag_rels)))
    bag_structure = Structure(inst.structure.domain, {f"__b{j}": rel for j, rel in enumerate(bag_rels)})
    result = count_acyclic_qf(QueryInstance(bag_query, bag_structure), jointree_over_bags(d2))
    stats["max_intermediate"] = max(stats["max_intermediate"], result.stats["max_intermediate"])
    return CountResult(result.count, "fractional" if fractional else "ghd", stats)


def _component_relation(h, d, comp, atom_rels, fractional, stats, idx) -> Relation:
    """Steps (2)-(4) for one S-component: restrict the atoms and the
    decomposition to the component, materialize one relation per bag, and
    project their join onto the free boundary."""
    scope = comp.closure
    sub_rels: list[Relation] = []
    ordinal: dict[int, int] = {}
    for o, rel in enumerate(atom_rels):
        keep = tuple(v for v in rel.schema if v in scope)
        if keep:
            ordinal[o] = len(sub_rels)
            sub_rels.append(project(rel, keep, f"p{o}"))

    nodes = []
    for n in induced_decomposition(h, d, scope).nodes:
        guard = frozenset(ordinal[e] for e in n.guard)
        weights = None if n.weights is None else {ordinal[e]: w for e, w in n.weights.items()}
        nodes.append(DecompNode(n.node_id, n.parent, guard, n.bag, weights))
    di = Decomposition(d.kind, tuple(nodes))

    bags = _bag_materialize(sub_rels, di, fractional)
    sizes = [len(bags[n.node_id]) for n in di.topo_order()]
    stats["bag_sizes"].append(sizes)
    stats["max_intermediate"] = max(stats["max_intermediate"], max(sizes, default=0))

    # the edge-cover size is the paper's bound on the boundary relation
    hp = blocks_hypergraph(comp.induced, di)
    _, cover = acyclic_is_and_cover(hp, jointree_over_bags(di), comp.s_vertices)
    stats["cover_sizes"].append(len(cover))

    s_schema = tuple(v for v in h.vertices if v in comp.s_vertices)
    return _join_project(di, bags, s_schema, f"c{idx}")


def _rebuild_decomposition(h, d, comps, kept, fractional, final_h) -> Decomposition:
    """Quantifier-elimination rewrite of the decomposition: bags lose core
    vertices and gain the boundary sets of the components they touched;
    guards swap core-meeting edges for the new component edges. Nodes are
    renumbered 0..n-1 in topological order, so node j's bag becomes atom j
    of the bag instance."""
    cores = [comp.core for comp in comps]
    boundaries = [comp.s_vertices for comp in comps]
    all_core = frozenset().union(*cores) if cores else frozenset()
    new_edge_id = {("atom", orig): j for j, orig in enumerate(kept)}
    for i in range(len(comps)):
        new_edge_id[("comp", i)] = len(kept) + i

    order = d.topo_order()
    position = {n.node_id: j for j, n in enumerate(order)}
    nodes = []
    for n in order:
        touched = {i for i, core in enumerate(cores) if n.bag & core}
        bag = n.bag - all_core
        for i in touched:
            bag = bag | boundaries[i]
        triggers = set(touched)
        guard = set()
        for e in n.guard:
            es = h.edge_set(e)
            hit = {i for i, core in enumerate(cores) if es & core}
            if hit:
                triggers |= hit
            else:
                guard.add(new_edge_id[("atom", e)])
        guard |= {new_edge_id[("comp", i)] for i in triggers}

        weights = None
        if fractional:
            weights = {}
            for e, w in (n.weights or {}).items():
                es = h.edge_set(e)
                hit = {i for i, core in enumerate(cores) if es & core}
                if hit:
                    triggers |= hit
                else:
                    weights[new_edge_id[("atom", e)]] = w
            for i in sorted(triggers):
                weights[new_edge_id[("comp", i)]] = Fraction(1)
            for v in bag:
                total = sum(
                    (w for eid, w in weights.items() if v in final_h.edge_set(eid)),
                    Fraction(0),
                )
                if total < 1:
                    repaired = False
                    for i, boundary in enumerate(boundaries):
                        eid = new_edge_id[("comp", i)]
                        if v in boundary and eid not in weights:
                            weights[eid] = Fraction(1)
                            repaired = True
                            break
                    if not repaired:
                        raise InvariantViolation(f"cannot cover vertex {v!r} in rebuilt bag")
            guard |= set(weights)
        parent = None if n.parent is None else position[n.parent]
        nodes.append(DecompNode(position[n.node_id], parent, frozenset(guard), bag, weights))
    kind = DecompKind.FRACTIONAL if fractional else DecompKind.GHD
    return Decomposition(kind, tuple(nodes))


# -- brute-force oracle and enumeration ---------------------------------------


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
    for combo in itertools.product(range(n), repeat=len(free)):
        if exists(indices, dict(zip(free, combo))):
            count += 1
    return CountResult(count, "brute", {"assignments": total})


def enumerate_is(h: Hypergraph):
    """Every independent set exactly once, in lexicographic vertex order."""
    adj = h.conflict_adjacency()
    order = h.vertices

    def extend(prefix: list, blocked: frozenset, start: int):
        for i in range(start, len(order)):
            v = order[i]
            if v in blocked:
                continue
            prefix.append(v)
            yield frozenset(prefix)
            yield from extend(prefix, blocked | adj[v], i + 1)
            prefix.pop()

    yield frozenset()
    yield from extend([], frozenset(), 0)
