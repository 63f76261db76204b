"""Seeded differential of the counting pipeline against brute force.

Every instance is counted by ``count_brute``, by ``oracles.count_by_full_join``
and by ``count_cq_via_ghd`` along each of its decompositions, and along
the integralization of each one that is not fractional: the default choice
(a join tree if the query is acyclic, else a hingetree),
``hinge_decompose``, the narrowest GHD of width at most 3 that
``ghd_search`` finds, ``tree_decompose``, and, for the ``cycle-ghd``,
``wide-guards`` and ``cycle-free-atom`` families, a GHD built by hand. The
``half-weights`` family adds a fractional decomposition built by hand,
counted only along itself. Each count is one check against
``count_brute``. The pipeline guards the tree decomposition itself
(``decomposition.guarded``); the differential verifies that guarded tree
with ``oracles.tree_fault``, integralizes it, and reads it wherever it
reads the decomposition below. Along each decomposition, plain and
integralized, the relation that ``engine._bag_materialize`` builds for
each node is also checked against ``oracles.bag_relations_reference``, by
schema and rows. A count cannot show a bag relation that only lost an
extra guard's filter, since every atom is still joined at the node it is
assigned to; this check can. Every kind is materialized the same way, so
the count along the integralized decomposition must report the same
``stats`` as the count along the plain one, but for the kind of a
``restricted`` piece, which is ``fractional`` there.

The pipeline trusts the trees it derives from a verified decomposition:
each S-component's counted piece is either its core piece (the atoms that
meet its core) along the core piece's own join tree, or, when the core
piece is cyclic, its whole closure along the decomposition's restriction
to the closure; then the join tree over that tree's bags. It trusts the
tree it counts the rewritten query along too: the rewritten query's own
join tree, or, when that query is cyclic, the decomposition's rewrite
(``engine._rebuild_decomposition``). The differential verifies every one
of them, along every decomposition it counts along, with
``oracles.tree_fault``; a faulty tree is a mismatch too. Along each
decomposition it also checks the paper's bound (``bound/<label>``): each
component's boundary relation holds at most the product, over the edge
cover of the counted piece's bags, of each bag relation projected onto
its free vertices. Where a counted piece's bags form a star (one key that
every bag holds, and no other variable in two bags), it checks the star
route too (``star/<label>``): the relation ``engine._join_project`` builds
from those bags must equal the Yannakakis route's, ``engine._yannakakis``,
on the same bags; the run tallies the stars it reached by their number of
relations.

The families make sure every per-piece path runs: cycles with two spaced
free variables rewrite to an acyclic query, three spaced free variables
rewrite to a triangle (the rewritten decomposition is the fallback), and
adjacent free variables leave the atom between them out of the one
component, whose core piece is then a path with its own join tree. In
``cycle-free-atom`` one free variable x0 leaves the whole cycle as the
core piece, which is cyclic (the restricted decomposition is the
fallback), and an atom U(x0) puts an all-free edge into the closure, which
the fallback joins and which its hand-built GHD names as a guard.
Boolean queries and zero-arity atoms are families of their own. In
``wide-guards`` a node joins guards that reach outside its bag, and a
variable outside the bag links two of its parts that are not adjacent in
the join order, so a bag join that drops that variable too early, or
keeps it to the end, gives a wrong relation. In ``star`` 3-5 atoms meet
in a centre of one or two quantified variables, so the star route meets
stars of up to 5 relations; a free key variable, private quantified
variables, atoms over the key alone, repeated predicates and variables,
and empty relations are drawn at random.

The first mismatch of a run is shrunk: ``shrink`` drops atoms, in a
family with no hand-built decomposition, then rows, one at a time while the
comparison still mismatches, and the runner prints the query and the rows
it is left with.

Run the full version with ``PYTHONPATH=src python tests/differential.py
--instances 1500 [--seed S]``. It prints the seed, family and query of
every mismatch and exits 1 if there is any. Case ``i`` of a run from seed
``s`` has seed ``s + i``, and ``make_case(seed)`` rebuilds it alone.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain

from cqstar.decomposition import (
    DecompKind,
    DecompNode,
    Decomposition,
    NotAcyclic,
    blocks_hypergraph,
    ghd_search,
    gyo_join_tree,
    guarded,
    hinge_decompose,
    induced_decomposition,
    jointree_over_bags,
    tree_decompose,
)
from cqstar.engine import (
    QueryInstance,
    Relation,
    Structure,
    _bag_materialize,
    _bind,
    _join_project,
    _rebuild_decomposition,
    _star_key,
    _yannakakis,
    count_brute,
    count_cq_via_ghd,
)
from cqstar.generators import SplitMix64, gen_random_instance
from cqstar.hypergraph import Atom, Hypergraph, Query, from_query, s_components
from cqstar.parser import query_to_text
from cqstar.starsize import acyclic_is_and_cover

import differential_runner
from differential_runner import outcome, shuffle
from oracles import (
    bag_relations_reference,
    count_by_full_join,
    integralize,
    project_reference,
    touching_reference,
)

DEFAULT_SEED = 20131


@dataclass(frozen=True)
class Case:
    family: str
    inst: QueryInstance
    extra: tuple  # (label, decomposition) pairs beyond the default and hinge


def _random_rows(rng: SplitMix64, arity: int, domain: int, most: int) -> frozenset:
    n_rows = 1 + rng.below(min(most, domain ** arity))
    return frozenset(tuple(rng.below(domain) for _ in range(arity)) for _ in range(n_rows))


def cycle_instance(rng: SplitMix64, n: int, free_positions) -> QueryInstance:
    """An n-cycle x0 - x1 - ... - x(n-1) - x0, one fresh binary relation per edge."""
    domain = 2 + rng.below(3)
    atoms, relations = [], {}
    for i in range(n):
        name = f"E{i}"
        atoms.append(Atom(name, (f"x{i}", f"x{(i + 1) % n}")))
        relations[name] = Relation(name, ("c0", "c1"), _random_rows(rng, 2, domain, 8))
    free = tuple(f"x{i}" for i in sorted(free_positions))
    structure = Structure(tuple(f"d{i}" for i in range(domain)), relations)
    return QueryInstance(Query("ans", free, tuple(atoms)), structure)


def cycle_ghd(n: int, pivot: int = 0) -> Decomposition:
    """A width-2 GHD of the n-cycle from ``cycle_instance``: a path of bags
    {xp, x(p+i), x(p+i+1)} for i = 1..n-2, indices mod n and p the pivot,
    each guarded by edges p and p+i."""
    nodes = tuple(
        DecompNode(
            i - 1,
            None if i == 1 else i - 2,
            frozenset({pivot, (pivot + i) % n}),
            frozenset({f"x{pivot}", f"x{(pivot + i) % n}", f"x{(pivot + i + 1) % n}"}),
        )
        for i in range(1, n - 1)
    )
    return Decomposition(DecompKind.GHD, nodes)


def half_weights(n: int) -> Decomposition:
    """A fractional decomposition of the n-cycle from ``cycle_instance``
    with empty guards: ``cycle_ghd``'s path of bags {x0, xi, x(i+1)}, each
    with weight 1/2 on edges i-1, i, i+1, 0 and n-1, so each bag vertex lies
    on two of them. For n >= 5 its width is 5/2."""
    nodes = tuple(
        replace(node, guard=frozenset(), weights=dict.fromkeys({i - 1, i, i + 1, 0, n - 1}, Fraction(1, 2)))
        for i, node in enumerate(cycle_ghd(n).nodes, start=1)
    )
    return Decomposition(DecompKind.FRACTIONAL, nodes)


def _random(rng: SplitMix64, seed: int) -> QueryInstance:
    return gen_random_instance(
        variables=2 + rng.below(5),
        atoms=1 + rng.below(6),
        max_arity=3,
        domain=2 + rng.below(3),
        seed=seed,
    )


def _family_random(rng, seed):
    return _random(rng, seed), ()


def _family_cycle_two_free(rng, seed):
    n = 4 + rng.below(4)
    return cycle_instance(rng, n, (0, n // 2)), ()


def _family_cycle_three_free(rng, seed):
    n = 6 + rng.below(3)
    return cycle_instance(rng, n, (0, n // 3, 2 * n // 3)), ()


def _family_cycle_adjacent_free(rng, seed):
    n = 3 + rng.below(4)
    return cycle_instance(rng, n, (0, 1)), ()


def _family_boolean(rng, seed):
    if rng.chance(1, 2):
        inst = _random(rng, seed)
    else:
        inst = cycle_instance(rng, 3 + rng.below(4), ())
    q = inst.query
    return QueryInstance(Query("ans", (), q.atoms), inst.structure), ()


def _family_zero_arity(rng, seed):
    inst = _random(rng, seed)
    rows = frozenset({()}) if rng.chance(3, 4) else frozenset()
    relations = dict(inst.structure.relations, Z=Relation("Z", (), rows))
    atoms = list(inst.query.atoms)
    atoms.insert(rng.below(len(atoms) + 1), Atom("Z", ()))
    query = Query("ans", inst.query.free_vars, tuple(atoms))
    return QueryInstance(query, Structure(inst.structure.domain, relations)), ()


def _family_cycle_ghd(rng, seed):
    n = 4 + rng.below(4)
    free = [i for i in range(n) if rng.chance(1, 3)]
    return cycle_instance(rng, n, free), (("cycle-ghd", cycle_ghd(n)),)


def _family_wide_guards(rng, seed):
    """The cycle's GHD about a pivot p off x0, with extra guards that reach
    outside the bags. The first bag {xp, x(p+1), x(p+2)} joins edges 0, p,
    p+1 and n-1 in that order, so x0, outside the bag, links two parts that
    are not adjacent; every other node gets one random edge more. An extra
    guard only adds a filter that the whole query implies."""
    n = 4 + rng.below(4)
    pivot = 1 + rng.below(n - 3)
    free = [i for i in range(n) if rng.chance(1, 3)]
    nodes = tuple(
        replace(node, guard=node.guard | ({0, n - 1} if node.parent is None else {rng.below(n)}))
        for node in cycle_ghd(n, pivot).nodes
    )
    return cycle_instance(rng, n, free), (("wide-guards", Decomposition(DecompKind.GHD, nodes)),)


def _family_cycle_free_atom(rng, seed):
    """An n-cycle with x0 free and an atom U(x0) more, as edge n, so the
    one component's core piece is the whole cycle, which is cyclic, and its
    closure holds the all-free U. The extra GHD is ``cycle_ghd`` with U in
    the root's guard, so the restriction the component falls back to names
    a boundary-only edge."""
    n = 3 + rng.below(4)
    inst = cycle_instance(rng, n, (0,))
    domain = len(inst.structure.domain)
    relations = dict(inst.structure.relations, U=Relation("U", ("c0",), _random_rows(rng, 1, domain, domain)))
    query = Query("ans", inst.query.free_vars, inst.query.atoms + (Atom("U", ("x0",)),))
    nodes = tuple(replace(node, guard=node.guard | {n}) if node.parent is None else node for node in cycle_ghd(n).nodes)
    extra = (("free-atom-guard", Decomposition(DecompKind.GHD, nodes)),)
    return QueryInstance(query, Structure(inst.structure.domain, relations)), extra


def _family_star(rng, seed):
    """3-5 atoms around a centre of one or two quantified variables, so the
    one component's bags form a star of as many relations, or of fewer
    where two atoms hold the same variables. The key may hold the free
    variable x. An atom adds a free variable of its own, and maybe a
    private quantified one, or nothing, and then only filters on the key.
    A variable may repeat inside an atom, a predicate may repeat at its
    arity, and a relation may be empty."""
    domain = 2 + rng.below(2)
    key = [f"z{i}" for i in range(1 + rng.below(2))] + (["x"] if rng.chance(1, 3) else [])
    free = [v for v in key if v == "x"]
    atoms, relations = [], {}
    for i in range(3 + rng.below(3)):
        tail = [] if rng.chance(1, 5) else [f"y{i}"] + ([f"w{i}"] if rng.chance(1, 3) else [])
        free += tail[:1]
        variables = shuffle(rng, key + tail)
        if rng.chance(1, 4):
            variables.insert(rng.below(len(variables) + 1), variables[rng.below(len(variables))])
        same = [a.predicate for a in atoms if len(a.variables) == len(variables)]
        if same and rng.chance(1, 3):
            name = same[rng.below(len(same))]
        else:
            name = f"P{i}"
            rows = frozenset() if rng.chance(1, 8) else _random_rows(rng, len(variables), domain, 12)
            relations[name] = Relation(name, tuple(f"c{j}" for j in range(len(variables))), rows)
        atoms.append(Atom(name, tuple(variables)))
    structure = Structure(tuple(f"d{i}" for i in range(domain)), relations)
    return QueryInstance(Query("ans", tuple(free), tuple(atoms)), structure), ()


def _family_half_weights(rng, seed):
    n = 5 + rng.below(3)
    free = [i for i in range(n) if rng.chance(1, 3)]
    return cycle_instance(rng, n, free), (("half-weights", half_weights(n)),)


FAMILIES = {
    "random": _family_random,
    "cycle-2-free": _family_cycle_two_free,
    "cycle-3-free": _family_cycle_three_free,
    "cycle-adjacent-free": _family_cycle_adjacent_free,
    "boolean": _family_boolean,
    "zero-arity": _family_zero_arity,
    "cycle-ghd": _family_cycle_ghd,
    "wide-guards": _family_wide_guards,
    "half-weights": _family_half_weights,
    "cycle-free-atom": _family_cycle_free_atom,
    "star": _family_star,
}


def make_case(seed: int) -> Case:
    """The case of one seed: its family cycles through ``FAMILIES`` from
    ``DEFAULT_SEED`` on, so the seed alone rebuilds it."""
    family = list(FAMILIES)[(seed - DEFAULT_SEED) % len(FAMILIES)]
    inst, extra = FAMILIES[family](SplitMix64(seed), seed)
    return Case(family, inst, extra)


def decompositions(case: Case) -> list[tuple[str, Decomposition]]:
    h = from_query(case.inst.query).hypergraph
    hinge = hinge_decompose(h)
    jt = gyo_join_tree(h)
    auto = hinge if isinstance(jt, NotAcyclic) else jt
    ghd = next((g for g in (ghd_search(h, k) for k in (1, 2, 3)) if g is not None), None)
    found = [("ghd", ghd)] if ghd else []
    return [("auto", auto), ("hinge", hinge), *found, ("tree", tree_decompose(h)), *case.extra]


def counted_pieces(inst: QueryInstance, d: Decomposition) -> list:
    """(component, source, hypergraph, tree) for the piece the pipeline
    counts for each S-component, and the tree it counts it along: the core
    piece (the atoms that meet the core, built here by
    ``oracles.touching_reference``) along its own join tree, or, when the
    core piece is cyclic, the whole closure along ``d`` restricted to it."""
    sh = from_query(inst.query)
    out = []
    for comp in s_components(sh):
        piece = touching_reference(sh.hypergraph, comp.core)
        own = gyo_join_tree(piece)
        if isinstance(own, NotAcyclic):
            out.append((comp, "restricted", comp.induced, induced_decomposition(sh.hypergraph, d, comp.closure)))
        else:
            out.append((comp, "own-jointree", piece, own))
    return out


def rewritten_piece(inst: QueryInstance, d: Decomposition) -> tuple:
    """(source, hypergraph, tree) for the rewritten query the pipeline counts
    last. Its edges are the kept atoms (those with no quantified variable),
    each over its variables, then one per S-component, over its free
    boundary, numbered in that order; its vertices come in order of first
    appearance. The tree is the hypergraph's own join tree, or, when it is
    cyclic, ``engine._rebuild_decomposition`` of ``d``."""
    sh = from_query(inst.query)
    h = sh.hypergraph
    comps = s_components(sh)
    kept = [i for i, atom in enumerate(inst.query.atoms) if sh.s.issuperset(atom.variables)]
    schemas = [inst.query.atoms[i].variables for i in kept] + [h.sort_vertices(c.s_vertices) for c in comps]
    rewritten = Hypergraph(chain.from_iterable(schemas), enumerate(schemas))
    own = gyo_join_tree(rewritten)
    if isinstance(own, NotAcyclic):
        return "restricted", rewritten, _rebuild_decomposition(h, d, comps, kept)
    return "own-jointree", rewritten, own


def derived_trees(inst: QueryInstance, d: Decomposition) -> list:
    """(name, hypergraph, tree) for every tree the pipeline derives from ``d``
    and trusts: per S-component, the tree its counted piece is counted
    along, and the join tree over that tree's bags; then the tree the
    rewritten query is counted along."""
    out = []
    for idx, (_, source, piece, di) in enumerate(counted_pieces(inst, d)):
        out.append((f"component {idx} {source}", piece, di))
        out.append((f"component {idx} bags", blocks_hypergraph(piece, di), jointree_over_bags(di)))
    source, rewritten, tree = rewritten_piece(inst, d)
    out.append((f"rewritten {source}", rewritten, tree))
    return out


def bound_excesses(inst: QueryInstance, d: Decomposition) -> list:
    """(component, rows, bound) for each S-component whose boundary relation
    holds more rows than the paper's bound on it: the product, over the
    edge cover of the counted piece's bags, of each bag relation projected
    onto its free vertices. The piece's relations are its atoms cut down to
    the closure; the boundary relation is their join projected onto the
    free vertices, whose rows ``count_brute`` counts, and the bag relations
    are ``oracles.bag_relations_reference`` along the piece's tree."""
    atom_rels = _bind(inst)
    out = []
    for idx, (comp, _, piece, di) in enumerate(counted_pieces(inst, d)):
        rels = {e: project_reference(atom_rels[e], sorted(piece.edge_set(e))) for e in piece.edge_ids()}
        names = {e: f"r{e}" for e in rels}
        piece_query = Query(
            "ans",
            piece.sort_vertices(comp.s_vertices),
            tuple(Atom(names[e], rel.schema) for e, rel in rels.items()),
        )
        structure = Structure(inst.structure.domain, {names[e]: rel for e, rel in rels.items()})
        rows = count_brute(QueryInstance(piece_query, structure)).count
        bags = bag_relations_reference(rels, di)
        _, cover = acyclic_is_and_cover(blocks_hypergraph(piece, di), jointree_over_bags(di), comp.s_vertices)
        bound = 1
        for node in cover:
            bound *= len(project_reference(bags[node], sorted(comp.s_vertices.intersection(bags[node].schema))))
        if rows > bound:
            out.append((idx, rows, bound))
    return out


def star_mismatches(inst: QueryInstance, d: Decomposition, tally: differential_runner.Tally, label: str) -> None:
    """For each S-component whose counted piece's bags form a star, the
    relation that ``engine._join_project`` builds from them, along the star
    route, against the Yannakakis route's on the same bags; the bags are
    those the pipeline builds, from its atoms cut down to the piece. Each
    star reached is tallied by its number of relations."""
    atom_rels = _bind(inst)
    h = from_query(inst.query).hypergraph
    for idx, (comp, _, piece, di) in enumerate(counted_pieces(inst, d)):
        rels = {}
        for e in piece.edge_ids():
            rels[e] = project_reference(atom_rels[e], [v for v in atom_rels[e].schema if v in piece.edge_set(e)])
        bags = _bag_materialize(rels, di)
        nodes = [bags[n.node_id] for n in di.nodes]
        if _star_key(nodes) is None:
            continue
        tally.seen[f"stars of {len(nodes)}"] += 1
        out = tuple(v for v in h.vertices if v in comp.s_vertices)
        got = outcome(lambda: _join_project(di, bags, out, f"c{idx}"))
        tally.compare(f"star/{label}", got, outcome(lambda: _yannakakis(di, bags, out, f"c{idx}")))


def bag_relations(inst: QueryInstance, d: Decomposition) -> dict:
    """Each node's relation from ``engine._bag_materialize``, its columns put
    in sorted order, as its schema and rows: a column outside the bag shows."""
    return {
        node: (tuple(sorted(rel.schema)), project_reference(rel, sorted(rel.schema)).rows)
        for node, rel in _bag_materialize(_bind(inst), d).items()
    }


def as_fractional(stats: dict) -> dict:
    """``count_cq_via_ghd``'s ``stats`` along a decomposition as it reports
    them along the decomposition's integralization: the same, but that a
    ``restricted`` piece reads kind ``fractional``."""
    pieces = [dict(p, kind="fractional") if p["source"] == "restricted" else p for p in stats["pieces"]]
    return dict(stats, pieces=pieces)


def _describe(case: Case) -> str:
    return f"family {case.family}, query {query_to_text(case.inst.query).strip()}"


def check(seed: int, tally: differential_runner.Tally) -> None:
    check_case(make_case(seed), tally)


def check_case(case: Case, tally: differential_runner.Tally) -> None:
    """Each count against ``count_brute``, each node relation against the
    reference, the ``stats`` along each decomposition against those along
    its integralization; every guarded and every derived tree verified."""
    tally.describe = lambda: _describe(case)
    expected = count_brute(case.inst).count
    tally.compare("full-join", outcome(lambda: count_by_full_join(case.inst)), expected)
    h = from_query(case.inst.query).hypergraph
    for label, d in decompositions(case):
        read = guarded(h, d)  # d itself, unless a tree decomposition
        if read is not d:
            tally.verify_trees(f"guarded/{label}", lambda: [("guarded tree", h, read)])
        fractional = d.kind is DecompKind.FRACTIONAL
        alongs = {"fractional": d} if fractional else {"ghd": d, "fractional": integralize(read)}
        results = {}
        for form, along in alongs.items():
            built = guarded(h, along)
            want = {n: (rel.schema, rel.rows) for n, rel in bag_relations_reference(_bind(case.inst), built).items()}
            tally.compare(f"bags/{form}/{label}", outcome(lambda: bag_relations(case.inst, built)), want)
            result = results[form] = outcome(lambda: count_cq_via_ghd(case.inst, along))
            tally.compare(f"{form}/{label}", getattr(result, "count", result), expected)
            tally.verify_trees(f"{form}/{label}", lambda: derived_trees(case.inst, built))
        tally.compare(f"bound/{label}", outcome(lambda: bound_excesses(case.inst, read)), [])
        star_mismatches(case.inst, read, tally, label)
        if not fractional:
            want = outcome(lambda: as_fractional(results["ghd"].stats))
            tally.compare(f"stats/{label}", outcome(lambda: results["fractional"].stats), want)


def shrink(seed: int, key: str) -> str:
    """The case of ``seed`` with atoms dropped one at a time, in body order,
    if its family has no hand-built decomposition (whose guards name atoms
    by ordinal), then rows, relation by relation in name order, while the
    comparison ``key`` still mismatches. A head variable goes with the last
    atom that held it, and a relation with the last atom over it."""
    case = make_case(seed)

    def mismatches(candidate: Case) -> bool:
        tally = differential_runner.Tally(seed)
        outcome(lambda: check_case(candidate, tally))
        return key in tally.keys

    i = 0
    while not case.extra and i < len(case.inst.query.atoms):
        smaller = replace(case, inst=_without_atom(case.inst, i))
        if mismatches(smaller):
            case = smaller
        else:
            i += 1
    for name in sorted(case.inst.structure.relations):
        for row in sorted(case.inst.structure.relations[name].rows):
            relations = dict(case.inst.structure.relations)
            relations[name] = replace(relations[name], rows=relations[name].rows - {row})
            smaller = replace(case, inst=replace(case.inst, structure=replace(case.inst.structure, relations=relations)))
            if mismatches(smaller):
                case = smaller
    structure = case.inst.structure
    rows = {
        name: sorted(tuple(structure.domain[v] for v in row) for row in rel.rows)
        for name, rel in sorted(structure.relations.items())
    }
    return f"{_describe(case)}, rows {rows}"


def _without_atom(inst: QueryInstance, i: int) -> QueryInstance:
    atoms = inst.query.atoms[:i] + inst.query.atoms[i + 1:]
    kept = {v for atom in atoms for v in atom.variables}
    query = Query(inst.query.head, tuple(v for v in inst.query.free_vars if v in kept), atoms)
    used = {atom.predicate for atom in atoms}
    relations = {name: rel for name, rel in inst.structure.relations.items() if name in used}
    return QueryInstance(query, Structure(inst.structure.domain, relations))


if __name__ == "__main__":
    sys.exit(differential_runner.main(check, __doc__, 1500, DEFAULT_SEED, shrink=shrink))
