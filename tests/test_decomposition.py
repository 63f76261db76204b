import inspect
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

import cqstar.decomposition as dec
from cqstar.decomposition import (
    CONNECTEDNESS,
    EDGE_UNCOVERED,
    GUARD_GAP,
    HINGE_EDGE_MISSING,
    HINGE_INTERSECTION,
    HINGE_UNION,
    WEIGHT_DEFICIT,
    DecompKind,
    DecompNode,
    Decomposition,
    NotAcyclic,
    ghd_search,
    guarded,
    gyo_join_tree,
    hinge_decompose,
    induced_decomposition,
    subtree_nodes,
    tree_decompose,
    verify,
)
from cqstar.errors import DecompositionInvalid, IdMismatch
from cqstar.generators import SimpleGraph, SplitMix64, gen_is_hardness_hypergraph, gen_random_acyclic
from cqstar.hypergraph import Hypergraph, SHypergraph, s_components

from conftest import MISSED_BOUND_PAIRS
from oracles import (
    blocks_hypergraph,
    components_reference,
    elimination_width_reference,
    exact_elimination_order_reference,
    gyo_reference,
    hinge_reference,
    hypergraph_induced_reference,
    is_acyclic_bruteforce,
    min_fill_order_reference,
    min_hinge_width,
    minor_min_width_reference,
    tree_targets,
    treewidth_by_permutations,
    verify_reference,
)


def single_node(h, kind=DecompKind.GHD):
    return Decomposition(
        kind,
        (DecompNode(0, None, frozenset(h.edge_ids()), frozenset(h.vertices)),),
    )


def random_hypergraph(rng, max_vertices=8, max_edges=6, max_arity=4):
    n = 1 + rng.below(max_vertices)
    vertices = [f"w{i}" for i in range(n)]
    edges = []
    for i in range(1 + rng.below(max_edges)):
        arity = 1 + rng.below(min(max_arity, n))
        pool = list(vertices)
        members = [pool.pop(rng.below(len(pool))) for _ in range(arity)]
        edges.append((f"e{i}", frozenset(members)))
    used = sorted({v for _, fs in edges for v in fs}, key=vertices.index)
    return Hypergraph(used, edges)


# -- verify -------------------------------------------------------------------


def test_verify_single_node_ghd(tri):
    report = verify(tri, single_node(tri))
    assert report.ok
    assert report.width == 3


def test_verify_reports_id_mismatch(tri):
    bad = Decomposition(
        DecompKind.GHD, (DecompNode(0, None, frozenset({"zz"}), frozenset("abc")),)
    )
    with pytest.raises(IdMismatch):
        verify(tri, bad)


def test_verify_connectedness_violation():
    from cqstar.generators import gen_g_star

    h = gen_g_star(3).hypergraph
    jt = gyo_join_tree(h)
    by_id = {n.node_id: n for n in jt.nodes}
    # the star center sits in a chain of three bags; drop it from the middle
    target = None
    for n in jt.nodes:
        if n.parent is None:
            continue
        parent = by_id[n.parent]
        if parent.parent is None:
            continue
        grand = by_id[parent.parent]
        for v in sorted(n.bag & parent.bag & grand.bag):
            target = (parent, v)
            break
    assert target is not None
    mid, v = target
    nodes = tuple(
        replace(n, bag=n.bag - {v}) if n.node_id == mid.node_id else n for n in jt.nodes
    )
    report = verify(h, Decomposition(jt.kind, nodes))
    assert any(x.tag == CONNECTEDNESS and x.vertex == v for x in report.violations)
    assert report.width is None


def test_verify_edge_uncovered(tri):
    d = Decomposition(
        DecompKind.GHD,
        (DecompNode(0, None, frozenset({"ab", "bc"}), frozenset({"a", "b", "c"})),),
    )
    report = verify(tri, d)
    assert report.ok  # {c,a} is inside the bag
    smaller = Decomposition(
        DecompKind.GHD, (DecompNode(0, None, frozenset({"ab"}), frozenset({"a", "b"})),)
    )
    report = verify(tri, smaller)
    assert any(x.tag == EDGE_UNCOVERED for x in report.violations)


def test_verify_guard_gap(tri):
    d = Decomposition(
        DecompKind.GHD, (DecompNode(0, None, frozenset({"ab"}), frozenset({"a", "b", "c"})),)
    )
    report = verify(tri, d)
    assert any(x.tag == GUARD_GAP and x.vertex == "c" for x in report.violations)


def test_verify_hinge_conditions(tri, path3):
    d = single_node(tri, DecompKind.HINGE)
    assert verify(tri, d).ok
    # bag smaller than the guard union breaks condition 5
    shrunk = Decomposition(
        DecompKind.HINGE,
        (DecompNode(0, None, frozenset(tri.edge_ids()), frozenset({"a", "b"})),),
    )
    report = verify(tri, shrunk)
    assert any(x.tag == HINGE_UNION for x in report.violations)
    # a guard-complete pair of overlapping nodes with no single shared edge
    h = Hypergraph("abc", [("ab", {"a", "b"}), ("bc", {"b", "c"})])
    d = Decomposition(
        DecompKind.HINGE,
        (
            DecompNode(0, None, frozenset({"ab"}), frozenset({"a", "b"})),
            DecompNode(1, 0, frozenset({"bc"}), frozenset({"b", "c"})),
        ),
    )
    assert verify(h, d).ok
    # drop an edge from every guard: condition 6
    d2 = Decomposition(
        DecompKind.HINGE,
        (
            DecompNode(0, None, frozenset({"ab"}), frozenset({"a", "b"})),
            DecompNode(1, 0, frozenset({"ab"}), frozenset({"a", "b"})),
        ),
    )
    report = verify(h, d2)
    assert any(x.tag == HINGE_EDGE_MISSING for x in report.violations)


def test_verify_hinge_intersection_violation():
    h = Hypergraph(
        "abcd",
        [("ab", {"a", "b"}), ("bc", {"b", "c"}), ("cd", {"c", "d"}), ("da", {"d", "a"})],
    )
    d = Decomposition(
        DecompKind.HINGE,
        (
            DecompNode(0, None, frozenset({"ab", "bc"}), frozenset({"a", "b", "c"})),
            DecompNode(1, 0, frozenset({"cd", "da"}), frozenset({"c", "d", "a"})),
        ),
    )
    report = verify(h, d)
    assert any(x.tag == HINGE_INTERSECTION for x in report.violations)


def test_verify_fractional(tri):
    half = Fraction(1, 2)
    d = Decomposition(
        DecompKind.FRACTIONAL,
        (
            DecompNode(
                0,
                None,
                frozenset(tri.edge_ids()),
                frozenset("abc"),
                {"ab": half, "bc": half, "ca": half},
            ),
        ),
    )
    report = verify(tri, d)
    assert report.ok
    assert report.width == Fraction(3, 2)
    short = Decomposition(
        DecompKind.FRACTIONAL,
        (DecompNode(0, None, frozenset(tri.edge_ids()), frozenset("abc"), {"ab": half}),),
    )
    report = verify(tri, short)
    assert any(x.tag == WEIGHT_DEFICIT for x in report.violations)
    negative = Decomposition(
        DecompKind.FRACTIONAL,
        (DecompNode(0, None, frozenset(), frozenset("abc"), {"ca": 1, "bc": -1, "ab": 1}),),
    )
    assert [str(x) for x in verify(tri, negative).violations] == [
        "(NEGATIVE_WEIGHT node=0 edge=bc)",
        "(WEIGHT_DEFICIT node=0 vertex=b)",
        "(WEIGHT_DEFICIT node=0 vertex=c)",
    ]


def test_verify_tree_kind(tri):
    d = Decomposition(
        DecompKind.TREE, (DecompNode(0, None, frozenset(), frozenset("abc")),)
    )
    report = verify(tri, d)
    assert report.ok
    assert report.width == 2


# -- gyo ----------------------------------------------------------------------


def test_gyo_tri_is_cyclic(tri):
    result = gyo_join_tree(tri)
    assert isinstance(result, NotAcyclic)
    assert not is_acyclic_bruteforce(tri)
    assert len(result.kernel.edges) == 3


def test_gyo_tri_plus_cover_is_acyclic(tri):
    h = Hypergraph(
        "abc",
        list(tri.edges) + [("abc", frozenset("abc"))],
    )
    jt = gyo_join_tree(h)
    assert isinstance(jt, Decomposition)
    root = jt.root()
    assert root.bag == frozenset("abc")
    assert verify(h, jt).width == 1
    assert is_acyclic_bruteforce(h)


def test_gyo_matches_bruteforce_acyclicity():
    rng = SplitMix64(7)
    agree = 0
    for _ in range(80):
        h = random_hypergraph(rng, max_vertices=6, max_edges=4)
        mine = not isinstance(gyo_join_tree(h), NotAcyclic)
        assert mine == is_acyclic_bruteforce(h)
        agree += 1
    assert agree == 80


def test_gyo_on_generated_acyclic():
    rng = SplitMix64(99)
    for _ in range(120):
        h = gen_random_acyclic(edges=1 + rng.below(8), max_arity=1 + rng.below(4), seed=rng.next_u64())
        jt = gyo_join_tree(h)
        assert isinstance(jt, Decomposition)
        report = verify(h, jt)
        assert report.ok and report.width <= 1


def gyo_input(rng):
    """A small hypergraph that keeps every vertex, so some may be isolated.
    Edge ids mix ints and strings; an edge may be empty or repeat an
    earlier edge's set."""
    n = 1 + rng.below(8)
    vertices = [f"w{i}" for i in range(n)]
    edges = []
    for i in range(rng.below(9)):
        roll = rng.below(12)
        if roll == 0:
            members = frozenset()
        elif roll == 1 and edges:
            members = edges[rng.below(len(edges))][1]
        else:
            pool = list(vertices)
            members = frozenset(pool.pop(rng.below(len(pool))) for _ in range(1 + rng.below(min(4, n))))
        edges.append((i if rng.chance(1, 3) else f"e{i}", members))
    return Hypergraph(vertices, edges)


def test_gyo_matches_reference_on_small_hypergraphs():
    rng = SplitMix64(20261018)
    seen = {"cyclic": 0, "duplicate": 0, "empty edge": 0, "isolated": 0, "disconnected": 0}
    for _ in range(2400):
        h = gyo_input(rng)
        mine, ref = gyo_join_tree(h), gyo_reference(h)
        if isinstance(ref, NotAcyclic):
            assert isinstance(mine, NotAcyclic) and mine.kernel == ref.kernel
            seen["cyclic"] += 1
        else:
            assert mine == ref
        sets = [fs for _, fs in h.edges]
        seen["duplicate"] += len(set(sets)) < len(sets)
        seen["empty edge"] += frozenset() in sets
        seen["isolated"] += any(not h.incident_edges(v) for v in h.vertices)
        seen["disconnected"] += len(components_reference(hypergraph_induced_reference(h, set().union(*sets)))) > 1
    assert min(seen.values()) >= 100, seen


def test_gyo_matches_reference_on_large_acyclic():
    rng = SplitMix64(5150)
    for size in range(50, 401, 12):
        h = gen_random_acyclic(edges=size, max_arity=1 + rng.below(4), seed=rng.next_u64())
        jt = gyo_join_tree(h)
        assert isinstance(jt, Decomposition)
        assert jt == gyo_reference(h)


# -- hinge --------------------------------------------------------------------


def test_hinge_single_edge():
    h = Hypergraph("abc", [("e", frozenset("abc"))])
    d = hinge_decompose(h)
    assert verify(h, d).width == 1


def test_hinge_tri_width_three(tri):
    d = hinge_decompose(tri)
    report = verify(tri, d)
    assert report.ok
    assert report.width == 3
    assert min_hinge_width(tri) == 3


def test_hinge_path_width_one(path3):
    d = hinge_decompose(path3)
    assert verify(path3, d).width == 1


def test_hinge_ex1_width_three(ex1):
    h = ex1.hypergraph
    d = hinge_decompose(h)
    report = verify(h, d)
    assert report.ok
    assert report.width <= 3
    # the same nodes also satisfy the plain GHD conditions
    as_ghd = Decomposition(DecompKind.GHD, d.nodes)
    assert verify(h, as_ghd).ok


def test_hinge_minimal_on_small_hypergraphs():
    rng = SplitMix64(4242)
    checked = 0
    while checked < 60:
        h = random_hypergraph(rng, max_vertices=7, max_edges=6, max_arity=4)
        d = hinge_decompose(h)
        report = verify(h, d)
        assert report.ok
        assert report.width == min_hinge_width(h)
        checked += 1


def test_hinge_dominated_edge_rides_along():
    h = Hypergraph("abc", [("big", frozenset("abc")), ("sub", frozenset("ab"))])
    d = hinge_decompose(h)
    report = verify(h, d)
    assert report.ok
    assert report.width == 1


def test_hinge_shared_pivot_is_one_node():
    """Edge 0 is the pivot of the cyclic block {0, 1, 2} and of the acyclic
    blocks {0, 3} and {0, 4}; those two give the one width-1 node {0}."""
    h = Hypergraph("abcdfg", [(0, "abc"), (1, "ad"), (2, "db"), (3, "cf"), (4, "ag")])
    d = hinge_decompose(h)
    assert sorted(sorted(n.guard) for n in d.nodes) == [[0], [0, 1, 2], [3], [4]]
    assert verify(h, d).width == 3


def test_hinge_disconnected_has_no_empty_root():
    h = Hypergraph("abcd", [("e", "ab"), ("f", "cd")])
    d = hinge_decompose(h)
    assert sorted(sorted(n.guard) for n in d.nodes) == [["e"], ["f"]]
    assert verify(h, d).ok


def test_hinge_long_tail_needs_no_recursion():
    """A triangle with a 300-edge path tail: the triangle's node, one node
    for the pivot edge "ca" that the tail block shares, and one per tail edge,
    built within 100 frames of the caller."""
    tail = [f"p{i}" for i in range(300)]
    edges = [("ab", "ab"), ("bc", "bc"), ("ca", "ca"), ("t0", ("c", "p0"))]
    edges += [(f"t{i}", (tail[i - 1], tail[i])) for i in range(1, 300)]
    h = Hypergraph(["a", "b", "c"] + tail, edges)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        d = hinge_decompose(h)
    finally:
        sys.setrecursionlimit(limit)
    assert len(d.nodes) == 302
    assert verify(h, d).width == 3


def _cycle(k):
    return Hypergraph([f"c{i}" for i in range(k)], [(f"e{i}", {f"c{i}", f"c{(i + 1) % k}"}) for i in range(k)])


def _triangle_chain(n):
    """n triangles, triangle i on x_i, y_i and x_(i+1): each shares one vertex with the next."""
    edges = []
    for i in range(n):
        x, y, z = f"x{i}", f"y{i}", f"x{i + 1}"
        edges += [(f"{i}a", {x, y}), (f"{i}b", {y, z}), (f"{i}c", {z, x})]
    return Hypergraph(sorted({v for _, fs in edges for v in fs}), edges)


def _grid(cols, rows):
    name = "g{}_{}".format
    edges = [(f"h{c}_{r}", {name(c, r), name(c + 1, r)}) for r in range(rows) for c in range(cols - 1)]
    edges += [(f"v{c}_{r}", {name(c, r), name(c, r + 1)}) for r in range(rows - 1) for c in range(cols)]
    return Hypergraph([name(c, r) for r in range(rows) for c in range(cols)], edges)


def _union(*hs):
    """The disjoint union of ``hs``, each relabelled by its position."""
    vertices = [f"{i}:{v}" for i, h in enumerate(hs) for v in h.vertices]
    edges = [(f"{i}:{e}", {f"{i}:{v}" for v in fs}) for i, h in enumerate(hs) for e, fs in h.edges]
    return Hypergraph(vertices, edges)


def _with_copies(h, rng):
    """``h`` plus, for some edges, the same set again and a proper subset of it, under int ids."""
    edges = list(h.edges)
    for i, (_, fs) in enumerate(h.edges):
        if rng.chance(1, 3):
            edges.append((2 * i, fs))
        if len(fs) > 1 and rng.chance(1, 3):
            members = sorted(fs)
            edges.append((2 * i + 1, frozenset(members[: 1 + rng.below(len(members) - 1)])))
    return Hypergraph(h.vertices, edges)


def _hinge_families():
    rng = SplitMix64(34)
    small = [random_hypergraph(rng, max_vertices=9, max_edges=9, max_arity=3) for _ in range(100)]
    cyclic = []
    while len(cyclic) < 100:
        h = random_hypergraph(rng, max_vertices=8, max_edges=12, max_arity=3)
        if isinstance(gyo_join_tree(h), NotAcyclic):
            cyclic.append(h)
    acyclic = [gen_random_acyclic(edges=1 + i, max_arity=1 + i % 4, seed=i) for i in range(60)]
    is_hard = []
    for n in range(2, 6):
        for k in (1, 2, 3):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.chance(1, 2)]
            is_hard.append(gen_is_hardness_hypergraph(SimpleGraph.from_pairs(n, pairs), k)[0])
    return {
        "acyclic": acyclic,
        "random": small,
        "cyclic": cyclic,
        "disconnected": [_union(cyclic[i], acyclic[i], small[i]) for i in range(40)]
        + [_union(acyclic[i], acyclic[i + 1]) for i in range(20)],
        "copies": [_with_copies(h, rng) for h in small[:20] + cyclic[:20] + acyclic[:20]],
        "cycles": [_cycle(k) for k in range(3, 16)] + [_triangle_chain(n) for n in range(1, 9)]
        + [Hypergraph("abcd", [("ab", "ab"), ("bc", "bc"), ("ca", "ca"), ("bd", "bd"), ("cd", "cd")])],
        "grids": [_grid(c, r) for c in range(1, 5) for r in range(1, 5)] + is_hard,
        "edgeless": [Hypergraph([], []), Hypergraph("ab", []), Hypergraph("a", [("e", ())]),
                     Hypergraph("ab", [(0, ()), (1, ())])],
    }


HINGE_FAMILIES = _hinge_families()


@pytest.mark.parametrize("cases", HINGE_FAMILIES.values(), ids=HINGE_FAMILIES.keys())
def test_hinge_matches_reference(cases):
    """The one-GYO-run construction builds the same hingetree, node ids,
    guards, bags and parents, as the route that classified the blocks by a
    GYO pass of its own and built hypergraphs per block, part and bags."""
    for h in cases:
        assert hinge_decompose(h) == hinge_reference(h), h.edges


def test_hinge_runs_gyo_once_and_builds_no_hypergraph(monkeypatch):
    """On an acyclic input the one GYO run is the tree; on a 12-cycle the
    pivots are tried on the block's own incidence. Neither builds a
    ``Hypergraph``."""
    acyclic, cycle = gen_random_acyclic(edges=40, max_arity=3, seed=7), _cycle(12)
    calls = Counter()

    def counting(name, call):
        def counted(*args, **kwargs):
            calls[name] += 1
            return call(*args, **kwargs)
        return counted

    monkeypatch.setattr(dec, "_gyo", counting("_gyo", dec._gyo))
    monkeypatch.setattr(Hypergraph, "__init__", counting("Hypergraph", Hypergraph.__init__))
    assert verify(acyclic, hinge_decompose(acyclic)).width == 1
    assert calls == {"_gyo": 1}
    calls.clear()
    assert verify(cycle, hinge_decompose(cycle)).width == 12
    assert calls["Hypergraph"] == 0


# -- ghd search ---------------------------------------------------------------


def test_ghd_search_acyclic_k1(path3):
    d = ghd_search(path3, 1)
    assert d is not None
    report = verify(path3, d)
    assert report.ok and report.width == 1


def test_ghd_search_tri_k1_none_k2_found(tri):
    assert ghd_search(tri, 1) is None
    d = ghd_search(tri, 2)
    report = verify(tri, d)
    assert report.ok and report.width <= 2


def test_ghd_search_matches_gyo_small():
    rng = SplitMix64(31337)
    for _ in range(60):
        h = random_hypergraph(rng, max_vertices=6, max_edges=5)
        acyclic = not isinstance(gyo_join_tree(h), NotAcyclic)
        assert (ghd_search(h, 1) is not None) == acyclic


def test_ghd_search_ex1_width3(ex1):
    h = ex1.hypergraph
    d = ghd_search(h, 3)
    assert d is not None
    report = verify(h, d)
    assert report.ok
    assert report.width <= 3


def test_ghd_search_budget(tri):
    from cqstar.errors import BudgetExceeded

    with pytest.raises(BudgetExceeded):
        ghd_search(tri, 3, node_budget=0)


def test_ghd_search_stops_at_the_branch_limit(monkeypatch):
    """Past ``GHD_EXACT_EDGE_CUTOFF`` dedup edges each state tries at most
    ``GHD_BRANCH_LIMIT`` guards. A 12-cycle has a width-2 GHD, which the
    search finds at the default limit; with the limit at 1 the pruned
    search stops with None. At every limit it returns None or a GHD that
    verifies."""
    h = _cycle(12)
    assert len(h.dedup_edges()) > dec.GHD_EXACT_EDGE_CUTOFF
    assert verify(h, ghd_search(h, 2)).width == 2
    found = {}
    for limit in (1, 4, 16, 64):
        monkeypatch.setattr(dec, "GHD_BRANCH_LIMIT", limit)
        d = ghd_search(h, 2)
        found[limit] = d is not None
        if d is not None:
            report = verify(h, d)
            assert report.ok and report.width <= 2
    assert not found[1] and found[64]


# -- tree decompositions ------------------------------------------------------


def test_tree_decompose_tri(tri):
    d = tree_decompose(tri)
    report = verify(tri, d)
    assert report.ok
    assert report.width == 2


def test_tree_decompose_path():
    h = Hypergraph("abcd", [("ab", {"a", "b"}), ("bc", {"b", "c"}), ("cd", {"c", "d"})])
    d = tree_decompose(h)
    assert verify(h, d).width == 1


def test_tree_decompose_single_edge():
    h = Hypergraph("abcde", [("e", frozenset("abcde"))])
    d = tree_decompose(h)
    assert verify(h, d).width == 4


def test_tree_decompose_matches_permutation_oracle():
    rng = SplitMix64(808)
    for _ in range(25):
        h = random_hypergraph(rng, max_vertices=6, max_edges=5, max_arity=3)
        d = tree_decompose(h)
        report = verify(h, d)
        assert report.ok
        assert report.width == treewidth_by_permutations(h)


def test_tree_decompose_heuristic_is_valid(ex1):
    h = ex1.hypergraph  # 17 vertices: heuristic regime
    d = tree_decompose(h)
    assert verify(h, d).ok


def test_guarded_tree_with_an_edgeless_vertex_verifies(tri):
    """No edge can guard a vertex that lies in no edge, so ``guarded`` cuts it
    from its bag, and keeps the tree; the triangle's bag gets two edges."""
    h = Hypergraph("abcz", tri.edges)
    tree = tree_decompose(h)
    d = guarded(h, tree)
    assert [(n.node_id, n.parent) for n in d.nodes] == [(n.node_id, n.parent) for n in tree.nodes]
    guards = {n.bag: len(n.guard) for n in d.nodes}
    assert {"z"} in [n.bag for n in tree.nodes] and guards[frozenset()] == 0
    assert guards[frozenset("abc")] == 2
    report = verify(h, d)
    assert report.ok and report.kind is DecompKind.GHD and report.width == 2


def test_guarded_leaves_other_kinds_alone(ex1):
    h = ex1.hypergraph
    for d in (hinge_decompose(h), ghd_search(h, 3)):
        assert guarded(h, d) is d
    assert verify(h, guarded(h, tree_decompose(h))).ok


def order_case(seed, n, dense, parts=1):
    """n vertices in a shuffled order and edges of two or three vertices,
    about one per vertex (sparse) or three (dense), each edge inside one of
    ``parts`` vertex blocks, so that ``parts`` > 1 is disconnected."""
    rng = SplitMix64(seed)
    names = [f"v{i}" for i in range(n)]
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        names[i], names[j] = names[j], names[i]
    blocks = [names[i::parts] for i in range(parts)]
    edges = []
    for i in range(n * (3 if dense else 1)):
        pool = list(blocks[rng.below(parts)])
        edges.append((i, frozenset(pool.pop(rng.below(len(pool))) for _ in range(2 + rng.below(2)))))
    return Hypergraph(names, edges)


def test_exact_elimination_order_matches_reference_up_to_cutoff(monkeypatch):
    """Up to 12 vertices the bitmask DP returns the order of the old subset
    DP, ties included; at 13 ``tree_decompose`` takes the min-fill route."""
    cases = [(10, False, 1), (10, True, 1), (11, False, 1), (11, True, 1), (12, False, 2), (12, True, 1)]
    for seed, (n, dense, parts) in enumerate(cases):
        h = order_case(seed, n, dense, parts)
        assert len(components_reference(h)) >= parts
        order = dec._exact_elimination_order(h.vertices, h.conflict_adjacency())
        assert order == exact_elimination_order_reference(h), (n, dense, parts)

    def refuse(vertices, adj):
        raise AssertionError("exact route taken past the cutoff")

    monkeypatch.setattr(dec, "_exact_elimination_order", refuse)
    for seed, dense in ((6, False), (7, True)):
        h = order_case(seed, dec.TREE_EXACT_VERTEX_CUTOFF + 1, dense)
        assert tree_decompose(h) == dec._elimination_tree(h.conflict_adjacency(), min_fill_order_reference(h))


def graph_case(n, pairs):
    """The graph on v0 .. v(n-1) with one binary edge per pair."""
    return Hypergraph([f"v{i}" for i in range(n)], [(k, frozenset({f"v{i}", f"v{j}"})) for k, (i, j) in enumerate(pairs)])


def random_graph(seed):
    """8 to 12 vertices, each pair an edge with probability 0.2 to 0.7."""
    rng = SplitMix64(seed)
    n, p = 8 + rng.below(5), 2 + rng.below(6)
    return graph_case(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.below(10) < p])


def count_calls(monkeypatch, name):
    """A list that grows by one per call of ``dec.<name>``, which still runs."""
    calls, inner = [], getattr(dec, name)

    def wrapper(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(dec, name, wrapper)
    return calls


def test_tree_decompose_follows_the_bound_on_random_graphs():
    """On dense random graphs of 8 to 12 vertices the tree is min-fill's when
    its width meets the minor-min-width bound, else the exact DP's, and has
    the least width either way; the batch reaches both routes."""
    routes = Counter()
    for seed in range(24):
        h = random_graph(seed)
        min_fill, exact = min_fill_order_reference(h), exact_elimination_order_reference(h)
        bound = minor_min_width_reference(h)
        assert dec._minor_min_width(h.vertices, h.conflict_adjacency()) == bound, seed
        met = elimination_width_reference(h, min_fill) <= bound
        routes[met] += 1
        d = tree_decompose(h)
        assert d == dec._elimination_tree(h.conflict_adjacency(), min_fill if met else exact), seed
        assert verify(h, d).width == elimination_width_reference(h, exact), seed
    assert routes[True] > 10 and routes[False] >= 2, routes


def test_tree_decompose_runs_the_exact_dp_only_when_the_bound_is_missed(monkeypatch):
    """The pinned miss runs the DP once and gets its narrower tree; a 3 x 4
    grid, whose min-fill width 3 meets the bound, never runs it."""
    calls = count_calls(monkeypatch, "_exact_elimination_order")
    h = graph_case(12, MISSED_BOUND_PAIRS)
    assert elimination_width_reference(h, min_fill_order_reference(h)) == 5
    assert minor_min_width_reference(h) == 4
    d = tree_decompose(h)
    assert len(calls) == 1
    assert d == dec._elimination_tree(h.conflict_adjacency(), exact_elimination_order_reference(h))
    assert verify(h, d).width == 4
    calls.clear()
    grid = _grid(4, 3)
    assert verify(grid, tree_decompose(grid)).width == 3
    assert calls == []


# -- induced and blocks -------------------------------------------------------


def test_induced_decomposition_identity_and_empty(ex1):
    h = ex1.hypergraph
    assert len(components_reference(h)) == 1
    d = hinge_decompose(h)
    assert induced_decomposition(h, d, set(h.vertices)) == d
    with pytest.raises(DecompositionInvalid, match="found 0"):
        induced_decomposition(h, d, set())


def test_subtree_nodes_come_root_first_in_tree_order(ex1, path3):
    """Ranked by their place in ``topo_order()``, the nodes that meet each
    component closure are those ``induced_decomposition`` keeps, in its
    tree's order: the subtree's root first, every parent before its
    children. A set that meets no node, or two parts of the tree, raises."""
    h = ex1.hypergraph
    sizes = []
    for d in (hinge_decompose(h), ghd_search(h, 3)):
        at = {n.node_id: r for r, n in enumerate(d.topo_order())}
        rank = [at[n.node_id] for n in d.nodes]
        for comp in s_components(ex1):
            kept = subtree_nodes(d, comp.closure, rank)
            assert [n.node_id for n in kept] == [n.node_id for n in induced_decomposition(h, d, comp.closure).topo_order()]
            sizes.append(len(kept))
    assert max(sizes) > 2
    chain = Decomposition(DecompKind.JOINTREE, (
        DecompNode(0, None, frozenset({"ab"}), frozenset("ab")),
        DecompNode(1, 0, frozenset({"bc"}), frozenset("bc")),
        DecompNode(2, 1, frozenset({"cd"}), frozenset("cd")),
    ))
    assert verify(path3, chain).ok
    assert [n.node_id for n in subtree_nodes(chain, "cd", range(3))] == [1, 2]
    for vs, roots in (("", 0), ("ad", 2)):
        with pytest.raises(DecompositionInvalid, match=f"found {roots}"):
            subtree_nodes(chain, vs, range(3))


def test_induced_decomposition_width_never_grows(ex1):
    h = ex1.hypergraph
    d = hinge_decompose(h)
    base = verify(h, d).width
    rng = SplitMix64(606)
    for _ in range(40):
        s = frozenset(v for v in h.vertices if rng.chance(1, 2))
        for comp in s_components(SHypergraph(h, s)):
            sub = induced_decomposition(h, d, comp.closure)
            assert {n.node_id for n in sub.nodes} == {n.node_id for n in d.nodes if n.bag & comp.closure}
            report = verify(comp.induced, sub)
            assert report.ok
            assert report.width <= base


def test_induced_decomposition_on_component_closure(ex1):
    h = ex1.hypergraph
    d = ghd_search(h, 3)
    for comp in s_components(ex1):
        sub = induced_decomposition(h, d, comp.closure)
        report = verify(comp.induced, sub)
        assert report.ok
        assert report.width <= 3


def test_blocks_hypergraph(tri, ex1):
    d = single_node(tri)
    blocks = blocks_hypergraph(tri, d)
    assert [fs for _, fs in blocks.edges] == [frozenset("abc")]
    assert not isinstance(gyo_join_tree(blocks), NotAcyclic)

    h = ex1.hypergraph
    d3 = ghd_search(h, 3)
    blocks = blocks_hypergraph(h, d3)
    assert set(blocks.vertices) == set(h.vertices)
    assert len(blocks.edges) <= len(d3.nodes)
    assert not isinstance(gyo_join_tree(blocks), NotAcyclic)


def test_blocks_of_jointree_equal_edges(path3):
    jt = gyo_join_tree(path3)
    blocks = blocks_hypergraph(path3, jt)
    assert {fs for _, fs in blocks.edges} == {fs for _, fs in path3.dedup_edges()}


def test_every_constructor_output_verifies():
    rng = SplitMix64(13)
    for _ in range(40):
        h = random_hypergraph(rng, max_vertices=7, max_edges=5)
        assert verify(h, hinge_decompose(h)).ok
        assert verify(h, tree_decompose(h)).ok
        jt = gyo_join_tree(h)
        if isinstance(jt, Decomposition):
            assert verify(h, jt).ok
        for k in (1, 2, 3):
            d = ghd_search(h, k)
            if d is not None:
                report = verify(h, d)
                assert report.ok and report.width <= k
                break


def test_decomposition_shape_validation():
    with pytest.raises(DecompositionInvalid):
        Decomposition(DecompKind.GHD, ())
    with pytest.raises(DecompositionInvalid):
        Decomposition(
            DecompKind.GHD,
            (
                DecompNode(0, None, frozenset(), frozenset()),
                DecompNode(1, 2, frozenset(), frozenset()),
            ),
        )


def test_decomposition_parent_cycles_off_the_root():
    root = DecompNode(0, None, frozenset(), frozenset())
    loop = (DecompNode(1, 2, frozenset(), frozenset()), DecompNode(2, 1, frozenset(), frozenset()))
    with pytest.raises(DecompositionInvalid, match="cycle in parent pointers"):
        Decomposition(DecompKind.GHD, (root, DecompNode(3, 0, frozenset(), frozenset())) + loop)
    with pytest.raises(DecompositionInvalid, match="cycle in parent pointers"):
        Decomposition(DecompKind.GHD, (root, DecompNode(1, 1, frozenset(), frozenset())))
    # a node hanging below a cycle is caught too
    below = DecompNode(4, 1, frozenset(), frozenset())
    with pytest.raises(DecompositionInvalid, match="cycle in parent pointers"):
        Decomposition(DecompKind.GHD, (below, root) + loop)


def test_long_path_decomposition_builds_and_verifies():
    n = 3000
    h = Hypergraph([f"p{i}" for i in range(n + 1)],
                   [(i, frozenset({f"p{i}", f"p{i + 1}"})) for i in range(n)])
    nodes = tuple(
        DecompNode(i, i - 1 if i else None, frozenset({i}), h.edge_set(i)) for i in range(n)
    )
    d = Decomposition(DecompKind.JOINTREE, nodes)
    report = verify(h, d)
    assert report.ok and report.width == 1
    jt = gyo_join_tree(h)
    assert isinstance(jt, Decomposition) and len(jt.nodes) == n
    assert verify(h, jt).ok


def naive_uncovered(h, d):
    target = tree_targets(h) if d.kind is DecompKind.TREE else h.dedup_edges()
    return [eid for eid, fs in target if not any(fs <= n.bag for n in d.nodes)]


def test_verify_uncovered_edges_match_all_bags_check():
    rng = SplitMix64(2718)
    mutated = tree_kind = 0
    for _ in range(150):
        h = random_hypergraph(rng, max_vertices=7, max_edges=6)
        for d in (hinge_decompose(h), tree_decompose(h)):
            assert naive_uncovered(h, d) == []
            for _ in range(3):
                k = rng.below(len(d.nodes))
                node = d.nodes[k]
                if not node.bag:
                    continue
                gone = sorted(node.bag)[rng.below(len(node.bag))]
                nodes = d.nodes[:k] + (replace(node, bag=node.bag - {gone}),) + d.nodes[k + 1:]
                bad = Decomposition(d.kind, nodes)
                got = [x.edge for x in verify(h, bad).violations if x.tag == EDGE_UNCOVERED]
                assert got == naive_uncovered(h, bad)
                mutated += bool(got)
                tree_kind += bool(got) and d.kind is DecompKind.TREE
    assert mutated >= 100 and tree_kind >= 30


def test_verify_tree_names_each_uncovered_pair_by_its_primal_id():
    # two pairs that the unescaped id a~b~c could not tell apart
    h = Hypergraph(["a~b", "c", "a", "b~c"], [(0, {"a~b", "c"}), (1, {"a", "b~c"})])
    nodes = tuple(DecompNode(i, i - 1 if i else None, frozenset(), frozenset({v})) for i, v in enumerate(h.vertices))
    d = Decomposition(DecompKind.TREE, nodes)
    got = [x.edge for x in verify(h, d).violations if x.tag == EDGE_UNCOVERED]
    assert got == ["a\\~b~c", "a~b\\~c"] == naive_uncovered(h, d)


def test_verify_tree_needs_each_one_vertex_edge_in_a_bag():
    """A vertex only in a one-vertex edge has no pair to cover it; the edge
    itself must lie in a bag, and is named by its own id, before any pair."""
    h = Hypergraph(["x", "y", "w", "z"], [(0, {"x", "y"}), (1, {"y", "w"}), (2, {"w", "x"}), (3, {"z"})])
    one_bag = Decomposition(DecompKind.TREE, (DecompNode(0, None, frozenset(), frozenset({"x", "y", "w"})),))
    assert [str(x) for x in verify(h, one_bag).violations] == ["(EDGE_UNCOVERED edge=3)"]
    split = Decomposition(DecompKind.TREE, (
        DecompNode(0, None, frozenset(), frozenset({"x", "y"})),
        DecompNode(1, 0, frozenset(), frozenset({"y", "w"})),
    ))
    for d in (one_bag, split):
        assert verify(h, d) == verify_reference(h, d)
        assert [x.edge for x in verify(h, d).violations] == naive_uncovered(h, d)
    assert [x.edge for x in verify(h, split).violations] == [3, "x~w"]
    assert verify(h, tree_decompose(h)).ok


def test_verify_hinge_intersections_match_all_pairs_check():
    """GHDs and tree decompositions read as hingetrees break condition 4 on
    many pairs at once; the pairs come out in node order."""
    rng = SplitMix64(1414)
    multi = 0
    for _ in range(120):
        h = random_hypergraph(rng, max_vertices=8, max_edges=6, max_arity=3)
        for d in (ghd_search(h, 3), tree_decompose(h), hinge_decompose(h)):
            if d is None:
                continue
            if d.kind is DecompKind.TREE:
                # guard each bag by the first edge that meets it
                nodes = tuple(
                    replace(n, guard=frozenset([e for e, fs in h.edges if fs & n.bag][:1]))
                    for n in d.nodes
                )
            else:
                nodes = d.nodes
            as_hinge = Decomposition(DecompKind.HINGE, tuple(reversed(nodes)))
            naive = [
                (a.node_id, b.node_id)
                for i, a in enumerate(as_hinge.nodes)
                for b in as_hinge.nodes[i + 1:]
                if a.bag & b.bag
                and not any(a.bag & b.bag <= h.edge_set(e1) & h.edge_set(e2)
                            for e1 in a.guard for e2 in b.guard)
            ]
            got = [(x.node, x.node2) for x in verify(h, as_hinge).violations
                   if x.tag == HINGE_INTERSECTION]
            assert got == naive
            multi += len(got) > 1
    assert multi >= 30, multi


def test_verify_keeps_its_last_report_per_hypergraph():
    h = Hypergraph("abc", [(0, {"a", "b"}), (1, {"b", "c"})])
    d = gyo_join_tree(h)
    report = verify(h, d)
    assert report.ok and report.width == 1
    equal = Hypergraph("abc", [(0, {"a", "b"}), (1, {"b", "c"})])
    assert equal is not h and equal == h
    assert verify(equal, d) is report
    wider = Hypergraph("abc", [(0, {"a", "b"}), (1, {"b", "c"}), (2, {"a", "c"})])
    assert verify(wider, d).violations == (dec.Violation(EDGE_UNCOVERED, edge=2),)
    again = verify(h, d)
    assert again.ok and again.width == 1
    # a mutant starts with no kept report, whether or not its nodes changed
    same = replace(d)
    assert verify(h, same) == again and verify(h, same) is not again
    cut = replace(d, nodes=tuple(replace(n, bag=n.bag - {"b"}) if n.parent is None else n for n in d.nodes))
    assert [x.tag for x in verify(h, cut).violations] == [EDGE_UNCOVERED]
    # the kept report and vertex index are not part of the value
    d.holders()
    fresh = Decomposition(d.kind, d.nodes)
    assert d == fresh and hash(d) == hash(fresh) and repr(d) == repr(fresh)


def test_zero_arity_edge():
    h = Hypergraph("ab", [("nil", frozenset()), ("ab", frozenset("ab"))])
    jt = gyo_join_tree(h)
    assert jt == gyo_reference(h)
    assert [(n.node_id, n.parent) for n in jt.nodes] == [(0, 1), (1, None)]
    report = verify(h, jt)
    assert report.ok and report.width == 1
    only = Hypergraph("a", [("nil", frozenset())])
    assert verify(only, Decomposition(DecompKind.GHD, (DecompNode(0, None, frozenset(), frozenset()),))).ok
    assert gyo_join_tree(only) == gyo_reference(only)
    assert verify(only, hinge_decompose(only)).ok
