import inspect
import sys
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
    blocks_hypergraph,
    ghd_search,
    guarded,
    gyo_join_tree,
    hinge_decompose,
    induced_decomposition,
    tree_decompose,
    verify,
)
from cqstar.errors import DecompositionInvalid, IdMismatch
from cqstar.generators import SplitMix64, gen_random_acyclic
from cqstar.hypergraph import Hypergraph, SHypergraph, s_components

from oracles import (
    exact_elimination_order_reference,
    gyo_reference,
    is_acyclic_bruteforce,
    min_hinge_width,
    treewidth_by_permutations,
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
        seen["disconnected"] += len(h.induced(set().union(*sets)).connected_components()) > 1
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
        assert len(h.connected_components()) >= parts
        assert dec._exact_elimination_order(h) == exact_elimination_order_reference(h), (n, dense, parts)

    def refuse(h):
        raise AssertionError("exact route taken past the cutoff")

    monkeypatch.setattr(dec, "_exact_elimination_order", refuse)
    for seed, dense in ((6, False), (7, True)):
        h = order_case(seed, dec.TREE_EXACT_VERTEX_CUTOFF + 1, dense)
        assert tree_decompose(h) == dec._elimination_tree(h, dec._min_fill_order(h))


# -- induced and blocks -------------------------------------------------------


def test_induced_decomposition_identity_and_empty(ex1):
    h = ex1.hypergraph
    assert len(h.connected_components()) == 1
    d = hinge_decompose(h)
    assert induced_decomposition(h, d, set(h.vertices)) == d
    with pytest.raises(DecompositionInvalid, match="found 0"):
        induced_decomposition(h, d, set())


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
    target = h.primal_graph() if d.kind is DecompKind.TREE else h
    return [eid for eid, fs in target.dedup_edges() if not any(fs <= n.bag for n in d.nodes)]


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
