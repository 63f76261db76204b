import math

import pytest

from cqstar.decomposition import (
    DecompKind,
    DecompNode,
    Decomposition,
    NotAcyclic,
    ghd_search,
    guarded,
    gyo_join_tree,
    hinge_decompose,
    tree_decompose,
    verify,
)
from cqstar.errors import (
    DecompositionInvalid,
    InvariantViolation,
    TooLarge,
    UncoverableVertex,
    UnknownVertex,
    WidthNotOne,
)
from cqstar.generators import (
    SplitMix64,
    gen_g_star,
    gen_is_hardness_hypergraph,
    gen_obs_equivalent,
    gen_random_acyclic,
    SimpleGraph,
)
from cqstar.hypergraph import Hypergraph, SHypergraph, s_components
from cqstar.starsize import (
    ISMethod,
    ISWitness,
    _bag_cover,
    _checked_witness,
    _max_is_ghd_dp,
    acyclic_is_and_cover,
    approx_is,
    max_is_brute,
    max_is_ghd_dp,
    max_is_hinge_fpt,
    s_star_size,
)

from oracles import bag_cover_reference, max_is_size, min_edge_cover_size, star_size_along_reference
from test_decomposition import random_hypergraph


def check_independent(h, vertices):
    adj = h.conflict_adjacency()
    members = sorted(vertices)
    for i, v in enumerate(members):
        for u in members[i + 1:]:
            assert u not in adj[v]


# -- brute --------------------------------------------------------------------


def test_brute_tri(tri):
    w = max_is_brute(tri)
    assert w.size == 1
    assert w.vertices == frozenset({"a"})  # lexicographically smallest maximum


def test_brute_edgeless():
    h = Hypergraph("pqrst")
    assert max_is_brute(h).size == 5


def test_brute_ex1_component_one(ex1):
    comp = s_components(ex1)[0]
    w = max_is_brute(comp.induced, comp.s_vertices)
    assert w.size == 4
    check_independent(comp.induced, w.vertices)
    # the specific witness from the worked example is itself independent
    check_independent(ex1.hypergraph, {"v1", "v2", "v3", "v7"})


def test_brute_rejects_an_unknown_candidate(tri):
    with pytest.raises(UnknownVertex):
        max_is_brute(tri, ["nope"])
    with pytest.raises(UnknownVertex):
        max_is_brute(tri, ["a", "nope"])


def test_witness_check_fails_as_the_pairwise_search_did():
    # vertex order d, c, b, a; e2 and e3 are one set under two ids
    h = Hypergraph("dcba", [("e0", {"a", "b"}), ("e1", {"c", "a"}), ("e2", {"d"}), ("e3", {"d"})])
    assert _checked_witness(h, ["d", "c", "b"], ISMethod.BRUTE) == ISWitness(frozenset("dcb"), ISMethod.BRUTE)
    assert _checked_witness(h, [], ISMethod.APPROX, 1) == ISWitness(frozenset(), ISMethod.APPROX, 1)
    # the first conflicting pair in vertex order, not in name order ('a' and 'b')
    with pytest.raises(InvariantViolation) as exc:
        _checked_witness(h, {"a", "b", "c"}, ISMethod.GHD_DP)
    assert str(exc.value) == "witness not independent: 'c' and 'a' share an edge"
    with pytest.raises(UnknownVertex):
        _checked_witness(h, {"b", "nope"}, ISMethod.BRUTE)
    with pytest.raises(UnknownVertex):
        _checked_witness(h, {"a", "b", "nope"}, ISMethod.BRUTE)


def test_brute_cutoff():
    h = Hypergraph([f"n{i}" for i in range(30)])
    with pytest.raises(TooLarge):
        max_is_brute(h)
    assert max_is_brute(h, [f"n{i}" for i in range(5)]).size == 5


def test_brute_matches_subset_oracle():
    rng = SplitMix64(111)
    for _ in range(60):
        h = random_hypergraph(rng, max_vertices=8, max_edges=6)
        assert max_is_brute(h).size == max_is_size(h)


# -- acyclic duality ----------------------------------------------------------


def test_acyclic_star_leaves():
    sh = gen_g_star(4)
    h = sh.hypergraph
    jt = gyo_join_tree(h)
    w, cover = acyclic_is_and_cover(h, jt, sh.s)
    assert w.size == 4
    assert len(cover) == 4
    assert w.vertices == sh.s


def test_acyclic_single_edge():
    h = Hypergraph("abc", [("e", frozenset("abc"))])
    jt = gyo_join_tree(h)
    w, cover = acyclic_is_and_cover(h, jt)
    assert w.size == 1 and len(cover) == 1


def test_acyclic_path(path3):
    jt = gyo_join_tree(path3)
    w, cover = acyclic_is_and_cover(path3, jt)
    assert w.size == 2 and len(cover) == 2
    assert max_is_size(path3) == 2


def test_acyclic_requires_width_one(tri):
    single = Decomposition(
        DecompKind.GHD,
        (DecompNode(0, None, frozenset(tri.edge_ids()), frozenset("abc")),),
    )
    with pytest.raises(WidthNotOne):
        acyclic_is_and_cover(tri, single)


def test_acyclic_rejects_uncoverable():
    h = Hypergraph("abz", [("ab", {"a", "b"})])
    jt = gyo_join_tree(h)
    with pytest.raises(UncoverableVertex):
        acyclic_is_and_cover(h, jt, {"z"})


def test_acyclic_duality_many_random_instances():
    rng = SplitMix64(31415)
    for _ in range(200):
        h = gen_random_acyclic(edges=1 + rng.below(8), max_arity=1 + rng.below(4), seed=rng.next_u64())
        jt = gyo_join_tree(h)
        assert not isinstance(jt, NotAcyclic)
        if rng.chance(1, 2):
            restrict = None
            targets = list(h.vertices)
        else:
            targets = [v for v in h.vertices if rng.chance(2, 3) and h.incident_edges(v)]
            restrict = targets
        w, cover = acyclic_is_and_cover(h, jt, restrict)
        assert w.size == len(cover)
        check_independent(h, w.vertices)
        union = set().union(*(h.edge_set(e) for e in cover)) if cover else set()
        assert set(targets) <= union or not targets
        # duality pins both optima on small inputs
        if len(h.vertices) <= 12 and len(h.dedup_edges()) <= 8:
            assert w.size == max_is_size(h, targets)
            assert len(cover) == min_edge_cover_size(h, targets)


# -- decomposition-based strategies ---------------------------------------------


def test_ghd_dp_width_one_matches_acyclic(path3):
    jt = gyo_join_tree(path3)
    w = max_is_ghd_dp(path3, jt)
    w2, _ = acyclic_is_and_cover(path3, jt)
    assert w.size == w2.size == 2


def test_ghd_dp_hardness_single_edge_graph():
    g = SimpleGraph.from_pairs(2, [(0, 1)])
    h, d = gen_is_hardness_hypergraph(g, 2)
    assert verify(h, d).width == 2
    assert max_is_ghd_dp(h, d).size == 1
    assert max_is_brute(h).size == 1


def test_ghd_dp_ex1_component(ex1):
    h = ex1.hypergraph
    d = ghd_search(h, 3)
    size, _ = s_star_size(ex1, ISMethod.GHD_DP, d)
    assert size == 4


def test_ghd_dp_names_a_child_table_without_the_parents_set():
    # node 1's guard misses b, so this tree fails verification; unverified,
    # the child's table holds no set of two, and the parent's {a, b} is a
    # fault of the tree, not a set to drop
    h = Hypergraph("ab", [("ea", {"a"}), ("eb", {"b"})])
    nodes = (
        DecompNode(0, None, frozenset({"ea", "eb"}), frozenset("ab")),
        DecompNode(1, 0, frozenset({"ea"}), frozenset("ab")),
    )
    with pytest.raises(InvariantViolation, match=r"node 1's table has no set for \['a', 'b'\] of its parent node 0"):
        _max_is_ghd_dp(h, nodes, None, h.conflict_adjacency())


def test_hinge_fpt_examples(path3):
    h = Hypergraph("abc", [("e", frozenset("abc"))])
    d = hinge_decompose(h)
    assert max_is_hinge_fpt(h, d).size == 1

    d3 = hinge_decompose(path3)
    assert verify(path3, d3).width == 1
    assert max_is_hinge_fpt(path3, d3).size == 2


def test_hinge_fpt_rejects_other_kinds(tri):
    from cqstar.errors import NotHinge

    ghd_kind = Decomposition(
        DecompKind.GHD,
        (DecompNode(0, None, frozenset(tri.edge_ids()), frozenset("abc")),),
    )
    with pytest.raises(NotHinge):
        max_is_hinge_fpt(tri, ghd_kind)


def test_exact_strategies_agree_on_random_inputs():
    rng = SplitMix64(271828)
    checked = 0
    while checked < 120:
        h = random_hypergraph(rng, max_vertices=9, max_edges=6, max_arity=4)
        hinge = hinge_decompose(h)
        ghd = None
        for k in (1, 2, 3):
            ghd = ghd_search(h, k)
            if ghd is not None:
                break
        if ghd is None:
            continue
        for trial in range(3):
            if trial == 0:
                restrict = None
            else:
                restrict = [v for v in h.vertices if rng.chance(1, 2)]
            expect = max_is_brute(h, restrict).vertices  # the lexicographically smallest maximum
            assert max_is_ghd_dp(h, ghd, restrict).vertices == expect
            assert max_is_hinge_fpt(h, hinge, restrict).vertices == expect
            hinge_as_ghd = Decomposition(DecompKind.GHD, hinge.nodes)
            assert max_is_ghd_dp(h, hinge_as_ghd, restrict).vertices == expect
        checked += 1


# -- approximation --------------------------------------------------------------


def test_approx_exact_on_acyclic(path3):
    jt = gyo_join_tree(path3)
    w = approx_is(path3, jt)
    assert w.size == 2
    assert w.bound == 1


def test_approx_tri_single_node(tri):
    d = Decomposition(
        DecompKind.GHD,
        (DecompNode(0, None, frozenset(tri.edge_ids()), frozenset("abc")),),
    )
    w = approx_is(tri, d)
    assert w.size == 1
    assert w.bound == 3


def test_approx_sandwich_on_random_inputs():
    rng = SplitMix64(161803)
    checked = 0
    while checked < 200:
        h = random_hypergraph(rng, max_vertices=10, max_edges=6, max_arity=4)
        d = None
        for k in (1, 2, 3):
            d = ghd_search(h, k)
            if d is not None:
                break
        if d is None:
            continue
        k = verify(h, d).width
        restrict = None if rng.chance(1, 2) else [v for v in h.vertices if rng.chance(2, 3)]
        best = max_is_brute(h, restrict).size
        w = approx_is(h, d, restrict)
        assert w.bound == max(k, 1)
        assert math.ceil(best / max(k, 1)) <= w.size <= best
        check_independent(h, w.vertices)
        checked += 1


def test_bag_cover_and_approx_match_the_bags_hypergraph_route():
    # the walk on a decomposition's own tree gives the witness and cover of
    # the route through the bags' hypergraph and a second join tree over
    # them, along every kind that APPROX reads
    rng = SplitMix64(27182)
    for _ in range(150):
        h = random_hypergraph(rng, max_vertices=9, max_edges=7, max_arity=4)
        decomps = [hinge_decompose(h), guarded(h, tree_decompose(h))]
        decomps += [d for d in (ghd_search(h, k) for k in (1, 2, 3)) if d is not None][:1]
        for d in decomps:
            in_bags = [v for v in h.vertices if v in d.holders() and rng.chance(3, 4)]
            chosen, cover = _bag_cover(d.topo_order(), frozenset(in_bags), h.vertex_index)
            want, want_cover = bag_cover_reference(h, d, in_bags)
            assert (frozenset(chosen), frozenset(cover)) == (want.vertices, want_cover)
            everything, _ = bag_cover_reference(h, d, [v for v in h.vertices if v in d.holders()])
            assert approx_is(h, d).vertices == everything.vertices


def test_bag_cover_certificate_catches_a_broken_running_intersection():
    # a sits in the root and the grandchild but not in the child between them
    d = Decomposition(
        DecompKind.GHD,
        (
            DecompNode(0, None, frozenset(), frozenset("ab")),
            DecompNode(1, 0, frozenset(), frozenset("c")),
            DecompNode(2, 1, frozenset(), frozenset("ac")),
        ),
    )
    with pytest.raises(InvariantViolation, match="holds two chosen vertices"):
        _bag_cover(d.topo_order(), frozenset("abc"), "abc".index)


# -- star size ------------------------------------------------------------------


def test_star_size_on_the_whole_hypergraph_matches_the_induced_route():
    # each worker run on the whole hypergraph gives the sizes and witnesses
    # that it gave on each component's induced hypergraph
    rng = SplitMix64(31415)
    for _ in range(150):
        h = random_hypergraph(rng, max_vertices=9, max_edges=7, max_arity=4)
        if rng.chance(1, 4):  # an edgeless vertex, in S or a component of its own
            h = Hypergraph([*h.vertices, "lone"], h.edges)
        sh = SHypergraph(h, frozenset(v for v in h.vertices if rng.chance(1, 3)))
        hinge = hinge_decompose(h)
        runs = [(ISMethod.HINGE_FPT, hinge)]
        for d in [hinge, guarded(h, tree_decompose(h))] + [
            d for d in (ghd_search(h, k) for k in (1, 2, 3)) if d is not None
        ][:1]:
            runs += [(ISMethod.GHD_DP, d), (ISMethod.APPROX, d)]
        for method, d in runs:
            assert s_star_size(sh, method, d) == star_size_along_reference(sh, method, d)



def test_star_size_builds_no_decomposition_per_component(ex1, monkeypatch):
    """Each strategy that takes a decomposition walks the subtree of each
    of ex1's three components in place: no ``Decomposition`` is built for a
    hingetree or a GHD, and for a tree decomposition only ``guarded``'s."""
    h = ex1.hypergraph
    hinge, ghd, tree = hinge_decompose(h), ghd_search(h, 3), tree_decompose(h)
    runs = [(ISMethod.GHD_DP, hinge, 0), (ISMethod.HINGE_FPT, hinge, 0), (ISMethod.APPROX, hinge, 0),
            (ISMethod.GHD_DP, ghd, 0), (ISMethod.APPROX, ghd, 0),
            (ISMethod.GHD_DP, tree, 1), (ISMethod.APPROX, tree, 1)]
    want = [star_size_along_reference(ex1, method, d) for method, d, _ in runs]
    assert [len(stars) for _, stars in want] == [3] * len(runs)
    built = []
    post_init = Decomposition.__post_init__

    def counted(self):
        built.append(self.kind)
        post_init(self)

    monkeypatch.setattr(Decomposition, "__post_init__", counted)
    for (method, d, guards), expected in zip(runs, want):
        built.clear()
        assert s_star_size(ex1, method, d) == expected
        assert len(built) == guards, (method, d.kind)


def test_star_size_ex1_all_exact_strategies(ex1):
    h = ex1.hypergraph
    assert s_star_size(ex1, ISMethod.BRUTE)[0] == 4
    assert s_star_size(ex1, ISMethod.GHD_DP, ghd_search(h, 3))[0] == 4
    assert s_star_size(ex1, ISMethod.HINGE_FPT, hinge_decompose(h))[0] == 4


def test_star_size_witnesses(ex1):
    size, witnesses = s_star_size(ex1, ISMethod.BRUTE)
    assert size == 4
    assert [w.component_index for w in witnesses] == [0, 1, 2]
    assert [w.size for w in witnesses] == [4, 1, 1]
    for w in witnesses:
        assert w.star <= ex1.s


def test_star_size_star_family():
    for n in (1, 2, 5):
        assert s_star_size(gen_g_star(n), ISMethod.BRUTE)[0] == n


def test_star_size_acyclic_strategy_cover(ex1):
    sh = gen_g_star(4)
    size, witnesses = s_star_size(sh, ISMethod.ACYCLIC)
    assert size == 4
    assert all(w.cover_edges is not None and len(w.cover_edges) == w.size for w in witnesses)
    # the running example's big component is cyclic, so this strategy refuses
    with pytest.raises(WidthNotOne):
        s_star_size(ex1, ISMethod.ACYCLIC)


def test_star_size_s_empty_and_s_everything(tri):
    assert s_star_size(SHypergraph(tri, frozenset()), ISMethod.BRUTE)[0] == 0
    assert s_star_size(SHypergraph(tri, frozenset("abc")), ISMethod.BRUTE) == (0, [])


@pytest.mark.parametrize("strategy", [ISMethod.GHD_DP, ISMethod.HINGE_FPT, ISMethod.APPROX])
def test_star_size_rejects_invalid_decomposition_up_front(tri, strategy):
    """The decomposition is verified against the whole hypergraph before any
    component is restricted, so S = V (no components) is no way around it."""
    uncovered = Decomposition(
        DecompKind.GHD, (DecompNode(0, None, frozenset({"ab"}), frozenset("ab")),)
    )
    for s in ("", "abc"):
        with pytest.raises(DecompositionInvalid, match="EDGE_UNCOVERED"):
            s_star_size(SHypergraph(tri, frozenset(s)), strategy, uncovered)


def test_obs_equivalent_round_trip(tri):
    rng = SplitMix64(55)
    cases = [tri]
    for _ in range(30):
        h = random_hypergraph(rng, max_vertices=8, max_edges=5)
        if all(h.incident_edges(v) for v in h.vertices):
            cases.append(h)
    for h in cases:
        sh = gen_obs_equivalent(h)
        assert s_star_size(sh, ISMethod.BRUTE)[0] == max_is_brute(h).size


def test_obs_equivalent_rejects_edgeless():
    with pytest.raises(ValueError):
        gen_obs_equivalent(Hypergraph("ab", [("e", {"a"})]))
