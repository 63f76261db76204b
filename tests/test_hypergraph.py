import pytest

from cqstar.decomposition import hinge_decompose
from cqstar.engine import QueryInstance, Relation, Structure, count_cq_via_ghd
from cqstar.errors import UnknownVertex, VariableWithoutAtom
from cqstar.generators import SplitMix64, gen_g_star, gen_random_acyclic, gen_random_instance
from cqstar.hypergraph import Atom, Hypergraph, Query, edge_classes, from_query, holding, s_components
from cqstar.starsize import ISMethod, s_star_size

from hypergraph_differential import flood_closure, flood_components
from oracles import components_union_find, primal_graph


def test_from_query_ex1(ex1):
    h = ex1.hypergraph
    assert len(h.vertices) == 17
    assert len(h.edges) == 8
    assert ex1.s == frozenset(f"v{i}" for i in range(1, 10))
    assert h.edge_set(4) == frozenset({"v4", "v5", "v6", "v8"})


def test_from_query_repeated_variable_collapses():
    q = Query("ans", ("x",), (Atom("R", ("x", "x")),))
    sh = from_query(q)
    assert sh.hypergraph.vertices == ("x",)
    assert sh.hypergraph.edge_set(0) == frozenset({"x"})
    assert sh.s == frozenset({"x"})


def test_from_query_disconnected_free_atom():
    q = Query("ans", ("x", "w"), (Atom("R", ("x", "y")), Atom("Q", ("w",))))
    sh = from_query(q)
    assert set(sh.hypergraph.vertices) == {"x", "y", "w"}
    assert {fs for _, fs in sh.hypergraph.edges} == {frozenset({"x", "y"}), frozenset({"w"})}
    assert sh.s == frozenset({"x", "w"})


def test_from_query_rejects_variable_without_atom():
    with pytest.raises(VariableWithoutAtom):
        from_query(Query("ans", ("x", "z"), (Atom("R", ("x", "y")),)))


def test_induced_subhypergraph_ex1(ex1):
    # The formal definition keeps every nonempty intersection, so {v9}
    # (from the last atom) appears alongside the two "interesting" edges.
    h = ex1.hypergraph
    sub = h.induced({"v6", "v9", "u7"})
    got = {fs for _, fs in sub.edges}
    assert frozenset({"v6", "v9", "u7"}) in got
    assert frozenset({"v6"}) in got
    assert got == {
        frozenset({"v6", "v9", "u7"}),
        frozenset({"v6"}),
        frozenset({"v9"}),
    }


def test_induced_empty_and_unknown(tri):
    assert tri.induced(set()).vertices == ()
    assert tri.induced(set()).edges == ()
    with pytest.raises(UnknownVertex):
        tri.induced({"z"})


def test_induced_tri_pair(tri):
    sub = tri.induced({"a", "b"})
    assert {fs for _, fs in sub.edges} == {
        frozenset({"a", "b"}),
        frozenset({"b"}),
        frozenset({"a"}),
    }


def test_induced_idempotent(tri, ex1):
    for h in (tri, ex1.hypergraph):
        for keep in ({"a", "b"} if h is tri else {"v1", "v2", "u1", "u2"},):
            once = h.induced(keep)
            twice = once.induced(keep)
            assert once == twice


def test_flood_classes_ex1_quantified(ex1):
    h = ex1.hypergraph
    restricted = h.induced([v for v in h.vertices if v not in ex1.s])
    comps = flood_components(restricted, restricted.vertices)
    assert comps == [
        frozenset({"u1", "u2", "u3", "u4", "u5", "u6"}),
        frozenset({"u7"}),
        frozenset({"u8"}),
    ]
    assert flood_components(h, restricted.vertices) == comps


def test_flood_classes_trivial(tri):
    assert flood_components(tri, tri.vertices) == [frozenset("abc")]
    loose = Hypergraph("xyz")
    assert flood_components(loose, loose.vertices) == [
        frozenset({"x"}),
        frozenset({"y"}),
        frozenset({"z"}),
    ]


def test_flood_classes_match_union_find_on_random_inputs():
    rng = SplitMix64(2024)
    for i in range(120):
        h = gen_random_acyclic(edges=1 + rng.below(6), max_arity=1 + rng.below(4), seed=rng.next_u64())
        mine = {frozenset(c) for c in flood_components(h, h.vertices)}
        assert mine == components_union_find(h)
        sub_keep = [v for v in h.vertices if rng.chance(1, 2)]
        sub = h.induced(sub_keep)
        assert {frozenset(c) for c in flood_components(sub, sub.vertices)} == components_union_find(sub)
        assert flood_components(h, sub_keep) == flood_components(sub, sub.vertices)


def test_flood_closure_is_the_union_of_the_edges_meeting_the_set(path3):
    assert flood_closure(path3, {"a"}) == frozenset("ab")
    assert flood_closure(path3, iter("bd")) == frozenset("abcd")
    assert flood_closure(path3, set()) == frozenset()
    # a vertex on no edge reaches nothing, not even itself
    assert flood_closure(Hypergraph("xy", [("e", {"x"})]), {"y"}) == frozenset()
    with pytest.raises(UnknownVertex):
        flood_closure(path3, {"a", "z"})


def test_flood_never_crosses_a_cut_vertex(path3):
    sets = dict(path3.edges)
    held = holding(sets, sets)
    assert edge_classes(sets, sets, held) == [["ab", "bc", "cd"]]
    assert edge_classes(sets, sets, held, frozenset("c")) == [["ab", "bc"], ["cd"]]
    assert edge_classes(sets, sets, held, frozenset("bc")) == [["ab"], ["bc"], ["cd"]]
    # a cut vertex needs no incidence: the flood never reads it
    assert edge_classes(["ab"], sets, {"a": ["ab"]}, frozenset("b")) == [["ab"]]


def test_flood_empty_edge_is_a_class_of_its_own():
    sets = {"e": frozenset(), 1: frozenset("xy"), "f": frozenset(), 2: frozenset("y")}
    held = holding(sets, sets)
    assert held == {"x": [1], "y": [1, 2]}
    assert edge_classes(sets, sets, held) == [["e"], [1, 2], ["f"]]


def test_flood_classes_in_order_of_their_first_start(path3):
    sets = dict(path3.edges)
    held = holding(sets, sets)
    cut = frozenset("b")
    assert edge_classes(["cd", "ab", "bc"], sets, held, cut) == [["cd", "bc"], ["ab"]]
    assert edge_classes(["ab", "cd"], sets, held, cut) == [["ab"], ["cd", "bc"]]
    # a start already reached opens no class
    assert edge_classes(["bc", "cd", "bc"], sets, held, cut) == [["bc", "cd"]]


def test_flood_class_holds_every_edge_on_a_crossed_vertex():
    rng = SplitMix64(2027)
    for _ in range(200):
        inst = gen_random_instance(
            variables=1 + rng.below(7), atoms=1 + rng.below(6), max_arity=3, domain=2, seed=rng.next_u64()
        )
        h = from_query(inst.query).hypergraph
        sets = dict(h.edges)
        held = holding(sets, sets)
        cut = frozenset(v for v in h.vertices if rng.chance(1, 3))
        starts = [e for e in sets if rng.chance(1, 2)]
        classes = edge_classes(starts, sets, held, cut)
        seen = [e for cls in classes for e in cls]
        assert len(seen) == len(set(seen))
        assert set(starts) <= set(seen)
        firsts = [cls[0] for cls in classes]
        assert firsts == sorted(firsts, key=starts.index)
        for cls in classes:
            crossed = frozenset().union(*map(sets.get, cls)) - cut
            assert {e for v in crossed for e in held[v]} <= set(cls)


def test_hypergraph_equality_hash_and_repr(path3):
    assert (path3 == "x") is False
    twin = Hypergraph("abcd", [("ab", "ab"), ("bc", "bc"), ("cd", "cd")])
    assert twin == path3 and hash(twin) == hash(path3)
    assert repr(path3) == "Hypergraph(4 vertices, 3 edges)"


def test_s_components_ex1(ex1):
    comps = s_components(ex1)
    assert len(comps) == 3
    assert [c.core for c in comps] == [
        frozenset({"u1", "u2", "u3", "u4", "u5", "u6"}),
        frozenset({"u7"}),
        frozenset({"u8"}),
    ]
    big = comps[0]
    assert big.closure == frozenset(
        {"v1", "v2", "v3", "v4", "v5", "v7", "v8", "u1", "u2", "u3", "u4", "u5", "u6"}
    )
    assert "v6" not in big.closure
    assert comps[2].closure == frozenset({"v8", "v9", "u8"})
    for comp in comps:
        assert comp.core <= comp.closure
        assert comp.s_vertices == comp.closure & ex1.s


def test_s_components_properties(ex1):
    h = ex1.hypergraph
    for comp in s_components(ex1):
        for eid, fs in h.edges:
            if fs & comp.core:
                assert fs <= comp.closure
        # every edge meeting the closure keeps its id, cut to the closure
        meeting = [(eid, fs & comp.closure) for eid, fs in h.edges if fs & comp.closure]
        assert list(comp.induced.edges) == meeting


def test_s_component_induced_is_built_on_first_read_and_kept(monkeypatch):
    """Neither ``s_components``, nor star size by any strategy but BRUTE,
    nor a count whose piece is cyclic builds a component's induced
    hypergraph; the first read builds it once."""
    sh = from_query(Query("ans", ("y1", "y2"), (Atom("E", ("y1", "z")), Atom("E", ("z", "w")), Atom("F", ("w", "y2")))))
    tri = Query("ans", ("a",), (Atom("E", ("a", "b")), Atom("E", ("b", "c")), Atom("E", ("c", "a"))))
    edges = Relation.from_rows("E", ("x", "y"), [(0, 1), (1, 2), (2, 0), (1, 0)])
    tri_inst = QueryInstance(tri, Structure(("p", "q", "r"), {"E": edges}))
    tri_d = hinge_decompose(from_query(tri).hypergraph)
    hinge = hinge_decompose(sh.hypergraph)
    built = []
    induced = Hypergraph.induced
    monkeypatch.setattr(Hypergraph, "induced", lambda h, vs: built.append(vs) or induced(h, vs))
    assert s_star_size(sh, ISMethod.ACYCLIC)[0] == 2
    for method in (ISMethod.GHD_DP, ISMethod.HINGE_FPT, ISMethod.APPROX):
        assert s_star_size(sh, method, hinge)[0] == 2
    result = count_cq_via_ghd(tri_inst, tri_d)
    assert result.count == 3 and result.stats["pieces"][0]["source"] == "restricted"
    (comp,) = s_components(sh)
    assert built == []
    first = comp.induced
    assert comp.induced is first and built == [comp.closure]
    assert first.dedup_edges() == sh.hypergraph.induced_dedup_edges(comp.closure)


def test_s_components_star():
    for n in (1, 3, 5):
        sh = gen_g_star(n)
        comps = s_components(sh)
        assert len(comps) == 1
        assert comps[0].core == frozenset({"z"})
        assert comps[0].closure == frozenset(sh.hypergraph.vertices)


def test_s_components_edgeless_vertex_keeps_its_place():
    """A quantified vertex on no edge is a component with an empty closure,
    ordered by its core like any other."""
    from cqstar.hypergraph import SHypergraph

    sh = SHypergraph(Hypergraph("axbc", [(0, "ab"), (1, "bc")]), frozenset("b"))
    comps = s_components(sh)
    assert [(c.core, c.closure) for c in comps] == [
        (frozenset("a"), frozenset("ab")),
        (frozenset("x"), frozenset()),
        (frozenset("c"), frozenset("bc")),
    ]
    assert comps[1].s_vertices == frozenset()


def test_s_components_empty_when_s_is_everything(tri):
    from cqstar.hypergraph import SHypergraph

    assert s_components(SHypergraph(tri, frozenset("abc"))) == []


def test_primal_graph(tri):
    h = Hypergraph("abc", [("e", {"a", "b", "c"})])
    primal = primal_graph(h)
    assert {fs for _, fs in primal.edges} == {
        frozenset({"a", "b"}),
        frozenset({"b", "c"}),
        frozenset({"a", "c"}),
    }
    assert {fs for _, fs in primal_graph(tri).edges} == {fs for _, fs in tri.edges}


def test_primal_graph_ids_are_injective():
    # names holding the separator once gave both pairs the id a~b~c
    h = Hypergraph(["a~b", "c", "a", "b~c"], [(0, {"a~b", "c"}), (1, {"a", "b~c"})])
    assert dict(primal_graph(h).edges) == {
        "a\\~b~c": frozenset({"a~b", "c"}),
        "a~b\\~c": frozenset({"a", "b~c"}),
    }
    h = Hypergraph(["a\\", "b", "a", "\\b"], [(0, {"a\\", "b"}), (1, {"a", "\\b"})])
    assert [eid for eid, _ in primal_graph(h).edges] == ["a\\\\~b", "a~\\\\b"]
    # names without a backslash or a tilde keep their ids
    assert [eid for eid, _ in primal_graph(Hypergraph("ab", [(0, "ab")])).edges] == ["a~b"]


def test_primal_graph_ex1_p4(ex1):
    h = ex1.hypergraph
    primal = primal_graph(h)
    members = h.edge_set(3)
    inside = [fs for _, fs in primal.edges if fs <= members]
    assert len(inside) == 15  # C(6,2)


def test_dedup_edges_is_built_once_and_keeps_first_ids():
    h = Hypergraph("abc", [("r", "ab"), (0, "ba"), ("s", ""), ("t", "c"), (1, "")])
    assert h.dedup_edges() == (("r", frozenset("ab")), ("s", frozenset()), ("t", frozenset("c")))
    assert h.dedup_edges() is h.dedup_edges()
    sub = h.induced("ab")
    assert sub.dedup_edges() == (("r", frozenset("ab")),)


def test_id_subset_tests():
    h = Hypergraph("abc", [("r", "ab"), (0, "bc")])
    assert h.has_vertices(frozenset("ca")) and h.has_vertices(frozenset())
    assert not h.has_vertices(frozenset("az"))
    assert h.has_edge_ids(frozenset({0, "r"})) and not h.has_edge_ids(frozenset({"0"}))
