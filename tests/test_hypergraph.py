import pytest

from cqstar.decomposition import hinge_decompose
from cqstar.engine import QueryInstance, Relation, Structure, count_cq_via_ghd
from cqstar.errors import UnknownVertex, VariableWithoutAtom
from cqstar.generators import SplitMix64, gen_g_star, gen_random_acyclic, gen_random_instance
from cqstar.hypergraph import Atom, Hypergraph, Query, from_query, s_components
from cqstar.starsize import ISMethod, s_star_size

from oracles import components_union_find, primal_graph, touching_reference


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


def test_connected_components_ex1_quantified(ex1):
    h = ex1.hypergraph
    restricted = h.induced([v for v in h.vertices if v not in ex1.s])
    comps = restricted.connected_components()
    assert comps == [
        frozenset({"u1", "u2", "u3", "u4", "u5", "u6"}),
        frozenset({"u7"}),
        frozenset({"u8"}),
    ]
    assert h.connected_components(restricted.vertices) == comps


def test_connected_components_trivial(tri):
    assert tri.connected_components() == [frozenset("abc")]
    loose = Hypergraph("xyz")
    assert loose.connected_components() == [
        frozenset({"x"}),
        frozenset({"y"}),
        frozenset({"z"}),
    ]


def test_components_match_union_find_on_random_inputs():
    rng = SplitMix64(2024)
    for i in range(120):
        h = gen_random_acyclic(edges=1 + rng.below(6), max_arity=1 + rng.below(4), seed=rng.next_u64())
        mine = {frozenset(c) for c in h.connected_components()}
        assert mine == components_union_find(h)
        sub_keep = [v for v in h.vertices if rng.chance(1, 2)]
        sub = h.induced(sub_keep)
        assert {frozenset(c) for c in sub.connected_components()} == components_union_find(sub)


def test_closure_is_the_union_of_the_edges_meeting_the_set(path3):
    assert path3.closure({"a"}) == frozenset("ab")
    assert path3.closure(iter("bd")) == frozenset("abcd")
    assert path3.closure(set()) == frozenset()
    # a vertex on no edge reaches nothing, not even itself
    assert Hypergraph("xy", [("e", {"x"})]).closure({"y"}) == frozenset()
    with pytest.raises(UnknownVertex):
        path3.closure({"a", "z"})


def test_touching_keeps_each_edge_meeting_the_set_whole(path3):
    sub = path3.touching({"b"})
    assert sub.vertices == ("a", "b", "c")
    assert sub.edges == (("ab", frozenset("ab")), ("bc", frozenset("bc")))
    # c's incidence loses the dropped edge cd
    assert sub.incident_edges("c") == ("bc",)
    assert path3.touching(set()) == Hypergraph(())
    with pytest.raises(UnknownVertex):
        path3.touching({"a", "z"})


def test_touching_matches_the_reference_on_random_inputs():
    rng = SplitMix64(2026)
    for _ in range(200):
        inst = gen_random_instance(
            variables=1 + rng.below(7), atoms=1 + rng.below(6), max_arity=3, domain=2, seed=rng.next_u64()
        )
        h = from_query(inst.query).hypergraph
        keep = [v for v in h.vertices if rng.chance(1, 3)]
        sub, ref = h.touching(keep), touching_reference(h, keep)
        assert sub == ref
        assert sub.closure(keep) == h.closure(keep)
        for v in ref.vertices:
            assert sub.incident_edges(v) == ref.incident_edges(v)


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
