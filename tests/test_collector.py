"""The count functions and ``parse_facts`` run with Python's cyclic collector
paused (``engine._collector_paused``). The pause is safe because they, and
the structure layer the count pipeline calls, make no reference cycle:
reference counting frees everything they leave behind. These tests pin that
invariant, and that the pause leaves the collector as the caller had it."""

import gc

import pytest

from cqstar import engine
from cqstar.decomposition import (
    DecompKind,
    DecompNode,
    Decomposition,
    ghd_search,
    gyo_join_tree,
    hinge_decompose,
    tree_decompose,
    verify,
)
from cqstar.engine import QueryInstance, count_cq_via_ghd
from cqstar.errors import DecompositionInvalid
from cqstar.generators import SimpleGraph, gen_clique_star_instance, gen_random_acyclic
from cqstar.hypergraph import Hypergraph, Query, SHypergraph, from_query
from cqstar.parser import ParseError, facts_to_text, parse_facts, parse_query
from cqstar.starsize import ISMethod, s_star_size

from conftest import ex1_query
from test_acceptance import _smoke_family

# the README's CLI session
README_QUERY = "ans(y1, y2) :- E1(y1, z), E2(y2, z)."
README_FACTS = "E1(a, 1). E1(b, 1). E2(a, 1). E2(c, 2).\n"


def assert_no_cycle(call) -> None:
    """``call()`` leaves no garbage that only the cyclic collector can free:
    with the collector disabled, a collection afterwards finds nothing. One
    call runs first, so that caches filled on first use are left out."""
    call()
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()


def _readme():
    inst = QueryInstance(parse_query(README_QUERY), parse_facts(README_FACTS))
    return inst, gyo_join_tree(from_query(inst.query).hypergraph)


def _clique_star():
    g = SimpleGraph.from_pairs(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)])
    inst = gen_clique_star_instance(g, 4)
    return inst, gyo_join_tree(from_query(inst.query).hypergraph)


def _c9():
    return _smoke_family(300, seed=300)


INSTANCES = {"readme": _readme, "clique-star": _clique_star, "c9": _c9}


@pytest.mark.parametrize("make", INSTANCES.values(), ids=INSTANCES.keys())
def test_paused_functions_make_no_cycle(make):
    inst, d = make()
    everything_free = QueryInstance(Query("ans", inst.query.variables(), inst.query.atoms), inst.structure)
    facts = facts_to_text(inst.structure)
    # grouped by predicate, then its first three statements again, so the
    # first predicate comes back after the others
    recurring = facts + "".join(line + "\n" for line in facts.splitlines()[:3])
    assert_no_cycle(lambda: count_cq_via_ghd(inst, d))
    assert_no_cycle(lambda: count_cq_via_ghd(everything_free, d))
    assert_no_cycle(lambda: parse_facts(facts))
    assert_no_cycle(lambda: parse_facts(recurring))


def _acyclic_star() -> SHypergraph:
    h = gen_random_acyclic(edges=8, max_arity=3, seed=5)
    return SHypergraph(h, frozenset(h.vertices[::2]))


@pytest.mark.parametrize("strategy", list(ISMethod), ids=[m.value for m in ISMethod])
def test_star_size_makes_no_cycle(strategy):
    sh = _acyclic_star() if strategy is ISMethod.ACYCLIC else from_query(ex1_query())
    d = None
    if strategy is ISMethod.HINGE_FPT:
        d = hinge_decompose(sh.hypergraph)
    elif strategy in (ISMethod.GHD_DP, ISMethod.APPROX):
        d = ghd_search(sh.hypergraph, 3)
    assert_no_cycle(lambda: s_star_size(sh, strategy, d))


def _two_triangles() -> SHypergraph:
    """Triangles abc and bcd on the shared edge bc: the block splits at that pivot."""
    h = Hypergraph("abcd", [("ab", "ab"), ("bc", "bc"), ("bd", "bd"), ("ca", "ca"), ("cd", "cd")])
    return SHypergraph(h, frozenset())


@pytest.mark.parametrize(
    "star", [_acyclic_star, lambda: from_query(ex1_query()), _two_triangles], ids=["acyclic", "ex1", "two-triangles"]
)
def test_constructors_and_verify_make_no_cycle(star):
    h = star().hypergraph
    assert_no_cycle(lambda: gyo_join_tree(h))
    assert_no_cycle(lambda: hinge_decompose(h))
    assert_no_cycle(lambda: ghd_search(h, 3))
    assert_no_cycle(lambda: tree_decompose(h))
    # a fresh decomposition each time, so verify does not return a kept report
    assert_no_cycle(lambda: verify(h, tree_decompose(h)))


def test_pause_is_on_during_the_call(monkeypatch):
    seen = []
    bind = engine._bind
    monkeypatch.setattr(engine, "_bind", lambda inst: seen.append(gc.isenabled()) or bind(inst))
    inst, d = _readme()
    count_cq_via_ghd(inst, d)
    assert seen and not any(seen)
    assert gc.isenabled()


def _raising_calls():
    inst, _ = _readme()
    # one bag, which misses the quantified z
    bad = Decomposition(DecompKind.GHD, (DecompNode(0, None, frozenset({0}), frozenset({"y1", "y2"})),))
    return [
        (DecompositionInvalid, lambda: count_cq_via_ghd(inst, bad)),
        (ParseError, lambda: parse_facts("E1(a, 1). E1(a).")),
    ]


def test_pause_ends_after_return_and_raise():
    inst, d = _readme()
    assert count_cq_via_ghd(inst, d).count == 2
    assert gc.isenabled()
    parse_facts(README_FACTS)
    assert gc.isenabled()
    for error, call in _raising_calls():
        with pytest.raises(error):
            call()
        assert gc.isenabled()


def test_pause_keeps_a_caller_disabled_collector_disabled():
    inst, d = _readme()
    gc.disable()
    try:
        count_cq_via_ghd(inst, d)
        parse_facts(README_FACTS)
        assert not gc.isenabled()
        for error, call in _raising_calls():
            with pytest.raises(error):
                call()
            assert not gc.isenabled()
    finally:
        gc.enable()
