"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import io
import math
import time
from contextlib import contextmanager, redirect_stdout
from dataclasses import replace

import pytest

from cqstar.cli import run_cli
from cqstar.decomposition import (
    CONNECTEDNESS,
    EDGE_UNCOVERED,
    GUARD_GAP,
    DecompKind,
    DecompNode,
    Decomposition,
    NotAcyclic,
    ghd_search,
    gyo_join_tree,
    hinge_decompose,
    integralize,
    verify,
)
from cqstar.engine import (
    QueryInstance,
    Relation,
    Structure,
    count_brute,
    count_cq_via_fractional,
    count_cq_via_ghd,
)
from cqstar.errors import TooLarge
from cqstar.generators import (
    SimpleGraph,
    SplitMix64,
    gen_clique_star_instance,
    gen_is_hardness_hypergraph,
    gen_random_acyclic,
    gen_random_instance,
)
from cqstar.hypergraph import Atom, Query, from_query, s_components
from cqstar.parser import decomposition_to_json, parse_query, query_to_text
from cqstar.starsize import ISMethod, acyclic_is_and_cover, approx_is, max_is_brute, max_is_ghd_dp, max_is_hinge_fpt, s_star_size

from conftest import EX1_TEXT
from oracles import count_k_cliques, has_k_independent_set, max_is_size
from test_decomposition import random_hypergraph


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def check_independent(h, vertices):
    adj = h.conflict_adjacency()
    members = sorted(vertices)
    for i, v in enumerate(members):
        for u in members[i + 1:]:
            assert u not in adj[v], f"{v} and {u} share an edge"


def test_criterion_1_worked_example(tmp_path):
    with criterion(1, "worked example"):
        start = time.perf_counter()
        path = tmp_path / "ex1.cq"
        path.write_text(EX1_TEXT + "\n")
        sh = from_query(parse_query(path.read_text(), str(path)))
        comps = s_components(sh)
        assert [c.core for c in comps] == [
            frozenset({"u1", "u2", "u3", "u4", "u5", "u6"}),
            frozenset({"u7"}),
            frozenset({"u8"}),
        ]
        size, witnesses = s_star_size(sh, ISMethod.BRUTE)
        assert size == 4
        best = max(witnesses, key=lambda w: w.size)
        check_independent(comps[best.component_index].induced, best.star)
        check_independent(sh.hypergraph, {"v1", "v2", "v3", "v7"})
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_edge_cover_duality():
    with criterion(2, "edge-cover duality"):
        start = time.perf_counter()
        rng = SplitMix64(20240001)
        accepted = 0
        while accepted < 500:
            h = gen_random_acyclic(
                edges=1 + rng.below(10), max_arity=1 + rng.below(4), seed=rng.next_u64()
            )
            if len(h.vertices) > 25:
                continue
            jt = gyo_join_tree(h)
            assert not isinstance(jt, NotAcyclic)
            if rng.chance(1, 2):
                targets = list(h.vertices)
                witness, cover = acyclic_is_and_cover(h, jt)
            else:
                targets = [v for v in h.vertices if h.incident_edges(v) and rng.chance(2, 3)]
                witness, cover = acyclic_is_and_cover(h, jt, targets)
            assert witness.size == len(cover)
            check_independent(h, witness.vertices)
            assert witness.vertices <= set(targets)
            covered = set()
            for eid in cover:
                covered |= h.edge_set(eid)
            assert set(targets) <= covered
            accepted += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_3_exact_is_agreement():
    with criterion(3, "exact independent-set agreement"):
        rng = SplitMix64(20240002)
        accepted = 0
        while accepted < 200:
            h = random_hypergraph(rng, max_vertices=14, max_edges=7, max_arity=5)
            ghd = None
            for k in (1, 2, 3):
                ghd = ghd_search(h, k)
                if ghd is not None:
                    break
            if ghd is None:
                continue
            hinge = hinge_decompose(h)
            for restrict in (None, [v for v in h.vertices if rng.chance(1, 2)]):
                expect = max_is_brute(h, restrict)
                got_ghd = max_is_ghd_dp(h, ghd, restrict)
                got_hinge = max_is_hinge_fpt(h, hinge, restrict)
                assert got_ghd.size == got_hinge.size == expect.size
                check_independent(h, got_ghd.vertices)
                check_independent(h, got_hinge.vertices)
            accepted += 1


def test_criterion_4_approximation_sandwich():
    with criterion(4, "approximation sandwich"):
        rng = SplitMix64(20240003)
        accepted = 0
        while accepted < 200:
            h = random_hypergraph(rng, max_vertices=11, max_edges=6, max_arity=4)
            d = None
            for k in (1, 2, 3, 4):
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
            accepted += 1


def test_criterion_5_counting_oracle_equivalence():
    with criterion(5, "counting oracle equivalence"):
        start = time.perf_counter()
        rng = SplitMix64(20240004)
        done = 0
        while done < 300:
            inst = gen_random_instance(
                variables=1 + rng.below(8),
                atoms=1 + rng.below(6),
                max_arity=3,
                domain=1 + rng.below(4),
                seed=rng.next_u64(),
            )
            h = from_query(inst.query).hypergraph
            d = gyo_join_tree(h)
            if isinstance(d, NotAcyclic):
                d = None
                for k in range(2, len(h.dedup_edges()) + 1):
                    d = ghd_search(h, k)
                    if d is not None:
                        break
            assert d is not None
            expected = count_brute(inst).count
            assert count_cq_via_ghd(inst, d).count == expected
            assert count_cq_via_fractional(inst, integralize(d)).count == expected
            done += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_6_clique_identity():
    with criterion(6, "clique-count identity"):
        # the fixed case first
        k3 = SimpleGraph.from_pairs(3, [(0, 1), (1, 2), (2, 0)])
        inst = gen_clique_star_instance(k3, 3)
        jt = gyo_join_tree(from_query(inst.query).hypergraph)
        count = count_cq_via_ghd(inst, jt).count
        assert count == 21
        assert (27 - count) // 6 == 1 == count_k_cliques(k3, 3)

        rng = SplitMix64(20240005)
        graphs = [k3]
        while len(graphs) < 50:
            n = 2 + rng.below(7)  # 2..8 vertices
            pairs = [
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.chance(1, 2)
            ]
            graphs.append(SimpleGraph.from_pairs(n, pairs))
        for g in graphs:
            for k in (2, 3, 4):
                inst = gen_clique_star_instance(g, k)
                jt = gyo_join_tree(from_query(inst.query).hypergraph)
                count = count_cq_via_ghd(inst, jt).count
                total = g.n ** k
                assert (total - count) % math.factorial(k) == 0
                assert (total - count) // math.factorial(k) == count_k_cliques(g, k)


def test_criterion_7_is_hardness_construction():
    with criterion(7, "independent-set hardness construction"):
        rng = SplitMix64(20240006)
        cases = 0
        while cases < 40:
            n = 2 + rng.below(6)  # 2..7 vertices
            pairs = [
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.chance(1, 2)
            ]
            g = SimpleGraph.from_pairs(n, pairs)
            for k in (1, 2, 3):
                h, d = gen_is_hardness_hypergraph(g, k)
                report = verify(h, d)
                assert report.ok and report.width == k
                have = max_is_size(h) >= k if len(h.vertices) <= 14 else max_is_brute(h).size >= k
                assert have == has_k_independent_set(g, k)
            cases += 1


def _mutation_connectedness(d):
    """Drop a vertex from a middle node of a three-bag chain, if one exists."""
    by_id = {n.node_id: n for n in d.nodes}
    for n in d.nodes:
        if n.parent is None:
            continue
        parent = by_id[n.parent]
        if parent.parent is None:
            continue
        grand = by_id[parent.parent]
        for v in sorted(n.bag & parent.bag & grand.bag):
            nodes = tuple(
                replace(m, bag=m.bag - {v}) if m.node_id == parent.node_id else m
                for m in d.nodes
            )
            return Decomposition(d.kind, nodes), CONNECTEDNESS
    return None


def _mutation_uncover(d, h):
    """Remove one vertex of some edge from every bag covering that edge."""
    for eid, fs in h.dedup_edges():
        if not fs:
            continue
        v = sorted(fs)[0]
        nodes = tuple(
            replace(n, bag=n.bag - {v}) if fs <= n.bag else n for n in d.nodes
        )
        if any(fs <= n.bag for n in d.nodes):
            return Decomposition(d.kind, nodes), EDGE_UNCOVERED
    return None


def _mutation_unguard(d, h):
    """Strip from some node's guard every edge containing one of its bag vertices."""
    for n in d.nodes:
        for v in sorted(n.bag):
            keep = frozenset(e for e in n.guard if v not in h.edge_set(e))
            if keep != n.guard:
                nodes = tuple(
                    replace(m, guard=keep) if m.node_id == n.node_id else m
                    for m in d.nodes
                )
                return Decomposition(d.kind, nodes), GUARD_GAP
    return None


def test_criterion_8_verifier_sensitivity(tmp_path):
    with criterion(8, "verifier sensitivity"):
        star_query = parse_query("ans(y1,y2,y3,y4) :- P1(z,y1), P2(z,y2), P3(z,y3), P4(z,y4).")
        path_query = parse_query("ans(a,b,c,d) :- R(a,b), S(b,c), T(c,d).")
        ex1_query = parse_query(EX1_TEXT)
        suite = []
        for query in (star_query, path_query, ex1_query):
            h = from_query(query).hypergraph
            jt = gyo_join_tree(h)
            if not isinstance(jt, NotAcyclic):
                suite.append((query, h, jt))
            suite.append((query, h, hinge_decompose(h)))
            for k in (1, 2, 3):
                d = ghd_search(h, k)
                if d is not None:
                    suite.append((query, h, d))
                    break
        assert len(suite) >= 6
        mutated_cases = 0
        for idx, (query, h, d) in enumerate(suite):
            assert verify(h, d).ok
            mutations = [
                _mutation_connectedness(d),
                _mutation_uncover(d, h),
                _mutation_unguard(d, h),
            ]
            for mutation in mutations:
                if mutation is None:
                    continue
                bad, tag = mutation
                report = verify(h, bad)
                assert any(v.tag == tag for v in report.violations), (
                    f"expected {tag}, got {report.violations}"
                )
                # the CLI agrees and exits nonzero
                qpath = tmp_path / f"q{idx}_{tag}.cq"
                qpath.write_text(query_to_text(query))
                dpath = tmp_path / f"d{idx}_{tag}.json"
                dpath.write_text(decomposition_to_json(bad))
                buffer = io.StringIO()
                with redirect_stdout(buffer):
                    code = run_cli(["verify", "-q", str(qpath), "--decomp", str(dpath)])
                assert code == 1
                assert tag in buffer.getvalue()
                mutated_cases += 1
        # every decomposition admits the uncover and unguard mutations, and
        # the suite contains chains deep enough for the connectedness one
        assert mutated_cases >= 2 * len(suite) + 2


# -- criterion 9: the tractability smoke -----------------------------------------


def _smoke_family(total_tuples: int, seed: int) -> tuple[QueryInstance, Decomposition]:
    """Width-2, star-size-2 instances whose size is dominated by a cyclic
    quantified block; the free boundary stays constant-sized."""
    rng = SplitMix64(seed)
    n_y, n_z = 12, 4
    y = [f"y{i}" for i in range(n_y)]
    z = [f"z{i}" for i in range(n_z)]
    base = 60
    nq = max(2, (total_tuples - base) // 3)
    m = max(4, 2 * nq)
    w = [f"w{i}" for i in range(m)]
    domain = tuple(y + z + w)
    yid = {v: i for i, v in enumerate(y)}
    zid = {v: n_y + i for i, v in enumerate(z)}
    wid = {v: n_y + n_z + i for i, v in enumerate(w)}

    e13 = {(yid["y0"], yid["y1"], zid["z0"])}
    while len(e13) < 24:
        e13.add((yid[y[rng.below(n_y)]], yid[y[rng.below(n_y)]], zid[z[rng.below(n_z)]]))
    c = {(zid["z0"], zid["z1"])}
    while len(c) < 12:
        c.add((zid[z[rng.below(n_z)]], zid[z[rng.below(n_z)]]))
    e2 = {(yid["y2"], zid["z1"])}
    while len(e2) < 24:
        e2.add((yid[y[rng.below(n_y)]], zid[z[rng.below(n_z)]]))

    def random_pairs(count):
        rows = {(wid["w0"], wid["w0"])}
        while len(rows) < count:
            rows.add((wid[w[rng.below(m)]], wid[w[rng.below(m)]]))
        return rows

    relations = {
        "E13": Relation("E13", ("c0", "c1", "c2"), frozenset(e13)),
        "C": Relation("C", ("c0", "c1"), frozenset(c)),
        "E2": Relation("E2", ("c0", "c1"), frozenset(e2)),
        "F": Relation("F", ("c0", "c1"), frozenset(random_pairs(nq))),
        "G": Relation("G", ("c0", "c1"), frozenset(random_pairs(nq))),
        "K": Relation("K", ("c0", "c1"), frozenset(random_pairs(nq))),
    }
    atoms = (
        Atom("E13", ("y1", "y3", "z1")),
        Atom("C", ("z1", "z2")),
        Atom("E2", ("y2", "z2")),
        Atom("F", ("u", "v")),
        Atom("G", ("v", "w")),
        Atom("K", ("w", "u")),
    )
    query = Query("ans", ("y1", "y2", "y3"), atoms)
    inst = QueryInstance(query, Structure(domain, relations))
    d = Decomposition(
        DecompKind.GHD,
        (
            DecompNode(0, None, frozenset({0}), frozenset({"y1", "y3", "z1"})),
            DecompNode(1, 0, frozenset({1}), frozenset({"z1", "z2"})),
            DecompNode(2, 1, frozenset({2}), frozenset({"y2", "z2"})),
            DecompNode(3, 0, frozenset({3, 4}), frozenset({"u", "v", "w"})),
        ),
    )
    return inst, d


def test_criterion_9_tractability_smoke():
    with criterion(9, "tractability smoke"):
        times = {}
        counts = {}
        for total in (100, 1000, 10000):
            inst, d = _smoke_family(total, seed=total)
            h = from_query(inst.query).hypergraph
            report = verify(h, d)
            assert report.ok and report.width == 2
            assert s_star_size(from_query(inst.query), ISMethod.BRUTE)[0] == 2
            start = time.perf_counter()
            counts[total] = count_cq_via_ghd(inst, d).count
            times[total] = time.perf_counter() - start
        # the guided count stays polynomial: bounded growth per decade
        floor = 0.02
        assert times[1000] <= 50 * max(times[100], floor), times
        assert times[10000] <= 50 * max(times[1000], floor), times
        assert counts[100] >= 1 and counts[10000] >= 1
        # brute force agrees while it fits, and blows its budget at 10^3
        small, _ = _smoke_family(100, seed=100)
        assert count_brute(small).count == counts[100]
        big, _ = _smoke_family(1000, seed=1000)
        with pytest.raises(TooLarge):
            count_brute(big)
        print(
            "  smoke timings:",
            " ".join(f"|A|={k}: {v * 1000:.1f}ms" for k, v in sorted(times.items())),
        )
