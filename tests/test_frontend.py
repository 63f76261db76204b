import json

import pytest

from cqstar.cli import run_cli
from cqstar.decomposition import DecompKind, ghd_search, gyo_join_tree, hinge_decompose
from cqstar.engine import QueryInstance, count_brute
from cqstar.hypergraph import from_query
from cqstar.parser import (
    ParseError,
    decomposition_from_json,
    decomposition_to_json,
    edge_list_to_text,
    facts_to_text,
    parse_edge_list,
    parse_facts,
    parse_query,
    query_to_text,
)

from conftest import EX1_TEXT


E1E2_FACTS = "E1(a, 1).\nE1(b, 1).\nE2(a, 1).\nE2(c, 2).\n"
E1E2_QUERY = "ans(y1, y2) :- E1(y1, z), E2(y2, z).\n"


# -- parsing ------------------------------------------------------------------


def test_parse_query_basic():
    q = parse_query("ans(y1,y2) :- E1(y1,z), E2(y2,z).")
    assert q.free_vars == ("y1", "y2")
    assert q.bound_vars() == ("z",)
    assert [a.predicate for a in q.atoms] == ["E1", "E2"]


def test_parse_query_ex1():
    q = parse_query(EX1_TEXT)
    assert len(q.atoms) == 8
    sh = from_query(q)
    assert sh.s == frozenset(f"v{i}" for i in range(1, 10))


def test_parse_query_boolean():
    q = parse_query("ans() :- R(x).")
    assert q.free_vars == ()


def test_parse_query_errors():
    with pytest.raises(ParseError):
        parse_query("ans(x) :- .")
    with pytest.raises(ParseError):
        parse_query("ans(x, x) :- R(x).")
    with pytest.raises(ParseError):
        parse_query("ans(x) :- R(x)")  # missing final dot
    with pytest.raises(ParseError):
        parse_query("ans(x) :- R().")
    try:
        parse_query("ans(x) :-\n R(x,\n ?).")
    except ParseError as exc:
        assert exc.span.line == 3


def test_parse_facts_dedup_and_domain():
    s = parse_facts("P(a, b).\nP(a, b).\nQ(\"x y\").")
    assert len(s.relations["P"].rows) == 1
    assert len(s.relations["Q"].rows) == 1
    assert set(s.domain) == {"a", "b", "x y"}


def test_parse_facts_empty():
    s = parse_facts("")
    assert s.domain == ()
    assert s.relations == {}


def test_parse_facts_arity_conflict():
    with pytest.raises(ParseError) as err:
        parse_facts("P(a, b).\nP(a).")
    assert err.value.other is not None


def test_parse_edge_list():
    g = parse_edge_list("n 4\n0 1\n2 3\n")
    assert g.n == 4
    assert g.adjacent(0, 1) and g.adjacent(2, 3)
    inferred = parse_edge_list("0 1\n1 2\n")
    assert inferred.n == 3
    with pytest.raises(ParseError):
        parse_edge_list("0 0\n")


# -- round trips ----------------------------------------------------------------


def test_query_round_trip():
    q = parse_query(EX1_TEXT)
    assert parse_query(query_to_text(q)) == q


def test_facts_round_trip():
    s = parse_facts(E1E2_FACTS)
    again = parse_facts(facts_to_text(s))
    assert {n: r.rows for n, r in again.relations.items()} == {
        n: frozenset(tuple(again.domain.index(s.domain[v]) for v in row) for row in r.rows)
        for n, r in s.relations.items()
    }
    assert facts_to_text(again) == facts_to_text(s)


def test_edge_list_round_trip():
    g = parse_edge_list("n 5\n0 1\n1 2\n3 4\n")
    assert parse_edge_list(edge_list_to_text(g)) == g


def test_decomposition_round_trip():
    q = parse_query(EX1_TEXT)
    h = from_query(q).hypergraph
    for d in (hinge_decompose(h), ghd_search(h, 3), gyo_join_tree(h.induced({"v1", "u1"}))):
        if d is None:
            continue
        text = decomposition_to_json(d)
        again = decomposition_from_json(text)
        assert again.kind == d.kind
        assert {(n.node_id, n.parent, n.guard, n.bag) for n in again.nodes} == {
            (n.node_id, n.parent, n.guard, n.bag) for n in d.nodes
        }
        assert decomposition_to_json(again) == text


def test_fractional_decomposition_round_trip():
    text = json.dumps(
        {
            "kind": "fractional",
            "nodes": [
                {
                    "id": 0,
                    "parent": None,
                    "lambda": [0, 1, 2],
                    "chi": ["x", "y", "z"],
                    "weights": {"0": "1/2", "1": "1/2", "2": "1/2"},
                }
            ],
        }
    )
    d = decomposition_from_json(text)
    assert d.kind is DecompKind.FRACTIONAL
    again = decomposition_from_json(decomposition_to_json(d))
    assert again == d


# -- CLI ------------------------------------------------------------------------


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "q.cq").write_text(E1E2_QUERY)
    (tmp_path / "d.facts").write_text(E1E2_FACTS)
    (tmp_path / "ex1.cq").write_text(EX1_TEXT + "\n")
    return tmp_path


def test_cli_count(workdir, capsys):
    code = run_cli(["count", "-q", str(workdir / "q.cq"), "-d", str(workdir / "d.facts")])
    assert code == 0
    assert capsys.readouterr().out.strip() == "2"


def test_cli_count_json_stable(workdir, capsys):
    args = [
        "count", "-q", str(workdir / "q.cq"), "-d", str(workdir / "d.facts"),
        "--method", "fractional", "--json",
    ]
    assert run_cli(args) == 0
    first = capsys.readouterr().out
    doc = json.loads(first)
    assert doc["count"] == "2"
    assert doc["method"] == "fractional"
    assert "stats" in doc
    assert run_cli(args) == 0
    assert capsys.readouterr().out == first


def test_cli_count_brute_and_oracle(workdir, capsys):
    assert run_cli(["count", "-q", str(workdir / "q.cq"), "-d", str(workdir / "d.facts"),
                    "--method", "brute"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert run_cli(["oracle", "count", "-q", str(workdir / "q.cq"), "-d", str(workdir / "d.facts")]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_cli_starsize_ex1(workdir, capsys):
    assert run_cli(["starsize", "-q", str(workdir / "ex1.cq")]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "4"
    assert "witness:" in out
    assert run_cli(["oracle", "starsize", "-q", str(workdir / "ex1.cq")]) == 0
    assert capsys.readouterr().out.strip() == "4"


def test_cli_starsize_methods(workdir, capsys):
    for method in ("brute", "ghd", "hinge", "approx"):
        assert run_cli(["starsize", "-q", str(workdir / "ex1.cq"), "--method", method]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "4"


def test_cli_decompose_verify_loop(workdir, capsys):
    decomp_path = workdir / "ex1.decomp.json"
    assert run_cli([
        "decompose", "-q", str(workdir / "ex1.cq"), "--kind", "hinge",
        "-o", str(decomp_path),
    ]) == 0
    capsys.readouterr()
    assert run_cli([
        "verify", "-q", str(workdir / "ex1.cq"), "--decomp", str(decomp_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "valid" in out and "hinge" in out


def test_cli_verify_mutated_connectedness(workdir, capsys):
    doc = json.loads(
        decomposition_to_json(gyo_join_tree(from_query(parse_query("ans(y1,y2,y3) :- P1(z,y1), P2(z,y2), P3(z,y3).")).hypergraph))
    )
    # drop the shared center from a middle node
    for node in doc["nodes"]:
        if node["parent"] is not None and any(
            other["parent"] == node["id"] for other in doc["nodes"]
        ):
            node["chi"] = [v for v in node["chi"] if v != "z"]
            break
    bad = workdir / "bad.decomp.json"
    bad.write_text(json.dumps(doc))
    query_path = workdir / "star.cq"
    query_path.write_text("ans(y1,y2,y3) :- P1(z,y1), P2(z,y2), P3(z,y3).\n")
    code = run_cli(["verify", "-q", str(query_path), "--decomp", str(bad)])
    assert code == 1
    assert "CONNECTEDNESS" in capsys.readouterr().out


def test_cli_gen_round_trips(workdir, capsys):
    graph = workdir / "g.edges"
    graph.write_text("n 3\n0 1\n1 2\n2 0\n")
    prefix = workdir / "cs"
    assert run_cli(["gen", "clique-star", "--graph", str(graph), "-k", "3", "-o", str(prefix)]) == 0
    capsys.readouterr()
    query = parse_query((workdir / "cs.cq").read_text())
    struct = parse_facts((workdir / "cs.facts").read_text())
    inst = QueryInstance(query, struct)
    # K3 with k=3: 27 - 21 = 6 ordered cliques
    assert count_brute(inst).count == 21

    assert run_cli(["gen", "is-hard", "--graph", str(graph), "-k", "2", "-o", str(workdir / "ih")]) == 0
    capsys.readouterr()
    q2 = parse_query((workdir / "ih.cq").read_text())
    d2 = decomposition_from_json((workdir / "ih.decomp.json").read_text())
    from cqstar.decomposition import verify

    report = verify(from_query(q2).hypergraph, d2)
    assert report.ok and report.width == 2

    assert run_cli(["gen", "gstar", "-n", "4", "-o", str(workdir / "st")]) == 0
    capsys.readouterr()
    q3 = parse_query((workdir / "st.cq").read_text())
    assert len(q3.free_vars) == 4

    assert run_cli([
        "gen", "random", "--vars", "4", "--atoms", "3", "--seed", "7",
        "-o", str(workdir / "rnd"),
    ]) == 0
    capsys.readouterr()
    q4 = parse_query((workdir / "rnd.cq").read_text())
    s4 = parse_facts((workdir / "rnd.facts").read_text())
    QueryInstance(q4, s4)


def test_cli_exit_codes(workdir, capsys):
    assert run_cli(["count", "-q", str(workdir / "missing.cq"), "-d", str(workdir / "d.facts")]) == 1
    capsys.readouterr()
    bad_query = workdir / "broken.cq"
    bad_query.write_text("ans(x :- R(x).")
    assert run_cli(["count", "-q", str(bad_query), "-d", str(workdir / "d.facts")]) == 1
    capsys.readouterr()
    (workdir / "big.cq").write_text(
        "ans(a,b,c,d,e,f,g,h,i,j,k,l) :- R(a,b,c,d,e,f,g,h,i,j,k,l)."
    )
    (workdir / "big.facts").write_text("R(0,1,2,3,4,5,6,7,8,9,10,11).")
    assert run_cli([
        "count", "-q", str(workdir / "big.cq"), "-d", str(workdir / "big.facts"),
        "--method", "brute",
    ]) == 2
    capsys.readouterr()
    assert run_cli(["decompose", "-q", str(workdir / "q.cq"), "--kind", "ghd"]) == 0
    capsys.readouterr()
    assert run_cli(["bogus"]) == 1
    capsys.readouterr()


BAD_DECOMPS = {
    "node-without-id": {"kind": "jointree", "nodes": [{"parent": None, "lambda": [0], "chi": ["y1"]}]},
    "non-integer-lambda": {"kind": "jointree", "nodes": [{"id": 0, "parent": None, "lambda": ["x"], "chi": []}]},
    "weight-not-a-fraction": {
        "kind": "fractional",
        "nodes": [{"id": 0, "parent": None, "lambda": [0], "chi": [], "weights": {"0": "half"}}],
    },
    "top-level-array": [{"id": 0}],
}


def _bad_input_argv(case, workdir):
    q, facts = str(workdir / "q.cq"), str(workdir / "d.facts")
    if case in BAD_DECOMPS:
        path = workdir / "bad.decomp.json"
        path.write_text(json.dumps(BAD_DECOMPS[case]))
        return ["count", "-q", q, "-d", facts, "--decomp", str(path)]
    if case == "directory-as-query":
        return ["count", "-q", str(workdir), "-d", facts]
    if case == "directory-as-data":
        return ["count", "-q", q, "-d", str(workdir)]
    if case == "query-not-utf8":
        path = workdir / "latin1.cq"
        path.write_bytes("ans(y) :- R(y).\n# caf\xe9\n".encode("latin-1"))
        return ["count", "-q", str(path), "-d", facts]
    if case == "ghd-width-zero":
        return ["decompose", "-q", q, "--kind", "ghd", "-k", "0"]
    if case == "gen-size-zero":
        return ["gen", "random", "--vars", "0", "--atoms", "2", "--seed", "1", "-o", str(workdir / "r")]
    raise AssertionError(case)


@pytest.mark.parametrize(
    "case",
    sorted(BAD_DECOMPS) + [
        "directory-as-query", "directory-as-data", "query-not-utf8", "ghd-width-zero", "gen-size-zero",
    ],
)
def test_cli_bad_input_is_one_error_line(case, workdir, capsys):
    assert run_cli(_bad_input_argv(case, workdir)) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_jointree_refuses_cyclic(tmp_path, capsys):
    q = tmp_path / "tri.cq"
    q.write_text("ans(x,y,z) :- R(x,y), S(y,z), T(z,x).\n")
    assert run_cli(["decompose", "-q", str(q), "--kind", "jointree"]) == 1
    err = capsys.readouterr().err
    assert "not acyclic" in err


def test_cli_count_with_explicit_decomp(workdir, capsys):
    decomp_path = workdir / "q.decomp.json"
    assert run_cli([
        "decompose", "-q", str(workdir / "q.cq"), "--kind", "jointree",
        "-o", str(decomp_path),
    ]) == 0
    capsys.readouterr()
    assert run_cli([
        "count", "-q", str(workdir / "q.cq"), "-d", str(workdir / "d.facts"),
        "--decomp", str(decomp_path),
    ]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_cli_count_auto_decomp_variants(workdir, capsys):
    for extra in (["--auto-decomp", "hinge"], ["--auto-decomp", "ghd", "-k", "2"]):
        assert run_cli([
            "count", "-q", str(workdir / "q.cq"), "-d", str(workdir / "d.facts"), *extra,
        ]) == 0
        assert capsys.readouterr().out.strip() == "2"


def test_cli_count_fractional_decomp_file(workdir, capsys):
    tri_query = workdir / "tri.cq"
    tri_query.write_text("ans(x,y,z) :- R(x,y), S(y,z), T(z,x).\n")
    tri_facts = workdir / "tri.facts"
    tri_facts.write_text("R(a,b). R(b,a). S(b,a). S(a,a). T(a,a). T(b,a).\n")
    frac = workdir / "tri.decomp.json"
    frac.write_text(
        json.dumps(
            {
                "kind": "fractional",
                "nodes": [
                    {
                        "id": 0,
                        "parent": None,
                        "lambda": [0, 1, 2],
                        "chi": ["x", "y", "z"],
                        "weights": {"0": "1/2", "1": "1/2", "2": "1/2"},
                    }
                ],
            }
        )
    )
    assert run_cli([
        "count", "-q", str(tri_query), "-d", str(tri_facts),
        "--decomp", str(frac), "--method", "fractional",
    ]) == 0
    engine_count = capsys.readouterr().out.strip()
    assert run_cli([
        "count", "-q", str(tri_query), "-d", str(tri_facts), "--method", "brute",
    ]) == 0
    assert capsys.readouterr().out.strip() == engine_count


def test_cli_starsize_decomp_file(workdir, capsys):
    decomp_path = workdir / "ex1.hinge.json"
    assert run_cli([
        "decompose", "-q", str(workdir / "ex1.cq"), "--kind", "hinge",
        "-o", str(decomp_path),
    ]) == 0
    capsys.readouterr()
    assert run_cli([
        "starsize", "-q", str(workdir / "ex1.cq"), "--method", "hinge",
        "--decomp", str(decomp_path),
    ]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "4"


def test_cli_decompose_tree_kind(workdir, capsys):
    assert run_cli(["decompose", "-q", str(workdir / "ex1.cq"), "--kind", "tree"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "tree"
