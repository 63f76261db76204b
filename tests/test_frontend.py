import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import cqstar
from cqstar.cli import run_cli
from cqstar.decomposition import DecompKind, ghd_search, gyo_join_tree, hinge_decompose
from cqstar.engine import QueryInstance, count_brute
from cqstar.generators import gen_g_star
from cqstar.hypergraph import from_query
from cqstar.parser import (
    ParseError,
    decomposition_from_json,
    decomposition_to_json,
    facts_to_text,
    parse_edge_list,
    parse_facts,
    parse_query,
    query_to_text,
)

from conftest import EX1_TEXT
from oracles import bound_vars, edge_list_to_text


E1E2_FACTS = "E1(a, 1).\nE1(b, 1).\nE2(a, 1).\nE2(c, 2).\n"
E1E2_QUERY = "ans(y1, y2) :- E1(y1, z), E2(y2, z).\n"


# -- parsing ------------------------------------------------------------------


def test_parse_query_basic():
    q = parse_query("ans(y1,y2) :- E1(y1,z), E2(y2,z).")
    assert q.free_vars == ("y1", "y2")
    assert bound_vars(q) == ("z",)
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
    with pytest.raises(ParseError) as err:
        parse_query("ans(x) :-\n R(x,\n ?).")
    assert err.value.span.line == 3


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
    for bad in ("n abc\n", "n -1\n", "n 2\n0 5\n"):
        with pytest.raises(ParseError) as err:
            parse_edge_list(bad)
        assert err.value.span.line == bad.count("\n")


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_query, "ans(x) :-\tR(x) S(x).", "f:1:16: expected '.', found 'S'"),
        (parse_facts, 'P("é", b) x.', "f:1:11: expected '.', found 'x'"),
        (parse_query, "# head\nans(x) :-\n  R(x), (x).\n", "f:3:9: expected 'name', found '('"),
        (parse_query, "ans(x) :- R(x) & S(x).", "f:1:16: unexpected character '&'"),
        (parse_facts, 'P(a).\nP(b, "c\\q").', "f:2:6: unknown escape \\q in string"),
        (parse_query, "ans(x, y, x) :- R(x, y).", "f:1:11: duplicate head variable 'x'"),
        (parse_query, "ans(x, w) :- R(x).", "f:1:8: variable 'w' occurs in no atom"),
        (parse_query, "ans(x) :- R(x", "f:1:14: expected ')', found 'end of input'"),
        (
            parse_facts,
            "P(a, b).\nQ(c).\nP(a).",
            "f:3:1: predicate 'P' used with arity 1, earlier 2 (earlier at f:1:1)",
        ),
    ],
    ids=[
        "tab", "non-ascii", "after-comment", "bad-char", "escape", "duplicate-head", "head-in-no-atom",
        "premature-end", "arity",
    ],
)
def test_parse_error_messages(parse, text, message):
    """Columns count characters from 1; a tab and an 'é' are one column each."""
    with pytest.raises(ParseError) as err:
        parse(text, "f")
    assert str(err.value) == message


# -- round trips ----------------------------------------------------------------


def test_query_round_trip():
    q = parse_query(EX1_TEXT)
    assert parse_query(query_to_text(q)) == q


def test_facts_round_trip():
    quoted = 'Q("\u00e9", "a\\nb", "t\\tr\\r", "q\\"b\\\\", "0abc").\n'
    for text in (E1E2_FACTS, quoted):
        s = parse_facts(text)
        again = parse_facts(facts_to_text(s))
        assert {n: r.rows for n, r in again.relations.items()} == {
            n: frozenset(tuple(again.domain.index(s.domain[v]) for v in row) for row in r.rows)
            for n, r in s.relations.items()
        }
        assert facts_to_text(again) == facts_to_text(s)
    assert parse_facts(quoted).domain == ("\u00e9", "a\nb", "t\tr\r", 'q"b\\', "0abc")


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
        "--method", "ghd", "--json",
    ]
    assert run_cli(args) == 0
    first = capsys.readouterr().out
    doc = json.loads(first)
    assert doc["count"] == "2"
    assert doc["method"] == "ghd"
    assert doc["stats"]["pieces"] == [{"kind": "jointree", "source": "own-jointree", "width": "1"}] * 2
    assert run_cli(args) == 0
    assert capsys.readouterr().out == first


def test_cli_count_brute(workdir, capsys):
    assert run_cli(["count", "-q", str(workdir / "q.cq"), "-d", str(workdir / "d.facts"),
                    "--method", "brute"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_cli_starsize_ex1(workdir, capsys):
    assert run_cli(["starsize", "-q", str(workdir / "ex1.cq")]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "4"
    assert "witness:" in out
    assert run_cli(["starsize", "-q", str(workdir / "ex1.cq"), "--method", "brute"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "4"


def test_cli_starsize_methods(workdir, capsys):
    for method in ("brute", "ghd", "hinge", "approx"):
        assert run_cli(["starsize", "-q", str(workdir / "ex1.cq"), "--method", method]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "4"


@pytest.mark.parametrize("text", ["ans() :- E(x, y).", "ans(x, y) :- E(x, y)."])
def test_cli_starsize_zero_prints_no_witness_line(tmp_path, capsys, text):
    """Size 0, with S empty or with S = V, is one line: no empty witness."""
    query = tmp_path / "q.cq"
    query.write_text(text + "\n")
    assert run_cli(["starsize", "-q", str(query)]) == 0
    assert capsys.readouterr() == ("0\n", "")


def test_cli_starsize_json_lists_each_acyclic_cover(workdir, capsys):
    """``--method acyclic`` gives each component its edge cover's sorted ids;
    no other method adds the key."""
    q = str(workdir / "q.cq")
    assert run_cli(["starsize", "-q", q, "--method", "acyclic", "--json"]) == 0
    components = json.loads(capsys.readouterr().out)["components"]
    assert components == [{"cover": ["0", "1"], "index": "0", "size": "2", "star": ["y1", "y2"]}]
    for method in ("brute", "ghd", "hinge", "approx"):
        assert run_cli(["starsize", "-q", q, "--method", method, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["components"] == [{"index": "0", "size": "2", "star": ["y1", "y2"]}]


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
    sh3, star = from_query(q3), gen_g_star(4)
    assert sh3.s == star.s
    assert sorted(fs for _, fs in sh3.hypergraph.edges) == sorted(fs for _, fs in star.hypergraph.edges)
    assert run_cli(["starsize", "-q", str(workdir / "st.cq")]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "4"

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


def test_cli_free_variable_in_no_atom_is_one_error_line(workdir, capsys):
    """The query itself rejects the head variable, so every path does,
    brute force included, at the variable's position."""
    query, facts = str(workdir / "w.cq"), str(workdir / "w.facts")
    Path(query).write_text("ans(w) :- E(x, y).\n")
    Path(facts).write_text("E(a, b).\n")
    for argv in (["count", "-q", query, "-d", facts],
                 ["count", "-q", query, "-d", facts, "--method", "brute"],
                 ["starsize", "-q", query]):
        assert run_cli(argv) == 1
        assert capsys.readouterr() == ("", f"error: {query}:1:5: variable 'w' occurs in no atom\n")


def _readme_cli_session() -> list[tuple[str, list[str]]]:
    """Each ``$ `` line of the README's CLI block, with the lines printed
    under it up to the next ``$ `` line or blank line."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    session: list[tuple[str, list[str]]] = []
    printing = False
    for line in block.splitlines():
        if line.startswith("$ "):
            session.append((line[2:], []))
            printing = True
        elif not line:
            printing = False
        elif printing:
            session[-1][1].append(line)
    return session


def test_readme_cli_session(tmp_path, capsys, monkeypatch):
    """Every ``cqstar`` line of the README's CLI session prints what the
    README shows under it, on the files its ``cat`` lines show and a
    triangle ``g.edges``."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.edges").write_text("0 1\n1 2\n0 2\n")
    session = _readme_cli_session()
    for command, printed in session:
        if command.startswith("cat "):
            (tmp_path / command[4:]).write_text("".join(f"{line}\n" for line in printed))
    ran = 0
    for command, printed in session:
        argv = shlex.split(command, comments=True)
        if argv[0] != "cqstar":
            continue
        assert run_cli(argv[1:]) == 0, command
        assert capsys.readouterr() == ("".join(f"{line}\n" for line in printed), ""), command
        ran += 1
    assert ran >= 6


BAD_DECOMPS = {
    "node-without-id": {"kind": "jointree", "nodes": [{"parent": None, "lambda": [0], "chi": ["y1"]}]},
    "non-integer-lambda": {"kind": "jointree", "nodes": [{"id": 0, "parent": None, "lambda": ["x"], "chi": []}]},
    "weight-not-a-fraction": {
        "kind": "fractional",
        "nodes": [{"id": 0, "parent": None, "lambda": [0], "chi": [], "weights": {"0": "half"}}],
    },
    "top-level-array": [{"id": 0}],
}


def test_cli_decomposition_json_takes_only_json_integers(workdir, capsys):
    """Ids, parents, lambda entries and weights keys are JSON integers, and
    lambda and chi are arrays: an overflowing number, a float and a bool
    are each one error line."""
    cases = [
        ('{"id": 1e9990, "parent": null, "lambda": [0], "chi": ["y1", "z"]}',
         "node id must be an integer, got Infinity"),
        ('{"id": 0.7, "parent": null, "lambda": [0.2], "chi": ["y1", "z"]}',
         "node id must be an integer, got 0.7"),
        ('{"id": 0, "parent": null, "lambda": [true], "chi": ["y1", "z"]}',
         "node 0: lambda entry must be an integer, got true"),
    ]
    path = workdir / "bad.decomp.json"
    for node, message in cases:
        path.write_text('{"kind": "jointree", "nodes": [' + node + "]}")
        assert run_cli(["verify", "-q", str(workdir / "q.cq"), "--decomp", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}:1:1: {message}\n"
    node = {"id": 0, "parent": False, "lambda": [0], "chi": ["y1", "z"]}
    with pytest.raises(ParseError, match="node 0: parent must be an integer, got false"):
        decomposition_from_json(json.dumps({"kind": "jointree", "nodes": [node]}))
    node = dict(node, parent=None, weights={"0.0": "1"})
    with pytest.raises(ParseError, match='node 0: weights key must be an integer, got "0.0"'):
        decomposition_from_json(json.dumps({"kind": "fractional", "nodes": [node]}))
    # a string is not read as the set of its characters
    node = {"id": 0, "parent": None, "lambda": [0], "chi": "y1"}
    with pytest.raises(ParseError, match='node 0: chi must be a list, got "y1"'):
        decomposition_from_json(json.dumps({"kind": "jointree", "nodes": [node]}))


# nodes whose parent links do not make one tree -> the message naming it
BAD_TREE_SHAPES = [
    ([(0, None), (0, None)], "duplicate node id"),
    ([(0, None), (1, None)], "expected exactly one root, found 2"),
    ([(0, 1), (1, 0)], "expected exactly one root, found 0"),
    ([(0, None), (1, 7)], "node 1 has dangling parent 7"),
    ([(0, None), (1, 2), (2, 1)], "cycle in parent pointers"),
]


def test_cli_decomposition_tree_shape_errors_name_the_file(workdir, capsys):
    """A decomposition whose nodes are no tree is an error of the file it
    was read from, for ``verify`` and ``count --decomp`` alike."""
    path = workdir / "shape.decomp.json"
    q = str(workdir / "q.cq")
    for links, message in BAD_TREE_SHAPES:
        nodes = [{"id": i, "parent": p, "lambda": [0], "chi": ["x"]} for i, p in links]
        path.write_text(json.dumps({"kind": "jointree", "nodes": nodes}))
        for argv in (["verify", "-q", q], ["count", "-q", q, "-d", str(workdir / "d.facts")]):
            assert run_cli([*argv, "--decomp", str(path)]) == 1
            assert capsys.readouterr().err == f"error: {path}:1:1: {message}\n"


TOO_LONG = "1" * 4400  # past Python's 4,300-digit int-string limit


def test_cli_over_long_json_integer_is_one_error_line(workdir, capsys):
    """A decomposition id, or a weight string ("p" or "p/q"), with more digits
    than Python converts is an input error, not an internal one (the
    edge-list case is in BAD_EDGE_LISTS)."""
    path = workdir / "long.decomp.json"
    docs = ['{"kind": "jointree", "nodes": [{"id": ' + TOO_LONG + ', "parent": null, "lambda": [0], "chi": []}]}']
    for weight in (TOO_LONG, "1/" + TOO_LONG):
        node = {"id": 0, "parent": None, "lambda": [0], "chi": [], "weights": {"0": weight}}
        docs.append(json.dumps({"kind": "fractional", "nodes": [node]}))
    q = str(workdir / "q.cq")
    for doc in docs:
        path.write_text(doc)
        for argv in (["verify", "-q", q], ["count", "-q", q, "-d", str(workdir / "d.facts")]):
            assert run_cli([*argv, "--decomp", str(path)]) == 1
            assert capsys.readouterr().err == f"error: {path}:1:1: integer longer than 4300 digits\n"


def test_cli_decomposition_weights_are_numbers_or_plain_fractions(workdir, capsys):
    """A weight is a JSON number that is not a bool, or a string "p", "p/q"
    or a plain decimal. An exponent, which Fraction would expand in full,
    and a bool are each one error line."""
    tri = workdir / "tri.cq"
    tri.write_text("ans(x,y,z) :- R(x,y), S(y,z), T(z,x).\n")
    path = workdir / "w.decomp.json"

    def verify_with(weight):
        node = {"id": 0, "parent": None, "lambda": [0, 1, 2], "chi": ["x", "y", "z"],
                "weights": {"0": weight, "1": "1/2", "2": "1/2"}}
        path.write_text(json.dumps({"kind": "fractional", "nodes": [node]}))
        code = run_cli(["verify", "-q", str(tri), "--decomp", str(path)])
        out, err = capsys.readouterr()
        return code, out + err

    for weight in ("1/2", "0.5", 0.5, 1, "3"):
        assert verify_with(weight)[0] == 0, weight
    assert verify_with(0.5)[1] == "valid fractional decomposition, width 3/2\n"
    for weight in ("1e200000", "1e2000000", True, False, "1/2 ", "+1", "1_0", "\u00bd"):
        assert verify_with(weight) == (
            1,
            f"error: {path}:1:1: node 0: weight must be a number, \"p\", \"p/q\" or a decimal, "
            f"got {json.dumps(weight)}\n",
        ), weight


BAD_EDGE_LISTS = {
    "edges-count-not-int": "n abc\n0 1\n",
    "edges-count-negative": "n -1\n",
    "edges-vertex-out-of-range": "n 2\n0 5\n",
    "edges-vertex-too-long": "0 " + TOO_LONG + "\n",
}


# flags that the chosen path never reads -> the flag the error line names
UNREAD_FLAGS = {
    "count-brute-decomp": (["--method", "brute", "--decomp", "nonexistent.json"], "--decomp"),
    "count-brute-auto-decomp": (["--method", "brute", "--auto-decomp", "hinge"], "--auto-decomp"),
    "count-decomp-and-auto-decomp": (["--decomp", "nonexistent.json", "--auto-decomp", "ghd"], "--auto-decomp"),
    "count-k-without-ghd-search": (["-k", "2"], "-k"),
    "count-k-with-hinge": (["--auto-decomp", "hinge", "-k", "2"], "-k"),
    "starsize-brute-decomp": (["--method", "brute", "--decomp", "nonexistent.json"], "--decomp"),
    "starsize-acyclic-decomp": (["--method", "acyclic", "--decomp", "nonexistent.json"], "--decomp"),
    "starsize-k-with-hinge": (["--method", "hinge", "-k", "2"], "-k"),
    "starsize-k-with-decomp": (["--method", "ghd", "--decomp", "nonexistent.json", "-k", "2"], "-k"),
    "decompose-k-with-tree": (["--kind", "tree", "-k", "2"], "-k"),
}


def _bad_input_argv(case, workdir):
    q, facts = str(workdir / "q.cq"), str(workdir / "d.facts")
    if case in UNREAD_FLAGS:
        command = case.split("-", 1)[0]
        data = ["-d", facts] if command == "count" else []
        return [command, "-q", q, *data, *UNREAD_FLAGS[case][0]]
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
    if case == "facts-bad-escape":
        path = workdir / "escape.facts"
        path.write_text('E1(a, 1).\nE2("a\\x", 1).\n')
        return ["count", "-q", q, "-d", str(path)]
    if case in BAD_EDGE_LISTS:
        path = workdir / "bad.edges"
        path.write_text(BAD_EDGE_LISTS[case])
        return ["gen", "clique-star", "--graph", str(path), "-k", "2", "-o", str(workdir / "cs")]
    if case.startswith("starsize-unknown-edge-"):
        path = workdir / "unknown-edge.decomp.json"
        node = {"id": 0, "parent": None, "lambda": [7], "chi": ["y1"]}
        path.write_text(json.dumps({"kind": "hinge", "nodes": [node]}))
        method = case.rsplit("-", 1)[1]
        return ["starsize", "-q", q, "--method", method, "--decomp", str(path)]
    if case == "decomp-empty-path":  # read like any path, not taken for "no --decomp"
        return ["count", "-q", q, "-d", facts, "--decomp", ""]
    if case == "ghd-width-zero":
        return ["decompose", "-q", q, "--kind", "ghd", "-k", "0"]
    if case == "gen-size-zero":
        return ["gen", "random", "--vars", "0", "--atoms", "2", "--seed", "1", "-o", str(workdir / "r")]
    raise AssertionError(case)


@pytest.mark.parametrize(
    "case",
    sorted(BAD_DECOMPS) + sorted(BAD_EDGE_LISTS) + [
        "directory-as-query", "directory-as-data", "query-not-utf8", "ghd-width-zero", "gen-size-zero",
        "facts-bad-escape", "starsize-unknown-edge-ghd", "starsize-unknown-edge-approx",
        "starsize-unknown-edge-hinge", "decomp-empty-path",
    ] + sorted(UNREAD_FLAGS),
)
def test_cli_bad_input_is_one_error_line(case, workdir, capsys):
    assert run_cli(_bad_input_argv(case, workdir)) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    if case in UNREAD_FLAGS:
        assert err.startswith(f"error: {UNREAD_FLAGS[case][1]} ")


def test_cli_not_utf8_column_counts_characters(tmp_path, capsys):
    """The bad byte follows a two-byte 'é' on its line: column 8, not 9."""
    path = tmp_path / "accent.cq"
    path.write_bytes("ans(y) :- R(y).\n# caf\u00e9 ".encode("utf-8") + b"\xff\n")
    assert run_cli(["count", "-q", str(path), "-d", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}:2:8: not UTF-8 text (invalid start byte)\n"


def test_cli_jointree_refuses_cyclic(tmp_path, capsys):
    q = tmp_path / "tri.cq"
    q.write_text("ans(x,y,z) :- R(x,y), S(y,z), T(z,x).\n")
    assert run_cli(["decompose", "-q", str(q), "--kind", "jointree"]) == 1
    err = capsys.readouterr().err
    assert "not acyclic" in err


@pytest.mark.parametrize("length", [3, 12])
@pytest.mark.parametrize(
    "argv",
    [["decompose", "--kind", "jointree"], ["count", "-d", "{facts}", "--auto-decomp", "jointree"]],
    ids=["decompose", "count"],
)
def test_cli_jointree_of_cyclic_query_is_one_error_line(argv, length, tmp_path, capsys):
    """Both commands refuse a join tree of a cycle with the same one
    ``error:`` line, which names the irreducible kernel's edges in id order."""
    q, f = tmp_path / "cycle.cq", tmp_path / "cycle.facts"
    q.write_text("ans(x0) :- " + ", ".join(f"E(x{i}, x{(i + 1) % length})" for i in range(length)) + ".\n")
    f.write_text("E(a, b).\n")
    argv = [arg.format(facts=f) for arg in argv]
    assert run_cli([argv[0], "-q", str(q), *argv[1:]]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    edges = ", ".join(map(str, range(length)))
    assert err == f"error: query hypergraph is not acyclic (irreducible kernel edges: {edges}); no join tree exists\n"


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
        "--decomp", str(frac),
    ]) == 0
    engine_count = capsys.readouterr().out.strip()
    assert run_cli([
        "count", "-q", str(tri_query), "-d", str(tri_facts), "--method", "brute",
    ]) == 0
    assert capsys.readouterr().out.strip() == engine_count
    # --json names the method by the decomposition's kind
    assert run_cli(["count", "-q", str(tri_query), "-d", str(tri_facts), "--decomp", str(frac), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["count"], doc["method"]) == (engine_count, "fractional")


def test_cli_negative_weights_are_violations(workdir, capsys):
    """A negative weight could lower a node's width below that of any cover;
    ``verify`` names each one, by node and edge in node order, and
    ``count`` refuses the decomposition in one line."""
    query = workdir / "neg.cq"
    query.write_text("ans(x, y, z, q) :- R(x, y), S(y, z), T(z, x), W(q).\n")
    facts = workdir / "neg.facts"
    facts.write_text("R(a, b). S(b, c). T(c, a). W(a).\n")
    path = workdir / "neg.decomp.json"
    path.write_text(json.dumps({"kind": "fractional", "nodes": [
        {"id": 0, "parent": None, "lambda": [], "chi": ["x", "y", "z"],
         "weights": {"0": 1, "1": 1, "2": 1, "3": -5}},
        {"id": 1, "parent": 0, "lambda": [], "chi": ["q"], "weights": {"3": 1, "0": -3}},
    ]}))
    violations = "(NEGATIVE_WEIGHT node=0 edge=3)", "(NEGATIVE_WEIGHT node=1 edge=0)"
    assert run_cli(["verify", "-q", str(query), "--decomp", str(path)]) == 1
    assert capsys.readouterr() == ("".join(f"{v}\n" for v in violations), "")
    assert run_cli([
        "count", "-q", str(query), "-d", str(facts), "--decomp", str(path),
    ]) == 1
    assert capsys.readouterr() == ("", f"error: decomposition fails verification: {', '.join(violations)}\n")



def test_cli_weights_outside_a_fractional_decomposition_are_violations(workdir, capsys):
    """Only a fractional node is read by its weights. A weights map on a node
    of any other kind would still name atoms for the bag join, so ``verify``
    names the node, and ``count`` refuses the decomposition in one line."""
    query = workdir / "stray.cq"
    query.write_text("ans(x, y, z, q) :- R(x, y), S(y, z), T(z, x), W(q).\n")
    facts = workdir / "stray.facts"
    facts.write_text("R(a, b). S(b, c). T(c, a). W(a).\n")
    path = workdir / "stray.decomp.json"
    path.write_text(json.dumps({"kind": "ghd", "nodes": [
        {"id": 0, "parent": None, "lambda": [0, 1], "chi": ["x", "y", "z"], "weights": {"3": -5}},
        {"id": 1, "parent": 0, "lambda": [3], "chi": ["q"]},
    ]}))
    assert run_cli(["verify", "-q", str(query), "--decomp", str(path)]) == 1
    assert capsys.readouterr() == ("(STRAY_WEIGHTS node=0)\n", "")
    assert run_cli(["count", "-q", str(query), "-d", str(facts), "--decomp", str(path)]) == 1
    assert capsys.readouterr() == ("", "error: decomposition fails verification: (STRAY_WEIGHTS node=0)\n")
    doc = json.loads(path.read_text())
    del doc["nodes"][0]["weights"]
    path.write_text(json.dumps(doc))
    assert run_cli(["verify", "-q", str(query), "--decomp", str(path)]) == 0
    assert capsys.readouterr().out == "valid ghd decomposition, width 2\n"

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


def test_cli_verify_and_count_refuse_a_tree_missing_a_one_vertex_edge(workdir, capsys):
    """``U(z)`` has no pair, so a tree whose one bag lacks ``z`` leaves it
    uncovered: ``verify`` says so under the edge's own id, as ``count`` does."""
    query, facts, tree = workdir / "u.cq", workdir / "u.facts", workdir / "u.json"
    query.write_text("ans(x, y, w, z) :- R(x, y), S(y, w), T(w, x), U(z).\n")
    facts.write_text("R(a, b). S(b, c). T(c, a). U(d).\n")
    tree.write_text(json.dumps({"kind": "tree", "nodes": [{"id": 0, "parent": None, "lambda": [], "chi": ["x", "y", "w"]}]}))
    assert run_cli(["verify", "-q", str(query), "--decomp", str(tree)]) == 1
    assert capsys.readouterr() == ("(EDGE_UNCOVERED edge=3)\n", "")
    assert run_cli(["count", "-q", str(query), "-d", str(facts), "--decomp", str(tree)]) == 1
    assert capsys.readouterr() == ("", "error: decomposition fails verification: (EDGE_UNCOVERED edge=3)\n")


def test_cli_decompose_tree_kind(workdir, capsys):
    assert run_cli(["decompose", "-q", str(workdir / "ex1.cq"), "--kind", "tree"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "tree"


def test_cli_count_and_starsize_read_a_tree_decomposition(workdir, capsys):
    """A tree decomposition is guarded before it is read: ``count`` counts
    along it what ``--method brute`` counts; along it ``starsize --method
    ghd`` sizes the running example as brute force does, and ``approx`` no
    larger. ``--method hinge`` names its kind."""
    def run(*argv):
        assert run_cli(list(argv)) == 0
        return capsys.readouterr().out

    (workdir / "tri.cq").write_text("ans(x,y,z) :- R(x,y), S(y,z), T(z,x).\n")
    (workdir / "tri.facts").write_text("R(a,b). R(b,a). S(b,a). S(a,a). T(a,a). T(b,a).\n")
    tree = str(workdir / "tree.json")
    for query, facts in (("q.cq", "d.facts"), ("tri.cq", "tri.facts")):
        query, facts = str(workdir / query), str(workdir / facts)
        run("decompose", "-q", query, "--kind", "tree", "-o", tree)
        want = run("count", "-q", query, "-d", facts, "--method", "brute")
        assert run("count", "-q", query, "-d", facts, "--decomp", tree, "--method", "ghd") == want
    ex1 = str(workdir / "ex1.cq")
    run("decompose", "-q", ex1, "--kind", "tree", "-o", tree)
    brute = int(run("starsize", "-q", ex1).splitlines()[0])
    assert int(run("starsize", "-q", ex1, "--method", "ghd", "--decomp", tree).splitlines()[0]) == brute
    approx = int(run("starsize", "-q", ex1, "--method", "approx", "--decomp", tree).splitlines()[0])
    assert 1 <= approx <= brute
    assert run_cli(["starsize", "-q", ex1, "--method", "hinge", "--decomp", tree]) == 1
    assert capsys.readouterr() == ("", "error: expected kind in ['hinge'], got tree\n")


def test_cli_cached_parser_carries_nothing_between_calls(workdir, capsys):
    q, d = str(workdir / "q.cq"), str(workdir / "d.facts")
    for first, then, expected in (
        (["count", "-q", q, "-d", d, "--json"], ["count", "-q", q, "-d", d], "2\n"),
        (["starsize", "-q", q, "--method", "ghd", "-k", "2"], ["starsize", "-q", q], "2\nwitness: y1 y2\n"),
    ):
        assert run_cli(first) == 0
        capsys.readouterr()
        assert run_cli(then) == 0
        assert capsys.readouterr() == (expected, "")


def test_cli_runs_as_its_own_process(workdir):
    src = str(Path(cqstar.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def cqstar_cli(*argv):
        return subprocess.run([sys.executable, "-m", "cqstar.cli", *argv], cwd=workdir, env=env,
                              capture_output=True, text=True)

    done = cqstar_cli("count", "-q", "q.cq", "-d", "d.facts")
    assert (done.returncode, done.stdout, done.stderr) == (0, "2\n", "")
    done = cqstar_cli()
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
