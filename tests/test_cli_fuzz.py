"""Seeded fuzz of ``cqstar count``, ``cqstar decompose`` and both brute-force
methods (``count`` and ``starsize`` with ``--method brute``) on mutated
query and facts files, of ``verify``, ``count --decomp`` and ``starsize
--decomp`` on mutated decomposition JSON, and of both graph generators on
mutated edge lists: every run ends in an answer (exit 0), one ``error:``
line (exit 1) or a budget line (exit 2). Exit 3, the catch-all for internal
errors, is a failure."""

import re
from collections import Counter

from cqstar import cli
from cqstar import decomposition as dec
from cqstar.cli import run_cli
from cqstar.decomposition import hinge_decompose
from cqstar.generators import SplitMix64
from cqstar.hypergraph import from_query
from cqstar.parser import decomposition_to_json, parse_query

from oracles import integralize
from parser_differential import mutate

QUERIES = [
    "ans(y1, y2) :- E1(y1, z), E2(y2, z).\n",
    "ans(x) :- E1(x, y), E2(y, z), E1(z, x).\n",
    "ans() :- E1(x, y), E2(y, x).\n",
    "# head\nans(x, y) :- E2(x, y), E1(y, w).\n",
]
FACTS = [
    "E1(a, 1).\nE1(b, 1).\nE2(a, 1).\nE2(c, 2).\n",
    'E1(a, b). E1(b, "c d"). # two\nE2(b, a). E2("c d", a).\n',
    "E1(1, 2).\nE1(2, 3).\nE1(3, 1).\nE2(2, 1).\nE2(3, 2).\nE2(1, 3).\n",
]


def _fuzz(capsys, runs) -> list[int]:
    """The exit code of each (seed, files, argv) in ``runs``: the files
    (path -> text) are written, then the CLI runs on ``argv`` and must end
    in exit 0, 1 or 2 with no traceback."""
    codes = []
    for seed, files, argv in runs:
        for path, text in files.items():
            path.write_text(text, encoding="utf-8")
        code = run_cli(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (seed, err)
        assert "Traceback" not in err, seed
        codes.append(code)
    return codes


def test_cli_count_fuzz_never_crashes(tmp_path, capsys):
    q, f = tmp_path / "q.cq", tmp_path / "d.facts"

    def runs():
        for seed in range(600):
            rng = SplitMix64(seed)
            files = {q: mutate(rng, QUERIES[seed % len(QUERIES)]), f: mutate(rng, FACTS[rng.below(len(FACTS))])}
            argv = ["count", "-q", str(q), "-d", str(f), "--method", rng.choice(["ghd", "brute"])]
            if rng.chance(1, 2):
                argv.append("--json")
            yield seed, files, argv

    exits = Counter(_fuzz(capsys, runs()))
    assert exits[0] > 50 and exits[1] > 50


def test_cli_brute_fuzz_never_crashes(tmp_path, capsys):
    q, f = tmp_path / "q.cq", tmp_path / "d.facts"

    def runs():
        for seed in range(300):
            rng = SplitMix64(seed)
            files = {q: mutate(rng, QUERIES[seed % len(QUERIES)])}
            if rng.chance(1, 2):
                yield seed, files, ["starsize", "-q", str(q), "--method", "brute"]
            else:
                files[f] = mutate(rng, FACTS[rng.below(len(FACTS))])
                yield seed, files, ["count", "-q", str(q), "-d", str(f), "--method", "brute"]

    exits = Counter(_fuzz(capsys, runs()))
    assert exits[0] > 50 and exits[1] > 50, exits


EDGE_LISTS = [
    "n 5\n0 1\n1 2\n2 3\n3 4\n4 0\n",
    "0 1\n0 2\n1 2\n2 3\n",
    "n 4\n# a star\n0 1\n0 2\n0 3\n",
]
# a mutant that declares or names a vertex past this is skipped: the output
# grows fast with it (the valid "340 1" makes gen clique-star -k 2 write 1.4 MB)
MOST_VERTICES = 9


def test_cli_gen_fuzz_never_crashes(tmp_path, capsys):
    graph, out = tmp_path / "g.edges", str(tmp_path / "out")

    def runs():
        for seed in range(300):
            rng = SplitMix64(seed)
            text = mutate(rng, EDGE_LISTS[seed % len(EDGE_LISTS)])
            if all(int(n) <= MOST_VERTICES for n in re.findall(r"\d+", text)):
                generator, k = rng.choice(["clique-star", "is-hard"]), str(1 + rng.below(3))
                yield seed, {graph: text}, ["gen", generator, "--graph", str(graph), "-k", k, "-o", out]

    exits = Counter(_fuzz(capsys, runs()))
    assert exits[0] > 50 and exits[1] > 50, exits


# JSON values put where a decomposition document has an integer; inside a
# weight string, "1e200000" and "1e2000000" are the exponents Fraction would
# expand, and the last is past Python's 4,300-digit int-string limit
SWAPS = [
    "1e9990", "0.7", "true", "false", "null", "-1", "7", "[]", "{}", '"0"', '"x"', "1e3", "-0",
    "1e200000", "1e2000000", "1" * 4400,
]


def _mutate_json(rng: SplitMix64, text: str) -> str:
    """Swap one integer for another JSON value half the time, then mutate
    characters as the parser differential does."""
    if rng.chance(1, 2):
        numbers = list(re.finditer(r"-?[0-9]+", text))
        if numbers:
            m = rng.choice(numbers)
            text = text[: m.start()] + rng.choice(SWAPS) + text[m.end():]
    return mutate(rng, text)


def test_cli_decomposition_json_fuzz_never_crashes(tmp_path, capsys):
    q, f, dj = tmp_path / "q.cq", tmp_path / "d.facts", tmp_path / "d.json"
    f.write_text(FACTS[0], encoding="utf-8")
    docs = []
    for query in QUERIES:
        hinge = hinge_decompose(from_query(parse_query(query)).hypergraph)
        docs += [(query, decomposition_to_json(hinge)), (query, decomposition_to_json(integralize(hinge)))]

    def runs():
        for seed in range(240):
            rng = SplitMix64(seed)
            query, doc = docs[seed % len(docs)]
            files = {q: query, dj: _mutate_json(rng, doc)}
            command = rng.choice(["verify", "count", "starsize"])
            argv = [command, "-q", str(q), "--decomp", str(dj)]
            if command == "count":
                argv += ["-d", str(f), "--method", "ghd"]
            elif command == "starsize":
                argv += ["--method", rng.choice(["ghd", "hinge", "approx"])]
            yield seed, files, argv

    exits = Counter(_fuzz(capsys, runs()))
    assert exits[0] > 30 and exits[1] > 30, exits


def _grid_query(cols: int, rows: int, extra: int = 0) -> str:
    """A grid of E1 (across) and E2 (down) atoms over cols * rows variables,
    plus a path of ``extra`` more variables hanging off the last one."""
    atoms = [f"E1(g{r}_{c}, g{r}_{c + 1})" for r in range(rows) for c in range(cols - 1)]
    atoms += [f"E2(g{r}_{c}, g{r + 1}_{c})" for r in range(rows - 1) for c in range(cols)]
    tail = [f"g{rows - 1}_{cols - 1}"] + [f"t{i}" for i in range(extra)]
    atoms += [f"E1({a}, {b})" for a, b in zip(tail, tail[1:])]
    return f"ans(g0_0) :- {', '.join(atoms)}.\n"


# 12 and 13 variables sit on either side of tree_decompose's exact cutoff;
# up to it min-fill meets the minor-min-width bound on the grid, so the DP
# is skipped (test_decomposition.py reaches the DP route)
DECOMPOSE_QUERIES = QUERIES + [_grid_query(3, 4), _grid_query(3, 4, 1)]


def test_cli_decompose_fuzz_never_crashes(tmp_path, capsys, monkeypatch):
    q = tmp_path / "q.cq"
    kinds, steps = [], []  # steps: per run, the tree_decompose steps taken

    def taking(name):
        inner = getattr(dec, name)

        def wrapper(*args):
            steps[-1].add(name)
            return inner(*args)

        monkeypatch.setattr(dec, name, wrapper)

    taking("_minor_min_width")
    taking("_exact_elimination_order")

    def runs():
        for seed in range(240):
            rng = SplitMix64(seed)
            text = mutate(rng, DECOMPOSE_QUERIES[seed % len(DECOMPOSE_QUERIES)])
            kinds.append(rng.choice(["jointree", "hinge", "ghd", "tree"]))
            steps.append(set())
            yield seed, {q: text}, ["decompose", "-q", str(q), "--kind", kinds[-1]]

    codes = _fuzz(capsys, runs())
    exits = Counter(zip(codes, kinds))
    routes = Counter(  # tree decompositions built, by the route taken
        "exact" if "_exact_elimination_order" in taken else "bound met" if taken else "past cutoff"
        for code, kind, taken in zip(codes, kinds, steps)
        if code == 0 and kind == "tree"
    )
    assert all(exits[0, kind] > 5 for kind in ("hinge", "ghd", "tree")), exits
    assert sum(n for (code, _), n in exits.items() if code == 1) > 30, exits
    assert routes["bound met"] > 5 and routes["past cutoff"] > 2, routes


def test_cli_undefined_predicate_is_an_input_error(tmp_path, capsys):
    """Facts cannot declare an empty relation, so a query atom over a
    predicate with no facts is an input error, not a count of 0."""
    q, f = tmp_path / "q.cq", tmp_path / "d.facts"
    q.write_text("ans(x,y) :- R(x,y).\n")
    f.write_text("S(a).\n")
    for method in ("ghd", "brute"):
        assert run_cli(["count", "-q", str(q), "-d", str(f), "--method", method]) == 1
        assert capsys.readouterr().err == "error: predicate 'R' not defined in the structure\n"


def test_cli_unexpected_exception_is_one_internal_error_line(tmp_path, capsys, monkeypatch):
    def broken(text, filename):
        raise KeyError(7)

    monkeypatch.setattr(cli, "parse_facts", broken)
    q, f = tmp_path / "q.cq", tmp_path / "d.facts"
    q.write_text(QUERIES[0])
    f.write_text(FACTS[0])
    assert run_cli(["count", "-q", str(q), "-d", str(f)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: KeyError: 7 (at ") and err.count("\n") == 1


def test_cli_out_of_memory_is_one_budget_line(tmp_path, capsys, monkeypatch):
    """A ``MemoryError`` ends in the budget exit, 2, not the internal-error
    exit: the count is too large for the machine, not wrong."""

    def exhausted(inst, d):
        raise MemoryError

    monkeypatch.setattr(cli, "count_cq_via_ghd", exhausted)
    q, f = tmp_path / "q.cq", tmp_path / "d.facts"
    q.write_text(QUERIES[0])
    f.write_text(FACTS[0])
    assert run_cli(["count", "-q", str(q), "-d", str(f)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"budget exceeded: out of memory \(at test_cli_fuzz\.py:\d+\)\n", err)
