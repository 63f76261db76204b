"""Fast seeded slices of the six differentials, and the runner they share.
The full runs are ``PYTHONPATH=src python tests/<name>_differential.py``
with the sizes in each script's docstring."""

import ast
from dataclasses import replace
from itertools import count

import pytest
from cqstar.decomposition import (
    CONNECTEDNESS,
    EDGE_UNCOVERED,
    GUARD_GAP,
    HINGE_EDGE_MISSING,
    HINGE_INTERSECTION,
    HINGE_UNION,
    NEGATIVE_WEIGHT,
    STRAY_WEIGHTS,
    WEIGHT_DEFICIT,
    WidthReport,
    verify,
)
from cqstar.engine import Relation, count_brute, count_cq_via_ghd, project
from cqstar.hypergraph import Hypergraph, SHypergraph, s_components
from cqstar.parser import parse_facts, parse_query
from cqstar.starsize import ISMethod, s_star_size

import differential
import differential_runner
import hypergraph_differential
import kernel_differential
import parser_differential
import starsize_differential
import verify_differential

KERNEL_SHAPES = ["empty-relation", "zero-width", "repeated-schema"]
KERNEL_SHAPES += [f"shared-{mode}" for mode in ("none", "one", "all", "some")]
KERNEL_SHAPES += [
    f"project-{tag}" for tag in ("empty", "identity", "renamed", "same-name", "repeated", "permuted", "unknown")
]
KERNEL_SHAPES += [f"onto-{tag}" for tag in ("empty", "random", "all", "repeated")] + ["adds-nothing"]
VERIFY_SHAPES = [
    CONNECTEDNESS, EDGE_UNCOVERED, GUARD_GAP, HINGE_INTERSECTION, HINGE_UNION, HINGE_EDGE_MISSING,
    NEGATIVE_WEIGHT, WEIGHT_DEFICIT, STRAY_WEIGHTS, "IdMismatch", "valid",
]

# script, instances, least checks and least derived trees per instance, least count of each shape
SLICES = {
    # the star route meets stars of every size the star family builds
    "differential": (differential, 350, 5, 14, {"stars of 3": 25, "stars of 4": 25, "stars of 5": 15}),
    # both outcomes are well represented
    "parser": (parser_differential, 6000, 1, 0, {"parsed": 1500, "rejected": 1500}),
    # ACYCLIC meets both outcomes
    "starsize": (starsize_differential, 400, 13, 6, {"acyclic": 250, "cyclic": 40}),
    # empty and zero-width relations, repeated schema variables, every kind of
    # schema overlap, every kind of projection, every kind of join onto and
    # the joins that take the semijoin path
    "kernel": (kernel_differential, 1200, 25, 0, dict.fromkeys(KERNEL_SHAPES, 50)),
    # up to the first pinned digest
    "hypergraph": (hypergraph_differential, min(hypergraph_differential.PINNED), 14, 0, {}),
    # every violation tag, unknown ids and valid trees
    "verify": (verify_differential, 150, 40, 0, dict.fromkeys(VERIFY_SHAPES, 100)),
}


@pytest.mark.parametrize("name", SLICES)
def test_differential_slice_has_no_mismatch(name):
    script, instances, checks, trees, shapes = SLICES[name]
    tally = differential_runner.run(script.check, instances, script.DEFAULT_SEED)
    assert tally.bad == []
    assert tally.checks >= checks * instances
    assert tally.trees >= trees * instances
    assert all(tally.seen[shape] >= n for shape, n in shapes.items()), tally.seen


def _planted(seed, tally):
    """Squares against a reference that is wrong on seed 12, code under test
    that raises on seed 13, and a case that cannot be built on seed 14."""
    if seed == 14:
        raise RuntimeError("no case")
    tally.describe = lambda: f"x={seed}"
    got = differential_runner.outcome(lambda: {}[seed] if seed == 13 else seed * seed)
    tally.compare("square", got, seed * seed + (seed == 12))


def test_runner_names_the_seed_of_each_mismatch_and_goes_on(capsys):
    assert differential_runner.main(_planted, "Planted faults.", 1500, 0, ["--instances", "10", "--seed", "10"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "mismatch: seed=12 square gave 144, expected 145; x=12",
        "mismatch: seed=13 square gave KeyError: 13, expected 169; x=13",
        "mismatch: seed=14 check raised RuntimeError: no case",
        "10 instances, seed 10: 9 checks, 0 derived trees verified, 3 mismatches",
    ]
    assert differential_runner.main(_planted, "Planted faults.", 2, 10, []) == 0
    assert capsys.readouterr().out == "2 instances, seed 10: 2 checks, 0 derived trees verified, 0 mismatches\n"


def _drops_least_row(r, variables, name=None):
    """``project`` with a planted fault: the least row of the result is lost,
    which one row of R is enough to show."""
    rel = project(r, variables, name)
    return Relation(rel.name, rel.schema, frozenset(sorted(rel.rows)[1:]))


def test_runner_prints_the_shrunk_case_after_the_first_mismatch(monkeypatch, capsys):
    seed = next(s for s in count(kernel_differential.DEFAULT_SEED) if len(kernel_differential.make_case(s)[0].rows) > 2)
    r, s, _ = kernel_differential.make_case(seed)
    monkeypatch.setattr(kernel_differential, "project", _drops_least_row)
    argv = ["--instances", "2", "--seed", str(seed)]
    assert differential_runner.main(kernel_differential.check, "Planted.", 1, 0, argv, kernel_differential.shrink) == 1
    lines = capsys.readouterr().out.splitlines()
    # R's first projection is the first to mismatch; the greedy pass keeps
    # only R's last row, and S matters to no projection of R
    assert lines[0].startswith(f"mismatch: seed={seed} project(R, (), None) gave ")
    assert lines[1] == f"shrunk: R={r.schema} {[max(r.rows)]} S={s.schema} []"
    assert sum(line.startswith("shrunk: ") for line in lines) == 1
    assert lines[-1].endswith(" mismatches") and not lines[-1].endswith(" 0 mismatches")


def _fails_on_file_separator(text, filename):
    """``parse_facts`` with a planted fault: any ``\\x1c`` in the text, which
    is whitespace to the reference, makes it raise."""
    if "\x1c" in text:
        raise RuntimeError("planted")
    return parse_facts(text, filename)


def test_parser_shrink_keeps_only_the_character_that_mismatches(monkeypatch, capsys):
    seed = next(s for s in count(parser_differential.DEFAULT_SEED) if "\x1c" in parser_differential.make_text(s))
    monkeypatch.setattr(parser_differential, "parse_facts", _fails_on_file_separator)
    argv = ["--instances", "1", "--seed", str(seed)]
    assert differential_runner.main(parser_differential.check, "Planted.", 1, 0, argv, parser_differential.shrink) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"mismatch: seed={seed} parse_facts gave RuntimeError: planted, expected ")
    # every line, then every character but the last file separator, is dropped
    assert lines[1] == "shrunk: text='\\x1c'"
    assert len(lines) == 3


def _misses_connectedness(h, d):
    """``verify`` with a planted fault: it reports no CONNECTEDNESS violation."""
    report = verify(h, d)
    kept = tuple(v for v in report.violations if v.tag != CONNECTEDNESS)
    return WidthReport(report.kind, report.width if kept else d.raw_width(), kept)


def test_verify_shrink_keeps_one_vertex_held_apart(monkeypatch, capsys):
    monkeypatch.setattr(verify_differential, "verify", _misses_connectedness)
    argv = ["--instances", "20", "--seed", str(verify_differential.DEFAULT_SEED)]
    assert differential_runner.main(verify_differential.check, "Planted.", 1, 0, argv, verify_differential.shrink) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("mismatch: seed=")
    assert lines[1].startswith("shrunk: kind=")
    # a path of three nodes whose two ends hold the same vertex, and nothing else
    nodes = ast.literal_eval(lines[1].split(" nodes=", 1)[1])
    bags = [bag for _, _, _, bag, _ in nodes]
    assert len(nodes) == 3
    assert sorted(map(len, bags)) == [0, 1, 1] and len({tuple(b) for b in bags if b}) == 1


def _drops_a_star_vertex(sh, strategy, decomposition=None):
    """``s_star_size`` with a planted fault: GHD_DP loses the last vertex of
    each star of two or more."""
    best, witnesses = s_star_size(sh, strategy, decomposition)
    if strategy is ISMethod.GHD_DP:
        witnesses = [replace(w, star=w.star - {max(w.star)}) if len(w.star) > 1 else w for w in witnesses]
    return best, witnesses


def test_starsize_shrink_keeps_two_edges_through_a_quantified_vertex(monkeypatch, capsys):
    monkeypatch.setattr(starsize_differential, "s_star_size", _drops_a_star_vertex)
    argv = ["--instances", "20", "--seed", str(starsize_differential.DEFAULT_SEED)]
    main = differential_runner.main
    assert main(starsize_differential.check, "Planted.", 1, 0, argv, starsize_differential.shrink) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("mismatch: seed=") and " hinge/s_star_size ghd_dp gave " in lines[0]
    assert lines[1].startswith("shrunk: V=")
    s_text, edges_text = lines[1].split(" S=", 1)[1].split(" edges=", 1)
    s = set(ast.literal_eval(s_text))
    edges = [frozenset(fs) for _, fs in ast.literal_eval(edges_text)]
    # the least case with a star of two: two edges that meet outside S,
    # each with a vertex of S that the other lacks
    assert len(edges) == 2
    a, b = edges
    assert (a & b) - s and (a - b) & s and (b - a) & s


def _keeps_first_component(sh):
    """``s_components`` with a planted fault: every component after the
    first is lost."""
    return s_components(sh)[:1]


def test_hypergraph_shrink_keeps_two_components(monkeypatch, capsys):
    seed = next(
        s for s in count(hypergraph_differential.DEFAULT_SEED)
        if len(s_components(hypergraph_differential.make_case(s))) > 1
        and len(hypergraph_differential.make_case(s).hypergraph.edges) > 3
    )
    monkeypatch.setattr(hypergraph_differential, "s_components", _keeps_first_component)
    argv = ["--instances", "1", "--seed", str(seed)]
    main = differential_runner.main
    assert main(hypergraph_differential.check, "Planted.", 1, 0, argv, hypergraph_differential.shrink) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"mismatch: seed={seed} s_components gave ")
    assert lines[1].startswith("shrunk: vertices=")
    assert sum(line.startswith("shrunk: ") for line in lines) == 1
    vertices_text, rest = lines[1].split("vertices=", 1)[1].split(" S=", 1)
    s_text, edges_text = rest.split(" edges=", 1)
    edges = ast.literal_eval(edges_text)
    shrunk = SHypergraph(Hypergraph(ast.literal_eval(vertices_text), edges), frozenset(ast.literal_eval(s_text)))
    # still two components or more, each held by at most one edge, and
    # no edge over free vertices only
    assert len(s_components(shrunk)) > 1
    assert len(edges) <= 2 and all(set(fs) - shrunk.s for _, fs in edges)
    assert len(edges) < len(hypergraph_differential.make_case(seed).hypergraph.edges)


def _undercounts(inst, d):
    """``count_cq_via_ghd`` with a planted fault: a count of two or more
    loses one answer."""
    result = count_cq_via_ghd(inst, d)
    return replace(result, count=result.count - 1) if result.count >= 2 else result


def _shrunk_query_and_rows(line: str) -> tuple:
    query_text, rows_text = line.split(" query ", 1)[1].split(", rows ", 1)
    return parse_query(query_text), ast.literal_eval(rows_text)


def test_counting_shrink_keeps_one_atom_with_two_rows(monkeypatch, capsys):
    monkeypatch.setattr(differential, "count_cq_via_ghd", _undercounts)
    argv = ["--instances", "20", "--seed", str(differential.DEFAULT_SEED)]
    assert differential_runner.main(differential.check, "Planted.", 1, 0, argv, differential.shrink) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("mismatch: seed=") and " ghd/auto gave " in lines[0]
    assert lines[1].startswith("shrunk: family ")
    assert sum(line.startswith("shrunk: ") for line in lines) == 1
    # the least case with two answers: one atom over a relation of two rows
    query, rows = _shrunk_query_and_rows(lines[1])
    assert len(query.atoms) == 1 and len(query.free_vars) >= 1
    assert {name: len(kept) for name, kept in rows.items()} == {query.atoms[0].predicate: 2}


def test_counting_shrink_keeps_the_atoms_of_a_hand_built_decomposition(monkeypatch):
    """A hand-built decomposition names atoms by ordinal, so only rows go."""
    monkeypatch.setattr(differential, "count_cq_via_ghd", _undercounts)
    seed = next(
        s for s in count(differential.DEFAULT_SEED)
        if differential.make_case(s).extra and count_brute(differential.make_case(s).inst).count >= 2
    )
    inst = differential.make_case(seed).inst
    query, rows = _shrunk_query_and_rows(differential.shrink(seed, "ghd/auto"))
    assert query == inst.query
    assert sum(map(len, rows.values())) < sum(map(len, inst.structure.relations.values()))
