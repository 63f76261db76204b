"""Help and usage errors of the CLI's one parser, which lists every
subcommand: each ``--help`` exits 0 with its usage on stdout, and each usage
error exits 1 with one ``error:`` line on stderr. The removed spellings are
usage errors: ``oracle count`` and ``oracle starsize``, which were ``count``
and ``starsize`` with ``--method brute``, help included, and ``count --method
fractional``, which was ``--method ghd``. argparse's wording differs between
Python versions, so no full text is pinned."""

import pytest

from cqstar import cli

HELP = (
    [[c, "--help"] for c in ("count", "starsize", "decompose", "verify", "gen")]
    + [["gen", g, "--help"] for g in ("clique-star", "is-hard", "gstar", "random")]
    + [["--help"], ["-h"]]
)
ERRORS = [[], ["nosuch"], ["count", "--bogus"], ["gen"], ["gen", "nosuch"], ["oracle"]]
ERRORS += [["oracle", "--help"]] + [["oracle", o, "--help"] for o in ("count", "starsize")]
ERRORS += [
    ["oracle", "count", "-q", "q.cq", "-d", "d.facts"],
    ["oracle", "starsize", "-q", "q.cq"],
    ["count", "-q", "q.cq", "-d", "d.facts", "--method", "fractional"],
]


@pytest.mark.parametrize("argv", HELP + ERRORS, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_cli_surface_matches_the_full_parser(argv, capsys):
    try:
        code = cli.run_cli(argv)
    except SystemExit as exc:  # argparse exits after printing help
        code = exc.code
    out, err = capsys.readouterr()
    if argv in HELP:
        assert (code, err) == (0, "")
        assert out.startswith(" ".join(["usage: cqstar", *argv[:-1]]) + " ")
    else:
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
