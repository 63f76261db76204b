"""``run_cli`` builds only the parser of the subcommand that ``argv[0]``
names. Its help, usage errors and exit codes must equal the full parser's.
Both run in the same interpreter, since argparse's help wording differs
between Python versions, so there are no golden strings."""

import pytest

from cqstar import cli

GENERATORS = ["clique-star", "is-hard", "gstar", "random"]
ORACLES = ["count", "starsize"]
ARGVS = (
    [[command, "--help"] for command in cli._SUBCOMMANDS]
    + [["gen", g, "--help"] for g in GENERATORS]
    + [["oracle", o, "--help"] for o in ORACLES]
    + [[], ["--help"], ["-h"], ["nosuch"], ["count", "--bogus"], ["gen"], ["gen", "nosuch"], ["oracle"]]
)


def _outcome(argv, capsys):
    try:
        code = cli.run_cli(argv)
    except SystemExit as exc:  # argparse exits after printing help
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_cli_surface_matches_the_full_parser(argv, capsys, monkeypatch):
    got = _outcome(argv, capsys)
    monkeypatch.setattr(cli, "_parser_for", lambda argv: cli.build_parser())
    assert got == _outcome(argv, capsys)


def test_a_subcommand_builds_only_its_own_parser():
    def choices(parser):
        (sub,) = [a for a in parser._actions if a.dest == "command"]
        return list(sub.choices)

    assert choices(cli._parser_for(["count", "-q", "x"])) == ["count"]
    assert choices(cli._parser_for(["--help"])) == list(cli._SUBCOMMANDS)
    assert choices(cli._parser_for(["nosuch"])) == list(cli._SUBCOMMANDS)
