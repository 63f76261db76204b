"""Seeded differential of ``parse_facts`` against ``oracles.parse_facts_reference``.

Each input is a ``.facts`` text from one of four families (c9-style
binary facts, quoted constants with escapes, comments between tokens, and
mixed arities with numbers), mutated by insertions, deletions and
substitutions drawn from ``ALPHABET``. Both parsers read it, and their
outcomes must be equal: the same domain, schemas and rows, or the same
error type and message (which carries file, line and column).

Run the full version with ``PYTHONPATH=src python tests/parser_differential.py
--inputs 20000``. It prints the seed and text of every mismatch and exits 1
if there is any. Input ``i`` of a run with seed ``s`` has its own seed
``s + i``, and ``make_text(s + i)`` rebuilds it alone.
"""

from __future__ import annotations

import argparse
import sys

from cqstar.generators import SplitMix64
from cqstar.parser import parse_facts

from oracles import parse_facts_reference

DEFAULT_SEED = 20137

# Characters that start, end or break a token, a comment or a string, plus
# whitespace that only Unicode calls whitespace (\x1c), a non-ASCII letter
# and a non-ASCII digit.
ALPHABET = '#"\\\n\t\x1c é٣ ,().:-aZ_09'

_NAMES = ["a", "b1", "_c", "Dd", "x_2", "v0", "v15", "7", "42", "0"]
# pieces of a quoted constant's body, each escape whole
_QUOTED = ["a", " ", "é", '\\"', "\\\\", "\\n", "\\t", ",", ")", "#"]


def _constant(rng: SplitMix64, quoted: bool) -> str:
    if quoted and rng.chance(1, 2):
        return '"' + "".join(rng.choice(_QUOTED) for _ in range(rng.below(4))) + '"'
    return rng.choice(_NAMES)


def _space(rng: SplitMix64, comments: bool) -> str:
    pick = rng.below(6)
    if comments and pick == 0:
        return " # note (a, b).\n"
    return ["", "", " ", "\n", "\t", "  "][pick]


def _fact(rng: SplitMix64, pred: str, arity: int, quoted: bool, comments: bool) -> str:
    def sp() -> str:
        return _space(rng, comments)

    consts = [sp() + _constant(rng, quoted) + sp() for _ in range(arity)]
    return f"{sp()}{pred}{sp()}({','.join(consts)}){sp()}.{sp()}"


def _family_c9(rng: SplitMix64) -> str:
    lines = []
    for _ in range(2 + rng.below(10)):
        pred = rng.choice(["R0", "R1", "E", "S2"])
        lines.append(f"{pred}(v{rng.below(16)}, v{rng.below(16)}).")
    return "\n".join(lines) + "\n"


def _family_quoted(rng: SplitMix64) -> str:
    return "".join(_fact(rng, rng.choice(["P", "Q"]), 2, True, False) for _ in range(1 + rng.below(6)))


def _family_commented(rng: SplitMix64) -> str:
    parts = []
    for _ in range(1 + rng.below(6)):
        if rng.chance(1, 3):
            parts.append(rng.choice(["# a comment\n", "#(a). Q(b).\n", "#c\n", "   # x\t\n"]))
        parts.append(_fact(rng, rng.choice(["P", "Q", "c"]), 1 + rng.below(2), False, True))
    return "".join(parts)


def _family_arity(rng: SplitMix64) -> str:
    arity = {}
    parts = []
    for _ in range(1 + rng.below(8)):
        pred = rng.choice(["A", "B", "C_", "z9"])
        if pred not in arity or rng.chance(1, 8):
            arity[pred] = rng.below(5)
        parts.append(_fact(rng, pred, arity[pred], rng.chance(1, 4), False))
    return "".join(parts)


FAMILIES = [_family_c9, _family_quoted, _family_commented, _family_arity]


def mutate(rng: SplitMix64, text: str) -> str:
    for _ in range(rng.below(5)):
        pos = rng.below(len(text) + 1)
        op = rng.below(3)
        if op == 0 or not text:
            text = text[:pos] + rng.choice(ALPHABET) + text[pos:]
        elif op == 1:
            text = text[:pos] + text[pos + 1:]
        else:
            text = text[:pos] + rng.choice(ALPHABET) + text[pos + 1:]
    return text


def make_text(seed: int) -> str:
    rng = SplitMix64(seed)
    return mutate(rng, FAMILIES[seed % len(FAMILIES)](rng))


def outcome(parse, text: str) -> tuple:
    try:
        s = parse(text, "f")
    except Exception as exc:  # a crash is an outcome to compare too
        return ("error", type(exc).__name__, str(exc))
    return ("ok", s.domain, {name: (rel.schema, rel.rows) for name, rel in s.relations.items()})


def run(inputs: int, seed: int = DEFAULT_SEED) -> tuple[int, list[str]]:
    """The number of inputs parsed without error by both, and a line per mismatch."""
    parsed, bad = 0, []
    for index in range(inputs):
        text = make_text(seed + index)
        got, want = outcome(parse_facts, text), outcome(parse_facts_reference, text)
        if got != want:
            bad.append(f"mismatch: seed={seed + index} text={text!r}: parse_facts {got}, reference {want}")
        parsed += got[0] == "ok"
    return parsed, bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--inputs", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)
    parsed, bad = run(args.inputs, args.seed)
    for line in bad:
        print(line)
    print(f"{args.inputs} inputs, seed {args.seed}: {parsed} parsed, {len(bad)} mismatches")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
