"""Seeded differential of ``parse_facts`` against ``oracles.parse_facts_reference``.

Each input is a ``.facts`` text from one of five families (c9-style
binary facts, quoted constants with escapes, comments between tokens,
mixed arities with numbers, and long runs of plain statements), mutated
by insertions, deletions and substitutions drawn from ``ALPHABET``. Both
parsers read it, and their outcomes must be equal: the same domain,
schemas and rows, or the same error type and message (which carries file,
line and column).

Run the full version with ``PYTHONPATH=src python tests/parser_differential.py
--instances 20000 [--seed S]``. It prints the seed and text of every
mismatch and exits 1 if there is any; the summary counts the inputs that
``parse_facts`` accepted and rejected. Input ``i`` of a run from seed ``s``
has seed ``s + i``, and ``make_text(seed)`` rebuilds it alone.
"""

from __future__ import annotations

import sys

from cqstar.generators import SplitMix64
from cqstar.parser import parse_facts

import differential_runner
from differential_runner import outcome
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


def _family_long(rng: SplitMix64) -> str:
    """50–300 plain statements over 3–5 interleaved predicates, one of arity
    0, each drawn from four statements per predicate, so rows repeat;
    sometimes one statement in the second half clashes with its predicate's
    arity, holds quoted constants or holds a comment."""
    preds = ["L", "m1", "_n", "Oo", "p_2"][:3 + rng.below(3)]
    arity = {pred: 1 + rng.below(2) for pred in preds}
    arity[rng.choice(preds)] = 0
    pool = [_fact(rng, pred, arity[pred], False, False) for pred in preds for _ in range(4)]
    statements = [rng.choice(pool) for _ in range(50 + rng.below(251))]
    i = len(statements) // 2 + rng.below(len(statements) - len(statements) // 2)
    pred, pick = rng.choice([p for p in preds if arity[p]]), rng.below(4)
    if pick == 0:
        statements[i] = _fact(rng, pred, rng.choice([n for n in range(4) if n != arity[pred]]), False, False)
    elif pick < 3:
        statements[i] = _fact(rng, pred, arity[pred], pick == 1, pick == 2)
    return "".join(statements)


FAMILIES = [_family_c9, _family_quoted, _family_commented, _family_arity, _family_long]


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


def _structure(parse, text: str):
    """The domain, schemas and rows that ``parse`` reads, or its error."""
    s = outcome(lambda: parse(text, "f"))
    if isinstance(s, str):
        return s
    return s.domain, {name: (rel.schema, rel.rows) for name, rel in s.relations.items()}


def check(seed: int, tally: differential_runner.Tally) -> None:
    text = make_text(seed)
    tally.describe = lambda: f"text={text!r}"
    got = _structure(parse_facts, text)
    tally.compare("parse_facts", got, _structure(parse_facts_reference, text))
    tally.seen["rejected" if isinstance(got, str) else "parsed"] += 1


if __name__ == "__main__":
    sys.exit(differential_runner.main(check, __doc__, 20000, DEFAULT_SEED))
