"""Seeded differential of ``parse_facts`` against ``oracles.parse_facts_reference``.

Each input is a ``.facts`` text from one of seven families (c9-style
binary facts, quoted constants with escapes, comments between tokens,
mixed arities with numbers, long runs of plain statements, long runs
whose predicate and arity change on every statement, with unusual
whitespace and comments, and blocks grouped by predicate, sometimes with
a predicate that comes back), mutated by insertions, deletions and
substitutions drawn from ``ALPHABET``. Both parsers read it, and their
outcomes must be equal: the same domain, schemas and rows, or the same
error type and message (which carries file, line and column). What
``parse_facts`` accepts must also pass the checks it skips: built again
through the checked ``Relation`` and ``Structure``, it raises nothing and
compares equal. The first
mismatch of a run is shrunk: ``shrink`` drops lines, then single
characters, one at a time while the texts still parse differently, and
the runner prints the text it is left with.

Run the full version with ``PYTHONPATH=src python tests/parser_differential.py
--instances 20000 [--seed S]``. It prints the seed and text of every
mismatch and exits 1 if there is any; the summary counts the inputs that
``parse_facts`` accepted and rejected. Input ``i`` of a run from seed ``s``
has seed ``s + i``, and ``make_text(seed)`` rebuilds it alone.
"""

from __future__ import annotations

import sys

from cqstar.engine import Relation, Structure
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


# whitespace that str.split() and the regex \s both take, beyond ASCII's
_SPACES = [" ", "\n", "\t", "\x1c", "\x85", "\xa0", "\u2028", "\u3000"]
_MIXED_ARITY = {"A": 0, "b1": 1, "C_": 2, "d": 3}


def _family_mixed(rng: SplitMix64) -> str:
    """30–120 plain statements whose predicate, and so arity (0 to 3),
    differs from the previous statement's, with unusual whitespace between
    and inside them and comment lines between them; sometimes one statement
    in the first half holds a quoted constant, and sometimes one after it
    clashes with its predicate's arity."""

    def sp() -> str:
        return "".join(rng.choice(_SPACES) for _ in range(rng.below(3)))

    statements, pred = [], None
    for _ in range(30 + rng.below(91)):
        pred = rng.choice([p for p in _MIXED_ARITY if p != pred])
        consts = [sp() + _constant(rng, False) + sp() for _ in range(_MIXED_ARITY[pred])]
        statements.append(f"{pred}{sp()}({','.join(consts)}){sp()}.{sp()}")
        if rng.chance(1, 4):
            statements.append(rng.choice(["# (a, b).\n", "#\n", "\x85# x\n"]))
    n = len(statements)
    if rng.chance(1, 2):
        statements[rng.below(n // 2)] = '_q("x y", a).'
    if rng.chance(1, 3):
        pred = rng.choice(list(_MIXED_ARITY))
        statements[n // 2 + rng.below(n - n // 2)] = _fact(rng, pred, 3 - _MIXED_ARITY[pred], False, False)
    return "".join(statements)


_GROUPED_ARITY = {"A": 0, "B": 1, "C2": 2, "D": 3, "e_": 2}


def _family_grouped(rng: SplitMix64) -> str:
    """One block of 1–12 statements per predicate, in the predicates'
    order and a statement a line, as ``facts_to_text`` and the benchmark
    write them: 2–5 predicates of arity 0 to 3 whose constants come from
    one pool, so rows repeat and a constant is often new in a later block.
    Half the time a block of an earlier predicate comes back after another
    predicate's block, and the run must be interned in statement order, not
    bucket order; sometimes one or two statements anywhere clash with
    their predicate's arity."""
    names = list(_GROUPED_ARITY)
    preds = sorted(names.pop(rng.below(len(names))) for _ in range(2 + rng.below(4)))
    pool = [f"c{i}" for i in range(4 + rng.below(24))] + ["7", "42"]

    def statement(pred: str, arity: int) -> str:
        return f"{pred}({', '.join(rng.choice(pool) for _ in range(arity))})."

    def block(pred: str) -> list:
        return [statement(pred, _GROUPED_ARITY[pred]) for _ in range(1 + rng.below(12))]

    blocks = [block(pred) for pred in preds]
    if rng.chance(1, 2):
        i = rng.below(len(preds) - 1)
        blocks.insert(i + 2 + rng.below(len(preds) - 1 - i), block(preds[i]))
    statements = [line for b in blocks for line in b]
    if rng.chance(1, 3):
        for _ in range(1 + rng.below(2)):
            i = rng.below(len(statements))
            pred = statements[i].partition("(")[0]
            statements[i] = statement(pred, rng.choice([n for n in range(4) if n != _GROUPED_ARITY[pred]]))
    return "\n".join(statements) + "\n"


FAMILIES = [
    _family_c9, _family_quoted, _family_commented, _family_arity, _family_long, _family_mixed, _family_grouped,
]


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


def _contents(s):
    """The domain, schemas and rows of structure ``s``, or ``s`` if it is an error."""
    if isinstance(s, str):
        return s
    return s.domain, {name: (rel.schema, rel.rows) for name, rel in s.relations.items()}


def _checked(s: Structure) -> Structure:
    """``s`` built again through the checked ``Relation`` and ``Structure``,
    which ``parse_facts`` skips: its arity check and its own interning must
    already give every row its width and every value id its range."""
    return Structure(s.domain, {name: Relation(rel.name, rel.schema, rel.rows) for name, rel in s.relations.items()})


def compare(text: str, tally: differential_runner.Tally):
    """Compare what both parsers read from ``text``, and what ``parse_facts``
    read with its checked rebuild; return ``parse_facts``'s outcome."""
    s = outcome(lambda: parse_facts(text, "f"))
    got = _contents(s)
    tally.compare("parse_facts", got, _contents(outcome(lambda: parse_facts_reference(text, "f"))))
    if not isinstance(s, str):
        tally.compare("checked rebuild", outcome(lambda: _checked(s)), s)
    return got


def check(seed: int, tally: differential_runner.Tally) -> None:
    text = make_text(seed)
    tally.describe = lambda: f"text={text!r}"
    got = compare(text, tally)
    tally.seen["rejected" if isinstance(got, str) else "parsed"] += 1


def shrink(seed: int, key: str) -> str:
    """The text of ``seed`` with lines, then single characters, dropped one
    at a time while the comparison ``key`` still mismatches."""

    def mismatches(pieces: list) -> bool:
        tally = differential_runner.Tally(seed)
        compare("".join(pieces), tally)
        return key in tally.keys

    def drop(pieces: list) -> str:
        """``pieces`` joined, less each piece whose removal keeps the mismatch."""
        i = 0
        while i < len(pieces):
            if mismatches(pieces[:i] + pieces[i + 1:]):
                del pieces[i]
            else:
                i += 1
        return "".join(pieces)

    lines = drop(make_text(seed).splitlines(keepends=True))
    return f"text={drop(list(lines))!r}"


if __name__ == "__main__":
    sys.exit(differential_runner.main(check, __doc__, 20000, DEFAULT_SEED, shrink=shrink))
