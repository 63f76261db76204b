"""Seeded differential of the relational kernel against its row-by-row references.

Every instance is a pair of random relations over a few variables and a
tiny domain. The first relation's schema is zero to four variables, now
and then with one variable repeated; the second shares none, one or all of
them with it (all in a permuted order), or a random subset. Either may be
empty, and a zero-width relation holds either nothing or the empty row.
The checks compare ``engine`` with the references in ``oracles``:

- ``natural_join`` both ways round against ``natural_join_reference``;
- ``natural_join`` with ``onto`` both ways round against
  ``natural_join_onto_reference``, onto no variable, a random subset of
  the variables, every variable, and, when a schema repeats a variable, a
  subset naming that variable, whose columns must all be kept; the joins,
  with or without ``onto``, in which the second relation keeps no column
  beyond the shared ones take the semijoin path, and are tallied as
  ``adds-nothing``;
- ``semijoin`` both ways round against ``semijoin_reference``;
- ``project`` against ``project_reference``, onto ``()``, a repeated
  variable, the schema in permuted order, a random sequence, the schema
  itself unrenamed and renamed, and a sequence naming an unknown variable,
  where both must raise the same ``UnknownVariable``;
- ``_absorb_child`` against ``absorb_child_reference``, on count tables
  taken from the two relations' rows, key order included.

Each operator runs with and without an explicit name, and each result is
compared by class, name, schema and rows. The choices that name a check
are drawn before the count tables, whose draws depend on the rows, so a
mismatch can be shrunk: ``shrink`` drops rows of R, then of S, one at a
time while the same check still mismatches, and the runner prints the pair
it is left with after the first mismatch line.

Run the full version with ``PYTHONPATH=src python tests/kernel_differential.py
--instances 20000 [--seed S]``. It prints the seed and relations of every
mismatch and exits 1 if there is any; the summary counts the shapes
reached. Instance ``i`` of a run from seed ``s`` has seed ``s + i``, and
``make_case(seed)`` rebuilds it alone.
"""

from __future__ import annotations

import sys

from cqstar.engine import Relation, _absorb_child, natural_join, project, semijoin
from cqstar.generators import SplitMix64

import differential_runner
from differential_runner import outcome, shuffle
from oracles import (
    absorb_child_reference,
    natural_join_onto_reference,
    natural_join_reference,
    project_reference,
    semijoin_reference,
)

DEFAULT_SEED = 1981
VARIABLES = ("a", "b", "c", "d", "e", "f")


def _relation(rng: SplitMix64, name: str, schema: tuple) -> Relation:
    domain = 1 + rng.below(4)
    size = 0 if rng.chance(1, 8) else rng.below(24)
    rows = {tuple(rng.below(domain) for _ in schema) for _ in range(size)}
    return Relation(name, schema, frozenset(rows))


def make_case(seed: int) -> tuple[Relation, Relation, str]:
    """Two relations and how their schemas overlap: ``none``, ``one``, ``all`` or ``some``."""
    rng = SplitMix64(seed)
    pool = shuffle(rng, list(VARIABLES))
    width = rng.below(5)
    schema1 = pool[:width]
    if schema1 and rng.chance(1, 8):
        schema1.insert(rng.below(width + 1), rng.choice(schema1))
    distinct = list(dict.fromkeys(schema1))
    others = pool[width:]
    mode = rng.choice(["none", "one", "all", "some"] if distinct else ["none"])
    if mode == "none":
        schema2 = others[: rng.below(4)]
    elif mode == "one":
        schema2 = [rng.choice(distinct)] + others[: rng.below(3)]
    elif mode == "all":
        schema2 = list(distinct)
    else:
        schema2 = [v for v in distinct if rng.chance(1, 2)] + others[: rng.below(3)]
    shuffle(rng, schema2)
    return _relation(rng, "R", tuple(schema1)), _relation(rng, "S", tuple(schema2)), mode


def _projections(rng: SplitMix64, r: Relation) -> list[tuple[str, tuple, object]]:
    """(tag, variables, name) for each projection of ``r`` that is checked."""
    schema = list(r.schema)
    out = [("empty", (), None), ("identity", r.schema, None), ("renamed", r.schema, "P"), ("same-name", r.schema, r.name)]
    if schema:
        v = rng.choice(schema)
        out.append(("repeated", (v, v), None))
        out.append(("permuted", tuple(shuffle(rng, list(schema))), "P"))
        out.append(("random", tuple(rng.choice(schema) for _ in range(rng.below(4))), None))
    out.append(("unknown", tuple(schema[:1]) + ("zz",), None))
    return out


def _ontos(rng: SplitMix64, r: Relation, s: Relation) -> list[tuple[str, tuple]]:
    """(tag, onto) for each ``onto`` that the joins of ``r`` and ``s`` are checked with."""
    variables = list(dict.fromkeys(r.schema + s.schema))
    out = [("empty", ()), ("random", tuple(v for v in variables if rng.chance(1, 2))), ("all", tuple(variables))]
    repeated = [v for v in variables if r.schema.count(v) > 1 or s.schema.count(v) > 1]
    if repeated:
        v = rng.choice(repeated)
        out.append(("repeated", (v,) + tuple(w for w in variables if w != v and rng.chance(1, 2))))
    return out


def _table(rng: SplitMix64, r: Relation) -> dict:
    return {row: 1 + rng.below(5) for row in sorted(r.rows)}


def _result(call):
    """A relation as its class, name, schema and rows, a count table as its
    items in order, an error as its type and message."""
    result = outcome(call)
    if isinstance(result, Relation):
        return (type(result).__name__, result.name, result.schema, result.rows)
    return result if isinstance(result, str) else list(result.items())


def _describe(r: Relation, s: Relation) -> str:
    return f"R={r.schema} {sorted(r.rows)} S={s.schema} {sorted(s.rows)}"


def check(seed: int, tally: differential_runner.Tally) -> None:
    r, s, mode = make_case(seed)
    tally.seen[f"shared-{mode}"] += 1
    tally.seen["empty-relation"] += not r.rows or not s.rows
    tally.seen["zero-width"] += not r.schema or not s.schema
    tally.seen["repeated-schema"] += len(set(r.schema)) < len(r.schema)
    check_pair(seed, r, s, tally)


def check_pair(seed: int, r: Relation, s: Relation, tally: differential_runner.Tally) -> None:
    """Every check of the case of ``seed``, on the relations ``r`` and ``s``."""
    rng = SplitMix64(~seed)
    projections = [(rel, _projections(rng, rel)) for rel in (r, s)]
    ontos = _ontos(rng, r, s)
    tally.describe = lambda: _describe(r, s)

    def compare(key: str, got, want) -> None:
        tally.compare(key, _result(got), _result(want))

    for a, b, label in ((r, s, "R,S"), (s, r, "S,R")):
        adds = set(b.schema) - set(a.schema)
        tally.seen["adds-nothing"] += not adds
        for name in (None, "N"):
            compare(f"natural_join({label}, {name})", lambda: natural_join(a, b, name),
                    lambda: natural_join_reference(a, b, name))
            compare(f"semijoin({label}, {name})", lambda: semijoin(a, b, name),
                    lambda: semijoin_reference(a, b, name))
        for tag, onto in ontos:
            tally.seen[f"onto-{tag}"] += 1
            tally.seen["adds-nothing"] += not adds.intersection(onto)
            compare(f"natural_join({label}, onto={onto})", lambda: natural_join(a, b, onto=onto),
                    lambda: natural_join_onto_reference(a, b, onto))
        table, child = _table(rng, a), _table(rng, b)
        compare(f"_absorb_child({label})", lambda: _absorb_child(table, a.schema, child, b.schema),
                lambda: absorb_child_reference(table, a.schema, child, b.schema))
    for rel, checked in projections:
        for tag, variables, name in checked:
            tally.seen[f"project-{tag}"] += 1
            compare(f"project({rel.name}, {variables}, {name})", lambda: project(rel, variables, name),
                    lambda: project_reference(rel, variables, name))


def shrink(seed: int, key: str) -> str:
    """The case of ``seed`` with rows of R, then of S, dropped one at a time
    while the check ``key`` still mismatches."""
    pair = list(make_case(seed)[:2])

    def mismatches(candidate: list) -> bool:
        tally = differential_runner.Tally(seed)
        outcome(lambda: check_pair(seed, *candidate, tally))
        return key in tally.keys

    for i in (0, 1):
        for row in sorted(pair[i].rows):
            smaller = list(pair)
            smaller[i] = Relation(pair[i].name, pair[i].schema, pair[i].rows - {row})
            if mismatches(smaller):
                pair = smaller
    return _describe(*pair)


if __name__ == "__main__":
    sys.exit(differential_runner.main(check, __doc__, 20000, DEFAULT_SEED, shrink=shrink))
