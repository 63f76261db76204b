"""Seeded differential of the relational kernel against its row-by-row references.

Every instance is a pair of random relations over a few variables and a
tiny domain. The first relation's schema is zero to four variables, now
and then with one variable repeated; the second shares none, one or all of
them with it (all in a permuted order), or a random subset. Either may be
empty, and a zero-width relation holds either nothing or the empty row.
The checks compare ``engine`` with the references in ``oracles``:

- ``natural_join`` both ways round against ``natural_join_reference``;
- ``semijoin`` both ways round against ``semijoin_reference``;
- ``project`` against ``project_reference``, onto ``()``, a repeated
  variable, the schema in permuted order, a random sequence, the schema
  itself unrenamed and renamed, and a sequence naming an unknown variable,
  where both must raise the same ``UnknownVariable``;
- ``_absorb_child`` against ``absorb_child_reference``, on count tables
  taken from the two relations' rows, key order included.

Each operator runs with and without an explicit name, and each result is
compared by class, name, schema and rows.

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
from oracles import absorb_child_reference, natural_join_reference, project_reference, semijoin_reference

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


def _table(rng: SplitMix64, r: Relation) -> dict:
    return {row: 1 + rng.below(5) for row in sorted(r.rows)}


def _result(call):
    """A relation as its class, name, schema and rows, a count table as its
    items in order, an error as its type and message."""
    result = outcome(call)
    if isinstance(result, Relation):
        return (type(result).__name__, result.name, result.schema, result.rows)
    return result if isinstance(result, str) else list(result.items())


def check(seed: int, tally: differential_runner.Tally) -> None:
    r, s, mode = make_case(seed)
    rng = SplitMix64(~seed)
    tally.describe = lambda: f"R={r.schema} {sorted(r.rows)} S={s.schema} {sorted(s.rows)}"
    tally.seen[f"shared-{mode}"] += 1
    tally.seen["empty-relation"] += not r.rows or not s.rows
    tally.seen["zero-width"] += not r.schema or not s.schema
    tally.seen["repeated-schema"] += len(set(r.schema)) < len(r.schema)

    def compare(key: str, got, want) -> None:
        tally.compare(key, _result(got), _result(want))

    for a, b, label in ((r, s, "R,S"), (s, r, "S,R")):
        for name in (None, "N"):
            compare(f"natural_join({label}, {name})", lambda: natural_join(a, b, name),
                    lambda: natural_join_reference(a, b, name))
            compare(f"semijoin({label}, {name})", lambda: semijoin(a, b, name),
                    lambda: semijoin_reference(a, b, name))
        table, child = _table(rng, a), _table(rng, b)
        compare(f"_absorb_child({label})", lambda: _absorb_child(table, a.schema, child, b.schema),
                lambda: absorb_child_reference(table, a.schema, child, b.schema))
    for rel in (r, s):
        for tag, variables, name in _projections(rng, rel):
            tally.seen[f"project-{tag}"] += 1
            compare(f"project({rel.name}, {variables}, {name})", lambda: project(rel, variables, name),
                    lambda: project_reference(rel, variables, name))


if __name__ == "__main__":
    sys.exit(differential_runner.main(check, __doc__, 20000, DEFAULT_SEED))
