"""The runner that the seeded differentials in ``tests/`` share.

A differential defines ``check(seed, tally)``, which builds the case of one
seed, runs the code under test and its references on it, and records each
comparison in the ``Tally``; case ``i`` of a run from seed ``s`` has seed
``s + i``. ``main`` takes ``--instances`` and ``--seed``, prints every
mismatch line and one summary line, and returns 1 on any mismatch. A
differential may also pass ``shrink(seed, key)``, which returns a smaller
case on which the comparison ``key`` still mismatches; the first mismatch
of a run is shrunk, and the result printed after its line.
"""

from __future__ import annotations

import argparse
import hashlib
from collections import Counter

from cqstar.generators import SplitMix64

from oracles import tree_fault


def outcome(call):
    """``call()``, or ``"Type: message"`` if it raises: a crash is an outcome to compare too."""
    try:
        return call()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def shuffle(rng: SplitMix64, items: list) -> list:
    """``items``, shuffled in place by Fisher-Yates."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.below(i + 1)
        items[i], items[j] = items[j], items[i]
    return items


class Tally:
    """What a run from seed ``start`` has found so far: the checks made, the
    derived trees verified, a ``Counter`` of the shapes reached and a line
    per mismatch. ``seed`` is the case being checked; a mismatch line names
    it and ends with ``describe()``, the text that the case sets. ``keys``
    holds the key of each comparison that mismatched."""

    def __init__(self, start: int, shrink=None):
        self.start = self.seed = start
        self.checks = self.trees = 0
        self.seen: Counter = Counter()
        self.bad: list[str] = []
        self.keys: set[str] = set()
        self.describe = str
        self.digest = None
        self.shrink = shrink

    def fail(self, what: str) -> None:
        about = self.describe()
        self.bad.append(f"mismatch: seed={self.seed} {what}" + (f"; {about}" if about else ""))

    def compare(self, key: str, got, want) -> None:
        self.checks += 1
        if got != want:
            self.fail(f"{key} gave {got}, expected {want}")
            if self.shrink is not None and not self.keys:
                self.bad.append(f"shrunk: {outcome(lambda: self.shrink(self.seed, key))}")
            self.keys.add(key)

    def verify_trees(self, key: str, build) -> None:
        """Verify each (name, hypergraph, tree) of ``build()`` with
        ``oracles.tree_fault``; a tree that cannot be built is a fault too."""
        trees = outcome(build)
        if isinstance(trees, str):
            self.fail(f"invalid tree: {key}: {trees}")
            return
        for name, hg, tree in trees:
            self.trees += 1
            fault = outcome(lambda: tree_fault(hg, tree))
            if fault is not None:
                self.fail(f"invalid tree: {key} {name}: {fault}")

    def fold(self, value) -> str:
        """Fold ``repr(value)`` into the run's SHA-256 digest; the digest so far."""
        if self.digest is None:
            self.digest = hashlib.sha256()
        self.digest.update(repr(value).encode())
        return self.digest.hexdigest()


def run(check, instances: int, seed: int, shrink=None) -> Tally:
    """Check cases ``seed`` to ``seed + instances - 1``. A check that raises
    is a mismatch of its case, and the run goes on."""
    tally = Tally(seed, shrink)
    for case in range(seed, seed + instances):
        tally.seed, tally.describe = case, str
        error = outcome(lambda: check(case, tally))
        if error is not None:
            tally.fail(f"check raised {error}")
    return tally


def main(check, doc: str, instances: int, seed: int, argv=None, shrink=None) -> int:
    parser = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    parser.add_argument("--instances", type=int, default=instances)
    parser.add_argument("--seed", type=int, default=seed)
    args = parser.parse_args(argv)
    tally = run(check, args.instances, args.seed, shrink)
    for line in tally.bad:
        print(line)
    figures = [f"{tally.checks} checks", f"{tally.trees} derived trees verified"]
    figures += [f"{n} {shape}" for shape, n in sorted(tally.seen.items())]
    figures.append(f"{len(tally.bad)} mismatches")
    if tally.digest is not None:
        figures.append(f"digest {tally.digest.hexdigest()}")
    print(f"{args.instances} instances, seed {args.seed}: {', '.join(figures)}")
    return 1 if tally.bad else 0
