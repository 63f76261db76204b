"""Seeded differential of ``verify`` against ``oracles.verify_reference``.

Every instance is a hypergraph and the decompositions the constructors
build for it: ``gyo_join_tree`` when it is acyclic, ``hinge_decompose``,
the narrowest GHD up to width 3 that ``ghd_search`` finds,
``tree_decompose`` and its ``guarded`` GHD, and ``integralize`` of each
guard-based one. Half the hypergraphs are the small random ones of
``hypergraph_differential``, with int, str or mixed edge ids, empty edges,
repeated edge sets and isolated vertices; the other half are random
acyclic hypergraphs of 10 to 60 edges, whose trees are large enough for
the bulk passes to matter.

Each decomposition is checked as built and in mutants of it: a bag vertex
dropped or added, a node moved under another parent, a guard edge dropped
or swapped for another, an unknown vertex or edge id, a weights map on a
node of another kind, a negative or short weight, and the same nodes read
as another kind. ``verify`` and the reference must give equal outcomes:
the whole report (kind, width and every violation, in order), or the same
exception type and text. The summary counts the reports that hold each
violation tag, the ``IdMismatch`` outcomes and the valid reports.

The first mismatch of a run is shrunk: ``shrink`` drops nodes, then bag
vertices, one at a time while the outcomes still differ, and the runner
prints the decomposition it is left with.

Run the full version with ``PYTHONPATH=src python tests/verify_differential.py
--instances 3000 [--seed S]``. It prints the seed and hypergraph of every
mismatch and exits 1 if there is any. Instance ``i`` of a run from seed
``s`` has seed ``s + i``, and ``make_case(seed)`` rebuilds it alone.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from fractions import Fraction

from cqstar.decomposition import (
    DecompKind,
    Decomposition,
    NotAcyclic,
    WidthReport,
    ghd_search,
    gyo_join_tree,
    guarded,
    hinge_decompose,
    tree_decompose,
    verify,
)
from cqstar.generators import SplitMix64, gen_random_acyclic
from cqstar.hypergraph import Hypergraph

import differential_runner
import hypergraph_differential
from differential_runner import outcome
from oracles import integralize, verify_reference

DEFAULT_SEED = 7919


def built(h: Hypergraph, large: bool) -> list[tuple[str, Decomposition]]:
    """The constructors' decompositions of ``h``, each with its label."""
    out = []
    jt = gyo_join_tree(h)
    if not isinstance(jt, NotAcyclic):
        out.append(("gyo", jt))
    out.append(("hinge", hinge_decompose(h)))
    if not large:
        for k in (1, 2, 3):
            ghd = ghd_search(h, k)
            if ghd is not None:
                out.append(("ghd", ghd))
                break
    if h.vertices:
        tree = tree_decompose(h)
        out += [("tree", tree), ("guarded-tree", guarded(h, tree))]
    out += [(f"integral-{label}", integralize(d)) for label, d in out if d.kind is not DecompKind.TREE]
    return out


def _node(rng: SplitMix64, d: Decomposition, want) -> int:
    """The position of a random node for which ``want(node)`` holds, or -1."""
    fits = [i for i, n in enumerate(d.nodes) if want(n)]
    return rng.choice(fits) if fits else -1


def _with(d: Decomposition, i: int, **changes) -> Decomposition:
    nodes = list(d.nodes)
    nodes[i] = replace(nodes[i], **changes)
    return Decomposition(d.kind, tuple(nodes))


def _subtree(d: Decomposition, node_id: int) -> set[int]:
    below, todo = set(), [node_id]
    while todo:
        nid = todo.pop()
        below.add(nid)
        todo += [c.node_id for c in d.children_map()[nid]]
    return below


def mutants(rng: SplitMix64, h: Hypergraph, d: Decomposition) -> list[tuple[str, Decomposition]]:
    """Mutants of ``d``, each with its label; a mutation that has nothing to
    act on is left out."""
    out = []
    edge_ids = list(h.edge_ids())

    i = _node(rng, d, lambda n: n.bag)
    if i >= 0:
        bag = d.nodes[i].bag
        out.append(("drop-vertex", _with(d, i, bag=bag - {rng.choice(sorted(bag))})))
    i = _node(rng, d, lambda n: len(n.bag) < len(h.vertices))
    if i >= 0:
        bag = d.nodes[i].bag
        extra = rng.choice([v for v in h.vertices if v not in bag])
        out.append(("add-vertex", _with(d, i, bag=bag | {extra})))
    i = _node(rng, d, lambda n: n.parent is not None)
    if i >= 0:
        node = d.nodes[i]
        below = _subtree(d, node.node_id)
        targets = [n.node_id for n in d.nodes if n.node_id not in below and n.node_id != node.parent]
        if targets:
            out.append(("reparent", _with(d, i, parent=rng.choice(targets))))
    i = _node(rng, d, lambda n: n.guard)
    if i >= 0:
        guard = d.nodes[i].guard
        gone = rng.choice(sorted(guard, key=repr))
        out.append(("drop-guard", _with(d, i, guard=guard - {gone})))
        others = [e for e in edge_ids if e not in guard]
        if others:
            out.append(("swap-guard", _with(d, i, guard=(guard - {gone}) | {rng.choice(others)})))
    i = rng.below(len(d.nodes))
    out.append(("unknown-vertex", _with(d, i, bag=d.nodes[i].bag | {"ghost"})))
    ghost = rng.choice([99, "ghost"])
    i = rng.below(len(d.nodes))
    if d.kind is DecompKind.FRACTIONAL and rng.chance(1, 2):
        out.append(("unknown-edge", _with(d, i, weights={**d.nodes[i].weights, ghost: Fraction(1)})))
    else:
        out.append(("unknown-edge", _with(d, i, guard=d.nodes[i].guard | {ghost})))
    if d.kind is DecompKind.FRACTIONAL:
        i = _node(rng, d, lambda n: n.weights)
        if i >= 0:
            weights = dict(d.nodes[i].weights)
            eid = rng.choice(sorted(weights, key=repr))
            out.append(("negative-weight", _with(d, i, weights={**weights, eid: Fraction(-1, 2)})))
            short = {**weights, eid: Fraction(1, 2)} if rng.chance(1, 2) else {e: w for e, w in weights.items() if e != eid}
            out.append(("short-weight", _with(d, i, weights=short)))
    elif edge_ids:
        i = rng.below(len(d.nodes))
        out.append(("stray-weights", _with(d, i, weights={rng.choice(edge_ids): Fraction(1)})))
    out.append(("relabel", Decomposition(rng.choice([k for k in DecompKind if k is not d.kind]), d.nodes)))
    return out


def make_case(seed: int) -> tuple[Hypergraph, list[tuple[str, Decomposition]]]:
    """The hypergraph of ``seed`` and every decomposition to check, by key."""
    rng = SplitMix64(seed)
    large = rng.chance(1, 2)
    if large:
        h = gen_random_acyclic(edges=10 + rng.below(51), max_arity=3, seed=rng.next_u64())
    else:
        h = hypergraph_differential.make_case(rng.next_u64()).hypergraph
    cases = []
    for label, d in built(h, large):
        cases.append((label, d))
        cases += [(f"{label}/{what}", m) for what, m in mutants(rng, h, d)]
    return h, cases


def _shape(result) -> list[str]:
    if isinstance(result, WidthReport):
        return sorted({v.tag for v in result.violations}) or ["valid"]
    return [result.split(":")[0]]


def compare(h: Hypergraph, key: str, d: Decomposition, tally: differential_runner.Tally) -> None:
    want = outcome(lambda: verify_reference(h, d))
    tally.seen.update(_shape(want))
    tally.compare(key, outcome(lambda: verify(h, d)), want)


def check(seed: int, tally: differential_runner.Tally) -> None:
    h, cases = make_case(seed)
    tally.describe = lambda: f"vertices={list(h.vertices)} edges={[(e, sorted(fs)) for e, fs in h.edges]}"
    for key, d in cases:
        compare(h, key, d, tally)


def _dropped(d: Decomposition, i: int) -> Decomposition:
    """``d`` without node ``i``: its children move to its parent, or, when it
    is the root, under its first child, which becomes the root."""
    gone = d.nodes[i]
    kids = [n.node_id for n in d.children_map()[gone.node_id]]
    heir = gone.parent if gone.parent is not None else (kids[0] if kids else None)
    nodes = []
    for n in d.nodes[:i] + d.nodes[i + 1:]:
        if n.node_id in kids:
            n = replace(n, parent=None if n.node_id == heir else heir)
        nodes.append(n)
    return Decomposition(d.kind, tuple(nodes))


def _describe(d: Decomposition) -> str:
    nodes = [
        (n.node_id, n.parent, sorted(n.guard, key=repr), sorted(n.bag),
         n.weights if n.weights is None else {e: str(w) for e, w in n.weights.items()})
        for n in d.nodes
    ]
    return f"kind={d.kind.value} nodes={nodes}"


def shrink(seed: int, key: str) -> str:
    """The decomposition ``key`` of ``seed`` with nodes, then bag vertices,
    dropped one at a time while ``verify`` and the reference still differ."""
    h, cases = make_case(seed)
    d = dict(cases)[key]

    def mismatches(candidate: Decomposition) -> bool:
        tally = differential_runner.Tally(seed)
        compare(h, key, candidate, tally)
        return key in tally.keys

    i = 0
    while i < len(d.nodes):
        smaller = outcome(lambda: _dropped(d, i))
        if isinstance(smaller, Decomposition) and mismatches(smaller):
            d = smaller
        else:
            i += 1
    for i in range(len(d.nodes)):
        for v in sorted(d.nodes[i].bag):
            smaller = _with(d, i, bag=d.nodes[i].bag - {v})
            if mismatches(smaller):
                d = smaller
    return _describe(d)


if __name__ == "__main__":
    sys.exit(differential_runner.main(check, __doc__, 3000, DEFAULT_SEED, shrink=shrink))
