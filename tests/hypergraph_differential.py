"""Seeded differential of the hypergraph's component primitives.

Every instance is a random hypergraph with a shuffled vertex order, int,
str or mixed edge ids, and, by chance, empty edges, repeated edge sets,
isolated vertices and disconnected parts, plus a random set S (sometimes
empty, sometimes every vertex). Six checks compare the library with the
references in ``oracles``:

- ``s_components`` against ``s_components_reference``: the core, the
  closure, the induced vertices, edges and lookups, and ``s_vertices``;
- ``connected_components()`` and ``connected_components(within)`` against
  ``components_reference``, on the reference restriction to ``within``;
- ``induced(vs)`` against ``hypergraph_induced_reference``, including the
  dedup family and the incidence, which ``induced`` derives from its
  parent's instead of rebuilding through the checked constructor;
- ``closure(vs)`` against ``closure_reference``, the union of the edges
  that meet ``vs`` by one scan of every edge;
- ``tree_decompose`` against the tree built from the elimination order of
  ``exact_elimination_order_reference``, the subset DP that searched once
  per (subset, vertex) pair, so the bitmask DP keeps its order and its
  tie-break;
- ``hinge_decompose`` against ``min_hinge_width``, the exhaustive search
  over every split choice: the hingetree verifies, and no hingetree is
  narrower.

The ``within`` and ``vs`` sets are the empty set, every vertex, V minus S,
S, a random subset, and now and then a set naming an unknown vertex, where
both sides must raise the same error.

The outputs of ``hinge_decompose``, ``ghd_search`` for k = 1, 2, 3 and
``engine._rebuild_decomposition`` (along the hingetree and the first GHD
found, each plain and integralized) are folded into one SHA-256 digest,
with sets sorted before hashing. ``PINNED`` holds the digests that the
default seed gave once ``hinge_decompose`` built its tree as one join tree
of its guards' bags, so a run from the default seed also checks that these
outputs never moved since.

Run the full version with ``PYTHONPATH=src python tests/hypergraph_differential.py
--instances 5000 [--seed S]``. It prints the seed and hypergraph of every
mismatch and exits 1 if there is any; the summary ends with the digest.
Instance ``i`` of a run from seed ``s`` has seed ``s + i``, and
``make_case(seed)`` rebuilds it alone.
"""

from __future__ import annotations

import sys

from cqstar.decomposition import (
    Decomposition,
    _elimination_tree,
    ghd_search,
    hinge_decompose,
    tree_decompose,
    verify,
)
from cqstar.engine import _rebuild_decomposition
from cqstar.generators import SplitMix64
from cqstar.hypergraph import Hypergraph, SHypergraph, s_components

import differential_runner
from differential_runner import outcome, shuffle
from oracles import (
    closure_reference,
    components_reference,
    exact_elimination_order_reference,
    hypergraph_induced_reference,
    integralize,
    min_hinge_width,
    s_components_reference,
)

DEFAULT_SEED = 4099

# instances run from DEFAULT_SEED -> digest of the decomposition outputs
PINNED = {
    1000: "9bed00abe7df972c88639fbada9b6a82ae31a2c90a6a396f0ed9fc5adda7fe05",
    5000: "71f89461c105a65d084200644e0d36c613ede9919bb7d44afa5cd69f9ac619c2",
}


def make_case(seed: int) -> SHypergraph:
    rng = SplitMix64(seed)
    n = rng.below(10)
    names = shuffle(rng, [f"v{i}" for i in range(n)])
    m = rng.below(9)
    style = rng.below(4)
    if style == 0:
        ids = list(range(m))
    elif style == 1:
        ids = shuffle(rng, list(range(3 * m)))[:m]
    elif style == 2:
        ids = [f"e{i}" for i in shuffle(rng, list(range(m)))]
    else:
        ids = [i if i % 2 else f"e{i}" for i in range(m)]
    edges = []
    for eid in ids:
        if edges and rng.chance(1, 6):
            fs = rng.choice(edges)[1]  # the same set again under a new id
        elif not names or rng.chance(1, 10):
            fs = frozenset()
        else:
            pool = list(names)
            fs = frozenset(pool.pop(rng.below(len(pool))) for _ in range(1 + rng.below(min(4, n))))
        edges.append((eid, fs))
    if rng.chance(1, 2):  # otherwise the unused names stay as isolated vertices
        used = {v for _, fs in edges for v in fs}
        names = [v for v in names if v in used]
    mode = rng.below(6)
    if mode == 0:
        s = frozenset()
    elif mode == 1:
        s = frozenset(names)
    else:
        s = frozenset(v for v in names if rng.chance(1, 3))
    return SHypergraph(Hypergraph(names, edges), s)


def _subsets(seed: int, sh: SHypergraph) -> list[frozenset]:
    rng = SplitMix64(~seed)
    h = sh.hypergraph
    every = frozenset(h.vertices)
    out = [frozenset(), every, every - sh.s, sh.s, frozenset(v for v in h.vertices if rng.chance(1, 2))]
    if rng.chance(1, 10):
        out.append(frozenset({"unknown"}) | out[-1])
    return out


def _graph(h):
    """A hypergraph's vertices and edges, and the lookups built over them,
    which ``induced`` derives from its parent's rather than rebuilding."""
    if not isinstance(h, Hypergraph):
        return h
    return h.vertices, h.edges, h.dedup_edges(), [h.incident_edges(v) for v in h.vertices]


def _components(comps):
    if isinstance(comps, str):
        return comps
    return [(c.core, c.closure, _graph(c.induced), c.s_vertices) for c in comps]


def _sorted(items) -> list[str]:
    return sorted(map(repr, items))


def _canonical(d):
    """A decomposition as nested lists with every set sorted; other outcomes as they are."""
    if not isinstance(d, Decomposition):
        return d
    nodes = []
    for n in d.nodes:
        weights = None if n.weights is None else sorted((repr(e), str(w)) for e, w in n.weights.items())
        nodes.append((n.node_id, n.parent, _sorted(n.guard), _sorted(n.bag), weights))
    return (d.kind.value, nodes)


def decomposition_outputs(sh: SHypergraph, hinge) -> list:
    """The pinned outputs of one instance, in a fixed order; ``hinge`` is
    the outcome of ``hinge_decompose``."""
    h = sh.hypergraph
    ghds = [outcome(lambda: ghd_search(h, k)) for k in (1, 2, 3)]
    out = [_canonical(hinge)] + [_canonical(g) for g in ghds]
    comps = s_components(sh)
    quantified = set(h.vertices) - sh.s
    kept = [eid for eid, fs in h.edges if not fs & quantified]
    found = next((g for g in ghds if isinstance(g, Decomposition)), None)
    for d in (hinge, found):
        if isinstance(d, Decomposition):
            out.append(_canonical(outcome(lambda: _rebuild_decomposition(h, d, comps, kept))))
            out.append(_canonical(outcome(lambda: _rebuild_decomposition(h, integralize(d), comps, kept))))
    return out


def check(seed: int, tally: differential_runner.Tally) -> None:
    """The six comparisons; the decomposition outputs go into the run's
    digest, which a run from the default seed checks against ``PINNED``."""
    sh = make_case(seed)
    h = sh.hypergraph
    tally.describe = lambda: (
        f"vertices={list(h.vertices)} S={sorted(sh.s)} edges={[(e, sorted(fs)) for e, fs in h.edges]}"
    )
    tally.compare(
        "s_components",
        _components(outcome(lambda: s_components(sh))),
        _components(outcome(lambda: s_components_reference(sh))),
    )
    tally.compare("connected_components()", outcome(h.connected_components), components_reference(h))
    for vs in _subsets(seed, sh):
        want = outcome(lambda: hypergraph_induced_reference(h, vs))
        tally.compare(f"induced({sorted(vs)})", _graph(outcome(lambda: h.induced(vs))), _graph(want))
        want_closure = outcome(lambda: closure_reference(h, vs))
        tally.compare(f"closure({sorted(vs)})", outcome(lambda: h.closure(vs)), want_closure)
        if isinstance(want, Hypergraph):
            want = components_reference(want)
        tally.compare(f"connected_components({sorted(vs)})", outcome(lambda: h.connected_components(vs)), want)
    if h.vertices:
        tally.compare(
            "tree_decompose",
            _canonical(outcome(lambda: tree_decompose(h))),
            _canonical(outcome(lambda: _elimination_tree(h, exact_elimination_order_reference(h)))),
        )
    hinge = outcome(lambda: hinge_decompose(h))
    width = verify(h, hinge).width if isinstance(hinge, Decomposition) else hinge
    tally.compare("hinge_decompose width", width, min_hinge_width(h))
    digest = tally.fold(decomposition_outputs(sh, hinge))
    done = seed - tally.start + 1
    if tally.start == DEFAULT_SEED and done in PINNED:
        tally.compare(f"digest after {done} instances", digest, PINNED[done])


if __name__ == "__main__":
    sys.exit(differential_runner.main(check, __doc__, 5000, DEFAULT_SEED))
