"""Seeded differential of the hypergraph's component primitives.

Every instance is a random hypergraph with a shuffled vertex order, int,
str or mixed edge ids, and, by chance, empty edges, repeated edge sets,
isolated vertices and disconnected parts, plus a random set S (sometimes
empty, sometimes every vertex). Seven checks compare the library with the
references in ``oracles``:

- ``s_components`` against ``s_components_reference``: the core, the
  closure, the induced vertices, edges and lookups, and ``s_vertices``;
- the vertex classes of every vertex and of ``within``, as the cores of
  ``s_components`` with every vertex outside ``within`` free, against
  ``components_reference``, on the reference restriction to ``within``;
- ``induced(vs)`` against ``hypergraph_induced_reference``, including the
  dedup family and the incidence, which ``induced`` derives from its
  parent's instead of rebuilding through the checked constructor, and
  ``induced_dedup_edges(vs)`` against that dedup family;
- the union of the edges that meet ``vs``, by ``edge_classes`` over
  ``holding`` cut at every vertex, against ``closure_reference``, one
  scan of every edge;
- ``tree_decompose`` against the tree built from the elimination order of
  ``min_fill_order_reference``, a copy of the full-rescan min-fill over its
  own adjacency, when that order's width meets ``minor_min_width_reference``
  or h has more than 12 vertices, and otherwise from the order of
  ``exact_elimination_order_reference``, the subset DP that searched once
  per (subset, vertex) pair; ``_min_fill_order`` must give the reference's
  order, ties included, and up to 12 vertices the tree's width must be the
  exact order's and ``_minor_min_width`` the reference's bound. The summary
  counts the trees past the bound;
- ``hinge_decompose`` against ``min_hinge_width``, the exhaustive search
  over every split choice: the hingetree verifies, and no hingetree is
  narrower;
- ``hinge_decompose`` against ``hinge_reference``, the route that
  classified the blocks by a GYO pass of its own and built a hypergraph per
  cyclic block, per part and of the guards' bags: every node, guard, bag
  and node id the same (``hinge_decompose vs reference``). A run from
  another seed checks no digest, so this is its check of identity.

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

The first mismatch of a run is shrunk: ``shrink`` drops edges one at a
time while the comparison still mismatches, and the runner prints the
hypergraph, with its vertices and S, that it is left with.

Run the full version with ``PYTHONPATH=src python tests/hypergraph_differential.py
--instances 5000 [--seed S]``. It prints the seed and hypergraph of every
mismatch and exits 1 if there is any; the summary ends with the digest.
Instance ``i`` of a run from seed ``s`` has seed ``s + i``, and
``make_case(seed)`` rebuilds it alone.
"""

from __future__ import annotations

import sys

from cqstar.decomposition import (
    TREE_EXACT_VERTEX_CUTOFF,
    Decomposition,
    _elimination_tree,
    _min_fill_order,
    _minor_min_width,
    ghd_search,
    hinge_decompose,
    tree_decompose,
    verify,
)
from cqstar.engine import _rebuild_decomposition
from cqstar.generators import SplitMix64
from cqstar.hypergraph import Hypergraph, SHypergraph, edge_classes, holding, s_components

import differential_runner
from differential_runner import outcome, shuffle
from oracles import (
    closure_reference,
    components_reference,
    elimination_width_reference,
    exact_elimination_order_reference,
    hinge_reference,
    hypergraph_induced_reference,
    integralize,
    min_fill_order_reference,
    min_hinge_width,
    minor_min_width_reference,
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


def flood_components(h: Hypergraph, within) -> list[frozenset]:
    """The classes of ``within`` connected through edges cut to it, by the
    one flood: the cores of ``s_components`` with every other vertex free,
    ordered by earliest vertex."""
    order = h.sort_vertices(set(within))  # raises UnknownVertex
    return [c.core for c in s_components(SHypergraph(h, frozenset(h.vertices).difference(order)))]


def flood_closure(h: Hypergraph, vs) -> frozenset:
    """The union of the edges that meet ``vs``, by the one flood cut at
    every vertex, so that each edge reached is a start and a class of its
    own."""
    sets = dict(h.edges)
    held = holding(sets, sets)
    starts = (e for v in h.sort_vertices(set(vs)) for e in held.get(v, ()))
    return frozenset().union(*(sets[e] for cls in edge_classes(starts, sets, held, frozenset(h.vertices)) for e in cls))


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


def _describe(sh: SHypergraph) -> str:
    h = sh.hypergraph
    return f"vertices={list(h.vertices)} S={sorted(sh.s)} edges={[(e, sorted(fs)) for e, fs in h.edges]}"


def check(seed: int, tally: differential_runner.Tally) -> None:
    check_case(seed, make_case(seed), tally)


def check_case(seed: int, sh: SHypergraph, tally: differential_runner.Tally) -> None:
    """The seven comparisons on ``sh``, the case of ``seed`` or a shrunk one;
    the decomposition outputs go into the run's digest, which a run from
    the default seed checks against ``PINNED``."""
    h = sh.hypergraph
    tally.describe = lambda: _describe(sh)
    tally.compare(
        "s_components",
        _components(outcome(lambda: s_components(sh))),
        _components(outcome(lambda: s_components_reference(sh))),
    )
    tally.compare("flood components()", outcome(lambda: flood_components(h, h.vertices)), components_reference(h))
    for vs in _subsets(seed, sh):
        want = outcome(lambda: hypergraph_induced_reference(h, vs))
        tally.compare(f"induced({sorted(vs)})", _graph(outcome(lambda: h.induced(vs))), _graph(want))
        tally.compare(
            f"induced_dedup_edges({sorted(vs)})",
            outcome(lambda: h.induced_dedup_edges(vs)),
            want.dedup_edges() if isinstance(want, Hypergraph) else want,
        )
        want_closure = outcome(lambda: closure_reference(h, vs))
        tally.compare(f"flood closure({sorted(vs)})", outcome(lambda: flood_closure(h, vs)), want_closure)
        if isinstance(want, Hypergraph):
            want = components_reference(want)
        tally.compare(f"flood components({sorted(vs)})", outcome(lambda: flood_components(h, vs)), want)
    if h.vertices:
        check_tree(h, tally)
    hinge = outcome(lambda: hinge_decompose(h))
    width = verify(h, hinge).width if isinstance(hinge, Decomposition) else hinge
    tally.compare("hinge_decompose width", width, min_hinge_width(h))
    tally.compare("hinge_decompose vs reference", _canonical(hinge), _canonical(outcome(lambda: hinge_reference(h))))
    digest = tally.fold(decomposition_outputs(sh, hinge))
    done = seed - tally.start + 1
    if tally.start == DEFAULT_SEED and done in PINNED:
        tally.compare(f"digest after {done} instances", digest, PINNED[done])


def check_tree(h: Hypergraph, tally: differential_runner.Tally) -> None:
    """``tree_decompose`` is the elimination tree of min-fill's order when h
    has more than 12 vertices or that order's width meets the minor-min-width
    bound, else of the exact order; up to 12 vertices its width is the exact
    order's. ``_min_fill_order`` gives the full-rescan reference's order,
    and ``_minor_min_width`` the reference's bound."""
    adj = h.conflict_adjacency()
    min_fill = min_fill_order_reference(h)
    tally.compare("_min_fill_order", outcome(lambda: _min_fill_order(h.vertices, adj)), min_fill)
    got = outcome(lambda: tree_decompose(h))
    want = min_fill
    if len(h.vertices) <= TREE_EXACT_VERTEX_CUTOFF:
        exact = exact_elimination_order_reference(h)
        tally.compare(
            "tree_decompose width",
            verify(h, got).width if isinstance(got, Decomposition) else got,
            elimination_width_reference(h, exact),
        )
        bound = minor_min_width_reference(h)
        tally.compare("_minor_min_width", outcome(lambda: _minor_min_width(h.vertices, adj)), bound)
        if elimination_width_reference(h, min_fill) > bound:
            tally.seen["trees past the bound"] += 1
            want = exact
    tally.compare("tree_decompose", _canonical(got), _canonical(outcome(lambda: _elimination_tree(adj, want))))


def shrink(seed: int, key: str) -> str:
    """The case of ``seed`` with edges dropped one at a time, in declared
    order, while the comparison ``key`` still mismatches. A vertex goes
    with the last edge that held it, and leaves S with it; an isolated
    vertex stays. A digest mismatch needs the whole run, so its case is
    not shrunk."""

    def mismatches(candidate: SHypergraph) -> bool:
        tally = differential_runner.Tally(seed)
        outcome(lambda: check_case(seed, candidate, tally))
        return key in tally.keys

    return _describe(differential_runner.drop_edges(make_case(seed), mismatches))


if __name__ == "__main__":
    sys.exit(differential_runner.main(check, __doc__, 5000, DEFAULT_SEED, shrink=shrink))
