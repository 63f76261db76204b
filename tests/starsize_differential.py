"""Seeded differential of star size along restricted decompositions.

Every instance is a random hypergraph (some with an edgeless vertex), a
random set S of its vertices, and three decompositions of it: the
narrowest GHD that ``ghd_search`` finds up to width 3, ``hinge_decompose``
and ``tree_decompose``. Star size reads a tree decomposition through
``decomposition.guarded``, so the differential does too. For every
S-component with a nonempty closure, each strategy that takes the
decomposition (``max_is_ghd_dp`` and ``approx_is`` on all three,
``max_is_hinge_fpt`` on the hingetree) runs along ``induced_decomposition``'s
subtree and along ``oracles.induced_reference``'s full-size copy, and the
two witnesses must be equal. Then ``s_star_size`` with GHD_DP and HINGE_FPT
must give BRUTE's size for every component, and APPROX a size within a
factor of the (guarded) decomposition's width of it.

Star size trusts the trees it derives: each guarded tree decomposition,
each restriction, the join tree over a restriction's bags (APPROX's
acyclic hypergraph) and the join tree the ACYCLIC strategy builds for an
acyclic component. The differential verifies every one of them with
``oracles.tree_fault``; a faulty tree is a mismatch too.

Run the full version with ``PYTHONPATH=src python tests/starsize_differential.py
--instances 2000 [--seed S]``. It prints the seed and hypergraph of every
mismatch and exits 1 if there is any. Instance ``i`` of a run from seed
``s`` has seed ``s + i``, and ``make_case(seed)`` rebuilds it alone.
"""

from __future__ import annotations

import math
import sys

from cqstar.decomposition import (
    Decomposition,
    NotAcyclic,
    blocks_hypergraph,
    ghd_search,
    guarded,
    gyo_join_tree,
    hinge_decompose,
    induced_decomposition,
    jointree_over_bags,
    tree_decompose,
)
from cqstar.generators import SplitMix64
from cqstar.hypergraph import Hypergraph, SComponent, SHypergraph, s_components
from cqstar.starsize import ISMethod, approx_is, max_is_ghd_dp, max_is_hinge_fpt, s_star_size

import differential_runner
from differential_runner import outcome
from oracles import induced_reference

DEFAULT_SEED = 8191


def random_hypergraph(rng: SplitMix64) -> Hypergraph:
    n = 2 + rng.below(9)
    vertices = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(1 + rng.below(7)):
        pool = list(vertices)
        arity = 1 + rng.below(min(4, n))
        edges.append((f"e{i}", frozenset(pool.pop(rng.below(len(pool))) for _ in range(arity))))
    used = {v for _, fs in edges for v in fs}
    if rng.chance(1, 8):  # an edgeless vertex is a component with an empty closure
        used.add(rng.choice(vertices))
    return Hypergraph([v for v in vertices if v in used], edges)


def make_case(seed: int) -> tuple[SHypergraph, list[tuple[str, Decomposition]]]:
    rng = SplitMix64(seed)
    h = random_hypergraph(rng)
    s = frozenset(v for v in h.vertices if rng.chance(1, 3))
    decomps = [("hinge", hinge_decompose(h))]
    for k in (1, 2, 3):
        ghd = ghd_search(h, k)
        if ghd is not None:
            decomps.append(("ghd", ghd))
            break
    decomps.append(("tree", tree_decompose(h)))
    return SHypergraph(h, s), decomps


def check(seed: int, tally: differential_runner.Tally) -> None:
    sh, decomps = make_case(seed)
    h = sh.hypergraph
    tally.describe = lambda: f"S={sorted(sh.s)} edges={[(e, sorted(fs)) for e, fs in h.edges]}"
    comps = s_components(sh)
    brute = [w.size for w in s_star_size(sh, ISMethod.BRUTE)[1]]
    for idx, comp in enumerate(comps):
        jt = gyo_join_tree(comp.induced)
        if not isinstance(jt, NotAcyclic):
            tally.verify_trees(f"component {idx}", lambda: [("own join tree", comp.induced, jt)])
    for label, d in decomps:
        read = guarded(h, d)  # d itself, unless a tree decomposition
        if read is not d:
            tally.verify_trees(f"{label} guarded", lambda: [("guarded tree", h, read)])
        strategies = {"ghd_dp": max_is_ghd_dp, "approx": approx_is}
        methods = [ISMethod.GHD_DP]
        if label == "hinge":
            strategies["hinge_fpt"] = max_is_hinge_fpt
            methods.append(ISMethod.HINGE_FPT)
        for idx, comp in enumerate(comps):
            if not comp.closure:
                continue
            tally.verify_trees(f"{label} component {idx}", lambda: _restriction_trees(h, read, comp))
            for name, strategy in strategies.items():
                got = _along(strategy, induced_decomposition, h, read, comp)
                want = _along(strategy, induced_reference, h, read, comp)
                tally.compare(f"{label}/{name} component {idx}", got, want)
        for method in methods:
            tally.compare(f"{label}/s_star_size {method.value}", outcome(lambda: _sizes(sh, method, d)), brute)
        # APPROX is within the guarded decomposition's width of the maximum, per component
        approx = outcome(lambda: _sizes(sh, ISMethod.APPROX, d))
        k = max(1, read.raw_width())
        within = isinstance(approx, list) and all(math.ceil(b / k) <= a <= b for a, b in zip(approx, brute))
        tally.compare(f"{label}/s_star_size approx", approx, approx if within else f"within width {k} of {brute}")


def _restriction_trees(h: Hypergraph, d: Decomposition, comp: SComponent) -> list:
    """``d`` restricted to the component's closure, and the join tree over
    the restriction's bags, each with the hypergraph it decomposes."""
    di = induced_decomposition(h, d, comp.closure)
    return [("restriction", comp.induced, di), ("bags", blocks_hypergraph(comp.induced, di), jointree_over_bags(di))]


def _along(strategy, restrict, h: Hypergraph, d: Decomposition, comp: SComponent):
    """The strategy's witness for one component, along ``restrict(h, d, closure)``."""
    return outcome(lambda: strategy(comp.induced, restrict(h, d, comp.closure), comp.s_vertices))


def _sizes(sh: SHypergraph, method: ISMethod, d: Decomposition) -> list[int]:
    return [w.size for w in s_star_size(sh, method, d)[1]]


if __name__ == "__main__":
    sys.exit(differential_runner.main(check, __doc__, 2000, DEFAULT_SEED))
