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
two witnesses must be equal. Then ``s_star_size`` with GHD_DP and HINGE_FPT,
which walk each component's subtree of the whole decomposition in place,
must give BRUTE's witness for every component (each exact strategy returns
the lexicographically smallest maximum set), and APPROX a size within a
factor of the (guarded) decomposition's width of BRUTE's, and every
witness that ``oracles.star_size_along_reference`` gives, which runs the
worker on each component's induced hypergraph along its restricted
decomposition, not the whole one.

``s_star_size`` with ACYCLIC, which runs GYO and the cover greedy on each
component's cut edges as plain lists, must give what
``oracles.acyclic_star_reference`` gives along each component's own join
tree: every witness with its cover, or the same error. When every
component is acyclic, its sizes must be BRUTE's, and each cover must have
as many edges as its star and cover the component's S-vertices. The
summary counts the ``acyclic`` and ``cyclic`` cases.

Star size trusts the trees it derives: each guarded tree decomposition,
each restriction, and each restriction as a join tree of its bags, which
APPROX walks for its cover greedy (``oracles.jointree_over_bags`` over
``oracles.blocks_hypergraph``). The differential verifies every one of them, and
each acyclic component's own join tree, which the ACYCLIC reference
walks, with ``oracles.tree_fault``; a faulty tree is a mismatch too.

Every ``s_star_size`` outcome (its sizes, each witness's star and cover
sorted, or the error) is folded into the run's digest, which the summary
prints: a witness that moves with ``PYTHONHASHSEED`` changes it.

The first mismatch of a run is shrunk: ``shrink`` drops edges one at a
time while the comparison still mismatches, and the runner prints the
hypergraph, with its vertices and S, that it is left with.

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
    ghd_search,
    guarded,
    gyo_join_tree,
    hinge_decompose,
    induced_decomposition,
    tree_decompose,
)
from cqstar.generators import SplitMix64
from cqstar.hypergraph import Hypergraph, SComponent, SHypergraph, s_components
from cqstar.starsize import ISMethod, approx_is, max_is_ghd_dp, max_is_hinge_fpt, s_star_size

import differential_runner
from differential_runner import outcome
from oracles import (
    acyclic_star_reference,
    blocks_hypergraph,
    induced_reference,
    jointree_over_bags,
    star_size_along_reference,
)

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


def make_s_hypergraph(seed: int) -> SHypergraph:
    rng = SplitMix64(seed)
    h = random_hypergraph(rng)
    return SHypergraph(h, frozenset(v for v in h.vertices if rng.chance(1, 3)))


def make_case(seed: int) -> tuple[SHypergraph, list[tuple[str, Decomposition]]]:
    return with_decompositions(make_s_hypergraph(seed))


def with_decompositions(sh: SHypergraph) -> tuple[SHypergraph, list[tuple[str, Decomposition]]]:
    """``sh`` with the hingetree, the narrowest GHD found up to width 3 and
    the tree decomposition of its hypergraph."""
    h = sh.hypergraph
    decomps = [("hinge", hinge_decompose(h))]
    for k in (1, 2, 3):
        ghd = ghd_search(h, k)
        if ghd is not None:
            decomps.append(("ghd", ghd))
            break
    decomps.append(("tree", tree_decompose(h)))
    return sh, decomps


def _describe(sh: SHypergraph) -> str:
    h = sh.hypergraph
    return f"V={list(h.vertices)} S={sorted(sh.s)} edges={[(e, sorted(fs)) for e, fs in h.edges]}"


def check(seed: int, tally: differential_runner.Tally) -> None:
    check_case(*make_case(seed), tally)


def check_case(sh: SHypergraph, decomps: list[tuple[str, Decomposition]], tally: differential_runner.Tally) -> None:
    """Every check of one case: ``sh`` and the decompositions of its hypergraph."""
    h = sh.hypergraph
    tally.describe = lambda: _describe(sh)
    comps = s_components(sh)
    brute = _stars(tally, sh, ISMethod.BRUTE, None)
    sizes = [len(star) for star in brute]
    check_acyclic(sh, sizes, tally)
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
            tally.compare(f"{label}/s_star_size {method.value}", outcome(lambda: _stars(tally, sh, method, d)), brute)
        # APPROX is within the guarded decomposition's width of the maximum, per component
        approx = outcome(lambda: [len(star) for star in _stars(tally, sh, ISMethod.APPROX, d)])
        k = max(1, read.raw_width())
        within = isinstance(approx, list) and all(math.ceil(b / k) <= a <= b for a, b in zip(approx, sizes))
        tally.compare(f"{label}/s_star_size approx", approx, approx if within else f"within width {k} of {sizes}")
        tally.compare(
            f"{label}/s_star_size approx witness",
            outcome(lambda: _star_size(tally, sh, ISMethod.APPROX, d)),
            outcome(lambda: star_size_along_reference(sh, ISMethod.APPROX, d)),
        )


def check_acyclic(sh: SHypergraph, sizes: list[int], tally: differential_runner.Tally) -> None:
    """``s_star_size`` with ACYCLIC against ``oracles.acyclic_star_reference``:
    every witness, or the error's type and text. When every component is
    acyclic, each size must be BRUTE's (``sizes``), and each cover must
    have as many edges as its star and cover the component's S-vertices.
    ``tally.seen`` counts the acyclic and cyclic cases."""
    got = outcome(lambda: _star_size(tally, sh, ISMethod.ACYCLIC))
    tally.compare("s_star_size acyclic", got, outcome(lambda: acyclic_star_reference(sh)))
    if isinstance(got, str):
        tally.seen["cyclic"] += 1
        return
    tally.seen["acyclic"] += 1
    witnesses = got[1]
    tally.compare("s_star_size acyclic sizes", [w.size for w in witnesses], sizes)
    h = sh.hypergraph
    for w, comp in zip(witnesses, s_components(sh)):
        covered = frozenset().union(*map(h.edge_set, w.cover_edges))
        tally.compare(
            f"acyclic cover {w.component_index}",
            (len(w.cover_edges), comp.s_vertices <= covered),
            (len(w.star), True),
        )


def _restriction_trees(h: Hypergraph, d: Decomposition, comp: SComponent) -> list:
    """``d`` restricted to the component's closure, and the restriction as a
    join tree of its bags, each with the hypergraph it decomposes."""
    di = induced_decomposition(h, d, comp.closure)
    return [("restriction", comp.induced, di), ("bags", blocks_hypergraph(comp.induced, di), jointree_over_bags(di))]


def _along(strategy, restrict, h: Hypergraph, d: Decomposition, comp: SComponent):
    """The strategy's witness for one component, along ``restrict(h, d, closure)``."""
    return outcome(lambda: strategy(comp.induced, restrict(h, d, comp.closure), comp.s_vertices))


def _star_size(tally: differential_runner.Tally, sh: SHypergraph, method: ISMethod, d=None):
    """``s_star_size(sh, method, d)``, its outcome folded into the digest."""
    try:
        size, witnesses = s_star_size(sh, method, d)
    except Exception as exc:
        tally.fold(f"{type(exc).__name__}: {exc}")  # as ``outcome`` gives it
        raise
    tally.fold((method.value, size, [
        (w.size, w.component_index, sorted(w.star), None if w.cover_edges is None else sorted(w.cover_edges))
        for w in witnesses
    ]))
    return size, witnesses


def _stars(tally: differential_runner.Tally, sh: SHypergraph, method: ISMethod, d) -> list[list]:
    """Each component's witness, sorted."""
    return [sorted(w.star) for w in _star_size(tally, sh, method, d)[1]]


def shrink(seed: int, key: str) -> str:
    """The case of ``seed`` with edges dropped one at a time, in declared
    order, while the comparison ``key`` still mismatches. A vertex goes
    with the last edge that held it, and leaves S with it."""

    def mismatches(candidate: SHypergraph) -> bool:
        tally = differential_runner.Tally(seed)
        outcome(lambda: check_case(*with_decompositions(candidate), tally))
        return key in tally.keys

    return _describe(differential_runner.drop_edges(make_s_hypergraph(seed), mismatches))


if __name__ == "__main__":
    sys.exit(differential_runner.main(check, __doc__, 2000, DEFAULT_SEED, shrink=shrink))
