"""Seeded differential of star size along restricted decompositions.

Every instance is a random hypergraph (some with an edgeless vertex), a
random set S of its vertices, and two decompositions of it: the narrowest
GHD that ``ghd_search`` finds up to width 3, and ``hinge_decompose``. For
every S-component with a nonempty closure, each strategy that takes the
decomposition (``max_is_ghd_dp`` and ``approx_is`` on both,
``max_is_hinge_fpt`` on the hingetree) runs along ``induced_decomposition``'s
subtree and along ``oracles.induced_reference``'s full-size copy, and the
two witnesses must be equal. Then ``s_star_size`` with GHD_DP and HINGE_FPT
must give BRUTE's size for every component, and APPROX a size within a
factor of the decomposition's width of it.

Star size trusts the trees it derives: each restriction, the join tree
over a restriction's bags (APPROX's acyclic hypergraph) and the join tree
the ACYCLIC strategy builds for an acyclic component. The differential
verifies every one of them with ``oracles.tree_fault``; a faulty tree is a
mismatch too.

Run the full version with ``PYTHONPATH=src python tests/starsize_differential.py
--instances 2000``. It prints the seed and hypergraph of every mismatch and
exits 1 if there is any. Instance ``i`` of a run with seed ``s`` has its own
seed ``s + i``, and ``make_case(seed)`` rebuilds it alone.
"""

from __future__ import annotations

import argparse
import math
import sys

from cqstar.decomposition import (
    Decomposition,
    NotAcyclic,
    blocks_hypergraph,
    ghd_search,
    gyo_join_tree,
    hinge_decompose,
    induced_decomposition,
    jointree_over_bags,
)
from cqstar.generators import SplitMix64
from cqstar.hypergraph import Hypergraph, SComponent, SHypergraph, s_components
from cqstar.starsize import ISMethod, approx_is, max_is_ghd_dp, max_is_hinge_fpt, s_star_size

from oracles import induced_reference, tree_fault

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
    return SHypergraph(h, s), decomps


def check(seed: int) -> tuple[int, int, list[str]]:
    """The number of checks made, the number of derived trees verified, and a
    line for each check that disagreed or tree that failed."""
    sh, decomps = make_case(seed)
    h = sh.hypergraph
    comps = s_components(sh)
    brute = [w.size for w in s_star_size(sh, ISMethod.BRUTE)[1]]
    checks, trees, bad = 0, 0, []

    def verify_trees(key: str, build) -> None:
        """Verify each (hypergraph, tree) pair that ``build()`` gives; a
        tree that cannot be built is a fault too."""
        nonlocal trees
        try:
            faults = []
            for hg, tree in build():
                trees += 1
                faults.append(tree_fault(hg, tree))
        except Exception as exc:
            faults.append(f"{type(exc).__name__}: {exc}")
        bad.extend(
            f"invalid tree: seed={seed} {key}: {fault}; S={sorted(sh.s)} "
            f"edges={[(e, sorted(fs)) for e, fs in h.edges]}"
            for fault in faults
            if fault is not None
        )

    def compare(key: str, got, want) -> None:
        nonlocal checks
        checks += 1
        if got != want:
            bad.append(
                f"mismatch: seed={seed} {key} gave {got}, expected {want}; "
                f"S={sorted(sh.s)} edges={[(e, sorted(fs)) for e, fs in h.edges]}"
            )

    for idx, comp in enumerate(comps):
        jt = gyo_join_tree(comp.induced)
        if not isinstance(jt, NotAcyclic):
            verify_trees(f"component {idx} own join tree", lambda: [(comp.induced, jt)])
    for label, d in decomps:
        strategies = {"ghd_dp": max_is_ghd_dp, "approx": approx_is}
        methods = [ISMethod.GHD_DP]
        if label == "hinge":
            strategies["hinge_fpt"] = max_is_hinge_fpt
            methods.append(ISMethod.HINGE_FPT)
        for idx, comp in enumerate(comps):
            if not comp.closure:
                continue
            verify_trees(f"{label} component {idx} restriction", lambda: _restriction_trees(h, d, comp))
            for name, strategy in strategies.items():
                got = _along(strategy, induced_decomposition, h, d, comp)
                want = _along(strategy, induced_reference, h, d, comp)
                compare(f"{label}/{name} component {idx}", got, want)
        for method in methods:
            compare(f"{label}/s_star_size {method.value}", _outcome(lambda: _sizes(sh, method, d)), brute)
        # APPROX is within the decomposition's width of the maximum, per component
        approx = _outcome(lambda: _sizes(sh, ISMethod.APPROX, d))
        k = max(1, d.raw_width())
        within = isinstance(approx, list) and all(math.ceil(b / k) <= a <= b for a, b in zip(approx, brute))
        compare(f"{label}/s_star_size approx", approx, approx if within else f"within width {k} of {brute}")
    return checks, trees, bad


def _restriction_trees(h: Hypergraph, d: Decomposition, comp: SComponent) -> list:
    """``d`` restricted to the component's closure, and the join tree over
    the restriction's bags, each with the hypergraph it decomposes."""
    di = induced_decomposition(h, d, comp.closure)
    return [(comp.induced, di), (blocks_hypergraph(comp.induced, di), jointree_over_bags(di))]


def _along(strategy, restrict, h: Hypergraph, d: Decomposition, comp: SComponent):
    """The strategy's witness for one component, along ``restrict(h, d, closure)``."""
    return _outcome(lambda: strategy(comp.induced, restrict(h, d, comp.closure), comp.s_vertices))


def _sizes(sh: SHypergraph, method: ISMethod, d: Decomposition) -> list[int]:
    return [w.size for w in s_star_size(sh, method, d)[1]]


def _outcome(run):
    try:
        return run()
    except Exception as exc:  # a crash is an outcome to compare too
        return f"{type(exc).__name__}: {exc}"


def run(instances: int, seed: int = DEFAULT_SEED) -> tuple[int, int, list[str]]:
    checks, trees, bad = 0, 0, []
    for index in range(instances):
        made, verified, found = check(seed + index)
        checks += made
        trees += verified
        bad += found
    return checks, trees, bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--instances", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)
    checks, trees, bad = run(args.instances, args.seed)
    for line in bad:
        print(line)
    print(
        f"{args.instances} instances, seed {args.seed}: {checks} checks, "
        f"{trees} derived trees verified, {len(bad)} mismatches"
    )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
