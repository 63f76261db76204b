"""The cases of ``starsize_differential.py`` reach what they are there for;
its slice is in ``test_differential_runner.py``, and a longer slice of its
ACYCLIC check is here."""

from cqstar.decomposition import induced_decomposition
from cqstar.hypergraph import s_components
from cqstar.starsize import ISMethod, s_star_size

import differential_runner
import starsize_differential


def test_slice_drops_nodes_and_meets_edgeless_vertices():
    """The slice restricts to proper subtrees, not only to whole trees, and
    reaches components whose closure is empty."""
    dropped = empty = 0
    for index in range(400):
        sh, decomps = starsize_differential.make_case(starsize_differential.DEFAULT_SEED + index)
        for comp in s_components(sh):
            if not comp.closure:
                empty += 1
                continue
            for _, d in decomps:
                dropped += len(induced_decomposition(sh.hypergraph, d, comp.closure).nodes) < len(d.nodes)
    assert dropped > 100
    assert empty >= 5


def _check_acyclic(seed, tally):
    """The ACYCLIC check of one case, against BRUTE's sizes."""
    sh = starsize_differential.make_s_hypergraph(seed)
    tally.describe = lambda: starsize_differential._describe(sh)
    sizes = [w.size for w in s_star_size(sh, ISMethod.BRUTE)[1]]
    starsize_differential.check_acyclic(sh, sizes, tally)


def test_acyclic_slice_matches_the_per_component_route_and_brute_force():
    """Every ACYCLIC outcome, witness or error, is the old per-component
    route's; sizes are BRUTE's and covers are as large as their stars.
    The slice meets cyclic components as well as acyclic ones."""
    tally = differential_runner.run(_check_acyclic, 3000, starsize_differential.DEFAULT_SEED)
    assert tally.bad == []
    assert tally.seen["acyclic"] >= 2000 and tally.seen["cyclic"] >= 300, tally.seen
    assert tally.checks >= 2 * 3000
