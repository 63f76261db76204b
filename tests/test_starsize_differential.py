"""The cases of ``starsize_differential.py`` reach what they are there for;
its slice is in ``test_differential_runner.py``."""

from cqstar.decomposition import induced_decomposition
from cqstar.hypergraph import s_components

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
