"""The cases of ``hypergraph_differential.py`` reach every shape; its slice
is in ``test_differential_runner.py``."""

import hypergraph_differential


def test_slice_reaches_every_shape():
    """The slice meets S = {} and S = V, empty edges, repeated edge sets,
    isolated vertices, disconnected hypergraphs and int, str and mixed ids."""
    seen = dict.fromkeys(
        ["s-empty", "s-all", "empty-edge", "repeated-set", "isolated", "disconnected", "int", "str", "mixed"], 0
    )
    for index in range(min(hypergraph_differential.PINNED)):
        sh = hypergraph_differential.make_case(hypergraph_differential.DEFAULT_SEED + index)
        h = sh.hypergraph
        sets = [fs for _, fs in h.edges]
        kinds = {type(e) for e in h.edge_ids()}
        seen["s-empty"] += not sh.s and bool(h.vertices)
        seen["s-all"] += sh.s == frozenset(h.vertices) and bool(h.vertices)
        seen["empty-edge"] += frozenset() in sets
        seen["repeated-set"] += len(set(sets)) < len(sets)
        seen["isolated"] += any(not h.incident_edges(v) for v in h.vertices)
        seen["disconnected"] += len(h.connected_components()) > 1
        seen["int"] += kinds == {int}
        seen["str"] += kinds == {str}
        seen["mixed"] += kinds == {int, str}
    assert min(seen.values()) >= 50, seen
