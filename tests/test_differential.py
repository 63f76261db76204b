"""A fast seeded slice of the differential in ``differential.py``; the full
run is ``PYTHONPATH=src python tests/differential.py --instances 1500``."""

from cqstar.decomposition import DecompKind, ensure_valid, hinge_decompose
from cqstar.engine import count_cq_via_ghd
from cqstar.hypergraph import from_query

import differential


def test_differential_slice_has_no_mismatch():
    checks, trees, bad = differential.run(instances=350)
    assert bad == []
    assert checks > 5 * 350
    assert trees > 4 * 350


def _sources(family: str) -> list[str]:
    index = list(differential.FAMILIES).index(family)
    inst = differential.make_case(index, differential.DEFAULT_SEED).inst
    hinge = hinge_decompose(from_query(inst.query).hypergraph)
    return [p["source"] for p in count_cq_via_ghd(inst, hinge).stats["pieces"]]


def test_cycle_families_reach_their_pieces():
    """Each cycle family runs the path it is there for, even on a hingetree."""
    two = _sources("cycle-2-free")
    assert set(two) == {"own-jointree"} and len(two) == 3
    three = _sources("cycle-3-free")
    assert three == ["own-jointree"] * 3 + ["restricted"]
    assert _sources("cycle-adjacent-free") == ["restricted", "own-jointree"]


def test_cycle_ghd_is_a_width_two_ghd():
    for n in range(4, 8):
        inst = differential.cycle_instance(differential.SplitMix64(n), n, ())
        h = from_query(inst.query).hypergraph
        report = ensure_valid(h, differential.cycle_ghd(n), (DecompKind.GHD,))
        assert report.width == 2
