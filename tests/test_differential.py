"""The families of ``differential.py`` reach the paths they are there for;
its slice is in ``test_differential_runner.py``."""

from fractions import Fraction

from cqstar.decomposition import DecompKind, ensure_valid, hinge_decompose
from cqstar.engine import count_cq_via_ghd
from cqstar.hypergraph import from_query

import differential


def _sources(family: str) -> list[str]:
    index = list(differential.FAMILIES).index(family)
    inst = differential.make_case(differential.DEFAULT_SEED + index).inst
    hinge = hinge_decompose(from_query(inst.query).hypergraph)
    return [p["source"] for p in count_cq_via_ghd(inst, hinge).stats["pieces"]]


def test_cycle_families_reach_their_pieces():
    """Each cycle family runs the path it is there for, even on a hingetree."""
    two = _sources("cycle-2-free")
    assert set(two) == {"own-jointree"} and len(two) == 3
    three = _sources("cycle-3-free")
    assert three == ["own-jointree"] * 3 + ["restricted"]
    # the boundary-only edge x0 - x1 is left out of the core piece, a path
    assert _sources("cycle-adjacent-free") == ["own-jointree", "own-jointree"]
    # the core piece is the whole cycle, and the restriction joins U too
    assert _sources("cycle-free-atom") == ["restricted", "own-jointree"]


def test_cycle_ghd_is_a_width_two_ghd():
    for n in range(4, 8):
        inst = differential.cycle_instance(differential.SplitMix64(n), n, ())
        h = from_query(inst.query).hypergraph
        report = ensure_valid(h, differential.cycle_ghd(n), (DecompKind.GHD,))
        assert report.width == 2


def test_half_weights_is_a_width_five_halves_fractional_decomposition():
    for n in range(5, 8):
        inst = differential.cycle_instance(differential.SplitMix64(n), n, ())
        h = from_query(inst.query).hypergraph
        report = ensure_valid(h, differential.half_weights(n), (DecompKind.FRACTIONAL,))
        assert report.width == Fraction(5, 2)
