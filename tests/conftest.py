import gc

import pytest

from cqstar.hypergraph import Atom, Hypergraph, Query, from_query


@pytest.fixture(autouse=True)
def collector_enabled_after_each_test():
    """Fail any test that ends with Python's cyclic collector disabled, as a
    code path that leaks the pause of ``engine._collector_paused`` would
    leave it; the collector is enabled again for the tests that follow."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test ended with the cyclic collector disabled")


# The running example: eight atoms over v1..v9 (free) and u1..u8 (quantified).
EX1_TEXT = (
    "ans(v1, v2, v3, v4, v5, v6, v7, v8, v9) :- "
    "P1(v1, u1), P2(v2, u1, u2), P3(v2, v4, u2, u3), "
    "P4(v3, v4, v5, u3, u4, u5), P5(v4, v5, v6, v8), "
    "P6(v7, v8, u5, u6), P2(v6, v9, u7), P2(v8, v9, u8)."
)


def ex1_query() -> Query:
    atoms = (
        Atom("P1", ("v1", "u1")),
        Atom("P2", ("v2", "u1", "u2")),
        Atom("P3", ("v2", "v4", "u2", "u3")),
        Atom("P4", ("v3", "v4", "v5", "u3", "u4", "u5")),
        Atom("P5", ("v4", "v5", "v6", "v8")),
        Atom("P6", ("v7", "v8", "u5", "u6")),
        Atom("P2", ("v6", "v9", "u7")),
        Atom("P2", ("v8", "v9", "u8")),
    )
    return Query("ans", tuple(f"v{i}" for i in range(1, 10)), atoms)


@pytest.fixture
def ex1():
    return from_query(ex1_query())


@pytest.fixture
def tri():
    return Hypergraph("abc", [("ab", {"a", "b"}), ("bc", {"b", "c"}), ("ca", {"c", "a"})])


@pytest.fixture
def path3():
    return Hypergraph(
        "abcd", [("ab", {"a", "b"}), ("bc", {"b", "c"}), ("cd", {"c", "d"})]
    )
