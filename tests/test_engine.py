import pytest

from cqstar.decomposition import (
    DecompKind,
    DecompNode,
    Decomposition,
    NotAcyclic,
    ghd_search,
    gyo_join_tree,
    hinge_decompose,
    integralize,
)
from cqstar.engine import (
    QueryInstance,
    Relation,
    Structure,
    atom_relation,
    boolean_acq,
    count_acyclic_qf,
    count_brute,
    count_cq_via_fractional,
    count_cq_via_ghd,
    enumerate_is,
    natural_join,
    project,
    select,
)
from cqstar.errors import (
    BindError,
    NotQuantifierFree,
    TooLarge,
    UnknownVariable,
    WidthNotOne,
)
from cqstar.generators import SplitMix64, gen_random_instance
from cqstar.hypergraph import Atom, Hypergraph, Query, from_query

from oracles import count_by_full_join


def rel(name, schema, rows):
    return Relation.from_rows(name, schema, rows)


def structure(domain, *relations):
    return Structure(tuple(domain), {r.name: r for r in relations})


def instance(head_vars, atoms, struct):
    return QueryInstance(Query("ans", tuple(head_vars), tuple(atoms)), struct)


E1E2 = structure(
    ("a", "b", "c", "1", "2"),
    rel("E1", ("c0", "c1"), [(0, 3), (1, 3)]),
    rel("E2", ("c0", "c1"), [(0, 3), (2, 4)]),
)
E1E2_INSTANCE = instance(
    ("y1", "y2"),
    (Atom("E1", ("y1", "z")), Atom("E2", ("y2", "z"))),
    E1E2,
)


def auto_ghd(inst):
    h = from_query(inst.query).hypergraph
    jt = gyo_join_tree(h)
    if not isinstance(jt, NotAcyclic):
        return jt
    for k in range(2, len(h.dedup_edges()) + 1):
        d = ghd_search(h, k)
        if d is not None:
            return d
    raise AssertionError("no decomposition found")


# -- relational operators -------------------------------------------------------


def test_natural_join_basics():
    r = rel("R", ("x", "y"), [(0, 1), (0, 2)])
    s = rel("S", ("y", "z"), [(1, 3)])
    joined = natural_join(r, s)
    assert joined.schema == ("x", "y", "z")
    assert joined.rows == frozenset({(0, 1, 3)})

    empty = rel("T", ("y", "w"), [])
    assert natural_join(r, empty).rows == frozenset()

    t = rel("U", ("p",), [(7,), (8,)])
    product = natural_join(r, t)
    assert len(product) == len(r) * len(t)


def test_project_and_select():
    r = rel("R", ("x", "y"), [(0, 1), (0, 2)])
    assert project(r, ("x",)).rows == frozenset({(0,)})
    assert select(r, {}).rows == r.rows
    assert select(r, {"x": 0}).rows == r.rows
    assert select(r, {"y": 1}).rows == frozenset({(0, 1)})
    with pytest.raises(UnknownVariable):
        project(r, ("zz",))
    with pytest.raises(UnknownVariable):
        select(r, {"zz": 0})


def test_atom_relation_repeated_vars():
    s = structure(("a", "b"), rel("R", ("c0", "c1"), [(0, 0), (0, 1)]))
    got = atom_relation(s, Atom("R", ("x", "x")))
    assert got.schema == ("x",)
    assert got.rows == frozenset({(0,)})


def test_instance_validation():
    with pytest.raises(BindError):
        instance(("x",), (Atom("R", ("x",)),), structure(("a",)))
    with pytest.raises(BindError):
        instance(
            ("x",),
            (Atom("R", ("x",)),),
            structure(("a",), rel("R", ("c0", "c1"), [(0, 0)])),
        )


# -- acyclic evaluation -----------------------------------------------------------


def path_instance(r_rows, s_rows):
    s = structure(
        ("a", "b", "c"),
        rel("R", ("c0", "c1"), r_rows),
        rel("S", ("c0", "c1"), s_rows),
    )
    return instance(("x", "y", "z"), (Atom("R", ("x", "y")), Atom("S", ("y", "z"))), s)


def test_boolean_acq():
    inst = path_instance([(0, 1)], [(1, 2)])
    jt = auto_ghd(inst)
    assert boolean_acq(inst, jt) is True

    inst2 = path_instance([(0, 1)], [(2, 2)])
    assert boolean_acq(inst2, auto_ghd(inst2)) is False

    inst3 = path_instance([], [(1, 2)])
    assert boolean_acq(inst3, auto_ghd(inst3)) is False


def test_boolean_acq_rejects_wide(tri):
    s = structure(
        ("a",),
        rel("R", ("c0", "c1"), [(0, 0)]),
        rel("S", ("c0", "c1"), [(0, 0)]),
        rel("T", ("c0", "c1"), [(0, 0)]),
    )
    inst = instance(
        ("x", "y", "z"),
        (Atom("R", ("x", "y")), Atom("S", ("y", "z")), Atom("T", ("z", "x"))),
        s,
    )
    wide = Decomposition(
        DecompKind.GHD,
        (DecompNode(0, None, frozenset({0, 1}), frozenset({"x", "y", "z"})),),
    )
    with pytest.raises(WidthNotOne):
        boolean_acq(inst, wide)


def test_count_acyclic_qf_examples():
    inst = instance(
        ("x", "y", "z"),
        (Atom("R", ("x", "y")), Atom("S", ("y", "z"))),
        structure(
            ("a", "b", "c", "d"),
            rel("R", ("c0", "c1"), [(0, 1), (0, 2)]),
            rel("S", ("c0", "c1"), [(1, 3)]),
        ),
    )
    result = count_acyclic_qf(inst, auto_ghd(inst))
    assert result.count == 1
    assert result.count == count_by_full_join(inst)

    single = instance(
        ("x", "y"),
        (Atom("R", ("x", "y")),),
        structure(("a", "b"), rel("R", ("c0", "c1"), [(0, 1), (1, 0), (0, 1)])),
    )
    assert count_acyclic_qf(single, auto_ghd(single)).count == 2

    idem = instance(
        ("x", "y"),
        (Atom("R", ("x", "y")), Atom("R", ("x", "y"))),
        structure(("a", "b"), rel("R", ("c0", "c1"), [(0, 1), (1, 0)])),
    )
    assert count_acyclic_qf(idem, auto_ghd(idem)).count == 2


def test_count_acyclic_qf_rejects_quantified():
    inst = path_instance([(0, 1)], [(1, 2)])
    quantified = QueryInstance(
        Query("ans", ("x",), inst.query.atoms), inst.structure
    )
    with pytest.raises(NotQuantifierFree):
        count_acyclic_qf(quantified, auto_ghd(inst))


def test_count_acyclic_never_materializes_full_join():
    # two blocks joined through a shared variable: the full join is quadratic,
    # per-bag relations stay linear
    n = 40
    rows = [(i, n) for i in range(n)]
    s = structure(
        [f"v{i}" for i in range(n + 1)],
        rel("R", ("c0", "c1"), rows),
        rel("S", ("c0", "c1"), [(n, i) for i in range(n)]),
    )
    inst = instance(("x", "y", "z"), (Atom("R", ("x", "y")), Atom("S", ("y", "z"))), s)
    result = count_acyclic_qf(inst, auto_ghd(inst))
    assert result.count == n * n
    assert result.stats["max_intermediate"] <= 2 * n


# -- the quantified pipeline -------------------------------------------------------


def test_count_via_ghd_worked_example():
    d = auto_ghd(E1E2_INSTANCE)
    result = count_cq_via_ghd(E1E2_INSTANCE, d)
    assert result.count == 2  # (a,a) and (b,a)
    assert count_brute(E1E2_INSTANCE).count == 2


def test_count_boolean_degeneration():
    sat = instance(
        (),
        (Atom("R", ("x", "y")),),
        structure(("a", "b"), rel("R", ("c0", "c1"), [(0, 1)])),
    )
    assert count_cq_via_ghd(sat, auto_ghd(sat)).count == 1
    unsat = instance(
        (),
        (Atom("R", ("x", "y")),),
        structure(("a", "b"), rel("R", ("c0", "c1"), [])),
    )
    assert count_cq_via_ghd(unsat, auto_ghd(unsat)).count == 0


def test_count_quantifier_free_equals_acyclic():
    inst = path_instance([(0, 1), (1, 2)], [(1, 2), (2, 0)])
    d = auto_ghd(inst)
    assert count_cq_via_ghd(inst, d).count == count_acyclic_qf(inst, d).count


def test_count_fractional_matches_ghd():
    d = auto_ghd(E1E2_INSTANCE)
    frac = count_cq_via_fractional(E1E2_INSTANCE, integralize(d))
    assert frac.count == 2


def test_count_fractional_triangle_half_weights():
    from fractions import Fraction

    s = structure(
        ("a", "b"),
        rel("R", ("c0", "c1"), [(0, 1), (1, 0), (0, 0)]),
        rel("S", ("c0", "c1"), [(1, 0), (0, 0), (1, 1)]),
        rel("T", ("c0", "c1"), [(0, 0), (1, 0)]),
    )
    inst = instance(
        ("x", "y", "z"),
        (Atom("R", ("x", "y")), Atom("S", ("y", "z")), Atom("T", ("z", "x"))),
        s,
    )
    half = Fraction(1, 2)
    d = Decomposition(
        DecompKind.FRACTIONAL,
        (
            DecompNode(
                0,
                None,
                frozenset({0, 1, 2}),
                frozenset({"x", "y", "z"}),
                {0: half, 1: half, 2: half},
            ),
        ),
    )
    assert count_cq_via_fractional(inst, d).count == count_brute(inst).count


def test_count_empty_relation_gives_zero():
    s = structure(
        ("a",),
        rel("E1", ("c0", "c1"), [(0, 0)]),
        rel("E2", ("c0", "c1"), []),
    )
    inst = instance(
        ("y1", "y2"), (Atom("E1", ("y1", "z")), Atom("E2", ("y2", "z"))), s
    )
    assert count_cq_via_ghd(inst, auto_ghd(inst)).count == 0


def facts(domain_size, **rows):
    return structure(
        [str(i) for i in range(domain_size)],
        *(rel(name, [f"c{i}" for i in range(len(r[0]))], r) for name, r in rows.items()),
    )


# Instances whose quantified component exercises the boundary relation:
# (free vars, atoms, structure, count fixed by construction or None).
BOUNDARY_CASES = {
    # empty free boundary: the component only decides satisfiability
    "empty-boundary-sat": (
        ("x",),
        (Atom("A", ("x",)), Atom("R", ("u", "v")), Atom("S", ("v", "w"))),
        facts(3, A=[(0,), (1,)], R=[(0, 1)], S=[(1, 2)]),
        2,
    ),
    "empty-boundary-unsat": (
        ("x",),
        (Atom("A", ("x",)), Atom("R", ("u", "v")), Atom("S", ("v", "w"))),
        facts(3, A=[(0,), (1,)], R=[(0, 1)], S=[(2, 0)]),
        0,
    ),
    # three free arms on the core z, and a quantified chain w-u-t off it,
    # so the component's bag tree branches
    "branching": (
        ("y1", "y2", "y3"),
        (
            Atom("C", ("z", "w")),
            Atom("A1", ("z", "y1")),
            Atom("A2", ("z", "y2")),
            Atom("A3", ("z", "y3")),
            Atom("D", ("w", "u")),
            Atom("E", ("u", "t")),
        ),
        facts(
            3,
            C=[(0, 0), (1, 1), (2, 0)],
            A1=[(0, 0), (0, 1), (1, 2), (2, 2)],
            A2=[(0, 1), (1, 1), (2, 2), (2, 0)],
            A3=[(0, 2), (2, 0), (1, 1)],
            D=[(0, 1), (1, 2)],
            E=[(1, 0), (1, 2)],
        ),
        None,
    ),
    # a repeated variable inside the component
    "repeated-variable": (
        ("y",),
        (Atom("R", ("y", "z")), Atom("S", ("z", "z"))),
        facts(3, R=[(0, 0), (1, 1), (2, 1), (2, 2)], S=[(0, 0), (0, 1), (1, 1)]),
        None,
    ),
}


@pytest.mark.parametrize("case", sorted(BOUNDARY_CASES))
def test_count_boundary_relation_cases(case):
    free, atoms, struct, fixed = BOUNDARY_CASES[case]
    inst = instance(free, atoms, struct)
    expected = count_brute(inst).count
    if fixed is not None:
        assert expected == fixed
    for d in (auto_ghd(inst), hinge_decompose(from_query(inst.query).hypergraph)):
        assert count_cq_via_ghd(inst, d).count == expected
        assert count_cq_via_fractional(inst, integralize(d)).count == expected


def test_count_invariant_under_atom_permutation_and_renaming():
    base = instance(
        ("y1", "y2"),
        (Atom("E1", ("y1", "z")), Atom("E2", ("y2", "z"))),
        E1E2,
    )
    flipped = instance(
        ("y1", "y2"),
        (Atom("E2", ("y2", "z")), Atom("E1", ("y1", "z"))),
        E1E2,
    )
    renamed = instance(
        ("y1", "y2"),
        (Atom("E1", ("y1", "w")), Atom("E2", ("y2", "w"))),
        E1E2,
    )
    expected = count_brute(base).count
    for inst in (base, flipped, renamed):
        assert count_cq_via_ghd(inst, auto_ghd(inst)).count == expected


def test_count_brute_examples():
    assert count_brute(E1E2_INSTANCE).count == 2
    single = instance(
        ("x", "y"),
        (Atom("R", ("x", "y")),),
        structure(("a", "b"), rel("R", ("c0", "c1"), [(0, 1), (1, 1)])),
    )
    assert count_brute(single).count == 2
    with pytest.raises(TooLarge):
        count_brute(single, max_assignments=1)


def test_oracle_equivalence_random_instances():
    rng = SplitMix64(123456)
    agree = 0
    while agree < 150:
        inst = gen_random_instance(
            variables=1 + rng.below(6),
            atoms=1 + rng.below(5),
            max_arity=3,
            domain=1 + rng.below(4),
            seed=rng.next_u64(),
        )
        expected = count_brute(inst).count
        assert expected == count_by_full_join(inst)
        d = auto_ghd(inst)
        assert count_cq_via_ghd(inst, d).count == expected
        assert count_cq_via_fractional(inst, integralize(d)).count == expected
        hinge = hinge_decompose(from_query(inst.query).hypergraph)
        assert count_cq_via_ghd(inst, hinge).count == expected
        agree += 1


def test_enumerate_is(tri):
    got = list(enumerate_is(tri))
    assert got == [frozenset(), frozenset("a"), frozenset("b"), frozenset("c")]

    pair = Hypergraph("ab")
    assert len(list(enumerate_is(pair))) == 4

    edge = Hypergraph("ab", [("e", {"a", "b"})])
    assert list(enumerate_is(edge)) == [frozenset(), frozenset("a"), frozenset("b")]

    seen = list(enumerate_is(tri))
    assert len(seen) == len(set(seen))


def test_count_fractional_quantified_triangle():
    from fractions import Fraction

    s = structure(
        ("a", "b", "c"),
        rel("R", ("c0", "c1"), [(0, 1), (1, 2), (0, 0), (2, 1)]),
        rel("S", ("c0", "c1"), [(1, 2), (2, 0), (0, 0)]),
        rel("T", ("c0", "c1"), [(2, 0), (0, 0), (1, 0)]),
    )
    inst = instance(
        ("x",),
        (Atom("R", ("x", "y")), Atom("S", ("y", "z")), Atom("T", ("z", "x"))),
        s,
    )
    half = Fraction(1, 2)
    d = Decomposition(
        DecompKind.FRACTIONAL,
        (
            DecompNode(
                0,
                None,
                frozenset({0, 1, 2}),
                frozenset({"x", "y", "z"}),
                {0: half, 1: half, 2: half},
            ),
        ),
    )
    assert count_cq_via_fractional(inst, d).count == count_brute(inst).count


def test_count_acyclic_qf_disconnected():
    s = structure(
        ("a", "b", "c"),
        rel("R", ("c0",), [(0,), (1,)]),
        rel("S", ("c0",), [(2,)]),
    )
    inst = instance(("x", "y"), (Atom("R", ("x",)), Atom("S", ("y",))), s)
    jt = gyo_join_tree(from_query(inst.query).hypergraph)
    assert count_acyclic_qf(inst, jt).count == 2


def test_count_fractional_random_hinge_weights():
    rng = SplitMix64(5150)
    for _ in range(60):
        inst = gen_random_instance(
            variables=1 + rng.below(7),
            atoms=1 + rng.below(6),
            max_arity=3,
            domain=1 + rng.below(4),
            seed=rng.next_u64(),
        )
        h = from_query(inst.query).hypergraph
        frac = integralize(hinge_decompose(h))
        assert count_cq_via_fractional(inst, frac).count == count_brute(inst).count
