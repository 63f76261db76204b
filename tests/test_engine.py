from collections import Counter
from itertools import product

import pytest

from cqstar import decomposition as dec, engine
from cqstar.decomposition import (
    DecompKind,
    DecompNode,
    Decomposition,
    NotAcyclic,
    ensure_valid,
    ghd_search,
    guarded,
    gyo_join_tree,
    hinge_decompose,
    tree_decompose,
)
from cqstar.engine import (
    QueryInstance,
    Relation,
    Structure,
    atom_relation,
    count_brute,
    count_cq_via_fractional,
    count_cq_via_ghd,
    natural_join,
    project,
    semijoin,
)
from cqstar.errors import (
    BindError,
    DecompositionInvalid,
    TooLarge,
    UnknownVariable,
)
from cqstar.generators import SimpleGraph, SplitMix64, gen_clique_star_instance, gen_random_instance
from cqstar.hypergraph import Atom, Hypergraph, Query, from_query, s_components
from cqstar.parser import parse_facts, parse_query

from oracles import (
    count_by_full_join,
    count_k_cliques,
    integralize,
    natural_join_onto_reference,
    natural_join_reference,
    project_reference,
    touching_reference,
)


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


def count_qf(inst, d):
    """The count of the quantifier-free ``inst`` along ``d``, and its bag
    sizes, from the pipeline's last step, ``engine.count_acyclic_qf``, given
    what the pipeline gives it: ``d`` verified and guarded, and the atoms
    bound by edge id."""
    h = from_query(inst.query).hypergraph
    ensure_valid(h, d, tuple(DecompKind))
    return engine.count_acyclic_qf(engine._bind(inst), guarded(h, d))


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


def test_natural_join_onto_keeps_the_columns_of_the_variables():
    r = rel("R", ("x", "y"), [(0, 1), (0, 2), (5, 2)])
    s = rel("S", ("y", "z"), [(1, 3), (2, 3)])
    joined = natural_join(r, s, "J", onto={"x", "z"})
    assert (joined.name, joined.schema, joined.rows) == ("J", ("x", "z"), frozenset({(0, 3), (5, 3)}))
    assert natural_join(r, s, onto=()).rows == frozenset({()})
    assert natural_join(r, s, onto=("x", "y", "z")) == natural_join(r, s)
    # a repeated variable keeps both of its columns, which need not agree
    a = rel("A", ("b", "c", "f", "f"), [(0, 1, 2, 3), (0, 1, 4, 4), (1, 0, 2, 2)])
    b = rel("B", ("b", "e", "c"), [(0, 7, 1), (1, 8, 0), (1, 9, 1)])
    for onto in ({"f"}, {"f", "e"}, {"b", "f"}):
        assert natural_join(a, b, onto=onto) == natural_join_onto_reference(a, b, onto)
        assert natural_join(b, a, onto=onto) == natural_join_onto_reference(b, a, onto)
    assert natural_join(a, b, onto={"f"}).rows == frozenset({(2, 3), (4, 4), (2, 2)})


def test_natural_join_that_adds_no_column_is_the_semijoin(monkeypatch):
    """When s keeps no column beyond the shared ones, with or without
    ``onto``, the join takes the semijoin's filter and gives its rows."""
    r = rel("R", ("x", "y", "z"), [(0, 1, 2), (0, 2, 2), (1, 1, 3), (2, 0, 0)])
    s = rel("S", ("z", "x"), [(2, 0), (3, 0), (0, 2)])
    t = rel("T", ("y", "w"), [(1, 5), (1, 6), (9, 9)])
    filtered = []
    matching = engine._matching
    monkeypatch.setattr(engine, "_matching", lambda *args: filtered.append(args) or matching(*args))
    joined = natural_join(r, s)
    assert (joined.name, joined.schema) == ("(R*S)", r.schema)
    assert joined.rows == semijoin(r, s).rows == frozenset({(0, 1, 2), (0, 2, 2), (2, 0, 0)})
    # t's column w is cut by onto, so t adds nothing either
    assert natural_join(r, t, "N", onto={"x", "z"}) == Relation("N", ("x", "z"), frozenset({(0, 2), (1, 3)}))
    assert len(filtered) == 3
    assert natural_join(r, t).schema == ("x", "y", "z", "w") and len(filtered) == 3


def test_project():
    r = rel("R", ("x", "y"), [(0, 1), (0, 2)])
    assert project(r, ("x",)).rows == frozenset({(0,)})
    with pytest.raises(UnknownVariable):
        project(r, ("zz",))


def test_identity_projection_shares_rows():
    """Relations are frozen, so an identity projection returns its input, and
    a renamed one shares the input's rows."""
    r = rel("R", ("x", "y"), [(0, 1), (0, 2)])
    assert project(r, r.schema) is r
    assert project(r, list(r.schema), "R") is r
    renamed = project(r, r.schema, "P")
    assert (renamed.name, renamed.schema) == ("P", r.schema)
    assert renamed.rows is r.rows
    reordered = project(r, ("y", "x"))
    assert reordered.rows == frozenset({(1, 0), (2, 0)})


def test_relation_width_check_names_the_row():
    with pytest.raises(ValueError) as info:
        Relation("R", ("x", "y"), frozenset({(0, 1), (2,)}))
    assert str(info.value) == "row (2,) does not match schema ('x', 'y')"
    assert len(Relation("E", (), frozenset({()}))) == 1


def test_structure_range_check_names_the_first_bad_value():
    """The range is checked with one min and max over every value; the
    message names the first value out of range, in relation and row order."""
    with pytest.raises(ValueError) as info:
        structure(("a", "b"), rel("R", ("c0",), [(1,)]), rel("S", ("c0", "c1"), [(0, 7)]))
    assert str(info.value) == "value id 7 outside domain of size 2"
    with pytest.raises(ValueError) as info:
        structure(("a",), rel("R", ("c0", "c1"), [(0, -1)]))
    assert str(info.value) == "value id -1 outside domain of size 1"
    assert len(structure((), rel("Z", (), [()])).relations) == 1


def test_parsed_structures_meet_the_checks_they_skip():
    """``parse_facts`` builds through ``engine._relation`` and
    ``engine._structure``, which skip the width and range checks; its output
    passes them when built again, and the checked constructors still reject
    a domain too short for its rows or a schema too narrow for them."""
    s = parse_facts("P(a, b).\nQ(c).\nP(b, c).\nZ().\n")
    assert Structure(s.domain, {name: Relation(r.name, r.schema, r.rows) for name, r in s.relations.items()}) == s
    with pytest.raises(ValueError) as info:
        Structure(s.domain[:-1], s.relations)
    assert str(info.value) == "value id 2 outside domain of size 2"
    with pytest.raises(ValueError):
        Relation("P", ("c0",), s.relations["P"].rows)


def test_atom_relation_checks_the_atom_arity():
    """Operator outputs skip the row-width check, so a wrong arity is caught
    where the atom meets its relation."""
    s = structure(("a", "b"), rel("R", ("c0", "c1"), [(0, 1)]))
    with pytest.raises(BindError, match="atom 'R' has arity 1, relation has arity 2"):
        atom_relation(s, Atom("R", ("x",)))


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
    count, _ = count_qf(inst, auto_ghd(inst))
    assert count == 1
    assert count == count_by_full_join(inst)

    single = instance(
        ("x", "y"),
        (Atom("R", ("x", "y")),),
        structure(("a", "b"), rel("R", ("c0", "c1"), [(0, 1), (1, 0), (0, 1)])),
    )
    assert count_qf(single, auto_ghd(single))[0] == 2

    idem = instance(
        ("x", "y"),
        (Atom("R", ("x", "y")), Atom("R", ("x", "y"))),
        structure(("a", "b"), rel("R", ("c0", "c1"), [(0, 1), (1, 0)])),
    )
    assert count_qf(idem, auto_ghd(idem))[0] == 2

    # the root row (5, 2) of R(w, x) extends into S but dangles at T
    chain = instance(
        ("w", "x", "y", "z"),
        (Atom("R", ("w", "x")), Atom("S", ("x", "y")), Atom("T", ("y", "z"))),
        structure(
            tuple("abcdefghi"),
            rel("R", ("c0", "c1"), [(0, 1), (5, 2)]),
            rel("S", ("c0", "c1"), [(1, 3), (1, 7), (2, 4)]),
            rel("T", ("c0", "c1"), [(3, 6), (7, 6), (7, 8)]),
        ),
    )
    path = Decomposition(
        DecompKind.JOINTREE,
        (
            DecompNode(0, None, frozenset({0}), frozenset({"w", "x"})),
            DecompNode(1, 0, frozenset({1}), frozenset({"x", "y"})),
            DecompNode(2, 1, frozenset({2}), frozenset({"y", "z"})),
        ),
    )
    count, _ = count_qf(chain, path)
    assert count == 3
    assert count == count_by_full_join(chain)

    # no bag holds both variables of S(y, z)
    broken = Decomposition(
        DecompKind.JOINTREE,
        (
            DecompNode(0, None, frozenset({0}), frozenset({"x", "y"})),
            DecompNode(1, 0, frozenset({1}), frozenset({"z"})),
        ),
    )
    with pytest.raises(DecompositionInvalid):
        count_cq_via_ghd(inst, broken)


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
    count, sizes = count_qf(inst, auto_ghd(inst))
    assert count == n * n
    assert max(sizes) <= 2 * n


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
    assert count_cq_via_ghd(inst, d).count == count_qf(inst, d)[0]


def test_count_fractional_matches_ghd():
    d = auto_ghd(E1E2_INSTANCE)
    frac = count_cq_via_fractional(E1E2_INSTANCE, integralize(d))
    assert frac.count == 2


def test_one_pipeline_counts_along_a_tree_decomposition():
    """``count_cq_via_fractional`` is the same function as ``count_cq_via_ghd``.
    It takes a tree decomposition, which it guards before reading it; the
    method reads ``fractional`` only for a fractional decomposition."""
    assert count_cq_via_fractional is count_cq_via_ghd
    for seed in range(40):
        inst = gen_random_instance(variables=4, atoms=4, max_arity=3, domain=3, seed=seed)
        h = from_query(inst.query).hypergraph
        tree = tree_decompose(h)
        result = count_cq_via_ghd(inst, tree)
        assert (result.count, result.method) == (count_brute(inst).count, "ghd")
        assert count_cq_via_ghd(inst, integralize(hinge_decompose(h))).method == "fractional"
        free = QueryInstance(Query("ans", inst.query.variables(), inst.query.atoms), inst.structure)
        assert count_qf(free, tree)[0] == count_brute(free).count


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
        all_free = QueryInstance(Query("ans", inst.query.variables(), inst.query.atoms), inst.structure)
        expected_qf = count_brute(all_free).count
        for dd in (d, hinge, integralize(d)):
            assert count_qf(all_free, dd)[0] == expected_qf
        agree += 1


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


def cycle_instance(n, free):
    """ans(free) over the n-cycle x0 - x1 - ... - x0, every edge one relation E."""
    e = rel("E", ("c0", "c1"), [(0, 1), (1, 2), (2, 0), (0, 0), (1, 1)])
    atoms = tuple(Atom("E", (f"x{i}", f"x{(i + 1) % n}")) for i in range(n))
    return instance(free, atoms, structure(("a", "b", "c"), e))


OWN = {"kind": "jointree", "width": 1, "source": "own-jointree"}


def test_pieces_acyclic_components_get_own_join_trees():
    # free x0, x3: two path components, and the rewritten query is two
    # parallel edges on {x0, x3}; the width-6 hingetree is never used
    inst = cycle_instance(6, ("x0", "x3"))
    hinge = hinge_decompose(from_query(inst.query).hypergraph)
    assert hinge.raw_width() == 6
    expected = count_brute(inst).count
    result = count_cq_via_ghd(inst, hinge)
    assert result.count == expected
    assert result.stats["pieces"] == [OWN, OWN, OWN]
    result = count_cq_via_fractional(inst, integralize(hinge))
    assert result.count == expected
    assert result.stats["pieces"] == [OWN] * 3

    # free x0, x2, x4: the rewritten query is a triangle, which falls back
    # to the rewritten hingetree
    inst = cycle_instance(6, ("x0", "x2", "x4"))
    result = count_cq_via_ghd(inst, hinge)
    assert result.count == count_brute(inst).count
    assert result.stats["pieces"] == [OWN] * 3 + [{"kind": "ghd", "width": 3, "source": "restricted"}]


def test_fractional_pipeline_along_integralized_reports_the_ghd_stats():
    """Every kind is materialized and rewritten the same way, so the weights
    of 1 on each guard edge change nothing but the kind of the restricted
    piece: here the rewritten triangle, counted along the rewritten
    hingetree."""
    inst = cycle_instance(6, ("x0", "x2", "x4"))
    hinge = hinge_decompose(from_query(inst.query).hypergraph)
    ghd = count_cq_via_ghd(inst, hinge).stats
    frac = count_cq_via_fractional(inst, integralize(hinge)).stats
    assert ghd["pieces"][-1] == {"kind": "ghd", "width": 3, "source": "restricted"}
    assert frac == dict(ghd, pieces=[OWN] * 3 + [{"kind": "fractional", "width": 3, "source": "restricted"}])


def test_pieces_cyclic_component_restricts_the_decomposition():
    # free x0: the one component's core piece is the whole cycle, so it runs
    # on the restricted hingetree; the rewritten query is acyclic
    inst = cycle_instance(5, ("x0",))
    hinge = hinge_decompose(from_query(inst.query).hypergraph)
    result = count_cq_via_ghd(inst, hinge)
    assert result.count == count_brute(inst).count
    assert result.stats["pieces"] == [{"kind": "hinge", "width": 5, "source": "restricted"}, OWN]
    assert len(result.stats["cover_sizes"]) == 1


def test_pieces_adjacent_free_cycle_leaves_out_the_boundary_only_edge():
    # free x0, x1: the core piece drops E(x0, x1), so the component is the
    # path x1 - ... - x0 along its own join tree, and E(x0, x1) is joined
    # only by the final count; no bag outgrows an atom relation
    inst = cycle_instance(5, ("x0", "x1"))
    hinge = hinge_decompose(from_query(inst.query).hypergraph)
    result = count_cq_via_ghd(inst, hinge)
    assert result.count == count_brute(inst).count
    assert result.stats["pieces"] == [OWN, OWN]
    largest = max(len(rel) for rel in inst.structure.relations.values())
    assert max(max(sizes) for sizes in result.stats["bag_sizes"]) <= largest


def test_pieces_build_no_hypergraph_and_run_gyo_once_each(monkeypatch):
    """With free x0 and x3, each of the 6-cycle's two path components and
    the rewritten query is reduced by one GYO run over edges read off the
    query's own hypergraph, the one ``Hypergraph`` the count builds. With
    free x0 alone the core piece is the whole cycle: its one run finds it
    cyclic, and no kernel hypergraph is built."""
    calls = Counter()

    def counting(name, call):
        def counted(*args, **kwargs):
            calls[name] += 1
            return call(*args, **kwargs)
        return counted

    for free, sources in ((("x0", "x3"), ["own-jointree"] * 3), (("x0",), ["restricted", "own-jointree"])):
        inst = cycle_instance(6, free)
        hinge = hinge_decompose(from_query(inst.query).hypergraph)
        expected = count_brute(inst).count
        calls.clear()
        with monkeypatch.context() as patched:
            patched.setattr(dec, "_gyo", counting("_gyo", dec._gyo))
            patched.setattr(Hypergraph, "_index", counting("Hypergraph", Hypergraph._index))
            result = count_cq_via_ghd(inst, hinge)
        assert result.count == expected
        assert [p["source"] for p in result.stats["pieces"]] == sources
        assert calls == {"Hypergraph": 1, "_gyo": len(sources)}


def test_single_atom_bag_keeps_the_atom_relation(monkeypatch):
    """A node whose one part is one atom over exactly its bag keeps that
    atom's rows and column order under the bag's name, with no join and no
    projection: ``S(c, b)`` keeps ``(c, b)``, though ``b`` comes first in
    the query."""
    e = [(0, 1), (1, 1), (2, 0)]
    inst = instance(("a", "c"), [Atom("R", ("a", "b")), Atom("S", ("c", "b"))],
                    structure("xyz", rel("R", ("c0", "c1"), e), rel("S", ("c0", "c1"), e[1:])))
    jt = gyo_join_tree(from_query(inst.query).hypergraph)
    rels = engine._bind(inst)
    monkeypatch.setattr(engine, "project", None)
    monkeypatch.setattr(engine, "natural_join", None)
    bags = engine._bag_materialize(rels, jt)
    assert {n: (r.name, r.schema, r.rows) for n, r in bags.items()} == {
        0: ("b0", ("a", "b"), rels[0].rows),
        1: ("b1", ("c", "b"), rels[1].rows),
    }


def test_count_acyclic_qf_disconnected():
    s = structure(
        ("a", "b", "c"),
        rel("R", ("c0",), [(0,), (1,)]),
        rel("S", ("c0",), [(2,)]),
    )
    inst = instance(("x", "y"), (Atom("R", ("x",)), Atom("S", ("y",))), s)
    jt = gyo_join_tree(from_query(inst.query).hypergraph)
    assert count_qf(inst, jt)[0] == 2


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


def _record_joins(monkeypatch) -> list:
    """One ``(jt, out, joins)`` per ``_join_project`` call, where ``joins``
    lists the ``natural_join`` results built during it, in order."""
    calls: list = []
    inside: list = []
    join, join_project = engine.natural_join, engine._join_project

    def recorded_join(*args, **kwargs):
        result = join(*args, **kwargs)
        if inside:
            inside[-1].append(result)
        return result

    def recorded_join_project(jt, rels, out, name):
        calls.append((jt, out, []))
        inside.append(calls[-1][2])
        try:
            return join_project(jt, rels, out, name)
        finally:
            inside.pop()

    monkeypatch.setattr(engine, "natural_join", recorded_join)
    monkeypatch.setattr(engine, "_join_project", recorded_join_project)
    return calls


def test_join_phase_builds_each_node_result_already_projected(monkeypatch):
    """On a component whose core piece is the path y1 - z1 - z2 - {y2, y3},
    which is no star, each node's result, the output of its last join,
    holds only the output variables and the parent's bag: neither
    quantified variable reaches the root. The root's result is exactly the
    free variables."""
    pairs = [(i, j) for i in range(4) for j in range(4)]
    s = structure(
        "0123",
        rel("A", ("c0", "c1"), [p for p in pairs if (p[0] + p[1]) % 3]),
        rel("B", ("c0", "c1"), [p for p in pairs if p[0] < p[1]]),
        rel("C", ("c0", "c1"), [p for p in pairs if (p[0] * p[1]) % 2 == 0]),
        rel("D", ("c0", "c1"), [p for p in pairs if p[0] < p[1]]),
    )
    atoms = (Atom("A", ("y1", "z1")), Atom("B", ("z1", "z2")), Atom("C", ("z2", "y2")), Atom("D", ("z2", "y3")))
    inst = instance(("y1", "y2", "y3"), atoms, s)
    jt = gyo_join_tree(from_query(inst.query).hypergraph)
    calls = _record_joins(monkeypatch)
    assert count_cq_via_ghd(inst, jt).count == count_brute(inst).count == 20
    assert calls and any(joins for _, _, joins in calls)
    for tree, out, joins in calls:
        children = tree.children_map()
        results = iter(joins)
        for node in tree.post_order():
            kids = children[node.node_id]
            if not kids:
                continue
            for _ in kids:
                result = next(results)
            if node.parent is None:
                assert set(result.schema) == set(out)
            else:
                parent_bag = next(n.bag for n in tree.nodes if n.node_id == node.parent)
                assert set(result.schema) <= set(out) | parent_bag
        assert next(results, None) is None


def test_bag_join_drops_the_variables_outside_the_bag(monkeypatch):
    """A width-2 GHD of the 4-cycle whose bag {a, c, d} is guarded by
    E(a, b) and E(c, d): the bag's last join keeps only the bag, with no
    projection after it, and gives the bag relation that the references
    compute."""
    e = rel("E", ("c0", "c1"), [(i, j) for i in range(4) for j in range(4) if (i + 2 * j) % 3])
    struct = structure("0123", e)
    atoms = (Atom("E", ("a", "b")), Atom("E", ("b", "c")), Atom("E", ("c", "d")), Atom("E", ("d", "a")))
    inst = instance(("a", "b", "c", "d"), atoms, struct)
    ghd = Decomposition(
        DecompKind.GHD,
        (
            DecompNode(0, None, frozenset({0, 2}), frozenset("acd")),
            DecompNode(1, 0, frozenset({0, 1}), frozenset("abc")),
        ),
    )
    rels = engine._bind(inst)
    projected = []
    monkeypatch.setattr(engine, "project", lambda r, *args: projected.append(args) or project(r, *args))
    bags = engine._bag_materialize(rels, ghd)
    assert all(name != "b0" for _, name in projected)
    # edges 2 and 3 lie inside the bag, so they are joined at node 0 too
    want = rels[0]
    for i in (2, 3):
        want = natural_join_reference(want, rels[i])
    want = project_reference(want, ("a", "c", "d"))
    got = bags[0]
    assert got.name == "b0" and set(got.schema) == {"a", "c", "d"}
    assert project_reference(got, ("a", "c", "d")).rows == want.rows
    assert count_qf(inst, ghd)[0] == count_brute(inst).count


def test_ghd_bag_joins_drop_each_variable_no_later_part_holds(monkeypatch):
    """The 4-cycle over a complete E on n values has n**4 answers. Along the
    width-2 GHD that ``ghd_search`` finds, a bag {a, c, d} is guarded by
    E(a, b) and E(c, d), whose cross product would hold every answer; the
    first join drops b, which no later part holds, so no join exceeds n**3."""
    n = 6
    e = rel("E", ("c0", "c1"), [(i, j) for i in range(n) for j in range(n)])
    atoms = (Atom("E", ("a", "b")), Atom("E", ("b", "c")), Atom("E", ("c", "d")), Atom("E", ("d", "a")))
    inst = instance(("a", "b", "c", "d"), atoms, structure([str(i) for i in range(n)], e))
    ghd = ghd_search(from_query(inst.query).hypergraph, 2)
    sizes = []
    join = engine.natural_join
    monkeypatch.setattr(engine, "natural_join", lambda *args, **kw: sizes.append(len(r := join(*args, **kw))) or r)
    assert count_cq_via_ghd(inst, ghd).count == n**4
    assert sizes and max(sizes) <= n**3


def _star_instance(text: str, fixed) -> QueryInstance:
    """``text``'s query over relations on 3 values: those in ``fixed`` hold
    the rows it gives, and each other one each row with chance 2/3."""
    q = parse_query(text)
    rng = SplitMix64(4242)
    arity = {a.predicate: len(a.variables) for a in q.atoms}
    relations = [
        rel(p, [f"c{i}" for i in range(n)], fixed[p] if p in fixed else [r for r in product(range(3), repeat=n) if rng.chance(2, 3)])
        for p, n in arity.items()
    ]
    return QueryInstance(q, structure("abc", *relations))


def _component_routes(inst: QueryInstance) -> tuple:
    """For the one S-component of ``inst``, its bags along its core piece's
    own join tree, as the pipeline builds them: their star key, the
    relation ``_join_project`` builds, and the Yannakakis route's. The core
    piece is ``oracles.touching_reference``'s."""
    sh = from_query(inst.query)
    h = sh.hypergraph
    (comp,) = s_components(sh)
    piece = touching_reference(h, comp.core)
    jt = gyo_join_tree(piece)
    rels = engine._bind(inst)
    bags = engine._bag_materialize({e: rels[e] for e in piece.edge_ids()}, jt)
    out = tuple(v for v in h.vertices if v in comp.s_vertices)
    key = engine._star_key([bags[n.node_id] for n in jt.nodes])
    return key, engine._join_project(jt, bags, out, "c0"), engine._yannakakis(jt, bags, out, "c0")


# Component shapes: (query, the star key of its bags, or None for a near-star
# that must take the Yannakakis route, relations with fixed rows). The
# fixed rows make the filter drop a key value, and leave the second Boolean
# star no key value that both relations hold.
STAR_CASES = {
    "free-key-variable": ("ans(x, y1, y2) :- R(z, x, y1), S(y2, x, z).", ("z", "x"), {}),
    "private-quantified": ("ans(y1, y2) :- R(z, y1, w), S(z, y2).", ("z",), {}),
    "key-only-filter": ("ans(y1, y2) :- R(z, y1), S(z, y2), U(z).", ("z",), {"U": [(1,)]}),
    "empty-relation": ("ans(y1, y2, y3) :- R(z, y1), S(z, y2), T(z, y3).", ("z",), {"T": []}),
    "repeated-variable": ("ans(y1, y2) :- R(z, y1, y1), S(z, z, y2).", ("z",), {}),
    # R and R2 hold the same variables, so they share one bag
    "same-variable-set": ("ans(y1, y2) :- R(z, y1), R2(y1, z), S(z, y2).", ("z",), {}),
    "boolean": ("ans() :- R(z, y1), S(z, y2), T(y3, z).", ("z",), {}),
    "boolean-unsatisfied": ("ans() :- R(z, y1), S(z, y2).", ("z",), {"R": [(0, 0)], "S": [(1, 1)]}),
    "shared-non-key": ("ans(y1, y2, y3) :- R(z, y1, w), S(z, y2, w), T(z, y3).", None, {}),
    "no-common-key": ("ans(y1, y2) :- R(y1, z1), S(z1, z2), T(z2, y2).", None, {}),
}


@pytest.mark.parametrize("case", sorted(STAR_CASES))
def test_star_route_gives_the_yannakakis_relation(case):
    text, key, fixed = STAR_CASES[case]
    inst = _star_instance(text, fixed)
    got_key, relation, reference = _component_routes(inst)
    assert got_key == key
    assert relation == reference
    assert (relation.rows == frozenset()) == (case in ("empty-relation", "boolean-unsatisfied"))
    assert count_cq_via_ghd(inst, auto_ghd(inst)).count == count_brute(inst).count


def test_star_route_on_a_clique_star_instance(monkeypatch):
    """k = 4: the four atoms P_i(z, v_i) are a star on z, so no join and no
    semijoin runs, and the count is the closed form (the domain's
    composite values put brute force out of reach)."""
    g = SimpleGraph.from_pairs(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (1, 3), (0, 3), (1, 4)])
    inst = gen_clique_star_instance(g, 4)
    key, relation, reference = _component_routes(inst)
    assert key == ("z",) and relation == reference
    calls = _record_joins(monkeypatch)
    monkeypatch.setattr(engine, "semijoin", None)
    assert count_cq_via_ghd(inst, auto_ghd(inst)).count == 5**4 - 24 * count_k_cliques(g, 4)
    assert len(calls) == 1 and calls[0][2] == []
