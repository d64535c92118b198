"""Color brackets, closures, series, center, the adjoint representation
and the bracket-power expansion, including the algebraic identities that
make the bracket a Lie color structure."""

import functools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from colorlie import (
    ColorAlgebra,
    Matrix,
    NotInAlgebra,
    ParentMismatch,
    Subspace,
    ad_map,
    ad_power_expand,
    ad_representation,
    bracket_closure,
    bracket_subspaces,
    center,
    color_bracket,
    compose,
    derived_series,
    eval_bicharacter,
    flatten_map,
    full_subspace,
    is_ideal,
    is_nilpotent_algebra,
    is_nilpotent_matrix,
    is_solvable,
    lower_central_series,
    make_bicharacter,
    make_group,
    make_map,
    make_space,
    nilpotent_implies_ad_nilpotent_check,
    scale_map,
)
from colorlie.graded import add_maps, identity_map
from corpus import (
    BOREL_GRADINGS,
    all_configs,
    borel_problem_generators,
    random_homogeneous_map,
    random_nil_instance,
    random_space,
    torsion_free_configs,
)

G0 = make_group(0, [])
R0 = make_bicharacter(G0, [])
E0 = G0.identity()


def gl(n):
    return make_space(G0, {E0: n})


def unit_map(space, i, j):
    n = space.total_dim
    rows = [[1 if (a, b) == (i, j) else 0 for b in range(n)] for a in range(n)]
    return make_map(space, E0, {E0: rows})


def heisenberg():
    v = gl(3)
    e12, e23, e13 = unit_map(v, 0, 1), unit_map(v, 1, 2), unit_map(v, 0, 2)
    return v, e12, e23, e13, bracket_closure(v, R0, [e12, e23])


def z3_abelian():
    g = make_group(0, [3])
    r = make_bicharacter(g, [[1]])
    degs = [g.element([k]) for k in range(3)]
    space = make_space(g, {d: 1 for d in degs})
    a = make_map(space, degs[2], {d: [[1]] for d in degs})
    return space, r, a, bracket_closure(space, r, [a])


# ------------------------------------------------------- color bracket


def test_bracket_trivial_grading():
    v = gl(2)
    a = make_map(v, E0, {E0: [[0, 1], [0, 0]]})
    b = make_map(v, E0, {E0: [[1, 0], [0, 0]]})
    br = color_bracket(R0, a, b)
    assert flatten_map(br) == Matrix([[0, -1], [0, 0]])


def test_bracket_cyclic_self_vanishes():
    space, r, a, L = z3_abelian()
    assert color_bracket(r, a, a).is_zero()
    assert bracket_subspaces(full_subspace(L), full_subspace(L)).dim == 0


def test_bracket_super_anticommutator():
    z2 = make_group(0, [2])
    r = make_bicharacter(z2, [[-1]])
    odd = z2.element([1])
    even = z2.element([0])
    v = make_space(z2, {even: 1, odd: 1})
    a = make_map(v, odd, {even: [[1]], odd: [[0]]})
    br = color_bracket(r, a, a)
    assert br == scale_map(2, compose(a, a))


def test_bracket_degree_bookkeeping():
    rng = random.Random(47)
    for _, group, r in all_configs():
        for _ in range(8):
            space = random_space(rng, group)
            a = random_homogeneous_map(rng, space)
            b = random_homogeneous_map(rng, space)
            assert color_bracket(r, a, b).degree == a.degree + b.degree


# ------------------------------------------------------------ closure


def test_closure_single_generator():
    space, r, a, L = z3_abelian()
    assert L.dim == 1
    assert L.closed


def test_closure_empty():
    v = gl(2)
    L = bracket_closure(v, R0, [])
    assert L.dim == 0


def test_closure_heisenberg():
    v, e12, e23, e13, L = heisenberg()
    assert L.dim == 3
    assert L.contains(e13)


# ------------------------------------------------- subspaces and series


def test_bracket_subspace_heisenberg():
    v, e12, e23, e13, L = heisenberg()
    derived = bracket_subspaces(full_subspace(L), full_subspace(L))
    assert derived.dim == 1
    assert derived.contains(e13)


def test_bracket_with_zero_subspace():
    v, e12, e23, e13, L = heisenberg()
    zero = Subspace(L, [])
    assert bracket_subspaces(full_subspace(L), zero).dim == 0


def test_series_cyclic_abelian():
    _, _, _, L = z3_abelian()
    series = derived_series(L)
    assert [s.dim for s in series] == [1, 0]
    assert is_solvable(L)
    assert is_nilpotent_algebra(L)


def test_series_zero_algebra():
    v = gl(2)
    L = bracket_closure(v, R0, [])
    assert [s.dim for s in derived_series(L)] == [0]
    assert [s.dim for s in lower_central_series(L)] == [0]
    assert is_solvable(L) and is_nilpotent_algebra(L)


def test_series_borel_solvable_not_nilpotent():
    v = gl(2)
    e11 = unit_map(v, 0, 0)
    e12 = unit_map(v, 0, 1)
    L = bracket_closure(v, R0, [e11, e12])
    assert is_solvable(L)
    assert not is_nilpotent_algebra(L)
    assert [s.dim for s in lower_central_series(L)] == [2, 1]


def test_series_terms_are_graded():
    from colorlie import unflatten_map

    rng = random.Random(53)
    for _, group, r in torsion_free_configs()[:3]:
        L = random_nil_instance(rng, group, r)
        for term in derived_series(L) + lower_central_series(L):
            # per-degree dimensions account for the whole term, i.e. the
            # echelon basis splits into homogeneous pieces
            assert sum(term.dims_by_degree().values()) == term.dim
            for f in term.elements():
                # unflattening validates that every nonzero entry sits in
                # a block allowed by the element's single degree
                assert unflatten_map(L.space, f.degree, flatten_map(f)) == f


# -------------------------------------------------------------- center


def test_center_abelian_is_everything():
    _, _, _, L = z3_abelian()
    assert center(L).dim == L.dim


def test_center_zero_algebra():
    v = gl(2)
    L = bracket_closure(v, R0, [])
    assert center(L).dim == 0


def test_center_heisenberg():
    v, e12, e23, e13, L = heisenberg()
    z = center(L)
    assert z.dim == 1
    assert z.contains(e13)


def test_center_components_are_central():
    rng = random.Random(59)
    for _, group, r in torsion_free_configs()[:3]:
        for _ in range(5):
            L = random_nil_instance(rng, group, r)
            z = center(L)
            for f in z.elements():
                for b in L.basis:
                    assert color_bracket(L.r, f, b).is_zero()


# ------------------------------------------------------------- adjoint


def test_ad_central_is_zero():
    v, e12, e23, e13, L = heisenberg()
    assert ad_map(L, e13).is_zero()


def test_ad_cyclic_abelian_is_zero():
    _, _, a, L = z3_abelian()
    assert ad_map(L, a).is_zero()


def test_ad_heisenberg_action():
    v, e12, e23, e13, L = heisenberg()
    adx = ad_map(L, e12)
    # identify basis coordinates of L's profile space
    coords_e23 = L.coordinates(e23)
    coords_e13 = L.coordinates(e13)
    from colorlie.graded import apply, make_vector

    profile = L.profile_space()
    v23 = make_vector(profile, {E0: coords_e23})
    v13 = make_vector(profile, {E0: coords_e13})
    v12 = make_vector(profile, {E0: L.coordinates(e12)})
    assert apply(adx, v23) == v13
    assert apply(adx, v13).is_zero()
    assert apply(adx, v12).is_zero()


def test_ad_outside_algebra():
    v, e12, e23, e13, L = heisenberg()
    with pytest.raises(NotInAlgebra):
        ad_map(L, unit_map(v, 2, 0))


def test_ad_representation_dims():
    _, _, _, L = z3_abelian()
    assert ad_representation(L).dim == 0
    v, e12, e23, e13, H = heisenberg()
    assert ad_representation(H).dim == 2


def test_ad_representation_rank_nullity():
    rng = random.Random(61)
    for _, group, r in torsion_free_configs()[:3]:
        for _ in range(5):
            L = random_nil_instance(rng, group, r)
            assert ad_representation(L).dim == L.dim - center(L).dim


def test_ad_is_bracket_homomorphism():
    rng = random.Random(67)
    for _, group, r in torsion_free_configs():
        for _ in range(4):
            L = random_nil_instance(rng, group, r)
            for _ in range(3):
                x = rng.choice(list(L.basis))
                y = rng.choice(list(L.basis))
                lhs = ad_map(L, color_bracket(L.r, x, y))
                rhs = color_bracket(L.r, ad_map(L, x), ad_map(L, y))
                assert lhs == rhs


# ----------------------------------------------------- color identities


def test_color_skew_symmetry_randomized():
    rng = random.Random(71)
    for _, group, r in all_configs():
        for _ in range(15):
            space = random_space(rng, group)
            a = random_homogeneous_map(rng, space)
            b = random_homogeneous_map(rng, space)
            lhs = color_bracket(r, a, b)
            scalar = eval_bicharacter(r, b.degree, a.degree)
            rhs = scale_map(-scalar, color_bracket(r, b, a))
            assert lhs == rhs


def test_color_jacobi_randomized():
    rng = random.Random(73)
    for _, group, r in all_configs():
        for _ in range(15):
            space = random_space(rng, group)
            x = random_homogeneous_map(rng, space)
            y = random_homogeneous_map(rng, space)
            z = random_homogeneous_map(rng, space)
            lhs = color_bracket(r, color_bracket(r, x, y), z)
            scalar = eval_bicharacter(r, z.degree, y.degree)
            rhs = add_maps(
                color_bracket(r, x, color_bracket(r, y, z)),
                scale_map(scalar, color_bracket(r, color_bracket(r, x, z), y)),
            )
            assert lhs == rhs


# ------------------------------------------------- ad power expansion


def test_ad_power_expand_first_power():
    space, r, a, L = z3_abelian()
    tables = ad_power_expand(L, a, 1)
    exp = tables[a.degree]
    twist = eval_bicharacter(r, a.degree, a.degree)
    assert exp.terms == ((1, 0, Fraction(1)), (0, 1, -twist))


def test_ad_power_expand_binomial_trivial_twist():
    v, e12, e23, e13, L = heisenberg()
    tables = ad_power_expand(L, e12, 2)
    exp = tables[E0]
    assert exp.terms == ((2, 0, Fraction(1)), (1, 1, Fraction(-2)), (0, 2, Fraction(1)))


def test_ad_power_expand_matches_iteration():
    rng = random.Random(79)
    for _, group, r in torsion_free_configs()[:4]:
        for _ in range(4):
            L = random_nil_instance(rng, group, r)
            x = rng.choice(list(L.basis))
            m = rng.randint(1, 3)
            tables = ad_power_expand(L, x, m)
            for y in L.basis:
                expected = y
                for _ in range(m):
                    expected = color_bracket(L.r, x, expected)
                assert tables[y.degree].evaluate(x, y) == expected


# ------------------------------------- nilpotent implies ad nilpotent


def test_nilpotent_implies_ad_nilpotent_strict_upper():
    v = gl(2)
    e12 = unit_map(v, 0, 1)
    L = bracket_closure(v, R0, [e12])
    report = nilpotent_implies_ad_nilpotent_check(L, e12)
    assert report.nilpotent_input
    assert report.ad_power_is_zero
    assert report.holds


def test_nilpotent_implies_ad_nilpotent_vacuous():
    v = gl(2)
    ident = identity_map(v)
    L = bracket_closure(v, R0, [ident])
    report = nilpotent_implies_ad_nilpotent_check(L, ident)
    assert not report.nilpotent_input
    assert report.ad_power_is_zero is None
    assert report.holds


def test_nilpotent_implies_ad_nilpotent_randomized():
    rng = random.Random(83)
    for _, group, r in torsion_free_configs():
        for _ in range(5):
            L = random_nil_instance(rng, group, r)
            x = rng.choice(list(L.basis))
            assert is_nilpotent_matrix(flatten_map(x))
            report = nilpotent_implies_ad_nilpotent_check(L, x)
            assert report.nilpotent_input and report.holds


# ------------------------------------------------------------- ideals


def test_derived_and_center_are_ideals():
    v, e12, e23, e13, L = heisenberg()
    assert is_ideal(L, bracket_subspaces(full_subspace(L), full_subspace(L)))
    assert is_ideal(L, center(L))


def test_non_ideal_detected():
    v, e12, e23, e13, L = heisenberg()
    assert not is_ideal(L, Subspace(L, [e12]))


def test_is_ideal_parent_mismatch():
    v, e12, e23, e13, L = heisenberg()
    other = bracket_closure(v, R0, [e12])
    with pytest.raises(ParentMismatch):
        is_ideal(L, Subspace(other, [e12]))


# ------------------------------------------------- construction errors


def test_algebra_rejects_dependent_basis():
    from colorlie import ValidationError

    v = gl(2)
    e12 = unit_map(v, 0, 1)
    with pytest.raises(ValidationError):
        ColorAlgebra(v, R0, [e12, scale_map(2, e12)])


def test_algebra_verifies_claimed_closure():
    from colorlie import NotClosed

    v = gl(2)
    e = unit_map(v, 0, 1)
    f = unit_map(v, 1, 0)
    # span{e, f} is not closed: [e, f] = e11 - e22 lies outside
    with pytest.raises(NotClosed):
        ColorAlgebra(v, R0, [e, f], closed=True)


def test_series_require_closed():
    from colorlie import NotClosed

    v = gl(2)
    e = unit_map(v, 0, 1)
    f = unit_map(v, 1, 0)
    L = ColorAlgebra(v, R0, [e, f], closed=False)
    with pytest.raises(NotClosed):
        derived_series(L)
    with pytest.raises(NotClosed):
        center(L)
    # the table reads need a closed span even where one bracket stays in it
    with pytest.raises(NotClosed):
        ad_map(L, e)
    with pytest.raises(NotClosed):
        nilpotent_implies_ad_nilpotent_check(L, e)
    with pytest.raises(NotClosed):
        is_ideal(L, Subspace(L, [e]))


def test_bracket_mismatch_errors():
    from colorlie import GroupMismatch, SpaceMismatch

    v = gl(2)
    w = gl(3)
    a = unit_map(v, 0, 1)
    b = unit_map(w, 0, 1)
    with pytest.raises(SpaceMismatch):
        color_bracket(R0, a, b)
    z2 = make_group(0, [2])
    r2 = make_bicharacter(z2, [[-1]])
    with pytest.raises(GroupMismatch):
        color_bracket(r2, a, a)
    # closures bracket without color_bracket and check the same
    with pytest.raises(SpaceMismatch):
        bracket_closure(v, R0, [a, b])
    with pytest.raises(GroupMismatch):
        bracket_closure(v, r2, [a])


def test_subspace_membership_validated():
    v, e12, e23, e13, L = heisenberg()
    small = bracket_closure(v, R0, [e12])
    with pytest.raises(NotInAlgebra):
        Subspace(small, [e23])


# ------------------------------- each unordered pair bracketed once
#
# The references below bracket every ordered pair and repeat until
# nothing new appears; the library brackets each unordered pair once.
# Both must give the same canonical per-degree echelon bases.

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def _all_pairs_closure(space, r, generators):
    from reference import ref_span

    maps = ref_span(space, generators)
    while True:
        nxt = ref_span(space, maps + [color_bracket(r, a, b) for a in maps for b in maps])
        if len(nxt) == len(maps):
            return tuple(maps)
        maps = nxt


def _all_pairs_bracket(L, s, t):
    return Subspace(
        L,
        [color_bracket(L.r, a, b) for a in s.elements() for b in t.elements()],
    )


def _all_pairs_series(L, lower):
    top = full_subspace(L)
    series = [top]
    while True:
        nxt = _all_pairs_bracket(L, top if lower else series[-1], series[-1])
        if nxt.dim == series[-1].dim:
            return series
        series.append(nxt)
        if nxt.dim == 0:
            return series


def _odd_square_cases():
    """Odd maps a with [a, a] = 2 a^2 != 0: a Z grading under [[-1]] and
    the Z_2 super grading."""
    z = make_group(1, [])
    rz = make_bicharacter(z, [[-1]])
    d = [z.element([k]) for k in range(3)]
    vz = make_space(z, {g: 1 for g in d})
    a = make_map(vz, d[1], {d[0]: [[1]], d[1]: [[1]]})
    z2 = make_group(0, [2])
    r2 = make_bicharacter(z2, [[-1]])
    even, odd = z2.element([0]), z2.element([1])
    v2 = make_space(z2, {even: 1, odd: 1})
    b = make_map(v2, odd, {even: [[1]], odd: [[1]]})
    return [(vz, rz, [a]), (v2, r2, [b])]


def _sl2():
    v = gl(2)
    return v, R0, [unit_map(v, 0, 1), unit_map(v, 1, 0)]


def _closure_cases():
    from colorlie import load_problem

    rng = random.Random(97)
    cases = []
    for _, group, r in all_configs():
        for _ in range(8):
            space = random_space(rng, group, max_total=5)
            gens = [random_homogeneous_map(rng, space) for _ in range(rng.randint(2, 3))]
            cases.append((space, r, gens))
    for path in sorted(PROBLEMS.glob("*.json")):
        p = load_problem(path)
        cases.append((p.space, p.bicharacter, list(p.generators)))
    cases.append(_sl2())
    # the CLI's problem files: scaled E_ii and E_i,i+1 generators
    borel = [(grading, n) for grading in BOREL_GRADINGS for n in (3, 4)]
    for grading, n in borel + [("plain", 5)]:
        cases.append(borel_problem_generators(rng, n, grading))
    return cases + _odd_square_cases()


def _count_brackets(monkeypatch):
    """Count calls of the sparse bracket kernel and of ``color_bracket``
    made from the algebra module."""
    import colorlie.algebra as algebra_mod

    calls = {"kernel": 0, "color_bracket": 0}

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(algebra_mod, "_sparse_bracket",
                        counting("kernel", algebra_mod._sparse_bracket))
    monkeypatch.setattr(algebra_mod, "color_bracket",
                        counting("color_bracket", algebra_mod.color_bracket))
    return calls


def test_closure_brackets_each_pair_once(monkeypatch):
    v = gl(5)
    gens = [scale_map(i + 2, unit_map(v, i, i)) for i in range(5)]
    gens += [scale_map(-(i + 1), unit_map(v, i, i + 1)) for i in range(4)]
    calls = _count_brackets(monkeypatch)
    L = bracket_closure(v, R0, gens)
    assert L.dim == 15
    # each generator pair once, then each of the 6 new elements with the
    # 9 generators
    assert calls == {"kernel": 9 * 10 // 2 + 6 * 9, "color_bracket": 0}


def test_closure_matches_all_pairs_reference():
    cases = _closure_cases()
    configs = {c[1].spec for c in cases}
    assert make_group(0, [3]) in configs and make_group(0, [2]) in configs
    for space, r, gens in cases:
        L = bracket_closure(space, r, gens)
        assert L.basis == _all_pairs_closure(space, r, gens)


def test_series_match_all_pairs_reference():
    for space, r, gens in _closure_cases():
        L = bracket_closure(space, r, gens)
        for lower, series in ((False, derived_series(L)), (True, lower_central_series(L))):
            assert series == _all_pairs_series(L, lower)
    # the diagonal pair carries the whole derived algebra here
    for space, r, gens in _odd_square_cases():
        L = bracket_closure(space, r, gens)
        assert L.dim == 2
        assert derived_series(L)[1].dim == 1
        assert lower_central_series(L)[1].dim == 1


def test_closed_validation_keeps_diagonal_pair():
    from colorlie import NotClosed

    for space, r, (a,) in _odd_square_cases():
        with pytest.raises(NotClosed):
            ColorAlgebra(space, r, [a], closed=True)
        ColorAlgebra(space, r, bracket_closure(space, r, [a]).basis, closed=True)


def test_color_bracket_matches_definition():
    rng = random.Random(89)
    pairs = []
    for _, group, r in all_configs():
        for _ in range(20):
            space = random_space(rng, group)
            pairs.append((r, random_homogeneous_map(rng, space),
                          random_homogeneous_map(rng, space, density=0.3)))
    v, e12, e23, e13, _ = heisenberg()
    pairs += [(R0, e12, e23), (R0, e23, e12), (R0, e13, e13), (R0, e12, e12)]
    vanishing = 0
    for r, a, b in pairs:
        ab, ba = compose(a, b), compose(b, a)
        vanishing += ab.is_zero() or ba.is_zero()
        want = add_maps(ab, scale_map(-eval_bicharacter(r, b.degree, a.degree), ba))
        assert color_bracket(r, a, b) == want
    assert vanishing >= 4


def test_sparse_bracket_edge_cases():
    """The kernel on the pairs random draws may miss; random pairs in
    every grading are in test_properties.py."""
    from reference import assert_kernel_matches_color_bracket

    # a = b with [a, a] = 2 a^2 != 0 under a super grading
    for space, r, (a,) in _odd_square_cases():
        assert not color_bracket(r, a, a).is_zero()
        assert_kernel_matches_color_bracket(r, a, a)
    # b a leaves the support (1 -> 2 -> 3) while a b (0 -> 1 -> 2) does not
    z = make_group(1, [])
    d = [z.element([k]) for k in range(3)]
    v = make_space(z, {g: 1 for g in d})
    a = make_map(v, d[1], {d[1]: [[2]]})
    b = make_map(v, d[1], {d[0]: [[-3]]})
    assert compose(b, a).is_zero() and not compose(a, b).is_zero()
    for r in (make_bicharacter(z, [[1]]), make_bicharacter(z, [[-1]])):
        for x, y in ((a, b), (b, a), (a, a), (b, b)):
            assert_kernel_matches_color_bracket(r, x, y)
    _, e12, e23, e13, _ = heisenberg()
    for x, y in ((e12, e23), (e23, e12), (e13, e13)):
        assert_kernel_matches_color_bracket(R0, x, y)


# ------------------------------------ the structure-constant table
#
# Canonical basis R_k: the reduced echelon rows of the flattened basis,
# in pivot order; pivot coordinates are the flattened entries at the
# pivots.  The references in reference.py work on flattened maps only.


@functools.lru_cache(maxsize=None)
def _table_cases():
    from corpus import noncanonical_borel_algebras

    algebras = [bracket_closure(space, r, gens) for space, r, gens in _closure_cases()]
    return tuple(algebras + noncanonical_borel_algebras(random.Random(113)))


def test_table_reproduces_brackets():
    from reference import assert_table_matches_brackets

    for L in _table_cases():
        assert_table_matches_brackets(L)


def test_pivot_coordinates_read_the_echelon_rows():
    for L in _table_cases():
        flat_rows = L._solver.sparse_rows
        pivots = L._solver.pivots
        for f, coords in zip(L.basis, L._basis_coords):
            flat = [x for row in flatten_map(f).data for x in row]
            dense = [coords.get(k, 0) for k in range(len(pivots))]
            assert dense == [flat[p] for p in pivots]
            assert L._pivot_coords(f) == coords
            assert L._element(f.degree, coords) == f
        for row, p in zip(flat_rows, pivots):
            assert row[p] == 1


def test_series_center_codim_match_flattened_reference():
    from colorlie import NotSolvable, ZeroAlgebra, codim_one_ideal
    from reference import assert_series_and_center_match, ref_codim_one_ideal

    for L in _table_cases():
        assert_series_and_center_match(L)
        try:
            k, z = codim_one_ideal(L)
        except (NotSolvable, ZeroAlgebra):
            continue
        ref_k, ref_z = ref_codim_one_ideal(L)
        assert (k.elements(), z) == (ref_k, ref_z)


def test_is_ideal_and_ad_map_match_flattened_brackets():
    for L in _table_cases():
        for s in derived_series(L) + lower_central_series(L) + [center(L)]:
            assert is_ideal(L, s)
        # ad_map's flattened columns, in the profile's degree order
        order = [i for g in L.degrees() for i in L.basis_indices_of_degree(g)]
        for x in L.basis:
            m = flatten_map(ad_map(L, x))
            for b, j in enumerate(order):
                coords = L.coordinates(color_bracket(L.r, x, L.basis[j]))
                assert [m.data[a][b] for a in range(L.dim)] == [coords[i] for i in order]
        # a line that is not an ideal of a nonabelian algebra
        if L.dim and center(L).dim < L.dim:
            z = center(L)
            outside = next(f for f in L.basis if not z.contains(f))
            line = Subspace(L, [outside])
            want = all(
                line.contains(color_bracket(L.r, a, outside)) for a in L.basis
            )
            assert is_ideal(L, line) == want


def test_brackets_only_when_the_table_is_built(monkeypatch):
    from colorlie import color_flag, ideal_chain
    from corpus import borel_generators

    calls = _count_brackets(monkeypatch)
    for grading in ("plain", "z2"):
        space, r, gens = borel_generators(5, grading)
        L = ColorAlgebra(space, r, gens, closed=True)
        assert calls == {"kernel": L.dim * (L.dim + 1) // 2, "color_bracket": 0}
        calls["kernel"] = 0
        derived_series(L)
        lower_central_series(L)
        center(L)
        color_flag(L)
        ideal_chain(L)
        ad_representation(L)
        assert calls == {"kernel": 0, "color_bracket": 0}
    # a trusted algebra builds its table on first use, once
    L = bracket_closure(space, r, gens)
    calls["kernel"] = 0
    derived_series(L)
    color_flag(L)
    assert calls == {"kernel": L.dim * (L.dim + 1) // 2, "color_bracket": 0}


# ------------------------------------ integer rows with real denominators
#
# The closure and the table bracket integer rows; these inputs give them
# denominators to clear in the generators, in the reduced rows and in the
# bicharacter.


@functools.lru_cache(maxsize=None)
def _denominator_cases():
    """The unit maps E_ij of the Borel algebra conjugated by rational
    unimodular matrices, ungraded at n = 3, 4 and in the Z^2 grading with
    bicharacter values 2 and 1/2 at n = 3, 4, all of them and, so that
    the closure adds brackets, only E_ii and E_i,i+1; with their
    closures."""
    from corpus import rational_conjugated_borel

    rng = random.Random(131)
    cases = []
    for grading in ("plain", "z2"):
        for n in (3, 4):
            space, r, gens = rational_conjugated_borel(rng, n, grading)
            steps = [j - i for i in range(n) for j in range(i, n)]
            cases.append((space, r, gens))
            cases.append((space, r, [f for d, f in zip(steps, gens) if d <= 1]))
    return tuple((space, r, gens, bracket_closure(space, r, gens))
                 for space, r, gens in cases)


def _entries(f):
    return [x for _, b in f.blocks for row in b.data for x in row]


def test_denominators_closure_and_table_match_reference():
    from reference import assert_series_and_center_match, assert_table_matches_brackets

    values = {v for _, r, _, _ in _denominator_cases() for row in r.values for v in row}
    assert {Fraction(2), Fraction(1, 2)} <= values
    for space, r, gens, L in _denominator_cases():
        assert any(x.denominator > 1 for f in gens for x in _entries(f))
        assert L.dim == space.total_dim * (space.total_dim + 1) // 2
        assert L.basis == _all_pairs_closure(space, r, gens)
        assert_table_matches_brackets(L)
        # [L, L] is the derived series' second term
        assert_series_and_center_match(L)


def test_denominators_give_fractions_everywhere():
    from colorlie import color_flag, ideal_chain

    for _, _, _, L in _denominator_cases():
        subspaces = derived_series(L) + lower_central_series(L) + [center(L)]
        subspaces += list(ideal_chain(L).chain)
        maps = list(L.basis) + [f for s in subspaces for f in s.elements()]
        assert all(type(x) is Fraction for f in maps for x in _entries(f))
        # the table is internal: integers over one denominator per entry
        assert all(type(x) is int and type(d) is int for row in L._structure()
                   for c, d in row.values() for x in c.values())
        flag = color_flag(L)
        values = [x for v in flag.ordered_basis for _, comp in v.components for x in comp]
        values += [x for w in flag.weights for x in w.values]
        assert values and all(type(x) is Fraction for x in values)


def test_closure_builds_basis_maps_on_first_read():
    from colorlie import color_flag, ideal_chain
    from corpus import borel_generators

    cases = [(space, r, gens) for space, r, gens, _ in _denominator_cases()]
    cases += [borel_generators(4, grading) for grading in BOREL_GRADINGS]
    for space, r, gens in cases:
        L = bracket_closure(space, r, gens)
        # what the validate, series, triangularize and chain commands read
        degrees = [(g, L.basis_indices_of_degree(g)) for g in L.degrees()]
        L.profile_space()
        derived_series(L)
        lower_central_series(L)
        color_flag(L)
        ideal_chain(L)
        assert "basis" not in vars(L)
        assert L.dim == len(L.basis_degrees) == sum(len(ks) for _, ks in degrees)
        # built on first read, in the reduced rows' order, stably by degree
        assert L.basis == _all_pairs_closure(space, r, gens)
        assert [f.degree for f in L.basis] == L.basis_degrees
        assert L.basis is L.basis
