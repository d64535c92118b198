"""Structure theorems: annihilated vectors, Engel checks, codimension-one
ideals, common homogeneous eigenvectors, color flags, ideal chains and the
cyclic-grading counterexample."""

import random
from fractions import Fraction

import pytest

from colorlie import (
    EmptySpace,
    HypothesisFailed,
    IrrationalEigenvalue,
    Matrix,
    NoHomogeneousEigenvector,
    NotSolvable,
    Subspace,
    TorsionGrading,
    ZeroAlgebra,
    apply,
    bracket_closure,
    codim_one_ideal,
    color_bracket,
    color_flag,
    common_annihilated_vector,
    common_homogeneous_eigenvector,
    derived_series,
    engel_check,
    flatten_map,
    flatten_vector,
    ideal_chain,
    inverse,
    is_ideal,
    make_bicharacter,
    make_group,
    make_map,
    make_space,
    unflatten_map,
    z3_counterexample,
)
from corpus import (
    random_nil_instance,
    random_solvable_instance,
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


def borel2():
    v = gl(2)
    e11, e12 = unit_map(v, 0, 0), unit_map(v, 0, 1)
    return v, e11, e12, bracket_closure(v, R0, [e11, e12])


def heisenberg():
    v = gl(3)
    e12, e23, e13 = unit_map(v, 0, 1), unit_map(v, 1, 2), unit_map(v, 0, 2)
    return v, e12, e23, e13, bracket_closure(v, R0, [e12, e23])


def graded_solvable_pair():
    """Z-graded dims {0:1, 1:1}: d acts as diag(2, 3), s shifts e0 to e1,
    and [d, s] = s."""
    z = make_group(1, [])
    r = make_bicharacter(z, [[1]])
    z0, z1 = z.element([0]), z.element([1])
    v = make_space(z, {z0: 1, z1: 1})
    d = make_map(v, z0, {z0: [[2]], z1: [[3]]})
    s = make_map(v, z1, {z0: [[1]]})
    return v, r, z0, z1, d, s, bracket_closure(v, r, [d, s])


# ------------------------------------------- common annihilated vector


def test_annihilated_zero_algebra():
    v = gl(2)
    L = bracket_closure(v, R0, [])
    vec = common_annihilated_vector(L)
    assert vec.is_homogeneous() and not vec.is_zero()


def test_annihilated_graded_shift():
    z = make_group(1, [])
    r = make_bicharacter(z, [[1]])
    z0, z1 = z.element([0]), z.element([1])
    v = make_space(z, {z0: 1, z1: 1})
    s = make_map(v, z1, {z0: [[1]]})
    L = bracket_closure(v, r, [s])
    vec = common_annihilated_vector(L)
    assert vec.degree() == z1


def test_annihilated_heisenberg():
    v, e12, e23, e13, L = heisenberg()
    vec = common_annihilated_vector(L)
    assert flatten_vector(vec) == (Fraction(1), Fraction(0), Fraction(0))
    for b in L.basis:
        assert apply(b, vec).is_zero()


def test_annihilated_hypothesis_failure():
    v, e11, e12, L = borel2()
    with pytest.raises(HypothesisFailed):
        common_annihilated_vector(L)


def test_annihilated_empty_space_rejected():
    z = make_group(1, [])
    r = make_bicharacter(z, [[1]])
    from colorlie import ColorAlgebra, GradedSpace

    empty = GradedSpace(z, ())
    L = ColorAlgebra(empty, r, (), closed=True)
    with pytest.raises(EmptySpace):
        common_annihilated_vector(L)


def test_annihilated_randomized_nil_corpus():
    rng = random.Random(87)
    for _, group, r in torsion_free_configs():
        for _ in range(4):
            L = random_nil_instance(rng, group, r)
            vec = common_annihilated_vector(L)
            assert vec.is_homogeneous() and not vec.is_zero()
            for b in L.basis:
                assert apply(b, vec).is_zero()


# --------------------------------------------------------- engel check


def test_engel_heisenberg():
    v, e12, e23, e13, L = heisenberg()
    report = engel_check(L)
    assert report.all_ad_nilpotent
    assert report.nilpotent
    assert flatten_map(report.central_witness) == flatten_map(e13)


def test_engel_identity_span():
    # ad of the identity is zero, so the identity span is ad-nilpotent,
    # abelian (hence nilpotent) and central
    v = gl(2)
    from colorlie.graded import identity_map

    ident = identity_map(v)
    L = bracket_closure(v, R0, [ident])
    report = engel_check(L)
    assert report.all_ad_nilpotent
    assert report.nilpotent
    assert report.central_witness is not None


def test_engel_cyclic_abelian():
    rep = z3_counterexample()
    assert rep.solvable
    g = make_group(0, [3])
    r = make_bicharacter(g, [[1]])
    degs = [g.element([k]) for k in range(3)]
    space = make_space(g, {d: 1 for d in degs})
    a = make_map(space, degs[2], {d: [[1]] for d in degs})
    L = bracket_closure(space, r, [a])
    report = engel_check(L)
    assert report.all_ad_nilpotent and report.nilpotent
    assert report.central_witness is not None


def test_engel_borel_not_ad_nilpotent():
    v, e11, e12, L = borel2()
    report = engel_check(L)
    assert not report.all_ad_nilpotent
    assert not report.nilpotent


def test_engel_randomized_nil_corpus():
    rng = random.Random(89)
    for _, group, r in torsion_free_configs()[:4]:
        for _ in range(3):
            L = random_nil_instance(rng, group, r)
            report = engel_check(L)
            assert report.all_ad_nilpotent and report.nilpotent
            assert report.central_witness is not None
            assert not report.central_witness.is_zero()


# --------------------------------------------------- codim one ideal


def test_codim_one_dimension_one():
    space, r, a = _cyclic_data()
    L = bracket_closure(space, r, [a])
    k, z = codim_one_ideal(L)
    assert k.dim == 0
    assert flatten_map(z) == flatten_map(L.basis[0])


def _cyclic_data():
    g = make_group(0, [3])
    r = make_bicharacter(g, [[1]])
    degs = [g.element([k]) for k in range(3)]
    space = make_space(g, {d: 1 for d in degs})
    a = make_map(space, degs[2], {d: [[1]] for d in degs})
    return space, r, a


def test_codim_one_borel():
    v, e11, e12, L = borel2()
    k, z = codim_one_ideal(L)
    assert k.dim == 1
    assert k.contains(e12)
    assert flatten_map(z) == flatten_map(e11)
    assert is_ideal(L, k)


def test_codim_one_zero_algebra():
    v = gl(2)
    L = bracket_closure(v, R0, [])
    with pytest.raises(ZeroAlgebra):
        codim_one_ideal(L)


def test_codim_one_not_solvable():
    # sl2 is not solvable
    v = gl(2)
    e = unit_map(v, 0, 1)
    f = unit_map(v, 1, 0)
    L = bracket_closure(v, R0, [e, f])
    assert L.dim == 3
    with pytest.raises(NotSolvable):
        codim_one_ideal(L)


# ------------------------------------- common homogeneous eigenvector


def test_eigenvector_zero_algebra():
    v = gl(2)
    L = bracket_closure(v, R0, [])
    vec, lam = common_homogeneous_eigenvector(L)
    assert vec.is_homogeneous()
    assert lam.values == ()


def test_eigenvector_borel():
    v, e11, e12, L = borel2()
    vec, lam = common_homogeneous_eigenvector(L)
    assert flatten_vector(vec) == (Fraction(1), Fraction(0))
    assert lam.evaluate(e11) == 1
    assert lam.evaluate(e12) == 0


def test_eigenvector_graded_solvable():
    v, r, z0, z1, d, s, L = graded_solvable_pair()
    vec, lam = common_homogeneous_eigenvector(L)
    assert vec.degree() == z1
    assert lam.evaluate(d) == 3
    assert lam.evaluate(s) == 0


def test_eigenvector_weight_kills_brackets():
    rng = random.Random(93)
    for _, group, r in torsion_free_configs()[:4]:
        L = random_solvable_instance(rng, group, r)
        vec, lam = common_homogeneous_eigenvector(L)
        for y in L.basis:
            for x in L.basis:
                assert lam.evaluate(color_bracket(L.r, y, x)) == 0


def test_eigenvector_multidimensional_weight_space():
    # dims {0:2, 1:1}; d = diag(2,2) + 3, u nilpotent inside V_0, two
    # degree-1 shifts: the chain loop passes through weight spaces of
    # dimension > 1 and the unique answer is the degree-1 line
    z = make_group(1, [])
    r = make_bicharacter(z, [[1]])
    z0, z1 = z.element([0]), z.element([1])
    v = make_space(z, {z0: 2, z1: 1})
    d = make_map(v, z0, {z0: [[2, 0], [0, 2]], z1: [[3]]})
    u = make_map(v, z0, {z0: [[0, 1], [0, 0]]})
    s = make_map(v, z1, {z0: [[1, 0]]})
    from colorlie import is_solvable

    L = bracket_closure(v, r, [d, u, s])
    assert L.dim == 4
    assert is_solvable(L)
    vec, lam = common_homogeneous_eigenvector(L)
    assert vec.degree() == z1
    assert lam.evaluate(d) == 3
    assert lam.evaluate(u) == 0
    assert lam.evaluate(s) == 0
    flag = color_flag(L)
    _assert_flag_valid(L, flag)


def test_eigenvector_weight_space_spans_components():
    # d is the scalar 2 on both components and commutes with the shift
    # s: the weight space of d must keep both components, since only the
    # degree-1 line is killed by s
    z = make_group(1, [])
    r = make_bicharacter(z, [[1]])
    z0, z1 = z.element([0]), z.element([1])
    v = make_space(z, {z0: 1, z1: 1})
    d = make_map(v, z0, {z0: [[2]], z1: [[2]]})
    s = make_map(v, z1, {z0: [[1]]})
    L = bracket_closure(v, r, [d, s])
    assert L.dim == 2
    vec, lam = common_homogeneous_eigenvector(L)
    assert vec.degree() == z1
    assert lam.evaluate(d) == 2
    assert lam.evaluate(s) == 0


def test_annihilated_vector_allows_torsion_gradings():
    # the annihilated-vector and Engel paths need no torsion-free
    # hypothesis; a nilpotent shift over Z_3 works fine
    g = make_group(0, [3])
    r = make_bicharacter(g, [[1]])
    g0, g1 = g.element([0]), g.element([1])
    v = make_space(g, {g0: 1, g1: 1})
    f = make_map(v, g1, {g0: [[1]]})
    L = bracket_closure(v, r, [f])
    vec = common_annihilated_vector(L)
    assert vec.degree() == g1
    report = engel_check(L)
    assert report.all_ad_nilpotent and report.nilpotent


def test_eigenvector_torsion_grading_rejected():
    space, r, a = _cyclic_data()
    L = bracket_closure(space, r, [a])
    with pytest.raises(TorsionGrading):
        common_homogeneous_eigenvector(L)


def test_eigenvector_torsion_skip_hypotheses():
    space, r, a = _cyclic_data()
    L = bracket_closure(space, r, [a])
    with pytest.raises(NoHomogeneousEigenvector):
        common_homogeneous_eigenvector(L, check_hypotheses=False)


def test_eigenvector_irrational():
    v = gl(2)
    j = make_map(v, E0, {E0: [[0, -1], [1, 0]]})
    L = bracket_closure(v, R0, [j])
    with pytest.raises(IrrationalEigenvalue) as info:
        common_homogeneous_eigenvector(L)
    assert info.value.char_poly is not None
    assert info.value.char_poly.degree == 2


# ----------------------------------------------------------- color flag


def _assert_flag_valid(L, flag):
    n = L.space.total_dim
    assert len(flag.ordered_basis) == n
    for v in flag.ordered_basis:
        assert v.is_homogeneous()
    t = Matrix.from_columns([flatten_vector(v) for v in flag.ordered_basis], rows=n)
    t_inv = inverse(t)
    for i, b in enumerate(L.basis):
        m = t_inv * flatten_map(b) * t
        for rr in range(n):
            for cc in range(rr):
                assert m.data[rr][cc] == 0
            assert m.data[rr][rr] == flag.weights[rr].values[i]


def test_flag_zero_algebra():
    v = gl(2)
    L = bracket_closure(v, R0, [])
    flag = color_flag(L)
    assert len(flag.ordered_basis) == 2
    _assert_flag_valid(L, flag)


def test_flag_borel():
    v, e11, e12, L = borel2()
    flag = color_flag(L)
    _assert_flag_valid(L, flag)
    assert flatten_vector(flag.ordered_basis[0]) == (Fraction(1), Fraction(0))


def test_flag_graded_solvable():
    v, r, z0, z1, d, s, L = graded_solvable_pair()
    flag = color_flag(L)
    _assert_flag_valid(L, flag)
    degrees = [vec.degree() for vec in flag.ordered_basis]
    assert set(degrees) == {z0, z1}


def test_flag_torsion_failure_modes():
    space, r, a = _cyclic_data()
    L = bracket_closure(space, r, [a])
    with pytest.raises(TorsionGrading):
        color_flag(L)
    with pytest.raises(NoHomogeneousEigenvector):
        color_flag(L, check_hypotheses=False)


def test_flag_irrational_reports_depth():
    v = gl(2)
    j = make_map(v, E0, {E0: [[0, -1], [1, 0]]})
    L = bracket_closure(v, R0, [j])
    with pytest.raises(IrrationalEigenvalue) as info:
        color_flag(L)
    assert getattr(info.value, "flag_depth", None) == 0


def test_flag_partial_progress_then_irrational_depth():
    # diag(2, 3) + a rotation block: the first two quotient steps find
    # rational eigenvalues, then the leftover rotation fails at depth 2
    v = gl(4)
    rows = [
        [2, 0, 0, 0],
        [0, 3, 0, 0],
        [0, 0, 0, -1],
        [0, 0, 1, 0],
    ]
    z = make_map(v, E0, {E0: rows})
    L = bracket_closure(v, R0, [z])
    with pytest.raises(IrrationalEigenvalue) as info:
        color_flag(L)
    assert info.value.flag_depth == 2
    assert info.value.char_poly.degree == 2


def test_flag_full_borel_four():
    # dim-10 algebra on a 4-dimensional space: exercises a longer chain
    # and more quotient steps than the random corpus, with the unique
    # invariant flag forced
    v = gl(4)
    gens = [unit_map(v, i, j) for i in range(4) for j in range(i, 4)]
    L = bracket_closure(v, R0, gens)
    assert L.dim == 10
    flag = color_flag(L)
    _assert_flag_valid(L, flag)
    vecs = [flatten_vector(x) for x in flag.ordered_basis]
    for k in range(4):
        # the k-th flag space is span(e_1..e_k)
        assert all(vecs[k][j] == 0 for j in range(k + 1, 4))


def test_flag_skip_hypotheses_can_succeed_beyond_them():
    # over Z x Z_2 the theorem's hypothesis fails (torsion), yet every
    # degree in play has infinite order, so the probe mode finds and
    # verifies a genuine flag
    g = make_group(1, [2])
    r = make_bicharacter(g, [[1, 1], [1, -1]])
    d00, d11, d20 = (g.element(c) for c in ([0, 0], [1, 1], [2, 0]))
    w = make_space(g, {d00: 1, d11: 2, d20: 1})
    f = make_map(w, g.element([1, 1]), {d00: [[1], [2]], d11: [[1, 0]]})
    s0 = make_map(
        w, g.element([0, 0]), {d00: [[2]], d11: [[3, 0], [0, 3]], d20: [[5]]}
    )
    L = bracket_closure(w, r, [s0, f])
    with pytest.raises(TorsionGrading):
        color_flag(L)
    flag = color_flag(L, check_hypotheses=False)
    _assert_flag_valid(L, flag)


def test_flag_randomized_solvable_corpus():
    rng = random.Random(97)
    for _, group, r in torsion_free_configs():
        for _ in range(3):
            L = random_solvable_instance(rng, group, r)
            flag = color_flag(L)
            _assert_flag_valid(L, flag)


def test_flag_not_solvable_skip_hypotheses():
    # sl2 is perfect: without the hypothesis checks the failure surfaces
    # while looking for the first flag vector
    v = gl(2)
    L = bracket_closure(v, R0, [unit_map(v, 0, 1), unit_map(v, 1, 0)])
    with pytest.raises(NotSolvable) as info:
        color_flag(L, check_hypotheses=False)
    assert info.value.flag_depth == 0
    assert str(info.value).endswith("[flag depth 0]")


def _assert_derived_chain(L):
    from colorlie.structure import _derived_chain

    chain = _derived_chain(L, derived_series(L))
    assert len(chain) == L.dim
    assert Subspace(L, chain).dim == L.dim
    for b in chain:
        assert unflatten_map(L.space, b.degree, flatten_map(b)) == b
    for i in range(L.dim):
        below = Subspace(L, chain[:i])
        for x in chain[: i + 1]:
            for y in chain[:i]:
                assert below.contains(color_bracket(L.r, x, y))


def test_derived_chain_is_codim_one_ideal_chain():
    rng = random.Random(101)
    for _, group, r in torsion_free_configs():
        for _ in range(2):
            _assert_derived_chain(random_solvable_instance(rng, group, r))
    # 4x4 Borel algebra, e_i in degree i of Z under the super sign
    z = make_group(1, [])
    r = make_bicharacter(z, [[-1]])
    v = make_space(z, {z.element([i]): 1 for i in range(4)})
    gens = [
        make_map(v, z.element([i - j]), {z.element([j]): [[1]]})
        for i in range(4)
        for j in range(i, 4)
    ]
    L = bracket_closure(v, r, gens)
    assert L.dim == 10
    _assert_derived_chain(L)


def _borel(n, grading):
    # n x n Borel algebra, e_i homogeneous of the grading's degree deg(i)
    rank, values, deg = {
        "plain": (0, [], lambda i: []),
        "z": (1, [[1]], lambda i: [i]),
        "zsuper": (1, [[-1]], lambda i: [i]),
        "z2": (2, [[1, 2], [Fraction(1, 2), -1]], lambda i: [i // 2, i % 2]),
    }[grading]
    group = make_group(rank, [])
    pos, count = [], {}
    for i in range(n):
        d = group.element(deg(i))
        pos.append((d, count.get(d, 0)))
        count[d] = count.get(d, 0) + 1
    v = make_space(group, count)
    gens = []
    for i in range(n):
        for j in range(i, n):
            (di, a), (dj, b) = pos[i], pos[j]
            m = [[1 if (r, c) == (a, b) else 0 for c in range(count[dj])] for r in range(count[di])]
            gens.append(make_map(v, di + (-dj), {dj: m}))
    return bracket_closure(v, make_bicharacter(group, values), gens)


def _assert_ad_series(L):
    from colorlie import ad_representation
    from colorlie.structure import _ad_series

    ad_l = ad_representation(L)
    direct = derived_series(ad_l)
    via_l = _ad_series(L, ad_l, derived_series(L))
    assert [s._ech.canonical_rows() for s in via_l] == [
        s._ech.canonical_rows() for s in direct
    ]


def test_ad_series_is_image_of_derived_series():
    rng = random.Random(103)
    for _, group, r in torsion_free_configs():
        for _ in range(2):
            _assert_ad_series(random_solvable_instance(rng, group, r))
    for n in (3, 4, 5):
        for grading in ("plain", "z", "zsuper", "z2"):
            L = _borel(n, grading)
            assert L.dim == n * (n + 1) // 2
            _assert_ad_series(L)
    # nonzero center: [L, L] is central, so ad drops a term of the series
    from colorlie import load_problem
    from pathlib import Path

    problem = load_problem(Path(__file__).resolve().parent.parent / "problems" / "heisenberg.json")
    L = bracket_closure(problem.space, problem.bicharacter, problem.generators)
    assert [s.dim for s in derived_series(L)] == [3, 1, 0]
    _assert_ad_series(L)
    # perfect algebra: both series stop at once
    v = gl(2)
    _assert_ad_series(bracket_closure(v, R0, [unit_map(v, 0, 1), unit_map(v, 1, 0)]))


def test_flag_quotient_soundness():
    # projection-section consistency: P S = identity on each component
    from colorlie.structure import _quotient_by_line

    comp = (Fraction(2), Fraction(1), Fraction(0))
    p, s = _quotient_by_line(comp)
    assert p * s == Matrix.identity(2)
    assert all(x == 0 for x in p.apply(comp))


def test_flag_induced_action_matches_block_projection():
    # flatten(induced x) equals the assembled projection * flatten(x) * section
    from colorlie.structure import _induced_map, _quotient_by_line
    from colorlie import make_space as mk

    z = make_group(1, [])
    r = make_bicharacter(z, [[1]])
    z0, z1 = z.element([0]), z.element([1])
    v = mk(z, {z0: 2, z1: 1})
    d = make_map(v, z0, {z0: [[1, 2], [0, 3]], z1: [[5]]})
    line = (Fraction(1), Fraction(2))
    p0, s0 = _quotient_by_line(line)
    proj = {z0: p0, z1: Matrix.identity(1)}
    sect = {z0: s0, z1: Matrix.identity(1)}
    new_space = mk(z, {z0: 1, z1: 1})
    induced = _induced_map(new_space, proj, sect, d)
    big_p = Matrix(
        [list(p0.data[0]) + [0], [0, 0, 1]]
    )
    big_s = Matrix(
        [[s0.data[0][0], 0], [s0.data[1][0], 0], [0, 1]]
    )
    assert flatten_map(induced) == big_p * flatten_map(d) * big_s


def test_weights_vanish_on_nonzero_degrees():
    rng = random.Random(95)
    for _, group, r in torsion_free_configs():
        L = random_solvable_instance(rng, group, r)
        flag = color_flag(L)
        for w in flag.weights:
            for value, b in zip(w.values, L.basis):
                if not b.degree.is_zero():
                    assert value == 0


# ---------------------------------------------------------- ideal chain


def test_chain_dimension_one():
    space, r, a = _cyclic_data2()
    L = bracket_closure(space, r, [a])
    chain = ideal_chain(L)
    assert [s.dim for s in chain.chain] == [0, 1]


def _cyclic_data2():
    z = make_group(1, [])
    r = make_bicharacter(z, [[1]])
    z0, z1 = z.element([0]), z.element([1])
    v = make_space(z, {z0: 1, z1: 1})
    s = make_map(v, z1, {z0: [[1]]})
    return v, r, s


def test_chain_heisenberg():
    v, e12, e23, e13, L = heisenberg()
    chain = ideal_chain(L)
    dims = [s.dim for s in chain.chain]
    assert dims == [0, 1, 2, 3]
    assert chain.chain[1].contains(e13)
    for i, sub in enumerate(chain.chain):
        assert is_ideal(L, sub)


def test_chain_abelian_two_dims():
    v = gl(2)
    e11, e22 = unit_map(v, 0, 0), unit_map(v, 1, 1)
    L = bracket_closure(v, R0, [e11, e22])
    chain = ideal_chain(L)
    assert [s.dim for s in chain.chain] == [0, 1, 2]
    for sub in chain.chain:
        assert is_ideal(L, sub)


def test_chain_zero_algebra():
    v = gl(2)
    L = bracket_closure(v, R0, [])
    chain = ideal_chain(L)
    assert [s.dim for s in chain.chain] == [0]


def test_chain_randomized_corpus():
    rng = random.Random(99)
    for _, group, r in torsion_free_configs()[:4]:
        L = random_solvable_instance(rng, group, r)
        if L.dim > 6:
            continue
        chain = ideal_chain(L)
        assert [s.dim for s in chain.chain] == list(range(L.dim + 1))
        for sub in chain.chain:
            assert is_ideal(L, sub)


def test_chain_torsion_rejected():
    space, r, a = _cyclic_data()
    L = bracket_closure(space, r, [a])
    with pytest.raises(TorsionGrading):
        ideal_chain(L)


# -------------------------------------------------------- counterexample


def test_z3_counterexample_report():
    rep = z3_counterexample()
    assert rep.degree.coords() == (2,)
    assert rep.algebra_dim == 1
    assert rep.derived_dims == (1, 0)
    assert rep.derived_zero and rep.solvable and rep.nil_condition_vacuous
    assert rep.cube_is_identity
    assert str(rep.characteristic) == "t^3 - 1"
    assert rep.rational_eigenvalues == ((Fraction(1), 1),)
    assert rep.ungraded_eigenvector == (Fraction(1), Fraction(1), Fraction(1))
    assert not rep.eigenvector_homogeneous
    assert rep.grading_certificate_error == "TorsionDegree"
    assert rep.flag_error == "TorsionGrading"
    assert rep.flag_error_unchecked == "NoHomogeneousEigenvector"
    assert rep.orderings_checked == 6
    assert len(rep.orderings) == 6
    assert all(not upper for _, upper in rep.orderings)
    assert not rep.triangularizable


def test_restrict_matches_per_column_solve():
    # one solver per target component gives the coordinates a fresh
    # solve of each column would, and refuses a column outside W
    from corpus import random_homogeneous_map, random_space, random_unimodular
    from colorlie.linalg import solve_unique
    from colorlie.structure import _EmbeddedSubspace, _NotInvariant

    rng = random.Random(83)
    for _, group, _ in torsion_free_configs():
        for _ in range(10):
            space = random_space(rng, group)
            # W = V in a scrambled basis: every map is invariant
            w = _EmbeddedSubspace(space, {
                g: [tuple(col) for col in zip(*random_unimodular(rng, n).data)]
                for g, n in space.dims
            })
            f = random_homogeneous_map(rng, space)
            res = w.restrict(f)
            for g in w.space.degrees:
                target = g + f.degree
                if w.space.dim_of(target) == 0:
                    continue
                images = f.block(g) * w.embed[g]
                want = [solve_unique(w.embed[target], col) for col in zip(*images.data)]
                assert list(zip(*res.block(g).data)) == want
    v = gl(2)
    line = _EmbeddedSubspace(v, {E0: [(Fraction(1), Fraction(0))]})
    assert line.restrict(unit_map(v, 0, 1)).is_zero()
    with pytest.raises(_NotInvariant):
        line.restrict(unit_map(v, 1, 0))


# ------------------------------------- kernel filtration of [L, L]

NONNIL_MESSAGE = (
    "derived subalgebra component at degree (0) contains non-nilpotent elements"
)


def nonnil_derived():
    """Z under the super sign, V_0 and V_1 one-dimensional, x = E_10 of
    degree 1 and y = E_01 of degree -1: L = <x, y, I> is solvable but
    [L, L] = <[x, y]> = <I> is not nil."""
    z = make_group(1, [])
    r = make_bicharacter(z, [[-1]])
    z0, z1, zm = z.element([0]), z.element([1]), z.element([-1])
    v = make_space(z, {z0: 1, z1: 1})
    x = make_map(v, z1, {z0: [[1]]})
    y = make_map(v, zm, {z1: [[1]]})
    return bracket_closure(v, r, [x, y])


def test_nonnil_derived_fails_hypothesis():
    # the point check is off the success path, so only a stall of the
    # filtration can report this hypothesis; the message is unchanged
    L = nonnil_derived()
    assert [s.dim for s in derived_series(L)] == [3, 1, 0]
    for call in (color_flag, ideal_chain, common_homogeneous_eigenvector):
        with pytest.raises(HypothesisFailed) as info:
            call(L)
        assert type(info.value) is HypothesisFailed
        assert str(info.value) == NONNIL_MESSAGE


def test_nonnil_derived_skip_hypotheses():
    L = nonnil_derived()
    with pytest.raises(NoHomogeneousEigenvector) as info:
        color_flag(L, check_hypotheses=False)
    assert info.value.flag_depth == 0
    with pytest.raises(NoHomogeneousEigenvector):
        common_homogeneous_eigenvector(L, check_hypotheses=False)
    # ad kills the central I, so ad L is triangularizable all the same
    chain = ideal_chain(L, check_hypotheses=False)
    assert [s.dim for s in chain.chain] == [0, 1, 2, 3]
    for sub in chain.chain:
        assert is_ideal(L, sub)


def _count_nil_checks(monkeypatch):
    import colorlie.structure as structure

    calls = []
    real = structure.nil_subspace_check

    def counted(mats, policy="auto", seed=0):
        calls.append((policy, seed))
        return real(mats, policy=policy, seed=seed)

    monkeypatch.setattr(structure, "nil_subspace_check", counted)
    return calls


def test_success_path_makes_no_point_checks(monkeypatch):
    calls = _count_nil_checks(monkeypatch)
    for grading in ("plain", "z", "zsuper", "z2"):
        L = _borel(5, grading)
        _assert_flag_valid(L, color_flag(L, nil_policy="deterministic"))
        chain = ideal_chain(L, nil_policy="deterministic")
        assert [s.dim for s in chain.chain] == list(range(16))
        common_homogeneous_eigenvector(L, nil_policy="deterministic")
    rng = random.Random(107)
    for _, group, r in torsion_free_configs():
        L = random_nil_instance(rng, group, r)
        common_annihilated_vector(L, nil_policy="deterministic")
        assert engel_check(L, nil_policy="deterministic").all_ad_nilpotent
    assert calls == []


def test_stall_runs_point_check_with_given_policy(monkeypatch):
    calls = _count_nil_checks(monkeypatch)
    L = nonnil_derived()
    with pytest.raises(HypothesisFailed):
        color_flag(L, nil_policy="probabilistic", seed=7)
    assert calls == [("probabilistic", 7)]
    with pytest.raises(HypothesisFailed):
        ideal_chain(L, nil_policy="deterministic", seed=3)
    assert calls[1:] == [("deterministic", 3)]
    # not nilpotent: ad-nilpotency still needs the point check
    v, e11, e12, B = borel2()
    del calls[:]
    assert not engel_check(B, nil_policy="deterministic", seed=5).all_ad_nilpotent
    assert calls and set(calls) == {("deterministic", 5)}
    del calls[:]
    with pytest.raises(HypothesisFailed) as info:
        common_annihilated_vector(B, nil_policy="probabilistic", seed=9)
    assert str(info.value) == "algebra component at degree () contains non-nilpotent elements"
    assert calls == [("probabilistic", 9)]
    # E_11 kills e_2 but not V/<e_2>: the stall comes after one level,
    # and a kernel vector alone does not certify the hypothesis
    v = gl(2)
    with pytest.raises(HypothesisFailed):
        common_annihilated_vector(bracket_closure(v, R0, [unit_map(v, 0, 0)]))


def _levels_in_v(L):
    """K_1 < K_2 < ... of the kernel filtration of [L, L], as lists of
    flattened vectors of V."""
    from colorlie.structure import _derived, _kernel_filtration, _lift

    nil = _derived(derived_series(L)).elements()
    out, acc = [], []
    for space, top, lift in _kernel_filtration(L.space, nil, []):
        assert top == []
        for g, n in space.dims:
            for j in range(n):
                unit = tuple(Fraction(int(i == j)) for i in range(n))
                acc.append(flatten_vector(_lift(L.space, lift, g, unit)))
        out.append(list(acc))
    return out


def _rank(vectors, n):
    from colorlie.linalg import rref

    return rref(Matrix(vectors, cols=n))[2] if vectors else 0


def _inside(vectors, images, n):
    return _rank(list(vectors) + list(images), n) == _rank(vectors, n)


def _assert_filtration(L):
    n = L.space.total_dim
    levels = _levels_in_v(L)
    ranks = [_rank(k, n) for k in levels]
    assert ranks == [len(k) for k in levels]
    assert all(a < b for a, b in zip([0] + ranks, ranks))
    assert ranks[-1] == n
    derived = derived_series(L)
    nil = derived[1].elements() if len(derived) > 1 else []
    below = []
    for k in levels:
        for b in L.basis:
            m = flatten_map(b)
            assert _inside(k, [m.apply(v) for v in k], n)
        for x in nil:
            m = flatten_map(x)
            images = [m.apply(v) for v in k]
            assert _inside(below, images, n) if below else all(
                not any(img) for img in images
            )
        below = k


def test_kernel_filtration_properties():
    rng = random.Random(109)
    for _, group, r in torsion_free_configs():
        for _ in range(3):
            _assert_filtration(random_solvable_instance(rng, group, r))
    for n in (3, 4, 5):
        for grading in ("plain", "z", "zsuper", "z2"):
            _assert_filtration(_borel(n, grading))
    from colorlie import load_problem
    from pathlib import Path

    problem = load_problem(Path(__file__).resolve().parent.parent / "problems" / "heisenberg.json")
    _assert_filtration(
        bracket_closure(problem.space, problem.bicharacter, problem.generators)
    )


def test_filtration_stall_depth_skip_hypotheses():
    # sl2 on F^2 plus a trivial line: [L, L] = sl2 kills only the line,
    # so the filtration stalls at dim K_1 = 1
    v = gl(3)
    L = bracket_closure(v, R0, [unit_map(v, 0, 1), unit_map(v, 1, 0)])
    with pytest.raises(NotSolvable) as info:
        color_flag(L, check_hypotheses=False)
    assert info.value.flag_depth == 1
    # ad sl2 has no common kernel on sl2 itself
    with pytest.raises(NotSolvable) as info:
        ideal_chain(L, check_hypotheses=False)
    assert info.value.flag_depth == 0
