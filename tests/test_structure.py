"""Structure theorems: annihilated vectors, Engel checks, codimension-one
ideals, common homogeneous eigenvectors, color flags, ideal chains and the
cyclic-grading counterexample."""

import itertools
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
    bracket_subspaces,
    codim_one_ideal,
    color_bracket,
    color_flag,
    common_annihilated_vector,
    common_homogeneous_eigenvector,
    derived_series,
    engel_check,
    flatten_map,
    flatten_vector,
    full_subspace,
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
    borel_generators,
    noncanonical_borel_algebras,
    random_homogeneous_map,
    random_nil_instance,
    random_solvable_instance,
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
    with pytest.raises(NotSolvable, match="^algebra is not solvable$"):
        codim_one_ideal(L)
    # unchecked, only a perfect algebra has no codimension-one ideal
    with pytest.raises(NotSolvable, match="equals the whole algebra"):
        codim_one_ideal(L, check_hypotheses=False)
    # sl2 plus the unit on a trivial line: [L, L] = sl2 has codimension one
    v = gl(3)
    e33 = unit_map(v, 2, 2)
    L = bracket_closure(v, R0, [unit_map(v, 0, 1), unit_map(v, 1, 0), e33])
    with pytest.raises(NotSolvable, match="^algebra is not solvable$"):
        codim_one_ideal(L)
    k, z = codim_one_ideal(L, check_hypotheses=False)
    assert (k.dim, is_ideal(L, k), z) == (3, True, e33)


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
    # the basis adapted to [L, L]: its first k = dim [L, L] elements span
    # [L, L] (brackets formed here, not read off the table), the rest are
    # basis elements of L, and from [L, L] up every prefix is an ideal,
    # each of codimension one in the next
    from colorlie.algebra import _square
    from colorlie.structure import _derived_coords

    full = full_subspace(L)
    derived = bracket_subspaces(full, full)
    k = derived.dim
    chain = [L._element(g, v) for g, v in _derived_coords(L, _square(L))]
    assert len(chain) == L.dim
    assert Subspace(L, chain).dim == L.dim
    for b in chain:
        assert unflatten_map(L.space, b.degree, flatten_map(b)) == b
    assert Subspace(L, chain[:k]) == derived
    assert all(b in L.basis for b in chain[k:])
    for i in range(k, L.dim + 1):
        assert is_ideal(L, Subspace(L, chain[:i]))


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
    return bracket_closure(*borel_generators(n, grading))


def _assert_chain_of_ideals(L):
    from reference import ref_contains, ref_span

    chain = ideal_chain(L).chain
    assert [s.dim for s in chain] == list(range(L.dim + 1))
    for below, sub in zip(chain, chain[1:]):
        assert is_ideal(L, sub)
        # independent of the table: flattened brackets and echelon rows
        ref = ref_span(L.space, sub.elements())
        assert all(ref_contains(ref, f) for f in below.elements())
        for a in L.basis:
            for b in sub.elements():
                assert ref_contains(ref, color_bracket(L.r, a, b))


def test_ideal_chain_members_are_ideals():
    rng = random.Random(103)
    for _, group, r in torsion_free_configs():
        for _ in range(2):
            _assert_chain_of_ideals(random_solvable_instance(rng, group, r))
    for n in (3, 4):
        for grading in ("plain", "z", "zsuper", "z2"):
            _assert_chain_of_ideals(_borel(n, grading))
    for L in noncanonical_borel_algebras(rng):
        _assert_chain_of_ideals(L)
    # nonzero center: [L, L] is central, so ad [L, L] = 0
    from colorlie import load_problem
    from pathlib import Path

    problem = load_problem(Path(__file__).resolve().parent.parent / "problems" / "heisenberg.json")
    L = bracket_closure(problem.space, problem.bicharacter, problem.generators)
    assert [s.dim for s in derived_series(L)] == [3, 1, 0]
    _assert_chain_of_ideals(L)


def test_quotient_projection_kills_subspace():
    # projection after inclusion is the identity on the free coordinates,
    # and the projection kills S
    from colorlie.structure import _Quotient

    rng = random.Random(89)
    for _, group, _ in torsion_free_configs():
        for _ in range(5):
            space = random_space(rng, group)
            rows = {
                g: [tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
                    for _ in range(rng.randint(0, n))]
                for g, n in space.dims
            }
            q = _Quotient(space)
            q.add(rows)
            for g, n in space.dims:
                assert q.space.dim_of(g) == n - _rank(rows[g], n)
                for v in rows[g]:
                    assert not any(q.project(g, v))
            for g, unit in _units(q.space):
                assert q.project(g, q.lift(g, unit)) == unit


def test_quotient_induced_map_is_projection_of_map_on_lift():
    # by hand: (1, 1) spans the eigenvalue-3 line of [[1, 2], [0, 3]], so
    # the map induces the other eigenvalue, 1, on the quotient
    from colorlie.structure import _Quotient

    z = make_group(1, [])
    z0, z1 = z.element([0]), z.element([1])
    v = make_space(z, {z0: 2, z1: 1})
    d = make_map(v, z0, {z0: [[1, 2], [0, 3]], z1: [[5]]})
    q = _Quotient(v)
    q.add({z0: [(Fraction(1), Fraction(1))]})
    assert _induce(q, d) == make_map(q.space, z0, {z0: [[1]], z1: [[5]]})
    # in general: flatten(induced f) = P flatten(f) I, for the normal-form
    # projection P and the inclusion I of the free coordinates
    rng = random.Random(97)
    for _, group, _ in torsion_free_configs():
        for _ in range(5):
            space = random_space(rng, group)
            q = _Quotient(space)
            q.add({
                g: [tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))]
                for g, n in space.dims if rng.random() < 0.5
            })
            f = random_homogeneous_map(rng, space)
            incl = Matrix.from_columns(
                [_place(space, g, q.lift(g, u)) for g, u in _units(q.space)],
                rows=space.total_dim,
            )
            proj = Matrix.from_columns(
                [_place(q.space, g, q.project(g, u)) for g, u in _units(space)],
                rows=q.space.total_dim,
            )
            assert flatten_map(_induce(q, f)) == proj * flatten_map(f) * incl


def _induce(q, f):
    """The map f induces on the quotient q, as phase 2 reads it: f's
    sparse columns restricted to the whole quotient."""
    from colorlie.structure import _EmbeddedSubspace, _sparse_of

    return _EmbeddedSubspace.whole(q).restrict(_sparse_of(f))


def _units(space):
    """(degree, component) of every standard basis vector of space."""
    return [
        (g, tuple(Fraction(int(i == j)) for i in range(n)))
        for g, n in space.dims for j in range(n)
    ]


def _place(space, g, comp):
    """The component comp at degree g, flattened in space."""
    out = [Fraction(0)] * space.total_dim
    for i, x in enumerate(comp):
        out[space.offsets()[g] + i] = x
    return out


def test_quotient_in_steps_equals_quotient_at_once():
    # V/S/(T/S) = V/T for invariant S < T: the same space, projections
    # and induced maps; quotienting V/S again by T/S adds T/S's lifted
    # rows and gives T's reduced echelon
    from colorlie import unflatten_vector
    from colorlie.structure import _Quotient

    def rows_of(space, vectors):
        rows: dict = {}
        for flat in vectors:
            (g, comp), = unflatten_vector(space, flat).components
            rows.setdefault(g, []).append(comp)
        return rows

    rng = random.Random(101)
    algebras = [
        random_solvable_instance(rng, group, r)
        for _, group, r in torsion_free_configs() for _ in range(5)
    ]
    algebras += [_borel(4, grading) for grading in ("plain", "z", "zsuper", "z2")]
    for L in algebras:
        levels = [[]] + _levels_in_v(L)
        for s_vecs, t_vecs in itertools.combinations(levels, 2):
            s_rows, t_rows = rows_of(L.space, s_vecs), rows_of(L.space, t_vecs)
            q_s, q_t = _Quotient(L.space), _Quotient(L.space)
            q_s.add(s_rows)
            q_t.add(t_rows)
            t_mod_s = {
                g: [q_s.project(g, v) for v in vs] for g, vs in t_rows.items()
            }
            q_ts = _Quotient(q_s.space)
            q_ts.add({g: vs for g, vs in t_mod_s.items() if q_s.space.dim_of(g)})
            assert q_ts.space == q_t.space
            for b in L.basis:
                assert _induce(q_ts, _induce(q_s, b)) == _induce(q_t, b)
            for g, n in L.space.dims:
                x = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
                if q_s.space.dim_of(g):
                    assert q_ts.project(g, q_s.project(g, x)) == q_t.project(g, x)
            q_s.add({
                g: [q_s.lift(g, v) for v in vs] for g, vs in t_mod_s.items()
            })
            assert q_s.free == q_t.free
            for g, part in q_t.parts.items():
                assert q_s.parts[g].rows == part.rows


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
    from colorlie.structure import (
        _EmbeddedSubspace, _NotInvariant, _Quotient, _sparse_of,
    )

    rng = random.Random(83)
    for _, group, _ in torsion_free_configs():
        for _ in range(10):
            space = random_space(rng, group)
            # W = V in a scrambled basis: every map is invariant
            w = _EmbeddedSubspace(_Quotient(space), {
                g: [tuple(col) for col in zip(*random_unimodular(rng, n).data)]
                for g, n in space.dims
            })
            embed = {
                g: Matrix.from_columns(vs, rows=space.dim_of(g))
                for g, vs in w.bases.items()
            }
            f = random_homogeneous_map(rng, space)
            res = w.restrict(_sparse_of(f))
            for g in w.space.degrees:
                target = g + f.degree
                if w.space.dim_of(target) == 0:
                    continue
                images = f.block(g) * embed[g]
                want = [solve_unique(embed[target], col) for col in zip(*images.data)]
                assert list(zip(*res.block(g).data)) == want
    v = gl(2)
    line = _EmbeddedSubspace(_Quotient(v), {E0: [(Fraction(1), Fraction(0))]})
    assert line.restrict(_sparse_of(unit_map(v, 0, 1))).is_zero()
    with pytest.raises(_NotInvariant):
        line.restrict(_sparse_of(unit_map(v, 1, 0)))


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
    """Record (policy, seed) of every nil check that ``structure`` runs,
    through ``nil_subspace_check`` or through the witness search
    ``_non_nilpotent_point`` behind it."""
    import colorlie.structure as structure

    calls = []

    def counting(real):
        def counted(mats, policy="auto", seed=0):
            calls.append((policy, seed))
            return real(mats, policy, seed)
        return counted

    for name in ("nil_subspace_check", "_non_nilpotent_point"):
        monkeypatch.setattr(structure, name, counting(getattr(structure, name)))
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


def _assert_witness(err, maps):
    """err.witness = (g, t) with sum t_i B_i not nilpotent, B_i the
    flattened maps of degree g in the given order."""
    from colorlie import is_nilpotent_matrix

    g, point = err.witness
    mats = [flatten_map(f) for f in maps if f.degree == g]
    assert len(point) == len(mats)
    n = mats[0].rows
    x = sum((m.scale(t) for t, m in zip(point, mats)), Matrix.zero(n, n))
    assert not is_nilpotent_matrix(x)


def test_hypothesis_failure_carries_non_nilpotent_witness():
    from pathlib import Path

    from colorlie import load_problem

    problem = load_problem(Path(__file__).resolve().parent.parent / "problems" / "nonnil_derived.json")
    L = bracket_closure(problem.space, problem.bicharacter, problem.generators)
    derived = derived_series(L)[1].elements()
    for call in (color_flag, ideal_chain, common_homogeneous_eigenvector):
        for policy, seed in (("deterministic", 0), ("probabilistic", 7), ("auto", 3)):
            with pytest.raises(HypothesisFailed) as info:
                call(L, nil_policy=policy, seed=seed)
            assert str(info.value) == NONNIL_MESSAGE
            _assert_witness(info.value, derived)
    # two maps at degree (): the point is in the coordinates of L's basis
    v, e11, e12, B = borel2()
    with pytest.raises(HypothesisFailed) as info:
        common_annihilated_vector(B, nil_policy="deterministic")
    assert len(info.value.witness[1]) == 2
    _assert_witness(info.value, B.basis)
    # t1 E13 + t2 E12 + t3 E21 is nilpotent iff t2 t3 = 0: the point
    # reads the maps in the given order
    from colorlie.structure import _check_nil_components

    v = gl(3)
    maps = [unit_map(v, 0, 2), unit_map(v, 0, 1), unit_map(v, 1, 0)]
    with pytest.raises(HypothesisFailed) as info:
        _check_nil_components(maps, "span", "deterministic", 0)
    assert info.value.witness[1] == (0, 1, 2)
    _assert_witness(info.value, maps)


def test_witness_reads_fraction_maps_as_given():
    # 2 M1 + M2 is not nilpotent at (1, 1), but M1 + M2 is: the point
    # must be a witness for the maps themselves, not a rescaling of them
    from colorlie.structure import _check_nil_components

    v = gl(2)
    m1 = make_map(v, E0, {E0: [[0, -1], [Fraction(-1, 2), 0]]})
    maps = [m1, unit_map(v, 0, 1)]
    for policy in ("deterministic", "probabilistic"):
        with pytest.raises(HypothesisFailed) as info:
            _check_nil_components(maps, "span", policy, 0)
        _assert_witness(info.value, maps)


def test_witness_is_none_without_a_point():
    v = gl(2)
    L = bracket_closure(v, R0, [unit_map(v, 0, 1), unit_map(v, 1, 0)])
    with pytest.raises(NotSolvable) as info:
        codim_one_ideal(L)
    assert info.value.witness is None


def _levels_in_v(L):
    """K_1 < K_2 < ... of the kernel filtration of [L, L], as lists of
    flattened vectors of V."""
    from colorlie.algebra import _square
    from colorlie.structure import _kernel_filtration, _lift, _sparse_of

    nil = [_sparse_of(f) for f in _square(L).elements()]
    out, acc = [], []
    for space, top, basis in _kernel_filtration(L.space, nil, []):
        assert top == []
        for g, n in space.dims:
            for j in range(n):
                unit = tuple(Fraction(int(i == j)) for i in range(n))
                acc.append(flatten_vector(_lift(L.space, basis, g, unit)))
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


def _normal(sparse):
    """A sparse map with its blocks and their pairs in a fixed order."""
    degree, blocks = sparse
    return degree, sorted(
        ((h, t, {j: sorted(p) for j, p in cols.items()}) for h, t, cols in blocks),
        key=lambda b: b[0].sort_key(),
    )


def _assert_filtration_matches_reference(space, maps, sparse, k):
    # the first k maps drive the filtration, the rest are restricted
    from reference import ref_kernel_filtration
    from colorlie.structure import _kernel_filtration, _sparse_of

    assert [_normal(x) for x in sparse] == [_normal(_sparse_of(f)) for f in maps]
    got = list(_kernel_filtration(space, sparse[:k], sparse[k:]))
    want = ref_kernel_filtration(space, maps[:k], maps[k:])
    assert [(s, [_normal(f) for f in t], list(r.items())) for s, t, r in got] == [
        (s, [_normal(_sparse_of(f)) for f in t], list(r.items())) for s, t, r in want
    ]
    assert sum(s.total_dim for s, _, _ in got) == space.total_dim


def test_kernel_filtration_matches_induced_map_reference():
    # factor spaces, restricted top maps and bases per level equal those
    # of the filtration by induced maps, on V for the chain of color_flag
    # and on L for the adjoint chain of ideal_chain
    from colorlie.algebra import _square
    from colorlie.structure import (
        _derived_coords, _sparse_ads, _sparse_elements, _sparse_of,
    )

    rng = random.Random(113)
    algebras = [
        random_solvable_instance(rng, group, r)
        for _, group, r in torsion_free_configs() for _ in range(4)
    ]
    algebras += [
        _borel(n, grading)
        for n in (2, 3, 4, 5) for grading in ("plain", "z", "zsuper", "z2")
    ]
    for L in algebras:
        derived = _square(L)
        coords = _derived_coords(L, derived)
        k = derived.dim
        _assert_filtration_matches_reference(
            L.space, [L._element(g, v) for g, v in coords],
            _sparse_elements(L, coords), k,
        )
        _assert_filtration_matches_reference(
            L.profile_space(), [L._ad(g, v) for g, v in coords],
            _sparse_ads(L, coords), k,
        )
        # elements with several nonzero coordinates per degree
        mixed = [
            (g, [Fraction(rng.randint(-2, 2)) if d == g else Fraction(0)
                 for d in L._degrees])
            for g in L.degrees()
        ]
        for sparse, dense in ((_sparse_elements, L._element), (_sparse_ads, L._ad)):
            assert [_normal(x) for x in sparse(L, mixed)] == [
                _normal(_sparse_of(dense(g, v))) for g, v in mixed
            ]


def test_kernel_filtration_rejects_non_invariant_level():
    # E_12 kills only e_1, which E_21 moves out of the level; graded, the
    # shift V_1 -> V_0 kills only V_0, which the shift back moves to a
    # degree where the level has no component
    from reference import ref_kernel_filtration
    from colorlie import TheoremViolation
    from colorlie.structure import _kernel_filtration, _sparse_of

    v = gl(2)
    z = make_group(1, [])
    z0, z1 = z.element([0]), z.element([1])
    w = make_space(z, {z0: 1, z1: 1})
    cases = [
        (v, unit_map(v, 0, 1), unit_map(v, 1, 0)),
        (w, make_map(w, z.element([-1]), {z1: [[1]]}), make_map(w, z1, {z0: [[1]]})),
    ]
    for space, nil, top in cases:
        with pytest.raises(TheoremViolation, match="kernel level of an ideal"):
            list(_kernel_filtration(space, [_sparse_of(nil)], [_sparse_of(top)]))
        with pytest.raises(TheoremViolation, match="kernel level of an ideal"):
            ref_kernel_filtration(space, [nil], [top])
        # without the top map the filtration reaches V in two levels
        levels = list(_kernel_filtration(space, [_sparse_of(nil)], []))
        assert [s.total_dim for s, _, _ in levels] == [1, 1]


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


# ------------------------------- phase 2 and the sparse certificate


def test_lazy_eigenvalue_matches_first_eigenpair():
    # the smallest root of the first block with a rational root, as in
    # homogeneous_eigenvalues' first pair; with none, the characteristic
    # polynomial of the first block is reported
    from colorlie.graded import homogeneous_eigenvalues
    from colorlie.structure import _rational_eigenvalue
    from corpus import random_rational, random_unimodular

    rng = random.Random(127)
    outcomes = {"rational": 0, "irrational": 0}
    for _, group, _ in torsion_free_configs():
        for _ in range(12):
            space = random_space(rng, group, max_dim=3)
            blocks = {}
            for g, n in space.dims:
                kind = rng.choice(["upper", "irrational", "random"])
                rows = [[random_rational(rng) for _ in range(n)] for _ in range(n)]
                if kind == "upper":
                    rows = [[x if j >= i else 0 for j, x in enumerate(row)]
                            for i, row in enumerate(rows)]
                elif kind == "irrational" and n >= 2:
                    # t^2 - 2 on the first two coordinates, upper below
                    rows = [[x if j >= i else 0 for j, x in enumerate(row)]
                            for i, row in enumerate(rows)]
                    rows[0][0], rows[0][1], rows[1][0], rows[1][1] = 0, 2, 1, 0
                p = random_unimodular(rng, n)
                blocks[g] = p * Matrix(rows) * inverse(p)
            f = make_map(space, group.identity(), blocks)
            reports = homogeneous_eigenvalues(f)
            first = next((r for r in reports if r.pairs), None)
            if first is not None:
                outcomes["rational"] += 1
                assert _rational_eigenvalue(f) == first.pairs[0][0]
            else:
                outcomes["irrational"] += 1
                with pytest.raises(IrrationalEigenvalue) as info:
                    _rational_eigenvalue(f)
                assert info.value.char_poly == reports[0].irrational_factor
                assert str(reports[0].irrational_factor) in str(info.value)
    assert min(outcomes.values()) >= 5


def test_non_invariant_line_has_no_homogeneous_eigenvector():
    # diag(1, 2) narrows W to the line <e_1>; E_21 moves it, E_12 kills
    # it.  Graded: the eigenvalue 1 leaves the line in V_0, which the
    # shift V_0 -> V_1 moves to a degree where W has no component
    from colorlie import TheoremViolation
    from colorlie.structure import _Quotient, _chain_eigenvector, _sparse_of

    def eigenvector(space, chain, strict):
        return _chain_eigenvector(
            _Quotient(space), [_sparse_of(f) for f in chain], strict
        )

    v = gl(2)
    d = make_map(v, E0, {E0: [[1, 0], [0, 2]]})
    z = make_group(1, [])
    z0, z1 = z.element([0]), z.element([1])
    w = make_space(z, {z0: 2, z1: 1})
    dz = make_map(w, z0, {z0: [[1, 0], [0, 2]], z1: [[3]]})
    # each line meets a map that leaves it invariant before the one that
    # does not
    cases = [
        (v, [d, unit_map(v, 0, 1), unit_map(v, 1, 0)]),
        (w, [dz, dz, make_map(w, z1, {z0: [[1, 0]]})]),
    ]
    for space, chain in cases:
        with pytest.raises(NoHomogeneousEigenvector, match="does not stabilize"):
            eigenvector(space, chain, strict=False)
        with pytest.raises(TheoremViolation, match="does not stabilize"):
            eigenvector(space, chain, strict=True)
    line = eigenvector(v, [d, unit_map(v, 0, 1), d], strict=False)
    assert line.components == ((E0, (Fraction(1), Fraction(0))),)


def _adjoint_flag(L):
    """ideal_chain's flag vectors on the profile space, with no
    certificate."""
    from colorlie.algebra import _square
    from colorlie.structure import (
        _derived_coords, _kernel_filtration, _lie_phase, _sparse_ads,
    )

    derived = _square(L)
    coords = _derived_coords(L, derived)
    ads = _sparse_ads(L, coords)
    k = derived.dim
    levels = list(_kernel_filtration(L.profile_space(), ads[:k], ads[k:]))
    return _lie_phase(L.profile_space(), levels, [], True)[0]


def _certificate_cases(L):
    """(space, flag vectors, sparse maps, the same maps dense) for the
    certificates of color_flag on V and of ideal_chain on L."""
    from colorlie.structure import _sparse_ads, _sparse_elements

    units = [(g, L._unit(i)) for i, g in enumerate(L._degrees)]
    basis = [(f.degree, c) for f, c in zip(L.basis, L._basis_coords)]
    return [
        (L.space, list(color_flag(L).ordered_basis), _sparse_elements(L, basis),
         [flatten_map(f) for f in L.basis]),
        (L.profile_space(), _adjoint_flag(L), _sparse_ads(L, units),
         [flatten_map(L._ad(g, v)) for g, v in units]),
    ]


def _certificates(space, vectors, sparse, dense):
    """The sparse certificate and the dense reference, each as its
    diagonals or the message of the TheoremViolation it raised."""
    from reference import ref_certificate
    from colorlie import TheoremViolation
    from colorlie.structure import _certify

    def run(check):
        try:
            return check()
        except TheoremViolation as e:
            return str(e)

    return (
        run(lambda: _certify(space, vectors, sparse)),
        run(lambda: ref_certificate([flatten_vector(v) for v in vectors], dense)),
    )


def test_sparse_certificate_matches_dense_reference():
    # on the flags found, and on flags changed by homogeneous column
    # operations (which keep triangularity when they add a column to a
    # later one) and by reorderings (which mostly break it)
    rng = random.Random(131)
    algebras = [
        random_solvable_instance(rng, group, r)
        for _, group, r in torsion_free_configs() for _ in range(4)
    ]
    algebras += [
        _borel(n, grading) for n in (2, 3, 4) for grading in ("plain", "z", "zsuper", "z2")
    ]
    outcomes = {"triangular": 0, "violated": 0}
    for L in algebras:
        for space, vectors, sparse, dense in _certificate_cases(L):
            got, want = _certificates(space, vectors, sparse, dense)
            assert got == want and isinstance(got, list)
            variants = []
            for _ in range(3):
                vs = list(vectors)
                i, j = sorted(rng.sample(range(len(vs)), 2)) if len(vs) > 1 else (0, 0)
                if i < j and vs[i].degree() == vs[j].degree():
                    vs[j] = vs[j] + vs[i].scale(rng.randint(-2, 2))
                vs[i] = vs[i].scale(rng.choice([-2, 3]))
                variants.append(vs)
                shuffled = list(vectors)
                rng.shuffle(shuffled)
                variants.append(shuffled)
            for vs in variants:
                got, want = _certificates(space, vs, sparse, dense)
                assert got == want
                outcomes["violated" if isinstance(got, str) else "triangular"] += 1
    assert min(outcomes.values()) >= 20


def test_corrupted_flag_fails_the_certificate():
    # swapping the first and last flag vectors of a Borel algebra breaks
    # triangularity; a repeated vector is no basis
    from reference import ref_certificate
    from colorlie import TheoremViolation
    from colorlie.structure import _certify

    for n in (3, 4):
        for grading in ("plain", "z", "zsuper", "z2"):
            for space, vectors, sparse, dense in _certificate_cases(_borel(n, grading)):
                swapped = list(vectors)
                swapped[0], swapped[-1] = swapped[-1], swapped[0]
                flat = [flatten_vector(v) for v in swapped]
                with pytest.raises(TheoremViolation, match="not upper triangular"):
                    _certify(space, swapped, sparse)
                with pytest.raises(TheoremViolation, match="not upper triangular"):
                    ref_certificate(flat, dense)
                repeated = vectors[:-1] + vectors[:1]
                with pytest.raises(TheoremViolation, match="do not form a basis"):
                    _certify(space, repeated, sparse)
                with pytest.raises(TheoremViolation, match="do not form a basis"):
                    _certify(space, vectors[:-1], sparse)
