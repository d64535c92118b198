"""Exact linear algebra: echelon forms, kernels, characteristic
polynomials, rational roots and nilpotency certificates, each checked
against an independent oracle."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from colorlie import (
    Matrix,
    NotSquare,
    Poly,
    SizeMismatch,
    ZeroPolynomial,
    char_poly,
    inverse,
    is_nilpotent_matrix,
    kernel_basis,
    nil_subspace_check,
    rational_roots,
    rref,
    solve_unique,
)
from colorlie import linalg
from reference import ref_products_vanish, ref_traces_vanish


def rand_matrix(rng, n, m, lo=-4, hi=4, den=2):
    return Matrix(
        [
            [Fraction(rng.randint(lo, hi), rng.randint(1, den)) for _ in range(m)]
            for _ in range(n)
        ]
    )


# -------------------------------------------------------------- matrix


def test_transpose_of_empty_shapes():
    for rows, cols in ((0, 3), (3, 0), (0, 0)):
        t = Matrix.zero(rows, cols).transpose()
        assert (t.rows, t.cols) == (cols, rows)
        assert t == Matrix.zero(cols, rows)
        assert t.transpose() == Matrix.zero(rows, cols)


# ---------------------------------------------------------------- rref


def test_rref_rank_one():
    red, pivots, rank = rref(Matrix([[2, 4], [1, 2]]))
    assert red == Matrix([[1, 2], [0, 0]])
    assert pivots == (0,)
    assert rank == 1


def test_rref_identity():
    ident = Matrix.identity(3)
    red, pivots, rank = rref(ident)
    assert red == ident
    assert rank == 3


def test_rref_zero():
    z = Matrix.zero(2, 3)
    red, pivots, rank = rref(z)
    assert red == z
    assert rank == 0
    assert pivots == ()


def test_rref_idempotent():
    rng = random.Random(7)
    for _ in range(25):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        red, _, _ = rref(m)
        again, _, _ = rref(red)
        assert again == red


# -------------------------------------------------------------- kernel


def test_kernel_invertible():
    assert kernel_basis(Matrix([[1, 0], [0, 1]])) == []


def test_kernel_shift():
    assert kernel_basis(Matrix([[0, 1], [0, 0]])) == [(Fraction(1), Fraction(0))]


def test_kernel_zero_matrix():
    assert len(kernel_basis(Matrix.zero(2, 2))) == 2


def test_kernel_exactness_and_dimension():
    rng = random.Random(11)
    for _ in range(40):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        basis = kernel_basis(m)
        _, _, rank = rref(m)
        assert rank + len(basis) == m.cols
        for v in basis:
            assert all(x == 0 for x in m.apply(v))


# ----------------------------------------------------------- char poly


def _poly_det(entries):
    # Laplace expansion over Poly entries; fine for n <= 4
    n = len(entries)
    if n == 0:
        return Poly((Fraction(1),))
    if n == 1:
        return entries[0][0]
    acc = Poly(())
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in entries[1:]]
        term = entries[0][j] * _poly_det(minor)
        acc = acc + (term if j % 2 == 0 else term.scale(-1))
    return acc


def char_poly_oracle(m):
    n = m.rows
    entries = [
        [
            Poly((-m.data[i][j], Fraction(1)))
            if i == j
            else Poly((-m.data[i][j],))
            for j in range(n)
        ]
        for i in range(n)
    ]
    return _poly_det(entries)


def test_char_poly_jordan_block():
    assert char_poly(Matrix([[0, 1], [0, 0]])) == Poly((0, 0, 1))


def test_char_poly_identity():
    assert char_poly(Matrix.identity(2)) == Poly((1, -2, 1))


def test_char_poly_cyclic_permutation():
    a = Matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    p = char_poly(a)
    assert p == Poly((-1, 0, 0, 1))
    assert p == char_poly_oracle(a)


def test_char_poly_matches_cofactor_oracle():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = rand_matrix(rng, n, n)
        assert char_poly(m) == char_poly_oracle(m)


def faddeev_leverrier(m):
    # second independent oracle, practical up to n ~ 8
    n = m.rows
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    aux = Matrix.identity(n)
    for k in range(1, n + 1):
        aux = m * aux
        c = -aux.trace() / k
        coeffs[n - k] = c
        aux = aux + Matrix.identity(n).scale(c)
    return Poly(tuple(coeffs))


def test_char_poly_matches_faddeev_leverrier():
    rng = random.Random(19)
    for _ in range(15):
        n = rng.randint(1, 8)
        m = rand_matrix(rng, n, n, lo=-3, hi=3)
        assert char_poly(m) == faddeev_leverrier(m)


def _mixed_denominators(rng, n):
    # denominators 1..10, so the common denominator divides lcm(1..10) = 2520
    return Matrix(
        [
            [
                Fraction(rng.randint(-9, 9), rng.randint(1, 10)) if rng.random() < 0.8 else 0
                for _ in range(n)
            ]
            for _ in range(n)
        ],
        cols=n,
    )


def test_char_poly_mixed_denominators_match_oracles():
    assert char_poly(Matrix([])) == Poly((1,))
    rng = random.Random(41)
    dens = set()
    for n in range(11):
        for _ in range(3):
            m = _mixed_denominators(rng, n)
            dens.add(math.lcm(*(x.denominator for row in m.data for x in row)))
            p = char_poly(m)
            assert p == faddeev_leverrier(m)
            if n <= 5:
                assert p == char_poly_oracle(m)
    assert 2520 in dens


def test_cayley_hamilton():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 6)
        m = rand_matrix(rng, n, n, lo=-3, hi=3)
        p = char_poly(m)
        acc = Matrix.zero(n, n)
        for k, c in enumerate(p.coeffs):
            acc = acc + m.power(k).scale(c)
        assert acc.is_zero()


def test_char_poly_not_square():
    with pytest.raises(NotSquare):
        char_poly(Matrix([[1, 2]]))


# ------------------------------------------------------ rational roots


def _roots_oracle(p):
    # independent exhaustive candidate scan with naive trial division
    import math

    work = p
    found = {}
    while work.coeffs and work.coeffs[0] == 0:
        found[Fraction(0)] = found.get(Fraction(0), 0) + 1
        work = Poly(tuple(work.coeffs[1:]))
    if work.degree >= 1:
        den = math.lcm(*(c.denominator for c in work.coeffs))
        ints = [int(c * den) for c in work.coeffs]
        a0, an = abs(ints[0]), abs(ints[-1])
        nums = [d for d in range(1, a0 + 1) if a0 % d == 0]
        dens = [d for d in range(1, an + 1) if an % d == 0]
        for num in nums:
            for q in dens:
                for cand in (Fraction(num, q), Fraction(-num, q)):
                    if cand in found:
                        continue
                    if work.evaluate(cand) == 0:
                        mult = 0
                        probe = work
                        while probe.evaluate(cand) == 0 and probe.degree >= 1:
                            probe = probe.deflate(cand)
                            mult += 1
                        found[cand] = mult
    return sorted(found.items())


def test_rational_roots_quadratic():
    assert rational_roots(Poly((-1, 0, 1))) == [
        (Fraction(-1), 1),
        (Fraction(1), 1),
    ]


def test_rational_roots_cubic():
    assert rational_roots(Poly((-1, 0, 0, 1))) == [(Fraction(1), 1)]


def test_rational_roots_irreducible():
    assert rational_roots(Poly((1, 0, 1))) == []


def test_rational_roots_zero_poly():
    with pytest.raises(ZeroPolynomial):
        rational_roots(Poly(()))


def test_rational_roots_against_oracle():
    rng = random.Random(13)
    for _ in range(30):
        # random product of linear factors times an irreducible tail
        p = Poly((Fraction(rng.randint(1, 3)),))
        for _ in range(rng.randint(0, 3)):
            root = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            p = p * Poly((-root, 1))
        if rng.random() < 0.5:
            p = p * Poly((1, 0, 1))
        assert rational_roots(p) == _roots_oracle(p)


def _sympy_roots(p):
    # rational roots with multiplicities from sympy's factorization over Q
    import sympy

    t = sympy.Symbol("t")
    found = {}
    for factor, mult in sympy.Poly(list(reversed(p.coeffs)), t, domain=sympy.QQ).factor_list()[1]:
        if factor.degree() == 1:
            c1, c0 = factor.all_coeffs()
            root = Fraction(str(-c0 / c1))
            found[root] = found.get(root, 0) + mult
    return sorted(found.items())


def _candidates(p):
    # the lifted candidates for p with its factors of t split off
    from colorlie.linalg import _root_candidates

    work = p
    while work.coeffs[0] == 0:
        work = Poly(work.coeffs[1:])
    if work.degree < 1:
        return [], 0
    den = math.lcm(*(c.denominator for c in work.coeffs))
    return _root_candidates([int(c * den) for c in work.coeffs]), work.degree


# irreducible over Q: t^2 + 1, t^2 - 2, t^3 - 3t - 1, t^2 + t + 3, 2t^3 - 5
IRREDUCIBLE = [(1, 0, 1), (-2, 0, 1), (-1, -3, 0, 1), (3, 1, 1), (-5, 0, 0, 2)]


def test_rational_roots_against_sympy():
    pytest.importorskip("sympy")
    rng = random.Random(29)
    for _ in range(200):
        lc = rng.choice([1, 2, 3, 4, 6, 12, 30])
        dens = [d for d in range(1, lc + 1) if lc % d == 0]
        p = Poly((Fraction(rng.choice([-7, -2, -1, 1, 3, 5]), rng.randint(1, 5)),))
        for _ in range(rng.randint(1, 4)):
            root = Fraction(rng.randint(-40, 40), rng.choice(dens))
            for _ in range(rng.randint(1, 3)):
                p = p * Poly((-root, 1))
        for _ in range(rng.randint(0, 2)):
            p = p * Poly(rng.choice(IRREDUCIBLE))
        assert rational_roots(p) == _sympy_roots(p), str(p)
        cands, deg = _candidates(p)
        assert len(cands) <= deg


def test_rational_roots_prime_two_rejected():
    # (t - 1)(t - 3) = (t + 1)^2 mod 2 is not square-free there
    from colorlie.linalg import _lifting_prime

    assert _lifting_prime([3, -4, 1], [-4, 2]) == 3
    assert rational_roots(Poly((3, -4, 1))) == [(Fraction(1), 1), (Fraction(3), 1)]


def test_rational_roots_primes_dividing_lc_rejected():
    # (2t - 1)(3t - 1): 2 and 3 divide the leading coefficient 6
    from colorlie.linalg import _lifting_prime

    assert _lifting_prime([1, -5, 6], [-5, 12]) == 5
    assert rational_roots(Poly((1, -5, 6))) == [
        (Fraction(1, 3), 1),
        (Fraction(1, 2), 1),
    ]


def test_rational_roots_degree_one():
    assert rational_roots(Poly((Fraction(1, 2), Fraction(3, 4)))) == [(Fraction(-2, 3), 1)]
    assert rational_roots(Poly((-7, 1))) == [(Fraction(7), 1)]


def test_rational_roots_power_of_t():
    assert rational_roots(Poly((0, 0, 0, 0, Fraction(2, 3)))) == [(Fraction(0), 4)]
    assert rational_roots(Poly((0, 0, 0, 0, 1))) == [(Fraction(0), 4)]


def test_rational_roots_large_root():
    # the divisor search would need about 10^15 trial divisions here
    big = 123456789012345678901234567891
    p = Poly((-1, 1)) * Poly((-big, 1)) * Poly((-big, 1)) * Poly((1, 0, 1))
    assert rational_roots(p) == [(Fraction(1), 1), (Fraction(big), 2)]
    cands, deg = _candidates(p)
    assert len(cands) <= deg


# ---------------------------------------------------------- nilpotency


def nilpotent_oracle(m):
    acc = m
    for _ in range(m.rows):
        if acc.is_zero():
            return True
        acc = acc * m
    return m.rows == 0 or acc.is_zero() or False


def test_is_nilpotent_examples():
    assert is_nilpotent_matrix(Matrix([[0, 1], [0, 0]]))
    assert not is_nilpotent_matrix(Matrix.identity(2))
    assert not is_nilpotent_matrix(Matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))


def test_is_nilpotent_not_square():
    with pytest.raises(NotSquare):
        is_nilpotent_matrix(Matrix([[1, 2]]))


def test_is_nilpotent_against_power_oracle():
    rng = random.Random(17)
    for _ in range(120):
        n = rng.randint(1, 4)
        if rng.random() < 0.5:
            # strictly upper triangular, conjugated: always nilpotent
            rows = [
                [
                    Fraction(rng.randint(-2, 2)) if j > i else Fraction(0)
                    for j in range(n)
                ]
                for i in range(n)
            ]
            m = Matrix(rows)
        else:
            m = rand_matrix(rng, n, n, lo=-2, hi=2, den=1)
        assert is_nilpotent_matrix(m) == (m.power(max(n, 1)).is_zero())


# ------------------------------------------------- nil subspace check


def _span_grid_oracle(mats, steps=5):
    """Sample the span on a fine rational grid; every sampled element
    must be nilpotent."""
    grid = [Fraction(k, 2) for k in range(-steps, steps + 1)]
    for coeffs in itertools.product(grid, repeat=len(mats)):
        acc = Matrix.zero(mats[0].rows, mats[0].cols)
        for c, b in zip(coeffs, mats):
            acc = acc + b.scale(c)
        if not is_nilpotent_matrix(acc):
            return False
    return True


def test_nil_subspace_single_nilpotent():
    assert nil_subspace_check([Matrix([[0, 1], [0, 0]])])


def test_nil_subspace_pair_not_nil():
    e12 = Matrix([[0, 1], [0, 0]])
    e21 = Matrix([[0, 0], [1, 0]])
    assert not nil_subspace_check([e12, e21])


def test_nil_subspace_empty():
    assert nil_subspace_check([])


def test_nil_subspace_rejects_unknown_policy_before_early_returns():
    for mats in ([], [Matrix([])], [Matrix([[0, 1], [0, 0]])]):
        with pytest.raises(ValueError):
            nil_subspace_check(mats, policy="bogus")


def test_nil_subspace_size_mismatch():
    with pytest.raises(SizeMismatch):
        nil_subspace_check([Matrix.identity(2), Matrix.identity(3)])


def test_nil_subspace_matches_grid_oracle():
    rng = random.Random(23)
    for _ in range(15):
        n = rng.randint(2, 4)
        mats = []
        nil = rng.random() < 0.5
        for _ in range(rng.randint(1, 2)):
            if nil:
                rows = [
                    [
                        Fraction(rng.randint(-2, 2)) if j > i else Fraction(0)
                        for j in range(n)
                    ]
                    for i in range(n)
                ]
                mats.append(Matrix(rows))
            else:
                mats.append(rand_matrix(rng, n, n, lo=-2, hi=2, den=1))
        expected = _span_grid_oracle(mats, steps=3)
        assert nil_subspace_check(mats, policy="deterministic") == expected


def test_nil_subspace_probabilistic_consistency():
    e12 = Matrix([[0, 1], [0, 0]])
    e21 = Matrix([[0, 0], [1, 0]])
    assert nil_subspace_check([e12], policy="probabilistic", seed=42)
    assert not nil_subspace_check([e12, e21], policy="probabilistic", seed=42)
    # reproducible under a fixed seed
    a = nil_subspace_check([e12, e21], policy="probabilistic", seed=1)
    b = nil_subspace_check([e12, e21], policy="probabilistic", seed=1)
    assert a == b


def _unit(n, i, j):
    return Matrix([[1 if (r, c) == (i, j) else 0 for c in range(n)] for r in range(n)])


def test_nil_subspace_interior_only_witness():
    # on the k-cycle E12, E23, ..., Ek1 every trace power vanishes except
    # tr M^k = k * t1 * ... * tk, which is zero on every face of the simplex
    for k in (3, 4):
        cycle = [_unit(k, i, (i + 1) % k) for i in range(k)]
        assert not nil_subspace_check(cycle, policy="deterministic")
        assert nil_subspace_check(cycle[:-1], policy="deterministic")


def _count_points(monkeypatch):
    calls = []
    real = linalg._nilpotent_at

    def counting(point, ints, n):
        calls.append(point)
        return real(point, ints, n)

    monkeypatch.setattr(linalg, "_nilpotent_at", counting)
    return calls


# A and B span a nil 3 x 3 space: (aA + bB)^3 = 0.  But AB = diag(1, 0, -1)
# is not nilpotent, so no product of them vanishes and the product chain
# of any span containing them stalls.
_A = [[0, -1, 0], [0, 0, 0], [1, 0, 0]]
_B = [[0, 0, -1], [-1, 0, 0], [0, 0, 0]]


def _embedded(m, n):
    """m (3 x 3) in the top left corner of an n x n zero matrix."""
    return Matrix([[m[i][j] if i < 3 and j < 3 else 0 for j in range(n)] for i in range(n)])


def test_nil_subspace_deterministic_point_count(monkeypatch):
    calls = _count_points(monkeypatch)
    span = [_embedded(_A, 5), _embedded(_B, 5), _unit(5, 3, 4)]
    assert nil_subspace_check(span, policy="deterministic")
    # the chain stalls, so all C(5 + 3 - 1, 3 - 1) points with coordinate
    # sum 5 run, not the 6^3 grid
    assert len(calls) == 21
    assert all(sum(p) == 5 for p in calls)
    assert len(set(calls)) == 21


def test_nil_subspace_product_chain_ends_the_layer(monkeypatch):
    calls = _count_points(monkeypatch)
    upper = [_unit(5, 0, 1), _unit(5, 1, 3), _unit(5, 2, 4)]
    assert nil_subspace_check(upper, policy="deterministic")
    # the chain runs after k = ceil(s n / ceil(log2 n)) = 5 points and
    # reaches 0, which proves the span nil
    assert len(calls) == 5 < 21
    assert calls == list(itertools.islice(linalg._simplex_layer(5, 3), 5))


def _conjugated(rng, n, m):
    """p m p^-1 for a random unimodular integer p, as integer rows."""
    p = Matrix.identity(n)
    for _ in range(n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        p = p * (Matrix.identity(n) + _unit(n, i, j).scale(rng.choice((-1, 1))))
    return [[int(x) for x in row] for row in (p * Matrix(m, cols=n) * inverse(p)).data]


def _zero_trace_non_nilpotent(rng, n):
    """A signed k-cycle (2 <= k <= n) or a rotation on two coordinates:
    trace zero, not nilpotent."""
    if rng.random() < 0.5:
        k = rng.randint(2, n)
        idx = rng.sample(range(n), k)
        pairs = [(idx[i], idx[(i + 1) % k], rng.choice((-2, -1, 1, 2))) for i in range(k)]
    else:
        i, j = rng.sample(range(n), 2)
        b = rng.choice((-2, -1, 1, 2))
        pairs = [(i, j, -b), (j, i, b)]
    m = [[0] * n for _ in range(n)]
    for i, j, w in pairs:
        m[i][j] = w
    return m


def test_nilpotent_at_matches_trace_oracle():
    rng = random.Random(37)
    verdicts = []
    zero_trace_rejects = 0
    for n in range(1, 9):
        for s in range(1, 5):
            for kind in range(4):
                ints = []
                for _ in range(s):
                    upper = [[rng.randint(-2, 2) if j > i else 0 for j in range(n)] for i in range(n)]
                    if kind == 0:
                        ints.append(upper)
                    elif kind == 1:
                        ints.append(_conjugated(rng, n, upper))
                    elif kind == 2 and n > 1:
                        ints.append(_conjugated(rng, n, _zero_trace_non_nilpotent(rng, n)))
                    else:
                        ints.append([[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)])
                for _ in range(3):
                    point = tuple(rng.randint(-3, 3) for _ in range(s))
                    expected = ref_traces_vanish(point, ints, n)
                    assert linalg._nilpotent_at(point, ints, n) == expected
                    verdicts.append(expected)
                    x = [[sum(t * b[i][j] for t, b in zip(point, ints)) for j in range(n)] for i in range(n)]
                    if not expected and not sum(x[i][i] for i in range(n)):
                        zero_trace_rejects += 1
    assert 100 < sum(verdicts) < len(verdicts) - 100
    assert zero_trace_rejects > 50


def _nil_on_full_grid(mats):
    """Reference decider: every element with coordinates in {0..n}^s is
    nilpotent, tested by an integer power M^n == 0."""
    n = mats[0].rows
    ints = [[[int(x) for x in row] for row in m.data] for m in mats]
    for point in itertools.product(range(n + 1), repeat=len(mats)):
        m = [
            [sum(t * b[i][j] for t, b in zip(point, ints)) for j in range(n)]
            for i in range(n)
        ]
        p = m
        for _ in range(n - 1):
            p = [
                [sum(p[i][l] * m[l][j] for l in range(n)) for j in range(n)]
                for i in range(n)
            ]
        if any(any(row) for row in p):
            return False
    return True


def _triangular(rng, n, upper):
    return Matrix(
        [
            [
                rng.randint(-2, 2) if (j > i if upper else j < i) else 0
                for j in range(n)
            ]
            for i in range(n)
        ]
    )


def test_nil_subspace_layer_matches_full_grid():
    rng = random.Random(31)
    verdicts = []
    for trial in range(200):
        n = rng.randint(2, 5)
        s = rng.randint(1, 4)
        kind = trial % 4
        if kind == 0:
            mats = [_triangular(rng, n, upper=True) for _ in range(s)]
        elif kind == 1:
            # each generator nilpotent, their sum usually not
            mats = [_triangular(rng, n, upper=i % 2 == 0) for i in range(s)]
        elif kind == 2:
            # a nil span that is not triangular in the standard basis:
            # conjugate by a unimodular integer matrix
            p = Matrix.identity(n)
            for _ in range(n):
                i, j = rng.sample(range(n), 2)
                p = p * (Matrix.identity(n) + _unit(n, i, j).scale(rng.choice((-1, 1))))
            p_inv = inverse(p)
            mats = [p * _triangular(rng, n, upper=True) * p_inv for _ in range(s)]
        else:
            mats = [rand_matrix(rng, n, n, lo=-1, hi=1, den=1) for _ in range(s)]
        expected = _nil_on_full_grid(mats)
        assert nil_subspace_check(mats, policy="deterministic") == expected
        verdicts.append(expected)
    assert 40 < sum(verdicts) < 160


def test_products_vanish_matches_all_words():
    rng = random.Random(43)
    verdicts = []
    for trial in range(160):
        n = rng.randint(1, 4)
        s = rng.randint(1, 3)
        kind = trial % 4
        if kind == 0:
            mats = [_triangular(rng, n, upper=True) for _ in range(s)]
        elif kind == 1:
            mats = [Matrix(_conjugated(rng, n, _triangular(rng, n, upper=True).data))
                    for _ in range(s)]
        elif kind == 2:
            n = max(n, 3)
            mats = [_embedded(_A, n), _embedded(_B, n)]
            mats += [rand_matrix(rng, n, n, lo=-1, hi=1, den=1) for _ in range(s - 2)]
        else:
            mats = [rand_matrix(rng, n, n, lo=-1, hi=1, den=1) for _ in range(s)]
        ints = [[[int(x) for x in row] for row in m.data] for m in mats]
        expected = ref_products_vanish(ints, n)
        assert linalg._products_vanish(ints, n) == expected
        if expected:
            # a proof that the span is nil
            assert _nil_on_full_grid(mats)
        verdicts.append(expected)
    assert 60 < sum(verdicts) < 120


def test_nil_subspace_with_stalled_chain_matches_full_grid():
    # the nil pair A, B stalls the chain; with E_11 the span is not nil
    for n in (4, 5):
        pair = [_embedded(_A, n), _embedded(_B, n)]
        for extra in ([], [_unit(n, n - 2, n - 1)], [_unit(n, 0, 0)], [_unit(n, n - 1, 0)]):
            mats = pair + extra
            ints = [[[int(x) for x in row] for row in m.data] for m in mats]
            assert not linalg._products_vanish(ints, n)
            expected = _nil_on_full_grid(mats)
            assert nil_subspace_check(mats, policy="deterministic") == expected
            point = linalg._non_nilpotent_point(mats, "deterministic", 0)
            assert (point is None) == expected
            if point is not None:
                x = sum((m.scale(t) for t, m in zip(point, mats)), Matrix.zero(n, n))
                assert not is_nilpotent_matrix(x)


def _fraction_triangular(rng, n, upper):
    """A strictly triangular matrix with entries of denominators up to 3."""
    return Matrix([
        [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) if (c > r if upper else c < r) else 0
         for c in range(n)]
        for r in range(n)
    ])


def test_non_nilpotent_point_is_a_witness_for_fraction_spans():
    # denominators cleared per matrix would give 2 M1 and M2, whose sum
    # is not nilpotent at (1, 1), though M1 + M2 = [[0, 0], [-1/2, 0]] is
    m1 = Matrix([[0, -1], [Fraction(-1, 2), 0]])
    m2 = _unit(2, 0, 1)
    for policy in ("deterministic", "probabilistic"):
        point = linalg._non_nilpotent_point([m1, m2], policy, 0)
        assert point is not None
        assert not is_nilpotent_matrix(m1.scale(point[0]) + m2.scale(point[1]))
    # each member nilpotent, so only mixed points can be witnesses
    rng = random.Random(47)
    witnessed = 0
    for _ in range(60):
        n = rng.randint(2, 4)
        mats = [_fraction_triangular(rng, n, upper=i % 2 == 0) for i in range(rng.randint(2, 3))]
        point = linalg._non_nilpotent_point(mats, "deterministic", 0)
        # the grid reads integer entries; a common scale keeps the span
        assert (point is None) == _nil_on_full_grid([m.scale(6) for m in mats])
        if point is not None:
            x = sum((m.scale(t) for t, m in zip(point, mats)), Matrix.zero(n, n))
            assert not is_nilpotent_matrix(x)
            witnessed += 1
    assert witnessed > 20


# ------------------------------------------------------ solve, inverse


def test_solve_unique_and_inverse():
    rng = random.Random(29)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = rand_matrix(rng, n, n)
        _, _, rank = rref(m)
        if rank < n:
            continue
        x = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
        b = m.apply(x)
        assert solve_unique(m, b) == x
        assert inverse(m) * m == Matrix.identity(n)


def test_solve_inconsistent():
    assert solve_unique(Matrix([[1, 0], [1, 0]]), (0, 1)) is None


def test_hilbert_inverse_matches_closed_form():
    # H_ij = 1 / (i + j - 1) is badly conditioned: its inverse has integer
    # entries growing like 4^(2n), so elimination carries large
    # intermediate integers and divides out large contents
    for n in range(1, 13):
        h = Matrix([[Fraction(1, i + j - 1) for j in range(1, n + 1)] for i in range(1, n + 1)])
        want = [
            [
                (-1) ** (i + j) * (i + j - 1) * math.comb(n + i - 1, n - j)
                * math.comb(n + j - 1, n - i) * math.comb(i + j - 2, i - 1) ** 2
                for j in range(1, n + 1)
            ]
            for i in range(1, n + 1)
        ]
        assert inverse(h) == Matrix(want)
        ones = (Fraction(1),) * n
        assert solve_unique(h, h.apply(ones)) == ones


def test_apply_matches_full_sum():
    # zero entries are skipped; the result is the same tuple of Fractions
    # as the plain sum over every entry
    rng = random.Random(113)
    for _ in range(200):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        a = rand_matrix(rng, n, m, lo=-2, hi=2, den=3)
        v = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(m))
        want = tuple(sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a.data)
        got = a.apply(v)
        assert got == want
        assert all(type(x) is Fraction for x in got)
    with pytest.raises(SizeMismatch):
        Matrix.identity(2).apply((Fraction(1),))
