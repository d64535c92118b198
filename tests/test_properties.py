"""Property tests under the derandomized profile of conftest.py: the
elimination kernel against sympy and its own invariants, on small and on
wide entries, the quotient's normal form against a reference
Gauss-Jordan, ``char_poly`` against sympy, the incremental graded kernel
against a stacked reference elimination, the sparse bracket kernel
against ``color_bracket``, the structure-constant table against
flattened brackets and against color skew symmetry and the color Jacobi
identity, the flattening of sparse maps, the solvability that a kernel filtration of
[L, L] reaching V proves, flags and ideal chains of planted solvable
algebras against the dense certificate and reference brackets, and the
problem-file round trip."""

import itertools
import json
import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
import hypothesis
from hypothesis import given, strategies as st

from colorlie import (
    Matrix, NotSolvable, ProblemFile, bracket_closure, char_poly, color_bracket, color_flag,
    common_homogeneous_eigenvector, derived_series, eval_bicharacter, flatten_map,
    flatten_vector, graded_kernel, ideal_chain, inverse, make_group, parse_problem, rref,
    serialize_problem, solve_unique,
)
from colorlie.algebra import _square
from colorlie.graded import _vector
from colorlie.linalg import _Echelon, _cleared
from colorlie.structure import (
    _Quotient, _coordinate_degrees, _dense, _filtration_dim, _kernel_filtration, _map_of,
    _rows, _sparse_elements,
)
from corpus import (
    all_configs, random_homogeneous_map, random_solvable_instance, random_space,
    torsion_free_configs,
)
from reference import (
    assert_kernel_matches_color_bracket,
    assert_series_and_center_match,
    assert_table_matches_brackets,
    densify,
    ref_certificate,
    ref_contains,
    ref_kernel,
    ref_rref,
    ref_span,
)

CONFIGS = all_configs()
Z1 = make_group(1, [])

# ------------------------------------------------- the elimination kernel

RATIONALS = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
)
# numerators up to 10^12 and denominators up to 10^6: elimination then
# meets large intermediate integers and large contents to divide out
WIDE = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**6)),
)


@st.composite
def matrices(draw, square=False, entries=RATIONALS):
    """Rational matrices with zero, duplicate and dependent rows mixed in
    among random ones, in random order."""
    cols = draw(st.integers(1, 5))
    nrows = cols if square else draw(st.integers(0, 6))
    rows = draw(st.lists(
        st.lists(entries, min_size=cols, max_size=cols),
        max_size=nrows,
    ))
    while len(rows) < nrows:
        kind = draw(st.sampled_from(["zero", "duplicate", "combination"]))
        if kind == "zero" or not rows:
            rows.append([Fraction(0)] * cols)
        elif kind == "duplicate":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c = draw(entries)
            rows.append([x + c * y for x, y in zip(a, b)])
    return Matrix(draw(st.permutations(rows)), cols=cols)


def _rank(rows, width):
    return len(ref_rref(rows, width))


@given(m=matrices())
def test_rref_matches_sympy(m):
    sympy = pytest.importorskip("sympy")
    flat = [sympy.Rational(x.numerator, x.denominator) for row in m.data for x in row]
    red, pivots = sympy.Matrix(m.rows, m.cols, flat).rref()
    want = [[Fraction(int(x.p), int(x.q)) for x in red.row(i)] for i in range(m.rows)]
    got, got_pivots, rank = rref(m)
    assert [list(row) for row in got.data] == want
    assert got_pivots == tuple(pivots) and rank == len(pivots)


@given(m=matrices(square=True))
def test_char_poly_matches_sympy(m):
    sympy = pytest.importorskip("sympy")
    flat = [sympy.Rational(x.numerator, x.denominator) for row in m.data for x in row]
    want = sympy.Matrix(m.rows, m.cols, flat).charpoly().all_coeffs()
    assert char_poly(m).coeffs == tuple(Fraction(int(c.p), int(c.q)) for c in reversed(want))


@given(m=matrices(), data=st.data())
def test_rref_invariant_under_row_operations(m, data):
    want = rref(m)
    rows = [list(row) for row in m.data]
    assert rref(Matrix(data.draw(st.permutations(rows)), cols=m.cols)) == want
    if len(rows) >= 2:
        i, j = data.draw(st.permutations(range(len(rows))))[:2]
        c = data.draw(RATIONALS)
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        assert rref(Matrix(rows, cols=m.cols)) == want


@given(m=matrices())
def test_echelon_tracks_transform_and_drops_dependent_rows(m):
    ech = _Echelon(m.cols, track=True)
    for k, v in enumerate(m.data):
        inside = ech.reduce(dict(enumerate(v))) is not None
        assert ech.add(dict(enumerate(v))) is not inside
        assert inside is (_rank(m.data[: k + 1], m.cols) == _rank(m.data[:k], m.cols))
    assert ech.count == m.rows
    rows = [densify(row, m.cols) for row in ech.sparse_rows]
    assert rows == ref_rref(m.data, m.cols)
    # R = T V, exactly
    for row, tr in zip(rows, ech.transform):
        combo = [Fraction(0)] * m.cols
        for i, t in tr.items():
            combo = [x + t * y for x, y in zip(combo, m.data[i])]
        assert combo == row
    # every inserted row comes back from its pivot coordinates
    for v in m.data:
        coords = ech.to_basis(ech.reduce(dict(enumerate(v))))
        combo = [Fraction(0)] * m.cols
        for c, w in zip(coords, m.data):
            combo = [x + c * y for x, y in zip(combo, w)]
        assert combo == list(v)


@st.composite
def shuffled_dicts(draw, rows):
    """Each dense row as a dict {index: value} in a random order, with
    some of its zeros stored explicitly: a bracket's terms can cancel."""
    out = []
    for row in rows:
        items = [(i, x) for i, x in enumerate(row) if x or draw(st.booleans())]
        out.append(dict(draw(st.permutations(items))))
    return out


@given(m=st.one_of(matrices(), matrices(entries=WIDE)), data=st.data())
def test_echelon_takes_dicts_with_zeros_in_any_order(m, data):
    """Dict rows with explicit zeros, in any order, reduce to sympy's RREF;
    ``reduce`` gives a combination of the span its pivot coordinates and
    a vector off the span None."""
    sympy = pytest.importorskip("sympy")
    flat = [sympy.Rational(x.numerator, x.denominator) for row in m.data for x in row]
    red, pivots = sympy.Matrix(m.rows, m.cols, flat).rref()
    want = [[Fraction(int(x.p), int(x.q)) for x in red.row(i)] for i in range(len(pivots))]
    ech = _Echelon(m.cols, data.draw(shuffled_dicts(m.data)))
    assert ech.pivots == list(pivots)
    assert [densify(row, m.cols) for row in ech.sparse_rows] == want
    cs = data.draw(st.lists(RATIONALS, min_size=len(want), max_size=len(want)))
    v = [sum((c * row[j] for c, row in zip(cs, want)), Fraction(0)) for j in range(m.cols)]
    (vec,) = data.draw(shuffled_dicts([v]))
    assert densify(ech.reduce(vec), len(want)) == cs
    if len(want) < m.cols:
        free = next(j for j in range(m.cols) if j not in pivots)
        v[free] += data.draw(st.fractions(min_value=1, max_value=5, max_denominator=4))
        (vec,) = data.draw(shuffled_dicts([v]))
        assert ech.reduce(vec) is None


@given(m=matrices(square=True))
def test_inverse_or_singular(m):
    n = m.rows
    if _rank(m.data, n) < n:
        with pytest.raises(ValueError):
            inverse(m)
    else:
        assert inverse(m) * m == Matrix.identity(n)
        assert m * inverse(m) == Matrix.identity(n)


@given(m=matrices(), data=st.data())
def test_solve_unique_sets_free_variables_to_zero(m, data):
    if data.draw(st.booleans()):
        b = list(m.apply(data.draw(st.lists(RATIONALS, min_size=m.cols, max_size=m.cols))))
    else:
        b = data.draw(st.lists(RATIONALS, min_size=m.rows, max_size=m.rows))
    x = solve_unique(m, b)
    augmented = [list(row) + [y] for row, y in zip(m.data, b)]
    if _rank(augmented, m.cols + 1) > _rank(m.data, m.cols):
        assert x is None
        return
    assert list(m.apply(x)) == b
    _, pivots, _ = rref(m)
    assert all(x[c] == 0 for c in range(m.cols) if c not in pivots)


@given(m=matrices(entries=WIDE), data=st.data())
def test_elimination_invariants_hold_for_wide_entries(m, data):
    test_rref_matches_sympy.hypothesis.inner_test(m)
    test_rref_invariant_under_row_operations.hypothesis.inner_test(m, data)
    test_echelon_tracks_transform_and_drops_dependent_rows.hypothesis.inner_test(m)
    test_solve_unique_sets_free_variables_to_zero.hypothesis.inner_test(m, data)


@given(m=matrices(square=True, entries=WIDE))
def test_inverse_or_singular_for_wide_entries(m):
    test_inverse_or_singular.hypothesis.inner_test(m)


@given(m=st.one_of(matrices(), matrices(entries=WIDE)), data=st.data())
def test_quotient_project_gives_the_normal_form(m, data):
    """``_Quotient.project`` reads v - sum_k v[p_k] R_k, for the reduced
    rows R_k with pivots p_k, at the free columns, and so does the
    functional phi_c at each free column c, whose entry at r is the
    projection of e_r read at c; ``_Echelon.reduce`` gives v's pivot coordinates
    [v[p_k]] when v lies in the span, with or without a transform."""
    if m.rows and data.draw(st.booleans()):
        # a vector of the span, whose normal form is zero
        cs = data.draw(st.lists(RATIONALS, min_size=m.rows, max_size=m.rows))
        v = [sum((c * row[j] for c, row in zip(cs, m.data)), Fraction(0))
             for j in range(m.cols)]
    else:
        entries = st.one_of(RATIONALS, WIDE)
        v = data.draw(st.lists(entries, min_size=m.cols, max_size=m.cols))
    red = ref_rref(m.data, m.cols)
    pivots = [next(c for c, x in enumerate(row) if x != 0) for row in red]
    want = list(v)
    for p, row in zip(pivots, red):
        want = [x - v[p] * y for x, y in zip(want, row)]
    free = [c for c in range(m.cols) if c not in pivots]
    q = _Quotient([Z1.identity()] * m.cols)
    q.add([dict(enumerate(row)) for row in m.data])
    assert q.free == free
    # project gives den times the normal form, for the quotient's den
    den = q.units[1]
    assert densify(q.project(dict(enumerate(v))), len(free)) == [den * want[c] for c in free]
    phis = [[(r, Fraction(q.project({r: 1}).get(i, 0), den)) for r in range(m.cols)]
            for i in range(len(free))]
    assert [sum((a * v[r] for r, a in phi), Fraction(0))
            for phi in phis] == [want[c] for c in free]
    for track in (False, True):
        ech = _Echelon(m.cols, map(dict, map(enumerate, m.data)), track=track)
        coeffs = ech.reduce(dict(enumerate(v)))
        got = None if coeffs is None else densify(coeffs, len(pivots))
        assert got == ([v[p] for p in pivots] if not any(want) else None)


def _stacked_kernel(maps, space):
    """graded_kernel as one reference elimination of every block row
    stacked, per degree."""
    out = []
    for h, n in space.dims:
        rows = [row for f in maps for g, b in f.blocks if g == h for row in b.data]
        out.extend(_vector(space, {h: v}) for v in ref_kernel(rows, n))
    return out


@given(
    config=st.sampled_from(CONFIGS),
    seed=st.integers(0, 10**9),
    count=st.integers(0, 6),
    density=st.sampled_from([0.2, 0.5, 0.9]),
)
def test_graded_kernel_matches_stacked_elimination(config, seed, count, density):
    _, group, _ = config
    rng = random.Random(seed)
    space = random_space(rng, group, max_dim=3)
    maps = [random_homogeneous_map(rng, space, density=density) for _ in range(count)]
    # repeated and scaled maps make dependent rows; a dense degree-zero
    # map reaches full rank early
    if maps:
        maps.append(maps[0])
        maps.append(random_homogeneous_map(rng, space, degree=group.identity(), density=1.0))
    assert graded_kernel(maps, space=space) == _stacked_kernel(maps, space)


@given(
    config=st.sampled_from(CONFIGS),
    seed=st.integers(0, 10**9),
    same=st.booleans(),
    density=st.sampled_from([0.3, 0.8]),
)
def test_sparse_bracket_matches_color_bracket(config, seed, same, density):
    _, group, r = config
    rng = random.Random(seed)
    space = random_space(rng, group, max_dim=3)
    a = random_homogeneous_map(rng, space, density=density)
    b = a if same else random_homogeneous_map(rng, space, density=density)
    assert_kernel_matches_color_bracket(r, a, b)


def _random_closure(config, seed):
    _, group, r = config
    rng = random.Random(seed)
    space = random_space(rng, group, max_total=4)
    gens = [random_homogeneous_map(rng, space, density=0.5) for _ in range(rng.randint(1, 3))]
    return bracket_closure(space, r, gens)


@given(config=st.sampled_from(CONFIGS), seed=st.integers(0, 10**9))
def test_table_matches_flattened_brackets(config, seed):
    assert_table_matches_brackets(_random_closure(config, seed))


@given(config=st.sampled_from(CONFIGS), seed=st.integers(0, 10**9))
def test_series_and_center_match_flattened_reference(config, seed):
    assert_series_and_center_match(_random_closure(config, seed))


def _combine(*terms) -> dict:
    """sum c v over the (c, sparse vector) terms, zeros dropped."""
    out: dict = {}
    for c, v in terms:
        for k, x in v.items():
            out[k] = out.get(k, 0) + c * x
    return {k: x for k, x in out.items() if x}


@given(config=st.sampled_from(CONFIGS), seed=st.integers(0, 10**9))
def test_table_is_color_skew_and_color_jacobi(config, seed):
    # on every pair and triple of the canonical basis, through L._bracket:
    # [R_j, R_i] = -r(|R_i|, |R_j|) [R_i, R_j] and, for [a, b] = ab -
    # r(|b|, |a|) ba, the color Jacobi identity
    # r(|x|, |z|) [x, [y, z]] + r(|y|, |x|) [y, [z, x]] + r(|z|, |y|) [z, [x, y]] = 0
    L = _random_closure(config, seed)
    units, deg = [L._unit(k) for k in range(L.dim)], L._degrees

    def r(i, j):
        return eval_bicharacter(L.r, deg[i], deg[j])

    for i, j in itertools.product(range(L.dim), repeat=2):
        twisted = _combine((-r(i, j), L._bracket(units[i], units[j])))
        assert _combine((1, L._bracket(units[j], units[i]))) == twisted
    for i, j, k in itertools.product(range(L.dim), repeat=3):
        x, y, z = units[i], units[j], units[k]
        assert not _combine(
            (r(i, k), L._bracket(x, L._bracket(y, z))),
            (r(j, i), L._bracket(y, L._bracket(z, x))),
            (r(k, j), L._bracket(z, L._bracket(x, y))),
        )


@given(config=st.sampled_from(CONFIGS), seed=st.integers(0, 10**9),
       density=st.floats(0.1, 1.0))
def test_flatten_of_sparse_map_matches_flatten_map(config, seed, density):
    # the stall's nil check flattens the sparse maps it already holds
    _, group, _ = config
    rng = random.Random(seed)
    space = random_space(rng, group)
    for _ in range(3):
        f = random_homogeneous_map(rng, space, density=density)
        n = space.total_dim
        flat, den = _cleared(f.entries)
        _, cols, den = _map_of(f.degree, flat, n, den)
        assert _dense(_rows(cols), range(n), den) == flatten_map(f)


# ----------------------------------------- solvability by the filtration


def _filtration_reaches_v(L):
    """Whether the kernel filtration of [L, L] on V reaches V."""
    nil = _sparse_elements(L, _square(L)._vectors())
    levels = _kernel_filtration(_coordinate_degrees(L.space), nil, [])
    return _filtration_dim(levels) == L.space.total_dim


@given(config=st.sampled_from(CONFIGS), seed=st.integers(0, 10**9), planted=st.booleans())
def test_filtration_reaching_v_proves_solvable(config, seed, planted):
    # every element of [L, L] then strictly raises a finite filtration,
    # so the m-th derived term raises it by 2^(m-1) and the series dies
    # out; the argument needs neither torsion-freeness nor the
    # bicharacter.  A planted solvable instance has [L, L] strictly upper
    # triangular in a hidden flag, so its filtration always reaches V
    if planted:
        _, group, r = config
        L = random_solvable_instance(random.Random(seed), group, r)
        assert _filtration_reaches_v(L)
    else:
        L = _random_closure(config, seed)
    if _filtration_reaches_v(L):
        assert derived_series(L)[-1].dim == 0


@given(config=st.sampled_from([c for c in CONFIGS if c[1].is_torsion_free()]),
       seed=st.integers(0, 10**9))
def test_checked_calls_refuse_non_solvable_closures(config, seed):
    # a non-solvable L stalls the filtration, and the checked calls
    # report it as the failed hypothesis: no flag depth, no witness
    L = _random_closure(config, seed)
    hypothesis.assume(derived_series(L)[-1].dim != 0)
    for call in (color_flag, ideal_chain, common_homogeneous_eigenvector):
        with pytest.raises(NotSolvable) as info:
            call(L)
        assert getattr(info.value, "flag_depth", None) is None
        assert info.value.witness is None
        assert str(info.value) == "algebra is not solvable"


# ------------------------------------- flags and chains of solvable algebras


@given(seed=st.integers(0, 10**9))
def test_flags_and_chains_of_solvable_instances_pass_the_references(seed):
    # in every torsion-free grading: the flag passes the dense T^-1 M T
    # certificate on its flattened vectors, with the weights on its
    # diagonals, and every chain member is an ideal under brackets
    # formed by color_bracket and reduced by the reference elimination
    rng = random.Random(seed)
    for _, group, r in torsion_free_configs():
        L = random_solvable_instance(rng, group, r)
        flag = color_flag(L)
        assert all(v.is_homogeneous() for v in flag.ordered_basis)
        products = ref_certificate(
            [flatten_vector(v) for v in flag.ordered_basis],
            [flatten_map(f) for f in L.basis],
        )
        diagonals = [[c[i][i] for i in range(len(c))] for c in products]
        assert [list(w.values) for w in flag.weights] == [list(d) for d in zip(*diagonals)]
        chain = ideal_chain(L).chain
        assert [s.dim for s in chain] == list(range(L.dim + 1))
        for below, sub in zip(chain, chain[1:]):
            span = ref_span(L.space, sub.elements())
            assert len(span) == sub.dim
            assert all(ref_contains(span, f) for f in below.elements())
            assert all(
                ref_contains(span, color_bracket(L.r, a, b))
                for a in L.basis for b in sub.elements()
            )


@given(seed=st.integers(0, 10**9))
def test_eigenvector_is_the_first_flag_vector(seed):
    # in every torsion-free grading, checked and unchecked: the common
    # homogeneous eigenvector and its weight are the flag's first vector
    # and first weight
    rng = random.Random(seed)
    for _, group, r in torsion_free_configs():
        L = random_solvable_instance(rng, group, r)
        for check in (True, False):
            flag = color_flag(L, check_hypotheses=check)
            vec, weight = common_homogeneous_eigenvector(L, check_hypotheses=check)
            assert vec == flag.ordered_basis[0]
            assert weight == flag.weights[0]


# ------------------------------------------------------ problem files


@given(seed=st.integers(0, 10**9), count=st.integers(0, 3))
def test_problem_round_trips_through_serialization(seed, count):
    # in every grading, torsion included, as the document and as JSON text
    rng = random.Random(seed)
    for _, group, r in CONFIGS:
        space = random_space(rng, group)
        gens = tuple(random_homogeneous_map(rng, space, density=0.6) for _ in range(count))
        problem = ProblemFile(group, r, space, gens)
        doc = serialize_problem(problem)
        assert parse_problem(doc) == problem
        assert parse_problem(json.loads(json.dumps(doc))) == problem


@given(m=matrices(square=True))
def test_triangular_block_eigenvalue_is_its_smallest_root(m):
    # an upper triangular block's smallest diagonal entry, with no
    # characteristic polynomial, is the first of its sorted rational roots
    from colorlie.linalg import rational_roots
    from colorlie.structure import _rational_eigenvalue

    upper = Matrix([[x if j >= i else 0 for j, x in enumerate(row)]
                    for i, row in enumerate(m.data)])
    rows = {i: {j: x for j, x in enumerate(row) if x} for i, row in enumerate(upper.data)}
    assert (_rational_eigenvalue(rows, [range(upper.rows)], 1)
            == rational_roots(char_poly(upper))[0][0])
