"""Exact values at every edge: each number the public API returns is a
``Fraction`` (never an int or a float) on every grading of
``corpus.all_configs`` and on Borel algebras conjugated by rational
matrices, a hypothesis witness is an exact integer point that holds for
the maps at their own scale, and the elimination kernel gives the same
canonical echelon whether a span is given as Fractions, as ints or
mixed, in any insertion order."""

import itertools
import random
from fractions import Fraction

import pytest

from colorlie import (
    HypothesisFailed,
    IrrationalEigenvalue,
    Matrix,
    NoHomogeneousEigenvector,
    NotSolvable,
    TheoremViolation,
    bracket_closure,
    color_flag,
    common_annihilated_vector,
    common_homogeneous_eigenvector,
    derived_series,
    flatten_map,
    ideal_chain,
    is_nilpotent_matrix,
    make_bicharacter,
    make_group,
    make_map,
    make_space,
)
from colorlie.linalg import _Echelon
from corpus import (
    all_configs,
    random_nil_instance,
    random_solvable_instance,
    rational_conjugated_borel,
)

# the ways a flag or chain may legitimately fail on a torsion grading,
# where the hypotheses are not checked
UNCHECKED_FAILURES = (NoHomogeneousEigenvector, NotSolvable, IrrationalEigenvalue,
                      TheoremViolation)


def _all_fractions(values) -> bool:
    values = list(values)
    return all(type(x) is Fraction for x in values)


def _map_values(f):
    return [x for _, block in f.blocks for row in block.data for x in row]


def _vector_values(v):
    return [x for _, comp in v.components for x in comp]


def _assert_flag_exact(L, flag):
    assert _all_fractions(x for v in flag.ordered_basis for x in _vector_values(v))
    assert _all_fractions(x for w in flag.weights for x in w.values)
    assert _all_fractions(x for m in flag.columns for col in m for x in col.values())
    for f in L.basis:
        assert _all_fractions(x for row in flag.matrix(f).data for x in row)


def _assert_chain_exact(chain):
    for member in chain.chain:
        assert _all_fractions(x for f in member.elements() for x in _map_values(f))


def _assert_exact(L, check: bool):
    """Every flag, eigenvector, chain and annihilated vector value of L is
    a Fraction; unchecked runs on torsion gradings may fail instead."""
    try:
        _assert_flag_exact(L, color_flag(L, check_hypotheses=check))
    except UNCHECKED_FAILURES:
        assert not check
    try:
        v, w = common_homogeneous_eigenvector(L, check_hypotheses=check)
        assert _all_fractions(_vector_values(v)) and _all_fractions(w.values)
    except UNCHECKED_FAILURES:
        assert not check
    try:
        _assert_chain_exact(ideal_chain(L, check_hypotheses=check))
    except UNCHECKED_FAILURES:
        assert not check


def test_flag_chain_and_eigenvector_values_are_fractions_on_every_grading():
    rng = random.Random(401)
    for _, group, r in all_configs():
        check = group.is_torsion_free()
        for _ in range(3):
            _assert_exact(random_solvable_instance(rng, group, r), check)
            nil = random_nil_instance(rng, group, r)
            v = common_annihilated_vector(nil, check_hypotheses=check)
            assert _all_fractions(_vector_values(v))


def test_values_are_fractions_on_rational_conjugated_borel_algebras():
    # z2 is Z^2 with the bicharacter values 2 and 1/2
    rng = random.Random(403)
    for grading in ("plain", "z", "zsuper", "z2"):
        for n in (2, 3, 4):
            space, r, gens = rational_conjugated_borel(rng, n, grading)
            L = bracket_closure(space, r, gens)
            _assert_exact(L, True)
            flag = color_flag(L)
            for f in gens:
                assert _all_fractions(x for row in flag.matrix(f).data for x in row)


def _scaled_nonnil_derived(a: Fraction, b: Fraction, c: Fraction):
    """Z under the super sign on V_0 + V_1, each 2-dimensional: a E_10 of
    degree 1, b E_01 of degree -1 and the degree-0 c (E_00 - E_11) on
    the second coordinates.  [L, L] holds a b (E_00 + E_11), which is
    not nil, beside elements that are."""
    z = make_group(1, [])
    r = make_bicharacter(z, [[-1]])
    z0, z1, zm = z.element([0]), z.element([1]), z.element([-1])
    v = make_space(z, {z0: 2, z1: 2})
    x = make_map(v, z1, {z0: [[a, 0], [0, 0]]})
    y = make_map(v, zm, {z1: [[b, 0], [0, 0]]})
    d = make_map(v, z0, {z0: [[0, 0], [0, c]], z1: [[0, 0], [0, -c]]})
    s = make_map(v, z1, {z0: [[0, 0], [0, a]]})
    return bracket_closure(v, r, [x, y, d, s])


def _assert_witness_holds(err, maps):
    g, point = err.witness
    assert all(type(t) is int for t in point)
    mats = [flatten_map(f) for f in maps if f.degree == g]
    assert len(point) == len(mats)
    n = mats[0].rows
    x = sum((m.scale(t) for t, m in zip(point, mats)), Matrix.zero(n, n))
    assert not is_nilpotent_matrix(x)


def test_witness_is_an_integer_point_for_maps_at_their_scale():
    for a, b, c in ((Fraction(1), Fraction(1), Fraction(1)),
                    (Fraction(2, 3), Fraction(5, 7), Fraction(-3, 2)),
                    (Fraction(7), Fraction(1, 4), Fraction(1, 9))):
        L = _scaled_nonnil_derived(a, b, c)
        derived = derived_series(L)[1].elements()
        for call in (color_flag, ideal_chain, common_homogeneous_eigenvector):
            for policy, seed in (("deterministic", 0), ("probabilistic", 7), ("auto", 3)):
                with pytest.raises(HypothesisFailed) as info:
                    call(L, nil_policy=policy, seed=seed)
                _assert_witness_holds(info.value, derived)


# ------------------------------------------------ the elimination kernel


def _random_span(rng, rows: int, width: int, integral: bool):
    """Rows of small entries, some of them combinations of earlier rows,
    as sparse dicts of Fractions; integral ones have denominator 1."""
    out = []
    for _ in range(rows):
        if out and rng.random() < 0.3:
            a, b = rng.sample(range(-3, 4), 2)
            u, w = rng.choice(out), rng.choice(out)
            row = {i: a * u.get(i, 0) + b * w.get(i, 0) for i in range(width)}
        else:
            row = {i: Fraction(rng.randint(-4, 4), 1 if integral else rng.choice([1, 2, 3, 6]))
                   for i in range(width) if rng.random() < 0.6}
        out.append({i: Fraction(x) for i, x in row.items()})
    return out


def _as_ints(row):
    return {i: int(x) for i, x in row.items()}


def _state(ech: _Echelon):
    return (list(ech.pivots), [dict(row) for row in ech.int_rows],
            [dict(row) for row in ech.sparse_rows], ech.kernel(), ech.transform)


def test_echelon_is_the_same_for_fraction_int_and_mixed_spans():
    rng = random.Random(409)
    compared = 0
    for _ in range(60):
        width = rng.randint(1, 7)
        integral = rng.random() < 0.5
        rows = _random_span(rng, rng.randint(0, 8), width, integral)
        variants = [rows]
        if integral:
            variants.append([_as_ints(v) for v in rows])
            variants.append([_as_ints(v) if rng.random() < 0.5 else v for v in rows])
        canonical = None
        for order in itertools.islice(itertools.permutations(range(len(rows))), 4):
            shuffled = [[vs[i] for i in order] for vs in variants]
            for track in (False, True):
                states = [_state(_Echelon(width, vs, track=track)) for vs in shuffled]
                assert all(s == states[0] for s in states[1:])
                pivots, int_rows, sparse_rows, _, transform = states[0]
                assert _all_fractions(x for row in sparse_rows for x in row.values())
                if track:
                    assert _all_fractions(x for t in transform for x in t.values())
                else:
                    # the reduced echelon form is canonical: no order changes it
                    canonical = canonical or states[0][:4]
                    assert states[0][:4] == canonical
                    compared += 1
        # reduce gives the pivot coordinates of a member, whatever its type
        for vs in variants:
            ech = _Echelon(width, vs)
            for v in vs:
                coeffs = ech.reduce(v)
                assert coeffs == {k: v[p] for k, p in enumerate(ech.pivots) if v.get(p)}
    assert compared >= 100
