"""Graded spaces, homogeneous block maps, graded kernels, the grading
nilpotency certificate and per-component eigenvalues."""

import random
from fractions import Fraction

import pytest

from colorlie import (
    Matrix,
    NonzeroDegree,
    Poly,
    ShapeMismatch,
    TorsionDegree,
    UnknownDegree,
    ValidationError,
    ZeroDegree,
    add_maps,
    apply,
    bracket_closure,
    compose,
    flatten_map,
    flatten_vector,
    graded_kernel,
    homogeneous_eigenvalues,
    identity_map,
    is_nilpotent_matrix,
    kernel_basis,
    make_bicharacter,
    make_group,
    make_map,
    make_space,
    make_vector,
    map_power,
    nilpotent_by_grading,
    scale_map,
    standard_basis_vector,
    unflatten_map,
    unflatten_vector,
    zero_map,
)
from colorlie.graded import HomogeneousMap, _graded, _unflatten
from corpus import (
    BOREL_GRADINGS,
    all_configs,
    borel_generators,
    noncanonical_borel_algebras,
    random_homogeneous_map,
    random_space,
    torsion_free_configs,
)

Z = make_group(1, [])
Z0, Z1, Z2 = Z.element([0]), Z.element([1]), Z.element([2])


def shift_space():
    return make_space(Z, {Z0: 1, Z1: 1})


def z3_setup():
    g = make_group(0, [3])
    degs = [g.element([k]) for k in range(3)]
    space = make_space(g, {d: 1 for d in degs})
    a = make_map(space, degs[2], {d: [[1]] for d in degs})
    return g, degs, space, a


def test_scalar_coercion_rejects_floats():
    """Every scalar entry point coerces through linalg.frac, as Matrix,
    make_map and make_bicharacter do: ints, "p/q" strings and Fractions
    are exact, floats are refused."""
    from colorlie import Weight, bracket_closure

    v = shift_space()
    f = identity_map(v)
    L = bracket_closure(v, make_bicharacter(Z, [[1]]), [f])
    w = make_vector(v, {Z0: [1]})
    cases = [
        lambda x: make_vector(v, {Z0: [x]}),
        lambda x: unflatten_vector(v, [x, 0]),
        lambda x: w.scale(x),
        lambda x: scale_map(x, f),
        lambda x: Weight(L, (x,)),
    ]
    for make in cases:
        with pytest.raises(TypeError):
            make(0.1)
        for x in (3, "3/7", Fraction(3, 7)):
            make(x)
    assert make_vector(v, {Z0: ["1/10"]}).component(Z0) == (Fraction(1, 10),)
    assert w.scale("2/3") == make_vector(v, {Z0: [Fraction(2, 3)]})
    assert Weight(L, ("1/2",)).values == (Fraction(1, 2),)


def test_make_map_shift():
    v = shift_space()
    f = make_map(v, Z1, {Z0: [[1]]})
    assert f.degree == Z1
    assert f.block(Z0) == Matrix([[1]])


def test_make_map_cyclic_example():
    _, degs, space, a = z3_setup()
    assert a.degree == degs[2]
    assert flatten_map(a) == Matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])


def test_make_map_identity_degree_zero():
    v = shift_space()
    ident = identity_map(v)
    assert ident.degree == Z0
    assert flatten_map(ident) == Matrix.identity(2)


def test_make_map_validation():
    v = shift_space()
    with pytest.raises(UnknownDegree):
        make_map(v, Z1, {Z2: [[1]]})
    with pytest.raises(ShapeMismatch):
        make_map(v, Z1, {Z0: [[1, 2]]})
    with pytest.raises(ShapeMismatch):
        # block whose target lies outside the support cannot carry rows
        make_map(v, Z2, {Z0: [[1]]})


def test_make_map_takes_no_rows_for_a_target_outside_the_support():
    """A block whose target lies outside the support has no rows; given
    as an empty list or Matrix it is the zero block.  Rows or columns that
    do not fit there, or no rows where the target is in the support, are
    a ShapeMismatch."""
    v = make_space(Z, {Z0: 2, Z1: 1})
    f = make_map(v, Z1, {Z0: [[1, 2]]})
    for empty in ([], Matrix([]), Matrix.zero(0, 1)):
        assert make_map(v, Z1, {Z0: [[1, 2]], Z1: empty}) == f
        assert make_map(v, Z1, {Z1: empty}) == zero_map(v, Z1)
    for rows, got in (([[]], "1x0"), ([[1]], "1x1"), (Matrix.zero(0, 2), "0x2")):
        with pytest.raises(ShapeMismatch) as info:
            make_map(v, Z1, {Z1: rows})
        assert str(info.value) == f"block at source (1) must be 0x1, got {got}"
    with pytest.raises(ShapeMismatch) as info:
        make_map(v, Z1, {Z0: []})
    assert str(info.value) == "block at source (0) must be 1x2, got 0x0"


def test_compose_cyclic_cube_is_identity():
    _, degs, space, a = z3_setup()
    cube = compose(compose(a, a), a)
    assert cube == identity_map(space)


def test_compose_with_identity():
    v = shift_space()
    f = make_map(v, Z1, {Z0: [[5]]})
    assert compose(f, identity_map(v)) == f
    assert compose(identity_map(v), f) == f


def test_compose_shifts_off_support():
    v = shift_space()
    f = make_map(v, Z1, {Z0: [[1]]})
    ff = compose(f, f)
    assert ff.degree == Z2
    assert ff.is_zero()


def test_add_and_scale():
    v = shift_space()
    f = make_map(v, Z1, {Z0: [[1]]})
    assert add_maps(f, scale_map(-1, f)).is_zero()
    assert scale_map(2, f).block(Z0) == Matrix([[2]])
    _, degs, space, a = z3_setup()
    doubled = add_maps(a, a)
    assert doubled.degree == a.degree
    assert flatten_map(doubled) == flatten_map(a).scale(2)


def test_apply_cyclic_and_zero():
    _, degs, space, a = z3_setup()
    e1 = standard_basis_vector(space, degs[1], 0)
    image = apply(a, e1)
    # e1 has degree 1, A has degree 2, so the image sits in degree 0
    assert image == standard_basis_vector(space, degs[0], 0)
    zero = make_vector(space, {})
    assert apply(a, zero).is_zero()


def test_apply_shift_top_degree_dies():
    v = shift_space()
    f = make_map(v, Z1, {Z0: [[1]]})
    top = standard_basis_vector(v, Z1, 0)
    assert apply(f, top).is_zero()


def test_graded_kernel_shift():
    v = shift_space()
    f = make_map(v, Z1, {Z0: [[1]]})
    kern = graded_kernel([f])
    assert len(kern) == 1
    assert kern[0].degree() == Z1


def test_graded_kernel_empty_list_full_basis():
    v = shift_space()
    kern = graded_kernel([], space=v)
    assert len(kern) == v.total_dim
    assert all(k.is_homogeneous() for k in kern)


def test_graded_kernel_identity():
    v = shift_space()
    assert graded_kernel([identity_map(v)]) == []


def test_graded_kernel_matches_dense_kernel():
    rng = random.Random(31)
    for _, group, r in torsion_free_configs():
        for _ in range(10):
            space = random_space(rng, group)
            maps = [random_homogeneous_map(rng, space) for _ in range(rng.randint(1, 3))]
            graded = graded_kernel(maps, space=space)
            stacked = Matrix.stack(
                [flatten_map(f) for f in maps], cols=space.total_dim
            )
            dense = kernel_basis(stacked)
            # same dimension, every graded vector killed by the stack
            assert len(graded) == len(dense)
            for v in graded:
                assert v.is_homogeneous()
                assert all(x == 0 for x in stacked.apply(flatten_vector(v)))


def test_nilpotent_by_grading_examples():
    v = make_space(Z, {Z0: 2, Z1: 3})
    f = random_homogeneous_map(random.Random(1), v, degree=Z1)
    cert = nilpotent_by_grading(f)
    assert cert.exponent == 2
    assert flatten_map(f).power(2).is_zero()

    w = shift_space()
    g = make_map(w, Z2, {})
    cert = nilpotent_by_grading(g)
    assert cert.exponent == 1
    assert g.is_zero()


def test_nilpotent_by_grading_errors():
    _, degs, space, a = z3_setup()
    with pytest.raises(TorsionDegree):
        nilpotent_by_grading(a)
    v = shift_space()
    with pytest.raises(ZeroDegree):
        nilpotent_by_grading(identity_map(v))


def test_grading_forces_nilpotency_randomized():
    rng = random.Random(37)
    for _ in range(60):
        space = random_space(rng, Z, max_components=3, max_dim=3, max_total=10)
        deg = Z.element([rng.choice([-2, -1, 1, 2])])
        f = random_homogeneous_map(rng, space, degree=deg)
        assert is_nilpotent_matrix(flatten_map(f))
        cert = nilpotent_by_grading(f)
        assert flatten_map(f).power(cert.exponent).is_zero()


def test_nilpotent_by_grading_mixed_free_torsion_degree():
    # the support walk wraps torsion coordinates while the free part
    # escapes: (0,0) -> (1,1) -> (2,0) under repeated addition of (1,1)
    g = make_group(1, [2])
    d00, d11, d20 = (g.element(c) for c in ([0, 0], [1, 1], [2, 0]))
    w = make_space(g, {d00: 1, d11: 2, d20: 1})
    f = make_map(w, g.element([1, 1]), {d00: [[1], [2]], d11: [[1, 0]]})
    cert = nilpotent_by_grading(f)
    assert cert.exponent == 3
    assert cert.chain == (d00, d11, d20)
    assert flatten_map(f).power(3).is_zero()
    assert not flatten_map(f).power(2).is_zero()


def test_homogeneous_eigenvalues_identity():
    v = shift_space()
    reports = homogeneous_eigenvalues(identity_map(v))
    assert len(reports) == 2
    for rep in reports:
        assert rep.irrational_factor is None
        assert [lam for lam, _ in rep.pairs] == [Fraction(1)]


def test_homogeneous_eigenvalues_diagonal():
    g0 = make_group(0, [])
    e = g0.identity()
    v = make_space(g0, {e: 2})
    r = make_bicharacter(g0, [])
    d = make_map(v, e, {e: [[2, 0], [0, 3]]})
    (rep,) = homogeneous_eigenvalues(d)
    assert [(lam, flatten_vector(vec)) for lam, vec in rep.pairs] == [
        (Fraction(2), (Fraction(1), Fraction(0))),
        (Fraction(3), (Fraction(0), Fraction(1))),
    ]
    assert rep.irrational_factor is None


def test_homogeneous_eigenvalues_rotation_block():
    g0 = make_group(0, [])
    e = g0.identity()
    v = make_space(g0, {e: 2})
    j = make_map(v, e, {e: [[0, -1], [1, 0]]})
    (rep,) = homogeneous_eigenvalues(j)
    assert rep.pairs == ()
    assert rep.irrational_factor == Poly((1, 0, 1))


def test_homogeneous_eigenvalues_requires_degree_zero():
    v = shift_space()
    f = make_map(v, Z1, {Z0: [[1]]})
    with pytest.raises(NonzeroDegree):
        homogeneous_eigenvalues(f)


def test_degree_additivity_and_flatten_functor():
    rng = random.Random(41)
    for _, group, r in torsion_free_configs():
        for _ in range(10):
            space = random_space(rng, group)
            f = random_homogeneous_map(rng, space)
            g = random_homogeneous_map(rng, space)
            fg = compose(f, g)
            assert fg.degree == f.degree + g.degree
            assert flatten_map(fg) == flatten_map(f) * flatten_map(g)
            if f.degree == g.degree:
                assert flatten_map(add_maps(f, g)) == flatten_map(f) + flatten_map(g)
            assert flatten_map(scale_map(Fraction(3, 2), f)) == flatten_map(f).scale(
                Fraction(3, 2)
            )


def test_flatten_vector_roundtrip():
    rng = random.Random(43)
    v = shift_space()
    vec = make_vector(v, {Z0: [Fraction(1, 2)], Z1: [3]})
    assert unflatten_vector(v, flatten_vector(vec)) == vec


def test_graded_matches_unflatten_vector():
    # sparse vectors, as the flag yields them and with the explicit zeros
    # _sum_of leaves where terms cancel, on multi-component spaces: the
    # GradedVector is the one the dense round trip builds
    from reference import densify

    rng = random.Random(271)
    spaces = [make_space(Z, {Z0: 1, Z1: 3, Z2: 2})]
    spaces += [random_space(rng, group, max_components=4, max_dim=3, max_total=9)
               for _, group, _ in all_configs() for _ in range(6)]
    checked = 0
    for space in spaces:
        n = space.total_dim
        for _ in range(8):
            v = {i: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                 for i in rng.sample(range(n), rng.randint(0, n))}
            got = _graded(space, v)
            assert got == unflatten_vector(space, densify(v, n))
            assert all(type(x) is Fraction for _, comp in got.components for x in comp)
            checked += len(space.dims) > 1 and any(x == 0 for x in v.values())
    assert checked >= 20


def test_unflatten_vector_checks_length():
    v = shift_space()
    for flat in ([1], [1, 2, 3]):
        with pytest.raises(ShapeMismatch):
            unflatten_vector(v, flat)


def test_unflatten_map_checks_shape_and_pattern():
    v = shift_space()
    f = make_map(v, Z1, {Z0: [[5]]})
    assert unflatten_map(v, Z1, flatten_map(f)) == f
    # an oversized matrix is not truncated, an undersized one not indexed
    # past its end
    with pytest.raises(ShapeMismatch):
        unflatten_map(v, Z1, Matrix([[0, 0, 0], [5, 0, 0], [0, 0, 7]]))
    with pytest.raises(ShapeMismatch):
        unflatten_map(v, Z1, Matrix([[5]]))
    with pytest.raises(ShapeMismatch):
        unflatten_map(v, Z1, Matrix([[0, 0], [5, 0], [0, 0]]))
    with pytest.raises(ValidationError):
        unflatten_map(v, Z1, Matrix([[0, 0], [5, 1]]))


def test_map_power_zero_is_identity():
    v = shift_space()
    f = make_map(v, Z1, {Z0: [[1]]})
    assert map_power(f, 0) == identity_map(v)
    assert map_power(f, 2).is_zero()


def _dense_entries(f) -> list[Fraction]:
    """f's flattened matrix, row-major, laid out from its blocks here
    rather than by the package."""
    n, off = f.space.total_dim, f.space.offsets()
    out = [Fraction(0)] * (n * n)
    for h, b in f.blocks:
        r0, c0 = off[h + f.degree], off[h]
        for i, row in enumerate(b.data):
            for j, x in enumerate(row):
                out[(r0 + i) * n + c0 + j] = x
    return out


def _assert_round_trip(f):
    """f's entries are the nonzero entries of its blocks laid out flat, in
    index order; the blocks given back to ``make_map`` give the same
    entries, and the entries given back as a map the same blocks and
    flattened matrix."""
    dense = _dense_entries(f)
    assert f.entries == {i: x for i, x in enumerate(dense) if x}
    assert list(f.entries) == sorted(f.entries)
    g = make_map(f.space, f.degree, dict(f.blocks))
    assert g == f
    assert list(g.entries.items()) == list(f.entries.items())
    h = HomogeneousMap(f.space, f.degree, dict(f.entries))
    assert h == f
    assert h.blocks == f.blocks
    assert flatten_map(h) == flatten_map(f)
    assert [x for row in flatten_map(h).data for x in row] == dense


def _partial_maps():
    """Maps on several source degrees whose entries touch only some of
    them."""
    g = make_group(1, [2])
    d = [g.element([a, b]) for a in range(2) for b in range(2)]
    space = make_space(g, {d[0]: 2, d[1]: 1, d[2]: 2, d[3]: 1})
    zero = g.identity()
    yield make_map(space, zero, {d[2]: [[1, 0], [0, Fraction(-2, 3)]]})
    yield make_map(space, zero, {d[1]: [[5]], d[3]: [[Fraction(1, 7)]]})
    yield make_map(space, d[2], {d[0]: [[0, 1], [0, 0]]})
    yield make_map(space, d[3], {d[0]: [[0, 0]], d[1]: [[0], [3]]})
    v = make_space(Z, {Z0: 1, Z1: 2, Z2: 1})
    yield make_map(v, Z1, {Z1: [[0, 4]]})


def test_flat_unflatten_round_trip_on_corpus_maps():
    rng = random.Random(2025)
    for _, group, _ in all_configs():
        for _ in range(12):
            space = random_space(rng, group)
            for density in (0.3, 0.8):
                _assert_round_trip(random_homogeneous_map(rng, space, density=density))


def test_flat_unflatten_round_trip_on_borel_maps():
    for grading in BOREL_GRADINGS:
        space, r, gens = borel_generators(5, grading)
        for f in gens + list(bracket_closure(space, r, gens).basis):
            _assert_round_trip(f)


def test_flat_unflatten_round_trip_on_partial_maps():
    for f in _partial_maps():
        _assert_round_trip(f)


def test_unflatten_skips_explicit_zeros():
    """Zero entries, as a cancelled bracket term leaves them, are skipped
    on the degree's pattern and off it alike."""
    v = make_space(Z, {Z0: 1, Z1: 2, Z2: 1})
    n = v.total_dim
    f = make_map(v, Z1, {Z0: [[2], [0]], Z1: [[0, Fraction(1, 3)]]})
    on = [(1 * n + 0), (3 * n + 1)]
    off = [0, 1 * n + 1, 2 * n + 3, 3 * n + 3]
    for i in on + off:
        assert _unflatten(v, Z1, {i: Fraction(0)}) == zero_map(v, Z1)
        assert _unflatten(v, Z0, {i: Fraction(0)}) == zero_map(v, Z0)
    padded = dict(f.entries)
    padded.update({i: Fraction(0) for i in on + off if i not in padded})
    g = _unflatten(v, Z1, padded)
    assert g == f
    assert flatten_map(g) == flatten_map(f)


def _contract_maps():
    """Maps of every shape the package builds: corpus maps in every
    grading, maps touching only some source degrees, and the Borel
    generators and closure bases."""
    rng = random.Random(404)
    for _, group, _ in all_configs():
        for _ in range(6):
            space = random_space(rng, group)
            for density in (0.0, 0.3, 0.8):
                yield random_homogeneous_map(rng, space, density=density)
    yield from _partial_maps()
    for grading in BOREL_GRADINGS:
        space, r, gens = borel_generators(4, grading)
        yield from gens
        yield from bracket_closure(space, r, gens).basis


def _assert_same(f, g):
    assert f == g and g == f
    assert hash(f) == hash(g)
    assert f.blocks == g.blocks
    assert str(f) == str(g)


def test_maps_built_every_way_are_equal_and_hash_equal():
    """make_map from lists, "p/q" strings and Matrix blocks,
    unflatten_map, compose with the identity, add_maps with zero and
    scale_map by one all give the same map: equal, hash equal and with
    the same blocks."""
    for f in _contract_maps():
        space, u = f.space, f.degree
        ident, zero = identity_map(space), zero_map(space, u)
        as_lists = {h: [list(row) for row in b.data] for h, b in f.blocks}
        as_text = {h: [[str(x) for x in row] for row in b.data] for h, b in f.blocks}
        for g in (
            make_map(space, u, as_lists),
            make_map(space, u, as_text),
            make_map(space, u, dict(f.blocks)),
            unflatten_map(space, u, flatten_map(f)),
            compose(f, ident),
            compose(ident, f),
            add_maps(f, zero),
            add_maps(zero, f),
            scale_map(1, f),
            add_maps(scale_map(2, f), scale_map(-1, f)),
        ):
            _assert_same(f, g)
        assert f.is_zero() == (f == zero)
        if not f.is_zero():
            assert scale_map(2, f) != f
            assert add_maps(f, scale_map(-1, f)) == zero


def test_maps_differ_by_degree_space_and_entries():
    v = make_space(Z, {Z0: 1, Z1: 2, Z2: 1})
    w = make_space(Z, {Z0: 1, Z1: 2})
    assert zero_map(v, Z0) != zero_map(v, Z1)
    assert zero_map(v, Z1) != zero_map(w, Z1)
    f = make_map(v, Z1, {Z0: [[1], [0]]})
    assert f != make_map(v, Z1, {Z0: [[0], [1]]})
    assert f != make_map(w, Z1, {Z0: [[1], [0]]})
    assert f != flatten_map(f)
    # explicit zero blocks, and explicit zeros, are not stored
    assert make_map(v, Z1, {Z0: [[0], [0]], Z1: [[0, 0]]}) == zero_map(v, Z1)
    assert make_map(v, Z1, {Z0: [[0], [0]], Z1: [[0, 0]]}).blocks == ()
    assert len({f, make_map(v, Z1, {Z0: [["1"], ["0"]]}), zero_map(v, Z1)}) == 2


def test_algebra_elements_equal_the_maps_they_stand_for():
    """L._element on a basis element's pivot coordinates, and
    from_coordinates on its unit coordinates, give back the map L was
    presented with, in a basis that is not reduced echelon."""
    for L in noncanonical_borel_algebras(random.Random(17), sizes=(3,)):
        for k, f in enumerate(L.basis):
            unit = [0] * L.dim
            unit[k] = 1
            for g in (L._element(f.degree, L._pivot_coords(f)), L.from_coordinates(unit)):
                _assert_same(f, g)


def test_blocks_view_and_absent_blocks():
    """``blocks`` lists the nonzero blocks in the canonical order of their
    source degrees; ``block`` of an absent source is the zero block of
    its shape, 0 rows when the target is outside the support."""
    v = make_space(Z, {Z0: 1, Z1: 2, Z2: 1})
    f = make_map(v, Z1, {Z1: [["0", "-3"]], Z0: [["1/2"], [0]]})
    assert f.blocks == (
        (Z0, Matrix([[Fraction(1, 2)], [0]])),
        (Z1, Matrix([[0, -3]])),
    )
    assert all(type(x) is Fraction for _, b in f.blocks for row in b.data for x in row)
    assert f.block(Z2) == Matrix.zero(0, 1)
    assert f.block(Z2).rows == 0 and f.block(Z2).cols == 1
    g = make_map(v, Z1, {Z1: [[0, -3]]})
    assert g.block(Z0) == Matrix.zero(2, 1)
    assert str(f) == "HomogeneousMap(deg (1), {(0): Matrix(2x1: 1/2; 0), (1): Matrix(1x2: 0 -3)})"
    assert str(zero_map(v, Z2)) == "HomogeneousMap(deg (2), {})"
    assert not f.is_zero() and zero_map(v, Z1).is_zero()


def test_serialize_round_trip_on_every_problem_file():
    """Every problem file parses to generators whose serialized blocks
    parse back to equal maps, and serialize to the same document again."""
    import json
    from pathlib import Path

    from colorlie import parse_problem, serialize_problem

    paths = sorted((Path(__file__).resolve().parent.parent / "problems").glob("*.json"))
    assert paths
    for path in paths:
        doc = serialize_problem(parse_problem(json.loads(path.read_text())))
        again = parse_problem(doc)
        assert serialize_problem(again) == doc
        for f, g in zip(parse_problem(json.loads(path.read_text())).generators,
                        again.generators):
            _assert_same(f, g)
