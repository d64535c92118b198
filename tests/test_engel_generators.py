"""The Engel phase on generators of [L, L], and the flag's outputs.

Phase 1 runs on the rows of N = [L, L] independent modulo [N, N] once
their closure under ad reaches N, and its levels are those of all of N,
on V and on L under ad.  Where that closure falls short, every row is
kept, and where the stall path is taken, every call keeps its errors,
messages, flag depths and witnesses, with the hypotheses checked and
unchecked.

``color_flag``'s outputs are exact: its weights are the public
``Weight`` of their values, its columns are Fractions equal to the dense
certificate, read once and kept, and its flag vectors are the vectors
that ``make_vector`` builds from their components."""

import collections
import dataclasses
import random
from fractions import Fraction
from pathlib import Path

import pytest

import colorlie.structure as structure
from colorlie import (
    ColorLieError,
    HypothesisFailed,
    ValidationError,
    Weight,
    bracket_closure,
    bracket_subspaces,
    color_flag,
    common_annihilated_vector,
    common_homogeneous_eigenvector,
    flatten_map,
    flatten_vector,
    ideal_chain,
    load_problem,
    make_bicharacter,
    make_group,
    make_map,
    make_space,
    make_vector,
)
from colorlie.algebra import _square
from colorlie.linalg import _over
from colorlie.structure import (
    _adapted, _chain_maps, _flag_maps, _generators, _kernel_filtration, _map_of,
)
from corpus import (
    BOREL_GRADINGS,
    borel_generators,
    random_solvable_instance,
    rational_conjugated_borel,
    torsion_free_configs,
)
from reference import dense_columns, densify, ref_ad, ref_certificate, ref_kernel_filtration

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

Z = make_group(1, [])


def _problem(name):
    problem = load_problem(PROBLEMS / name)
    return bracket_closure(problem.space, problem.bicharacter, problem.generators)


def nonnil_derived():
    """Solvable, with [L, L] = <I> not nil (``problems/nonnil_derived.json``)."""
    return _problem("nonnil_derived.json")


def perfect_extension():
    """sl2 on V_0 = F^2 and the maps V_0 -> V_1 it moves: a perfect
    algebra, so [L, L] = L has no generator modulo [[L, L], [L, L]]."""
    r = make_bicharacter(Z, [[1]])
    z0, z1 = Z.element([0]), Z.element([1])
    v = make_space(Z, {z0: 2, z1: 1})
    e = make_map(v, z0, {z0: [[0, 1], [0, 0]]})
    f = make_map(v, z0, {z0: [[0, 0], [1, 0]]})
    x = make_map(v, z1, {z0: [[1, 0]]})
    return bracket_closure(v, r, [e, f, x])


def sl2_beside_borel():
    """sl2 on V_0 = F^2 beside the Borel algebra of V_1 + V_2: [L, L] is
    sl2 plus the shift V_1 -> V_2, which alone is independent modulo
    [[L, L], [L, L]] = sl2 and generates only itself."""
    r = make_bicharacter(Z, [[1]])
    z0, z1, z2 = (Z.element([k]) for k in (0, 1, 2))
    v = make_space(Z, {z0: 2, z1: 1, z2: 1})
    e = make_map(v, z0, {z0: [[0, 1], [0, 0]]})
    f = make_map(v, z0, {z0: [[0, 0], [1, 0]]})
    d = make_map(v, z0, {z1: [[1]]})
    y = make_map(v, z1, {z1: [[1]]})
    return bracket_closure(v, r, [e, f, d, y])


CALLS = {
    "color_flag": color_flag,
    "ideal_chain": ideal_chain,
    "eigenvector": common_homogeneous_eigenvector,
}

NONNIL = "derived subalgebra component at degree (0) contains non-nilpotent elements"
NONNIL_NO_FLAG = ("the derived subalgebra does not act nilpotently, so no homogeneous "
                  "flag exists [flag depth 0]")


def _not_solvable(depth):
    if depth is None:
        return ("NotSolvable", "algebra is not solvable", None, None)
    return ("NotSolvable", f"algebra is not solvable [flag depth {depth}]", depth, None)


def _nonnil(point):
    return ("HypothesisFailed", NONNIL, None, (Z.element([0]), point))


# (call, checked) -> outcome, for nil_policy "auto" with seed 0, and for
# "probabilistic" with seed 7 where the witness differs
STALLS = {
    "sl2": (lambda: _problem("sl2.json"), {
        ("color_flag", True): _not_solvable(None),
        ("color_flag", False): _not_solvable(1),
        ("ideal_chain", True): _not_solvable(None),
        ("ideal_chain", False): _not_solvable(0),
        ("eigenvector", True): _not_solvable(None),
        ("eigenvector", False): _not_solvable(None),
    }),
    "nonnil_derived": (nonnil_derived, {
        ("color_flag", True): _nonnil((2,)),
        ("color_flag", False): ("NoHomogeneousEigenvector", NONNIL_NO_FLAG, 0, None),
        ("ideal_chain", True): _nonnil((2,)),
        ("ideal_chain", False): None,
        ("eigenvector", True): _nonnil((2,)),
        ("eigenvector", False): ("NoHomogeneousEigenvector", NONNIL_NO_FLAG, 0, None),
    }),
    "perfect_extension": (perfect_extension, {
        ("color_flag", True): _not_solvable(None),
        ("color_flag", False): _not_solvable(1),
        ("ideal_chain", True): _not_solvable(None),
        ("ideal_chain", False): _not_solvable(0),
        ("eigenvector", True): _not_solvable(None),
        ("eigenvector", False): _not_solvable(None),
    }),
    "sl2_beside_borel": (sl2_beside_borel, {
        ("color_flag", True): _not_solvable(None),
        ("color_flag", False): _not_solvable(2),
        ("ideal_chain", True): _not_solvable(None),
        ("ideal_chain", False): _not_solvable(2),
        ("eigenvector", True): _not_solvable(None),
        ("eigenvector", False): _not_solvable(None),
    }),
}


def _outcome(L, call, check, policy="auto", seed=0):
    try:
        CALLS[call](L, check_hypotheses=check, nil_policy=policy, seed=seed)
    except ColorLieError as e:
        witness = e.witness if isinstance(e, HypothesisFailed) else None
        return type(e).__name__, str(e), getattr(e, "flag_depth", None), witness
    return None


def _generating_algebras():
    """Solvable algebras, so [L, L] is nilpotent and its rows independent
    modulo [[L, L], [L, L]] generate it."""
    rng = random.Random(3302)
    out = [random_solvable_instance(rng, group, r)
           for _, group, r in torsion_free_configs() for _ in range(4)]
    for grading in BOREL_GRADINGS:
        for n in (3, 4, 5, 6):
            out.append(bracket_closure(*borel_generators(n, grading)))
        for n in (3, 4):
            out.append(bracket_closure(*rational_conjugated_borel(random.Random(n), n, grading)))
    return out


def _independent_modulo_square(L) -> list[int]:
    """The rows of N = [L, L], in the adapted basis, independent modulo
    [N, N], by ``bracket_subspaces`` on Fractions, not the table's ints."""
    square = _square(L)
    ech = bracket_subspaces(square, square)._ech.copy()
    return [c for c, (_, v) in enumerate(_adapted(L)[0][:square.dim]) if ech.add(v)]


def _dense_levels(space, levels):
    """The engine's levels' bases as dense vectors of the space."""
    n = space.total_dim
    return [[densify(_over(w, den), n) for w in basis] for _, _, basis, den in levels]


def _dense_reference_levels(space, want):
    """``ref_kernel_filtration``'s levels' bases as dense vectors."""
    n, off = space.total_dim, space.offsets()
    out = []
    for _, _, rows in want:
        level = []
        for g, vs in rows.items():
            for v in vs:
                full = [Fraction(0)] * n
                full[off[g]:off[g] + len(v)] = v
                level.append(full)
        out.append(level)
    return out


def test_generators_give_the_levels_of_all_of_the_derived_algebra():
    for L in _generating_algebras():
        gens = _generators(L)
        coords = _adapted(L)[0][:_square(L).dim]
        assert gens == _independent_modulo_square(L)
        degrees, nil, _, _ = _flag_maps(L)
        got = list(_kernel_filtration(degrees, [nil[i] for i in gens], []))
        want = ref_kernel_filtration(L.space, [L._element(g, v) for g, v in coords], [])
        assert _dense_levels(L.space, got) == _dense_reference_levels(L.space, want)
        assert sum(len(b) for _, _, b, _ in got) == L.space.total_dim
        # ad G generates ad [L, L], on L itself
        degrees, _, ads = _chain_maps(L)
        got = list(_kernel_filtration(degrees, [ads[i] for i in gens], []))
        profile = L.profile_space()
        want = ref_kernel_filtration(profile, [ref_ad(L, g, v) for g, v in coords], [])
        assert _dense_levels(profile, got) == _dense_reference_levels(profile, want)


def test_a_warm_engel_phase_runs_on_the_generators(monkeypatch):
    # plain Borel n = 6: [L, L] has 15 rows, generated by the 5 E_i,i+1
    sizes = []
    real = structure._kernel_filtration
    monkeypatch.setattr(structure, "_kernel_filtration",
                        lambda degrees, nil, top: sizes.append(len(nil)) or real(degrees, nil, top))
    L = bracket_closure(*borel_generators(6, "plain"))
    assert _square(L).dim == 15
    color_flag(L)
    ideal_chain(L)
    sizes.clear()
    color_flag(L)
    assert sizes == [5]
    sizes.clear()
    # V, then L under ad
    ideal_chain(L)
    assert sizes == [5, 5]
    sizes.clear()
    common_homogeneous_eigenvector(L, check_hypotheses=False)
    assert sizes == [5]


def test_generators_take_one_bracket_pass_each(monkeypatch):
    # [N, N] is read off the brackets of the rows taken in the first
    # pass; on the graded Borel algebras the adapted order lists the
    # deepest brackets first, and the rows of the superdiagonal's degrees,
    # which no two degrees of N sum to, are taken before them
    passes = []
    real = structure._ad_on_rows
    monkeypatch.setattr(structure, "_ad_on_rows", lambda *a: passes.append(1) or real(*a))
    for grading in BOREL_GRADINGS:
        for make in (borel_generators, lambda n, g: rational_conjugated_borel(random.Random(n), n, g)):
            passes.clear()
            assert len(_generators(bracket_closure(*make(6, grading)))) == 5
            assert len(passes) == 5, grading


@pytest.mark.parametrize("name", sorted(STALLS))
def test_stalled_filtrations_keep_their_errors(name):
    make, want = STALLS[name]
    L = make()
    if name != "nonnil_derived":
        # the closure of the rows independent modulo [N, N] falls short
        # of N, so every row is kept
        assert _generators(L) == list(range(_square(L).dim))
        assert len(_independent_modulo_square(L)) < _square(L).dim
    # twice on one algebra, and on a fresh one
    for algebra in (L, L, make()):
        for (call, check), outcome in want.items():
            assert _outcome(algebra, call, check) == outcome, (call, check)
    if name == "nonnil_derived":
        for call in ("color_flag", "ideal_chain", "eigenvector"):
            assert _outcome(L, call, True, "probabilistic", 7) == _nonnil((-320874,))


# ----------------------------------------------------------- the outputs


def _flag_algebras():
    rng = random.Random(3301)
    out = [random_solvable_instance(rng, group, r)
           for _, group, r in torsion_free_configs() for _ in range(3)]
    for grading in BOREL_GRADINGS:
        for n in (3, 4):
            out.append(bracket_closure(*borel_generators(n, grading)))
            out.append(bracket_closure(*rational_conjugated_borel(random.Random(n), n, grading)))
    return out


def test_flag_outputs_are_exact_and_kept():
    for L in _flag_algebras():
        for check in (True, False):
            flag = color_flag(L, check_hypotheses=check)
            n = L.space.total_dim
            for w in flag.weights:
                assert type(w.values) is tuple
                assert all(type(x) is Fraction for x in w.values)
                assert w == Weight(L, w.values)
            for v in flag.ordered_basis:
                assert v.is_homogeneous()
                assert v == make_vector(L.space, dict(v.components))
            columns = flag.columns
            assert all(type(x) is Fraction for m in columns for col in m for x in col.values())
            assert all(x != 0 for m in columns for col in m for x in col.values())
            flat = [flatten_vector(v) for v in flag.ordered_basis]
            want = ref_certificate(flat, [flatten_map(f) for f in L.basis])
            assert [dense_columns(m, n) for m in columns] == want
            # read once, then kept
            assert flag.columns is columns
            moved = dataclasses.replace(flag, ordered_basis=flag.ordered_basis[::-1])
            assert moved.columns == columns
            assert moved.weights == flag.weights
            assert [moved.matrix(f) for f in L.basis] == [flag.matrix(f) for f in L.basis]


def test_weight_coerces_and_refuses_as_before():
    L = bracket_closure(*borel_generators(3, "z"))
    shifting = [i for i, g in enumerate(L.basis_degrees) if not g.is_zero()]
    fixed = [i for i, g in enumerate(L.basis_degrees) if g.is_zero()]
    assert shifting and fixed
    values = [0] * L.dim
    values[fixed[0]] = "1/2"
    w = Weight(L, values)
    assert type(w.values) is tuple and all(type(x) is Fraction for x in w.values)
    assert w.values[fixed[0]] == Fraction(1, 2)
    assert w == Weight(L, tuple(Fraction(x) for x in values))
    for i in shifting:
        for bad in (1, Fraction(-2, 3), "5"):
            values = [Fraction(0)] * L.dim
            values[i] = bad
            with pytest.raises(ValidationError, match="nonzero-degree"):
                Weight(L, tuple(values))
    with pytest.raises(ValidationError, match="one value per basis element"):
        Weight(L, (Fraction(0),) * (L.dim - 1))


# ------------------------------------------------- what an algebra keeps


def test_empty_columns_share_one_dict():
    L = bracket_closure(*borel_generators(6, "plain"))
    _, nil, _, basis = _flag_maps(L)
    for _, cols, _ in nil + basis + _chain_maps(L)[2]:
        assert len({id(col) for col in cols if not col}) <= 1
    _, cols, den = _map_of(L.basis_degrees[0], {0: 2, 8: 4}, 3, 2)
    assert (cols, den) == ([{0: 1}, {}, {2: 2}], 1) and cols[1] is not cols[0]


def test_annihilated_vector_reads_the_kept_basis_maps(monkeypatch):
    # the Z-graded strictly upper triangular 6 x 6 matrices
    space, r, gens = borel_generators(6, "z")
    L = bracket_closure(space, r, [f for f in gens if not f.degree.is_zero()])
    assert L.dim == 15
    calls = collections.Counter()
    real = structure._sparse_elements
    monkeypatch.setattr(structure, "_sparse_elements",
                        lambda L, coords: calls.update(n=len(coords)) or real(L, coords))
    first = common_annihilated_vector(L)
    assert calls["n"] == 15
    calls.clear()
    assert common_annihilated_vector(L) == first
    assert common_annihilated_vector(L, check_hypotheses=False) == first
    assert calls["n"] == 0
