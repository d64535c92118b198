"""Property tests under the derandomized profile of conftest.py: the
incremental graded kernel against the stacked elimination, the sparse
bracket kernel against ``color_bracket``, and the structure-constant
table against flattened brackets."""

import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from colorlie import Matrix, bracket_closure, graded_kernel, kernel_basis
from colorlie.graded import _vector
from corpus import all_configs, random_homogeneous_map, random_space
from reference import (
    assert_kernel_matches_color_bracket,
    assert_series_and_center_match,
    assert_table_matches_brackets,
)

CONFIGS = all_configs()


def _stacked_kernel(maps, space):
    """graded_kernel as one kernel_basis of every block row stacked."""
    out = []
    for h, n in space.dims:
        rows = [row for f in maps for g, b in f.blocks if g == h for row in b.data]
        if rows:
            vecs = kernel_basis(Matrix(rows, cols=n))
        else:
            vecs = [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
        out.extend(_vector(space, {h: v}) for v in vecs)
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
