import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from woodelf.formula_core import (
    AttributionResult,
    Cube,
    MetricKind,
    binomial,
    cube_banzhaf,
    cube_banzhaf_iv,
    cube_shapley,
    cube_shapley_iv,
    pair_count,
    pair_index,
)
from woodelf.oracle import exact_attribution

from conftest import (
    GOLDEN_BANZHAF,
    GOLDEN_CUBES,
    GOLDEN_EQUIVALENT,
    GOLDEN_SHAPLEY,
    cube_game,
    cube_values,
    random_cubes,
)


# ---------------------------------------------------------------------------
# Cube basics

def test_duplicate_literal_collapses_within_polarity():
    cube = Cube((1, 1, 0), (2, 2), 3.0)
    assert cube.positive == (1, 0)
    assert cube.negative == (2,)
    assert cube.size == 3


def test_contradictory_flag():
    assert Cube((0,), (0,), 1.0).contradictory
    assert not Cube((0,), (1,), 1.0).contradictory


# ---------------------------------------------------------------------------
# shapley / banzhaf singles

def test_shapley_golden_values():
    phi = cube_values(cube_shapley, GOLDEN_CUBES, 3)
    np.testing.assert_allclose(phi, GOLDEN_SHAPLEY, atol=1e-12)
    game = cube_game(GOLDEN_CUBES, 3)
    span = game.value({0, 1, 2}) - game.value(())
    assert abs(phi.sum() - span) < 1e-12
    assert span == -3.0


def test_shapley_single_positive_literal():
    assert cube_values(cube_shapley, [Cube((0,), (), 2.5)], 1)[0] == \
        pytest.approx(2.5, abs=1e-12)


def test_shapley_random_matches_oracle():
    rng = np.random.default_rng(42)
    for _ in range(5):
        cubes = random_cubes(rng, 4, max_cubes=10)
        expected = exact_attribution(cube_game(cubes, 4), MetricKind.SHAPLEY)
        np.testing.assert_allclose(cube_values(cube_shapley, cubes, 4),
                                   expected.singles, atol=1e-9)


def test_banzhaf_golden_values():
    np.testing.assert_allclose(cube_values(cube_banzhaf, GOLDEN_CUBES, 3),
                               GOLDEN_BANZHAF, atol=1e-12)


def test_banzhaf_constant_cube_contributes_nothing():
    cubes = [Cube((), (), 7.0)]
    assert np.all(cube_values(cube_banzhaf, cubes, 3) == 0.0)
    assert np.all(cube_values(cube_shapley, cubes, 3) == 0.0)


def test_banzhaf_random_matches_oracle():
    rng = np.random.default_rng(43)
    for _ in range(5):
        cubes = random_cubes(rng, 4, max_cubes=10)
        expected = exact_attribution(cube_game(cubes, 4), MetricKind.BANZHAF)
        np.testing.assert_allclose(cube_values(cube_banzhaf, cubes, 4),
                                   expected.singles, atol=1e-9)


# ---------------------------------------------------------------------------
# interaction values

# Positives listed after negatives, and each polarity in descending order.
MIXED_CUBE = Cube((3, 1), (2, 0), 1.5)


def _pairs_are_min_max(rule, cubes) -> bool:
    """Every pair that ``rule`` gives is (min, max): the engine keys its
    contribution matrices by the pairs as given."""
    return all(i < j for cube in cubes for (i, j), _ in rule(cube))


def test_shapley_iv_single_mixed_cube():
    # One cube (x0 & ~x1): the only pair sits in the mixed cell.
    cubes = [Cube((0,), (1,), 4.0)]
    pairs = cube_values(cube_shapley_iv, cubes, 2)
    assert pairs[pair_index(0, 1, 2)] == pytest.approx(-4.0, abs=1e-12)
    expected = exact_attribution(cube_game(cubes, 2), MetricKind.SHAPLEY_IV)
    np.testing.assert_allclose(pairs, expected.pairs, atol=1e-9)


def test_shapley_iv_pair_outside_cube_is_zero():
    pairs = cube_values(cube_shapley_iv, [Cube((0,), (1,), 4.0)], 3)
    assert pairs[pair_index(0, 2, 3)] == 0.0
    assert pairs[pair_index(1, 2, 3)] == 0.0


def test_shapley_iv_random_matches_oracle():
    assert _pairs_are_min_max(cube_shapley_iv, [MIXED_CUBE])
    rng = np.random.default_rng(45)
    for _ in range(4):
        cubes = random_cubes(rng, 4, max_cubes=8)
        assert _pairs_are_min_max(cube_shapley_iv, cubes)
        expected = exact_attribution(cube_game(cubes, 4), MetricKind.SHAPLEY_IV)
        np.testing.assert_allclose(cube_values(cube_shapley_iv, cubes, 4),
                                   expected.pairs, atol=1e-9)


def test_banzhaf_iv_single_mixed_cube():
    cubes = [Cube((0,), (1,), 4.0)]
    pairs = cube_values(cube_banzhaf_iv, cubes, 2)
    assert pairs[pair_index(0, 1, 2)] == pytest.approx(-4.0, abs=1e-12)
    expected = exact_attribution(cube_game(cubes, 2), MetricKind.BANZHAF_IV)
    np.testing.assert_allclose(pairs, expected.pairs, atol=1e-9)


def test_banzhaf_iv_pair_outside_cube_is_zero():
    pairs = cube_values(cube_banzhaf_iv, [Cube((0, 1), (), 2.0)], 4)
    for j in (2, 3):
        assert pairs[pair_index(0, j, 4)] == 0.0
        assert pairs[pair_index(1, j, 4)] == 0.0


def test_banzhaf_iv_random_matches_oracle():
    assert _pairs_are_min_max(cube_banzhaf_iv, [MIXED_CUBE])
    rng = np.random.default_rng(46)
    for _ in range(4):
        cubes = random_cubes(rng, 4, max_cubes=8)
        assert _pairs_are_min_max(cube_banzhaf_iv, cubes)
        expected = exact_attribution(cube_game(cubes, 4), MetricKind.BANZHAF_IV)
        np.testing.assert_allclose(cube_values(cube_banzhaf_iv, cubes, 4),
                                   expected.pairs, atol=1e-9)


# ---------------------------------------------------------------------------
# packed pair layout

def test_pair_index_is_a_bijection():
    h = 5
    seen = {pair_index(i, j, h) for i in range(h) for j in range(i + 1, h)}
    assert seen == set(range(pair_count(h)))
    assert pair_index(1, 3, h) == pair_index(3, 1, h)


def test_values_are_singles_else_pairs():
    singles = AttributionResult(MetricKind.SHAPLEY, 3,
                                singles=cube_values(cube_shapley, GOLDEN_CUBES, 3))
    assert singles.values is singles.singles
    pairs = AttributionResult(MetricKind.SHAPLEY_IV, 3,
                              pairs=cube_values(cube_shapley_iv, GOLDEN_CUBES, 3))
    assert pairs.singles is None
    assert pairs.values is pairs.pairs
    assert pairs.values.shape == (pair_count(3),)


def test_binomial_matches_math_comb():
    import math
    for n in range(0, 12):
        for k in range(0, n + 1):
            assert binomial(n, k) == pytest.approx(math.comb(n, k), rel=1e-12)


# ---------------------------------------------------------------------------
# invariants, property style

@st.composite
def cube_lists(draw, max_vars=6, max_cubes=8):
    """A cube list over variables 0..h-1, and h."""
    h = draw(st.integers(1, max_vars))
    cubes = []
    for _ in range(draw(st.integers(0, max_cubes))):
        pos = draw(st.lists(st.integers(0, h - 1), max_size=h))
        neg = draw(st.lists(st.integers(0, h - 1), max_size=h))
        w = draw(st.floats(-5, 5, allow_nan=False, allow_infinity=False))
        cubes.append(Cube(tuple(pos), tuple(neg), w))
    return cubes, h


@settings(max_examples=60, deadline=None)
@given(cube_lists())
def test_shapley_efficiency_property(drawn):
    cubes, h = drawn
    game = cube_game(cubes, h)
    span = game.value(range(h)) - game.value(())
    assert cube_values(cube_shapley, cubes, h).sum() == pytest.approx(span, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(cube_lists(max_vars=5))
def test_null_player_property(drawn):
    # Extend the variable space; the new variables appear in no cube.
    cubes, h = drawn
    wide = h + 2
    for rule in (cube_shapley, cube_banzhaf):
        singles = cube_values(rule, cubes, wide)
        assert singles[-1] == 0.0
        assert singles[-2] == 0.0
    for rule in (cube_shapley_iv, cube_banzhaf_iv):
        pairs = cube_values(rule, cubes, wide)
        for i in range(wide - 2):
            assert pairs[pair_index(i, wide - 1, wide)] == 0.0
            assert pairs[pair_index(i, wide - 2, wide)] == 0.0


@settings(max_examples=40, deadline=None)
@given(cube_lists(max_vars=5), cube_lists(max_vars=5))
def test_linearity_under_concatenation(first, second):
    (a, ha), (b, hb) = first, second
    h = max(ha, hb)
    np.testing.assert_allclose(
        cube_values(cube_shapley, a + b, h),
        cube_values(cube_shapley, a, h) + cube_values(cube_shapley, b, h),
        atol=1e-9)
    np.testing.assert_allclose(
        cube_values(cube_banzhaf_iv, a + b, h),
        cube_values(cube_banzhaf_iv, a, h) + cube_values(cube_banzhaf_iv, b, h),
        atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(cube_lists(max_vars=5), st.floats(-4, 4, allow_nan=False))
def test_scaling_weights_scales_attributions(drawn, alpha):
    cubes, h = drawn
    scaled = [Cube(c.positive, c.negative, alpha * c.weight) for c in cubes]
    np.testing.assert_allclose(cube_values(cube_shapley, scaled, h),
                               alpha * cube_values(cube_shapley, cubes, h), atol=1e-9)
    np.testing.assert_allclose(cube_values(cube_shapley_iv, scaled, h),
                               alpha * cube_values(cube_shapley_iv, cubes, h), atol=1e-9)


def test_robustness_across_equivalent_formulas():
    golden, equivalent = cube_game(GOLDEN_CUBES, 3), cube_game(GOLDEN_EQUIVALENT, 3)
    np.testing.assert_array_equal(golden.table(), equivalent.table())
    for rule in (cube_shapley, cube_banzhaf):
        np.testing.assert_allclose(cube_values(rule, GOLDEN_EQUIVALENT, 3),
                                   cube_values(rule, GOLDEN_CUBES, 3), atol=1e-12)


def test_oracle_equivalence_small_batch():
    rng = np.random.default_rng(49)
    for _ in range(8):
        h = int(rng.integers(1, 7))
        cubes = random_cubes(rng, h, max_cubes=10)
        game = cube_game(cubes, h)
        np.testing.assert_allclose(
            cube_values(cube_shapley, cubes, h),
            exact_attribution(game, MetricKind.SHAPLEY).singles, atol=1e-9)
        np.testing.assert_allclose(
            cube_values(cube_banzhaf, cubes, h),
            exact_attribution(game, MetricKind.BANZHAF).singles, atol=1e-9)
