import numpy as np
import pytest

from woodelf.errors import ModeError
from woodelf.cli import cube_ensemble
from woodelf.formula_core import Cube, MetricKind, cube_shapley_iv, pair_index
from woodelf.oracle import (
    CharacteristicFunction,
    banzhaf_exact,
    banzhaf_iv_exact,
    ensemble_pd_characteristic,
    exact_attribution,
    pd_characteristic,
    shapley_exact,
    shapley_iv_exact,
    tree_characteristic,
)
from woodelf.tree_model import TreeEnsemble, predict

from conftest import (
    GOLDEN_BANZHAF,
    GOLDEN_CUBES,
    GOLDEN_EQUIVALENT,
    GOLDEN_SHAPLEY,
    cf_from_table,
    cube_game,
    cube_values,
    random_cubes,
)


def test_shapley_exact_on_golden_formula():
    cf = cube_game(GOLDEN_CUBES, 3)
    np.testing.assert_allclose(shapley_exact(cf), GOLDEN_SHAPLEY, atol=1e-12)


def test_shapley_exact_constant_game():
    cf = cf_from_table(np.full(8, 4.2), 3)
    assert np.all(shapley_exact(cf) == 0.0)


def test_shapley_exact_additive_game():
    a = np.array([1.5, -2.0, 0.25])
    table = np.array([sum(a[i] for i in range(3) if mask >> i & 1)
                      for mask in range(8)])
    np.testing.assert_allclose(shapley_exact(cf_from_table(table, 3)), a,
                               atol=1e-12)


def test_banzhaf_exact_on_golden_formula():
    cf = cube_game(GOLDEN_CUBES, 3)
    np.testing.assert_allclose(banzhaf_exact(cf), GOLDEN_BANZHAF, atol=1e-12)


def test_banzhaf_exact_constant_game():
    cf = cf_from_table(np.full(4, -3.0), 2)
    assert np.all(banzhaf_exact(cf) == 0.0)


def test_banzhaf_exact_matches_expectation_form():
    # Independent second formula: difference of the two conditional means
    # over subsets containing / excluding the player.
    rng = np.random.default_rng(5)
    n = 4
    table = rng.normal(size=1 << n)
    cf = cf_from_table(table, n)
    masks = np.arange(1 << n)
    expected = np.empty(n)
    for i in range(n):
        inside = table[(masks >> i & 1) == 1].mean()
        outside = table[(masks >> i & 1) == 0].mean()
        expected[i] = inside - outside
    np.testing.assert_allclose(banzhaf_exact(cf), expected, atol=1e-12)


def test_player_cap_enforced():
    cf = CharacteristicFunction(lambda s: 0.0, 21)
    with pytest.raises(ValueError):
        cf.table()


# ---------------------------------------------------------------------------
# interaction oracles

def _symmetric_game(rng, n, i, j):
    # Players i and j enter the payoff identically, so any symmetric solution
    # concept must treat them alike.
    base = rng.normal(size=1 << n)
    masks = np.arange(1 << n)
    count_ij = (masks >> i & 1) + (masks >> j & 1)
    others = masks & ~((1 << i) | (1 << j))
    table = base[others] + 2.5 * count_ij + 0.75 * (count_ij == 2)
    return cf_from_table(table, n)


def test_shapley_iv_exact_symmetric_in_arguments():
    rng = np.random.default_rng(6)
    cf = _symmetric_game(rng, 4, 1, 3)
    assert shapley_iv_exact(cf, 1, 3) == pytest.approx(shapley_iv_exact(cf, 3, 1),
                                                       abs=1e-12)


def test_shapley_iv_exact_outside_support_is_zero():
    cf = cube_game([Cube((0,), (1,), 4.0)], 3)
    assert shapley_iv_exact(cf, 0, 2) == pytest.approx(0.0, abs=1e-12)


def test_shapley_iv_exact_matches_fast_path():
    rng = np.random.default_rng(7)
    cubes = random_cubes(rng, 4, max_cubes=8)
    fast = cube_values(cube_shapley_iv, cubes, 4)
    cf = cube_game(cubes, 4)
    for i in range(4):
        for j in range(i + 1, 4):
            assert shapley_iv_exact(cf, i, j) == pytest.approx(
                fast[pair_index(i, j, 4)], abs=1e-9)


def test_banzhaf_iv_exact_symmetric_and_constant():
    rng = np.random.default_rng(8)
    cf = _symmetric_game(rng, 4, 0, 2)
    assert banzhaf_iv_exact(cf, 0, 2) == pytest.approx(banzhaf_iv_exact(cf, 2, 0),
                                                       abs=1e-12)
    const = cf_from_table(np.full(16, 9.0), 4)
    assert banzhaf_iv_exact(const, 1, 2) == pytest.approx(0.0, abs=1e-12)


def test_iv_exact_rejects_equal_players():
    cf = cf_from_table(np.zeros(4), 2)
    with pytest.raises(ValueError):
        shapley_iv_exact(cf, 1, 1)
    with pytest.raises(ValueError):
        banzhaf_iv_exact(cf, 0, 0)


# ---------------------------------------------------------------------------
# properties of the exact solvers on random games

def test_shapley_exact_axioms():
    rng = np.random.default_rng(9)
    n = 5
    t1 = rng.normal(size=1 << n)
    t2 = rng.normal(size=1 << n)
    cf1, cf2 = cf_from_table(t1, n), cf_from_table(t2, n)
    phi1, phi2 = shapley_exact(cf1), shapley_exact(cf2)
    # efficiency
    assert phi1.sum() == pytest.approx(t1[-1] - t1[0], abs=1e-9)
    # linearity
    np.testing.assert_allclose(shapley_exact(cf_from_table(t1 + t2, n)),
                               phi1 + phi2, atol=1e-9)
    # null player: a player whose bit never changes the payoff
    masks = np.arange(1 << n)
    t_null = t1[masks & ~(1 << 2)]
    assert shapley_exact(cf_from_table(t_null, n))[2] == pytest.approx(0.0, abs=1e-12)


def test_banzhaf_exact_axioms_except_efficiency():
    rng = np.random.default_rng(10)
    n = 5
    t1 = rng.normal(size=1 << n)
    t2 = rng.normal(size=1 << n)
    beta1 = banzhaf_exact(cf_from_table(t1, n))
    beta2 = banzhaf_exact(cf_from_table(t2, n))
    np.testing.assert_allclose(banzhaf_exact(cf_from_table(t1 + t2, n)),
                               beta1 + beta2, atol=1e-9)
    masks = np.arange(1 << n)
    t_null = t1[masks & ~(1 << 0)]
    assert banzhaf_exact(cf_from_table(t_null, n))[0] == pytest.approx(0.0, abs=1e-12)
    cf = _symmetric_game(rng, n, 1, 4)
    beta = banzhaf_exact(cf)
    assert beta[1] == pytest.approx(beta[4], abs=1e-9)


# ---------------------------------------------------------------------------
# tree-backed characteristic functions

def test_tree_characteristic_full_and_empty_coalitions(three_leaf_ensemble,
                                                       consumer_row):
    rng = np.random.default_rng(11)
    consumer = np.array([2.0, 2.0])
    B = rng.uniform(0, 6, size=(7, 2))
    cf = tree_characteristic(three_leaf_ensemble, consumer, B)
    assert cf.value(range(2)) == pytest.approx(predict(three_leaf_ensemble, consumer))
    from woodelf.tree_model import predict_batch
    assert cf.value([]) == pytest.approx(predict_batch(three_leaf_ensemble, B).mean())


def test_tree_characteristic_probability_mix(three_leaf_ensemble):
    # Consumer present only on f0=2 (left branch); the background supplies
    # the f1 < 3 probability q, so the payoff is 1*q + 2*(1-q).
    B = np.array([[9.0, 1.0], [9.0, 2.0], [9.0, 5.0], [9.0, 7.0]])
    q = 2 / 4
    cf = tree_characteristic(three_leaf_ensemble, np.array([2.0, 9.0]), B)
    assert cf.value([0]) == pytest.approx(1.0 * q + 2.0 * (1 - q))


def test_pd_characteristic_all_features_present(three_leaf_tree):
    cf = pd_characteristic(three_leaf_tree, np.array([2.0, 2.0]))
    assert cf.value([0, 1]) == pytest.approx(1.0)


def test_pd_characteristic_empty_coalition_uniform_covers():
    from woodelf.tree_model import Tree, inner, leaf
    tree = Tree((inner(0, 0.5, 1, 2, cover=10.0),
                 leaf(3.0, cover=5.0), leaf(7.0, cover=5.0)), 0)
    cf = pd_characteristic(tree, np.array([0.0]))
    assert cf.value([]) == pytest.approx(5.0)


def test_pd_characteristic_requires_covers():
    from woodelf.tree_model import Tree, inner, leaf
    tree = Tree((inner(0, 0.5, 1, 2), leaf(1.0), leaf(2.0)), 0)
    cf = pd_characteristic(tree, np.array([0.9]))
    with pytest.raises(ModeError):
        cf.value([])


def test_ensemble_pd_characteristic_sums_trees(three_leaf_tree):
    ens = TreeEnsemble((three_leaf_tree, three_leaf_tree), 2, base_offset=1.5)
    row = np.array([2.0, 2.0])
    cf = ensemble_pd_characteristic(ens, row)
    single = pd_characteristic(three_leaf_tree, row)
    assert cf.value([0]) == pytest.approx(1.5 + 2 * single.value([0]))


# ---------------------------------------------------------------------------
# the goldens as chain-tree ensembles

@pytest.mark.parametrize("cubes", [GOLDEN_CUBES, GOLDEN_EQUIVALENT],
                         ids=["golden", "equivalent"])
def test_golden_ensemble_game_is_the_cube_game(cubes):
    # With the consumer at 1.0 and the baseline at 0.0 on every feature, the
    # baseline game of the chain trees is the cube list's on all 8 coalitions.
    tree_game = tree_characteristic(cube_ensemble(cubes), np.ones(3), np.zeros((1, 3)))
    np.testing.assert_array_equal(tree_game.table(), cube_game(GOLDEN_CUBES, 3).table())


def test_exact_attribution_packs_like_fast_path():
    result = exact_attribution(cube_game(GOLDEN_CUBES, 3), MetricKind.SHAPLEY_IV)
    assert result.pairs.shape == (3,)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        assert result.pair(i, j) == result.pair(j, i) == \
            result.pairs[pair_index(i, j, 3)]
    np.testing.assert_allclose(result.pairs,
                               cube_values(cube_shapley_iv, GOLDEN_CUBES, 3), atol=1e-12)


# ---------------------------------------------------------------------------
# vectorized tabulation must agree with the per-subset evaluator

def _table_by_evaluator(cf):
    n = cf.num_players
    out = np.empty(1 << n)
    for mask in range(1 << n):
        out[mask] = cf.value(i for i in range(n) if mask >> i & 1)
    return out


def test_formula_table_matches_evaluator():
    # The cube-list game the rule tests check against.
    rng = np.random.default_rng(12)
    for _ in range(6):
        cf = cube_game(random_cubes(rng, 4, max_cubes=8), 4)
        np.testing.assert_allclose(cf.table(), _table_by_evaluator(cf), atol=1e-12)


def test_tree_table_matches_evaluator():
    from woodelf.synth import random_data, random_ensemble
    rng = np.random.default_rng(13)
    for _ in range(4):
        ens = random_ensemble(rng, 2, 4, max_depth=3)
        row = random_data(rng, 1, 4)[0]
        B = random_data(rng, 3, 4)
        cf = tree_characteristic(ens, row, B)
        np.testing.assert_allclose(cf.table(), _table_by_evaluator(cf), atol=1e-12)


def test_pd_table_matches_evaluator():
    from woodelf.synth import random_data, random_ensemble
    rng = np.random.default_rng(14)
    for _ in range(4):
        ens = random_ensemble(rng, 2, 4, max_depth=3)
        row = random_data(rng, 1, 4)[0]
        cf = ensemble_pd_characteristic(ens, row)
        np.testing.assert_allclose(cf.table(), _table_by_evaluator(cf), atol=1e-12)
