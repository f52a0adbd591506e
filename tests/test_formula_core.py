import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from woodelf.errors import DimensionError, FormError
from woodelf.formula_core import (
    FORMULA_METRICS,
    Cube,
    Form,
    MetricKind,
    WeightedFormula,
    banzhaf,
    banzhaf_iv,
    binomial,
    cube_banzhaf_iv,
    cube_shapley_iv,
    evaluate,
    pair_count,
    pair_index,
    preprocess,
    shapley,
    shapley_iv,
    wcnf_to_wdnf,
)
from woodelf.oracle import (
    exact_attribution,
    formula_characteristic,
    weight_difference,
)
from woodelf.synth import random_formula

from conftest import GOLDEN_BANZHAF, GOLDEN_SHAPLEY


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


def test_formula_rejects_out_of_range_variable():
    with pytest.raises(DimensionError):
        WeightedFormula((Cube((3,), (), 1.0),), num_vars=2)


# ---------------------------------------------------------------------------
# preprocess

def test_preprocess_drops_contradictory_wdnf_cube():
    f = WeightedFormula.wdnf([Cube((0,), (0,), 3.0), Cube((0,), (), 5.0)], 1)
    out = preprocess(f)
    assert [c.weight for c in out.cubes] == [5.0]
    assert out.offset == 0.0


def test_preprocess_moves_wcnf_tautology_to_offset():
    f = WeightedFormula.wcnf([Cube((0,), (0,), 2.0), Cube((0,), (), 5.0)], 1)
    out = preprocess(f)
    assert [c.weight for c in out.cubes] == [5.0]
    assert out.offset == 2.0


def test_preprocess_identity_when_clean():
    f = WeightedFormula.wdnf([Cube((0,), (1,), 5.0)], 2)
    assert preprocess(f) == f


# ---------------------------------------------------------------------------
# evaluate

def test_evaluate_wdnf_worked_example():
    f = WeightedFormula.wdnf([
        Cube((), (0,), 3.0),
        Cube((1,), (0,), 1.0),
        Cube((0, 2), (1,), 5.0),
    ], 3)
    assert evaluate(f, [0, 1, 1]) == 4.0


def test_evaluate_wcnf_worked_example():
    f = WeightedFormula.wcnf([
        Cube((), (0,), 3.0),
        Cube((1,), (0,), 1.0),
        Cube((0, 2), (1,), 5.0),
    ], 3)
    assert evaluate(f, [0, 1, 1]) == 9.0


def test_evaluate_empty_formula():
    f = WeightedFormula.wdnf([], num_vars=4)
    assert evaluate(f, [1, 0, 1, 0]) == 0.0


def test_evaluate_length_mismatch():
    f = WeightedFormula.wdnf([Cube((0,), (), 1.0)], 2)
    with pytest.raises(DimensionError):
        evaluate(f, [1])


# ---------------------------------------------------------------------------
# shapley / banzhaf singles

def test_shapley_golden_values(golden_formula):
    result = shapley(golden_formula)
    np.testing.assert_allclose(result.singles, GOLDEN_SHAPLEY, atol=1e-12)
    span = evaluate(golden_formula, [1, 1, 1]) - evaluate(golden_formula, [0, 0, 0])
    assert abs(result.singles.sum() - span) < 1e-12
    assert span == -3.0


def test_shapley_single_positive_literal():
    f = WeightedFormula.wdnf([Cube((0,), (), 2.5)], 1)
    assert shapley(f).singles[0] == pytest.approx(2.5, abs=1e-12)


def test_shapley_random_matches_oracle():
    rng = np.random.default_rng(42)
    for _ in range(5):
        f = random_formula(rng, num_vars=4, max_cubes=10)
        got = shapley(f).singles
        expected = exact_attribution(formula_characteristic(f), MetricKind.SHAPLEY)
        np.testing.assert_allclose(got, expected.singles, atol=1e-9)


def test_banzhaf_golden_values(golden_formula):
    np.testing.assert_allclose(banzhaf(golden_formula).singles, GOLDEN_BANZHAF,
                               atol=1e-12)


def test_banzhaf_constant_cube_contributes_nothing():
    f = WeightedFormula.wdnf([Cube((), (), 7.0)], num_vars=3)
    assert np.all(banzhaf(f).singles == 0.0)
    assert np.all(shapley(f).singles == 0.0)


def test_banzhaf_random_matches_oracle():
    rng = np.random.default_rng(43)
    for _ in range(5):
        f = random_formula(rng, num_vars=4, max_cubes=10)
        got = banzhaf(f).singles
        expected = exact_attribution(formula_characteristic(f), MetricKind.BANZHAF)
        np.testing.assert_allclose(got, expected.singles, atol=1e-9)


def test_wcnf_singles_same_formula_as_wdnf():
    # The per-cube shares apply verbatim to clauses; cross-check through the
    # explicit clause-to-cube rewrite.
    rng = np.random.default_rng(44)
    for _ in range(5):
        f = random_formula(rng, num_vars=5, max_cubes=8, form=Form.WCNF)
        as_wdnf = wcnf_to_wdnf(f)
        np.testing.assert_allclose(shapley(f).singles, shapley(as_wdnf).singles,
                                   atol=1e-12)
        np.testing.assert_allclose(banzhaf(f).singles, banzhaf(as_wdnf).singles,
                                   atol=1e-12)


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
    f = WeightedFormula.wdnf([Cube((0,), (1,), 4.0)], 2)
    result = shapley_iv(f)
    assert result.pair(0, 1) == pytest.approx(-4.0, abs=1e-12)
    cf = formula_characteristic(f)
    expected = exact_attribution(cf, MetricKind.SHAPLEY_IV)
    np.testing.assert_allclose(result.pairs, expected.pairs, atol=1e-9)


def test_shapley_iv_pair_outside_cube_is_zero():
    f = WeightedFormula.wdnf([Cube((0,), (1,), 4.0)], num_vars=3)
    result = shapley_iv(f)
    assert result.pair(0, 2) == 0.0
    assert result.pair(1, 2) == 0.0


def test_shapley_iv_random_matches_oracle():
    assert _pairs_are_min_max(cube_shapley_iv, [MIXED_CUBE])
    rng = np.random.default_rng(45)
    for _ in range(4):
        f = random_formula(rng, num_vars=4, max_cubes=8)
        assert _pairs_are_min_max(cube_shapley_iv, f.cubes)
        got = shapley_iv(f).pairs
        expected = exact_attribution(formula_characteristic(f), MetricKind.SHAPLEY_IV)
        np.testing.assert_allclose(got, expected.pairs, atol=1e-9)


def test_banzhaf_iv_single_mixed_cube():
    f = WeightedFormula.wdnf([Cube((0,), (1,), 4.0)], 2)
    result = banzhaf_iv(f)
    assert result.pair(0, 1) == pytest.approx(-4.0, abs=1e-12)
    expected = exact_attribution(formula_characteristic(f), MetricKind.BANZHAF_IV)
    np.testing.assert_allclose(result.pairs, expected.pairs, atol=1e-9)


def test_banzhaf_iv_pair_outside_cube_is_zero():
    f = WeightedFormula.wdnf([Cube((0, 1), (), 2.0)], num_vars=4)
    result = banzhaf_iv(f)
    for j in (2, 3):
        assert result.pair(0, j) == 0.0
        assert result.pair(1, j) == 0.0


def test_banzhaf_iv_random_matches_oracle():
    assert _pairs_are_min_max(cube_banzhaf_iv, [MIXED_CUBE])
    rng = np.random.default_rng(46)
    for _ in range(4):
        f = random_formula(rng, num_vars=4, max_cubes=8)
        assert _pairs_are_min_max(cube_banzhaf_iv, f.cubes)
        got = banzhaf_iv(f).pairs
        expected = exact_attribution(formula_characteristic(f), MetricKind.BANZHAF_IV)
        np.testing.assert_allclose(got, expected.pairs, atol=1e-9)


def test_wcnf_interactions_match_oracle():
    rng = np.random.default_rng(47)
    for _ in range(4):
        f = random_formula(rng, num_vars=4, max_cubes=8, form=Form.WCNF)
        cf = formula_characteristic(f)
        np.testing.assert_allclose(
            shapley_iv(f).pairs,
            exact_attribution(cf, MetricKind.SHAPLEY_IV).pairs, atol=1e-9)
        np.testing.assert_allclose(
            banzhaf_iv(f).pairs,
            exact_attribution(cf, MetricKind.BANZHAF_IV).pairs, atol=1e-9)


# ---------------------------------------------------------------------------
# WCNF to WDNF rewrite

def test_wcnf_to_wdnf_worked_example():
    f = WeightedFormula.wcnf([Cube((0,), (2,), 3.0)], num_vars=3)
    out = wcnf_to_wdnf(f)
    assert out.form is Form.WDNF
    assert out.offset == 3.0
    (cube,) = out.cubes
    assert cube.positive == (2,) and cube.negative == (0,) and cube.weight == -3.0


def test_wcnf_to_wdnf_empty():
    out = wcnf_to_wdnf(WeightedFormula.wcnf([], num_vars=2))
    assert out.cubes == () and out.offset == 0.0 and out.form is Form.WDNF


def test_wcnf_to_wdnf_evaluates_identically():
    rng = np.random.default_rng(48)
    for _ in range(5):
        f = random_formula(rng, num_vars=3, max_cubes=6, form=Form.WCNF)
        g = wcnf_to_wdnf(f)
        for x in itertools.product((0, 1), repeat=3):
            assert evaluate(f, x) == pytest.approx(evaluate(g, x), abs=1e-12)


def test_wcnf_to_wdnf_rejects_wdnf_input():
    with pytest.raises(FormError):
        wcnf_to_wdnf(WeightedFormula.wdnf([], num_vars=1))


# ---------------------------------------------------------------------------
# packed pair layout

def test_pair_index_is_a_bijection():
    h = 5
    seen = {pair_index(i, j, h) for i in range(h) for j in range(i + 1, h)}
    assert seen == set(range(pair_count(h)))
    assert pair_index(1, 3, h) == pair_index(3, 1, h)


def test_pairs_matrix_is_symmetric(golden_formula):
    m = shapley_iv(golden_formula).pairs_matrix()
    np.testing.assert_array_equal(m, m.T)
    assert np.all(np.diag(m) == 0.0)


def test_values_are_singles_else_pairs(golden_formula):
    singles = shapley(golden_formula)
    assert singles.values is singles.singles
    pairs = shapley_iv(golden_formula)
    assert pairs.singles is None
    assert pairs.values is pairs.pairs
    assert pairs.values.shape == (pair_count(3),)


def test_formula_metrics_cover_every_kind(golden_formula):
    assert set(FORMULA_METRICS) == set(MetricKind)
    for kind, metric in FORMULA_METRICS.items():
        assert metric(golden_formula).metric is kind


def test_binomial_matches_math_comb():
    import math
    for n in range(0, 12):
        for k in range(0, n + 1):
            assert binomial(n, k) == pytest.approx(math.comb(n, k), rel=1e-12)


# ---------------------------------------------------------------------------
# invariants, property style

@st.composite
def formulas(draw, max_vars=6, max_cubes=8):
    h = draw(st.integers(1, max_vars))
    n_cubes = draw(st.integers(0, max_cubes))
    cubes = []
    for _ in range(n_cubes):
        pos = draw(st.lists(st.integers(0, h - 1), max_size=h))
        neg = draw(st.lists(st.integers(0, h - 1), max_size=h))
        w = draw(st.floats(-5, 5, allow_nan=False, allow_infinity=False))
        cubes.append(Cube(tuple(pos), tuple(neg), w))
    form = draw(st.sampled_from([Form.WDNF, Form.WCNF]))
    return WeightedFormula(tuple(cubes), h, form)


@settings(max_examples=60, deadline=None)
@given(formulas())
def test_shapley_efficiency_property(f):
    span = evaluate(f, np.ones(f.num_vars)) - evaluate(f, np.zeros(f.num_vars))
    assert shapley(f).singles.sum() == pytest.approx(span, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(formulas(max_vars=5))
def test_null_player_property(f):
    # Extend the variable space; the new variables appear in no cube.
    widened = WeightedFormula(f.cubes, f.num_vars + 2, f.form)
    for result in (shapley(widened), banzhaf(widened)):
        assert result.singles[-1] == 0.0
        assert result.singles[-2] == 0.0
    for result in (shapley_iv(widened), banzhaf_iv(widened)):
        h = widened.num_vars
        for i in range(h - 2):
            assert result.pair(i, h - 1) == 0.0
            assert result.pair(i, h - 2) == 0.0


@settings(max_examples=40, deadline=None)
@given(formulas(max_vars=5), formulas(max_vars=5))
def test_linearity_under_concatenation(f1, f2):
    if f1.form is not f2.form:
        f2 = WeightedFormula(f2.cubes, f2.num_vars, f1.form)
    h = max(f1.num_vars, f2.num_vars)
    a = WeightedFormula(f1.cubes, h, f1.form)
    b = WeightedFormula(f2.cubes, h, f1.form)
    combined = WeightedFormula(a.cubes + b.cubes, h, f1.form)
    np.testing.assert_allclose(
        shapley(combined).singles, shapley(a).singles + shapley(b).singles,
        atol=1e-9)
    np.testing.assert_allclose(
        banzhaf_iv(combined).pairs, banzhaf_iv(a).pairs + banzhaf_iv(b).pairs,
        atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(formulas(max_vars=5), st.floats(-4, 4, allow_nan=False))
def test_scaling_weights_scales_attributions(f, alpha):
    scaled = WeightedFormula(
        tuple(c.scaled(alpha) for c in f.cubes), f.num_vars, f.form)
    np.testing.assert_allclose(shapley(scaled).singles,
                               alpha * shapley(f).singles, atol=1e-9)
    np.testing.assert_allclose(shapley_iv(scaled).pairs,
                               alpha * shapley_iv(f).pairs, atol=1e-9)


def test_robustness_across_equivalent_formulas(golden_formula, equivalent_formula):
    np.testing.assert_allclose(shapley(equivalent_formula).singles,
                               shapley(golden_formula).singles, atol=1e-12)
    np.testing.assert_allclose(banzhaf(equivalent_formula).singles,
                               banzhaf(golden_formula).singles, atol=1e-12)


def test_weight_difference_is_not_robust(golden_formula, equivalent_formula):
    # The naive signed-weight statistic disagrees across the equivalent pair,
    # which is exactly why it is only a negative control.
    a = weight_difference(golden_formula)
    b = weight_difference(equivalent_formula)
    np.testing.assert_allclose(a, [0.0, 2.0, -3.0], atol=1e-12)
    assert np.max(np.abs(a - b)) > 1e-6


def test_oracle_equivalence_small_batch():
    rng = np.random.default_rng(49)
    for trial in range(8):
        form = Form.WDNF if trial % 2 == 0 else Form.WCNF
        f = random_formula(rng, num_vars=int(rng.integers(1, 7)), max_cubes=10,
                           form=form)
        cf = formula_characteristic(f)
        np.testing.assert_allclose(
            shapley(f).singles,
            exact_attribution(cf, MetricKind.SHAPLEY).singles, atol=1e-9)
        np.testing.assert_allclose(
            banzhaf(f).singles,
            exact_attribution(cf, MetricKind.BANZHAF).singles, atol=1e-9)
