import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from woodelf.cube_mapping import map_patterns_to_cube
from woodelf.engine import (
    Metric,
    background_frequencies,
    baseline_attributions,
    build_contribution_matrices,
    build_score_vectors,
    gather_attributions,
    path_dependent_frequencies,
    resolve_metric,
    shapley_metric,
    woodelf,
)
from woodelf.errors import DimensionError, ModeError
from woodelf.formula_core import MetricKind, pair_count, pair_index
from woodelf.oracle import (
    ensemble_pd_characteristic,
    exact_attribution,
    shapley_iv_exact,
    tree_characteristic,
)
from woodelf.patterns import calc_decision_patterns, decision_pattern_single
from woodelf.synth import random_data, random_ensemble
from woodelf.tree_model import Tree, TreeEnsemble, inner, leaf, predict_batch

ALL_KINDS = list(MetricKind)


def _values(result):
    return result.singles if result.singles is not None else result.pairs


# ---------------------------------------------------------------------------
# stage 1: background frequencies

def test_identical_background_rows_one_hot(three_leaf_tree):
    B = np.tile([2.0, 2.0], (6, 1))
    freqs = background_frequencies(three_leaf_tree, B)
    table = calc_decision_patterns(three_leaf_tree, B[:1])
    for lf, f in freqs.items():
        expected = np.zeros(1 << table.lengths[lf])
        expected[int(table.patterns[lf][0])] = 1.0
        np.testing.assert_array_equal(f, expected)


def test_complementary_rows_split_depth_one_tree():
    tree = Tree((inner(0, 0.5, 1, 2), leaf(1.0), leaf(2.0)), 0)
    B = np.array([[0.0], [1.0]])
    freqs = background_frequencies(tree, B)
    np.testing.assert_array_equal(freqs[1], [0.5, 0.5])
    np.testing.assert_array_equal(freqs[2], [0.5, 0.5])


def test_background_frequencies_match_naive_recount():
    rng = np.random.default_rng(20)
    for _ in range(5):
        ens = random_ensemble(rng, 1, 4, max_depth=4)
        tree = ens.trees[0]
        B = random_data(rng, 23, 4)
        freqs = background_frequencies(tree, B)
        for lf, f in freqs.items():
            length = len(tree.path_features(lf))
            counts = np.zeros(1 << length)
            for row in B:
                counts[decision_pattern_single(tree, lf, row).bits] += 1
            np.testing.assert_allclose(f, counts / len(B), atol=1e-12)
            assert f.sum() == pytest.approx(1.0, abs=1e-12)


def test_background_frequencies_reject_empty(three_leaf_tree):
    with pytest.raises(ModeError):
        background_frequencies(three_leaf_tree, np.zeros((0, 2)))


# ---------------------------------------------------------------------------
# stage 1: path-dependent frequencies

def test_path_dependent_worked_chain():
    # Chain of covers 100 -> 50 -> 25 -> 20; pattern 0b101 multiplies the
    # first ratio, the complement of the second, and the third.
    nodes = (
        inner(0, 0.5, 1, 2, cover=100.0),
        inner(1, 0.5, 3, 4, cover=50.0),
        leaf(0.0, cover=50.0),
        inner(2, 0.5, 5, 6, cover=25.0),
        leaf(0.0, cover=25.0),
        leaf(1.0, cover=20.0),
        leaf(2.0, cover=5.0),
    )
    tree = Tree(nodes, 0)
    freqs = path_dependent_frequencies(tree)
    assert freqs[5][0b101] == pytest.approx(0.5 * 0.5 * 0.8, abs=1e-12)


def test_path_dependent_ratio_one_is_deterministic():
    nodes = (
        inner(0, 0.5, 1, 2, cover=10.0),
        inner(1, 0.5, 3, 4, cover=10.0),
        leaf(1.0, cover=10.0),
        leaf(2.0, cover=10.0),
        leaf(3.0, cover=10.0),
    )
    freqs = path_dependent_frequencies(Tree(nodes, 0))
    for lf, f in freqs.items():
        expected = np.zeros_like(f)
        expected[-1] = 1.0  # all-ones pattern
        np.testing.assert_allclose(f, expected, atol=1e-12)


def test_path_dependent_frequencies_sum_to_one():
    rng = np.random.default_rng(21)
    for _ in range(5):
        ens = random_ensemble(rng, 1, 4, max_depth=5)
        for f in path_dependent_frequencies(ens.trees[0]).values():
            assert f.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(f >= 0)


def test_path_dependent_requires_positive_covers():
    tree = Tree((inner(0, 0.5, 1, 2, cover=10.0),
                 leaf(1.0), leaf(2.0, cover=5.0)), 0)
    with pytest.raises(ModeError):
        path_dependent_frequencies(tree)
    zero = Tree((inner(0, 0.5, 1, 2, cover=0.0),
                 leaf(1.0, cover=0.0), leaf(2.0, cover=0.0)), 0)
    with pytest.raises(ModeError):
        path_dependent_frequencies(zero)


# ---------------------------------------------------------------------------
# stage 2: contribution matrices

def test_contribution_matrices_worked_two_feature_path():
    d = map_patterns_to_cube((0, 1))
    matrices = build_contribution_matrices(d, shapley_metric())
    assert matrices[(0,)][0b10, 0b01] == pytest.approx(0.5)
    assert matrices[(1,)][0b10, 0b01] == pytest.approx(-0.5)


def test_contribution_matrices_empty_path():
    assert build_contribution_matrices(map_patterns_to_cube(()), shapley_metric()) == {}


def test_contribution_matrices_nnz_bounded():
    for length in range(1, 6):
        d = map_patterns_to_cube(tuple(range(length)))
        for metric in (shapley_metric(), resolve_metric("shapley-iv")):
            matrices = build_contribution_matrices(d, metric)
            for m in matrices.values():
                assert m.nnz <= 3 ** length
                assert m.shape == (1 << length, 1 << length)


def test_contribution_matrices_skip_contradictory_cubes():
    d = map_patterns_to_cube((0, 0))
    matrices = build_contribution_matrices(d, shapley_metric())
    contradictory_keys = {k for k, c in d.entries.items() if c.contradictory}
    assert contradictory_keys
    for m in matrices.values():
        coo = m.tocoo()
        for pc, pb in zip(coo.row, coo.col):
            assert (int(pc), int(pb)) not in contradictory_keys


# ---------------------------------------------------------------------------
# stage 3: score vectors

def test_score_vectors_worked_one_hot():
    d = map_patterns_to_cube((0, 1))
    matrices = build_contribution_matrices(d, shapley_metric())
    f = np.zeros(4)
    f[0b01] = 1.0
    scores = build_score_vectors(matrices, f, leaf_weight=4.0)
    # Entry (0b10, 0b01) is the mixed cube with share 1/2: 4 * 0.5 = 2.
    # Entry (0b11, 0b01) is the first feature alone with share 1: 4 * 1 = 4.
    np.testing.assert_allclose(scores[(0,)], [0.0, 0.0, 2.0, 4.0], atol=1e-12)
    np.testing.assert_allclose(scores[(1,)], [0.0, 0.0, -2.0, 0.0], atol=1e-12)


def test_score_vectors_zero_matrix_uniform_frequencies():
    d = map_patterns_to_cube((0,))
    matrices = build_contribution_matrices(d, shapley_metric())
    zeroed = {k: m.multiply(0.0).tocsr() for k, m in matrices.items()}
    scores = build_score_vectors(zeroed, np.full(2, 0.5), 3.0)
    for v in scores.values():
        np.testing.assert_array_equal(v, np.zeros(2))


def test_score_vectors_match_dense_product():
    rng = np.random.default_rng(22)
    for length in range(1, 7):
        d = map_patterns_to_cube(tuple(range(length)))
        for metric_name in ("shapley", "banzhaf-iv"):
            matrices = build_contribution_matrices(d, resolve_metric(metric_name))
            f = rng.dirichlet(np.ones(1 << length))
            w = float(rng.normal())
            scores = build_score_vectors(matrices, f, w)
            for subset, m in matrices.items():
                dense = w * (m.toarray() @ f)
                np.testing.assert_allclose(scores[subset], dense, atol=1e-12)


def test_score_vectors_dimension_mismatch():
    d = map_patterns_to_cube((0, 1))
    matrices = build_contribution_matrices(d, shapley_metric())
    with pytest.raises(DimensionError):
        build_score_vectors(matrices, np.ones(2) / 2, 1.0)


# ---------------------------------------------------------------------------
# stage 4: gathers

def test_gather_worked_example(two_split_tree, consumer_row, baseline_row):
    freqs = background_frequencies(two_split_tree, baseline_row.reshape(1, -1))
    score_vectors = {}
    for lf in two_split_tree.leaf_indices():
        d = map_patterns_to_cube(two_split_tree.path_features(lf))
        matrices = build_contribution_matrices(d, shapley_metric())
        score_vectors[lf] = build_score_vectors(
            matrices, freqs[lf], two_split_tree.nodes[lf].leaf_weight)
    table = calc_decision_patterns(two_split_tree, consumer_row.reshape(1, -1))
    out = gather_attributions(score_vectors, table, num_features=2, pairwise=False)
    # Leaf 3 alone contributes +2/-2; leaf 4 adds +0.5/+0.5; leaf 2 is zero.
    np.testing.assert_allclose(out[0], [2.5, -1.5], atol=1e-12)


def test_gather_zero_score_rows():
    tree = Tree((inner(0, 0.5, 1, 2), leaf(1.0), leaf(2.0)), 0)
    table = calc_decision_patterns(tree, np.array([[0.9]]))
    score_vectors = {1: {(0,): np.array([0.0, 5.0])},
                     2: {(0,): np.array([0.0, 7.0])}}
    # Row pattern is 0 at leaf 1 and 1 at leaf 2.
    out = gather_attributions(score_vectors, table, 1, False)
    np.testing.assert_array_equal(out, [[7.0]])


def test_gather_matches_scalar_loop():
    rng = np.random.default_rng(23)
    ens = random_ensemble(rng, 1, 3, max_depth=3)
    tree = ens.trees[0]
    C = random_data(rng, 9, 3)
    B = random_data(rng, 4, 3)
    freqs = background_frequencies(tree, B)
    score_vectors = {}
    for lf in tree.leaf_indices():
        d = map_patterns_to_cube(tree.path_features(lf))
        matrices = build_contribution_matrices(d, shapley_metric())
        score_vectors[lf] = build_score_vectors(matrices, freqs[lf],
                                                tree.nodes[lf].leaf_weight)
    table = calc_decision_patterns(tree, C)
    out = gather_attributions(score_vectors, table, 3, False)
    expected = np.zeros_like(out)
    for r in range(C.shape[0]):
        for lf, per_subset in score_vectors.items():
            p = int(table.patterns[lf][r])
            for subset, vec in per_subset.items():
                expected[r, subset[0]] += vec[p]
    np.testing.assert_allclose(out, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# the full pipeline

def test_depth_one_tree_closed_form():
    w_left, w_right = 3.0, 1.25
    tree = Tree((inner(0, 0.5, 1, 2), leaf(w_left), leaf(w_right)), 0)
    ens = TreeEnsemble((tree,), 1)
    consumers = np.array([[0.0]])   # routed left
    background = np.array([[1.0]])  # routed right
    result = woodelf(ens, consumers, background, MetricKind.SHAPLEY)
    assert result.values[0, 0] == pytest.approx(w_left - w_right, abs=1e-12)


def test_worked_baseline_attribution(two_split_ensemble, consumer_row, baseline_row):
    result = baseline_attributions(two_split_ensemble,
                                   consumer_row.reshape(1, -1), baseline_row)
    np.testing.assert_allclose(result.values[0], [2.5, -1.5], atol=1e-12)
    cf = tree_characteristic(two_split_ensemble, consumer_row,
                             baseline_row.reshape(1, -1))
    expected = exact_attribution(cf, MetricKind.SHAPLEY)
    np.testing.assert_allclose(result.values[0], expected.singles, atol=1e-12)


def test_baseline_equals_consumer_all_zero(two_split_ensemble, consumer_row):
    for kind in ALL_KINDS:
        result = baseline_attributions(two_split_ensemble,
                                       consumer_row.reshape(1, -1),
                                       consumer_row, metric=kind)
        np.testing.assert_array_equal(result.values, np.zeros_like(result.values))


def test_efficiency_when_consumers_are_background():
    rng = np.random.default_rng(24)
    ens = random_ensemble(rng, 3, 4, max_depth=4)
    X = random_data(rng, 12, 4)
    result = woodelf(ens, X, X, MetricKind.SHAPLEY)
    predictions = predict_batch(ens, X)
    expected = predictions - predictions.mean()
    np.testing.assert_allclose(result.values.sum(axis=1), expected, atol=1e-9)


def test_pipeline_matches_oracle_all_metrics_both_modes():
    rng = np.random.default_rng(25)
    for _ in range(4):
        ens = random_ensemble(rng, int(rng.integers(1, 4)),
                              int(rng.integers(2, 5)), int(rng.integers(1, 5)))
        C = random_data(rng, 4, ens.num_features)
        B = random_data(rng, 3, ens.num_features)
        for kind in ALL_KINDS:
            got_bg = woodelf(ens, C, B, kind)
            got_pd = woodelf(ens, C, None, kind)
            for r in range(C.shape[0]):
                exp_bg = exact_attribution(tree_characteristic(ens, C[r], B), kind)
                exp_pd = exact_attribution(ensemble_pd_characteristic(ens, C[r]),
                                           kind)
                np.testing.assert_allclose(got_bg.values[r], _values(exp_bg),
                                           atol=1e-9)
                np.testing.assert_allclose(got_pd.values[r], _values(exp_pd),
                                           atol=1e-9)


def test_background_equals_mean_of_baseline_runs():
    rng = np.random.default_rng(26)
    ens = random_ensemble(rng, 2, 3, max_depth=3)
    C = random_data(rng, 5, 3)
    B = random_data(rng, 4, 3)
    for kind in ALL_KINDS:
        together = woodelf(ens, C, B, kind).values
        separate = np.mean(
            [baseline_attributions(ens, C, B[k], kind).values
             for k in range(B.shape[0])], axis=0)
        np.testing.assert_allclose(together, separate, atol=1e-9)


def _factorial_background_tree():
    """Full depth-2 tree, distinct features everywhere, all edge ratios 1/2."""
    nodes = (
        inner(0, 0.5, 1, 2, cover=8.0),
        inner(1, 0.5, 3, 4, cover=4.0),
        inner(2, 0.5, 5, 6, cover=4.0),
        leaf(1.0, cover=2.0), leaf(2.0, cover=2.0),
        leaf(3.0, cover=2.0), leaf(4.0, cover=2.0),
    )
    tree = Tree(nodes, 0)
    # Every +-combination of the three split features appears exactly once,
    # so empirical pattern frequencies equal the cover product measure.
    B = np.array([[a, b, c] for a in (0.25, 0.75)
                  for b in (0.25, 0.75) for c in (0.25, 0.75)])
    return TreeEnsemble((tree,), 3), B


def test_path_dependent_matches_constructed_background():
    ens, B = _factorial_background_tree()
    rng = np.random.default_rng(27)
    C = random_data(rng, 6, 3)
    for kind in ALL_KINDS:
        pd = woodelf(ens, C, None, kind).values
        bg = woodelf(ens, C, B, kind).values
        np.testing.assert_allclose(pd, bg, atol=1e-9)


def test_interaction_symmetry_against_oracle(two_split_ensemble, consumer_row,
                                             baseline_row):
    result = woodelf(two_split_ensemble, consumer_row.reshape(1, -1),
                     baseline_row.reshape(1, -1), MetricKind.SHAPLEY_IV)
    cf = tree_characteristic(two_split_ensemble, consumer_row,
                             baseline_row.reshape(1, -1))
    forward = shapley_iv_exact(cf, 0, 1)
    backward = shapley_iv_exact(cf, 1, 0)
    assert forward == pytest.approx(backward, abs=1e-12)
    assert result.pair_values(0, 1)[0] == pytest.approx(forward, abs=1e-9)
    assert result.pair_values(1, 0)[0] == pytest.approx(forward, abs=1e-9)


def test_custom_constant_metric_flows_through():
    # Attribute each non-contradictory cube's weight to the path's first
    # feature (canonical ordinal 0); verify against a plain scalar replay of
    # the dictionary/frequency/gather definition.
    constant = Metric(
        apply=lambda cube: [] if cube.contradictory else [((0,), cube.weight)],
        pairwise=False)
    rng = np.random.default_rng(28)
    ens = random_ensemble(rng, 2, 3, max_depth=3)
    C = random_data(rng, 5, 3)
    B = random_data(rng, 4, 3)
    got = woodelf(ens, C, B, constant).values

    expected = np.zeros_like(got)
    for tree in ens.trees:
        freqs = background_frequencies(tree, B)
        table = calc_decision_patterns(tree, C)
        for lf in tree.leaf_indices():
            path = tree.path_features(lf)
            if not path:
                continue
            d = map_patterns_to_cube(path)
            w = tree.nodes[lf].leaf_weight
            for r in range(C.shape[0]):
                pc = int(table.patterns[lf][r])
                for (key_pc, key_pb), cube in d.entries.items():
                    if key_pc == pc and not cube.contradictory:
                        expected[r, path[0]] += w * freqs[lf][key_pb] * cube.weight
    np.testing.assert_allclose(got, expected, atol=1e-9)


def test_threads_do_not_change_results():
    rng = np.random.default_rng(29)
    ens = random_ensemble(rng, 3, 4, max_depth=4)
    C = random_data(rng, 101, 4)
    B = random_data(rng, 17, 4)
    for kind in (MetricKind.SHAPLEY, MetricKind.BANZHAF_IV):
        single = woodelf(ens, C, B, kind, threads=1)
        multi = woodelf(ens, C, B, kind, threads=4)
        np.testing.assert_array_equal(single.values, multi.values)


def test_block_size_and_threads_do_not_change_results():
    rng = np.random.default_rng(31)
    ens = random_ensemble(rng, 3, 4, max_depth=4)
    C = random_data(rng, 50, 4)  # 50 rows: no block size above 1 divides it
    B = random_data(rng, 9, 4)
    for background in (B, None):
        for kind in ALL_KINDS:
            runs = [woodelf(ens, C, background, kind, threads=t, block_size=b).values
                    for b in (1, 7, 4096) for t in (1, 3)]
            for values in runs[1:]:
                np.testing.assert_array_equal(values, runs[0])


def test_nonpositive_block_size_rejected():
    rng = np.random.default_rng(32)
    ens = random_ensemble(rng, 1, 2, max_depth=2)
    with pytest.raises(ValueError):
        woodelf(ens, random_data(rng, 3, 2), None, block_size=0)


def _per_leaf_reference(ens, C, B, kind) -> np.ndarray:
    """The unfolded pipeline: per leaf, a dictionary over the leaf's own path
    features and one score vector per subset, each gathered column by column
    into a row-major output."""
    metric = resolve_metric(kind)
    h = ens.num_features
    out = np.zeros((C.shape[0], pair_count(h) if metric.pairwise else h))
    for tree in ens.trees:
        freqs = background_frequencies(tree, B) if B is not None \
            else path_dependent_frequencies(tree)
        table = calc_decision_patterns(tree, C)
        for lf in tree.leaf_indices():
            d = map_patterns_to_cube(tree.path_features(lf))
            scores = build_score_vectors(build_contribution_matrices(d, metric),
                                         freqs[lf], tree.nodes[lf].leaf_weight)
            pats = table.patterns[lf]
            for subset, vec in scores.items():
                col = subset[0] if len(subset) == 1 \
                    else pair_index(*sorted(subset), h)
                out[:, col] += vec[pats]
    return out


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), features=st.integers(2, 5),
       depth=st.integers(1, 5), trees=st.integers(1, 3), rows=st.integers(1, 30),
       kind=st.sampled_from(ALL_KINDS), background_mode=st.booleans())
def test_folded_gather_matches_per_leaf_reference(seed, features, depth, trees,
                                                  rows, kind, background_mode):
    # Random trees are not full (some leaves have no leaf sibling) and draw
    # split features with repeats.
    rng = np.random.default_rng(seed)
    ens = random_ensemble(rng, trees, features, depth)
    C = random_data(rng, rows, features)
    B = random_data(rng, 5, features) if background_mode else None
    got = woodelf(ens, C, B, kind, block_size=7).values
    np.testing.assert_allclose(got, _per_leaf_reference(ens, C, B, kind),
                               rtol=0, atol=1e-12)


def test_folded_gather_lone_leaf_and_repeated_feature():
    # Leaves 1 and 3 have no leaf sibling; leaves 5 and 6 fold, on a path
    # that splits on feature 0 twice.
    tree = Tree((inner(0, 0.5, 1, 2, cover=10.0), leaf(1.5, cover=4.0),
                 inner(0, 0.8, 3, 4, cover=6.0), leaf(-2.0, cover=2.0),
                 inner(1, 0.3, 5, 6, cover=4.0), leaf(0.5, cover=1.0),
                 leaf(3.0, cover=3.0)), 0)
    ens = TreeEnsemble((tree,), 2)
    rng = np.random.default_rng(33)
    C = random_data(rng, 40, 2)
    B = random_data(rng, 6, 2)
    for background in (B, None):
        for kind in ALL_KINDS:
            np.testing.assert_allclose(
                woodelf(ens, C, background, kind).values,
                _per_leaf_reference(ens, C, background, kind), rtol=0, atol=1e-12)


def test_timings_reported():
    rng = np.random.default_rng(30)
    ens = random_ensemble(rng, 1, 3, max_depth=3)
    result = woodelf(ens, random_data(rng, 8, 3), random_data(rng, 8, 3))
    assert set(result.timings) == {"frequencies", "matrices", "scores", "gather"}
    assert all(t >= 0 for t in result.timings.values())


def test_row_accessor_wraps_attribution_result():
    rng = np.random.default_rng(31)
    ens = random_ensemble(rng, 1, 3, max_depth=2)
    C = random_data(rng, 2, 3)
    singles = woodelf(ens, C, C, MetricKind.SHAPLEY)
    assert singles.row(0).singles.shape == (3,)
    pairs = woodelf(ens, C, C, MetricKind.SHAPLEY_IV)
    assert pairs.row(1).pair(0, 2) == pairs.values[1, pair_index(0, 2, 3)]


def test_consumer_dimension_mismatch():
    rng = np.random.default_rng(32)
    ens = random_ensemble(rng, 1, 3, max_depth=2)
    with pytest.raises(DimensionError):
        woodelf(ens, np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(DimensionError):
        woodelf(ens, np.zeros((2, 3)), np.zeros((2, 4)))


def test_empty_background_falls_back_to_path_dependent():
    rng = np.random.default_rng(33)
    ens = random_ensemble(rng, 1, 3, max_depth=3, with_covers=True)
    C = random_data(rng, 3, 3)
    via_empty = woodelf(ens, C, np.zeros((0, 3)), MetricKind.SHAPLEY)
    via_none = woodelf(ens, C, None, MetricKind.SHAPLEY)
    np.testing.assert_array_equal(via_empty.values, via_none.values)


def test_path_dependent_without_covers_raises():
    rng = np.random.default_rng(34)
    ens = random_ensemble(rng, 1, 3, max_depth=3, with_covers=False)
    with pytest.raises(ModeError):
        woodelf(ens, random_data(rng, 2, 3), None)


def test_metric_resolution_accepts_strings_and_kinds():
    assert resolve_metric("banzhaf").kind is MetricKind.BANZHAF
    assert resolve_metric(MetricKind.SHAPLEY_IV).pairwise
    m = shapley_metric()
    assert resolve_metric(m) is m
