import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import decision_pattern_single
from woodelf import cube_mapping
from woodelf.cli import ORACLE_TOLERANCE
from woodelf.cube_mapping import map_patterns_to_cube
from woodelf.engine import (
    background_frequencies,
    build_contribution_matrices,
    build_score_vectors,
    gather_block_rows,
    path_dependent_frequencies,
    stack_subsets,
    woodelf,
)
from woodelf.errors import DimensionError, ModeError
from woodelf.formula_core import (
    MetricKind,
    pair_count,
    pair_index,
)
from woodelf.oracle import (
    ensemble_pd_characteristic,
    exact_attribution,
    shapley_iv_exact,
    tree_characteristic,
)
from woodelf.patterns import (
    calc_decision_patterns,
    leaf_key_patterns,
    subtree_blocks,
)
from woodelf.synth import random_data, random_ensemble
from woodelf.tree_model import Tree, TreeEnsemble, inner, leaf, predict_batch

ALL_KINDS = list(MetricKind)


def _score_dict(matrices, f, w) -> dict:
    """``build_score_vectors`` over the stacked matrices, by subset."""
    stacked = stack_subsets(matrices, f.shape[0])
    return dict(zip(stacked.subsets, build_score_vectors(stacked, f, w)))


# ---------------------------------------------------------------------------
# stage 1: background frequencies

def _per_leaf_background_frequencies(tree, B) -> dict[int, np.ndarray]:
    """Every leaf's pattern frequencies over the background, counted from
    per-leaf patterns: the reference for block counts spread per leaf."""
    table = calc_decision_patterns(tree, B)
    return {lf: np.bincount(pats.astype(np.intp), minlength=1 << table.lengths[lf])
            / len(B) for lf, pats in table.patterns.items()}


def _spread_block_counts(tree, B) -> dict[int, np.ndarray]:
    """Every leaf's pattern frequencies from its block's key counts, spread
    through ``leaf_key_patterns`` as the pipeline does."""
    blocks = subtree_blocks(tree)
    counts = background_frequencies(tree, B, blocks)
    return {bl.leaf: np.bincount(leaf_key_patterns(block, bl), weights=counts[b],
                                 minlength=1 << len(bl.features)) / len(B)
            for b, block in enumerate(blocks.blocks) for bl in block.leaves}


def test_identical_background_rows_one_hot(three_leaf_tree):
    B = np.tile([2.0, 2.0], (6, 1))
    freqs = _spread_block_counts(three_leaf_tree, B)
    table = calc_decision_patterns(three_leaf_tree, B[:1])
    for lf, f in freqs.items():
        expected = np.zeros(1 << table.lengths[lf])
        expected[int(table.patterns[lf][0])] = 1.0
        np.testing.assert_array_equal(f, expected)


def test_complementary_rows_split_depth_one_tree():
    tree = Tree((inner(0, 0.5, 1, 2), leaf(1.0), leaf(2.0)), 0)
    B = np.array([[0.0], [1.0]])
    blocks = subtree_blocks(tree)
    np.testing.assert_array_equal(background_frequencies(tree, B, blocks), [[1, 1]])
    freqs = _spread_block_counts(tree, B)
    np.testing.assert_array_equal(freqs[1], [0.5, 0.5])
    np.testing.assert_array_equal(freqs[2], [0.5, 0.5])


def test_background_frequencies_match_naive_recount():
    rng = np.random.default_rng(20)
    for _ in range(5):
        ens = random_ensemble(rng, 1, 4, max_depth=4)
        tree = ens.trees[0]
        B = random_data(rng, 23, 4)
        freqs = _spread_block_counts(tree, B)
        assert sorted(freqs) == sorted(tree.leaf_indices())
        for lf, f in freqs.items():
            length = len(tree.path_features(lf))
            counts = np.zeros(1 << length)
            for row in B:
                counts[decision_pattern_single(tree, lf, row).bits] += 1
            np.testing.assert_allclose(f, counts / len(B), atol=1e-12)
            assert f.sum() == pytest.approx(1.0, abs=1e-12)


def test_background_frequencies_reject_empty(three_leaf_tree):
    with pytest.raises(ModeError):
        background_frequencies(three_leaf_tree, np.zeros((0, 2)),
                               subtree_blocks(three_leaf_tree))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), features=st.integers(1, 4),
       depth=st.integers(1, 7), rows=st.sampled_from([1, 23, 5000]))
def test_block_counts_spread_per_leaf_match_per_leaf_counts(seed, features,
                                                            depth, rows):
    # Random trees are not full and draw split features with repeats.
    rng = np.random.default_rng(seed)
    tree = random_ensemble(rng, 1, features, depth).trees[0]
    B = random_data(rng, rows, features)
    blocks = subtree_blocks(tree)
    counts = background_frequencies(tree, B, blocks)
    assert len(counts) == len(blocks.blocks)
    for c, block in zip(counts, blocks.blocks):
        assert c.dtype.kind == "i" and c.shape == (1 << block.bits,)
        assert c.sum() == rows
    for block_size in (1, 7, 4096):
        keys = calc_decision_patterns(tree, B, block_size, blocks).patterns
        for b, block in enumerate(blocks.blocks):
            np.testing.assert_array_equal(
                np.bincount(keys[b], minlength=1 << block.bits), counts[b])
    spread = _spread_block_counts(tree, B)
    reference = _per_leaf_background_frequencies(tree, B)
    assert sorted(spread) == sorted(reference)
    for lf, f in reference.items():
        np.testing.assert_array_equal(spread[lf], f)


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

def _dense(m) -> np.ndarray:
    """The ``size``-square matrix that a subset's entries define."""
    dense = np.zeros((m.size, m.size))
    np.add.at(dense, (m.rows, m.cols), m.values)
    return dense


def test_contribution_matrices_worked_two_feature_path():
    d = map_patterns_to_cube((0, 1))
    matrices = build_contribution_matrices(d, MetricKind.SHAPLEY)
    assert _dense(matrices[(0,)])[0b10, 0b01] == pytest.approx(0.5)
    assert _dense(matrices[(1,)])[0b10, 0b01] == pytest.approx(-0.5)


def test_contribution_matrices_empty_path():
    assert build_contribution_matrices(map_patterns_to_cube(()), MetricKind.SHAPLEY) == {}


def test_contribution_matrices_nnz_bounded():
    for length in range(1, 6):
        d = map_patterns_to_cube(tuple(range(length)))
        for metric in (MetricKind.SHAPLEY, MetricKind.SHAPLEY_IV):
            matrices = build_contribution_matrices(d, metric)
            for m in matrices.values():
                assert m.nnz == len(m.rows) == len(m.cols) == len(m.values)
                assert m.nnz <= 3 ** length
                assert m.size == 1 << length
                assert 0 <= m.rows.min() and m.rows.max() < m.size
                assert 0 <= m.cols.min() and m.cols.max() < m.size


def test_contribution_matrices_skip_contradictory_cubes():
    d = map_patterns_to_cube((0, 0))
    matrices = build_contribution_matrices(d, MetricKind.SHAPLEY)
    contradictory_keys = {k for k, c in d.entries.items() if c.contradictory}
    assert contradictory_keys
    for m in matrices.values():
        for pc, pb in zip(m.rows, m.cols):
            assert (int(pc), int(pb)) not in contradictory_keys


# ---------------------------------------------------------------------------
# stage 3: score vectors

def test_score_vectors_worked_one_hot():
    d = map_patterns_to_cube((0, 1))
    matrices = build_contribution_matrices(d, MetricKind.SHAPLEY)
    f = np.zeros(4)
    f[0b01] = 1.0
    scores = _score_dict(matrices, f, 4.0)
    # Entry (0b10, 0b01) is the mixed cube with share 1/2: 4 * 0.5 = 2.
    # Entry (0b11, 0b01) is the first feature alone with share 1: 4 * 1 = 4.
    np.testing.assert_allclose(scores[(0,)], [0.0, 0.0, 2.0, 4.0], atol=1e-12)
    np.testing.assert_allclose(scores[(1,)], [0.0, 0.0, -2.0, 0.0], atol=1e-12)


def test_score_vectors_zero_matrix_uniform_frequencies():
    d = map_patterns_to_cube((0,))
    matrices = build_contribution_matrices(d, MetricKind.SHAPLEY)
    zeroed = {k: m._replace(values=m.values * 0.0) for k, m in matrices.items()}
    scores = _score_dict(zeroed, np.full(2, 0.5), 3.0)
    for v in scores.values():
        np.testing.assert_array_equal(v, np.zeros(2))


def test_score_vectors_match_dense_product():
    rng = np.random.default_rng(22)
    for length in range(1, 7):
        d = map_patterns_to_cube(tuple(range(length)))
        for metric_name in ("shapley", "banzhaf-iv"):
            matrices = build_contribution_matrices(d, MetricKind(metric_name))
            f = rng.dirichlet(np.ones(1 << length))
            w = float(rng.normal())
            scores = _score_dict(matrices, f, w)
            for subset, m in matrices.items():
                dense = w * (_dense(m) @ f)
                np.testing.assert_allclose(scores[subset], dense, atol=1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_stacked_score_vectors_equal_per_subset_bincounts(kind):
    # One bincount over the stacked entries gives each subset's bins the
    # same products in the same order as a bincount per subset: equal bytes.
    rng = np.random.default_rng(35)
    for u in range(7):
        matrices = build_contribution_matrices(map_patterns_to_cube(tuple(range(u))), kind)
        stacked = stack_subsets(matrices, 1 << u)
        f = rng.dirichlet(np.ones(1 << u))
        w = float(rng.normal())
        scores = build_score_vectors(stacked, f, w)
        assert scores.shape == (len(matrices), 1 << u)
        assert matrices or u <= int(kind.pairwise)
        assert stacked.subsets == tuple(matrices)
        for row, m in zip(scores, matrices.values(), strict=True):
            reference = w * np.bincount(m.rows, weights=m.values * f[m.cols],
                                        minlength=m.size)
            assert row.tobytes() == reference.tobytes()


def test_stacking_matrices_of_another_size_rejected():
    matrices = build_contribution_matrices(map_patterns_to_cube((0, 1)), MetricKind.SHAPLEY)
    with pytest.raises(DimensionError):
        stack_subsets(matrices, 2)


def test_score_vectors_dimension_mismatch():
    d = map_patterns_to_cube((0, 1))
    matrices = build_contribution_matrices(d, MetricKind.SHAPLEY)
    with pytest.raises(DimensionError):
        build_score_vectors(stack_subsets(matrices, 4), np.ones(2) / 2, 1.0)


# ---------------------------------------------------------------------------
# stage 4: the gather

def test_gather_zero_score_rows():
    # Leaf 1 weighs 0, so its score rows are all zero; the consumer reaches
    # leaf 2 and the baseline leaf 1, so only leaf 2's score (7) is added.
    tree = Tree((inner(0, 0.5, 1, 2), leaf(0.0), leaf(7.0)), 0)
    result = woodelf(TreeEnsemble((tree,), 1), np.array([[0.9]]), np.array([[0.1]]))
    np.testing.assert_array_equal(result.values, [[7.0]])


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
    result = woodelf(two_split_ensemble, consumer_row.reshape(1, -1),
                     baseline_row.reshape(1, -1))
    np.testing.assert_allclose(result.values[0], [2.5, -1.5], atol=1e-12)
    cf = tree_characteristic(two_split_ensemble, consumer_row,
                             baseline_row.reshape(1, -1))
    expected = exact_attribution(cf, MetricKind.SHAPLEY)
    np.testing.assert_allclose(result.values[0], expected.singles, atol=1e-12)


def test_baseline_equals_consumer_all_zero(two_split_ensemble, consumer_row):
    for kind in ALL_KINDS:
        result = woodelf(two_split_ensemble, consumer_row.reshape(1, -1),
                         consumer_row.reshape(1, -1), metric=kind)
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
                np.testing.assert_allclose(got_bg.values[r], exp_bg.values,
                                           atol=1e-9)
                np.testing.assert_allclose(got_pd.values[r], exp_pd.values,
                                           atol=1e-9)


def test_background_equals_mean_of_baseline_runs():
    rng = np.random.default_rng(26)
    ens = random_ensemble(rng, 2, 3, max_depth=3)
    C = random_data(rng, 5, 3)
    B = random_data(rng, 4, 3)
    for kind in ALL_KINDS:
        together = woodelf(ens, C, B, kind).values
        separate = np.mean(
            [woodelf(ens, C, B[k:k + 1], kind).values
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


@pytest.mark.parametrize("n", [0, 1, 50])
def test_sink_gets_each_row_once_in_order(n):
    # The sink contract: blocks arrive on the calling thread, in row order,
    # covering every row exactly once, and their copies concatenate to the
    # default values bit for bit.
    rng = np.random.default_rng(37)
    ens = random_ensemble(rng, 3, 4, max_depth=4)
    C = random_data(rng, n, 4)
    B = random_data(rng, 9, 4)
    caller = threading.get_ident()
    for kind in (MetricKind.SHAPLEY, MetricKind.BANZHAF_IV):
        for background in (B, None):
            default = woodelf(ens, C, background, kind).values
            for threads in (1, 2, 3):
                for block_size in (1, 7, max(n, 1)):
                    got: list = []

                    def sink(start, block):
                        assert threading.get_ident() == caller
                        assert block.shape[1] == default.shape[1]
                        got.append((start, block.copy()))

                    result = woodelf(ens, C, background, kind, threads=threads,
                                     block_size=block_size, sink=sink)
                    assert result.values is None
                    starts = [start for start, _ in got]
                    ends = [start + len(block) for start, block in got]
                    assert starts == [0, *ends][:len(starts)] and ends[-1:] == ([n] if n else [])
                    assert all(len(block) > 0 for _, block in got)
                    values = np.concatenate([default[:0]] + [b for _, b in got])
                    assert values.tobytes() == default.tobytes()


def test_threaded_gather_never_reuses_a_block_the_sink_holds():
    # More gathering threads than cores and a short switch interval: while
    # the sink holds a block, no other thread may write into its buffer.
    rng = np.random.default_rng(39)
    ens = random_ensemble(rng, 3, 5, max_depth=4)
    C = random_data(rng, 300, 5)
    B = random_data(rng, 7, 5)
    default = woodelf(ens, C, B, MetricKind.SHAPLEY_IV).values
    got = []

    def sink(start, block):
        copy = block.copy()
        for _ in range(20):
            time.sleep(0)
        assert block.tobytes() == copy.tobytes()
        got.append(copy)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        woodelf(ens, C, B, MetricKind.SHAPLEY_IV, threads=6, block_size=3, sink=sink)
    finally:
        sys.setswitchinterval(interval)
    assert np.concatenate(got).tobytes() == default.tobytes()


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_memory_stays_flat_in_rows():
    # Pairwise output is 66 floats a row. Streamed to a sink that keeps
    # nothing, the peak grows from 2k to 16k rows by less than the extra
    # input plus a fixed slack; the default array path, the control, grows
    # by at least the extra output.
    rng = np.random.default_rng(38)
    ens = random_ensemble(rng, 2, 12, max_depth=4)
    B = random_data(rng, 20, 12)
    small, large = random_data(rng, 2_000, 12), random_data(rng, 16_000, 12)
    extra_rows = large.shape[0] - small.shape[0]
    width = pair_count(12)

    def peak(C, **kwargs) -> int:
        return _traced_peak(lambda: woodelf(ens, C, B, MetricKind.SHAPLEY_IV,
                                            block_size=1024, **kwargs))

    def discard(start, block):
        pass

    streamed = peak(large, sink=discard) - peak(small, sink=discard)
    assert streamed < extra_rows * 12 * 8 + 256 * 1024
    assert peak(large) - peak(small) >= extra_rows * width * 8


def test_nonpositive_block_size_rejected():
    rng = np.random.default_rng(32)
    ens = random_ensemble(rng, 1, 2, max_depth=2)
    with pytest.raises(ValueError):
        woodelf(ens, random_data(rng, 3, 2), None, block_size=0)


@pytest.mark.parametrize("threads", [0, -3])
def test_nonpositive_threads_rejected(threads):
    rng = np.random.default_rng(32)
    ens = random_ensemble(rng, 1, 2, max_depth=2)
    with pytest.raises(ValueError, match="threads"):
        woodelf(ens, random_data(rng, 3, 2), None, threads=threads)


def test_gather_block_rows_follow_the_output_width():
    assert [gather_block_rows(w) for w in (12, 66, 127)] == [8192, 4096, 4096]
    assert gather_block_rows(8001) == 4096
    assert gather_block_rows(1) == gather_block_rows(0) == 8192


def test_default_row_blocks_match_explicit_ones():
    # 12 output columns give 8,192-row blocks, so 9,000 rows take two.
    rng = np.random.default_rng(36)
    ens = random_ensemble(rng, 3, 12, max_depth=4)
    C = random_data(rng, 9000, 12)
    B = random_data(rng, 6, 12)
    default = woodelf(ens, C, B, "shapley").values
    for block_size in (4096, 7):
        assert woodelf(ens, C, B, "shapley", block_size=block_size).values.tobytes() \
            == default.tobytes()


def _per_leaf_reference(ens, C, B, kind) -> np.ndarray:
    """The pipeline without blocks: per leaf, a dictionary over the leaf's
    own path features and one score vector per subset, each gathered column
    by column into a row-major output."""
    h = ens.num_features
    out = np.zeros((C.shape[0], pair_count(h) if kind.pairwise else h))
    for tree in ens.trees:
        freqs = _per_leaf_background_frequencies(tree, B) if B is not None \
            else path_dependent_frequencies(tree)
        table = calc_decision_patterns(tree, C)
        for lf in tree.leaf_indices():
            d = map_patterns_to_cube(tree.path_features(lf))
            scores = _score_dict(build_contribution_matrices(d, kind),
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
    # Leaf 1 is a block of its own; leaves 3, 5 and 6 share the block under
    # node 2, and the paths to 5 and 6 split on feature 0 twice.
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


def _chain_tree(depth: int, features: int) -> Tree:
    """Splits with a leaf on alternating sides down to depth - 2, then a full
    height-2 subtree: leaves at every depth, and a block keyed by depth + 1
    bits. Split features cycle, so paths repeat them."""
    nodes: list = []

    def grow(d: int, cover: float) -> int:
        slot = len(nodes)
        nodes.append(None)
        if d == depth:
            nodes[slot] = leaf(0.25 * slot - 1.0, cover=cover)
            return slot
        if d >= depth - 2:
            children = [grow(d + 1, cover / 2), grow(d + 1, cover / 2)]
        else:   # a leaf (grown at full depth), then the rest of the chain
            children = [grow(depth, 0.3 * cover), grow(d + 1, 0.7 * cover)]
            if d % 2:
                children.reverse()
        nodes[slot] = inner(d % features, 0.2 + 0.06 * d, *children, cover=cover)
        return slot

    grow(0, 100.0)
    return Tree(tuple(nodes), 0)


@pytest.mark.parametrize("depth", [8, 12])
def test_wide_block_keys_and_root_leaf_tree(depth):
    # The bottom block's keys take depth + 1 bits, past uint8; the second
    # tree is a lone leaf, one block with an empty key.
    chain = _chain_tree(depth, 3)
    assert chain.depth() == depth and subtree_blocks(chain).dtype == np.uint16
    ens = TreeEnsemble((chain, Tree((leaf(1.5, cover=4.0),), 0)), 3)
    rng = np.random.default_rng(34)
    C = random_data(rng, 12, 3)
    B = random_data(rng, 5, 3)
    for background in (B, None):
        for kind in ALL_KINDS:
            runs = [woodelf(ens, C, background, kind, threads=t, block_size=b).values
                    for b in (1, 7, 4096) for t in (1, 3)]
            for values in runs[1:]:
                np.testing.assert_array_equal(values, runs[0])
            exact = [exact_attribution(
                tree_characteristic(ens, row, B) if background is not None
                else ensemble_pd_characteristic(ens, row), kind).values for row in C]
            np.testing.assert_allclose(runs[0], exact, rtol=0, atol=1e-12)
            if depth <= 8:  # the reference builds 3^depth positional cubes a leaf
                np.testing.assert_allclose(
                    runs[0], _per_leaf_reference(ens, C, background, kind),
                    rtol=0, atol=1e-12)


@pytest.mark.parametrize("features", [2, 3])
def test_repeated_features_match_oracle_with_one_dictionary_per_u(features,
                                                                 monkeypatch):
    # Full depth-6 trees over 2 or 3 features: every path repeats a feature.
    built = []
    build = cube_mapping.map_patterns_to_cube
    monkeypatch.setattr(cube_mapping, "map_patterns_to_cube",
                        lambda path: built.append(path) or build(path))
    depth = 6
    rng = np.random.default_rng(40 + features)
    ens = random_ensemble(rng, 2, features, depth, full=True)
    C = random_data(rng, 4, features)
    B = random_data(rng, 5, features)
    for background in (B, None):
        for kind in ALL_KINDS:
            built.clear()
            got = woodelf(ens, C, background, kind).values
            assert len(built) <= depth + 1
            for r in range(C.shape[0]):
                cf = tree_characteristic(ens, C[r], B) if background is not None \
                    else ensemble_pd_characteristic(ens, C[r])
                np.testing.assert_allclose(got[r], exact_attribution(cf, kind).values,
                                           rtol=0, atol=ORACLE_TOLERANCE)


def test_woodelf_makes_no_parent_map_call(monkeypatch):
    calls = []
    parent_map = Tree.parent_map
    monkeypatch.setattr(Tree, "parent_map",
                        lambda self: calls.append(self) or parent_map(self))
    rng = np.random.default_rng(41)
    ens = random_ensemble(rng, 3, 4, max_depth=5)
    C = random_data(rng, 6, 4)
    for background in (random_data(rng, 5, 4), None):
        woodelf(ens, C, background, MetricKind.SHAPLEY_IV)
    assert calls == []
    tree = ens.trees[0]
    tree.path_features(tree.leaf_indices()[0])
    assert calls  # the patched counter does see parent_map calls


def test_import_leaves_scipy_unloaded():
    code = ("import sys, woodelf; "
            "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    src = str(Path(cube_mapping.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, check=True, timeout=60,
                            env=dict(os.environ, PYTHONPATH=src))
    assert result.stdout.strip() == "False"


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


def test_empty_background_raises_mode_error():
    # An empty background is an error, with or without covers; only
    # background=None selects path-dependent mode.
    rng = np.random.default_rng(33)
    for with_covers in (True, False):
        ens = random_ensemble(rng, 1, 3, max_depth=3, with_covers=with_covers)
        C = random_data(rng, 3, 3)
        with pytest.raises(ModeError, match="background=None"):
            woodelf(ens, C, np.zeros((0, 3)), MetricKind.SHAPLEY)


def test_path_dependent_without_covers_raises():
    rng = np.random.default_rng(34)
    ens = random_ensemble(rng, 1, 3, max_depth=3, with_covers=False)
    with pytest.raises(ModeError):
        woodelf(ens, random_data(rng, 2, 3), None)


def test_metric_resolution_accepts_strings_and_kinds():
    rng = np.random.default_rng(35)
    ens = random_ensemble(rng, 2, 3, max_depth=3)
    C = random_data(rng, 6, 3)
    B = random_data(rng, 4, 3)
    for kind in ALL_KINDS:
        by_kind = woodelf(ens, C, B, kind)
        by_name = woodelf(ens, C, B, kind.value)
        assert by_name.metric is kind and by_name.pairwise == kind.pairwise
        assert by_name.values.tobytes() == by_kind.values.tobytes()
    with pytest.raises(ValueError):
        woodelf(ens, C, B, "shapley_iv")
