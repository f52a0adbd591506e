"""Metamorphic checks that scale past the exact oracle's player cap.

The exponential oracles stop at ``oracle.PLAYER_CAP`` features. These
properties need no reference values, so they run at 30-127 features, for
every metric and both modes:
- relabeling the features of the model and the data permutes the output
  exactly;
- a feature that no tree splits on gets exactly 0, alone and in every pair;
- an ensemble's result is the sum of its one-tree results;
- background mode is the mean of single-baseline runs.

Random trees are not full and split on a feature more than once along some
paths; only a random subset of the features is split on at all.
"""

from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from woodelf.engine import woodelf
from woodelf.formula_core import MetricKind, pair_index
from woodelf.oracle import PLAYER_CAP
from woodelf.synth import random_data, random_ensemble
from woodelf.tree_model import TreeEnsemble

ALL_KINDS = list(MetricKind)


def wide_models(test):
    """Hypothesis-drawn models of 30-127 features, of which the trees split
    on ``used`` at most (few enough to repeat along a path, or many)."""
    return settings(max_examples=8, deadline=None)(given(
        seed=st.integers(0, 2**32 - 1), features=st.integers(30, 127),
        used=st.integers(2, 126), trees=st.integers(1, 4),
        depth=st.integers(1, 6))(test))


def _relabel(ens: TreeEnsemble, mapping, num_features: int) -> TreeEnsemble:
    """``ens`` over ``num_features`` features, with split feature f renamed
    ``mapping[f]``."""
    trees = tuple(
        replace(tree, nodes=tuple(
            node if node.is_leaf else replace(node, feature=int(mapping[node.feature]))
            for node in tree.nodes))
        for tree in ens.trees)
    return TreeEnsemble(trees, num_features, base_offset=ens.base_offset)


def _model(seed: int, features: int, used: int, trees: int, depth: int):
    """A random ensemble over ``features`` features that splits on fewer
    than ``used`` of them, with 9 consumer rows and 4 background rows."""
    assert features > PLAYER_CAP
    rng = np.random.default_rng(seed)
    used = min(used, features - 1)
    ens = _relabel(random_ensemble(rng, trees, used, depth),
                   rng.permutation(features)[:used], features)
    return rng, ens, random_data(rng, 9, features), random_data(rng, 4, features)


def _pairs(h: int) -> list[tuple[int, int]]:
    return list(combinations(range(h), 2))


@pytest.mark.parametrize("kind", ALL_KINDS)
@wide_models
def test_relabeling_features_permutes_the_output_exactly(kind, seed, features,
                                                         used, trees, depth):
    rng, ens, C, B = _model(seed, features, used, trees, depth)
    perm = rng.permutation(features)
    renamed = _relabel(ens, perm, features)
    C2, B2 = np.empty_like(C), np.empty_like(B)
    C2[:, perm], B2[:, perm] = C, B
    if kind.pairwise:
        pairs = _pairs(features)
        before = [pair_index(i, j, features) for i, j in pairs]
        after = [pair_index(perm[i], perm[j], features) for i, j in pairs]
    else:
        before, after = list(range(features)), list(perm)
    for background, background2 in ((B, B2), (None, None)):
        got = woodelf(ens, C, background, kind).values
        moved = woodelf(renamed, C2, background2, kind).values
        np.testing.assert_array_equal(moved[:, after], got[:, before])


@pytest.mark.parametrize("kind", ALL_KINDS)
@wide_models
def test_features_no_tree_splits_on_get_exactly_zero(kind, seed, features,
                                                     used, trees, depth):
    _, ens, C, B = _model(seed, features, used, trees, depth)
    used = {node.feature for tree in ens.trees for node in tree.nodes
            if not node.is_leaf}
    absent = [f for f in range(features) if f not in used]
    assert absent
    if kind.pairwise:
        columns = [pair_index(i, j, features) for i, j in _pairs(features)
                   if i not in used or j not in used]
    else:
        columns = absent
    for background in (B, None):
        values = woodelf(ens, C, background, kind).values
        assert not values[:, columns].any()


@pytest.mark.parametrize("kind", ALL_KINDS)
@wide_models
def test_ensemble_is_the_sum_of_its_trees(kind, seed, features, used, trees,
                                          depth):
    _, ens, C, B = _model(seed, features, used, trees, depth)
    for background in (B, None):
        whole = woodelf(ens, C, background, kind).values
        parts = sum(woodelf(replace(ens, trees=(tree,)), C, background, kind).values
                    for tree in ens.trees)
        np.testing.assert_allclose(whole, parts, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS)
@wide_models
def test_background_is_the_mean_of_single_baseline_runs(kind, seed, features,
                                                        used, trees, depth):
    _, ens, C, B = _model(seed, features, used, trees, depth)
    together = woodelf(ens, C, B, kind).values
    separate = np.mean([woodelf(ens, C, row.reshape(1, -1), kind).values
                        for row in B], axis=0)
    np.testing.assert_allclose(together, separate, rtol=0, atol=1e-12)
