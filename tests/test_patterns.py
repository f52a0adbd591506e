import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DecisionPattern, decision_pattern_single
from woodelf.cube_mapping import canonical_path, collapse_map
from woodelf.errors import ModelSchemaError
from woodelf.patterns import (
    block_keys,
    calc_decision_patterns,
    leaf_key_map,
    leaf_key_patterns,
    pattern_dtype_for_depth,
    pattern_width_for_depth,
    subtree_blocks,
)
from woodelf.synth import random_ensemble, random_data
from woodelf.tree_model import (
    DEFAULT_DEPTH_CAP,
    HARD_DEPTH_CAP,
    Tree,
    inner,
    leaf,
    predict_tree,
)


# ---------------------------------------------------------------------------
# width selection

@pytest.mark.parametrize("depth,width", [
    (1, 8), (6, 8), (8, 8), (9, 16), (16, 16), (17, 32), (30, 32),
])
def test_pattern_width_for_depth(depth, width):
    assert pattern_width_for_depth(depth) == width


def test_pattern_width_rejects_depth_beyond_cap():
    with pytest.raises(ModelSchemaError):
        pattern_width_for_depth(31)


def test_pattern_dtype_matches_width():
    assert pattern_dtype_for_depth(6) == np.uint8
    assert pattern_dtype_for_depth(12) == np.uint16
    assert pattern_dtype_for_depth(20) == np.uint32


# ---------------------------------------------------------------------------
# DecisionPattern scalar type

def test_decision_pattern_validates_range():
    DecisionPattern(3, 2)
    with pytest.raises(ValueError):
        DecisionPattern(4, 2)
    DecisionPattern(0, 0)


def test_decision_pattern_bit_accessor():
    p = DecisionPattern(0b10, 2)
    assert p.bit(0) == 1  # root position is the most significant bit
    assert p.bit(1) == 0


# ---------------------------------------------------------------------------
# batch pattern computation

def test_worked_consumer_and_baseline_patterns(two_split_tree, consumer_row,
                                               baseline_row):
    table = calc_decision_patterns(two_split_tree,
                                   np.vstack([consumer_row, baseline_row]))
    # Leaf 3 sits behind (age yes, sugar yes). The consumer follows the age
    # branch but not the sugar branch: 0b10. The baseline is the reverse: 0b01.
    assert table.patterns[3][0] == 0b10
    assert table.patterns[3][1] == 0b01
    assert table.lengths[3] == 2


def test_single_leaf_tree_patterns_empty(two_split_tree):
    tree = Tree((leaf(5.0),), 0)
    table = calc_decision_patterns(tree, np.zeros((4, 3)))
    assert table.lengths[0] == 0
    np.testing.assert_array_equal(table.patterns[0], np.zeros(4, dtype=np.uint8))


def test_row_matches_its_own_leaf_with_all_ones(three_leaf_tree):
    rng = np.random.default_rng(3)
    X = rng.uniform(0, 8, size=(25, 2))
    table = calc_decision_patterns(three_leaf_tree, X)
    for r, row in enumerate(X):
        # find the leaf this row actually reaches
        idx = three_leaf_tree.root
        while not three_leaf_tree.nodes[idx].is_leaf:
            node = three_leaf_tree.nodes[idx]
            idx = node.left if row[node.feature] < node.threshold else node.right
        full = (1 << table.lengths[idx]) - 1
        assert table.patterns[idx][r] == full


def test_exactly_one_all_ones_leaf_per_row():
    rng = np.random.default_rng(4)
    for _ in range(6):
        ens = random_ensemble(rng, 1, 4, max_depth=4)
        tree = ens.trees[0]
        X = random_data(rng, 30, 4)
        table = calc_decision_patterns(tree, X)
        hits = np.zeros(30, dtype=int)
        for lf, pats in table.patterns.items():
            hits += pats == (1 << table.lengths[lf]) - 1
        assert np.all(hits == 1)


def test_batch_patterns_match_direct_walk():
    rng = np.random.default_rng(5)
    for _ in range(6):
        ens = random_ensemble(rng, 1, 5, max_depth=5)
        tree = ens.trees[0]
        X = random_data(rng, 12, 5)
        table = calc_decision_patterns(tree, X)
        for lf in table.patterns:
            for r in range(X.shape[0]):
                direct = decision_pattern_single(tree, lf, X[r])
                assert direct.length == table.lengths[lf]
                assert direct.bits == int(table.patterns[lf][r])


def test_block_size_does_not_change_results(three_leaf_tree):
    rng = np.random.default_rng(6)
    X = rng.uniform(0, 8, size=(11, 2))
    a = calc_decision_patterns(three_leaf_tree, X)
    b = calc_decision_patterns(three_leaf_tree, X, block_size=3)
    for lf in a.patterns:
        np.testing.assert_array_equal(a.patterns[lf], b.patterns[lf])


def test_pattern_table_dtype_tracks_depth():
    rng = np.random.default_rng(7)
    ens = random_ensemble(rng, 1, 3, max_depth=10, full=True)
    table = calc_decision_patterns(ens.trees[0], random_data(rng, 5, 3))
    depth = ens.trees[0].depth()
    for pats in table.patterns.values():
        assert pats.dtype == pattern_dtype_for_depth(depth)


# ---------------------------------------------------------------------------
# sibling leaves

def test_sibling_patterns_differ_in_last_bit_only():
    rng = np.random.default_rng(8)
    pairs = 0
    for _ in range(5):
        ens = random_ensemble(rng, 1, 4, max_depth=4)
        tree = ens.trees[0]
        X = random_data(rng, 20, 4)
        table = calc_decision_patterns(tree, X)
        for node in tree.nodes:
            if not node.is_leaf and tree.nodes[node.left].is_leaf \
                    and tree.nodes[node.right].is_leaf:
                pairs += 1
                np.testing.assert_array_equal(
                    table.patterns[node.left] ^ 1, table.patterns[node.right])
    assert pairs


def test_predict_agrees_with_all_ones_leaf(three_leaf_tree):
    rng = np.random.default_rng(9)
    X = rng.uniform(0, 8, size=(15, 2))
    table = calc_decision_patterns(three_leaf_tree, X)
    for r, row in enumerate(X):
        reached = [lf for lf, pats in table.patterns.items()
                   if pats[r] == (1 << table.lengths[lf]) - 1]
        assert len(reached) == 1
        assert three_leaf_tree.nodes[reached[0]].leaf_weight == \
            predict_tree(three_leaf_tree, row)


# ---------------------------------------------------------------------------
# height-2 subtree blocks

def test_block_keys_give_every_leaf_its_unique_feature_pattern():
    # Random trees are not full and repeat split features along paths.
    rng = np.random.default_rng(10)
    for _ in range(10):
        tree = random_ensemble(rng, 1, 3, max_depth=5).trees[0]
        X = random_data(rng, 40, 3)
        table = calc_decision_patterns(tree, X)
        blocks = subtree_blocks(tree)
        keys = block_keys(blocks, np.ascontiguousarray(X.T))
        in_chunks = calc_decision_patterns(tree, X, 7, blocks)
        assert in_chunks.num_rows == 40
        for b, key in enumerate(keys):
            np.testing.assert_array_equal(in_chunks.patterns[b], key)
            assert in_chunks.lengths[b] == blocks.blocks[b].bits
        seen = []
        for block, key in zip(blocks.blocks, keys, strict=True):
            assert key.dtype == blocks.dtype
            assert key.max(initial=0) < 1 << block.bits
            for block_leaf in block.leaves:
                seen.append(block_leaf.leaf)
                collapse = collapse_map(canonical_path(block_leaf.features)[0])
                index = leaf_key_patterns(block, block_leaf)
                expected = table.patterns[block_leaf.leaf].astype(np.intp)
                if collapse is not None:
                    index, expected = collapse[index], collapse[expected]
                np.testing.assert_array_equal(index[key], expected)
        assert sorted(seen) == sorted(tree.leaf_indices())


def test_block_leaf_features_match_per_leaf_paths():
    rng = np.random.default_rng(42)
    for tree in random_ensemble(rng, 6, 3, max_depth=5).trees:
        block_leaves = [bl for b in subtree_blocks(tree).blocks for bl in b.leaves]
        assert sorted(bl.leaf for bl in block_leaves) == sorted(tree.leaf_indices())
        for bl in block_leaves:
            assert bl.features == tree.path_features(bl.leaf)


def test_full_depth_six_tree_has_sixteen_four_leaf_blocks():
    rng = np.random.default_rng(11)
    tree = random_ensemble(rng, 1, 4, max_depth=6, full=True).trees[0]
    blocks = subtree_blocks(tree)
    assert len(blocks.blocks) == 16   # not 32 sibling pairs
    assert all(len(b.leaves) == 4 and len(b.splits) == 3 and b.bits == 7
               for b in blocks.blocks)
    assert len(blocks.prefixes) == 15 and blocks.num_splits == 63
    assert blocks.dtype == np.uint8


def test_root_leaf_tree_is_one_keyless_block():
    blocks = subtree_blocks(Tree((leaf(5.0),), 0))
    assert [(b.bits, b.splits, [bl.leaf for bl in b.leaves])
            for b in blocks.blocks] == [(0, (), [0])]
    keys = block_keys(blocks, np.zeros((3, 4)))
    np.testing.assert_array_equal(keys[0], np.zeros(4, dtype=np.uint8))


def _depth_cap_tree(cap: int = HARD_DEPTH_CAP) -> Tree:
    """A chain of splits down to a full height-2 subtree whose leaves sit at
    depth ``cap``."""
    nodes: list = []

    def grow(d: int) -> int:
        slot = len(nodes)
        nodes.append(None)
        if d == cap:
            nodes[slot] = leaf(float(slot))
        elif d >= cap - 2:
            nodes[slot] = inner(d % 3, 0.9, grow(d + 1), grow(d + 1))
        else:
            nodes[slot] = inner(d % 3, 0.1 + 0.025 * d, grow(cap), grow(d + 1))
        return slot

    grow(0)
    return Tree(tuple(nodes), 0)


def test_blocks_at_the_depth_cap_keep_keys_within_it():
    # The bottom subtree's key would need one bit more than the cap, so its
    # root becomes a prefix over two sibling-pair blocks.
    tree = _depth_cap_tree()
    assert tree.depth() == HARD_DEPTH_CAP
    blocks = subtree_blocks(tree)
    assert blocks.dtype == np.uint32
    assert max(b.bits for b in blocks.blocks) == HARD_DEPTH_CAP
    bottom = [b for b in blocks.blocks if len(b.leaves) == 2]
    assert len(bottom) == 2 and all(len(b.splits) == 1 for b in bottom)
    assert sorted(bl.leaf for b in blocks.blocks for bl in b.leaves) == \
        sorted(tree.leaf_indices())

    rng = np.random.default_rng(12)
    X = rng.uniform(size=(50, 3))
    X[:25] = rng.uniform(0.8, 1.0, size=(25, 3))  # these reach the bottom splits
    table = calc_decision_patterns(tree, X)
    keys = calc_decision_patterns(tree, X, blocks=blocks)
    for b, block in enumerate(blocks.blocks):
        assert keys.patterns[b].dtype == np.uint32 and keys.lengths[b] == block.bits
        for block_leaf in block.leaves:
            np.testing.assert_array_equal(
                leaf_key_patterns(block, block_leaf, keys.patterns[b]),
                table.patterns[block_leaf.leaf])


def _assert_key_maps_match(tree: Tree, cache: dict) -> None:
    for block in subtree_blocks(tree).blocks:
        for block_leaf in block.leaves:
            np.testing.assert_array_equal(leaf_key_map(block, block_leaf, cache),
                                          leaf_key_patterns(block, block_leaf))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), features=st.integers(1, 4),
       depth=st.integers(0, 7))
def test_cached_key_maps_equal_leaf_key_patterns(seed, features, depth):
    # Random trees are not full and repeat split features along paths; one
    # cache serves several trees, as it does in a call.
    rng = np.random.default_rng(seed)
    cache: dict = {}
    for tree in random_ensemble(rng, 3, features, depth).trees:
        _assert_key_maps_match(tree, cache)


def test_cached_key_maps_at_the_default_depth_cap():
    # Maps cover every key of a block, 2^bits of them, so this uses the
    # default cap; at the hard cap a block key takes 30 bits.
    tree = _depth_cap_tree(DEFAULT_DEPTH_CAP)
    assert tree.depth() == DEFAULT_DEPTH_CAP
    cache: dict = {}
    for _ in range(2):  # the second pass reads every map from the cache
        _assert_key_maps_match(tree, cache)
    assert cache
