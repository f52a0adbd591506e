"""Decision patterns and subtree-block keys.

For a leaf with path (root=n1, ..., nk, leaf), bit i of the pattern says
whether the row would follow the path's edge out of ni (1) or branch off (0).
Bits accumulate most-significant-first, so the root's edge occupies the
highest populated bit.

The engine keys rows by subtree blocks instead: the maximal subtrees of
height at most 2 (a lone leaf, a sibling pair, or up to four leaves under
one node). A block's key holds the row's raw split outcomes (``x[f] < t``),
most significant first: one bit per ancestor of the block's root, then one
per inner node of the block. Raw outcomes do not depend on the leaf, so both
children of a node extend the same prefix, and every leaf of a block reads
its agreement pattern off the block's key (``leaf_key_patterns``). Both the
background frequencies (counts of each block's keys) and the gather use
these keys. ``subtree_blocks`` also plans how to compute them: prefixes
level by level and blocks grouped by split count, so ``block_keys`` fills
each group of keys with a few operations on (keys x rows) arrays.
``calc_decision_patterns`` computes either kind: given the tree's blocks,
per-block keys; otherwise per-leaf patterns, level by level with one split
evaluation per inner node, which the tests use as the reference.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ModelSchemaError
from .tree_model import HARD_DEPTH_CAP, Tree, as_matrix

_WIDTHS = ((8, np.uint8), (16, np.uint16), (32, np.uint32))

DEFAULT_BLOCK_SIZE = 4096


def pattern_width_for_depth(depth: int) -> int:
    """Smallest unsigned-integer width in {8, 16, 32} holding ``depth`` bits."""
    if depth > HARD_DEPTH_CAP:
        raise ModelSchemaError(
            f"depth {depth} exceeds the hard cap of {HARD_DEPTH_CAP}"
        )
    for width, _ in _WIDTHS:
        if depth <= width:
            return width
    raise AssertionError("unreachable: cap is below the widest type")


def pattern_dtype_for_depth(depth: int) -> np.dtype:
    width = pattern_width_for_depth(depth)
    return np.dtype(dict(_WIDTHS)[width])


@dataclass(frozen=True)
class LeafPatternTable:
    """Per-leaf pattern vectors, one entry per data row.

    ``patterns[leaf]`` is an unsigned array of packed bit sequences whose
    width is chosen from the tree depth; ``lengths[leaf]`` is the leaf's path
    length (its bit count). A table of block keys is indexed by block
    position instead, with the key lengths.
    """

    patterns: dict[int, np.ndarray]
    lengths: dict[int, int]
    num_rows: int


def calc_decision_patterns(tree: Tree, data,
                           block_size: int = DEFAULT_BLOCK_SIZE,
                           blocks: "SubtreeBlocks | None" = None) -> LeafPatternTable:
    """Patterns of every data row at every leaf of the tree, or, given the
    tree's ``subtree_blocks``, every row's key in each block.

    Walks the tree breadth-first once per row block: the root starts at
    pattern 0, a left child appends the split outcome, and the right sibling
    is the left child with the last bit flipped. Inner-node patterns are
    transient; only leaf vectors are kept. O(rows * leaves) overall.

    Each row block is read feature-major; a feature-major matrix passed
    transposed (``columns.T``, with ``block_size`` at least its row count)
    is read without a copy.
    """
    X = as_matrix(data)
    n = X.shape[0]
    if blocks is not None:
        chunks = [block_keys(blocks, np.ascontiguousarray(X[start:start + block_size].T))
                  for start in range(0, max(n, 1), block_size)]
        keys = np.concatenate(chunks, axis=1) if len(chunks) > 1 else chunks[0]
        return LeafPatternTable(dict(enumerate(keys)),
                                {b: block.bits for b, block in enumerate(blocks.blocks)}, n)
    dtype = pattern_dtype_for_depth(tree.depth())
    one = dtype.type(1)

    order = tree.bfs_order()
    lengths: dict[int, int] = {tree.root: 0}
    for idx in order:
        node = tree.nodes[idx]
        if not node.is_leaf:
            lengths[node.left] = lengths[idx] + 1
            lengths[node.right] = lengths[idx] + 1

    leaf_order = [i for i in order if tree.nodes[i].is_leaf]
    out = {i: np.empty(n, dtype=dtype) for i in leaf_order}

    for start in range(0, max(n, 1), block_size):
        stop = min(start + block_size, n)
        columns = np.ascontiguousarray(X[start:stop].T)
        live = {tree.root: np.zeros(stop - start, dtype=dtype)}
        for idx in order:
            node = tree.nodes[idx]
            pattern = live.pop(idx)
            if node.is_leaf:
                out[idx][start:stop] = pattern
            else:
                # Doubling leaves the low bit 0, so adding the outcome sets it.
                left = pattern + pattern
                left += columns[node.feature] < node.threshold
                live[node.left] = left
                live[node.right] = left ^ one

    return LeafPatternTable(out, {i: lengths[i] for i in leaf_order}, n)


# ---------------------------------------------------------------------------
# Height-2 subtree blocks

class BlockLeaf(NamedTuple):
    """A leaf of a block, and where its agreement bits sit in the block key."""

    leaf: int
    flips: int                          # ancestor bits where the path goes right
    steps: tuple[tuple[int, int], ...]  # (key bit, 1 if the path goes right),
                                        # per inner node of the block on the path
    features: tuple[int, ...]           # split features along the whole path


class Block(NamedTuple):
    """One maximal subtree of height at most 2."""

    prefix: int              # index into ``SubtreeBlocks.prefixes``; -1 at the root
    splits: tuple[int, ...]  # split rows of the block's inner nodes, in key order
    bits: int                # key length: ancestors plus ``len(splits)``
    leaves: tuple[BlockLeaf, ...]


class SubtreeBlocks(NamedTuple):
    """One tree's blocks and how to key any rows by them.

    Row r of the split-outcome buffer (inner nodes x data rows) belongs to
    the r-th inner node in feature order, so one broadcast comparison per
    distinct feature fills a contiguous band of it.
    ``prefixes[i] = (j, r)`` is prefix j (or none, if -1) doubled plus split
    row r: the raw outcomes of a node's ancestors and of the node itself,
    shared by both of its children.

    The key plan: ``levels`` holds the prefixes one tree level at a time, as
    (target prefixes, their parent prefixes, their split rows), each level's
    targets a contiguous range; ``groups`` holds the blocks by split count,
    as (target blocks, their prefixes, their split rows in key order, one row
    per block). A parent or prefix of -1 is the empty prefix.
    """

    features: tuple[tuple[int, slice, np.ndarray], ...]  # feature, split rows, thresholds (column)
    num_splits: int
    prefixes: tuple[tuple[int, int], ...]
    blocks: tuple[Block, ...]
    dtype: np.dtype
    levels: tuple[tuple[slice, np.ndarray, np.ndarray], ...]
    groups: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]


def subtree_blocks(tree: Tree) -> SubtreeBlocks:
    """The tree's maximal subtrees of height at most 2 whose keys fit the
    depth cap, in breadth-first order of their roots, each with its leaves in
    breadth-first order and every leaf with its path features: one walk of
    the tree gives all the engine needs of its shape."""
    order = tree.bfs_order()
    height: dict[int, int] = {}
    for idx in reversed(order):
        node = tree.nodes[idx]
        height[idx] = 0 if node.is_leaf else \
            1 + max(height[node.left], height[node.right])

    inner = sorted((i for i in order if not tree.nodes[i].is_leaf),
                   key=lambda i: tree.nodes[i].feature)
    row = {idx: r for r, idx in enumerate(inner)}
    features = []
    for feature, group in itertools.groupby(inner, key=lambda i: tree.nodes[i].feature):
        group = list(group)
        lo = row[group[0]]
        features.append((feature, slice(lo, lo + len(group)),
                         np.array([[tree.nodes[i].threshold] for i in group])))

    prefixes: list[tuple[int, int]] = []
    blocks: list[Block] = []
    # node, its ancestors' prefix, flips, path features
    queue = [(tree.root, -1, 0, ())]
    for idx, prefix, flips, path in queue:
        node = tree.nodes[idx]
        if height[idx] <= 2:
            block = _block(tree, idx, prefix, flips, path, row)
            # A full height-2 block's key has a bit more than its leaves'
            # depth: at the depth cap, its root is split into smaller blocks.
            if block.bits <= HARD_DEPTH_CAP:
                blocks.append(block)
                continue
        prefixes.append((prefix, row[idx]))
        path += (node.feature,)
        queue.append((node.left, len(prefixes) - 1, flips * 2, path))
        queue.append((node.right, len(prefixes) - 1, flips * 2 + 1, path))
    bits = max(block.bits for block in blocks)
    return SubtreeBlocks(tuple(features), len(inner), tuple(prefixes),
                         tuple(blocks), pattern_dtype_for_depth(bits),
                         _prefix_levels(prefixes), _block_groups(blocks))


def _prefix_levels(prefixes: list[tuple[int, int]]) -> tuple:
    # Prefixes are listed breadth-first, so each level is a contiguous range.
    level: list[int] = []
    for parent, _ in prefixes:
        level.append(0 if parent < 0 else level[parent] + 1)
    out = []
    for _, group in itertools.groupby(range(len(prefixes)), key=level.__getitem__):
        group = list(group)
        parents, splits = zip(*(prefixes[i] for i in group))
        out.append((slice(group[0], group[-1] + 1), np.array(parents, dtype=np.intp),
                    np.array(splits, dtype=np.intp)))
    return tuple(out)


def _block_groups(blocks: list[Block]) -> tuple:
    by_count: dict[int, list[int]] = {}
    for b, block in enumerate(blocks):
        by_count.setdefault(len(block.splits), []).append(b)
    return tuple(
        (np.array(group, dtype=np.intp),
         np.array([blocks[b].prefix for b in group], dtype=np.intp),
         np.array([blocks[b].splits for b in group], dtype=np.intp).reshape(len(group), count))
        for count, group in sorted(by_count.items()))


def _block(tree: Tree, root: int, prefix: int, flips: int, path: tuple[int, ...],
           row: dict[int, int]) -> Block:
    node = tree.nodes[root]
    inner = [] if node.is_leaf else [root] + [
        child for child in (node.left, node.right) if not tree.nodes[child].is_leaf]
    bit = {idx: len(inner) - 1 - j for j, idx in enumerate(inner)}
    leaves = []
    queue = [(root, (), path)]   # node, its steps, its path features
    for idx, steps, features in queue:
        node = tree.nodes[idx]
        if node.is_leaf:
            leaves.append(BlockLeaf(idx, flips, steps, features))
        else:
            features += (node.feature,)
            queue.append((node.left, steps + ((bit[idx], 0),), features))
            queue.append((node.right, steps + ((bit[idx], 1),), features))
    return Block(prefix, tuple(row[i] for i in inner), len(path) + len(inner),
                 tuple(leaves))


def block_keys(blocks: SubtreeBlocks, columns: np.ndarray) -> np.ndarray:
    """Every block's key for each row, as a (blocks x rows) array, given the
    rows feature-major (``columns[f]`` holds feature f of every row).

    Follows the tree's key plan: each prefix level is its parents' keys
    doubled plus its split outcomes, and each block group its prefixes' keys
    extended the same way by each of its splits in turn."""
    n = columns.shape[1]
    goes_left = np.empty((blocks.num_splits, n), dtype=bool)
    for feature, rows, thresholds in blocks.features:
        np.less(columns[feature], thresholds, out=goes_left[rows])

    # The last row stays 0: the empty prefix, which index -1 reads.
    prefixes = np.empty((len(blocks.prefixes) + 1, n), dtype=blocks.dtype)
    prefixes[-1] = 0
    for targets, parents, splits in blocks.levels:
        key = prefixes[parents]
        key += key
        key += goes_left[splits]
        prefixes[targets] = key
    keys = np.empty((len(blocks.blocks), n), dtype=blocks.dtype)
    for targets, parents, splits in blocks.groups:
        key = prefixes[parents]
        for split in splits.T:
            key += key
            key += goes_left[split]
        keys[targets] = key
    return keys


def leaf_key_patterns(block: Block, leaf: BlockLeaf,
                      keys: np.ndarray | None = None) -> np.ndarray:
    """The leaf's agreement pattern for each of ``keys`` (by default every
    key of its block).

    Ancestor bits agree where they equal the path's direction, so they are
    the key's high bits with the right turns flipped; the block's own bits
    are picked out one by one, skipping the inner nodes off the leaf's path.
    """
    keys = np.arange(1 << block.bits) if keys is None else keys.astype(np.intp)
    pattern = (keys >> len(block.splits)) ^ leaf.flips
    for bit, right in leaf.steps:
        pattern = pattern + pattern + (((keys >> bit) & 1) ^ right)
    return pattern


def leaf_key_map(block: Block, leaf: BlockLeaf,
                 cache: dict[tuple, np.ndarray]) -> np.ndarray:
    """``leaf_key_patterns(block, leaf)`` from ``cache``, which holds one map
    per block shape and leaf steps, with no ancestor bit flipped: the ancestor
    bits sit above the step bits, so the leaf's flips apply as one XOR. The
    result may be the cached array itself; do not write to it."""
    shape = (block.bits, len(block.splits), leaf.steps)
    base = cache.get(shape)
    if base is None:
        base = cache[shape] = leaf_key_patterns(block, leaf._replace(flips=0))
    return base ^ (leaf.flips << len(leaf.steps)) if leaf.flips else base
