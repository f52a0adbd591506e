"""The attribution pipeline: frequencies, contribution matrices, score vectors,
and a batched gather, for each ``MetricKind``.

Per tree: (1) baseline frequencies, from a background dataset or from node
covers. The tree is cut into its maximal subtrees of height at most 2
(``patterns.subtree_blocks``, one walk that also gives each leaf's path
features and plans the block keys); a background's rows are counted by their
key in each block, while covers give each leaf a frequency vector directly;
(2) sparse per-feature-subset contribution matrices over pattern pairs,
built once per unique-feature count u, stored as row/column/value arrays and
stacked into one entry set per u (``stack_subsets``); (3) dense score
vectors: per leaf, the map from its block's keys to its patterns
(``leaf_key_map``, cached per leaf shape and block shape) spreads the
block's key counts into the leaf's frequencies, which are collapsed onto its
unique path features (a feature split on twice is one agreement bit); one
weighted ``bincount`` over the stacked entries then gives all of the leaf's
score vectors, and one add folds them, mapped to the block's keys, into the
block's (columns x keys) table; (4) one gather, which streams the consumer
rows in row blocks sized from the output width (``gather_block_rows``): per
row block, the rows are transposed once, each tree's block keys are computed
from one comparison per distinct split feature (``calc_decision_patterns``
given the tree's blocks), the keys index the block tables, and the values
accumulate feature-major in a small, reused (columns x block rows) buffer
that is then handed to a sink: by default one that copies it into the output
array, in ``woodelf compute`` one that writes it as CSV or JSON text, so the
output is never held whole. Per-row results are summed in a fixed order
(tree, block, column), so output is reproducible bit for bit regardless of
the thread count and the block size.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .cube_mapping import CubeDictionary, DictionaryCache
from .errors import DimensionError, ModeError
from .formula_core import (
    AttributionResult,
    Cube,
    MetricKind,
    cube_banzhaf,
    cube_banzhaf_iv,
    cube_shapley,
    cube_shapley_iv,
    pair_count,
    pair_index,
)
from .patterns import (
    DEFAULT_BLOCK_SIZE,
    SubtreeBlocks,
    calc_decision_patterns,
    leaf_key_map,
    subtree_blocks,
)
from .tree_model import Tree, TreeEnsemble, as_matrix


# ---------------------------------------------------------------------------
# Stage 1: frequency vectors

def background_frequencies(tree: Tree, background,
                           blocks: SubtreeBlocks) -> list[np.ndarray]:
    """How many background rows take each key of each of the tree's blocks:
    one integer histogram of 2^bits entries per block, in block order.

    A leaf's pattern frequencies are its block's counts summed through
    ``leaf_key_patterns`` and divided by the row count; counts stay integers
    until then, so they are exact whatever the summation order.
    """
    B = as_matrix(background)
    if B.shape[0] == 0:
        raise ModeError("background mode requires a non-empty background dataset")
    keys = calc_decision_patterns(tree, B, blocks=blocks).patterns
    return [np.bincount(keys[b], minlength=1 << block.bits)
            for b, block in enumerate(blocks.blocks)]


def path_dependent_frequencies(tree: Tree) -> dict[int, np.ndarray]:
    """Per-leaf pattern frequencies from node covers, in one traversal.

    Walking down a path, pattern bit 1 (agreeing with the path) carries
    probability cover(child)/cover(parent), bit 0 the complement; a leaf's
    vector is the product measure over its path bits. Every vector sums to 1.
    """
    out: dict[int, np.ndarray] = {}

    def descend(idx: int, vec: np.ndarray) -> None:
        node = tree.nodes[idx]
        if node.is_leaf:
            out[idx] = vec
            return
        if node.cover is None or node.cover <= 0:
            raise ModeError(
                f"path-dependent mode requires positive covers; node {idx} "
                f"has {node.cover!r}"
            )
        for child in (node.left, node.right):
            child_cover = tree.nodes[child].cover
            if child_cover is None or child_cover <= 0:
                raise ModeError(
                    f"path-dependent mode requires positive covers; node "
                    f"{child} has {child_cover!r}"
                )
            ratio = child_cover / node.cover
            if ratio > 1.0:
                raise ModeError(
                    f"cover of node {child} exceeds its parent's: ratio {ratio}"
                )
            grown = np.empty(2 * vec.shape[0])
            grown[0::2] = vec * (1.0 - ratio)
            grown[1::2] = vec * ratio
            descend(child, grown)

    descend(tree.root, np.ones(1))
    return out


# ---------------------------------------------------------------------------
# Stage 2: sparse contribution matrices

def cube_contributions(cube: Cube,
                       kind: MetricKind) -> list[tuple[tuple[int, ...], float]]:
    """One cube's (feature subset, value) pairs under ``kind``: one-variable
    subsets, or pairs as (min, max), the order the pairwise rules give."""
    # The rules are looked up by their module-global names at each call, not
    # through a table of function objects: the benchmark's tracer counts
    # their calls by swapping these names in this module.
    if kind is MetricKind.SHAPLEY:
        return [((i,), v) for i, v in cube_shapley(cube)]
    if kind is MetricKind.BANZHAF:
        return [((i,), v) for i, v in cube_banzhaf(cube)]
    if kind is MetricKind.SHAPLEY_IV:
        return cube_shapley_iv(cube)
    return cube_banzhaf_iv(cube)


class SubsetEntries(NamedTuple):
    """The stored entries of one subset's ``size``-square contribution
    matrix: values at (consumer pattern, baseline pattern) = (row, column)."""

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    size: int

    @property
    def nnz(self) -> int:
        return len(self.values)


def build_contribution_matrices(dictionary: CubeDictionary,
                                kind: MetricKind) -> dict[tuple[int, ...], SubsetEntries]:
    """One sparse (consumer pattern, baseline pattern) matrix per feature subset.

    Each dictionary entry scatters its metric values at its own key, so a
    subset's matrix has at most 3^depth entries in a 2^depth-square shape;
    no dense matrix is built. Leaf weights are deliberately not applied here,
    keeping the matrices shareable across all leaves with as many unique path
    features.
    """
    if not dictionary.path_features:
        return {}
    size = 1 << dictionary.depth
    triplets: dict[tuple[int, ...], tuple[list, list, list]] = {}
    for (pc, pb), cube in dictionary.entries.items():
        for subset, value in cube_contributions(cube, kind):
            rows, cols, vals = triplets.setdefault(subset, ([], [], []))
            rows.append(pc)
            cols.append(pb)
            vals.append(value)
    return {
        subset: SubsetEntries(np.asarray(rows, dtype=np.intp),
                              np.asarray(cols, dtype=np.intp),
                              np.asarray(vals, dtype=np.float64), size)
        for subset, (rows, cols, vals) in triplets.items()
    }


class StackedEntries(NamedTuple):
    """Every subset's contribution-matrix entries for one unique-feature
    count, stacked in subset order: subset s's entry at (consumer pattern pc,
    baseline pattern pb) is at row s * size + pc and column pb."""

    subsets: tuple[tuple[int, ...], ...]
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    size: int


def stack_subsets(matrices: Mapping[tuple[int, ...], SubsetEntries],
                  size: int) -> StackedEntries:
    """Stack ``size``-square per-subset matrices, keeping their order."""
    if any(m.size != size for m in matrices.values()):
        raise DimensionError(f"every matrix to stack must be {size}-square")
    # A leading empty array fixes the dtype when there are no subsets.
    rows, cols = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    values = [np.empty(0)]
    for s, m in enumerate(matrices.values()):
        rows.append(s * size + m.rows)
        cols.append(m.cols)
        values.append(m.values)
    return StackedEntries(tuple(matrices), np.concatenate(rows), np.concatenate(cols),
                          np.concatenate(values), size)


# ---------------------------------------------------------------------------
# Stage 3: score vectors

def build_score_vectors(stacked: StackedEntries, frequencies: np.ndarray,
                        leaf_weight: float) -> np.ndarray:
    """Dense score vectors, one row per subset of ``stacked.subsets``: leaf
    weight times matrix times frequencies, from one weighted ``bincount``
    over the stacked entries. Each subset's bins receive the same products
    in the same order as a ``bincount`` over that subset's entries alone."""
    if stacked.size != frequencies.shape[0]:
        raise DimensionError(
            f"matrix is {stacked.size}-square but the frequency vector has "
            f"length {frequencies.shape[0]}"
        )
    scores = np.bincount(stacked.rows, weights=stacked.values * frequencies[stacked.cols],
                         minlength=len(stacked.subsets) * stacked.size)
    return leaf_weight * scores.reshape(len(stacked.subsets), stacked.size)


# ---------------------------------------------------------------------------
# Stage 4: the gather

# Gather tables: (block, {output column: score table}) in a fixed order. A
# table is indexed by the block's keys.
Tables = list[tuple[int, dict[int, np.ndarray]]]
# Receives each gathered row block as (first row, (rows x width) values).
Sink = Callable[[int, np.ndarray], None]

def gather_block_rows(width: int) -> int:
    """Default gather row block for an output ``width`` columns wide: the
    rows whose float64 values fill 768 KiB, from ``DEFAULT_BLOCK_SIZE`` to
    twice that. On 12-column background Shapley, 16,384- and 32,768-row
    blocks were no faster than 8,192 and took 3-6 MB more memory."""
    rows = 768 * 1024 // (8 * max(width, 1))
    return min(2 * DEFAULT_BLOCK_SIZE, max(DEFAULT_BLOCK_SIZE, rows))


def _subset_columns(ordinals: np.ndarray, rename: tuple[int, ...],
                    num_features: int) -> list[int]:
    """Output column of each subset once its ordinals are renamed to feature
    ids; pairs use ``pair_index``'s packed upper-triangular layout."""
    features = np.array(rename, dtype=np.intp)[ordinals]
    if ordinals.shape[1] == 1:
        return features[:, 0].tolist()
    i, j = features.min(axis=1), features.max(axis=1)
    return (i * num_features - i * (i + 1) // 2 + (j - i - 1)).tolist()


def _gather_into(acc: np.ndarray, tables: Tables, keys: Mapping[int, np.ndarray]) -> None:
    """Add every table, indexed by its block's keys, into the feature-major
    accumulator ``acc`` (columns x rows), in table order."""
    for b, columns in tables:
        index = keys[b].astype(np.intp)
        for col, vec in columns.items():
            acc[col] += vec[index]


def _gather_block(plan: Sequence[tuple[Tree, SubtreeBlocks, Tables]],
                  consumers: np.ndarray, lo: int, hi: int, width: int,
                  buffer: np.ndarray) -> np.ndarray:
    """Rows ``lo:hi`` gathered into the front of ``buffer``, reused as a
    feature-major (width x rows) accumulator: the rows transposed once, then
    per tree its block keys and its tables. Returns the (rows x width) view."""
    acc = buffer[:width * (hi - lo)].reshape(width, hi - lo)
    acc.fill(0.0)
    columns = np.ascontiguousarray(consumers[lo:hi].T)
    for tree, blocks, tables in plan:
        keys = calc_decision_patterns(tree, columns.T, hi - lo, blocks)
        _gather_into(acc, tables, keys.patterns)
    return acc.T


def _gather(plan: Sequence[tuple[Tree, SubtreeBlocks, Tables]], consumers: np.ndarray,
            width: int, block_size: int, threads: int, sink: Sink,
            sink_in_worker: bool = False) -> None:
    """Gather the rows in blocks of ``block_size`` and hand each block to
    ``sink`` in row order. With several threads, a pool gathers up to
    ``threads`` blocks ahead, one reused accumulator each, while the calling
    thread feeds the sink; a block's accumulator is reused only after the
    sink has returned from it. With ``sink_in_worker``, for a sink that only
    writes its block's own rows of an array, the thread that gathered a block
    calls the sink, so the copies run in parallel with the other gathers."""
    n = consumers.shape[0]
    # Enough blocks to keep every thread busy on a short input.
    block_size = max(1, min(block_size, -(-n // threads)))
    starts = range(0, n, block_size)
    ahead = min(threads, len(starts))
    buffers = [np.empty(width * block_size) for _ in range(ahead)]

    def gather(k: int) -> tuple[int, np.ndarray]:
        lo = starts[k]
        block = _gather_block(plan, consumers, lo, min(lo + block_size, n), width,
                              buffers[k % ahead])
        if sink_in_worker:
            sink(lo, block)
        return lo, block

    def feed(done: tuple[int, np.ndarray]) -> None:
        if not sink_in_worker:
            sink(*done)

    if ahead <= 1:
        for k in range(len(starts)):
            feed(gather(k))
        return
    with ThreadPoolExecutor(max_workers=ahead) as pool:
        pending = deque(pool.submit(gather, k) for k in range(ahead))
        for k in range(len(starts)):
            feed(pending.popleft().result())
            if k + ahead < len(starts):
                pending.append(pool.submit(gather, k + ahead))


# ---------------------------------------------------------------------------
# The full pipeline

@dataclass
class BatchAttribution:
    """Per-row attribution values for one metric over one consumer matrix.

    ``values`` is (rows, num_features) for single-variable metrics and
    (rows, num_features*(num_features-1)/2) packed upper-triangular for
    interaction metrics; None when a sink took the rows instead.
    """

    metric: MetricKind
    num_features: int
    values: np.ndarray | None
    timings: dict[str, float] | None = None

    @property
    def pairwise(self) -> bool:
        return self.metric.pairwise

    def row(self, idx: int) -> AttributionResult:
        if self.pairwise:
            return AttributionResult(self.metric, self.num_features, pairs=self.values[idx])
        return AttributionResult(self.metric, self.num_features, singles=self.values[idx])

    def pair_values(self, i: int, j: int) -> np.ndarray:
        if not self.pairwise:
            raise ValueError("this result holds single-variable values")
        return self.values[:, pair_index(i, j, self.num_features)]


def woodelf(ensemble: TreeEnsemble,
            consumers,
            background=None,
            metric: MetricKind | str = MetricKind.SHAPLEY,
            threads: int = 1,
            block_size: int | None = None,
            sink: Sink | None = None) -> BatchAttribution:
    """Attributions of every consumer row under the requested metric.

    ``metric`` is a ``MetricKind`` or its name. A ``background`` selects
    background mode, and a one-row background is a single baseline; an empty
    one raises ``ModeError``. With ``background=None`` the ensemble's covers
    drive path-dependent mode. Interaction metrics fill unordered pairs
    only. Stage wall times are reported in ``timings``; ``gather`` includes
    the time spent in ``sink``.

    Each tree's score tables are built once: one (columns x keys) table per
    height-2 subtree block, of 2^(key bits) floats a column, where a block's
    key has a bit per ancestor and per inner node of the block. The gather
    then walks the rows in row blocks of ``block_size`` rows (default
    ``gather_block_rows(width)``: 8,192 rows up to 12 output columns, 4,096
    from 24 on; smaller when there would be fewer blocks than ``threads``).

    **Sink.** Each finished row block goes, in row order and exactly once,
    to ``sink(start, block)`` on the calling thread: ``block`` holds rows
    ``start:start + len(block)`` as a (rows x width) view of a reused
    feature-major accumulator, valid only during the call, so a sink that
    keeps rows copies them. With a sink, ``values`` is None. Without one,
    the default sink fills ``values``, an (n x width) array.

    **Memory.** Besides the inputs and the tables, a call holds ``threads``
    row-block accumulators of ``width * block_size`` floats and, per
    gathering thread, one key buffer (a split outcome per inner node and one
    key per block and prefix, for each row of the block), whatever the row
    count. The default sink adds the (n x width) output; a streaming sink,
    such as ``woodelf compute``'s CSV and JSON writer, which holds one
    formatted sub-block of text, keeps the total flat in n. With ``threads > 1``, a
    pool gathers up to ``threads`` blocks ahead while the calling thread
    feeds the sink (the default sink, which copies each block into
    ``values``, runs on the thread that gathered it). Each row is summed in a fixed order (tree, block,
    column), so results are bit-identical for any ``threads`` and
    ``block_size``. A background is keyed the same way, one tree at a time,
    and held whole while its keys are counted: one key per block and row, one
    byte while keys fit 8 bits (16 bytes a row for a full depth-6 tree, where
    per-leaf patterns took 64).
    """
    metric = MetricKind(metric)
    if block_size is not None and block_size < 1:
        raise ValueError(f"block_size must be positive, got {block_size}")
    if threads < 1:
        raise ValueError(f"threads must be positive, got {threads}")
    C = as_matrix(consumers)
    h = ensemble.num_features
    if C.shape[1] != h:
        raise DimensionError(f"consumers have {C.shape[1]} columns, expected {h}")
    B = None
    if background is not None:
        B = as_matrix(background)
        if B.shape[1] != h:
            raise DimensionError(f"background has {B.shape[1]} columns, expected {h}")
        if B.shape[0] == 0:
            raise ModeError("background mode requires at least one background row; "
                            "pass background=None for path-dependent mode")
    width = pair_count(h) if metric.pairwise else h
    if block_size is None:
        block_size = gather_block_rows(width)
    timings = {"frequencies": 0.0, "matrices": 0.0, "scores": 0.0, "gather": 0.0}

    cache = DictionaryCache()
    # Per u: the u-matrices' entries stacked, and their subsets' ordinals.
    stacks: dict[int, tuple[StackedEntries, np.ndarray]] = {}
    # Output column of each stacked subset, per rename (a rename fixes u).
    column_cache: dict[tuple[int, ...], list[int]] = {}
    key_maps: dict[tuple, np.ndarray] = {}
    plan: list[tuple[Tree, SubtreeBlocks, Tables]] = []

    for tree in ensemble.trees:
        t0 = time.perf_counter()
        blocks = subtree_blocks(tree)
        t1 = time.perf_counter()
        timings["matrices"] += t1 - t0
        if B is not None:
            counts = background_frequencies(tree, B, blocks)
        else:
            freqs = path_dependent_frequencies(tree)
        timings["frequencies"] += time.perf_counter() - t1

        tables: Tables = []
        for b, block in enumerate(blocks.blocks):
            # The block's output columns in first-appearance order, and per
            # leaf the table rows of its subsets and its scores by block key.
            positions: dict[int, int] = {}
            folds = []
            for block_leaf in block.leaves:
                t1 = time.perf_counter()
                dictionary, rename, collapse = cache.get(block_leaf.features)
                u = dictionary.depth
                if u not in stacks:
                    stacked = stack_subsets(build_contribution_matrices(dictionary, metric),
                                            1 << u)
                    ordinals = np.array(stacked.subsets, dtype=np.intp)
                    stacks[u] = stacked, ordinals.reshape(len(stacked.subsets),
                                                          1 + metric.pairwise)
                stacked, ordinals = stacks[u]
                t2 = time.perf_counter()
                subset_columns = column_cache.get(rename)
                if subset_columns is None:
                    subset_columns = column_cache[rename] = \
                        _subset_columns(ordinals, rename, h)
                # The leaf's pattern for each key of its block.
                index = leaf_key_map(block, block_leaf, key_maps)
                if B is not None:
                    f = np.bincount(index, weights=counts[b],
                                    minlength=1 << len(block_leaf.features)) / B.shape[0]
                else:
                    f = freqs[block_leaf.leaf]
                if collapse is not None:
                    f = np.bincount(collapse, weights=f, minlength=1 << u)
                    index = collapse[index]
                scores = build_score_vectors(stacked, f,
                                             tree.nodes[block_leaf.leaf].leaf_weight)
                folds.append(([positions.setdefault(col, len(positions))
                               for col in subset_columns], scores, index))
                t3 = time.perf_counter()
                timings["matrices"] += t2 - t1
                timings["scores"] += t3 - t2
            t1 = time.perf_counter()
            # Zero-filled, so the gather's accumulator (never -0.0) reads the
            # same sums as from tables started at a leaf's first values.
            table = np.zeros((len(positions), 1 << block.bits))
            # Subsets are distinct and the rename injective, so no row repeats.
            for rows, scores, index in folds:
                table[rows] += scores[:, index]
            tables.append((b, dict(zip(positions, table))))
            timings["scores"] += time.perf_counter() - t1
        plan.append((tree, blocks, tables))

    values = None
    if sink is None:
        values = np.empty((C.shape[0], width))

        def sink(start: int, block: np.ndarray) -> None:
            values[start:start + block.shape[0]] = block

    t0 = time.perf_counter()
    _gather(plan, C, width, block_size, threads, sink, sink_in_worker=values is not None)
    timings["gather"] += time.perf_counter() - t0

    return BatchAttribution(metric, h, values, timings)
