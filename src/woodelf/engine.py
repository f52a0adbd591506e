"""The attribution pipeline: frequencies, contribution matrices, score vectors,
and batched gathers, generic over any per-cube metric that is linear in the
cube weight.

Per tree: (1) baseline frequencies, from a background dataset or from node
covers. The tree is cut into its maximal subtrees of height at most 2
(``patterns.subtree_blocks``, one walk that also gives each leaf's path
features); a background's rows are counted by their key in each block, while
covers give each leaf a frequency vector directly; (2) sparse
per-feature-subset contribution matrices over pattern pairs, built once per
unique-feature count u and stored as row/column/value arrays; (3) dense
score vectors: per leaf, the map from its block's keys to its patterns
(``leaf_key_patterns``) spreads the block's key counts into the leaf's
frequencies, which are collapsed onto its unique path features (a feature
split on twice is one agreement bit) and multiplied by the u-matrices and
the leaf weight; the same map, collapsed, adds the leaf's vectors into one
table per block and column; (4) one gather, which streams the consumer rows
in row blocks: per row block, the rows are transposed once, each tree's
block keys are computed from one comparison per distinct split feature
(``calc_decision_patterns`` given the tree's blocks), the keys index the
block tables, and the values accumulate feature-major in a small (columns x
block rows) buffer that is then copied into the output. Per-row results are
summed in a fixed order (tree, block, column), so output is reproducible bit
for bit regardless of the thread count and the block size.
"""

from __future__ import annotations

import time
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
    LeafPatternTable,
    SubtreeBlocks,
    calc_decision_patterns,
    leaf_key_patterns,
    subtree_blocks,
)
from .tree_model import Tree, TreeEnsemble, as_matrix


@dataclass(frozen=True, eq=False)
class Metric:
    """A per-cube attribution rule.

    ``apply`` maps a cube to (feature subset, value) pairs, with subsets of
    size one or two, and must be linear in the cube weight. Subsets reference
    the variable ids used inside the cube: the pipeline's cubes speak in a
    path's unique-feature ordinals, renamed to feature ids afterwards.
    """

    apply: Callable[[Cube], Sequence[tuple[tuple[int, ...], float]]]
    pairwise: bool
    kind: MetricKind | None = None


def shapley_metric() -> Metric:
    return Metric(lambda c: [((i,), v) for i, v in cube_shapley(c)],
                  pairwise=False, kind=MetricKind.SHAPLEY)


def banzhaf_metric() -> Metric:
    return Metric(lambda c: [((i,), v) for i, v in cube_banzhaf(c)],
                  pairwise=False, kind=MetricKind.BANZHAF)


def shapley_iv_metric() -> Metric:
    return Metric(cube_shapley_iv, pairwise=True, kind=MetricKind.SHAPLEY_IV)


def banzhaf_iv_metric() -> Metric:
    return Metric(cube_banzhaf_iv, pairwise=True, kind=MetricKind.BANZHAF_IV)


_METRIC_FACTORIES = {
    MetricKind.SHAPLEY: shapley_metric,
    MetricKind.BANZHAF: banzhaf_metric,
    MetricKind.SHAPLEY_IV: shapley_iv_metric,
    MetricKind.BANZHAF_IV: banzhaf_iv_metric,
}


def resolve_metric(metric: "Metric | MetricKind | str") -> Metric:
    if isinstance(metric, Metric):
        return metric
    if isinstance(metric, str):
        metric = MetricKind(metric)
    return _METRIC_FACTORIES[metric]()


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
                                metric: Metric) -> dict[tuple[int, ...], SubsetEntries]:
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
        for subset, value in metric.apply(cube):
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


# ---------------------------------------------------------------------------
# Stage 3: score vectors

def build_score_vectors(matrices: Mapping[tuple[int, ...], SubsetEntries],
                        frequencies: np.ndarray,
                        leaf_weight: float) -> dict[tuple[int, ...], np.ndarray]:
    """Dense per-subset score vectors: leaf weight times matrix times
    frequencies, one weighted ``bincount`` over each subset's entries."""
    out = {}
    for subset, matrix in matrices.items():
        if matrix.size != frequencies.shape[0]:
            raise DimensionError(
                f"matrix is {matrix.size}-square but the frequency vector has "
                f"length {frequencies.shape[0]}"
            )
        out[subset] = leaf_weight * np.bincount(
            matrix.rows, weights=matrix.values * frequencies[matrix.cols],
            minlength=matrix.size)
    return out


# ---------------------------------------------------------------------------
# Stage 4: gathers

# Gather tables: (key id, {output column: score table}) in a fixed order. A
# table is indexed by that key's values: a leaf's patterns, or a block's keys.
Tables = list[tuple[int, dict[int, np.ndarray]]]


def _subset_column(subset: tuple[int, ...], num_features: int, pairwise: bool) -> int:
    """Output column of a feature subset; pairs use the packed
    upper-triangular layout."""
    if (len(subset) == 2) != pairwise:
        raise DimensionError(
            "metric returned a subset size that contradicts its pairwise flag"
        )
    return subset[0] if not pairwise else pair_index(subset[0], subset[1], num_features)


def _gather_into(acc: np.ndarray, tables: Tables,
                 patterns: Mapping[int, np.ndarray] | Sequence[np.ndarray]) -> None:
    """Add every table, indexed by its key's values, into the feature-major
    accumulator ``acc`` (columns x rows), in table order."""
    for lf, columns in tables:
        pats = patterns[lf].astype(np.intp)
        for col, vec in columns.items():
            acc[col] += vec[pats]


def gather_attributions(score_vectors: Mapping[int, Mapping[tuple[int, ...], np.ndarray]],
                        consumer_patterns: LeafPatternTable,
                        num_features: int,
                        pairwise: bool,
                        out: np.ndarray | None = None) -> np.ndarray:
    """Accumulate per-row values: every leaf's score vectors indexed by that
    leaf's consumer patterns, summed feature-subset-wise.

    Subsets here are actual feature ids; pairs land in the packed
    upper-triangular column layout. Values are added to ``out`` if given.
    """
    width = pair_count(num_features) if pairwise else num_features
    tables = [
        (lf, {_subset_column(subset, num_features, pairwise): vec
              for subset, vec in per_subset.items()})
        for lf, per_subset in score_vectors.items()
    ]
    acc = np.zeros((width, consumer_patterns.num_rows)) if out is None \
        else np.ascontiguousarray(out.T)
    _gather_into(acc, tables, consumer_patterns.patterns)
    if out is None:
        return np.ascontiguousarray(acc.T)
    out[...] = acc.T
    return out


def _gather_rows(plan: Sequence[tuple[Tree, SubtreeBlocks, Tables]],
                 consumers: np.ndarray, out: np.ndarray, start: int, stop: int,
                 block_size: int) -> None:
    """Fill ``out[start:stop]`` row block by row block: per row block, the
    rows transposed once, then per tree its block keys and its tables
    gathered into a small feature-major buffer that is copied into ``out``."""
    for lo in range(start, stop, block_size):
        hi = min(lo + block_size, stop)
        columns = np.ascontiguousarray(consumers[lo:hi].T)
        acc = np.zeros((out.shape[1], hi - lo))
        for tree, blocks, tables in plan:
            keys = calc_decision_patterns(tree, columns.T, hi - lo, blocks)
            _gather_into(acc, tables, keys.patterns)
        out[lo:hi] = acc.T


# ---------------------------------------------------------------------------
# The full pipeline

@dataclass
class BatchAttribution:
    """Per-row attribution values for one metric over one consumer matrix.

    ``values`` is (rows, num_features) for single-variable metrics and
    (rows, num_features*(num_features-1)/2) packed upper-triangular for
    interaction metrics.
    """

    metric: MetricKind | None
    num_features: int
    pairwise: bool
    values: np.ndarray
    timings: dict[str, float] | None = None

    def row(self, idx: int) -> AttributionResult:
        kind = self.metric if self.metric is not None else MetricKind.SHAPLEY
        if self.pairwise:
            return AttributionResult(kind, self.num_features, pairs=self.values[idx])
        return AttributionResult(kind, self.num_features, singles=self.values[idx])

    def pair_values(self, i: int, j: int) -> np.ndarray:
        if not self.pairwise:
            raise ValueError("this result holds single-variable values")
        return self.values[:, pair_index(i, j, self.num_features)]


def woodelf(ensemble: TreeEnsemble,
            consumers,
            background=None,
            metric: "Metric | MetricKind | str" = MetricKind.SHAPLEY,
            threads: int = 1,
            block_size: int | None = None) -> BatchAttribution:
    """Attributions of every consumer row under the requested metric.

    A present, non-empty ``background`` selects background mode; otherwise
    the ensemble's covers drive path-dependent mode. Interaction metrics
    fill unordered pairs only. Stage wall times are reported in ``timings``.

    Each tree's score tables are built once: one table per height-2 subtree
    block and column, of 2^(key bits) floats, where a block's key has a bit
    per ancestor and per inner node of the block. The gather then splits the
    rows evenly over ``threads`` and walks each slice in row blocks of
    ``block_size`` rows (default ``patterns.DEFAULT_BLOCK_SIZE``), so besides
    the tables it holds, per thread, about ``width * block_size`` floats and
    one key buffer (a split outcome per inner node and one key per block, for
    each row of the block), whatever the row count. Results are bit-identical
    for any ``threads`` and ``block_size``. A background is keyed the same
    way, one tree at a time, and held whole while its keys are counted: one
    key per block and row, one byte while keys fit 8 bits (16 bytes a row
    for a full depth-6 tree, where per-leaf patterns took 64).
    """
    metric = resolve_metric(metric)
    if block_size is None:
        block_size = DEFAULT_BLOCK_SIZE
    if block_size < 1:
        raise ValueError(f"block_size must be positive, got {block_size}")
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
            B = None  # empty background falls back to path-dependent mode
    timings = {"frequencies": 0.0, "matrices": 0.0, "scores": 0.0, "gather": 0.0}

    cache = DictionaryCache()
    matrix_cache: dict[int, dict[tuple[int, ...], SubsetEntries]] = {}
    # Output column of each u-matrix subset, per rename (a rename fixes u).
    column_cache: dict[tuple[int, ...], list[int]] = {}
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
            columns: dict[int, np.ndarray] = {}
            for block_leaf in block.leaves:
                t1 = time.perf_counter()
                dictionary, rename, collapse = cache.get(block_leaf.features)
                matrices = matrix_cache.get(dictionary.depth)
                if matrices is None:
                    matrices = build_contribution_matrices(dictionary, metric)
                    matrix_cache[dictionary.depth] = matrices
                t2 = time.perf_counter()
                subset_columns = column_cache.get(rename)
                if subset_columns is None:
                    subset_columns = column_cache[rename] = [
                        _subset_column(tuple(sorted(rename[i] for i in subset)), h,
                                       metric.pairwise)
                        for subset in matrices]
                # The leaf's pattern for each key of its block.
                index = leaf_key_patterns(block, block_leaf)
                if B is not None:
                    f = np.bincount(index, weights=counts[b],
                                    minlength=1 << len(block_leaf.features)) / B.shape[0]
                else:
                    f = freqs[block_leaf.leaf]
                if collapse is not None:
                    f = np.bincount(collapse, weights=f, minlength=1 << dictionary.depth)
                    index = collapse[index]
                scores = build_score_vectors(matrices, f,
                                             tree.nodes[block_leaf.leaf].leaf_weight)
                for col, vec in zip(subset_columns, scores.values(), strict=True):
                    if col in columns:
                        columns[col] += vec[index]
                    else:
                        columns[col] = vec[index]
                t3 = time.perf_counter()
                timings["matrices"] += t2 - t1
                timings["scores"] += t3 - t2
            tables.append((b, columns))
        plan.append((tree, blocks, tables))

    n = C.shape[0]
    out = np.zeros((n, pair_count(h) if metric.pairwise else h))
    t0 = time.perf_counter()
    if threads <= 1 or n == 0:
        _gather_rows(plan, C, out, 0, n, block_size)
    else:
        bounds = np.linspace(0, n, threads + 1, dtype=int)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [
                pool.submit(_gather_rows, plan, C, out, int(bounds[k]),
                            int(bounds[k + 1]), block_size)
                for k in range(threads)
            ]
            for f in futures:
                f.result()
    timings["gather"] += time.perf_counter() - t0

    return BatchAttribution(metric.kind, h, metric.pairwise, out, timings)


def baseline_attributions(ensemble: TreeEnsemble,
                          consumers,
                          baseline_row,
                          metric: "Metric | MetricKind | str" = MetricKind.SHAPLEY,
                          threads: int = 1) -> BatchAttribution:
    """Attributions against a single fixed baseline row: background mode with
    a one-row background."""
    row = np.asarray(baseline_row, dtype=np.float64).reshape(1, -1)
    return woodelf(ensemble, consumers, background=row, metric=metric,
                   threads=threads)
