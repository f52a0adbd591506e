"""The attribution pipeline: frequencies, contribution matrices, score vectors,
and batched gathers, generic over any per-cube metric that is linear in the
cube weight.

Per tree: (1) a frequency vector per leaf over baseline patterns, from a
background dataset or from node covers; (2) sparse per-feature-subset
contribution matrices over pattern pairs, built once per canonical dictionary
and metric; (3) dense score vectors, leaf weight times matrix times
frequencies, with each pair of sibling leaves folded into one table keyed by
the left leaf's pattern; (4) one gather, which streams the consumer rows in
blocks: per block, each tree's consumer patterns index its tables, and the
values accumulate feature-major in a small (columns x block rows) buffer
that is then copied into the output. Per-row results are summed in a fixed
order (tree, folded leaf, column), so output is reproducible bit for bit
regardless of the thread count and the block size.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy import sparse

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
    calc_decision_patterns,
    sibling_last_bit_pairs,
)
from .tree_model import Tree, TreeEnsemble, as_matrix


@dataclass(frozen=True, eq=False)
class Metric:
    """A per-cube attribution rule.

    ``apply`` maps a cube to (feature subset, value) pairs, with subsets of
    size one or two, and must be linear in the cube weight and empty on
    contradictory cubes. Subsets reference the variable ids used inside the
    cube (the pipeline renames canonical ordinals to feature ids afterwards).
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

def background_frequencies(tree: Tree, background) -> dict[int, np.ndarray]:
    """Per-leaf relative frequencies of baseline patterns over the background.

    Histograms are shared across sibling leaves: the right sibling's counts
    are the left's with even/odd entries swapped (patterns differ only in the
    last bit), halving the histogram work.
    """
    B = as_matrix(background)
    m = B.shape[0]
    if m == 0:
        raise ModeError("background mode requires a non-empty background dataset")
    table = calc_decision_patterns(tree, B)
    left_sibling = {right: left for left, right in sibling_last_bit_pairs(tree)}
    counts: dict[int, np.ndarray] = {}
    for lf in table.patterns:
        mate = left_sibling.get(lf)
        if mate is not None and mate in counts:
            counts[lf] = counts[mate].reshape(-1, 2)[:, ::-1].ravel()
        else:
            counts[lf] = np.bincount(
                table.patterns[lf].astype(np.int64),
                minlength=1 << table.lengths[lf],
            )
    return {lf: c / m for lf, c in counts.items()}


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

def build_contribution_matrices(dictionary: CubeDictionary,
                                metric: Metric) -> dict[tuple[int, ...], sparse.csr_matrix]:
    """One sparse (consumer pattern, baseline pattern) matrix per feature subset.

    Each dictionary entry scatters its metric values at its own key, so a
    subset's matrix has at most 3^depth nonzeros in a 2^depth-square shape.
    Leaf weights are deliberately not applied here, keeping the matrices
    shareable across all leaves with the same path structure.
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
        subset: sparse.csr_matrix(
            (np.asarray(vals), (np.asarray(rows), np.asarray(cols))),
            shape=(size, size),
        )
        for subset, (rows, cols, vals) in triplets.items()
    }


# ---------------------------------------------------------------------------
# Stage 3: score vectors

def build_score_vectors(matrices: Mapping[tuple[int, ...], sparse.csr_matrix],
                        frequencies: np.ndarray,
                        leaf_weight: float) -> dict[tuple[int, ...], np.ndarray]:
    """Dense per-subset score vectors: leaf weight times matrix times
    frequencies, touching nonzeros only."""
    out = {}
    for subset, matrix in matrices.items():
        if matrix.shape[1] != frequencies.shape[0]:
            raise DimensionError(
                f"matrix is {matrix.shape} but the frequency vector has "
                f"length {frequencies.shape[0]}"
            )
        out[subset] = leaf_weight * (matrix @ frequencies)
    return out


# ---------------------------------------------------------------------------
# Stage 4: gathers

# One tree's gather plan: (key leaf, {output column: score table}) in a fixed
# order. A table is indexed by the key leaf's consumer pattern.
LeafTables = list[tuple[int, dict[int, np.ndarray]]]


def _subset_column(subset: tuple[int, ...], num_features: int, pairwise: bool) -> int:
    """Output column of a feature subset; pairs use the packed
    upper-triangular layout."""
    if (len(subset) == 2) != pairwise:
        raise DimensionError(
            "metric returned a subset size that contradicts its pairwise flag"
        )
    return subset[0] if not pairwise else pair_index(subset[0], subset[1], num_features)


def fold_siblings(tree: Tree, leaf_tables: Mapping[int, dict[int, np.ndarray]]) -> LeafTables:
    """Merge each pair of sibling leaves into one set of tables keyed by the
    left leaf's pattern.

    The right sibling's pattern is the left's with the last bit flipped, so
    its table, with even and odd entries swapped, can be added to the left's:
    ``t[p] = vL[p] + vR[p ^ 1]``. Siblings share their path features, so
    they have the same columns. Leaves without a leaf sibling keep their own
    tables. The result has one entry per gather key, in leaf order.
    """
    right_of = dict(sibling_last_bit_pairs(tree))
    rights = set(right_of.values())
    folded: LeafTables = []
    for lf, columns in leaf_tables.items():
        if lf in rights:
            continue
        mate = right_of.get(lf)
        if mate is not None:
            right = leaf_tables[mate]
            columns = {col: vec + right[col].reshape(-1, 2)[:, ::-1].ravel()
                       for col, vec in columns.items()}
        folded.append((lf, columns))
    return folded


def _gather_into(acc: np.ndarray, tables: LeafTables,
                 patterns: Mapping[int, np.ndarray]) -> None:
    """Add every table, indexed by its key leaf's patterns, into the
    feature-major accumulator ``acc`` (columns x rows), in table order."""
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


def _gather_rows(plan: Sequence[tuple[Tree, LeafTables]], consumers: np.ndarray,
                 out: np.ndarray, start: int, stop: int, block_size: int) -> None:
    """Fill ``out[start:stop]`` block by block: per block, each tree's
    consumer patterns, then its tables gathered into a small feature-major
    buffer that is copied into ``out``."""
    for lo in range(start, stop, block_size):
        hi = min(lo + block_size, stop)
        rows = consumers[lo:hi]
        acc = np.zeros((out.shape[1], hi - lo))
        for tree, tables in plan:
            table = calc_decision_patterns(tree, rows, block_size)
            _gather_into(acc, tables, table.patterns)
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


def _rename_subset(subset: tuple[int, ...], rename: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(rename[i] for i in subset))


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

    Each tree's score tables are built once, with sibling leaves folded into
    one table. The gather then splits the rows evenly over ``threads`` and
    walks each slice in blocks of ``block_size`` rows (default
    ``patterns.DEFAULT_BLOCK_SIZE``), so it holds about
    ``width * block_size`` floats plus one block of patterns per thread,
    whatever the row count. Results are bit-identical for any ``threads``
    and ``block_size``.
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
    matrix_cache: dict = {}
    plan: list[tuple[Tree, LeafTables]] = []

    for tree in ensemble.trees:
        t0 = time.perf_counter()
        freqs = background_frequencies(tree, B) if B is not None \
            else path_dependent_frequencies(tree)
        t1 = time.perf_counter()
        timings["frequencies"] += t1 - t0

        leaf_tables: dict[int, dict[int, np.ndarray]] = {}
        for lf in tree.leaf_indices():
            t1 = time.perf_counter()
            dictionary, rename = cache.get(tree.path_features(lf))
            mkey = (dictionary.path_features, metric)
            matrices = matrix_cache.get(mkey)
            if matrices is None:
                matrices = build_contribution_matrices(dictionary, metric)
                matrix_cache[mkey] = matrices
            t2 = time.perf_counter()
            scores = build_score_vectors(matrices, freqs[lf],
                                         tree.nodes[lf].leaf_weight)
            leaf_tables[lf] = {
                _subset_column(_rename_subset(subset, rename), h, metric.pairwise): vec
                for subset, vec in scores.items()
            }
            t3 = time.perf_counter()
            timings["matrices"] += t2 - t1
            timings["scores"] += t3 - t2
        t1 = time.perf_counter()
        plan.append((tree, fold_siblings(tree, leaf_tables)))
        timings["scores"] += time.perf_counter() - t1

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
