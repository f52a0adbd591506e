"""Exponential-time reference implementations of the game-theoretic definitions.

Deliberately naive: payoffs are tabulated over every one of the 2^N player
subsets and the defining sums are evaluated directly. Shipped with the
library so users can cross-check the fast path on small instances; never used
by the production pipeline itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .errors import ModeError
from .formula_core import AttributionResult, MetricKind, pair_count, pair_index
from .tree_model import Tree, TreeEnsemble, as_matrix, predict_batch

PLAYER_CAP = 20

_BYTE_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def _popcount(masks: np.ndarray) -> np.ndarray:
    m = np.ascontiguousarray(masks, dtype=np.uint32)
    return _BYTE_POPCOUNT[m.view(np.uint8).reshape(m.size, 4)].sum(axis=1).astype(np.int64)


def _insert_zero_bit(masks: np.ndarray, position: int) -> np.ndarray:
    """Widen masks by one bit, leaving a 0 at ``position`` (dense reindexing)."""
    low = masks & ((1 << position) - 1)
    high = (masks >> position) << (position + 1)
    return high | low


@dataclass
class CharacteristicFunction:
    """A total payoff function over subsets of players 0..num_players-1.

    ``evaluator`` receives a frozenset of participating player ids. Payoffs
    are tabulated lazily over all bitmask-indexed subsets and cached, which
    caps the player count (2^20 payoffs is the intended ceiling). A source
    that can produce the whole table in one vectorized pass may supply
    ``table_fn``; it must agree with ``evaluator`` on every subset.
    """

    evaluator: Callable[[frozenset], float]
    num_players: int
    table_fn: Callable[[], np.ndarray] | None = None
    _table: np.ndarray | None = field(default=None, repr=False, compare=False)

    def value(self, subset: Iterable[int]) -> float:
        return float(self.evaluator(frozenset(subset)))

    def table(self) -> np.ndarray:
        if self._table is None:
            n = self.num_players
            if n > PLAYER_CAP:
                raise ValueError(
                    f"{n} players exceed the oracle cap of {PLAYER_CAP}"
                )
            if self.table_fn is not None:
                vals = np.asarray(self.table_fn(), dtype=np.float64)
                if vals.shape != (1 << n,):
                    raise ValueError(
                        f"table builder returned shape {vals.shape}, "
                        f"expected ({1 << n},)"
                    )
            else:
                vals = np.empty(1 << n, dtype=np.float64)
                for mask in range(1 << n):
                    members = frozenset(i for i in range(n) if mask >> i & 1)
                    vals[mask] = self.evaluator(members)
            self._table = vals
        return self._table


def _shapley_from_table(table: np.ndarray, n: int) -> np.ndarray:
    """All Shapley values from a full payoff table, by the defining sum."""
    if n == 0:
        return np.zeros(0)
    masks = np.arange(1 << n, dtype=np.int64)
    sizes = _popcount(masks)
    fact = [math.factorial(k) for k in range(n + 1)]
    weight_by_size = np.array(
        [fact[s] * fact[n - s - 1] / fact[n] for s in range(n)], dtype=np.float64
    )
    out = np.empty(n)
    for i in range(n):
        bit = 1 << i
        without = masks[(masks & bit) == 0]
        w = weight_by_size[sizes[without]]
        out[i] = float(np.dot(w, table[without | bit] - table[without]))
    return out


def _banzhaf_from_table(table: np.ndarray, n: int) -> np.ndarray:
    if n == 0:
        return np.zeros(0)
    masks = np.arange(1 << n, dtype=np.int64)
    coef = 1.0 / 2 ** (n - 1)
    out = np.empty(n)
    for i in range(n):
        bit = 1 << i
        without = masks[(masks & bit) == 0]
        out[i] = coef * float(np.sum(table[without | bit] - table[without]))
    return out


def shapley_exact(cf: CharacteristicFunction) -> np.ndarray:
    """Shapley value of every player: the weighted marginal-contribution sum
    over all subsets excluding the player."""
    return _shapley_from_table(cf.table(), cf.num_players)


def banzhaf_exact(cf: CharacteristicFunction) -> np.ndarray:
    """Banzhaf value of every player: uniformly weighted marginal contributions."""
    return _banzhaf_from_table(cf.table(), cf.num_players)


def _restricted_tables(cf: CharacteristicFunction, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Payoff tables of the two games where player i is forced present/absent.

    The remaining players are densely reindexed (ids above i shift down one).
    """
    n = cf.num_players
    table = cf.table()
    sub = np.arange(1 << (n - 1), dtype=np.int64)
    embedded = _insert_zero_bit(sub, i)
    return table[embedded | (1 << i)], table[embedded]


def shapley_iv_exact(cf: CharacteristicFunction, i: int, j: int) -> float:
    """Shapley interaction value: j's Shapley value with i always present
    minus j's Shapley value with i always absent."""
    if i == j:
        raise ValueError("interaction requires two distinct players")
    with_i, without_i = _restricted_tables(cf, i)
    j_sub = j if j < i else j - 1
    n = cf.num_players - 1
    return float(
        _shapley_from_table(with_i, n)[j_sub] - _shapley_from_table(without_i, n)[j_sub]
    )


def banzhaf_iv_exact(cf: CharacteristicFunction, i: int, j: int) -> float:
    """Banzhaf interaction value: the four conditional payoff means combined
    as both-in + both-out - i-only - j-only."""
    if i == j:
        raise ValueError("interaction requires two distinct players")
    n = cf.num_players
    table = cf.table()
    a, b = min(i, j), max(i, j)
    sub = np.arange(1 << (n - 2), dtype=np.int64)
    both_out = _insert_zero_bit(_insert_zero_bit(sub, a), b)
    bi, bj = 1 << i, 1 << j
    return float(
        np.mean(table[both_out | bi | bj]) + np.mean(table[both_out])
        - np.mean(table[both_out | bi]) - np.mean(table[both_out | bj])
    )


def exact_attribution(cf: CharacteristicFunction, kind: MetricKind) -> AttributionResult:
    """All singles or all unordered pairs of the requested metric, packed the
    same way as the fast path's results."""
    n = cf.num_players
    if kind is MetricKind.SHAPLEY:
        return AttributionResult(kind, n, singles=shapley_exact(cf))
    if kind is MetricKind.BANZHAF:
        return AttributionResult(kind, n, singles=banzhaf_exact(cf))
    pairs = np.zeros(pair_count(n))
    fn = shapley_iv_exact if kind is MetricKind.SHAPLEY_IV else banzhaf_iv_exact
    for i in range(n):
        for j in range(i + 1, n):
            pairs[pair_index(i, j, n)] = fn(cf, i, j)
    return AttributionResult(kind, n, pairs=pairs)


# ---------------------------------------------------------------------------
# Characteristic functions of tree ensembles

def tree_characteristic(ensemble: TreeEnsemble, consumer_row,
                        background) -> CharacteristicFunction:
    """The background game: participating features take the consumer's values,
    missing ones are substituted from each background row, and predictions
    are averaged over the background."""
    B = as_matrix(background)
    if B.shape[0] == 0:
        raise ModeError("background characteristic function needs at least one row")
    c = np.asarray(consumer_row, dtype=np.float64)
    h = ensemble.num_features

    def evaluator(subset: frozenset) -> float:
        mask = np.zeros(h, dtype=bool)
        if subset:
            mask[list(subset)] = True
        mixed = np.where(mask, c, B)
        return float(np.mean(predict_batch(ensemble, mixed)))

    def table_fn() -> np.ndarray:
        out = np.empty(1 << h, dtype=np.float64)
        m = B.shape[0]
        chunk = max(1, 65536 // max(m, 1))
        for start in range(0, 1 << h, chunk):
            masks = np.arange(start, min(start + chunk, 1 << h), dtype=np.int64)
            member = ((masks[:, None] >> np.arange(h)) & 1).astype(bool)
            # every (mask, background row) combination, mixed and predicted
            mixed = np.where(member[:, None, :], c, B[None, :, :])
            preds = predict_batch(ensemble, mixed.reshape(-1, h))
            out[masks] = preds.reshape(len(masks), m).mean(axis=1)
        return out

    return CharacteristicFunction(evaluator, h, table_fn)


def pd_characteristic(tree: Tree, consumer_row) -> CharacteristicFunction:
    """The path-dependent game for a single tree: missing features branch with
    probability cover(child)/cover(parent) at every split, independently."""
    row = np.asarray(consumer_row, dtype=np.float64)
    n = row.shape[0]

    def _ratios(idx: int) -> tuple[float, float]:
        node = tree.nodes[idx]
        cover = node.cover
        left_cover = tree.nodes[node.left].cover
        right_cover = tree.nodes[node.right].cover
        if cover is None or left_cover is None or right_cover is None or cover <= 0:
            raise ModeError(
                "path-dependent game requires positive covers on every node"
            )
        return left_cover / cover, right_cover / cover

    def evaluator(subset: frozenset) -> float:
        def walk(idx: int) -> float:
            node = tree.nodes[idx]
            if node.is_leaf:
                return node.leaf_weight
            if node.feature in subset:
                return walk(node.left if row[node.feature] < node.threshold
                            else node.right)
            rl, rr = _ratios(idx)
            return rl * walk(node.left) + rr * walk(node.right)

        return walk(tree.root)

    def table_fn() -> np.ndarray:
        masks = np.arange(1 << n, dtype=np.int64)

        def walk(idx: int) -> np.ndarray:
            node = tree.nodes[idx]
            if node.is_leaf:
                return np.full(masks.shape, node.leaf_weight)
            expected_left = walk(node.left)
            expected_right = walk(node.right)
            rl, rr = _ratios(idx)
            followed = expected_left if row[node.feature] < node.threshold \
                else expected_right
            mixed = rl * expected_left + rr * expected_right
            present = (masks >> node.feature & 1) == 1
            return np.where(present, followed, mixed)

        return walk(tree.root)

    return CharacteristicFunction(evaluator, n, table_fn)


def ensemble_pd_characteristic(ensemble: TreeEnsemble, consumer_row) -> CharacteristicFunction:
    """Path-dependent game of a whole ensemble: per-tree games summed, plus
    the constant base offset (which never carries attribution)."""
    per_tree = [pd_characteristic(t, consumer_row) for t in ensemble.trees]

    def evaluator(subset: frozenset) -> float:
        return ensemble.base_offset + sum(cf.evaluator(subset) for cf in per_tree)

    def table_fn() -> np.ndarray:
        total = np.full(1 << ensemble.num_features, ensemble.base_offset)
        for cf in per_tree:
            total = total + cf.table()
        return total

    return CharacteristicFunction(evaluator, ensemble.num_features, table_fn)
