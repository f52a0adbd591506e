"""Per-cube attribution shares, and the packed layout of attribution values.

Every (leaf, consumer, baseline) triple of a tree ensemble reduces to one
weighted cube: a conjunction of literals over the features, worth the leaf's
weight when it holds. Treating features as players, each cube contributes a
closed-form Shapley or Banzhaf share, or pairwise interaction share, to
exactly the variables it mentions (``cube_shapley``, ``cube_banzhaf``,
``cube_shapley_iv``, ``cube_banzhaf_iv``); the pipeline in ``engine`` sums
them into its contribution matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np


class MetricKind(Enum):
    SHAPLEY = "shapley"
    BANZHAF = "banzhaf"
    SHAPLEY_IV = "shapley-iv"
    BANZHAF_IV = "banzhaf-iv"

    @property
    def pairwise(self) -> bool:
        return self in (MetricKind.SHAPLEY_IV, MetricKind.BANZHAF_IV)


def _ordered_unique(ids: Iterable[int]) -> tuple[int, ...]:
    seen: set[int] = set()
    out: list[int] = []
    for v in ids:
        v = int(v)
        if v not in seen:
            seen.add(v)
            out.append(v)
    return tuple(out)


@dataclass(frozen=True)
class Cube:
    """One weighted term: positive variable ids, negated variable ids, weight.

    Duplicate ids within a polarity collapse to one occurrence (the signed
    sets are sets). A cube mentioning some variable in both polarities is
    contradictory: identically false, so it carries no attribution.
    """

    positive: tuple[int, ...]
    negative: tuple[int, ...]
    weight: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "positive", _ordered_unique(self.positive))
        object.__setattr__(self, "negative", _ordered_unique(self.negative))
        object.__setattr__(self, "weight", float(self.weight))

    @property
    def contradictory(self) -> bool:
        return bool(set(self.positive) & set(self.negative))

    @property
    def size(self) -> int:
        """Number of distinct variables mentioned (|S|)."""
        return len(self.positive) + len(self.negative)


def binomial(n: int, k: int) -> float:
    """Binomial coefficient via the multiplicative recurrence, in floats.

    Cube sizes are bounded by the tree depth cap, so the product stays well
    inside double precision.
    """
    if k < 0 or k > n:
        return 0.0
    k = min(k, n - k)
    out = 1.0
    for t in range(1, k + 1):
        out = out * (n - k + t) / t
    return out


def cube_shapley(cube: Cube) -> list[tuple[int, float]]:
    """Per-variable Shapley contributions of one weighted cube.

    Members of the positive set share ``w / (|S+| * C(|S|, |S+|))`` each,
    members of the negative set ``-w / (|S-| * C(|S|, |S-|))``. The two
    fractions are computed once per cube and reused.
    """
    if cube.contradictory or cube.size == 0:
        return []
    s = cube.size
    out: list[tuple[int, float]] = []
    p = len(cube.positive)
    if p:
        share = cube.weight / (p * binomial(s, p))
        out.extend((i, share) for i in cube.positive)
    q = len(cube.negative)
    if q:
        share = -cube.weight / (q * binomial(s, q))
        out.extend((i, share) for i in cube.negative)
    return out


def cube_banzhaf(cube: Cube) -> list[tuple[int, float]]:
    """Per-variable Banzhaf contributions: ``+-w / 2^(|S|-1)`` by polarity."""
    if cube.contradictory or cube.size == 0:
        return []
    share = cube.weight / 2.0 ** (cube.size - 1)
    out = [(i, share) for i in cube.positive]
    out.extend((i, -share) for i in cube.negative)
    return out


def cube_shapley_iv(cube: Cube) -> list[tuple[tuple[int, int], float]]:
    """Per-pair Shapley interaction contributions of one weighted cube.

    For each unordered pair inside the cube's variable set, the cell value
    depends only on the pair's polarities. The mixed-polarity cell evaluates
    identically under either ordering of the pair (``p*C(s-1,p) == q*C(s-1,q)``
    when ``p+q == s``), so unordered storage is lossless.
    """
    if cube.contradictory or cube.size < 2:
        return []
    w, s = cube.weight, cube.size
    pos, neg = cube.positive, cube.negative
    p, q = len(pos), len(neg)
    out: list[tuple[tuple[int, int], float]] = []
    if p >= 2:
        both_pos = w / ((p - 1) * binomial(s - 1, p - 1))
        out.extend(
            ((min(a, b), max(a, b)), both_pos)
            for idx, a in enumerate(pos) for b in pos[idx + 1:]
        )
    if q >= 2:
        both_neg = w / ((q - 1) * binomial(s - 1, q - 1))
        out.extend(
            ((min(a, b), max(a, b)), both_neg)
            for idx, a in enumerate(neg) for b in neg[idx + 1:]
        )
    if p and q:
        mixed = -w / (q * binomial(s - 1, q))
        out.extend(((min(a, b), max(a, b)), mixed) for a in pos for b in neg)
    return out


def cube_banzhaf_iv(cube: Cube) -> list[tuple[tuple[int, int], float]]:
    """Per-pair Banzhaf interaction contributions: ``+-w / 2^(|S|-2)``."""
    if cube.contradictory or cube.size < 2:
        return []
    base = cube.weight / 2.0 ** (cube.size - 2)
    pos, neg = cube.positive, cube.negative
    out: list[tuple[tuple[int, int], float]] = []
    out.extend(
        ((min(a, b), max(a, b)), base)
        for idx, a in enumerate(pos) for b in pos[idx + 1:]
    )
    out.extend(
        ((min(a, b), max(a, b)), base)
        for idx, a in enumerate(neg) for b in neg[idx + 1:]
    )
    out.extend(((min(a, b), max(a, b)), -base) for a in pos for b in neg)
    return out


def pair_count(num_vars: int) -> int:
    return num_vars * (num_vars - 1) // 2


def pair_index(i: int, j: int, num_vars: int) -> int:
    """Position of unordered pair (i, j) in the packed upper-triangular layout."""
    if i == j:
        raise ValueError("interaction pairs must have distinct variables")
    if i > j:
        i, j = j, i
    return i * num_vars - i * (i + 1) // 2 + (j - i - 1)


@dataclass(frozen=True)
class AttributionResult:
    """Attribution values for one game: per-variable and/or per-pair.

    ``singles`` is a dense array of length ``num_vars``; ``pairs`` is the
    strictly-upper-triangular packing of the symmetric pair matrix. Variables
    absent from every cube sit at exactly 0.
    """

    metric: MetricKind
    num_vars: int
    singles: np.ndarray | None = None
    pairs: np.ndarray | None = None

    @property
    def values(self) -> np.ndarray:
        """``singles`` for a single-variable metric, else ``pairs``."""
        return self.singles if self.singles is not None else self.pairs

    def pair(self, i: int, j: int) -> float:
        return float(self.pairs[pair_index(i, j, self.num_vars)])
