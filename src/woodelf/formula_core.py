"""Weighted DNF/CNF pseudo-Boolean formulas and their game-theoretic attribution.

A formula is a weighted sum of cubes (conjunctions of literals) or clauses
(disjunctions of literals) over Boolean variables 0..h-1, plus a constant
offset. Treating variables as players and the formula value as the game's
payoff, Shapley and Banzhaf values and their pairwise interaction values are
computed in a single pass over the cube list: each cube contributes a closed
form share to exactly the variables it mentions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionError, FormError


class Form(Enum):
    """Whether the weighted terms are conjunctions (WDNF) or disjunctions (WCNF)."""

    WDNF = "wdnf"
    WCNF = "wcnf"


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
    contradictory: identically false as a conjunction, identically true as a
    clause. Contradictory cubes are flagged and stripped by ``preprocess``.
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

    def variables(self) -> tuple[int, ...]:
        return self.positive + self.negative

    def scaled(self, factor: float) -> "Cube":
        return Cube(self.positive, self.negative, self.weight * factor)


@dataclass(frozen=True)
class WeightedFormula:
    """A weighted sum of cubes (WDNF) or clauses (WCNF) plus a constant offset."""

    cubes: tuple[Cube, ...]
    num_vars: int
    form: Form = Form.WDNF
    offset: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "cubes", tuple(self.cubes))
        object.__setattr__(self, "num_vars", int(self.num_vars))
        object.__setattr__(self, "offset", float(self.offset))
        for cube in self.cubes:
            for v in cube.variables():
                if not 0 <= v < self.num_vars:
                    raise DimensionError(
                        f"variable id {v} out of range for num_vars={self.num_vars}"
                    )

    @classmethod
    def wdnf(cls, cubes: Iterable[Cube], num_vars: int | None = None,
             offset: float = 0.0) -> "WeightedFormula":
        return cls._build(cubes, num_vars, Form.WDNF, offset)

    @classmethod
    def wcnf(cls, cubes: Iterable[Cube], num_vars: int | None = None,
             offset: float = 0.0) -> "WeightedFormula":
        return cls._build(cubes, num_vars, Form.WCNF, offset)

    @classmethod
    def _build(cls, cubes, num_vars, form, offset):
        cubes = tuple(cubes)
        if num_vars is None:
            num_vars = 1 + max((max(c.variables()) for c in cubes if c.size), default=-1)
        return cls(cubes, num_vars, form, offset)


def preprocess(formula: WeightedFormula) -> WeightedFormula:
    """Strip contradictory terms.

    As conjunctions they are identically false and simply dropped; as clauses
    they are identically true, so their weights move into the constant offset.
    Constant terms never carry attribution, so metrics are unchanged.
    """
    kept = tuple(c for c in formula.cubes if not c.contradictory)
    offset = formula.offset
    if formula.form is Form.WCNF:
        offset += sum(c.weight for c in formula.cubes if c.contradictory)
    return replace(formula, cubes=kept, offset=offset)


def evaluate(formula: WeightedFormula, assignment: Sequence[int]) -> float:
    """Evaluate the formula on a 0/1 assignment of length ``num_vars``."""
    x = np.asarray(assignment)
    if x.ndim != 1 or x.shape[0] != formula.num_vars:
        raise DimensionError(
            f"assignment has length {x.shape[0] if x.ndim == 1 else x.shape}, "
            f"expected {formula.num_vars}"
        )
    total = formula.offset
    conjunctive = formula.form is Form.WDNF
    for cube in formula.cubes:
        if conjunctive:
            sat = all(x[i] for i in cube.positive) and not any(x[i] for i in cube.negative)
        else:
            sat = any(x[i] for i in cube.positive) or not all(x[i] for i in cube.negative)
        if sat:
            total += cube.weight
    return float(total)


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

    def single(self, i: int) -> float:
        return float(self.singles[i])

    def pair(self, i: int, j: int) -> float:
        return float(self.pairs[pair_index(i, j, self.num_vars)])

    def singles_map(self) -> dict[int, float]:
        return {i: float(v) for i, v in enumerate(self.singles)}

    def pairs_map(self) -> dict[tuple[int, int], float]:
        h = self.num_vars
        return {
            (i, j): float(self.pairs[pair_index(i, j, h)])
            for i in range(h) for j in range(i + 1, h)
        }

    def pairs_matrix(self) -> np.ndarray:
        """Expand the packed pairs into the full symmetric matrix (zero diagonal)."""
        h = self.num_vars
        out = np.zeros((h, h))
        iu = np.triu_indices(h, k=1)
        out[iu] = self.pairs
        out[(iu[1], iu[0])] = self.pairs
        return out


def _skip_contradictory(formula: WeightedFormula) -> Iterable[Cube]:
    # Equivalent to running preprocess first: contradictory terms never carry
    # attribution and the WCNF offset is metric-neutral.
    return (c for c in formula.cubes if not c.contradictory)


def shapley(formula: WeightedFormula) -> AttributionResult:
    """Shapley value of every variable, linear in total formula length.

    The same per-cube shares apply verbatim to clauses: rewriting a weighted
    clause as a constant plus a negated cube flips both the weight sign and
    the polarities, and the two flips cancel.
    """
    singles = np.zeros(formula.num_vars)
    for cube in _skip_contradictory(formula):
        for i, v in cube_shapley(cube):
            singles[i] += v
    return AttributionResult(MetricKind.SHAPLEY, formula.num_vars, singles=singles)


def banzhaf(formula: WeightedFormula) -> AttributionResult:
    """Banzhaf value of every variable; clause input needs no adjustment."""
    singles = np.zeros(formula.num_vars)
    for cube in _skip_contradictory(formula):
        for i, v in cube_banzhaf(cube):
            singles[i] += v
    return AttributionResult(MetricKind.BANZHAF, formula.num_vars, singles=singles)


def shapley_iv(formula: WeightedFormula) -> AttributionResult:
    """Shapley interaction value of every unordered variable pair.

    Clause input flips the sign of every cell: rewriting a clause as a
    negated cube swaps polarities and negates the weight, and same-polarity
    cells keep their sign under the polarity swap, so the weight negation
    survives (unlike the single-variable case, where the two flips cancel).
    """
    sign = -1.0 if formula.form is Form.WCNF else 1.0
    h = formula.num_vars
    pairs = np.zeros(pair_count(h))
    for cube in _skip_contradictory(formula):
        for (i, j), v in cube_shapley_iv(cube):
            pairs[pair_index(i, j, h)] += sign * v
    return AttributionResult(MetricKind.SHAPLEY_IV, h, pairs=pairs)


def banzhaf_iv(formula: WeightedFormula) -> AttributionResult:
    """Banzhaf interaction value of every unordered variable pair."""
    sign = -1.0 if formula.form is Form.WCNF else 1.0
    h = formula.num_vars
    pairs = np.zeros(pair_count(h))
    for cube in _skip_contradictory(formula):
        for (i, j), v in cube_banzhaf_iv(cube):
            pairs[pair_index(i, j, h)] += sign * v
    return AttributionResult(MetricKind.BANZHAF_IV, h, pairs=pairs)


# The formula attribution of each metric kind.
FORMULA_METRICS = {
    MetricKind.SHAPLEY: shapley,
    MetricKind.BANZHAF: banzhaf,
    MetricKind.SHAPLEY_IV: shapley_iv,
    MetricKind.BANZHAF_IV: banzhaf_iv,
}


def wcnf_to_wdnf(formula: WeightedFormula) -> WeightedFormula:
    """Rewrite a sum of weighted clauses as an equivalent sum of weighted cubes.

    Each weighted clause ``w * psi`` becomes the constant ``w`` plus the cube
    ``-w * not(psi)`` with literal polarities flipped, so the result evaluates
    identically on every assignment. Constants accumulate in the offset.
    """
    if formula.form is not Form.WCNF:
        raise FormError("wcnf_to_wdnf expects a WCNF formula")
    offset = formula.offset
    cubes = []
    for clause in formula.cubes:
        offset += clause.weight
        cubes.append(Cube(clause.negative, clause.positive, -clause.weight))
    return WeightedFormula(tuple(cubes), formula.num_vars, Form.WDNF, offset)
