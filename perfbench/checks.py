"""Correctness checks on the program's outputs, run outside the timed calls.

Every check returns a boolean mask over consumer rows (True = the row
failed), so the benchmark can count failed rows against attempted ones.
The tolerance is the repository's own ``ORACLE_TOLERANCE``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def tolerance() -> float:
    from woodelf import cli
    # 1e-9 is the value the repository defines; never looser.
    return min(getattr(cli, "ORACLE_TOLERANCE", 1e-9), 1e-9)


def sample_rows(n: int, k: int, seed: int) -> list[int]:
    """A fixed sample of ``k`` row indices for ``seed``."""
    rng = np.random.default_rng([seed, 0x0AC1E])
    return sorted(rng.choice(n, size=min(k, n), replace=False).tolist())


def efficiency_totals(ensemble, consumers, background) -> np.ndarray:
    """What each row's Shapley values must sum to: the prediction minus the
    mean background prediction, or minus the cover-weighted expectation in
    path-dependent mode."""
    from woodelf import oracle, predict_batch
    prediction = predict_batch(ensemble, consumers)
    if background is not None:
        return prediction - predict_batch(ensemble, background).mean()
    empty = oracle.ensemble_pd_characteristic(ensemble, consumers[0]).value([])
    return prediction - empty


def efficiency_failures(values: np.ndarray, totals: np.ndarray, tol: float) -> np.ndarray:
    return ~(np.abs(values.sum(axis=1) - totals) <= tol)


def oracle_failures(ensemble, consumers, background, metric: str,
                    values: np.ndarray, rows: list[int], tol: float) -> np.ndarray:
    """Rows of the sample whose values differ from ``oracle.exact_attribution``."""
    from woodelf import MetricKind, oracle
    kind = MetricKind(metric)
    failed = np.zeros(values.shape[0], dtype=bool)
    for r in rows:
        if background is not None:
            cf = oracle.tree_characteristic(ensemble, consumers[r], background)
        else:
            cf = oracle.ensemble_pd_characteristic(ensemble, consumers[r])
        exact = oracle.exact_attribution(cf, kind)
        reference = exact.singles if exact.singles is not None else exact.pairs
        failed[r] = not np.all(np.abs(values[r] - reference) <= tol)
    return failed


def bitwise_differences(values: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Rows whose float64 bit patterns differ from the reference's."""
    a = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    b = np.ascontiguousarray(reference, dtype=np.float64).view(np.uint64)
    return (a != b).any(axis=1)


def read_pair_csv(path: Path, names, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Parse the CLI's pairwise CSV back into a (rows, pairs) array.

    Returns the values and a mask of rows whose lines are missing or
    malformed (their values are NaN).
    """
    pairs = [(names[i], names[j]) for i in range(len(names))
             for j in range(i + 1, len(names))]
    width = len(pairs)
    values = np.full((rows, width), np.nan)
    bad = np.zeros(rows, dtype=bool)
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != "row_id,feature_i,feature_j,value" \
            or len(lines) != 1 + rows * width:
        bad[:] = True
        return values, bad
    flat = values.reshape(-1)
    k = 0
    for r in range(rows):
        for a, b in pairs:
            head, _, cell = lines[1 + k].rpartition(",")
            try:
                if head != f"{r},{a},{b}":
                    raise ValueError(head)
                flat[k] = float(cell)
            except ValueError:
                bad[r] = True
            k += 1
    return values, bad
