"""Mapping (consumer pattern, baseline pattern) pairs to cubes, per path.

For one root-to-leaf path, every reachable pattern pair maps to the cube over
path features that is satisfied exactly by the participation sets steering a
mixed consumer/baseline row to that leaf.

A path that splits on a feature more than once still has one literal for it:
a row stays on the path only if the source it takes that feature from (the
consumer or the baseline) agrees with every split on it. So a leaf's
positional patterns collapse onto its u unique features, one agreement bit
each, and a single dictionary over variables 0..u-1 serves every leaf with u
unique path features; variable j stands for the j-th distinct feature along
the path. No cube of such a dictionary is contradictory.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .formula_core import Cube


@dataclass(frozen=True)
class CubeDictionary:
    """Sparse map from (consumer pattern, baseline pattern) to a unit cube.

    Holds exactly 3^depth entries: each path level turns one entry into the
    three reachable child keys (consumer-only, baseline-only, both), and the
    both-miss key is never inserted. Cube weights stay 1; the leaf weight is
    applied downstream so dictionaries can be shared across leaves. Built over
    distinct features, as the pipeline does, no entry is contradictory.
    """

    path_features: tuple[int, ...]
    entries: dict[tuple[int, int], Cube]

    @property
    def depth(self) -> int:
        return len(self.path_features)


def map_patterns_to_cube(path_features: Sequence[int]) -> CubeDictionary:
    """Build the pattern-pair dictionary for a path's feature sequence.

    Starting from {(0, 0): empty cube}, each feature f triples the entries:
    key (2pc+1, 2pb) adds f positively (consumer must participate to stay on
    the path), (2pc, 2pb+1) adds f negated (f must be missing), and
    (2pc+1, 2pb+1) copies the cube (the row stays on the path either way).
    """
    path_features = tuple(int(f) for f in path_features)
    entries: dict[tuple[int, int], tuple[tuple[int, ...], tuple[int, ...]]] = {
        (0, 0): ((), ())
    }
    for f in path_features:
        grown: dict[tuple[int, int], tuple[tuple[int, ...], tuple[int, ...]]] = {}
        for (pc, pb), (pos, neg) in entries.items():
            grown[(2 * pc + 1, 2 * pb)] = (pos + (f,), neg)
            grown[(2 * pc, 2 * pb + 1)] = (pos, neg + (f,))
            grown[(2 * pc + 1, 2 * pb + 1)] = (pos, neg)
        entries = grown
    cubes = {key: Cube(pos, neg, 1.0) for key, (pos, neg) in entries.items()}
    return CubeDictionary(path_features, cubes)


def canonical_path(path_features: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Rewrite a feature sequence as first-occurrence ordinals plus a rename.

    Two paths share a canonical form iff they have the same length and repeat
    structure; ``rename[ordinal]`` recovers the original feature id, and
    ``len(rename)`` is the number of unique features.
    """
    ordinal_of: dict[int, int] = {}
    canon = []
    for f in path_features:
        canon.append(ordinal_of.setdefault(int(f), len(ordinal_of)))
    rename = tuple(ordinal_of)
    return tuple(canon), rename


def collapse_map(canon: Sequence[int]) -> np.ndarray | None:
    """Map every positional pattern of a path to its unique-feature pattern.

    ``canon`` holds each path position's ordinal (see ``canonical_path``).
    Unique bit j, placed most-significant-first among u bits, is the AND of
    the positional bits whose ordinal is j. Returns None when no feature
    repeats, where the map is the identity.
    """
    depth, u = len(canon), len(set(canon))
    if u == depth:
        return None
    patterns = np.arange(1 << depth)
    out = np.zeros(1 << depth, dtype=np.intp)
    for j in range(u):
        mask = sum(1 << (depth - 1 - i) for i, o in enumerate(canon) if o == j)
        out |= ((patterns & mask) == mask).astype(np.intp) << (u - 1 - j)
    return out


class CachedDictionary(NamedTuple):
    dictionary: CubeDictionary       # over variables 0..u-1
    rename: tuple[int, ...]          # variable j -> j-th unique path feature
    collapse: np.ndarray | None      # positional -> unique pattern; None: identity


class DictionaryCache:
    """Per-run cache of one dictionary per unique-feature count u, and of one
    collapse map per repeat structure.

    Unbounded by design: a model of depth d needs at most d + 1
    dictionaries and at most one collapse map per leaf. Inserts are
    serialized; completed entries are read without locking.
    """

    def __init__(self) -> None:
        self._dicts: dict[int, CubeDictionary] = {}
        self._collapse: dict[tuple[int, ...], np.ndarray | None] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._dicts)

    def get(self, path_features: Sequence[int]) -> CachedDictionary:
        canon, rename = canonical_path(path_features)
        u = len(rename)
        if u not in self._dicts or canon not in self._collapse:
            with self._lock:
                if u not in self._dicts:
                    self._dicts[u] = map_patterns_to_cube(tuple(range(u)))
                if canon not in self._collapse:
                    self._collapse[canon] = collapse_map(canon)
        return CachedDictionary(self._dicts[u], rename, self._collapse[canon])
