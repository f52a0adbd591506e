"""Random trees, ensembles and data for tests, benchmarks, and self-checks.

Everything is driven by an explicit numpy Generator so runs are reproducible.
"""

from __future__ import annotations

import numpy as np

from .tree_model import Tree, TreeEnsemble, TreeNode, inner, leaf


def random_tree(rng: np.random.Generator, num_features: int, max_depth: int,
                with_covers: bool = True, full: bool = False) -> Tree:
    """A random binary tree; splits get random features (repeats allowed) and
    thresholds in [0, 1). Covers split the parent's mass so monotonicity and
    positivity hold by construction."""
    nodes: list[TreeNode] = []

    def grow(depth: int, cover: float) -> int:
        make_leaf = depth >= max_depth or (not full and rng.random() < 0.3 and depth > 0)
        slot = len(nodes)
        nodes.append(TreeNode())  # placeholder
        if make_leaf:
            nodes[slot] = leaf(float(rng.normal()), cover if with_covers else None)
            return slot
        frac = float(rng.uniform(0.15, 0.85))
        left_slot = grow(depth + 1, cover * frac)
        right_slot = grow(depth + 1, cover * (1.0 - frac))
        nodes[slot] = inner(int(rng.integers(0, num_features)),
                            float(rng.uniform(0.0, 1.0)),
                            left_slot, right_slot,
                            cover if with_covers else None)
        return slot

    grow(0, float(rng.uniform(100.0, 1000.0)))
    return Tree(tuple(nodes), 0)


def random_ensemble(rng: np.random.Generator, num_trees: int, num_features: int,
                    max_depth: int, with_covers: bool = True,
                    base_offset: float | None = None,
                    full: bool = False) -> TreeEnsemble:
    trees = tuple(
        random_tree(rng, num_features, max_depth, with_covers, full)
        for _ in range(num_trees)
    )
    if base_offset is None:
        base_offset = float(rng.normal())
    return TreeEnsemble(trees, num_features, base_offset=base_offset)


def random_data(rng: np.random.Generator, rows: int, num_features: int) -> np.ndarray:
    """Rows in [0, 1), matching the threshold range of random trees."""
    return rng.random((rows, num_features))
