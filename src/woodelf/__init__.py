"""Shapley and Banzhaf attribution for decision-tree ensembles.

Each (leaf, consumer, baseline) triple reduces to a weighted Boolean cube;
closed-form per-cube shares then yield exact Shapley values, Banzhaf values,
and their pairwise interaction values, under background, single-baseline,
and path-dependent (cover-driven) characteristic functions.
"""

from .engine import (
    BatchAttribution,
    background_frequencies,
    build_contribution_matrices,
    build_score_vectors,
    path_dependent_frequencies,
    stack_subsets,
    woodelf,
)
from .errors import (
    DataError,
    DimensionError,
    ModeError,
    ModelSchemaError,
    NodeKindError,
    VerificationError,
    WoodelfError,
)
from .formula_core import AttributionResult, Cube, MetricKind, pair_count, pair_index
from .tree_model import (
    DataMatrix,
    Tree,
    TreeEnsemble,
    TreeNode,
    load_data,
    load_model,
    predict,
    predict_batch,
    save_model,
    split,
)

__version__ = "0.1.0"

__all__ = [
    "AttributionResult", "BatchAttribution", "Cube", "DataMatrix", "MetricKind",
    "Tree", "TreeEnsemble", "TreeNode", "background_frequencies",
    "build_contribution_matrices", "build_score_vectors", "load_data",
    "load_model", "pair_count", "pair_index", "path_dependent_frequencies",
    "predict", "predict_batch", "save_model", "split", "stack_subsets",
    "woodelf",
    "DataError", "DimensionError", "ModeError", "ModelSchemaError",
    "NodeKindError", "VerificationError", "WoodelfError",
]
