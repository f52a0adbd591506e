"""Shapley and Banzhaf attribution for decision-tree ensembles.

Each (leaf, consumer, baseline) triple reduces to a weighted Boolean cube;
closed-form per-cube formulas then yield Shapley values, Banzhaf values, and
their pairwise interaction values in time linear in formula length, under
background, single-baseline, and path-dependent (cover-driven)
characteristic functions.
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
    FormError,
    ModeError,
    ModelSchemaError,
    NodeKindError,
    VerificationError,
    WoodelfError,
)
from .formula_core import (
    AttributionResult,
    Cube,
    Form,
    MetricKind,
    WeightedFormula,
    banzhaf,
    banzhaf_iv,
    evaluate,
    pair_count,
    pair_index,
    preprocess,
    shapley,
    shapley_iv,
    wcnf_to_wdnf,
)
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
    "AttributionResult", "BatchAttribution", "Cube", "DataMatrix", "Form",
    "MetricKind", "Tree", "TreeEnsemble", "TreeNode", "WeightedFormula",
    "background_frequencies", "banzhaf", "banzhaf_iv",
    "build_contribution_matrices", "build_score_vectors", "evaluate",
    "load_data", "load_model", "pair_count", "pair_index",
    "path_dependent_frequencies", "predict", "predict_batch", "preprocess",
    "save_model", "shapley", "shapley_iv", "split", "stack_subsets",
    "wcnf_to_wdnf", "woodelf",
    "DataError", "DimensionError", "FormError", "ModeError",
    "ModelSchemaError", "NodeKindError", "VerificationError", "WoodelfError",
]
