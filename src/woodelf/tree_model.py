"""Decision-tree ensembles: arena-based trees, model dump ingestion, data loading.

Split semantics are fixed to strict ``value < threshold`` with "condition true
goes left". Importers from formats with other conventions must normalize at
load time. Missing feature values are rejected outright: no default-direction
routing is defined here, because any such rule would silently change
attributions.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError, DimensionError, ModelSchemaError, NodeKindError

DEFAULT_DEPTH_CAP = 16
HARD_DEPTH_CAP = 30


@dataclass(frozen=True)
class TreeNode:
    """One arena slot: an inner split node or a leaf.

    Inner nodes carry feature/threshold/left/right; leaves carry leaf_weight.
    ``cover`` is the (possibly Hessian-weighted, hence real-valued) count of
    training rows that reached the node; it may be absent when the source
    dump does not record it.
    """

    feature: int | None = None
    threshold: float | None = None
    left: int | None = None
    right: int | None = None
    leaf_weight: float | None = None
    cover: float | None = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


def leaf(weight: float, cover: float | None = None) -> TreeNode:
    return TreeNode(leaf_weight=float(weight), cover=cover)


def inner(feature: int, threshold: float, left: int, right: int,
          cover: float | None = None) -> TreeNode:
    return TreeNode(feature=int(feature), threshold=float(threshold),
                    left=int(left), right=int(right), cover=cover)


@dataclass(frozen=True)
class Tree:
    """A rooted binary tree stored as a node arena plus a root index."""

    nodes: tuple[TreeNode, ...]
    root: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))

    def bfs_order(self) -> list[int]:
        order = [self.root]
        i = 0
        while i < len(order):
            node = self.nodes[order[i]]
            i += 1
            if not node.is_leaf:
                order.append(node.left)
                order.append(node.right)
        return order

    def leaf_indices(self) -> list[int]:
        """Leaves in BFS order; this order fixes downstream accumulation."""
        return [i for i in self.bfs_order() if self.nodes[i].is_leaf]

    def parent_map(self) -> dict[int, int]:
        parents: dict[int, int] = {}
        for i in self.bfs_order():
            node = self.nodes[i]
            if not node.is_leaf:
                parents[node.left] = i
                parents[node.right] = i
        return parents

    def path_to(self, leaf_index: int) -> list[int]:
        """Node indices from the root down to (and including) the leaf."""
        parents = self.parent_map()
        path = [leaf_index]
        while path[-1] != self.root:
            path.append(parents[path[-1]])
        path.reverse()
        return path

    def path_features(self, leaf_index: int) -> tuple[int, ...]:
        """Features of the split nodes along the root-to-leaf path, in order."""
        return tuple(self.nodes[i].feature for i in self.path_to(leaf_index)[:-1])

    def depth(self) -> int:
        """Maximum number of split nodes along any root-to-leaf path."""
        best = 0
        stack = [(self.root, 0)]
        while stack:
            idx, d = stack.pop()
            node = self.nodes[idx]
            if node.is_leaf:
                best = max(best, d)
            else:
                stack.append((node.left, d + 1))
                stack.append((node.right, d + 1))
        return best


@dataclass(frozen=True)
class TreeEnsemble:
    """A list of trees, feature metadata, and a constant base offset.

    The base offset is added to every prediction and carries zero attribution
    (constants have no players).
    """

    trees: tuple[Tree, ...]
    num_features: int
    feature_names: tuple[str, ...] = ()
    base_offset: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "trees", tuple(self.trees))
        names = tuple(self.feature_names) or tuple(
            f"f{i}" for i in range(self.num_features)
        )
        object.__setattr__(self, "feature_names", names)
        if len(names) != self.num_features:
            raise ModelSchemaError(
                f"{len(names)} feature names for {self.num_features} features"
            )
        if len(set(names)) < len(names):
            repeated = next(n for i, n in enumerate(names) if n in names[:i])
            raise ModelSchemaError(f"feature name {repeated!r} is given twice")

    def max_depth(self) -> int:
        return max((t.depth() for t in self.trees), default=0)

    def has_covers(self) -> bool:
        return all(
            node.cover is not None for tree in self.trees for node in tree.nodes
        )


def validate_ensemble(ensemble: TreeEnsemble, depth_cap: int = DEFAULT_DEPTH_CAP,
                      require_covers: bool = False) -> TreeEnsemble:
    """Check structural invariants, raising ModelSchemaError with a location.

    Verifies: at least one tree, child indices in range, every arena node
    reachable exactly once from the root, feature ids below num_features,
    depth within the cap, finite thresholds, leaf weights and covers, and
    cover positivity plus parent >= child monotonicity where covers are given.
    """
    if not 0 < depth_cap <= HARD_DEPTH_CAP:
        raise ModelSchemaError(
            f"depth cap must be in 1..{HARD_DEPTH_CAP}, got {depth_cap}"
        )
    if not ensemble.trees:
        raise ModelSchemaError("ensemble has no trees")
    for t, tree in enumerate(ensemble.trees):
        n = len(tree.nodes)
        if not 0 <= tree.root < n:
            raise ModelSchemaError(f"tree {t}: root index {tree.root} out of range")
        seen = set()
        stack = [(tree.root, 0)]
        while stack:
            idx, depth = stack.pop()
            if idx in seen:
                raise ModelSchemaError(f"tree {t}: node {idx} reachable twice (cycle or shared child)")
            seen.add(idx)
            node = tree.nodes[idx]
            if node.cover is not None and not math.isfinite(node.cover):
                raise ModelSchemaError(f"tree {t}: node {idx} has a non-finite cover")
            if require_covers and (node.cover is None or node.cover <= 0):
                raise ModelSchemaError(f"tree {t}: node {idx} lacks a positive cover "
                                       "(required for path-dependent mode)")
            if node.is_leaf:
                if node.leaf_weight is None or not math.isfinite(node.leaf_weight):
                    raise ModelSchemaError(f"tree {t}: leaf {idx} has no finite weight")
                continue
            if depth + 1 > depth_cap:
                raise ModelSchemaError(
                    f"tree {t}: depth exceeds cap {depth_cap} at node {idx}"
                )
            if not 0 <= node.feature < ensemble.num_features:
                raise ModelSchemaError(
                    f"tree {t}: node {idx} splits on feature {node.feature}, "
                    f"but the ensemble has {ensemble.num_features} features"
                )
            if node.threshold is None or not math.isfinite(node.threshold):
                raise ModelSchemaError(f"tree {t}: node {idx} has no finite threshold")
            for child in (node.left, node.right):
                if child is None or not 0 <= child < n:
                    raise ModelSchemaError(f"tree {t}: node {idx} has bad child index {child}")
                child_node = tree.nodes[child]
                if node.cover is not None and child_node.cover is not None:
                    if child_node.cover > node.cover:
                        raise ModelSchemaError(
                            f"tree {t}: cover of node {child} exceeds its parent {idx}"
                        )
                stack.append((child, depth + 1))
        if len(seen) != n:
            raise ModelSchemaError(
                f"tree {t}: {n - len(seen)} arena nodes unreachable from the root"
            )
    return ensemble


@dataclass(frozen=True)
class DataMatrix:
    """A dense numeric table with columns already in feature-id order."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2:
            raise DimensionError(f"data must be 2-dimensional, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise DataError("data contains NaN or infinite cells")
        object.__setattr__(self, "values", arr)

    @property
    def num_rows(self) -> int:
        return self.values.shape[0]

    @property
    def num_features(self) -> int:
        return self.values.shape[1]


def as_matrix(data) -> np.ndarray:
    if isinstance(data, DataMatrix):
        return data.values
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError(f"data must be 2-dimensional, got shape {arr.shape}")
    return arr


def split(node: TreeNode, row: Sequence[float]) -> bool:
    """True iff the row takes the left branch: row[feature] < threshold, strict."""
    if node.is_leaf:
        raise NodeKindError("split() requires an inner node, got a leaf")
    return bool(row[node.feature] < node.threshold)


def predict_tree(tree: Tree, row: Sequence[float]) -> float:
    idx = tree.root
    while not tree.nodes[idx].is_leaf:
        node = tree.nodes[idx]
        idx = node.left if split(node, row) else node.right
    return tree.nodes[idx].leaf_weight


def predict(ensemble: TreeEnsemble, row: Sequence[float]) -> float:
    """Base offset plus the sum of the leaf weights reached in every tree."""
    r = np.asarray(row, dtype=np.float64)
    if r.ndim != 1 or r.shape[0] != ensemble.num_features:
        raise DimensionError(
            f"row has length {r.size}, expected {ensemble.num_features}"
        )
    return ensemble.base_offset + sum(predict_tree(t, r) for t in ensemble.trees)


def predict_batch(ensemble: TreeEnsemble, data) -> np.ndarray:
    """Vectorized prediction over a data matrix; rows are routed in partitions."""
    X = as_matrix(data)
    if X.shape[1] != ensemble.num_features:
        raise DimensionError(
            f"data has {X.shape[1]} columns, expected {ensemble.num_features}"
        )
    out = np.full(X.shape[0], ensemble.base_offset, dtype=np.float64)
    for tree in ensemble.trees:
        stack = [(tree.root, np.arange(X.shape[0]))]
        while stack:
            idx, rows = stack.pop()
            if rows.size == 0:
                continue
            node = tree.nodes[idx]
            if node.is_leaf:
                out[rows] += node.leaf_weight
            else:
                goes_left = X[rows, node.feature] < node.threshold
                stack.append((node.left, rows[goes_left]))
                stack.append((node.right, rows[~goes_left]))
    return out


# ---------------------------------------------------------------------------
# Model ingestion

def load_model(path: str, format: str = "native",
               depth_cap: int = DEFAULT_DEPTH_CAP,
               feature_names: Sequence[str] | None = None) -> TreeEnsemble:
    """Load and validate an ensemble from a JSON model dump.

    ``format`` is ``native``, this package's own schema, or ``xgb``, the
    per-tree JSON emitted by boosted-tree dumps (``f<k>`` feature references,
    ``split_condition`` thresholds, optional ``cover`` stats); any other name
    raises ``ModelSchemaError``. The booster dump's ``yes`` branch tests
    strict ``<`` and is normalized to "left".
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ModelSchemaError(f"cannot read model {path}: {exc}") from exc
    if format == "native":
        ensemble = _parse_native(text)
    elif format == "xgb":
        ensemble = _parse_xgboost_dump(text, feature_names)
    else:
        raise ModelSchemaError(f"unknown model format {format!r}")
    return validate_ensemble(ensemble, depth_cap=depth_cap)


def save_model(ensemble: TreeEnsemble, path: str) -> None:
    """Write the ensemble in the native JSON schema (inverse of load_model)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(ensemble), fh, indent=1)


def model_to_dict(ensemble: TreeEnsemble) -> dict:
    trees = []
    for tree in ensemble.trees:
        nodes = []
        for node in tree.nodes:
            if node.is_leaf:
                entry: dict = {"leaf_weight": node.leaf_weight}
            else:
                entry = {
                    "feature": node.feature,
                    "threshold": node.threshold,
                    "left": node.left,
                    "right": node.right,
                }
            if node.cover is not None:
                entry["cover"] = node.cover
            nodes.append(entry)
        trees.append({"root": tree.root, "nodes": nodes})
    return {
        "num_features": ensemble.num_features,
        "feature_names": list(ensemble.feature_names),
        "base_offset": ensemble.base_offset,
        "trees": trees,
    }


def model_from_dict(doc: dict) -> TreeEnsemble:
    return _ensemble_from_dict(doc)


def _parse_native(text: str) -> TreeEnsemble:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelSchemaError(f"model file is not valid JSON: {exc}") from exc
    return _ensemble_from_dict(doc)


def _ensemble_from_dict(doc) -> TreeEnsemble:
    if not isinstance(doc, dict):
        raise ModelSchemaError("model document must be a JSON object")
    try:
        num_features = int(doc["num_features"])
        tree_docs = doc["trees"]
    except KeyError as exc:
        raise ModelSchemaError(f"model document lacks required key {exc}") from exc
    names = tuple(str(s) for s in doc.get("feature_names", ()))
    base_offset = float(doc.get("base_offset", 0.0))
    trees = []
    for t, tdoc in enumerate(tree_docs):
        try:
            node_docs = tdoc["nodes"]
            root = int(tdoc.get("root", 0))
        except (KeyError, TypeError) as exc:
            raise ModelSchemaError(f"trees[{t}]: malformed tree object ({exc})") from exc
        nodes = []
        for i, ndoc in enumerate(node_docs):
            where = f"trees[{t}].nodes[{i}]"
            if not isinstance(ndoc, dict):
                raise ModelSchemaError(f"{where}: node must be an object")
            cover = ndoc.get("cover")
            cover = None if cover is None else float(cover)
            if "leaf_weight" in ndoc:
                nodes.append(leaf(float(ndoc["leaf_weight"]), cover))
            else:
                missing = {"feature", "threshold", "left", "right"} - set(ndoc)
                if missing:
                    raise ModelSchemaError(
                        f"{where}: inner node missing {sorted(missing)}"
                    )
                nodes.append(inner(int(ndoc["feature"]), float(ndoc["threshold"]),
                                   int(ndoc["left"]), int(ndoc["right"]), cover))
        trees.append(Tree(tuple(nodes), root))
    return TreeEnsemble(tuple(trees), num_features, names, base_offset)


def _xgb_feature_id(token, feature_names: Sequence[str] | None, where: str) -> int:
    if isinstance(token, int):
        return token
    token = str(token)
    if token.startswith("f") and token[1:].isdigit():
        return int(token[1:])
    if feature_names is not None and token in feature_names:
        return list(feature_names).index(token)
    raise ModelSchemaError(f"{where}: unrecognized feature reference {token!r}")


def _parse_xgboost_dump(text: str, feature_names: Sequence[str] | None) -> TreeEnsemble:
    text = text.strip()
    try:
        if text.startswith("["):
            tree_docs = json.loads(text)
        else:
            tree_docs = [json.loads(line) for line in text.splitlines() if line.strip()]
    except json.JSONDecodeError as exc:
        raise ModelSchemaError(f"model dump is not valid JSON: {exc}") from exc

    trees = []
    max_feature = -1
    for t, tdoc in enumerate(tree_docs):
        nodes: list[TreeNode] = []
        slot_of: dict[int, int] = {}

        def visit(ndoc, where) -> int:
            nonlocal max_feature
            if not isinstance(ndoc, dict) or "nodeid" not in ndoc:
                raise ModelSchemaError(f"{where}: malformed dump node")
            if ndoc["nodeid"] in slot_of:
                raise ModelSchemaError(f"{where}: duplicate nodeid {ndoc['nodeid']}")
            slot = len(nodes)
            slot_of[ndoc["nodeid"]] = slot
            nodes.append(TreeNode())  # placeholder until children are resolved
            cover = ndoc.get("cover")
            cover = None if cover is None else float(cover)
            if "leaf" in ndoc:
                nodes[slot] = leaf(float(ndoc["leaf"]), cover)
                return slot
            for key in ("split", "split_condition", "yes", "no", "children"):
                if key not in ndoc:
                    raise ModelSchemaError(f"{where}: inner dump node missing {key!r}")
            fid = _xgb_feature_id(ndoc["split"], feature_names, where)
            max_feature = max(max_feature, fid)
            child_slots = {
                child["nodeid"]: visit(child, f"{where}.children[{k}]")
                for k, child in enumerate(ndoc["children"])
            }
            try:
                left_slot = child_slots[ndoc["yes"]]
                right_slot = child_slots[ndoc["no"]]
            except KeyError as exc:
                raise ModelSchemaError(
                    f"{where}: yes/no points at missing child {exc}"
                ) from exc
            nodes[slot] = inner(fid, float(ndoc["split_condition"]),
                                left_slot, right_slot, cover)
            return slot

        visit(tdoc, f"tree[{t}]")
        trees.append(Tree(tuple(nodes), 0))

    if feature_names is not None:
        num_features = len(feature_names)
        names = tuple(feature_names)
    else:
        num_features = max_feature + 1
        names = ()
    if num_features <= max_feature:
        raise ModelSchemaError(
            f"dump references feature {max_feature} but only "
            f"{num_features} feature names were provided"
        )
    return TreeEnsemble(tuple(trees), num_features, names)


# ---------------------------------------------------------------------------
# Data ingestion

def load_data(path: str, feature_names: Sequence[str]) -> DataMatrix:
    """Read an RFC-4180 CSV whose header covers the feature names.

    Columns are reordered to feature-id order; extra columns are ignored.
    Missing columns, non-numeric cells, NaNs, and ragged rows are rejected
    with the offending column or row named.

    The body is parsed by ``np.loadtxt`` straight from the file. Where it
    fails or finds a non-finite value, the body is read again cell by cell
    with ``float()``, which names the offending line and column, and accepts
    the spellings that ``float()`` takes and ``loadtxt`` does not (``1_0``,
    non-ASCII digits); the values are the same either way.
    """
    feature_names = list(feature_names)
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read data file {path}: {exc}") from exc
    with fh:
        # The header's lines come from readline, so the body's offset is known.
        try:
            header = next(csv.reader(iter(fh.readline, "")))
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        missing = [name for name in feature_names if name not in header]
        if missing:
            raise DataError(f"{path}: missing feature column(s) {missing}")
        pick = [header.index(name) for name in feature_names]
        body = fh.tell()
        values = _load_body(fh, len(header), pick)
        if values is not None:
            return DataMatrix(values)
        fh.seek(body)
        reader = csv.reader(fh)
        rows = []
        for lineno, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != len(header):
                raise DataError(
                    f"{path}: line {lineno} has {len(rec)} cells, "
                    f"header has {len(header)}"
                )
            try:
                vals = [float(rec[i]) for i in pick]
            except ValueError:
                bad = next(name for name, i in zip(feature_names, pick)
                           if not _is_number(rec[i]))
                raise DataError(
                    f"{path}: line {lineno}, column {bad!r}: "
                    f"non-numeric cell"
                ) from None
            if not all(math.isfinite(v) for v in vals):
                bad = next(name for name, v in zip(feature_names, vals)
                           if not math.isfinite(v))
                raise DataError(f"{path}: line {lineno}, column {bad!r}: missing value")
            rows.append(vals)
    return DataMatrix(np.asarray(rows, dtype=np.float64).reshape(len(rows), len(feature_names)))


def _load_body(fh, columns: int, pick: list[int]) -> np.ndarray | None:
    """The ``pick`` columns of the CSV body from ``fh``'s position on, or
    None where ``loadtxt`` cannot give what the cell-by-cell loop would:
    a cell it does not parse, a row of other than ``columns`` cells, or a
    non-finite value. Extra columns are read as 0 and dropped."""
    start = fh.tell()
    # A body of blank lines only has no rows (loadtxt would warn about it).
    while not (line := fh.readline()).strip("\r\n"):
        if not line:
            return np.empty((0, len(pick)))
        start = fh.tell()
    fh.seek(start)
    extra = {k: _zero for k in range(columns) if k not in pick}
    try:
        values = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"', ndmin=2,
                            converters=extra or None)
    except ValueError:
        return None
    if values.shape[1] != columns:
        return None
    if pick != list(range(columns)):
        values = values[:, pick]
    return values if np.isfinite(values).all() else None


def _zero(cell: str) -> float:
    return 0.0


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True
