import json
import warnings

import numpy as np
import pytest

from woodelf.errors import DataError, DimensionError, ModelSchemaError, NodeKindError
from woodelf.synth import random_ensemble
from woodelf.tree_model import (
    DataMatrix,
    Tree,
    TreeEnsemble,
    inner,
    leaf,
    load_data,
    load_model,
    model_to_dict,
    predict,
    predict_batch,
    save_model,
    split,
    validate_ensemble,
)


# ---------------------------------------------------------------------------
# split

def test_split_is_strict_less_than():
    node = inner(0, 4.0, 1, 2)
    assert split(node, [2.0]) is True
    assert split(node, [4.0]) is False
    node5 = inner(0, 3.0, 1, 2)
    assert split(node5, [5.0]) is False


def test_split_rejects_leaf():
    with pytest.raises(NodeKindError):
        split(leaf(1.0), [0.0])


# ---------------------------------------------------------------------------
# predict

def test_predict_routes_to_expected_leaves(three_leaf_ensemble):
    assert predict(three_leaf_ensemble, [2.0, 2.0]) == 1.0
    assert predict(three_leaf_ensemble, [2.0, 8.0]) == 2.0
    assert predict(three_leaf_ensemble, [6.0, 0.0]) == 3.0


def test_predict_single_leaf_tree_constant():
    ens = TreeEnsemble((Tree((leaf(2.5),), 0),), 3, base_offset=1.0)
    for row in ([0, 0, 0], [9, 9, 9]):
        assert predict(ens, row) == 3.5


def test_predict_two_tree_additivity(three_leaf_tree):
    one = TreeEnsemble((three_leaf_tree,), 2, base_offset=0.25)
    two = TreeEnsemble((three_leaf_tree, three_leaf_tree), 2, base_offset=0.25)
    row = [2.0, 2.0]
    assert predict(two, row) == pytest.approx(2 * (predict(one, row) - 0.25) + 0.25)


def test_predict_dimension_mismatch(three_leaf_ensemble):
    with pytest.raises(DimensionError):
        predict(three_leaf_ensemble, [1.0])


def test_predict_batch_matches_scalar(three_leaf_ensemble):
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 8, size=(40, 2))
    batched = predict_batch(three_leaf_ensemble, X)
    scalar = [predict(three_leaf_ensemble, row) for row in X]
    np.testing.assert_allclose(batched, scalar, atol=0)


# ---------------------------------------------------------------------------
# native schema

NATIVE_DOC = {
    "num_features": 2,
    "feature_names": ["f0", "f1"],
    "base_offset": 0.5,
    "trees": [{
        "root": 0,
        "nodes": [
            {"feature": 0, "threshold": 4.0, "left": 1, "right": 2, "cover": 10.0},
            {"feature": 1, "threshold": 3.0, "left": 3, "right": 4, "cover": 6.0},
            {"leaf_weight": 3.0, "cover": 4.0},
            {"leaf_weight": 1.0, "cover": 3.0},
            {"leaf_weight": 2.0, "cover": 3.0},
        ],
    }],
}


def test_load_native_model(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(NATIVE_DOC))
    ens = load_model(str(path))
    assert ens.num_features == 2
    assert len(ens.trees) == 1
    tree = ens.trees[0]
    assert sum(not n.is_leaf for n in tree.nodes) == 2
    assert sum(n.is_leaf for n in tree.nodes) == 3
    assert tree.depth() == 2
    assert predict(ens, [2.0, 2.0]) == 1.5


def test_load_model_empty_tree_list(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"num_features": 1, "trees": []}))
    with pytest.raises(ModelSchemaError, match="no trees"):
        load_model(str(path))


def test_load_model_missing_node_key(tmp_path):
    doc = json.loads(json.dumps(NATIVE_DOC))
    del doc["trees"][0]["nodes"][0]["threshold"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelSchemaError, match=r"trees\[0\].nodes\[0\]"):
        load_model(str(path))


def test_load_model_unknown_format(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(NATIVE_DOC))
    # One name per format: the retired spellings are unknown too.
    for name in ("pickle", "native-json", "xgboost", "xgboost-dump"):
        with pytest.raises(ModelSchemaError, match="format"):
            load_model(str(path), format=name)


def test_round_trip_structural_equality(tmp_path):
    rng = np.random.default_rng(1)
    for trial in range(5):
        ens = random_ensemble(rng, num_trees=3, num_features=4, max_depth=4,
                              with_covers=trial % 2 == 0)
        path = tmp_path / f"m{trial}.json"
        save_model(ens, str(path))
        loaded = load_model(str(path))
        assert loaded == ens
        save_model(loaded, str(path))
        assert load_model(str(path)) == loaded


# ---------------------------------------------------------------------------
# structural validation

def _ensemble(nodes, num_features=2):
    return TreeEnsemble((Tree(tuple(nodes), 0),), num_features)


def test_validate_detects_cycle():
    nodes = [inner(0, 1.0, 1, 0), leaf(1.0)]  # right child points back at root
    with pytest.raises(ModelSchemaError, match="twice"):
        validate_ensemble(_ensemble(nodes))


def test_validate_detects_unreachable_node():
    nodes = [inner(0, 1.0, 1, 2), leaf(1.0), leaf(2.0), leaf(3.0)]
    with pytest.raises(ModelSchemaError, match="unreachable"):
        validate_ensemble(_ensemble(nodes))


def test_validate_enforces_depth_cap():
    rng = np.random.default_rng(2)
    ens = random_ensemble(rng, 1, 3, max_depth=5, full=True)
    with pytest.raises(ModelSchemaError, match="depth"):
        validate_ensemble(ens, depth_cap=4)
    validate_ensemble(ens, depth_cap=5)


def test_validate_rejects_cap_above_hard_bound():
    ens = _ensemble([leaf(1.0)])
    with pytest.raises(ModelSchemaError, match="cap"):
        validate_ensemble(ens, depth_cap=31)


def test_validate_feature_id_out_of_range():
    nodes = [inner(5, 1.0, 1, 2), leaf(1.0), leaf(2.0)]
    with pytest.raises(ModelSchemaError, match="feature 5"):
        validate_ensemble(_ensemble(nodes, num_features=2))


def test_validate_cover_monotonicity():
    nodes = [inner(0, 1.0, 1, 2, cover=5.0),
             leaf(1.0, cover=9.0), leaf(2.0, cover=1.0)]
    with pytest.raises(ModelSchemaError, match="cover"):
        validate_ensemble(_ensemble(nodes))


def test_validate_require_covers():
    nodes = [inner(0, 1.0, 1, 2, cover=5.0), leaf(1.0, cover=2.0), leaf(2.0)]
    with pytest.raises(ModelSchemaError, match="cover"):
        validate_ensemble(_ensemble(nodes), require_covers=True)


@pytest.mark.parametrize("nodes, message", [
    ([inner(0, 1.0, 1, 2, cover=2.0), leaf(float("inf"), cover=1.0), leaf(2.0, cover=1.0)],
     "tree 0: leaf 1 has no finite weight"),
    ([inner(0, 1.0, 1, 2, cover=2.0), leaf(1.0, cover=1.0), leaf(float("nan"), cover=1.0)],
     "tree 0: leaf 2 has no finite weight"),
    ([inner(0, 1.0, 1, 2, cover=float("nan")), leaf(1.0, cover=1.0), leaf(2.0, cover=1.0)],
     "tree 0: node 0 has a non-finite cover"),
    ([inner(0, 1.0, 1, 2, cover=float("inf")), leaf(1.0, cover=1.0), leaf(2.0, cover=1.0)],
     "tree 0: node 0 has a non-finite cover"),
    ([inner(0, 1.0, 1, 2, cover=2.0), leaf(1.0, cover=1.0), leaf(2.0, cover=float("nan"))],
     "tree 0: node 2 has a non-finite cover"),
], ids=["inf-weight", "nan-weight", "nan-root-cover", "inf-root-cover", "nan-leaf-cover"])
def test_validate_rejects_non_finite_weights_and_covers(nodes, message):
    # A nan cover passes every comparison, so monotonicity and positivity of
    # covers did not catch it, even with require_covers.
    with pytest.raises(ModelSchemaError, match=message):
        validate_ensemble(_ensemble(nodes), require_covers=True)


def test_load_model_rejects_non_finite_leaf_weight(tmp_path):
    doc = json.loads(json.dumps(NATIVE_DOC))
    doc["trees"][0]["nodes"][2]["leaf_weight"] = "inf"
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelSchemaError, match="leaf 2 has no finite weight"):
        load_model(str(path))


def test_bad_child_index():
    nodes = [inner(0, 1.0, 1, 7), leaf(1.0)]
    with pytest.raises(ModelSchemaError, match="child"):
        validate_ensemble(_ensemble(nodes))


# ---------------------------------------------------------------------------
# boosted-tree dump import

XGB_DUMP = [{
    "nodeid": 0, "depth": 0, "split": "f0", "split_condition": 4.0,
    "yes": 1, "no": 2, "missing": 1, "cover": 10.0,
    "children": [
        {"nodeid": 2, "leaf": 3.0, "cover": 4.0},
        {"nodeid": 1, "depth": 1, "split": "f1", "split_condition": 3.0,
         "yes": 3, "no": 4, "missing": 3, "cover": 6.0,
         "children": [
             {"nodeid": 3, "leaf": 1.0, "cover": 3.0},
             {"nodeid": 4, "leaf": 2.0, "cover": 3.0},
         ]},
    ],
}]


def test_load_xgboost_dump(tmp_path):
    # Children are listed no-branch first on purpose: resolution goes by
    # nodeid, and the yes branch (strict <) must land on the left.
    path = tmp_path / "dump.json"
    path.write_text(json.dumps(XGB_DUMP))
    ens = load_model(str(path), format="xgb")
    assert ens.num_features == 2
    assert predict(ens, [2.0, 2.0]) == 1.0
    assert predict(ens, [2.0, 8.0]) == 2.0
    assert predict(ens, [6.0, 0.0]) == 3.0
    assert ens.has_covers()
    root = ens.trees[0].nodes[ens.trees[0].root]
    assert root.cover == 10.0


def test_load_xgboost_dump_newline_delimited(tmp_path):
    path = tmp_path / "dump.txt"
    path.write_text("\n".join(json.dumps(t) for t in XGB_DUMP))
    ens = load_model(str(path), format="xgb")
    assert predict(ens, [2.0, 2.0]) == 1.0


def test_load_xgboost_dump_named_features(tmp_path):
    doc = json.loads(json.dumps(XGB_DUMP))
    doc[0]["split"] = "age"
    doc[0]["children"][1]["split"] = "sugar"
    path = tmp_path / "dump.json"
    path.write_text(json.dumps(doc))
    ens = load_model(str(path), format="xgb", feature_names=["age", "sugar"])
    assert ens.feature_names == ("age", "sugar")
    assert predict(ens, [2.0, 2.0]) == 1.0
    with pytest.raises(ModelSchemaError, match="feature reference"):
        load_model(str(path), format="xgb")


def test_duplicate_feature_names_rejected(tmp_path):
    # Both formats: the repeated name is named, where JSON output would keep
    # one of the two values and the CSV loader would read one column twice.
    doc = json.loads(json.dumps(NATIVE_DOC))
    doc["feature_names"] = ["age", "age"]
    native = tmp_path / "model.json"
    native.write_text(json.dumps(doc))
    with pytest.raises(ModelSchemaError, match="feature name 'age' is given twice"):
        load_model(str(native))
    dump = tmp_path / "dump.json"
    dump.write_text(json.dumps(XGB_DUMP))
    with pytest.raises(ModelSchemaError, match="feature name 'f0' is given twice"):
        load_model(str(dump), format="xgb", feature_names=["f0", "f0"])


def test_load_xgboost_dump_missing_key(tmp_path):
    doc = json.loads(json.dumps(XGB_DUMP))
    del doc[0]["split_condition"]
    path = tmp_path / "dump.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelSchemaError, match="split_condition"):
        load_model(str(path), format="xgb")


# ---------------------------------------------------------------------------
# data loading

def test_load_data_basic(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("f0,f1\n1,2\n3,4\n5,6\n")
    table = load_data(str(path), ["f0", "f1"])
    assert table.num_rows == 3
    np.testing.assert_array_equal(table.values, [[1, 2], [3, 4], [5, 6]])


def test_load_data_missing_column_named(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("f0,other\n1,2\n")
    with pytest.raises(DataError, match="f1"):
        load_data(str(path), ["f0", "f1"])


def test_load_data_extra_columns_ignored_and_reordered(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("junk,f1,f0,more\n9,2,1,9\n9,4,3,9\n")
    table = load_data(str(path), ["f0", "f1"])
    np.testing.assert_array_equal(table.values, [[1, 2], [3, 4]])


def test_load_data_rejects_non_numeric(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("f0,f1\n1,oops\n")
    with pytest.raises(DataError, match="f1"):
        load_data(str(path), ["f0", "f1"])


def test_load_data_rejects_nan(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("f0,f1\n1,nan\n")
    with pytest.raises(DataError, match="missing"):
        load_data(str(path), ["f0", "f1"])


def test_load_data_rejects_ragged_row(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("f0,f1\n1,2\n3\n")
    with pytest.raises(DataError, match="line 3"):
        load_data(str(path), ["f0", "f1"])


def test_load_data_values_equal_float_of_each_cell(tmp_path):
    # Spellings that float() takes and loadtxt does not (underscores,
    # non-ASCII digits) are read the slow way, with the same values.
    cells = ["1.5", "-0", "+2", " 3.25 ", "1e-400", "5e-324", "0.1", "1_0", "１.５",
             "٣", '"7"', "123456789012345678901234567890", "2.2250738585072014e-308"]
    for spelled in (cells[:7] + cells[10:], cells):
        path = tmp_path / "data.csv"
        path.write_text("f0,f1\n" + "".join(f"{c},{c}\n" for c in spelled),
                        encoding="utf-8")
        expected = [float(c.strip('"')) for c in spelled]
        got = load_data(str(path), ["f0", "f1"]).values
        assert got.tobytes() == np.array([expected, expected]).T.tobytes()


def test_load_data_ignores_an_extra_text_column(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text('name,f1,f0\nalice,2,1\n"bob, jr",4,3\n,6,5\n')
    table = load_data(str(path), ["f0", "f1"])
    np.testing.assert_array_equal(table.values, [[1, 2], [3, 4], [5, 6]])


def test_load_data_header_only_or_blank_body_has_no_rows(tmp_path):
    path = tmp_path / "data.csv"
    for body in ("", "\n", "\r\n\n"):
        path.write_text("f0,f1\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = load_data(str(path), ["f0", "f1"])
        assert table.values.shape == (0, 2)


@pytest.mark.parametrize("body, message", [
    ("1,2\n3,4,5\n", "line 3 has 3 cells"),
    ("1,2,3\n4,5,6\n", "line 2 has 3 cells"),
    ("1,2\n\n3\n", "line 4 has 1 cells"),
    ("1,2\n3,x\n", "line 3, column 'f1': non-numeric"),
    ("1_0,2\n3,4\nx,1\n", "line 4, column 'f0': non-numeric"),
    ("1,2\n-inf,4\n", "line 3, column 'f0': missing value"),
    ("1,1e500\n", "line 2, column 'f1': missing value"),
    ("1,NaN\n", "line 2, column 'f1': missing value"),
], ids=["long-row", "all-rows-long", "short-row-after-blank", "text",
        "text-after-underscore-digits", "minus-inf", "overflow", "nan"])
def test_load_data_names_the_line_and_column_of_a_bad_row(tmp_path, body, message):
    path = tmp_path / "data.csv"
    path.write_text("f0,f1\n" + body)
    with pytest.raises(DataError, match=message):
        load_data(str(path), ["f0", "f1"])


def test_data_matrix_rejects_nan():
    with pytest.raises(DataError):
        DataMatrix(np.array([[1.0, np.nan]]))


def test_model_to_dict_round_trips_in_memory(three_leaf_ensemble):
    from woodelf.tree_model import model_from_dict
    doc = model_to_dict(three_leaf_ensemble)
    assert model_from_dict(doc) == three_leaf_ensemble
