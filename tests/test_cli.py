import csv
import io
import itertools
import json

import numpy as np
import pytest

from woodelf.cli import _write_result, main
from woodelf.engine import BatchAttribution, woodelf
from woodelf.formula_core import MetricKind
from woodelf.oracle import exact_attribution, tree_characteristic
from woodelf.synth import random_data, random_ensemble
from woodelf.tree_model import model_to_dict, predict_batch, save_model

MODEL_DOC = {
    "num_features": 2,
    "feature_names": ["age", "sugar"],
    "base_offset": 0.0,
    "trees": [{
        "root": 0,
        "nodes": [
            {"feature": 0, "threshold": 50.0, "left": 1, "right": 2, "cover": 100.0},
            {"feature": 1, "threshold": 10.0, "left": 3, "right": 4, "cover": 50.0},
            {"leaf_weight": 0.0, "cover": 50.0},
            {"leaf_weight": 4.0, "cover": 25.0},
            {"leaf_weight": 1.0, "cover": 25.0},
        ],
    }],
}


@pytest.fixture
def toy(tmp_path):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(MODEL_DOC))
    consumers = tmp_path / "consumers.csv"
    consumers.write_text("age,sugar\n30,20\n70,5\n")
    background = tmp_path / "background.csv"
    background.write_text("age,sugar\n70,5\n20,5\n55,30\n")
    return {"model": str(model), "consumers": str(consumers),
            "background": str(background), "dir": tmp_path}


def _read_singles_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    values = np.array([[float(v) for v in row[1:]] for row in body])
    return header, values


def test_compute_background_shapley_csv(toy, capsys):
    out = toy["dir"] / "out.csv"
    code = main(["compute", "--model", toy["model"], "--consumers",
                 toy["consumers"], "--background", toy["background"],
                 "--metric", "shapley", "--out", str(out)])
    assert code == 0
    header, values = _read_singles_csv(out)
    assert header == ["row_id", "age", "sugar"]
    assert values.shape == (2, 2)
    # efficiency: per-row sums equal prediction minus mean background prediction
    consumers = np.array([[30.0, 20.0], [70.0, 5.0]])
    background = np.array([[70.0, 5.0], [20.0, 5.0], [55.0, 30.0]])
    from woodelf.tree_model import load_model
    ens = load_model(toy["model"])
    expected = predict_batch(ens, consumers) - predict_batch(ens, background).mean()
    np.testing.assert_allclose(values.sum(axis=1), expected, atol=1e-9)


def test_compute_output_is_deterministic_across_threads(toy):
    out1 = toy["dir"] / "a.csv"
    out2 = toy["dir"] / "b.csv"
    base = ["compute", "--model", toy["model"], "--consumers", toy["consumers"],
            "--background", toy["background"], "--metric", "banzhaf-iv"]
    assert main(base + ["--out", str(out1), "--threads", "1"]) == 0
    assert main(base + ["--out", str(out2), "--threads", "3"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_compute_pairs_long_csv(toy):
    out = toy["dir"] / "pairs.csv"
    code = main(["compute", "--model", toy["model"], "--consumers",
                 toy["consumers"], "--background", toy["background"],
                 "--metric", "shapley-iv", "--out", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["row_id", "feature_i", "feature_j", "value"]
    assert [r[:3] for r in rows[1:]] == [["0", "age", "sugar"],
                                         ["1", "age", "sugar"]]


@pytest.mark.parametrize("metric", ["shapley", "shapley-iv"])
def test_compute_csv_matches_csv_writer_bytes(tmp_path, metric):
    """Both CSV layouts equal, byte for byte, what csv.writer writes for the
    in-process values, including names that need quoting."""
    rng = np.random.default_rng(17)
    ens = random_ensemble(rng, 2, 3, max_depth=3)
    names = ["we,ird \"name\"", "plain", "with space"]
    doc = model_to_dict(ens)
    doc["feature_names"] = names
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    C = random_data(rng, 5, 3)
    B = random_data(rng, 4, 3)
    paths = {}
    for label, data in (("consumers", C), ("background", B)):
        paths[label] = tmp_path / f"{label}.csv"
        with open(paths[label], "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(names)
            writer.writerows(data.tolist())
    out = tmp_path / "out.csv"
    assert main(["compute", "--model", str(model), "--consumers",
                 str(paths["consumers"]), "--background", str(paths["background"]),
                 "--metric", metric, "--out", str(out)]) == 0

    values = woodelf(ens, C, B, metric).values
    expected = tmp_path / "expected.csv"
    with open(expected, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if metric == "shapley":
            writer.writerow(["row_id"] + names)
            for r in range(values.shape[0]):
                writer.writerow([r] + [repr(float(v)) for v in values[r]])
        else:
            writer.writerow(["row_id", "feature_i", "feature_j", "value"])
            for r in range(values.shape[0]):
                for col, (i, j) in enumerate([(0, 1), (0, 2), (1, 2)]):
                    writer.writerow([r, names[i], names[j], repr(float(values[r, col]))])
    assert out.read_bytes() == expected.read_bytes()


def _csv_writer_bytes(names, values, pairwise):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if pairwise:
        writer.writerow(["row_id", "feature_i", "feature_j", "value"])
        pairs = list(itertools.combinations(range(len(names)), 2))
        for r in range(values.shape[0]):
            for col, (i, j) in enumerate(pairs):
                writer.writerow([r, names[i], names[j], repr(float(values[r, col]))])
    else:
        writer.writerow(["row_id"] + names)
        for r in range(values.shape[0]):
            writer.writerow([r] + [repr(float(v)) for v in values[r]])
    return buf.getvalue().encode("utf-8")


CRAFTED = [1e-7, 1e20, -0.0, 0.0, 5e-324, 3.0, -42.0, 1e16, 2.0**53, 0.1, 1e-5,
           12345.678, 1e-4, 123456789012345.0, float("nan"), float("inf")]


@pytest.mark.parametrize("metric", [MetricKind.SHAPLEY, MetricKind.SHAPLEY_IV])
@pytest.mark.parametrize("rows, names", [
    (4, ['we,ird "name"', "naïve €", "multi\nline", "plain", ""]),
    (10_000, ['we,ird "name"', "naïve €", "plain"]),
    (3, ["solo"]),
])
def test_write_result_matches_csv_writer_and_repr(tmp_path, metric, rows, names):
    """Both CSV layouts equal csv.writer over repr of each value, byte for
    byte: crafted values, names that need quoting or are not ASCII, and
    10,000 rows, which span several blocks and row ids of 1 to 4 digits."""
    h = len(names)
    width = h * (h - 1) // 2 if metric.pairwise else h
    rng = np.random.default_rng(rows)
    values = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-20, 20, (rows, width))
    spots = rng.choice(values.size, size=min(len(CRAFTED), values.size), replace=False)
    values.flat[spots] = CRAFTED[:spots.size]
    out = tmp_path / "out.csv"
    _write_result(str(out), BatchAttribution(metric, h, values), names)
    assert out.read_bytes() == _csv_writer_bytes(names, values, metric.pairwise)


def test_compute_json_mirrors_csv(toy):
    csv_out = toy["dir"] / "out.csv"
    json_out = toy["dir"] / "out.json"
    base = ["compute", "--model", toy["model"], "--consumers", toy["consumers"],
            "--background", toy["background"]]
    assert main(base + ["--out", str(csv_out)]) == 0
    assert main(base + ["--out", str(json_out)]) == 0
    _, csv_values = _read_singles_csv(csv_out)
    doc = json.loads(json_out.read_text())
    assert doc["metric"] == "shapley"
    json_values = np.array([[row["values"]["age"], row["values"]["sugar"]]
                            for row in doc["rows"]])
    np.testing.assert_array_equal(csv_values, json_values)
    assert [row["row_id"] for row in doc["rows"]] == [0, 1]


def test_compute_path_dependent_mode(toy):
    out = toy["dir"] / "pd.csv"
    code = main(["compute", "--model", toy["model"], "--consumers",
                 toy["consumers"], "--out", str(out)])
    assert code == 0
    _, values = _read_singles_csv(out)
    assert values.shape == (2, 2)


def test_compute_baseline_mode_with_row_index(toy):
    out = toy["dir"] / "baseline.csv"
    code = main(["compute", "--model", toy["model"], "--consumers",
                 toy["consumers"], "--background", toy["background"],
                 "--baseline-row", "0", "--out", str(out)])
    assert code == 0
    _, values = _read_singles_csv(out)
    # Baseline row 0 equals consumer row 1, whose attributions must vanish.
    np.testing.assert_allclose(values[1], [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(values[0], [2.5, -1.5], atol=1e-9)


def test_compute_baseline_mode_with_file(toy):
    baseline_file = toy["dir"] / "baseline.csv"
    baseline_file.write_text("age,sugar\n70,5\n")
    out = toy["dir"] / "baseline_out.csv"
    code = main(["compute", "--model", toy["model"], "--consumers",
                 toy["consumers"], "--baseline-row", str(baseline_file),
                 "--out", str(out)])
    assert code == 0
    _, values = _read_singles_csv(out)
    np.testing.assert_allclose(values[0], [2.5, -1.5], atol=1e-9)


def test_baseline_row_selects_baseline_mode_over_background(toy):
    # Row 0 of the background is (70, 5): with --background given, the run
    # is against that one row, not against the whole background.
    baseline_file = toy["dir"] / "row0.csv"
    baseline_file.write_text("age,sugar\n70,5\n")
    outs = {label: toy["dir"] / f"{label}.csv" for label in ("row", "file", "bg")}
    base = ["compute", "--model", toy["model"], "--consumers", toy["consumers"]]
    assert main(base + ["--background", toy["background"], "--baseline-row", "0",
                        "--out", str(outs["row"])]) == 0
    assert main(base + ["--baseline-row", str(baseline_file),
                        "--out", str(outs["file"])]) == 0
    assert main(base + ["--background", toy["background"],
                        "--out", str(outs["bg"])]) == 0
    assert outs["row"].read_bytes() == outs["file"].read_bytes()
    assert outs["row"].read_bytes() != outs["bg"].read_bytes()


def test_missing_background_in_background_mode_exits_2(toy, capsys):
    empty = toy["dir"] / "empty.csv"
    empty.write_text("age,sugar\n")
    code = main(["compute", "--model", toy["model"], "--consumers",
                 toy["consumers"], "--background", str(empty),
                 "--out", str(toy["dir"] / "x.csv")])
    assert code == 2
    assert "background" in capsys.readouterr().err
    assert not (toy["dir"] / "x.csv").exists()


@pytest.mark.parametrize("flag, value", [
    ("--depth-cap", "0"), ("--depth-cap", "31"), ("--verify", "-1"),
])
def test_out_of_range_numbers_exit_2_when_parsed(toy, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--model", toy["model"], "--consumers", toy["consumers"],
              flag, value, "--out", str(toy["dir"] / "x.csv")])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not (toy["dir"] / "x.csv").exists()


@pytest.mark.parametrize("argv", [
    ["compute", "--model", "m.json", "--consumers", "c.csv", "--out", "o.csv",
     "--mode", "baseline"],
    ["selftest", "--form", "2"],
], ids=["compute", "selftest"])
def test_flag_prefixes_are_not_expanded(capsys, argv):
    # A retired or shortened flag is an unknown argument (exit 2), not a
    # prefix of --model or --formulas.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_nonpositive_threads_exits_2(toy, capsys, threads):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--model", toy["model"], "--consumers", toy["consumers"],
              "--threads", threads, "--out", str(toy["dir"] / "x.csv")])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not (toy["dir"] / "x.csv").exists()


def test_path_dependent_without_covers_exits_2(toy):
    doc = json.loads(json.dumps(MODEL_DOC))
    for node in doc["trees"][0]["nodes"]:
        node.pop("cover", None)
    bare = toy["dir"] / "bare.json"
    bare.write_text(json.dumps(doc))
    code = main(["compute", "--model", str(bare), "--consumers",
                 toy["consumers"], "--out", str(toy["dir"] / "x.csv")])
    assert code == 2


def test_bad_model_schema_exits_3(toy):
    bad = toy["dir"] / "bad.json"
    bad.write_text(json.dumps({"num_features": 2, "trees": [{"nodes": [{}]}]}))
    code = main(["compute", "--model", str(bad), "--consumers",
                 toy["consumers"], "--out", str(toy["dir"] / "x.csv")])
    assert code == 3


def test_missing_model_file_exits_3(toy):
    code = main(["compute", "--model", str(toy["dir"] / "nope.json"),
                 "--consumers", toy["consumers"],
                 "--out", str(toy["dir"] / "x.csv")])
    assert code == 3


def test_bad_consumers_csv_exits_4(toy):
    broken = toy["dir"] / "broken.csv"
    broken.write_text("age,wrong\n1,2\n")
    code = main(["compute", "--model", toy["model"], "--consumers",
                 str(broken), "--background", toy["background"],
                 "--out", str(toy["dir"] / "x.csv")])
    assert code == 4


def test_depth_cap_violation_exits_3(toy, tmp_path):
    rng = np.random.default_rng(0)
    deep = random_ensemble(rng, 1, 3, max_depth=5, full=True)
    path = tmp_path / "deep.json"
    save_model(deep, str(path))
    consumers = tmp_path / "c.csv"
    consumers.write_text("f0,f1,f2\n0.5,0.5,0.5\n")
    code = main(["compute", "--model", str(path), "--consumers", str(consumers),
                 "--depth-cap", "3", "--out", str(tmp_path / "x.csv")])
    assert code == 3


def test_verify_flag_reports_and_passes(toy, capsys):
    out = toy["dir"] / "v.csv"
    code = main(["compute", "--model", toy["model"], "--consumers",
                 toy["consumers"], "--background", toy["background"],
                 "--metric", "banzhaf", "--verify", "10", "--out", str(out)])
    captured = capsys.readouterr().out
    assert code == 0
    assert "max abs deviation" in captured


def test_xgb_format_end_to_end(tmp_path):
    dump = [{
        "nodeid": 0, "split": "f0", "split_condition": 0.5, "yes": 1, "no": 2,
        "cover": 10.0,
        "children": [{"nodeid": 1, "leaf": 1.0, "cover": 6.0},
                     {"nodeid": 2, "leaf": -1.0, "cover": 4.0}],
    }]
    model = tmp_path / "dump.json"
    model.write_text(json.dumps(dump))
    consumers = tmp_path / "c.csv"
    consumers.write_text("f0\n0.2\n0.9\n")
    out = tmp_path / "out.csv"
    code = main(["compute", "--model", str(model), "--format", "xgb",
                 "--consumers", str(consumers), "--out", str(out)])
    assert code == 0
    _, values = _read_singles_csv(out)
    assert values.shape == (2, 1)


# ---------------------------------------------------------------------------
# selftest

def test_selftest_passes(capsys):
    code = main(["selftest", "--formulas", "6", "--pipelines", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    assert "deviation" in out


def _reference_doc(metric: MetricKind):
    rng = np.random.default_rng(101)
    ens = random_ensemble(rng, 2, 3, max_depth=3)
    C = random_data(rng, 4, 3)
    B = random_data(rng, 3, 3)
    if metric.pairwise:
        pairs = []
        for r in range(C.shape[0]):
            cf = tree_characteristic(ens, C[r], B)
            exact = exact_attribution(cf, metric)
            for i in range(3):
                for j in range(i + 1, 3):
                    pairs.append([r, i, j, exact.pair(i, j)])
        payload = {"pairs": pairs}
    else:
        values = []
        for r in range(C.shape[0]):
            cf = tree_characteristic(ens, C[r], B)
            values.append(exact_attribution(cf, metric).singles.tolist())
        payload = {"values": values}
    return {
        "model": model_to_dict(ens),
        "metric": metric.value,
        "mode": "background",
        "consumers": C.tolist(),
        "background": B.tolist(),
        **payload,
    }


@pytest.mark.parametrize("metric", [MetricKind.SHAPLEY, MetricKind.SHAPLEY_IV])
def test_selftest_with_oracle_reference_file(tmp_path, capsys, metric):
    ref = tmp_path / "reference.json"
    ref.write_text(json.dumps(_reference_doc(metric)))
    code = main(["selftest", "--formulas", "2", "--pipelines", "1",
                 "--reference", str(ref)])
    out = capsys.readouterr().out
    assert code == 0
    assert "external reference" in out


def test_selftest_detects_corrupted_reference(tmp_path, capsys):
    doc = _reference_doc(MetricKind.SHAPLEY)
    doc["values"][0][0] += 1e-3  # larger than the 1e-5 cross-check tolerance
    ref = tmp_path / "corrupt.json"
    ref.write_text(json.dumps(doc))
    code = main(["selftest", "--formulas", "2", "--pipelines", "1",
                 "--reference", str(ref)])
    out = capsys.readouterr().out
    assert code == 5
    assert "FAIL" in out


@pytest.mark.parametrize("mode, missing", [("baseline", "baseline_row"),
                                           ("background", "values")])
def test_reference_file_missing_key_exits_4(tmp_path, capsys, mode, missing):
    doc = _reference_doc(MetricKind.SHAPLEY)
    doc["mode"] = mode
    if mode == "baseline":
        doc["baseline_row"] = doc["background"][0]
    del doc[missing]
    ref = tmp_path / "reference.json"
    ref.write_text(json.dumps(doc))
    code = main(["selftest", "--formulas", "2", "--pipelines", "1",
                 "--reference", str(ref)])
    assert code == 4
    assert f"'{missing}'" in capsys.readouterr().err
