import csv
import io
import itertools
import json
import os
import stat
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from woodelf.cli import _text_sink, main
from woodelf.engine import woodelf
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


@pytest.mark.parametrize("suffix", [".csv", ".json"], ids=["csv", "json"])
def test_compute_output_is_deterministic_across_threads(toy, suffix):
    out1 = toy["dir"] / f"a{suffix}"
    out2 = toy["dir"] / f"b{suffix}"
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


@pytest.mark.parametrize("metric", [MetricKind.SHAPLEY, MetricKind.SHAPLEY_IV])
@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("rows", [0, 37])
def test_streamed_compute_csv_matches_csv_writer_bytes(tmp_path, capsys, metric,
                                                       threads, rows):
    """``compute`` streams its CSV row block by row block (several blocks
    with threads > 1), and the file still equals csv.writer over repr of the
    in-process values; a header-only consumers file gives a header-only
    output. ``--verify`` checks rows kept from the stream against the
    oracle, so a row kept from the wrong block would fail it."""
    rng = np.random.default_rng(18)
    ens = random_ensemble(rng, 3, 4, max_depth=3)
    names = list(ens.feature_names)
    model = tmp_path / "model.json"
    save_model(ens, str(model))
    C = random_data(rng, rows, 4)
    B = random_data(rng, 5, 4)
    paths = {}
    for label, data in (("consumers", C), ("background", B)):
        paths[label] = tmp_path / f"{label}.csv"
        np.savetxt(paths[label], data, fmt="%.17g", delimiter=",",
                   header=",".join(names), comments="")
    out = tmp_path / "out.csv"
    assert main(["compute", "--model", str(model), "--consumers",
                 str(paths["consumers"]), "--background", str(paths["background"]),
                 "--metric", metric.value, "--threads", str(threads),
                 "--verify", "5", "--out", str(out)]) == 0
    expected = _csv_writer_bytes(names, woodelf(ens, C, B, metric).values,
                                 metric.pairwise)
    assert out.read_bytes() == expected
    assert f"over {min(rows, 5)} rows" in capsys.readouterr().err


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("cause, suffix", [
    ("zero-cover", ".csv"), ("verify-over-player-cap", ".csv"),
    ("zero-cover", ".json"), ("verify-over-player-cap", ".json"),
], ids=["zero-cover", "verify-over-player-cap",
        "zero-cover-json", "verify-over-player-cap-json"])
def test_failed_compute_leaves_no_output(toy, capsys, cause, suffix, existing):
    # A zero cover passes validation but fails path-dependent mode inside
    # woodelf(), after the header is written: the partial file goes.
    # --verify over the oracle's feature cap fails before any work. An
    # earlier output at --out is left as it was.
    if cause == "zero-cover":
        doc = json.loads(json.dumps(MODEL_DOC))
        doc["trees"][0]["nodes"][3]["cover"] = 0.0
        consumers = toy["consumers"]
    else:
        rng = np.random.default_rng(19)
        doc = model_to_dict(random_ensemble(rng, 1, 21, max_depth=2))
        consumers = toy["dir"] / "wide.csv"
        np.savetxt(consumers, random_data(rng, 3, 21), delimiter=",",
                   header=",".join(doc["feature_names"]), comments="")
    model = toy["dir"] / "model.json"
    model.write_text(json.dumps(doc))
    out = toy["dir"] / f"x{suffix}"
    if existing:
        out.write_text("earlier results\n")
    before = sorted(toy["dir"].iterdir())
    assert main(["compute", "--model", str(model), "--consumers", str(consumers),
                 "--verify", "1", "--out", str(out)]) == 2
    assert sorted(toy["dir"].iterdir()) == before
    if existing:
        assert out.read_text() == "earlier results\n"
    assert ("covers" if cause == "zero-cover" else "--verify") in capsys.readouterr().err


@pytest.mark.parametrize("existing, suffix", [
    (False, ".csv"), (True, ".csv"), (False, ".json"), (True, ".json"),
], ids=["new", "existing", "new-json", "existing-json"])
def test_interrupted_compute_removes_only_its_partial_file(toy, monkeypatch,
                                                           existing, suffix):
    """Ctrl-C after the first row block was written leaves the directory as
    it was: the earlier output survives and the partial file is gone. The
    stub takes ``sink`` as a required keyword: both formats stream."""
    def interrupted(*args, sink, **kwargs):
        sink(0, np.zeros((1, 2)))
        raise KeyboardInterrupt
    monkeypatch.setattr("woodelf.cli.woodelf", interrupted)
    out = toy["dir"] / f"x{suffix}"
    if existing:
        out.write_text("earlier results\n")
    before = sorted(toy["dir"].iterdir())
    with pytest.raises(KeyboardInterrupt):
        main(["compute", "--model", toy["model"], "--consumers", toy["consumers"],
              "--background", toy["background"], "--out", str(out)])
    assert sorted(toy["dir"].iterdir()) == before
    if existing:
        assert out.read_text() == "earlier results\n"


def test_compute_replaces_an_existing_output_keeping_its_mode(toy):
    out = toy["dir"] / "x.csv"
    out.write_text("earlier results\n")
    out.chmod(0o640)
    argv = ["compute", "--model", toy["model"], "--consumers", toy["consumers"],
            "--background", toy["background"]]
    assert main(argv + ["--out", str(out)]) == 0
    assert main(argv + ["--out", str(toy["dir"] / "fresh.csv")]) == 0
    assert out.read_bytes() == (toy["dir"] / "fresh.csv").read_bytes()
    assert out.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in toy["dir"].iterdir() if p.name.startswith(".")) == []


def test_unwritable_output_exits_2_naming_it(toy, capsys):
    out = toy["dir"] / "missing" / "x.csv"
    assert main(["compute", "--model", toy["model"], "--consumers", toy["consumers"],
                 "--background", toy["background"], "--out", str(out)]) == 2
    assert f"cannot write {out}" in capsys.readouterr().err


def test_compute_writes_through_a_symlink_and_into_a_pipe(toy):
    """--out that is not a plain file is written in place: a symbolic link
    stays a link to the file it names, and a failed run into a pipe leaves
    the pipe where it was."""
    target = toy["dir"] / "target.csv"
    link = toy["dir"] / "link.csv"
    link.symlink_to(target)
    argv = ["compute", "--model", toy["model"], "--consumers", toy["consumers"]]
    assert main(argv + ["--background", toy["background"], "--out", str(link)]) == 0
    assert link.is_symlink()
    assert target.read_text().startswith("row_id,age,sugar\n")

    fifo = toy["dir"] / "pipe.csv"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        doc = json.loads(json.dumps(MODEL_DOC))
        doc["trees"][0]["nodes"][3]["cover"] = 0.0
        model = toy["dir"] / "zero_cover.json"
        model.write_text(json.dumps(doc))
        assert main(["compute", "--model", str(model), "--consumers",
                     toy["consumers"], "--out", str(fifo)]) == 2
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert os.read(reader, 1 << 16).startswith(b"row_id,age,sugar\n")
    finally:
        os.close(reader)


@pytest.mark.parametrize("suffix", [".csv", ".json"])
def test_compute_into_piped_stdout_gives_the_file_bytes(toy, suffix):
    """Status lines go to stderr, so ``--out /dev/stdout`` into a pipe
    carries exactly the bytes of the same run to a file. The format comes
    from the suffix, so JSON goes through a link ending in ``.json``."""
    src = os.path.dirname(os.path.dirname(sys.modules["woodelf"].__file__))
    argv = [sys.executable, "-m", "woodelf", "compute", "--model", toy["model"],
            "--consumers", toy["consumers"], "--background", toy["background"],
            "--metric", "shapley-iv", "--verify", "2", "--out"]
    env = dict(os.environ, PYTHONPATH=src)
    out = toy["dir"] / f"out{suffix}"
    stdout = "/dev/stdout"
    if suffix == ".json":
        stdout = toy["dir"] / "stdout.json"
        stdout.symlink_to("/dev/stdout")
    subprocess.run(argv + [str(out)], check=True, capture_output=True, timeout=60, env=env)
    piped = subprocess.run(argv + [str(stdout)], check=True, capture_output=True,
                           timeout=60, env=env)
    assert piped.stdout == out.read_bytes()
    assert b"wrote 2 rows" in piped.stderr and b"verify:" in piped.stderr


def test_streamed_json_memory_stays_flat_in_rows(tmp_path):
    # JSON streams like CSV: from 2k to 16k consumer rows of a pairwise
    # metric (66 values a row, about 75 MB more JSON), the peak grows by less
    # than the extra consumers CSV plus a fixed slack. The output goes
    # through a symbolic link to the null device.
    rng = np.random.default_rng(38)
    ens = random_ensemble(rng, 2, 12, max_depth=4)
    model = tmp_path / "model.json"
    save_model(ens, str(model))
    paths = {}
    for label, rows in (("background", 20), ("small", 2_000), ("large", 16_000)):
        paths[label] = tmp_path / f"{label}.csv"
        np.savetxt(paths[label], random_data(rng, rows, 12), fmt="%.17g", delimiter=",",
                   header=",".join(ens.feature_names), comments="")
    out = tmp_path / "out.json"
    out.symlink_to(os.devnull)

    def peak(consumers) -> int:
        tracemalloc.start()
        try:
            assert main(["compute", "--model", str(model), "--consumers", str(consumers),
                         "--background", str(paths["background"]),
                         "--metric", "shapley-iv", "--out", str(out)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    extra_input = paths["large"].stat().st_size - paths["small"].stat().st_size
    assert peak(paths["large"]) - peak(paths["small"]) < extra_input + 256 * 1024


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
           12345.678, 1e-4, 123456789012345.0, float("nan"), float("inf"),
           float("-inf")]


@pytest.mark.parametrize("metric", [MetricKind.SHAPLEY, MetricKind.SHAPLEY_IV])
@pytest.mark.parametrize("rows, names", [
    (4, ['we,ird "name"', "naïve €", "multi\nline", "plain", ""]),
    (10_000, ['we,ird "name"', "naïve €", "plain"]),
    (3, ["solo"]),
])
def test_write_result_matches_csv_writer_and_repr(metric, rows, names):
    """Both CSV layouts of ``compute``'s writer equal csv.writer over repr
    of each value, byte for byte: crafted values, names that need quoting or
    are not ASCII, and 10,000 rows, which span several row blocks and
    sub-blocks and row ids of 1 to 4 digits."""
    values = _crafted_values(metric, rows, len(names))
    assert _written(metric, names, values, as_json=False) == \
        _csv_writer_bytes(names, values, metric.pairwise)


def _crafted_values(metric, rows, h):
    width = h * (h - 1) // 2 if metric.pairwise else h
    rng = np.random.default_rng(rows)
    values = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-20, 20, (rows, width))
    spots = rng.choice(values.size, size=min(len(CRAFTED), values.size), replace=False)
    values.flat[spots] = CRAFTED[:spots.size]
    return values


def _written(metric, names, values, as_json):
    """The bytes ``compute``'s writer gives for ``values``, fed in 4,093-row
    blocks as the gather hands them over: (rows x width) views of a
    feature-major buffer."""
    buf = io.BytesIO()
    write, close = _text_sink(buf, metric, names, as_json)
    for start in range(0, len(values), 4093):
        write(start, np.ascontiguousarray(values[start:start + 4093].T).T)
    close(len(values))
    return buf.getvalue()


def _json_dump_bytes(metric, names, values):
    """``json.dump`` of the whole result as one document, with indent 1 and
    a final newline: the JSON writer's reference."""
    h = len(names)
    doc: dict = {"metric": metric.value, "feature_names": names}
    rows = []
    if metric.pairwise:
        for r in range(values.shape[0]):
            col = 0
            pairs = []
            for i in range(h):
                for j in range(i + 1, h):
                    pairs.append({"feature_i": names[i], "feature_j": names[j],
                                  "value": float(values[r, col])})
                    col += 1
            rows.append({"row_id": r, "pairs": pairs})
    else:
        for r in range(values.shape[0]):
            rows.append({
                "row_id": r,
                "values": {names[k]: float(values[r, k]) for k in range(h)},
            })
    doc["rows"] = rows
    return (json.dumps(doc, indent=1) + "\n").encode("utf-8")


@pytest.mark.parametrize("metric", list(MetricKind))
@pytest.mark.parametrize("rows, names", [
    (4, ['quo"te', "back\\slash", "multi\nline", "naïve €", "plain"]),
    (10_000, ['quo"te', "naïve €", "plain"]),
    (1, ["solo"]),
    (0, ["a", "b"]),
    (2, []),
])
def test_json_writer_matches_json_dump(metric, rows, names):
    """The JSON layouts equal ``json.dump(doc, indent=1)`` and a newline,
    byte for byte: names that need escapes, crafted values (nan and the
    infinities in JSON's spelling, -0.0, 5e-324), 10,000 rows over several
    row blocks and sub-blocks, one feature or none (no value columns), and
    no rows."""
    values = _crafted_values(metric, rows, len(names))
    assert _written(metric, names, values, as_json=True) == \
        _json_dump_bytes(metric, names, values)


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
    ("--pipelines", "0"), ("--pipelines", "-2"),
])
def test_out_of_range_numbers_exit_2_when_parsed(toy, capsys, flag, value):
    argv = ["selftest", flag, value] if flag == "--pipelines" else \
        ["compute", "--model", toy["model"], "--consumers", toy["consumers"],
         flag, value, "--out", str(toy["dir"] / "x.csv")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not (toy["dir"] / "x.csv").exists()


@pytest.mark.parametrize("argv", [
    ["compute", "--model", "m.json", "--consumers", "c.csv", "--out", "o.csv",
     "--mode", "baseline"],
    ["selftest", "--pipe", "2"],
    ["selftest", "--formulas", "2"],
], ids=["compute", "selftest", "selftest-formulas"])
def test_flag_prefixes_are_not_expanded(capsys, argv):
    # A retired or shortened flag is an unknown argument (exit 2), not a
    # prefix of --model or --pipelines.
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
    captured = capsys.readouterr().err
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
    code = main(["selftest", "--pipelines", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    assert "deviation" in out
    assert "golden shapley values" in out and "9/9 checks passed" in out


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
    code = main(["selftest", "--pipelines", "1", "--reference", str(ref)])
    out = capsys.readouterr().out
    assert code == 0
    assert "external reference" in out


def test_selftest_detects_corrupted_reference(tmp_path, capsys):
    doc = _reference_doc(MetricKind.SHAPLEY)
    doc["values"][0][0] += 1e-3  # larger than the 1e-5 cross-check tolerance
    ref = tmp_path / "corrupt.json"
    ref.write_text(json.dumps(doc))
    code = main(["selftest", "--pipelines", "1", "--reference", str(ref)])
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
    code = main(["selftest", "--pipelines", "1", "--reference", str(ref)])
    assert code == 4
    assert f"'{missing}'" in capsys.readouterr().err


@pytest.mark.parametrize("model, pair, code, message", [
    ("missing.json", None, 3, "missing.json"),
    (7, None, 4, "'model'"),
    (None, (4, 0, 1), 4, "pairs[0]"),
    (None, (-1, 0, 1), 4, "pairs[0]"),
    (None, (0, 1, 1), 4, "pairs[0]"),
    (None, (0, 2, 1), 4, "pairs[0]"),
    (None, (0, 0, 3), 4, "pairs[0]"),
], ids=["missing-model-file", "model-not-object-or-path", "row-past-end",
        "negative-row", "same-feature", "features-out-of-order", "feature-past-end"])
def test_malformed_reference_entry_exits_with_its_code(tmp_path, capsys, model, pair,
                                                       code, message):
    # 4 consumer rows and 3 features: each bad entry exits with a code and
    # names itself, instead of a traceback or a comparison of another pair.
    doc = _reference_doc(MetricKind.SHAPLEY_IV)
    if model is not None:
        doc["model"] = model if isinstance(model, int) else str(tmp_path / model)
    if pair is not None:
        doc["pairs"][0][:3] = pair
    ref = tmp_path / "reference.json"
    ref.write_text(json.dumps(doc))
    assert main(["selftest", "--pipelines", "1", "--reference", str(ref)]) == code
    assert message in capsys.readouterr().err


def test_duplicate_feature_names_exit_3(toy, capsys):
    doc = json.loads(json.dumps(MODEL_DOC))
    doc["feature_names"] = ["age", "age"]
    model = toy["dir"] / "twice.json"
    model.write_text(json.dumps(doc))
    assert main(["compute", "--model", str(model), "--consumers", toy["consumers"],
                 "--out", str(toy["dir"] / "x.json")]) == 3
    assert "'age'" in capsys.readouterr().err
    assert not (toy["dir"] / "x.json").exists()
