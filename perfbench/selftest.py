"""The benchmark's own tests, on scaled-down workloads.

    python3 perfbench/selftest.py          (or: python3 -m pytest perfbench/selftest.py)
"""

from __future__ import annotations

import dataclasses
import io
import resource
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, describe, generate  # noqa: E402


def _tiny(name: str) -> run.Workload:
    w = WORKLOADS[name]
    return dataclasses.replace(w, trees=3, depth=4, consumers=150,
                               background=40 if w.background else 0, oracle_rows=2)


def _quiet(fn, *args, **kwargs):
    with redirect_stdout(io.StringIO()):
        return fn(*args, **kwargs)


def _ensemble_and_data(seed: int = 5):
    from woodelf import synth
    rng = np.random.default_rng(seed)
    ensemble = synth.random_ensemble(rng, 3, 6, 4, with_covers=True, full=True)
    return ensemble, synth.random_data(rng, 300, 6), synth.random_data(rng, 30, 6)


def test_injected_wrong_value_makes_error_rate_nonzero():
    for name in ("bg-wide", "pd-deep"):
        clean = _quiet(run.run_workload, _tiny(name), 3, 0.0, False)
        assert clean["correct"] and clean["failed"] == 0, clean
        faulty = _quiet(run.run_workload, _tiny(name), 3, 0.0, False, fault=True)
        assert not faulty["correct"]
        assert faulty["failed"] > 0 and faulty["attempted"] >= faulty["failed"]


def test_cli_output_check_catches_a_changed_cell():
    w = _tiny("cli-iv")
    result = _quiet(run.run_workload, w, 3, 0.0, False, keep_outputs=True)
    assert result["correct"], result
    workdir = run.WORK / f"{w.name}-seed3-trace0"
    from woodelf import woodelf
    inputs = generate(w, 3, workdir)
    reference = woodelf(inputs.ensemble, inputs.consumers, inputs.background,
                        w.metric, threads=1).values
    path = workdir / "cli0.csv"
    names = inputs.ensemble.feature_names
    values, malformed = checks.read_pair_csv(path, names, w.consumers)
    assert not malformed.any() and not checks.bitwise_differences(values, reference).any()

    lines = path.read_text().split("\n")
    head, _, cell = lines[7].rpartition(",")
    lines[7] = f"{head},{float(cell) + 1e-6!r}"
    path.write_text("\n".join(lines))
    values, malformed = checks.read_pair_csv(path, names, w.consumers)
    assert checks.bitwise_differences(values, reference).nonzero()[0].tolist() == [0]


def test_traced_and_untraced_outputs_are_bit_identical():
    from woodelf import woodelf
    ensemble, consumers, background = _ensemble_and_data()
    for bg, metric, threads in ((background, "shapley", 2), (None, "shapley", 1),
                                (background, "shapley-iv", 2)):
        plain = woodelf(ensemble, consumers, bg, metric, threads=threads).values
        t = tracer.Tracer()
        with t.installed():
            import woodelf as package
            traced = package.woodelf(ensemble, consumers, bg, metric, threads=threads).values
        assert plain.tobytes() == traced.tobytes()
        names = {s[1] for s in t.spans}
        assert {"engine.woodelf", "patterns.calc_decision_patterns",
                "engine.build_score_vectors"} <= names
        assert t.counts()["formula_core.cube_metric"] > 0


def test_every_wrapped_name_is_restored():
    before = tracer.originals()
    ensemble, consumers, background = _ensemble_and_data()
    t = tracer.Tracer()
    try:
        with t.installed():
            import woodelf as package
            assert package.woodelf is not before["woodelf:woodelf"]
            package.woodelf(ensemble, consumers, background, "banzhaf")
            raise KeyError("escape")
    except KeyError:
        pass
    after = tracer.originals()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_peak_rss_is_the_measured_process_own():
    # A (v)forked child's peak RSS starts at its parent's peak; the launcher
    # must keep this process's 200 MiB out of the reading.
    ballast = np.ones(200 * 2**20 // 8)
    workdir = run.WORK / "selftest-rss"
    workdir.mkdir(parents=True, exist_ok=True)
    result = run._spawn([sys.executable, "-c", "pass"], workdir, "bare")
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    assert result["returncode"] == 0 and ballast.sum() > 0
    assert own > 200 and result["peak_rss_mb"] < 50, (own, result["peak_rss_mb"])


def test_missing_function_is_recorded_absent():
    targets = tracer.TARGETS + (
        tracer.Target("woodelf.engine", "no_such_function", "engine.gone"),
        tracer.Target("woodelf.cube_mapping", "NoSuchClass.get", "cube_mapping.gone"),
    )
    t = tracer.Tracer(targets)
    with t.installed():
        pass
    assert t.absent == ["cube_mapping.gone", "engine.gone"]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"id": 1, "name": "a", "start": 0.0, "end": 10.0, "parent": None, "extra": None},
        {"id": 2, "name": "b", "start": 1.0, "end": 4.0, "parent": 1, "extra": None},
        {"id": 3, "name": "b", "start": 3.0, "end": 6.0, "parent": 1, "extra": None},
        {"id": 4, "name": "c", "start": 8.0, "end": 12.0, "parent": 1, "extra": None},
    ]
    selfs = tracer.self_times(spans)
    assert selfs == {1: 3.0, 2: 3.0, 3: 3.0, 4: 4.0}


def test_same_seed_gives_identical_inputs():
    w = _tiny("cli-iv")
    files = []
    for k in range(2):
        workdir = run.WORK / f"selftest-inputs{k}"
        workdir.mkdir(parents=True, exist_ok=True)
        inputs = generate(w, 11, workdir)
        files.append([p.read_bytes() for p in (inputs.model_path, inputs.consumers_path,
                                               inputs.background_path)])
    assert files[0] == files[1]
    other = run.WORK / "selftest-inputs2"
    other.mkdir(parents=True, exist_ok=True)
    assert generate(w, 12, other).model_path.read_bytes() != files[0][0]


def test_seeds_share_the_repeat_structures_but_not_the_splits():
    w = _tiny("pd-deep")
    models = []
    for seed in (21, 22):
        workdir = run.WORK / f"selftest-layout{seed}"
        workdir.mkdir(parents=True, exist_ok=True)
        models.append(generate(w, seed, workdir).ensemble)
    assert describe(models[0]) == describe(models[1])
    splits = [[(n.feature, n.threshold) for t in m.trees for n in t.nodes if not n.is_leaf]
              for m in models]
    assert splits[0] != splits[1]
    assert [f for f, _ in splits[0]] != [f for f, _ in splits[1]]


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} passed")
