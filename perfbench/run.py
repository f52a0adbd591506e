"""The woodelf benchmark: workloads through the public API and the CLI.

    python3 perfbench/run.py --workload bg-wide --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload of ``workloads.WORKLOADS`` in turn,
including ``pd-deep``, which ``BENCHMARK.json`` does not list. For each run it

1. writes the workload's inputs for ``--seed`` into ``.bench_work/``;
2. times set-up in fresh processes (``import woodelf`` plus ``load_model``)
   and reports the median;
3. runs the workload in ``PROCESSES`` fresh processes that share the
   ``--seconds`` window: each makes a cold call, then warm calls (for
   ``cli-iv`` every call is a fresh ``python -m woodelf compute`` process);
4. checks every output outside the timed calls (efficiency axiom, exact
   oracle on a fixed row sample, bit-for-bit agreement between calls and,
   for the CLI, with an in-process ``threads=1`` result);
5. prints a readable report, then one JSON line: end-to-end metrics with
   ``--trace 0``, per-layer metrics from the outside-in tracer with
   ``--trace 1``. Metric names and units are those of ``BENCHMARK.json``.

``error_rate`` (failed rows over attempted rows) is the result line's
``failed`` / ``attempted`` and is printed in the report. The default seed is
``workloads.DEFAULT_SEED``; re-check a claim on ``workloads.HELD_OUT_SEED``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import child
import checks
import tracer
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS, Workload, describe, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 15
PROCESSES = 4       # fresh processes per API run, each a cold and >= 1 warm call
MIN_WARM = 3        # untraced warm calls of a cli-iv run, even past --seconds

# How each per-layer metric of BENCHMARK.json is read from the traced calls:
# metric -> (span or counter name, measure). Measures of a span are totals
# per traced call; "per_span_self_s" is self time per span; "count" is a
# counter per traced call; "hit_ratio", "out_bytes" and "overhead" are
# computed in ``layer_value``.
LAYERS = {
    "engine.woodelf.self_s": ("engine.woodelf", "self_s"),
    "engine.frequencies.self_s": ("engine.frequencies", "self_s"),
    "patterns.calc_decision_patterns.self_s": ("patterns.calc_decision_patterns", "self_s"),
    "patterns.calc_decision_patterns.calls": ("patterns.calc_decision_patterns", "calls"),
    "patterns.rows": ("patterns.calc_decision_patterns", "rows"),
    "patterns.bytes": ("patterns.calc_decision_patterns", "bytes"),
    "cube_mapping.cache_get.calls": ("cube_mapping.cache_get", "calls"),
    "cube_mapping.map_patterns_to_cube.calls": ("cube_mapping.map_patterns_to_cube", "calls"),
    "cube_mapping.map_patterns_to_cube.self_s": ("cube_mapping.map_patterns_to_cube", "self_s"),
    "cube_mapping.hit_ratio": ("cube_mapping.map_patterns_to_cube", "hit_ratio"),
    "cube_mapping.entries": ("cube_mapping.map_patterns_to_cube", "entries"),
    "formula_core.cube_metric.calls": ("formula_core.cube_metric", "count"),
    "engine.build_contribution_matrices.calls": ("engine.build_contribution_matrices", "calls"),
    "engine.build_contribution_matrices.self_s": ("engine.build_contribution_matrices", "self_s"),
    "engine.build_contribution_matrices.nnz": ("engine.build_contribution_matrices", "nnz"),
    "engine.build_score_vectors.calls": ("engine.build_score_vectors", "calls"),
    "engine.build_score_vectors.self_s": ("engine.build_score_vectors", "self_s"),
    "tree_model.load_model.self_s": ("tree_model.load_model", "per_span_self_s"),
    "tree_model.load_data.self_s": ("tree_model.load_data", "self_s"),
    "tree_model.load_data.rows": ("tree_model.load_data", "rows"),
    "cli.main.self_s": ("cli.main", "self_s"),
    "cli.out_bytes": ("cli.main", "out_bytes"),
    "trace.overhead": (None, "overhead"),
}


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class BenchmarkError(Exception):
    """The benchmark itself cannot run (missing program, broken child)."""


def _median_quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _spawn(cmd: list[str], workdir: Path, tag: str) -> dict:
    """Run one process to completion through the lean launcher
    ``child.py spawn``, which reads its wall time and peak RSS from outside."""
    paths = [workdir / f"{tag}.{ext}" for ext in ("result.json", "out", "err")]
    launcher = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), "spawn", *map(str, paths), *cmd],
        cwd=ROOT, env=_env())
    try:
        code = launcher.wait()
    except BaseException:
        launcher.terminate()
        launcher.wait()
        raise
    if code != 0:
        raise BenchmarkError(f"the launcher exited with {code} running {cmd}")
    result = json.loads(paths[0].read_text())
    result["stdout"] = paths[1].read_text(errors="replace")
    result["stderr"] = paths[2].read_text(errors="replace")
    return result


def _expect_ok(result: dict, what: str) -> None:
    if result["returncode"] != 0:
        raise BenchmarkError(f"{what} exited with {result['returncode']}:\n{result['stderr']}")


def measure_setup(model_path: Path) -> list[float]:
    """Set-up time of ``SETUP_REPEATS`` fresh processes, each timing itself."""
    times = []
    for _ in range(SETUP_REPEATS):
        result = subprocess.run([sys.executable, str(HERE / "child.py"), "setup",
                                 str(model_path)], cwd=ROOT, env=_env(),
                                capture_output=True, text=True)
        if result.returncode != 0:
            raise BenchmarkError(f"set-up probe exited with {result.returncode}:\n"
                                 f"{result.stderr}")
        times.append(json.loads(result.stdout.strip().splitlines()[-1])["setup_s"])
    return times


# ---------------------------------------------------------------------------
# Running the workload

def run_api(w: Workload, inputs, workdir: Path, seconds: float, trace: bool,
            fault: bool) -> dict:
    """``PROCESSES`` fresh processes in turn, each with its share of the
    window; outputs are saved once per distinct content."""
    records, traces, peaks = [], [], []
    for p in range(PROCESSES):
        task = {
            "workdir": str(workdir), "model": str(inputs.model_path),
            "consumers": str(inputs.consumers_path),
            "background": str(inputs.background_path) if inputs.background_path else None,
            "metric": w.metric, "threads": w.threads, "seconds": seconds / PROCESSES,
            "trace": trace, "fault": fault, "report": str(workdir / f"child{p}.json"),
        }
        (workdir / f"task{p}.json").write_text(json.dumps(task))
        result = _spawn([sys.executable, str(HERE / "child.py"), "calls",
                         str(workdir / f"task{p}.json")], workdir, f"calls{p}")
        _expect_ok(result, "workload process")
        report = json.loads(Path(task["report"]).read_text())
        records += report["records"]
        traces += [report] if trace else []
        peaks.append(result["peak_rss_mb"])
    outputs = {k: np.load(workdir / f"output-{k}.npy")
               for k in {r["output"] for r in records} - {None}}
    return {"records": records, "peak_rss_mb": peaks, "traces": traces,
            "outputs": outputs, "out_bytes": []}


def run_cli(w: Workload, inputs, workdir: Path, seconds: float, trace: bool) -> dict:
    """Every call is a fresh `python -m woodelf compute` process."""
    args = ["compute", "--model", str(inputs.model_path),
            "--consumers", str(inputs.consumers_path),
            "--metric", w.metric, "--threads", str(w.threads)]
    if inputs.background_path is not None:
        args += ["--background", str(inputs.background_path)]
    digests: dict[str, int] = {}
    traces, out_bytes, peaks = [], [], []
    indices = itertools.count()

    def run_one(traced: bool) -> dict:
        index = next(indices)
        out = workdir / f"cli{index}.csv"
        call = args + ["--out", str(out)]
        if traced:
            spans = workdir / f"spans{index}.json"
            cmd = [sys.executable, str(HERE / "child.py"), "cli", str(spans), *call]
        else:
            cmd = [sys.executable, "-m", "woodelf", *call]
        result = _spawn(cmd, workdir, f"cli{index}")
        record = {"wall": result["wall"], "traced": traced, "output": None,
                  "error": None if result["returncode"] == 0 else result["stderr"][-2000:]}
        if not traced:
            peaks.append(result["peak_rss_mb"])
        if traced and spans.exists():
            traces.append(json.loads(spans.read_text()))
        if result["returncode"] == 0 and out.exists():
            out_bytes.append(out.stat().st_size)
            digest = hashlib.blake2b(out.read_bytes()).hexdigest()
            if digest in digests:
                out.unlink()
            else:
                digests[digest] = index
            record["output"] = digests[digest]
        return record

    records = child.timed_loop(run_one, seconds, trace, MIN_WARM)
    return {"records": records, "peak_rss_mb": peaks, "traces": traces,
            "outputs": {k: workdir / f"cli{k}.csv" for k in set(digests.values())},
            "out_bytes": out_bytes}


# ---------------------------------------------------------------------------
# Checking

def check(w: Workload, inputs, seed: int, run: dict) -> dict:
    """Failed rows per call: rows failing a check on that call's output,
    rows differing bit for bit from the reference, and every row of a call
    that raised."""
    from woodelf import woodelf
    tol = checks.tolerance()
    n = inputs.consumers.shape[0]
    sample = checks.sample_rows(n, w.oracle_rows, seed)
    bad: dict = {}
    if w.via_cli:
        # The reference is the in-process single-threaded result.
        try:
            reference = woodelf(inputs.ensemble, inputs.consumers, inputs.background,
                                w.metric, threads=1).values
        except Exception:
            reference = None
        if reference is not None:
            reference_bad = checks.oracle_failures(
                inputs.ensemble, inputs.consumers, inputs.background, w.metric,
                reference, sample, tol)
        for k, path in run["outputs"].items():
            if reference is None:
                bad[k] = np.ones(n, dtype=bool)
                continue
            values, malformed = checks.read_pair_csv(path, inputs.ensemble.feature_names, n)
            bad[k] = malformed | reference_bad | checks.bitwise_differences(values, reference)
    else:
        totals = checks.efficiency_totals(inputs.ensemble, inputs.consumers, inputs.background)
        first = None
        for k in sorted(run["outputs"]):
            values = run["outputs"][k]
            if values.shape[0] != n or values.ndim != 2:
                bad[k] = np.ones(n, dtype=bool)
                continue
            failed = checks.efficiency_failures(values, totals, tol) | checks.oracle_failures(
                inputs.ensemble, inputs.consumers, inputs.background, w.metric,
                values, sample, tol)
            if first is None:
                first = values
            elif values.shape == first.shape:
                failed |= checks.bitwise_differences(values, first)
            else:
                failed[:] = True
            bad[k] = failed
    attempted = failed = 0
    for record in run["records"]:
        attempted += n
        k = record["output"]
        failed += n if k is None else int(np.count_nonzero(bad[k]))
    return {"attempted": attempted, "failed": failed, "oracle_rows": sample,
            "errors": [r["error"] for r in run["records"] if r["error"]]}


# ---------------------------------------------------------------------------
# Metrics

def end_to_end(w: Workload, run: dict, setup: list[float]) -> tuple[dict, dict]:
    records = run["records"]
    # Every CLI call is the first call of a fresh process.
    first = [r["wall"] for r in records if w.via_cli or r["cold"]]
    warm = [r["wall"] for r in records if not r["cold"] and not r["traced"]]
    stats = {
        "first_call_s": _median_quartiles(first),
        "warm_call_s": _median_quartiles(warm),
        "rows_per_s": _median_quartiles([w.consumers / t for t in warm]),
        "setup_s": _median_quartiles(setup),
        "peak_rss_mb": _median_quartiles(run["peak_rss_mb"]),
    }
    values = {
        "rows_per_s": w.consumers / stats["warm_call_s"]["median"],
        "first_call_s": stats["first_call_s"]["median"],
        "setup_s": stats["setup_s"]["median"],
        "peak_rss_mb": stats["peak_rss_mb"]["median"],
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec()["end_to_end"]}
    return metrics, stats


def layer_shares(docs: list[dict]) -> dict[str, float]:
    """Seconds per layer group over all traced calls, for the share report.

    gather: the engine's own time plus the consumer patterns it asked for;
    dictionaries_and_matrices: dictionary lookups and builds plus contribution
    matrices; output_writing: the CLI's own time (argument parsing and
    writing)."""
    out = {"gather": 0.0, "frequencies": 0.0, "dictionaries_and_matrices": 0.0,
           "score_vectors": 0.0, "output_writing": 0.0, "loading": 0.0}
    for doc in docs:
        names = {s["id"]: s["name"] for s in doc["spans"]}
        selfs = tracer.self_times(doc["spans"])
        for s in doc["spans"]:
            total = s["end"] - s["start"]
            name, parent = s["name"], names.get(s["parent"])
            if name == "engine.woodelf" or (
                    name == "patterns.calc_decision_patterns" and parent == "engine.woodelf"):
                out["gather"] += selfs[s["id"]]
            elif name == "engine.frequencies":
                out["frequencies"] += total
            elif name in ("cube_mapping.cache_get", "engine.build_contribution_matrices"):
                out["dictionaries_and_matrices"] += total
            elif name == "engine.build_score_vectors":
                out["score_vectors"] += total
            elif name == "cli.main":
                out["output_writing"] += selfs[s["id"]]
            elif name in ("tree_model.load_model", "tree_model.load_data") \
                    and parent == "cli.main":
                out["loading"] += total
    return out


def layer_value(span: str | None, measure: str, run: dict, summary: dict,
                counts: dict, absent: set) -> float | None:
    """One per-layer number, or None if the program no longer has ``span``."""
    if span in absent:
        return None
    traced_calls = sum(r["traced"] for r in run["records"])
    agg = summary.get(span, {})
    if measure == "per_span_self_s":
        return agg.get("self_s", 0.0) / max(agg.get("calls", 0), 1)
    if measure == "count":
        return counts.get(span, 0) / traced_calls
    if measure == "hit_ratio":
        gets = summary.get("cube_mapping.cache_get", {}).get("calls", 0)
        return 1.0 - agg.get("calls", 0) / gets if gets else None
    if measure == "out_bytes":
        return statistics.mean(run["out_bytes"]) if run["out_bytes"] else 0
    if measure == "overhead":
        warm = [r for r in run["records"] if not r["cold"]]
        traced = statistics.median(r["wall"] for r in warm if r["traced"])
        return traced / statistics.median(r["wall"] for r in warm if not r["traced"])
    return agg.get(measure, 0) / traced_calls


def per_layer(run: dict) -> tuple[dict, dict]:
    docs = run["traces"]
    absent = set().union(*(d["absent"] for d in docs)) if docs else set()
    summary: dict[str, dict] = {}
    counts: dict[str, int] = {}
    for doc in docs:
        for name, agg in tracer.summarize(doc["spans"]).items():
            into = summary.setdefault(name, {})
            for key, value in agg.items():
                into[key] = into.get(key, 0) + value
        for name, n in doc["counts"].items():
            counts[name] = counts.get(name, 0) + n

    metrics: dict[str, dict] = {}
    for m in spec()["per_layer"]:
        span, measure = LAYERS[m["name"]]
        value = layer_value(span, measure, run, summary, counts, absent)
        if value is not None:
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    traced_calls = [r for r in run["records"] if r["traced"]]
    seconds = layer_shares(docs)
    call_total = sum(r["wall"] for r in traced_calls)
    return metrics, {"absent": sorted(absent), "layer_seconds_per_call":
                     {k: v / len(traced_calls) for k, v in seconds.items()},
                     "layer_share_of_call": {k: v / call_total for k, v in seconds.items()},
                     "traced_calls": len(traced_calls)}


# ---------------------------------------------------------------------------

def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 fault: bool = False, keep_outputs: bool = False) -> dict:
    started = time.perf_counter()
    workdir = WORK / f"{w.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    phases = {}
    mark = started
    inputs = generate(w, seed, workdir)
    descriptors = describe(inputs.ensemble)
    phases["generate"], mark = time.perf_counter() - mark, time.perf_counter()
    setup = measure_setup(inputs.model_path)
    phases["setup"], mark = time.perf_counter() - mark, time.perf_counter()
    if w.via_cli:
        if fault:
            raise BenchmarkError("fault injection applies to in-process workloads")
        run = run_cli(w, inputs, workdir, seconds, trace)
    else:
        run = run_api(w, inputs, workdir, seconds, trace, fault)
    phases["calls"], mark = time.perf_counter() - mark, time.perf_counter()
    outcome = check(w, inputs, seed, run)
    phases["check"] = time.perf_counter() - mark

    if trace:
        metrics, detail = per_layer(run)
    else:
        metrics, detail = end_to_end(w, run, setup)
    error_rate = outcome["failed"] / outcome["attempted"]
    report = {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": trace,
        "descriptors": descriptors, "detail": detail, "metrics": metrics,
        "error_rate": error_rate, "check": outcome,
        "calls": [{k: r[k] for k in ("wall", "cold", "traced", "error")} for r in run["records"]],
        "setup_s": setup, "phase_s": phases,
    }
    (workdir / "report.json").write_text(json.dumps(report, indent=1))
    if not keep_outputs:    # inputs and outputs; the reports stay
        for path in list(workdir.glob("*.npy")) + list(workdir.glob("*.csv")):
            path.unlink()

    print(f"== {w.name}  seed {seed}  trace {int(trace)}  ({w.why})")
    print(f"   descriptors: {json.dumps(descriptors)}")
    print(f"   calls: {len(run['records'])} (C cold, T traced), walls "
          + " ".join(f"{r['wall']:.3f}{'C' if r['cold'] else ''}{'T' if r['traced'] else ''}"
                     for r in run["records"]))
    for name, m in metrics.items():
        print(f"   {name:<44} {m['value']:.6g} {m['unit']}")
    for name, value in detail.items():
        print(f"   {name}: {json.dumps(value)}")
    print(f"   error_rate {error_rate:.6g} fraction ({outcome['failed']} of "
          f"{outcome['attempted']} rows failed; oracle rows {outcome['oracle_rows']})")
    for error in outcome["errors"][:3]:
        print(f"   call error: {error}")
    print(f"   run took {time.perf_counter() - started:.1f} s ("
          + ", ".join(f"{k} {v:.1f}" for k, v in phases.items()) + ")")
    return {"correct": outcome["failed"] == 0, "attempted": outcome["attempted"],
            "failed": outcome["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; held out: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measurement window per run, from the cold call on")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "woodelf" / "__init__.py").is_file():
        print(f"error: the program is missing: no {SRC / 'woodelf'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(WORKLOADS[name], args.seed, args.seconds,
                                      bool(args.trace)) for name in names}
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        line = next(iter(results.values()))
    else:
        line = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": m for name, r in results.items()
                        for metric, m in r["metrics"].items()},
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
