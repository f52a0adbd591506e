"""Processes the benchmark measures, each started fresh by ``run.py``.

    child.py spawn RESULT OUT ERR CMD...  run CMD; its wall time and peak RSS
    child.py setup MODEL           time `import woodelf` plus load_model(MODEL)
    child.py calls TASK.json       run the timed woodelf() calls of a workload
    child.py cli SPANS.json ARGS   `python -m woodelf ARGS` with the tracer on

Only the standard library is imported at module level, so ``setup`` times
the whole import of the program and its dependencies, and ``spawn`` stays a
lean parent (see ``spawn``).
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def spawn(result_path: str, out_path: str, err_path: str, cmd: list[str]) -> None:
    """Run ``cmd`` to completion and write its wall time and peak RSS.

    The peak comes from ``wait4``. On Linux a process's peak RSS starts at
    the peak of the address space it replaced at ``exec``, which for a
    (v)forked child is its parent's; this launcher has imported nothing but
    the standard library, so that floor stays at a bare interpreter's size
    instead of the benchmark's own.
    """
    proc = None

    def stop(signum, frame):
        if proc is not None:
            proc.kill()
            proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    Path(result_path).write_text(json.dumps({
        "wall": wall, "returncode": proc.returncode,
        "peak_rss_mb": usage.ru_maxrss / 1024.0}))


def timed_loop(run_one, seconds: float, trace: bool, min_warm: int = 1) -> list[dict]:
    """A cold call, then warm calls until ``seconds`` have passed since the
    cold call began, at least ``min_warm`` untraced warm calls ran and, when
    tracing, at least one traced warm call.

    ``run_one(traced)`` performs one call and returns its record. Untraced,
    every call is untraced. Traced, the cold call and every second warm call
    are traced and the warm calls between them are not, so one process gives
    both the per-layer spans and the tracing overhead.
    """
    records = []
    start = time.perf_counter()
    while True:
        index = len(records)
        record = run_one(trace and index % 2 == 0)
        record["cold"] = index == 0
        records.append(record)
        warm = records[1:]
        enough = sum(not r["traced"] for r in warm) >= min_warm and \
            (not trace or any(r["traced"] for r in warm))
        if enough and time.perf_counter() - start >= seconds:
            return records


def _check_source(module) -> None:
    if not Path(module.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"woodelf was imported from {module.__file__}, not from {SRC}")


def setup(model_path: str) -> None:
    start = time.perf_counter()
    import woodelf
    woodelf.load_model(model_path)
    elapsed = time.perf_counter() - start
    _check_source(woodelf)
    print(json.dumps({"setup_s": elapsed}))


def calls(task_path: str) -> None:
    task = json.loads(Path(task_path).read_text())
    workdir = Path(task["workdir"])
    import numpy as np
    import woodelf
    from tracer import Tracer
    _check_source(woodelf)

    tracer = Tracer() if task["trace"] else None
    with tracer.installed() if tracer else nullcontext():
        ensemble = woodelf.load_model(task["model"])
    consumers = np.load(task["consumers"])
    background = np.load(task["background"]) if task["background"] else None

    def run_one(traced: bool) -> dict:
        values, error = None, None
        with tracer.installed() if traced else nullcontext():
            start = time.perf_counter()
            try:
                values = woodelf.woodelf(ensemble, consumers, background, task["metric"],
                                         threads=task["threads"]).values
            except Exception as exc:    # counted as failed rows, not fatal
                error = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - start
        record = {"wall": wall, "traced": traced, "output": None, "error": error}
        if values is not None:
            if task["fault"]:
                values = values.copy()
                values[0, 0] += 1e-6
            # One file per distinct output, shared by the run's processes.
            digest = hashlib.blake2b(np.ascontiguousarray(values).tobytes(),
                                     digest_size=8).hexdigest()
            path = workdir / f"output-{digest}.npy"
            if not path.exists():
                np.save(path, values)
            record["output"] = digest
        return record

    records = timed_loop(run_one, task["seconds"], task["trace"])
    report = {"records": records}
    if tracer is not None:
        report.update(absent=tracer.absent, counts=tracer.counts(),
                      spans=tracer.span_records())
    Path(task["report"]).write_text(json.dumps(report))


def traced_cli(spans_path: str, argv: list[str]) -> None:
    import runpy
    import woodelf.cli
    from tracer import Tracer
    _check_source(woodelf)
    tracer = Tracer()
    code = 0
    with tracer.installed():
        sys.argv = ["woodelf", *argv]
        try:
            runpy.run_module("woodelf", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            code = exc.code
    Path(spans_path).write_text(json.dumps({
        "absent": tracer.absent, "counts": tracer.counts(),
        "spans": tracer.span_records(),
    }))
    sys.exit(code)


if __name__ == "__main__":
    command, *rest = sys.argv[1:]
    if command == "spawn":
        spawn(rest[0], rest[1], rest[2], rest[3:])
    elif command == "setup":
        setup(*rest)
    elif command == "calls":
        calls(*rest)
    elif command == "cli":
        traced_cli(rest[0], rest[1:])
    else:
        raise SystemExit(f"unknown command {command!r}")
