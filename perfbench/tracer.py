"""Outside-in tracer: wraps the program's functions under the names their
callers look them up by, records spans in memory and restores every name.

Nothing inside the library is edited. A span is (id, name, start, end,
parent, thread, extra); a counted target records no span, only a per-thread
call count. Spans opened in a worker thread with no open span of their own
are parented to the innermost open span of the main thread, so the threaded
gather's work lands under the ``woodelf()`` call that started it.

A name none of whose targets the program still has is recorded in
``absent``, and its metrics are left out of the report instead of failing
the run.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

SPAN = "span"
COUNT = "count"


def _patterns_extra(result) -> dict:
    arrays = result.patterns.values()
    return {"rows": result.num_rows, "bytes": sum(a.nbytes for a in arrays)}


def _entries_extra(result) -> dict:
    return {"entries": len(result.entries)}


def _nnz_extra(result) -> dict:
    return {"nnz": sum(m.nnz for m in result.values())}


def _rows_extra(result) -> dict:
    return {"rows": result.num_rows}


@dataclass(frozen=True)
class Target:
    module: str            # module whose namespace the caller reads
    attr: str              # attribute, or "Class.method"
    name: str              # span or counter name
    kind: str = SPAN
    extra: Callable | None = None   # result -> {measure: number}


# Each function is wrapped where its caller finds it: the benchmark calls
# ``woodelf.woodelf`` and ``woodelf.load_model``; the CLI reads its own module
# globals; the engine reads its globals for patterns, frequencies, score
# construction and the per-cube metrics; the dictionary cache reads
# ``cube_mapping.map_patterns_to_cube``; ``python -m woodelf`` imports
# ``woodelf.cli.main``.
TARGETS = (
    Target("woodelf", "woodelf", "engine.woodelf"),
    Target("woodelf.cli", "woodelf", "engine.woodelf"),
    Target("woodelf.engine", "background_frequencies", "engine.frequencies"),
    Target("woodelf.engine", "path_dependent_frequencies", "engine.frequencies"),
    Target("woodelf.engine", "calc_decision_patterns",
           "patterns.calc_decision_patterns", extra=_patterns_extra),
    Target("woodelf.cube_mapping", "DictionaryCache.get", "cube_mapping.cache_get"),
    Target("woodelf.cube_mapping", "map_patterns_to_cube",
           "cube_mapping.map_patterns_to_cube", extra=_entries_extra),
    Target("woodelf.engine", "cube_shapley", "formula_core.cube_metric", COUNT),
    Target("woodelf.engine", "cube_banzhaf", "formula_core.cube_metric", COUNT),
    Target("woodelf.engine", "cube_shapley_iv", "formula_core.cube_metric", COUNT),
    Target("woodelf.engine", "cube_banzhaf_iv", "formula_core.cube_metric", COUNT),
    Target("woodelf.engine", "build_contribution_matrices",
           "engine.build_contribution_matrices", extra=_nnz_extra),
    Target("woodelf.engine", "build_score_vectors", "engine.build_score_vectors"),
    Target("woodelf", "load_model", "tree_model.load_model"),
    Target("woodelf.cli", "load_model", "tree_model.load_model"),
    Target("woodelf.cli", "load_data", "tree_model.load_data", extra=_rows_extra),
    Target("woodelf.cli", "main", "cli.main"),
)


def _resolve(target: Target):
    """(owner, attribute, current raw value), or None if the name is gone."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    *classes, attr = target.attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls, None)
        if owner is None:
            return None
    raw = vars(owner).get(attr)
    if raw is None or not callable(raw):
        return None
    return owner, attr, raw


class Tracer:
    """Collects spans and counts while installed; safe under threads."""

    def __init__(self, targets=TARGETS) -> None:
        self.targets = targets
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._counters: list[dict] = []
        self._lock = threading.Lock()

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack \
                if threading.current_thread() is threading.main_thread() else []
            self._local.stack = stack
        return stack

    def _counter(self) -> dict:
        counter = getattr(self._local, "counter", None)
        if counter is None:
            counter = self._local.counter = {}
            with self._lock:
                self._counters.append(counter)
        return counter

    def counts(self) -> dict[str, int]:
        total: dict[str, int] = {}
        with self._lock:
            for counter in self._counters:
                for name, n in counter.items():
                    total[name] = total.get(name, 0) + n
        return total

    def _span_wrapper(self, fn, target: Target):
        tracer, name, extra = self, target.name, target.extra

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else None
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            info = None
            if extra is not None:
                try:
                    info = extra(result)
                except (AttributeError, TypeError):
                    pass    # the result no longer has this shape: measure absent
            tracer.spans.append((span_id, name, start, end, parent,
                                 threading.get_ident(), info))
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, fn, target: Target):
        tracer, name = self, target.name

        def counted(*args, **kwargs):
            counter = tracer._counter()
            counter[name] = counter.get(name, 0) + 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installing ------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore the
        exact original objects, even if the block raises."""
        saved = []
        present = set()
        try:
            for target in self.targets:
                found = _resolve(target)
                if found is None:
                    continue
                owner, attr, raw = found
                wrap = self._span_wrapper if target.kind == SPAN else self._count_wrapper
                setattr(owner, attr, wrap(raw, target))
                saved.append((owner, attr, raw))
                present.add(target.name)
            self.absent = sorted({t.name for t in self.targets} - present)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def span_records(self) -> list[dict]:
        return [
            {"id": s[0], "name": s[1], "start": s[2], "end": s[3],
             "parent": s[4], "thread": s[5], "extra": s[6]}
            for s in self.spans
        ]


def originals(targets=TARGETS) -> dict[str, object]:
    """The current object behind every target that exists, keyed by path;
    used to check that tracing restored every name."""
    out = {}
    for target in targets:
        found = _resolve(target)
        if found is not None:
            out[f"{target.module}:{target.attr}"] = found[2]
    return out


# ---------------------------------------------------------------------------
# Turning spans into per-layer numbers

def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> its duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        kids = [(max(a, s["start"]), min(b, s["end"]))
                for a, b in children.get(s["id"], ()) if b > s["start"] and a < s["end"]]
        out[s["id"]] = (s["end"] - s["start"]) - _union_length(kids)
    return out


def summarize(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total duration, total self time and the
    totals of every extra measure."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        agg = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += s["end"] - s["start"]
        agg["self_s"] += selfs[s["id"]]
        for key, value in (s["extra"] or {}).items():
            agg[key] = agg.get(key, 0) + value
    return out
