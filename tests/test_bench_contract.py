"""The benchmark's tracer still finds and sees every layer it measures.

``perfbench/tracer.py`` wraps library functions under the names their callers
look them up by. A renamed, moved or no longer called function drops its
per-layer metrics from a traced benchmark run, and the run's result line
comes out incomplete. This loads the tracer by path (it imports only the
standard library) and traces one small call per mode and metric; every call,
in either mode, must reach every layer.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import woodelf
from woodelf.synth import random_data, random_ensemble

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

API_SPANS = (
    "engine.woodelf",
    "engine.frequencies",
    "patterns.calc_decision_patterns",
    "cube_mapping.cache_get",
    "cube_mapping.map_patterns_to_cube",
    "engine.build_contribution_matrices",
    "engine.build_score_vectors",
)
API_COUNTERS = ("formula_core.cube_metric",)


def _load_tracer():
    name = "perfbench_tracer_under_test"
    spec = importlib.util.spec_from_file_location(name, TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module    # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


def test_traced_calls_reach_every_measured_layer():
    tracer = _load_tracer()
    before = tracer.originals()
    rng = np.random.default_rng(51)
    ens = random_ensemble(rng, 2, 4, max_depth=4)
    C = random_data(rng, 20, 4)
    B = random_data(rng, 8, 4)
    for background in (B, None):
        for metric in ("shapley", "banzhaf", "shapley-iv", "banzhaf-iv"):
            traced = tracer.Tracer()
            with traced.installed():
                woodelf.woodelf(ens, C, background, metric)
            assert traced.absent == []
            fired = {span["name"] for span in traced.span_records()}
            assert [name for name in API_SPANS if name not in fired] == [], \
                (background is None, metric)
            counts = traced.counts()
            assert [name for name in API_COUNTERS if not counts.get(name)] == []
            assert tracer.originals() == before


def test_pattern_rows_count_every_consumer_and_background_row_once_per_tree():
    # ``patterns.rows`` sums the rows keyed by ``calc_decision_patterns``:
    # with one thread, the gather's row blocks add up to the consumer rows
    # and the background is keyed once, per tree.
    tracer = _load_tracer()
    rng = np.random.default_rng(52)
    ens = random_ensemble(rng, 3, 4, max_depth=4)
    n, m = 20, 8
    C = random_data(rng, n, 4)
    B = random_data(rng, m, 4)
    for background, keyed in ((B, n + m), (None, n)):
        traced = tracer.Tracer()
        with traced.installed():
            woodelf.woodelf(ens, C, background, "shapley", threads=1, block_size=7)
        layers = tracer.summarize(traced.span_records())
        assert layers["patterns.calc_decision_patterns"]["rows"] == \
            len(ens.trees) * keyed
