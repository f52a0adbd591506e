"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines stream;
tolerances are pinned here and nowhere else.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from woodelf.cli import GOLDEN_CUBES, GOLDEN_EQUIVALENT, cube_ensemble, main
from woodelf.cube_mapping import map_patterns_to_cube
from woodelf.engine import (
    build_contribution_matrices,
    build_score_vectors,
    cube_contributions,
    stack_subsets,
    woodelf,
)
from woodelf.formula_core import (
    Cube,
    MetricKind,
    cube_banzhaf,
    cube_banzhaf_iv,
    cube_shapley,
    cube_shapley_iv,
)
from woodelf.oracle import (
    ensemble_pd_characteristic,
    exact_attribution,
    tree_characteristic,
)
from woodelf.synth import random_data, random_ensemble
from woodelf.tree_model import model_to_dict, predict, predict_batch

from conftest import cube_game, cube_values, random_cubes

EXACT = 1e-12
ORACLE = 1e-9
SCALE_EFFICIENCY = 1e-6
REFERENCE = 1e-5
TIME_SLACK = 3.0


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: {description}: FAIL")
        raise
    print(f"ACCEPTANCE {number}: {description}: PASS")


# The goldens run through the pipeline: chain-tree ensembles of the cube
# lists, with the consumer at 1.0 and a single baseline at 0.0.
ONES, ZEROS = np.ones((1, 3)), np.zeros((1, 3))


def _golden_values(cubes, kind: MetricKind) -> np.ndarray:
    return woodelf(cube_ensemble(cubes), ONES, ZEROS, kind).values[0]


def test_criterion_1_golden_values():
    with criterion(1, "golden Shapley/Banzhaf values and efficiency sum"):
        phi = _golden_values(GOLDEN_CUBES, MetricKind.SHAPLEY)
        beta = _golden_values(GOLDEN_CUBES, MetricKind.BANZHAF)
        np.testing.assert_allclose(
            phi, [-7.0 / 6.0, 1.0 / 3.0, -13.0 / 6.0], rtol=0, atol=EXACT)
        np.testing.assert_allclose(beta, [-1.0, 0.5, -2.0], rtol=0, atol=EXACT)
        ens = cube_ensemble(GOLDEN_CUBES)
        span = predict(ens, ONES[0]) - predict(ens, ZEROS[0])
        assert span == -3.0
        assert abs(phi.sum() - span) <= EXACT


def test_criterion_2_robustness():
    with criterion(2, "equivalent ensembles agree on values; a changed leaf "
                      "weight moves them"):
        golden, equivalent = cube_ensemble(GOLDEN_CUBES), cube_ensemble(GOLDEN_EQUIVALENT)
        for x in ((0, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)):
            assert predict(golden, x) == pytest.approx(predict(equivalent, x), abs=EXACT)
        for kind in (MetricKind.SHAPLEY, MetricKind.BANZHAF):
            assert np.max(np.abs(_golden_values(GOLDEN_CUBES, kind)
                                 - _golden_values(GOLDEN_EQUIVALENT, kind))) <= EXACT
        heavier = (Cube((), (0,), 4.0),) + GOLDEN_CUBES[1:]
        assert np.max(np.abs(_golden_values(heavier, MetricKind.SHAPLEY)
                             - _golden_values(GOLDEN_CUBES, MetricKind.SHAPLEY))) > 1e-6


def test_criterion_3_formula_oracle_equivalence():
    with criterion(3, "200 random cube lists match exact oracles at 1e-9"):
        rules = {MetricKind.SHAPLEY: cube_shapley, MetricKind.BANZHAF: cube_banzhaf,
                 MetricKind.SHAPLEY_IV: cube_shapley_iv,
                 MetricKind.BANZHAF_IV: cube_banzhaf_iv}
        rng = np.random.default_rng(1003)
        start = time.perf_counter()
        worst = 0.0
        for _ in range(200):
            h = int(rng.integers(1, 13))
            cubes = random_cubes(rng, h, max_cubes=30)
            game = cube_game(cubes, h)
            for kind, rule in rules.items():
                got = cube_values(rule, cubes, h)
                expected = exact_attribution(game, kind).values
                if got.size:
                    worst = max(worst, float(np.max(np.abs(got - expected))))
        elapsed = time.perf_counter() - start
        assert worst <= ORACLE, f"worst deviation {worst:.3e}"
        assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
        print(f"  [criterion 3] worst deviation {worst:.3e}, {elapsed:.1f}s")


def _random_instances(count: int, seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        ens = random_ensemble(rng, int(rng.integers(1, 4)),
                              int(rng.integers(2, 9)), int(rng.integers(1, 5)))
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 6))
        C = random_data(rng, n, ens.num_features)
        B = random_data(rng, m, ens.num_features)
        yield ens, C, B


def test_criterion_4_pipeline_oracle_equivalence():
    with criterion(4, "100 random pipelines match exact oracles at 1e-9"):
        start = time.perf_counter()
        worst = 0.0
        for ens, C, B in _random_instances(100, seed=1004):
            results_bg = {k: woodelf(ens, C, B, k).values for k in MetricKind}
            results_pd = {k: woodelf(ens, C, None, k).values for k in MetricKind}
            for r in range(C.shape[0]):
                cf_bg = tree_characteristic(ens, C[r], B)
                cf_pd = ensemble_pd_characteristic(ens, C[r])
                for kind in MetricKind:
                    e_bg = exact_attribution(cf_bg, kind).values
                    e_pd = exact_attribution(cf_pd, kind).values
                    if e_bg.size:
                        worst = max(worst, float(np.max(np.abs(
                            results_bg[kind][r] - e_bg))))
                        worst = max(worst, float(np.max(np.abs(
                            results_pd[kind][r] - e_pd))))
        elapsed = time.perf_counter() - start
        assert worst <= ORACLE, f"worst deviation {worst:.3e}"
        assert elapsed < 300.0, f"took {elapsed:.1f}s, budget 300s"
        print(f"  [criterion 4] worst deviation {worst:.3e}, {elapsed:.1f}s")


def test_criterion_5_background_equals_mean_of_baselines():
    with criterion(5, "background run equals the mean of per-baseline runs"):
        worst = 0.0
        for ens, C, B in _random_instances(20, seed=1005):
            for kind in MetricKind:
                together = woodelf(ens, C, B, kind).values
                separate = np.mean(
                    [woodelf(ens, C, B[k:k + 1], kind).values
                     for k in range(B.shape[0])], axis=0)
                if together.size:
                    worst = max(worst, float(np.max(np.abs(together - separate))))
        assert worst <= ORACLE, f"worst deviation {worst:.3e}"
        print(f"  [criterion 5] worst deviation {worst:.3e}")


def test_criterion_6_efficiency_and_scaling_at_size():
    with criterion(6, "scale run: efficiency at 1e-6 and linear stage scaling"):
        rng = np.random.default_rng(1006)
        ens = random_ensemble(rng, num_trees=50, num_features=12, max_depth=6,
                              with_covers=True, full=True)
        n = m = 10_000
        C = random_data(rng, n, 12)
        B = random_data(rng, m, 12)
        C2 = random_data(rng, 2 * n, 12)
        B2 = random_data(rng, 2 * m, 12)

        base = woodelf(ens, C, B, MetricKind.SHAPLEY)
        sums = base.values.sum(axis=1)
        expected = predict_batch(ens, C) - predict_batch(ens, B).mean()
        worst = float(np.max(np.abs(sums - expected)))
        assert worst <= SCALE_EFFICIENCY, f"efficiency deviation {worst:.3e}"

        double_n = woodelf(ens, C2, B, MetricKind.SHAPLEY)
        double_m = woodelf(ens, C, B2, MetricKind.SHAPLEY)
        gather_ratio = double_n.timings["gather"] / base.timings["gather"]
        freq_ratio = double_m.timings["frequencies"] / base.timings["frequencies"]
        assert gather_ratio <= TIME_SLACK, f"gather ratio {gather_ratio:.2f}"
        assert freq_ratio <= TIME_SLACK, f"frequency ratio {freq_ratio:.2f}"
        print(f"  [criterion 6] efficiency dev {worst:.3e}, "
              f"gather x{gather_ratio:.2f}, frequencies x{freq_ratio:.2f}")


def test_criterion_7_dictionary_growth_and_sparse_products():
    with criterion(7, "dictionary growth is 3^depth; score vectors equal the "
                      "per-entry sum over the dictionary"):
        for depth in range(1, 9):
            d = map_patterns_to_cube(tuple(range(depth)))
            assert len(d.entries) == 3 ** depth
        rng = np.random.default_rng(1007)
        worst = 0.0
        for depth in range(1, 7):
            d = map_patterns_to_cube(tuple(range(depth)))
            f = rng.dirichlet(np.ones(1 << depth))
            w = float(rng.normal())
            for kind in MetricKind:
                stacked = stack_subsets(build_contribution_matrices(d, kind), 1 << depth)
                scores = dict(zip(stacked.subsets, build_score_vectors(stacked, f, w)))
                reference: dict = {}
                for (pc, pb), cube in d.entries.items():
                    for subset, value in cube_contributions(cube, kind):
                        vec = reference.setdefault(subset, np.zeros(1 << depth))
                        vec[pc] += w * value * f[pb]
                assert scores.keys() == reference.keys()
                for subset, vec in reference.items():
                    worst = max(worst, float(np.max(np.abs(scores[subset] - vec))))
        assert worst <= EXACT, f"score vectors vs per-entry sum deviation {worst:.3e}"
        print(f"  [criterion 7] score vectors vs per-entry sum deviation {worst:.3e}")


def _reference_doc(perturbation: float) -> dict:
    rng = np.random.default_rng(1008)
    ens = random_ensemble(rng, 2, 4, max_depth=3)
    C = random_data(rng, 5, 4)
    B = random_data(rng, 4, 4)
    values = []
    for r in range(C.shape[0]):
        cf = tree_characteristic(ens, C[r], B)
        values.append(exact_attribution(cf, MetricKind.SHAPLEY).singles.tolist())
    values[0][0] += perturbation
    return {
        "model": model_to_dict(ens),
        "metric": "shapley",
        "mode": "background",
        "consumers": C.tolist(),
        "background": B.tolist(),
        "values": values,
    }


def test_criterion_8_selftest_enforces_reference_tolerance(tmp_path, capsys):
    with criterion(8, "selftest reports deviations and enforces 1e-5 references"):
        within = tmp_path / "within.json"
        within.write_text(json.dumps(_reference_doc(perturbation=5e-6)))
        code = main(["selftest", "--pipelines", "1", "--reference", str(within)])
        out = capsys.readouterr().out
        assert code == 0, "deviation below 1e-5 must pass"
        assert "deviation" in out and "external reference" in out

        beyond = tmp_path / "beyond.json"
        beyond.write_text(json.dumps(_reference_doc(perturbation=5e-5)))
        code = main(["selftest", "--pipelines", "1", "--reference", str(beyond)])
        out = capsys.readouterr().out
        assert code == 5, "deviation above 1e-5 must fail"
        assert "FAIL" in out
