"""Command-line front end: compute attributions, benchmark, self-verify.

Exit codes: 0 success, 2 configuration or mode problems, 3 model schema
problems, 4 data problems (including dimension mismatches), 5 verification
failures. Output is deterministic for a fixed configuration regardless of
the thread count.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

from .cube_mapping import map_patterns_to_cube
from .engine import baseline_attributions, resolve_metric, woodelf
from .errors import (
    DataError,
    DimensionError,
    ModeError,
    ModelSchemaError,
    NodeKindError,
    VerificationError,
    WoodelfError,
)
from .formula_core import (
    Cube,
    Form,
    MetricKind,
    WeightedFormula,
    banzhaf,
    evaluate,
    shapley,
)
from . import oracle
from .synth import random_data, random_ensemble, random_formula
from .tree_model import (
    DEFAULT_DEPTH_CAP,
    DataMatrix,
    TreeEnsemble,
    load_data,
    load_model,
    model_from_dict,
    predict_batch,
    validate_ensemble,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SCHEMA = 3
EXIT_DATA = 4
EXIT_VERIFY = 5

ORACLE_TOLERANCE = 1e-9       # internal cross-checks against the exact oracles
REFERENCE_TOLERANCE = 1e-5    # comparisons against externally produced values

_METRIC_NAMES = [k.value for k in MetricKind]
_MODES = ["background", "path-dependent", "baseline"]


@dataclass
class RunConfig:
    """Everything one compute run needs; built from parsed CLI flags."""

    model_path: str
    model_format: str
    consumers_path: str
    background_path: str | None
    metric: MetricKind
    mode: str
    out_path: str
    threads: int
    depth_cap: int
    verify: int
    baseline_row: str | None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="woodelf",
        description="Shapley/Banzhaf values and interaction values for tree ensembles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute attributions for a consumer table")
    p.add_argument("--model", required=True, help="model file")
    p.add_argument("--format", default="native", choices=["native", "xgb"],
                   help="model file format")
    p.add_argument("--consumers", required=True, help="consumer CSV")
    p.add_argument("--background", help="background CSV (enables background mode)")
    p.add_argument("--metric", default="shapley", choices=_METRIC_NAMES)
    p.add_argument("--mode", choices=_MODES,
                   help="override the mode inferred from --background")
    p.add_argument("--baseline-row",
                   help="baseline for --mode baseline: a row index into the "
                        "background CSV (or consumers CSV if none), or a CSV "
                        "file whose first row is the baseline")
    p.add_argument("--out", required=True, help="output file (.csv or .json)")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--depth-cap", type=int, default=DEFAULT_DEPTH_CAP)
    p.add_argument("--verify", type=int, default=0, metavar="N",
                   help="cross-check N sampled rows against the exact oracle")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("bench", help="time pipeline stages on synthetic inputs")
    p.add_argument("--trees", type=int, default=20)
    p.add_argument("--depth", type=int, default=5)
    p.add_argument("--features", type=int, default=12)
    p.add_argument("--n", type=int, default=20000, help="consumer rows")
    p.add_argument("--m", type=int, default=20000, help="background rows")
    p.add_argument("--metric", default="shapley", choices=_METRIC_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("selftest", help="run the built-in golden/oracle suite")
    p.add_argument("--reference",
                   help="JSON file of externally produced values to enforce "
                        f"at {REFERENCE_TOLERANCE:g} absolute")
    p.add_argument("--formulas", type=int, default=40,
                   help="random formulas for the oracle equivalence check")
    p.add_argument("--pipelines", type=int, default=6,
                   help="random ensembles for the pipeline oracle check")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ModeError as exc:
        return _fail(exc, EXIT_CONFIG)
    except (ModelSchemaError, NodeKindError) as exc:
        return _fail(exc, EXIT_SCHEMA)
    except (DataError, DimensionError) as exc:
        return _fail(exc, EXIT_DATA)
    except VerificationError as exc:
        return _fail(exc, EXIT_VERIFY)
    except WoodelfError as exc:
        return _fail(exc, EXIT_CONFIG)


def _fail(exc: Exception, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# compute

def cmd_compute(args) -> int:
    config = RunConfig(
        model_path=args.model,
        model_format=args.format,
        consumers_path=args.consumers,
        background_path=args.background,
        metric=MetricKind(args.metric),
        mode=args.mode or ("background" if args.background else "path-dependent"),
        out_path=args.out,
        threads=args.threads,
        depth_cap=args.depth_cap,
        verify=args.verify,
        baseline_row=args.baseline_row,
    )
    try:
        ensemble = load_model(config.model_path, config.model_format,
                              depth_cap=config.depth_cap)
    except OSError as exc:
        raise ModelSchemaError(f"cannot read model {config.model_path}: {exc}") from exc
    consumers = _read_csv(config.consumers_path, ensemble.feature_names)

    background = None
    if config.background_path is not None:
        background = _read_csv(config.background_path, ensemble.feature_names)

    if config.mode == "background":
        if background is None or background.num_rows == 0:
            raise ModeError("background mode requires a non-empty --background CSV")
        result = woodelf(ensemble, consumers, background, config.metric,
                         threads=config.threads)
        baseline = None
    elif config.mode == "baseline":
        baseline = _resolve_baseline(config, ensemble, consumers, background)
        result = baseline_attributions(ensemble, consumers, baseline,
                                       config.metric, threads=config.threads)
    else:
        if not ensemble.has_covers():
            raise ModeError(
                "path-dependent mode requires node covers in the model dump; "
                "provide --background or a model with cover fields"
            )
        result = woodelf(ensemble, consumers, None, config.metric,
                         threads=config.threads)

    _write_result(config.out_path, result, ensemble.feature_names)
    print(f"wrote {consumers.num_rows} rows to {config.out_path}")

    if config.verify > 0:
        bg_for_oracle = baseline.reshape(1, -1) if config.mode == "baseline" \
            else (background.values if background is not None else None)
        dev, checked = _oracle_deviation(
            ensemble, consumers.values, bg_for_oracle, config.mode,
            config.metric, result.values, config.verify)
        print(f"verify: max abs deviation {dev:.3e} vs oracle over "
              f"{checked} rows (tolerance {ORACLE_TOLERANCE:g})")
        if dev > ORACLE_TOLERANCE:
            raise VerificationError(
                f"oracle deviation {dev:.3e} exceeds {ORACLE_TOLERANCE:g}")
    return EXIT_OK


def _read_csv(path: str, feature_names) -> DataMatrix:
    try:
        return load_data(path, feature_names)
    except OSError as exc:
        raise DataError(f"cannot read data file {path}: {exc}") from exc


def _resolve_baseline(config: RunConfig, ensemble: TreeEnsemble,
                      consumers: DataMatrix,
                      background: DataMatrix | None) -> np.ndarray:
    spec = config.baseline_row
    if spec is None:
        raise ModeError("baseline mode requires --baseline-row")
    try:
        index = int(spec)
    except ValueError:
        table = _read_csv(spec, ensemble.feature_names)
        if table.num_rows == 0:
            raise DataError(f"{spec}: baseline file has no rows") from None
        return table.values[0]
    source = background if background is not None else consumers
    if not 0 <= index < source.num_rows:
        raise ModeError(
            f"--baseline-row {index} out of range for {source.num_rows} rows")
    return source.values[index]


def _oracle_deviation(ensemble, consumers: np.ndarray, background,
                      mode: str, kind: MetricKind, values: np.ndarray,
                      sample: int, seed: int = 0) -> tuple[float, int]:
    if ensemble.num_features > oracle.PLAYER_CAP:
        raise ModeError(
            f"--verify needs at most {oracle.PLAYER_CAP} features "
            f"(model has {ensemble.num_features})"
        )
    n = consumers.shape[0]
    rng = np.random.default_rng(seed)
    rows = sorted(rng.choice(n, size=min(sample, n), replace=False).tolist())
    worst = 0.0
    for r in rows:
        if mode in ("background", "baseline"):
            cf = oracle.tree_characteristic(ensemble, consumers[r], background)
        else:
            cf = oracle.ensemble_pd_characteristic(ensemble, consumers[r])
        expected = oracle.exact_attribution(cf, kind)
        reference = expected.singles if expected.singles is not None else expected.pairs
        if reference.size:
            worst = max(worst, float(np.max(np.abs(values[r] - reference))))
    return worst, len(rows)


def _csv_cell(text: str) -> str:
    """``text`` as ``csv.writer`` renders it inside a row of several cells."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def _write_result(path: str, result, feature_names) -> None:
    """Write ``result`` as JSON or CSV. CSV lines are built as strings, with
    each feature name quoted once the way ``csv.writer`` quotes it and each
    value written as ``repr`` of a Python float."""
    names = list(feature_names)
    if path.endswith(".json"):
        _write_json(path, result, names)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if result.pairwise:
            fh.write("row_id,feature_i,feature_j,value\n")
            cells = [_csv_cell(name) for name in names]
            heads = [f"{cells[i]},{cells[j]},"
                     for i, j in itertools.combinations(range(len(names)), 2)]
            for r in range(result.values.shape[0]):
                fh.write("".join(f"{r},{head}{v!r}\n"
                                 for head, v in zip(heads, result.values[r].tolist())))
        else:
            csv.writer(fh, lineterminator="\n").writerow(["row_id"] + names)
            for r in range(result.values.shape[0]):
                fh.write(",".join([str(r), *map(repr, result.values[r].tolist())]) + "\n")


def _write_json(path: str, result, names) -> None:
    h = len(names)
    doc: dict = {
        "metric": result.metric.value if result.metric else "custom",
        "feature_names": names,
    }
    rows = []
    if result.pairwise:
        for r in range(result.values.shape[0]):
            col = 0
            pairs = []
            for i in range(h):
                for j in range(i + 1, h):
                    pairs.append({"feature_i": names[i], "feature_j": names[j],
                                  "value": float(result.values[r, col])})
                    col += 1
            rows.append({"row_id": r, "pairs": pairs})
    else:
        for r in range(result.values.shape[0]):
            rows.append({
                "row_id": r,
                "values": {names[k]: float(result.values[r, k]) for k in range(h)},
            })
    doc["rows"] = rows
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------------------
# bench

def cmd_bench(args) -> int:
    rng = np.random.default_rng(args.seed)
    ensemble = random_ensemble(rng, args.trees, args.features, args.depth,
                               with_covers=True, full=True)
    kind = MetricKind(args.metric)

    def run(n: int, m: int) -> dict[str, float]:
        C = random_data(rng, n, args.features)
        B = random_data(rng, m, args.features)
        t0 = time.perf_counter()
        result = woodelf(ensemble, C, B, kind)
        total = time.perf_counter() - t0
        t = dict(result.timings)
        t["total"] = total
        return t

    grid = [
        ("base", args.n, args.m),
        ("2x consumers", 2 * args.n, args.m),
        ("2x background", args.n, 2 * args.m),
    ]
    print(f"model: {args.trees} trees, depth {args.depth}, "
          f"{args.features} features; metric {kind.value}")
    print(f"{'case':<14} {'n':>8} {'m':>8} {'freqs':>9} {'matrices':>9} "
          f"{'scores':>9} {'gather':>9} {'total':>9}")
    results = {}
    for label, n, m in grid:
        t = run(n, m)
        results[label] = t
        print(f"{label:<14} {n:>8} {m:>8} "
              f"{t['frequencies']:>9.4f} {t['matrices']:>9.4f} "
              f"{t['scores']:>9.4f} {t['gather']:>9.4f} {t['total']:>9.4f}")

    flags = []
    gather_ratio = results["2x consumers"]["gather"] / max(results["base"]["gather"], 1e-9)
    freq_ratio = results["2x background"]["frequencies"] / max(results["base"]["frequencies"], 1e-9)
    print(f"gather time ratio for 2x consumers: {gather_ratio:.2f} (limit 3.0)")
    print(f"frequency time ratio for 2x background: {freq_ratio:.2f} (limit 3.0)")
    if gather_ratio > 3.0:
        flags.append("gather stage grows super-linearly in consumer rows")
    if freq_ratio > 3.0:
        flags.append("frequency stage grows super-linearly in background rows")

    sizes = [len(map_patterns_to_cube(tuple(range(d))).entries)
             for d in range(1, min(args.depth, 8) + 1)]
    ratios = [sizes[i + 1] / sizes[i] for i in range(len(sizes) - 1)]
    print("dictionary entries by path length:", sizes,
          "growth ratios:", [f"{r:.2f}" for r in ratios])

    for flag in flags:
        print(f"FLAG: {flag}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# selftest

def _golden_formula() -> WeightedFormula:
    return WeightedFormula.wdnf([
        Cube((), (0,), 3.0),
        Cube((0,), (2,), 5.0),
        Cube((1, 2), (0,), 2.0),
    ], num_vars=3)


def _golden_equivalent() -> WeightedFormula:
    # A different cube list computing the same function everywhere.
    return WeightedFormula.wdnf([
        Cube((0,), (), 5.0),
        Cube((2,), (), -5.0),
        Cube((), (0, 2), 3.0),
        Cube((2,), (0,), 10.0),
        Cube((2,), (0, 1), -2.0),
    ], num_vars=3)


@dataclass
class Check:
    name: str
    value: float
    limit: float
    require_above: bool = False  # True: value must exceed limit (separation checks)

    @property
    def passed(self) -> bool:
        return self.value > self.limit if self.require_above else self.value <= self.limit


def _golden_checks() -> list[Check]:
    f = _golden_formula()
    phi = shapley(f).singles
    beta = banzhaf(f).singles
    expected_phi = np.array([-7.0 / 6.0, 1.0 / 3.0, -13.0 / 6.0])
    expected_beta = np.array([-1.0, 0.5, -2.0])
    span = evaluate(f, [1, 1, 1]) - evaluate(f, [0, 0, 0])
    checks = [
        Check("golden shapley values", float(np.max(np.abs(phi - expected_phi))), 1e-12),
        Check("golden banzhaf values", float(np.max(np.abs(beta - expected_beta))), 1e-12),
        Check("shapley efficiency (sum = span)", abs(float(phi.sum()) - span), 1e-12),
    ]
    g = _golden_equivalent()
    checks.append(Check(
        "robustness: equivalent formula, same shapley",
        float(np.max(np.abs(shapley(g).singles - phi))), 1e-12))
    checks.append(Check(
        "robustness: equivalent formula, same banzhaf",
        float(np.max(np.abs(banzhaf(g).singles - beta))), 1e-12))
    checks.append(Check(
        "weight-difference separation (must differ)",
        float(np.max(np.abs(oracle.weight_difference(g) - oracle.weight_difference(f)))),
        0.0, require_above=True))
    return checks


def _formula_oracle_check(count: int, seed: int = 11) -> Check:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(count):
        form = Form.WDNF if trial % 2 == 0 else Form.WCNF
        f = random_formula(rng, num_vars=int(rng.integers(1, 11)),
                           max_cubes=12, form=form)
        cf = oracle.formula_characteristic(f)
        for kind in MetricKind:
            fast = _fast_formula_metric(f, kind)
            exact = oracle.exact_attribution(cf, kind)
            ref = exact.singles if exact.singles is not None else exact.pairs
            if ref.size:
                worst = max(worst, float(np.max(np.abs(fast - ref))))
    return Check(f"{count} random formulas vs exact oracles", worst, ORACLE_TOLERANCE)


def _fast_formula_metric(f: WeightedFormula, kind: MetricKind) -> np.ndarray:
    from .formula_core import banzhaf_iv, shapley_iv
    fn = {MetricKind.SHAPLEY: shapley, MetricKind.BANZHAF: banzhaf,
          MetricKind.SHAPLEY_IV: shapley_iv, MetricKind.BANZHAF_IV: banzhaf_iv}[kind]
    result = fn(f)
    return result.singles if result.singles is not None else result.pairs


def _pipeline_oracle_check(count: int, seed: int = 23) -> list[Check]:
    rng = np.random.default_rng(seed)
    worst_bg = worst_pd = worst_chain = 0.0
    for _ in range(count):
        ens = random_ensemble(rng, int(rng.integers(1, 4)),
                              int(rng.integers(2, 6)), int(rng.integers(1, 5)))
        C = random_data(rng, int(rng.integers(1, 5)), ens.num_features)
        B = random_data(rng, int(rng.integers(1, 4)), ens.num_features)
        for kind in MetricKind:
            got_bg = woodelf(ens, C, B, kind).values
            got_pd = woodelf(ens, C, None, kind).values
            mean_of_baselines = np.mean(
                [baseline_attributions(ens, C, B[k], kind).values
                 for k in range(B.shape[0])], axis=0)
            if got_bg.size:
                worst_chain = max(worst_chain, float(
                    np.max(np.abs(got_bg - mean_of_baselines))))
            for r in range(C.shape[0]):
                e_bg = oracle.exact_attribution(
                    oracle.tree_characteristic(ens, C[r], B), kind)
                e_pd = oracle.exact_attribution(
                    oracle.ensemble_pd_characteristic(ens, C[r]), kind)
                ref_bg = e_bg.singles if e_bg.singles is not None else e_bg.pairs
                ref_pd = e_pd.singles if e_pd.singles is not None else e_pd.pairs
                if ref_bg.size:
                    worst_bg = max(worst_bg, float(np.max(np.abs(got_bg[r] - ref_bg))))
                    worst_pd = max(worst_pd, float(np.max(np.abs(got_pd[r] - ref_pd))))
    return [
        Check(f"{count} random pipelines, background vs oracle", worst_bg, ORACLE_TOLERANCE),
        Check(f"{count} random pipelines, path-dependent vs oracle", worst_pd, ORACLE_TOLERANCE),
        Check("background equals mean of single-baseline runs", worst_chain, ORACLE_TOLERANCE),
    ]


def _reference_check(path: str) -> Check:
    """Compare against externally produced values at the cross-implementation
    tolerance.

    The file is one JSON object with the keys:

    - ``model``: a model document (as written by ``model_to_dict``) or a
      path to a model file;
    - ``metric``: a metric name, e.g. ``"shapley"`` or ``"banzhaf-iv"``;
    - ``consumers``: a list of rows, each a list of feature values;
    - ``mode`` (optional): ``"background"``, ``"baseline"`` or
      ``"path-dependent"``; defaults to background if ``background`` is
      present, else path-dependent;
    - ``background``: a list of rows, for background mode;
    - ``baseline_row``: one row, for baseline mode;
    - ``values`` for single-variable metrics: one list of per-feature values
      per consumer row; or ``pairs`` for interaction metrics: a list of
      ``[row_id, feature_i, feature_j, value]``.

    ``tests/test_cli.py::_reference_doc`` builds an example."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read reference file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON: {exc}") from exc
    try:
        model = doc["model"]
        metric = MetricKind(doc["metric"])
        consumers = np.asarray(doc["consumers"], dtype=np.float64)
    except (KeyError, ValueError) as exc:
        raise DataError(f"{path}: malformed reference file: {exc}") from exc
    ensemble = validate_ensemble(model_from_dict(model)) if isinstance(model, dict) \
        else load_model(model)
    mode = doc.get("mode", "background" if "background" in doc else "path-dependent")
    if mode == "baseline":
        result = baseline_attributions(
            ensemble, consumers, np.asarray(doc["baseline_row"]), metric)
    elif mode == "background":
        result = woodelf(ensemble, consumers,
                         np.asarray(doc["background"], dtype=np.float64), metric)
    else:
        result = woodelf(ensemble, consumers, None, metric)
    if metric.pairwise:
        worst = 0.0
        for row_id, i, j, value in doc["pairs"]:
            got = result.pair_values(int(i), int(j))[int(row_id)]
            worst = max(worst, abs(float(got) - float(value)))
    else:
        expected = np.asarray(doc["values"], dtype=np.float64)
        if expected.shape != result.values.shape:
            raise DataError(
                f"{path}: expected values have shape {expected.shape}, "
                f"computed {result.values.shape}")
        worst = float(np.max(np.abs(result.values - expected))) if expected.size else 0.0
    return Check(f"external reference {path}", worst, REFERENCE_TOLERANCE)


def cmd_selftest(args) -> int:
    checks = _golden_checks()
    checks.append(_formula_oracle_check(args.formulas))
    checks.extend(_pipeline_oracle_check(args.pipelines))
    if args.reference:
        checks.append(_reference_check(args.reference))

    width = max(len(c.name) for c in checks)
    failed = 0
    for c in checks:
        relation = ">" if c.require_above else "<="
        status = "PASS" if c.passed else "FAIL"
        if not c.passed:
            failed += 1
        print(f"{c.name:<{width}}  deviation {c.value:.3e}  "
              f"(required {relation} {c.limit:g})  {status}")
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
