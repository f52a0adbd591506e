"""Command-line front end: compute attributions and self-verify.

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
from dataclasses import dataclass

import numpy as np

from . import csvtext
from .engine import woodelf
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
    FORMULA_METRICS,
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
    HARD_DEPTH_CAP,
    DataMatrix,
    TreeEnsemble,
    load_data,
    load_model,
    model_from_dict,
    validate_ensemble,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SCHEMA = 3
EXIT_DATA = 4
EXIT_VERIFY = 5

ORACLE_TOLERANCE = 1e-9       # internal cross-checks against the exact oracles
REFERENCE_TOLERANCE = 1e-5    # comparisons against externally produced values
_CSV_BLOCK = 4096             # values formatted per block of CSV lines
_NEWLINE = np.array([ord("\n")], np.uint8)

_METRIC_NAMES = [k.value for k in MetricKind]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="woodelf",
        description="Shapley/Banzhaf values and interaction values for tree ensembles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute attributions for a consumer table",
                       allow_abbrev=False)
    p.add_argument("--model", required=True, help="model file")
    p.add_argument("--format", default="native", choices=["native", "xgb"],
                   help="model file format")
    p.add_argument("--consumers", required=True, help="consumer CSV")
    p.add_argument("--background", help="background CSV (enables background mode)")
    p.add_argument("--metric", default="shapley", choices=_METRIC_NAMES)
    p.add_argument("--baseline-row",
                   help="selects baseline mode: a row index into the --background "
                        "CSV when given (else into the consumers CSV), or a CSV "
                        "file whose first row is the baseline")
    p.add_argument("--out", required=True, help="output file (.csv or .json)")
    p.add_argument("--threads", type=_int_range(1), default=1)
    p.add_argument("--depth-cap", type=_int_range(1, HARD_DEPTH_CAP),
                   default=DEFAULT_DEPTH_CAP)
    p.add_argument("--verify", type=_int_range(0), default=0, metavar="N",
                   help="cross-check N sampled rows against the exact oracle")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("selftest", help="run the built-in golden/oracle suite",
                       allow_abbrev=False)
    p.add_argument("--reference",
                   help="JSON file of externally produced values to enforce "
                        f"at {REFERENCE_TOLERANCE:g} absolute")
    p.add_argument("--formulas", type=int, default=40,
                   help="random formulas for the oracle equivalence check")
    p.add_argument("--pipelines", type=int, default=6,
                   help="random ensembles for the pipeline oracle check")
    p.set_defaults(func=cmd_selftest)

    return parser


def _int_range(low: int, high: float = float("inf")):
    """An argparse type: an integer in ``low..high``, so a value out of range
    exits 2 before anything runs."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or not low <= value <= high:
            raise argparse.ArgumentTypeError(
                f"expected an integer in {low}..{high}, got {text!r}")
        return value
    return parse


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
    """``--baseline-row`` selects baseline mode, a one-row background;
    otherwise ``--background`` selects background mode, and with neither the
    run is path-dependent."""
    metric = MetricKind(args.metric)
    try:
        ensemble = load_model(args.model, args.format, depth_cap=args.depth_cap)
    except OSError as exc:
        raise ModelSchemaError(f"cannot read model {args.model}: {exc}") from exc
    consumers = _read_csv(args.consumers, ensemble.feature_names)

    background = None
    if args.background is not None:
        background = _read_csv(args.background, ensemble.feature_names)

    if args.baseline_row is not None:
        background = _resolve_baseline(args.baseline_row, ensemble, consumers,
                                       background).reshape(1, -1)
    elif background is not None:
        if background.num_rows == 0:
            raise ModeError("background mode requires a non-empty --background CSV")
        background = background.values
    elif not ensemble.has_covers():
        raise ModeError(
            "path-dependent mode requires node covers in the model dump; "
            "provide --background or a model with cover fields"
        )
    result = woodelf(ensemble, consumers, background, metric, threads=args.threads)

    _write_result(args.out, result, ensemble.feature_names)
    print(f"wrote {consumers.num_rows} rows to {args.out}")

    if args.verify > 0:
        dev, checked = _oracle_deviation(
            ensemble, consumers.values, background, metric, result.values,
            args.verify)
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


def _resolve_baseline(spec: str, ensemble: TreeEnsemble,
                      consumers: DataMatrix,
                      background: DataMatrix | None) -> np.ndarray:
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
                      kind: MetricKind, values: np.ndarray,
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
        if background is not None:
            cf = oracle.tree_characteristic(ensemble, consumers[r], background)
        else:
            cf = oracle.ensemble_pd_characteristic(ensemble, consumers[r])
        reference = oracle.exact_attribution(cf, kind).values
        if reference.size:
            worst = max(worst, float(np.max(np.abs(values[r] - reference))))
    return worst, len(rows)


def _csv_cell(text: str) -> str:
    """``text`` as ``csv.writer`` renders it inside a row of several cells."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def _write_result(path: str, result, feature_names) -> None:
    """Write ``result`` as JSON or CSV. A CSV holds the bytes ``csv.writer``
    writes for the row ids, the feature names and ``repr`` of each value.
    ``csvtext`` builds them a block of about ``_CSV_BLOCK`` values at a time:
    each value follows its head, which is "," in the one-row-per-consumer
    layout and ",<feature_i>,<feature_j>," in the one-row-per-pair layout."""
    names = list(feature_names)
    if path.endswith(".json"):
        _write_json(path, result, names)
        return
    values = result.values
    n, width = values.shape
    cells = [_csv_cell(name) for name in names]
    if result.pairwise:
        header = "row_id,feature_i,feature_j,value"
        heads = csvtext.text_field(
            [f",{cells[i]},{cells[j]}," for i, j in itertools.combinations(range(len(names)), 2)])
    else:
        header = ",".join(["row_id", *cells])
        heads = np.full((width, 1), ord(","), np.uint8)
    rows = max(1, _CSV_BLOCK // max(width, 1))
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8") + b"\n")
        for start in range(0, n, rows):
            block = values[start:start + rows]
            ids = csvtext.text_field(map(str, range(start, start + len(block))))
            texts = csvtext.repr_field(block)
            texts = texts.reshape(len(block), width, texts.shape[-1])
            if result.pairwise:
                fh.write(csvtext.pack(ids[:, None, :], heads, texts, _NEWLINE))
            else:
                row_cells = csvtext.join(heads, texts).reshape(len(block), -1)
                fh.write(csvtext.pack(ids, row_cells, _NEWLINE))


def _write_json(path: str, result, names) -> None:
    h = len(names)
    doc: dict = {
        "metric": result.metric.value,
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
# selftest

# The golden formula 3(~x0) + 5(x0 & ~x2) + 2(x1 & x2 & ~x0), its
# hand-checked Shapley and Banzhaf values, and a different cube list that
# computes the same function on every assignment.
GOLDEN_FORMULA = WeightedFormula.wdnf([
    Cube((), (0,), 3.0),
    Cube((0,), (2,), 5.0),
    Cube((1, 2), (0,), 2.0),
], num_vars=3)
GOLDEN_SHAPLEY = np.array([-7.0 / 6.0, 1.0 / 3.0, -13.0 / 6.0])
GOLDEN_BANZHAF = np.array([-1.0, 0.5, -2.0])
GOLDEN_EQUIVALENT = WeightedFormula.wdnf([
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
    f = GOLDEN_FORMULA
    phi = shapley(f).singles
    beta = banzhaf(f).singles
    span = evaluate(f, [1, 1, 1]) - evaluate(f, [0, 0, 0])
    checks = [
        Check("golden shapley values", float(np.max(np.abs(phi - GOLDEN_SHAPLEY))), 1e-12),
        Check("golden banzhaf values", float(np.max(np.abs(beta - GOLDEN_BANZHAF))), 1e-12),
        Check("shapley efficiency (sum = span)", abs(float(phi.sum()) - span), 1e-12),
    ]
    g = GOLDEN_EQUIVALENT
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
        for kind, fast_metric in FORMULA_METRICS.items():
            fast = fast_metric(f).values
            ref = oracle.exact_attribution(cf, kind).values
            if ref.size:
                worst = max(worst, float(np.max(np.abs(fast - ref))))
    return Check(f"{count} random formulas vs exact oracles", worst, ORACLE_TOLERANCE)


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
                [woodelf(ens, C, B[k:k + 1], kind).values
                 for k in range(B.shape[0])], axis=0)
            if got_bg.size:
                worst_chain = max(worst_chain, float(
                    np.max(np.abs(got_bg - mean_of_baselines))))
            for r in range(C.shape[0]):
                ref_bg = oracle.exact_attribution(
                    oracle.tree_characteristic(ens, C[r], B), kind).values
                ref_pd = oracle.exact_attribution(
                    oracle.ensemble_pd_characteristic(ens, C[r]), kind).values
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
        mode = doc.get("mode", "background" if "background" in doc else "path-dependent")
        background = None
        if mode == "baseline":
            background = np.asarray(doc["baseline_row"], dtype=np.float64).reshape(1, -1)
        elif mode == "background":
            background = np.asarray(doc["background"], dtype=np.float64)
        if metric.pairwise:
            pairs = [(int(row_id), int(i), int(j), float(value))
                     for row_id, i, j, value in doc["pairs"]]
        else:
            expected = np.asarray(doc["values"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed reference file: {exc}") from exc
    ensemble = validate_ensemble(model_from_dict(model)) if isinstance(model, dict) \
        else load_model(model)
    result = woodelf(ensemble, consumers, background, metric)
    if metric.pairwise:
        worst = 0.0
        for row_id, i, j, value in pairs:
            got = result.pair_values(i, j)[row_id]
            worst = max(worst, abs(float(got) - value))
    else:
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
