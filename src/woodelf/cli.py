"""Command-line front end: compute attributions and self-verify.

Exit codes: 0 success, 2 configuration or mode problems, 3 model schema
problems, 4 data problems (including dimension mismatches), 5 verification
failures. ``compute`` streams CSV, or JSON when ``--out`` ends in ``.json``.
Output is deterministic for a fixed configuration regardless of the thread count.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import csv
import io
import itertools
import json
import os
import stat
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
from .formula_core import Cube, MetricKind
from .tree_model import (
    DEFAULT_DEPTH_CAP,
    HARD_DEPTH_CAP,
    DataMatrix,
    Tree,
    TreeEnsemble,
    inner,
    leaf,
    load_data,
    load_model,
    model_from_dict,
    predict,
    validate_ensemble,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SCHEMA = 3
EXIT_DATA = 4
EXIT_VERIFY = 5

ORACLE_TOLERANCE = 1e-9       # internal cross-checks against the exact oracles
REFERENCE_TOLERANCE = 1e-5    # comparisons against externally produced values
_TEXT_BLOCK = 4096            # values formatted per sub-block of output text

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
    p.add_argument("--out", required=True, help="streamed output: JSON if .json, else CSV")
    p.add_argument("--threads", type=_int_range(1), default=1)
    p.add_argument("--depth-cap", type=_int_range(1, HARD_DEPTH_CAP),
                   default=DEFAULT_DEPTH_CAP)
    p.add_argument("--verify", type=_int_range(0), default=0, metavar="N",
                   help="cross-check N sampled rows against the exact oracle")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("selftest",
                       help="check the pipeline against golden values and the "
                            "exact oracles",
                       allow_abbrev=False)
    p.add_argument("--reference",
                   help="JSON file of externally produced values to enforce "
                        f"at {REFERENCE_TOLERANCE:g} absolute")
    p.add_argument("--pipelines", type=_int_range(1), default=6,
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
    ensemble = load_model(args.model, args.format, depth_cap=args.depth_cap)
    consumers = load_data(args.consumers, ensemble.feature_names)

    background = None
    if args.background is not None:
        background = load_data(args.background, ensemble.feature_names)

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
    sample = _verify_rows(ensemble, consumers.num_rows, args.verify)
    kept: dict[int, np.ndarray] = {}

    with _output_file(args.out) as fh:
        write, close = _text_sink(fh, metric, ensemble.feature_names,
                                  as_json=args.out.endswith(".json"))

        def sink(start: int, block: np.ndarray) -> None:
            write(start, block)
            for r in sample[bisect.bisect_left(sample, start):
                            bisect.bisect_left(sample, start + len(block))]:
                kept[r] = block[r - start].copy()

        woodelf(ensemble, consumers, background, metric, threads=args.threads, sink=sink)
        close(consumers.num_rows)
    print(f"wrote {consumers.num_rows} rows to {args.out}", file=sys.stderr)

    if args.verify > 0:
        dev = _oracle_deviation(ensemble, consumers.values, background, metric, kept)
        print(f"verify: max abs deviation {dev:.3e} vs oracle over "
              f"{len(kept)} rows (tolerance {ORACLE_TOLERANCE:g})", file=sys.stderr)
        if dev > ORACLE_TOLERANCE:
            raise VerificationError(
                f"oracle deviation {dev:.3e} exceeds {ORACLE_TOLERANCE:g}")
    return EXIT_OK


def _resolve_baseline(spec: str, ensemble: TreeEnsemble,
                      consumers: DataMatrix,
                      background: DataMatrix | None) -> np.ndarray:
    try:
        index = int(spec)
    except ValueError:
        table = load_data(spec, ensemble.feature_names)
        if table.num_rows == 0:
            raise DataError(f"{spec}: baseline file has no rows") from None
        return table.values[0]
    source = background if background is not None else consumers
    if not 0 <= index < source.num_rows:
        raise ModeError(
            f"--baseline-row {index} out of range for {source.num_rows} rows")
    return source.values[index]


def _verify_rows(ensemble: TreeEnsemble, n: int, sample: int,
                 seed: int = 0) -> list[int]:
    """The sorted rows that ``--verify`` checks against the exact oracle,
    chosen before the run so the output can stream past them."""
    if sample == 0:
        return []
    from . import oracle
    if ensemble.num_features > oracle.PLAYER_CAP:
        raise ModeError(
            f"--verify needs at most {oracle.PLAYER_CAP} features "
            f"(model has {ensemble.num_features})"
        )
    rng = np.random.default_rng(seed)
    return sorted(rng.choice(n, size=min(sample, n), replace=False).tolist())


def _oracle_deviation(ensemble, consumers: np.ndarray, background,
                      kind: MetricKind, kept: dict[int, np.ndarray]) -> float:
    """The largest deviation of the kept rows' values from the exact oracle."""
    from . import oracle
    worst = 0.0
    for r, values in kept.items():
        if background is not None:
            cf = oracle.tree_characteristic(ensemble, consumers[r], background)
        else:
            cf = oracle.ensemble_pd_characteristic(ensemble, consumers[r])
        reference = oracle.exact_attribution(cf, kind).values
        if reference.size:
            worst = max(worst, float(np.max(np.abs(values - reference))))
    return worst


@contextlib.contextmanager
def _output_file(path: str):
    """Open ``path`` for binary writing so that a failed run leaves it as it was.
    A new file, or an existing regular file that is not a symbolic link, is
    written under a fresh name beside it, which replaces ``path`` only when
    the block ends without an exception; on a failure (Ctrl-C included) only
    that temporary file is removed. Anything else (a symbolic link, a device
    such as ``/dev/stdout``, a pipe) is written in place and never removed."""
    try:
        st = os.lstat(path)
    except FileNotFoundError:
        st = None
    if st is not None and not stat.S_ISREG(st.st_mode):
        with open(path, "wb") as fh:
            yield fh
        return
    directory, name = os.path.split(os.path.abspath(path))
    part = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.part")
    try:
        fd = os.open(part, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise WoodelfError(f"cannot write {path}: {exc.strerror}") from exc
    try:
        with os.fdopen(fd, "wb") as fh:
            if st is not None:
                os.fchmod(fd, stat.S_IMODE(st.st_mode))
            yield fh
        os.replace(part, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(part)
        raise


def _csv_cell(text: str) -> str:
    """``text`` as ``csv.writer`` renders it inside a row of several cells."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def _text_sink(fh, metric: MetricKind, names, as_json: bool):
    """Write the header of ``compute``'s output to the binary file ``fh``
    and return ``(write, close)``: the ``woodelf()`` sink that writes each
    row block, and ``close(rows)``, which ends the file. The bytes are those
    ``csv.writer`` gives for the row ids, feature names and ``repr`` of each
    value (a line per consumer, or per pair for an interaction metric), or
    ``json.dump(doc, fh, indent=1)`` and a newline for the same rows.

    Each layout is data for one loop over sub-blocks of about ``_TEXT_BLOCK``
    values: a row is its id inside ``opening`` (in the CSV pair layout the
    id starts each value's line instead), then each value between its head
    and ``value_end``, then ``row_end``. A JSON row opens with the comma
    that parts it from the row before; the first row drops it."""
    pairs = list(itertools.combinations(range(len(names)), 2))
    if as_json:
        quoted = [json.dumps(name) for name in names]
        doc = {"metric": metric.value, "feature_names": names, "rows": []}
        header = json.dumps(doc, indent=1)[:-len("]\n}")]    # up to the row list's "["
        if metric.pairwise:
            key, value_end = '"pairs": [', "\n    }"
            heads = [f'\n    {{\n     "feature_i": {quoted[i]},\n     '
                     f'"feature_j": {quoted[j]},\n     "value": ' for i, j in pairs]
        else:
            key, value_end, heads = '"values": {', "", [f"\n    {q}: " for q in quoted]
        row_end = ("\n   " if heads else "") + ("]" if metric.pairwise else "}") + "\n  }"
        heads = [("," if c else "") + head for c, head in enumerate(heads)]
        opening = (',\n  {\n   "row_id": ', ",\n   " + key)
        id_per_value, lead, spell, trailers = False, 1, json.dumps, ("]\n}\n", "\n ]\n}\n")
    else:
        cells = [_csv_cell(name) for name in names]
        if metric.pairwise:
            header = "row_id,feature_i,feature_j,value\n"
            heads = [f",{cells[i]},{cells[j]}," for i, j in pairs]
            value_end, row_end = "\n", ""
        else:
            header = ",".join(["row_id", *cells]) + "\n"
            heads, value_end, row_end = [","] * len(cells), "", "\n"
        opening, trailers = ("", ""), ("", "")
        id_per_value, lead, spell = metric.pairwise, 0, repr
    before, after, value_end, row_end = (csvtext.text_field([t])
                                         for t in (*opening, value_end, row_end))
    heads = csvtext.text_field(heads)
    fh.write(header.encode("utf-8"))
    step = max(1, _TEXT_BLOCK // max(len(heads), 1))

    def lines(first: int, rows: np.ndarray) -> bytes:   # frees its arrays on return
        ids = csvtext.text_field(map(str, range(first, first + len(rows))))
        texts = csvtext.repr_field(rows, spell)
        texts = texts.reshape(len(rows), len(heads), texts.shape[-1])
        row_id, value_id = (ids[:1, :0], ids[:, None]) if id_per_value else (ids, ids[:1, :0])
        cells = csvtext.join(value_id, heads, texts, value_end).reshape(len(rows), -1)
        return csvtext.pack(before, row_id, after, cells, row_end)[0 if first else lead:]

    def write(start: int, block: np.ndarray) -> None:
        for lo in range(0, len(block), step):
            fh.write(lines(start + lo, block[lo:lo + step]))

    def close(rows: int) -> None:
        fh.write(trailers[rows > 0].encode("utf-8"))

    return write, close


# ---------------------------------------------------------------------------
# selftest

# The golden game 3(~x0) + 5(x0 & ~x2) + 2(x1 & x2 & ~x0), a different cube
# list that computes the same function on every assignment, and the game's
# hand-checked Shapley and Banzhaf values.
GOLDEN_CUBES = (Cube((), (0,), 3.0), Cube((0,), (2,), 5.0), Cube((1, 2), (0,), 2.0))
GOLDEN_EQUIVALENT = (
    Cube((0,), (), 5.0),
    Cube((2,), (), -5.0),
    Cube((), (0, 2), 3.0),
    Cube((2,), (0,), 10.0),
    Cube((2,), (0, 1), -2.0),
)
GOLDEN_SHAPLEY = np.array([-7.0 / 6.0, 1.0 / 3.0, -13.0 / 6.0])
GOLDEN_BANZHAF = np.array([-1.0, 0.5, -2.0])


def cube_ensemble(cubes) -> TreeEnsemble:
    """One chain tree per cube over the goldens' three features, whose game
    with the consumer at 1.0 and the baseline at 0.0 on every feature is the
    cube list's. Each literal splits its feature at 0.5; the side that
    satisfies it continues down the chain, the other is a 0 leaf, and the
    chain ends in a leaf of the cube's weight."""
    trees = []
    for cube in cubes:
        nodes = []
        literals = [(i, True) for i in cube.positive] + [(i, False) for i in cube.negative]
        for feature, positive in literals:
            # Split k holds at 1.0 (right) for a positive literal and at 0.0
            # (left) for a negated one; the other side is the 0 leaf k + 1,
            # and the chain goes on at k + 2.
            k = len(nodes)
            left, right = (k + 1, k + 2) if positive else (k + 2, k + 1)
            nodes += [inner(feature, 0.5, left, right), leaf(0.0)]
        nodes.append(leaf(cube.weight))
        trees.append(Tree(tuple(nodes), 0))
    return TreeEnsemble(tuple(trees), 3)


@dataclass
class Check:
    name: str
    value: float
    limit: float
    require_above: bool = False  # True: value must exceed limit (negative controls)

    @property
    def passed(self) -> bool:
        return self.value > self.limit if self.require_above else self.value <= self.limit


def _golden_checks() -> list[Check]:
    """The goldens through ``woodelf()``, on the chain-tree ensembles of
    ``cube_ensemble`` with a single all-zeros baseline."""
    consumer, baseline = np.ones((1, 3)), np.zeros((1, 3))

    def values(cubes, kind: MetricKind) -> np.ndarray:
        return woodelf(cube_ensemble(cubes), consumer, baseline, kind).values[0]

    def deviation(a: np.ndarray, b: np.ndarray) -> float:
        return float(np.max(np.abs(a - b)))

    golden = cube_ensemble(GOLDEN_CUBES)
    span = predict(golden, consumer[0]) - predict(golden, baseline[0])
    phi = values(GOLDEN_CUBES, MetricKind.SHAPLEY)
    beta = values(GOLDEN_CUBES, MetricKind.BANZHAF)
    heavier = (Cube((), (0,), 4.0),) + GOLDEN_CUBES[1:]
    return [
        Check("golden shapley values", deviation(phi, GOLDEN_SHAPLEY), 1e-12),
        Check("golden banzhaf values", deviation(beta, GOLDEN_BANZHAF), 1e-12),
        Check("shapley efficiency (sum = prediction difference)",
              abs(float(phi.sum()) - span), 1e-12),
        Check("robustness: equivalent ensemble, same shapley",
              deviation(values(GOLDEN_EQUIVALENT, MetricKind.SHAPLEY), phi), 1e-12),
        Check("robustness: equivalent ensemble, same banzhaf",
              deviation(values(GOLDEN_EQUIVALENT, MetricKind.BANZHAF), beta), 1e-12),
        Check("changed leaf weight moves shapley (must differ)",
              deviation(values(heavier, MetricKind.SHAPLEY), phi), 1e-6,
              require_above=True),
    ]


def _pipeline_oracle_check(count: int, seed: int = 23) -> list[Check]:
    from . import oracle
    from .synth import random_data, random_ensemble
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
      ``[row_id, feature_i, feature_j, value]`` with ``row_id`` a consumer
      row and ``feature_i < feature_j``.

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
        if not isinstance(model, (dict, str)):
            raise TypeError(f"'model' is {type(model).__name__}, not a document or a path")
        if metric.pairwise:
            pairs = [(int(row_id), int(i), int(j), float(value))
                     for row_id, i, j, value in doc["pairs"]]
            n, h = consumers.shape
            for k, (row_id, i, j, _) in enumerate(pairs):
                if not (0 <= row_id < n and 0 <= i < j < h):
                    raise ValueError(f"pairs[{k}] needs 0 <= row_id < {n}, 0 <= i < j < {h}")
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
