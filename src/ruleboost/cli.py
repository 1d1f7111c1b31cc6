"""Command line interface: train, predict, evaluate, tune, synth, trajectory.

``predict`` splits an ARFF data block into one share of whole lines per
usable CPU (``_data_shares``) and maps ``_predicted_rows`` over them with
``workers.map_configs``: each share is parsed, scored, decoded and
formatted as CSV rows in a forked worker or in this process, and the
rows are written in share order.  If any share raises, the whole file is
predicted here, which raises the error a serial run reports.

Importing this module loads the argument parser, the model's in-memory
types and the worker map, and no command's file handling or training
code.  The names the commands use beyond that are listed in
``_DEFERRED`` and resolved through the package's lazy exports on first
access (PEP 562): the file readers and writers (``dataio``,
``serialization``) as well as training, tuning, synthesis and
trajectories.  The commands read them as attributes of this module when
they are called, so wrappers installed on it by profilers or tracers are
the ones called; in ``predict`` they are called for the share this
process runs.  ``json`` is imported by the commands that write it.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from .choices import (
    ALL_VARIANTS,
    DEFAULT_CHECKPOINTS,
    DEFAULT_L2_WEIGHTS,
    DEFAULT_RULE_COUNTS,
    DEFAULT_SHRINKAGES,
    HEAD_MULTI,
    HEAD_SINGLE,
    METRICS,
    SCENARIOS,
)
from .dataset import Dataset
from .errors import ConfigError, RuleBoostError
from .losses import EXAMPLE_WISE_LOGISTIC, LABEL_WISE_LOGISTIC
from .metrics import evaluate_predictions
from .prediction import (
    DECODE_KNOWN_VECTORS,
    DECODE_METHODS,
    decode_scores,
    default_decode_method,
)
from .rules import Ensemble, check_label_names, ensemble_scores
from .workers import map_configs, parallel_slots

# The names that not every command uses: file input and output, and training.
_DEFERRED = frozenset({
    "dataio", "load_arff", "load_csv", "save_arff", "serialization",
    "TrainConfig", "train", "SyntheticConfig", "SyntheticProcess", "generate",
    "run_trajectory", "GridSearchConfig", "grid_search",
})


def __getattr__(name: str):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(sys.modules[__package__], name)
    globals()[name] = value
    return value


def _deferred(*names: str) -> list:
    """This module's current ``names``, importing their modules on first use."""
    namespace = globals()
    return [namespace[name] if name in namespace else __getattr__(name) for name in names]


# The errors that ``main`` reports as one "error:" line and exit status 1.
_REPORTED = (RuleBoostError, OSError, ValueError)
# The smallest share of an ARFF data block, in lines, that ``predict`` forks
# a worker for.  A fork, its pipe and the wait for the child cost a few ms,
# and a row about 3 us to parse, score and decode.  On a 2-CPU host, two
# shares saved 2-3 ms of a predict of 10,000 rows and lost 6-8 ms at 2,000.
_MIN_SHARE_LINES = 5000

LOSS_CHOICES = (LABEL_WISE_LOGISTIC, EXAMPLE_WISE_LOGISTIC)
HEAD_CHOICES = (HEAD_SINGLE, HEAD_MULTI)


def _parse_labels(spec: str):
    try:
        return int(spec)
    except ValueError:
        return [name.strip() for name in spec.split(",") if name.strip()]


def _load_dataset(path: str, labels_spec: str) -> Dataset:
    labels = _parse_labels(labels_spec)
    (load,) = _deferred("load_csv" if Path(path).suffix.lower() == ".csv" else "load_arff")
    return load(path, labels)


def _float_list(spec: str) -> tuple[float, ...]:
    return tuple(float(x) for x in spec.split(",") if x.strip())


def _int_list(spec: str) -> tuple[int, ...]:
    return tuple(int(x) for x in spec.split(",") if x.strip())


def _add_data_arguments(parser):
    parser.add_argument("--data", required=True, help="dataset file (.arff or .csv)")
    parser.add_argument(
        "--labels",
        required=True,
        help="label columns: a trailing count (e.g. 6) or comma-separated names",
    )


def _add_scenario_arguments(parser):
    parser.add_argument("--scenario", choices=SCENARIOS, required=True)
    parser.add_argument("--n", type=int, default=10000)
    parser.add_argument("--labels", type=int, default=6)
    parser.add_argument("--noise", type=float, default=0.1)
    parser.add_argument("--spread", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=0)


def _synthetic_config(args):
    """The ``SyntheticConfig`` that the arguments of ``_add_scenario_arguments`` describe."""
    (SyntheticConfig,) = _deferred("SyntheticConfig")
    return SyntheticConfig(
        scenario=args.scenario,
        n_examples=args.n,
        n_labels=args.labels,
        noise_rate=args.noise,
        boundary_angle_spread=args.spread,
        seed=args.seed,
    )


def _decode_predictions(ensemble: Ensemble, dataset: Dataset, method: str | None):
    if method is None:
        method = default_decode_method(ensemble.meta.loss)
    if method == DECODE_KNOWN_VECTORS and ensemble.label_vectors is None:
        raise ConfigError("model carries no training label vectors; use --decode sign")
    scores = ensemble_scores(ensemble, dataset)
    return decode_scores(scores, method, ensemble.label_vectors), method


def _cmd_train(args) -> int:
    TrainConfig, train, serialization = _deferred("TrainConfig", "train", "serialization")
    dataset = _load_dataset(args.data, args.labels)
    config = TrainConfig(
        loss=args.loss,
        n_rules=args.rules,
        shrinkage=args.shrinkage,
        l2_weight=args.l2,
        head_mode=args.head,
        bagging=not args.no_bagging,
        feature_sampling=not args.no_feature_sampling,
        seed=args.seed,
    )
    started = time.perf_counter()
    ensemble = train(dataset, config)
    elapsed = time.perf_counter() - started
    serialization.save(ensemble, args.model)
    print(f"trained {len(ensemble)} rules on {dataset.n_examples} examples in {elapsed:.1f}s")
    print(f"model written to {args.model}")
    return 0


def _data_shares(path) -> list:
    """What ``predict`` maps over: shares of an ARFF data block, or [None] for the whole file.

    There is one share of whole lines per usable CPU, each of at least
    ``_MIN_SHARE_LINES`` lines.  With a CSV file, or one usable CPU, the
    loader reads the file in one piece, without splitting it into lines
    here first.
    """
    slots = parallel_slots()
    if slots == 1 or Path(path).suffix.lower() == ".csv":
        return [None]
    (dataio,) = _deferred("dataio")
    block = dataio.read_arff_block(path)
    n_shares = min(slots, len(block) // _MIN_SHARE_LINES)
    return block.split(n_shares) if n_shares > 1 else [block]


def _predicted_rows(args, ensemble: Ensemble, share) -> tuple[str, int, str]:
    """The decode method, the row count and the CSV rows of the predictions for one data share.

    ``share`` is an ``ArffBlock`` of the data file, or None for the whole file.
    """
    if share is None:
        dataset = _load_dataset(args.data, args.labels)
    else:
        (load_arff,) = _deferred("load_arff")
        dataset = load_arff(args.data, _parse_labels(args.labels), share)
    predicted, method = _decode_predictions(ensemble, dataset, args.decode)
    # Each row is "d,d,...,d\n": digits at even offsets, a separator after each.
    rows = np.full((len(predicted), 2 * predicted.shape[1]), ord(","), dtype=np.uint8)
    rows[:, 0::2] = np.where(predicted == 1, ord("1"), ord("0"))
    rows[:, -1] = ord("\n")
    return method, len(predicted), rows.tobytes().decode("ascii")


def _predicted_rows_or_none(args, ensemble: Ensemble, share):
    """``_predicted_rows``, or None where it raises an error that ``main`` reports."""
    try:
        return _predicted_rows(args, ensemble, share)
    except _REPORTED:
        return None


def _cmd_predict(args) -> int:
    (serialization,) = _deferred("serialization")
    ensemble = serialization.load(args.model)
    shares = _data_shares(args.data)
    parts = [None]
    if len(shares) > 1:
        parts = map_configs(partial(_predicted_rows_or_none, args, ensemble), shares)
    if None in parts:
        # One share runs here.  If one of several raised, the whole file runs
        # here and raises the error a serial run reports, earliest line first.
        parts = [_predicted_rows(args, ensemble, shares[0] if len(shares) == 1 else None)]
    method = parts[0][0]
    text = ",".join(ensemble.label_names) + "\n" + "".join(rows for _, _, rows in parts)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        n_rows = sum(n for _, n, _ in parts)
        print(f"wrote {n_rows} predictions ({method} decoding) to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_evaluate(args) -> int:
    (serialization,) = _deferred("serialization")
    ensemble = serialization.load(args.model)
    dataset = _load_dataset(args.data, args.labels)
    check_label_names(ensemble, dataset)
    predicted, method = _decode_predictions(ensemble, dataset, args.decode)
    report = evaluate_predictions(dataset.labels, predicted)
    report["decode"] = method
    report["n_examples"] = dataset.n_examples
    for key, value in report.items():
        print(f"{key}={value}")
    if args.json:
        import json

        Path(args.json).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


def _cmd_tune(args) -> int:
    GridSearchConfig, grid_search = _deferred("GridSearchConfig", "grid_search")
    dataset = _load_dataset(args.data, args.labels)
    config = GridSearchConfig(
        loss=args.loss,
        head_mode=args.head,
        shrinkages=_float_list(args.shrinkage_grid),
        l2_weights=_float_list(args.l2_grid),
        rule_counts=_int_list(args.rules_grid),
        validation_fraction=args.val_fraction,
        metric=args.metric,
        seed=args.seed,
    )
    best, report = grid_search(dataset, config)
    print(f"grid search over {len(report.cells)} cells ({len(report.failures)} failures)")
    print(f"best: rules={best.n_rules} shrinkage={best.shrinkage} l2={best.l2_weight}")
    print(f"metric={report.metric}")
    if args.json:
        import json

        payload = report.to_dict()
        payload["best"] = {
            "n_rules": best.n_rules,
            "shrinkage": best.shrinkage,
            "l2_weight": best.l2_weight,
            "loss": best.loss,
            "head_mode": best.head_mode,
        }
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return 0


def _cmd_synth(args) -> int:
    import json

    SyntheticProcess, generate, save_arff = _deferred("SyntheticProcess", "generate", "save_arff")
    config = _synthetic_config(args)
    train_data, test_data = generate(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_arff(train_data, out / "train.arff", relation=f"synthetic_{args.scenario}_train")
    save_arff(test_data, out / "test.arff", relation=f"synthetic_{args.scenario}_test")
    process = SyntheticProcess(config)
    sidecar = {
        "scenario": args.scenario,
        "seed": args.seed,
        "noise_rate": args.noise,
        "boundary_angles": [float(a) for a in process.angles],
    }
    (out / "boundaries.json").write_text(json.dumps(sidecar, indent=2) + "\n", encoding="utf-8")
    print(f"wrote train.arff, test.arff and boundaries.json to {out}")
    return 0


def _cmd_trajectory(args) -> int:
    generate, run_trajectory = _deferred("generate", "run_trajectory")
    config = _synthetic_config(args)
    train_data, test_data = generate(config)
    wanted = {v.strip() for v in args.variants.split(",") if v.strip()}
    variants = [v for v in ALL_VARIANTS if v.name in wanted]
    unknown = wanted - {v.name for v in ALL_VARIANTS}
    if unknown:
        raise ConfigError(
            f"unknown variants {sorted(unknown)}; "
            f"choose from {[v.name for v in ALL_VARIANTS]}"
        )
    checkpoints = _int_list(args.checkpoints)
    series = run_trajectory(
        train_data,
        test_data,
        variants,
        checkpoints,
        shrinkage=args.shrinkage,
        l2_weight=args.l2,
        seed=args.seed,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, points in series.items():
        path = out / f"trajectory_{name}.csv"
        lines = ["rules,hamming,subset01"]
        lines += [f"{p.n_rules},{p.hamming},{p.subset01}" for p in points]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ruleboost",
        description="Gradient-boosted single- and multi-label classification rules",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a rule ensemble and save the model")
    _add_data_arguments(p_train)
    p_train.add_argument("--loss", choices=LOSS_CHOICES, default=LABEL_WISE_LOGISTIC)
    p_train.add_argument("--head", choices=HEAD_CHOICES, default=HEAD_MULTI)
    p_train.add_argument("--rules", type=int, default=100)
    p_train.add_argument("--shrinkage", type=float, default=0.3)
    p_train.add_argument("--l2", type=float, default=0.0)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--no-bagging", action="store_true")
    p_train.add_argument("--no-feature-sampling", action="store_true")
    p_train.add_argument("--model", required=True, help="output model path")
    p_train.set_defaults(func=_cmd_train)

    p_predict = sub.add_parser("predict", help="predict label vectors for a dataset")
    _add_data_arguments(p_predict)
    p_predict.add_argument("--model", required=True)
    p_predict.add_argument("--decode", choices=DECODE_METHODS, default=None)
    p_predict.add_argument("--output", help="output CSV path (default: stdout)")
    p_predict.set_defaults(func=_cmd_predict)

    p_eval = sub.add_parser("evaluate", help="evaluate a model on a labeled dataset")
    _add_data_arguments(p_eval)
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--decode", choices=DECODE_METHODS, default=None)
    p_eval.add_argument("--json", help="also write the metrics as JSON")
    p_eval.set_defaults(func=_cmd_evaluate)

    p_tune = sub.add_parser("tune", help="holdout grid search over hyperparameters")
    _add_data_arguments(p_tune)
    p_tune.add_argument("--loss", choices=LOSS_CHOICES, default=LABEL_WISE_LOGISTIC)
    p_tune.add_argument("--head", choices=HEAD_CHOICES, default=HEAD_MULTI)
    p_tune.add_argument(
        "--shrinkage-grid", default=",".join(str(x) for x in DEFAULT_SHRINKAGES)
    )
    p_tune.add_argument("--l2-grid", default=",".join(str(x) for x in DEFAULT_L2_WEIGHTS))
    p_tune.add_argument(
        "--rules-grid", default=",".join(str(x) for x in DEFAULT_RULE_COUNTS)
    )
    p_tune.add_argument("--val-fraction", type=float, default=1.0 / 3.0)
    p_tune.add_argument("--metric", choices=METRICS, default="subset01")
    p_tune.add_argument("--seed", type=int, default=0)
    p_tune.add_argument("--json", help="write the full report as JSON")
    p_tune.set_defaults(func=_cmd_tune)

    p_synth = sub.add_parser("synth", help="generate a synthetic benchmark")
    _add_scenario_arguments(p_synth)
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.set_defaults(func=_cmd_synth)

    p_traj = sub.add_parser(
        "trajectory", help="loss trajectories of the four variants on synthetic data"
    )
    _add_scenario_arguments(p_traj)
    p_traj.add_argument(
        "--variants",
        default=",".join(v.name for v in ALL_VARIANTS),
        help="comma-separated variant names",
    )
    p_traj.add_argument(
        "--checkpoints", default=",".join(str(t) for t in DEFAULT_CHECKPOINTS)
    )
    p_traj.add_argument("--shrinkage", type=float, default=0.3)
    p_traj.add_argument("--l2", type=float, default=0.0)
    p_traj.add_argument("--out", required=True, help="output directory")
    p_traj.set_defaults(func=_cmd_trajectory)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _REPORTED as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """Process entry of ``ruleboost`` and ``python -m ruleboost.cli``: ``main``, then exit.

    After flushing stdout and stderr it leaves with ``os._exit``, skipping
    the interpreter's teardown, which frees every loaded module and
    object only for the process to end.  Every file the commands write
    is closed before ``main`` returns.  A process that a tracer or
    profiler watches, or whose flush fails, exits normally instead, so
    that they report as they always do.
    """
    status = main()
    if not _observed():
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        except OSError:
            pass
        else:
            os._exit(status)
    sys.exit(status)


def _observed() -> bool:
    """Whether a tracer or profiler is set.

    It is set by ``sys.settrace`` or ``sys.setprofile`` or, from Python
    3.12, where cProfile and coverage use it, as a ``sys.monitoring`` tool.
    """
    if sys.gettrace() is not None or sys.getprofile() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)
    # Tool ids 0-5 are the debugger, coverage, profiler, two spare ids and the optimizer.
    return monitoring is not None and any(monitoring.get_tool(i) is not None for i in range(6))


if __name__ == "__main__":
    run()
