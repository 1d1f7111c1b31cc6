"""Command line interface: train, predict, evaluate, tune, synth, trajectory.

The setting options of ``train``, ``tune``, ``synth`` and ``trajectory``
store to the config fields they set and are absent when not given, so
the configs and ``run_trajectory`` apply the defaults they declare.

``predict`` and ``evaluate`` both serve through ``_serve``: it reads the
data block and maps ``_served_share`` over its shares (``_data_shares``)
with ``workers.map_configs``.  Each share is parsed, label-checked
(``evaluate`` only), scored and decoded in a forked worker or in this
process.  The caller joins the shares' predictions and true labels in
order; ``predict`` writes them as CSV rows, ``evaluate`` reduces them to
its metrics once.  If any share raises, the whole block is served here,
which raises the error a serial run reports.

Importing this module loads the argument parser, the model's in-memory
types and the worker map, and no command's file handling or training
code.  The names the commands use beyond that are listed in
``_DEFERRED`` and resolved through the package's lazy exports on first
access (PEP 562): the file readers and writers (``dataio``,
``serialization``) as well as training, tuning, synthesis and
trajectories.  The commands read them as attributes of this module when
they are called, so wrappers installed on it by profilers or tracers are
the ones called; in ``predict`` and ``evaluate`` they are called for the
share this process runs.  ``json`` is imported by the commands that write it.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import fields
from functools import partial
from pathlib import Path

import numpy as np

from .choices import ALL_VARIANTS, HEAD_MODES, LOSS_NAMES, METRICS, SCENARIOS
from .dataset import Dataset
from .errors import ConfigError, RuleBoostError
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
# The smallest share of an ARFF data block, in lines, that ``_serve`` forks
# a worker for.  A fork, its pipe and the wait for the child cost a few ms,
# and a row about 3 us to parse, score and decode.  On a 2-CPU host, two
# shares saved 2-3 ms of a predict of 10,000 rows and lost 6-8 ms at 2,000.
_MIN_SHARE_LINES = 5000


def _parse_labels(spec: str):
    try:
        return int(spec)
    except ValueError:
        return [name.strip() for name in spec.split(",") if name.strip()]


def _data_format(path) -> tuple:
    """The block reader and the loader of a data file: CSV for a ``.csv`` suffix, else ARFF."""
    kind = "csv" if Path(path).suffix.lower() == ".csv" else "arff"
    dataio, load = _deferred("dataio", f"load_{kind}")
    return getattr(dataio, f"read_{kind}_block"), load


def _load_dataset(path: str, labels_spec: str, block=None) -> Dataset:
    return _data_format(path)[1](path, _parse_labels(labels_spec), block)


def _list_of(kind):
    """An argparse type: comma-separated ``kind`` values, at least one, as a tuple."""

    def parse(spec: str) -> tuple:
        values = tuple(map(kind, filter(str.strip, spec.split(","))))
        if not values:
            raise argparse.ArgumentTypeError("expected at least one value")
        return values

    parse.__name__ = f"{kind.__name__} list"
    return parse


def _variant(name: str):
    """The trajectory variant called ``name``; an unknown name is a usage error."""
    for known in ALL_VARIANTS:
        if known.name == name.strip():
            return known
    raise argparse.ArgumentTypeError(
        f"unknown variant {name.strip()!r}; choose from {[v.name for v in ALL_VARIANTS]}")


def _add_data_arguments(parser):
    parser.add_argument("--data", required=True, help="dataset file (.arff or .csv)")
    parser.add_argument("--labels", required=True,
                        help="label columns: a trailing count (e.g. 6) or comma-separated names")


def _add_scenario_arguments(parser):
    parser.add_argument("--scenario", choices=SCENARIOS, required=True)
    parser.add_argument("--n", type=int, dest="n_examples", metavar="N")
    parser.add_argument("--labels", type=int, dest="n_labels", metavar="LABELS")
    parser.add_argument("--noise", type=float, dest="noise_rate", metavar="NOISE")
    parser.add_argument("--spread", type=float, dest="boundary_angle_spread", metavar="SPREAD")
    parser.add_argument("--seed", type=int)


def _given(args, names) -> dict:
    """The options among ``names`` that the command line gave, by name."""
    return {name: value for name, value in vars(args).items() if name in names}


def _config(kind, args):
    """The ``kind`` config of the options named as its fields; the others keep their defaults."""
    return kind(**_given(args, {field.name for field in fields(kind)}))


def _cmd_train(args) -> int:
    TrainConfig, train, serialization = _deferred("TrainConfig", "train", "serialization")
    dataset = _load_dataset(args.data, args.labels)
    config = _config(TrainConfig, args)
    started = time.perf_counter()
    ensemble = train(dataset, config)
    elapsed = time.perf_counter() - started
    serialization.save(ensemble, args.model)
    print(f"trained {len(ensemble)} rules on {dataset.n_examples} examples in {elapsed:.1f}s")
    print(f"model written to {args.model}")
    return 0


def _data_shares(block) -> list:
    """One share of whole lines per usable CPU, each of at least ``_MIN_SHARE_LINES`` lines.

    A CSV block stays whole: a cut between lines could fall inside a quoted value.
    """
    n_shares = 1 if block.csv else min(parallel_slots(), len(block) // _MIN_SHARE_LINES)
    return block.split(n_shares) if n_shares > 1 else [block]


def _served_share(args, ensemble: Ensemble, check_labels: bool, share) -> tuple:
    """The decode method, predictions and true labels of one ``DataBlock`` share.

    With ``check_labels``, label names that differ from the model's are an error.
    """
    dataset = _load_dataset(args.data, args.labels, share)
    if check_labels:
        check_label_names(ensemble, dataset)
    method = args.decode or default_decode_method(ensemble.meta.loss)
    if method == DECODE_KNOWN_VECTORS and ensemble.label_vectors is None:
        raise ConfigError("model carries no training label vectors; use --decode sign")
    scores = ensemble_scores(ensemble, dataset)
    return method, decode_scores(scores, method, ensemble.label_vectors), dataset.labels


def _served_share_or_none(*arguments):
    """``_served_share``, or None where it raises an error that ``main`` reports."""
    try:
        return _served_share(*arguments)
    except _REPORTED:
        return None


def _serve(args, check_labels: bool = False) -> tuple:
    """The model, decode method, predictions and true labels of ``args.data``, share by share."""
    (serialization,) = _deferred("serialization")
    ensemble = serialization.load(args.model)
    block = _data_format(args.data)[0](args.data)
    shares = _data_shares(block)
    parts = [None]
    if len(shares) > 1:
        parts = map_configs(partial(_served_share_or_none, args, ensemble, check_labels), shares)
    if None in parts:
        # One share runs here.  If one of several raised, the whole block runs
        # here and raises the error a serial run reports, earliest line first.
        parts = [_served_share(args, ensemble, check_labels, block)]
    methods, predicted, labels = zip(*parts)
    return ensemble, methods[0], np.concatenate(predicted), np.concatenate(labels)


def _cmd_predict(args) -> int:
    ensemble, method, predicted, _ = _serve(args)
    # Each row is "d,d,...,d\n": digits at even offsets, a separator after each.
    rows = np.full((len(predicted), 2 * predicted.shape[1]), ord(","), dtype=np.uint8)
    rows[:, 0::2] = np.where(predicted == 1, ord("1"), ord("0"))
    rows[:, -1] = ord("\n")
    # A name holding a separator, a quote or a line end is quoted as the csv module quotes it.
    names = ['"' + name.replace('"', '""') + '"' if set(',"\r\n') & set(name) else name
             for name in ensemble.label_names]
    text = ",".join(names) + "\n" + rows.tobytes().decode("ascii")
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {len(predicted)} predictions ({method} decoding) to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_evaluate(args) -> int:
    _, method, predicted, labels = _serve(args, check_labels=True)
    report = evaluate_predictions(labels, predicted)
    report["decode"] = method
    report["n_examples"] = len(labels)
    for key, value in report.items():
        print(f"{key}={value}")
    if args.json:
        import json

        Path(args.json).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


def _cmd_tune(args) -> int:
    GridSearchConfig, grid_search = _deferred("GridSearchConfig", "grid_search")
    dataset = _load_dataset(args.data, args.labels)
    config = _config(GridSearchConfig, args)
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

    SyntheticConfig, SyntheticProcess, generate, save_arff = _deferred(
        "SyntheticConfig", "SyntheticProcess", "generate", "save_arff")
    config = _config(SyntheticConfig, args)
    train_data, test_data = generate(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_arff(train_data, out / "train.arff", relation=f"synthetic_{config.scenario}_train")
    save_arff(test_data, out / "test.arff", relation=f"synthetic_{config.scenario}_test")
    process = SyntheticProcess(config)
    sidecar = {
        "scenario": config.scenario,
        "seed": config.seed,
        "noise_rate": config.noise_rate,
        "boundary_angles": [float(a) for a in process.angles],
    }
    (out / "boundaries.json").write_text(json.dumps(sidecar, indent=2) + "\n", encoding="utf-8")
    print(f"wrote train.arff, test.arff and boundaries.json to {out}")
    return 0


def _cmd_trajectory(args) -> int:
    SyntheticConfig, generate, run_trajectory = _deferred(
        "SyntheticConfig", "generate", "run_trajectory")
    config = _config(SyntheticConfig, args)
    train_data, test_data = generate(config)
    variants = [v for v in ALL_VARIANTS if v in args.variants]
    series = run_trajectory(train_data, test_data, variants, seed=config.seed,
                            **_given(args, ("checkpoints", "shrinkage", "l2_weight")))
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

    suppress = {"argument_default": argparse.SUPPRESS}
    p_train = sub.add_parser("train", help="train a rule ensemble and save the model", **suppress)
    _add_data_arguments(p_train)
    p_train.add_argument("--loss", choices=LOSS_NAMES)
    p_train.add_argument("--head", choices=HEAD_MODES, dest="head_mode")
    p_train.add_argument("--rules", type=int, dest="n_rules", metavar="RULES")
    p_train.add_argument("--shrinkage", type=float)
    p_train.add_argument("--l2", type=float, dest="l2_weight", metavar="L2")
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--no-bagging", action="store_false", dest="bagging")
    p_train.add_argument("--no-feature-sampling", action="store_false", dest="feature_sampling")
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

    p_tune = sub.add_parser("tune", help="holdout grid search over hyperparameters", **suppress)
    _add_data_arguments(p_tune)
    p_tune.add_argument("--loss", choices=LOSS_NAMES)
    p_tune.add_argument("--head", choices=HEAD_MODES, dest="head_mode")
    p_tune.add_argument("--shrinkage-grid", type=_list_of(float), dest="shrinkages",
                        metavar="SHRINKAGE_GRID")
    p_tune.add_argument("--l2-grid", type=_list_of(float), dest="l2_weights", metavar="L2_GRID")
    p_tune.add_argument("--rules-grid", type=_list_of(int), dest="rule_counts",
                        metavar="RULES_GRID")
    p_tune.add_argument("--val-fraction", type=float, dest="validation_fraction",
                        metavar="VAL_FRACTION")
    p_tune.add_argument("--metric", choices=METRICS)
    p_tune.add_argument("--seed", type=int)
    p_tune.add_argument("--json", default=None, help="write the full report as JSON")
    p_tune.set_defaults(func=_cmd_tune)

    p_synth = sub.add_parser("synth", help="generate a synthetic benchmark", **suppress)
    _add_scenario_arguments(p_synth)
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.set_defaults(func=_cmd_synth)

    p_traj = sub.add_parser(
        "trajectory", help="loss trajectories of the four variants on synthetic data", **suppress
    )
    _add_scenario_arguments(p_traj)
    p_traj.add_argument("--variants", type=_list_of(_variant), default=ALL_VARIANTS,
                        help="comma-separated variant names")
    p_traj.add_argument("--checkpoints", type=_list_of(int))
    p_traj.add_argument("--shrinkage", type=float)
    p_traj.add_argument("--l2", type=float, dest="l2_weight", metavar="L2")
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
