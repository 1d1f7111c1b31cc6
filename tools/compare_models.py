"""Train the same 144 models and trajectories under two source trees and compare them.

Usage::

    python tools/compare_models.py PARENT_SRC CHANGE_SRC

Each ``*_SRC`` is a directory that contains the ``ruleboost`` package
(for example a checkout's ``src``).  Both trees train, each in its own
subprocess, every combination of

* 3 synthetic scenarios (n = 2000, 6 labels) x seeds 0-2,
* 4 variants (label-wise / example-wise loss x single / all-label heads),
* l2 weight 0 and 1,
* plain data and tie-heavy data (columns rounded to one decimal, with
  5% of the values missing),

each with 100 rules.  The script prints how many models are
byte-identical, how many have the same rule bodies, and the largest head
difference among the models with the same bodies, then lists every model
that differs.

Both trees also run ``ruleboost trajectory`` at the settings of the
benchmark's ``trajectory-4v`` workload (conditional_dependence, n = 2000,
6 labels, noise 0.1, ``--seed 0``, checkpoints 1,2,4,8,16,32,50), and the
script compares the four series CSVs byte for byte.

Last, each tree runs ``python -m ruleboost.cli`` as a process: ``--help``
of the program and of every subcommand, and ``predict`` on one model
(written by the parent tree), its CSV read from stdout through a pipe.
``predict`` runs with both decoders on the test file, once on a tie-heavy
rewrite of it (features rounded to one decimal, 5% of them '?', which
sends numeric columns through the per-cell converter) and once on the
test file with a '%' comment line in its data block, which is read by
the per-line tokenizer rather than in one split.  The script compares
their stdout, stderr and exit codes byte for byte.

It exits 1 when any model, series or command line output differs.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SCENARIOS = ("marginal_independence", "marginal_dependence", "conditional_dependence")
SEEDS = (0, 1, 2)
VARIANTS = (
    ("label-wise-logistic", "single"),
    ("label-wise-logistic", "multi"),
    ("example-wise-logistic", "single"),
    ("example-wise-logistic", "multi"),
)
L2_WEIGHTS = (0.0, 1.0)
DATA_KINDS = ("plain", "tie-heavy")
N_EXAMPLES = 2000
N_LABELS = 6
N_RULES = 100
TRAJECTORY_ARGS = (
    "trajectory", "--scenario", "conditional_dependence", "--n", "2000", "--labels", "6",
    "--noise", "0.1", "--seed", "0", "--checkpoints", "1,2,4,8,16,32,50",
)
SUBCOMMANDS = ("train", "predict", "evaluate", "tune", "synth", "trajectory")
DECODERS = ("sign", "known-vectors")


def _tie_heavy(dataset, seed):
    """The dataset's columns rounded to one decimal, with 5% of the values missing."""
    import numpy as np
    from ruleboost.dataset import Dataset

    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    columns = []
    for column in dataset.columns:
        column = np.round(column, 1)
        column[rng.random(column.shape[0]) < 0.05] = np.nan
        columns.append(column)
    return Dataset(dataset.schema, columns, dataset.labels, dataset.label_names)


def emit_models(src: str) -> None:
    """Train every model with the ruleboost package found in ``src``; print one JSON line each."""
    sys.path.insert(0, src)
    from ruleboost.serialization import dumps
    from ruleboost.synthetic import SyntheticConfig, generate
    from ruleboost.training import TrainConfig, train

    for scenario in SCENARIOS:
        for seed in SEEDS:
            plain, _ = generate(SyntheticConfig(scenario, N_EXAMPLES, N_LABELS, seed=seed))
            for kind in DATA_KINDS:
                data = plain if kind == "plain" else _tie_heavy(plain, seed)
                for loss, head_mode in VARIANTS:
                    for l2 in L2_WEIGHTS:
                        config = TrainConfig(loss=loss, n_rules=N_RULES, l2_weight=l2,
                                             head_mode=head_mode, seed=seed)
                        name = f"{scenario}/seed{seed}/{kind}/{loss}/{head_mode}/l2={l2:g}"
                        print(json.dumps({"name": name, "model": dumps(train(data, config))}),
                              flush=True)


def emit_trajectory(src: str, out: str) -> int:
    """Run ``ruleboost trajectory`` at the trajectory-4v settings with the package in ``src``."""
    sys.path.insert(0, src)
    from ruleboost.cli import main as cli_main

    return cli_main([*TRAJECTORY_ARGS, "--out", out])


def _run(src: str, *args: str) -> str:
    completed = subprocess.run(
        [sys.executable, __file__, *args], capture_output=True, text=True, check=False,
    )
    if completed.returncode != 0:
        raise SystemExit(f"running under {src} failed:\n{completed.stderr}")
    return completed.stdout


def _models_of(src: str) -> dict[str, str]:
    lines = [json.loads(line) for line in _run(src, "--emit", src).splitlines()]
    return {line["name"]: line["model"] for line in lines}


def _series_of(src: str) -> dict[str, bytes]:
    with tempfile.TemporaryDirectory() as out:
        _run(src, "--trajectory", src, out)
        return {path.name: path.read_bytes() for path in sorted(Path(out).glob("*.csv"))}


def _cli(src: str, *args: str) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of ``python -m ruleboost.cli args`` with the package in ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    completed = subprocess.run([sys.executable, "-m", "ruleboost.cli", *args], env=env,
                               capture_output=True, check=False)
    return completed.returncode, completed.stdout, completed.stderr


def _test_file_variants(test: Path) -> tuple[Path, Path]:
    """The test file rewritten tie-heavy, and with a comment line in its data block."""
    head, data = test.read_text(encoding="utf-8").split("@data\n")
    rows = data.splitlines()
    rng = random.Random(7)
    tie_rows = []
    for row in rows:
        cells = row.split(",")
        cells[:-N_LABELS] = ["?" if rng.random() < 0.05 else repr(round(float(c), 1))
                             for c in cells[:-N_LABELS]]
        tie_rows.append(",".join(cells))
    commented_rows = rows[:5] + ["% a comment line inside the data block"] + rows[5:]
    paths = test.with_name("test_tie_heavy.arff"), test.with_name("test_commented.arff")
    for path, lines in zip(paths, (tie_rows, commented_rows)):
        path.write_text(head + "@data\n" + "\n".join(lines) + "\n", encoding="utf-8")
    return paths


def _cli_outputs(parent_src: str, change_src: str) -> tuple[dict, dict]:
    """Each tree's ``--help`` texts and piped ``predict`` outputs, by command line."""
    with tempfile.TemporaryDirectory() as work:
        data, model = Path(work) / "data", Path(work) / "model.json"
        for args in (
            ("synth", "--scenario", "marginal_dependence", "--n", str(N_EXAMPLES),
             "--labels", str(N_LABELS), "--out", str(data)),
            ("train", "--data", str(data / "train.arff"), "--labels", str(N_LABELS),
             "--loss", "example-wise-logistic", "--rules", str(N_RULES), "--model", str(model)),
        ):
            status, _, stderr = _cli(parent_src, *args)
            if status != 0:
                raise SystemExit(f"ruleboost {args[0]} under {parent_src} failed:\n"
                                 f"{stderr.decode(errors='replace')}")
        tie_heavy, commented = _test_file_variants(data / "test.arff")
        commands = {" ".join(args): args
                    for args in [("--help",)] + [(command, "--help") for command in SUBCOMMANDS]}
        for method, test in [(method, data / "test.arff") for method in DECODERS] + [
                ("sign", tie_heavy), ("known-vectors", commented)]:
            commands[f"predict --decode {method} --data {test.name}"] = (
                "predict", "--decode", method, "--data", str(test), "--labels", str(N_LABELS),
                "--model", str(model))
        return tuple({name: _cli(src, *args) for name, args in commands.items()}
                     for src in (parent_src, change_src))


def _bodies_and_heads(model: str):
    document = json.loads(model)
    bodies = [json.dumps(rule["conditions"]) for rule in document["rules"]]
    heads = [(rule["label"], rule["scores"]) for rule in document["rules"]]
    return bodies, heads


def _head_difference(first, second) -> float:
    """Largest |a - b| / max(|a|, |b|, 1e-300) over the head entries of two models."""
    worst = 0.0
    for (label_a, scores_a), (label_b, scores_b) in zip(first, second):
        if label_a != label_b:
            return float("inf")
        for a, b in zip(scores_a, scores_b):
            if a != b:
                worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-300))
    return worst


def compare(parent_src: str, change_src: str) -> int:
    with ThreadPoolExecutor(2) as pool:
        parent, change = pool.map(_models_of, (parent_src, change_src))
        parent_series, change_series = pool.map(_series_of, (parent_src, change_src))
    if parent.keys() != change.keys():
        raise SystemExit("the two trees trained different model sets")
    identical = same_bodies = 0
    worst_head = 0.0
    differing = []
    for name in parent:
        if parent[name] == change[name]:
            identical += 1
            same_bodies += 1
            continue
        bodies_a, heads_a = _bodies_and_heads(parent[name])
        bodies_b, heads_b = _bodies_and_heads(change[name])
        if bodies_a == bodies_b:
            same_bodies += 1
            difference = _head_difference(heads_a, heads_b)
            worst_head = max(worst_head, difference)
            differing.append(f"{name}: same bodies, head difference {difference:.3g} (relative)")
        else:
            first = next(i for i, (a, b) in enumerate(zip(bodies_a, bodies_b)) if a != b)
            differing.append(f"{name}: bodies differ from rule {first + 1}")
    total = len(parent)
    print(f"models: {total}")
    print(f"byte-identical: {identical}/{total}")
    print(f"same bodies: {same_bodies}/{total}")
    print(f"worst head difference among same bodies: {worst_head:.3g} (relative)")
    for line in differing:
        print(f"  {line}")
    if parent_series.keys() != change_series.keys() or len(parent_series) != 4:
        raise SystemExit("the two trees wrote different trajectory series")
    same_series = [name for name in parent_series if parent_series[name] == change_series[name]]
    print(f"trajectory series byte-identical: {len(same_series)}/{len(parent_series)}")
    for name in parent_series:
        if name not in same_series:
            print(f"  {name} differs")
    parent_cli, change_cli = _cli_outputs(parent_src, change_src)
    same_cli = [name for name in parent_cli if parent_cli[name] == change_cli[name]]
    print(f"command line outputs byte-identical: {len(same_cli)}/{len(parent_cli)}")
    for name in parent_cli:
        if name not in same_cli:
            print(f"  ruleboost {name} differs")
    same = (identical == total, len(same_series) == len(parent_series),
            len(same_cli) == len(parent_cli))
    return 0 if all(same) else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 2 and argv[0] == "--emit":
        emit_models(argv[1])
        return 0
    if len(argv) == 3 and argv[0] == "--trajectory":
        return emit_trajectory(argv[1], argv[2])
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    return compare(*argv)


if __name__ == "__main__":
    sys.exit(main())
