"""Time training on data of two benchmark shapes under two source trees.

Usage::

    python tools/shape_bench.py --label LABEL TREE_A TREE_B

Each ``TREE`` is a checkout of the repository (a clone or a ``git
worktree`` of any commit) whose ``src`` holds the ``ruleboost`` package.
The data are generated here, seeded, in two shapes:

* ``scene``: 969 rows, 294 dense numeric features, 6 labels;
* ``medical``: 780 rows, 1,449 binary nominal features ("0"/"1", 2% of
  the cells "1"), 45 labels.

Each label is the sign of a sparse linear score of the features plus
Gaussian noise, cut at a per-label quantile, so that labels have their
own base rates.  These shapes stand in for the scene and medical data
sets of the multi-label literature; they are not that data.

Every cell, one shape and one of the four variants (label-wise or
example-wise loss, single-label or all-label heads) at l2 weight 1 with
the shape's fixed rule count, trains in a fresh process with the package
of one tree.  The two trees alternate, the first of each pair by turns,
``REPEATS`` times per cell.  For each cell and tree the tool records
the training time per rule (data generation excluded), the process's
peak RSS and the sha256 of the saved model, and writes them to
``BENCH_shape-<LABEL>.json`` at the root of the repository with the
trees' commits and the machine as ``perfbench/run.py``'s ``machine()``
gives it (which imports scipy).  It prints a table of medians and
reports no gain or loss of its own.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Rows, features, labels, feature kind and rules trained per shape.
SHAPES = {
    "scene": {"rows": 969, "features": 294, "labels": 6, "kind": "numeric", "rules": 100},
    "medical": {"rows": 780, "features": 1449, "labels": 45, "kind": "binary nominal",
                "rules": 20},
}
VARIANTS = (
    ("label-wise-logistic", "single"),
    ("label-wise-logistic", "multi"),
    ("example-wise-logistic", "single"),
    ("example-wise-logistic", "multi"),
)
L2_WEIGHT = 1.0
SEED = 0
# Fresh processes per cell and tree.
REPEATS = 3
# Features that each label's linear score reads, its noise and the base
# rates that its cut gives.
ACTIVE_FEATURES = 8
NOISE = 0.5
MEDICAL_DENSITY = 0.02


def generate(shape: str):
    """The seeded data set of one shape."""
    import numpy as np
    from ruleboost.dataset import NOMINAL, NUMERIC, Attribute, AttributeSchema, Dataset

    spec = SHAPES[shape]
    rng = np.random.default_rng(np.random.SeedSequence([SEED, spec["features"]]))
    n, m, n_labels = spec["rows"], spec["features"], spec["labels"]
    if shape == "scene":
        features = rng.normal(size=(n, m))
        attributes = [Attribute(f"f{j}", NUMERIC) for j in range(m)]
        columns = list(features.T.copy())
        # Label rates of 10-25%, as in scene.
        rates = rng.uniform(0.10, 0.25, n_labels)
    else:
        features = (rng.random((n, m)) < MEDICAL_DENSITY).astype(np.int64)
        attributes = [Attribute(f"w{j}", NOMINAL, ("0", "1")) for j in range(m)]
        columns = list(features.T.copy())
        # Mostly rare labels, as in medical.
        rates = np.clip(rng.exponential(0.03, n_labels), 0.005, 0.3)
    labels = np.empty((n, n_labels), dtype=np.int8)
    for k in range(n_labels):
        active = rng.choice(m, size=ACTIVE_FEATURES, replace=False)
        linear = features[:, active] @ rng.normal(size=ACTIVE_FEATURES)
        score = linear / (linear.std() or 1.0) + NOISE * rng.normal(size=n)
        labels[:, k] = np.where(score > np.quantile(score, 1.0 - rates[k]), 1, -1)
    return Dataset(AttributeSchema(tuple(attributes)), columns, labels,
                   [f"l{k}" for k in range(n_labels)])


def run_cell(shape: str, loss: str, head_mode: str) -> dict:
    """Train one cell with the package on ``sys.path``; return its time, RSS and model hash."""
    import hashlib
    import resource

    import ruleboost
    from ruleboost.serialization import dumps
    from ruleboost.training import TrainConfig, train

    dataset = generate(shape)
    config = TrainConfig(loss=loss, n_rules=SHAPES[shape]["rules"], l2_weight=L2_WEIGHT,
                         head_mode=head_mode, seed=SEED)
    started = time.perf_counter()
    model = train(dataset, config)
    seconds = time.perf_counter() - started
    return {
        "package": str(Path(ruleboost.__file__).resolve().parent),
        "ms_per_rule": 1000.0 * seconds / config.n_rules,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sha256": hashlib.sha256(dumps(model).encode()).hexdigest(),
    }


def _in_tree(tree: Path, shape: str, loss: str, head_mode: str) -> dict:
    env = dict(os.environ)
    src = tree / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, __file__, "--cell", shape, loss, head_mode], env=env,
        capture_output=True, text=True, check=False,
    )
    if completed.returncode != 0:
        raise SystemExit(f"{shape} {loss} {head_mode} under {tree} failed:\n{completed.stderr}")
    result = json.loads(completed.stdout.splitlines()[-1])
    if Path(result["package"]) != (src / "ruleboost").resolve():
        raise SystemExit(f"the cell under {tree} imported ruleboost from {result['package']}")
    return result


def _summary(runs: list[dict]) -> dict:
    times = [run["ms_per_rule"] for run in runs]
    rss = [run["peak_rss_mb"] for run in runs]
    return {
        "ms_per_rule": times,
        "ms_per_rule_median": statistics.median(times),
        "peak_rss_mb": rss,
        "peak_rss_mb_median": statistics.median(rss),
        "sha256": sorted({run["sha256"] for run in runs}),
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--cell"]:
        print(json.dumps(run_cell(*argv[1:])))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("trees", nargs=2, type=Path)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "perfbench"))
    from bench_pairs import git_commit
    from run import machine

    trees = [tree.resolve() for tree in args.trees]
    for tree in trees:
        if not (tree / "src" / "ruleboost").is_dir():
            parser.error(f"{tree} has no src/ruleboost")
    cells = []
    for shape in SHAPES:
        for loss, head_mode in VARIANTS:
            runs: list[list[dict]] = [[], []]
            for repeat in range(REPEATS):
                for index in (0, 1) if repeat % 2 == 0 else (1, 0):
                    runs[index].append(_in_tree(trees[index], shape, loss, head_mode))
            a, b = _summary(runs[0]), _summary(runs[1])
            cells.append({"shape": shape, "loss": loss, "head_mode": head_mode,
                          "rules": SHAPES[shape]["rules"], "a": a, "b": b,
                          "same_sha256": len(a["sha256"]) == 1 and a["sha256"] == b["sha256"]})
            print(f"{shape:8} {loss:22} {head_mode:6} ms/rule {a['ms_per_rule_median']:9.2f} "
                  f"{b['ms_per_rule_median']:9.2f}  peak MB {a['peak_rss_mb_median']:6.1f} "
                  f"{b['peak_rss_mb_median']:6.1f}  same model: {cells[-1]['same_sha256']}",
                  flush=True)
    document = {
        "tool": "tools/shape_bench.py",
        "label": args.label,
        "note": "generated stand-ins for the scene and medical shapes, not those data sets",
        "machine": machine(),
        "trees": {"a": git_commit(trees[0]), "b": git_commit(trees[1])},
        "shapes": SHAPES,
        "generator": {"seed": SEED, "active_features": ACTIVE_FEATURES, "noise": NOISE,
                      "medical_density": MEDICAL_DENSITY},
        "l2_weight": L2_WEIGHT,
        "repeats": REPEATS,
        "cells": cells,
    }
    out = ROOT / f"BENCH_shape-{args.label}.json"
    out.write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
