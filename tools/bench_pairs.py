"""Run a workload on two source trees in alternating pairs and write the paired results.

Usage::

    python tools/bench_pairs.py --workload WORKLOAD --pairs 10 --label LABEL TREE_A TREE_B

Each ``TREE`` is a checkout of the repository (a clone or a ``git
worktree`` of any commit).  Tree A runs first in even pairs and tree B in
odd ones; a failed run stops the tool.  A ``BENCHMARK.json`` workload
runs each tree's own ``perfbench/run.py``, unchanged, with ``--seed i`` in
pair i for ``run_seconds``; its metrics are the ``end_to_end`` list.
``shapes`` trains each cell, a shape of ``SHAPES`` and a variant of
``VARIANTS`` at l2 weight 1, in a fresh process per tree with that tree's
``src/ruleboost``, on seeded data generated here: each label is the sign
of a sparse linear score plus noise, cut at a per-label base rate.  The
shapes stand in for the scene and medical data sets; they are not that
data.  Its metrics, named like ``scene/exwlog-multi/ms_per_rule`` and
``.../peak_rss_mb`` (data generation excluded), have no bound, and the
file records each cell's model sha256s.

``BENCH_<LABEL>.json``, at the root of this repository, holds both trees'
commits, the machine, every pair's metrics, operation counts and better
tree per metric, and per metric both medians and [q1, q3], the number of
pairs in which B was better, worse or equal, and the bound.  It reports;
it claims no gain.  Its ``notes`` name known defects of the runner.
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
NOTES = [
    "perfbench/run.py machine() imports scipy, which is a test-only dependency, so the runner "
    "fails where only the runtime dependencies are installed",
    "peak_rss_mb is the child's ru_maxrss, which includes the RSS the child inherits from the "
    "runner at fork; on serve-25k the runner has trained a model in-process before it starts "
    "the timed children",
]
# Rows, features, labels, feature kind and rules trained per shape.
SHAPES = {
    "scene": {"rows": 969, "features": 294, "labels": 6, "kind": "numeric", "rules": 100},
    "medical": {"rows": 780, "features": 1449, "labels": 45, "kind": "binary nominal",
                "rules": 20},
}
VARIANTS = {
    "lwlog-single": ("label-wise-logistic", "single"),
    "lwlog-multi": ("label-wise-logistic", "multi"),
    "exwlog-single": ("example-wise-logistic", "single"),
    "exwlog-multi": ("example-wise-logistic", "multi"),
}
SHAPE_METRICS = {"ms_per_rule": "ms", "peak_rss_mb": "MB"}
L2_WEIGHT = 1.0
SEED = 0
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


def _cell(tree: Path, cell: str) -> dict:
    """One cell, ``shape/variant``, trained in a fresh process with ``tree``'s package."""
    shape, variant = cell.split("/")
    env = dict(os.environ)
    src = tree / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, __file__, "--cell", shape, *VARIANTS[variant]], env=env,
        capture_output=True, text=True, check=False,
    )
    if completed.returncode != 0:
        raise SystemExit(f"{cell} under {tree} failed:\n{completed.stderr}")
    result = json.loads(completed.stdout.splitlines()[-1])
    if Path(result["package"]) != (src / "ruleboost").resolve():
        raise SystemExit(f"the cell under {tree} imported ruleboost from {result['package']}")
    return {"metrics": {f"{cell}/{name}": result[name] for name in SHAPE_METRICS},
            "operations": [1, 0], "sha256": {cell: result["sha256"]}}


def _perfbench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    if completed.returncode != 0:
        raise SystemExit(f"perfbench/run.py in {tree} (seed {seed}) exited "
                         f"{completed.returncode}:\n{completed.stderr[-2000:]}")
    lines = completed.stdout.splitlines()
    result = json.loads(lines[-1])
    machine = next((json.loads(line[len("machine: "):]) for line in lines
                    if line.startswith("machine: ")), None)
    return {"metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
            "operations": [result["attempted"], result["failed"]], "machine": machine}


def git_commit(tree: Path) -> dict:
    """The commit checked out in ``tree`` and whether tracked files differ from it."""
    def git(*args):
        return subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True,
                              check=True).stdout.strip()

    try:
        return {"sha": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    except (OSError, subprocess.CalledProcessError):
        return {"sha": None, "dirty": None}


def metric_specs(workload: str) -> dict:
    """Unit, direction and bound of each metric of ``workload``, by name."""
    if workload == "shapes":
        return {f"{shape}/{variant}/{name}": {"unit": unit, "better": "lower", "bound": None}
                for shape in SHAPES for variant in VARIANTS
                for name, unit in SHAPE_METRICS.items()}
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: {key: entry[key] for key in ("unit", "better", "bound")}
            for entry in benchmark["end_to_end"]}


def _better(a: float, b: float, direction: str) -> str:
    if a == b:
        return "tie"
    return "b" if (b < a) == (direction == "lower") else "a"


def _quartiles(values: list[float]) -> list[float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def pair_record(seed: int, a: dict, b: dict, specs: dict) -> dict:
    """One pair's entry from both trees' runs, each with its metrics and operations."""
    record = {
        "seed": seed,
        "first": "a" if seed % 2 == 0 else "b",
        "a": a["metrics"], "b": b["metrics"],
        "operations": {"a": a["operations"], "b": b["operations"]},
        "better": {name: _better(a["metrics"][name], b["metrics"][name], spec["better"])
                   for name, spec in specs.items()},
    }
    if a.get("sha256"):
        record["sha256"] = {"a": a["sha256"], "b": b["sha256"]}
    return record


def summarize(pairs: list[dict], specs: dict) -> dict:
    """Each metric's medians, [q1, q3] and win counts over ``pairs``, with its bound."""
    summary = {}
    for name, spec in specs.items():
        values = {tree: [pair[tree][name] for pair in pairs] for tree in ("a", "b")}
        outcomes = [pair["better"][name] for pair in pairs]
        summary[name] = {
            **spec,
            "a_median": statistics.median(values["a"]), "a_q1_q3": _quartiles(values["a"]),
            "b_median": statistics.median(values["b"]), "b_q1_q3": _quartiles(values["b"]),
            "b_better": outcomes.count("b"), "b_worse": outcomes.count("a"),
            "ties": outcomes.count("tie"),
        }
    return summary


def cells(pairs: list[dict]) -> dict:
    """Each shape cell's distinct model sha256s per tree, and whether every run gave one."""
    entries = {}
    for cell in pairs[0]["sha256"]["a"]:
        hashes = {tree: sorted({pair["sha256"][tree][cell] for pair in pairs}) for tree in "ab"}
        entries[cell] = {"sha256": hashes,
                         "same_sha256": len(hashes["a"]) == 1 and hashes["a"] == hashes["b"]}
    return entries


def _merge(results: list[dict]) -> dict:
    """One tree's run in a pair from the results of its units (cells, or one perfbench run)."""
    return {"metrics": {k: v for result in results for k, v in result["metrics"].items()},
            "operations": [sum(result["operations"][i] for result in results) for i in (0, 1)],
            "sha256": {k: v for result in results for k, v in result.get("sha256", {}).items()}}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--cell"]:
        print(json.dumps(run_cell(*argv[1:])))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--label", required=True)
    parser.add_argument("trees", nargs=2, type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    shapes = args.workload == "shapes"
    needed = Path("src", "ruleboost") if shapes else Path("perfbench", "run.py")
    trees = [tree.resolve() for tree in args.trees]
    for tree in trees:
        if not (tree / needed).exists():
            parser.error(f"{tree} has no {needed}")
    specs = metric_specs(args.workload)
    if shapes:
        seconds = None
        units = [f"{shape}/{variant}" for shape in SHAPES for variant in VARIANTS]
        sys.path.insert(0, str(ROOT / "perfbench"))
        from run import machine as local_machine
        machine = local_machine()
    else:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        units, machine = [args.workload], None

    pairs = []
    for seed in range(args.pairs):
        order = (0, 1) if seed % 2 == 0 else (1, 0)
        runs = [[], []]
        for unit in units:
            for index in order:
                runs[index].append(_cell(trees[index], unit) if shapes
                                   else _perfbench(trees[index], unit, seed, seconds))
        machine = machine or runs[order[0]][0]["machine"]
        a, b = (_merge(results) for results in runs)
        pairs.append(pair_record(seed, a, b, specs))
        print(f"pair {seed}: " + ", ".join(
            f"{name} {a['metrics'][name]:.4g} / {b['metrics'][name]:.4g}" for name in specs),
            flush=True)

    summary = summarize(pairs, specs)
    document = {
        "tool": "tools/bench_pairs.py",
        "label": args.label,
        "workload": args.workload,
        "seconds": seconds,
        "trees": {"a": git_commit(trees[0]), "b": git_commit(trees[1])},
        "machine": machine,
        "notes": ["generated stand-ins for the scene and medical shapes, not those data sets"]
        if shapes else NOTES,
        "metrics": summary,
        "pairs": pairs,
    }
    if shapes:
        document.update({
            "shapes": SHAPES,
            "variants": VARIANTS,
            "generator": {"seed": SEED, "active_features": ACTIVE_FEATURES, "noise": NOISE,
                          "medical_density": MEDICAL_DENSITY},
            "l2_weight": L2_WEIGHT,
            "cells": cells(pairs),
        })
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(document, indent=1) + "\n")
    for name, entry in summary.items():
        print(f"{name}: a {entry['a_median']:.4g} {entry['a_q1_q3']}, b {entry['b_median']:.4g} "
              f"{entry['b_q1_q3']}, b better in {entry['b_better']}/{len(pairs)}")
    if shapes:
        print("same model in every run: " + ", ".join(
            f"{cell} {entry['same_sha256']}" for cell, entry in document["cells"].items()))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
