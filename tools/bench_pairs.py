"""Run the benchmark on two source trees in alternating pairs and write the paired results.

Usage::

    python tools/bench_pairs.py --workload trajectory-4v --pairs 5 --label LABEL TREE_A TREE_B

Each ``TREE`` is a checkout of the repository, a clone or a ``git
worktree`` of any commit.  Pair i runs ``python3 perfbench/run.py
--workload W --seed i --seconds S --trace 0`` from each tree's own root,
with that tree's ``perfbench`` and ``src`` and nothing changed, where S
is ``BENCHMARK.json``'s ``run_seconds``.  The two trees run one after
the other: tree A first in even pairs and tree B first in odd ones.  A
run that exits non-zero stops the tool.

It writes ``BENCH_<LABEL>.json`` at the root of this repository: both
trees' commits, the machine line of the first run, and for each pair its
seed, both trees' end-to-end metrics and operation counts, and which tree
was better on each metric.  For each metric of ``BENCHMARK.json``'s
``end_to_end`` list it adds both trees' medians and [q1, q3] over the
pairs, the number of pairs in which B was better, worse or equal, and the
metric's bound.  The tool reports; it claims no gain.

Two known defects of the runner carry into the file, and its ``notes``
name them: ``machine()`` imports scipy, so a tree whose environment
lacks scipy cannot run; and ``peak_rss_mb`` is the child's
``ru_maxrss``, which counts the RSS the child inherits from the runner
at fork, so it reads high by the runner's own size where the runner has
trained in-process (``serve-25k``'s set-up).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NOTES = [
    "perfbench/run.py machine() imports scipy, which is a test-only dependency, so the runner "
    "fails where only the runtime dependencies are installed",
    "peak_rss_mb is the child's ru_maxrss, which includes the RSS the child inherits from the "
    "runner at fork; on serve-25k the runner has trained a model in-process before it starts "
    "the timed children",
]


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
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
            "attempted": result["attempted"], "failed": result["failed"], "machine": machine}


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


def _better(a: float, b: float, direction: str) -> str:
    if a == b:
        return "tie"
    return "b" if (b < a) == (direction == "lower") else "a"


def _quartiles(values: list[float]) -> list[float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--label", required=True)
    parser.add_argument("trees", nargs=2, type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    trees = [tree.resolve() for tree in args.trees]
    for tree in trees:
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"{tree} has no perfbench/run.py")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {entry["name"]: entry for entry in benchmark["end_to_end"]}

    pairs, machine = [], None
    for seed in range(args.pairs):
        runs = [None, None]
        for index in (0, 1) if seed % 2 == 0 else (1, 0):
            runs[index] = _run(trees[index], args.workload, seed, benchmark["run_seconds"])
        a, b = runs
        machine = machine or runs[0 if seed % 2 == 0 else 1]["machine"]
        pairs.append({
            "seed": seed,
            "first": "a" if seed % 2 == 0 else "b",
            "a": a["metrics"], "b": b["metrics"],
            "operations": {"a": [a["attempted"], a["failed"]], "b": [b["attempted"], b["failed"]]},
            "better": {name: _better(a["metrics"][name], b["metrics"][name], spec["better"])
                       for name, spec in metrics.items()},
        })
        print(f"pair {seed}: " + ", ".join(
            f"{name} {a['metrics'][name]:.4g} / {b['metrics'][name]:.4g}" for name in metrics),
            flush=True)

    summary = {}
    for name, spec in metrics.items():
        values = {tree: [pair[tree][name] for pair in pairs] for tree in ("a", "b")}
        outcomes = [pair["better"][name] for pair in pairs]
        summary[name] = {
            "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "a_median": statistics.median(values["a"]), "a_q1_q3": _quartiles(values["a"]),
            "b_median": statistics.median(values["b"]), "b_q1_q3": _quartiles(values["b"]),
            "b_better": outcomes.count("b"), "b_worse": outcomes.count("a"),
            "ties": outcomes.count("tie"),
        }
    document = {
        "tool": "tools/bench_pairs.py",
        "label": args.label,
        "workload": args.workload,
        "seconds": benchmark["run_seconds"],
        "trees": {"a": git_commit(trees[0]), "b": git_commit(trees[1])},
        "machine": machine,
        "notes": NOTES,
        "metrics": summary,
        "pairs": pairs,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(document, indent=1) + "\n")
    for name, entry in summary.items():
        print(f"{name}: a {entry['a_median']:.4g} {entry['a_q1_q3']}, b {entry['b_median']:.4g} "
              f"{entry['b_q1_q3']}, b better in {entry['b_better']}/{len(pairs)}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
