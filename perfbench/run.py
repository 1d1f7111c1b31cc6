#!/usr/bin/env python3
"""Benchmark of the ruleboost command line, end to end and layer by layer.

Run from the root of the repository, one workload at a time:

    python3 perfbench/run.py --workload serve-25k --seed 0 --seconds 50 --trace 0

``--trace 0`` times whole ``python -m ruleboost.cli`` processes against the
working tree's ``src/``, one after another, for at least ``--seconds``
seconds and prints the end-to-end metrics.  Its times are scaled to a
reference host speed (see ``REFERENCE_S``).  ``--trace 1`` runs each timed
operation in-process for ``--seconds`` seconds, alternately untraced and with
spans around the calls between the package's modules (see ``spans.py``), and
prints the per-layer metrics.  Either way every output is checked, earlier
lines report each timing with its sample count and tail percentile, and the
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
``BENCHMARK.json`` at the repository root lists the workloads and metrics;
``perfbench/layers.json`` maps each per-layer metric to the end-to-end
metric and workloads it should move, with reference values.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIB = 1024.0 * 1024.0
# Set-up runs once untimed (lazy imports, first calls), then is timed
# before rounds of timed operations, at most SETUPS_PER_ROUND times before
# each: while it has taken less than SETUP_SHARE of the run so far, and
# often enough to reach MIN_SETUPS samples evenly over the run.  Its
# samples spread over the run like the operations' do, and short set-ups
# get many samples.
MIN_SETUPS = 3
SETUP_SHARE = 0.2
SETUPS_PER_ROUND = 10
# The host is shared, and its speed drifts by a third over minutes, the
# same for every process on it.  So a fixed task (reference_task.py, no
# ruleboost code) runs as a child process at the start of each round, and
# the end-to-end times are reported at the host speed on which that task
# takes REFERENCE_S seconds: REFERENCE_S x the median over the run of each
# timed sample over the reference time of its round.  A change to the
# package moves them in full; a drift in host speed cancels.  Raw medians
# are printed as well.
REFERENCE = Path(__file__).resolve().parent / "reference_task.py"
REFERENCE_S = 0.4
STARTUP_PROBES = 5
# Layer self times plus cli.self_s must cover a traced operation's wall time
# to within this share (or 5 ms).
ACCOUNTING_TOLERANCE = 0.01


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Process:
    """Wall time, peak RSS (from the child's own rusage) and exit code of one child."""

    def __init__(self, argv: list[str], cwd: Path, stderr_path: Path):
        with open(stderr_path, "wb") as stderr:
            started = time.perf_counter()
            child = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                     stdout=subprocess.DEVNULL, stderr=stderr)
            try:
                _, status, usage = os.wait4(child.pid, 0)
            except BaseException:
                child.kill()
                child.wait()
                raise
            self.wall_s = time.perf_counter() - started
        child.returncode = self.status = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        self.stderr = stderr_path.read_text(errors="replace").strip()


def run_cli(argv: list[str], work: Path) -> Process:
    return Process([sys.executable, "-m", "ruleboost.cli", *argv], work, work / "stderr.txt")


def reference_probe(work: Path) -> float:
    probe = Process([sys.executable, str(REFERENCE)], work, work / "stderr.txt")
    if probe.status != 0:
        raise RuntimeError(f"the reference task failed: {probe.stderr}")
    return probe.wall_s


def startup_probe(work: Path) -> float:
    probe = Process([sys.executable, "-c", "import ruleboost.cli"], work, work / "stderr.txt")
    if probe.status != 0:
        raise RuntimeError(f"importing ruleboost.cli failed: {probe.stderr}")
    return probe.wall_s


def tail_percentile(samples: list[float]):
    """The highest of the usual percentiles with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            return p, ordered[math.ceil(p / 100.0 * n) - 1]
    return None


def describe(name: str, unit: str, samples: list[float]) -> str:
    tail = tail_percentile(samples)
    tail_text = f"p{tail[0]:g} {tail[1]:.4f} {unit}" if tail else "no percentile has 10 samples beyond it"
    return f"  {name}: median {statistics.median(samples):.4f} {unit}, {tail_text} (n={len(samples)})"


def machine() -> dict:
    import numpy
    import scipy

    info = {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")},
        "git_sha": None,
        "git_dirty": None,
    }
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                  text=True, check=True).stdout.strip()
        try:
            info["git_sha"] = git("rev-parse", "HEAD")
            info["git_dirty"] = bool(git("status", "--porcelain", "--untracked-files=no"))
        except (OSError, subprocess.CalledProcessError):
            pass
    return info


class Tally:
    """Operations attempted and failed, with the reasons for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, op_name: str, status: int, stderr: str, check) -> None:
        """Count one operation; it fails on a non-zero exit or when ``check()`` returns errors."""
        self.attempted += 1
        if status != 0:
            errors = [f"{op_name}: exit {status}: {stderr[-300:]}"]
        else:
            try:
                errors = check()
            except (OSError, ValueError, KeyError, IndexError) as exc:
                errors = [f"{op_name}: output unreadable: {exc}"]
        if errors:
            self.failed += 1
            self.reasons.extend(errors)


def run_untraced(workload, seconds: float, tally: Tally) -> dict:
    workload.setup()
    workload.prepare_checks()
    setups: list[float] = []
    walls: dict[str, list[float]] = {}
    op_walls: list[float] = []
    references: list[float] = []
    # Each timed sample over the reference run just before it.
    setup_shares: list[float] = []
    op_shares: list[float] = []
    peak_rss = 0.0
    started = time.perf_counter()
    while True:
        reference = reference_probe(workload.work)
        references.append(reference)
        for _ in range(SETUPS_PER_ROUND):
            elapsed = time.perf_counter() - started
            if (sum(setups) >= SETUP_SHARE * elapsed
                    and len(setups) >= MIN_SETUPS * elapsed / seconds):
                break
            setup_started = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - setup_started)
            setup_shares.append(setups[-1] / reference)
        total = 0.0
        for op in workload.operations():
            process = run_cli(op.argv, workload.work)
            tally.record(op.name, process.status, process.stderr, lambda: workload.check(op))
            walls.setdefault(op.name, []).append(process.wall_s)
            total += process.wall_s
            peak_rss = max(peak_rss, process.rss_mb)
        op_walls.append(total)
        op_shares.append(total / reference)
        if time.perf_counter() - started >= seconds:
            break

    op_s = REFERENCE_S * statistics.median(op_shares)
    setup_s = REFERENCE_S * statistics.median(setup_shares)
    print("raw wall times:")
    print(describe("reference task", "s", references))
    print(describe("setup", "s", setups))
    for name, samples in walls.items():
        print(describe(f"{name}_s" + (" = op" if len(walls) == 1 else ""), "s", samples))
    if len(walls) > 1:
        print(describe("op", "s", op_walls))
    print(f"scaled to a {REFERENCE_S} s reference task: op_s {op_s:.4f} s, setup_s {setup_s:.4f} s")
    hamming, subset01 = workload.quality.values()
    print(f"  peak_rss_mb: {peak_rss:.1f} MB; test_hamming: {hamming:.6f} ratio; "
          f"test_subset01: {subset01:.6f} ratio")
    return {
        "op_s": (op_s, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "test_hamming": (hamming, "ratio"),
        "test_subset01": (subset01, "ratio"),
    }


def accounting_errors(op_name: str, root, wall: float) -> list[str]:
    """The layer spans plus the root's self time (cli.self) must account for the traced wall."""
    errors = spans.nesting_errors(root)
    covered = root.self_time + sum(s.self_time for s in spans.descendants(root))
    if abs(covered - wall) > max(ACCOUNTING_TOLERANCE * wall, 0.005):
        errors.append(f"{op_name}: spans cover {covered:.4f} s of {wall:.4f} s traced wall")
    return errors


def traced_call(tracer, op):
    """One in-process operation under a root span; returns the root, its wall time and status."""
    started = time.perf_counter()
    with tracer.span("op", op=op.name) as root:
        status = workload_main(op.argv)
    return root, time.perf_counter() - started, status


def run_traced(workload, seconds: float, tally: Tally) -> dict:
    """Set up once, then run each timed operation in-process untraced and traced for ``seconds``.

    Per-layer values are per timed operation (the mean over its traced
    repeats) plus the traced set-up.
    """
    from ruleboost.rules import body_mask

    tracer = workload.tracer
    ratios: list[float] = []
    timed_roots = []
    with spans.instrumented(tracer):
        with tracer.span("setup"):
            workload.setup()
        workload.prepare_checks()
        started = time.perf_counter()
        while True:
            walls = {False: 0.0, True: 0.0}
            traced_first = len(ratios) % 2 == 1  # alternate which side runs first
            for op in workload.operations():
                for traced in (traced_first, not traced_first):
                    if traced:
                        root, wall, status = traced_call(tracer, op)
                        timed_roots.append(root)
                        check = lambda: workload.check(op) + accounting_errors(op.name, root, wall)
                    else:
                        op_started = time.perf_counter()
                        status = workload_main(op.argv)
                        wall = time.perf_counter() - op_started
                        check = lambda: workload.check(op)
                    walls[traced] += wall
                    tally.record(op.name, status, "", check)
            ratios.append(walls[True] / walls[False])
            if time.perf_counter() - started >= seconds:
                break
    startup = statistics.median(startup_probe(workload.work) for _ in range(STARTUP_PROBES))

    repeated = set(timed_roots)

    def weighted(spans_of_name, value):
        """Set-up spans count once, timed operations as the mean over repeats."""
        once = sum(value(s) for s in spans_of_name if s.root not in repeated)
        return once + sum(value(s) for s in spans_of_name if s.root in repeated) / len(ratios)

    def named(*names):
        return [s for s in tracer.spans if s.name in names]

    def total(*names):
        return weighted(named(*names), lambda s: s.duration)

    def summed(name, key):
        return weighted(named(name), lambda s: s.attrs[key])

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    refinements = weighted(named("induction.refine_rule"), lambda s: 1)
    rows_updated = weighted(named("losses.update_store"),
                            lambda s: int(body_mask(*s.attrs["update"]).sum()))
    walk = weighted(named("trajectory.run_trajectory"), lambda s: s.duration - sum(
        c.duration for c in s.children if c.name == "training.train"))
    metrics = {
        "cli.startup_s": (startup, "s"),
        "cli.self_s": (weighted(tracer.roots("op"), lambda s: s.self_time), "s"),
        "dataio.load_arff_s": (total("dataio.load_arff"), "s"),
        "dataio.load_arff_mb_per_s": (
            per(summed("dataio.load_arff", "bytes") / MIB, total("dataio.load_arff")), "MB/s"),
        "dataio.save_arff_s": (total("dataio.save_arff"), "s"),
        "serialization.save_s": (total("serialization.save"), "s"),
        "serialization.load_s": (total("serialization.load"), "s"),
        "training.train_s": (total("training.train"), "s"),
        "training.ms_per_rule": (
            per(1000.0 * total("training.train"), summed("training.train", "rules")), "ms"),
        "induction.refine_s": (total("induction.refine_rule"), "s"),
        "induction.steps": (summed("induction.refine_rule", "steps"), "count"),
        "induction.ms_per_step": (
            per(1000.0 * total("induction.refine_rule"), summed("induction.refine_rule", "steps")),
            "ms"),
        "induction.conditions_per_rule": (
            per(summed("induction.refine_rule", "conditions"), refinements), "count"),
        "heads.bag_stats_s": (total("heads.bag_stats"), "s"),
        "heads.full_solve_s": (total("heads.full_stats", "heads.full_solve"), "s"),
        "losses.update_store_s": (total("losses.update_store"), "s"),
        "losses.rows_updated": (rows_updated, "count"),
        "rules.ensemble_scores_s": (total("rules.ensemble_scores"), "s"),
        "rules.rule_rows_per_s": (
            per(summed("rules.ensemble_scores", "rule_rows"), total("rules.ensemble_scores")), "1/s"),
        "prediction.decode_sign_s": (total("prediction.decode_sign"), "s"),
        "prediction.decode_known_s": (total("prediction.decode_known"), "s"),
        "prediction.decode_known_peak_mb": (
            max((s.attrs["peak_bytes"] for s in named("prediction.decode_known")), default=0) / MIB,
            "MB"),
        "trajectory.walk_s": (walk, "s"),
        "synthetic.generate_s": (total("synthetic.generate"), "s"),
        "trace.overhead_frac": (statistics.median(ratios), "ratio"),
    }
    for name, (value, unit) in metrics.items():
        print(f"  {name}: {value:.6g} {unit}")
    return metrics


def workload_main(argv: list[str]) -> int:
    import workloads

    try:
        return workloads.run_in_process(argv)
    except Exception as exc:  # an operation that raises counts as failed, the run goes on
        print(f"{argv[0]} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "ruleboost" / "cli.py").is_file():
        print(f"error: no ruleboost sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ruleboost
    import workloads

    if Path(ruleboost.__file__).resolve().parent != SRC / "ruleboost":
        print(f"error: imported ruleboost from {ruleboost.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        print(f"machine: {json.dumps(machine())}")
        startup_probe(work)  # fills the bytecode cache before anything is timed
        tracer = spans.Tracer(enabled=bool(args.trace))
        workload = workloads.WORKLOADS[args.workload](work, args.seed, tracer)
        print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
        tally = Tally()
        if args.trace:
            metrics = run_traced(workload, args.seconds, tally)
        else:
            metrics = run_untraced(workload, args.seconds, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for reason in tally.reasons:
        print(f"  FAILED {reason}")
    print(f"  failed_frac: {tally.failed / tally.attempted:.4f} ratio "
          f"({tally.failed} of {tally.attempted})")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
