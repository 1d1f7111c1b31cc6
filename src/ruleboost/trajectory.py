"""Loss trajectories of growing ensembles, and the worker map that trains them.

Each variant (loss, head mode) is trained once to the largest checkpoint;
because rules are additive and every round draws its randomness from a
stream keyed by the round index, the ensemble prefix of length t is
bit-identical to a fresh run with t rules, so evaluating prefixes at the
checkpoints is exact.  ``checkpoint_points`` scores them in one walk.

``map_configs`` trains independent, separately seeded runs (the variants,
and tuning's grid cells) over W = min(runs, usable CPUs) shares.  Runs
are dealt longest first, in snake order.  Each share but the last runs in
one bare ``os.fork()`` child, which pickles its results into a pipe and
leaves with ``os._exit``; the calling process runs the last share itself,
then collects the children.  With one run, one usable CPU, no ``os.fork``
or other threads alive (a fork copies only the calling thread, so a lock
another thread holds stays held in the child), the runs go one after
another in this process.  Either way every result is bit-identical to
serial training.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import threading
from dataclasses import dataclass
from functools import partial

# The variants are defined beside the command line's choices; this module
# re-exports them with the walk that runs them.
from .choices import ALL_VARIANTS, DEFAULT_CHECKPOINTS, HEAD_MULTI, TrajectoryVariant
from .dataset import Dataset
from .errors import ConfigError, RuleBoostError
from .losses import EXAMPLE_WISE_LOGISTIC
from .metrics import hamming_loss, subset_zero_one_loss
from .prediction import decode_scores, default_decode_method
# ``body_mask`` is not used here; it is bound as ``trajectory.body_mask``
# because the benchmark's traced run (perfbench/spans.py) wraps that name.
from .rules import Ensemble, body_mask, staged_scores
from .training import TrainConfig, train


@dataclass(frozen=True)
class TrajectoryPoint:
    n_rules: int
    hamming: float
    subset01: float


def checkpoint_points(ensemble: Ensemble, data: Dataset, checkpoints) -> list[TrajectoryPoint]:
    """Losses on ``data`` of the ensemble's prefixes, once per distinct checkpoint, ascending.

    Each prefix is decoded with the default method of the model's loss.
    """
    method = default_decode_method(ensemble.meta.loss)
    points = []
    for t, scores in staged_scores(ensemble, data, checkpoints):
        predicted = decode_scores(scores, method, ensemble.label_vectors)
        points.append(TrajectoryPoint(t, hamming_loss(data.labels, predicted),
                                      subset_zero_one_loss(data.labels, predicted)))
    return points


def run_trajectory(
    train_data: Dataset,
    test_data: Dataset,
    variants,
    checkpoints=DEFAULT_CHECKPOINTS,
    *,
    shrinkage: float = 0.3,
    l2_weight: float = 0.0,
    seed: int = 0,
) -> dict[str, list[TrajectoryPoint]]:
    """Per-variant (rules, hamming, subset01) series at the checkpoints, in the order given."""
    checkpoints = list(checkpoints)
    if any(t < 1 for t in checkpoints) or any(
        a >= b for a, b in zip(checkpoints, checkpoints[1:])
    ):
        raise ConfigError("checkpoints must be ascending rule counts >= 1")
    variants = list(variants)
    if not checkpoints or not variants:
        return {}

    configs = [
        TrainConfig(
            loss=variant.loss,
            n_rules=max(checkpoints),
            shrinkage=shrinkage,
            l2_weight=l2_weight,
            head_mode=variant.head_mode,
            seed=seed,
        )
        for variant in variants
    ]
    for config in configs:  # before any variant trains or forks
        config.validate()
    work = partial(_variant_points, train_data=train_data, test_data=test_data,
                   checkpoints=checkpoints)
    all_points = map_configs(work, configs)
    return {variant.name: points for variant, points in zip(variants, all_points)}


def _variant_points(
    config: TrainConfig, *, train_data: Dataset, test_data: Dataset, checkpoints
) -> list[TrajectoryPoint]:
    """Train one variant to the last checkpoint and score its prefix at every checkpoint."""
    return checkpoint_points(train(train_data, config), test_data, checkpoints)


def map_configs(work, configs) -> list:
    """``[work(c) for c in configs]``, in forked children and this process where that is safe."""
    shares = _deal(configs, min(len(configs), _usable_cpus()))
    if len(shares) <= 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [work(config) for config in configs]
    return _map_in_forks(work, configs, shares)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _deal(configs, n_shares: int) -> list[list[int]]:
    """Indices of ``configs`` in ``n_shares`` shares, dealt longest first in snake order.

    Dense example-wise Hessians take longer than diagonal ones and
    all-label heads longer than single-label ones, so with two shares of
    the four variants the first holds exwlog-multi and lwlog-single.
    """

    def expected_cost(i):
        return (configs[i].loss != EXAMPLE_WISE_LOGISTIC, configs[i].head_mode != HEAD_MULTI)

    shares: list[list[int]] = [[] for _ in range(n_shares)]
    for position, i in enumerate(sorted(range(len(configs)), key=expected_cost)):
        turn, seat = divmod(position, n_shares)
        shares[seat if turn % 2 == 0 else n_shares - 1 - seat].append(i)
    return shares


def _map_in_forks(work, configs, shares) -> list:
    """``[work(c) for c in configs]``: each share but the last in a forked child, the last here.

    Children inherit the loaded modules and the data, so none imports or
    receives anything.  The caller reads each child's pipe to its end and
    reaps the child; whatever this process raises, its own share's error
    included, first kills and reaps every child still running.
    """
    results = [None] * len(configs)
    children: dict[int, int] = {}  # pid -> read end of its pipe
    try:
        for share in shares[:-1]:
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                os.close(read_end)
                _run_child(work, configs, share, write_end)
            os.close(write_end)
            children[pid] = read_end
        for i in shares[-1]:
            results[i] = work(configs[i])
        outcomes = []
        for pid, read_end in list(children.items()):
            with open(read_end, "rb", closefd=False) as pipe:
                payload = pipe.read()
            outcomes.append((payload, os.waitpid(pid, 0)[1]))
            os.close(children.pop(pid))
    finally:
        for pid, read_end in children.items():
            os.close(read_end)
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
    for share, (payload, status) in zip(shares, outcomes):
        code = os.waitstatus_to_exitcode(status)
        if not payload or code != 0:
            ended = f"exit code {code}" if code >= 0 else f"signal {-code}"
            raise RuleBoostError(
                f"a training worker exited before returning its results ({ended})"
            )
        kind, value = pickle.loads(payload)
        if kind == "error":
            raise value
        for i, points in zip(share, value):
            results[i] = points
    return results


def _run_child(work, configs, share, write_end) -> None:
    """Run ``share`` and pickle ``("ok", results)`` or ``("error", exc)`` into the pipe.

    It never returns: ``os._exit`` ends the child without flushing the
    stdio buffers it shares with its parent, running ``atexit`` handlers
    or unwinding into the parent's stack.  An exception that does not
    survive pickling arrives as a ``RuleBoostError`` naming its type.
    """
    status = 1
    try:
        try:
            payload = pickle.dumps(("ok", [work(configs[i]) for i in share]))
        except BaseException as exc:
            try:
                payload = pickle.dumps(("error", exc))
                pickle.loads(payload)
            except Exception:
                payload = pickle.dumps(("error", RuleBoostError(
                    f"a training worker raised {type(exc).__name__}: {exc}")))
        with open(write_end, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)
