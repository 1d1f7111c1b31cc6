"""The worker map: independent calls of one function, in bare forked children and here.

``map_configs`` runs ``work`` on each item of a list over W = min(items,
``parallel_slots()``) shares: the trajectory variants, tuning's grid
cells, or the data shares of ``predict``.  Items are dealt in the order
of the caller's cost key (most expensive first), in snake order.  Each
share but the last runs in one bare ``os.fork()`` child, which pickles
its results into a pipe and leaves with ``os._exit``; the calling process
runs the last share itself, then collects the children.  With one item,
one usable CPU, no ``os.fork`` or other threads alive (a fork copies only
the calling thread, so a lock another thread holds stays held in the
child), the items go one after another in this process.  Either way the
results are those of ``[work(item) for item in items]``.

This module imports nothing of the package but ``errors``, so a command
loads no training code or file format by using it.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import threading

from .errors import RuleBoostError


def map_configs(work, items, cost=None) -> list:
    """``[work(item) for item in items]``, in forked children and this process where that is safe.

    ``cost(item)`` is a sort key that puts the items expected to take
    longest first; without it, items are dealt in their order.
    """
    shares = _deal(items, min(len(items), parallel_slots()), cost)
    if len(shares) <= 1:
        return [work(item) for item in items]
    return _map_in_forks(work, items, shares)


def parallel_slots() -> int:
    """How many processes a map may run at once: the usable CPUs, or 1 where forking is unsafe."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return _usable_cpus()


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _deal(items, n_shares: int, cost=None) -> list[list[int]]:
    """Indices of ``items`` in ``n_shares`` shares, dealt in ``cost`` order in snake order."""
    order = range(len(items)) if cost is None else sorted(range(len(items)),
                                                          key=lambda i: cost(items[i]))
    shares: list[list[int]] = [[] for _ in range(n_shares)]
    for position, i in enumerate(order):
        turn, seat = divmod(position, n_shares)
        shares[seat if turn % 2 == 0 else n_shares - 1 - seat].append(i)
    return shares


def _map_in_forks(work, items, shares) -> list:
    """``[work(item) for item in items]``: each share but the last in a forked child, the last here.

    Children inherit the loaded modules and the data, so none imports or
    receives anything.  The caller reads each child's pipe to its end and
    reaps the child; whatever this process raises, its own share's error
    included, first kills and reaps every child still running.
    """
    results = [None] * len(items)
    children: dict[int, int] = {}  # pid -> read end of its pipe
    try:
        for share in shares[:-1]:
            read_end, write_end = os.pipe()
            try:
                _grow(write_end)
                pid = os.fork()
            except BaseException:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                os.close(read_end)
                _run_child(work, items, share, write_end)
            os.close(write_end)
            children[pid] = read_end
        for i in shares[-1]:
            results[i] = work(items[i])
        outcomes = []
        for pid, read_end in list(children.items()):
            with open(read_end, "rb", closefd=False) as pipe:
                payload = pipe.read()
            outcomes.append((payload, os.waitpid(pid, 0)[1]))
            os.close(children.pop(pid))
    finally:
        for pid, read_end in children.items():
            import signal  # imported only where a child is left to kill

            os.close(read_end)
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
    for share, (payload, status) in zip(shares, outcomes):
        code = os.waitstatus_to_exitcode(status)
        if not payload or code != 0:
            ended = f"exit code {code}" if code >= 0 else f"signal {-code}"
            raise RuleBoostError(f"a worker exited before returning its results ({ended})")
        kind, value = pickle.loads(payload)
        if kind == "error":
            raise value
        for i, result in zip(share, value):
            results[i] = result
    return results


# A pipe of this many bytes holds the CSV rows of a predict share of up to
# about 80,000 rows of six labels, so the child can finish writing and exit
# while this process still runs its own share; with Linux's default of
# 64 KiB, a share of 5,500 such rows already waits for the caller's read.
_PIPE_BYTES = 1 << 20


def _grow(write_end: int) -> None:
    """Enlarge a pipe to ``_PIPE_BYTES`` where the platform allows it (Linux, within its limit)."""
    import fcntl

    with contextlib.suppress(AttributeError, OSError):
        fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)


def _run_child(work, items, share, write_end) -> None:
    """Run ``share`` and pickle ``("ok", results)`` or ``("error", exc)`` into the pipe.

    It never returns: ``os._exit`` ends the child without flushing the
    stdio buffers it shares with its parent, running ``atexit`` handlers
    or unwinding into the parent's stack.  An exception that does not
    survive pickling arrives as a ``RuleBoostError`` naming its type.
    """
    status = 1
    try:
        try:
            payload = pickle.dumps(("ok", [work(items[i]) for i in share]))
        except BaseException as exc:
            try:
                payload = pickle.dumps(("error", exc))
                pickle.loads(payload)
            except Exception:
                payload = pickle.dumps(("error", RuleBoostError(
                    f"a worker raised {type(exc).__name__}: {exc}")))
        with open(write_end, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)
