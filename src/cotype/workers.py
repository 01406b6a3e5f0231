"""Counting over contiguous ranges in forked worker processes.

`processes(work)` says how many processes a run of that much work should take,
and `count_in_ranges(count, n, procs)` cuts range(n) into `procs` contiguous
ranges, forks a worker for each range but the first, runs `count` on the first
range itself, and adds each worker's Counters, sent back through a pipe with
the worker's peak RSS, in range order. So when `count` is a pure function of
its range, the Counters are those of `count(range(n))` in one process. A
worker that fails makes the call raise RuntimeError, and whatever happens every
worker is reaped. With one process nothing is forked.
"""

from __future__ import annotations

import marshal
import os
import sys
import threading
from collections import Counter
from typing import Callable

from .errors import vm_hwm_kb

# A run takes one process per available core, but at most one per this many
# units of work (`simulate`'s trials * max(d, 3)^3, the cost of its trial_work cap),
# so that a worker's share outweighs its start. A bare fork, pipe and wait costs
# 2-5 ms, but on a shared 2-vCPU Xeon the second vCPU often ran the first few
# hundred ms at half speed: split in two, `simulate matrix` lost about 10 ms at
# 4 * 10^5 units (d = 2 and d = 8), broke even at 6 * 10^5 and gained 0.16 s at
# 8.1 * 10^5 (d = 2).
FORK_WORK_PER_PROCESS = 3 * 10**5


def processes(work: int) -> int:
    """One process per available core, at most one per FORK_WORK_PER_PROCESS
    units of work. One where the platform has no `os.sched_getaffinity` or other
    threads are running, since a forked child holds only the forking thread and
    any lock another one held."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), work // FORK_WORK_PER_PROCESS))


def _fork(count: Callable[[range], tuple[Counter, ...]], trials: range):
    """Fork a worker that runs count(trials) and writes the Counters and its
    peak RSS to a pipe; return its pid and the pipe's read end."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_fd)
        return pid, open(read_fd, "rb")
    # The worker: it must never return into the parent's stack, nor flush the
    # parent's buffered output, so every way out is os._exit.
    status = 1
    try:
        os.close(read_fd)
        counters = count(trials)
        with open(write_fd, "wb") as pipe:
            pipe.write(marshal.dumps((tuple(map(dict, counters)), vm_hwm_kb())))
        status = 0
    except BaseException:
        import traceback  # here, like signal below: only a failure needs it

        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(status)


def count_in_ranges(count: Callable[[range], tuple[Counter, ...]], n: int,
                    procs: int) -> tuple[tuple[Counter, ...], int | None]:
    """count(range(n)) computed over `procs` contiguous ranges, one per process,
    and the largest peak RSS in KB that a worker reported (None if none did)."""
    ranges = [range(n * i // procs, n * (i + 1) // procs) for i in range(procs)]
    workers = {}  # pid -> (trials, read end) of each worker not yet reaped
    peaks = []
    try:
        for trials in ranges[1:]:
            pid, pipe = _fork(count, trials)
            workers[pid] = (trials, pipe)
        totals = count(ranges[0])
        for pid, (trials, pipe) in list(workers.items()):
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del workers[pid]
            if status:
                raise RuntimeError(
                    f"the worker for trials {trials.start}..{trials.stop - 1} failed"
                    f" (exit status {os.waitstatus_to_exitcode(status)})")
            parts, peak = marshal.loads(data)
            for total, part in zip(totals, parts):
                total.update(part)
            if peak is not None:
                peaks.append(peak)
        return totals, max(peaks, default=None)
    finally:
        if workers:
            import signal

            for pid, (_, pipe) in workers.items():
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
