"""Forked helper processes for work that does not depend on the state:
the noise of the steps ahead, and bootstrap replicates.

Every random stream is keyed by a counter (step k, replicate b), so a
helper draws the bits the parent would have drawn, and no output depends
on whether the work is split.  A helper is forked only for work of at
least ``_FORK_MIN_DRAWS`` variates, only where ``os.fork`` and
``os.sched_getaffinity`` exist, and only when the process may run on two
CPUs or more; otherwise the work stays in process.  Each helper ends by
``os._exit``, and the parent reaps it before returning or raising.

The helpers are forked, not spawned: they need the parent's state (the
run's generator, the fitted law) and start in a few ms.  They call no
BLAS routine, so the parent's BLAS threads, which a fork does not copy,
are never waited on.
"""

from __future__ import annotations

import os
import pickle
import signal

# fork only for work that draws at least this many variates.  On a
# 2-vCPU Xeon VM a fork, exit and reap of a 100 MB process cost 2.7-4.0
# ms, and forked simulations and bootstraps of 2**16-2**19 draws took
# 4-14 ms longer than in process; bootstraps of 2**20 and 2**21 draws
# (GIGa, n = 1e4) took 30 and 160 ms less.  A gain needs the second CPU
# to be free: while the VM ran both processes on one CPU, simulations of
# up to 2**24 draws gained nothing; otherwise a simulation of 5e7 draws
# (smallworld-n1000) took 29% less time
_FORK_MIN_DRAWS = 2 ** 20


def processes(draws: int) -> int:
    """How many processes to spread work of ``draws`` variates over: 1,
    the calling process alone, for small work, without ``os.fork`` or
    ``os.sched_getaffinity``, or on one usable CPU; else the CPU count."""
    if draws < _FORK_MIN_DRAWS or not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def fork(body) -> int:
    """Run ``body()`` in a forked child and return the child's pid.  The
    child ends by ``os._exit``: status 0 once ``body`` returns, 1 if it
    raises, so it never runs the parent's cleanup or flushes its files."""
    pid = os.fork()
    if pid:
        return pid
    code = 1
    try:
        body()
        code = 0
    finally:
        os._exit(code)


def reap(pid: int, kill: bool = False) -> int:
    """Wait for a forked child, after SIGKILL if ``kill``; return its exit
    code, or minus the signal that ended it."""
    if kill:
        os.kill(pid, signal.SIGKILL)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def split(fn, edges) -> list:
    """``[fn(lo, hi) for lo, hi in zip(edges, edges[1:])]``, the first
    range in this process and each other range in a forked child.

    If calls raise, the exception of the first range that raised
    propagates, as it would from one loop over the ranges in order.
    """
    children = []
    try:
        for lo, hi in zip(edges[1:-1], edges[2:]):
            children.append(_fork_call(fn, lo, hi))
        results = [fn(edges[0], edges[1])]
        while children:
            results.append(_collect(*children.pop(0)))
    finally:
        for pid, fd in children:
            os.close(fd)
            reap(pid, kill=True)
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return results


def _fork_call(fn, *args) -> tuple:
    """Fork a child that pickles ``fn(*args)``, or the exception it
    raises, into a pipe; return (pid, read end)."""
    r, w = os.pipe()

    def send():
        os.close(r)
        try:
            result = fn(*args)
        except Exception as exc:
            result = exc
        with open(w, "wb") as out:
            out.write(pickle.dumps(result))
    try:
        pid = fork(send)
    except BaseException:
        os.close(r)
        raise
    finally:
        os.close(w)
    return pid, r


def _collect(pid: int, fd: int):
    """What a child of :func:`_fork_call` sent, once it is reaped: its
    result or exception, or a RuntimeError if it ended without one."""
    try:
        with open(fd, "rb") as src:
            data = src.read()
    finally:
        code = reap(pid)
    if code or not data:
        return RuntimeError(f"helper process {pid} exited with status {code}")
    return pickle.loads(data)  # bytes that this program's own child wrote
