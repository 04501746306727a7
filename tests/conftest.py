"""Every test must leave no child process behind: the engine and the
bootstrap fork helpers, and each must be reaped before its caller
returns or raises."""

import os
import signal
from pathlib import Path

import pytest


def _running_children() -> list:
    """Pids of this process's children, from the parent pid in each
    /proc/<pid>/stat (empty where there is no /proc)."""
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue  # the process has gone
        if int(fields[1]) == os.getpid():
            pids.append(int(stat.parent.name))
    return sorted(pids)


@pytest.fixture(autouse=True)
def no_leaked_children():
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return  # no children at all
    if pid:
        pytest.fail(f"the test left child process {pid} unreaped")
    running = _running_children()
    for child in running:  # so that the next test starts clean
        os.kill(child, signal.SIGKILL)
        os.waitpid(child, 0)
    pytest.fail(f"the test left running child processes {running or '?'}")


@pytest.fixture
def processes(monkeypatch):
    """``processes(k)``: work of any size runs on k processes from then
    on, the caller and k - 1 forked helpers (one noise producer for any
    k >= 2; none for k = 1)."""
    from bmnet import _fork

    def use(k):
        monkeypatch.setattr(_fork, "_FORK_MIN_DRAWS", 1)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(k)), raising=False)
    return use


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children that ``os.fork`` makes from then on."""
    pids = []
    fork = os.fork

    def logged():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", logged)
    return pids
