import os
import signal

import numpy as np
import pytest

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
settings.load_profile("ci")

import gwising.experiments
from gwising import OffspringPmf


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def dirac2():
    return OffspringPmf.dirac(2)


@pytest.fixture
def half12():
    return OffspringPmf.from_dict({1: 0.5, 2: 0.5})


@pytest.fixture
def half13():
    return OffspringPmf.from_dict({1: 0.5, 3: 0.5})


@pytest.fixture(autouse=True)
def no_child_process_outlives_its_test():
    """Fails a test that leaves a child process unreaped, running or ended,
    once the scan workers' pool is closed: closing it must reap every worker
    a scan forked, and no worker forked under one test's patches serves the
    next test."""
    yield
    gwising.experiments.close_pool()
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left child process {pid} unreaped" if pid
                else "the test left a child process running")


@pytest.fixture
def three_cpus(monkeypatch):
    """Lets a scan run on three processes on any machine, its blocks being
    small, and ends with TimeoutError a test that waits a minute for them."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)

    def timeout(signum, frame):
        raise TimeoutError("a scan waited a minute for its workers")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
