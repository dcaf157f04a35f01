"""Fixtures shared by the test modules."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from marswpt import link


@pytest.fixture
def cpus(monkeypatch):
    """Call with n: thread_map then runs as on an n-CPU host, on its own pool of n - 1 helpers.

    Tests that mean to run more threads than this host has CPUs use it; the
    pool is shut down, and its threads joined, after the test.
    """
    pools = []

    def use(n: int) -> None:
        pools.append(ThreadPoolExecutor(max(n - 1, 1), thread_name_prefix="marswpt-helper"))
        monkeypatch.setattr(link, "_CPUS", n)
        monkeypatch.setattr(link, "_HELPERS", pools[-1])

    yield use
    for pool in pools:
        pool.shutdown()
