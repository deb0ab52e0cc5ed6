"""Suite-wide fixtures."""

import os
import threading

import pytest
from hypothesis import settings

# Every run draws the same examples and writes no example database, so a
# tier-1 run is deterministic.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that leaves behind a thread it started."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before and t.is_alive()]
    if left:
        pytest.fail(f"test left threads running: {left}")


@pytest.fixture
def memory_at_most_8gib(monkeypatch):
    """Report at most 8 GiB of physical memory through ``os.sysconf``, so a
    test of the memory pre-flight refuses the same runs on any machine."""
    real = os.sysconf

    def capped(name):
        if name == "SC_PHYS_PAGES":
            return min(real(name), 8 * 2 ** 30 // real("SC_PAGE_SIZE"))
        return real(name)
    monkeypatch.setattr(os, "sysconf", capped)
