"""sim._worker_count itself: the CPUs this process may run on, capped.

Every simulator test patches _worker_count out; this one patches the os
calls under it, including the cpu_count fallback for platforms without
sched_getaffinity.
"""

import os

from pooldesign import sim


def test_worker_count_reads_affinity_then_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)), raising=False)
    assert sim._worker_count() == 3
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    assert sim._worker_count() == sim._MAX_WORKERS

    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert sim._worker_count() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert sim._worker_count() == 1
