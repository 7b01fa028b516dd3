"""An idle shard pool never outlives the process that built it.

Each test runs a child interpreter that does one pooled coverage sweep and
prints its idle pool's worker pids.  A child that exits normally joins its
workers at exit, with a clean stderr; a child that is SIGKILLed while its
pool is idle leaves workers that notice the lost parent and exit on their
own.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"
ENV = dict(os.environ, PYTHONPATH=str(SRC))

CHILD = """
import sys, time
from repro.codes.rotated_surface import get_code
from repro.faults import executor
from repro.noise.models import PhenomenologicalNoise
from repro.simulation import simulate_clique_coverage

simulate_clique_coverage(
    get_code(3), PhenomenologicalNoise(1e-2), 4000, rng=1, workers=2,
    chunk_cycles=1000,
)
_, pool = executor._IDLE_POOL
print(" ".join(str(pid) for pid in pool._processes), flush=True)
if sys.argv[1] == "idle":
    time.sleep(60)
"""

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/stat").is_file(), reason="reads process states from /proc"
)


def alive(pid: int) -> bool:
    """Whether ``pid`` is a running (not exited, not zombie) process."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


def wait_until_gone(pids: list[int], seconds: float) -> list[int]:
    """Poll until every pid has exited; return those still alive at the end."""
    deadline = time.monotonic() + seconds
    while (left := [pid for pid in pids if alive(pid)]) and time.monotonic() < deadline:
        time.sleep(0.05)
    return left


def test_normal_exit_joins_the_idle_pool_with_clean_stderr():
    result = subprocess.run(
        [sys.executable, "-c", CHILD, "exit"],
        capture_output=True,
        text=True,
        env=ENV,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    pids = [int(pid) for pid in result.stdout.split()]
    assert len(pids) == 2
    assert result.stderr == ""
    assert [pid for pid in pids if alive(pid)] == []


def test_workers_exit_when_their_parent_is_killed():
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD, "idle"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=ENV,
    )
    pids: list[int] = []
    # A child that never prints is killed, so the read below cannot block.
    watchdog = threading.Timer(120, child.kill)
    watchdog.start()
    try:
        pids = [int(pid) for pid in child.stdout.readline().split()]
        assert len(pids) == 2
        assert all(alive(pid) for pid in pids)
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=30)
        assert wait_until_gone(pids, 10.0) == []
    finally:
        watchdog.cancel()
        child.kill()
        child.wait(timeout=30)
        child.stdout.close()
        for pid in pids:
            if alive(pid):
                os.kill(pid, signal.SIGKILL)
