"""The shared worker pool behind ``_parallel.run_sliced``."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

import araprice
from araprice import _parallel
from araprice._parallel import run_sliced


class CountingExecutor(_parallel.ThreadPoolExecutor):
    made = 0

    def __init__(self, *args, **kwargs):
        type(self).made += 1
        super().__init__(*args, **kwargs)


def _fresh_pool(monkeypatch):
    CountingExecutor.made = 0
    monkeypatch.setattr(_parallel, "ThreadPoolExecutor", CountingExecutor)
    monkeypatch.setattr(_parallel, "_pool", None)


def _squares(total, workers):
    out = np.zeros(total)

    def fill(part):
        out[part] = np.arange(part.start, part.stop) ** 2

    run_sliced(fill, total, workers)
    return out


def test_repeated_calls_reuse_one_executor(monkeypatch):
    _fresh_pool(monkeypatch)
    for _ in range(5):
        assert np.array_equal(_squares(100, 2), np.arange(100.0) ** 2)
    assert CountingExecutor.made == 1
    pool = _parallel._pool
    _squares(100, 2)
    _squares(100, 1)  # one worker never touches the pool
    assert _parallel._pool is pool and CountingExecutor.made == 1
    _squares(100, 4)  # a wider call uses the same pool
    assert _parallel._pool is pool and CountingExecutor.made == 1


NESTED = """
import numpy as np
from araprice._parallel import map_blocks, run_sliced

def squares_sum(block):
    out = np.zeros(50)
    def fill(part):
        out[part] = np.arange(part.start, part.stop) ** 2
    run_sliced(fill, 50, 3)
    return out.sum()

rows = map_blocks(squares_sum, 6, 1 << 20, workers=3)  # one row per block
assert rows == [float(np.sum(np.arange(50.0) ** 2))] * 6, rows
print("done")
"""


def test_nested_call_completes():
    """Pool threads that call run_sliced again must not wait on their own
    pool.  In a fresh process: a deadlock would also hang interpreter exit,
    which joins the pool's threads."""
    env = dict(os.environ, PYTHONPATH=str(Path(araprice.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", NESTED], capture_output=True, text=True, env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "done\n"


FORKED = """
import os
import numpy as np
from araprice._parallel import run_sliced

def squares(total):
    out = np.zeros(total)
    def fill(part):
        out[part] = np.arange(part.start, part.stop) ** 2
    run_sliced(fill, total, 2)
    return out

squares(10)  # the parent's pool now exists, with an idle thread
pid = os.fork()
if pid == 0:
    os._exit(0 if np.array_equal(squares(10), np.arange(10.0) ** 2) else 1)
_, status = os.waitpid(pid, 0)
print(os.waitstatus_to_exitcode(status))
"""


def test_forked_child_makes_its_own_pool():
    """A forked child inherits the pool object but none of its threads;
    work submitted there would never run."""
    env = dict(os.environ, PYTHONPATH=str(Path(araprice.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", FORKED], capture_output=True, text=True, env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


def test_concurrent_callers_each_get_their_own_slices(monkeypatch):
    """Callers racing to create and share the pool, with more threads than
    cores and frequent switches: every output is complete and exact."""
    _fresh_pool(monkeypatch)
    failures = []

    def caller(workers):
        for total in (1, 7, 64, 1000):
            if not np.array_equal(_squares(total, workers), np.arange(total) ** 2.0):
                failures.append((workers, total))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller, args=(1 + k % 5,), daemon=True)
                   for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
