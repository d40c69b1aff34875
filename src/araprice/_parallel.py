"""Deterministic work splitting for the draw-wise kernels.

All randomness is drawn up front by the engines; only deterministic
evaluation is split here.  ``map_blocks`` cuts a kernel's rows (Monte
Carlo draws, forecast rows) into fixed-size blocks of about
``BLOCK_ELEMENTS`` float64 elements per temporary, so a block's
temporaries stay in cache and memory does not grow with the draw count.
The block bounds depend only on the row count and the row size, never on
the worker count.  ``run_sliced`` hands each worker a pre-assigned
contiguous slice that writes into pre-allocated storage; the slices run
on the calling thread and on one thread pool per process, created on
first use.  Either way the output is bit-identical for any worker count
or scheduling order.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable

__all__ = ["BLOCK_ELEMENTS", "resolve_workers", "run_sliced", "map_blocks"]

# Float64 elements of one temporary in a row block: 1 MiB, cache-sized.
BLOCK_ELEMENTS = 1 << 17

# The process's worker threads: one executor, created on first use.  It
# starts a thread only when no idle one is free, so a generous cap costs
# nothing until calls need the threads.
POOL_THREADS = 64
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
_pool_thread = threading.local()


def _mark_pool_thread() -> None:
    _pool_thread.active = True


def _forget_pool() -> None:
    """A forked child has none of its parent's threads: start afresh."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def _shared_pool() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                POOL_THREADS, thread_name_prefix="araprice",
                initializer=_mark_pool_thread,
            )
        return _pool


def resolve_workers(requested: int | None = None) -> int:
    """Worker count from the argument, else PRICE_WORKERS, else 1."""
    if requested is not None:
        return max(1, int(requested))
    env = os.environ.get("PRICE_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            return 1
    return 1


def run_sliced(fn: Callable[[slice], None], total: int, workers: int) -> None:
    """Call ``fn`` on contiguous slices covering range(total).

    ``fn`` must write its results into shared pre-allocated storage;
    slices never overlap, so no synchronization is needed.  The caller
    runs the first slice and the shared pool the others; a call made from
    a pool thread runs inline, so nested calls cannot deadlock.
    """
    workers = min(max(1, workers), max(1, total))
    if workers == 1 or getattr(_pool_thread, "active", False):
        fn(slice(0, total))
        return
    bounds = [round(i * total / workers) for i in range(workers + 1)]
    slices = [
        slice(bounds[i], bounds[i + 1])
        for i in range(workers)
        if bounds[i + 1] > bounds[i]
    ]
    # each slice runs in a copy of the caller's context, so numpy's error
    # state (``np.errstate``) holds in the workers too
    pool = _shared_pool()
    futures = [
        pool.submit(contextvars.copy_context().run, fn, s) for s in slices[1:]
    ]
    try:
        contextvars.copy_context().run(fn, slices[0])
    finally:
        wait(futures)  # no slice outlives the call, even when one raises
    for future in futures:
        future.result()


def map_blocks(
    fn: Callable[[slice], object], total: int, row_elements: int, workers: int = 1
) -> list:
    """``fn`` of each row block of range(total), in block order.

    A block holds ``BLOCK_ELEMENTS // row_elements`` rows (at least one),
    where ``row_elements`` is the size of one row of ``fn``'s largest
    temporary.  The blocks are split over ``workers`` threads by
    :func:`run_sliced`.
    """
    rows = max(1, BLOCK_ELEMENTS // max(1, row_elements))
    blocks = [slice(start, min(start + rows, total)) for start in range(0, total, rows)]
    results = [None] * len(blocks)

    def _run(part: slice) -> None:
        for i in range(part.start, part.stop):
            results[i] = fn(blocks[i])

    run_sliced(_run, len(blocks), workers)
    return results
