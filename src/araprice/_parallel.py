"""Deterministic work splitting for the draw-wise kernels.

All randomness is drawn up front by the engines; only deterministic
evaluation is split here.  ``map_blocks`` cuts a kernel's rows (Monte
Carlo draws, forecast rows) into fixed-size blocks of about
``BLOCK_ELEMENTS`` float64 elements per temporary, so a block's
temporaries stay in cache and memory does not grow with the draw count.
The block bounds depend only on the row count and the row size, never on
the worker count.  ``run_sliced`` hands each worker a pre-assigned
contiguous slice that writes into pre-allocated storage.  Either way the
output is bit-identical for any worker count or scheduling order.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

__all__ = ["BLOCK_ELEMENTS", "resolve_workers", "run_sliced", "map_blocks"]

# Float64 elements of one temporary in a row block: 1 MiB, cache-sized.
BLOCK_ELEMENTS = 1 << 17


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
    slices never overlap, so no synchronization is needed.
    """
    workers = min(max(1, workers), max(1, total))
    if workers == 1:
        fn(slice(0, total))
        return
    bounds = [round(i * total / workers) for i in range(workers + 1)]
    slices = [
        slice(bounds[i], bounds[i + 1])
        for i in range(workers)
        if bounds[i + 1] > bounds[i]
    ]
    with ThreadPoolExecutor(max_workers=len(slices)) as pool:
        for future in [pool.submit(fn, s) for s in slices]:
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
