"""Row-block driver for the draw-wise kernels.

``map_blocks`` cuts a kernel's rows (Monte Carlo draws, forecast rows)
into fixed-size blocks of about ``BLOCK_ELEMENTS`` float64 elements per
temporary, so a block's temporaries stay in cache and memory does not
grow with the draw count.  The block bounds depend only on the row count
and the row size, and the blocks run in order on the calling thread, so
a kernel may also draw from its random stream block by block.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["BLOCK_ELEMENTS", "run_sliced", "map_blocks"]

# Float64 elements of one temporary in a row block: 1 MiB, cache-sized.
BLOCK_ELEMENTS = 1 << 17


def run_sliced(fn: Callable[[slice], None], total: int) -> None:
    """Call ``fn`` on the one slice covering range(total)."""
    # kept apart from map_blocks, which looks it up by name at each call:
    # the benchmark's `parallel.run_sliced_s` and `parallel.slices` layers
    # wrap this function
    fn(slice(0, total))


def map_blocks(fn: Callable[[slice], object], total: int, row_elements: int) -> list:
    """``fn`` of each row block of range(total), in block order.

    A block holds ``BLOCK_ELEMENTS // row_elements`` rows (at least one),
    where ``row_elements`` is the size of one row of ``fn``'s largest
    temporary.
    """
    rows = max(1, BLOCK_ELEMENTS // max(1, row_elements))
    blocks = [slice(start, min(start + rows, total)) for start in range(0, total, rows)]
    results = [None] * len(blocks)

    def _run(part: slice) -> None:
        for i in range(part.start, part.stop):
            results[i] = fn(blocks[i])

    run_sliced(_run, len(blocks))
    return results
