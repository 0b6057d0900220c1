"""Order-preserving parallel map. No package module imports it; the benchmark
tracer (``perfbench/spans.py``) is its only importer, and the next change to
the benchmark deletes it.

The command line does not use threads: ``--threads`` sets how many forked
processes build a command's outputs, as ``cli._run`` says.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def parallel_map(fn: Callable[[T], R], items: Sequence[T], threads: int = 1) -> list[R]:
    """Apply ``fn`` over ``items``, returning results in input order.

    Results are independent of ``threads`` as long as ``fn`` is pure, so batch
    outputs stay byte-identical for any worker count.
    """
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
