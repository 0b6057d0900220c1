"""Order-preserving parallel map used by batch anonymization and simulation."""

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
