"""Ordered map over the rows of a sampled field.

The per-row work is pure Python, so the interpreter lock serialises
threads and a thread pool only adds hand-off cost: rows run one after
another, in input order.
"""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def ordered_map(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    return [fn(x) for x in items]
