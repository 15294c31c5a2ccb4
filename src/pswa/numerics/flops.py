"""Instrumented FLOP counting for the heavy kernels.

Convention: one multiply-accumulate = 2 FLOPs.  Only matmul and the two
conv kernels are metered; softmax, normalization, and elementwise work
are excluded.  Counting is off unless a `count_flops()` block is active.
"""

from __future__ import annotations

import contextlib


class FlopCounter:
    def __init__(self):
        self.by_op: dict[str, int] = {}

    def add(self, op: str, flops: int) -> None:
        self.by_op[op] = self.by_op.get(op, 0) + int(flops)

    @property
    def total(self) -> int:
        return sum(self.by_op.values())

    def __repr__(self) -> str:
        return f"FlopCounter(total={self.total}, by_op={self.by_op})"


_active: FlopCounter | None = None


def record(op: str, flops: int) -> None:
    if _active is not None:
        _active.add(op, flops)


@contextlib.contextmanager
def count_flops():
    """Meter matmul/conv FLOPs executed inside the block."""
    global _active
    prev = _active
    counter = FlopCounter()
    _active = counter
    try:
        yield counter
    finally:
        _active = prev
