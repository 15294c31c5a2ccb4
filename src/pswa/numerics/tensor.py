"""Dense tensors with reverse-mode autodiff.

A Tensor wraps a contiguous row-major numpy array (float64 by default,
float32 opt-in).  Ops in :mod:`pswa.numerics.ops` build a graph of
OpNode records; ``Tensor.backward()`` replays it in reverse topological
order via a GradTape and accumulates ``.grad`` arrays on the leaves only:
the tensors built with ``requires_grad=True`` (parameters, inputs), not
the op outputs between them.  An intermediate's gradient is dropped as
soon as its op's vjp has read it, so a backward holds the graph plus the
gradients still in flight, not a second copy of every activation.  The
graph itself lives as long as the output tensor does: a training loop
that drops its loss after the update keeps one step's graph at a time.

The graph links node to node, not tensor to tensor: an OpNode holds its
parents' OpNodes (a leaf parent as the leaf Tensor itself) and its
output shape, never an op output.  So an array stays alive in the graph
only while a vjp closure reads it; an output no backward reads (a
``q @ k^T`` that only ``scale`` consumes, say) is freed as soon as the
caller drops it.

Finite checks run at the boundaries, not per op.  Always checked: a
``Tensor(...)`` built from outside data and every ``assign_`` (the
optimizer update).  ``train_model`` also checks the loss and every leaf
gradient once per step, before the update, and ``ddpm_sample`` checks
its state once per sampler step.  Per-op checks (each op's output and
each gradient contribution) are off by default; ``set_debug_checks(True)``
turns them on.  When a boundary check fails, the caller replays that
step from its saved random stream with per-op checks on, so the
NumericsError it raises names the first op that went non-finite.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import DimensionError, NumericsError, UsageError

_DTYPES = {"f64": np.float64, "f32": np.float32}

_default_dtype = np.float64
_debug_checks = False
_grad_enabled = True


def set_default_dtype(dtype) -> None:
    """Set the element type new tensors are created with ("f64"/"f32")."""
    global _default_dtype
    if dtype not in _DTYPES:
        raise UsageError(f"unknown dtype name {dtype!r}; expected 'f64' or 'f32'")
    _default_dtype = _DTYPES[dtype]


def default_dtype():
    return _default_dtype


def set_debug_checks(enabled: bool) -> None:
    """Turn the per-op finite checks on or off (off by default)."""
    global _debug_checks
    _debug_checks = bool(enabled)


def debug_checks_enabled() -> bool:
    return _debug_checks


def grad_enabled() -> bool:
    return _grad_enabled


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (inference, samplers)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class OpNode:
    """One recorded op: name, output shape, parent vertices, and a vjp callback.

    ``parents`` has one entry per op input: that input's OpNode if an op
    made it, the input Tensor itself if it is a leaf with
    ``requires_grad``, and None if it takes no part in the gradient.
    ``backward(g)`` receives the upstream gradient (ndarray, of
    ``shape``) and returns one ndarray-or-None per parent.
    """

    __slots__ = ("op", "shape", "parents", "backward")

    def __init__(self, op: str, shape: tuple, parents: tuple, backward: Callable):
        self.op = op
        self.shape = shape
        self.parents = parents
        self.backward = backward


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.ascontiguousarray(data, dtype=_default_dtype)
        if not np.all(np.isfinite(arr)):
            raise NumericsError("tensor constructed with non-finite values")
        self.data: np.ndarray = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self.node: Optional[OpNode] = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _wrap(arr: np.ndarray, requires_grad: bool = False) -> "Tensor":
        """Wrap an array as-is (no cast, no copy).  Internal: ops only."""
        t = Tensor.__new__(Tensor)
        t.data = arr
        t.requires_grad = requires_grad
        t.grad = None
        t.node = None
        return t

    # -- basic introspection --------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return int(self.data.size)

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise UsageError(f"item() on tensor of {self.data.size} elements")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        head = np.array2string(self.data, threshold=8, precision=6)
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})\n{head}"

    # -- parameter maintenance ------------------------------------------------

    def assign_(self, new_data) -> None:
        """Overwrite a leaf tensor's payload in place (optimizer updates).

        Refuses to touch graph-produced tensors: mutating those would
        silently invalidate recorded backward closures.
        """
        if self.node is not None:
            raise UsageError("assign_ is only valid on leaf tensors")
        arr = np.asarray(new_data, dtype=self.data.dtype)
        if arr.shape != self.data.shape:
            raise DimensionError(f"assign_ shape mismatch: {arr.shape} vs {self.data.shape}")
        if not np.all(np.isfinite(arr)):
            raise NumericsError("assign_ with non-finite values")
        np.copyto(self.data, arr)

    # -- autodiff entry point ---------------------------------------------------

    def backward(self, seed=None) -> None:
        """Accumulate d(self)/d(leaf) into ``.grad`` across the graph.

        ``self`` must be scalar unless an explicit ``seed`` gradient of
        matching shape is supplied.
        """
        if seed is None:
            if self.data.size != 1:
                raise UsageError("backward() without seed requires a scalar tensor")
            seed_arr = np.ones_like(self.data)
        else:
            seed_arr = np.asarray(seed, dtype=self.data.dtype)
            if seed_arr.shape != self.data.shape:
                raise DimensionError(f"seed shape {seed_arr.shape} != output shape {self.data.shape}")
        GradTape(self).run(seed_arr)


class GradTape:
    """Reverse-topological replay schedule for one graph output.

    ``order`` lists the graph's vertices, inputs first and the root's
    last: an OpNode for each op output and the leaf Tensor itself for
    each leaf with ``requires_grad`` (the root, if it is a leaf).
    """

    def __init__(self, root: Tensor):
        self.root = root
        self.order: list = []
        visited: set[int] = set()
        stack: list[tuple[object, bool]] = [(root if root.node is None else root.node, False)]
        while stack:
            v, expanded = stack.pop()
            if expanded:
                self.order.append(v)
                continue
            if id(v) in visited:
                continue
            visited.add(id(v))
            stack.append((v, True))
            if isinstance(v, OpNode):
                for p in v.parents:
                    if p is not None and id(p) not in visited:
                        stack.append((p, False))

    def run(self, seed: np.ndarray) -> None:
        grads: dict[int, np.ndarray] = {id(self.order[-1]): seed}
        for v in reversed(self.order):
            g = grads.pop(id(v), None)
            if g is None:
                continue  # reachable but received no gradient
            if isinstance(v, Tensor):  # a leaf: the only vertices that keep .grad
                if v.requires_grad:
                    v.grad = g if v.grad is None else v.grad + g
                continue
            contribs = v.backward(g)
            if len(contribs) != len(v.parents):
                raise NumericsError(f"op {v.op!r} returned {len(contribs)} grads for {len(v.parents)} parents")
            for parent, contrib in zip(v.parents, contribs):
                if parent is None or contrib is None:
                    continue
                if contrib.shape != parent.shape:
                    raise DimensionError(f"op {v.op!r}: gradient shape {contrib.shape} != parent shape {parent.shape}")
                if _debug_checks and not np.all(np.isfinite(contrib)):
                    raise NumericsError(f"op {v.op!r} produced a non-finite gradient")
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + contrib
                else:
                    grads[key] = contrib


def as_tensor(value) -> Tensor:
    """Coerce arrays/scalars to a constant Tensor; pass Tensors through."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def zeros(shape: Sequence[int] | int, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=_default_dtype), requires_grad=requires_grad)
