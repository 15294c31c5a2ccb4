"""Differentiable array ops.

Every op validates shapes up front, computes the forward pass with
numpy, and (when grad mode is on and an input participates) records an
OpNode whose ``backward`` closure returns analytic vector-Jacobian
products.  Gradients of non-participating inputs are exactly zero: none
are recorded for them at all.  A closure captures the arrays its vjp
reads; of an input whose values no vjp reads (add's and sub's operands,
reshape's input, a slice's source, sum's input) it captures only the
shape and dtype, so the graph does not keep that input's array alive.

Layout conventions used throughout the package:
  * token matrices are [..., N, C] with C last,
  * token grids, which the conv kernels read and write, are [B, H, W, C],
  * softmax/normalization act on the last axis.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..errors import ConfigurationError, DimensionError, NumericsError, UsageError
from . import flops as _flops
from .tensor import OpNode, Tensor, as_tensor, grad_enabled
from .tensor import debug_checks_enabled as _debug


def _result(data: np.ndarray, op: str, parents: Sequence[Tensor], backward) -> Tensor:
    if _debug() and not np.all(np.isfinite(data)):
        raise NumericsError(f"op {op!r} produced non-finite values")
    out = Tensor._wrap(np.ascontiguousarray(data))
    if grad_enabled() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        vertices = tuple(p.node or (p if p.requires_grad else None) for p in parents)
        out.node = OpNode(op, out.data.shape, vertices, backward)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data
    sa, sb = a.data.shape, b.data.shape

    def backward(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return _result(data, "add", (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data - b.data
    sa, sb = a.data.shape, b.data.shape

    def backward(g):
        return _unbroadcast(g, sa), _unbroadcast(-g, sb)

    return _result(data, "sub", (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data

    def backward(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return _result(data, "mul", (a, b), backward)


def neg(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        return (-g,)

    return _result(-a.data, "neg", (a,), backward)


def scale(a, c: float) -> Tensor:
    """Multiply by a python scalar constant."""
    a = as_tensor(a)
    c = float(c)

    def backward(g):
        return (g * c,)

    return _result(a.data * c, "scale", (a,), backward)


def modulate(x, shift, scale) -> Tensor:
    """x * (scale + 1) + shift, shift and scale broadcasting against x (adaLN
    modulation): one node where add, mul and add made three."""
    x, shift, scale = as_tensor(x), as_tensor(shift), as_tensor(scale)
    gain = scale.data + 1.0
    data = x.data * gain + shift.data

    def backward(g):
        return (
            _unbroadcast(g * gain, x.data.shape),
            _unbroadcast(g, shift.data.shape),
            _unbroadcast(g * x.data, scale.data.shape),
        )

    return _result(data, "modulate", (x, shift, scale), backward)


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    """Stacked matrix product over the last two axes (numpy @ semantics)."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise DimensionError(f"matmul needs rank >= 2 operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise DimensionError(f"matmul inner extents differ: {a.data.shape} @ {b.data.shape}")
    data = a.data @ b.data
    _flops.record("matmul", 2 * data.size * a.data.shape[-1])

    def backward(g):
        da = _unbroadcast(g @ b.data.swapaxes(-1, -2), a.data.shape)
        db = _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape)
        return da, db

    return _result(data, "matmul", (a, b), backward)


def linear(x, w, b) -> Tensor:
    """x @ w + b for x [N, K], w [K, M], b [M]: one node where matmul and add made two.

    Its FLOPs are metered as ``matmul``; the arithmetic, forward and backward, is that of the pair.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise DimensionError(f"linear needs [N, K] @ [K, M], got {x.data.shape} @ {w.data.shape}")
    if b.data.shape != (w.data.shape[1],):
        raise DimensionError(f"linear bias shape {b.data.shape} != ({w.data.shape[1]},)")
    data = x.data @ w.data + b.data
    _flops.record("matmul", 2 * data.size * x.data.shape[1])

    def backward(g):
        return g @ w.data.T, x.data.T @ g, g.sum(axis=0)

    return _result(data, "linear", (x, w, b), backward)


# ---------------------------------------------------------------------------
# nonlinearities / normalization
# ---------------------------------------------------------------------------

def softmax_rows(x) -> Tensor:
    """Numerically stable softmax along the last axis."""
    x = as_tensor(x)
    y = x.data - x.data.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)

    def backward(g):
        dx = g * y
        inner = dx.sum(axis=-1, keepdims=True)
        np.subtract(g, inner, out=dx)
        dx *= y
        return (dx,)

    return _result(y, "softmax_rows", (x,), backward)


LAYERNORM_EPS = 1e-6


def layernorm(x) -> Tensor:
    """Normalize the last axis to zero mean / unit variance.

    There is no learned affine: block modulation supplies the scale and
    shift after the norm.
    """
    x = as_tensor(x)
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    var = (xhat * xhat).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYERNORM_EPS)
    xhat *= inv

    def backward(g):
        dx = g * xhat
        mean_gx = dx.mean(axis=-1, keepdims=True)
        np.subtract(g, g.mean(axis=-1, keepdims=True), out=dx)
        dx -= xhat * mean_gx
        dx *= inv
        return (dx,)

    return _result(xhat, "layernorm", (x,), backward)


def gelu(x) -> Tensor:
    """GELU, tanh approximation."""
    x = as_tensor(x)
    c = math.sqrt(2.0 / math.pi)
    a = 0.044715
    xd = x.data
    t = xd * xd
    t *= xd
    t *= a
    t += xd
    t *= c
    np.tanh(t, out=t)  # tanh(c * (x + a * x^3))
    y = 0.5 * xd
    y *= 1.0 + t

    def backward(g):
        du = xd * xd
        du *= 3.0 * a
        du += 1.0
        du *= c  # c * (1 + 3a * x^2)
        sech2 = t * t
        np.subtract(1.0, sech2, out=sech2)
        rest = 0.5 * xd
        rest *= sech2
        rest *= du
        dx = 1.0 + t
        dx *= 0.5
        dx += rest  # 0.5 * (1 + t) + 0.5 * x * (1 - t^2) * du
        dx *= g
        return (dx,)

    return _result(y, "gelu", (x,), backward)


def silu(x) -> Tensor:
    x = as_tensor(x)
    s = 1.0 / (1.0 + np.exp(-x.data))
    y = x.data * s

    def backward(g):
        return (g * s * (1.0 + x.data * (1.0 - s)),)

    return _result(y, "silu", (x,), backward)


# ---------------------------------------------------------------------------
# convolutions
# ---------------------------------------------------------------------------

def _pad_hw(a: np.ndarray, p: int) -> np.ndarray:
    """[B, H, W, C] with p zeros on each side of H and W."""
    b, h, w, c = a.shape
    out = np.zeros((b, h + 2 * p, w + 2 * p, c), dtype=a.dtype)
    out[:, p : p + h, p : p + w] = a
    return out


def depthwise_conv2d(x, kernels) -> Tensor:
    """Per-channel 2-D correlation with same-size zero padding.

    x: [B, H, W, C]; kernels: [C, k, k] with k odd.  A k=1 unit kernel
    reproduces the input bit for bit.
    """
    x, kernels = as_tensor(x), as_tensor(kernels)
    if x.data.ndim != 4:
        raise DimensionError(f"depthwise_conv2d expects [B,H,W,C], got {x.data.shape}")
    if kernels.data.ndim != 3 or kernels.data.shape[1] != kernels.data.shape[2]:
        raise DimensionError(f"kernels must be [C,k,k], got {kernels.data.shape}")
    b, h, w, c = x.data.shape
    if kernels.data.shape[0] != c:
        raise DimensionError(f"kernel channel count {kernels.data.shape[0]} != input channels {c}")
    k = kernels.data.shape[1]
    if k % 2 == 0:
        raise ConfigurationError(f"depthwise kernel size must be odd, got {k}")
    p = k // 2

    xp = _pad_hw(x.data, p)
    shape, dtype = x.data.shape, x.data.dtype
    out = np.zeros(shape, dtype=dtype)
    for u in range(k):
        for v in range(k):
            out += xp[:, u : u + h, v : v + w] * kernels.data[:, u, v]
    _flops.record("depthwise_conv2d", 2 * b * c * h * w * k * k)

    def backward(g):
        gp = _pad_hw(g, p)
        dx = np.zeros(shape, dtype=dtype)
        dk = np.zeros_like(kernels.data)
        for u in range(k):
            for v in range(k):
                # dx: correlation of g with the 180-degree rotated kernel
                dx += gp[:, u : u + h, v : v + w] * kernels.data[:, k - 1 - u, k - 1 - v]
                dk[:, u, v] = (g * xp[:, u : u + h, v : v + w]).sum(axis=(0, 1, 2))
        return dx, dk

    return _result(out, "depthwise_conv2d", (x, kernels), backward)


def pointwise_conv2d(x, weight, bias) -> Tensor:
    """1x1 convolution mixing channels: [B,H,W,Cin] x [Cout,Cin] + [Cout] -> [B,H,W,Cout]."""
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    if x.data.ndim != 4:
        raise DimensionError(f"pointwise_conv2d expects [B,H,W,C], got {x.data.shape}")
    b, h, w, cin = x.data.shape
    if weight.data.ndim != 2 or weight.data.shape[1] != cin:
        raise DimensionError(f"weight {weight.data.shape} incompatible with input channels {cin}")
    cout = weight.data.shape[0]
    if bias.data.shape != (cout,):
        raise DimensionError(f"bias shape {bias.data.shape} != ({cout},)")
    rows = x.data.reshape(-1, cin)  # one row per pixel
    out = (rows @ weight.data.T + bias.data).reshape(b, h, w, cout)
    _flops.record("pointwise_conv2d", 2 * b * h * w * cout * cin)

    def backward(g):
        g_rows = g.reshape(-1, cout)
        dx = (g_rows @ weight.data).reshape(x.data.shape)
        return dx, g_rows.T @ rows, g_rows.sum(axis=0)

    return _result(out, "pointwise_conv2d", (x, weight, bias), backward)


# ---------------------------------------------------------------------------
# shape plumbing
# ---------------------------------------------------------------------------

def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    shape = _int_tuple(shape, "reshape", "shape")
    try:
        data = x.data.reshape(shape)
    except ValueError as exc:
        raise DimensionError(f"cannot reshape {x.data.shape} to {shape}: {exc}") from None
    shape_in = x.data.shape

    def backward(g):
        return (g.reshape(shape_in),)

    return _result(data, "reshape", (x,), backward)


def transpose(x, axes) -> Tensor:
    x = as_tensor(x)
    axes = _int_tuple(axes, "transpose", "axes")
    if sorted(axes) != list(range(x.data.ndim)):
        raise DimensionError(f"transpose axes {axes} invalid for rank {x.data.ndim}")

    def backward(g):
        return (np.transpose(g, np.argsort(axes)),)

    return _result(np.transpose(x.data, axes), "transpose", (x,), backward)


def concat(tensors: Sequence, axis: int) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise DimensionError("concat of zero tensors")
    _check_axis(tensors[0], "concat", axis)
    ref, ax = tensors[0].data.shape, axis % tensors[0].data.ndim
    if any(t.data.ndim != len(ref) or t.data.shape[:ax] + t.data.shape[ax + 1:] != ref[:ax] + ref[ax + 1:] for t in tensors):
        raise DimensionError(f"concat on axis {axis} needs equal ranks and other extents, got {[t.shape for t in tensors]}")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, offsets, axis=axis))

    return _result(data, "concat", tuple(tensors), backward)


def narrow(x, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along one axis.

    length may be zero; the result then has a zero extent on that axis.
    """
    x = as_tensor(x)
    _check_axis(x, "narrow", axis=axis, start=start, length=length)
    extent = x.data.shape[axis]
    if start < 0 or length < 0 or start + length > extent:
        raise DimensionError(f"narrow [{start}:{start + length}] out of range for extent {extent} on axis {axis}")
    return _slice(x, axis, start, length, "narrow")


def split(x, parts: int, axis: int) -> tuple:
    """``parts`` equal contiguous slices along ``axis``, in order: one call for
    what would take ``parts`` narrows."""
    x = as_tensor(x)
    _check_axis(x, "split", axis=axis, parts=parts)
    extent = x.data.shape[axis]
    if parts < 1 or extent % parts:
        raise DimensionError(f"split of extent {extent} on axis {axis} into {parts} equal parts")
    size = extent // parts
    return tuple(_slice(x, axis, k * size, size, "split") for k in range(parts))


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _int_tuple(values, op: str, name: str) -> tuple:
    """A tuple or list of ints (no bools, no floats) as a tuple of Python ints."""
    if not isinstance(values, (tuple, list)) or not all(map(_is_int, values)):
        raise UsageError(f"{op} {name} must be a tuple of ints, got {values!r}")
    return tuple(map(int, values))


def _check_axis(x: Tensor, op: str, axis, **counts) -> None:
    """Every argument an int (not a bool), and axis inside [-ndim, ndim)."""
    for name, value in {"axis": axis, **counts}.items():
        if not _is_int(value):
            raise UsageError(f"{op} {name} must be an int, got {value!r}")
    if not -x.data.ndim <= axis < x.data.ndim:
        raise DimensionError(f"{op} axis {axis} out of range for rank {x.data.ndim}")


def _slice(x: Tensor, axis: int, start: int, length: int, op: str) -> Tensor:
    index = [slice(None)] * x.data.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)
    shape, dtype = x.data.shape, x.data.dtype

    def backward(g):
        dx = np.zeros(shape, dtype=dtype)
        dx[index] = g
        return (dx,)

    return _result(x.data[index], op, (x,), backward)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def _reduced_axes(x: Tensor, op: str, axis) -> tuple:
    """axis (None, an int or a tuple of distinct ints) as a tuple of nonnegative axes."""
    if axis is None:
        return tuple(range(x.data.ndim))
    axes = axis if isinstance(axis, tuple) else (axis,)
    for a in axes:
        _check_axis(x, op, a)
    axes = tuple(a % x.data.ndim for a in axes)
    if len(set(axes)) != len(axes):
        raise DimensionError(f"{op} axis {axis} names an axis twice")
    return axes


def sum_(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    _reduced_axes(x, "sum", axis)
    data = x.data.sum(axis=axis, keepdims=keepdims)
    shape = x.data.shape

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g.reshape(()), shape).copy(),)
        g2 = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g2, shape).copy(),)

    return _result(np.asarray(data), "sum", (x,), backward)


def mean(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    n = math.prod(x.data.shape[a] for a in _reduced_axes(x, "mean", axis))
    return scale(sum_(x, axis=axis, keepdims=keepdims), 1.0 / n)


# ---------------------------------------------------------------------------
# gathers (embeddings, bias tables)
# ---------------------------------------------------------------------------

def _int_index(index, op: str) -> np.ndarray:
    """index as int64; a float or bool index is refused, not truncated (an empty one is kept)."""
    idx = np.asarray(index)
    if idx.size and not np.issubdtype(idx.dtype, np.integer):
        raise UsageError(f"{op} index must be integers, got {idx.dtype}")
    return idx.astype(np.int64, copy=False)


def gather_rows(table, index) -> Tensor:
    """table[index] along axis 0; index is a 1-D int array."""
    table = as_tensor(table)
    idx = _int_index(index, "gather_rows")
    if idx.ndim != 1:
        raise DimensionError(f"gather_rows expects a 1-D index, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise DimensionError(f"gather_rows index out of range for {table.data.shape[0]} rows")
    data = table.data[idx]

    def backward(g):
        dt = np.zeros_like(table.data)
        np.add.at(dt, idx, g)
        return (dt,)

    return _result(data, "gather_rows", (table,), backward)


def gather_last(table, index) -> Tensor:
    """table[:, index] for a 2-D table and 1-D int index -> [rows, len(index)]."""
    table = as_tensor(table)
    if table.data.ndim != 2:
        raise DimensionError(f"gather_last expects a 2-D table, got {table.data.shape}")
    idx = _int_index(index, "gather_last")
    if idx.ndim != 1:
        raise DimensionError(f"gather_last expects a 1-D index, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[1]):
        raise DimensionError(f"gather_last index out of range for {table.data.shape[1]} columns")
    data = table.data[:, idx]

    def backward(g):
        dt = np.zeros((table.data.shape[1], table.data.shape[0]), dtype=table.data.dtype)
        np.add.at(dt, idx, g.T)
        return (dt.T.copy(),)

    return _result(data, "gather_last", (table,), backward)

