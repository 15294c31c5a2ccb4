"""Multi-head self-attention inside non-overlapping windows.

Tokens are laid out row-major.  For a grid of width W, the token at
flat index i sits at row ``i // W`` and column ``i - W * (i // W)``;
window partitioning keeps that order both across windows and inside
each window, so merging is the exact inverse permutation.

The windowed path adds a learned relative-position bias to the logits
before the row softmax: one scalar per head per (d_row, d_col) offset,
looked up from a table of size (2*wh - 1) * (2*ww - 1).  Dense attention
is the window covering the whole grid ([B, N, C]: a [B, 1, N, C] grid).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError, DimensionError
from .numerics import Rng, Tensor, as_tensor, ops, zeros


def relative_position_index(window_h: int, window_w: int) -> np.ndarray:
    """Flat bias-table index for every ordered token pair in a window.

    Offsets (d_row, d_col) are shifted to be nonnegative and packed as
    d_row * (2*ww - 1) + d_col; returns int64 [wn * wn] for wn tokens.
    """
    wn = window_h * window_w
    rows = np.arange(wn) // window_w
    cols = np.arange(wn) % window_w
    d_row = rows[None, :] - rows[:, None] + window_h - 1
    d_col = cols[None, :] - cols[:, None] + window_w - 1
    return (d_row * (2 * window_w - 1) + d_col).reshape(-1).astype(np.int64)


def _check_extents(window_h: int, window_w: int) -> None:
    if window_h < 1 or window_w < 1:
        raise ConfigurationError(f"window extents must be >= 1, got {window_h}x{window_w}")


class WindowSpec:
    """One window branch: its geometry, learned relative-position bias
    table and q/k/v/o projections.

    The table is [heads, (2*wh - 1) * (2*ww - 1)]: its rows are the head
    count, which is stored nowhere else.  All four projections are [C, C]
    with C = heads * head_dim; head h reads columns [h*head_dim,
    (h+1)*head_dim) of the projected values.
    """

    def __init__(self, window_h: int, window_w: int, bias_table: Tensor, w_q: Tensor, w_k: Tensor, w_v: Tensor, w_o: Tensor):
        _check_extents(window_h, window_w)
        table_cols = (2 * window_h - 1) * (2 * window_w - 1)
        if bias_table.ndim != 2 or bias_table.shape[0] < 1 or bias_table.shape[1] != table_cols:
            raise DimensionError(
                f"bias table must be [heads >= 1, {table_cols}] for a {window_h}x{window_w} window; got {bias_table.shape}"
            )
        c = w_q.shape[0] if w_q.ndim == 2 else -1
        for name, w in (("w_q", w_q), ("w_k", w_k), ("w_v", w_v), ("w_o", w_o)):
            if w.ndim != 2 or w.shape != (c, c):
                raise DimensionError(f"{name} must be square [C,C]; got {w.shape}")
        if c % bias_table.shape[0]:
            raise ConfigurationError(f"channels {c} not divisible by num_heads {bias_table.shape[0]}")
        self.window_h = int(window_h)
        self.window_w = int(window_w)
        self.bias_table = bias_table
        self.w_q, self.w_k, self.w_v, self.w_o = w_q, w_k, w_v, w_o
        self._pair_index = relative_position_index(window_h, window_w)

    @property
    def tokens(self) -> int:
        return self.window_h * self.window_w

    @property
    def num_heads(self) -> int:
        return self.bias_table.shape[0]

    @property
    def channels(self) -> int:
        return self.w_q.shape[0]

    @property
    def head_dim(self) -> int:
        return self.channels // self.num_heads

    @classmethod
    def create(cls, window_h: int, window_w: int, channels: int, num_heads: int, rng: Rng, std: float = 0.02) -> "WindowSpec":
        """A zero bias table and N(0, std) projections, each drawn from ``rng.split(name)``."""
        _check_extents(window_h, window_w)
        if channels < 1 or num_heads < 1:
            raise DimensionError(f"a window branch needs channels >= 1 and heads >= 1, got {channels} and {num_heads}")

        def w(tag):
            return Tensor(rng.split(tag).normal((channels, channels), std=std), requires_grad=True)

        table = zeros((num_heads, (2 * window_h - 1) * (2 * window_w - 1)), requires_grad=True)
        return cls(window_h, window_w, table, w("w_q"), w("w_k"), w("w_v"), w("w_o"))

    def bias_matrix(self) -> Tensor:
        """[heads, wn, wn] additive logit bias (differentiable gather)."""
        wn = self.tokens
        return ops.reshape(ops.gather_last(self.bias_table, self._pair_index), (self.num_heads, wn, wn))

    def parameters(self) -> dict[str, Tensor]:
        """Under the names a model's parameters carry after ``blocks.{l}.``."""
        return {
            "win.bias_table": self.bias_table,
            "attn.w_q": self.w_q, "attn.w_k": self.w_k, "attn.w_v": self.w_v, "attn.w_o": self.w_o,
        }


# ---------------------------------------------------------------------------
# core attention
# ---------------------------------------------------------------------------

def _attend(tokens: Tensor, spec: WindowSpec):
    """Attention over [G, N, C] token groups; returns (out, maps)."""
    g, n, c = tokens.shape
    if c != spec.channels:
        raise DimensionError(f"token channels {c} != projection size {spec.channels}")
    heads, d = spec.num_heads, spec.head_dim

    flat = ops.reshape(tokens, (g * n, c))

    def heads_first(m):
        return ops.transpose(ops.reshape(m, (g, n, heads, d)), (0, 2, 1, 3))

    q = heads_first(ops.matmul(flat, spec.w_q))
    k = heads_first(ops.matmul(flat, spec.w_k))
    v = heads_first(ops.matmul(flat, spec.w_v))

    logits = ops.scale(ops.matmul(q, ops.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(d))
    maps = ops.softmax_rows(ops.add(logits, spec.bias_matrix()))

    ctx = ops.transpose(ops.matmul(maps, v), (0, 2, 1, 3))  # [G, N, heads, d]
    out = ops.matmul(ops.reshape(ctx, (g * n, c)), spec.w_o)
    return ops.reshape(out, (g, n, c)), maps


# ---------------------------------------------------------------------------
# windowing
# ---------------------------------------------------------------------------

def window_partition(x, spec: WindowSpec) -> Tensor:
    """[B, H, W, C] -> [B * num_windows, wh * ww, C], row-major twice over."""
    x = as_tensor(x)
    if x.ndim != 4:
        raise DimensionError(f"window_partition expects [B, H, W, C], got {x.shape}")
    b, h, w, c = x.shape
    wh, ww = spec.window_h, spec.window_w
    if h % wh or w % ww:
        raise ConfigurationError(f"grid {h}x{w} not divisible by window {wh}x{ww}")
    nh, nw = h // wh, w // ww
    t = ops.reshape(x, (b, nh, wh, nw, ww, c))
    t = ops.transpose(t, (0, 1, 3, 2, 4, 5))  # [B, nh, nw, wh, ww, C]
    return ops.reshape(t, (b * nh * nw, wh * ww, c))


def window_merge(windows, spec: WindowSpec, batch: int, height: int, width: int) -> Tensor:
    """Exact inverse of :func:`window_partition`."""
    windows = as_tensor(windows)
    wh, ww = spec.window_h, spec.window_w
    if height % wh or width % ww:
        raise ConfigurationError(f"grid {height}x{width} not divisible by window {wh}x{ww}")
    nh, nw = height // wh, width // ww
    if windows.ndim != 3 or windows.shape[0] != batch * nh * nw or windows.shape[1] != wh * ww:
        raise DimensionError(
            f"windows shape {windows.shape} inconsistent with batch {batch}, grid {height}x{width}, window {wh}x{ww}"
        )
    c = windows.shape[2]
    t = ops.reshape(windows, (batch, nh, nw, wh, ww, c))
    t = ops.transpose(t, (0, 1, 3, 2, 4, 5))
    return ops.reshape(t, (batch, height, width, c))


def window_attention(x, spec: WindowSpec):
    """Self-attention inside non-overlapping windows of a [B,H,W,C] grid.

    Logits get the window's relative-position bias before the softmax.
    Returns (out [B,H,W,C], maps [B*nW, heads, wn, wn]).
    """
    x = as_tensor(x)
    wins = window_partition(x, spec)
    b, h, w, _ = x.shape
    out, maps = _attend(wins, spec)
    return window_merge(out, spec, b, h, w), maps
