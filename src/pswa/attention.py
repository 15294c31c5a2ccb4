"""Multi-head self-attention: full and windowed.

Tokens are laid out row-major.  For a grid of width W, the token at
flat index i sits at row ``i // W`` and column ``i - W * (i // W)``;
window partitioning keeps that order both across windows and inside
each window, so merging is the exact inverse permutation.

The windowed path adds a learned relative-position bias to the logits
before the row softmax: one scalar per head per (d_row, d_col) offset,
looked up from a table of size (2*wh - 1) * (2*ww - 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionError
from .numerics import Rng, Tensor, as_tensor, ops, zeros


@dataclass
class AttentionParams:
    """Projection weights for one attention operator.

    All four matrices are [C, C] with C = num_heads * head_dim; head h
    reads columns [h*head_dim, (h+1)*head_dim) of the projected values.
    """

    num_heads: int
    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_o: Tensor

    def __post_init__(self):
        if self.num_heads < 1:
            raise ConfigurationError(f"num_heads must be >= 1, got {self.num_heads}")
        c = self.w_q.shape[0] if self.w_q.ndim == 2 else -1
        for name in ("w_q", "w_k", "w_v", "w_o"):
            w = getattr(self, name)
            if w.ndim != 2 or w.shape != (c, c):
                raise DimensionError(f"{name} must be square [C,C]; got {w.shape}")
        if c % self.num_heads != 0:
            raise ConfigurationError(f"channels {c} not divisible by num_heads {self.num_heads}")

    @property
    def channels(self) -> int:
        return self.w_q.shape[0]

    @property
    def head_dim(self) -> int:
        return self.channels // self.num_heads

    @classmethod
    def create(cls, channels: int, num_heads: int, rng: Rng, std: float = 0.02) -> "AttentionParams":
        def w(tag):
            return Tensor(rng.split(tag).normal((channels, channels), std=std), requires_grad=True)

        return cls(num_heads, w("w_q"), w("w_k"), w("w_v"), w("w_o"))

    def parameters(self) -> dict[str, Tensor]:
        return {"w_q": self.w_q, "w_k": self.w_k, "w_v": self.w_v, "w_o": self.w_o}


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


class WindowSpec:
    """Window geometry plus the learned relative-position bias table."""

    def __init__(self, window_h: int, window_w: int, bias_table: Tensor):
        if window_h < 1 or window_w < 1:
            raise ConfigurationError(f"window extents must be >= 1, got {window_h}x{window_w}")
        table_cols = (2 * window_h - 1) * (2 * window_w - 1)
        if bias_table.ndim != 2 or bias_table.shape[1] != table_cols:
            raise DimensionError(
                f"bias table must be [heads, {table_cols}] for a {window_h}x{window_w} window; got {bias_table.shape}"
            )
        self.window_h = int(window_h)
        self.window_w = int(window_w)
        self.bias_table = bias_table
        self._pair_index = relative_position_index(window_h, window_w)

    @property
    def tokens(self) -> int:
        return self.window_h * self.window_w

    @property
    def num_heads(self) -> int:
        return self.bias_table.shape[0]

    @classmethod
    def create(cls, window_h: int, window_w: int, num_heads: int) -> "WindowSpec":
        table = zeros((num_heads, (2 * window_h - 1) * (2 * window_w - 1)), requires_grad=True)
        return cls(window_h, window_w, table)

    def bias_matrix(self) -> Tensor:
        """[heads, wn, wn] additive logit bias (differentiable gather)."""
        wn = self.tokens
        return ops.reshape(ops.gather_last(self.bias_table, self._pair_index), (self.num_heads, wn, wn))

    def parameters(self) -> dict[str, Tensor]:
        return {"bias_table": self.bias_table}


# ---------------------------------------------------------------------------
# core attention
# ---------------------------------------------------------------------------

def _attend(tokens: Tensor, params: AttentionParams, bias: Tensor | None):
    """Attention over [G, N, C] token groups; returns (out, maps)."""
    g, n, c = tokens.shape
    if c != params.channels:
        raise DimensionError(f"token channels {c} != projection size {params.channels}")
    heads, d = params.num_heads, params.head_dim

    flat = ops.reshape(tokens, (g * n, c))

    def heads_first(m):
        return ops.transpose(ops.reshape(m, (g, n, heads, d)), (0, 2, 1, 3))

    q = heads_first(ops.matmul(flat, params.w_q))
    k = heads_first(ops.matmul(flat, params.w_k))
    v = heads_first(ops.matmul(flat, params.w_v))

    logits = ops.scale(ops.matmul(q, ops.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(d))
    if bias is not None:
        logits = ops.add(logits, bias)
    maps = ops.softmax_rows(logits)

    ctx = ops.transpose(ops.matmul(maps, v), (0, 2, 1, 3))  # [G, N, heads, d]
    out = ops.matmul(ops.reshape(ctx, (g * n, c)), params.w_o)
    return ops.reshape(out, (g, n, c)), maps


def full_mhsa(x, params: AttentionParams):
    """Dense self-attention over [B, N, C]; returns (out, maps [B,h,N,N])."""
    x = as_tensor(x)
    if x.ndim != 3:
        raise DimensionError(f"full_mhsa expects [B, N, C], got {x.shape}")
    return _attend(x, params, None)


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


def window_attention(x, params: AttentionParams, spec: WindowSpec, return_maps: bool = False):
    """Self-attention inside non-overlapping windows of a [B,H,W,C] grid.

    Logits get the window's relative-position bias before the softmax.
    With ``return_maps`` the per-window maps [B*nW, heads, wn, wn] come
    back too.
    """
    x = as_tensor(x)
    if spec.num_heads != params.num_heads:
        raise ConfigurationError(f"bias table has {spec.num_heads} heads, params have {params.num_heads}")
    wins = window_partition(x, spec)
    b, h, w, _ = x.shape
    out, maps = _attend(wins, params, spec.bias_matrix())
    merged = window_merge(out, spec, b, h, w)
    return (merged, maps) if return_maps else merged
