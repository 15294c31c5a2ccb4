"""The windowed-attention + bridging-convolution block, and its schedule.

A block splits the C channels of a [B, H, W, C] token grid at h:

  * channels [0, h)  -> window branch: self-attention inside fixed
    non-overlapping windows (no shifting anywhere in this package);
  * channels [h, C)  -> bridge branch: a depthwise-separable conv whose
    odd kernel (side 2K - 1) straddles window borders, so information
    crosses between adjacent windows through these channels instead.

`PSWALayerConfig` owns one layer's mixing stage: the window geometry
and both branches' parameters.  h and C are read off those parameters
(h is the attention width), never stored beside them.
`coverage_schedule` picks h per layer and grows it with depth: early
layers keep most channels on the local conv branch, late layers hand
them to attention.  The schedule value K (the "order") also sizes the
bridge kernel, which the model builds with side 2K - 1: after one
block, a channel routed through the bridge has mixed a Chebyshev-(K-1)
neighborhood, which is exactly the neighborhood the order-K similarity
below is defined on.

`kth_order_similarity` is the scoring rule this layout approximates:
instead of comparing single tokens q_i . k_j, compare alpha-weighted
aggregations of the order-K neighborhoods around i and j.  Order 1
recovers the plain pairwise logit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .attention import AttentionParams, WindowSpec, window_attention
from .errors import ConfigurationError, DimensionError, DomainError
from .numerics import Rng, Tensor, as_tensor, ops


# ---------------------------------------------------------------------------
# layer configuration
# ---------------------------------------------------------------------------

@dataclass
class BridgeParams:
    """Depthwise-separable conv parameters for the bridge channels."""

    depthwise: Tensor      # [Cb, k, k]
    pointwise_w: Tensor    # [Cb, Cb]
    pointwise_b: Tensor    # [Cb]

    def __post_init__(self):
        if self.depthwise.ndim != 3 or self.depthwise.shape[1] != self.depthwise.shape[2]:
            raise DimensionError(f"depthwise kernels must be [C,k,k], got {self.depthwise.shape}")
        cb = self.depthwise.shape[0]
        if self.pointwise_w.shape != (cb, cb):
            raise DimensionError(f"pointwise weight {self.pointwise_w.shape} != ({cb},{cb})")
        if self.pointwise_b.shape != (cb,):
            raise DimensionError(f"pointwise bias {self.pointwise_b.shape} != ({cb},)")

    @property
    def channels(self) -> int:
        return self.depthwise.shape[0]

    @classmethod
    def create(cls, channels: int, kernel: int, rng: Rng, std: float = 0.02) -> "BridgeParams":
        return cls(
            depthwise=Tensor(rng.split("depthwise").normal((channels, kernel, kernel), std=std), requires_grad=True),
            pointwise_w=Tensor(rng.split("pointwise").normal((channels, channels), std=std), requires_grad=True),
            pointwise_b=Tensor(np.zeros(channels), requires_grad=True),
        )

    def parameters(self) -> dict[str, Tensor]:
        return {"dw": self.depthwise, "pw_w": self.pointwise_w, "pw_b": self.pointwise_b}


@dataclass
class PSWALayerConfig:
    """One block's mixing stage: window attention on channels [0, h), the
    bridge on [h, C).  The widths are read off the parameters, so they
    cannot disagree with them; a branch of width 0 is None."""

    window_spec: Optional[WindowSpec]
    attn: Optional[AttentionParams]
    bridge: Optional[BridgeParams]

    def __post_init__(self):
        if (self.attn is None) != (self.window_spec is None):
            raise ConfigurationError("attn and window_spec must be given together")
        if self.attn is None and self.bridge is None:
            raise ConfigurationError("a mixing stage needs a window branch, a bridge branch or both")

    @property
    def window_channels(self) -> int:
        return self.attn.channels if self.attn is not None else 0

    @property
    def bridge_channels(self) -> int:
        return self.bridge.channels if self.bridge is not None else 0

    @property
    def total_channels(self) -> int:
        return self.window_channels + self.bridge_channels

    def parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for prefix, part in (("win", self.window_spec), ("attn", self.attn), ("bridge", self.bridge)):
            if part is not None:
                out.update({f"{prefix}.{k}": v for k, v in part.parameters().items()})
        return out


# ---------------------------------------------------------------------------
# forward pieces
# ---------------------------------------------------------------------------

def channel_split(x, cfg: PSWALayerConfig):
    """Split [B, H, W, C] at h into the window and bridge operands.

    Either part may have zero channels; the slice is contiguous, window
    channels first.
    """
    x = as_tensor(x)
    if x.ndim != 4 or x.shape[3] != cfg.total_channels:
        raise DimensionError(f"expected [B,H,W,{cfg.total_channels}], got {x.shape}")
    h = cfg.window_channels
    return ops.narrow(x, 3, 0, h), ops.narrow(x, 3, h, cfg.bridge_channels)


def bridge_branch(x_bridge, params: BridgeParams) -> Tensor:
    """Depthwise conv (odd kernel, zero padding) then pointwise mixing."""
    x_bridge = as_tensor(x_bridge)
    if x_bridge.ndim != 4:
        raise DimensionError(f"bridge_branch expects [B,H,W,Cb], got {x_bridge.shape}")
    nchw = ops.transpose(x_bridge, (0, 3, 1, 2))
    y = ops.depthwise_conv2d(nchw, params.depthwise)
    y = ops.pointwise_conv2d(y, params.pointwise_w, params.pointwise_b)
    return ops.transpose(y, (0, 2, 3, 1))


def pswa_forward(x, cfg: PSWALayerConfig, return_maps: bool = False):
    """Run both branches on their channel slices and reassemble.

    Output keeps the input layout: window-branch channels [0, h), bridge
    channels [h, C).  With ``return_maps`` also yields the window-branch
    attention maps ([B*nW, heads, wn, wn]; None when h == 0).
    """
    y_win, y_bridge = channel_split(x, cfg)
    maps = None
    if cfg.attn is not None:
        y_win, maps = window_attention(y_win, cfg.attn, cfg.window_spec, return_maps=True)
    if cfg.bridge is not None:
        y_bridge = bridge_branch(y_bridge, cfg.bridge)
    out = ops.concat([y_win, y_bridge], axis=3)
    return (out, maps) if return_maps else out


# ---------------------------------------------------------------------------
# coverage schedule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PCCASchedule:
    """Per-layer window-branch channel widths h_l (bridge gets C - h_l).

    The generated schedules are monotone nondecreasing in depth; the
    type itself also admits hand-written non-monotone allocations so
    ablation arms (decreasing, constant, all-or-nothing) are expressible
    from config.  ``monotone_nondecreasing`` reports which case holds.
    """

    total_channels: int
    head_dim: int
    window_channels: tuple

    def __post_init__(self):
        c, m = self.total_channels, self.head_dim
        if m < 1 or c < 1 or c % m:
            raise ConfigurationError(f"total_channels {c} must be a positive multiple of head_dim {m}")
        if not self.window_channels:
            raise ConfigurationError("schedule needs at least one layer")
        for l, h in enumerate(self.window_channels):
            if not 0 <= h <= c:
                raise ConfigurationError(f"layer {l}: window channels {h} outside [0, {c}]")
            if h % m:
                raise ConfigurationError(f"layer {l}: window channels {h} not a multiple of head_dim {m}")

    @property
    def depth(self) -> int:
        return len(self.window_channels)

    @property
    def fractions(self) -> tuple:
        return tuple(h / self.total_channels for h in self.window_channels)

    @property
    def bridge_channels(self) -> tuple:
        return tuple(self.total_channels - h for h in self.window_channels)

    @property
    def monotone_nondecreasing(self) -> bool:
        hs = self.window_channels
        return all(a <= b for a, b in zip(hs, hs[1:]))

    @classmethod
    def from_fractions(cls, fractions: Sequence[float], total_channels: int, head_dim: int) -> "PCCASchedule":
        """Resolve explicit per-layer fractions (ablations; monotonicity not required)."""
        hs = tuple(_round_to_width(f, total_channels, head_dim) for f in fractions)
        return cls(total_channels, head_dim, hs)


def _round_to_width(fraction: float, total_channels: int, head_dim: int) -> int:
    if not 0.0 <= fraction <= 1.0:
        raise ConfigurationError(f"channel fraction {fraction} outside [0, 1]")
    units = math.floor(fraction * total_channels / head_dim + 0.5)  # round half up
    return int(min(max(units * head_dim, 0), total_channels))


def coverage_schedule(
    depth: int,
    f_start: float,
    f_end: float,
    total_channels: int,
    head_dim: int,
    mode: str = "linear",
) -> PCCASchedule:
    """Progressive allocation: interpolate the window-branch fraction
    from f_start (layer 0) to f_end (last layer), snap each layer to a
    whole number of heads, and clamp so widths never shrink with depth.

    Modes: "linear" (default), "step" (jump at mid-depth), "cosine"
    (slow start, fast finish).  A single-layer schedule uses f_end.
    """
    if depth < 1:
        raise ConfigurationError(f"depth must be >= 1, got {depth}")
    for name, f in (("f_start", f_start), ("f_end", f_end)):
        if not 0.0 <= f <= 1.0:
            raise ConfigurationError(f"{name}={f} outside [0, 1]")
    if f_start > f_end:
        raise ConfigurationError(f"f_start {f_start} > f_end {f_end}; progressive coverage must not shrink")
    if mode not in ("linear", "step", "cosine"):
        raise ConfigurationError(f"unknown schedule mode {mode!r}")

    if depth == 1:
        raw = [f_end]
    elif mode == "linear":
        raw = [f_start + (f_end - f_start) * l / (depth - 1) for l in range(depth)]
    elif mode == "step":
        raw = [f_start if l < depth / 2 else f_end for l in range(depth)]
    else:  # cosine: f_start + (f_end - f_start) * (1 - cos(pi * l / (L-1))) / 2
        raw = [f_start + (f_end - f_start) * 0.5 * (1.0 - math.cos(math.pi * l / (depth - 1))) for l in range(depth)]

    widths = []
    prev = 0
    for f in raw:
        h = max(_round_to_width(f, total_channels, head_dim), prev)
        widths.append(h)
        prev = h
    return PCCASchedule(total_channels, head_dim, tuple(widths))


# ---------------------------------------------------------------------------
# order-K neighborhoods and similarity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NeighborhoodK:
    """Grid positions within Chebyshev distance K-1 of a center."""

    center: tuple
    order: int
    members: tuple  # ((row, col), ...) in row-major order, clipped to the grid

    @property
    def size(self) -> int:
        return len(self.members)


def kth_neighborhood(center, order: int, extents) -> NeighborhoodK:
    """Order-K neighborhood of ``center`` on an H x W grid.

    Covers the square of side 2K - 1 centered there, intersected with
    the grid; order 1 is the center alone.  Off-grid centers raise.
    """
    if order < 1:
        raise ConfigurationError(f"order must be >= 1, got {order}")
    height, width = int(extents[0]), int(extents[1])
    r, c = int(center[0]), int(center[1])
    if not (0 <= r < height and 0 <= c < width):
        raise DomainError(f"center {(r, c)} outside grid {height}x{width}")
    reach = order - 1
    members = tuple(
        (rr, cc)
        for rr in range(max(0, r - reach), min(height - 1, r + reach) + 1)
        for cc in range(max(0, c - reach), min(width - 1, c + reach) + 1)
    )
    return NeighborhoodK((r, c), order, members)


def aggregate_neighborhood(features, center, order: int, alpha: np.ndarray) -> np.ndarray:
    """Alpha-weighted sum of features over an order-K neighborhood.

    features: [H, W, C] (Tensor or array).  alpha: [2K-1, 2K-1] stencil
    shared across channels, or [C, 2K-1, 2K-1] per channel, indexed by
    offset from the neighborhood's top-left corner.  Positions falling
    off the grid contribute zero, matching the conv padding.
    """
    data = features.data if isinstance(features, Tensor) else np.asarray(features, dtype=np.float64)
    if data.ndim != 3:
        raise DimensionError(f"features must be [H, W, C], got {data.shape}")
    height, width, channels = data.shape
    side = 2 * order - 1
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape not in ((side, side), (channels, side, side)):
        raise DimensionError(
            f"alpha shape {alpha.shape} does not match neighborhood side {side} (expect [{side},{side}] or [C,{side},{side}])"
        )
    hood = kth_neighborhood(center, order, (height, width))
    r, c = hood.center
    reach = order - 1
    acc = np.zeros(channels, dtype=np.float64)
    for rr, cc in hood.members:
        u, v = rr - r + reach, cc - c + reach
        weight = alpha[..., u, v]  # scalar or [C]
        acc += weight * data[rr, cc]
    return acc


def kth_order_similarity(
    features,
    i,
    j,
    order: int,
    alpha: np.ndarray,
    psi_features=None,
    channels=None,
) -> float:
    """Inner product of alpha-aggregated order-K neighborhoods at i and j.

    The query side aggregates ``features`` around grid position i; the
    key side aggregates ``psi_features`` (default: the same map) around
    j, with the same stencil.  ``channels=(lo, hi)`` restricts the inner
    product to that channel slice, e.g. the slice a schedule migrates
    between two layers.  With order=1 and a unit stencil this is exactly
    the pairwise logit: feed the query map and key map and the result is
    q_i . k_j.
    """
    phi = aggregate_neighborhood(features, i, order, alpha)
    psi = aggregate_neighborhood(psi_features if psi_features is not None else features, j, order, alpha)
    if phi.shape != psi.shape:
        raise DimensionError(f"query/key aggregations disagree: {phi.shape} vs {psi.shape}")
    if channels is not None:
        lo, hi = int(channels[0]), int(channels[1])
        if not 0 <= lo <= hi <= phi.shape[0]:
            raise DimensionError(f"channel slice [{lo}, {hi}) outside [0, {phi.shape[0]})")
        phi, psi = phi[lo:hi], psi[lo:hi]
    return float(phi @ psi)
