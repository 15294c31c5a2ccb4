"""The windowed-attention + bridging-convolution block, and its coverage schedule.

A block splits the C channels of a [B, H, W, C] token grid at h:

  * channels [0, h)  -> window branch: self-attention inside fixed
    non-overlapping windows (no shifting anywhere in this package);
  * channels [h, C)  -> bridge branch: a depthwise-separable conv whose
    odd kernel (side 2K - 1) straddles window borders, so information
    crosses between adjacent windows through these channels instead.

`PSWALayerConfig` owns one layer's mixing stage: the window branch (a
`WindowSpec`: geometry, bias table and projections) and the bridge's
parameters.  h and C are read off those parameters (h is the attention
width), never stored beside them.
`coverage_schedule` generates the per-layer widths h_l and grows them
with depth: early layers keep most channels on the local conv branch,
late layers hand them to attention.  It returns a plain tuple; the
model's allocation is `ToyDiTConfig.window_widths`, which reads either
this schedule or the config's explicit fractions.  The order K sizes
the bridge kernel, which the model builds with side 2K - 1: after one
block, a channel routed through the bridge has mixed a Chebyshev-(K-1)
neighborhood, the order-K neighborhood.  Read at position i, the
bridge's depthwise correlation is the kernel-weighted sum over i's
order-K neighborhood (zero off the grid): the order-K aggregation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .attention import WindowSpec, window_attention
from .errors import ConfigurationError, DimensionError
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
        if channels < 1 or kernel < 1:
            raise DimensionError(f"a bridge needs channels >= 1 and kernel >= 1, got {channels} and {kernel}")
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
    bridge: Optional[BridgeParams]

    def __post_init__(self):
        if self.window_spec is None and self.bridge is None:
            raise ConfigurationError("a mixing stage needs a window branch, a bridge branch or both")

    @property
    def window_channels(self) -> int:
        return self.window_spec.channels if self.window_spec is not None else 0

    @property
    def bridge_channels(self) -> int:
        return self.bridge.channels if self.bridge is not None else 0

    @property
    def total_channels(self) -> int:
        return self.window_channels + self.bridge_channels

    def parameters(self) -> dict[str, Tensor]:
        out = self.window_spec.parameters() if self.window_spec is not None else {}
        if self.bridge is not None:
            out.update({f"bridge.{k}": v for k, v in self.bridge.parameters().items()})
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
    """Depthwise conv (odd kernel, zero padding) then pointwise mixing,
    both channels-last on the [B, H, W, Cb] grid."""
    y = ops.depthwise_conv2d(x_bridge, params.depthwise)
    return ops.pointwise_conv2d(y, params.pointwise_w, params.pointwise_b)


def pswa_forward(x, cfg: PSWALayerConfig):
    """Run both branches on their channel slices and reassemble.

    Returns (out, maps).  ``out`` keeps the input layout: window-branch
    channels [0, h), bridge channels [h, C).  ``maps`` are the window
    branch's attention maps [B*nW, heads, wn, wn], None when h == 0.
    """
    y_win, y_bridge = channel_split(x, cfg)
    maps = None
    if cfg.window_spec is not None:
        y_win, maps = window_attention(y_win, cfg.window_spec)
    if cfg.bridge is not None:
        y_bridge = bridge_branch(y_bridge, cfg.bridge)
    return ops.concat([y_win, y_bridge], axis=3), maps


# ---------------------------------------------------------------------------
# coverage schedule
# ---------------------------------------------------------------------------

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
) -> tuple[int, ...]:
    """Progressive allocation: interpolate the window-branch fraction
    from f_start (layer 0) to f_end (last layer), snap each layer to a
    whole number of heads, and clamp so widths never shrink with depth.

    Returns one window width h_l per layer (the bridge gets the other
    total_channels - h_l); depth 0 gives ().  Modes: "linear" (default),
    "step" (jump at mid-depth), "cosine" (slow start, fast finish).  A
    single-layer schedule uses f_end.
    """
    if depth < 0:
        raise ConfigurationError(f"depth must be >= 0, got {depth}")
    for name, f in (("f_start", f_start), ("f_end", f_end)):
        if not 0.0 <= f <= 1.0:
            raise ConfigurationError(f"{name}={f} outside [0, 1]")
    if f_start > f_end:
        raise ConfigurationError(f"f_start {f_start} > f_end {f_end}; progressive coverage must not shrink")
    if mode not in ("linear", "step", "cosine"):
        raise ConfigurationError(f"mode {mode!r} is not one of 'linear', 'step', 'cosine'")

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
    return tuple(widths)
