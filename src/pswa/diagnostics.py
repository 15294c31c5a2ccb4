"""Measurement tools: attention distance, Fourier profiles, FLOPs.

These exist to answer the questions the package was built around: how
far does attention actually reach, how much high-frequency content do
feature maps carry, and what does each component cost?  Everything here
is numpy-only and forward-only; nothing records gradients.

Conventions, fixed once and used everywhere:

* Attention distance, per map of a [..., N, N] stack: for a map A over
  N = H*W row-major tokens on a grid of width W, token i sits at row
  i // W, column i - W*(i // W).  The row distance is sum_ij A_ij *
  |row_j - row_i| / sum_ij A_ij, and likewise for columns.  Rows of a
  softmax map each sum to one, so this equals the per-query average; the
  form above also tolerates unnormalized maps.  Negative entries are
  rejected, zero total mass is degenerate.

* Radial spectrum, per [H, W] slice and then averaged over slices:
  fft2 -> fftshift -> log1p(|.|), then the mean of that magnitude over
  16 annular bins of normalized frequency radius.  With fy = (i - H//2)/H
  and fx = (j - W//2)/W the radius sqrt(fy^2 + fx^2) spans [0, sqrt(0.5)];
  bins are equal-width over that range, lower edge inclusive, and the
  Nyquist corner lands in the last bin.  Empty bins report 0.

* FLOPs: one multiply-accumulate = 2 FLOPs; only matmuls and the two
  conv kernels count (softmax, norms, elementwise and gathers are
  free).  Reports cover one full forward pass at batch 1, including the
  patch embedding, timestep MLP, modulation projections, and output
  head, so the closed-form total must equal the instrumented counter
  exactly.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .diffusion import NoiseSchedule, q_sample
from .errors import ConfigurationError, DegenerateMapError, DimensionError, NumericsError
from .model import ToyDiT, ToyDiTConfig
from .numerics import Rng, Tensor, no_grad
from .numerics.flops import count_flops

SPECTRUM_BINS = 16


def _write_csv(path, header, rows, comment=None) -> Path:
    """Write ``rows`` under ``header``, after a ``# comment`` line if one is given."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return path


# ---------------------------------------------------------------------------
# attention distance
# ---------------------------------------------------------------------------

def attention_distance(maps, grid_width: int) -> tuple:
    """Mass-weighted mean (row, col) distance of each [N, N] map in ``maps``.

    ``maps`` is [..., N, N] and ``grid_width`` is the token-grid width the
    flat indices refer to.  Returns (d_row, d_col), each shaped like the
    leading axes of ``maps``: plain floats for a single map.  Every map
    must be finite and non-negative with nonzero mass.
    """
    a = np.asarray(maps.data if isinstance(maps, Tensor) else maps, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"attention maps must be [..., N, N], got {a.shape}")
    n = a.shape[-1]
    if grid_width < 1 or n % grid_width:
        raise ConfigurationError(f"token count {n} not divisible by grid width {grid_width}")
    if not np.isfinite(a).all():
        raise NumericsError("attention map has non-finite entries")
    if (a < 0).any():
        raise DimensionError("attention map has negative entries")
    total = a.sum(axis=(-2, -1))
    if (total <= 0.0).any():
        raise DegenerateMapError("attention map has zero total mass")
    rows = np.arange(n) // grid_width
    cols = np.arange(n) - grid_width * rows
    d_row = (a * np.abs(rows[None, :] - rows[:, None])).sum(axis=(-2, -1)) / total
    d_col = (a * np.abs(cols[None, :] - cols[:, None])).sum(axis=(-2, -1)) / total
    if a.ndim == 2:
        return float(d_row), float(d_col)
    return d_row, d_col


@dataclass(frozen=True)
class SurveyRecord:
    layer: int
    head: int
    timestep: int
    d_row: float
    d_col: float


def distance_survey(model: ToyDiT, images: np.ndarray, schedule: NoiseSchedule, rng: Rng, num_samples: int = 64) -> list:
    """Sample attention distances uniformly over (layer, head, timestep).

    Protocol: draw ``num_samples`` triples uniformly with replacement
    from the product of layers that have a window branch, their heads,
    and schedule timesteps.  For each distinct timestep, in increasing
    order, corrupt the fixed ``images`` batch once (noise from a stream
    named after t) and run one forward pass; each record then averages
    the per-window attention distances of its (layer, head) over every
    window and batch element.  Records come in the order of their draws.
    Everything is pinned by ``rng``, so a seed reproduces the survey
    exactly.
    """
    if num_samples < 1:
        raise ConfigurationError("num_samples must be >= 1")
    eligible = [
        (l, h)
        for l, cfg_l in enumerate(model.layer_configs)
        if cfg_l.window_channels
        for h in range(cfg_l.window_spec.num_heads)
    ]
    if not eligible:
        raise ConfigurationError("no layer has a window branch to survey")
    pick = rng.split("survey-picks")
    triples = [
        (*eligible[int(pick.integers(0, len(eligible)))], int(pick.integers(0, schedule.timesteps)))
        for _ in range(num_samples)
    ]

    records: dict[int, SurveyRecord] = {}
    noise_rng = rng.split("survey-noise")
    for t in sorted({t for (_, _, t) in triples}):
        x_t = q_sample(images, t, noise_rng.split(t).normal(images.shape), schedule)
        records.update(_timestep_records(model, x_t, t, triples))
    return [records[i] for i in range(num_samples)]


def _timestep_records(model: ToyDiT, x_t: np.ndarray, t: int, triples: list) -> dict:
    """One forward of ``x_t`` at timestep t, reduced to the record of each
    triple at t, keyed by its index.  The maps die on return, so a survey
    holds one timestep's maps at a time."""
    maps: list = []
    with no_grad():
        model.forward(Tensor(x_t), np.full(x_t.shape[0], t, dtype=np.int64), collect_maps=maps)
    records = {}
    for i, (layer, head, t_i) in enumerate(triples):
        if t_i == t:
            layer_maps = maps[layer].data  # [B*nW, heads, wn, wn]
            d_row, d_col = attention_distance(layer_maps[:, head], model.layer_configs[layer].window_spec.window_w)
            records[i] = SurveyRecord(layer, head, t, float(d_row.mean()), float(d_col.mean()))
    return records


def distance_histogram(values: Sequence[float], buckets: int = 16) -> list:
    """Equal-width histogram rows (bucket_lo, bucket_hi, count) over [0, max].

    The top edge is inclusive so the maximum lands in the last bucket;
    without a positive maximum the range is [0, 1].
    """
    vals = np.asarray(list(values), dtype=np.float64)
    if buckets < 1:
        raise ConfigurationError("buckets must be >= 1")
    hi = float(vals.max()) if vals.size else 0.0
    edges = np.linspace(0.0, hi if hi > 0.0 else 1.0, buckets + 1)
    idx = np.clip(np.searchsorted(edges, vals, side="right") - 1, 0, buckets - 1)
    counts = np.bincount(idx, minlength=buckets)
    return [(float(edges[k]), float(edges[k + 1]), int(counts[k])) for k in range(buckets)]


def write_distance_csv(path, rows) -> Path:
    return _write_csv(path, ["bucket_lo", "bucket_hi", "count"], [[repr(lo), repr(hi), n] for lo, hi, n in rows])


# ---------------------------------------------------------------------------
# radial spectrum
# ---------------------------------------------------------------------------

def feature_spectrum(features) -> tuple:
    """Radially binned log-magnitude spectrum, averaged over 2-D slices.

    Accepts [H, W], [H, W, C], or [B, H, W, C]; every [H, W] slice is
    profiled independently and the profiles are averaged.  Returns
    (radii [16], profile [16]): bin centers in normalized frequency and
    the mean log1p magnitude per annulus.
    """
    data = np.asarray(features.data if isinstance(features, Tensor) else features, dtype=np.float64)
    if data.ndim == 2:
        data = data[None, :, :, None]
    elif data.ndim == 3:
        data = data[None]
    if data.ndim != 4 or data.size == 0:
        raise DimensionError(f"feature_spectrum expects a non-empty stack of rank 2..4, got {data.shape}")
    if not np.isfinite(data).all():
        raise NumericsError("feature_spectrum input has non-finite values")
    batch, height, width, channels = data.shape
    mag = np.log1p(np.abs(np.fft.fftshift(np.fft.fft2(data, axes=(1, 2)), axes=(1, 2))))
    fy = (np.arange(height) - height // 2) / height
    fx = (np.arange(width) - width // 2) / width
    edges = np.linspace(0.0, np.sqrt(0.5), SPECTRUM_BINS + 1)
    r = np.sqrt(fy[:, None] ** 2 + fx[None, :] ** 2)
    idx = np.clip(np.searchsorted(edges, r, side="right") - 1, 0, SPECTRUM_BINS - 1)
    # one (slice, bin) slot per slice b*C + c; bincount adds each slot's
    # entries in row-major (h, w) order, as a per-slice bincount would
    slices = batch * channels
    slots = idx[None, :, :, None] + SPECTRUM_BINS * np.arange(slices).reshape(batch, 1, 1, channels)
    sums = np.bincount(slots.ravel(), weights=mag.ravel(), minlength=slices * SPECTRUM_BINS)
    sums = sums.reshape(slices, SPECTRUM_BINS)
    counts = np.bincount(idx.ravel(), minlength=SPECTRUM_BINS)
    profiles = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    return 0.5 * (edges[:-1] + edges[1:]), profiles.mean(axis=0)


def hf_band_fraction(profile) -> float:
    """Share of profile mass in the outer half of the SPECTRUM_BINS annuli."""
    outer_bins = SPECTRUM_BINS // 2
    p = np.asarray(profile, dtype=np.float64)
    if p.ndim != 1 or p.size < outer_bins:
        raise DimensionError(f"profile of {p.shape} too short for {outer_bins} outer bins")
    total = p.sum()
    if total <= 0:
        raise DegenerateMapError("spectrum profile has no mass")
    return float(p[-outer_bins:].sum() / total)


def write_spectrum_csv(path, radii, profile) -> Path:
    return _write_csv(path, ["radius", "log_magnitude"], [[repr(float(r)), repr(float(v))] for r, v in zip(radii, profile)])


# ---------------------------------------------------------------------------
# FLOPs accounting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlopsRow:
    component: str
    flops: int
    params: int


@dataclass
class FlopsReport:
    rows: list
    conventions: str

    @property
    def total_flops(self) -> int:
        return sum(r.flops for r in self.rows)

    @property
    def total_params(self) -> int:
        return sum(r.params for r in self.rows)

    def by_component(self) -> dict:
        return {r.component: r for r in self.rows}


_CONVENTIONS = (
    "one forward pass, batch 1; 1 MAC = 2 FLOPs; "
    "matmul and conv kernels only (softmax, norms, elementwise, gathers are free)"
)


def flops_report(cfg: ToyDiTConfig) -> FlopsReport:
    """Closed-form cost model for one batch-1 forward pass.

    Component rows per block: the q/k/v/out projections, the attention
    pair terms (4 * N * w * h_l for w-token windows, the only terms
    quadratic in window size; w = N is dense attention), the bridge
    depthwise and pointwise convs, the MLP, and the per-sample
    modulation projection.  Patch embedding, timestep MLP, and the
    output head are listed separately.  The total equals what the
    instrumented counter reports for the same config.
    """
    n = cfg.tokens
    d = cfg.d_model
    hidden = int(round(d * cfg.mlp_ratio))
    wh, ww = cfg.window
    win_tokens = wh * ww
    k = 2 * cfg.order - 1

    rows = [
        FlopsRow("patch_embed", 2 * n * cfg.patch_dim * d, cfg.patch_dim * d + d),
        FlopsRow("t_embed", 2 * (2 * d * d), 2 * (d * d + d)),
    ]
    if cfg.class_count:
        rows.append(FlopsRow("class_embed", 0, cfg.class_count * d))
    for l, h_l in enumerate(cfg.window_widths):
        c_b = d - h_l
        heads_l = h_l // cfg.head_dim
        bias_params = heads_l * (2 * wh - 1) * (2 * ww - 1)
        rows.append(FlopsRow(f"block{l}.projection", 8 * n * h_l * h_l, 4 * h_l * h_l))
        rows.append(FlopsRow(f"block{l}.window_pairs", 4 * n * win_tokens * h_l, bias_params))
        rows.append(FlopsRow(f"block{l}.bridge_depthwise", 2 * n * k * k * c_b, c_b * k * k))
        rows.append(FlopsRow(f"block{l}.bridge_pointwise", 2 * n * c_b * c_b, c_b * c_b + c_b))
        rows.append(FlopsRow(f"block{l}.mlp", 4 * n * d * hidden, 2 * d * hidden + hidden + d))
        rows.append(FlopsRow(f"block{l}.modulation", 2 * d * 6 * d, 6 * d * d + 6 * d))
    rows.append(FlopsRow("head", 2 * n * d * cfg.patch_dim, d * cfg.patch_dim + cfg.patch_dim))
    return FlopsReport(rows=rows, conventions=_CONVENTIONS)


def measured_flops(model: ToyDiT) -> int:
    """Run one batch-1 forward under the instrumented counter: timestep 0,
    and label 0 if the model is class-conditional."""
    cfg = model.cfg
    x = np.zeros((1, cfg.image_channels, cfg.image_h, cfg.image_w))
    zero = np.zeros(1, dtype=np.int64)
    with no_grad(), count_flops() as counter:
        model.forward(Tensor(x), zero, zero if cfg.class_count else None)
    return counter.total


def write_flops_csv(path, report: FlopsReport) -> Path:
    rows = [[r.component, r.flops, r.params] for r in report.rows] + [["total", report.total_flops, report.total_params]]
    return _write_csv(path, ["component", "flops", "params"], rows, comment=report.conventions)
