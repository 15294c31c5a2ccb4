"""Denoising-diffusion training harness at desk scale.

The pieces are the standard DDPM ones: a linear beta schedule, the
closed-form forward corruption q(x_t | x_0), an epsilon-prediction MSE
loss, ancestral sampling, and AdamW with decoupled weight decay.  The
model under training predicts noise; nothing here cares how it mixes
tokens internally.

Determinism contract: given the same seed, config, and step count, the
float64 path reproduces batches, timesteps, noise, parameter updates,
and therefore the loss column of the metrics CSV bit for bit.  Only the
elapsed-time column is wall-clock and excluded from that promise.
"""

from __future__ import annotations

import contextlib
import csv
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigurationError, DimensionError, NumericsError
from .model import ToyDiT, check_timesteps, save_checkpoint
from .numerics import Rng, Tensor, debug_checks_enabled, default_dtype, no_grad, ops, set_debug_checks


class NoiseSchedule:
    """Beta schedule plus the derived alpha / alpha-bar tables."""

    def __init__(self, betas):
        betas = np.asarray(betas, dtype=np.float64)
        if betas.ndim != 1 or betas.size < 1:
            raise ConfigurationError(f"betas must be a non-empty 1-D array, got shape {betas.shape}")
        if not ((betas > 0.0) & (betas < 1.0)).all():
            raise ConfigurationError("every beta must lie strictly inside (0, 1)")
        self.betas = betas
        self.alphas = 1.0 - betas
        self.alpha_bars = np.cumprod(self.alphas)
        if not (np.diff(self.alpha_bars) < 0).all() or self.alpha_bars[0] >= 1.0:
            raise ConfigurationError("alpha-bar must be strictly decreasing and below 1")

    @property
    def timesteps(self) -> int:
        return int(self.betas.size)

    @classmethod
    def linear(cls, timesteps: int = 100, beta_start: float = 1e-4, beta_end: float = 2e-2) -> "NoiseSchedule":
        if timesteps < 1:
            raise ConfigurationError(f"timesteps must be >= 1, got {timesteps}")
        return cls(np.linspace(beta_start, beta_end, timesteps))


def q_sample(x0: np.ndarray, t, noise: np.ndarray, schedule: NoiseSchedule) -> np.ndarray:
    """Corrupt clean images to their timestep-t marginal:
    sqrt(abar_t) * x0 + sqrt(1 - abar_t) * noise, per-sample t."""
    x0 = np.asarray(x0, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    if x0.shape != noise.shape:
        raise DimensionError(f"x0 {x0.shape} and noise {noise.shape} differ")
    tt = check_timesteps(t, x0.shape[0], schedule.timesteps)
    abar = schedule.alpha_bars[tt].reshape(-1, *([1] * (x0.ndim - 1)))
    return np.sqrt(abar) * x0 + np.sqrt(1.0 - abar) * noise


# ---------------------------------------------------------------------------
# toy data
# ---------------------------------------------------------------------------

class ToyDataset:
    """Procedural images with hard edges, pixel values in [-1, 1].

    Four families: vertical stripes, horizontal stripes, checkerboards,
    and axis-aligned rectangles on a flat background.  Everything is
    drawn from a named stream of ``rng`` (default ``Rng(0)``), so an
    (rng, size, shape) triple pins the dataset exactly.
    """

    def __init__(self, height: int = 16, width: int = 16, channels: int = 1, size: int = 256, rng: Optional[Rng] = None):
        if height < 2 or width < 2 or channels < 1 or size < 1:
            raise ConfigurationError("dataset needs height/width >= 2, channels >= 1, size >= 1")
        self.height, self.width, self.channels, self.size = height, width, channels, size
        rng = rng if rng is not None else Rng(0)
        gen = rng.split("toy-dataset")
        images = np.empty((size, channels, height, width), dtype=np.float64)
        grid = np.mgrid[0:height, 0:width]
        for i in range(size):
            g = gen.split(i)
            for c in range(channels):
                images[i, c] = self._draw(g.split(c), *grid)
        self.images = images

    def _draw(self, g: Rng, rr: np.ndarray, cc: np.ndarray) -> np.ndarray:
        """One image; rr and cc hold each pixel's row and column."""
        h, w = self.height, self.width
        kind = int(g.integers(0, 4))
        amp = float(g.uniform(low=0.5, high=1.0))
        sign = 1.0 if int(g.integers(0, 2)) else -1.0
        if kind < 2:  # stripes: vertical (they vary along columns) for kind 0, horizontal for kind 1
            period = (2, 4)[int(g.integers(0, 2))]
            phase = int(g.integers(0, period))
            img = np.where((((cc, rr)[kind] + phase) // (period // 2)) % 2 == 0, amp, -amp)
        elif kind == 2:  # checkerboard
            cell = (1, 2)[int(g.integers(0, 2))]
            img = np.where(((rr // cell) + (cc // cell)) % 2 == 0, amp, -amp)
        else:  # rectangles on a flat background
            img = np.full((h, w), float(g.uniform(low=-1.0, high=-0.2)))
            for _ in range(int(g.integers(1, 4))):
                r0 = int(g.integers(0, h - 1))
                c0 = int(g.integers(0, w - 1))
                r1 = int(g.integers(r0 + 1, h + 1))
                c1 = int(g.integers(c0 + 1, w + 1))
                img[r0:r1, c0:c1] = float(g.uniform(low=0.2, high=1.0))
        return sign * img

    def batch(self, rng: Rng, n: int) -> np.ndarray:
        idx = rng.integers(0, self.size, (n,))
        return self.images[idx].copy()


# ---------------------------------------------------------------------------
# loss and sampling
# ---------------------------------------------------------------------------

def training_loss(model: ToyDiT, batch: np.ndarray, schedule: NoiseSchedule, rng: Rng, labels=None) -> Tensor:
    """Epsilon-prediction MSE at uniformly drawn per-sample timesteps."""
    batch = np.asarray(batch, dtype=np.float64)
    b = batch.shape[0]
    t = rng.integers(0, schedule.timesteps, (b,))
    noise = rng.normal(batch.shape)
    x_t = q_sample(batch, t, noise, schedule)
    eps_hat = model.forward(Tensor(x_t), t, labels)
    diff = ops.sub(eps_hat, Tensor(noise))
    return ops.mean(ops.mul(diff, diff))


def ddpm_sample(model: ToyDiT, schedule: NoiseSchedule, shape, rng: Rng, labels=None) -> np.ndarray:
    """Ancestral sampling from pure noise down to t = 0.

    Deterministic given (rng stream, parameters): one draw for the
    initial state, then one per strictly-positive timestep.  A non-finite
    state after a step replays that step's forward with per-op checks on,
    so the NumericsError names the first non-finite op.  The noise
    draws and the update arithmetic run in the default dtype, so an f32
    run samples in f32.  The schedule coefficients are Python floats:
    NumPy scalars of float64 would promote f32 arrays to float64.
    """
    if model.cfg.max_timesteps < schedule.timesteps:
        raise ConfigurationError(
            f"model embeds timesteps < {model.cfg.max_timesteps}, schedule has {schedule.timesteps}"
        )
    dtype = default_dtype()
    x = rng.normal(shape).astype(dtype, copy=False)
    with no_grad():
        for t in range(schedule.timesteps - 1, -1, -1):
            x_t, tt = x, np.full(shape[0], t, dtype=np.int64)
            eps = model.forward(Tensor(x_t), tt, labels).data
            alpha, abar, beta = float(schedule.alphas[t]), float(schedule.alpha_bars[t]), float(schedule.betas[t])
            mean = (x - beta / math.sqrt(1.0 - abar) * eps) / math.sqrt(alpha)
            if t > 0:
                var = beta * (1.0 - float(schedule.alpha_bars[t - 1])) / (1.0 - abar)
                x = mean + math.sqrt(var) * rng.normal(shape).astype(dtype, copy=False)
            else:
                x = mean
            if not np.all(np.isfinite(x)):
                with _op_checks():
                    model.forward(Tensor(x_t), tt, labels)
                raise NumericsError(f"ddpm_sample: non-finite state at timestep {t}, though no op was non-finite")
    return x


@contextlib.contextmanager
def _op_checks():
    """Per-op finite checks on inside the block: the replay of a failed step."""
    prev = debug_checks_enabled()
    set_debug_checks(True)
    try:
        yield
    finally:
        set_debug_checks(prev)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

class AdamW:
    """Adam with decoupled weight decay."""

    def __init__(self, params: dict, lr: float = 1e-4, betas=(0.9, 0.999), eps: float = 1e-8, weight_decay: float = 0.0):
        if lr <= 0:
            raise ConfigurationError(f"lr must be positive, got {lr}")
        self.params = dict(params)
        self.lr = float(lr)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.t = 0
        self._m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self._v = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * p.data
            p.assign_(p.data - self.lr * update)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    steps: int
    losses: list
    metrics_path: Optional[Path]
    checkpoint_dir: Optional[Path]

    @property
    def final_loss(self) -> float:
        return self.losses[-1]


def train_model(
    model: ToyDiT,
    dataset: ToyDataset,
    schedule: NoiseSchedule,
    rng: Rng,
    steps: int,
    lr: float = 1e-4,
    weight_decay: float = 0.0,
    batch_size: int = 16,
    out_dir=None,
    checkpoint_every: int = 0,
    log_every: int = 0,
    run_config: Optional[dict] = None,
) -> TrainResult:
    """Optimize the model; optionally write metrics.csv and checkpoints.

    The metrics CSV has columns step,loss,lr,elapsed_ms, one row written
    and flushed as each step ends, so an interrupted run keeps the rows
    of its finished steps; all but elapsed_ms are deterministic for a
    fixed seed/config on float64.
    A non-finite loss or leaf gradient stops the step before its update:
    the step is replayed from its saved stream with per-op checks on, so
    the NumericsError names the first non-finite op.  On any
    NumericsError the loop dumps a checkpoint of the offending state to
    <out_dir>/abort and re-raises.
    """
    if steps < 1:
        raise ConfigurationError(f"steps must be >= 1, got {steps}")
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    opt = AdamW(model.named_parameters(), lr=lr, weight_decay=weight_decay)
    stream = rng.split("train")
    losses: list[float] = []
    metrics_path = out_path / "metrics.csv" if out_path is not None else None
    metrics = open(metrics_path, "w", newline="") if metrics_path is not None else None
    writer = csv.writer(metrics) if metrics is not None else None
    start = time.perf_counter()

    step = 0
    try:
        if writer is not None:
            writer.writerow(["step", "loss", "lr", "elapsed_ms"])
        for step in range(1, steps + 1):
            snapshot = stream.state_dict()
            loss = _step_loss(model, dataset, schedule, stream, batch_size)
            value = loss.item()
            opt.zero_grad()
            finite = math.isfinite(value)
            if finite:
                loss.backward()
                finite = all(p.grad is None or np.all(np.isfinite(p.grad)) for p in opt.params.values())
            if not finite:
                stream = Rng.from_state_dict(snapshot)
                opt.zero_grad()
                with _op_checks():
                    _step_loss(model, dataset, schedule, stream, batch_size).backward()
                raise NumericsError(
                    f"loss or gradient became non-finite at step {step} (loss {value}), though no op was non-finite"
                )
            opt.step()
            del loss  # this step's graph, so the next forward does not build its own beside it
            losses.append(value)
            if writer is not None:  # one row per step, flushed, so an interrupted run keeps its finished steps
                writer.writerow([step, repr(float(value)), repr(float(lr)), f"{(time.perf_counter() - start) * 1e3:.3f}"])
                metrics.flush()
            if log_every and step % log_every == 0:
                print(f"step {step:6d}  loss {value:.6f}")
            if out_path is not None and checkpoint_every and step % checkpoint_every == 0:
                save_checkpoint(out_path / f"ckpt-{step:06d}", model, step, stream, extra=run_config)
    except NumericsError:
        if out_path is not None:
            save_checkpoint(out_path / "abort", model, step, stream, extra=run_config)
        raise
    finally:
        if metrics is not None:
            metrics.close()

    ckpt_dir = None
    if out_path is not None:
        ckpt_dir = save_checkpoint(out_path / "ckpt-final", model, steps, stream, extra=run_config)
    return TrainResult(steps=steps, losses=losses, metrics_path=metrics_path, checkpoint_dir=ckpt_dir)


def _step_loss(model: ToyDiT, dataset: ToyDataset, schedule: NoiseSchedule, stream: Rng, batch_size: int) -> Tensor:
    """One step's batch, labels and loss, drawn from ``stream`` in a fixed order."""
    batch = dataset.batch(stream, batch_size)
    labels = stream.integers(0, model.cfg.class_count, (batch_size,)) if model.cfg.class_count else None
    return training_loss(model, batch, schedule, stream, labels)

