#!/usr/bin/env python3
"""pswa benchmark: one workload per process, closed loop, outputs checked.

    python3 perfbench/run.py --workload train-split --seed 1 --seconds 30 --trace 0

Workloads (perfbench/README.md says why each exists):

  train-split  default split arm: train_model at batch 16, checkpoint every 5 steps
  train-dense  attention-only twin (fractions 1, window 8x8, so no bridge)
  infer        checkpoint written from the seed, loaded, then no_grad forward calls

A run repeats rounds of [two set-ups, the workload's main operations, one
ddpm_sample, two diagnoses] until --seconds is used up, so every metric is
sampled across the whole run.

--trace 0 prints the end-to-end metrics.  --trace 1 repeats the work with
spans around the package's public functions (spans.py) and prints the
per-layer metrics.  Names and units come from BENCHMARK.json.  The last
stdout line is the result object; the line before it holds the
environment fingerprint and the run details.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

BATCH = 16
CHECKPOINT_EVERY = 5
PERTURB_STD = 0.1  # opens the zero-init gates, so every branch shapes the output
BASELINE_SHARE = 1 / 3  # untraced part of a traced run: the base of trace.overhead_ratio

# Known answers recorded in reference.json.  Reordering float64 arithmetic
# (x*x*x for x**3 in gelu) moves them by under 1e-15; a wrong kernel (one
# GELU constant changed in its fourth digit) moves the forward by 5e-6.
LOSS_RTOL = 1e-9
FORWARD_ATOL = 1e-9  # times max(1, max |reference|)
REF_STEPS = 2
REF_TIMESTEPS = (10, 60)

ARMS = {
    "split": {},
    "dense": {"pcca": {"fractions": [1, 1, 1, 1]}, "model": {"window": [8, 8]}},
}
# workload -> (arm, trains)
WORKLOADS = {"train-split": ("split", True), "train-dense": ("dense", True), "infer": ("split", False)}

# Wrapped spans a workload never reaches.  The traced run asserts that these
# read 0 and that every other wrapped span was called at least once.
NEVER_CALLED = {
    "train-split": {"model.load_checkpoint", "serialize.load_tensor", "op.gather_rows", "op.neg"},
    "train-dense": {
        "model.load_checkpoint", "serialize.load_tensor", "op.gather_rows", "op.neg",
        "block.bridge_branch", "op.depthwise_conv2d", "op.pointwise_conv2d",
    },
    "infer": {
        "model.save_checkpoint", "serialize.dump_tensor", "op.gather_rows", "op.neg", "op.sub", "op.sum_", "op.mean",
        "tape.backward", "diffusion.training_loss", "diffusion.adamw_step", "diffusion.data_batch",
    },
}


@dataclass(frozen=True)
class Sizes:
    setups_per_round: int = 2
    train_calls_per_round: int = 5
    chunk_steps: int = 5  # train steps per train_model call
    forward_groups_per_round: int = 3
    forwards_per_group: int = 10
    min_main_ops: int = 100  # so op_ms_p90 has at least ten operations beyond it
    sample_images: int = 4
    diagnoses_per_round: int = 2
    survey_samples: int = 8
    survey_images: int = 16


FULL = Sizes()
SMOKE = Sizes(setups_per_round=1, train_calls_per_round=1, chunk_steps=2, forward_groups_per_round=1,
              forwards_per_group=3, min_main_ops=1, sample_images=1, diagnoses_per_round=1, survey_samples=4)


@dataclass
class Session:
    cfg: object
    model: object
    dataset: object
    schedule: object


@dataclass
class Measured:
    """What the rounds of one run measured."""

    ops: int = 0  # train steps or forward calls attempted
    flops: int = 0  # metered by count_flops
    latencies_ms: list = field(default_factory=list)  # per train step or forward call
    images_per_s: list = field(default_factory=list)  # per train_model call or group of forwards
    losses: list = field(default_factory=list)  # of the first train_model call
    setup_s: list = field(default_factory=list)
    sample_images_per_s: list = field(default_factory=list)
    diagnose_s: list = field(default_factory=list)
    samples: int = 0  # ddpm_sample calls
    diagnoses: int = 0


class Checks:
    """Counts failed operations and says why, instead of aborting."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes: list = []

    def op(self, ok: bool, what: str, count: int = 1) -> bool:
        self.attempted += count
        if not ok:
            self.failed += count
            self.notes.append(what)
        return ok

    def crash(self, what: str, count: int = 1) -> None:
        traceback.print_exc(file=sys.stderr)
        self.op(False, f"{what} raised {sys.exc_info()[1]!r}", count)

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.correct = False
            self.notes.append(what)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def _pswa_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "pswa" or n.startswith("pswa.")}


def set_up(pswa, arm: str, seed: int, ckpt, tracer=None) -> Session:
    """What a user pays before the first step: config, model or checkpoint, data, schedule."""
    with tracer.span("config.build") if tracer else contextlib.nullcontext():
        cfg = pswa.RunConfig.from_dict({**ARMS[arm], "seed": seed})
        pswa.set_default_dtype(cfg.precision)
        model_cfg = cfg.build_model_config()
        schedule = cfg.build_noise_schedule()
    rng = pswa.Rng(seed)
    if ckpt is None:
        model = pswa.ToyDiT(model_cfg, rng)
    else:
        _, model, _ = pswa.load_checkpoint(ckpt)
    dataset = cfg.build_dataset(rng.split("data"))
    return Session(cfg, model, dataset, schedule)


def timed_set_up(arm: str, seed: int, ckpt) -> float:
    """Seconds to import pswa afresh (numpy stays loaded) and set up.

    The fresh modules are thrown away afterwards, so the run keeps using
    (and the traced run keeps wrapping) the modules it started with.
    """
    kept = _pswa_modules()
    for name in kept:
        del sys.modules[name]
    try:
        start = time.perf_counter()
        set_up(importlib.import_module("pswa"), arm, seed, ckpt)
        return time.perf_counter() - start
    finally:
        for name in _pswa_modules():
            del sys.modules[name]
        sys.modules.update(kept)


def perturbed_model(pswa, arm: str, seed: int):
    """The arm's model at ``seed`` with every parameter moved by N(0, PERTURB_STD)."""
    cfg = pswa.RunConfig.from_dict({**ARMS[arm], "seed": seed})
    model = pswa.ToyDiT(cfg.build_model_config(), pswa.Rng(seed))
    noise = pswa.Rng(seed).split("perturb")
    model.load_state(
        {n: p.data + noise.split(n).normal(p.shape, std=PERTURB_STD) for n, p in model.named_parameters().items()}
    )
    return model


# ---------------------------------------------------------------------------
# known answers recorded at the reference commit
# ---------------------------------------------------------------------------

def reference_values(pswa, workload: str, work: Path) -> dict:
    """Seed-0 answers: REF_STEPS training losses and one fixed-input forward."""
    arm, trains = WORKLOADS[workload]
    cfg = pswa.RunConfig.from_dict({**ARMS[arm], "seed": 0})
    pswa.set_default_dtype(cfg.precision)
    model = perturbed_model(pswa, arm, 0)
    dataset = cfg.build_dataset(pswa.Rng(0).split("data"))
    schedule = cfg.build_noise_schedule()
    losses = []
    if trains:
        losses = pswa.train_model(model, dataset, schedule, pswa.Rng(0), steps=REF_STEPS, batch_size=BATCH).losses
    else:
        pswa.save_checkpoint(work / "reference-ckpt", model, 0, pswa.Rng(0))
        _, model, _ = pswa.load_checkpoint(work / "reference-ckpt")
    t = np.array(REF_TIMESTEPS, dtype=np.int64)
    images = dataset.images[: len(t)]
    x = pswa.q_sample(images, t, pswa.Rng(0).split("reference-noise").normal(images.shape), schedule)
    with pswa.no_grad():
        out = model.forward(pswa.Tensor(x), t).data
    return {"losses": [float(v) for v in losses], "forward": [float(v) for v in out.ravel()]}


def reference_check(pswa, workload: str, work: Path, checks: Checks) -> None:
    ref = json.loads((HERE / "reference.json").read_text())[workload]
    try:
        got = reference_values(pswa, workload, work)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        checks.require(False, f"reference run raised {sys.exc_info()[1]!r}")
        return
    checks.require(
        len(got["losses"]) == len(ref["losses"])
        and all(abs(a - b) <= LOSS_RTOL * abs(b) for a, b in zip(got["losses"], ref["losses"])),
        f"reference losses {got['losses']} != {ref['losses']}",
    )
    a, b = np.asarray(got["forward"]), np.asarray(ref["forward"])
    err = float(np.max(np.abs(a - b))) if a.shape == b.shape else math.inf
    checks.require(err <= FORWARD_ATOL * max(1.0, float(np.max(np.abs(b)))), f"reference forward off by {err}")


# ---------------------------------------------------------------------------
# the operations, each checked; a failure is counted, not raised
# ---------------------------------------------------------------------------

def step_latencies(metrics_csv: Path) -> list:
    """Per-step wall time from the elapsed_ms column train_model writes."""
    with open(metrics_csv, newline="") as fh:
        elapsed = [float(row["elapsed_ms"]) for row in csv.DictReader(fh)]
    return [b - a for a, b in zip([0.0] + elapsed, elapsed)]


def train_call(pswa, s: Session, seed: int, steps: int, out: Path, m: Measured, checks: Checks) -> None:
    """One train_model call of ``steps`` steps, checkpointing every CHECKPOINT_EVERY."""
    rng = pswa.Rng(seed).split(f"train-{m.ops}")
    m.ops += steps
    closed_form = steps * BATCH * pswa.flops_report(s.model.cfg).total_flops
    start = time.perf_counter()
    try:
        with pswa.numerics.flops.count_flops() as meter:
            result = pswa.train_model(
                s.model, s.dataset, s.schedule, rng, steps=steps, batch_size=BATCH,
                out_dir=out, checkpoint_every=CHECKPOINT_EVERY,
            )
    except Exception:
        checks.crash("train_model", steps)
        return
    elapsed = time.perf_counter() - start
    m.flops += meter.total
    losses = result.losses
    m.losses = m.losses or losses
    ok = len(losses) == steps and all(math.isfinite(v) for v in losses) and meter.total == closed_form
    if checks.op(ok, f"train_model: losses {losses}, metered {meter.total} FLOPs, closed form {closed_form}", steps):
        m.images_per_s.append(steps * BATCH / elapsed)
        m.latencies_ms += step_latencies(out / "metrics.csv")


def forward_inputs(pswa, s: Session, seed: int) -> list:
    """Eight noised batches at random timesteps, cycled by the forward calls."""
    cfg = s.model.cfg
    rng = pswa.Rng(seed).split("forward-inputs")
    inputs = []
    for k in range(8):
        g = rng.split(k)
        idx = g.integers(0, s.dataset.size, (BATCH,))
        t = g.integers(0, s.schedule.timesteps, (BATCH,))
        noise = g.normal((BATCH, cfg.image_channels, cfg.image_h, cfg.image_w))
        inputs.append((pswa.Tensor(pswa.q_sample(s.dataset.images[idx], t, noise, s.schedule)), t))
    return inputs


def forward_group(pswa, s: Session, inputs: list, count: int, m: Measured, checks: Checks, tracer=None) -> None:
    """``count`` no_grad forward calls at batch BATCH, back to back."""
    closed_form = BATCH * pswa.flops_report(s.model.cfg).total_flops
    group_start = time.perf_counter()
    done = 0
    for _ in range(count):
        x, t = inputs[m.ops % len(inputs)]
        if tracer:
            tracer.step = m.ops
        m.ops += 1
        start = time.perf_counter()
        try:
            with pswa.no_grad(), pswa.numerics.flops.count_flops() as meter:
                out = s.model.forward(x, t)
        except Exception:
            checks.crash("forward")
            continue
        elapsed = time.perf_counter() - start
        m.flops += meter.total
        ok = out.shape == x.shape and bool(np.isfinite(out.data).all()) and meter.total == closed_form
        if checks.op(ok, f"forward: non-finite output or metered {meter.total} != {closed_form} FLOPs"):
            m.latencies_ms.append(elapsed * 1e3)
            done += 1
    m.images_per_s.append(done * BATCH / (time.perf_counter() - group_start))


def sample_once(pswa, s: Session, seed: int, sizes: Sizes, m: Measured, checks: Checks) -> None:
    """One ddpm_sample of ``sizes.sample_images`` images over every timestep."""
    cfg = s.model.cfg
    shape = (sizes.sample_images, cfg.image_channels, cfg.image_h, cfg.image_w)
    m.samples += 1
    start = time.perf_counter()
    try:
        x = pswa.ddpm_sample(s.model, s.schedule, shape, pswa.Rng(seed).split(f"sample-{m.samples}"))
    except Exception:
        checks.crash("ddpm_sample")
        return
    elapsed = time.perf_counter() - start
    if checks.op(x.shape == shape and bool(np.isfinite(x).all()), "ddpm_sample: non-finite or misshapen samples"):
        m.sample_images_per_s.append(sizes.sample_images / elapsed)


def survey_ok(model, records, samples: int) -> bool:
    """Distances are finite and inside their window: d_row <= wh - 1, d_col <= ww - 1."""
    if len(records) != samples:
        return False
    for r in records:
        spec = model.layer_configs[r.layer].window_spec
        if not (0.0 <= r.d_row <= spec.window_h - 1 + 1e-12 and 0.0 <= r.d_col <= spec.window_w - 1 + 1e-12):
            return False
    return True


def diagnose_once(pswa, s: Session, seed: int, sizes: Sizes, m: Measured, checks: Checks) -> None:
    """distance_survey, then feature_spectrum and hf_band_fraction of every block.

    The survey's pick stream is fixed, so every diagnose forwards the same
    number of distinct timesteps; the images come from the workload seed.
    """
    m.diagnoses += 1
    rng = pswa.Rng(seed).split(f"diagnose-{m.diagnoses}")
    images = s.dataset.images[rng.split("images").integers(0, s.dataset.size, (sizes.survey_images,))]
    t = np.full(len(images), s.schedule.timesteps // 2, dtype=np.int64)
    noisy = pswa.Tensor(pswa.q_sample(images, t, rng.split("noise").normal(images.shape), s.schedule))
    start = time.perf_counter()
    try:
        records = pswa.distance_survey(s.model, images, s.schedule, pswa.Rng(0).split("survey"), sizes.survey_samples)
        tokens: list = []
        with pswa.no_grad():
            s.model.forward(noisy, t, collect_tokens=tokens)
        hf = [pswa.hf_band_fraction(pswa.feature_spectrum(block)[1]) for block in tokens]
    except Exception:
        checks.crash("diagnose")
        return
    elapsed = time.perf_counter() - start
    ok = survey_ok(s.model, records, sizes.survey_samples) and len(hf) == s.model.cfg.depth
    if checks.op(ok and all(0.0 < v < 1.0 for v in hf), f"diagnose: bad survey or spectra (hf {hf})"):
        m.diagnose_s.append(elapsed)


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

def measure(pswa, workload: str, s: Session, seed: int, seconds: float, sizes: Sizes, work: Path,
            checks: Checks, ckpt=None, tails: bool = True, tracer=None) -> Measured:
    """Rounds of [set-ups, main operations, one sample, diagnoses] until ``seconds``.

    Spreading every kind of operation over the whole run means each metric
    sees the same mix of fast and slow stretches of the shared machine.  A
    round starts only if it should end inside ``seconds`` (or while the main
    loop still has fewer than ``sizes.min_main_ops`` operations).
    """
    arm, trains = WORKLOADS[workload]
    m = Measured()
    inputs = None if trains else forward_inputs(pswa, s, seed)

    def phase(name):
        if tracer:
            tracer.set_phase(name)

    deadline = time.perf_counter() + seconds
    last = 0.0
    while m.ops < sizes.min_main_ops or time.perf_counter() + last <= deadline:
        round_start = time.perf_counter()
        if tails and tracer is None:
            m.setup_s += [timed_set_up(arm, seed, ckpt) for _ in range(sizes.setups_per_round)]
        phase("main")
        if trains:
            for _ in range(sizes.train_calls_per_round):
                train_call(pswa, s, seed, sizes.chunk_steps, work / "train", m, checks)
        else:
            for _ in range(sizes.forward_groups_per_round):
                forward_group(pswa, s, inputs, sizes.forwards_per_group, m, checks, tracer)
        if tails:
            phase("sample")
            sample_once(pswa, s, seed, sizes, m, checks)
            phase("diagnose")
            for _ in range(sizes.diagnoses_per_round):
                diagnose_once(pswa, s, seed, sizes, m, checks)
        last = time.perf_counter() - round_start
    return m


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _ratio(a, b) -> float:
    return a / b if b else 0.0


def _percentile(values, q) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def end_to_end(m: Measured, checks: Checks) -> dict:
    """Best-of for throughput and diagnose time, p90 for latency, median for set-up.

    See README.md: the shared machine alternates between a fast and a ~1.7x
    slower speed for seconds at a time, so per-run medians of short
    operations land in either mode; the best round and the p90 do not.
    """
    return {
        "setup_s": statistics.median(m.setup_s) if m.setup_s else 0.0,
        "images_per_s": max(m.images_per_s, default=0.0),
        "op_ms_p90": _percentile(m.latencies_ms, 90),
        "sample_images_per_s": max(m.sample_images_per_s, default=0.0),
        "diagnose_s": min(m.diagnose_s, default=0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": _ratio(checks.attempted - checks.failed, checks.attempted),
    }


def per_layer(pswa, sm: spans.Summary, s: Session, m: Measured, base: Measured, trains: bool) -> dict:
    """Per-layer metrics of a traced run.

    Step-scoped values are per main operation (train step or forward call),
    serialize and checkpoint values per checkpoint, set-up values per
    set-up, sample values per denoising step, diagnostics values per
    diagnose.
    """
    main, n, d = "main", m.ops, m.diagnoses
    report = pswa.flops_report(s.model.cfg)
    ops = [f"op.{op}" for op in spans.OPS]
    kernels = ["op.matmul", "op.depthwise_conv2d", "op.pointwise_conv2d"]
    wa, pm = "attention.window_attention", ["attention.window_partition", "attention.window_merge"]
    pf, bb, bf = "block.pswa_forward", "block.bridge_branch", "model.block_forward"
    saves, loads = sm.count("model.save_checkpoint"), sm.count("model.load_checkpoint")
    metrics = {
        "numerics.ops.calls": sm.count(ops, main) / n,
        "numerics.ops.graph_nodes": sm.info(ops, main) / n,
        "numerics.ops.fwd_self_ms": sm.self_ms(ops, main) / n,
        "numerics.tape.bwd_ms": sm.ms("tape.backward", main) / n,
        "numerics.tape.self_ms": sm.self_ms("tape.backward", main) / n,
    }
    for group in dict.fromkeys(spans.OP_GROUPS.values()):
        members = [op for op, g in spans.OP_GROUPS.items() if g == group]
        names = [f"op.{op}" for op in members]
        metrics[f"numerics.op.{group}.fwd_ms"] = sm.self_ms(names, main) / n
        metrics[f"numerics.op.{group}.bwd_ms"] = sm.vjp_ms(main, ops=members) / n
        metrics[f"numerics.op.{group}.calls"] = sm.count(names, main) / n
    metrics.update({
        "numerics.flops": m.flops / n,
        "numerics.gflop_s": _ratio(m.flops, sm.self_ms(kernels, main) * 1e6),
        "numerics.serialize.dump_ms": _ratio(sm.ms("serialize.dump_tensor"), saves),
        "numerics.serialize.load_ms": _ratio(sm.ms("serialize.load_tensor"), loads),
        "numerics.serialize.bytes": _ratio(sm.info(["serialize.dump_tensor", "serialize.load_tensor"]), saves + loads),
        "attention.window_attention.fwd_ms": sm.ms(wa, main) / n,
        "attention.window_attention.bwd_ms": sm.vjp_ms(main, within=(wa,)) / n,
        "attention.window_attention.calls": sm.count(wa, main) / n,
        "attention.partition_merge.fwd_ms": sm.ms(pm, main) / n,
        "attention.partition_merge.bwd_ms": sum(sm.vjp_ms(main, within=(p,)) for p in pm) / n,
        "attention.window_pairs.flops": BATCH * sum(r.flops for r in report.rows if r.component.endswith(".window_pairs")),
        "attention.gflop_s": _ratio(sm.metered(main, wa), sm.ms(wa, main) * 1e6),
        "block.pswa_forward.fwd_ms": sm.ms(pf, main) / n,
        "block.pswa_forward.bwd_ms": sm.vjp_ms(main, within=(pf,)) / n,
        "block.bridge_branch.fwd_ms": sm.ms(bb, main) / n,
        "block.bridge_branch.bwd_ms": sm.vjp_ms(main, within=(bb,)) / n,
        "block.bridge_branch.calls": sm.count(bb, main) / n,
        "block.bridge.flops": sm.metered(main, bb) / n,
        "model.forward.fwd_ms": sm.ms("model.forward", main) / n,
        "model.block_forward.self_fwd_ms": (sm.ms(bf, main) - sm.ms(pf, main)) / n,
        "model.block_forward.self_bwd_ms": sm.vjp_ms(main, within=(bf,), outside=(pf,)) / n,
        "model.condition.fwd_ms": sm.ms("model.condition", main) / n,
        "model.io.fwd_ms": sm.ms(["model.patchify", "model.unpatchify"], main) / n,
        "model.checkpoint.save_ms": _ratio(sm.ms("model.save_checkpoint"), saves),
        "model.checkpoint.load_ms": _ratio(sm.ms("model.load_checkpoint"), loads),
        "diffusion.train_step_ms.p50": _percentile(m.latencies_ms, 50) if trains else 0.0,
        "diffusion.train_step_ms.p90": _percentile(m.latencies_ms, 90) if trains else 0.0,
        "diffusion.training_loss.ms": sm.ms("diffusion.training_loss", main) / n,
        "diffusion.adamw.step_ms": sm.ms("diffusion.adamw_step", main) / n,
        "diffusion.data.batch_ms": sm.ms("diffusion.data_batch", main) / n,
        "diffusion.dataset.build_ms": _ratio(sm.ms("diffusion.dataset_build", "setup"),
                                             sm.count("diffusion.dataset_build", "setup")),
        "diffusion.sample.self_ms": _ratio(sm.ms("diffusion.ddpm_sample", "sample") - sm.ms("model.forward", "sample"),
                                           s.schedule.timesteps * sm.count("diffusion.ddpm_sample", "sample")),
        "diagnostics.distance_survey.self_ms": _ratio(sm.self_ms("diagnostics.distance_survey", "diagnose"), d),
        "diagnostics.survey.forwards": _ratio(sm.children("model.forward", "diagnostics.distance_survey"), d),
        "diagnostics.attention_distance.calls": _ratio(sm.count("diagnostics.attention_distance", "diagnose"), d),
        "diagnostics.attention_distance.ms": _ratio(sm.ms("diagnostics.attention_distance", "diagnose"), d),
        "diagnostics.feature_spectrum.ms": _ratio(sm.ms("diagnostics.feature_spectrum", "diagnose"), d),
        "config.build_ms": _ratio(sm.ms("config.build", "setup"), sm.count("config.build", "setup")),
        "trace.overhead_ratio": _ratio(min(m.latencies_ms, default=0.0), min(base.latencies_ms, default=0.0)),
    })
    return metrics


def self_check(pswa, sm: spans.Summary, workload: str, s: Session, m: Measured, checks: Checks) -> None:
    """The traced run's own assertions: coverage, zero counts, FLOP equalities, self times."""
    never = NEVER_CALLED[workload]
    for name in spans.WRAPPED:
        calls = sm.count(name)
        if name in never:
            checks.require(calls == 0, f"{name} called {calls} times on {workload}")
        else:
            checks.require(calls > 0, f"{name} never called on {workload}: a binding escaped the wrapper")
    if not WORKLOADS[workload][1]:
        checks.require(sm.vjp_count("main") == 0, "backward ran on a read-only workload")
    rows = pswa.flops_report(s.model.cfg).rows

    def closed(*suffixes):
        return m.ops * BATCH * sum(r.flops for r in rows if r.component.endswith(suffixes))

    checks.require(sm.metered("main") == m.flops, "spans and count_flops disagree on metered FLOPs")
    checks.require(sm.metered("main", "attention.window_attention") == closed(".projection", ".window_pairs"),
                   "window_attention FLOPs != closed form")
    checks.require(sm.metered("main", "block.bridge_branch") == closed(".bridge_depthwise", ".bridge_pointwise"),
                   "bridge_branch FLOPs != closed form")
    checks.require(sm.min_self_ns() >= 0, "a span has negative self time")


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(pswa, s: Session) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "precision": s.cfg.precision,
        "debug_checks": pswa.numerics.debug_checks_enabled(),
        "commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes, work: Path):
    """Returns (metrics, checks, details)."""
    arm, trains = WORKLOADS[workload]
    checks = Checks()
    pswa = importlib.import_module("pswa")
    ckpt = None
    if not trains:
        ckpt = work / "infer-ckpt"
        pswa.save_checkpoint(ckpt, perturbed_model(pswa, arm, seed), 0, pswa.Rng(seed))
    s = set_up(pswa, arm, seed, ckpt)
    reference_check(pswa, workload, work, checks)
    if not trace:
        m = first = measure(pswa, workload, s, seed, seconds, sizes, work, checks, ckpt)
        metrics = end_to_end(m, checks)
    else:
        base = first = measure(pswa, workload, s, seed, seconds * BASELINE_SHARE, sizes, work, checks, tails=False)
        tracer = spans.Tracer(step_marker="diffusion.data_batch" if trains else None)
        tracer.install()
        try:
            tracer.set_phase("setup")
            set_up(pswa, arm, seed, ckpt, tracer)
            m = measure(pswa, workload, s, seed, seconds, sizes, work, checks, tracer=tracer)
        finally:
            tracer.uninstall()
        out = HERE / "_out"
        out.mkdir(exist_ok=True)
        tracer.dump(out / f"spans-{workload}.json")
        sm = spans.Summary(tracer)
        metrics = per_layer(pswa, sm, s, m, base, trains)
        self_check(pswa, sm, workload, s, m, checks)
    details = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "env": fingerprint(pswa, s),
        "operations": {"main": m.ops, "samples": m.samples, "diagnoses": m.diagnoses, "setups": len(m.setup_s)},
        "first_losses": [repr(v) for v in first.losses],
        "notes": checks.notes[:20],
    }
    return metrics, checks, details


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="a few small operations per phase (self-tests)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pswa" / "__init__.py").is_file():
        print(f"error: the pswa sources are not at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        metrics, checks, details = run(
            args.workload, args.seed, args.seconds, bool(args.trace), SMOKE if args.smoke else FULL, work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    names = [m["name"] for m in wanted]
    if set(names) != set(metrics):
        print(f"error: metrics {sorted(set(metrics) ^ set(names))} differ from BENCHMARK.json", file=sys.stderr)
        return 2
    print(json.dumps(details))
    print(json.dumps({
        "correct": checks.correct and checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
