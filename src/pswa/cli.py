"""Command-line front end.

    pswa gradcheck      [--module NAME] [--seed N]
    pswa train          [--config PATH] [--seed N] [--out DIR] [--precision P]
    pswa sample         [--config PATH] [--ckpt DIR] [--seed N] [--out DIR] [--count N]
    pswa diag-distance  [--config PATH] [--ckpt DIR] [--seed N] [--out DIR]
    pswa diag-spectrum  [--config PATH] [--ckpt DIR] [--input PSWT] [--seed N] [--out DIR]
    pswa flops          [--config PATH] [--out DIR] [--measured]

Exit codes: 0 success, 1 a numeric check or tolerance failed, 2 bad
usage or configuration.  Commands that write artifacts also write
resolved_config.json into the output directory so every run records
the exact configuration that produced it.  It is written only once the
command has read its inputs (config, checkpoint, tensor file), so a run
refused on its inputs creates no output directory.  With --ckpt but no
--config, the run config comes from the checkpoint: the one `pswa train`
recorded in it, else one fitted to its model's image size and timesteps.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import diagnostics, gradsuite
from .config import RunConfig, ScheduleSection
from .diffusion import ddpm_sample, q_sample, train_model
from .errors import ConfigurationError, NumericsError, PSWAError
from .model import ToyDiT, load_checkpoint, read_manifest
from .numerics import Rng, Tensor, dump_tensor, load_tensor, no_grad, set_default_dtype


def _base_config(args) -> RunConfig:
    """--config; without it, what a --ckpt records: the run config `pswa
    train` saves with it, else one fitted to its model (image size and
    timesteps); without either, the defaults."""
    if args.config:
        return RunConfig.load(args.config)
    if not getattr(args, "ckpt", None):
        return RunConfig()
    manifest, model = read_manifest(args.ckpt)
    if "extra" in manifest:
        return RunConfig.from_dict(manifest["extra"])
    return RunConfig(model=model, schedule=ScheduleSection(timesteps=model.max_timesteps))


def _setup(args) -> tuple[RunConfig, Path]:
    """Load the config and apply the command-line overrides, which pass the
    same checks as the file.  Nothing is written here: each command echoes
    the config with ``write_resolved`` after its inputs are read."""
    cfg = _base_config(args)
    overrides = {k: v for k in ("seed", "precision") if (v := getattr(args, k, None)) is not None}
    cfg = dataclasses.replace(cfg, **overrides)
    if getattr(args, "count", None) is not None:
        cfg = dataclasses.replace(cfg, diagnostics=dataclasses.replace(cfg.diagnostics, sample_count=args.count))
    set_default_dtype(cfg.precision)
    out = Path(args.out) if args.out else Path("runs") / args.command
    return cfg, out


def _model_from(cfg: RunConfig, args) -> tuple:
    """Build (model, rng) fresh from config, or restore from --ckpt."""
    if getattr(args, "ckpt", None):
        _, net, rng = load_checkpoint(args.ckpt)
        return net, rng
    rng = Rng(cfg.seed)
    return ToyDiT(cfg.build_model_config(), rng), rng


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gradcheck(args) -> int:
    try:
        cases = gradsuite.select_cases(args.module)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    seed = args.seed if args.seed is not None else 0
    failures = 0
    for case in cases:
        report = gradsuite.run_case(case, seed)
        status = "ok" if report.ok(case.tol) else "FAIL"
        failures += status == "FAIL"
        print(f"{status:4s} {case.module:9s} {case.name:22s} max_err {report.max_err:.3e} (tol {case.tol:.0e})")
    print(f"{len(cases) - failures}/{len(cases)} gradient checks passed")
    return 1 if failures else 0


def cmd_train(args) -> int:
    cfg, out = _setup(args)
    rng = Rng(cfg.seed)
    net = ToyDiT(cfg.build_model_config(), rng)
    dataset = cfg.build_dataset(rng.split("data"))
    cfg.write_resolved(out)
    result = train_model(
        net,
        dataset,
        cfg.build_noise_schedule(),
        rng,
        steps=cfg.training.steps,
        lr=cfg.training.lr,
        weight_decay=cfg.training.weight_decay,
        batch_size=cfg.training.batch_size,
        out_dir=out,
        checkpoint_every=cfg.training.checkpoint_every,
        log_every=cfg.training.log_every,
        run_config=cfg.resolved(),
    )
    print(f"trained {result.steps} steps; final loss {result.final_loss:.6f}")
    print(f"metrics: {result.metrics_path}")
    print(f"checkpoint: {result.checkpoint_dir}")
    return 0


def cmd_sample(args) -> int:
    cfg, out = _setup(args)
    net, _ = _model_from(cfg, args)
    count = cfg.diagnostics.sample_count
    mc = net.cfg
    shape = (count, mc.image_channels, mc.image_h, mc.image_w)
    labels = None
    rng = Rng(cfg.seed).split("sample")
    if mc.class_count:
        labels = rng.split("labels").integers(0, mc.class_count, (count,))
    samples = ddpm_sample(net, cfg.build_noise_schedule(), shape, rng.split("draws"), labels)
    cfg.write_resolved(out)
    path = out / "samples.pswt"
    dump_tensor(samples, path)
    print(f"wrote {count} samples to {path}")
    return 0


def cmd_diag_distance(args) -> int:
    cfg, out = _setup(args)
    net, _ = _model_from(cfg, args)
    rng = Rng(cfg.seed).split("diag-distance")
    dataset = cfg.build_dataset(rng.split("data"))
    images = dataset.batch(rng.split("batch"), min(cfg.training.batch_size, dataset.size))
    records = diagnostics.distance_survey(
        net, images, cfg.build_noise_schedule(), rng.split("survey"), cfg.diagnostics.survey_samples
    )
    pooled = [r.d_row for r in records] + [r.d_col for r in records]
    hist = diagnostics.distance_histogram(pooled, buckets=cfg.diagnostics.distance_buckets)
    cfg.write_resolved(out)
    path = diagnostics.write_distance_csv(out / "distance_hist.csv", hist)
    print(f"surveyed {len(records)} (layer, head, timestep) triples")
    print(f"mean row distance {np.mean([r.d_row for r in records]):.4f}, "
          f"mean col distance {np.mean([r.d_col for r in records]):.4f}")
    print(f"histogram: {path}")
    return 0


def cmd_diag_spectrum(args) -> int:
    cfg, out = _setup(args)
    if args.input:
        source = f"tensor file {args.input}"
        features = load_tensor(args.input)
        radii, profile = diagnostics.feature_spectrum(features)
    else:
        net, _ = _model_from(cfg, args)
        if not net.cfg.depth:
            raise ConfigurationError("model has no blocks to inspect")
        rng = Rng(cfg.seed).split("diag-spectrum")
        dataset = cfg.build_dataset(rng.split("data"))
        images = dataset.batch(rng.split("batch"), min(cfg.training.batch_size, dataset.size))
        schedule = cfg.build_noise_schedule()
        t = schedule.timesteps // 2
        noisy = q_sample(images, t, rng.split("noise").normal(images.shape), schedule)
        grabbed: list = []
        with no_grad():
            net.forward(Tensor(noisy), np.full(images.shape[0], t, dtype=np.int64), collect_tokens=grabbed)
        layer = net.cfg.depth // 2
        source = f"block {layer} features at t={t}"
        radii, profile = diagnostics.feature_spectrum(grabbed[layer])
    hf = diagnostics.hf_band_fraction(profile)
    cfg.write_resolved(out)
    path = diagnostics.write_spectrum_csv(out / "spectrum.csv", radii, profile)
    print(f"radial spectrum of {source}")
    print(f"high-frequency band fraction (outer half of bins): {hf:.4f}")
    print(f"profile: {path}")
    return 0


def cmd_flops(args) -> int:
    cfg, out = _setup(args)
    model_cfg = cfg.build_model_config()
    report = diagnostics.flops_report(model_cfg)
    cfg.write_resolved(out)
    path = diagnostics.write_flops_csv(out / "flops.csv", report)
    print(f"# {report.conventions}")
    for row in report.rows:
        print(f"{row.component:28s} flops {row.flops:>12d}  params {row.params:>8d}")
    print(f"{'total':28s} flops {report.total_flops:>12d}  params {report.total_params:>8d}")
    print(f"report: {path}")
    if args.measured:
        net = ToyDiT(model_cfg, Rng(cfg.seed))
        measured = diagnostics.measured_flops(net)
        print(f"instrumented forward: {measured} flops")
        if measured != report.total_flops:
            print(f"MISMATCH: closed-form {report.total_flops} != instrumented {measured}", file=sys.stderr)
            return 1
    return 0


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, precision: bool = True):
    p.add_argument("--config", metavar="PATH", help="JSON run config (defaults apply when omitted)")
    p.add_argument("--seed", type=int, metavar="N", help="override the config seed")
    p.add_argument("--out", metavar="DIR", help="output directory (default runs/<command>)")
    if precision:
        p.add_argument("--precision", choices=("f64", "f32"), help="override the config precision")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pswa", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gradcheck", help="finite-difference checks of all recorded gradients")
    p.add_argument("--module", help="restrict to one module (numerics, attention, pswa, model)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("train", help="train the toy denoiser; writes metrics.csv and checkpoints")
    _add_common(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("sample", help="draw images by ancestral sampling")
    _add_common(p)
    p.add_argument("--ckpt", metavar="DIR", help="checkpoint directory to sample from (default: fresh init)")
    p.add_argument("--count", type=int, metavar="N", help="number of samples")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("diag-distance", help="survey attention distances over (layer, head, timestep)")
    _add_common(p)
    p.add_argument("--ckpt", metavar="DIR")
    p.set_defaults(fn=cmd_diag_distance)

    p = sub.add_parser("diag-spectrum", help="radial Fourier profile of mid-network features")
    _add_common(p)
    p.add_argument("--ckpt", metavar="DIR")
    p.add_argument("--input", metavar="PSWT", help="profile a dumped tensor instead of model features")
    p.set_defaults(fn=cmd_diag_spectrum)

    p = sub.add_parser("flops", help="closed-form cost table; --measured cross-checks the counter")
    _add_common(p, precision=False)
    p.add_argument("--measured", action="store_true", help="also run an instrumented forward and compare")
    p.set_defaults(fn=cmd_flops)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1
    except (PSWAError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
