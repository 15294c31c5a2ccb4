"""A toy isotropic diffusion transformer over the split-channel blocks.

Pipeline: patchify -> `depth` blocks (pre-norm, conditioned via
scale/shift/gate modulation computed from the timestep embedding)
-> final norm -> linear head -> unpatchify.  The network predicts the
noise added to its input.

Every block keeps the token grid at [B, grid_h, grid_w, d_model]; the
channel split between the window branch and the bridge branch comes
from the coverage schedule, so early and late blocks generally differ.

Initialization: projection weights ~ N(0, 0.02), all biases zero, and
the modulation projections entirely zero, which makes every block the
identity map at step 0.  All draws come from per-parameter named RNG
streams, so two models built from the same seed are bit-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .attention import AttentionParams, WindowSpec
from .block import BridgeParams, PCCASchedule, PSWALayerConfig, coverage_schedule, pswa_forward
from .errors import ConfigurationError, DimensionError, DomainError, UsageError
from .numerics import Rng, Tensor, as_tensor, default_dtype, dump_tensor, load_tensor, ops
from .schema import at_least, check_ranges, inside, read_fields, write_fields


@dataclass
class ToyDiTConfig:
    image_h: int = at_least(1, default=16)
    image_w: int = at_least(1, default=16)
    image_channels: int = at_least(1, default=1)
    patch: int = 2
    d_model: int = 32
    depth: int = at_least(0, default=4)
    num_heads: int = 4
    window: tuple[int, int] = (2, 2)
    order: int = at_least(1, default=2)
    f_start: float = 0.25
    f_end: float = 0.75
    schedule_mode: str = "linear"
    fractions: Optional[tuple[float, ...]] = None  # explicit per-layer override (ablations)
    mlp_ratio: float = inside(0.0, default=4.0)
    class_count: int = at_least(0, default=0)
    max_timesteps: int = at_least(1, default=100)

    def __post_init__(self):
        check_ranges(self)
        if self.patch < 1 or self.image_h % self.patch or self.image_w % self.patch:
            raise ConfigurationError(f"patch {self.patch} must divide image {self.image_h}x{self.image_w}")
        if self.d_model < 1 or self.num_heads < 1 or self.d_model % self.num_heads:
            raise ConfigurationError(f"d_model {self.d_model} not divisible by num_heads {self.num_heads}")
        if self.d_model % 2:
            raise ConfigurationError("d_model must be even for the sinusoidal embedding")
        wh, ww = self.window
        if wh < 1 or ww < 1 or self.grid_h % wh or self.grid_w % ww:
            raise ConfigurationError(
                f"window {wh}x{ww} must divide token grid {self.grid_h}x{self.grid_w}"
            )
        if self.fractions is not None and len(self.fractions) != self.depth:
            raise ConfigurationError(f"fractions has {len(self.fractions)} entries for depth {self.depth}")
        self.build_schedule()  # f_start, f_end, schedule_mode and fractions fail here, not at model build

    @property
    def grid_h(self) -> int:
        return self.image_h // self.patch

    @property
    def grid_w(self) -> int:
        return self.image_w // self.patch

    @property
    def head_dim(self) -> int:
        return self.d_model // self.num_heads

    @property
    def tokens(self) -> int:
        return self.grid_h * self.grid_w

    @property
    def patch_dim(self) -> int:
        return self.image_channels * self.patch * self.patch

    def build_schedule(self) -> Optional[PCCASchedule]:
        if self.depth == 0:
            return None
        if self.fractions is not None:
            return PCCASchedule.from_fractions(self.fractions, self.d_model, self.head_dim)
        return coverage_schedule(
            self.depth, self.f_start, self.f_end, self.d_model, self.head_dim, self.schedule_mode
        )


@dataclass
class BlockParams:
    """The MLP and modulation weights of one block; the mixing stage's
    parameters live in its PSWALayerConfig."""

    mlp_w1: Tensor
    mlp_b1: Tensor
    mlp_w2: Tensor
    mlp_b2: Tensor
    mod_w: Tensor  # [C, 6C]; zero-init so the block starts as identity
    mod_b: Tensor  # [6C]

    def parameters(self) -> dict[str, Tensor]:
        return {
            "mlp.w1": self.mlp_w1,
            "mlp.b1": self.mlp_b1,
            "mlp.w2": self.mlp_w2,
            "mlp.b2": self.mlp_b2,
            "mod.w": self.mod_w,
            "mod.b": self.mod_b,
        }


# ---------------------------------------------------------------------------
# token plumbing
# ---------------------------------------------------------------------------

def patchify(x, patch: int, weight: Tensor, bias: Tensor) -> Tensor:
    """[B, C, H, W] -> [B, H/p, W/p, d]: embed non-overlapping p x p patches."""
    x = as_tensor(x)
    if x.ndim != 4:
        raise DimensionError(f"patchify expects [B, C, H, W], got {x.shape}")
    b, c, h, w = x.shape
    if h % patch or w % patch:
        raise ConfigurationError(f"patch {patch} must divide image {h}x{w}")
    gh, gw = h // patch, w // patch
    t = ops.reshape(x, (b, c, gh, patch, gw, patch))
    t = ops.transpose(t, (0, 2, 4, 1, 3, 5))  # [B, gh, gw, C, p, p]
    flat = ops.reshape(t, (b * gh * gw, c * patch * patch))
    emb = ops.add(ops.matmul(flat, weight), bias)
    return ops.reshape(emb, (b, gh, gw, weight.shape[1]))


def unpatchify(tokens, patch: int, channels: int) -> Tensor:
    """[B, gh, gw, C*p*p] -> [B, C, H, W]: inverse patch arrangement."""
    tokens = as_tensor(tokens)
    if tokens.ndim != 4:
        raise DimensionError(f"unpatchify expects [B, gh, gw, C*p*p], got {tokens.shape}")
    b, gh, gw, dim = tokens.shape
    if dim != channels * patch * patch:
        raise DimensionError(f"last extent {dim} != channels*patch^2 = {channels * patch * patch}")
    t = ops.reshape(tokens, (b, gh, gw, channels, patch, patch))
    t = ops.transpose(t, (0, 3, 1, 4, 2, 5))  # [B, C, gh, p, gw, p]
    return ops.reshape(t, (b, channels, gh * patch, gw * patch))


def sinusoidal_features(t: np.ndarray, dim: int) -> np.ndarray:
    """Classic fixed sin/cos features of (integer) timesteps, [B, dim]."""
    if dim % 2:
        raise ConfigurationError(f"sinusoidal dim must be even, got {dim}")
    t = np.asarray(t, dtype=np.float64).reshape(-1)
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / half)
    args = t[:, None] * freqs[None, :]
    return np.concatenate([np.sin(args), np.cos(args)], axis=1)


@dataclass
class TimeEmbedParams:
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    def parameters(self) -> dict[str, Tensor]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}


def timestep_embedding(t, params: TimeEmbedParams, max_t: int) -> Tensor:
    """Embed integer timesteps: sinusoid -> linear -> SiLU -> linear.

    Valid timesteps are 0 <= t < max_t; anything else is out of domain.
    """
    arr = np.asarray(t)
    if not np.issubdtype(arr.dtype, np.integer):
        raise UsageError(f"timesteps must be integers, got dtype {arr.dtype}")
    arr = arr.reshape(-1)
    if arr.size and (arr.min() < 0 or arr.max() >= max_t):
        raise DomainError(f"timestep outside [0, {max_t}): {arr.min()}..{arr.max()}")
    feats = Tensor(sinusoidal_features(arr, params.w1.shape[0]))
    hidden = ops.silu(ops.add(ops.matmul(feats, params.w1), params.b1))
    return ops.add(ops.matmul(hidden, params.w2), params.b2)


# ---------------------------------------------------------------------------
# one block
# ---------------------------------------------------------------------------

def _modulate(x: Tensor, shift: Tensor, scl: Tensor) -> Tensor:
    return ops.add(ops.mul(x, ops.add(scl, 1.0)), shift)


def block_forward(x, cond, params: BlockParams, cfg: PSWALayerConfig, return_maps: bool = False):
    """Pre-norm residual block: modulated mixing stage, then modulated MLP.

    x: [B, gh, gw, C] tokens; cond: [B, C] conditioning vector.  The six
    modulation signals (shift/scale/gate twice) come from a zero-init
    projection of cond, so a fresh block passes x through unchanged.
    """
    x = as_tensor(x)
    b, gh, gw, c = x.shape
    if c != cfg.total_channels:
        raise DimensionError(f"block channels {c} != configured {cfg.total_channels}")
    if cond.shape != (b, c):
        raise DimensionError(f"cond shape {cond.shape} != ({b}, {c})")

    mod = ops.add(ops.matmul(cond, params.mod_w), params.mod_b)  # [B, 6C]
    sh1, sc1, g1, sh2, sc2, g2 = (
        ops.reshape(ops.narrow(mod, 1, k * c, c), (b, 1, 1, c)) for k in range(6)
    )

    h = _modulate(ops.layernorm(x), sh1, sc1)
    h, maps = pswa_forward(h, cfg, return_maps=True)
    x = ops.add(x, ops.mul(g1, h))

    h = _modulate(ops.layernorm(x), sh2, sc2)
    flat = ops.reshape(h, (b * gh * gw, c))
    hidden = ops.gelu(ops.add(ops.matmul(flat, params.mlp_w1), params.mlp_b1))
    out = ops.add(ops.matmul(hidden, params.mlp_w2), params.mlp_b2)
    h = ops.reshape(out, (b, gh, gw, c))
    x = ops.add(x, ops.mul(g2, h))
    return (x, maps) if return_maps else x


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------

class ToyDiT:
    def __init__(self, cfg: ToyDiTConfig, rng: Rng):
        self.cfg = cfg
        self.schedule = cfg.build_schedule()
        d = cfg.d_model
        init = rng.split("init")

        def normal(tag, shape, std=0.02):
            return Tensor(init.split(tag).normal(shape, std=std), requires_grad=True)

        def zero(shape):
            return Tensor(np.zeros(shape), requires_grad=True)

        self.patch_w = normal("patch.w", (cfg.patch_dim, d))
        self.patch_b = zero((d,))
        self.t_embed = TimeEmbedParams(
            w1=normal("t_embed.w1", (d, d)), b1=zero((d,)),
            w2=normal("t_embed.w2", (d, d)), b2=zero((d,)),
        )
        self.class_embed = normal("class_embed", (cfg.class_count, d)) if cfg.class_count else None

        self.layer_configs: list[PSWALayerConfig] = []
        self.blocks: list[BlockParams] = []
        hidden = int(round(d * cfg.mlp_ratio))
        wh, ww = cfg.window
        kernel = 2 * cfg.order - 1  # the bridge's reach matches the order-K neighborhood
        for l in range(cfg.depth):
            h_l = self.schedule.window_channels[l]
            heads_l = h_l // cfg.head_dim
            spec = WindowSpec.create(wh, ww, heads_l) if h_l else None
            attn = AttentionParams.create(h_l, heads_l, init.split(f"blocks.{l}.attn")) if h_l else None
            bridge = BridgeParams.create(d - h_l, kernel, init.split(f"blocks.{l}.bridge")) if d - h_l else None
            self.layer_configs.append(PSWALayerConfig(spec, attn, bridge))
            self.blocks.append(
                BlockParams(
                    mlp_w1=normal(f"blocks.{l}.mlp.w1", (d, hidden)),
                    mlp_b1=zero((hidden,)),
                    mlp_w2=normal(f"blocks.{l}.mlp.w2", (hidden, d)),
                    mlp_b2=zero((d,)),
                    mod_w=zero((d, 6 * d)),
                    mod_b=zero((6 * d,)),
                )
            )
        self.head_w = normal("head.w", (d, cfg.patch_dim))
        self.head_b = zero((cfg.patch_dim,))

    # -- parameters -----------------------------------------------------------

    def named_parameters(self) -> dict[str, Tensor]:
        params: dict[str, Tensor] = {"patch.w": self.patch_w, "patch.b": self.patch_b}
        params.update({f"t_embed.{k}": v for k, v in self.t_embed.parameters().items()})
        if self.class_embed is not None:
            params["class_embed.table"] = self.class_embed
        for l, (cfg_l, blk) in enumerate(zip(self.layer_configs, self.blocks)):
            params.update({f"blocks.{l}.{k}": v for k, v in {**cfg_l.parameters(), **blk.parameters()}.items()})
        params["head.w"] = self.head_w
        params["head.b"] = self.head_b
        return params

    def load_state(self, state: dict) -> None:
        """Overwrite all parameters from a {name: array} mapping."""
        params = self.named_parameters()
        missing = sorted(set(params) - set(state))
        extra = sorted(set(state) - set(params))
        if missing or extra:
            raise ConfigurationError(f"parameter set mismatch: missing {missing}, unexpected {extra}")
        for name, tensor in params.items():
            value = state[name]
            tensor.assign_(value.data if isinstance(value, Tensor) else value)

    # -- forward ----------------------------------------------------------------

    def condition(self, t, batch: int, labels=None) -> Tensor:
        t_arr = np.asarray(t).reshape(-1)
        if t_arr.size == 1:
            t_arr = np.full(batch, int(t_arr[0]))
        if t_arr.size != batch:
            raise DimensionError(f"got {t_arr.size} timesteps for batch {batch}")
        cond = timestep_embedding(t_arr, self.t_embed, self.cfg.max_timesteps)
        if self.cfg.class_count:
            if labels is None:
                raise UsageError("model was built with class conditioning; labels are required")
            lab = np.asarray(labels, dtype=np.int64).reshape(-1)
            if lab.size != batch:
                raise DimensionError(f"got {lab.size} labels for batch {batch}")
            if lab.size and (lab.min() < 0 or lab.max() >= self.cfg.class_count):
                raise DomainError(f"label outside [0, {self.cfg.class_count})")
            cond = ops.add(cond, ops.gather_rows(self.class_embed, lab))
        elif labels is not None:
            raise UsageError("labels passed to an unconditional model")
        return cond

    def forward(
        self,
        x,
        t,
        labels=None,
        collect_maps: Optional[list] = None,
        collect_tokens: Optional[list] = None,
    ) -> Tensor:
        """Predict the noise component of x at timestep t.

        x: [B, C, H, W]; t: scalar or [B] ints; labels: [B] ints when the
        model is class-conditional.  ``collect_maps``, if a list, receives
        each block's window-branch attention maps (None for h_l = 0);
        ``collect_tokens`` receives each block's output token grid
        [B, gh, gw, C] (diagnostics look at these).
        """
        x = as_tensor(x)
        cfg = self.cfg
        if x.ndim != 4 or x.shape[1:] != (cfg.image_channels, cfg.image_h, cfg.image_w):
            raise DimensionError(
                f"input {x.shape} != [B, {cfg.image_channels}, {cfg.image_h}, {cfg.image_w}]"
            )
        b = x.shape[0]
        cond = self.condition(t, b, labels)
        tokens = patchify(x, cfg.patch, self.patch_w, self.patch_b)
        for blk, layer_cfg in zip(self.blocks, self.layer_configs):
            tokens, maps = block_forward(tokens, cond, blk, layer_cfg, return_maps=True)
            if collect_maps is not None:
                collect_maps.append(maps)
            if collect_tokens is not None:
                collect_tokens.append(tokens)
        normed = ops.layernorm(tokens)
        flat = ops.reshape(normed, (b * cfg.tokens, cfg.d_model))
        out = ops.add(ops.matmul(flat, self.head_w), self.head_b)
        out = ops.reshape(out, (b, cfg.grid_h, cfg.grid_w, cfg.patch_dim))
        return unpatchify(out, cfg.patch, cfg.image_channels)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(directory, model: ToyDiT, step: int, rng: Rng, extra: Optional[dict] = None) -> Path:
    """Write manifest.json plus one PSWT dump per named parameter."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    params = model.named_parameters()
    manifest = {
        "format": 1,
        "step": int(step),
        "model_config": write_fields(model.cfg),
        "rng": rng.state_dict(),
        "params": {name: f"{name}.pswt" for name in params},
    }
    if extra:
        manifest["extra"] = extra
    for name, tensor in params.items():
        dump_tensor(tensor, directory / manifest["params"][name])
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return directory


def load_checkpoint(directory):
    """Read a checkpoint directory -> (manifest, rebuilt ToyDiT, Rng).

    The model is reconstructed from the manifest's config echo and its
    parameters overwritten from the dumps, which must hold the run's
    default dtype; the returned Rng resumes the training stream exactly
    where the checkpoint left it.
    """
    directory = Path(directory)
    path = directory / "manifest.json"
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"checkpoint manifest {path} is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict) or manifest.get("format") != 1:
        raise UsageError(f"{path} is not a format-1 checkpoint manifest")
    missing = sorted({"model_config", "rng", "params"} - set(manifest))
    if missing:
        raise ConfigurationError(f"checkpoint manifest {path} lacks {', '.join(missing)}")
    cfg = ToyDiTConfig(**read_fields(ToyDiTConfig, manifest["model_config"], "model_config"))
    try:
        rng = Rng.from_state_dict(manifest["rng"])
    except (LookupError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"checkpoint manifest {path}: rng is not a saved Rng state ({exc!r})") from None
    files = manifest["params"]
    if not isinstance(files, dict) or not all(isinstance(f, str) for f in files.values()):
        raise ConfigurationError(f"checkpoint manifest {path}: params must map parameter names to file names")
    state = {name: load_tensor(directory / fname) for name, fname in files.items()}
    run_dtype = np.dtype(default_dtype())
    for name, tensor in state.items():
        if tensor.dtype != run_dtype:
            raise ConfigurationError(f"checkpoint parameter {name} is {tensor.dtype}, but this run computes in {run_dtype}")
    model = ToyDiT(cfg, Rng(0))  # parameters are overwritten below
    model.load_state(state)
    return manifest, model, rng
