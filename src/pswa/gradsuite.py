"""Named finite-difference checks over the public differentiable surface.

The CLI's gradcheck command runs these; tests run them too.  Each case
builds a scalar-valued function plus the tensors to perturb from its
own named RNG stream, so results are reproducible case by case.

Ops are always reached through their modules (``ops.matmul``, never a
direct import), which keeps the suite honest: corrupting an op's
backward in the module namespace makes the corresponding case fail.

Tolerances: 1e-5 for individual ops, 1e-4 end to end through the toy
model.  The end-to-end objectives are deliberately kept small, O(0.01):
central differences at step h carry cancellation noise of roughly
eps * |f| / h in absolute terms, so an O(1) objective at h = 1e-5
produces ~1e-11 of pure float64 noise -- enough to swamp the 1e-8
comparison floor on near-zero gradients.  Shrinking |f| shrinks the
noise and the true gradients together, which leaves genuinely wrong
backward rules just as visible while keeping roundoff out of the way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import attention, block, model
from .numerics import Rng, Tensor, gradcheck, ops

OP_TOL = 1e-5
END_TO_END_TOL = 1e-4


@dataclass(frozen=True)
class GradCase:
    name: str
    module: str
    tol: float
    build: Callable  # Rng -> (fn, inputs)


def _weighted(out: Tensor, weights: np.ndarray) -> Tensor:
    """Random-weighted sum: turns any output into a scalar objective."""
    return ops.sum_(ops.mul(out, Tensor(weights)))


def _t(rng: Rng, tag: str, shape, std: float = 1.0) -> Tensor:
    return Tensor(rng.split(tag).normal(shape, std=std), requires_grad=True)


# -- numerics ----------------------------------------------------------------

def _case_matmul(rng: Rng):
    a = _t(rng, "a", (2, 3, 4))
    b = _t(rng, "b", (4, 5))
    w = rng.split("w").normal((2, 3, 5))
    return (lambda a_, b_: _weighted(ops.matmul(a_, b_), w)), [a, b]


def _case_linear(rng: Rng):
    x = _t(rng, "x", (4, 3))
    wgt = _t(rng, "wgt", (3, 5))
    bias = _t(rng, "bias", (5,))
    w = rng.split("w").normal((4, 5))
    return (lambda x_, w_, b_: _weighted(ops.linear(x_, w_, b_), w)), [x, wgt, bias]


def _case_modulate(rng: Rng):
    x = _t(rng, "x", (2, 3, 3, 4))
    shift = _t(rng, "shift", (2, 1, 1, 4))
    scl = _t(rng, "scale", (2, 1, 1, 4))
    w = rng.split("w").normal((2, 3, 3, 4))
    return (lambda x_, sh_, sc_: _weighted(ops.modulate(x_, sh_, sc_), w)), [x, shift, scl]


def _case_add_mul_broadcast(rng: Rng):
    a = _t(rng, "a", (2, 3, 4))
    b = _t(rng, "b", (1, 4))
    w = rng.split("w").normal((2, 3, 4))
    return (lambda a_, b_: _weighted(ops.mul(ops.add(a_, b_), a_), w)), [a, b]


def _unary(op: str, shape, std: float) -> Callable:
    """A case for a shape-preserving op: x ~ N(0, std) from stream "x", output weights from "w"."""
    def build(rng: Rng):
        x = _t(rng, "x", shape, std=std)
        w = rng.split("w").normal(shape)
        return (lambda x_: _weighted(getattr(ops, op)(x_), w)), [x]

    return build


def _case_depthwise(rng: Rng):
    x = _t(rng, "x", (2, 5, 5, 3))
    k = _t(rng, "k", (3, 3, 3))
    w = rng.split("w").normal((2, 5, 5, 3))
    return (lambda x_, k_: _weighted(ops.depthwise_conv2d(x_, k_), w)), [x, k]


def _case_pointwise(rng: Rng):
    x = _t(rng, "x", (2, 4, 4, 3))
    wgt = _t(rng, "wgt", (5, 3))
    bias = _t(rng, "bias", (5,))
    w = rng.split("w").normal((2, 4, 4, 5))
    return (lambda x_, w_, b_: _weighted(ops.pointwise_conv2d(x_, w_, b_), w)), [x, wgt, bias]


def _case_gathers(rng: Rng):
    table = _t(rng, "table", (2, 9))
    rows = _t(rng, "rows", (4, 3))
    idx_last = np.array([0, 8, 3, 3, 1, 7])
    idx_rows = np.array([2, 0, 2, 1])
    w1 = rng.split("w1").normal((2, 6))
    w2 = rng.split("w2").normal((4, 3))

    def fn(table_, rows_):
        return ops.add(
            _weighted(ops.gather_last(table_, idx_last), w1),
            _weighted(ops.gather_rows(rows_, idx_rows), w2),
        )

    return fn, [table, rows]


def _case_shape_plumbing(rng: Rng):
    x = _t(rng, "x", (2, 3, 4))
    y = _t(rng, "y", (2, 2, 3))
    w = rng.split("w").normal((3, 2, 3))

    def fn(x_, y_):
        xt = ops.transpose(x_, (1, 0, 2))           # [3, 2, 4]
        part = ops.narrow(xt, 2, 1, 2)              # [3, 2, 2]
        yt = ops.transpose(y_, (2, 0, 1))           # [3, 2, 2]
        cat = ops.concat([part, yt, part], axis=2)  # [3, 2, 6]
        folded = ops.mean(ops.reshape(cat, (3, 2, 3, 2)), axis=3)
        return _weighted(folded, w)

    return fn, [x, y]


def _case_split(rng: Rng):
    x = _t(rng, "x", (2, 6, 3))
    ws = [rng.split(f"w{k}").normal((2, 2, 3)) for k in range(3)]

    def fn(x_):
        terms = [ops.reshape(_weighted(p, w), (1,)) for p, w in zip(ops.split(x_, 3, 1), ws)]
        return ops.sum_(ops.concat(terms, 0))

    return fn, [x]


# -- attention ----------------------------------------------------------------

def _case_window_attention(rng: Rng):
    spec = attention.WindowSpec.create(2, 2, 6, 2, rng.split("params"), std=0.3)
    spec.bias_table.assign_(rng.split("bias").normal((2, 9), std=0.2))
    x = _t(rng, "x", (1, 4, 4, 6))
    w = rng.split("w").normal((1, 4, 4, 6))

    def fn(x_, *_):
        y, _maps = attention.window_attention(x_, spec)
        return _weighted(y, w)

    return fn, [x, *spec.parameters().values()]


# -- the split block -----------------------------------------------------------

def _case_pswa_mixed(rng: Rng):
    spec = attention.WindowSpec.create(2, 2, 4, 1, rng.split("attn"), std=0.3)
    spec.bias_table.assign_(rng.split("bias").normal((1, 9), std=0.2))
    cfg = block.PSWALayerConfig(spec, block.BridgeParams.create(4, 3, rng.split("bridge"), std=0.3))
    x = _t(rng, "x", (1, 4, 4, 8))
    w = rng.split("w").normal((1, 4, 4, 8))

    def fn(x_, *_):
        y, _maps = block.pswa_forward(x_, cfg)
        return _weighted(y, w)

    return fn, [x, *cfg.parameters().values()]


def _case_bridge_only(rng: Rng):
    bridge = block.BridgeParams.create(6, 3, rng.split("bridge"), std=0.3)
    cfg = block.PSWALayerConfig(None, bridge)
    x = _t(rng, "x", (2, 2, 4, 6))
    w = rng.split("w").normal((2, 2, 4, 6))

    def fn(x_, *_):
        y, _maps = block.pswa_forward(x_, cfg)
        return _weighted(y, w)

    return fn, [x, *cfg.parameters().values()]


# -- model --------------------------------------------------------------------

def _toy_model(rng: Rng) -> model.ToyDiT:
    cfg = model.ToyDiTConfig(
        image_h=8,
        image_w=8,
        image_channels=1,
        patch=4,
        d_model=8,
        depth=2,
        num_heads=2,
        window=(2, 2),
        order=2,
        f_start=0.25,
        f_end=0.75,
        mlp_ratio=1.0,
        max_timesteps=10,
    )
    net = _nudge_modulation(model.ToyDiT(cfg, rng.split("model")), rng.split("mod-nudge"))
    return net


def _nudge_modulation(net: model.ToyDiT, rng: Rng) -> model.ToyDiT:
    # Zero-init modulation makes blocks exact identities; perturb it so the
    # end-to-end check exercises every path with nonzero gradients.
    for l, blk in enumerate(net.blocks):
        blk.mod_w.assign_(rng.split(f"{l}.w").normal(blk.mod_w.shape, std=0.05))
        blk.mod_b.assign_(rng.split(f"{l}.b").normal(blk.mod_b.shape, std=0.05))
    return net


def _case_block_forward(rng: Rng):
    net = _toy_model(rng)
    blk, layer_cfg = net.blocks[0], net.layer_configs[0]
    x = _t(rng, "x", (2, 2, 2, 8))
    cond = _t(rng, "cond", (2, 8))
    w = rng.split("w").normal((2, 2, 2, 8), std=2e-3)

    def fn(*_):
        y, _maps = model.block_forward(x, cond, blk, layer_cfg)
        return _weighted(y, w)

    return fn, [x, cond, *layer_cfg.parameters().values(), *blk.parameters().values()]


def _case_model_end_to_end(rng: Rng):
    from .numerics import no_grad

    net = _toy_model(rng)
    x = _t(rng, "x", (1, 1, 8, 8))
    t = np.array([3])
    # Target sits 0.1 away from the initial prediction so the loss is
    # O(0.01); see the module docstring on conditioning.
    with no_grad():
        y0 = net.forward(x, t).data
    target = y0 + 0.1 * rng.split("target").normal(y0.shape)

    def fn(*_):
        diff = ops.sub(net.forward(x, t), Tensor(target))
        return ops.mean(ops.mul(diff, diff))

    return fn, [x, *net.named_parameters().values()]


ALL_CASES = [
    GradCase("matmul", "numerics", OP_TOL, _case_matmul),
    GradCase("linear", "numerics", OP_TOL, _case_linear),
    GradCase("add_mul_broadcast", "numerics", OP_TOL, _case_add_mul_broadcast),
    GradCase("modulate", "numerics", OP_TOL, _case_modulate),
    GradCase("softmax_rows", "numerics", OP_TOL, _unary("softmax_rows", (3, 7), 2.0)),
    GradCase("layernorm", "numerics", OP_TOL, _unary("layernorm", (4, 6), 1.0)),
    GradCase("gelu", "numerics", OP_TOL, _unary("gelu", (3, 5), 2.0)),
    GradCase("silu", "numerics", OP_TOL, _unary("silu", (3, 5), 2.0)),
    GradCase("depthwise_conv2d", "numerics", OP_TOL, _case_depthwise),
    GradCase("pointwise_conv2d", "numerics", OP_TOL, _case_pointwise),
    GradCase("gathers", "numerics", OP_TOL, _case_gathers),
    GradCase("shape_plumbing", "numerics", OP_TOL, _case_shape_plumbing),
    GradCase("split", "numerics", OP_TOL, _case_split),
    GradCase("window_attention", "attention", OP_TOL, _case_window_attention),
    GradCase("pswa_mixed", "pswa", OP_TOL, _case_pswa_mixed),
    GradCase("pswa_bridge_only", "pswa", OP_TOL, _case_bridge_only),
    GradCase("block_forward", "model", END_TO_END_TOL, _case_block_forward),
    GradCase("model_end_to_end", "model", END_TO_END_TOL, _case_model_end_to_end),
]


def select_cases(module: Optional[str] = None) -> list:
    if module is None:
        return list(ALL_CASES)
    picked = [c for c in ALL_CASES if c.module == module]
    if not picked:
        names = sorted({c.module for c in ALL_CASES})
        raise ValueError(f"no gradcheck cases for module {module!r}; known: {', '.join(names)}")
    return picked


def run_case(case: GradCase, seed: int = 0):
    fn, inputs = case.build(Rng(seed).split(case.name))
    return gradcheck(fn, inputs)
