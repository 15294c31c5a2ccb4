import csv
import hashlib
import json
import weakref

import numpy as np
import pytest

from pswa import diffusion
from pswa.diffusion import (
    AdamW,
    NoiseSchedule,
    ToyDataset,
    ddpm_sample,
    q_sample,
    train_model,
    training_loss,
)
from pswa.errors import ConfigurationError, DimensionError, DomainError, NumericsError, UsageError
from pswa.model import ToyDiT, ToyDiTConfig, load_checkpoint
from pswa.numerics import OpNode, Rng, Tensor, no_grad, ops, set_debug_checks, set_default_dtype


def tiny_cfg(**kw):
    base = dict(
        image_h=8,
        image_w=8,
        image_channels=1,
        patch=4,
        d_model=8,
        depth=2,
        num_heads=2,
        window=(2, 2),
        order=2,
        mlp_ratio=1.0,
        max_timesteps=10,
    )
    base.update(kw)
    return ToyDiTConfig(**base)


def tiny_setup(seed=0, **kw):
    model = ToyDiT(tiny_cfg(**kw), Rng(seed))
    dataset = ToyDataset(8, 8, 1, size=32, rng=Rng(seed + 1))
    schedule = NoiseSchedule.linear(10)
    return model, dataset, schedule


# ---------------------------------------------------------------------------
# schedule and forward corruption
# ---------------------------------------------------------------------------

def test_linear_schedule_frozen_endpoints():
    s = NoiseSchedule.linear()
    assert s.timesteps == 100
    assert s.betas[0] == 1e-4
    assert s.betas[-1] == 2e-2
    assert s.alphas[0] == 1.0 - 1e-4
    assert (np.diff(s.alpha_bars) < 0).all()
    assert 0.0 < s.alpha_bars[-1] < s.alpha_bars[0] < 1.0


def test_schedule_validation():
    with pytest.raises(ConfigurationError):
        NoiseSchedule(np.array([0.1, 1.0]))
    with pytest.raises(ConfigurationError):
        NoiseSchedule(np.array([0.0, 0.1]))
    with pytest.raises(ConfigurationError):
        NoiseSchedule(np.array([]))
    with pytest.raises(ConfigurationError):
        NoiseSchedule(np.array([[0.1]]))
    with pytest.raises(ConfigurationError):
        NoiseSchedule.linear(0)


def test_q_sample_matches_formula(np_rng):
    s = NoiseSchedule.linear(10)
    x0 = np_rng.normal(size=(4, 1, 8, 8))
    noise = np_rng.normal(size=(4, 1, 8, 8))
    t = np.array([0, 3, 7, 9])
    got = q_sample(x0, t, noise, s)
    for b in range(4):
        abar = s.alpha_bars[t[b]]
        np.testing.assert_allclose(
            got[b], np.sqrt(abar) * x0[b] + np.sqrt(1 - abar) * noise[b], atol=1e-15
        )
    # scalar t broadcasts over the batch
    np.testing.assert_array_equal(
        q_sample(x0, 3, noise, s), q_sample(x0, np.array([3, 3, 3, 3]), noise, s)
    )


def test_q_sample_validation(np_rng):
    s = NoiseSchedule.linear(10)
    x0 = np_rng.normal(size=(2, 1, 4, 4))
    with pytest.raises(DimensionError):
        q_sample(x0, 0, np_rng.normal(size=(2, 1, 4, 5)), s)
    with pytest.raises(DomainError):
        q_sample(x0, 10, x0, s)
    with pytest.raises(UsageError):  # a float is a contract fault, as in model.forward
        q_sample(x0, np.array([0.5, 1.0]), x0, s)
    with pytest.raises(DimensionError):
        q_sample(x0, np.array([1, 2, 3]), x0, s)


# ---------------------------------------------------------------------------
# toy data
# ---------------------------------------------------------------------------

def test_dataset_determinism_and_range():
    a = ToyDataset(8, 8, 1, size=16, rng=Rng(3))
    b = ToyDataset(8, 8, 1, size=16, rng=Rng(3))
    c = ToyDataset(8, 8, 1, size=16, rng=Rng(4))
    np.testing.assert_array_equal(a.images, b.images)
    assert (a.images != c.images).any()
    assert a.images.shape == (16, 1, 8, 8)
    assert np.abs(a.images).max() <= 1.0
    # hard-edged shapes: every image has at least two distinct levels,
    # and the corpus is not a single repeated image
    for img in a.images:
        assert len(np.unique(img)) >= 2
    assert len({img.tobytes() for img in a.images}) > 1


def test_dataset_batch_is_stream_deterministic():
    ds = ToyDataset(8, 8, 1, size=16, rng=Rng(0))
    x = ds.batch(Rng(5), 6)
    y = ds.batch(Rng(5), 6)
    np.testing.assert_array_equal(x, y)
    assert x.shape == (6, 1, 8, 8)
    # a batch is a copy, not a view into the corpus
    x[0, 0, 0, 0] = 99.0
    assert ds.images.max() <= 1.0


# sha256 prefixes recorded before the dataset build and Rng were made lazier:
# (default 16x16x1 x 256 images, 6x10x2 x 40 images, a fresh stream's state,
# a drawn stream's state)
PINNED = {
    0: ("73573820b36ec0f8", "13a97653774e6458", "34417f9980671b81", "5be8848d4f8a83e1"),
    1: ("ee2f04e1029f2554", "aeb2b30168bd1e4c", "d0b53fb6508791e8", "da9babef085cf4ab"),
    7: ("25ecafbc1ea5fb17", "dd85c2325451186e", "a004012855b447d0", "40e246f6d139a0e0"),
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_dataset_images_and_rng_states_are_pinned(seed):
    def digest(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()[:16]

    fresh = Rng(seed).split("train")
    drawn = Rng(seed).split("a").split(3)
    drawn.normal((5,))
    drawn.integers(0, 7, (3,))
    got = (
        digest(ToyDataset(rng=Rng(seed)).images.tobytes()),
        digest(ToyDataset(height=6, width=10, channels=2, size=40, rng=Rng(seed).split("data")).images.tobytes()),
        digest(json.dumps(fresh.state_dict(), sort_keys=True).encode()),
        digest(json.dumps(drawn.state_dict(), sort_keys=True).encode()),
    )
    assert got == PINNED[seed]


def test_dataset_validation():
    with pytest.raises(ConfigurationError):
        ToyDataset(1, 8, 1, size=4)
    with pytest.raises(ConfigurationError):
        ToyDataset(8, 8, 1, size=0)


# ---------------------------------------------------------------------------
# loss / sampler
# ---------------------------------------------------------------------------

def test_training_loss_scalar_and_deterministic():
    model, dataset, schedule = tiny_setup()
    batch = dataset.batch(Rng(7), 4)
    a = training_loss(model, batch, schedule, Rng(8))
    b = training_loss(model, batch, schedule, Rng(8))
    assert a.size == 1  # scalar by the library's size-1 convention
    assert a.item() > 0.0
    assert a.item() == b.item()


def test_training_loss_reaches_parameters():
    model, dataset, schedule = tiny_setup()
    loss = training_loss(model, dataset.batch(Rng(1), 2), schedule, Rng(2))
    loss.backward()
    grads = {k: v.grad for k, v in model.named_parameters().items()}
    assert grads["head.w"] is not None and np.abs(grads["head.w"]).max() > 0
    assert grads["patch.w"] is not None
    # zero-init gates block the branch weights' gradient flow at init,
    # but the modulation projections themselves must receive signal
    assert grads["blocks.0.mod.w"] is not None
    assert np.abs(grads["blocks.0.mod.w"]).max() > 0


def test_backward_leaves_gradients_on_leaves_only(monkeypatch):
    model, dataset, schedule = tiny_setup()
    held = []  # op outputs this test keeps: every block's maps and tokens, and the prediction
    forward = model.forward

    def keep(*args):
        out = forward(*args, collect_maps=held, collect_tokens=held)
        held.append(out)
        return out

    monkeypatch.setattr(model, "forward", keep)
    loss = training_loss(model, dataset.batch(Rng(1), 2), schedule, Rng(2))
    held.append(loss)
    loss.backward()
    params = {id(p) for p in model.named_parameters().values()}
    seen, stack, inner = set(), [loss.node], 0
    while stack:
        v = stack.pop()
        if v is None or id(v) in seen:
            continue
        seen.add(id(v))
        if isinstance(v, OpNode):
            inner += 1
            stack.extend(v.parents)
        else:  # the graph reaches a Tensor only at a leaf
            assert isinstance(v, Tensor) and v.node is None and v.requires_grad
            assert id(v) in params
    assert inner > 100
    assert len(held) >= 4 and all(t.node is not None for t in held)
    assert all(t.grad is None for t in held), "an op output holds a gradient"
    assert all(p.grad is not None for p in model.named_parameters().values())


def test_train_drops_each_step_graph_before_the_next(monkeypatch):
    step_loss = diffusion._step_loss
    losses, alive = [], []

    def spy(*args):
        alive.append([ref() is not None for ref in losses])
        loss = step_loss(*args)
        losses.append(weakref.ref(loss.data))  # the loss tensor is the only holder of its array
        return loss

    monkeypatch.setattr(diffusion, "_step_loss", spy)
    model, dataset, schedule = tiny_setup()
    train_model(model, dataset, schedule, Rng(3), steps=3, batch_size=4)
    assert alive == [[], [False], [False, False]]


def test_ddpm_sample_deterministic_and_finite():
    model, _, schedule = tiny_setup()
    a = ddpm_sample(model, schedule, (2, 1, 8, 8), Rng(3))
    b = ddpm_sample(model, schedule, (2, 1, 8, 8), Rng(3))
    c = ddpm_sample(model, schedule, (2, 1, 8, 8), Rng(4))
    np.testing.assert_array_equal(a, b)
    assert (a != c).any()
    assert a.shape == (2, 1, 8, 8)
    assert np.isfinite(a).all()


def restated_sample(model, schedule, shape, rng, dtype):
    """The DDPM update written out with every array and coefficient in ``dtype``."""
    x = rng.normal(shape).astype(dtype)
    for t in range(schedule.timesteps - 1, -1, -1):
        with no_grad():
            eps = model.forward(Tensor(x), np.full(shape[0], t, dtype=np.int64)).data
        alpha, abar, beta = schedule.alphas[t], schedule.alpha_bars[t], schedule.betas[t]
        mean = (x - dtype(beta / np.sqrt(1.0 - abar)) * eps) / dtype(np.sqrt(alpha))
        if t > 0:
            sd = dtype(np.sqrt(beta * (1.0 - schedule.alpha_bars[t - 1]) / (1.0 - abar)))
            x = mean + sd * rng.normal(shape).astype(dtype)
        else:
            x = mean
    assert x.dtype == dtype
    return x


@pytest.mark.parametrize("precision, dtype", [("f64", np.float64), ("f32", np.float32)])
def test_ddpm_sample_runs_in_default_dtype(precision, dtype):
    # f64 restates the float64 update as it always ran; f32 must not
    # promote to float64 anywhere and round only at the end
    set_default_dtype(precision)
    model, _, schedule = tiny_setup()
    noise = Rng(5).split("perturb")
    model.load_state({n: p.data + noise.split(n).normal(p.shape, std=0.1) for n, p in model.named_parameters().items()})
    got = ddpm_sample(model, schedule, (2, 1, 8, 8), Rng(3))
    want = restated_sample(model, schedule, (2, 1, 8, 8), Rng(3), dtype)
    assert got.dtype == dtype
    assert got.tobytes() == want.tobytes()


def test_ddpm_sample_checks_model_horizon():
    model, _, _ = tiny_setup()  # embeds t < 10
    with pytest.raises(ConfigurationError):
        ddpm_sample(model, NoiseSchedule.linear(20), (1, 1, 8, 8), Rng(0))


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def test_adamw_first_step_analytic():
    p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    g = np.array([0.5, -1.5, 0.0])
    p.grad = g.copy()
    opt = AdamW({"p": p}, lr=0.1, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.01)
    start = p.data.copy()
    opt.step()
    # after one step the bias-corrected moments reduce to g and g^2
    want = start - 0.1 * (g / (np.abs(g) + 1e-8) + 0.01 * start)
    np.testing.assert_allclose(p.data, want, atol=1e-12)


def test_adamw_skips_gradless_params_and_zero_grad():
    p = Tensor(np.ones(2), requires_grad=True)
    q = Tensor(np.ones(2), requires_grad=True)
    p.grad = np.ones(2)
    opt = AdamW({"p": p, "q": q}, lr=0.5)
    opt.step()
    assert (q.data == 1.0).all()
    assert (p.data != 1.0).all()
    opt.zero_grad()
    assert p.grad is None and q.grad is None
    with pytest.raises(ConfigurationError):
        AdamW({"p": p}, lr=0.0)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_train_smoke_and_artifacts(tmp_path):
    model, dataset, schedule = tiny_setup()
    result = train_model(
        model, dataset, schedule, Rng(1), steps=4, lr=1e-3, batch_size=4,
        out_dir=tmp_path, checkpoint_every=2, run_config={"note": "smoke"},
    )
    assert result.steps == 4 and len(result.losses) == 4
    assert all(np.isfinite(v) for v in result.losses)
    assert result.final_loss == result.losses[-1]
    assert (tmp_path / "ckpt-000002").is_dir()
    assert (tmp_path / "ckpt-000004").is_dir()
    assert (tmp_path / "ckpt-final" / "manifest.json").exists()
    with open(result.metrics_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "loss", "lr", "elapsed_ms"]
    assert len(rows) == 5
    assert [int(r[0]) for r in rows[1:]] == [1, 2, 3, 4]
    np.testing.assert_array_equal([float(r[1]) for r in rows[1:]], result.losses)


def test_interrupted_train_keeps_the_rows_of_finished_steps(tmp_path, monkeypatch):
    step_loss = diffusion._step_loss
    calls = []

    def interrupt_step_3(*args):
        calls.append(1)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return step_loss(*args)

    def metrics(out):
        with open(out / "metrics.csv", newline="") as fh:
            return list(csv.reader(fh))

    model, dataset, schedule = tiny_setup()
    train_model(model, dataset, schedule, Rng(1), steps=4, lr=1e-3, batch_size=4, out_dir=tmp_path / "full")
    monkeypatch.setattr(diffusion, "_step_loss", interrupt_step_3)
    model, dataset, schedule = tiny_setup()
    with pytest.raises(KeyboardInterrupt):
        train_model(model, dataset, schedule, Rng(1), steps=4, lr=1e-3, batch_size=4, out_dir=tmp_path / "cut")
    cut, full = metrics(tmp_path / "cut"), metrics(tmp_path / "full")
    assert len(cut) == 3  # the header plus steps 1 and 2
    assert [r[:3] for r in cut] == [r[:3] for r in full[:3]]


def test_train_is_bitwise_deterministic(tmp_path):
    losses = []
    for run in range(2):
        model, dataset, schedule = tiny_setup()
        result = train_model(model, dataset, schedule, Rng(9), steps=3, lr=1e-3, batch_size=4)
        losses.append(result.losses)
    assert losses[0] == losses[1]


def test_train_class_conditional_smoke():
    model, dataset, schedule = tiny_setup(class_count=3)
    result = train_model(model, dataset, schedule, Rng(2), steps=2, lr=1e-3, batch_size=4)
    assert len(result.losses) == 2


def _diverge(out_dir, op_checks):
    """The lr-10, weight-decay-1e6 run that blows up within 60 steps -> its NumericsError message."""
    set_debug_checks(op_checks)
    model, dataset, schedule = tiny_setup()
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericsError) as info:
            train_model(
                model, dataset, schedule, Rng(3), steps=60,
                lr=10.0, weight_decay=1e6, batch_size=4, out_dir=out_dir,
            )
    return str(info.value)


def test_train_divergence_aborts_with_checkpoint(tmp_path):
    # per-op checks off (the default) replay the failed step with them on, so
    # both modes name the same op and abort with the same parameters
    messages = [_diverge(tmp_path / str(on), on) for on in (False, True)]
    assert messages[0] == messages[1]
    assert messages[0].startswith("op '")
    for on in (False, True):
        assert (tmp_path / str(on) / "abort" / "manifest.json").exists()
        assert (tmp_path / str(on) / "metrics.csv").exists()
    dumps = [(tmp_path / str(on) / "abort" / "params.pswt").read_bytes() for on in (False, True)]
    assert dumps[0] == dumps[1]


def test_non_finite_gradient_aborts_before_the_update(tmp_path, monkeypatch):
    orig = ops.gelu

    def inf_backward(x):
        y = orig(x)
        if y.node is not None:
            inner = y.node.backward
            y.node.backward = lambda g: tuple(c * np.inf for c in inner(g))
        return y

    monkeypatch.setattr(ops, "gelu", inf_backward)
    model, dataset, schedule = tiny_setup()
    before = {k: p.data.copy() for k, p in model.named_parameters().items()}
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericsError, match="op 'gelu' produced a non-finite gradient"):
            train_model(model, dataset, schedule, Rng(3), steps=2, batch_size=4, out_dir=tmp_path)
    _, aborted, _ = load_checkpoint(tmp_path / "abort")
    for name, p in aborted.named_parameters().items():
        np.testing.assert_array_equal(p.data, before[name])


def _poison_first_forward(model):
    """Make the model's first forward return inf, as a fault a replay cannot reproduce would."""
    calls = []
    forward = model.forward

    def once(x, t, labels=None):
        calls.append(t)
        out = forward(x, t, labels)
        return ops.scale(out, np.inf) if len(calls) == 1 else out

    model.forward = once
    return calls


def test_train_names_the_step_when_the_replay_runs_clean():
    model, dataset, schedule = tiny_setup()
    calls = _poison_first_forward(model)
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericsError, match=r"at step 1 \(loss inf\), though no op was non-finite"):
            train_model(model, dataset, schedule, Rng(3), steps=2, batch_size=4)
    assert len(calls) == 2  # the step and its replay
    assert (calls[0] == calls[1]).all()  # the replay redraws the same timesteps


def test_ddpm_sample_names_the_step_when_the_replay_runs_clean():
    model, _, schedule = tiny_setup()
    calls = _poison_first_forward(model)
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericsError, match="non-finite state at timestep 9, though no op was non-finite"):
            ddpm_sample(model, schedule, (2, 1, 8, 8), Rng(5))
    assert len(calls) == 2


@pytest.mark.parametrize("op_checks", [False, True], ids=["off", "on"])
def test_ddpm_sample_names_the_overflowing_op(op_checks):
    set_debug_checks(op_checks)
    model, _, schedule = tiny_setup()
    w = model.named_parameters()["patch.w"]
    w.assign_(np.full(w.shape, 1e308))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericsError, match="op 'linear' produced non-finite values"):
            ddpm_sample(model, schedule, (2, 1, 8, 8), Rng(5))


def test_per_op_checks_change_no_number(tmp_path):
    losses, samples = [], []
    for on in (False, True):
        set_debug_checks(on)
        model, dataset, schedule = tiny_setup()
        result = train_model(model, dataset, schedule, Rng(4), steps=3, lr=1e-3, batch_size=4, out_dir=tmp_path / str(on))
        with open(result.metrics_path, newline="") as fh:
            losses.append([row[1] for row in csv.reader(fh)])
        samples.append(ddpm_sample(model, schedule, (2, 1, 8, 8), Rng(5)))
    assert losses[0] == losses[1]  # the loss column as written, so bit for bit
    assert samples[0].tobytes() == samples[1].tobytes()


def test_train_rejects_bad_steps():
    model, dataset, schedule = tiny_setup()
    with pytest.raises(ConfigurationError):
        train_model(model, dataset, schedule, Rng(0), steps=0)