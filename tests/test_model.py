import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from pswa.errors import ConfigurationError, DimensionError, DomainError, UsageError
from pswa.model import (
    ToyDiT,
    ToyDiTConfig,
    block_forward,
    load_checkpoint,
    patchify,
    save_checkpoint,
    sinusoidal_features,
    timestep_embedding,
    unpatchify,
)
from pswa.numerics import Rng, Tensor, dump_tensor, load_tensor
from pswa.schema import read_fields, write_fields


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


# ---------------------------------------------------------------------------
# patch plumbing
# ---------------------------------------------------------------------------

def test_patchify_roundtrip_with_identity_embedding(np_rng):
    # weight = I keeps raw pixels in the token, so unpatchify inverts exactly
    x = np_rng.normal(size=(2, 3, 6, 4))
    patch, dim = 2, 3 * 2 * 2
    w = Tensor(np.eye(dim))
    b = Tensor(np.zeros(dim))
    tokens = patchify(Tensor(x), patch, w, b)
    assert tokens.shape == (2, 3, 2, dim)
    back = unpatchify(tokens, patch, 3)
    np.testing.assert_array_equal(back.data, x)


def test_patchify_token_content_frozen():
    # 1 channel, 4x4 image, 2x2 patches: token (0,0) is the flat top-left patch
    x = np.arange(16.0).reshape(1, 1, 4, 4)
    tokens = patchify(Tensor(x), 2, Tensor(np.eye(4)), Tensor(np.zeros(4)))
    np.testing.assert_array_equal(tokens.data[0, 0, 0], [0, 1, 4, 5])
    np.testing.assert_array_equal(tokens.data[0, 1, 1], [10, 11, 14, 15])


def test_patchify_validation(np_rng):
    w, b = Tensor(np.eye(4)), Tensor(np.zeros(4))
    with pytest.raises(DimensionError):
        patchify(Tensor(np_rng.normal(size=(4, 4))), 2, w, b)
    with pytest.raises(ConfigurationError):
        patchify(Tensor(np_rng.normal(size=(1, 1, 5, 4))), 2, w, b)
    with pytest.raises(DimensionError):
        unpatchify(Tensor(np_rng.normal(size=(1, 2, 2, 5))), 2, 1)


# ---------------------------------------------------------------------------
# timestep embedding
# ---------------------------------------------------------------------------

def test_sinusoidal_features_frozen_values():
    feats = sinusoidal_features(np.array([0, 1]), 4)
    assert feats.shape == (2, 4)
    np.testing.assert_array_equal(feats[0], [0.0, 0.0, 1.0, 1.0])
    # freqs are 1 and 10000^(-1/2) = 0.01
    np.testing.assert_allclose(
        feats[1],
        [0.8414709848078965, 0.009999833334166664, 0.5403023058681398, 0.9999500004166653],
        atol=1e-15,
    )
    with pytest.raises(ConfigurationError):
        sinusoidal_features(np.array([0]), 5)


def test_timestep_embedding_domain():
    model = ToyDiT(tiny_cfg(), Rng(0))
    with pytest.raises(UsageError):
        timestep_embedding(np.array([0.5]), model.t_embed, 10)
    with pytest.raises(UsageError):  # a scalar float is not truncated to an integer step
        model.forward(np.zeros((2, 1, 8, 8)), 3.7)
    with pytest.raises(DomainError):
        timestep_embedding(np.array([10]), model.t_embed, 10)
    with pytest.raises(DomainError):
        timestep_embedding(np.array([-1]), model.t_embed, 10)
    out = timestep_embedding(np.array([0, 9]), model.t_embed, 10)
    assert out.shape == (2, 8)


# ---------------------------------------------------------------------------
# blocks and the whole stack
# ---------------------------------------------------------------------------

def test_fresh_block_is_identity(np_rng):
    # zero-init modulation means both residual gates are exactly zero
    model = ToyDiT(tiny_cfg(), Rng(3))
    tokens = Tensor(np_rng.normal(size=(2, 2, 2, 8)))
    cond = Tensor(np_rng.normal(size=(2, 8)))
    out, _ = block_forward(tokens, cond, model.blocks[0], model.layer_configs[0])
    np.testing.assert_array_equal(out.data, tokens.data)


def test_fresh_model_blocks_pass_tokens_through(np_rng):
    model = ToyDiT(tiny_cfg(), Rng(3))
    x = Tensor(np_rng.normal(size=(2, 1, 8, 8)))
    collected: list = []
    model.forward(x, 0, collect_tokens=collected)
    assert len(collected) == 2
    first = patchify(x, 4, model.patch_w, model.patch_b)
    for tokens in collected:
        np.testing.assert_array_equal(tokens.data, first.data)


def test_forward_shapes_and_map_collection(np_rng):
    cfg = tiny_cfg(fractions=(0.0, 1.0))
    model = ToyDiT(cfg, Rng(1))
    x = Tensor(np_rng.normal(size=(3, 1, 8, 8)))
    maps: list = []
    out = model.forward(x, np.array([0, 4, 9]), collect_maps=maps)
    assert out.shape == (3, 1, 8, 8)
    assert len(maps) == 2
    assert maps[0] is None  # bridge-only layer has no attention maps
    assert maps[1].shape == (3 * 1, 2, 4, 4)  # one 2x2-window grid per image


def test_depth_zero_model(np_rng):
    model = ToyDiT(tiny_cfg(depth=0), Rng(0))
    assert model.cfg.window_widths == ()
    x = Tensor(np_rng.normal(size=(1, 1, 8, 8)))
    assert model.forward(x, 0).shape == (1, 1, 8, 8)


def test_forward_validates_input_shape(np_rng):
    model = ToyDiT(tiny_cfg(), Rng(0))
    with pytest.raises(DimensionError):
        model.forward(Tensor(np_rng.normal(size=(1, 1, 8, 4))), 0)
    with pytest.raises(DimensionError):
        model.forward(Tensor(np_rng.normal(size=(1, 8, 8))), 0)


def test_class_conditioning_contract(np_rng):
    x = Tensor(np_rng.normal(size=(2, 1, 8, 8)))
    uncond = ToyDiT(tiny_cfg(), Rng(0))
    with pytest.raises(UsageError):
        uncond.forward(x, 0, labels=np.array([0, 1]))
    cond = ToyDiT(tiny_cfg(class_count=3), Rng(0))
    with pytest.raises(UsageError):
        cond.forward(x, 0)
    with pytest.raises(DomainError):
        cond.forward(x, 0, labels=np.array([0, 3]))
    with pytest.raises(DimensionError):
        cond.forward(x, 0, labels=np.array([0]))
    # a float or bool label is refused, not truncated to an int
    for bad in ([1.7, 0.2], [True, False]):
        with pytest.raises(UsageError, match="labels must be integers"):
            cond.forward(x, 0, labels=bad)
    out = cond.forward(x, 0, labels=np.array([2, 0]))
    assert out.shape == (2, 1, 8, 8)
    # at init the zero modulation hides the conditioning; the vector
    # itself must differ, and the output too once modulation is live
    va = cond.condition(0, 2, labels=np.array([2, 0]))
    vb = cond.condition(0, 2, labels=np.array([1, 0]))
    assert np.abs(va.data - vb.data).max() > 0
    cond.blocks[0].mod_w.assign_(np.full((8, 48), 0.05))
    a = cond.forward(x, 0, labels=np.array([2, 0]))
    b = cond.forward(x, 0, labels=np.array([1, 0]))
    assert np.abs(a.data - b.data).max() > 0


# ---------------------------------------------------------------------------
# init determinism and parameter plumbing
# ---------------------------------------------------------------------------

def test_init_is_seed_deterministic():
    a = ToyDiT(tiny_cfg(), Rng(7)).named_parameters()
    b = ToyDiT(tiny_cfg(), Rng(7)).named_parameters()
    c = ToyDiT(tiny_cfg(), Rng(8)).named_parameters()
    assert set(a) == set(b) == set(c)
    for name in a:
        assert (a[name].data == b[name].data).all(), name
    assert any((a[n].data != c[n].data).any() for n in a)


def test_parameter_names_follow_schedule():
    model = ToyDiT(tiny_cfg(fractions=(0.0, 1.0)), Rng(0))
    names = set(model.named_parameters())
    # layer 0 is bridge-only, layer 1 window-only
    assert "blocks.0.bridge.dw" in names and "blocks.0.attn.w_q" not in names
    assert "blocks.1.attn.w_q" in names and "blocks.1.bridge.dw" not in names
    assert "blocks.1.win.bias_table" in names and "blocks.0.win.bias_table" not in names


def test_load_state_roundtrip_and_strictness(np_rng):
    model = ToyDiT(tiny_cfg(), Rng(0))
    state = {k: v.data + np_rng.normal(size=v.shape) for k, v in model.named_parameters().items()}
    model.load_state(state)
    for k, v in model.named_parameters().items():
        np.testing.assert_array_equal(v.data, state[k])
    with pytest.raises(ConfigurationError):
        model.load_state({k: v for k, v in state.items() if k != "head.w"})
    state["bogus"] = np.zeros(1)
    with pytest.raises(ConfigurationError):
        model.load_state(state)


def test_config_dict_roundtrip():
    for cfg in [tiny_cfg(), tiny_cfg(fractions=(0.5, 0.5), class_count=4)]:
        d = write_fields(cfg)
        json.dumps(d)  # must be serializable as-is
        assert ToyDiTConfig(**read_fields(ToyDiTConfig, d, "model_config")) == cfg


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip_bitexact(tmp_path, np_rng):
    cfg = tiny_cfg(class_count=2)
    model = ToyDiT(cfg, Rng(4))
    # dirty the parameters so we are not just reloading the init
    for t in model.named_parameters().values():
        t.assign_(t.data + np_rng.normal(size=t.shape))
    rng = Rng(99).split("train")
    rng.normal((3,))  # advance the stream mid-run
    save_checkpoint(tmp_path / "ckpt", model, step=17, rng=rng, extra={"loss": 0.25})
    expected_next = rng.normal((4,))

    assert {p.name for p in (tmp_path / "ckpt").iterdir()} == {"manifest.json", "params.pswt"}
    manifest, loaded, resumed = load_checkpoint(tmp_path / "ckpt")
    assert "params" not in manifest
    assert manifest["step"] == 17
    assert manifest["extra"] == {"loss": 0.25}
    assert loaded.cfg == cfg
    src, dst = model.named_parameters(), loaded.named_parameters()
    assert set(src) == set(dst)
    for name in src:
        assert (src[name].data == dst[name].data).all(), name
    # the resumed stream continues exactly where the saved one would have
    np.testing.assert_array_equal(resumed.normal((4,)), expected_next)


def test_checkpoint_overwrite_is_atomic(tmp_path, monkeypatch):
    ckpt = tmp_path / "ckpt"
    save_checkpoint(ckpt, ToyDiT(tiny_cfg(), Rng(0)), step=1, rng=Rng(0))
    save_checkpoint(ckpt, ToyDiT(tiny_cfg(), Rng(1)), step=2, rng=Rng(1))
    assert {p.name for p in ckpt.iterdir()} == {"manifest.json", "params.pswt"}  # no temporary left behind
    assert load_checkpoint(ckpt)[0]["step"] == 2
    old_manifest = (ckpt / "manifest.json").read_text()

    real_replace = os.replace

    def failing_replace(src, dst):
        if Path(dst).name == "manifest.json":
            raise OSError("injected failure at the manifest's replace")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="injected"):
        save_checkpoint(ckpt, ToyDiT(tiny_cfg(), Rng(2)), step=3, rng=Rng(2))
    monkeypatch.undo()
    assert (ckpt / "manifest.json").read_text() == old_manifest  # the old manifest, still valid JSON
    assert json.loads(old_manifest)["step"] == 2
    assert {p.name for p in ckpt.iterdir()} == {"manifest.json", "params.pswt"}
    with pytest.raises(ConfigurationError, match="sha256"):  # the new dump is refused, not loaded silently
        load_checkpoint(ckpt)


def _rewritten(corrupt_text):
    """Corrupt a checkpoint directory by rewriting its manifest's text."""
    def corrupt(ckpt):
        path = ckpt / "manifest.json"
        path.write_text(corrupt_text(path.read_text()))
    return corrupt


def _edited(edit):
    """Corrupt a checkpoint directory by editing its parsed manifest."""
    def corrupt_text(text):
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc)
    return _rewritten(corrupt_text)


def _redumped(values, record_digest=True):
    """Replace params.pswt by ``values(flat)``; with ``record_digest`` the
    manifest gets the new dump's sha256, so the pair is consistent."""
    def corrupt(ckpt):
        dump = ckpt / "params.pswt"
        dump_tensor(values(load_tensor(dump).data), dump)
        if record_digest:
            digest = hashlib.sha256(dump.read_bytes()).hexdigest()
            _edited(lambda d: d.update(params_sha256=digest))(ckpt)
    return corrupt


@pytest.mark.parametrize("corrupt, error, match", [
    pytest.param(_edited(lambda d: d.update(format=1)), UsageError, "format", id="format_1"),
    pytest.param(_rewritten(lambda text: text[: len(text) // 2]), ConfigurationError, "JSON", id="truncated"),
    pytest.param(_edited(lambda d: d.pop("rng")), ConfigurationError, "rng", id="no_rng"),
    pytest.param(_edited(lambda d: d["model_config"].update(depth="2")), ConfigurationError, "depth", id="depth_str"),
    pytest.param(_edited(lambda d: d["model_config"].update(f_strat=0.5)), ConfigurationError, "f_strat", id="unknown_key"),
    pytest.param(_edited(lambda d: d.update(rng={})), ConfigurationError, "rng is not", id="rng_empty"),
    pytest.param(_edited(lambda d: d["rng"].pop("philox")), ConfigurationError, "rng is not", id="rng_no_philox"),
    pytest.param(_edited(lambda d: d["rng"].update(seed=1.5)), ConfigurationError, "rng is not", id="rng_seed_float"),
    pytest.param(_edited(lambda d: d["rng"].update(seed=-1)), ConfigurationError, "rng is not", id="rng_seed_negative"),
    pytest.param(_edited(lambda d: d["rng"]["philox"].update(key=[1.5, 2])), ConfigurationError, "rng is not", id="rng_key_float"),
    pytest.param(_edited(lambda d: d["rng"].update(path=[1, 2, 3])), ConfigurationError, "rng is not", id="rng_path_long"),
    pytest.param(_edited(lambda d: d["rng"]["philox"].update(buffer_pos=99)), ConfigurationError, "rng is not", id="rng_buffer_pos_99"),
    pytest.param(_edited(lambda d: d["rng"]["philox"].update(has_uint32=7)), ConfigurationError, "rng is not", id="rng_has_uint32_7"),
    pytest.param(_edited(lambda d: d.pop("params_sha256")), ConfigurationError, "params_sha256", id="no_digest"),
    pytest.param(_edited(lambda d: d.update(step="x")), ConfigurationError, "step must be", id="step_str"),
    pytest.param(_edited(lambda d: d.pop("step")), ConfigurationError, "lacks step", id="step_missing"),
    pytest.param(_edited(lambda d: d.update(step=-1)), ConfigurationError, "step must be", id="step_negative"),
    pytest.param(_edited(lambda d: d.update(step=True)), ConfigurationError, "step must be", id="step_bool"),
    pytest.param(_redumped(lambda flat: flat[:-1]), ConfigurationError, "float64, but", id="dump_short"),
    pytest.param(_redumped(lambda flat: flat.astype(np.float32)), ConfigurationError, "float32, but", id="dump_f32"),
    pytest.param(_redumped(lambda flat: flat + 1.0, record_digest=False), ConfigurationError, "sha256", id="dump_torn"),
    pytest.param(lambda ckpt: (ckpt / "params.pswt").unlink(), OSError, "params.pswt", id="dump_missing"),
])
def test_checkpoint_rejects_unknown_format(tmp_path, corrupt, error, match):
    model = ToyDiT(tiny_cfg(), Rng(0))
    save_checkpoint(tmp_path / "ckpt", model, step=0, rng=Rng(0))
    corrupt(tmp_path / "ckpt")
    with pytest.raises(error, match=match):
        load_checkpoint(tmp_path / "ckpt")