import json

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
from pswa.numerics import Rng, Tensor
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
    out = block_forward(tokens, cond, model.blocks[0], model.layer_configs[0])
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
    assert model.schedule is None
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

    manifest, loaded, resumed = load_checkpoint(tmp_path / "ckpt")
    assert manifest["step"] == 17
    assert manifest["extra"] == {"loss": 0.25}
    assert loaded.cfg == cfg
    src, dst = model.named_parameters(), loaded.named_parameters()
    assert set(src) == set(dst)
    for name in src:
        assert (src[name].data == dst[name].data).all(), name
    # the resumed stream continues exactly where the saved one would have
    np.testing.assert_array_equal(resumed.normal((4,)), expected_next)


def _edited(edit):
    def corrupt(text):
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc)
    return corrupt


@pytest.mark.parametrize("corrupt, error, match", [
    pytest.param(_edited(lambda d: d.update(format=2)), UsageError, "format", id="format_2"),
    pytest.param(lambda text: text[: len(text) // 2], ConfigurationError, "JSON", id="truncated"),
    pytest.param(_edited(lambda d: d.pop("rng")), ConfigurationError, "rng", id="no_rng"),
    pytest.param(_edited(lambda d: d["model_config"].update(depth="2")), ConfigurationError, "depth", id="depth_str"),
    pytest.param(_edited(lambda d: d["model_config"].update(f_strat=0.5)), ConfigurationError, "f_strat", id="unknown_key"),
    pytest.param(_edited(lambda d: d.update(rng={})), ConfigurationError, "rng is not", id="rng_empty"),
    pytest.param(_edited(lambda d: d["rng"].pop("philox")), ConfigurationError, "rng is not", id="rng_no_philox"),
    pytest.param(_edited(lambda d: d["rng"].update(seed=1.5)), ConfigurationError, "rng is not", id="rng_seed_float"),
    pytest.param(_edited(lambda d: d["rng"].update(seed=-1)), ConfigurationError, "rng is not", id="rng_seed_negative"),
    pytest.param(_edited(lambda d: d["rng"]["philox"].update(key=[1.5, 2])), ConfigurationError, "rng is not", id="rng_key_float"),
    pytest.param(_edited(lambda d: d["rng"].update(path=[1, 2, 3])), ConfigurationError, "rng is not", id="rng_path_long"),
    pytest.param(_edited(lambda d: d.update(params=["a"])), ConfigurationError, "params must", id="params_list"),
    pytest.param(_edited(lambda d: d["params"].update({"head.b": 3})), ConfigurationError, "params must", id="params_entry_int"),
])
def test_checkpoint_rejects_unknown_format(tmp_path, corrupt, error, match):
    model = ToyDiT(tiny_cfg(), Rng(0))
    save_checkpoint(tmp_path / "ckpt", model, step=0, rng=Rng(0))
    manifest_path = tmp_path / "ckpt" / "manifest.json"
    manifest_path.write_text(corrupt(manifest_path.read_text()))
    with pytest.raises(error, match=match):
        load_checkpoint(tmp_path / "ckpt")