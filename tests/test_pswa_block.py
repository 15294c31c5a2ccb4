import numpy as np
import pytest
from oracles import brute_neighborhood, brute_similarity

from pswa.attention import AttentionParams, WindowSpec, window_attention
from pswa.block import (
    BridgeParams,
    PSWALayerConfig,
    PCCASchedule,
    aggregate_neighborhood,
    bridge_branch,
    channel_split,
    coverage_schedule,
    kth_neighborhood,
    kth_order_similarity,
    pswa_forward,
)
from pswa.errors import ConfigurationError, DimensionError, DomainError
from pswa.model import ToyDiT, ToyDiTConfig
from pswa.numerics import Rng, Tensor


def layer_cfg(c, h, order=2, heads=None):
    """A c-channel mixing stage: h window channels, a kernel-(2*order-1) bridge on the rest."""
    heads = heads if heads is not None else max(1, h // 2)
    spec = WindowSpec.create(2, 2, heads) if h else None
    attn = AttentionParams.create(h, heads, Rng(0), std=0.3) if h else None
    bridge = BridgeParams.create(c - h, 2 * order - 1, Rng(1), std=0.3) if c - h else None
    return PSWALayerConfig(spec, attn, bridge)


# ---------------------------------------------------------------------------
# split / branches / reassembly
# ---------------------------------------------------------------------------

def test_channel_split_edges(np_rng):
    x = Tensor(np_rng.normal(size=(1, 2, 2, 6)))
    for h in (0, 2, 6):
        cfg = layer_cfg(6, h, heads=1)
        assert (cfg.window_channels, cfg.bridge_channels, cfg.total_channels) == (h, 6 - h, 6)
        a, b = channel_split(x, cfg)
        assert a.shape == (1, 2, 2, h)
        assert b.shape == (1, 2, 2, 6 - h)
        np.testing.assert_array_equal(np.concatenate([a.data, b.data], axis=3), x.data)


def test_pswa_forward_is_composition_of_branches(np_rng):
    # the mixed block must equal running each branch alone on its slice
    c, h = 8, 4
    cfg = layer_cfg(c, h, heads=2)
    x = Tensor(np_rng.normal(size=(2, 4, 4, c)))

    out, maps = pswa_forward(x, cfg, return_maps=True)

    x_win = Tensor(x.data[..., :h].copy())
    x_bridge = Tensor(x.data[..., h:].copy())
    want_win = window_attention(x_win, cfg.attn, cfg.window_spec)
    want_bridge = bridge_branch(x_bridge, cfg.bridge)
    np.testing.assert_array_equal(out.data[..., :h], want_win.data)
    np.testing.assert_array_equal(out.data[..., h:], want_bridge.data)
    assert maps.shape == (2 * 4, 2, 4, 4)


def test_pswa_forward_all_window(np_rng):
    cfg = layer_cfg(4, 4, heads=2)
    assert cfg.bridge is None
    x = Tensor(np_rng.normal(size=(1, 4, 4, 4)))
    out = pswa_forward(x, cfg)
    want = window_attention(x, cfg.attn, cfg.window_spec)
    np.testing.assert_array_equal(out.data, want.data)


def test_pswa_forward_all_bridge(np_rng):
    cfg = layer_cfg(4, 0, order=3)
    assert cfg.attn is None and cfg.window_spec is None
    x = Tensor(np_rng.normal(size=(1, 6, 6, 4)))
    out, maps = pswa_forward(x, cfg, return_maps=True)
    assert maps is None
    want = bridge_branch(x, cfg.bridge)
    np.testing.assert_array_equal(out.data, want.data)


def test_pswa_forward_validates_params(np_rng):
    x = Tensor(np_rng.normal(size=(1, 4, 4, 8)))
    spec = WindowSpec.create(2, 2, 2)
    # attention sized for 8 channels makes the stage 12 wide, against an 8-channel input
    cfg = PSWALayerConfig(spec, AttentionParams.create(8, 2, Rng(0)), BridgeParams.create(4, 3, Rng(0)))
    with pytest.raises(DimensionError, match="12.*8"):
        pswa_forward(x, cfg)
    # bridge params sized for 6 channels make it 10 wide
    cfg = PSWALayerConfig(spec, AttentionParams.create(4, 2, Rng(0)), BridgeParams.create(6, 3, Rng(0)))
    with pytest.raises(DimensionError, match="10.*8"):
        pswa_forward(x, cfg)
    with pytest.raises(DimensionError, match="6.*4"):
        bridge_branch(Tensor(np_rng.normal(size=(1, 4, 4, 4))), BridgeParams.create(6, 3, Rng(0)))
    # a bias table with 1 head against 2-head attention params
    cfg = PSWALayerConfig(WindowSpec.create(2, 2, 1), cfg.attn, None)
    with pytest.raises(ConfigurationError, match="1 heads.*2"):
        pswa_forward(Tensor(x.data[..., :4]), cfg)


def test_bridge_kernel_tracks_order():
    # the model sizes every bridge kernel 2K - 1 from the configured order K
    for order, kernel in [(1, 1), (2, 3), (3, 5), (5, 9)]:
        cfg = ToyDiTConfig(image_h=8, image_w=8, d_model=8, depth=3, num_heads=2, order=order, f_end=0.5)
        bridges = [layer.bridge for layer in ToyDiT(cfg, Rng(0)).layer_configs]
        assert len(bridges) == 3 and all(b is not None for b in bridges)
        for b in bridges:
            assert b.depthwise.shape[1:] == (kernel, kernel)


def test_bridge_identity_configuration(np_rng):
    # delta depthwise stencil + identity pointwise + zero bias == identity map
    c, k = 3, 3
    dw = np.zeros((c, k, k))
    dw[:, 1, 1] = 1.0
    params = BridgeParams(Tensor(dw), Tensor(np.eye(c)), Tensor(np.zeros(c)))
    x = np_rng.normal(size=(2, 4, 5, c))
    out = bridge_branch(Tensor(x), params)
    np.testing.assert_allclose(out.data, x, atol=1e-12)


def test_layer_config_validation():
    spec, attn = WindowSpec.create(2, 2, 2), AttentionParams.create(4, 2, Rng(0))
    bridge = BridgeParams.create(4, 3, Rng(0))
    with pytest.raises(ConfigurationError, match="together"):
        PSWALayerConfig(None, attn, bridge)  # attention without its window
    with pytest.raises(ConfigurationError, match="together"):
        PSWALayerConfig(spec, None, bridge)  # a window without attention
    with pytest.raises(ConfigurationError, match="branch"):
        PSWALayerConfig(None, None, None)  # no branch at all
    assert PSWALayerConfig(spec, attn, bridge).total_channels == 8


# ---------------------------------------------------------------------------
# coverage schedule
# ---------------------------------------------------------------------------

def test_schedule_frozen_reference_case():
    # 4 layers, 16 channels, head width 4, fractions 0.25 -> 0.75:
    # raw fractions (.25, .4166.., .5833.., .75) -> 4, 8, 8, 12 channels
    sched = coverage_schedule(4, 0.25, 0.75, 16, 4)
    assert sched.window_channels == (4, 8, 8, 12)
    assert sched.bridge_channels == (12, 8, 8, 4)
    assert sched.fractions == (0.25, 0.5, 0.5, 0.75)
    assert sched.monotone_nondecreasing


def test_schedule_single_layer_uses_endpoint():
    assert coverage_schedule(1, 0.0, 0.5, 8, 2).window_channels == (4,)


def test_schedule_full_and_zero_coverage():
    assert coverage_schedule(3, 1.0, 1.0, 12, 4).window_channels == (12, 12, 12)
    assert coverage_schedule(3, 0.0, 0.0, 12, 4).window_channels == (0, 0, 0)


def test_schedule_step_mode():
    sched = coverage_schedule(4, 0.0, 1.0, 8, 2, mode="step")
    assert sched.window_channels == (0, 0, 8, 8)


def test_schedule_cosine_mode_monotone():
    sched = coverage_schedule(6, 0.1, 0.9, 32, 4, mode="cosine")
    widths = sched.window_channels
    assert all(a <= b for a, b in zip(widths, widths[1:]))
    assert widths[0] <= widths[-1]
    # cosine starts slower than linear
    lin = coverage_schedule(6, 0.1, 0.9, 32, 4, mode="linear").window_channels
    assert widths[1] <= lin[1]


def test_schedule_rounds_half_up_to_head_multiples():
    # fraction .375 of 16 with head width 4 -> 6/4 = 1.5 units -> 2 units -> 8
    sched = PCCASchedule.from_fractions([0.375], 16, 4)
    assert sched.window_channels == (8,)
    for h in coverage_schedule(5, 0.13, 0.77, 24, 4).window_channels:
        assert h % 4 == 0


def test_schedule_rejects_bad_inputs():
    with pytest.raises(ConfigurationError):
        coverage_schedule(0, 0.0, 1.0, 8, 2)
    with pytest.raises(ConfigurationError):
        coverage_schedule(2, 0.5, 0.25, 8, 2)  # shrinking coverage
    with pytest.raises(ConfigurationError):
        coverage_schedule(2, -0.1, 0.5, 8, 2)
    with pytest.raises(ConfigurationError):
        coverage_schedule(2, 0.0, 1.5, 8, 2)
    with pytest.raises(ConfigurationError):
        coverage_schedule(2, 0.0, 1.0, 8, 2, mode="geometric")
    with pytest.raises(ConfigurationError):
        PCCASchedule(7, 2, (2, 4))  # C not a head multiple
    with pytest.raises(ConfigurationError):
        PCCASchedule(8, 2, (3,))  # width not a head multiple
    with pytest.raises(ConfigurationError):
        PCCASchedule(8, 2, (10,))  # width beyond C


def test_schedule_type_admits_nonmonotone_arms():
    # hand-written ablation arms may decrease with depth; the flag reports it
    sched = PCCASchedule.from_fractions([0.75, 0.5, 0.5, 0.25], 16, 4)
    assert sched.window_channels == (12, 8, 8, 4)
    assert not sched.monotone_nondecreasing


# ---------------------------------------------------------------------------
# order-K neighborhoods and similarity
# ---------------------------------------------------------------------------

def test_neighborhood_matches_brute_everywhere():
    for order in range(1, 6):
        for hgt, wid in [(1, 1), (3, 3), (5, 7), (16, 16)]:
            for r in range(hgt):
                for c in range(wid):
                    fast = kth_neighborhood((r, c), order, (hgt, wid))
                    assert list(fast.members) == brute_neighborhood((r, c), order, (hgt, wid))


def test_neighborhood_sizes():
    # interior neighborhoods hit the full (2K-1)^2 square
    for order in range(1, 5):
        hood = kth_neighborhood((8, 8), order, (20, 20))
        assert hood.size == (2 * order - 1) ** 2
    # order 1 is the singleton everywhere
    assert kth_neighborhood((0, 0), 1, (4, 4)).members == ((0, 0),)
    # corner clipping
    assert kth_neighborhood((0, 0), 2, (4, 4)).size == 4


def test_neighborhood_rejects_offgrid_center():
    with pytest.raises(DomainError):
        kth_neighborhood((4, 0), 2, (4, 4))
    with pytest.raises(DomainError):
        kth_neighborhood((0, -1), 2, (4, 4))
    with pytest.raises(ConfigurationError):
        kth_neighborhood((0, 0), 0, (4, 4))


def test_similarity_matches_brute(np_rng):
    for order in (1, 2, 3):
        side = 2 * order - 1
        feats = np_rng.normal(size=(6, 7, 5))
        alpha = np_rng.normal(size=(side, side))
        for _ in range(20):
            i = (int(np_rng.integers(6)), int(np_rng.integers(7)))
            j = (int(np_rng.integers(6)), int(np_rng.integers(7)))
            got = kth_order_similarity(feats, i, j, order, alpha)
            want = brute_similarity(feats, i, j, order, alpha)
            assert abs(got - want) < 1e-12


def test_similarity_per_channel_alpha_and_slices(np_rng):
    feats = np_rng.normal(size=(5, 5, 6))
    alpha = np_rng.normal(size=(6, 3, 3))
    got = kth_order_similarity(feats, (2, 2), (1, 3), 2, alpha, channels=(2, 5))
    want = brute_similarity(feats, (2, 2), (1, 3), 2, alpha, channels=(2, 5))
    assert abs(got - want) < 1e-12


def test_similarity_order1_unit_stencil_is_pairwise_logit(np_rng):
    # with K=1, a unit stencil, and separately projected q/k maps, the
    # similarity IS the attention logit q_i . k_j
    c, heads = 6, 2
    params = AttentionParams.create(c, heads, Rng(7), std=0.4)
    x = np_rng.normal(size=(4, 4, c))
    q = x.reshape(16, c) @ params.w_q.data
    k = x.reshape(16, c) @ params.w_k.data
    qmap, kmap = q.reshape(4, 4, c), k.reshape(4, 4, c)
    alpha = np.ones((1, 1))
    for i_flat, j_flat in [(0, 5), (3, 3), (10, 15)]:
        i, j = divmod(i_flat, 4), divmod(j_flat, 4)
        got = kth_order_similarity(qmap, i, j, 1, alpha, psi_features=kmap)
        want = float(q[i_flat] @ k[j_flat])
        assert abs(got - want) < 1e-12
        # per-head logit: restrict to one head's projected slice
        d = c // heads
        got_h = kth_order_similarity(qmap, i, j, 1, alpha, psi_features=kmap, channels=(d, 2 * d))
        want_h = float(q[i_flat, d:] @ k[j_flat, d:])
        assert abs(got_h - want_h) < 1e-12


def test_aggregate_rejects_bad_alpha(np_rng):
    feats = np_rng.normal(size=(4, 4, 3))
    with pytest.raises(DimensionError):
        aggregate_neighborhood(feats, (1, 1), 2, np.ones((2, 2)))
    with pytest.raises(DimensionError):
        aggregate_neighborhood(feats, (1, 1), 2, np.ones((5, 3, 3)))
    with pytest.raises(DimensionError):
        aggregate_neighborhood(np_rng.normal(size=(4, 4)), (1, 1), 2, np.ones((3, 3)))


def test_similarity_channel_slice_bounds(np_rng):
    feats = np_rng.normal(size=(4, 4, 3))
    with pytest.raises(DimensionError):
        kth_order_similarity(feats, (0, 0), (1, 1), 1, np.ones((1, 1)), channels=(0, 4))
    with pytest.raises(DimensionError):
        kth_order_similarity(feats, (0, 0), (1, 1), 1, np.ones((1, 1)), channels=(2, 1))