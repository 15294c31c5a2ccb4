import numpy as np
import pytest
from oracles import block_window_mask, expand_window_bias, masked_full_attention_oracle

from pswa.attention import (
    AttentionParams,
    WindowSpec,
    relative_position_index,
    window_attention,
    window_merge,
    window_partition,
)
from pswa.errors import ConfigurationError, DegenerateMapError, DimensionError
from pswa.numerics import Rng, Tensor


def make_params(channels, heads, seed, std=0.4):
    return AttentionParams.create(channels, heads, Rng(seed), std=std)


def make_spec(wh, ww, heads, seed, std=0.3):
    table = Tensor(Rng(seed).split("bias").normal((heads, (2 * wh - 1) * (2 * ww - 1)), std=std), requires_grad=True)
    return WindowSpec(wh, ww, table)


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def test_window_partition_layout_frozen():
    # 4x4 grid, 2x2 windows, 1 channel holding the flat token index.
    x = Tensor(np.arange(16.0).reshape(1, 4, 4, 1))
    spec = WindowSpec.create(2, 2, num_heads=1)
    wins = window_partition(x, spec).data[..., 0]
    expected = np.array(
        [
            [0, 1, 4, 5],      # top-left window, row-major inside
            [2, 3, 6, 7],      # top-right
            [8, 9, 12, 13],    # bottom-left
            [10, 11, 14, 15],  # bottom-right
        ],
        dtype=np.float64,
    )
    np.testing.assert_array_equal(wins, expected)


def test_partition_merge_roundtrip_bitexact(np_rng):
    for wh, ww, h, w in [(1, 1, 3, 5), (2, 2, 4, 6), (2, 3, 4, 6), (4, 4, 8, 8)]:
        x = np_rng.normal(size=(2, h, w, 5))
        spec = WindowSpec.create(wh, ww, num_heads=1)
        wins = window_partition(Tensor(x), spec)
        back = window_merge(wins, spec, 2, h, w)
        assert (back.data == x).all()


def test_partition_rejects_nondivisible():
    spec = WindowSpec.create(2, 2, num_heads=1)
    with pytest.raises(ConfigurationError):
        window_partition(Tensor(np.zeros((1, 5, 4, 3))), spec)
    with pytest.raises(ConfigurationError):
        window_merge(Tensor(np.zeros((4, 4, 3))), spec, 1, 4, 5)


def test_relative_position_index_properties():
    for wh, ww in [(1, 1), (2, 2), (2, 3), (4, 4)]:
        idx = relative_position_index(wh, ww)
        wn = wh * ww
        assert idx.shape == (wn * wn,)
        table_cols = (2 * wh - 1) * (2 * ww - 1)
        assert idx.min() >= 0 and idx.max() < table_cols
        # self-pairs all share the zero-offset slot
        center = (wh - 1) * (2 * ww - 1) + (ww - 1)
        self_pairs = idx.reshape(wn, wn).diagonal()
        assert (self_pairs == center).all()
        # every offset is realized for a full window
        assert len(set(idx.tolist())) == table_cols


def test_window_spec_validates_table_shape():
    with pytest.raises(DimensionError):
        WindowSpec(2, 2, Tensor(np.zeros((2, 8))))  # needs 9 columns


# ---------------------------------------------------------------------------
# behavior
# ---------------------------------------------------------------------------

def test_whole_grid_window_maps_are_row_stochastic(np_rng):
    # dense attention is the window covering the whole grid, as the dense arm runs it
    params = make_params(8, 2, seed=0)
    spec = make_spec(2, 3, 2, seed=0)
    x = Tensor(np_rng.normal(size=(2, 2, 3, 8)))
    y, maps = window_attention(x, params, spec)
    assert y.shape == (2, 2, 3, 8)
    assert maps.shape == (2, 2, 6, 6)
    np.testing.assert_allclose(maps.data.sum(axis=-1), 1.0, atol=1e-12)


def test_window_attention_equals_masked_oracle_with_bias(np_rng):
    # the core equivalence: windowed fast path == dense oracle restricted
    # to a block-diagonal mask, including the relative-position bias
    # the last row's window is the whole grid: dense attention, bias included
    for wh, ww, h, w, c, heads in [(2, 2, 4, 4, 6, 2), (1, 1, 3, 3, 4, 1), (2, 4, 4, 8, 8, 4), (4, 4, 4, 4, 6, 3)]:
        params = make_params(c, heads, seed=h * w + c)
        spec = make_spec(wh, ww, heads, seed=17 * wh + ww)
        x = np_rng.normal(size=(2, h, w, c))
        fast, _ = window_attention(Tensor(x), params, spec)

        mask = block_window_mask(h, w, wh, ww)
        bias_full = expand_window_bias(spec.bias_matrix().data, h, w, wh, ww)
        slow = masked_full_attention_oracle(x.reshape(2, h * w, c), params, mask, bias=bias_full)
        np.testing.assert_allclose(fast.data.reshape(2, h * w, c), slow, atol=1e-10)


def test_window_attention_bias_changes_output(np_rng):
    params = make_params(4, 2, seed=3)
    x = Tensor(np_rng.normal(size=(1, 4, 4, 4)))
    zero_spec = WindowSpec.create(2, 2, num_heads=2)
    biased_spec = make_spec(2, 2, 2, seed=5)
    a = window_attention(x, params, zero_spec)[0].data
    b = window_attention(x, params, biased_spec)[0].data
    assert np.abs(a - b).max() > 1e-6


def test_one_by_one_windows_attend_to_self_only(np_rng):
    params = make_params(4, 1, seed=9)
    spec = WindowSpec.create(1, 1, num_heads=1)
    x = Tensor(np_rng.normal(size=(1, 3, 3, 4)))
    out, maps = window_attention(x, params, spec)
    np.testing.assert_array_equal(maps.data, np.ones((9, 1, 1, 1)))
    # each token's output is v(x) @ w_o of itself
    flat = x.data.reshape(9, 4)
    expected = flat @ params.w_v.data @ params.w_o.data
    np.testing.assert_allclose(out.data.reshape(9, 4), expected, atol=1e-12)


def test_window_heads_mismatch_rejected(np_rng):
    params = make_params(4, 2, seed=1)
    spec = WindowSpec.create(2, 2, num_heads=3)
    with pytest.raises(ConfigurationError):
        window_attention(Tensor(np.zeros((1, 4, 4, 4))), params, spec)


def test_channel_mismatch_rejected():
    params = make_params(4, 2, seed=1)
    spec = make_spec(2, 2, 2, seed=1)
    with pytest.raises(DimensionError, match="token channels 6 != projection size 4"):
        window_attention(Tensor(np.zeros((1, 4, 4, 6))), params, spec)
    with pytest.raises(DimensionError, match=r"\[B, H, W, C\], got \(4, 4, 4\)"):
        window_attention(Tensor(np.zeros((4, 4, 4))), params, spec)
    with pytest.raises(DimensionError, match=r"\[B, H, W, C\], got \(1, 4, 4, 4, 1\)"):
        window_attention(Tensor(np.zeros((1, 4, 4, 4, 1))), params, spec)


# ---------------------------------------------------------------------------
# oracle self-checks
# ---------------------------------------------------------------------------

def test_oracle_fully_masked_row_raises():
    params = make_params(4, 1, seed=2)
    mask = np.ones((3, 3), dtype=bool)
    mask[1, :] = False
    with pytest.raises(DegenerateMapError):
        masked_full_attention_oracle(np.zeros((1, 3, 4)), params, mask)


def test_oracle_mask_blocks_information_flow(np_rng):
    # with an identity mask every token can only see itself
    params = make_params(4, 2, seed=4)
    x = np_rng.normal(size=(1, 5, 4))
    out = masked_full_attention_oracle(x, params, np.eye(5, dtype=bool))
    expected = x[0] @ params.w_v.data @ params.w_o.data
    np.testing.assert_allclose(out[0], expected, atol=1e-12)


def test_block_window_mask_frozen():
    mask = block_window_mask(2, 4, 2, 2)
    # tokens 0,1,4,5 share the left window; 2,3,6,7 the right
    left = [0, 1, 4, 5]
    for i in left:
        for j in range(8):
            assert mask[i, j] == (j in left)


def test_attention_params_validation():
    rng = Rng(0)
    with pytest.raises(ConfigurationError):
        AttentionParams.create(6, 4, rng)  # 6 % 4 != 0
    good = AttentionParams.create(8, 4, rng)
    assert good.head_dim == 2 and good.channels == 8