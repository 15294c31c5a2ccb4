import numpy as np
import pytest
from oracles import block_window_mask, expand_window_bias, masked_full_attention_oracle

from pswa.attention import (
    WindowSpec,
    relative_position_index,
    window_attention,
    window_merge,
    window_partition,
)
from pswa.errors import ConfigurationError, DegenerateMapError, DimensionError
from pswa.numerics import Rng, Tensor


def make_spec(wh, ww, channels, heads, seed, bias_seed=None, std=0.4, bias_std=0.3):
    """Projections drawn from Rng(seed); the bias table stays zero unless bias_seed is given."""
    spec = WindowSpec.create(wh, ww, channels, heads, Rng(seed), std=std)
    if bias_seed is not None:
        spec.bias_table.assign_(Rng(bias_seed).split("bias").normal(spec.bias_table.shape, std=bias_std))
    return spec


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def test_window_partition_layout_frozen():
    # 4x4 grid, 2x2 windows, 1 channel holding the flat token index.
    x = Tensor(np.arange(16.0).reshape(1, 4, 4, 1))
    spec = make_spec(2, 2, 1, 1, seed=0)
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
        spec = make_spec(wh, ww, 1, 1, seed=0)
        wins = window_partition(Tensor(x), spec)
        back = window_merge(wins, spec, 2, h, w)
        assert (back.data == x).all()


def test_partition_rejects_nondivisible():
    spec = make_spec(2, 2, 1, 1, seed=0)
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


def _projections(c):
    return [Tensor(np.zeros((c, c))) for _ in range(4)]


def test_window_spec_validates_table_shape():
    with pytest.raises(DimensionError):
        WindowSpec(2, 2, Tensor(np.zeros((2, 8))), *_projections(4))  # needs 9 columns
    with pytest.raises(DimensionError, match="heads >= 1"):
        WindowSpec(2, 2, Tensor(np.zeros((0, 9))), *_projections(4))  # no head at all
    with pytest.raises(DimensionError, match="heads >= 1"):
        WindowSpec.create(2, 2, 4, 0, Rng(0))
    with pytest.raises(DimensionError, match="w_v must be square"):
        WindowSpec(2, 2, Tensor(np.zeros((2, 9))), *_projections(4)[:2], Tensor(np.zeros((4, 2))), Tensor(np.zeros((4, 4))))


@pytest.mark.parametrize("sizes, error", [
    ((2, 2, 4, -1), DimensionError),
    ((2, 2, -4, 2), DimensionError),
    ((2, 2, 0, 1), DimensionError),
    ((0, 2, 4, 1), ConfigurationError),
    ((2, -1, 4, 1), ConfigurationError),
])
def test_window_spec_create_refuses_bad_sizes_before_drawing(sizes, error, no_draws):
    # a negative head count or width reached np.zeros / Rng.normal and leaked numpy's ValueError
    with pytest.raises(error):
        WindowSpec.create(*sizes, no_draws)


def test_window_spec_heads_are_the_bias_table_rows():
    # the head count has one owner: a table whose rows do not divide the projection is refused
    with pytest.raises(ConfigurationError, match="channels 4 not divisible by num_heads 3"):
        WindowSpec(2, 2, Tensor(np.zeros((3, 9))), *_projections(4))
    spec = WindowSpec(2, 2, Tensor(np.zeros((2, 9))), *_projections(4))
    assert (spec.num_heads, spec.channels, spec.head_dim) == (2, 4, 2)


def test_window_spec_create_draws_named_streams():
    rng = Rng(0)
    with pytest.raises(ConfigurationError):
        WindowSpec.create(2, 2, 6, 4, rng)  # 6 % 4 != 0
    good = WindowSpec.create(2, 3, 8, 4, rng, std=0.5)
    assert (good.head_dim, good.channels, good.num_heads, good.tokens) == (2, 8, 4, 6)
    assert good.bias_table.shape == (4, 15) and not good.bias_table.data.any()
    for name in ("w_q", "w_k", "w_v", "w_o"):
        np.testing.assert_array_equal(getattr(good, name).data, rng.split(name).normal((8, 8), std=0.5))
    assert list(good.parameters()) == ["win.bias_table", "attn.w_q", "attn.w_k", "attn.w_v", "attn.w_o"]


# ---------------------------------------------------------------------------
# behavior
# ---------------------------------------------------------------------------

def test_whole_grid_window_maps_are_row_stochastic(np_rng):
    # dense attention is the window covering the whole grid, as the dense arm runs it
    spec = make_spec(2, 3, 8, 2, seed=0, bias_seed=0)
    x = Tensor(np_rng.normal(size=(2, 2, 3, 8)))
    y, maps = window_attention(x, spec)
    assert y.shape == (2, 2, 3, 8)
    assert maps.shape == (2, 2, 6, 6)
    np.testing.assert_allclose(maps.data.sum(axis=-1), 1.0, atol=1e-12)


def test_window_attention_equals_masked_oracle_with_bias(np_rng):
    # the core equivalence: windowed fast path == dense oracle restricted
    # to a block-diagonal mask, including the relative-position bias
    # the last row's window is the whole grid: dense attention, bias included
    for wh, ww, h, w, c, heads in [(2, 2, 4, 4, 6, 2), (1, 1, 3, 3, 4, 1), (2, 4, 4, 8, 8, 4), (4, 4, 4, 4, 6, 3)]:
        spec = make_spec(wh, ww, c, heads, seed=h * w + c, bias_seed=17 * wh + ww)
        x = np_rng.normal(size=(2, h, w, c))
        fast, _ = window_attention(Tensor(x), spec)

        mask = block_window_mask(h, w, wh, ww)
        bias_full = expand_window_bias(spec.bias_matrix().data, h, w, wh, ww)
        slow = masked_full_attention_oracle(x.reshape(2, h * w, c), spec, mask, bias=bias_full)
        np.testing.assert_allclose(fast.data.reshape(2, h * w, c), slow, atol=1e-10)


def test_window_attention_bias_changes_output(np_rng):
    x = Tensor(np_rng.normal(size=(1, 4, 4, 4)))
    zero_spec = make_spec(2, 2, 4, 2, seed=3)
    biased_spec = make_spec(2, 2, 4, 2, seed=3, bias_seed=5)
    a = window_attention(x, zero_spec)[0].data
    b = window_attention(x, biased_spec)[0].data
    assert np.abs(a - b).max() > 1e-6


def test_one_by_one_windows_attend_to_self_only(np_rng):
    spec = make_spec(1, 1, 4, 1, seed=9)
    x = Tensor(np_rng.normal(size=(1, 3, 3, 4)))
    out, maps = window_attention(x, spec)
    np.testing.assert_array_equal(maps.data, np.ones((9, 1, 1, 1)))
    # each token's output is v(x) @ w_o of itself
    flat = x.data.reshape(9, 4)
    expected = flat @ spec.w_v.data @ spec.w_o.data
    np.testing.assert_allclose(out.data.reshape(9, 4), expected, atol=1e-12)


def test_channel_mismatch_rejected():
    spec = make_spec(2, 2, 4, 2, seed=1, bias_seed=1)
    with pytest.raises(DimensionError, match="token channels 6 != projection size 4"):
        window_attention(Tensor(np.zeros((1, 4, 4, 6))), spec)
    with pytest.raises(DimensionError, match=r"\[B, H, W, C\], got \(4, 4, 4\)"):
        window_attention(Tensor(np.zeros((4, 4, 4))), spec)
    with pytest.raises(DimensionError, match=r"\[B, H, W, C\], got \(1, 4, 4, 4, 1\)"):
        window_attention(Tensor(np.zeros((1, 4, 4, 4, 1))), spec)


# ---------------------------------------------------------------------------
# oracle self-checks
# ---------------------------------------------------------------------------

def test_oracle_fully_masked_row_raises():
    spec = make_spec(1, 1, 4, 1, seed=2)
    mask = np.ones((3, 3), dtype=bool)
    mask[1, :] = False
    with pytest.raises(DegenerateMapError):
        masked_full_attention_oracle(np.zeros((1, 3, 4)), spec, mask)


def test_oracle_mask_blocks_information_flow(np_rng):
    # with an identity mask every token can only see itself
    spec = make_spec(1, 1, 4, 2, seed=4)
    x = np_rng.normal(size=(1, 5, 4))
    out = masked_full_attention_oracle(x, spec, np.eye(5, dtype=bool))
    expected = x[0] @ spec.w_v.data @ spec.w_o.data
    np.testing.assert_allclose(out[0], expected, atol=1e-12)


def test_block_window_mask_frozen():
    mask = block_window_mask(2, 4, 2, 2)
    # tokens 0,1,4,5 share the left window; 2,3,6,7 the right
    left = [0, 1, 4, 5]
    for i in left:
        for j in range(8):
            assert mask[i, j] == (j in left)

