import math
import os
import struct
import subprocess
import sys
import textwrap
import weakref
from pathlib import Path

import numpy as np
import pytest

import pswa
from pswa.errors import DimensionError, NumericsError, UsageError
from pswa.numerics import (
    GradTape,
    OpNode,
    Rng,
    Tensor,
    debug_checks_enabled,
    dump_tensor,
    gradcheck,
    load_tensor,
    no_grad,
    ops,
    set_debug_checks,
    set_default_dtype,
    zeros,
)
from pswa.numerics.flops import count_flops


# ---------------------------------------------------------------------------
# tensor basics
# ---------------------------------------------------------------------------

def test_tensor_defaults_to_f64_contiguous():
    t = Tensor([[1, 2], [3, 4]])
    assert t.data.dtype == np.float64
    assert t.data.flags["C_CONTIGUOUS"]
    assert t.shape == (2, 2)
    assert not t.requires_grad


def test_f32_optin_via_default_dtype():
    set_default_dtype("f32")
    t = Tensor(np.ones(3))
    assert t.data.dtype == np.float32
    set_default_dtype("f64")


def test_non_finite_construction_rejected():
    with pytest.raises(NumericsError):
        Tensor([1.0, np.inf])
    with pytest.raises(NumericsError):
        Tensor([np.nan])


def test_debug_checks_catch_overflow_in_ops():
    assert not debug_checks_enabled()  # per-op checks are off unless asked for
    big = Tensor([1e308])
    with np.errstate(over="ignore"):
        out = ops.mul(big, big)  # allowed when checks are off
        assert np.isinf(out.data[0])
        set_debug_checks(True)
        with pytest.raises(NumericsError, match="op 'mul' produced non-finite values"):
            ops.mul(big, big)


def test_debug_checks_catch_non_finite_gradient():
    a = Tensor([1.0], requires_grad=True)
    y = ops.mul(a, Tensor([1e200]))
    with np.errstate(over="ignore"):
        y.backward(np.array([1e200]))  # unchecked: the contribution 1e400 lands in a.grad
        assert np.isinf(a.grad[0])
        set_debug_checks(True)
        with pytest.raises(NumericsError, match="op 'mul' produced a non-finite gradient"):
            y.backward(np.array([1e200]))


def test_assign_only_on_leaves():
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = ops.mul(a, a)
    with pytest.raises(UsageError):
        b.assign_([0.0, 0.0])
    a.assign_([5.0, 6.0])
    assert a.data.tolist() == [5.0, 6.0]
    with pytest.raises(DimensionError):
        a.assign_([1.0, 2.0, 3.0])
    with pytest.raises(NumericsError, match="assign_ with non-finite values"):  # checked with per-op checks off
        a.assign_([np.nan, 0.0])
    assert a.data.tolist() == [5.0, 6.0]


def test_backward_requires_scalar_without_seed():
    a = Tensor([1.0, 2.0], requires_grad=True)
    y = ops.mul(a, a)
    with pytest.raises(UsageError):
        y.backward()
    y.backward(seed=np.ones(2))
    np.testing.assert_array_equal(a.grad, [2.0, 4.0])


def test_diamond_graph_accumulates_both_paths():
    x = Tensor([3.0], requires_grad=True)
    y = ops.add(ops.mul(x, x), ops.mul(x, x))  # 2x^2, dy/dx = 4x
    y.backward(seed=np.ones(1))
    np.testing.assert_allclose(x.grad, [12.0])


def test_non_participating_input_has_no_gradient():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    b = Tensor(np.ones((2, 2)))  # constant
    out = ops.sum_(ops.mul(a, b))
    out.backward()
    assert b.grad is None
    np.testing.assert_array_equal(a.grad, np.ones((2, 2)))


def test_no_grad_suppresses_graph():
    a = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = ops.mul(a, a)
    assert y.node is None
    assert not y.requires_grad


# ---------------------------------------------------------------------------
# forward semantics
# ---------------------------------------------------------------------------

def test_matmul_matches_numpy(np_rng):
    for _ in range(20):
        a = np_rng.normal(size=(2, 3, 4))
        b = np_rng.normal(size=(4, 5))
        out = ops.matmul(Tensor(a), Tensor(b))
        np.testing.assert_array_equal(out.data, a @ b)


def test_matmul_shape_errors():
    with pytest.raises(DimensionError):
        ops.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))
    with pytest.raises(DimensionError):
        ops.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))


def test_softmax_rows_sum_to_one(np_rng):
    x = np_rng.normal(size=(6, 9)) * 5
    y = ops.softmax_rows(Tensor(x))
    np.testing.assert_allclose(y.data.sum(axis=-1), np.ones(6), atol=1e-15)
    assert (y.data > 0).all()


def test_softmax_invariant_to_row_shift(np_rng):
    x = np_rng.normal(size=(4, 7))
    shifted = x + np_rng.normal(size=(4, 1)) * 100
    a = ops.softmax_rows(Tensor(x)).data
    b = ops.softmax_rows(Tensor(shifted)).data
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_softmax_stable_at_large_logits():
    y = ops.softmax_rows(Tensor([[1000.0, 1000.0, -1000.0]]))
    np.testing.assert_allclose(y.data, [[0.5, 0.5, 0.0]], atol=1e-12)


def test_layernorm_moments(np_rng):
    x = np_rng.normal(size=(5, 8)) * 3 + 7
    y = ops.layernorm(Tensor(x)).data
    np.testing.assert_allclose(y.mean(axis=-1), 0, atol=1e-12)
    np.testing.assert_allclose(y.var(axis=-1), 1, atol=1e-5)  # eps-limited


def test_gelu_silu_fixed_points():
    x = Tensor([0.0])
    assert ops.gelu(x).data[0] == 0.0
    assert ops.silu(x).data[0] == 0.0
    # large positive ~ identity, large negative ~ zero
    big = Tensor([20.0, -20.0])
    np.testing.assert_allclose(ops.gelu(big).data, [20.0, 0.0], atol=1e-8)
    np.testing.assert_allclose(ops.silu(big).data, [20.0, 0.0], atol=1e-7)


def _gelu_tanh_formula(x):
    """GELU's tanh approximation and its derivative, restated with pow."""
    c = math.sqrt(2.0 / math.pi)
    a = 0.044715
    t = np.tanh(c * (x + a * x**3))
    dy = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * c * (1.0 + 3.0 * a * x**2)
    return 0.5 * x * (1.0 + t), dy


@pytest.mark.parametrize("precision, atol", [("f64", 1e-15), ("f32", 1e-6)])
def test_gelu_matches_tanh_formula(precision, atol):
    set_default_dtype(precision)
    sweep = np.random.default_rng(19).uniform(-30.0, 30.0, 100_000)
    x = Tensor(np.concatenate([sweep, [0.0, 1e-8, -1e-8]]), requires_grad=True)
    y = ops.gelu(x)
    (dy,) = y.node.backward(np.ones_like(y.data))
    want_y, want_dy = _gelu_tanh_formula(x.data)
    assert y.data.dtype == dy.dtype == want_y.dtype == x.data.dtype
    np.testing.assert_allclose(y.data, want_y, rtol=0, atol=atol)
    np.testing.assert_allclose(dy, want_dy, rtol=0, atol=atol)


def test_depthwise_unit_kernel_is_bitexact_identity(np_rng):
    x = np_rng.normal(size=(2, 5, 6, 4))
    k = np.ones((4, 1, 1))
    out = ops.depthwise_conv2d(Tensor(x), Tensor(k))
    assert (out.data == x).all()


def test_depthwise_matches_brute_loops(np_rng):
    from oracles import brute_depthwise_conv

    for k in (1, 3, 5):
        x = np_rng.normal(size=(2, 6, 7, 3))
        kernels = np_rng.normal(size=(3, k, k))
        fast = ops.depthwise_conv2d(Tensor(x), Tensor(kernels)).data
        slow = brute_depthwise_conv(x.transpose(0, 3, 1, 2), kernels).transpose(0, 2, 3, 1)
        np.testing.assert_allclose(fast, slow, atol=1e-12)


def test_depthwise_rejects_even_kernel(np_rng):
    from pswa.errors import ConfigurationError

    x = Tensor(np.ones((1, 4, 4, 2)))
    with pytest.raises(ConfigurationError):
        ops.depthwise_conv2d(x, Tensor(np.ones((2, 2, 2))))


def test_pointwise_matches_loop(np_rng):
    x = np_rng.normal(size=(2, 4, 4, 3))
    w = np_rng.normal(size=(5, 3))
    b = np_rng.normal(size=5)
    out = ops.pointwise_conv2d(Tensor(x), Tensor(w), Tensor(b)).data
    ref = np.zeros((2, 4, 4, 5))
    for o in range(5):
        for i in range(3):
            ref[..., o] += w[o, i] * x[..., i]
        ref[..., o] += b[o]
    np.testing.assert_allclose(out, ref, atol=1e-12)


def test_narrow_supports_zero_length():
    x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    empty = ops.narrow(x, 1, 2, 0)
    assert empty.shape == (3, 0)
    rest = ops.narrow(x, 1, 1, 2)
    np.testing.assert_array_equal(rest.data, x.data[:, 1:3])


def test_concat_roundtrips_with_narrow(np_rng):
    x = np_rng.normal(size=(2, 5))
    t = Tensor(x)
    parts = [ops.narrow(t, 1, 0, 2), ops.narrow(t, 1, 2, 0), ops.narrow(t, 1, 2, 3)]
    back = ops.concat(parts, axis=1)
    assert (back.data == x).all()


def test_gather_rows_and_last(np_rng):
    table = np_rng.normal(size=(3, 7))
    idx = np.array([2, 0, 2])
    np.testing.assert_array_equal(ops.gather_rows(Tensor(table), idx).data, table[idx])
    jdx = np.array([6, 0, 3, 3])
    np.testing.assert_array_equal(ops.gather_last(Tensor(table), jdx).data, table[:, jdx])
    with pytest.raises(DimensionError):
        ops.gather_rows(Tensor(table), np.array([3]))
    assert ops.gather_rows(Tensor(table), []).shape == (0, 7)  # np.asarray([]) is float64, but empty
    assert ops.gather_last(Tensor(table), []).shape == (3, 0)


@pytest.mark.parametrize("gather", [ops.gather_rows, ops.gather_last])
@pytest.mark.parametrize("index", [[1.7, True], [1.0], [True, False], np.array([0.0, 1.0])])
def test_gather_refuses_non_integer_index(gather, index):
    # np.asarray(index, dtype=np.int64) would read [1.7, True] as [1, 1]
    with pytest.raises(UsageError, match="must be integers"):
        gather(Tensor(np.eye(3)), index)


def test_narrow_takes_a_negative_axis():
    x = np.arange(12.0).reshape(3, 4)
    np.testing.assert_array_equal(ops.narrow(Tensor(x), -1, 1, 2).data, x[:, 1:3])
    np.testing.assert_array_equal(ops.narrow(Tensor(x), np.int64(-2), 1, 2).data, x[1:3])


@pytest.mark.parametrize("args, error", [
    ((2, 0, 1), DimensionError),
    ((-3, 0, 1), DimensionError),
    ((1, 1, 4), DimensionError),
    ((1, -1, 1), DimensionError),
    ((1.0, 0, 1), UsageError),
    ((1, 0.5, 1), UsageError),
    ((1, 0, 1.5), UsageError),
    ((1, 0, True), UsageError),
    ((1, "0", 1), UsageError),
])
def test_narrow_rejects_bad_arguments(args, error):
    with pytest.raises(error):
        ops.narrow(Tensor(np.zeros((3, 4))), *args)


def _split_by_narrow(x):
    return tuple(ops.narrow(x, 1, 2 * k, 2) for k in range(3))


@pytest.mark.parametrize("precision", ["f64", "f32"])
@pytest.mark.parametrize("fused, composed, shapes", [
    (ops.linear, lambda x, w, b: ops.add(ops.matmul(x, w), b), [(5, 3), (3, 4), (4,)]),
    (ops.modulate, lambda x, sh, sc: ops.add(ops.mul(x, ops.add(sc, 1.0)), sh), [(2, 3, 3, 4), (2, 1, 1, 4), (2, 1, 1, 4)]),
    (lambda x: ops.split(x, 3, 1), _split_by_narrow, [(2, 6, 3)]),
], ids=["linear", "modulate", "split"])
def test_coarse_ops_equal_their_composition_bitwise(precision, fused, composed, shapes):
    set_default_dtype(precision)
    arrays = [np.random.default_rng(5).normal(size=s) for s in shapes]
    results = []
    for op in (fused, composed):
        weights = np.random.default_rng(6)  # the same output weights for both sides
        inputs = [Tensor(a, requires_grad=True) for a in arrays]
        out = op(*inputs)
        pieces = out if isinstance(out, tuple) else (out,)
        terms = [ops.reshape(_weighted(p, weights.normal(size=p.shape)), (1,)) for p in pieces]
        ops.sum_(ops.concat(terms, 0)).backward()
        results.append([p.data.tobytes() for p in pieces] + [t.grad.tobytes() for t in inputs])
    assert results[0] == results[1]


def test_linear_meters_matmul_flops_and_checks_shapes():
    with count_flops() as counter:
        ops.linear(Tensor(np.ones((5, 3))), Tensor(np.ones((3, 4))), Tensor(np.zeros(4)))
    assert counter.by_op == {"matmul": 2 * 5 * 4 * 3}
    with pytest.raises(DimensionError):
        ops.linear(Tensor(np.ones((5, 3))), Tensor(np.ones((2, 4))), Tensor(np.zeros(4)))
    with pytest.raises(DimensionError):
        ops.linear(Tensor(np.ones((5, 3))), Tensor(np.ones((3, 4))), Tensor(np.zeros(3)))


@pytest.mark.parametrize("args, error", [
    ((4, 1), DimensionError),
    ((3, 2), DimensionError),
    ((0, 1), DimensionError),
    ((True, 1), UsageError),
    ((2.0, 1), UsageError),
    ((2, 1.0), UsageError),
])
def test_split_rejects_bad_arguments(args, error):
    with pytest.raises(error):
        ops.split(Tensor(np.zeros((3, 6))), *args)


@pytest.mark.parametrize("call, error", [
    (lambda x: ops.transpose(x, (1.7, 0)), UsageError),  # int(1.7) would run it as (1, 0)
    (lambda x: ops.transpose(x, (True, 0)), UsageError),
    (lambda x: ops.transpose(x, (0, 0)), DimensionError),
    (lambda x: ops.transpose(x, (0, 2)), DimensionError),
    (lambda x: ops.transpose(x, (0,)), DimensionError),
    (lambda x: ops.transpose(x, 1), UsageError),
    (lambda x: ops.reshape(x, (3.9, 4)), UsageError),  # int(3.9) would run it as (3, 4)
    (lambda x: ops.reshape(x, (12, True)), UsageError),
    (lambda x: ops.reshape(x, (5, 2)), DimensionError),
    (lambda x: ops.reshape(x, 12), UsageError),
    (lambda x: ops.concat([x, x], 1.0), UsageError),
    (lambda x: ops.concat([x, x], 2), DimensionError),
    (lambda x: ops.concat([x, x], -3), DimensionError),
    (lambda x: ops.concat([x, Tensor(np.zeros((2, 4)))], 1), DimensionError),
    (lambda x: ops.concat([x, Tensor(np.zeros((3, 4, 1)))], 0), DimensionError),
    (lambda x: ops.sum_(x, axis=2), DimensionError),
    (lambda x: ops.sum_(x, axis=1.0), UsageError),
    (lambda x: ops.sum_(x, axis=[0]), UsageError),
    (lambda x: ops.sum_(x, axis=(0, -2)), DimensionError),
    (lambda x: ops.mean(x, axis=-3), DimensionError),
    (lambda x: ops.mean(x, axis=(0, 1.0)), UsageError),
    (lambda x: ops.mean(x, axis=(1, 1)), DimensionError),
], ids=[
    "transpose-float", "transpose-bool", "transpose-repeat", "transpose-range", "transpose-rank",
    "transpose-scalar", "reshape-float", "reshape-bool", "reshape-size", "reshape-scalar",
    "concat-float-axis", "concat-axis-high", "concat-axis-low", "concat-extent", "concat-rank",
    "sum-axis-range", "sum-float-axis", "sum-list-axis", "sum-repeat", "mean-axis-range",
    "mean-float-axis", "mean-repeat",
])
def test_shape_ops_reject_bad_arguments(call, error):
    with pytest.raises(error):
        call(Tensor(np.zeros((3, 4))))


def test_shape_ops_take_numpy_ints_and_negative_axes():
    x = np.arange(24.0).reshape(2, 3, 4)
    t = Tensor(x)
    np.testing.assert_array_equal(ops.transpose(t, (np.int64(2), 0, 1)).data, x.transpose(2, 0, 1))
    np.testing.assert_array_equal(ops.reshape(t, (np.int64(6), -1)).data, x.reshape(6, 4))
    np.testing.assert_array_equal(ops.concat([t, t], -1).data, np.concatenate([x, x], -1))
    np.testing.assert_array_equal(ops.sum_(t, axis=(0, -1)).data, x.sum(axis=(0, -1)))
    np.testing.assert_array_equal(ops.mean(t, axis=np.int64(1)).data, x.sum(axis=1) * (1.0 / 3))


# ---------------------------------------------------------------------------
# gradients: finite differences on every exported op
# ---------------------------------------------------------------------------

def _weighted(out, w):
    return ops.sum_(ops.mul(out, Tensor(w)))


@pytest.mark.parametrize("seed", range(3))
def test_gradcheck_core_ops(seed):
    rng = np.random.default_rng(seed)

    def case(op, out_shape, *in_shapes):
        w = rng.normal(size=out_shape)
        inputs = [Tensor(rng.normal(size=s), requires_grad=True) for s in in_shapes]
        return (lambda *args: _weighted(op(*args), w)), inputs

    checks = [
        case(ops.matmul, (3, 5), (3, 4), (4, 5)),
        case(ops.softmax_rows, (2, 6), (2, 6)),
        case(ops.layernorm, (3, 5), (3, 5)),
        case(ops.gelu, (4, 3), (4, 3)),
        case(ops.silu, (4, 3), (4, 3)),
        case(ops.depthwise_conv2d, (1, 4, 4, 2), (1, 4, 4, 2), (2, 3, 3)),
        case(ops.pointwise_conv2d, (1, 3, 3, 3), (1, 3, 3, 2), (3, 2), (3,)),
    ]
    for fn, inputs in checks:
        report = gradcheck(fn, inputs)
        assert report.max_err < 1e-5, str(report)


def _logits_chain(q, k, bias):
    s = ops.matmul(q, k)
    c = ops.scale(s, 0.5)
    a = ops.add(c, bias)
    return ops.softmax_rows(a), (s, c, a)


def _plumbing(a, w):
    x = ops.matmul(a, w)  # [4, 6]
    r = ops.reshape(x, (6, 4))
    pieces = ops.split(r, 2, axis=1)
    n = ops.narrow(r, 1, 1, 2)
    return ops.concat([ops.softmax_rows(p) for p in (*pieces, n)], axis=1), (x, r, *pieces, n)


@pytest.mark.parametrize("build, in_shapes, out_shape", [
    (_logits_chain, [(2, 3, 4), (2, 4, 3), (3, 3)], (2, 3, 3)),
    (_plumbing, [(4, 5), (5, 6)], (6, 6)),
])
def test_graph_frees_arrays_no_backward_reads(build, in_shapes, out_shape):
    # matmul -> scale -> add feed softmax_rows, whose vjp reads only its output;
    # reshape, split and narrow read only their input's shape
    rng = np.random.default_rng(5)
    inputs = [Tensor(rng.normal(size=s), requires_grad=True) for s in in_shapes]
    w = rng.normal(size=out_shape)
    out, held = build(*inputs)
    refs = [weakref.ref(t.data) for t in held]
    del held
    assert [ref() for ref in refs] == [None] * len(refs)  # freed while ``out`` and its graph live
    loss = _weighted(out, w)
    order = GradTape(loss).order
    assert order[-1] is loss.node
    assert all(isinstance(v, OpNode) or (v.node is None and v.requires_grad) for v in order)
    loss.backward()
    from_freed = [t.grad for t in inputs]
    for t in inputs:
        t.grad = None
    out, held = build(*inputs)  # the same graph with every intermediate kept
    _weighted(out, w).backward()
    for got, t in zip(from_freed, inputs):
        np.testing.assert_array_equal(got, t.grad)
    report = gradcheck(lambda *args: _weighted(build(*args)[0], w), inputs)
    assert report.max_err < 1e-5, str(report)


def test_gradcheck_rejects_nonscalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(UsageError):
        gradcheck(lambda t: ops.mul(t, t), [x])


def test_gradcheck_needs_a_grad_input():
    x = Tensor(np.ones(2))
    with pytest.raises(UsageError):
        gradcheck(lambda t: ops.sum_(t), [x])


def test_gradcheck_restores_inputs(np_rng):
    x = Tensor(np_rng.normal(size=(3, 3)), requires_grad=True)
    before = x.data.copy()
    gradcheck(lambda t: ops.sum_(ops.mul(t, t)), [x])
    assert (x.data == before).all()

    # an f that raises on a perturbed entry must not leave it perturbed
    def guarded(t):
        if t.data[0] > 1.0:
            raise NumericsError("x[0] left the domain")
        return ops.sum_(ops.mul(t, t))

    y = Tensor(np.array([1.0, 0.5, -2.0]), requires_grad=True)
    before = y.data.tobytes()
    with pytest.raises(NumericsError):
        gradcheck(guarded, [y])
    assert y.data.tobytes() == before


# ---------------------------------------------------------------------------
# rng
# ---------------------------------------------------------------------------

def test_rng_determinism_bit_identical():
    a = Rng(42).normal((100,))
    b = Rng(42).normal((100,))
    assert (a == b).all()


def test_rng_split_streams_differ_and_parent_unaffected():
    root = Rng(7)
    child_a = root.split("alpha")
    child_b = root.split("beta")
    assert not np.array_equal(child_a.normal((10,)), child_b.normal((10,)))
    # splitting must not consume parent state
    fresh = Rng(7)
    fresh.split("alpha")
    fresh.split("anything-else")
    assert (Rng(7).normal((10,)) == fresh.normal((10,))).all()


def test_rng_same_tag_same_stream():
    assert (Rng(3).split("x").normal((5,)) == Rng(3).split("x").normal((5,))).all()
    assert (Rng(3).split(17).normal((5,)) == Rng(3).split(17).normal((5,))).all()


def test_rng_split_zero_of_an_empty_path_is_the_parent():
    # the documented exception to independence: Philox key (seed, 0) both ways
    image = Rng(5).split("toy-dataset").split(3)  # a grandchild, folded to an empty path
    for parent in (Rng(5), image):
        assert parent.path == ()
        assert (parent.split(0).normal((6,)) == Rng(parent.seed).normal((6,))).all()
    assert not (Rng(5).split("x").split(0).normal((6,)) == Rng(5).split("x").normal((6,))).all()


def test_rng_deep_split_stable():
    a = Rng(9).split("layer").split(4).split("w").normal((8,))
    b = Rng(9).split("layer").split(4).split("w").normal((8,))
    assert (a == b).all()


def test_rng_state_roundtrip_mid_stream():
    rng = Rng(5).split("stream")
    rng.normal((7,))  # advance
    state = rng.state_dict()
    expected = rng.normal((13,))
    resumed = Rng.from_state_dict(state)
    assert (resumed.normal((13,)) == expected).all()


def test_rng_rejects_bad_tag():
    with pytest.raises(TypeError):
        Rng(0).split(3.14)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_pswt_roundtrip_f64_bitexact(tmp_path, np_rng):
    t = Tensor(np_rng.normal(size=(3, 4, 5)))
    path = tmp_path / "t.pswt"
    dump_tensor(t, path)
    back = load_tensor(path)
    assert back.data.dtype == np.float64
    assert (back.data == t.data).all()


def test_pswt_roundtrip_f32(tmp_path, np_rng):
    arr = np_rng.normal(size=(2, 6)).astype(np.float32)
    path = tmp_path / "t.pswt"
    dump_tensor(arr, path)
    back = load_tensor(path)
    assert back.data.dtype == np.float32
    assert (back.data == arr).all()


def test_pswt_scalar_and_header_layout(tmp_path):
    path = tmp_path / "s.pswt"
    dump_tensor(np.float64(3.5), path)
    raw = path.read_bytes()
    assert raw[:4] == b"PSWT"
    assert raw[4:6] == (1).to_bytes(2, "little")  # version
    assert raw[6] == 0 and raw[7] == 0  # f64, rank 0
    back = load_tensor(path)
    assert back.shape == () and back.data == 3.5


def test_pswt_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.pswt"
    bad.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(UsageError):
        load_tensor(bad)
    trunc = tmp_path / "trunc.pswt"
    good = tmp_path / "good.pswt"
    dump_tensor(np.ones((4, 4)), good)
    trunc.write_bytes(good.read_bytes()[:-8])
    with pytest.raises(UsageError):
        load_tensor(trunc)
    # extents whose product wraps a 64-bit count (to 0, here), and an empty
    # tensor whose other extent numpy cannot index
    for extents in [(2**32, 2**32), (2**62, 0)]:
        huge = tmp_path / "huge.pswt"
        huge.write_bytes(b"PSWT" + struct.pack("<HBB", 1, 0, 2) + struct.pack("<2Q", *extents))
        with pytest.raises(UsageError):
            load_tensor(huge)


# ---------------------------------------------------------------------------
# flop metering
# ---------------------------------------------------------------------------

def test_flop_counter_matmul_exact():
    a, b = Tensor(np.ones((3, 4))), Tensor(np.ones((4, 5)))
    with count_flops() as counter:
        ops.matmul(a, b)
    assert counter.total == 2 * 3 * 5 * 4
    # nothing metered outside the context
    ops.matmul(a, b)
    assert counter.total == 2 * 3 * 5 * 4


def test_flop_counter_convs():
    x = Tensor(np.ones((1, 4, 4, 2)))
    with count_flops() as counter:
        ops.depthwise_conv2d(x, Tensor(np.ones((2, 3, 3))))
        ops.pointwise_conv2d(x, Tensor(np.ones((5, 2))), Tensor(np.zeros(5)))
    assert counter.by_op["depthwise_conv2d"] == 2 * 1 * 2 * 4 * 4 * 9
    assert counter.by_op["pointwise_conv2d"] == 2 * 1 * 4 * 4 * 5 * 2


def test_f64_pipeline_bit_determinism():
    def run():
        rng = Rng(11)
        x = Tensor(rng.split("x").normal((2, 3, 4)))
        w = Tensor(rng.split("w").normal((4, 4)))
        y = ops.softmax_rows(ops.matmul(x, w))
        return ops.layernorm(y).data

    assert (run() == run()).all()


# ---------------------------------------------------------------------------
# allocator thresholds set at import (glibc only)
# ---------------------------------------------------------------------------

def _on_glibc():
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


glibc_only = pytest.mark.skipif(not _on_glibc(), reason="the malloc thresholds are set on glibc only")


def _run_fresh(script, **env):
    """Run script in a new interpreter that imports this checkout's pswa; env replaces every malloc setting."""
    child = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    child.update(env, PYTHONPATH=str(Path(pswa.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=child,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


@glibc_only
def test_forward_only_process_does_not_fault_its_heap_back_in():
    # Under glibc's default thresholds each batch-16 forward takes about 5,500 minor faults: the
    # temporaries freed by one forward are trimmed from the heap and faulted back in by the next.
    out = _run_fresh("""
        import resource
        import numpy as np
        from pswa.model import ToyDiT, ToyDiTConfig
        from pswa.numerics import MALLOC_TUNING, Rng, no_grad
        assert dict(MALLOC_TUNING) == {"M_MMAP_THRESHOLD": 32 << 20, "M_TRIM_THRESHOLD": 256 << 20}
        cfg = ToyDiTConfig()
        model = ToyDiT(cfg, Rng(0))
        x = np.random.default_rng(0).standard_normal((16, cfg.image_channels, cfg.image_h, cfg.image_w))
        t = np.arange(16)
        with no_grad():
            for _ in range(3):
                model.forward(x, t)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(10):
                model.forward(x, t)
        print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
    """)
    assert float(out) < 500


@glibc_only
@pytest.mark.parametrize("env", [
    {"MALLOC_TRIM_THRESHOLD_": "1000000"},
    {"GLIBC_TUNABLES": "glibc.malloc.trim_threshold=1000000"},
])
def test_malloc_settings_from_the_environment_win(env):
    assert _run_fresh("from pswa.numerics import MALLOC_TUNING; print(MALLOC_TUNING)", **env) == "None"
