import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from synthdetect.model import CnnConfig, FineToCoarseCnn
from synthdetect.tensor import (
    ShapeError,
    Tensor,
    backward,
    batch_norm,
    conv2d_valid,
    conv_output_size,
    dropout,
    linear,
    link,
    mean_pool,
    sigmoid,
)

import oracles
from helpers import assert_grads_close, fd_gradient
from oracles import sigmoid as sigmoid_oracle


def test_tensor_rejects_non_finite():
    with pytest.raises(FloatingPointError):
        Tensor([1.0, np.inf])
    with pytest.raises(FloatingPointError):
        Tensor([np.nan])


def test_assign_rejects_non_finite():
    """A diverging parameter update stops at the step that makes it."""
    t = Tensor([1.0, 2.0])
    with pytest.raises(FloatingPointError):
        t.assign(np.array([1.0, np.inf]))
    assert np.array_equal(t.data, [1.0, 2.0])


def test_ops_pass_non_finite_values_through():
    """Only where a value enters is it checked: an op's overflow is a value
    like any other, and the sigmoid takes it to 0 or 1."""
    with np.errstate(over="ignore"):
        out, _ = linear(Tensor([[2.0], [-2.0]]), Tensor([[1e308]]), Tensor([0.0]))
    assert np.array_equal(out.data, [[np.inf], [-np.inf]])
    assert np.array_equal(sigmoid(out)[0].data, [[1.0], [0.0]])


def test_tensor_is_isolated_from_caller_buffer():
    buf = np.ones(3)
    t = Tensor(buf)
    buf[0] = 99.0
    assert t.data[0] == 1.0


def test_op_output_buffers_are_read_only():
    t, _ = sigmoid(Tensor([1.0, 2.0]))
    with pytest.raises(ValueError):
        t.data[0] = 0.0


_CNN = FineToCoarseCnn(CnnConfig(32))


@pytest.mark.parametrize("call", [
    lambda: conv2d_valid(Tensor(np.zeros((3, 6, 6))), Tensor(np.zeros((2, 3, 3, 3))),
                         Tensor(np.zeros(2))),
    lambda: mean_pool(Tensor(np.zeros((3, 6, 6))), 2),
    lambda: batch_norm(Tensor(np.zeros((4, 3))), Tensor(np.ones(3)), Tensor(np.zeros(3)),
                       np.zeros(3), np.ones(3), training=False),
    lambda: linear(Tensor(np.zeros(3)), Tensor(np.zeros((2, 3))), Tensor(np.zeros(2))),
    lambda: _CNN.forward_features(Tensor(np.zeros((3, 32, 32))), training=False),
], ids=["conv2d_valid", "mean_pool", "batch_norm", "linear", "forward_features"])
def test_unbatched_input_rejected(call):
    """Each op takes one input rank, its batch axis included."""
    with pytest.raises(ShapeError):
        call()


# --- conv2d ---------------------------------------------------------------


def test_conv2d_one_by_one_kernel_scales():
    x = Tensor(np.ones((1, 3, 3, 1)))
    k = Tensor(np.full((1, 1, 1, 1), 2.0))
    b = Tensor(np.zeros(1))
    out, _ = conv2d_valid(x, k, b, stride=1)
    assert out.shape == (1, 3, 3, 1)
    assert np.allclose(out.data, 2.0)


def test_conv2d_hand_sum():
    x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1))
    k = Tensor(np.ones((1, 1, 2, 2)))
    b = Tensor(np.zeros(1))
    out, _ = conv2d_valid(x, k, b, stride=1)
    assert out.shape == (1, 1, 1, 1)
    assert out.data[0, 0, 0, 0] == pytest.approx(10.0)


def test_conv2d_full_scale_shape():
    x = Tensor(np.zeros((3, 224, 224, 1)))
    k = Tensor(np.zeros((16, 3, 5, 5)))
    b = Tensor(np.zeros(16))
    out, _ = conv2d_valid(x, k, b, stride=1)
    assert out.shape == (16, 220, 220, 1)


def test_conv2d_channel_mismatch_rejected():
    x = Tensor(np.zeros((2, 4, 4, 1)))
    k = Tensor(np.zeros((1, 3, 2, 2)))
    with pytest.raises(ShapeError):
        conv2d_valid(x, k, Tensor(np.zeros(1)))


def test_conv2d_oversized_kernel_rejected():
    x = Tensor(np.zeros((1, 3, 3, 1)))
    k = Tensor(np.zeros((1, 1, 4, 4)))
    with pytest.raises(ShapeError):
        conv2d_valid(x, k, Tensor(np.zeros(1)))


def test_conv2d_matches_direct_loop_oracle():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3, 6, 7, 2))
    k = rng.normal(size=(4, 3, 3, 2))
    b = rng.normal(size=4)
    out = conv2d_valid(Tensor(x), Tensor(k), Tensor(b), stride=2)[0].data
    Hp = conv_output_size(6, 3, 2)
    Wp = conv_output_size(7, 2, 2)
    assert out.shape == (4, Hp, Wp, 2)
    for n in range(2):
        for f in range(4):
            for i in range(Hp):
                for j in range(Wp):
                    patch = x[:, 2 * i:2 * i + 3, 2 * j:2 * j + 2, n]
                    want = (patch * k[f]).sum() + b[f]
                    assert out[f, i, j, n] == pytest.approx(want, rel=1e-12)


# --- mean_pool ------------------------------------------------------------


def test_mean_pool_constant_input():
    x = Tensor(np.full((2, 8, 8, 1), 3.25))
    out, _ = mean_pool(x, 4)
    assert out.shape == (2, 5, 5, 1)
    assert np.allclose(out.data, 3.25)


def test_mean_pool_hand_value():
    x = Tensor(np.arange(1.0, 17.0).reshape(1, 4, 4, 1))
    out, _ = mean_pool(x, 4)
    assert out.shape == (1, 1, 1, 1)
    assert out.data[0, 0, 0, 0] == pytest.approx(8.5)


def test_mean_pool_shape_formula():
    x = Tensor(np.zeros((5, 47, 47, 1)))
    out, _ = mean_pool(x, 4)
    assert out.shape == (5, 44, 44, 1)


def test_mean_pool_window_too_large_rejected():
    with pytest.raises(ShapeError):
        mean_pool(Tensor(np.zeros((1, 3, 3, 1))), 4)


def test_shape_closure_random_cases():
    rng = np.random.default_rng(11)
    for _ in range(50):
        H = int(rng.integers(1, 30))
        W = int(rng.integers(1, 30))
        kh = int(rng.integers(1, H + 1))
        kw = int(rng.integers(1, W + 1))
        s = int(rng.integers(1, 4))
        p = min(kh, kw)
        out, _ = mean_pool(Tensor(np.zeros((1, H, W, 1))), p)
        assert out.shape == (1, H - p + 1, W - p + 1, 1)
        k = Tensor(np.zeros((2, 1, kh, kw)))
        out, _ = conv2d_valid(Tensor(np.zeros((1, H, W, 1))), k, Tensor(np.zeros(2)), s)
        assert out.shape == (2, (H - kh) // s + 1, (W - kw) // s + 1, 1)


def test_conv2d_input_gradient_only_for_tracked_inputs():
    """The pull builds the input gradient only when the caller asks for it,
    and the parameter gradients either way, to the same bits."""
    rng = np.random.default_rng(13)
    k = Tensor(rng.normal(size=(2, 3, 2, 2)))
    b = Tensor(np.zeros(2))
    x = Tensor(rng.normal(size=(3, 5, 5, 2)))
    g = rng.normal(size=(2, 4, 4, 2))
    gx, gk, gb = conv2d_valid(x, k, b)[1](g)
    assert gx.shape == x.shape
    none, gk_only, gb_only = conv2d_valid(x, k, b, input_grad=False)[1](g)
    assert none is None
    assert np.array_equal(gk_only, gk) and np.array_equal(gb_only, gb)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_separable_mean_pool_matches_windowed_mean(data):
    draw = data.draw
    H, W = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    kernel = draw(st.integers(1, min(H, W)))
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3)), H, W)
    x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=shape)
    got = mean_pool(Tensor(x.transpose(1, 2, 3, 0)), kernel)[0].data
    want = oracles.mean_pool(Tensor(x), kernel, 1)[0].data.transpose(1, 2, 3, 0)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12


# --- pooling commutes with correlation -------------------------------------


@pytest.mark.parametrize("kernel,window,stride,size", [
    (3, 2, 2, 15), (2, 3, 1, 9), ((3, 2), 3, 2, 13),
])
def test_folded_conv_equals_conv_then_mean_pool(kernel, window, stride, size):
    """The model's stage order, pool at stride 1 then conv at the pool
    stride, equals conv then pool at that stride."""
    rng = np.random.default_rng(17)
    kh, kw = kernel if isinstance(kernel, tuple) else (kernel, kernel)
    x = Tensor(rng.normal(size=(2, 3, size, size + 2)))
    k = Tensor(rng.normal(size=(4, 3, kh, kw)))
    b = Tensor(rng.normal(size=4))
    want = oracles.mean_pool(oracles.conv2d_valid(x, k, b)[0], window, stride)[0].data
    xt = Tensor(x.data.transpose(1, 2, 3, 0))
    got = conv2d_valid(mean_pool(xt, window)[0], k, b, stride=stride)[0].data
    got = got.transpose(3, 0, 1, 2)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12


# --- the [C,H,W,B] ops against the [B,C,H,W] oracles ----------------------


def _assert_close(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("input_size", [32, 224])
def test_stage_ops_match_batch_major_oracles(input_size):
    """At each stage shape of both presets, ``mean_pool`` and the strided
    ``conv2d_valid`` on [C,H,W,B] maps, forward and pull (the conv's with and
    without the input gradient), equal the [B,C,H,W] references transposed.
    Stage 1 pools a transposed view of a [B,C,H,W] batch, as the extractor
    does. Distinct images and channels make a swap of either show."""
    cfg = CnnConfig(input_size)
    rng = np.random.default_rng(input_size)
    batch = 3 if input_size == 32 else 2

    def as_map(a):
        return np.ascontiguousarray(a.transpose(1, 2, 3, 0))

    side, c_in = input_size, cfg.in_channels
    for stage, k_out in enumerate(cfg.filters):
        x = rng.normal(size=(batch, c_in, side, side))
        xm = Tensor.adopt(x.transpose(1, 2, 3, 0)) if stage == 0 else Tensor(as_map(x))
        pooled, pool_pull = mean_pool(xm, cfg.pool_kernel)
        ref, ref_pull = oracles.mean_pool(Tensor(x), cfg.pool_kernel, 1)
        _assert_close(pooled.data, as_map(ref.data))
        g = rng.normal(size=ref.shape)
        _assert_close(pool_pull(as_map(g))[0], as_map(ref_pull(g)[0]))

        kern = Tensor(rng.normal(size=(k_out, c_in, cfg.kernel, cfg.kernel)))
        bias = Tensor(rng.normal(size=k_out))
        pooled_ref = Tensor(pooled.data.transpose(3, 0, 1, 2))
        for input_grad in (True, False):
            out, pull = conv2d_valid(pooled, kern, bias, cfg.pool_stride, input_grad)
            ref, ref_pull = oracles.conv2d_valid(pooled_ref, kern, bias, cfg.pool_stride,
                                                 input_grad)
            _assert_close(out.data, as_map(ref.data))
            g = rng.normal(size=ref.shape)
            (gx, gk, gb), (rx, rk, rb) = pull(as_map(g)), ref_pull(g)
            _assert_close(gk, rk)
            _assert_close(gb, rb)
            if input_grad:
                _assert_close(gx, as_map(rx))
            else:
                assert gx is None and rx is None
        side, c_in = out.shape[1], k_out


# --- sigmoid --------------------------------------------------------------


def test_sigmoid_values():
    out, _ = sigmoid(Tensor([0.0, -100.0, 100.0]))
    assert out.data[0] == pytest.approx(0.5)
    assert 0.0 < out.data[1] < 1e-40
    assert np.isfinite(out.data).all()


def test_sigmoid_matches_reference_on_both_tails():
    x = np.linspace(-40.0, 40.0, 1001)
    ref = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                   np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    assert np.abs(sigmoid(Tensor(x))[0].data - ref).max() <= 1e-16


def test_sigmoid_symmetry():
    x = np.linspace(-5, 5, 11)
    s_pos = sigmoid(Tensor(x))[0].data
    s_neg = sigmoid(Tensor(-x))[0].data
    assert np.allclose(s_pos + s_neg, 1.0, atol=1e-15)


SIGMOID_EDGES = [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 800.0, -800.0,
                 -745.5, 745.5, -709.8, 709.8, 36.7, -36.7, 1.0, -1.0, 1e308, -1e308]


def test_sigmoid_bit_identical_to_masked_copy_at_edges():
    x = np.array(SIGMOID_EDGES)
    assert sigmoid(Tensor(x))[0].data.tobytes() == sigmoid_oracle(x).tobytes()
    for v in SIGMOID_EDGES:  # 0-d inputs stay arrays
        out = sigmoid(Tensor(np.array(v)))[0].data
        assert out.shape == () and out.tobytes() == sigmoid_oracle(np.array(v)).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
def test_sigmoid_bit_identical_to_masked_copy(values):
    x = np.array(values, dtype=np.float64)
    assert sigmoid(Tensor(x))[0].data.tobytes() == sigmoid_oracle(x).tobytes()


# --- batch_norm -----------------------------------------------------------


def _bn_state(C):
    return np.zeros(C), np.ones(C)


def test_batch_norm_train_standardizes():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(2.0, 3.0, size=(8, 4, 5, 5)))
    scale = Tensor(np.ones(4))
    shift = Tensor(np.zeros(4))
    rm, rv = _bn_state(4)
    out = batch_norm(x, scale, shift, rm, rv, training=True)[0].data
    assert np.allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-6)
    assert np.allclose(out.var(axis=(0, 2, 3)), 1.0, atol=1e-5)


def test_batch_norm_infer_identity_with_unit_stats():
    x = Tensor(np.random.default_rng(4).normal(size=(3, 2, 1, 1)))
    rm, rv = _bn_state(2)
    out, _ = batch_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), rm, rv,
                     training=False, eps=0.0)
    assert np.allclose(out.data, x.data)


def test_batch_norm_constant_channel_is_finite():
    x = Tensor(np.full((4, 1, 3, 3), 7.0))
    rm, rv = _bn_state(1)
    out, _ = batch_norm(x, Tensor(np.ones(1)), Tensor(np.zeros(1)), rm, rv,
                     training=True, eps=1e-5)
    assert np.allclose(out.data, 0.0)


def test_batch_norm_batch_of_one_rejected():
    x = Tensor(np.zeros((1, 2, 3, 3)))
    rm, rv = _bn_state(2)
    with pytest.raises(ShapeError):
        batch_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), rm, rv, training=True)


def test_batch_norm_updates_running_stats():
    rng = np.random.default_rng(5)
    x = rng.normal(1.5, 2.0, size=(16, 3, 4, 4))
    rm, rv = _bn_state(3)
    batch_norm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)), rm, rv,
               training=True, momentum=0.1)
    assert np.allclose(rm, 0.1 * x.mean(axis=(0, 2, 3)))
    assert np.allclose(rv, 0.9 * 1.0 + 0.1 * x.var(axis=(0, 2, 3)))


# --- linear ---------------------------------------------------------------


def test_linear_identity():
    x = Tensor([[1.0, 2.0, 3.0]])
    out, _ = linear(x, Tensor(np.eye(3)), Tensor(np.zeros(3)))
    assert np.allclose(out.data, x.data)


def test_linear_hand_matvec():
    out, _ = linear(Tensor([[1.0, 1.0]]),
                 Tensor([[1.0, 2.0], [3.0, 4.0]]),
                 Tensor([0.0, 1.0]))
    assert np.allclose(out.data, [[3.0, 8.0]])


def test_linear_zero_weights_returns_bias():
    b = np.array([4.0, -2.0])
    out, _ = linear(Tensor([[5.0, 6.0, 7.0]]), Tensor(np.zeros((2, 3))), Tensor(b))
    assert np.allclose(out.data, [b])


def test_linear_dimension_mismatch_rejected():
    with pytest.raises(ShapeError):
        linear(Tensor([[1.0, 2.0]]), Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)))


# --- dropout --------------------------------------------------------------


def test_dropout_rate_zero_and_infer_are_identity():
    x = Tensor(np.arange(6.0))
    rng = np.random.default_rng(0)
    for out, pull in (dropout(x, 0.0, True, rng), dropout(x, 0.7, False)):
        assert out is x
        g = np.arange(6.0)
        assert pull(g)[0] is g


def test_dropout_rejects_rate_one():
    with pytest.raises(ValueError):
        dropout(Tensor([1.0]), 1.0, True, np.random.default_rng(0))


def test_dropout_survivor_fraction_and_expectation():
    n = 10 ** 6
    x = Tensor(np.full(n, 2.0))
    out = dropout(x, 0.5, True, np.random.default_rng(123))[0].data
    survivors = np.count_nonzero(out) / n
    assert abs(survivors - 0.5) < 0.01
    assert abs(out.mean() - 2.0) / 2.0 < 0.02


# --- backward -------------------------------------------------------------


def test_backward_sigmoid_at_zero():
    out, pull = sigmoid(Tensor(0.0))
    assert pull(np.ones(()))[0] == pytest.approx(0.25)


@pytest.mark.parametrize("op_name", [
    "conv", "pool", "pool_stride1", "fold", "sigmoid", "bn_train", "bn_infer", "linear", "dropout",
])
def test_primitive_gradients_match_finite_differences(op_name):
    """Each op's pull, walked by ``backward``: params[0] is the input, whose
    cotangent ``backward`` returns, and params[i] the parameter it names
    ``p<i>``."""
    rng = np.random.default_rng(hash(op_name) % 2 ** 31)
    if op_name == "conv":
        params = [Tensor(rng.normal(size=(2, 5, 6, 2))),
                  Tensor(rng.normal(size=(3, 2, 2, 3))),
                  Tensor(rng.normal(size=3))]
        proj = rng.normal(size=(3, 2, 2, 2))

        def build(chain=None):
            return link(chain, ("p1", "p2"),
                        conv2d_valid(params[0], params[1], params[2], stride=2))
    elif op_name == "pool":
        params = [Tensor(rng.normal(size=(1, 6, 6, 2)))]
        proj = rng.normal(size=(1, 3, 3, 2))

        def build(chain=None):
            return link(chain, (), mean_pool(params[0], 4))
    elif op_name == "pool_stride1":
        params = [Tensor(rng.normal(size=(2, 5, 6, 2)))]
        proj = rng.normal(size=(2, 4, 5, 2))

        def build(chain=None):
            return link(chain, (), mean_pool(params[0], 2))
    elif op_name == "fold":
        # a model stage below its sigmoid: pool at stride 1, conv at stride 2
        params = [Tensor(rng.normal(size=(3, 7, 8, 2))),
                  Tensor(rng.normal(size=(2, 3, 3, 2))),
                  Tensor(rng.normal(size=2))]
        proj = rng.normal(size=(2, 2, 3, 2))

        def build(chain=None):
            pooled = link(chain, (), mean_pool(params[0], 2))
            return link(chain, ("p1", "p2"),
                        conv2d_valid(pooled, params[1], params[2], stride=2))
    elif op_name == "sigmoid":
        params = [Tensor(rng.normal(size=7))]
        proj = rng.normal(size=7)

        def build(chain=None):
            return link(chain, (), sigmoid(params[0]))
    elif op_name in ("bn_train", "bn_infer"):
        params = [Tensor(rng.normal(size=(5, 3, 2, 2))),
                  Tensor(rng.normal(size=3) + 1.5),
                  Tensor(rng.normal(size=3))]
        proj = rng.normal(size=(5, 3, 2, 2))
        training = op_name == "bn_train"

        def build(chain=None):
            rm = np.full(3, 0.3)
            rv = np.full(3, 1.7)
            return link(chain, ("p1", "p2"), batch_norm(params[0], params[1], params[2],
                                                        rm, rv, training=training))
    elif op_name == "linear":
        params = [Tensor(rng.normal(size=(4, 3))),
                  Tensor(rng.normal(size=(2, 3))),
                  Tensor(rng.normal(size=2))]
        proj = rng.normal(size=(4, 2))

        def build(chain=None):
            return link(chain, ("p1", "p2"), linear(params[0], params[1], params[2]))
    else:
        params = [Tensor(rng.normal(size=40))]
        proj = rng.normal(size=40)

        def build(chain=None):
            gen = np.random.default_rng(77)
            return link(chain, (), dropout(params[0], 0.4, True, gen))

    # the gradient of sum(out * proj): ``proj`` seeds the pull-back
    chain = []
    build(chain)
    g_input, grads = backward(chain, proj)
    analytic = [g_input] + [grads[f"p{i}"] for i in range(1, len(params))]
    assert sorted(grads) == [f"p{i}" for i in range(1, len(params))]
    numeric = fd_gradient(lambda: float(np.sum(build().data * proj)), params)
    for a, num in zip(analytic, numeric):
        assert_grads_close(a, num)


def test_determinism_bitwise():
    def run():
        rng = np.random.default_rng(42)
        x = Tensor(rng.normal(size=(2, 6, 6, 3)))
        k = Tensor(rng.normal(size=(2, 2, 3, 3)))
        b = Tensor(np.zeros(2))
        chain = []
        h = link(chain, (), mean_pool(x, 2))
        h = link(chain, (), sigmoid(link(chain, ("k", "b"), conv2d_valid(h, k, b, stride=2))))
        _, grads = backward(chain, 2.0 * h.data)  # the seed of sum(h * h)
        return h.data, grads["k"]

    h1, g1 = run()
    h2, g2 = run()
    assert np.array_equal(h1, h2)
    assert np.array_equal(g1, g2)
