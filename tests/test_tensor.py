import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from synthdetect.model import CnnConfig, FineToCoarseCnn
from synthdetect.tensor import (
    GradTape,
    GradientError,
    ShapeError,
    Tensor,
    backward,
    batch_norm,
    conv2d_valid,
    conv_output_size,
    dropout,
    linear,
    mean_pool,
    sigmoid,
)

from helpers import assert_grads_close, fd_gradient
from oracles import mean_pool as mean_pool_oracle, sigmoid as sigmoid_oracle


def test_tensor_rejects_non_finite():
    with pytest.raises(FloatingPointError):
        Tensor([1.0, np.inf])
    with pytest.raises(FloatingPointError):
        Tensor([np.nan])


def test_assign_rejects_non_finite():
    """A diverging parameter update stops at the step that makes it."""
    t = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(FloatingPointError):
        t.assign(np.array([1.0, np.inf]))
    assert np.array_equal(t.data, [1.0, 2.0])


def test_ops_pass_non_finite_values_through():
    """Only where a value enters is it checked: an op's overflow is a value
    like any other, and the sigmoid takes it to 0 or 1."""
    with np.errstate(over="ignore"):
        out = linear(Tensor([[2.0], [-2.0]]), Tensor([[1e308]]), Tensor([0.0]))
    assert np.array_equal(out.data, [[np.inf], [-np.inf]])
    assert np.array_equal(sigmoid(out).data, [[1.0], [0.0]])


def test_tensor_is_isolated_from_caller_buffer():
    buf = np.ones(3)
    t = Tensor(buf)
    buf[0] = 99.0
    assert t.data[0] == 1.0


def test_op_output_buffers_are_read_only():
    t = sigmoid(Tensor([1.0, 2.0]))
    with pytest.raises(ValueError):
        t.data[0] = 0.0


_CNN = FineToCoarseCnn(CnnConfig(32))


@pytest.mark.parametrize("call", [
    lambda: conv2d_valid(Tensor(np.zeros((3, 6, 6))), Tensor(np.zeros((2, 3, 3, 3))),
                         Tensor(np.zeros(2))),
    lambda: mean_pool(Tensor(np.zeros((3, 6, 6))), 2, 1),
    lambda: batch_norm(Tensor(np.zeros((4, 3))), Tensor(np.ones(3)), Tensor(np.zeros(3)),
                       np.zeros(3), np.ones(3), training=False),
    lambda: linear(Tensor(np.zeros(3)), Tensor(np.zeros((2, 3))), Tensor(np.zeros(2))),
    lambda: _CNN.forward_features(Tensor(np.zeros((3, 32, 32))), training=False),
], ids=["conv2d_valid", "mean_pool", "batch_norm", "linear", "forward_features"])
def test_unbatched_input_rejected(call):
    """Each op takes one input rank, a leading batch axis included."""
    with pytest.raises(ShapeError):
        call()


# --- conv2d ---------------------------------------------------------------


def test_conv2d_one_by_one_kernel_scales():
    x = Tensor(np.ones((1, 1, 3, 3)))
    k = Tensor(np.full((1, 1, 1, 1), 2.0))
    b = Tensor(np.zeros(1))
    out = conv2d_valid(x, k, b, stride=1)
    assert out.shape == (1, 1, 3, 3)
    assert np.allclose(out.data, 2.0)


def test_conv2d_hand_sum():
    x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
    k = Tensor(np.ones((1, 1, 2, 2)))
    b = Tensor(np.zeros(1))
    out = conv2d_valid(x, k, b, stride=1)
    assert out.shape == (1, 1, 1, 1)
    assert out.data[0, 0, 0, 0] == pytest.approx(10.0)


def test_conv2d_full_scale_shape():
    x = Tensor(np.zeros((1, 3, 224, 224)))
    k = Tensor(np.zeros((16, 3, 5, 5)))
    b = Tensor(np.zeros(16))
    out = conv2d_valid(x, k, b, stride=1)
    assert out.shape == (1, 16, 220, 220)


def test_conv2d_channel_mismatch_rejected():
    x = Tensor(np.zeros((1, 2, 4, 4)))
    k = Tensor(np.zeros((1, 3, 2, 2)))
    with pytest.raises(ShapeError):
        conv2d_valid(x, k, Tensor(np.zeros(1)))


def test_conv2d_oversized_kernel_rejected():
    x = Tensor(np.zeros((1, 1, 3, 3)))
    k = Tensor(np.zeros((1, 1, 4, 4)))
    with pytest.raises(ShapeError):
        conv2d_valid(x, k, Tensor(np.zeros(1)))


def test_conv2d_matches_direct_loop_oracle():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 3, 6, 7))
    k = rng.normal(size=(4, 3, 3, 2))
    b = rng.normal(size=4)
    out = conv2d_valid(Tensor(x), Tensor(k), Tensor(b), stride=2).data
    Hp = conv_output_size(6, 3, 2)
    Wp = conv_output_size(7, 2, 2)
    assert out.shape == (2, 4, Hp, Wp)
    for n in range(2):
        for f in range(4):
            for i in range(Hp):
                for j in range(Wp):
                    patch = x[n, :, 2 * i:2 * i + 3, 2 * j:2 * j + 2]
                    want = (patch * k[f]).sum() + b[f]
                    assert out[n, f, i, j] == pytest.approx(want, rel=1e-12)


# --- mean_pool ------------------------------------------------------------


def test_mean_pool_constant_input():
    x = Tensor(np.full((1, 2, 8, 8), 3.25))
    out = mean_pool(x, 4, 2)
    assert out.shape == (1, 2, 3, 3)
    assert np.allclose(out.data, 3.25)


def test_mean_pool_hand_value():
    x = Tensor(np.arange(1.0, 17.0).reshape(1, 1, 4, 4))
    out = mean_pool(x, 4, 2)
    assert out.shape == (1, 1, 1, 1)
    assert out.data[0, 0, 0, 0] == pytest.approx(8.5)


def test_mean_pool_shape_formula():
    x = Tensor(np.zeros((1, 5, 47, 47)))
    out = mean_pool(x, 4, 2)
    assert out.shape == (1, 5, 22, 22)


def test_mean_pool_window_too_large_rejected():
    with pytest.raises(ShapeError):
        mean_pool(Tensor(np.zeros((1, 1, 3, 3))), 4, 2)


def test_shape_closure_random_cases():
    rng = np.random.default_rng(11)
    for _ in range(50):
        H = int(rng.integers(1, 30))
        W = int(rng.integers(1, 30))
        kh = int(rng.integers(1, H + 1))
        kw = int(rng.integers(1, W + 1))
        s = int(rng.integers(1, 4))
        p = min(kh, kw)
        out = mean_pool(Tensor(np.zeros((1, 1, H, W))), p, s)
        assert out.shape == (1, 1, (H - p) // s + 1, (W - p) // s + 1)
        k = Tensor(np.zeros((2, 1, kh, kw)))
        out = conv2d_valid(Tensor(np.zeros((1, 1, H, W))), k, Tensor(np.zeros(2)), s)
        assert out.shape == (1, 2, (H - kh) // s + 1, (W - kw) // s + 1)


def test_conv2d_input_gradient_only_for_tracked_inputs():
    rng = np.random.default_rng(13)
    k = Tensor(rng.normal(size=(2, 3, 2, 2)), requires_grad=True)
    b = Tensor(np.zeros(2), requires_grad=True)
    data = rng.normal(size=(2, 3, 5, 5))

    def input_grad(x, taped=False):
        with GradTape() as tape:
            out = conv2d_valid(sigmoid(x) if taped else x, k, b)
        return tape._nodes[-1].pull(np.ones(out.shape))[0]

    assert input_grad(Tensor(data)) is None
    assert input_grad(Tensor(data), taped=True).shape == data.shape
    assert input_grad(Tensor(data, requires_grad=True)).shape == data.shape


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_separable_mean_pool_matches_windowed_mean(data):
    draw = data.draw
    H, W = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    kernel = draw(st.integers(1, min(H, W)))
    stride = draw(st.integers(1, 6))
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3)), H, W)
    x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=shape)
    got = mean_pool(Tensor(x), kernel, stride).data
    want = mean_pool_oracle(x, kernel, stride)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12


def test_mean_pool_records_only_tracked_inputs():
    x = Tensor(np.ones((2, 3, 6, 6)))
    with GradTape() as tape:
        mean_pool(x, 4, 1)
    assert tape._nodes == []
    with GradTape() as tape:
        mean_pool(sigmoid(x), 4, 1)
        mean_pool(Tensor(np.ones((1, 3, 6, 6)), requires_grad=True), 4, 1)
    assert len(tape._nodes) == 3


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
    want = mean_pool(conv2d_valid(x, k, b), window, stride).data
    got = conv2d_valid(mean_pool(x, window, 1), k, b, stride=stride).data
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12


# --- sigmoid --------------------------------------------------------------


def test_sigmoid_values():
    out = sigmoid(Tensor([0.0, -100.0, 100.0]))
    assert out.data[0] == pytest.approx(0.5)
    assert 0.0 < out.data[1] < 1e-40
    assert np.isfinite(out.data).all()


def test_sigmoid_matches_reference_on_both_tails():
    x = np.linspace(-40.0, 40.0, 1001)
    ref = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                   np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    assert np.abs(sigmoid(Tensor(x)).data - ref).max() <= 1e-16


def test_sigmoid_symmetry():
    x = np.linspace(-5, 5, 11)
    s_pos = sigmoid(Tensor(x)).data
    s_neg = sigmoid(Tensor(-x)).data
    assert np.allclose(s_pos + s_neg, 1.0, atol=1e-15)


SIGMOID_EDGES = [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 800.0, -800.0,
                 -745.5, 745.5, -709.8, 709.8, 36.7, -36.7, 1.0, -1.0, 1e308, -1e308]


def test_sigmoid_bit_identical_to_masked_copy_at_edges():
    x = np.array(SIGMOID_EDGES)
    assert sigmoid(Tensor(x)).data.tobytes() == sigmoid_oracle(x).tobytes()
    for v in SIGMOID_EDGES:  # 0-d inputs stay arrays
        out = sigmoid(Tensor(np.array(v))).data
        assert out.shape == () and out.tobytes() == sigmoid_oracle(np.array(v)).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
def test_sigmoid_bit_identical_to_masked_copy(values):
    x = np.array(values, dtype=np.float64)
    assert sigmoid(Tensor(x)).data.tobytes() == sigmoid_oracle(x).tobytes()


# --- batch_norm -----------------------------------------------------------


def _bn_state(C):
    return np.zeros(C), np.ones(C)


def test_batch_norm_train_standardizes():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(2.0, 3.0, size=(8, 4, 5, 5)))
    scale = Tensor(np.ones(4))
    shift = Tensor(np.zeros(4))
    rm, rv = _bn_state(4)
    out = batch_norm(x, scale, shift, rm, rv, training=True).data
    assert np.allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-6)
    assert np.allclose(out.var(axis=(0, 2, 3)), 1.0, atol=1e-5)


def test_batch_norm_infer_identity_with_unit_stats():
    x = Tensor(np.random.default_rng(4).normal(size=(3, 2, 1, 1)))
    rm, rv = _bn_state(2)
    out = batch_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), rm, rv,
                     training=False, eps=0.0)
    assert np.allclose(out.data, x.data)


def test_batch_norm_constant_channel_is_finite():
    x = Tensor(np.full((4, 1, 3, 3), 7.0))
    rm, rv = _bn_state(1)
    out = batch_norm(x, Tensor(np.ones(1)), Tensor(np.zeros(1)), rm, rv,
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
    out = linear(x, Tensor(np.eye(3)), Tensor(np.zeros(3)))
    assert np.allclose(out.data, x.data)


def test_linear_hand_matvec():
    out = linear(Tensor([[1.0, 1.0]]),
                 Tensor([[1.0, 2.0], [3.0, 4.0]]),
                 Tensor([0.0, 1.0]))
    assert np.allclose(out.data, [[3.0, 8.0]])


def test_linear_zero_weights_returns_bias():
    b = np.array([4.0, -2.0])
    out = linear(Tensor([[5.0, 6.0, 7.0]]), Tensor(np.zeros((2, 3))), Tensor(b))
    assert np.allclose(out.data, [b])


def test_linear_dimension_mismatch_rejected():
    with pytest.raises(ShapeError):
        linear(Tensor([[1.0, 2.0]]), Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)))


# --- dropout --------------------------------------------------------------


def test_dropout_rate_zero_and_infer_are_identity():
    x = Tensor(np.arange(6.0))
    rng = np.random.default_rng(0)
    assert dropout(x, 0.0, True, rng) is x
    assert dropout(x, 0.7, False) is x


def test_dropout_rejects_rate_one():
    with pytest.raises(ValueError):
        dropout(Tensor([1.0]), 1.0, True, np.random.default_rng(0))


def test_dropout_survivor_fraction_and_expectation():
    n = 10 ** 6
    x = Tensor(np.full(n, 2.0))
    out = dropout(x, 0.5, True, np.random.default_rng(123)).data
    survivors = np.count_nonzero(out) / n
    assert abs(survivors - 0.5) < 0.01
    assert abs(out.mean() - 2.0) / 2.0 < 0.02


# --- backward -------------------------------------------------------------


def test_backward_sigmoid_at_zero():
    w = Tensor(0.0, requires_grad=True)
    with GradTape() as tape:
        out = sigmoid(w)
    grads = backward([(out, np.ones(()))], tape)
    assert grads[w.uid] == pytest.approx(0.25)


def test_backward_rejects_wrong_shape_cotangent():
    w = Tensor([[1.0, 2.0]], requires_grad=True)
    with GradTape() as tape:
        y = sigmoid(w)
    for cotangent in (np.ones(3), np.ones(()), np.ones((2, 1)), np.ones(2)):
        with pytest.raises(GradientError, match="cotangent shape"):
            backward([(y, cotangent)], tape)


def test_backward_rejects_a_seed_not_recorded_once():
    w = Tensor([1.0, 2.0], requires_grad=True)
    with GradTape() as tape:
        y = sigmoid(w)
    unrecorded = sigmoid(w)
    for seeds in ([(w, np.ones(2))], [(unrecorded, np.ones(2))],
                  [(y, np.ones(2)), (y, np.ones(2))]):
        with pytest.raises(GradientError, match="distinct tensor recorded"):
            backward(seeds, tape)


def test_backward_unreachable_parameter_gets_exact_zero():
    w1 = Tensor([1.0, 2.0], requires_grad=True)
    w2 = Tensor([3.0], requires_grad=True)
    with GradTape() as tape:
        _side = sigmoid(w2)
        out = sigmoid(w1)
    grads = backward([(out, np.ones(2))], tape)
    assert np.array_equal(grads[w2.uid], np.zeros(1))
    s = out.data
    assert np.allclose(grads[w1.uid], s * (1.0 - s))


def test_backward_linearity():
    """The pull-back of a combination of seeds, on one output or on two, is
    the same combination of each seed's pull-back."""
    rng = np.random.default_rng(9)
    w = Tensor(rng.normal(size=(1, 5)), requires_grad=True)
    W, bias = Tensor(rng.normal(size=(3, 5))), Tensor(rng.normal(size=3))
    c1, c2 = rng.normal(size=(1, 5)), rng.normal(size=(1, 3))
    c3 = rng.normal(size=(1, 5))

    def pulled(seeds_of):
        with GradTape() as tape:
            outs = sigmoid(w), linear(w, W, bias)
        return backward(seeds_of(*outs), tape)[w.uid]

    g1 = pulled(lambda sig, lin: [(sig, c1)])
    g2 = pulled(lambda sig, lin: [(lin, c2)])
    g3 = pulled(lambda sig, lin: [(sig, c3)])
    a, b = 2.5, -0.75
    assert np.allclose(pulled(lambda sig, lin: [(sig, a * c1), (lin, b * c2)]),
                       a * g1 + b * g2, rtol=1e-12, atol=1e-14)
    assert np.allclose(pulled(lambda sig, lin: [(sig, a * c1 + b * c3)]),
                       a * g1 + b * g3, rtol=1e-12, atol=1e-14)


def test_gradient_accumulates_over_reuse():
    w = Tensor([[2.0, -1.0]], requires_grad=True)
    A, B = np.array([[1.0, 3.0]]), np.array([[-2.0, 0.5], [4.0, 1.0]])
    c1, c2 = np.array([[1.5]]), np.array([[0.25, -1.0]])
    with GradTape() as tape:
        o1 = linear(w, Tensor(A), Tensor(np.zeros(1)))
        o2 = linear(w, Tensor(B), Tensor(np.zeros(2)))
    grads = backward([(o1, c1), (o2, c2)], tape)
    assert np.allclose(grads[w.uid], c1 @ A + c2 @ B, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("op_name", [
    "conv", "pool", "pool_stride1", "fold", "sigmoid", "bn_train", "bn_infer", "linear", "dropout",
])
def test_primitive_gradients_match_finite_differences(op_name):
    rng = np.random.default_rng(hash(op_name) % 2 ** 31)
    if op_name == "conv":
        params = [Tensor(rng.normal(size=(2, 2, 5, 6)), requires_grad=True),
                  Tensor(rng.normal(size=(3, 2, 2, 3)), requires_grad=True),
                  Tensor(rng.normal(size=3), requires_grad=True)]
        proj = rng.normal(size=(2, 3, 2, 2))

        def build():
            return conv2d_valid(params[0], params[1], params[2], stride=2)
    elif op_name == "pool":
        params = [Tensor(rng.normal(size=(2, 1, 6, 6)), requires_grad=True)]
        proj = rng.normal(size=(2, 1, 2, 2))

        def build():
            return mean_pool(params[0], 4, 2)
    elif op_name == "pool_stride1":
        params = [Tensor(rng.normal(size=(2, 2, 5, 6)), requires_grad=True)]
        proj = rng.normal(size=(2, 2, 4, 5))

        def build():
            return mean_pool(params[0], 2, 1)
    elif op_name == "fold":
        # a model stage below its sigmoid: pool at stride 1, conv at stride 2
        params = [Tensor(rng.normal(size=(2, 3, 7, 8)), requires_grad=True),
                  Tensor(rng.normal(size=(2, 3, 3, 2)), requires_grad=True),
                  Tensor(rng.normal(size=2), requires_grad=True)]
        proj = rng.normal(size=(2, 2, 2, 3))

        def build():
            pooled = mean_pool(params[0], 2, 1)
            return conv2d_valid(pooled, params[1], params[2], stride=2)
    elif op_name == "sigmoid":
        params = [Tensor(rng.normal(size=7), requires_grad=True)]
        proj = rng.normal(size=7)

        def build():
            return sigmoid(params[0])
    elif op_name in ("bn_train", "bn_infer"):
        params = [Tensor(rng.normal(size=(5, 3, 2, 2)), requires_grad=True),
                  Tensor(rng.normal(size=3) + 1.5, requires_grad=True),
                  Tensor(rng.normal(size=3), requires_grad=True)]
        proj = rng.normal(size=(5, 3, 2, 2))
        training = op_name == "bn_train"

        def build():
            rm = np.full(3, 0.3)
            rv = np.full(3, 1.7)
            return batch_norm(params[0], params[1], params[2], rm, rv,
                              training=training)
    elif op_name == "linear":
        params = [Tensor(rng.normal(size=(4, 3)), requires_grad=True),
                  Tensor(rng.normal(size=(2, 3)), requires_grad=True),
                  Tensor(rng.normal(size=2), requires_grad=True)]
        proj = rng.normal(size=(4, 2))

        def build():
            return linear(params[0], params[1], params[2])
    else:
        params = [Tensor(rng.normal(size=40), requires_grad=True)]
        proj = rng.normal(size=40)

        def build():
            gen = np.random.default_rng(77)
            return dropout(params[0], 0.4, True, gen)

    # the gradient of sum(out * proj): ``proj`` seeds the pull-back
    with GradTape() as tape:
        out = build()
    analytic = backward([(out, proj)], tape)
    numeric = fd_gradient(lambda: float(np.sum(build().data * proj)), params)
    for p, num in zip(params, numeric):
        assert_grads_close(analytic[p.uid], num)


def test_determinism_bitwise():
    def run():
        rng = np.random.default_rng(42)
        x = Tensor(rng.normal(size=(3, 2, 6, 6)), requires_grad=True)
        k = Tensor(rng.normal(size=(2, 2, 3, 3)), requires_grad=True)
        b = Tensor(np.zeros(2), requires_grad=True)
        with GradTape() as tape:
            h = sigmoid(mean_pool(conv2d_valid(x, k, b), 2, 2))
        grads = backward([(h, 2.0 * h.data)], tape)  # the seed of sum(h * h)
        return h.data, grads[k.uid]

    h1, g1 = run()
    h2, g2 = run()
    assert np.array_equal(h1, h2)
    assert np.array_equal(g1, g2)
