import numpy as np
import pytest

from synthdetect.model import (
    CnnConfig,
    FineToCoarseCnn,
    full_scale_config,
    reduced_scale_config,
)
from synthdetect.tensor import (
    GradTape,
    ShapeError,
    Tensor,
    backward,
    batch_norm,
    conv2d_valid,
    mean_pool,
    sigmoid,
    sum_all,
)

from helpers import assert_grads_close, fd_gradient_coords


def test_full_scale_shape_pipeline():
    cfg = full_scale_config()
    assert cfg.stage_sizes() == [(220, 109), (105, 51), (47, 22)]
    assert cfg.feature_dim == 15488


def test_reduced_scale_shape_pipeline():
    cfg = reduced_scale_config()
    assert cfg.stage_sizes() == [(30, 15), (13, 6), (4, 2)]
    assert cfg.feature_dim == 128


def test_filters_must_increase():
    with pytest.raises(ValueError):
        CnnConfig(filters=(16, 16, 32))


@pytest.mark.parametrize("kwargs", [{"filters": ()}, {"pool_stride": 0}, {"kernel": -1}])
def test_non_positive_sizes_rejected(kwargs):
    with pytest.raises(ValueError):
        CnnConfig(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"input_size": 32.0}, {"kernel": True}, {"filters": (16, 24.0, 32)},
    {"bn_eps": "abc"}, {"bn_eps": None}, {"bn_eps": -1}, {"bn_eps": 0.0},
    {"bn_eps": float("inf")}, {"bn_eps": 10**400}, {"bn_momentum": 2},
    {"bn_momentum": float("nan")}])
def test_ill_typed_or_out_of_range_values_rejected(kwargs):
    with pytest.raises(ValueError):
        CnnConfig(**kwargs)


def test_forward_feature_count_full_scale():
    cnn = FineToCoarseCnn(full_scale_config(), rng=np.random.default_rng(0))
    x = Tensor(np.random.default_rng(1).random((2, 3, 224, 224)))
    z = cnn.forward_features(x, training=False)
    assert z.shape == (2, 15488)
    assert np.isfinite(z.data).all()


def test_zero_input_zero_bias_gives_half_activations():
    cnn = FineToCoarseCnn(reduced_scale_config(), rng=np.random.default_rng(0))
    x = Tensor(np.zeros((1, 3, 32, 32)))
    stage1 = cnn.stage_activations(x)[0]
    assert np.allclose(stage1.data, 0.5)


def test_stage_activations_in_unit_interval():
    cnn = FineToCoarseCnn(reduced_scale_config(), rng=np.random.default_rng(5))
    x = Tensor(np.random.default_rng(6).random((2, 3, 32, 32)))
    for act in cnn.stage_activations(x):
        assert np.all(act.data > 0.0)
        assert np.all(act.data < 1.0)


def test_forward_rejects_wrong_shape():
    cnn = FineToCoarseCnn(reduced_scale_config(), rng=np.random.default_rng(0))
    with pytest.raises(ShapeError):
        cnn.forward_features(Tensor(np.zeros((1, 3, 16, 16))), training=False)


def test_forward_deterministic():
    def run():
        cnn = FineToCoarseCnn(reduced_scale_config(), rng=np.random.default_rng(3))
        x = Tensor(np.random.default_rng(4).random((2, 3, 32, 32)))
        return cnn.forward_features(x, training=False).data

    assert np.array_equal(run(), run())


def test_xavier_bound_and_moments():
    cnn = FineToCoarseCnn(full_scale_config(), rng=np.random.default_rng(12))
    k1 = cnn.kernels[0].data
    bound = np.sqrt(6.0 / (3 * 25 + 16 * 25))
    assert bound == pytest.approx(0.11239, abs=1e-5)
    assert np.all(np.abs(k1) <= bound)
    draws = FineToCoarseCnn(
        CnnConfig(input_size=224, filters=(40, 41, 42)),
        rng=np.random.default_rng(13)).kernels[0].data.reshape(-1)
    n = draws.size
    assert n >= 1000
    assert abs(draws.mean()) <= 3 * bound / np.sqrt(n) * 2  # loose CLT bound
    for b in cnn.biases:
        assert np.array_equal(b.data, np.zeros(b.shape))


def test_xavier_mean_large_sample():
    rng = np.random.default_rng(99)
    fan_in, fan_out = 75, 400
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    samples = rng.uniform(-bound, bound, size=10 ** 5)
    assert abs(samples.mean()) < 3 * bound / np.sqrt(10 ** 5)


def test_state_round_trip():
    cnn = FineToCoarseCnn(reduced_scale_config(), rng=np.random.default_rng(7))
    x = Tensor(np.random.default_rng(8).random((4, 3, 32, 32)))
    cnn.forward_features(x, training=True)  # moves running stats
    state = cnn.state_arrays()
    other = FineToCoarseCnn(reduced_scale_config())
    other.load_state_arrays(state)
    za = cnn.forward_features(x, training=False).data
    zb = other.forward_features(x, training=False).data
    assert np.array_equal(za, zb)


def test_composed_gradient_matches_finite_differences():
    cnn = FineToCoarseCnn(reduced_scale_config(), rng=np.random.default_rng(20))
    x = Tensor(np.random.default_rng(21).random((3, 3, 32, 32)))
    proj = np.random.default_rng(22).normal(size=(3, 128))

    def objective() -> float:
        with GradTape() as tape:
            z = cnn.forward_features(x, training=True)
            loss = sum_all(z * proj)
        return loss.item(), tape

    def value_only() -> float:
        cnn.bn_mean[:] = 0.0  # running buffers do not affect train mode
        cnn.bn_var[:] = 1.0
        with GradTape():
            z = cnn.forward_features(x, training=True)
            return sum_all(z * proj).item()

    loss_val, tape = objective()
    with GradTape() as tape:
        z = cnn.forward_features(x, training=True)
        loss = sum_all(z * proj)
    grads = backward(loss, tape)

    rng = np.random.default_rng(23)
    for name, p in cnn.parameters():
        n_coords = min(12, p.size)
        coords = rng.choice(p.size, size=n_coords, replace=False)
        numeric = fd_gradient_coords(value_only, p, coords)
        analytic = grads[p.uid].reshape(-1)[coords]
        assert_grads_close(analytic, numeric)


def _reference_features(cnn, x, training):
    """The unfused stack: conv, then mean-pool, then sigmoid, per stage."""
    cfg = cnn.config
    h = x
    for kern, bias in zip(cnn.kernels, cnn.biases):
        h = sigmoid(mean_pool(conv2d_valid(h, kern, bias), cfg.pool_kernel, cfg.pool_stride))
    h = batch_norm(h, cnn.bn_scale, cnn.bn_shift, cnn.bn_mean, cnn.bn_var,
                   training=training, momentum=cfg.bn_momentum, eps=cfg.bn_eps)
    return h.reshape((h.shape[0], cnn.feature_dim))


@pytest.mark.parametrize("config", [reduced_scale_config, full_scale_config])
def test_fused_stages_match_conv_pool_sigmoid(config):
    cfg = config()
    cnn = FineToCoarseCnn(cfg, rng=np.random.default_rng(30))
    for b in cnn.biases:
        b.assign(np.random.default_rng(31).normal(size=b.shape))
    x = Tensor(np.random.default_rng(32).random((2, 3, cfg.input_size, cfg.input_size)))
    h = x
    for (conv_side, pool_side), kern, bias, fused in zip(
            cfg.stage_sizes(), cnn.kernels, cnn.biases, cnn.stage_activations(x)):
        conv = conv2d_valid(h, kern, bias)
        assert conv.shape[-1] == conv_side
        h = sigmoid(mean_pool(conv, cfg.pool_kernel, cfg.pool_stride))
        assert fused.shape == h.shape == (2, kern.shape[0], pool_side, pool_side)
        assert np.abs(fused.data - h.data).max() <= 1e-12


def test_fused_parameter_gradients_match_reference():
    cnn = FineToCoarseCnn(reduced_scale_config(), rng=np.random.default_rng(40))
    x = Tensor(np.random.default_rng(41).random((3, 3, 32, 32)))
    proj = np.random.default_rng(42).normal(size=(3, 128))
    grads = []
    for forward in (cnn.forward_features, lambda x, training: _reference_features(
            cnn, x, training)):
        with GradTape() as tape:
            loss = sum_all(forward(x, training=True) * proj)
        grads.append(backward(loss, tape))
    fused, reference = grads
    for name, p in cnn.parameters():
        assert np.allclose(fused[p.uid], reference[p.uid], rtol=1e-9, atol=1e-12), name
