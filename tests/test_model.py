import weakref

import numpy as np
import pytest

from synthdetect import tensor as T
from synthdetect.model import CnnConfig, FineToCoarseCnn
from synthdetect.tensor import (
    ShapeError,
    Tensor,
    backward,
    batch_norm,
    link,
    reshape,
    sigmoid,
)

import oracles
from helpers import assert_grads_close, fd_gradient_coords


def test_full_scale_shape_pipeline():
    cfg = CnnConfig(224)
    assert cfg.stage_sizes() == [(220, 109), (105, 51), (47, 22)]
    assert cfg.feature_dim == 15488


def test_reduced_scale_shape_pipeline():
    cfg = CnnConfig(32)
    assert cfg.stage_sizes() == [(30, 15), (13, 6), (4, 2)]
    assert cfg.feature_dim == 128


@pytest.mark.parametrize("kwargs", [
    {"input_size": 32.0}, {"input_size": True}, {"input_size": 64},
    {"input_size": 224.0}, {"input_size": "224"}, {"input_size": None},
    {"input_size": 0}, {"input_size": -32}, {"input_size": 33},
    {"input_size": 10**400}, {"input_size": float("nan")}])
def test_ill_typed_or_out_of_range_values_rejected(kwargs):
    with pytest.raises(ValueError, match="input_size must be 224 or 32"):
        CnnConfig(**kwargs)


@pytest.mark.parametrize("derived", ["in_channels", "filters", "kernel", "pool_kernel",
                                     "pool_stride", "bn_eps", "bn_momentum"])
def test_geometry_is_derived_from_input_size_alone(derived):
    with pytest.raises(TypeError):
        CnnConfig(32, **{derived: getattr(CnnConfig(32), derived)})


def test_forward_feature_count_full_scale():
    cnn = FineToCoarseCnn(CnnConfig(224), rng=np.random.default_rng(0))
    x = Tensor(np.random.default_rng(1).random((2, 3, 224, 224)))
    z = cnn.forward_features(x, training=False)
    assert z.shape == (2, 15488)
    assert np.isfinite(z.data).all()


def test_zero_input_zero_bias_gives_half_activations():
    cnn = FineToCoarseCnn(CnnConfig(32), rng=np.random.default_rng(0))
    stage1 = cnn.stage_activations(np.zeros((1, 3, 32, 32)))[0]
    assert np.allclose(stage1, 0.5)


def test_stage_activations_in_unit_interval():
    cnn = FineToCoarseCnn(CnnConfig(32), rng=np.random.default_rng(5))
    x = np.random.default_rng(6).random((2, 3, 32, 32))
    for act in cnn.stage_activations(x):
        assert np.all(act > 0.0)
        assert np.all(act < 1.0)


def test_forward_rejects_wrong_shape():
    cnn = FineToCoarseCnn(CnnConfig(32), rng=np.random.default_rng(0))
    with pytest.raises(ShapeError):
        cnn.forward_features(Tensor(np.zeros((1, 3, 16, 16))), training=False)


def test_forward_deterministic():
    def run():
        cnn = FineToCoarseCnn(CnnConfig(32), rng=np.random.default_rng(3))
        x = Tensor(np.random.default_rng(4).random((2, 3, 32, 32)))
        return cnn.forward_features(x, training=False).data

    assert np.array_equal(run(), run())


def test_xavier_bound_and_moments():
    cnn = FineToCoarseCnn(CnnConfig(224), rng=np.random.default_rng(12))
    k1 = cnn.params["conv1.kernels"]
    bound = np.sqrt(6.0 / (3 * 25 + 16 * 25))
    assert bound == pytest.approx(0.11239, abs=1e-5)
    assert np.all(np.abs(k1) <= bound)
    # the largest kernel (32x24x5x5), against its own bound
    draws = cnn.params["conv3.kernels"].reshape(-1)
    bound = np.sqrt(6.0 / (24 * 25 + 32 * 25))
    n = draws.size
    assert n >= 1000
    assert np.all(np.abs(draws) <= bound)
    assert abs(draws.mean()) <= 3 * bound / np.sqrt(n) * 2  # loose CLT bound
    for i in (1, 2, 3):
        b = cnn.params[f"conv{i}.bias"]
        assert np.array_equal(b, np.zeros(b.shape))


def test_xavier_mean_large_sample():
    rng = np.random.default_rng(99)
    fan_in, fan_out = 75, 400
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    samples = rng.uniform(-bound, bound, size=10 ** 5)
    assert abs(samples.mean()) < 3 * bound / np.sqrt(10 ** 5)


def test_state_round_trip():
    cnn = FineToCoarseCnn(CnnConfig(32), rng=np.random.default_rng(7))
    x = Tensor(np.random.default_rng(8).random((4, 3, 32, 32)))
    cnn.forward_features(x, training=True)  # moves running stats
    state = cnn.state_arrays()
    other = FineToCoarseCnn(CnnConfig(32))
    other.load_state_arrays(state)
    za = cnn.forward_features(x, training=False).data
    zb = other.forward_features(x, training=False).data
    assert np.array_equal(za, zb)


def test_composed_gradient_matches_finite_differences():
    cnn = FineToCoarseCnn(CnnConfig(32), rng=np.random.default_rng(20))
    x = Tensor(np.random.default_rng(21).random((3, 3, 32, 32)))
    proj = np.random.default_rng(22).normal(size=(3, 128))

    def value_only() -> float:
        cnn.buffers["bn.running_mean"][:] = 0.0  # running buffers do not affect train mode
        cnn.buffers["bn.running_var"][:] = 1.0
        return float(np.sum(cnn.forward_features(x, training=True).data * proj))

    # the gradient of sum(z * proj): ``proj`` seeds the pull-back
    chain = []
    cnn.forward_features(x, training=True, chain=chain)
    g_input, grads = backward(chain, proj)
    assert g_input is None  # stage 1 builds no input gradient
    assert sorted(grads) == sorted(cnn.params)

    rng = np.random.default_rng(23)
    for name in list(cnn.params):
        size = cnn.params[name].size
        coords = rng.choice(size, size=min(12, size), replace=False)
        numeric = fd_gradient_coords(value_only, cnn.params, name, coords)
        analytic = grads[name].reshape(-1)[coords]
        assert_grads_close(analytic, numeric)


def _reference_features(cnn, x, training, chain=None):
    """The unfused [B,C,H,W] stack: conv, then mean-pool, then sigmoid, per
    stage, on the reference ops of ``oracles``."""
    cfg, p = cnn.config, cnn.params
    h = x.data
    for i in range(1, len(cfg.filters) + 1):
        h = link(chain, (f"conv{i}.kernels", f"conv{i}.bias"),
                 oracles.conv2d_valid(h, p[f"conv{i}.kernels"], p[f"conv{i}.bias"]))
        h = link(chain, (), oracles.mean_pool(h, cfg.pool_kernel, cfg.pool_stride))
        h = link(chain, (), sigmoid(h))
    h = link(chain, ("bn.scale", "bn.shift"), batch_norm(
        h, p["bn.scale"], p["bn.shift"], cnn.buffers["bn.running_mean"],
        cnn.buffers["bn.running_var"], training=training, momentum=cfg.bn_momentum,
        eps=cfg.bn_eps))
    return link(chain, (), reshape(h, (h.shape[0], cnn.feature_dim)))


@pytest.mark.parametrize("input_size", [32, 224],
                         ids=["reduced_scale_config", "full_scale_config"])
def test_fused_stages_match_conv_pool_sigmoid(input_size):
    cfg = CnnConfig(input_size)
    cnn = FineToCoarseCnn(cfg, rng=np.random.default_rng(30))
    for i in (1, 2, 3):
        name = f"conv{i}.bias"
        cnn.params[name] = np.random.default_rng(31).normal(size=cnn.params[name].shape)
    x = np.random.default_rng(32).random((2, 3, cfg.input_size, cfg.input_size))
    h = x
    for i, ((conv_side, pool_side), fused) in enumerate(
            zip(cfg.stage_sizes(), cnn.stage_activations(x)), start=1):
        kern = cnn.params[f"conv{i}.kernels"]
        conv, _ = oracles.conv2d_valid(h, kern, cnn.params[f"conv{i}.bias"])
        assert conv.shape[-1] == conv_side
        h, _ = sigmoid(oracles.mean_pool(conv, cfg.pool_kernel, cfg.pool_stride)[0])
        assert h.shape == (2, kern.shape[0], pool_side, pool_side)
        assert fused.shape == (kern.shape[0], pool_side, pool_side, 2)
        assert np.abs(fused.transpose(3, 0, 1, 2) - h).max() <= 1e-12


def test_fused_parameter_gradients_match_reference():
    cnn = FineToCoarseCnn(CnnConfig(32), rng=np.random.default_rng(40))
    x = Tensor(np.random.default_rng(41).random((3, 3, 32, 32)))
    proj = np.random.default_rng(42).normal(size=(3, 128))
    grads = []
    for forward in (cnn.forward_features, lambda x, training, chain: _reference_features(
            cnn, x, training, chain)):
        chain = []
        forward(x, training=True, chain=chain)
        grads.append(backward(chain, proj)[1])
    fused, reference = grads
    for name in cnn.params:
        assert np.allclose(fused[name], reference[name], rtol=1e-9, atol=1e-12), name


@pytest.mark.parametrize("input_size,batch", [(32, 2), (32, 3), (32, 7), (32, 20), (224, 2)])
def test_batched_features_are_each_images_solo_features(input_size, batch):
    """Inference mixes no images: each row of a batched forward equals that
    image's forward alone, and the unfused [B,C,H,W] reference stack, within
    1e-12 relative. Distinct images, biases and batch-norm statistics make a
    swap of images or of channels show."""
    cfg = CnnConfig(input_size)
    cnn = FineToCoarseCnn(cfg, rng=np.random.default_rng(50))
    rng = np.random.default_rng(51)
    for i in (1, 2, 3):
        name = f"conv{i}.bias"
        cnn.params[name] = rng.normal(size=cnn.params[name].shape)
    c_last = cfg.filters[-1]
    cnn.params["bn.scale"] = rng.uniform(0.5, 2.0, size=c_last)
    cnn.params["bn.shift"] = rng.normal(size=c_last)
    cnn.buffers["bn.running_mean"][:] = rng.uniform(0.3, 0.7, size=c_last)
    cnn.buffers["bn.running_var"][:] = rng.uniform(0.01, 0.1, size=c_last)
    x = rng.random((batch, 3, input_size, input_size))
    z = cnn.forward_features(Tensor(x), training=False).data
    ref = _reference_features(cnn, Tensor(x), training=False)
    for n in range(batch):
        solo = cnn.forward_features(Tensor(x[n:n + 1]), training=False).data[0]
        scale = np.abs(solo).max()
        assert np.abs(z[n] - solo).max() <= 1e-12 * scale
        assert np.abs(ref[n] - solo).max() <= 1e-12 * scale


@pytest.mark.parametrize("input_size", [32, 224])
def test_inference_keeps_no_pull_alive(input_size, monkeypatch):
    """Without a chain the forward drops each op's pull, and the buffers it
    closes over, at the link: by the time the next op starts, every earlier
    link's pull has been collected."""
    pulls = []

    def no_pull_alive():
        assert [ref for ref in pulls if ref() is not None] == []

    real_link = T.link

    def link(chain, names, result):
        pulls.append(weakref.ref(result[1]))
        return real_link(chain, names, result)

    monkeypatch.setattr(T, "link", link)
    for name in ("mean_pool", "conv2d_valid", "sigmoid", "transpose", "batch_norm", "reshape"):
        def op(*args, _op=getattr(T, name), **kwargs):
            no_pull_alive()
            return _op(*args, **kwargs)
        monkeypatch.setattr(T, name, op)
    cnn = FineToCoarseCnn(CnnConfig(input_size), rng=np.random.default_rng(60))
    x = np.random.default_rng(61).random((2, 3, input_size, input_size))
    cnn.forward_features(Tensor(x), training=False)
    no_pull_alive()
    assert len(pulls) == 3 * len(cnn.config.filters) + 3  # stages, then transpose, norm, flatten
