import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from synthdetect import bayes
from synthdetect.bayes import (
    BayesianHead,
    Detector,
    GaussNewtonCurvature,
    NumericalError,
    VariationalPosterior,
    cg_solve,
    elbo,
    kl_to_prior,
    map_objective,
    per_sample_gradients,
    predictive,
)
from synthdetect.model import CnnConfig, FineToCoarseCnn
from synthdetect.preprocess import NormStats
from synthdetect.tensor import ShapeError, Tensor, backward, sgd_update

from helpers import (
    assert_grads_close,
    fd_gradient,
    fd_gradient_coords,
    flat_weights,
    set_flat_weights,
    weight_count,
)
from oracles import LinearHead, gauss_newton_dense, log_likelihood, log_prior


def conjugate_posterior(Z, y, alpha, beta):
    """Exact Bayesian linear regression: posterior mean and covariance."""
    d = Z.shape[1]
    S = np.linalg.inv(alpha * np.eye(d) + beta * Z.T @ Z)
    m = beta * S @ Z.T @ y
    return m, S


# --- densities ---------------------------------------------------------------


def test_log_prior_standard_normal_at_zero():
    assert log_prior(np.zeros(1), 1.0) == pytest.approx(-0.5 * math.log(2 * math.pi))


def test_log_prior_unit_weight():
    want = -0.5 * math.log(2 * math.pi) - 0.5
    assert log_prior(np.ones(1), 1.0) == pytest.approx(want)


def test_log_prior_matches_per_coordinate_sum():
    rng = np.random.default_rng(0)
    w = rng.normal(size=10)
    alpha = 2.0
    per_coord = sum(
        -0.5 * math.log(2 * math.pi / alpha) - 0.5 * alpha * wi ** 2 for wi in w)
    assert log_prior(w, alpha) == pytest.approx(per_coord, rel=1e-12)


def test_log_prior_rejects_bad_alpha():
    with pytest.raises(ValueError):
        log_prior(np.zeros(3), 0.0)


def test_log_likelihood_perfect_fit():
    assert log_likelihood(np.ones(1), np.ones(1), 1.0) == pytest.approx(
        -0.5 * math.log(2 * math.pi))


def test_log_likelihood_unit_residual():
    want = -0.5 * math.log(2 * math.pi) - 0.5
    assert log_likelihood(np.zeros(1), np.ones(1), 1.0) == pytest.approx(want)


def test_log_likelihood_matches_density_product():
    rng = np.random.default_rng(1)
    y = rng.normal(size=5)
    f = rng.normal(size=5)
    beta = 3.7
    direct = 0.0
    for yi, fi in zip(y, f):
        direct += math.log(
            math.sqrt(beta / (2 * math.pi)) * math.exp(-0.5 * beta * (yi - fi) ** 2))
    assert log_likelihood(y, f, beta) == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize("hparams", [
    dict(hidden=0), dict(hidden=2.0), dict(hidden=True), dict(alpha=np.nan),
    dict(beta=-1.0), dict(dropout_rate=1.0),
], ids=["hidden_zero", "hidden_float", "hidden_bool", "alpha_nan", "beta_negative",
        "dropout_rate_one"])
def test_head_rejects_bad_hyperparameters(hparams):
    with pytest.raises(ValueError):
        BayesianHead(3, **{"hidden": 2, **hparams})


def test_log_likelihood_rejects_mismatch():
    with pytest.raises(ValueError):
        log_likelihood(np.zeros(3), np.zeros(4), 1.0)
    with pytest.raises(ValueError):
        log_likelihood(np.zeros(3), np.zeros(3), -1.0)


# --- head construction -----------------------------------------------------------


def test_head_takes_over_given_weights_without_copy():
    rng = np.random.default_rng(0)
    weights = {"fc2.bias": rng.normal(size=1), "fc1.weights": rng.normal(size=(5, 6)),
               "fc2.weights": rng.normal(size=(1, 5)), "fc1.bias": rng.normal(size=5)}
    head = BayesianHead(6, hidden=5, weights=weights)
    assert list(head.params) == ["fc1.weights", "fc1.bias", "fc2.weights", "fc2.bias"]
    for name, w in weights.items():
        assert head.params[name] is w and not w.flags.writeable


def test_head_rejects_misshapen_weights():
    weights = {"fc1.weights": np.zeros((5, 6)), "fc1.bias": np.zeros(5),
               "fc2.weights": np.zeros((5, 1)), "fc2.bias": np.zeros(1)}
    with pytest.raises(ShapeError):
        BayesianHead(6, hidden=5, weights=weights)
    del weights["fc2.weights"]
    with pytest.raises(ShapeError):
        BayesianHead(6, hidden=5, weights=weights)


# --- map objective -----------------------------------------------------------


def test_map_objective_decomposes():
    rng = np.random.default_rng(2)
    head = LinearHead(4, alpha=0.5, beta=2.0)
    set_flat_weights(head, rng.normal(size=4))
    Z = rng.normal(size=(6, 4))
    targets = rng.normal(size=6)
    out = head.forward(Z)
    obj, _, _ = map_objective(out, targets, head.params, alpha=0.5, beta=2.0)
    want = -log_likelihood(targets, out, 2.0) - log_prior(flat_weights(head), 0.5)
    assert obj == pytest.approx(want, rel=1e-12)


def test_map_objective_monotone_in_alpha():
    rng = np.random.default_rng(3)
    head = LinearHead(4, alpha=1.0, beta=1.0)
    set_flat_weights(head, rng.normal(size=4) + 1.0)
    Z = rng.normal(size=(5, 4))
    targets = rng.normal(size=5)

    def value(alpha):
        out = head.forward(Z)
        return map_objective(out, targets, head.params, alpha=alpha, beta=1.0)[0] \
            + log_prior(np.zeros(4), alpha)  # drop the alpha-dependent constant

    assert value(2.0) > value(1.0)


def test_map_objective_gradient_matches_fd():
    rng = np.random.default_rng(4)
    head = BayesianHead(6, hidden=5, alpha=0.3, beta=4.0, dropout_rate=0.0,
                        rng=rng)
    Z = rng.normal(size=(7, 6))
    targets = np.ones(7)

    def build(chain=None):
        return map_objective(head.forward(Z, chain=chain), targets, head.params,
                             alpha=0.3, beta=4.0)

    chain = []
    _, cotangent, prior = build(chain)
    grads = backward(chain, cotangent)[1]
    analytic = {name: grads[name] + g for name, g in prior.items()}
    numeric = fd_gradient(lambda: build()[0], head.params)
    for name, num in numeric.items():
        assert_grads_close(analytic[name], num)


def test_map_prior_gradients_are_values_of_the_weights_passed_in():
    """The prior's gradients are arrays computed at the call: new head
    weights assigned afterwards leave them those of the weights passed in."""
    rng = np.random.default_rng(23)
    head = BayesianHead(4, hidden=3, alpha=0.6, beta=3.0, dropout_rate=0.0, rng=rng)
    passed = dict(head.params)
    _, _, prior = map_objective(head.forward(rng.normal(size=(5, 4))), np.ones(5),
                                head.params, 0.6, 3.0, scale=0.25)
    for name, w in passed.items():
        head.params[name] = rng.normal(size=w.shape)
    assert prior.keys() == passed.keys()
    for name, w in passed.items():
        assert np.array_equal(prior[name], (0.25 * 0.6) * w)


@pytest.mark.parametrize("name,value", [
    ("alpha", math.inf), ("beta", math.inf), ("alpha", 0.0), ("beta", -2.0), ("alpha", math.nan),
], ids=["alpha_infinite", "beta_infinite", "alpha_zero", "beta_negative", "alpha_nan"])
def test_objectives_check_precisions_by_the_head_rules(name, value):
    head = LinearHead(2)
    q = VariationalPosterior(head)
    hp = {"alpha": 1.0, "beta": 1.0, name: value}
    Z, y = np.ones((3, 2)), np.ones(3)
    calls = [lambda: map_objective(np.zeros(3), y, head.params, **hp),
             lambda: elbo(head, q, Z, y, **hp, n_mc=1, rng=np.random.default_rng(0))]
    if name == "alpha":
        calls.append(lambda: kl_to_prior(q, value))
    for call in calls:
        with pytest.raises(ValueError, match=f"{name} must be finite and > 0, got"):
            call()


def test_objective_gradients_are_those_of_scale_times_the_value():
    rng = np.random.default_rng(19)
    head = BayesianHead(4, hidden=3, alpha=0.6, beta=3.0, dropout_rate=0.0, rng=rng)
    Z, y = rng.normal(size=(5, 4)), rng.normal(size=5)
    q = VariationalPosterior(head, init_log_std=-1.0)

    def map_gradients(s):
        chain = []
        value, cotangent, prior = map_objective(
            head.forward(Z, chain=chain), y, head.params, 0.6, 3.0, s)
        grads = backward(chain, cotangent)[1]
        return value, {name: grads[name] + g for name, g in prior.items()}

    def elbo_gradients(s):
        value, g_features, grads = elbo(head, q, Z, y, 0.6, 3.0, 2,
                                        np.random.default_rng(5), scale=s)
        return value, {**grads, "features": g_features}

    for objective in (map_gradients, elbo_gradients):
        for scale in (0.37, -2.0):
            (value, g), (value1, g1) = objective(scale), objective(1.0)
            assert value == value1
            assert g.keys() == g1.keys()
            for name in g:
                assert np.allclose(g[name], scale * g1[name], rtol=1e-12, atol=1e-15)


# --- curvature ----------------------------------------------------------------


def test_gauss_newton_single_sample_linear():
    head = LinearHead(1)
    set_flat_weights(head, np.array([0.7]))
    assert gauss_newton_dense(head, np.array([[2.0]])) == pytest.approx(np.array([[4.0]]))


def test_gauss_newton_symmetric_psd():
    rng = np.random.default_rng(5)
    head = BayesianHead(4, hidden=3, dropout_rate=0.0, rng=rng)
    Z = rng.normal(size=(6, 4))
    H = gauss_newton_dense(head, Z)
    assert np.array_equal(H, H.T)
    for _ in range(100):
        v = rng.normal(size=H.shape[0])
        assert v @ H @ v >= -1e-12


def test_gauss_newton_linear_model_equals_ztz():
    rng = np.random.default_rng(6)
    Z = rng.normal(size=(9, 5))
    head = LinearHead(5)
    set_flat_weights(head, rng.normal(size=5))
    H = gauss_newton_dense(head, Z)
    assert np.allclose(H, Z.T @ Z, atol=1e-10)


def test_gauss_newton_rejects_empty_batch():
    head = LinearHead(3)
    with pytest.raises(ValueError):
        GaussNewtonCurvature(head, np.zeros((0, 3)))


@pytest.mark.parametrize("width", [2, 4])
def test_gauss_newton_rejects_feature_width_mismatch(width):
    head = BayesianHead(3, hidden=2, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match=f"width {width}, the head expects 3"):
        GaussNewtonCurvature(head, np.ones((5, width)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gauss_newton_rejects_non_finite_features(bad):
    head = BayesianHead(3, hidden=2, rng=np.random.default_rng(0))
    Z = np.ones((5, 3))
    Z[2, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        GaussNewtonCurvature(head, Z)


def test_matvec_matches_dense():
    rng = np.random.default_rng(7)
    head = BayesianHead(5, hidden=4, dropout_rate=0.0, rng=rng)
    Z = rng.normal(size=(8, 5))
    curv = GaussNewtonCurvature(head, Z)
    H = gauss_newton_dense(head, Z)
    for _ in range(5):
        v = rng.normal(size=weight_count(head))
        assert np.allclose(curv.matvec(v), H @ v, atol=1e-10)


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def test_closed_form_products_match_tape():
    """J v, J^T u and H v from the heads' closed forms agree with the
    per-sample gradients that ``backward`` gives, dropout included."""
    rng = np.random.default_rng(8)
    linear = LinearHead(6)
    set_flat_weights(linear, rng.normal(size=6))
    for head in (BayesianHead(6, hidden=5, dropout_rate=0.5, rng=rng), linear):
        Z = rng.normal(size=(11, 6))
        G = per_sample_gradients(head, Z)
        jvp, vjp = head.jacobian_products(Z, head.params)
        curv = GaussNewtonCurvature(head, Z)
        for _ in range(3):
            v = rng.normal(size=weight_count(head))
            u = rng.normal(size=11)
            assert _rel(jvp(v), G @ v) <= 1e-12
            assert _rel(vjp(u), G.T @ u) <= 1e-12
            assert _rel(curv.matvec(v), G.T @ (G @ v)) <= 1e-12


def test_single_row_product_is_head_weight_gradient():
    rng = np.random.default_rng(23)
    head = BayesianHead(6, hidden=5, dropout_rate=0.5, rng=rng)
    for _ in range(3):
        z = rng.normal(size=6)
        _, vjp = head.jacobian_products(z[None, :], head.params)
        assert _rel(vjp(np.ones(1)), per_sample_gradients(head, z[None])[0]) <= 1e-12


def test_curvature_and_predictive_build_no_tape(monkeypatch):
    rng = np.random.default_rng(24)
    head = BayesianHead(6, hidden=5, alpha=0.5, beta=4.0, rng=rng)
    Z = rng.normal(size=(10, 6))

    def refuse(*args):
        raise AssertionError("a backward pass was run")

    monkeypatch.setattr(bayes, "backward", refuse)
    curv = GaussNewtonCurvature(head, Z)
    curv.matvec(rng.normal(size=weight_count(head)))
    _, var = predictive(rng.normal(size=6), head, curv)
    assert var >= 1.0 / 4.0


def test_curvature_build_allocates_no_gradient_block():
    """At N=64, d=128, hidden=512 the [N, W] gradient block would be 34 MB
    and the [N, hidden] hidden activations 0.26 MB; the build keeps the
    arrays it is given and allocates less than the features themselves."""
    rng = np.random.default_rng(25)
    head = BayesianHead(128, hidden=512, rng=rng)
    Z = rng.normal(size=(64, 128))
    tracemalloc.start()
    try:
        GaussNewtonCurvature(head, Z)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < Z.nbytes


def test_curvature_and_predictive_build_no_operator(monkeypatch):
    """Neither the build nor a query forms the Jacobian products."""
    rng = np.random.default_rng(33)
    head = BayesianHead(6, hidden=5, alpha=0.5, beta=4.0, rng=rng)

    def refuse(*args, **kwargs):
        raise AssertionError("the Jacobian products were built")

    monkeypatch.setattr(BayesianHead, "jacobian_products", refuse)
    curv = GaussNewtonCurvature(head, rng.normal(size=(10, 6)))
    for _ in range(3):
        _, var = predictive(rng.normal(size=6), head, curv)
        assert var >= 1.0 / 4.0


def test_matvec_describes_head_as_built():
    """``matvec`` forms its products from the weights kept at build, so a
    weight update after the build does not reach it."""
    rng = np.random.default_rng(34)
    head = BayesianHead(6, hidden=5, dropout_rate=0.5, rng=rng)
    Z = rng.normal(size=(11, 6))
    G = per_sample_gradients(head, Z)
    curv = GaussNewtonCurvature(head, Z)
    set_flat_weights(head, rng.normal(size=weight_count(head)))
    assert not np.allclose(per_sample_gradients(head, Z), G)
    for _ in range(3):
        v = rng.normal(size=weight_count(head))
        assert _rel(curv.matvec(v), G.T @ (G @ v)) <= 1e-12


# --- solves ---------------------------------------------------------------------


def test_cg_matches_dense_solve():
    rng = np.random.default_rng(9)
    for n in (3, 17, 64):
        G = rng.normal(size=(2 * n, n))
        A = 0.5 * np.eye(n) + G.T @ G
        b = rng.normal(size=n)
        x = cg_solve(lambda v: A @ v, b)
        assert np.allclose(x, np.linalg.solve(A, b), rtol=1e-8, atol=1e-10)


def test_cg_rejects_indefinite():
    A = np.diag([1.0, -1.0])
    with pytest.raises(NumericalError):
        cg_solve(lambda v: A @ v, np.array([1.0, 1.0]))


def test_regularized_solve_cg_vs_dense():
    rng = np.random.default_rng(10)
    head = LinearHead(20, alpha=0.05, beta=9.0)
    set_flat_weights(head, rng.normal(size=20))
    Z = rng.normal(size=(30, 20))
    curv = GaussNewtonCurvature(head, Z)
    g = rng.normal(size=20)
    x_cg = cg_solve(lambda v: 0.05 * v + 9.0 * curv.matvec(v), g)
    x_dense = np.linalg.solve(0.05 * np.eye(20) + 9.0 * gauss_newton_dense(head, Z), g)
    denom = abs(g @ x_dense)
    assert abs(g @ x_cg - g @ x_dense) / denom < 1e-6


# --- predictive ------------------------------------------------------------------


def test_predictive_huge_alpha_collapses_to_noise_floor():
    rng = np.random.default_rng(11)
    head = LinearHead(6, alpha=1e12, beta=4.0)
    set_flat_weights(head, rng.normal(size=6))
    Z = rng.normal(size=(10, 6))
    curv = GaussNewtonCurvature(head, Z)
    _, var = predictive(rng.normal(size=6), head, curv)
    assert abs(var - 0.25) / 0.25 < 1e-6


def test_predictive_matches_conjugate_regression():
    rng = np.random.default_rng(12)
    for _ in range(20):
        d = int(rng.integers(2, 10))
        n = int(rng.integers(d, 3 * d + 2))
        alpha = float(rng.uniform(0.05, 2.0))
        beta = float(rng.uniform(0.5, 10.0))
        Z = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        m, S = conjugate_posterior(Z, y, alpha, beta)
        head = LinearHead(d, alpha=alpha, beta=beta)
        set_flat_weights(head, m)
        curv = GaussNewtonCurvature(head, Z)
        z = rng.normal(size=d)
        mean, var = predictive(z, head, curv)
        assert abs(mean - m @ z) < 1e-8
        assert abs(var - (1.0 / beta + z @ S @ z)) < 1e-8


def test_predictive_variance_floor():
    rng = np.random.default_rng(13)
    head = BayesianHead(5, hidden=4, alpha=0.2, beta=50.0, dropout_rate=0.0, rng=rng)
    Z = rng.normal(size=(12, 5))
    curv = GaussNewtonCurvature(head, Z)
    for _ in range(10):
        _, var = predictive(rng.normal(size=5), head, curv)
        assert var >= 1.0 / 50.0 - 1e-12


def _backward_variance(head, curv, z):
    """Weight part of the variance, g^T (alpha*I + beta*H)^-1 g, from the
    gradient ``backward`` gives and the dense curvature."""
    g = per_sample_gradients(head, z[None])[0]
    H = gauss_newton_dense(head, curv.features)
    return g @ np.linalg.solve(head.alpha * np.eye(weight_count(head)) + head.beta * H, g)


def _cg_variance(head, curv, z):
    _, vjp = head.jacobian_products(z[None, :], head.params)
    g = vjp(np.ones(1))
    return g @ cg_solve(lambda v: head.alpha * v + head.beta * curv.matvec(v), g)


def test_predictive_matches_dense_tape_solve():
    rng = np.random.default_rng(26)
    linear = LinearHead(8, alpha=0.4, beta=3.0)
    set_flat_weights(linear, rng.normal(size=8))
    heads = (BayesianHead(8, hidden=16, alpha=0.3, beta=5.0, dropout_rate=0.5, rng=rng),
             linear)
    for head in heads:
        curv = GaussNewtonCurvature(head, rng.normal(size=(12, 8)))
        for _ in range(5):
            z = rng.normal(size=8)
            mean, var = predictive(z, head, curv)
            expected = _backward_variance(head, curv, z)
            assert abs((var - 1.0 / head.beta) - expected) / expected <= 1e-12
            assert mean == float(head.forward(z[None, :])[0])


def test_predictive_matches_cg_at_bench_size():
    rng = np.random.default_rng(27)
    head = BayesianHead(128, hidden=512, rng=rng)
    curv = GaussNewtonCurvature(head, rng.normal(size=(64, 128)))
    for _ in range(2):
        z = rng.normal(size=128)
        _, var = predictive(z, head, curv)
        expected = 1.0 / head.beta + _cg_variance(head, curv, z)
        assert abs(var - expected) / expected <= 1e-8


def test_predictive_zero_head():
    """All-zero weights make the Gram matrix K singular (only the output
    bias has a gradient); the variance stays finite and equals CG's."""
    rng = np.random.default_rng(28)
    head = BayesianHead(8, hidden=16)
    curv = GaussNewtonCurvature(head, rng.normal(size=(12, 8)))
    z = rng.normal(size=8)
    mean, var = predictive(z, head, curv)
    expected = 1.0 / head.beta + _cg_variance(head, curv, z)
    assert mean == 0.0
    assert math.isfinite(var) and var >= 1.0 / head.beta
    assert abs(var - expected) / expected <= 1e-12


def test_predictive_variance_describes_head_as_built():
    """A weight update after the build changes neither a curvature's next
    query nor its first one: not the variance, and not the mean."""
    rng = np.random.default_rng(29)
    head = BayesianHead(6, hidden=5, rng=rng)
    Z = rng.normal(size=(10, 6))
    queried, unqueried = GaussNewtonCurvature(head, Z), GaussNewtonCurvature(head, Z)
    z = rng.normal(size=6)
    built_mean = float(head.forward(z[None, :])[0])
    mean, var = predictive(z, head, queried)
    assert mean == built_mean
    set_flat_weights(head, rng.normal(size=weight_count(head)))
    assert float(head.forward(z[None, :])[0]) != built_mean
    assert predictive(z, head, queried) == (mean, var)
    assert predictive(z, head, unqueried) == (mean, var)


def test_predictive_keeps_noise_floor_as_built():
    rng = np.random.default_rng(31)
    head = BayesianHead(6, hidden=5, beta=4.0, rng=rng)
    curv = GaussNewtonCurvature(head, rng.normal(size=(10, 6)))
    z = rng.normal(size=6)
    before = predictive(z, head, curv)
    head.alpha, head.beta = 1e3, 1e-3
    assert predictive(z, head, curv) == before


def test_predictive_rejects_curvature_of_another_head():
    rng = np.random.default_rng(32)
    head = BayesianHead(6, hidden=5, rng=rng)
    twin = BayesianHead(6, hidden=5, weights=dict(head.params))
    curv = GaussNewtonCurvature(head, rng.normal(size=(10, 6)))
    with pytest.raises(ValueError, match="different head"):
        predictive(rng.normal(size=6), twin, curv)


def test_predictive_rejects_non_finite_query():
    rng = np.random.default_rng(33)
    head = BayesianHead(6, hidden=5, rng=rng)
    curv = GaussNewtonCurvature(head, rng.normal(size=(10, 6)))
    z = rng.normal(size=6)
    z[2] = np.nan
    with pytest.raises(FloatingPointError, match="non-finite"):
        predictive(z, head, curv)


def test_predictive_reaches_no_solver_and_no_tape(monkeypatch):
    rng = np.random.default_rng(30)
    head = BayesianHead(6, hidden=5, alpha=0.5, beta=4.0, rng=rng)
    curv = GaussNewtonCurvature(head, rng.normal(size=(10, 6)))

    def refuse(*args, **kwargs):
        raise AssertionError("a test oracle was reached")

    monkeypatch.setattr(bayes, "cg_solve", refuse)
    monkeypatch.setattr(GaussNewtonCurvature, "matvec", refuse)
    monkeypatch.setattr(bayes, "backward", refuse)
    for _ in range(3):
        _, var = predictive(rng.normal(size=6), head, curv)
        assert var >= 1.0 / 4.0


@settings(max_examples=60, deadline=None)
# alpha is below the rounding of beta * R M R^T here: a Cholesky factor of
# their sum fails
@example(seed=0, d=3, hidden=1, n=1, alpha=0.25, beta=164185.0, scale=381.0)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 6), st.integers(1, 9),
       st.floats(1e-6, 1e6), st.floats(1e-6, 1e6), st.floats(0.0, 1e3))
def test_predictive_variance_never_below_noise_floor(seed, d, hidden, n, alpha, beta, scale):
    rng = np.random.default_rng(seed)
    weights = {name: scale * rng.normal(size=shape)
               for name, shape in BayesianHead.parameter_shapes(d, hidden)}
    head = BayesianHead(d, hidden=hidden, alpha=alpha, beta=beta, weights=weights)
    curv = GaussNewtonCurvature(head, scale * rng.normal(size=(n, d)))
    _, var = predictive(scale * rng.normal(size=d), head, curv)
    assert math.isfinite(var) and var >= 1.0 / beta


# --- variational -----------------------------------------------------------------


def test_kl_zero_when_q_equals_prior():
    head = LinearHead(7, alpha=2.5)
    q = VariationalPosterior(head)
    head.params["w"] = np.zeros((1, 7))
    q.log_stds["w.log_std"] = np.full((1, 7), -0.5 * math.log(2.5))
    assert kl_to_prior(q, 2.5)[0] == pytest.approx(0.0, abs=1e-12)


def test_kl_closed_form_values():
    head = LinearHead(1, alpha=1.0)
    q = VariationalPosterior(head)
    head.params["w"] = np.zeros((1, 1))
    q.log_stds["w.log_std"] = np.zeros((1, 1))
    assert kl_to_prior(q, 1.0)[0] == pytest.approx(0.0, abs=1e-12)
    head.params["w"] = np.ones((1, 1))
    assert kl_to_prior(q, 1.0)[0] == pytest.approx(0.5, abs=1e-12)


def test_kl_non_negative_random_settings():
    rng = np.random.default_rng(14)
    head = LinearHead(6, alpha=1.0)
    q = VariationalPosterior(head)
    for _ in range(200):
        alpha = float(rng.uniform(0.01, 10.0))
        head.params["w"] = rng.normal(size=(1, 6), scale=3.0)
        q.log_stds["w.log_std"] = rng.normal(size=(1, 6), scale=1.5)
        assert kl_to_prior(q, alpha)[0] >= -1e-10


def test_variational_means_are_the_head_tensors():
    """q keeps no means of its own: the KL reads the head's ``params``, and
    q's log-stds are keyed and shaped after them."""
    head = BayesianHead(4, hidden=3, dropout_rate=0.0, rng=np.random.default_rng(3))
    q = VariationalPosterior(head)
    assert list(q.log_stds) == [f"{name}.log_std" for name in head.params]
    assert all(q.log_stds[f"{name}.log_std"].shape == w.shape
               for name, w in head.params.items())
    _, grads = kl_to_prior(q, 2.0)
    for name, w in head.params.items():
        assert np.array_equal(grads[name], 2.0 * w)


def test_variational_stds_strictly_positive():
    head = BayesianHead(4, hidden=3, dropout_rate=0.0)
    q = VariationalPosterior(head)
    for name, ls in q.log_stds.items():
        q.log_stds[name] = np.full(ls.shape, -30.0)
    assert all(np.all(np.exp(ls) > 0.0) for ls in q.log_stds.values())


def _log_evidence(Z, y, alpha, beta):
    n = Z.shape[0]
    cov = np.eye(n) / beta + (Z @ Z.T) / alpha
    sign, logdet = np.linalg.slogdet(cov)
    assert sign > 0
    return -0.5 * (n * math.log(2 * math.pi) + logdet + y @ np.linalg.solve(cov, y))


def test_elbo_below_evidence_and_gap_shrinks():
    rng = np.random.default_rng(15)
    Z = rng.normal(size=(12, 1))
    y = (1.3 * Z[:, 0] + rng.normal(size=12, scale=0.4))
    alpha, beta = 0.5, 1.0 / 0.16
    evidence = _log_evidence(Z, y, alpha, beta)
    m, S = conjugate_posterior(Z, y, alpha, beta)
    head = LinearHead(1, alpha=alpha, beta=beta)
    q = VariationalPosterior(head)

    def elbo_at(mean, std, seed=99, n_mc=4000):
        head.params["w"] = np.array([[mean]])
        q.log_stds["w.log_std"] = np.array([[math.log(std)]])
        return elbo(head, q, Z, y, alpha, beta, n_mc, np.random.default_rng(seed))[0]

    exact_std = math.sqrt(S[0, 0])
    tight = elbo_at(m[0], exact_std)
    off = elbo_at(m[0] + 1.0, exact_std * 3.0)
    assert tight <= evidence + 0.05  # MC noise allowance at the optimum
    assert off < tight
    assert evidence - off > evidence - tight


def test_elbo_gradient_matches_fd_fixed_noise():
    rng = np.random.default_rng(16)
    head = LinearHead(3, alpha=0.8, beta=2.0)
    Z = rng.normal(size=(5, 3))
    y = rng.normal(size=5)
    q = VariationalPosterior(head)
    head.params["w"] = rng.normal(size=(1, 3))
    q.log_stds["w.log_std"] = rng.normal(size=(1, 3), scale=0.3)

    def build():
        return elbo(head, q, Z, y, 0.8, 2.0, n_mc=2,
                    rng=np.random.default_rng(1234))

    analytic = build()[2]
    numeric = {**fd_gradient(lambda: build()[0], head.params),
               **fd_gradient(lambda: build()[0], q.log_stds)}
    assert numeric.keys() == analytic.keys()
    for name, num in numeric.items():
        assert_grads_close(analytic[name], num)


def test_elbo_gradient_through_the_extractor_matches_fd():
    """At n_mc = 2 both samples' head cotangents reach the shared features,
    so the extractor's gradient sums them; the q gradients sum the samples'
    weight gradients. Fixed eps and dropout seeds make the bound a
    deterministic function of every weight."""
    cnn = FineToCoarseCnn(CnnConfig(32), rng=np.random.default_rng(60))
    head = BayesianHead(cnn.feature_dim, hidden=8, alpha=0.5, beta=3.0, dropout_rate=0.5,
                        rng=np.random.default_rng(61))
    q = VariationalPosterior(head, init_log_std=-1.5)
    x = Tensor(np.random.default_rng(62).random((4, 3, 32, 32)))
    y = np.ones(4)

    def build(chain=None):
        z = cnn.forward_features(x, training=True, chain=chain).data
        return elbo(head, q, z, y, 0.5, 3.0, n_mc=2, rng=np.random.default_rng(63),
                    training=True, dropout_rng=np.random.default_rng(64))

    chain = []
    _, g_features, q_gradients = build(chain)
    _, grads = backward(chain, g_features)
    grads.update(q_gradients)
    rng = np.random.default_rng(65)
    for params in (cnn.params, head.params, q.log_stds):
        for name in list(params):
            size = params[name].size
            coords = rng.choice(size, size=min(8, size), replace=False)
            numeric = fd_gradient_coords(lambda: build()[0], params, name, coords)
            assert_grads_close(grads[name].reshape(-1)[coords], numeric)


def test_elbo_ascent_on_conjugate_problem():
    rng = np.random.default_rng(17)
    Z = rng.normal(size=(20, 1))
    y = 0.9 * Z[:, 0] + rng.normal(size=20, scale=0.3)
    alpha, beta = 1.0, 1.0 / 0.09
    head = LinearHead(1, alpha=alpha, beta=beta)
    q = VariationalPosterior(head, init_log_std=-2.0)
    lr = 1e-4
    opt_rng = np.random.default_rng(18)
    values = []
    for _ in range(200):
        _, _, grads = elbo(head, q, Z, y, alpha, beta, n_mc=16, rng=opt_rng)
        # record with a fixed evaluation seed so the trace reflects q itself,
        # not per-step sampling noise
        values.append(elbo(head, q, Z, y, alpha, beta, n_mc=128,
                           rng=np.random.default_rng(0))[0])
        for params in (head.params, q.log_stds):
            sgd_update(params, grads, -lr)  # ascend the bound
    smoothed = np.convolve(values, np.ones(10) / 10.0, mode="valid")
    drops = np.diff(smoothed) < 0.0
    assert not drops.any(), f"smoothed ELBO fell at steps {np.where(drops)[0][:5]}"
    m, S = conjugate_posterior(Z, y, alpha, beta)
    assert abs(flat_weights(head)[0] - m[0]) < 2 * math.sqrt(S[0, 0])


# --- gradient plumbing -------------------------------------------------------------


def test_head_weight_gradient_linear_is_input():
    head = LinearHead(4)
    set_flat_weights(head, np.array([1.0, -2.0, 0.5, 3.0]))
    z = np.array([0.3, 0.7, -1.1, 2.0])
    assert np.allclose(per_sample_gradients(head, z[None])[0], z, atol=1e-14)


def test_per_sample_gradients_shape():
    rng = np.random.default_rng(19)
    head = BayesianHead(3, hidden=2, dropout_rate=0.0, rng=rng)
    G = per_sample_gradients(head, rng.normal(size=(5, 3)))
    assert G.shape == (5, weight_count(head))


# --- scoring -------------------------------------------------------------------


def test_score_batch_chunks_full_scale_images(monkeypatch):
    """At 224 px the scorer runs at most 5 images per forward pass, and the
    chunked scores agree with scoring each image alone."""
    cnn = FineToCoarseCnn(CnnConfig(224), rng=np.random.default_rng(20))
    head = BayesianHead(cnn.feature_dim, hidden=8, dropout_rate=0.0,
                        rng=np.random.default_rng(21))
    det = Detector(cnn=cnn, head=head, gamma=0.0,
                   norm=NormStats(mean=(0.5, 0.5, 0.5), std=(0.25, 0.25, 0.25)))
    rng = np.random.default_rng(22)
    pixels = [rng.random((3, 224, 224)) for _ in range(12)]
    batches = []
    forward = FineToCoarseCnn.forward_features

    def counted(self, x, training):
        batches.append(x.shape[0])
        return forward(self, x, training)

    monkeypatch.setattr(FineToCoarseCnn, "forward_features", counted)
    scores = det.score_batch(pixels)
    assert batches == [5, 5, 2]
    singles = np.array([det.score_batch([p])[0] for p in pixels])
    assert np.allclose(scores, singles, rtol=0.0, atol=1e-12)
