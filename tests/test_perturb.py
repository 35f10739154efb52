import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from synthdetect.perturb import (
    PerturbError,
    apply_transform,
    bilinear_resize,
    gaussian_blur,
    jpeg_quality,
    resize_bilinear,
    scaled_quant_table,
)
from synthdetect.perturb import _blur_operator, _quant_tables, _resize_operator

import oracles


def _natural_image(size=32, seed=0):
    """Photo-like test image: textured luminance, smooth low-amplitude chroma."""
    rng = np.random.default_rng(seed)
    yy, xx = np.meshgrid(np.linspace(0, 1, size), np.linspace(0, 1, size),
                         indexing="ij")
    luma = 0.5 + 0.3 * np.sin(2 * np.pi * yy) * np.cos(2 * np.pi * xx)
    luma += 0.04 * rng.standard_normal((size, size))
    img = np.stack([
        luma + 0.06 * np.sin(2 * np.pi * (xx + c / 3.0))
        for c in range(3)
    ])
    return np.clip(img, 0.0, 1.0)


# --- blur ---------------------------------------------------------------------


def test_blur_sigma_zero_identity():
    img = _natural_image()
    assert np.array_equal(gaussian_blur(img, 0.0), img)


def test_blur_constant_preserved():
    img = np.full((3, 16, 16), 0.37)
    for sigma in (0.5, 1.0, 3.0):
        assert np.allclose(gaussian_blur(img, sigma), 0.37, atol=1e-12)


def test_blur_negative_sigma_rejected():
    with pytest.raises(PerturbError):
        gaussian_blur(_natural_image(), -0.1)


@pytest.mark.parametrize("name,value", [
    ("blur", math.nan), ("blur", math.inf), ("jpeg", math.nan), ("jpeg", math.inf),
    ("jpeg", -math.inf),
])
def test_non_finite_parameter_rejected(name, value):
    with pytest.raises(PerturbError):
        apply_transform(name, _natural_image(), value)


def test_blur_impulse_matches_gaussian_kernel():
    size = 33
    img = np.zeros((3, size, size))
    img[:, 16, 16] = 1.0
    sigma = 1.0
    out = gaussian_blur(img, sigma)
    radius = math.ceil(3 * sigma)
    offsets = np.arange(-radius, radius + 1)
    k1 = np.exp(-0.5 * (offsets / sigma) ** 2)
    k1 /= k1.sum()
    expected = np.outer(k1, k1)
    window = out[0, 16 - radius:16 + radius + 1, 16 - radius:16 + radius + 1]
    assert np.allclose(window, expected, atol=1e-6)


def test_blur_stays_in_unit_interval():
    out = gaussian_blur(_natural_image(), 2.0)
    assert out.min() >= 0.0 and out.max() <= 1.0


# --- jpeg ---------------------------------------------------------------------


def test_jpeg_quality_100_near_lossless():
    img = _natural_image()
    out = jpeg_quality(img, 100)
    assert np.abs(out - img).max() < 2.0 / 255.0


def test_jpeg_quality_100_tables_are_ones():
    from synthdetect.perturb import CHROMA_TABLE, LUMA_TABLE
    assert np.array_equal(scaled_quant_table(LUMA_TABLE, 100), np.ones((8, 8)))
    assert np.array_equal(scaled_quant_table(CHROMA_TABLE, 100), np.ones((8, 8)))


def test_jpeg_quality_scaling_formula():
    from synthdetect.perturb import LUMA_TABLE
    t10 = scaled_quant_table(LUMA_TABLE, 10)
    assert t10[0, 0] == math.floor((16 * 500 + 50) / 100)
    t75 = scaled_quant_table(LUMA_TABLE, 75)
    assert t75[0, 0] == math.floor((16 * 50 + 50) / 100)
    assert scaled_quant_table(LUMA_TABLE, 1).max() == 255.0


def test_jpeg_distortion_monotone_in_quality():
    img = _natural_image()
    err10 = np.abs(jpeg_quality(img, 10) - img).mean()
    err90 = np.abs(jpeg_quality(img, 90) - img).mean()
    assert err10 > err90


def test_jpeg_constant_image_stays_constant():
    for quality in (100, 50, 10, 1):
        img = np.full((3, 16, 16), 0.6)
        out = jpeg_quality(img, quality)
        for c in range(3):
            assert out[c].max() - out[c].min() <= 1.0 / 255.0


def test_jpeg_rejects_bad_quality():
    with pytest.raises(PerturbError):
        jpeg_quality(_natural_image(), 0)
    with pytest.raises(PerturbError):
        jpeg_quality(_natural_image(), 101)


def test_jpeg_non_multiple_of_eight_shape_preserved():
    img = _natural_image(size=20)[:, :19, :20]
    out = jpeg_quality(img, 80)
    assert out.shape == img.shape


# --- resize -------------------------------------------------------------------


def test_resize_constant_preserved():
    img = np.full((3, 32, 32), 0.42)
    for factor in (0.5, 0.25):
        out = resize_bilinear(img, factor)
        assert np.allclose(out, 0.42, atol=1e-12)


def test_bilinear_checkerboard_average():
    img = np.array([[[0.0, 1.0], [1.0, 0.0]]])
    out = bilinear_resize(img, 1, 1)
    assert out[0, 0, 0] == pytest.approx(0.5)


def test_resize_restores_shape():
    img = _natural_image()
    out = resize_bilinear(img, 0.5)
    assert out.shape == img.shape


def test_resize_too_small_rejected():
    with pytest.raises(PerturbError):
        resize_bilinear(_natural_image(size=16), 0.25)


def test_resize_quarter_loses_more_than_half():
    img = _natural_image()
    err_half = np.abs(resize_bilinear(img, 0.5) - img).mean()
    err_quarter = np.abs(resize_bilinear(img, 0.25) - img).mean()
    assert err_quarter > err_half


# --- shared properties ----------------------------------------------------------


def test_distortion_monotone_in_blur_scale():
    img = _natural_image()
    errs = [np.abs(gaussian_blur(img, s) - img).mean() for s in (0.5, 1, 2, 4)]
    assert all(a <= b + 1e-12 for a, b in zip(errs, errs[1:]))


def test_all_transforms_stay_in_unit_interval():
    img = _natural_image()
    for name, param in (("blur", 2.0), ("jpeg", 10), ("resize", 0.5)):
        out = apply_transform(name, img, param)
        assert out.min() >= 0.0 and out.max() <= 1.0
        assert out.shape == img.shape


def test_apply_transform_unknown_name():
    with pytest.raises(PerturbError):
        apply_transform("swirl", _natural_image(), 1.0)


# --- matrix forms against the per-tap, per-plane and fancy-index oracles --------

ORACLE_TOL = 1e-12


def _random_image(h, w, seed=0):
    return np.random.default_rng(seed).uniform(0.0, 1.0, (3, h, w))


@pytest.mark.parametrize("shape", [(32, 32), (19, 20), (37, 45), (150, 70)])
@pytest.mark.parametrize("quality", [10, 50, 90, 100])
def test_jpeg_matches_per_plane_oracle(shape, quality):
    for img in (_natural_image(64, seed=quality)[:, :shape[0], :shape[1]],
                _random_image(*shape, seed=quality)):
        out = jpeg_quality(img, quality)
        assert out.shape == img.shape
        assert np.abs(out - oracles.jpeg_quality(img, quality)).max() <= ORACLE_TOL


@pytest.mark.parametrize("shape", [(32, 32), (19, 20), (150, 70)])
@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0, 4.0])
def test_blur_matches_tap_loop_oracle(shape, sigma):
    img = _random_image(*shape, seed=int(4 * sigma))
    assert np.abs(gaussian_blur(img, sigma) - oracles.gaussian_blur(img, sigma)).max() \
        <= ORACLE_TOL


@pytest.mark.parametrize("shape, sigma", [((9, 12), 4.0), ((32, 32), 20.0), ((2, 40), 1.0),
                                          ((1, 5), 2.0), ((130, 3), 50.0)])
def test_blur_matches_oracle_where_radius_truncates(shape, sigma):
    assert math.ceil(3 * sigma) > min(shape) - 1
    img = _random_image(*shape, seed=3)
    assert np.abs(gaussian_blur(img, sigma) - oracles.gaussian_blur(img, sigma)).max() \
        <= ORACLE_TOL


@pytest.mark.parametrize("shape", [(32, 32), (36, 44), (150, 70)])
@pytest.mark.parametrize("factor", [0.75, 0.5, 0.25])
def test_resize_matches_indexing_oracle(shape, factor):
    img = _random_image(*shape, seed=int(100 * factor))
    out_h, out_w = round(shape[0] * factor), round(shape[1] * factor)
    small = oracles.bilinear_resize(img, out_h, out_w)
    assert np.abs(bilinear_resize(img, out_h, out_w) - small).max() <= ORACLE_TOL
    restored = oracles.bilinear_resize(small, *shape)
    assert np.abs(resize_bilinear(img, factor) - restored).max() <= ORACLE_TOL


@settings(max_examples=60, deadline=None)
@given(h=st.integers(1, 140), w=st.integers(1, 140), sigma=st.floats(0.1, 30.0),
       out_h=st.integers(1, 140), out_w=st.integers(1, 140))
def test_separable_operators_match_oracles_on_any_shape(h, w, sigma, out_h, out_w):
    img = _random_image(h, w, seed=h * 1000 + w)
    assert np.abs(gaussian_blur(img, sigma) - oracles.gaussian_blur(img, sigma)).max() \
        <= ORACLE_TOL
    assert np.abs(bilinear_resize(img, out_h, out_w)
                  - oracles.bilinear_resize(img, out_h, out_w)).max() <= ORACLE_TOL


def test_cached_operators_are_shared_and_read_only():
    assert _blur_operator(150, 2.0) is _blur_operator(150, 2.0)
    assert _resize_operator(100, 150) is _resize_operator(100, 150)
    for op in (_blur_operator(150, 2.0), _resize_operator(100, 150), _resize_operator(150, 38)):
        assert len(op.blocks) > 1
        for _, _, block in op.blocks:
            assert not block.flags.writeable
            with pytest.raises(ValueError):
                block[0, 0] = 1.0
    tables = _quant_tables(50)
    assert tables is _quant_tables(50)
    with pytest.raises(ValueError):
        tables[0, 0, 0, 0, 0] = 1.0


def test_transforms_leave_input_untouched():
    img = _random_image(40, 36)
    before = img.copy()
    for name, param in (("blur", 0.0), ("blur", 2.0), ("jpeg", 50), ("resize", 0.5)):
        out = apply_transform(name, img, param)
        assert out is not img and not np.shares_memory(out, img)
        assert np.array_equal(img, before)
