import struct
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from synthdetect.bayes import BayesianHead, Detector
from synthdetect.checkpoint import save_checkpoint
from synthdetect.cli import main
from synthdetect.model import CnnConfig, FineToCoarseCnn
from synthdetect.preprocess import (
    MAX_IMAGE_PIXELS,
    ChannelError,
    CorruptFileError,
    DatasetError,
    DecodeError,
    ImageRecord,
    NormStats,
    TruncatedFileError,
    UnsupportedFormatError,
    center_crop,
    channel_stats,
    decode_image,
    decode_raster,
    load_dataset,
    load_image,
    make_split,
    rgb_normalize,
    to_unit,
)
from synthdetect import preprocess
from synthdetect.textures import write_dataset

from imageio import png_bomb, png_file, png_oversized, write_png, write_ppm
from oracles import _unfilter_scanline, image_paths as image_paths_pathlib
from oracles import load_dataset as load_dataset_pathlib


def _record(source, seed=0, size=8):
    rng = np.random.default_rng(seed)
    raster = rng.integers(0, 256, (3, size, size), dtype=np.uint8)
    return ImageRecord(f"mem-{source}-{seed}", raster, source)


# --- decoding ---------------------------------------------------------------


def test_decode_ppm_all_white():
    img = decode_image(write_ppm(np.full((2, 2, 3), 255, dtype=np.uint8)))
    assert img.shape == (3, 2, 2)
    assert np.array_equal(img, np.ones((3, 2, 2)))


def test_decode_pure_red_pixel():
    px = np.zeros((1, 1, 3), dtype=np.uint8)
    px[0, 0] = (255, 0, 0)
    img = decode_image(write_ppm(px))
    assert img[:, 0, 0] == pytest.approx([1.0, 0.0, 0.0])


@pytest.mark.parametrize("writer", [write_ppm, write_png])
def test_round_trip_known_image(writer):
    rng = np.random.default_rng(21)
    px = rng.integers(0, 256, size=(4, 4, 3), dtype=np.uint8)
    img = decode_image(writer(px))
    assert img.shape == (3, 4, 4)
    assert np.array_equal(img, px.transpose(2, 0, 1) / 255.0)


@pytest.mark.parametrize("ftype", [0, 1, 2, 3, 4])
def test_png_filters_round_trip(ftype):
    rng = np.random.default_rng(100 + ftype)
    px = rng.integers(0, 256, size=(6, 5, 3), dtype=np.uint8)
    img = decode_image(write_png(px, filters=[ftype] * 6))
    assert np.array_equal(img, px.transpose(2, 0, 1) / 255.0)


def test_png_mixed_filters_round_trip():
    rng = np.random.default_rng(9)
    px = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
    img = decode_image(write_png(px, filters=[0, 1, 2, 3, 4]))
    assert np.array_equal(img, px.transpose(2, 0, 1) / 255.0)


@pytest.mark.parametrize("filters", [None, [0] * 5, [1] * 5, [2] * 5, [3] * 5, [4] * 5],
                         ids=["ppm", "png_none", "png_sub", "png_up", "png_average",
                              "png_paeth"])
def test_decode_raster_returns_the_written_bytes(filters):
    px = np.random.default_rng(31).integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
    data = write_ppm(px) if filters is None else write_png(px, filters=filters)
    raster = decode_raster(data)
    assert raster.dtype == np.uint8 and raster.shape == (3, 5, 7)
    assert np.array_equal(raster, px.transpose(2, 0, 1))
    image = decode_image(data)
    assert to_unit(raster).tobytes() == image.tobytes()
    assert to_unit(raster).strides == image.strides


@pytest.mark.parametrize("raster", [
    np.zeros((3, 4, 4)), np.zeros((3, 4, 4), dtype=np.int16), np.zeros((4, 4, 3), np.uint8),
    np.zeros((3, 4), np.uint8), np.zeros((1, 3, 4, 4), np.uint8), [[[0] * 4] * 4] * 3,
], ids=["float64", "int16", "channels_last", "rank2", "rank4", "list"])
def test_record_rejects_a_raster_that_is_not_uint8_chw(raster):
    with pytest.raises(ValueError, match="uint8 \\[3, H, W\\] raster"):
        ImageRecord("x.ppm", raster, "real")


def test_record_pixels_are_a_read_only_float_view():
    raster = np.arange(48, dtype=np.uint8).reshape(3, 4, 4)
    record = ImageRecord("x.ppm", raster, "real")
    assert record.pixels.dtype == np.float64
    assert np.array_equal(record.pixels, raster / 255.0)
    with pytest.raises(AttributeError):
        record.pixels = raster / 255.0


def test_decode_unknown_format_rejected():
    with pytest.raises(UnsupportedFormatError):
        decode_image(b"GIF89a notreally")


def test_decode_truncated_ppm():
    good = write_ppm(np.zeros((4, 4, 3), dtype=np.uint8))
    with pytest.raises(TruncatedFileError):
        decode_image(good[:-10])


def test_decode_truncated_png():
    good = write_png(np.zeros((4, 4, 3), dtype=np.uint8))
    with pytest.raises(TruncatedFileError):
        decode_image(good[:30])


def test_decode_non_rgb_png_rejected():
    ihdr = struct.pack(">IIBBBBB", 2, 2, 8, 6, 0, 0, 0)  # color type 6 = RGBA
    with pytest.raises(ChannelError):
        decode_image(png_file(ihdr, zlib.compress(b"\x00" * 18)))


@pytest.mark.parametrize("size", [0, 12, 14])
def test_decode_png_ihdr_not_13_bytes(size):
    ihdr = struct.pack(">IIBBBBB", 1, 1, 8, 2, 0, 0, 0).ljust(size, b"\x00")[:size]
    with pytest.raises(CorruptFileError):
        decode_image(png_file(ihdr, zlib.compress(b"\x00" * 4)))


@pytest.mark.parametrize("width, height", [(0, 2), (2, 0), (0, 0), (2 ** 32 - 1, 2 ** 32 - 1)])
def test_decode_png_zero_or_overflowing_dimensions_rejected(width, height):
    ihdr = struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0)
    with pytest.raises(UnsupportedFormatError):
        decode_image(png_file(ihdr, zlib.compress(b"\x00" * min(height, 8))))


def test_decode_png_bomb_bounded():
    """A 1x1 PNG whose image data inflates to 50 MB is rejected after
    inflating no more than its declared 4 bytes (and one to spare)."""
    bomb = png_bomb(50_000_000)
    assert len(bomb) < 60_000
    tracemalloc.start()
    try:
        with pytest.raises(CorruptFileError):
            decode_image(bomb)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * len(bomb)


@pytest.mark.parametrize("where", ["crc", "payload"])
def test_decode_png_bad_crc(where):
    data = bytearray(write_png(np.zeros((2, 2, 3), dtype=np.uint8)))
    idat = data.index(b"IDAT")
    length = struct.unpack(">I", data[idat - 4:idat])[0]
    data[idat + 4 + (length if where == "crc" else 0)] ^= 0x01
    with pytest.raises(CorruptFileError, match="CRC"):
        decode_image(bytes(data))


def test_decode_png_stream_without_end_is_truncated():
    ihdr = struct.pack(">IIBBBBB", 1, 1, 8, 2, 0, 0, 0)
    with pytest.raises(TruncatedFileError):
        decode_image(png_file(ihdr, zlib.compress(b"\x00" * 4)[:-4]))


_VALID_FILES = [
    write_png(np.random.default_rng(30).integers(0, 256, (3, 4, 3), dtype=np.uint8),
              filters=[1, 3, 4]),
    write_ppm(np.random.default_rng(31).integers(0, 256, (3, 4, 3), dtype=np.uint8)),
]


def _decodes_or_rejects(data: bytes) -> None:
    try:
        img = decode_image(data)
    except DecodeError:
        return
    assert img.ndim == 3 and img.shape[0] == 3 and img.size > 0
    assert img.min() >= 0.0 and img.max() <= 1.0


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([b"", b"\x89PNG\r\n\x1a\n", b"P6"]), st.binary(max_size=96))
def test_decode_arbitrary_bytes_fuzz(prefix, body):
    _decodes_or_rejects(prefix + body)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_VALID_FILES),
       st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 255)), max_size=6),
       st.integers(0, 10 ** 6))
def test_decode_mutated_valid_files_fuzz(valid, edits, cut):
    data = bytearray(valid)
    for pos, value in edits:
        data[pos % len(data)] = value
    _decodes_or_rejects(bytes(data[:len(data) - cut % 8]))


_IHDRS = st.one_of(
    st.binary(max_size=20),
    st.builds(lambda w, h, rest: struct.pack(">II", w, h) + rest,
              st.integers(0, 6), st.integers(0, 6),
              st.just(b"\x08\x02\x00\x00\x00") | st.binary(min_size=5, max_size=5)))


@settings(max_examples=150, deadline=None)
@given(_IHDRS, st.binary(max_size=64))
def test_decode_checksummed_png_fuzz(ihdr, raw):
    """Chunks with valid CRCs around an arbitrary IHDR and arbitrary
    scanline bytes reach the header checks, the inflate and the unfilter."""
    _decodes_or_rejects(png_file(ihdr, zlib.compress(raw)))


def _scanline_png(width: int, rows: list[tuple[int, bytes]]) -> bytes:
    """A CRC-valid PNG whose scanlines are ``rows``' (filter byte, filtered
    bytes) pairs, taken as they are."""
    raw = b"".join(bytes([ftype]) + line for ftype, line in rows)
    ihdr = struct.pack(">IIBBBBB", width, len(rows), 8, 2, 0, 0, 0)
    return png_file(ihdr, zlib.compress(raw))


def _oracle_pixels(width: int, rows: list[tuple[int, bytes]]) -> np.ndarray:
    """The reference decode: the per-byte unfilter, one row at a time."""
    prev = np.zeros(3 * width, dtype=np.uint8)
    img = []
    for ftype, line in rows:
        prev = _unfilter_scanline(ftype, np.frombuffer(line, dtype=np.uint8), prev)
        img.append(prev)
    rgb = np.stack(img).reshape(len(rows), width, 3)
    return rgb.transpose(2, 0, 1).astype(np.float64) / 255.0


@st.composite
def _filtered_scanlines(draw):
    width = draw(st.integers(1, 40))
    rows = draw(st.lists(st.tuples(st.integers(0, 4),
                                   st.binary(min_size=3 * width, max_size=3 * width)),
                         min_size=1, max_size=40))
    return width, rows


@settings(max_examples=200, deadline=None)
@given(_filtered_scanlines())
def test_unfilter_matches_oracle_fuzz(image):
    """Arbitrary filtered bytes under any mix of the five filters decode to
    exactly what the per-byte reference unfilter gives. Up to 40 rows, so
    that runs of Up, Average and Paeth rows push a row's wavefront lag far
    and None and Sub rows reset it."""
    width, rows = image
    assert np.array_equal(decode_image(_scanline_png(width, rows)),
                          _oracle_pixels(width, rows))


@pytest.mark.parametrize("ftype", [1, 3, 4])
@pytest.mark.parametrize("width", [1, 2])
def test_unfilter_narrow_rows_match_oracle(ftype, width):
    """At widths 1 and 2 all or all but three bytes of a row have no left
    neighbour."""
    rng = np.random.default_rng(10 * ftype + width)
    rows = [(ftype, rng.integers(0, 256, 3 * width, dtype=np.uint8).tobytes())
            for _ in range(4)]
    assert np.array_equal(decode_image(_scanline_png(width, rows)),
                          _oracle_pixels(width, rows))


@pytest.mark.parametrize("ftype", [2, 3, 4])
def test_unfilter_first_row_reads_zero_row_above(ftype):
    rng = np.random.default_rng(ftype)
    rows = [(ftype, rng.integers(0, 256, 15, dtype=np.uint8).tobytes()), (0, bytes(15))]
    assert np.array_equal(decode_image(_scanline_png(5, rows)), _oracle_pixels(5, rows))


@pytest.mark.parametrize("height", [64, 200])
def test_unfilter_paeth_column_matches_oracle(height):
    """A width-1 column of Paeth rows: each row starts one step after the
    row above, so the 64th starts 63 steps late. 200 rows are four bands
    of at most 64, each starting below the last decoded row of the one
    before."""
    rng = np.random.default_rng(height)
    rows = [(4, rng.integers(0, 256, 3, dtype=np.uint8).tobytes()) for _ in range(height)]
    assert np.array_equal(decode_image(_scanline_png(1, rows)), _oracle_pixels(1, rows))


def test_unfilter_lone_none_row_in_the_middle_matches_oracle():
    """Up, Average and Paeth rows above and below the only None row, which
    resets the lag that the rows above built up; 241 rows of width 7 are
    four bands."""
    rng = np.random.default_rng(65)
    filters = [2, 3, 4] * 40 + [0] + [4, 3, 2] * 40
    rows = [(f, rng.integers(0, 256, 21, dtype=np.uint8).tobytes()) for f in filters]
    assert np.array_equal(decode_image(_scanline_png(7, rows)), _oracle_pixels(7, rows))


def test_unfilter_bands_of_the_width_match_oracle():
    """At width 70 a band is 70 rows: 150 rows of all five filters in turn
    are bands of 70, 70 and 10 rows, each starting on a Paeth row that reads
    the last row of the band before."""
    rng = np.random.default_rng(70)
    rows = [(f, rng.integers(0, 256, 210, dtype=np.uint8).tobytes()) for f in [4, 3, 2, 1, 0] * 30]
    assert np.array_equal(decode_image(_scanline_png(70, rows)), _oracle_pixels(70, rows))


def _png_rows(data: bytes) -> list[tuple[int, bytes]]:
    """The (filter byte, filtered bytes) rows of a ``write_png`` file."""
    width, height = struct.unpack(">II", data[16:24])
    idat_length, = struct.unpack(">I", data[33:37])
    raw = zlib.decompress(data[41:41 + idat_length])
    stride = 3 * width + 1
    return [(raw[y * stride], raw[y * stride + 1:(y + 1) * stride]) for y in range(height)]


@pytest.mark.parametrize("filters", ["mixed", "paeth", "up"])
def test_unfilter_256_image_matches_oracle(filters):
    """A 256 x 256 image under the bench's kind of shuffled filter mix, and
    under Paeth or Up alone (one lag run through all 256 rows)."""
    rng = np.random.default_rng(256)
    px = rng.integers(0, 256, size=(256, 256, 3), dtype=np.uint8)
    chosen = {"mixed": rng.permutation(256) % 5, "paeth": [4] * 256, "up": [2] * 256}[filters]
    data = write_png(px, filters=list(chosen))
    raster = decode_raster(data)
    assert np.array_equal(raster, px.transpose(2, 0, 1))
    assert np.array_equal(to_unit(raster), _oracle_pixels(256, _png_rows(data)))


def test_predictor_table_is_the_png_predictors():
    """Every entry the unfilter can read: for each (a, b, c) in 0..255^3,
    taken one value of a at a time, the table at (kind, a - c, b - c) is
    the W3C PNG predictor minus a, mod 256, for Sub, Up, Average and Paeth."""
    table = preprocess._predictor_table().reshape(4, 511, 511)
    assert table.dtype == np.uint8 and not table.flags.writeable
    b, c = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
    for a in range(256):
        p = a + b - c
        pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
        paeth = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))
        for kind, predicted in enumerate([np.full_like(b, a), b, (a + b) // 2, paeth]):
            assert np.array_equal(table[kind, a - c + 255, b - c + 255],
                                  ((predicted - a) % 256).astype(np.uint8)), (kind, a)


@pytest.mark.parametrize("height, width", [(512, 512), (8192, 1)])
def test_decode_raster_memory_below_the_float_image(height, width):
    """All-Up rows, the longest-lag layout: each row starts one step after
    the row above. Square (one band of 512 rows and 1,023 steps) or one
    pixel wide (128 bands of 64 rows, where a single wavefront would hold
    8,194 x 8,193 x 3 bytes of lanes), the decode peaks below the 8 bytes
    per sample of the float64 image that ``decode_image`` makes. Measured:
    4.1x and 3.6x the raster; at 512 x 512 the uint8 lanes are 2.0x, and
    the inflated scanlines and the output about 1x each. The compressed
    copy of the IDAT chunks, about 1x more, is released before the
    unfilter: kept, the peaks were 5.1x and 4.7x. The 1.04 MB predictor
    table is built once per process, so a decode before the measured one
    builds it."""
    px = np.random.default_rng(512).integers(0, 256, size=(height, width, 3), dtype=np.uint8)
    data = write_png(px, filters=[2] * height)
    decode_raster(write_png(px[:2, :1], filters=[2, 2]))
    tracemalloc.start()
    try:
        raster = decode_raster(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(raster, px.transpose(2, 0, 1))
    assert peak < 4.5 * raster.size  # the float64 image would be 8x


@pytest.mark.parametrize("ftype", [5, 255])
def test_unfilter_unknown_filter_after_valid_rows_rejected(ftype):
    rows = [(f, bytes(range(6))) for f in (0, 1, 2, 3, 4)] + [(ftype, bytes(6))]
    with pytest.raises(UnsupportedFormatError, match=f"filter type {ftype}"):
        decode_image(_scanline_png(2, rows))


def test_decode_png_over_pixel_cap_rejected_before_inflate():
    """The pixel cap rejects the file before any of its image data is
    inflated (the stream holds 4 MB)."""
    data = png_oversized(4 << 20)
    assert len(data) < 10_000 and 60000 * 60000 > MAX_IMAGE_PIXELS
    tracemalloc.start()
    try:
        with pytest.raises(UnsupportedFormatError, match="exceed"):
            decode_image(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_decode_ppm_over_pixel_cap_rejected():
    with pytest.raises(UnsupportedFormatError, match="exceed"):
        decode_image(b"P6\n60000 60000\n255\n" + bytes(64))


@pytest.mark.parametrize("width, error", [(4096, TruncatedFileError),
                                          (4097, UnsupportedFormatError)])
def test_decode_png_pixel_cap_boundary(width, error):
    """4096 x 4096 is within the cap and gets as far as the inflate, where
    its few bytes of image data run out; one more column is over it."""
    ihdr = struct.pack(">IIBBBBB", width, 4096, 8, 2, 0, 0, 0)
    with pytest.raises(error):
        decode_image(png_file(ihdr, zlib.compress(bytes(64))))


# --- crop / normalize -------------------------------------------------------


def test_center_crop_identity_at_exact_size():
    img = np.random.default_rng(0).random((3, 12, 12))
    assert np.array_equal(center_crop(img, 12), img)


def test_center_crop_offsets():
    img = np.zeros((3, 256, 256))
    img[:, 16, 16] = 1.0
    out = center_crop(img, 224)
    assert out[0, 0, 0] == 1.0


def test_center_crop_floor_offset_on_odd_margin():
    img = np.arange(3 * 225 * 225, dtype=np.float64).reshape(3, 225, 225)
    out = center_crop(img, 224)
    assert np.array_equal(out, img[:, :224, :224])


def test_center_crop_too_small_rejected():
    with pytest.raises(ValueError):
        center_crop(np.zeros((3, 100, 300)), 224)


def test_center_crop_idempotent():
    img = np.random.default_rng(2).random((3, 40, 33))
    once = center_crop(img, 16)
    assert np.array_equal(center_crop(once, 16), once)


def test_normalize_identity_stats():
    img = np.random.default_rng(1).random((3, 6, 6))
    stats = NormStats(mean=(0.0, 0.0, 0.0), std=(1.0, 1.0, 1.0))
    assert np.array_equal(rgb_normalize(img, stats), img)


def test_normalize_constant_at_mean_is_zero():
    stats = NormStats(mean=(0.2, 0.5, 0.8), std=(1.0, 2.0, 3.0))
    img = np.stack([np.full((4, 4), m) for m in stats.mean])
    assert np.allclose(rgb_normalize(img, stats), 0.0)


def test_normalize_rejects_zero_std():
    with pytest.raises(ValueError):
        NormStats(mean=(0, 0, 0), std=(1.0, 0.0, 1.0))


def test_channel_stats_against_independent_oracle():
    rng = np.random.default_rng(8)
    images = [rng.random((3, 10, 11)) for _ in range(7)]
    stats = channel_stats(images)
    flat = np.concatenate([im.reshape(3, -1) for im in images], axis=1)
    assert np.allclose(stats.mean, flat.mean(axis=1), atol=1e-10)
    assert np.allclose(stats.std, flat.std(axis=1), atol=1e-10)


# --- splits -----------------------------------------------------------------


def _pool(n_real=100, n_anom=0, sources=("noise",)):
    pool = [_record("real", seed=i) for i in range(n_real)]
    for s in sources:
        pool.extend(_record(s, seed=1000 + i) for i in range(n_anom))
    return pool


def test_split_sizes_at_eighty_percent():
    split = make_split(_pool(100), 0.8, seed=4)
    assert len(split.train) == 80
    assert len(split.validation) == 10
    assert len(split.test) == 10


def test_split_deterministic():
    pool = _pool(60)
    a = make_split(pool, 0.5, seed=11)
    b = make_split(pool, 0.5, seed=11)
    assert [r.path for r in a.train] == [r.path for r in b.train]
    assert [r.path for r in a.validation] == [r.path for r in b.validation]
    assert [r.path for r in a.test] == [r.path for r in b.test]


def test_split_seeds_differ():
    pool = _pool(50)
    differing = 0
    for s in range(100):
        a = make_split(pool, 0.6, seed=2 * s)
        b = make_split(pool, 0.6, seed=2 * s + 1)
        if [r.path for r in a.train] != [r.path for r in b.train]:
            differing += 1
    assert differing >= 99


def test_split_disjoint_and_pure():
    pool = _pool(40, n_anom=30, sources=("noise", "mosaic"))
    split = make_split(pool, 0.5, seed=3)
    train = {r.path for r in split.train}
    val = {r.path for r in split.validation}
    test = {r.path for r in split.test}
    assert not train & val and not train & test and not val & test
    assert all(r.is_real for r in split.train)


def test_split_injects_anomalies_balanced():
    pool = _pool(40, n_anom=30, sources=("noise", "mosaic"))
    split = make_split(pool, 0.5, seed=3)
    n_val_real = sum(r.is_real for r in split.validation)
    n_test_real = sum(r.is_real for r in split.test)
    for source in ("noise", "mosaic"):
        assert sum(r.source == source for r in split.validation) == min(n_val_real, 15)
        assert sum(r.source == source for r in split.test) == min(n_test_real, 15)


def test_split_rejects_empty_pool():
    with pytest.raises(DatasetError):
        make_split([], 0.5, seed=0)


def test_split_rejects_training_anomalies():
    with pytest.raises(DatasetError):
        from synthdetect.preprocess import DatasetSplit
        DatasetSplit(0.5, 0, train=[_record("noise")])


# --- dataset layout ---------------------------------------------------------


def test_load_dataset_layout(tmp_path):
    rng = np.random.default_rng(0)
    (tmp_path / "real").mkdir()
    (tmp_path / "anomalous-noise").mkdir()
    for i in range(3):
        px = rng.integers(0, 256, size=(8, 8, 3), dtype=np.uint8)
        (tmp_path / "real" / f"r{i}.ppm").write_bytes(write_ppm(px))
    (tmp_path / "anomalous-noise" / "a0.png").write_bytes(
        write_png(rng.integers(0, 256, size=(8, 8, 3), dtype=np.uint8)))
    (tmp_path / "real" / "ignored.txt").write_text("not an image")
    records = load_dataset(tmp_path)
    assert sum(r.is_real for r in records) == 3
    assert sum(r.source == "noise" for r in records) == 1


def _listing_tree(root):
    """A dataset tree with every kind of entry the listing must sort out."""
    rng = np.random.default_rng(5)

    def image(path, png=False):
        px = rng.integers(0, 256, size=(32, 33, 3), dtype=np.uint8)
        path.write_bytes(write_png(px) if png else write_ppm(px))

    outside = root / "elsewhere"
    outside.mkdir()
    image(outside / "target.ppm")
    for name in ("real", "anomalous-noise", "anomalous-b", "anomalous-", "other"):
        (root / name).mkdir()
    real = root / "real"
    for name in ("b.ppm", "A.PNG", "c.Ppm", "..ppm", "_z.png", "Z.ppm"):
        image(real / name, png=name.lower().endswith(".png"))
    image(real / ".ppm")  # a hidden file: its Path.suffix is empty
    (real / "x.png").mkdir()
    (real / "notes.txt").write_text("not an image")
    (real / "noext").write_bytes(b"P6")
    (real / "link.ppm").symlink_to(outside / "target.ppm")
    (real / "dangling.ppm").symlink_to(root / "missing.ppm")
    (real / "loop.ppm").symlink_to(real / "loop.ppm")
    image(root / "anomalous-noise" / "n1.png", png=True)
    image(root / "anomalous-noise" / "n0.PPM")
    image(root / "anomalous-b" / "b0.ppm")
    image(root / "anomalous-" / "e.ppm")
    image(root / "other" / "o.ppm")
    image(root / "anomalous-file.ppm")
    (root / "anomalous-linked").symlink_to(root / "anomalous-noise")
    (root / "anomalous-loop").symlink_to(root / "anomalous-loop")


def test_load_dataset_listing_matches_pathlib(tmp_path, monkeypatch):
    _listing_tree(tmp_path)
    monkeypatch.chdir(tmp_path)
    for root in (tmp_path, str(tmp_path) + "/", ".", "", "./real/.."):
        records = load_dataset(root)
        expected = load_dataset_pathlib(root)
        assert [(r.path, r.source) for r in records] == [(r.path, r.source) for r in expected]
        assert all(np.array_equal(a.pixels, b.pixels) for a, b in zip(records, expected))
    names = [(r.source, r.path.rsplit("/", 1)[-1]) for r in load_dataset(".")]
    assert names[:7] == [("real", n) for n in
                         ("..ppm", "A.PNG", "Z.ppm", "_z.png", "b.ppm", "c.Ppm", "link.ppm")]
    assert [s for s, _ in names[7:]] == ["", "b", "linked", "linked", "noise", "noise"]


def _toy_checkpoint(path):
    cnn = FineToCoarseCnn(CnnConfig(32), rng=np.random.default_rng(6))
    head = BayesianHead(cnn.feature_dim, hidden=8, rng=np.random.default_rng(7))
    save_checkpoint(path, Detector(cnn=cnn, head=head, gamma=0.0,
                                   norm=NormStats(mean=(0.5,) * 3, std=(0.25,) * 3)))
    return str(path)


def test_score_listing_matches_pathlib(tmp_path, monkeypatch, capsys):
    """``score`` lists a directory target as ``load_dataset`` does, and
    prints each path as the ``pathlib`` listing spells it."""
    _listing_tree(tmp_path)
    ckpt = _toy_checkpoint(tmp_path / "model.bin")
    real = tmp_path / "real"
    monkeypatch.chdir(real)
    for target in (".", "", str(real), str(real) + "/", "../real", "./x.png/..",
                   "A.PNG", "./b.ppm", str(real / "link.ppm")):
        assert main(["score", "--checkpoint", ckpt, target]) == 0
        rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[1:]]
        listed = image_paths_pathlib(target) if Path(target).is_dir() else [Path(target)]
        assert [path for path, _, _ in rows] == [str(path) for path in listed]
        assert all(verdict in ("real", "synthetic") for _, _, verdict in rows)
    assert main(["score", "--checkpoint", ckpt, "."]) == 0
    assert [row.split(",")[0] for row in capsys.readouterr().out.splitlines()[1:]] == \
        ["..ppm", "A.PNG", "Z.ppm", "_z.png", "b.ppm", "c.Ppm", "link.ppm"]


def test_load_dataset_records_are_the_decoded_files(tmp_path):
    """Each record's float view is, bit for bit and in memory order, what
    ``decode_image`` makes of the file's bytes."""
    _listing_tree(tmp_path)
    records = load_dataset(tmp_path)
    assert {r.path.rsplit(".", 1)[-1].lower() for r in records} == {"png", "ppm"}
    for record in records:
        assert record.raster.dtype == np.uint8
        image = decode_image(Path(record.path).read_bytes())
        assert record.pixels.tobytes() == image.tobytes()
        assert record.pixels.strides == image.strides


def test_load_dataset_peak_memory_is_the_uint8_corpus(tmp_path):
    """Loading holds the corpus as uint8: the traced peak stays within 1.5x
    its 8-bit bytes plus a small constant, where float64 records take 8x."""
    write_dataset(tmp_path, 120, 40, size=32, seed=4)
    tracemalloc.start()
    try:
        records = load_dataset(tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    corpus_bytes = len(records) * 3 * 32 * 32
    assert len(records) == 200
    assert peak <= 1.5 * corpus_bytes + 64 * 1024


def test_empty_file_is_not_an_image(tmp_path, capsys):
    ckpt = _toy_checkpoint(tmp_path / "model.bin")
    empty = tmp_path / "data" / "real" / "empty.ppm"
    empty.parent.mkdir(parents=True)
    empty.write_bytes(b"")
    with pytest.raises(UnsupportedFormatError, match="^not a PNG or binary PPM file$"):
        load_image(empty)
    assert main(["score", "--checkpoint", ckpt, str(empty)]) == 2
    out, err = capsys.readouterr()
    assert out == f"path,score,verdict\n{empty},error,UnsupportedFormatError\n"
    assert err == "data error: every input failed to decode\n"
    assert main(["eval", "--checkpoint", ckpt, "--data", str(tmp_path / "data"),
                 "--out", str(tmp_path / "eval")]) == 2
    assert capsys.readouterr().err == "data error: not a PNG or binary PPM file\n"


def test_directory_read_as_an_image_fails_as_pathlib_does(tmp_path, monkeypatch, capsys):
    """A listed file that is a directory by the time it is read raises the
    ``OSError`` that ``Path.read_bytes`` raises, path and all."""
    ckpt = _toy_checkpoint(tmp_path / "model.bin")
    folder = tmp_path / "data" / "real" / "x.ppm"
    folder.mkdir(parents=True)
    with pytest.raises(OSError) as expected:
        folder.read_bytes()
    reason = str(expected.value)
    for path in (folder, str(folder)):
        with pytest.raises(type(expected.value)) as raised:
            load_image(path)
        assert str(raised.value) == reason
    # as if the file became a directory between the listing and the read
    monkeypatch.setattr(preprocess, "image_paths", lambda _: [str(folder)])
    assert main(["eval", "--checkpoint", ckpt, "--data", str(tmp_path / "data"),
                 "--out", str(tmp_path / "eval")]) == 2
    assert capsys.readouterr().err == f"data error: {reason}\n"


def test_load_dataset_requires_real_dir(tmp_path):
    (tmp_path / "anomalous-x").mkdir()
    with pytest.raises(DatasetError):
        load_dataset(tmp_path)
