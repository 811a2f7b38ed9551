"""PNM codec and data-model tests."""

import tracemalloc

import numpy as np
import pytest

from linemend import (
    DimensionMismatch,
    Image,
    Mask,
    PnmError,
    load_pnm,
    mask_from_pgm,
    mask_to_pgm,
    save_pnm,
)
from linemend.raster import require_same_grid


def test_minimal_p5(tmp_path):
    path = tmp_path / "tiny.pgm"
    path.write_bytes(b"P5\n2 1\n255\n" + bytes([0, 255]))
    img = load_pnm(path)
    assert (img.width, img.height, img.channels) == (2, 1, 1)
    assert img.data[0, 0, 0] == 0.0
    assert img.data[0, 1, 0] == 255.0


def test_single_pixel_p6(tmp_path):
    path = tmp_path / "tiny.ppm"
    path.write_bytes(b"P6\n1 1\n255\n" + bytes([10, 20, 30]))
    img = load_pnm(path)
    assert (img.width, img.height, img.channels) == (1, 1, 3)
    assert list(img.data[0, 0]) == [10.0, 20.0, 30.0]


def test_header_comments_ignored(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 # inline\n# another\n1\n255\n" + bytes([7, 9]))
    img = load_pnm(path)
    assert (img.width, img.height) == (2, 1)
    assert list(img.data[0, :, 0]) == [7.0, 9.0]


HEADER_ERRORS = [
    (b"P5\n2 1\n65535\n", "unsupported maxval 65535 (only 255)"),
    (b"P3 1 1 255\n", "unsupported magic b'P3' (expected P5 or P6)"),
    (b"P5\nxx 1\n255\n\0", "invalid width b'xx'"),
    (b"P5\n4 2\n255\n\1\2\3", "truncated payload: expected 8 bytes, got 3"),
    (b"P5\n4", "truncated header: missing height"),
    (b"P5\n4 # 12\n", "truncated header: missing height"),
    (b"P5\n2 1 # c", "truncated header: missing maxval"),
    (b"P5\n#only comment", "truncated header: missing width"),
    (b"P52 1 255\n\0\0", "unsupported magic b'P52' (expected P5 or P6)"),
    (b"P5\n+2 1 255\n\0\0", "invalid width b'+2'"),
    (b"P5\n2 1\n255#\n\7\10", "malformed header: missing whitespace before pixel data"),
    (b"P5 2 1 255", "malformed header: missing whitespace before pixel data"),
    (b"P5 2 1 255\n\1", "truncated payload: expected 2 bytes, got 1"),
    (b"P5 0 1 255\n", "invalid dimensions 0x1"),
]

HEADER_LOADS = [
    (b"P5 2#x\n1 255\n\7\10", [7, 8]),
    (b"P5\x0b2\x0c1\r255\n\7\10", [7, 8]),
    (b"P5\r2\r1\r255\r\7\10", [7, 8]),
    (b"P5\n# a\r# b\n2 1 255\n\1\2", [1, 2]),
    (b"P5\n2 1\n255 \1\2", [1, 2]),
    (b"P5\n 2 1\n 255\n\0\0", [0, 0]),
    (b"P5\n2 1 0255\n\0\0", [0, 0]),
]


@pytest.mark.parametrize("content, message", HEADER_ERRORS)
def test_header_table_errors(tmp_path, content, message):
    path = tmp_path / "h.pgm"
    path.write_bytes(content)
    for read in (load_pnm, mask_from_pgm):
        with pytest.raises(PnmError) as exc:
            read(path)
        assert str(exc.value) == message


@pytest.mark.parametrize("content, samples", HEADER_LOADS)
def test_header_table_loads(tmp_path, content, samples):
    path = tmp_path / "h.pgm"
    path.write_bytes(content)
    img = load_pnm(path)
    assert img.data.shape == (1, 2, 1)
    assert img.data[0, :, 0].tolist() == samples
    assert mask_from_pgm(path).degraded[0].tolist() == [v != 0 for v in samples]


def test_round_trip_integer_images(tmp_path):
    rng = np.random.default_rng(11)
    for channels in (1, 3):
        img = Image(rng.integers(0, 256, size=(9, 13, channels)).astype(float))
        path = tmp_path / f"rt{channels}.pnm"
        save_pnm(img, path)
        back = load_pnm(path)
        assert np.array_equal(back.data, img.data)
        # byte-exact: re-saving the loaded image reproduces the file
        path2 = tmp_path / f"rt{channels}b.pnm"
        save_pnm(back, path2)
        assert path.read_bytes() == path2.read_bytes()


def test_save_rounds_half_up(tmp_path):
    # Oracle: round-half-up is floor(x + 0.5).
    vals = np.array([[0.0, 0.4, 0.49999999999999994, 0.5, 1.5, 127.5, 254.4, 254.5, 255.0]])
    img = Image(vals)
    path = tmp_path / "round.pgm"
    save_pnm(img, path)
    back = load_pnm(path)
    expected = np.floor(vals + 0.5)
    assert np.array_equal(back.data[:, :, 0], expected)
    assert back.data[0, 2, 0] == 1.0  # x + 0.5 rounds up to 1.0 in float64
    assert back.data[0, 5, 0] == 128.0  # 127.5 rounds up
    assert back.data[0, 6, 0] == 254.0

    # dense fractional grid against the same oracle
    rng = np.random.default_rng(44)
    grid = Image(rng.uniform(0.0, 255.0, (12, 12)))
    save_pnm(grid, path)
    assert np.array_equal(load_pnm(path).data, np.floor(grid.data + 0.5))


@pytest.mark.parametrize("channels", [1, 3])
def test_save_bytes_are_floor_of_half_up(tmp_path, channels):
    rng = np.random.default_rng(45 + channels)
    path = tmp_path / "q.pnm"
    # 64 x 1100 spans several blocks of rows and ends in a partial one.
    for shape in (9, 11, channels), (64, 1100, channels):
        data = rng.uniform(0.0, 255.0, shape)
        data.flat[:4] = data.flat[-4:] = [0.49999999999999994, 0.5, 254.5, 255.0]
        save_pnm(Image(data), path)
        payload = path.read_bytes()[-data.size :]
        assert payload == np.floor(data + 0.5).astype(np.uint8).tobytes()
        assert payload[:4] == payload[-4:] == bytes([1, 1, 255, 255])


def test_save_peak_memory_is_the_byte_image(tmp_path):
    # 512x512 RGB is 6 MiB of float64 samples and 0.75 MiB of bytes: saving
    # quantizes straight into the bytes, with no float copy of the image.
    img = Image(np.random.default_rng(46).uniform(0.0, 255.0, (512, 512, 3)))
    tracemalloc.start()
    try:
        save_pnm(img, tmp_path / "big.ppm")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_save_rejects_out_of_range(tmp_path):
    img = Image(np.array([[300.0]]))
    with pytest.raises(ValueError, match=r"\[0, 255\]"):
        save_pnm(img, tmp_path / "bad.pgm")

    # One bad sample in the last of several blocks of rows: the message
    # gives the whole image's min and max, and no file is written.
    data = np.random.default_rng(47).uniform(1.0, 254.0, (64, 1100, 3))
    data[0, 0, 0] = 0.125
    data[-1, -1, -1] = 255.5
    path = tmp_path / "bad.ppm"
    with pytest.raises(ValueError, match=r"\[0, 255\] \(min 0\.125, max 255\.5\)"):
        save_pnm(Image(data), path)
    assert not path.exists()


def test_mask_from_pgm_nonzero_rule(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P5\n4 1\n255\n" + bytes([0, 1, 128, 255]))
    mask = mask_from_pgm(path)
    assert list(mask.degraded[0]) == [False, True, True, True]

    all_zero = tmp_path / "z.pgm"
    all_zero.write_bytes(b"P5\n3 2\n255\n" + bytes(6))
    assert mask_from_pgm(all_zero).degraded_count == 0

    all_on = tmp_path / "f.pgm"
    all_on.write_bytes(b"P5\n3 2\n255\n" + bytes([255] * 6))
    assert mask_from_pgm(all_on).degraded_count == 6


def test_mask_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    mask = Mask(rng.random((7, 5)) < 0.4)
    path = tmp_path / "m.pgm"
    mask_to_pgm(mask, path)
    assert np.array_equal(mask_from_pgm(path).degraded, mask.degraded)


def test_masks_never_become_float_images(tmp_path):
    # A 1024x1024 mask is 1 MiB of bytes and 8 MiB as a float64 image.
    mask = Mask(np.random.default_rng(5).random((1024, 1024)) < 0.3)
    path = tmp_path / "big.pgm"
    peaks = []
    for step in (lambda: mask_to_pgm(mask, path), lambda: mask_from_pgm(path)):
        tracemalloc.start()
        try:
            step()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 2 * 2**20
    assert peaks[1] < 4 * 2**20


def test_mask_rejects_color_file(tmp_path):
    path = tmp_path / "m.ppm"
    path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
    with pytest.raises(PnmError, match="grayscale"):
        mask_from_pgm(path)


def test_image_validation():
    with pytest.raises(ValueError, match="channel"):
        Image(np.zeros((4, 4, 2)))
    with pytest.raises(ValueError, match="finite"):
        Image(np.full((2, 2), np.nan))
    for shape in (4,), (1, 4, 4, 1):
        with pytest.raises(ValueError, match=f"image data must be 2-D or 3-D, got ndim={len(shape)}"):
            Image(np.zeros(shape))
    for shape, size in ((0, 4), "4x0"), ((4, 0, 3), "0x4"):
        with pytest.raises(ValueError, match=f"image must be at least 1x1, got {size}"):
            Image(np.zeros(shape))
    with pytest.raises(ValueError, match="mask must be 2-D, got ndim=3"):
        Mask(np.zeros((2, 2, 1), bool))
    with pytest.raises(ValueError, match="mask must be at least 1x1, got 3x0"):
        Mask(np.zeros((0, 3), bool))
    img = Image(np.zeros((4, 6)))
    assert (img.height, img.width, img.channels) == (4, 6, 1)


def test_image_rejects_complex_samples():
    with pytest.raises(ValueError, match="real"):
        Image(np.array([[1 + 2j, 3]]))


def test_dimension_pairing_checked():
    img = Image(np.zeros((4, 4)))
    mask = Mask(np.zeros((4, 5), bool))
    with pytest.raises(DimensionMismatch) as exc:
        require_same_grid(img, mask)
    assert "4x4" in str(exc.value) and "5x4" in str(exc.value)
