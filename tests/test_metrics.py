"""PSNR/SSIM fixtures and properties against closed-form oracles."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from linemend import (
    DimensionMismatch,
    Image,
    LineSpec,
    apply_mask,
    generate_line_mask,
    inpaint,
    psnr,
    ssim,
)
from linemend import metrics

from conftest import natural_image


def ssim_oracle_map(reference, test):
    """Whole-image SSIM map: every valid 11x11 window scored."""
    def luminance(d):
        if d.shape[2] == 1:
            return d[:, :, 0]
        return 0.299 * d[:, :, 0] + 0.587 * d[:, :, 1] + 0.114 * d[:, :, 2]

    i = np.arange(11) - 5.0
    g = np.exp(-(i * i) / (2.0 * 1.5 * 1.5))
    g = g / g.sum()

    def windowed_mean(plane):
        v = sliding_window_view(plane, 11, axis=0) @ g
        return sliding_window_view(v, 11, axis=1) @ g

    x, y = luminance(reference.data), luminance(test.data)
    mu_x, mu_y = windowed_mean(x), windowed_mean(y)
    var_x = windowed_mean(x * x) - mu_x * mu_x
    var_y = windowed_mean(y * y) - mu_y * mu_y
    cov = windowed_mean(x * y) - mu_x * mu_y
    c1, c2 = (0.01 * 255.0) ** 2, (0.03 * 255.0) ** 2
    return ((2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)) / (
        (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
    )


def ssim_oracle(reference, test):
    """Whole-image SSIM: every valid 11x11 window scored, then averaged."""
    return float(ssim_oracle_map(reference, test).mean())


def test_psnr_identical_is_inf():
    img = Image(np.arange(144.0).reshape(12, 12) % 256)
    assert psnr(img, img) == math.inf


def test_psnr_off_by_one():
    a = Image(np.full((16, 16), 100.0))
    b = Image(np.full((16, 16), 101.0))
    assert psnr(a, b) == pytest.approx(48.1308, abs=1e-3)
    assert psnr(a, b) == pytest.approx(20.0 * math.log10(255.0), abs=1e-12)


def test_psnr_full_swing_is_zero():
    a = Image(np.zeros((8, 8)))
    b = Image(np.full((8, 8), 255.0))
    assert psnr(a, b) == 0.0


def test_psnr_matches_mse_oracle():
    rng = np.random.default_rng(15)
    for _ in range(30):
        a = rng.uniform(0.0, 255.0, (10, 12, 3))
        b = rng.uniform(0.0, 255.0, (10, 12, 3))
        want = 10.0 * math.log10(255.0**2 / np.mean((a - b) ** 2))
        assert abs(psnr(Image(a), Image(b)) - want) <= 1e-9


def test_psnr_symmetric():
    rng = np.random.default_rng(16)
    a = Image(rng.uniform(0.0, 255.0, (9, 9)))
    b = Image(rng.uniform(0.0, 255.0, (9, 9)))
    assert psnr(a, b) == psnr(b, a)


def test_psnr_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        psnr(Image(np.zeros((8, 8))), Image(np.zeros((8, 9))))
    with pytest.raises(DimensionMismatch):
        psnr(Image(np.zeros((8, 8))), Image(np.zeros((8, 8, 3))))


def test_ssim_identical_is_exactly_one():
    rng = np.random.default_rng(18)
    img = Image(rng.uniform(0.0, 255.0, (24, 31)))
    assert ssim(img, img) == 1.0


def test_ssim_constant_closed_form():
    a = Image(np.full((32, 32), 100.0))
    b = Image(np.full((32, 32), 110.0))
    c1 = (0.01 * 255.0) ** 2
    want = (2.0 * 100.0 * 110.0 + c1) / (100.0**2 + 110.0**2 + c1)
    got = ssim(a, b)
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(0.995477, abs=1e-6)


def test_ssim_strong_noise_below_099():
    rng = np.random.default_rng(20)
    ref = rng.uniform(60.0, 200.0, (64, 64))
    noisy = ref + rng.normal(0.0, 25.0, (64, 64))
    assert ssim(Image(ref), Image(noisy)) < 0.99


def test_ssim_symmetric():
    rng = np.random.default_rng(22)
    a = Image(rng.uniform(0.0, 255.0, (20, 20)))
    b = Image(rng.uniform(0.0, 255.0, (20, 20)))
    assert ssim(a, b) == ssim(b, a)


def test_ssim_rejects_small_images():
    with pytest.raises(ValueError, match="11x11"):
        ssim(Image(np.zeros((10, 12))), Image(np.zeros((10, 12))))


def test_ssim_color_uses_luminance():
    rng = np.random.default_rng(24)
    a = rng.uniform(0.0, 255.0, (16, 16, 3))
    b = rng.uniform(0.0, 255.0, (16, 16, 3))
    luma = lambda d: 0.299 * d[:, :, 0] + 0.587 * d[:, :, 1] + 0.114 * d[:, :, 2]
    assert ssim(Image(a), Image(b)) == ssim(Image(luma(a)), Image(luma(b)))


def test_psnr_monotone_in_noise_amplitude():
    rng = np.random.default_rng(26)
    ref = rng.uniform(40.0, 215.0, (32, 32))
    noise = rng.standard_normal((32, 32))
    scores = [psnr(Image(ref), Image(ref + amp * noise)) for amp in (1, 2, 4, 8, 16)]
    assert all(s1 > s2 for s1, s2 in zip(scores, scores[1:]))


@st.composite
def image_pairs(draw):
    """A random image and a copy that differs under a random mask, from
    empty (or a few pixels) to full, optionally also along the last row
    and column."""
    # Up to 160: several strips and runs, yet quick to score 150 times.
    height = draw(st.integers(11, 160))
    width = draw(st.integers(11, 160))
    channels = draw(st.sampled_from([1, 3]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    reference = np.floor(rng.uniform(0.0, 256.0, (height, width, channels)))
    if draw(st.booleans()):
        differs = np.zeros((height, width), bool)
        differs.flat[rng.choice(height * width, draw(st.integers(0, 4)), replace=False)] = True
    else:
        differs = rng.random((height, width)) < draw(st.sampled_from([0.01, 0.05, 0.3, 1.0]))
    if draw(st.booleans()):
        differs[-1, rng.integers(width)] = True
        differs[rng.integers(height), -1] = True
    test = reference.copy()
    test[differs] = rng.uniform(0.0, 255.0, (int(differs.sum()), channels))
    return Image(reference), Image(test), differs.any()


@settings(max_examples=150, deadline=None)
@given(pair=image_pairs())
def test_ssim_matches_whole_image_oracle(pair):
    reference, test, differs = pair
    got = ssim(reference, test)
    assert abs(got - ssim_oracle(reference, test)) <= 1e-12
    if not differs:
        assert got == 1.0


# The fixed cases compare every window score with the oracle's, since a
# last-bit difference in one window is lost in the mean.
def test_ssim_unrelated_images_equal_oracle():
    # Every window differs, so each strip is one run across the image.
    rng = np.random.default_rng(30)
    a = Image(rng.uniform(0.0, 255.0, (96, 120, 3)))
    b = Image(rng.uniform(0.0, 255.0, (96, 120, 3)))
    assert metrics._score_grid(a, b).tobytes() == ssim_oracle_map(a, b).tobytes()


def test_ssim_line_count_cells_equal_oracle(natural512):
    # 166-187 slices each, which hold 73-87% of the image's pixels.
    for count, seed in ((8, 1), (9, 1), (10, 0), (10, 1)):
        mask = generate_line_mask(512, 512, LineSpec(count=count, width=1, seed=seed))
        restored = inpaint(apply_mask(natural512, mask), mask)
        got = metrics._score_grid(natural512, restored)
        assert got.tobytes() == ssim_oracle_map(natural512, restored).tobytes(), (count, seed)


def test_ssim_width9_and_shifted_pairs_equal_oracle(natural512):
    mask = generate_line_mask(512, 512, LineSpec(count=2, width=9, seed=3))
    restored = inpaint(apply_mask(natural512, mask), mask)
    # The second pair differs everywhere, so every strip is one run of
    # all 502 window columns.
    for test in (restored, Image(natural512.data + 1.0)):
        assert metrics._score_grid(natural512, test).tobytes() == ssim_oracle_map(natural512, test).tobytes()


def _pair_differing_at(height, width, pixels, seed=40):
    rng = np.random.default_rng(seed)
    reference = np.floor(rng.uniform(0.0, 256.0, (height, width)))
    test = reference.copy()
    for r, c in pixels:
        test[r, c] = 255.0 - test[r, c]
    return Image(reference), Image(test)


_STRIP_RUNS = [
    # Window column 53, the last of 54: the run's 16-pixel slice moves
    # left to end at the right edge.
    (40, 64, [(20, 63)]),
    # Window columns 0-5 and 60-70 of one strip: two runs, two slices.
    (40, 96, [(3, 5), (3, 70)]),
    # Window column 0 alone: a slice at column 0, widened to 16 pixels.
    (40, 64, [(30, 0)]),
    # 35 window rows: the last strip holds 3 of them.
    (45, 64, [(44, 30), (2, 40)]),
    # A differing row: in each of its two strips one run of all 190
    # window columns, scored as three 64-pixel slices and a 40-pixel one
    # moved left to end at the right edge.
    (40, 200, [(20, c) for c in range(200)]),
]


@pytest.mark.parametrize("height, width, pixels", _STRIP_RUNS)
def test_ssim_strip_runs_equal_oracle(height, width, pixels):
    reference, test = _pair_differing_at(height, width, pixels)
    with mock.patch.object(metrics, "_ssim_map", wraps=metrics._ssim_map) as scored:
        assert ssim(reference, test) == ssim_oracle(reference, test)
    # Slices a multiple of 8 pixels wide match the oracle window for
    # window (test_score_grid_equals_oracle_map_on_strip_runs).
    widths = [call.args[0].shape[1] for call in scored.call_args_list]
    assert widths and all(w % 8 == 0 and w <= 64 for w in widths), widths


@pytest.mark.parametrize("width", range(11, 16))
def test_ssim_slice_capped_at_a_narrow_image(width):
    # Any run's slice rounds up to at least 16 pixels, more than the image
    # holds, so it is capped at the image width.
    reference, test = _pair_differing_at(40, width, [(5, 0), (30, width - 1)])
    assert abs(ssim(reference, test) - ssim_oracle(reference, test)) <= 1e-12


def test_ssim_memory_does_not_follow_run_length(natural512):
    # A row of changed pixels makes runs of all 502 window columns, a
    # column makes runs of 11; a slice of the whole row would add about
    # 1.1 MB.
    peaks = []
    for at in ((256, slice(None)), (slice(None), 256)):
        data = natural512.data.copy()
        data[at] += 1.0
        tracemalloc.start()
        try:
            ssim(natural512, Image(data))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[0] - peaks[1]) < 2e5, peaks


def test_ssim_peak_memory_on_a_wide_line_cell(natural512):
    mask = generate_line_mask(512, 512, LineSpec(count=2, width=15, seed=0))
    restored = inpaint(apply_mask(natural512, mask), mask)
    tracemalloc.start()
    try:
        ssim(natural512, restored)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The grid of window scores takes 2.0 MB; the rest is the difference
    # mask and one slice.
    assert peak < 4.0e6, peak


def test_ssim_memory_does_not_follow_dirty_tiles(natural512):
    # 21, 54 and 81 runs, then one run per strip across the whole image:
    # memory is the score grid plus one slice of at most 64 pixels, so
    # every call peaks alike.
    changed = []
    for count in (4, 6, 10):
        mask = generate_line_mask(512, 512, LineSpec(count=count, width=1, seed=4))
        changed.append(Image(natural512.data + mask.degraded[:, :, None]))
    changed.append(Image(natural512.data + 1.0))
    peaks = []
    for test in changed:
        tracemalloc.start()
        try:
            ssim(natural512, test)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert all(abs(peak - peaks[0]) < 1e5 for peak in peaks[1:]), peaks


def _windowed_mean_by_views(plane):
    v = sliding_window_view(plane, 11, axis=-2) @ metrics._GAUSS
    return sliding_window_view(v, 11, axis=-1) @ metrics._GAUSS


@pytest.mark.parametrize("shape", [(5, 26, 64), (5, 26, 32), (5, 26, 24), (5, 11, 11), (5, 13, 19), (512, 512), (5, 64, 512)])
def test_windowed_mean_matches_sliding_window_views(shape):
    # The strided views must hand BLAS the same operands as
    # sliding_window_view, so the means agree byte for byte.
    plane = np.random.default_rng(len(shape) + shape[-1]).uniform(0.0, 255.0, shape)
    got = metrics._windowed_mean(plane)
    want = _windowed_mean_by_views(plane)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("index", [np.s_[..., ::2], np.s_[:, ::2], np.s_[:, :, ::-1], np.s_[::2]])
def test_windowed_mean_rejects_a_plane_that_is_not_contiguous(index):
    # The window views are built on the plane's buffer with the plane's
    # strides, so a plane whose memory has gaps or runs backwards is
    # refused rather than read as if it were contiguous.
    plane = np.random.default_rng(41).uniform(0.0, 255.0, (5, 26, 64))[index]
    with pytest.raises(ValueError, match="contiguous"):
        metrics._windowed_mean(plane)


def test_score_grid_equals_oracle_map_on_width_cells(natural512):
    for width in range(1, 16):
        for seed in (0, 1):
            mask = generate_line_mask(512, 512, LineSpec(count=2, width=width, seed=seed))
            restored = inpaint(apply_mask(natural512, mask), mask)
            want = ssim_oracle_map(natural512, restored)
            assert metrics._score_grid(natural512, restored).tobytes() == want.tobytes(), (width, seed)
            # ssim is its grid's mean, as ssim_oracle is the oracle map's.
            assert ssim(natural512, restored) == float(want.mean()), (width, seed)


@pytest.mark.parametrize("height, width, pixels", _STRIP_RUNS)
def test_score_grid_equals_oracle_map_on_strip_runs(height, width, pixels):
    reference, test = _pair_differing_at(height, width, pixels)
    assert metrics._score_grid(reference, test).tobytes() == ssim_oracle_map(reference, test).tobytes()


def test_score_grid_equals_oracle_map_on_an_rgb_pair():
    # Three natural channels, 136 pixels wide, restored from three
    # width-3 lines: the slices are scored on luminance.
    reference = Image(np.stack([natural_image(96, 136, seed).data[:, :, 0] for seed in (7, 8, 9)], axis=2))
    mask = generate_line_mask(136, 96, LineSpec(count=3, width=3, seed=5))
    restored = inpaint(apply_mask(reference, mask), mask)
    got = metrics._score_grid(reference, restored)
    assert got.shape == (86, 126)
    assert got.tobytes() == ssim_oracle_map(reference, restored).tobytes()
