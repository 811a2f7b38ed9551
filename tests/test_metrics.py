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


def ssim_oracle(reference, test):
    """Whole-image SSIM: every valid 11x11 window scored, then averaged."""
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
    score = ((2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)) / (
        (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
    )
    return float(score.mean())


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
    # Up to 160: several tiles on each axis, yet quick to score 150 times.
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


def test_ssim_unrelated_images_equal_oracle():
    # Every window differs, so every tile is dirty and scored.
    rng = np.random.default_rng(30)
    a = Image(rng.uniform(0.0, 255.0, (96, 120, 3)))
    b = Image(rng.uniform(0.0, 255.0, (96, 120, 3)))
    assert ssim(a, b) == ssim_oracle(a, b)


def test_ssim_width_sweep_cells_equal_oracle(natural512):
    for width in range(1, 16):
        for seed in (0, 1):
            mask = generate_line_mask(512, 512, LineSpec(count=2, width=width, seed=seed))
            restored = inpaint(apply_mask(natural512, mask), mask)
            assert ssim(natural512, restored) == ssim_oracle(natural512, restored), (width, seed)


def test_ssim_line_count_cells_equal_oracle(natural512):
    # 345-394 dirty tiles each: more patch pixels than the image holds.
    for count, seed in ((8, 1), (9, 1), (10, 0), (10, 1)):
        mask = generate_line_mask(512, 512, LineSpec(count=count, width=1, seed=seed))
        restored = inpaint(apply_mask(natural512, mask), mask)
        assert ssim(natural512, restored) == ssim_oracle(natural512, restored), (count, seed)


def test_ssim_tile_batches_agree(natural512):
    mask = generate_line_mask(512, 512, LineSpec(count=2, width=9, seed=3))
    restored = inpaint(apply_mask(natural512, mask), mask)
    # The second pair differs everywhere, so all 736 tiles are dirty.
    for test in (restored, Image(natural512.data + 1.0)):
        want = ssim(natural512, test)
        for batch in (1, 7):
            with mock.patch.object(metrics, "_TILE_BATCH", batch):
                assert ssim(natural512, test) == want, batch


def test_ssim_memory_does_not_follow_dirty_tiles(natural512):
    # 150, 237 and 329 dirty tiles, then all 736, scored in batches of
    # about 40 kB a tile: every call peaks alike.
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
