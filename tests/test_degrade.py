"""Line-defect generator tests: determinism, coverage monotonicity, and
pixel-count oracles for rasterized scratches."""

import numpy as np
import pytest

from linemend import Image, LineSpec, Mask, apply_mask, generate_line_mask, inpaint
from linemend.degrade import _line_points


def test_zero_lines_all_intact():
    mask = generate_line_mask(32, 24, LineSpec(count=0, width=1, seed=5))
    assert mask.degraded_count == 0
    assert (mask.width, mask.height) == (32, 24)


def test_seeded_determinism():
    spec = LineSpec(count=3, width=2, seed=99)
    a = generate_line_mask(50, 40, spec)
    b = generate_line_mask(50, 40, spec)
    assert np.array_equal(a.degraded, b.degraded)


def test_different_seeds_differ():
    a = generate_line_mask(64, 64, LineSpec(count=2, width=1, seed=0))
    b = generate_line_mask(64, 64, LineSpec(count=2, width=1, seed=1))
    assert not np.array_equal(a.degraded, b.degraded)


def test_monotone_coverage_in_width():
    for seed in range(5):
        prev = None
        for width in range(1, 8):
            mask = generate_line_mask(100, 100, LineSpec(count=2, width=width, seed=seed))
            if prev is not None:
                # widening never removes degraded pixels
                assert np.all(prev.degraded <= mask.degraded)
            prev = mask


def test_monotone_coverage_in_count():
    for seed in range(5):
        prev = None
        for count in range(0, 6):
            mask = generate_line_mask(100, 100, LineSpec(count=count, width=2, seed=seed))
            if prev is not None:
                assert np.all(prev.degraded <= mask.degraded)
            prev = mask


def test_all_degraded_pixels_in_bounds():
    # In-bounds by construction of the boolean grid; check thickening
    # clips rather than wraps: a wide line near a border stays one blob.
    mask = generate_line_mask(40, 40, LineSpec(count=4, width=9, seed=13))
    assert mask.degraded.shape == (40, 40)
    assert 0 < mask.degraded_count <= 40 * 40


def test_line_pixel_count_oracle():
    # Midpoint rasterization visits exactly max(|dr|, |dc|) + 1 pixels.
    rng = np.random.default_rng(7)
    for _ in range(50):
        r0, c0, r1, c1 = rng.integers(0, 100, 4)
        rows, cols = _line_points(r0, c0, r1, c1)
        assert len(rows) == max(abs(r1 - r0), abs(c1 - c0)) + 1
        assert rows[0] == r0 and cols[0] == c0 and rows[-1] == r1 and cols[-1] == c1


def test_axis_aligned_line_by_seed_search():
    # Find a seed whose single line is exactly vertical; its pixel count
    # must equal the crossing span (height).
    found = False
    for seed in range(200):
        mask = generate_line_mask(100, 100, LineSpec(count=1, width=1, seed=seed))
        rows, cols = np.nonzero(mask.degraded)
        if len(set(cols)) == 1 or len(set(rows)) == 1:
            assert mask.degraded_count == 100
            found = True
            break
    assert found, "no axis-aligned line in 200 seeds"


def test_full_crossing_count_bounds():
    # Unit-width lines always cross the image: each contributes exactly
    # one pixel per row or per column of its crossing axis.
    for seed in range(10):
        mask = generate_line_mask(128, 128, LineSpec(count=2, width=1, seed=seed))
        assert 128 <= mask.degraded_count <= 2 * (128 + 1)


def test_rejects_small_images_and_wide_lines():
    with pytest.raises(ValueError, match="too small"):
        generate_line_mask(7, 64, LineSpec(count=1))
    with pytest.raises(ValueError, match="width"):
        generate_line_mask(40, 40, LineSpec(count=1, width=11))
    with pytest.raises(ValueError):
        LineSpec(count=-1)
    with pytest.raises(ValueError):
        LineSpec(count=1, width=0)


def test_apply_mask_pointwise():
    img = Image(np.full((6, 6), 7.0))
    empty = apply_mask(img, Mask(np.zeros((6, 6), bool)))
    assert np.array_equal(empty.data, img.data)

    full = apply_mask(img, Mask(np.ones((6, 6), bool)))
    assert np.all(full.data == 0.0)

    checker = (np.indices((6, 6)).sum(axis=0) % 2) == 0
    out = apply_mask(img, Mask(checker))
    assert np.array_equal(out.data[:, :, 0], np.where(checker, 0.0, 7.0))


def test_apply_mask_blanks_all_channels():
    rng = np.random.default_rng(9)
    img = Image(rng.uniform(1.0, 255.0, (8, 8, 3)))
    mask = Mask(rng.random((8, 8)) < 0.5)
    out = apply_mask(img, mask)
    assert np.all(out.data[mask.degraded] == 0.0)
    assert np.array_equal(out.data[~mask.degraded], img.data[~mask.degraded])


def test_degrade_then_inpaint_preserves_intact_pixels():
    rng = np.random.default_rng(12)
    img = Image(rng.uniform(0.0, 255.0, (48, 48)))
    mask = generate_line_mask(48, 48, LineSpec(count=2, width=3, seed=2))
    restored = inpaint(apply_mask(img, mask), mask)
    assert np.array_equal(restored.data[~mask.degraded], img.data[~mask.degraded])
