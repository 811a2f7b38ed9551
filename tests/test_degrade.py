"""Line-defect generator tests: determinism, coverage monotonicity,
pixel counts of whole scratches, and the closed-form rasterizer checked
against the error-term loop of oracle.py, pixel for pixel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linemend import Image, LineSpec, Mask, apply_mask, generate_line_mask
from linemend.degrade import _line_points

from oracle import line_points


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


def assert_same_path(r0, c0, r1, c1):
    rows, cols = _line_points(r0, c0, r1, c1)
    want_rows, want_cols = line_points(r0, c0, r1, c1)
    assert rows.dtype == cols.dtype == np.intp
    assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)


def test_line_points_match_loop_on_short_lines():
    # Every sign combination and every slope with |dr|, |dc| <= 40.
    for dr in range(-40, 41):
        for dc in range(-40, 41):
            assert_same_path(50, 60, 50 + dr, 60 + dc)


@settings(max_examples=300, deadline=None)
@given(ends=st.tuples(*[st.integers(0, 1023)] * 4))
def test_line_points_match_loop_in_1024_grid(ends):
    assert_same_path(*ends)


# The width sweep's first masks at benchmark seeds 0, 3 and 1009, and the
# two scratch patterns.
@pytest.mark.parametrize("size, spec", [
    *((512, LineSpec(2, w, s)) for w in range(1, 16) for s in (0, 3000, 1009000)),
    (1024, LineSpec(8, 2, 0)),
    (1024, LineSpec(8, 2, 6)),
])
def test_benchmark_masks_match_loop_rasterizer(monkeypatch, size, spec):
    mask = generate_line_mask(size, size, spec)
    monkeypatch.setattr("linemend.degrade._line_points", line_points)
    assert np.array_equal(mask.degraded, generate_line_mask(size, size, spec).degraded)


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


@pytest.mark.parametrize("field, value", [
    ("count", 2.0), ("count", True), ("count", "2"), ("count", None), ("count", -1),
    ("width", 2.5), ("width", True), ("width", np.float64(2.0)), ("width", 0),
    ("seed", None), ("seed", True), ("seed", 1.5), ("seed", "3"), ("seed", -1),
])
def test_linespec_rejects_non_integers(field, value):
    kwargs = {"count": 2, "width": 2, field: value}
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        LineSpec(**kwargs)


def test_linespec_accepts_numpy_integers():
    spec = LineSpec(count=np.int64(2), width=np.int32(3), seed=4)
    expected = generate_line_mask(64, 64, LineSpec(count=2, width=3, seed=4))
    assert np.array_equal(generate_line_mask(64, 64, spec).degraded, expected.degraded)


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

