"""Engine tests: the per-pixel contracts of the reference in oracle.py,
the vectorized pass against it, pass scheduling, and whole-run
invariants, with brute-force enumeration oracles for availability."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linemend import (
    DimensionMismatch,
    EngineConfig,
    Image,
    LineSpec,
    Mask,
    generate_line_mask,
    inpaint,
    inpaint_report,
    run_pass,
)
from linemend.engine import _fallback_fill, _fill_round, _pad_missing
from linemend.kernels import DIRECTION_VECTORS, NEIGHBOR_OFFSETS

from oracle import gather_neighborhood, predict_pixel, replace_most_deviant


def affine_image(height, width, a=0.5, b=0.8, d=20.0, channels=1):
    r, c = np.meshgrid(np.arange(height, dtype=float), np.arange(width, dtype=float), indexing="ij")
    plane = a * r + b * c + d
    return Image(np.repeat(plane[:, :, None], channels, axis=2))


def brute_fillable(missing):
    """Oracle: a missing pixel is fillable iff at least one direction has
    all four of its (in-bounds, not-missing) line pixels."""
    height, width = missing.shape
    fillable = np.zeros_like(missing)
    for r in range(height):
        for c in range(width):
            if not missing[r, c]:
                continue
            for dr, dc in DIRECTION_VECTORS:
                if all(
                    0 <= r + t * dr < height
                    and 0 <= c + t * dc < width
                    and not missing[r + t * dr, c + t * dc]
                    for t in (-2, -1, 1, 2)
                ):
                    fillable[r, c] = True
                    break
    return fillable


# ------------------------------------------------------------- gathering


def test_gather_interior_all_available():
    img = affine_image(9, 9)
    nb = gather_neighborhood(img, np.zeros((9, 9), bool), (4, 4))
    assert nb.available.all()
    for i, (dr, dc) in enumerate(NEIGHBOR_OFFSETS):
        assert nb.values[i] == img.data[4 + dr, 4 + dc, 0]


def test_gather_corner_unavailability():
    # At (0, 0) every offset with a negative row or column is out of
    # bounds: 10 of the 16.
    img = affine_image(9, 9)
    nb = gather_neighborhood(img, np.zeros((9, 9), bool), (0, 0))
    expected_unavailable = sum(
        1 for (dr, dc) in NEIGHBOR_OFFSETS if dr < 0 or dc < 0
    )
    assert expected_unavailable == 10
    assert (~nb.available).sum() == 10
    for i, (dr, dc) in enumerate(NEIGHBOR_OFFSETS):
        assert nb.available[i] == (dr >= 0 and dc >= 0)


def test_gather_fully_masked_window():
    img = affine_image(9, 9)
    missing = np.zeros((9, 9), bool)
    missing[2:7, 2:7] = True
    nb = gather_neighborhood(img, missing, (4, 4))
    assert not nb.available.any()


def test_gather_rejects_outside_center():
    img = affine_image(5, 5)
    with pytest.raises(ValueError):
        gather_neighborhood(img, np.zeros((5, 5), bool), (5, 0))


# ----------------------------------------------------- outlier handling


def test_replace_most_deviant_cases():
    assert list(replace_most_deviant([10.0, 10.0, 10.0, 22.0])) == [10.0, 10.0, 10.0, 10.0]
    assert list(replace_most_deviant([5.0, 5.0, 5.0, 5.0])) == [5.0, 5.0, 5.0, 5.0]
    # four-way deviation tie: lowest index (horizontal) is replaced
    assert list(replace_most_deviant([0.0, 0.0, 6.0, 6.0])) == [4.0, 0.0, 6.0, 6.0]


def test_replace_most_deviant_keeps_others():
    rng = np.random.default_rng(2)
    for _ in range(100):
        p = rng.uniform(0.0, 255.0, 4)
        out = replace_most_deviant(p)
        changed = np.nonzero(out != p)[0]
        assert len(changed) <= 1
        if len(changed) == 1:
            i = changed[0]
            others = np.delete(p, i)
            assert out[i] == pytest.approx(others.mean(), abs=1e-12)


def test_replace_most_deviant_validates():
    with pytest.raises(ValueError):
        replace_most_deviant([1.0, 2.0, 3.0])


# ------------------------------------------------------ pixel prediction


def test_predict_pixel_affine_exact():
    img = Image(np.fromfunction(lambda r, c: 2.0 * r + 3.0 * c + 7.0, (11, 11)))
    nb = gather_neighborhood(img, np.zeros((11, 11), bool), (5, 5))
    assert predict_pixel(nb) == pytest.approx(2.0 * 5 + 3.0 * 5 + 7.0, abs=1e-9)


def test_predict_pixel_single_line():
    img = affine_image(9, 9)
    missing = np.ones((9, 9), bool)
    missing[4, :] = False  # only the horizontal line is known
    missing[4, 4] = True
    img.data[4, :, 0] = 42.0
    nb = gather_neighborhood(img, missing, (4, 4))
    assert predict_pixel(nb) == 42.0


def test_predict_pixel_no_predictors_is_none():
    img = affine_image(9, 9)
    nb = gather_neighborhood(img, np.ones((9, 9), bool), (4, 4))
    assert predict_pixel(nb) is None


def test_predict_pixel_all_slots_equal():
    img = Image(np.full((9, 9), 93.0))
    nb = gather_neighborhood(img, np.zeros((9, 9), bool), (4, 4))
    assert predict_pixel(nb) == 93.0


# ------------------------------------------------------------ run_pass


def test_run_pass_single_pixel():
    img = affine_image(9, 9)
    missing = np.zeros((9, 9), bool)
    missing[4, 4] = True
    new_values, filled = run_pass(img.data, missing)
    assert filled[4, 4] and filled.sum() == 1
    assert new_values[4, 4, 0] == pytest.approx(img.data[4, 4, 0], abs=1e-9)


def test_run_pass_empty_missing_is_identity():
    img = affine_image(6, 6)
    new_values, filled = run_pass(img.data, np.zeros((6, 6), bool), workers=2)
    assert not filled.any()
    assert np.array_equal(new_values, img.data)
    assert new_values is not img.data


def test_fill_round_zero_holes():
    values = affine_image(6, 6, channels=3).data.copy()
    before = values.copy()
    padded, _ = _pad_missing(np.zeros((6, 6), bool))
    none = np.zeros(0, dtype=np.int64)
    fillable = _fill_round(values, padded.ravel(), none)
    assert fillable.shape == (0,)
    assert values.tobytes() == before.tobytes()


def test_run_pass_leaves_arguments_unmodified():
    rng = np.random.default_rng(11)
    values = rng.uniform(0.0, 255.0, (20, 20, 3))
    missing = rng.random((20, 20)) < 0.3
    values_before, missing_before = values.copy(), missing.copy()
    new_values, filled = run_pass(values, missing, workers=2)
    assert filled.any()
    assert np.array_equal(values, values_before)
    assert np.array_equal(missing, missing_before)
    assert not np.array_equal(new_values, values)


def test_run_pass_reads_missing_as_truth_values():
    # A uint8 mask holding 2 marks the same pixels as the boolean mask;
    # bitwise inversion of it would count them as available neighbours.
    img = affine_image(12, 12)
    missing = np.zeros((12, 12), bool)
    missing[3:9, 3:9] = True
    missing[4:8, 4:8] = False
    want_values, want_filled = run_pass(img.data, missing)
    got_values, got_filled = run_pass(img.data, missing.astype(np.uint8) * 2)
    assert np.array_equal(got_filled, want_filled)
    assert got_values.tobytes() == want_values.tobytes()


def test_run_pass_rejects_missing_on_another_grid():
    img = affine_image(12, 12)
    with pytest.raises(DimensionMismatch, match=r"\(12, 13\)"):
        run_pass(img.data, np.zeros((12, 13), bool))
    with pytest.raises(DimensionMismatch):
        run_pass(img.data[:, :, 0], np.zeros((12, 12, 1), bool))


def test_run_pass_reads_values_as_finite_float64():
    # Integer samples whose holes predict to fractions: a uint8 state
    # must give the float64 predictions, not truncate them.
    values = np.random.default_rng(5).integers(0, 256, (8, 8)).astype(np.float64)
    missing = np.zeros((8, 8), bool)
    missing[3:5, 2:6] = True
    want_values, want_filled = run_pass(values, missing)
    assert not np.array_equal(want_values, np.floor(want_values))
    got_values, got_filled = run_pass(values.astype(np.uint8), missing)
    assert got_values.dtype == np.float64
    assert np.array_equal(got_filled, want_filled) and got_filled.any()
    assert got_values.tobytes() == want_values.tobytes()
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            run_pass(np.full((8, 8), bad), missing)


def test_run_pass_three_wide_band_fills_nothing():
    # A full-height 3-wide vertical band: every line of every band pixel
    # crosses the band or runs along it, so no predictor is available.
    img = affine_image(16, 16)
    missing = np.zeros((16, 16), bool)
    missing[:, 6:9] = True
    oracle = brute_fillable(missing)
    assert not oracle.any()
    _, filled = run_pass(img.data, missing)
    assert np.array_equal(filled, oracle)
    # the engine then falls through to the fallback
    report = inpaint_report(img, Mask(missing))
    assert report.predictor_filled == 0
    assert report.fallback_filled == int(missing.sum())


def test_run_pass_filled_set_matches_brute_oracle():
    rng = np.random.default_rng(8)
    for _ in range(20):
        missing = rng.random((14, 14)) < 0.35
        img = Image(rng.uniform(0.0, 255.0, (14, 14)))
        _, filled = run_pass(img.data, missing)
        assert np.array_equal(filled, brute_fillable(missing))


@st.composite
def pass_cases(draw):
    """Random states with values in [-40, 300], so the clamp acts, and
    random holes that include at least one on every border."""
    height = draw(st.integers(3, 20))
    width = draw(st.integers(3, 20))
    channels = draw(st.sampled_from([1, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(-40.0, 300.0, (height, width, channels))
    missing = rng.random((height, width)) < draw(st.floats(0.05, 0.6))
    missing[0, rng.integers(width)] = missing[-1, rng.integers(width)] = True
    missing[rng.integers(height), 0] = missing[rng.integers(height), -1] = True
    return values, missing


@settings(max_examples=300, deadline=None)
@given(case=pass_cases())
def test_run_pass_matches_scalar_reference(case):
    # The vectorized pass must agree bit for bit with the per-pixel route
    # of tests/oracle.py (gather_neighborhood + predict_pixel) on every
    # missing pixel.
    values, missing = case
    new_values, filled = run_pass(values, missing)
    for r, c in zip(*np.nonzero(missing)):
        for ch in range(values.shape[2]):
            want = predict_pixel(gather_neighborhood(values, missing, (r, c), ch))
            if want is None:
                assert not filled[r, c]
                assert new_values[r, c, ch] == values[r, c, ch]
            else:
                assert filled[r, c]
                assert new_values[r, c, ch] == min(max(want, 0.0), 255.0)


def test_run_pass_accepts_2d_state():
    img = affine_image(9, 9)
    missing = np.zeros((9, 9), bool)
    missing[4, 4] = True
    new_values, filled = run_pass(img.data[:, :, 0], missing)
    assert new_values.shape == (9, 9)
    assert filled[4, 4]
    assert new_values[4, 4] == pytest.approx(img.data[4, 4, 0], abs=1e-9)


def test_run_pass_worker_count_bit_identical():
    rng = np.random.default_rng(21)
    values = rng.uniform(0.0, 255.0, (40, 40, 1))
    missing = rng.random((40, 40)) < 0.25
    base, filled1 = run_pass(values, missing, workers=1)
    for workers in (2, 4, 7):
        out, filled = run_pass(values, missing, workers=workers)
        assert np.array_equal(out, base)
        assert np.array_equal(filled, filled1)


# -------------------------------------------------------------- inpaint


def _integral_oracle(plane):
    out = np.zeros((plane.shape[0] + 1, plane.shape[1] + 1), dtype=np.float64)
    out[1:, 1:] = plane.cumsum(axis=0).cumsum(axis=1)
    return out


def fallback_oracle(values, missing):
    """The box-mean fallback over whole-image summed-area tables, one per
    plane, with every window size up to 21 x 21 evaluated for every hole.
    Mutates ``values``; returns the number of pixels filled."""
    rows, cols = np.nonzero(missing)
    if rows.size == 0:
        return 0
    height, width, channels = values.shape
    known = ~missing
    out = np.full((rows.size, channels), 128.0)
    if known.any():
        count_int = _integral_oracle(known.astype(np.float64))
        sum_ints = [_integral_oracle(values[:, :, ch] * known) for ch in range(channels)]
        remaining = np.ones(rows.size, dtype=bool)
        for half in range(1, 11):
            if not remaining.any():
                break
            r0 = np.maximum(rows - half, 0)
            r1 = np.minimum(rows + half + 1, height)
            c0 = np.maximum(cols - half, 0)
            c1 = np.minimum(cols + half + 1, width)
            counts = (
                count_int[r1, c1] - count_int[r0, c1] - count_int[r1, c0] + count_int[r0, c0]
            )
            sel = remaining & (counts > 0)
            if sel.any():
                for ch in range(channels):
                    s = sum_ints[ch]
                    sums = s[r1, c1] - s[r0, c1] - s[r1, c0] + s[r0, c0]
                    out[sel, ch] = sums[sel] / counts[sel]
                remaining &= ~sel
    values[rows, cols] = np.clip(out, 0.0, 255.0)
    return rows.size


def reference_report(image, mask, config, workers):
    """inpaint_report's contract, spelled out as a loop over the public
    run_pass: full rounds until one fills nothing, no hole remains or the
    pass cap is reached, then the fallback."""
    values = image.data.copy()
    missing = mask.degraded.copy()
    fills = []
    while missing.any() and len(fills) < config.max_passes:
        values, filled = run_pass(values, missing, config, workers=workers)
        fills.append(int(filled.sum()))
        if fills[-1] == 0:
            break
        missing &= ~filled
    fallback = fallback_oracle(values, missing)
    return values, tuple(fills), fallback


@st.composite
def masked_images(draw):
    """Random images under either i.i.d. holes or 1-3 scratches of width
    1-4; both reach the image border."""
    height = draw(st.integers(16, 28))
    width = draw(st.integers(16, 28))
    channels = draw(st.sampled_from([1, 3]))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        spec = LineSpec(count=draw(st.integers(1, 3)), width=draw(st.integers(1, 4)), seed=seed)
        mask = generate_line_mask(width, height, spec)
    else:
        density = draw(st.floats(0.05, 0.6))
        mask = Mask(np.random.default_rng(seed).random((height, width)) < density)
    values = np.random.default_rng([seed, 1]).uniform(0.0, 255.0, (height, width, channels))
    return Image(values), mask


def creeping_band():
    """A 16x48 image with one nearly axis-aligned width-2 scratch, which the
    predictor fills a few pixels per pass for 23 passes."""
    values = np.random.default_rng(1).uniform(0.0, 255.0, (16, 48, 1))
    return Image(values), generate_line_mask(48, 16, LineSpec(count=1, width=2, seed=19))


def test_creeping_band_hits_low_pass_cap():
    image, mask = creeping_band()
    _, fills, fallback = reference_report(image, mask, EngineConfig(max_passes=8), workers=1)
    assert len(fills) == 8 and min(fills) > 0
    assert fallback > 0


@settings(max_examples=80, deadline=None)
@example(case=creeping_band(), max_passes=8, workers=2)
@given(case=masked_images(), max_passes=st.sampled_from([1, 2, 64]), workers=st.sampled_from([1, 2]))
def test_inpaint_report_matches_run_pass_loop(case, max_passes, workers):
    image, mask = case
    config = EngineConfig(max_passes=max_passes)
    values, fills, fallback = reference_report(image, mask, config, workers)
    report = inpaint_report(image, mask, config, workers=workers)
    assert report.image.data.tobytes() == values.tobytes()
    assert report.passes == len(fills)
    assert report.pass_fill_counts == fills
    assert report.fallback_filled == fallback


def test_inpaint_report_leaves_inputs_unmodified():
    rng = np.random.default_rng(12)
    image = Image(rng.uniform(0.0, 255.0, (24, 24, 3)))
    mask = Mask(rng.random((24, 24)) < 0.3)
    data_before, degraded_before = image.data.copy(), mask.degraded.copy()
    report = inpaint_report(image, mask, workers=2)
    assert report.predictor_filled > 0
    assert np.array_equal(image.data, data_before)
    assert np.array_equal(mask.degraded, degraded_before)


def test_inpaint_empty_mask_identity():
    rng = np.random.default_rng(4)
    img = Image(rng.uniform(0.0, 255.0, (12, 12, 3)))
    out = inpaint(img, Mask(np.zeros((12, 12), bool)))
    assert np.array_equal(out.data, img.data)


def test_inpaint_affine_scattered_holes_exact():
    img = affine_image(64, 64)
    missing = np.zeros((64, 64), bool)
    holes = [(r, c) for r in range(3, 61, 7) for c in range(3, 61, 7)]
    for r, c in holes:
        missing[r, c] = True
    report = inpaint_report(img, Mask(missing))
    assert report.fallback_filled == 0
    assert np.max(np.abs(report.image.data - img.data)) <= 1e-6


def test_inpaint_fully_masked_gives_128():
    img = Image(np.full((12, 12), 55.0))
    out = inpaint(img, Mask(np.ones((12, 12), bool)))
    assert np.all(out.data == 128.0)


def test_inpaint_single_pixel_image():
    out = inpaint(Image(np.array([[42.0]])), Mask(np.array([[True]])))
    assert out.data[0, 0, 0] == 128.0


def test_inpaint_never_touches_unmasked_pixels():
    rng = np.random.default_rng(6)
    for _ in range(10):
        img = Image(rng.uniform(0.0, 255.0, (20, 20, 3)))
        missing = rng.random((20, 20)) < 0.4
        out = inpaint(img, Mask(missing))
        assert np.array_equal(out.data[~missing], img.data[~missing])
        assert np.isfinite(out.data).all()
        assert out.data.min() >= 0.0 and out.data.max() <= 255.0


def test_inpaint_ignores_stored_values_under_mask():
    rng = np.random.default_rng(14)
    clean = rng.uniform(0.0, 255.0, (16, 16, 1))
    missing = rng.random((16, 16)) < 0.2
    poisoned = clean.copy()
    poisoned[missing] = 9999.0
    zeroed = clean.copy()
    zeroed[missing] = 0.0
    out_a = inpaint(Image(poisoned), Mask(missing))
    out_b = inpaint(Image(zeroed), Mask(missing))
    assert np.array_equal(out_a.data[missing], out_b.data[missing])


def test_inpaint_monotone_progress():
    rng = np.random.default_rng(19)
    img = Image(rng.uniform(0.0, 255.0, (32, 32)))
    missing = np.zeros((32, 32), bool)
    missing[10:22, 10:22] = True  # block peels from its corners inward
    report = inpaint_report(img, Mask(missing))
    counts = report.pass_fill_counts
    assert all(n > 0 for n in counts[:-1])
    assert report.predictor_filled + report.fallback_filled == int(missing.sum())


def test_inpaint_channel_independence():
    rng = np.random.default_rng(23)
    img = Image(rng.uniform(0.0, 255.0, (18, 18, 3)))
    missing = rng.random((18, 18)) < 0.3
    combined = inpaint(img, Mask(missing))
    for ch in range(3):
        single = inpaint(Image(img.data[:, :, ch]), Mask(missing))
        assert np.array_equal(combined.data[:, :, ch], single.data[:, :, 0])


def test_inpaint_deterministic():
    rng = np.random.default_rng(27)
    img = Image(rng.uniform(0.0, 255.0, (24, 24)))
    missing = rng.random((24, 24)) < 0.35
    a = inpaint(img, Mask(missing))
    b = inpaint(img, Mask(missing))
    assert np.array_equal(a.data, b.data)


def test_inpaint_dimension_mismatch():
    img = affine_image(8, 8)
    with pytest.raises(Exception, match="8x8"):
        inpaint(img, Mask(np.zeros((8, 9), bool)))


def test_fallback_growing_window_oracle():
    # Full-height band: no predictors anywhere, so every band pixel takes
    # the mean of the smallest centered odd window holding a known pixel.
    rng = np.random.default_rng(31)
    data = rng.uniform(0.0, 255.0, (16, 16))
    missing = np.zeros((16, 16), bool)
    missing[:, 6:11] = True  # 5-wide band
    out = inpaint(Image(data), Mask(missing))
    known = ~missing
    for r, c in zip(*np.nonzero(missing)):
        expected = None
        for half in range(1, 11):
            r0, r1 = max(0, r - half), min(16, r + half + 1)
            c0, c1 = max(0, c - half), min(16, c + half + 1)
            window_known = known[r0:r1, c0:c1]
            if window_known.any():
                expected = data[r0:r1, c0:c1][window_known].mean()
                break
        assert expected is not None
        assert out.data[r, c, 0] == pytest.approx(expected, abs=1e-9)


def test_fallback_window_limit_gives_128():
    # Known pixels exist but sit beyond the 21 x 21 window limit.
    data = np.full((40, 40), 200.0)
    missing = np.ones((40, 40), bool)
    missing[0, 0] = False
    out = inpaint(Image(data), Mask(missing))
    # pixels within 10 of (0,0) average it; everything farther gets 128
    assert out.data[20, 20, 0] == 128.0
    assert out.data[0, 1, 0] == 200.0


def _check_fallback(values, missing):
    want = values.copy()
    want_count = fallback_oracle(want, missing)
    got = values.copy()
    got_count = _fallback_fill(got, missing, *np.nonzero(missing))
    assert got_count == want_count
    assert got.tobytes() == want.tobytes()


@settings(max_examples=120, deadline=None)
@given(case=masked_images(), edges=st.booleans(), predicted=st.booleans())
def test_fallback_matches_whole_image_oracle(case, edges, predicted):
    image, mask = case
    values = np.floor(image.data)
    missing = mask.degraded.copy()
    if edges:
        missing[-1, :] = True
        missing[:, -1] = True
    if predicted:
        # Known pixels then include non-integer predictor output.
        values, filled = run_pass(values, missing)
        missing &= ~filled
    _check_fallback(values, missing)


@pytest.mark.parametrize("channels", [1, 3])
def test_fallback_matches_oracle_out_of_reach(channels):
    # One known pixel in the far corner of a 40x40 hole: past the window
    # limit the value is 128; the bottom row and right column are holes.
    values = np.random.default_rng(21).uniform(0.0, 255.0, (40, 40, channels))
    missing = np.ones((40, 40), bool)
    missing[0, 0] = False
    _check_fallback(values, missing)
    _check_fallback(values, np.ones((40, 40), bool))


def test_engine_config_validation():
    # The pass cap is a count: a float such as 1.5 or 2.0 is rejected,
    # not rounded up by the pass loop's comparison.
    for bad in (0, -1, 1.5, 2.0, "2", None, True):
        with pytest.raises(ValueError, match="max_passes"):
            EngineConfig(max_passes=bad)
    image, mask = creeping_band()
    assert inpaint_report(image, mask, EngineConfig(max_passes=np.int64(3))).passes == 3
