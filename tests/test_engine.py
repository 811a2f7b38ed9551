"""Engine tests: the per-pixel contracts of the reference in oracle.py,
the vectorized pass against it (its filled set against the lines that
the reference's gathering finds complete), pass scheduling, the fallback
against a whole-image oracle, and whole-run invariants."""

import hashlib
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

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
    apply_mask,
    generate_line_mask,
    inpaint,
    inpaint_report,
    psnr,
    run_pass,
    ssim,
)
from linemend import engine
from linemend.engine import _cells, _fallback_fill, _jacobi_rounds
from linemend.kernels import NEIGHBOR_OFFSETS

from conftest import natural_image
from oracle import gather_neighborhood, predict_pixel, replace_most_deviant


def affine_image(height, width, a=0.5, b=0.8, d=20.0, channels=1):
    r, c = np.meshgrid(np.arange(height, dtype=float), np.arange(width, dtype=float), indexing="ij")
    plane = a * r + b * c + d
    return Image(np.repeat(plane[:, :, None], channels, axis=2))


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


def test_run_pass_accepts_2d_state():
    img = affine_image(9, 9)
    missing = np.zeros((9, 9), bool)
    missing[4, 4] = True
    new_values, filled = run_pass(img.data[:, :, 0], missing)
    assert new_values.shape == (9, 9) and filled[4, 4]
    assert new_values[4, 4] == pytest.approx(img.data[4, 4, 0], abs=1e-9)


def test_run_pass_empty_missing_is_identity():
    img = affine_image(6, 6)
    new_values, filled = run_pass(img.data, np.zeros((6, 6), bool), workers=2)
    assert not filled.any()
    assert np.array_equal(new_values, img.data)
    assert new_values is not img.data


def test_fill_round_zero_holes():
    # Round 1 fills the lone hole and nothing of the 3-wide band, which is
    # more than 2 rows from it, so round 2 has no candidate hole at all.
    values = affine_image(12, 12, channels=3).data.copy()
    band = np.zeros((12, 12), bool)
    band[7:10] = True
    missing = band.copy()
    missing[2, 3] = True
    values[missing] = 0.0
    after_one = values.copy()
    _jacobi_rounds(after_one, missing, 1)
    fill_counts, state, holes = _jacobi_rounds(values, missing, 64)
    assert fill_counts == [1, 0]
    assert np.array_equal(residual_holes(state, holes, missing), band)
    assert values.tobytes() == after_one.tobytes()


def test_fill_round_reads_only_known_pixels():
    # Masked pixels hold +-inf. A round that read any still-missing one,
    # even for a slot it then discarded, would raise under
    # errstate(all="raise"). Chunks of 3 candidate holes put chunk edges
    # all over the round.
    rng = np.random.default_rng(21)
    height, width = 16, 18
    missing = rng.random((height, width)) < 0.3
    missing[0, ::3] = True
    missing[::4, -1] = True
    known = rng.uniform(0.0, 255.0, (height, width, 2))
    placeholders = np.where(rng.random((int(missing.sum()), 1)) < 0.5, np.inf, -np.inf)
    for chunk in (engine._ROUND_CHUNK, 3):
        values = known.copy()
        values[missing] = placeholders
        with mock.patch.object(engine, "_ROUND_CHUNK", chunk), np.errstate(all="raise"):
            fill_counts, state, holes = _jacobi_rounds(values, missing, 64)
        residual = residual_holes(state, holes, missing)

        # The same rounds over finite placeholders commit the same values.
        expected = known.copy()
        expected[missing] = 0.0
        assert _jacobi_rounds(expected, missing, 64)[0] == fill_counts
        filled = missing & ~residual
        assert len(fill_counts) > 1 and filled.any()
        assert filled[0].any() and filled[:, -1].any()  # first row, last column
        assert np.isfinite(values[filled]).all()
        assert values[filled].tobytes() == expected[filled].tobytes()
        assert np.isinf(values[residual]).all()
        assert values[~missing].tobytes() == known[~missing].tobytes()


@settings(max_examples=60, deadline=None)
@example(height=3, width=2, channels=3, density=0.5, seed=0)
@given(
    height=st.integers(1, 24),
    width=st.integers(1, 24),
    channels=st.sampled_from([1, 3]),
    density=st.floats(0.05, 0.9),
    seed=st.integers(0, 2**32 - 1),
)
def test_chunked_rounds_match_one_chunk(height, width, channels, density, seed):
    rng = np.random.default_rng(seed)
    missing = rng.random((height, width)) < density
    values = rng.uniform(0.0, 255.0, (height, width, channels))
    assert_chunk_size_is_invisible(values, missing)


def residual_holes(state, holes, missing):
    """The residual holes of the state grid and hole list that
    _jacobi_rounds returned for the missing set ``missing``, as a mask,
    after checking the layout that _fallback_fill relies on: a border of
    2 as wide as the reach, an interior of 1 exactly at the residual
    holes, all of them in ``missing``, and 0 elsewhere, and ``holes``
    their flat indices in row-major order, which _cells maps to the
    image's."""
    reach = engine._FALLBACK_REACH
    interior = state[reach:-reach, reach:-reach]
    residual = interior == 1
    assert state.dtype == np.int8
    assert np.array_equal(np.pad(interior, reach, constant_values=2), state)
    assert np.array_equal(interior, residual) and not (residual & ~missing).any()
    assert (np.diff(holes) > 0).all()
    assert np.array_equal(_cells(holes, missing.shape[1]), np.flatnonzero(residual))
    return residual


def assert_chunk_size_is_invisible(values, missing):
    """A round reads only pixels known before it, so committing each chunk
    before the next changes neither a value's bytes nor the round it is
    filled in, whatever the chunk size; nor does the number of slices its
    near-fill flags are set in."""
    want = values.copy()
    fill_counts, state, holes = _jacobi_rounds(want, missing, 64)
    residual = residual_holes(state, holes, missing)
    assert sum(fill_counts) + residual.sum() == missing.sum()
    for chunk in (1, 5, 64):
        got = values.copy()
        with mock.patch.object(engine, "_ROUND_CHUNK", chunk):
            result = _jacobi_rounds(got, missing, 64)
        assert got.tobytes() == want.tobytes()
        assert result[0] == fill_counts
        assert np.array_equal(result[1], state)
        assert np.array_equal(result[2], holes)


def test_jacobi_rounds_peak_on_sparse_holes():
    # 10% i.i.d. holes on 512x512 gray: 26 thousand candidate holes in the
    # first round, predicted in chunks of 4096, so the rounds add about
    # 1.30 MB to the 2.1 MB image. Round 1 fills all but 515 holes, so
    # round 2 re-checks those without a flag grid.
    values = natural_image().data.copy()
    missing = np.random.default_rng(0).random((512, 512)) < 0.1
    tracemalloc.start()
    try:
        _jacobi_rounds(values, missing, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.7e6


def test_jacobi_rounds_peak_does_not_stack():
    # 50% i.i.d. holes on 512x512 take 51 rounds. Each round's arrays are
    # freed before the next one runs, so the peak is one round's, not a
    # sum over rounds, and a round's temporaries are one chunk's: about
    # 3.37 MB.
    values = natural_image().data.copy()
    missing = np.random.default_rng(1).random((512, 512)) < 0.5
    tracemalloc.start()
    try:
        fill_counts, _, _ = _jacobi_rounds(values, missing, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(fill_counts) == 51
    assert peak < 3.45e6


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
    for bad, message in (np.nan, "finite"), (np.inf, "finite"), (1 + 0j, "real"):
        with pytest.raises(ValueError, match=message):
            run_pass(np.full((8, 8), bad), missing)


def test_run_pass_three_wide_band_fills_nothing():
    # A full-height 3-wide vertical band: every line of every band pixel
    # crosses the band or runs along it, so no predictor is available.
    img = affine_image(16, 16)
    missing = np.zeros((16, 16), bool)
    missing[:, 6:9] = True
    _, filled = run_pass(img.data, missing)
    assert not filled.any()
    # the engine then falls through to the fallback
    report = inpaint_report(img, Mask(missing))
    assert report.predictor_filled == 0
    assert report.fallback_filled == int(missing.sum())


def test_run_pass_filled_set_matches_brute_oracle():
    # A hole is filled exactly when one of its four lines has all four
    # pixels in bounds and known, read from the oracle's gathering.
    rng = np.random.default_rng(8)
    for _ in range(20):
        missing = rng.random((14, 14)) < 0.35
        values = rng.uniform(0.0, 255.0, (14, 14))
        _, filled = run_pass(values, missing)
        for r, c in np.ndindex(14, 14):
            lines = gather_neighborhood(values, missing, (r, c)).available.reshape(4, 4)
            assert filled[r, c] == (missing[r, c] and lines.all(axis=1).any())


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


def line_pattern_case():
    """A 125x125x3 state of 5x5 tiles, each with a hole at its centre.
    Each of the hole's four lines is complete or broken at one of its
    four taps, so the tiles hold all 5**4 = 625 line-completeness
    patterns. Values are uniform in [-40, 300], so the clamp acts."""
    values = np.random.default_rng(625).uniform(-40.0, 300.0, (125, 125, 3))
    missing = np.zeros((125, 125), bool)
    for i, pattern in enumerate(np.ndindex((5,) * 4)):
        r, c = 5 * (i // 25) + 2, 5 * (i % 25) + 2
        missing[r, c] = True
        for d, broken in enumerate(pattern):  # 0: complete; k > 0: tap k - 1 missing
            if broken:
                dr, dc = NEIGHBOR_OFFSETS[4 * d + broken - 1]
                missing[r + dr, c + dc] = True
    return values, missing


@settings(max_examples=300, deadline=None)
@given(case=pass_cases())
@example(case=line_pattern_case())
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


def test_run_pass_outlier_tie_break():
    # One hole at the centre of a 9x9 image whose four lines are constant,
    # per channel (horizontal, vertical, main diagonal, anti-diagonal).
    # The surfaces read the vertical and the horizontal taps.
    lines = [(0, 0, 6, 6), (3, 0, 6, 3), (3, 9, 5, 30)]
    expected = [
        (4 + 0 + 6 + 6 + 0 + 0) / 6,  # mean 3, four-way tie: horizontal 0 -> 4
        (3 + 4 + 6 + 3 + 0 + 3) / 6,  # mean 3, vertical and main diagonal tie: vertical 0 -> 4
        (3 + 9 + 5 + (47 - 30) / 3 + 9 + 3) / 6,  # no tie: anti-diagonal 30 -> 17/3
    ]
    values = np.full((9, 9, len(lines)), 200.0)
    for ch, line_values in enumerate(lines):
        for i, (dr, dc) in enumerate(NEIGHBOR_OFFSETS):
            values[4 + dr, 4 + dc, ch] = line_values[i // 4]
    missing = np.zeros((9, 9), bool)
    missing[4, 4] = True
    new_values, filled = run_pass(values, missing)
    assert filled[4, 4]
    for ch, want in enumerate(expected):
        assert new_values[4, 4, ch] == want
        assert predict_pixel(gather_neighborhood(values, missing, (4, 4), ch)) == want


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


def assert_fallback_close(got, want, before, residual):
    """The fallback's output ``got`` against the oracle's ``want``, both
    made from ``before`` with the holes ``residual`` left. Off the holes,
    and at holes with no known pixel within reach (128), they are equal.
    At the other holes they are within tau = 8 (H + W + 1) eps max|x| H W,
    x over the known pixels: to first order, the most by which two
    four-corner differences of sums built by at most H + W chained
    additions can differ. The window sizes, from exact counts, agree."""
    height, width, _ = before.shape
    known = ~residual
    assert got[known].tobytes() == want[known].tobytes()
    count_int = _integral_oracle(known.astype(np.float64))
    rows, cols = np.nonzero(residual)
    r0, r1 = np.maximum(rows - 10, 0), np.minimum(rows + 11, height)
    c0, c1 = np.maximum(cols - 10, 0), np.minimum(cols + 11, width)
    out_of_reach = count_int[r1, c1] - count_int[r0, c1] - count_int[r1, c0] + count_int[r0, c0] == 0
    assert (got[rows[out_of_reach], cols[out_of_reach]] == 128.0).all()
    assert (want[rows[out_of_reach], cols[out_of_reach]] == 128.0).all()
    tau = 8 * (height + width + 1) * np.finfo(np.float64).eps * np.abs(before[known]).max(initial=0.0) * height * width
    assert np.abs(got[residual] - want[residual]).max(initial=0.0) <= tau


def reference_rounds(image, mask, config, workers):
    """inpaint_report's rounds, spelled out as a loop over the public
    run_pass: full rounds until one fills nothing, no hole remains or the
    pass cap is reached. Returns the values, the residual holes and the
    fill counts."""
    values = image.data.copy()
    missing = mask.degraded.copy()
    fills = []
    while missing.any() and len(fills) < config.max_passes:
        values, filled = run_pass(values, missing, config, workers=workers)
        fills.append(int(filled.sum()))
        if fills[-1] == 0:
            break
        missing &= ~filled
    return values, missing, tuple(fills)


def reference_report(image, mask, config, workers):
    """inpaint_report's contract: reference_rounds, then the fallback."""
    values, missing, fills = reference_rounds(image, mask, config, workers)
    fallback = fallback_oracle(values, missing)
    return values, fills, fallback


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


def switching_band():
    """creeping_band's kind of scratch under 10% i.i.d. holes on 24x48: 201
    holes, filled 111, 8, 16, 16, 16, 12, 12, 0 by round. Round 1 fills
    more holes than remain, so round 2 re-checks every remaining one;
    rounds 3-7 creep along the band through the near-fill flags, and
    round 7's 12 leave 10, so round 8 re-checks every remaining hole."""
    values = np.random.default_rng(1).uniform(0.0, 255.0, (24, 48, 1))
    band = generate_line_mask(48, 24, LineSpec(count=1, width=2, seed=2)).degraded
    return Image(values), Mask(band | (np.random.default_rng(124).random((24, 48)) < 0.1))


@pytest.mark.parametrize("case", [creeping_band, switching_band])
def test_chunked_rounds_match_one_chunk_on_bands(case):
    # Width-2 scratches, as in the scratch workload: chunks of 1 and 5 send
    # flagged rounds through several flag slices, and through chunks with
    # and without a hole whose four lines are all complete.
    image, mask = case()
    assert_chunk_size_is_invisible(image.data, mask.degraded)


def test_creeping_band_hits_low_pass_cap():
    image, mask = creeping_band()
    _, fills, fallback = reference_report(image, mask, EngineConfig(max_passes=8), workers=1)
    assert len(fills) == 8 and min(fills) > 0
    assert fallback > 0


@settings(max_examples=80, deadline=None)
@example(case=creeping_band(), max_passes=8, workers=2)
@example(case=switching_band(), max_passes=64, workers=1)
@given(case=masked_images(), max_passes=st.sampled_from([1, 2, 64]), workers=st.sampled_from([1, 2]))
def test_inpaint_report_matches_run_pass_loop(case, max_passes, workers):
    image, mask = case
    config = EngineConfig(max_passes=max_passes)
    before, residual, fills = reference_rounds(image, mask, config, workers)
    values = before.copy()
    fallback = fallback_oracle(values, residual)
    report = inpaint_report(image, mask, config, workers=workers)
    assert_fallback_close(report.image.data, values, before, residual)
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


def test_library_outputs_are_not_scanned_again():
    # inpaint_report and apply_mask make finite float64 samples
    # themselves, so they wrap them without Image's checks.
    rng = np.random.default_rng(13)
    image = Image(rng.uniform(0.0, 255.0, (40, 40, 3)))
    mask = Mask(rng.random((40, 40)) < 0.4)
    expected = [apply_mask(image, mask).data, inpaint_report(image, mask).image.data]
    with mock.patch.object(Image, "__post_init__", side_effect=AssertionError):
        results = [apply_mask(image, mask).data, inpaint_report(image, mask).image.data]
    for got, want in zip(results, expected):
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert np.array_equal(got, want)


def test_inpaint_empty_mask_identity():
    rng = np.random.default_rng(4)
    img = Image(rng.uniform(0.0, 255.0, (12, 12, 3)))
    out = inpaint(img, Mask(np.zeros((12, 12), bool)))
    assert np.array_equal(out.data, img.data)


def test_run_pass_without_known_pixels_fills_nothing():
    values = np.random.default_rng(8).uniform(0.0, 255.0, (7, 9, 3))
    new_values, filled = run_pass(values, np.ones((7, 9), bool))
    assert not filled.any()
    assert new_values.tobytes() == values.tobytes()


def test_inpaint_fully_masked_runs_no_round():
    # With no known pixel no slot is ever available, so the round of 0 is
    # reported without being run, and no state grid or hole list is built:
    # the peak is the 6.3 MB image of 128s. Running the rounds and the
    # fallback over that grid and list would take it to 19.4 MB.
    image = Image(np.random.default_rng(9).uniform(0.0, 255.0, (512, 512, 3)))
    mask = Mask(np.ones((512, 512), bool))
    tracemalloc.start()
    try:
        report = inpaint_report(image, mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.pass_fill_counts == (0,)
    assert report.fallback_filled == 512 * 512
    assert np.all(report.image.data == 128.0)
    assert peak < 6.5e6


@pytest.mark.parametrize("shape", [(40, 48), (40, 48, 3)])
def test_array_layout_does_not_change_results(shape):
    # The engine reads its own C-ordered copy as flat pixels, so inputs
    # in Fortran order or with a negative stride give the same bytes.
    rng = np.random.default_rng(17)
    data = rng.uniform(0.0, 255.0, shape)
    missing = rng.random(shape[:2]) < 0.2
    missing[20:27] = True  # 7 rows deep: the fallback fills its middle

    def layouts(a):
        return [np.ascontiguousarray(a), np.asfortranarray(a), np.ascontiguousarray(a[:, ::-1])[:, ::-1]]

    results = []
    for values, degraded in zip(layouts(data), layouts(missing)):
        assert np.array_equal(values, data) and np.array_equal(degraded, missing)
        image, mask = Image(values), Mask(degraded)
        report = inpaint_report(image, mask)
        restored = report.image
        new_values, filled = run_pass(values, degraded)
        results.append((
            restored.data.tobytes(), report.pass_fill_counts, report.fallback_filled,
            new_values.tobytes(), filled.tobytes(), apply_mask(image, mask).data.tobytes(),
            psnr(image, restored), ssim(image, restored),
        ))
    assert results[0][2] > 0
    assert results[1] == results[0] and results[2] == results[0]


def test_inpaint_single_pixel_image():
    out = inpaint(Image(np.array([[42.0]])), Mask(np.array([[True]])))
    assert out.data[0, 0, 0] == 128.0


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


def fallback_fill(values, missing):
    """_fallback_fill over the residual holes ``missing``, in the state
    grid and hole list that _jacobi_rounds builds for them when it runs
    no round. Mutates ``values``; returns the number of holes."""
    _, state, holes = _jacobi_rounds(values, missing, 0)
    _fallback_fill(values, state, holes)
    return holes.size


def _check_fallback(values, missing):
    # Within tau of the oracle, and the same bytes with one hole per chunk.
    want = values.copy()
    want_count = fallback_oracle(want, missing)
    got = values.copy()
    assert fallback_fill(got, missing) == want_count
    assert_fallback_close(got, want, values, missing)
    smallest = values.copy()
    with mock.patch.object(engine, "_ROUND_CHUNK", 1):
        fallback_fill(smallest, missing)
    assert smallest.tobytes() == got.tobytes()


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


@st.composite
def sparse_hole_rows(draw):
    """Holes in 1-3 rows of a tall grid, often the first or last row, and
    mostly too far apart for one window to reach two of them."""
    height = draw(st.integers(40, 160))
    width = draw(st.integers(1, 24))
    channels = draw(st.sampled_from([1, 3]))
    row = st.sampled_from([0, height - 1]) | st.integers(0, height - 1)
    hole_rows = draw(st.lists(row, min_size=1, max_size=3, unique=True))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    missing = np.zeros((height, width), bool)
    for r in hole_rows:
        missing[r] = rng.random(width) < draw(st.floats(0.2, 1.0))
    values = rng.uniform(0.0, 255.0, (height, width, channels))
    return values, missing


def first_and_last_rows():
    values = np.random.default_rng(24).uniform(0.0, 255.0, (60, 5, 3))
    missing = np.zeros((60, 5), bool)
    missing[[0, -1]] = True
    return values, missing


@settings(max_examples=120, deadline=None)
@example(case=first_and_last_rows())
@given(case=sparse_hole_rows())
def test_fallback_matches_oracle_on_sparse_hole_rows(case):
    _check_fallback(*case)


@st.composite
def tall_sparse_holes(draw):
    """Few holes over the rows of a tall grid, sometimes with a narrow
    vertical band whose holes find known pixels only at a larger
    half-width, on the left or right side of their ring."""
    height = draw(st.integers(44, 200))
    width = draw(st.integers(8, 48))
    channels = draw(st.sampled_from([1, 3]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    missing = rng.random((height, width)) < draw(st.floats(0.003, 0.05))
    if draw(st.booleans()):
        top = draw(st.integers(0, height - 1))
        left = draw(st.integers(0, width - 1))
        missing[top : top + draw(st.integers(1, height)), left : left + draw(st.integers(1, 7))] = True
    values = rng.uniform(0.0, 255.0, (height, width, channels))
    return values, missing


def tall_band_beside_sparse_holes():
    values = np.random.default_rng(26).uniform(0.0, 255.0, (200, 40, 3))
    missing = np.zeros((200, 40), bool)
    missing[30:171, 10:15] = True
    missing[::9, 33] = True
    return values, missing


def widest_window():
    # The 19 x 19 block's centre hole (29, 30) first meets known pixels at
    # half-width 10, the reach, on all four sides of its 80-pixel ring,
    # after every other hole of the block has been filled on an earlier
    # ring; the holes of column 90 are filled at half-width 1.
    values = np.random.default_rng(27).uniform(0.0, 255.0, (80, 100, 3))
    missing = np.zeros((80, 100), bool)
    missing[20:39, 21:40] = True
    missing[:, 90] = True
    return values, missing


def widest_window_lower():
    # The same block two rows lower: the ring of its centre hole (31, 30)
    # at half-width 10 runs along rows 21 and 41, just outside the block.
    values = np.random.default_rng(32).uniform(0.0, 255.0, (80, 100, 3))
    missing = np.zeros((80, 100), bool)
    missing[22:41, 21:40] = True
    missing[:, 90] = True
    return values, missing


def clipped_windows():
    # Deep holes at the top and bottom rows: their rings run off the
    # image, where the clipped taps read other pixels that the grid's
    # known flags zero.
    values = np.random.default_rng(28).uniform(0.0, 255.0, (90, 40, 3))
    missing = np.zeros((90, 40), bool)
    missing[:14, 4:26] = True
    missing[-14:, 12:34] = True
    missing[::7, 37] = True
    return values, missing


@settings(max_examples=120, deadline=None)
@example(case=tall_band_beside_sparse_holes())
@example(case=widest_window())
@example(case=widest_window_lower())
@example(case=clipped_windows())
@given(case=tall_sparse_holes())
def test_fallback_matches_oracle_on_tall_sparse_holes_and_widest_rings(case):
    _check_fallback(*case)


@pytest.mark.parametrize("channels", [1, 3])
def test_fallback_means_are_clamped(channels):
    # Known values in [-40, 300] give window means outside [0, 255]; each
    # is clamped where the hole is written, with the default chunks and
    # with one hole per chunk.
    rng = np.random.default_rng(33)
    values = rng.uniform(-40.0, 300.0, (48, 40, channels))
    missing = rng.random((48, 40)) < 0.6
    missing[20:30, 5:30] = True
    for chunk in (engine._ROUND_CHUNK, 1):
        with mock.patch.object(engine, "_ROUND_CHUNK", chunk):
            _check_fallback(values, missing)


@pytest.mark.parametrize("channels", [1, 3])
def test_fallback_ignores_residual_hole_contents(channels):
    # A residual hole's stored value never reaches a window sum: holes
    # holding 0, -0.0, a negative number or 1e300 give the same bytes,
    # with the default chunks and with one hole per chunk. Rows 20-29 are
    # all holes, so holes filled at one half-width lie on the rings read
    # at later ones, and a filled value read as known would show here.
    rng = np.random.default_rng(22)
    values = rng.uniform(0.0, 255.0, (48, 40, channels))
    missing = rng.random((48, 40)) < 0.4
    missing[20:30] = True
    want = values.copy()
    fallback_oracle(want, missing)
    results = []
    for chunk in (engine._ROUND_CHUNK, 1):
        with mock.patch.object(engine, "_ROUND_CHUNK", chunk):
            for stored in (0.0, -0.0, -7.5, 1e300):
                got = values.copy()
                got[missing] = stored
                fallback_fill(got, missing)
                results.append(got)
    assert all(got.tobytes() == results[0].tobytes() for got in results)
    assert_fallback_close(results[0], want, values, missing)


@pytest.fixture(scope="module")
def rgb1024():
    return Image(np.concatenate([natural_image(1024, 1024, seed=s).data for s in (7, 8, 9)], axis=2))


def _check_fallback_after_rounds(image, mask):
    values = image.data.copy()
    _, state, holes = _jacobi_rounds(values, mask.degraded, EngineConfig().max_passes)
    missing = residual_holes(state, holes, mask.degraded)
    assert missing.any()
    _check_fallback(values, missing)


@pytest.mark.parametrize("pattern", [0, 6])
def test_fallback_matches_oracle_on_benchmark_scratches(rgb1024, pattern):
    # The scratches span the image, so the residual holes and the rings
    # they read lie in most of its rows and columns.
    mask = generate_line_mask(1024, 1024, LineSpec(count=8, width=2, seed=pattern))
    _check_fallback_after_rounds(apply_mask(rgb1024, mask), mask)


@pytest.mark.parametrize("width", [3, 15])
def test_fallback_matches_oracle_on_wide_bands(width):
    mask = generate_line_mask(512, 512, LineSpec(count=2, width=width, seed=0))
    _check_fallback_after_rounds(apply_mask(natural_image(), mask), mask)


def test_fallback_means_ignore_large_rows_above_the_band():
    # Rows 0-9, or columns 0-9, hold 1e15, far from every hole's window.
    # Sums running down from row 0 or along from column 0 would carry them
    # into every window and round the means by tens of levels; a window's
    # own pixels give the exact window means to within 1e-9.
    rows, columns = np.zeros((2, 64, 64), bool)
    rows[40:45] = True
    columns[:, 40:45] = True
    for far, missing in (np.s_[:10], rows), (np.s_[:, :10], columns):
        values = np.random.default_rng(34).uniform(0.0, 255.0, (64, 64, 1))
        values[far] = 1e15
        got = values.copy()
        fallback_fill(got, missing)
        for r, c in zip(*np.nonzero(missing)):
            for half in range(1, 11):
                window = np.s_[max(r - half, 0) : r + half + 1, max(c - half, 0) : c + half + 1]
                known = ~missing[window]
                if known.any():
                    break
            want = math.fsum(values[window][known, 0]) / known.sum()
            assert abs(got[r, c, 0] - want) <= 1e-9


def test_fallback_means_of_integer_windows_are_exact():
    # A window whose known pixels are all integers has an exact sum, so
    # its mean is the correctly rounded quotient, and a mean of exactly
    # x.5 is saved as x + 1 whatever the order of addition. The holes10
    # benchmark masks of seed 0 have 875 such windows, 83 with a .5 mean.
    clean = natural_image()
    rng = np.random.default_rng(0)
    checked = 0
    for _ in range(8):
        missing = rng.random((512, 512)) < 0.10
        values = apply_mask(clean, Mask(missing)).data.copy()
        _, state, holes = _jacobi_rounds(values, missing, EngineConfig().max_passes)
        residual = residual_holes(state, holes, missing)
        before = values.copy()
        _fallback_fill(values, state, holes)
        for r, c in zip(*np.nonzero(residual)):
            for half in range(1, 11):
                window = np.s_[max(r - half, 0) : r + half + 1, max(c - half, 0) : c + half + 1]
                known = ~residual[window]
                if known.any():
                    break
            taps = before[window][known, 0]
            if (taps == np.floor(taps)).all():
                checked += 1
                assert values[r, c, 0] == float(Fraction(int(taps.sum()), int(known.sum())))
    assert checked == 875


def test_inpaint_reads_no_row_far_from_the_holes():
    # The rounds read 2 rows around a hole and the fallback's rings at most
    # 10, so rows more than 11 from every hole, here scaled to values
    # that would change the rounding of any sum through them, do not
    # change a byte of the other rows' output.
    rng = np.random.default_rng(35)
    data = rng.uniform(0.0, 255.0, (96, 48, 3))
    missing = np.zeros((96, 48), bool)
    missing[50:56] = True  # 6 rows deep: only the fallback fills it
    missing[60, ::5] = True
    far = np.abs(np.arange(96)[:, None] - np.flatnonzero(missing.any(axis=1))).min(axis=1) > 11
    changed = data.copy()
    changed[far] *= 1e9
    report = inpaint_report(Image(data), Mask(missing))
    assert report.fallback_filled > 0
    restored = inpaint_report(Image(changed), Mask(missing)).image.data
    assert restored[~far].tobytes() == report.image.data[~far].tobytes()


@pytest.mark.parametrize(
    "seed, channels, hole_rows, whole_rows, bound",
    [
        pytest.param(23, 3, np.s_[-3:], True, 4e6, id="last_3_rows"),
        pytest.param(25, 3, np.s_[8::16], False, 1.5e6, id="one_hole_every_16th_row"),
        pytest.param(29, 1, np.s_[::4], False, 1.5e6, id="one_hole_every_4th_row_gray"),
        pytest.param(29, 3, np.s_[::4], False, 1.5e6, id="one_hole_every_4th_row_rgb"),
    ],
)
def test_fallback_memory_is_bounded(seed, channels, hole_rows, whole_rows, bound):
    # Holes in the last 3 rows, or one in every 16th or 4th row, of
    # 1024x1024. The traced region builds the 1.1 MB state grid and the
    # hole list, as the rounds would, with no second grid-sized array,
    # and runs the fallback, which adds one chunk of ring taps and the
    # pending holes' indices and flags, nothing that grows with the image.
    # Three whole rows of holes peak near 2.37 MB, the sparse cases near
    # 1.12-1.20 MB.
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 255.0, (1024, 1024, channels))
    missing = np.zeros((1024, 1024), bool)
    rows = np.arange(1024)[hole_rows]
    if whole_rows:
        missing[rows] = True
    else:
        missing[rows, rng.integers(0, 1024, rows.size)] = True
    want = values.copy()
    fallback_oracle(want, missing)
    got = values.copy()
    tracemalloc.start()
    try:
        fallback_fill(got, missing)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound
    assert_fallback_close(got, want, values, missing)


def test_fallback_without_known_pixels_writes_in_place():
    # Every pixel is a hole, so no window holds a known pixel and every
    # one becomes 128 in ``values``. inpaint_report answers this case
    # before the rounds; the fallback's window search gets it right too.
    values = np.random.default_rng(30).uniform(0.0, 255.0, (30, 25, 3))
    missing = np.ones((30, 25), bool)
    assert fallback_fill(values, missing) == 30 * 25
    assert (values == 128.0).all()


def test_engine_config_validation():
    # The pass cap is a count: a float such as 1.5 or 2.0 is rejected,
    # not rounded up by the pass loop's comparison.
    for bad in (0, -1, 1.5, 2.0, "2", None, True):
        with pytest.raises(ValueError, match="max_passes"):
            EngineConfig(max_passes=bad)
    image, mask = creeping_band()
    assert inpaint_report(image, mask, EngineConfig(max_passes=np.int64(3))).passes == 3


def _pinned_image(channels, seed):
    # A bowl plus integer noise: integer arithmetic only, so the same
    # samples on every platform (no sin, cos or BLAS blur to move a
    # rounding).
    r, c = np.mgrid[:128, :128]
    planes = [((r - 64 + 9 * k) ** 2 + (c - 40 - 7 * k) ** 2) // 64 % 192 for k in range(channels)]
    noise = np.random.default_rng(seed).integers(0, 24, (128, 128, channels))
    return Image((np.stack(planes, axis=2) + noise).astype(float))


def _pinned_cases():
    gray, rgb = _pinned_image(1, 50), _pinned_image(3, 51)
    yield "holes10", gray, Mask(np.random.default_rng(52).integers(0, 10, (128, 128)) == 0)
    for width in (1, 2, 3, 7, 15):
        yield f"lines2_width{width}", gray, generate_line_mask(128, 128, LineSpec(count=2, width=width, seed=width))
    yield "rgb_lines8_width2", rgb, generate_line_mask(128, 128, LineSpec(count=8, width=2, seed=53))
    yield "fully_masked", gray, Mask(np.ones((128, 128), bool))


# sha256 of each case's restored float64 bytes, then its pass fill counts
# and fallback total; first 16 hex digits.
_PINNED_DIGESTS = {
    "holes10": "0d922fae944d544e",
    "lines2_width1": "5098418ce347eea8",
    "lines2_width2": "0c71c1d2e5f46db6",
    "lines2_width3": "53939a407c0796aa",
    "lines2_width7": "f01bb1f5c4ca7581",
    "lines2_width15": "9674e499b7c578e4",
    "rgb_lines8_width2": "6dc0211cd3f4cc50",
    "fully_masked": "a43101342cee08c1",
}


def test_default_output_is_pinned():
    """The default engine's output on eight 128x128 cases, byte for byte.

    A change that must not move the output (a refactor, a speed-up) keeps
    these digests; a deliberate change of output updates them and says so
    in CHANGES.md. The fill chunk size must not matter either.
    """
    for chunk in (engine._ROUND_CHUNK, 1):
        got = {}
        with mock.patch.object(engine, "_ROUND_CHUNK", chunk):
            for name, image, mask in _pinned_cases():
                report = inpaint_report(image, mask)
                summary = repr((report.pass_fill_counts, report.fallback_filled)).encode()
                got[name] = hashlib.sha256(report.image.data.tobytes() + summary).hexdigest()[:16]
        assert got == _PINNED_DIGESTS, (chunk, got)
