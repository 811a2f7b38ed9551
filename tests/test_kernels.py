"""Kernel-level tests of the route that oracle.predict_pixel takes:
the line predictor, the hyperbolic selections (vertical_selection and
horizontal_selection) and the Keys midpoint upsampling whose center
upsample_center reads. Derived values are checked against independent
oracles (direct convolution, hand enumeration, exact cubics); the line
predictor's Vandermonde fit and the surface centers' closed form are
acceptance criteria 1 and 2."""

import numpy as np
import pytest

from linemend import predict_line_center
from linemend.kernels import NEIGHBOR_OFFSETS, STEPS

from oracle import (
    MIDPOINT_WEIGHTS,
    cubic_conv_weight,
    horizontal_selection,
    midpoint_upsample,
    upsample_center,
    vertical_selection,
)

OFFS = np.array([-2.0, -1.0, 1.0, 2.0])


def direct_midpoint_upsample(matrix):
    """Independent oracle: per-output-sample kernel sums with edge
    replication, no separable shortcuts."""
    a = np.atleast_2d(np.asarray(matrix, float))
    m, n = a.shape

    def up_1d(vec):
        k = len(vec)
        out = np.empty(2 * k - 1)
        for i in range(2 * k - 1):
            if i % 2 == 0:
                out[i] = vec[i // 2]
            else:
                j = i // 2
                s = 0.0
                for src, dist in ((j - 1, 1.5), (j, 0.5), (j + 1, 0.5), (j + 2, 1.5)):
                    s += cubic_conv_weight(dist) * vec[min(max(src, 0), k - 1)]
                out[i] = s
        return out

    rows_done = np.array([up_1d(a[i]) for i in range(m)])
    return np.array([up_1d(rows_done[:, j]) for j in range(rows_done.shape[1])]).T


# ---------------------------------------------------------------- kernel


def test_cubic_conv_weight_values():
    assert cubic_conv_weight(0.0) == 1.0
    assert cubic_conv_weight(1.0) == 0.0
    assert cubic_conv_weight(0.5) == 0.5625
    assert cubic_conv_weight(1.5) == -0.0625
    assert cubic_conv_weight(2.0) == 0.0
    assert cubic_conv_weight(3.7) == 0.0
    assert np.array_equal(MIDPOINT_WEIGHTS, np.array([-1.0, 9.0, 9.0, -1.0]) / 16.0)


def test_cubic_conv_weight_partition_of_unity():
    # Interpolating kernels resample constants exactly: the four weights
    # covering any phase sum to 1.
    for d in np.linspace(0.0, 1.0, 23):
        total = (
            cubic_conv_weight(1.0 + d)
            + cubic_conv_weight(d)
            + cubic_conv_weight(1.0 - d)
            + cubic_conv_weight(2.0 - d)
        )
        assert abs(total - 1.0) < 1e-14


def test_cubic_conv_weight_continuity():
    eps = 1e-9
    assert abs(cubic_conv_weight(1.0 - eps) - cubic_conv_weight(1.0 + eps)) < 1e-7
    assert abs(cubic_conv_weight(2.0 - eps)) < 1e-7


# ------------------------------------------------------ line prediction


def test_line_center_trivial_cases():
    assert predict_line_center([5.0, 5.0, 5.0, 5.0]) == 5.0
    assert predict_line_center([1.0, 2.0, 4.0, 5.0]) == pytest.approx(3.0, abs=1e-14)
    assert predict_line_center([0.0, 0.0, 1.0, 0.0]) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_line_center_reproduces_cubics():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        coef = rng.uniform(-5.0, 5.0, 4)
        poly = np.polynomial.Polynomial(coef)
        got = predict_line_center(poly(OFFS))
        want = poly(0.0)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_line_center_symmetries():
    rng = np.random.default_rng(5)
    for _ in range(200):
        v = rng.uniform(0.0, 255.0, 4)
        alpha, beta = rng.uniform(-2.0, 2.0), rng.uniform(-50.0, 50.0)
        assert predict_line_center(v[::-1]) == pytest.approx(predict_line_center(v), abs=1e-12)
        assert predict_line_center(alpha * v + beta) == pytest.approx(
            alpha * predict_line_center(v) + beta, abs=1e-9
        )


def test_line_center_rejects_bad_input():
    with pytest.raises(ValueError):
        predict_line_center([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        predict_line_center([1.0, np.nan, 3.0, 4.0])


# -------------------------------------------------- hyperbolic selection


def test_hyperbolic_constant_neighborhood():
    values = {off: 7.0 for off in NEIGHBOR_OFFSETS}
    vertical, horizontal = vertical_selection(values), horizontal_selection(values)
    assert np.all(vertical == 7.0) and vertical.shape == (4, 3)
    assert np.all(horizontal == 7.0) and horizontal.shape == (3, 4)


def test_hyperbolic_rows_read_row_offsets():
    values = {(dr, dc): float(dr) for (dr, dc) in NEIGHBOR_OFFSETS}
    assert np.array_equal(vertical_selection(values), np.array([[-2.0] * 3, [-1.0] * 3, [1.0] * 3, [2.0] * 3]))


def test_hyperbolic_sentinel_membership():
    # Hand enumeration of the two 12-pixel selections.
    values = {off: float(i + 1) for i, off in enumerate(NEIGHBOR_OFFSETS)}
    vertical, horizontal = vertical_selection(values), horizontal_selection(values)
    vert_expected = np.array(
        [
            [values[(-2, -2)], values[(-2, 0)], values[(-2, 2)]],
            [values[(-1, -1)], values[(-1, 0)], values[(-1, 1)]],
            [values[(1, -1)], values[(1, 0)], values[(1, 1)]],
            [values[(2, -2)], values[(2, 0)], values[(2, 2)]],
        ]
    )
    horz_expected = np.array(
        [
            [values[(-2, -2)], values[(-1, -1)], values[(-1, 1)], values[(-2, 2)]],
            [values[(0, -2)], values[(0, -1)], values[(0, 1)], values[(0, 2)]],
            [values[(2, -2)], values[(1, -1)], values[(1, 1)], values[(2, 2)]],
        ]
    )
    assert np.array_equal(vertical, vert_expected)
    assert np.array_equal(horizontal, horz_expected)
    # middle column / middle row are the axis lines
    assert list(vertical[:, 1]) == [values[(t, 0)] for t in STEPS]
    assert list(horizontal[1, :]) == [values[(0, t)] for t in STEPS]


def test_hyperbolic_missing_pixel_signals_unavailable():
    values = {off: 1.0 for off in NEIGHBOR_OFFSETS}
    del values[(2, 2)]
    assert vertical_selection(values) is None
    # horizontal selection also uses (2, 2) (it holds all 8 diagonals)
    assert horizontal_selection(values) is None
    del values[(0, 1)]
    assert horizontal_selection(values) is None


# ------------------------------------------------------------ upsampling


def test_upsample_all_ones():
    out = midpoint_upsample(np.ones((4, 3)))
    assert out.shape == (7, 5)
    assert np.allclose(out, 1.0, atol=1e-15)


def test_upsample_1d_column_frozen_values():
    got = midpoint_upsample(np.array([1.0, 2.0, 3.0, 4.0]))
    want = [1.0, 1.4375, 2.0, 2.5, 3.0, 3.5625, 4.0]
    assert np.array_equal(got, np.array(want))


def test_upsample_originals_untouched():
    rng = np.random.default_rng(17)
    a = rng.uniform(0.0, 255.0, (5, 4))
    out = midpoint_upsample(a)
    assert np.array_equal(out[0::2, 0::2], a)


def test_upsample_matches_direct_oracle():
    rng = np.random.default_rng(23)
    for shape in ((4, 3), (3, 4), (2, 2), (6, 5)):
        a = rng.uniform(-10.0, 265.0, shape)
        got = midpoint_upsample(a)
        want = direct_midpoint_upsample(a)
        assert got.shape == (2 * shape[0] - 1, 2 * shape[1] - 1)
        assert np.max(np.abs(got - want)) <= 1e-12


def test_upsample_separability_order_independent():
    from oracle import _upsample_along_axis

    rng = np.random.default_rng(31)
    for _ in range(50):
        a = rng.uniform(0.0, 255.0, (4, 3))
        row_col = _upsample_along_axis(_upsample_along_axis(a, 0), 1)
        col_row = _upsample_along_axis(_upsample_along_axis(a, 1), 0)
        assert np.max(np.abs(row_col - col_row)) <= 1e-12


def test_upsample_linear_midpoints_are_averages():
    ramp = np.arange(10.0, 70.0, 10.0)  # linear data
    out = midpoint_upsample(ramp)
    mids = out[1::2]
    # interior midpoints of linear data are exact pair averages
    assert np.allclose(mids[1:-1], (ramp[1:-2] + ramp[2:-1]) / 2.0, atol=1e-12)


def test_upsample_shape_errors():
    with pytest.raises(ValueError):
        midpoint_upsample(np.ones((1, 5)))
    with pytest.raises(ValueError):
        midpoint_upsample(np.ones((5, 1)))
    with pytest.raises(ValueError):
        midpoint_upsample(np.array([3.0]))
    with pytest.raises(ValueError):
        midpoint_upsample(np.ones((2, 2, 2)))


# ------------------------------------------------------ surface centers


def test_2d_center_constant():
    values = {off: 42.0 for off in NEIGHBOR_OFFSETS}
    assert upsample_center(vertical_selection(values)) == upsample_center(horizontal_selection(values)) == 42.0


def test_2d_center_middle_column_example():
    rng = np.random.default_rng(1)
    vert = rng.uniform(0.0, 255.0, (4, 3))
    vert[:, 1] = [1.0, 2.0, 4.0, 5.0]
    assert upsample_center(vert) == pytest.approx(3.0, abs=1e-12)  # (-1+18+36-5)/16

