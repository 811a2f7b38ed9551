"""Test-side reference for the predictor: the paper's construction, per pixel.

This is the scalar route the engine's vectorized pass is checked
against. It gathers one pixel's 16 line pixels with bounds checks,
builds the flared ("hyperbolic") 12-pixel selections, refines them by
separable Keys cubic-convolution midpoint upsampling and reads the
surface centers off the refined grids. A surface's availability here
comes from whether its selection could be built, not from the engine's
availability rule, so agreement between the two is an independent check.

It also holds the scratch rasterizer's reference: Bresenham's
error-term loop, one pixel per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from linemend import Image
from linemend.kernels import NEIGHBOR_OFFSETS, STEPS, predict_line_center


def cubic_conv_weight(distance: float) -> float:
    """Keys cubic-convolution weight (a = -0.5) at the given distance.

    Piecewise cubic with support (-2, 2); interpolating (1 at distance 0,
    0 at other integers). Total function: any finite distance is accepted.
    """
    a = -0.5
    d = abs(float(distance))
    if d <= 1.0:
        return (a + 2.0) * d**3 - (a + 3.0) * d**2 + 1.0
    if d < 2.0:
        return a * d**3 - 5.0 * a * d**2 + 8.0 * a * d - 4.0 * a
    return 0.0


#: Cubic-convolution weights for a midpoint between the two central samples
#: of a four-sample window (distances 1.5, 0.5, 0.5, 1.5). Evaluates to
#: (-1, 9, 9, -1)/16 exactly.
MIDPOINT_WEIGHTS = np.array(
    [cubic_conv_weight(1.5), cubic_conv_weight(0.5), cubic_conv_weight(0.5), cubic_conv_weight(1.5)]
)


def vertical_selection(values: Mapping[tuple[int, int], float]) -> np.ndarray | None:
    """Build the 4x3 vertical-axis matrix, or None if any needed pixel is absent.

    ``values`` maps (row offset, col offset) to intensity. Rows follow
    row offsets (-2, -1, +1, +2); each holds (value at (r, -|r|), value at
    (r, 0), value at (r, +|r|)), so the middle column is the vertical line
    and the outer entries flare along the diagonals.
    """
    try:
        rows = [
            (values[(r, -abs(r))], values[(r, 0)], values[(r, abs(r))])
            for r in STEPS
        ]
    except KeyError:
        return None
    return np.array(rows, dtype=np.float64)


def horizontal_selection(values: Mapping[tuple[int, int], float]) -> np.ndarray | None:
    """Build the 3x4 horizontal-axis matrix, or None if any needed pixel is absent.

    The transpose-analogue of vertical_selection: its middle row is the
    horizontal line.
    """
    try:
        cols = [
            (values[(-abs(c), c)], values[(0, c)], values[(abs(c), c)])
            for c in STEPS
        ]
    except KeyError:
        return None
    return np.array(cols, dtype=np.float64).T


def _upsample_along_axis(arr: np.ndarray, axis: int) -> np.ndarray:
    a = np.moveaxis(arr, axis, 0)
    n = a.shape[0]
    out_shape = (2 * n - 1,) + a.shape[1:]
    out = np.empty(out_shape, dtype=np.float64)
    out[0::2] = a
    # Midpoint between samples i and i+1 weights samples (i-1, i, i+1, i+2)
    # with edge replication for the two border midpoints.
    padded = np.concatenate([a[:1], a, a[-1:]], axis=0)
    w = MIDPOINT_WEIGHTS
    out[1::2] = (
        w[0] * padded[0 : n - 1]
        + w[1] * padded[1:n]
        + w[2] * padded[2 : n + 1]
        + w[3] * padded[3 : n + 2]
    )
    return np.moveaxis(out, 0, axis)


def midpoint_upsample(matrix) -> np.ndarray:
    """Refine a grid by inserting one cubic-convolution midpoint per adjacent pair.

    An m x n matrix becomes (2m-1) x (2n-1); original samples land at even
    (0-based) indices unchanged. A 1-D array of length n (n >= 2) becomes
    length 2n-1. Row and column passes commute.
    """
    arr = np.asarray(matrix, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    if arr.ndim == 1:
        if arr.shape[0] < 2:
            raise ValueError(f"need at least 2 samples, got {arr.shape[0]}")
        return _upsample_along_axis(arr, 0)
    if arr.ndim != 2:
        raise ValueError(f"expected a 1-D or 2-D array, got ndim={arr.ndim}")
    if arr.shape[0] < 2 or arr.shape[1] < 2:
        raise ValueError(f"matrix must be at least 2x2, got {arr.shape[0]}x{arr.shape[1]}")
    return _upsample_along_axis(_upsample_along_axis(arr, 0), 1)


def upsample_center(matrix) -> float:
    """Center entry of the midpoint-upsampled grid (unclamped).

    Because the kernel is interpolating, the center of a selection's 7x5
    or 5x7 refined grid depends only on its middle column or row; the
    flare entries shape the rest of the refined grid.
    """
    up = midpoint_upsample(matrix)
    return float(up[up.shape[0] // 2, up.shape[1] // 2])


@dataclass(frozen=True)
class Neighborhood:
    """The 16 line pixels around one target, with per-pixel availability.

    ``values`` and ``available`` follow kernels.NEIGHBOR_OFFSETS order; a
    value whose availability flag is False is never used.
    """

    values: np.ndarray
    available: np.ndarray

    def as_mapping(self) -> dict[tuple[int, int], float]:
        """Offset -> value for the available pixels only."""
        return {
            off: float(self.values[i])
            for i, off in enumerate(NEIGHBOR_OFFSETS)
            if self.available[i]
        }


def _as_plane(values, channel: int) -> np.ndarray:
    if isinstance(values, Image):
        return values.data[:, :, channel]
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 3:
        return arr[:, :, channel]
    return arr


def gather_neighborhood(values, missing: np.ndarray, center: tuple[int, int], channel: int = 0) -> Neighborhood:
    """Collect the 16 line pixels around ``center`` from the current state.

    ``values`` may be an Image or a 2-D/3-D array; ``missing`` is the
    current boolean missing-set. Out-of-bounds offsets are unavailable;
    no synthetic padding is invented for prediction.
    """
    plane = _as_plane(values, channel)
    height, width = plane.shape
    r, c = center
    if not (0 <= r < height and 0 <= c < width):
        raise ValueError(f"center {center} outside {width}x{height} image")
    vals = np.zeros(16, dtype=np.float64)
    avail = np.zeros(16, dtype=bool)
    for i, (dr, dc) in enumerate(NEIGHBOR_OFFSETS):
        rr, cc = r + dr, c + dc
        if 0 <= rr < height and 0 <= cc < width:
            vals[i] = plane[rr, cc]
            avail[i] = not missing[rr, cc]
    return Neighborhood(values=vals, available=avail)


def replace_most_deviant(predictions) -> np.ndarray:
    """Replace the prediction farthest from the four-value mean.

    The value with maximum absolute deviation from the mean of all four
    is replaced by the mean of the other three; ties go to the lowest
    direction index. The other three values are unchanged.
    """
    p = np.asarray(predictions, dtype=np.float64)
    if p.shape != (4,):
        raise ValueError(f"expected exactly 4 predictions, got shape {p.shape}")
    if not np.isfinite(p).all():
        raise ValueError("predictions must be finite")
    mean = (p[0] + p[1] + p[2] + p[3]) * 0.25
    worst = int(np.argmax(np.abs(p - mean)))
    out = p.copy()
    out[worst] = (4.0 * mean - p[worst]) / 3.0
    return out


def predict_pixel(neighborhood: Neighborhood) -> float | None:
    """Aggregate every available predictor into one unclamped intensity.

    The slots are the four line predictions, in direction order and after
    outlier replacement when all four exist, then the vertical- and the
    horizontal-matrix centers. Returns None when no slot is available.
    This is the scalar reference path; run_pass computes the same
    quantity vectorized.
    """
    vals, avail = neighborhood.values, neighborhood.available
    line: list[float | None] = []
    for d in range(4):
        s = slice(4 * d, 4 * d + 4)
        line.append(predict_line_center(vals[s]) if avail[s].all() else None)
    if all(v is not None for v in line):
        line = list(replace_most_deviant(line))
    mapping = neighborhood.as_mapping()
    matrices = (vertical_selection(mapping), horizontal_selection(mapping))
    surfaces = [upsample_center(m) if m is not None else None for m in matrices]
    slots = [v for v in line + surfaces if v is not None]
    if not slots:
        return None
    total = 0.0
    for v in slots:
        total += v
    return total / len(slots)


def line_points(r0: int, c0: int, r1: int, c1: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer midpoint (Bresenham) rasterization from (r0, c0) to (r1, c1),
    stepping the error term one pixel at a time."""
    dr = abs(r1 - r0)
    dc = abs(c1 - c0)
    sr = 1 if r0 < r1 else -1
    sc = 1 if c0 < c1 else -1
    err = dc - dr
    rows, cols = [], []
    r, c = r0, c0
    while True:
        rows.append(r)
        cols.append(c)
        if r == r1 and c == c1:
            break
        e2 = 2 * err
        if e2 > -dr:
            err -= dr
            c += sc
        if e2 < dc:
            err += dc
            r += sr
    return np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)
