"""PSNR and single-scale SSIM for 8-bit-range images.

PSNR uses the whole-image MSE over all channels with peak 255. SSIM uses
the standard 11x11 Gaussian window (sigma 1.5), K1 = 0.01, K2 = 0.03,
dynamic range 255, averaged over valid window positions; color images
are scored on their luminance. The mean is still over all valid windows,
but only the windows that touch a pixel where the two images differ are
evaluated, a strip of 16 window rows and a slice of at most 64 pixel
columns at a time: every other window scores exactly 1.0.
"""

from __future__ import annotations

import math

import numpy as np

from .raster import DimensionMismatch, Image, require_same_grid

PEAK = 255.0
_WINDOW = 11
_SIGMA = 1.5
# The SSIM stabilizers (K * PEAK)^2 with K1 = 0.01 and K2 = 0.03.
_C1 = (0.01 * PEAK) ** 2
_C2 = (0.03 * PEAK) ** 2


def _require_comparable(reference: Image, test: Image) -> None:
    require_same_grid(reference, test, "reference", "test")
    if reference.channels != test.channels:
        raise DimensionMismatch(
            f"reference has {reference.channels} channels but test has {test.channels}"
        )


def psnr(reference: Image, test: Image) -> float:
    """Peak signal-to-noise ratio in dB; +inf when the images are identical."""
    _require_comparable(reference, test)
    mse = float(np.mean((reference.data - test.data) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(PEAK * PEAK / mse)


def _luminance(data: np.ndarray) -> np.ndarray:
    # Channels are on the last axis; the weights are applied elementwise,
    # so a pixel's luminance does not depend on which array holds it.
    if data.shape[-1] == 1:
        return data[..., 0]
    return 0.299 * data[..., 0] + 0.587 * data[..., 1] + 0.114 * data[..., 2]


def _gaussian_window() -> np.ndarray:
    i = np.arange(_WINDOW) - (_WINDOW - 1) / 2
    g = np.exp(-(i * i) / (2.0 * _SIGMA * _SIGMA))
    return g / g.sum()


_GAUSS = _gaussian_window()

# Window rows per strip of the dirty-window pass, and the widest slice
# it scores at once, in pixel columns (a multiple of 8, see ssim). A
# longer run is scored a slice at a time, so the pass's memory does not
# follow how far a line runs along a strip.
_STRIP = 16
_SPAN = 64


def _windowed_mean(plane: np.ndarray) -> np.ndarray:
    # Separable Gaussian-weighted mean at every fully interior (valid)
    # window position of the last two axes: (..., h, w) -> (..., h-10, w-10).
    # Each window view is an ndarray built on its source's buffer with the
    # shape and strides that sliding_window_view gives it, so BLAS gets the
    # same operands, without the argument checks of either wrapper. A plane
    # whose memory is not contiguous has no such buffer: ValueError.
    *lead, height, width = plane.shape
    down = (*lead, height - _WINDOW + 1, width, _WINDOW)
    v = np.ndarray(down, plane.dtype, plane, 0, (*plane.strides, plane.strides[-2])) @ _GAUSS
    across = (*lead, height - _WINDOW + 1, width - _WINDOW + 1, _WINDOW)
    return np.ndarray(across, v.dtype, v, 0, (*v.strides, v.strides[-1])) @ _GAUSS


def _ssim_map(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-window SSIM of two 2-D luminance arrays."""
    planes = np.empty((5, *x.shape))
    planes[0], planes[1] = x, y
    np.multiply(x, x, out=planes[2])
    np.multiply(y, y, out=planes[3])
    np.multiply(x, y, out=planes[4])
    mu_x, mu_y, xx, yy, xy = _windowed_mean(planes)
    del planes
    mu_xx, mu_yy, mu_xy = mu_x * mu_x, mu_y * mu_y, mu_x * mu_y
    # 2 * (mu_x * mu_y) is 2 * mu_x * mu_y to the bit: doubling is exact.
    return ((2.0 * mu_xy + _C1) * (2.0 * (xy - mu_xy) + _C2)) / (
        (mu_xx + mu_yy + _C1) * ((xx - mu_xx) + (yy - mu_yy) + _C2)
    )


def ssim(reference: Image, test: Image) -> float:
    """Mean structural similarity over all valid 11x11 window positions.

    A window whose pixels agree in both images scores exactly 1.0, since
    the numerator and denominator of its score are then the same float
    expression. The window grid is therefore walked in strips of 16
    window rows. In each strip, every run of adjacent windows that touch
    a differing pixel is scored on slices of both images, and every
    other window enters the mean as 1.0. A slice is as wide as the run's
    pixel columns rounded up to a multiple of 8, at most 64 pixels and at
    most the image width; a longer run takes several slices. Its vertical
    means then stay on the BLAS kernel's main loop, as a whole-image pass
    (the tests' ssim_oracle) runs them for every column of an image whose
    width is a multiple of 8, so the two agree bit for bit. A slice's
    five planes (x, y, x^2, y^2, xy) are written into one buffer, whose
    window views are built on it directly, and the buffer is freed once
    its means are taken, before the score arithmetic. Memory is the grid
    of window scores plus one slice of at most 64 pixel columns,
    whatever the difference.
    """
    return float(_score_grid(reference, test).mean())


def _score_grid(reference: Image, test: Image) -> np.ndarray:
    """The SSIM of every valid window position, a (height - 10, width -
    10) grid; see ssim."""
    _require_comparable(reference, test)
    height, width = reference.height, reference.width
    if height < _WINDOW or width < _WINDOW:
        raise ValueError(
            f"image {width}x{height} smaller than the {_WINDOW}x{_WINDOW} window"
        )
    ref, tst = reference.data, test.data
    differs = (ref != tst).any(axis=2)
    grid = np.ones((height - _WINDOW + 1, width - _WINDOW + 1))
    footprint = np.ones(_WINDOW)
    for top in range(0, height - _WINDOW + 1, _STRIP):
        rows = slice(top, top + _STRIP + _WINDOW - 1)
        # Window columns whose footprint in the strip holds a differing
        # pixel, and the edges of their runs.
        dirty = np.convolve(differs[rows].any(axis=0), footprint, "valid") > 0
        edges = np.flatnonzero(np.diff(np.concatenate(([False], dirty, [False]))))
        for first, stop in zip(edges[::2].tolist(), edges[1::2].tolist()):
            while first < stop:
                # The pixel columns [first, stop + 10) of the run's
                # windows not yet scored, widened to a multiple of 8, cut
                # at _SPAN and moved left where they would pass the right
                # edge.
                span = min(-(-(stop - first + _WINDOW - 1) // 8) * 8, _SPAN, width)
                left = min(first, width - span)
                cols = slice(left, left + span)
                grid[top : top + _STRIP, left : left + span - _WINDOW + 1] = _ssim_map(
                    _luminance(ref[rows, cols]), _luminance(tst[rows, cols])
                )
                first = left + span - _WINDOW + 1
    return grid
