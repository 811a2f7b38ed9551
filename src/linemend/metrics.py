"""PSNR and single-scale SSIM for 8-bit-range images.

PSNR uses the whole-image MSE over all channels with peak 255. SSIM uses
the standard 11x11 Gaussian window (sigma 1.5), K1 = 0.01, K2 = 0.03,
dynamic range 255, averaged over valid window positions; color images
are scored on their luminance. The mean is still over all valid windows,
but only the windows that touch a pixel where the two images differ are
evaluated: every other window scores exactly 1.0.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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

# Window positions per tile of the dirty-window pass, down and across.
# A tile's pixel patch is (16 + 10) x (22 + 10) = 26 x 32; a patch row
# length that is a multiple of 8 keeps every vertical mean on the BLAS
# kernel's main loop, which a whole-image pass (the tests' ssim_oracle)
# uses for all columns of an image whose width is a multiple of 8, so
# the two agree bit for bit.
_TILE_H = 16
_TILE_W = 22
_PATCH_H = _TILE_H + _WINDOW - 1
_PATCH_W = _TILE_W + _WINDOW - 1
# Dirty tiles scored at once. Their temporaries take about 40 kB a tile,
# so batches keep the pass's memory from growing with the mask.
_TILE_BATCH = 64


def _windowed_mean(plane: np.ndarray) -> np.ndarray:
    # Separable Gaussian-weighted mean at every fully interior (valid)
    # window position of the last two axes: (..., h, w) -> (..., h-10, w-10).
    v = sliding_window_view(plane, _WINDOW, axis=-2) @ _GAUSS
    return sliding_window_view(v, _WINDOW, axis=-1) @ _GAUSS


def _ssim_map(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-window SSIM over the last two axes of two luminance arrays."""
    mu_x = _windowed_mean(x)
    mu_y = _windowed_mean(y)
    var_x = _windowed_mean(x * x) - mu_x * mu_x
    var_y = _windowed_mean(y * y) - mu_y * mu_y
    cov = _windowed_mean(x * y) - mu_x * mu_y
    return ((2.0 * mu_x * mu_y + _C1) * (2.0 * cov + _C2)) / (
        (mu_x * mu_x + mu_y * mu_y + _C1) * (var_x + var_y + _C2)
    )


def _dirty_tiles(differs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tile indices (row, column) of the tiles whose pixel patch holds a
    True of ``differs``, in row-major order.

    Tile (i, j) covers window positions [16i, 16i+16) x [22j, 22j+22),
    hence pixels [16i, 16i+26) x [22j, 22j+32): one whole block of the
    tile grid plus the first 10 pixels of the next block, on each axis.
    """
    height, width = differs.shape
    n_rows = -(-(height - _WINDOW + 1) // _TILE_H)
    n_cols = -(-(width - _WINDOW + 1) // _TILE_W)
    padded = np.zeros(((n_rows + 1) * _TILE_H, (n_cols + 1) * _TILE_W), dtype=bool)
    padded[:height, :width] = differs
    blocks = padded.reshape(n_rows + 1, _TILE_H, -1)
    rows = blocks.any(axis=1)[:-1] | blocks[1:, : _WINDOW - 1].any(axis=1)
    blocks = rows.reshape(n_rows, n_cols + 1, _TILE_W)
    tiles = blocks.any(axis=2)[:, :-1] | blocks[:, 1:, : _WINDOW - 1].any(axis=2)
    return np.nonzero(tiles)


def _score_tiles(
    grid: np.ndarray, ref: np.ndarray, tst: np.ndarray, tile_r: np.ndarray, tile_c: np.ndarray
) -> None:
    """Write the SSIM of every valid window of the given tiles into
    ``grid``; the temporaries are freed on return."""
    height, width = ref.shape[:2]
    grid_h, grid_w = grid.shape
    # Indices past the image edge are clamped; they reach only windows
    # past the valid grid, which are dropped below.
    pr = np.minimum(_TILE_H * tile_r[:, None] + np.arange(_PATCH_H), height - 1)
    pc = np.minimum(_TILE_W * tile_c[:, None] + np.arange(_PATCH_W), width - 1)
    at = (pr[:, :, None], pc[:, None, :])
    scores = _ssim_map(_luminance(ref[at]), _luminance(tst[at]))
    wr = _TILE_H * tile_r[:, None, None] + np.arange(_TILE_H)[:, None]
    wc = _TILE_W * tile_c[:, None, None] + np.arange(_TILE_W)
    keep = (wr < grid_h) & (wc < grid_w)
    grid.reshape(-1)[(wr * grid_w + wc)[keep]] = scores[keep]


def ssim(reference: Image, test: Image) -> float:
    """Mean structural similarity over all valid 11x11 window positions.

    A window whose pixels agree in both images scores exactly 1.0, since
    the numerator and denominator of its score are then the same float
    expression. Only the tiles of windows that touch a differing pixel
    are therefore evaluated, _TILE_BATCH tiles at a time, and every other
    window enters the mean as 1.0. Memory is the grid of window scores
    plus one batch of tiles, whatever the difference; a difference that
    touches nearly every tile costs up to about 1.7x a whole-image pass,
    since neighbouring patches overlap.
    """
    _require_comparable(reference, test)
    height, width = reference.height, reference.width
    if height < _WINDOW or width < _WINDOW:
        raise ValueError(
            f"image {width}x{height} smaller than the {_WINDOW}x{_WINDOW} window"
        )
    ref, tst = reference.data, test.data
    tile_r, tile_c = _dirty_tiles((ref != tst).any(axis=2))
    grid = np.ones((height - _WINDOW + 1, width - _WINDOW + 1))
    for first in range(0, tile_r.size, _TILE_BATCH):
        _score_tiles(grid, ref, tst, tile_r[first : first + _TILE_BATCH], tile_c[first : first + _TILE_BATCH])
    return float(grid.mean())

