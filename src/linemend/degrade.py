"""Seeded synthetic line-defect generation.

Each defect is a straight scratch crossing the full image between two
uniformly drawn points on opposite borders. Its integer midpoint
(Bresenham) path is computed in closed form: pixel t lies t steps along
the major axis and t*|d|/n along the minor one, rounded to nearest with
halves toward the start. Copies stacked along the minor axis thicken it
to an exact pixel width. Generation is a pure function of (dimensions,
spec): the same seed always yields the same mask, and widening or adding
lines only ever grows the mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .raster import Image, Mask, _finite_image, _require_count, require_same_grid


@dataclass(frozen=True)
class LineSpec:
    """How many defect lines to draw, how wide, and with which seed.

    ``count`` and ``seed`` must be integers >= 0 and ``width`` an integer
    >= 1 (ValueError otherwise); a bool is not an integer here.
    """

    count: int
    width: int = 1
    seed: int = 0

    def __post_init__(self):
        for name, low in (("count", 0), ("width", 1), ("seed", 0)):
            _require_count(name, getattr(self, name), low)


def _line_points(r0: int, c0: int, r1: int, c1: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer midpoint rasterization; visits max(|dr|, |dc|) + 1 pixels.

    With n = max(|dr|, |dc|), m = max(n, 1) and t = 0..n, pixel t sits on
    an axis of signed extent d at start + sign(d) * ((2*t*|d| + m - 1) // (2*m)):
    t on the major axis, t*|d|/m rounded to nearest (halves toward the
    start) on the minor one. This is the path of Bresenham's error-term loop.
    """
    n = max(abs(r1 - r0), abs(c1 - c0))
    m = max(n, 1)
    t = np.arange(n + 1, dtype=np.intp)

    def axis(start, d):
        return start + np.sign(d) * ((2 * t * abs(d) + m - 1) // (2 * m))

    return axis(r0, r1 - r0), axis(c0, c1 - c0)


def generate_line_mask(width: int, height: int, spec: LineSpec) -> Mask:
    """Generate a width x height mask containing ``spec.count`` scratches.

    Endpoints are drawn uniformly on a randomly chosen pair of opposite
    borders, so every line crosses the image. Thickening offsets span
    {-floor((w-1)/2) .. ceil((w-1)/2)} perpendicular to the line's major
    axis, clipped to bounds.
    """
    if width < 8 or height < 8:
        raise ValueError(f"image too small for line defects: {width}x{height} (need >= 8x8)")
    if spec.width * 4 > min(width, height):
        raise ValueError(
            f"line width {spec.width} too large for {width}x{height} (limit {min(width, height) // 4})"
        )
    rng = np.random.default_rng(spec.seed)
    degraded = np.zeros((height, width), dtype=bool)
    for _ in range(spec.count):
        if rng.integers(0, 2) == 0:  # top <-> bottom
            r0, c0 = 0, int(rng.integers(0, width))
            r1, c1 = height - 1, int(rng.integers(0, width))
        else:  # left <-> right
            r0, c0 = int(rng.integers(0, height)), 0
            r1, c1 = int(rng.integers(0, height)), width - 1
        rows, cols = _line_points(r0, c0, r1, c1)
        row_minor = abs(c1 - c0) >= abs(r1 - r0)
        for k in range(-((spec.width - 1) // 2), spec.width // 2 + 1):
            rr = rows + k if row_minor else rows
            cc = cols if row_minor else cols + k
            keep = (rr >= 0) & (rr < height) & (cc >= 0) & (cc < width)
            degraded[rr[keep], cc[keep]] = True
    return Mask(degraded)


def apply_mask(image: Image, mask: Mask) -> Image:
    """Set the masked pixels of every channel to 0."""
    require_same_grid(image, mask)
    data = image.data.copy()
    data.reshape(-1, image.channels)[np.flatnonzero(mask.degraded)] = 0.0
    return _finite_image(data)
