"""Seeded synthetic line-defect generation.

Each defect is a straight scratch crossing the full image between two
uniformly drawn points on opposite borders, rasterized with the integer
midpoint (Bresenham) algorithm and thickened to an exact pixel width by
stacking parallel copies along the line's minor axis. Generation is a
pure function of (dimensions, spec): the same seed always yields the
same mask, and widening or adding lines only ever grows the mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .raster import Image, Mask, require_same_grid


@dataclass(frozen=True)
class LineSpec:
    """How many defect lines to draw, how wide, and with which seed."""

    count: int
    width: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count}")
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")


def _line_points(r0: int, c0: int, r1: int, c1: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer midpoint rasterization; visits max(|dr|, |dc|) + 1 pixels."""
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
    data[mask.degraded] = 0.0
    return Image(data)
