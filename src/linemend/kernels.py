"""The predictor's stencil: 16 line pixels and the six slots built on them.

A missing pixel is predicted from the 16 pixels that sit at signed
offsets (-2, -1, +1, +2) along the four lines through it (horizontal,
vertical, both diagonals). Each of the six predictor slots is a fixed
weighting of the four pixels of one line:

* four line slots, the exact cubic through one line's four samples
  evaluated at the missing center, and
* two surface slots, the centers of the paper's flared 12-pixel
  selections (one axis line plus both diagonals) refined by Keys
  cubic-convolution midpoint upsampling (a = -0.5). Such a center
  weighs only its axis line, by (-1, 9, 9, -1)/16; the diagonal
  ("hyperbolic") pixels only decide whether the slot is available.
"""

from __future__ import annotations

import numpy as np

#: Signed sample offsets along a line, ordered by line parameter.
STEPS = (-2, -1, 1, 2)

#: (row, col) unit step per direction: horizontal, vertical, main
#: diagonal, anti-diagonal. This order is also the tie-break order.
DIRECTION_VECTORS = ((0, 1), (1, 0), (1, 1), (1, -1))

#: The 16 (row offset, col offset) pairs, grouped by direction, four per
#: direction in STEPS order. Slice 4*d:4*d+4 selects direction d's line.
NEIGHBOR_OFFSETS = tuple(
    (t * dr, t * dc) for (dr, dc) in DIRECTION_VECTORS for t in STEPS
)

#: Weights of the exact cubic through samples at offsets (-2, -1, +1, +2),
#: evaluated at offset 0 (Lagrange form).
LINE_CENTER_WEIGHTS = np.array([-1.0 / 6.0, 2.0 / 3.0, 2.0 / 3.0, -1.0 / 6.0])

#: Keys cubic-convolution weights (a = -0.5) of the midpoint between the
#: two central samples of four, at distances 1.5, 0.5, 0.5 and 1.5.
SURFACE_CENTER_WEIGHTS = np.array([-1.0, 9.0, 9.0, -1.0]) / 16.0


def predict_line_center(line) -> float:
    """Predict the missing center of a five-pixel line from its four known samples.

    ``line`` holds the values at offsets (-2, -1, +1, +2). The result is
    the unique cubic through those four (offset, value) points evaluated
    at offset 0; it is not clamped.
    """
    v = np.asarray(line, dtype=np.float64)
    if v.shape != (4,):
        raise ValueError(f"expected exactly 4 samples, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("line samples must be finite")
    w = LINE_CENTER_WEIGHTS
    return float(w[0] * v[0] + w[1] * v[1] + w[2] * v[2] + w[3] * v[3])
