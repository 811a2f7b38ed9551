"""Multi-pass restoration engine for mask-marked defects.

Filling proceeds in Jacobi rounds: every still-missing pixel is
predicted from the previous round's state only, and a round is committed
in place only after all of its predictions are made. Results are
therefore independent of pixel visitation order. Every round runs on the
calling thread; the ``workers`` argument of the public functions is
accepted and has no effect. Since a hole's predictors depend only on
which of its 16 line pixels are missing, a round after the first
re-predicts only the holes whose stencil the round before changed; the
rest are still unfillable. Pixels that never acquire a complete
predictor line (deep hole interiors) are finished by the mean of the
known pixels in a growing window of at most 21 x 21, read from one
summed-area table that stacks the known-pixel count with the channel
sums and stops where the residual holes' largest windows end. Every
committed value is clamped to [0, 255].

Per missing pixel and channel, the predictions of the available slots
of kernels.SLOTS are averaged: four directional line predictions and
two surface predictions. A slot is available when every line it names
has all four pixels known. When all four line predictions exist, the
one most deviant from their mean is first replaced by the mean of the
other three. Missing-ness is read from a copy of the mask padded by 2
on every side whose border counts as missing, so the 16 neighbours of
a hole are fixed flat offsets with no bounds checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import NEIGHBOR_OFFSETS, SLOTS
from .raster import DimensionMismatch, Image, Mask, require_same_grid


@dataclass(frozen=True)
class EngineConfig:
    """The cap on Jacobi fill rounds, an integer >= 1 (ValueError otherwise)."""

    max_passes: int = 64

    def __post_init__(self):
        n = self.max_passes
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"max_passes must be an integer >= 1, got {n!r}")


@dataclass(frozen=True)
class InpaintReport:
    """Outcome of a full restoration run."""

    image: Image
    pass_fill_counts: tuple[int, ...]
    fallback_filled: int

    @property
    def passes(self) -> int:
        return len(self.pass_fill_counts)

    @property
    def predictor_filled(self) -> int:
        return int(sum(self.pass_fill_counts))


# Half-width of the largest box-mean fallback window (21 x 21).
_FALLBACK_REACH = 10


def _pad_missing(missing: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The missing set padded by 2 on every side, its border counted as
    missing, and the flat indices of the holes inside it, in row-major
    order. A hole's 16 neighbours then sit at fixed flat offsets that
    never leave the padded grid.
    """
    height, width = missing.shape
    padded = np.zeros((height + 4, width + 4), dtype=bool)
    padded[2:-2, 2:-2] = missing
    holes = np.flatnonzero(padded)
    padded[:2] = padded[-2:] = padded[:, :2] = padded[:, -2:] = True
    return padded, holes


def _fill_round(values: np.ndarray, missing_at: np.ndarray, holes: np.ndarray) -> np.ndarray:
    """One Jacobi round over the holes at flat indices ``holes`` of the
    padded grid whose flattened missing set is ``missing_at``.

    ``values`` is the C-contiguous (height, width, channels) state. Values
    are gathered and predicted for the holes with a fillable slot only;
    every gather is made before the fillable holes are committed into
    ``values`` in place, clamped to [0, 255]. ``missing_at`` is not
    modified. Returns the boolean fillable set over ``holes``.
    """
    _, width, channels = values.shape
    stride = width + 4
    complete = []
    for first in range(0, len(NEIGHBOR_OFFSETS), 4):
        gap = np.zeros(holes.size, dtype=bool)
        for dr, dc in NEIGHBOR_OFFSETS[first : first + 4]:
            gap |= missing_at[holes + (dr * stride + dc)]
        complete.append(~gap)
    ok = np.array([np.logical_and.reduce([complete[d] for d in lines]) for *_, lines in SLOTS])
    fillable = ok.any(axis=0)
    ok = ok[:, fillable]
    rows, cols = np.divmod(holes[fillable], stride)
    cells = (rows - 2) * width + (cols - 2)

    flat = values.reshape(-1, channels)
    preds = np.empty((len(SLOTS), cells.size, channels), dtype=np.float64)
    for s, (first, w, _) in enumerate(SLOTS):
        # A tap of a slot that is not available may fall off the image;
        # clipping its index keeps the gather in range, and the value is
        # never used.
        v0, v1, v2, v3 = (
            np.take(flat, cells + (dr * width + dc), axis=0, mode="clip")
            for dr, dc in NEIGHBOR_OFFSETS[first : first + 4]
        )
        preds[s] = w[0] * v0 + w[1] * v1 + w[2] * v2 + w[3] * v3

    all_lines = ok[0] & ok[1] & ok[2] & ok[3]  # slots 0-3 are the lines
    if all_lines.any():
        lines = preds[:4, all_lines]
        mean = (lines[0] + lines[1] + lines[2] + lines[3]) * 0.25
        worst = np.abs(lines - mean).argmax(axis=0)  # first index wins ties
        worst_val = np.take_along_axis(lines, worst[None], axis=0)[0]
        np.put_along_axis(lines, worst[None], ((4.0 * mean - worst_val) / 3.0)[None], axis=0)
        preds[:4, all_lines] = lines

    total = np.zeros((cells.size, channels), dtype=np.float64)
    for s in range(len(SLOTS)):
        total += np.where(ok[s][:, None], preds[s], 0.0)
    flat[cells] = np.clip(total / ok.sum(axis=0)[:, None], 0.0, 255.0)
    return fillable


def run_pass(values: np.ndarray, missing: np.ndarray, config: EngineConfig | None = None, workers: int = 1):
    """One Jacobi fill round over the current missing set: the first
    round of inpaint_report's loop.

    ``values`` is the (height, width) or (height, width, channels)
    pre-pass state. It is read as float64 like an Image's data
    (ValueError if a sample is not finite) and is not modified.
    ``missing`` marks pixels still to fill, as truth values on the same
    grid (DimensionMismatch otherwise). Every missing pixel with at
    least one available predictor slot is committed (clamped to
    [0, 255]) into the returned float64 copy, which has the shape of
    ``values``. Returns (new_values, filled) where ``filled`` is the
    boolean newly-filled set. Neither ``config`` nor ``workers`` changes
    the round, which runs on the calling thread; a pass loop may hand on
    the config it runs under.
    """
    squeeze = np.ndim(values) == 2
    new_values = Image(values).data.copy()
    missing = np.asarray(missing, dtype=bool)
    if missing.shape != new_values.shape[:2]:
        raise DimensionMismatch(
            f"missing has shape {missing.shape} but values have grid {new_values.shape[:2]}"
        )
    _, residual, _, _ = _jacobi_rounds(new_values, missing, 1)
    filled = missing & ~residual
    return (new_values[:, :, 0] if squeeze else new_values), filled


def _jacobi_rounds(values: np.ndarray, degraded: np.ndarray, max_passes: int):
    """Run fill rounds over the C-contiguous ``values`` in place until one
    fills nothing, no hole remains, or ``max_passes`` rounds have run.

    Returns (fill counts per round, the residual missing set, and the
    row and column indices of its pixels in row-major order). A hole's
    slot availability depends only on the missing state of its 16
    NEIGHBOR_OFFSETS pixels, so a hole that a round left unfilled can
    become fillable only once one of those pixels is filled. Each round
    after the first therefore re-predicts just the remaining holes next
    to a pixel that the round before filled; when there are none, the
    round fills 0 and ends the loop. The holes are kept as a compacted
    list of flat indices into the padded missing set of _pad_missing.
    """
    stride = degraded.shape[1] + 4
    padded, holes = _pad_missing(degraded)
    missing_at = padded.ravel()
    near_filled = np.zeros_like(missing_at)
    offsets = [dr * stride + dc for dr, dc in NEIGHBOR_OFFSETS]
    candidates = holes
    fill_counts: list[int] = []
    while holes.size and len(fill_counts) < max_passes:
        fillable = _fill_round(values, missing_at, candidates)
        done = candidates[fillable]
        fill_counts.append(done.size)
        if done.size == 0:
            break
        missing_at[done] = False
        holes = holes[missing_at[holes]]
        for off in offsets:
            near_filled[done - off] = True
        # Only flags at remaining holes are ever read, so clearing
        # those is enough; flags left on known pixels are never seen.
        candidates = holes[near_filled[holes]]
        near_filled[candidates] = False
    rows, cols = np.divmod(holes, stride)
    return fill_counts, padded[2:-2, 2:-2], rows - 2, cols - 2


def _fallback_fill(values: np.ndarray, missing: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> int:
    """Fill the residual holes at (``rows``, ``cols``), which are all the
    pixels of ``missing``, with the mean of the known pixels in the
    smallest centered odd window up to 21 x 21 that contains one (else 128).

    Window counts and sums come from one summed-area table whose plane 0
    sums the known-pixel indicator and whose planes 1..C sum the known
    values. An entry depends only on the rows and columns before it, so
    the table stops where the largest window of the lowest and of the
    rightmost hole ends; each growing half-width looks only at the holes
    no smaller window resolved. Mutates ``values``.
    """
    if rows.size == 0:
        return 0
    height, width, channels = values.shape
    out = np.full((rows.size, channels), 128.0)
    if rows.size < height * width:  # some pixel is known
        bottom = min(int(rows.max()) + _FALLBACK_REACH + 1, height)
        right = min(int(cols.max()) + _FALLBACK_REACH + 1, width)
        table = np.zeros((bottom + 1, right + 1, channels + 1))
        body = table[1:, 1:]
        body[..., 0] = ~missing[:bottom, :right]
        np.multiply(values[:bottom, :right], body[..., :1], out=body[..., 1:])
        # Axis-0 prefix sums row by row: the same sequential additions as
        # cumsum(axis=0), without its strided walk down the columns.
        for r in range(bottom):
            np.add(table[r, 1:], body[r], out=body[r])
        np.cumsum(body, axis=1, out=body)
        flat = table.reshape(-1, channels + 1)
        stride = right + 1
        pending = np.arange(rows.size)
        for half in range(1, _FALLBACK_REACH + 1):
            r, c = rows[pending], cols[pending]
            r0 = np.maximum(r - half, 0) * stride
            r1 = np.minimum(r + half + 1, height) * stride
            c0 = np.maximum(c - half, 0)
            c1 = np.minimum(c + half + 1, width)
            box = (
                np.take(flat, r1 + c1, axis=0) - np.take(flat, r0 + c1, axis=0)
                - np.take(flat, r1 + c0, axis=0) + np.take(flat, r0 + c0, axis=0)
            )
            hit = box[:, 0] > 0
            out[pending[hit]] = box[hit, 1:] / box[hit, :1]
            pending = pending[~hit]
            if pending.size == 0:
                break
    values[rows, cols] = np.clip(out, 0.0, 255.0)
    return rows.size


def inpaint_report(image: Image, mask: Mask, config: EngineConfig | None = None, workers: int = 1) -> InpaintReport:
    """Restore every masked pixel and report pass/fill statistics.

    Channels are processed independently against the shared mask;
    unmasked pixels are returned bit-identical to the input. ``workers``
    is accepted and has no effect: every round runs on the calling thread.
    """
    config = config or EngineConfig()
    require_same_grid(image, mask)
    values = image.data.copy()
    fill_counts, missing, rows, cols = _jacobi_rounds(values, mask.degraded, config.max_passes)
    fallback_count = _fallback_fill(values, missing, rows, cols)
    return InpaintReport(image=Image(values), pass_fill_counts=tuple(fill_counts), fallback_filled=fallback_count)


def inpaint(image: Image, mask: Mask, config: EngineConfig | None = None, workers: int = 1) -> Image:
    """Restore every masked pixel; see inpaint_report for details."""
    return inpaint_report(image, mask, config).image
