"""Multi-pass restoration engine for mask-marked defects.

Filling proceeds in Jacobi rounds: every still-missing pixel is
predicted from the previous round's state only, and a round is committed
in place only after all of its predictions are made. Results are
therefore independent of pixel visitation order and of how a round's
work is split across threads. Since a hole's predictors depend only on
which of its 16 line pixels are missing, a round after the first
re-predicts only the holes whose stencil the round before changed; the
rest are still unfillable. Pixels that never acquire a complete
predictor line (deep hole interiors) are finished by a growing-window
mean fallback over summed-area tables that stop where the residual
holes' largest windows end. Every committed value is clamped to
[0, 255].

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

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .kernels import NEIGHBOR_OFFSETS, SLOTS
from .raster import DimensionMismatch, Image, Mask, require_same_grid


@dataclass(frozen=True)
class EngineConfig:
    """Engine knobs; the defaults handle defect lines up to 15 px wide."""

    max_passes: int = 64
    fallback_window_limit: int = 21

    def __post_init__(self):
        if self.max_passes < 1:
            raise ValueError(f"max_passes must be >= 1, got {self.max_passes}")
        w = self.fallback_window_limit
        if w < 3 or w % 2 == 0:
            raise ValueError(f"fallback_window_limit must be odd and >= 3, got {w}")


@dataclass(frozen=True)
class InpaintReport:
    """Outcome of a full restoration run."""

    image: Image
    passes: int
    pass_fill_counts: tuple[int, ...] = field(default=())
    fallback_filled: int = 0

    @property
    def predictor_filled(self) -> int:
        return int(sum(self.pass_fill_counts))


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


def _predict_many(values: np.ndarray, missing_at: np.ndarray, holes: np.ndarray):
    """Vectorized predictions for the holes at flat indices ``holes`` of
    the padded grid whose flattened missing set is ``missing_at``.

    ``values`` is the C-contiguous (height, width, channels) state.
    Returns (fillable (k,), the flat pixel indices in ``values`` of the
    fillable holes, their predictions (f, channels)); values are gathered
    and predicted for the fillable holes only. Every arithmetic step is
    elementwise with a fixed evaluation order, so a hole's prediction
    does not depend on how the hole list is chunked.
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
    return fillable, cells, total / ok.sum(axis=0)[:, None]


def _fill_round(values: np.ndarray, missing_at: np.ndarray, holes: np.ndarray,
                pool: ThreadPoolExecutor, workers: int) -> np.ndarray:
    """Predict the holes at padded flat indices ``holes`` from the current
    state, then commit the fillable ones into the C-contiguous ``values``
    in place, clamped to [0, 255].

    Every prediction is made before anything is written, so the round
    keeps Jacobi semantics however its work is split across ``workers``.
    ``missing_at`` is not modified. Returns the boolean fillable set over
    ``holes``.
    """
    if workers <= 1 or holes.size < 2 * workers:
        parts = [_predict_many(values, missing_at, holes)]
    else:
        futures = [pool.submit(_predict_many, values, missing_at, h) for h in np.array_split(holes, workers)]
        parts = [f.result() for f in futures]
    flat = values.reshape(-1, values.shape[2])
    for _, cells, predicted in parts:
        flat[cells] = np.clip(predicted, 0.0, 255.0)
    return np.concatenate([fillable for fillable, *_ in parts])


def run_pass(values: np.ndarray, missing: np.ndarray, config: EngineConfig | None = None, workers: int = 1):
    """One Jacobi fill round over the current missing set.

    ``values`` is the (height, width, channels) pre-pass state and is not
    modified; ``missing`` marks pixels still to fill, as truth values on
    the same grid (DimensionMismatch otherwise). Every missing pixel
    with at least one available predictor slot is committed (clamped to
    [0, 255]) into the returned copy. Returns (new_values, filled) where
    ``filled`` is the boolean newly-filled set. No field of ``config``
    changes a single round; a pass loop may hand on the one it runs under.
    """
    squeeze = values.ndim == 2
    if squeeze:
        values = values[:, :, np.newaxis]
    missing = np.asarray(missing, dtype=bool)
    if missing.shape != values.shape[:2]:
        raise DimensionMismatch(
            f"missing has shape {missing.shape} but values have grid {values.shape[:2]}"
        )
    new_values = values.copy()
    padded, holes = _pad_missing(missing)
    missing_at = padded.ravel()
    with ThreadPoolExecutor(max_workers=max(workers, 1)) as pool:
        fillable = _fill_round(new_values, missing_at, holes, pool, workers)
    missing_at[holes[fillable]] = False
    filled = missing & ~padded[2:-2, 2:-2]
    return (new_values[:, :, 0] if squeeze else new_values), filled


def _jacobi_rounds(values: np.ndarray, degraded: np.ndarray, config: EngineConfig, workers: int):
    """Run fill rounds over the C-contiguous ``values`` in place until one
    fills nothing, no hole remains, or ``config.max_passes`` rounds have run.

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
    with ThreadPoolExecutor(max_workers=max(workers, 1)) as pool:
        while holes.size and len(fill_counts) < config.max_passes:
            fillable = _fill_round(values, missing_at, candidates, pool, workers)
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


def _integral(plane: np.ndarray) -> np.ndarray:
    """Summed-area table of ``plane`` with a zero first row and column.

    The axis-0 prefix sums are accumulated row by row into the table:
    the same sequential additions as ``cumsum(axis=0)``, without its
    strided walk down the columns.
    """
    height, width = plane.shape
    out = np.zeros((height + 1, width + 1), dtype=np.float64)
    for r in range(height):
        np.add(out[r, 1:], plane[r], out=out[r + 1, 1:])
    body = out[1:, 1:]
    np.cumsum(body, axis=1, out=body)
    return out


def _fallback_fill(values: np.ndarray, missing: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                   config: EngineConfig) -> int:
    """Fill the residual holes at (``rows``, ``cols``), which are all the
    pixels of ``missing``, with the mean of the known pixels in the
    smallest centered odd window that contains one (else 128).

    Window sums come from summed-area tables of the known pixels. An
    entry of such a table depends only on the rows and columns before
    it, so the tables stop where the largest window of the lowest and of
    the rightmost hole ends; each growing half-width looks only at the
    holes no smaller window resolved. Mutates ``values``.
    """
    if rows.size == 0:
        return 0
    height, width, channels = values.shape
    out = np.full((rows.size, channels), 128.0)
    if rows.size < height * width:  # some pixel is known
        reach = config.fallback_window_limit // 2
        bottom = min(int(rows.max()) + reach + 1, height)
        right = min(int(cols.max()) + reach + 1, width)
        known = ~missing[:bottom, :right]
        count_int = _integral(known.astype(np.float64))
        sum_ints = [_integral(values[:bottom, :right, ch] * known) for ch in range(channels)]
        pending = np.arange(rows.size)
        for half in range(1, reach + 1):
            r, c = rows[pending], cols[pending]
            r0 = np.maximum(r - half, 0)
            r1 = np.minimum(r + half + 1, height)
            c0 = np.maximum(c - half, 0)
            c1 = np.minimum(c + half + 1, width)
            counts = (
                count_int[r1, c1] - count_int[r0, c1] - count_int[r1, c0] + count_int[r0, c0]
            )
            hit = counts > 0
            done = pending[hit]
            r0, r1, c0, c1, counts = r0[hit], r1[hit], c0[hit], c1[hit], counts[hit]
            for ch in range(channels):
                s = sum_ints[ch]
                sums = s[r1, c1] - s[r0, c1] - s[r1, c0] + s[r0, c0]
                out[done, ch] = sums / counts
            pending = pending[~hit]
            if pending.size == 0:
                break
    values[rows, cols] = np.clip(out, 0.0, 255.0)
    return rows.size


def inpaint_report(image: Image, mask: Mask, config: EngineConfig | None = None, workers: int = 1) -> InpaintReport:
    """Restore every masked pixel and report pass/fill statistics.

    Channels are processed independently against the shared mask;
    unmasked pixels are returned bit-identical to the input.
    """
    config = config or EngineConfig()
    require_same_grid(image, mask)
    values = image.data.copy()
    fill_counts, missing, rows, cols = _jacobi_rounds(values, mask.degraded, config, workers)
    fallback_count = _fallback_fill(values, missing, rows, cols, config)
    return InpaintReport(
        image=Image(values),
        passes=len(fill_counts),
        pass_fill_counts=tuple(fill_counts),
        fallback_filled=fallback_count,
    )


def inpaint(image: Image, mask: Mask, config: EngineConfig | None = None, workers: int = 1) -> Image:
    """Restore every masked pixel; see inpaint_report for details."""
    return inpaint_report(image, mask, config, workers=workers).image
