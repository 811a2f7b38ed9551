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
mean fallback.

Per missing pixel and channel, up to six candidate values are averaged:
four directional line predictions (horizontal, vertical, main diagonal,
anti-diagonal) and two surface predictions from the flared 12-pixel
selections. A line contributes only when all four of its pixels are
available; a surface only when all twelve of its matrix's pixels are.
When all four line predictions exist, the one most deviant from their
mean is first replaced by the mean of the other three.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .kernels import (
    LINE_CENTER_WEIGHTS,
    MIDPOINT_WEIGHTS,
    NEIGHBOR_OFFSETS,
    horizontal_selection,
    predict_line_center,
    upsample_center,
    vertical_selection,
)
from .raster import Image, Mask, require_same_grid

# Slot order: 4 directional lines, then vertical-matrix and
# horizontal-matrix surface predictions. Availability of the vertical
# (resp. horizontal) surface requires its axis line plus both diagonals.
_N_SLOTS = 6
_SURFACE_VERTICAL = 4
_SURFACE_HORIZONTAL = 5


@dataclass(frozen=True)
class EngineConfig:
    """Engine knobs; the defaults handle defect lines up to 15 px wide."""

    max_passes: int = 64
    clamp_range: tuple[float, float] = (0.0, 255.0)
    fallback_window_limit: int = 21

    def __post_init__(self):
        if self.max_passes < 1:
            raise ValueError(f"max_passes must be >= 1, got {self.max_passes}")
        lo, hi = self.clamp_range
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError(f"invalid clamp_range {self.clamp_range}")
        w = self.fallback_window_limit
        if w < 3 or w % 2 == 0:
            raise ValueError(f"fallback_window_limit must be odd and >= 3, got {w}")


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


@dataclass(frozen=True)
class PredictionBundle:
    """Up to six candidate intensities for one target pixel.

    ``line_predictions`` holds one optional value per direction (after
    outlier replacement, when applicable); ``surface_predictions`` holds
    the optional vertical- and horizontal-matrix centers.
    """

    line_predictions: tuple[float | None, float | None, float | None, float | None]
    surface_predictions: tuple[float | None, float | None]

    def slots(self) -> list[float]:
        return [v for v in (*self.line_predictions, *self.surface_predictions) if v is not None]


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

    Returns None when no predictor slot is available. This is the scalar
    reference path; run_pass computes the same quantity vectorized.
    """
    bundle = prediction_bundle(neighborhood)
    slots = bundle.slots()
    if not slots:
        return None
    total = 0.0
    for v in slots:
        total += v
    return total / len(slots)


def prediction_bundle(neighborhood: Neighborhood) -> PredictionBundle:
    """Assemble the line and surface predictions for one neighborhood."""
    vals, avail = neighborhood.values, neighborhood.available
    line: list[float | None] = []
    for d in range(4):
        s = slice(4 * d, 4 * d + 4)
        line.append(predict_line_center(vals[s]) if avail[s].all() else None)
    if all(v is not None for v in line):
        line = list(replace_most_deviant(line))
    mapping = neighborhood.as_mapping()
    vmat = vertical_selection(mapping)
    hmat = horizontal_selection(mapping)
    surfaces = (
        upsample_center(vmat) if vmat is not None else None,
        upsample_center(hmat) if hmat is not None else None,
    )
    return PredictionBundle(line_predictions=tuple(line), surface_predictions=surfaces)


def _predict_many(values: np.ndarray, missing: np.ndarray, rows: np.ndarray, cols: np.ndarray):
    """Vectorized predictions for the given missing coordinates.

    Returns (predicted (k, channels), fillable (k,)). Every arithmetic
    step is elementwise with a fixed evaluation order, so the result for
    a pixel does not depend on how the coordinate list is chunked.
    """
    height, width, channels = values.shape
    k = rows.size
    vals = np.empty((16, k, channels), dtype=np.float64)
    avail = np.empty((16, k), dtype=bool)
    for i, (dr, dc) in enumerate(NEIGHBOR_OFFSETS):
        rr = rows + dr
        cc = cols + dc
        inb = (rr >= 0) & (rr < height) & (cc >= 0) & (cc < width)
        rs = np.where(inb, rr, 0)
        cs = np.where(inb, cc, 0)
        avail[i] = inb & ~missing[rs, cs]
        vals[i] = values[rs, cs]

    w = LINE_CENTER_WEIGHTS
    preds = np.empty((_N_SLOTS, k, channels), dtype=np.float64)
    ok = np.empty((_N_SLOTS, k), dtype=bool)
    for d in range(4):
        b = 4 * d
        ok[d] = avail[b] & avail[b + 1] & avail[b + 2] & avail[b + 3]
        preds[d] = w[0] * vals[b] + w[1] * vals[b + 1] + w[2] * vals[b + 2] + w[3] * vals[b + 3]

    m = MIDPOINT_WEIGHTS
    # Vertical matrix = vertical line + both diagonals; its center weighs
    # only the vertical line. Horizontal likewise.
    ok[_SURFACE_VERTICAL] = ok[1] & ok[2] & ok[3]
    preds[_SURFACE_VERTICAL] = m[0] * vals[4] + m[1] * vals[5] + m[2] * vals[6] + m[3] * vals[7]
    ok[_SURFACE_HORIZONTAL] = ok[0] & ok[2] & ok[3]
    preds[_SURFACE_HORIZONTAL] = m[0] * vals[0] + m[1] * vals[1] + m[2] * vals[2] + m[3] * vals[3]

    all_lines = ok[0] & ok[1] & ok[2] & ok[3]
    if all_lines.any():
        lines = preds[:4]
        mean = (lines[0] + lines[1] + lines[2] + lines[3]) * 0.25
        dev = np.abs(lines - mean)
        worst = dev.argmax(axis=0)  # first index wins ties
        worst_val = np.take_along_axis(lines, worst[None], axis=0)[0]
        replaced = lines.copy()
        np.put_along_axis(replaced, worst[None], ((4.0 * mean - worst_val) / 3.0)[None], axis=0)
        preds[:4] = np.where(all_lines[None, :, None], replaced, lines)

    total = np.zeros((k, channels), dtype=np.float64)
    count = np.zeros(k, dtype=np.int64)
    for s in range(_N_SLOTS):
        total += np.where(ok[s][:, None], preds[s], 0.0)
        count += ok[s]
    fillable = count > 0
    predicted = total / np.maximum(count, 1)[:, None]
    return predicted, fillable


def _fill_round(values: np.ndarray, missing: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                clamp_range: tuple[float, float], pool: ThreadPoolExecutor, workers: int) -> np.ndarray:
    """Predict the given missing coordinates from the current state, then
    commit the fillable ones into ``values`` in place.

    Every prediction is made before anything is written, so the round
    keeps Jacobi semantics however its work is split across ``workers``.
    ``missing`` is not modified. Returns the boolean fillable set over the
    given coordinates.
    """
    if workers <= 1 or rows.size < 2 * workers:
        parts = [(rows, cols, *_predict_many(values, missing, rows, cols))]
    else:
        chunks = list(zip(np.array_split(rows, workers), np.array_split(cols, workers)))
        futures = [pool.submit(_predict_many, values, missing, r, c) for r, c in chunks]
        parts = [(r, c, *f.result()) for (r, c), f in zip(chunks, futures)]
    lo, hi = clamp_range
    for r, c, predicted, fillable in parts:
        values[r[fillable], c[fillable]] = np.clip(predicted[fillable], lo, hi)
    return np.concatenate([fillable for *_, fillable in parts])


def run_pass(values: np.ndarray, missing: np.ndarray, config: EngineConfig | None = None, workers: int = 1):
    """One Jacobi fill round over the current missing set.

    ``values`` is the (height, width, channels) pre-pass state and is not
    modified; ``missing`` marks pixels still to fill. Every missing pixel
    with at least one available predictor slot is committed (clamped to
    the configured range) into the returned copy. Returns
    (new_values, filled) where ``filled`` is the boolean newly-filled set.
    """
    config = config or EngineConfig()
    squeeze = values.ndim == 2
    if squeeze:
        values = values[:, :, np.newaxis]
    new_values = values.copy()
    rows, cols = np.nonzero(missing)
    with ThreadPoolExecutor(max_workers=max(workers, 1)) as pool:
        fillable = _fill_round(new_values, missing, rows, cols, config.clamp_range, pool, workers)
    filled = np.zeros(missing.shape, dtype=bool)
    filled[rows[fillable], cols[fillable]] = True
    return (new_values[:, :, 0] if squeeze else new_values), filled


def _jacobi_rounds(values: np.ndarray, degraded: np.ndarray, config: EngineConfig, workers: int):
    """Run fill rounds over ``values`` in place until one fills nothing,
    no hole remains, or ``config.max_passes`` rounds have run.

    Returns (fill counts per round, the residual missing set). A hole's
    slot availability depends only on the missing state of its 16
    NEIGHBOR_OFFSETS pixels, so a hole that a round left unfilled can
    become fillable only once one of those pixels is filled. Each round
    after the first therefore re-predicts just the remaining holes next
    to a pixel that the round before filled; when there are none, the
    round fills 0 and ends the loop. The holes are kept as a compacted
    list of flat indices into a grid padded by 2 on every side, so
    neighbour offsets need no bounds checks.
    """
    height, width = degraded.shape
    stride = width + 4
    padded = np.zeros((height + 4, stride), dtype=bool)
    padded[2:-2, 2:-2] = degraded
    missing = padded[2:-2, 2:-2]
    missing_at = padded.ravel()
    near_filled = np.zeros_like(missing_at)
    offsets = [dr * stride + dc for dr, dc in NEIGHBOR_OFFSETS]
    holes = np.flatnonzero(missing_at)
    candidates = holes
    fill_counts: list[int] = []
    with ThreadPoolExecutor(max_workers=max(workers, 1)) as pool:
        while holes.size and len(fill_counts) < config.max_passes:
            rows, cols = np.divmod(candidates, stride)
            fillable = _fill_round(values, missing, rows - 2, cols - 2, config.clamp_range, pool, workers)
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
    return fill_counts, missing


def _integral(plane: np.ndarray) -> np.ndarray:
    out = np.zeros((plane.shape[0] + 1, plane.shape[1] + 1), dtype=np.float64)
    out[1:, 1:] = plane.cumsum(axis=0).cumsum(axis=1)
    return out


def _fallback_fill(values: np.ndarray, missing: np.ndarray, config: EngineConfig) -> int:
    """Fill residual pixels with the mean of the smallest centered odd
    window that contains a known pixel (else 128). Mutates ``values``."""
    rows, cols = np.nonzero(missing)
    if rows.size == 0:
        return 0
    height, width, channels = values.shape
    known = ~missing
    lo, hi = config.clamp_range
    out = np.full((rows.size, channels), 128.0)
    if known.any():
        count_int = _integral(known.astype(np.float64))
        sum_ints = [_integral(values[:, :, ch] * known) for ch in range(channels)]
        remaining = np.ones(rows.size, dtype=bool)
        for half in range(1, config.fallback_window_limit // 2 + 1):
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
    values[rows, cols] = np.clip(out, lo, hi)
    return rows.size


def inpaint_report(image: Image, mask: Mask, config: EngineConfig | None = None, workers: int = 1) -> InpaintReport:
    """Restore every masked pixel and report pass/fill statistics.

    Channels are processed independently against the shared mask;
    unmasked pixels are returned bit-identical to the input.
    """
    config = config or EngineConfig()
    require_same_grid(image, mask)
    values = image.data.copy()
    fill_counts, missing = _jacobi_rounds(values, mask.degraded, config, workers)
    fallback_count = _fallback_fill(values, missing, config)
    return InpaintReport(
        image=Image(values),
        passes=len(fill_counts),
        pass_fill_counts=tuple(fill_counts),
        fallback_filled=fallback_count,
    )


def inpaint(image: Image, mask: Mask, config: EngineConfig | None = None, workers: int = 1) -> Image:
    """Restore every masked pixel; see inpaint_report for details."""
    return inpaint_report(image, mask, config, workers=workers).image
