"""Multi-pass restoration engine for mask-marked defects.

Filling proceeds in Jacobi rounds: every still-missing pixel is
predicted from the previous round's state only, so results are
independent of pixel visitation order. Per missing pixel and channel,
the predictions of the available slots are averaged: four directional
line predictions, each kernels.LINE_CENTER_WEIGHTS over one line, and
two surface predictions, kernels.SURFACE_CENTER_WEIGHTS over the
vertical or the horizontal line. A line slot is available when its line
has all four pixels known, a surface slot when its axis line and both
diagonals have. When all four line predictions exist, the one most
deviant from their mean is first replaced by the mean of the other
three. Rounds stop when one fills nothing, no hole remains, or the pass
cap is reached; see _jacobi_rounds for how a round picks and predicts
its holes.

Pixels that never acquire a complete predictor line (deep hole
interiors) are finished by the mean of the known pixels in the smallest
centered odd window up to 21 x 21 that holds one, else 128; see
_fallback_fill. The rounds and the fallback keep one record of which
pixels are missing, an int8 state grid padded by the fallback's reach,
and one list of the holes left in it; see _jacobi_rounds. An image with
no known pixel is filled with 128 at once, with no round run. Every
committed value is clamped to [0, 255].
Every round runs on the calling thread; the ``workers`` argument of the
public functions is accepted and has no effect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import LINE_CENTER_WEIGHTS, NEIGHBOR_OFFSETS, SURFACE_CENTER_WEIGHTS
from .raster import DimensionMismatch, Image, Mask, _finite_image, _require_count, require_same_grid


@dataclass(frozen=True)
class EngineConfig:
    """The cap on Jacobi fill rounds, an integer >= 1 (ValueError otherwise)."""

    max_passes: int = 64

    def __post_init__(self):
        _require_count("max_passes", self.max_passes, 1)


@dataclass(frozen=True)
class InpaintReport:
    """Outcome of a full restoration run: the restored image, the number
    of holes each Jacobi round filled, and ``fallback_filled``, the
    number of holes the rounds left, each of which the fallback filled
    with its box mean or 128."""

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
# Candidate holes per chunk of a fill round, and of the fallback's
# neighbour checks, so that their temporaries do not grow with the hole
# count.
_ROUND_CHUNK = 4096


def run_pass(values: np.ndarray, missing: np.ndarray, config: EngineConfig | None = None, workers: int = 1):
    """One Jacobi fill round over the current missing set: the first
    round of inpaint_report's loop.

    ``values`` is the (height, width) or (height, width, channels)
    pre-pass state. It is read as float64 like an Image's data
    (ValueError if a sample is complex or not finite) and is not modified.
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
    _, state, _ = _jacobi_rounds(new_values, missing, 1)
    reach = _FALLBACK_REACH
    filled = missing & (state[reach:-reach, reach:-reach] == 0)
    return (new_values[:, :, 0] if squeeze else new_values), filled


def _jacobi_rounds(values: np.ndarray, degraded: np.ndarray, max_passes: int):
    """Run fill rounds over the C-contiguous ``values`` in place until one
    fills nothing, no hole remains, or ``max_passes`` rounds have run.

    Returns (fill counts per round, the state grid, the residual holes).
    The state grid is the engine's one record of missingness: an int8
    grid padded by _FALLBACK_REACH on every side that holds 0 at known
    pixels, 1 at holes and 2 off the image, and to which _fallback_fill
    adds -1 for the holes it fills at an earlier half-width. The holes
    are a compacted list of their flat indices into it, in row-major
    order, with _cells giving their image indices; a round clears a
    filled hole's code to 0 and drops it from the list.

    A hole's slot availability depends only on the missing state of its
    16 NEIGHBOR_OFFSETS pixels, so a hole that a round left unfilled can
    become fillable only once one of those pixels is filled, and
    re-predicting it before then fills nothing. Each round after the
    first picks its candidates from the yield of the round before. When
    that round filled at least as many holes as remain, it re-checks
    every remaining hole. Otherwise it flags the 16 stencil neighbours of
    each filled hole in a bool array the size of the state grid, made in
    the first round that needs it, by one assignment per slice of at most
    _ROUND_CHUNK filled holes, and re-predicts just the remaining holes
    that are flagged; when there are none, the round fills 0 and ends the
    loop. Either way the bytes are the same.

    A round predicts its candidate holes in consecutive chunks of at most
    _ROUND_CHUNK (4096) and commits each chunk into ``values``, clamped to
    [0, 255], before the next. That is still one Jacobi round: a round
    reads only pixels that were known before it, since the state changes
    only between rounds, and writes only its holes. Its memory is one
    chunk's temporaries plus the holes it filled, whatever the hole
    count. The padding counts as missing, so a hole's 16 neighbours sit
    at fixed flat offsets with no bounds checks. In a chunk, one gather
    of those codes gives each line's completeness, and one AND of the
    two diagonals' gives the surfaces', which each also need their axis
    line. Each line's four taps are then read once, by one ``np.take`` of
    whole pixels over a (4, holes) index at the holes where that line is
    complete, so every tap read is a known pixel. Those taps feed the
    line's slot and, for lines 1 and 0, the surface slot 4 or 5 that
    weighs them. The outlier step rewrites the most deviant line
    prediction with one ``np.where`` over all four. It runs only in a
    chunk that has a hole with all four lines complete, the only holes
    it can change.
    """
    height, width, channels = values.shape
    reach = _FALLBACK_REACH
    stride = width + 2 * reach
    grid = np.full((height + 2 * reach, stride), 2, dtype=np.int8)
    grid[reach:-reach, reach:-reach] = degraded
    state = grid.ravel()
    # The image indices of the holes, from the bool mask (np.flatnonzero
    # scans bool much faster than int8, and this makes no temporary the
    # size of the grid), shifted in place by the padding before their row.
    holes = np.flatnonzero(degraded)
    holes += holes // width * (2 * reach) + (reach * stride + reach)
    offsets = np.array([dr * stride + dc for dr, dc in NEIGHBOR_OFFSETS]).reshape(4, 4, 1)  # a row per line
    taps = np.array([dr * width + dc for dr, dc in NEIGHBOR_OFFSETS]).reshape(4, 4, 1)  # a row per line
    # Slots 0-3 weigh their own line; surface slot 5 - d weighs line d < 2.
    line_weights = LINE_CENTER_WEIGHTS[:, None, None]
    surface_weights = SURFACE_CENTER_WEIGHTS[:, None, None]
    line_index = np.arange(4)[:, None, None]
    flat = values.reshape(-1, channels)

    # A function, so that a chunk's arrays are freed when it returns,
    # before the next chunk, the bookkeeping and the next round run.
    def fill_chunk(chunk: np.ndarray) -> np.ndarray:
        complete = ~state[offsets + chunk].any(axis=1)  # (4 lines, chunk)
        # Every slot needs the line it weighs, so a hole is fillable when
        # one of its lines is complete.
        fillable = complete.any(axis=0)
        complete = np.compress(fillable, complete, axis=1)
        filled = chunk[fillable]
        cells = _cells(filled, width)
        # Surface slots 4 and 5 need line 1 or 0 and both diagonals.
        diagonals = complete[2] & complete[3]

        # A sum over axis 0 adds the weighted taps in the order of
        # w0*v0 + w1*v1 + w2*v2 + w3*v3, only starting from +0. That can
        # turn a -0 prediction into +0, as the slot sum below, also
        # started from +0, does anyway.
        preds = np.zeros((6, cells.size, channels), dtype=np.float64)
        for d in range(4):
            at = np.flatnonzero(complete[d])
            v = np.take(flat, taps[d] + cells[at], axis=0)
            if d < 2:
                preds[5 - d, at] = np.where(diagonals[at, None], (v * surface_weights).sum(axis=0), 0.0)
            v *= line_weights
            preds[d, at] = v.sum(axis=0)

        all_lines = complete.all(axis=0)
        if all_lines.any():
            lines = np.compress(all_lines, preds[:4], axis=1)
            mean = (lines[0] + lines[1] + lines[2] + lines[3]) * 0.25
            worst = np.abs(lines - mean).argmax(axis=0)  # first index wins ties
            preds[:4, all_lines] = np.where(line_index == worst, (4.0 * mean - lines) / 3.0, lines)

        # preds is zero where a slot is not available; at most 6 are.
        available = complete.sum(axis=0, dtype=np.uint8) + (complete[:2] & diagonals).sum(axis=0, dtype=np.uint8)
        flat[cells] = np.clip(preds.sum(axis=0) / available[:, None], 0.0, 255.0)
        return filled

    candidates = holes
    near_filled = None
    fill_counts: list[int] = []
    while holes.size and len(fill_counts) < max_passes:
        chunks = range(0, candidates.size, _ROUND_CHUNK)
        done = np.concatenate([candidates[:0]] + [fill_chunk(candidates[i : i + _ROUND_CHUNK]) for i in chunks])
        fill_counts.append(done.size)
        if done.size == 0:
            break
        state[done] = 0
        holes = holes[state[holes] == 1]
        if done.size >= holes.size:
            # Re-checking every remaining hole costs less than 16 flag
            # writes per filled hole, and a hole whose stencil the round
            # did not change fills nothing.
            candidates = holes
            continue
        if near_filled is None:
            near_filled = np.zeros(state.size, dtype=bool)
        # A (16, slice) index is no larger than a chunk's offsets + chunk.
        for i in range(0, done.size, _ROUND_CHUNK):
            near_filled[done[i : i + _ROUND_CHUNK] - offsets.reshape(16, 1)] = True
        # Only flags at remaining holes are ever read, so clearing
        # those is enough; flags left on known pixels are never seen.
        candidates = holes[near_filled[holes]]
        near_filled[candidates] = False
    return fill_counts, grid, holes


def _cells(at: np.ndarray, width: int) -> np.ndarray:
    """The image flat indices of the state grid's flat indices ``at``,
    for an image ``width`` pixels wide."""
    rows, cols = np.divmod(at, width + 2 * _FALLBACK_REACH)
    return (rows - _FALLBACK_REACH) * width + (cols - _FALLBACK_REACH)


def _ring(half: int) -> tuple[np.ndarray, np.ndarray]:
    """The (8 * half, 1) row and column offsets at Chebyshev distance
    ``half``, in row-major order."""
    steps = np.arange(-half, half + 1)
    dr, dc = np.meshgrid(steps, steps, indexing="ij")
    on = np.maximum(np.abs(dr), np.abs(dc)) == half
    return dr[on, None], dc[on, None]


def _fallback_fill(values: np.ndarray, state: np.ndarray, pending: np.ndarray) -> None:
    """Fill the residual holes ``pending``, the flat indices of every hole
    left in the state grid ``state`` in row-major order (see
    _jacobi_rounds), with the mean of the known pixels in the smallest
    centered odd window up to 21 x 21 that contains one (else 128),
    clamped to [0, 255]. Mutates ``values`` and ``state``.

    A window grows past half-width h - 1 only while it holds no known
    pixel, so the known pixels of the window it stops at all lie on its
    ring, the 8h pixels at Chebyshev distance h from the hole, and the
    mean is theirs. A pending hole's ring at h holds a known pixel
    exactly when one of its 8 neighbours is known or was filled at a
    half-width below h: a known pixel at distance h lies at h - 1 from a
    neighbour, and none lies nearer. The grid's padding is the reach, so
    every ring lies inside it. Each half-width first checks the neighbours
    of every pending hole for a code of 0 or -1, then reads the rings of
    the holes that pass, and marks them -1 only after, so no check sees
    a hole filled at the same half-width. A ring is one ``np.take`` of
    whole pixels, multiplied by the grid's known flags, so no value
    stored or written at a hole enters a mean. Its taps are added in one
    fixed order, one ring pixel at a time, so a hole's mean depends
    neither on its chunk nor on the channel count. A ring of integer
    pixels (below 2**46 in magnitude) has an exact sum, so its mean is
    the correctly rounded quotient.

    Beside ``pending``, the memory is about 18 bytes per pending hole
    (its split into found and pending, and the flags that split it) and
    one chunk's temporaries: the neighbour check takes _ROUND_CHUNK holes
    at a time and a ring read _ROUND_CHUNK // h, at most 8 * _ROUND_CHUNK
    taps. Nothing grows with the image.
    """
    width, channels = values.shape[1:]
    stride = state.shape[1]
    state = state.ravel()
    flat = values.reshape(-1, channels)
    dr, dc = _ring(1)
    neighbours = dr * stride + dc
    for half in range(1, _FALLBACK_REACH + 1):
        if pending.size == 0:
            break
        dr, dc = _ring(half)
        grid_taps, image_taps = dr * stride + dc, dr * width + dc
        step = max(_ROUND_CHUNK // half, 1)
        passed = np.zeros(pending.size, dtype=bool)
        for i in range(0, pending.size, _ROUND_CHUNK):
            passed[i : i + _ROUND_CHUNK] = (state[neighbours + pending[i : i + _ROUND_CHUNK]] <= 0).any(axis=0)
        found, pending = pending[passed], pending[~passed]
        for i in range(0, found.size, step):
            chunk = found[i : i + step]
            known = state[grid_taps + chunk] == 0
            at = _cells(chunk, width)
            taps = np.take(flat, image_taps + at, axis=0, mode="clip")
            taps *= known[:, :, None]
            # Row by row, not taps.sum(axis=0), which adds pairwise or
            # not depending on the chunk and channel count.
            sums = taps[0].copy()
            for row in taps[1:]:
                sums += row
            flat[at] = np.clip(sums / known.sum(axis=0)[:, None], 0.0, 255.0)
        state[found] = -1
    flat[_cells(pending, width)] = 128.0


def inpaint_report(image: Image, mask: Mask, config: EngineConfig | None = None, workers: int = 1) -> InpaintReport:
    """Restore every masked pixel and report pass/fill statistics.

    Channels are processed independently against the shared mask;
    unmasked pixels are returned bit-identical to the input. A fully
    masked image reports one round of 0 and every pixel as filled by the
    fallback, with 128. ``workers`` is accepted and has no effect: every
    round runs on the calling thread.
    """
    config = config or EngineConfig()
    require_same_grid(image, mask)
    if mask.degraded.all():
        # No pixel is known: no slot is ever available and no window
        # holds a known pixel, so the one round fills none and the
        # fallback gives every pixel 128.
        data = np.full(image.data.shape, 128.0)
        return InpaintReport(image=_finite_image(data), pass_fill_counts=(0,), fallback_filled=mask.degraded.size)
    values = image.data.copy()
    fill_counts, state, holes = _jacobi_rounds(values, mask.degraded, config.max_passes)
    _fallback_fill(values, state, holes)
    return InpaintReport(image=_finite_image(values), pass_fill_counts=tuple(fill_counts), fallback_filled=holes.size)


def inpaint(image: Image, mask: Mask, config: EngineConfig | None = None, workers: int = 1) -> Image:
    """Restore every masked pixel; see inpaint_report for details."""
    return inpaint_report(image, mask, config).image
