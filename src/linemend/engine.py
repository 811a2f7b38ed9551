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
known pixels in a growing window of at most 21 x 21: the box means of a
whole-image summed-area table, computed only at the table rows that
the windows' corners read. Every committed value is clamped to
[0, 255].

Per missing pixel and channel, the predictions of the available slots
of kernels.SLOTS are averaged: four directional line predictions and
two surface predictions. A slot is available when every line it names
has all four pixels known; a slot is gathered and predicted only where
it is available, so every tap read is a known pixel inside the image.
When all four line predictions exist, the one most deviant from their
mean is first replaced by the mean of the other three. Missing-ness is
read from a copy of the mask padded by 2 on every side whose border
counts as missing, so the 16 neighbours of a hole are fixed flat
offsets with no bounds checks.
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
# Bytes of summed-area rows the fallback makes per block, at least.
_FALLBACK_BLOCK_BYTES = 1 << 19


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

    ``values`` is the C-contiguous (height, width, channels) state. Each
    slot is gathered and predicted only at the holes where it is
    available, so every tap read is a known pixel. Every gather is made
    before the fillable holes are committed into ``values`` in place,
    clamped to [0, 255]. ``missing_at`` is not modified. Returns the
    boolean fillable set over ``holes``.
    """
    _, width, channels = values.shape
    stride = width + 4
    gaps = [
        np.logical_or.reduce([missing_at[holes + (dr * stride + dc)] for dr, dc in NEIGHBOR_OFFSETS[k : k + 4]])
        for k in range(0, len(NEIGHBOR_OFFSETS), 4)
    ]
    ok = ~np.array([np.logical_or.reduce([gaps[d] for d in lines]) for *_, lines in SLOTS])
    fillable = ok.any(axis=0)
    ok = ok[:, fillable]
    rows, cols = np.divmod(holes[fillable], stride)
    cells = (rows - 2) * width + (cols - 2)

    flat = values.reshape(-1, channels)
    preds = np.zeros((len(SLOTS), cells.size, channels), dtype=np.float64)
    for s, (first, w, _) in enumerate(SLOTS):
        at = np.flatnonzero(ok[s])
        base = cells[at]
        v0, v1, v2, v3 = (flat[base + (dr * width + dc)] for dr, dc in NEIGHBOR_OFFSETS[first : first + 4])
        preds[s, at] = w[0] * v0 + w[1] * v1 + w[2] * v2 + w[3] * v3

    all_lines = ok[0] & ok[1] & ok[2] & ok[3]  # slots 0-3 are the lines
    lines = preds[:4, all_lines]
    mean = (lines[0] + lines[1] + lines[2] + lines[3]) * 0.25
    worst = np.abs(lines - mean).argmax(axis=0)  # first index wins ties
    worst_val = np.take_along_axis(lines, worst[None], axis=0)[0]
    np.put_along_axis(lines, worst[None], ((4.0 * mean - worst_val) / 3.0)[None], axis=0)
    preds[:4, all_lines] = lines

    # preds is zero where a slot is not available.
    flat[cells] = np.clip(preds.sum(axis=0) / ok.sum(axis=0)[:, None], 0.0, 255.0)
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


def _fallback_windows(missing: np.ndarray, rows: np.ndarray, cols: np.ndarray, right: int):
    """Half-width of each hole's smallest window that holds a known
    pixel (0 when none up to the largest does), and its known-pixel count.

    A window grows past half-width h - 1 only when it holds nothing but
    holes, so the windows read summed-area rows and columns at most 1
    before and 2 after a row or column that holds a hole. Counts are
    integers, exact in any order of addition: they come from a table over
    just the band of rows next to the hole rows, ending at column
    ``right``, and freed on return, before the fallback makes its sums.
    """
    height = missing.shape[0]
    reach = _FALLBACK_REACH
    # Table row t is in the band when one of image rows t-2 .. t+1
    # holds a hole; at[t] is its position in the band.
    hole_row = np.zeros(height + 4, dtype=bool)
    hole_row[rows + 2] = True
    in_band = hole_row[:-3] | hole_row[1:-2] | hole_row[2:-1] | hole_row[3:]
    band = np.flatnonzero(in_band)
    at = np.cumsum(in_band) - 1
    # Counts over the band, padded by `reach` on every side with what a
    # clipped window corner would read, so each corner of a half-width
    # sits at one offset from `corner`, the top left of a hole's largest
    # window. int32 sums wrap modulo 2**32, which leaves a window's count
    # exact.
    span = right + 1 + 2 * reach
    counts = np.zeros((band.size + 2 * reach, span), dtype=np.int32)
    core = counts[reach + 1 : reach + band.size, reach + 1 : reach + 1 + right]
    np.logical_not(missing[band[:-1], :right], out=core)
    np.cumsum(core, axis=1, out=core)
    np.cumsum(core, axis=0, out=core)
    counts[reach + band.size :] = counts[reach + band.size - 1]
    counts[:, reach + 1 + right :] = counts[:, reach + right, None]
    flat = counts.ravel()
    corner = at[rows] * span + cols
    halves = np.zeros(rows.size, dtype=np.intp)
    known_in = np.zeros(rows.size, dtype=np.int32)
    pending = np.arange(rows.size)
    for half in range(1, reach + 1):
        top, bottom = (reach - half) * span, (reach + half + 1) * span
        lo, hi = reach - half, reach + half + 1
        count = (
            flat[bottom + hi :][corner] - flat[top + hi :][corner]
            - flat[bottom + lo :][corner] + flat[top + lo :][corner]
        )
        halves[pending] = half
        known_in[pending] = count
        keep = count == 0
        pending, corner = pending[keep], corner[keep]
        if pending.size == 0:
            break
    halves[pending] = 0  # no window up to the largest holds a known pixel
    return halves, known_in


def _fallback_fill(values: np.ndarray, missing: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> int:
    """Fill the residual holes at (``rows``, ``cols``), which are all the
    pixels of ``missing`` in row-major order, with the mean of the known
    pixels in the smallest centered odd window up to 21 x 21 that
    contains one (else 128). Mutates ``values``.

    The means are those of a whole-image summed-area table, evaluated only
    where a window corner reads it; _fallback_windows picks each hole's
    window. The channel sums keep the whole-image table's floating-point
    additions: one running row of axis-0 prefix sums, stored at the rows
    where a chosen window has its top or bottom edge and then summed
    along the row. Those rows are made in blocks of about
    _FALLBACK_BLOCK_BYTES and held two blocks at a time, so the memory
    they take grows with neither the image height nor the number of rows
    that hold holes.
    """
    if rows.size == 0:
        return 0
    height, width, channels = values.shape
    out = np.full((rows.size, channels), 128.0)
    if rows.size < height * width:  # some pixel is known
        right = min(int(cols.max()) + 2, width)
        halves, known_in = _fallback_windows(missing, rows, cols, right)
        fill = np.flatnonzero(halves)
        if fill.size:
            r, c, half = rows[fill], cols[fill], halves[fill]
            r0 = np.maximum(r - half, 0)
            r1 = np.minimum(r + half + 1, height)
            c0 = np.maximum(c - half, 0)
            c1 = np.minimum(c + half + 1, width)
            edge = np.zeros(height + 1, dtype=bool)
            edge[r0] = edge[r1] = True
            edges = np.flatnonzero(edge)
            slot = np.cumsum(edge) - 1
            # The edge rows are made a block at a time into a ring of two
            # blocks. A window spans at most 2 * reach + 1 edge rows, so
            # its top edge is still held when its bottom edge's block is
            # made, and its box is read then. A block is at least as large
            # as the four corner values of every hole, so the pass over the
            # holes that picks a block's own costs less than making it.
            stride = right + 1
            block = max(_FALLBACK_BLOCK_BYTES, fill.size * channels * 32) // (stride * channels * 8)
            block = min(max(block, 2 * _FALLBACK_REACH + 1), edges.size)
            ring = 2 * block
            blocks = -(-edges.size // block)
            sums = np.zeros((min(ring, edges.size), stride * channels))
            body = sums[:, channels:]
            cells = sums.reshape(-1, channels)
            bottom = slot[r1]
            bottom_block = bottom // block if blocks > 1 else None
            # Where the top and bottom edge rows of each window sit in the ring.
            top_at = slot[r0] % ring * stride
            bottom_at = bottom % ring * stride
            # The holes add +0 where the whole-image table added
            # values * 0.0, a +-0 that leaves a sum started from +0 as it is.
            values[rows, cols] = 0.0
            image_rows = values.reshape(height, -1)[:, : right * channels]
            acc = np.zeros(right * channels)  # table row t, without its column 0
            t = 0
            for j in range(blocks):
                stored = edges[j * block : (j + 1) * block].tolist()
                held = body[j * block % ring :][: len(stored)]
                # Table row t is row t-1 plus image row t-1, kept in the
                # block at its edges and in acc between them.
                dst = [acc] * (stored[-1] - t)
                for k, edge_row in enumerate(stored):
                    if edge_row == t:
                        held[k] = acc
                    else:
                        dst[edge_row - 1 - t] = held[k]
                prev = acc
                for image_row, row in zip(image_rows[t : stored[-1]], dst):
                    np.add(prev, image_row, row)
                    prev = row
                acc[:] = prev
                t = stored[-1]
                held = held.reshape(len(stored), right, channels)
                np.cumsum(held, axis=1, out=held)
                here = slice(None) if bottom_block is None else np.flatnonzero(bottom_block == j)
                up, down, lo, hi = top_at[here], bottom_at[here], c0[here], c1[here]
                box = (
                    np.take(cells, down + hi, axis=0) - np.take(cells, up + hi, axis=0)
                    - np.take(cells, down + lo, axis=0) + np.take(cells, up + lo, axis=0)
                )
                out[fill[here]] = box / known_in[fill[here], None]
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
