"""Image/mask data model and a binary PNM (PGM/PPM) codec.

Intensities are stored as float64 so that fractional predictions survive
intermediate processing; quantization of an image to 8-bit happens
only in :func:`save_pnm`. Masks are boolean grids where True marks a
degraded pixel; they are read from and written to PGM bytes directly,
never through a float image. The stored intensity of a degraded pixel
is never trusted: the mask is the sole source of truth for missingness.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class PnmError(ValueError):
    """Malformed or unsupported PNM file content."""


class DimensionMismatch(ValueError):
    """Paired image/mask grids have different dimensions."""


@dataclass(frozen=True)
class Image:
    """A height x width x channels grid of real-valued intensities.

    ``channels`` is 1 (grayscale) or 3 (RGB). The nominal range is
    [0, 255]; construction only enforces real, finite samples so that
    synthetic test fields and unclamped predictions can be represented.
    Samples are stored as float64. Complex samples raise ValueError;
    boolean and integer samples are finite by type and are not scanned.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data)
        kind = arr.dtype.kind
        if kind == "c":
            raise ValueError("image samples must be real")
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim == 2:
            arr = arr[:, :, np.newaxis]
        if arr.ndim != 3:
            raise ValueError(f"image data must be 2-D or 3-D, got ndim={arr.ndim}")
        if arr.shape[2] not in (1, 3):
            raise ValueError(f"channel count must be 1 or 3, got {arr.shape[2]}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"image must be at least 1x1, got {arr.shape[1]}x{arr.shape[0]}")
        if kind not in "biu" and not np.isfinite(arr).all():
            raise ValueError("image samples must be finite")
        object.__setattr__(self, "data", arr)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]


def _require_count(name: str, value, low: int) -> None:
    """Raise ValueError unless ``value`` is an integer >= ``low``; a bool
    is not an integer here."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _finite_image(data: np.ndarray) -> Image:
    """Wrap float64 (height, width, 1|3) samples that the library made
    finite itself, without the checks and scans of Image's construction."""
    image = object.__new__(Image)
    object.__setattr__(image, "data", data)
    return image


@dataclass(frozen=True)
class Mask:
    """Boolean degradation map; True = pixel is missing."""

    degraded: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.degraded)
        if arr.ndim != 2:
            raise ValueError(f"mask must be 2-D, got ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"mask must be at least 1x1, got {arr.shape[1]}x{arr.shape[0]}")
        object.__setattr__(self, "degraded", arr.astype(bool))

    @property
    def height(self) -> int:
        return self.degraded.shape[0]

    @property
    def width(self) -> int:
        return self.degraded.shape[1]

    @property
    def degraded_count(self) -> int:
        return int(self.degraded.sum())


def require_same_grid(a: Image | Mask, b: Image | Mask, a_name: str = "image", b_name: str = "mask") -> None:
    """Raise DimensionMismatch unless both grids share width and height."""
    if (a.height, a.width) != (b.height, b.width):
        raise DimensionMismatch(
            f"{a_name} is {a.width}x{a.height} but {b_name} is {b.width}x{b.height}"
        )


# One header token after any whitespace and '#' comments. A comment
# runs to the end of its line; the lookahead keeps it from giving any
# of that back. Bytes-pattern \s is exactly PNM's six whitespace bytes.
_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*(?![^\r\n]))*([^\s#]+)")


def _read_pnm(path: str | os.PathLike) -> np.ndarray:
    """The samples of a binary P5/P6 file with maxval 255, as a read-only
    uint8 (height, width, channels) view of the file's bytes."""
    data = Path(path).read_bytes()
    pos, tokens = 0, []
    for field in ("magic", "width", "height", "maxval"):
        match = _TOKEN.match(data, pos)
        if match is None:
            raise PnmError(f"truncated header: missing {field}")
        token, pos = match[1], match.end()
        if not tokens and token not in (b"P5", b"P6"):
            raise PnmError(f"unsupported magic {token!r} (expected P5 or P6)")
        if tokens and not token.isdigit():
            raise PnmError(f"invalid {field} {token!r}")
        tokens.append(token)
    width, height, maxval = map(int, tokens[1:])
    channels = 1 if tokens[0] == b"P5" else 3
    if width < 1 or height < 1:
        raise PnmError(f"invalid dimensions {width}x{height}")
    if maxval != 255:
        raise PnmError(f"unsupported maxval {maxval} (only 255)")
    if not data[pos : pos + 1].isspace():
        raise PnmError("malformed header: missing whitespace before pixel data")
    expected, got = width * height * channels, len(data) - pos - 1
    if got < expected:
        raise PnmError(f"truncated payload: expected {expected} bytes, got {got}")
    samples = np.frombuffer(data, dtype=np.uint8, count=expected, offset=pos + 1)
    return samples.reshape(height, width, channels)


def _write_pnm(samples: np.ndarray, path: str | os.PathLike) -> None:
    """Write C-contiguous uint8 (height, width, channels) samples as P5/P6."""
    height, width, channels = samples.shape
    with open(path, "wb") as f:
        f.write(f"{'P5' if channels == 1 else 'P6'}\n{width} {height}\n255\n".encode("ascii"))
        f.write(samples)


def load_pnm(path: str | os.PathLike) -> Image:
    """Load a binary PGM ("P5", grayscale) or PPM ("P6", RGB) file.

    Only maxval 255 is supported; samples are widened to float64
    without rescaling.
    """
    return Image(_read_pnm(path))


# Bytes of float64 samples in one block of rows, small enough that
# save_pnm's range check and quantization, and psnr's squared
# differences, read it from cache.
_BLOCK_BYTES = 1 << 18


def _block_rows(data: np.ndarray) -> int:
    """Rows of ``data`` in one block of at most _BLOCK_BYTES; at least one."""
    return max(_BLOCK_BYTES // data[0].nbytes, 1)


def save_pnm(image: Image, path: str | os.PathLike) -> None:
    """Write a binary P5/P6 file, rounding samples half-up to integers.

    Requires all samples in [0, 255] (ValueError otherwise, naming the
    image's min and max); round-tripping an integer-valued image through
    save/load reproduces it exactly. The samples are read once, a block
    of rows at a time that is range-checked and then quantized, and
    nothing is written unless every sample is in range.
    """
    data = image.data
    rows = _block_rows(data)
    quantized = np.empty(data.shape, dtype=np.uint8)
    for start in range(0, len(data), rows):
        block = data[start : start + rows]
        if block.min() < 0.0 or block.max() > 255.0:
            raise ValueError(
                f"samples outside [0, 255] (min {data.min():g}, max {data.max():g}); clamp before saving"
            )
        # block + 0.5 lies in [0.5, 255.5], where the truncating cast is
        # floor; the sum is cast as it is made, without a float copy.
        np.add(block, 0.5, out=quantized[start : start + rows], casting="unsafe")
    _write_pnm(quantized, path)


def mask_from_pgm(path: str | os.PathLike) -> Mask:
    """Read a P5 file as a mask: pixel value 0 = intact, nonzero = degraded."""
    samples = _read_pnm(path)
    if samples.shape[2] != 1:
        raise PnmError("mask must be a grayscale P5 file")
    return Mask(samples[:, :, 0] != 0)


def mask_to_pgm(mask: Mask, path: str | os.PathLike) -> None:
    """Write a mask as a P5 file using the 0 = intact, 255 = degraded convention."""
    _write_pnm(np.where(mask.degraded[:, :, None], np.uint8(255), np.uint8(0)), path)
