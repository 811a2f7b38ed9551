"""Restoration of line-type image defects by aggregated cubic predictions.

The engine fills mask-marked pixels by averaging up to six candidates per
pixel: four directional cubic-fit line predictions and two bicubic
surface centers, each a fixed weighting of four line pixels (see
``linemend.kernels``). A seeded scratch generator and PSNR/SSIM scoring
round out the evaluation pipeline.
"""

from .degrade import LineSpec, apply_mask, generate_line_mask
from .engine import EngineConfig, InpaintReport, inpaint, inpaint_report, run_pass
from .kernels import predict_line_center
from .metrics import psnr, ssim
from .raster import (
    DimensionMismatch,
    Image,
    Mask,
    PnmError,
    load_pnm,
    mask_from_pgm,
    mask_to_pgm,
    save_pnm,
)

__version__ = "0.1.0"

__all__ = [
    "DimensionMismatch",
    "EngineConfig",
    "Image",
    "InpaintReport",
    "LineSpec",
    "Mask",
    "PnmError",
    "apply_mask",
    "generate_line_mask",
    "inpaint",
    "inpaint_report",
    "load_pnm",
    "mask_from_pgm",
    "mask_to_pgm",
    "predict_line_center",
    "psnr",
    "run_pass",
    "save_pnm",
    "ssim",
]
