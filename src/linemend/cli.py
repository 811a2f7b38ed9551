"""Command-line interface: inpaint, degrade, eval, and sweep subcommands.

Every command is deterministic given its arguments; sweep CSV output uses
"." decimals and "\\n" line endings regardless of locale.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

from .degrade import LineSpec, apply_mask, generate_line_mask
from .engine import EngineConfig, inpaint, inpaint_report
from .metrics import psnr, ssim
from .raster import (
    DimensionMismatch,
    Image,
    PnmError,
    load_pnm,
    mask_from_pgm,
    mask_to_pgm,
    save_pnm,
)

SWEEP_CSV_HEADER = "param_name,param_value,seed,psnr_db,ssim"


@dataclass(frozen=True)
class SweepRecord:
    param_name: str
    param_value: int
    seed: int
    psnr_db: float
    ssim: float


def run_sweep(image: Image, mode: str, lo: int, hi: int, seeds: int) -> list[SweepRecord]:
    """Degrade -> inpaint -> score over a parameter range and seed set.

    mode "lines" sweeps the defect-line count at width 1; mode "width"
    sweeps the line width with two lines. Records are ordered by
    (param_value, seed). Raises ValueError on an unknown mode, fewer
    than one seed or an empty range.
    """
    if mode not in ("lines", "width"):
        raise ValueError(f"unknown sweep mode {mode!r}")
    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds}")
    if lo > hi:
        raise ValueError(f"empty sweep range: min {lo} > max {hi}")
    records = []
    for value in range(lo, hi + 1):
        for seed in range(seeds):
            if mode == "lines":
                spec = LineSpec(count=value, width=1, seed=seed)
            else:
                spec = LineSpec(count=2, width=value, seed=seed)
            mask = generate_line_mask(image.width, image.height, spec)
            degraded = apply_mask(image, mask)
            restored = inpaint(degraded, mask)
            records.append(
                SweepRecord(
                    param_name=mode,
                    param_value=value,
                    seed=seed,
                    psnr_db=psnr(image, restored),
                    ssim=ssim(image, restored),
                )
            )
    return records


def format_sweep_csv(records: list[SweepRecord]) -> str:
    lines = [SWEEP_CSV_HEADER]
    for r in sorted(records, key=lambda r: (r.param_value, r.seed)):
        lines.append(f"{r.param_name},{r.param_value},{r.seed},{r.psnr_db:.4f},{r.ssim:.4f}")
    return "\n".join(lines) + "\n"


def _cmd_inpaint(args) -> int:
    image = load_pnm(args.input)
    mask = mask_from_pgm(args.mask)
    report = inpaint_report(image, mask, EngineConfig(max_passes=args.max_passes))
    save_pnm(report.image, args.output)
    print(f"passes={report.passes}")
    print(f"filled_predictor={report.predictor_filled}")
    print(f"filled_fallback={report.fallback_filled}")
    return 0


def _cmd_degrade(args) -> int:
    image = load_pnm(args.input)
    spec = LineSpec(count=args.lines, width=args.width, seed=args.seed)
    mask = generate_line_mask(image.width, image.height, spec)
    degraded = apply_mask(image, mask)
    mask_to_pgm(mask, args.mask)
    save_pnm(degraded, args.output)
    print(f"seed={spec.seed}")
    print(f"degraded_pixels={mask.degraded_count}")
    return 0


def _cmd_eval(args) -> int:
    reference = load_pnm(args.reference)
    test = load_pnm(args.test)
    p = psnr(reference, test)
    s = ssim(reference, test)
    print("psnr_db=inf" if p == float("inf") else f"psnr_db={p:.4f}")
    print(f"ssim={s:.4f}")
    return 0


def _cmd_sweep(args) -> int:
    image = load_pnm(args.input)
    lo = args.min if args.min is not None else 1
    hi = args.max if args.max is not None else (10 if args.mode == "lines" else 15)
    records = run_sweep(image, args.mode, lo, hi, args.seeds)
    Path(args.csv).write_text(format_sweep_csv(records), encoding="ascii", newline="")
    for value in range(lo, hi + 1):
        group = [r.psnr_db for r in records if r.param_value == value]
        mean = sum(group) / len(group)
        print(f"{args.mode}={value} mean_psnr_db={mean:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="linemend", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inpaint", help="restore the masked pixels of an image")
    p.add_argument("--input", required=True, help="degraded image (P5/P6)")
    p.add_argument("--mask", required=True, help="mask PGM (nonzero = degraded)")
    p.add_argument("--output", required=True, help="restored image path")
    p.add_argument("--max-passes", type=int, default=64)
    p.set_defaults(func=_cmd_inpaint)

    p = sub.add_parser("degrade", help="draw synthetic defect lines on an image")
    p.add_argument("--input", required=True, help="source image (P5/P6)")
    p.add_argument("--lines", type=int, required=True, help="number of defect lines")
    p.add_argument("--width", type=int, default=1, help="line width in pixels")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mask", required=True, help="output mask PGM path")
    p.add_argument("--output", required=True, help="output degraded image path")
    p.set_defaults(func=_cmd_degrade)

    p = sub.add_parser("eval", help="print PSNR and SSIM of test vs reference")
    p.add_argument("--reference", required=True)
    p.add_argument("--test", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="degrade/inpaint/eval over a parameter range")
    p.add_argument("--input", required=True, help="clean source image")
    p.add_argument("--mode", choices=("lines", "width"), required=True)
    p.add_argument("--min", type=int, default=None, help="range start (default 1)")
    p.add_argument("--max", type=int, default=None, help="range end (default 10 lines / 15 width)")
    p.add_argument("--seeds", type=int, default=10, help="seeds 0..N-1 per parameter value")
    p.add_argument("--csv", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PnmError, DimensionMismatch, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
