"""The three benchmark workloads.

Each workload builds its inputs in ``__init__`` (fixture generation and
file writes, timed as set-up), may write op ``i``'s input files in
``prepare(i)`` (untimed) and defines ``op(i, tr)``, the unit whose wall
time is measured. ``tr`` is a tracer from tracer.py; every call into
a linemend layer goes through ``tr.call`` so that failures are attributed
to their layer and, in a traced run, each call gets a span.

The clean image is always ``natural_image`` from tests/conftest.py with
its default seed 7 (seeds 7, 8, 9 for the three RGB channels). Only the
masks depend on the benchmark's ``--seed``.

Quality (psnr_db, ssim) is the mean over the first ``scored_ops`` ops, a
fixed set given the seed, so it does not depend on how many ops fit in
the run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass
class OpOutput:
    """What one op produced, kept only until it has been checked."""

    engine_input: object  # linemend Image handed to inpaint_report
    mask: object  # linemend Mask
    report: object  # linemend InpaintReport
    workers: int
    holes: int
    scores: tuple[float, float] | None = None  # (psnr_db, ssim) when the op scores
    bytes_read: int = 0  # bytes the op read through the OS (traced ops only)
    bytes_written: int = 0  # bytes the op wrote through the OS (traced ops only)


def check_restored(engine_input, mask, restored) -> list[str]:
    """Invariants every restoration must meet."""
    problems = []
    out = restored.data
    keep = ~mask.degraded
    if not np.array_equal(out[keep], engine_input.data[keep]):
        problems.append("unmasked pixels differ from the input")
    if not np.isfinite(out).all():
        problems.append("non-finite output")
    elif out.min() < 0.0 or out.max() > 255.0:
        problems.append(f"output outside [0, 255]: [{out.min():g}, {out.max():g}]")
    return problems


class IoCounter:
    """Bytes this process has read and written through read()/write()
    calls so far: ``rchar`` and ``wchar`` of Linux's /proc/self/io,
    minus what reading that file itself added to ``rchar``."""

    def __init__(self):
        self._own = 0

    def __call__(self) -> tuple[int, int]:
        fd = os.open("/proc/self/io", os.O_RDONLY)
        try:
            data = os.read(fd, 4096)
        finally:
            os.close(fd)
        fields = dict(line.split(b": ") for line in data.splitlines())
        counts = int(fields[b"rchar"]) - self._own, int(fields[b"wchar"])
        self._own += len(data)
        return counts


def _engine_working_set(height, width, channels, holes) -> dict:
    """Bytes one Jacobi pass touches, computed from array shapes."""
    image = height * width * channels * 8
    gather = 16 * holes * (channels * 8 + 1)
    return {
        "image_float64_bytes": image,
        "pass_image_copies_bytes": 2 * image,
        "mask_bytes": height * width,
        "first_pass_gather_bytes": gather,
        "total_bytes": 2 * image + height * width + gather,
    }


class Workload:
    """Defaults shared by the workloads."""

    ops_per_round = 1  # a run ends only after a whole round

    def prepare(self, i: int) -> None:
        """Write op ``i``'s input files; untimed."""

    def check(self, out: OpOutput) -> list[str]:
        return check_restored(out.engine_input, out.mask, out.report.image)


class Holes10Gray512(Workload):
    """inpaint_report(workers=1) on a 512x512 gray image with i.i.d. 10% holes.

    Op ``i`` restores mask ``i % 8`` of eight drawn from --seed. Some
    masks take 3 passes and some 4, so a run over a single mask would
    time whichever the seed happened to give.
    """

    name = "holes10_gray512"
    ops_per_round = 8
    scored_ops = ops_per_round  # each mask once

    def __init__(self, lm, natural_image, seed: int, workdir: Path):
        self.lm = lm
        self.clean = natural_image()
        rng = np.random.default_rng(seed)
        self.masks = [lm.Mask(rng.random((self.clean.height, self.clean.width)) < 0.10)
                      for _ in range(self.ops_per_round)]
        self.degraded = [lm.apply_mask(self.clean, mask) for mask in self.masks]
        self.first_outputs = {}
        self.current = 0

    def op(self, i: int, tr) -> OpOutput:
        self.current = k = i % self.ops_per_round
        mask, degraded = self.masks[k], self.degraded[k]
        report = tr.call("engine.inpaint_report", self.lm.inpaint_report, degraded, mask, workers=1)
        return OpOutput(degraded, mask, report, 1, mask.degraded_count)

    def check(self, out: OpOutput) -> list[str]:
        problems = super().check(out)
        restored = out.report.image.data
        first = self.first_outputs.setdefault(self.current, restored)
        if first is not restored and not np.array_equal(restored, first):
            problems.append("output differs from the first op's output on the same input")
        return problems

    def input_facts(self) -> dict:
        h, w, c = self.clean.data.shape
        holes = [mask.degraded_count for mask in self.masks]
        return {"shape": [h, w, c], "holes_by_mask": holes,
                "working_set_computed": _engine_working_set(h, w, c, max(holes))}


class WidthSweepGray512(Workload):
    """One cell of the paper's width sweep per op: widths 1-15, 2 lines."""

    name = "width_sweep_gray512"
    widths = tuple(range(1, 16))
    ops_per_round = len(widths)
    scored_ops = 16 * len(widths)

    def __init__(self, lm, natural_image, seed: int, workdir: Path):
        self.lm = lm
        self.seed = seed
        self.clean = natural_image()

    def cell_spec(self, i: int):
        round_, slot = divmod(i, self.ops_per_round)
        return self.widths[slot], self.seed * 1000 + round_

    def cell(self, width: int, mask_seed: int, tr) -> OpOutput:
        lm, clean = self.lm, self.clean
        spec = lm.LineSpec(count=2, width=width, seed=mask_seed)
        mask = tr.call("degrade.generate_line_mask", lm.generate_line_mask, clean.width, clean.height, spec)
        degraded = tr.call("degrade.apply_mask", lm.apply_mask, clean, mask)
        report = tr.call("engine.inpaint_report", lm.inpaint_report, degraded, mask)
        p = tr.call("metrics.psnr", lm.psnr, clean, report.image)
        s = tr.call("metrics.ssim", lm.ssim, clean, report.image)
        return OpOutput(degraded, mask, report, 1, mask.degraded_count, (p, s))

    def op(self, i: int, tr) -> OpOutput:
        return self.cell(*self.cell_spec(i), tr)

    def cross_check(self, tr) -> list[str]:
        """The op must compose a cell exactly as ``cli.run_sweep`` does."""
        from linemend.cli import run_sweep

        records = run_sweep(self.clean, "width", self.widths[0], self.widths[-1], seeds=1)
        problems = []
        for rec in records:
            mine = self.cell(rec.param_value, rec.seed, tr).scores
            if mine != (rec.psnr_db, rec.ssim):
                problems.append(f"width {rec.param_value}: bench {mine} != run_sweep {(rec.psnr_db, rec.ssim)}")
        return problems

    def input_facts(self) -> dict:
        h, w, c = self.clean.data.shape
        holes = {}
        for width in self.widths:
            spec = self.lm.LineSpec(count=2, width=width, seed=self.seed * 1000)
            holes[width] = self.lm.generate_line_mask(w, h, spec).degraded_count
        return {"shape": [h, w, c], "round0_holes_by_width": holes,
                "working_set_computed": _engine_working_set(h, w, c, max(holes.values()))}


class ScratchRgb1024Files(Workload):
    """load + inpaint_report(workers=2) + save on a 1024x1024 RGB PPM.

    Ops cycle through two fixed scratch patterns, each
    generate_line_mask(8 lines, width 2, seed s): s = 0 takes about 32
    passes, and s = 6 hits the engine's 64-pass cap, because the
    predictor creeps one pixel per pass along a nearly axis-aligned band.
    Op ``i`` restores pattern ``pattern_seeds[i % 3]`` under a cyclic
    shift drawn from (--seed, i), so every op sees the scratches over
    different image content while the pass counts, and with them the
    timings, stay put. --seed moves only the shifts: it does not change
    the patterns. The capped pattern comes twice a round so that the
    median and tail op fall among its ops; with one op of each, the
    median would fall in the gap between the two patterns' ops and take
    the mean of their two most extreme ops.
    """

    name = "scratch_rgb1024_files"
    pattern_seeds = (0, 6, 6)
    ops_per_round = len(pattern_seeds)
    scored_ops = 24
    size = 1024

    def __init__(self, lm, natural_image, seed: int, workdir: Path):
        self.lm = lm
        self.seed = seed
        self.clean = lm.Image(np.concatenate(
            [natural_image(self.size, self.size, seed=s).data for s in (7, 8, 9)], axis=2))
        self.patterns = {s: lm.generate_line_mask(self.size, self.size, lm.LineSpec(count=8, width=2, seed=s)).degraded
                         for s in set(self.pattern_seeds)}
        self.image_path = workdir / "degraded.ppm"
        self.mask_path = workdir / "mask.pgm"
        self.out_path = workdir / "restored.ppm"
        self.io = IoCounter()
        self.prepare(0)

    def prepare(self, i: int) -> None:
        """Write op ``i``'s degraded image and mask files."""
        shift = tuple(np.random.default_rng([self.seed, i]).integers(0, self.size, 2))
        pattern = self.patterns[self.pattern_seeds[i % self.ops_per_round]]
        self.mask = self.lm.Mask(np.roll(pattern, shift, axis=(0, 1)))
        self.degraded = self.lm.apply_mask(self.clean, self.mask)
        self.lm.save_pnm(self.degraded, self.image_path)
        self.lm.mask_to_pgm(self.mask, self.mask_path)

    def op(self, i: int, tr) -> OpOutput:
        lm = self.lm
        io_before = self.io() if tr.traced else (0, 0)
        image = tr.call("raster.load_pnm", lm.load_pnm, self.image_path)
        mask = tr.call("raster.mask_from_pgm", lm.mask_from_pgm, self.mask_path)
        report = tr.call("engine.inpaint_report", lm.inpaint_report, image, mask, workers=2)
        tr.call("raster.save_pnm", lm.save_pnm, report.image, self.out_path)
        io_after = self.io() if tr.traced else (0, 0)
        return OpOutput(image, mask, report, 2, mask.degraded_count,
                        bytes_read=io_after[0] - io_before[0], bytes_written=io_after[1] - io_before[1])

    def check(self, out: OpOutput) -> list[str]:
        problems = super().check(out)
        if not np.array_equal(out.engine_input.data, self.degraded.data):
            problems.append("loaded image differs from the written input")
        if not np.array_equal(out.mask.degraded, self.mask.degraded):
            problems.append("loaded mask differs from the written input")
        reloaded = self.lm.load_pnm(self.out_path)
        if not np.array_equal(reloaded.data, np.floor(out.report.image.data + 0.5)):
            problems.append("saved file differs from the restored image rounded half-up")
        return problems

    def input_facts(self) -> dict:
        h, w, c = self.clean.data.shape
        holes = {s: int(p.sum()) for s, p in self.patterns.items()}
        files = self.image_path.stat().st_size + self.mask_path.stat().st_size
        return {"shape": [h, w, c], "holes_by_pattern_seed": holes, "input_file_bytes": files,
                "working_set_computed": _engine_working_set(h, w, c, max(holes.values()))}


WORKLOADS = {wl.name: wl for wl in (Holes10Gray512, WidthSweepGray512, ScratchRgb1024Files)}
