"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own output.
"""

import math
import time

import numpy as np
import pytest

from linemend import (
    Image,
    LineSpec,
    Mask,
    apply_mask,
    generate_line_mask,
    inpaint,
    inpaint_report,
    predict_line_center,
    psnr,
    save_pnm,
    ssim,
)
from linemend.cli import format_sweep_csv, main, run_sweep
from linemend.kernels import SURFACE_CENTER_WEIGHTS

from conftest import spearman
from oracle import upsample_center


def _report(criterion: str, ok: bool, detail: str = ""):
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{criterion} failed: {detail}"


@pytest.fixture(scope="module")
def width_sweep(natural512):
    start = time.perf_counter()
    records = run_sweep(natural512, "width", 1, 15, 10)
    return records, time.perf_counter() - start


@pytest.fixture(scope="module")
def lines_sweep(natural512):
    return run_sweep(natural512, "lines", 1, 10, 10)


def _seed_averaged(records):
    values = sorted({r.param_value for r in records})
    means = []
    for v in values:
        group = [r.psnr_db for r in records if r.param_value == v]
        means.append(sum(group) / len(group))
    return values, means


def test_criterion_1_kernel_oracle_equivalence():
    start = time.perf_counter()
    vander = np.vander(np.array([-2.0, -1.0, 1.0, 2.0]), 4, increasing=True)
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        v = rng.uniform(-50.0, 305.0, 4)
        want = float(np.linalg.solve(vander, v)[0])
        got = predict_line_center(v)
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    weights_exact = all(
        predict_line_center(np.eye(4)[i]) == w
        for i, w in enumerate((-1.0 / 6.0, 2.0 / 3.0, 2.0 / 3.0, -1.0 / 6.0))
    )
    elapsed = time.perf_counter() - start
    _report(
        "1 kernel-oracle-equivalence",
        worst <= 1e-12 and weights_exact and elapsed < 1.0,
        f"max_rel_err={worst:.2e} weights_exact={weights_exact} time={elapsed:.2f}s",
    )


def test_criterion_2_surface_center_closed_form():
    rng = np.random.default_rng(202)
    w = np.array([-1.0, 9.0, 9.0, -1.0]) / 16.0
    worst = 0.0
    flare_invariant = True
    for _ in range(1000):
        vert = rng.uniform(0.0, 255.0, (4, 3))
        horz = rng.uniform(0.0, 255.0, (3, 4))
        cv, ch = upsample_center(vert), upsample_center(horz)
        worst = max(worst, abs(cv - w @ vert[:, 1]), abs(ch - w @ horz[1, :]))
        vert2 = vert + rng.uniform(-500.0, 500.0, (4, 3))
        vert2[:, 1] = vert[:, 1]
        horz2 = horz + rng.uniform(-500.0, 500.0, (3, 4))
        horz2[1, :] = horz[1, :]
        if upsample_center(vert2) != cv or upsample_center(horz2) != ch:
            flare_invariant = False
    # The engine's surface slots multiply their axis line by this w.
    engine_weights_exact = np.array_equal(SURFACE_CENTER_WEIGHTS, w)
    _report(
        "2 surface-center-closed-form",
        worst <= 1e-12 and flare_invariant and engine_weights_exact,
        f"max_abs_err={worst:.2e} flare_invariant={flare_invariant} engine_weights_exact={engine_weights_exact}",
    )


def test_criterion_3_affine_exactness():
    field = np.fromfunction(lambda r, c: 2.0 * r + 3.0 * c + 10.0, (64, 64))
    image = Image(field)
    # 50 holes on a 5-spaced grid (pairwise Chebyshev distance 5 > 4),
    # at least 2 px from every border, placed where the field stays
    # within [0, 255] so commit-time clamping is a no-op.
    candidates = [(r, c) for r in range(2, 40, 5) for c in range(2, 40, 5)]
    holes = candidates[:50]
    assert all(field[r, c] <= 255.0 for r, c in holes)
    missing = np.zeros((64, 64), bool)
    for r, c in holes:
        missing[r, c] = True
    report = inpaint_report(image, Mask(missing))
    err = float(np.max(np.abs(report.image.data[:, :, 0] - field)))
    _report(
        "3 affine-exactness",
        err <= 1e-6 and report.fallback_filled == 0,
        f"holes={len(holes)} max_err={err:.2e} fallback={report.fallback_filled}",
    )


def test_criterion_4_width_trend(width_sweep):
    records, elapsed = width_sweep
    widths, means = _seed_averaged(records)
    rho = spearman(widths, means)
    _report(
        "4 width-trend",
        rho <= -0.9 and elapsed < 120.0,
        f"spearman={rho:.4f} time={elapsed:.1f}s psnr[w1]={means[0]:.2f} psnr[w15]={means[-1]:.2f}",
    )


def test_criterion_5_line_count_trend(lines_sweep):
    counts, means = _seed_averaged(lines_sweep)
    rho = spearman(counts, means)
    _report(
        "5 line-count-trend",
        rho <= -0.9,
        f"spearman={rho:.4f} psnr[n1]={means[0]:.2f} psnr[n10]={means[-1]:.2f}",
    )


def test_criterion_6_reported_range_consistency(natural512):
    worst_psnr, worst_ssim = math.inf, 1.0
    for seed in range(10):
        mask = generate_line_mask(512, 512, LineSpec(count=2, width=1, seed=seed))
        restored = inpaint(apply_mask(natural512, mask), mask)
        worst_psnr = min(worst_psnr, psnr(natural512, restored))
        worst_ssim = min(worst_ssim, ssim(natural512, restored))
    _report(
        "6 reported-range-consistency",
        worst_psnr >= 30.0 and worst_ssim >= 0.95,
        f"worst_psnr={worst_psnr:.2f}dB worst_ssim={worst_ssim:.4f}",
    )


def test_criterion_7_metric_fixtures():
    a = Image(np.full((16, 16), 100.0))
    b = Image(np.full((16, 16), 101.0))
    p = psnr(a, b)
    c = Image(np.full((32, 32), 110.0))
    s_const = ssim(Image(np.full((32, 32), 100.0)), c)
    rng = np.random.default_rng(7)
    img = Image(rng.uniform(0.0, 255.0, (24, 24)))
    s_self = ssim(img, img)
    ok = abs(p - 48.1308) <= 1e-3 and abs(s_const - 0.995477) <= 1e-6 and s_self == 1.0
    _report(
        "7 metric-fixtures",
        ok,
        f"psnr={p:.6f} ssim_const={s_const:.8f} ssim_self={s_self}",
    )


def test_criterion_8_determinism(natural512, tmp_path):
    img128 = Image(natural512.data[:128, :128, 0])
    img_path = tmp_path / "img.pgm"
    save_pnm(img128, img_path)
    csv_bytes = []
    for run in range(2):
        csv_path = tmp_path / f"sweep{run}.csv"
        rc = main([
            "sweep", "--input", str(img_path), "--mode", "width",
            "--min", "1", "--max", "3", "--seeds", "2", "--csv", str(csv_path),
        ])
        assert rc == 0
        csv_bytes.append(csv_path.read_bytes())
    csv_identical = csv_bytes[0] == csv_bytes[1]

    rng = np.random.default_rng(808)
    missing = rng.random((128, 128)) < 0.2
    single = inpaint(img128, Mask(missing), workers=1)
    threaded = inpaint(img128, Mask(missing), workers=4)
    threads_identical = np.array_equal(single.data, threaded.data)
    _report(
        "8 determinism",
        csv_identical and threads_identical,
        f"csv_identical={csv_identical} threads_identical={threads_identical}",
    )


def test_criterion_9_safety_invariants():
    rng = np.random.default_rng(909)
    ok = True
    detail = ""
    for i in range(100):
        channels = 1 if rng.integers(0, 2) == 0 else 3
        img = Image(rng.uniform(0.0, 255.0, (32, 32, channels)))
        missing = rng.random((32, 32)) < rng.uniform(0.02, 0.3)
        out = inpaint(img, Mask(missing))
        if not np.array_equal(out.data[~missing], img.data[~missing]):
            ok, detail = False, f"pair {i}: unmasked pixels modified"
            break
        if not np.isfinite(out.data).all():
            ok, detail = False, f"pair {i}: non-finite output"
            break
        if out.data.min() < 0.0 or out.data.max() > 255.0:
            ok, detail = False, f"pair {i}: output outside [0, 255]"
            break
    _report("9 safety-invariants", ok, detail or "100 random (image, mask) pairs clean")


def test_criterion_10_performance_sanity(natural512):
    rng = np.random.default_rng(1010)
    missing = rng.random((512, 512)) < 0.10
    degraded = apply_mask(natural512, Mask(missing))
    start = time.perf_counter()
    out = inpaint(degraded, Mask(missing), workers=1)
    elapsed = time.perf_counter() - start
    _report(
        "10 performance-sanity",
        elapsed < 5.0,
        f"512x512 {int(missing.sum())}px degraded in {elapsed:.2f}s psnr={psnr(natural512, out):.2f}dB",
    )


def test_sweep_csv_format_stability():
    # supporting check for the CSV contract used by criterion 8
    from linemend.cli import SweepRecord

    records = [
        SweepRecord("width", 2, 1, 41.25, 0.99123),
        SweepRecord("width", 1, 0, math.inf, 1.0),
        SweepRecord("width", 2, 0, 43.0, 0.995),
    ]
    text = format_sweep_csv(records)
    assert text == (
        "param_name,param_value,seed,psnr_db,ssim\n"
        "width,1,0,inf,1.0000\n"
        "width,2,0,43.0000,0.9950\n"
        "width,2,1,41.2500,0.9912\n"
    )
