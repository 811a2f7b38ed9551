"""The package's public names and the call shapes the benchmark uses."""

import dataclasses

import linemend
from linemend.cli import run_sweep

from conftest import natural_image

PUBLIC = {
    # data model and PNM codec
    "DimensionMismatch", "Image", "Mask", "PnmError",
    "load_pnm", "mask_from_pgm", "mask_to_pgm", "save_pnm",
    # synthetic degradation
    "LineSpec", "apply_mask", "generate_line_mask",
    # engine
    "EngineConfig", "InpaintReport", "inpaint", "inpaint_report", "run_pass",
    "predict_line_center",
    # scoring
    "psnr", "ssim",
}


def test_public_api_is_pinned():
    assert set(linemend.__all__) == PUBLIC
    assert len(linemend.__all__) == len(PUBLIC)
    for name in linemend.__all__:
        assert getattr(linemend, name) is not None


def test_engine_config_has_only_the_pass_cap():
    assert [f.name for f in dataclasses.fields(linemend.EngineConfig)] == ["max_passes"]


def test_benchmark_call_shapes():
    # The call shapes bench/ relies on, on a tiny image.
    clean = natural_image(32, 32)
    mask = linemend.generate_line_mask(32, 32, linemend.LineSpec(count=2, width=2, seed=1))
    degraded = linemend.apply_mask(clean, mask)
    config = linemend.EngineConfig()
    values, filled = linemend.run_pass(degraded.data.copy(), mask.degraded.copy(), config, workers=2)
    assert values.shape == degraded.data.shape and filled.any()
    report = linemend.inpaint_report(degraded, mask, workers=2)
    assert report.passes == len(report.pass_fill_counts) >= 1
    assert report.predictor_filled + report.fallback_filled == mask.degraded_count
    records = run_sweep(clean, "width", 1, 2, seeds=1)
    assert [(r.param_value, r.seed) for r in records] == [(1, 0), (2, 0)]
