"""The package's public names."""

import linemend

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
