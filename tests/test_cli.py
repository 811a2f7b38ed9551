"""CLI contract tests (run in-process via main, and once as a module)."""

import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from linemend import EngineConfig, Image, LineSpec, Mask, generate_line_mask, load_pnm, mask_to_pgm, save_pnm
from linemend.cli import build_parser, main, run_sweep

from conftest import natural_image


@pytest.fixture()
def small_image(tmp_path):
    img = natural_image(64, 64, seed=3)
    path = tmp_path / "img.pgm"
    save_pnm(img, path)
    return path


def _write_mask(path, degraded):
    mask_to_pgm(Mask(degraded), path)


def test_inpaint_round_trip(tmp_path, small_image, capsys):
    mask_path = tmp_path / "mask.pgm"
    degraded = np.zeros((64, 64), bool)
    degraded[30, :] = True
    _write_mask(mask_path, degraded)
    out_path = tmp_path / "out.pgm"
    rc = main(["inpaint", "--input", str(small_image), "--mask", str(mask_path), "--output", str(out_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "passes=" in out and "filled_predictor=" in out
    restored = load_pnm(out_path)
    assert (restored.width, restored.height) == (64, 64)


def test_inpaint_empty_mask_byte_identical(tmp_path, small_image, capsys):
    mask_path = tmp_path / "mask.pgm"
    _write_mask(mask_path, np.zeros((64, 64), bool))
    out_path = tmp_path / "out.pgm"
    assert main(["inpaint", "--input", str(small_image), "--mask", str(mask_path), "--output", str(out_path)]) == 0
    assert capsys.readouterr().out == "passes=0\nfilled_predictor=0\nfilled_fallback=0\n"
    assert out_path.read_bytes() == small_image.read_bytes()


def test_inpaint_dimension_mismatch_names_both_sizes(tmp_path, small_image, capsys):
    mask_path = tmp_path / "mask.pgm"
    _write_mask(mask_path, np.zeros((32, 16), bool))
    rc = main(["inpaint", "--input", str(small_image), "--mask", str(mask_path), "--output", str(tmp_path / "o.pgm")])
    assert rc != 0
    err = capsys.readouterr().err
    assert "64x64" in err and "16x32" in err


def test_inpaint_missing_file(tmp_path, capsys):
    rc = main(["inpaint", "--input", str(tmp_path / "none.pgm"), "--mask", str(tmp_path / "m.pgm"), "--output", str(tmp_path / "o.pgm")])
    assert rc != 0
    assert "error:" in capsys.readouterr().err


def test_degrade_zero_lines(tmp_path, small_image, capsys):
    mask_out = tmp_path / "m.pgm"
    img_out = tmp_path / "d.pgm"
    rc = main(["degrade", "--input", str(small_image), "--lines", "0", "--mask", str(mask_out), "--output", str(img_out)])
    assert rc == 0
    assert "degraded_pixels=0" in capsys.readouterr().out
    assert img_out.read_bytes() == small_image.read_bytes()
    assert load_pnm(mask_out).data.max() == 0.0


def test_degrade_deterministic(tmp_path, small_image, capsys):
    outs = []
    for run in range(2):
        mask_out = tmp_path / f"m{run}.pgm"
        img_out = tmp_path / f"d{run}.pgm"
        rc = main([
            "degrade", "--input", str(small_image), "--lines", "3", "--width", "2",
            "--seed", "41", "--mask", str(mask_out), "--output", str(img_out),
        ])
        assert rc == 0
        assert capsys.readouterr().out == "seed=41\ndegraded_pixels=374\n"
        outs.append((mask_out.read_bytes(), img_out.read_bytes()))
    assert outs[0] == outs[1]


def test_degrade_rejects_negative_seed(tmp_path, small_image, capsys):
    rc = main([
        "degrade", "--input", str(small_image), "--lines", "1", "--seed", "-1",
        "--mask", str(tmp_path / "m.pgm"), "--output", str(tmp_path / "d.pgm"),
    ])
    assert rc == 1
    assert capsys.readouterr().err == "error: seed must be an integer >= 0, got -1\n"


@pytest.mark.parametrize("flag, printed, rc", [
    ([], "passes=24\nfilled_predictor=88\nfilled_fallback=8\n", 0),
    (["--max-passes", "1"], "passes=1\nfilled_predictor=2\nfilled_fallback=94\n", 0),
    (["--max-passes", "0"], "error: max_passes must be an integer >= 1, got 0\n", 1),
])
def test_inpaint_max_passes(tmp_path, capsys, flag, printed, rc):
    # A 16x48 image with one nearly axis-aligned width-2 scratch, which the
    # predictor fills a few pixels per pass.
    save_pnm(Image(np.random.default_rng(1).uniform(0.0, 255.0, (16, 48))), tmp_path / "in.pgm")
    mask_to_pgm(generate_line_mask(48, 16, LineSpec(count=1, width=2, seed=19)), tmp_path / "m.pgm")
    args = ["inpaint", "--input", str(tmp_path / "in.pgm"), "--mask", str(tmp_path / "m.pgm"),
            "--output", str(tmp_path / "out.pgm"), *flag]
    assert main(args) == rc
    captured = capsys.readouterr()
    assert (captured.err if rc else captured.out) == printed


def test_inpaint_max_passes_default_is_the_engine_default():
    args = build_parser().parse_args(["inpaint", "--input", "a.pgm", "--mask", "m.pgm", "--output", "b.pgm"])
    assert args.max_passes == EngineConfig().max_passes


def test_degrade_count_bound_512(tmp_path, natural512_pgm, capsys):
    rc = main([
        "degrade", "--input", str(natural512_pgm), "--lines", "2", "--width", "1",
        "--seed", "6", "--mask", str(tmp_path / "m.pgm"), "--output", str(tmp_path / "d.pgm"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    count = int(out.split("degraded_pixels=")[1].split()[0])
    assert 512 <= count <= 2 * (512 + 1)


def test_eval_identical(tmp_path, small_image, capsys):
    rc = main(["eval", "--reference", str(small_image), "--test", str(small_image)])
    assert rc == 0
    assert capsys.readouterr().out == "psnr_db=inf\nssim=1.0000\n"


def test_eval_off_by_one(tmp_path, capsys):
    a = tmp_path / "a.pgm"
    b = tmp_path / "b.pgm"
    save_pnm(Image(np.full((16, 16), 100.0)), a)
    save_pnm(Image(np.full((16, 16), 101.0)), b)
    rc = main(["eval", "--reference", str(a), "--test", str(b)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "psnr_db=48.1308"
    assert lines[1].startswith("ssim=")


def test_eval_mismatched_sizes(tmp_path, small_image, capsys):
    other = tmp_path / "other.pgm"
    save_pnm(Image(np.zeros((8, 8))), other)
    rc = main(["eval", "--reference", str(small_image), "--test", str(other)])
    assert rc == 1
    assert capsys.readouterr().err == "error: reference is 64x64 but test is 8x8\n"


def test_sweep_row_count_and_determinism(tmp_path, small_image, capsys):
    csvs = []
    for run in range(2):
        csv_path = tmp_path / f"s{run}.csv"
        rc = main([
            "sweep", "--input", str(small_image), "--mode", "width",
            "--min", "1", "--max", "2", "--seeds", "1", "--csv", str(csv_path),
        ])
        assert rc == 0
        csvs.append(csv_path.read_bytes())
    assert csvs[0] == csvs[1]
    text = csvs[0].decode("ascii")
    lines = text.splitlines()
    assert lines[0] == "param_name,param_value,seed,psnr_db,ssim"
    assert len(lines) == 3  # header + 2 data rows
    assert lines[1].startswith("width,1,0,")
    assert lines[2].startswith("width,2,0,")
    out = capsys.readouterr().out
    assert "width=1 mean_psnr_db=" in out


def test_sweep_lines_mode(tmp_path, small_image, capsys):
    csv_path = tmp_path / "lines.csv"
    rc = main([
        "sweep", "--input", str(small_image), "--mode", "lines",
        "--min", "1", "--max", "3", "--seeds", "2", "--csv", str(csv_path),
    ])
    assert rc == 0
    rows = csv_path.read_text().splitlines()[1:]
    assert len(rows) == 6
    # ordered by (param_value, seed)
    keys = [tuple(int(x) for x in row.split(",")[1:3]) for row in rows]
    assert keys == sorted(keys)
    printed = capsys.readouterr().out.splitlines()
    assert [line.split(" mean_psnr_db=")[0] for line in printed] == ["lines=1", "lines=2", "lines=3"]


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_sweep_rejects_fewer_than_one_seed(tmp_path, small_image, capsys, seeds):
    csv_path = tmp_path / "s.csv"
    rc = main([
        "sweep", "--input", str(small_image), "--mode", "width",
        "--min", "1", "--max", "2", "--seeds", seeds, "--csv", str(csv_path),
    ])
    assert rc == 1
    assert capsys.readouterr().err == f"error: seeds must be an integer >= 1, got {seeds}\n"
    assert not csv_path.exists()


def test_sweep_rejects_empty_range(tmp_path, small_image, capsys):
    csv_path = tmp_path / "s.csv"
    rc = main([
        "sweep", "--input", str(small_image), "--mode", "width",
        "--min", "3", "--max", "1", "--seeds", "1", "--csv", str(csv_path),
    ])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: empty sweep range")
    assert not csv_path.exists()


def test_run_sweep_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown sweep mode 'diag'"):
        run_sweep(Image(np.zeros((8, 8))), "diag", 1, 2, 1)


@pytest.mark.parametrize("arg, value", [
    ("lo", True), ("lo", 1.0), ("hi", False), ("hi", 2.0), ("seeds", True), ("seeds", 1.5), ("seeds", "1"),
    ("lo", -1), ("hi", -1),
])
def test_run_sweep_rejects_non_integer_counts(arg, value):
    # Unchecked, a bool would reach range() as 0 or 1, a float would make
    # it raise TypeError and a negative bound would get past this check to
    # a cell's LineSpec or the empty-range message.
    kwargs = {"lo": 1, "hi": 2, "seeds": 1, arg: value}
    low = 1 if arg == "seeds" else 0
    with mock.patch("linemend.cli.inpaint", side_effect=AssertionError("a sweep cell ran")):
        with pytest.raises(ValueError, match=re.escape(f"{arg} must be an integer >= {low}, got {value!r}")):
            run_sweep(Image(np.zeros((8, 8))), "width", **kwargs)


def test_run_sweep_fails_before_its_first_cell_when_the_range_cannot_be_drawn():
    # Widths 13-15 cannot be drawn on 48x48; the 36 cells of widths 1-12
    # would otherwise run first.
    image = natural_image(48, 48, seed=3)
    with mock.patch("linemend.cli.inpaint", side_effect=AssertionError("a sweep cell ran")):
        with pytest.raises(ValueError, match=re.escape("line width 15 too large for 48x48 (limit 12)")):
            run_sweep(image, "width", 1, 15, 3)


def test_module_entry_point_help():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-m", "linemend", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: linemend")
    for command in ("inpaint", "degrade", "eval", "sweep"):
        assert command in result.stdout
