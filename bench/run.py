"""linemend benchmark: end-to-end restore metrics and a traced per-layer breakdown.

Usage (from the repository root):

    python3 bench/run.py --workload holes10_gray512 --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seconds 5      # every workload, one table

One process, closed loop: each op starts once the previous op and its
correctness checks have finished. The reference kernel (reference.py) is
timed right before and right after every op. BLAS is held to one thread,
so the only extra thread is the engine's second worker in
scratch_rgb1024_files.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json. Op and
set-up timings in them are scaled to the reference kernel's nominal
speed; the raw wall-clock figures are printed too and kept in the record.
--trace 1 alternates untraced and traced ops, replays every traced op's
pass loop through the public ``run_pass``, and prints the per-layer
metrics. Either way the last stdout line is the result object, and the
full record (machine and input facts; spans in trace mode) is written to
bench/out/.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import statistics
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

# Before numpy loads: BLAS would otherwise start one thread per core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# Third-party modules load here, before any set-up is timed; pytest
# because tests/conftest.py imports it.
import pytest  # noqa: E402,F401
from facts import cache_ratios, machine_facts, source_facts  # noqa: E402
from reference import NOMINAL_S, ReferenceKernel  # noqa: E402
from tracer import LayerError, Tracer, Untraced, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "conftest.py"
SPEC = ROOT / "BENCHMARK.json"
OUT_DIR = BENCH_DIR / "out"

# Set-up is repeated at least this many times per run, and until this
# much time has gone on it; its median is reported.
SETUP_REPEATS = 5
SETUP_MIN_SECONDS = 2.0
# The tail percentile is the highest one with at least this many samples beyond it.
TAIL_SAMPLES = 10
LAYERS = ("engine", "metrics", "degrade", "raster")
# Span names reported as mean milliseconds per traced op; a layer a
# workload never calls reads 0.
SPAN_METRICS = (
    "engine.inpaint_report",
    "engine.run_pass",
    "metrics.ssim",
    "metrics.psnr",
    "degrade.generate_line_mask",
    "degrade.apply_mask",
    "raster.load_pnm",
    "raster.mask_from_pgm",
    "raster.save_pnm",
)


def import_program():
    """Fresh import of linemend and of the test fixture module.

    Third-party modules (numpy, pytest) stay loaded between calls; the
    program's own modules are dropped and imported again.
    """
    for name in [m for m in sys.modules if m == "linemend" or m.startswith("linemend.")]:
        del sys.modules[name]
    lm = importlib.import_module("linemend")
    spec = importlib.util.spec_from_file_location("bench_fixtures", FIXTURES)
    fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fixtures)
    return lm, fixtures.natural_image


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) for the highest percentile
    that still has TAIL_SAMPLES samples above it."""
    s = sorted(latencies)
    n = len(s)
    if n <= TAIL_SAMPLES:
        return s[-1], 100.0, 0
    return s[n - TAIL_SAMPLES - 1], 100.0 * (n - TAIL_SAMPLES) / n, TAIL_SAMPLES


def replay(lm, tr, out) -> dict:
    """Re-run inpaint_report's pass loop through the public run_pass and
    count its work; ``match`` says whether it agrees with the report."""
    config = lm.EngineConfig()
    values = out.engine_input.data.copy()
    missing = out.mask.degraded.copy()
    height, width, channels = values.shape
    fills, attempted, gather = [], 0, 0
    while missing.any() and len(fills) < config.max_passes:
        k = int(missing.sum())
        attempted += k
        gather += 16 * k * (8 * channels + 1)
        values, filled = tr.call("engine.run_pass", lm.run_pass, values, missing, config, workers=out.workers)
        fills.append(int(filled.sum()))
        if fills[-1] == 0:
            break
        missing &= ~filled
    report = out.report
    return {
        "calls": len(fills),
        "attempted": attempted,
        "filled": sum(fills),
        "gather_bytes": gather,
        "copy_bytes": (1 + len(fills)) * height * width * channels * 8,
        "fallback": report.fallback_filled,
        "match": (len(fills) == report.passes and tuple(fills) == report.pass_fill_counts
                  and int(missing.sum()) == report.fallback_filled),
    }


@dataclass
class Measurement:
    """Everything the timed loop observed."""

    latencies: dict = field(default_factory=lambda: {False: [], True: []})  # traced? -> seconds
    op_ids: dict = field(default_factory=lambda: {False: [], True: []})  # the ops those latencies are of
    scaled: dict = field(default_factory=lambda: {False: [], True: []})  # latencies at nominal speed
    reference: list = field(default_factory=list)  # kernel seconds before and after every op
    holes: int = 0  # holes restored by successful untraced ops
    op_seconds: float = 0.0  # time those ops took
    scores: list = field(default_factory=list)  # (psnr_db, ssim) of the scored ops
    replays: dict = field(default_factory=dict)  # traced op id -> replay()
    layer_errors: Counter = field(default_factory=Counter)
    attempted: int = 0
    failed: int = 0
    bytes_read: int = 0  # by traced ops
    bytes_written: int = 0  # by traced ops
    problems: list = field(default_factory=list)
    wall_s: float = 0.0


def to_nominal(seconds: list[float], indices: list[int], kernel_s: list[float]) -> list[float]:
    """Scale timings to the speed at which the reference kernel takes
    NOMINAL_S. ``kernel_s`` holds the kernel's time right before and
    right after each timed interval, and ``indices`` says which interval
    each timing is of. A timing is scaled by NOMINAL_S over the mean of
    the six kernel times around it: its own two and those of the
    intervals before and after it. One pair tracks the speed of a short
    op, but samples too little of a long one (scratch ops take a second)."""
    return [t * NOMINAL_S / statistics.fmean(kernel_s[max(0, 2 * i - 2):2 * i + 4])
            for t, i in zip(seconds, indices)]


def measure(lm, wl, seconds: float, tracer, kernel) -> Measurement:
    """Run ops until ``seconds`` have passed, enough ops for the tail and
    the quality scores have run, and the current round is complete.
    With a tracer, half the ops are traced and then replayed. The
    reference kernel is timed right before and right after every op."""
    untraced = Untraced()
    m = Measurement()
    min_ops = max(2 * TAIL_SAMPLES + 1, wl.scored_ops)
    t_start = time.perf_counter()
    i = 0
    while i < min_ops or time.perf_counter() - t_start < seconds or i % wl.ops_per_round:
        op_id, i = i, i + 1
        # Traced and untraced ops alternate U T T U, and a replay follows
        # each traced op, so both kinds are preceded equally often by a
        # replay and by a check; strict U T U T biased the overhead figure.
        traced = tracer is not None and (op_id + op_id // 2) % 2 == 1
        tr = tracer if traced else untraced
        wl.prepare(op_id)
        m.attempted += 1
        before = kernel()
        token = tr.begin_op(op_id)
        t0 = time.perf_counter()
        try:
            out = wl.op(op_id, tr)
        except LayerError as exc:
            out = None
            m.layer_errors[exc.layer] += 1
            m.problems.append(f"op {op_id}: {exc}")
        t1 = time.perf_counter()
        tr.end_op(token)
        m.reference += [before, kernel()]
        if out is None:
            m.failed += 1
            continue
        bad = wl.check(out)
        if bad:
            m.failed += 1
            m.problems += [f"op {op_id}: {p}" for p in bad]
        else:
            m.latencies[traced].append(t1 - t0)
            m.op_ids[traced].append(op_id)
            if not traced:
                m.holes += out.holes
                m.op_seconds += t1 - t0
        if op_id < wl.scored_ops:
            restored = out.report.image
            m.scores.append(out.scores or (lm.psnr(wl.clean, restored), lm.ssim(wl.clean, restored)))
        if traced:
            token = tracer.begin_op(op_id, "replay")
            r = m.replays[op_id] = replay(lm, tracer, out)
            tracer.end_op(token)
            if not r["match"]:
                m.problems.append(f"op {op_id}: run_pass replay disagrees with InpaintReport")
            m.bytes_read += out.bytes_read
            m.bytes_written += out.bytes_written
    m.wall_s = time.perf_counter() - t_start
    for traced, lat in m.latencies.items():
        m.scaled[traced] = to_nominal(lat, m.op_ids[traced], m.reference)
    return m


def _median_ms(seconds: list[float]) -> float:
    return statistics.median(seconds) * 1e3 if seconds else 0.0


def end_to_end(m: Measurement, peak_bytes: int, setup_times: list[float],
               setup_scaled: list[float]) -> tuple[dict, dict]:
    # Op and set-up timings are scaled to the speed at which the
    # reference kernel takes NOMINAL_S.
    lat, scaled = m.latencies[False], m.scaled[False]
    value, pct, beyond = tail(lat) if lat else (0.0, 0.0, 0)
    scaled_value = tail(scaled)[0] if scaled else 0.0
    holes_per_s = m.holes / m.op_seconds if m.op_seconds else 0.0
    metrics = {
        "latency_p50_norm_ms": (_median_ms(scaled), "ms"),
        "latency_tail_norm_ms": (scaled_value * 1e3, "ms"),
        "holes_per_s_norm": (m.holes / sum(scaled) if scaled else 0.0, "1/s"),
        "psnr_db": (statistics.fmean(s[0] for s in m.scores), "dB"),
        "ssim": (statistics.fmean(s[1] for s in m.scores), "ratio"),
        "peak_mem_mb": (peak_bytes / 1e6, "MB"),
        "setup_s": (statistics.median(setup_scaled), "s"),
        "success_rate": ((m.attempted - m.failed) / m.attempted, "ratio"),
    }
    extra = {
        "latency": {"samples": len(lat), "tail_percentile": pct, "tail_samples_beyond": beyond,
                    "ops_ms": [t * 1e3 for t in lat], "scaled_ops_ms": [t * 1e3 for t in scaled]},
        "wall_clock": {"latency_p50_ms": _median_ms(lat), "latency_tail_ms": value * 1e3,
                       "holes_per_s": holes_per_s, "setup_s": statistics.median(setup_times)},
        "reference": {"nominal_ms": NOMINAL_S * 1e3, "median_ms": _median_ms(m.reference),
                      "samples": len(m.reference),
                      "before_after_ms": [t * 1e3 for t in m.reference]},
        "error_rate": m.failed / m.attempted,
        "scored_ops": len(m.scores),
    }
    return metrics, extra


def per_layer(m: Measurement, spans) -> tuple[dict, dict]:
    t0 = spans[0].start if spans else 0.0
    n = max(1, len(m.replays))
    selfs = self_times(spans)
    per_op = defaultdict(float)
    self_per_op = defaultdict(float)
    run_pass = defaultdict(float)
    inpaint = defaultdict(float)
    for span, self_s in zip(spans, selfs):
        if span.op_id not in m.replays:
            continue
        self_per_op[span.name] += self_s
        if span.name not in ("op", "replay"):
            per_op[span.name] += span.duration
        if span.name == "engine.run_pass":
            run_pass[span.op_id] += span.duration
        elif span.name == "engine.inpaint_report":
            inpaint[span.op_id] += span.duration
    finish = [inpaint[op] - run_pass[op] for op in m.replays] or [0.0]
    counts = Counter()
    for r in m.replays.values():
        counts.update({k: v for k, v in r.items() if k != "match"})
    untraced_p50 = _median_ms(m.scaled[False])
    traced_p50 = _median_ms(m.scaled[True])
    metrics = {f"{name}.ms": (per_op[name] * 1e3 / n, "ms") for name in SPAN_METRICS}
    metrics.update({
        "engine.run_pass.calls": (counts["calls"] / n, "count"),
        "engine.holes_attempted": (counts["attempted"] / n, "count"),
        "engine.holes_filled": (counts["filled"] / n, "count"),
        "engine.pass_yield": (counts["filled"] / max(1, counts["attempted"]), "ratio"),
        "engine.gather_bytes_computed": (counts["gather_bytes"] / n, "B"),
        "engine.image_copy_bytes_computed": (counts["copy_bytes"] / n, "B"),
        "engine.finish.ms": (statistics.fmean(finish) * 1e3, "ms"),
        "engine.fallback_filled": (counts["fallback"] / n, "count"),
        "raster.bytes_read": (m.bytes_read / n, "B"),
        "raster.bytes_written": (m.bytes_written / n, "B"),
        "bench.op_self.ms": (self_per_op["op"] * 1e3 / n, "ms"),
        "trace.untraced_latency_p50_norm_ms": (untraced_p50, "ms"),
        "trace.traced_latency_p50_norm_ms": (traced_p50, "ms"),
        "trace.overhead_pct": (100.0 * (traced_p50 - untraced_p50) / untraced_p50 if untraced_p50 else 0.0, "%"),
    })
    metrics.update({f"{layer}.errors": (m.layer_errors[layer], "count") for layer in LAYERS})
    extra = {
        "traced_ops": len(m.replays),
        "untraced_ops": len(m.latencies[False]),
        "derived": {"engine.finish.ms": "engine.inpaint_report span minus the replayed engine.run_pass spans of the same op"},
        "computed": {
            "engine.gather_bytes_computed": "sum over passes of 16 * holes * (8 * channels + 1): the (16, k, C) float64 gather and its (16, k) bool availability",
            "engine.image_copy_bytes_computed": "(1 + passes) * height * width * channels * 8: inpaint_report's copy plus one per run_pass",
        },
        "measured_from": {
            "raster.bytes_read": "growth of rchar in /proc/self/io over a traced op",
            "raster.bytes_written": "growth of wchar in /proc/self/io over a traced op",
        },
        "self_ms_per_op": {name: t * 1e3 / n for name, t in sorted(self_per_op.items())},
        "spans_columns": ["name", "start_s", "end_s", "parent_index", "op_id"],
        "spans": [[s.name, s.start - t0, s.end - t0, s.parent, s.op_id] for s in spans],
    }
    return metrics, extra


def run_workload(spec: dict, name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Returns (result line, full record)."""
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        kernel = ReferenceKernel()
        kernel()
        setup_times, setup_kernel_s = [], []
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS:
            before = kernel()
            t0 = time.perf_counter()
            lm, natural_image = import_program()
            wl = WORKLOADS[name](lm, natural_image, seed, workdir)
            wl.prepare(0)
            warm_up = wl.op(0, Untraced())
            setup_times.append(time.perf_counter() - t0)
            setup_kernel_s += [before, kernel()]
        setup_scaled = to_nominal(setup_times, range(len(setup_times)), setup_kernel_s)
        warmup_problems = [f"warm-up: {p}" for p in wl.check(warm_up)]

        tracemalloc.start()
        peak = 0
        for i in range(wl.ops_per_round):
            wl.prepare(i)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            wl.op(i, Untraced())
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
        tracemalloc.stop()

        tracer = Tracer() if trace else None
        m = measure(lm, wl, seconds, tracer, kernel)
        problems = warmup_problems + m.problems
        if hasattr(wl, "cross_check"):
            problems += [f"cross-check: {p}" for p in wl.cross_check(Untraced())]

        if trace:
            metrics, extra = per_layer(m, tracer.spans)
        else:
            metrics, extra = end_to_end(m, peak, setup_times, setup_scaled)
        declared = {d["name"]: d["unit"] for d in spec["per_layer" if trace else "end_to_end"]}
        if {k: u for k, (_, u) in metrics.items()} != declared:
            raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(declared)}")

        machine = machine_facts()
        inputs = wl.input_facts()
        inputs["working_set_per_cache_level"] = cache_ratios(inputs["working_set_computed"], machine)
        record = {
            "workload": name,
            "why": next(w["why"] for w in spec["workloads"] if w["name"] == name),
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "measured_s": m.wall_s,
            "machine": machine,
            "source": source_facts(ROOT),
            "input": inputs,
            "setup_s_samples": setup_times,
            "setup_s_scaled_samples": setup_scaled,
            "attempted": m.attempted,
            "failed": m.failed,
            "layer_errors": dict(m.layer_errors),
            "problems": problems[:50],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            **extra,
        }
        result = {"correct": not problems, "attempted": m.attempted, "failed": m.failed,
                  "metrics": record["metrics"]}
        return result, record
    finally:
        for path in workdir.glob("*"):
            path.unlink()
        workdir.rmdir()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0, help="mask seed (default 0; held-out seed 1009)")
    parser.add_argument("--seconds", type=float, default=25.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "linemend" / "__init__.py").is_file() or not FIXTURES.is_file():
        print(f"error: {ROOT} holds no linemend checkout (need src/linemend and tests/conftest.py)",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")

    results = {}
    for name in names:
        result, record = run_workload(spec, name, args.seed, args.seconds, bool(args.trace))
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        for problem in record["problems"]:
            print(f"{name}: {problem}", file=sys.stderr)
        for metric, m in result["metrics"].items():
            print(f"{name:24s} {metric:34s} {m['value']:14.6g} {m['unit']}")
        for metric, value in record.get("wall_clock", {}).items():
            print(f"{name:24s} {'(wall clock) ' + metric:34s} {value:14.6g}")
        print(f"{name:24s} record -> {path.relative_to(ROOT)}")
        results[name] = result

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
