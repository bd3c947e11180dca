"""Measurement and reporting of one benchmark run; see perfbench/README.md.

End-to-end metrics come from untraced passes (``--trace 0``). Per-layer
metrics come from a separate traced run (``--trace 1``) that interleaves
untraced and traced passes; the ratio of their medians is the tracing
overhead. Every reported time is scaled to the reference machine speed by the
interleaved gauge in ``gauge.py``; ``info`` keeps the raw wall-clock times.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness as h
import numpy
from gauge import SpeedGauge, calibrate_pixels
from rlseg import rle
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
RUNS_DIR = ROOT / ".perfbench_runs"
SETUP_REPEATS = 3
CROSSCHECK_LINES = 2
ORACLE_CHUNKS = 4  # oracle lines are timed in this many chunks per round

# Self time per pass, from the run-domain passes.
RUN_MS = (
    "rle.read_rle", "rle.crop_columns", "rle.locate_run", "words.separator_at",
    "projection.occupancy", "projection.column_frequency", "projection.components",
    "words.segment_words", "words.plan_words", "chars.segment_line_chars",
    "chars.segment_chars", "chars.plan_chars", "chars.repair", "records.word_record",
    "records.line_char_records", "records.dumps", "io.write_output",
)
# (metric, span, count key, unit) from the first run-domain pass.
RUN_COUNTS = (
    ("rle.read_rle.runs", "rle.read_rle", "runs", "runs"),
    ("rle.crop_columns.calls", "rle.crop_columns", "calls", "calls"),
    ("rle.crop_columns.visits", "rle.crop_columns", "visits", "runs"),
    ("rle.locate_run.calls", "rle.locate_run", "calls", "calls"),
    ("rle.locate_run.visits", "rle.locate_run", "visits", "runs"),
    ("words.separator_at.calls", "words.separator_at", "calls", "calls"),
    ("projection.occupancy.calls", "projection.occupancy", "calls", "calls"),
    ("projection.occupancy.visits", "projection.occupancy", "visits", "runs"),
    ("projection.column_frequency.calls", "projection.column_frequency", "calls", "calls"),
    ("projection.column_frequency.visits", "projection.column_frequency", "visits", "runs"),
    ("projection.components.columns", "projection.components", "columns", "columns"),
    ("chars.repair.removed", "chars.repair", "removed", "cuts"),
    ("chars.repair.inserted", "chars.repair", "inserted", "cuts"),
    ("records.dumps.bytes", "records.dumps", "bytes", "bytes"),
)
RUN_VISITS = ("projection.occupancy", "projection.column_frequency",
              "rle.crop_columns", "rle.locate_run")
PDP_VISITS = tuple(
    f"pixel_baseline.{n}"
    for n in ("pdp_occupancy", "pdp_column_frequency", "pdp_locate_run", "pdp_ink_row_bounds")
)
# (span, count key, unit) from the traced oracle pass, reported as ms and count.
ORACLE_LAYERS = tuple((n, "visits", "pixels") for n in PDP_VISITS) + (
    ("rle.Bitmap", "pixels", "pixels"),
    ("rle.decode", "pixels", "pixels"),
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git repository, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
    }


def _whole_run_checks(workload, corpus, work: Path) -> dict:
    """Checks made once per run, after the last pass wrote work/out.json."""
    return {
        "cli_output_identical": h.cli_matches(
            workload, corpus, work / "out.json", work / "cli.json"
        ),
        "reference_ar_equal": h.reference_ar(workload, work / "reference")
        == workload.reference_ar,
    }


def _rounds(seconds: float, done=lambda: True):
    """Yield once per round until ``done()`` holds and another round would
    end more than half past ``seconds``."""
    start = round_start = time.perf_counter()
    while True:
        yield
        now = time.perf_counter()
        if done() and now + (now - round_start) / 2 - start >= seconds:
            return
        round_start = now


def end_to_end(workload, seed: int, lines: int, work: Path, seconds: float) -> dict:
    gauge = SpeedGauge()
    setup_times, raw_setup = [], []
    for _ in range(SETUP_REPEATS):
        segment = gauge.segment
        corpus, took = h.setup(workload, seed, lines, work / "corpus")
        gauge.read()
        raw_setup.append(took)
        setup_times.append(gauge.scaled([(took, segment)]))

    # Run-domain passes alternate with oracle chunks, and gauge readings run
    # between their lines, so that all of them sample the same machine
    # states. The loop ends once the oracle has checked every line it covers
    # and another round would end more than half past the time limit.
    indices = h.oracle_indices(workload, len(corpus.entries))
    chunk = math.ceil(len(indices) / ORACLE_CHUNKS)
    walls, raw_walls, samples, failed = [], [], [], {}
    per_line = [[] for _ in corpus.entries]
    oracle_times = {i: [] for i in indices}  # each line with its share of the dumps
    oracle_gauge = SpeedGauge(calibrate_pixels)
    checked = 0
    for _ in _rounds(seconds, lambda: checked >= len(indices)):
        last = None  # free the previous pass's records before the next pass
        gauge.read()
        last = h.run_pass(corpus.entries, workload.mode, work / "out.json", gauge=gauge)
        gauge.read()
        raw_walls.append(last.seconds)
        walls.append(gauge.scaled(last.pieces))
        for times, (took, segment) in zip(per_line, last.pieces):
            times.append(took * gauge.factor(segment) * 1e3)
            samples.append(times[-1])
        failed.update(last.errors)
        part = [indices[(checked + k) % len(indices)] for k in range(chunk)]
        bitmaps = h.decode_lines(corpus, part)
        oracle_gauge.read()
        oracle = h.oracle_pass(bitmaps, workload.mode, gauge=oracle_gauge)
        oracle_gauge.read()
        *line_pieces, (rest, rest_segment) = oracle.pieces
        share = rest * oracle_gauge.factor(rest_segment) / len(part)
        for i, (took, segment) in zip(part, line_pieces):
            oracle_times[i].append(took * oracle_gauge.factor(segment) + share)
        failed.update(oracle.errors)
        if checked < len(indices):
            for line_id, reason in h.oracle_mismatches(last, oracle, corpus, part).items():
                failed.setdefault(line_id, reason)
        checked += chunk
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = _whole_run_checks(workload, corpus, work)
    size = h.input_size(corpus)
    wall = statistics.median(walls)
    n = len(corpus.entries)
    metrics = {
        "lines_per_s": (n / wall, "lines/s"),
        "kruns_per_s": (size["total_runs"] / 1e3 / wall, "kruns/s"),
        "line_ms_p50": (statistics.median(samples), "ms"),
        "line_ms_tail": (h.tail(per_line), "ms"),
        "pdp_lines_per_s": (
            len(indices) / sum(statistics.median(t) for t in oracle_times.values()), "lines/s"),
        "ar_percent": (h.accuracy(workload, last, corpus.truth), "%"),
        "ok_frac": (1.0 - len(failed) / n, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    info = {
        "input": size,
        "passes": len(walls),
        "line_samples": len(samples),
        "tail_percentile": h.TAIL_PERCENTILE,
        "oracle_lines_checked": len(indices),
        "oracle_lines_timed": sum(len(t) for t in oracle_times.values()),
        "pass_seconds": walls,
        "raw_pass_seconds": raw_walls,
        "setup_seconds": setup_times,
        "raw_setup_seconds": raw_setup,
        "calibration_seconds": gauge.readings,
        "pixel_calibration_seconds": oracle_gauge.readings,
    }
    return {"metrics": metrics, "failed": failed, "checks": checks, "info": info, "attempted": n}


def _count(stats: dict, span: str, key: str):
    return stats.get(span, {}).get(key, 0)


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(run_stats: list[dict], oracle: dict, evaluation: dict) -> dict:
    """Per-layer metrics: ms is the median over traced passes, counts are from pass 1."""
    first = run_stats[0]
    m = {
        f"{span}.ms": (statistics.median(_count(s, span, "ms") for s in run_stats), "ms")
        for span in RUN_MS
    }
    for metric, span, key, unit in RUN_COUNTS:
        m[metric] = (_count(first, span, key), unit)
    m["rle.crop_columns.useful_ratio"] = (
        _ratio(_count(first, "rle.crop_columns", "useful"),
               _count(first, "rle.crop_columns", "visits")),
        "ratio",
    )
    # char-stage locates: all locate_run calls minus one per word cut and row
    char_locates = (_count(first, "rle.locate_run", "calls")
                    - _count(first, "words.segment_words", "cut_rows"))
    m["chars.locates_per_cut"] = (
        _ratio(char_locates, _count(first, "chars.segment_line_chars", "cut_rows")),
        "locates/cut",
    )
    for span, key, unit in ORACLE_LAYERS:
        m[f"{span}.ms"] = (_count(oracle, span, "ms"), "ms")
        m[f"{span}.{key}"] = (_count(oracle, span, key), unit)
    m["evaluate.evaluate_records.ms"] = (
        _count(evaluation, "evaluate.evaluate_records", "ms"), "ms")
    m["run_path.visits_per_run"] = (
        _ratio(sum(_count(first, s, "visits") for s in RUN_VISITS),
               _count(first, "rle.read_rle", "runs")),
        "visits/run",
    )
    m["pixel_baseline.visits_per_pixel"] = (
        _ratio(sum(_count(oracle, s, "visits") for s in PDP_VISITS),
               _count(oracle, "rle.decode", "pixels")),
        "visits/px",
    )
    return m


def _scaled(stats: dict, factor: float) -> dict:
    """Span stats with self ms scaled by the gauge factor of their segment."""
    return {span: {**e, "ms": e["ms"] * factor} for span, e in stats.items()}


def _counts_only(stats: dict) -> dict:
    return {span: {k: v for k, v in e.items() if k != "ms"} for span, e in stats.items()}


def traced(workload, seed: int, lines: int, work: Path, seconds: float) -> dict:
    corpus, _ = h.setup(workload, seed, lines, work / "corpus")
    tracer = Tracer()
    sites = [(h, "write_output", "io.write_output")]
    gauge = SpeedGauge()
    plain, traced_walls, scales, coverage, failed = [], [], [], [], {}
    for _ in _rounds(seconds):
        # interleaved, so that machine drift affects both sides alike
        last = None  # free the previous pass's records before the next pass
        untraced = h.run_pass(corpus.entries, workload.mode, work / "out.json")
        gauge.read()
        plain.append(untraced.seconds * gauge.factor(gauge.segment - 1))
        failed.update(untraced.errors)
        phase = f"run{len(traced_walls)}"
        with tracer.installed(sites):
            tracer.phase = phase
            last = h.run_pass(corpus.entries, workload.mode, work / "out.json", tracer)
        gauge.read()
        scales.append(gauge.factor(gauge.segment - 1))
        traced_walls.append(last.seconds * scales[-1])
        failed.update(last.errors)
        coverage.append(tracer.root_seconds(phase) / last.seconds)

    indices = h.oracle_indices(workload, len(corpus.entries))
    sample = indices[:CROSSCHECK_LINES]
    with tracer.installed(sites):
        tracer.phase = "oracle"
        oracle_gauge = SpeedGauge(calibrate_pixels)
        bitmaps = h.decode_lines(corpus, indices, tracer)
        oracle = h.oracle_pass(bitmaps, workload.mode, tracer)
        oracle_gauge.read()
        oracle_scale = oracle_gauge.factor(oracle_gauge.segment - 1)
        gauge.read()
        tracer.phase = "evaluate"
        ar = h.accuracy(workload, last, corpus.truth)
        gauge.read()
        evaluate_scale = gauge.factor(gauge.segment - 1)
        tracer.phase = None
        images = [rle.read_rle(corpus.entries[i][1]) for i in sample]
        problems = h.counter_crosscheck(tracer, images, [b for _, b in bitmaps[: len(sample)]])
    failed.update(oracle.errors)
    for line_id, reason in h.oracle_mismatches(last, oracle, corpus, indices).items():
        failed.setdefault(line_id, reason)

    run_stats = [_scaled(tracer.summarize(f"run{k}"), f) for k, f in enumerate(scales)]
    metrics = layer_metrics(
        run_stats,
        _scaled(tracer.summarize("oracle"), oracle_scale),
        _scaled(tracer.summarize("evaluate"), evaluate_scale),
    )
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(plain) - 1.0, "ratio")
    metrics["trace.coverage"] = (statistics.median(coverage), "ratio")

    checks = _whole_run_checks(workload, corpus, work)
    checks["counts_repeat"] = all(
        _counts_only(s) == _counts_only(run_stats[0]) for s in run_stats
    )
    checks["counter_crosscheck"] = not problems
    tracer.write(work / "spans.tsv.gz")
    info = {
        "input": h.input_size(corpus),
        "traced_passes": len(traced_walls),
        "untraced_passes": len(plain),
        "spans": len(tracer.spans),
        "calibration_seconds": gauge.readings,
        "ar_percent": ar,
        "crosscheck_problems": problems,
    }
    return {"metrics": metrics, "failed": failed, "checks": checks, "info": info,
            "attempted": len(corpus.entries)}


def run(args) -> dict:
    workload = h.WORKLOADS[args.workload]
    lines = workload.tiny_lines if args.tiny else workload.lines
    work = RUNS_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    measure = traced if args.trace else end_to_end
    out = measure(workload, args.seed, lines, work, args.seconds)
    correct = not out["failed"] and all(out["checks"].values())
    result = {
        "correct": correct,
        "attempted": out["attempted"],
        "failed": len(out["failed"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
    }
    report = {
        "workload": workload.name,
        "mode": workload.mode,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "checks": out["checks"],
        "failed_lines": out["failed"],
        **out["info"],
        "result": result,
    }
    (work / "report.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for name in ("corpus", "reference", "out.json", "cli.json"):
        path = work / name
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink(missing_ok=True)
    return report


def smoke(seconds: float) -> int:
    """Run every workload on a tiny corpus, both modes, in fresh processes."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for name in h.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).with_name("run.py")),
                   "--workload", name, "--seed", "1", "--seconds", str(seconds),
                   "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            label = f"{name} trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"]:
                problems.append(f"{label}: outputs not correct")
            got = result["metrics"]
            for m in expected[trace]:
                if m["name"] not in got:
                    problems.append(f"{label}: missing {m['name']}")
                elif got[m["name"]].get("unit") != m["unit"]:
                    problems.append(f"{label}: {m['name']} unit {got[m['name']].get('unit')}")
            extra = set(got) - {m["name"] for m in expected[trace]}
            if extra:
                problems.append(f"{label}: unlisted metrics {sorted(extra)}")
            print(f"smoke {label}: {len(got)} metrics", flush=True)
    for p in problems:
        print(f"smoke FAIL {p}", file=sys.stderr)
    return 1 if problems else 0


def _print_report(report: dict) -> None:
    print(f"workload {report['workload']} seed {report['seed']} trace {report['trace']}")
    for name, m in report["result"]["metrics"].items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    for name, ok in report["checks"].items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    for line_id, reason in report["failed_lines"].items():
        print(f"  failed {line_id}: {reason}")
    info = {k: v for k, v in report.items() if k not in ("result", "checks", "failed_lines")}
    print(json.dumps({"info": info}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", choices=sorted(h.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny corpus (smoke path)")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload on a tiny corpus and check the metric list")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke(min(args.seconds, 1.0))
    if args.workload is None:
        parser.error("--workload is required")
    report = run(args)
    _print_report(report)
    print(json.dumps(report["result"]))
    return 0
