"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gauge  # noqa: E402
import harness as h  # noqa: E402
from rlseg import rle  # noqa: E402
from tracing import SITES, Tracer  # noqa: E402


def _tiny(workload, tmp_path):
    return h.build_corpus(workload, 3, workload.tiny_lines, tmp_path / workload.name)


def test_traced_visits_match_work_counter(tmp_path):
    # the outside cost model must agree with the program's own counter
    for workload in h.WORKLOADS.values():
        corpus = _tiny(workload, tmp_path)
        images = [rle.read_rle(p) for _, p in corpus.entries]
        bitmaps = [rle.decode(im) for im in images]
        tracer = Tracer()
        with tracer.installed():
            problems = h.counter_crosscheck(tracer, images, bitmaps)
        assert problems == [], workload.name


def test_counts_repeat_and_spans_cover_the_pass(tmp_path):
    workload = h.WORKLOADS["chars_narrow"]
    corpus = _tiny(workload, tmp_path)
    tracer = Tracer()
    with tracer.installed([(h, "write_output", "io.write_output")]):
        for phase in ("a", "b"):
            tracer.phase = phase
            result = h.run_pass(corpus.entries, workload.mode, tmp_path / "out.json", tracer)
            assert tracer.root_seconds(phase) >= 0.9 * result.seconds
    counts = [
        {n: {k: v for k, v in e.items() if k != "ms"} for n, e in tracer.summarize(p).items()}
        for p in ("a", "b")
    ]
    assert counts[0] == counts[1]
    assert counts[0]["rle.crop_columns"]["calls"] > 0
    assert all(sp[4] is not None for sp in tracer.spans if sp[0] == "rle.locate_run")


def test_tracer_restores_every_site():
    before = [getattr(m, a) for m, a, _ in SITES]
    with Tracer().installed():
        assert all(getattr(m, a) is not fn for (m, a, _), fn in zip(SITES, before))
    assert [getattr(m, a) for m, a, _ in SITES] == before


def test_oracle_mismatch_is_a_failed_line(tmp_path):
    workload = h.WORKLOADS["words_narrow"]
    corpus = _tiny(workload, tmp_path)
    run = h.run_pass(corpus.entries, workload.mode, tmp_path / "out.json")
    indices = h.oracle_indices(workload, len(corpus.entries))
    oracle = h.oracle_pass(h.decode_lines(corpus, indices), workload.mode)
    assert h.oracle_mismatches(run, oracle, corpus, indices) == {}
    run.per_line[1][0]["threshold"] += 1.0
    assert list(h.oracle_mismatches(run, oracle, corpus, indices)) == [corpus.entries[1][0]]


def test_pass_output_matches_cli(tmp_path):
    workload = h.WORKLOADS["chars_narrow"]
    corpus = _tiny(workload, tmp_path)
    h.run_pass(corpus.entries, workload.mode, tmp_path / "out.json")
    assert h.cli_matches(workload, corpus, tmp_path / "out.json", tmp_path / "cli.json")


def test_gauge_scales_each_piece_by_its_own_segment(tmp_path):
    g = gauge.SpeedGauge()
    g.groups = [[0.05, 0.05], [0.1, 0.1], [0.025, 0.025]]
    assert g.factor(1) == pytest.approx(gauge.REFERENCE_S / 0.075)
    assert g.factor(2) == pytest.approx(gauge.REFERENCE_S / 0.0625)
    assert g.scaled([(1.0, 1), (2.0, 2)]) == pytest.approx(g.factor(1) + 2.0 * g.factor(2))

    workload = h.WORKLOADS["words_narrow"]
    corpus = _tiny(workload, tmp_path)
    g = gauge.SpeedGauge()
    result = h.run_pass(corpus.entries, workload.mode, tmp_path / "out.json", gauge=g)
    g.read()
    assert len(result.pieces) == len(corpus.entries) + 1
    assert abs(sum(s for s, _ in result.pieces) - result.seconds) < 1e-9
    assert all(0 < seg < len(g.groups) for _, seg in result.pieces)


def test_tail_is_a_percentile_of_per_line_medians():
    # one slow pass of line 0 does not reach the tail; a slow line does
    per_line = [[1.0, 1.0, 50.0]] + [[float(i)] * 3 for i in range(1, 11)]
    assert h.tail(per_line) == 9.0
    assert h.tail([[4.0, 5.0, 6.0]]) == 5.0


def test_smoke_reports_every_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stderr


def test_fails_without_program_sources(tmp_path):
    # a directory with only BENCHMARK.json and perfbench/ must not yield a result
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "words_narrow", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
