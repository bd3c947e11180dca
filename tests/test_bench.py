"""Benchmark harness structure (the ordering claim lives in the acceptance suite)."""

import csv
import io
import random

from rlseg import Bitmap, encode
from rlseg.bench import CSV_COLUMNS, BenchRow, bench_paths, totals, write_csv
from rlseg.rle import write_rle
from rlseg.synth import SynthConfig, write_corpus


def _small_corpus(tmp_path):
    return write_corpus(SynthConfig(lines=3, words_per_line=2, seed=8), tmp_path)


def test_bench_rows_populated(tmp_path):
    paths = _small_corpus(tmp_path)
    rows = bench_paths(paths)
    assert len(rows) == 3
    for row in rows:
        assert row.width > 0 and row.height > 0 and row.runs > 0
        assert row.compression_ratio > 0
        assert row.cdp_total_ms > 0 and row.pdp_total_ms > 0
        assert row.cdp_work > 0 and row.pdp_work > 0
        assert row.cdp_work < row.pdp_work


def test_bench_repeat_populates_variance(tmp_path):
    paths = _small_corpus(tmp_path)
    rows = bench_paths(paths[:1], repeat=5)
    assert rows[0].cdp_var_ms2 >= 0.0
    assert rows[0].pdp_var_ms2 >= 0.0


def test_bench_reports_incompressible_noise_without_ordering_claim(tmp_path):
    # near ratio-1 input: the row must be reported; no ordering is asserted
    rng = random.Random(6)
    px = [[rng.randint(0, 1) for _ in range(64)] for _ in range(16)]
    path = tmp_path / "noise.rle"
    write_rle(encode(Bitmap(px)), path)
    rows = bench_paths([path])
    assert len(rows) == 1
    assert rows[0].compression_ratio < 4
    assert rows[0].cdp_total_ms > 0 and rows[0].pdp_total_ms > 0


def test_csv_output_parses(tmp_path):
    paths = _small_corpus(tmp_path)
    rows = bench_paths(paths, repeat=2)
    buf = io.StringIO()
    write_csv(rows, buf)
    parsed = list(csv.DictReader(io.StringIO(buf.getvalue())))
    assert [r["file"] for r in parsed[:-1]] == [p.name for p in paths]
    assert parsed[-1]["file"] == "TOTAL"
    assert set(parsed[0]) == set(CSV_COLUMNS)
    assert float(parsed[-1]["cdp_total_ms"]) > 0


def test_csv_bytes_pinned():
    rows = [
        BenchRow("a.rle", 40, 10, 32, 0.5, 1.25, 2.0, 0.0001234, 10.0, 20.125, 3.5, 120, 800),
        BenchRow("b,c.rle", 8, 2, 5, 0.0, 0.0004, 0.0006, 0.0, 0.3333, 0.6667, 1e-7, 7, 32),
    ]
    header = (
        "file,width,height,runs,compression_ratio,decode_ms,cdp_word_ms,cdp_char_ms,"
        "cdp_total_ms,cdp_var_ms2,pdp_word_ms,pdp_char_ms,pdp_total_ms,pdp_var_ms2,"
        "cdp_work,pdp_work\n"
    )
    buf = io.StringIO()
    write_csv(rows, buf)
    assert buf.getvalue() == header + (
        "a.rle,40,10,32,12.500,0.500,1.250,2.000,3.250,0.000123,"
        "10.000,20.125,30.125,3.500000,120,800\n"
        '"b,c.rle",8,2,5,3.200,0.000,0.000,0.001,0.001,0.000000,'
        "0.333,0.667,1.000,0.000000,7,32\n"
        "TOTAL,,,37,11.243,0.500,1.250,2.001,3.251,,10.333,20.792,31.125,,127,832\n"
    )
    assert (totals(rows)["runs"], totals(rows)["pdp_work"]) == (37, 832)  # sums stay ints
    buf = io.StringIO()
    write_csv([], buf)
    assert buf.getvalue() == header
