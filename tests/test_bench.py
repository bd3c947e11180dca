"""Benchmark harness structure (the ordering claim lives in the acceptance suite)."""

import csv
import io
import random
import types

from rlseg import Bitmap, encode
from rlseg.bench import CSV_COLUMNS, bench_paths, totals, write_csv
from rlseg.chars import RoiParams, segment_line_chars
from rlseg.pixel_baseline import pdp_segment_line_chars
from rlseg.projection import WorkCounter
from rlseg.rle import decode, read_rle, write_rle
from rlseg.synth import SynthConfig, write_corpus
from rlseg.words import ThresholdMode


def _small_corpus(tmp_path):
    return write_corpus(SynthConfig(lines=3, words_per_line=2, seed=8), tmp_path)


def _csv_rows(rows):
    """rows as write_csv writes them, the TOTAL row last."""
    buf = io.StringIO()
    write_csv(rows, buf)
    return list(csv.DictReader(io.StringIO(buf.getvalue())))


def test_bench_rows_populated(tmp_path):
    paths = _small_corpus(tmp_path)
    rows = bench_paths(paths)
    assert len(rows) == 3
    for row in rows:
        assert row["width"] > 0 and row["height"] > 0 and row["runs"] > 0
        assert row["compression_ratio"] == row["width"] * row["height"] / row["runs"]
        for prefix in ("cdp", "pdp"):
            word_ms, char_ms = row[f"{prefix}_word_ms"], row[f"{prefix}_char_ms"]
            assert row[f"{prefix}_total_ms"] == word_ms + char_ms > 0
        assert row["cdp_work"] > 0 and row["pdp_work"] > 0
        assert row["cdp_work"] < row["pdp_work"]


def test_bench_repeat_populates_variance(tmp_path):
    paths = _small_corpus(tmp_path)
    rows = bench_paths(paths[:1], repeat=5)
    assert rows[0]["cdp_var_ms2"] >= 0.0
    assert rows[0]["pdp_var_ms2"] >= 0.0


def test_bench_timings_follow_a_fake_clock(tmp_path, monkeypatch):
    # perf_counter reads i**3 ms on its i-th call, so every timed interval
    # differs: the cells pin which calls each column spans and how it is averaged
    clock = iter(i**3 / 1000 for i in range(20))
    monkeypatch.setattr("rlseg.bench.time", types.SimpleNamespace(perf_counter=clock.__next__))
    path = _small_corpus(tmp_path)[0]
    row, total = _csv_rows(bench_paths([path], repeat=3))
    assert next(clock, None) is None  # decode, then 3 x (run path, oracle) x 3 reads
    timings = {
        "decode_ms": "1.000",
        "cdp_word_ms": "289.000",  # (19 + 217 + 631) / 3
        "cdp_char_ms": "343.000",  # (37 + 271 + 721) / 3
        "cdp_total_ms": "632.000",
        "cdp_var_ms2": "290304.000000",  # of the repeats' totals 56, 488, 1352
        "pdp_word_ms": "469.000",  # (91 + 397 + 919) / 3
        "pdp_char_ms": "541.000",  # (127 + 469 + 1027) / 3
        "pdp_total_ms": "1010.000",
        "pdp_var_ms2": "508032.000000",  # of 218, 866, 1946
    }
    assert {col: row[col] for col in timings} == timings
    assert {col: total[col] for col in timings} == {
        **timings, "cdp_var_ms2": "", "pdp_var_ms2": ""
    }


def test_work_columns_count_one_char_pass(tmp_path):
    paths = _small_corpus(tmp_path)
    params, mode = RoiParams(0.25, 0.3, 1.6), ThresholdMode.parse("scale:1.1")
    for path, row in zip(paths, _csv_rows(bench_paths(paths, params, mode))):
        line = read_rle(path)
        cdp, pdp = WorkCounter(), WorkCounter()
        segment_line_chars(line, params, mode, counter=cdp)
        pdp_segment_line_chars(decode(line), params, mode, counter=pdp)
        assert (int(row["cdp_work"]), int(row["pdp_work"])) == (cdp.count, pdp.count)


def test_bench_reports_incompressible_noise_without_ordering_claim(tmp_path):
    # near ratio-1 input: the row must be reported; no ordering is asserted
    rng = random.Random(6)
    px = [[rng.randint(0, 1) for _ in range(64)] for _ in range(16)]
    path = tmp_path / "noise.rle"
    write_rle(encode(Bitmap(px)), path)
    rows = bench_paths([path])
    assert len(rows) == 1
    assert rows[0]["compression_ratio"] < 4
    assert rows[0]["cdp_total_ms"] > 0 and rows[0]["pdp_total_ms"] > 0


def test_csv_output_parses(tmp_path):
    paths = _small_corpus(tmp_path)
    parsed = _csv_rows(bench_paths(paths, repeat=2))
    assert [r["file"] for r in parsed[:-1]] == [p.name for p in paths]
    assert parsed[-1]["file"] == "TOTAL"
    assert set(parsed[0]) == set(CSV_COLUMNS)
    assert float(parsed[-1]["cdp_total_ms"]) > 0


def _row(*cells):
    """A hand-made row: its values in CSV_COLUMNS order."""
    return dict(zip(CSV_COLUMNS, cells, strict=True))


def test_csv_bytes_pinned():
    rows = [
        _row("a.rle", 40, 10, 32, 12.5, 0.5, 1.25, 2.0, 3.25, 0.0001234,
             10.0, 20.125, 30.125, 3.5, 120, 800),
        _row("b,c.rle", 8, 2, 5, 3.2, 0.0, 0.0004, 0.0006, 0.001, 0.0,
             0.3333, 0.6667, 1.0, 1e-7, 7, 32),
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
