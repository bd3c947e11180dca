"""Wall-clock and work-counter comparison of run-domain vs pixel-domain runs.

Decode time is reported but kept out of the pixel-domain total; charging
decompression to the baseline would only widen the gap. Each repeat times the
run path and then the pixel oracle, word stage then char stage; the work
columns come from one untimed, counted char pass per domain after the timed
passes, and the TOTAL row's ratio is corpus pixels per corpus run.
"""

from __future__ import annotations

import csv
import statistics
import time
from pathlib import Path

from .chars import DEFAULT_PARAMS, RoiParams, segment_line_chars
from .errors import SettingError, named
from .pixel_baseline import pdp_segment_line_chars, pdp_segment_words
from .projection import WorkCounter
from .rle import decode, read_rle
from .words import AUTO, ThresholdMode, segment_words

# CSV column -> (format of a row's value, or None to write it as is; whether
# the TOTAL row sums it)
_COLUMNS = {
    "file": (None, False),
    "width": (None, False),
    "height": (None, False),
    "runs": (None, True),
    "compression_ratio": ("{:.3f}", False),
    "decode_ms": ("{:.3f}", True),
    "cdp_word_ms": ("{:.3f}", True),
    "cdp_char_ms": ("{:.3f}", True),
    "cdp_total_ms": ("{:.3f}", True),
    "cdp_var_ms2": ("{:.6f}", False),
    "pdp_word_ms": ("{:.3f}", True),
    "pdp_char_ms": ("{:.3f}", True),
    "pdp_total_ms": ("{:.3f}", True),
    "pdp_var_ms2": ("{:.6f}", False),
    "cdp_work": (None, True),
    "pdp_work": (None, True),
}
CSV_COLUMNS = list(_COLUMNS)

# (column prefix, word entry, char entry) of the run path on the line, then of
# the pixel oracle on its decoded bitmap
_DOMAINS = (
    ("cdp", segment_words, segment_line_chars),
    ("pdp", pdp_segment_words, pdp_segment_line_chars),
)


def bench_file(
    path,
    params: RoiParams = DEFAULT_PARAMS,
    mode: ThresholdMode = AUTO,
    repeat: int = 1,
) -> dict:
    """Time both pipelines on one line file, repeat times each; a row keyed by _COLUMNS."""
    if repeat < 1:
        raise SettingError("repeat", f"repeat must be >= 1, got {repeat}")
    path = Path(path)
    line = read_rle(path)
    t0 = time.perf_counter()
    bitmap = decode(line)
    decode_ms = (time.perf_counter() - t0) * 1e3

    images = (line, bitmap)
    times = [[] for _ in _DOMAINS]  # per domain, (word ms, char ms) of each repeat
    for _ in range(repeat):
        for (_, segment, segment_chars), image, domain_times in zip(_DOMAINS, images, times):
            t0 = time.perf_counter()
            words = segment(image, mode)
            t1 = time.perf_counter()
            segment_chars(image, params, mode, words=words)
            t2 = time.perf_counter()
            domain_times.append(((t1 - t0) * 1e3, (t2 - t1) * 1e3))

    row = dict(file=path.name, width=line.width, height=line.height, runs=line.total_runs)
    row["compression_ratio"] = line.width * line.height / line.total_runs
    row["decode_ms"] = decode_ms
    for (prefix, _, segment_chars), image, domain_times in zip(_DOMAINS, images, times):
        word_ms, char_ms = (statistics.fmean(stage) for stage in zip(*domain_times))
        counter = WorkCounter()
        segment_chars(image, params, mode, counter=counter)
        row[f"{prefix}_word_ms"] = word_ms
        row[f"{prefix}_char_ms"] = char_ms
        row[f"{prefix}_total_ms"] = word_ms + char_ms
        row[f"{prefix}_var_ms2"] = statistics.pvariance([sum(t) for t in domain_times])
        row[f"{prefix}_work"] = counter.count
    return row


def bench_paths(paths, params=DEFAULT_PARAMS, mode=AUTO, repeat=1) -> list[dict]:
    rows = []
    for path in paths:
        with named(path):
            rows.append(bench_file(path, params, mode, repeat))
    return rows


def _cell(fmt: str | None, value):
    return value if fmt is None else fmt.format(value)


def totals(rows: list[dict]) -> dict:
    """Aggregate row for the CSV; ratio is corpus pixels per corpus run."""
    out = {
        col: _cell(fmt, sum(r[col] for r in rows)) if summed else ""
        for col, (fmt, summed) in _COLUMNS.items()
    }
    pixels = sum(r["width"] * r["height"] for r in rows)
    runs = sum(r["runs"] for r in rows)
    out["file"] = "TOTAL"
    out["compression_ratio"] = f"{pixels / runs:.3f}" if runs else ""
    return out


def write_csv(rows: list[dict], stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(_cell(fmt, row[col]) for col, (fmt, _) in _COLUMNS.items())
    if rows:
        writer.writerow(totals(rows).values())
