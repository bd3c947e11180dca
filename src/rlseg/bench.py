"""Wall-clock and work-counter comparison of run-domain vs pixel-domain runs.

Decode time is reported but kept out of the pixel-domain total; charging
decompression to the baseline would only widen the gap.
"""

from __future__ import annotations

import csv
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from .chars import DEFAULT_PARAMS, RoiParams, segment_line_chars
from .errors import EmptyLineError, SettingError, decoding
from .pixel_baseline import pdp_segment_line_chars, pdp_segment_words
from .projection import WorkCounter
from .rle import decode, read_rle
from .words import AUTO, ThresholdMode, segment_words

# CSV column -> (format of a BenchRow attribute, or None to write it as is;
# whether the TOTAL row sums it)
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


@dataclass
class BenchRow:
    file: str
    width: int
    height: int
    runs: int
    decode_ms: float
    cdp_word_ms: float
    cdp_char_ms: float
    cdp_var_ms2: float
    pdp_word_ms: float
    pdp_char_ms: float
    pdp_var_ms2: float
    cdp_work: int
    pdp_work: int

    @property
    def compression_ratio(self) -> float:
        return self.width * self.height / self.runs

    @property
    def cdp_total_ms(self) -> float:
        return self.cdp_word_ms + self.cdp_char_ms

    @property
    def pdp_total_ms(self) -> float:
        return self.pdp_word_ms + self.pdp_char_ms


def _time_pipeline(segment_words_fn, segment_chars_fn) -> tuple[float, float]:
    t0 = time.perf_counter()
    words = segment_words_fn()
    t1 = time.perf_counter()
    segment_chars_fn(words)
    t2 = time.perf_counter()
    return (t1 - t0) * 1e3, (t2 - t1) * 1e3


def bench_file(
    path,
    params: RoiParams = DEFAULT_PARAMS,
    mode: ThresholdMode = AUTO,
    repeat: int = 1,
) -> BenchRow:
    """Time both pipelines on one line file, repeat times each."""
    if repeat < 1:
        raise SettingError("repeat", f"repeat must be >= 1, got {repeat}")
    path = Path(path)
    line = read_rle(path)
    t0 = time.perf_counter()
    with decoding(path):
        bitmap = decode(line)
    decode_ms = (time.perf_counter() - t0) * 1e3

    cdp_times, pdp_times = [], []
    for _ in range(repeat):
        cdp_times.append(
            _time_pipeline(
                lambda: segment_words(line, mode),
                lambda w: segment_line_chars(line, params, mode, words=w),
            )
        )
        pdp_times.append(
            _time_pipeline(
                lambda: pdp_segment_words(bitmap, mode),
                lambda w: pdp_segment_line_chars(bitmap, params, mode, words=w),
            )
        )

    cdp_counter, pdp_counter = WorkCounter(), WorkCounter()
    segment_line_chars(line, params, mode, counter=cdp_counter)
    pdp_segment_line_chars(bitmap, params, mode, counter=pdp_counter)

    cdp_word = statistics.fmean(t[0] for t in cdp_times)
    cdp_char = statistics.fmean(t[1] for t in cdp_times)
    pdp_word = statistics.fmean(t[0] for t in pdp_times)
    pdp_char = statistics.fmean(t[1] for t in pdp_times)
    return BenchRow(
        file=path.name,
        width=line.width,
        height=line.height,
        runs=line.total_runs,
        decode_ms=decode_ms,
        cdp_word_ms=cdp_word,
        cdp_char_ms=cdp_char,
        cdp_var_ms2=statistics.pvariance([sum(t) for t in cdp_times]),
        pdp_word_ms=pdp_word,
        pdp_char_ms=pdp_char,
        pdp_var_ms2=statistics.pvariance([sum(t) for t in pdp_times]),
        cdp_work=cdp_counter.count,
        pdp_work=pdp_counter.count,
    )


def bench_paths(paths, params=DEFAULT_PARAMS, mode=AUTO, repeat=1) -> list[BenchRow]:
    rows = []
    for path in paths:
        try:
            rows.append(bench_file(path, params, mode, repeat))
        except EmptyLineError as exc:
            raise EmptyLineError(f"{path}: {exc}") from exc
    return rows


def _cell(fmt: str | None, value):
    return value if fmt is None else fmt.format(value)


def totals(rows: list[BenchRow]) -> dict:
    """Aggregate row for the CSV; ratio is corpus pixels per corpus run."""
    out = {
        col: _cell(fmt, sum(getattr(r, col) for r in rows)) if summed else ""
        for col, (fmt, summed) in _COLUMNS.items()
    }
    pixels = sum(r.width * r.height for r in rows)
    runs = sum(r.runs for r in rows)
    out["file"] = "TOTAL"
    out["compression_ratio"] = f"{pixels / runs:.3f}" if runs else ""
    return out


def write_csv(rows: list[BenchRow], stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(_cell(fmt, getattr(row, col)) for col, (fmt, _) in _COLUMNS.items())
    if rows:
        writer.writerow(totals(rows).values())
