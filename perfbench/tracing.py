"""In-memory span tracer, installed on rlseg's public functions from outside.

A wrapper replaces a function under the name its calling module imported it
by (for example ``rlseg.chars.crop_columns``), so the program itself is not
changed. Each call records one span: (name, start, end, parent span index,
line id, phase, counts). ``counts`` is a tuple computed from the call's
arguments and result with the module's documented cost model, for example
"every run of the selected rows is visited once" for ``occupancy``. The
bookkeeping that computes counts runs outside the callee's span, so it is
charged to the caller's self time; ``trace.overhead_frac`` reports the total.
"""

from __future__ import annotations

import gzip
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from rlseg import chars, evaluate, pixel_baseline, records, rle, words


def _runs_in(image, row_range) -> int:
    start, stop = row_range
    return sum(len(image.rows[r].runs) for r in range(start, stop))


def _crop_counts(result, image, x_min, x_max):
    # A cropped row holds one run per source run overlapping the window, plus
    # a zero-length leading run when the window starts inside ink.
    useful = sum(len(row.runs) - (row.runs[0] == 0) for row in result.rows)
    return image.total_runs, useful


def _pdp_ink_row_bounds_counts(result, bitmap):
    # Both scans read whole blank rows, then stop at the first inked pixel.
    top, bot = result
    px = bitmap.pixels
    width = bitmap.width
    first_top = int(np.argmax(px[top])) + 1
    first_bot = int(np.argmax(px[bot])) + 1
    return (top * width + first_top + (bitmap.height - 1 - bot) * width + first_bot,)


def _pdp_rows_counts(result, bitmap, row_range, *_):
    start, stop = row_range
    return (bitmap.width * (stop - start),)


def _cut_rows(seg, height: int) -> int:
    return len(seg.separators) * height


# (span name, count keys, count function(result, *args, **kwargs) or None)
LAYERS = {
    "rle.read_rle": (("runs",), lambda res, *a, **k: (res.total_runs,)),
    "rle.decode": (("pixels",), lambda res, *a, **k: (res.pixels.size,)),
    "rle.Bitmap": (("pixels",), lambda res, *a, **k: (res.pixels.size,)),
    "rle.crop_columns": (("visits", "useful"), _crop_counts),
    "rle.locate_run": (("visits",), lambda res, row, x: (len(row.runs),)),
    "words.separator_at": ((), None),
    "projection.occupancy": (("visits",), lambda res, img, rr, *a: (_runs_in(img, rr),)),
    "projection.column_frequency": (
        ("visits",),
        lambda res, img, rr, *a: (_runs_in(img, rr),),
    ),
    "projection.components": (("columns",), lambda res, occ: (occ.width,)),
    "words.segment_words": (
        ("cut_rows",),
        lambda res, line, *a, **k: (_cut_rows(res, line.height),),
    ),
    "words.plan_words": ((), None),
    "chars.segment_line_chars": (
        ("cut_rows",),
        lambda res, line, *a, **k: (sum(_cut_rows(s, line.height) for s in res.per_word),),
    ),
    "chars.segment_chars": ((), None),
    "chars.plan_chars": ((), None),
    "chars.repair": (
        ("removed", "inserted"),
        lambda res, *a, **k: (
            sum(op.op == "removed" for op in res.repairs),
            sum(op.op == "inserted" for op in res.repairs),
        ),
    ),
    "records.word_record": ((), None),
    "records.line_char_records": ((), None),
    "records.dumps": (("bytes",), lambda res, *a, **k: (len(res),)),
    "evaluate.evaluate_records": ((), None),
    "pixel_baseline.pdp_segment_words": ((), None),
    "pixel_baseline.pdp_segment_line_chars": ((), None),
    "pixel_baseline.pdp_segment_chars": ((), None),
    "pixel_baseline.pdp_separator_at": ((), None),
    "pixel_baseline.pdp_occupancy": (("visits",), _pdp_rows_counts),
    "pixel_baseline.pdp_column_frequency": (("visits",), _pdp_rows_counts),
    "pixel_baseline.pdp_locate_run": (("visits",), lambda res, row, x: (x + 1,)),
    "pixel_baseline.pdp_ink_row_bounds": (("visits",), _pdp_ink_row_bounds_counts),
    "io.write_output": ((), None),
}

# (module, attribute, span name): every place a layer is looked up at call time.
SITES = [
    (rle, "read_rle", "rle.read_rle"),
    (rle, "decode", "rle.decode"),
    (words, "locate_run", "rle.locate_run"),
    (words, "occupancy", "projection.occupancy"),
    (words, "components", "projection.components"),
    (words, "plan_words", "words.plan_words"),
    (words, "separator_at", "words.separator_at"),
    (words, "segment_words", "words.segment_words"),
    (chars, "crop_columns", "rle.crop_columns"),
    (chars, "occupancy", "projection.occupancy"),
    (chars, "column_frequency", "projection.column_frequency"),
    (chars, "components", "projection.components"),
    (chars, "separator_at", "words.separator_at"),
    (chars, "segment_words", "words.segment_words"),
    (chars, "repair", "chars.repair"),
    (chars, "plan_chars", "chars.plan_chars"),
    (chars, "segment_chars", "chars.segment_chars"),
    (chars, "segment_line_chars", "chars.segment_line_chars"),
    (records, "word_record", "records.word_record"),
    (records, "line_char_records", "records.line_char_records"),
    (records, "dumps", "records.dumps"),
    (evaluate, "evaluate_records", "evaluate.evaluate_records"),
    (pixel_baseline, "Bitmap", "rle.Bitmap"),
    (pixel_baseline, "components", "projection.components"),
    (pixel_baseline, "plan_words", "words.plan_words"),
    (pixel_baseline, "plan_chars", "chars.plan_chars"),
    (pixel_baseline, "pdp_occupancy", "pixel_baseline.pdp_occupancy"),
    (pixel_baseline, "pdp_column_frequency", "pixel_baseline.pdp_column_frequency"),
    (pixel_baseline, "pdp_ink_row_bounds", "pixel_baseline.pdp_ink_row_bounds"),
    (pixel_baseline, "pdp_locate_run", "pixel_baseline.pdp_locate_run"),
    (pixel_baseline, "pdp_separator_at", "pixel_baseline.pdp_separator_at"),
    (pixel_baseline, "pdp_segment_chars", "pixel_baseline.pdp_segment_chars"),
    (pixel_baseline, "pdp_segment_words", "pixel_baseline.pdp_segment_words"),
    (pixel_baseline, "pdp_segment_line_chars", "pixel_baseline.pdp_segment_line_chars"),
]


class Tracer:
    """Collects spans in memory; ``phase`` and ``line_id`` label new spans."""

    def __init__(self) -> None:
        self.spans: list = []
        self.phase: str | None = None
        self.line_id: str | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.line_id, self.phase, None)
            if count is not None:
                spans[idx] = spans[idx][:6] + (count(result, *args, **kwargs),)
            return result

        return traced

    @contextmanager
    def installed(self, extra_sites=()):
        """Replace every site with a traced wrapper; restore them on exit."""
        saved = []
        try:
            for module, attr, name in [*SITES, *extra_sites]:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, LAYERS[name][1]))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def summarize(self, phase: str) -> dict:
        """Per span name: self ms, calls and summed counts within one phase."""
        covered = defaultdict(float)
        for sp in self.spans:
            if sp[5] == phase and sp[3] >= 0:
                covered[sp[3]] += sp[2] - sp[1]
        out: dict[str, dict] = {}
        for idx, sp in enumerate(self.spans):
            if sp[5] != phase:
                continue
            name = sp[0]
            keys = LAYERS[name][0]
            entry = out.setdefault(name, {"ms": 0.0, "calls": 0, **{k: 0 for k in keys}})
            entry["ms"] += (sp[2] - sp[1] - covered[idx]) * 1e3
            entry["calls"] += 1
            if sp[6] is not None:
                for key, value in zip(keys, sp[6]):
                    entry[key] += value
        return out

    def root_seconds(self, phase: str) -> float:
        """Wall time covered by the phase's top-level spans."""
        return sum(sp[2] - sp[1] for sp in self.spans if sp[5] == phase and sp[3] < 0)

    def write(self, path) -> None:
        """Write every span as one tab-separated line (times in us from the first)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index\tname\tphase\tline_id\tstart_us\tend_us\tparent\tcounts\n")
            for idx, (name, start, end, parent, line_id, phase, counts) in enumerate(
                self.spans
            ):
                fh.write(
                    f"{idx}\t{name}\t{phase}\t{line_id or ''}\t{(start - t0) * 1e6:.1f}\t"
                    f"{(end - t0) * 1e6:.1f}\t{parent}\t"
                    f"{','.join(map(str, counts)) if counts else ''}\n"
                )
