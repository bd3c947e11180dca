"""Shared fixture builders and independent brute-force oracles."""

from __future__ import annotations

import json
import math
import re
from itertools import accumulate, chain
from typing import NamedTuple
from operator import sub
from pathlib import Path

import numpy as np

from rlseg import Bitmap, EmptyWordError, ParseError, RleImage, encode
from rlseg.chars import (
    _EPS,
    CharSegmentation,
    LineBands,
    LineCharSegmentation,
    RepairOp,
    RepairResult,
    plan_chars,
    repair,
)
from rlseg.projection import Component, occupancy, union
from rlseg.rle import crop_columns
from rlseg.words import Cuts

# Worked reference line: 13 component intervals of a sample sentence.
REFERENCE_LINE_COMPONENTS = [
    (19, 94), (105, 204), (218, 251), (260, 292), (301, 319), (333, 363),
    (376, 439), (452, 510), (526, 540), (552, 579), (593, 647), (662, 715),
    (731, 784),
]
REFERENCE_LINE_GAP_WIDTHS = [10, 13, 8, 8, 13, 12, 12, 15, 11, 13, 14, 15]

# Worked reference word: 6 component intervals of an 8-letter cursive word.
REFERENCE_WORD_COMPONENTS = [(2, 3), (6, 18), (20, 34), (37, 45), (48, 59), (63, 73)]
REFERENCE_WORD_LENGTHS = [2, 13, 15, 9, 12, 11]


# A word whose one oversized component comes from a merge: (0, 9) absorbs the
# 1-column (11, 11) across the 1-column gap. The mean length is 5.8, and under
# the default params 10 <= 1.75 * 5.8 < 12.
MERGE_OVERSIZED_WORD = [(0, 9), (11, 11), (20, 25), (30, 35), (40, 45)]


# A line of five words under a fixed word threshold of 12, as (x_min, x_max,
# first row, stop row) ink boxes 30 rows high. Under the default params each
# word's ROI is rows [6, 24), banded [6, 12), [12, 18), [18, 24). Word 0 has
# ink in the middle band and the trimmed rows only, so its band OR is dark;
# word 1 only in the trimmed rows, so its ROI is blank too; word 2 is
# MERGE_OVERSIZED_WORD, which merges, then splits; word 3 splits; word 4 merges.
FALLBACK_LINE = [
    (0, 3, 0, 6), (5, 8, 12, 18), (10, 13, 24, 30),
    (30, 33, 0, 6), (36, 39, 24, 30),
    *((a + 60, b + 60, 0, 30) for a, b in MERGE_OVERSIZED_WORD),
    (130, 135, 0, 30), (140, 145, 0, 30), (150, 175, 0, 30),
    (200, 209, 0, 30), (211, 211, 0, 30), (215, 224, 0, 30),
]


def plain_record(record: dict) -> dict:
    """The record as plain JSON values: its separators, a Cuts, as the
    [{"x", "runs"}] list that records.dumps writes for them."""
    cuts = record.get("separators")
    if not isinstance(cuts, Cuts):
        return record
    return {**record, "separators": [{"x": x, "runs": list(runs)} for x, runs in cuts]}


def json_lines(records) -> str:
    """The reference for records.dumps: each record as json's encoder writes it compact."""
    return "\n".join(json.dumps(plain_record(r), separators=(",", ":")) for r in records)


def past_2_62_line(lead: int, width: int) -> RleImage:
    """Three rows of three words of two glyphs, on dtype=object spans: with
    width * 3 >= 2**62, every bound and cut column is past the digit table."""
    L, g, G = 2**57, 2**55, 2**59
    runs = (lead, L, g, L, G, L, g, L, G, L, g, L)
    return RleImage(width, [(*runs, width - sum(runs))] * 3)


def past_4096_runs_line() -> RleImage:
    """2,100 one-column words 5 columns apart in 2 rows: the last cuts are in
    runs past index 4096, and the bounds past column 4096."""
    return bars_line([(5 * k, 5 * k) for k in range(2100)], height=2)


def boxes_line(boxes, lead: int, width: int) -> RleImage:
    """A 30-row line of ink boxes (x_min, x_max, first row, stop row), moved lead columns right."""
    px = np.zeros((30, width), np.uint8)
    for a, b, r0, r1 in boxes:
        px[r0:r1, lead + a : lead + b + 1] = 1
    return encode(Bitmap(px))


def bars_bitmap(intervals, width=None, height=10, row_span=None) -> Bitmap:
    """Solid vertical bars over the given inclusive column intervals."""
    if width is None:
        width = max(b for _, b in intervals) + 2 if intervals else 4
    r0, r1 = row_span if row_span else (0, height)
    px = np.zeros((height, width), dtype=np.uint8)
    for a, b in intervals:
        px[r0:r1, a : b + 1] = 1
    return Bitmap(px)


def bars_line(intervals, width=None, height=10, row_span=None) -> RleImage:
    return encode(bars_bitmap(intervals, width, height, row_span))


def glyph_word(intervals, height=24, width=None) -> RleImage:
    """Word image whose glyphs span the full height (all bands covered)."""
    return bars_line(intervals, width=width, height=height, row_span=(0, height))


def random_bitmap(rng, max_w=64, max_h=16, density=None) -> Bitmap:
    w = rng.randint(1, max_w)
    h = rng.randint(1, max_h)
    d = density if density is not None else rng.choice([0.05, 0.2, 0.5, 0.8])
    px = (np.array([[rng.random() for _ in range(w)] for _ in range(h)]) < d).astype(
        np.uint8
    )
    return Bitmap(px)


def random_blob_line(rng, max_blobs=8) -> RleImage:
    """Random glyph-ish line: solid blobs of varying height with random gaps."""
    height = rng.randint(6, 20)
    x = rng.randint(0, 4)
    intervals = []
    for _ in range(rng.randint(1, max_blobs)):
        w = rng.randint(2, 10)
        intervals.append((x, x + w - 1))
        x += w + rng.randint(1, 15)
    width = x + rng.randint(1, 4)
    px = np.zeros((height, width), dtype=np.uint8)
    for a, b in intervals:
        r0 = rng.randint(0, height - 2)
        r1 = rng.randint(r0 + 1, height)
        px[r0:r1, a : b + 1] = 1
    return encode(Bitmap(px))


def shift_right(rle: RleImage, k: int) -> RleImage:
    """Pad k background columns on the left."""
    rows = []
    for row in rle.rows:
        runs = list(row.runs)
        runs[0] += k
        rows.append(runs)
    return RleImage(rle.width + k, rows)


def shifted_plan(result: RepairResult, dx: int) -> RepairResult:
    """A word's plan moved dx columns right: the plan of a word image, moved
    into the coordinates of the line it was cropped from."""
    return RepairResult(
        tuple(Component(c.x_min + dx, c.x_max + dx) for c in result.chars),
        tuple(x + dx for x in result.cuts),
        tuple(RepairOp(r.op, r.x + dx) for r in result.repairs),
    )


class BandSet(NamedTuple):
    """Top/middle/bottom row ranges partitioning the ROI exactly."""

    top: range
    middle: range
    bottom: range


def roi_from_bounds(ink_top: int, ink_bot: int, t: float) -> tuple[int, int, bool]:
    """Trim floor(t*H) rows off each end of the ink box of height H, one
    word at a time: the scalar reference for chars.roi_bands. Returns the
    ROI's half-open rows (start, stop) and whether it fell back.

    Trimming never empties the ROI for t < 0.5; larger t values fall back to
    the full ink box and flag it.
    """
    if t < 0 or t >= 1:
        raise ValueError("t must be in [0, 1)")
    height = ink_bot - ink_top + 1
    trim = math.floor(t * height + _EPS)
    if 2 * trim >= height:
        return ink_top, ink_bot + 1, True
    return ink_top + trim, ink_bot + 1 - trim, False


def split_bands(start: int, stop: int) -> BandSet:
    """Divide the half-open row span [start, stop) into three bands: the
    scalar reference for chars.roi_bands' bands.

    Bands are as equal as possible; remainder rows go to the top first.
    A span shorter than 3 rows leaves the trailing bands empty.
    """
    n = stop - start
    if n < 1:
        raise ValueError("cannot band an empty row span")
    base, rem = divmod(n, 3)
    top_n = base + (1 if rem >= 1 else 0)
    mid_n = base + (1 if rem >= 2 else 0)
    top = range(start, start + top_n)
    middle = range(top.stop, top.stop + mid_n)
    bottom = range(middle.stop, stop)
    return BandSet(top, middle, bottom)


def word_bands_reference(line: RleImage, words, t: float, counter=None) -> LineBands:
    """Every word's bands from its own crop, built word by word: its ink rows
    from the crop's row pointer (the last row whose pointer is 0, and the
    row before the first one at the total), roi_from_bounds and split_bands,
    and the occupancy of its top and bottom bands, ORed by one union. The
    per-word reference for chars.word_bands."""
    rows, ors, wptr = [], [], [0]
    for w in words:
        word = crop_columns(line, w.x_min, w.x_max)
        iptr = word.spans.iptr
        if not iptr[-1]:
            raise EmptyWordError("word image has no ink")
        ink = int(iptr.searchsorted(0, "right")) - 1, int(iptr.searchsorted(iptr[-1])) - 1
        roi = roi_from_bounds(*ink, t)
        bands = split_bands(*roi[:2])
        rows.append((*ink, *roi, bands.middle.start, bands.middle.stop))
        spans = [
            span
            for band in (bands.top, bands.bottom)
            if band
            for span in occupancy(word, (band.start, band.stop), counter).spans
        ]
        spans = union(word.width, [lo for lo, _ in spans], [hi + 1 for _, hi in spans]).spans
        ors += [(lo + w.x_min, hi + w.x_min) for lo, hi in spans]
        wptr.append(len(ors))
    lo, hi = np.array(ors, line.spans.starts.dtype).reshape(-1, 2).T
    return LineBands(*map(np.array, zip(*rows)), lo, hi, np.array(wptr))


def roi_bands_reference(tops, bots, t: float) -> list[list]:
    """roi_from_bounds and split_bands word by word, as the five lists
    roi_bands returns as arrays: ROI start and stop, fallback flag, and
    middle-band start and stop."""
    rois = [roi_from_bounds(top, bot, t) for top, bot in zip(tops, bots)]
    middles = [split_bands(start, stop).middle for start, stop, _ in rois]
    starts, stops, fallbacks = (list(v) for v in zip(*rois))
    return [starts, stops, fallbacks, [m.start for m in middles], [m.stop for m in middles]]


def line_chars_per_word(backend, line, words, params, counter=None, bands=None):
    """The char driver that plans every word through plan_chars: the
    reference for line_chars, which plans only the words its triage flags.
    bands is the words' LineBands, by default the backend's word_bands. All
    cuts are located by one separators_at call."""
    ws = words.words
    if bands is None:
        bands = backend.word_bands(line, ws, params.t, counter)
    plans = [plan_chars(backend, line, w, bands, i, params, counter) for i, w in enumerate(ws)]
    located = backend.separators_at(line, [x for p in plans for x in p.cuts])
    cut_ptr = [0, *accumulate(len(p.cuts) for p in plans)]
    per_word = tuple(
        CharSegmentation(p.chars, located[a:b], p.repairs, params)
        for p, a, b in zip(plans, cut_ptr, cut_ptr[1:])
    )
    return LineCharSegmentation(words, per_word)


def plan_chars_eager(backend, line, w, bands, i, params, counter=None) -> RepairResult:
    """The char plan of word w, word i of bands, that projects the middle
    band of every word, split or not: the reference for plan_chars, which
    projects it only when repair must split."""
    ink_top, ink_bot, start, stop, _, m0, m1 = (field[i].item() for field in bands[:7])
    a, b = bands.wptr[i : i + 2].tolist()
    comps = list(map(Component, bands.lo[a:b].tolist(), bands.hi[a:b].tolist()))
    word = backend.crop(line, w.x_min, w.x_max)
    if not comps:
        spans = backend.occupancy(word, (start, stop), counter).spans
        if not spans:
            spans = backend.occupancy(word, (ink_top, ink_bot + 1), counter).spans
        comps = [Component(lo + w.x_min, hi + w.x_min) for lo, hi in spans]
    if m0 < m1:
        xs, counts = backend.column_frequency(word, (m0, m1), counter)
        freq = ([x + w.x_min for x in xs], counts)
    else:
        freq = ([0], [0])  # an empty middle band: 0 in every column
    return repair(comps, params, lambda: freq)


def gap_walk_reference(comps, mode):
    """The word plan as an explicit walk over labelled gaps: the reference
    for plan_words.

    One (left, right) gap per pair of consecutive components, bounded by
    their ink columns and at least one column wide; each gap is labelled
    inter-word when strictly wider than the threshold, and cut at its floor
    midpoint. Returns (word pairs, cuts, threshold).
    """
    gaps = [(a.x_max, b.x_min) for a, b in zip(comps, comps[1:])]
    widths = [right - left - 1 for left, right in gaps]
    assert all(w >= 1 for w in widths), widths
    if mode.kind == "fixed":
        threshold = mode.value
    elif not gaps:
        threshold = 0.0
    else:
        mean = sum(widths) / len(widths)
        threshold = mean * mode.value if mode.kind == "scale" else mean
    inter = [w > threshold for w in widths]
    words, cuts = [], []
    start, end = comps[0].x_min, comps[0].x_max
    for comp, (left, right), is_inter in zip(comps[1:], gaps, inter):
        if is_inter:
            words.append((start, end))
            cuts.append((left + right) // 2)
            start = comp.x_min
        end = comp.x_max
    words.append((start, end))
    return words, cuts, threshold


def big_line(rng, width=2000, height=300) -> RleImage:
    """A 2000x300-style line with long runs (compression ratio well above 10)."""
    asc, core, desc = range(10, 70), range(70, 230), range(230, 290)
    px = np.zeros((height, width), dtype=np.uint8)
    x = 20
    while True:
        glyph_count = rng.randint(2, 3)
        word_width = sum(rng.randint(50, 70) + 12 for _ in range(glyph_count)) - 12
        if x + word_width + 20 > width:
            break
        for gi in range(glyph_count):
            w = rng.randint(50, 70)
            if x + w + 20 > width:
                break
            r0 = asc.start if rng.random() < 0.3 else core.start
            r1 = desc.stop if rng.random() < 0.3 else core.stop
            px[r0:r1, x : x + w] = 1
            x += w + (12 if gi < glyph_count - 1 else 0)
        x += 120
    return encode(Bitmap(px))


# --- independent oracles (numpy reductions / explicit scans) ---


def brute_occupancy(bitmap: Bitmap, row_range) -> list[bool]:
    start, stop = row_range
    return [bool(v) for v in bitmap.pixels[start:stop].any(axis=0)]


def brute_frequency(bitmap: Bitmap, row_range) -> list[int]:
    start, stop = row_range
    return [int(v) for v in bitmap.pixels[start:stop].sum(axis=0)]


def expand_steps(freq, width: int) -> list[int]:
    """Per-column values of a (breakpoints, counts) step function."""
    xs, counts = freq
    assert xs[0] == 0 and list(xs) == sorted(set(xs)) and len(xs) == len(counts)
    values = []
    for i, x in enumerate(xs):
        end = xs[i + 1] if i + 1 < len(xs) else width
        values.extend([counts[i]] * (min(end, width) - min(x, width)))
    return values


def as_steps(values) -> tuple[list[int], list[int]]:
    """Step form of per-column values: breakpoints at 0 and at every change."""
    xs = [x for x in range(len(values)) if x == 0 or values[x] != values[x - 1]]
    return xs, [values[x] for x in xs]


def brute_components(bits) -> list[tuple[int, int]]:
    comps = []
    start = None
    for x, b in enumerate(list(bits) + [False]):
        if b and start is None:
            start = x
        elif not b and start is not None:
            comps.append((start, x - 1))
            start = None
    return comps


def brute_runs(row_pixels) -> list[int]:
    """Background-first run lengths built by explicit grouping."""
    runs = []
    color = 0
    count = 0
    for v in row_pixels:
        v = 1 if v else 0
        if v == color:
            count += 1
        else:
            runs.append(count)
            color = v
            count = 1
    runs.append(count)
    return runs


def encode_reference(bitmap: Bitmap) -> RleImage:
    """Row-by-row encoder that encode's single pass must agree with."""
    rows = []
    width = bitmap.width
    for r in range(bitmap.height):
        px = bitmap.pixels[r]
        change = np.flatnonzero(px[1:] != px[:-1]) + 1
        bounds = np.concatenate(([0], change, [width]))
        lengths = np.diff(bounds).tolist()
        if px[0]:
            lengths.insert(0, 0)
        rows.append(lengths)
    return RleImage(width, rows)


def decode_reference(rle: RleImage) -> Bitmap:
    """Run-by-run decoder that decode's single pass must agree with."""
    out = np.zeros((rle.height, rle.width), dtype=np.uint8)
    for r, row in enumerate(rle.rows):
        x = 0
        for j, run in enumerate(row.runs):
            if j & 1:
                out[r, x : x + run] = 1
            x += run
    return Bitmap(out)


def rows_reference(rle: RleImage) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Each row's runs and their prefix sums, as tuples of plain ints, built
    one row at a time from the spans: the per-row builder that
    ``RleImage.rows`` and ``write_rle``'s whole-image passes must agree with."""
    width = rle.width
    starts, stops, iptr = (a.tolist() for a in rle.spans)
    rows = []
    for a, b in zip(iptr, iptr[1:]):
        ends = [*chain.from_iterable(zip(starts[a:b], stops[a:b]))]
        if a == b or ends[-1] != width:
            ends.append(width)  # the trailing background run
        ends = tuple(ends)
        rows.append((tuple(map(sub, ends, (0, *ends))), ends))
    return tuple(rows)


def write_rle_reference(rle: RleImage, path) -> None:
    """The per-row .rle writer that write_rle's digit scatter must agree
    with: each row's runs joined as decimal strings."""
    lines = [f"RLE1 {rle.width} {rle.height}"]
    lines.extend(" ".join(map(str, runs)) for runs, _ in rows_reference(rle))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def brute_locate(row_pixels, x: int) -> int:
    runs = brute_runs(row_pixels)
    pos = 0
    for j, run in enumerate(runs):
        if pos <= x < pos + run:
            return j
        pos += run
    raise AssertionError(f"column {x} not located")


def scan_header_token(data: bytes, pos: int, path) -> tuple[int, int]:
    """The byte-by-byte PBM header token scan that read_pbm's one regex match
    must agree with: skip whitespace and ``#`` comments (each ends before its
    CR or LF), then read decimal digits; none raises at the line reached."""
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c in b" \t\r\n":
            pos += 1
        elif c == b"#":
            while pos < n and data[pos : pos + 1] not in b"\r\n":
                pos += 1
        else:
            break
    start = pos
    while pos < n and data[pos : pos + 1].isdigit():
        pos += 1
    if start == pos:
        line = data.count(b"\n", 0, start) + 1
        raise ParseError(path, line, "expected a decimal header token")
    return int(data[start:pos]), pos


def scan_p1_raster(data: bytes, pos: int, width: int, height: int, path) -> Bitmap:
    """The byte-by-byte P1 raster scan that read_pbm's one pass must agree with.

    Reads the first width*height pixel digits after pos, skipping whitespace
    and ``#`` comments as it meets them; any other byte before the last pixel
    raises at its line, and running out of bytes raises at the file's last
    line. Bytes after the last pixel stay unread.
    """
    target = width * height
    size = len(data)
    vals = bytearray(min(target, size - pos))  # each pixel takes a byte of the file
    n = 0
    while pos < size and n < target:
        c = data[pos]
        if c in (0x30, 0x31):  # '0' / '1'
            vals[n] = c - 0x30
            n += 1
            pos += 1
        elif data[pos : pos + 1] in b" \t\r\n":
            pos += 1
        elif c == 0x23:  # '#'
            while pos < size and data[pos : pos + 1] not in b"\r\n":
                pos += 1
        else:
            line = data.count(b"\n", 0, pos) + 1
            raise ParseError(path, line, f"unexpected byte {chr(c)!r} in P1 raster")
    if n < target:
        line = data.count(b"\n", 0, pos) + 1
        raise ParseError(path, line, f"truncated P1 raster: {n} of {target} pixels")
    return Bitmap(np.frombuffer(bytes(vals), dtype=np.uint8).reshape(height, width))


_REF_HEADER_RE = re.compile(r"^RLE1 ([0-9]+) ([0-9]+)$")
_REF_ROW_CHARS_RE = re.compile(r"[0-9 \n]*")
_REF_ROW_FAULTS = ("  ", " \n", "\n ", "\n\n")


def _ref_quote(line: str) -> str:
    return repr(line) if len(line) <= 40 else f"{line[:40]!r}... ({len(line)} characters)"


def _ref_is_run_list(line: str) -> bool:
    return (
        line != ""
        and _REF_ROW_CHARS_RE.fullmatch(line) is not None
        and line[0] != " "
        and line[-1] != " "
        and "  " not in line
    )


def reference_row(values):
    """The run list of one row's values, or the message that rejects them:
    the row rule of RleImage and read_rle, written out on its own."""
    runs = tuple(int(n) for n in values)
    if not runs:
        return "a row needs at least one run"
    if any(n < 0 for n in runs):
        return "run lengths cannot be negative"
    if any(n == 0 for n in runs[1:]):
        return "only the leading background run may be 0"
    return runs


def read_rle_reference(path) -> RleImage:
    """The per-line .rle reader that read_rle's bulk path must agree with.

    Every row goes through ``reference_row`` and the width check, one line at
    a time, so the first bad line raises; long lines are quoted in messages as
    their first 40 characters and their length.
    """
    path = Path(path)
    try:
        text = path.read_bytes().decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError(path, 0, f"not ASCII: {exc}") from exc
    if not text:
        raise ParseError(path, 0, "empty file")
    if not text.endswith("\n"):
        raise ParseError(path, text.count("\n") + 1, "missing trailing newline")
    lines = text.split("\n")[:-1]
    header = _REF_HEADER_RE.match(lines[0])
    if header is None:
        raise ParseError(
            path, 1, f"bad header {_ref_quote(lines[0])}, expected 'RLE1 <width> <height>'"
        )
    width, height = int(header.group(1)), int(header.group(2))
    if width < 1 or height < 1:
        raise ParseError(path, 1, f"width and height must be >= 1, got {width}x{height}")
    if len(lines) - 1 != height:
        raise ParseError(
            path, len(lines), f"expected {height} row lines, found {len(lines) - 1}"
        )
    each_line = _REF_ROW_CHARS_RE.fullmatch(text, len(lines[0]) + 1) is None or any(
        fault in text for fault in _REF_ROW_FAULTS
    )
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if each_line and not _ref_is_run_list(line):
            raise ParseError(path, lineno, f"malformed run list {_ref_quote(line)}")
        runs = reference_row(line.split(" "))
        if isinstance(runs, str):
            raise ParseError(path, lineno, runs)
        if sum(runs) != width:
            raise ParseError(path, lineno, f"runs sum to {sum(runs)}, header width is {width}")
        rows.append(runs)
    return RleImage(width, rows)
