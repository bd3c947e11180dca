"""Shared fixture builders and independent brute-force oracles."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from rlseg import Bitmap, MalformedRleError, ParseError, RleImage, encode
from rlseg.rle import RleRow

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
        rows.append(RleRow(tuple(runs)))
    return RleImage(rle.width + k, tuple(rows))


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


def brute_locate(row_pixels, x: int) -> int:
    runs = brute_runs(row_pixels)
    pos = 0
    for j, run in enumerate(runs):
        if pos <= x < pos + run:
            return j
        pos += run
    raise AssertionError(f"column {x} not located")


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


def read_rle_reference(path) -> RleImage:
    """The per-line .rle reader that read_rle's bulk path must agree with.

    Every row goes through ``RleRow(...)`` and its checks, one line at a
    time, so the first bad line raises; long lines are quoted in messages as
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
        try:
            row = RleRow(line.split(" "))
        except MalformedRleError as exc:
            raise ParseError(path, lineno, str(exc)) from exc
        if row.width != width:
            raise ParseError(
                path, lineno, f"runs sum to {row.width}, header width is {width}"
            )
        rows.append(row)
    return RleImage(width, tuple(rows))
