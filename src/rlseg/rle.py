"""Run-length data model, codec and run-coordinate arithmetic.

A row is stored as alternating run lengths, background first. Rows that start
with ink carry an explicit leading 0, so run parity alone determines color:
even indices are background, odd indices are foreground. Columns are 0-based
and run membership is half-open: column x belongs to run j when
cumulative(j) - runs[j] <= x < cumulative(j).

Cost model: read_rle checks the syntax of every row line with a few C-level
scans of the whole text and converts each token to int once. A row's width
is summed once, when the row is built, and its prefix sums (``RleRow.ends``)
once, on first use, each in O(runs of the row). Both are kept on the row and
shared by every later step: the width checks, projection, cut location and
cropping. Locating a column then costs O(log runs) per row, and a line's
cuts are located together, in one bisect pass per row
(``words.separators_at``). Cropping a column window costs O(log runs + runs
overlapping the window) per row, so cutting one line into many words or
characters does not re-walk the line's runs per word or per cut. Each per-run
step (validating a row, parsing a row line, slicing a window) runs inside a
C-level builtin rather than a Python loop.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from pathlib import Path

import numpy as np

from .errors import MalformedRleError, OutOfBoundsError, ParseError


class Bitmap:
    """Binary image; pixel value 1 is foreground ink, 0 is background."""

    __slots__ = ("pixels",)

    def __init__(self, pixels) -> None:
        arr = np.array(pixels, dtype=np.uint8, copy=True)
        if arr.ndim != 2:
            raise ValueError("pixels must form a 2-D array")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("image must be at least 1x1")
        if arr.max(initial=0) > 1:
            raise ValueError("pixel values must be 0 or 1")
        arr.setflags(write=False)
        self.pixels = arr

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @classmethod
    def zeros(cls, width: int, height: int) -> "Bitmap":
        return cls(np.zeros((height, width), dtype=np.uint8))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Bitmap):
            return NotImplemented
        return self.pixels.shape == other.pixels.shape and bool(
            np.array_equal(self.pixels, other.pixels)
        )

    def __repr__(self) -> str:
        return f"Bitmap({self.width}x{self.height})"


@dataclass(frozen=True)
class RleRow:
    """One row of alternating run lengths, background first."""

    runs: tuple[int, ...]
    width: int = field(init=False, repr=False, compare=False)  # sum of the runs

    def __post_init__(self):
        runs = tuple(map(int, self.runs))
        object.__setattr__(self, "runs", runs)
        if not runs:
            raise MalformedRleError("a row needs at least one run")
        if min(runs) < 0:
            raise MalformedRleError("run lengths cannot be negative")
        if 0 in runs[1:]:
            raise MalformedRleError("only the leading background run may be 0")
        object.__setattr__(self, "width", sum(runs))

    @cached_property
    def ends(self) -> tuple[int, ...]:
        """Prefix sums of the run lengths, built on first use and then kept.

        Run j covers columns [ends[j] - runs[j], ends[j]). Projection, cut
        location and cropping all read this one tuple. Lazy because a row
        that is never projected or located in, such as a row of a generated
        corpus before it is written, never needs it.
        """
        return tuple(accumulate(self.runs))

    @property
    def has_ink(self) -> bool:
        return len(self.runs) >= 2


@dataclass(frozen=True)
class RleImage:
    """Run-length compressed binary image: one RleRow per pixel row."""

    width: int
    rows: tuple[RleRow, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        if self.width < 1:
            raise MalformedRleError("width must be >= 1")
        if not self.rows:
            raise MalformedRleError("image needs at least one row")
        for i, row in enumerate(self.rows):
            if row.width != self.width:
                raise MalformedRleError(
                    f"row {i}: runs sum to {row.width}, expected width {self.width}"
                )

    @property
    def height(self) -> int:
        return len(self.rows)

    @property
    def total_runs(self) -> int:
        return sum(len(row.runs) for row in self.rows)


def encode(bitmap: Bitmap) -> RleImage:
    """Compress a bitmap row by row into background-first run lengths."""
    rows = []
    width = bitmap.width
    for r in range(bitmap.height):
        px = bitmap.pixels[r]
        change = np.flatnonzero(px[1:] != px[:-1]) + 1
        bounds = np.concatenate(([0], change, [width]))
        lengths = np.diff(bounds).tolist()
        if px[0]:
            lengths.insert(0, 0)
        rows.append(RleRow(tuple(lengths)))
    return RleImage(width, tuple(rows))


def decode(rle: RleImage) -> Bitmap:
    """Expand runs back to pixels; exact inverse of encode."""
    out = np.zeros((rle.height, rle.width), dtype=np.uint8)
    for r, row in enumerate(rle.rows):
        x = 0
        for j, run in enumerate(row.runs):
            if j & 1:
                out[r, x : x + run] = 1
            x += run
    return Bitmap(out)


def locate_run(row: RleRow, x: int) -> int:
    """Index of the run containing column x.

    Uses the half-open convention: run j covers cumulative(j) - runs[j] <= x
    < cumulative(j), so boundary columns always resolve to exactly one run.
    Costs O(log runs): one bisection of the row's prefix sums.
    """
    ends = row.ends
    if x < 0 or x >= ends[-1]:
        raise OutOfBoundsError(f"column {x} outside row of width {ends[-1]}")
    return bisect_right(ends, x)


def crop_columns(rle: RleImage, x_min: int, x_max: int) -> RleImage:
    """Extract an inclusive column range as a standalone image.

    Per row, bisects the prefix sums to the runs j and k holding x_min and
    x_max, and keeps runs[j:k+1] with its ends clipped to the window. When run
    j is ink the slice starts one run earlier, at run j - 1 set to 0, which is
    the leading 0 an ink-first row needs: O(log runs) bisection and one
    C-level slice of the runs overlapping the window per row.
    """
    if not 0 <= x_min <= x_max < rle.width:
        raise OutOfBoundsError(
            f"columns [{x_min}, {x_max}] outside image of width {rle.width}"
        )
    rows = []
    for row in rle.rows:
        runs, ends = row.runs, row.ends
        j = bisect_right(ends, x_min)
        k = bisect_right(ends, x_max, j)
        odd = j & 1
        piece = list(runs[j - odd : k + 1])
        if odd:  # run j is ink: its background neighbour becomes the leading 0
            piece[0] = 0
        piece[-1] -= ends[k] - 1 - x_max  # drop the columns right of x_max
        piece[odd] -= x_min - (ends[j] - runs[j])  # and those left of x_min
        rows.append(RleRow(piece))
    return RleImage(x_max - x_min + 1, tuple(rows))


_HEADER_RE = re.compile(r"^RLE1 ([0-9]+) ([0-9]+)$")
_ROW_CHARS_RE = re.compile(r"[0-9 \n]*")
# When the row lines hold only digits, spaces and newlines, each is a run list
# exactly when the text has none of these: a double space, a space at either
# end of a line, an empty line. (The header, checked first, has none either.)
_ROW_FAULTS = ("  ", " \n", "\n ", "\n\n")


def _is_run_list(line: str) -> bool:
    """Whether one line is space-separated digit tokens: the whole-text test
    applied to a single line, so no regex keeps per-character state."""
    return (
        line != ""
        and _ROW_CHARS_RE.fullmatch(line) is not None
        and line[0] != " "
        and line[-1] != " "
        and "  " not in line
    )


def write_rle(rle: RleImage, path) -> None:
    """Write the text .rle format: header line, then one run list per row."""
    lines = [f"RLE1 {rle.width} {rle.height}"]
    lines.extend(" ".join(str(n) for n in row.runs) for row in rle.rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_rle(path) -> RleImage:
    """Parse the text .rle format; strict about whitespace and the header."""
    path = Path(path)
    try:
        # bytes + explicit decode: universal-newline translation would hide CRLF
        text = path.read_bytes().decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError(path, 0, f"not ASCII: {exc}") from exc
    if not text:
        raise ParseError(path, 0, "empty file")
    if not text.endswith("\n"):
        raise ParseError(path, text.count("\n") + 1, "missing trailing newline")
    lines = text.split("\n")[:-1]
    header = _HEADER_RE.match(lines[0])
    if header is None:
        raise ParseError(path, 1, f"bad header {lines[0]!r}, expected 'RLE1 <width> <height>'")
    width, height = int(header.group(1)), int(header.group(2))
    if width < 1 or height < 1:
        raise ParseError(path, 1, f"width and height must be >= 1, got {width}x{height}")
    if len(lines) - 1 != height:
        raise ParseError(
            path, len(lines), f"expected {height} row lines, found {len(lines) - 1}"
        )
    # A few scans of the whole text check the syntax of every row line. Only
    # when one fails is each line matched on its own, in step with the row
    # checks below, so the first bad line is reported whichever check it fails.
    # (A regex with a repeated group, over one line or all of them, would keep
    # backtracking state for every token.)
    each_line = _ROW_CHARS_RE.fullmatch(text, len(lines[0]) + 1) is None or any(
        fault in text for fault in _ROW_FAULTS
    )
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if each_line and not _is_run_list(line):
            raise ParseError(path, lineno, f"malformed run list {line!r}")
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
