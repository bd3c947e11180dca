"""Run-length data model, codec and run-coordinate arithmetic.

A row is stored as alternating run lengths, background first. Rows that start
with ink carry an explicit leading 0, so run parity alone determines color:
even indices are background, odd indices are foreground. Columns are 0-based
and run membership is half-open: column x belongs to run j when
cumulative(j) - runs[j] <= x < cumulative(j).

Cost model: an image stores only its ink runs, as flat arrays (``Spans``): the
start and stop column of every ink run of every row, row after row, and a row
pointer into them; its ``RleRow``s (runs and prefix sums) are a read-only view
built from them on first use by the NumPy passes (``_row_tokens``) that also
give write_rle its tokens, whose digits it scatters into one byte buffer.
``RleImage(width, rows)`` and read_rle's per-line path check each run list with
one rule (``_run_fault``) and the width, then build the spans in one NumPy
pass; the bulk path, encode and crops skip both.
encode and decode are one NumPy pass each: the spans are cut from the edges of
the zero-padded bitmap, and the pixels are the running sum of +1 at every span
start and -1 at every stop. read_rle checks the syntax of all row lines in one
pass over their bytes (``bytes.translate``, then one mask of the separators,
which also counts each row's tokens), parses them in one C-level pass
(``np.fromstring``) and checks every row at once with array operations: token
count, no token above the width, no zero past a row's first run, each row
summing to the width. The file's cumulative sum is every row's prefix sums
shifted by its offset ``r * width``: the image keeps it as its cut index
(``offset_tokens``) and gathers its spans and their shifted copies
(``offset_spans``) from it. Only when a check fails does it go line by line,
to report the first bad line; files whose ``width * height`` could overflow an
int64 sum always go that way. Cropping, projection, cut location and the run
count of a row range then run as NumPy passes over these arrays, with no
per-row Python loop: a crop is two sorted searches of the shifted spans and
one gather, O(rows log runs + runs in the window); projecting rows [a, b) is
one slice; locating all of a line's cuts is one sorted search of the cut
index. The shifted arrays keep every row in one sorted array (an image not
read from a file builds them on first use); they are int64 while ``width *
height < 2**62`` and exact Python ints (``dtype=object``) beyond.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from functools import cached_property
from itertools import accumulate, chain
from pathlib import Path
from typing import NamedTuple

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


class RleRow(NamedTuple):
    """One row of an image, as a read-only view of its spans: the alternating
    run lengths, background first, and their prefix sums, as tuples of plain
    ints. Run j covers columns [ends[j] - runs[j], ends[j])."""

    runs: tuple[int, ...]
    ends: tuple[int, ...]

    @property
    def width(self) -> int:
        return self.ends[-1]


def _run_fault(runs) -> str | None:
    """Why a sequence of ints is not a row's run list, or None when it is one."""
    if not runs:
        return "a row needs at least one run"
    if min(runs) < 0:
        return "run lengths cannot be negative"
    if 0 in runs[1:]:
        return "only the leading background run may be 0"
    return None


class Spans(NamedTuple):
    """The ink runs of an image, row after row, in flat arrays.

    Row r's ink runs are [starts[i], stops[i]) for iptr[r] <= i < iptr[r + 1],
    in columns of the row: non-empty, increasing and separated by background.
    """

    starts: np.ndarray
    stops: np.ndarray
    iptr: np.ndarray


def _offset_ends(width: int, rows: list[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray]:
    """The prefix sums of run lists checked already, each summing to width,
    shifted by their row's offset r * width and laid end to end, and a row
    pointer: row r's are [tptr[r], tptr[r + 1])."""
    # int64 while every row offset r * width + x fits; exact ints beyond
    dtype = np.int64 if width * len(rows) < _BULK_LIMIT else object
    counts = np.array([*map(len, rows)])
    ends = np.array([*chain.from_iterable(map(accumulate, rows))], dtype)
    ends += np.repeat(np.arange(len(rows), dtype=dtype) * width, counts)
    return ends, np.concatenate(([0], np.cumsum(counts)))


class RleImage:
    """Run-length compressed binary image, stored as the spans of its ink runs.

    Built either from one run list (a sequence of ints) per row, which it
    checks and converts to spans once, from checked spans (``_from_spans``),
    or from checked rows' shifted prefix sums, which it keeps
    (``_from_tokens``). ``rows`` is a view of the spans, one RleRow per pixel
    row, built on first use and kept.
    """

    def __init__(self, width: int, rows) -> None:
        rows = [tuple(map(int, runs)) for runs in rows]
        if width < 1:
            raise MalformedRleError("width must be >= 1")
        if not rows:
            raise MalformedRleError("image needs at least one row")
        for i, runs in enumerate(rows):
            fault = _run_fault(runs)
            if fault is not None:
                raise MalformedRleError(f"row {i}: {fault}")
            if sum(runs) != width:
                raise MalformedRleError(
                    f"row {i}: runs sum to {sum(runs)}, expected width {width}"
                )
        self.width, self.height = width, len(rows)
        self.spans = RleImage._from_tokens(width, *_offset_ends(width, rows)).spans

    @classmethod
    def _from_spans(cls, width: int, spans: Spans) -> "RleImage":
        """An image of spans checked already (encode, crop_columns)."""
        image = object.__new__(cls)
        image.width, image.height, image.spans = width, len(spans.iptr) - 1, spans
        return image

    @classmethod
    def _from_tokens(cls, width: int, ends: np.ndarray, tptr: np.ndarray) -> "RleImage":
        """The image of checked rows whose shifted prefix sums lie in ends, row
        r's at [tptr[r], tptr[r + 1]), kept as its offset_tokens. A row's odd
        tokens end its ink runs, so two gathers give the offset_spans."""
        base = np.arange(len(tptr) - 1, dtype=ends.dtype) * width
        m = np.diff(tptr) // 2
        iptr = np.concatenate(([0], np.cumsum(m)))
        stop_at = np.repeat(tptr[:-1] + 1 - 2 * iptr[:-1], m)
        stop_at += 2 * np.arange(iptr[-1])
        off_starts, off_stops = ends[stop_at - 1], ends[stop_at]
        shift = np.repeat(base, m)
        image = cls._from_spans(width, Spans(off_starts - shift, off_stops - shift, iptr))
        image.offset_spans = base, off_starts, off_stops
        image.offset_tokens = base, ends, tptr
        return image

    def __eq__(self, other) -> bool:
        if not isinstance(other, RleImage):
            return NotImplemented
        return self.width == other.width and all(
            map(np.array_equal, self.spans, other.spans)
        )

    def __repr__(self) -> str:
        return f"RleImage(width={self.width!r}, rows={self.rows!r})"

    @cached_property
    def rows(self) -> tuple[RleRow, ...]:
        """The rows, each with its prefix sums, built from the spans."""
        runs, ends, tptr = (tuple(a.tolist()) for a in _row_tokens(self))
        return tuple(RleRow(runs[a:b], ends[a:b]) for a, b in zip(tptr, tptr[1:]))

    @cached_property
    def offset_spans(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row offsets ``r * width``, and the starts and stops shifted by them.

        The shifted spans of every row lie in [r * width, (r + 1) * width], so
        they form one sorted array each, and a single sorted search of the
        queries ``r * width + x`` answers a question about every row at once.
        """
        starts, stops, iptr = self.spans
        base = np.arange(self.height, dtype=starts.dtype) * self.width
        shift = np.repeat(base, np.diff(iptr))
        return base, starts + shift, stops + shift

    @cached_property
    def offset_tokens(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row offsets ``r * width``, every row's prefix sums (``_row_tokens``)
        shifted by its offset, which puts row r's in [r * width, (r + 1) *
        width] and all in one sorted array, and their row pointer: the cut
        index. A read image keeps its file's sums; others build this lazily."""
        _, ends, tptr = _row_tokens(self)
        base = np.arange(self.height, dtype=ends.dtype) * self.width
        return base, ends + np.repeat(base, np.diff(tptr)), tptr

    def runs_in(self, start: int, stop: int) -> int:
        """Runs of rows [start, stop), from the spans: a row of m ink runs has
        2m + 1 runs, or 2m when its last ink run reaches the right edge."""
        _, stops, iptr = self.spans
        a, b = iptr[start], iptr[stop]
        return int(2 * (b - a) + stop - start - np.count_nonzero(stops[a:b] == self.width))

    @property
    def total_runs(self) -> int:
        return self.runs_in(0, self.height)


def _row_tokens(rle: RleImage) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every row's runs and their prefix sums, laid end to end in the spans'
    dtype, and a row pointer: row r's are [tptr[r], tptr[r + 1]). A row's
    prefix sums are its ink starts and stops in turn, then the width unless
    its last ink run stops there."""
    starts, stops, iptr = rle.spans
    m = np.diff(iptr)
    counts = 2 * m + 1
    # only a row's last ink run can stop at the width; one past it is iptr[r + 1]
    counts[np.searchsorted(iptr, np.flatnonzero(stops == rle.width) + 1) - 1] -= 1
    tptr = np.concatenate(([0], np.cumsum(counts)))
    ends = np.full(tptr[-1], rle.width, dtype=starts.dtype)
    slot = 2 * np.arange(starts.size) + np.repeat(tptr[:-1] - 2 * iptr[:-1], m)
    ends[slot] = starts
    ends[slot + 1] = stops
    runs = np.diff(ends, prepend=ends[:1])
    runs[tptr[:-1]] = ends[tptr[:-1]]  # a row's first run starts at column 0
    return runs, ends, tptr


def encode(bitmap: Bitmap) -> RleImage:
    """Compress a bitmap into the spans of its ink runs, in one NumPy pass."""
    height, width = bitmap.pixels.shape
    padded = np.zeros((height, width + 2), dtype=bool)
    padded[:, 1:-1] = bitmap.pixels
    # r * (width + 1) + x at every ink start and stop x of row r, in order
    edges = np.flatnonzero(padded[:, 1:] != padded[:, :-1])
    span_rows, starts = np.divmod(edges[0::2], width + 1)
    stops = edges[1::2] - span_rows * (width + 1)
    iptr = np.searchsorted(span_rows, np.arange(height + 1))
    return RleImage._from_spans(width, Spans(starts, stops, iptr))


def decode(rle: RleImage) -> Bitmap:
    """Expand runs back to pixels; exact inverse of encode. The running sum of
    +1 at each span's flat start offset and -1 at its stop; a row's last stop
    and the next row's first start may share an offset, which gets both.
    Past NumPy's largest array size it raises MemoryError, as a smaller
    allocation that fails does."""
    if rle.height * rle.width + 1 > np.iinfo(np.intp).max:
        raise MemoryError(f"{rle.width} x {rle.height} pixels exceed the largest array")
    _, starts, stops = rle.offset_spans
    flat = np.zeros(rle.height * rle.width + 1, dtype=np.int8)
    flat[starts] += 1
    flat[stops] -= 1
    np.cumsum(flat, dtype=np.int8, out=flat)
    return Bitmap(flat[:-1].reshape(rle.height, rle.width))


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

    For all rows at once: one sorted search of the offset stops finds each
    row's first ink run stopping after x_min, one of the offset starts its
    last starting at or before x_max, one gather collects the runs between,
    and ``maximum``/``minimum`` clip the gathered copies to the window in
    place. O(rows log runs + runs in the window), in NumPy passes with no
    temporary beyond the gather; the cropped image's rows are built only if
    something asks for them.
    """
    if not 0 <= x_min <= x_max < rle.width:
        raise OutOfBoundsError(
            f"columns [{x_min}, {x_max}] outside image of width {rle.width}"
        )
    starts, stops, _ = rle.spans
    base, off_starts, off_stops = rle.offset_spans
    first = np.searchsorted(off_stops, base + x_min, "right")
    counts = np.searchsorted(off_starts, base + x_max, "right") - first
    iptr = np.zeros(counts.size + 1, counts.dtype)
    counts.cumsum(out=iptr[1:])
    take = np.repeat(first - iptr[:-1], counts)
    take += np.arange(iptr[-1])
    s, e = starts[take], stops[take]
    np.maximum(s, x_min, out=s)
    np.minimum(e, x_max + 1, out=e)
    s -= x_min
    e -= x_min
    return RleImage._from_spans(x_max - x_min + 1, Spans(s, e, iptr))


_HEADER_RE = re.compile(r"^RLE1 ([0-9]+) ([0-9]+)$")
_ROW_BYTES = b"0123456789 \n"
# Below this, every prefix sum of a valid file fits an int64, and a token that
# passes the width check is small enough that a wrapped sum shows (_bulk_image).
_BULK_LIMIT = 2**62
_QUOTE_CHARS = 40


def _quote(line: str) -> str:
    """repr of a line for an error message, cut to its first 40 characters
    when longer, so a bad megabyte-long line still gives a short message."""
    if len(line) <= _QUOTE_CHARS:
        return repr(line)
    return f"{line[:_QUOTE_CHARS]!r}... ({len(line)} characters)"


def _bulk_image(body: bytes, width: int, height: int) -> RleImage | None:
    """The image of every row of a body, checked and parsed at once.

    ``body`` is the row lines' bytes, all digits, spaces and newlines, and
    ``width * height < 2**62``. Every line is a run list when no separator
    comes first or next to another: that rules out an extra space and an
    empty line. Returns None when any row breaks a check; the caller then
    goes line by line to report the first bad one.
    """
    raw = np.frombuffer(body, dtype=np.uint8)
    seps = raw < 48  # a space or a newline; every other byte is a digit
    if seps[0] or (seps[1:] & seps[:-1]).any():
        return None
    # Each token ends at one separator, so the tokens of rows 0..r are those
    # up to row r's newline among the separators (an index gather of them
    # costs about a third of a boolean one).
    row_stops = np.flatnonzero(raw[np.flatnonzero(seps)] == 10) + 1
    row_starts = np.concatenate(([0], row_stops[:-1]))
    values = np.fromstring(body, dtype=np.int64, sep=" ")
    # A token too long for int64 reads as 2**63 - 1, which is above the width.
    if (
        values.size != row_stops[-1]
        or values.max() > width
        or np.count_nonzero(values == 0) != np.count_nonzero(values[row_starts] == 0)
    ):
        return None
    ends = np.cumsum(values)
    del values
    # Each token is at most width < 2**62, so a sum that wraps past 2**63 is
    # negative for at least one prefix; otherwise every prefix is exact.
    row_totals = width * np.arange(1, height + 1, dtype=np.int64)
    if ends.min() < 0 or not np.array_equal(ends[row_stops - 1], row_totals):
        return None
    # the file's prefix sums are the image's offset prefix sums
    return RleImage._from_tokens(width, ends, np.concatenate(([0], row_stops)))


def write_rle(rle: RleImage, path) -> None:
    """Write the text .rle format: header line, then one run list per row,
    its digits scattered into one byte buffer a digit position at a time."""
    runs, _, tptr = _row_tokens(rle)
    n_digits = len(str(rle.width))
    # Python ints in the runs' dtype: an int64 10**k wraps past 18 digits
    tens = np.array([10**k for k in range(1, n_digits)], dtype=runs.dtype)
    digits = np.searchsorted(tens, runs, "right") + 1
    stop = np.cumsum(digits + 1)  # past each token's separator
    buf = np.full(stop[-1], ord(" "), dtype=np.uint8)
    buf[stop[tptr[1:] - 1] - 1] = ord("\n")  # after each row's last token
    pos = stop - 2  # each token's units digit
    for k in range(1, n_digits + 1):  # the tokens of k digits or more
        buf[pos] = runs % 10 + ord("0")
        more = digits > k
        runs, digits, pos = runs[more] // 10, digits[more], pos[more] - 1
    Path(path).write_bytes(f"RLE1 {rle.width} {rle.height}\n".encode() + buf.tobytes())


def read_rle(path) -> RleImage:
    """Parse the text .rle format; strict about whitespace and the header."""
    path = Path(path)
    # bytes + explicit decode: universal-newline translation would hide CRLF
    data = path.read_bytes()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError(path, 0, f"not ASCII: {exc}") from exc
    if not text:
        raise ParseError(path, 0, "empty file")
    n_lines = text.count("\n")
    if not text.endswith("\n"):
        raise ParseError(path, n_lines + 1, "missing trailing newline")
    head_end = text.index("\n")
    header = _HEADER_RE.match(text, 0, head_end)
    if header is None:
        raise ParseError(
            path, 1, f"bad header {_quote(text[:head_end])}, expected 'RLE1 <width> <height>'"
        )
    try:
        width, height = int(header[1]), int(header[2])
    except ValueError as exc:  # more digits than Python converts to an int
        raise ParseError(path, 1, str(exc)) from exc
    if width < 1 or height < 1:
        raise ParseError(path, 1, f"width and height must be >= 1, got {width}x{height}")
    if n_lines - 1 != height:
        raise ParseError(path, n_lines, f"expected {height} row lines, found {n_lines - 1}")
    body = data[head_end + 1 :]
    if width * height < _BULK_LIMIT and not body.translate(None, _ROW_BYTES):
        image = _bulk_image(body, width, height)
        if image is not None:
            return image
    # Line by line, each line's syntax is checked in step with its row checks,
    # so the first bad line is reported whichever check it fails. The text is
    # ASCII, so a token is a run length exactly when it is a non-empty
    # isdigit() string: an extra space anywhere leaves an empty token.
    rows = []
    for lineno, line in enumerate(text[head_end + 1 : -1].split("\n"), start=2):
        tokens = line.split(" ")
        if not all(map(str.isdigit, tokens)):
            raise ParseError(path, lineno, f"malformed run list {_quote(line)}")
        try:
            runs = tuple(map(int, tokens))
        except ValueError as exc:  # more digits than Python converts to an int
            raise ParseError(path, lineno, str(exc)) from exc
        fault = _run_fault(runs)
        if fault is not None:
            raise ParseError(path, lineno, fault)
        if sum(runs) != width:
            raise ParseError(path, lineno, f"runs sum to {sum(runs)}, header width is {width}")
        rows.append(runs)
    return RleImage._from_tokens(width, *_offset_ends(width, rows))
