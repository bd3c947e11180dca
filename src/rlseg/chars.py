"""Character segmentation inside a word: ROI trim, band OR, cuts and repair.

Touching characters mostly connect in the middle of the x-height, so cuts are
taken where the OR of the top-band and bottom-band occupancies goes dark.
Length statistics then remove negligible fragments (merge) and split oversized
segments at the weakest middle-band column; only a word that must split has
its middle band projected.

One driver, line_chars, serves runs and pixels: each domain hands it its
primitives as a Backend. The backend's word_bands gives every word of a line
its ink rows, ROI, middle band and band OR at once, as int arrays (a
LineBands). line_chars then triages the words in NumPy: a word whose band OR
is dark, or has an interval outside [alpha x mean, beta x mean], is flagged,
and only flagged words go through plan_chars, which reads the word's entries
of the table as plain ints (the dark-band fallbacks and the middle band on a
crop of the word, and repair). Every other word's chars are its intervals and
its cuts their gap midpoints. line_chars takes the line's word plan (words,
cut columns and threshold, not yet located), so one separators_at call
locates every char cut of the line and then every word cut: one sorted search
of the cut index on runs, one scan of each row on pixels. On runs, word_bands
takes one occupancy of the band runs of the whole line, since words are
separated by blank columns; the pixel oracle projects each word's two bands
on its crop.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Callable, NamedTuple

import numpy as np

from .errors import EmptyWordError, SettingError
from .projection import (
    Component,
    WorkCounter,
    column_frequency,
    components,  # unused here; perfbench's tracer patches it under this module's name
    occupancy,
)
from .rle import RleImage, Spans, crop_columns
from .words import (
    AUTO,
    Cuts,
    ThresholdMode,
    WordSegmentation,
    gap_midpoint,
    gap_widths,
    plan_of,
    segment_words,  # unused here; perfbench's tracer patches it under this module's name
    separator_at,  # unused here; perfbench's tracer patches it under this module's name
    separators_at,
    word_plan,
)

_EPS = 1e-9  # guards floor() against binary float artifacts like 0.29*100 -> 28.999...96


@dataclass(frozen=True)
class RoiParams:
    """Tuning knobs: ROI trim fraction t, merge factor alpha, split factor beta."""

    t: float = 0.2
    alpha: float = 0.33
    beta: float = 1.75

    def __post_init__(self):
        if not 0 <= self.t < 0.5:
            raise SettingError("t", f"t must be in [0, 0.5), got {self.t}")
        if not 0 < self.alpha < 1:
            raise SettingError("alpha", f"alpha must be in (0, 1), got {self.alpha}")
        if not 1 < self.beta < math.inf:
            raise SettingError("beta", f"beta must be finite and > 1, got {self.beta}")


DEFAULT_PARAMS = RoiParams()


class Backend(NamedTuple):
    """The primitives one image domain (runs or pixels) gives the char stage."""

    crop: Callable  # (image, x_min, x_max) -> the inclusive column window
    word_bands: Callable  # (line, words, t, counter) -> LineBands
    occupancy: Callable  # (image, (start, stop), counter) -> Occupancy
    column_frequency: Callable  # (image, (start, stop), counter) -> step form (xs, counts)
    separators_at: Callable  # (image, xs) -> the Cuts at xs


class RepairOp(NamedTuple):
    """Audit record: a separator that was "removed" or "inserted" at column x."""

    op: str
    x: int


class RepairResult(NamedTuple):
    chars: tuple[Component, ...]
    cuts: tuple[int, ...]
    repairs: tuple[RepairOp, ...]


class CharSegmentation(NamedTuple):
    """Ordered character intervals, their separators, and the repair trail:
    at least one character, and one separator strictly inside each gap."""

    chars: tuple[Component, ...]
    separators: Cuts
    repairs: tuple[RepairOp, ...]
    params: RoiParams


class LineBands(NamedTuple):
    """Every word of a line as a Backend's word_bands gives it, in int arrays.

    One entry per word: first and last inked rows, ROI rows (half-open),
    whether the ROI fell back to the full ink box, and the middle band
    (half-open). Then the intervals of the top/bottom band OR in line
    columns, inclusive: word i's are lo[wptr[i]:wptr[i + 1]].
    """

    ink_top: np.ndarray
    ink_bot: np.ndarray
    roi_start: np.ndarray
    roi_stop: np.ndarray
    fallback: np.ndarray
    mid_start: np.ndarray
    mid_stop: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    wptr: np.ndarray


def roi_bands(top: np.ndarray, bot: np.ndarray, t: float) -> tuple[np.ndarray, ...]:
    """Every word's ROI and bands from its first and last inked rows:
    roi_start, roi_stop, fallback, mid_start and mid_stop, as LineBands holds
    them.

    The ROI trims floor(t*H + _EPS) rows, in float64, off each end of an ink
    box H rows high. Trimming never empties it for t < 0.5; a larger t falls
    back to the full ink box and flags it. The ROI's n = 3b + r rows band as
    b + (r >= 1) top rows, b + (r >= 2) middle rows and b bottom rows, so a
    ROI under 3 rows leaves the trailing bands empty.
    """
    if t < 0 or t >= 1:
        raise ValueError("t must be in [0, 1)")
    height = bot - top + 1
    trim = np.floor(t * height + _EPS).astype(height.dtype)
    fallback = 2 * trim >= height
    trim[fallback] = 0
    start, stop = top + trim, bot + 1 - trim
    rows = stop - start
    return start, stop, fallback, start + (rows + 2) // 3, stop - rows // 3


def _weakest_column(comp: Component, freq, min_piece: int) -> int | None:
    """Leftmost minimum-frequency column that leaves both pieces viable.

    freq is a step function (xs, counts), as column_frequency returns it. The
    count is constant between breakpoints, so the candidates are lo and the
    breakpoints in (lo, hi]. None when no column can keep both pieces at
    min_piece columns; splitting there would just re-create an over-segmented
    fragment.
    """
    lo, hi = comp.x_min + min_piece, comp.x_max - min_piece
    if lo > hi:
        return None
    xs, counts = freq
    first = bisect_right(xs, lo) - 1  # the step holding lo
    best = min(range(first, bisect_right(xs, hi)), key=counts.__getitem__)
    return max(xs[best], lo)


def repair(
    chars: list[Component], params: RoiParams = DEFAULT_PARAMS, middle_freq=None
) -> RepairResult:
    """Fix over- and under-segmentation by component length statistics.

    One pass against the pre-repair mean length: components shorter than
    alpha*mean merge into the neighbor across the smaller gap (cascading until
    none remain below the bar); components longer than beta*mean are split once
    at the lowest middle-band frequency column, which the cut consumes.
    middle_freq is a zero-argument callable returning the middle band's step
    form (xs, counts), as column_frequency gives it; it is called at most once,
    after the merges (which can make one oversized), and only if some
    component is longer than beta*mean.
    """
    comps = list(chars)
    if not comps:
        raise ValueError("repair needs at least one component")
    if min(gap_widths(comps), default=1) < 1:
        raise ValueError("components must be sorted and gap-separated")
    cuts = list(map(gap_midpoint, comps, comps[1:]))
    mean = sum(c.length for c in comps) / len(comps)
    low = params.alpha * mean
    high = params.beta * mean
    repairs: list[RepairOp] = []

    while len(comps) > 1:
        idx = next((i for i, c in enumerate(comps) if c.length < low), None)
        if idx is None:
            break
        if idx == 0:
            left = 0
        elif idx == len(comps) - 1:
            left = idx - 1
        else:
            lgap, rgap = gap_widths(comps[idx - 1 : idx + 2])
            left = idx - 1 if lgap <= rgap else idx
        repairs.append(RepairOp("removed", cuts[left]))
        comps[left : left + 2] = [Component(comps[left].x_min, comps[left + 1].x_max)]
        del cuts[left]

    oversized = any(c.length > high for c in comps)
    if oversized and middle_freq is None:
        raise ValueError("middle-band frequencies are required to split a component")
    freq = middle_freq() if oversized else None
    min_piece = max(1, math.ceil(low))
    i = 0
    while i < len(comps):
        comp = comps[i]
        if comp.length > high:
            x = _weakest_column(comp, freq, min_piece)
            if x is not None:
                comps[i : i + 1] = [Component(comp.x_min, x - 1), Component(x + 1, comp.x_max)]
                cuts.insert(i, x)
                repairs.append(RepairOp("inserted", x))
                i += 2
                continue
        i += 1

    return RepairResult(tuple(comps), tuple(cuts), tuple(repairs))


def plan_chars(
    backend: Backend, line, w: Component, bands: LineBands, i: int, params: RoiParams, counter=None
) -> RepairResult:
    """Character plan of word w of line, word i of bands, on either domain, in
    line columns. Falls back to the full-ROI and then full-ink-box occupancy
    of the word's crop when its top/bottom OR is completely dark (all ink in
    the middle band), so every non-empty word yields at least one character.
    """
    a, b = bands.wptr[i : i + 2].tolist()
    comps = list(map(Component, bands.lo[a:b].tolist(), bands.hi[a:b].tolist()))
    if not comps:
        word = backend.crop(line, w.x_min, w.x_max)
        roi = bands.roi_start[i].item(), bands.roi_stop[i].item()
        spans = backend.occupancy(word, roi, counter).spans
        if not spans:
            ink = bands.ink_top[i].item(), bands.ink_bot[i].item() + 1
            spans = backend.occupancy(word, ink, counter).spans
        comps = [Component(lo + w.x_min, hi + w.x_min) for lo, hi in spans]

    def middle_freq():
        middle = bands.mid_start[i].item(), bands.mid_stop[i].item()
        if middle[0] == middle[1]:
            return [0], [0]  # an empty middle band: 0 in every column
        word = backend.crop(line, w.x_min, w.x_max)
        xs, counts = backend.column_frequency(word, middle, counter)
        return [x + w.x_min for x in xs], counts

    return repair(comps, params, middle_freq)


class LineCharSegmentation(NamedTuple):
    """Full word -> character chain for one line, in line coordinates."""

    words: WordSegmentation
    per_word: tuple[CharSegmentation, ...]


def _flagged(bands: LineBands, params: RoiParams, width: int) -> list[bool]:
    """Per word, whether its band OR is dark or has an interval outside
    [alpha x mean, beta x mean]: whether repair would merge or split. Below
    2**53 columns every length and sum is exact in float64, so the mean and
    the comparisons are repair's; a wider line flags every word."""
    count = bands.wptr[1:] - bands.wptr[:-1]
    if width >= 2**53:
        return [True] * len(count)
    word = np.repeat(np.arange(len(count)), count)
    length = bands.hi - bands.lo + 1
    mean = (np.bincount(word, length, len(count)) / np.maximum(count, 1))[word]
    off = (length < params.alpha * mean) | (length > params.beta * mean)
    return ((count == 0) | (np.bincount(word[off], minlength=len(count)) > 0)).tolist()


def line_chars(
    backend: Backend, line, plan: tuple, params: RoiParams, counter: WorkCounter | None
) -> LineCharSegmentation:
    """Character segmentation of every word of a line, in line coordinates.

    plan is the line's word plan as plan_words gives it: its words, its
    word cut columns and the threshold used. The backend gives every word's
    bands at once. A flagged word is planned from its own; every other word
    takes its band OR's intervals as chars, cut at the gap midpoints of one
    array expression over the line. Then one separators_at call locates
    every char cut of every word, then every word cut, against line. The
    char block is copied out as its own array, of which each char plan takes
    its slice, so char records do not keep the word cuts' rows alive; the
    WordSegmentation takes the tail.
    """
    ws, word_cuts, threshold = plan
    bands = backend.word_bands(line, ws, params.t, counter)
    chars = list(map(Component, bands.lo.tolist(), bands.hi.tolist()))
    mids = ((bands.hi[:-1] + bands.lo[1:]) // 2).tolist()
    ptr, flags = bands.wptr.tolist(), _flagged(bands, params, line.width)
    plans = [
        plan_chars(backend, line, w, bands, i, params, counter)
        if flag
        else RepairResult(tuple(chars[a:b]), tuple(mids[a : b - 1]), ())
        for i, (w, flag, a, b) in enumerate(zip(ws, flags, ptr, ptr[1:]))
    ]
    xs = [x for p in plans for x in p.cuts]
    n = len(xs)
    located = backend.separators_at(line, [*xs, *word_cuts])
    char_cuts = Cuts(xs, located.runs[:n].copy())
    cut_ptr = [0, *accumulate(len(p.cuts) for p in plans)]
    per_word = tuple(
        CharSegmentation(p.chars, char_cuts[a:b], p.repairs, params)
        for p, a, b in zip(plans, cut_ptr, cut_ptr[1:])
    )
    return LineCharSegmentation(WordSegmentation(tuple(ws), located[n:], threshold), per_word)


def word_chars(
    backend: Backend, word, params: RoiParams, counter: WorkCounter | None
) -> CharSegmentation:
    """Characters of one word image, in its own columns: line_chars over the
    plan of one word spanning the whole image, with no word cut."""
    whole = (Component(0, word.width - 1),), [], 0.0
    return line_chars(backend, word, whole, params, counter).per_word[0]


def word_bands(line: RleImage, words, t: float, counter: WorkCounter | None = None) -> LineBands:
    """Every word's bands on runs, for all of a line's words at once.

    On one crop of the inked columns (the frame), words are unions of
    occupancy components, so each ink run lies in one word window, and the
    runs of one row and one word are one slice of the spans. One sorted
    search of the row-offset starts counts every slice; a word's ink rows
    are its first and last row with a non-empty slice, and roi_bands gives
    every word's ROI and bands. The slices in a word's top or bottom band
    are kept, and one occupancy of those runs, in the frame's own rows, is
    every word's band OR in turn, since words are separated by blank
    columns; one sorted search hands its intervals to their words. The
    rows x words counts take about the memory of the run lists of the line's
    word cuts, rows x (words - 1) ints, which its output holds anyway.
    """
    x0 = words[0].x_min
    frame = crop_columns(line, x0, words[-1].x_max)
    starts, stops, iptr = frame.spans
    height = frame.height
    # word starts in frame columns, then the frame's end
    bounds = np.array([w.x_min - x0 for w in words] + [frame.width], starts.dtype)
    # the runs of row r in word i are one slice of the spans, and the slices
    # tile them row by row: one search of the row-offset starts bounds each
    base = np.arange(height, dtype=starts.dtype) * frame.width
    off_starts = starts + np.repeat(base, iptr[1:] - iptr[:-1])
    first = np.searchsorted(off_starts, np.add.outer(base, bounds))
    counts = first[:, 1:] - first[:, :-1]
    inked = counts > 0
    if not inked.any(0).all():
        raise EmptyWordError("word image has no ink")
    top, bot = inked.argmax(0), height - 1 - inked[::-1].argmax(0)
    roi = roi_bands(top, bot, t)
    roi_start, roi_stop, _, mid_start, mid_stop = roi
    row = np.arange(height)[:, None]
    band = (roi_start <= row) & (row < mid_start) | (mid_stop <= row) & (row < roi_stop)
    keep = np.repeat(band.ravel(), counts.ravel())
    kept = np.zeros(keep.size + 1, iptr.dtype)  # kept runs before each run
    np.cumsum(keep, out=kept[1:])
    band_runs = RleImage._from_spans(frame.width, Spans(starts[keep], stops[keep], kept[iptr]))
    ors = occupancy(band_runs, (0, height), counter).spans
    lo, hi = np.fromiter(chain.from_iterable(ors), starts.dtype, 2 * len(ors)).reshape(-1, 2).T
    wptr = np.searchsorted(lo, bounds)  # word i's from its start on
    return LineBands(top, bot, *roi, lo + x0, hi + x0, wptr)


def _run_backend() -> Backend:
    # Built per call from the module globals, so a name replaced at run time
    # (a tracer or a test's counting wrapper) is the one that runs.
    return Backend(crop_columns, word_bands, occupancy, column_frequency, separators_at)


def segment_chars(
    word: RleImage,
    params: RoiParams = DEFAULT_PARAMS,
    counter: WorkCounter | None = None,
) -> CharSegmentation:
    """Segment one word image into characters, working on runs only."""
    return word_chars(_run_backend(), word, params, counter)


def segment_line_chars(
    line: RleImage,
    params: RoiParams = DEFAULT_PARAMS,
    mode: ThresholdMode = AUTO,
    counter: WorkCounter | None = None,
    words: WordSegmentation | None = None,
) -> LineCharSegmentation:
    """Plan the line's words (or take the plan words was located from), then
    segment every word into characters on runs: line_chars on the run
    backend, which locates the char and word cuts in one batch."""
    plan = word_plan(line, mode, counter) if words is None else plan_of(words)
    return line_chars(_run_backend(), line, plan, params, counter)
