"""Character segmentation inside a word: ROI trim, band OR, cuts and repair.

Touching characters mostly connect in the middle of the x-height, so cuts are
taken where the OR of the top-band and bottom-band occupancies goes dark.
Length statistics then remove negligible fragments (merge) and split oversized
segments at the weakest middle-band column; only a word that must split has
its middle band projected.

The per-word pipeline (plan_chars, word_chars, line_chars) is the same for runs
and pixels: each domain hands it its primitives as a Backend, and the pixel
oracle runs it word by word. segment_line_chars plans all of a line's words
at once on runs: one occupancy of a stack of every word's top-band and
bottom-band rows gives every word's band OR, since words are separated by
blank columns. Only the fallbacks, a split's middle band and repair run per word.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice
from typing import Callable, NamedTuple

import numpy as np

from .errors import EmptyWordError, SettingError, WidthMismatchError
from .projection import (
    Component,
    Occupancy,
    WorkCounter,
    column_frequency,
    components,  # unused here; perfbench's tracer patches it under this module's name
    occupancy,
)
from .rle import RleImage, Spans, crop_columns
from .words import (
    AUTO,
    SeparatorPoint,
    ThresholdMode,
    WordSegmentation,
    gap_midpoint,
    gap_widths,
    segment_words,
    separator_at,  # unused here; perfbench's tracer patches it under this module's name
    separators_at,
)

_EPS = 1e-9  # guards floor() against binary float artifacts like 0.3*10 -> 2.999...96


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
    ink_row_bounds: Callable  # image -> (first, last) inked row
    occupancy: Callable  # (image, (start, stop), counter) -> Occupancy
    column_frequency: Callable  # (image, (start, stop), counter) -> step form (xs, counts)
    separators_at: Callable  # (image, xs) -> one SeparatorPoint per x


class RoiRows(NamedTuple):
    """Half-open row span of the region of interest."""

    start: int
    stop: int
    full_box_fallback: bool = False


class BandSet(NamedTuple):
    """Top/middle/bottom row ranges partitioning the ROI exactly."""

    top: range
    middle: range
    bottom: range


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
    separators: tuple[SeparatorPoint, ...]
    repairs: tuple[RepairOp, ...]
    params: RoiParams


def ink_row_bounds(word: RleImage) -> tuple[int, int]:
    """First and last row indices containing ink (inclusive): the last row
    whose span pointer is 0, and the row before the first one at the total."""
    iptr = word.spans.iptr
    if not iptr[-1]:
        raise EmptyWordError("word image has no ink")
    return int(iptr.searchsorted(0, "right")) - 1, int(iptr.searchsorted(iptr[-1])) - 1


def roi_from_bounds(ink_top: int, ink_bot: int, t: float) -> RoiRows:
    """Trim floor(t*H) rows off each end of the ink box of height H.

    Trimming never empties the ROI for t < 0.5; larger t values fall back to
    the full ink box and flag it.
    """
    if t < 0 or t >= 1:
        raise ValueError("t must be in [0, 1)")
    height = ink_bot - ink_top + 1
    trim = math.floor(t * height + _EPS)
    if 2 * trim >= height:
        return RoiRows(ink_top, ink_bot + 1, full_box_fallback=True)
    return RoiRows(ink_top + trim, ink_bot + 1 - trim)


def split_bands(rows) -> BandSet:
    """Divide a row span (anything with .start/.stop) into three bands.

    Bands are as equal as possible; remainder rows go to the top first.
    A span shorter than 3 rows leaves the trailing bands empty.
    """
    start, stop = rows.start, rows.stop
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


def band_or(top: Occupancy, bottom: Occupancy) -> Occupancy:
    """Columnwise OR of two band occupancies, as one linear merge.

    Each band's (x_min, x_max) pairs are already sorted and separated, so
    sorting their concatenation is a merge of two runs (Timsort finds them),
    and one pass then coalesces each pair into the previous one when they
    touch or overlap (x_min <= previous x_max + 1).
    """
    if top.width != bottom.width:
        raise WidthMismatchError(f"widths differ: {top.width} vs {bottom.width}")
    merged: list[tuple[int, int]] = []
    for lo, hi in sorted(top.spans + bottom.spans):
        if merged and lo <= merged[-1][1] + 1:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return Occupancy(top.width, tuple(merged))


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
    if all(low <= c.length <= high for c in comps):  # nothing to merge or split
        return RepairResult(tuple(comps), tuple(cuts), ())
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
            lgap = comps[idx].x_min - comps[idx - 1].x_max - 1
            rgap = comps[idx + 1].x_min - comps[idx].x_max - 1
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
    word, params: RoiParams, backend: Backend, counter: WorkCounter | None = None, dx: int = 0
) -> RepairResult:
    """Character plan of one word image, on either domain, in the columns of
    its line: dx is the word's first column there.

    Falls back to the full-ROI and then full-ink-box occupancy when the
    top/bottom OR is completely dark (all ink in the middle band), so every
    non-empty word yields at least one character.
    """
    ink_top, ink_bot = backend.ink_row_bounds(word)
    rows = roi_from_bounds(ink_top, ink_bot, params.t)
    bands = split_bands(rows)

    def band_occupancy(band: range) -> Occupancy:
        if len(band) == 0:
            return Occupancy(word.width, ())
        return backend.occupancy(word, (band.start, band.stop), counter)

    spans = band_or(band_occupancy(bands.top), band_occupancy(bands.bottom)).spans
    if not spans:
        spans = backend.occupancy(word, (rows.start, rows.stop), counter).spans
    if not spans:
        spans = backend.occupancy(word, (ink_top, ink_bot + 1), counter).spans
    comps = [Component(lo + dx, hi + dx) for lo, hi in spans]
    middle = bands.middle

    def middle_freq():
        if not middle:
            return [0], [0]  # an empty middle band: 0 in every column
        xs, counts = backend.column_frequency(word, (middle.start, middle.stop), counter)
        return [x + dx for x in xs], counts

    return repair(comps, params, middle_freq)


def _located_chars(
    backend: Backend, line, plans: list[RepairResult], params: RoiParams
) -> tuple[CharSegmentation, ...]:
    """One CharSegmentation per plan, in line coordinates.

    Every cut of every plan is located against line by one separators_at
    call, and the separators are handed back to their plans in order, so the
    output is self-contained.
    """
    located = iter(backend.separators_at(line, [x for p in plans for x in p.cuts]))
    return tuple(
        CharSegmentation(p.chars, tuple(islice(located, len(p.cuts))), p.repairs, params)
        for p in plans
    )


def word_chars(
    backend: Backend, word, params: RoiParams, counter: WorkCounter | None
) -> CharSegmentation:
    """Characters of one word image, in its own columns."""
    return _located_chars(backend, word, [plan_chars(word, params, backend, counter)], params)[0]


def _run_backend() -> Backend:
    # Built per call from the module globals, so a name replaced at run time
    # (a tracer or a test's counting wrapper) is the one that runs.
    return Backend(crop_columns, ink_row_bounds, occupancy, column_frequency, separators_at)


def segment_chars(
    word: RleImage,
    params: RoiParams = DEFAULT_PARAMS,
    counter: WorkCounter | None = None,
) -> CharSegmentation:
    """Segment one word image into characters, working on runs only."""
    return word_chars(_run_backend(), word, params, counter)


class LineCharSegmentation(NamedTuple):
    """Full word -> character chain for one line, in line coordinates."""

    words: WordSegmentation
    per_word: tuple[CharSegmentation, ...]


def line_chars(
    backend: Backend, line, words: WordSegmentation, params: RoiParams, counter: WorkCounter | None
) -> LineCharSegmentation:
    """Character segmentation of every word of a line, each planned on its crop.

    Every word is planned first; then all of the line's char cuts are located
    with one separators_at call.
    """
    plans = []
    for w in words.words:
        word = backend.crop(line, w.x_min, w.x_max)
        plans.append(plan_chars(word, params, backend, counter, w.x_min))
    return LineCharSegmentation(words, _located_chars(backend, line, plans, params))


def _band_stack(frame: RleImage, words: list[Component], t: float):
    """Every word's ink rows, ROI and middle band, and one image of frame width
    whose rows are every word's top-band and bottom-band rows, each holding
    that word's ink runs. Each ink run lies in one word window, the last
    starting at or before it, as words are unions of occupancy components.
    A stable sort by word keeps each word's runs in row order, so the keys
    word * height + row come out sorted."""
    starts, stops, iptr = frame.spans
    height = frame.height
    word_starts = np.array([w.x_min - words[0].x_min for w in words], starts.dtype)
    run_word = np.searchsorted(word_starts, starts, "right") - 1
    order = np.argsort(run_word, kind="stable")
    keys = run_word[order] * height + np.repeat(np.arange(height), np.diff(iptr))[order]
    first = np.searchsorted(keys, np.arange(len(words) + 1) * height)
    ink = zip(keys[first[:-1]].tolist(), keys[first[1:] - 1].tolist())
    rois, stacked = [], []  # stacked: the key of each stacked row
    for w, (top, bot) in enumerate(ink):
        ink_top, ink_bot = top - w * height, bot - w * height
        rows = roi_from_bounds(ink_top, ink_bot, t)
        bands = split_bands(rows)
        rois.append((ink_top, ink_bot, rows, bands.middle))
        for band in (bands.top, bands.bottom):
            stacked += range(w * height + band.start, w * height + band.stop)
    # gather each stacked row's runs, as crop_columns gathers a window's
    row_first = np.searchsorted(keys, stacked)
    counts = np.searchsorted(keys, stacked, "right") - row_first
    sptr = np.concatenate(([0], np.cumsum(counts)))
    take = order[np.repeat(row_first - sptr[:-1], counts) + np.arange(sptr[-1])]
    stack = RleImage._from_spans(frame.width, Spans(starts[take], stops[take], sptr))
    return rois, word_starts, stack


def _middle_freq(line: RleImage, w: Component, middle: range, counter):
    """plan_chars's middle_freq for word w of line: its middle band, projected
    on a crop of the word, in line columns."""

    def middle_freq():
        if not middle:
            return [0], [0]
        word = crop_columns(line, w.x_min, w.x_max)
        xs, counts = column_frequency(word, (middle.start, middle.stop), counter)
        return [x + w.x_min for x in xs], counts

    return middle_freq


def segment_line_chars(
    line: RleImage,
    params: RoiParams = DEFAULT_PARAMS,
    mode: ThresholdMode = AUTO,
    counter: WorkCounter | None = None,
    words: WordSegmentation | None = None,
) -> LineCharSegmentation:
    """Run word segmentation (or take the line's, as words), then plan every
    word's characters at once on runs: one crop of the inked columns (the
    frame), one occupancy of the band stack, and a word crop only for a
    fallback or a split. Equal to line_chars on the run backend."""
    if words is None:
        words = segment_words(line, mode, counter)
    ws = words.words
    x0 = ws[0].x_min
    rois, word_starts, stack = _band_stack(crop_columns(line, x0, ws[-1].x_max), ws, params.t)
    ors = occupancy(stack, (0, stack.height), counter).spans
    firsts = np.array([lo for lo, _ in ors], word_starts.dtype)  # word i's from its start on
    cut = [*np.searchsorted(firsts, word_starts).tolist(), len(ors)]
    results = []
    for i, (w, (ink_top, ink_bot, rows, middle)) in enumerate(zip(ws, rois)):
        spans = ors[cut[i] : cut[i + 1]]
        dx = x0
        if not spans:  # the band OR is dark: the ROI, then the ink box, on the word
            word, dx = crop_columns(line, w.x_min, w.x_max), w.x_min
            spans = occupancy(word, (rows.start, rows.stop), counter).spans
            if not spans:
                spans = occupancy(word, (ink_top, ink_bot + 1), counter).spans
        comps = [Component(lo + dx, hi + dx) for lo, hi in spans]
        results.append(repair(comps, params, _middle_freq(line, w, middle, counter)))
    return LineCharSegmentation(words, _located_chars(_run_backend(), line, results, params))

