"""Pixel-domain primitives under the run-domain segmentation driver.

Serves two purposes: a correctness oracle (both paths must produce identical
segmentations on decode-equal inputs) and the timing baseline. Projection,
ink-row search and coordinate location here read every pixel their scans
cover, one row at a time: each row becomes a Python list (NumPy's
``tolist``) and is folded in by the C-level builtins the run-domain path
uses (``map``, ``sum``, ``any``, ``compress``, ``accumulate``), with no NumPy
arithmetic across pixels or rows. So a pixel visit costs a builtin's step,
not a NumPy scalar, and the per-pixel visit counts are those of the
algorithms: a batch of cuts reads each row's pixels 0..max(x) once. Word
mode locates its word cuts in one batch; char mode plans the words and then
locates every char cut and every word cut in one batch, so it scans each
row of a line once. pdp_word_bands projects each word's bands on its crop,
word by word, and hands them over as the run backend's word_bands does, in
one LineBands of int arrays. Everything else (thresholds, merging, ROI and
bands, the word triage, fallbacks, repair, the char driver) is the
run-domain code, handed these primitives as a chars.Backend.
"""

from __future__ import annotations

from itertools import accumulate, compress, islice
from operator import add, ne, xor

import numpy as np

from .chars import (
    DEFAULT_PARAMS,
    Backend,
    CharSegmentation,
    LineCharSegmentation,
    LineBands,
    RoiParams,
    line_chars,
    plan_chars,  # unused here; perfbench's tracer patches it under this module's name
    roi_bands,
    word_chars,
)
from .errors import EmptyWordError, OutOfBoundsError
from .projection import Occupancy, WorkCounter, _check_columns, _check_row_range, components, union
from .rle import Bitmap
from .words import AUTO, Cuts, SeparatorPoint, ThresholdMode, WordSegmentation, plan_of, plan_words


def _column_counts(bitmap: Bitmap, row_range, counter: WorkCounter | None) -> list[int]:
    """Per-column ink counts over rows [start, stop), reading every pixel of each row."""
    start, stop = _check_row_range(bitmap.height, row_range)
    width = bitmap.width
    freq = [0] * width
    for row in bitmap.pixels[start:stop]:
        if counter is not None:
            counter.add(width)
        freq = list(map(add, freq, row.tolist()))
    return freq


def pdp_occupancy(
    bitmap: Bitmap, row_range, counter: WorkCounter | None = None
) -> Occupancy:
    """Columnwise OR over rows [start, stop): the columns of non-zero ink count."""
    inked = list(compress(range(bitmap.width), _column_counts(bitmap, row_range, counter)))
    return union(bitmap.width, inked, [x + 1 for x in inked])


def pdp_column_frequency(
    bitmap: Bitmap, row_range, counter: WorkCounter | None = None
) -> tuple[list[int], list[int]]:
    """Per-column ink counts over rows [start, stop), in column_frequency's step
    form (xs, counts): a breakpoint at column 0 and at every column whose count
    differs from its left neighbor's.
    """
    freq = _column_counts(bitmap, row_range, counter)
    xs = [0, *compress(range(1, bitmap.width), map(ne, freq[1:], freq))]
    return xs, list(map(freq.__getitem__, xs))


def pdp_ink_row_bounds(bitmap: Bitmap) -> tuple[int, int]:
    """First and last inked rows, found by reading rows from the top, then the bottom."""
    pixels = bitmap.pixels
    top = bot = None
    for r in range(bitmap.height):
        if any(pixels[r].tolist()):
            top = r
            break
    if top is None:
        raise EmptyWordError("word image has no ink")
    for r in range(bitmap.height - 1, -1, -1):
        if any(pixels[r].tolist()):
            bot = r
            break
    return top, bot


def pdp_locate_run(row_pixels: list[int], x: int) -> int:
    """Run index of column x in a row of 0/1 pixels: its color changes up to x.

    Reads pixels 0..x only. On 0/1 pixels, xor is 1 exactly at a color change.
    """
    width = len(row_pixels)
    if x < 0 or x >= width:
        raise OutOfBoundsError(f"column {x} outside row of width {width}")
    return sum(map(xor, islice(row_pixels, 1, x + 1), row_pixels), 1 if row_pixels[0] else 0)


def pdp_separator_at(bitmap: Bitmap, x: int) -> SeparatorPoint:
    """Cut at column x, located in each row from that row's pixels 0..x.

    Converts one row's pixels at a time, so it holds one row's list, not the bitmap's.
    """
    width = bitmap.width
    if x < 0 or x >= width:
        raise OutOfBoundsError(f"column {x} outside row of width {width}")
    return SeparatorPoint(
        x, tuple(pdp_locate_run(row.tolist(), x) for row in bitmap.pixels[:, : x + 1])
    )


def pdp_separators_at(bitmap: Bitmap, xs) -> Cuts:
    """pdp_separator_at for every column of the sequence xs, reading each row's
    pixels 0..max(xs) once: a running sum of the row's color changes gives
    pdp_locate_run's index at every column. Holds one row's lists at a time,
    and the picked indices of every row, which become one array.
    """
    if not xs:
        return Cuts(xs, np.empty((0, bitmap.height), np.int64))
    _check_columns(xs, bitmap.width)
    picked = []
    for row in bitmap.pixels[:, : max(xs) + 1]:
        px = row.tolist()
        runs = list(accumulate(map(xor, islice(px, 1, None), px), initial=px[0]))
        picked.append(list(map(runs.__getitem__, xs)))
        del px, runs  # so the next row's lists are not built beside these
    return Cuts(xs, np.array(picked, np.int64).T)


def pdp_crop_columns(bitmap: Bitmap, x_min: int, x_max: int) -> Bitmap:
    """The inclusive column window [x_min, x_max] as a standalone bitmap."""
    return Bitmap(bitmap.pixels[:, x_min : x_max + 1])


def pdp_word_bands(
    bitmap: Bitmap, words, t: float, counter: WorkCounter | None = None
) -> LineBands:
    """Every word's bands, word by word on its crop: pdp_ink_row_bounds, then
    (after roi_bands for all words) one union of its top-band and
    bottom-band pdp_occupancy."""
    crops = [pdp_crop_columns(bitmap, w.x_min, w.x_max) for w in words]
    top, bot = np.array([pdp_ink_row_bounds(word) for word in crops]).reshape(-1, 2).T
    roi = roi_bands(top, bot, t)
    ors, wptr = [], [0]
    for w, word, (start, stop, _, m0, m1) in zip(words, crops, zip(*(a.tolist() for a in roi))):
        bands = [band for band in ((start, m0), (m1, stop)) if band[0] < band[1]]
        spans = [span for band in bands for span in pdp_occupancy(word, band, counter).spans]
        spans = union(word.width, [lo for lo, _ in spans], [hi + 1 for _, hi in spans]).spans
        ors += [(lo + w.x_min, hi + w.x_min) for lo, hi in spans]
        wptr.append(len(ors))
    lo, hi = np.array(ors, np.int64).reshape(-1, 2).T
    return LineBands(top, bot, *roi, lo, hi, np.array(wptr))


def _backend() -> Backend:
    # Built per call from the module globals, so a name replaced at run time
    # (a tracer or a test's counting wrapper) is the one that runs.
    return Backend(
        pdp_crop_columns, pdp_word_bands, pdp_occupancy, pdp_column_frequency, pdp_separators_at
    )


def pdp_word_plan(
    bitmap: Bitmap, mode: ThresholdMode = AUTO, counter: WorkCounter | None = None
) -> tuple[list, list[int], float]:
    """plan_words over the bitmap's pixel occupancy: words.word_plan's
    triple, with no cut located yet."""
    return plan_words(components(pdp_occupancy(bitmap, (0, bitmap.height), counter)), mode)


def pdp_segment_words(
    bitmap: Bitmap, mode: ThresholdMode = AUTO, counter: WorkCounter | None = None
) -> WordSegmentation:
    """Word segmentation over pixels; same policy, pixel projection, then
    one pdp_separators_at call for the cuts."""
    word_list, cuts, threshold = pdp_word_plan(bitmap, mode, counter)
    return WordSegmentation(tuple(word_list), pdp_separators_at(bitmap, cuts), threshold)


def pdp_segment_chars(
    word: Bitmap,
    params: RoiParams = DEFAULT_PARAMS,
    counter: WorkCounter | None = None,
) -> CharSegmentation:
    """Character segmentation over pixels; same driver, pixel primitives."""
    return word_chars(_backend(), word, params, counter)


def pdp_segment_line_chars(
    bitmap: Bitmap,
    params: RoiParams = DEFAULT_PARAMS,
    mode: ThresholdMode = AUTO,
    counter: WorkCounter | None = None,
    words: WordSegmentation | None = None,
) -> LineCharSegmentation:
    """Pixel-domain word -> character chain, on the same driver as
    segment_line_chars: one pdp_separators_at call locates the char and word
    cuts of the plan, pdp_word_plan's or the one words was located from."""
    plan = pdp_word_plan(bitmap, mode, counter) if words is None else plan_of(words)
    return line_chars(_backend(), bitmap, plan, params, counter)
