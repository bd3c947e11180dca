"""Foreground spreads, x-axis occupancy and connected components, all from runs.

Cost model: every operation here visits each run of the selected rows once,
with no per-row loop. The ink runs of rows [a, b) are one slice of the
image's flat spans (``RleImage.spans``), which a read file or a crop arrives
with, so projection never builds a row. An ``Occupancy`` is a named tuple of
the image width and the sorted union of the ink runs' spreads, as plain int
pairs; it checks nothing when built (the image entry points reject a zero
width). ``union`` sorts NumPy copies of the span slices and finds every
break with one comparison of the sorted stops against the next sorted
starts, so no per-run Python object is built. A ``Component`` is such a
pair as a named tuple, equal to the pair, so ``components`` only tags an
occupancy's pairs, and the word and char plans read each gap's width and
midpoint from the two Components around it; there is no separate gap type.
A column frequency is a step function over the run boundaries. Both take
O(runs log runs) time and O(runs) memory, whatever the width.
``column_frequency`` stays on lists (``tolist``, ``sorted``, bisection): it
runs on one word's middle band, a few dozen runs, where the fixed cost of
each NumPy call outweighs the per-run work it saves. The optional
WorkCounter records exactly those run visits, counted from the spans
(``RleImage.runs_in``), so the claim is assertable.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import repeat, starmap
from operator import sub
from typing import NamedTuple

import numpy as np

from .errors import EmptyRangeError, OutOfBoundsError
from .rle import RleImage


class WorkCounter:
    """Counts representation elements visited (runs here, pixels in the baseline)."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def add(self, n: int) -> None:
        self.count += n


class Component(NamedTuple):
    """Maximal inclusive x-interval of connected foreground spread; equal to
    its ``(x_min, x_max)`` pair."""

    x_min: int
    x_max: int

    @property
    def length(self) -> int:
        return self.x_max - self.x_min + 1


class Occupancy(NamedTuple):
    """Inked columns of an image `width` wide: sorted, pairwise separated
    spans, each an inclusive ``(x_min, x_max)`` pair of plain ints."""

    width: int
    spans: tuple[tuple[int, int], ...]


def _check_row_range(height: int, row_range) -> tuple[int, int]:
    start, stop = row_range
    if start < 0 or stop > height:
        raise OutOfBoundsError(f"rows [{start}, {stop}) outside image of height {height}")
    if start >= stop:
        raise EmptyRangeError(f"row range [{start}, {stop}) selects no rows")
    return start, stop


def _check_columns(xs, width: int) -> None:
    """Raise OutOfBoundsError naming the first of the columns xs outside [0, width)."""
    if min(xs, default=0) < 0 or max(xs, default=0) >= width:
        x = next(x for x in xs if not 0 <= x < width)
        raise OutOfBoundsError(f"column {x} outside row of width {width}")


def union(width: int, starts, stops) -> Occupancy:
    """Union of the non-empty half-open spans [starts[i], stops[i]).

    With both ends sorted, the union breaks after the i-th smallest stop
    exactly when that stop is below the (i+1)-th smallest start: in between,
    i+1 spans have started and i+1 have stopped. Touching spans merge.

    starts and stops are 1-D sequences of ints: lists, int64 arrays or
    dtype=object arrays (exact ints past int64). Two sorts of copies, one
    comparison into a break mask padded with True at both ends, and two
    boolean gathers, all in NumPy; two .tolist() calls hand the inclusive
    bounds back as plain ints, paired by zip.
    """
    if not len(starts):
        return Occupancy(width, ())
    starts = np.array(starts)
    starts.sort()
    stops = np.array(stops)
    stops.sort()
    breaks = np.empty(len(starts) + 1, dtype=bool)
    breaks[0] = breaks[-1] = True
    np.less(stops[:-1], starts[1:], out=breaks[1:-1])
    firsts = starts[breaks[:-1]].tolist()
    lasts = (stops[breaks[1:]] - 1).tolist()
    return Occupancy(width, tuple(zip(firsts, lasts)))


def _ink_spans(rle: RleImage, row_range, counter):
    """Starts and stops of every ink run of rows [start, stop): views of the spans."""
    start, stop = _check_row_range(rle.height, row_range)
    starts, stops, iptr = rle.spans
    a, b = iptr[start], iptr[stop]
    if counter is not None:
        counter.add(rle.runs_in(start, stop))
    return starts[a:b], stops[a:b]


def occupancy(rle: RleImage, row_range, counter: WorkCounter | None = None) -> Occupancy:
    """Columnwise OR over rows [start, stop): the union of every ink run's spread."""
    return union(rle.width, *_ink_spans(rle, row_range, counter))


def column_frequency(
    rle: RleImage, row_range, counter: WorkCounter | None = None
) -> tuple[list[int], list[int]]:
    """Per-column count of inked rows within [start, stop), as a step function.

    Returns (xs, counts): sorted breakpoints from xs[0] == 0 on, one per run
    boundary, and counts[i], the count in every column from xs[i] up to the
    next breakpoint. O(runs) memory, whatever the width.
    """
    starts, stops = (a.tolist() for a in _ink_spans(rle, row_range, counter))
    starts.sort()
    stops.sort()
    xs = sorted({0, *starts, *stops})
    begun = map(bisect_right, repeat(starts), xs)  # ink runs started at or before x
    ended = map(bisect_right, repeat(stops), xs)
    return xs, list(map(sub, begun, ended))


def components(occ: Occupancy) -> list[Component]:
    """Maximal inked intervals of the occupancy, sorted and pairwise separated."""
    return list(starmap(Component, occ.spans))
