"""Foreground spreads, x-axis occupancy and connected components, all from runs.

Cost model: every operation here visits each run of the selected rows once.
An occupancy is the sorted union of the ink runs' spreads, so it and its
components take O(runs log runs) time and O(runs) memory, whatever the width;
only ``column_frequency`` keeps a per-column buffer. The optional WorkCounter
records exactly those run visits so the claim is assertable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EmptyRangeError, OutOfBoundsError
from .rle import RleImage


class WorkCounter:
    """Counts representation elements visited (runs here, pixels in the baseline)."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def add(self, n: int) -> None:
        self.count += n


@dataclass(frozen=True)
class Component:
    """Maximal inclusive x-interval of connected foreground spread."""

    x_min: int
    x_max: int

    def __post_init__(self):
        if not 0 <= self.x_min <= self.x_max:
            raise ValueError(f"bad component [{self.x_min}, {self.x_max}]")

    @property
    def length(self) -> int:
        return self.x_max - self.x_min + 1


@dataclass(frozen=True)
class Gap:
    """Background interval strictly between two components.

    left/right are the bounding ink columns, so the open interval
    (left, right) is all background and width = right - left - 1 >= 1.
    """

    left: int
    right: int

    def __post_init__(self):
        if self.right - self.left - 1 < 1:
            raise ValueError(f"gap between {self.left} and {self.right} has no width")

    @property
    def width(self) -> int:
        return self.right - self.left - 1


@dataclass(frozen=True)
class Occupancy:
    """Inked columns of an image `width` wide: sorted, pairwise separated spans."""

    width: int
    spans: tuple[Component, ...]

    def __post_init__(self):
        object.__setattr__(self, "spans", tuple(self.spans))
        if self.width < 1:
            raise ValueError("occupancy cannot be zero-width")


def _check_row_range(height: int, row_range) -> tuple[int, int]:
    start, stop = row_range
    if start < 0 or stop > height:
        raise OutOfBoundsError(f"rows [{start}, {stop}) outside image of height {height}")
    if start >= stop:
        raise EmptyRangeError(f"row range [{start}, {stop}) selects no rows")
    return start, stop


def union(width: int, starts, stops) -> Occupancy:
    """Union of the non-empty half-open spans [starts[i], stops[i]).

    With both ends sorted, the union breaks after the i-th smallest stop
    exactly when that stop is below the (i+1)-th smallest start: in between,
    i+1 spans have started and i+1 have stopped. Touching spans merge.
    """
    starts = sorted(starts)
    stops = sorted(stops)
    spans = []
    first = 0
    for i, stop in enumerate(stops):
        if i + 1 == len(starts) or stop < starts[i + 1]:
            spans.append(Component(starts[first], stop - 1))
            first = i + 1
    return Occupancy(width, tuple(spans))


def occupancy(rle: RleImage, row_range, counter: WorkCounter | None = None) -> Occupancy:
    """Columnwise OR over rows [start, stop): the union of every ink run's spread."""
    start, stop = _check_row_range(rle.height, row_range)
    starts = []
    stops = []
    for r in range(start, stop):
        runs = rle.rows[r].runs
        if counter is not None:
            counter.add(len(runs))
        pos = 0
        for j, run in enumerate(runs):
            if j & 1:
                starts.append(pos)
                stops.append(pos + run)
            pos += run
    return union(rle.width, starts, stops)


def column_frequency(rle: RleImage, row_range, counter: WorkCounter | None = None) -> list[int]:
    """Per-column count of inked rows within [start, stop), via a difference array."""
    start, stop = _check_row_range(rle.height, row_range)
    diff = [0] * (rle.width + 1)
    for r in range(start, stop):
        runs = rle.rows[r].runs
        if counter is not None:
            counter.add(len(runs))
        pos = 0
        for j, run in enumerate(runs):
            if j & 1 and run:
                diff[pos] += 1
                diff[pos + run] -= 1
            pos += run
    freq = []
    acc = 0
    for d in diff[:-1]:
        acc += d
        freq.append(acc)
    return freq


def components(occ: Occupancy) -> list[Component]:
    """Maximal inked intervals of the occupancy, sorted and pairwise separated."""
    return list(occ.spans)


def gaps(comps: list[Component]) -> list[Gap]:
    """Background gaps between consecutive components."""
    return [Gap(a.x_max, b.x_min) for a, b in zip(comps, comps[1:])]
