"""Word segmentation: gap statistics over components, cut placement in runs.

The policy half (gap widths, threshold selection, component merging) is pure
interval arithmetic on neighbouring components and is shared with the
pixel-domain baseline; only the projection/locate layers differ between the
two paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import EmptyLineError, SettingError
from .projection import Component, WorkCounter, _check_columns, components, occupancy
from .rle import RleImage, locate_run, run_index  # perfbench's tracer wraps words.locate_run


@dataclass(frozen=True)
class ThresholdMode:
    """Gap threshold policy: 'auto' (mean), 'scale' (factor x mean) or 'fixed'."""

    kind: str
    value: float = 1.0

    def __post_init__(self):
        if self.kind not in ("auto", "fixed", "scale"):
            raise SettingError("threshold", f"unknown threshold mode {self.kind!r}")
        object.__setattr__(self, "value", float(self.value))
        if not math.isfinite(self.value):
            raise SettingError("threshold", f"{self.kind} value must be finite, got {self.value}")
        if self.kind == "fixed" and self.value < 0:
            raise SettingError("threshold", "fixed threshold must be >= 0")
        if self.kind == "scale" and self.value <= 0:
            raise SettingError("threshold", "scale factor must be > 0")

    @classmethod
    def parse(cls, spec: str) -> "ThresholdMode":
        """Parse 'auto', 'fixed:<value>' or 'scale:<factor>'."""
        if spec == "auto":
            return AUTO
        kind, sep, value = spec.partition(":")
        if sep and kind in ("fixed", "scale"):
            return cls(kind, float(value))
        raise SettingError("threshold", f"bad threshold spec {spec!r}")


AUTO = ThresholdMode("auto")


class SeparatorPoint(NamedTuple):
    """One cut column and, per row of the source image, the run that holds it:
    ``runs[r]`` is the index of the run containing column ``x_mid`` in row r,
    so the run coordinate of the cut in row r is ``(r, runs[r])``. It is what
    separator_at returns and what a Cuts gives cut by cut.
    """

    x_mid: int
    runs: tuple[int, ...]


class Cuts:
    """Located cuts as one (cuts x rows) int array: cut i is column xs[i], in
    run runs[i, r] of row r. A slice is a Cuts over the same array, an item a
    SeparatorPoint, and a Cuts equals any sequence of equal SeparatorPoints."""

    __slots__ = ("xs", "runs")

    def __init__(self, xs, runs: np.ndarray) -> None:
        self.xs, self.runs = xs, runs

    def __len__(self) -> int:
        return len(self.xs)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Cuts(self.xs[i], self.runs[i])
        return SeparatorPoint(self.xs[i], tuple(self.runs[i].tolist()))

    def __iter__(self):
        return map(SeparatorPoint, self.xs, map(tuple, self.runs.tolist()))

    def __eq__(self, other) -> bool:
        return tuple(self) == tuple(other) if hasattr(other, "__iter__") else NotImplemented

    def __repr__(self) -> str:
        return f"Cuts({list(self)!r})"


class WordSegmentation(NamedTuple):
    """Ordered word intervals with the separators that divide them: at least
    one word, and one separator strictly inside each gap between words."""

    words: tuple[Component, ...]
    separators: Cuts
    threshold_used: float


def gap_widths(comps: list[Component]) -> list[int]:
    """Background columns between each pair of consecutive components."""
    return [right.x_min - left.x_max - 1 for left, right in zip(comps, comps[1:])]


def select_threshold(widths: list[int], mode: ThresholdMode = AUTO) -> float:
    """Pick the inter/intra gap threshold for one line from its gap widths;
    a line without gaps is one word, with threshold 0.0 unless fixed."""
    if mode.kind == "fixed":
        return mode.value
    if not widths:
        return 0.0
    try:
        mean = sum(widths) / len(widths)
    except OverflowError:  # a mean gap past the largest float
        mean = math.inf
    threshold = mean * mode.value if mode.kind == "scale" else mean
    if not math.isfinite(threshold):
        raise SettingError("threshold", f"{mode.value} x mean gap {mean} is not finite")
    return threshold


def gap_midpoint(left: Component, right: Component) -> int:
    """Floor midpoint of the gap between two components; always strictly
    between the bounding ink."""
    return (left.x_max + right.x_min) // 2


def plan_words(
    comps: list[Component], mode: ThresholdMode = AUTO
) -> tuple[list[Component], list[int], float]:
    """Merge components across intra-word gaps.

    Gaps strictly wider than the threshold separate words. Returns the word
    intervals, the cut column per inter-word gap, and the threshold that was
    applied (select_threshold's, also for a line without gaps).
    """
    if not comps:
        raise EmptyLineError("line has no foreground runs")
    widths = gap_widths(comps)
    threshold = select_threshold(widths, mode)
    words: list[Component] = []
    cuts: list[int] = []
    start = comps[0].x_min
    for left, right, width in zip(comps, comps[1:], widths):
        if width > threshold:
            words.append(Component(start, left.x_max))
            cuts.append(gap_midpoint(left, right))
            start = right.x_min
    words.append(Component(start, comps[-1].x_max))
    return words, cuts, threshold


def separator_at(image: RleImage, x: int) -> SeparatorPoint:
    """Locate column x in every row's runs (the coordinate-position output).

    The one-cut reference for separators_at.
    """
    return SeparatorPoint(x, tuple(map(locate_run, image.rows, repeat(x))))


def separators_at(image: RleImage, xs) -> Cuts:
    """separator_at for every column of the sequence xs, in one pass over the
    line: the transposed run_index of xs, one sorted search of the image's
    cut index. An empty xs returns empty Cuts without building the index.
    """
    _check_columns(xs, image.width)
    if not len(xs):
        return Cuts(xs, np.empty((0, image.height), np.int64))
    return Cuts(xs, run_index(image, xs).T)


def word_plan(
    line: RleImage, mode: ThresholdMode = AUTO, counter: WorkCounter | None = None
) -> tuple[list[Component], list[int], float]:
    """plan_words over the occupancy of the line's runs: its words, cut
    columns and threshold, with no cut located yet."""
    return plan_words(components(occupancy(line, (0, line.height), counter)), mode)


def plan_of(seg: WordSegmentation) -> tuple:
    """The word plan a WordSegmentation was located from."""
    return seg.words, seg.separators.xs, seg.threshold_used


def segment_words(
    line: RleImage, mode: ThresholdMode = AUTO, counter: WorkCounter | None = None
) -> WordSegmentation:
    """Segment one text line into words, working on runs only: its word_plan,
    then one separators_at call for the cuts."""
    word_list, cuts, threshold = word_plan(line, mode, counter)
    return WordSegmentation(tuple(word_list), separators_at(line, cuts), threshold)
