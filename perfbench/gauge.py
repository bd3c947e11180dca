"""Machine-speed gauge: times scaled to a reference machine speed.

The shared machine the benchmark runs on changes speed by 20-30%, both from
one fraction of a second to the next and over tens of seconds, so plain
wall-clock medians of two 30-second runs of the same code can differ by more
than any useful bound. The gauge runs a fixed calibration task in short
groups of readings between the lines of a pass, about every ``SEGMENT_S``
seconds, so that readings take about a fifth of the run. There are two
tasks, because the two pipelines slow down differently when the machine
does: ``calibrate`` (integer arithmetic, dict and list work, indented
``json.dumps``) gauges the run-domain path, and ``calibrate_pixels`` (reading
a NumPy row element by element and comparing neighbours) gauges the pixel
oracle.

The timed work between two groups is one *segment*. Its time is multiplied by
``REFERENCE_S / c``, where ``c`` is the mean of the readings just before and
just after it: the result is the time the work would take on a machine where
the calibration takes ``REFERENCE_S``. The calibrations use no rlseg code,
run with the garbage collector off and collect nothing of the program's, so
a change to the program cannot move them.
"""

from __future__ import annotations

import gc
import json
import statistics
import time

import numpy

REFERENCE_S = 0.05  # calibration time that defines the reference speed
READINGS = 2  # calibration readings per group
SEGMENT_S = 0.4  # timed work between two groups


_ROW = numpy.array([(x // 7 + x // 11) % 2 for x in range(1700)], dtype=numpy.uint8)


def _timed(task) -> float:
    """Seconds taken by ``task()``, run with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        task()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def _interpreter_task() -> None:
    table: dict[int, int] = {}
    acc = 0
    for i in range(60000):
        key = i % 977
        table[key] = table.get(key, 0) + i
        acc += (i * 7) % 13
    ranked = sorted(table.items(), key=lambda kv: -kv[1])
    json.dumps([{"k": k, "v": [v, v + acc, v + 2]} for k, v in ranked] * 4, indent=1)


def _pixel_task() -> None:
    changes = 0
    for _ in range(170):
        prev = _ROW[0]
        for i in range(1, len(_ROW)):
            cur = _ROW[i]
            if cur != prev:
                changes += 1
            prev = cur


def calibrate() -> float:
    """Seconds taken by the interpreter calibration task."""
    return _timed(_interpreter_task)


def calibrate_pixels() -> float:
    """Seconds taken by the pixel calibration task."""
    return _timed(_pixel_task)


class SpeedGauge:
    """Groups of calibration readings interleaved with the timed work of one run.

    Timed code notes each piece of work as ``(seconds, gauge.segment)``.
    A piece's factor is known once the group that ends its segment is read.
    """

    def __init__(self, task=calibrate) -> None:
        self.task = task
        self.groups: list[list[float]] = []
        self.read()

    @property
    def segment(self) -> int:
        """Index of the segment now being timed (it ends at the next group)."""
        return len(self.groups)

    def read(self) -> float:
        """Take a group of readings, ending the current segment; returns seconds spent."""
        start = time.perf_counter()
        self.groups.append([self.task() for _ in range(READINGS)])
        self._last = time.perf_counter()
        return self._last - start

    def pause(self) -> float:
        """Between two pieces of work: read a group if the segment is long enough.

        Returns the seconds spent, which the caller leaves out of its timing.
        """
        if time.perf_counter() - self._last < SEGMENT_S:
            return 0.0
        return self.read()

    def factor(self, segment: int) -> float:
        """Multiplier that scales the segment's times to the reference speed."""
        return REFERENCE_S / statistics.fmean(self.groups[segment - 1] + self.groups[segment])

    def scaled(self, pieces) -> float:
        """Sum of ``(seconds, segment)`` pieces, each scaled by its segment's factor."""
        return sum(seconds * self.factor(segment) for seconds, segment in pieces)

    @property
    def readings(self) -> list[float]:
        return [r for group in self.groups for r in group]
