"""One-to-one interval matching and the accuracy-rate score. `_intervals` states
the one interval rule; `predicted_intervals` checks each line's predictions by
it, `GroundTruthLine` each truth line, and `match` takes it as given."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import EmptyGroundTruthError, SettingError

_SLACK = 1e-9  # keeps exact-boundary overlaps from failing on float rounding
DEFAULT_OVERLAP = 0.9  # the least overlap of a match, as a fraction of the longer interval


@dataclass(frozen=True)
class MatchResult:
    """Partial bijection between predicted and ground-truth intervals."""

    pairs: tuple[tuple[int, int], ...]
    unmatched_pred: int
    unmatched_truth: int


@dataclass(frozen=True)
class AccuracyReport:
    """Accuracy rate: percentage of truth entities with a one-to-one match."""

    total_truth: int
    one_to_one: int

    def __post_init__(self):
        if self.total_truth < 1:
            raise EmptyGroundTruthError("accuracy rate needs a non-empty ground truth")
        if not 0 <= self.one_to_one <= self.total_truth:
            raise ValueError("matched count out of range")

    @property
    def ar_percent(self) -> float:
        return 100.0 * self.one_to_one / self.total_truth


def _intervals(ivs, what: str, after: int = -1) -> tuple[tuple[int, int], ...]:
    """ivs as a tuple of (start, end) pairs; ValueError naming what unless it is a list
    (or tuple) of [start, end] int pairs with 0 <= start <= end, sorted, disjoint and
    starting past after, the end of the interval it continues."""
    if not isinstance(ivs, (list, tuple)) or not all(
        isinstance(iv, (list, tuple)) and len(iv) == 2 and type(iv[0]) is type(iv[1]) is int
        for iv in ivs
    ):
        raise ValueError(f"{what} is not a list of [start, end] integer pairs")
    for k, (a, b) in enumerate(ivs):
        if a < 0 or b < 0:
            raise ValueError(f"{what} interval {k} [{a}, {b}] has a bound below 0")
        if a > b:
            raise ValueError(f"{what} interval [{a}, {b}] is inverted")
        if a <= after:
            raise ValueError(f"{what} intervals overlap or are unsorted at [{a}, {b}]")
        after = b
    return tuple(map(tuple, ivs))


@dataclass(frozen=True)
class GroundTruthLine:
    """Reference word intervals (and optionally per-word character intervals); the
    words, and the chars across all words, must follow the interval rule, with
    one char list per word, each inside its word."""

    line_id: str
    words: tuple[tuple[int, int], ...]
    chars: tuple[tuple[tuple[int, int], ...], ...] | None = None

    def __post_init__(self):
        if not isinstance(self.line_id, str):
            raise ValueError(f"line_id {self.line_id!r} is not a string")
        what = f"line {self.line_id}:"
        object.__setattr__(self, "words", _intervals(self.words, f"{what} 'words'"))
        if self.chars is None:
            return
        if not isinstance(self.chars, (list, tuple)):
            raise ValueError(f"{what} 'chars' is not a list of words")
        chars, end = [], -1
        for k, word in enumerate(self.chars):
            chars.append(_intervals(word, f"{what} 'chars' word {k}", end))
            end = chars[-1][-1][1] if chars[-1] else end
        if len(chars) != len(self.words):
            raise ValueError(f"{what} 'chars' has {len(chars)} words, 'words' {len(self.words)}")
        for k, ((a, b), word) in enumerate(zip(self.words, chars)):
            for c, d in word:
                if c < a or d > b:
                    raise ValueError(f"{what} 'chars' word {k} [{c}, {d}] is outside [{a}, {b}]")
        object.__setattr__(self, "chars", tuple(chars))

    @classmethod
    def from_json(cls, obj) -> "GroundTruthLine":
        """One ground-truth record; ValueError for any fault, as GroundTruthLine's."""
        if not isinstance(obj, dict):
            raise ValueError(f"record is {type(obj).__name__}, not an object")
        for key in ("line_id", "words"):
            if key not in obj:
                raise ValueError(f"record has no {key!r} field")
        return cls(obj["line_id"], obj["words"], obj.get("chars"))


def load_ground_truth(path) -> list[GroundTruthLine]:
    """The truth lines of a JSON file; ValueError when the file is not a list
    of valid records or a line_id repeats, so that no prediction is scored
    twice, naming the first bad record's index as predicted_intervals does."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, list):
        raise ValueError(f"expected a list of records, got {type(data).__name__}")
    lines = {}
    for i, obj in enumerate(data):
        try:
            line = GroundTruthLine.from_json(obj)
            if lines.setdefault(line.line_id, line) is not line:
                raise ValueError(f"line_id {line.line_id!r} appears more than once")
        except ValueError as exc:
            raise ValueError(f"record {i}: {exc}") from exc
    return list(lines.values())


class BadRecordError(ValueError):
    """A prediction record that cannot be scored: its index, and why."""

    def __init__(self, index: int, reason: str):
        super().__init__(f"record {index}: {reason}")
        self.index, self.reason = index, reason


def overlap_fraction(value) -> float:
    """value as the minimum overlap fraction of a match, which must be in (0, 1]."""
    overlap = float(value)
    if not 0 < overlap <= 1:
        raise SettingError("overlap", f"overlap must be in (0, 1], got {overlap}")
    return overlap


def match(pred, truth, overlap_min: float = DEFAULT_OVERLAP) -> MatchResult:
    """Greedy left-to-right pairing of inclusive intervals.

    Precondition, not checked here: pred and truth each follow the interval
    rule (sorted, disjoint, start <= end), and 0 < overlap_min <= 1.
    A pair qualifies when the intersection covers at least overlap_min of the
    longer interval; each side is used at most once. With disjoint sorted
    intervals qualifying pairs cannot cross, so greedy pairing is optimal.
    """
    pairs = []
    i = j = 0
    while i < len(pred) and j < len(truth):
        a, b = pred[i]
        c, d = truth[j]
        inter = min(b, d) - max(a, c) + 1
        longer = max(b - a + 1, d - c + 1)
        if inter + _SLACK >= overlap_min * longer:
            pairs.append((i, j))
            i += 1
            j += 1
        elif b < d:
            i += 1
        elif d < b:
            j += 1
        else:
            i += 1
            j += 1
    return MatchResult(tuple(pairs), len(pred) - len(pairs), len(truth) - len(pairs))


def predicted_intervals(pred_records, mode: str = "word") -> dict[str, list[tuple[int, int]]]:
    """Each line's predicted intervals, checked before any scoring.

    Word mode reads the records' "words", char mode their "chars", and
    concatenates them per line_id; records without that key are skipped.
    Raises ValueError when the records are not a list, and BadRecordError (a
    ValueError) naming the first record that is not an object with a string
    line_id whose intervals continue the line's under the interval rule.
    """
    if mode not in ("word", "char"):
        raise ValueError(f"unknown evaluation mode {mode!r}")
    if not isinstance(pred_records, list):
        raise ValueError(f"expected a list of records, got {type(pred_records).__name__}")
    key = "words" if mode == "word" else "chars"
    per_line: dict[str, list[tuple[int, int]]] = {}
    for i, rec in enumerate(pred_records):
        if not isinstance(rec, dict):
            raise BadRecordError(i, f"record is {type(rec).__name__}, not an object")
        if "line_id" not in rec:
            raise BadRecordError(i, "record has no 'line_id' field")
        line_id = rec["line_id"]
        if not isinstance(line_id, str):
            raise BadRecordError(i, f"line_id {line_id!r} is not a string")
        if key not in rec:
            continue
        ivs = per_line.setdefault(line_id, [])
        try:
            ivs += _intervals(rec[key], f"line {line_id}: {key!r}", ivs[-1][1] if ivs else -1)
        except ValueError as exc:
            raise BadRecordError(i, str(exc)) from exc
    return per_line


def score_intervals(
    per_line: dict[str, list[tuple[int, int]]],
    truth_lines,
    mode: str = "word",
    overlap_min: float = DEFAULT_OVERLAP,
) -> dict:
    """Score each truth line against the predicted intervals of its line_id."""
    overlap_min = overlap_fraction(overlap_min)
    total = matched = 0
    lines = []
    for truth in truth_lines:
        if mode == "word":
            truth_ivs = truth.words
        elif truth.chars is None:
            raise ValueError(f"ground truth line {truth.line_id} has no chars")
        else:
            truth_ivs = [iv for word in truth.chars for iv in word]
        pred_ivs = per_line.get(truth.line_id, [])
        result = match(pred_ivs, truth_ivs, overlap_min)
        n_truth, n_matched = len(truth_ivs), len(result.pairs)
        total += n_truth
        matched += n_matched
        lines.append(
            {
                "line_id": truth.line_id,
                "total": n_truth,
                "matched": n_matched,
                "ar": 100.0 * n_matched / n_truth if n_truth else None,
            }
        )
    report = AccuracyReport(total, matched)
    return {
        "mode": mode,
        "total": report.total_truth,
        "matched": report.one_to_one,
        "ar": report.ar_percent,
        "lines": lines,
    }


def evaluate_records(
    pred_records, truth_lines, mode: str = "word", overlap_min: float = DEFAULT_OVERLAP
) -> dict:
    """Score segmentation output records against ground truth, per line.

    Word mode consumes word records; char mode consumes per-word character
    records and flattens both sides to one interval list per line, so word
    segmentation errors cascade into the character score.
    """
    return score_intervals(
        predicted_intervals(pred_records, mode), truth_lines, mode, overlap_min
    )
