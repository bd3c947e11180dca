"""JSON record construction and the segment output writer.

Both pipelines feed the same builders with the same value types, so equal
segmentations serialize to byte-identical JSON. Every record carries
``"version": SCHEMA_VERSION`` as its first key. Version 3 writes one compact
record per line (JSON Lines); version 2 wrote the same records as one indented
JSON list. Since version 2 a cut's run coordinate is one flat list of run
indices, one per row; version 1 wrote ``[row, run]`` pairs.

The builders return plain dicts that hold the segmentation's own values: a
record's ``separators`` is its segmentation's ``words.Cuts``, a view of the
one int array of its line's located cuts, so building a pass's records makes
no per-cut object. ``dumps`` writes them with one schema writer rather than
json's encoder, to the text json's encoder writes for the
``[{"x", "runs"}]`` form of the same cuts.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np

from .chars import LineCharSegmentation
from .words import Cuts, WordSegmentation


SCHEMA_VERSION = 3
_ENCODE = json.JSONEncoder(separators=(",", ":")).encode
_DIGITS = tuple(map(str, range(1 << 12)))  # the text of each int below 4096
_DIGIT_TEXT = np.array(_DIGITS, object)  # the same, for one NumPy gather
_CUT = '{"x":%d,"runs":[%s]}'


def word_record(line_id: str, seg: WordSegmentation) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "line_id": line_id,
        "words": [[a, b] for a, b in seg.words],
        "separators": seg.separators,
        "threshold": float(seg.threshold_used),
    }


def line_char_records(line_id: str, seg: LineCharSegmentation) -> list[dict]:
    """One record per word. Words planned with the first word's ``RoiParams``
    share one ``params`` dict, so ``dumps`` encodes it once per line."""
    first = seg.per_word[0].params if seg.per_word else None
    shared = None if first is None else asdict(first)
    return [
        {
            "version": SCHEMA_VERSION,
            "line_id": line_id,
            "word_id": f"{line_id}:w{i}",
            "chars": [[a, b] for a, b in w.chars],
            "separators": w.separators,
            "repairs": [{"op": op, "x": x} for op, x in w.repairs] if w.repairs else [],
            "params": shared if w.params is first else asdict(w.params),
        }
        for i, w in enumerate(seg.per_word)
    ]


def _pairs(pairs) -> str:
    try:
        text = [_DIGITS[a] + "," + _DIGITS[b] for a, b in pairs]
    except IndexError:  # a bound past the digit table
        text = ["%d,%d" % (a, b) for a, b in pairs]
    return "[[" + "],[".join(text) + "]]" if text else "[]"


def _separators(cuts: Cuts) -> str:
    try:  # every run index's text in one gather from the digit table
        runs = map(",".join, _DIGIT_TEXT[cuts.runs].tolist())
    except IndexError:  # a run index past the digit table
        runs = (",".join(map("%d".__mod__, r)) for r in cuts.runs.tolist())
    return "[" + ",".join([_CUT % (x, r) for x, r in zip(cuts.xs, runs)]) + "]"


# key -> (its text, the writer of its value); None: json's encoder writes it
_FIELDS = {
    key: ('"%s":' % key, field)
    for key, field in {
        "version": None, "line_id": None, "word_id": None, "threshold": None, "params": None,
        "words": _pairs, "chars": _pairs, "separators": _separators,
        "repairs": lambda ops: _ENCODE(ops) if ops else "[]",
    }.items()
}


def dumps(records) -> str:
    """The records as JSON Lines: one compact record per line, no final newline.

    A record is a dict as the builders above return it, written as json's
    encoder writes it, compact; escaping every non-ASCII character keeps line
    breaks such as U+2028 out. ``separators`` is a ``words.Cuts``, written as
    its ``[{"x", "runs"}]`` form, one cut ``x`` then its row of the run
    array. Bounds, ``x`` and run indices are written with no type check: the
    builders' plain ints are the contract, so ``words=[[True, 5]]`` gives
    ``[[1,5]]`` and a NumPy int its digits, where ``json.dumps`` writes ``true`` or raises. The other
    values go to json's encoder, a line's shared ``line_id`` and ``params``
    once. Raises TypeError for one record dict, whose keys would be written
    as lines, for a record that is not a dict, and for a key outside the schema.
    """
    if isinstance(records, dict):
        raise TypeError("dumps takes a list of records, not one record")
    seen = {}  # key -> (the last value json's encoder wrote there, its text)

    def write(record) -> str:
        if not isinstance(record, dict):
            raise TypeError(f"a record is a dict, not {type(record).__name__}")
        parts = []
        for key, value in record.items():
            head, field = _FIELDS.get(key, (None, None))
            if head is None:
                raise TypeError(f"record key {key!r} is outside the schema")
            if field is not None:
                parts.append(head + field(value))
                continue
            last = seen.get(key)
            if last is None or last[0] is not value:
                last = seen[key] = (value, _ENCODE(value))
            parts.append(head + last[1])
        return "{" + ",".join(parts) + "}"

    return "\n".join(map(write, records))
