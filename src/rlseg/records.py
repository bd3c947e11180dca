"""JSON record construction and the segment output writer.

Both pipelines feed the same builders with the same value types, so equal
segmentations serialize to byte-identical JSON. Every record carries
``"version": SCHEMA_VERSION`` as its first key. Version 3 writes one compact
record per line (JSON Lines); version 2 wrote the same records as one indented
JSON list. Since version 2 a cut's run coordinate is one flat list of run
indices, one per row; version 1 wrote ``[row, run]`` pairs.

A cut adds one list of ints, not one small list per row, so building a pass's
records does not feed the garbage collector with hundreds of thousands of
container objects.

The builders return ``Record``s, which ``dumps`` writes with one schema writer
rather than json's encoder, one int at a time, to the same text.
"""

from __future__ import annotations

import json
from dataclasses import asdict

from .chars import LineCharSegmentation
from .words import WordSegmentation


SCHEMA_VERSION = 3
_ENCODE = json.JSONEncoder(separators=(",", ":")).encode
_DIGITS = tuple(map(str, range(1 << 12)))  # the text of each int below 4096
_CUT = '{"x":%d,"runs":[%s]}'


class Record(dict):
    """A segment record as the builders below set it; ``dumps`` writes it by schema."""

    __slots__ = ()


def word_record(line_id: str, seg: WordSegmentation) -> Record:
    return Record(
        version=SCHEMA_VERSION,
        line_id=line_id,
        words=[[a, b] for a, b in seg.words],
        separators=[{"x": x, "runs": list(runs)} for x, runs in seg.separators],
        threshold=float(seg.threshold_used),
    )


def line_char_records(line_id: str, seg: LineCharSegmentation) -> list[Record]:
    """One record per word. Words planned with the first word's ``RoiParams``
    share one ``params`` dict, so ``dumps`` encodes it once per line."""
    first = seg.per_word[0].params if seg.per_word else None
    shared = None if first is None else asdict(first)
    return [
        Record(
            version=SCHEMA_VERSION,
            line_id=line_id,
            word_id=f"{line_id}:w{i}",
            chars=[[a, b] for a, b in w.chars],
            separators=[{"x": x, "runs": list(runs)} for x, runs in w.separators],
            repairs=[{"op": op, "x": x} for op, x in w.repairs] if w.repairs else [],
            params=shared if w.params is first else asdict(w.params),
        )
        for i, w in enumerate(seg.per_word)
    ]


def _pairs(pairs) -> str:
    try:
        text = [_DIGITS[a] + "," + _DIGITS[b] for a, b in pairs]
    except IndexError:  # a bound past the digit table
        text = ["%d,%d" % (a, b) for a, b in pairs]
    return "[[" + "],[".join(text) + "]]" if text else "[]"


def _separators(cuts) -> str:
    try:
        text = [_CUT % (c["x"], ",".join([_DIGITS[i] for i in c["runs"]])) for c in cuts]
    except IndexError:  # a run index past the digit table
        text = [_CUT % (c["x"], ",".join(map("%d".__mod__, c["runs"]))) for c in cuts]
    return "[" + ",".join(text) + "]"


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

    Each line is the text json's encoder writes for its record, compact;
    escaping every non-ASCII character keeps line breaks such as U+2028 out.
    A ``Record`` is written from its own values as the builders set them:
    non-negative int bounds, ``x`` and run indices, each cut ``x`` then
    ``runs``. Its other values, and a record that is not a ``Record`` or has a
    key outside the schema, go to json's encoder, a line's shared ``line_id``
    and ``params`` once. Before writing, raises TypeError for one record dict,
    whose keys would be written as lines. While writing, json's encoder raises
    TypeError and ValueError where ``json.dumps`` does, and the schema writer
    raises TypeError for a bound or run index that is not an int and
    ValueError for an int too long to write, as json does.
    """
    if isinstance(records, dict):
        raise TypeError("dumps takes a list of records, not one record")
    seen = {}  # key -> (the last value json's encoder wrote there, its text)

    def write(record) -> str:
        if type(record) is not Record:
            return _ENCODE(record)
        parts = []
        for key, value in record.items():
            head, field = _FIELDS.get(key, (None, None))
            if head is None:
                return _ENCODE(record)
            if field is not None:
                parts.append(head + field(value))
                continue
            last = seen.get(key)
            if last is None or last[0] is not value:
                last = seen[key] = (value, _ENCODE(value))
            parts.append(head + last[1])
        return "{" + ",".join(parts) + "}"

    return "\n".join(map(write, records))
