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
"""

from __future__ import annotations

import json

from .chars import CharSegmentation, LineCharSegmentation
from .words import SeparatorPoint, WordSegmentation


SCHEMA_VERSION = 3
_ENCODE = json.JSONEncoder(separators=(",", ":")).encode


def separator_record(sep: SeparatorPoint) -> dict:
    """A cut: its column and, at list position r, the index of row r's run there."""
    return {"x": sep.x_mid, "runs": list(sep.runs)}


def word_record(line_id: str, seg: WordSegmentation) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "line_id": line_id,
        "words": [[c.x_min, c.x_max] for c in seg.words],
        "separators": [separator_record(s) for s in seg.separators],
        "threshold": float(seg.threshold_used),
    }


def char_record(line_id: str, word_id: str, seg: CharSegmentation) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "line_id": line_id,
        "word_id": word_id,
        "chars": [[c.x_min, c.x_max] for c in seg.chars],
        "separators": [separator_record(s) for s in seg.separators],
        "repairs": [{"op": r.op, "x": r.x} for r in seg.repairs],
        "params": {
            "t": seg.params.t,
            "alpha": seg.params.alpha,
            "beta": seg.params.beta,
        },
    }


def line_char_records(line_id: str, seg: LineCharSegmentation) -> list[dict]:
    return [
        char_record(line_id, f"{line_id}:w{i}", word_seg)
        for i, word_seg in enumerate(seg.per_word)
    ]


def dumps(records) -> str:
    """The records as JSON Lines: one compact record per line, no final newline.

    Each record is written by json's C encoder; escaping every non-ASCII
    character keeps line breaks such as U+2028 out of the text, so a record
    never spans two lines. Raises TypeError and ValueError where json does,
    and TypeError for one record dict, whose keys would be written as lines.
    """
    if isinstance(records, dict):
        raise TypeError("dumps takes a list of records, not one record")
    return "\n".join(map(_ENCODE, records))
