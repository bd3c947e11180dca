"""JSON record construction and the one serializer of the package.

Both pipelines feed the same builders with the same value types, so equal
segmentations serialize to byte-identical JSON. Every record carries
``"version": SCHEMA_VERSION`` as its first key: version 2 writes a cut's run
coordinate as one flat list of run indices, one per row, where version 1 wrote
``[row, run]`` pairs.

``dumps`` writes exactly the text of ``json.dumps(value, indent=1)``, but most
of its bytes, the ``[start, end]`` intervals and each cut's flat list of run
indices, are rendered a whole list at a time by C-level string operations
instead of json's pure-Python indenting encoder. The flat lists are also why
records are cheap to build: a cut adds one list of ints, not one small list per
row, so building a pass's records no longer feeds the garbage collector with
hundreds of thousands of container objects.
"""

from __future__ import annotations

from itertools import chain
from json.encoder import encode_basestring_ascii as _encode_str

from .chars import CharSegmentation, LineCharSegmentation
from .words import SeparatorPoint, WordSegmentation


SCHEMA_VERSION = 2


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


def dumps(value) -> str:
    """Canonical serialization used by the CLI and the differential tests.

    Byte-identical to ``json.dumps(value, indent=1)`` for any acyclic value
    that json accepts, and raises TypeError where json does.
    """
    out: list[str] = []
    _emit(value, 0, out)
    return "".join(out)


_LIST = frozenset((list,))
_INT = frozenset((int,))
_INF = float("inf")


def _scalar(o) -> str | None:
    """JSON text of a str, None, bool, int or float; None for anything else."""
    if isinstance(o, str):
        return _encode_str(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == _INF:
            return "Infinity"
        if o == -_INF:
            return "-Infinity"
        return float.__repr__(o)
    return None


def _key(k) -> str:
    """A dict key as json writes it: str, float, bool, None and int only."""
    if isinstance(k, str):
        return _encode_str(k)
    if isinstance(k, (int, float)) or k is None:
        return '"' + _scalar(k) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _ints(o: list, level: int) -> str | None:
    """Indented text of a list of plain ints, else None.

    Exact type test as in ``_int_lists``: bool, IntEnum and float items fall
    back to the general path.
    """
    if not _INT.issuperset(map(type, o)):
        return None
    item = "\n" + " " * (level + 1)
    return "[" + item + ("," + item).join(map(int.__repr__, o)) + item[:-1] + "]"


def _int_lists(o: list, level: int) -> str | None:
    """Indented text of a list of non-empty lists of plain ints, else None.

    ``repr`` of such a list has no characters but digits, '-', ', ' and
    brackets, so three replaces turn it into json's indent-1 layout. bool and
    IntEnum items would repr differently, hence the exact type tests.
    """
    if not (_LIST.issuperset(map(type, o)) and all(o)):
        return None
    if not _INT.issuperset(map(type, chain.from_iterable(o))):
        return None
    outer = "\n" + " " * level
    item = outer + " "
    num = item + " "
    body = (
        repr(o)[2:-2]
        .replace("], [", "|")
        .replace(", ", "," + num)
        .replace("|", item + "]," + item + "[" + num)
    )
    return "[" + item + "[" + num + body + item + "]" + outer + "]"


def _emit(o, level: int, out: list[str]) -> None:
    if isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        item = "\n" + " " * (level + 1)
        sep = "{" + item
        for k, v in o.items():
            key = _encode_str(k) if type(k) is str else _key(k)
            text = _scalar(v)
            if text is None:
                out.append(sep + key + ": ")
                _emit(v, level + 1, out)
            else:
                out.append(sep + key + ": " + text)
            sep = "," + item
        out.append(item[:-1] + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        text = None
        if type(o) is list:
            first = type(o[0])
            if first is int:
                text = _ints(o, level)
            elif first is list:
                text = _int_lists(o, level)
        if text is not None:
            out.append(text)
            return
        item = "\n" + " " * (level + 1)
        sep = "[" + item
        for v in o:
            out.append(sep)
            _emit(v, level + 1, out)
            sep = "," + item
        out.append(item[:-1] + "]")
    else:
        text = _scalar(o)
        if text is None:
            raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
        out.append(text)
