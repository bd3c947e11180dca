"""records.dumps: JSON Lines, each record as json.dumps writes it compact."""

import json
import math
from enum import IntEnum

import numpy as np
import pytest

from rlseg import ThresholdMode, segment_line_chars, segment_words
from rlseg.records import dumps, line_char_records, word_record
from rlseg.words import Cuts, WordSegmentation

from support import bars_line, json_lines, past_2_62_line, past_4096_runs_line, plain_record


class Level(IntEnum):
    LOW = 1
    DEEP = -7


EXAMPLES = {
    "empty_list": [],
    "empty_dict": {},
    "nested_empty": [[], {}, [[]], {"a": []}, {"a": {}}, [[], []]],
    "tuples": ((1, 2), (), ((3,),), [(4, 5)]),
    "int_pairs": [[0, 3], [5, 9], [-1, 10**20]],
    "int_lists_ragged": [[1], [2, 3, 4], [5]],
    "int_pairs_nested": {"a": [{"runs": [[0, 1], [1, 3]]}]},
    "flat_ints": [0, -1, 7, 10**30, -(10**30)],
    "flat_ints_nested": {"a": [{"x": 3, "runs": [0, 2, 1]}]},
    "flat_ints_one": [5],
    "bool_in_flat_ints": [1, True, 2],
    "intenum_in_flat_ints": [1, Level.DEEP],
    "float_in_flat_ints": [1, 2.0],
    "list_in_flat_ints": [1, [2]],
    "tuple_in_flat_ints": [1, (2, 3)],
    "int_lists_with_empty": [[1, 2], []],
    "int_lists_with_tuple": [[1, 2], (3, 4)],
    "bools_in_int_lists": [[0, True], [False, 2]],
    "intenum_in_int_lists": [[Level.LOW, 2], [3, Level.DEEP]],
    "intenum_scalar": {"level": Level.DEEP},
    "floats": [0.0, -0.0, 1.5, 0.1 + 0.2, 1e300, -2.5e-308],
    "non_finite": [math.nan, math.inf, -math.inf, [[math.nan]]],
    "float_in_int_lists": [[1, 2.0]],
    "none": [None, {"v": None}, [[None]]],
    "scalars_at_top": 7,
    "string_at_top": "top",
    "non_ascii": ["été", "☃", "\U0001F600"],
    "control_chars": ["\x00\x01\x1f\x7f", "tab\tnl\nret\r", 'q"b\\'],
    "text_like_the_fast_path": ["], [", ", ", "|", [["], [", "|"]]],
    "non_str_keys": {1: "a", -2.5: "b", True: "c", False: "d", None: "e", Level.DEEP: "f"},
    "non_finite_keys": {math.nan: 1, math.inf: 2, -math.inf: 3, -0.0: 4},
    "key_and_its_text": {1: "int", "1": "str"},
}


# Each example is the value of params, a key whose value json's encoder writes,
# as it writes line_id, word_id, threshold and version. The name predates
# version 3, when dumps matched json.dumps(indent=1); it is kept so that each
# example keeps its test id.
@pytest.mark.parametrize("value", EXAMPLES.values(), ids=EXAMPLES.keys())
def test_dumps_matches_json_indent(value):
    record = {"version": 3, "params": value}
    text = dumps([record])
    assert text == json.dumps(record, separators=(",", ":"))
    assert "\n" not in text


@pytest.mark.parametrize(
    "value",
    [object(), b"bytes", {1, 2}, [[1, 2], [3, object()]], {"k": 1j}, {(1, 2): "tuple key"}],
    ids=["object", "bytes", "set", "in_list", "in_dict", "tuple_key"],
)
def test_dumps_rejects_what_json_rejects(value):
    with pytest.raises(TypeError):
        json.dumps(value)
    with pytest.raises(TypeError):
        dumps([{"params": value}])


def test_dumps_rejects_one_record_dict():
    record = word_record("w", segment_words(bars_line([(2, 6), (30, 36)], width=40)))
    assert type(record) is dict
    with pytest.raises(TypeError, match="not one record"):
        dumps(record)
    assert dumps([record]) == json_lines([record])


def test_dumps_rejects_records_outside_the_schema():
    record = word_record("w", segment_words(bars_line([(2, 6), (30, 36)], width=40)))
    for bad in (list(record.items()), None, 7):
        with pytest.raises(TypeError, match="a record is a dict"):
            dumps([record, bad])
    for extra in ({"note": [1.0, None]}, {1: "a"}, {"Words": []}):
        with pytest.raises(TypeError, match="outside the schema"):
            dumps([record, {**record, **extra}])


def test_changed_records_match_json():
    # keys reordered, an int threshold, and a line's char records sharing one
    # params dict
    line = bars_line([(2, 6), (8, 12), (30, 36), (39, 44)], width=50, height=6)
    rec = word_record("w", segment_words(line))
    chars = line_char_records("c", segment_line_chars(line))
    assert chars[0]["params"] is chars[1]["params"]
    recs = [dict(reversed(list(rec.items()))), dict(rec, threshold=3), *chars]
    assert dumps(recs) == json_lines(recs)


def test_record_separators_list_run_indices_by_row():
    seg = WordSegmentation((), Cuts([7], np.array([[0, 2, 1]])), 3.0)
    record = word_record("w", seg)
    assert plain_record(record)["separators"] == [{"x": 7, "runs": [0, 2, 1]}]
    assert '"separators":[{"x":7,"runs":[0,2,1]}]' in dumps([record])


def test_records_hold_the_segmentations_own_cuts():
    # a line's char and word cuts are located in one batch; the char block
    # is copied out as one array, each word's separators a view of it, and
    # the word cuts are the batch's tail, sharing no memory with the char
    # block; the builders put the views themselves, the word cuts' too, in
    # the records
    bars = [(2, 6), (8, 12), (30, 36), (39, 44), (60, 64), (67, 71)]
    seg = segment_line_chars(bars_line(bars, width=80, height=6))
    cuts = [w.separators for w in seg.per_word]
    line_runs = cuts[0].runs.base
    assert len(cuts) == 3 and line_runs.size == 3 * 6  # 3 cuts in 6 rows
    assert all(type(c) is Cuts and len(c) == 1 for c in cuts)
    assert all(np.shares_memory(c.runs, line_runs) for c in cuts)
    assert len(seg.words.separators) == 2
    assert not np.may_share_memory(seg.words.separators.runs, line_runs)
    assert word_record("w", seg.words)["separators"] is seg.words.separators
    recs = line_char_records("c", seg)
    assert all(r["separators"] is c for r, c in zip(recs, cuts, strict=True))


# named like test_dumps_matches_json_indent, for the same reason
def test_real_records_match_json_indent():
    line = bars_line([(2, 6), (8, 12), (30, 36), (39, 44)], width=50, height=6)
    recs = [
        word_record("w", segment_words(line)),
        *line_char_records("c", segment_line_chars(line)),
    ]
    assert recs[0]["separators"] and recs[1]["separators"]
    assert dumps(recs) == json_lines(recs)


@pytest.mark.parametrize(
    "lead,width",
    [
        (2**60, 3 * 2**61),  # width * height >= 2**62: row offsets overflow int64
        (2**63, 2**64 + 5),  # the columns themselves are past int64
    ],
)
def test_records_past_2_62_columns_match_json(lead, width):
    # every bound and x is past the digit table, so dumps writes them with
    # its %d templates
    line = past_2_62_line(lead, width)
    assert line.spans.starts.dtype == object
    recs = [
        word_record("huge", segment_words(line)),
        *line_char_records("huge", segment_line_chars(line)),
    ]
    assert len(recs[0]["words"]) == 3 and len(recs) == 4
    assert dumps(recs) == json_lines(recs)


def test_records_past_4096_runs_per_row_match_json():
    line = past_4096_runs_line()
    seg = segment_words(line, ThresholdMode("fixed", 2))
    assert len(seg.words) == 2100 and seg.separators[-1].runs[0] > 4096
    recs = [word_record("many", seg), *line_char_records("many", segment_line_chars(line, words=seg))]
    assert dumps(recs) == json_lines(recs)
