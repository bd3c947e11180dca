"""CLI behavior: subcommands, exit codes, config handling, schemas."""

import csv
import fcntl
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import pytest

import rlseg.bench
import rlseg.cli
import rlseg.render
from rlseg import (
    Bitmap,
    RleImage,
    decode,
    encode,
    read_pbm,
    read_rle,
    segment_line_chars,
    segment_words,
    write_rle,
)
from rlseg.cli import EXIT_PIPE, main
from rlseg.synth import SynthConfig, write_corpus

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "docs" / "schemas"


def _schema(name):
    return json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())


def _records(text):
    """The records of `rlseg segment` output, one JSON object per line."""
    return [json.loads(line) for line in text.split("\n") if line]


@pytest.fixture
def corpus(tmp_path):
    out = tmp_path / "corpus"
    assert main(["synth", "--out", str(out), "--lines", "4", "--seed", "12"]) == 0
    return out


def test_encode_decode_roundtrip(tmp_path, corpus):
    first = sorted((corpus / "lines").glob("*.rle"))[0]
    pbm = tmp_path / "x.pbm"
    back = tmp_path / "x.rle"
    assert main(["decode", str(first), str(pbm)]) == 0
    assert main(["encode", str(pbm), str(back)]) == 0
    assert back.read_bytes() == first.read_bytes()


def test_p1_p4_same_rle(tmp_path, corpus):
    first = sorted((corpus / "lines").glob("*.rle"))[0]
    p1, p4 = tmp_path / "a.pbm", tmp_path / "b.pbm"
    assert main(["decode", str(first), str(p1)]) == 0
    assert main(["decode", str(first), str(p4), "--binary"]) == 0
    r1, r4 = tmp_path / "a.rle", tmp_path / "b.rle"
    assert main(["encode", str(p1), str(r1)]) == 0
    assert main(["encode", str(p4), str(r4)]) == 0
    assert r1.read_bytes() == r4.read_bytes()


def test_segment_words_schema(tmp_path, corpus):
    out = tmp_path / "w.json"
    assert main(["segment", str(corpus / "manifest.txt"), "--out", str(out)]) == 0
    records = _records(out.read_text())
    assert len(records) == 4
    schema = _schema("word_record")
    for rec in records:
        jsonschema.validate(rec, schema)


def test_segment_chars_schema(tmp_path, corpus):
    out = tmp_path / "c.json"
    assert (
        main(["segment", str(corpus / "manifest.txt"), "--mode", "chars", "--out", str(out)])
        == 0
    )
    records = _records(out.read_text())
    schema = _schema("char_record")
    for rec in records:
        jsonschema.validate(rec, schema)


def test_segment_directory_input(tmp_path, corpus):
    out = tmp_path / "w.json"
    assert main(["segment", str(corpus / "lines"), "--out", str(out)]) == 0
    assert len(_records(out.read_text())) == 4


# A hand-built 18x3 line of two words of two glyphs each. Rows 1 and 2 start
# with ink, so a cut's run index differs from row to row.
GOLDEN_RLE = "RLE1 18 3\n1 2 1 2 7 1 1 1 2\n0 2 3 1 6 3 3\n0 1 1 1 1 2 7 1 1 1 2\n"
GOLDEN_TRUTH = [
    {
        "line_id": "g",
        "words": [[0, 5], [12, 15]],
        "chars": [[[0, 2], [4, 5]], [[13, 13], [15, 15]]],
    }
]
GOLDEN_WORDS = (
    '{"version":3,"line_id":"g","words":[[0,5],[12,15]],'
    '"separators":[{"x":8,"runs":[4,4,6]}],"threshold":3.5}\n'
)
GOLDEN_CHARS = (
    '{"version":3,"line_id":"g","word_id":"g:w0","chars":[[0,2],[4,5]],'
    '"separators":[{"x":3,"runs":[2,2,4]}],"repairs":[],'
    '"params":{"t":0.2,"alpha":0.33,"beta":1.75}}\n'
    '{"version":3,"line_id":"g","word_id":"g:w1","chars":[[13,13],[15,15]],'
    '"separators":[{"x":14,"runs":[6,5,8]}],"repairs":[],'
    '"params":{"t":0.2,"alpha":0.33,"beta":1.75}}\n'
)


def _segment_golden(tmp_path):
    line = tmp_path / "g.rle"
    line.write_text(GOLDEN_RLE)
    outs = {}
    for mode in ("words", "chars"):
        outs[mode] = tmp_path / f"{mode}.json"
        assert main(["segment", str(line), "--mode", mode, "--out", str(outs[mode])]) == 0
    return line, outs


def test_segment_v3_golden_bytes(tmp_path):
    _, outs = _segment_golden(tmp_path)
    assert outs["words"].read_text() == GOLDEN_WORDS
    assert outs["chars"].read_text() == GOLDEN_CHARS


# The seed-1 corpora shaped like perfbench's three workloads (built here with
# synth alone), and the SHA-1 of each `rlseg segment` output: a change to the
# run-domain path that keeps these bytes keeps the benchmark's outputs.
BENCHMARK_SHAPED = [
    ("words_narrow", 300, 8, "words", "4403d42abc75db44d6bef7445d02b48ed4b63ff1"),
    ("chars_narrow", 100, 8, "chars", "5e995f03bd526df96e137bf439afbbfad51798cd"),
    ("chars_wide", 24, 32, "chars", "2c3b3cbde72d019d081996972b1ba11376ad0a7d"),
]


@pytest.mark.parametrize(
    "name,lines,words,mode,sha1", BENCHMARK_SHAPED, ids=[w[0] for w in BENCHMARK_SHAPED]
)
def test_benchmark_shaped_segment_output_is_pinned(tmp_path, name, lines, words, mode, sha1):
    cfg = SynthConfig(lines=lines, words_per_line=words, touch_rate=0.3, seed=1)
    write_corpus(cfg, tmp_path / name)
    out = tmp_path / f"{name}.json"
    manifest = tmp_path / name / "manifest.txt"
    assert main(["segment", str(manifest), "--mode", mode, "--out", str(out)]) == 0
    assert hashlib.sha1(out.read_bytes()).hexdigest() == sha1
    schema = _schema("word_record" if mode == "words" else "char_record")
    validator = jsonschema.validators.validator_for(schema)(schema)
    for rec in _records(out.read_text()):
        validator.validate(rec)


# The SHA-1 of the same corpora's .rle files, concatenated in manifest order:
# a change to synth or write_rle that keeps these keeps the benchmark's inputs.
BENCHMARK_SHAPED_CORPUS_SHA1 = {
    "words_narrow": "485a8f664a096e3acc0b82a12e09bd9f5d5a0978",
    "chars_narrow": "d52d7a2b23ff21a0874c152bbd07c1010c664cdc",
    "chars_wide": "929cd6dbe324f0ec5f988cb39e10d1d4095ffc9a",
}


@pytest.mark.parametrize(
    "name,lines,words", [w[:3] for w in BENCHMARK_SHAPED], ids=[w[0] for w in BENCHMARK_SHAPED]
)
def test_benchmark_shaped_corpus_is_pinned(tmp_path, name, lines, words):
    cfg = SynthConfig(lines=lines, words_per_line=words, touch_rate=0.3, seed=1)
    write_corpus(cfg, tmp_path)
    digest = hashlib.sha1()
    for rel in (tmp_path / "manifest.txt").read_text().splitlines():
        digest.update((tmp_path / rel).read_bytes())
    assert digest.hexdigest() == BENCHMARK_SHAPED_CORPUS_SHA1[name]


@pytest.mark.parametrize("mode,schema", [("words", "word_record"), ("chars", "char_record")])
def test_v3_schema_rejects_v2_and_v1_records(tmp_path, mode, schema):
    _, outs = _segment_golden(tmp_path)
    schema = _schema(schema)
    rec = _records(outs[mode].read_text())[0]
    jsonschema.validate(rec, schema)
    pairs = json.loads(json.dumps(rec))
    for sep in pairs["separators"]:
        sep["runs"] = [[r, j] for r, j in enumerate(sep["runs"])]
    unversioned = {k: v for k, v in rec.items() if k != "version"}
    for bad in (pairs, unversioned, {**rec, "version": 1}, {**rec, "version": 2}):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(bad, schema)


def test_evaluate_and_render_read_v3_segment_files(tmp_path):
    line, outs = _segment_golden(tmp_path)
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps(GOLDEN_TRUTH))
    for mode, seg in (("word", outs["words"]), ("char", outs["chars"])):
        assert all(rec["version"] == 3 for rec in _records(seg.read_text()))
        report = tmp_path / f"{mode}_report.json"
        args = ["evaluate", str(seg), str(truth), "--mode", mode, "--out", str(report)]
        assert main(args) == 0
        assert json.loads(report.read_text())["ar"] == 100.0
        overlay_path = tmp_path / f"{mode}.pbm"
        assert main(["render", str(line), str(seg), str(overlay_path)]) == 0
        xs = [sep["x"] for rec in _records(seg.read_text()) for sep in rec["separators"]]
        expected = decode(read_rle(line)).pixels.copy()
        expected[:, xs] = 1
        assert (read_pbm(overlay_path).pixels[1:-1, 1:-1] == expected).all()


def test_indented_v2_segment_file_is_rejected_at_line_1(tmp_path, capsys):
    line, outs = _segment_golden(tmp_path)
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps(GOLDEN_TRUTH))
    v2 = tmp_path / "v2.json"
    records = [{**rec, "version": 2} for rec in _records(outs["words"].read_text())]
    v2.write_text(json.dumps(records, indent=1) + "\n")
    overlay_path = tmp_path / "o.pbm"
    for argv in (
        ["evaluate", str(v2), str(truth)],
        ["render", str(line), str(v2), str(overlay_path)],
    ):
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err == f"rlseg: parse error: {v2}:1: not JSON: Expecting value\n"


def test_line_id_with_line_breaks_and_quotes_round_trips(tmp_path):
    # "\u2028" and "\x85" end a line for str.splitlines, not for the reader
    line_id = 'a\nb\u2028c\x85d"e'
    line = tmp_path / f"{line_id}.rle"
    line.write_text(GOLDEN_RLE)
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps([{**GOLDEN_TRUTH[0], "line_id": line_id}]))
    for mode, eval_mode in (("words", "word"), ("chars", "char")):
        seg = tmp_path / f"{mode}.jsonl"
        assert main(["segment", str(line), "--mode", mode, "--out", str(seg)]) == 0
        text = seg.read_text()
        assert text.count("\n") == len(text.splitlines()) == len(_records(text))
        assert {rec["line_id"] for rec in _records(text)} == {line_id}
        report = tmp_path / f"{mode}_report.json"
        args = ["evaluate", str(seg), str(truth), "--mode", eval_mode, "--out", str(report)]
        assert main(args) == 0
        rep = json.loads(report.read_text())
        assert rep["ar"] == 100.0 and [ln["line_id"] for ln in rep["lines"]] == [line_id]
        overlay_path = tmp_path / f"{mode}.pbm"
        assert main(["render", str(line), str(seg), str(overlay_path)]) == 0
        xs = [sep["x"] for rec in _records(text) for sep in rec["separators"]]
        assert xs and read_pbm(overlay_path).pixels[1:-1, [x + 1 for x in xs]].all()


def test_evaluate_report_schema(tmp_path, corpus):
    words = tmp_path / "w.json"
    report = tmp_path / "r.json"
    assert main(["segment", str(corpus / "manifest.txt"), "--out", str(words)]) == 0
    assert (
        main(
            [
                "evaluate", str(words), str(corpus / "ground_truth.json"),
                "--mode", "word", "--out", str(report),
            ]
        )
        == 0
    )
    text = report.read_text()
    assert text == json.dumps(json.loads(text), indent=1) + "\n"
    rep = json.loads(text)
    jsonschema.validate(rep, _schema("evaluation_report"))
    assert rep["ar"] == 100.0
    jsonschema.validate(
        json.loads((corpus / "ground_truth.json").read_text()), _schema("ground_truth")
    )


def test_chars_mode_single_glyph_line(tmp_path):
    line = tmp_path / "one.rle"
    write_rle(encode(Bitmap([[0, 1, 1, 0]] * 6)), line)
    out = tmp_path / "c.json"
    assert main(["segment", str(line), "--mode", "chars", "--out", str(out)]) == 0
    records = _records(out.read_text())
    assert len(records) == 1  # one word
    assert records[0]["chars"] == [[1, 2]]  # one char
    assert records[0]["separators"] == []


def test_blank_line_exits_2(tmp_path):
    blank = tmp_path / "blank.rle"
    write_rle(RleImage(8, ((8,), (8,))), blank)
    assert main(["segment", str(blank)]) == 2


def test_blank_line_in_directory_names_the_file(tmp_path, corpus, capsys):
    lines = corpus / "lines"
    write_rle(RleImage(8, ((8,), (8,))), lines / "zz_blank.rle")
    for argv in (["segment", "--mode", "words"], ["segment", "--mode", "chars"], ["bench"]):
        assert main([*argv, str(lines)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"rlseg: empty input: {lines / 'zz_blank.rle'}: line has no foreground runs\n"
        )


def test_huge_declared_width_blank_line_exits_2(tmp_path, capsys):
    blank = tmp_path / "huge.rle"
    blank.write_text("RLE1 300000000 1\n300000000\n")
    assert main(["segment", str(blank)]) == 2
    assert capsys.readouterr().err == (
        f"rlseg: empty input: {blank}: line has no foreground runs\n"
    )


def test_huge_declared_width_ink_line_is_one_word(tmp_path, capsys):
    line = tmp_path / "huge.rle"
    line.write_text("RLE1 300000000 1\n0 300000000\n")
    assert main(["segment", str(line), "--mode", "words"]) == 0
    records = _records(capsys.readouterr().out)
    assert records[0]["words"] == [[0, 299999999]]
    assert records[0]["separators"] == []


def test_huge_declared_width_ink_line_is_one_char(tmp_path, capsys):
    line = tmp_path / "huge.rle"
    line.write_text("RLE1 300000000 1\n0 300000000\n")
    assert main(["segment", str(line), "--mode", "chars"]) == 0
    records = _records(capsys.readouterr().out)
    assert [r["chars"] for r in records] == [[[0, 299999999]]]
    assert records[0]["separators"] == []


def test_huge_declared_width_tall_ink_line_is_one_char(tmp_path, capsys):
    # three all-ink rows: the ROI keeps all three, so the middle band has a row
    line = tmp_path / "huge.rle"
    line.write_text("RLE1 300000000 3\n" + "0 300000000\n" * 3)
    assert main(["segment", str(line), "--mode", "chars"]) == 0
    records = _records(capsys.readouterr().out)
    assert [r["chars"] for r in records] == [[[0, 299999999]]]
    assert records[0]["separators"] == []


@pytest.mark.parametrize(
    "lead,width",
    [
        (2**60, 3 * 2**61),  # width * height >= 2**62: row offsets overflow int64
        (2**63, 2**64 + 5),  # the columns themselves are past int64
    ],
)
@pytest.mark.parametrize("mode", ["words", "chars"])
def test_huge_width_line_of_words_is_cut_exactly(tmp_path, capsys, lead, width, mode):
    # three identical rows: three words of two glyphs, L wide with a gap of g,
    # G between words; after a leading run of `lead` background columns
    L, g, G = 2**57, 2**55, 2**59
    runs = (lead, L, g, L, G, L, g, L, G, L, g, L)
    line = tmp_path / "huge.rle"
    write_rle(RleImage(width, (runs + (width - sum(runs),),) * 3), line)
    assert read_rle(line).spans.starts.dtype == object
    assert main(["segment", str(line), "--mode", mode]) == 0
    records = _records(capsys.readouterr().out)
    firsts = [lead + k * (2 * L + g + G) for k in range(3)]
    words = [[x, x + 2 * L + g - 1] for x in firsts]
    if mode == "words":
        assert records[0]["words"] == words
        # run 4k + 4 is the background after word k
        assert records[0]["separators"] == [
            {"x": (a[1] + b[0]) // 2, "runs": [4 * k + 4] * 3}
            for k, (a, b) in enumerate(zip(words, words[1:]))
        ]
        return
    assert [r["word_id"] for r in records] == ["huge:w0", "huge:w1", "huge:w2"]
    assert all(r["repairs"] == [] for r in records)
    assert [r["chars"] for r in records] == [
        [[x, x + L - 1], [x + L + g, x + 2 * L + g - 1]] for x in firsts
    ]
    # run 4k + 2 is the gap between the glyphs of word k
    assert [r["separators"] for r in records] == [
        [{"x": (2 * x + 2 * L + g - 1) // 2, "runs": [4 * k + 2] * 3}]
        for k, x in enumerate(firsts)
    ]


def test_word_memory_does_not_grow_with_width():
    width = 10**7
    # three words of two glyphs each, spread over the line, on four rows
    runs = (1000, 40, 5, 40, 3_000_000, 40, 5, 40, 3_000_000, 40, 5, 40)
    rows = tuple(runs + (width - sum(runs),) for _ in range(4))
    line = RleImage(width, rows)
    tracemalloc.start()
    try:
        seg = segment_words(line)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(seg.words) == 3
    assert peak < 1_000_000


def test_char_memory_does_not_grow_with_width():
    # one all-ink row: the ROI is a single row, so the middle band is empty
    line = RleImage(10**7, ((0, 10**7),))
    tracemalloc.start()
    try:
        seg = segment_line_chars(line)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [(c.x_min, c.x_max) for c in seg.per_word[0].chars] == [(0, 10**7 - 1)]
    assert peak < 1_000_000


def test_tall_char_memory_does_not_grow_with_width():
    # three all-ink rows: the middle band's frequencies come from column_frequency
    line = RleImage(10**7, ((0, 10**7),) * 3)
    tracemalloc.start()
    try:
        seg = segment_line_chars(line)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [(c.x_min, c.x_max) for c in seg.per_word[0].chars] == [(0, 10**7 - 1)]
    assert peak < 1_000_000


def test_empty_truth_exits_3(tmp_path, corpus):
    words = tmp_path / "w.json"
    assert main(["segment", str(corpus / "manifest.txt"), "--out", str(words)]) == 0
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    assert main(["evaluate", str(words), str(empty), "--mode", "word"]) == 3


def test_malformed_rle_exits_4(tmp_path):
    bad = tmp_path / "bad.rle"
    bad.write_text("RLE1 4 1\n9 9\n")
    assert main(["segment", str(bad)]) == 4


def test_rle_header_token_past_the_int_digit_limit_exits_4(tmp_path, capsys):
    # a width of 5000 digits is more than Python converts to an int
    bad = tmp_path / "long.rle"
    bad.write_text(f"RLE1 {'1' * 5000} 1\n0 5\n")
    assert main(["segment", str(bad)]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"rlseg: parse error: {bad}:1: Exceeds the limit (4300 digits)")


def test_rle_row_token_past_the_int_digit_limit_exits_4(tmp_path, capsys):
    bad = tmp_path / "long.rle"
    bad.write_text(f"RLE1 5 2\n0 5\n{'1' * 5000}\n")
    assert main(["segment", str(bad)]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"rlseg: parse error: {bad}:3: Exceeds the limit (4300 digits)")


def test_huge_declared_p1_raster_exits_4(tmp_path, capsys):
    # the P1 reader sizes its pixel buffer by the file, not by the header
    pbm = tmp_path / "huge.pbm"
    pbm.write_text("P1\n1000000 1000000\n0 1\n")
    assert main(["encode", str(pbm), str(tmp_path / "huge.rle")]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "truncated P1 raster: 2 of 1000000000000 pixels" in err


def test_long_malformed_row_gives_a_short_error(tmp_path, monkeypatch, capsys):
    n = 500_000
    monkeypatch.chdir(tmp_path)
    Path("bad.rle").write_text(f"RLE1 {n} 1\n{' '.join(['1'] * n)} x\n")
    assert main(["segment", "bad.rle"]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert len(err.encode()) < 200
    assert err.startswith("rlseg: parse error: bad.rle:2: malformed run list '1 1 1")
    assert err.endswith(f"... ({2 * n + 1} characters)\n")


@pytest.mark.parametrize(
    "text,detail",
    [
        ('{"line_id": "a", "words": [[0, 3]]}\n\n{"line_id": ', ":3: not JSON: "),
        ("{}\n" + "[" * 100_000, ":2: not JSON: maximum recursion depth exceeded"),
        (
            '{"line_id": "a", "words": [[0, 1' + "0" * 5000 + "]]}",
            ":1: not JSON: Exceeds the limit",
        ),
        ('{"words": [[0, 3]]}', ":1: bad predictions: record has no 'line_id' field"),
        (
            '{"line_id": "a", "words": [[0, 3]]}\n\n{"words": [[5, 8]]}\n{}',
            ":3: bad predictions: record has no 'line_id' field",
        ),
        ("1\n2", ":1: bad predictions: record is int, not an object"),
        (
            '[{"line_id": "a", "words": [[0, 3]]}]',
            ":1: bad predictions: record is list, not an object",
        ),
        (
            '{"line_id": "a", "words": [0, 3]}',
            ":1: bad predictions: line a: 'words' is not a list of [start, end] integer pairs",
        ),
        (
            '{"line_id": "a", "words": [[0, 3, 5]]}',
            ":1: bad predictions: line a: 'words' is not a list of [start, end] integer pairs",
        ),
        (
            '{"line_id": "a", "words": [[5, 3]]}',
            ":1: bad predictions: line a: 'words' interval [5, 3] is inverted",
        ),
        (
            '{"line_id": "a", "words": [[-5, 5]]}',
            ":1: bad predictions: line a: 'words' interval 0 [-5, 5] has a bound below 0",
        ),
        # a line_id is never converted: 5 must not score as truth line "5"
        (
            '{"line_id": 5, "words": [[0, 5]]}',
            ":1: bad predictions: line_id 5 is not a string",
        ),
        (
            '{"line_id": null, "words": [[0, 5]]}',
            ":1: bad predictions: line_id None is not a string",
        ),
        # the file line is named, not the record's index among non-empty lines
        (
            '{"line_id": "a", "words": [[0, 3]]}\n\n[1,2]',
            ":3: bad predictions: record is list, not an object",
        ),
        (
            '{"line_id": "a", "words": [[0, 3]]}\n\n{"line_id": 5, "words": []}',
            ":3: bad predictions: line_id 5 is not a string",
        ),
        (
            '{"line_id": "a", "words": [[0, 3]]}\n\n{"line_id": "b", "words": [[0, 3.5]]}',
            ":3: bad predictions: line b: 'words' is not a list of [start, end] integer pairs",
        ),
        # two records of one line: the second overlaps the first's interval
        (
            '{"line_id": "a", "words": [[0, 3]]}\n\n{"line_id": "a", "words": [[3, 8]]}',
            ":3: bad predictions: line a: 'words' intervals overlap or are unsorted at [3, 8]",
        ),
    ],
    ids=[
        "not_json", "too_deep", "too_long_int", "no_line_id", "no_line_id_on_line_3",
        "not_objects", "not_a_list",
        "not_pairs", "triple", "inverted", "negative_bound", "int_line_id", "null_line_id",
        "list_on_line_3", "int_line_id_on_line_3", "float_bound_on_line_3", "overlap_on_line_3",
    ],
)
def test_evaluate_bad_predictions_exit_4(tmp_path, corpus, capsys, text, detail):
    pred = tmp_path / "pred.json"
    pred.write_text(text)
    assert main(["evaluate", str(pred), str(corpus / "ground_truth.json")]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"rlseg: parse error: {pred}{detail}")
    assert err.count("\n") == 1


_NOT_PAIRS = "ValueError(\"record 0: line a: 'words' is not a list of [start, end] integer pairs\")"


@pytest.mark.parametrize(
    "text,detail",
    [
        ("[{", ":1: bad ground truth: JSONDecodeError("),
        ("[" * 100_000, ":0: bad ground truth: RecursionError("),
        (
            '[{"line_id": "a"}]',
            ":0: bad ground truth: ValueError(\"record 0: record has no 'words' field\")",
        ),
        ("[1,2]", ":0: bad ground truth: ValueError('record 0: record is int, not an object')"),
        (
            '{"line_id": "a", "words": [[0, 5]]}',
            ":0: bad ground truth: ValueError('expected a list of records, got dict')",
        ),
        (
            '[{"line_id": "a", "words": [[0, 5]]}, 7]',
            ":0: bad ground truth: ValueError('record 1: record is int, not an object')",
        ),
        # bounds and ids are checked as predictions are, never converted:
        # [0, 5.9] must not score as [0, 5]
        ('[{"line_id": "a", "words": [[0, 5.9]]}]', f":0: bad ground truth: {_NOT_PAIRS}"),
        ('[{"line_id": "a", "words": [[0, true]]}]', f":0: bad ground truth: {_NOT_PAIRS}"),
        ('[{"line_id": "a", "words": [[0, "8"]]}]', f":0: bad ground truth: {_NOT_PAIRS}"),
        (
            '[{"line_id": "a", "words": [[0, 8]], "chars": [[[0, 2.5]]]}]',
            ":0: bad ground truth: ValueError(\"record 0: line a: 'chars' word 0 is not a list of",
        ),
        (
            '[{"line_id": "a", "words": [[0, 8]], "chars": 5}]',
            ":0: bad ground truth: ValueError(\"record 0: line a: 'chars' is not a list of "
            'words")',
        ),
        ('[{"line_id": 7, "words": [[0, 8]]}]',
         ":0: bad ground truth: ValueError('record 0: line_id 7 is not a string')"),
        (
            '[{"line_id": "a", "words": [[-5, 5]]}]',
            ":0: bad ground truth: ValueError(\"record 0: line a: 'words' interval 0 [-5, 5] "
            'has a bound below 0")',
        ),
        # a repeated line would score its predictions twice
        (
            '[{"line_id": "a", "words": [[0, 5]]}, {"line_id": "a", "words": [[0, 5]]}]',
            ":0: bad ground truth: ValueError(\"record 1: line_id 'a' appears more than once\")",
        ),
        # one char list per word, each char inside its word
        (
            '[{"line_id": "a", "words": [[0, 5], [8, 12]], "chars": [[[0, 5]]]}]',
            ":0: bad ground truth: ValueError(\"record 0: line a: 'chars' has 1 words, "
            "'words' 2\")",
        ),
        (
            '[{"line_id": "a", "words": [[0, 5]], "chars": [[[0, 2], [4, 6]]]}]',
            ":0: bad ground truth: ValueError(\"record 0: line a: 'chars' word 0 [4, 6] is outside "
            '[0, 5]")',
        ),
    ],
    ids=[
        "not_json", "too_deep", "no_words", "not_objects", "top_level_object", "int_record",
        "float_bound", "bool_bound", "string_bound", "float_char_bound", "int_chars",
        "int_line_id", "negative_bound", "repeated_line_id", "chars_per_word", "char_outside_word",
    ],
)
def test_evaluate_bad_truth_exit_4(tmp_path, corpus, capsys, text, detail):
    words = tmp_path / "w.json"
    assert main(["segment", str(corpus / "manifest.txt"), "--out", str(words)]) == 0
    truth = tmp_path / "truth.json"
    truth.write_text(text)
    assert main(["evaluate", str(words), str(truth)]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"rlseg: parse error: {truth}{detail}")
    assert err.count("\n") == 1


def test_evaluate_bad_truth_json_names_its_line(tmp_path, corpus, capsys):
    # the decoder's line, not 0: a comma missing at the end of line 3
    words = tmp_path / "w.json"
    assert main(["segment", str(corpus / "manifest.txt"), "--out", str(words)]) == 0
    truth = tmp_path / "truth.json"
    truth.write_text('[\n {"line_id": "a",\n  "words": [[0, 5]]}\n {"line_id": "b"}\n]\n')
    assert main(["evaluate", str(words), str(truth)]) == 4
    err = capsys.readouterr().err
    assert err.startswith(
        f"rlseg: parse error: {truth}:4: bad ground truth: JSONDecodeError(\"Expecting ',' "
    )
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "mode,truth_text,detail",
    [
        (
            "word",
            '[{"line_id": "line0000", "words": [[40, 50], [0, 3]]}]',
            ":0: bad ground truth: ValueError(\"record 0: line line0000: 'words' intervals "
            'overlap or are unsorted at [0, 3]")',
        ),
        (
            "word",
            '[{"line_id": "line0000", "words": [[0, 3], [9, 5]]}]',
            ":0: bad ground truth: ValueError(\"record 0: line line0000: 'words' interval [9, 5] "
            'is inverted")',
        ),
        (
            "char",
            '[{"line_id": "line0000", "words": [[0, 3]]}]',
            ":0: bad ground truth: ValueError('ground truth line line0000 has no chars')",
        ),
        (
            "char",
            '[{"line_id": "line0000", "words": [[0, 5], [8, 12]], '
            '"chars": [[[0, 2], [3, 8]], [[8, 12]]]}]',
            ":0: bad ground truth: ValueError(\"record 0: line line0000: 'chars' word 1 intervals "
            'overlap or are unsorted at [8, 12]")',
        ),
    ],
    ids=["unsorted", "inverted", "no_chars", "chars_overlap_across_words"],
)
def test_evaluate_truth_value_errors_name_the_truth_file(
    tmp_path, corpus, capsys, mode, truth_text, detail
):
    pred = tmp_path / "pred.json"
    segment_mode = "words" if mode == "word" else "chars"
    assert main(["segment", str(corpus / "manifest.txt"), "--mode", segment_mode,
                 "--out", str(pred)]) == 0
    truth = tmp_path / "truth.json"
    truth.write_text(truth_text)
    assert main(["evaluate", str(pred), str(truth), "--mode", mode]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"rlseg: parse error: {truth}{detail}")
    assert err.count("\n") == 1


def test_evaluate_overlap_out_of_range_exits_1(tmp_path, corpus, capsys):
    truth = corpus / "ground_truth.json"
    assert main(["evaluate", str(truth), str(truth), "--overlap", "1.5"]) == 1
    assert capsys.readouterr().err == (
        "rlseg: error: --overlap: overlap must be in (0, 1], got 1.5\n"
    )


def test_render_bad_segmentation_exits_4(tmp_path, corpus, capsys):
    seg = tmp_path / "seg.json"
    seg.write_text('{"line_id": "x"}\nnot json\n')
    first = sorted((corpus / "lines").glob("*.rle"))[0]
    assert main(["render", str(first), str(seg), str(tmp_path / "ov.pbm")]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"rlseg: parse error: {seg}:2: not JSON: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "text,detail",
    [
        ("1\n2", ":1: bad record: AttributeError("),
        ('{"line_id": "STEM", "separators": [{}]}', ":1: bad record: KeyError('x')"),
        ('{"line_id": "STEM", "separators": [{"x": WIDTH}]}',
         ":1: separator x WIDTH is not an int in [0, WIDTH)\n"),
        ('{"line_id": "STEM", "separators": [{"x": 2}, {"x": -1}]}',
         ":1: separator x -1 is not an int in [0, WIDTH)\n"),
        ('{"line_id": "STEM", "separators": [{"x": 1.5}]}',
         ":1: separator x 1.5 is not an int in [0, WIDTH)\n"),
        ('{"line_id": "STEM", "separators": [{"x": "1"}]}',
         ':1: separator x "1" is not an int in [0, WIDTH)\n'),
        ('{"line_id": "STEM", "separators": [{"x": true}]}',
         ":1: separator x true is not an int in [0, WIDTH)\n"),
        # the bad record is on line 3, after good records of this line and another
        ('{"line_id": "STEM", "separators": [{"x": 1}]}\n\n'
         '{"line_id": "other", "separators": [{"x": -7}]}\n'
         '{"line_id": "STEM", "separators": [{"x": -1}]}',
         ":4: separator x -1 is not an int in [0, WIDTH)\n"),
        ('{"line_id": "STEM", "separators": [{"x": 1}]}\n{"line_id": "x"}\n[]',
         ":3: bad record: AttributeError("),
        ('{"line_id": "STEM", "separators": [{"x": 1}]}\n{"line_id": "x"}\n'
         '{"line_id": "STEM", "separators": [{"x": 2}, {"x": WIDTH}]}',
         ":3: separator x WIDTH is not an int in [0, WIDTH)\n"),
    ],
    ids=[
        "not_objects", "no_x", "x_at_width", "x_negative", "x_float", "x_string", "x_bool",
        "x_negative_on_line_4", "not_object_on_line_3", "x_at_width_on_line_3",
    ],
)
def test_render_bad_records_exit_4(tmp_path, corpus, capsys, text, detail):
    first = sorted((corpus / "lines").glob("*.rle"))[0]
    width = str(read_rle(first).width)
    seg = tmp_path / "seg.json"
    seg.write_text(text.replace("STEM", first.stem).replace("WIDTH", width))
    assert main(["render", str(first), str(seg), str(tmp_path / "ov.pbm")]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"rlseg: parse error: {seg}{detail.replace('WIDTH', width)}")
    assert err.count("\n") == 1


def test_non_utf8_manifest_and_config_exit_4(tmp_path, corpus, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"line\xff.rle\n")
    assert main(["segment", str(bad)]) == 4
    assert capsys.readouterr().err.startswith(f"rlseg: parse error: {bad}:0: not UTF-8: ")
    manifest = str(corpus / "manifest.txt")
    for argv in (
        ["segment", manifest],
        ["evaluate", manifest, manifest],
        ["bench", manifest],
        ["synth", "--out", str(tmp_path / "s")],
    ):
        assert main(argv + ["--config", str(bad)]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"rlseg: parse error: {bad}:0: not UTF-8: ")
        assert err.count("\n") == 1


@pytest.mark.parametrize(
    "files,argv,detail",
    [
        (
            {"bad.cfg": b"# settings\nthreshold auto\n"},
            ["segment", "MANIFEST", "--config", "bad.cfg"],
            "bad.cfg:2: expected key=value, got 'threshold auto'",
        ),
        ({"empty/notes.txt": b""}, ["segment", "empty"], "empty:0: directory contains no .rle files"),
        ({"list.txt": b"\n  \n"}, ["bench", "list.txt"], "list.txt:0: manifest lists no files"),
        (
            {"zero.pbm": b"P1\n0 1\n"},
            ["encode", "zero.pbm", "out.rle"],
            "zero.pbm:1: width and height must be >= 1, got 0x1",
        ),
        (
            {"flat.pbm": b"P4\n8 0\n"},
            ["encode", "flat.pbm", "out.rle"],
            "flat.pbm:1: width and height must be >= 1, got 8x0",
        ),
        (
            {"p4.pbm": b"P4 8 1\x00"},
            ["encode", "p4.pbm", "out.rle"],
            "p4.pbm:1: expected whitespace after P4 header",
        ),
    ],
    ids=["config_line_without_equals", "directory_without_rle", "empty_manifest",
         "pbm_width_0", "pbm_height_0", "p4_header_then_nul"],
)
def test_bad_input_exits_4_with_one_line(
    tmp_path, corpus, capsys, monkeypatch, files, argv, detail
):
    monkeypatch.chdir(tmp_path)
    for name, data in files.items():
        Path(name).parent.mkdir(exist_ok=True)
        Path(name).write_bytes(data)
    argv = [str(corpus / "manifest.txt") if arg == "MANIFEST" else arg for arg in argv]
    assert main(argv) == 4
    assert capsys.readouterr().err == f"rlseg: parse error: {detail}\n"
    assert not Path("out.rle").exists()


@pytest.mark.parametrize("command", ["segment", "bench"])
def test_manifest_repeating_a_line_id_exits_4(tmp_path, corpus, capsys, command):
    # the line_id is the file's stem: a/x.rle and b/x.rle would both be line x
    first = sorted((corpus / "lines").glob("*.rle"))[0]
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "x.rle").write_bytes(first.read_bytes())
    manifest, out = tmp_path / "manifest.txt", tmp_path / "out"
    manifest.write_text("a/x.rle\n\n b/x.rle\n")
    assert main([command, str(manifest), "--out", str(out)]) == 4
    detail = "'b/x.rle' repeats line_id 'x' of an earlier entry"
    assert capsys.readouterr().err == f"rlseg: parse error: {manifest}:3: {detail}\n"
    assert not out.exists()


def test_usage_error_exits_1():
    with pytest.raises(SystemExit) as err:
        main(["segment"])  # missing input path
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 1


def _run_setting_case(tmp_path, corpus, capsys, argv, config):
    """Run argv with MANIFEST, TRUTH, PRED (the corpus's word segmentation) and
    OUT filled in and, if given, a config file holding config; return the exit
    code and stderr."""
    names = {
        "MANIFEST": str(corpus / "manifest.txt"),
        "TRUTH": str(corpus / "ground_truth.json"),
        "PRED": str(tmp_path / "pred.json"),
        "OUT": str(tmp_path / "out"),
    }
    if "PRED" in argv:
        assert main(["segment", names["MANIFEST"], "--out", names["PRED"]]) == 0
    argv = [names.get(a, a) for a in argv]
    if config is not None:
        (tmp_path / "bad.conf").write_text(config + "\n")
        argv += ["--config", str(tmp_path / "bad.conf")]
    code = main(argv)
    return code, capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,config,source",
    [
        (["segment", "MANIFEST", "--roi-t", "0.7"], None, "--roi-t"),
        (["segment", "MANIFEST", "--alpha", "1.5"], None, "--alpha"),
        (["segment", "MANIFEST"], "alpha=abc", "CONFIG: alpha"),
        (["segment", "MANIFEST"], "threshold=bogus", "CONFIG: threshold"),
        (["synth", "--out", "OUT"], "seed=x", "CONFIG: seed"),
        (["bench", "MANIFEST", "--repeat", "0"], None, "--repeat"),
        (["synth", "--out", "OUT", "--lines", "0"], None, "--lines"),
        (["evaluate", "TRUTH", "TRUTH", "--overlap", "2"], None, "--overlap"),
        (["evaluate", "TRUTH", "TRUTH"], "overlap=0", "CONFIG: overlap"),
        # a flag value that does not convert: one line, not argparse's usage block
        (["evaluate", "TRUTH", "TRUTH", "--overlap", "abc"], None, "--overlap"),
        (["synth", "--out", "OUT", "--lines", "abc"], None, "--lines"),
        (["synth", "--out", "OUT", "--words-per-line", "abc"], None, "--words-per-line"),
        (["synth", "--out", "OUT", "--inter-gap", "abc"], None, "--inter-gap"),
        (["synth", "--out", "OUT", "--intra-gap", "abc"], None, "--intra-gap"),
        (["synth", "--out", "OUT", "--touch-rate", "abc"], None, "--touch-rate"),
        (["synth", "--out", "OUT", "--seed", "abc"], None, "--seed"),
        (["bench", "MANIFEST", "--repeat", "abc"], None, "--repeat"),
        # every command checks every key of its config file, used or not
        (["synth", "--out", "OUT"], "alpha=abc", "CONFIG: alpha"),
        (["synth", "--out", "OUT"], "alpha=5", "CONFIG: alpha"),
        (["synth", "--out", "OUT"], "threshold=bogus", "CONFIG: threshold"),
        (["evaluate", "PRED", "TRUTH"], "alpha=abc", "CONFIG: alpha"),
        (["evaluate", "PRED", "TRUTH"], "alpha=5", "CONFIG: alpha"),
        (["evaluate", "PRED", "TRUTH"], "threshold=bogus", "CONFIG: threshold"),
        (["synth", "--out", "OUT"], "overlap=5", "CONFIG: overlap"),
        (["segment", "MANIFEST"], "overlap=5", "CONFIG: overlap"),
        (["bench", "MANIFEST"], "overlap=5", "CONFIG: overlap"),
        # ... also where a flag overrides the bad key
        (["segment", "MANIFEST", "--alpha", "0.5"], "alpha=abc", "CONFIG: alpha"),
    ],
    ids=[
        "roi_t", "alpha", "config_alpha", "config_threshold", "config_seed", "repeat", "lines",
        "overlap", "config_overlap", "overlap_abc", "lines_abc", "words_per_line_abc",
        "inter_gap_abc", "intra_gap_abc", "touch_rate_abc", "seed_abc", "repeat_abc",
        "synth_config_alpha_abc", "synth_config_alpha_range", "synth_config_threshold",
        "evaluate_config_alpha_abc", "evaluate_config_alpha_range", "evaluate_config_threshold",
        "synth_config_overlap", "segment_config_overlap", "bench_config_overlap",
        "config_alpha_under_flag",
    ],
)
def test_bad_setting_exits_1_with_one_line(tmp_path, corpus, capsys, argv, config, source):
    code, err = _run_setting_case(tmp_path, corpus, capsys, argv, config)
    assert code == 1
    assert err.startswith(f"rlseg: error: {source.replace('CONFIG', str(tmp_path / 'bad.conf'))}: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err and "usage:" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["segment", "MANIFEST", "--mode", "chars", "--out", "OUT"],
        ["bench", "MANIFEST", "--out", "OUT"],
        ["evaluate", "TRUTH", "TRUTH", "--out", "OUT"],
        ["synth", "--out", "OUT"],
    ],
    ids=["segment", "bench", "evaluate", "synth"],
)
def test_unknown_config_key_exits_4_naming_its_line(tmp_path, corpus, capsys, argv):
    # a misspelled key is an error, not ignored: roi-t would leave t at 0.2
    code, err = _run_setting_case(tmp_path, corpus, capsys, argv, "beta=1.1\nroi-t = 0.45")
    detail = "unknown key 'roi-t'; keys: threshold, roi_t, alpha, beta, overlap, seed"
    assert code == 4
    assert err == f"rlseg: parse error: {tmp_path / 'bad.conf'}:2: {detail}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["decode", "render", "bench"])
def test_pixels_out_of_memory_exit_1_naming_the_file(
    tmp_path, corpus, capsys, monkeypatch, command
):
    # decode fails as NumPy does on a line too wide to hold, such as
    # "RLE1 10000000000000 2"; the line here is small, so nothing is allocated
    # even if a patch missed
    def no_memory(line):
        raise MemoryError("Unable to allocate 18.2 TiB for an array")

    def run(line):
        argv = {
            "decode": ["decode", str(line), str(out)],
            "render": ["render", str(line), str(seg), str(out)],
            "bench": ["bench", str(line), "--out", str(out)],
        }[command]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"rlseg: {line}: its decoded pixels do not fit in memory\n"
        assert not out.exists()

    for module in (rlseg.cli, rlseg.render, rlseg.bench):
        monkeypatch.setattr(module, "decode", no_memory)
    seg, out = tmp_path / "seg.json", tmp_path / "out"
    seg.write_text("")
    run(sorted((corpus / "lines").glob("*.rle"))[0])
    # past NumPy's largest array (2**63 - 1 elements) decode itself raises
    # MemoryError, before allocating anything
    monkeypatch.undo()
    for width, height in ((2**62, 4), (10**30, 1)):
        line = tmp_path / f"huge_{height}.rle"
        line.write_text(f"RLE1 {width} {height}\n" + f"0 5 {width - 5}\n" * height)
        run(line)


@pytest.mark.parametrize(
    "argv,config,source",
    [
        (["--threshold", "fixed:nan"], None, "--threshold"),
        (["--threshold", "fixed:inf"], None, "--threshold"),
        (["--threshold", "scale:inf"], None, "--threshold"),
        (["--threshold", "scale:1e308"], None, "--threshold"),  # mean gap x 1e308 overflows
        (["--beta", "inf"], None, "--beta"),
        ([], "threshold=scale:1e308", "CONFIG: threshold"),
    ],
    ids=["fixed_nan", "fixed_inf", "scale_inf", "scale_overflow", "beta_inf", "config_overflow"],
)
@pytest.mark.parametrize("mode", ["words", "chars"])
def test_non_finite_setting_exits_1_and_writes_nothing(
    tmp_path, corpus, capsys, argv, config, source, mode
):
    argv = ["segment", "MANIFEST", "--mode", mode, "--out", "OUT"] + argv
    code, err = _run_setting_case(tmp_path, corpus, capsys, argv, config)
    assert code == 1
    assert err.startswith(f"rlseg: error: {source.replace('CONFIG', str(tmp_path / 'bad.conf'))}: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("threshold", [None, "scale:2", "fixed:1"])
@pytest.mark.parametrize("mode", ["words", "chars"])
def test_gap_too_wide_for_a_float_mean(tmp_path, capsys, threshold, mode):
    # a mean gap past the largest float is a non-finite threshold: one line, exit 1;
    # a fixed threshold takes no mean and cuts the line exactly
    width = 10**400
    line = tmp_path / "huge.rle"
    line.write_text(f"RLE1 {width} 1\n0 1 {width - 2} 1\n")
    argv = ["segment", str(line), "--mode", mode, "--out", str(tmp_path / "out")]
    code = main(argv + (["--threshold", threshold] if threshold else []))
    err = capsys.readouterr().err
    if threshold == "fixed:1":
        assert (code, err) == (0, "")
        records = _records((tmp_path / "out").read_text())
        assert [iv for rec in records for iv in rec[mode]] == [[0, 0], [width - 1, width - 1]]
    else:
        assert code == 1
        assert err.startswith("rlseg: error: --threshold: ") and "not finite" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()


def test_bench_csv(tmp_path, corpus, capsys):
    assert main(["bench", str(corpus / "manifest.txt"), "--repeat", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("file,")
    assert lines[-1].startswith("TOTAL,")
    assert len(lines) == 2 + 4  # header + rows + total


def test_bench_out_file_holds_the_stdout_rows(tmp_path, corpus, capsys):
    manifest, table = str(corpus / "manifest.txt"), tmp_path / "t.csv"
    assert main(["bench", manifest, "--out", str(table)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["bench", manifest]) == 0
    printed = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    data = table.read_bytes()
    assert b"\r\n" not in data
    text = data.decode()
    assert text.split("\n", 1)[0].split(",") == rlseg.bench.CSV_COLUMNS
    written = list(csv.DictReader(io.StringIO(text)))
    names = [Path(name).name for name in (corpus / "manifest.txt").read_text().split()]
    assert [row["file"] for row in written] == [*names, "TOTAL"]
    # the timings differ between the two runs; everything else is the same
    same = ("file", "width", "height", "runs", "compression_ratio", "cdp_work", "pdp_work")
    assert [[row[c] for c in same] for row in written] == [[row[c] for c in same] for row in printed]


def test_render_marks_separators(tmp_path, corpus):
    words = tmp_path / "w.json"
    assert main(["segment", str(corpus / "manifest.txt"), "--out", str(words)]) == 0
    first = sorted((corpus / "lines").glob("*.rle"))[0]
    out = tmp_path / "ov.pbm"
    assert main(["render", str(first), str(words), str(out)]) == 0
    rec = next(
        r for r in _records(words.read_text()) if r["line_id"] == first.stem
    )
    rendered = read_pbm(out)
    for sep in rec["separators"]:
        assert rendered.pixels[:, sep["x"] + 1].all()


def test_synth_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["synth", "--out", str(a), "--lines", "2", "--seed", "7"]) == 0
    assert main(["synth", "--out", str(b), "--lines", "2", "--seed", "7"]) == 0
    for pa in sorted(a.rglob("*")):
        if pa.is_file():
            pb = b / pa.relative_to(a)
            assert pa.read_bytes() == pb.read_bytes()


@pytest.mark.parametrize(
    "command,defaults",
    [
        ("segment", ["auto", "0.2", "0.33", "1.75"]),
        ("evaluate", ["0.9"]),
        ("bench", ["auto", "0.2", "0.33", "1.75", "1"]),
        ("synth", ["20", "4", "12", "3", "0.0", "0"]),
    ],
)
def test_help_shows_each_default(capsys, command, defaults):
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"])
    assert exit_.value.code == 0
    text = " ".join(capsys.readouterr().out.split())  # argparse wraps help lines
    assert re.findall(r"\(default ([^)]*)\)", text) == defaults


def test_synth_defaults_are_synth_configs(tmp_path):
    # the CLI reads its defaults from SynthConfig, so the two cannot drift apart
    cli, lib = tmp_path / "cli", tmp_path / "lib"
    assert main(["synth", "--out", str(cli)]) == 0
    write_corpus(SynthConfig(), lib)
    files = sorted(p.relative_to(lib) for p in lib.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(cli) for p in cli.rglob("*") if p.is_file())
    assert all((cli / f).read_bytes() == (lib / f).read_bytes() for f in files)


def test_config_file_with_flag_override(tmp_path, corpus):
    cfg = tmp_path / "rlseg.conf"
    cfg.write_text("threshold=fixed:1\nroi_t=0.1\n")
    out_cfg = tmp_path / "a.json"
    out_flag = tmp_path / "b.json"
    manifest = str(corpus / "manifest.txt")
    assert main(["segment", manifest, "--config", str(cfg), "--out", str(out_cfg)]) == 0
    # fixed:1 splits at every gap > 1, so more words than auto
    assert (
        main(
            [
                "segment", manifest, "--config", str(cfg),
                "--threshold", "auto", "--out", str(out_flag),
            ]
        )
        == 0
    )
    n_cfg = sum(len(r["words"]) for r in _records(out_cfg.read_text()))
    n_flag = sum(len(r["words"]) for r in _records(out_flag.read_text()))
    assert _records(out_cfg.read_text())[0]["threshold"] == 1.0
    assert n_cfg > n_flag


def test_segment_stdout(tmp_path, corpus, capsys):
    first = sorted((corpus / "lines").glob("*.rle"))[0]
    assert main(["segment", str(first)]) == 0
    records = _records(capsys.readouterr().out)
    assert records[0]["line_id"] == first.stem


def test_closed_stdout_exits_quietly(corpus):
    # The reader takes 100 bytes and closes the pipe. The pipe holds one page,
    # less than segment writes, so the write fails on the closed pipe.
    read, write = os.pipe()
    fcntl.fcntl(write, fcntl.F_SETPIPE_SZ, 4096)
    src = str(Path(rlseg.cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = [sys.executable, "-m", "rlseg.cli", "segment", str(corpus / "manifest.txt")]
    proc = subprocess.Popen(
        [*argv, "--mode", "chars"], stdout=write, stderr=subprocess.PIPE, env=env
    )
    os.close(write)
    with os.fdopen(read, "rb") as out:
        assert len(out.read(100)) == 100
    _, err = proc.communicate(timeout=120)
    assert err == b""
    assert proc.returncode == EXIT_PIPE
