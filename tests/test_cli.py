"""CLI behavior: subcommands, exit codes, config handling, schemas."""

import json
import tracemalloc
from pathlib import Path

import jsonschema
import pytest

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
from rlseg.cli import main
from rlseg.rle import RleRow

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "docs" / "schemas"


def _schema(name):
    return json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())


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
    records = json.loads(out.read_text())
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
    records = json.loads(out.read_text())
    schema = _schema("char_record")
    for rec in records:
        jsonschema.validate(rec, schema)


def test_segment_directory_input(tmp_path, corpus):
    out = tmp_path / "w.json"
    assert main(["segment", str(corpus / "lines"), "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())) == 4


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
GOLDEN_WORDS = """[
 {
  "version": 2,
  "line_id": "g",
  "words": [
   [
    0,
    5
   ],
   [
    12,
    15
   ]
  ],
  "separators": [
   {
    "x": 8,
    "runs": [
     4,
     4,
     6
    ]
   }
  ],
  "threshold": 3.5
 }
]
"""
GOLDEN_CHARS = """[
 {
  "version": 2,
  "line_id": "g",
  "word_id": "g:w0",
  "chars": [
   [
    0,
    2
   ],
   [
    4,
    5
   ]
  ],
  "separators": [
   {
    "x": 3,
    "runs": [
     2,
     2,
     4
    ]
   }
  ],
  "repairs": [],
  "params": {
   "t": 0.2,
   "alpha": 0.33,
   "beta": 1.75
  }
 },
 {
  "version": 2,
  "line_id": "g",
  "word_id": "g:w1",
  "chars": [
   [
    13,
    13
   ],
   [
    15,
    15
   ]
  ],
  "separators": [
   {
    "x": 14,
    "runs": [
     6,
     5,
     8
    ]
   }
  ],
  "repairs": [],
  "params": {
   "t": 0.2,
   "alpha": 0.33,
   "beta": 1.75
  }
 }
]
"""


def _segment_golden(tmp_path):
    line = tmp_path / "g.rle"
    line.write_text(GOLDEN_RLE)
    outs = {}
    for mode in ("words", "chars"):
        outs[mode] = tmp_path / f"{mode}.json"
        assert main(["segment", str(line), "--mode", mode, "--out", str(outs[mode])]) == 0
    return line, outs


def test_segment_v2_golden_bytes(tmp_path):
    _, outs = _segment_golden(tmp_path)
    assert outs["words"].read_text() == GOLDEN_WORDS
    assert outs["chars"].read_text() == GOLDEN_CHARS


@pytest.mark.parametrize("mode,schema", [("words", "word_record"), ("chars", "char_record")])
def test_v2_schema_rejects_v1_records(tmp_path, mode, schema):
    _, outs = _segment_golden(tmp_path)
    schema = _schema(schema)
    rec = json.loads(outs[mode].read_text())[0]
    jsonschema.validate(rec, schema)
    pairs = json.loads(json.dumps(rec))
    for sep in pairs["separators"]:
        sep["runs"] = [[r, j] for r, j in enumerate(sep["runs"])]
    unversioned = {k: v for k, v in rec.items() if k != "version"}
    for bad in (pairs, unversioned, {**rec, "version": 1}):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(bad, schema)


def test_evaluate_and_render_read_v2_segment_files(tmp_path):
    line, outs = _segment_golden(tmp_path)
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps(GOLDEN_TRUTH))
    for mode, seg in (("word", outs["words"]), ("char", outs["chars"])):
        assert all(rec["version"] == 2 for rec in json.loads(seg.read_text()))
        report = tmp_path / f"{mode}_report.json"
        args = ["evaluate", str(seg), str(truth), "--mode", mode, "--out", str(report)]
        assert main(args) == 0
        assert json.loads(report.read_text())["ar"] == 100.0
        overlay_path = tmp_path / f"{mode}.pbm"
        assert main(["render", str(line), str(seg), str(overlay_path)]) == 0
        xs = [sep["x"] for rec in json.loads(seg.read_text()) for sep in rec["separators"]]
        expected = decode(read_rle(line)).pixels.copy()
        expected[:, xs] = 1
        assert (read_pbm(overlay_path).pixels[1:-1, 1:-1] == expected).all()


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
    rep = json.loads(report.read_text())
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
    records = json.loads(out.read_text())
    assert len(records) == 1  # one word
    assert records[0]["chars"] == [[1, 2]]  # one char
    assert records[0]["separators"] == []


def test_blank_line_exits_2(tmp_path):
    blank = tmp_path / "blank.rle"
    write_rle(RleImage(8, (RleRow((8,)), RleRow((8,)))), blank)
    assert main(["segment", str(blank)]) == 2


def test_blank_line_in_directory_names_the_file(tmp_path, corpus, capsys):
    lines = corpus / "lines"
    write_rle(RleImage(8, (RleRow((8,)), RleRow((8,)))), lines / "zz_blank.rle")
    for mode in ("words", "chars"):
        assert main(["segment", str(lines), "--mode", mode]) == 2
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
    records = json.loads(capsys.readouterr().out)
    assert records[0]["words"] == [[0, 299999999]]
    assert records[0]["separators"] == []


def test_huge_declared_width_ink_line_is_one_char(tmp_path, capsys):
    line = tmp_path / "huge.rle"
    line.write_text("RLE1 300000000 1\n0 300000000\n")
    assert main(["segment", str(line), "--mode", "chars"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert [r["chars"] for r in records] == [[[0, 299999999]]]
    assert records[0]["separators"] == []


def test_huge_declared_width_tall_ink_line_is_one_char(tmp_path, capsys):
    # three all-ink rows: the ROI keeps all three, so the middle band has a row
    line = tmp_path / "huge.rle"
    line.write_text("RLE1 300000000 3\n" + "0 300000000\n" * 3)
    assert main(["segment", str(line), "--mode", "chars"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert [r["chars"] for r in records] == [[[0, 299999999]]]
    assert records[0]["separators"] == []


def test_word_memory_does_not_grow_with_width():
    width = 10**7
    # three words of two glyphs each, spread over the line, on four rows
    runs = (1000, 40, 5, 40, 3_000_000, 40, 5, 40, 3_000_000, 40, 5, 40)
    rows = tuple(RleRow(runs + (width - sum(runs),)) for _ in range(4))
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
    line = RleImage(10**7, (RleRow((0, 10**7)),))
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
    line = RleImage(10**7, (RleRow((0, 10**7)),) * 3)
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
        ("[{\"line_id\": ", ":1: not JSON: "),
        ('[{"words": [[0, 3]]}]', ":0: record has no 'line_id' field"),
        ("[1,2]", ":0: bad predictions: record 0 is int, not an object"),
        ("{}", ":0: bad predictions: expected a list of records, got dict"),
        (
            '[{"line_id": "a", "words": [0, 3]}]',
            ":0: bad predictions: record 0: 'words' is not a list of [start, end] integer pairs",
        ),
        (
            '[{"line_id": "a", "words": [[0, 3, 5]]}]',
            ":0: bad predictions: record 0: 'words' is not a list of [start, end] integer pairs",
        ),
        (
            '[{"line_id": "a", "words": [[5, 3]]}]',
            ":0: bad predictions: line a predicted interval [5, 3] is inverted",
        ),
    ],
    ids=["not_json", "no_line_id", "not_objects", "not_a_list", "not_pairs", "triple", "inverted"],
)
def test_evaluate_bad_predictions_exit_4(tmp_path, corpus, capsys, text, detail):
    pred = tmp_path / "pred.json"
    pred.write_text(text)
    assert main(["evaluate", str(pred), str(corpus / "ground_truth.json")]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"rlseg: parse error: {pred}{detail}")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "text,detail",
    [
        ("[{", ":0: bad ground truth: JSONDecodeError("),
        ('[{"line_id": "a"}]', ":0: bad ground truth: KeyError('words')"),
        ("[1,2]", ":0: bad ground truth: TypeError("),
    ],
    ids=["not_json", "no_words", "not_objects"],
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


@pytest.mark.parametrize(
    "mode,truth_text,detail",
    [
        (
            "word",
            '[{"line_id": "line0000", "words": [[40, 50], [0, 3]]}]',
            ":0: bad ground truth: ValueError('truth intervals overlap or are unsorted",
        ),
        (
            "char",
            '[{"line_id": "line0000", "words": [[0, 3]]}]',
            ":0: bad ground truth: ValueError('ground truth line line0000 has no chars')",
        ),
    ],
    ids=["unsorted", "no_chars"],
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
    assert capsys.readouterr().err == "rlseg: error: overlap must be in (0, 1], got 1.5\n"


def test_render_bad_segmentation_exits_4(tmp_path, corpus, capsys):
    seg = tmp_path / "seg.json"
    seg.write_text("not json\n")
    first = sorted((corpus / "lines").glob("*.rle"))[0]
    assert main(["render", str(first), str(seg), str(tmp_path / "ov.pbm")]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"rlseg: parse error: {seg}:1: not JSON: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "text,detail",
    [
        ("[1,2]", ":0: bad record: AttributeError("),
        ('[{"line_id": "STEM", "separators": [{}]}]', ":0: bad record: KeyError('x')"),
    ],
    ids=["not_objects", "no_x"],
)
def test_render_bad_records_exit_4(tmp_path, corpus, capsys, text, detail):
    first = sorted((corpus / "lines").glob("*.rle"))[0]
    seg = tmp_path / "seg.json"
    seg.write_text(text.replace("STEM", first.stem))
    assert main(["render", str(first), str(seg), str(tmp_path / "ov.pbm")]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"rlseg: parse error: {seg}{detail}")
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


def test_usage_error_exits_1():
    with pytest.raises(SystemExit) as err:
        main(["segment"])  # missing input path
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 1


def test_bench_csv(tmp_path, corpus, capsys):
    assert main(["bench", str(corpus / "manifest.txt"), "--repeat", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("file,")
    assert lines[-1].startswith("TOTAL,")
    assert len(lines) == 2 + 4  # header + rows + total


def test_render_marks_separators(tmp_path, corpus):
    words = tmp_path / "w.json"
    assert main(["segment", str(corpus / "manifest.txt"), "--out", str(words)]) == 0
    first = sorted((corpus / "lines").glob("*.rle"))[0]
    out = tmp_path / "ov.pbm"
    assert main(["render", str(first), str(words), str(out)]) == 0
    rec = next(
        r for r in json.loads(words.read_text()) if r["line_id"] == first.stem
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
    n_cfg = sum(len(r["words"]) for r in json.loads(out_cfg.read_text()))
    n_flag = sum(len(r["words"]) for r in json.loads(out_flag.read_text()))
    assert json.loads(out_cfg.read_text())[0]["threshold"] == 1.0
    assert n_cfg > n_flag


def test_segment_stdout(tmp_path, corpus, capsys):
    first = sorted((corpus / "lines").glob("*.rle"))[0]
    assert main(["segment", str(first)]) == 0
    records = json.loads(capsys.readouterr().out)
    assert records[0]["line_id"] == first.stem
