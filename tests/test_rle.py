"""Codec, run arithmetic and .rle file format."""

import random
import tracemalloc
from itertools import accumulate

import numpy as np
import pytest

from rlseg import (
    Bitmap,
    MalformedRleError,
    OutOfBoundsError,
    ParseError,
    RleImage,
    decode,
    encode,
    read_rle,
    write_rle,
)
from rlseg.rle import crop_columns, locate_run

from support import (
    brute_locate,
    brute_runs,
    decode_reference,
    encode_reference,
    random_bitmap,
)


def test_encode_all_background_row():
    rle = encode(Bitmap([[0, 0, 0, 0]]))
    assert rle.rows[0].runs == (4,)


def test_encode_leading_foreground_row():
    rle = encode(Bitmap([[1, 1, 0, 1]]))
    assert rle.rows[0].runs == (0, 2, 1, 1)


def test_decode_examples():
    assert decode(RleImage(4, ((4,),))) == Bitmap([[0, 0, 0, 0]])
    assert decode(RleImage(4, ((0, 2, 1, 1),))) == Bitmap([[1, 1, 0, 1]])


@pytest.mark.parametrize(
    "pixels",
    [
        # row 0's ink reaches the right edge and row 1's starts at column 0:
        # one flat offset is both a stop and a start
        [[0, 1, 1], [1, 1, 0]],
        [[1, 1], [1, 1], [1, 1]],  # all ink
        [[1, 1, 1], [0, 0, 0], [1, 1, 1], [0, 0, 0]],  # all-ink and all-blank rows
        [[0, 0], [0, 0]],  # all blank
        [[0]],
        [[1]],
        [[1], [0], [1], [1]],  # one column
    ],
)
def test_codec_edge_cases_match_the_references(pixels):
    bitmap = Bitmap(pixels)
    rle = encode(bitmap)
    reference = encode_reference(bitmap)
    assert rle.rows == reference.rows and rle == reference
    assert decode(rle) == bitmap == decode_reference(reference)


def test_encode_holds_only_its_spans_and_write_rle_keeps_no_rows(tmp_path):
    # a 2-D np.nonzero returns both axes as views of one buffer, and slices of
    # one flat array keep all of it alive: either holds more than the spans
    rng = np.random.default_rng(5)
    bitmap = Bitmap(rng.random((400, 2000)) < 0.1)
    tracemalloc.start()
    try:
        rle = encode(bitmap)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    spans = sum(a.nbytes for a in rle.spans)
    assert held <= spans + 4096, (held, spans)
    # writing a generated image must not leave its rows cached on it
    write_rle(rle, tmp_path / "big.rle")
    assert "rows" not in vars(rle)


def test_row_sum_mismatch_rejected():
    with pytest.raises(MalformedRleError):
        RleImage(4, ((2, 1),))


def test_row_width_mismatch_names_the_first_bad_row():
    rows = ((4,), (2, 1), (5,))
    with pytest.raises(MalformedRleError, match=r"^row 1: runs sum to 3, expected width 4$"):
        RleImage(4, rows)


def test_interior_zero_run_rejected():
    with pytest.raises(MalformedRleError, match=r"^row 0: only the leading background run may be 0$"):
        RleImage(4, ((2, 0, 2),))


def test_image_without_rows_rejected():
    with pytest.raises(MalformedRleError, match=r"^image needs at least one row$"):
        RleImage(3, [])


def test_roundtrip_random():
    rng = random.Random(101)
    for _ in range(300):
        bitmap = random_bitmap(rng)
        rle = encode(bitmap)
        assert decode(rle) == bitmap
        # canonical form: runs match an independent grouping of each row
        for r in range(bitmap.height):
            assert list(rle.rows[r].runs) == brute_runs(bitmap.pixels[r])


def test_cumulative_runs_examples():
    assert RleImage(4, ((0, 2, 1, 1),)).rows[0].ends == (0, 2, 3, 4)
    assert RleImage(4, ((4,),)).rows[0].ends == (4,)


def test_cumulative_runs_differencing():
    rng = random.Random(7)
    for _ in range(100):
        row = encode(random_bitmap(rng, max_h=1)).rows[0]
        cr = row.ends
        rebuilt = [cr[0]] + [cr[j] - cr[j - 1] for j in range(1, len(cr))]
        assert tuple(rebuilt) == row.runs
        assert cr[-1] == row.width


def test_locate_run_examples():
    row = RleImage(4, ((0, 2, 1, 1),)).rows[0]
    assert locate_run(row, 0) == 1
    assert locate_run(row, 2) == 2
    blank = RleImage(4, ((4,),)).rows[0]
    with pytest.raises(OutOfBoundsError):
        locate_run(blank, 4)
    with pytest.raises(OutOfBoundsError):
        locate_run(blank, -1)


def test_locate_run_matches_brute_force():
    rng = random.Random(13)
    for _ in range(100):
        bitmap = random_bitmap(rng, max_w=24, max_h=1)
        row = encode(bitmap).rows[0]
        for x in range(bitmap.width):
            assert locate_run(row, x) == brute_locate(bitmap.pixels[0], x)


def test_crop_columns_matches_pixel_slice():
    rng = random.Random(29)
    for _ in range(100):
        bitmap = random_bitmap(rng, max_w=40, max_h=8)
        rle = encode(bitmap)
        a = rng.randint(0, bitmap.width - 1)
        b = rng.randint(a, bitmap.width - 1)
        cropped = crop_columns(rle, a, b)
        assert decode(cropped) == Bitmap(bitmap.pixels[:, a : b + 1])


def test_file_roundtrip(tmp_path):
    rng = random.Random(31)
    for i in range(20):
        rle = encode(random_bitmap(rng))
        path = tmp_path / f"img{i}.rle"
        write_rle(rle, path)
        assert read_rle(path) == rle


def test_file_format_shape(tmp_path):
    rle = encode(Bitmap([[1, 1, 0, 1], [0, 0, 0, 0]]))
    path = tmp_path / "img.rle"
    write_rle(rle, path)
    assert path.read_text() == "RLE1 4 2\n0 2 1 1\n4\n"


def test_write_rle_round_trips_a_401_digit_width(tmp_path):
    width = 10**400
    rle = RleImage(width, [[0, 3, width - 3], [width]])
    path = tmp_path / "wide.rle"
    write_rle(rle, path)
    assert path.read_text() == f"RLE1 {width} 2\n0 3 {width - 3}\n{width}\n"
    assert read_rle(path) == rle


@pytest.mark.parametrize(
    "content,line",
    [
        ("", 0),
        ("RLE1 4 1\n2 1\n", 2),  # header width vs row sum
        ("RLE1 4 1\n4", 2),  # missing trailing newline
        ("RLE1 4 2\n4\n", 2),  # row count mismatch
        ("RLE1 4 1\n2  2\n", 2),  # double space
        ("RLE1 4 1\n2 x\n", 2),  # non-decimal token
        ("RLE2 4 1\n4\n", 1),  # bad magic
        ("RLE1  4 1\n4\n", 1),  # extra header space
        ("RLE1 4 1\r\n4\r\n", 1),  # CRLF endings
        ("RLE1 4 1\n2 2 \n", 2),  # trailing space
        ("RLE1 4 1\n 2 2\n", 2),  # leading space
        ("RLE1 4 1\n2 2\t\n", 2),  # tab, which int() would strip
        ("RLE1 4 1\n4\r\n", 2),  # CR after a row only
        ("RLE1 4 2\n4\n\n", 3),  # empty row line
        ("RLE1 4 2\n2 0 2\n2 x\n", 2),  # a bad value before a bad token
        ("RLE1 4 2\n4\n3\n", 3),  # a width error after a good row
    ],
)
def test_parse_errors(tmp_path, content, line):
    path = tmp_path / "bad.rle"
    path.write_text(content)
    with pytest.raises(ParseError) as err:
        read_rle(path)
    assert err.value.line == line


def test_parse_error_on_empty_file(tmp_path):
    path = tmp_path / "empty.rle"
    path.write_text("")
    with pytest.raises(ParseError):
        read_rle(path)


def _read_peak(path):
    """Peak traced memory of read_rle(path), and the ParseError it raised, if any."""
    tracemalloc.start()
    try:
        read_rle(path)
        error = None
    except ParseError as exc:
        error = exc
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    return peak, error


def test_per_line_syntax_check_keeps_no_per_token_state(tmp_path):
    # " x" at the end fails the whole-text check, so every line is then checked
    # on its own; that check must cost no more than parsing the good file does
    n = 500_000
    row = " ".join(["1"] * n)
    good, bad = tmp_path / "good.rle", tmp_path / "bad.rle"
    good.write_text(f"RLE1 {n} 3\n{row}\n{row}\n{row}\n")
    bad.write_text(f"RLE1 {n} 3\n{row}\n{row}\n{row} x\n")
    good_peak, good_error = _read_peak(good)
    bad_peak, bad_error = _read_peak(bad)
    assert good_error is None
    assert bad_error is not None and bad_error.line == 4
    assert bad_error.message.startswith("malformed run list")
    assert bad_peak <= good_peak


def test_file_rows_arrive_with_prefix_sums(tmp_path):
    path = tmp_path / "img.rle"
    path.write_text("RLE1 4 3\n0 2 1 1\n4\n001 03\n")
    rle = read_rle(path)
    assert [row.runs for row in rle.rows] == [(0, 2, 1, 1), (4,), (1, 3)]
    for row in rle.rows:
        assert row.ends == tuple(accumulate(row.runs))
        assert row.width == 4


def test_crop_rows_arrive_with_prefix_sums():
    line = RleImage(8, ((0, 3, 2, 3), (2, 4, 2), (8,)))
    # columns 1..6: starts inside ink on row 0, inside background on row 1
    crop = crop_columns(line, 1, 6)
    assert [row.runs for row in crop.rows] == [(0, 2, 2, 2), (1, 4, 1), (6,)]
    for row in crop.rows:
        assert row.ends == tuple(accumulate(row.runs))
        assert row.width == 6


BIG = 2**60  # width * height < 2**62: the bulk path runs and must report these


@pytest.mark.parametrize(
    "rows,line,message",
    [
        # 17 tokens of 2**60 wrap an int64 sum back round to 2**60
        ([" ".join([str(BIG)] * 17)], 2, f"runs sum to {17 * BIG}, header width is {BIG}"),
        # a 25-digit token reads as 2**63 - 1 in an int64
        ([str(BIG), f"1 {10**24}"], 3, f"runs sum to {10**24 + 1}, header width is {BIG}"),
        ([f"0 {BIG}", f"1 0 {BIG - 1}"], 3, "only the leading background run may be 0"),
        ([f"{BIG - 1}"], 2, f"runs sum to {BIG - 1}, header width is {BIG}"),
        ([f"{BIG} 1"], 2, f"runs sum to {BIG + 1}, header width is {BIG}"),
    ],
)
def test_bulk_checks_report_the_first_bad_line(tmp_path, rows, line, message):
    path = tmp_path / "bad.rle"
    path.write_text(f"RLE1 {BIG} {len(rows)}\n" + "".join(r + "\n" for r in rows))
    with pytest.raises(ParseError) as err:
        read_rle(path)
    assert (err.value.line, err.value.message) == (line, message)


def test_malformed_run_list_quotes_at_most_40_characters(tmp_path):
    path = tmp_path / "bad.rle"
    short = "1 " * 19 + "x"  # 39 characters: quoted whole, as before
    path.write_text(f"RLE1 4 1\n{short}\n")
    with pytest.raises(ParseError) as err:
        read_rle(path)
    assert err.value.message == f"malformed run list {short!r}"
    long = "1 " * 30 + "x"
    path.write_text(f"RLE1 4 1\n{long}\n")
    with pytest.raises(ParseError) as err:
        read_rle(path)
    assert err.value.message == f"malformed run list {long[:40]!r}... (61 characters)"
    path.write_text(f"RLE2 {'4' * 50} 1\n4\n")  # so is a bad header line
    with pytest.raises(ParseError) as err:
        read_rle(path)
    assert err.value.message.startswith(f"bad header 'RLE2 {'4' * 35}'... (57 characters)")


def test_read_peak_within_twice_the_image(tmp_path):
    # reading may peak at twice what the image holds once every row has its
    # prefix sums: the bulk path's whole-file arrays must not stack up
    n = 500_000
    row = " ".join(["1"] * n)
    path = tmp_path / "wide.rle"
    path.write_text(f"RLE1 {n} 3\n{row}\n{row}\n{row}\n")
    tracemalloc.start()
    try:
        rle = read_rle(path)
        _, peak = tracemalloc.get_traced_memory()
        for r in rle.rows:
            assert r.ends[-1] == n
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * held, (peak, held)
