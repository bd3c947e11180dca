"""Codec, run arithmetic and .rle file format."""

import random
import tracemalloc

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
from rlseg.rle import RleRow, crop_columns, locate_run

from support import brute_locate, brute_runs, random_bitmap


def test_encode_all_background_row():
    rle = encode(Bitmap([[0, 0, 0, 0]]))
    assert rle.rows[0].runs == (4,)


def test_encode_leading_foreground_row():
    rle = encode(Bitmap([[1, 1, 0, 1]]))
    assert rle.rows[0].runs == (0, 2, 1, 1)


def test_decode_examples():
    assert decode(RleImage(4, (RleRow((4,)),))) == Bitmap([[0, 0, 0, 0]])
    assert decode(RleImage(4, (RleRow((0, 2, 1, 1)),))) == Bitmap([[1, 1, 0, 1]])


def test_row_sum_mismatch_rejected():
    with pytest.raises(MalformedRleError):
        RleImage(4, (RleRow((2, 1)),))


def test_interior_zero_run_rejected():
    with pytest.raises(MalformedRleError):
        RleRow((2, 0, 2))


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
    assert RleRow((0, 2, 1, 1)).ends == (0, 2, 3, 4)
    assert RleRow((4,)).ends == (4,)


def test_cumulative_runs_differencing():
    rng = random.Random(7)
    for _ in range(100):
        row = encode(random_bitmap(rng, max_h=1)).rows[0]
        cr = row.ends
        rebuilt = [cr[0]] + [cr[j] - cr[j - 1] for j in range(1, len(cr))]
        assert tuple(rebuilt) == row.runs
        assert cr[-1] == row.width


def test_locate_run_examples():
    row = RleRow((0, 2, 1, 1))
    assert locate_run(row, 0) == 1
    assert locate_run(row, 2) == 2
    with pytest.raises(OutOfBoundsError):
        locate_run(RleRow((4,)), 4)
    with pytest.raises(OutOfBoundsError):
        locate_run(RleRow((4,)), -1)


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
