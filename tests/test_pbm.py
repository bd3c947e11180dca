"""PBM ingestion and emission."""

import random

import pytest

from rlseg import Bitmap, ParseError, encode, read_pbm, write_pbm, write_rle

from support import random_bitmap


def test_p1_roundtrip(tmp_path):
    rng = random.Random(3)
    for i in range(20):
        bitmap = random_bitmap(rng)
        path = tmp_path / f"img{i}.pbm"
        write_pbm(bitmap, path)
        assert read_pbm(path) == bitmap


def test_p4_roundtrip(tmp_path):
    rng = random.Random(4)
    for i in range(20):
        bitmap = random_bitmap(rng)
        path = tmp_path / f"img{i}.pbm"
        write_pbm(bitmap, path, binary=True)
        assert read_pbm(path) == bitmap


def test_p1_and_p4_give_identical_rle(tmp_path):
    rng = random.Random(5)
    bitmap = random_bitmap(rng, max_w=40, max_h=12)
    write_pbm(bitmap, tmp_path / "a.pbm")
    write_pbm(bitmap, tmp_path / "b.pbm", binary=True)
    write_rle(encode(read_pbm(tmp_path / "a.pbm")), tmp_path / "a.rle")
    write_rle(encode(read_pbm(tmp_path / "b.pbm")), tmp_path / "b.rle")
    assert (tmp_path / "a.rle").read_bytes() == (tmp_path / "b.rle").read_bytes()


def test_p1_comments_and_packed_digits(tmp_path):
    path = tmp_path / "c.pbm"
    path.write_text("P1\n# a comment\n4 2 # trailing\n1101\n# mid raster\n0 0 1 1\n")
    assert read_pbm(path) == Bitmap([[1, 1, 0, 1], [0, 0, 1, 1]])


def test_p4_truncated_payload(tmp_path):
    path = tmp_path / "t.pbm"
    bitmap = Bitmap([[1] * 20] * 4)
    write_pbm(bitmap, path, binary=True)
    data = path.read_bytes()
    path.write_bytes(data[:-3])
    with pytest.raises(ParseError):
        read_pbm(path)


def test_p1_truncated_raster(tmp_path):
    path = tmp_path / "t.pbm"
    path.write_text("P1\n4 2\n1101\n")
    with pytest.raises(ParseError):
        read_pbm(path)


def test_bad_magic(tmp_path):
    path = tmp_path / "x.pbm"
    path.write_text("P5\n4 2\n")
    with pytest.raises(ParseError):
        read_pbm(path)


def test_p1_line_length_limit(tmp_path):
    path = tmp_path / "wide.pbm"
    write_pbm(Bitmap([[1] * 300]), path)
    assert all(len(line) <= 70 for line in path.read_text().splitlines())


def _p1_error(tmp_path, text: bytes) -> str:
    path = tmp_path / "e.pbm"
    path.write_bytes(text)
    with pytest.raises(ParseError) as exc:
        read_pbm(path)
    return str(exc.value).removeprefix(f"{path}:")


def test_p1_bad_byte_after_a_two_line_comment_names_its_line(tmp_path):
    text = b"P1\n2 2\n1 0 # one\n# two\n1 x 1\n"
    assert _p1_error(tmp_path, text) == "5: unexpected byte 'x' in P1 raster"


def test_p1_bytes_after_the_last_pixel_are_not_read(tmp_path):
    path = tmp_path / "j.pbm"
    path.write_bytes(b"P1\n3 1\n1 0 1x# junk\x00\n-\n")
    assert read_pbm(path) == Bitmap([[1, 0, 1]])


def test_p1_raster_ending_in_a_comment_is_truncated_at_the_last_line(tmp_path):
    text = b"P1\n2 2\n1 0\n1 # 1 0"
    assert _p1_error(tmp_path, text) == "4: truncated P1 raster: 3 of 4 pixels"


def test_header_token_past_the_int_digit_limit_is_a_parse_error(tmp_path):
    path = tmp_path / "long.pbm"
    path.write_bytes(b"P1\n# w\n" + b"1" * 5000 + b" 1\n0\n")
    with pytest.raises(ParseError, match=r":3: Exceeds the limit \(4300 digits\)"):
        read_pbm(path)
