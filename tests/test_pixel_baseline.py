"""Differential equivalence between the run-domain and pixel-domain paths."""

import random

import pytest

from rlseg import (
    Bitmap,
    EmptyLineError,
    WorkCounter,
    components,
    decode,
    encode,
    occupancy,
    pdp_occupancy,
    pdp_segment_chars,
    pdp_segment_line_chars,
    pdp_segment_words,
    segment_chars,
    segment_line_chars,
    segment_words,
)
from rlseg.errors import EmptyWordError
from rlseg.pixel_baseline import pdp_locate_run
from rlseg.projection import Component, Occupancy
from rlseg.records import dumps, line_char_records, word_record
from rlseg.rle import locate_run

from support import glyph_word, random_bitmap, random_blob_line


def test_pdp_occupancy_trivial_cases():
    white = Bitmap.zeros(6, 3)
    assert pdp_occupancy(white, (0, 3)) == Occupancy(6, ())
    dotted = Bitmap([[0, 0, 0], [0, 1, 0]])
    assert pdp_occupancy(dotted, (0, 2)) == Occupancy(3, (Component(1, 1),))


def test_pdp_occupancy_equals_run_occupancy():
    rng = random.Random(111)
    for _ in range(200):
        bitmap = random_bitmap(rng)
        rle = encode(bitmap)
        a = rng.randint(0, bitmap.height - 1)
        b = rng.randint(a + 1, bitmap.height)
        assert pdp_occupancy(bitmap, (a, b)) == occupancy(rle, (a, b))


def test_component_equality_between_domains():
    rng = random.Random(113)
    for _ in range(100):
        bitmap = random_bitmap(rng)
        rle = encode(bitmap)
        span = (0, bitmap.height)
        assert components(pdp_occupancy(bitmap, span)) == components(occupancy(rle, span))


def test_pdp_locate_run_matches_run_domain():
    rng = random.Random(127)
    for _ in range(60):
        bitmap = random_bitmap(rng, max_w=24, max_h=1)
        row = encode(bitmap).rows[0]
        for x in range(bitmap.width):
            assert pdp_locate_run(bitmap.pixels[0], x) == locate_run(row, x)


def test_word_pipelines_identical():
    rng = random.Random(131)
    for _ in range(60):
        line = random_blob_line(rng)
        bitmap = decode(line)
        assert pdp_segment_words(bitmap) == segment_words(line)


def test_word_records_byte_identical():
    rng = random.Random(137)
    for i in range(60):
        line = random_blob_line(rng)
        bitmap = decode(line)
        cdp = dumps(word_record(f"l{i}", segment_words(line)))
        pdp = dumps(word_record(f"l{i}", pdp_segment_words(bitmap)))
        assert cdp == pdp


def test_char_records_byte_identical():
    rng = random.Random(139)
    for i in range(60):
        line = random_blob_line(rng)
        bitmap = decode(line)
        cdp = dumps(line_char_records(f"l{i}", segment_line_chars(line)))
        pdp = dumps(line_char_records(f"l{i}", pdp_segment_line_chars(bitmap)))
        assert cdp == pdp


def test_word_chars_on_random_noise_bitmaps():
    rng = random.Random(149)
    for i in range(60):
        bitmap = random_bitmap(rng, max_w=48, max_h=14)
        line = encode(bitmap)
        try:
            cdp = dumps(line_char_records(f"n{i}", segment_line_chars(line)))
        except EmptyLineError:
            with pytest.raises(EmptyLineError):
                pdp_segment_line_chars(bitmap)
            continue
        pdp = dumps(line_char_records(f"n{i}", pdp_segment_line_chars(bitmap)))
        assert cdp == pdp


def test_empty_inputs_raise_in_both_domains():
    blank = Bitmap.zeros(8, 4)
    with pytest.raises(EmptyLineError):
        segment_words(encode(blank))
    with pytest.raises(EmptyLineError):
        pdp_segment_words(blank)
    with pytest.raises(EmptyWordError):
        segment_chars(encode(blank))
    with pytest.raises(EmptyWordError):
        pdp_segment_chars(blank)


def test_work_counters_runs_vs_pixels():
    word = glyph_word([(2, 9), (14, 21)], height=24)
    bitmap = decode(word)
    cdp_counter, pdp_counter = WorkCounter(), WorkCounter()
    occupancy(word, (0, word.height), cdp_counter)
    pdp_occupancy(bitmap, (0, bitmap.height), pdp_counter)
    assert cdp_counter.count == word.total_runs
    assert pdp_counter.count == bitmap.width * bitmap.height
    assert cdp_counter.count < pdp_counter.count
