"""Differential equivalence between the run-domain and pixel-domain paths."""

import random
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import rlseg.chars
import rlseg.pixel_baseline
import rlseg.projection
from rlseg import (
    Bitmap,
    EmptyLineError,
    WorkCounter,
    decode,
    encode,
    pdp_segment_chars,
    pdp_segment_line_chars,
    pdp_segment_words,
    segment_chars,
    segment_line_chars,
    segment_words,
)
from rlseg.chars import DEFAULT_PARAMS, LineCharSegmentation, RoiParams
from rlseg.errors import EmptyWordError
from rlseg.pixel_baseline import (
    pdp_locate_run,
    pdp_occupancy,
    pdp_separator_at,
    pdp_separators_at,
    pdp_word_bands,
)
from rlseg.projection import Component, Occupancy, components, occupancy
from rlseg.records import dumps, line_char_records, word_record
from rlseg.rle import crop_columns, locate_run
from rlseg.words import separators_at

from support import (
    brute_components,
    brute_occupancy,
    brute_word_bands,
    glyph_word,
    random_bitmap,
    random_blob_line,
)


def test_pdp_occupancy_trivial_cases():
    white = Bitmap.zeros(6, 3)
    assert pdp_occupancy(white, (0, 3)) == Occupancy(6, ())
    dotted = Bitmap([[0, 0, 0], [0, 1, 0]])
    assert pdp_occupancy(dotted, (0, 2)) == Occupancy(3, ((1, 1),))


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


def test_pixel_spans_do_not_rest_on_the_run_union(monkeypatch):
    # A union that keeps touching spans apart (np.less_equal for np.less)
    # breaks the run path's occupancy; the oracle's spans, built from its own
    # column counts, must still equal the brute references, and its char
    # chain must not call union at all.
    calls = []

    def union_keeping_touching_spans_apart(width, starts, stops):
        calls.append(width)
        if not len(starts):
            return Occupancy(width, ())
        starts, stops = np.sort(np.array(starts)), np.sort(np.array(stops))
        breaks = np.concatenate([[True], np.less_equal(stops[:-1], starts[1:]), [True]])
        lasts = stops[breaks[1:]] - 1
        return Occupancy(width, tuple(zip(starts[breaks[:-1]].tolist(), lasts.tolist())))

    assert not hasattr(rlseg.pixel_baseline, "union")
    monkeypatch.setattr(rlseg.projection, "union", union_keeping_touching_spans_apart)
    assert occupancy(encode(Bitmap([[1, 0], [0, 1]])), (0, 2)).spans == ((0, 0), (1, 1))
    rng = random.Random(157)
    for _ in range(200):
        bitmap = random_bitmap(rng)
        span = (0, bitmap.height)
        bits = brute_occupancy(bitmap, span)
        assert list(pdp_occupancy(bitmap, span).spans) == brute_components(bits)
        if not any(bits):
            continue
        words = [Component(*pair) for pair in brute_components(bits)]
        t = rng.choice([0.0, 0.2, 0.4])
        bands = pdp_word_bands(bitmap, words, t)
        rows, (lo, hi, wptr) = zip(*(a.tolist() for a in bands[:7])), bands[7:]
        lo, hi, wptr = lo.tolist(), hi.tolist(), wptr.tolist()
        ors = [list(zip(lo[a:b], hi[a:b])) for a, b in zip(wptr, wptr[1:])]
        assert [(*row, o) for row, o in zip(rows, ors)] == brute_word_bands(bitmap, words, t)
    calls.clear()
    pdp_segment_line_chars(decode(random_blob_line(rng)))
    assert calls == []


def test_pdp_locate_run_matches_run_domain():
    rng = random.Random(127)
    for _ in range(60):
        bitmap = random_bitmap(rng, max_w=24, max_h=1)
        row = encode(bitmap).rows[0]
        for x in range(bitmap.width):
            assert pdp_locate_run(bitmap.pixels[0].tolist(), x) == locate_run(row, x)


@pytest.mark.parametrize("kind", [list, tuple, np.array])
@pytest.mark.parametrize("cols", [[1, 3], []], ids=["two", "none"])
def test_both_domains_locate_any_sequence_of_columns(kind, cols):
    # a list, a tuple or an array of columns, empty or not, is located alike
    # on runs and on pixels; rows start and end in ink or background
    bitmap = Bitmap([[1, 1, 0, 1, 0], [0, 0, 0, 0, 0], [0, 1, 1, 0, 1]])
    xs = kind(cols)
    got = pdp_separators_at(bitmap, xs)
    assert got == separators_at(encode(bitmap), xs)
    assert got == [pdp_separator_at(bitmap, x) for x in cols]


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
        cdp = dumps([word_record(f"l{i}", segment_words(line))])
        pdp = dumps([word_record(f"l{i}", pdp_segment_words(bitmap))])
        assert cdp == pdp


def test_char_records_byte_identical():
    rng = random.Random(139)
    for i in range(60):
        line = random_blob_line(rng)
        bitmap = decode(line)
        cdp = dumps(line_char_records(f"l{i}", segment_line_chars(line)))
        pdp = dumps(line_char_records(f"l{i}", pdp_segment_line_chars(bitmap)))
        assert cdp == pdp


def test_word_level_char_records_byte_identical():
    rng = random.Random(151)
    words = []
    for _ in range(40):
        x, intervals = rng.randint(0, 3), []
        for _ in range(rng.randint(1, 7)):
            w = rng.randint(1, 14)
            intervals.append((x, x + w - 1))
            x += w + rng.randint(1, 5)
        words.append(glyph_word(intervals, height=rng.randint(3, 30)))
    for _ in range(40):
        line = random_blob_line(rng)
        words += [crop_columns(line, w.x_min, w.x_max) for w in segment_words(line).words]
    for i, word in enumerate(words):
        cdp, pdp = (
            dumps(line_char_records(f"w{i}", LineCharSegmentation(None, (seg,))))
            for seg in (segment_chars(word), pdp_segment_chars(decode(word)))
        )
        assert cdp == pdp


def _seam_run(monkeypatch, params):
    """Both domains' char stage on one line, with every primitive the driver
    looks up by module name replaced by a counting wrapper. Returns the calls
    per name, the visits per module, both counters and both results."""
    px = np.zeros((24, 90), np.uint8)
    for a, b in [(3, 10), (13, 20), (22, 40), (60, 67), (70, 77), (80, 86)]:
        px[:, a : b + 1] = 1
    px[10:14, 20:23] = 1  # a middle-band bridge
    line = encode(Bitmap(px))
    bitmap = decode(line)
    run_words, pdp_words = segment_words(line), pdp_segment_words(bitmap)
    calls, visits = Counter(), Counter()

    def counting(module, name, cost=None):
        fn = getattr(module, name)

        def wrapper(image, *args):
            calls[name] += 1
            if cost is not None:
                start, stop = args[0]
                visits[module.__name__] += cost(image, start, stop)
            return fn(image, *args)

        monkeypatch.setattr(module, name, wrapper)

    def runs_in(image, start, stop):
        return sum(len(row.runs) for row in image.rows[start:stop])

    def pixels_in(image, start, stop):
        return image.width * (stop - start)

    for name in ("occupancy", "column_frequency"):
        counting(rlseg.chars, name, runs_in)
        counting(rlseg.pixel_baseline, f"pdp_{name}", pixels_in)
    for name in ("crop_columns", "separators_at"):
        counting(rlseg.chars, name)
    # the oracle locates all of a line's char cuts in one batch, and calls
    # the one-cut references not at all
    for name in ("pdp_separators_at", "pdp_separator_at", "pdp_locate_run", "pdp_ink_row_bounds"):
        counting(rlseg.pixel_baseline, name)

    run_counter, pdp_counter = WorkCounter(), WorkCounter()
    run = segment_line_chars(line, params, counter=run_counter, words=run_words)
    pdp = pdp_segment_line_chars(bitmap, params, counter=pdp_counter, words=pdp_words)
    assert dumps(line_char_records("l", run)) == dumps(line_char_records("l", pdp))
    assert calls["pdp_separators_at"] == 1
    assert calls["pdp_ink_row_bounds"] == len(pdp_words.words)
    assert visits["rlseg.chars"] == run_counter.count > 0
    assert visits["rlseg.pixel_baseline"] == pdp_counter.count > 0
    return calls, pdp


def test_char_stage_runs_the_seams_named_at_call_time(monkeypatch):
    # Replacing a primitive by its module name must reach the shared driver in
    # both domains; a backend bound at import time would bypass the wrappers.
    # No component here is longer than beta * mean, so no middle band is
    # projected.
    calls, pdp = _seam_run(monkeypatch, DEFAULT_PARAMS)
    assert sum(len(seg.separators) for seg in pdp.per_word) > 0
    assert not any(seg.repairs for seg in pdp.per_word)
    assert set(calls) == {
        "occupancy", "crop_columns", "separators_at",
        "pdp_occupancy", "pdp_separators_at", "pdp_ink_row_bounds",
    }


def test_char_stage_projects_the_middle_band_of_each_splitting_word(monkeypatch):
    # Under beta 1.1 the bridged glyphs (22, 40) are longer than beta * mean,
    # so their word splits, and each domain projects its middle band once.
    calls, pdp = _seam_run(monkeypatch, RoiParams(beta=1.1))
    splitting = sum(any(op.op == "inserted" for op in seg.repairs) for seg in pdp.per_word)
    assert splitting == 1
    assert calls["column_frequency"] == calls["pdp_column_frequency"] == splitting


def test_pdp_segment_line_chars_scans_each_row_once(monkeypatch):
    # one pdp_separators_at call per line, every char cut and then every
    # word cut, so each row's pixels are read once
    px = np.zeros((24, 120), np.uint8)
    for a, b in [(5, 12), (15, 22), (25, 31), (52, 59), (62, 70), (95, 101), (104, 111)]:
        px[:, a : b + 1] = 1
    bitmap = Bitmap(px)
    batches = []

    def counting(image, xs):
        batches.append(list(xs))
        return pdp_separators_at(image, xs)

    monkeypatch.setattr(rlseg.pixel_baseline, "pdp_separators_at", counting)
    result = pdp_segment_line_chars(bitmap)
    word_cuts = [sep.x_mid for sep in result.words.separators]
    char_cuts = [sep.x_mid for seg in result.per_word for sep in seg.separators]
    assert (word_cuts, char_cuts) == ([41, 82], [13, 23, 60, 102])
    assert batches == [char_cuts + word_cuts]
    assert result == segment_line_chars(encode(bitmap))


def test_pdp_separator_at_holds_one_row_of_pixels():
    # each row is converted to a list up to the cut, one row at a time; a list
    # of the whole bitmap would hold 300 such rows
    rng = np.random.default_rng(7)
    bitmap = Bitmap(rng.random((300, 2000)) < 0.5)
    x = bitmap.width - 1
    tracemalloc.start()
    try:
        sep = pdp_separator_at(bitmap, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    row = sys.getsizeof(bitmap.pixels[0].tolist())
    held = sys.getsizeof(sep.runs) + sum(map(sys.getsizeof, sep.runs))
    # the result may be built through a growing list before it is a tuple
    assert peak <= row + 2 * held + 4096, (peak, row, held)


def test_pdp_separators_at_holds_one_row_of_pixels():
    # each row's pixels and run indices are one list each, built one row at a
    # time; lists of the whole bitmap would hold 300 rows of each
    rng = np.random.default_rng(7)
    bitmap = Bitmap(rng.random((300, 2000)) < 0.5)
    xs = [bitmap.width - 1, 0, 1000, bitmap.width - 1]
    tracemalloc.start()
    try:
        seps = pdp_separators_at(bitmap, xs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    row = sys.getsizeof(bitmap.pixels[0].tolist())
    # a run-index list grows as it is built, and its indices past 256 are new ints
    indices = row * 9 // 8 + 64 + bitmap.width * sys.getsizeof(bitmap.width)
    held = sum(sys.getsizeof(s.runs) + sum(map(sys.getsizeof, s.runs)) for s in seps)
    # the result is built through per-row tuples of the cuts' indices
    assert peak <= row + indices + 2 * held + 4096, (peak, row, indices, held)


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
