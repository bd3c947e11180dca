"""Character segmentation: ROI, bands, OR cuts and repair."""

import random

import numpy as np
import pytest

import rlseg.chars
import rlseg.words
from rlseg import (
    Bitmap,
    EmptyWordError,
    ThresholdMode,
    WorkCounter,
    decode,
    encode,
    pdp_segment_line_chars,
    read_rle,
    segment_chars,
    segment_line_chars,
)
from rlseg.chars import (
    DEFAULT_PARAMS,
    RepairOp,
    _run_backend,
    line_chars,
    RoiParams,
    plan_chars,
    repair,
    roi_bands,
    word_bands,
)
from rlseg.pixel_baseline import _backend as _pixel_backend, pdp_ink_row_bounds
from rlseg.projection import Component, occupancy
from rlseg.rle import RleImage, crop_columns, locate_run
from rlseg.synth import SynthConfig, write_corpus
from rlseg.words import plan_of, segment_words, separators_at

from support import (
    FALLBACK_LINE,
    REFERENCE_WORD_COMPONENTS,
    REFERENCE_WORD_LENGTHS,
    as_steps,
    boxes_line,
    brute_components,
    glyph_word,
    line_chars_per_word,
    random_bitmap,
    roi_bands_reference,
    roi_from_bounds,
    split_bands,
    word_bands_reference,
)


def _roi(top: int, bot: int, t: float) -> tuple[int, int, bool]:
    """The ROI's half-open rows and fallback flag, for one word."""
    return tuple(a.item() for a in roi_bands(np.array([top]), np.array([bot]), t)[:3])


def test_roi_arithmetic():
    assert _roi(0, 29, 0.2) == (6, 24, False)
    assert _roi(0, 29, 0.0) == (0, 30, False)
    assert _roi(0, 2, 0.4) == (1, 2, False)
    assert _roi(0, 9, 0.3) == (3, 7, False)
    # 0.29 * 100 is 28.999...96 in binary; the trim must still be 29
    assert _roi(0, 99, 0.29) == (29, 71, False)
    with pytest.raises(ValueError):
        _roi(0, 9, 1.0)


# at 0.29 and 0.35 some t * H fall just below an integer (0.29 * 100); four random t follow
_RNG_T = random.Random(61)
ROI_TS = [0, 0.1, 0.2, 0.25, 0.3, 0.33, 0.45, 0.4999, 0.29, 0.35]
ROI_TS += [_RNG_T.uniform(0, 0.5) for _ in range(4)]


@pytest.mark.parametrize("t", ROI_TS)
def test_roi_bands_match_scalar_helpers_at_every_height(t):
    # every ink height 1..4096, trimmed in float64 arrays and by math.floor
    top = np.full(4096, 3)
    bot = top + np.arange(4096)
    got = [a.tolist() for a in roi_bands(top, bot, t)]
    assert got == roi_bands_reference(top.tolist(), bot.tolist(), t)


def _whole_word_bands(word, t):
    """word_bands of one word spanning the whole image: one entry per word
    array, and every band-OR interval the word's."""
    bands = word_bands(word, [Component(0, word.width - 1)], t)
    assert [len(a) for a in bands[:7]] == [1] * 7
    assert bands.wptr.tolist() == [0, len(bands.lo)] and len(bands.hi) == len(bands.lo)
    return bands


def test_roi_uses_ink_bounds():
    word = glyph_word([(1, 6)], height=30)
    # pad two blank rows around the ink
    padded = RleImage(
        word.width, [(word.width,), *(row.runs for row in word.rows), (word.width,)]
    )
    bands = _whole_word_bands(padded, 0.2)
    assert [a.tolist() for a in bands[:7]] == [[1], [30], [7], [25], [False], [13], [19]]
    assert (bands.ink_top.item(), bands.ink_bot.item()) == pdp_ink_row_bounds(decode(padded))
    assert (bands.lo.tolist(), bands.hi.tolist()) == ([1], [6])


def test_roi_fallback_flags_full_box():
    word = glyph_word([(0, 3)], height=4)
    bands = _whole_word_bands(word, 0.6)
    assert [a.tolist() for a in bands[2:5]] == [[0], [4], [True]]
    assert range(bands.mid_start.item(), bands.mid_stop.item()) == split_bands(0, 4).middle


def test_roi_empty_word():
    blank = RleImage(5, ((5,),))
    with pytest.raises(EmptyWordError):
        _whole_word_bands(blank, 0.2)
    with pytest.raises(EmptyWordError):
        pdp_ink_row_bounds(decode(blank))


@pytest.mark.parametrize(
    "n,sizes",
    [(9, (3, 3, 3)), (10, (4, 3, 3)), (11, (4, 4, 3)), (2, (1, 1, 0)), (1, (1, 0, 0))],
)
def test_split_bands_sizes(n, sizes):
    # with t = 0 the ROI is the ink box, rows [0, n)
    ends = roi_bands(np.array([0]), np.array([n - 1]), 0.0)
    start, stop, _, mid_start, mid_stop = (a.item() for a in ends)
    assert (start, stop) == (0, n)
    assert (mid_start - start, mid_stop - mid_start, stop - mid_stop) == sizes
    bands = split_bands(0, n)
    assert (bands.middle.start, bands.middle.stop) == (mid_start, mid_stop)


def _cuts_of_columns(bits):
    # every row inks the same columns, so the band OR equals bits
    seg = segment_chars(encode(Bitmap([bits] * 12)))
    assert seg.repairs == ()
    return [sep.x_mid for sep in seg.separators]


def test_candidate_separators_examples():
    assert _cuts_of_columns([1, 1, 0, 1, 1]) == [2]
    assert _cuts_of_columns([1, 1, 1]) == []
    # leading/trailing background is a margin, not a cut
    assert _cuts_of_columns([0, 1, 0, 1, 0]) == [2]


def test_candidate_separators_match_brute_midpoints():
    # three glyph blobs overlapping only in the middle band: the cut columns
    # must equal the brute-force gap midpoints of the top/bottom projection
    rng = random.Random(53)
    for _ in range(30):
        height = 24
        px = np.zeros((height, 80), np.uint8)
        x = rng.randint(0, 3)
        for gi in range(3):
            w = rng.randint(6, 10)  # widths that trigger no repair
            px[:, x : x + w] = 1
            x += w
            if gi < 2:
                bridge_w = rng.randint(2, 6)
                px[11:13, x : x + bridge_w] = 1  # middle-band overlap
                x += bridge_w
        word = encode(Bitmap(px[:, : x + rng.randint(1, 4)]))
        bands = split_bands(*roi_from_bounds(0, height - 1, DEFAULT_PARAMS.t)[:2])
        decoded = decode(word).pixels
        top_or_bottom = [
            bool(
                decoded[bands.top.start : bands.top.stop, c].any()
                or decoded[bands.bottom.start : bands.bottom.stop, c].any()
            )
            for c in range(word.width)
        ]
        expected = [
            (a1 + b0) // 2
            for (a0, a1), (b0, b1) in zip(
                brute_components(top_or_bottom), brute_components(top_or_bottom)[1:]
            )
        ]
        seg = segment_chars(word)
        assert [s.x_mid for s in seg.separators] == expected


def test_repair_reference_word():
    comps = [Component(a, b) for a, b in REFERENCE_WORD_COMPONENTS]
    assert [c.length for c in comps] == REFERENCE_WORD_LENGTHS
    result = repair(comps, DEFAULT_PARAMS)
    assert result.repairs == (RepairOp("removed", 4),)
    assert [(c.x_min, c.x_max) for c in result.chars] == [
        (2, 18), (20, 34), (37, 45), (48, 59), (63, 73),
    ]
    assert len(result.cuts) == len(result.chars) - 1


def test_repair_no_ops_when_uniform():
    comps = [Component(i * 10, i * 10 + 5) for i in range(4)]
    result = repair(comps, DEFAULT_PARAMS)
    assert result.repairs == ()
    assert result.chars == tuple(comps)


def test_repair_splits_oversized_at_frequency_minimum():
    # three short components and one 3x-mean component with a valley at x=35
    comps = [Component(0, 4), Component(8, 12), Component(16, 20), Component(24, 47)]
    freq = [5] * 48
    freq[35] = 0
    result = repair(comps, RoiParams(alpha=0.2, beta=1.8), middle_freq=lambda: as_steps(freq))
    inserted = [r for r in result.repairs if r.op == "inserted"]
    assert inserted == [RepairOp("inserted", 35)]
    assert Component(24, 34) in result.chars and Component(36, 47) in result.chars


@pytest.mark.parametrize(
    "steps,x",
    [
        (([0, 20, 30], [5, 0, 5]), 26),  # the valley starts left of the viable range
        (([0, 45, 46], [5, 0, 5]), 45),  # the valley is the last viable column
        (([0, 46], [5, 0]), 26),  # the valley is past it: the leftmost viable column
        (([0, 30, 40], [5, 1, 1]), 30),  # equal steps: the leftmost one
    ],
)
def test_repair_split_reads_step_frequencies(steps, x):
    # the 24-column component splits only at columns 26..45 (min_piece 2)
    comps = [Component(0, 4), Component(8, 12), Component(16, 20), Component(24, 47)]
    result = repair(comps, RoiParams(alpha=0.2, beta=1.8), middle_freq=lambda: steps)
    assert [r for r in result.repairs if r.op == "inserted"] == [RepairOp("inserted", x)]


def test_repair_split_needs_frequencies():
    comps = [Component(0, 2), Component(6, 8), Component(12, 40)]
    with pytest.raises(ValueError):
        repair(comps, RoiParams(alpha=0.2, beta=1.5))


def test_repair_merges_toward_smaller_gap():
    # tiny middle component: right gap (1) smaller than left gap (6)
    comps = [Component(0, 9), Component(16, 17), Component(19, 28)]
    result = repair(comps, RoiParams(alpha=0.5, beta=3.0))
    assert [(c.x_min, c.x_max) for c in result.chars] == [(0, 9), (16, 28)]
    assert result.repairs == (RepairOp("removed", 18),)


def test_segment_chars_isolated_glyph():
    word = glyph_word([(2, 9)], height=24)
    seg = segment_chars(word)
    assert [(c.x_min, c.x_max) for c in seg.chars] == [(2, 9)]
    assert seg.separators == () and seg.repairs == ()


def test_segment_chars_eight_glyphs():
    intervals = [(i * 12, i * 12 + 7) for i in range(8)]
    word = glyph_word(intervals, height=24)
    seg = segment_chars(word)
    assert [(c.x_min, c.x_max) for c in seg.chars] == intervals
    assert len(seg.separators) == 7


def test_segment_chars_sees_through_middle_band_touching():
    # two glyphs joined only at middle-band rows: the OR still shows the gap
    px = np.zeros((24, 30), np.uint8)
    px[:, 2:10] = 1
    px[:, 18:26] = 1
    px[11:13, 10:18] = 1  # bridge strictly inside the middle band (rows 8..15)
    word = encode(Bitmap(px))
    seg = segment_chars(word)
    assert [(c.x_min, c.x_max) for c in seg.chars] == [(2, 9), (18, 25)]
    assert len(seg.separators) == 1


def test_segment_chars_falls_back_when_roi_is_blank():
    # two horizontal strokes at the box extremes: the trimmed ROI is all
    # background, so segmentation must fall back to the full ink box
    px = np.zeros((30, 20), np.uint8)
    px[0:3, 3:9] = 1
    px[27:30, 3:9] = 1
    word = encode(Bitmap(px))
    seg = segment_chars(word)
    assert [(c.x_min, c.x_max) for c in seg.chars] == [(3, 8)]


def test_segment_chars_empty_word():
    with pytest.raises(EmptyWordError):
        segment_chars(RleImage(6, ((6,), (6,))))


def test_segment_line_chars_line_coordinates():
    px = np.zeros((24, 80), np.uint8)
    for a, b in [(5, 12), (15, 22), (42, 49), (52, 59)]:
        px[:, a : b + 1] = 1
    line = encode(Bitmap(px))
    result = segment_line_chars(line)
    assert len(result.words.words) == 2
    flat = [(c.x_min, c.x_max) for seg in result.per_word for c in seg.chars]
    assert flat == [(5, 12), (15, 22), (42, 49), (52, 59)]
    for seg in result.per_word:
        for sep in seg.separators:
            assert len(sep.runs) == line.height
            for row, run_index in zip(line.rows, sep.runs):
                assert locate_run(row, sep.x_mid) == run_index
    # cut columns are background in the full line
    pixels = decode(line).pixels
    for seg in result.per_word:
        for sep in seg.separators:
            assert not pixels[:, sep.x_mid].any()


def test_segment_line_chars_locates_cuts_in_one_call_per_line(monkeypatch):
    # One batched locate for all of the line's char cuts and then its word
    # cuts; the word stage locates nothing, and no per-cut, per-row
    # locate_run call is made.
    px = np.zeros((24, 120), np.uint8)
    for a, b in [(5, 12), (15, 22), (25, 31), (52, 59), (62, 70), (95, 101), (104, 111)]:
        px[:, a : b + 1] = 1
    line = encode(Bitmap(px))
    batches = {"words": [], "chars": []}
    located = []

    def counting(stage, fn):
        def wrapper(image, xs):
            batches[stage].append(list(xs))
            return fn(image, xs)

        return wrapper

    def counting_locate(row, x):
        located.append(x)
        return locate_run(row, x)

    monkeypatch.setattr(rlseg.words, "separators_at", counting("words", separators_at))
    monkeypatch.setattr(rlseg.chars, "separators_at", counting("chars", separators_at))
    monkeypatch.setattr(rlseg.words, "locate_run", counting_locate)
    result = segment_line_chars(line)
    word_cuts = [sep.x_mid for sep in result.words.separators]
    char_seps = [sep for seg in result.per_word for sep in seg.separators]
    assert (len(word_cuts), len(char_seps)) == (2, 4)
    assert batches == {"words": [], "chars": [[*(sep.x_mid for sep in char_seps), *word_cuts]]}
    assert located == []
    for sep in [*result.words.separators, *char_seps]:
        assert sep.runs == tuple(locate_run(row, sep.x_mid) for row in line.rows)


def test_segment_chars_locates_a_words_cuts_in_one_call(monkeypatch):
    # a two-glyph word: its one char cut, and no separate call for the
    # (absent) word cuts
    batches = []

    def counting(image, xs):
        batches.append(list(xs))
        return separators_at(image, xs)

    monkeypatch.setattr(rlseg.chars, "separators_at", counting)
    seg = segment_chars(glyph_word([(2, 8), (12, 18)], width=21))
    assert [(c.x_min, c.x_max) for c in seg.chars] == [(2, 8), (12, 18)]
    assert batches == [[10]]
    # a one-glyph word locates no column; its frame crop and word bands
    # search its cut index, but an empty batch alone builds none
    word = glyph_word([(2, 8)], width=11)
    assert len(segment_chars(word).separators) == 0
    assert batches[1:] == [[]]
    word = glyph_word([(2, 8)], width=11)
    assert separators_at(word, []) == [] and "offset_tokens" not in vars(word)


def test_char_cuts_avoid_top_bottom_ink():
    rng = random.Random(59)
    for _ in range(40):
        bitmap = random_bitmap(rng, max_w=60, max_h=20, density=0.3)
        word = encode(bitmap)
        try:
            seg = segment_chars(word)
        except EmptyWordError:
            continue
        bounds_top = min(r for r in range(word.height) if len(word.rows[r].runs) > 1)
        bounds_bot = max(r for r in range(word.height) if len(word.rows[r].runs) > 1)
        bands = split_bands(*roi_from_bounds(bounds_top, bounds_bot, DEFAULT_PARAMS.t)[:2])
        px = decode(word).pixels
        inserted = {r.x for r in seg.repairs if r.op == "inserted"}
        for sep in seg.separators:
            if sep.x_mid in inserted:
                continue
            column = px[:, sep.x_mid]
            assert not column[bands.top.start : bands.top.stop].any()
            assert not column[bands.bottom.start : bands.bottom.stop].any()


# Seed-1 corpora shaped like the benchmark's char workloads (touch rate 0.3),
# cut short: (lines, words per line, ink runs read, run visits, pixel visits).
# A middle band is projected only for a word that splits, and none does here,
# so the visits are those of the word and band occupancies alone. The run
# path projects the band runs of all of a line's words in one occupancy over
# the frame's rows, so each frame row counts its kept runs once per line.
BENCHMARK_SHAPED_WORK = {
    "chars_narrow": (12, 8, 24488, 37283, 295845),
    "chars_wide": (3, 32, 24110, 36656, 297357),
}


@pytest.mark.parametrize("name", BENCHMARK_SHAPED_WORK)
def test_benchmark_shaped_char_work_is_pinned(tmp_path, name):
    lines, words, runs, run_visits, pixel_visits = BENCHMARK_SHAPED_WORK[name]
    write_corpus(SynthConfig(lines=lines, words_per_line=words, touch_rate=0.3, seed=1), tmp_path)
    run_counter, pixel_counter, read = WorkCounter(), WorkCounter(), 0
    for rel in (tmp_path / "manifest.txt").read_text().splitlines():
        line = read_rle(tmp_path / rel)
        read += line.total_runs
        seg = segment_line_chars(line, counter=run_counter)
        assert not any(word.repairs for word in seg.per_word)  # nothing split or merged
        pdp_segment_line_chars(decode(line), counter=pixel_counter)
    assert (read, run_counter.count, pixel_counter.count) == (runs, run_visits, pixel_visits)


@pytest.mark.parametrize("name", BENCHMARK_SHAPED_WORK)
def test_benchmark_shaped_lines_take_one_crop_and_one_projection(tmp_path, monkeypatch, name):
    # The line's frame crop and the occupancy of its band runs; no word takes
    # a fallback or splits on these corpora, so no word is cropped or projected.
    lines, words = BENCHMARK_SHAPED_WORK[name][:2]
    write_corpus(SynthConfig(lines=lines, words_per_line=words, touch_rate=0.3, seed=1), tmp_path)
    calls = []

    def counting(label, fn):
        def wrapper(*args):
            calls.append(label)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(rlseg.chars, "crop_columns", counting("crop", crop_columns))
    monkeypatch.setattr(rlseg.chars, "occupancy", counting("occupancy", occupancy))
    for rel in (tmp_path / "manifest.txt").read_text().splitlines():
        calls.clear()
        seg = segment_line_chars(read_rle(tmp_path / rel))  # words project through rlseg.words
        assert len(seg.per_word) == words
        assert sorted(calls) == ["crop", "occupancy"], rel


def _counting_plan_chars(monkeypatch) -> list:
    """Record the word of every plan_chars call the char driver makes."""
    planned = []

    def counting(backend, line, w, *args):
        planned.append(w)
        return plan_chars(backend, line, w, *args)

    monkeypatch.setattr(rlseg.chars, "plan_chars", counting)
    return planned


@pytest.mark.parametrize("name", BENCHMARK_SHAPED_WORK)
def test_benchmark_shaped_lines_plan_no_word_alone(tmp_path, monkeypatch, name):
    # Every word's band OR is lit and no interval of it lies outside
    # [alpha x mean, beta x mean], so the triage flags none, on either domain.
    lines, words = BENCHMARK_SHAPED_WORK[name][:2]
    write_corpus(SynthConfig(lines=lines, words_per_line=words, touch_rate=0.3, seed=1), tmp_path)
    planned = _counting_plan_chars(monkeypatch)
    for rel in (tmp_path / "manifest.txt").read_text().splitlines():
        line = read_rle(tmp_path / rel)
        assert len(segment_line_chars(line).per_word) == words
        assert len(pdp_segment_line_chars(decode(line)).per_word) == words
    assert planned == []


def test_plan_chars_runs_for_exactly_the_flagged_words(monkeypatch):
    # FALLBACK_LINE's five words each take a fallback, a merge or a split; two
    # clean words after them (two 6-column glyphs, one 8-column glyph) do not.
    boxes = [*FALLBACK_LINE, (250, 255, 0, 30), (260, 265, 0, 30), (290, 297, 0, 30)]
    line = boxes_line(boxes, 0, 300)
    words = segment_words(line, ThresholdMode("fixed", 12))
    assert len(words.words) == 7
    bands = word_bands_reference(line, words.words, DEFAULT_PARAMS.t)
    flagged = []
    for w, a, b in zip(words.words, bands.wptr, bands.wptr[1:]):
        lengths = (bands.hi[a:b] - bands.lo[a:b] + 1).tolist()
        mean = sum(lengths) / max(len(lengths), 1)
        low, high = DEFAULT_PARAMS.alpha * mean, DEFAULT_PARAMS.beta * mean
        if not lengths or not all(low <= n <= high for n in lengths):
            flagged.append(w)
    assert flagged == list(words.words[:5])
    planned = _counting_plan_chars(monkeypatch)
    for backend, image in ((_run_backend(), line), (_pixel_backend(), decode(line))):
        planned.clear()
        got = line_chars(backend, image, plan_of(words), DEFAULT_PARAMS, None)
        assert planned == flagged
        assert got == line_chars_per_word(backend, image, words, DEFAULT_PARAMS)
