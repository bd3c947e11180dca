"""Word segmentation: thresholds, classification, cuts and run coordinates."""

import random

import pytest

from rlseg import EmptyLineError, SettingError, ThresholdMode, decode, segment_words
from rlseg.projection import Component
from rlseg.rle import RleImage, crop_columns, locate_run
from rlseg.words import AUTO, gap_midpoint, gap_widths, plan_words, select_threshold

from support import (
    REFERENCE_LINE_COMPONENTS,
    bars_line,
    random_blob_line,
)


def _comps_with_gaps(widths):
    """Components 3 columns wide, with gaps of the given widths between them."""
    comps = [Component(0, 2)]
    for w in widths:
        x = comps[-1].x_max + w + 1
        comps.append(Component(x, x + 2))
    return comps


def _gaps_of_widths(widths):
    return gap_widths(_comps_with_gaps(widths))


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 10 (gap statistics that can fail): the auto threshold is the "
    "mean gap, which assumes both gap classes are present on the line",
)
def test_one_word_with_uneven_intra_gaps_stays_one_word():
    # five 5-column glyphs with intra gaps 2, 3, 4 and 3: the mean gap is 3.0,
    # so auto reads the 4-column gap as a word gap and cuts the word in two
    line = RleImage(39, [[1, 5, 2, 5, 3, 5, 4, 5, 3, 5, 1]])
    assert segment_words(line).threshold_used == 3.0
    assert len(segment_words(line).words) == 1


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 10 (gap statistics that can fail): auto's threshold is the mean "
    "gap, 3.0, so the 4-column intra gap cuts the word into (2, 24) and (29, 43)",
)
def test_one_word_of_six_px_glyphs_stays_one_word():
    # five 6-px glyphs at x = 2, 10, 19, 29 and 38, so intra gaps 2, 3, 4 and 3
    line = bars_line([(x, x + 5) for x in (2, 10, 19, 29, 38)], height=8)
    seg = segment_words(line)
    assert seg.threshold_used == 3.0
    assert [(w.x_min, w.x_max) for w in seg.words] == [(2, 43)]


def test_select_threshold_reference_mean():
    gs = gap_widths([Component(a, b) for a, b in REFERENCE_LINE_COMPONENTS])
    assert select_threshold(gs) == 12.0


def test_select_threshold_flat():
    assert select_threshold(_gaps_of_widths([5, 5, 5])) == 5.0


def test_select_threshold_no_gaps():
    # a line without gaps is one word: 0.0 unless a fixed threshold is asked for
    assert select_threshold([]) == 0.0
    assert select_threshold([], ThresholdMode("scale", 1.5)) == 0.0
    assert select_threshold([], ThresholdMode("fixed", 3)) == 3.0


def test_select_threshold_fixed_and_scale():
    gs = _gaps_of_widths([4, 8])
    assert select_threshold(gs, ThresholdMode("fixed", 3)) == 3.0
    assert select_threshold([], ThresholdMode("fixed", 3)) == 3.0
    assert select_threshold(gs, ThresholdMode("scale", 1.5)) == 9.0


def test_threshold_mode_parse():
    assert ThresholdMode.parse("auto") == AUTO
    assert ThresholdMode.parse("fixed:12") == ThresholdMode("fixed", 12.0)
    assert ThresholdMode.parse("scale:1.5") == ThresholdMode("scale", 1.5)
    with pytest.raises(ValueError):
        ThresholdMode.parse("bogus")


@pytest.mark.parametrize(
    "kind,value,message",
    [
        ("mean", 1.0, "unknown threshold mode 'mean'"),
        ("fixed", -1, "fixed threshold must be >= 0"),
        ("scale", 0, "scale factor must be > 0"),
        ("scale", -2, "scale factor must be > 0"),
    ],
    ids=["unknown_kind", "fixed_negative", "scale_zero", "scale_negative"],
)
def test_threshold_mode_rejects_values_out_of_range(kind, value, message):
    with pytest.raises(SettingError, match=f"^{message}$") as exc:
        ThresholdMode(kind, value)
    assert exc.value.key == "threshold"


def test_plan_words_splits_strictly_above_threshold():
    # gaps above, equal to and below 12.0: only the one above splits
    comps = _comps_with_gaps([13, 12, 11])
    words, cuts, threshold = plan_words(comps, ThresholdMode("fixed", 12))
    assert threshold == 12.0
    assert words == [comps[0], Component(comps[1].x_min, comps[3].x_max)]
    assert cuts == [gap_midpoint(comps[0], comps[1])]
    # fixed:0 splits at every gap
    words, cuts, threshold = plan_words(comps, ThresholdMode("fixed", 0))
    assert threshold == 0.0
    assert words == comps
    assert cuts == [gap_midpoint(a, b) for a, b in zip(comps, comps[1:])]


def test_gap_midpoint_examples():
    assert gap_midpoint(Component(90, 94), Component(105, 110)) == 99
    assert gap_midpoint(Component(0, 3), Component(5, 5)) == 4


def test_reference_line_plan():
    comps = [Component(a, b) for a, b in REFERENCE_LINE_COMPONENTS]
    words, cuts, threshold = plan_words(comps)
    assert threshold == 12.0
    # gaps strictly above the 12.0 mean split; the rest merge
    assert [(w.x_min, w.x_max) for w in words] == [
        (19, 204), (218, 319), (333, 510), (526, 579),
        (593, 647), (662, 715), (731, 784),
    ]
    assert cuts == [211, 326, 518, 586, 654, 723]


def test_segment_words_reference_line():
    line = bars_line(REFERENCE_LINE_COMPONENTS, width=800, height=12, row_span=(2, 10))
    seg = segment_words(line)
    assert seg.threshold_used == 12.0
    assert len(seg.words) == 7
    assert [s.x_mid for s in seg.separators] == [211, 326, 518, 586, 654, 723]


def test_segment_words_two_words():
    line = bars_line([(5, 12), (15, 22), (42, 49), (52, 59)], width=80, height=8)
    seg = segment_words(line)
    assert [(w.x_min, w.x_max) for w in seg.words] == [(5, 22), (42, 59)]


def test_segment_words_single_blob():
    line = bars_line([(5, 20)], width=30, height=6)
    seg = segment_words(line)
    assert len(seg.words) == 1
    assert seg.separators == ()
    assert seg.threshold_used == 0.0


def test_segment_words_empty_line():
    line = RleImage(10, ((10,), (10,)))
    with pytest.raises(EmptyLineError):
        segment_words(line)


def test_separators_on_background_columns():
    rng = random.Random(71)
    for _ in range(50):
        line = random_blob_line(rng)
        try:
            seg = segment_words(line)
        except EmptyLineError:
            continue
        px = decode(line).pixels
        for sep in seg.separators:
            assert not px[:, sep.x_mid].any()


def test_separator_run_coordinates_consistent():
    line = bars_line([(2, 6), (10, 14), (30, 36), (40, 44)], width=50, height=6)
    seg = segment_words(line)
    for sep in seg.separators:
        assert len(sep.runs) == line.height
        for row, run_index in zip(line.rows, sep.runs):
            assert locate_run(row, sep.x_mid) == run_index


def test_threshold_monotonicity():
    rng = random.Random(73)
    for _ in range(30):
        line = random_blob_line(rng)
        try:
            counts = [
                len(segment_words(line, ThresholdMode("fixed", t)).words)
                for t in (0, 2, 5, 9, 14, 30)
            ]
        except EmptyLineError:
            continue
        assert counts == sorted(counts, reverse=True)


def test_resegmenting_a_word_is_idempotent():
    line = bars_line([(5, 12), (15, 22), (42, 49), (52, 59)], width=80, height=8)
    seg = segment_words(line)
    for word in seg.words:
        sub = crop_columns(line, word.x_min, word.x_max)
        again = segment_words(sub, ThresholdMode("fixed", seg.threshold_used))
        assert len(again.words) == 1
