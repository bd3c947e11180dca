"""Occupancy, components and gaps computed from run spreads."""

import random

import numpy as np
import pytest

from rlseg import (
    Bitmap,
    EmptyRangeError,
    MalformedRleError,
    OutOfBoundsError,
    ParseError,
    WorkCounter,
    encode,
    read_rle,
)
from rlseg.chars import repair
from rlseg.pixel_baseline import pdp_column_frequency
from rlseg.projection import (
    Component,
    Occupancy,
    column_frequency,
    components,
    occupancy,
    union,
)
from rlseg.rle import RleImage
from rlseg.words import gap_widths

from support import (
    REFERENCE_LINE_COMPONENTS,
    REFERENCE_LINE_GAP_WIDTHS,
    REFERENCE_WORD_COMPONENTS,
    REFERENCE_WORD_LENGTHS,
    as_steps,
    bars_line,
    brute_components,
    brute_frequency,
    brute_occupancy,
    expand_steps,
    random_bitmap,
)


def _one_row_spans(runs):
    occ = occupancy(RleImage(sum(runs), (runs,)), (0, 1))
    return [(c.x_min, c.x_max) for c in components(occ)]


def test_one_row_occupancy_is_its_run_spreads():
    assert _one_row_spans((3, 5, 2, 4, 6)) == [(3, 7), (10, 13)]
    assert _one_row_spans((20,)) == []
    assert _one_row_spans((0, 20)) == [(0, 19)]


def test_one_row_occupancy_matches_decoded_row():
    rng = random.Random(17)
    for _ in range(100):
        bitmap = random_bitmap(rng, max_h=1)
        row = encode(bitmap).rows[0]
        expected = brute_components(bitmap.pixels[0])
        assert _one_row_spans(row.runs) == expected


def test_occupancy_single_row():
    rle = RleImage(4, ((0, 2, 1, 1),))
    assert occupancy(rle, (0, 1)) == Occupancy(4, ((0, 1), (3, 3)))


def test_occupancy_two_rows_or():
    rle = RleImage(4, ((0, 2, 2), (2, 2)))
    assert occupancy(rle, (0, 2)) == Occupancy(4, ((0, 3),))


def test_occupancy_all_background():
    rle = RleImage(5, ((5,), (5,)))
    assert occupancy(rle, (0, 2)) == Occupancy(5, ())


def test_zero_width_images_are_rejected_at_every_entry_point(tmp_path):
    # so an Occupancy, which checks nothing, never gets a zero width
    with pytest.raises(MalformedRleError, match="width must be >= 1"):
        RleImage(0, ((0,),))
    with pytest.raises(ValueError, match="at least 1x1"):
        Bitmap(np.zeros((1, 0)))
    path = tmp_path / "zero.rle"
    path.write_text("RLE1 0 1\n0\n")
    with pytest.raises(ParseError, match="width and height must be >= 1, got 0x1"):
        read_rle(path)


def test_union_examples():
    # touching spans merge, nested spans vanish, a one-column hole separates
    assert union(9, [0, 3, 1], [3, 5, 2]) == Occupancy(9, ((0, 4),))
    assert union(9, [6, 0], [9, 5]) == Occupancy(9, ((0, 4), (6, 8)))
    assert union(9, [], []) == Occupancy(9, ())


def test_occupancy_range_errors():
    rle = RleImage(4, ((4,),))
    with pytest.raises(EmptyRangeError):
        occupancy(rle, (1, 1))
    with pytest.raises(OutOfBoundsError):
        occupancy(rle, (0, 2))


def test_occupancy_counter_equals_region_run_count():
    rng = random.Random(23)
    for _ in range(50):
        bitmap = random_bitmap(rng)
        rle = encode(bitmap)
        a = rng.randint(0, rle.height - 1)
        b = rng.randint(a + 1, rle.height)
        counter = WorkCounter()
        occupancy(rle, (a, b), counter)
        assert counter.count == sum(len(rle.rows[r].runs) for r in range(a, b))


def test_components_examples():
    occ = Occupancy(4, ((0, 1), (3, 3)))
    comps = components(occ)
    assert [(c.x_min, c.x_max, c.length) for c in comps] == [(0, 1, 2), (3, 3, 1)]
    assert components(Occupancy(2, ())) == []


def test_components_reference_word_fixture():
    line = bars_line(REFERENCE_WORD_COMPONENTS, width=76, height=8)
    comps = components(occupancy(line, (0, 8)))
    assert [(c.x_min, c.x_max) for c in comps] == REFERENCE_WORD_COMPONENTS
    assert [c.length for c in comps] == REFERENCE_WORD_LENGTHS


def test_gaps_examples():
    assert gap_widths([Component(0, 1), Component(3, 3)]) == [1]
    assert gap_widths([Component(0, 5)]) == []


def test_gaps_reference_line_fixture():
    comps = [Component(a, b) for a, b in REFERENCE_LINE_COMPONENTS]
    assert gap_widths(comps) == REFERENCE_LINE_GAP_WIDTHS


def test_gap_needs_width():
    # repair takes its cuts from the gaps between its components: touching
    # (a gap 0 wide) or unsorted components are refused
    for comps in ([Component(0, 3), Component(4, 6)], [Component(5, 6), Component(0, 2)]):
        with pytest.raises(ValueError, match="sorted and gap-separated"):
            repair(comps)


def test_occupancy_and_frequency_match_pixel_oracle():
    rng = random.Random(41)
    for _ in range(100):
        bitmap = random_bitmap(rng)
        rle = encode(bitmap)
        a = rng.randint(0, rle.height - 1)
        b = rng.randint(a + 1, rle.height)
        spans = [(c.x_min, c.x_max) for c in components(occupancy(rle, (a, b)))]
        assert spans == brute_components(brute_occupancy(bitmap, (a, b)))
        freq = expand_steps(column_frequency(rle, (a, b)), rle.width)
        assert freq == brute_frequency(bitmap, (a, b))
        assert pdp_column_frequency(bitmap, (a, b)) == as_steps(freq)


def test_column_frequency_steps_at_run_boundaries():
    # rows: ink [2, 5) and [7, 8); ink [4, 7); all background
    rle = RleImage(9, ((2, 3, 2, 1, 1), (4, 3, 2), (9,)))
    assert column_frequency(rle, (0, 3)) == ([0, 2, 4, 5, 7, 8], [0, 1, 2, 1, 1, 0])
    assert column_frequency(rle, (2, 3)) == ([0], [0])
    assert expand_steps(column_frequency(rle, (0, 2)), 9) == [0, 0, 1, 1, 2, 1, 1, 1, 0]


def test_column_frequency_is_bounded_by_runs_not_width():
    wide = RleImage(10**9, ((0, 10**9), (5, 10**9 - 10, 5)))
    assert column_frequency(wide, (0, 2)) == ([0, 5, 10**9 - 5, 10**9], [1, 2, 1, 0])


def test_components_sorted_disjoint_separated():
    rng = random.Random(43)
    for _ in range(100):
        rle = encode(random_bitmap(rng))
        comps = components(occupancy(rle, (0, rle.height)))
        for left, right in zip(comps, comps[1:]):
            assert right.x_min - left.x_max - 1 >= 1
