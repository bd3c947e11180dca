"""One check function per module invariant, driven by a seed.

The regular suite samples a few dozen seeds per check; the acceptance suite
sweeps all of them over 500 seeds. Each check builds its own small random
case so a failing seed reproduces standalone.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from itertools import accumulate, chain, cycle

import jsonschema
import numpy as np
import pytest

import rlseg.chars
import rlseg.pixel_baseline
import rlseg.words
from rlseg import (
    Bitmap,
    EmptyLineError,
    ThresholdMode,
    WorkCounter,
    decode,
    encode,
    evaluate_records,
    pdp_segment_line_chars,
    pdp_segment_words,
    segment_chars,
    segment_line_chars,
    segment_words,
)
from rlseg.chars import (
    DEFAULT_PARAMS,
    LineCharSegmentation,
    RepairResult,
    RoiParams,
    _run_backend,
    line_chars,
    repair,
    roi_bands,
    word_bands,
    word_chars,
)
from rlseg.cli import main
from rlseg.errors import EmptyWordError, MalformedRleError, OutOfBoundsError, ParseError
from rlseg.evaluate import BadRecordError, GroundTruthLine, match, predicted_intervals
from rlseg.pixel_baseline import (
    _backend as _pixel_backend,
    pdp_column_frequency,
    pdp_ink_row_bounds,
    pdp_locate_run,
    pdp_occupancy,
    pdp_separator_at,
    pdp_separators_at,
    pdp_word_bands,
)
from rlseg.projection import Component, components, occupancy, union
from rlseg.records import dumps, line_char_records, word_record
from rlseg.pbm import _next_token, read_pbm, write_pbm
from rlseg.rle import RleImage, RleRow, crop_columns, locate_run, read_rle, run_index, write_rle
from rlseg.words import (
    AUTO,
    Cuts,
    plan_of,
    plan_words,
    separator_at,
    separators_at,
)

from support import (
    FALLBACK_LINE,
    MERGE_OVERSIZED_WORD,
    as_steps,
    bars_line,
    boxes_line,
    brute_components,
    brute_frequency,
    brute_locate,
    brute_occupancy,
    decode_reference,
    encode_reference,
    gap_walk_reference,
    glyph_word,
    json_lines,
    line_chars_per_word,
    past_2_62_line,
    past_4096_runs_line,
    plain_record,
    plan_chars_eager,
    random_bitmap,
    random_blob_line,
    read_rle_reference,
    reference_row,
    roi_bands_reference,
    roi_from_bounds,
    rows_reference,
    scan_header_token,
    scan_p1_raster,
    shift_right,
    shifted_plan,
    split_bands,
    word_bands_reference,
    write_rle_reference,
)


def _check_spans(image, rng):
    """The image's flat spans, run counts and crops agree with its rows.

    An image stores only its spans, and its rows are built from them; the
    spans must be the ink runs the rows list, and an image built again from
    those rows must equal it and crop to the same images.
    """
    starts, stops, iptr = [], [], [0]
    for row in image.rows:
        x = 0
        for j, n in enumerate(row.runs):
            if j % 2:
                starts.append(x)
                stops.append(x + n)
            x += n
        iptr.append(len(starts))
    spans = image.spans
    assert [a.tolist() for a in spans] == [starts, stops, iptr]
    assert spans.starts.dtype == (object if image.width * image.height >= 2**62 else np.int64)
    lengths = [len(row.runs) for row in image.rows]
    for a in range(image.height):
        for b in range(a + 1, image.height + 1):
            assert image.runs_in(a, b) == sum(lengths[a:b]), (a, b)
    from_spans = RleImage._from_spans(image.width, spans)
    from_rows = RleImage(image.width, [row.runs for row in image.rows])
    assert from_rows == image
    x = rng.randrange(image.width)
    for a, b in ((0, image.width - 1), (x, rng.randint(x, image.width - 1))):
        assert crop_columns(from_spans, a, b) == crop_columns(from_rows, a, b), (a, b)


def check_codec_roundtrip(seed, tmp_path):
    rng = random.Random(seed)
    bitmap = random_bitmap(rng)
    rle = encode(bitmap)
    reference = encode_reference(bitmap)
    assert rle.rows == reference.rows and rle == reference
    assert decode(rle) == bitmap == decode_reference(rle)
    assert all(row.width == rle.width for row in rle.rows)
    _check_spans(rle, random.Random(seed))


def check_cumulative_consistency(seed, tmp_path):
    rng = random.Random(seed)
    rle = encode(random_bitmap(rng, max_h=2))
    for row in rle.rows:
        cr = row.ends
        rebuilt = (cr[0],) + tuple(cr[j] - cr[j - 1] for j in range(1, len(cr)))
        assert rebuilt == row.runs
        assert cr[-1] == rle.width


def check_locate_agrees_with_scan(seed, tmp_path):
    rng = random.Random(seed)
    bitmap = random_bitmap(rng, max_w=20, max_h=1)
    row = encode(bitmap).rows[0]
    for x in range(bitmap.width):
        assert locate_run(row, x) == brute_locate(bitmap.pixels[0], x)


def check_cached_ends(seed, tmp_path):
    rng = random.Random(seed)
    rle = encode(random_bitmap(rng))
    for row in rle.rows:
        assert row.ends == tuple(accumulate(row.runs))


def check_locate_every_row(seed, tmp_path):
    rng = random.Random(seed)
    bitmap = random_bitmap(rng, max_w=40, max_h=8)
    rle = encode(bitmap)
    for r, row in enumerate(rle.rows):
        for x in range(bitmap.width):
            assert locate_run(row, x) == brute_locate(bitmap.pixels[r], x)


def check_separators_at_matches_locate_run(seed, tmp_path):
    rng = random.Random(seed)
    rle = encode(random_bitmap(rng, max_w=40, max_h=8))
    width = rle.width
    # column 0, the last column, the first and last column of every run, a
    # duplicate, in random order
    xs = [0, width - 1, *(e for row in rle.rows for e in row.ends if e < width)]
    xs += [e - 1 for row in rle.rows for e in row.ends if e > 0]
    xs.append(rng.choice(xs))
    rng.shuffle(xs)
    seps = separators_at(rle, xs)
    assert seps == tuple(separator_at(rle, x) for x in xs)
    for sep in seps:
        assert sep.runs == tuple(locate_run(row, sep.x_mid) for row in rle.rows)
    assert separators_at(rle, ()) == ()
    bad = rng.choice([-1, width, width + rng.randint(1, 5)])
    xs.insert(rng.randint(0, len(xs)), bad)
    try:
        separators_at(rle, xs)
    except OutOfBoundsError as exc:
        assert str(exc) == f"column {bad} outside row of width {width}"
    else:
        raise AssertionError(f"column {bad} of a width-{width} image was located")


def _crop_windows(rng, px, rle):
    """Full width, one column, a random window, and windows with an edge inside ink.

    Also one column on ink and one on background, exactly one whole run, a
    window from column 0 and one ending on the last column.
    """
    width = px.shape[1]
    x = rng.randrange(width)
    a = rng.randrange(width)
    windows = [(0, width - 1), (x, x), (a, rng.randint(a, width - 1))]
    for color in (1, 0):
        cells = np.argwhere(px == color)
        if cells.size:
            c = int(cells[rng.randrange(len(cells))][1])
            windows.append((c, c))
    row = rle.rows[rng.randrange(rle.height)]
    j = rng.choice([j for j, n in enumerate(row.runs) if n])
    windows.append((row.ends[j] - row.runs[j], row.ends[j] - 1))  # one whole run
    windows.append((0, rng.randrange(width)))  # from column 0 of the leading-0 row
    windows.append((rng.randrange(width), width - 1))  # to the last column
    inside = np.argwhere(px[:, 1:] & px[:, :-1])  # (r, c): columns c and c+1 both ink
    if inside.size:
        _, c = inside[rng.randrange(len(inside))]
        c = int(c)
        windows.append((c + 1, rng.randint(c + 1, width - 1)))  # starts mid-run
        windows.append((rng.randint(0, c), c))  # ends mid-run
    # each end on a run start, a run stop (the next run's start, or the last
    # column of the run) or inside a run, in every pairing
    ends = (0, *(e for e in row.ends if e))
    kinds = {
        "start": ends[:-1],
        "stop": [c for e in ends[1:] for c in (e - 1, e) if c < width],
        "inside": [c for a, b in zip(ends, ends[1:]) for c in range(a + 1, b - 1)],
    }
    for lo in kinds.values():
        for hi in kinds.values():
            if lo and hi:
                windows.append(tuple(sorted((rng.choice(lo), rng.choice(hi)))))
    return windows


def check_crop_matches_pixel_slice(seed, tmp_path):
    rng = random.Random(seed)
    px = random_bitmap(rng).pixels.copy()
    px[0, 0] = 1  # row 0 starts with ink, so it carries a leading 0 run
    rle = encode(Bitmap(px))
    assert rle.rows[0].runs[0] == 0
    _check_spans(rle, random.Random(seed))
    for a, b in _crop_windows(rng, px, rle):
        crop = crop_columns(rle, a, b)
        assert crop == encode(Bitmap(px[:, a : b + 1])), (a, b)
        _check_spans(crop, random.Random(seed))
        # Each row of the view holds plain-int tuples: its runs and their prefix sums.
        for row in crop.rows:
            assert row.ends == tuple(accumulate(row.runs)), (a, b, row.runs)
            assert row.width == b - a + 1, (a, b, row.runs)
            assert type(row.runs) is tuple and type(row.ends) is tuple
            assert all(type(n) is int for n in row.runs + row.ends)
            # the checking constructor accepts it
            assert RleImage(b - a + 1, [row.runs]).rows[0] == row


def _edge_bitmap(rng):
    """A random bitmap, one column wide at times, whose rows are each blank,
    all ink or random, so rows start and end in ink or background."""
    width, height = rng.choice([1, rng.randint(2, 40)]), rng.randint(1, 6)
    px = np.array([[rng.random() for _ in range(width)] for _ in range(height)]) < 0.5
    for row in px:
        kind = rng.randrange(4)
        if kind < 2:
            row[:] = kind
    return Bitmap(px.astype(np.uint8))


def _random_runs(rng, width):
    """A run list of width: up to four color changes, ink first at times."""
    cuts = sorted({rng.randrange(1, width) for _ in range(rng.randint(0, 4))} if width > 1 else ())
    runs = [b - a for a, b in zip([0, *cuts], [*cuts, width])]
    return [0, *runs] if rng.random() < 0.5 else runs


def _writer_cases(rng):
    """Images for write_rle: encoded random bitmaps and crops of them, and
    run lists by hand with widths of 1 to 20 digits (int64 spans up to just
    below 2**62, object spans beyond) and an object-dtype width past 2**64."""
    image = encode(_edge_bitmap(rng))
    yield image
    x = rng.randrange(image.width)
    yield crop_columns(image, x, rng.randint(x, image.width - 1))
    height = rng.randint(1, 4)
    digits = rng.randint(1, 20)
    for width in (rng.randrange(10 ** (digits - 1), 10**digits), 2**62 // height - 1, 2**64 + 5):
        yield RleImage(width, [_random_runs(rng, width) for _ in range(height)])


def check_write_rle_matches_reference(seed, tmp_path):
    """write_rle's bytes and the rows view equal the per-row references, and
    writing builds no rows."""
    rng = random.Random(seed)
    for case, image in enumerate(_writer_cases(rng)):
        path, expected = tmp_path / f"w{seed}_{case}.rle", tmp_path / f"r{seed}_{case}.rle"
        write_rle(image, path)
        assert "rows" not in vars(image)
        write_rle_reference(image, expected)
        assert path.read_bytes() == expected.read_bytes(), (image.width, case)
        assert image.rows == rows_reference(image), (image.width, case)
        assert read_rle(path) == image


_ROW_ALPHABET = "0123456789 \t\r+-_x\u00b2"


def _random_row_line(rng, width):
    """A row line of `width`, sometimes damaged, or random alphabet soup."""
    if rng.random() < 0.1:
        return ""
    if rng.random() < 0.2:
        return "".join(rng.choice(_ROW_ALPHABET) for _ in range(rng.randint(1, 6)))
    cuts = sorted(rng.sample(range(1, width), rng.randint(0, min(3, width - 1))))
    runs = [b - a for a, b in zip([0, *cuts], [*cuts, width])]
    if rng.random() < 0.3:
        runs.insert(0, 0)
    line = " ".join(map(str, runs))
    damage = rng.randrange(9)  # 0, 7 and 8: left intact
    if damage == 1:
        line = " " + line
    elif damage == 2:
        line += " "
    elif damage == 3:
        line = line.replace(" ", "  ", 1)
    elif damage == 4:
        line += "\r"  # a CRLF line ending
    elif damage in (5, 6):  # one more character, a non-digit for damage 6
        i = rng.randint(0, len(line))
        extra = rng.choice(_ROW_ALPHABET[10:] if damage == 6 else _ROW_ALPHABET)
        line = line[:i] + extra + line[i:]
    return line


def _reference_row_error(lines, width):
    """Line number of the first bad row by the per-token predicate, or None."""
    for lineno, line in enumerate(lines, start=2):
        tokens = line.split(" ")
        if any(not tok or not tok.isascii() or not tok.isdigit() for tok in tokens):
            return lineno
        runs = [int(tok) for tok in tokens]
        if 0 in runs[1:] or sum(runs) != width:
            return lineno
    return None


def check_read_rle_row_syntax(seed, tmp_path):
    rng = random.Random(seed)
    width = rng.randint(1, 12)
    lines = [_random_row_line(rng, width) for _ in range(rng.randint(1, 3))]
    text = f"RLE1 {width} {len(lines)}\n" + "".join(line + "\n" for line in lines)
    path = tmp_path / f"rows{seed}.rle"
    path.write_bytes(text.encode("utf-8"))
    expected = 0 if not text.isascii() else _reference_row_error(lines, width)
    try:
        rle = read_rle(path)
    except ParseError as exc:
        assert exc.line == expected, (lines, exc.line, expected)
    else:
        assert expected is None, lines
        assert [" ".join(map(str, row.runs)) for row in rle.rows] == [
            " ".join(str(int(tok)) for tok in line.split(" ")) for line in lines
        ]


def _bulk_width(rng, height):
    """A header width: small, above int32, with width * height next to 2**62
    on either side, or large enough for a row to wrap an int64 sum."""
    kind = rng.randrange(4)
    if kind == 0:
        return rng.randint(1, 12)
    if kind == 1:
        return rng.randint(2**31, 2**40)
    if kind == 2:
        return 2**62 // height + rng.randint(-1, 1)
    return rng.randint(2**62 // height // 2, 2**62 // height - 1)


def _bulk_row(rng, width):
    """One row line of `width`, intact, with zero-padded tokens or one token,
    or broken in a way one of read_rle's row checks must catch."""
    cuts = sorted({rng.randrange(1, width) for _ in range(rng.randint(0, 3))} if width > 1 else ())
    runs = [b - a for a, b in zip([0, *cuts], [*cuts, width])]
    if rng.random() < 0.3:
        runs.insert(0, 0)
    tokens = [str(n) for n in runs]
    i = rng.randrange(len(tokens))
    fault = rng.randrange(16)  # 8 and up: left intact
    if fault == 0:  # zero past the first run
        tokens.insert(rng.randint(1, len(tokens)), "0")
    elif fault == 1:  # one token
        tokens = [str(width)]
    elif fault == 2:  # "007"-style tokens
        tokens[i] = "00" + tokens[i]
    elif fault == 3 or (fault == 6 and width < 2**58):  # sums above the width
        tokens[i] = str(int(tokens[i]) + rng.randint(1, 3))
    elif fault == 4:  # sums below the width
        tokens[-1] = str(int(tokens[-1]) - 1)
    elif fault == 5:  # a 25-digit token, which saturates an int64
        tokens[i] = str(rng.randrange(10**24, 10**25))
    elif fault == 6:  # tokens at most the width that sum to width + 2**64
        total = width + 2**64
        k = -(-total // width)
        base, extra = divmod(total, k)
        tokens = [str(base + 1)] * extra + [str(base)] * (k - extra)
    elif fault == 7:  # a syntax error, so every line is checked on its own
        tokens.append(rng.choice(["x", "", "-1"]))
    return " ".join(tokens)


def check_read_rle_bulk_matches_reference(seed, tmp_path):
    rng = random.Random(seed)
    for case in range(6):
        height = rng.randint(1, 4)
        width = _bulk_width(rng, height)
        lines = [_bulk_row(rng, width) for _ in range(height)]
        path = tmp_path / f"bulk{seed}_{case}.rle"
        path.write_text(f"RLE1 {width} {height}\n" + "".join(line + "\n" for line in lines))
        outcome = []
        for reader in (read_rle_reference, read_rle):
            try:
                outcome.append(reader(path))
            except ParseError as exc:
                outcome.append((exc.line, exc.message))
        expected, got = outcome
        assert got == expected, (width, lines, got, expected)
        if not isinstance(got, RleImage):
            continue
        _check_spans(got, random.Random(seed))
        for row in got.rows:
            assert all(type(n) is int for n in row.runs + row.ends)
            assert row.ends == tuple(accumulate(row.runs))
            assert row.width == width


def _index_bitmap(rng) -> Bitmap:
    """Up to 12 x 6 pixels whose rows are each blank, full ink, ink at column
    0 (a leading 0 token), ink in the last column, or random."""
    width, height = rng.choice((1, rng.randint(2, 12))), rng.randint(1, 6)
    px = (np.array([[rng.random() for _ in range(width)] for _ in range(height)]) < 0.5)
    px = px.astype(np.uint8)
    for row in px:
        kind = rng.randrange(5)
        if kind == 0:
            row[:] = 0  # blank
        elif kind == 1:
            row[:] = 1  # full ink
        elif kind == 2:
            row[0] = 1  # a leading 0 token
        elif kind == 3:
            row[-1] = 1  # the last ink run reaches the width
    return Bitmap(px)


def check_read_rle_hands_on_its_index(seed, tmp_path):
    """read_rle keeps its parse's prefix sums as the image's offset_tokens,
    and RleImage(width, rows) keeps the running sum of its run lists: both
    equal what an image of the same spans builds on first use, on the bulk
    path and, past 2**62 cells, the per-line one, and separators_at on the
    read image is separator_at at every column."""
    rng = random.Random(seed)
    narrow, wide = tmp_path / f"index{seed}.rle", tmp_path / f"index{seed}_wide.rle"
    write_rle(encode(_index_bitmap(rng)), narrow)
    write_rle(past_2_62_line(rng.choice((0, 2**60)), 3 * 2**61), wide)
    for path in (narrow, wide):
        image = read_rle(path)
        built = RleImage._from_spans(image.width, image.spans)
        assert "offset_tokens" not in vars(built)
        from_rows = RleImage(image.width, [row.runs for row in image.rows])
        for kept in (image, from_rows):
            assert "offset_tokens" in vars(kept), path
            for got, want in zip(kept.offset_tokens, built.offset_tokens):
                assert got.dtype == want.dtype and np.array_equal(got, want), path
        starts, stops, _ = image.spans
        xs = [0, image.width - 1, *starts.tolist(), *(stops - 1).tolist()]
        xs = range(image.width) if image.width <= 12 else sorted(xs)
        assert separators_at(image, xs) == tuple(separator_at(image, x) for x in xs), path


def check_run_index_matches_locate_run(seed, tmp_path):
    """run_index(image, xs)[r, i] is locate_run(row r, xs[i]) for every column,
    on an image read from a file, one built from its spans and one built from
    its run lists: of rows blank, full ink, with a leading 0 token or ending
    in ink, and of a past-2**62 line on dtype=object, at the first and last
    column of every run there. Rows and pixels are the references."""
    rng = random.Random(seed)
    bitmap = _index_bitmap(rng)
    wide = past_2_62_line(rng.choice((0, 2**60)), 3 * 2**61)
    for k, source in enumerate((encode(bitmap), wide)):
        runs = [row.runs for row in source.rows]
        rows = [RleRow(r, tuple(accumulate(r))) for r in runs]
        path = tmp_path / f"run_index{seed}_{k}.rle"
        write_rle(source, path)
        images = (read_rle(path), RleImage._from_spans(source.width, source.spans))
        if source is wide:
            xs = {c for row in rows for e in row.ends for c in (e - 1, e)}
            xs = [x for x in xs if 0 <= x < source.width]
        else:
            xs = list(range(source.width))
            for r, row in enumerate(rows):
                assert [locate_run(row, x) for x in xs] == [
                    brute_locate(bitmap.pixels[r], x) for x in xs
                ]
        rng.shuffle(xs)
        for image in (*images, RleImage(source.width, runs)):
            got = run_index(image, xs)
            assert got.shape == (image.height, len(xs))
            want = [[locate_run(row, x) for x in xs] for row in rows]
            assert got.tolist() == want, (k, xs)


def check_row_validation_reference(seed, tmp_path):
    rng = random.Random(seed)
    makers = [
        lambda: rng.randint(1, 9),
        lambda: rng.randint(-3, 0),
        lambda: rng.choice([True, False]),
        lambda: np.int64(rng.randint(-2, 9)),
        lambda: rng.uniform(-1.5, 9.5),
    ]
    values = tuple(rng.choice(makers)() for _ in range(rng.randint(0, 6)))
    if values and rng.random() < 0.3:
        values = (0,) + values
    expected = reference_row(values)
    if expected == (0,):  # a valid run list, but no image is 0 columns wide
        expected = "runs sum to 0, expected width 1"
    width = sum(expected) if isinstance(expected, tuple) else 1
    try:
        row = RleImage(width, [values]).rows[0]
    except MalformedRleError as exc:
        assert str(exc) == f"row 0: {expected}", (values, str(exc))
    else:
        assert row.runs == expected, values
        assert all(type(n) is int for n in row.runs + row.ends)


def _pairs(comps):
    return [(c.x_min, c.x_max) for c in comps]


# Past 2**62 a file's spans are exact-int object arrays, not int64.
_PAST_INT64 = 2**62 + 5


def _union_inputs(starts, stops, width):
    """(shift, starts, stops): the same spans as lists, as int64 arrays, and as
    dtype=object arrays shifted by _PAST_INT64. Then, as lists and as arrays
    (int64 below 2**63, object from there), shifted so that the width ends
    just below, or at, 2**8, 2**16, 2**32 and 2**64, where the type union
    sorts in (np.min_scalar_type of the width) widens, and so that the spans
    straddle it."""
    yield 0, starts, stops
    yield 0, np.array(starts, dtype=np.int64), np.array(stops, dtype=np.int64)
    big = [[v + _PAST_INT64 for v in vs] for vs in (starts, stops)]
    yield _PAST_INT64, np.array(big[0], dtype=object), np.array(big[1], dtype=object)
    for bits in (8, 16, 32, 64):
        for shift in (2**bits - 1 - width, 2**bits - width, 2**bits - 1 - width // 2):
            first, last = ([v + shift for v in vs] for vs in (starts, stops))
            yield shift, first, last
            dtype = np.int64 if width + shift < 2**63 else object
            yield shift, np.array(first, dtype=dtype), np.array(last, dtype=dtype)


def _exact_int_pairs(spans, shift=0):
    """An occupancy's (x_min, x_max) pairs moved back by shift; every bound
    must be an int, since json cannot write a NumPy scalar."""
    assert all(type(lo) is int and type(hi) is int for lo, hi in spans), spans
    return [(lo - shift, hi - shift) for lo, hi in spans]


def check_union_matches_column_or(seed, tmp_path):
    rng = random.Random(seed)
    width = rng.randint(1, 40)
    starts, stops = [], []
    for _ in range(rng.randint(0, 8)):
        a = rng.randrange(width)
        b = rng.randint(a + 1, width)
        starts.append(a)
        stops.append(b)
        if rng.random() < 0.5 and b < width:  # a span touching this one
            starts.append(b)
            stops.append(rng.randint(b + 1, width))
        if rng.random() < 0.5 and b - a > 2:  # a span nested inside it
            starts.append(a + 1)
            stops.append(b - 1)
    bits = [False] * width
    for a, b in zip(starts, stops):
        for x in range(a, b):
            bits[x] = True
    for shift, first, last in _union_inputs(starts, stops, width):
        occ = union(width + shift, first, last)
        assert occ.width == width + shift
        assert _exact_int_pairs(occ.spans, shift) == brute_components(bits)


def check_projection_oracle_equivalence(seed, tmp_path):
    rng = random.Random(seed)
    bitmap = random_bitmap(rng)
    rle = encode(bitmap)
    a = rng.randint(0, bitmap.height - 1)
    b = rng.randint(a + 1, bitmap.height)
    cdp = occupancy(rle, (a, b))
    pdp = pdp_occupancy(bitmap, (a, b))
    assert cdp == pdp
    assert _pairs(components(cdp)) == brute_components(brute_occupancy(bitmap, (a, b)))
    assert components(cdp) == components(pdp)


def check_component_list_invariants(seed, tmp_path):
    rng = random.Random(seed)
    bitmap = random_bitmap(rng)
    rle = encode(bitmap)
    comps = components(occupancy(rle, (0, rle.height)))
    assert _pairs(comps) == brute_components(brute_occupancy(bitmap, (0, rle.height)))
    for left, right in zip(comps, comps[1:]):
        assert right.x_min - left.x_max - 1 >= 1
        assert left.length == left.x_max - left.x_min + 1


def check_occupancy_work_counters(seed, tmp_path):
    rng = random.Random(seed)
    bitmap = random_bitmap(rng)
    rle = encode(bitmap)
    a = rng.randint(0, bitmap.height - 1)
    b = rng.randint(a + 1, bitmap.height)
    cdp_counter, pdp_counter = WorkCounter(), WorkCounter()
    occupancy(rle, (a, b), cdp_counter)
    pdp_occupancy(bitmap, (a, b), pdp_counter)
    assert cdp_counter.count == sum(len(rle.rows[r].runs) for r in range(a, b))
    assert pdp_counter.count == (b - a) * bitmap.width


def _pdp_cases(rng):
    """A random bitmap; one with an all-ink row and ink in column 0 and in the
    last column; one with a single inked row; a 1-column image; an
    _edge_bitmap (blank, all-ink and random rows); and one of one-column
    spans, every other column inked from column 0 or 1 on."""
    px = random_bitmap(rng).pixels.copy()
    height, width = px.shape
    single = np.zeros_like(px)
    single[rng.randrange(height), rng.sample(range(width), rng.randint(1, width))] = 1
    dots = np.zeros((rng.randint(1, 4), rng.randint(1, 30)), np.uint8)
    dots[rng.randrange(dots.shape[0]), rng.randint(0, 1) :: 2] = 1
    cases = [Bitmap(px), Bitmap(single), random_bitmap(rng, max_w=1)]
    cases += [_edge_bitmap(rng), Bitmap(dots)]
    px[rng.randrange(height)] = 1
    px[rng.randrange(height), 0] = px[rng.randrange(height), width - 1] = 1
    return [*cases, Bitmap(px)]


def check_pdp_primitives_match_brute(seed, tmp_path):
    """The pixel oracle's scans equal brute-force ones, and return plain ints.

    A NumPy integer among the run indices would knock records' int fast paths
    off, so every index is checked to be exactly an int.
    """
    rng = random.Random(seed)
    for bitmap in _pdp_cases(rng):
        height, width = bitmap.height, bitmap.width
        rows = bitmap.pixels.tolist()
        a = rng.randint(0, height - 1)
        for span in {(0, height), (a, rng.randint(a + 1, height))}:
            occ = pdp_occupancy(bitmap, span)
            assert occ.width == width
            assert _exact_int_pairs(occ.spans) == brute_components(brute_occupancy(bitmap, span))
            xs, counts = pdp_column_frequency(bitmap, span)
            assert all(type(v) is int for v in xs + counts)
            assert (xs, counts) == as_steps(brute_frequency(bitmap, span))
        inked = [r for r, row in enumerate(rows) if any(row)]
        try:
            bounds = pdp_ink_row_bounds(bitmap)
        except EmptyWordError:
            assert not inked
        else:
            assert bounds == (inked[0], inked[-1]) and all(type(r) is int for r in bounds)
        for row in rows:
            for x in range(width):
                index = pdp_locate_run(row, x)
                assert type(index) is int and index == brute_locate(row, x), (row, x)
        x = rng.randrange(width)
        sep = pdp_separator_at(bitmap, x)
        assert sep.runs == tuple(brute_locate(row, x) for row in rows)
        assert all(type(j) is int for j in sep.runs)
        for bad in (-1, width, width + rng.randint(1, 5)):
            try:
                pdp_separator_at(bitmap, bad)
            except OutOfBoundsError as exc:
                assert str(exc) == f"column {bad} outside row of width {width}"
            else:
                raise AssertionError(f"column {bad} of a width-{width} bitmap was located")


def _band_or_line(rng):
    """(bitmap, words, t): one to three words side by side, one blank column
    apart, each of whose bottom-band spans touch, overlap, nest in, hold or
    miss its top-band spans, or are left out. Ink in the first and last rows
    keeps every word's ink box the full height, so the bands are
    roi_from_bounds and split_bands of it; a ROI under 3 rows leaves the
    bottom band empty, and the rows t trims can keep a band blank."""
    height = rng.randint(1, 2) if rng.random() < 0.2 else rng.randint(3, 12)
    t = rng.choice([0.0, 0.2, 0.4])
    bands = split_bands(*roi_from_bounds(0, height - 1, t)[:2])
    pieces, words, x = [], [], 0
    for _ in range(rng.randint(1, 3)):
        width = rng.randint(1, 24)
        px = np.zeros((height, width), np.uint8)
        px[0, rng.randrange(width)] = px[-1, rng.randrange(width)] = 1
        top = brute_components([rng.random() < 0.5 for _ in range(width)])
        bottom = []
        for lo, hi in top:
            kind = rng.choice(["touch", "overlap", "nest", "hold", "miss", "none"])
            if kind == "touch":
                bottom.append(rng.choice([(hi + 1, hi + 2), (lo - 2, lo - 1)]))
            elif kind == "overlap":
                bottom.append((lo + 1, hi + 2))
            elif kind == "nest":
                bottom.append((lo + 1, hi - 1))
            elif kind == "hold":
                bottom.append((lo - 1, hi + 1))
            elif kind == "miss":
                bottom.append((hi + 2, hi + 3))
        for rows, spans in ((bands.top, top), (bands.bottom, bottom)):
            for lo, hi in spans:
                px[rows.start : rows.stop, max(lo, 0) : hi + 1] = 1
        pieces += [px, np.zeros((height, 1), np.uint8)]
        words.append(Component(x, x + width - 1))
        x += width + 1
    return Bitmap(np.hstack(pieces)), words, t


def check_pdp_band_or_matches_union(seed, tmp_path):
    """pdp_word_bands ORs each word's top and bottom band as union of the two
    bands' pdp_occupancy spans does, where their spans touch, overlap or
    nest, or a band is blank or empty."""
    rng = random.Random(seed)
    bitmap, words, t = _band_or_line(rng)
    got = pdp_word_bands(bitmap, words, t)
    lo, hi, wptr = (a.tolist() for a in got[7:])
    rows = zip(*(a.tolist() for a in (got.roi_start, got.mid_start, got.mid_stop, got.roi_stop)))
    for w, (start, m0, m1, stop), a, b in zip(words, rows, wptr, wptr[1:]):
        word = Bitmap(bitmap.pixels[:, w.x_min : w.x_max + 1])
        spans = [
            span
            for band in ((start, m0), (m1, stop))
            if band[0] < band[1]
            for span in pdp_occupancy(word, band).spans
        ]
        want = union(word.width, [s for s, _ in spans], [e + 1 for _, e in spans]).spans
        assert list(zip(lo[a:b], hi[a:b])) == [(s + w.x_min, e + w.x_min) for s, e in want]


def check_pdp_separators_at_matches_references(seed, tmp_path):
    """The oracle's batch cut location equals one pdp_separator_at per cut and
    the run domain's separators_at, and names the first bad column the same way."""
    rng = random.Random(seed)
    bitmap = _edge_bitmap(rng)
    rle, width = encode(bitmap), bitmap.width
    # random columns, column 0 and the last at times, a repeat, in random order
    xs = [rng.randrange(width) for _ in range(rng.randint(0, 5))]
    xs += [x for x in (0, width - 1) if rng.random() < 0.5]
    xs += [rng.choice(xs)] if xs else []
    rng.shuffle(xs)
    seps = pdp_separators_at(bitmap, xs)
    assert seps == tuple(pdp_separator_at(bitmap, x) for x in xs) == separators_at(rle, xs)
    assert all(type(j) is int for sep in seps for j in sep.runs)
    assert pdp_separators_at(bitmap, []) == ()
    bad = rng.choice([-1, width, width + rng.randint(1, 5)])
    xs.insert(rng.randint(0, len(xs)), bad)
    xs.insert(rng.randint(xs.index(bad) + 1, len(xs)), rng.choice([-2, width + 6]))
    for locate, image in ((pdp_separators_at, bitmap), (separators_at, rle)):
        try:
            locate(image, xs)
        except OutOfBoundsError as exc:
            assert str(exc) == f"column {bad} outside row of width {width}", locate
        else:
            raise AssertionError(f"{locate.__name__} located column {bad} of width {width}")


def check_cuts_match_separator_at(seed, tmp_path):
    """The Cuts both domains hand over equal one separator_at per column, for
    unsorted columns with repeats: as a whole, in any slice, index by index
    and as dumps writes them. The run and pixel arrays are equal, and no
    columns give 0 cuts, written as []. Every fourth seed also locates on a
    line of dtype=object spans (past 2**62 columns, run domain only), and
    every fourth on one with run indices past 4096."""
    rng = random.Random(seed)
    lines = [random_blob_line(rng)]
    if seed % 4 == 1:
        lines.append(past_2_62_line(2**60, 3 * 2**61))
    if seed % 4 == 3:
        lines.append(past_4096_runs_line())
    for line in lines:
        width = line.width
        xs = [rng.randrange(width) for _ in range(rng.randint(1, 6))]
        xs += [width - 1 - rng.randrange(min(width, 200)), rng.choice(xs)]
        rng.shuffle(xs)
        n, expected = len(xs), tuple(separator_at(line, x) for x in xs)
        domains = [(separators_at, line)]
        if width * line.height < 2**62:
            domains.append((pdp_separators_at, decode(line)))
        located = []
        for locate, image in domains:
            cuts = locate(image, xs)
            assert type(cuts) is Cuts and len(cuts) == n
            assert tuple(cuts) == expected
            for _ in range(4):
                i = rng.randrange(-n, n)
                a, b = rng.randint(-n - 1, n + 1), rng.randint(-n - 1, n + 1)
                step = rng.choice([None, 1, 2, -1])
                part = cuts[a:b:step]
                assert type(part) is Cuts and part == expected[a:b:step], (a, b, step)
                assert cuts[i] == expected[i]
            record = {"separators": cuts}
            assert dumps([record]) == json_lines([record])
            none = locate(image, [])
            assert type(none) is Cuts and len(none) == 0
            assert dumps([{"separators": none}]) == '{"separators":[]}'
            located.append(cuts.runs)
        if len(located) == 2:
            assert np.array_equal(*located)


def check_separators_on_background(seed, tmp_path):
    rng = random.Random(seed)
    line = random_blob_line(rng)
    seg = segment_words(line)
    px = decode(line).pixels
    for sep in seg.separators:
        assert not px[:, sep.x_mid].any()


def check_threshold_monotonicity(seed, tmp_path):
    rng = random.Random(seed)
    line = random_blob_line(rng)
    thresholds = sorted(rng.uniform(0, 20) for _ in range(4))
    counts = [
        len(segment_words(line, ThresholdMode("fixed", t)).words) for t in thresholds
    ]
    assert counts == sorted(counts, reverse=True)


def check_word_idempotence(seed, tmp_path):
    rng = random.Random(seed)
    line = random_blob_line(rng)
    seg = segment_words(line)
    for word in seg.words:
        sub = crop_columns(line, word.x_min, word.x_max)
        again = segment_words(sub, ThresholdMode("fixed", seg.threshold_used))
        assert len(again.words) == 1


def check_translation_equivariance(seed, tmp_path):
    rng = random.Random(seed)
    line = random_blob_line(rng)
    k = rng.randint(1, 30)
    shifted = shift_right(line, k)
    base = segment_words(line)
    moved = segment_words(shifted)
    assert moved.threshold_used == base.threshold_used
    assert [(w.x_min + k, w.x_max + k) for w in base.words] == [
        (w.x_min, w.x_max) for w in moved.words
    ]
    assert [s.x_mid + k for s in base.separators] == [s.x_mid for s in moved.separators]


def check_run_coordinate_contract(seed, tmp_path):
    rng = random.Random(seed)
    line = random_blob_line(rng)
    result = segment_line_chars(line)
    seps = list(result.words.separators)
    for seg in result.per_word:
        seps.extend(seg.separators)
    for sep in seps:
        assert len(sep.runs) == line.height
        for row, run_index in zip(line.rows, sep.runs):
            assert locate_run(row, sep.x_mid) == run_index
    # the records carry the same contract: runs[r] is row r's run at x
    records = [word_record("p", result.words), *line_char_records("p", result)]
    sep_records = [s for rec in map(plain_record, records) for s in rec["separators"]]
    assert len(sep_records) == len(seps)
    for rec in sep_records:
        assert len(rec["runs"]) == line.height
        for row, run_index in zip(line.rows, rec["runs"]):
            assert type(run_index) is int
            assert locate_run(row, rec["x"]) == run_index


def check_char_gap_cuts_on_or_false(seed, tmp_path):
    rng = random.Random(seed)
    bitmap = random_bitmap(rng, max_w=60, max_h=20, density=0.3)
    word = encode(bitmap)
    if not any(len(row.runs) > 1 for row in word.rows):
        return
    seg = segment_chars(word)
    top = min(r for r in range(word.height) if len(word.rows[r].runs) > 1)
    bot = max(r for r in range(word.height) if len(word.rows[r].runs) > 1)
    bands = split_bands(*roi_from_bounds(top, bot, DEFAULT_PARAMS.t)[:2])
    px = decode(word).pixels
    inserted = {r.x for r in seg.repairs if r.op == "inserted"}
    for sep in seg.separators:
        if sep.x_mid in inserted:
            continue
        column = px[:, sep.x_mid]
        assert not column[bands.top.start : bands.top.stop].any()
        assert not column[bands.bottom.start : bands.bottom.stop].any()


def _random_components(rng, n=None):
    comps = []
    x = rng.randint(0, 3)
    for _ in range(n or rng.randint(1, 7)):
        w = rng.randint(1, 14)
        comps.append(Component(x, x + w - 1))
        x += w + rng.randint(2, 8)
    return comps, x


def check_inserted_cuts_at_frequency_minima(seed, tmp_path):
    rng = random.Random(seed)
    # alpha low enough that no merges fire, isolating the insertion rule
    comps, width = _random_components(rng)
    params = RoiParams(t=0.2, alpha=0.05, beta=1.3)
    freq = [rng.randint(0, 9) for _ in range(width + 4)]
    mean = sum(c.length for c in comps) / len(comps)
    if any(c.length < params.alpha * mean for c in comps):
        return
    result = repair(comps, params, lambda: as_steps(freq))
    min_piece = max(1, math.ceil(params.alpha * mean))
    expected = []
    for comp in comps:
        if comp.length > params.beta * mean:
            lo, hi = comp.x_min + min_piece, comp.x_max - min_piece
            if lo <= hi:
                expected.append(min(range(lo, hi + 1), key=lambda x: (freq[x], x)))
    assert [r.x for r in result.repairs if r.op == "inserted"] == expected


def check_plan_words_matches_gap_walk(seed, tmp_path):
    """plan_words equals the gap-walk reference under auto, scale and fixed,
    including a fixed threshold equal to one of the gap widths and fixed:0."""
    rng = random.Random(seed)
    comps, _ = _random_components(rng)
    widths = [b.x_min - a.x_max - 1 for a, b in zip(comps, comps[1:])]
    modes = [
        ThresholdMode("auto"),
        ThresholdMode("scale", rng.choice([0.5, 1.0, 1.5, rng.uniform(0.1, 3.0)])),
        ThresholdMode("fixed", 0),
        ThresholdMode("fixed", rng.choice(widths or [3])),
        ThresholdMode("fixed", rng.uniform(0, 10)),
    ]
    for mode in modes:
        assert plan_words(comps, mode) == gap_walk_reference(comps, mode), (comps, mode)


def check_repair_cuts_are_gap_midpoints(seed, tmp_path):
    """repair starts from the gap midpoints: apart from the cuts it inserts,
    the cuts it keeps and those it removes are exactly the floor midpoints of
    the input's gaps; every char it returns is a valid interval."""
    rng = random.Random(seed)
    comps, width = _random_components(rng)
    params = RoiParams(t=0.2, alpha=rng.uniform(0.1, 0.9), beta=rng.uniform(1.05, 3.0))
    freq = [rng.randint(0, 9) for _ in range(width + 4)]
    result = repair(comps, params, lambda: as_steps(freq))
    inserted = {op.x for op in result.repairs if op.op == "inserted"}
    removed = [op.x for op in result.repairs if op.op == "removed"]
    kept = [x for x in result.cuts if x not in inserted]
    midpoints = [(a.x_max + b.x_min) // 2 for a, b in zip(comps, comps[1:])]
    assert sorted(kept + removed) == midpoints
    assert all(0 <= c.x_min <= c.x_max for c in result.chars)


def _assert_separated(intervals, separators, height):
    """At least one interval, one separator strictly inside each gap, and a
    run index per row of the line for every separator."""
    assert type(intervals) is tuple and type(separators) is Cuts
    assert intervals, "a segmentation needs at least one interval"
    assert len(separators) == len(intervals) - 1, (intervals, separators)
    for left, right, sep in zip(intervals, intervals[1:], separators):
        assert left.x_max < sep.x_mid < right.x_min, (left, sep, right)
        assert type(sep.runs) is tuple and len(sep.runs) == height, sep


def check_segment_intervals_in_bounds(seed, tmp_path):
    """Every word and char of both pipelines satisfies 0 <= x_min <= x_max < width,
    and every word and char segmentation is well formed: the invariants its
    named tuple does not check when it is built."""
    rng = random.Random(seed)
    line = random_blob_line(rng)
    try:
        cdp = segment_line_chars(line)
    except EmptyLineError:
        return
    for seg in (cdp, pdp_segment_line_chars(decode(line))):
        words = seg.words
        assert type(words.threshold_used) is float, words.threshold_used
        _assert_separated(words.words, words.separators, line.height)
        assert len(seg.per_word) == len(words.words)
        intervals = list(words.words)
        for word_seg in seg.per_word:
            _assert_separated(word_seg.chars, word_seg.separators, line.height)
            assert type(word_seg.repairs) is tuple
            assert all(op.op in ("removed", "inserted") for op in word_seg.repairs)
            intervals.extend(word_seg.chars)
        assert all(0 <= c.x_min <= c.x_max < line.width for c in intervals), intervals


def check_merge_completeness(seed, tmp_path):
    rng = random.Random(seed)
    comps, width = _random_components(rng)
    alpha = rng.uniform(0.1, 0.9)
    beta = rng.uniform(1.05, 3.0)
    freq = [rng.randint(0, 9) for _ in range(width + 4)]
    mean = sum(c.length for c in comps) / len(comps)
    result = repair(comps, RoiParams(t=0.2, alpha=alpha, beta=beta), lambda: as_steps(freq))
    assert all(c.length >= alpha * mean for c in result.chars)
    assert len(result.cuts) == len(result.chars) - 1


def check_band_partition(seed, tmp_path):
    rng = random.Random(seed)
    start = rng.randint(0, 10)
    stop = start + rng.randint(1, 40)
    ends = roi_bands(np.array([start]), np.array([stop - 1]), 0.0)  # t = 0: the ink box
    roi_start, roi_stop, _, mid_start, mid_stop = (a.item() for a in ends)
    assert (roi_start, roi_stop) == (start, stop)
    top, middle, bottom = mid_start - start, mid_stop - mid_start, stop - mid_stop
    assert 0 <= bottom <= middle <= top <= bottom + 1, (top, middle, bottom)


def check_roi_bands_match_scalar_helpers(seed, tmp_path):
    """roi_bands, which trims and bands every word at once in float64 and
    int arrays, equals roi_from_bounds and split_bands word by word, for
    every ink height 1..4096 at a random first row and a random t."""
    rng = random.Random(seed)
    t = rng.choice([rng.uniform(0, 0.5), rng.uniform(0.49, 0.5), rng.choice([0.1, 0.3, 0.45])])
    top = np.array([rng.randint(0, 50) for _ in range(4096)])
    bot = top + np.arange(4096)
    got = [a.tolist() for a in roi_bands(top, bot, t)]
    assert got == roi_bands_reference(top.tolist(), bot.tolist(), t), t


def check_roi_monotonic(seed, tmp_path):
    rng = random.Random(seed)
    top = rng.randint(0, 5)
    bot = top + rng.randint(0, 40)
    t1 = rng.uniform(0, 0.49)
    t2 = rng.uniform(t1, 0.49)
    r1, r2 = (roi_bands(np.array([top]), np.array([bot]), t)[:2] for t in (t1, t2))
    assert r1[0] <= r2[0] and r2[1] <= r1[1]


def check_char_determinism(seed, tmp_path):
    rng = random.Random(seed)
    line = random_blob_line(rng)
    first = segment_line_chars(line)
    second = segment_line_chars(line)
    assert first == second
    assert dumps(line_char_records("d", first)) == dumps(line_char_records("d", second))


def _plan_of(seg) -> RepairResult:
    """A CharSegmentation as the plan it was located from."""
    return RepairResult(seg.chars, tuple(sep.x_mid for sep in seg.separators), seg.repairs)


def _one_word(w: Component) -> tuple:
    """The word plan of a line whose one word is w."""
    return (w,), [], 0.0


def check_plan_chars_in_line_coordinates(seed, tmp_path):
    """Translation invariance: a word's plan inside its line equals the plan
    of its crop shifted by its x_min, on both domains. The oracle counts the
    same pixels either way, as it plans each word on its crop in both."""
    rng = random.Random(seed)
    line = random_blob_line(rng)
    params = RoiParams(
        rng.choice([0.0, 0.2, 0.4]), rng.choice([0.2, 0.33, 0.6]), rng.choice([1.1, 1.75])
    )
    words = segment_words(line)
    domains = ((_run_backend(), line, False), (_pixel_backend(), decode(line), True))
    for backend, image, same_work in domains:
        counter, word_counter = WorkCounter(), WorkCounter()
        in_line = line_chars(backend, image, plan_of(words), params, counter)
        for w, seg in zip(words.words, in_line.per_word):
            word = backend.crop(image, w.x_min, w.x_max)
            alone = word_chars(backend, word, params, word_counter)
            assert _plan_of(seg) == shifted_plan(_plan_of(alone), w.x_min), w
        if same_work:
            assert counter.count == word_counter.count


def check_plan_chars_matches_eager_reference(seed, tmp_path):
    """line_chars, whose plan_chars projects a word's middle band only when
    repair must split, equals the reference that projects every word's
    middle band, on both domains, with params that split (beta 1.1) and that
    do not (1.75). Each word runs through line_chars alone, so its calls are
    its own: it projects the band at most once, and once if it splits (unless
    that band is empty), so the reference counts more by exactly the
    middle-band runs (or pixels) of the words whose band it left alone. The
    last case splits only because a merge made a component oversized."""
    rng = random.Random(seed)
    line = random_blob_line(rng)
    t, alpha = rng.choice([0.0, 0.2, 0.4]), rng.choice([0.2, 0.33, 0.6])
    merged = glyph_word(MERGE_OVERSIZED_WORD)
    cases = [
        (line, segment_words(line).words, RoiParams(t, alpha, beta), False)
        for beta in (1.1, 1.75)
    ]
    cases.append((merged, [Component(0, merged.width - 1)], DEFAULT_PARAMS, True))
    for image, words, params, must_split in cases:
        for backend, source, cost in (
            (_run_backend(), image, lambda word, a, b: word.runs_in(a, b)),
            (_pixel_backend(), decode(image), lambda word, a, b: word.width * (b - a)),
        ):
            calls = []

            def counting(word, rows, counter, project=backend.column_frequency):
                calls.append(rows)
                return project(word, rows, counter)

            lazy = backend._replace(column_frequency=counting)
            for w in words:
                calls.clear()
                got_counter, eager_counter = WorkCounter(), WorkCounter()
                (got,) = line_chars(lazy, source, _one_word(w), params, got_counter).per_word
                got = _plan_of(got)
                bands = backend.word_bands(source, [w], params.t, eager_counter)
                want = plan_chars_eager(backend, source, w, bands, 0, params, eager_counter)
                assert got == want, (w, params)
                split = any(op.op == "inserted" for op in got.repairs)
                assert split >= must_split, (w, params)
                # an empty middle band is never projected: it counts 0 everywhere
                band = bands.mid_start.item(), bands.mid_stop.item()
                band = band if band[0] < band[1] else None
                assert calls in ([], [band]) and len(calls) >= (split and bool(band)), calls
                word = backend.crop(source, w.x_min, w.x_max)
                skipped = 0 if calls or not band else cost(word, *band)
                assert eager_counter.count - got_counter.count == skipped, (w, params)


def _fallback_cases(rng):
    """FALLBACK_LINE at a random lead, and again past 2**62 columns, on
    dtype=object spans, each with its fixed word threshold."""
    fixed = ThresholdMode("fixed", 12)
    lead = rng.randint(0, 5)
    boxes = boxes_line(FALLBACK_LINE, lead, 230 + lead + rng.randint(1, 4))
    pad = rng.randint(2**62, 2**64)  # every row of boxes starts and ends with background
    rows = [(r.runs[0] + pad, *r.runs[1:-1], r.runs[-1] + pad) for r in boxes.rows]
    huge = RleImage(boxes.width + 2 * pad, rows)
    assert huge.spans.starts.dtype == object
    return [(boxes, fixed), (huge, fixed)]


def _line_bands_lists(bands):
    """A LineBands as plain nested lists, for equality across backends."""
    return [a.tolist() for a in bands]


def check_word_bands_match_per_word_reference(seed, tmp_path):
    """word_bands, which takes every word's bands from one occupancy of the
    line's band runs, equals word_bands_reference, which crops and projects
    each word, and on a decodable line the oracle's pdp_word_bands array for
    array. Every ink run of the line lies in exactly one word window, as
    word_bands assumes. Cases: a random blob line, FALLBACK_LINE and that
    line past 2**62 columns."""
    rng = random.Random(seed)
    t = rng.choice([0.0, 0.2, 0.4])
    for image, mode in [(random_blob_line(rng), AUTO), *_fallback_cases(rng)]:
        words = segment_words(image, mode).words
        starts, stops, _ = image.spans
        for a, b in zip(starts.tolist(), stops.tolist()):
            assert sum(w.x_min <= a and b - 1 <= w.x_max for w in words) == 1, (a, b)
        got = word_bands(image, words, t)
        want = word_bands_reference(image, words, t)
        assert _line_bands_lists(got) == _line_bands_lists(want)
        if image.width < 2**62:
            pixel = pdp_word_bands(decode(image), words, t)
            assert _line_bands_lists(got) == _line_bands_lists(pixel)


def _past_2_53_case(rng):
    """A one-word line about 2**54 columns wide, on int64 spans, whose two
    full-height components are 2**52 and 3 * 2**52 - 3 columns long. With
    beta 1.5, beta x mean is 3 * 2**52 - 4 as a float, so repair splits the
    second; in float64 its length would round down onto that bound and
    pass."""
    lead = rng.randint(0, 5)
    lengths = (2**52, 3 * 2**52 - 3)
    runs = (lead, lengths[0], 3, lengths[1], rng.randint(1, 4))
    line = RleImage(sum(runs), [runs] * 30)
    assert line.width >= 2**53 and line.spans.starts.dtype == np.int64
    params = RoiParams(alpha=0.33, beta=1.5)
    mean = sum(lengths) / 2
    assert lengths[1] > params.beta * mean and float(lengths[1]) <= params.beta * mean
    return line, ThresholdMode("fixed", 12), params


def _plain_ints(seg) -> bool:
    """Whether every char bound, cut and repair x of a LineCharSegmentation
    is a Python int."""
    values = (
        (*chain.from_iterable(p.chars), *(s.x_mid for s in p.separators), *(r.x for r in p.repairs))
        for p in seg.per_word
    )
    return all(type(v) is int for v in chain.from_iterable(values))


def check_line_plan_matches_per_word_reference(seed, tmp_path):
    """line_chars, which triages a line's words in NumPy and plans only the
    flagged ones, equals line_chars_per_word, which plans every word through
    plan_chars, on both backends: on runs with word_bands_reference's
    per-word crops, on pixels with the oracle's own bands. Its WorkCounter
    holds exactly the runs of the row ranges it projected. Random blob lines
    run under beta 1.1 and 1.75; FALLBACK_LINE hits both fallbacks, merges
    and splits, and runs again past 2**62 columns, on dtype=object spans; a
    line past 2**53 columns holds a component whose length float64 cannot
    hold, so every word goes through plan_chars. Every char bound, cut and
    repair column of both is a Python int, on int64 and dtype=object spans
    alike."""
    rng = random.Random(seed)
    line = random_blob_line(rng)
    t, alpha = rng.choice([0.0, 0.2, 0.4]), rng.choice([0.2, 0.33, 0.6])
    cases = [(line, AUTO, RoiParams(t, alpha, beta)) for beta in (1.1, 1.75)]
    cases += [(image, mode, DEFAULT_PARAMS) for image, mode in _fallback_cases(rng)]
    cases.append(_past_2_53_case(rng))
    for image, mode, params in cases:
        words = segment_words(image, mode)
        bands = word_bands_reference(image, words.words, params.t)
        want = line_chars_per_word(_run_backend(), image, words, params, None, bands)
        projected = []

        def visiting(name):
            project = getattr(rlseg.chars, name)

            def wrapper(img, rows, counter=None):
                projected.append((name, img.runs_in(*rows)))
                return project(img, rows, counter)

            return wrapper

        counter = WorkCounter()
        with pytest.MonkeyPatch.context() as mp:
            for name in ("occupancy", "column_frequency"):
                mp.setattr(rlseg.chars, name, visiting(name))
            got = line_chars(_run_backend(), image, plan_of(words), params, counter)
        assert got == want, params
        assert _plain_ints(got) and _plain_ints(want), params
        assert counter.count == sum(n for _, n in projected)
        if image.width < 2**53:
            bitmap, pixel = decode(image), _pixel_backend()
            pdp_words = pdp_segment_words(bitmap, mode)
            assert pdp_words == words
            pdp_got = line_chars(pixel, bitmap, plan_of(words), params, None)
            assert pdp_got == line_chars_per_word(pixel, bitmap, words, params) == got
        if mode is not AUTO and params is DEFAULT_PARAMS:
            # occupancy: the band runs, word 0's ROI, word 1's ROI and ink box;
            # column_frequency: the middle bands of the two splitting words
            names = [name for name, _ in projected]
            assert (names.count("occupancy"), names.count("column_frequency")) == (4, 2)
            x = words.words[0].x_min  # lead, or lead + pad
            assert [p.chars for p in got.per_word[:2]] == [
                ((x + 5, x + 8),), ((x + 30, x + 33), (x + 36, x + 39))
            ]
            repairs = [[op.op for op in p.repairs] for p in got.per_word]
            assert repairs[2:] == [["removed", "inserted"], ["inserted"], ["removed"]], repairs
        elif mode is not AUTO:
            assert [[op.op for op in p.repairs] for p in got.per_word] == [["inserted"]]


def _glyph_words_line(rng) -> RleImage:
    """A 30-row line of one to five words, each of one to three full-height
    glyphs 3 columns apart, the words 20 to 30 columns apart, for a fixed
    threshold of 12: a one-glyph word has no char cut."""
    boxes, x = [], rng.randint(0, 4)
    for _ in range(rng.randint(1, 5)):
        for _ in range(rng.randint(1, 3)):
            w = rng.randint(4, 8)
            boxes.append((x, x + w - 1, 0, 30))
            x += w + 3
        x += rng.randint(17, 27)
    return boxes_line(boxes, 0, boxes[-1][1] + rng.randint(2, 5))


def _two_call_chain(segment, backend, image, mode, params) -> LineCharSegmentation:
    """The char chain in two locate batches: segment's words, their cuts
    located, then line_chars over their plan without its word cuts, whose
    one separators_at call locates the char cuts alone."""
    words = segment(image, mode)
    plan = words.words, [], words.threshold_used
    return LineCharSegmentation(words, line_chars(backend, image, plan, params, None).per_word)


def _chain_text(seg: LineCharSegmentation) -> str:
    return dumps([word_record("c", seg.words), *line_char_records("c", seg)])


def check_one_batch_matches_two_calls(seed, tmp_path):
    """segment_line_chars and pdp_segment_line_chars, which locate a line's
    char cuts and then its word cuts in one batch, equal the two-call
    composition (the word stage's batch, then the char cuts' batch) and
    write the same bytes, with words= given or not, and each makes one
    separators_at call of the domain, every char cut then every word cut.
    No word's char Cuts may share memory with the word Cuts: a view of the
    one located array would keep the word cuts' rows alive, and
    np.may_share_memory sees that where np.shares_memory, which looks for a
    shared element, does not. Cases: a line of one- to three-glyph words, a
    random blob line under random params (some flagged), and FALLBACK_LINE
    (every word flagged), also past 2**62 columns on dtype=object spans, on
    runs only."""
    rng = random.Random(seed)
    params = RoiParams(
        rng.choice([0.0, 0.2, 0.4]), rng.choice([0.2, 0.33, 0.6]), rng.choice([1.1, 1.75])
    )
    cases = [(_glyph_words_line(rng), ThresholdMode("fixed", 12)), (random_blob_line(rng), AUTO)]
    cases += _fallback_cases(rng)
    run = (
        [(rlseg.words, "separators_at"), (rlseg.chars, "separators_at")],
        segment_words, segment_line_chars, _run_backend,
    )
    pixel = (
        [(rlseg.pixel_baseline, "pdp_separators_at")],
        pdp_segment_words, pdp_segment_line_chars, _pixel_backend,
    )
    for image, mode in cases:
        domains = [(run, image)] + ([(pixel, decode(image))] if image.width < 2**62 else [])
        for (sites, segment, segment_chars, backend), source in domains:
            want = _two_call_chain(segment, backend(), source, mode, params)
            calls = []
            with pytest.MonkeyPatch.context() as mp:
                for module, name in sites:

                    def counting(img, xs, locate=getattr(module, name)):
                        calls.append(list(xs))
                        return locate(img, xs)

                    mp.setattr(module, name, counting)
                got = segment_chars(source, params, mode)
                given = segment_chars(source, params, mode, words=want.words)
            char_cuts = [sep.x_mid for word in want.per_word for sep in word.separators]
            assert calls == [char_cuts + list(want.words.separators.xs)] * 2
            for seg in (got, given):
                assert seg == want, (image.width, mode, params)
                assert _chain_text(seg) == _chain_text(want)
                word_runs = seg.words.separators.runs
                for word in seg.per_word:
                    assert not np.may_share_memory(word.separators.runs, word_runs)


def check_match_symmetry(seed, tmp_path):
    rng = random.Random(seed)
    a, _ = _random_components(rng)
    b, _ = _random_components(rng)
    ia = [(c.x_min, c.x_max) for c in a]
    ib = [(c.x_min, c.x_max) for c in b]
    assert len(match(ia, ib, 0.8).pairs) == len(match(ib, ia, 0.8).pairs)


def check_ar_monotone(seed, tmp_path):
    rng = random.Random(seed)
    truth, _ = _random_components(rng, n=rng.randint(2, 7))
    truth_ivs = [(c.x_min, c.x_max) for c in truth]
    keep = sorted(rng.sample(range(len(truth_ivs)), rng.randint(1, len(truth_ivs) - 1)))
    pred = [truth_ivs[i] for i in keep]
    missing = next(i for i in range(len(truth_ivs)) if i not in keep)
    before = len(match(pred, truth_ivs, 0.9).pairs)
    after = len(match(sorted(pred + [truth_ivs[missing]]), truth_ivs, 0.9).pairs)
    assert after >= before


def check_overlap_one_exact(seed, tmp_path):
    rng = random.Random(seed)
    truth, _ = _random_components(rng, n=1)
    a, b = truth[0].x_min, truth[0].x_max
    assert len(match([(a, b)], [(a, b)], 1.0).pairs) == 1
    if b > a:
        assert len(match([(a + 1, b)], [(a, b)], 1.0).pairs) == 0
        assert len(match([(a, b - 1)], [(a, b)], 1.0).pairs) == 0


# the fault kind of each injected fault, as _intervals words it
_INTERVAL_FAULTS = {
    "bool": "is not a list of [start, end] integer pairs",
    "float": "is not a list of [start, end] integer pairs",
    "triple": "is not a list of [start, end] integer pairs",
    "not_a_list": "is not a list of [start, end] integer pairs",
    "negative": "has a bound below 0",
    "inverted": "is inverted",
    "overlapping": "intervals overlap or are unsorted",
    "unsorted": "intervals overlap or are unsorted",
}


def _interval_chunks(rng, ivs, fault):
    """ivs, a sorted, disjoint list of [start, end] lists, with fault injected
    (None for none) and split into 1-3 chunks, some possibly empty."""
    ivs = [list(iv) for iv in ivs]
    j = rng.randrange(1, len(ivs))  # so interval j - 1 exists
    a, b = ivs[j]
    if fault == "bool":
        ivs[j][rng.randrange(2)] = rng.choice((True, False))
    elif fault == "float":
        ivs[j][rng.randrange(2)] += rng.choice((0.0, 0.5))
    elif fault == "negative":
        ivs[j][rng.randrange(2)] = -rng.randint(1, 3)
    elif fault == "inverted":
        ivs[j] = [b + 1, a]
    elif fault == "overlapping":
        ivs[j] = [ivs[j - 1][1], b]
    elif fault == "unsorted":
        ivs[j - 1], ivs[j] = ivs[j], ivs[j - 1]
    elif fault == "triple":
        ivs[j].append(b)
    cuts = rng.sample(range(len(ivs) + 1), rng.randint(0, 2))
    if fault and rng.random() < 0.5:
        cuts = [j, *cuts[:1]]  # the fault opens a chunk: the chunks before must bound it
    cuts = sorted(set(cuts))
    chunks = [ivs[p:q] for p, q in zip([0, *cuts], [*cuts, len(ivs)])]
    if fault == "not_a_list":
        chunks[rng.randrange(len(chunks))] = rng.choice(({"0": [0, 1]}, 5, "[[0, 1]]", None))
    return chunks


def _brute_interval_fault(chunks):
    """(index of the first chunk that breaks the interval rule, its fault), or
    None: the columns of all chunks so far must rise strictly."""
    columns = []
    for r, chunk in enumerate(chunks):
        if not isinstance(chunk, (list, tuple)) or any(
            not isinstance(iv, (list, tuple)) or len(iv) != 2 or {type(v) for v in iv} != {int}
            for iv in chunk
        ):
            return r, _INTERVAL_FAULTS["not_a_list"]
        if any(min(iv) < 0 for iv in chunk):
            return r, _INTERVAL_FAULTS["negative"]
        if any(a > b for a, b in chunk):
            return r, _INTERVAL_FAULTS["inverted"]
        columns += [x for a, b in chunk for x in range(a, b + 1)]
        if columns != sorted(set(columns)):
            return r, _INTERVAL_FAULTS["unsorted"]
    return None


def _covering_words(chunks):
    """A truth line's words and chars with the chunks as its chars: when the
    chunks follow the interval rule, each non-empty chunk inside a word of
    its own span (an empty chunk spans no columns, so it and its word are
    left out); otherwise one column per chunk, as the chunks' fault comes first."""
    if _brute_interval_fault(chunks):
        return {"words": [[2 * r, 2 * r] for r in range(len(chunks))], "chars": chunks}
    chunks = [chunk for chunk in chunks if chunk]
    return {"words": [[chunk[0][0], chunk[-1][1]] for chunk in chunks], "chars": chunks}


def _fault_of(message: str) -> str:
    return next(text for text in _INTERVAL_FAULTS.values() if text in message)


def _tuples(value):
    """value with every list a tuple, as a hand-built GroundTruthLine holds it."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def _max_matching(pred, truth, overlap):
    """Size of a maximum matching of qualifying pairs, by augmenting paths."""
    owner = {}

    def augment(i, seen):
        a, b = pred[i]
        for j, (c, d) in enumerate(truth):
            inter, longer = min(b, d) - max(a, c) + 1, max(b - a, d - c) + 1
            if inter + 1e-9 >= overlap * longer and j not in seen:
                seen.add(j)
                if j not in owner or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return sum(augment(i, set()) for i in range(len(pred)))


def check_interval_rule(seed, tmp_path):
    """Each interval list is checked once where it enters, predictions split
    over records and truth chars split over words, against a brute reference."""
    rng = random.Random(seed)
    clean = [[c.x_min, c.x_max] for c in _random_components(rng, rng.randint(2, 7))[0]]
    fault = rng.choice((None, *_INTERVAL_FAULTS))
    chunks = _interval_chunks(rng, clean, fault)
    want = _brute_interval_fault(chunks)
    assert (want and want[1]) == (fault and _INTERVAL_FAULTS[fault])
    # predictions: one line's records, other lines' records between them
    records, at = [], []
    for r, chunk in enumerate(chunks):
        if rng.random() < 0.5:
            records.append({"line_id": "u", "chars": [[r, r]]})
        at.append(len(records))
        records.append({"line_id": "v", "word_id": "x", "chars": chunk})
    try:
        per_line = predicted_intervals(records, "char")
    except BadRecordError as exc:
        got = at.index(exc.index), _fault_of(exc.reason)
        assert exc.reason.startswith("line v: 'chars' ")
    else:
        got = None
        assert per_line["v"] == [tuple(iv) for iv in clean]
    assert got == want, (chunks, got, want)
    # truth: the chunks as one line's words, and as its chars over its words
    if fault == "not_a_list":
        words = next(chunk for chunk in chunks if not isinstance(chunk, list))
    else:
        words = [iv for chunk in chunks for iv in chunk]
    for as_given in (lambda v: json.loads(json.dumps(v)), _tuples):
        for kwargs, part, want_part in (
            ({"words": words}, "'words'", _brute_interval_fault([words])),
            (_covering_words(chunks), "'chars' word", want),
        ):
            kwargs = {key: as_given(v) for key, v in kwargs.items()}
            try:
                line = GroundTruthLine("v", **kwargs)
            except ValueError as exc:
                assert str(exc).startswith(f"line v: {part}")
                word = re.search(r"word (\d+)", str(exc))
                got = int(word.group(1)) if word else 0, _fault_of(str(exc))
            else:
                got = None
                assert line.words == _tuples(kwargs["words"])
            assert got == want_part, (kwargs, got, want_part)
    if fault is not None:
        return
    # clean lists score the AR of a maximum matching, in either mode
    pred = []
    for a, b in clean:
        roll = rng.random()
        if roll < 0.6:
            pred.append([a + rng.randint(0, (b - a) // 2), b - rng.randint(0, (b - a) // 3)])
        elif roll < 0.8 and pred:
            pred[-1][1] = b  # merged with the one before
    overlap = rng.choice((0.5, 0.8, 0.9, 1.0))
    want_ar = 100.0 * _max_matching(pred, clean, overlap) / len(clean)
    truth = [GroundTruthLine("v", _tuples(clean), _tuples([[iv] for iv in clean]))]
    split = _interval_chunks(rng, pred, None) if len(pred) > 1 else [pred]
    for mode, key in (("word", "words"), ("char", "chars")):
        records = [{"line_id": "v", key: chunk} for chunk in split]
        assert evaluate_records(records, truth, mode, overlap)["ar"] == want_ar


def check_pipeline_differential(seed, tmp_path):
    rng = random.Random(seed)
    if rng.random() < 0.5:
        line = random_blob_line(rng)
        bitmap = decode(line)
    else:
        bitmap = random_bitmap(rng, max_w=48, max_h=14)
        line = encode(bitmap)
    try:
        cdp_words = segment_words(line)
    except EmptyLineError:
        try:
            pdp_segment_words(bitmap)
            raise AssertionError("pixel path did not raise EmptyLineError")
        except EmptyLineError:
            return
    assert dumps([word_record("p", cdp_words)]) == dumps(
        [word_record("p", pdp_segment_words(bitmap))]
    )
    cdp = dumps(line_char_records("p", segment_line_chars(line)))
    pdp = dumps(line_char_records("p", pdp_segment_line_chars(bitmap)))
    assert cdp == pdp


def check_cli_determinism(seed, tmp_path):
    base = tmp_path / f"cli{seed}"
    outs = []
    for tag in ("a", "b"):
        corpus = base / tag
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(
                ["synth", "--out", str(corpus), "--lines", "1",
                 "--words-per-line", "2", "--seed", str(seed)]
            ) == 0
        out = base / f"{tag}.json"
        assert main(
            ["segment", str(corpus / "manifest.txt"), "--mode", "words",
             "--out", str(out)]
        ) == 0
        outs.append(out.read_bytes())
        assert (corpus / "ground_truth.json").exists()
    assert outs[0] == outs[1]
    a_lines = sorted((base / "a" / "lines").glob("*.rle"))
    b_lines = sorted((base / "b" / "lines").glob("*.rle"))
    for pa, pb in zip(a_lines, b_lines):
        assert pa.read_bytes() == pb.read_bytes()


def _cli(argv):
    """Exit code and stderr of one rlseg command, run in-process."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def check_truncated_inputs_exit_4(seed, tmp_path):
    """A P1 or P4 raster or an .rle file cut short at a random offset fails its
    command with exit 4 and one stderr line that names the file."""
    rng = random.Random(seed)
    bitmap = random_bitmap(rng, max_w=40, max_h=6)
    pbm, rle = tmp_path / f"cut{seed}.pbm", tmp_path / f"cut{seed}.rle"
    header = len(f"P1\n{bitmap.width} {bitmap.height}\n")
    for binary in (False, True):
        write_pbm(bitmap, pbm, binary=binary)
        data = pbm.read_bytes()
        # P1 ends in its last pixel digit and "\n", P4 in its last raster byte
        pbm.write_bytes(data[: rng.randint(header, len(data) - 2 + binary)])
        code, err = _cli(["encode", str(pbm), str(rle)])
        assert code == 4 and err.count("\n") == 1 and str(pbm) in err, err
        assert not rle.exists()
    write_rle(encode(bitmap), rle)
    data = rle.read_bytes()
    rle.write_bytes(data[: rng.randrange(len(data))])
    code, err = _cli(["decode", str(rle), str(pbm)])
    assert code == 4 and err.count("\n") == 1 and str(rle) in err, err


def check_wide_pbm_roundtrip(seed, tmp_path):
    """PBM rows of 10**6 columns and more go through encode and decode byte for
    byte, as P1 on even seeds and as P4 on odd ones. Ink runs may cross from
    row to row."""
    rng = np.random.default_rng(seed)
    width, height = 10**6 + int(rng.integers(0, 8)), int(rng.integers(1, 3))
    size = width * height
    flips = np.zeros(size, dtype=np.uint8)  # 1 where the color changes
    flips[rng.choice(size, int(rng.integers(0, 4000)))] = 1
    px = np.bitwise_xor.accumulate(flips).reshape(height, width)
    binary = seed % 2 == 1
    pbm, rle, back = (tmp_path / name for name in ("wide.pbm", "wide.rle", "back.pbm"))
    write_pbm(Bitmap(px), pbm, binary=binary)
    assert _cli(["encode", str(pbm), str(rle)]) == (0, "")
    assert _cli(["decode", str(rle), str(back)] + ["--binary"] * binary) == (0, "")
    assert back.read_bytes() == pbm.read_bytes()


def _random_p1_text(rng, width, height):
    """A P1 file that is mostly well formed: digits split by random whitespace,
    with at times a comment, a bad byte, trailing bytes or too few pixels.
    Comments may end in a lone CR, or start right after a digit and hold more
    digits, which must not count as pixels."""
    parts = [f"P1\n{width} {height}\n"]
    for _ in range(width * height - (rng.random() < 0.1)):
        parts.append(rng.choice("01") + rng.choice(["", "", " ", "\n", "\t", "\r\n", "  "]))
        if rng.random() < 0.02:
            parts.append(
                rng.choice(["# a comment\n", "# c\r", "1#01", "#", "2", "x", "\x00", "-"])
            )
    if rng.random() < 0.3:
        parts.append(rng.choice(["1", "# trailing", "x", "\n\n"]))
    return "".join(parts).encode("latin-1")


def check_p1_reader_matches_scan(seed, tmp_path):
    """read_pbm's one-pass P1 reader gives the byte-by-byte scan's bitmap, or
    its error message and line."""
    rng = random.Random(seed)
    width, height = rng.randint(1, 12), rng.randint(1, 4)
    data = _random_p1_text(rng, width, height)
    path = tmp_path / "p1.pbm"
    path.write_bytes(data)
    pos = len(f"P1\n{width} {height}")
    try:
        expected = scan_p1_raster(data, pos, width, height, path)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            read_pbm(path)
        assert str(got.value) == str(exc)
    else:
        assert read_pbm(path) == expected


# Before a header token: PBM whitespace, comments ending at LF, CR or the end
# of the file, comments holding digits, and VT and FF, which PBM does not count
# as whitespace. Tokens include a sign, a non-ASCII digit (latin-1 b"\xb2") and
# none at all.
_HEADER_GAPS = [" ", "\t", "\r", "\n", "\r\n", "# c\n", "# c\r", "#12 34\r\n", "#", "\x0b", "\x0c"]
_HEADER_TOKENS = ["0", "7", "007", "123456789012345678901234567890", "", "x", "-3", "+3", "\xb2"]


def check_header_token_matches_scan(seed, tmp_path):
    """read_pbm's one-match header token reader gives the byte-by-byte scan's
    tokens and positions, or its error message and line."""
    rng = random.Random(seed)
    parts = [rng.choice(["P1", "P4"])]
    for _ in range(2):
        parts += rng.choices(_HEADER_GAPS, k=rng.randint(0, 4))
        parts.append(rng.choice(_HEADER_TOKENS))
    data = "".join(parts).encode("latin-1")
    path = tmp_path / "h.pbm"
    pos = 2
    for _ in range(2):
        try:
            expected = scan_header_token(data, pos, path)
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                _next_token(data, pos, path)
            assert str(got.value) == str(exc)
            return
        assert _next_token(data, pos, path) == expected
        pos = expected[1]


# line ids holding every line break str.splitlines knows, and JSON's escapes
_LINE_IDS = [
    "", "line0000", "\u00e9\u2603\U0001F600", "tab\tnl\nret\r", 'q"b\\', "\x00\x1f\x7f",
    "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029",
]


def check_dumps_round_trips_as_json_lines(seed, tmp_path):
    """dumps writes the bytes json's encoder writes for the same records
    (json_lines), one line per record, each parsing back to its record, for
    both pipelines' word and char records and every line id. Lines: a random
    blob line under beta 1.1 and 1.75, FALLBACK_LINE (fallbacks, merges and
    splits, so repairs are not empty) and a one-bar line, one word with no
    separators. Some records go in as plain dicts, which json writes."""
    rng = random.Random(seed)
    blob = random_blob_line(rng)
    lead = rng.randint(0, 5)
    cases = [(blob, AUTO, RoiParams(beta=beta)) for beta in (1.1, 1.75)]
    cases.append(
        (boxes_line(FALLBACK_LINE, lead, 231 + lead), ThresholdMode("fixed", 12), DEFAULT_PARAMS)
    )
    x = rng.randint(0, 4)
    bar = bars_line([(x, x + rng.randint(0, 9))], height=rng.randint(1, 12))
    cases.append((bar, AUTO, DEFAULT_PARAMS))
    line_ids = cycle(rng.sample(_LINE_IDS, len(_LINE_IDS)))
    records = []
    for image, mode, params in cases:
        bitmap = decode(image)
        records += [
            word_record(next(line_ids), segment_words(image, mode)),
            word_record(next(line_ids), pdp_segment_words(bitmap, mode)),
            *line_char_records(next(line_ids), segment_line_chars(image, params, mode)),
            *line_char_records(next(line_ids), pdp_segment_line_chars(bitmap, params, mode)),
        ]
    assert {r["line_id"] for r in records} == set(_LINE_IDS)
    assert any(r.get("repairs") for r in records)
    assert not any(r["separators"] for r in records[-4:])
    records = [dict(r) if rng.random() < 0.3 else r for r in records]
    text = dumps(records)
    assert text == json_lines(records)
    lines = text.split("\n")
    assert text.splitlines() == lines
    assert [json.loads(x) for x in lines] == list(map(plain_record, records))


_SCHEMAS = None


def _schemas():
    """One validator per schema under docs/schemas, each schema checked once.

    jsonschema.validate checks its schema and builds a validator on every
    call; the sweep validates thousands of records against four schemas.
    """
    global _SCHEMAS
    if _SCHEMAS is None:
        from pathlib import Path

        schema_dir = Path(__file__).resolve().parents[1] / "docs" / "schemas"
        _SCHEMAS = {}
        for name in ("word_record", "char_record", "evaluation_report", "ground_truth"):
            schema = json.loads((schema_dir / f"{name}.schema.json").read_text())
            cls = jsonschema.validators.validator_for(schema)
            cls.check_schema(schema)
            _SCHEMAS[name] = cls(schema)
    return _SCHEMAS


def check_json_outputs_validate(seed, tmp_path):
    rng = random.Random(seed)
    line = random_blob_line(rng)
    schemas = _schemas()
    words = segment_words(line)
    rec = word_record("v", words)
    schemas["word_record"].validate(plain_record(rec))
    chain = segment_line_chars(line)
    char_recs = line_char_records("v", chain)
    for cr in char_recs:
        schemas["char_record"].validate(plain_record(cr))
    truth = [
        GroundTruthLine(
            "v",
            tuple((w.x_min, w.x_max) for w in words.words),
            tuple(tuple((c.x_min, c.x_max) for c in cs.chars) for cs in chain.per_word),
        )
    ]
    report = evaluate_records([rec], truth, "word")
    schemas["evaluation_report"].validate(report)
    schemas["ground_truth"].validate(
        [{"line_id": "v", "words": [[0, 1]], "chars": [[[0, 1]]]}]
    )


CHECKS = [
    ("codec_roundtrip", check_codec_roundtrip),
    ("cumulative_consistency", check_cumulative_consistency),
    ("locate_agrees_with_scan", check_locate_agrees_with_scan),
    ("cached_ends", check_cached_ends),
    ("locate_every_row", check_locate_every_row),
    ("separators_at_matches_locate_run", check_separators_at_matches_locate_run),
    ("crop_matches_pixel_slice", check_crop_matches_pixel_slice),
    ("write_rle_matches_reference", check_write_rle_matches_reference),
    ("read_rle_row_syntax", check_read_rle_row_syntax),
    ("row_validation_reference", check_row_validation_reference),
    ("read_rle_bulk_matches_reference", check_read_rle_bulk_matches_reference),
    ("read_rle_hands_on_its_index", check_read_rle_hands_on_its_index),
    ("run_index_matches_locate_run", check_run_index_matches_locate_run),
    ("union_matches_column_or", check_union_matches_column_or),
    ("projection_oracle_equivalence", check_projection_oracle_equivalence),
    ("component_list_invariants", check_component_list_invariants),
    ("occupancy_work_counters", check_occupancy_work_counters),
    ("pdp_primitives_match_brute", check_pdp_primitives_match_brute),
    ("pdp_band_or_matches_union", check_pdp_band_or_matches_union),
    ("pdp_separators_at_matches_references", check_pdp_separators_at_matches_references),
    ("cuts_match_separator_at", check_cuts_match_separator_at),
    ("separators_on_background", check_separators_on_background),
    ("threshold_monotonicity", check_threshold_monotonicity),
    ("word_idempotence", check_word_idempotence),
    ("translation_equivariance", check_translation_equivariance),
    ("run_coordinate_contract", check_run_coordinate_contract),
    ("char_gap_cuts_on_or_false", check_char_gap_cuts_on_or_false),
    ("inserted_cuts_at_frequency_minima", check_inserted_cuts_at_frequency_minima),
    ("plan_words_matches_gap_walk", check_plan_words_matches_gap_walk),
    ("repair_cuts_are_gap_midpoints", check_repair_cuts_are_gap_midpoints),
    ("segment_intervals_in_bounds", check_segment_intervals_in_bounds),
    ("merge_completeness", check_merge_completeness),
    ("band_partition", check_band_partition),
    ("roi_bands_match_scalar_helpers", check_roi_bands_match_scalar_helpers),
    ("roi_monotonic", check_roi_monotonic),
    ("char_determinism", check_char_determinism),
    ("plan_chars_in_line_coordinates", check_plan_chars_in_line_coordinates),
    ("plan_chars_matches_eager_reference", check_plan_chars_matches_eager_reference),
    ("word_bands_match_per_word_reference", check_word_bands_match_per_word_reference),
    ("line_plan_matches_per_word_reference", check_line_plan_matches_per_word_reference),
    ("one_batch_matches_two_calls", check_one_batch_matches_two_calls),
    ("match_symmetry", check_match_symmetry),
    ("ar_monotone", check_ar_monotone),
    ("overlap_one_exact", check_overlap_one_exact),
    ("interval_rule", check_interval_rule),
    ("pipeline_differential", check_pipeline_differential),
    ("cli_determinism", check_cli_determinism),
    ("truncated_inputs_exit_4", check_truncated_inputs_exit_4),
    ("wide_pbm_roundtrip", check_wide_pbm_roundtrip),
    ("p1_reader_matches_scan", check_p1_reader_matches_scan),
    ("header_token_matches_scan", check_header_token_matches_scan),
    ("json_outputs_validate", check_json_outputs_validate),
    ("dumps_round_trips_as_json_lines", check_dumps_round_trips_as_json_lines),
]
