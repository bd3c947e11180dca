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
from enum import IntEnum
from itertools import accumulate

import jsonschema
import numpy as np

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
from rlseg.chars import DEFAULT_PARAMS, RoiParams, repair, roi_from_bounds, split_bands
from rlseg.cli import main
from rlseg.errors import MalformedRleError, OutOfBoundsError, ParseError
from rlseg.evaluate import GroundTruthLine, match
from rlseg.pixel_baseline import pdp_occupancy
from rlseg.projection import Component, components, occupancy, union
from rlseg.records import dumps, line_char_records, word_record
from rlseg.rle import RleImage, RleRow, crop_columns, locate_run, read_rle
from rlseg.words import separator_at, separators_at

from support import (
    as_steps,
    brute_components,
    brute_locate,
    brute_occupancy,
    random_bitmap,
    random_blob_line,
    read_rle_reference,
    shift_right,
)


def check_codec_roundtrip(seed, tmp_path):
    rng = random.Random(seed)
    bitmap = random_bitmap(rng)
    rle = encode(bitmap)
    assert decode(rle) == bitmap
    assert all(row.width == rle.width for row in rle.rows)


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
    return windows


def check_crop_matches_pixel_slice(seed, tmp_path):
    rng = random.Random(seed)
    px = random_bitmap(rng).pixels.copy()
    px[0, 0] = 1  # row 0 starts with ink, so it carries a leading 0 run
    rle = encode(Bitmap(px))
    assert rle.rows[0].runs[0] == 0
    for a, b in _crop_windows(rng, px, rle):
        crop = crop_columns(rle, a, b)
        assert crop == encode(Bitmap(px[:, a : b + 1])), (a, b)
        # Row equality compares runs only: check what the crop stores beside them.
        for row in crop.rows:
            assert vars(row)["ends"] == tuple(accumulate(row.runs)), (a, b, row.runs)
            assert row.width == b - a + 1, (a, b, row.runs)
            assert type(row.runs) is tuple and type(row.ends) is tuple
            assert all(type(n) is int for n in row.runs + row.ends)
            assert RleRow(row.runs) == row  # the validated constructor accepts it


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
        for row in got.rows:
            # a file row has its prefix sums from the read when int64 sums are safe
            assert width * height >= 2**62 or "ends" in vars(row), (width, lines)
            assert all(type(n) is int for n in row.runs + row.ends)
            assert row.ends == tuple(accumulate(row.runs))
            assert row.width == width


def _reference_row(values):
    """Stored runs, or the error message, of the generator-based validation."""
    runs = tuple(int(n) for n in values)
    if not runs:
        return "a row needs at least one run"
    if any(n < 0 for n in runs):
        return "run lengths cannot be negative"
    if any(n == 0 for n in runs[1:]):
        return "only the leading background run may be 0"
    return runs


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
    expected = _reference_row(values)
    try:
        row = RleRow(values)
    except MalformedRleError as exc:
        assert str(exc) == expected, (values, str(exc))
    else:
        assert row.runs == expected, values
        assert all(type(n) is int for n in row.runs)


def _pairs(comps):
    return [(c.x_min, c.x_max) for c in comps]


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
    occ = union(width, starts, stops)
    assert occ.width == width
    assert _pairs(occ.spans) == brute_components(bits)


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
    sep_records = [s for rec in records for s in rec["separators"]]
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
    if not any(row.has_ink for row in word.rows):
        return
    seg = segment_chars(word)
    top = min(r for r in range(word.height) if word.rows[r].has_ink)
    bot = max(r for r in range(word.height) if word.rows[r].has_ink)
    bands = split_bands(roi_from_bounds(top, bot, DEFAULT_PARAMS.t))
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
    result = repair(comps, params, as_steps(freq))
    min_piece = max(1, math.ceil(params.alpha * mean))
    expected = []
    for comp in comps:
        if comp.length > params.beta * mean:
            lo, hi = comp.x_min + min_piece, comp.x_max - min_piece
            if lo <= hi:
                expected.append(min(range(lo, hi + 1), key=lambda x: (freq[x], x)))
    assert [r.x for r in result.repairs if r.op == "inserted"] == expected


def check_merge_completeness(seed, tmp_path):
    rng = random.Random(seed)
    comps, width = _random_components(rng)
    alpha = rng.uniform(0.1, 0.9)
    beta = rng.uniform(1.05, 3.0)
    freq = [rng.randint(0, 9) for _ in range(width + 4)]
    mean = sum(c.length for c in comps) / len(comps)
    result = repair(comps, RoiParams(t=0.2, alpha=alpha, beta=beta), as_steps(freq))
    assert all(c.length >= alpha * mean for c in result.chars)
    assert len(result.cuts) == len(result.chars) - 1


def check_band_partition(seed, tmp_path):
    rng = random.Random(seed)
    start = rng.randint(0, 10)
    stop = start + rng.randint(1, 40)
    bands = split_bands(range(start, stop))
    assert len(bands.top) + len(bands.middle) + len(bands.bottom) == stop - start
    assert bands.top.start == start and bands.bottom.stop == stop


def check_roi_monotonic(seed, tmp_path):
    rng = random.Random(seed)
    top = rng.randint(0, 5)
    bot = top + rng.randint(0, 40)
    t1 = rng.uniform(0, 0.49)
    t2 = rng.uniform(t1, 0.49)
    r1 = roi_from_bounds(top, bot, t1)
    r2 = roi_from_bounds(top, bot, t2)
    assert r1.start <= r2.start and r2.stop <= r1.stop


def check_char_determinism(seed, tmp_path):
    rng = random.Random(seed)
    line = random_blob_line(rng)
    first = segment_line_chars(line)
    second = segment_line_chars(line)
    assert first == second
    assert dumps(line_char_records("d", first)) == dumps(line_char_records("d", second))


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
    assert dumps(word_record("p", cdp_words)) == dumps(
        word_record("p", pdp_segment_words(bitmap))
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


class _Level(IntEnum):
    LOW = 1
    DEEP = -7


# strings that would break a text-level rendering if one reached the int fast path
_STRINGS = [
    "", "line0000:w3", "\u00e9\u2603\U0001F600", "tab\tnl\n", 'q"b\\', "\x00\x1f\x7f",
    "], [", ", ", "|",
]
_FLOATS = [0.0, -0.0, 1.5, 0.1 + 0.2, 1e300, -2.5e-308, math.nan, math.inf, -math.inf]
_KEYS = ["x", "runs", "\u00e9", "", 0, -3, 2.5, -0.0, math.nan, True, False, None, _Level.DEEP]


def _random_scalar(rng):
    return rng.choice(
        [
            rng.randint(-10**6, 10**6),
            rng.choice([True, False, None, _Level.LOW, 10**30]),
            rng.choice(_FLOATS),
            rng.choice(_STRINGS),
        ]
    )


def _random_int_lists(rng):
    """Mostly [[int, ...], ...]; sometimes with one item that must leave the fast path."""
    out = [
        [rng.randint(-50, 5000) for _ in range(rng.randint(1, 3))]
        for _ in range(rng.randint(1, 6))
    ]
    roll = rng.random()
    row = rng.choice(out)
    if roll < 0.1:
        row[rng.randrange(len(row))] = rng.choice([True, False])
    elif roll < 0.2:
        row[rng.randrange(len(row))] = _Level.DEEP
    elif roll < 0.3:
        out[rng.randrange(len(out))] = []
    elif roll < 0.4:
        out[rng.randrange(len(out))] = tuple(row)
    elif roll < 0.5:
        row[rng.randrange(len(row))] = _random_scalar(rng)
    return out


def _random_ints(rng):
    """Mostly [int, ...], like a cut's run indices; sometimes with one item that
    must leave the fast path: a bool, an IntEnum, a float, a list or a tuple."""
    out = [
        rng.choice([rng.randint(-50, 5000), -(10**30), 10**30])
        for _ in range(rng.randint(1, 6))
    ]
    roll = rng.random()
    if roll < 0.5:
        out[rng.randrange(len(out))] = rng.choice(
            [True, False, _Level.DEEP, 2.0, rng.choice(_FLOATS), [out[0]], (out[0], 1)]
        )
    return out


def _random_json_value(rng, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.2:
        return _random_scalar(rng)
    if roll < 0.35:
        return _random_ints(rng)
    if roll < 0.5:
        return _random_int_lists(rng)
    items = [_random_json_value(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    if roll < 0.65:
        return items
    if roll < 0.75:
        return tuple(items)
    return {rng.choice(_KEYS): v for v in items}


def check_dumps_matches_json_indent(seed, tmp_path):
    rng = random.Random(seed)
    for _ in range(20):
        value = _random_json_value(rng, rng.randint(0, 4))
        assert dumps(value) == json.dumps(value, indent=1)
    line = random_blob_line(rng)
    bitmap = decode(line)
    word_recs = [
        word_record("p", segment_words(line)),
        word_record("p", pdp_segment_words(bitmap)),
    ]
    char_recs = [
        *line_char_records("p", segment_line_chars(line)),
        *line_char_records("p", pdp_segment_line_chars(bitmap)),
    ]
    for value in (word_recs, char_recs, word_recs[0], char_recs[0]["separators"]):
        assert dumps(value) == json.dumps(value, indent=1)


_SCHEMAS = None


def _schemas():
    global _SCHEMAS
    if _SCHEMAS is None:
        from pathlib import Path

        schema_dir = Path(__file__).resolve().parents[1] / "docs" / "schemas"
        _SCHEMAS = {
            name: json.loads((schema_dir / f"{name}.schema.json").read_text())
            for name in ("word_record", "char_record", "evaluation_report", "ground_truth")
        }
    return _SCHEMAS


def check_json_outputs_validate(seed, tmp_path):
    rng = random.Random(seed)
    line = random_blob_line(rng)
    schemas = _schemas()
    words = segment_words(line)
    rec = word_record("v", words)
    jsonschema.validate(rec, schemas["word_record"])
    chain = segment_line_chars(line)
    char_recs = line_char_records("v", chain)
    for cr in char_recs:
        jsonschema.validate(cr, schemas["char_record"])
    truth = [
        GroundTruthLine(
            "v",
            tuple((w.x_min, w.x_max) for w in words.words),
            tuple(tuple((c.x_min, c.x_max) for c in cs.chars) for cs in chain.per_word),
        )
    ]
    report = evaluate_records([rec], truth, "word")
    jsonschema.validate(report, schemas["evaluation_report"])
    jsonschema.validate(
        [{"line_id": "v", "words": [[0, 1]], "chars": [[[0, 1]]]}],
        schemas["ground_truth"],
    )


CHECKS = [
    ("codec_roundtrip", check_codec_roundtrip),
    ("cumulative_consistency", check_cumulative_consistency),
    ("locate_agrees_with_scan", check_locate_agrees_with_scan),
    ("cached_ends", check_cached_ends),
    ("locate_every_row", check_locate_every_row),
    ("separators_at_matches_locate_run", check_separators_at_matches_locate_run),
    ("crop_matches_pixel_slice", check_crop_matches_pixel_slice),
    ("read_rle_row_syntax", check_read_rle_row_syntax),
    ("row_validation_reference", check_row_validation_reference),
    ("read_rle_bulk_matches_reference", check_read_rle_bulk_matches_reference),
    ("union_matches_column_or", check_union_matches_column_or),
    ("projection_oracle_equivalence", check_projection_oracle_equivalence),
    ("component_list_invariants", check_component_list_invariants),
    ("occupancy_work_counters", check_occupancy_work_counters),
    ("separators_on_background", check_separators_on_background),
    ("threshold_monotonicity", check_threshold_monotonicity),
    ("word_idempotence", check_word_idempotence),
    ("translation_equivariance", check_translation_equivariance),
    ("run_coordinate_contract", check_run_coordinate_contract),
    ("char_gap_cuts_on_or_false", check_char_gap_cuts_on_or_false),
    ("inserted_cuts_at_frequency_minima", check_inserted_cuts_at_frequency_minima),
    ("merge_completeness", check_merge_completeness),
    ("band_partition", check_band_partition),
    ("roi_monotonic", check_roi_monotonic),
    ("char_determinism", check_char_determinism),
    ("match_symmetry", check_match_symmetry),
    ("ar_monotone", check_ar_monotone),
    ("overlap_one_exact", check_overlap_one_exact),
    ("pipeline_differential", check_pipeline_differential),
    ("cli_determinism", check_cli_determinism),
    ("json_outputs_validate", check_json_outputs_validate),
    ("dumps_matches_json_indent", check_dumps_matches_json_indent),
]
