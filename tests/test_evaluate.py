"""Interval matching and accuracy rate."""

import random
import re

import pytest

from rlseg import EmptyGroundTruthError, GroundTruthLine, evaluate_records
from rlseg.evaluate import AccuracyReport, BadRecordError, match


def _intervals(rng, n, max_len=12, max_gap=10):
    out = []
    x = rng.randint(0, 5)
    for _ in range(n):
        w = rng.randint(1, max_len)
        out.append((x, x + w - 1))
        x += w + rng.randint(1, max_gap)
    return out


def test_identical_lists_all_match():
    ivs = [(0, 5), (9, 14), (20, 31)]
    result = match(ivs, ivs, 0.9)
    assert len(result.pairs) == 3
    assert result.unmatched_pred == result.unmatched_truth == 0
    assert AccuracyReport(3, len(result.pairs)).ar_percent == 100.0


def test_over_merge_matches_at_most_once():
    pred = [(0, 21)]
    truth = [(0, 9), (12, 21)]
    result = match(pred, truth, 0.5)
    assert len(result.pairs) <= 1


def test_jittered_intervals_still_match():
    # each endpoint moves inward by at most 5% of the length, so the overlap
    # keeps >= 90% of the longer interval and every pair must qualify
    rng = random.Random(83)
    for _ in range(50):
        truth = _intervals(rng, rng.randint(1, 8), max_len=60)
        pred = []
        for a, b in truth:
            jitter = int(0.05 * (b - a + 1))
            pred.append((a + rng.randint(0, jitter), b - rng.randint(0, jitter)))
        result = match(pred, truth, 0.9)
        assert len(result.pairs) == len(truth)


def test_accuracy_rate_values():
    report = AccuracyReport(10, 9)
    assert report.ar_percent == 90.0
    assert AccuracyReport(10, 0).ar_percent == 0.0
    assert round(AccuracyReport(2062, 1862).ar_percent, 2) == 90.30


def test_accuracy_rate_empty_truth():
    with pytest.raises(EmptyGroundTruthError):
        AccuracyReport(0, 0)


def test_match_symmetric_pair_count():
    rng = random.Random(89)
    for _ in range(50):
        a = _intervals(rng, rng.randint(0, 8))
        b = _intervals(rng, rng.randint(0, 8))
        assert len(match(a, b, 0.7).pairs) == len(match(b, a, 0.7).pairs)


def test_adding_correct_prediction_never_lowers_ar():
    rng = random.Random(97)
    for _ in range(50):
        truth = _intervals(rng, rng.randint(2, 8))
        keep = sorted(rng.sample(range(len(truth)), rng.randint(1, len(truth) - 1)))
        pred = [truth[i] for i in keep]
        before = len(match(pred, truth, 0.9).pairs)
        missing = next(i for i in range(len(truth)) if i not in keep)
        richer = sorted(pred + [truth[missing]])
        after = len(match(richer, truth, 0.9).pairs)
        assert after >= before


def test_overlap_one_accepts_only_exact():
    truth = [(4, 9)]
    assert len(match([(4, 9)], truth, 1.0).pairs) == 1
    assert len(match([(4, 8)], truth, 1.0).pairs) == 0
    assert len(match([(5, 9)], truth, 1.0).pairs) == 0


def test_exact_boundary_overlap_is_accepted():
    # 9 of 10 columns, overlap_min 0.9: float rounding must not reject it
    assert len(match([(0, 8)], [(0, 9)], 0.9).pairs) == 1


def test_unsorted_input_rejected():
    # match takes sorted, disjoint lists as given: the lists it once rejected
    # are rejected where they enter, truth by GroundTruthLine (naming the line)
    # and predictions by evaluate_records (naming the record)
    cases = [
        (((5, 9), (0, 3)), None, "line a: 'words' intervals overlap or are unsorted at [0, 3]"),
        (((0, 3), (3, 8)), None, "line a: 'words' intervals overlap or are unsorted at [3, 8]"),
        (((5, 3),), None, "line a: 'words' interval [5, 3] is inverted"),
        # chars continue across words, past an empty one
        (((0, 9),), (((0, 4),), ((4, 9),)), "line a: 'chars' word 1 intervals overlap"),
        (((0, 9),), (((0, 4),), (), ((2, 9),)), "line a: 'chars' word 2 intervals overlap"),
    ]
    for words, chars, detail in cases:
        with pytest.raises(ValueError, match=re.escape(detail)):
            GroundTruthLine("a", words, chars)
        pred = [iv for word in chars or (words,) for iv in word]
        with pytest.raises(BadRecordError, match="^record 0: line a: 'words' interval"):
            evaluate_records([{"line_id": "a", "words": pred}], [], "word")


def test_truth_chars_match_words():
    # one char list per word, every char inside its word; an empty list is a word without chars
    cases = [
        (((0, 5), (8, 12)), (((0, 5),),), "line a: 'chars' has 1 words, 'words' 2"),
        (((0, 9),), (((0, 4),), ((6, 9),)), "line a: 'chars' has 2 words, 'words' 1"),
        (
            ((0, 5), (8, 12)),
            (((0, 2), (4, 6)), ((8, 12),)),
            "line a: 'chars' word 0 [4, 6] is outside [0, 5]",
        ),
        (((0, 5), (8, 12)), ((), ((7, 9),)), "line a: 'chars' word 1 [7, 9] is outside [8, 12]"),
    ]
    for words, chars, detail in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(detail)}$"):
            GroundTruthLine("a", words, chars)
    assert GroundTruthLine("a", ((0, 5), (8, 12)), ((), ((8, 9), (11, 12)))).chars[0] == ()


def test_evaluate_records_word_and_char_modes():
    truth = [
        GroundTruthLine("a", ((0, 5), (10, 15)), (((0, 2), (4, 5)), ((10, 15),))),
        GroundTruthLine("b", ((2, 8),), (((2, 8),),)),
    ]
    word_records = [
        {"line_id": "a", "words": [[0, 5], [10, 15]]},
        {"line_id": "b", "words": [[2, 8]]},
    ]
    char_records = [
        {"line_id": "a", "word_id": "a:w0", "chars": [[0, 2], [4, 5]]},
        {"line_id": "a", "word_id": "a:w1", "chars": [[10, 15]]},
        {"line_id": "b", "word_id": "b:w0", "chars": [[2, 8]]},
    ]
    word_report = evaluate_records(word_records, truth, "word")
    assert word_report["ar"] == 100.0 and word_report["total"] == 3
    char_report = evaluate_records(char_records, truth, "char")
    assert char_report["ar"] == 100.0 and char_report["total"] == 4
    assert [line["line_id"] for line in char_report["lines"]] == ["a", "b"]


def test_evaluate_records_missing_prediction_counts_against():
    truth = [GroundTruthLine("a", ((0, 5),)), GroundTruthLine("b", ((0, 5),))]
    report = evaluate_records([{"line_id": "a", "words": [[0, 5]]}], truth, "word")
    assert report["total"] == 2 and report["matched"] == 1


def test_evaluate_records_empty_truth_fails():
    with pytest.raises(EmptyGroundTruthError):
        evaluate_records([], [], "word")


def _maximum_matching(pred, truth, overlap_min):
    """Independent matcher: maximum bipartite matching over qualifying pairs."""

    def qualifies(p, t):
        inter = min(p[1], t[1]) - max(p[0], t[0]) + 1
        longer = max(p[1] - p[0] + 1, t[1] - t[0] + 1)
        return inter + 1e-9 >= overlap_min * longer

    edges = {
        i: [j for j, t in enumerate(truth) if qualifies(p, t)]
        for i, p in enumerate(pred)
    }
    owner = {}

    def augment(i, seen):
        for j in edges[i]:
            if j in seen:
                continue
            seen.add(j)
            if j not in owner or augment(owner[j], seen):
                owner[j] = i
                return True
        return False

    return sum(augment(i, set()) for i in edges)


def test_greedy_matcher_is_maximum():
    # greedy left-to-right is optimal on sorted disjoint intervals; check it
    # against an unrelated maximum-matching implementation
    rng = random.Random(103)
    for _ in range(100):
        truth = _intervals(rng, rng.randint(0, 7), max_len=20)
        pred = []
        for a, b in truth:
            roll = rng.random()
            if roll < 0.3:
                continue  # dropped detection
            if roll < 0.6:
                shrink = rng.randint(0, (b - a) // 2) if b > a else 0
                pred.append((a + shrink, b))  # degraded detection
            else:
                pred.append((a, b))
        overlap = rng.choice([0.5, 0.8, 0.9, 1.0])
        got = len(match(pred, truth, overlap).pairs)
        assert got == _maximum_matching(pred, truth, overlap)
