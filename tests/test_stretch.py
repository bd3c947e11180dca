"""Work scales with runs, not pixels: stretch sweeps on a small synthetic corpus.

Stretching a line horizontally by k multiplies every run's length by k: the
runs stay the same and the pixels grow k-fold. Stretching it vertically
repeats each row k times, which multiplies the runs. The run-domain visit
counts must follow the runs, the pixel-domain ones the pixels, and the
character accuracy must not move. No wall time is checked.
"""

import numpy as np
import pytest

from rlseg import (
    Bitmap,
    WorkCounter,
    decode,
    encode,
    evaluate_records,
    pdp_segment_line_chars,
    segment_line_chars,
)
from rlseg.evaluate import GroundTruthLine
from rlseg.records import line_char_records
from rlseg.synth import SynthConfig, generate_corpus

# The ROI trim, floor(t * H), and the band split round, so vertical visits
# grow close to, not exactly, k-fold: on this corpus runs x2, x4 and x16 give
# visits x1.998, x3.983 and x15.912, at most 0.6% short.
VERTICAL_TOLERANCE = 0.02


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(SynthConfig(lines=8, words_per_line=8, touch_rate=0.3, seed=5))


def _stretched(corpus, k, axis):
    return [encode(Bitmap(np.repeat(decode(line.image).pixels, k, axis=axis))) for line in corpus]


def _truth(corpus, k):
    """Ground truth for a horizontal stretch by k: [a, b] -> [k*a, k*b + k - 1]."""

    def scale(iv):
        a, b = iv
        return (k * a, k * b + k - 1)

    return [
        GroundTruthLine(
            line.line_id,
            tuple(map(scale, line.words)),
            tuple(tuple(map(scale, word)) for word in line.chars),
        )
        for line in corpus
    ]


def _run_pass(corpus, images, truth):
    """(run-domain visits, char AR) of one segment pass over the images."""
    counter = WorkCounter()
    records = []
    for line, image in zip(corpus, images):
        chain = segment_line_chars(image, counter=counter)
        records.extend(line_char_records(line.line_id, chain))
    return counter.count, evaluate_records(records, truth, "char")["ar"]


def test_horizontal_stretch_keeps_runs_and_run_visits(corpus):
    base = _stretched(corpus, 1, 1)
    runs = sum(image.total_runs for image in base)
    visits, ar = _run_pass(corpus, base, _truth(corpus, 1))
    for k in (2, 4, 16):
        images = _stretched(corpus, k, 1)
        assert [image.width for image in images] == [k * image.width for image in base]
        assert sum(image.total_runs for image in images) == runs
        assert _run_pass(corpus, images, _truth(corpus, k)) == (visits, ar)


def test_horizontal_stretch_scales_pixel_visits_by_k(corpus):
    lines = corpus[:2]  # the pixel oracle scans every pixel, so keep it short
    counts = []
    for k in (1, 2):
        counter = WorkCounter()
        for image in _stretched(lines, k, 1):
            pdp_segment_line_chars(decode(image), counter=counter)
        counts.append(counter.count)
    assert counts[1] == 2 * counts[0]


def test_vertical_stretch_grows_run_visits_with_the_runs(corpus):
    truth = _truth(corpus, 1)
    base = _stretched(corpus, 1, 0)
    runs = sum(image.total_runs for image in base)
    visits, ar = _run_pass(corpus, base, truth)
    for k in (2, 4, 16):
        images = _stretched(corpus, k, 0)
        assert sum(image.total_runs for image in images) == k * runs
        k_visits, k_ar = _run_pass(corpus, images, truth)
        assert k_ar == ar
        assert abs(k_visits / visits - k) <= VERTICAL_TOLERANCE * k, (k, k_visits / visits)
