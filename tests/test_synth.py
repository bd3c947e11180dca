"""Synthetic corpus generator: determinism and ground-truth exactness."""

import json
import random

import pytest

from rlseg import decode, segment_line_chars, segment_words
from rlseg.synth import SynthConfig, generate_corpus, ground_truth_records, write_corpus

from support import roi_from_bounds, split_bands


def test_same_seed_same_corpus(tmp_path):
    cfg = SynthConfig(lines=4, seed=42)
    write_corpus(cfg, tmp_path / "a")
    write_corpus(cfg, tmp_path / "b")
    a_files = sorted((tmp_path / "a").rglob("*"))
    b_files = sorted((tmp_path / "b").rglob("*"))
    assert [p.name for p in a_files] == [p.name for p in b_files]
    for pa, pb in zip(a_files, b_files):
        if pa.is_file():
            assert pa.read_bytes() == pb.read_bytes()


# The name predates the compact ground truth, which used json.dumps(indent=1);
# it is kept so that the test keeps its id.
def test_ground_truth_file_is_json_indent_1(tmp_path):
    cfg = SynthConfig(lines=3, words_per_line=3, touch_rate=0.5, seed=9)
    write_corpus(cfg, tmp_path)
    records = ground_truth_records(generate_corpus(cfg))
    expected = json.dumps(records, separators=(",", ":")) + "\n"
    assert (tmp_path / "ground_truth.json").read_bytes() == expected.encode("utf-8")


def test_different_seed_differs():
    a = generate_corpus(SynthConfig(lines=2, seed=1))
    b = generate_corpus(SynthConfig(lines=2, seed=2))
    assert any(x.image != y.image for x, y in zip(a, b))


def test_touch_rate_zero_keeps_chars_apart():
    corpus = generate_corpus(SynthConfig(lines=10, touch_rate=0.0, seed=9))
    for line in corpus:
        for word in line.chars:
            for (a0, a1), (b0, b1) in zip(word, word[1:]):
                assert b0 - a1 - 1 >= 1


def test_ground_truth_matches_segmentation_exactly():
    corpus = generate_corpus(SynthConfig(lines=10, seed=3))
    for line in corpus:
        seg = segment_words(line.image)
        assert [(w.x_min, w.x_max) for w in seg.words] == list(line.words)
        chain = segment_line_chars(line.image)
        flat = [(c.x_min, c.x_max) for cs in chain.per_word for c in cs.chars]
        truth = [iv for word in line.chars for iv in word]
        assert flat == truth


def test_bridges_stay_inside_middle_band():
    rng = random.Random(0)
    corpus = generate_corpus(SynthConfig(lines=15, touch_rate=1.0, seed=21))
    saw_bridge = False
    for line in corpus:
        px = decode(line.image).pixels
        for word_chars in line.chars:
            ink_rows = [r for r in range(px.shape[0]) if px[r].any()]
            for (a0, a1), (b0, b1) in zip(word_chars, word_chars[1:]):
                gap_cols = px[:, a1 + 1 : b0]
                if not gap_cols.any():
                    continue
                saw_bridge = True
                word_px = px[:, word_chars[0][0] : word_chars[-1][1] + 1]
                word_rows = [r for r in range(word_px.shape[0]) if word_px[r].any()]
                bands = split_bands(*roi_from_bounds(word_rows[0], word_rows[-1], 0.2)[:2])
                bridge_rows = {r for r in range(px.shape[0]) if gap_cols[r].any()}
                assert bridge_rows <= set(bands.middle)
    assert saw_bridge


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(inter_gap=3, intra_gap=3)
    with pytest.raises(ValueError):
        SynthConfig(touch_rate=1.5)
    with pytest.raises(ValueError):
        SynthConfig(lines=0)


def test_written_layout(tmp_path):
    write_corpus(SynthConfig(lines=3, seed=5), tmp_path)
    assert (tmp_path / "ground_truth.json").exists()
    manifest = (tmp_path / "manifest.txt").read_text().splitlines()
    assert len(manifest) == 3
    for rel in manifest:
        assert (tmp_path / rel).exists()
    records = ground_truth_records(generate_corpus(SynthConfig(lines=3, seed=5)))
    assert [r["line_id"] for r in records] == ["line0000", "line0001", "line0002"]
