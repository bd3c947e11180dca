"""Deterministic synthetic text-line corpus with exact segment ground truth.

Glyphs are solid rectangles spanning the x-height core (optionally reaching
into the ascender or descender zone), so every glyph covers all three ROI
bands and the ground truth equals the drawn intervals by construction.
Touching characters are simulated by bridges drawn only at the center of the
middle band; they never enter the top or bottom band.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .chars import roi_bands
from .errors import SettingError
from .rle import Bitmap, RleImage, encode, write_rle

# Row zones of a generated line: one blank guard row, ascender zone,
# x-height core, descender zone, one blank guard row.
_ASC = range(1, 9)
_CORE = range(9, 33)
_DESC = range(33, 41)
_HEIGHT = 42
_MARGIN = 4
_ROI_T = 0.2  # trim fraction the bridge placement is tuned for


@dataclass(frozen=True)
class SynthConfig:
    lines: int = 20
    words_per_line: int = 4
    glyphs_per_word: tuple[int, int] = (2, 6)
    glyph_width: tuple[int, int] = (6, 10)
    inter_gap: int = 12
    intra_gap: int = 3
    touch_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for key in ("lines", "words_per_line", "intra_gap"):
            if getattr(self, key) < 1:
                raise SettingError(key, f"{key} must be >= 1, got {getattr(self, key)}")
        if self.glyphs_per_word[0] < 1 or self.glyph_width[0] < 1:
            raise ValueError("glyph counts and widths must be >= 1")
        if self.inter_gap <= self.intra_gap:
            raise SettingError("inter_gap", "need inter_gap > intra_gap")
        if not 0 <= self.touch_rate <= 1:
            raise SettingError("touch_rate", f"touch_rate must be in [0, 1], got {self.touch_rate}")


@dataclass(frozen=True)
class SynthLine:
    line_id: str
    image: RleImage
    words: tuple[tuple[int, int], ...]
    chars: tuple[tuple[tuple[int, int], ...], ...]


def _generate_line(rng: random.Random, cfg: SynthConfig, line_id: str) -> SynthLine:
    glyph_rects: list[tuple[int, int, int, int]] = []  # x0, x1, r0, r1 (rows half-open)
    touching: list[tuple[int, int, list]] = []  # ink top, ink bottom, gap spans of a word
    words: list[tuple[int, int]] = []
    chars: list[tuple[tuple[int, int], ...]] = []
    x = _MARGIN
    for wi in range(cfg.words_per_line):
        count = rng.randint(*cfg.glyphs_per_word)
        glyphs = []
        rects = []
        pending = []  # gap spans awaiting this word's middle band
        for gi in range(count):
            width = rng.randint(*cfg.glyph_width)
            r0 = _ASC.start if rng.random() < 0.3 else _CORE.start
            r1 = _DESC.stop if rng.random() < 0.3 else _CORE.stop
            rects.append((x, x + width - 1, r0, r1))
            glyphs.append((x, x + width - 1))
            if gi < count - 1:
                if rng.random() < cfg.touch_rate:
                    pending.append((x + width, x + width + cfg.intra_gap - 1))
                x += width + cfg.intra_gap
            else:
                x += width
        if pending:
            ink_top = min(r0 for _, _, r0, _ in rects)
            ink_bot = max(r1 for _, _, _, r1 in rects) - 1
            touching.append((ink_top, ink_bot, pending))
        glyph_rects.extend(rects)
        words.append((glyphs[0][0], glyphs[-1][1]))
        chars.append(tuple(glyphs))
        if wi < cfg.words_per_line - 1:
            x += cfg.inter_gap

    width = x + _MARGIN
    px = np.zeros((_HEIGHT, width), dtype=np.uint8)
    for x0, x1, r0, r1 in glyph_rects:
        px[r0:r1, x0 : x1 + 1] = 1
    if touching:
        # segmentation trims the ROI per word, so a bridge must sit at the
        # center of its word's middle band, not the line's
        tops, bots, spans = zip(*touching)
        *_, mid_start, mid_stop = roi_bands(np.array(tops), np.array(bots), _ROI_T)
        for center, pending in zip(((mid_start + mid_stop) // 2).tolist(), spans):
            for a, b in pending:
                px[center - 1 : center + 2, a : b + 1] = 1

    return SynthLine(line_id, encode(Bitmap(px)), tuple(words), tuple(chars))


def generate_corpus(cfg: SynthConfig) -> list[SynthLine]:
    """Generate the whole corpus; identical for identical configs."""
    rng = random.Random(cfg.seed)
    return [_generate_line(rng, cfg, f"line{i:04d}") for i in range(cfg.lines)]


def ground_truth_records(corpus: list[SynthLine]) -> list[dict]:
    return [
        {
            "line_id": line.line_id,
            "words": [list(iv) for iv in line.words],
            "chars": [[list(iv) for iv in word] for word in line.chars],
        }
        for line in corpus
    ]


def write_corpus(cfg: SynthConfig, out_dir) -> list[Path]:
    """Write lines/*.rle, ground_truth.json and manifest.txt under out_dir."""
    out_dir = Path(out_dir)
    line_dir = out_dir / "lines"
    line_dir.mkdir(parents=True, exist_ok=True)
    corpus = generate_corpus(cfg)
    paths = []
    for line in corpus:
        path = line_dir / f"{line.line_id}.rle"
        write_rle(line.image, path)
        paths.append(path)
    (out_dir / "ground_truth.json").write_text(
        json.dumps(ground_truth_records(corpus), separators=(",", ":")) + "\n",
        encoding="utf-8",
    )
    (out_dir / "manifest.txt").write_text(
        "".join(f"lines/{p.name}\n" for p in paths), encoding="ascii"
    )
    return paths
