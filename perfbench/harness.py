"""Workloads, timed passes and output checks of the rlseg benchmark.

A pass runs the run-domain path the way ``rlseg segment`` runs it: for each
manifest entry ``read_rle`` -> ``segment_words`` or ``segment_line_chars``
-> ``word_record`` or ``line_char_records``, then one ``dumps`` of all
records written to a file. Layers are looked up through their modules at call
time so that the tracer can wrap them.
"""

from __future__ import annotations

import gc
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from rlseg import chars, cli, evaluate, pixel_baseline, records, rle, synth, words
from rlseg.projection import WorkCounter

TOUCH_RATE = 0.3
OVERLAP = 0.9
TAIL_PERCENTILE = 90
WARMUP_LINES = 4  # the warm-up pass runs every layer once before timing
REFERENCE_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "words" or "chars", as in `rlseg segment --mode`
    words_per_line: int
    lines: int
    oracle_lines: int | None  # None: the pixel oracle checks every line
    tiny_lines: int  # corpus size of the smoke path
    reference_lines: int
    reference_ar: float  # AR of the reference corpus, measured on the seed code

    @property
    def eval_mode(self) -> str:
        return "word" if self.mode == "words" else "char"

    def config(self, seed: int, lines: int) -> synth.SynthConfig:
        return synth.SynthConfig(
            lines=lines,
            words_per_line=self.words_per_line,
            touch_rate=TOUCH_RATE,
            seed=seed,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("words_narrow", "words", 8, 300, None, 6, 24, 100.0),
        Workload("chars_narrow", "chars", 8, 100, None, 4, 24, 100.0),
        Workload("chars_wide", "chars", 32, 24, 12, 2, 4, 100.0),
    )
}


@dataclass
class Corpus:
    manifest: Path
    entries: list[tuple[str, Path]]
    truth: list


def build_corpus(workload: Workload, seed: int, lines: int, root: Path) -> Corpus:
    """Generate a corpus with the public synth API and write it to root."""
    synth.write_corpus(workload.config(seed, lines), root)
    manifest = root / "manifest.txt"
    names = manifest.read_text(encoding="ascii").split()
    entries = [(Path(n).stem, root / n) for n in names]
    return Corpus(manifest, entries, evaluate.load_ground_truth(root / "ground_truth.json"))


def write_output(path: Path, text: str) -> None:
    """Write the JSON document as the CLI's --out does."""
    path.write_text(text + "\n", encoding="utf-8")


@dataclass
class PassResult:
    seconds: float  # without the gauge's pauses
    line_ms: list[float]
    per_line: list[list[dict]]  # records of each entry, in manifest order
    errors: dict[str, str]  # line_id -> error message
    # with a gauge: (seconds, gauge segment) of each line, then of the rest of the pass
    pieces: list[tuple[float, int]]


def _rest(pieces, seconds: float, gauge) -> None:
    """Add the pass time not covered by its line pieces as the last piece."""
    if gauge is not None:
        pieces.append((seconds - sum(s for s, _ in pieces), gauge.segment))


def _segment(mode: str, line_id: str, line) -> list[dict]:
    if mode == "words":
        return [records.word_record(line_id, words.segment_words(line))]
    return records.line_char_records(line_id, chars.segment_line_chars(line))


def run_pass(entries, mode: str, out_path: Path, tracer=None, gauge=None) -> PassResult:
    """One run-domain pass from parsing to the written JSON file.

    With a ``gauge``, calibration readings run between lines; their time is
    left out of the pass.
    """
    gc.collect()
    line_ms: list[float] = []
    per_line: list[list[dict]] = []
    errors: dict[str, str] = {}
    all_records: list[dict] = []
    pieces: list[tuple[float, int]] = []
    paused = 0.0
    clock = time.perf_counter
    t0 = clock()
    for line_id, path in entries:
        if tracer is not None:
            tracer.line_id = line_id
        start = clock()
        try:
            recs = _segment(mode, line_id, rle.read_rle(path))
        except Exception as exc:  # a failed line is counted, never skipped
            errors[line_id] = f"{type(exc).__name__}: {exc}"
            recs = []
        took = clock() - start
        line_ms.append(took * 1e3)
        per_line.append(recs)
        all_records.extend(recs)
        if gauge is not None:
            pieces.append((took, gauge.segment))
            paused += gauge.pause()
    if tracer is not None:
        tracer.line_id = None
    write_output(out_path, records.dumps(all_records))
    seconds = clock() - t0 - paused
    _rest(pieces, seconds, gauge)
    return PassResult(seconds, line_ms, per_line, errors, pieces)


def setup(workload: Workload, seed: int, lines: int, root: Path) -> tuple[Corpus, float]:
    """Generate and write the corpus, then warm up; returns it and the seconds taken."""
    shutil.rmtree(root, ignore_errors=True)
    start = time.perf_counter()
    corpus = build_corpus(workload, seed, lines, root)
    run_pass(corpus.entries[:WARMUP_LINES], workload.mode, root / "warmup.json")
    return corpus, time.perf_counter() - start


def input_size(corpus: Corpus) -> dict:
    """Lines, mean width, height, total runs and pixels per run of a corpus."""
    images = [rle.read_rle(path) for _, path in corpus.entries]
    pixels = sum(im.width * im.height for im in images)
    runs = sum(im.total_runs for im in images)
    return {
        "lines": len(images),
        "mean_width": sum(im.width for im in images) / len(images),
        "height": sorted({im.height for im in images}),
        "total_runs": runs,
        "px_per_run": pixels / runs,
    }


def oracle_indices(workload: Workload, n_lines: int) -> list[int]:
    """Lines the pixel oracle checks: all, or a fixed evenly spaced sample."""
    k = workload.oracle_lines
    if k is None or k >= n_lines:
        return list(range(n_lines))
    return [i * n_lines // k for i in range(k)]


@dataclass
class OracleResult:
    seconds: float  # without the gauge's pauses
    per_line: list[list[dict]]
    errors: dict[str, str]
    pieces: list[tuple[float, int]]  # as in PassResult


def oracle_pass(items, mode: str, tracer=None, gauge=None) -> OracleResult:
    """Pixel-domain segmentation, records and dumps of pre-decoded lines."""
    gc.collect()
    per_line: list[list[dict]] = []
    errors: dict[str, str] = {}
    all_records: list[dict] = []
    pieces: list[tuple[float, int]] = []
    paused = 0.0
    clock = time.perf_counter
    t0 = clock()
    for line_id, bitmap in items:
        if tracer is not None:
            tracer.line_id = line_id
        start = clock()
        try:
            if mode == "words":
                recs = [records.word_record(line_id, pixel_baseline.pdp_segment_words(bitmap))]
            else:
                recs = records.line_char_records(
                    line_id, pixel_baseline.pdp_segment_line_chars(bitmap)
                )
        except Exception as exc:  # counted as a failed line
            errors[line_id] = f"{type(exc).__name__}: {exc}"
            recs = []
        per_line.append(recs)
        all_records.extend(recs)
        if gauge is not None:
            pieces.append((clock() - start, gauge.segment))
            paused += gauge.pause()
    if tracer is not None:
        tracer.line_id = None
    records.dumps(all_records)
    seconds = clock() - t0 - paused
    _rest(pieces, seconds, gauge)
    return OracleResult(seconds, per_line, errors, pieces)


def decode_lines(corpus: Corpus, indices, tracer=None) -> list:
    out = []
    for i in indices:
        line_id, path = corpus.entries[i]
        if tracer is not None:
            tracer.line_id = line_id
        out.append((line_id, rle.decode(rle.read_rle(path))))
    if tracer is not None:
        tracer.line_id = None
    return out


def oracle_mismatches(run: PassResult, oracle: OracleResult, corpus: Corpus, indices) -> dict:
    """Lines whose run-domain JSON differs from the pixel oracle's, byte for byte."""
    bad = {}
    for i, pdp_recs in zip(indices, oracle.per_line):
        line_id = corpus.entries[i][0]
        if records.dumps(run.per_line[i]) != records.dumps(pdp_recs):
            bad[line_id] = "run-domain JSON differs from the pixel oracle"
    return bad


def cli_matches(workload: Workload, corpus: Corpus, pass_output: Path, out: Path) -> bool:
    """Whether `rlseg segment <manifest> --mode ...` writes the same bytes."""
    code = cli.main(["segment", str(corpus.manifest), "--mode", workload.mode, "--out", str(out)])
    return code == 0 and out.read_bytes() == pass_output.read_bytes()


def accuracy(workload: Workload, run: PassResult, truth) -> float:
    flat = [rec for recs in run.per_line for rec in recs]
    return evaluate.evaluate_records(flat, truth, workload.eval_mode, OVERLAP)["ar"]


def reference_ar(workload: Workload, root: Path) -> float:
    """AR on the pinned reference corpus; must equal ``workload.reference_ar``."""
    corpus = build_corpus(workload, REFERENCE_SEED, workload.reference_lines, root)
    run = run_pass(corpus.entries, workload.mode, root / "out.json")
    return accuracy(workload, run, corpus.truth)


def counter_crosscheck(tracer, images, bitmaps) -> list[str]:
    """Compare traced visit counts with the program's own WorkCounter.

    ``images`` are run-domain lines and ``bitmaps`` decoded lines; both run
    through the char pipeline with a counter while the tracer is installed.
    Returns one message per disagreement.
    """
    problems = []
    for label, fn, items, names in (
        ("run", chars.segment_line_chars, images,
         ("projection.occupancy", "projection.column_frequency")),
        ("pixel", pixel_baseline.pdp_segment_line_chars, bitmaps,
         ("pixel_baseline.pdp_occupancy", "pixel_baseline.pdp_column_frequency")),
    ):
        for i, item in enumerate(items):
            phase = f"check-{label}-{i}"
            tracer.phase = phase
            counter = WorkCounter()
            fn(item, counter=counter)
            stats = tracer.summarize(phase)
            traced = sum(stats.get(n, {}).get("visits", 0) for n in names)
            if traced != counter.count:
                problems.append(
                    f"{label} line {i}: traced visits {traced} != WorkCounter {counter.count}"
                )
    tracer.phase = None
    return problems


def tail(per_line: list[list[float]]) -> float:
    """TAIL_PERCENTILE of the lines' median times over the passes.

    Each line's median drops the pauses and machine hiccups that hit it in
    one pass only, so the tail is set by the heavy lines, not by chance.
    """
    medians = [statistics.median(times) for times in per_line]
    if len(medians) == 1:
        return medians[0]
    return statistics.quantiles(medians, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
