"""Command-line surface: codec, segmentation, evaluation, bench, synth, render."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import bench as benchmod
from .chars import DEFAULT_PARAMS, RoiParams, segment_line_chars
from .errors import (
    EmptyGroundTruthError,
    EmptyLineError,
    EmptyWordError,
    MalformedRleError,
    ParseError,
    SettingError,
    named,
)
from .evaluate import (
    DEFAULT_OVERLAP,
    BadRecordError,
    load_ground_truth,
    overlap_fraction,
    predicted_intervals,
    score_intervals,
)
from .pbm import read_pbm, write_pbm
from .records import dumps, line_char_records, word_record
from .render import overlay
from .rle import decode, encode, read_rle, write_rle
from .synth import SynthConfig, write_corpus
from .words import ThresholdMode, segment_words

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_EMPTY = 2
EXIT_EVAL = 3
EXIT_PARSE = 4
EXIT_PIPE = 141  # 128 + SIGPIPE: what a shell reports for a writer whose reader left

# key -> (conversion, default, help) of each setting a config file may hold; its
# flag is --key with "-" for "_", and its default is a value its conversion takes
_CONFIG = {
    "threshold": (ThresholdMode.parse, "auto", "auto | fixed:<value> | scale:<factor>"),
    "roi_t": (float, DEFAULT_PARAMS.t, "fraction trimmed off a word's ink box top and bottom"),
    "alpha": (float, DEFAULT_PARAMS.alpha, "merge fragments shorter than alpha x mean length"),
    "beta": (float, DEFAULT_PARAMS.beta, "split segments longer than beta x mean length"),
    "overlap": (overlap_fraction, DEFAULT_OVERLAP, "minimum overlap fraction of a match"),
    "seed": (int, SynthConfig.seed, "random seed of the corpus"),
}
# ... and of each setting that is a flag only
_SETTINGS = {
    **_CONFIG,
    "repeat": (int, 1, "timed passes per file"),
    "lines": (int, SynthConfig.lines, "lines in the corpus"),
    "words_per_line": (int, SynthConfig.words_per_line, "words per line"),
    "inter_gap": (int, SynthConfig.inter_gap, "columns between words"),
    "intra_gap": (int, SynthConfig.intra_gap, "columns between the glyphs of a word"),
    "touch_rate": (float, SynthConfig.touch_rate, "chance that a glyph gap is bridged"),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract says 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _convert(key: str, value):
    """value converted by key's setting; a value it rejects raises SettingError naming key."""
    try:
        return _SETTINGS[key][0](value)
    except ValueError as exc:
        raise SettingError(key, str(exc)) from exc


def _roi_params(settings: dict) -> RoiParams:
    return RoiParams(settings["roi_t"], settings["alpha"], settings["beta"])


def load_config(path) -> dict[str, str]:
    """Parse a key=value config file of _CONFIG's keys ('#' starts a comment), then
    check that every value converts and, with the defaults, makes a RoiParams."""
    cfg = {}
    for lineno, raw in enumerate(_read_text(path).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise ParseError(path, lineno, f"expected key=value, got {raw!r}")
        if key not in _CONFIG:
            raise ParseError(path, lineno, f"unknown key {key!r}; keys: {', '.join(_CONFIG)}")
        cfg[key] = value
    try:
        _roi_params({k: _convert(k, cfg.get(k, default)) for k, (_, default, _) in _CONFIG.items()})
    except SettingError as exc:
        exc.in_config = True  # the file's own value, whatever flag overrides it
        raise
    return cfg


def _settings(args) -> dict:
    """Each of the command's settings: its flag, else its config-file value, else its default."""
    cfg = load_config(args.config) if args.config else {}
    flags = vars(args)
    return {
        key: _convert(key, cfg.get(key, default) if flags[key] is None else flags[key])
        for key, (_, default, _) in _SETTINGS.items()
        if key in flags
    }


def _setting_source(args, exc: SettingError) -> str:
    """Where a bad setting's value came from: its flag, or the config file and key."""
    key = {"t": "roi_t"}.get(exc.key, exc.key)  # RoiParams.t is set by --roi-t / roi_t
    if exc.in_config or (getattr(args, key, None) is None and getattr(args, "config", None)):
        return f"{args.config}: {key}"
    return "--" + key.replace("_", "-")


def _input_lines(path: Path) -> list[tuple[str, Path]]:
    """A single .rle file, a directory of them, or a manifest of paths."""
    if path.is_dir():
        files = sorted(path.glob("*.rle"))
        if not files:
            raise ParseError(path, 0, "directory contains no .rle files")
        return [(p.stem, p) for p in files]
    if path.suffix == ".rle":
        return [(path.stem, path)]
    entries = {}  # line_id -> file; the line_id is the file's stem, so it must not repeat
    for lineno, raw in enumerate(_read_text(path).splitlines(), 1):
        name = raw.strip()
        if name:
            target = (path.parent / name).resolve()
            if target.stem in entries:
                detail = f"{name!r} repeats line_id {target.stem!r} of an earlier entry"
                raise ParseError(path, lineno, detail)
            entries[target.stem] = target
    if not entries:
        raise ParseError(path, 0, "manifest lists no files")
    return list(entries.items())


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(path, 0, f"not UTF-8: {exc}") from exc


def _read_records(path) -> list[tuple[int, object]]:
    """The records of a JSON Lines file with their line numbers, skipping empty lines.

    Only "\n" ends a line: the writer escapes every other line break.
    """
    records = []
    for lineno, line in enumerate(_read_text(path).split("\n"), 1):
        if line:
            try:
                records.append((lineno, json.loads(line)))
            except (ValueError, RecursionError) as exc:
                # bad syntax, an int past Python's digit limit, or nesting too deep
                msg = exc.msg if isinstance(exc, json.JSONDecodeError) else str(exc)
                raise ParseError(path, lineno, f"not JSON: {msg}") from exc
    return records


def _emit(text: str, out_path) -> None:
    if out_path:
        Path(out_path).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def cmd_encode(args) -> int:
    write_rle(encode(read_pbm(args.pbm)), args.rle)
    return EXIT_OK


def cmd_decode(args) -> int:
    with named(args.rle):
        write_pbm(decode(read_rle(args.rle)), args.pbm, binary=args.binary)
    return EXIT_OK


def cmd_segment(args) -> int:
    settings = _settings(args)
    mode, params = settings["threshold"], _roi_params(settings)
    chunks = []  # each line's JSON Lines text; written once all lines succeed
    for line_id, path in _input_lines(Path(args.input)):
        line = read_rle(path)
        with named(path):
            if args.mode == "words":
                records = [word_record(line_id, segment_words(line, mode))]
            else:
                records = line_char_records(line_id, segment_line_chars(line, params, mode))
        chunks.append(dumps(records))
    _emit("\n".join(chunks), args.out)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    overlap = _settings(args)["overlap"]
    numbered = _read_records(args.pred)
    try:
        per_line = predicted_intervals([rec for _, rec in numbered], args.mode)
    except BadRecordError as exc:
        lineno = numbered[exc.index][0]
        raise ParseError(args.pred, lineno, f"bad predictions: {exc.reason}") from exc
    try:
        truth = load_ground_truth(args.truth)
        report = score_intervals(per_line, truth, args.mode, overlap)
    # ValueError covers JSON, UTF-8 and every bad record, RecursionError JSON
    # nested too deeply; only the JSON decoder knows a line
    except (ValueError, RecursionError) as exc:
        lineno = exc.lineno if isinstance(exc, json.JSONDecodeError) else 0
        raise ParseError(args.truth, lineno, f"bad ground truth: {exc!r}") from exc
    _emit(json.dumps(report, indent=1), args.out)
    return EXIT_OK


def cmd_bench(args) -> int:
    settings = _settings(args)
    params, mode = _roi_params(settings), settings["threshold"]
    paths = [p for _, p in _input_lines(Path(args.input))]
    rows = benchmod.bench_paths(paths, params, mode, repeat=settings["repeat"])
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            benchmod.write_csv(rows, fh)
    else:
        benchmod.write_csv(rows, sys.stdout)
    return EXIT_OK


def cmd_synth(args) -> int:
    paths = write_corpus(SynthConfig(**_settings(args)), args.out)
    print(f"wrote {len(paths)} lines under {args.out}")
    return EXIT_OK


def cmd_render(args) -> int:
    line = read_rle(args.rle)
    stem = Path(args.rle).stem
    xs = []
    for lineno, rec in _read_records(args.seg):
        try:
            seps = rec.get("separators", []) if rec.get("line_id") == stem else []
            own = [sep["x"] for sep in seps]
        except (AttributeError, KeyError, TypeError) as exc:
            raise ParseError(args.seg, lineno, f"bad record: {exc!r}") from exc
        for x in own:
            if type(x) is not int or not 0 <= x < line.width:  # so no bool or float either
                detail = f"separator x {json.dumps(x)} is not an int in [0, {line.width})"
                raise ParseError(args.seg, lineno, detail)
        xs += own
    with named(args.rle):
        write_pbm(overlay(line, xs), args.out, binary=args.binary)
    return EXIT_OK


def _add_settings(parser, *keys) -> None:
    """A flag for each of keys, its value kept a string for _settings, and --config."""
    for key in keys:
        _, default, text = _SETTINGS[key]
        parser.add_argument("--" + key.replace("_", "-"), help=f"{text} (default {default})")
    parser.add_argument("--config", help="key=value config file; flags win")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rlseg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("encode", help="PBM (P1/P4) to .rle")
    p.add_argument("pbm")
    p.add_argument("rle")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help=".rle to PBM")
    p.add_argument("rle")
    p.add_argument("pbm")
    p.add_argument("--binary", action="store_true", help="write packed P4 instead of P1")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("segment", help="segment lines into words or characters")
    p.add_argument("input", help=".rle file, directory of .rle files, or manifest")
    p.add_argument("--mode", choices=("words", "chars"), default="words")
    p.add_argument("--out", default=None, help="write JSON Lines here instead of stdout")
    _add_settings(p, "threshold", "roi_t", "alpha", "beta")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("evaluate", help="score predictions against ground truth")
    p.add_argument("pred", help="segmentation JSON Lines from the segment command")
    p.add_argument("truth", help="ground-truth JSON")
    p.add_argument("--mode", choices=("word", "char"), default="word")
    p.add_argument("--out", default=None)
    _add_settings(p, "overlap")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("bench", help="time run-domain vs pixel-domain segmentation")
    p.add_argument("input", help=".rle file, directory, or manifest")
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")
    _add_settings(p, "threshold", "roi_t", "alpha", "beta", "repeat")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("synth", help="generate a synthetic corpus with exact ground truth")
    p.add_argument("--out", required=True, help="output directory")
    _add_settings(p, "lines", "words_per_line", "inter_gap", "intra_gap", "touch_rate", "seed")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("render", help="overlay separators on the decoded line")
    p.add_argument("rle")
    p.add_argument("seg", help="segmentation JSON Lines from the segment command")
    p.add_argument("out", help="output PBM path")
    p.add_argument("--binary", action="store_true")
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader of stdout went away: stop quietly, and let the final
        # flush write what is left to nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (EmptyLineError, EmptyWordError) as exc:
        print(f"rlseg: empty input: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except SettingError as exc:
        print(f"rlseg: error: {_setting_source(args, exc)}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EmptyGroundTruthError as exc:
        print(f"rlseg: evaluation error: {exc}", file=sys.stderr)
        return EXIT_EVAL
    except (ParseError, MalformedRleError) as exc:
        print(f"rlseg: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"rlseg: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
