"""Command-line surface: codec, segmentation, evaluation, bench, synth, render."""

from __future__ import annotations

import argparse
import json
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
    decoding,
)
from .evaluate import BadRecordError, load_ground_truth, predicted_intervals, score_intervals
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

_CONFIG_KEYS = ("threshold", "roi_t", "alpha", "beta", "overlap", "seed")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract says 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def load_config(path) -> dict[str, str]:
    """Parse a key=value config file of _CONFIG_KEYS; '#' starts a comment."""
    cfg = {}
    for lineno, raw in enumerate(_read_text(path).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise ParseError(path, lineno, f"expected key=value, got {raw!r}")
        if key not in _CONFIG_KEYS:
            raise ParseError(path, lineno, f"unknown key {key!r}; keys: {', '.join(_CONFIG_KEYS)}")
        cfg[key] = value
    return cfg


def _setting(args, cfg: dict, key: str, cast, default):
    """cast of the flag value if given, else of the config-file value, else
    the default. A value cast rejects raises SettingError naming the key."""
    value = getattr(args, key, None)
    if value is None:
        if key not in cfg:
            return default
        value = cfg[key]
    try:
        return cast(value)
    except ValueError as exc:
        raise SettingError(key, str(exc)) from exc


def _setting_source(args, key: str) -> str:
    """Where a setting's value came from: its flag, or the config file and key."""
    key = {"t": "roi_t"}.get(key, key)  # RoiParams.t is set by --roi-t / roi_t
    if getattr(args, key, None) is not None or not getattr(args, "config", None):
        return "--" + key.replace("_", "-")
    return f"{args.config}: {key}"


def _overlap(value) -> float:
    """The minimum overlap fraction of a match, in (0, 1]."""
    overlap = float(value)
    if not 0 < overlap <= 1:
        raise SettingError("overlap", f"overlap must be in (0, 1], got {overlap}")
    return overlap


def _resolve_params(args, cfg) -> RoiParams:
    return RoiParams(
        t=_setting(args, cfg, "roi_t", float, DEFAULT_PARAMS.t),
        alpha=_setting(args, cfg, "alpha", float, DEFAULT_PARAMS.alpha),
        beta=_setting(args, cfg, "beta", float, DEFAULT_PARAMS.beta),
    )


def _resolve_mode(args, cfg) -> ThresholdMode:
    return _setting(args, cfg, "threshold", ThresholdMode.parse, ThresholdMode.parse("auto"))


def _input_lines(path: Path) -> list[tuple[str, Path]]:
    """A single .rle file, a directory of them, or a manifest of paths."""
    if path.is_dir():
        files = sorted(path.glob("*.rle"))
        if not files:
            raise ParseError(path, 0, "directory contains no .rle files")
        return [(p.stem, p) for p in files]
    if path.suffix == ".rle":
        return [(path.stem, path)]
    entries = []
    for raw in _read_text(path).splitlines():
        name = raw.strip()
        if name:
            target = (path.parent / name).resolve()
            entries.append((target.stem, target))
    if not entries:
        raise ParseError(path, 0, "manifest lists no files")
    return entries


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
    with decoding(args.rle):
        write_pbm(decode(read_rle(args.rle)), args.pbm, binary=args.binary)
    return EXIT_OK


def cmd_segment(args) -> int:
    cfg = load_config(args.config) if args.config else {}
    mode = _resolve_mode(args, cfg)
    params = _resolve_params(args, cfg)
    chunks = []  # each line's JSON Lines text; written once all lines succeed
    for line_id, path in _input_lines(Path(args.input)):
        line = read_rle(path)
        try:
            if args.mode == "words":
                records = [word_record(line_id, segment_words(line, mode))]
            else:
                records = line_char_records(line_id, segment_line_chars(line, params, mode))
        except EmptyLineError as exc:
            raise EmptyLineError(f"{path}: {exc}") from exc
        chunks.append(dumps(records))
    _emit("\n".join(chunks), args.out)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config) if args.config else {}
    overlap = _setting(args, cfg, "overlap", _overlap, 0.9)
    numbered = _read_records(args.pred)
    try:
        per_line = predicted_intervals([rec for _, rec in numbered], args.mode)
    except KeyError as exc:
        # every record before the first one without the field was an object with it
        lineno = next((n for n, rec in numbered if exc.args[0] not in rec), 0)
        raise ParseError(args.pred, lineno, f"record has no {exc} field") from exc
    except BadRecordError as exc:
        lineno = numbered[exc.index][0]
        raise ParseError(args.pred, lineno, f"bad predictions: {exc.reason}") from exc
    except ValueError as exc:
        raise ParseError(args.pred, 0, f"bad predictions: {exc}") from exc
    try:
        truth = load_ground_truth(args.truth)
        report = score_intervals(per_line, truth, args.mode, overlap)
    # ValueError covers JSON and UTF-8, RecursionError JSON nested too deeply;
    # only the JSON decoder knows a line
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        lineno = exc.lineno if isinstance(exc, json.JSONDecodeError) else 0
        raise ParseError(args.truth, lineno, f"bad ground truth: {exc!r}") from exc
    _emit(json.dumps(report, indent=1), args.out)
    return EXIT_OK


def cmd_bench(args) -> int:
    cfg = load_config(args.config) if args.config else {}
    params = _resolve_params(args, cfg)
    mode = _resolve_mode(args, cfg)
    paths = [p for _, p in _input_lines(Path(args.input))]
    repeat = _setting(args, {}, "repeat", int, 1)  # a flag only, not a config key
    rows = benchmod.bench_paths(paths, params, mode, repeat=repeat)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            benchmod.write_csv(rows, fh)
    else:
        benchmod.write_csv(rows, sys.stdout)
    return EXIT_OK


def cmd_synth(args) -> int:
    cfg = load_config(args.config) if args.config else {}
    # only the seed is also a config key; the others are flags only
    config = SynthConfig(
        lines=_setting(args, {}, "lines", int, 20),
        words_per_line=_setting(args, {}, "words_per_line", int, 4),
        inter_gap=_setting(args, {}, "inter_gap", int, 12),
        intra_gap=_setting(args, {}, "intra_gap", int, 3),
        touch_rate=_setting(args, {}, "touch_rate", float, 0.0),
        seed=_setting(args, cfg, "seed", int, 0),
    )
    paths = write_corpus(config, args.out)
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
    with decoding(args.rle):
        write_pbm(overlay(line, xs), args.out, binary=args.binary)
    return EXIT_OK


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

    # the segmentation settings that segment and bench share
    settings = argparse.ArgumentParser(add_help=False)
    # values stay strings here: _setting converts flag and config values alike
    settings.add_argument("--threshold", default=None,
                          help="auto | fixed:<value> | scale:<factor> (default auto)")
    settings.add_argument("--roi-t", dest="roi_t", default=None)
    settings.add_argument("--alpha", default=None)
    settings.add_argument("--beta", default=None)
    settings.add_argument("--config", default=None, help="key=value config file; flags win")

    p = sub.add_parser("segment", parents=[settings],
                       help="segment lines into words or characters")
    p.add_argument("input", help=".rle file, directory of .rle files, or manifest")
    p.add_argument("--mode", choices=("words", "chars"), default="words")
    p.add_argument("--out", default=None, help="write JSON Lines here instead of stdout")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("evaluate", help="score predictions against ground truth")
    p.add_argument("pred", help="segmentation JSON Lines from the segment command")
    p.add_argument("truth", help="ground-truth JSON")
    p.add_argument("--mode", choices=("word", "char"), default="word")
    p.add_argument("--overlap", default=None, help="minimum overlap fraction (default 0.9)")
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("bench", parents=[settings],
                       help="time run-domain vs pixel-domain segmentation")
    p.add_argument("input", help=".rle file, directory, or manifest")
    p.add_argument("--repeat", default=None, help="timed passes per file (default 1)")
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("synth", help="generate a synthetic corpus with exact ground truth")
    p.add_argument("--out", required=True, help="output directory")
    # values stay strings here too: _setting converts them
    p.add_argument("--lines", default=None, help="(default 20)")
    p.add_argument("--words-per-line", dest="words_per_line", default=None, help="(default 4)")
    p.add_argument("--inter-gap", dest="inter_gap", default=None, help="(default 12)")
    p.add_argument("--intra-gap", dest="intra_gap", default=None, help="(default 3)")
    p.add_argument("--touch-rate", dest="touch_rate", default=None, help="(default 0.0)")
    p.add_argument("--seed", default=None, help="(default 0)")
    p.add_argument("--config", default=None)
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
        return args.func(args)
    except (EmptyLineError, EmptyWordError) as exc:
        print(f"rlseg: empty input: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except SettingError as exc:
        print(f"rlseg: error: {_setting_source(args, exc.key)}: {exc}", file=sys.stderr)
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
