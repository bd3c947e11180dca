"""PBM reading and writing (P1 ASCII and P4 packed); PBM 1 = black = ink.

Both encodings are read and written in NumPy passes. Each header token is one
regex match over the whitespace and ``#`` comments before it. A P1 raster
takes one pass however many comments it holds: a regex substitution removes
them (they hold no line break, so line numbers survive), then one table lookup
finds the pixels, or the first bad byte and its line.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .errors import ParseError
from .rle import Bitmap

_WHITESPACE = b" \t\r\n"


def _line_of(data: bytes, pos: int) -> int:
    return data.count(b"\n", 0, pos) + 1


# A comment runs from "#" to the end of its line; it holds no line break.
_COMMENT = re.compile(rb"#[^\r\n]*")
# Whitespace and comments, then a decimal token's digits (maybe none). The
# possessive *+ keeps no backtracking state per comment or whitespace run.
_HEADER_TOKEN = re.compile(rb"(?:[ \t\r\n]+|" + _COMMENT.pattern + rb")*+([0-9]*)")


def _next_token(data: bytes, pos: int, path) -> tuple[int, int]:
    """Read one decimal header token, skipping whitespace and # comments."""
    m = _HEADER_TOKEN.match(data, pos)
    if m.start(1) == m.end(1):
        raise ParseError(path, _line_of(data, m.start(1)), "expected a decimal header token")
    try:
        return int(m[1]), m.end(1)
    except ValueError as exc:  # more digits than Python converts to an int
        raise ParseError(path, _line_of(data, m.start(1)), str(exc)) from exc


def read_pbm(path) -> Bitmap:
    """Load a PBM file; accepts both the P1 and the P4 encoding."""
    path = Path(path)
    data = path.read_bytes()
    magic = data[:2]
    if magic not in (b"P1", b"P4"):
        raise ParseError(path, 1, f"not a PBM file (magic {magic!r}, expected P1 or P4)")
    width, pos = _next_token(data, 2, path)
    height, pos = _next_token(data, pos, path)
    if width < 1 or height < 1:
        raise ParseError(path, 1, f"width and height must be >= 1, got {width}x{height}")
    if magic == b"P1":
        return _read_p1_raster(data, pos, width, height, path)
    return _read_p4_raster(data, pos, width, height, path)


# The bytes of a P1 raster without its comments: the two pixel digits and whitespace.
_P1_PLAIN = np.zeros(256, dtype=bool)
_P1_PLAIN[list(b"01" + _WHITESPACE)] = True


def _read_p1_raster(data: bytes, pos: int, width: int, height: int, path) -> Bitmap:
    """The first width*height digits after pos, in one pass over the raster
    with its comments removed; the pixels must come before any other byte.
    Bytes after the last pixel stay unread."""
    target = width * height
    stripped = _COMMENT.sub(b"", data[pos:])
    raster = np.frombuffer(stripped, dtype=np.uint8)
    plain = _P1_PLAIN.take(raster)
    bad = len(raster) if plain.all() else int(plain.argmin())
    head = raster[:bad]
    digits = head[head >= 0x30]  # '0' and '1' sort above the whitespace bytes
    if digits.size >= target:
        return Bitmap((digits[:target] - 0x30).reshape(height, width))
    if bad < len(raster):
        # removing the comments kept every line break, so lines count the same
        line = _line_of(data, pos) + stripped.count(b"\n", 0, bad)
        raise ParseError(path, line, f"unexpected byte {chr(raster[bad])!r} in P1 raster")
    raise ParseError(
        path, _line_of(data, len(data)), f"truncated P1 raster: {digits.size} of {target} pixels"
    )


def _read_p4_raster(data: bytes, pos: int, width: int, height: int, path) -> Bitmap:
    if pos >= len(data) or data[pos : pos + 1] not in _WHITESPACE:
        raise ParseError(path, _line_of(data, pos), "expected whitespace after P4 header")
    pos += 1  # exactly one whitespace byte separates header and raster
    row_bytes = (width + 7) // 8
    need = row_bytes * height
    payload = data[pos : pos + need]
    if len(payload) < need:
        raise ParseError(
            path,
            _line_of(data, pos),
            f"truncated P4 raster: need {need} bytes, found {len(payload)}",
        )
    packed = np.frombuffer(payload, dtype=np.uint8).reshape(height, row_bytes)
    bits = np.unpackbits(packed, axis=1)[:, :width]
    return Bitmap(bits)


def write_pbm(bitmap: Bitmap, path, binary: bool = False) -> None:
    """Write a bitmap as P4 when binary is set, else as line-wrapped P1."""
    path = Path(path)
    if binary:
        packed = np.packbits(bitmap.pixels, axis=1)
        path.write_bytes(f"P4\n{bitmap.width} {bitmap.height}\n".encode() + packed.tobytes())
        return
    # Each row's digits, cut into lines of 64 (below the classic 70-character
    # PBM limit) by copying them into a newline-filled buffer: full lines as
    # (n, 64) blocks of (n, 65) ones, then the short last line.
    digits = bitmap.pixels + 0x30  # 0/1 -> b"0"/b"1"
    h, w = digits.shape
    n = w // 64
    out = np.full((h, w + -(-w // 64)), 0x0A, dtype=np.uint8)
    out[:, : n * 65].reshape(h, n, 65)[:, :, :64] = digits[:, : n * 64].reshape(h, n, 64)
    out[:, n * 65 : n * 65 + w % 64] = digits[:, n * 64 :]
    path.write_bytes(f"P1\n{w} {h}\n".encode() + out.tobytes())
