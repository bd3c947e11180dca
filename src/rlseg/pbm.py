"""PBM reading and writing (P1 ASCII and P4 packed); PBM 1 = black = ink.

Both encodings are read and written in NumPy passes. A P1 raster takes one
pass however many ``#`` comments it holds: a regex substitution removes them
(they hold no line break, so line numbers survive), then one table lookup
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


def _next_token(data: bytes, pos: int, path) -> tuple[int, int]:
    """Read one decimal header token, skipping whitespace and # comments."""
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c in _WHITESPACE:
            pos += 1
        elif c == b"#":
            while pos < n and data[pos : pos + 1] not in b"\r\n":
                pos += 1
        else:
            break
    start = pos
    while pos < n and data[pos : pos + 1].isdigit():
        pos += 1
    if start == pos:
        raise ParseError(path, _line_of(data, start), "expected a decimal header token")
    return int(data[start:pos]), pos


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


# A comment runs from "#" to the end of its line; it holds no line break.
_P1_COMMENT = re.compile(rb"#[^\r\n]*")
# The bytes of a P1 raster without its comments: the two pixel digits and whitespace.
_P1_PLAIN = np.zeros(256, dtype=bool)
_P1_PLAIN[list(b"01" + _WHITESPACE)] = True


def _read_p1_raster(data: bytes, pos: int, width: int, height: int, path) -> Bitmap:
    """The first width*height digits after pos, in one pass over the raster
    with its comments removed; the pixels must come before any other byte.
    Bytes after the last pixel stay unread."""
    target = width * height
    stripped = _P1_COMMENT.sub(b"", data[pos:])
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
