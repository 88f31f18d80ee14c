"""Minimal PNG codec for 8/16-bit grayscale and RGB rasters.

Writing always uses filter type 0 (None) with zlib compression; reading
understands all five scanline filters but rejects palette, alpha, and
interlaced files. 16-bit samples follow the PNG big-endian convention.
Each filter predicts a byte from the decoded bytes left (a), up (b) and
up-left (c) of it (W3C PNG 2nd ed. section 9); the decoder evaluates that
one predictor for all pixels of an anti-diagonal at once, in h + w - 1
steps, and skips it for files whose rows all use filter 0. Every
unreadable, malformed (bad chunk CRC or length, no IEND, corrupt zlib
data) or unsupported file raises :class:`ImageFormatError`.
"""
from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

_SIGNATURE = b"\x89PNG\r\n\x1a\n"


class ImageFormatError(ValueError):
    """Unsupported or inconsistent image content."""


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (struct.pack(">I", len(payload)) + tag + payload
            + struct.pack(">I", zlib.crc32(tag + payload)))


def write_png(path, arr: np.ndarray) -> None:
    """Write a (H, W) or (H, W, 3) uint8/uint16 array as a PNG file."""
    if arr.ndim == 2:
        color_type = 0
    elif arr.ndim == 3 and arr.shape[2] == 3:
        color_type = 2
    else:
        raise ImageFormatError(f"write_png: expected (H, W) or (H, W, 3), got {arr.shape}")
    if arr.dtype == np.uint8:
        depth = 8
    elif arr.dtype == np.uint16:
        depth = 16
    else:
        raise ImageFormatError(f"write_png: expected uint8 or uint16, got {arr.dtype}")

    h, w = arr.shape[:2]
    if depth == 16:
        payload = arr.astype(">u2").tobytes()
    else:
        payload = np.ascontiguousarray(arr).tobytes()
    bytes_per_row = w * (1 if color_type == 0 else 3) * (depth // 8)
    rows = np.frombuffer(payload, dtype=np.uint8).reshape(h, bytes_per_row)
    raw = np.concatenate([np.zeros((h, 1), dtype=np.uint8), rows], axis=1).tobytes()

    ihdr = struct.pack(">IIBBBBB", w, h, depth, color_type, 0, 0, 0)
    data = (_SIGNATURE + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", zlib.compress(raw, 6)) + _chunk(b"IEND", b""))
    Path(path).write_bytes(data)


def _unfilter(raw: np.ndarray, h: int, stride: int, bpp: int) -> np.ndarray:
    """Reverse per-row filtering; raw is (h, 1 + stride) uint8."""
    ftype = raw[:, 0]
    if ftype.max() > 4:
        raise ImageFormatError(f"unsupported scanline filter {ftype.max()}")
    if not ftype.any():
        return raw[:, 1:].copy()
    w = stride // bpp
    # pixel (y, x) sits at out[y + 1, x + 1], so a, b and c read 0 at the
    # edges; in the flat view the anti-diagonal y + x = d is a slice of step w
    out = np.zeros((h + 1, w + 1, bpp), dtype=np.int16)
    out[1:, 1:] = raw[:, 1:].reshape(h, w, bpp)
    flat = out.reshape(-1, bpp)
    for d in range(h + w - 1):
        lo, hi = max(0, d - w + 1), min(h, d + 1)
        start = w + 2 + d + lo * w
        stop = start + (hi - lo - 1) * w + 1
        x, a, b, c = (flat[start - k:stop - k:w] for k in (0, 1, w + 1, w + 2))
        p = a + b - c
        pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
        paeth = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))
        f = ftype[lo:hi, None]
        x += np.select([f == 1, f == 2, f == 3, f == 4], [a, b, (a + b) >> 1, paeth])
        x &= 0xFF
    return out[1:, 1:].astype(np.uint8).reshape(h, stride)


def read_png(path) -> np.ndarray:
    """Read a PNG into a uint8/uint16 array of shape (H, W) or (H, W, 3)."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ImageFormatError(f"cannot read {path}: {exc}") from exc
    if not data.startswith(_SIGNATURE):
        raise ImageFormatError(f"{path}: not a PNG file")

    pos, tag = len(_SIGNATURE), None
    ihdr = None
    idat = bytearray()
    while tag != b"IEND":
        if pos + 8 > len(data):
            raise ImageFormatError(f"{path}: file ends before IEND")
        length, tag = struct.unpack_from(">I4s", data, pos)
        end = pos + 8 + length
        if end + 4 > len(data):
            raise ImageFormatError(f"{path}: {tag!r} chunk runs past the end of the file")
        if zlib.crc32(data[pos + 4:end]) != int.from_bytes(data[end:end + 4], "big"):
            raise ImageFormatError(f"{path}: {tag!r} chunk CRC mismatch")
        payload = data[pos + 8:end]
        pos = end + 4
        if tag == b"IHDR":
            if len(payload) != 13:
                raise ImageFormatError(f"{path}: IHDR has {len(payload)} bytes, need 13")
            ihdr = struct.unpack(">IIBBBBB", payload)
        elif tag == b"IDAT":
            idat.extend(payload)
    if ihdr is None:
        raise ImageFormatError(f"{path}: missing IHDR chunk")

    w, h, depth, color_type, compression, filt, interlace = ihdr
    if w == 0 or h == 0:
        raise ImageFormatError(f"{path}: empty image {w}x{h}")
    if depth not in (8, 16):
        raise ImageFormatError(f"{path}: unsupported bit depth {depth} (need 8 or 16)")
    if color_type not in (0, 2):
        raise ImageFormatError(f"{path}: unsupported color type {color_type} "
                               "(need grayscale or RGB)")
    if interlace:
        raise ImageFormatError(f"{path}: interlaced PNG not supported")

    channels = 1 if color_type == 0 else 3
    bpp = channels * (depth // 8)
    stride = w * bpp
    try:
        raw = np.frombuffer(zlib.decompress(bytes(idat)), dtype=np.uint8)
    except zlib.error as exc:
        raise ImageFormatError(f"{path}: corrupt image data: {exc}") from exc
    if raw.size != h * (stride + 1):
        raise ImageFormatError(f"{path}: truncated image data")
    rows = _unfilter(raw.reshape(h, stride + 1), h, stride, bpp)

    if depth == 16:
        rows = rows.view(">u2").astype(np.uint16)
    arr = rows.reshape(h, w, channels)
    return arr[:, :, 0] if channels == 1 else arr
