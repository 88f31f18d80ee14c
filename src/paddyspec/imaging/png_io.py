"""Minimal PNG codec for 8/16-bit grayscale and RGB rasters.

Writing always uses filter type 0 (None) and picks the deflate mode by
sample depth. Unfiltered 16-bit rasters barely compress (``Z_RLE`` saves about
4 % of a 256 px RGB raster), so they go out as stored deflate blocks (zlib
level 0, RFC 1951 section 3.2.4), which every decoder reads and which cost
about a copy to write and to read. 8-bit rasters (in the CLI chain, the
validity masks) keep zlib's run-length strategy (``Z_RLE``), which shrinks a
mostly constant mask over 100 times. Reading understands all five scanline filters but rejects
palette, alpha, and interlaced files. 16-bit samples follow the PNG
big-endian convention. Each filter predicts a byte from the decoded bytes
left (a), up (b) and up-left (c) of it (W3C PNG 2nd ed. section 9). Every
filtered row's prediction is c + g(a - c, b - c), or 0 for None, so one
lazily built (5, 511, 511) uint8 table holds g mod 256 for all five filters.
The decoder works through the anti-diagonals in h + w - 1 steps, each pixel
waiting only on the two before it, with one table lookup per diagonal; it
stores the image diagonal-major, so each diagonal and its a, b and c are
contiguous slices, and it skips all of this for files whose rows all use
filter 0.
Every unreadable, malformed (bad chunk CRC or length, IHDR not first or
repeated, IDAT chunks split by another chunk, a PLTE chunk in a grayscale
image or after IDAT, no IEND, bytes after IEND, corrupt zlib data, image
data longer than IHDR declares, which is not inflated past that size) or
unsupported file (an unknown critical chunk, one whose type starts with an
uppercase letter) raises :class:`ImageFormatError`.
"""
from __future__ import annotations

import functools
import struct
import sys
import zlib
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided

_SIGNATURE = b"\x89PNG\r\n\x1a\n"


class ImageFormatError(ValueError):
    """Unsupported or inconsistent image content."""


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (struct.pack(">I", len(payload)) + tag + payload
            + struct.pack(">I", zlib.crc32(tag + payload)))


def write_png(path, arr: np.ndarray) -> None:
    """Write a (H, W) or (H, W, 3) uint8/uint16 array as a PNG file.

    16-bit rasters are stored uncompressed (deflate stored blocks) and 8-bit
    ones run-length deflated; see the module docstring for why.
    """
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
    # one scanline per row: a zero filter byte (None), then the samples,
    # written big-endian through a view of the same buffer
    samples = w * (1 if color_type == 0 else 3)
    raw = np.zeros((h, 1 + samples * arr.itemsize), dtype=np.uint8)
    raw[:, 1:].view(">u2" if depth == 16 else np.uint8)[...] = arr.reshape(h, samples)
    if depth == 16:
        idat = zlib.compress(raw, 0)
    else:
        deflate = zlib.compressobj(1, zlib.DEFLATED, 15, 8, zlib.Z_RLE)
        idat = deflate.compress(raw) + deflate.flush()
    ihdr = struct.pack(">IIBBBBB", w, h, depth, color_type, 0, 0, 0)
    data = (_SIGNATURE + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", idat) + _chunk(b"IEND", b""))
    Path(path).write_bytes(data)


@functools.cache
def _predictor_table() -> np.ndarray:
    """Flat (5 * 511 * 511,) uint8 table g of every filter's prediction.

    Filter f > 0 predicts c + g[f, a - c + 255, b - c + 255] (mod 256), with
    g[f] = Sub a - c, Up b - c, Average (a - c + b - c) >> 1, and Paeth
    a - c, b - c or 0, comparing |p - a| = |b - c|, |p - b| = |a - c| and
    |p - c| = |a - c + b - c| in the spec's a, b, c tie order. None predicts
    0, and g[0] is 0.
    """
    da = np.arange(-255, 256, dtype=np.int16)[:, None]      # a - c
    db = da.reshape(1, -1)                                   # b - c
    pa, pb, pc = np.abs(db), np.abs(da), np.abs(da + db)
    table = np.zeros((5, 511, 511), dtype=np.uint8)
    table[1] = da & 0xFF
    table[2] = db & 0xFF
    table[3] = ((da + db) >> 1) & 0xFF
    table[4] = np.where((pa <= pb) & (pa <= pc), da, np.where(pb <= pc, db, 0)) & 0xFF
    table = table.reshape(-1)
    table.flags.writeable = False
    return table


def _unfilter(raw: np.ndarray, h: int, stride: int, bpp: int) -> np.ndarray:
    """Reverse per-row filtering; raw is (h, 1 + stride) uint8."""
    ftype = raw[:, 0]
    if ftype.max() > 4:
        raise ImageFormatError(f"unsupported scanline filter {ftype.max()}")
    if not ftype.any():
        return raw[:, 1:].copy()
    table = _predictor_table()
    w = stride // bpp
    # pixel (y, x) sits at cell (y + x + 2) * s + y + 1 of buf, and the zero
    # row y = -1 and column x = -1 at the cells that formula gives them. Each
    # anti-diagonal y + x = d is then a run of cells, and a, b and c sit s,
    # s + 1 and 2s + 1 cells before x; s = min(h + 1, w) keeps the cells of
    # the (h + 1) x (w + 1) padded image distinct.
    s = min(h + 1, w)
    buf = np.zeros(((h + w) * s + h + 1, bpp), dtype=np.uint8)
    pixels = as_strided(buf[2 * s + 1:], shape=(h, w, bpp),
                        strides=((s + 1) * bpp, s * bpp, 1))
    pixels[...] = raw[:, 1:].reshape(h, w, bpp)
    # row y's table offset, and whether its prediction adds c (not None)
    offset = np.repeat(ftype.astype(np.int32)[:, None] * 511 * 511 + 255 * 512, bpp, axis=1)
    adds_c = np.repeat((ftype != 0).astype(np.uint8)[:, None], bpp, axis=1)
    for d in range(h + w - 1):
        lo, hi = max(0, d - w + 1), min(h, d + 1)
        start, stop = (d + 2) * s + lo + 1, (d + 2) * s + hi + 1
        x = buf[start:stop]
        a = buf[start - s:stop - s]
        b = buf[start - s - 1:stop - s - 1]
        c = buf[start - 2 * s - 1:stop - 2 * s - 1]
        index = a * np.int32(511)
        index += b
        index -= c * np.int32(512)
        index += offset[lo:hi]
        x += table.take(index)
        x += c * adds_c[lo:hi]
    return pixels.reshape(h, stride)


def read_png(path) -> np.ndarray:
    """Read a PNG into a uint8/uint16 array of shape (H, W) or (H, W, 3)."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ImageFormatError(f"cannot read {path}: {exc}") from exc
    if not data.startswith(_SIGNATURE):
        raise ImageFormatError(f"{path}: not a PNG file")

    view = memoryview(data)
    pos, tag = len(_SIGNATURE), None
    ihdr = None
    idat = bytearray()
    in_idat = after_idat = has_plte = False
    while tag != b"IEND":
        if pos + 8 > len(data):
            raise ImageFormatError(f"{path}: file ends before IEND")
        length, tag = struct.unpack_from(">I4s", data, pos)
        end = pos + 8 + length
        if end + 4 > len(data):
            raise ImageFormatError(f"{path}: {tag!r} chunk runs past the end of the file")
        if zlib.crc32(view[pos + 4:end]) != int.from_bytes(view[end:end + 4], "big"):
            raise ImageFormatError(f"{path}: {tag!r} chunk CRC mismatch")
        payload = view[pos + 8:end]
        pos = end + 4
        if ihdr is None and tag != b"IHDR":
            raise ImageFormatError(f"{path}: first chunk is {tag!r}, not IHDR")
        if tag == b"IHDR":
            if ihdr is not None:
                raise ImageFormatError(f"{path}: second IHDR chunk")
            if len(payload) != 13:
                raise ImageFormatError(f"{path}: IHDR has {len(payload)} bytes, need 13")
            ihdr = struct.unpack(">IIBBBBB", payload)
        elif tag == b"IDAT":
            if after_idat:
                raise ImageFormatError(f"{path}: IDAT chunks split by another chunk")
            in_idat = True
            idat.extend(payload)
        elif tag == b"PLTE":
            # W3C PNG 2nd ed. 11.2.3: a palette is forbidden in grayscale
            # images (colour types 0 and 4), must precede the image data,
            # appears at most once and holds 1 to 256 three-byte entries
            if ihdr[3] in (0, 4):
                raise ImageFormatError(f"{path}: PLTE chunk in a grayscale image")
            if in_idat:
                raise ImageFormatError(f"{path}: PLTE chunk after IDAT")
            if has_plte:
                raise ImageFormatError(f"{path}: second PLTE chunk")
            if len(payload) % 3 or not 3 <= len(payload) <= 768:
                raise ImageFormatError(f"{path}: PLTE has {len(payload)} bytes, "
                                       "need 1 to 256 three-byte entries")
            has_plte = True
        else:
            # a lowercase first letter marks a chunk a decoder may skip
            if not tag[0] & 0x20 and tag != b"IEND":
                raise ImageFormatError(f"{path}: unknown critical chunk {tag!r}")
            after_idat = in_idat
    if pos != len(data):
        raise ImageFormatError(f"{path}: data after IEND ({len(data) - pos} bytes)")

    w, h, depth, color_type, compression, filt, interlace = ihdr
    if w == 0 or h == 0:
        raise ImageFormatError(f"{path}: empty image {w}x{h}")
    if depth not in (8, 16):
        raise ImageFormatError(f"{path}: unsupported bit depth {depth} (need 8 or 16)")
    if color_type not in (0, 2):
        raise ImageFormatError(f"{path}: unsupported color type {color_type} "
                               "(need grayscale or RGB)")
    if compression or filt:
        raise ImageFormatError(f"{path}: unsupported compression method {compression} "
                               f"or filter method {filt} (need 0 and 0)")
    if interlace:
        raise ImageFormatError(f"{path}: interlaced PNG not supported")

    channels = 1 if color_type == 0 else 3
    bpp = channels * (depth // 8)
    stride = w * bpp
    size = h * (stride + 1)
    inflater = zlib.decompressobj()
    try:
        # one byte past the declared size is enough to reject a stream that
        # would inflate to more, without inflating the rest of it (a size
        # past sys.maxsize cannot be inflated anyway and ends as truncated)
        raw = inflater.decompress(idat, min(size + 1, sys.maxsize))
    except zlib.error as exc:
        raise ImageFormatError(f"{path}: corrupt image data: {exc}") from exc
    if len(raw) > size:
        raise ImageFormatError(f"{path}: image data longer than IHDR's {w}x{h} declares")
    if not inflater.eof:
        raise ImageFormatError(f"{path}: corrupt image data: incomplete or truncated stream")
    if len(raw) != size:
        raise ImageFormatError(f"{path}: truncated image data")
    raw = np.frombuffer(raw, dtype=np.uint8)
    rows = _unfilter(raw.reshape(h, stride + 1), h, stride, bpp)

    if depth == 16:
        rows = rows.view(">u2").astype(np.uint16)
    arr = rows.reshape(h, w, channels)
    return arr[:, :, 0] if channels == 1 else arr
