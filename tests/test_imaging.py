"""PNG codec, raster container, resize, and warp behavior."""
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paddyspec import imaging
from paddyspec.imaging import ImageF, ImageFormatError, png_io
from paddyspec.imaging import transform as transform_module


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def _paeth(a: int, b: int, c: int) -> int:
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    if pb <= pc:
        return b
    return c


def w3c_predictions(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(5, ...) predictions of None, Sub, Up, Average and Paeth, ties as ``_paeth``."""
    p = a + b - c
    pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    paeth = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))
    return np.stack([np.zeros_like(a), a, b, (a + b) >> 1, paeth])


def reference_unfilter(raw: np.ndarray, h: int, stride: int, bpp: int) -> np.ndarray:
    """Reverse per-row filtering one byte at a time; raw is (h, 1 + stride) uint8.

    The decoder this package shipped before its wavefront decoder, kept as
    the oracle that ``png_io._unfilter`` must match byte for byte.
    """
    out = np.zeros((h, stride), dtype=np.uint8)
    for y in range(h):
        ftype = int(raw[y, 0])
        row = raw[y, 1:].astype(np.int32)
        prev = out[y - 1].astype(np.int32) if y else np.zeros(stride, dtype=np.int32)
        if ftype == 0:
            rec = row
        elif ftype == 1:      # Sub: cumulative within each byte lane
            rec = row.copy()
            for i in range(bpp, stride):
                rec[i] = (rec[i] + rec[i - bpp]) & 0xFF
        elif ftype == 2:      # Up
            rec = (row + prev) & 0xFF
        elif ftype == 3:      # Average
            rec = row.copy()
            for i in range(stride):
                left = rec[i - bpp] if i >= bpp else 0
                rec[i] = (rec[i] + ((left + prev[i]) >> 1)) & 0xFF
        elif ftype == 4:      # Paeth
            rec = row.copy()
            for i in range(stride):
                left = int(rec[i - bpp]) if i >= bpp else 0
                upleft = int(prev[i - bpp]) if i >= bpp else 0
                rec[i] = (rec[i] + _paeth(left, int(prev[i]), upleft)) & 0xFF
        else:
            raise ImageFormatError(f"unsupported scanline filter {ftype}")
        out[y] = rec.astype(np.uint8)
    return out


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (struct.pack(">I", len(payload)) + tag + payload
            + struct.pack(">I", zlib.crc32(tag + payload)))


def _png(ihdr: bytes, raw: bytes, end: bytes = _chunk(b"IEND", b"")) -> bytes:
    return (b"\x89PNG\r\n\x1a\n" + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", zlib.compress(raw)) + end)


def filter_rows(arr: np.ndarray, filters) -> np.ndarray:
    """Filtered scanlines of arr, one filter type per row: (h, 1 + stride) uint8.

    Each filter subtracts its prediction from the left (a), up (b) and
    up-left (c) bytes of the unfiltered image (W3C PNG 2nd ed. section 9).
    """
    h = arr.shape[0]
    bpp = (1 if arr.ndim == 2 else arr.shape[2]) * arr.itemsize
    rows = np.frombuffer(arr.astype(arr.dtype.newbyteorder(">")).tobytes(),
                         dtype=np.uint8).reshape(h, -1).astype(np.int32)
    a = np.zeros_like(rows)
    a[:, bpp:] = rows[:, :-bpp]
    b = np.zeros_like(rows)
    b[1:] = rows[:-1]
    c = np.zeros_like(rows)
    c[1:, bpp:] = rows[:-1, :-bpp]
    paeth = np.vectorize(_paeth)(a, b, c)
    predictions = np.stack([np.zeros_like(rows), a, b, (a + b) >> 1, paeth])
    filters = np.asarray(filters)
    enc = (rows - predictions[filters, np.arange(h)]) % 256
    return np.concatenate([filters[:, None], enc], axis=1).astype(np.uint8)


def encode_png(arr: np.ndarray, filters) -> bytes:
    """PNG file bytes for an 8/16-bit gray or RGB array with per-row filters."""
    h, w = arr.shape[:2]
    ihdr = struct.pack(">IIBBBBB", w, h, 8 * arr.itemsize, 0 if arr.ndim == 2 else 2,
                       0, 0, 0)
    return _png(ihdr, filter_rows(arr, filters).tobytes())


@st.composite
def filtered_images(draw):
    dtype = draw(st.sampled_from([np.uint8, np.uint16]))
    h, w = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    shape = draw(st.sampled_from([(h, w), (h, w, 3)]))
    # a few levels make the Paeth ties between a, b and c common
    levels = draw(st.sampled_from([3, np.iinfo(dtype).max + 1]))
    seed = draw(st.integers(0, 2 ** 31 - 1))
    arr = np.random.default_rng(seed).integers(0, levels, size=shape)
    filters = draw(st.lists(st.integers(0, 4), min_size=h, max_size=h))
    return arr.astype(dtype), filters


def _read_or_none(path):
    try:
        return imaging.read_png(path)
    except ImageFormatError:
        return None


class TestPngCodec:
    @pytest.mark.parametrize("dtype,shape", [
        (np.uint8, (13, 9)),
        (np.uint8, (7, 11, 3)),
        (np.uint16, (13, 9)),
        (np.uint16, (7, 11, 3)),
    ])
    def test_round_trip(self, tmp_path, rng, dtype, shape):
        hi = 255 if dtype == np.uint8 else 65535
        arr = rng.integers(0, hi + 1, size=shape).astype(dtype)
        path = tmp_path / "img.png"
        imaging.write_png(path, arr)
        back = imaging.read_png(path)
        assert back.dtype == dtype
        assert np.array_equal(back, arr)

    @given(dtype=st.sampled_from([np.uint8, np.uint16]), rgb=st.booleans(),
           h=st.integers(1, 40), w=st.integers(1, 300), seed=st.integers(0, 2 ** 31 - 1))
    # 40 rows of 16-bit RGB at width 300 are 72,040 scanline bytes, more
    # than one stored deflate block holds (65,535)
    @example(dtype=np.uint16, rgb=True, h=40, w=300, seed=0)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_written_png_round_trips(self, tmp_path_factory, dtype, rgb, h, w, seed):
        shape = (h, w, 3) if rgb else (h, w)
        arr = np.random.default_rng(seed).integers(
            0, np.iinfo(dtype).max + 1, size=shape).astype(dtype)
        path = tmp_path_factory.mktemp("written") / "img.png"
        imaging.write_png(path, arr)
        back = imaging.read_png(path)
        assert back.dtype == dtype
        assert np.array_equal(back, arr)

    def test_deflate_mode_follows_sample_depth(self, tmp_path, rng):
        # 16-bit: stored blocks (BTYPE 00), the first of several, not final,
        # even for 12-bit DN that a Huffman block would code shorter
        arr = rng.integers(0, 4096, size=(40, 300, 3)).astype(np.uint16)
        imaging.write_png(tmp_path / "wide.png", arr)
        data = (tmp_path / "wide.png").read_bytes()
        first = data[data.index(b"IDAT") + 4 + 2]      # after the zlib header
        assert (first >> 1) & 3 == 0 and not first & 1
        # 8-bit: a constant mask still compresses below 1 % of its scanlines
        imaging.write_png(tmp_path / "mask.png", np.full((256, 256), 255, np.uint8))
        assert (tmp_path / "mask.png").stat().st_size < 0.01 * 256 * 257

    def test_rejects_non_png(self, tmp_path):
        path = tmp_path / "fake.png"
        path.write_bytes(b"not a png at all")
        with pytest.raises(ImageFormatError, match="not a PNG"):
            imaging.read_png(path)

    @given(filtered_images())
    @example((np.arange(90, dtype=np.uint8).reshape(5, 6, 3), [0, 1, 2, 3, 4]))
    @example((np.array([[40000]], dtype=np.uint16), [4]))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_decodes_filtered_scanlines(self, tmp_path_factory, case):
        # every filter type, 8/16 bit, gray/RGB, down to 1x1: the decoder
        # matches the byte-at-a-time oracle and recovers the array
        arr, filters = case
        h = arr.shape[0]
        raw = filter_rows(arr, filters)
        stride = raw.shape[1] - 1
        bpp = stride // arr.shape[1]
        expected = reference_unfilter(raw, h, stride, bpp)
        assert png_io._unfilter(raw, h, stride, bpp).tobytes() == expected.tobytes()
        path = tmp_path_factory.mktemp("filtered") / "img.png"
        path.write_bytes(encode_png(arr, filters))
        back = imaging.read_png(path)
        assert back.dtype == arr.dtype
        assert np.array_equal(back, arr)

    def test_predictor_table_matches_w3c_for_every_byte_triple(self):
        # c (filters 1-4) plus the table entry at (a - c, b - c) is the
        # filter's prediction mod 256 for all (a, b, c) in [0, 255]^3
        table = png_io._predictor_table().reshape(5, 511, 511).astype(np.int32)
        a, b = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
        # the vectorised oracle breaks Paeth's ties (common at these levels)
        # as `_paeth` does
        levels = [0, 1, 2, 3, 64, 127, 128, 129, 191, 253, 254, 255]
        triples = np.array(np.meshgrid(levels, levels, levels)).reshape(3, -1).T
        assert (w3c_predictions(*triples.T)[4].tolist()
                == [_paeth(*t) for t in triples.tolist()])
        adds_c = np.array([0, 1, 1, 1, 1])[:, None, None]
        for c in range(256):
            got = (adds_c * c + table[:, a - c + 255, b - c + 255]) % 256
            assert np.array_equal(got, w3c_predictions(a, b, np.full_like(a, c))), c

    def test_predictor_table_built_on_first_filtered_decode(self, tmp_path, rng):
        arr = rng.integers(0, 256, size=(4, 5, 3)).astype(np.uint8)
        png_io._predictor_table.cache_clear()
        imaging.write_png(tmp_path / "none.png", arr)
        assert np.array_equal(imaging.read_png(tmp_path / "none.png"), arr)
        assert png_io._predictor_table.cache_info().currsize == 0
        (tmp_path / "sub.png").write_bytes(encode_png(arr, [1, 0, 0, 0]))
        assert np.array_equal(imaging.read_png(tmp_path / "sub.png"), arr)
        assert png_io._predictor_table.cache_info().currsize == 1

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
    @pytest.mark.parametrize("shape", [(2, 300), (300, 2), (2, 300, 3), (300, 2, 3)])
    def test_decodes_wide_and_tall_images(self, rng, shape, dtype):
        arr = rng.integers(0, np.iinfo(dtype).max + 1, size=shape).astype(dtype)
        raw = filter_rows(arr, rng.integers(0, 5, size=shape[0]))
        h, stride = raw.shape[0], raw.shape[1] - 1
        bpp = stride // shape[1]
        expected = reference_unfilter(raw, h, stride, bpp)
        assert png_io._unfilter(raw, h, stride, bpp).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("levels", [3, 65536])
    def test_decodes_none_runs_between_paeth_rows(self, rng, levels):
        # rows cycle Paeth, None x 3, Sub, Up, Average over 16-bit RGB
        arr = rng.integers(0, levels, size=(40, 57, 3)).astype(np.uint16)
        filters = [(4, 0, 0, 0, 1, 2, 3)[y % 7] for y in range(40)]
        raw = filter_rows(arr, filters)
        expected = reference_unfilter(raw, 40, 57 * 6, 6)
        assert png_io._unfilter(raw, 40, 57 * 6, 6).tobytes() == expected.tobytes()
        assert np.array_equal(expected.view(">u2").reshape(arr.shape), arr)

    def test_round_trips_256_rgb_with_random_row_filters(self, tmp_path, rng):
        arr = rng.integers(0, 256, size=(256, 256, 3)).astype(np.uint8)
        path = tmp_path / "big.png"
        path.write_bytes(encode_png(arr, rng.integers(0, 5, size=256)))
        back = imaging.read_png(path)
        assert back.dtype == np.uint8
        assert np.array_equal(back, arr)

    def test_truncated_or_bit_flipped_file(self, tmp_path, rng):
        arr = rng.integers(0, 65536, size=(3, 4, 3)).astype(np.uint16)
        blob = encode_png(arr, [1, 3, 4])
        path = tmp_path / "fuzz.png"
        variants = [blob[:n] for n in range(len(blob))]
        for bit in range(8 * len(blob)):
            flipped = bytearray(blob)
            flipped[bit // 8] ^= 1 << (bit % 8)
            variants.append(bytes(flipped))
        for variant in variants:
            path.write_bytes(variant)
            back = _read_or_none(path)
            assert back is None or (back.dtype == arr.dtype and np.array_equal(back, arr))

    @pytest.mark.parametrize("blob,needle", [
        (_png(struct.pack(">IIB", 2, 2, 8), bytes(6)), "IHDR"),
        (_png(struct.pack(">IIBBBBB", 2, 2, 8, 0, 0, 0, 0), bytes(6), end=b""),
         "before IEND"),
        (_png(struct.pack(">IIBBBBB", 2, 2, 8, 0, 0, 0, 0), bytes(6))[:-20], "past the end"),
        (_png(struct.pack(">IIBBBBB", 2, 2, 8, 0, 0, 0, 0), bytes(6))[:-1] + b"\0",
         "CRC"),
        (b"\x89PNG\r\n\x1a\n" + _chunk(b"IHDR", struct.pack(">IIBBBBB", 2, 2, 8, 0, 0, 0, 0))
         + _chunk(b"IDAT", b"not zlib") + _chunk(b"IEND", b""), "corrupt image data"),
        (_png(struct.pack(">IIBBBBB", 2, 2, 8, 0, 0, 0, 0), bytes([5, 0, 0, 0, 0, 0])),
         "scanline filter 5"),
        (_png(struct.pack(">IIBBBBB", 0, 2, 8, 0, 0, 0, 0), bytes(2)), "empty image"),
        (_png(struct.pack(">IIBBBBB", 2, 2, 8, 0, 1, 0, 0), bytes(6)), "compression method 1"),
        (_png(struct.pack(">IIBBBBB", 2, 2, 8, 0, 0, 1, 0), bytes(6)), "filter method 1"),
        (_png(struct.pack(">IIBBBBB", 2, 2, 8, 0, 7, 9, 0), bytes(6)),
         "compression method 7 or filter method 9"),
        (b"\x89PNG\r\n\x1a\n" + _chunk(b"IDAT", zlib.compress(bytes(6)))
         + _chunk(b"IHDR", struct.pack(">IIBBBBB", 2, 2, 8, 0, 0, 0, 0))
         + _chunk(b"IEND", b""), "first chunk is b'IDAT', not IHDR"),
        (_png(struct.pack(">IIBBBBB", 2, 2, 8, 0, 0, 0, 0), bytes(6),
              end=_chunk(b"IHDR", struct.pack(">IIBBBBB", 1, 1, 8, 0, 0, 0, 0))
              + _chunk(b"IEND", b"")), "second IHDR"),
        (b"\x89PNG\r\n\x1a\n" + _chunk(b"IHDR", struct.pack(">IIBBBBB", 2, 2, 8, 0, 0, 0, 0))
         + _chunk(b"ZZZZ", b"") + _chunk(b"IDAT", zlib.compress(bytes(6)))
         + _chunk(b"IEND", b""), "unknown critical chunk b'ZZZZ'"),
        (b"\x89PNG\r\n\x1a\n" + _chunk(b"IHDR", struct.pack(">IIBBBBB", 2, 2, 8, 0, 0, 0, 0))
         + _chunk(b"IDAT", zlib.compress(bytes(6))[:5]) + _chunk(b"tEXt", b"k\0v")
         + _chunk(b"IDAT", zlib.compress(bytes(6))[5:]) + _chunk(b"IEND", b""),
         "IDAT chunks split"),
        (b"\x89PNG\r\n\x1a\n" + _chunk(b"IHDR", struct.pack(">IIBBBBB", 2, 2, 8, 0, 0, 0, 0))
         + _chunk(b"PLTE", bytes(3)) + _chunk(b"IDAT", zlib.compress(bytes(6)))
         + _chunk(b"IEND", b""), "PLTE chunk in a grayscale image"),
        (_png(struct.pack(">IIBBBBB", 1, 1, 8, 2, 0, 0, 0), bytes(4),
              end=_chunk(b"PLTE", bytes(3)) + _chunk(b"IEND", b"")), "PLTE chunk after IDAT"),
        (b"\x89PNG\r\n\x1a\n" + _chunk(b"IHDR", struct.pack(">IIBBBBB", 1, 1, 8, 2, 0, 0, 0))
         + _chunk(b"PLTE", bytes(3)) + _chunk(b"PLTE", bytes(3))
         + _chunk(b"IDAT", zlib.compress(bytes(4))) + _chunk(b"IEND", b""), "second PLTE"),
        (b"\x89PNG\r\n\x1a\n" + _chunk(b"IHDR", struct.pack(">IIBBBBB", 1, 1, 8, 2, 0, 0, 0))
         + _chunk(b"PLTE", bytes(4)) + _chunk(b"IDAT", zlib.compress(bytes(4)))
         + _chunk(b"IEND", b""), "PLTE has 4 bytes"),
        (b"\x89PNG\r\n\x1a\n" + _chunk(b"IHDR", struct.pack(">IIBBBBB", 1, 1, 8, 2, 0, 0, 0))
         + _chunk(b"PLTE", bytes(3 * 257)) + _chunk(b"IDAT", zlib.compress(bytes(4)))
         + _chunk(b"IEND", b""), "PLTE has 771 bytes"),
        (_png(struct.pack(">IIBBBBB", 2, 2, 8, 0, 0, 0, 0), bytes(6)) + b"\0",
         "data after IEND"),
        (_png(struct.pack(">IIBBBBB", 2 ** 32 - 1, 2 ** 32 - 1, 16, 2, 0, 0, 0), bytes(6)),
         "truncated image data"),
    ], ids=["short-ihdr", "no-iend", "chunk-past-end", "crc", "zlib", "filter-5",
            "zero-width", "compression-1", "filter-method-1", "methods-7-9",
            "ihdr-not-first", "ihdr-twice", "unknown-critical", "split-idat",
            "plte-in-grayscale", "plte-after-idat", "plte-twice", "plte-length-4",
            "plte-257-entries", "bytes-after-iend", "largest-ihdr"])
    def test_malformed_file_is_typed_error(self, tmp_path, blob, needle):
        path = tmp_path / "bad.png"
        path.write_bytes(blob)
        with pytest.raises(ImageFormatError, match=needle):
            imaging.read_png(path)

    def test_image_data_longer_than_ihdr_is_not_inflated(self, tmp_path):
        # a 1x1 grayscale image whose 65 KB IDAT inflates to 64 MiB
        packer = zlib.compressobj(9)
        idat = b"".join(packer.compress(bytes(1 << 20)) for _ in range(64)) + packer.flush()
        path = tmp_path / "bomb.png"
        path.write_bytes(
            b"\x89PNG\r\n\x1a\n" + _chunk(b"IHDR", struct.pack(">IIBBBBB", 1, 1, 8, 0, 0, 0, 0))
            + _chunk(b"IDAT", idat) + _chunk(b"IEND", b""))
        tracemalloc.start()
        try:
            with pytest.raises(ImageFormatError, match="longer than IHDR's 1x1 declares"):
                imaging.read_png(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"peak {peak} B"

    def test_ancillary_chunks_and_consecutive_idats_decode(self, tmp_path):
        data = zlib.compress(bytes([0, 1, 2, 0, 3, 4]))
        path = tmp_path / "chunks.png"
        path.write_bytes(
            b"\x89PNG\r\n\x1a\n" + _chunk(b"IHDR", struct.pack(">IIBBBBB", 2, 2, 8, 0, 0, 0, 0))
            + _chunk(b"tEXt", b"k\0v") + _chunk(b"IDAT", data[:5]) + _chunk(b"IDAT", data[5:])
            + _chunk(b"tIME", bytes(7)) + _chunk(b"IEND", b""))
        assert imaging.read_png(path).tolist() == [[1, 2], [3, 4]]


class TestLoadSave:
    def test_8bit_code_scaling(self, tmp_path):
        arr = np.array([[0, 128, 255]], dtype=np.uint8)
        path = tmp_path / "g.png"
        imaging.write_png(path, arr)
        img = imaging.load_image(path, "gray")
        assert img.data[0, 0, 0] == 0.0
        assert img.data[0, 2, 0] == 1.0
        assert abs(img.data[0, 1, 0] - 128 / 255) < 1e-7

    def test_16bit_code_scaling(self, tmp_path):
        arr = np.array([[32768]], dtype=np.uint16)
        path = tmp_path / "g16.png"
        imaging.write_png(path, arr)
        img = imaging.load_image(path, "gray")
        assert abs(img.data[0, 0, 0] - 32768 / 65535) < 1e-7

    def test_save_load_quantization_bound(self, tmp_path, rng):
        data = rng.uniform(0.0, 1.0, size=(9, 7, 3)).astype(np.float32)
        img = ImageF(data, ("R", "G", "B"))
        path = tmp_path / "rt.png"
        imaging.save_image(img, path)
        back = imaging.load_image(path, "rgb")
        assert np.abs(back.data - data).max() <= 1.0 / 65535

    def test_ndvi_png_save_rejected(self, tmp_path, rng):
        img = ImageF(rng.uniform(-1, 1, size=(4, 4, 1)).astype(np.float32), ("NDVI",))
        with pytest.raises(ImageFormatError, match="save_fused"):
            imaging.save_image(img, tmp_path / "bad.png")

    def test_band_label_count_enforced(self, tmp_path, rng):
        arr = rng.integers(0, 256, size=(4, 4, 3)).astype(np.uint8)
        path = tmp_path / "rgb.png"
        imaging.write_png(path, arr)
        with pytest.raises(ImageFormatError, match="band labels"):
            imaging.load_image(path, "gray")

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ImageFormatError):
            imaging.load_image(tmp_path / "missing.png", "rgb")


# Bilinear sampling as it was written before the flat-index taps: fancy
# indexing at (y, x) with 1 - fx formed per tap pair, the oracle that
# resize_bilinear and warp_perspective must equal byte for byte.
def reference_bilinear_gather(data, xs, ys):
    h, w = data.shape[:2]
    xs = np.clip(xs, 0.0, w - 1.0)
    ys = np.clip(ys, 0.0, h - 1.0)
    x0 = np.floor(xs).astype(np.intp)
    y0 = np.floor(ys).astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = (xs - x0).astype(data.dtype)[..., None]
    fy = (ys - y0).astype(data.dtype)[..., None]
    top = data[y0, x0] * (1.0 - fx) + data[y0, x1] * fx
    bottom = data[y1, x0] * (1.0 - fx) + data[y1, x1] * fx
    return top * (1.0 - fy) + bottom * fy


def assert_matches_reference_gather(transform, *args):
    """transform(*args) gives the same bytes with the oracle gather patched in."""
    got = transform(*args)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transform_module, "_bilinear_gather", reference_bilinear_gather)
        want = transform(*args)
    got, want = (r if isinstance(r, tuple) else (r,) for r in (got, want))
    for a, b in zip(got, want, strict=True):
        a = a.data if isinstance(a, ImageF) else a
        b = b.data if isinstance(b, ImageF) else b
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def reference_resize(data, out_w, out_h):
    """``resize_bilinear`` on (H, W, C) data as it clamped before its
    band-by-band bounds: min and max over axes (0, 1) of the whole array."""
    h, w = data.shape[:2]
    xs = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    ys = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    out = reference_bilinear_gather(data, *np.meshgrid(xs, ys))
    return np.clip(out, data.min(axis=(0, 1)), data.max(axis=(0, 1)))


class TestResize:
    def test_identity(self, rng):
        img = ImageF(rng.uniform(0, 1, (8, 6, 3)).astype(np.float32), ("R", "G", "B"))
        out = imaging.resize_bilinear(img, 6, 8)
        assert np.array_equal(out.data, img.data)

    def test_constant_stays_constant(self):
        img = ImageF(np.full((5, 5, 1), 0.37, dtype=np.float32), ("G",))
        for w, h in [(3, 3), (10, 7), (1, 1)]:
            out = imaging.resize_bilinear(img, w, h)
            assert np.allclose(out.data, 0.37, atol=1e-7)

    def test_upscale_ramp_monotone(self):
        img = ImageF(np.array([[0.0, 1.0]], dtype=np.float32)[:, :, None], ("G",))
        out = imaging.resize_bilinear(img, 4, 1).data[0, :, 0]
        assert out[0] == 0.0 and out[-1] == 1.0
        assert np.all(np.diff(out) >= 0.0)

    def test_never_exceeds_band_range(self, rng):
        data = rng.uniform(0.2, 0.8, (16, 16, 2)).astype(np.float32)
        img = ImageF(data, ("R", "NIR"))
        out = imaging.resize_bilinear(img, 31, 9)
        for c in range(2):
            assert out.data[:, :, c].min() >= data[:, :, c].min()
            assert out.data[:, :, c].max() <= data[:, :, c].max()
        # per-band bounds clamp exactly as whole-array min/max over (0, 1):
        # 1 to 4 bands, the last one constant when there are several
        for bands in range(1, 5):
            many = rng.uniform(-1.0, 2.0, (16, 16, bands)).astype(np.float32)
            if bands > 1:
                many[:, :, -1] = np.float32(0.3)
            got = imaging.resize_bilinear(ImageF(many, ("R", "G", "B", "NIR")[:bands]), 31, 9)
            want = reference_resize(many, 31, 9)
            assert got.data.dtype == want.dtype and got.data.tobytes() == want.tobytes()
        # the upscaled axis samples beyond both edges, the other inside; on a
        # 3-D and on a 2-D (one-band) array
        assert_matches_reference_gather(imaging.resize_bilinear, img, 31, 9)
        assert_matches_reference_gather(imaging.resize_bilinear,
                                        ImageF(data[:, :, 1], ("NIR",)), 31, 9)

    def test_rejects_empty_target(self, rng):
        img = ImageF(rng.uniform(0, 1, (4, 4, 1)).astype(np.float32), ("G",))
        with pytest.raises(ImageFormatError):
            imaging.resize_bilinear(img, 0, 4)


def smooth_fn(x, y):
    """Analytic band-limited field used as ground truth for warp tests."""
    return (0.5 + 0.2 * np.sin(2 * np.pi * x / 37)
            + 0.15 * np.cos(2 * np.pi * y / 29)
            + 0.1 * np.sin(2 * np.pi * (x + y) / 53))


def smooth_field(h, w):
    x, y = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    return smooth_fn(x, y).astype(np.float32)


class TestWarp:
    def test_identity_homography(self, rng):
        img = ImageF(rng.uniform(0, 1, (12, 10, 3)).astype(np.float32), ("R", "G", "B"))
        out, mask = imaging.warp_perspective(img, np.eye(3), 10, 12)
        assert mask.all()
        assert np.allclose(out.data, img.data, atol=1e-6)
        # the last row and column sample exactly at the frame's edge
        assert_matches_reference_gather(imaging.warp_perspective, img, np.eye(3), 10, 12)

    def test_pure_translation(self):
        img = ImageF(smooth_field(20, 20)[:, :, None], ("G",))
        h = np.array([[1.0, 0.0, 10.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        out, mask = imaging.warp_perspective(img, h, 20, 20)
        assert not mask[:, :10].any()
        assert mask[:, 10:].all()
        assert np.allclose(out.data[:, 10:, 0], img.data[:, :10, 0], atol=1e-6)
        assert np.all(out.data[:, :10, 0] == 0.0)

    def test_scale_preserves_constant(self):
        img = ImageF(np.full((9, 9, 1), 0.6, dtype=np.float32), ("G",))
        h = np.diag([2.0, 2.0, 1.0])
        out, mask = imaging.warp_perspective(img, h, 9, 9)
        assert np.allclose(out.data[mask], 0.6, atol=1e-6)

    def test_singular_homography_rejected(self, rng):
        img = ImageF(rng.uniform(0, 1, (4, 4, 1)).astype(np.float32), ("G",))
        h = np.zeros((3, 3))
        with pytest.raises(ImageFormatError, match="singular"):
            imaging.warp_perspective(img, h, 4, 4)

    def test_mask_is_preimage_indicator(self, rng):
        data = rng.uniform(0, 1, (15, 15, 3)).astype(np.float32)
        img = ImageF(data[:, :, 0], ("G",))
        h = np.array([[1.1, 0.02, -3.0], [0.01, 0.95, 2.0], [0.0001, 0.0, 1.0]])
        _, mask = imaging.warp_perspective(img, h, 15, 15)
        # some preimages fall inside the frame and some beyond it; on a 2-D
        # (one-band) and on a 3-D array
        assert_matches_reference_gather(imaging.warp_perspective, img, h, 15, 15)
        assert_matches_reference_gather(imaging.warp_perspective,
                                        ImageF(data, ("R", "G", "NIR")), h, 15, 15)
        inv = np.linalg.inv(h)
        for i in range(15):
            for j in range(15):
                v = inv @ np.array([j, i, 1.0])
                x, y = v[0] / v[2], v[1] / v[2]
                inside = (0.0 <= x <= 14.0) and (0.0 <= y <= 14.0)
                assert mask[i, j] == inside

    def test_warp_composition(self):
        img = ImageF(smooth_field(64, 64)[:, :, None], ("G",))
        h1 = np.array([[0.98, 0.05, 2.0], [-0.04, 1.01, -1.5], [0.0, 0.0, 1.0]])
        h2 = np.array([[1.02, -0.03, -2.5], [0.05, 0.97, 3.0], [0.0, 0.0, 1.0]])
        once_a, mask_a = imaging.warp_perspective(img, h1, 64, 64)
        chained, _ = imaging.warp_perspective(once_a, h2, 64, 64)
        direct, mask_d = imaging.warp_perspective(img, h2 @ h1, 64, 64)
        # restrict to pixels whose intermediate sample was fully valid, so the
        # zeroed border of the first warp cannot leak into the comparison
        inner = imaging.warp_perspective(
            ImageF(mask_a.astype(np.float32), ("G",)), h2, 64, 64)[0]
        both = mask_d & (inner.data[:, :, 0] >= 1.0 - 1e-6)
        assert both.sum() > 1000
        # measured single-warp interpolation error against the analytic field
        single_err = interpolation_error(img, h2 @ h1, direct, mask_d)
        diff = np.abs(chained.data[both] - direct.data[both]).max()
        assert diff <= 2.0 * single_err


def interpolation_error(img, h, warped, mask):
    """Worst single-warp bilinear error versus the analytic source field."""
    inv = np.linalg.inv(h)
    ys, xs = np.nonzero(mask)
    pts = np.stack([xs, ys, np.ones_like(xs)]).astype(np.float64)
    src = inv @ pts
    ref = smooth_fn(src[0] / src[2], src[1] / src[2])
    return np.abs(warped.data[ys, xs, 0] - ref).max()
