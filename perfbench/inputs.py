"""Seeded input generation for the benchmark workloads.

Everything here runs outside the timed region. Files are written with
:func:`write_adaptive_png`, which picks a scanline filter per row the way
libpng does, so decoding them exercises all five PNG filters.
"""
from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

import numpy as np

from paddyspec import calibration as cal
from paddyspec import dataset as ds
from paddyspec import spectral, synthetic
from paddyspec.imaging import ImageF, read_png

FILTER_NAMES = ("none", "sub", "up", "average", "paeth")
# class shares of the paper's 3,815 field pairs (blast : brown_spot : healthy)
PAPER_COUNTS = (2135, 1095, 585)
_SIGNATURE = b"\x89PNG\r\n\x1a\n"


# -- adaptive-filter PNG writer ---------------------------------------------------


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (struct.pack(">I", len(payload)) + tag + payload
            + struct.pack(">I", zlib.crc32(tag + payload)))


def _filter_candidates(rows: np.ndarray, bpp: int) -> np.ndarray:
    """All five filtered versions of each row: (5, h, stride) uint8.

    Encoding predicts from the unfiltered bytes, so every row and filter is
    computed at once (W3C PNG 2nd ed. section 9).
    """
    x = rows.astype(np.int16)
    a = np.zeros_like(x)
    a[:, bpp:] = x[:, :-bpp]
    b = np.zeros_like(x)
    b[1:] = x[:-1]
    c = np.zeros_like(x)
    c[1:, bpp:] = x[:-1, :-bpp]
    p = a + b - c
    pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    paeth = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))
    predictors = (0, a, b, (a + b) >> 1, paeth)
    return np.stack([(x - pred) & 0xFF for pred in predictors]).astype(np.uint8)


def write_adaptive_png(path, arr: np.ndarray) -> np.ndarray:
    """Write a (H, W) or (H, W, 3) uint8/uint16 PNG with per-row filters.

    Each row takes the filter with the minimum sum of absolute values of its
    bytes read as signed, ties going to the lower filter type (libpng's
    heuristic). Returns the number of rows written with each filter type.
    """
    color_type = 0 if arr.ndim == 2 else 2
    depth = 8 if arr.dtype == np.uint8 else 16
    h, w = arr.shape[:2]
    channels = 1 if arr.ndim == 2 else arr.shape[2]
    bpp = channels * depth // 8
    data = arr.astype(">u2") if depth == 16 else np.ascontiguousarray(arr)
    rows = np.frombuffer(data.tobytes(), dtype=np.uint8).reshape(h, w * bpp)

    candidates = _filter_candidates(rows, bpp)
    cost = np.abs(candidates.view(np.int8).astype(np.int32)).sum(axis=2)   # (5, h)
    choice = cost.argmin(axis=0)
    chosen = candidates[choice, np.arange(h)]
    raw = np.concatenate([choice[:, None].astype(np.uint8), chosen], axis=1)

    ihdr = struct.pack(">IIBBBBB", w, h, depth, color_type, 0, 0, 0)
    Path(path).write_bytes(_SIGNATURE + _chunk(b"IHDR", ihdr)
                           + _chunk(b"IDAT", zlib.compress(raw.tobytes(), 6))
                           + _chunk(b"IEND", b""))
    return np.bincount(choice, minlength=len(FILTER_NAMES))


class InputWriter:
    """Writes input PNGs, checks each round-trips, and tallies filter rows."""

    def __init__(self):
        self.filter_rows = np.zeros(len(FILTER_NAMES), dtype=np.int64)
        self.roundtrip_failures: list[str] = []

    def write(self, path, arr: np.ndarray) -> None:
        self.filter_rows += write_adaptive_png(path, arr)
        back = read_png(path)
        if back.dtype != arr.dtype or not np.array_equal(back, arr):
            self.roundtrip_failures.append(str(path))

    def filter_row_counts(self) -> dict[str, int]:
        return {name: int(n) for name, n in zip(FILTER_NAMES, self.filter_rows)}


def _to_uint8(data: np.ndarray) -> np.ndarray:
    return np.round(np.clip(data, 0.0, 1.0) * 255.0).astype(np.uint8)


def _to_uint16(data: np.ndarray) -> np.ndarray:
    return np.round(np.clip(data, 0.0, 1.0) * 65535.0).astype(np.uint16)


def paper_label_counts(n: int) -> dict[str, int]:
    """Split n samples in the paper's class ratio (largest remainder, >= 1 each)."""
    shares = n * np.array(PAPER_COUNTS, dtype=np.float64) / sum(PAPER_COUNTS)
    counts = np.maximum(1, np.floor(shares).astype(int))
    for i in np.argsort(-(shares - np.floor(shares)), kind="stable"):
        if counts.sum() >= n:
            break
        counts[i] += 1
    return dict(zip(ds.LABELS, (int(c) for c in counts)))


def paper_class_weights() -> np.ndarray:
    return ds.class_weights_from_counts(np.array(PAPER_COUNTS))


# -- registration pairs -----------------------------------------------------------


def write_pair(writer: InputWriter, rng: np.random.Generator, rgb_path, rgnir_path,
               label: str, image_size: int, scene_size: int) -> np.ndarray:
    """One phone RGB (8-bit) + survey R-G-NIR (16-bit DN) pair; returns true H."""
    rgb, rgnir, h_true = synthetic.make_registration_pair(
        rng, scene_size=scene_size, out_size=image_size,
        nir_level=synthetic.NIR_LEVELS[label])
    dn = (rgnir.data.astype(np.float64) - synthetic.DEFAULT_OFFSET) / synthetic.DEFAULT_GAIN
    writer.write(rgb_path, _to_uint8(rgb.data))
    writer.write(rgnir_path, _to_uint16(dn))
    return h_true


def write_calibration_board(writer: InputWriter, rng: np.random.Generator,
                            root: Path) -> None:
    board, panels = synthetic.make_calibration_board(rng)
    writer.write(root / "calibration_board.png", _to_uint16(board.data))
    cal.save_session(root / "session.json", "calibration_board.png", panels,
                     bands=("R", "G", "NIR"))


def write_ingest_tree(writer: InputWriter, rng: np.random.Generator, root: Path,
                      n_pairs: int, image_size: int = 256,
                      scene_size: int = 420) -> dict[str, np.ndarray]:
    """Class-directory dataset in the paper's label ratio plus a calibration
    board and session; returns the true homography of each pair."""
    truths = {}
    for label, count in paper_label_counts(n_pairs).items():
        (root / label).mkdir(parents=True, exist_ok=True)
        for i in range(count):
            sid = f"{label}{i:03d}"
            truths[sid] = write_pair(writer, rng, root / label / f"{sid}_rgb.png",
                                     root / label / f"{sid}_rgnir.png",
                                     label, image_size, scene_size)
    write_calibration_board(writer, rng, root)
    return truths


# -- fused training cache ---------------------------------------------------------


def write_fused_cache(rng: np.random.Generator, cache_dir: Path, prefix: str,
                      n: int, size: int) -> list[ds.SampleRecord]:
    """n fused (4, size, size) samples in the paper's class ratio, NIR-only signal."""
    cache_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for label, count in paper_label_counts(n).items():
        for i in range(count):
            r = synthetic.smooth_texture(size, size, rng, 0.25, 0.55)
            g = synthetic.smooth_texture(size, size, rng, 0.2, 0.8)
            b = synthetic.smooth_texture(size, size, rng, 0.1, 0.6)
            nir = np.clip(synthetic.NIR_LEVELS[label] + rng.normal(0.0, 0.03)
                          + 0.03 * (g - g.mean()), 0.01, 0.99)
            rgb = ImageF(np.stack([r, g, b], axis=-1).astype(np.float32), ("R", "G", "B"))
            sample = spectral.fuse(rgb, spectral.compute_ndvi(r, nir),
                                   np.ones((size, size), dtype=bool))
            sid = f"{prefix}_{label}{i:03d}"
            spectral.save_fused(sample, cache_dir / f"{sid}.pspec")
            records.append(ds.SampleRecord(id=sid, rgb_path="", rgnir_path="", label=label))
    order = rng.permutation(len(records))
    return [records[i] for i in order]


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
