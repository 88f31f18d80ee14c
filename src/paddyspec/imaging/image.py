"""Floating-point raster container and file I/O.

``ImageF`` holds channel-interleaved float32 data in [0, 1] for reflectance
or RGB bands, or [-1, 1] for an NDVI band. PNG (8/16-bit) is the interchange
raster format.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .png_io import ImageFormatError, read_png, write_png

KNOWN_BANDS = ("R", "G", "B", "NIR", "NDVI")
BAND_SETS = {
    "rgb": ("R", "G", "B"),
    "rgnir": ("R", "G", "NIR"),
    "gray": ("G",),
}


@dataclass
class ImageF:
    """(H, W, C) float32 raster with ordered band labels."""

    data: np.ndarray
    band_labels: tuple[str, ...]

    def __post_init__(self):
        if self.data.ndim == 2:
            self.data = self.data[:, :, None]
        if self.data.ndim != 3:
            raise ImageFormatError(f"image data must be (H, W, C), got {self.data.shape}")
        if self.data.dtype != np.float32:
            self.data = self.data.astype(np.float32)
        self.band_labels = tuple(self.band_labels)
        if len(self.band_labels) != self.data.shape[2]:
            raise ImageFormatError(
                f"{len(self.band_labels)} band labels for {self.data.shape[2]} channels")
        unknown = [b for b in self.band_labels if b not in KNOWN_BANDS]
        if unknown:
            raise ImageFormatError(f"unknown band labels {unknown}; expected {KNOWN_BANDS}")

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]

    def band(self, label: str) -> np.ndarray:
        """(H, W) view of the named band."""
        if label not in self.band_labels:
            raise ImageFormatError(f"band {label!r} not in {self.band_labels}")
        return self.data[:, :, self.band_labels.index(label)]

    def has_band(self, label: str) -> bool:
        return label in self.band_labels


def _resolve_bands(bands) -> tuple[str, ...]:
    if isinstance(bands, str):
        try:
            return BAND_SETS[bands]
        except KeyError:
            raise ImageFormatError(
                f"unknown band set {bands!r}; expected one of {sorted(BAND_SETS)}") from None
    return tuple(bands)


def load_image(path, bands) -> ImageF:
    """Load an 8/16-bit PNG and scale integer codes to [0, 1].

    ``bands`` names the modality ("rgb", "rgnir", "gray") or gives explicit
    labels; PNGs carry no band semantics of their own.
    """
    labels = _resolve_bands(bands)
    arr = read_png(path)
    channels = 1 if arr.ndim == 2 else arr.shape[2]
    if channels not in (1, 3):
        raise ImageFormatError(f"{path}: {channels} channels unsupported (need 1 or 3)")
    if channels != len(labels):
        raise ImageFormatError(
            f"{path}: {channels} channels but {len(labels)} band labels {labels}")
    max_code = 255.0 if arr.dtype == np.uint8 else 65535.0
    data = (arr.astype(np.float32) / np.float32(max_code))
    return ImageF(data, labels)


def save_image(img: ImageF, path) -> None:
    """Quantize [0, 1] bands to a 16-bit PNG.

    NDVI bands are signed and must go through ``spectral.save_fused`` instead.
    """
    if img.has_band("NDVI"):
        raise ImageFormatError(
            "NDVI bands cannot be quantized to PNG; use spectral.save_fused for signed data")
    if img.channels not in (1, 3):
        raise ImageFormatError(f"PNG output needs 1 or 3 channels, got {img.channels}")
    scaled = np.clip(img.data, 0.0, 1.0) * 65535.0
    arr = np.round(scaled).astype(np.uint16)
    write_png(path, arr[:, :, 0] if img.channels == 1 else arr)
