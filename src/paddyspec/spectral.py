"""NDVI synthesis and fusion with registered RGB into the 4-channel input.

NDVI = (NIR - Red) / (NIR + Red), computed from the calibrated R-G-NIR
image (its red band is radiometrically calibrated and pixel-aligned with
NIR). The fused tensor carries bands in the fixed order [R, G, B, NDVI]
with invalid pixels zeroed everywhere.
"""
from __future__ import annotations

import numpy as np

from .imaging import ImageF, load_array, save_array

FUSED_BANDS = ("R", "G", "B", "NDVI")


class SpectralError(ValueError):
    """Inputs violate the reflectance or shape contracts."""


def compute_ndvi(red: np.ndarray, nir: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Normalized difference vegetation index, clamped to [-1, 1].

    The eps guard keeps zero-reflectance pixels at 0 instead of NaN.
    """
    red = np.asarray(red, dtype=np.float64)
    nir = np.asarray(nir, dtype=np.float64)
    if red.shape != nir.shape:
        raise SpectralError(f"band shapes differ: red {red.shape} vs nir {nir.shape}")
    if (red < 0).any() or (nir < 0).any():
        raise SpectralError("negative reflectance input; calibration contract violated")
    ndvi = (nir - red) / (nir + red + eps)
    return np.clip(ndvi, -1.0, 1.0).astype(np.float32)


def fuse(rgb_registered: ImageF, ndvi: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Stack registered RGB with the NDVI band into a (4, H, W) float32
    array in ``FUSED_BANDS`` order, zeroing invalid pixels.

    Both inputs must already be at the network resolution; resizing happens
    upstream so the two modalities are resampled identically.
    """
    for band in ("R", "G", "B"):
        if not rgb_registered.has_band(band):
            raise SpectralError(f"registered image lacks band {band}")
    h, w = rgb_registered.height, rgb_registered.width
    if ndvi.shape != (h, w):
        raise SpectralError(f"ndvi shape {ndvi.shape} != rgb plane {(h, w)}")
    if mask.shape != (h, w):
        raise SpectralError(f"mask shape {mask.shape} != rgb plane {(h, w)}")
    mask = mask.astype(bool)
    tensor = np.stack([
        rgb_registered.band("R"),
        rgb_registered.band("G"),
        rgb_registered.band("B"),
        ndvi.astype(np.float32),
    ]).astype(np.float32)
    tensor[:, ~mask] = 0.0
    return tensor


def save_fused(tensor: np.ndarray, path) -> None:
    """Persist a (4, H, W) fused tensor in the raw float array format."""
    img = ImageF(np.transpose(tensor, (1, 2, 0)), FUSED_BANDS)
    save_array(img, path)


def load_fused(path) -> np.ndarray:
    """Load a fused tensor back as (4, H, W) float32."""
    img = load_array(path)
    if img.band_labels != FUSED_BANDS:
        raise SpectralError(f"{path}: bands {img.band_labels} != {FUSED_BANDS}")
    return np.transpose(img.data, (2, 0, 1)).copy()
