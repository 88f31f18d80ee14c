"""Bilinear resampling: resize to network resolution and perspective warping.

Both operations use half-pixel-centered coordinates: output pixel (i, j)
samples the source at ((j + 0.5) * sx - 0.5, (i + 0.5) * sy - 0.5) for a
resize, and at H^-1 (x, y, 1) for a warp. Registration accuracy tests depend
on this convention, so it is fixed here and nowhere else.
"""
from __future__ import annotations

import numpy as np

from .image import ImageF, ImageFormatError


def _bilinear_gather(data: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Sample (H, W, C) data at float coords; coords are clamped to the frame."""
    h, w = data.shape[:2]
    xs = np.clip(xs, 0.0, w - 1.0)
    ys = np.clip(ys, 0.0, h - 1.0)
    x0 = np.floor(xs).astype(np.intp)
    y0 = np.floor(ys).astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    row0 = y0 * w
    row1 = np.minimum(y0 + 1, h - 1) * w
    fx = (xs - x0).astype(data.dtype)[..., None]
    fy = (ys - y0).astype(data.dtype)[..., None]
    gx = 1.0 - fx
    # one (H * W, C) row per pixel: each tap is a single take along axis 0
    flat = data.reshape(h * w, -1)
    top = flat.take(row0 + x0, axis=0) * gx + flat.take(row0 + x1, axis=0) * fx
    bottom = flat.take(row1 + x0, axis=0) * gx + flat.take(row1 + x1, axis=0) * fx
    return top * (1.0 - fy) + bottom * fy


def resize_bilinear(img: ImageF, out_w: int, out_h: int) -> ImageF:
    """Resize with half-pixel-centered bilinear interpolation.

    Output values never leave each input band's [min, max] range.
    """
    if out_w < 1 or out_h < 1:
        raise ImageFormatError(f"resize target must be positive, got {out_w}x{out_h}")
    if out_w == img.width and out_h == img.height:
        return ImageF(img.data.copy(), img.band_labels)
    sx = img.width / out_w
    sy = img.height / out_h
    xs = (np.arange(out_w) + 0.5) * sx - 0.5
    ys = (np.arange(out_h) + 0.5) * sy - 0.5
    grid_x, grid_y = np.meshgrid(xs, ys)
    out = _bilinear_gather(img.data, grid_x, grid_y)
    # band by band: a reduction over the two leading axes of the
    # channels-last array runs about ten times slower than these
    bands = [img.data[:, :, c] for c in range(img.channels)]
    lo = np.array([band.min() for band in bands])
    hi = np.array([band.max() for band in bands])
    return ImageF(np.clip(out, lo, hi), img.band_labels)


def _homography_matrix(h) -> np.ndarray:
    mat = np.asarray(h, dtype=np.float64)
    if mat.shape != (3, 3):
        raise ImageFormatError(f"homography must be 3x3, got {mat.shape}")
    return mat


def warp_perspective(img: ImageF, homography, out_w: int,
                     out_h: int) -> tuple[ImageF, np.ndarray]:
    """Warp into the destination frame defined by a source->dest homography.

    Each output pixel samples the source at the inverse-mapped position.
    Out-of-bounds samples are zero and flagged False in the returned
    validity mask (the exact preimage-in-bounds indicator).
    """
    mat = _homography_matrix(homography)
    det = np.linalg.det(mat)
    if abs(det) <= 1e-12:
        raise ImageFormatError(f"homography is singular (|det| = {abs(det):.3e})")
    inv = np.linalg.inv(mat)

    xs, ys = np.meshgrid(np.arange(out_w, dtype=np.float64),
                         np.arange(out_h, dtype=np.float64))
    denom = inv[2, 0] * xs + inv[2, 1] * ys + inv[2, 2]
    safe = np.abs(denom) > 1e-12
    denom = np.where(safe, denom, 1.0)
    src_x = (inv[0, 0] * xs + inv[0, 1] * ys + inv[0, 2]) / denom
    src_y = (inv[1, 0] * xs + inv[1, 1] * ys + inv[1, 2]) / denom

    valid = (safe
             & (src_x >= 0.0) & (src_x <= img.width - 1.0)
             & (src_y >= 0.0) & (src_y <= img.height - 1.0))
    out = _bilinear_gather(img.data, src_x, src_y)
    out[~valid] = 0.0
    return ImageF(out.astype(np.float32), img.band_labels), valid


def resize_mask(mask: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Resize a boolean validity mask; a pixel stays valid only if every
    contributing source pixel was valid."""
    img = ImageF(mask.astype(np.float32), ("G",))
    resized = resize_bilinear(img, out_w, out_h)
    return resized.data[:, :, 0] >= 1.0 - 1e-6
