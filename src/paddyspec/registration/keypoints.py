"""Segment-test corner detection over an image pyramid.

Corners come from a 16-pixel circle test (9 contiguous brighter/darker
pixels), are scored and non-max-suppressed on the Harris response, and get
an orientation from the intensity centroid of a radius-15 disc. Detection
runs over a 4-level pyramid with scale factor 1.2; the per-level threshold
is auto-tuned so the pooled strongest ``target_count`` corners exist when
the texture allows it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..imaging import ImageF, resize_bilinear
from .errors import RegistrationError

N_LEVELS = 4
SCALE_FACTOR = 1.2

# 16-pixel Bresenham circle of radius 3, clockwise from 12 o'clock: (dy, dx)
_CIRCLE = np.array([
    (-3, 0), (-3, 1), (-2, 2), (-1, 3), (0, 3), (1, 3), (2, 2), (3, 1),
    (3, 0), (3, -1), (2, -2), (1, -3), (0, -3), (-1, -3), (-2, -2), (-3, -1),
], dtype=np.intp)

_MIN_THRESHOLD = 0.004
_MAX_THRESHOLD = 0.35


def _segment_lut(min_run: int = 9) -> np.ndarray:
    """LUT over 16-bit masks: True if any cyclic run of ones >= min_run."""
    patterns = np.arange(1 << 16, dtype=np.uint32)
    doubled = patterns | (patterns << 16)
    x = doubled
    for _ in range(min_run - 1):
        x &= doubled >> 1
        doubled >>= 1
    # after k AND steps, a set bit marks a run of k+1 consecutive ones
    return x != 0


_SEGMENT = _segment_lut()


def _fast_mask(img: np.ndarray, threshold: float) -> np.ndarray:
    """Boolean corner-candidate mask (3 px border always False)."""
    h, w = img.shape
    out = np.zeros((h, w), dtype=bool)
    if h < 7 or w < 7:
        return out
    center = img[3:h - 3, 3:w - 3]
    bright = np.zeros(center.shape, dtype=np.uint16)
    dark = np.zeros(center.shape, dtype=np.uint16)
    up = center + threshold
    down = center - threshold
    for k, (dy, dx) in enumerate(_CIRCLE):
        ring = img[3 + dy:h - 3 + dy, 3 + dx:w - 3 + dx]
        bright |= (ring > up).astype(np.uint16) << k
        dark |= (ring < down).astype(np.uint16) << k
    out[3:h - 3, 3:w - 3] = _SEGMENT[bright] | _SEGMENT[dark]
    return out


def _filter1d(img: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    r = len(kernel) // 2
    pad = [(0, 0), (0, 0)]
    pad[axis] = (r, r)
    padded = np.pad(img, pad, mode="edge")
    out = np.zeros_like(img, dtype=np.float64)
    for i, k in enumerate(kernel):
        if axis == 0:
            out += k * padded[i:i + img.shape[0], :]
        else:
            out += k * padded[:, i:i + img.shape[1]]
    return out


def gaussian_smooth(img: np.ndarray) -> np.ndarray:
    """Separable 5-tap binomial smoothing with edge replication."""
    k = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
    return _filter1d(_filter1d(img.astype(np.float64), k, 0), k, 1)


def harris_response(img: np.ndarray, k: float = 0.04) -> np.ndarray:
    """Harris corner response from Sobel gradients and binomial windowing."""
    smooth3 = np.array([1.0, 2.0, 1.0]) / 4.0
    diff = np.array([-0.5, 0.0, 0.5])
    gray = img.astype(np.float64)
    ix = _filter1d(_filter1d(gray, diff, 1), smooth3, 0)
    iy = _filter1d(_filter1d(gray, diff, 0), smooth3, 1)
    win = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
    sxx = _filter1d(_filter1d(ix * ix, win, 0), win, 1)
    syy = _filter1d(_filter1d(iy * iy, win, 0), win, 1)
    sxy = _filter1d(_filter1d(ix * iy, win, 0), win, 1)
    return sxx * syy - sxy * sxy - k * (sxx + syy) ** 2


def _nms(candidates: np.ndarray, response: np.ndarray) -> np.ndarray:
    """Keep candidates that are 3x3 local maxima of the response."""
    masked = np.where(candidates, response, -np.inf)
    padded = np.pad(masked, 1, mode="constant", constant_values=-np.inf)
    best = masked.copy()
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dy == 0 and dx == 0:
                continue
            np.maximum(best, padded[1 + dy:1 + dy + masked.shape[0],
                                    1 + dx:1 + dx + masked.shape[1]], out=best)
    return candidates & (masked >= best) & np.isfinite(masked)


def _subpixel_offset(response: np.ndarray, y: int, x: int) -> tuple[float, float]:
    """Parabolic refinement of a response peak, clamped to half a pixel."""
    h, w = response.shape
    if not (0 < y < h - 1 and 0 < x < w - 1):
        return 0.0, 0.0

    def refine(lo, mid, hi):
        denom = lo - 2.0 * mid + hi
        if denom >= -1e-12:
            return 0.0
        return float(np.clip(0.5 * (lo - hi) / denom, -0.5, 0.5))

    dx = refine(response[y, x - 1], response[y, x], response[y, x + 1])
    dy = refine(response[y - 1, x], response[y, x], response[y + 1, x])
    return dx, dy


_DISC_DY, _DISC_DX = np.nonzero(
    (np.arange(-15, 16)[:, None] ** 2 + np.arange(-15, 16)[None, :] ** 2) <= 15 * 15)
_DISC_DY = (_DISC_DY - 15).astype(np.intp)
_DISC_DX = (_DISC_DX - 15).astype(np.intp)


def _orientations(img: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Intensity-centroid angles, with the disc clipped at image borders."""
    h, w = img.shape
    sy = ys[:, None] + _DISC_DY[None, :]
    sx = xs[:, None] + _DISC_DX[None, :]
    inside = (sy >= 0) & (sy < h) & (sx >= 0) & (sx < w)
    vals = img[np.clip(sy, 0, h - 1), np.clip(sx, 0, w - 1)] * inside
    m10 = (vals * _DISC_DX[None, :]).sum(axis=1)
    m01 = (vals * _DISC_DY[None, :]).sum(axis=1)
    return np.arctan2(m01, m10)


@dataclass
class Keypoint:
    """Corner in level-0 coordinates plus the pyramid level it came from."""

    x: float
    y: float
    score: float
    angle: float
    octave: int
    x_lvl: int
    y_lvl: int


def _coerce_gray(img) -> np.ndarray:
    if isinstance(img, ImageF):
        if img.channels != 1:
            raise RegistrationError("detect", f"expected grayscale, got {img.channels} channels")
        return img.data[:, :, 0].astype(np.float64)
    arr = np.asarray(img, dtype=np.float64)
    if arr.ndim != 2:
        raise RegistrationError("detect", f"expected a 2D image, got shape {arr.shape}")
    return arr


def build_pyramid(img) -> list[np.ndarray]:
    """N_LEVELS float64 levels of a grayscale image, each SCALE_FACTOR smaller."""
    gray = _coerce_gray(img)
    if gray.shape[0] < 32 or gray.shape[1] < 32:
        raise RegistrationError("detect", f"image too small for detection: {gray.shape}")
    levels = [gray]
    src = ImageF(gray.astype(np.float32), ("G",))
    for lvl in range(1, N_LEVELS):
        s = SCALE_FACTOR ** lvl
        w = max(8, int(round(gray.shape[1] / s)))
        h = max(8, int(round(gray.shape[0] / s)))
        levels.append(resize_bilinear(src, w, h).data[:, :, 0].astype(np.float64))
    return levels


def detect_keypoints(levels: list[np.ndarray],
                     target_count: int = 10000) -> list[Keypoint]:
    """Detect up to target_count corners over a ``build_pyramid`` pyramid,
    strongest Harris response first."""
    if target_count < 4:
        raise RegistrationError("detect", f"target_count must be >= 4, got {target_count}")

    areas = np.array([lv.size for lv in levels], dtype=np.float64)
    shares = target_count * areas / areas.sum()
    quotas = np.maximum(1, np.floor(shares).astype(int))
    # hand out the rounding remainder so the quotas sum to target_count
    for i in np.argsort(-(shares - np.floor(shares))):
        if quotas.sum() >= target_count:
            break
        quotas[i] += 1

    found: list[tuple[float, int, int, int]] = []   # (score, level, y, x)
    responses: dict[int, np.ndarray] = {}
    for lvl, (img_l, quota) in enumerate(zip(levels, quotas)):
        response = harris_response(img_l)
        responses[lvl] = response
        kept = _nms(_fast_mask(img_l, _MIN_THRESHOLD), response)
        if kept.sum() > quota:
            # largest threshold still yielding at least the level quota
            lo, hi = _MIN_THRESHOLD, _MAX_THRESHOLD
            for _ in range(7):
                mid = 0.5 * (lo + hi)
                trial = _nms(_fast_mask(img_l, mid), response)
                if trial.sum() >= quota:
                    lo = mid
                    kept = trial
                else:
                    hi = mid
        ys, xs = np.nonzero(kept)
        if ys.size == 0:
            continue
        scores = response[ys, xs]
        order = np.argsort(-scores, kind="stable")[:quota]
        for i in order:
            found.append((float(scores[i]), lvl, int(ys[i]), int(xs[i])))

    if len(found) < 4:
        raise RegistrationError(
            "detect", f"only {len(found)} corners found; need at least 4 to register")

    found.sort(key=lambda t: (-t[0], t[1], t[2], t[3]))
    found = found[:target_count]

    keypoints: list[Keypoint] = []
    by_level: dict[int, list[int]] = {}
    for idx, (_, lvl, _, _) in enumerate(found):
        by_level.setdefault(lvl, []).append(idx)
    angles = np.zeros(len(found))
    for lvl, indices in by_level.items():
        ys = np.array([found[i][2] for i in indices], dtype=np.intp)
        xs = np.array([found[i][3] for i in indices], dtype=np.intp)
        angles[indices] = _orientations(levels[lvl], ys, xs)

    h0, w0 = levels[0].shape
    for idx, (score, lvl, y, x) in enumerate(found):
        s = SCALE_FACTOR ** lvl
        dx, dy = _subpixel_offset(responses[lvl], y, x)
        x0 = min(max((x + dx + 0.5) * s - 0.5, 0.0), w0 - 1.0)
        y0 = min(max((y + dy + 0.5) * s - 0.5, 0.0), h0 - 1.0)
        keypoints.append(Keypoint(x=x0, y=y0, score=score, angle=float(angles[idx]),
                                  octave=lvl, x_lvl=x, y_lvl=y))
    return keypoints
