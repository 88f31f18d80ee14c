"""Segment-test corner detection over an image pyramid.

Corners come from a 16-pixel circle test (9 contiguous brighter/darker
pixels) and are scored and non-max-suppressed on the Harris response.
Detection runs over a 4-level pyramid with scale factor 1.2; the per-level
threshold is auto-tuned so the pooled strongest ``target_count`` corners
exist when the texture allows it. Orientation is left to the descriptor
stage, which needs it only for the corners it describes.
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


def _subpixel_offsets(response: np.ndarray, ys: np.ndarray,
                      xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parabolic refinement of response peaks at (ys, xs) of a response map
    at least 3x3, clamped to half a pixel; (dx, dy) is 0 on the map border
    and along flat or non-peaked axes."""
    h, w = response.shape
    inside = (ys > 0) & (ys < h - 1) & (xs > 0) & (xs < w - 1)
    y = np.clip(ys, 1, h - 2)
    x = np.clip(xs, 1, w - 2)
    mid = response[y, x]

    def refine(lo, hi):
        denom = lo - 2.0 * mid + hi
        flat = (denom >= -1e-12) | ~inside
        with np.errstate(divide="ignore", invalid="ignore"):
            offset = np.clip(0.5 * (lo - hi) / denom, -0.5, 0.5)
        return np.where(flat, 0.0, offset)

    return (refine(response[y, x - 1], response[y, x + 1]),
            refine(response[y - 1, x], response[y + 1, x]))


@dataclass(eq=False)
class Keypoints:
    """Corners, one row each: ``xy`` in level-0 coordinates, and the pyramid
    level (``octave``) and integer position on it (``lvl_xy``) they came from.

    Indexing with an index array, a boolean mask or a slice selects rows.
    """

    xy: np.ndarray       # (n, 2) float64
    score: np.ndarray    # (n,) Harris response
    octave: np.ndarray   # (n,) intp
    lvl_xy: np.ndarray   # (n, 2) intp

    def __len__(self) -> int:
        return len(self.xy)

    def __getitem__(self, rows) -> "Keypoints":
        return Keypoints(self.xy[rows], self.score[rows], self.octave[rows],
                         self.lvl_xy[rows])


def build_pyramid(img: np.ndarray) -> list[np.ndarray]:
    """N_LEVELS float64 levels of a 2-D grayscale image, each SCALE_FACTOR smaller."""
    gray = np.asarray(img, dtype=np.float64)
    if gray.ndim != 2:
        raise RegistrationError("detect", f"expected a 2D image, got shape {gray.shape}")
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
                     target_count: int = 10000) -> Keypoints:
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

    responses = [harris_response(img_l) for img_l in levels]
    parts = []   # (score, level, y, x) per level
    for lvl, (img_l, response, quota) in enumerate(zip(levels, responses, quotas)):
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
        scores = response[ys, xs]
        top = np.argsort(-scores, kind="stable")[:quota]
        parts.append((scores[top], np.full(len(top), lvl, dtype=np.intp), ys[top], xs[top]))
    score, octave, ys, xs = (np.concatenate(col) for col in zip(*parts))

    if len(score) < 4:
        raise RegistrationError(
            "detect", f"only {len(score)} corners found; need at least 4 to register")

    order = np.lexsort((xs, ys, octave, -score))[:target_count]
    score, octave, ys, xs = score[order], octave[order], ys[order], xs[order]

    h0, w0 = levels[0].shape
    xy = np.empty((len(order), 2))
    for lvl in np.unique(octave):
        on = octave == lvl
        s = SCALE_FACTOR ** int(lvl)
        dx, dy = _subpixel_offsets(responses[lvl], ys[on], xs[on])
        xy[on, 0] = np.clip((xs[on] + dx + 0.5) * s - 0.5, 0.0, w0 - 1.0)
        xy[on, 1] = np.clip((ys[on] + dy + 0.5) * s - 0.5, 0.0, h0 - 1.0)
    return Keypoints(xy=xy, score=score, octave=octave, lvl_xy=np.stack([xs, ys], axis=1))
