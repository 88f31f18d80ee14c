"""Reflectance calibration against the 4-panel ground target.

One calibration is fit per capture session from a photographed target board
whose panels have known reflectance, then applied to every R-G-NIR image of
that session. The per-band model is a line (reflectance = gain * DN +
offset) fit by ordinary least squares over the 4 panel means.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .imaging import ImageF

N_PANELS = 4
# share of clamped samples above which callers warn that the fit is off
WARN_CLAMP_RATE = 0.20


class CalibrationError(ValueError):
    """Panel extraction or fitting failed."""


@dataclass
class PanelRoi:
    x: int
    y: int
    w: int
    h: int


@dataclass
class Panel:
    """Known per-band reflectance and the board-image region showing it."""

    reflectance: tuple[float, ...]
    roi: PanelRoi


@dataclass
class PanelSpec:
    panels: list[Panel]

    def __post_init__(self):
        if len(self.panels) != N_PANELS:
            raise CalibrationError(f"expected {N_PANELS} panels, got {len(self.panels)}")

    def known_reflectance(self) -> np.ndarray:
        return np.array([p.reflectance for p in self.panels], dtype=np.float64)


@dataclass
class BandCalibration:
    """Per-band affine DN -> reflectance map plus the fit residual."""

    gain: np.ndarray
    offset: np.ndarray
    fit_residual: np.ndarray
    band_labels: tuple[str, ...] = ("R", "G", "NIR")


def extract_panel_stats(img: ImageF, panels: PanelSpec) -> np.ndarray:
    """Trimmed per-panel per-band mean DN (drops top/bottom 5% of pixels).

    Trimming resists specular highlights; a per-band standard deviation above
    0.25 indicates a misplaced ROI and raises.
    """
    means = np.zeros((N_PANELS, img.channels))
    for i, panel in enumerate(panels.panels):
        roi = panel.roi
        if roi.x < 0 or roi.y < 0 or roi.x + roi.w > img.width or roi.y + roi.h > img.height:
            raise CalibrationError(
                f"panel {i} ROI {roi} falls outside the {img.width}x{img.height} image")
        if roi.w < 1 or roi.h < 1:
            raise CalibrationError(f"panel {i} ROI {roi} must have w >= 1 and h >= 1")
        if roi.w * roi.h < 25:
            raise CalibrationError(f"panel {i} ROI has {roi.w * roi.h} px; need >= 25")
        patch = img.data[roi.y:roi.y + roi.h, roi.x:roi.x + roi.w, :]
        flat = patch.reshape(-1, img.channels).astype(np.float64)
        if (flat.std(axis=0) > 0.25).any():
            raise CalibrationError(
                f"panel {i} ROI variance too high (std {flat.std(axis=0).max():.3f}); "
                "is the ROI on the panel?")
        n = flat.shape[0]
        k = int(np.floor(0.05 * n))
        ordered = np.sort(flat, axis=0)
        means[i] = ordered[k:n - k].mean(axis=0)
    return means


def fit_calibration(panel_means: np.ndarray, known_reflectance: np.ndarray,
                    band_labels: tuple[str, ...] = ("R", "G", "NIR")) -> BandCalibration:
    """Per-band OLS line through the (mean DN, known reflectance) points."""
    dn = np.asarray(panel_means, dtype=np.float64)
    refl = np.asarray(known_reflectance, dtype=np.float64)
    if dn.shape != refl.shape or dn.shape[0] != N_PANELS:
        raise CalibrationError(
            f"expected ({N_PANELS}, bands) matrices, got {dn.shape} and {refl.shape}")
    bands = dn.shape[1]
    gain = np.zeros(bands)
    offset = np.zeros(bands)
    residual = np.zeros(bands)
    for b in range(bands):
        x = dn[:, b]
        y = refl[:, b]
        var = ((x - x.mean()) ** 2).mean()
        if var < 1e-18:
            raise CalibrationError(
                f"band {b}: panel DN values are all equal; fit is rank deficient")
        g = ((x - x.mean()) * (y - y.mean())).mean() / var
        o = y.mean() - g * x.mean()
        if not g > 0:
            raise CalibrationError(f"band {b}: non-positive gain {g:.4f}; "
                                   "panel readings are inconsistent")
        gain[b] = g
        offset[b] = o
        residual[b] = np.sqrt(((g * x + o - y) ** 2).mean())
    return BandCalibration(gain=gain, offset=offset, fit_residual=residual,
                           band_labels=tuple(band_labels))


def apply_calibration(img: ImageF, calib: BandCalibration) -> tuple[ImageF, float]:
    """Map DN to reflectance per band, clamped to [0, 1].

    Returns the calibrated image and the fraction of samples that clamped;
    callers should surface a warning when it exceeds ``WARN_CLAMP_RATE``.
    """
    if img.band_labels != calib.band_labels:
        raise CalibrationError(f"image has bands {list(img.band_labels)}, "
                               f"calibration {list(calib.band_labels)}")
    raw = img.data.astype(np.float64) * calib.gain + calib.offset
    clamped = (raw < 0.0) | (raw > 1.0)
    out = np.clip(raw, 0.0, 1.0).astype(np.float32)
    rate = float(clamped.mean())
    return ImageF(out, img.band_labels), rate


def save_calibration(calib: BandCalibration, path) -> None:
    payload = {
        "band_labels": list(calib.band_labels),
        "gain": [float(v) for v in calib.gain],
        "offset": [float(v) for v in calib.offset],
        "fit_residual": [float(v) for v in calib.fit_residual],
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_calibration(path) -> BandCalibration:
    try:
        payload = json.loads(Path(path).read_text())
        bands = tuple(payload["band_labels"])
        gain, offset, residual = (np.array(payload[k], dtype=np.float64)
                                  for k in ("gain", "offset", "fit_residual"))
    except (OSError, KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise CalibrationError(f"cannot read calibration file {path}: "
                               f"{type(exc).__name__}: {exc}") from exc
    if any(v.shape != (len(bands),) for v in (gain, offset, residual)):
        raise CalibrationError(f"calibration file {path}: gain, offset and fit_residual "
                               f"need one number per band of {bands}")
    if not all(np.isfinite(v).all() for v in (gain, offset, residual)):
        raise CalibrationError(f"calibration file {path}: gain, offset and fit_residual "
                               "must be finite")
    if not (gain > 0).all():
        raise CalibrationError(f"calibration file {path}: gains must be > 0, "
                               f"got {gain.tolist()}")
    return BandCalibration(gain=gain, offset=offset, fit_residual=residual,
                           band_labels=bands)


def _is_number_list(value, kind=(int, float)) -> bool:
    """True for a list of JSON numbers of *kind* (booleans excluded)."""
    return isinstance(value, list) and all(
        isinstance(v, kind) and not isinstance(v, bool) for v in value)


def load_session(path) -> tuple[str, PanelSpec, tuple[str, ...]]:
    """Read a session file: target board image path, panels, band labels."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise CalibrationError(f"cannot read session file {path}: {exc}") from exc
    try:
        board = payload["board_image"]
        bands = payload["bands"]
        panels = [(p["reflectance"], p["roi"]) for p in payload["panels"]]
    except (KeyError, TypeError) as exc:
        raise CalibrationError(f"malformed session file {path}: {exc}") from exc
    if not isinstance(board, str):
        raise CalibrationError(f"session file {path}: board_image must be a string, "
                               f"got {board!r}")
    if not (isinstance(bands, list) and all(isinstance(b, str) for b in bands)):
        raise CalibrationError(f"session file {path}: bands must be a list of strings, "
                               f"got {bands!r}")
    for i, (reflectance, roi) in enumerate(panels):
        if not _is_number_list(reflectance):
            raise CalibrationError(f"session file {path}: panel {i} reflectance must be "
                                   f"a list of numbers, got {reflectance!r}")
        try:
            finite = all(math.isfinite(v) for v in reflectance)
        except OverflowError:  # an integer too large for a float
            finite = False
        if not finite:
            raise CalibrationError(f"session file {path}: panel {i} reflectance must be "
                                   f"finite, got {reflectance!r}")
        if len(reflectance) != len(bands):
            raise CalibrationError(f"session file {path}: panel {i} needs one reflectance "
                                   f"per band ({len(bands)}), got {len(reflectance)}")
        if not (_is_number_list(roi, int) and len(roi) == 4):
            raise CalibrationError(f"session file {path}: panel {i} roi must be 4 "
                                   f"integers [x, y, w, h], got {roi!r}")
    return board, PanelSpec([Panel(reflectance=tuple(r), roi=PanelRoi(*roi))
                             for r, roi in panels]), tuple(bands)


def save_session(path, board_image: str, panels: PanelSpec,
                 bands: tuple[str, ...] = ("R", "G", "NIR")) -> None:
    payload = {
        "board_image": board_image,
        "bands": list(bands),
        "panels": [{"reflectance": list(p.reflectance),
                    "roi": [p.roi.x, p.roi.y, p.roi.w, p.roi.h]}
                   for p in panels.panels],
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
