"""Synthetic desk-scale fixtures.

The real 3815-pair field dataset is not distributable, so tests and demo
runs work from generated scenes: textured multiband fields, warped
registration pairs with known ground-truth homographies, calibration boards
with a known affine DN distortion, and classification sets whose class
signal lives only in the NIR band.
"""
from __future__ import annotations

import numpy as np

from .calibration import Panel, PanelRoi, PanelSpec, save_session
from .dataset import LABELS
from .imaging import ImageF, save_image, warp_perspective
from .registration import Keypoints, Matches
from .spectral import compute_ndvi, fuse

DEFAULT_GAIN = np.array([1.25, 1.10, 1.40])
DEFAULT_OFFSET = np.array([-0.05, -0.02, -0.08])
PANEL_REFLECTANCES = (0.1, 0.3, 0.6, 0.9)

# per-class NIR reflectance level; RGB texture is class-independent
NIR_LEVELS = {"blast": 0.55, "brown_spot": 0.25, "healthy": 0.85}


def _box_blur(arr: np.ndarray, radius: int) -> np.ndarray:
    padded = np.pad(arr, radius, mode="edge")
    csum = np.cumsum(np.cumsum(padded, axis=0), axis=1)
    csum = np.pad(csum, ((1, 0), (1, 0)))
    size = 2 * radius + 1
    h, w = arr.shape
    total = (csum[size:size + h, size:size + w]
             - csum[:h, size:size + w]
             - csum[size:size + h, :w]
             + csum[:h, :w])
    return total / (size * size)


def smooth_texture(h: int, w: int, rng: np.random.Generator,
                   lo: float = 0.1, hi: float = 0.9, radius: int = 2) -> np.ndarray:
    """Band-limited random texture, normalized into [lo, hi]."""
    noise = rng.standard_normal((h, w))
    for _ in range(3):
        noise = _box_blur(noise, radius)
    span = noise.max() - noise.min()
    if span < 1e-12:
        return np.full((h, w), 0.5 * (lo + hi))
    return (lo + (hi - lo) * (noise - noise.min()) / span).astype(np.float64)


def detailed_texture(h: int, w: int, rng: np.random.Generator,
                     lo: float = 0.05, hi: float = 0.95) -> np.ndarray:
    """Multi-scale texture with distinctive fine structure for feature work."""
    fine = _box_blur(rng.standard_normal((h, w)), 1)
    mid = _box_blur(_box_blur(rng.standard_normal((h, w)), 3), 3)
    coarse = _box_blur(_box_blur(rng.standard_normal((h, w)), 8), 8)
    mix = 0.45 * fine / fine.std() + 0.35 * mid / mid.std() + 0.2 * coarse / coarse.std()
    span = mix.max() - mix.min()
    return (lo + (hi - lo) * (mix - mix.min()) / span).astype(np.float64)


def make_scene(size: int, rng: np.random.Generator,
               nir_level: float = 0.6) -> dict[str, np.ndarray]:
    """Multiband scene; NIR mixes a class level with the shared green texture."""
    g = detailed_texture(size, size, rng, 0.05, 0.95)
    r = smooth_texture(size, size, rng, 0.15, 0.7)
    b = smooth_texture(size, size, rng, 0.1, 0.6)
    nir = np.clip(nir_level + 0.2 * (g - g.mean()), 0.02, 0.95)
    return {"R": r, "G": g, "B": b, "NIR": nir}


def similarity_transform(scale: float, angle_deg: float, tx: float, ty: float) -> np.ndarray:
    a = np.deg2rad(angle_deg)
    c, s = np.cos(a), np.sin(a)
    return np.array([[scale * c, -scale * s, tx],
                     [scale * s, scale * c, ty],
                     [0.0, 0.0, 1.0]])


def make_registration_pair(rng: np.random.Generator, scene_size: int = 420,
                           out_size: int = 256, rgb_scale: float = 0.65,
                           rotation_deg: float | None = None,
                           nir_level: float = 0.6,
                           ) -> tuple[ImageF, ImageF, np.ndarray]:
    """A wide-view RGB image and a narrow-view R-G-NIR crop of one scene.

    Returns (rgb, rgnir, true homography mapping rgb coords -> rgnir coords).
    The narrow view is a center crop at native scene resolution; the wide
    view sees the whole scene downscaled, so the true map upscales by
    roughly 1/rgb_scale.
    """
    if rotation_deg is None:
        rotation_deg = float(rng.uniform(-4.0, 4.0))
    bands = make_scene(scene_size, rng, nir_level=nir_level)
    scene_rgb = ImageF(np.stack([bands["R"], bands["G"], bands["B"]], axis=-1
                                ).astype(np.float32), ("R", "G", "B"))
    scene_rgnir = ImageF(np.stack([bands["R"], bands["G"], bands["NIR"]], axis=-1
                                  ).astype(np.float32), ("R", "G", "NIR"))

    # scene -> rgb: similarity centering the scene in the output frame
    center_scene = (scene_size - 1) / 2.0
    center_out = (out_size - 1) / 2.0
    rot = similarity_transform(rgb_scale, rotation_deg, 0.0, 0.0)
    shift = np.array([center_out, center_out]) - rot[:2, :2] @ np.array(
        [center_scene, center_scene])
    a_mat = similarity_transform(rgb_scale, rotation_deg, shift[0], shift[1])

    # scene -> rgnir: integer center crop
    crop = (scene_size - out_size) // 2
    c_mat = np.array([[1.0, 0.0, -crop], [0.0, 1.0, -crop], [0.0, 0.0, 1.0]])

    rgb, _ = warp_perspective(scene_rgb, a_mat, out_size, out_size)
    rgnir, _ = warp_perspective(scene_rgnir, c_mat, out_size, out_size)
    h_true = c_mat @ np.linalg.inv(a_mat)
    return rgb, rgnir, h_true / h_true[2, 2]


def random_projective_homography(rng: np.random.Generator,
                                 scale_range: tuple[float, float] = (2.5, 3.5),
                                 max_rotation_deg: float = 10.0,
                                 max_translation: float = 40.0,
                                 projective: float = 2e-5) -> np.ndarray:
    """Homography with the FOV-gap scale disparity plus mild projective terms."""
    s = rng.uniform(*scale_range)
    h = similarity_transform(s, rng.uniform(-max_rotation_deg, max_rotation_deg),
                             rng.uniform(-max_translation, max_translation),
                             rng.uniform(-max_translation, max_translation))
    h[2, 0] = rng.uniform(-projective, projective)
    h[2, 1] = rng.uniform(-projective, projective)
    return h


def make_correspondences(rng: np.random.Generator, h_true: np.ndarray, n: int,
                         extent: int = 256, noise: float = 0.0,
                         outlier_fraction: float = 0.0,
                         ) -> tuple[Keypoints, Keypoints, Matches]:
    """Point correspondences under a known homography, optionally corrupted."""
    pts_a = rng.uniform(8.0, extent - 8.0, size=(n, 2))
    homog = np.hstack([pts_a, np.ones((n, 1))]) @ h_true.T
    pts_b = homog[:, :2] / homog[:, 2:3]
    if noise > 0:
        pts_b = pts_b + rng.normal(0.0, noise, size=pts_b.shape)
    n_out = int(round(outlier_fraction * n))
    if n_out:
        idx = rng.choice(n, size=n_out, replace=False)
        lo = pts_b.min(axis=0)
        hi = pts_b.max(axis=0)
        pts_b[idx] = rng.uniform(lo, hi, size=(n_out, 2))

    def keypoints(pts):
        return Keypoints(xy=pts, score=np.ones(n), angle=np.zeros(n),
                         octave=np.zeros(n, dtype=np.intp), lvl_xy=pts.astype(np.intp))

    index = np.arange(n)
    return (keypoints(pts_a), keypoints(pts_b),
            Matches(index, index, rng.integers(0, 80, size=n)))


def corner_reprojection_error(h_est: np.ndarray, h_true: np.ndarray,
                              extent: int = 256) -> float:
    """Max distance between estimated and true images of the frame corners."""
    corners = np.array([[0.0, 0.0], [extent - 1.0, 0.0],
                        [0.0, extent - 1.0], [extent - 1.0, extent - 1.0]])
    ones = np.ones((4, 1))

    def project(h):
        p = np.hstack([corners, ones]) @ np.asarray(h, dtype=np.float64).T
        return p[:, :2] / p[:, 2:3]

    return float(np.linalg.norm(project(h_est) - project(h_true), axis=1).max())


def make_calibration_board(rng: np.random.Generator, size: int = 140,
                           reflectances=PANEL_REFLECTANCES,
                           gain: np.ndarray = DEFAULT_GAIN,
                           offset: np.ndarray = DEFAULT_OFFSET,
                           noise: float = 0.0) -> tuple[ImageF, PanelSpec]:
    """Board image in DN units whose panels invert a known affine distortion."""
    bands = len(gain)
    dn = np.clip(rng.uniform(0.35, 0.45, size=(size, size, bands)), 0.0, 1.0)
    panels = []
    side = 40
    margin = 12
    positions = [(margin, margin), (margin, size - margin - side),
                 (size - margin - side, margin), (size - margin - side, size - margin - side)]
    for refl, (y, x) in zip(reflectances, positions):
        level = (np.full(bands, refl) - offset) / gain
        patch = np.tile(level, (side, side, 1))
        if noise > 0:
            patch = patch + rng.normal(0.0, noise, size=patch.shape)
        dn[y:y + side, x:x + side, :] = np.clip(patch, 0.0, 1.0)
        panels.append(Panel(reflectance=tuple([refl] * bands),
                            roi=PanelRoi(x=x, y=y, w=side, h=side)))
    return ImageF(dn.astype(np.float32), ("R", "G", "NIR")), PanelSpec(panels)


def make_classification_samples(n_per_class: int, size: int,
                                rng: np.random.Generator,
                                nir_levels: dict[str, float] | None = None,
                                ) -> tuple[np.ndarray, np.ndarray]:
    """Fused (N, 4, H, W) tensors + labels with an NIR-only class signal."""
    nir_levels = nir_levels or NIR_LEVELS
    tensors = []
    labels = []
    for ci, label in enumerate(LABELS):
        for _ in range(n_per_class):
            r = smooth_texture(size, size, rng, 0.25, 0.55)
            g = smooth_texture(size, size, rng, 0.2, 0.8)
            b = smooth_texture(size, size, rng, 0.1, 0.6)
            nir = np.clip(nir_levels[label] + rng.normal(0.0, 0.03)
                          + 0.03 * (g - g.mean()), 0.01, 0.99)
            ndvi = compute_ndvi(r, nir)
            rgb = ImageF(np.stack([r, g, b], axis=-1).astype(np.float32), ("R", "G", "B"))
            sample = fuse(rgb, ndvi, np.ones((size, size), dtype=bool), label=ci)
            tensors.append(sample.tensor)
            labels.append(ci)
    order = rng.permutation(len(tensors))
    stacked = np.stack(tensors)[order]
    return stacked, np.array(labels, dtype=np.int64)[order]


def write_fixture_tree(root, rng: np.random.Generator, n_per_class: int = 1,
                       image_size: int = 200, scene_size: int = 330,
                       gain: np.ndarray = DEFAULT_GAIN,
                       offset: np.ndarray = DEFAULT_OFFSET) -> None:
    """Write a miniature on-disk dataset: paired PNGs plus a session file.

    R-G-NIR files hold DN values distorted by the inverse of (gain, offset),
    so a calibration fit against the bundled board recovers reflectance.
    """
    root.mkdir(parents=True, exist_ok=True)
    for label in LABELS:
        (root / label).mkdir(exist_ok=True)
        for i in range(n_per_class):
            rgb, rgnir, _ = make_registration_pair(
                rng, scene_size=scene_size, out_size=image_size,
                nir_level=NIR_LEVELS[label])
            dn = np.clip((rgnir.data.astype(np.float64) - offset) / gain, 0.0, 1.0)
            sample_id = f"{label}{i:03d}"
            save_image(rgb, root / label / f"{sample_id}_rgb.png")
            save_image(ImageF(dn.astype(np.float32), rgnir.band_labels),
                       root / label / f"{sample_id}_rgnir.png")

    board, panels = make_calibration_board(rng, gain=gain, offset=offset)
    save_image(board, root / "calibration_board.png")
    save_session(root / "session.json", "calibration_board.png", panels,
                 bands=("R", "G", "NIR"))
