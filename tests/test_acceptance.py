"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line on completion.

Run with:  pytest tests/test_acceptance.py -v -s

The full-dataset headline F1 numbers are not reproducible at desk scale
(the 3,815-pair field dataset is not bundled); the fusion-advantage test
reproduces the central claim qualitatively on generated data where the
class signal lives only in the NIR band.
"""
import csv
import math
import shutil
import time

import numpy as np
import pytest

from paddyspec import cli, gradsuite, nn, registration as reg, spectral, synthetic, training
from paddyspec import calibration as cal
from paddyspec import dataset as ds
from paddyspec.config import CACHE_ENV_VAR
from paddyspec.dataset import LABELS, stratified_kfold
from paddyspec.model import build_resnet18
from paddyspec.nn import Tensor
from paddyspec.training import TrainConfig

pytestmark = pytest.mark.slow


def test_fusion_advantage(tmp_path, monkeypatch):
    """RGB+NDVI beats RGB by >= 10 macro-F1 points on NIR-signal data, each
    mode run through ``paddyspec train`` over all five folds."""
    start = time.time()
    from conftest import write_fused_cache, write_train_inputs
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    manifest = write_fused_cache(tmp_path / "cache", n_per_class=200, size=32, seed=2024)
    k = 5
    config = write_train_inputs(tmp_path, manifest, stratified_kfold(manifest, k=k, seed=5),
                                training={"epochs": 2, "batch_size": 16, "input_size": 32},
                                seed=5)
    out = tmp_path / "out"
    means = {}
    for mode in ("rgb", "rgb_ndvi"):
        code = cli.main(["--config", str(config), "--jobs", "1", "--input-mode", mode,
                         "train", "--fold", "all"])
        assert code == 0, f"train --input-mode {mode} exited {code}"
        fold_f1 = []
        for fold in range(k):
            # the held-out macro F1 after the last epoch, written with repr
            with open(out / f"fold{fold}_{mode}_history.csv", newline="") as fh:
                fold_f1.append(float(list(csv.DictReader(fh))[-1]["val_macro_f1"]))
            (out / f"fold{fold}_{mode}.ckpt").unlink()
        means[mode] = float(np.mean(fold_f1))
    rgb, fused = means["rgb"], means["rgb_ndvi"]
    elapsed = time.time() - start
    assert elapsed < 1800.0, f"fusion study took {elapsed:.0f}s (> 30 min)"
    assert fused - rgb >= 0.10, (
        f"rgb_ndvi {fused:.3f} vs rgb {rgb:.3f}: margin {fused - rgb:.3f} < 0.10")
    print(f"\nPASS: fusion advantage (rgb_ndvi {fused:.3f} vs rgb {rgb:.3f}, "
          f"margin {fused - rgb:.1%}, {elapsed:.0f}s, 5-fold paired)")


def test_gradient_suite():
    """Every op and the full ResNet18 pass finite differences, 20+ trials."""
    start = time.time()
    results, _ = gradsuite.run_suite(trials=20, seed=0, full_net_trials=20)
    elapsed = time.time() - start
    assert elapsed < 600.0, f"gradient suite took {elapsed:.0f}s (> 10 min)"
    for name, err in results.items():
        assert err < 1e-4, f"{name}: max relative error {err:.3e} >= 1e-4"
    worst = max(results.values())
    print(f"\nPASS: gradient suite ({len(results)} checks, worst relative error "
          f"{worst:.2e}, {elapsed:.0f}s)")


def test_registration_accuracy():
    """Known-homography recovery under outliers, plus matcher oracle equality."""
    rng = np.random.default_rng(31337)
    params = dict(iters=2000, inlier_px=3.0, min_inliers=10, seed=7)

    hits = 0
    for trial in range(100):
        h_true = synthetic.random_projective_homography(rng)
        kps_a, kps_b, matches = synthetic.make_correspondences(
            rng, h_true, n=100, noise=0.3, outlier_fraction=0.30)
        result = reg.estimate_homography(matches, kps_a, kps_b, **params)
        err = synthetic.corner_reprojection_error(result.homography, h_true)
        if err < 1.0:
            hits += 1
    assert hits >= 95, f"only {hits}/100 noisy trials under 1 px corner error"

    worst_clean = 0.0
    for trial in range(20):
        h_true = synthetic.random_projective_homography(rng)
        kps_a, kps_b, matches = synthetic.make_correspondences(
            rng, h_true, n=80, noise=0.0, outlier_fraction=0.30)
        result = reg.estimate_homography(matches, kps_a, kps_b, **params)
        worst_clean = max(worst_clean, synthetic.corner_reprojection_error(
            result.homography, h_true))
    assert worst_clean < 0.5, f"noise-free corner error {worst_clean:.3f} >= 0.5 px"

    def oracle(a, b):
        def nearest(x, y):
            out = []
            for i in range(len(x)):
                dists = [int(np.bitwise_count(np.bitwise_xor(x[i], y[j])).sum())
                         for j in range(len(y))]
                j = int(np.argmin(dists))
                out.append((j, dists[j]))
            return out

        b_to_a = nearest(b, a)
        return [(i, j, d) for i, (j, d) in enumerate(nearest(a, b)) if b_to_a[j][0] == i]

    for trial in range(12):
        na = int(rng.integers(1, 257))
        nb = int(rng.integers(1, 257))
        a = rng.integers(0, 256, size=(na, 32)).astype(np.uint8)
        b = rng.integers(0, 256, size=(nb, 32)).astype(np.uint8)
        m = reg.match_bruteforce(a, b)
        got = list(zip(m.index_a.tolist(), m.index_b.tolist(), m.distance.tolist()))
        assert got == oracle(a, b), f"matcher diverged from oracle on trial {trial}"

    print(f"\nPASS: registration accuracy ({hits}/100 noisy trials < 1 px, "
          f"noise-free worst {worst_clean:.3f} px, matcher == oracle on 12 instances)")


def test_scheduler():
    """lr_at matches the closed form at 10,000 points within 1e-12."""
    assert (training.LR_MAX, training.CYCLE_EPOCHS) == (0.05, 10)
    assert training.lr_at(0.0) == 0.05
    assert training.lr_at(5.0) == 0.025
    assert training.lr_at(10.0) == 0.05
    worst = 0.0
    for x in np.linspace(0.0, 50.0, 10_000):
        t = math.fmod(x, 10.0)
        expected = 0.5 * 0.05 * (1.0 + math.cos(math.pi * t / 10.0))
        worst = max(worst, abs(training.lr_at(float(x)) - expected))
    assert worst < 1e-12
    print(f"\nPASS: scheduler (anchors exact, 10,000 points within {worst:.1e})")


def test_metrics_oracle():
    """F1 equals brute-force recomputation on 1,000 random configurations."""
    counts = np.array([[8, 2, 0], [1, 9, 0], [0, 0, 10]])
    per_class, macro = training.f1_scores(training.ConfusionMatrix(counts))
    assert np.round(per_class, 3).tolist() == [0.842, 0.857, 1.0]
    assert round(macro, 3) == 0.900

    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 200))
        labels = rng.integers(0, 3, n)
        preds = rng.integers(0, 3, n)
        per_class, macro = training.f1_scores(
            training.confusion_from_pairs(labels, preds))
        brute = []
        for c in range(3):
            tp = int(((labels == c) & (preds == c)).sum())
            fp = int(((labels != c) & (preds == c)).sum())
            fn = int(((labels == c) & (preds != c)).sum())
            p = tp / (tp + fp) if tp + fp else 0.0
            r = tp / (tp + fn) if tp + fn else 0.0
            brute.append(2 * p * r / (p + r) if p + r else 0.0)
        worst = max(worst, np.abs(per_class - np.array(brute)).max(),
                    abs(macro - float(np.mean(brute))))
    assert worst < 1e-12
    print(f"\nPASS: metrics oracle (worked example + 1,000 configurations, "
          f"max deviation {worst:.1e})")


def test_dataset_accounting(tmp_path):
    """Field-scale mock tree: totals, fold sizes, and class weights."""
    counts = (2135, 1095, 585)
    for label, n in zip(LABELS, counts):
        d = tmp_path / label
        d.mkdir()
        for i in range(n):
            (d / f"{label}{i:05d}_rgb.png").touch()
            (d / f"{label}{i:05d}_rgnir.png").touch()
    manifest = ds.build_manifest(tmp_path)
    assert manifest.counts == {"blast": 2135, "brown_spot": 1095, "healthy": 585}
    assert len(manifest) == 3815

    folds = stratified_kfold(manifest, k=5, seed=9)
    for fold in range(5):
        ids = {r.id for r in manifest.records if folds.fold_of[r.id] == fold}
        per_class = {label: 0 for label in LABELS}
        for r in manifest.records:
            if r.id in ids:
                per_class[r.label] += 1
        assert per_class == {"blast": 427, "brown_spot": 219, "healthy": 117}

    weights = ds.class_weights(manifest)
    assert np.abs(weights - np.array([0.5956, 1.1614, 2.1738])).max() < 1e-4
    print("\nPASS: dataset accounting (3815 = 2135/1095/585, folds 427/219/117, "
          f"weights {np.round(weights, 4).tolist()})")


def test_model_structure():
    """Exact parameter counts and the 256-input spatial trace."""
    from test_model import count_parameters, shape_trace, tally_parameters
    assert count_parameters(build_resnet18(in_channels=3)) == 11_178_051
    assert count_parameters(build_resnet18(in_channels=4)) == 11_181_187
    assert tally_parameters(3, 3) == 11_178_051
    assert tally_parameters(4, 3) == 11_181_187

    model = build_resnet18(in_channels=4, seed=0)
    x = Tensor(np.zeros((1, 4, 256, 256), dtype=np.float32))
    with nn.no_grad():
        trace, walked = shape_trace(model, x)
        logits = model.forward(x, train=True)
    expected = [
        ("stem_conv", (1, 64, 128, 128)),
        ("maxpool", (1, 64, 64, 64)),
        ("stage1", (1, 64, 64, 64)),
        ("stage2", (1, 128, 32, 32)),
        ("stage3", (1, 256, 16, 16)),
        ("stage4", (1, 512, 8, 8)),
        ("avgpool", (1, 512)),
        ("head", (1, 3)),
    ]
    assert trace == expected
    assert logits.shape == (1, 3)
    assert walked.data.tobytes() == logits.data.tobytes()
    print("\nPASS: model structure (11,178,051 / 11,181,187 parameters, "
          "trace 256-128-64-32-16-8-pool-3)")


def test_overfit_sanity():
    """48 samples reach 100% train accuracy within 300 steps at default config."""
    start = time.time()
    arrays, labels = synthetic.make_classification_samples(16, 32, np.random.default_rng(77))
    cfg = TrainConfig(epochs=100, batch_size=16, input_size=32, seed=3)
    model = build_resnet18(in_channels=4, num_classes=3, seed=21, dtype=cfg.dtype)

    state = {"steps": None}

    def on_epoch(m, steps):
        acc = training.evaluate_model(m, arrays, labels, 16
                                      ).confusion.counts.trace() / len(arrays)
        if acc == 1.0:
            state["steps"] = steps
            return True
        return steps >= 300

    training.fit(model, cfg, arrays, labels, np.ones(3), on_epoch=on_epoch)
    elapsed = time.time() - start
    assert elapsed < 300.0, f"overfit check took {elapsed:.0f}s (> 5 min)"
    assert state["steps"] is not None and state["steps"] <= 300, (
        "did not reach 100% train accuracy within 300 optimizer steps")

    # fixed-batch loss decreases over the first 10 steps (final < initial)
    fixed = arrays[:16]
    fixed_labels = labels[:16]
    probe = build_resnet18(in_channels=4, num_classes=3, seed=4, dtype=np.float32)
    losses, _ = training.fit(probe, cfg, fixed, fixed_labels, np.ones(3), max_steps=10)
    assert losses[-1] < losses[0]

    print(f"\nPASS: overfit sanity (100% train accuracy at step {state['steps']}, "
          f"{elapsed:.0f}s; fixed-batch loss {losses[0]:.3f} -> {losses[-1]:.3f})")


def test_calibration_and_ndvi_invariants():
    """Affine DN distortion recovered exactly; NDVI invariants over 1e6 draws."""
    gain = np.array([1.25, 1.10, 1.40])
    offset = np.array([-0.05, -0.02, -0.08])
    refl = np.tile(np.array([0.1, 0.3, 0.6, 0.9])[:, None], (1, 3))
    dn = (refl - offset) / gain
    calib = cal.fit_calibration(dn, refl)
    assert calib.fit_residual.max() < 1e-12
    assert np.abs(calib.gain - gain).max() < 1e-12
    assert np.abs(calib.offset - offset).max() < 1e-12

    rng = np.random.default_rng(99)
    n = 1_000_000
    red = rng.uniform(0.0, 1.0, n)
    nir = rng.uniform(0.0, 1.0, n)
    ndvi = spectral.compute_ndvi(red, nir)
    assert np.isfinite(ndvi).all()
    assert ndvi.min() >= -1.0 and ndvi.max() <= 1.0
    # eps guard: all-zero pixels map to 0, not NaN
    assert np.all(spectral.compute_ndvi(np.zeros(8), np.zeros(8)) == 0.0)
    # scale invariance across two decades, within the eps-induced bound:
    # |d/(s+eps/c) - d/(s+eps)| = |d| * eps * |1/c - 1| / ((s+eps/c)(s+eps))
    eps = 1e-6
    s = red + nir
    d = np.abs(nir - red)
    for c in (0.1, 0.5, 2.0, 10.0):
        scaled = spectral.compute_ndvi(c * red, c * nir)
        bound = d * eps * abs(1.0 / c - 1.0) / ((s + eps / c) * (s + eps))
        assert np.all(np.abs(scaled.astype(np.float64) - ndvi) <= bound + 5e-6)
        well_conditioned = s >= 0.1
        assert np.abs(scaled - ndvi)[well_conditioned].max() < 1e-4
    print(f"\nPASS: calibration round trip (residual {calib.fit_residual.max():.1e}) "
          "and NDVI invariants over 1e6 draws")


def test_cli_end_to_end_byte_identical(tmp_path, monkeypatch, capsys):
    """register -> calibrate -> ndvi -> dataset build/split -> train -> eval,
    exit 0 throughout, byte-identical across two runs at --jobs 1."""
    start = time.time()
    from conftest import write_workdir
    template = tmp_path / "template"
    template.mkdir()
    write_workdir(template, n_per_class=2, image_size=200, seed=24601)

    def run_chain(workdir):
        monkeypatch.chdir(workdir)
        base = ["--config", "config.json", "--jobs", "1"]
        chain = [
            base + ["dataset", "build"],
            base + ["register", "--pairs", "out/manifest.csv"],
            base + ["calibrate", "--pairs", "out/manifest.csv"],
            base + ["ndvi", "--pairs", "out/manifest.csv"],
            base + ["dataset", "split", "--k", "2"],
            base + ["train", "--fold", "0", "--max-steps", "40"],
            base + ["eval", "--checkpoint", "out/fold0_rgb_ndvi.ckpt"],
        ]
        for argv in chain:
            code = cli.main(argv)
            assert code == 0, f"{argv} exited {code}"

    outputs = {}
    for name in ("run1", "run2"):
        workdir = tmp_path / name
        shutil.copytree(template, workdir)
        run_chain(workdir)
        capsys.readouterr()
        files = {}
        for sub in ("out", "cache"):
            for f in sorted((workdir / sub).rglob("*")):
                if f.is_file():
                    files[str(f.relative_to(workdir))] = f.read_bytes()
        outputs[name] = files

    assert outputs["run1"].keys() == outputs["run2"].keys()
    for rel in outputs["run1"]:
        assert outputs["run1"][rel] == outputs["run2"][rel], f"{rel} differs between runs"
    elapsed = time.time() - start
    n_files = len(outputs["run1"])
    print(f"\nPASS: end-to-end CLI ({n_files} output files byte-identical across "
          f"two runs, {elapsed:.0f}s)")
