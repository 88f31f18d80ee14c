"""Shared fixtures: a miniature on-disk dataset reused by CLI tests, and a
fused cache of generated samples that ``paddyspec train`` reads."""
import json

import numpy as np
import pytest

from paddyspec import dataset as ds
from paddyspec import spectral, synthetic

TEST_CONFIG = {
    "paths": {"data_root": "data", "cache_dir": "cache", "output_dir": "out"},
    "registration": {"target_count": 800, "ransac_iters": 1500},
    "calibration_session": "data/session.json",
    "training": {"epochs": 1, "batch_size": 4, "input_size": 32},
    "seed": 11,
}


def write_workdir(root, n_per_class=2, image_size=200, seed=424242):
    """Populate a working directory with data/, a config, and nothing else."""
    rng = np.random.default_rng(seed)
    synthetic.write_fixture_tree(root / "data", rng, n_per_class=n_per_class,
                                 image_size=image_size)
    (root / "config.json").write_text(json.dumps(TEST_CONFIG, indent=2) + "\n")


@pytest.fixture(scope="session")
def fixture_workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("workdir")
    write_workdir(root)
    return root


def write_fused_cache(cache_dir, n_per_class, size, seed):
    """Generated NIR-signal samples saved as ``<cache_dir>/<id>.pspec``; returns
    their manifest, sorted by label and id."""
    rng = np.random.default_rng(seed)
    arrays, labels = synthetic.make_classification_samples(n_per_class, size, rng)
    cache_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for i, (arr, y) in enumerate(zip(arrays, labels)):
        label = ds.LABELS[y]
        sid = f"{label}{i:04d}"
        records.append(ds.SampleRecord(id=sid, rgb_path="", rgnir_path="", label=label))
        spectral.save_fused(arr, cache_dir / f"{sid}.pspec")
    records.sort(key=lambda r: (r.label, r.id))
    return ds.Manifest(records=records)


def write_train_inputs(root, manifest, folds, training, seed):
    """``root/config.json`` for ``paddyspec train`` over the cache in
    ``root/cache``, with the manifest and folds at their default paths."""
    out = root / "out"
    out.mkdir(parents=True, exist_ok=True)
    ds.write_manifest_csv(manifest, out / "manifest.csv")
    ds.write_folds_csv(folds, out / "folds.csv")
    config = {"paths": {"cache_dir": str(root / "cache"), "output_dir": str(out)},
              "training": training, "seed": seed}
    path = root / "config.json"
    path.write_text(json.dumps(config, indent=2) + "\n")
    return path
