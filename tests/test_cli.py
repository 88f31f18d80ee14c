"""Command-line surface: config handling, stage plumbing, exit codes."""
import json
import shutil

import numpy as np
import pytest

from paddyspec import cli
from paddyspec.imaging import ImageF, save_image


# JSON files no reader can parse: bytes that are not UTF-8 (a PNG's
# signature, then a string holding a Latin-1 byte) and arrays nested deeper
# than Python's recursion limit
UNREADABLE_JSON = [
    pytest.param(b"\x89PNG\r\n\x1a\n", id="png-bytes"),
    pytest.param(b'{"board_image": "\xe9"}', id="latin-1"),
    pytest.param(b"[" * 200_000 + b"]" * 200_000, id="deep-nesting"),
]


def run(argv, monkeypatch=None, cwd=None):
    if monkeypatch is not None and cwd is not None:
        monkeypatch.chdir(cwd)
    return cli.main(argv)


class TestConfig:
    def test_print_defaults(self, capsys):
        assert run(["config", "print-defaults"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {
            "paths": {"cache_dir": "cache", "data_root": "data", "output_dir": "out"},
            "calibration_session": "",
            "seed": 0,
            "registration": {"target_count": 10000, "ransac_iters": 2000},
            "training": {"epochs": 50, "batch_size": 16, "input_mode": "rgb_ndvi",
                         "input_size": 256},
        }

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"trainnig": {}}))
        assert run(["--config", str(bad), "config", "print-defaults"]) == 2
        assert "unknown top-level key" in capsys.readouterr().err

    def test_nested_unknown_key_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"training": {"epochz": 3}}))
        assert run(["--config", str(bad), "config", "print-defaults"]) == 2
        assert "epochz" in capsys.readouterr().err

    def test_training_seed_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"training": {"seed": 3}}))
        assert run(["--config", str(bad), "config", "print-defaults"]) == 2

    def test_registration_seed_key_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"registration": {"seed": 3}}))
        assert run(["--config", str(bad), "config", "print-defaults"]) == 2
        assert "registration.seed" in capsys.readouterr().err

    def test_registration_keys_are_flat_without_seed(self, capsys):
        assert run(["config", "print-defaults"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert sorted(data["registration"]) == ["ransac_iters", "target_count"]

    @pytest.mark.parametrize("config, needle", [
        ({"seed": "abc"}, "seed"),
        ({"seed": True}, "seed"),
        ({"training": {"epochs": "x"}}, "training.epochs"),
        ({"training": {"batch_size": 2.5}}, "training.batch_size"),
        ({"paths": 3}, "paths must be an object"),
        ({"registration": "nope"}, "registration must be an object"),
        ({"registration": {"ransac_iters": "x"}}, "registration.ransac_iters"),
        ({"registration": {"drop_best": False}}, "registration.drop_best"),
        ({"registration": {"drop_fraction": 0.10}}, "drop_fraction"),
        ({"registration": {"ransac_iters": 0}}, "ransac_iters"),
        ({"registration": {"inlier_px": 3.0}}, "inlier_px"),
        ({"calibration_session": 3}, "calibration_session"),
        ({"training": {"lr_max": 0.05}}, "training.lr_max"),
        ({"training": {"lr_min": 0.0}}, "training.lr_min"),
        ({"training": {"cycle_epochs": 10}}, "training.cycle_epochs"),
        ({"training": {"precision": "float32"}}, "training.precision"),
        ({"training": {"input_size": 0}}, "input_size must be >= 1"),
        ({"registration": {"min_inliers": 10}}, "registration.min_inliers"),
        ({"registration": {"target_count": 3}}, "target_count must be >= 4"),
        ({"training": {"optimizer": "adam"}}, "training.optimizer"),
        ({"training": {"loss": "weighted_ce"}}, "training.loss"),
    ])
    def test_malformed_value_is_usage_error(self, tmp_path, capsys, config, needle):
        """A wrong type, an out-of-range value or a key that is not one exits 2;
        the protocol constants (lr_max, lr_min, cycle_epochs, precision,
        drop_fraction, inlier_px, min_inliers) are rejected at their defaults,
        as an echo of an earlier config holds them."""
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        assert run(["--config", str(bad), "config", "print-defaults"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("paddyspec: config error: ") and err.count("\n") == 1, err
        assert needle in err

    @pytest.mark.parametrize("argv", [["train", "--fold", "x"],
                                      ["eval", "--checkpoint", "none.ckpt", "--fold", "x"],
                                      ["train", "--fold", "-1"],
                                      ["eval", "--checkpoint", "none.ckpt", "--fold", "-1"]])
    def test_non_integer_fold_is_usage_error(self, tmp_path, monkeypatch, capsys, argv):
        """A --fold that names no fold id, not an integer or below 0, exits 2."""
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("paddyspec: ") and err.count("\n") == 1, err
        assert "--fold" in err

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_usage_error(self, tmp_path, monkeypatch, capsys, jobs):
        monkeypatch.chdir(tmp_path)
        assert run(["register", "--pairs", "pairs.csv", "--jobs", jobs]) == 2
        err = capsys.readouterr().err
        assert err.startswith("paddyspec: ") and err.count("\n") == 1, err
        assert f"--jobs must be >= 1, got {jobs}" in err

    @pytest.mark.parametrize("argv, needle", [
        (["dataset", "split", "--k", "0"], "--k must be >= 1, got 0"),
        (["train", "--max-steps", "0"], "--max-steps must be >= 1, got 0"),
        (["gradcheck", "--trials", "0"], "--trials must be >= 1, got 0"),
        (["gradcheck", "--full-net-trials", "-2"], "--full-net-trials must be >= 1, got -2"),
    ])
    def test_count_flag_below_one_is_usage_error(self, tmp_path, monkeypatch, capsys,
                                                 argv, needle):
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("paddyspec: config error: ") and err.count("\n") == 1, err
        assert needle in err

    @pytest.mark.parametrize("raw", UNREADABLE_JSON)
    def test_unreadable_config_is_usage_error(self, tmp_path, capsys, raw):
        (tmp_path / "bad.json").write_bytes(raw)
        assert run(["--config", str(tmp_path / "bad.json"), "config", "print-defaults"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("paddyspec: config error: ") and err.count("\n") == 1, err
        assert "is not valid JSON" in err

    def test_cache_env_override(self, tmp_path, monkeypatch):
        from paddyspec.config import resolve_config
        monkeypatch.setenv("PADDYSPEC_CACHE", "/tmp/elsewhere")
        cfg = resolve_config(None)
        assert cfg.paths.cache_dir == "/tmp/elsewhere"


class TestDatasetCommands:
    def _touch_tree(self, root, counts=(3, 3, 2)):
        from paddyspec.dataset import LABELS
        for label, n in zip(LABELS, counts):
            d = root / "data" / label
            d.mkdir(parents=True, exist_ok=True)
            for i in range(n):
                (d / f"{label}{i}_rgb.png").touch()
                (d / f"{label}{i}_rgnir.png").touch()

    def test_build_and_split(self, tmp_path, monkeypatch, capsys):
        self._touch_tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert run(["dataset", "build"]) == 0
        assert (tmp_path / "out" / "manifest.csv").is_file()
        assert "blast=3" in capsys.readouterr().out
        assert run(["--seed", "7", "dataset", "split", "--k", "2"]) == 0
        folds = (tmp_path / "out" / "folds.csv").read_bytes()
        assert run(["--seed", "7", "dataset", "split", "--k", "2"]) == 0
        assert (tmp_path / "out" / "folds.csv").read_bytes() == folds

    def test_build_reports_orphan(self, tmp_path, monkeypatch, capsys):
        self._touch_tree(tmp_path)
        (tmp_path / "data" / "blast" / "lonely_rgb.png").touch()
        monkeypatch.chdir(tmp_path)
        assert run(["dataset", "build"]) == 1
        assert "lonely" in capsys.readouterr().err

    @pytest.mark.parametrize("flag_seed, file_seed", [("-1", None), (None, -3)])
    def test_negative_seed_is_usage_error(self, tmp_path, monkeypatch, capsys,
                                          flag_seed, file_seed):
        self._touch_tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert run(["dataset", "build"]) == 0
        (tmp_path / "config.json").write_text(json.dumps(
            {} if file_seed is None else {"seed": file_seed}))
        argv = ["--config", "config.json"] + ([] if flag_seed is None else ["--seed", flag_seed])
        capsys.readouterr()
        assert run(argv + ["dataset", "split", "--k", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("paddyspec: config error: ") and err.count("\n") == 1, err
        assert f"seed must be >= 0, got {flag_seed or file_seed}" in err
        assert not (tmp_path / "out" / "folds.csv").exists()

    def test_split_requires_enough_samples(self, tmp_path, monkeypatch):
        self._touch_tree(tmp_path, counts=(3, 3, 2))
        monkeypatch.chdir(tmp_path)
        assert run(["dataset", "build"]) == 0
        assert run(["dataset", "split", "--k", "3"]) == 1

    def test_config_echo_written(self, tmp_path, monkeypatch):
        self._touch_tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert run(["dataset", "build"]) == 0
        echoed = json.loads((tmp_path / "out" / "config_dataset_build.json").read_text())
        assert echoed["seed"] == 0


class TestRegisterErrors:
    def test_missing_manifest(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(["register", "--pairs", "nope.csv"]) == 1
        assert "nope.csv" in capsys.readouterr().err

    def test_missing_files_listed(self, tmp_path, monkeypatch, capsys):
        from paddyspec import dataset as ds
        monkeypatch.chdir(tmp_path)
        records = [ds.SampleRecord(id="a", rgb_path="a_rgb.png",
                                   rgnir_path="a_rgnir.png", label="blast")]
        manifest = ds.Manifest(records=records)
        ds.write_manifest_csv(manifest, tmp_path / "pairs.csv")
        assert run(["register", "--pairs", "pairs.csv"]) == 1
        assert "a_rgb.png" in capsys.readouterr().err


class TestMalformedInputs:
    """Bad folds, manifest, checkpoint, PNG and calibration files exit 1 with a
    one-line message."""

    def _split_files(self, tmp_path, folds_rows):
        from paddyspec import dataset as ds
        records = [ds.SampleRecord(id=f"{label}0", rgb_path="", rgnir_path="", label=label)
                   for label in ds.LABELS]
        manifest = ds.Manifest(records=records)
        ds.write_manifest_csv(manifest, tmp_path / "manifest.csv")
        (tmp_path / "folds.csv").write_text("id,fold\n" + "".join(
            row + "\n" for row in folds_rows))

    def _fails_on_one_line(self, argv, capsys, needle):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("paddyspec: ") and err.count("\n") == 1, err
        assert needle in err

    def test_folds_missing_manifest_id(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        self._split_files(tmp_path, ["blast0,0", "healthy0,1"])
        self._fails_on_one_line(["train", "--manifest", "manifest.csv",
                                 "--folds", "folds.csv"], capsys, "brown_spot0")

    @pytest.mark.parametrize("bad_row", [
        "healthy0", "healthy0,1,1", "healthy0,x", "blast0,2",
        # more digits than int() converts
        pytest.param("healthy0," + "1" * 5000, id="healthy0,5000-digit-fold")])
    def test_malformed_folds_row(self, tmp_path, monkeypatch, capsys, bad_row):
        monkeypatch.chdir(tmp_path)
        self._split_files(tmp_path, ["blast0,0", "brown_spot0,1", bad_row])
        self._fails_on_one_line(["train", "--manifest", "manifest.csv",
                                 "--folds", "folds.csv"], capsys, "folds.csv:4")

    def test_fold_id_gap_fails_before_training(self, tmp_path, monkeypatch, capsys):
        # k is the number of folds, so ids 0 and 2 leave fold 1 empty
        monkeypatch.chdir(tmp_path)
        self._split_files(tmp_path, ["blast0,0", "brown_spot0,2", "healthy0,0"])
        self._fails_on_one_line(["train", "--manifest", "manifest.csv", "--folds",
                                 "folds.csv"], capsys, "1 of 0..2 are missing: 1")
        assert not (tmp_path / "out").exists()

    def test_short_manifest_row(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        self._split_files(tmp_path, [])
        with open(tmp_path / "manifest.csv", "a") as fh:
            fh.write("x,x_rgb.png,x_rgnir.png,blast\n")
        self._fails_on_one_line(["register", "--pairs", "manifest.csv"], capsys,
                                "manifest.csv:5")

    def test_repeated_manifest_id(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        self._split_files(tmp_path, [])
        with open(tmp_path / "manifest.csv", "a") as fh:
            fh.write("blast0,x_rgb.png,x_rgnir.png,healthy,,,\n")
        self._fails_on_one_line(["register", "--pairs", "manifest.csv"], capsys,
                                "manifest.csv:5: repeated id 'blast0'")

    def test_malformed_checkpoint_header(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.ckpt").write_bytes(b"PSPECKPT1\nxx\n")
        self._fails_on_one_line(["eval", "--checkpoint", "bad.ckpt"], capsys,
                                "malformed header")

    @pytest.mark.parametrize("raw", UNREADABLE_JSON)
    def test_unreadable_checkpoint_header(self, tmp_path, monkeypatch, capsys, raw):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.ckpt").write_bytes(
            b"PSPECKPT1\n" + str(len(raw)).encode() + b"\n" + raw + b"\n")
        self._fails_on_one_line(["eval", "--checkpoint", "bad.ckpt"], capsys,
                                "malformed header")

    def test_checkpoint_meta_without_arch(self, tmp_path, monkeypatch, capsys):
        from paddyspec import nn
        monkeypatch.chdir(tmp_path)
        nn.write_checkpoint(tmp_path / "empty.ckpt", {}, {})
        self._fails_on_one_line(["eval", "--checkpoint", "empty.ckpt"], capsys,
                                "meta needs arch.in_channels")

    def test_checkpoint_meta_without_fold(self, tmp_path, monkeypatch, capsys):
        from paddyspec import nn
        from paddyspec.model import build_resnet18
        monkeypatch.chdir(tmp_path)
        meta = {"arch": {"in_channels": 3, "num_classes": 3}, "input_mode": "rgb",
                "input_size": 32}
        nn.write_checkpoint(tmp_path / "nofold.ckpt", meta,
                            build_resnet18(in_channels=3, num_classes=3).state_arrays())
        self._fails_on_one_line(["eval", "--checkpoint", "nofold.ckpt"], capsys,
                                "names no fold")

    @pytest.mark.parametrize("fold", [True, False, -1])
    def test_checkpoint_meta_fold_is_not_a_fold_id(self, tmp_path, monkeypatch, capsys, fold):
        # JSON true once passed for fold 1
        from paddyspec import nn
        from paddyspec.model import build_resnet18
        monkeypatch.chdir(tmp_path)
        meta = {"arch": {"in_channels": 3, "num_classes": 3}, "input_mode": "rgb",
                "input_size": 32, "fold": fold}
        nn.write_checkpoint(tmp_path / "m.ckpt", meta,
                            build_resnet18(in_channels=3, num_classes=3).state_arrays())
        self._fails_on_one_line(["eval", "--checkpoint", "m.ckpt"], capsys,
                                f"checkpoint m.ckpt names no fold id (meta fold {fold!r})")

    @pytest.mark.parametrize("seed", ["x", 1.5, -1])
    def test_checkpoint_meta_seed_is_not_read(self, tmp_path, seed):
        from paddyspec import nn
        from paddyspec.model import build_resnet18
        meta = {"arch": {"in_channels": 3, "num_classes": 3}, "input_mode": "rgb",
                "input_size": 32, "fold": 0, "seed": seed}
        state = build_resnet18(in_channels=3, num_classes=3, seed=7).state_arrays()
        nn.write_checkpoint(tmp_path / "m.ckpt", meta, state)
        _, model = cli._load_checkpoint_model(tmp_path / "m.ckpt")
        loaded = model.state_arrays()
        assert loaded.keys() == state.keys()
        for name, arr in state.items():
            assert loaded[name].tobytes() == arr.tobytes(), name

    def test_checkpoint_statistic_of_wrong_shape(self, tmp_path, monkeypatch, capsys):
        from paddyspec import nn
        from paddyspec.model import build_resnet18
        monkeypatch.chdir(tmp_path)
        meta = {"arch": {"in_channels": 3, "num_classes": 3}, "input_mode": "rgb",
                "input_size": 32, "fold": 0}
        state = build_resnet18(in_channels=3, num_classes=3).state_arrays()
        state["stem_bn.running_var"] = np.ones(3, dtype=np.float32)
        nn.write_checkpoint(tmp_path / "bad.ckpt", meta, state)
        self._fails_on_one_line(["eval", "--checkpoint", "bad.ckpt"], capsys,
                                "stem_bn.running_var: checkpoint shape (3,)")

    @pytest.mark.parametrize("command", ["predict", "eval"])
    @pytest.mark.parametrize("arch, needle", [
        ({"in_channels": 3, "num_classes": 4}, "bad.ckpt: arch.num_classes must be 3, got 4"),
        ({"in_channels": 4, "num_classes": 3},
         "bad.ckpt: input_mode 'rgb' needs arch.in_channels 3, got 4"),
    ], ids=["four-classes", "rgb-with-four-channels"])
    def test_checkpoint_meta_contradicting_itself(self, tmp_path, monkeypatch, capsys,
                                                  command, arch, needle):
        # unchecked, predict prints three of four probabilities and may crash,
        # or feeds the NDVI band to an rgb model and exits 0
        from paddyspec import calibration as cal
        from paddyspec import nn, synthetic
        from paddyspec.model import build_resnet18
        monkeypatch.chdir(tmp_path)
        meta = {"arch": arch, "input_mode": "rgb", "input_size": 32, "fold": 0}
        nn.write_checkpoint(tmp_path / "bad.ckpt", meta, build_resnet18(**arch).state_arrays())
        if command == "predict":
            rgb, rgnir, _ = synthetic.make_registration_pair(np.random.default_rng(13),
                                                             out_size=220)
            save_image(rgb, tmp_path / "a_rgb.png")
            save_image(rgnir, tmp_path / "a_rgnir.png")
            cal.save_calibration(cal.BandCalibration(
                gain=np.ones(3), offset=np.zeros(3), fit_residual=np.zeros(3),
                band_labels=("R", "G", "NIR")), tmp_path / "calib.json")
            argv = ["predict", "--checkpoint", "bad.ckpt", "--calibration", "calib.json",
                    "--rgb", "a_rgb.png", "--rgnir", "a_rgnir.png"]
        else:
            self._split_files(tmp_path, ["blast0,0", "brown_spot0,1", "healthy0,0"])
            argv = ["eval", "--checkpoint", "bad.ckpt", "--manifest", "manifest.csv",
                    "--folds", "folds.csv"]
        self._fails_on_one_line(argv, capsys, needle)

    @pytest.mark.parametrize("key, value, needle", [
        ("input_mode", "foo", "bad.ckpt: input_mode must be one of"),
        ("input_size", 0, "bad.ckpt: input_size must be >= 1"),
        # JSON true is no count: unchecked, "input_size": true made predict
        # classify a 1 x 1 sample
        ("input_size", True, "bad.ckpt: meta needs arch.in_channels"),
        ("arch.in_channels", True, "bad.ckpt: meta needs arch.in_channels"),
        ("arch.num_classes", True, "bad.ckpt: meta needs arch.in_channels"),
    ])
    def test_checkpoint_meta_out_of_range(self, tmp_path, monkeypatch, capsys,
                                          key, value, needle):
        from paddyspec import nn
        from paddyspec.model import build_resnet18
        monkeypatch.chdir(tmp_path)
        self._split_files(tmp_path, ["blast0,0", "brown_spot0,1", "healthy0,0"])
        meta = {"arch": {"in_channels": 3, "num_classes": 3}, "input_mode": "rgb",
                "input_size": 32, "fold": 0}
        if key.startswith("arch."):
            meta["arch"][key.removeprefix("arch.")] = value
        else:
            meta[key] = value
        nn.write_checkpoint(tmp_path / "bad.ckpt", meta,
                            build_resnet18(in_channels=3, num_classes=3).state_arrays())
        self._fails_on_one_line(["eval", "--checkpoint", "bad.ckpt", "--manifest",
                                 "manifest.csv", "--folds", "folds.csv"], capsys, needle)

    def test_checkpoint_with_nan_weight(self, tmp_path, monkeypatch, capsys):
        from paddyspec import nn, spectral
        from paddyspec.model import build_resnet18
        monkeypatch.chdir(tmp_path)
        spectral.save_fused(np.full((4, 32, 32), 0.5, np.float32), tmp_path / "ok.pspec")
        self._cache_split(tmp_path, (tmp_path / "ok.pspec").read_bytes())
        meta = {"arch": {"in_channels": 3, "num_classes": 3}, "input_mode": "rgb",
                "input_size": 32, "fold": 0}
        state = build_resnet18(in_channels=3, num_classes=3).state_arrays()
        state["stem_conv.weight"].flat[0] = np.nan
        nn.write_checkpoint(tmp_path / "nan.ckpt", meta, state)
        self._fails_on_one_line(["eval", "--checkpoint", "nan.ckpt", "--manifest",
                                 "manifest.csv", "--folds", "folds.csv"], capsys,
                                "nan.ckpt: tensor 'stem_conv.weight' holds NaN or Inf")


    @staticmethod
    def _column_mutations(text):
        """Every copy of a CSV text with one field of one line dropped or doubled."""
        lines = text.splitlines()
        for i, line in enumerate(lines):
            fields = line.split(",")
            for j in range(len(fields)):
                for changed in (fields[:j] + fields[j + 1:], fields[:j + 1] + fields[j:]):
                    yield "\n".join(lines[:i] + [",".join(changed)] + lines[i + 1:]) + "\n"

    def test_csv_column_fuzz(self, tmp_path, monkeypatch, capsys):
        from paddyspec import dataset as ds
        monkeypatch.chdir(tmp_path)
        self._split_files(tmp_path, ["blast0,0", "brown_spot0,1", "healthy0,0"])
        manifest, folds = (tmp_path / "manifest.csv").read_text(), (tmp_path / "folds.csv").read_text()
        train = ["train", "--manifest", "manifest.csv", "--folds", "folds.csv"]
        cases = [(text, folds, ds.read_manifest_csv, "manifest.csv")
                 for text in self._column_mutations(manifest)]
        cases += [(manifest, text, ds.read_folds_csv, "folds.csv")
                  for text in self._column_mutations(folds)]
        assert len(cases) == 2 * (4 * 7 + 4 * 2)
        for manifest_text, folds_text, read, name in cases:
            (tmp_path / "manifest.csv").write_text(manifest_text)
            (tmp_path / "folds.csv").write_text(folds_text)
            with pytest.raises(ds.ManifestError, match=name):
                read(tmp_path / name)
            self._fails_on_one_line(train, capsys, name)
            if name == "manifest.csv":
                self._fails_on_one_line(["register", "--pairs", name], capsys, name)

    @pytest.mark.parametrize("name, old, new", [
        ("manifest.csv", b"id,rgb_path", b"\xffid,rgb_path"),
        ("manifest.csv", b"blast0,,,blast", b"blast0,,,bl\xffast"),
        ("folds.csv", b"id,fold", b"id,f\xffold"),
        ("folds.csv", b"healthy0,0", b"healthy0,0\xff"),
    ])
    def test_non_utf8_csv(self, tmp_path, monkeypatch, capsys, name, old, new):
        from paddyspec import dataset as ds
        monkeypatch.chdir(tmp_path)
        self._split_files(tmp_path, ["blast0,0", "brown_spot0,1", "healthy0,0"])
        raw = (tmp_path / name).read_bytes()
        assert old in raw
        (tmp_path / name).write_bytes(raw.replace(old, new))
        read = ds.read_manifest_csv if name == "manifest.csv" else ds.read_folds_csv
        with pytest.raises(ds.ManifestError, match=name):
            read(tmp_path / name)
        self._fails_on_one_line(["train", "--manifest", "manifest.csv",
                                 "--folds", "folds.csv"], capsys, name)

    def _cache_split(self, tmp_path, payload):
        """Two samples per class, two folds, every cache file holding ``payload``;
        returns the ``train`` arguments for fold 0."""
        from paddyspec import dataset as ds
        ids = [f"{label}{i}" for label in ds.LABELS for i in range(2)]
        records = [ds.SampleRecord(id=sid, rgb_path="", rgnir_path="", label=sid[:-1])
                   for sid in ids]
        ds.write_manifest_csv(ds.Manifest(records=records),
                              tmp_path / "manifest.csv")
        (tmp_path / "folds.csv").write_text("id,fold\n" + "".join(
            f"{sid},{sid[-1]}\n" for sid in ids))
        (tmp_path / "cache").mkdir()
        for sid in ids:
            (tmp_path / "cache" / f"{sid}.pspec").write_bytes(payload)
        return ["train", "--manifest", "manifest.csv", "--folds", "folds.csv", "--fold", "0"]

    @pytest.mark.parametrize("fold", ["2", "5"])
    def test_fold_beyond_k_writes_nothing(self, tmp_path, monkeypatch, capsys, fold):
        monkeypatch.chdir(tmp_path)
        train = self._cache_split(tmp_path, b"")[:-1] + [fold]
        self._fails_on_one_line(train, capsys, f"fold_id {fold} out of range for k=2")
        assert not (tmp_path / "out").exists()

    def _train_on_cache(self, tmp_path, capsys, payload):
        """``train`` on a ``_cache_split`` must fail on one line naming a cache file."""
        self._fails_on_one_line(self._cache_split(tmp_path, payload), capsys, ".pspec")

    def test_truncated_fused_cache(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        self._train_on_cache(tmp_path, capsys, b"PSPEC1\x01\x00")

    def test_truncated_fused_container(self, tmp_path, monkeypatch, capsys):
        from paddyspec import spectral
        monkeypatch.chdir(tmp_path)
        spectral.save_fused(np.zeros((4, 32, 32), np.float32), tmp_path / "whole.pspec")
        raw = (tmp_path / "whole.pspec").read_bytes()
        self._train_on_cache(tmp_path, capsys, raw[:-4])

    def test_non_finite_fused_cache(self, tmp_path, monkeypatch, capsys):
        from paddyspec import spectral
        monkeypatch.chdir(tmp_path)
        sample = np.zeros((4, 32, 32), np.float32)
        sample[3, 5, 7] = np.nan
        spectral.save_fused(sample, tmp_path / "nan.pspec")
        (tmp_path / "config.json").write_text(json.dumps({"training": {"input_size": 32}}))
        train = self._cache_split(tmp_path, (tmp_path / "nan.pspec").read_bytes())
        self._fails_on_one_line(["--config", "config.json"] + train + ["--max-steps", "1"],
                                capsys, ".pspec: tensor 'fused' holds NaN or Inf")

    def test_repeated_fused_tensor(self, tmp_path, monkeypatch, capsys):
        from paddyspec import nn, spectral
        monkeypatch.chdir(tmp_path)
        sample = np.zeros((4, 32, 32), np.float32)
        nn.write_checkpoint(tmp_path / "twice.pspec", {"bands": list(spectral.FUSED_BANDS)},
                            {"fused": sample, "fusee": sample + 1.0})
        raw = (tmp_path / "twice.pspec").read_bytes().replace(b'"fusee"', b'"fused"')
        self._fails_on_one_line(self._cache_split(tmp_path, raw), capsys,
                                ".pspec: tensor 'fused' appears twice")

    def test_diverging_training(self, tmp_path, monkeypatch, capsys):
        from paddyspec import spectral, training
        monkeypatch.chdir(tmp_path)
        rng = np.random.default_rng(0)
        spectral.save_fused(rng.uniform(0.0, 1.0, (4, 32, 32)).astype(np.float32),
                            tmp_path / "ok.pspec")
        monkeypatch.setattr(training, "LR_MAX", 1e30)
        (tmp_path / "config.json").write_text(json.dumps({"training": {"input_size": 32}}))
        train = self._cache_split(tmp_path, (tmp_path / "ok.pspec").read_bytes())
        # the divergence itself: batchnorm's xhat * gamma overflows before
        # check_finite reports the non-finite output
        with pytest.warns(RuntimeWarning, match="overflow"):
            self._fails_on_one_line(["--config", "config.json"] + train + ["--max-steps", "4"],
                                    capsys, "NaN or Inf")

    def test_garbage_mask_png(self, tmp_path, monkeypatch, capsys):
        from paddyspec import dataset as ds
        from paddyspec.imaging import write_png
        monkeypatch.chdir(tmp_path)
        record = ds.SampleRecord(id="a", rgb_path="", rgnir_path="", label="blast")
        ds.write_manifest_csv(ds.Manifest(records=[record]),
                              tmp_path / "pairs.csv")
        for sub in ("registered", "calibrated"):
            (tmp_path / "out" / sub).mkdir(parents=True)
        write_png(tmp_path / "out" / "registered" / "a_rgb.png", np.zeros((8, 8, 3), np.uint8))
        write_png(tmp_path / "out" / "calibrated" / "a_rgnir.png",
                  np.zeros((8, 8, 3), np.uint16))
        (tmp_path / "out" / "registered" / "a_mask.png").write_bytes(b"garbage")
        self._fails_on_one_line(["ndvi", "--pairs", "pairs.csv"], capsys, "a_mask.png")

    @pytest.mark.parametrize("mask_size, rgnir_size", [(50, 200), (200, 100)],
                             ids=["mask-50", "rgnir-100"])
    def test_ndvi_frames_of_different_sizes(self, tmp_path, monkeypatch, capsys,
                                            mask_size, rgnir_size):
        # each input alone resizes to input_size, so fuse would see no mismatch
        from paddyspec import dataset as ds
        from paddyspec.imaging import write_png
        monkeypatch.chdir(tmp_path)
        record = ds.SampleRecord(id="a", rgb_path="", rgnir_path="", label="blast")
        ds.write_manifest_csv(ds.Manifest(records=[record]), tmp_path / "pairs.csv")
        reg_dir, cal_dir = tmp_path / "out" / "registered", tmp_path / "out" / "calibrated"
        reg_dir.mkdir(parents=True)
        cal_dir.mkdir(parents=True)
        write_png(reg_dir / "a_rgb.png", np.full((200, 200, 3), 90, np.uint8))
        write_png(reg_dir / "a_mask.png", np.full((mask_size, mask_size), 255, np.uint8))
        write_png(cal_dir / "a_rgnir.png", np.full((rgnir_size, rgnir_size, 3), 9000,
                                                   np.uint16))
        self._fails_on_one_line(["ndvi", "--pairs", "pairs.csv"], capsys,
                                "sample a: frame sizes differ")
        assert not (tmp_path / "cache" / "a.pspec").exists()

    def test_ndvi_input_size_beyond_memory(self, tmp_path, monkeypatch, capsys):
        # a 10^6 px side asks for terabytes, which numpy refuses at once
        from paddyspec import dataset as ds
        from paddyspec.imaging import write_png
        monkeypatch.chdir(tmp_path)
        (tmp_path / "config.json").write_text(json.dumps(
            {"training": {"input_size": 10**6}}))
        record = ds.SampleRecord(id="a", rgb_path="", rgnir_path="", label="blast")
        ds.write_manifest_csv(ds.Manifest(records=[record]), tmp_path / "pairs.csv")
        reg_dir, cal_dir = tmp_path / "out" / "registered", tmp_path / "out" / "calibrated"
        reg_dir.mkdir(parents=True)
        cal_dir.mkdir(parents=True)
        write_png(reg_dir / "a_rgb.png", np.full((8, 8, 3), 90, np.uint8))
        write_png(reg_dir / "a_mask.png", np.full((8, 8), 255, np.uint8))
        write_png(cal_dir / "a_rgnir.png", np.full((8, 8, 3), 9000, np.uint16))
        self._fails_on_one_line(["--config", "config.json", "ndvi", "--pairs", "pairs.csv"],
                                capsys, "sample a: cannot resize to the requested input "
                                        "size 1000000 x 1000000")
        assert not (tmp_path / "cache" / "a.pspec").exists()

    def test_predict_checkpoint_input_size_beyond_memory(self, tmp_path, monkeypatch,
                                                         capsys):
        from paddyspec import calibration as cal
        from paddyspec import nn, synthetic
        from paddyspec.model import build_resnet18
        monkeypatch.chdir(tmp_path)
        meta = {"arch": {"in_channels": 4, "num_classes": 3}, "input_mode": "rgb_ndvi",
                "input_size": 10**6, "fold": 0}
        nn.write_checkpoint(tmp_path / "m.ckpt", meta,
                            build_resnet18(in_channels=4, num_classes=3).state_arrays())
        rgb, rgnir, _ = synthetic.make_registration_pair(np.random.default_rng(13),
                                                         out_size=220)
        save_image(rgb, tmp_path / "a_rgb.png")
        save_image(rgnir, tmp_path / "a_rgnir.png")
        cal.save_calibration(cal.BandCalibration(
            gain=np.ones(3), offset=np.zeros(3), fit_residual=np.zeros(3),
            band_labels=("R", "G", "NIR")), tmp_path / "calib.json")
        self._fails_on_one_line(["predict", "--checkpoint", "m.ckpt", "--calibration",
                                 "calib.json", "--rgb", "a_rgb.png", "--rgnir", "a_rgnir.png"],
                                capsys, "cannot resize to the requested input size "
                                        "1000000 x 1000000")

    def test_calibration_without_gain(self, tmp_path, monkeypatch, capsys):
        from paddyspec import nn
        from paddyspec.model import build_resnet18
        monkeypatch.chdir(tmp_path)
        meta = {"arch": {"in_channels": 3, "num_classes": 3}, "input_mode": "rgb",
                "input_size": 32, "fold": 0}
        nn.write_checkpoint(tmp_path / "m.ckpt", meta,
                            build_resnet18(in_channels=3, num_classes=3).state_arrays())
        (tmp_path / "calib.json").write_text('{"bands": ["R", "G", "NIR"]}')
        self._fails_on_one_line(["predict", "--checkpoint", "m.ckpt", "--calibration",
                                 "calib.json", "--rgb", "a.png", "--rgnir", "b.png"],
                                capsys, "calib.json")

    @pytest.mark.parametrize("raw", UNREADABLE_JSON)
    def test_unreadable_calibration_file(self, tmp_path, monkeypatch, capsys, raw):
        from paddyspec import nn
        from paddyspec.model import build_resnet18
        monkeypatch.chdir(tmp_path)
        meta = {"arch": {"in_channels": 3, "num_classes": 3}, "input_mode": "rgb",
                "input_size": 32, "fold": 0}
        nn.write_checkpoint(tmp_path / "m.ckpt", meta,
                            build_resnet18(in_channels=3, num_classes=3).state_arrays())
        (tmp_path / "calib.json").write_bytes(raw)
        self._fails_on_one_line(["predict", "--checkpoint", "m.ckpt", "--calibration",
                                 "calib.json", "--rgb", "a.png", "--rgnir", "b.png"],
                                capsys, "cannot read calibration file calib.json")

    @pytest.mark.parametrize("raw", UNREADABLE_JSON)
    def test_unreadable_session_file(self, tmp_path, monkeypatch, capsys, raw):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "session.json").write_bytes(raw)
        self._fails_on_one_line(["calibrate", "--session", "session.json",
                                 "--pairs", "pairs.csv"], capsys,
                                "cannot read session file session.json")

    @pytest.mark.parametrize("key, value, needle", [
        ("board_image", 5, "board_image must be a string"),
        ("bands", "RGN", "bands must be a list of strings"),
        ("bands", ["R", 1, "NIR"], "bands must be a list of strings"),
        ("reflectance", ["x", "y", "z"], "reflectance must be a list of numbers"),
        ("reflectance", 0.5, "reflectance must be a list of numbers"),
        ("roi", ["a", 1, 2, 3], "roi must be 4 integers"),
        ("roi", [1.5, 1, 2, 3], "roi must be 4 integers"),
        ("roi", [1, 2, 3], "roi must be 4 integers"),
        ("reflectance", [0.5, 0.5], "panel 1 needs one reflectance per band (3), got 2"),
        ("reflectance", [0.3, float("nan"), 0.3], "panel 1 reflectance must be finite"),
        ("reflectance", [0.3, 10**400, 0.3], "panel 1 reflectance must be finite"),
    ])
    def test_mistyped_session_file(self, tmp_path, monkeypatch, capsys, key, value, needle):
        from paddyspec import calibration as cal
        from paddyspec.synthetic import make_calibration_board
        monkeypatch.chdir(tmp_path)
        _, panels = make_calibration_board(np.random.default_rng(0))
        cal.save_session(tmp_path / "session.json", "board.png", panels)
        payload = json.loads((tmp_path / "session.json").read_text())
        if key in payload:
            payload[key] = value
        else:
            payload["panels"][1][key] = value
        (tmp_path / "session.json").write_text(json.dumps(payload))
        self._fails_on_one_line(["calibrate", "--session", "session.json",
                                 "--pairs", "pairs.csv"], capsys, needle)

    def test_negative_roi_extent(self, tmp_path, monkeypatch, capsys):
        # w * h = 25 passes the size check, but the ROI selects no pixel
        from paddyspec import calibration as cal
        from paddyspec import dataset as ds
        from paddyspec.synthetic import make_calibration_board
        monkeypatch.chdir(tmp_path)
        board, panels = make_calibration_board(np.random.default_rng(0))
        save_image(board, tmp_path / "board.png")
        panels.panels[1].roi = cal.PanelRoi(x=60, y=60, w=-5, h=-5)
        cal.save_session(tmp_path / "session.json", "board.png", panels)
        ds.write_manifest_csv(ds.Manifest(records=[]), tmp_path / "pairs.csv")
        self._fails_on_one_line(["calibrate", "--session", "session.json",
                                 "--pairs", "pairs.csv"], capsys, "must have w >= 1 and h >= 1")
        assert not (tmp_path / "out" / "calibration.json").exists()

    def test_session_bands_out_of_image_order(self, tmp_path, monkeypatch, capsys):
        # the session's gains, fitted for NIR-G-R, would land on R-G-NIR images
        from paddyspec import calibration as cal
        from paddyspec import dataset as ds
        from paddyspec.synthetic import make_calibration_board
        monkeypatch.chdir(tmp_path)
        board, panels = make_calibration_board(np.random.default_rng(0))
        save_image(board, tmp_path / "board.png")
        cal.save_session(tmp_path / "session.json", "board.png", panels,
                         bands=("NIR", "G", "R"))
        record = ds.SampleRecord(id="a", rgb_path="board.png", rgnir_path="board.png",
                                 label="blast")
        ds.write_manifest_csv(ds.Manifest(records=[record]), tmp_path / "pairs.csv")
        self._fails_on_one_line(["calibrate", "--session", "session.json",
                                 "--pairs", "pairs.csv"], capsys,
                                "image has bands ['R', 'G', 'NIR'], "
                                "calibration ['NIR', 'G', 'R']")
        assert not (tmp_path / "out" / "calibrated" / "a_rgnir.png").exists()

    @pytest.mark.parametrize("dry_run", [False, True], ids=["run", "dry-run"])
    @pytest.mark.parametrize("bands", [("NIR", "G", "R"), ("R", "G", "NDVI")],
                             ids=["NIR-G-R", "R-G-NDVI"])
    def test_session_bands_other_than_rgnir_keep_the_calibration(
            self, tmp_path, monkeypatch, capsys, bands, dry_run):
        # the session is rejected before the good run's outputs are rewritten
        from paddyspec import calibration as cal
        from paddyspec import dataset as ds
        from paddyspec.synthetic import make_calibration_board
        monkeypatch.chdir(tmp_path)
        board, panels = make_calibration_board(np.random.default_rng(0))
        save_image(board, tmp_path / "board.png")
        record = ds.SampleRecord(id="a", rgb_path="board.png", rgnir_path="board.png",
                                 label="blast")
        ds.write_manifest_csv(ds.Manifest(records=[record]), tmp_path / "pairs.csv")
        cal.save_session(tmp_path / "good.json", "board.png", panels)
        assert run(["calibrate", "--session", "good.json", "--pairs", "pairs.csv"]) == 0
        outputs = [tmp_path / "out" / "calibration.json",
                   tmp_path / "out" / "calibrated" / "a_rgnir.png"]
        good = [path.read_bytes() for path in outputs]
        capsys.readouterr()
        cal.save_session(tmp_path / "session.json", "board.png", panels, bands=bands)
        argv = ["calibrate", "--session", "session.json", "--pairs", "pairs.csv"]
        self._fails_on_one_line(argv + (["--dry-run"] if dry_run else []), capsys,
                                f"session file session.json: image has bands "
                                f"['R', 'G', 'NIR'], calibration {list(bands)}")
        assert [path.read_bytes() for path in outputs] == good

    def test_calibration_file_for_other_bands(self, tmp_path, monkeypatch, capsys):
        from paddyspec import calibration as cal
        from paddyspec import nn, synthetic
        from paddyspec.model import build_resnet18
        monkeypatch.chdir(tmp_path)
        meta = {"arch": {"in_channels": 4, "num_classes": 3}, "input_mode": "rgb_ndvi",
                "input_size": 32, "fold": 0}
        nn.write_checkpoint(tmp_path / "m.ckpt", meta,
                            build_resnet18(in_channels=4, num_classes=3).state_arrays())
        rgb, rgnir, _ = synthetic.make_registration_pair(np.random.default_rng(13),
                                                         out_size=220)
        save_image(rgb, tmp_path / "a_rgb.png")
        save_image(rgnir, tmp_path / "a_rgnir.png")
        cal.save_calibration(cal.BandCalibration(
            gain=np.ones(3), offset=np.zeros(3), fit_residual=np.zeros(3),
            band_labels=("R", "G", "B")), tmp_path / "calib.json")
        self._fails_on_one_line(["predict", "--checkpoint", "m.ckpt", "--calibration",
                                 "calib.json", "--rgb", "a_rgb.png", "--rgnir", "a_rgnir.png"],
                                capsys, "image has bands ['R', 'G', 'NIR'], "
                                        "calibration ['R', 'G', 'B']")


@pytest.mark.slow
class TestPipeline:
    def test_full_pipeline(self, fixture_workdir, monkeypatch, capsys):
        monkeypatch.chdir(fixture_workdir)
        base = ["--config", "config.json"]

        assert run(base + ["dataset", "build"]) == 0
        manifest = "out/manifest.csv"

        assert run(base + ["register", "--pairs", manifest, "--dry-run"]) == 0
        assert not (fixture_workdir / "out" / "registered").exists()

        assert run(base + ["register", "--pairs", manifest]) == 0
        report = (fixture_workdir / "out" / "registered" / "report.txt").read_text()
        assert report.count("pair=") == 6
        assert "FAILED" not in report

        assert run(base + ["calibrate", "--pairs", manifest]) == 0
        assert (fixture_workdir / "out" / "calibration.json").is_file()

        assert run(base + ["ndvi", "--pairs", manifest]) == 0
        cache = sorted((fixture_workdir / "cache").glob("*.pspec"))
        assert len(cache) == 6

        assert run(base + ["dataset", "split", "--k", "2"]) == 0

        assert run(base + ["train", "--fold", "0", "--max-steps", "120"]) == 0
        ckpt = fixture_workdir / "out" / "fold0_rgb_ndvi.ckpt"
        assert ckpt.is_file()
        assert (fixture_workdir / "out" / "fold0_rgb_ndvi_history.csv").is_file()

        assert run(base + ["eval", "--checkpoint", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "macro_f1:" in out

        # predict on a training-fold pair: its registration, calibration and
        # fusion must reproduce the pair's cached sample, so its probabilities
        # are the checkpoint's on that sample. Which class a 120-step model on
        # 3 samples picks depends on float rounding, so it is not asserted.
        import csv as csvmod
        from paddyspec import nn
        from paddyspec.dataset import LABELS
        from paddyspec.model import build_resnet18
        from paddyspec.spectral import load_fused
        with open(fixture_workdir / "out" / "folds.csv") as fh:
            folds = {r["id"]: int(r["fold"]) for r in csvmod.DictReader(fh)}
        healthy_id = next(i for i in sorted(folds)
                          if i.startswith("healthy") and folds[i] != 0)
        assert run(base + ["predict",
                           "--rgb", f"data/healthy/{healthy_id}_rgb.png",
                           "--rgnir", f"data/healthy/{healthy_id}_rgnir.png",
                           "--checkpoint", str(ckpt)]) == 0
        out = capsys.readouterr().out
        probs = {}
        for line in out.strip().splitlines()[:3]:
            label, value = line.split(": ")
            probs[label] = float(value)
        assert abs(sum(probs.values()) - 1.0) < 1e-4

        meta, arrays = nn.read_checkpoint(ckpt)
        model = build_resnet18(in_channels=meta["arch"]["in_channels"])
        model.load_state_arrays(arrays)
        fused = load_fused(fixture_workdir / "cache" / f"{healthy_id}.pspec")
        expected = model.predict_proba(nn.Tensor(fused[None, :model.in_channels]))[0]
        assert list(probs) == list(LABELS)
        assert np.abs(np.array(list(probs.values())) - expected).max() < 1e-3
        assert f"prediction: {LABELS[int(expected.argmax())]}" in out

    def test_parallel_register_matches_serial(self, tmp_path, monkeypatch):
        from conftest import write_workdir
        work = tmp_path / "par"
        work.mkdir()
        write_workdir(work, n_per_class=1, image_size=200, seed=77)
        monkeypatch.chdir(work)
        base = ["--config", "config.json"]
        assert run(base + ["dataset", "build"]) == 0
        registered = work / "out" / "registered"

        def outputs():
            names = sorted(p.name for p in registered.iterdir())
            assert [n for n in names if n.endswith("_rgb.png")], names
            assert [n for n in names if n.endswith("_mask.png")], names
            return {name: (registered / name).read_bytes() for name in names}

        assert run(base + ["--jobs", "1", "register", "--pairs", "out/manifest.csv"]) == 0
        serial = outputs()
        shutil.rmtree(registered)
        assert run(base + ["--jobs", "2", "register", "--pairs", "out/manifest.csv"]) == 0
        assert outputs() == serial

    def test_textureless_pair_fails_with_stage_tag(self, fixture_workdir,
                                                   monkeypatch, capsys, tmp_path):
        import shutil
        work = tmp_path / "broken"
        shutil.copytree(fixture_workdir, work)
        flat = ImageF(np.full((200, 200, 3), 0.5, dtype=np.float32), ("R", "G", "B"))
        save_image(flat, work / "data" / "blast" / "blast000_rgb.png")
        save_image(ImageF(flat.data, ("R", "G", "NIR")),
                   work / "data" / "blast" / "blast000_rgnir.png")
        monkeypatch.chdir(work)
        base = ["--config", "config.json"]
        assert run(base + ["dataset", "build"]) == 0
        assert run(base + ["register", "--pairs", "out/manifest.csv"]) == 1
        report = (work / "out" / "registered" / "report.txt").read_text()
        assert "stage=detect" in report
        # the other five pairs still registered
        assert report.count("FAILED") == 1
