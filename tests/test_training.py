"""Schedule, metrics, and training-loop behavior."""
import csv
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import write_fused_cache, write_train_inputs
from test_optim import reference_step, spy_on_leaves
from paddyspec import cli, nn, training
from paddyspec.dataset import LABELS, Manifest, ManifestError, class_weights, stratified_kfold
from paddyspec.model import build_resnet18
from paddyspec.training import (
    CYCLE_EPOCHS,
    INPUT_MODES,
    LR_MAX,
    ConfusionMatrix,
    FusedCacheSource,
    TrainConfig,
    TrainingError,
    confusion_from_pairs,
    evaluate_model,
    f1_scores,
    lr_at,
    model_seed,
    train_fold,
)


def small_cfg(**overrides):
    base = dict(epochs=2, batch_size=4, input_size=16, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def reference_fit(model, cfg, arrays, labels, weights, max_steps):
    """``fit`` as a full backward, then one update pass per step; returns the
    losses and the optimizer."""
    optimizer = nn.Adam(model.parameters())
    steps_per_epoch = math.ceil(len(arrays) / cfg.batch_size)
    weights = np.asarray(weights, dtype=cfg.dtype)
    losses = []
    for epoch in range(math.ceil(max_steps / steps_per_epoch)):
        order = np.random.default_rng([cfg.seed, 0, epoch]).permutation(len(arrays))
        for i in range(steps_per_epoch):
            if len(losses) >= max_steps:
                break
            idx = order[i * cfg.batch_size:(i + 1) * cfg.batch_size]
            logits = model.forward(nn.Tensor(arrays[idx].astype(cfg.dtype)), train=True)
            loss = nn.weighted_cross_entropy(logits, labels[idx], weights)
            optimizer.zero_grad()
            loss.backward()
            reference_step(optimizer, lr_at(epoch + i / steps_per_epoch))
            losses.append(loss.item())
    return losses, optimizer


def training_fold_weights(manifest, folds, fold_id):
    """Class weights of the folds that ``train_fold`` trains on."""
    return class_weights(Manifest([r for r in manifest.records
                                   if folds.fold_of[r.id] != fold_id]))


class TestSchedule:
    def test_anchor_points_exact(self):
        assert lr_at(0.0) == 0.05
        assert lr_at(5.0) == 0.025
        assert lr_at(10.0) == 0.05
        assert lr_at(20.0) == 0.05
        assert lr_at(9.999) < 1e-6

    def test_matches_closed_form_everywhere(self):
        xs = np.linspace(0.0, 50.0, 10_000)
        for x in xs:
            t = math.fmod(x, 10.0)
            expected = 0.0 + 0.5 * 0.05 * (1.0 + math.cos(math.pi * t / 10.0))
            assert abs(lr_at(float(x)) - expected) < 1e-12

    def test_range_and_restart_peaks(self):
        xs = np.linspace(0.0, 10.0 * CYCLE_EPOCHS, 5000)
        vals = np.array([lr_at(float(x)) for x in xs])
        assert vals.min() >= 0.0
        assert vals.max() <= LR_MAX
        for mult in range(0, 10):
            assert lr_at(float(CYCLE_EPOCHS * mult)) == LR_MAX

    def test_continuity_within_cycle(self):
        xs = np.linspace(0.0, 9.99, 2000)
        vals = np.array([lr_at(float(x)) for x in xs])
        assert np.abs(np.diff(vals)).max() < 0.05 * math.pi / 10 * 0.01 * 2

    def test_negative_epoch_rejected(self):
        with pytest.raises(TrainingError):
            lr_at(-0.1)


class TestMetrics:
    def test_perfect_predictions(self):
        labels = np.array([0, 1, 2, 0, 1, 2])
        result = confusion_from_pairs(labels, labels)
        per_class, macro = f1_scores(result)
        assert np.allclose(per_class, 1.0)
        assert macro == 1.0

    def test_worked_confusion_example(self):
        counts = np.array([[8, 2, 0], [1, 9, 0], [0, 0, 10]])
        per_class, macro = f1_scores(ConfusionMatrix(counts))
        assert np.round(per_class, 3).tolist() == [0.842, 0.857, 1.0]
        assert round(macro, 3) == 0.900

    def test_never_predicted_class_scores_zero(self):
        labels = np.array([0, 1, 2, 2])
        preds = np.array([0, 1, 0, 1])  # class 2 never predicted
        per_class, _ = f1_scores(confusion_from_pairs(labels, preds))
        assert per_class[2] == 0.0

    def test_confusion_total(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 3, 57)
        preds = rng.integers(0, 3, 57)
        assert confusion_from_pairs(labels, preds).total() == 57

    @staticmethod
    def brute_force_f1(labels, preds, k=3):
        """Independent recomputation straight from the raw pairs."""
        per = []
        for c in range(k):
            tp = sum(1 for y, p in zip(labels, preds) if y == c and p == c)
            fp = sum(1 for y, p in zip(labels, preds) if y != c and p == c)
            fn = sum(1 for y, p in zip(labels, preds) if y == c and p != c)
            prec = tp / (tp + fp) if tp + fp else 0.0
            rec = tp / (tp + fn) if tp + fn else 0.0
            per.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
        return np.array(per), float(np.mean(per))

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 120))
    @settings(max_examples=120, deadline=None)
    def test_matches_brute_force(self, seed, n):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 3, n)
        preds = rng.integers(0, 3, n)
        per_class, macro = f1_scores(confusion_from_pairs(labels, preds))
        oracle_per, oracle_macro = self.brute_force_f1(labels, preds)
        assert np.abs(per_class - oracle_per).max() < 1e-12
        assert abs(macro - oracle_macro) < 1e-12


def tiny_dataset(tmp_path, n_per_class=4, size=16, seed=0):
    """Manifest + fused cache under ``tmp_path`` with a strong NIR signal."""
    manifest = write_fused_cache(tmp_path / "cache", n_per_class, size, seed)
    return manifest, FusedCacheSource(tmp_path / "cache")


class TestEvaluate:
    def test_empty_set_rejected(self):
        from paddyspec.model import build_resnet18
        model = build_resnet18(in_channels=3)
        with pytest.raises(TrainingError):
            evaluate_model(model, np.empty((0, 3, 16, 16)), np.empty(0, np.int64), 16)

    def test_channel_mismatch_rejected(self):
        from paddyspec.model import build_resnet18
        model = build_resnet18(in_channels=3)
        with pytest.raises(TrainingError, match="channels"):
            evaluate_model(model, np.zeros((2, 4, 16, 16)), np.zeros(2, np.int64), 16)


class TestTrainFold:
    def test_zero_peak_lr_is_noop(self, tmp_path, monkeypatch):
        monkeypatch.setattr(training, "lr_at", lambda step_epoch: 0.0)
        manifest, source = tiny_dataset(tmp_path, n_per_class=2)
        folds = stratified_kfold(manifest, k=2, seed=0)
        cfg = small_cfg(epochs=2, batch_size=3)
        result = train_fold(cfg, manifest, folds, 0, source)
        from paddyspec.model import build_resnet18
        from paddyspec.training import model_seed
        fresh = build_resnet18(in_channels=cfg.channels, seed=model_seed(cfg.seed, 0),
                               dtype=cfg.dtype)
        for (name, trained), (_, init) in zip(result.model.named_parameters(),
                                              fresh.named_parameters()):
            assert trained.data.tobytes() == init.data.tobytes(), name
        # the two epochs batch the same samples in another order; in float32
        # that moves the batchnorm sums, and the loss by about 1e-5 relative
        losses = [e.train_loss for e in result.history]
        assert losses[0] == pytest.approx(losses[1], rel=1e-4)

    def test_deterministic_final_loss_in_test_precision(self, tmp_path):
        manifest, source = tiny_dataset(tmp_path, n_per_class=3)
        folds = stratified_kfold(manifest, k=3, seed=1)
        cfg = small_cfg(epochs=2, batch_size=4, seed=5)
        a = train_fold(cfg, manifest, folds, 0, source)
        b = train_fold(cfg, manifest, folds, 0, source)
        assert a.history[-1].train_loss == b.history[-1].train_loss
        for (_, ta), (_, tb) in zip(a.model.named_parameters(), b.model.named_parameters()):
            assert ta.data.tobytes() == tb.data.tobytes()

    def test_history_shape_and_weights(self, tmp_path):
        manifest, source = tiny_dataset(tmp_path, n_per_class=4)
        folds = stratified_kfold(manifest, k=2, seed=2)
        cfg = small_cfg(epochs=2)
        result = train_fold(cfg, manifest, folds, 0, source)
        assert len(result.history) == 2
        assert result.val_result.confusion is not None
        assert result.val_result.confusion.total() == sum(
            1 for r in manifest.records if folds.fold_of[r.id] == 0)
        # balanced training folds give near-uniform weights
        assert np.allclose(training_fold_weights(manifest, folds, 0).sum(), 3.0, atol=1e-9)

    def test_bad_fold_id(self, tmp_path):
        manifest, source = tiny_dataset(tmp_path, n_per_class=2)
        folds = stratified_kfold(manifest, k=2, seed=0)
        with pytest.raises(TrainingError):
            train_fold(small_cfg(), manifest, folds, 5, source)

    def test_input_size_mismatch_names_sample(self, tmp_path):
        manifest, source = tiny_dataset(tmp_path, n_per_class=2, size=16)
        folds = stratified_kfold(manifest, k=2, seed=0)
        cfg = small_cfg(input_size=32)
        with pytest.raises(TrainingError, match="input size"):
            train_fold(cfg, manifest, folds, 0, source)

    def test_history_csv(self, tmp_path):
        manifest, source = tiny_dataset(tmp_path, n_per_class=2)
        folds = stratified_kfold(manifest, k=2, seed=0)
        result = train_fold(small_cfg(epochs=1, batch_size=3), manifest, folds, 0, source)
        path = tmp_path / "history.csv"
        training.write_history_csv(result.history, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,lr,train_loss,val_macro_f1,f1_blast,f1_spot,f1_healthy"
        assert len(lines) == 2

    def test_folds_missing_an_id_fail_before_training(self, tmp_path):
        manifest, source = tiny_dataset(tmp_path, n_per_class=2)
        folds = stratified_kfold(manifest, k=2, seed=0)
        del folds.fold_of[manifest.records[1].id]
        with pytest.raises(ManifestError, match=manifest.records[1].id):
            train_fold(small_cfg(), manifest, folds, 0, source)


class TestSingleLoop:
    """train_fold is fit() on the fold's data plus per-epoch validation."""

    @staticmethod
    def fold_data(cfg, manifest, source, folds, fold_id):
        records = [r for r in manifest.records if folds.fold_of[r.id] != fold_id]
        x = training.load_sample_batch(source, records, cfg)
        y = np.array([LABELS.index(r.label) for r in records], dtype=np.int64)
        return x, y

    def test_step_budget_cuts_last_epoch_and_still_validates(self, tmp_path):
        manifest, source = tiny_dataset(tmp_path, n_per_class=4)
        folds = stratified_kfold(manifest, k=2, seed=0)
        # 6 training samples at batch 3: two steps per epoch, so 3 steps end mid-epoch
        cfg = small_cfg(epochs=5, batch_size=3)
        result = train_fold(cfg, manifest, folds, 0, source, max_steps=3)
        x, y = self.fold_data(cfg, manifest, source, folds, 0)
        direct = build_resnet18(in_channels=cfg.channels, seed=model_seed(cfg.seed, 0),
                                dtype=cfg.dtype)
        _, steps = training.fit(direct, cfg, x, y, training_fold_weights(manifest, folds, 0),
                                max_steps=3)
        assert steps == 3
        for (name, a), (_, b) in zip(result.model.named_parameters(),
                                     direct.named_parameters()):
            assert a.data.tobytes() == b.data.tobytes(), name
        assert [e.epoch for e in result.history] == [0, 1]
        held_out = sum(1 for r in manifest.records if folds.fold_of[r.id] == 0)
        assert result.val_result.confusion.total() == held_out

    def test_train_fold_equals_fit_on_fold_data(self, tmp_path):
        manifest, source = tiny_dataset(tmp_path, n_per_class=4)
        folds = stratified_kfold(manifest, k=2, seed=0)
        cfg = small_cfg(epochs=2, batch_size=3, seed=3)
        fold_id = 1
        result = train_fold(cfg, manifest, folds, fold_id, source)
        x, y = self.fold_data(cfg, manifest, source, folds, fold_id)
        direct = build_resnet18(in_channels=cfg.channels, seed=model_seed(cfg.seed, fold_id),
                                dtype=cfg.dtype)
        losses, steps = training.fit(direct, cfg, x, y,
                                     training_fold_weights(manifest, folds, fold_id),
                                     shuffle_tag=fold_id)
        assert steps == 4  # 2 epochs of 6 samples at batch 3
        for (name, a), (_, b) in zip(result.model.named_parameters(),
                                     direct.named_parameters()):
            assert a.data.tobytes() == b.data.tobytes(), name
        per_epoch = [float(np.mean(losses[i:i + 2])) for i in (0, 2)]
        assert [e.train_loss for e in result.history] == per_epoch

    def test_step_budget_overrides_epochs(self, tmp_path):
        manifest, source = tiny_dataset(tmp_path, n_per_class=4)
        folds = stratified_kfold(manifest, k=2, seed=0)
        cfg = small_cfg(epochs=1, batch_size=3)
        x, y = self.fold_data(cfg, manifest, source, folds, 0)
        seen = []
        model = build_resnet18(in_channels=cfg.channels, seed=0, dtype=cfg.dtype)
        losses, steps = training.fit(model, cfg, x, y, np.ones(3), max_steps=5,
                                     on_epoch=lambda m, s: seen.append(s))
        assert steps == len(losses) == 5
        assert seen == [2, 4, 5]

    def test_non_positive_budget_rejected(self):
        cfg = small_cfg()
        model = build_resnet18(in_channels=cfg.channels, seed=0)
        with pytest.raises(TrainingError, match="max_steps"):
            training.fit(model, cfg, np.zeros((2, 4, 16, 16), np.float32),
                         np.zeros(2, np.int64), np.ones(3), max_steps=0)


class TestUpdateInsideBackward:
    @pytest.mark.parametrize("mode", INPUT_MODES)
    def test_fit_is_bit_identical_to_backward_then_update(self, monkeypatch, mode):
        """fit() updates each parameter inside backward; a full backward
        followed by the reference update pass gives the same bytes."""
        cfg = small_cfg(batch_size=4, input_size=32, input_mode=mode, seed=4)
        rng = np.random.default_rng(8)
        x = rng.standard_normal((12, cfg.channels, 32, 32)).astype(np.float32)
        y = rng.integers(0, 3, 12)
        weights = np.array([1.0, 2.5, 0.7])
        created = []

        class RecordingAdam(nn.Adam):
            def __init__(self, params):
                super().__init__(params)
                created.append(self)

        monkeypatch.setattr(training, "Adam", RecordingAdam)
        fused = build_resnet18(in_channels=cfg.channels, seed=6)
        losses, steps = training.fit(fused, cfg, x, y, weights, max_steps=10)
        reference = build_resnet18(in_channels=cfg.channels, seed=6)
        ref_losses, ref_opt = reference_fit(reference, cfg, x, y, weights, max_steps=10)
        assert steps == 10 and losses == ref_losses
        opt = created[0]
        assert opt.step_count == ref_opt.step_count == 10
        for a, b in zip(fused.state_arrays().values(), reference.state_arrays().values()):
            assert a.tobytes() == b.tobytes()
        for a, b in zip(opt.m + opt.v, ref_opt.m + ref_opt.v):
            assert a.tobytes() == b.tobytes()
        assert all(p.grad is None for p in fused.parameters())


class TestTrainMemory:
    @staticmethod
    def one_batch():
        rng = np.random.default_rng(0)
        x = rng.standard_normal((16, 4, 64, 64)).astype(np.float32)
        return small_cfg(batch_size=16, input_size=64), x, rng.integers(0, 3, 16)

    def test_each_update_sees_one_ops_gradients(self, monkeypatch):
        """When a parameter is handed to the update, the only gradients alive
        are its own op's: a conv weight, a batchnorm's gamma and beta, or the
        head's weight and bias."""
        cfg, x, y = self.one_batch()
        model = build_resnet18(in_channels=cfg.channels, seed=0)
        named = model.named_parameters()

        def holders(leaf):
            ops = {name.rsplit(".", 1)[0] for name, p in named if p.grad is not None}
            return id(leaf), ops

        seen = spy_on_leaves(monkeypatch, holders)
        training.fit(model, cfg, x, y, np.ones(3), max_steps=1)
        assert sorted(leaf for leaf, _ in seen) == sorted(id(p) for _, p in named)
        assert all(len(ops) == 1 for _, ops in seen), [ops for _, ops in seen]

    def test_step_peak_is_below_a_full_backward(self):
        """Dropping each gradient once its parameter is updated takes at
        least half the model's gradient bytes off a step's traced peak."""
        cfg, x, y = self.one_batch()

        def peak(run):
            model = build_resnet18(in_channels=cfg.channels, seed=0)
            tracemalloc.start()
            try:
                run(model)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        grad_bytes = sum(p.data.nbytes
                         for p in build_resnet18(in_channels=cfg.channels).parameters())
        fused = peak(lambda m: training.fit(m, cfg, x, y, np.ones(3), max_steps=1))
        full = peak(lambda m: reference_fit(m, cfg, x, y, np.ones(3), max_steps=1))
        assert fused <= full - grad_bytes / 2, (fused, full, grad_bytes)

    def test_peak_does_not_grow_with_steps(self):
        """Backward releases each step's tape, so a step's activations, patch
        matrices and gradients are gone before the next forward: the traced
        peak over four steps stays within 10 % of one step's."""
        cfg = small_cfg(batch_size=16, input_size=64)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((64, 4, 64, 64)).astype(np.float32)
        y = rng.integers(0, 3, 64)
        peaks = {}
        for steps in (1, 4):
            model = build_resnet18(in_channels=cfg.channels, seed=0)
            tracemalloc.start()
            try:
                training.fit(model, cfg, x, y, np.ones(3), max_steps=steps)
                peaks[steps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[4] <= 1.1 * peaks[1], peaks


class TestLoadSampleBatch:
    @pytest.mark.parametrize("mode", INPUT_MODES)
    def test_bytes_equal_stacked_files(self, tmp_path, mode):
        manifest, source = tiny_dataset(tmp_path, n_per_class=2)
        cfg = small_cfg(input_mode=mode)
        batch = training.load_sample_batch(source, manifest.records, cfg)
        expected = np.stack([source.load(r)[:cfg.channels]
                             for r in manifest.records]).astype(cfg.dtype)
        assert batch.dtype == expected.dtype and batch.shape == expected.shape
        assert batch.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("mode", INPUT_MODES)
    def test_peak_is_the_set_plus_one_file(self, tmp_path, mode):
        manifest, source = tiny_dataset(tmp_path, n_per_class=16, size=32)
        cfg = small_cfg(input_mode=mode, input_size=32)
        one_file = (tmp_path / "cache" / f"{manifest.records[0].id}.pspec").stat().st_size
        tracemalloc.start()
        try:
            batch = training.load_sample_batch(source, manifest.records, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one file read holds the file's bytes, its decoded copy and the
        # previous sample
        assert peak <= batch.nbytes + 4 * one_file, (peak, batch.nbytes, one_file)


class TestTrainCommand:
    def test_all_folds_both_modes(self, tmp_path, capsys):
        """``train --fold all`` writes a checkpoint and a history per fold and
        mode; each checkpoint's meta names its fold and mode and repeats the
        history's last held-out macro F1."""
        manifest, _ = tiny_dataset(tmp_path, n_per_class=4)
        config = write_train_inputs(tmp_path, manifest, stratified_kfold(manifest, k=2, seed=3),
                                    training={"epochs": 1, "batch_size": 4, "input_size": 16},
                                    seed=0)
        for mode in INPUT_MODES:
            code = cli.main(["--config", str(config), "--input-mode", mode,
                             "train", "--fold", "all", "--max-steps", "2"])
            assert code == 0, capsys.readouterr().err
        out = tmp_path / "out"
        stems = sorted(f"fold{fold}_{mode}" for fold in (0, 1) for mode in INPUT_MODES)
        assert sorted(p.stem for p in out.glob("*.ckpt")) == stems
        assert sorted(p.name for p in out.glob("*_history.csv")) == [
            f"{stem}_history.csv" for stem in stems]
        for fold in (0, 1):
            for mode in INPUT_MODES:
                meta, _ = nn.read_checkpoint(out / f"fold{fold}_{mode}.ckpt")
                assert (meta["fold"], meta["input_mode"]) == (fold, mode)
                with open(out / f"fold{fold}_{mode}_history.csv", newline="") as fh:
                    last = list(csv.DictReader(fh))[-1]
                assert meta["metrics"]["val_macro_f1"] == float(last["val_macro_f1"])


class TestConfigValidation:
    def test_rejects_zero_epochs(self):
        with pytest.raises(TrainingError, match="epochs"):
            TrainConfig(epochs=0)

    def test_rejects_unknown_mode(self):
        with pytest.raises(TrainingError):
            TrainConfig(input_mode="hyperspectral")

    def test_defaults_match_production_protocol(self):
        cfg = TrainConfig()
        assert (cfg.epochs, cfg.batch_size, LR_MAX, CYCLE_EPOCHS) == (50, 16, 0.05, 10)
        assert cfg.input_size == 256 and cfg.dtype is np.float32
