"""Operator-facing command line wiring all stages into reproducible runs.

Exit codes: 0 on success, 1 on data/processing failure, 2 on usage or
configuration errors. Every mutating subcommand echoes its fully resolved
configuration next to its outputs.
"""
from __future__ import annotations

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import calibration as cal
from . import dataset as ds
from . import gradsuite, nn, training
from .config import (
    ConfigError,
    PipelineConfig,
    default_config,
    render_config,
    resolve_config,
    write_resolved_config,
)
from .imaging import (
    ImageF,
    ImageFormatError,
    load_image,
    read_png,
    resize_bilinear,
    resize_mask,
    save_image,
    write_png,
)
from .model import build_resnet18
from .registration import RegistrationError, register_pair
from .spectral import SpectralError, compute_ndvi, fuse, save_fused
from .training import FusedCacheSource, TrainingError

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


class CommandFailure(RuntimeError):
    """Processing failure that should exit with code 1."""


def _out_dir(cfg: PipelineConfig) -> Path:
    return Path(cfg.paths.output_dir)


def _echo_config(cfg: PipelineConfig, command: str) -> None:
    out = _out_dir(cfg)
    out.mkdir(parents=True, exist_ok=True)
    write_resolved_config(cfg, out / f"config_{command}.json")


def _read_pairs(path) -> ds.Manifest:
    try:
        return ds.read_manifest_csv(path)
    except (OSError, ds.ManifestError) as exc:
        raise CommandFailure(f"cannot read pairs manifest {path}: {exc}") from exc


def _check_pair_files(manifest: ds.Manifest) -> None:
    missing = [p for r in manifest.records for p in (r.rgb_path, r.rgnir_path)
               if not Path(p).is_file()]
    if missing:
        raise CommandFailure("missing input files: " + ", ".join(missing[:8]))


# -- register ---------------------------------------------------------------------


def cmd_register(cfg: PipelineConfig, args) -> int:
    manifest = _read_pairs(args.pairs)
    _check_pair_files(manifest)
    if args.dry_run:
        print(f"register: {len(manifest)} pairs validated (dry run)")
        return EXIT_OK
    _echo_config(cfg, "register")
    reg_dir = _out_dir(cfg) / "registered"
    reg_dir.mkdir(parents=True, exist_ok=True)
    params = cfg.registration_params()

    def work(record: ds.SampleRecord):
        try:
            rgb = load_image(record.rgb_path, "rgb")
            rgnir = load_image(record.rgnir_path, "rgnir")
            result = register_pair(rgb, rgnir, params, pair_id=record.id)
            save_image(result.image, reg_dir / f"{record.id}_rgb.png")
            write_png(reg_dir / f"{record.id}_mask.png",
                      (result.mask * np.uint8(255)).astype(np.uint8))
            return record.id, result.diagnostics.record(), None
        except (RegistrationError, ImageFormatError) as exc:
            stage = getattr(exc, "stage", "io")
            return record.id, f"pair={record.id} FAILED stage={stage}: {exc}", stage

    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(work, manifest.records))
    else:
        rows = [work(r) for r in manifest.records]

    rows.sort(key=lambda t: t[0])
    report = "".join(line + "\n" for _, line, _ in rows)
    (reg_dir / "report.txt").write_text(report)
    failures = [(rid, stage) for rid, _, stage in rows if stage is not None]
    for rid, stage in failures:
        print(f"register: pair {rid} failed at stage {stage}", file=sys.stderr)
    print(f"register: {len(rows) - len(failures)}/{len(rows)} pairs registered "
          f"-> {reg_dir}")
    return EXIT_FAILURE if failures else EXIT_OK


# -- calibrate ---------------------------------------------------------------------


def cmd_calibrate(cfg: PipelineConfig, args) -> int:
    session_path = args.session or cfg.calibration_session
    if not session_path:
        raise ConfigError("calibrate needs --session or calibration_session in the config")
    board_rel, panels, bands = cal.load_session(session_path)
    board_path = Path(board_rel)
    if not board_path.is_absolute():
        board_path = Path(session_path).parent / board_path
    manifest = _read_pairs(args.pairs)
    _check_pair_files(manifest)
    if args.dry_run:
        print(f"calibrate: session {session_path} and {len(manifest)} pairs "
              "validated (dry run)")
        return EXIT_OK

    _echo_config(cfg, "calibrate")
    board = load_image(board_path, bands)
    means = cal.extract_panel_stats(board, panels)
    calib = cal.fit_calibration(means, panels.known_reflectance(), bands)
    cal.save_calibration(calib, _out_dir(cfg) / "calibration.json")

    cal_dir = _out_dir(cfg) / "calibrated"
    cal_dir.mkdir(parents=True, exist_ok=True)
    for record in manifest.records:
        img = load_image(record.rgnir_path, "rgnir")
        out, clamp_rate = cal.apply_calibration(img, calib)
        if clamp_rate > cal.WARN_CLAMP_RATE:
            print(f"calibrate: warning: {record.id} clamped "
                  f"{clamp_rate:.0%} of samples", file=sys.stderr)
        save_image(out, cal_dir / f"{record.id}_rgnir.png")
    print(f"calibrate: fit residual {calib.fit_residual.max():.2e}; "
          f"{len(manifest)} images -> {cal_dir}")
    return EXIT_OK


# -- ndvi / fusion -----------------------------------------------------------------


def _fused_sample(rgb: ImageF, rgnir: ImageF, mask: np.ndarray,
                  size: int) -> np.ndarray:
    """Network-resolution (4, size, size) RGB + NDVI sample; the one path for
    ndvi and predict."""
    rgb_small = resize_bilinear(rgb, size, size)
    rgnir_small = resize_bilinear(rgnir, size, size)
    ndvi = compute_ndvi(rgnir_small.band("R"), rgnir_small.band("NIR"))
    return fuse(rgb_small, ndvi, resize_mask(mask, size, size))


def cmd_ndvi(cfg: PipelineConfig, args) -> int:
    manifest = _read_pairs(args.pairs)
    reg_dir = _out_dir(cfg) / "registered"
    cal_dir = _out_dir(cfg) / "calibrated"
    needed = []
    for r in manifest.records:
        needed += [reg_dir / f"{r.id}_rgb.png", reg_dir / f"{r.id}_mask.png",
                   cal_dir / f"{r.id}_rgnir.png"]
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        raise CommandFailure("run register and calibrate first; missing: "
                             + ", ".join(missing[:6]))
    if args.dry_run:
        print(f"ndvi: inputs for {len(manifest)} pairs validated (dry run)")
        return EXIT_OK

    _echo_config(cfg, "ndvi")
    cache_dir = Path(cfg.paths.cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    size = cfg.training.input_size
    for record in manifest.records:
        rgb = load_image(reg_dir / f"{record.id}_rgb.png", "rgb")
        rgnir = load_image(cal_dir / f"{record.id}_rgnir.png", "rgnir")
        mask = read_png(reg_dir / f"{record.id}_mask.png") > 127
        try:
            sample = _fused_sample(rgb, rgnir, mask, size)
        except (SpectralError, ImageFormatError) as exc:
            raise CommandFailure(f"sample {record.id}: {exc}") from exc
        save_fused(sample, cache_dir / f"{record.id}.pspec")
    print(f"ndvi: {len(manifest)} fused samples -> {cache_dir}")
    return EXIT_OK


# -- dataset -----------------------------------------------------------------------


def cmd_dataset_build(cfg: PipelineConfig, args) -> int:
    root = args.root or cfg.paths.data_root
    manifest = ds.build_manifest(root)
    if args.dry_run:
        print(f"dataset build: {len(manifest)} samples validated (dry run)")
        return EXIT_OK
    _echo_config(cfg, "dataset_build")
    path = _out_dir(cfg) / "manifest.csv"
    ds.write_manifest_csv(manifest, path)
    counts = " ".join(f"{label}={manifest.counts[label]}" for label in ds.LABELS)
    print(f"dataset build: {len(manifest)} samples ({counts}) -> {path}")
    return EXIT_OK


def cmd_dataset_split(cfg: PipelineConfig, args) -> int:
    manifest = _read_pairs(args.manifest or str(_out_dir(cfg) / "manifest.csv"))
    folds = ds.stratified_kfold(manifest, k=args.k, seed=cfg.seed)
    if args.dry_run:
        print(f"dataset split: k={args.k} over {len(manifest)} samples (dry run)")
        return EXIT_OK
    _echo_config(cfg, "dataset_split")
    path = _out_dir(cfg) / "folds.csv"
    ds.write_folds_csv(folds, path)
    print(f"dataset split: k={args.k} seed={cfg.seed} -> {path}")
    return EXIT_OK


# -- train / eval / predict ----------------------------------------------------------


def _load_split(cfg: PipelineConfig, manifest_path, folds_path):
    manifest = _read_pairs(manifest_path or str(_out_dir(cfg) / "manifest.csv"))
    folds_file = folds_path or str(_out_dir(cfg) / "folds.csv")
    try:
        folds = ds.read_folds_csv(folds_file, seed=cfg.seed)
        folds.check_covers(manifest)
    except (OSError, ds.ManifestError) as exc:
        raise CommandFailure(f"cannot read folds {folds_file}: {exc}") from exc
    return manifest, folds


def _checkpoint_name(fold: int, mode: str) -> str:
    return f"fold{fold}_{mode}"


def _fold_arg(value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"--fold must be an integer, got {value!r}") from None


def cmd_train(cfg: PipelineConfig, args) -> int:
    fold = None if args.fold == "all" else _fold_arg(args.fold)
    manifest, folds = _load_split(cfg, args.manifest, args.folds)
    source = FusedCacheSource(cfg.paths.cache_dir)
    train_cfg = cfg.train_config()
    fold_ids = list(range(folds.k)) if fold is None else [fold]
    if args.dry_run:
        print(f"train: folds {fold_ids} mode {train_cfg.input_mode} (dry run)")
        return EXIT_OK
    _echo_config(cfg, "train")
    out = _out_dir(cfg)
    for fold in fold_ids:
        result = training.train_fold(train_cfg, manifest, folds, fold, source,
                                     max_steps=args.max_steps)
        stem = _checkpoint_name(fold, train_cfg.input_mode)
        meta = {
            "arch": {"in_channels": train_cfg.channels, "num_classes": len(ds.LABELS)},
            "seed": cfg.seed,
            "fold": fold,
            "input_mode": train_cfg.input_mode,
            "input_size": train_cfg.input_size,
            "epochs": len(result.history.epochs),
            "metrics": {
                "val_macro_f1": result.val_result.macro_f1,
                "per_class_f1": list(result.val_result.per_class_f1),
            },
        }
        nn.write_checkpoint(out / f"{stem}.ckpt", meta, result.model.state_arrays())
        training.write_history_csv(result.history, out / f"{stem}_history.csv")
        print(f"train: fold {fold} ({train_cfg.input_mode}) "
              f"val macro F1 {result.val_result.macro_f1:.4f} -> {stem}.ckpt")
    return EXIT_OK


def _load_checkpoint_model(path):
    try:
        meta, arrays = nn.read_checkpoint(path)
    except (OSError, nn.CheckpointError) as exc:
        raise CommandFailure(f"cannot read checkpoint {path}: {exc}") from exc
    arch = meta.get("arch") if isinstance(meta, dict) else None
    if not (isinstance(arch, dict) and isinstance(meta.get("input_mode"), str)
            and all(isinstance(v, int) for v in (arch.get("in_channels"),
                                                  arch.get("num_classes"),
                                                  meta.get("input_size")))):
        raise CommandFailure(f"checkpoint {path}: meta needs arch.in_channels, "
                             "arch.num_classes, input_mode and input_size")
    model = build_resnet18(in_channels=arch["in_channels"],
                           num_classes=arch["num_classes"], seed=meta.get("seed", 0))
    model.load_state_arrays(arrays)
    return meta, model


def cmd_eval(cfg: PipelineConfig, args) -> int:
    fold = _fold_arg(args.fold) if args.fold is not None else None
    meta, model = _load_checkpoint_model(args.checkpoint)
    if fold is None:
        fold = meta.get("fold")
        if not isinstance(fold, int):
            raise CommandFailure(f"checkpoint {args.checkpoint} names no fold; "
                                 "pass --fold")
    manifest, folds = _load_split(cfg, args.manifest, args.folds)
    records = [r for r in manifest.records if folds.fold_of[r.id] == fold]
    if not records:
        raise CommandFailure(f"fold {fold} holds no samples")
    source = FusedCacheSource(cfg.paths.cache_dir)
    eval_cfg = cfg.train_config(input_mode=meta["input_mode"],
                                input_size=meta["input_size"])
    arrays = training.load_sample_batch(source, records, eval_cfg)
    labels = np.array([ds.LABELS.index(r.label) for r in records], dtype=np.int64)
    result = training.evaluate_model(model, arrays, labels, eval_cfg.batch_size)

    lines = [f"checkpoint: {args.checkpoint}",
             f"fold: {fold}  mode: {meta['input_mode']}  samples: {len(records)}",
             "confusion (rows true, cols predicted):"]
    for row in result.confusion.counts:
        lines.append("  " + " ".join(f"{v:5d}" for v in row))
    for label, f1 in zip(ds.LABELS, result.per_class_f1):
        lines.append(f"f1_{label}: {f1:.4f}")
    lines.append(f"macro_f1: {result.macro_f1:.4f}")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if not args.dry_run:
        _echo_config(cfg, "eval")
        stem = _checkpoint_name(fold, meta["input_mode"])
        (_out_dir(cfg) / f"eval_{stem}.txt").write_text(text)
    return EXIT_OK


def cmd_predict(cfg: PipelineConfig, args) -> int:
    meta, model = _load_checkpoint_model(args.checkpoint)
    calib_path = args.calibration or str(_out_dir(cfg) / "calibration.json")
    if not Path(calib_path).is_file():
        raise CommandFailure(f"calibration file {calib_path} not found; "
                             "run calibrate or pass --calibration")
    calib = cal.load_calibration(calib_path)
    rgb = load_image(args.rgb, "rgb")
    rgnir_dn = load_image(args.rgnir, "rgnir")

    result = register_pair(rgb, rgnir_dn, cfg.registration_params(), pair_id="predict")
    rgnir_refl, _ = cal.apply_calibration(rgnir_dn, calib)

    sample = _fused_sample(result.image, rgnir_refl, result.mask, meta["input_size"])
    channels = meta["arch"]["in_channels"]
    batch = sample[None, :channels].astype(model.dtype)
    probs = model.predict_proba(nn.Tensor(batch))[0]
    for label, p in zip(ds.LABELS, probs):
        print(f"{label}: {p:.4f}")
    print(f"prediction: {ds.LABELS[int(probs.argmax())]}")
    return EXIT_OK


def cmd_gradcheck(cfg: PipelineConfig, args) -> int:
    results, ok = gradsuite.run_suite(trials=args.trials, seed=cfg.seed,
                                      full_net_trials=args.full_net_trials)
    for name, err in results.items():
        status = "ok" if err < nn.DEFAULT_TOLERANCE else "FAIL"
        print(f"{name:<26} max_rel_err={err:.3e}  {status}")
    print(f"gradcheck: {'all checks passed' if ok else 'VIOLATIONS found'} "
          f"(tolerance {nn.DEFAULT_TOLERANCE:g})")
    return EXIT_OK if ok else EXIT_FAILURE


def cmd_config_print_defaults(_cfg: PipelineConfig, _args) -> int:
    print(render_config(default_config()), end="")
    return EXIT_OK


# -- argument parsing ------------------------------------------------------------------


def _add_common_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    """Global flags, accepted both before and after the subcommand."""
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument("--config", default=default,
                        help="JSON pipeline configuration file")
    parser.add_argument("--seed", type=int, default=default,
                        help="override the pipeline seed")
    parser.add_argument("--jobs", type=int,
                        default=argparse.SUPPRESS if suppress else 1,
                        help="worker cap; 1 guarantees determinism")
    parser.add_argument("--dry-run", action="store_true",
                        default=argparse.SUPPRESS if suppress else False,
                        help="validate inputs, write nothing")
    parser.add_argument("--input-mode", choices=("rgb", "rgb_ndvi"), default=default,
                        help="override training.input_mode")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paddyspec",
        description="Multispectral rice disease diagnosis pipeline")
    _add_common_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("register", help="align RGB images onto their R-G-NIR pairs")
    _add_common_flags(p, suppress=True)
    p.add_argument("--pairs", required=True, help="manifest CSV of image pairs")
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("calibrate", help="fit and apply reflectance calibration")
    _add_common_flags(p, suppress=True)
    p.add_argument("--session", help="session JSON (panels + board image)")
    p.add_argument("--pairs", required=True)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("ndvi", help="fuse registered RGB with the NDVI channel")
    _add_common_flags(p, suppress=True)
    p.add_argument("--pairs", required=True)
    p.set_defaults(func=cmd_ndvi)

    p = sub.add_parser("dataset", help="manifest and fold tooling")
    dsub = p.add_subparsers(dest="dataset_command", required=True)
    b = dsub.add_parser("build", help="scan the data root into manifest.csv")
    _add_common_flags(b, suppress=True)
    b.add_argument("--root", help="dataset root (default: paths.data_root)")
    b.set_defaults(func=cmd_dataset_build)
    s = dsub.add_parser("split", help="stratified k-fold assignment")
    _add_common_flags(s, suppress=True)
    s.add_argument("--manifest", help="manifest CSV (default: out/manifest.csv)")
    s.add_argument("--k", type=int, default=5)
    s.set_defaults(func=cmd_dataset_split)

    p = sub.add_parser("train", help="train on k-1 folds, validate on one")
    _add_common_flags(p, suppress=True)
    p.add_argument("--manifest")
    p.add_argument("--folds")
    p.add_argument("--fold", default="all", help="fold id or 'all'")
    p.add_argument("--max-steps", type=int, default=None,
                   help="optimizer step budget; overrides training.epochs, and the "
                        "last, possibly partial, epoch is still validated and "
                        "written to the history CSV")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on its held-out fold")
    _add_common_flags(p, suppress=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest")
    p.add_argument("--folds")
    p.add_argument("--fold", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="classify one RGB / R-G-NIR pair")
    _add_common_flags(p, suppress=True)
    p.add_argument("--rgb", required=True)
    p.add_argument("--rgnir", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--calibration", help="calibration JSON (default: out/calibration.json)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    _add_common_flags(p, suppress=True)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--full-net-trials", type=int, default=2)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("config", help="configuration helpers")
    csub = p.add_subparsers(dest="config_command", required=True)
    d = csub.add_parser("print-defaults", help="print the default configuration")
    _add_common_flags(d, suppress=True)
    d.set_defaults(func=cmd_config_print_defaults)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args.config, seed=args.seed, input_mode=args.input_mode)
        return args.func(cfg, args)
    except ConfigError as exc:
        print(f"paddyspec: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CommandFailure as exc:
        print(f"paddyspec: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except (RegistrationError, ImageFormatError, cal.CalibrationError,
            SpectralError, TrainingError, ds.ManifestError, nn.ShapeError) as exc:
        print(f"paddyspec: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
