"""Counting and span recording around the program's layer boundaries.

Every wrapper is installed from here, at the name its caller resolves
(``paddyspec.registration.pipeline.estimate_homography``, ``paddyspec.nn.conv2d``,
...), and removed again by :meth:`Tracer.restore`. With ``timing=False``
the wrappers only count work (the exact-count self-check runs in every
run); with ``timing=True`` they also record spans: name, start, end,
parent span and request id, kept in memory until :meth:`write_spans`.
"""
from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import defaultdict

NN_OPS = ("conv2d", "batchnorm2d", "relu", "maxpool2d", "add", "global_avgpool",
          "linear", "weighted_cross_entropy", "softmax")
CONV_KEYS = ("stem", "stage1", "stage2", "stage3", "stage4")
CLI_COMMANDS = ("dataset_build", "register", "calibrate", "ndvi")


def conv_key(weight_shape) -> str:
    """ResNet18 position of a convolution, read from its kernel shape."""
    out_ch, _, kh, _ = weight_shape
    if kh == 7:
        return "stem"
    return f"stage{1 + (out_ch // 64).bit_length() - 1}"


def conv_forward_flops(x_shape, w_shape, stride: int, padding: int) -> int:
    """Multiply-adds of one conv2d forward pass, counted as 2 FLOPs each."""
    b, c, h, w = x_shape
    o, _, kh, kw = w_shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    return 2 * b * o * ho * wo * c * kh * kw


class Tracer:
    """Per-request work counts, plus spans when ``timing`` is on."""

    def __init__(self, timing: bool):
        self.timing = timing
        self.request = None
        self.counts: dict = defaultdict(lambda: defaultdict(int))
        self.spans: list[list] = []      # [name, start, end, parent, request, key]
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.train_steps = 0

    # -- recording ------------------------------------------------------------------

    def add(self, name: str, value) -> None:
        self.counts[self.request][name] += value

    def _begin(self, name: str, key=None) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.request, key])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str, key=None):
        if not self.timing:
            yield
            return
        index = self._begin(name, key)
        try:
            yield
        finally:
            self._end(index)

    def timed(self, fn, name: str, key=None):
        """fn wrapped in a span when timing is on, else fn itself."""
        if not self.timing:
            return fn

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._begin(name, key)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(index)
        return wrapper

    # -- installing wrappers ------------------------------------------------------

    def patch(self, owner, attr: str, name: str | None, count=None, key=None,
              before=None) -> None:
        """Replace owner.attr by a wrapper that records a span and counts.

        ``count(tracer, args, kwargs, result)`` records work counts;
        ``key(args, kwargs)`` tags the span (e.g. conv stage, caller);
        ``before(tracer, args, kwargs)`` runs ahead of the call in both modes.
        A ``name`` of None counts without recording spans.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            if tracer.timing and name is not None:
                index = tracer._begin(name, key(args, kwargs) if key else None)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._end(index)
            else:
                result = original(*args, **kwargs)
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        """Wrappers in place for the duration of the block."""
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def install(self) -> None:
        _install_png(self)
        _install_transform(self)
        _install_registration(self)
        _install_calibration_spectral(self)
        _install_nn(self)
        _install_model_training(self)

    # -- output -------------------------------------------------------------------

    def write_spans(self, path) -> None:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w") as fh:
            for i, (name, start, end, parent, request, key) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "request": request,
                                     "key": key}) + "\n")

    def span_totals(self) -> tuple[dict, dict]:
        """Total and self seconds per (name, key); self excludes child spans."""
        total: dict = defaultdict(float)
        child: dict = defaultdict(float)
        for name, start, end, parent, _, key in self.spans:
            total[(name, key)] += end - start
            if parent is not None:
                child[parent] += end - start
        self_time: dict = defaultdict(float)
        for i, (name, start, end, _, _, key) in enumerate(self.spans):
            self_time[(name, key)] += (end - start) - child.get(i, 0.0)
        return total, self_time


# -- layer wrappers -------------------------------------------------------------------


def _install_png(t: Tracer) -> None:
    from paddyspec import cli
    from paddyspec.imaging import image

    def read_count(tr, args, kwargs, result):
        tr.add("png.read.calls", 1)
        tr.add("png.read.bytes", int(result.nbytes))

    def write_count(tr, args, kwargs, result):
        tr.add("png.write.calls", 1)
        tr.add("png.write.bytes", int(args[1].nbytes))

    for owner in (image, cli):
        t.patch(owner, "read_png", "imaging.png_io.read_png", read_count)
        t.patch(owner, "write_png", "imaging.png_io.write_png", write_count)


def _install_transform(t: Tracer) -> None:
    from paddyspec import cli
    from paddyspec.registration import keypoints, pipeline

    t.patch(pipeline, "warp_perspective", "imaging.transform.warp_perspective",
            key=lambda a, k: "pipeline")
    t.patch(keypoints, "resize_bilinear", "imaging.transform.resize_bilinear",
            key=lambda a, k: "pyramid")
    t.patch(cli, "resize_bilinear", "imaging.transform.resize_bilinear",
            key=lambda a, k: "cli")


def _install_registration(t: Tracer) -> None:
    from paddyspec import cli
    from paddyspec.registration import homography, pipeline

    def kp_count(tr, args, kwargs, result):
        tr.add("registration.keypoints", len(result))

    def desc_count(tr, args, kwargs, result):
        tr.add("registration.described", len(result[1]))

    def match_count(tr, args, kwargs, result):
        tr.add("registration.comparisons", len(args[0]) * len(args[1]))
        tr.add("registration.matches", len(result))

    def ransac_count(tr, args, kwargs, result):
        tr.add("registration.matches_in", len(args[0]))
        tr.add("registration.inliers", len(result.inliers))

    def transfer_count(tr, args, kwargs, result):
        tr.add("registration.transfer_evals", len(args[1]))

    def pair_count(tr, args, kwargs, result):
        tr.add("registration.pairs", 1)

    t.patch(pipeline, "detect_keypoints", "registration.keypoints.detect_keypoints",
            kp_count)
    t.patch(pipeline, "compute_descriptors",
            "registration.descriptors.compute_descriptors", desc_count)
    t.patch(pipeline, "match_bruteforce", "registration.matching.match_bruteforce",
            match_count)
    t.patch(pipeline, "filter_matches", "registration.matching.filter_matches")
    t.patch(pipeline, "estimate_homography",
            "registration.homography.estimate_homography", ransac_count)
    # counted only: a span per RANSAC iteration would cost more than it measures
    t.patch(homography, "symmetric_transfer_error", None, transfer_count)
    t.patch(cli, "register_pair", "registration.pipeline.register_pair", pair_count)


def _install_calibration_spectral(t: Tracer) -> None:
    from paddyspec import calibration, cli, training

    def clamp_count(tr, args, kwargs, result):
        tr.add("calibration.apply.calls", 1)
        tr.add("calibration.apply.clamped", int(round(result[1] * args[0].data.size)))
        tr.add("calibration.apply.samples", int(args[0].data.size))

    t.patch(calibration, "extract_panel_stats", "calibration.extract_panel_stats")
    t.patch(calibration, "fit_calibration", "calibration.fit_calibration")
    t.patch(calibration, "apply_calibration", "calibration.apply_calibration",
            clamp_count)
    t.patch(cli, "compute_ndvi", "spectral.compute_ndvi")
    t.patch(cli, "fuse", "spectral.fuse")
    t.patch(cli, "save_fused", "spectral.save_fused")
    t.patch(training, "load_fused", "spectral.load_fused")


def _install_nn(t: Tracer) -> None:
    import paddyspec.nn as nn
    from paddyspec.nn import optim

    def op_count(op):
        def count(tr, args, kwargs, result):
            tr.add(f"nn.{op}.calls", 1)
            if op == "conv2d":
                stride = args[3] if len(args) > 3 else kwargs.get("stride", 1)
                padding = args[4] if len(args) > 4 else kwargs.get("padding", 0)
                tr.add("nn.conv2d.flops",
                       conv_forward_flops(args[0].shape, args[1].shape, stride, padding))
            if tr.timing and result._backward_fn is not None:
                key = conv_key(args[1].shape) if op == "conv2d" else None
                result._backward_fn = tr.timed(result._backward_fn,
                                               f"nn.ops.{op}.bwd", key)
        return count

    for op in NN_OPS:
        key = (lambda a, k: conv_key(a[1].shape)) if op == "conv2d" else None
        t.patch(nn, op, f"nn.ops.{op}.fwd", op_count(op), key)

    def adam_count(tr, args, kwargs, result):
        tr.add("nn.adam.steps", 1)
        tr.add("nn.adam.bytes_updated", sum(p.data.nbytes for p in args[0].params))

    t.patch(optim.Adam, "step", "nn.optim.Adam.step", adam_count)
    t.patch(optim.Adam, "zero_grad", "nn.optim.Adam.zero_grad")
    t.patch(nn.Tensor, "backward", "nn.tensor.backward")

    def read_ckpt_count(tr, args, kwargs, result):
        tr.add("nn.checkpoint.read_bytes", os.path.getsize(args[0]))

    def write_ckpt_count(tr, args, kwargs, result):
        tr.add("nn.checkpoint.write_bytes", os.path.getsize(args[0]))

    t.patch(nn, "read_checkpoint", "nn.serialize.read_checkpoint", read_ckpt_count)
    t.patch(nn, "write_checkpoint", "nn.serialize.write_checkpoint", write_ckpt_count)


def _install_model_training(t: Tracer) -> None:
    from paddyspec import model, training

    def is_train(args, kwargs) -> bool:
        return kwargs["train"] if "train" in kwargs else args[2]

    def new_step(tr, args, kwargs):
        # fit() is opaque, so each training forward opens a new request
        if is_train(args, kwargs):
            tr.request = f"step{tr.train_steps}"
            tr.train_steps += 1

    t.patch(model.ResNet18, "forward", "model.ResNet18.forward",
            key=lambda a, k: "train" if is_train(a, k) else "eval", before=new_step)
    t.patch(training, "fit", "training.fit")
    t.patch(training, "evaluate_model", "training.evaluate_model")
    t.patch(training, "load_sample_batch", "training.load_sample_batch")



# -- per-layer metrics -----------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer, overhead: tuple[float, float] | None) -> dict:
    """Per-layer metrics of a timed run: name -> (value, unit).

    Names are ``<module>.<function>.<quantity>``; a layer the workload never
    calls reads 0. ``overhead`` is (traced s, untraced s) of one unit.
    """
    total, self_time = t.span_totals()
    counts: dict = defaultdict(int)
    for per_request in t.counts.values():
        for name, value in per_request.items():
            counts[name] += value

    def secs(name, key=None, table=total) -> float:
        return sum(v for (n, k), v in table.items() if n == name and key in (None, k))

    m: dict = {}
    read_s, read_b = secs("imaging.png_io.read_png"), counts["png.read.bytes"]
    m["imaging.png_io.read_png.calls"] = (counts["png.read.calls"], "count")
    m["imaging.png_io.read_png.bytes"] = (read_b, "B")
    m["imaging.png_io.read_png.s"] = (read_s, "s")
    m["imaging.png_io.read_png.us_per_byte"] = (_ratio(1e6 * read_s, read_b), "us/B")
    m["imaging.png_io.write_png.calls"] = (counts["png.write.calls"], "count")
    m["imaging.png_io.write_png.bytes"] = (counts["png.write.bytes"], "B")
    m["imaging.png_io.write_png.s"] = (secs("imaging.png_io.write_png"), "s")

    m["imaging.transform.warp_perspective.s"] = (
        secs("imaging.transform.warp_perspective"), "s")
    m["imaging.transform.resize_bilinear.s"] = (
        secs("imaging.transform.resize_bilinear"), "s")
    for caller in ("pyramid", "cli"):
        m[f"imaging.transform.resize_bilinear.{caller}_s"] = (
            secs("imaging.transform.resize_bilinear", caller), "s")

    m["registration.keypoints.detect_keypoints.s"] = (
        secs("registration.keypoints.detect_keypoints"), "s")
    m["registration.keypoints.detect_keypoints.keypoints"] = (
        counts["registration.keypoints"], "count")
    m["registration.descriptors.compute_descriptors.s"] = (
        secs("registration.descriptors.compute_descriptors"), "s")
    m["registration.descriptors.compute_descriptors.described"] = (
        counts["registration.described"], "count")
    m["registration.matching.match_bruteforce.s"] = (
        secs("registration.matching.match_bruteforce"), "s")
    m["registration.matching.match_bruteforce.comparisons"] = (
        counts["registration.comparisons"], "count")
    m["registration.matching.filter_matches.s"] = (
        secs("registration.matching.filter_matches"), "s")
    m["registration.homography.estimate_homography.s"] = (
        secs("registration.homography.estimate_homography"), "s")
    m["registration.homography.estimate_homography.matches_in"] = (
        counts["registration.matches_in"], "count")
    m["registration.homography.estimate_homography.inliers"] = (
        counts["registration.inliers"], "count")
    m["registration.homography.estimate_homography.transfer_evals"] = (
        counts["registration.transfer_evals"], "count")
    m["registration.homography.estimate_homography.inlier_ratio"] = (
        _ratio(counts["registration.inliers"], counts["registration.matches_in"]), "ratio")
    m["registration.pipeline.register_pair.s"] = (
        secs("registration.pipeline.register_pair"), "s")
    m["registration.pipeline.register_pair.self_s"] = (
        secs("registration.pipeline.register_pair", table=self_time), "s")
    m["registration.pipeline.register_pair.misregistered"] = (
        counts["registration.misregistered"], "count")
    m["registration.pipeline.register_pair.misregistered_share"] = (
        _ratio(counts["registration.misregistered"], counts["registration.pairs_checked"]),
        "ratio")

    for fn in ("extract_panel_stats", "fit_calibration", "apply_calibration"):
        m[f"calibration.{fn}.s"] = (secs(f"calibration.{fn}"), "s")
    m["calibration.apply_calibration.clamp_rate"] = (
        _ratio(counts["calibration.apply.clamped"], counts["calibration.apply.samples"]),
        "ratio")
    for fn in ("compute_ndvi", "fuse", "save_fused", "load_fused"):
        m[f"spectral.{fn}.s"] = (secs(f"spectral.{fn}"), "s")

    for op in NN_OPS:
        m[f"nn.ops.{op}.fwd_s"] = (secs(f"nn.ops.{op}.fwd"), "s")
        m[f"nn.ops.{op}.bwd_s"] = (secs(f"nn.ops.{op}.bwd"), "s")
        m[f"nn.ops.{op}.calls"] = (counts[f"nn.{op}.calls"], "count")
    conv_fwd = secs("nn.ops.conv2d.fwd")
    m["nn.ops.conv2d.computed_flops"] = (counts["nn.conv2d.flops"], "FLOP")
    m["nn.ops.conv2d.computed_gflops_per_s"] = (
        _ratio(counts["nn.conv2d.flops"], 1e9 * conv_fwd), "GFLOP/s")
    for key in CONV_KEYS:
        m[f"nn.ops.conv2d.{key}.fwd_s"] = (secs("nn.ops.conv2d.fwd", key), "s")
        m[f"nn.ops.conv2d.{key}.bwd_s"] = (secs("nn.ops.conv2d.bwd", key), "s")
    m["nn.tensor.backward.s"] = (secs("nn.tensor.backward"), "s")
    m["nn.tensor.backward.self_s"] = (secs("nn.tensor.backward", table=self_time), "s")
    m["nn.optim.Adam.step.s"] = (secs("nn.optim.Adam.step"), "s")
    m["nn.optim.Adam.step.bytes_updated"] = (counts["nn.adam.bytes_updated"], "B")
    m["nn.optim.Adam.zero_grad.s"] = (secs("nn.optim.Adam.zero_grad"), "s")
    m["nn.serialize.read_checkpoint.s"] = (secs("nn.serialize.read_checkpoint"), "s")
    m["nn.serialize.read_checkpoint.bytes"] = (counts["nn.checkpoint.read_bytes"], "B")
    m["nn.serialize.write_checkpoint.s"] = (secs("nn.serialize.write_checkpoint"), "s")
    m["nn.serialize.write_checkpoint.bytes"] = (counts["nn.checkpoint.write_bytes"], "B")

    m["model.ResNet18.forward.train_s"] = (secs("model.ResNet18.forward", "train"), "s")
    m["model.ResNet18.forward.eval_s"] = (secs("model.ResNet18.forward", "eval"), "s")
    for fn in ("fit", "evaluate_model", "load_sample_batch"):
        m[f"training.{fn}.s"] = (secs(f"training.{fn}"), "s")
    for command in CLI_COMMANDS:
        m[f"cli.{command}.s"] = (secs(f"cli.{command}"), "s")

    traced, untraced = overhead if overhead else (0.0, 0.0)
    m["trace.overhead_s"] = (traced - untraced, "s")
    m["trace.overhead_share"] = (_ratio(traced - untraced, untraced), "ratio")
    return m
