"""The benchmark's tracer wraps functions in the package by name: every name
it patches must exist, and restoring must put every original back."""
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_hooks_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer(timing=False)
    try:
        tracer.install()
        patched = list(tracer._patches)
    finally:
        tracer.restore()
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"


def test_register_pair_spans_nest(monkeypatch):
    """Every layer span of one pair is a child of its register_pair span, lies
    inside it, and overlaps no sibling: per-layer and self times add up."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import numpy as np
    import tracing

    from paddyspec import cli, synthetic
    from paddyspec.registration import RegistrationParams

    rgb, rgnir, _ = synthetic.make_registration_pair(np.random.default_rng(19), out_size=200)
    params = RegistrationParams(target_count=700, ransac_iters=1000, seed=20)
    tracer = tracing.Tracer(timing=True)
    with tracer.installed():
        cli.register_pair(rgb, rgnir, params, pair_id="p")

    names = [span[0] for span in tracer.spans]
    root = names.index("registration.pipeline.register_pair")
    _, start, end, parent, _, _ = tracer.spans[root]
    assert parent is None and names.count(names[root]) == 1
    children = [span for i, span in enumerate(tracer.spans) if i != root]
    assert {name for name, *_ in children} >= {
        "registration.keypoints.detect_keypoints",
        "registration.descriptors.compute_descriptors",
        "registration.matching.match_bruteforce",
        "registration.homography.estimate_homography"}
    assert all(span[3] == root for span in children), [
        (span[0], span[3]) for span in children if span[3] != root]
    intervals = sorted((span[1], span[2]) for span in children)
    assert all(start <= lo <= hi <= end for lo, hi in intervals)
    assert all(prev_hi <= lo for (_, prev_hi), (lo, _) in zip(intervals, intervals[1:]))


def test_adam_step_spans_hold_the_backward(monkeypatch):
    """Each training step is one Adam.step span with the step's backward span
    nested inside it, and Adam counts every parameter byte once per step."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import numpy as np
    import tracing

    from paddyspec import training
    from paddyspec.model import build_resnet18

    cfg = training.TrainConfig(epochs=1, batch_size=2, input_size=16)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, cfg.channels, 16, 16)).astype(np.float32)
    model = build_resnet18(in_channels=cfg.channels, seed=1)
    tracer = tracing.Tracer(timing=True)
    with tracer.installed():
        training.fit(model, cfg, x, rng.integers(0, 3, 4), np.ones(3), max_steps=2)

    steps = [i for i, span in enumerate(tracer.spans) if span[0] == "nn.optim.Adam.step"]
    backwards = [span for span in tracer.spans if span[0] == "nn.tensor.backward"]
    assert len(steps) == 2 and len(backwards) == 2
    for index, (_, start, end, parent, _, _) in zip(steps, backwards):
        assert parent == index
        assert tracer.spans[index][1] <= start <= end <= tracer.spans[index][2]
    counts = {}
    for per_request in tracer.counts.values():
        for name, value in per_request.items():
            counts[name] = counts.get(name, 0) + value
    assert counts["nn.adam.steps"] == 2
    assert counts["nn.adam.bytes_updated"] == 2 * sum(p.data.nbytes
                                                     for p in model.parameters())
