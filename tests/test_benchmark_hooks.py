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
