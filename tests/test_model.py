"""Model structure, initialization, gradients, and checkpointing."""
import numpy as np
import pytest

from paddyspec import nn
from paddyspec.model import STAGE_WIDTHS, build_resnet18
from paddyspec.nn import Tensor
from paddyspec.nn.serialize import MAGIC


def tally_parameters(in_channels: int, num_classes: int) -> int:
    """Independent per-layer parameter formulas for the 18-layer layout."""
    def conv(cin, cout, k):
        return cout * cin * k * k

    def bn(c):
        return 2 * c

    total = conv(in_channels, 64, 7) + bn(64)        # stem
    cin = 64
    for si, width in enumerate(STAGE_WIDTHS):
        for bi in range(2):
            stride2 = si > 0 and bi == 0
            total += conv(cin, width, 3) + bn(width)
            total += conv(width, width, 3) + bn(width)
            if stride2 or cin != width:
                total += conv(cin, width, 1) + bn(width)
            cin = width
    total += 512 * num_classes + num_classes         # affine head
    return total


def count_parameters(model) -> int:
    """Learnable scalars only; batchnorm running statistics excluded."""
    return sum(p.data.size for p in model.parameters())


def shape_trace(model, x: Tensor, train: bool = True):
    """([(layer, output shape)], logits), walking the model's layers by hand
    in the order ``forward`` runs them."""
    out = nn.relu(model.stem(x, train))
    trace = [("stem_conv", out.shape)]
    out = nn.maxpool2d(out, kernel=3, stride=2, padding=1)
    trace.append(("maxpool", out.shape))
    for si, blocks in enumerate(model.stages):
        for block in blocks:
            out = block(out, train)
        trace.append((f"stage{si + 1}", out.shape))
    out = nn.global_avgpool(out)
    trace.append(("avgpool", out.shape))
    logits = nn.linear(out, model.head_weight, model.head_bias)
    trace.append(("head", logits.shape))
    return trace, logits


def expected_state_keys() -> list[str]:
    """Checkpoint keys written out by hand: every parameter in layer order,
    the head last, then every batchnorm's running statistics."""
    params = ["stem_conv.weight", "stem_bn.gamma", "stem_bn.beta"]
    stats = ["stem_bn.running_mean", "stem_bn.running_var"]
    for stage in range(1, 5):
        for block in range(2):
            units = [("conv1", "bn1"), ("conv2", "bn2")]
            if stage > 1 and block == 0:
                units.append(("down_conv", "down_bn"))
            for conv, bn in units:
                prefix = f"stage{stage}.{block}"
                params += [f"{prefix}.{conv}.weight", f"{prefix}.{bn}.gamma",
                           f"{prefix}.{bn}.beta"]
                stats += [f"{prefix}.{bn}.running_mean", f"{prefix}.{bn}.running_var"]
    return params + ["head.weight", "head.bias"] + stats


class TestStructure:
    def test_parameter_count_3ch(self):
        model = build_resnet18(in_channels=3, num_classes=3, seed=0)
        assert count_parameters(model) == 11_178_051
        assert count_parameters(model) == tally_parameters(3, 3)

    def test_parameter_count_4ch(self):
        model = build_resnet18(in_channels=4, num_classes=3, seed=0)
        assert count_parameters(model) == 11_181_187
        assert count_parameters(model) == tally_parameters(4, 3)
        # the stem grows by exactly 64 * 1 * 7 * 7
        assert 11_181_187 - 11_178_051 == 64 * 7 * 7

    def test_head_growth_per_class(self):
        c3 = count_parameters(build_resnet18(num_classes=3, seed=0))
        c4 = count_parameters(build_resnet18(num_classes=4, seed=0))
        assert c4 - c3 == 512 + 1

    def test_count_is_structural(self):
        a = build_resnet18(seed=0)
        b = build_resnet18(seed=99)
        assert count_parameters(a) == count_parameters(b)

    def test_same_seed_bit_identical(self):
        a = build_resnet18(in_channels=4, seed=7)
        b = build_resnet18(in_channels=4, seed=7)
        for (na, ta), (nb, tb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            assert ta.data.tobytes() == tb.data.tobytes()

    def test_different_seed_differs(self):
        a = build_resnet18(seed=1)
        b = build_resnet18(seed=2)
        assert a.stem.weight.data.tobytes() != b.stem.weight.data.tobytes()

    def test_bad_channels_rejected(self):
        with pytest.raises(nn.ShapeError):
            build_resnet18(in_channels=5)
        with pytest.raises(nn.ShapeError):
            build_resnet18(num_classes=1)


class TestForward:
    def test_shape_trace_64(self):
        model = build_resnet18(in_channels=4, seed=0)
        x = Tensor(np.random.default_rng(0).standard_normal((2, 4, 64, 64)
                                                            ).astype(np.float32))
        with nn.no_grad():
            trace, walked = shape_trace(model, x)
            logits = model.forward(x, train=True)
        assert logits.shape == (2, 3)
        assert walked.data.tobytes() == logits.data.tobytes()
        expected = [
            ("stem_conv", (2, 64, 32, 32)),
            ("maxpool", (2, 64, 16, 16)),
            ("stage1", (2, 64, 16, 16)),
            ("stage2", (2, 128, 8, 8)),
            ("stage3", (2, 256, 4, 4)),
            ("stage4", (2, 512, 2, 2)),
            ("avgpool", (2, 512)),
            ("head", (2, 3)),
        ]
        assert trace == expected

    def test_shape_trace_128(self):
        model = build_resnet18(in_channels=3, seed=0)
        x = Tensor(np.zeros((1, 3, 128, 128), dtype=np.float32))
        with nn.no_grad():
            trace, _ = shape_trace(model, x)
        spatial = [s[-1] for _, s in trace[:6]]
        assert spatial == [64, 32, 32, 16, 8, 4]

    def test_eval_deterministic(self):
        model = build_resnet18(in_channels=3, seed=3)
        rng = np.random.default_rng(1)
        warm = Tensor(rng.standard_normal((4, 3, 32, 32)).astype(np.float32))
        with nn.no_grad():
            model.forward(warm, train=True)  # initialize running stats
        x = Tensor(rng.standard_normal((2, 3, 32, 32)).astype(np.float32))
        with nn.no_grad():
            a = model.forward(x, train=False).data
            b = model.forward(x, train=False).data
        assert a.tobytes() == b.tobytes()

    def test_softmax_of_logits_normalized(self):
        model = build_resnet18(in_channels=3, seed=4)
        x = Tensor(np.zeros((2, 3, 32, 32), dtype=np.float32))
        with nn.no_grad():
            logits = model.forward(x, train=True)
            probs = nn.softmax(logits).data
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-6

    def test_wrong_channel_count_errors(self):
        model = build_resnet18(in_channels=3, seed=0)
        x = Tensor(np.zeros((1, 4, 32, 32), dtype=np.float32))
        with pytest.raises(nn.ShapeError):
            model.forward(x, train=True)

    def test_residual_identity_when_f_is_zero(self):
        model = build_resnet18(in_channels=3, seed=5, dtype=np.float64)
        block = model.stages[0][1]  # identity shortcut
        block.conv2.bn.gamma.data[...] = 0.0
        block.conv2.bn.beta.data[...] = 0.0
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((2, 64, 8, 8)))
        with nn.no_grad():
            out = block(x, train=True)
            expected = nn.relu(x)
        assert np.allclose(out.data, expected.data, atol=1e-12)

    def test_gradients_reach_every_parameter(self):
        model = build_resnet18(in_channels=4, seed=6, dtype=np.float64)
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((2, 4, 32, 32)))
        labels = np.array([0, 2])
        logits = model.forward(x, train=True)
        loss = nn.weighted_cross_entropy(logits, labels, np.ones(3))
        loss.backward()
        for name, param in model.named_parameters():
            assert param.grad is not None, f"{name} got no gradient"
            assert np.abs(param.grad).max() > 0.0, f"{name} gradient is all zero"

    def test_channels_last_memory_contract(self, monkeypatch):
        """Inside the network every activation and every activation gradient
        is stored (B, H, W, C)-contiguous behind its (B, C, H, W) shape, and
        every parameter's gradient has its parameter's memory layout."""
        def channels_last(a):
            return a.transpose(0, 2, 3, 1).flags.c_contiguous

        def layout(a):                  # strides of size-1 axes carry no layout
            return [s for s, n in zip(a.strides, a.shape) if n > 1]

        seen = {"conv_in": [], "bn_in": [], "conv_grad": []}
        conv2d, batchnorm2d = nn.conv2d, nn.batchnorm2d

        def traced_conv(x, *args):
            seen["conv_in"].append(x.data)
            out = conv2d(x, *args)
            backward = out._backward_fn

            def traced_backward(grad):
                seen["conv_grad"].append(grad)
                backward(grad)
            out._backward_fn = traced_backward
            return out

        def traced_bn(x, *args):
            seen["bn_in"].append(x.data)
            return batchnorm2d(x, *args)

        monkeypatch.setattr(nn, "conv2d", traced_conv)
        monkeypatch.setattr(nn, "batchnorm2d", traced_bn)
        model = build_resnet18(in_channels=4, seed=2)
        x = np.random.default_rng(5).standard_normal((2, 4, 32, 32)).astype(np.float32)
        logits = model.forward(Tensor(x), train=True)
        nn.weighted_cross_entropy(logits, np.array([0, 2]), np.ones(3)).backward()

        assert [len(v) for v in seen.values()] == [20, 20, 20]
        assert not channels_last(seen["conv_in"][0])     # the stem reads the NCHW batch
        assert all(channels_last(a) for a in seen["conv_in"][1:])
        assert all(channels_last(a) for a in seen["bn_in"] + seen["conv_grad"])
        for name, param in model.named_parameters():
            assert layout(param.grad) == layout(param.data), name

    def test_train_step_gradients_own_their_memory(self):
        """A plain backward leaves every parameter a gradient (Adam.step
        drops them as it goes; gradcheck reads them), and adopted op results
        give each its own buffer, laid out like the parameter."""
        def layout(a):
            return [s for s, n in zip(a.strides, a.shape) if n > 1]

        model = build_resnet18(in_channels=4, seed=3)
        x = np.random.default_rng(6).standard_normal((2, 4, 32, 32)).astype(np.float32)
        logits = model.forward(Tensor(x), train=True)
        nn.weighted_cross_entropy(logits, np.array([1, 2]), np.ones(3)).backward()

        named = model.named_parameters()
        for i, (name, param) in enumerate(named):
            assert param.grad.dtype == param.data.dtype, name
            assert layout(param.grad) == layout(param.data), name
            for other, q in named[i + 1:]:
                assert not np.shares_memory(param.grad, q.grad), (name, other)


class TestCheckpoint:
    @pytest.mark.parametrize("in_channels", [3, 4])
    def test_state_keys_and_order(self, in_channels):
        model = build_resnet18(in_channels=in_channels, seed=0)
        keys = list(model.state_arrays())
        assert len(keys) == 102
        assert keys == expected_state_keys()
        assert [name for name, _ in model.named_parameters()] == keys[:62]
        assert all(k.endswith((".running_mean", ".running_var")) for k in keys[62:])

    def test_state_round_trip(self, tmp_path):
        model = build_resnet18(in_channels=4, seed=8)
        rng = np.random.default_rng(4)
        warm = Tensor(rng.standard_normal((4, 4, 32, 32)).astype(np.float32))
        with nn.no_grad():
            model.forward(warm, train=True)
        path = tmp_path / "model.ckpt"
        meta = {"arch": {"in_channels": 4, "num_classes": 3}, "seed": 8, "epoch": 0}
        nn.write_checkpoint(path, meta, model.state_arrays())
        meta_back, arrays = nn.read_checkpoint(path)
        assert meta_back == meta

        clone = build_resnet18(in_channels=4, seed=999)
        clone.load_state_arrays(arrays)
        x = Tensor(rng.standard_normal((2, 4, 32, 32)).astype(np.float32))
        with nn.no_grad():
            a = model.forward(x, train=False).data
            b = clone.forward(x, train=False).data
        assert a.tobytes() == b.tobytes()

    @staticmethod
    def framed(header: bytes, blob: bytes = b"") -> bytes:
        return str(len(header)).encode() + b"\n" + header + b"\n" + blob

    @pytest.mark.parametrize("body", [
        b"xx\n",                                            # non-integer length
        b"5",                                               # no length line
        framed(b"{bad}"),                                   # bad JSON
        framed(b'{"meta": {}}'),                            # no tensors/blob_bytes
        framed(b"[]"),                                      # header is not an object
        framed(b'{"blob_bytes": 4, "meta": {}, "tensors": [{"n": 1}]}',
               b"\0\0\0\0"),                                # bad tensor entry
    ])
    def test_malformed_header_is_checkpoint_error(self, tmp_path, body):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(MAGIC + body)
        with pytest.raises(nn.CheckpointError):
            nn.read_checkpoint(path)

    def test_non_float32_dtype_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        nn.write_checkpoint(path, {}, {"a": np.ones(2), "b": np.ones(3)})
        raw = path.read_bytes()
        first = raw.index(b'"float32"')
        path.write_bytes(raw[:first] + b'"float64"' + raw[first + len(b'"float32"'):])
        with pytest.raises(nn.CheckpointError, match=r"m\.ckpt: tensor 'a' has dtype 'float64'"):
            nn.read_checkpoint(path)

    def test_repeated_tensor_name_rejected(self, tmp_path):
        # a later entry once replaced an earlier one of the same name
        path = tmp_path / "m.ckpt"
        nn.write_checkpoint(path, {}, {"a": np.ones(2), "b": np.zeros(2)})
        path.write_bytes(path.read_bytes().replace(b'"name": "b"', b'"name": "a"'))
        with pytest.raises(nn.CheckpointError, match=r"m\.ckpt: tensor 'a' appears twice"):
            nn.read_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, tmp_path, value):
        state = build_resnet18(seed=9).state_arrays()
        state["stem_conv.weight"].flat[5] = value
        nn.write_checkpoint(tmp_path / "m.ckpt", {}, state)
        with pytest.raises(nn.CheckpointError,
                           match=r"m\.ckpt: tensor 'stem_conv.weight' holds NaN or Inf"):
            nn.read_checkpoint(tmp_path / "m.ckpt")

    @pytest.mark.parametrize("name", ["stem_bn.running_mean", "stem_bn.running_var",
                                      "stage4.0.down_bn.running_var"])
    def test_wrong_statistic_shape_rejected(self, name):
        state = build_resnet18(seed=9).state_arrays()
        state[name] = np.ones(1, dtype=np.float32)
        with pytest.raises(nn.ShapeError, match=name):
            build_resnet18(seed=9).load_state_arrays(state)

    def test_rejected_load_changes_nothing(self):
        # the bad tensor is the last one checked, after every parameter
        state = build_resnet18(seed=2).state_arrays()
        state["stage4.1.bn2.running_var"] = np.ones(3, dtype=np.float32)
        model = build_resnet18(seed=1)
        before = {name: arr.tobytes() for name, arr in model.state_arrays().items()}
        with pytest.raises(nn.ShapeError, match="stage4.1.bn2.running_var"):
            model.load_state_arrays(state)
        assert {name: arr.tobytes() for name, arr in model.state_arrays().items()} == before

    def test_missing_tensor_rejected(self, tmp_path):
        model = build_resnet18(seed=9)
        state = model.state_arrays()
        state.pop("head.bias")
        with pytest.raises(nn.ShapeError, match="missing"):
            build_resnet18(seed=9).load_state_arrays(state)
