"""Unit tests for Module machinery and individual layers."""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn import layers
from repro.nn.tensor import Tensor


def composed_affine(x, weight, bias):
    """Frozen reference: ``Dense.forward`` as the two tape nodes
    ``matmul`` + ``add`` it built before it became one ``F.affine`` node."""
    out = x.matmul(weight)
    if bias is not None:
        out = out + bias
    return out


def composed_dense_forward(self, x):
    return composed_affine(x, self.weight, self.bias)


class TestModuleMachinery:
    def test_parameter_registration(self):
        dense = nn.Dense(4, 3)
        names = [name for name, _ in dense.named_parameters()]
        assert set(names) == {"weight", "bias"}

    def test_nested_registration(self):
        model = nn.Sequential(nn.Dense(4, 3), nn.ReLU(), nn.Dense(3, 2))
        assert len(model.parameters()) == 4
        names = [name for name, _ in model.named_parameters()]
        assert "0.weight" in names and "2.bias" in names

    def test_num_parameters(self):
        dense = nn.Dense(4, 3)
        assert dense.num_parameters() == 4 * 3 + 3

    def test_train_eval_propagates(self):
        model = nn.Sequential(nn.Dense(2, 2), nn.Dropout(0.5))
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_zero_grad_clears(self):
        dense = nn.Dense(2, 2)
        out = dense(Tensor(np.ones((1, 2)))).sum()
        out.backward()
        assert dense.weight.grad is not None
        dense.zero_grad()
        assert dense.weight.grad is None

    def test_state_dict_roundtrip(self):
        a = nn.Sequential(nn.Dense(3, 4), nn.ReLU(), nn.Dense(4, 2))
        b = nn.Sequential(nn.Dense(3, 4), nn.ReLU(), nn.Dense(4, 2))
        b.load_state_dict(a.state_dict())
        x = Tensor(np.random.default_rng(0).standard_normal((2, 3)))
        assert np.allclose(a(x).data, b(x).data)

    def test_load_state_dict_shape_mismatch(self):
        a = nn.Dense(3, 4)
        b = nn.Dense(3, 5)
        with pytest.raises(ValueError):
            b.load_state_dict(a.state_dict())

    def test_load_state_dict_unknown_key(self):
        dense = nn.Dense(2, 2)
        with pytest.raises(KeyError):
            dense.load_state_dict({"nonsense": np.zeros(2)})

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            nn.Module()(Tensor(np.zeros(1)))


class TestSequential:
    def test_applies_in_order(self):
        model = nn.Sequential(nn.Identity(), nn.ReLU())
        out = model(Tensor(np.array([-1.0, 2.0])))
        assert np.allclose(out.data, [0.0, 2.0])

    def test_len_getitem_append(self):
        model = nn.Sequential(nn.Identity())
        assert len(model) == 1
        model.append(nn.ReLU())
        assert len(model) == 2
        assert isinstance(model[1], nn.ReLU)
        assert len(model.parameters()) == 0

    def test_appended_layer_params_registered(self):
        model = nn.Sequential()
        model.append(nn.Dense(2, 2))
        assert len(model.parameters()) == 2


class TestDense:
    def test_output_shape(self):
        dense = nn.Dense(5, 3, rng=np.random.default_rng(0))
        assert dense(Tensor(np.zeros((7, 5)))).shape == (7, 3)

    def test_no_bias(self):
        dense = nn.Dense(5, 3, bias=False)
        assert dense.bias is None
        assert len(dense.parameters()) == 1

    def test_linear_map_matches_numpy(self):
        dense = nn.Dense(3, 2, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((4, 3))
        expected = x @ dense.weight.data + dense.bias.data
        assert np.allclose(dense(Tensor(x)).data, expected)

    def test_deterministic_with_seeded_rng(self):
        a = nn.Dense(4, 4, rng=np.random.default_rng(42))
        b = nn.Dense(4, 4, rng=np.random.default_rng(42))
        assert np.allclose(a.weight.data, b.weight.data)

    @pytest.mark.parametrize("shape", [(4,), (5, 4), (2, 5, 4)])
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("x_grad", [True, False])
    def test_bit_identical_to_composed_graph(self, shape, bias, x_grad):
        rng = np.random.default_rng(7)
        dense = nn.Dense(4, 3, bias=bias, rng=rng)
        if bias:
            dense.bias.data = rng.standard_normal(3)
        x_data = rng.standard_normal(shape)
        upstream = rng.standard_normal(shape[:-1] + (3,))
        results = []
        for forward in (dense.forward, lambda x: composed_dense_forward(dense, x)):
            dense.zero_grad()
            x = Tensor(x_data, requires_grad=x_grad)
            out = forward(x)
            out.backward(upstream)
            results.append((out, x.grad,
                            [p.grad for p in dense.parameters()]))
        (out, x_grad_fused, grads), (ref, x_grad_ref, ref_grads) = results
        assert out.shape == ref.shape
        np.testing.assert_array_equal(out.data, ref.data)
        if x_grad:
            np.testing.assert_array_equal(x_grad_fused, x_grad_ref)
        else:
            assert x_grad_fused is None and x_grad_ref is None
        for grad, ref_grad in zip(grads, ref_grads):
            assert grad.shape == ref_grad.shape
            np.testing.assert_array_equal(grad, ref_grad)

    def test_affine_bit_identical_on_fleet_stacks(self):
        # The (K, B, in) @ (K, in, out) + (K, 1, out) layout of BatchedDense.
        rng = np.random.default_rng(8)
        x_data = rng.standard_normal((3, 5, 4))
        params = [rng.standard_normal((3, 4, 2)), rng.standard_normal((3, 1, 2))]
        upstream = rng.standard_normal((3, 5, 2))
        results = []
        for op in (F.affine, composed_affine):
            x = Tensor(x_data, requires_grad=True)
            weight, bias = (Tensor(p, requires_grad=True) for p in params)
            out = op(x, weight, bias)
            out.backward(upstream)
            results.append([out.data, x.grad, weight.grad, bias.grad])
        for fused, ref in zip(*results):
            assert fused.shape == ref.shape
            np.testing.assert_array_equal(fused, ref)


class TestConvLayers:
    def test_conv2d_shape(self):
        conv = nn.Conv2D(3, 8, 3, padding=1, rng=np.random.default_rng(0))
        assert conv(Tensor(np.zeros((2, 3, 8, 8)))).shape == (2, 8, 8, 8)

    def test_conv_transpose_shape(self):
        deconv = nn.ConvTranspose2D(8, 3, 2, stride=2,
                                    rng=np.random.default_rng(0))
        assert deconv(Tensor(np.zeros((2, 8, 4, 4)))).shape == (2, 3, 8, 8)

    def test_pool_layers(self):
        x = Tensor(np.zeros((1, 2, 8, 8)))
        assert nn.MaxPool2D(2)(x).shape == (1, 2, 4, 4)
        assert nn.AvgPool2D(4)(x).shape == (1, 2, 2, 2)

    def test_upsample_layer(self):
        x = Tensor(np.zeros((1, 2, 4, 4)))
        assert nn.Upsample2D(2)(x).shape == (1, 2, 8, 8)


class TestShapeLayers:
    def test_flatten(self):
        assert nn.Flatten()(Tensor(np.zeros((3, 2, 4)))).shape == (3, 8)

    def test_reshape(self):
        layer = nn.Reshape((2, 2))
        assert layer(Tensor(np.zeros((5, 4)))).shape == (5, 2, 2)


class TestActivationLayers:
    @pytest.mark.parametrize("name,fn", [
        ("relu", lambda x: np.maximum(x, 0)),
        ("sigmoid", lambda x: 1 / (1 + np.exp(-x))),
        ("tanh", np.tanh),
        ("identity", lambda x: x),
    ])
    def test_matches_numpy(self, name, fn):
        layer = nn.make_activation(name)
        x = np.linspace(-2, 2, 7)
        assert np.allclose(layer(Tensor(x)).data, fn(x))

    def test_softmax_layer(self):
        out = nn.Softmax()(Tensor(np.zeros((2, 4))))
        assert np.allclose(out.data, 0.25)

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown activation 'swish9000'") \
                as info:
            nn.make_activation("swish9000")
        # The failed dict lookup is not chained onto the report.
        assert info.value.__suppress_context__

    def test_make_activation_keeps_constructor_key_error(self, monkeypatch):
        class Broken(nn.ReLU):
            def __init__(self):
                raise KeyError("missing setting")

        monkeypatch.setitem(layers._ACTIVATIONS, "broken", Broken)
        with pytest.raises(KeyError, match="missing setting") as info:
            nn.make_activation("broken")
        assert "unknown activation" not in str(info.value)

    def test_leaky_relu_layer(self):
        layer = nn.LeakyReLU(0.2)
        assert np.allclose(layer(Tensor(np.array([-1.0]))).data, [-0.2])


class TestDropoutLayer:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            nn.Dropout(1.5)

    def test_eval_passthrough(self):
        layer = nn.Dropout(0.9, rng=np.random.default_rng(0))
        layer.eval()
        x = Tensor(np.ones((4, 4)))
        assert np.allclose(layer(x).data, 1.0)

    def test_train_mode_zeroes_some(self):
        layer = nn.Dropout(0.5, rng=np.random.default_rng(0))
        out = layer(Tensor(np.ones((32, 32))))
        assert (out.data == 0).sum() > 0


class TestBatchNorm:
    def test_1d_normalises_batch(self):
        bn = nn.BatchNorm1d(3)
        x = np.random.default_rng(0).standard_normal((64, 3)) * 5 + 2
        out = bn(Tensor(x)).data
        assert np.allclose(out.mean(axis=0), 0, atol=1e-6)
        assert np.allclose(out.std(axis=0), 1, atol=1e-2)

    def test_1d_eval_uses_running_stats(self):
        bn = nn.BatchNorm1d(2, momentum=1.0)
        x = np.random.default_rng(0).standard_normal((128, 2)) * 3 + 1
        bn(Tensor(x))
        bn.eval()
        out = bn(Tensor(x)).data
        assert np.allclose(out.mean(axis=0), 0, atol=0.1)

    def test_2d_shapes_and_stats(self):
        bn = nn.BatchNorm2d(4)
        x = np.random.default_rng(0).standard_normal((8, 4, 5, 5)) + 3
        out = bn(Tensor(x)).data
        assert out.shape == x.shape
        assert abs(out.mean()) < 1e-6

    def test_buffers_serialise(self):
        bn = nn.BatchNorm1d(2)
        bn(Tensor(np.random.default_rng(0).standard_normal((16, 2))))
        state = bn.state_dict()
        assert "running_mean" in state
        fresh = nn.BatchNorm1d(2)
        fresh.load_state_dict(state)
        assert np.allclose(fresh._buffers["running_mean"],
                           bn._buffers["running_mean"])
