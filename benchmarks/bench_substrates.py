"""Microbenchmarks for the substrates (repeated-timing mode).

These measure the hot paths the figure experiments sit on: autograd
training rounds (including one OrcoDCS round on the fleet_live shape),
conv forward/backward, the optimiser step, sparse
solvers, WSN aggregation simulation and dataset generation.
"""

import numpy as np
import pytest

from repro import nn
from repro.core import OrcoDCSConfig, OrcoDCSFramework
from repro.cs import gaussian_matrix, omp
from repro.datasets import generate_digits, render_sign
from repro.nn import functional as F
from repro.nn.tensor import Tensor, where
from repro.wsn import (
    WSNetwork,
    build_aggregation_tree,
    select_aggregator,
    simulate_raw_aggregation,
)


def composed_dense_forward(self, x):
    """Frozen reference: ``Dense`` as the ``matmul`` + ``add`` graph it
    built before it became one ``F.affine`` tape node."""
    out = x.matmul(self.weight)
    if self.bias is not None:
        out = out + self.bias
    return out


def composed_huber_forward(self, prediction, target):
    """Frozen reference: ``HuberLoss`` as the 9-node composed graph it
    built before it became one fused tape node."""
    diff = prediction - target
    abs_diff = diff.abs()
    quadratic = diff * diff * 0.5
    linear = abs_diff * self.delta - 0.5 * self.delta ** 2
    return where(abs_diff.data <= self.delta, quadratic, linear).mean()


class TestNNSubstrate:
    def test_dense_training_round(self, benchmark):
        rng = np.random.default_rng(0)
        model = nn.Sequential(nn.Dense(784, 128, rng=rng), nn.Sigmoid(),
                              nn.Dense(128, 784, rng=rng), nn.Sigmoid())
        optimizer = nn.Adam(model.parameters(), lr=1e-3)
        loss = nn.HuberLoss(1.0)
        batch = rng.random((32, 784))

        def round_step():
            out = model(Tensor(batch))
            value = loss(out, batch)
            optimizer.zero_grad()
            value.backward()
            optimizer.step()
            return value.item()

        result = benchmark(round_step)
        assert result > 0

    def test_orchestrated_round(self, benchmark, monkeypatch):
        # One fleet_live-shaped round: 40-device OrcoDCS, latent 6,
        # batch 8, Huber loss, Adam on both sides.
        config = OrcoDCSConfig(input_dim=40, latent_dim=6, noise_sigma=0.05,
                               batch_size=8, seed=0)
        batch = np.random.default_rng(0).random((8, 40))
        framework = OrcoDCSFramework(config)
        losses = []
        benchmark(lambda: losses.append(framework.step(batch).train_loss))
        monkeypatch.setattr(nn.Dense, "forward", composed_dense_forward)
        monkeypatch.setattr(nn.HuberLoss, "forward", composed_huber_forward)
        reference = OrcoDCSFramework(config)
        assert [reference.step(batch).train_loss for _ in losses] == losses
        state = framework.model.state_dict()
        for name, expected in reference.model.state_dict().items():
            np.testing.assert_array_equal(state[name], expected)

    def test_conv2d_forward_backward(self, benchmark):
        rng = np.random.default_rng(0)
        x = Tensor(rng.random((16, 8, 28, 28)), requires_grad=True)
        w = Tensor(rng.standard_normal((16, 8, 3, 3)) * 0.1,
                   requires_grad=True)

        def step():
            out = F.conv2d(x, w, padding=1)
            out.sum().backward()
            x.zero_grad()
            w.zero_grad()
            return out.shape

        assert benchmark(step) == (16, 16, 28, 28)

    def test_maxpool_forward_backward(self, benchmark):
        rng = np.random.default_rng(0)
        x = Tensor(rng.random((32, 16, 28, 28)), requires_grad=True)

        def step():
            out = F.max_pool2d(x, 2)
            out.sum().backward()
            x.zero_grad()
            return out.shape

        assert benchmark(step) == (32, 16, 14, 14)


# Dense layer shapes (weight, bias, ...) of the models whose Adam steps
# dominate: DCSNet on the signs task (3072 -> 1024 encoder, 1024 -> 2048
# decoder seed layer) and the 40-device, latent-6 fleet autoencoder.
ADAM_SHAPES = {
    "dcsnet_signs": [(3072, 1024), (1024,), (1024, 2048), (2048,)],
    "fleet_40x6": [(40, 6), (6,), (6, 40), (40,)],
}


def reference_adam_step(datas, ms, vs, grads, t, lr=1e-3, beta1=0.9,
                        beta2=0.999, eps=1e-8):
    """The allocating Adam expressions the in-place step must match."""
    bias1 = 1.0 - beta1 ** t
    bias2 = 1.0 - beta2 ** t
    for i, (m, v, grad) in enumerate(zip(ms, vs, grads)):
        m *= beta1
        m += (1.0 - beta1) * grad
        v *= beta2
        v += (1.0 - beta2) * grad * grad
        datas[i] = datas[i] - lr * (m / bias1) / (np.sqrt(v / bias2) + eps)


class TestOptimizerLayer:
    @pytest.mark.parametrize("model", sorted(ADAM_SHAPES))
    def test_adam_step(self, benchmark, model):
        rng = np.random.default_rng(0)
        params = [nn.Parameter(rng.standard_normal(shape))
                  for shape in ADAM_SHAPES[model]]
        datas = [p.data.copy() for p in params]
        for p in params:
            p.grad = rng.standard_normal(p.shape)
        optimizer = nn.Adam(params, lr=1e-3)
        steps = 0

        def step():
            nonlocal steps
            steps += 1
            optimizer.step()

        benchmark(step)
        ms = [np.zeros_like(d) for d in datas]
        vs = [np.zeros_like(d) for d in datas]
        grads = [p.grad for p in params]
        for t in range(1, steps + 1):
            reference_adam_step(datas, ms, vs, grads, t)
        for p, expected in zip(params, datas):
            np.testing.assert_array_equal(p.data, expected)


class TestCSSubstrate:
    def test_omp_solve(self, benchmark):
        rng = np.random.default_rng(0)
        A = gaussian_matrix(64, 256, rng)
        x = np.zeros(256)
        x[rng.choice(256, 8, replace=False)] = rng.standard_normal(8)
        y = A @ x

        result = benchmark(omp, A, y, 8)
        assert result.residual_norm < 1e-6


class TestWSNSubstrate:
    def test_tree_build_and_raw_round(self, benchmark):
        rng = np.random.default_rng(0)
        positions = rng.uniform(0, 150, (256, 2))

        def simulate():
            network = WSNetwork(positions, comm_range_m=30.0,
                                battery_capacity_j=1e6)
            network.set_aggregator(select_aggregator(positions))
            tree = build_aggregation_tree(network)
            return simulate_raw_aggregation(network, tree)

        report = benchmark(simulate)
        assert report.values_transmitted >= 255


class TestDatasetSubstrate:
    def test_digit_generation(self, benchmark):
        def generate():
            images, labels = generate_digits(64, np.random.default_rng(0))
            return images.shape

        assert benchmark(generate) == (64, 28, 28)

    def test_sign_rendering(self, benchmark):
        rng = np.random.default_rng(0)
        shape = benchmark(lambda: render_sign(7, rng).shape)
        assert shape == (32, 32, 3)
