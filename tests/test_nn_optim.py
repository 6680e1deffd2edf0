"""Unit tests for optimisers and LR schedules."""

import numpy as np
import pytest

from repro import nn
from repro.nn import optim
from repro.nn.optim import CHUNK


def quadratic_param(start=5.0):
    return nn.Parameter(np.array([start]))


def quadratic_step(param, optimizer):
    loss = (param * param).sum()
    optimizer.zero_grad()
    loss.backward()
    optimizer.step()
    return float(loss.data)


class TestSGD:
    def test_vanilla_step_math(self):
        p = quadratic_param(1.0)
        opt = nn.SGD([p], lr=0.1)
        quadratic_step(p, opt)          # grad = 2 -> p = 1 - 0.2
        assert np.allclose(p.data, [0.8])

    def test_momentum_accumulates(self):
        p = quadratic_param(1.0)
        opt = nn.SGD([p], lr=0.1, momentum=0.9)
        quadratic_step(p, opt)
        first = p.data.copy()
        quadratic_step(p, opt)
        # Second update is bigger than plain SGD would give from first.
        assert abs(1.0 - first[0]) < abs(first[0] - p.data[0]) / 0.9 + 1e-9

    def test_weight_decay_shrinks(self):
        p = nn.Parameter(np.array([1.0]))
        opt = nn.SGD([p], lr=0.1, weight_decay=0.5)
        # Zero-loss gradient: only decay acts.
        p.grad = np.zeros(1)
        opt.step()
        assert p.data[0] < 1.0

    def test_nesterov_requires_momentum(self):
        with pytest.raises(ValueError):
            nn.SGD([quadratic_param()], lr=0.1, nesterov=True)

    def test_skips_params_without_grad(self):
        p = quadratic_param(1.0)
        opt = nn.SGD([p], lr=0.1)
        opt.step()
        assert np.allclose(p.data, [1.0])

    def test_converges_on_quadratic(self):
        p = quadratic_param(3.0)
        opt = nn.SGD([p], lr=0.1, momentum=0.5)
        for _ in range(100):
            quadratic_step(p, opt)
        assert abs(p.data[0]) < 1e-3


class TestAdam:
    def test_first_step_is_lr_sized(self):
        p = quadratic_param(1.0)
        opt = nn.Adam([p], lr=0.01)
        quadratic_step(p, opt)
        # With bias correction the first step is ~lr * sign(grad).
        assert abs((1.0 - p.data[0]) - 0.01) < 1e-6

    def test_converges_on_quadratic(self):
        p = quadratic_param(3.0)
        opt = nn.Adam([p], lr=0.3)
        for _ in range(200):
            quadratic_step(p, opt)
        assert abs(p.data[0]) < 1e-2

    def test_weight_decay(self):
        p = nn.Parameter(np.array([1.0]))
        opt = nn.Adam([p], lr=0.1, weight_decay=1.0)
        p.grad = np.zeros(1)
        opt.step()
        assert p.data[0] < 1.0


class TestRMSPropAdaGrad:
    def test_rmsprop_converges(self):
        p = quadratic_param(2.0)
        opt = nn.RMSProp([p], lr=0.05)
        for _ in range(300):
            quadratic_step(p, opt)
        assert abs(p.data[0]) < 0.05

    def test_adagrad_steps_shrink(self):
        p = quadratic_param(5.0)
        opt = nn.AdaGrad([p], lr=1.0)
        quadratic_step(p, opt)
        first_step = abs(5.0 - p.data[0])
        before = p.data[0]
        quadratic_step(p, opt)
        second_step = abs(before - p.data[0])
        assert second_step < first_step


class TestValidation:
    def test_empty_params(self):
        with pytest.raises(ValueError):
            nn.SGD([], lr=0.1)

    def test_nonpositive_lr(self):
        with pytest.raises(ValueError):
            nn.Adam([quadratic_param()], lr=0.0)

    def test_make_optimizer(self):
        opt = nn.make_optimizer("sgd", [quadratic_param()], lr=0.1)
        assert isinstance(opt, nn.SGD)
        with pytest.raises(KeyError, match="unknown optimizer 'lion'") as info:
            nn.make_optimizer("lion", [quadratic_param()])
        # The failed dict lookup is not chained onto the report.
        assert info.value.__suppress_context__

    def test_make_optimizer_keeps_constructor_key_error(self, monkeypatch):
        class Broken(nn.SGD):
            def __init__(self, params, **kwargs):
                raise KeyError("missing setting")

        monkeypatch.setitem(optim._OPTIMIZERS, "broken", Broken)
        with pytest.raises(KeyError, match="missing setting") as info:
            nn.make_optimizer("broken", [quadratic_param()])
        assert "unknown optimizer" not in str(info.value)

    def test_duplicate_param_rejected(self):
        p = quadratic_param()
        with pytest.raises(ValueError, match="more than once"):
            nn.Adam([p, quadratic_param(), p], lr=0.1)
        # Equal-valued but distinct parameters are fine.
        nn.Adam([p, quadratic_param()], lr=0.1)


class TestSchedulers:
    def test_step_lr(self):
        # step() is called at the end of each epoch (PyTorch semantics):
        # epochs 0-1 run at the base rate, 2-3 at base*gamma, ...
        opt = nn.SGD([quadratic_param()], lr=1.0)
        sched = nn.StepLR(opt, step_size=2, gamma=0.1)
        lrs = [sched.step() for _ in range(4)]
        assert np.allclose(lrs, [1.0, 0.1, 0.1, 0.01])

    def test_exponential_lr(self):
        opt = nn.SGD([quadratic_param()], lr=1.0)
        sched = nn.ExponentialLR(opt, gamma=0.5)
        sched.step()
        sched.step()
        assert abs(opt.lr - 0.25) < 1e-12

    def test_cosine_reaches_min(self):
        opt = nn.SGD([quadratic_param()], lr=1.0)
        sched = nn.CosineAnnealingLR(opt, t_max=10, min_lr=0.1)
        for _ in range(10):
            sched.step()
        assert abs(opt.lr - 0.1) < 1e-9

    def test_cosine_monotone_decreasing(self):
        opt = nn.SGD([quadratic_param()], lr=1.0)
        sched = nn.CosineAnnealingLR(opt, t_max=5)
        lrs = [sched.step() for _ in range(5)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))


class TestClipGradNorm:
    def test_scales_down_large_grads(self):
        p = nn.Parameter(np.zeros(4))
        p.grad = np.full(4, 10.0)
        norm = nn.clip_grad_norm([p], max_norm=1.0)
        assert abs(norm - 20.0) < 1e-9
        assert abs(np.linalg.norm(p.grad) - 1.0) < 1e-9

    def test_leaves_small_grads(self):
        p = nn.Parameter(np.zeros(4))
        p.grad = np.full(4, 0.1)
        nn.clip_grad_norm([p], max_norm=10.0)
        assert np.allclose(p.grad, 0.1)


# Frozen copies of the allocating update expressions the in-place steps
# replaced.  Each takes the per-parameter data and gradient lists and the
# optimiser state, and rebinds ``datas[i]`` like the old ``param.data =``.

def frozen_sgd(datas, grads, state, lr, momentum=0.0, nesterov=False,
               weight_decay=0.0):
    for i, (data, grad) in enumerate(zip(datas, grads)):
        if grad is None:
            continue
        if weight_decay:
            grad = grad + weight_decay * data
        if momentum:
            velocity = state.setdefault(i, np.zeros_like(data))
            velocity *= momentum
            velocity += grad
            update = grad + momentum * velocity if nesterov else velocity
        else:
            update = grad
        datas[i] = data - lr * update


def frozen_adam(datas, grads, state, lr, betas=(0.9, 0.999), eps=1e-8,
                weight_decay=0.0):
    beta1, beta2 = betas
    state["t"] = state.get("t", 0) + 1
    bias1 = 1.0 - beta1 ** state["t"]
    bias2 = 1.0 - beta2 ** state["t"]
    for i, (data, grad) in enumerate(zip(datas, grads)):
        if grad is None:
            continue
        if weight_decay:
            grad = grad + weight_decay * data
        m = state.setdefault(("m", i), np.zeros_like(data))
        v = state.setdefault(("v", i), np.zeros_like(data))
        m *= beta1
        m += (1.0 - beta1) * grad
        v *= beta2
        v += (1.0 - beta2) * grad * grad
        m_hat = m / bias1
        v_hat = v / bias2
        datas[i] = data - lr * m_hat / (np.sqrt(v_hat) + eps)


def frozen_rmsprop(datas, grads, state, lr, alpha=0.99, eps=1e-8,
                   weight_decay=0.0):
    for i, (data, grad) in enumerate(zip(datas, grads)):
        if grad is None:
            continue
        if weight_decay:
            grad = grad + weight_decay * data
        sq = state.setdefault(i, np.zeros_like(data))
        sq *= alpha
        sq += (1.0 - alpha) * grad * grad
        datas[i] = data - lr * grad / (np.sqrt(sq) + eps)


def frozen_adagrad(datas, grads, state, lr, eps=1e-10):
    for i, (data, grad) in enumerate(zip(datas, grads)):
        if grad is None:
            continue
        acc = state.setdefault(i, np.zeros_like(data))
        acc += grad * grad
        datas[i] = data - lr * grad / (np.sqrt(acc) + eps)


FROZEN_CASES = [
    (nn.SGD, frozen_sgd, {"lr": 0.1}),
    (nn.SGD, frozen_sgd, {"lr": 0.1, "momentum": 0.9, "weight_decay": 0.01}),
    (nn.SGD, frozen_sgd, {"lr": 0.1, "momentum": 0.9, "nesterov": True,
                          "weight_decay": 0.01}),
    (nn.Adam, frozen_adam, {"lr": 0.01}),
    (nn.Adam, frozen_adam, {"lr": 0.01, "weight_decay": 0.01}),
    (nn.RMSProp, frozen_rmsprop, {"lr": 0.01}),
    (nn.RMSProp, frozen_rmsprop, {"lr": 0.01, "weight_decay": 0.01}),
    (nn.AdaGrad, frozen_adagrad, {"lr": 0.1}),
]


class TestInPlaceMatchesFrozenExpressions:
    @pytest.mark.parametrize("size", [1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])
    @pytest.mark.parametrize("opt_cls,frozen,kwargs", FROZEN_CASES)
    def test_bit_identical(self, opt_cls, frozen, kwargs, size):
        rng = np.random.default_rng(size)
        params = [
            nn.Parameter(rng.standard_normal(size)),
            nn.Parameter(rng.standard_normal(5)),             # grad is None
            nn.Parameter(rng.standard_normal((3, size + 1)).T),   # transposed
            nn.Parameter(rng.standard_normal((size + 1, 3))),
        ]
        assert not params[2].data.flags.c_contiguous
        arrays = [p.data for p in params]
        opt = opt_cls(params, **kwargs)
        datas = [a.copy() for a in arrays]
        state = {}
        for _ in range(3):
            grads = [rng.standard_normal(size), None,
                     rng.standard_normal((3, size + 1)).T,  # non-contiguous
                     rng.standard_normal((3, size + 1)).T]  # non-contiguous
            for p, g in zip(params, grads):
                p.grad = g
            opt.step()
            frozen(datas, grads, state, **kwargs)
            for p, array, expected in zip(params, arrays, datas):
                assert p.data is array          # updated in place
                np.testing.assert_array_equal(p.data, expected)

    def test_step_follows_load_state_dict(self):
        rng = np.random.default_rng(0)
        model = nn.Sequential(nn.Dense(3, 2, rng=rng))
        opt = nn.Adam(model.parameters(), lr=0.01)
        grads = [rng.standard_normal(p.shape) for p in model.parameters()]
        for p, g in zip(model.parameters(), grads):
            p.grad = g
        opt.step()
        old_arrays = [p.data for p in model.parameters()]
        old_values = [a.copy() for a in old_arrays]
        loaded = nn.Sequential(nn.Dense(3, 2, rng=rng)).state_dict()
        model.load_state_dict(loaded)
        new_arrays = [p.data for p in model.parameters()]
        opt.step()
        for p, new, old, old_value, value in zip(
                model.parameters(), new_arrays, old_arrays, old_values,
                loaded.values()):
            assert p.data is new
            assert not np.array_equal(new, value)   # the loaded arrays moved
            np.testing.assert_array_equal(old, old_value)

    def test_snapshot_needs_copy(self):
        p = quadratic_param(1.0)
        opt = nn.SGD([p], lr=0.1)
        alias, snapshot = p.data, p.data.copy()
        quadratic_step(p, opt)
        np.testing.assert_array_equal(alias, p.data)
        np.testing.assert_array_equal(snapshot, [1.0])
