"""First-order optimisers and learning-rate schedules.

The paper trains with stochastic gradient descent (Sec. III-B); Adam and
RMSProp are provided because the follow-up classifier and the DCSNet
baseline converge substantially faster with adaptive steps, and because a
complete framework needs them anyway.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional

import numpy as np

from .tensor import Tensor


# Tensors above this many elements are updated in contiguous pieces of
# this size, so every operand of a piece stays cache-resident across the
# whole operation sequence (1 << 15 float64 is 256 KiB per operand).
CHUNK = 1 << 15


class Optimizer:
    """Base optimiser over a flat list of parameters.

    ``step()`` updates ``param.data`` (and the optimiser state) **in
    place**: an array obtained from ``param.data`` before a step holds
    the stepped weights afterwards, so take a ``.copy()`` to snapshot
    them.  Parameters are looked up on every step, never cached, so
    rebinding ``param.data`` (e.g. :meth:`Module.load_state_dict`)
    takes effect at the next step.
    """

    # Widest array a kernel is handed, which sizes the workspace: one chunk
    # here, a whole tensor when None.
    _max_piece: Optional[int] = CHUNK

    def __init__(self, params: Iterable[Tensor], lr: float):
        self.params: List[Tensor] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        if len({id(p) for p in self.params}) != len(self.params):
            raise ValueError("optimizer received a parameter more than once")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = float(lr)
        # Fixed scratch space, allocated at the first step: two rows as
        # wide as the widest piece.
        self._workspace: Optional[np.ndarray] = None
        self._scratch_views = {}

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    def _scratch(self, shape):
        """Two scratch arrays of ``shape``: workspace views when they fit."""
        pair = self._scratch_views.get(shape)
        if pair is None:
            if self._workspace is None:
                width = max(p.data.size for p in self.params)
                if self._max_piece is not None:
                    width = min(width, self._max_piece)
                self._workspace = np.empty(
                    (2, width), np.result_type(*{p.data.dtype for p in self.params}))
            size = math.prod(shape)
            if size > self._workspace.shape[1]:
                # A tensor wider than the workspace: a non-contiguous one
                # updated whole.
                return (np.empty(shape, self._workspace.dtype),
                        np.empty(shape, self._workspace.dtype))
            pair = tuple(row[:size].reshape(shape) for row in self._workspace)
            self._scratch_views[shape] = pair
        return pair

    def _apply(self, kernel, states, *args) -> None:
        """Run ``kernel(data, *state, grad, s1, s2, *args)`` on every
        parameter that has a gradient, updating it in place.

        Tensors above :data:`CHUNK` elements are walked in flat
        ``CHUNK``-sized views; smaller ones, and ones whose written arrays
        are not C-contiguous (a flat view would be a copy), go whole.
        """
        for param, *state in zip(self.params, *states):
            if param.grad is None:
                continue
            arrays = (param.data, *state)
            size = param.data.size
            if size <= CHUNK or not all(a.flags.c_contiguous for a in arrays):
                kernel(*arrays, param.grad, *self._scratch(param.data.shape),
                       *args)
                continue
            flat = [a.reshape(-1) for a in (*arrays, param.grad)]
            for start in range(0, size, CHUNK):
                pieces = [a[start:start + CHUNK] for a in flat]
                kernel(*pieces, *self._scratch(pieces[0].shape), *args)


# Update kernels, shared with the slice-stacked optimisers in
# ``repro.nn.batched``.  Each updates ``data`` and its state arrays in
# place, using scratch arrays ``s1``/``s2`` shaped like ``data``.  The
# operation order is fixed, so a whole tensor, a chunk of it and a fleet
# slice of it all get bit-identical updates.

def _decayed(grad, data, weight_decay, out):
    """``grad + weight_decay * data`` into ``out`` (or ``grad`` when off)."""
    if not weight_decay:
        return grad
    np.multiply(data, weight_decay, out=out)
    out += grad
    return out


def sgd_update(data, velocity, grad, s1, s2, lr, momentum, nesterov,
               weight_decay) -> None:
    grad = _decayed(grad, data, weight_decay, s1)
    update = grad
    if momentum:
        velocity *= momentum
        velocity += grad
        update = velocity
        if nesterov:
            update = np.multiply(velocity, momentum, out=s2)
            update += grad
    np.multiply(update, lr, out=s2)
    data -= s2


def adam_update(data, m, v, grad, s1, s2, lr, beta1, beta2, eps,
                bias1, bias2, weight_decay) -> None:
    """``bias1``/``bias2`` are the bias corrections: scalars, or per-slice
    arrays broadcasting against ``data`` in a fleet."""
    grad = _decayed(grad, data, weight_decay, s1)
    # v = beta2 * v + ((1 - beta2) * grad) * grad
    v *= beta2
    np.multiply(grad, 1.0 - beta2, out=s2)
    s2 *= grad
    v += s2
    # m = beta1 * m + (1 - beta1) * grad; grad may alias s1 from here on
    m *= beta1
    np.multiply(grad, 1.0 - beta1, out=s1)
    m += s1
    # data -= (lr * (m / bias1)) / (sqrt(v / bias2) + eps)
    np.divide(v, bias2, out=s2)
    np.sqrt(s2, out=s2)
    s2 += eps
    np.divide(m, bias1, out=s1)
    s1 *= lr
    s1 /= s2
    data -= s1


def rmsprop_update(data, sq, grad, s1, s2, lr, alpha, eps,
                   weight_decay) -> None:
    grad = _decayed(grad, data, weight_decay, s1)
    sq *= alpha
    np.multiply(grad, 1.0 - alpha, out=s2)
    s2 *= grad
    sq += s2
    # data -= (lr * grad) / (sqrt(sq) + eps)
    np.sqrt(sq, out=s2)
    s2 += eps
    np.multiply(grad, lr, out=s1)
    s1 /= s2
    data -= s1


def adagrad_update(data, acc, grad, s1, s2, lr, eps) -> None:
    np.multiply(grad, grad, out=s1)
    acc += s1
    np.sqrt(acc, out=s2)
    s2 += eps
    np.multiply(grad, lr, out=s1)
    s1 /= s2
    data -= s1


class SGD(Optimizer):
    """SGD with optional momentum, Nesterov acceleration and weight decay."""

    def __init__(self, params: Iterable[Tensor], lr: float = 0.01,
                 momentum: float = 0.0, nesterov: bool = False,
                 weight_decay: float = 0.0):
        super().__init__(params, lr)
        if momentum < 0:
            raise ValueError("momentum must be non-negative")
        if nesterov and momentum == 0:
            raise ValueError("nesterov momentum requires momentum > 0")
        self.momentum = momentum
        self.nesterov = nesterov
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self._apply(sgd_update, (self._velocity,), self.lr, self.momentum,
                    self.nesterov, self.weight_decay)


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction."""

    def __init__(self, params: Iterable[Tensor], lr: float = 1e-3,
                 betas=(0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        self._apply(adam_update, (self._m, self._v), self.lr, self.beta1,
                    self.beta2, self.eps, 1.0 - self.beta1 ** self._t,
                    1.0 - self.beta2 ** self._t, self.weight_decay)


class RMSProp(Optimizer):
    """RMSProp with exponentially decayed squared-gradient average."""

    def __init__(self, params: Iterable[Tensor], lr: float = 1e-3,
                 alpha: float = 0.99, eps: float = 1e-8,
                 weight_decay: float = 0.0):
        super().__init__(params, lr)
        self.alpha = alpha
        self.eps = eps
        self.weight_decay = weight_decay
        self._sq = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self._apply(rmsprop_update, (self._sq,), self.lr, self.alpha,
                    self.eps, self.weight_decay)


class AdaGrad(Optimizer):
    """AdaGrad: per-parameter learning rates from accumulated squares."""

    def __init__(self, params: Iterable[Tensor], lr: float = 0.01,
                 eps: float = 1e-10):
        super().__init__(params, lr)
        self.eps = eps
        self._acc = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self._apply(adagrad_update, (self._acc,), self.lr, self.eps)


class LRScheduler:
    """Base learning-rate schedule; mutates ``optimizer.lr`` on :meth:`step`."""

    def __init__(self, optimizer: Optimizer):
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.epoch = 0

    def get_lr(self) -> float:
        raise NotImplementedError

    def step(self) -> float:
        self.epoch += 1
        self.optimizer.lr = self.get_lr()
        return self.optimizer.lr


class StepLR(LRScheduler):
    """Multiply the learning rate by ``gamma`` every ``step_size`` epochs."""

    def __init__(self, optimizer: Optimizer, step_size: int, gamma: float = 0.1):
        super().__init__(optimizer)
        if step_size <= 0:
            raise ValueError("step_size must be positive")
        self.step_size = step_size
        self.gamma = gamma

    def get_lr(self) -> float:
        return self.base_lr * self.gamma ** (self.epoch // self.step_size)


class ExponentialLR(LRScheduler):
    """Multiply the learning rate by ``gamma`` every epoch."""

    def __init__(self, optimizer: Optimizer, gamma: float = 0.95):
        super().__init__(optimizer)
        self.gamma = gamma

    def get_lr(self) -> float:
        return self.base_lr * self.gamma ** self.epoch


class CosineAnnealingLR(LRScheduler):
    """Cosine decay from the base rate to ``min_lr`` over ``t_max`` epochs."""

    def __init__(self, optimizer: Optimizer, t_max: int, min_lr: float = 0.0):
        super().__init__(optimizer)
        if t_max <= 0:
            raise ValueError("t_max must be positive")
        self.t_max = t_max
        self.min_lr = min_lr

    def get_lr(self) -> float:
        progress = min(self.epoch, self.t_max) / self.t_max
        return self.min_lr + 0.5 * (self.base_lr - self.min_lr) * (1 + math.cos(math.pi * progress))


def clip_grad_norm(params: Iterable[Tensor], max_norm: float) -> float:
    """Scale gradients in-place so their global L2 norm is <= ``max_norm``.

    Returns the pre-clipping norm.
    """
    params = [p for p in params if p.grad is not None]
    total = math.sqrt(sum(float((p.grad * p.grad).sum()) for p in params))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for p in params:
            p.grad = p.grad * scale
    return total


_OPTIMIZERS = {
    "sgd": SGD,
    "adam": Adam,
    "rmsprop": RMSProp,
    "adagrad": AdaGrad,
}


def make_optimizer(name: str, params: Iterable[Tensor], **kwargs) -> Optimizer:
    """Instantiate an optimiser by name."""
    try:
        cls = _OPTIMIZERS[name]
    except KeyError:
        raise KeyError(f"unknown optimizer {name!r}; "
                       f"choose from {sorted(_OPTIMIZERS)}") from None
    return cls(params, **kwargs)
