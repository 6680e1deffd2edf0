"""Loss functions.

The OrcoDCS paper trains its asymmetric autoencoder with the Huber loss
(eq. 4) rather than plain L2, arguing it makes reconstructions more
robust.  Both the standard elementwise Huber and the paper's literal
norm-based form are provided, along with MSE / L1 for ablations and
cross-entropy for the follow-up classifier.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from . import functional as F
from .tensor import Tensor, _unbroadcast, where


class Loss:
    """Base class; subclasses implement ``forward(prediction, target)``.

    Losses that support the stacked fleet engine additionally implement
    ``_per_cluster``: given ``(K, B, ...)`` stacks it returns a ``(K,)``
    tensor whose entry ``k`` equals ``forward`` applied to slice ``k``
    alone, which keeps per-cluster trajectories exact.  MSE and Huber
    serve both reductions from one fused kernel that takes the axes.
    """

    def forward(self, prediction: Tensor, target: Tensor) -> Tensor:
        raise NotImplementedError

    def __call__(self, prediction: Tensor, target) -> Tensor:
        if not isinstance(target, Tensor):
            target = Tensor(target)
        return self.forward(prediction, target)

    def per_cluster(self, prediction: Tensor, target) -> Tensor:
        """Per-leading-slice loss for stacked ``(K, B, ...)`` batches."""
        if not isinstance(target, Tensor):
            target = Tensor(target)
        return self._per_cluster(prediction, target)

    def _per_cluster(self, prediction: Tensor, target: Tensor) -> Tensor:
        raise NotImplementedError(
            f"{type(self).__name__} does not define a per-cluster "
            "(stacked-batch) reduction")


def _slice_axes(tensor: Tensor) -> tuple:
    """All axes except the leading slice axis."""
    return tuple(range(1, tensor.ndim))


def _fused_mean(prediction: Tensor, target: Tensor, losses: np.ndarray,
                axes: Optional[tuple], op: str,
                slope: Callable[[np.ndarray], np.ndarray]) -> Tensor:
    """Mean of elementwise ``losses`` over ``axes`` (all when None) as one
    tape node.  ``slope(scaled)`` maps the upstream gradient, divided by
    the element count and broadcastable to ``losses``, to the gradient of
    the residual ``prediction - target``.  ``axes=None`` sums in
    ``Tensor.mean``'s order, so the value matches the composed graph's."""
    value = losses.sum(axis=axes)
    count = losses.size if axes is None else math.prod(losses.shape[ax] for ax in axes)
    out = prediction._make_child(np.asarray(value * (1.0 / count)),
                                 (prediction, target), op)
    if out.requires_grad:
        ndim = losses.ndim           # the backward closure keeps no losses

        def backward(grad: np.ndarray) -> None:
            scaled = grad * (1.0 / count)
            elem = slope(scaled.reshape(
                scaled.shape + (1,) * (ndim - scaled.ndim)))
            prediction._accumulate(_unbroadcast(elem, prediction.shape))
            if target.requires_grad:
                target._accumulate(_unbroadcast(-elem, target.shape))

        out._backward = backward
    return out


class MSELoss(Loss):
    """Mean squared error: ``mean((x - y)^2)``."""

    def forward(self, prediction: Tensor, target: Tensor) -> Tensor:
        return self._mean(prediction, target, None)

    def _per_cluster(self, prediction: Tensor, target: Tensor) -> Tensor:
        return self._mean(prediction, target, _slice_axes(prediction))

    def _mean(self, prediction: Tensor, target: Tensor,
              axes: Optional[tuple]) -> Tensor:
        # The values and gradients of ``((p - t) * (p - t)).mean(axes)``.
        diff = prediction.data - target.data

        def slope(scaled: np.ndarray) -> np.ndarray:
            elem = scaled * diff
            return elem + elem      # d(d^2) = 2 d, as the composed graph

        return _fused_mean(prediction, target, diff * diff, axes, "mse", slope)


class L1Loss(Loss):
    """Mean absolute error: ``mean(|x - y|)``."""

    def forward(self, prediction: Tensor, target: Tensor) -> Tensor:
        return (prediction - target).abs().mean()

    def _per_cluster(self, prediction: Tensor, target: Tensor) -> Tensor:
        absolute = (prediction - target).abs()
        return absolute.mean(axis=_slice_axes(absolute))


class HuberLoss(Loss):
    """Elementwise Huber loss with threshold ``delta``.

    Quadratic for residuals below ``delta``, linear above — the standard
    robust-regression compromise between L2 and L1.  This is the form used
    throughout training in this reproduction (see also
    :class:`VectorHuberLoss` for the paper's literal eq. 4).
    """

    def __init__(self, delta: float = 1.0):
        if delta <= 0:
            raise ValueError("delta must be positive")
        self.delta = delta

    def forward(self, prediction: Tensor, target: Tensor) -> Tensor:
        return self._mean(prediction, target, None)

    def _per_cluster(self, prediction: Tensor, target: Tensor) -> Tensor:
        return self._mean(prediction, target, _slice_axes(prediction))

    def _mean(self, prediction: Tensor, target: Tensor,
              axes: Optional[tuple]) -> Tensor:
        # The values and gradients of the 9-node composed graph
        # ``where(|d| <= delta, 0.5 d^2, delta |d| - 0.5 delta^2).mean(axes)``.
        delta = self.delta
        diff = prediction.data - target.data
        abs_diff = np.abs(diff)
        quadratic_mask = abs_diff <= delta
        quadratic = diff * diff
        quadratic *= 0.5
        linear = abs_diff                  # mask is done with abs_diff
        linear *= delta
        linear -= 0.5 * delta ** 2
        losses = np.where(quadratic_mask, quadratic, linear)

        def slope(scaled: np.ndarray) -> np.ndarray:
            return scaled * np.where(quadratic_mask, diff,
                                     delta * np.sign(diff))

        return _fused_mean(prediction, target, losses, axes, "huber", slope)


class VectorHuberLoss(Loss):
    """The paper's eq. (4): Huber applied to whole-vector norms.

    ``L = 0.5 * ||x - xr||_2^2``            if ``||x - xr||_1 <= delta``
    ``L = delta * ||x - xr||_1 - delta^2/2`` otherwise

    Each row (sample) of the batch contributes one term; the mean over the
    batch is returned.  Because the switch is on the L1 norm of the whole
    residual vector, ``delta`` must scale with the data dimension.
    """

    def __init__(self, delta: float = 1.0):
        if delta <= 0:
            raise ValueError("delta must be positive")
        self.delta = delta

    def _per_sample(self, prediction: Tensor, target: Tensor,
                    start_axis: int) -> Tensor:
        diff = (prediction - target).flatten(start_axis=start_axis)
        l1 = diff.abs().sum(axis=start_axis)
        l2_sq = (diff * diff).sum(axis=start_axis)
        quadratic = l2_sq * 0.5
        linear = l1 * self.delta - 0.5 * self.delta ** 2
        return where(l1.data <= self.delta, quadratic, linear)

    def forward(self, prediction: Tensor, target: Tensor) -> Tensor:
        return self._per_sample(prediction, target, start_axis=1).mean()

    def _per_cluster(self, prediction: Tensor, target: Tensor) -> Tensor:
        return self._per_sample(prediction, target, start_axis=2).mean(axis=1)


class BCELoss(Loss):
    """Binary cross-entropy on probabilities in (0, 1)."""

    def __init__(self, eps: float = 1e-7):
        self.eps = eps

    def forward(self, prediction: Tensor, target: Tensor) -> Tensor:
        p = prediction.clip(self.eps, 1.0 - self.eps)
        one = Tensor(np.ones_like(p.data))
        return -(target * p.log() + (one - target) * (one - p).log()).mean()

    def _per_cluster(self, prediction: Tensor, target: Tensor) -> Tensor:
        p = prediction.clip(self.eps, 1.0 - self.eps)
        one = Tensor(np.ones_like(p.data))
        likelihood = target * p.log() + (one - target) * (one - p).log()
        return -likelihood.mean(axis=_slice_axes(likelihood))


class CrossEntropyLoss(Loss):
    """Softmax cross-entropy from logits with integer class targets."""

    def forward(self, prediction: Tensor, target: Tensor) -> Tensor:
        targets = np.asarray(target.data).astype(np.int64).reshape(-1)
        if prediction.ndim != 2:
            raise ValueError("CrossEntropyLoss expects (batch, classes) logits")
        batch = prediction.shape[0]
        if targets.shape[0] != batch:
            raise ValueError("target length does not match batch size")
        logp = F.log_softmax(prediction, axis=1)
        picked = logp[np.arange(batch), targets]
        return -picked.mean()


def accuracy(logits, targets) -> float:
    """Fraction of argmax predictions matching integer targets."""
    logits = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    targets = targets.data if isinstance(targets, Tensor) else np.asarray(targets)
    predictions = logits.argmax(axis=1)
    return float((predictions == targets.reshape(-1)).mean())


_LOSSES = {
    "mse": MSELoss,
    "l1": L1Loss,
    "huber": HuberLoss,
    "vector_huber": VectorHuberLoss,
    "bce": BCELoss,
    "cross_entropy": CrossEntropyLoss,
}


def make_loss(name: str, **kwargs) -> Loss:
    """Instantiate a loss by name (``mse``, ``huber``, ...)."""
    try:
        cls = _LOSSES[name]
    except KeyError:
        raise KeyError(f"unknown loss {name!r}; choose from {sorted(_LOSSES)}") from None
    return cls(**kwargs)
