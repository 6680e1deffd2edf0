"""Neural-network layers built on the autograd :class:`Tensor`.

The :class:`Module` base class gives automatic parameter registration
(assigning a :class:`Parameter` or a sub-:class:`Module` to an attribute
registers it), recursive ``parameters()`` / ``state_dict()`` traversal and
train/eval mode switching — a deliberately small subset of the familiar
PyTorch API, enough for every model in the OrcoDCS paper.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import functional as F
from . import init as initializers
from .tensor import Tensor


class Parameter(Tensor):
    """A Tensor that is registered as a trainable module parameter."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for all layers and models.

    Subclasses implement :meth:`forward`.  Assigning a
    :class:`Parameter` or :class:`Module` instance to an attribute
    registers it for :meth:`parameters`, :meth:`state_dict` and friends.
    """

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def parameters(self) -> List[Parameter]:
        """Return all trainable parameters of this module, recursively."""
        return [param for _, param in self.named_parameters()]

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs recursively."""
        for name, param in self._parameters.items():
            yield prefix + name, param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix + name + ".")

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendants."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def num_parameters(self) -> int:
        """Total number of trainable scalars."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # Modes and gradients
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Switch train/eval mode (affects Dropout and BatchNorm)."""
        for module in self.modules():
            object.__setattr__(module, "training", mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a flat ``name -> array`` mapping of all parameters and buffers."""
        state: Dict[str, np.ndarray] = OrderedDict()
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for prefix, module in self._named_modules(""):
            for bname, buf in getattr(module, "_buffers", {}).items():
                state[prefix + bname] = np.array(buf, copy=True)
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameters (and buffers) from :meth:`state_dict` output."""
        params = dict(self.named_parameters())
        buffers = {}
        for prefix, module in self._named_modules(""):
            for bname in getattr(module, "_buffers", {}):
                buffers[prefix + bname] = (module, bname)
        for name, value in state.items():
            if name in params:
                if params[name].shape != value.shape:
                    raise ValueError(
                        f"shape mismatch for {name}: have {params[name].shape}, "
                        f"loading {value.shape}")
                params[name].data = np.array(value, copy=True)
            elif name in buffers:
                module, bname = buffers[name]
                module._buffers[bname] = np.array(value, copy=True)
            else:
                raise KeyError(f"unexpected key {name!r} in state dict")

    def _named_modules(self, prefix: str) -> Iterator[Tuple[str, "Module"]]:
        yield prefix, self
        for name, module in self._modules.items():
            yield from module._named_modules(prefix + name + ".")

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs) -> Tensor:
        raise NotImplementedError

    def __call__(self, *args, **kwargs) -> Tensor:
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        children = ", ".join(f"{k}={v.__class__.__name__}" for k, v in self._modules.items())
        return f"{self.__class__.__name__}({children})"


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)
        for index, layer in enumerate(layers):
            self._modules[str(index)] = layer

    def append(self, layer: Module) -> "Sequential":
        self._modules[str(len(self.layers))] = layer
        self.layers.append(layer)
        return self

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x


class Dense(Module):
    """Fully connected layer: ``y = x @ W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input/output widths.
    bias:
        Whether to learn an additive bias.
    weight_init:
        Name of an initialiser in :mod:`repro.nn.init`.
    rng:
        Generator used to draw the initial weights.
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 weight_init: str = "xavier_uniform",
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        scheme = initializers.get_initializer(weight_init)
        self.weight = Parameter(scheme((in_features, out_features), rng))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.affine(x, self.weight, self.bias)

    def __repr__(self) -> str:
        return f"Dense({self.in_features}, {self.out_features})"


class Conv2D(Module):
    """2-D convolution layer over NCHW inputs."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: F.IntPair,
                 stride: F.IntPair = 1, padding: F.IntPair = 0, bias: bool = True,
                 weight_init: str = "he_uniform",
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = F._pair(kernel_size)
        self.stride = F._pair(stride)
        self.padding = F._pair(padding)
        scheme = initializers.get_initializer(weight_init)
        shape = (out_channels, in_channels) + self.kernel_size
        self.weight = Parameter(scheme(shape, rng))
        self.bias = Parameter(np.zeros(out_channels)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, self.stride, self.padding)

    def __repr__(self) -> str:
        return (f"Conv2D({self.in_channels}, {self.out_channels}, "
                f"kernel={self.kernel_size}, stride={self.stride}, padding={self.padding})")


class ConvTranspose2D(Module):
    """2-D transposed convolution (upsampling) layer."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: F.IntPair,
                 stride: F.IntPair = 1, padding: F.IntPair = 0, bias: bool = True,
                 weight_init: str = "he_uniform",
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = F._pair(kernel_size)
        self.stride = F._pair(stride)
        self.padding = F._pair(padding)
        scheme = initializers.get_initializer(weight_init)
        shape = (in_channels, out_channels) + self.kernel_size
        self.weight = Parameter(scheme(shape, rng))
        self.bias = Parameter(np.zeros(out_channels)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv_transpose2d(x, self.weight, self.bias, self.stride, self.padding)


class MaxPool2D(Module):
    """Max pooling layer."""

    def __init__(self, kernel_size: F.IntPair, stride: F.IntPair = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride)


class AvgPool2D(Module):
    """Average pooling layer."""

    def __init__(self, kernel_size: F.IntPair, stride: F.IntPair = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel_size, self.stride)


class Upsample2D(Module):
    """Nearest-neighbour spatial upsampling."""

    def __init__(self, scale: int = 2):
        super().__init__()
        self.scale = scale

    def forward(self, x: Tensor) -> Tensor:
        return F.upsample2d(x, self.scale)


class Flatten(Module):
    """Flatten all axes after the batch axis."""

    def forward(self, x: Tensor) -> Tensor:
        return x.flatten(start_axis=1)


class Reshape(Module):
    """Reshape the non-batch axes to ``shape``."""

    def __init__(self, shape: Sequence[int]):
        super().__init__()
        self.shape = tuple(shape)

    def forward(self, x: Tensor) -> Tensor:
        return x.reshape((x.shape[0],) + self.shape)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class LeakyReLU(Module):
    def __init__(self, negative_slope: float = 0.01):
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x: Tensor) -> Tensor:
        return x.leaky_relu(self.negative_slope)


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x


class Softmax(Module):
    def __init__(self, axis: int = -1):
        super().__init__()
        self.axis = axis

    def forward(self, x: Tensor) -> Tensor:
        return F.softmax(x, self.axis)


_ACTIVATIONS = {
    "relu": ReLU,
    "leaky_relu": LeakyReLU,
    "sigmoid": Sigmoid,
    "tanh": Tanh,
    "identity": Identity,
    "linear": Identity,
    "softmax": Softmax,
}


def make_activation(name: str) -> Module:
    """Instantiate an activation layer by name."""
    try:
        cls = _ACTIVATIONS[name]
    except KeyError:
        raise KeyError(f"unknown activation {name!r}; choose from {sorted(_ACTIVATIONS)}") from None
    return cls()


class Dropout(Module):
    """Inverted dropout; active only in training mode."""

    def __init__(self, rate: float = 0.5, rng: Optional[np.random.Generator] = None):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate
        self.rng = rng or np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.rate, self.rng, self.training)


class BatchNorm1d(Module):
    """Batch normalisation over the feature axis of ``(B, F)`` inputs."""

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(np.ones(num_features))
        self.beta = Parameter(np.zeros(num_features))
        self._buffers = {
            "running_mean": np.zeros(num_features),
            "running_var": np.ones(num_features),
        }

    def forward(self, x: Tensor) -> Tensor:
        if self.training:
            mean = x.data.mean(axis=0)
            var = x.data.var(axis=0)
            rm = self._buffers["running_mean"]
            rv = self._buffers["running_var"]
            self._buffers["running_mean"] = (1 - self.momentum) * rm + self.momentum * mean
            self._buffers["running_var"] = (1 - self.momentum) * rv + self.momentum * var
            centered = x - Tensor(mean)
            scale = Tensor(1.0 / np.sqrt(var + self.eps))
        else:
            centered = x - Tensor(self._buffers["running_mean"])
            scale = Tensor(1.0 / np.sqrt(self._buffers["running_var"] + self.eps))
        return centered * scale * self.gamma + self.beta


class BatchNorm2d(Module):
    """Batch normalisation over channels of NCHW inputs."""

    def __init__(self, num_channels: int, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__()
        self.num_channels = num_channels
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(np.ones(num_channels))
        self.beta = Parameter(np.zeros(num_channels))
        self._buffers = {
            "running_mean": np.zeros(num_channels),
            "running_var": np.ones(num_channels),
        }

    def forward(self, x: Tensor) -> Tensor:
        axes = (0, 2, 3)
        if self.training:
            mean = x.data.mean(axis=axes)
            var = x.data.var(axis=axes)
            rm = self._buffers["running_mean"]
            rv = self._buffers["running_var"]
            self._buffers["running_mean"] = (1 - self.momentum) * rm + self.momentum * mean
            self._buffers["running_var"] = (1 - self.momentum) * rv + self.momentum * var
        else:
            mean = self._buffers["running_mean"]
            var = self._buffers["running_var"]
        shape = (1, self.num_channels, 1, 1)
        centered = x - Tensor(mean.reshape(shape))
        scale = Tensor((1.0 / np.sqrt(var + self.eps)).reshape(shape))
        return (centered * scale * self.gamma.reshape(shape)
                + self.beta.reshape(shape))
