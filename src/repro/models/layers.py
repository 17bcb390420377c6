"""Layer, tensor, and model descriptions.

The reproduction describes a DNN the way the schedulers see it: an
ordered sequence of learnable layers (feed-forward order), each owning
one or more parameter tensors whose gradients must be aggregated.  The
tensor list in *backpropagation order* (last layer first) is the
sequence in which gradients become ready — the FIFO order WFBP and DeAR
communicate in (paper Fig. 1/2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

__all__ = ["TensorSpec", "LayerSpec", "ModelSpec", "GRADIENT_DTYPE_BYTES"]

#: Gradients are fp32 in all of the paper's experiments.
GRADIENT_DTYPE_BYTES = 4


@dataclass(frozen=True)
class TensorSpec:
    """One learnable parameter tensor.

    Attributes:
        name: unique name, e.g. ``"layer3.2.conv1.weight"``.
        num_elements: number of learnable scalars in the tensor.
        layer_index: index of the owning layer in feed-forward order.
    """

    name: str
    num_elements: int
    layer_index: int

    def __post_init__(self):
        if self.num_elements <= 0:
            raise ValueError(f"tensor {self.name!r} must have positive size")

    @property
    def nbytes(self) -> int:
        """Gradient payload size in bytes (fp32)."""
        return self.num_elements * GRADIENT_DTYPE_BYTES


@dataclass(frozen=True)
class LayerSpec:
    """One learnable layer.

    Attributes:
        name: unique name in the model.
        kind: coarse operator family (``"conv"``, ``"bn"``, ``"fc"``,
            ``"embedding"``, ``"layernorm"``, ``"attention"``, ...).
        index: position in feed-forward order (0 = first executed).
        tensors: parameter tensors owned by the layer.
        flops: analytic forward FLOPs per *sample*; drives the timing
            profile (backward is charged at twice this, §VI-F).
        activation_elements: output (plus attendant intermediate)
            elements per *sample* that must be stored for the backward
            pass; drives the memory model.
    """

    name: str
    kind: str
    index: int
    tensors: tuple[TensorSpec, ...]
    flops: float
    activation_elements: float = 0.0

    def __post_init__(self):
        if self.flops < 0:
            raise ValueError(f"layer {self.name!r} has negative flops")
        for tensor in self.tensors:
            if tensor.layer_index != self.index:
                raise ValueError(
                    f"tensor {tensor.name!r} points at layer {tensor.layer_index}, "
                    f"but lives in layer {self.index}"
                )

    @property
    def num_parameters(self) -> int:
        return sum(t.num_elements for t in self.tensors)

    @property
    def nbytes(self) -> int:
        return sum(t.nbytes for t in self.tensors)


@dataclass(frozen=True)
class ModelSpec:
    """A complete model: ordered layers plus workload defaults.

    Attributes:
        name: registry key ("resnet50", "bert_base", ...).
        display_name: the paper's label ("ResNet-50", ...).
        layers: learnable layers in feed-forward order.
        default_batch_size: the per-GPU mini-batch size of Table I.
        sample_description: what one training sample is (for docs).
    """

    name: str
    display_name: str
    layers: tuple[LayerSpec, ...]
    default_batch_size: int
    sample_description: str = ""
    _tensor_cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        for expected_index, layer in enumerate(self.layers):
            if layer.index != expected_index:
                raise ValueError(
                    f"layer {layer.name!r} has index {layer.index}, expected {expected_index}"
                )
        names = [t.name for t in self.tensors_forward_order()]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate tensor names in model {self.name!r}")

    def __getstate__(self) -> dict:
        """Pickle the value, not the lazy caches.

        The caches (traversal orders, the run-identity payload) rebuild
        on demand; shipping them would bloat every spec sent to a pool
        worker.
        """
        state = dict(self.__dict__)
        state["_tensor_cache"] = {}
        return state

    # -- Table I quantities ------------------------------------------------

    @property
    def num_layers(self) -> int:
        """Number of learnable layers (Table I "# Layers")."""
        return len(self.layers)

    @property
    def num_tensors(self) -> int:
        """Number of learnable parameter tensors (Table I "# Tensors")."""
        return sum(len(layer.tensors) for layer in self.layers)

    @property
    def num_parameters(self) -> int:
        """Total learnable scalars (Table I "# Param." is this / 1e6)."""
        return sum(layer.num_parameters for layer in self.layers)

    @property
    def gradient_bytes(self) -> int:
        """Size of one full gradient aggregation in bytes (fp32)."""
        return self.num_parameters * GRADIENT_DTYPE_BYTES

    @property
    def total_flops(self) -> float:
        """Forward FLOPs per sample, summed over layers."""
        return sum(layer.flops for layer in self.layers)

    @property
    def activation_elements(self) -> float:
        """Stored activation elements per sample, summed over layers."""
        return sum(layer.activation_elements for layer in self.layers)

    # -- traversal orders ---------------------------------------------------

    def tensors_forward_order(self) -> list[TensorSpec]:
        """All tensors, first layer first (feed-forward consumption order)."""
        if "fwd" not in self._tensor_cache:
            self._tensor_cache["fwd"] = [
                tensor for layer in self.layers for tensor in layer.tensors
            ]
        return list(self._tensor_cache["fwd"])

    def tensors_backward_order(self) -> list[TensorSpec]:
        """All tensors, last layer first (gradient-ready order in BP)."""
        if "bwd" not in self._tensor_cache:
            self._tensor_cache["bwd"] = [
                tensor
                for layer in reversed(self.layers)
                for tensor in reversed(layer.tensors)
            ]
        return list(self._tensor_cache["bwd"])

    def layers_backward_order(self) -> list[LayerSpec]:
        """Layers, last first."""
        return list(reversed(self.layers))

    def describe(self) -> str:
        """One-line Table I style summary."""
        return (
            f"{self.display_name}: {self.num_layers} layers, "
            f"{self.num_tensors} tensors, {self.num_parameters / 1e6:.1f}M params, "
            f"BS={self.default_batch_size}"
        )


class ModelBuilder:
    """Incremental helper the architecture enumerations use.

    Keeps layer indices and tensor bookkeeping consistent; builders call
    :meth:`add_layer` in feed-forward order and :meth:`build` at the
    end.
    """

    def __init__(self, name: str, display_name: str, default_batch_size: int,
                 sample_description: str = ""):
        self.name = name
        self.display_name = display_name
        self.default_batch_size = default_batch_size
        self.sample_description = sample_description
        self._layers: list[LayerSpec] = []

    def add_layer(
        self,
        name: str,
        kind: str,
        tensor_sizes: Sequence[tuple[str, int]],
        flops: float,
        activation_elements: float = 0.0,
    ) -> LayerSpec:
        """Append one layer; ``tensor_sizes`` is [(suffix, num_elements), ...]."""
        index = len(self._layers)
        tensors = tuple(
            TensorSpec(name=f"{name}.{suffix}", num_elements=size, layer_index=index)
            for suffix, size in tensor_sizes
        )
        layer = LayerSpec(
            name=name, kind=kind, index=index, tensors=tensors, flops=flops,
            activation_elements=activation_elements,
        )
        self._layers.append(layer)
        return layer

    def conv(self, name: str, cin: int, cout: int, kernel: int, out_hw: int,
             stride: int = 1, kernel_h: int = 0, kernel_w: int = 0) -> LayerSpec:
        """Conv2d without bias (the CNN convention when followed by BN).

        ``kernel_h``/``kernel_w`` override ``kernel`` for asymmetric
        kernels (1x7, 7x1, ...).  ``out_hw`` is the output spatial side
        (assumed square feature maps).
        """
        kh = kernel_h or kernel
        kw = kernel_w or kernel
        params = cout * cin * kh * kw
        flops = 2.0 * params * out_hw * out_hw
        return self.add_layer(
            name, "conv", [("weight", params)], flops,
            activation_elements=float(cout * out_hw * out_hw),
        )

    def bn(self, name: str, channels: int, out_hw: int) -> LayerSpec:
        """BatchNorm2d: weight + bias, cheap elementwise compute."""
        flops = 4.0 * channels * out_hw * out_hw
        return self.add_layer(
            name, "bn", [("weight", channels), ("bias", channels)], flops,
            activation_elements=float(channels * out_hw * out_hw),
        )

    def fc(self, name: str, cin: int, cout: int, bias: bool = True) -> LayerSpec:
        """Fully connected layer."""
        tensors = [("weight", cin * cout)]
        if bias:
            tensors.append(("bias", cout))
        return self.add_layer(
            name, "fc", tensors, 2.0 * cin * cout,
            activation_elements=float(cout),
        )

    def build(self) -> ModelSpec:
        return ModelSpec(
            name=self.name,
            display_name=self.display_name,
            layers=tuple(self._layers),
            default_batch_size=self.default_batch_size,
            sample_description=self.sample_description,
        )
