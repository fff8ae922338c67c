"""Layerwise visual-semantic annealing: a time-annealed interpolation
between the final feature layer and the mean of a selected layer subset.

alpha(t) = min(t / tau, 1)
fused    = (1 - alpha) * F_L + alpha * mean(F_l for l in S)

The fusion is built from tape primitives, so gradients route through it
when the layers live on a DiffTape; plain arrays work too. A training step
that reruns its tape declares the weights (1 - alpha, alpha) as tape
inputs (``fusion_weights``), so a rerun replaces them without re-entering
``fuse``.
"""

from dataclasses import dataclass

from babelkit.checks import config_int
from babelkit.tape import Tensor, add, mul

# ViT-Large configuration the defaults mirror: 24 blocks, fusing layers
# 3, 9, 18 and the last.
VIT_LARGE_LAYER_COUNT = 24
DEFAULT_TAU = 6000


@dataclass(frozen=True)
class AnnealSchedule:
    """Annealing duration in optimizer steps."""

    tau: int = DEFAULT_TAU

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError(f"tau must be a positive integer, got {self.tau}")


@dataclass(frozen=True)
class SelectedSet:
    """Strictly increasing 1-based layer indices; must end at the final layer."""

    indices: tuple = (3, 9, 18, 24)

    def __post_init__(self):
        idx = tuple(self.indices)
        if not idx:
            raise ValueError("selected set must be non-empty")
        for i in idx:
            config_int("1-based selected index", i, 1)
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError(f"indices must be strictly increasing, got {idx}")
        object.__setattr__(self, "indices", idx)

    def validate_for(self, layer_count):
        if self.indices[-1] != layer_count:
            raise ValueError(
                f"final layer {layer_count} must be selected (got max index {self.indices[-1]})"
            )


class FeaturePyramid:
    """Ordered feature layers F_1..F_L, all sharing one shape."""

    def __init__(self, layers):
        layers = [x if isinstance(x, Tensor) else Tensor(x) for x in layers]
        if not layers:
            raise ValueError("pyramid needs at least one layer")
        shape = layers[0].shape
        for i, layer in enumerate(layers[1:], start=2):
            if layer.shape != shape:
                raise ValueError(f"layer {i} shape {layer.shape} != layer 1 shape {shape}")
        self.layers = layers

    @property
    def layer_count(self):
        return len(self.layers)

    def layer(self, index_1based):
        return self.layers[index_1based - 1]


def anneal_alpha(schedule, t):
    """Fusion coefficient min(t / tau, 1); exactly 0 at t=0 and exactly 1
    for every t >= tau."""
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    return min(t / schedule.tau, 1.0)


def fusion_weights(alpha):
    """The fusion's weights (1 - alpha, alpha), for an alpha in [0, 1]."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    return 1.0 - alpha, alpha


def fuse(pyramid, selected, alpha):
    """(1 - alpha) * F_L + alpha * mean over the selected layers.

    ``alpha`` is a number, or the pair ``fusion_weights`` makes of one, as
    the tape inputs a training step declares; that step checks its alpha."""
    w_final, w_mean = alpha if isinstance(alpha, tuple) else fusion_weights(alpha)
    selected.validate_for(pyramid.layer_count)

    final = pyramid.layer(pyramid.layer_count)
    acc = pyramid.layer(selected.indices[0])
    for l in selected.indices[1:]:
        acc = add(acc, pyramid.layer(l))
    selected_mean = mul(acc, 1.0 / len(selected.indices))
    return add(mul(final, w_final), mul(selected_mean, w_mean))
