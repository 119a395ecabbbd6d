"""Time-decay kernels for event excitation.

All kernels are causal: ``evaluate(kernel, t)`` is 0 for ``t <= 0``. Only the
exponential family is supported by the feature builder and the fitting path;
Gaussian and uniform kernels exist for generating mismatched data in
robustness experiments.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from .errors import InvalidInputError, UnsupportedKernelError
from .values import Frozen, as_number

__all__ = [
    "ExponentialKernel",
    "GaussianKernel",
    "UniformKernel",
    "DecayKernel",
    "evaluate",
    "kernel_from_config",
    "kernel_to_config",
]


class ExponentialKernel(Frozen):
    """``exp(-decay * t)`` for ``t > 0``."""

    __slots__ = ("decay",)

    def __init__(self, decay: float):
        if not (0 < decay < math.inf):
            raise InvalidInputError(f"decay must be positive and finite, got {decay}")
        self._set(decay=decay)


class GaussianKernel(Frozen):
    """Gaussian bump centered at ``mean``, full-density normalizer.

    The normalizer is that of the untruncated density; mass at ``t <= 0`` is
    cut, not redistributed.
    """

    __slots__ = ("mean", "std")

    def __init__(self, mean: float, std: float = 4.0):
        if not (std > 0):
            raise InvalidInputError(f"std must be positive, got {std}")
        self._set(mean=mean, std=std)


class UniformKernel(Frozen):
    """``1/scale`` on the open interval ``(start, start + scale)``."""

    __slots__ = ("start", "scale")

    def __init__(self, start: float, scale: float = 4.0):
        if not (scale > 0):
            raise InvalidInputError(f"scale must be positive, got {scale}")
        self._set(start=start, scale=scale)


DecayKernel = Union[ExponentialKernel, GaussianKernel, UniformKernel]


def evaluate(kernel: DecayKernel, t) -> np.ndarray | float:
    """Evaluate the kernel at time lag(s) ``t``; 0 for ``t <= 0``."""
    arr = np.asarray(t, dtype=float)
    positive = arr > 0
    if isinstance(kernel, ExponentialKernel):
        out = np.where(positive, np.exp(-kernel.decay * np.where(positive, arr, 0.0)), 0.0)
    elif isinstance(kernel, GaussianKernel):
        z = kernel.std * math.sqrt(2.0 * math.pi)
        out = np.where(
            positive,
            np.exp(-((arr - kernel.mean) ** 2) / (2.0 * kernel.std**2)) / z,
            0.0,
        )
    elif isinstance(kernel, UniformKernel):
        inside = positive & (arr > kernel.start) & (arr < kernel.start + kernel.scale)
        out = np.where(inside, 1.0 / kernel.scale, 0.0)
    else:
        raise UnsupportedKernelError(f"unknown kernel {kernel!r}")
    if np.isscalar(t) or arr.ndim == 0:
        return float(out)
    return out


def kernel_from_config(config: dict) -> DecayKernel:
    """Build a kernel from a ``{"type": ..., <params>}`` mapping."""
    if "type" not in config:
        raise InvalidInputError("kernel config needs a 'type' field")
    name = str(config["type"]).lower()
    params = {k: v for k, v in config.items() if k != "type"}
    if name == "exponential":
        # accept either spelling of the decay rate, but not both
        if "delta" in params and "decay" in params:
            raise InvalidInputError("exponential kernel takes 'delta' or 'decay', not both")
        if "delta" in params:
            params["decay"] = params.pop("delta")
        if set(params) != {"decay"}:
            raise InvalidInputError(f"exponential kernel takes 'delta', got {sorted(params)}")
        return ExponentialKernel(as_number(params["decay"], "exponential kernel delta"))
    if name == "gaussian":
        if not set(params) <= {"mean", "std"} or "mean" not in params:
            raise InvalidInputError(f"gaussian kernel takes 'mean' and 'std', got {sorted(params)}")
        return GaussianKernel(as_number(params["mean"], "gaussian kernel mean"),
                              as_number(params.get("std", 4.0), "gaussian kernel std"))
    if name == "uniform":
        if not set(params) <= {"start", "scale"} or "start" not in params:
            raise InvalidInputError(f"uniform kernel takes 'start' and 'scale', got {sorted(params)}")
        return UniformKernel(as_number(params["start"], "uniform kernel start"),
                             as_number(params.get("scale", 4.0), "uniform kernel scale"))
    raise InvalidInputError(f"unknown kernel type {name!r}")


def kernel_to_config(kernel: DecayKernel) -> dict:
    """Inverse of :func:`kernel_from_config`."""
    if isinstance(kernel, ExponentialKernel):
        return {"type": "exponential", "delta": kernel.decay}
    if isinstance(kernel, GaussianKernel):
        return {"type": "gaussian", "mean": kernel.mean, "std": kernel.std}
    if isinstance(kernel, UniformKernel):
        return {"type": "uniform", "start": kernel.start, "scale": kernel.scale}
    raise UnsupportedKernelError(f"unknown kernel {kernel!r}")
