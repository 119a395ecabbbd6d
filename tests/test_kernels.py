"""Decay kernels: values, parameter checks and the config round trip."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hawkesnet.errors import InvalidInputError
from hawkesnet.kernels import (
    ExponentialKernel,
    GaussianKernel,
    UniformKernel,
    evaluate,
    kernel_from_config,
    kernel_to_config,
)

from .oracles import oracle_kernel


def test_exponential_known_values():
    assert evaluate(ExponentialKernel(1.1), 1.0) == pytest.approx(0.332871, abs=1e-6)
    assert evaluate(ExponentialKernel(0.11), 1.0) == pytest.approx(0.895834, abs=1e-6)
    assert evaluate(ExponentialKernel(1.0), 0.0) == 0.0
    assert evaluate(ExponentialKernel(1.0), -3.0) == 0.0


def test_uniform_window_values():
    kernel = UniformKernel(start=10.0, scale=4.0)
    assert evaluate(kernel, 12.0) == pytest.approx(0.25, abs=1e-12)
    assert evaluate(kernel, 9.0) == 0.0
    # the window is open at both ends
    assert evaluate(kernel, 10.0) == 0.0
    assert evaluate(kernel, 14.0) == 0.0
    assert evaluate(kernel, 13.999) == pytest.approx(0.25, abs=1e-12)


def test_gaussian_density_values():
    kernel = GaussianKernel(mean=10.0, std=4.0)
    assert evaluate(kernel, 10.0) == pytest.approx(
        1.0 / (4.0 * math.sqrt(2.0 * math.pi)), abs=1e-12
    )
    assert evaluate(kernel, 0.0) == 0.0
    assert evaluate(kernel, -1.0) == 0.0
    assert evaluate(kernel, 6.0) == evaluate(kernel, 14.0)


@given(
    st.floats(min_value=0.01, max_value=5.0),
    st.floats(min_value=-2.0, max_value=50.0),
)
def test_exponential_matches_oracle(decay, t):
    got = evaluate(ExponentialKernel(decay), t)
    assert got == pytest.approx(oracle_kernel("exponential", t, decay=decay), abs=1e-12)


@given(
    st.floats(min_value=0.5, max_value=20.0),
    st.floats(min_value=0.5, max_value=8.0),
    st.floats(min_value=-2.0, max_value=50.0),
)
def test_gaussian_matches_oracle(mean, std, t):
    got = evaluate(GaussianKernel(mean, std), t)
    assert got == pytest.approx(
        oracle_kernel("gaussian", t, mean=mean, std=std), abs=1e-12
    )


@given(
    st.floats(min_value=0.0, max_value=20.0),
    st.floats(min_value=0.5, max_value=8.0),
    st.floats(min_value=-2.0, max_value=50.0),
)
def test_uniform_matches_oracle(start, scale, t):
    got = evaluate(UniformKernel(start, scale), t)
    assert got == pytest.approx(
        oracle_kernel("uniform", t, start=start, scale=scale), abs=1e-12
    )


@given(
    st.floats(min_value=0.05, max_value=3.0),
    st.floats(min_value=0.01, max_value=10.0),
    st.floats(min_value=0.01, max_value=10.0),
)
def test_exponential_semigroup(decay, a, b):
    kernel = ExponentialKernel(decay)
    left = evaluate(kernel, a + b)
    right = evaluate(kernel, a) * evaluate(kernel, b)
    assert left == pytest.approx(right, rel=1e-12)


def test_vectorized_evaluate():
    kernel = ExponentialKernel(0.5)
    times = np.array([-1.0, 0.0, 1.0, 2.0])
    got = evaluate(kernel, times)
    np.testing.assert_allclose(
        got, [0.0, 0.0, math.exp(-0.5), math.exp(-1.0)], atol=1e-15
    )


def test_kernel_parameter_validation():
    with pytest.raises(InvalidInputError):
        ExponentialKernel(0.0)
    with pytest.raises(InvalidInputError):
        ExponentialKernel(-1.0)
    for decay in (math.inf, math.nan):
        with pytest.raises(InvalidInputError):
            ExponentialKernel(decay)
    with pytest.raises(InvalidInputError):
        GaussianKernel(10.0, 0.0)
    with pytest.raises(InvalidInputError):
        UniformKernel(1.0, 0.0)
    with pytest.raises(InvalidInputError):
        UniformKernel(1.0, -2.0)


def test_config_round_trip():
    for kernel in (
        ExponentialKernel(0.7),
        GaussianKernel(9.0, 3.0),
        UniformKernel(5.0, 2.0),
    ):
        assert kernel_from_config(kernel_to_config(kernel)) == kernel


def test_config_accepts_delta_alias():
    kernel = kernel_from_config({"type": "exponential", "delta": 0.25})
    assert kernel == ExponentialKernel(0.25)


def test_config_rejects_unknown_fields():
    with pytest.raises(InvalidInputError):
        kernel_from_config({"type": "exponential", "delta": 1.0, "bogus": 2})
    with pytest.raises(InvalidInputError):
        kernel_from_config({"type": "sine"})
    with pytest.raises(InvalidInputError):
        kernel_from_config({"delta": 1.0})
    with pytest.raises(InvalidInputError):  # two spellings of one rate
        kernel_from_config({"type": "exponential", "delta": 0.2, "decay": 5})
