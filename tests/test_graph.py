"""The plain-data graph model: parameters are tuples copied from their inputs."""

from __future__ import annotations

import numpy as np

from hawkesnet.graph import ThpParams


def test_params_do_not_follow_the_arrays_they_were_built_from():
    mu, row = np.array([0.1, 0.2]), np.array([0.3, 0.4])
    alpha = {(0, 1): row}
    params = ThpParams(mu=mu, alpha=alpha, max_hops=1)
    mu[0] = -5.0
    row[:] = 7.0
    alpha[(1, 0)] = np.array([1.0, 1.0])
    assert tuple(params.mu) == (0.1, 0.2)
    assert {edge: tuple(a) for edge, a in params.alpha.items()} == {(0, 1): (0.3, 0.4)}
    assert type(params.mu) is tuple and all(type(x) is float for x in params.mu)
    assert all(type(a) is tuple for a in params.alpha.values())
