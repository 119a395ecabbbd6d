"""EM fitting of the rate parameters for a fixed causal graph.

Each event at an occupied cell is softly attributed to its possible origins:
the background rate of its own type, or an (edge, hop) excitation channel.
Summed over cells, those responsibilities give closed-form updates:

    mu_v    <- sum_cells q_bg * X / (node_count * bin_count * dt)
    alpha_e <- sum_cells q_e  * X / (totals_e * dt)

The responsibilities are never materialized: ``q_bg = mu / lam`` and
``q_e = alpha_e * feature_e / lam``, so both sums need only ``X / lam`` at
the occupied cells. One iteration (``_em_iteration``) scores the current point
with the shared per-type likelihood of :mod:`hawkesnet.likelihood` and
returns the update; ``fit_type`` runs it to convergence.

Event types are coupled only through shared features, never through shared
parameters, so each type is fitted independently; a joint trajectory is the
per-iteration sum. Per-iteration log-likelihood is nondecreasing (standard
EM guarantee for this Poisson mixture).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateModelError, InvalidInputError
from .features import FeatureCache
from .likelihood import CausalGraph, ThpParams, TypeData, type_data, type_log_likelihood

__all__ = [
    "EmConfig",
    "TypeFit",
    "FitResult",
    "type_seed",
    "fit_type",
    "fit",
]

# initialization draws: mu ~ U(0.5, 1.5) * empirical rate, alpha ~ U(0, 0.1)
_MU_INIT_RANGE = (0.5, 1.5)
_ALPHA_INIT_RANGE = (0.0, 0.1)


@dataclass(frozen=True)
class EmConfig:
    """Stopping and restart policy for the EM loop."""

    max_iterations: int = 100
    rel_tolerance: float = 1e-6
    restarts: int = 1

    def __post_init__(self):
        if self.max_iterations < 1:
            raise InvalidInputError("max_iterations must be >= 1")
        if not (self.rel_tolerance >= 0):
            raise InvalidInputError("rel_tolerance must be >= 0")
        if self.restarts < 1:
            raise InvalidInputError("restarts must be >= 1")


@dataclass(frozen=True)
class TypeFit:
    """Fitted parameters and likelihood share of a single event type."""

    event_type: int
    parents: tuple
    mu: float
    alpha: np.ndarray = field(repr=False)  # (len(parents), max_hops + 1)
    log_lik: float
    trajectory: tuple
    iterations: int
    converged: bool


@dataclass(frozen=True)
class FitResult:
    """Joint fit over all types."""

    params: ThpParams
    log_lik: float
    trajectory: tuple
    iterations: int
    converged: bool
    type_fits: tuple


def type_seed(seed: int, event_type: int, parents) -> np.random.SeedSequence:
    """Deterministic per-(type, parent-set) seed.

    A fit is a pure function of (data, type, parents, seed): the same parent
    set always draws the same initialization, so cached scores and fresh
    refits agree bit for bit.
    """
    parents = tuple(int(p) for p in parents)
    return np.random.SeedSequence(
        entropy=(int(seed), int(event_type), len(parents)) + parents
    )


def _em_iteration(mu, alpha: np.ndarray, data: TypeData) -> tuple[float, float, np.ndarray]:
    """One EM iteration of one type: ``(log_lik of (mu, alpha), mu', alpha')``.

    Raises :class:`DegenerateModelError` if an occupied cell has zero
    intensity. Channels whose feature totals vanish keep ``alpha = 0``.
    """
    lam, log_lik = type_log_likelihood(mu, alpha, data)
    if log_lik == float("-inf"):
        raise DegenerateModelError(
            f"zero intensity at an occupied cell of type {data.event_type}"
        )
    ratio = data.counts / lam
    dt = data.bin_width
    active = data.totals > 0
    mu = mu * ratio.sum() / (data.grid_cells * dt)
    alpha = np.where(
        active, alpha * (data.flat.T @ ratio) / np.where(active, data.totals * dt, 1.0), 0.0
    )
    return log_lik, mu, alpha


def fit_type(
    event_type: int,
    parents,
    cache: FeatureCache,
    config: EmConfig = EmConfig(),
    seed=0,
) -> TypeFit:
    """Fit ``mu`` and the incoming ``alpha`` of one event type.

    ``seed`` may be an int or a :class:`numpy.random.SeedSequence`. With
    multiple restarts the best final log-likelihood wins.
    """
    parents = tuple(sorted(int(p) for p in parents))
    data = type_data(cache, event_type, parents)
    if data.counts.shape[0] == 0:
        # no events of this type: rates collapse to zero, contribution 0
        return TypeFit(
            event_type=event_type,
            parents=parents,
            mu=0.0,
            alpha=np.zeros((len(parents), cache.max_hops + 1)),
            log_lik=0.0,
            trajectory=(0.0,),
            iterations=0,
            converged=True,
        )

    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(int(seed))
    empirical_rate = data.counts.sum() / (data.grid_cells * data.bin_width)

    best: tuple | None = None
    for child in root.spawn(config.restarts):
        rng = np.random.default_rng(child)
        mu = rng.uniform(*_MU_INIT_RANGE) * empirical_rate
        alpha = rng.uniform(*_ALPHA_INIT_RANGE, size=data.totals.shape[0])
        alpha[data.totals <= 0] = 0.0

        trajectory = []
        for _ in range(config.max_iterations):
            current, next_mu, next_alpha = _em_iteration(mu, alpha, data)
            converged = bool(trajectory) and abs(current - trajectory[-1]) <= (
                config.rel_tolerance * (abs(trajectory[-1]) + 1.0)
            )
            trajectory.append(current)
            if converged:
                break
            mu, alpha = next_mu, next_alpha
        else:
            # ran out of iterations after an update: score the final point
            trajectory.append(type_log_likelihood(mu, alpha, data)[1])
        if best is None or trajectory[-1] > best[0]:
            best = (trajectory[-1], mu, alpha, trajectory, converged)

    final_ll, mu, alpha, trajectory, converged = best
    return TypeFit(
        event_type=event_type,
        parents=parents,
        mu=float(mu),
        alpha=alpha.reshape(len(parents), cache.max_hops + 1),
        log_lik=final_ll,
        trajectory=tuple(trajectory),
        iterations=len(trajectory),
        converged=converged,
    )


def assemble_params(type_fits, max_hops: int) -> ThpParams:
    """Combine per-type fits into one :class:`ThpParams`."""
    fits = sorted(type_fits, key=lambda f: f.event_type)
    mu = np.array([f.mu for f in fits])
    alpha = {}
    for f in fits:
        for j, c in enumerate(f.parents):
            alpha[(c, f.event_type)] = f.alpha[j]
    return ThpParams(mu=mu, alpha=alpha, max_hops=max_hops)


def fit(
    graph: CausalGraph,
    cache: FeatureCache,
    config: EmConfig = EmConfig(),
    seed: int = 0,
) -> FitResult:
    """Fit all types of a fixed graph; trajectory is the per-iteration sum.

    Shorter per-type trajectories are padded with their final value, so the
    summed trajectory keeps the nondecreasing property.
    """
    if graph.type_count != cache.type_count:
        raise InvalidInputError(
            f"graph covers {graph.type_count} types, cache {cache.type_count}"
        )
    fits = [
        fit_type(v, graph.parents(v), cache, config, type_seed(seed, v, graph.parents(v)))
        for v in range(graph.type_count)
    ]
    joint = np.zeros(max(len(f.trajectory) for f in fits))
    for f in fits:
        traj = np.asarray(f.trajectory)
        joint[: traj.shape[0]] += traj
        joint[traj.shape[0] :] += traj[-1]
    return FitResult(
        params=assemble_params(fits, cache.max_hops),
        log_lik=float(sum(f.log_lik for f in fits)),
        trajectory=tuple(float(x) for x in joint),
        iterations=joint.shape[0],
        converged=all(f.converged for f in fits),
        type_fits=tuple(fits),
    )
