"""EM fitting of the rate parameters for a fixed causal graph.

Each event at an occupied cell is softly attributed to its possible origins:
the background rate of its own type, or an (edge, hop) excitation channel.
Summed over cells, those responsibilities give closed-form updates:

    mu_v    <- sum_cells q_bg * X / (node_count * bin_count * dt)
    alpha_e <- sum_cells q_e  * X / (totals_e * dt)

The responsibilities are never materialized: ``q_bg = mu / lam`` and
``q_e = alpha_e * feature_e / lam``, so both sums need only ``X / lam`` at
the occupied cells. One EM map (``_em_iteration``) scores points with
the shared per-type likelihood of :mod:`hawkesnet.likelihood` and returns
their updates.

``fit_batch`` accelerates that map with SQUAREM (Varadhan & Roland 2008,
*Scand. J. Statist.* 35:335, scheme SqS3): from an accepted point ``x0``
it takes two maps ``x1 = F(x0)``, ``x2 = F(x1)``, then jumps to
``x0 - 2 s r + s^2 v`` with ``r = x1 - x0``, ``v = x2 - 2 x1 + x0`` and
``s = -|r| / |v|`` clamped to ``[-step_max, -1]`` (``s = -1`` is ``x2``
itself), projected onto ``mu, alpha >= 0``. The jump is scored once, by
the map that continues from it; it is accepted if its log-likelihood is
finite and at least that of ``x1``, and otherwise the fit falls back to the
plain EM point ``x2``. ``step_max`` starts at 1 and adapts as in the
SQUAREM package (Du & Varadhan 2020, *J. Stat. Softw.* 92(7)): times 4
after an accepted jump at the bound, divided by 4 (not below 1) after a
rejected one, so early, nearly straight stretches of the EM path do not
waste maps on overshooting jumps. A unit step needs no jump map (it is the
plain EM path), and no jump is tried when only one map is left, so a fit
never ends on a rejected jump.

Every type's objective is concave, so the fixed point of the EM map is its
maximizer and extrapolating along the EM path reaches the same estimate in
far fewer maps, so fits that plain EM left at the map cap now converge.
``EmConfig.max_iterations`` caps the number of EM maps each fit takes
(a fit fitted alone makes one ``_em_iteration`` call per map), so no fit
does more work than plain EM under the same cap. The fit
stops when a plain EM step ``x0 -> x2`` gains at most ``rel_tolerance``
relative in log-likelihood, or when the map from an accepted point gains at
most that much once multiplied by the step length: for EM's linear rate
``rho`` the step estimates ``1 / (1 - rho)``, so the product estimates the
gain still left along the path (Aitken's delta-squared estimate). A small
gain onto an accepted jump does not stop the fit: the jump may land beside
the maximizer, and the map from it can still gain more than the jump did.
Fast paths stop as soon as plain EM would; slow ones, where one map gains
little but much remains, do not stop early.

Every fit starts from one interior point that depends on the data alone:
``mu`` is the type's empirical rate ``N / (grid_cells * dt)``, and ``alpha``
is ``_ALPHA_START`` on every channel whose feature total is positive and 0
elsewhere. The objective is concave, so the start only sets the path, and a
fit is a pure function of (data, type, parents).

``fit_batch`` fits several parent sets of one event type together. Each fit
runs the SQUAREM cycle above as a generator that yields the next point it
needs mapped; every pass gathers those points from all running fits and
applies ``_em_iteration`` to them in one call, so the numpy call overhead of
a map is paid once per pass instead of once per fit, and each fit follows
exactly the path it follows alone. ``fit_type`` is
a batch of one. A fit does not depend on its batch: each parent set's
feature block is ``width x cells``, one row per channel, with every row at
a 64-byte-aligned address (see :class:`hawkesnet.likelihood.TypeBatch`);
and every product and sum of a point is a BLAS call or a row reduction of
its own, so no float depends on the batch size or on the point's position
in it. A memoized fit therefore
equals a fresh one bit for bit.

Event types are coupled only through shared features, never through shared
parameters, so each type is fitted independently; a joint trajectory is the
per-iteration sum. The log-likelihood of accepted points is nondecreasing:
plain EM maps never lower it (standard EM guarantee for this Poisson
mixture) and a jump is only accepted above ``x1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateModelError, InvalidInputError
from .features import FeatureCache
from .graph import CausalGraph, ThpParams
from .likelihood import TypeBatch, batch_log_likelihood, type_batch

__all__ = [
    "EmConfig",
    "TypeFit",
    "FitResult",
    "duality_gap",
    "fit_batch",
    "fit_type",
    "fit",
]

# the start's alpha on every channel with a positive feature total
_ALPHA_START = 0.05
# SQUAREM step bound: starts at 1 (plain EM), grows by this factor after an
# accepted jump at the bound and shrinks by it after a rejected one
_STEP_FACTOR = 4.0


@dataclass(frozen=True)
class EmConfig:
    """Stopping policy for the EM loop."""

    max_iterations: int = 100
    rel_tolerance: float = 1e-6

    def __post_init__(self):
        if self.max_iterations < 1:
            raise InvalidInputError("max_iterations must be >= 1")
        if not (self.rel_tolerance >= 0):
            raise InvalidInputError("rel_tolerance must be >= 0")


@dataclass(frozen=True)
class TypeFit:
    """Fitted parameters and likelihood share of a single event type."""

    event_type: int
    parents: tuple
    mu: float
    alpha: np.ndarray = field(repr=False)  # (len(parents), max_hops + 1)
    log_lik: float
    trajectory: tuple  # log-likelihoods of the accepted points
    iterations: int  # EM maps, plus the final rescore of a fit the cap stopped
    converged: bool


@dataclass(frozen=True)
class FitResult:
    """Joint fit over all types."""

    params: ThpParams
    log_lik: float
    trajectory: tuple
    iterations: int  # of the type fit that took the most
    converged: bool
    type_fits: tuple


def _em_iteration(mu, alpha, data, blocks):
    """One EM iteration of each point: ``(log_lik of (mu, alpha), mu', alpha')``.

    ``data`` is a :class:`TypeBatch` and ``(mu[j], alpha[j])`` a point on
    its parent set ``blocks[j]``; a point with zero intensity at an occupied
    cell scores ``-inf``. Channels whose feature totals vanish keep
    ``alpha = 0``.
    """
    lam, log_lik = batch_log_likelihood(mu, alpha, data, blocks)
    ratio = np.divide(data.counts, lam, out=lam)
    weighted = data.width_rows[: len(blocks)]  # flat @ ratio, one row per point
    for j, b in enumerate(blocks):
        np.matmul(data.flat[b], ratio[j], out=weighted[j])
    mu = mu * ratio.sum(axis=1) / (data.grid_cells * data.bin_width)
    active = data.totals.take(blocks, axis=0) > 0
    alpha = np.where(active, alpha * weighted / data.charges.take(blocks, axis=0), 0.0)
    return log_lik, mu, alpha


def duality_gap(fit: TypeFit, cache: FeatureCache) -> tuple[float, np.ndarray]:
    """Cover's bound on how far ``fit``'s share lies below an optimum:
    ``(gap, added)``.

    At the fit's point ``x``, with ``q = X / lam`` at the type's occupied
    cells, the ratios of :func:`_em_iteration` are ``r_mu = sum(q) /
    (grid_cells * dt)`` and ``r_alpha = flat q / (dt * totals)``. The
    share is concave, and Jensen's inequality bounds its optimum ``f*`` over
    the fit's parent set:

        f* - f(x) <= gap = N ln max(r) + c.x - N,

    where N is the type's event count, ``c.x = dt (mu grid_cells + alpha .
    totals)``, and the max runs over ``mu`` and the channels whose total is
    positive (Cover 1984, *IEEE Trans. Inf. Theory* 30:369). The gap
    vanishes at the optimum.

    ``added[c]`` is the same bound with type ``c``'s channels in the max as
    well. It caps the optimum of the parent set with ``c`` added over the
    same share, since ``x`` with ``c``'s channels at 0 scores exactly that
    share. One matrix-vector product covers every ``c``. A type without
    events has gap 0.
    """
    # one row per (type, hop) channel, one column per cell of the type
    features, counts = cache.type_values[fit.event_type], cache.type_counts[fit.event_type]
    if features.shape[1] == 0:
        return 0.0, np.zeros(cache.type_count)
    hops, dt = cache.max_hops + 1, cache.bin_width
    rows = [c * hops + k for c in fit.parents for k in range(hops)]
    alpha = np.zeros(features.shape[0])  # the fit's alpha on every channel, 0 off its parents
    alpha[rows] = fit.alpha.reshape(-1)
    ratio = counts / (alpha @ features + fit.mu)
    charges = dt * cache.totals.reshape(-1)
    weighted = features @ ratio
    r_alpha = np.divide(weighted, charges, out=np.zeros_like(weighted), where=charges > 0)
    grid_cells = cache.node_count * cache.bin_count
    best = max(ratio.sum() / (grid_cells * dt), r_alpha[rows].max(initial=0.0))
    spent = dt * (fit.mu * grid_cells) + alpha @ charges
    events = float(counts.sum())
    added = np.maximum(best, r_alpha.reshape(-1, hops).max(axis=1))
    return (float(events * math.log(best) + spent - events),
            events * np.log(added) + spent - events)


def _extrapolate(p0: tuple, p1: tuple, p2: tuple, step_max: float) -> tuple[tuple, float]:
    """The SqS3 jump along the EM path ``p0 -> p1 -> p2``: ``(jump, step)``.

    ``step = |r| / |v|`` clamped to ``[1, step_max]``, and the jump
    ``p0 + 2 step r + step^2 v`` projected onto ``mu, alpha >= 0``; a unit
    step is ``p2`` itself. Points are ``(mu, alpha)`` pairs, with ``mu``
    the first coordinate of ``r`` and ``v``.
    """
    (mu0, alpha0), (mu1, alpha1), (mu2, alpha2) = p0, p1, p2
    r_mu, r = mu1 - mu0, alpha1 - alpha0
    v_mu, v = mu2 - mu1 - r_mu, alpha2 - alpha1 - r
    v_norm = math.hypot(v_mu, *v.tolist())
    step = min(max(math.hypot(r_mu, *r.tolist()) / v_norm, 1.0), step_max) if v_norm > 0.0 else 1.0
    if step == 1.0:
        return p2, step
    mu = max(mu0 + 2.0 * step * r_mu + step * step * v_mu, 0.0)
    alpha = alpha0 + (2.0 * step) * r + (step * step) * v
    return (mu, np.maximum(alpha, 0.0, out=alpha)), step


def _small(gain: float, log_lik: float, rel_tolerance: float) -> bool:
    """The stopping test: a log-likelihood ``gain`` from ``log_lik`` within tolerance."""
    return abs(gain) <= rel_tolerance * (abs(log_lik) + 1.0)


def _scored(mapped: tuple, event_type: int) -> tuple:
    """``mapped``, a ``(log_lik, F(point))`` pair, unless the point is degenerate."""
    if mapped[0] == float("-inf"):
        raise DegenerateModelError(f"zero intensity at an occupied cell of type {event_type}")
    return mapped


def _squarem(x: tuple, config: EmConfig, event_type: int):
    """SQUAREM from the point ``x``, one EM map at a time.

    A generator: it yields each point it needs mapped and is sent back
    ``(log_lik of the point, F(point))``, ``-inf`` for a point with zero
    intensity at an occupied cell. It returns ``(final point, trajectory,
    converged, maps)``. The trajectory holds the log-likelihoods of the
    accepted points and is nondecreasing; when the map cap ends the fit the
    caller appends the rescore of the final point, so a capped fit costs at
    most ``max_iterations + 1`` likelihood evaluations.
    """
    log_lik, x1 = _scored((yield x), event_type)
    maps = 1
    trajectory = [log_lik]
    newest = x1  # the latest unscored point on the monotone path
    step_max = 1.0
    while maps < config.max_iterations:
        ll1, x2 = _scored((yield x1), event_type)
        maps += 1
        newest = x2
        jump, step = _extrapolate(x, x1, x2, step_max)
        # the map from x gained ll1 - log_lik; with EM's linear rate rho the
        # path still holds about that gain times 1 / (1 - rho) ~ step
        if _small(step * (ll1 - log_lik), log_lik, config.rel_tolerance):
            trajectory.append(ll1)
            return x1, trajectory, True, maps
        if maps == config.max_iterations:
            break
        accepted = False
        if step > 1.0 and maps + 1 < config.max_iterations:  # a rejected jump leaves a map for x2
            maps += 1
            ll_jump, after_jump = yield jump
            accepted = math.isfinite(ll_jump) and ll_jump >= ll1
        if step == step_max:  # a unit step is x2, which EM always accepts
            grow = accepted or step == 1.0
            step_max = step_max * _STEP_FACTOR if grow else max(1.0, step_max / _STEP_FACTOR)
        if accepted:
            x, log_lik, x1 = jump, ll_jump, after_jump
        else:
            x = x2
            log_lik, x1 = _scored((yield x), event_type)
            maps += 1
        newest = x1
        converged = not accepted and _small(log_lik - trajectory[-1], trajectory[-1], config.rel_tolerance)
        trajectory.append(log_lik)
        if converged:
            return x, trajectory, True, maps
    # out of maps after an update: the caller scores the newest point
    return newest, trajectory, False, maps


@np.errstate(all="ignore")  # a jump may overflow or leave the domain; it is then rejected
def _fit_points(starts: list, data: TypeBatch, config: EmConfig) -> list:
    """Run :func:`_squarem` from each start, start ``j`` on parent set ``j``.

    Every pass maps the point each running fit needs next, all in one
    :func:`_em_iteration` call, so each fit takes the path it takes alone.
    Returns ``(point, trajectory, converged, evaluations)`` per start,
    ``evaluations`` counting EM maps plus the rescore of a capped fit.
    """
    fits = [_squarem(x, config, data.event_type) for x in starts]
    pending = {j: fit.send(None) for j, fit in enumerate(fits)}
    results = [None] * len(fits)
    while pending:
        live = list(pending)
        log_lik, mu, alpha = _em_iteration(
            np.array([pending[j][0] for j in live]),
            np.array([pending[j][1] for j in live]),
            data,
            live,
        )
        for j, ll, mu_j, alpha_j in zip(live, log_lik.tolist(), mu.tolist(), alpha):
            try:
                pending[j] = fits[j].send((ll, (mu_j, alpha_j)))
            except StopIteration as stop:
                del pending[j]
                results[j] = stop.value
    capped = [j for j, result in enumerate(results) if not result[2]]
    if capped:
        _, rescored = batch_log_likelihood(
            np.array([results[j][0][0] for j in capped]),
            np.array([results[j][0][1] for j in capped]),
            data,
            capped,
        )
        for j, value in zip(capped, rescored.tolist()):
            results[j][1].append(value)
    return [(point, trajectory, converged, maps + (not converged))
            for point, trajectory, converged, maps in results]


def fit_batch(
    event_type: int,
    parent_sets,
    cache: FeatureCache,
    config: EmConfig = EmConfig(),
) -> list[TypeFit]:
    """Fit ``mu`` and the incoming ``alpha`` of one event type, per parent set.

    The parent sets all have the same number of parents. All sets are fitted
    together, and each fit is bit for bit the :func:`fit_type` of its set. A
    type id outside ``[0, type_count)`` raises :class:`InvalidInputError`.
    """
    parent_sets = [tuple(sorted(int(p) for p in parents)) for parents in parent_sets]
    hops = cache.max_hops + 1
    data = type_batch(cache, event_type, parent_sets)
    if data.counts.shape[0] == 0:
        # no events of this type: rates collapse to zero, contribution 0
        return [
            TypeFit(event_type=event_type, parents=parents, mu=0.0,
                    alpha=np.zeros((len(parents), hops)), log_lik=0.0, trajectory=(0.0,),
                    iterations=0, converged=True)
            for parents in parent_sets
        ]

    empirical_rate = data.counts.sum() / (data.grid_cells * data.bin_width)
    starts = [(empirical_rate, np.where(totals > 0, _ALPHA_START, 0.0)) for totals in data.totals]
    results = _fit_points(starts, data, config)
    return [
        TypeFit(
            event_type=event_type,
            parents=parents,
            mu=float(mu),
            alpha=alpha.reshape(len(parents), hops).copy(),  # not a view of the batch's rows
            log_lik=trajectory[-1],
            trajectory=tuple(trajectory),
            iterations=evaluations,
            converged=converged,
        )
        for parents, ((mu, alpha), trajectory, converged, evaluations) in zip(parent_sets, results)
    ]


def fit_type(
    event_type: int,
    parents,
    cache: FeatureCache,
    config: EmConfig = EmConfig(),
) -> TypeFit:
    """Fit ``mu`` and the incoming ``alpha`` of one event type: :func:`fit_batch`
    with one parent set."""
    return fit_batch(event_type, [parents], cache, config)[0]


def assemble_params(type_fits, max_hops: int) -> ThpParams:
    """Combine per-type fits into one :class:`ThpParams`."""
    fits = sorted(type_fits, key=lambda f: f.event_type)
    mu = [f.mu for f in fits]
    alpha = {}
    for f in fits:
        for j, c in enumerate(f.parents):
            alpha[(c, f.event_type)] = f.alpha[j]
    return ThpParams(mu=mu, alpha=alpha, max_hops=max_hops)


def fit(
    graph: CausalGraph,
    cache: FeatureCache,
    config: EmConfig = EmConfig(),
) -> FitResult:
    """Fit all types of a fixed graph; trajectory is the per-iteration sum.

    Shorter per-type trajectories are padded with their final value, so the
    summed trajectory keeps the nondecreasing property.
    """
    if graph.type_count != cache.type_count:
        raise InvalidInputError(
            f"graph covers {graph.type_count} types, cache {cache.type_count}"
        )
    fits = [fit_type(v, graph.parents(v), cache, config) for v in range(graph.type_count)]
    joint = np.zeros(max(len(f.trajectory) for f in fits))
    for f in fits:
        traj = np.asarray(f.trajectory)
        joint[: traj.shape[0]] += traj
        joint[traj.shape[0] :] += traj[-1]
    return FitResult(
        params=assemble_params(fits, cache.max_hops),
        log_lik=float(sum(f.log_lik for f in fits)),
        trajectory=tuple(float(x) for x in joint),
        iterations=max(f.iterations for f in fits),
        converged=all(f.converged for f in fits),
        type_fits=tuple(fits),
    )
