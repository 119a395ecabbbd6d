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

``fit_batch`` fits several parent sets of one event type together. Each
fit is one generator, ``_squarem``, that yields the next point it needs
mapped, held as Python floats, and holds its own path. Every pass maps the
point of each running fit in one ``_em_iteration`` call, so the numpy call
overhead of a map is paid once per pass instead of once per fit, and sends
each fit its result; finished fits leave the pass. Past copying the points
into work rows, a pass calls numpy for its cell-sized work only: per point the
two matrix-vector products, and over all points ``+ mu``, ``log``, the
stacked dot products, the divide and the row sums. Each share, ``mu'`` and
``alpha'`` is then Python float arithmetic on those results, in the order
of the numpy expressions it stands for. The jump's step norm is
``math.hypot`` over a point's coordinates, so every step, jump, acceptance
and stop is the float of a fit run alone. ``fit_type`` is a batch of one.
A fit does not depend on its batch: each parent set's feature block is
``width x cells``, one row per channel, with every row at a 64-byte-aligned
address (see :class:`hawkesnet.likelihood.TypeBatch`); and every product
and sum of a point is a BLAS call or a row reduction of its own, so no
float depends on the batch size or on the point's position in it. A
memoized fit therefore equals a fresh one bit for bit.

A fit can stop early (branch and bound over EM maps). After each map,
Cover's bound at the mapped point, ``counts . log(lam) + N ln max(r) - N``
(see :func:`duality_gap`), caps the share any fit of the parent set can
reach, and so the share this fit ends with. It comes from that map's own
ratios, ``r_mu = sum(ratio) / (grid_cells * dt)`` and ``r_alpha =
weighted / charges``, at a few Python float operations per fit and no
numpy call, and is computed only for fits whose share is still below their
floor (it is never below the share). A fit whose least bound so far, raised
by the rounding margin ``_SCREEN_MARGIN * (|share| + 1)``, falls below its
floor by a map that did not finish it stops there and comes back as a
:class:`PausedFit` holding that bound and its maps, and no state: a fit
that is needed after all is fitted again from the start, and, being a pure
function of (data, type, parents), ends bit for bit as the fit run straight
through. Floors may rise during a batch, as fits in it converge.

Event types are coupled only through shared features, never through shared
parameters, so each type is fitted independently. The log-likelihood of
accepted points is nondecreasing:
plain EM maps never lower it (standard EM guarantee for this Poisson
mixture) and a jump is only accepted above ``x1``.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

import numpy as np

from .errors import DegenerateModelError, InvalidInputError
from .features import FeatureCache
from .graph import ThpParams
from .likelihood import batch_log_likelihood, type_batch
from .values import Frozen

__all__ = [
    "EmConfig",
    "PausedFit",
    "TypeFit",
    "duality_gap",
    "fit_batch",
    "fit_type",
]

# the start's alpha on every channel with a positive feature total
_ALPHA_START = 0.05
# SQUAREM step bound: starts at 1 (plain EM), grows by this factor after an
# accepted jump at the bound and shrinks by it after a rejected one
_STEP_FACTOR = 4.0
# Rounding margin on Cover's bound: a bound on a share s is raised by
# _SCREEN_MARGIN * (|s| + 1) before anything is ruled out on it, far above
# the rounding error of computing either the bound or the share.
_SCREEN_MARGIN = 1e-9


class EmConfig(Frozen):
    """Stopping policy for the EM loop."""

    __slots__ = ("max_iterations", "rel_tolerance")

    def __init__(self, max_iterations: int = 100, rel_tolerance: float = 1e-6):
        if max_iterations < 1:
            raise InvalidInputError("max_iterations must be >= 1")
        if not (rel_tolerance >= 0):
            raise InvalidInputError("rel_tolerance must be >= 0")
        self._set(max_iterations=max_iterations, rel_tolerance=rel_tolerance)


class TypeFit(NamedTuple):
    """Fitted parameters and likelihood share of a single event type."""

    event_type: int
    parents: tuple
    mu: float
    alpha: np.ndarray  # (len(parents), max_hops + 1)
    log_lik: float
    trajectory: tuple  # log-likelihoods of the accepted points
    iterations: int  # EM maps, plus the final rescore of a fit the cap stopped
    converged: bool


class PausedFit(NamedTuple):
    """A fit :func:`fit_batch` stopped once its bound fell below its floor.

    ``bound`` caps the share the fit can reach: its least Cover bound, raised
    by the rounding margin; ``maps`` counts the EM maps it ran. A fit is a
    pure function of (data, type, parents), so fitting its parent set again
    gives the fit run straight through.
    """

    event_type: int
    parents: tuple
    bound: float
    maps: int


def _em_iteration(mu, alpha, data, blocks, watched=None):
    """One EM iteration of each point: ``(log_lik of (mu, alpha), mu', alpha',
    bound)``.

    ``data`` is a :class:`~hawkesnet.likelihood.TypeBatch` and ``(mu[j],
    alpha[j])`` a point on its parent set ``blocks[j]``; a point with zero
    intensity at an occupied cell scores ``-inf``. Channels whose feature
    totals vanish keep ``alpha = 0``. Points may come in as any sequences
    of numbers and go out as lists of Python floats. Past the cell-sized products of
    :func:`~hawkesnet.likelihood.batch_log_likelihood` and ``flat @ ratio``,
    the updates are Python float arithmetic in the order of
    ``mu * sum(ratio) / (grid_cells * dt)`` and ``alpha * weighted /
    charges``, so each coordinate is the float numpy would compute.

    ``bound[j]``, for each ``(j, floor)`` in ``watched`` whose share is below
    ``floor`` (the bound is never below the share), is Cover's
    bound at point ``j`` (see :func:`duality_gap`) on the share its parent
    set can reach, ``log_lik + N ln max(r) + c.x - N = counts . log(lam) + N
    ln max(r) - N``, from the same ratios ``r_mu = sum(ratio) / (grid_cells
    * dt)`` and ``r_alpha = weighted / charges``, raised by the rounding
    margin; it is ``inf`` elsewhere, and where the share is not finite.
    """
    lam, log_lik, log_sums = batch_log_likelihood(mu, alpha, data, blocks)
    ratio = np.divide(data.counts, lam, out=lam)
    weighted = data.width_rows[: len(blocks)]  # flat @ ratio, one row per point
    for j, b in enumerate(blocks):
        np.matmul(data.flat[b], ratio[j], out=weighted[j])
    scale, events = data.grid_cells * data.bin_width, data.events
    sums, rows = ratio.sum(axis=1).tolist(), weighted.tolist()
    mu = [rate * total / scale for rate, total in zip(mu, sums)]
    # a charge that underflowed to 0 gives numpy's inf or nan, not an error
    alpha = [
        [0.0 if c is None else a * w / c if c else a * w * math.inf
         for a, w, c in zip(point, row, data.charges[b])]
        for point, row, b in zip(alpha, rows, blocks)
    ]
    bound = [math.inf] * len(blocks)
    for j, floor in watched or ():
        value = log_lik[j]
        if value < floor and math.isfinite(value):
            # a nan ratio (0 over an underflowed charge) loses every comparison, and so any bound
            best = max(sums[j] / scale, max(map(operator.mul, rows[j], data.inverse[blocks[j]]), default=0.0))
            if best > 0.0:
                margin = _SCREEN_MARGIN * (abs(value) + 1.0)
                bound[j] = log_sums[j] + events * math.log(best) - events + margin
    return log_lik, mu, alpha, bound


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
    the first coordinate of ``r`` and ``v``. The arithmetic runs per
    coordinate on Python floats, in the order of the numpy expressions it
    stands for, so every coordinate is their float; ``math.hypot`` takes all
    coordinates at once.
    """
    (mu0, alpha0), (mu1, alpha1), (mu2, alpha2) = p0, p1, p2
    x0, x1 = (mu0, *alpha0), (mu1, *alpha1)
    r = [b - a for a, b in zip(x0, x1)]
    v = [c - b - d for b, c, d in zip(x1, (mu2, *alpha2), r)]
    v_norm = math.hypot(*v)
    step = min(max(math.hypot(*r) / v_norm, 1.0), step_max) if v_norm > 0.0 else 1.0
    if step == 1.0:
        return p2, step
    twice, square = 2.0 * step, step * step
    # max() keeps a nan, which then scores nan and is rejected
    jump = [max(a + twice * b + square * c, 0.0) for a, b, c in zip(x0, r, v)]
    return (jump[0], jump[1:]), step


def _squarem(x: tuple, config: EmConfig, event_type: int):
    """SQUAREM from the start ``x``, one EM map at a time.

    A generator: it yields each point it needs mapped and is sent back
    ``(log_lik of the point, F(point))``; points are ``(mu, alpha)`` pairs
    of Python floats. It returns ``(point, trajectory, converged)``. When
    the map cap ends the fit, the point is the newest one, not yet scored.
    """
    cap, tol = config.max_iterations, config.rel_tolerance

    def scored(mapped):  # x and x1 must score; a jump that scores -inf is rejected
        if mapped[0] == -math.inf:
            raise DegenerateModelError(f"zero intensity at an occupied cell of type {event_type}")
        return mapped

    def small(gain, log_lik):  # the stopping test: a gain within tolerance
        return abs(gain) <= tol * (abs(log_lik) + 1.0)

    log_lik, x1 = scored((yield x))
    maps, trajectory, step_max = 1, [log_lik], 1.0
    while maps < cap:
        ll_1, x2 = scored((yield x1))
        maps += 1
        jump, step = _extrapolate(x, x1, x2, step_max)
        # the map from x gained ll_1 - log_lik; with EM's linear rate rho
        # the path still holds about that gain times 1 / (1 - rho) ~ step
        if small(step * (ll_1 - log_lik), log_lik):
            return x1, trajectory + [ll_1], True
        if maps == cap:
            return x2, trajectory, False
        accepted = False
        if step > 1.0 and maps + 1 < cap:  # a rejected jump leaves a map for x2
            ll_jump, after_jump = yield jump
            maps += 1
            accepted = math.isfinite(ll_jump) and ll_jump >= ll_1
        if step == step_max:  # a unit step is x2, which EM always accepts
            grow = accepted or step == 1.0
            step_max = step_max * _STEP_FACTOR if grow else max(1.0, step_max / _STEP_FACTOR)
        if accepted:
            x, log_lik, x1 = jump, ll_jump, after_jump
        else:
            x, (log_lik, x1) = x2, scored((yield x2))
            maps += 1
        trajectory.append(log_lik)
        if not accepted and small(log_lik - trajectory[-2], trajectory[-2]):
            return x, trajectory, True
    return x1, trajectory, False


def fit_batch(
    event_type: int,
    parent_sets,
    cache: FeatureCache,
    config: EmConfig = EmConfig(),
    floors=None,
) -> list:
    """Fit ``mu`` and the incoming ``alpha`` of one event type, per parent set.

    The parent sets all have the same number of parents. All sets are fitted
    together, and each fit is bit for bit the :func:`fit_type` of its set. A
    type id outside ``[0, type_count)`` raises :class:`InvalidInputError`.

    ``floors``, if given, lets fits stop early. Called with the shares of
    the fits converged so far (a dict by position; at first empty), it
    returns a floor per fit, and is called again whenever more fits
    converge. Once a fit's Cover bound falls below its floor, the fit cannot
    reach a share of the floor; unless the map that showed it also ended the
    fit, it comes back as a :class:`PausedFit` instead of a :class:`TypeFit`.
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

    empirical_rate = float(data.counts.sum() / (data.grid_cells * data.bin_width))
    fits = [_squarem((empirical_rate, np.where(totals > 0, _ALPHA_START, 0.0).tolist()), config, event_type)
            for totals in data.totals]
    n = len(fits)
    pending, results = [next(fit) for fit in fits], [None] * n
    maps, bounds = [0] * n, [math.inf] * n
    running, shares = list(range(n)), {}
    floors = floors or (lambda shares: [-math.inf] * n)
    level = floors(shares)
    with np.errstate(all="ignore"):  # a jump may overflow or leave the domain; it is then rejected
        while running:
            known = len(shares)
            watched = [(i, level[j]) for i, j in enumerate(running) if level[j] > -math.inf]
            log_lik, mu, alpha, cover = _em_iteration(*zip(*(pending[j] for j in running)), data, running,
                                                      watched)
            for j, value, image, bound in zip(running, log_lik, zip(mu, alpha), cover):
                maps[j] += 1
                if bound < bounds[j]:
                    bounds[j] = bound
                try:
                    pending[j] = fits[j].send((value, image))
                except StopIteration as stop:
                    results[j] = stop.value
                    if stop.value[2]:
                        shares[j] = stop.value[1][-1]
            if len(shares) > known:  # a fit converged: floors may rise
                level = floors(shares)
            running = [j for j in running if results[j] is None and not bounds[j] < level[j]]
        capped = [j for j, result in enumerate(results) if result is not None and not result[2]]
        if capped:  # one rescore of the newest point, counted as a map
            _, rescored, _ = batch_log_likelihood(*zip(*(results[j][0] for j in capped)), data, capped)
            for j, value in zip(capped, rescored):
                results[j][1].append(value)
                maps[j] += 1
    fitted = []
    for parents, result, evaluations, bound in zip(parent_sets, results, maps, bounds):
        if result is None:
            fitted.append(PausedFit(event_type, parents, bound, evaluations))
            continue
        (rate, point), trajectory, converged = result
        alpha = np.array(point, dtype=float).reshape(len(parents), hops)
        fitted.append(TypeFit(event_type, parents, float(rate), alpha, trajectory[-1], tuple(trajectory),
                              evaluations, converged))
    return fitted


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

