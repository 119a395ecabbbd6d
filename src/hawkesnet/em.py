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

``fit_batch`` fits several parent sets of one event type together. The
running fits are rows of state lists (accepted point, its maps, their
log-likelihoods, step bound, maps, phase of the cycle, trajectory, Cover
bound), points held as Python floats: every pass maps the next point of each running row
in one ``_em_iteration`` call, so the numpy call overhead of a map is paid
once per pass instead of once per fit, then moves each row one step along
its cycle; finished rows leave the pass. Past copying the points into
work rows, a pass calls numpy for its cell-sized work only: per point the
two matrix-vector products, and over all points ``+ mu``, ``log``, the
stacked dot products, the divide and the row sums. Each share, ``mu'`` and
``alpha'`` is then Python float arithmetic on those results, in the order
of the numpy expressions it stands for, and the totals the dot products
read are stacked once per set of running rows, not once per pass. The
jump's step norm is ``math.hypot`` over a row's coordinates, so every step,
jump, acceptance and stop is the float of a fit run alone. ``fit_type`` is
a batch of one. A fit
does not depend on its batch: each parent set's feature block is ``width x
cells``, one row per channel, with every row at a 64-byte-aligned address
(see :class:`hawkesnet.likelihood.TypeBatch`); and every product and sum of
a point is a BLAS call or a row reduction of its own, so no float depends
on the batch size or on the point's position in it. A memoized fit
therefore equals a fresh one bit for bit.

A fit can stop early (branch and bound over EM maps). After each map,
Cover's bound at the mapped point, ``counts . log(lam) + N ln max(r) - N``
(see :func:`duality_gap`), caps the share any fit of the parent set can
reach, and so the share this fit ends with. It comes from that map's own
ratios, ``r_mu = sum(ratio) / (grid_cells * dt)`` and ``r_alpha =
weighted / charges``, at a few Python float operations per fit and no
numpy call, and is computed only for fits whose share is still below their
floor (it is never below the share). A fit whose
least bound so far, raised by the rounding margin ``_SCREEN_MARGIN *
(|share| + 1)``, falls below its floor leaves the pass between two maps and
comes back as a :class:`PausedFit` holding its whole state row. Passed back
to ``fit_batch``, it continues from that row: every map depends on the row
alone, so the resumed fit ends bit for bit as the fit run straight through.
Floors may rise during a batch, as fits in it converge.

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
from .likelihood import TypeBatch, batch_log_likelihood, type_batch
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


class _Row(NamedTuple):
    """One fit's SQUAREM state between two maps (see :func:`_fit_points`)."""

    x: tuple  # the accepted point
    pending: tuple  # the point mapped next
    x1: tuple
    x2: tuple
    ll_x: float
    ll_1: float
    step: float
    step_max: float
    maps: int
    phase: int
    trajectory: list
    bound: float  # least Cover bound (plus margin) on the share, over the points mapped


class PausedFit(NamedTuple):
    """A fit :func:`fit_batch` stopped once its bound fell below its floor.

    ``bound`` caps the share the fit can reach: its least Cover bound, raised
    by the rounding margin. Passed back to :func:`fit_batch` in place of its
    parent set, the fit continues from ``state`` and ends bit for bit as if
    it had never stopped.
    """

    event_type: int
    parents: tuple
    bound: float
    state: _Row

    @property
    def maps(self) -> int:
        return self.state.maps


def _em_iteration(mu, alpha, data, blocks, watched=None):
    """One EM iteration of each point: ``(log_lik of (mu, alpha), mu', alpha',
    bound)``.

    ``data`` is a :class:`TypeBatch` and ``(mu[j], alpha[j])`` a point on
    its parent set ``blocks[j]``; a point with zero intensity at an occupied
    cell scores ``-inf``. Channels whose feature totals vanish keep
    ``alpha = 0``. Points may come in as any sequences of numbers and go out
    as lists of Python floats. Past the cell-sized products of
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


def _small(gain: float, log_lik: float, rel_tolerance: float) -> bool:
    """The stopping test: a log-likelihood ``gain`` from ``log_lik`` within tolerance."""
    return abs(gain) <= rel_tolerance * (abs(log_lik) + 1.0)


@np.errstate(all="ignore")  # a jump may overflow or leave the domain; it is then rejected
def _fit_points(rows: list, data: TypeBatch, config: EmConfig, floors) -> list:
    """SQUAREM from each row in ``rows``, the fields of a :class:`_Row`, row
    ``j`` on parent set ``j``.

    Fit ``j`` is row ``j`` of the state lists: its accepted point ``x``,
    ``x1 = F(x)``, ``x2 = F(x1)``, the point it needs mapped next, their
    log-likelihoods, the step and its bound, its maps, phase, trajectory
    and least Cover bound; points are ``(mu, alpha)`` pairs of Python
    floats. Every pass maps the next point of each running row in one
    :func:`_em_iteration` call, then advances each row by one step of the
    cycle, so each row takes the path it takes alone; a finished row leaves
    the running list, and so does a row whose bound has fallen below its
    floor: it pauses between two maps. ``floors(converged)`` gives every
    row's floor, given the shares of the rows converged so far; it is
    asked again after each pass in which a row converged. Returns the
    state lists, in the order of the fields of a :class:`_Row` (phase 3
    once finished), and whether each row converged. A capped row ends with
    one rescore of its last point, counted in ``maps``; a paused row,
    passed back in, continues as if never stopped.
    """
    n, cap, tol = len(rows), config.max_iterations, config.rel_tolerance
    x, pending, x1, x2, ll_x, ll_1, step, step_max, maps, phase, trajectories, bound = map(list, zip(*rows))
    converged = [False] * n  # phase: 0 maps x, 1 maps x1, 2 maps the jump; 3 done, pending is the result
    running, shares, converging = list(range(n)), {}, []
    level, watched = floors(shares), None
    while running:
        if watched is None:  # the rows whose bound can stop them, by position among the running
            watched = [(i, level[j]) for i, j in enumerate(running) if level[j] > -math.inf]
        log_lik, mu, alpha, bounds = _em_iteration(*zip(*(pending[j] for j in running)), data, running,
                                                   watched)
        for j, value, image, cover in zip(running, log_lik, zip(mu, alpha), bounds):
            maps[j] += 1
            if cover < bound[j]:
                bound[j] = cover
            trajectory = trajectories[j]
            if phase[j] < 2 and value == -math.inf:
                raise DegenerateModelError(f"zero intensity at an occupied cell of type {data.event_type}")
            if phase[j] == 1:  # x1 scored: stop, jump, or step on to x2
                x2[j], ll_1[j] = image, value
                jump, step[j] = _extrapolate(x[j], x1[j], image, step_max[j])
                # the map from x gained value - ll_x; with EM's linear rate rho
                # the path still holds about that gain times 1 / (1 - rho) ~ step
                if _small(step[j] * (value - ll_x[j]), ll_x[j], tol):
                    trajectory.append(value)
                    pending[j], phase[j], converged[j] = x1[j], 3, True
                    converging.append(j)
                elif maps[j] == cap:
                    pending[j], phase[j] = image, 3
                elif step[j] > 1.0 and maps[j] + 1 < cap:  # a rejected jump leaves a map for x2
                    pending[j], phase[j] = jump, 2
                else:
                    if step[j] == step_max[j]:  # a unit step is x2, which EM always accepts
                        step_max[j] = step_max[j] * _STEP_FACTOR if step[j] == 1.0 else max(
                            1.0, step_max[j] / _STEP_FACTOR)
                    x[j] = pending[j] = image
                    phase[j] = 0
                continue
            if phase[j] == 2:  # the jump scored: keep it if finite and at least x1's
                accepted = math.isfinite(value) and value >= ll_1[j]
                if step[j] == step_max[j]:
                    step_max[j] = step_max[j] * _STEP_FACTOR if accepted else max(
                        1.0, step_max[j] / _STEP_FACTOR)
                if not accepted:  # fall back to x2, which is not yet scored
                    x[j] = pending[j] = x2[j]
                    phase[j] = 0
                    continue
                x[j] = pending[j]
                done = False
            else:  # x scored: the start, or x2 after a rejected or skipped jump
                done = bool(trajectory) and _small(value - trajectory[-1], trajectory[-1], tol)
            trajectory.append(value)
            ll_x[j], x1[j] = value, image
            if done:
                pending[j], phase[j], converged[j] = x[j], 3, True
                converging.append(j)
            else:  # map x1 next; out of maps, x1 (the newest point) is the result
                pending[j], phase[j] = image, 1 if maps[j] < cap else 3
        if converging:
            shares.update((j, trajectories[j][-1]) for j in converging)
            converging.clear()
            level, watched = floors(shares), None
        kept = [j for j in running if phase[j] < 3 and not bound[j] < level[j]]
        if len(kept) < len(running):
            watched = None
        running = kept
    capped = [j for j in range(n) if phase[j] == 3 and not converged[j]]
    if capped:
        _, rescored, _ = batch_log_likelihood(*zip(*(pending[j] for j in capped)), data, capped)
        for j, value in zip(capped, rescored):
            trajectories[j].append(value)
            maps[j] += 1
    return (x, pending, x1, x2, ll_x, ll_1, step, step_max, maps, phase, trajectories, bound), converged


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
    reach a share of the floor, and it comes back as a :class:`PausedFit`
    instead of a :class:`TypeFit`. An entry of ``parent_sets`` may be such a
    :class:`PausedFit`, which continues where it stopped.
    """
    paused = [entry if isinstance(entry, PausedFit) else None for entry in parent_sets]
    parent_sets = [tuple(sorted(int(p) for p in parents)) if was is None else was.parents
                   for parents, was in zip(parent_sets, paused)]
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
    rows = []
    for totals, was in zip(data.totals, paused):
        if was is None:
            start = (empirical_rate, np.where(totals > 0, _ALPHA_START, 0.0).tolist())
            rows.append((start, start, None, None, 0.0, 0.0, 1.0, 1.0, 0, 0, [], math.inf))
        else:  # a copy of its trajectory, so the paused fit stays as it was
            rows.append(was.state._replace(trajectory=list(was.state.trajectory)))
    state, converged = _fit_points(rows, data, config,
                                   (lambda shares: [-math.inf] * len(rows)) if floors is None else floors)
    _, points, *_, maps, phases, trajectories, bounds = state
    return [
        TypeFit(
            event_type=event_type,
            parents=parents,
            mu=float(mu),
            alpha=np.array(alpha, dtype=float).reshape(len(parents), hops),
            log_lik=trajectory[-1],
            trajectory=tuple(trajectory),
            iterations=evaluations,
            converged=done,
        ) if phase == 3 else PausedFit(event_type, parents, bound, _Row(*(field[j] for field in state)))
        for j, (parents, (mu, alpha), trajectory, done, evaluations, phase, bound) in enumerate(
            zip(parent_sets, points, trajectories, converged, maps, phases, bounds))
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

