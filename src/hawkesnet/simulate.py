"""Discrete-time simulator and benchmark dataset generator.

The model draws independent Poisson counts
``X[n, v, t] ~ Poisson(lam_v(n, t) * dt)`` for every (node, type) cell and
bin, given the history so far. This is exactly the generative model the
likelihood scores, so fitted and generating parameters are directly
comparable. Events come out as an event table (:mod:`hawkesnet.events`) with
timestamps at bin centers ``(t + 0.5) * dt``, in (node, type) order per bin.

The simulator is event-driven: it visits only bins that hold an event. From
the current bin it draws the number of empty bins ahead by inverting their
total hazard against an ``Exp(1)`` draw (the time change of Ogata 1981 and
Dassios & Zhao 2013, on the bin grid). With an exponential kernel that hazard
has a closed form; Gaussian and uniform kernels have a finite window, so the
excitation already due in each bin of the window is kept in a ring and the
gap past the window is geometric on the background. In the occupied bin the
total is a zero-truncated Poisson draw split multinomially across cells, and
only the columns of the cells that fired update the excitation. The result
has the same distribution as drawing every bin in turn. The table's columns
are built once, from the cells and counts of every occupied bin.

A guard aborts with :class:`SimulationExplosionError` at the first bin
whose expected count exceeds a threshold in any cell, which is how
supercritical parameterizations surface.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidInputError,
    SimulationExplosionError,
    UnderGenerationWarning,
)
from .events import DiscreteDataset, discretize, event_table
from .kernels import (
    DecayKernel,
    ExponentialKernel,
    GaussianKernel,
    UniformKernel,
    evaluate,
    kernel_from_config,
    kernel_to_config,
)
from .graph import CausalGraph, ThpParams
from .topology import TopologyGraph, build_topology

__all__ = [
    "SimConfig",
    "BenchmarkData",
    "random_topology",
    "random_causal_graph",
    "draw_params",
    "simulate",
    "generate_benchmark",
]


@dataclass(frozen=True)
class SimConfig:
    """Benchmark generation settings.

    ``mu_range`` and ``alpha_range`` are uniform draw bounds; every
    (edge, hop) gets its own alpha draw. ``target_event_count`` stops the
    simulation once reached; ``max_bins`` caps the horizon (hitting the cap emits
    :class:`UnderGenerationWarning`).
    """

    node_count: int = 40
    avg_topology_degree: float = 1.5
    type_count: int = 20
    causal_avg_indegree: float = 1.5
    target_event_count: int = 20000
    mu_range: tuple = (5e-5, 1e-4)
    alpha_range: tuple = (0.03, 0.05)
    kernel: DecayKernel = ExponentialKernel(1.0)
    max_hops: int = 2
    bin_width: float = 1.0
    seed: int = 0
    explosion_guard: float = 1e6
    max_bins: int = 10_000_000

    def __post_init__(self):
        if self.node_count < 1 or self.type_count < 1:
            raise InvalidInputError("node_count and type_count must be >= 1")
        if self.avg_topology_degree < 0 or self.causal_avg_indegree < 0:
            raise InvalidInputError("average degrees must be >= 0")
        if self.target_event_count < 0:
            raise InvalidInputError("target_event_count must be >= 0")
        for name in ("mu_range", "alpha_range"):
            lo, hi = getattr(self, name)
            if not (0 <= lo <= hi < math.inf):
                raise InvalidInputError(f"{name} must satisfy 0 <= lo <= hi < inf")
            object.__setattr__(self, name, (float(lo), float(hi)))
        if self.max_hops < 0:
            raise InvalidInputError("max_hops must be >= 0")
        if not (0 < self.bin_width < math.inf):
            raise InvalidInputError("bin_width must be positive and finite")
        if self.seed < 0:
            raise InvalidInputError("seed must be >= 0")
        if not (self.explosion_guard > 0):
            raise InvalidInputError("explosion_guard must be positive")
        if self.max_bins < 1:
            raise InvalidInputError("max_bins must be >= 1")

    def to_dict(self) -> dict:
        return {
            "node_count": self.node_count,
            "avg_topology_degree": self.avg_topology_degree,
            "type_count": self.type_count,
            "causal_avg_indegree": self.causal_avg_indegree,
            "target_event_count": self.target_event_count,
            "mu_range": list(self.mu_range),
            "alpha_range": list(self.alpha_range),
            "kernel": kernel_to_config(self.kernel),
            "max_hops": self.max_hops,
            "bin_width": self.bin_width,
            "seed": self.seed,
            "explosion_guard": self.explosion_guard,
            "max_bins": self.max_bins,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise InvalidInputError(f"unknown simulate config keys {sorted(unknown)}")
        kwargs = dict(data)
        try:
            for name, value in data.items():
                default = getattr(cls, name)
                if name == "kernel":
                    if isinstance(value, dict):
                        kwargs[name] = kernel_from_config(value)
                elif isinstance(default, tuple):
                    lo, hi = value
                    kwargs[name] = (float(lo), float(hi))
                else:  # int and float fields take their default's type
                    kwargs[name] = type(default)(value)
            return cls(**kwargs)
        except InvalidInputError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:  # a field of the wrong shape
            raise InvalidInputError(f"invalid simulate config ({exc})") from exc


@dataclass(frozen=True)
class BenchmarkData:
    """A generated event table together with everything that produced it."""

    config: SimConfig
    topology: TopologyGraph
    causal_graph: CausalGraph
    params: ThpParams
    records: np.recarray
    horizon_bins: int

    @property
    def event_count(self) -> int:
        return len(self.records)

    def dataset(self) -> DiscreteDataset:
        """The records binned on the simulation grid."""
        return discretize(
            self.records,
            self.config.bin_width,
            self.horizon_bins * self.config.bin_width,
            node_count=self.config.node_count,
            type_count=self.config.type_count,
        )


def _rng_of(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_topology(
    node_count: int,
    avg_degree: float,
    seed,
    max_hops: int = 0,
) -> TopologyGraph:
    """Erdos-Renyi undirected topology with expected degree ``avg_degree``."""
    if node_count < 1:
        raise InvalidInputError("node_count must be >= 1")
    if avg_degree < 0:
        raise InvalidInputError("avg_degree must be >= 0")
    rng = _rng_of(seed)
    edges = []
    if node_count > 1:
        prob = min(1.0, avg_degree / (node_count - 1))
        rows, cols = np.triu_indices(node_count, k=1)
        keep = rng.random(rows.shape[0]) < prob
        edges = list(zip(rows[keep].tolist(), cols[keep].tolist()))
    return build_topology(node_count, edges, max_hops=max_hops)


def random_causal_graph(type_count: int, avg_indegree: float, seed) -> CausalGraph:
    """Random DAG over types: uniform order, forward edges kept i.i.d.

    The keep probability is ``avg_indegree / ((type_count - 1) / 2)``
    (clipped to 1), the average number of candidate parents under a uniform
    order, so the expected in-degree matches ``avg_indegree``. No
    self-loops; always acyclic.
    """
    if type_count < 1:
        raise InvalidInputError("type_count must be >= 1")
    if avg_indegree < 0:
        raise InvalidInputError("avg_indegree must be >= 0")
    rng = _rng_of(seed)
    order = rng.permutation(type_count)
    edges = set()
    if type_count > 1:
        prob = min(1.0, avg_indegree / ((type_count - 1) / 2.0))
        for i in range(type_count):
            for j in range(i + 1, type_count):
                if rng.random() < prob:
                    edges.add((int(order[i]), int(order[j])))
    return CausalGraph(type_count, frozenset(edges))


def draw_params(
    graph: CausalGraph,
    max_hops: int,
    mu_range: tuple,
    alpha_range: tuple,
    seed,
) -> ThpParams:
    """Uniform parameter draws: one mu per type, one alpha per (edge, hop)."""
    rng = _rng_of(seed)
    mu = rng.uniform(mu_range[0], mu_range[1], size=graph.type_count)
    alpha = {
        edge: rng.uniform(alpha_range[0], alpha_range[1], size=max_hops + 1)
        for edge in sorted(graph.edges)
    }
    return ThpParams(mu=mu, alpha=alpha, max_hops=max_hops)


def _window_weights(kernel: DecayKernel, dt: float) -> np.ndarray:
    """Kernel values at lags ``dt, 2dt, ...`` out to where they vanish."""
    if isinstance(kernel, ExponentialKernel):
        horizon = max(1, math.ceil(37.0 / (kernel.decay * dt)))
    elif isinstance(kernel, GaussianKernel):
        horizon = max(1, math.ceil((kernel.mean + 8.5 * kernel.std) / dt))
    elif isinstance(kernel, UniformKernel):
        horizon = max(1, math.ceil((kernel.start + kernel.scale) / dt))
    else:
        raise InvalidInputError(f"unknown kernel {kernel!r}")
    lags = dt * np.arange(1, horizon + 1)
    weights = np.asarray(evaluate(kernel, lags), dtype=float)
    nonzero = np.flatnonzero(weights)
    if nonzero.size:
        weights = weights[: nonzero[-1] + 1]
    else:
        weights = weights[:1]
    return weights


class _ExponentialExcitation:
    """Excitation under ``exp(-decay * t)``: one vector, scaled by ``r`` per bin.

    ``exc`` is the excitation part of the expected counts of the current bin.
    Between events the intensity only decays, so the guard needs checking
    only at the current bin, and the total hazard of the next ``j`` bins is
    ``H(j) = M*j + E*(1 - r^j)/(1 - r)`` with ``M`` the summed background and
    ``E`` the summed excitation.
    """

    def __init__(self, kernel: ExponentialKernel, dt: float, spread, mu_dt):
        self.rate = kernel.decay * dt  # -log(r); r^j = exp(-rate*j) underflows cleanly to 0
        self.spread = spread
        self.mu_dt = mu_dt
        self.background = float(mu_dt.sum())
        self.mu_peak = float(mu_dt.max())
        self.exc = np.zeros_like(mu_dt)

    def scan(self, tau: float, limit: int, guard: float):
        """``(gap, breach)`` for the bins ahead; see :func:`_event_loop`."""
        excited = float(self.exc.sum())
        breach = None
        if self.mu_peak + excited > guard:  # bounds max(mu_dt + exc)
            peak = float((self.mu_dt + self.exc).max())
            if peak > guard:
                breach = (0, peak)
        background = self.background
        scale = excited / -math.expm1(-self.rate)

        def hazard(j):
            return background * j - scale * math.expm1(-self.rate * j)

        if hazard(limit) <= tau:
            return None, breach
        # bisect for H(lo) <= tau < H(hi), bracketed by M*j <= H(j) <= M*j + scale
        lo, hi = 0, limit
        if background > 0:
            if tau < background * limit:
                hi = int(tau / background) + 1
            lo = max(0, int((tau - scale) / background))
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if hazard(mid) <= tau:
                lo = mid
            else:
                hi = mid
        return lo, breach

    def advance(self, gap: int) -> np.ndarray:
        """Skip ``gap`` empty bins; returns the expected counts of the next."""
        self.exc *= math.exp(-self.rate * gap)
        return self.mu_dt + self.exc

    def fire(self, cells, counts) -> None:
        """Add the events of the current bin and step to the next bin."""
        self.exc += counts @ self.spread[cells]
        self.exc *= math.exp(-self.rate)


class _WindowExcitation:
    """Excitation under a kernel with a finite window of ``W`` bins.

    ``ring[(head + i) % W]`` holds the excitation already due ``i`` bins
    after the current one from the events so far; past the window only the
    background remains.
    """

    def __init__(self, kernel: DecayKernel, dt: float, spread, mu_dt):
        self.weights = _window_weights(kernel, dt)
        window = self.weights.shape[0]
        self.spread = spread
        self.mu_dt = mu_dt
        self.background = float(mu_dt.sum())
        self.ring = np.zeros((window, mu_dt.shape[0]))
        self.lags = np.arange(window)
        self.head = 0

    def scan(self, tau: float, limit: int, guard: float):
        """``(gap, breach)`` for the bins ahead; see :func:`_event_loop`."""
        window = self.lags.shape[0]
        due = self.ring[(self.head + self.lags) % window]
        peaks = (self.mu_dt + due).max(axis=1)
        over = np.flatnonzero(peaks > guard)
        breach = (int(over[0]), float(peaks[over[0]])) if over.size else None
        hazard = np.cumsum(self.background + due.sum(axis=1))
        gap = int(np.searchsorted(hazard, tau, side="right"))
        if gap == window:
            # past the window the gap is geometric on the background alone
            rest = (tau - hazard[-1]) / self.background if self.background > 0 else math.inf
            if rest >= limit:
                return None, breach
            gap += int(rest)
        return (gap if gap < limit else None), breach

    def advance(self, gap: int) -> np.ndarray:
        """Skip ``gap`` empty bins; returns the expected counts of the next."""
        window = self.lags.shape[0]
        if gap >= window:
            self.ring[:] = 0.0
        else:
            self.ring[(self.head + self.lags[:gap]) % window] = 0.0
        self.head = (self.head + gap) % window
        return self.mu_dt + self.ring[self.head]

    def fire(self, cells, counts) -> None:
        """Add the events of the current bin and step to the next bin."""
        window = self.lags.shape[0]
        self.ring[self.head] = 0.0
        added = counts @ self.spread[cells]
        self.ring[(self.head + 1 + self.lags) % window] += np.outer(self.weights, added)
        self.head = (self.head + 1) % window


def _draw_occupied(lam_dt: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Independent Poisson counts of one bin, conditioned on at least one event.

    The total is zero-truncated Poisson: the first arrival of the pooled
    process, conditioned to fall in the bin, then a Poisson count for the
    rest of the bin. The total is split multinomially across cells.
    """
    rate = float(lam_dt.sum())
    first = -math.log1p(rng.random() * math.expm1(-rate)) / rate
    total = 1 + int(rng.poisson(rate * (1.0 - first)))
    return rng.multinomial(total, lam_dt / rate)


def _event_loop(
    causal_graph: CausalGraph,
    topology: TopologyGraph,
    params: ThpParams,
    kernel: DecayKernel,
    bin_width: float,
    rng: np.random.Generator,
    *,
    max_bins: int,
    stop_at_count: int | None,
    explosion_guard: float,
) -> tuple[np.recarray, int]:
    """Visit only the bins that hold an event; shared by both entry points.

    At the current bin ``t`` an ``Exp(1)`` draw ``tau`` is inverted against
    the total hazard of the bins ahead, given no further events, to get the
    number of empty bins before the next occupied one. ``scan`` also returns
    the first bin ahead whose expected count exceeds the guard (offset and
    peak); it raises only if no event comes before it, as it would if every
    bin were drawn in turn. Returns the event table and the bins run.
    """
    n_nodes = topology.node_count
    n_types = causal_graph.type_count
    dt = bin_width
    powers = topology.hop_matrices(params.max_hops)
    tensor = np.zeros((n_types, n_types, params.max_hops + 1))  # (src, dst, k)
    for (c, v), weights in params.alpha.items():
        tensor[c, v] = weights
    # cells are node-major, f = node*T + type, so that the occupied cells of
    # a bin come out in emission order; spread[n*T+s, m*T+d] =
    # sum_k alpha[s,d,k] * P^k[n,m] * dt is what one event adds per unit kernel
    spread = (
        np.einsum("sdk,knm->nsmd", tensor, powers).reshape(
            n_nodes * n_types, n_nodes * n_types
        )
        * dt
    )
    mu_dt = np.tile(params.mu, n_nodes) * dt
    if isinstance(kernel, ExponentialKernel):
        excitation = _ExponentialExcitation(kernel, dt, spread, mu_dt)
    else:
        excitation = _WindowExcitation(kernel, dt, spread, mu_dt)
    if stop_at_count is not None and stop_at_count <= 0:
        max_bins = min(max_bins, 1)  # the target is met after the first bin

    # (bin, cells, counts) of each bin that holds an event; the empty first
    # entry keeps the final concatenations valid and int64 when none fired
    occupied = [(0, np.empty(0, np.int64), np.empty(0, np.int64))]
    total = 0
    t = 0
    while t < max_bins:
        gap, breach = excitation.scan(rng.exponential(), max_bins - t, explosion_guard)
        if breach is not None and breach[0] < max_bins - t and (gap is None or gap >= breach[0]):
            raise SimulationExplosionError(t + breach[0], breach[1], explosion_guard)
        if gap is None:
            t = max_bins
            break
        t += gap
        draws = _draw_occupied(excitation.advance(gap), rng)
        cells = draws.nonzero()[0]
        counts = draws[cells]
        excitation.fire(cells, counts)
        occupied.append((t, cells, counts))
        total += int(counts.sum())
        t += 1
        if stop_at_count is not None and total >= stop_at_count:
            break
    bins, cells, counts = zip(*occupied)
    counts = np.concatenate(counts)
    flat = np.repeat(np.concatenate(cells), counts)
    stamps = np.repeat((np.repeat(bins, [c.shape[0] for c in cells]) + 0.5) * dt, counts)
    return event_table(flat // n_types, flat % n_types, stamps), t


def simulate(
    causal_graph: CausalGraph,
    topology: TopologyGraph,
    params: ThpParams,
    kernel: DecayKernel,
    bin_width: float,
    horizon_bins: int,
    seed,
    *,
    explosion_guard: float = 1e6,
) -> np.recarray:
    """Simulate a fixed number of bins; returns the event table."""
    params.validate_for(causal_graph)
    if horizon_bins < 0:
        raise InvalidInputError("horizon_bins must be >= 0")
    if not (bin_width > 0):
        raise InvalidInputError("bin_width must be positive")
    if not (explosion_guard > 0):
        raise InvalidInputError("explosion_guard must be positive")
    records, _ = _event_loop(
        causal_graph,
        topology,
        params,
        kernel,
        bin_width,
        _rng_of(seed),
        max_bins=horizon_bins,
        stop_at_count=None,
        explosion_guard=explosion_guard,
    )
    return records


def generate_benchmark(config: SimConfig) -> BenchmarkData:
    """Draw topology, causal DAG, and parameters, then simulate to target.

    The simulation extends the horizon until ``target_event_count`` is reached or
    ``max_bins`` is hit (the latter warns with the shortfall).
    """
    root = np.random.SeedSequence(config.seed)
    topo_seed, graph_seed, par_seed, sim_seed = root.spawn(4)
    topology = random_topology(
        config.node_count,
        config.avg_topology_degree,
        np.random.default_rng(topo_seed),
        max_hops=config.max_hops,
    )
    causal_graph = random_causal_graph(
        config.type_count, config.causal_avg_indegree, np.random.default_rng(graph_seed)
    )
    params = draw_params(
        causal_graph,
        config.max_hops,
        config.mu_range,
        config.alpha_range,
        np.random.default_rng(par_seed),
    )
    records, bins_run = _event_loop(
        causal_graph,
        topology,
        params,
        config.kernel,
        config.bin_width,
        np.random.default_rng(sim_seed),
        max_bins=config.max_bins,
        stop_at_count=config.target_event_count,
        explosion_guard=config.explosion_guard,
    )
    if len(records) < config.target_event_count:
        warnings.warn(
            f"hit max_bins={config.max_bins} with {len(records)} events, "
            f"target was {config.target_event_count}",
            UnderGenerationWarning,
        )
    return BenchmarkData(
        config=config,
        topology=topology,
        causal_graph=causal_graph,
        params=params,
        records=records,
        horizon_bins=bins_run,
    )
