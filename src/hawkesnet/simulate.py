"""Discrete-time simulator and benchmark dataset generator.

The model draws independent Poisson counts
``X[n, v, t] ~ Poisson(lam_v(n, t) * dt)`` for every (node, type) cell and
bin, given the history so far: the generative model the likelihood scores.
Events come out as an event table (:mod:`hawkesnet.events`) stamped at bin
centers ``(t + 0.5) * dt``, in (bin, node, type) order.

The model is a Poisson cluster process (Hawkes & Oakes 1974; Moller &
Rasmussen 2005), drawn as one at a cost that grows with the events, not the
bins. Each cell gets ``Poisson(mu_v * dt * H)`` immigrants in uniform bins
of ``H``. An event at ``(n', c)`` has ``Poisson(dt * sum_k alpha[c, v, k] *
P^k[n', n] * W)`` children at each ``(n, v)``, ``n`` within K hops (CSR
lists from the nonzeros of the hop matrices), each ``j >= 1`` bins later
with weight the kernel at ``j * dt``, ``W`` the weights' sum: for
``exp(-delta t)`` a ``Geometric(1 - r)`` lag, ``r = exp(-delta dt)``, and
``W = r / (1 - r)``, both through ``expm1``; else the table of lag weights.
Generations follow until one is empty.

Blocks of bins are drawn in turn, children past a block waiting for the
next; with a target count each block spans the bins the rate so far needs,
and the run stops right after the bin where the count reaches the target.
A block whose children would pass a budget ends early, and events are held
as counts per (bin, cell), so memory stays bounded. A guard raises
:class:`SimulationExplosionError` at the first bin whose expected count
exceeds a threshold in any cell, as supercritical parameters do. That bin
depends only on earlier events, so each block is checked when complete: a
scalar bound first, exact per-cell counts only where it passes the guard.
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


# the children of one generation of a block, and those drawn one by one at a
# time, stay near this many, so a supercritical run meets the guard in bounded memory
_BUDGET = 1 << 16
_NONE = (np.empty(0, np.int64), np.empty(0, np.int64))  # no (keys, counts) rows


class _Offspring:
    """Neighbour lists and lag law of the children of one event.

    An event's key is ``bin * cells + node * T + type``. CSR row ``n'*T + c``
    lists the cells ``n*T + v`` of each causal edge ``(c, v)`` and each ``n``
    within K hops of ``n'``, with ``unit = dt * sum_k alpha[c, v, k] *
    P^k[n', n]``: what the event adds to the cell's expected count per unit
    of kernel weight.
    """

    def __init__(self, causal_graph, topology, params, kernel, dt):
        n_types = causal_graph.type_count
        self.cells = topology.node_count * n_types
        powers = topology.hop_matrices(params.max_hops)
        near, far = np.nonzero(powers.any(axis=0))
        edges = sorted(params.alpha)
        alpha = np.array([params.alpha[e] for e in edges]).reshape(len(edges), params.max_hops + 1)
        unit = alpha @ powers[:, near, far] * dt  # (edge, node pair)
        sources = near * n_types + np.array([c for c, _ in edges], dtype=np.int64)[:, None]
        targets = far * n_types + np.array([v for _, v in edges], dtype=np.int64)[:, None]
        keep = unit > 0
        order = np.argsort(sources[keep], kind="stable")
        self.sources, self.targets, self.unit = (a[keep][order] for a in (sources, targets, unit))
        sources = self.sources
        self.ptr = np.concatenate([[0], np.cumsum(np.bincount(sources, minlength=self.cells))])
        row_unit = np.bincount(sources, weights=self.unit, minlength=self.cells)
        # shares[i] = f + (share of row f's weight up to entry i): u in [0, 1)
        # picks the entry of row f with the first share above f + u
        cum = np.cumsum(self.unit)
        self.shares = sources + (cum - np.append(0.0, cum)[self.ptr[:-1]][sources]) / row_unit[sources]
        self.peak = np.zeros(self.cells)  # the largest unit of each row
        np.maximum.at(self.peak, sources, self.unit)
        if isinstance(kernel, ExponentialKernel):
            # r = exp(-rate): lags are Geometric(1 - r) and the weights r^j
            # sum to r / (1 - r); the expm1 forms stay exact as r -> 1 or 0
            self.rate, self.weights = kernel.decay * dt, None
            self.top, weight = math.exp(-self.rate), 1.0 / math.expm1(self.rate)
        else:
            self.weights = _window_weights(kernel, dt)
            self.cdf = np.cumsum(self.weights)  # of the lags, unnormalized
            self.top, weight = float(self.weights.max()), float(self.cdf[-1])
        self.mean = row_unit * weight  # expected children of one event per cell

    def children(self, rng, keys, counts, limit: int):
        """``(keys, counts)`` of the children before bin ``limit``, drawn one
        by one ``_BUDGET`` at a time and counted per key."""
        ends = np.cumsum(rng.poisson(counts * self.mean[keys % self.cells]))
        total, parts = int(ends[-1]), [_NONE]
        for lo in range(0, total, _BUDGET):
            parent = keys[np.searchsorted(ends, np.arange(lo, min(lo + _BUDGET, total)), side="right")]
            src = parent % self.cells
            entry = np.searchsorted(self.shares, src + rng.random(src.shape[0]), side="right")
            if self.weights is None:
                lags = rng.geometric(-math.expm1(-self.rate), size=src.shape[0])
            else:
                drawn = np.searchsorted(self.cdf, self.cdf[-1] * rng.random(len(src)), "right")
                lags = np.minimum(drawn, self.weights.shape[0] - 1) + 1
            start = parent - src  # the parent's bin times cells
            kids = start + lags * self.cells + self.targets[np.minimum(entry, self.ptr[src + 1] - 1)]
            parts.append(np.unique(kids[lags < limit - start // self.cells], return_counts=True))
        return _join(*parts)

    def first_breach(self, keys, counts, start: int, end: int, mu_dt, guard: float):
        """``(bin, peak)`` of the first bin in ``[start, end)`` whose expected
        count passes ``guard`` in some cell, or None; the sorted rows hold
        every event before ``end``. Only a bin after an event can pass first
        (for the exponential kernel, right after). A scalar bound on those
        bins picks the ones whose exact per-cell counts are computed.
        """
        bins, cells = keys // self.cells, keys % self.cells
        first = np.flatnonzero(np.diff(bins, prepend=-1))
        occupied, mass = bins[first], np.add.reduceat(self.peak[cells] * counts, first)
        if self.weights is None:
            candidates = occupied + 1
            # sum_{j <= i} mass_j r^(o_i + 1 - o_j), summed in log space
            offset = self.rate * (occupied - occupied[0])
            with np.errstate(divide="ignore"):
                bound = np.exp(np.logaddexp.accumulate(np.log(mass) + offset) - offset - self.rate)
        else:  # top times the mass of the window before each bin
            window = self.weights.shape[0]
            candidates = np.unique((occupied[:, None] + np.arange(1, window + 1)).ravel())
            cum = np.concatenate([[0.0], np.cumsum(mass)])
            before = cum[np.searchsorted(occupied, candidates - window)]
            bound = self.top * (cum[np.searchsorted(occupied, candidates)] - before)
        flagged = (candidates >= start) & (candidates < end) & (mu_dt.max() + bound * (1 + 1e-6) > guard)
        for at in candidates[flagged].tolist():
            i, j = np.searchsorted(bins, [0 if self.weights is None else at - self.weights.shape[0], at])
            lag = at - bins[i:j]
            decay = np.exp(-self.rate * lag) if self.weights is None else self.weights[lag - 1]
            per_source = np.bincount(cells[i:j], counts[i:j] * decay, minlength=self.cells)
            added = np.bincount(self.targets, self.unit * per_source[self.sources], minlength=self.cells)
            peak = float((mu_dt + added).max())
            if peak > guard:
                return at, peak
        return None


def _split(rows, end: int):
    """The rows with keys below ``end`` and the rest."""
    inside = rows[0] < end
    return (rows[0][inside], rows[1][inside]), (rows[0][~inside], rows[1][~inside])


def _join(*parts):
    return np.concatenate([keys for keys, _ in parts]), np.concatenate([counts for _, counts in parts])


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
    """Draw the cluster process block by block, holding events as (key,
    count) rows; returns the event table and the bins run."""
    offspring = _Offspring(causal_graph, topology, params, kernel, bin_width)
    cells = offspring.cells
    mu_dt = np.tile(params.mu, topology.node_count) * bin_width
    mu_peak, background = float(mu_dt.max()), float(mu_dt.sum())
    limit = max_bins if stop_at_count is None or stop_at_count > 0 else min(max_bins, 1)
    if limit * cells >= 2**62:
        raise InvalidInputError(f"{limit} bins of {cells} cells do not fit 64-bit event keys")
    if limit > 0 and mu_peak > explosion_guard:
        raise SimulationExplosionError(0, mu_peak, explosion_guard)

    waiting = settled = _NONE  # rows at or past `start`, without / with their children drawn
    done = [_NONE]  # finished blocks, each sorted
    total = start = drawn_to = 0
    mass = 0.0  # summed peak of the events so far; times `top` it bounds any excitation
    while start < limit:
        remaining = None if stop_at_count is None else stop_at_count - total
        # the next block: about _BUDGET immigrants, and with a target only the
        # bins the rate so far needs for the rest of it, and a tenth
        span = _BUDGET / background if background > 0 else math.inf
        if remaining is not None and background > 0:
            span = min(span, 1.1 * remaining / max(background, total / start if start else 0.0) + 1)
        end = limit if span >= limit - start else start + max(1, math.ceil(span))
        if end > drawn_to:
            keys = np.repeat(np.arange(cells), rng.poisson(mu_dt * (end - drawn_to)))
            keys += rng.integers(drawn_to, end, size=keys.shape[0]) * cells
            waiting = _join(waiting, np.unique(keys, return_counts=True))
            drawn_to = end
        frontier, waiting = _split(waiting, end * cells)
        block, settled = _split(settled, end * cells)
        block = [block]
        while frontier[0].size:
            expected = frontier[1] * offspring.mean[frontier[0] % cells]
            if expected.sum() > _BUDGET:
                # the block now ends at the first bin whose children pass the
                # budget, or after the earliest bin
                order = np.argsort(frontier[0])
                bins = frontier[0][order] // cells
                over = np.searchsorted(np.cumsum(expected[order]), _BUDGET, side="right")
                end = max(int(bins[min(over, bins.shape[0] - 1)]), int(bins[0]) + 1)
                frontier, later = _split(frontier, end * cells)
                inside, past = _split(_join(*block), end * cells)
                block, waiting, settled = [inside], _join(waiting, later), _join(settled, past)
            block.append(frontier)
            frontier, later = _split(offspring.children(rng, *frontier, limit), end * cells)
            waiting = _join(waiting, later)

        keys, counts = _join(*block)
        order = np.argsort(keys)
        keys, counts = keys[order], counts[order]
        running = np.cumsum(counts)
        if remaining is not None and running.size and running[-1] >= remaining:
            # the run ends right after the bin where the count reaches the target
            end = limit = int(keys[np.searchsorted(running, remaining)]) // cells + 1
            keys, counts = _split((keys, counts), end * cells)[0]
        mass += float(offspring.peak[keys % cells] @ counts)
        done.append((keys, counts))
        if mu_peak + offspring.top * mass * (1 + 1e-6) > explosion_guard:
            breach = offspring.first_breach(*_join(*done), start, end, mu_dt, explosion_guard)
            if breach is not None:
                raise SimulationExplosionError(*breach, explosion_guard)
        total += int(counts.sum())
        start = end
    keys = np.repeat(*_join(*done))
    found, n_types = keys % cells, causal_graph.type_count
    return event_table(found // n_types, found % n_types, (keys // cells + 0.5) * bin_width), start


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
