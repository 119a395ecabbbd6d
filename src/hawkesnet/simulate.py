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
from typing import NamedTuple

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
from .values import Frozen, as_number

__all__ = [
    "SimConfig",
    "BenchmarkData",
    "random_topology",
    "random_causal_graph",
    "draw_params",
    "simulate",
    "generate_benchmark",
]


# the config fields that hold counts; the rest of the numbers are floats
_INT_FIELDS = frozenset(
    ("node_count", "type_count", "target_event_count", "max_hops", "seed", "max_bins")
)


def _geometric_mass(rate: float) -> float:
    """``sum_{j >= 1} exp(-j * rate)``, the exponential kernel's lag weights summed, as
    ``1 / expm1(rate)``: ``exp(-rate)``, the same to the last bit, where expm1 overflows."""
    try:
        return 1.0 / math.expm1(rate) if rate else math.inf
    except OverflowError:
        return math.exp(-rate)


class SimConfig(Frozen):
    """Benchmark generation settings.

    ``mu_range`` and ``alpha_range`` are uniform draw bounds; every
    (edge, hop) gets its own alpha draw. ``target_event_count`` stops the
    simulation once reached; ``max_bins`` caps the horizon (hitting the cap emits
    :class:`UnderGenerationWarning`).
    """

    __slots__ = (
        "node_count", "avg_topology_degree", "type_count", "causal_avg_indegree",
        "target_event_count", "mu_range", "alpha_range", "kernel", "max_hops",
        "bin_width", "seed", "explosion_guard", "max_bins",
    )

    def __init__(
        self,
        node_count: int = 40,
        avg_topology_degree: float = 1.5,
        type_count: int = 20,
        causal_avg_indegree: float = 1.5,
        target_event_count: int = 20000,
        mu_range: tuple = (5e-5, 1e-4),
        alpha_range: tuple = (0.03, 0.05),
        kernel: DecayKernel = ExponentialKernel(1.0),
        max_hops: int = 2,
        bin_width: float = 1.0,
        seed: int = 0,
        explosion_guard: float = 1e6,
        max_bins: int = 10_000_000,
    ):
        if node_count < 1 or type_count < 1:
            raise InvalidInputError("node_count and type_count must be >= 1")
        if avg_topology_degree < 0 or causal_avg_indegree < 0:
            raise InvalidInputError("average degrees must be >= 0")
        if target_event_count < 0:
            raise InvalidInputError("target_event_count must be >= 0")
        ranges = {}
        for name, (lo, hi) in (("mu_range", mu_range), ("alpha_range", alpha_range)):
            if not (0 <= lo <= hi < math.inf):
                raise InvalidInputError(f"{name} must satisfy 0 <= lo <= hi < inf")
            ranges[name] = (float(lo), float(hi))
        if max_hops < 0:
            raise InvalidInputError("max_hops must be >= 0")
        if not (0 < bin_width < math.inf):
            raise InvalidInputError("bin_width must be positive and finite")
        if isinstance(kernel, ExponentialKernel):  # an event's children scale with its mass
            rate = kernel.decay * bin_width
            if math.isinf(_geometric_mass(rate)):
                raise InvalidInputError(f"delta * bin_width = {rate:g} leaves the kernel's mass "
                                        "1/expm1(delta * bin_width) infinite")
        if seed < 0:
            raise InvalidInputError("seed must be >= 0")
        if not (explosion_guard > 0):
            raise InvalidInputError("explosion_guard must be positive")
        if max_bins < 1:
            raise InvalidInputError("max_bins must be >= 1")
        self._set(
            node_count=node_count, avg_topology_degree=avg_topology_degree,
            type_count=type_count, causal_avg_indegree=causal_avg_indegree,
            target_event_count=target_event_count, **ranges, kernel=kernel,
            max_hops=max_hops, bin_width=bin_width, seed=seed,
            explosion_guard=explosion_guard, max_bins=max_bins,
        )

    def to_dict(self) -> dict:
        return {
            **self._asdict(),
            "mu_range": list(self.mu_range),
            "alpha_range": list(self.alpha_range),
            "kernel": kernel_to_config(self.kernel),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        unknown = set(data) - set(cls.__slots__)
        if unknown:
            raise InvalidInputError(f"unknown simulate config keys {sorted(unknown)}")
        kwargs = dict(data)
        for name, value in data.items():
            what = f"simulate config key {name!r}"
            if name == "kernel":
                if isinstance(value, dict):
                    kwargs[name] = kernel_from_config(value)
            elif name in ("mu_range", "alpha_range"):
                if not isinstance(value, (list, tuple)) or len(value) != 2:
                    raise InvalidInputError(f"{what} must be a pair of numbers, got {value!r}")
                kwargs[name] = tuple(as_number(bound, what) for bound in value)
            else:
                kwargs[name] = as_number(value, what, integer=name in _INT_FIELDS)
        return cls(**kwargs)


class BenchmarkData(NamedTuple):
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


def random_topology(node_count: int, avg_degree: float, seed) -> TopologyGraph:
    """Erdos-Renyi undirected topology with expected degree ``avg_degree``."""
    if node_count < 1:
        raise InvalidInputError("node_count must be >= 1")
    if avg_degree < 0:
        raise InvalidInputError("avg_degree must be >= 0")
    rng = np.random.default_rng(seed)
    edges = []
    if node_count > 1:
        prob = min(1.0, avg_degree / (node_count - 1))
        try:
            rows, cols = np.triu_indices(node_count, k=1)
            keep = rng.random(rows.shape[0]) < prob
        except (ValueError, MemoryError, OverflowError) as exc:  # numpy refuses the size outright
            raise InvalidInputError(f"cannot allocate the node pairs of {node_count} nodes") from exc
        edges = list(zip(rows[keep].tolist(), cols[keep].tolist()))
    return build_topology(node_count, edges)


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
    rng = np.random.default_rng(seed)
    order = rng.permutation(type_count)
    edges = ()
    if type_count > 1:
        prob = min(1.0, avg_indegree / ((type_count - 1) / 2.0))
        first, second = np.triu_indices(type_count, 1)
        keep = rng.random(first.shape[0]) < prob
        edges = zip(order[first[keep]], order[second[keep]])
    return CausalGraph(type_count, edges)


def draw_params(
    graph: CausalGraph,
    max_hops: int,
    mu_range: tuple,
    alpha_range: tuple,
    seed,
) -> ThpParams:
    """Uniform parameter draws: one mu per type, one alpha per (edge, hop)."""
    rng = np.random.default_rng(seed)
    mu = rng.uniform(mu_range[0], mu_range[1], size=graph.type_count)
    alpha = {
        edge: rng.uniform(alpha_range[0], alpha_range[1], size=max_hops + 1)
        for edge in sorted(graph.edges)
    }
    return ThpParams(mu=mu, alpha=alpha, max_hops=max_hops)


def _window_weights(kernel: DecayKernel, dt: float) -> np.ndarray:
    """Kernel values at lags ``dt, 2dt, ...`` out to where they vanish. A
    window past ``_WINDOW_LAGS`` lags, or without a finite end, is refused
    before any array of lags is made."""
    if isinstance(kernel, ExponentialKernel):
        end = 37.0 / (kernel.decay * dt)
    elif isinstance(kernel, GaussianKernel):
        end = (kernel.mean + 8.5 * kernel.std) / dt
    elif isinstance(kernel, UniformKernel):
        end = (kernel.start + kernel.scale) / dt
    else:
        raise InvalidInputError(f"unknown kernel {kernel!r}")
    if not end <= _WINDOW_LAGS:
        raise InvalidInputError(f"cannot allocate the window of {kernel!r} at dt={dt:g}: "
                                f"{end:g} lags, more than {_WINDOW_LAGS}")
    horizon = max(1, math.ceil(end))
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
# the most lags a windowed kernel's table holds: its lag, weight and cdf
# arrays stay near 32 MB each
_WINDOW_LAGS = 1 << 22
_POISSON_MAX = 9.2e18  # Generator.poisson refuses means above about 9.22e18
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
            self.top, weight = math.exp(-self.rate), _geometric_mass(self.rate)
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


def simulate(
    causal_graph: CausalGraph,
    topology: TopologyGraph,
    params: ThpParams,
    kernel: DecayKernel,
    bin_width: float,
    seed,
    *,
    max_bins: int,
    stop_at_count: int | None = None,
    explosion_guard: float = 1e6,
) -> tuple[np.recarray, int]:
    """Draw the cluster process block by block, holding events as (key, count) rows, for
    ``max_bins`` bins or up to the bin where the count reaches ``stop_at_count``; returns
    the event table and the bins run."""
    params.validate_for(causal_graph)
    if max_bins < 0:
        raise InvalidInputError("max_bins must be >= 0")
    if not (bin_width > 0):
        raise InvalidInputError("bin_width must be positive")
    if not (explosion_guard > 0):
        raise InvalidInputError("explosion_guard must be positive")
    rng = np.random.default_rng(seed)
    offspring = _Offspring(causal_graph, topology, params, kernel, bin_width)
    most = float(offspring.mean.max(initial=0.0))  # nan where the kernel's mass is infinite
    if not most <= _POISSON_MAX:
        raise InvalidInputError(f"one event expects {most:g} children, more than a Poisson draw takes")
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


def generate_benchmark(config: SimConfig) -> BenchmarkData:
    """Draw topology, causal DAG, and parameters, then simulate to target.

    The simulation extends the horizon until ``target_event_count`` is reached or
    ``max_bins`` is hit (the latter warns with the shortfall).
    """
    root = np.random.SeedSequence(config.seed)
    topo_seed, graph_seed, par_seed, sim_seed = root.spawn(4)
    topology = random_topology(
        config.node_count, config.avg_topology_degree, np.random.default_rng(topo_seed)
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
    records, bins_run = simulate(
        causal_graph, topology, params, config.kernel, config.bin_width, sim_seed,
        max_bins=config.max_bins, stop_at_count=config.target_event_count,
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
