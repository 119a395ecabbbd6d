"""Discrete-time model: intensity, log-likelihood, and the BIC score.

The conditional intensity of event type ``v`` at node ``n`` and bin ``t`` is

    lam_v(n, t) = mu_v + sum_{c in parents(v)} sum_k alpha[c, v][k]
                                               * features[c, k, (n, t)]

with the features from :mod:`hawkesnet.features`. Bin counts are modeled as
independent Poisson draws with mean ``lam * bin_width`` given history, so up
to a data-only constant the log-likelihood is

    L = sum_{v,n,t} ( -lam_v(n,t) * dt + X[n,v,t] * log lam_v(n,t) ).

The first term collapses to closed form through the feature totals; the
second touches occupied cells only. The data-only constant
``sum (X log dt - log X!)`` is dropped throughout: differences between
models on the same dataset are unaffected.

One function computes a type's share: ``batch_log_likelihood`` scores many
points of one type at once, each on one of several parent sets stacked in a
:class:`TypeBatch`, and every single-type score is that function on a batch
of one.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError
from .features import FeatureCache, aligned_rows

__all__ = [
    "type_batch",
    "batch_log_likelihood",
    "bic_penalty",
]


class TypeBatch(NamedTuple):
    """Several parent sets of one type, stacked for batched scoring.

    ``flat[b][r]`` holds channel ``r`` of the ``b``-th parent set at the
    type's occupied cells, channels ``(parent, hop)`` in C order; every set
    has the same number of parents, and its rows are copied from the
    cache's ``type_values`` into rows that each start at a 64-byte-aligned
    address, the stride padded to 64 bytes. ``counts`` (shared) holds the
    events at those cells, ``events`` their sum, ``grid_cells`` is
    ``node_count * bin_count``, ``totals[b]`` the grid-wide feature sums of
    set ``b`` in the same order, ``charges[b]`` the EM update's denominators
    ``totals * bin_width`` as Python floats, ``None`` where a total
    vanishes, and ``inverse[b]`` their reciprocals (0 where a total
    vanishes, ``inf`` where the charge underflowed). ``cell_rows`` and
    ``width_rows`` are aligned work rows, one per set, so a call scores at
    most as many points as the batch has sets.
    """

    event_type: int
    flat: list  # sets arrays of (width, cells)
    counts: np.ndarray
    events: float
    totals: np.ndarray  # (sets, width)
    charges: list  # sets lists of width floats or None
    inverse: list  # sets lists of width floats
    bin_width: float
    grid_cells: int
    cell_rows: np.ndarray  # (sets, cells)
    width_rows: np.ndarray  # (sets, width)


def type_batch(cache: FeatureCache, event_type: int, parent_sets) -> TypeBatch:
    """The :class:`TypeBatch` of ``event_type`` with equally long ``parent_sets``.

    Raises :class:`InvalidInputError` if the sets differ in size or name a
    type outside ``[0, type_count)``.
    """
    sizes = {len(parents) for parents in parent_sets}
    if len(sizes) != 1:
        raise InvalidInputError("a batch needs parent sets of one size")
    for c in (event_type, *(c for parents in parent_sets for c in parents)):
        if not 0 <= c < cache.type_count:
            raise InvalidInputError(f"type {c} out of range for {cache.type_count} types")
    size, hops = sizes.pop(), cache.max_hops + 1
    values = cache.type_values[event_type]
    sets, width, cells = len(parent_sets), size * hops, values.shape[1]
    copies = aligned_rows(sets * width, cells)
    flat, totals = [], np.empty((sets, width))
    for j, parents in enumerate(parent_sets):
        block = copies[j * width : (j + 1) * width]
        for i, c in enumerate(parents):  # each parent's hops are one run of rows
            block[i * hops : (i + 1) * hops] = values[c * hops : (c + 1) * hops]
        flat.append(block)
        totals[j] = cache.totals[list(parents)].reshape(-1)
    counts = cache.type_counts[event_type]
    charges = [[charge if total > 0 else None for total, charge in zip(row, charges)]
               for row, charges in zip(totals.tolist(), (totals * cache.bin_width).tolist())]
    return TypeBatch(
        event_type=event_type,
        flat=flat,
        counts=counts,
        events=float(counts.sum()),
        totals=totals,
        charges=charges,
        inverse=[[0.0 if c is None else 1.0 / c if c else math.inf for c in row] for row in charges],
        bin_width=cache.bin_width,
        grid_cells=cache.node_count * cache.bin_count,
        cell_rows=aligned_rows(sets, cells),
        width_rows=aligned_rows(sets, width),
    )


def batch_log_likelihood(mu, alpha, batch: TypeBatch, blocks) -> tuple[np.ndarray, list, list]:
    """Intensities and log-likelihood shares of the points ``(mu[j], alpha[j])``.

    Point ``j`` is scored on the parent set ``blocks[j]`` of ``batch``: its
    share is ``counts @ log(lam) - dt * (mu * grid_cells + alpha @
    totals)``, or ``-inf`` if ``lam <= 0`` at some cell. Every cell holds
    events of the type, so no cell is masked out. Each of a point's products
    and dot products is a BLAS call of its own, and its matrix-vector
    product runs along the cells of a feature block and work rows whose
    every row starts at a 64-byte-aligned address, so its results do not
    depend on the other points or on the batch size. The products are the
    only numpy calls per point; the rest of a share is Python float
    arithmetic on the two dot products, in the order of the formula. Returns
    ``lam`` (in the batch's work rows), the shares as a list of floats and
    each point's ``counts @ log(lam)``, the share before the integral term;
    callers silence the floating-point warnings of rows that score ``-inf``
    or ``nan``.
    """
    lam = batch.cell_rows[: len(blocks)]
    point = batch.width_rows[: len(blocks)]
    point[...] = alpha
    for j, b in enumerate(blocks):
        np.matmul(point[j], batch.flat[b], out=lam[j])
    lam += np.array(mu)[:, None]
    # one dot product per point: matmul over stacks of row @ column
    counted = np.matmul(np.log(lam)[:, None, :], batch.counts[:, None]).tolist()
    charged = np.matmul(point[:, None, :], batch.totals[list(blocks)][:, :, None]).tolist()
    dt, grid = batch.bin_width, batch.grid_cells
    shares, log_sums = [], []
    for j, (((log_sum,),), ((spent,),), rate) in enumerate(zip(counted, charged, mu)):
        log_sums.append(log_sum)
        # lam <= 0 at a cell makes its log -inf or nan, so only such rows are checked
        if not math.isfinite(log_sum) and (lam[j] <= 0.0).any():
            shares.append(-math.inf)
        else:
            shares.append(log_sum - dt * (rate * grid + spent))
    return lam, shares, log_sums


def bic_penalty(type_count: int, edge_count: int, per_edge: int, total_events: int) -> float:
    """Complexity penalty ``p * log(m) / 2`` with ``p = type_count + per_edge * edge_count``.

    The conventional count is ``per_edge = max_hops``, although each edge
    actually carries ``max_hops + 1`` alpha values; at ``max_hops = 0`` it
    makes the penalty edge-independent. ``total_events = 0`` yields penalty 0.
    """
    if total_events < 0:
        raise InvalidInputError("total_events must be >= 0")
    if total_events == 0:
        return 0.0
    p = type_count + per_edge * edge_count
    return p * math.log(total_events) / 2.0
