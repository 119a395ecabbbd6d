"""The event table and its discretization into sparse per-bin counts.

Events are one table, a numpy record array with columns ``node``,
``event_type`` and ``timestamp``. :func:`discretize` bins it on a regular grid
of width ``bin_width`` by flooring ``timestamp / bin_width``. Counts are
stored sparsely as parallel arrays sorted by (type, bin, node); every
downstream computation (features, likelihood, EM) touches only the occupied
cells plus closed-form totals, so empty bins cost nothing.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "EVENT_DTYPE",
    "event_table",
    "DiscreteDataset",
    "discretize",
    "load_events_csv",
    "save_events_csv",
]

EVENTS_HEADER = ("node", "event_type", "timestamp")
EVENT_DTYPE = np.dtype([("node", np.int64), ("event_type", np.int64), ("timestamp", np.float64)])


def event_table(nodes, types, stamps) -> np.recarray:
    """Event table from three equal-length columns, one row per event."""
    return np.rec.fromarrays([nodes, types, stamps], dtype=EVENT_DTYPE)


@dataclass(frozen=True)
class DiscreteDataset:
    """Sparse per-bin event counts on a fixed (node, type, bin) grid.

    ``nodes``, ``types``, ``bins`` and ``counts`` are parallel arrays, one row
    per occupied cell, sorted lexicographically by (type, bin, node). Cells
    not listed hold zero events.
    """

    node_count: int
    type_count: int
    bin_count: int
    bin_width: float
    nodes: np.ndarray = field(repr=False)
    types: np.ndarray = field(repr=False)
    bins: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)

    @property
    def total_events(self) -> int:
        return int(self.counts.sum())

    @property
    def horizon_end(self) -> float:
        return self.bin_count * self.bin_width

    def type_rows(self, event_type: int) -> slice:
        """Row range of ``event_type`` in the sorted cell arrays."""
        lo = int(np.searchsorted(self.types, event_type, side="left"))
        hi = int(np.searchsorted(self.types, event_type, side="right"))
        return slice(lo, hi)

    def events_per_type(self) -> np.ndarray:
        """Total event count of each type, shape ``(type_count,)``."""
        totals = np.zeros(self.type_count, dtype=np.int64)
        np.add.at(totals, self.types, self.counts)
        return totals

    def count_at(self, node: int, event_type: int, time_bin: int) -> int:
        """Events in one cell; 0 when the cell is unoccupied."""
        rows = self.type_rows(event_type)
        key = self.bins[rows] * self.node_count + self.nodes[rows]
        idx = np.searchsorted(key, time_bin * self.node_count + node)
        if idx < key.shape[0] and key[idx] == time_bin * self.node_count + node:
            return int(self.counts[rows][idx])
        return 0


def discretize(
    records,
    bin_width: float,
    horizon_end: float,
    *,
    node_count: int | None = None,
    type_count: int | None = None,
) -> DiscreteDataset:
    """Bin an event table onto the regular grid.

    Parameters
    ----------
    records:
        Event table (:func:`event_table`, :func:`load_events_csv`). Row order
        is irrelevant; permuting the rows produces an identical dataset.
    bin_width:
        Grid resolution, must be positive.
    horizon_end:
        End of the observation window. Timestamps must satisfy
        ``0 <= t < horizon_end``; a timestamp equal to ``horizon_end`` is
        rejected. The final partial bin, if any, is treated as full width.
    node_count, type_count:
        Grid dimensions. Inferred as ``max id + 1`` when omitted.

    Raises
    ------
    InvalidInputError
        On non-positive ``bin_width``/``horizon_end``, a grid of 2**62 cells
        or more (an infinite horizon included), out-of-window or NaN
        timestamps, or node/type ids outside the declared dimensions.
    """
    if not (bin_width > 0):
        raise InvalidInputError(f"bin_width must be positive, got {bin_width}")
    if not (horizon_end > 0):
        raise InvalidInputError(f"horizon_end must be positive, got {horizon_end}")
    nodes, types, stamps = records.node, records.event_type, records.timestamp

    if node_count is None:
        node_count = int(nodes.max()) + 1 if nodes.size else 1
    if type_count is None:
        type_count = int(types.max()) + 1 if types.size else 1
    if node_count < 1 or type_count < 1:
        raise InvalidInputError("node_count and type_count must be >= 1")
    if not (horizon_end / bin_width * node_count * type_count < 2**62):
        raise InvalidInputError(f"horizon_end {horizon_end} gives 2**62 cells or more")
    bin_count = max(1, int(np.ceil(horizon_end / bin_width - 1e-9)))

    bad = ~((stamps >= 0) & (stamps < horizon_end))  # NaN is outside too
    if np.any(bad):
        t = float(stamps[bad][0])
        raise InvalidInputError(
            f"timestamp {t} outside observation window [0, {horizon_end})"
        )
    if nodes.min(initial=0) < 0 or nodes.max(initial=0) >= node_count:
        raise InvalidInputError(f"node id outside 0..{node_count - 1}")
    if types.min(initial=0) < 0 or types.max(initial=0) >= type_count:
        raise InvalidInputError(f"event type outside 0..{type_count - 1}")

    # cell id (type * bin_count + bin) * node_count + node sorts as
    # (type, bin, node); sorted in place, equal ids are one cell's events.
    # In-place steps keep the peak near the table plus the result.
    cells = np.floor(stamps / bin_width).astype(np.int64)
    np.minimum(cells, bin_count - 1, out=cells)
    cells += types * bin_count
    cells *= node_count
    cells += nodes
    cells.sort()
    first = np.diff(cells, prepend=-1) != 0  # ids are >= 0
    counts = np.diff(np.flatnonzero(first), append=cells.shape[0])
    cells = cells[first]
    nodes = cells % node_count
    cells //= node_count
    time_bins = cells % bin_count
    cells //= bin_count
    types = cells

    return DiscreteDataset(
        node_count=node_count,
        type_count=type_count,
        bin_count=bin_count,
        bin_width=float(bin_width),
        nodes=nodes,
        types=types,
        bins=time_bins,
        counts=counts,
    )


def load_events_csv(path: str) -> np.recarray:
    """Read an event CSV with header ``node,event_type,timestamp``.

    Blank lines are skipped and fields may be quoted; ids must be decimal
    int64 and timestamps finite. A file of blank lines is an empty table.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = (line for line in fh if line.strip())
        header = next(lines, None)
        if header is None:
            return event_table([], [], [])
        names = next(csv.reader([header]))
        if tuple(name.strip() for name in names) != EVENTS_HEADER:
            raise InvalidInputError(
                f"{path}: expected header {','.join(EVENTS_HEADER)!r}, got {header.rstrip()!r}"
            )
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # header, no rows
                table = np.loadtxt(lines, dtype=EVENT_DTYPE, delimiter=",",
                                   comments=None, quotechar='"', ndmin=1)
        except ValueError as exc:
            raise InvalidInputError(f"{path}: malformed event rows ({exc})") from exc
    if not np.isfinite(table["timestamp"]).all():
        raise InvalidInputError(f"{path}: non-finite timestamp")
    return table.view(np.recarray)


def save_events_csv(path: str, records) -> None:
    """Write an event table as CRLF-ended rows, timestamps as exact ``repr``."""
    rows = zip(records.node.tolist(), records.event_type.tolist(), records.timestamp.tolist())
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(EVENTS_HEADER) + "\r\n")
        fh.writelines(f"{n},{v},{t!r}\r\n" for n, v, t in rows)
