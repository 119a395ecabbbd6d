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
import os
import warnings
from typing import NamedTuple

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
# Event files up to this size are parsed line by line from an open handle;
# numpy parses a larger one from its path, in blocks. The block parse costs
# about 60 ns less per row, but its first call imports gzip, about 0.5-0.8
# ms, and it reads a name ending in .gz or .xz as an archive; at 12-15
# bytes a row the two cost the same near 150 kB.
_HANDLE_PARSE_BYTES = 1 << 17


def event_table(nodes, types, stamps) -> np.recarray:
    """Event table from three equal-length columns, one row per event."""
    return np.rec.fromarrays([nodes, types, stamps], dtype=EVENT_DTYPE)


class DiscreteDataset(NamedTuple):
    """Sparse per-bin event counts on a fixed (node, type, bin) grid.

    ``nodes``, ``types``, ``bins`` and ``counts`` are parallel arrays, one row
    per occupied cell, sorted lexicographically by (type, bin, node). Cells
    not listed hold zero events.
    """

    node_count: int
    type_count: int
    bin_count: int
    bin_width: float
    nodes: np.ndarray
    types: np.ndarray
    bins: np.ndarray
    counts: np.ndarray

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
    # exact integer product: a node count from an edge list can exceed a float
    if not (horizon_end / bin_width < 2**62):
        raise InvalidInputError(f"horizon_end {horizon_end} gives 2**62 cells or more")
    bin_count = max(1, int(np.ceil(horizon_end / bin_width - 1e-9)))
    if bin_count * node_count * type_count >= 2**62:
        raise InvalidInputError(f"horizon_end {horizon_end} gives 2**62 cells or more")

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

    ``np.loadtxt`` parses the rows after the header; it skips empty lines on
    its own. A file of up to ``_HANDLE_PARSE_BYTES`` is parsed from the
    handle the header was read from, line by line, so numpy neither imports
    gzip nor reads a name ending in ``.gz`` or ``.xz`` as an archive; a
    larger one numpy parses from the path, in blocks. Only if that parse
    fails is the file read again line by line, with every line that holds
    nothing but whitespace dropped first: this second parse accepts such
    lines, and for a malformed file it names the offending row.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for through_header, header in enumerate(fh, start=1):
            if header.strip():
                break
        else:
            return event_table([], [], [])
        names = next(csv.reader([header]))
        if tuple(name.strip() for name in names) != EVENTS_HEADER:
            raise InvalidInputError(
                f"{path}: expected header {','.join(EVENTS_HEADER)!r}, got {header.rstrip()!r}"
            )
        try:
            if os.fstat(fh.fileno()).st_size <= _HANDLE_PARSE_BYTES:
                table = _parse_rows(fh)
            else:
                table = _parse_rows(path, skiprows=through_header, encoding="utf-8")
        except Exception:  # a malformed row, or a name numpy reads as compressed
            table = None
    if table is None:
        with open(path, "r", encoding="utf-8") as fh:
            lines = (line for line in fh if line.strip())
            next(lines)  # the header
            try:
                table = _parse_rows(lines)
            except ValueError as exc:
                raise InvalidInputError(f"{path}: malformed event rows ({exc})") from exc
    if not np.isfinite(table["timestamp"]).all():
        raise InvalidInputError(f"{path}: non-finite timestamp")
    return table.view(np.recarray)


def _parse_rows(source, **options) -> np.ndarray:
    """The event rows of a file path, an open file or an iterable of lines."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # header, no rows
        return np.loadtxt(source, dtype=EVENT_DTYPE, delimiter=",", comments=None,
                          quotechar='"', ndmin=1, **options)


def save_events_csv(path: str, records) -> None:
    """Write an event table as CRLF-ended rows, timestamps as exact ``repr``."""
    rows = zip(records.node.tolist(), records.event_type.tolist(), records.timestamp.tolist())
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(EVENTS_HEADER) + "\r\n")
        fh.writelines(f"{n},{v},{t!r}\r\n" for n, v, t in rows)
