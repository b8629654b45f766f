"""Per-sample trailing windows kept as (n, t) ring buffers.

Each sample id owns one row of every buffer. Rows are kept in id order, so
one binary search over `row_ids` finds an id's row. The row's k-th entry
since it was last cleared sits in column k % t, and `counts[row]` is the
number of entries since then, so a row holds a full window once its count
reaches t, with its oldest entry at column count % t.

`add` only buffers one sample's record. Before any read, `flush` turns the
buffered records, all of one layout, into one column per buffer and `push`
writes each column with one whole-array write.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ConfigurationError


class RingWindows:
    """Ring buffers named by keyword, each with its dtype: `buffers[name]`
    is the (rows, t) array. `columns(records)` maps a list of buffered
    records to one column per buffer. The window t must be >= 1."""

    def __init__(self, window: int, columns: Callable[[list], dict], **dtypes):
        if window < 1:
            raise ConfigurationError("window must be >= 1")
        self.window = window
        self.row_ids = np.zeros(0, dtype=np.int64)
        self.counts = np.zeros(0, dtype=np.int64)
        self.buffers = {name: np.zeros((0, window), dtype) for name, dtype in dtypes.items()}
        self._columns = columns
        self._pending: dict = {}  # sample id -> record, in call order

    def add(self, sample_id: int, record) -> None:
        """Buffer one entry; a pending id flushes first, so entries land in
        call order."""
        if sample_id in self._pending:
            self.flush()
        self._pending[sample_id] = record

    def flush(self) -> None:
        if self._pending:
            records, self._pending = self._pending, {}
            ids = np.fromiter(records, np.int64, len(records))
            self.push(ids, **self._columns(list(records.values())))

    def push(self, ids: np.ndarray, **columns: np.ndarray) -> None:
        """Write one entry, `columns[name][i]`, for each of the distinct
        `ids`; ids seen for the first time get new rows, inserted in id order."""
        rows, known = self.find(ids)
        if not known.all():
            new = np.sort(ids[~known])
            at = np.searchsorted(self.row_ids, new)
            self.row_ids = np.insert(self.row_ids, at, new)
            self.counts = np.insert(self.counts, at, 0)
            for name, buf in self.buffers.items():
                self.buffers[name] = np.insert(buf, at, 0, axis=0)
            rows = np.searchsorted(self.row_ids, ids)
        cols = self.counts[rows] % self.window
        for name, values in columns.items():
            self.buffers[name][rows, cols] = values
        self.counts[rows] += 1

    def find(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(rows, known): the row of each id, valid where `known` is set.

        Rows are renumbered when `push` adds ids, so a row is good only until
        the next entry of a new id; `cgp` and `fgc` stage nothing between
        `full_rows` and `mean`/`clear`."""
        self.flush()
        rows = np.searchsorted(self.row_ids, ids)
        known = rows < len(self.row_ids)
        known[known] = self.row_ids[rows[known]] == ids[known]
        return rows, known

    def full_rows(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(positions in `ids`, rows) of the ids that have a full window."""
        rows, hit = self.find(ids)
        hit[hit] = self.counts[rows[hit]] >= self.window
        return np.flatnonzero(hit), rows[hit]

    def mean(self, name: str, rows: np.ndarray) -> np.ndarray:
        """Window mean of full rows: the entries summed oldest first, left
        to right, then divided by t (the order `sum(deque) / t` adds in)."""
        self.flush()
        buf = self.buffers[name]
        oldest = self.counts[rows] % self.window
        total = buf[rows, oldest]
        for k in range(1, self.window):
            total = total + buf[rows, (oldest + k) % self.window]
        return total / self.window

    def clear(self, rows: np.ndarray) -> None:
        self.flush()
        self.counts[rows] = 0
