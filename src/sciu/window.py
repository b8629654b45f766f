"""Per-sample trailing windows kept as (n, t) ring buffers.

Each sample id owns one row of every buffer, appended on its first entry
and found by a binary search over the ids in sorted order. The row's k-th
entry since it was last cleared sits in column k % t, and `counts[row]` is
the number of entries since then, so a row holds a full window once its
count reaches t, with its oldest entry at column count % t.

`add` only buffers one sample's record. Before any read, `flush` turns the
buffered records, all of one layout, into one column per buffer and `push`
writes each column with one whole-array write.

A decision epoch looks its ids up once: `push` and then the decision's
`full_rows` are given equal id arrays (the active set, in order), so `find`
keeps its last ids with their rows and answers an equal array from them.
Rows never move; only growth changes what an id finds, and `push` refreshes
the kept rows when it adds new ones.
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
        self._order = np.zeros(0, dtype=np.int64)  # argsort of row_ids
        self._columns = columns
        self._pending: dict = {}  # sample id -> record, in call order
        none = np.zeros(0, np.int64)
        self._found = (none, none, np.zeros(0, bool))  # find's last (ids, rows, known)

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
        `ids`; ids seen for the first time get new rows."""
        rows, known = self.find(ids)
        if not known.all():
            new = ids[~known]
            rows[~known] = np.arange(len(self.row_ids), len(self.row_ids) + len(new))
            self.row_ids = np.concatenate([self.row_ids, new])
            self._order = np.argsort(self.row_ids)
            self.counts = np.concatenate([self.counts, np.zeros(len(new), np.int64)])
            for name, buf in self.buffers.items():
                pad = np.zeros((len(new), self.window), buf.dtype)
                self.buffers[name] = np.concatenate([buf, pad])
            self._found = (ids.copy(), rows.copy(), np.ones(len(ids), bool))
        cols = self.counts[rows] % self.window
        for name, values in columns.items():
            self.buffers[name][rows, cols] = values
        self.counts[rows] += 1

    def find(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(rows, known): the row of each id, valid where `known` is set."""
        self.flush()
        last, rows, known = self._found
        if not np.array_equal(ids, last):
            at = np.searchsorted(self.row_ids, ids, sorter=self._order)
            known = at < len(self.row_ids)
            rows = np.zeros(len(ids), np.int64)
            rows[known] = self._order[at[known]]
            known[known] = self.row_ids[rows[known]] == ids[known]
            self._found = (ids.copy(), rows, known)
        return rows.copy(), known.copy()

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
