"""Per-sample trailing windows kept as (n, t) ring buffers.

Each sample id owns one row of every buffer, assigned on its first entry.
The row's k-th entry since it was last cleared sits in column k % t, and
`counts[row]` is the number of entries since then, so a row holds a full
window once its count reaches t, with its oldest entry at column count % t.
Entries are written one at a time; decisions read every full row at once
with whole-array operations.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class RingWindows:
    """Ring buffers named by keyword, each with its dtype: `buffers[name]`
    is the (capacity, t) array and `views[name]` a memoryview of it."""

    def __init__(self, window: int, **dtypes):
        self.window = window
        self.rows: dict[int, int] = {}
        self.row_ids = np.zeros(0, dtype=np.int64)
        self.counts = np.zeros(0, dtype=np.int64)
        self.buffers = {name: np.zeros((0, window), dtype) for name, dtype in dtypes.items()}
        self._grow(64)

    def _grow(self, capacity: int) -> None:
        extra = capacity - len(self.counts)
        self.row_ids = np.concatenate([self.row_ids, np.zeros(extra, np.int64)])
        self.counts = np.concatenate([self.counts, np.zeros(extra, np.int64)])
        for name, buf in self.buffers.items():
            pad = np.zeros((extra, self.window), buf.dtype)
            self.buffers[name] = np.concatenate([buf, pad])
        # One-element reads and writes go through memoryviews of the same
        # buffers: they deal in Python numbers, at a fraction of the cost of
        # indexing the arrays one element at a time.
        self.views = {name: memoryview(buf) for name, buf in self.buffers.items()}
        self._row_ids = memoryview(self.row_ids)
        self._counts = memoryview(self.counts)

    def slot(self, sample_id: int) -> tuple[int, int]:
        """(row, column) of the sample's next entry, which the caller
        writes through `views`; counts the entry as written."""
        row = self.rows.get(sample_id)
        if row is None:
            row = self.rows[sample_id] = len(self.rows)
            if row == len(self.counts):
                self._grow(2 * row)
            self._row_ids[row] = sample_id
        n = self._counts[row]
        self._counts[row] = n + 1
        return row, n % self.window

    def full_rows(
        self, ids: np.ndarray, exclude: Optional[np.ndarray] = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """(positions in `ids`, rows) of the ids that have a full window,
        leaving out the positions where the mask `exclude` is set."""
        order = np.argsort(self.row_ids[: len(self.rows)])
        known = self.row_ids[order]
        at = np.searchsorted(known, ids)
        hit = at < len(known)
        hit[hit] = known[at[hit]] == ids[hit]
        if exclude is not None:
            hit &= ~exclude
        pos = np.flatnonzero(hit)
        rows = order[at[pos]]
        full = self.counts[rows] >= self.window
        return pos[full], rows[full]

    def mean(self, name: str, rows: np.ndarray) -> np.ndarray:
        """Window mean of full rows: the entries summed oldest first, left
        to right, then divided by t (the order `sum(deque) / t` adds in)."""
        buf = self.buffers[name]
        oldest = self.counts[rows] % self.window
        total = buf[rows, oldest]
        for k in range(1, self.window):
            total = total + buf[rows, (oldest + k) % self.window]
        return total / self.window

    def clear(self, rows: np.ndarray) -> None:
        self.counts[rows] = 0
