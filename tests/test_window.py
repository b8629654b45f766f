"""Buffered window entries against the scalar references.

`record_score` and `record_prediction` only buffer their entry; the
windows see it when the buffer is written as columns, before any read.
Random interleavings of records, reads and decisions must give exactly what
`ScoreHistory` and `PredictionHistory` give when each entry is stored as it
is recorded.
"""

import numpy as np
import pytest

from sciu.cgp import (
    PruneState,
    ScoreHistory,
    apply_pruning,
    prune_decision,
    record_score,
    trailing_mean,
)
from sciu.dataset import Dataset
from sciu.errors import ConfigurationError, LogicError, ValidationError
from sciu.fgc import (
    CorrectionState,
    PredictionHistory,
    apply_corrections,
    correction_decision,
    record_prediction,
)
from sciu.window import RingWindows

N_IDS = 12


def dataset(n_classes, labels):
    n = len(labels)
    return Dataset(np.arange(n, dtype=np.int64), np.arange(n, dtype=np.float64)[:, None],
                   np.array(labels, dtype=np.int64), np.full(n, -1, dtype=np.int64),
                   np.full(n, -1, dtype=np.int8), n_classes=n_classes, dim=1)


def count(windows, sample_id):
    (row,), (known,) = windows.find(np.array([sample_id]))
    return int(windows.counts[row]) if known else 0


@pytest.mark.parametrize("seed", range(25))
def test_pruning_interleavings_match_score_history(seed):
    rng = np.random.default_rng(seed)
    lam, window = float(rng.uniform(0.1, 0.5)), int(rng.integers(1, 4))
    ds = dataset(2, [0] * N_IDS)
    state = PruneState(lam=lam, window=window)
    refs = {i: ScoreHistory(i, window) for i in ds.ids}
    pruned: set[int] = set()
    active, epoch = ds, 0
    for _ in range(120):
        op = rng.uniform()
        if op < 0.8:  # a record, ids repeating before the next decision
            i = int(rng.integers(N_IDS))
            w, p = float(rng.uniform(0.01, 0.99)), float(rng.uniform(0, 1))
            if i in pruned:
                with pytest.raises(LogicError):
                    record_score(state, i, w, p, epoch)
                continue
            record_score(state, i, w, p, epoch)
            refs[i].record(w * p)
        elif op < 0.9:  # a read between records
            i = int(rng.integers(N_IDS))
            assert count(state.windows, i) == refs[i].epochs_recorded
        else:
            log_start = len(state.prune_log)
            active, newly = apply_pruning(state, active, epoch)
            want = []
            for i in ds.ids:
                s_t = trailing_mean(refs[i])
                if i in pruned or s_t is None or prune_decision(s_t, lam):
                    continue
                want.append({"epoch": epoch, "sample_id": i, "S_T": s_t, "lambda": lam})
            pruned |= newly
            assert state.prune_log[log_start:] == want
            assert newly == {e["sample_id"] for e in want}
            assert active.ids == [i for i in ds.ids if i not in pruned]
            epoch += 1


@pytest.mark.parametrize("seed", range(25))
def test_correction_interleavings_match_prediction_history(seed):
    # Some rows are overwritten by the caller after they are recorded, and
    # ids repeat between decisions.
    rng = np.random.default_rng(seed)
    tau, window = float(rng.uniform(0.05, 0.4)), int(rng.integers(1, 4))
    favourite = rng.integers(0, 5, N_IDS)
    ds = dataset(5, rng.integers(0, 4, N_IDS).tolist())
    state = CorrectionState(tau=tau, window=window, n_classes=5)
    refs = {i: PredictionHistory(i, window) for i in ds.ids}
    current = dict(zip(ds.ids, ds.labels().tolist()))
    active, epoch = ds, 0
    for _ in range(150):
        op = rng.uniform()
        if op < 0.8:
            i = int(rng.integers(N_IDS))
            alpha = np.full(5, 0.3)
            alpha[favourite[i]] = 5.0
            row = rng.dirichlet(alpha)
            y = int(np.argmax(row))
            refs[i].record(y, float(row[y]), float(row[current[i]]))
            record_prediction(state, i, row, current[i], epoch)
            if rng.uniform() < 0.3:
                row[:] = rng.permutation(row)[::-1]
        elif op < 0.88:
            i = int(rng.integers(N_IDS))
            assert count(state.windows, i) == refs[i].epochs_recorded
        else:
            active, events = apply_corrections(state, active, epoch)
            want = []
            for i in ds.ids:
                if correction_decision(refs[i], tau):
                    new = refs[i].entries[0][0]
                    want.append((i, current[i], new, epoch))
                    current[i] = new
                    refs[i].clear()
            assert [(e.sample_id, e.old_label, e.new_label, e.epoch) for e in events] == want
            assert active.labels().tolist() == [current[i] for i in ds.ids]
            epoch += 1


def test_recorded_row_is_copied():
    state = CorrectionState(tau=0.2, window=1, n_classes=2)
    row = np.array([0.1, 0.9])
    record_prediction(state, 0, row, 0, epoch=0)
    row[:] = [0.9, 0.1]
    _, events = apply_corrections(state, dataset(2, [0]), epoch=0)
    assert [(e.old_label, e.new_label) for e in events] == [(0, 1)]


def test_checks_run_at_call_time():
    prune = PruneState(lam=0.5, window=2)
    for weight in (1.5, -0.5):
        with pytest.raises(ValidationError):
            record_score(prune, 0, weight, 0.5, 0)
    correct = CorrectionState(tau=0.2, window=2, n_classes=2)
    with pytest.raises(ValidationError):
        record_prediction(correct, 0, np.array([0.5, 0.5]), 2, 0)
    assert count(prune.windows, 0) == count(correct.windows, 0) == 0
    record_score(prune, 0, 0.0, 0.5, 0)
    record_score(prune, 1, 1.0, 0.5, 0)
    assert count(prune.windows, 0) == count(prune.windows, 1) == 1


class TestPush:
    def _windows(self):
        return RingWindows(2, lambda v: {"x": np.array(v, np.float64)}, x=np.float64)

    def test_new_ids_get_rows_and_known_ids_keep_theirs(self):
        w = self._windows()
        w.push(np.array([7, 3]), x=np.array([1.0, 2.0]))
        w.push(np.array([3, 5, 7]), x=np.array([3.0, 4.0, 5.0]))
        rows, known = w.find(np.array([3, 4, 5, 7]))
        assert known.tolist() == [True, False, True, True]
        assert w.counts[rows[known]].tolist() == [2, 1, 2]
        assert w.mean("x", rows[[0, 3]]).tolist() == [2.5, 3.0]

    def test_new_ids_below_known_ones_keep_rows_in_id_order(self):
        w = self._windows()
        w.push(np.array([9, 6, 4]), x=np.array([0.9, 0.6, 0.4]))
        w.push(np.array([5, 2, 9]), x=np.array([0.5, 0.2, 1.9]))
        assert w.row_ids.tolist() == [2, 4, 5, 6, 9]
        assert w.counts.tolist() == [1, 1, 1, 1, 2]
        rows, known = w.find(np.array([2, 4, 5, 6, 9]))
        assert known.all()
        assert w.buffers["x"][rows].tolist() == [
            [0.2, 0.0], [0.4, 0.0], [0.5, 0.0], [0.6, 0.0], [0.9, 1.9]]

    def test_pending_entries_land_before_a_push(self):
        w = self._windows()
        w.add(1, 0.25)
        w.push(np.array([1]), x=np.array([0.75]))
        (row,), _ = w.find(np.array([1]))
        assert w.buffers["x"][row].tolist() == [0.25, 0.75]

    def test_mean_and_clear_see_pending_entries(self):
        w = self._windows()
        w.push(np.array([1]), x=np.array([0.25]))
        (row,), _ = w.find(np.array([1]))
        w.add(1, 0.75)
        assert w.mean("x", np.array([row])).tolist() == [0.5]
        w.add(1, 1.0)
        w.clear(np.array([row]))
        assert w.counts[row] == 0

    def test_empty_windows_know_no_id(self):
        rows, known = self._windows().find(np.array([0, 1]))
        assert not known.any() and len(rows) == 2

    @pytest.mark.parametrize("window", [0, -2])
    def test_window_below_one_is_rejected(self, window):
        with pytest.raises(ConfigurationError, match="^window must be >= 1$"):
            RingWindows(window, lambda v: {"x": np.array(v, np.float64)}, x=np.float64)


class TestFindAgainstDict:
    """Random pushes, adds, lookups, means and clears are checked against a
    dict-of-lists reference: rows are in id order, so an id's row is its
    rank among the ids seen so far, and an id holds the list of its entries
    since its last clear."""

    UNIVERSE = 40

    def _ids(self, rng, last):
        kind = rng.integers(6)
        if kind == 0:  # the very array given last
            return last
        if kind == 1:  # an equal array
            return last.copy()
        if kind == 2:  # reordered
            return rng.permutation(last)
        if kind == 3 and 0 < len(last) < self.UNIVERSE:  # equal length, one id swapped
            ids = last.copy()
            ids[rng.integers(len(ids))] = rng.choice(np.setdiff1d(np.arange(self.UNIVERSE), last))
            return ids
        # known and unknown ids mixed
        return rng.choice(self.UNIVERSE, int(rng.integers(0, 15)), replace=False)

    @pytest.mark.parametrize("seed", range(30))
    def test_rows_and_counts_match_the_reference(self, seed):
        rng = np.random.default_rng(seed)
        t = int(rng.integers(1, 4))
        w = RingWindows(t, lambda v: {"x": np.array(v, np.float64)}, x=np.float64)
        entries: dict[int, list] = {}
        last = np.zeros(0, np.int64)

        def record(i, v):
            entries.setdefault(i, []).append(v)

        def row_of(i):
            return sorted(entries).index(i)

        for _ in range(250):
            ids = self._ids(rng, last)
            op = rng.integers(6)
            if op == 0:
                values = rng.uniform(size=len(ids))
                w.push(ids, x=values)
                for i, v in zip(ids.tolist(), values.tolist()):
                    record(i, v)
            elif op == 1:  # staged one by one, flushed by the next read
                for i in ids.tolist():
                    v = float(rng.uniform())
                    w.add(i, v)
                    record(i, v)
                last = ids
                continue
            elif op == 2:
                rows, known = w.find(ids)
                assert known.tolist() == [i in entries for i in ids.tolist()]
                assert rows[known].tolist() == [row_of(i) for i in ids.tolist() if i in entries]
                rows[:], known[:] = 0, False  # the caller's arrays, not the windows' state
            elif op == 3:
                pos, rows = w.full_rows(ids)
                want = [k for k, i in enumerate(ids.tolist()) if len(entries.get(i, ())) >= t]
                assert pos.tolist() == want
                assert rows.tolist() == [row_of(i) for i in ids[want].tolist()]
                assert w.mean("x", rows).tolist() == [
                    sum(entries[i][-t:]) / t for i in ids[want].tolist()]
            elif op == 4:
                rows, known = w.find(ids)
                w.clear(rows[known])
                for i in ids[known].tolist():
                    entries[i] = []
            else:  # the caller edits its array after a lookup
                ids = ids.copy()
                w.find(ids)
                if 0 < len(ids) < self.UNIVERSE:
                    other = np.setdiff1d(np.arange(self.UNIVERSE), ids)
                    ids[rng.integers(len(ids))] = rng.choice(other)
            last = ids
            order = sorted(entries)
            assert w.row_ids.tolist() == order
            assert w.counts.tolist() == [len(entries[i]) for i in order]
