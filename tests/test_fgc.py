import numpy as np
import pytest

from sciu.dataset import Dataset
from sciu.errors import ConfigurationError, LogicError, ValidationError
from sciu.trainer import PROB_SOURCES, TrainConfig
from sciu.fgc import (
    CorrectionState,
    PredictionHistory,
    apply_corrections,
    correct_epoch,
    correction_decision,
    label_stable,
    record_prediction,
    score_gap,
)


def toy_dataset(labels):
    n = len(labels)
    return Dataset(np.arange(n, dtype=np.int64), np.arange(n, dtype=np.float64)[:, None],
                   np.array(labels, dtype=np.int64), np.full(n, -1, dtype=np.int64),
                   np.full(n, -1, dtype=np.int8), n_classes=4, dim=1)


def first_entry(state, sample_id):
    """(y_pred, p_pred, p_gt) of a sample's first recorded prediction."""
    w = state.windows
    (row,), _ = w.find(np.array([sample_id]))
    return tuple(w.buffers[k][row, 0] for k in ("preds", "p_pred", "p_gt"))


def recorded(state, sample_id):
    """Predictions recorded for a sample since its window was last cleared."""
    w = state.windows
    (row,), (known,) = w.find(np.array([sample_id]))
    return int(w.counts[row]) if known else 0


def history(entries, window):
    h = PredictionHistory(0, window)
    for y, p, g in entries:
        h.record(y, p, g)
    return h


class TestRecordPrediction:
    def test_argmax_entry(self):
        state = CorrectionState(tau=0.2, window=3, n_classes=2)
        record_prediction(state, 0, np.array([0.1, 0.9]), gt_label=0, epoch=0)
        assert first_entry(state, 0) == (1, pytest.approx(0.9), pytest.approx(0.1))

    def test_gt_is_argmax(self):
        state = CorrectionState(tau=0.2, window=3, n_classes=2)
        record_prediction(state, 0, np.array([0.7, 0.3]), gt_label=0, epoch=0)
        y, p_pred, p_gt = first_entry(state, 0)
        assert y == 0 and p_pred == p_gt

    def test_tie_takes_lowest_index(self):
        state = CorrectionState(tau=0.2, window=3, n_classes=3)
        record_prediction(state, 0, np.array([0.4, 0.4, 0.2]), gt_label=2, epoch=0)
        assert first_entry(state, 0)[0] == 0

    @pytest.mark.parametrize("gt_label", [-1, 3, 1.5, True])
    def test_label_outside_row_rejected(self, gt_label):
        # -1 used to record probs[-1] as the annotated-label probability,
        # and 1.5 or True probs[1].
        state = CorrectionState(tau=0.2, window=1, n_classes=3)
        with pytest.raises(ValidationError):
            record_prediction(state, 0, np.array([0.1, 0.2, 0.7]), gt_label, epoch=0)
        assert recorded(state, 0) == 0

    @pytest.mark.parametrize("probs", [np.full(4, 0.25), np.full(6, 1 / 6), np.full((1, 5), 0.2),
                                       np.array(1.0)])
    def test_row_not_of_the_stage_class_count_rejected(self, probs):
        # A 4-wide row in a 5-class stage used to be buffered as its own group.
        state = CorrectionState(tau=0.2, window=1, n_classes=5)
        record_prediction(state, 1, np.full(5, 0.2), 0, epoch=0)
        with pytest.raises(ValidationError, match=r"^sample 0: probs shape .* != \(5,\)$"):
            record_prediction(state, 0, probs, 0, epoch=0)
        assert list(state.windows._pending) == [1]
        assert recorded(state, 0) == 0 and recorded(state, 1) == 1


    @pytest.mark.parametrize("row", [
        np.array([0.1, 0.7, 0.2], np.float32),
        np.array([0, 1, 0]),
        [0.1, 0.7, 0.2],
        np.array([[0.1, 0.0], [0.7, 0.0], [0.2, 0.0]])[:, 0],
        np.array([0.1, 0.7, 0.2], ">f8"),
    ], ids=["float32", "int", "list", "strided-float64", "big-endian"])
    def test_row_staged_as_native_float64(self, row):
        # Every row is staged as the bytes of `np.asarray(row, float)`.
        want = np.asarray(row, float)
        state = CorrectionState(tau=0.2, window=1, n_classes=3)
        record_prediction(state, 0, row, 2, epoch=0)
        assert list(state.windows._pending.values()) == [(want.tobytes(), 2)]
        assert first_entry(state, 0) == (1, want[1], want[2])


class TestLabelStable:
    def test_all_equal(self):
        assert label_stable(history([(1, 0.9, 0.1)] * 3, window=3)) is True

    def test_flip_breaks(self):
        h = history([(1, 0.9, 0.1), (2, 0.9, 0.1), (1, 0.9, 0.1)], window=3)
        assert label_stable(h) is False

    def test_short_window(self):
        assert label_stable(history([(1, 0.9, 0.1)] * 2, window=3)) is False


class TestScoreGap:
    def test_arithmetic(self):
        h = history([(1, 0.6, 0.3), (1, 0.6, 0.3)], window=2)
        assert score_gap(h) == pytest.approx(0.3)

    def test_zero_when_pred_equals_gt(self):
        h = history([(0, 0.8, 0.8), (0, 0.7, 0.7)], window=2)
        assert score_gap(h) == pytest.approx(0.0)

    def test_short_window_raises(self):
        with pytest.raises(LogicError):
            score_gap(history([(1, 0.9, 0.1)], window=3))

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            t = int(rng.integers(1, 6))
            preds = rng.uniform(0, 1, t)
            gts = rng.uniform(0, 1, t)
            h = history([(1, p, g) for p, g in zip(preds, gts)], window=t)
            assert score_gap(h) == pytest.approx(
                preds.mean() - gts.mean(), abs=1e-12
            )


class TestCorrectionDecision:
    def test_boundary_rejects(self):
        h = history([(1, 0.5, 0.3)] * 3, window=3)
        assert correction_decision(h, tau=0.2) is False

    def test_unstable_rejects_despite_gap(self):
        h = history([(1, 0.95, 0.05), (2, 0.95, 0.05), (1, 0.95, 0.05)], window=3)
        assert correction_decision(h, tau=0.2) is False

    def test_stable_with_gap_accepts(self):
        h = history([(1, 0.8, 0.1)] * 3, window=3)
        assert correction_decision(h, tau=0.2) is True

    def test_bad_tau(self):
        with pytest.raises(ConfigurationError):
            CorrectionState(tau=0.0, window=3, n_classes=4)

    def test_bad_window(self):
        with pytest.raises(ConfigurationError, match="^window must be >= 1$"):
            CorrectionState(tau=0.2, window=0, n_classes=4)


class TestApplyCorrections:
    def test_nothing_accepted(self):
        ds = toy_dataset([0, 1])
        state = CorrectionState(tau=0.2, window=2, n_classes=4)
        for epoch in range(2):
            for s in ds.samples:
                probs = np.zeros(4)
                probs[s.label] = 1.0
                record_prediction(state, s.id, probs, s.label, epoch)
        d4, events = apply_corrections(state, ds, epoch=1)
        assert d4.ids == ds.ids and not events
        assert [s.label for s in d4.samples] == [0, 1]

    def test_accepted_event_fields(self):
        ds = toy_dataset([0])
        state = CorrectionState(tau=0.2, window=2, n_classes=4)
        probs = np.array([0.05, 0.0, 0.0, 0.95])
        for epoch in range(2):
            record_prediction(state, 0, probs, 0, epoch)
        d4, events = apply_corrections(state, ds, epoch=5)
        assert len(events) == 1
        e = events[0]
        assert (e.sample_id, e.old_label, e.new_label, e.epoch) == (0, 0, 3, 5)
        assert d4.samples[0].label == 3

    def test_cardinality_preserved(self):
        ds = toy_dataset([0, 1, 2, 3, 0])
        state = CorrectionState(tau=0.1, window=2, n_classes=4)
        rng = np.random.default_rng(3)
        for epoch in range(2):
            for s in ds.samples:
                record_prediction(state, s.id, rng.dirichlet(np.ones(4)), s.label, epoch)
        d4, _ = apply_corrections(state, ds, epoch=1)
        assert len(d4) == len(ds)
        assert d4.ids == ds.ids

    def test_history_cleared_after_correction(self):
        ds = toy_dataset([0])
        state = CorrectionState(tau=0.2, window=2, n_classes=4)
        probs = np.array([0.05, 0.0, 0.0, 0.95])
        for epoch in range(2):
            record_prediction(state, 0, probs, 0, epoch)
        apply_corrections(state, ds, epoch=1)
        assert recorded(state, 0) == 0
        # One more record is not enough for a second decision.
        record_prediction(state, 0, probs, 3, epoch=2)
        _, events = apply_corrections(state, ds, epoch=2)
        assert not events

    def test_tau_range_from_the_gaps_decided(self):
        """lo: the largest gap of a stable, rejected sample; hi: the
        smallest gap of an accepted one; unstable samples do not count."""
        ds = toy_dataset([0, 0, 0, 0])
        state = CorrectionState(tau=0.2, window=2, n_classes=4)
        rows = {0: [0.45, 0.55, 0, 0], 1: [0.2, 0.8, 0, 0], 2: [0.1, 0.9, 0, 0]}
        for epoch in range(2):
            for sid, row in rows.items():
                record_prediction(state, sid, np.array(row), 0, epoch)
            flip = [0.0, 0.0, 1.0, 0.0] if epoch else [0.0, 1.0, 0.0, 0.0]
            record_prediction(state, 3, np.array(flip), 0, epoch)
        _, events = apply_corrections(state, ds, epoch=1)
        assert [e.sample_id for e in events] == [1, 2]
        assert state.tau_range == (0.55 - 0.45, 0.8 - 0.2)
        # A later call only narrows the range.
        for epoch in (2, 3):
            record_prediction(state, 0, np.array([0.3, 0.7, 0, 0]), 0, epoch)
        apply_corrections(state, ds, epoch=3)
        assert state.tau_range == (0.55 - 0.45, 0.7 - 0.3)

    def test_nan_gap_leaves_no_tau_in_range(self):
        ds = toy_dataset([0, 0])
        state = CorrectionState(tau=0.2, window=2, n_classes=4)
        for epoch in range(2):
            record_prediction(state, 0, np.array([np.nan, 0.0, 0.0, 0.0]), 0, epoch)
            record_prediction(state, 1, np.array([0.1, 0.9, 0.0, 0.0]), 0, epoch)
        _, events = apply_corrections(state, ds, epoch=1)
        assert [e.sample_id for e in events] == [1]
        lo, hi = state.tau_range
        assert np.isnan(lo) and hi == 0.9 - 0.1
        apply_corrections(state, ds, epoch=2)
        assert np.isnan(state.tau_range[0])

    def test_tau_monotonicity_property(self):
        rng = np.random.default_rng(4)
        histories = {}
        for i in range(50):
            t = 3
            y = int(rng.integers(0, 4))
            entries = [
                (y, float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
                for _ in range(t)
            ]
            histories[i] = history(entries, window=t)
        prev = None
        for tau in (0.1, 0.2, 0.3, 0.4, 0.5):
            accepted = {
                i for i, h in histories.items() if correction_decision(h, tau)
            }
            if prev is not None:
                assert accepted <= prev
            prev = accepted


class TestArrayCorrectionsMatchScalarRule:
    """`apply_corrections` decides every ready sample at once; each event
    must be what `PredictionHistory` with `correction_decision` gives for
    that sample alone, history cleared after a correction."""

    def _run(self, rng, tau, window, labels, epochs, probs_of):
        ds = toy_dataset(labels)
        state = CorrectionState(tau=tau, window=window, n_classes=4)
        refs = {i: PredictionHistory(i, window) for i in ds.ids}
        current = dict(zip(ds.ids, labels))
        active = ds
        all_events = []
        for epoch in range(epochs):
            for i in active.ids:
                probs = probs_of(i, epoch)
                record_prediction(state, i, probs, current[i], epoch)
                y = int(np.argmax(probs))
                refs[i].record(y, float(probs[y]), float(probs[current[i]]))
            active, events = apply_corrections(state, active, epoch)
            want = []
            for i in ds.ids:
                if correction_decision(refs[i], tau):
                    new = refs[i].entries[0][0]
                    want.append((i, current[i], new, epoch))
                    current[i] = new
                    refs[i].clear()
            assert [(e.sample_id, e.old_label, e.new_label, e.epoch) for e in events] == want
            assert active.ids == ds.ids
            assert active.labels().tolist() == [current[i] for i in ds.ids]
            for i in ds.ids:
                assert recorded(state, i) == refs[i].epochs_recorded
            all_events += want
        return all_events

    @pytest.mark.parametrize("seed", range(20))
    def test_random_histories(self, seed):
        rng = np.random.default_rng(seed)
        favourite = rng.integers(0, 4, 40)

        def probs_of(i, epoch):
            alpha = np.full(4, 0.3)
            alpha[favourite[i] if rng.uniform() < 0.8 else rng.integers(4)] = 4.0
            return rng.dirichlet(alpha)

        events = self._run(rng, float(rng.uniform(0.05, 0.5)), int(rng.integers(1, 4)),
                           rng.integers(0, 4, 40).tolist(), epochs=10, probs_of=probs_of)
        assert events

    def test_second_correction_after_clear(self):
        # Sample 0 is corrected to class 3, its history is cleared, and t
        # new epochs later it is corrected again, from 3 to class 1.
        to3 = np.array([0.05, 0.0, 0.0, 0.95])
        to1 = np.array([0.0, 0.9, 0.0, 0.1])
        events = self._run(np.random.default_rng(0), 0.2, 2, [0], epochs=5,
                           probs_of=lambda i, e: to3 if e < 2 else to1)
        assert events == [(0, 0, 3, 1), (0, 3, 1, 3)]


class TestCorrectEpochMatchesScalarRule:
    """`correct_epoch` driven by per-epoch probability arrays, with no model:
    every correction must be what `PredictionHistory` with
    `correction_decision` gives for the rows `prob_source` names, and the
    rows it returns are all of the unweighted probs."""

    def _run(self, source, tau, window, labels, epochs, outputs_of):
        ds = toy_dataset(labels)
        state = CorrectionState(tau=tau, window=window, n_classes=4)
        config = TrainConfig(tau=tau, window_t=window, prob_source=source)
        refs = {i: PredictionHistory(i, window) for i in ds.ids}
        current = dict(zip(ds.ids, labels))
        active, all_events = ds, []
        for epoch in range(epochs):
            eval_out = outputs_of(epoch)
            picked = eval_out["weighted_probs" if source == "weighted" else "probs"]
            for i, row in zip(ds.ids, picked):
                y = int(np.argmax(row))
                refs[i].record(y, float(row[y]), float(row[current[i]]))
            active, rows = correct_epoch(state, active, eval_out, epoch, config)
            want = []
            for i in ds.ids:
                if correction_decision(refs[i], tau):
                    want.append((i, current[i], refs[i].entries[0][0], epoch))
                    current[i] = refs[i].entries[0][0]
                    refs[i].clear()
            assert [(e.sample_id, e.old_label, e.new_label, e.epoch)
                    for e in state.corrections[len(all_events):]] == want
            assert active.ids == ds.ids
            assert active.labels().tolist() == [current[i] for i in ds.ids]
            assert rows is eval_out["probs"]
            all_events += want
        return all_events

    @pytest.mark.parametrize("source", PROB_SOURCES)
    @pytest.mark.parametrize("seed", range(4))
    def test_random_epochs(self, source, seed):
        rng = np.random.default_rng(seed)
        window, n = int(rng.integers(1, 4)), 40
        favourite = rng.integers(0, 4, n)

        def outputs_of(epoch):
            alpha = np.full((2, n, 4), 0.3)
            alpha[:, np.arange(n), favourite] = 4.0
            probs, weighted = (np.array([rng.dirichlet(a) for a in side]) for side in alpha)
            return {"probs": probs, "weighted_probs": weighted}

        events = self._run(source, 0.2, window, rng.integers(0, 4, n).tolist(), window + 3,
                           outputs_of)
        assert events

    @pytest.mark.parametrize("source", PROB_SOURCES)
    def test_argmax_tie_corrects_to_lowest_index(self, source):
        # Classes 1 and 2 tie at the top of every row of the source read;
        # the other source's rows would correct sample 0 to class 3.
        tie, other = np.array([0.1, 0.45, 0.45, 0.0]), np.array([0.0, 0.0, 0.1, 0.9])

        def outputs_of(epoch):
            out = {"probs": other[None], "weighted_probs": other[None]}
            return {**out, "weighted_probs" if source == "weighted" else "probs": tie[None]}

        assert self._run(source, 0.2, 2, [0], 4, outputs_of) == [(0, 0, 1, 1)]
