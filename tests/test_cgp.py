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


def toy_dataset(n=5):
    features = np.zeros((n, 2))
    features[:, 0] = np.arange(n)
    return Dataset(np.arange(n, dtype=np.int64), features, np.zeros(n, dtype=np.int64),
                   np.full(n, -1, dtype=np.int64), np.full(n, -1, dtype=np.int8),
                   n_classes=2, dim=2)


class TestScoreHistory:
    def test_product_stored(self):
        state = PruneState(lam=0.5, window=3)
        record_score(state, 0, weight=0.5, prob_of_label=0.8, epoch=0)
        w = state.windows
        (row,), _ = w.find(np.array([0]))
        assert w.counts[row] == 1
        assert w.buffers["scores"][row, 0] == pytest.approx(0.4)

    def test_eviction_keeps_last_t(self):
        h = ScoreHistory(0, window=2)
        for s in (0.1, 0.2, 0.3):
            h.record(s)
        assert list(h.scores) == [pytest.approx(0.2), pytest.approx(0.3)]
        assert h.epochs_recorded == 3

    def test_weight_one_limit(self):
        h = ScoreHistory(0, window=2)
        h.record(1.0 * 0.77)
        assert h.scores[0] == pytest.approx(0.77)

    def test_score_out_of_range(self):
        h = ScoreHistory(0, window=2)
        with pytest.raises(ValidationError):
            h.record(1.5)


class TestTrailingMean:
    def test_mean_of_two(self):
        h = ScoreHistory(0, window=2)
        h.record(0.2)
        h.record(0.4)
        assert trailing_mean(h) == pytest.approx(0.3)

    def test_not_ready(self):
        h = ScoreHistory(0, window=3)
        h.record(0.5)
        assert trailing_mean(h) is None

    def test_constant_scores(self):
        h = ScoreHistory(0, window=3)
        for _ in range(3):
            h.record(0.6)
        assert trailing_mean(h) == pytest.approx(0.6)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            t = int(rng.integers(1, 6))
            n = int(rng.integers(1, 10))
            scores = rng.uniform(0, 1, n)
            h = ScoreHistory(0, window=t)
            for s in scores:
                h.record(float(s))
            if n < t:
                assert trailing_mean(h) is None
            else:
                assert trailing_mean(h) == pytest.approx(
                    scores[-t:].mean(), abs=1e-12
                )


class TestPruneDecision:
    def test_above_keeps(self):
        assert prune_decision(0.75, 0.7) is True

    def test_boundary_prunes(self):
        assert prune_decision(0.7, 0.7) is False

    def test_below_prunes(self):
        assert prune_decision(0.1, 0.7) is False


class TestPruneState:
    def test_bad_lambda(self):
        with pytest.raises(ConfigurationError):
            PruneState(lam=1.0, window=3)

    def test_record_after_pruned_raises(self):
        state = PruneState(lam=0.5, window=1)
        state.pruned_ids.add(3)
        with pytest.raises(LogicError):
            record_score(state, 3, 0.5, 0.5, epoch=0)

    def test_weight_bounds(self):
        state = PruneState(lam=0.5, window=1)
        with pytest.raises(ValidationError):
            record_score(state, 0, 1.0, 0.5, epoch=0)


class TestApplyPruning:
    def _fill(self, state, ds, scores):
        for s in ds.samples:
            for v in scores[s.id]:
                record_score(state, s.id, 0.99, v, epoch=0)

    def test_all_above_keeps_everything(self):
        ds = toy_dataset(4)
        state = PruneState(lam=0.5, window=2)
        self._fill(state, ds, {i: [0.9, 0.9] for i in ds.ids})
        d3, newly = apply_pruning(state, ds, epoch=2)
        assert d3.ids == ds.ids and not newly

    def test_all_below_prunes_everything(self):
        ds = toy_dataset(4)
        state = PruneState(lam=0.5, window=2)
        self._fill(state, ds, {i: [0.1, 0.1] for i in ds.ids})
        d3, newly = apply_pruning(state, ds, epoch=2)
        assert len(d3) == 0 and newly == set(ds.ids)

    def test_partition_and_log(self):
        ds = toy_dataset(4)
        state = PruneState(lam=0.5, window=1)
        self._fill(state, ds, {0: [0.9], 1: [0.1], 2: [0.9], 3: [0.2]})
        d3, newly = apply_pruning(state, ds, epoch=3)
        assert set(d3.ids) | state.pruned_ids == set(ds.ids)
        assert not set(d3.ids) & state.pruned_ids
        assert {e["sample_id"] for e in state.prune_log} == {1, 3}
        assert all(e["epoch"] == 3 for e in state.prune_log)

    def test_pruning_is_permanent(self):
        ds = toy_dataset(2)
        state = PruneState(lam=0.5, window=1)
        self._fill(state, ds, {0: [0.1], 1: [0.9]})
        d3, _ = apply_pruning(state, ds, epoch=0)
        # Even with no new evidence, sample 0 stays pruned on the next call.
        d3b, newly = apply_pruning(state, ds, epoch=1)
        assert d3b.ids == [1] and not newly

    def test_lambda_monotonicity_property(self):
        rng = np.random.default_rng(1)
        ds = toy_dataset(30)
        means = {i: float(rng.uniform(0, 1)) for i in ds.ids}
        prev = set()
        for lam in (0.2, 0.4, 0.6, 0.8):
            state = PruneState(lam=lam, window=1)
            for i, m in means.items():
                record_score(state, i, 0.999, m, epoch=0)
            apply_pruning(state, ds, epoch=0)
            assert prev <= state.pruned_ids
            prev = state.pruned_ids


class TestArrayPruningMatchesScalarRule:
    """`apply_pruning` decides every ready sample at once; each decision and
    each logged S_T must be what `ScoreHistory`, `trailing_mean` and
    `prune_decision` give for that sample alone."""

    def _run(self, rng, lam, window, n_ids, epochs, forced=None):
        ds = toy_dataset(n_ids)
        state = PruneState(lam=lam, window=window)
        refs = {i: ScoreHistory(i, window) for i in ds.ids}
        pruned: set[int] = set()
        active = ds
        for epoch in range(epochs):
            for i in active.ids:
                if forced is None and rng.uniform() < 0.2:  # some skip an epoch
                    continue
                w, p = forced(i, epoch) if forced else (
                    float(rng.uniform(0.01, 0.99)), float(rng.uniform(0, 1)))
                record_score(state, i, w, p, epoch)
                refs[i].record(w * p)
            log_start = len(state.prune_log)
            active, newly = apply_pruning(state, active, epoch)
            want_log = []
            for i in ds.ids:
                s_t = trailing_mean(refs[i])
                if i in pruned or s_t is None or prune_decision(s_t, lam):
                    continue
                want_log.append({"epoch": epoch, "sample_id": i, "S_T": s_t, "lambda": lam})
            pruned |= {e["sample_id"] for e in want_log}
            assert state.prune_log[log_start:] == want_log
            assert newly == {e["sample_id"] for e in want_log}
            assert state.pruned_ids == pruned
            assert active.ids == [i for i in ds.ids if i not in pruned]
        return state

    @pytest.mark.parametrize("seed", range(20))
    def test_random_histories(self, seed):
        rng = np.random.default_rng(seed)
        self._run(rng, float(rng.uniform(0.1, 0.6)), int(rng.integers(1, 5)),
                  n_ids=30, epochs=8)

    @pytest.mark.parametrize("window", [1, 2, 3, 5])
    def test_mean_equal_to_lambda_prunes(self, window):
        # lambda is set to the scalar rule's own S_T, so S_T == lambda
        # exactly, and equality prunes.
        scores = [0.05 * (k + 3) for k in range(window)]
        ref = ScoreHistory(0, window)
        for v in scores:
            ref.record(v)
        lam = trailing_mean(ref)
        state = self._run(np.random.default_rng(0), lam, window, n_ids=3,
                          epochs=window, forced=lambda i, e: (0.5, 2 * scores[e]))
        assert state.pruned_ids == {0, 1, 2}
        assert [e["S_T"] for e in state.prune_log] == [lam] * 3

    def test_window_mean_bits_follow_left_to_right_sum(self):
        # The mean of these three scores depends on the order they are
        # added in. One evicted entry leaves the oldest score mid-ring; the
        # array mean must still add oldest first, as sum(...) / t does.
        scores = [0.302, 0.313, 0.033]
        lam = ((0.302 + 0.313) + 0.033) / 3
        assert lam != ((0.033 + 0.302) + 0.313) / 3
        state = PruneState(lam=lam, window=3)
        for v in [0.4, *scores]:
            record_score(state, 0, 0.5, 2 * v, epoch=0)
        apply_pruning(state, toy_dataset(1), epoch=0)
        assert [e["S_T"] for e in state.prune_log] == [lam]
