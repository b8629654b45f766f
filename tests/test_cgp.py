import numpy as np
import pytest

from sciu.cgp import (
    PruneState,
    ScoreHistory,
    apply_pruning,
    prune_decision,
    prune_epoch,
    record_score,
    trailing_mean,
)
from sciu.dataset import Dataset
from sciu.errors import (
    ConfigurationError, DegenerateRunError, LogicError, NumericError, ValidationError,
)
from sciu.trainer import SCORE_SOURCES, TrainConfig


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

    def test_bad_window(self):
        with pytest.raises(ConfigurationError, match="^window must be >= 1$"):
            PruneState(lam=0.5, window=0)

    def test_record_after_pruned_raises(self):
        state = PruneState(lam=0.5, window=1)
        state.pruned_ids.add(3)
        with pytest.raises(LogicError):
            record_score(state, 3, 0.5, 0.5, epoch=0)

    def test_weight_bounds(self):
        # The rule reads w only through s = w * p, so w takes [0, 1] as s
        # does: a float64 sigmoid can round w to exactly 0.0 or 1.0.
        state = PruneState(lam=0.5, window=1)
        for bad in (1.5, -0.5, np.nan):
            with pytest.raises(ValidationError):
                record_score(state, 0, bad, 0.5, epoch=0)
        assert state.windows.find(np.array([0]))[1].tolist() == [False]
        record_score(state, 0, 0.0, 0.5, epoch=0)
        record_score(state, 1, 1.0, 0.5, epoch=0)
        rows, known = state.windows.find(np.array([0, 1]))
        assert known.all() and state.windows.mean("scores", rows).tolist() == [0.0, 0.5]

    def test_prob_bounds(self):
        state = PruneState(lam=0.5, window=1)
        for bad in (1.5, np.nan):
            with pytest.raises(ValidationError, match=f"^prob {bad} outside"):
                record_score(state, 0, 0.5, bad, epoch=0)
        assert state.windows.find(np.array([0]))[1].tolist() == [False]


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


def labelled_dataset(labels, n_classes=3):
    n = len(labels)
    return Dataset(np.arange(10, 10 + n, dtype=np.int64), np.zeros((n, 1)),
                   np.array(labels, dtype=np.int64), np.full(n, -1, dtype=np.int64),
                   np.full(n, -1, dtype=np.int8), n_classes=n_classes, dim=1)


class TestPruneEpochMatchesScalarRule:
    """`prune_epoch` driven by per-epoch weight and probability arrays, with
    no model: every prune, every logged S_T and the rows it returns must be
    what `ScoreHistory`, `trailing_mean` and `prune_decision` give."""

    def _run(self, source, lam, window, labels, epochs, weights_of, probs_of):
        ds = labelled_dataset(labels)
        state = PruneState(lam=lam, window=window)
        config = TrainConfig(lam=lam, window_t=window, score_source=source)
        refs = {i: ScoreHistory(i, window) for i in ds.ids}
        active = ds
        for epoch in range(epochs):
            at = np.searchsorted(ds.id_array, active.id_array)
            weights, probs = weights_of(epoch)[at], probs_of(epoch)[at]
            for k, i in enumerate(active.ids):
                p = probs[k, labels[at[k]]] if source == "annotated_class" else max(probs[k])
                refs[i].record(float(weights[k]) * float(p))
            log_start = len(state.prune_log)
            active, rows = prune_epoch(state, active, {"weight": weights, "probs": probs},
                                       epoch, config)
            want = []
            for i in (ds.ids[j] for j in at):
                s_t = trailing_mean(refs[i])
                if s_t is not None and not prune_decision(s_t, lam):
                    want.append({"epoch": epoch, "sample_id": i, "S_T": s_t, "lambda": lam})
            assert state.prune_log[log_start:] == want
            kept = [j for j in at if ds.ids[j] not in state.pruned_ids]
            assert active.ids == [ds.ids[j] for j in kept]
            assert rows.tobytes() == probs_of(epoch)[kept].tobytes()
        return state

    @pytest.mark.parametrize("source", SCORE_SOURCES)
    @pytest.mark.parametrize("seed", range(4))
    def test_random_epochs(self, source, seed):
        rng = np.random.default_rng(seed)
        window, n = int(rng.integers(1, 4)), 30
        weights = rng.uniform(0.05, 0.95, (window + 3, n))
        probs = rng.dirichlet(np.full(3, 0.7), (window + 3, n))
        labels = rng.integers(0, 3, n).tolist()
        # A float64 sigmoid can round a weight to exactly 0.0 or 1.0.
        edge = rng.random(weights.shape) < 0.15
        weights[edge] = rng.integers(0, 2, int(edge.sum()))
        assert {0.0, 1.0} <= set(weights.ravel().tolist())
        state = self._run(source, 0.2, window, labels, window + 3,
                          weights.__getitem__, probs.__getitem__)
        assert 0 < len(state.pruned_ids) < n

    @pytest.mark.parametrize("source", SCORE_SOURCES)
    @pytest.mark.parametrize("window", [1, 3])
    def test_mean_equal_to_lambda_prunes(self, source, window):
        # Sample 10's scores have S_T == lambda exactly; w * p is each score
        # bit for bit, its p both the annotated-class and the largest
        # probability. Sample 11 scores higher and stays.
        scores = [0.26 + 0.05 * k for k in range(window)] + [0.3, 0.3]
        ref = ScoreHistory(0, window)
        for v in scores[:window]:
            ref.record(v)
        lam = trailing_mean(ref)

        def probs_of(epoch):
            p = 2 * scores[epoch]
            return np.array([[p, 1 - p, 0.0], [0.9, 0.1, 0.0]])

        state = self._run(source, lam, window, [0, 0], window + 2,
                          lambda epoch: np.array([0.5, 0.9]), probs_of)
        assert state.prune_log == [
            {"epoch": window - 1, "sample_id": 10, "S_T": lam, "lambda": lam}]

    @pytest.mark.parametrize("weight, prob", [(np.nan, 1 / 3), (np.inf, 1 / 3),
                                              (-np.inf, 1 / 3), (0.5, np.nan)],
                             ids=["nan-weight", "inf-weight", "-inf-weight", "nan-probs"])
    def test_non_finite_score_is_numeric_error(self, weight, prob):
        weights, probs = np.array([0.5, weight, 0.5]), np.full((3, 3), 1 / 3)
        probs[1] = prob
        ds = labelled_dataset([0, 1, 2])
        for source in SCORE_SOURCES:
            state = PruneState(lam=0.5, window=2)
            with pytest.raises(NumericError, match=r"^non-finite score at epoch 7: 1 samples, "
                                                   r"first sample ids \[11\]$"):
                prune_epoch(state, ds, {"weight": weights, "probs": probs}, 7,
                            TrainConfig(score_source=source))
            assert not state.pruned_ids and not state.windows.find(ds.id_array)[1].any()

    def test_epochs_that_prune_nothing_return_their_input(self):
        # Epoch 0 prunes sample 11; later epochs prune nothing, before any
        # sample was pruned (a fresh state) and after.
        ds, config = labelled_dataset([0, 1, 2]), TrainConfig(window_t=1)
        for first_weight in (0.9, 0.1):
            state, active = PruneState(lam=0.5, window=1), ds
            for epoch in range(3):
                weights = np.where(active.id_array == 11, first_weight, 0.9)
                probs = np.full((len(active), 3), 0.05)
                probs[np.arange(len(active)), active.labels()] = 0.9
                kept, rows = prune_epoch(state, active, {"weight": weights, "probs": probs},
                                         epoch, config)
                if epoch or first_weight == 0.9:
                    assert kept.ids == active.ids
                    assert kept.labels().tolist() == active.labels().tolist()
                    assert rows.tobytes() == probs.tobytes()
                active = kept
            assert active.ids == ([10, 11, 12] if first_weight == 0.9 else [10, 12])

    def test_all_pruned_is_degenerate(self):
        state = PruneState(lam=0.5, window=1)
        with pytest.raises(DegenerateRunError, match="^all samples pruned"):
            prune_epoch(state, labelled_dataset([0, 1]),
                        {"weight": np.full(2, 0.5), "probs": np.full((2, 3), 1 / 3)}, 4,
                        TrainConfig())
        assert state.pruned_ids == {10, 11}
