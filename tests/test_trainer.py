import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from sciu.dataset import QUALITY_LOW, Dataset
from sciu.errors import ConfigurationError, DegenerateRunError, NumericError
from sciu.metrics import pruning_quality
from sciu.synth import SynthConfig, generate
from sciu.model import OUTPUTS, backward_batch, forward_batch, init_model
from sciu.nn_core import sgd_momentum_step
from sciu import trainer
from sciu.trainer import TrainConfig, evaluate, train_stage


def toy_dataset(features, labels):
    n = len(labels)
    return Dataset(np.arange(n, dtype=np.int64), features, labels,
                   np.full(n, -1, dtype=np.int64), np.full(n, -1, dtype=np.int8),
                   n_classes=2, dim=2)


def two_class_toy(n_per_class=40, seed=0):
    labels = np.arange(2 * n_per_class, dtype=np.int64) % 2
    centers = np.where(labels[:, None] == 0, [3.0, 0.0], [-3.0, 0.0])
    return toy_dataset(centers + np.random.default_rng(seed).normal(0, 0.3, centers.shape), labels)


def small_config(**overrides):
    base = dict(epochs=25, warmup_epochs=10, window_t=3, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


class TestTrainConfig:
    def test_defaults_valid(self):
        TrainConfig().validate()

    def test_epochs_must_exceed_warmup_plus_window(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(epochs=10, warmup_epochs=8, window_t=3).validate()

    @pytest.mark.parametrize("window_t", [0, -3])
    def test_window_must_be_positive(self, window_t):
        with pytest.raises(ConfigurationError, match="^window_t must be >= 1$"):
            TrainConfig(window_t=window_t).validate()

    def test_bad_score_source(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(score_source="nope").validate()

    def test_bad_prob_source(self):
        with pytest.raises(ConfigurationError, match="^unknown prob_source 'nope'$"):
            TrainConfig(prob_source="nope").validate()

    @pytest.mark.parametrize("field", ["batch_size", "embed_dim", "hidden_dim"])
    def test_sizes_must_be_positive(self, field):
        with pytest.raises(ConfigurationError, match=field):
            TrainConfig(**{field: 0}).validate()

    def test_negative_warmup_rejected(self):
        with pytest.raises(ConfigurationError, match="warmup_epochs"):
            TrainConfig(warmup_epochs=-1).validate()
        TrainConfig(warmup_epochs=0).validate()

    def test_zero_learning_rate_allowed(self):
        TrainConfig(learning_rate=0.0).validate()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), -0.1])
    def test_learning_rate_must_be_finite_and_non_negative(self, value):
        with pytest.raises(ConfigurationError, match="learning_rate"):
            TrainConfig(learning_rate=value).validate()

    # A wrongly typed value fails here, not as a raw TypeError deep in a run
    # or (a numpy integer) as a report that cannot be serialized.
    @pytest.mark.parametrize("field, value", [
        ("epochs", 20.5), ("batch_size", 8.0), ("seed", 1.5), ("lam", "0.5"),
        ("window_t", np.int64(3)), ("epochs", True), ("tau", False), ("momentum", np.int64(0)),
        ("score_source", 1),
    ])
    def test_wrongly_typed_field_rejected(self, field, value):
        with pytest.raises(ConfigurationError,
                           match=f"^{field} must be (int|float|str), not {type(value).__name__}$"):
            TrainConfig(**{field: value}).validate()

    def test_float_field_takes_an_int_or_a_float_subclass(self):
        TrainConfig(learning_rate=0, momentum=np.float64(0.5)).validate()


class TestPlainStage:
    def test_frozen_model_at_zero_lr(self):
        ds = two_class_toy()
        # Full-batch so reshuffling cannot re-partition the loss average.
        cfg = small_config(learning_rate=0.0, batch_size=len(ds))
        result = train_stage(ds, cfg, "plain")
        losses = [r.mean_loss for r in result.epoch_records]
        assert all(l == pytest.approx(losses[0], abs=1e-12) for l in losses)
        fresh = init_model(ds.dim, cfg.embed_dim, cfg.hidden_dim, ds.n_classes, cfg.seed)
        for trained, init in zip(result.model.parameters(), fresh.parameters()):
            np.testing.assert_array_equal(trained, init)

    def test_determinism(self):
        ds = two_class_toy()
        r1 = train_stage(ds, small_config(), "plain")
        r2 = train_stage(ds, small_config(), "plain")
        assert [asdict(r) for r in r1.epoch_records] == [asdict(r) for r in r2.epoch_records]

    def test_converges_on_separable_toy(self):
        ds = two_class_toy()
        cfg = TrainConfig(epochs=50, warmup_epochs=10, seed=0)
        result = train_stage(ds, cfg, "plain")
        assert result.epoch_records[-1].train_war >= 0.95

    def test_unknown_stage(self):
        with pytest.raises(ConfigurationError):
            train_stage(two_class_toy(), small_config(), "magic")

    def test_zero_dim_dataset(self):
        n = 4
        ids = np.arange(n, dtype=np.int64)
        ds = Dataset(ids, np.zeros((n, 0)), ids % 2, np.full(n, -1, dtype=np.int64),
                     np.full(n, -1, dtype=np.int8), n_classes=2, dim=0)
        with pytest.raises(ConfigurationError, match="^dataset dim must be positive$"):
            train_stage(ds, small_config(), "plain")

    def test_empty_dataset(self):
        with pytest.raises(DegenerateRunError):
            train_stage(toy_dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64)),
                        small_config(), "plain")

    def test_test_metrics_recorded(self):
        ds = two_class_toy()
        result = train_stage(ds, small_config(), "plain", test_dataset=ds)
        assert result.epoch_records[-1].test_war is not None


class TestCgpStage:
    def test_clean_data_prunes_little(self):
        ds = generate(
            SynthConfig(per_class=60, low_quality_rate=0.0, mislabel_rate=0.0)
        )
        cfg = small_config(lam=0.5)
        result = train_stage(ds, cfg, "cgp")
        assert len(result.pruned_ids) <= 0.05 * len(ds)

    def test_noisy_default_prunes_selectively(self):
        ds = generate(SynthConfig(per_class=200, seed=0))
        cfg = TrainConfig(epochs=30, warmup_epochs=15, seed=0)
        result = train_stage(ds, cfg, "cgp")
        assert result.pruned_ids
        base_rate = np.mean([s.quality_flag == QUALITY_LOW for s in ds.samples])
        q = pruning_quality(result.pruned_ids, ds)
        assert q["precision"] >= 2 * base_rate

    def test_output_is_complement_of_pruned(self):
        ds = generate(SynthConfig(per_class=60, seed=1))
        result = train_stage(ds, small_config(), "cgp")
        out_ids = set(result.output_dataset.ids)
        assert out_ids | result.pruned_ids == set(ds.ids)
        assert not out_ids & result.pruned_ids

    def test_prune_log_matches_pruned_ids(self):
        ds = generate(SynthConfig(per_class=60, seed=1))
        result = train_stage(ds, small_config(), "cgp")
        assert {e["sample_id"] for e in result.prune_log} == result.pruned_ids

    def test_active_count_tracks_pruning(self):
        ds = generate(SynthConfig(per_class=60, seed=1))
        result = train_stage(ds, small_config(), "cgp")
        for rec in result.epoch_records:
            assert rec.active_sample_count + rec.cumulative_pruned == len(ds)


class TestFgcStage:
    def test_clean_labels_rarely_corrected(self):
        ds = generate(
            SynthConfig(per_class=60, low_quality_rate=0.0, mislabel_rate=0.0)
        )
        result = train_stage(ds, small_config(), "fgc")
        assert len(result.correction_events) <= 0.02 * len(ds)

    def test_cardinality_preserved(self):
        ds = generate(SynthConfig(per_class=60, seed=2))
        result = train_stage(ds, small_config(), "fgc")
        assert result.output_dataset.ids == ds.ids

    def test_corrections_change_labels(self):
        ds = generate(SynthConfig(per_class=120, low_quality_rate=0.0, seed=2))
        result = train_stage(ds, small_config(), "fgc")
        final = {s.id: s.label for s in result.output_dataset.samples}
        # The last correction per sample must be reflected in the output.
        last = {}
        for e in result.correction_events:
            last[e.sample_id] = e.new_label
        for sid, lab in last.items():
            assert final[sid] == lab


class TestDecisionSchedule:
    """`train_stage` alone decides when a stage's rule runs: only after
    warm-up, so the first decisions fall on the first epoch that ends with
    a full window, warmup_epochs + window_t - 1."""

    @pytest.mark.parametrize("stage,epochs,counts", [
        ("cgp", lambda r: [e["epoch"] for e in r.prune_log],
         lambda r: [rec.cumulative_pruned for rec in r.epoch_records]),
        ("fgc", lambda r: [e.epoch for e in r.correction_events],
         lambda r: [rec.cumulative_corrected for rec in r.epoch_records]),
    ])
    def test_first_decisions_on_first_full_window(self, stage, epochs, counts):
        cfg = small_config()
        first = cfg.warmup_epochs + cfg.window_t - 1
        result = train_stage(generate(SynthConfig(per_class=60, seed=1)), cfg, stage)
        assert all(epoch >= first for epoch in epochs(result))
        assert first in epochs(result)
        assert counts(result)[:first] == [0] * first and counts(result)[first] > 0


class TestTrainMetricsReuseEvalForward:
    """The per-epoch train WAR/UAR come from the rows of `run_epoch`'s
    evaluation forward; after every decision they must equal a fresh
    evaluation of the model on the active set the decision left."""

    @pytest.mark.parametrize(
        "stage,module,name",
        [("cgp", trainer.cgp_mod, "apply_pruning"),
         ("fgc", trainer.fgc_mod, "apply_corrections")],
    )
    def test_every_epoch_matches_evaluate(self, monkeypatch, stage, module, name):
        models, fresh = [], {}

        def keeping(*args):
            models.append(init_model(*args))
            return models[-1]

        monkeypatch.setattr(trainer, "init_model", keeping)
        decide = getattr(module, name)

        def deciding(state, dataset, epoch):
            out, changed = decide(state, dataset, epoch)
            fresh[epoch] = evaluate(models[0], out)[:2], bool(changed)
            return out, changed

        monkeypatch.setattr(module, name, deciding)
        ds = generate(SynthConfig(per_class=60, seed=1))
        result = train_stage(ds, small_config(), stage)
        for rec in result.epoch_records:
            if rec.epoch in fresh:
                assert (rec.train_war, rec.train_uar) == fresh[rec.epoch][0]
        assert sum(changed for _, changed in fresh.values()) >= 3

    def test_plain_matches_evaluate(self):
        ds = generate(SynthConfig(per_class=60, seed=1))
        result = train_stage(ds, small_config(), "plain")
        last = result.epoch_records[-1]
        assert (last.train_war, last.train_uar) == evaluate(result.model, ds)[:2]


def reference_epoch(model, dataset, config, velocity, epoch):
    """`run_epoch` written with `backward_batch` and the per-array
    `nn_core.sgd_momentum_step` over the same shuffled minibatches."""
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, epoch, 0xE9]))
    order = rng.permutation(len(dataset))
    feats, labels = dataset.features_matrix(), dataset.labels()
    cuts = np.cumsum([p.size for p in model.parameters()])[:-1]
    velocities = [v.reshape(p.shape) for v, p in zip(np.split(velocity, cuts), model.parameters())]
    losses = []
    for start in range(0, len(order), config.batch_size):
        batch = order[start : start + config.batch_size]
        grads, loss = backward_batch(model, feats[batch], labels[batch])
        sgd_momentum_step(model.parameters(), grads, velocities, config.learning_rate,
                          config.momentum)
        losses.append(loss)
    return float(np.mean(losses)), forward_batch(model, feats, OUTPUTS)


class TestRunEpoch:
    @pytest.mark.parametrize("batch_size", [64, 50, 163, 1000])
    def test_bits_match_reference_epoch(self, batch_size):
        # 490 rows leave a ragged last minibatch at 64 and 50, and one row at
        # 163, where numpy takes gemv for the one-row products; 1000 is one batch.
        ds = generate(SynthConfig(per_class=70, seed=2))
        cfg = small_config(batch_size=batch_size, seed=3)
        models = [init_model(ds.dim, cfg.embed_dim, cfg.hidden_dim, ds.n_classes, cfg.seed)
                  for _ in range(2)]
        velocities = [np.zeros_like(m.flat) for m in models]
        for epoch in range(3):
            loss, out = trainer.run_epoch(models[0], ds, cfg, velocities[0], epoch, OUTPUTS)
            want_loss, want = reference_epoch(models[1], ds, cfg, velocities[1], epoch)
            assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
            assert models[0].flat.tobytes() == models[1].flat.tobytes()
            assert velocities[0].tobytes() == velocities[1].tobytes()
            for key in OUTPUTS:
                assert out[key].tobytes() == want[key].tobytes(), key
        assert velocities[0].any()

    def test_shuffled_block_is_freed_before_the_evaluation(self):
        # 20,000 rows of 16 features: the shuffled block is 2.44 MiB. With
        # 64-row minibatches, the epoch's peak is the evaluation forward's,
        # plus the shuffle order (0.15 MiB); holding the block through the
        # forward adds 2.6 MiB to it.
        n, k = 20_000, 7
        rng = np.random.default_rng(0)
        ds = Dataset(np.arange(n, dtype=np.int64), rng.standard_normal((n, 16)),
                     rng.integers(0, k, n), np.full(n, -1, dtype=np.int64),
                     np.full(n, -1, dtype=np.int8), n_classes=k, dim=16)
        cfg, outputs = TrainConfig(), ("probs", "weight")
        model = init_model(ds.dim, cfg.embed_dim, cfg.hidden_dim, k, cfg.seed)
        peaks = []
        for call in (lambda: trainer.run_epoch(model, ds, cfg, np.zeros_like(model.flat), 0,
                                               outputs),
                     lambda: forward_batch(model, ds.features_matrix(), outputs)):
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
            finally:
                tracemalloc.stop()
        assert peaks[0] < peaks[1] + 0.5 * n * 16 * 8 / 2**20, peaks


class TestSaturation:
    def test_saturated_weights_decide_like_any_other(self, monkeypatch):
        # At learning rate 5 the weight branch's sigmoid rounds most weights
        # to exactly 0.0 by epoch 5. Such a weight is legal: every score
        # w * p stays at or below lambda, so the stage prunes everything
        # once the first window fills.
        ds = generate(SynthConfig(per_class=100, seed=0))
        cfg = TrainConfig(learning_rate=5.0, epochs=25, warmup_epochs=5)
        zeros, prune_epoch = {}, trainer.cgp_mod.prune_epoch

        def spy(state, active, eval_out, epoch, config):
            zeros[epoch] = int((eval_out["weight"] == 0.0).sum())
            return prune_epoch(state, active, eval_out, epoch, config)

        monkeypatch.setattr(trainer.cgp_mod, "prune_epoch", spy)
        with pytest.raises(DegenerateRunError, match="^all samples pruned"):
            train_stage(ds, cfg, "cgp")
        assert list(zeros) == [5, 6, 7] and zeros[5] > len(ds) // 2

    def test_non_finite_score_is_numeric_error(self):
        # One step at learning rate 1e300 leaves every weight finite (0.0)
        # and every class probability NaN: the score w * p is what fails.
        ds = generate(SynthConfig(per_class=100, seed=0))
        cfg = TrainConfig(learning_rate=1e300, batch_size=10_000, epochs=3, warmup_epochs=0,
                          window_t=1)
        with np.errstate(all="ignore"), pytest.raises(
                NumericError, match=r"^non-finite score at epoch 0: 700 samples, "
                                    r"first sample ids \[0, 1, 2, 3, 4\]$"):
            train_stage(ds, cfg, "cgp")


class TestLastEpochCheck:
    @pytest.mark.parametrize("stage", ["plain", "cgp", "fgc"])
    def test_non_finite_test_probabilities_raise_at_the_last_epoch(self, stage):
        # Test features of +-1e308 overflow the logits to inf, so 8 of the 10
        # test rows are NaN at every epoch; training stays finite, and only
        # the last epoch checks.
        test = two_class_toy(n_per_class=5, seed=1)
        test = toy_dataset(np.sign(test.features_matrix()) * 1e308, test.labels())
        with np.errstate(all="ignore"), pytest.raises(
                NumericError, match=r"^non-finite test probabilities at epoch 24: 8 samples, "
                                    r"first sample ids \[0, 1, 2, 3, 4\]$"):
            train_stage(two_class_toy(), small_config(), stage, test)
