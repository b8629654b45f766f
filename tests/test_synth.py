import numpy as np
import pytest

from sciu.dataset import QUALITY_CLEAN, QUALITY_CODES, QUALITY_LOW, Dataset, save_dataset
from sciu.errors import ValidationError
from sciu.synth import SynthConfig, generate
from sciu.trainer import TrainConfig, train_stage


class TestSynthConfig:
    def test_defaults_valid(self):
        SynthConfig().validate()

    def test_rates_must_leave_clean_mass(self):
        with pytest.raises(ValidationError):
            SynthConfig(low_quality_rate=0.6, mislabel_rate=0.4).validate()

    def test_bad_intensity_range(self):
        for bad in ({"intensity_low": 3.0, "intensity_high": 2.0},
                    {"intensity_high": float("nan")}, {"intensity_high": float("inf")},
                    {"intensity_low": float("nan")}, {"intensity_low": 0.0}):
            with pytest.raises(ValidationError, match="intensity_low <= intensity_high"):
                SynthConfig(**bad).validate()

    @pytest.mark.parametrize("field,value", [
        ("cluster_spread", float("nan")), ("cluster_spread", float("inf")),
        ("cluster_spread", 0.0), ("seed", -1),
    ])
    def test_bad_spread_and_seed(self, field, value):
        with pytest.raises(ValidationError, match=field):
            SynthConfig(**{field: value}).validate()

    @pytest.mark.parametrize("field, value", [
        ("per_class", 20.0), ("n_classes", np.int64(3)), ("seed", True), ("mislabel_rate", "0.1"),
    ])
    def test_wrongly_typed_field_rejected(self, field, value):
        with pytest.raises(ValidationError, match=f"^{field} must be (int|float), not "):
            generate(SynthConfig(**{field: value}))


class TestGenerate:
    def test_no_noise_case(self):
        ds = generate(
            SynthConfig(per_class=30, low_quality_rate=0.0, mislabel_rate=0.0)
        )
        assert all(s.label == s.true_label for s in ds.samples)
        assert all(s.quality_flag == QUALITY_CLEAN for s in ds.samples)

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = SynthConfig(per_class=40, seed=3)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(generate(cfg), p1)
        save_dataset(generate(SynthConfig(per_class=40, seed=3)), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_mislabel_fraction(self):
        # ~10,010 samples; observed mislabel fraction within 2% of the rate.
        cfg = SynthConfig(per_class=1430, mislabel_rate=0.2, low_quality_rate=0.1)
        ds = generate(cfg)
        frac = np.mean([s.label != s.true_label for s in ds.samples])
        assert abs(frac - 0.2) <= 0.02

    def test_low_quality_fraction(self):
        cfg = SynthConfig(per_class=1430, mislabel_rate=0.1, low_quality_rate=0.15)
        ds = generate(cfg)
        frac = np.mean([s.quality_flag == QUALITY_LOW for s in ds.samples])
        assert abs(frac - 0.15) <= 0.02

    def test_low_quality_keeps_label(self):
        ds = generate(SynthConfig(per_class=100))
        for s in ds.samples:
            if s.quality_flag == QUALITY_LOW:
                assert s.label == s.true_label

    def test_mislabeled_are_clean_quality(self):
        ds = generate(SynthConfig(per_class=100))
        for s in ds.samples:
            if s.label != s.true_label:
                assert s.quality_flag == QUALITY_CLEAN

    def test_clean_subset_is_learnable(self):
        # A plainly trained classifier on the clean, correctly labeled subset
        # should exceed 90% accuracy: the class signal is real.
        ds = generate(SynthConfig(per_class=80, seed=0))
        clean_ids = [
            s.id
            for s in ds.samples
            if s.quality_flag == QUALITY_CLEAN and s.label == s.true_label
        ]
        clean = ds.subset(clean_ids)
        cfg = TrainConfig(epochs=30, warmup_epochs=10, seed=0)
        result = train_stage(clean, cfg, "plain", test_dataset=clean)
        assert result.epoch_records[-1].train_war >= 0.9

    def test_ids_sequential(self):
        ds = generate(SynthConfig(per_class=10))
        assert ds.ids == list(range(len(ds)))


def reference_generate(config):
    """`generate` written one sample at a time: the same draws from the
    same generator, in the same order."""
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x5711]))
    means = rng.standard_normal((config.n_classes, config.dim))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    lo, hi = config.intensity_low, config.intensity_high
    global_std = np.sqrt((lo**2 + lo * hi + hi**2) / 3.0 + config.cluster_spread**2)
    rows = []  # (features, label, true_label, quality_flag) of each sample, in id order
    for c in range(config.n_classes):
        for _ in range(config.per_class):
            intensity = rng.uniform(lo, hi)
            roll = rng.uniform()
            if roll < config.low_quality_rate:
                feats = rng.normal(0.0, global_std, config.dim)
                rows.append((feats, c, c, QUALITY_LOW))
                continue
            label = c
            if roll < config.low_quality_rate + config.mislabel_rate:
                if rng.uniform() < config.neutral_bias_fraction and c != 0:
                    intensity, label = lo, 0
                else:
                    label = int(rng.integers(config.n_classes - 1))
                    if label >= c:
                        label += 1
            feats = means[c] * intensity + rng.normal(0.0, config.cluster_spread, config.dim)
            rows.append((feats, label, c, QUALITY_CLEAN))
    features, labels, true_labels, flags = zip(*rows)
    return Dataset(np.arange(len(rows), dtype=np.int64), np.array(features),
                   np.array(labels, dtype=np.int64), np.array(true_labels, dtype=np.int64),
                   np.array([QUALITY_CODES[f] for f in flags], dtype=np.int8),
                   n_classes=config.n_classes, dim=config.dim)


@pytest.mark.parametrize("overrides", [
    {}, {"mislabel_rate": 0.0}, {"low_quality_rate": 0.0}, {"low_quality_rate": 0.5},
    {"neutral_bias_fraction": 0.0}, {"neutral_bias_fraction": 1.0}, {"n_classes": 2},
    {"dim": 1}, {"seed": 0}, {"seed": 1},
], ids=["default", "no-mislabel", "no-low-quality", "half-low-quality", "no-neutral",
        "all-neutral", "2-classes", "dim-1", "seed-0", "seed-1"])
def test_columns_match_per_sample_reference(overrides):
    config = SynthConfig(**{"seed": 5, **overrides})
    got, want = generate(config), reference_generate(config)
    assert (got.n_classes, got.dim) == (want.n_classes, want.dim)
    for a, b in [(got.id_array, want.id_array), (got.labels(), want.labels()),
                 (got.features_matrix(), want.features_matrix()),
                 *zip(got.oracle_columns(), want.oracle_columns())]:
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
