"""Stage memo of a sweep: cells that give a stage the same inputs share one
computation of it, and every report is the same bytes as without sharing."""

import dataclasses
import math

import numpy as np
import pytest

from sciu import pipeline
from sciu.dataset import stratified_split
from sciu.pipeline import (
    MODES,
    PipelineConfig,
    StageMemo,
    report_to_json,
    run_pipeline,
    sweep,
    sweep_to_csv,
)
from sciu.synth import SynthConfig, generate
from sciu.trainer import STAGE_IGNORES, STAGES, TrainConfig, train_stage

SEEDS = [0, 1]
VALUES = {"lambda": [0.5, 0.7], "tau": [0.1, 0.3], "window": [2, 3]}


def small_config(**overrides):
    # On the dataset below these settings prune and correct in every mode.
    base = dict(epochs=16, warmup_epochs=10, window_t=2, learning_rate=0.1)
    base.update(overrides)
    return PipelineConfig(**base)


@pytest.fixture(scope="module")
def dataset():
    return generate(SynthConfig(per_class=40, seed=3))


def capture(monkeypatch, use_memo=True):
    """Record (config, report bytes) of every cell a sweep runs. With
    `use_memo=False` the cells run without the sweep's memo."""
    cells, memos = [], []
    original = pipeline.run_pipeline

    def recording(config, *args, memo=None, **kwargs):
        memos.append(memo)
        report = original(config, *args, memo=memo if use_memo else None, **kwargs)
        cells.append((config, report_to_json(report)))
        return report

    monkeypatch.setattr(pipeline, "run_pipeline", recording)
    return cells, memos


def stored(memo, stage=None):
    """Every result `memo` holds, or those of one stage."""
    return [r for key, results in memo.results.items() for r in results
            if stage in (None, key[0])]


def count_train_stage(monkeypatch):
    calls = []
    original = pipeline.train_stage

    def counting(dataset, config, stage, *args, **kwargs):
        calls.append(stage)
        return original(dataset, config, stage, *args, **kwargs)

    monkeypatch.setattr(pipeline, "train_stage", counting)
    return calls


def fgc_range(dataset, config, mode):
    """The `tau_range` of the FGC stage a `mode` run of `config` computes."""
    memo = StageMemo()
    run_pipeline(config, dataset, mode, memo=memo)
    (result,) = stored(memo, "fgc")
    return result.tau_range


class TestByteIdentity:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("parameter", sorted(VALUES))
    def test_cells_and_csv_equal_uncached(self, dataset, monkeypatch, parameter, mode):
        self.check(dataset, monkeypatch, parameter, VALUES[parameter], mode)

    @pytest.mark.parametrize("mode", ["fgc_only", "sciu"])
    def test_tau_sweep_reusing_fgc_equals_uncached(self, dataset, monkeypatch, mode):
        """The second τ lies in seed 0's range of the first, so at least
        that cell's FGC stage is reused."""
        _, hi = fgc_range(dataset, small_config(tau=0.5), mode)
        assert hi > 0.5
        result = self.check(dataset, monkeypatch, "tau", [0.5, (0.5 + hi) / 2], mode)
        assert result["stages"]["fgc"]["reused"] > 0

    @staticmethod
    def check(dataset, monkeypatch, parameter, values, mode):
        """Each cell's report is the same bytes as an unmemoized run of its
        config, and the sweep's result is that of an unmemoized sweep."""
        cells, _ = capture(monkeypatch)
        result = sweep(small_config(), parameter, values, dataset, mode=mode, seeds=SEEDS)
        assert len(cells) == len(values) * len(SEEDS)
        for config, text in cells:
            assert text == report_to_json(run_pipeline(config, dataset, mode))

        monkeypatch.undo()
        plain_cells, _ = capture(monkeypatch, use_memo=False)
        uncached = sweep(small_config(), parameter, values, dataset, mode=mode, seeds=SEEDS)
        assert sweep_to_csv(result) == sweep_to_csv(uncached)
        assert {k: v for k, v in result.items() if k != "stages"} == \
            {k: v for k, v in uncached.items() if k != "stages"}
        assert cells == plain_cells
        return result

    def test_purification_happens(self, dataset):
        """The byte-identity cases compare pruned and corrected runs."""
        report = run_pipeline(small_config(), dataset, "sciu")
        assert report["pruned_total"] > 0
        assert report["corrected_total"] > 0


class TestReuse:
    def test_tau_sweep_counts(self, dataset, monkeypatch):
        calls = count_train_stage(monkeypatch)
        result = sweep(small_config(), "tau", [0.1, 0.3], dataset, mode="sciu", seeds=SEEDS)
        counts = result["stages"]
        assert counts["cgp"] == {"computed": 2, "reused": 2}
        assert counts["fgc"] == {"computed": 4, "reused": 0}
        assert counts["plain"]["computed"] + counts["plain"]["reused"] == 4
        for stage in STAGES:
            assert calls.count(stage) == counts[stage]["computed"]

    @pytest.mark.parametrize("mode, parameter", [("cgp_only", "tau"), ("fgc_only", "lambda"),
                                                 ("baseline", "window")])
    def test_constant_parameter_computes_each_seed_once(self, dataset, mode, parameter):
        result = sweep(small_config(), parameter, VALUES[parameter], dataset,
                       mode=mode, seeds=SEEDS)
        for stage, n in result["stages"].items():
            assert n["computed"] in (0, len(SEEDS)), stage
            assert n["reused"] == n["computed"], stage
        assert result["rows"][0]["per_seed_war"] == result["rows"][1]["per_seed_war"]

    def test_run_pipeline_without_memo_computes_every_stage(self, dataset, monkeypatch):
        calls = count_train_stage(monkeypatch)
        first = run_pipeline(small_config(), dataset, "sciu")
        second = run_pipeline(small_config(), dataset, "sciu")
        assert calls == ["cgp", "fgc", "plain"] * 2
        assert report_to_json(first) == report_to_json(second)

    def test_consecutive_sweeps_share_no_entries(self, dataset, monkeypatch):
        _, memos = capture(monkeypatch)
        args = (small_config(), "tau", [0.1, 0.3], dataset)
        first = sweep(*args, mode="sciu", seeds=SEEDS)
        n = len(memos)
        second = sweep(*args, mode="sciu", seeds=SEEDS)
        a, b = memos[:n], memos[n:]
        assert len({id(m) for m in a}) == 1 and len({id(m) for m in b}) == 1
        assert a[0] is not b[0]
        assert second["stages"] == first["stages"]
        assert first["stages"]["cgp"]["computed"] == len(SEEDS)
        shared = {id(r) for r in stored(a[0])} & {id(r) for r in stored(b[0])}
        assert not shared

    def test_key_holds_config_training_input_and_test_split(self, dataset):
        memo = StageMemo()
        train, test = stratified_split(dataset, 0.8, 0)
        config = small_config()
        calls = [
            (train, config, test),
            (train, dataclasses.replace(config, tau=0.35), test),  # not read: reused
            (train, dataclasses.replace(config, seed=1), test),
            (train.subset(train.ids[1:]), config, test),
            (train, config, test.subset(test.ids[1:])),
        ]
        results = [pipeline._train(d, c, "plain", t, memo) for d, c, t in calls]
        assert memo.counts["plain"] == {"computed": 4, "reused": 1}
        assert results[1] is results[0]
        assert len({id(r) for r in results}) == 4

    def test_failures_are_not_kept(self, dataset, monkeypatch):
        # A frozen model keeps every weight near 0.5, below a 0.9 threshold:
        # every cell's CGP stage prunes everything and raises.
        calls = count_train_stage(monkeypatch)
        result = sweep(small_config(learning_rate=0.0, lam=0.9), "tau", [0.1, 0.3],
                       dataset, mode="cgp_only", seeds=[0])
        assert calls == ["cgp", "cgp"]
        assert [len(r["failures"]) for r in result["rows"]] == [1, 1]
        assert result["stages"]["cgp"] == {"computed": 0, "reused": 0}


class TestTauRange:
    """A computed FGC stage's [lo, hi) `tau_range` holds exactly the τ that
    make its decisions, and a memo reuses the stage for those τ only."""

    @pytest.fixture(scope="class")
    def stage(self, dataset):
        config = TrainConfig(epochs=16, warmup_epochs=10, window_t=2, learning_rate=0.1)
        train, test = stratified_split(dataset, 0.8, 0)
        result = train_stage(train, config, "fgc", test)
        assert result.correction_events
        return train, test, config, result

    def test_every_tau_in_range_gives_the_same_stage(self, stage):
        train, test, config, result = stage
        lo, hi = result.tau_range
        assert lo < config.tau < hi
        inside = [(lo + hi) / 2, np.nextafter(hi, 0)] + ([lo] if lo > 0 else [])
        for tau in inside:
            fresh = train_stage(train, dataclasses.replace(config, tau=float(tau)), "fgc", test)
            assert _stage_bytes(fresh) == _stage_bytes(result), tau

    def test_each_end_is_tight(self, stage):
        """At hi the sample with gap hi is not accepted; just below a
        positive lo the sample with gap lo is."""
        train, test, config, result = stage
        lo, hi = result.tau_range
        outside = [hi] + ([np.nextafter(lo, 0)] if lo > 0 else [])
        for tau in outside:
            fresh = train_stage(train, dataclasses.replace(config, tau=float(tau)), "fgc", test)
            assert _stage_bytes(fresh)[0] != _stage_bytes(result)[0], tau

    def test_memo_reuses_inside_and_computes_at_hi(self, stage):
        train, test, config, result = stage
        lo, hi = result.tau_range
        memo = StageMemo()
        first = pipeline._train(train, config, "fgc", test, memo)
        assert first.tau_range == (lo, hi)
        inside = pipeline._train(
            train, dataclasses.replace(config, tau=float(np.nextafter(hi, 0))), "fgc", test, memo)
        assert inside is first
        at_hi = pipeline._train(train, dataclasses.replace(config, tau=hi), "fgc", test, memo)
        assert at_hi is not first
        assert memo.counts["fgc"] == {"computed": 2, "reused": 1}
        assert [id(r) for r in stored(memo)] == [id(first), id(at_hi)]

    def test_nan_gap_blocks_reuse(self, stage, monkeypatch):
        train, test, config, _ = stage
        original = pipeline.train_stage

        def nan_low(*args, **kwargs):
            result = original(*args, **kwargs)
            return dataclasses.replace(result, tau_range=(math.nan, result.tau_range[1]))

        monkeypatch.setattr(pipeline, "train_stage", nan_low)
        memo = StageMemo()
        pipeline._train(train, config, "fgc", test, memo)
        pipeline._train(train, config, "fgc", test, memo)
        assert memo.counts["fgc"] == {"computed": 2, "reused": 0}

    @pytest.mark.parametrize("stage_name", ["cgp", "plain"])
    def test_other_stages_hold_every_tau(self, dataset, stage_name):
        train, test = stratified_split(dataset, 0.8, 0)
        config = TrainConfig(epochs=16, warmup_epochs=10, window_t=2, learning_rate=0.1)
        result = train_stage(train, config, stage_name, test)
        assert result.tau_range == (-math.inf, math.inf)


class TestReportAliasing:
    def test_mutating_a_cell_report_leaves_the_next_cell(self, dataset, monkeypatch):
        """Cells 0 and 2 share their CGP stage; each cell's prune log is
        mangled as soon as it is returned, and no later cell sees it."""
        cells = []
        original = pipeline.run_pipeline

        def mangling(config, *args, **kwargs):
            report = original(config, *args, **kwargs)
            cells.append((config, report_to_json(report)))
            log = report["stages"][0]["prune_log"]
            assert log
            log[0]["S_T"] = -1.0
            log.append({"epoch": -1})
            return report

        monkeypatch.setattr(pipeline, "run_pipeline", mangling)
        result = sweep(small_config(), "tau", [0.1, 0.3], dataset, mode="cgp_only", seeds=SEEDS)
        assert result["stages"]["cgp"]["reused"] == 2
        monkeypatch.undo()
        for config, text in cells:
            assert text == report_to_json(run_pipeline(config, dataset, "cgp_only"))

    def test_fragment_does_not_share_the_stage_log(self, dataset):
        memo = StageMemo()
        first = run_pipeline(small_config(tau=0.1), dataset, "cgp_only", memo=memo)
        (result,) = stored(memo, "cgp")
        first["stages"][0]["prune_log"][0]["sample_id"] = -5
        assert all(e["sample_id"] >= 0 for e in result.prune_log)
        second = run_pipeline(small_config(tau=0.3), dataset, "cgp_only", memo=memo)
        assert memo.counts["cgp"] == {"computed": 1, "reused": 1}
        assert second["stages"][0]["prune_log"] == result.prune_log


OTHER_VALUE = {
    "learning_rate": lambda v: v * 0.5,
    "momentum": lambda v: 0.5,
    "batch_size": lambda v: v // 2,
    "epochs": lambda v: v + 2,
    "warmup_epochs": lambda v: v - 2,
    "window_t": lambda v: v + 1,
    "lam": lambda v: 0.55,
    "tau": lambda v: 0.35,
    "seed": lambda v: v + 1,
    "score_source": lambda v: "annotated_class" if v == "max_class" else "max_class",
    "prob_source": lambda v: "unweighted" if v == "weighted" else "weighted",
    "embed_dim": lambda v: v // 2,
    "hidden_dim": lambda v: v + 1,
}


def _stage_bytes(result) -> tuple:
    fragment = report_to_json(pipeline._stage_fragment(result, "x"))
    out = result.output_dataset
    return fragment, result.model.flat.tobytes(), None if out is None else out.fingerprint()


class TestProjection:
    def test_fields_are_train_config_fields(self):
        names = {f.name for f in dataclasses.fields(TrainConfig)}
        assert set(STAGE_IGNORES) == set(STAGES)
        for stage, fields in STAGE_IGNORES.items():
            assert set(fields) <= names, stage
            assert len(set(fields)) == len(fields), stage

    @pytest.mark.parametrize("stage", STAGES)
    def test_fields_outside_the_projection_are_not_read(self, dataset, stage):
        """Changing any config field a stage declares it ignores leaves its
        fragment, its model and its output dataset unchanged."""
        config = TrainConfig(epochs=16, warmup_epochs=8, window_t=2, learning_rate=0.1)
        train, test = stratified_split(dataset, 0.8, 0)
        reference = train_stage(train, config, stage, test)
        if stage == "cgp":
            assert reference.prune_log
        if stage == "fgc":
            assert reference.correction_events
        want = _stage_bytes(reference)
        for name in STAGE_IGNORES[stage]:
            value = OTHER_VALUE[name](getattr(config, name))
            assert value != getattr(config, name)
            changed = dataclasses.replace(config, **{name: value})
            changed.validate()
            assert _stage_bytes(train_stage(train, changed, stage, test)) == want, name

    @pytest.mark.parametrize("stage", STAGES)
    def test_a_field_a_subclass_adds_enters_the_key(self, dataset, stage):
        """No stage is listed as ignoring a field the config gains later, so
        two values of it give two computed stages."""
        @dataclasses.dataclass
        class Extended(PipelineConfig):
            extra: int = 0

        memo = StageMemo()
        train, test = stratified_split(dataset, 0.8, 0)
        for extra in (0, 1, 1):
            config = Extended(**dataclasses.asdict(small_config()), extra=extra)
            pipeline._train(train, config, stage, test, memo)
        assert memo.counts[stage] == {"computed": 2, "reused": 1}


class TestFingerprint:
    def test_content_not_identity(self, dataset):
        train, _ = stratified_split(dataset, 0.8, 0)
        again, _ = stratified_split(dataset, 0.8, 0)
        assert train is not again
        assert train.fingerprint() == again.fingerprint()

    def test_oracle_columns_left_out(self, dataset):
        assert dataset.without_oracle_fields().fingerprint() == dataset.fingerprint()

    def test_each_read_column_counts(self, dataset):
        base = dataset.fingerprint()
        relabeled = dataset.with_labels([0], [(dataset.labels()[0] + 1) % dataset.n_classes])
        assert relabeled.fingerprint() != base
        assert dataset.subset(dataset.ids[1:]).fingerprint() != base
        order = np.argsort(-dataset.id_array)
        assert dataset._take(order).fingerprint() != base
        moved = dataset.features_matrix().copy()
        moved[-1, -1] = np.nextafter(moved[-1, -1], np.inf)
        shifted = dataset._derive(features=moved)
        assert shifted.fingerprint() != base
