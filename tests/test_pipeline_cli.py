import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sciu import pipeline, trainer
from sciu.cli import _check_output, _config_from_args, build_parser, main
from sciu.dataset import load_dataset, save_dataset
from sciu.errors import ConfigurationError, DegenerateRunError, NumericError, SciuError
from sciu.model import forward_batch
from sciu.pipeline import (
    MODES,
    PipelineConfig,
    load_report,
    report_to_json,
    run_pipeline,
    sweep,
    sweep_to_csv,
    write_report,
)
from sciu.report import render_report, summary_text
from sciu.synth import SynthConfig, generate


def small_config(**overrides):
    base = dict(epochs=25, warmup_epochs=10, window_t=3, seed=0)
    base.update(overrides)
    return PipelineConfig(**base)


@pytest.fixture(scope="module")
def noisy_dataset():
    return generate(SynthConfig(per_class=120, seed=0))


@pytest.fixture(scope="module")
def dataset_file(noisy_dataset, tmp_path_factory):
    from sciu.dataset import save_dataset

    path = tmp_path_factory.mktemp("data") / "noisy.jsonl"
    save_dataset(noisy_dataset, path)
    return path


class TestRunPipeline:
    def test_baseline_deterministic(self, noisy_dataset):
        r1 = run_pipeline(small_config(), noisy_dataset, "baseline")
        r2 = run_pipeline(small_config(), noisy_dataset, "baseline")
        assert r1["final_test"]["war"] == r2["final_test"]["war"]

    def test_sciu_purifies_something(self, noisy_dataset):
        report = run_pipeline(small_config(), noisy_dataset, "sciu")
        assert report["pruned_total"] > 0
        assert report["corrected_total"] > 0

    def test_baseline_has_no_purification_sections(self, noisy_dataset):
        report = run_pipeline(small_config(), noisy_dataset, "baseline")
        assert report["pruned_total"] == 0
        assert report["corrected_total"] == 0
        assert report["weight_summary"] is None
        assert report["pruning_quality"] is None

    def test_stage_roles_by_mode(self, noisy_dataset):
        roles = {
            "baseline": ["final"],
            "cgp_only": ["cgp", "final"],
            "fgc_only": ["fgc", "final"],
            "sciu": ["cgp", "fgc", "final"],
        }
        for mode, expected in roles.items():
            report = run_pipeline(small_config(), noisy_dataset, mode)
            assert [s["role"] for s in report["stages"]] == expected

    def test_unknown_mode(self, noisy_dataset):
        with pytest.raises(ConfigurationError):
            run_pipeline(small_config(), noisy_dataset, "other")

    @pytest.mark.parametrize("field, value", [("epochs", 20.5), ("train_fraction", True)])
    def test_wrongly_typed_field_rejected(self, noisy_dataset, field, value):
        with pytest.raises(ConfigurationError, match=f"^{field} must be "):
            run_pipeline(small_config(**{field: value}), noisy_dataset, "baseline")

    def test_report_round_trip(self, noisy_dataset, tmp_path):
        report = run_pipeline(small_config(), noisy_dataset, "baseline")
        path = write_report(report, tmp_path)
        assert load_report(path) == json.loads(report_to_json(report))

    def test_load_report_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.struct"
        path.write_text("{not json")
        with pytest.raises(SciuError):
            load_report(path)

    def test_histogram_conserves_counts(self, noisy_dataset):
        report = run_pipeline(small_config(), noisy_dataset, "sciu")
        ws = report["weight_summary"]
        n_train = report["stages"][0]["epoch_records"][0]["active_sample_count"]
        assert sum(ws["kept_counts"]) + sum(ws["pruned_counts"]) == n_train

    def test_pruned_weights_lower(self, noisy_dataset):
        report = run_pipeline(small_config(), noisy_dataset, "sciu")
        ws = report["weight_summary"]
        assert ws["mean_weight_pruned"] < ws["mean_weight_kept"]

    @pytest.mark.parametrize("mode", list(MODES))
    @pytest.mark.parametrize("score_source,prob_source",
                             [("max_class", "weighted"), ("annotated_class", "unweighted")])
    def test_report_same_when_forward_computes_every_output(
        self, noisy_dataset, monkeypatch, mode, score_source, prob_source
    ):
        # Each caller asks `forward_batch` only for the outputs it reads (one
        # that reads more fails with a KeyError); what it gets must be the
        # bits of a forward that computes them all.
        config = small_config(score_source=score_source, prob_source=prob_source)
        report = report_to_json(run_pipeline(config, noisy_dataset, mode))

        def every_output(model, features, outputs):
            return forward_batch(model, features)

        monkeypatch.setattr(trainer, "forward_batch", every_output)
        monkeypatch.setattr(pipeline, "forward_batch", every_output)
        assert report_to_json(run_pipeline(config, noisy_dataset, mode)) == report

    def test_plain_training_asks_only_for_probs(self, noisy_dataset, monkeypatch):
        asked = set()

        def recording(model, features, outputs):
            asked.add(outputs)
            return forward_batch(model, features, outputs)

        monkeypatch.setattr(trainer, "forward_batch", recording)
        run_pipeline(small_config(), noisy_dataset, "baseline")
        assert asked == {("probs",)}

    @pytest.mark.parametrize("mode, corrected, war_true",
                             [("cgp_only", 0, 0.8643), ("sciu", 459, 0.8704)])
    def test_weight_of_exactly_one_decides_like_any_other(self, monkeypatch, mode, corrected,
                                                          war_true):
        # On dataset seed 1, pipeline seed 1 and lambda 0.5, the float64
        # sigmoid rounds sample 3993's weight to exactly 1.0 at epoch 38: a
        # legal weight, so the run ends with a report.
        ones, prune_epoch = [], trainer.cgp_mod.prune_epoch

        def spy(state, active, eval_out, epoch, config):
            at_one = eval_out["weight"] == 1.0
            ones.extend((epoch, i) for i in active.id_array[at_one].tolist())
            return prune_epoch(state, active, eval_out, epoch, config)

        monkeypatch.setattr(trainer.cgp_mod, "prune_epoch", spy)
        report = run_pipeline(PipelineConfig(seed=1, lam=0.5), generate(SynthConfig(seed=1)),
                              mode)
        assert ones == [(38, 3993)]
        assert (report["pruned_total"], report["corrected_total"]) == (792, corrected)
        assert round(report["final_test"]["war_true"], 4) == war_true


    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_last_epoch_test_scores_are_the_final_test(self, mode):
        report = run_pipeline(PipelineConfig(epochs=20, warmup_epochs=5, seed=1),
                              generate(SynthConfig(per_class=60, seed=3)), mode)
        last = report["stages"][-1]["epoch_records"][-1]
        final = report["final_test"]
        assert (last["test_war"], last["test_uar"]) == (final["war"], final["uar"])

    @pytest.mark.parametrize("mode", ["baseline", "fgc_only"])
    def test_non_finite_last_evaluation_is_numeric_error(self, mode):
        # Epoch 0's step leaves the parameters finite and its evaluation
        # finite; epoch 1's loss is finite, but its evaluation holds NaN rows.
        cfg = PipelineConfig(epochs=2, warmup_epochs=0, window_t=1, learning_rate=1e155,
                             batch_size=100_000)
        with np.errstate(all="ignore"), pytest.raises(
                NumericError, match=r"^non-finite training probabilities at epoch 1: 6 samples, "
                                    r"first sample ids \[12, 35, 107, 205, 241\]$"):
            run_pipeline(cfg, generate(SynthConfig(per_class=40, seed=0)), mode)


class TestSweep:
    def test_single_value_single_row(self, noisy_dataset):
        result = sweep(small_config(), "tau", [0.2], noisy_dataset, mode="fgc_only")
        assert len(result["rows"]) == 1
        assert result["best_value"] == 0.2

    def test_csv_shape(self, noisy_dataset):
        result = sweep(small_config(), "tau", [0.2], noisy_dataset, mode="fgc_only")
        csv = sweep_to_csv(result)
        lines = csv.strip().split("\n")
        assert lines[0] == "value,median_war,median_uar,median_war_true,n_failures"
        assert len(lines) == 2

    def test_unknown_parameter(self, noisy_dataset):
        with pytest.raises(ConfigurationError):
            sweep(small_config(), "gamma", [0.1], noisy_dataset)

    def test_no_values(self, noisy_dataset):
        with pytest.raises(ConfigurationError, match="^sweep needs at least one value$"):
            sweep(small_config(), "tau", [], noisy_dataset)

    def test_no_seeds(self, noisy_dataset):
        with pytest.raises(ConfigurationError, match="^sweep needs at least one seed$"):
            sweep(small_config(), "tau", [0.2], noisy_dataset, seeds=[])

    def test_wrongly_typed_value_rejected(self, noisy_dataset):
        with pytest.raises(ConfigurationError, match="^window_t must be int, not float$"):
            sweep(small_config(), "window", [2.5], noisy_dataset)

    @pytest.mark.parametrize("values", [[0.3, 0.5], [0.3, 0.5, 0.9]])
    def test_a_failed_row_leaves_the_ranking_by_true_war(self, noisy_dataset, monkeypatch,
                                                         values):
        # 0.5 has the higher annotated WAR, 0.3 the higher true-label WAR; every
        # cell of 0.9 fails, so its row has no median to rank.
        wars = {0.3: (0.60, 0.90), 0.5: (0.70, 0.80)}

        def run(cfg, dataset, mode, memo):
            if cfg.lam not in wars:
                raise DegenerateRunError("all samples pruned")
            war, war_true = wars[cfg.lam]
            return {"final_test": {"war": war, "uar": war, "war_true": war_true}}

        monkeypatch.setattr(pipeline, "run_pipeline", run)
        result = sweep(small_config(), "lambda", values, noisy_dataset, seeds=[0, 1])
        assert result["best_value"] == 0.3
        assert [len(r["failures"]) for r in result["rows"]] == [0, 0, 2][:len(values)]


class TestCli:
    def test_generate_default_reloads(self, tmp_path, capsys):
        out = tmp_path / "gen.jsonl"
        code = main(["generate", "--out", str(out), "--per-class", "20"])
        assert code == 0
        ds = load_dataset(out)
        assert ds.n_classes == 7 and len(ds) == 140

    def test_generate_zero_mislabel_summary(self, tmp_path, capsys):
        out = tmp_path / "gen.jsonl"
        main(["generate", "--out", str(out), "--per-class", "20",
              "--mislabel-rate", "0"])
        assert "mislabeled: 0" in capsys.readouterr().out

    def test_generate_summary_matches_file(self, tmp_path, capsys):
        out = tmp_path / "gen.jsonl"
        main(["generate", "--out", str(out), "--per-class", "30"])
        text = capsys.readouterr().out
        ds = load_dataset(out)
        n_low = sum(1 for s in ds.samples if s.quality_flag == "low_quality")
        n_mis = sum(1 for s in ds.samples if s.label != s.true_label)
        assert f"low_quality: {n_low}" in text
        assert f"mislabeled: {n_mis}" in text

    def test_run_baseline(self, dataset_file, tmp_path, capsys):
        code = main([
            "run", "--dataset", str(dataset_file), "--mode", "baseline",
            "--epochs", "25", "--warmup-epochs", "10",
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 0
        assert (tmp_path / "out" / "report.struct").exists()
        assert "test WAR=" in capsys.readouterr().out

    def test_run_invalid_config_exit_2(self, dataset_file, capsys):
        code = main([
            "run", "--dataset", str(dataset_file), "--mode", "baseline",
            "--epochs", "5", "--warmup-epochs", "10",
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_run_all_pruned_exit_3(self, dataset_file, capsys):
        # Frozen model keeps every weight near 0.5, so every score sits
        # below a 0.9 threshold and the whole training set gets pruned.
        code = main([
            "run", "--dataset", str(dataset_file), "--mode", "cgp",
            "--epochs", "25", "--warmup-epochs", "10", "--lambda", "0.9",
            "--learning-rate", "0",
        ])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_run_saturated_weights_exit_3(self, tmp_path, capsys):
        # At learning rate 5 the weight branch's sigmoid rounds 550 weights
        # to exactly 0.0 by epoch 5: legal weights, whose scores all sit at
        # or below lambda, so everything is pruned.
        data = tmp_path / "d.jsonl"
        assert main(["generate", "--out", str(data), "--per-class", "100"]) == 0
        code = main([
            "run", "--dataset", str(data), "--mode", "cgp", "--learning-rate", "5.0",
            "--epochs", "25", "--warmup-epochs", "5", "--out-dir", str(tmp_path / "run"),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: all samples pruned") and "Traceback" not in err

    def test_run_non_finite_score_exit_4(self, tmp_path, capsys):
        # One step at learning rate 1e300 makes every class probability NaN:
        # a numeric failure, not a usage error.
        data = tmp_path / "d.jsonl"
        assert main(["generate", "--out", str(data), "--per-class", "100"]) == 0
        code = main([
            "run", "--dataset", str(data), "--mode", "cgp", "--learning-rate", "1e300",
            "--batch-size", "10000", "--warmup-epochs", "0", "--window", "1", "--epochs", "3",
            "--out-dir", str(tmp_path / "run"),
        ])
        assert code == 4
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: non-finite score at epoch 0: 561 samples, "
                                    "first sample ids [1, 2, 3, 4, 5]"]

    @pytest.mark.parametrize("mode", ["baseline", "fgc"])
    def test_run_non_finite_last_evaluation_exit_4(self, tmp_path, capsys, mode):
        data, out = tmp_path / "d.jsonl", tmp_path / "run"
        assert main(["generate", "--out", str(data), "--per-class", "40", "--seed", "0"]) == 0
        capsys.readouterr()
        code = main([
            "run", "--dataset", str(data), "--mode", mode, "--learning-rate", "1e155",
            "--batch-size", "100000", "--warmup-epochs", "0", "--window", "1", "--epochs", "2",
            "--out-dir", str(out),
        ])
        assert code == 4
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: non-finite training probabilities at epoch 1: 6 samples, "
            "first sample ids [12, 35, 107, 205, 241]"]
        assert captured.out == "" and not (out / "report.struct").exists()

    def test_sweep_cli(self, dataset_file, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--dataset", str(dataset_file), "--param", "tau",
            "--values", "0.2", "--mode", "fgc", "--epochs", "25",
            "--warmup-epochs", "10", "--out", str(out),
        ])
        assert code == 0
        assert out.read_text().startswith("value,")
        assert "best tau: 0.2" in capsys.readouterr().out

    def test_report_command(self, noisy_dataset, tmp_path, capsys):
        write_report(run_pipeline(small_config(), noisy_dataset, "sciu"), tmp_path / "run")
        code = main([
            "report", "--report", str(tmp_path / "run" / "report.struct"),
            "--out-dir", str(tmp_path / "rendered"),
        ])
        assert code == 0
        rendered = tmp_path / "rendered"
        assert (rendered / "weight_histogram.csv").exists()
        assert (rendered / "confusion_matrix.csv").exists()
        assert (rendered / "summary.txt").exists()

    def test_report_command_without_oracle(self, noisy_dataset, tmp_path):
        report = run_pipeline(small_config(), noisy_dataset.without_oracle_fields(), "sciu")
        assert report["pruned_total"] > 0 and report["corrected_total"] > 0
        assert report["pruning_quality"] is None and report["correction_quality"] is None
        assert (report["final_test"]["war_true"], report["final_test"]["uar_true"]) == (None, None)
        write_report(report, tmp_path / "run")
        code = main(["report", "--report", str(tmp_path / "run" / "report.struct"),
                     "--out-dir", str(tmp_path / "rendered")])
        assert code == 0
        summary = (tmp_path / "rendered" / "summary.txt").read_text().splitlines()
        # No quality lines: the oracle that would score the prunes and corrections is absent.
        assert [line.split(":")[0] for line in summary] == [
            "mode", "pruned", "final test WAR", "final test WAR (weighted probs)",
            "mean weight kept"]

    def test_report_baseline_has_no_histogram(self, noisy_dataset, tmp_path):
        write_report(run_pipeline(small_config(), noisy_dataset, "baseline"), tmp_path / "run")
        render_report(tmp_path / "run" / "report.struct", tmp_path / "rendered")
        assert not (tmp_path / "rendered" / "weight_histogram.csv").exists()

    def test_report_command_read_only(self, noisy_dataset, tmp_path):
        write_report(run_pipeline(small_config(), noisy_dataset, "baseline"), tmp_path / "run")
        src = tmp_path / "run" / "report.struct"
        before = src.read_bytes()
        render_report(src, tmp_path / "rendered")
        assert src.read_bytes() == before


    def test_sweep_prints_stage_counts(self, dataset_file, capsys):
        code = main([
            "sweep", "--dataset", str(dataset_file), "--param", "tau",
            "--values", "0.1,0.3", "--seeds", "0,1", "--epochs", "25",
            "--warmup-epochs", "10",
        ])
        captured = capsys.readouterr()
        assert code == 0
        (line,) = [x for x in captured.err.splitlines() if x.startswith("stages: ")]
        # Each seed's FGC stage makes the same corrections at 0.1 and 0.3.
        assert line == ("stages: plain computed 2 reused 2, cgp computed 2 reused 2, "
                        "fgc computed 2 reused 2")
        assert "stages" not in captured.out


class TestSummaryText:
    """The text of `summary.txt`, for optional quality values that are all
    None and for ones that are all floats."""

    @pytest.mark.parametrize("values,shown,weights", [
        ((None,) * 4, ("n/a",) * 4, ""),
        ((0.5, 1 / 3, 0.0, 0.99996), ("0.5000", "0.3333", "0.0000", "1.0000"),
         "mean weight kept: 0.6250  pruned: 0.1250\n"),
    ])
    def test_text(self, values, shown, weights):
        precision, recall, accuracy, harmful = values
        report = {
            "mode": "sciu", "pruned_total": 12, "corrected_total": 3,
            "final_test": {"war": 0.5, "uar": 0.25, "war_weighted": 0.125, "uar_weighted": 1.0},
            "pruning_quality": {"precision": precision, "recall": recall},
            "correction_quality": {"correction_accuracy": accuracy, "harmful_rate": harmful},
            "weight_summary": {"mean_weight_kept": 0.625,
                               "mean_weight_pruned": None if precision is None else 0.125},
        }
        assert summary_text(report) == (
            "mode: sciu\n"
            "pruned: 12  corrected: 3\n"
            "final test WAR: 0.5000  UAR: 0.2500\n"
            "final test WAR (weighted probs): 0.1250  UAR (weighted probs): 1.0000\n"
            f"pruning precision: {shown[0]}  recall: {shown[1]}\n"
            f"correction accuracy: {shown[2]}  harmful rate: {shown[3]}\n"
            + weights
        )


class TestCliBoundaries:
    """Bad input at the command line is a one-line error with exit 2."""

    @pytest.fixture
    def bad_report(self, tmp_path):
        path = tmp_path / "partial.struct"
        path.write_text('{"mode":"sciu"}')
        return path

    @pytest.mark.parametrize("argv", [
        ["sweep", "--param", "window", "--values", "0.5"],
        ["sweep", "--param", "tau", "--values", "abc"],
        ["sweep", "--param", "tau", "--values", ","],
        ["sweep", "--param", "tau", "--values", "0.2", "--seeds", "0,x"],
    ])
    def test_sweep_lists(self, dataset_file, capsys, argv):
        code = main(argv[:1] + ["--dataset", str(dataset_file)] + argv[1:])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: --") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["--param", "tau", "--values", "0.2", "--seeds", "-1"],
        ["--param", "lambda", "--values", "1.5"],
        ["--param", "window", "--values", "0"],
    ])
    def test_sweep_config_rejected(self, dataset_file, capsys, argv):
        # Each used to be caught as a failed cell: "best ...: None", exit 0.
        code = main(["sweep", "--dataset", str(dataset_file)] + argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
        assert captured.out == ""
        if "window" in argv:
            assert captured.err == "error: window_t must be >= 1\n"

    @pytest.mark.parametrize("flag", ["--embed-dim", "--hidden-dim"])
    def test_zero_layer_width(self, dataset_file, capsys, flag):
        code = main(["run", "--dataset", str(dataset_file), "--mode", "baseline", flag, "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_negative_warmup(self, dataset_file, capsys):
        code = main(["run", "--dataset", str(dataset_file), "--mode", "baseline",
                     "--epochs", "25", "--warmup-epochs", "-1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "warmup_epochs must be non-negative" in err

    def test_zero_window(self, dataset_file, capsys):
        code = main(["run", "--dataset", str(dataset_file), "--mode", "sciu", "--window", "0"])
        assert code == 2
        assert capsys.readouterr().err == "error: window_t must be >= 1\n"

    def test_run_missing_dataset(self, tmp_path, capsys):
        missing = tmp_path / "none.jsonl"
        code = main(["run", "--dataset", str(missing), "--mode", "sciu"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: {missing}: cannot read: No such file or directory\n"

    def test_report_missing_file(self, tmp_path, capsys):
        code = main(["report", "--report", str(tmp_path / "none.struct"),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_report_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "list.struct"
        path.write_text('[{"mode": "sciu"}]')
        with pytest.raises(SciuError, match=r"list\.struct: not a RunReport$"):
            load_report(path)
        code = main(["report", "--report", str(path), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}: not a RunReport\n"
        assert not (tmp_path / "o").exists()

    def test_report_without_sections(self, bad_report, tmp_path, capsys):
        code = main(["report", "--report", str(bad_report), "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert "not a RunReport" in err and "stages" in err

    def test_report_with_malformed_section(self, noisy_dataset, tmp_path, capsys):
        report = run_pipeline(small_config(), noisy_dataset, "baseline")
        del report["stages"][0]["epoch_records"][0]["train_war"]
        path = tmp_path / "bad.struct"
        path.write_text(report_to_json(report))
        code = main(["report", "--report", str(path), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert "malformed report" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("roles", [["cgp", "a/b"], ["../../../escaped"]])
    def test_report_with_a_stage_role_it_never_writes(self, noisy_dataset, tmp_path, capsys,
                                                      roles):
        # A role becomes part of a file name, so an unchecked one could write outside the
        # out dir, or fail after the files of the stages before it were written.
        report = run_pipeline(small_config(), noisy_dataset, "baseline")
        report["stages"] = [dict(report["stages"][0], role=role) for role in roles]
        path, out = tmp_path / "bad.struct", tmp_path / "o"
        path.write_text(report_to_json(report))
        (out / "epochs_0_..").mkdir(parents=True)
        code = main(["report", "--report", str(path), "--out-dir", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (f"error: {path}: malformed report: ValueError: "
                                           f"stage role {roles[-1]!r} is not cgp, fgc or final\n")
        assert sorted(tmp_path.rglob("*")) == [path, out, out / "epochs_0_.."]

    # Each size asks for at least 10**14 elements, which numpy refuses outright.
    @pytest.mark.parametrize("argv,field", [
        (["generate", "--intensity-high", "nan"], "intensity_high"),
        (["generate", "--intensity-high", "inf"], "intensity_high"),
        (["generate", "--intensity-low", "nan"], "intensity_low"),
        (["generate", "--cluster-spread", "nan"], "cluster_spread"),
        (["generate", "--seed", "-1"], "seed"),
        (["generate", "--dim", str(10**14), "--per-class", "1"], "dim"),
        (["generate", "--per-class", str(10**14)], "samples"),
        (["generate", "--n-classes", str(10**14)], "samples"),
        (["generate", "--per-class", str(10**20)], "samples"),
        (["generate", "--intensity-high", "1e200"], "intensity_high"),
        (["generate", "--cluster-spread", "1e200"], "cluster_spread"),
        (["run", "--dataset", "{data}", "--mode", "baseline", "--learning-rate", "nan"],
         "learning_rate"),
        (["run", "--dataset", "{data}", "--mode", "baseline", "--learning-rate", "inf"],
         "learning_rate"),
        (["run", "--dataset", "{data}", "--mode", "baseline", "--train-fraction", "nan"],
         "train_fraction"),
    ])
    def test_bad_value_is_a_usage_error(self, dataset_file, tmp_path, capsys, argv, field):
        argv = [a.format(data=dataset_file) for a in argv]
        if argv[0] == "generate":
            argv += ["--out", str(tmp_path / "g.jsonl")]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert field in err
        assert not (tmp_path / "g.jsonl").exists()

    def test_negative_seed(self, dataset_file, capsys):
        code = main(["run", "--dataset", str(dataset_file), "--mode", "baseline",
                     "--seed", "-1"])
        assert code == 2
        assert "seed must be non-negative" in capsys.readouterr().err

    @pytest.fixture
    def no_training(self, monkeypatch):
        """Fail the test if any stage starts training."""
        def train_stage(*args, **kwargs):
            raise AssertionError("a stage trained before the output path was checked")
        monkeypatch.setattr("sciu.pipeline.train_stage", train_stage)

    @pytest.mark.parametrize("argv", [
        ["generate", "--out", "nodir/x.jsonl"],
        ["generate", "--out", "."],
        ["run", "--dataset", "{data}", "--mode", "sciu", "--out-dir", "f/run"],
        ["report", "--report", "missing.struct", "--out-dir", "f/r"],
        ["sweep", "--dataset", "{data}", "--param", "tau", "--values", "0.2",
         "--out", "nodir/s.csv"],
        ["sweep", "--dataset", "{data}", "--param", "tau", "--values", "0.2", "--out", "."],
    ], ids=["generate-no-dir", "generate-to-dir", "run-under-file", "report-under-file",
            "sweep-no-dir", "sweep-to-dir"])
    def test_bad_output_path(self, dataset_file, tmp_path, monkeypatch, capsys,
                             no_training, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "f").write_text("a regular file")
        code = main([a.format(data=dataset_file) for a in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {argv[-2]} {argv[-1]}: ")
        assert len(err.splitlines()) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f"]

    @pytest.mark.parametrize("out_dir", [".", "new/deep", str(Path.cwd().anchor)],
                             ids=["cwd", "new-nested", "root"])
    def test_good_output_dir(self, dataset_file, tmp_path, monkeypatch, capsys, out_dir):
        """An existing directory, `.` and the root included, or one whose
        nearest existing parent is a directory, passes the output check."""
        monkeypatch.chdir(tmp_path)
        _check_output("--out-dir", out_dir, directory=True)
        if out_dir == Path.cwd().anchor:
            return  # checked only: nothing is written into the root
        code = main(["run", "--dataset", str(dataset_file), "--mode", "baseline",
                     "--epochs", "25", "--warmup-epochs", "10", "--out-dir", out_dir])
        assert code == 0
        report = Path(out_dir) / "report.struct"
        assert report.is_file()
        code = main(["report", "--report", str(report), "--out-dir", out_dir])
        assert code == 0
        assert (Path(out_dir) / "epochs_0_final.csv").is_file()
        assert capsys.readouterr().err == ""

    def test_bad_output_path_in_a_subprocess(self, dataset_file, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        (tmp_path / "f").write_text("a regular file")
        proc = subprocess.run(
            [sys.executable, "-m", "sciu.cli", "run", "--dataset", str(dataset_file),
             "--mode", "baseline", "--out-dir", str(tmp_path / "f" / "run")],
            capture_output=True, text=True, env={"PYTHONPATH": str(src)},
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: --out-dir ") and "Traceback" not in proc.stderr

    def test_diverging_run_prints_one_error_line(self, tiny_dataset_file):
        # At learning rate 1e300 the first step overflows: numpy's warnings
        # stay quiet, and the error names the batch and at most 5 ids.
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "sciu.cli", "run", "--dataset", str(tiny_dataset_file),
             "--mode", "sciu", "--epochs", "5", "--warmup-epochs", "1", "--window", "2",
             "--learning-rate", "1e300"],
            capture_output=True, text=True, env={"PYTHONPATH": str(src)},
        )
        assert proc.returncode == 4
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: non-finite loss"), lines
        assert "batch of 44 samples" in lines[0]
        ids = lines[0][lines[0].index("[") + 1 : lines[0].index("]")].split(",")
        assert 1 <= len(ids) <= 5

    def test_missing_dataset_in_a_subprocess(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "sciu.cli", "run", "--dataset",
             str(tmp_path / "none.jsonl"), "--mode", "sciu"],
            capture_output=True, text=True, env={"PYTHONPATH": str(src)},
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("text", [
        "[" * 100000 + "]" * 100000,
        '{"mode": ' + "7" * 5000 + "}",
        '{"mode": "sciu",\n "stages": [}',
    ], ids=["too-deep", "5000-digits", "decode-error"])
    def test_unreadable_report_in_a_subprocess(self, tmp_path, text):
        src = Path(__file__).resolve().parents[1] / "src"
        path = tmp_path / "bad.struct"
        path.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "sciu.cli", "report", "--report", str(path),
             "--out-dir", str(tmp_path / "out")],
            capture_output=True, text=True, env={"PYTHONPATH": str(src)},
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: {path}: corrupt report: ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def tiny_dataset_file(tmp_path_factory):
    from sciu.dataset import save_dataset

    path = tmp_path_factory.mktemp("tiny") / "tiny.jsonl"
    save_dataset(generate(SynthConfig(per_class=8, seed=0)), path)
    return path


LIST_ITEMS = st.one_of(
    st.integers(-3, 10**6).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(0.0, 1.0).map(repr),
    st.text(alphabet=" 0123456789.-+eEinfax_", max_size=5),
)


def comma_list(items, max_size):
    return st.lists(items, min_size=1, max_size=max_size).map(",".join)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    param=st.sampled_from(["lambda", "tau", "window"]),
    values=comma_list(LIST_ITEMS, 3),
    seeds=comma_list(st.one_of(st.integers(-2, 3).map(str),
                               st.text(alphabet=" 0123456789-x", max_size=3)), 2),
)
def test_sweep_lists_exit_cleanly(tiny_dataset_file, capsys, param, values, seeds):
    """Any --values/--seeds string is a sweep (exit 0) or a one-line error."""
    assert_exits_cleanly(["sweep", "--dataset", str(tiny_dataset_file), "--param", param,
                          f"--values={values}", f"--seeds={seeds}", "--epochs", "5",
                          "--warmup-epochs", "1", "--window", "2"], capsys)


def assert_exits_cleanly(argv, capsys):
    """`argv` exits 0, or 2, 3 or 4 with an error or usage message, and
    never with a traceback."""
    try:
        code = main(argv)
    except SystemExit as e:  # argparse rejects the command line itself
        code = e.code
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err
    if code != 0:
        assert err.startswith(("error: ", "usage: "))


def _train_flags():
    sweep_parser = build_parser()._subparsers._group_actions[0].choices["sweep"]
    return {a.dest: a for a in sweep_parser._actions if a.option_strings}


NON_DEFAULT = {
    "learning_rate": 0.02, "momentum": 0.5, "batch_size": 17, "epochs": 31,
    "warmup_epochs": 7, "window_t": 5, "lam": 0.55, "tau": 0.35, "seed": 4,
    "score_source": "annotated_class", "prob_source": "unweighted",
    "embed_dim": 9, "hidden_dim": 6, "train_fraction": 0.6,
}


class TestConfigFromArgs:
    def test_every_field_has_a_flag(self):
        flags = _train_flags()
        for f in dataclasses.fields(PipelineConfig):
            assert f.name in flags, f.name
            assert flags[f.name].default == f.default, f.name
        assert set(NON_DEFAULT) == {f.name for f in dataclasses.fields(PipelineConfig)}

    @pytest.mark.parametrize("name", sorted(NON_DEFAULT))
    def test_field_round_trips(self, name):
        value = NON_DEFAULT[name]
        assert value != getattr(PipelineConfig(), name)
        flag = _train_flags()[name].option_strings[0]
        for command in (["run", "--mode", "sciu"], ["sweep", "--param", "tau", "--values", "0.2"]):
            args = build_parser().parse_args(
                command[:1] + ["--dataset", "d.jsonl"] + command[1:] + [flag, str(value)])
            assert _config_from_args(args) == PipelineConfig(**{name: value})

    def test_flag_names_unchanged(self):
        flags = _train_flags()
        assert flags["window_t"].option_strings == ["--window"]
        assert flags["lam"].option_strings == ["--lambda"]


class TestGenerateFlags:
    def test_flags_names_types_and_defaults(self):
        gen = build_parser()._subparsers._group_actions[0].choices["generate"]
        flags = {a.option_strings[0]: (a.dest, a.type, a.default)
                 for a in gen._actions if a.option_strings and a.dest not in ("help", "out")}
        assert flags == {
            "--n-classes": ("n_classes", int, 7), "--dim": ("dim", int, 16),
            "--per-class": ("per_class", int, 700),
            "--low-quality-rate": ("low_quality_rate", float, 0.15),
            "--mislabel-rate": ("mislabel_rate", float, 0.15),
            "--neutral-bias-fraction": ("neutral_bias_fraction", float, 0.5),
            "--intensity-low": ("intensity_low", float, 2.0),
            "--intensity-high": ("intensity_high", float, 3.0),
            "--cluster-spread": ("cluster_spread", float, 0.2),
            "--seed": ("seed", int, 0),
        }

    def test_every_flag_reaches_the_generator(self, tmp_path, capsys):
        out = tmp_path / "g.jsonl"
        argv = ["--n-classes", "3", "--dim", "2", "--per-class", "9",
                "--low-quality-rate", "0.3", "--mislabel-rate", "0.2",
                "--neutral-bias-fraction", "0.7", "--intensity-low", "1.5",
                "--intensity-high", "2.5", "--cluster-spread", "0.4", "--seed", "4"]
        assert main(["generate", "--out", str(out)] + argv) == 0
        want = tmp_path / "want.jsonl"
        save_dataset(generate(SynthConfig(3, 2, 9, 0.3, 0.2, 0.7, 1.5, 2.5, 0.4, 4)), want)
        assert out.read_bytes() == want.read_bytes()


def _flag_table(command):
    """(dest, type, default, choices, help) of each option of `command`, in order."""
    sub = build_parser()._subparsers._group_actions[0].choices[command]
    return {a.option_strings[0]: (a.dest, a.type, a.default,
                                  list(a.choices) if a.choices else None, a.help)
            for a in sub._actions if a.option_strings and a.dest != "help"}


MODES = ["baseline", "cgp", "fgc", "sciu"]
TRAIN_FLAGS = {
    "--learning-rate": ("learning_rate", float, 0.05, None, None),
    "--momentum": ("momentum", float, 0.9, None, None),
    "--batch-size": ("batch_size", int, 64, None, None),
    "--epochs": ("epochs", int, 60, None, None),
    "--warmup-epochs": ("warmup_epochs", int, 15, None, None),
    "--window": ("window_t", int, 3, None, "trailing-window length t"),
    "--lambda": ("lam", float, 0.7, None, "pruning threshold"),
    "--tau": ("tau", float, 0.2, None, "correction score-gap threshold"),
    "--seed": ("seed", int, 0, None, None),
    "--score-source": ("score_source", str, "max_class", ["annotated_class", "max_class"],
                       None),
    "--prob-source": ("prob_source", str, "weighted", ["weighted", "unweighted"], None),
    "--embed-dim": ("embed_dim", int, 16, None, None),
    "--hidden-dim": ("hidden_dim", int, 4, None, None),
    "--train-fraction": ("train_fraction", float, 0.8, None, None),
}


class TestRunAndSweepFlags:
    def test_run(self):
        assert list(_flag_table("run").items()) == [
            ("--dataset", ("dataset", None, None, None, None)),
            ("--mode", ("mode", None, None, MODES, None)),
            ("--out-dir", ("out_dir", None, None, None, None)),
            *TRAIN_FLAGS.items(),
        ]

    def test_sweep(self):
        assert list(_flag_table("sweep").items()) == [
            ("--dataset", ("dataset", None, None, None, None)),
            ("--param", ("param", None, None, ["lambda", "tau", "window"], None)),
            ("--values", ("values", None, None, None, "comma-separated values")),
            ("--seeds", ("seeds", None, "0", None, "comma-separated seeds")),
            ("--mode", ("mode", None, "sciu", MODES, None)),
            ("--out", ("out", None, None, None, "CSV output path")),
            *TRAIN_FLAGS.items(),
        ]

    @pytest.mark.parametrize("param,values,want", [
        ("window", "2,4", [2, 4]), ("lambda", "0.5,1", [0.5, 1.0]), ("tau", "0.1", [0.1]),
    ])
    def test_values_take_the_swept_fields_type(self, monkeypatch, capsys, param, values,
                                               want):
        seen = {}

        def fake_sweep(config, parameter, values, dataset, mode, seeds):
            seen["values"] = values
            return {"rows": [], "stages": {}, "best_value": None}

        monkeypatch.setattr("sciu.cli.sweep", fake_sweep)
        assert main(["sweep", "--dataset", "d.jsonl", "--param", param,
                     "--values", values]) == 0
        assert seen["values"] == want
        assert [type(v) for v in seen["values"]] == [type(w) for w in want]


# Flag values: negatives, 0, NaN, +-inf and huge numbers among ordinary ones.
# Every huge count asks for at least 10**14 elements when it is a size, which
# numpy refuses outright; epochs stay small so that every run is short.
FUZZ_INTS = st.sampled_from(["-1", "0", "1", "2", "3", str(10**14), str(10**20)])
FUZZ_EPOCHS = st.sampled_from(["-1", "0", "2", "4", "6"])
FUZZ_FLOATS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-1", "0", "0.3", "0.9", "1", "2.5",
                     str(10**14), "1e300"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)


def fuzzed_flags(command):
    """Strategy: `--flag=value` items for up to three of `command`'s typed
    flags."""
    items = {}
    for flag, (dest, kind, _, choices, _) in _flag_table(command).items():
        if choices:
            values = st.sampled_from(choices + ["nope"])
        elif dest == "epochs":
            values = FUZZ_EPOCHS
        elif kind is int:
            values = FUZZ_INTS
        elif kind is float:
            values = FUZZ_FLOATS
        else:
            continue
        items[flag] = values.map(lambda v, f=flag: f"{f}={v}")
    chosen = st.lists(st.sampled_from(list(items)), unique=True, max_size=3)
    return chosen.flatmap(lambda flags: st.tuples(*(items[f] for f in flags))).map(list)


FUZZ_SETTINGS = settings(max_examples=60, deadline=None,
                         suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ_SETTINGS
@given(flags=fuzzed_flags("generate"))
def test_generate_flags_exit_cleanly(tiny_dataset_file, capsys, flags):
    out = tiny_dataset_file.parent / "fuzzed.jsonl"
    assert_exits_cleanly(["generate", f"--out={out}", "--per-class=2", *flags], capsys)


@FUZZ_SETTINGS
@given(flags=fuzzed_flags("run"))
def test_run_flags_exit_cleanly(tiny_dataset_file, capsys, flags):
    assert_exits_cleanly(["run", f"--dataset={tiny_dataset_file}", "--mode=sciu",
                          "--epochs=5", "--warmup-epochs=1", "--window=2", *flags], capsys)
