"""The benchmark's checker rejects tampered decisions and reports.

    python3 -m pytest perfbench/test_check.py

Each test runs a small traced sciu pipeline and alters one output after the
program made it; the checker must refuse it. An untampered run must pass.
"""

from __future__ import annotations

import copy
import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import sciu  # noqa: E402
from sciu import pipeline  # noqa: E402

from check import CheckError, DecisionLog, Oracle, check_report  # noqa: E402
from tracer import Tracer  # noqa: E402

CONFIG = dict(epochs=24, warmup_epochs=6, window_t=3, lam=0.4, seed=1)


@pytest.fixture(scope="module")
def oracle_and_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "d.jsonl"
    sciu.save_dataset(sciu.generate(sciu.SynthConfig(per_class=60, seed=3)), path)
    return Oracle.read(path), sciu.load_dataset(path)


def traced_sciu_run(oracle, dataset, tamper=None):
    """run_pipeline in sciu mode under the tracer, with the brute-force
    replay checking every stage; `tamper(stage, result)` runs first."""
    log = DecisionLog(oracle)
    hooks = log.hooks()
    check_stage = hooks["trainer.train_stage"]

    def stage(tr, args, kwargs, result):
        if tamper is not None:
            tamper(args[2], result)
        check_stage(tr, args, kwargs, result)

    hooks["trainer.train_stage"] = stage
    with Tracer(hooks).installed():
        report = pipeline.run_pipeline(pipeline.PipelineConfig(**CONFIG), dataset, "sciu")
    log.finish()
    return report


def test_untampered_run_passes(oracle_and_dataset):
    oracle, dataset = oracle_and_dataset
    report = traced_sciu_run(oracle, dataset)
    assert report["pruned_total"] > 0 and report["corrected_total"] > 0
    check_report(report, oracle, dataclasses.asdict(pipeline.PipelineConfig(**CONFIG)))


def test_tampered_prune_log_is_rejected(oracle_and_dataset):
    def drop_last_prune(stage, result):
        if stage == "cgp":
            result.prune_log.pop()

    with pytest.raises(CheckError, match="prune log"):
        traced_sciu_run(*oracle_and_dataset, tamper=drop_last_prune)


def test_tampered_correction_event_is_rejected(oracle_and_dataset):
    oracle, dataset = oracle_and_dataset

    def relabel_first(stage, result):
        if stage == "fgc":
            e = result.correction_events[0]
            other = next(c for c in range(oracle.n_classes)
                         if c not in (e.old_label, e.new_label))
            result.correction_events[0] = dataclasses.replace(e, new_label=other)

    with pytest.raises(CheckError, match="correction events"):
        traced_sciu_run(oracle, dataset, tamper=relabel_first)


def test_tampered_report_is_rejected(oracle_and_dataset):
    oracle, dataset = oracle_and_dataset
    config = pipeline.PipelineConfig(**CONFIG)
    report = pipeline.run_pipeline(config, dataset, "sciu")
    tampered = copy.deepcopy(report)
    tampered["pruning_quality"]["recall"] += 0.01
    with pytest.raises(CheckError, match="pruning quality"):
        check_report(tampered, oracle, dataclasses.asdict(config))
