"""Pipeline orchestration: mode composition (baseline / pruning only /
correction only / both), report assembly, and hyperparameter sweeps.

A RunReport is a plain JSON-serializable dict written with sorted keys and
fixed separators, so identical configs and seeds produce byte-identical
report files.

Within one `sweep`, cells that give a stage the same inputs share one
computation of it (`StageMemo`); a plain `run_pipeline` call computes every
stage. An FGC stage is reused for every τ in its `tau_range` [lo, hi):
`lo` the largest gap of a stable but rejected sample, `hi` the smallest
gap of an accepted one, over all its epochs; those τ correct alike.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from .dataset import Dataset, load_dataset, read_lines, stratified_split
from .errors import (
    ConfigurationError, DegenerateRunError, EvaluationError, NumericError, ParseError,
)
from .metrics import correction_quality, pruning_quality, war_uar
from .model import forward_batch
from .trainer import STAGE_IGNORES, STAGES, StageResult, TrainConfig, train_stage

# The stages each mode runs, in order, before the final plain stage.
MODES = {"baseline": (), "cgp_only": ("cgp",), "fgc_only": ("fgc",), "sciu": ("cgp", "fgc")}

HIST_BINS = 20


@dataclass
class PipelineConfig(TrainConfig):
    train_fraction: float = 0.8

    def validate(self) -> None:
        super().validate()
        if not (0.0 < self.train_fraction < 1.0):
            raise ConfigurationError("train_fraction must be in (0, 1)")


class StageMemo:
    """Stage results shared by the cells of one sweep.

    Results are keyed by the stage, the values of every config field but τ
    and those it ignores (`STAGE_IGNORES`), and the content fingerprints of
    its training input and of the test split; a cell reuses the first result
    of its key whose `tau_range` [lo, hi) holds its τ (every τ, for CGP and
    the final stage). A stage that raises is not kept: it raises again in every
    cell that reaches it. `counts` holds, per stage, how many results were
    computed (and returned) and how many were reused.
    """

    def __init__(self):
        self.results: dict[tuple, list[StageResult]] = {}
        self.counts = {stage: {"computed": 0, "reused": 0} for stage in STAGES}


def _train(
    dataset: Dataset, config: TrainConfig, stage: str, test: Dataset, memo: StageMemo
) -> StageResult:
    """`train_stage`, or the result of an earlier call with the same inputs
    but τ, and τ in its [lo, hi) `tau_range`, when `memo` holds one. The
    result may be shared: read it, never change it."""
    # repr keeps 3 and 3.0 (or 0.0 and -0.0) apart, which == would not.
    values = repr(tuple(getattr(config, f.name) for f in fields(config)
                        if f.name not in STAGE_IGNORES[stage] + ("tau",)))
    key = (stage, values, dataset.fingerprint(), test.fingerprint())
    for result in memo.results.get(key, ()):
        lo, hi = result.tau_range
        if lo <= config.tau < hi:
            memo.counts[stage]["reused"] += 1
            return result
    result = train_stage(dataset, config, stage, test)
    memo.results.setdefault(key, []).append(result)
    memo.counts[stage]["computed"] += 1
    return result


def _stage_fragment(result: StageResult, role: str) -> dict:
    return {
        "role": role,
        "stage": result.stage,
        "epoch_records": [asdict(r) for r in result.epoch_records],
        "prune_log": [dict(entry) for entry in result.prune_log],
        "correction_events": [asdict(e) for e in result.correction_events],
    }


def _weight_summary(result: StageResult, train: Dataset) -> dict:
    """Final CGP-stage weights for every training sample, split kept vs
    pruned (evaluation-only forward over the full set)."""
    weights = forward_batch(result.model, train.features_matrix(), ("weight",))["weight"]
    pruned = np.fromiter(result.pruned_ids, dtype=np.int64, count=len(result.pruned_ids))
    pruned_mask = np.isin(train.id_array, pruned)
    edges = np.linspace(0.0, 1.0, HIST_BINS + 1)
    kept_w = weights[~pruned_mask]
    pruned_w = weights[pruned_mask]
    kept_hist, _ = np.histogram(kept_w, bins=edges)
    pruned_hist, _ = np.histogram(pruned_w, bins=edges)
    return {
        "bin_edges": [float(e) for e in edges],
        "kept_counts": [int(c) for c in kept_hist],
        "pruned_counts": [int(c) for c in pruned_hist],
        "mean_weight_kept": float(kept_w.mean()) if kept_w.size else None,
        "mean_weight_pruned": float(pruned_w.mean()) if pruned_w.size else None,
    }


def _final_test(model, test: Dataset) -> dict:
    """The report's `final_test`, from one forward over the test split:
    WAR/UAR of the unweighted and the weighted predictions against the
    annotated labels, and of the unweighted ones against the oracle true
    labels (evaluation only; None when the oracle is absent)."""
    out = forward_batch(model, test.features_matrix(), ("probs", "weighted_probs"))
    labels, k = test.labels(), test.n_classes
    war_, uar_, cm = war_uar(labels, out["probs"], k)
    war_w, uar_w, _ = war_uar(labels, out["weighted_probs"], k)
    true_labels, _ = test.oracle_columns()
    war_t = uar_t = None
    if not (true_labels < 0).any():
        war_t, uar_t, _ = war_uar(true_labels, out["probs"], k)
    return {"war": war_, "uar": uar_, "war_weighted": war_w, "uar_weighted": uar_w,
            "war_true": war_t, "uar_true": uar_t, "confusion_matrix": cm.counts.tolist()}


def run_pipeline(
    config: PipelineConfig,
    dataset: Dataset | str | Path,
    mode: str,
    *,
    memo: Optional[StageMemo] = None,
) -> dict:
    """Run one experiment end to end and return its RunReport dict.

    Each stage of `MODES[mode]`, then plain training, trains on the output
    of the one before, starting from the training split: baseline trains
    on D1, cgp_only on D3, fgc_only on D4, and sciu runs FGC on D3 and
    trains on the corrected D4. With a `memo`, stages it already holds are
    reused; the report is the same bytes.
    """
    config.validate()
    if mode not in MODES:
        raise ConfigurationError(f"unknown mode {mode!r}, expected one of {tuple(MODES)}")
    if not isinstance(dataset, Dataset):
        dataset = load_dataset(dataset)

    train, test = stratified_split(dataset, config.train_fraction, config.seed)
    results: dict[str, StageResult] = {}
    stage_input, memo = train, memo or StageMemo()
    for stage in MODES[mode] + ("plain",):
        results[stage] = _train(stage_input, config, stage, test, memo)
        stage_input = results[stage].output_dataset
    # Only CGP prunes and only FGC corrects; the other stages leave these empty.
    pruned_ids = set().union(*(r.pruned_ids for r in results.values()))
    events = [e for r in results.values() for e in r.correction_events]

    try:
        pq = pruning_quality(pruned_ids, train) if pruned_ids else None
    except EvaluationError:
        pq = None
    try:
        cq = correction_quality(events, train) if events else None
    except EvaluationError:
        cq = None

    return {
        "mode": mode,
        "config": asdict(config),
        "stages": [_stage_fragment(r, "final" if stage == "plain" else stage)
                   for stage, r in results.items()],
        "pruned_total": len(pruned_ids),
        "corrected_total": len(events),
        "final_test": _final_test(results["plain"].model, test),
        "pruning_quality": pq,
        "correction_quality": cq,
        "weight_summary": _weight_summary(results["cgp"], train) if "cgp" in results else None,
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def write_report(report: dict, out_dir: str | Path) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    snapshot = {"mode": report["mode"], "config": report["config"]}
    (out / "config.snapshot").write_text(json.dumps(snapshot, sort_keys=True, indent=2) + "\n")
    path = out / "report.struct"
    path.write_text(report_to_json(report) + "\n")
    return path


_REPORT_KEYS = ("mode", "stages", "final_test", "pruned_total", "corrected_total")


def load_report(path: str | Path) -> dict:
    try:
        report = json.loads("".join(read_lines(path)))
    except (ValueError, RecursionError) as e:  # too deep, or an int of > 4,300 digits
        raise ParseError(f"{path}: corrupt report: {e}") from e
    if not isinstance(report, dict):
        raise ParseError(f"{path}: not a RunReport")
    missing = [k for k in _REPORT_KEYS if k not in report]
    if missing:
        raise ParseError(f"{path}: not a RunReport, no {', '.join(missing)}")
    return report


SWEEP_PARAMS = {"lambda": "lam", "tau": "tau", "window": "window_t"}


def sweep(
    config: PipelineConfig,
    parameter: str,
    values: list,
    dataset: Dataset | str | Path,
    mode: str = "sciu",
    seeds: Optional[list[int]] = None,
) -> dict:
    """Run the pipeline once per (value, seed) and tabulate median WAR/UAR.

    A cell that degenerates or fails numerically is recorded as a failure
    marker; any other error (a value or seed the config rejects, say) ends
    the sweep. The cells share one `StageMemo`, kept for this call only; the
    result's `stages` entry counts the stages computed and reused.
    """
    if parameter not in SWEEP_PARAMS:
        raise ConfigurationError(
            f"unknown sweep parameter {parameter!r}, expected one of {sorted(SWEEP_PARAMS)}"
        )
    if len(values) < 1:
        raise ConfigurationError("sweep needs at least one value")
    attr = SWEEP_PARAMS[parameter]
    if seeds is None:
        seeds = [config.seed]
    if len(seeds) < 1:
        raise ConfigurationError("sweep needs at least one seed")
    if not isinstance(dataset, Dataset):
        dataset = load_dataset(dataset)

    memo = StageMemo()
    rows = []
    for value in values:
        finals, failures = [], []
        for seed in seeds:
            cfg = PipelineConfig(**{**asdict(config), attr: value, "seed": seed})
            try:
                finals.append(run_pipeline(cfg, dataset, mode, memo=memo)["final_test"])
            except (DegenerateRunError, NumericError) as e:
                failures.append({"seed": seed, "error": str(e)})
        row = {"value": value}
        for metric in ("war", "uar", "war_true"):
            xs = [f[metric] for f in finals if f[metric] is not None]
            row["median_" + metric] = statistics.median(xs) if xs else None
        rows.append({**row, "per_seed_war": [f["war"] for f in finals], "failures": failures})
    # Rank by true-label WAR when any cell had the oracle, else annotated.
    oracle = any(r["median_war_true"] is not None for r in rows)
    key = "median_war_true" if oracle else "median_war"
    scored = [r for r in rows if r[key] is not None]
    best = max(scored, key=lambda r: r[key])["value"] if scored else None
    return {"parameter": parameter, "mode": mode, "seeds": seeds, "rows": rows,
            "best_value": best, "stages": memo.counts}


def sweep_to_csv(result: dict) -> str:
    lines = ["value,median_war,median_uar,median_war_true,n_failures"]
    for r in result["rows"]:
        medians = ["" if r[k] is None else f"{r[k]:.6f}"
                   for k in ("median_war", "median_uar", "median_war_true")]
        lines.append(",".join([f"{r['value']}", *medians, f"{len(r['failures'])}"]))
    return "\n".join(lines) + "\n"
