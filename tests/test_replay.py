"""Every decision of whole runs, replayed against a brute-force rule.

`cgp.prune_epoch` and `fgc.correct_epoch` are wrapped (`train_stage` looks
both up on each call), and each decision epoch is replayed from the same
evaluation outputs with per-id Python lists:

- CGP: s = w * p, p read as `score_source` says; S_T = sum(last t) / t once a
  sample has t scores; keep iff S_T > lambda, and a pruned id is gone for good.
- FGC: the first argmax of the `prob_source` row, its probability and that of
  the annotated label; correct iff the last t predictions agree and
  mean(p_pred) - mean(p_gt) > tau, then clear that sample's history.

The replay compares the kept ids, the new prune log entries (S_T bit for bit),
the corrected labels and new events, the returned probs rows and
`tau_range` with what the step returned. It reads no per-sample call, so it
holds for any implementation of the two steps.

No cell of the random grid hits S_T == lambda or gap == tau exactly, so the
tie cells rerun a cell with lambda (or tau) set to a value its first decision
epoch produced; training before that epoch does not read either.
"""

import math
import random
from dataclasses import replace

import numpy as np
import pytest

from sciu import cgp, fgc
from sciu.errors import DegenerateRunError, NumericError
from sciu.pipeline import PipelineConfig, run_pipeline
from sciu.synth import SynthConfig, generate

PROB_OUTPUT = {"weighted": "weighted_probs", "unweighted": "probs"}


def first_argmax(row: list) -> int:
    """numpy's argmax of a row: its first NaN, else its first maximum."""
    nans = [j for j, v in enumerate(row) if v != v]
    return nans[0] if nans else row.index(max(row))


def nan_fold(f, xs: list) -> float:
    """f(xs), or NaN if any x is NaN, as numpy's max and min propagate it."""
    return math.nan if any(x != x for x in xs) else f(xs)


class Replay:
    """Brute-force state per decision stage, keyed by the id of the stage's
    state (kept alive here, so no id is reused within a run)."""

    def __init__(self):
        self.stages = {}
        self.decisions = 0
        self.ties = 0  # decisions at S_T == lambda or gap == tau
        self.first = {}  # per stage kind: the first decision epoch's S_T, or stable gaps

    def _stage(self, state, active):
        if id(state) not in self.stages:
            ids = active.id_array.tolist()
            self.stages[id(state)] = (state, {"history": {}, "ids": ids,
                                              "labels": dict(zip(ids, active.labels().tolist())),
                                              "tau_range": (-math.inf, math.inf)})
        return self.stages[id(state)][1]

    def prune_epoch(self, real, state, active, eval_out, epoch, config):
        stage, t, lam = self._stage(state, active), config.window_t, config.lam
        ids, labels = active.id_array.tolist(), active.labels().tolist()
        assert ids == stage["ids"], f"epoch {epoch}: the active set is not the last one kept"
        probs = eval_out["probs"].tolist()
        scores = [w * (row[label] if config.score_source == "annotated_class"
                       else nan_fold(max, row))
                  for w, row, label in zip(eval_out["weight"].tolist(), probs, labels)]
        if not all(math.isfinite(s) for s in scores):
            with pytest.raises(NumericError, match=f"^non-finite score at epoch {epoch}: "):
                real(state, active, eval_out, epoch, config)
            raise NumericError("replayed")
        kept, log, s_ts = [], [], []
        for sid, s in zip(ids, scores):
            history = stage["history"].setdefault(sid, [])
            history.append(s)
            del history[:-t]
            if len(history) < t:
                kept.append(sid)
                continue
            s_t = sum(history) / t
            s_ts.append(s_t)
            self.ties += s_t == lam
            if s_t > lam:
                kept.append(sid)
            else:
                log.append({"epoch": epoch, "sample_id": sid, "S_T": s_t, "lambda": lam})
        self.decisions += len(s_ts)
        if s_ts:
            self.first.setdefault("cgp", s_ts)
        start = len(state.prune_log)
        try:
            out, out_probs = real(state, active, eval_out, epoch, config)
        except DegenerateRunError:
            assert not kept, f"epoch {epoch}: all pruned, but the rule keeps {kept[:5]}"
            raise
        finally:
            got = [{**e, "S_T": e["S_T"].hex()} for e in state.prune_log[start:]]
            assert got == [{**e, "S_T": e["S_T"].hex()} for e in log], f"epoch {epoch}: prune log"
        assert out.id_array.tolist() == kept, f"epoch {epoch}: kept ids"
        keep = set(kept)
        rows = [row for sid, row in zip(ids, probs) if sid in keep]
        assert np.array_equal(out_probs, np.array(rows), equal_nan=True), f"epoch {epoch}: probs"
        stage["ids"] = kept
        return out, out_probs

    def correct_epoch(self, real, state, active, eval_out, epoch, config):
        stage, t, tau = self._stage(state, active), config.window_t, config.tau
        ids, labels = active.id_array.tolist(), stage["labels"]
        assert ids == stage["ids"], f"epoch {epoch}: FGC changed the active ids"
        assert active.labels().tolist() == [labels[sid] for sid in ids], f"epoch {epoch}: labels"
        probs = eval_out["probs"].copy()
        events, accepted, rejected = [], [], []
        for sid, row in zip(ids, eval_out[PROB_OUTPUT[config.prob_source]].tolist()):
            pred = first_argmax(row)
            history = stage["history"].setdefault(sid, [])
            history.append((pred, row[pred], row[labels[sid]]))
            del history[:-t]
            if len(history) < t:
                continue
            self.decisions += 1
            stable = len({p for p, _, _ in history}) == 1
            gap = sum(p for _, p, _ in history) / t - sum(g for _, _, g in history) / t
            self.ties += stable and gap == tau
            if stable and gap > tau:
                events.append((sid, labels[sid], pred, epoch))
                accepted.append(gap)
                labels[sid] = pred
                stage["history"][sid] = []
            elif stable:
                rejected.append(gap)
        if rejected or accepted:
            self.first.setdefault("fgc", rejected + accepted)
        lo, hi = stage["tau_range"]
        stage["tau_range"] = (nan_fold(max, [lo, *rejected]), nan_fold(min, [hi, *accepted]))
        start = len(state.corrections)
        out, out_probs = real(state, active, eval_out, epoch, config)
        got = [(e.sample_id, e.old_label, e.new_label, e.epoch) for e in state.corrections[start:]]
        assert got == events, f"epoch {epoch}: correction events"
        assert out.id_array.tolist() == ids, f"epoch {epoch}: ids"
        assert out.labels().tolist() == [labels[sid] for sid in ids], f"epoch {epoch}: labels"
        assert np.array_equal(out_probs, probs, equal_nan=True), f"epoch {epoch}: probs"
        assert np.array_equal(state.tau_range, stage["tau_range"], equal_nan=True), (
            f"epoch {epoch}: tau_range {state.tau_range} != {stage['tau_range']}")
        return out, out_probs


def replayed_run(monkeypatch, data: SynthConfig, config: PipelineConfig, mode: str):
    """(outcome, replay) of one run with every decision replayed; the outcome
    is "completed", "all-pruned" or "numeric"."""
    replay = Replay()
    for module, name in ((cgp, "prune_epoch"), (fgc, "correct_epoch")):
        real, check = getattr(module, name), getattr(replay, name)
        monkeypatch.setattr(module, name,
                            lambda *args, real=real, check=check: check(real, *args))
    try:
        with np.errstate(all="ignore"):
            run_pipeline(config, generate(data), mode)
        return "completed", replay
    except DegenerateRunError:
        return "all-pruned", replay
    except NumericError:
        return "numeric", replay
    finally:
        monkeypatch.undo()


def grid(n=40, seed=26):
    """`n` fixed (data, config, mode) cells drawn over small configs."""
    rng = random.Random(seed)
    cells = []
    for i in range(n):
        t, warmup = rng.choice([1, 2, 3, 5]), rng.choice([0, 2, 5])
        data = SynthConfig(n_classes=rng.choice([2, 3, 7]), dim=rng.choice([4, 16]),
                           per_class=rng.randint(30, 90), seed=i)
        config = PipelineConfig(
            epochs=warmup + t + rng.choice([2, 5, 8]), warmup_epochs=warmup, window_t=t,
            lam=rng.choice([0.1, 0.3, 0.5, 0.7]), tau=rng.choice([0.05, 0.1, 0.2, 0.4]),
            batch_size=rng.choice([1, 16, 64]), learning_rate=rng.choice([0.05, 0.2]),
            score_source=rng.choice(["max_class", "annotated_class"]),
            prob_source=rng.choice(["weighted", "unweighted"]), seed=i)
        cells.append((data, config, rng.choice(["cgp_only", "fgc_only", "sciu"])))
    return cells


def test_grid_replays_every_decision(monkeypatch):
    outcomes, decisions = {"completed": 0, "all-pruned": 0, "numeric": 0}, 0
    for data, config, mode in grid():
        outcome, replay = replayed_run(monkeypatch, data, config, mode)
        outcomes[outcome] += 1
        decisions += replay.decisions
    print(f"replay grid: {sum(outcomes.values())} cells, {outcomes['completed']} completed, "
          f"{outcomes['all-pruned']} all-pruned, {outcomes['numeric']} numeric failures, "
          f"{decisions} decisions replayed")
    assert outcomes["completed"] >= 10 and decisions > 10_000


TIE_DATA = SynthConfig(n_classes=3, dim=4, per_class=60, seed=5)


def test_score_equal_to_lambda_prunes(monkeypatch):
    base = PipelineConfig(epochs=12, warmup_epochs=2, window_t=3, lam=0.3, seed=5)
    _, replay = replayed_run(monkeypatch, TIE_DATA, base, "cgp_only")
    lam = min(replay.first["cgp"])
    assert 0.0 < lam < 1.0
    outcome, replay = replayed_run(
        monkeypatch, TIE_DATA, replace(base, lam=lam), "cgp_only")
    print(f"lambda tie: S_T = lambda = {lam!r}, {replay.ties} tied, outcome {outcome}")
    assert replay.ties >= 1 and outcome == "completed"


def test_gap_equal_to_tau_does_not_correct(monkeypatch):
    base = PipelineConfig(epochs=12, warmup_epochs=2, window_t=3, tau=0.2, seed=5)
    _, replay = replayed_run(monkeypatch, TIE_DATA, base, "fgc_only")
    tau = max(g for g in replay.first["fgc"] if 0.0 < g < 1.0)
    outcome, replay = replayed_run(
        monkeypatch, TIE_DATA, replace(base, tau=tau), "fgc_only")
    print(f"tau tie: gap = tau = {tau!r}, {replay.ties} tied, outcome {outcome}")
    assert replay.ties >= 1 and outcome == "completed"
