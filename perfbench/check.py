"""Correctness checks for the sciu benchmark.

Nothing here calls `sciu.metrics` or any other sciu code: every expected
value is recomputed from the dataset file the benchmark wrote, from the
documented split and decision rules, or from properties of the method.

- `check_report` and `check_sweep` run on every operation.
- `DecisionLog` is fed by tracer hooks in the traced run. From the
  (weight, prob) pairs and probability rows that `record_score` and
  `record_prediction` receive, it recomputes every CGP prune and every FGC
  correction by brute force, and compares them with what the program did.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass

import numpy as np

SPLIT_SALT = 0x5B117  # stratified_split seeds its RNG with (seed, SPLIT_SALT)


class CheckError(Exception):
    """An output of the program is wrong."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


@dataclass
class Oracle:
    """Annotated labels and ground truth, read back from the dataset file."""

    n_classes: int
    ids: list[int]
    label: dict[int, int]
    true_label: dict[int, int]
    low_quality: set[int]

    @classmethod
    def read(cls, path) -> "Oracle":
        with open(path) as f:
            header = json.loads(f.readline())
            records = [json.loads(line) for line in f if line.strip()]
        ids = [r["id"] for r in records]
        return cls(
            n_classes=header["n_classes"],
            ids=ids,
            label={r["id"]: r["label"] for r in records},
            true_label={r["id"]: r["true_label"] for r in records},
            low_quality={r["id"] for r in records if r["quality_flag"] == "low_quality"},
        )

    def split(self, seed: int, train_fraction: float) -> tuple[set[int], set[int]]:
        """Train and test ids of the per-class split `run_pipeline` makes:
        classes in ascending order, one permutation of each class's samples
        (in file order) from one RNG seeded with (seed, SPLIT_SALT)."""
        by_class: dict[int, list[int]] = {}
        for i in self.ids:
            by_class.setdefault(self.label[i], []).append(i)
        rng = np.random.default_rng(np.random.SeedSequence([seed, SPLIT_SALT]))
        train: set[int] = set()
        for c in sorted(by_class):
            group = by_class[c]
            order = rng.permutation(len(group))
            n_train = min(max(int(round(train_fraction * len(group))), 1), len(group) - 1)
            train.update(group[k] for k in order[:n_train])
        return train, set(self.ids) - train


def _stage_inputs(report: dict, n_train: int) -> list[tuple[str, int]]:
    """(role, input size) per stage: the first stage trains on the whole
    training split, each later one on the previous stage's final set."""
    sizes, size = [], n_train
    for st in report["stages"]:
        sizes.append((st["role"], size))
        size = st["epoch_records"][-1]["active_sample_count"]
    return sizes


def sample_epochs(report: dict, n_train: int) -> int:
    """SGD sample-epochs of one run: epoch e trains on the set left after
    epoch e-1's decisions."""
    total = 0
    for (_, size), st in zip(_stage_inputs(report, n_train), report["stages"]):
        counts = [r["active_sample_count"] for r in st["epoch_records"]]
        total += size + sum(counts[:-1])
    return total


ROLES = {
    "baseline": ["final"],
    "cgp_only": ["cgp", "final"],
    "fgc_only": ["fgc", "final"],
    "sciu": ["cgp", "fgc", "final"],
}


def check_report(report: dict, oracle: Oracle, config: dict) -> None:
    """Properties every RunReport must have, for its own mode and config."""
    expect(report["config"] == config, f"report config {report['config']} != {config}")
    train, test = oracle.split(config["seed"], config["train_fraction"])
    mode = report["mode"]
    stages = {st["role"]: st for st in report["stages"]}
    expect([st["role"] for st in report["stages"]] == ROLES[mode],
           f"{mode}: stage roles {list(stages)}")
    for st in report["stages"]:
        expect(len(st["epoch_records"]) == config["epochs"],
               f"{st['role']}: {len(st['epoch_records'])} epoch records")

    ft = report["final_test"]
    cm = ft["confusion_matrix"]
    total = sum(map(sum, cm))
    expect(total == len(test), f"confusion total {total} != test size {len(test)}")
    trace = sum(cm[k][k] for k in range(len(cm)))
    expect(ft["war"] == trace / total, f"war {ft['war']} != trace/total {trace}/{total}")

    pruned_log = stages["cgp"]["prune_log"] if "cgp" in stages else []
    pruned = [e["sample_id"] for e in pruned_log]
    expect(len(set(pruned)) == len(pruned), "a sample was pruned twice")
    expect(len(pruned) == report["pruned_total"], "prune log length != pruned_total")
    expect(set(pruned) <= train, "a pruned sample is not in the training split")
    for e in pruned_log:
        expect(e["lambda"] == config["lam"] and not e["S_T"] > e["lambda"],
               f"sample {e['sample_id']} pruned with S_T {e['S_T']} > lambda")
    pruned_set = set(pruned)
    kept = len(train) - len(pruned)
    for (role, size), st in zip(_stage_inputs(report, len(train)), report["stages"]):
        counts = [r["active_sample_count"] for r in st["epoch_records"]]
        if role == "cgp":
            expect(counts[-1] == kept, f"cgp keeps {counts[-1]}, expected {kept}")
            expect(all(a >= b for a, b in zip([size] + counts, counts)),
                   "cgp active count grew")
        else:
            # FGC relabels in place and the final stage only trains:
            # both keep every id they are given.
            expect(size == kept and set(counts) == {kept},
                   f"{role}: active counts {set(counts)} != {kept}")

    events = stages["fgc"]["correction_events"] if "fgc" in stages else []
    expect(len(events) == report["corrected_total"], "events != corrected_total")
    for e in events:
        expect(e["sample_id"] in train and e["sample_id"] not in pruned_set,
               f"corrected sample {e['sample_id']} is not an active training sample")
        expect(e["old_label"] != e["new_label"]
               and 0 <= e["new_label"] < oracle.n_classes,
               f"bad correction {e}")

    if pruned:
        low = oracle.low_quality & train
        hit = len(pruned_set & low)
        want = {"precision": hit / len(pruned),
                "recall": hit / len(low) if low else None}
        expect(report["pruning_quality"] == want,
               f"pruning quality {report['pruning_quality']} != {want}")
    else:
        expect(report["pruning_quality"] is None, "pruning quality without pruning")
    if events:
        truth = oracle.true_label
        good = sum(e["new_label"] == truth[e["sample_id"]] for e in events)
        harmful = sum(e["old_label"] == truth[e["sample_id"]] != e["new_label"]
                      for e in events)
        want = {"correction_accuracy": good / len(events),
                "harmful_rate": harmful / len(events)}
        expect(report["correction_quality"] == want,
               f"correction quality {report['correction_quality']} != {want}")
    else:
        expect(report["correction_quality"] is None, "correction quality without events")


def check_sweep(result: dict, cells: list[dict], values: list, seeds: list) -> None:
    """A sweep row per value, one WAR per seed, medians and best_value that
    agree with the reports of the cells (captured in value-major order)."""
    expect([r["value"] for r in result["rows"]] == list(values), "sweep row values")
    expect(len(cells) == len(values) * len(seeds),
           f"{len(cells)} cells for a {len(values)}x{len(seeds)} sweep")
    for k, row in enumerate(result["rows"]):
        reps = cells[k * len(seeds):(k + 1) * len(seeds)]
        expect(row["failures"] == [], f"row {row['value']} failures {row['failures']}")
        expect(row["per_seed_war"] == [r["final_test"]["war"] for r in reps],
               f"row {row['value']}: per-seed WAR differs from the cell reports")
        wt = [r["final_test"]["war_true"] for r in reps]
        expect(row["median_war_true"] == statistics.median(wt),
               f"row {row['value']}: median_war_true")
    best = max(r["median_war_true"] for r in result["rows"])
    first = next(r["value"] for r in result["rows"] if r["median_war_true"] == best)
    expect(result["best_value"] == first,
           f"best_value {result['best_value']} is not the argmax {first}")


# ---------------------------------------------------------------------------
# Brute-force replay of the decision rules (traced run only).


def stable_argmax(row) -> int:
    """First index of the largest entry."""
    best = max(row)
    return row.index(best)


def replay_cgp(stream, lam: float, window: int, warmup: int) -> list[dict]:
    """Prune log implied by a CGP stage's score and pruning calls.

    `stream` holds ("score", id, weight, prob, epoch) and
    ("apply", epoch, ids_in, ids_out, newly) in call order. A sample is kept
    iff the mean of its last `window` scores is > lam, strictly; pruning is
    permanent. Every call's returned active set is checked on the way.
    """
    scores: dict[int, list[float]] = {}
    pruned: set[int] = set()
    log = []
    for ev in stream:
        if ev[0] == "score":
            _, sid, w, p, _ = ev
            expect(sid not in pruned, f"score recorded for pruned sample {sid}")
            scores.setdefault(sid, []).append(w * p)
            continue
        _, epoch, ids_in, ids_out, newly = ev
        new = []
        if epoch >= warmup:
            for sid in ids_in:
                hist = scores.get(sid, [])
                if sid in pruned or len(hist) < window:
                    continue
                s_t = sum(hist[-window:]) / window
                if not s_t > lam:
                    new.append(sid)
                    log.append({"epoch": epoch, "sample_id": sid,
                                "S_T": s_t, "lambda": lam})
        pruned.update(new)
        expect(set(newly) == set(new), f"epoch {epoch}: newly pruned set differs")
        expect(list(ids_out) == [i for i in ids_in if i not in pruned],
               f"epoch {epoch}: active set after pruning differs")
    return log


def replay_fgc(stream, tau: float, window: int) -> list[tuple]:
    """Correction events implied by an FGC stage's prediction and correction
    calls, as (sample_id, old_label, new_label, epoch).

    `stream` holds ("predict", id, probs, label, epoch) and
    ("apply", epoch, items_in, items_out, events). A label is corrected iff
    the stable argmax is the same over the last `window` epochs AND the
    mean predicted-class probability exceeds the mean annotated-class
    probability by more than tau; the history is cleared after a correction.
    """
    hist: dict[int, list[tuple]] = {}
    label: dict[int, int] = {}
    out = []
    for ev in stream:
        if ev[0] == "predict":
            _, sid, probs, gt, _ = ev
            expect(label.get(sid, gt) == gt,
                   f"sample {sid} scored against label {gt}, not {label.get(sid)}")
            row = [float(x) for x in probs]
            y = stable_argmax(row)
            hist.setdefault(sid, []).append((y, row[y], row[gt]))
            continue
        _, epoch, items_in, items_out, events = ev
        new = []
        for sid, lab in items_in:
            h = hist.get(sid, [])
            if len(h) < window:
                continue
            tail = h[-window:]
            if len({e[0] for e in tail}) != 1:
                continue
            gap = sum(e[1] for e in tail) / window - sum(e[2] for e in tail) / window
            if gap > tau:
                new.append((sid, lab, tail[0][0], epoch))
                hist[sid] = []
        expect(list(events) == new, f"epoch {epoch}: correction events differ")
        relabel = {sid: y for sid, _, y, _ in new}
        want = [(sid, relabel.get(sid, lab)) for sid, lab in items_in]
        expect(list(items_out) == want, f"epoch {epoch}: labels after correction differ")
        label.update(want)
        out.extend(new)
    return out


def _event_tuple(e) -> tuple:
    return (e.sample_id, e.old_label, e.new_label, e.epoch)


def _items(dataset) -> list[tuple[int, int]]:
    return list(zip(dataset.ids, (int(x) for x in dataset.labels())))


class DecisionLog:
    """Tracer hooks that capture CGP/FGC calls per stage and check each
    stage by brute force when `train_stage` returns."""

    def __init__(self, oracle: Oracle):
        self.oracle = oracle
        self._streams: dict[int, tuple[object, list]] = {}

    def hooks(self) -> dict:
        return {
            "cgp.record_score": self._score,
            "cgp.apply_pruning": self._prune,
            "fgc.record_prediction": self._predict,
            "fgc.apply_corrections": self._correct,
            "trainer.train_stage": self._stage,
        }

    def _stream(self, state) -> list:
        return self._streams.setdefault(id(state), (state, []))[1]

    def _score(self, tr, args, kwargs, result):
        state, sid, w, p, epoch = args
        self._stream(state).append(("score", sid, w, p, epoch))

    def _prune(self, tr, args, kwargs, result):
        state, dataset, epoch = args
        d3, newly = result
        self._stream(state).append(("apply", epoch, list(dataset.ids), list(d3.ids), newly))

    def _predict(self, tr, args, kwargs, result):
        state, sid, probs, gt, epoch = args
        self._stream(state).append(("predict", sid, probs, int(gt), epoch))

    def _correct(self, tr, args, kwargs, result):
        state, dataset, epoch = args
        d4, events = result
        self._stream(state).append(
            ("apply", epoch, _items(dataset), _items(d4), [_event_tuple(e) for e in events]))

    def _take(self, owned) -> list:
        """The stream of the state whose log list is `owned` (the stage
        result shares that list object with its state)."""
        for key, (state, stream) in list(self._streams.items()):
            if getattr(state, "prune_log", None) is owned or \
                    getattr(state, "corrections", None) is owned:
                del self._streams[key]
                return stream
        return []

    def _stage(self, tr, args, kwargs, result):
        dataset, config, stage = args[:3]
        ids_in = set(dataset.ids)
        train, _ = self.oracle.split(config.seed, config.train_fraction)
        # CGP always runs first, on the whole training split.
        expect(ids_in == train if stage == "cgp" else ids_in <= train,
               f"{stage} stage input is not the training split")
        cgp_stream = self._take(result.prune_log)
        fgc_stream = self._take(result.correction_events)
        if stage == "cgp":
            expect(cgp_stream, "cgp stage ran but no record_score call was seen")
            log = replay_cgp(cgp_stream, config.lam, config.window_t, config.warmup_epochs)
            expect(result.prune_log == log, "prune log differs from the brute-force replay")
            kept = set(result.output_dataset.ids)
            expect(not kept & result.pruned_ids, "a sample is both kept and pruned")
            expect(kept | result.pruned_ids == ids_in, "kept | pruned != stage input")
            expect({e["sample_id"] for e in log} == result.pruned_ids, "pruned ids != log")
        elif stage == "fgc":
            expect(fgc_stream, "fgc stage ran but no record_prediction call was seen")
            events = replay_fgc(fgc_stream, config.tau, config.window_t)
            expect([_event_tuple(e) for e in result.correction_events] == events,
                   "correction events differ from the brute-force replay")
            expect(list(result.output_dataset.ids) == list(dataset.ids), "fgc changed its ids")
        else:
            expect(not cgp_stream and not fgc_stream, "plain stage made decisions")

    def finish(self) -> None:
        """Call after each operation: every decision call belonged to a stage."""
        expect(not self._streams, "decision calls outside any stage")

    def discard(self) -> None:
        """Drop what an operation that raised left behind."""
        self._streams.clear()
