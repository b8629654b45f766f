"""sciu benchmark: one researcher running experiments back to back.

    python3 perfbench/run.py --workload sciu-run --seed 0 --seconds 25 --trace 0

A single process and a closed loop with one caller: each operation starts
when the previous one has returned. The workload's two datasets are made
from `--seed` by `sciu.generate`, written by `save_dataset` and read back by
`load_dataset` (the path `sciu run --dataset` takes); the program sees only
those datasets. Operation k runs on dataset k mod 2 with pipeline seed k
(seeds 2k and 2k+1 for a sweep), so no two timed operations of a run are the
same computation.

--trace 0 times the operations and prints the end-to-end metrics, with each
time scaled to the speed of a reference loop timed around it (speed.py).
--trace 1 alternates a traced and an untraced run of each operation, which
must give byte-identical reports, and prints the per-layer metrics.

Every run checks the program's outputs and prints, as its last line, one
JSON object with `correct`, `attempted`, `failed` and `metrics`. The metric
names and units are read from BENCHMARK.json; see README.md here.
"""

from __future__ import annotations

import os

# numpy reads the BLAS thread cap when it loads, so it is set before any
# import of numpy. The model's matrices are at most 64x16, where extra BLAS
# threads add only contention.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from check import (  # noqa: E402
    CheckError, DecisionLog, Oracle, check_report, check_sweep, expect, sample_epochs,
)
from speed import REF_S, Speed  # noqa: E402
from tracer import Patcher, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-ups per run. The untraced run spreads them between operations, so that
# their median samples more than one stretch of the machine's speed.
SETUP_REPS = 6
# Operations per untraced run at the least, whatever --seconds says: a sweep
# lasts most of a run, and one operation samples a single dataset.
MIN_OPS = 2
# Datasets per run, made from --seed; operation k runs on dataset
# k mod DATASETS. How long a `sciu` run takes depends on the dataset (on how
# much CGP prunes), and a median over two datasets varies less from seed to
# seed than one over a single dataset.
DATASETS = 2
TAU_VALUES = [0.1, 0.3]
MODES = {"plain-train": "baseline", "sciu-run": "sciu", "tau-sweep": "sciu"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(MODES), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_sciu():
    """Import sciu from this checkout's `src/`, never from an installed copy."""
    if not (SRC / "sciu" / "__init__.py").is_file():
        sys.exit(f"error: no sciu sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sciu

    if not Path(sciu.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"error: sciu imported from {sciu.__file__}, not {SRC}")
    return sciu


class Bench:
    """One workload on its datasets: set-up, operations and their checks."""

    def __init__(self, sciu, workload: str, seed: int):
        self.sciu = sciu
        self.pipeline = sciu.pipeline
        self.workload = workload
        self.seed = seed
        self.paths = [OUT / f"{workload}-{j}.jsonl" for j in range(DATASETS)]
        self.datasets = [None] * DATASETS
        self.cells: list[tuple[dict, dict]] = []
        self.paused = 0.0
        self.setup_times: list[float] = []
        for j in range(DATASETS):
            self.setup(j)
        self.oracles = [Oracle.read(path) for path in self.paths]
        fraction = self.config(0).train_fraction
        self.n_trains = [len(o.split(0, fraction)[0]) for o in self.oracles]

    def setup(self, j: int) -> float:
        """Make, save and load dataset j; return the wall time."""
        sciu = self.sciu
        t0 = perf_counter()
        ds = sciu.generate(sciu.SynthConfig(seed=DATASETS * self.seed + j))
        sciu.save_dataset(ds, self.paths[j])
        self.datasets[j] = sciu.load_dataset(self.paths[j])
        elapsed = perf_counter() - t0
        self.setup_times.append(elapsed)
        return elapsed

    def oracle(self, k: int) -> Oracle:
        return self.oracles[k % DATASETS]

    def n_train(self, k: int) -> int:
        return self.n_trains[k % DATASETS]

    def config(self, seed: int):
        return self.pipeline.PipelineConfig(seed=seed)

    def capture_cells(self, patcher) -> None:
        """Keep each cell report a sweep makes, at the name `sweep` calls."""
        cells = self.cells

        def make(run_pipeline):
            def capturing(config, *args, **kwargs):
                report = run_pipeline(config, *args, **kwargs)
                cells.append((asdict(config), report))
                return report
            return capturing

        patcher.wrap("pipeline", "run_pipeline", make)

    def sample_speed(self, patcher, speed: Speed) -> None:
        """Sample the reference after each CGP and FGC stage, at the name
        `run_pipeline` calls: a `sciu` run or a sweep lasts seconds, over
        which the machine's speed drifts. The final stage is followed by
        the operation's own reference closely enough."""

        def make(train_stage):
            def sampling(*args, **kwargs):
                result = train_stage(*args, **kwargs)
                stage = args[2] if len(args) > 2 else kwargs["stage"]
                if stage != "plain":
                    self.paused += speed.sample()
                return result
            return sampling

        patcher.wrap("trainer", "train_stage", make)

    def op(self, k: int):
        """Run operation k; return (result, wall seconds), less the time of
        the references sampled inside it."""
        self.cells.clear()
        self.paused = 0.0
        dataset = self.datasets[k % DATASETS]
        t0 = perf_counter()
        if self.workload == "tau-sweep":
            result = self.pipeline.sweep(
                self.config(0), "tau", TAU_VALUES, dataset,
                mode="sciu", seeds=[2 * k, 2 * k + 1])
        else:
            result = self.pipeline.run_pipeline(
                self.config(k), dataset, MODES[self.workload])
        return result, perf_counter() - t0 - self.paused

    def failed(self, result) -> bool:
        return self.workload == "tau-sweep" and any(r["failures"] for r in result["rows"])

    def check(self, k: int, result) -> tuple[list[dict], float]:
        """Check operation k's result; return its run reports and its
        median true-label test accuracy."""
        if self.workload == "tau-sweep":
            seeds = [2 * k, 2 * k + 1]
            want = [asdict(self.config(0)) | {"tau": v, "seed": s}
                    for v in TAU_VALUES for s in seeds]
            expect([c for c, _ in self.cells] == want, "sweep ran other cells")
            reports = [r for _, r in self.cells]
            check_sweep(result, reports, TAU_VALUES, seeds)
            configs = want
        else:
            reports, configs = [result], [asdict(self.config(k))]
        for report, config in zip(reports, configs):
            check_report(report, self.oracle(k), config)
        return reports, statistics.median(r["final_test"]["war_true"] for r in reports)


def measure(bench: Bench, speed: Speed, seconds: float) -> tuple[dict, int, int]:
    """Untraced closed loop; return (end-to-end metrics, attempted, failed).

    A reference run follows every operation and set-up, and each of their
    wall times is scaled to reference speed by the references around it."""
    factor = speed.mark()
    setups = [t * factor for t in bench.setup_times]
    walls, scaled, rates, accs = [], [], [], []
    attempted = failed = 0
    deadline = perf_counter() + seconds
    while attempted < MIN_OPS or perf_counter() < deadline:
        k = attempted
        attempted += 1
        try:
            result, wall = bench.op(k)
        except bench.sciu.errors.SciuError as e:
            print(f"op {k} failed: {e}", file=sys.stderr)
            result = None
        factor = speed.mark()
        if result is None or bench.failed(result):
            failed += 1
            continue
        print(f"op {k}: {wall:.3f} s wall, {wall * factor:.3f} s at reference speed",
              file=sys.stderr)
        reports, acc = bench.check(k, result)
        work = sum(sample_epochs(r, bench.n_train(k)) for r in reports)
        walls.append(wall)
        scaled.append(wall * factor)
        rates.append(work / scaled[-1])
        accs.append(acc)
        if len(setups) < SETUP_REPS:
            setups.append(bench.setup(len(setups) % DATASETS) * speed.mark())
    while len(setups) < SETUP_REPS:
        setups.append(bench.setup(len(setups) % DATASETS) * speed.mark())
    if not walls:
        sys.exit("error: every operation failed")
    print(f"median wall time: op {statistics.median(walls):.3f} s, "
          f"set-up {statistics.median(bench.setup_times):.3f} s, "
          f"reference {statistics.median(speed.times):.3f} s (nominal {REF_S} s)",
          file=sys.stderr)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_s": statistics.median(scaled),
        "sample_epochs_per_s": statistics.median(rates),
        "test_war_true": statistics.median(accs),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, attempted, failed


COUNTERS = (
    "model.forward_batch.rows", "dataset.validate.rows", "cgp.pruned", "fgc.corrected",
    "trainer.train_stage.plain.calls", "trainer.train_stage.cgp.calls",
    "trainer.train_stage.fgc.calls", "pipeline.sweep.cells", "pipeline.report_bytes",
)


def counter_hooks() -> dict:
    """Counts taken where the work happens, keyed by span name."""

    def count(name, fn):
        return lambda tr, args, kwargs, result: tr.bump(name, fn(args, kwargs, result))

    def stage(tr, args, kwargs, result):
        tr.bump(f"trainer.train_stage.{args[2]}.calls")

    return {
        "model.forward_batch": count("model.forward_batch.rows", lambda a, k, r: len(a[1])),
        "dataset.validate": count("dataset.validate.rows", lambda a, k, r: len(a[0])),
        "cgp.apply_pruning": count("cgp.pruned", lambda a, k, r: len(r[1])),
        "fgc.apply_corrections": count("fgc.corrected", lambda a, k, r: len(r[1])),
        "trainer.train_stage": stage,
        "pipeline.sweep": count("pipeline.sweep.cells",
                                lambda a, k, r: len(a[2]) * len(k["seeds"])),
        "pipeline.report_to_json": count("pipeline.report_bytes", lambda a, k, r: len(r)),
    }


def chain(*hooks):
    hooks = [h for h in hooks if h is not None]

    def run(tr, args, kwargs, result):
        for h in hooks:
            h(tr, args, kwargs, result)
    return run


def measure_traced(bench: Bench, seconds: float, trace_path: Path) -> tuple[dict, int, int]:
    """Traced set-up, then rounds of (traced op k, untraced op k) whose
    reports must be byte-identical; return (per-layer metrics, attempted,
    failed)."""
    decisions = DecisionLog(bench.oracle(0))
    hooks = counter_hooks()
    for name, hook in decisions.hooks().items():
        hooks[name] = chain(hooks.get(name), hook)
    tracer = Tracer(hooks)
    tracer.counters = dict.fromkeys(COUNTERS, 0)

    setups = []
    for i in range(SETUP_REPS):
        begin, before = tracer.mark(), dict(tracer.counters)
        with tracer.installed():
            bench.setup(i % DATASETS)
        setups.append(tracer.aggregate(begin, tracer.mark(), before))

    aggs, traced_walls, plain_walls = [], [], []
    attempted = failed = 0
    deadline = perf_counter() + seconds
    while attempted == 0 or perf_counter() < deadline:
        k = attempted
        attempted += 1
        begin, before = tracer.mark(), dict(tracer.counters)
        decisions.oracle = bench.oracle(k)
        try:
            with tracer.installed():
                h0 = tracer.hook_ns
                result, wall = bench.op(k)
                wall -= (tracer.hook_ns - h0) / 1e9
                text = bench.pipeline.report_to_json(result)
            again, plain_wall = bench.op(k)
        except bench.sciu.errors.SciuError as e:
            print(f"op {k} failed: {e}", file=sys.stderr)
            decisions.discard()
            failed += 1
            continue
        if bench.failed(result):
            decisions.discard()
            failed += 1
            continue
        decisions.finish()
        expect(bench.pipeline.report_to_json(again) == text,
               f"op {k}: traced and untraced reports differ")
        bench.check(k, again)
        agg = tracer.aggregate(begin, tracer.mark(), before)
        agg["dataset.validate.rows_per_sample"] = agg["dataset.validate.rows"] / bench.n_train(k)
        aggs.append(agg)
        traced_walls.append(wall)
        plain_walls.append(plain_wall)
    if not aggs:
        sys.exit("error: every operation failed")
    tracer.save(trace_path)

    values = {key: statistics.median(a[key] for a in aggs) for key in aggs[0]}
    for name in ("synth.generate", "dataset.save_dataset", "dataset.load_dataset"):
        values[f"{name}.s"] = statistics.median(a[f"{name}.s"] for a in setups)
    values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    return values, attempted, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sciu = import_sciu()
    OUT.mkdir(exist_ok=True)
    patcher = Patcher()
    try:
        speed = None if args.trace else Speed()
        bench = Bench(sciu, args.workload, args.seed)
        if args.workload == "tau-sweep":
            bench.capture_cells(patcher)
        if speed is not None:
            bench.sample_speed(patcher, speed)
        if args.trace:
            trace_path = OUT / f"spans-{args.workload}.npz"
            values, attempted, failed = measure_traced(bench, args.seconds, trace_path)
            wanted = spec["per_layer"]
        else:
            values, attempted, failed = measure(bench, speed, args.seconds)
            wanted = spec["end_to_end"]
    except CheckError as e:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    finally:
        patcher.restore()
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        sys.exit(f"error: metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{name:<40} {m['value']:>14.6g} {m['unit']}")
    print(f"attempted {attempted}  failed {failed}")
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
