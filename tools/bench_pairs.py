"""Run perfbench in alternating parent/change pairs and summarise the pairs.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workloads sciu-run --seeds 701-710 --seconds 25 --out BENCH_7.json

`--parent` and `--change` are two checkouts of this repository. For each
workload and seed the script runs `perfbench/run.py --trace 0` once in each
checkout, one right after the other, the parent first on even pairs and
the change first on odd ones, so that a drift in machine speed falls on
both sides alike. It prints each side's median number of attempted
operations and its failed/attempted operations summed over the pairs; in
how many of the pairs whose sides attempted the same operations both sides
read the same `test_war_true`; and, per end-to-end metric, each side's
median [q1, q3] over the pairs, in how many pairs the change was better,
whether that is a gain and whether the change is worse than the metric's
`BENCHMARK.json` bound (see `verdicts`). It prints each side's failed runs
(a crash, a timeout or a wrong output), which drop their pairs. No gain holds
when the change fails more runs than the parent, or a larger share of its
operations. It writes every run's last-line JSON with its seed and side, plus
nproc, the numpy version and each checkout's commit (and whether its tree had
uncommitted changes) and directory depth, to `--out`. It warns on stderr when
the two checkouts sit at different depths: the path a run starts from has
moved `sciu-run`'s `op_s` by 2.7 %, so compare checkouts made side by side.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """'701-705' or '701,703,709'."""
    if "-" in text:
        first, last = (int(x) for x in text.split("-"))
        return list(range(first, last + 1))
    return [int(x) for x in text.split(",")]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one untraced perfbench run, as JSON; a run
    that fails gets `correct: false` and its exit code."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=checkout,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "returncode": proc.returncode, "stderr": proc.stderr[-2000:]}


def checkout_state(checkout: Path) -> dict:
    """The commit a checkout is at, and whether its tree differs from it
    (both None when it is not a git checkout); and its directory depth."""
    def git(*args):
        proc = subprocess.run(["git", *args], capture_output=True, text=True, cwd=checkout)
        return proc.stdout.strip() if proc.returncode == 0 else None
    commit, status = git("rev-parse", "HEAD"), git("status", "--porcelain")
    return {"commit": commit, "dirty": None if status is None else bool(status),
            "depth": len(checkout.parts)}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3


def verdicts(parent: list[float], change: list[float], better: str,
             bound: float) -> tuple[int, bool, str]:
    """(wins, gain, worse) over the pairs (parent[i], change[i]) of one
    metric: in how many pairs the change is better, and two verdicts.

    A gain holds when the change is better in at least 9 of 10 pairs and its
    median beats the parent's by more than the parent's q3 - q1. `worse` is
    "yes" when the change's median is worse than the parent's by more than
    `bound` times the parent's median, else "no"; it is "unresolved" when the
    parent's q3 - q1 alone is wider than that, so the runs cannot tell.
    """
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    (p_med, q1, q3), c_med = quartiles(parent), quartiles(change)[0]
    gain = wins >= 0.9 * len(parent) and sign * (c_med - p_med) > q3 - q1
    limit = bound * abs(p_med)
    if q3 - q1 > limit:
        return wins, gain, "unresolved"
    return wins, gain, "yes" if sign * (p_med - c_med) > limit else "no"


def summarise(runs: list[dict], workload: str, metrics: list[dict]) -> None:
    """Print each side's failed runs, its median attempted operations, its
    failed/attempted operations summed over the pairs and, per metric, its
    median [q1, q3] and the change's wins and `verdicts`; a change that fails
    more runs than the parent, or a larger share of its operations, has no
    gain. `test_war_true` is a median over the operations a run attempted,
    each on its own pipeline seed, so pairs whose sides attempted different
    numbers of operations are counted, and of the others, those whose sides
    agree on it: all of them, for a change that keeps every report
    byte-identical."""
    by_seed, failed_runs = {}, dict.fromkeys(SIDES, 0)
    for r in runs:
        if r["workload"] != workload:
            continue
        if r["result"].get("correct"):
            by_seed.setdefault(r["seed"], {})[r["side"]] = r["result"]
        else:
            failed_runs[r["side"]] += 1
    pairs = [p for p in by_seed.values() if len(p) == 2]
    print(f"\n{workload}: {len(pairs)} complete pairs")
    more_runs_fail = failed_runs["change"] > failed_runs["parent"]
    print("  failed runs            " + "  ".join(f"{s} {n}" for s, n in failed_runs.items())
          + ("  the change fails more runs: no gain" if more_runs_fail else ""))
    same_ops = [p for p in pairs if p["parent"]["attempted"] == p["change"]["attempted"]]
    differ = len(pairs) - len(same_ops)
    total = {s: [sum(p[s][k] for p in pairs) for k in ("failed", "attempted")] for s in SIDES}
    (p_failed, p_ops), (c_failed, c_ops) = total["parent"], total["change"]
    larger_share = c_failed * p_ops > p_failed * c_ops
    if pairs:
        print("  attempted (median)     " + "  ".join(
            f"{s} {statistics.median(p[s]['attempted'] for p in pairs):g}" for s in SIDES))
        print("  failed/attempted       "
              + "  ".join(f"{s} {f}/{a}" for s, (f, a) in total.items())
              + ("  the change fails a larger share: no gain" if larger_share else ""))
        same_war = sum(len({p[s]["metrics"]["test_war_true"]["value"] for s in SIDES}) == 1
                       for p in same_ops)
        print(f"  test_war_true equal in {same_war}/{len(same_ops)} pairs that attempted "
              "the same operations")
    for m in metrics if pairs else []:
        name = m["name"]
        side = {s: [p[s]["metrics"][name]["value"] for p in pairs] for s in SIDES}
        cells = "  ".join("{} {:.4g} [{:.4g}, {:.4g}]".format(s, *quartiles(side[s]))
                          for s in SIDES)
        wins, gain, worse = verdicts(side["parent"], side["change"], m["better"], m["bound"])
        gain = gain and not (larger_share or more_runs_fail)
        flag = (f"  different operation sets in {differ}/{len(pairs)} pairs"
                if name == "test_war_true" and differ else "")
        print(f"  {name:<22} {cells}  change better {wins}/{len(pairs)}  "
              f"gain {'holds' if gain else 'no'}  worse than bound {worse}{flag}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--workloads", required=True, help="comma-separated perfbench workloads")
    p.add_argument("--seeds", type=parse_seeds, required=True, help="'701-710' or '1,5,9'")
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    states = {side: checkout_state(checkouts[side]) for side in SIDES}
    if states["parent"]["depth"] != states["change"]["depth"]:
        print("warning: --parent and --change sit at different directory depths "
              f"({states['parent']['depth']} and {states['change']['depth']}); "
              "the timings may differ by the path alone", file=sys.stderr)
    runs = []
    for workload in args.workloads.split(","):
        for k, seed in enumerate(args.seeds):
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                result = run_once(checkouts[side], workload, seed, args.seconds)
                runs.append({"workload": workload, "seed": seed, "side": side,
                             "result": result})
                op = result.get("metrics", {}).get("op_s", {}).get("value")
                print(f"{workload} seed {seed} {side}: op_s {op}", file=sys.stderr, flush=True)
        summarise(runs, workload, spec["end_to_end"])
    record = {
        "nproc": os.cpu_count(),
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
        "seconds": args.seconds,
        "checkouts": states,
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
