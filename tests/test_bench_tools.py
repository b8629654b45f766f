"""The benchmark's tools against this package: every name the tracer wraps
(`perfbench/tracer.py`'s `WRAPPED`) exists, so a traced run can patch it; and
`tools/bench_pairs.py` records each checkout's directory depth and warns when
the two differ, gives each metric its gain and bound verdicts, and withholds a
gain from a change that fails a larger share of its operations.

Both scripts are loaded from their files; neither is a package.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load(ROOT / "perfbench" / "tracer.py")


@pytest.mark.parametrize("layer, path, name", tracer.WRAPPED, ids=[w[2] for w in tracer.WRAPPED])
def test_tracer_wraps_and_restores(layer, path, name):
    """The tracer's own `Patcher` wraps the entry with the identity and
    restores it, as a traced run does around its spans."""
    patcher = tracer.Patcher()
    try:
        patcher.wrap(layer, path, lambda fn: fn)
    finally:
        patcher.restore()


@pytest.mark.parametrize("change_dir, warned", [("b", False), ("deeper/b", True)])
def test_bench_pairs_records_depths(tmp_path, monkeypatch, capsys, change_dir, warned):
    bench_pairs = load(ROOT / "tools" / "bench_pairs.py")
    parent, change = tmp_path / "a", tmp_path / change_dir
    for checkout in (parent, change):
        checkout.mkdir(parents=True)
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": []}))
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: {"correct": False})
    out = tmp_path / "out.json"
    bench_pairs.main(["--parent", str(parent), "--change", str(change), "--workloads", "w",
                      "--seeds", "1", "--seconds", "1", "--out", str(out)])
    assert ("different directory depths" in capsys.readouterr().err) == warned
    checkouts = json.loads(out.read_text())["checkouts"]
    assert checkouts["change"]["depth"] - checkouts["parent"]["depth"] == warned


# A parent whose median is 100, with q1 99.25 and q3 100.75: an IQR of 1.5.
PARENT = [98, 99, 99, 100, 100, 100, 100, 101, 101, 102]


@pytest.mark.parametrize("better, change, verdict", [
    ("lower", [p - 3 for p in PARENT], "better 10/10  gain holds  worse than bound no"),
    # 9 of 10 pairs better, but the medians differ by 1, less than the IQR.
    ("lower", [p - 1 for p in PARENT[:9]] + [103], "better 9/10  gain no  worse than bound no"),
    # Better by 3 in 8 of 10 pairs only.
    ("lower", [p - 3 for p in PARENT[:8]] + [102, 103],
     "better 8/10  gain no  worse than bound no"),
    # Worse by 6, against a bound of 5 % of the parent's median.
    ("lower", [p + 6 for p in PARENT], "better 0/10  gain no  worse than bound yes"),
    ("higher", [p + 6 for p in PARENT], "better 10/10  gain holds  worse than bound no"),
    # A parent IQR of 45 is wider than 5 % of its median: unresolved.
    ("lower", list(range(66, 166, 10)), "better 0/10  gain no  worse than bound unresolved"),
])
def test_bench_pairs_verdicts(capsys, better, change, verdict):
    parent = list(range(60, 160, 10)) if verdict.endswith("unresolved") else PARENT
    line = summary_lines(capsys, better, parent, change)["m"]
    assert line.endswith("change " + verdict), line


@pytest.mark.parametrize("failed, totals, gain", [
    ((1, 1), "parent 10/30  change 10/30", "holds"),
    ((0, 1), "parent 0/30  change 10/30  the change fails a larger share: no gain", "no"),
], ids=["same-share", "larger-share"])
def test_bench_pairs_withholds_a_gain_that_fails_more(capsys, failed, totals, gain):
    lines = summary_lines(capsys, "lower", PARENT, [p - 3 for p in PARENT], failed)
    assert lines["failed/attempted"].endswith(totals)
    assert f"gain {gain}  " in lines["m"]


def summary_lines(capsys, better, parent, change, failed=(0, 0)):
    """`summarise`'s indented lines by their first word, for metric m over
    one pair per (parent, change) value; each run attempts 3 operations and
    fails `failed` of them (parent's, change's)."""
    bench_pairs = load(ROOT / "tools" / "bench_pairs.py")
    runs = [{"workload": "w", "seed": k, "side": side,
             "result": {"correct": True, "attempted": 3, "failed": f,
                        "metrics": {"test_war_true": {"value": 0.5}, "m": {"value": v}}}}
            for k, pair in enumerate(zip(parent, change))
            for side, v, f in zip(("parent", "change"), pair, failed)]
    bench_pairs.summarise(runs, "w", [{"name": "m", "better": better, "bound": 0.05}])
    return {l.split()[0]: l for l in capsys.readouterr().out.splitlines() if l.startswith("  ")}
