"""The benchmark's tools against this package: every name the tracer wraps
(`perfbench/tracer.py`'s `WRAPPED`) exists, so a traced run can patch it; and
`tools/bench_pairs.py` records each checkout's directory depth and warns when
the two differ.

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
