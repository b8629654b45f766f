"""Print sha256 digests of the outputs a behaviour-preserving change must keep.

    python3 tools/golden.py

Runs the sciu in this checkout's `src/` and prints one `<sha256>  <name>`
line per output:

- the two default synthetic datasets (seeds 0 and 1), as `save_dataset`
  writes them, then as `save_dataset` writes them again after
  `load_dataset` reads them back (the round trip must keep every byte);
- the `report_to_json` text of every (dataset seed 0/1, mode, pipeline seed
  0-4) run on those datasets after `load_dataset` reads them back: 40
  reports;
- the `sweep_to_csv` text of a τ sweep (0.1, 0.3) over seeds 0 and 1 in
  sciu mode on dataset seed 0, then the `report_to_json` text of each of
  its 4 cells, caught at `pipeline.run_pipeline` as the sweep calls it (a
  stage the sweep shares between cells must leave every cell's report as
  an unshared run writes it).

Run it on two commits and diff the output. The digests depend on the numpy
build and the CPU's BLAS kernels, which may differ in the last bit between
machines, so compare runs made on one machine only.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sciu import pipeline  # noqa: E402
from sciu.dataset import load_dataset, save_dataset  # noqa: E402
from sciu.pipeline import (  # noqa: E402
    MODES, PipelineConfig, report_to_json, run_pipeline, sweep, sweep_to_csv,
)
from sciu.synth import SynthConfig, generate  # noqa: E402

DATASET_SEEDS = (0, 1)
PIPELINE_SEEDS = range(5)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        datasets = {}
        for ds_seed in DATASET_SEEDS:
            path = Path(tmp) / f"dataset{ds_seed}.jsonl"
            save_dataset(generate(SynthConfig(seed=ds_seed)), path)
            print(f"{sha(path.read_bytes())}  dataset seed={ds_seed}", flush=True)
            datasets[ds_seed] = load_dataset(path)
            again = Path(tmp) / f"again{ds_seed}.jsonl"
            save_dataset(datasets[ds_seed], again)
            print(f"{sha(again.read_bytes())}  dataset seed={ds_seed} saved after load",
                  flush=True)
    for ds_seed, dataset in datasets.items():
        for mode in MODES:
            for seed in PIPELINE_SEEDS:
                report = run_pipeline(PipelineConfig(seed=seed), dataset, mode)
                print(f"{sha(report_to_json(report).encode())}  report "
                      f"dataset={ds_seed} mode={mode} seed={seed}", flush=True)
    cells = []

    def capturing(config, *args, **kwargs):
        report = run_pipeline(config, *args, **kwargs)
        cells.append((config, report_to_json(report)))
        return report

    pipeline.run_pipeline = capturing
    try:
        result = sweep(PipelineConfig(), "tau", [0.1, 0.3], datasets[0], mode="sciu",
                       seeds=[0, 1])
    finally:
        pipeline.run_pipeline = run_pipeline
    print(f"{sha(sweep_to_csv(result).encode())}  sweep tau=0.1,0.3 seeds=0,1 "
          f"mode=sciu dataset=0")
    for config, text in cells:
        print(f"{sha(text.encode())}  sweep cell tau={config.tau} seed={config.seed} "
              f"mode=sciu dataset=0")


if __name__ == "__main__":
    main()
