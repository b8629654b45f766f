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
  an unshared run writes it);
- a small 10-class dataset (`TEN_CLASSES`) as the first item prints
  it, then its `report_to_json` text in every mode for pipeline seeds 0
  and 1: 8 reports. numpy sums a row of 8 or more classes pairwise, so a
  change that keeps every 7-class digest can still change these;
- the `--help` text of `sciu` and of each subcommand, from `build_parser()`
  with `COLUMNS=80`: argparse wraps help to the terminal width;
- last, the `report_to_json` text of the λ 0.5, pipeline seed 1 runs on
  dataset seed 1 in `cgp_only` and `sciu` mode: 2 reports. Sample 3993's
  weight rounds to exactly 1.0 at epoch 38 there, and is scored and decided
  like any other weight.

Run it on two commits and diff the output; against a commit that prints
fewer lines, diff its lines with as many first lines of the other. The
digests depend on the numpy build and the CPU's BLAS kernels, which may
differ in the last bit between machines, so compare runs made on one
machine only.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sciu import pipeline  # noqa: E402
from sciu.cli import build_parser  # noqa: E402
from sciu.dataset import load_dataset, save_dataset  # noqa: E402
from sciu.pipeline import (  # noqa: E402
    MODES, PipelineConfig, report_to_json, run_pipeline, sweep, sweep_to_csv,
)
from sciu.synth import SynthConfig, generate  # noqa: E402

DATASET_SEEDS = (0, 1)
PIPELINE_SEEDS = range(5)
TEN_CLASSES = SynthConfig(n_classes=10, dim=5, per_class=60, seed=2)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def round_trip(config: SynthConfig, name: str):
    """Print the digest of `config`'s dataset as saved, then as saved again
    after loading it back; return the loaded dataset."""
    with tempfile.TemporaryDirectory() as tmp:
        path, again = Path(tmp) / "dataset.jsonl", Path(tmp) / "again.jsonl"
        save_dataset(generate(config), path)
        print(f"{sha(path.read_bytes())}  dataset {name}", flush=True)
        dataset = load_dataset(path)
        save_dataset(dataset, again)
        print(f"{sha(again.read_bytes())}  dataset {name} saved after load", flush=True)
    return dataset


def print_reports(dataset, name: str, seeds, modes=MODES, **overrides) -> None:
    given = "".join(f" {k}={v}" for k, v in overrides.items())
    for mode in modes:
        for seed in seeds:
            report = run_pipeline(PipelineConfig(seed=seed, **overrides), dataset, mode)
            print(f"{sha(report_to_json(report).encode())}  report "
                  f"dataset={name} mode={mode} seed={seed}{given}", flush=True)


def print_help_digests() -> None:
    os.environ["COLUMNS"] = "80"
    parser = build_parser()
    print(f"{sha(parser.format_help().encode())}  help sciu")
    for name, sub in parser._subparsers._group_actions[0].choices.items():
        print(f"{sha(sub.format_help().encode())}  help sciu {name}")


def main() -> None:
    datasets = {s: round_trip(SynthConfig(seed=s), f"seed={s}") for s in DATASET_SEEDS}
    for ds_seed, dataset in datasets.items():
        print_reports(dataset, str(ds_seed), PIPELINE_SEEDS)
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
    print_reports(round_trip(TEN_CLASSES, "10-class seed=2"), "10-class", range(2))
    print_help_digests()
    print_reports(datasets[1], "1", [1], ("cgp_only", "sciu"), lam=0.5)


if __name__ == "__main__":
    main()
