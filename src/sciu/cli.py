"""Command-line surface: dataset generation, pipeline runs, hyperparameter
sweeps, and report rendering.

Exit codes: 0 success, 2 usage/validation error, 3 degenerate run (e.g. all
samples pruned), 4 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .dataset import QUALITY_CODES, QUALITY_LOW, load_dataset, save_dataset
from .errors import ConfigurationError, DegenerateRunError, NumericError, SciuError
from .pipeline import (
    MODES, SWEEP_PARAMS, PipelineConfig, run_pipeline, sweep, sweep_to_csv, write_report,
)
from .report import render_report
from .synth import SynthConfig, generate
from .trainer import PROB_SOURCES, SCORE_SOURCES

CLI_MODES = {m.removesuffix("_only"): m for m in MODES}


# (flag, help) of the fields whose flag is not named after them or has a help text.
_FLAG_HELP = {
    "window_t": ("--window", "trailing-window length t"),
    "lam": ("--lambda", "pruning threshold"),
    "tau": ("--tau", "correction score-gap threshold"),
}
_CHOICES = {"score_source": SCORE_SOURCES, "prob_source": PROB_SOURCES}


def _add_config_flags(p: argparse.ArgumentParser, config: type) -> None:
    """One flag per field of the dataclass `config`, typed and defaulted by
    the field."""
    for f in fields(config):
        flag, help_text = _FLAG_HELP.get(f.name, ("--" + f.name.replace("_", "-"), None))
        p.add_argument(flag, dest=f.name, type=type(f.default), default=f.default,
                       choices=_CHOICES.get(f.name), help=help_text)


def _config_from_args(args, config: type = PipelineConfig):
    """Every flag of `_add_config_flags` has its config field as `dest`."""
    return config(**{f.name: getattr(args, f.name) for f in fields(config)})


def _parse_list(flag: str, text: str, kind: type) -> list:
    """The comma-separated items of `text`, each converted by `kind`."""
    items = []
    for item in text.split(","):
        try:
            items.append(kind(item))
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise ConfigurationError(f"{flag}: {item!r} is not {what}") from None
    return items


def _check_output(flag: str, path: str, directory: bool = False) -> None:
    """Reject an output path before any work runs: a file's directory must
    exist, and so must a directory's nearest existing parent."""
    target = Path(path)
    if directory:
        parent = next((p for p in (target, *target.parents) if p.exists()), target)
    else:
        parent = target.parent
    if (target.exists() and target.is_dir() != directory) or not parent.is_dir():
        kind = "directory" if directory else "file"
        raise ConfigurationError(f"{flag} {path}: cannot write a {kind} there")


def _cmd_generate(args) -> int:
    _check_output("--out", args.out)
    dataset = generate(_config_from_args(args, SynthConfig))
    save_dataset(dataset, args.out)
    true_labels, quality = dataset.oracle_columns()
    n_low = int((quality == QUALITY_CODES[QUALITY_LOW]).sum())
    n_mis = int(((true_labels >= 0) & (dataset.labels() != true_labels)).sum())
    print(f"wrote {len(dataset)} samples to {args.out}")
    print(f"classes: {dataset.n_classes}  dim: {dataset.dim}")
    print(f"low_quality: {n_low}  mislabeled: {n_mis}  "
          f"clean: {len(dataset) - n_low - n_mis}")
    return 0


def _cmd_run(args) -> int:
    config = _config_from_args(args)
    if args.out_dir:
        _check_output("--out-dir", args.out_dir, directory=True)
    report = run_pipeline(config, load_dataset(args.dataset), CLI_MODES[args.mode])
    if args.out_dir:
        write_report(report, args.out_dir)
        print(f"report written to {args.out_dir}/report.struct")
    ft = report["final_test"]
    print(f"mode={args.mode} pruned={report['pruned_total']} "
          f"corrected={report['corrected_total']} "
          f"test WAR={ft['war']:.4f} UAR={ft['uar']:.4f}")
    return 0


def _cmd_sweep(args) -> int:
    config = _config_from_args(args)
    values = _parse_list("--values", args.values,
                         type(getattr(PipelineConfig, SWEEP_PARAMS[args.param])))
    seeds = _parse_list("--seeds", args.seeds, int)
    if args.out:
        _check_output("--out", args.out)
    result = sweep(config, args.param, values, load_dataset(args.dataset),
                   mode=CLI_MODES[args.mode], seeds=seeds)
    print("stages: " + ", ".join(
        f"{stage} computed {n['computed']} reused {n['reused']}"
        for stage, n in result["stages"].items()), file=sys.stderr)
    csv = sweep_to_csv(result)
    if args.out:
        with open(args.out, "w") as f:
            f.write(csv)
    print(csv, end="")
    print(f"best {args.param}: {result['best_value']}")
    return 0


def _cmd_report(args) -> int:
    _check_output("--out-dir", args.out_dir, directory=True)
    written = render_report(args.report, args.out_dir)
    for p in written:
        print(f"wrote {p}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sciu",
        description="Dual-stage data purification: prune low-quality samples, "
                    "correct mislabeled ones, then train on the cleaned set.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a synthetic noisy dataset")
    g.add_argument("--out", required=True)
    _add_config_flags(g, SynthConfig)
    g.set_defaults(func=_cmd_generate)

    r = sub.add_parser("run", help="run one pipeline mode on a dataset")
    r.add_argument("--dataset", required=True)
    r.add_argument("--mode", choices=sorted(CLI_MODES), required=True)
    r.add_argument("--out-dir", default=None)
    _add_config_flags(r, PipelineConfig)
    r.set_defaults(func=_cmd_run)

    s = sub.add_parser("sweep", help="sweep lambda, tau, or the window length")
    s.add_argument("--dataset", required=True)
    s.add_argument("--param", choices=SWEEP_PARAMS, required=True)
    s.add_argument("--values", required=True, help="comma-separated values")
    s.add_argument("--seeds", default="0", help="comma-separated seeds")
    s.add_argument("--mode", choices=sorted(CLI_MODES), default="sciu")
    s.add_argument("--out", default=None, help="CSV output path")
    _add_config_flags(s, PipelineConfig)
    s.set_defaults(func=_cmd_sweep)

    rep = sub.add_parser("report", help="render CSVs and a summary from a report")
    rep.add_argument("--report", required=True)
    rep.add_argument("--out-dir", required=True)
    rep.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if [] in vars(args).values():  # Python 3.11's argparse reads `--flag=--` as []
        parser.error("an option's value cannot be '--'")
    try:
        # Every numeric failure raises a NumericError; numpy's warnings stay quiet.
        with np.errstate(all="ignore"):
            return args.func(args)
    except (SciuError, OSError) as e:  # OSError: an output that still cannot be written
        print(f"error: {e}", file=sys.stderr)
        return 3 if isinstance(e, DegenerateRunError) else 4 if isinstance(e, NumericError) else 2


if __name__ == "__main__":
    sys.exit(main())
