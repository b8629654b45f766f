"""Read-only report rendering: per-epoch metric CSVs, weight-histogram CSV,
confusion-matrix CSV, and a plain-text stage summary."""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path

from .errors import ParseError
from .pipeline import load_report
from .trainer import EpochRecord


def epoch_csv(fragment: dict) -> str:
    cols = [f.name for f in fields(EpochRecord)]
    lines = [",".join(cols)]
    for rec in fragment["epoch_records"]:
        lines.append(",".join("" if rec[c] is None else str(rec[c]) for c in cols))
    return "\n".join(lines) + "\n"


def weight_histogram_csv(summary: dict) -> str:
    lines = ["bin_low,bin_high,kept,pruned"]
    edges = summary["bin_edges"]
    for i, (k, p) in enumerate(zip(summary["kept_counts"], summary["pruned_counts"])):
        lines.append(f"{edges[i]},{edges[i + 1]},{k},{p}")
    return "\n".join(lines) + "\n"


def confusion_csv(counts: list[list[int]]) -> str:
    lines = ["true\\pred," + ",".join(str(c) for c in range(len(counts)))]
    lines += [f"{t}," + ",".join(str(v) for v in row) for t, row in enumerate(counts)]
    return "\n".join(lines) + "\n"


def _fixed(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.4f}"


def summary_text(report: dict) -> str:
    ft = report["final_test"]
    lines = [
        f"mode: {report['mode']}",
        f"pruned: {report['pruned_total']}  corrected: {report['corrected_total']}",
        f"final test WAR: {ft['war']:.4f}  UAR: {ft['uar']:.4f}",
        f"final test WAR (weighted probs): {ft['war_weighted']:.4f}  "
        f"UAR (weighted probs): {ft['uar_weighted']:.4f}",
    ]
    pq = report.get("pruning_quality")
    if pq is not None:
        prec, rec = _fixed(pq["precision"]), _fixed(pq["recall"])
        lines.append(f"pruning precision: {prec}  recall: {rec}")
    cq = report.get("correction_quality")
    if cq is not None:
        acc, harm = _fixed(cq["correction_accuracy"]), _fixed(cq["harmful_rate"])
        lines.append(f"correction accuracy: {acc}  harmful rate: {harm}")
    ws = report.get("weight_summary")
    if ws is not None and ws["mean_weight_pruned"] is not None:
        lines.append(
            f"mean weight kept: {ws['mean_weight_kept']:.4f}  "
            f"pruned: {ws['mean_weight_pruned']:.4f}"
        )
    return "\n".join(lines) + "\n"


def render_report(report_path: str | Path, out_dir: str | Path) -> list[Path]:
    """Emit all CSV sidecars and the text summary for one report file.

    Every file is rendered first and written only then, so a report whose
    sections do not have the shape `run_pipeline` writes raises `ParseError`
    and leaves nothing behind.
    """
    report = load_report(report_path)
    try:
        stages = report["stages"]
        if bad := [f["role"] for f in stages if f["role"] not in ("cgp", "fgc", "final")]:
            raise ValueError(f"stage role {bad[0]!r} is not cgp, fgc or final")
        texts = {f"epochs_{i}_{frag['role']}.csv": epoch_csv(frag)
                 for i, frag in enumerate(stages)}
        ws = report.get("weight_summary")
        if ws is not None:
            texts["weight_histogram.csv"] = weight_histogram_csv(ws)
        texts["confusion_matrix.csv"] = confusion_csv(report["final_test"]["confusion_matrix"])
        texts["summary.txt"] = summary_text(report)
    except (KeyError, IndexError, TypeError, ValueError) as e:
        raise ParseError(f"{report_path}: malformed report: {type(e).__name__}: {e}") from e
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (out / name).write_text(text)
    return [out / name for name in texts]
