"""Deterministic report emitters: markdown tables, CSV, term weights, SVG.

Every emitter is a pure function of its inputs and produces byte-identical
output on re-runs.  Text outputs are UTF-8 with \\n newlines.
"""

from __future__ import annotations

import json

import numpy as np

from .classifier import ValidationReport
from .errors import CveMinerError
from .topics import NgramProfile


def _escape(text: str) -> str:
    """XML text escaping of ``&``, ``<`` and ``>``: ``xml.sax.saxutils.escape``
    without the modules it imports (urllib, http.client, ssl, email)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def topic_table(profiles: list[NgramProfile], labels: dict[int, str]) -> str:
    """Markdown table: one row per cluster with keywords and topic label."""
    by_profile = {p.cluster: p for p in profiles}
    if set(by_profile) != set(labels):
        raise CveMinerError(
            f"profiles cover {sorted(by_profile)}, labels cover {sorted(labels)}")
    lines = ["| Topic | Top keywords | Summary |", "| --- | --- | --- |"]
    for cluster in sorted(by_profile):
        keywords = ", ".join(by_profile[cluster].keywords)
        lines.append(f"| T{cluster} | {keywords} | {labels[cluster]} |")
    return "\n".join(lines) + "\n"


def representatives_table(reps: dict[int, list[str]]) -> str:
    """Markdown table with one column per cluster, rows by centroid rank."""
    clusters = sorted(reps)
    header = "| Rank | " + " | ".join(f"Topic {c}" for c in clusters) + " |"
    rule = "| --- |" + " --- |" * len(clusters)
    depth = max((len(reps[c]) for c in clusters), default=0)
    lines = [header, rule] if clusters else ["| Rank |", "| --- |"]
    for rank in range(depth):
        cells = [reps[c][rank] if rank < len(reps[c]) else "" for c in clusters]
        lines.append(f"| {rank + 1} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def term_weights(profile: NgramProfile) -> str:
    """JSON list of {term, weight} with weights scaled to the top count."""
    if not profile.entries:
        raise CveMinerError(f"cluster {profile.cluster} has no terms")
    top = profile.entries[0].count
    doc = [{"term": e.ngram, "weight": e.count / top} for e in profile.entries]
    return json.dumps(doc, indent=2) + "\n"


def growth_csv(counts: dict[int, int]) -> str:
    """Yearly record counts, ascending by year."""
    lines = ["year,count"]
    for year in sorted(counts):
        lines.append(f"{year},{counts[year]}")
    return "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def scatter_svg(ids: list[str], coords: np.ndarray, clusters: dict[str, int],
                legend: dict[int, str] | None = None) -> bytes:
    """Cluster-colored scatter of 2-D points (row i of `coords` is `ids[i]`)
    as standalone SVG.

    The viewBox is fitted to the data with a 5% margin; each point is one
    circle filled by its cluster's palette color; the legend maps cluster
    index to its topic label.
    """
    if not len(coords):
        raise ValueError("empty projection")
    xs, ys = coords[:, 0], coords[:, 1]
    span_x = float(xs.max() - xs.min()) or 1.0
    span_y = float(ys.max() - ys.min()) or 1.0
    pad_x, pad_y = 0.05 * span_x, 0.05 * span_y
    min_x, min_y = float(xs.min()) - pad_x, float(ys.min()) - pad_y
    width, height = span_x + 2 * pad_x, span_y + 2 * pad_y
    cluster_ids = sorted(set(clusters.values()))
    radius = 0.008 * max(width, height)
    font = 0.03 * max(width, height)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_fmt(min_x)} {_fmt(min_y)} '
        f'{_fmt(width)} {_fmt(height)}">',
    ]
    for cve_id, (x, y) in zip(ids, coords):
        color = PALETTE[clusters[cve_id] % len(PALETTE)]
        # svg y grows downward; mirror within the viewBox so the plot reads like a chart
        cy = 2 * min_y + height - float(y)
        parts.append(f'<circle cx="{_fmt(float(x))}" cy="{_fmt(cy)}" r="{_fmt(radius)}" '
                     f'fill="{color}"><title>{_escape(cve_id)}</title></circle>')
    for row, cluster in enumerate(cluster_ids):
        color = PALETTE[cluster % len(PALETTE)]
        label = legend.get(cluster, f"cluster {cluster}") if legend else f"cluster {cluster}"
        y_pos = min_y + font * (row + 1.2)
        parts.append(f'<rect x="{_fmt(min_x + font * 0.2)}" y="{_fmt(y_pos - font * 0.7)}" '
                     f'width="{_fmt(font * 0.8)}" height="{_fmt(font * 0.8)}" fill="{color}"/>')
        parts.append(f'<text x="{_fmt(min_x + font * 1.2)}" y="{_fmt(y_pos)}" '
                     f'font-size="{_fmt(font)}">{_escape(f"T{cluster}: {label}")}</text>')
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


def wordcloud_grid_svg(profile: NgramProfile) -> bytes:
    """Plain deterministic grid rendering of term weights (no layout art)."""
    if not profile.entries:
        raise CveMinerError(f"cluster {profile.cluster} has no terms")
    top = profile.entries[0].count
    width, row_height = 640, 34
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} '
        f'{row_height * len(profile.entries) + 10}">',
    ]
    for row, entry in enumerate(profile.entries):
        size = 10 + 18 * (entry.count / top)
        color = PALETTE[row % len(PALETTE)]
        parts.append(f'<text x="10" y="{row_height * (row + 1)}" font-size="{_fmt(size)}" '
                     f'fill="{color}">{_escape(entry.ngram)}</text>')
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


def validation_summary(report: ValidationReport | None,
                       per_model: list[tuple[str, ValidationReport]]) -> tuple[str, str]:
    """Markdown and CSV views of per-model accuracy, best model first."""
    rows = sorted(per_model, key=lambda t: (-t[1].accuracy, t[0]))
    md_lines = ["| Model | Accuracy | TP | TN | FP | FN | N |", "| --- | --- | --- | --- | --- | --- | --- |"]
    csv_lines = ["model,accuracy,tp,tn,fp,fn,n"]
    for model_id, rep in rows:
        md_lines.append(f"| {model_id} | {rep.accuracy} | {rep.tp} | {rep.tn} | "
                        f"{rep.fp} | {rep.fn} | {rep.n} |")
        csv_lines.append(f"{model_id},{rep.accuracy},{rep.tp},{rep.tn},{rep.fp},{rep.fn},{rep.n}")
    if report is not None:
        md_lines.append("")
        md_lines.append(f"Overall: accuracy {report.accuracy} on {report.n} labeled records "
                        f"(tp={report.tp} tn={report.tn} fp={report.fp} fn={report.fn}).")
    return "\n".join(md_lines) + "\n", "\n".join(csv_lines) + "\n"


def review_export(failures: list[tuple[str, str]],
                  blocked_labels: list[tuple[int, str, str | None]]) -> str:
    """Single human-review queue combining all items that need eyes.

    Entries carry id, pipeline stage, reason, and the raw text involved.  A
    held topic label's term is None when the label is empty.
    """
    queue = []
    for cve_id, reason in failures:
        queue.append({"id": cve_id, "stage": "classify", "reason": reason, "raw": reason})
    for cluster, label, term in blocked_labels:
        queue.append({"id": f"cluster-{cluster}", "stage": "summarize",
                      "reason": "empty label" if term is None else "blocked term", "raw": label})
    return json.dumps(queue, indent=2, ensure_ascii=False) + "\n"
