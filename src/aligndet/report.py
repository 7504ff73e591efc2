"""Plain-text report emission: CSV tables and minimal SVG line plots.

Plots are written as hand-assembled SVG markup so runs stay inspectable
without any plotting dependency; open the files in a browser.
"""

from __future__ import annotations

import csv

from .metrics import AlignmentReport

_WIDTH, _HEIGHT = 640, 400
_MARGIN = 56


def write_single_report_csv(path, report):
    """One report, exactly the schema columns, one data row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(AlignmentReport.COLUMNS)
        writer.writerow(report.csv_row())


def write_report_csv(path, rows):
    """rows: list of (label, AlignmentReport). First column names the model."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("model",) + AlignmentReport.COLUMNS)
        for label, report in rows:
            writer.writerow([label] + report.csv_row())


def write_grid_csv(path, grid_values):
    """Dump a 2-d array as bare CSV, one row per line. Used for score maps."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in grid_values:
            writer.writerow([f"{float(v):.6g}" for v in row])


def _scale(values, lo, hi, out_lo, out_hi):
    if hi == lo:
        return [0.5 * (out_lo + out_hi) for _ in values]
    span = (out_hi - out_lo) / (hi - lo)
    return [out_lo + (v - lo) * span for v in values]


def _polyline(xs, ys, color):
    pts = " ".join(f"{x:.1f},{y:.1f}" for x, y in zip(xs, ys))
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'


def _frame(title, x_label, y_label, body, legend):
    x0, y0 = _MARGIN, _HEIGHT - _MARGIN
    x1, y1 = _WIDTH - _MARGIN // 2, _MARGIN // 2
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="monospace" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
        f'<text x="{_WIDTH // 2}" y="18" text-anchor="middle">{title}</text>',
        f'<text x="{_WIDTH // 2}" y="{_HEIGHT - 12}" text-anchor="middle">{x_label}</text>',
        f'<text x="14" y="{_HEIGHT // 2}" text-anchor="middle" '
        f'transform="rotate(-90 14 {_HEIGHT // 2})">{y_label}</text>',
    ]
    parts.extend(body)
    for k, (name, color) in enumerate(legend):
        ly = y1 + 14 + 16 * k
        parts.append(f'<line x1="{x1 - 120}" y1="{ly - 4}" x2="{x1 - 96}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{x1 - 90}" y="{ly}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def write_line_plot_svg(path, series, title, x_label, y_label):
    """series: list of (name, xs, ys, color). Shared axes over all series."""
    all_x = [x for _, xs, _, _ in series for x in xs]
    all_y = [y for _, _, ys, _ in series for y in ys]
    if not all_x:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    x0, y0 = _MARGIN, _HEIGHT - _MARGIN
    x1, y1 = _WIDTH - _MARGIN // 2, _MARGIN // 2
    body = []
    for name, xs, ys, color in series:
        px = _scale(xs, x_lo, x_hi, x0, x1)
        py = _scale(ys, y_lo, y_hi, y0, y1)
        body.append(_polyline(px, py, color))
    body.append(f'<text x="{x0}" y="{y0 + 16}" text-anchor="middle">{x_lo:.4g}</text>')
    body.append(f'<text x="{x1}" y="{y0 + 16}" text-anchor="middle">{x_hi:.4g}</text>')
    body.append(f'<text x="{x0 - 6}" y="{y0 + 4}" text-anchor="end">{y_lo:.4g}</text>')
    body.append(f'<text x="{x0 - 6}" y="{y1 + 4}" text-anchor="end">{y_hi:.4g}</text>')
    legend = [(name, color) for name, _, _, color in series]
    with open(path, "w") as fh:
        fh.write(_frame(title, x_label, y_label, body, legend))


def write_loss_plot(path, history):
    """history: iterable of dicts with step/cls_pos/cls_neg/reg/total."""
    rows = list(history)
    steps = [r["step"] for r in rows]
    series = [
        ("total", steps, [r["total"] for r in rows], "#000000"),
        ("cls_pos", steps, [r["cls_pos"] for r in rows], "#c0392b"),
        ("cls_neg", steps, [r["cls_neg"] for r in rows], "#2980b9"),
        ("reg", steps, [r["reg"] for r in rows], "#27ae60"),
    ]
    write_line_plot_svg(path, series, "training loss", "step", "loss")


def write_report_plot(path, rows):
    """Bar-style comparison of the scalar report columns across models."""
    labels = [label for label, _ in rows]
    metrics = ("pcc_top50", "mean_iou_top10", "ap50", "ap")
    x0, y0 = _MARGIN, _HEIGHT - _MARGIN
    x1 = _WIDTH - _MARGIN // 2
    colors = ("#c0392b", "#2980b9", "#27ae60", "#8e44ad")
    group_w = (x1 - x0) / max(1, len(metrics))
    bar_w = group_w / (len(rows) + 1)
    body = []
    span = y0 - _MARGIN // 2
    for mi, metric in enumerate(metrics):
        gx = x0 + mi * group_w
        for ri, (label, report) in enumerate(rows):
            value = getattr(report, metric)
            v = 0.0 if value is None else max(0.0, min(1.0, float(value)))
            h = v * span
            bx = gx + (ri + 0.5) * bar_w
            body.append(f'<rect x="{bx:.1f}" y="{y0 - h:.1f}" width="{bar_w:.1f}" '
                        f'height="{h:.1f}" fill="{colors[ri % len(colors)]}"/>')
        body.append(f'<text x="{gx + group_w / 2:.1f}" y="{y0 + 16}" '
                    f'text-anchor="middle">{metric}</text>')
    legend = [(label, colors[ri % len(colors)]) for ri, label in enumerate(labels)]
    with open(path, "w") as fh:
        fh.write(_frame("alignment diagnostics", "", "value in [0, 1]", body, legend))
