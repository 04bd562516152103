"""Minimal hand-rolled log-log SVG line plots: axes with decade ticks, up to
a few labelled series.  Every curve the experiments plot is a power law in
the iteration count, so both axes are always logarithmic and points with a
non-positive or non-finite coordinate are dropped.  Deliberately
dependency-free so emitted artifacts are plain deterministic text."""

from __future__ import annotations

import math
from dataclasses import dataclass

WIDTH, HEIGHT = 720, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 50
COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e")


@dataclass(frozen=True)
class Series:
    label: str
    xs: tuple[float, ...]
    ys: tuple[float, ...]


def _finite_pairs(s: Series):
    return [(x, y) for x, y in zip(s.xs, s.ys) if math.isfinite(x) and math.isfinite(y) and x > 0 and y > 0]


def _ticks_log(lo: float, hi: float):
    lo_e = math.floor(math.log10(lo))
    hi_e = math.ceil(math.log10(hi))
    step = max(1, (hi_e - lo_e) // 8)
    return [10.0**e for e in range(lo_e, hi_e + 1, step)]


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.1e}"
    return f"{v:g}"


def line_plot(series: list[Series], title: str = "", xlabel: str = "", ylabel: str = "") -> str:
    """Render labelled line series on log-log axes to an SVG document string."""
    cleaned = [(s.label, _finite_pairs(s)) for s in series]
    cleaned = [(lbl, pts) for lbl, pts in cleaned if pts]
    if not cleaned:
        cleaned = [("(no finite data)", [(1.0, 1.0)])]
    all_x = [p[0] for _, pts in cleaned for p in pts]
    all_y = [p[1] for _, pts in cleaned for p in pts]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi == x_lo:
        x_hi = x_lo + (abs(x_lo) or 1.0)
    if y_hi == y_lo:
        y_hi = y_lo + (abs(y_lo) or 1.0)

    def tx(v: float) -> float:
        a, b = math.log10(x_lo), math.log10(x_hi)
        return MARGIN_L + (math.log10(v) - a) / (b - a) * (WIDTH - MARGIN_L - MARGIN_R)

    def ty(v: float) -> float:
        a, b = math.log10(y_lo), math.log10(y_hi)
        return HEIGHT - MARGIN_B - (math.log10(v) - a) / (b - a) * (HEIGHT - MARGIN_T - MARGIN_B)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="monospace" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    # axes
    x0, y0 = MARGIN_L, HEIGHT - MARGIN_B
    parts.append(f'<line x1="{x0}" y1="{MARGIN_T}" x2="{x0}" y2="{y0}" stroke="black"/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{WIDTH - MARGIN_R}" y2="{y0}" stroke="black"/>')
    for v in _ticks_log(x_lo, x_hi):
        if not (x_lo <= v <= x_hi):
            continue
        px = tx(v)
        parts.append(f'<line x1="{px:.1f}" y1="{y0}" x2="{px:.1f}" y2="{y0 + 5}" stroke="black"/>')
        parts.append(f'<text x="{px:.1f}" y="{y0 + 18}" text-anchor="middle">{_fmt(v)}</text>')
    for v in _ticks_log(y_lo, y_hi):
        if not (y_lo <= v <= y_hi):
            continue
        py = ty(v)
        parts.append(f'<line x1="{x0 - 5}" y1="{py:.1f}" x2="{x0}" y2="{py:.1f}" stroke="black"/>')
        parts.append(f'<text x="{x0 - 8}" y="{py + 4:.1f}" text-anchor="end">{_fmt(v)}</text>')
    if title:
        parts.append(f'<text x="{WIDTH / 2}" y="22" text-anchor="middle" font-size="14">{title}</text>')
    if xlabel:
        parts.append(f'<text x="{WIDTH / 2}" y="{HEIGHT - 10}" text-anchor="middle">{xlabel}</text>')
    if ylabel:
        parts.append(
            f'<text x="16" y="{HEIGHT / 2}" text-anchor="middle" '
            f'transform="rotate(-90 16 {HEIGHT / 2})">{ylabel}</text>'
        )
    for idx, (label, pts) in enumerate(cleaned):
        color = COLORS[idx % len(COLORS)]
        coords = " ".join(f"{tx(x):.2f},{ty(y):.2f}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = MARGIN_T + 16 * idx + 4
        lx = WIDTH - MARGIN_R - 180
        parts.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 20}" y2="{ly}" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{lx + 26}" y="{ly + 4}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
