"""Deterministic SVG line plots from (x, y) arrays.

Fixed 800x500 viewport, no timestamps or generated ids, so identical
inputs produce byte-identical output.
"""

from __future__ import annotations

WIDTH = 800
HEIGHT = 500
MARGIN = 60

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def emit_plot(series, out: str) -> None:
    """Overlay the (label, xs, ys) series as polylines of the points
    (xs[i], ys[i]); xs and ys must have one length."""
    if not series:
        raise ValueError("series list must be nonempty")
    all_x = [x for _, xs, _ in series for x in xs]
    all_y = [y for _, _, ys in series for y in ys]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def px(x):
        return MARGIN + (x - x_lo) / (x_hi - x_lo) * (WIDTH - 2 * MARGIN)

    def py(y):
        return HEIGHT - MARGIN - (y - y_lo) / (y_hi - y_lo) * (HEIGHT - 2 * MARGIN)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>',
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>',
        f'<text x="{MARGIN}" y="{HEIGHT - MARGIN + 20}" font-size="12">'
        f"{x_lo:.4g}</text>",
        f'<text x="{WIDTH - MARGIN}" y="{HEIGHT - MARGIN + 20}" font-size="12" '
        f'text-anchor="end">{x_hi:.4g}</text>',
        f'<text x="{MARGIN - 5}" y="{HEIGHT - MARGIN}" font-size="12" '
        f'text-anchor="end">{y_lo:.4g}</text>',
        f'<text x="{MARGIN - 5}" y="{MARGIN + 10}" font-size="12" '
        f'text-anchor="end">{y_hi:.4g}</text>',
    ]
    for idx, (label, xs, ys) in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        points = " ".join(
            f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys, strict=True)
        )
        lines.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"/>'
        )
        ly = MARGIN + 18 * idx
        lines.append(
            f'<line x1="{WIDTH - MARGIN - 130}" y1="{ly}" '
            f'x2="{WIDTH - MARGIN - 110}" y2="{ly}" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        lines.append(
            f'<text x="{WIDTH - MARGIN - 105}" y="{ly + 4}" font-size="12">'
            f"{label}</text>"
        )
    lines.append("</svg>")
    with open(out, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
