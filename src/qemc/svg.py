"""Minimal SVG line charts for best-so-far curves (pure output, no dependencies)."""

from __future__ import annotations

from .errors import ConfigError

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH, _HEIGHT = 720, 440
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 36, 44


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def render_line_chart(series, title="", x_label="", y_label="") -> str:
    """SVG text for a set of line series.

    ``series`` is a list of (label, xs, ys) with equal-length numeric
    sequences; axis ranges cover all series, with min/max tick labels.
    """
    series = [(label, list(map(float, xs)), list(map(float, ys)))
              for label, xs, ys in series if len(xs)]
    if not series:
        raise ConfigError("need at least one non-empty series")
    x_min = min(min(xs) for _, xs, _ in series)
    x_max = max(max(xs) for _, xs, _ in series)
    y_min = min(min(ys) for _, _, ys in series)
    y_max = max(max(ys) for _, _, ys in series)
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0
    pad = 0.05 * (y_max - y_min)
    y_min, y_max = y_min - pad, y_max + pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x):
        return _MARGIN_L + (x - x_min) / (x_max - x_min) * plot_w

    def py(y):
        return _MARGIN_T + (y_max - y) / (y_max - y_min) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333"/>',
    ]
    if title:
        parts.append(f'<text x="{_WIDTH / 2}" y="20" text-anchor="middle" '
                     f'font-size="14">{title}</text>')
    if x_label:
        parts.append(f'<text x="{_MARGIN_L + plot_w / 2}" y="{_HEIGHT - 10}" '
                     f'text-anchor="middle">{x_label}</text>')
    if y_label:
        parts.append(f'<text x="16" y="{_MARGIN_T + plot_h / 2}" text-anchor="middle" '
                     f'transform="rotate(-90 16 {_MARGIN_T + plot_h / 2})">{y_label}</text>')
    # min/max ticks on both axes
    for x in (x_min, x_max):
        parts.append(f'<text x="{px(x)}" y="{_MARGIN_T + plot_h + 16}" '
                     f'text-anchor="middle">{_fmt(x)}</text>')
    for y in (y_min + pad, y_max - pad):
        parts.append(f'<text x="{_MARGIN_L - 6}" y="{py(y) + 4}" '
                     f'text-anchor="end">{_fmt(y)}</text>')

    legend_y = _MARGIN_T + 14
    for i, (label, xs, ys) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        if label:
            lx = _MARGIN_L + plot_w - 150
            parts.append(f'<line x1="{lx}" y1="{legend_y - 4}" x2="{lx + 22}" '
                         f'y2="{legend_y - 4}" stroke="{color}" stroke-width="1.5"/>')
            parts.append(f'<text x="{lx + 28}" y="{legend_y}">{label}</text>')
            legend_y += 16
    parts.append("</svg>")
    return "\n".join(parts)


def write_line_chart(path, series, title="", x_label="", y_label="") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_line_chart(series, title=title, x_label=x_label,
                                   y_label=y_label))
