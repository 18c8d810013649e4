"""Result serialization: CSV, run manifests, and standalone SVG plots.

Every number is written with 17 significant digits so a 64-bit float
round-trips losslessly, lines end with LF, and identical inputs produce
byte-identical output.
"""

from __future__ import annotations

import hashlib
import math
import sys
import time
from pathlib import Path

from .errors import EmptyDataError


def fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return f"{value:.17g}"
    return str(value)


def write_csv(path, header, rows) -> None:
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def write_key_value(path, pairs) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in pairs:
            fh.write(f"{key} = {fmt(value)}\n")


def write_manifest(path, config_text: str, version: str, command: str,
                   outputs) -> None:
    """Flat key-value run manifest, emitted beside every output set."""
    digest = hashlib.sha256(config_text.encode("utf-8")).hexdigest()
    stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    write_key_value(path, [
        ("config_sha256", digest),
        ("tool_version", version),
        ("python_version", sys.version.split()[0]),
        # A run that built no array never imported numpy.
        ("numpy_version", getattr(sys.modules.get("numpy"), "__version__",
                                  "not loaded")),
        ("command", command),
        ("timestamp", stamp),
        ("outputs", ";".join(str(o) for o in outputs)),
    ])


# ---------------------------------------------------------------------------
# Minimal deterministic SVG emission
# ---------------------------------------------------------------------------

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 70, 20, 20, 50
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")
_FLOAT_MAX = math.nextafter(math.inf, 0.0)


def _ticks(lo, hi, n=5):
    """Round tick values on [lo, hi], at most n + 2 of them, for lo < hi
    with hi - lo finite."""
    span = hi - lo
    # span / n may round to 0.0, and 10.0 ** -324 is 0.0.
    tiny = math.ulp(0.0)
    step = max(10.0 ** math.floor(math.log10(max(span / n, tiny))), tiny)
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= n:
            step *= mult
            break
    spacing = math.ulp(max(abs(lo), abs(hi)))
    if step <= spacing / 2:
        # t += step would stand still: tick at the float spacing instead.
        step = spacing
    first = math.ceil(lo / step) * step
    # Near the largest float, hi plus the tolerance may overflow.
    top = min(hi + 1e-12 * span, _FLOAT_MAX)
    out = []
    t = first
    while t <= top and len(out) < n + 2:
        out.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return out


def _axis(lo, hi):
    """(tick values, map v -> (v - lo) / (hi - lo)) of an axis over the
    data range [lo, hi].

    An empty range is widened by 1, or by one float spacing toward zero
    where 1 is below the spacing.  Where hi - lo overflows, the map and
    the ticks work on halved values; halving is exact, and every other
    range is scaled by 1.0, which keeps its bits.
    """
    if hi == lo:
        hi = lo + 1.0
        if hi == lo:
            lo, hi = sorted((lo, math.nextafter(lo, 0.0)))
    scale = 1.0 if math.isfinite(hi - lo) else 0.5
    lo, hi = lo * scale, hi * scale
    span = hi - lo

    def fraction(v):
        return (v * scale - lo) / span

    return [t / scale for t in _ticks(lo, hi)], fraction


def _svg_header(parts):
    """The document head, white background and the two axis lines."""
    parts.append('<?xml version="1.0" encoding="UTF-8"?>')
    parts.append(f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
                 f'width="{_W}" height="{_H}" '
                 f'viewBox="0 0 {_W} {_H}">')
    parts.append(f'<rect width="{_W}" height="{_H}" fill="white"/>')
    parts.append(f'<g stroke="black" stroke-width="1" fill="none">'
                 f'<path d="M {_ML} {_MT} V {_H - _MB} H {_W - _MR}"/></g>')


def _y_ticks(parts, ticks, sy):
    for t in ticks:
        py = sy(t)
        parts.append(f'<line x1="{_ML - 5}" y1="{py:.2f}" x2="{_ML}" '
                     f'y2="{py:.2f}" stroke="black"/>')
        parts.append(f'<text x="{_ML - 8}" y="{py + 4:.2f}" font-size="11" '
                     f'text-anchor="end">{t:.4g}</text>')


def _y_label(parts, ylabel):
    parts.append(f'<text x="16" y="{(_MT + _H - _MB) / 2:.1f}" font-size="13" '
                 f'text-anchor="middle" transform="rotate(-90 16 '
                 f'{(_MT + _H - _MB) / 2:.1f})">{ylabel}</text>')


def svg_line_plot(x, series: dict, xlabel: str, ylabel: str,
                  markers=()) -> str:
    """Polyline plot of one or more named series over a shared abscissa.

    ``markers`` is a sequence of (x, y, label) extrema annotations.
    """
    x = list(x)
    if not x or not series:
        raise EmptyDataError("nothing to plot")
    ys = {name: list(v) for name, v in series.items()}
    all_y = [v for vals in ys.values() for v in vals if math.isfinite(v)]
    if not all_y:
        raise EmptyDataError("no finite values to plot")
    x_ticks, x_fraction = _axis(min(x), max(x))
    y_ticks, y_fraction = _axis(min(all_y), max(all_y))

    def sx(v):
        return _ML + x_fraction(v) * (_W - _ML - _MR)

    def sy(v):
        return _H - _MB - y_fraction(v) * (_H - _MT - _MB)

    parts = []
    _svg_header(parts)
    for t in x_ticks:
        px = sx(t)
        parts.append(f'<line x1="{px:.2f}" y1="{_H - _MB}" x2="{px:.2f}" '
                     f'y2="{_H - _MB + 5}" stroke="black"/>')
        parts.append(f'<text x="{px:.2f}" y="{_H - _MB + 18}" '
                     f'font-size="11" text-anchor="middle">{t:.4g}</text>')
    _y_ticks(parts, y_ticks, sy)
    parts.append(f'<text x="{(_ML + _W - _MR) / 2:.1f}" y="{_H - 12}" '
                 f'font-size="13" text-anchor="middle">{xlabel}</text>')
    _y_label(parts, ylabel)
    for idx, (name, vals) in enumerate(ys.items()):
        color = _COLORS[idx % len(_COLORS)]
        pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}"
                       for a, b in zip(x, vals) if math.isfinite(b))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{_W - _MR - 6}" y="{_MT + 16 + 14 * idx}" '
                     f'font-size="12" text-anchor="end" '
                     f'fill="{color}">{name}</text>')
    for mx, my, label in markers:
        parts.append(f'<circle cx="{sx(mx):.2f}" cy="{sy(my):.2f}" r="4" '
                     f'fill="none" stroke="black" stroke-width="1.2"/>')
        parts.append(f'<text x="{sx(mx):.2f}" y="{sy(my) - 8:.2f}" '
                     f'font-size="10" text-anchor="middle">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def svg_grouped_bars(groups, series: dict, ylabel: str) -> str:
    """Grouped bar chart: one cluster per group, one bar per series."""
    groups = list(groups)
    if not groups or not series:
        raise EmptyDataError("nothing to plot")
    names = list(series)
    all_v = [v for vals in series.values() for v in vals
             if math.isfinite(v)]
    if not all_v:
        raise EmptyDataError("no finite values to plot")
    y_ticks, y_fraction = _axis(min(0.0, min(all_v)), max(0.0, max(all_v)))

    def sy(v):
        return _H - _MB - y_fraction(v) * (_H - _MT - _MB)

    plot_w = _W - _ML - _MR
    cluster = plot_w / len(groups)
    bar = cluster * 0.8 / len(names)

    parts = []
    _svg_header(parts)
    _y_ticks(parts, y_ticks, sy)
    base_y = sy(0.0)
    for gi, group in enumerate(groups):
        x0 = _ML + gi * cluster + cluster * 0.1
        for si, name in enumerate(names):
            v = series[name][gi]
            if not math.isfinite(v):
                continue
            color = _COLORS[si % len(_COLORS)]
            top = min(sy(v), base_y)
            height = abs(sy(v) - base_y)
            parts.append(f'<rect x="{x0 + si * bar:.2f}" y="{top:.2f}" '
                         f'width="{bar * 0.9:.2f}" height="{height:.2f}" '
                         f'fill="{color}"/>')
        parts.append(f'<text x="{x0 + cluster * 0.4:.2f}" y="{_H - _MB + 16}" '
                     f'font-size="10" text-anchor="middle">{group}</text>')
    for si, name in enumerate(names):
        color = _COLORS[si % len(_COLORS)]
        parts.append(f'<text x="{_W - _MR - 6}" y="{_MT + 16 + 14 * si}" '
                     f'font-size="12" text-anchor="end" '
                     f'fill="{color}">{name}</text>')
    _y_label(parts, ylabel)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
