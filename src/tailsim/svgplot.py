"""Minimal self-contained SVG line charts for result bundles.

Hand-rolled on purpose: output bytes depend only on the data passed in, so
re-running an experiment reproduces identical plot files. No timestamps, no
external plotting dependency.
"""

from __future__ import annotations

import math

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 70, 20, 36, 52
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf")


def _fmt(x: float) -> str:
    return f"{x:.2f}".rstrip("0").rstrip(".")


def _nice_ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(n, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if step >= raw:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(round(t, 10))
        t += step
    return ticks


def _log_ticks(lo: float, hi: float) -> list[float]:
    ticks = []
    e = math.floor(math.log10(lo))
    while 10.0 ** e <= hi * 1.0001:
        for m in (1.0, 2.0, 5.0):
            v = m * 10.0 ** e
            if lo * 0.9999 <= v <= hi * 1.0001:
                ticks.append(v)
        e += 1
    return ticks or [lo, hi]


def _tick_label(v: float) -> str:
    if v == 0:
        return "0"
    a = abs(v)
    if a >= 10000 or a < 0.001:
        return f"{v:.0e}".replace("e+0", "e").replace("e-0", "e-")
    if a >= 100:
        return _fmt(round(v, 1))
    return _fmt(round(v, 4))


def line_plot(title: str, xlabel: str, ylabel: str,
              series: list[tuple[str, list[float], list[float]]],
              hline: float | None = None, hline_label: str = "",
              log_x: bool = False) -> str:
    """SVG text of one line chart with optional dashed horizontal rule.

    series is a list of (label, xs, ys); NaN points are skipped.
    """
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys
              if not (isinstance(y, float) and math.isnan(y))]
    if hline is not None:
        ys_all.append(hline)
    if not xs_all or not ys_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(min(ys_all), 0.0), max(ys_all)
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    y_hi *= 1.05
    if log_x and x_lo <= 0:
        log_x = False
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0

    def sx(x: float) -> float:
        if log_x:
            f = (math.log10(x) - math.log10(x_lo)) / (
                math.log10(x_hi) - math.log10(x_lo))
        else:
            f = (x - x_lo) / (x_hi - x_lo)
        return _ML + f * (_W - _ML - _MR)

    def sy(y: float) -> float:
        f = (y - y_lo) / (y_hi - y_lo)
        return _H - _MB - f * (_H - _MT - _MB)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" '
        f'height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14" font-weight="bold">'
        f'{_esc(title)}</text>',
    ]
    # Axes
    out.append(f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" '
               f'y2="{_H - _MB}" stroke="black"/>')
    out.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" '
               f'stroke="black"/>')
    xticks = _log_ticks(x_lo, x_hi) if log_x else _nice_ticks(x_lo, x_hi, 6)
    for tv in xticks:
        px = sx(tv)
        out.append(f'<line x1="{_fmt(px)}" y1="{_H - _MB}" x2="{_fmt(px)}" '
                   f'y2="{_H - _MB + 5}" stroke="black"/>')
        out.append(f'<text x="{_fmt(px)}" y="{_H - _MB + 18}" '
                   f'text-anchor="middle" font-family="sans-serif" '
                   f'font-size="11">{_tick_label(tv)}</text>')
    for tv in _nice_ticks(y_lo, y_hi, 5):
        py = sy(tv)
        out.append(f'<line x1="{_ML - 5}" y1="{_fmt(py)}" x2="{_ML}" '
                   f'y2="{_fmt(py)}" stroke="black"/>')
        out.append(f'<line x1="{_ML}" y1="{_fmt(py)}" x2="{_W - _MR}" '
                   f'y2="{_fmt(py)}" stroke="#dddddd"/>')
        out.append(f'<text x="{_ML - 8}" y="{_fmt(py + 4)}" '
                   f'text-anchor="end" font-family="sans-serif" '
                   f'font-size="11">{_tick_label(tv)}</text>')
    out.append(f'<text x="{(_ML + _W - _MR) / 2}" y="{_H - 14}" '
               f'text-anchor="middle" font-family="sans-serif" '
               f'font-size="12">{_esc(xlabel)}</text>')
    out.append(f'<text x="16" y="{(_MT + _H - _MB) / 2}" '
               f'text-anchor="middle" font-family="sans-serif" '
               f'font-size="12" transform="rotate(-90 16 '
               f'{(_MT + _H - _MB) / 2})">{_esc(ylabel)}</text>')

    if hline is not None and y_lo <= hline <= y_hi:
        py = sy(hline)
        out.append(f'<line x1="{_ML}" y1="{_fmt(py)}" x2="{_W - _MR}" '
                   f'y2="{_fmt(py)}" stroke="black" stroke-dasharray="6,4"/>')
        if hline_label:
            out.append(f'<text x="{_W - _MR - 4}" y="{_fmt(py - 5)}" '
                       f'text-anchor="end" font-family="sans-serif" '
                       f'font-size="11">{_esc(hline_label)}</text>')

    for si, (label, xs, ys) in enumerate(series):
        color = _PALETTE[si % len(_PALETTE)]
        pts = [(sx(x), sy(y)) for x, y in zip(xs, ys)
               if not (isinstance(y, float) and math.isnan(y))]
        if len(pts) >= 2:
            d = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in pts)
            out.append(f'<polyline points="{d}" fill="none" '
                       f'stroke="{color}" stroke-width="1.8"/>')
        for px, py in pts:
            out.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="2.4" '
                       f'fill="{color}"/>')
        ly = _MT + 16 + 16 * si
        out.append(f'<line x1="{_W - _MR - 120}" y1="{ly - 4}" '
                   f'x2="{_W - _MR - 96}" y2="{ly - 4}" stroke="{color}" '
                   f'stroke-width="2"/>')
        out.append(f'<text x="{_W - _MR - 90}" y="{ly}" '
                   f'font-family="sans-serif" font-size="11">'
                   f'{_esc(label)}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


def _esc(s: str) -> str:
    return (s.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))
