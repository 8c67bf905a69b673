"""Minimal native SVG plotting: line plots with bands, and histograms.

No plotting dependency: experiments must reproduce byte-identically across
machines, and chart libraries do not promise that. Output is a fixed
800x500 viewBox with margins, a 1-2-5 tick rule, optional log-scaled x,
band polygons, series polylines, and one dashed reference line.

Coordinates are rounded to 0.01 px, which keeps files small and makes the
bytes a pure function of the data. Titles, axis labels and legend labels
are XML-escaped, so any text gives a well-formed file, except text holding
a character that XML 1.0 forbids (a C0 control other than tab, newline
and carriage return, a surrogate, U+FFFE or U+FFFF): no escape can carry
one, so it raises ValueError. So does a NaN, an infinity or a value beyond
1e300 in magnitude in any data, an x at most 0 on a log-x axis, edges that
do not increase, a negative mass, a bin whose density exceeds 1e300, or a
line plot with no series, no bands and no reference line. Every check is
made before the file is written.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .rng import _every, _finite

__all__ = ["Series", "Band", "svg_line_plot", "svg_histogram"]

_W, _H = 800.0, 500.0
_ML, _MR, _MT, _MB = 70.0, 24.0, 42.0, 56.0
_FONT = "font-family=\"Helvetica, Arial, sans-serif\""

_BAND_COLORS = ("#d7e3f4", "#aec7e8")
_SERIES_COLORS = ("#1f4e8c", "#2e8b57", "#8c564b", "#7f7f7f")
_REF_COLOR = "#b03a2e"

# Largest plotted magnitude: the padded axis ranges and their ticks stay finite.
_LIMIT = 1e300
# The characters outside XML 1.0's Char production.
_NOT_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


@dataclass(frozen=True)
class Series:
    label: str
    ys: Sequence[float]
    dashed: bool = False


@dataclass(frozen=True)
class Band:
    label: str
    lo: Sequence[float]
    hi: Sequence[float]


def _escape(text: str) -> str:
    # XML character data, escaped as xml.sax.saxutils.escape does. Importing
    # that module loads urllib.request and ssl: tens of ms and several MB.
    bad = _NOT_XML_CHAR.search(text)
    if bad:
        raise ValueError(f"text {text!r} holds {bad.group()!r}, which XML 1.0 forbids")
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(v: float) -> str:
    s = f"{v:.2f}"
    return s.rstrip("0").rstrip(".") if "." in s else s


def _fmt_tick(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e5 or 0 < abs(v) < 1e-3:
        return f"{v:.0e}".replace("e+0", "e").replace("e-0", "e-")
    if v == int(v):
        return str(int(v))
    return f"{v:g}"


def _ticks_125(lo: float, hi: float, n_target: int = 6) -> list[float]:
    """Linear ticks on a 1-2-5 progression covering [lo, hi]."""
    if not hi > lo:
        return [lo]
    raw = (hi - lo) / n_target
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next(m * mag for m in (1.0, 2.0, 5.0, 10.0) if m * mag >= raw)
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        if t + step == t:  # a step below half an ulp of t would never reach hi
            break
        t += step
    return ticks


def _log_ticks(lo: float, hi: float) -> list[float]:
    """Ticks at 1-2-5 times powers of ten inside [lo, hi] (lo > 0)."""
    ticks = []
    k = math.floor(math.log10(lo))
    while 10.0**k <= hi:
        for m in (1.0, 2.0, 5.0):
            v = m * 10.0**k
            if lo <= v <= hi:
                ticks.append(v)
        k += 1
    return ticks or [lo, hi]


class _Frame:
    """Data-space to pixel-space mapping for the fixed plot area."""

    def __init__(self, x_lo, x_hi, y_lo, y_hi, log_x):
        self.log_x = log_x
        self.x_lo = math.log10(x_lo) if log_x else x_lo
        self.x_hi = math.log10(x_hi) if log_x else x_hi
        if self.x_hi <= self.x_lo:
            self.x_hi = self.x_lo + 1.0
        if y_hi <= y_lo:
            pad = abs(y_lo) * 0.1 + 1e-9
            y_lo, y_hi = y_lo - pad, y_hi + pad
        self.y_lo, self.y_hi = y_lo, y_hi

    def x(self, v: float) -> float:
        v = math.log10(v) if self.log_x else v
        f = (v - self.x_lo) / (self.x_hi - self.x_lo)
        return _ML + f * (_W - _ML - _MR)

    def y(self, v: float) -> float:
        f = (v - self.y_lo) / (self.y_hi - self.y_lo)
        return _H - _MB - f * (_H - _MT - _MB)


def _plottable(name: str, values) -> np.ndarray:
    # `values` as a float array; its first NaN or +-inf, then its first value
    # beyond _LIMIT in magnitude, raises in rng._every's words.
    a = _finite(name, values)
    _every(name, a, np.abs(a) <= _LIMIT, f"at most {_LIMIT:g} in magnitude")
    return a


def _polyline_points(fr: _Frame, xs, ys) -> str:
    return " ".join(f"{_fmt(fr.x(x))},{_fmt(fr.y(y))}" for x, y in zip(xs, ys))


def _axes(fr: _Frame, x_ticks, y_ticks, title, x_label, y_label) -> list[str]:
    parts = [f'<text x="{_fmt(_W / 2)}" y="24" text-anchor="middle" {_FONT} '
             f'font-size="15">{_escape(title)}</text>']
    bottom, left = _H - _MB, _ML
    for t in x_ticks:
        px = fr.x(t)
        parts.append(f'<line x1="{_fmt(px)}" y1="{_fmt(_MT)}" x2="{_fmt(px)}" '
                     f'y2="{_fmt(bottom)}" stroke="#e3e3e3" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt(px)}" y="{_fmt(bottom + 18)}" text-anchor="middle" '
                     f'{_FONT} font-size="12">{_fmt_tick(t)}</text>')
    for t in y_ticks:
        py = fr.y(t)
        parts.append(f'<line x1="{_fmt(left)}" y1="{_fmt(py)}" x2="{_fmt(_W - _MR)}" '
                     f'y2="{_fmt(py)}" stroke="#e3e3e3" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt(left - 7)}" y="{_fmt(py + 4)}" text-anchor="end" '
                     f'{_FONT} font-size="12">{_fmt_tick(t)}</text>')
    parts.append(f'<rect x="{_fmt(left)}" y="{_fmt(_MT)}" width="{_fmt(_W - _ML - _MR)}" '
                 f'height="{_fmt(_H - _MT - _MB)}" fill="none" stroke="#444" stroke-width="1"/>')
    parts.append(f'<text x="{_fmt((_ML + _W - _MR) / 2)}" y="{_fmt(_H - 14)}" '
                 f'text-anchor="middle" {_FONT} font-size="13">{_escape(x_label)}</text>')
    parts.append(f'<text x="18" y="{_fmt((_MT + _H - _MB) / 2)}" text-anchor="middle" '
                 f'{_FONT} font-size="13" transform="rotate(-90 18 '
                 f'{_fmt((_MT + _H - _MB) / 2)})">{_escape(y_label)}</text>')
    return parts


def _legend_entry(ly: float, label: str, color: str, dashed: bool) -> list[str]:
    """A legend swatch and its label, centred on pixel row ly."""
    dash = ' stroke-dasharray="5 3"' if dashed else ""
    return [f'<line x1="{_fmt(_ML + 10)}" y1="{_fmt(ly)}" x2="{_fmt(_ML + 34)}" '
            f'y2="{_fmt(ly)}" stroke="{color}" stroke-width="4"{dash}/>',
            f'<text x="{_fmt(_ML + 40)}" y="{_fmt(ly + 4)}" {_FONT} '
            f'font-size="12">{_escape(label)}</text>']


def _write_svg(path, body: list[str]) -> Path:
    """Write `body` as one white-backed SVG document at `path`; return the path."""
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {int(_W)} {int(_H)}" '
            f'width="{int(_W)}" height="{int(_H)}">\n'
            f'<rect width="{int(_W)}" height="{int(_H)}" fill="white"/>')
    path = Path(path)
    path.write_text(head + "\n" + "\n".join(body) + "\n</svg>\n", encoding="utf-8")
    return path


def svg_line_plot(xs: Sequence[float], series: Sequence[Series], path,
                  bands: Sequence[Band] = (), *, log_x: bool = True,
                  title: str = "", x_label: str = "", y_label: str = "",
                  ref_y: float | None = None, ref_label: str = "") -> Path:
    """Write a band + lines plot over a shared x grid; returns the path."""
    xs = list(xs)
    if not xs:
        raise ValueError("xs must be nonempty")
    if not series and not bands and ref_y is None:
        raise ValueError("nothing to plot: no series, no bands and no ref_y")
    for kind, label, ys in ([("series", s.label, s.ys) for s in series]
                            + [("band", b.label, e) for b in bands for e in (b.lo, b.hi)]):
        if len(ys) != len(xs):
            raise ValueError(f"{kind} {label!r} has {len(ys)} values for {len(xs)} x values")
        _plottable(f"{kind} {label!r}", ys)
    xa = _plottable("xs", xs)
    if log_x:
        _every("xs", xa, xa > 0, "positive on a log-x axis")
    if ref_y is not None:
        _plottable("ref_y", [ref_y])
    ys_all: list[float] = [v for b in bands for v in list(b.lo) + list(b.hi)]
    for s in series:
        ys_all.extend(s.ys)
    if ref_y is not None:
        ys_all.append(ref_y)
    y_lo, y_hi = min(ys_all), max(ys_all)
    pad = (y_hi - y_lo) * 0.08 + 1e-12
    fr = _Frame(xs[0], xs[-1], y_lo - pad, y_hi + pad, log_x)

    x_ticks = _log_ticks(xs[0], xs[-1]) if log_x else _ticks_125(xs[0], xs[-1])
    body = _axes(fr, x_ticks, _ticks_125(fr.y_lo, fr.y_hi), title, x_label, y_label)
    legend: list[tuple[str, str, bool]] = []

    for i, b in enumerate(bands):
        color = _BAND_COLORS[i % len(_BAND_COLORS)]
        outline = _polyline_points(fr, xs + xs[::-1], [*b.hi, *reversed(b.lo)])
        body.append(f'<polygon points="{outline}" '
                    f'fill="{color}" fill-opacity="0.85" stroke="none"/>')
        legend.append((b.label, color, False))
    if ref_y is not None:
        py = fr.y(ref_y)
        body.append(f'<line x1="{_fmt(_ML)}" y1="{_fmt(py)}" x2="{_fmt(_W - _MR)}" '
                    f'y2="{_fmt(py)}" stroke="{_REF_COLOR}" stroke-width="1.5" '
                    f'stroke-dasharray="6 4"/>')
        legend.append((ref_label or "reference", _REF_COLOR, True))
    for i, s in enumerate(series):
        color = _SERIES_COLORS[i % len(_SERIES_COLORS)]
        dash = ' stroke-dasharray="5 3"' if s.dashed else ""
        body.append(f'<polyline points="{_polyline_points(fr, xs, s.ys)}" fill="none" '
                    f'stroke="{color}" stroke-width="1.6"{dash}/>')
        legend.append((s.label, color, s.dashed))

    ly = _MT + 14
    for label, color, dashed in legend:
        if not label:
            continue
        body.extend(_legend_entry(ly, label, color, dashed))
        ly += 16
    return _write_svg(path, body)


def svg_histogram(bin_edges: Sequence[float], masses: Sequence[float], path, *,
                  overlay_x: Sequence[float] = (), overlay_y: Sequence[float] = (),
                  title: str = "", x_label: str = "x", y_label: str = "density",
                  overlay_label: str = "target density") -> Path:
    """Write a probability-mass histogram as density bars with an overlay curve."""
    edges = list(bin_edges)
    if len(edges) != len(masses) + 1:
        raise ValueError("need len(bin_edges) == len(masses) + 1")
    if len(overlay_y) != len(overlay_x):
        raise ValueError(f"overlay {overlay_label!r} has {len(overlay_y)} values for "
                         f"{len(overlay_x)} x values")
    e, m = _plottable("bin_edges", edges), _plottable("masses", masses)
    _every("bin_edges", e, np.diff(e, prepend=-math.inf) > 0, "increasing")
    _every("masses", m, m >= 0, "at least 0")
    with np.errstate(over="ignore"):
        _every("masses", m, np.abs(m / np.diff(e)) <= _LIMIT,
               f"at most {_LIMIT:g} times the bin width")
    _plottable("overlay_x", overlay_x)
    _plottable("overlay_y", overlay_y)
    widths = [b - a for a, b in zip(edges, edges[1:])]
    dens = [m / w for m, w in zip(masses, widths)]
    y_hi = max(list(dens) + list(overlay_y) + [1e-12]) * 1.08
    fr = _Frame(edges[0], edges[-1], 0.0, y_hi, log_x=False)

    body = _axes(fr, _ticks_125(edges[0], edges[-1]), _ticks_125(0.0, y_hi),
                 title, x_label, y_label)
    for a, b, d in zip(edges, edges[1:], dens):
        x0, x1 = fr.x(a), fr.x(b)
        y0 = fr.y(d)
        body.append(f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(x1 - x0)}" '
                    f'height="{_fmt(fr.y(0.0) - y0)}" fill="#7ba3cc" '
                    f'fill-opacity="0.8" stroke="white" stroke-width="0.5"/>')
    if len(overlay_x) > 0:
        body.append(f'<polyline points="{_polyline_points(fr, overlay_x, overlay_y)}" '
                    f'fill="none" stroke="{_REF_COLOR}" stroke-width="1.8"/>')
        body.extend(_legend_entry(_MT + 14, overlay_label, _REF_COLOR, False))
    return _write_svg(path, body)
