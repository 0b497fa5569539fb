"""Minimal static SVG emission for plans and geodesic traces.

Plots are result displays, not interactive figures: scatter of source and
target atoms with transport arrows scaled by mass, and geodesic projections
onto the (x, y) and (x, z) planes.  No plotting dependency; the files are a
few kilobytes of hand-assembled markup.
"""

from __future__ import annotations

import math

_W, _H, _PAD = 640, 420, 46


class _Frame:
    """Affine map from a data window to pixel coordinates (y flipped)."""

    def __init__(self, xs, ys):
        xlo, xhi = min(xs), max(xs)
        ylo, yhi = min(ys), max(ys)
        dx = (xhi - xlo) or 1.0
        dy = (yhi - ylo) or 1.0
        xlo -= 0.05 * dx
        xhi += 0.05 * dx
        ylo -= 0.05 * dy
        yhi += 0.05 * dy
        self.xlo, self.xhi, self.ylo, self.yhi = xlo, xhi, ylo, yhi

    def px(self, x):
        return _PAD + (x - self.xlo) / (self.xhi - self.xlo) * (_W - 2 * _PAD)

    def py(self, y):
        return _H - _PAD - (y - self.ylo) / (self.yhi - self.ylo) * (_H - 2 * _PAD)


def _header(width, height):
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
    )


def _axes(parts, xlabel, ylabel, title):
    x0, y0 = _PAD, _H - _PAD
    x1, y1 = _W - _PAD, _PAD
    parts.append(
        f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" '
        f'fill="none" stroke="#888" stroke-width="1"/>\n'
    )
    parts.append(
        f'<text x="{(x0 + x1) / 2:.1f}" y="{_H - 12}" font-size="13" '
        f'text-anchor="middle" fill="#333">{xlabel}</text>\n'
    )
    parts.append(
        f'<text x="14" y="{(y0 + y1) / 2:.1f}" font-size="13" text-anchor="middle" '
        f'fill="#333" transform="rotate(-90 14 {(y0 + y1) / 2:.1f})">{ylabel}</text>\n'
    )
    if title:
        parts.append(
            f'<text x="{(x0 + x1) / 2:.1f}" y="24" font-size="14" text-anchor="middle" '
            f'fill="#111">{title}</text>\n'
        )


def _arrow(parts, frame, a, b, width):
    x0, y0 = frame.px(a[0]), frame.py(a[1])
    x1, y1 = frame.px(b[0]), frame.py(b[1])
    parts.append(
        f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x1:.2f}" y2="{y1:.2f}" '
        f'stroke="#555" stroke-width="{width:.2f}" stroke-opacity="0.75"/>\n'
    )
    ang = math.atan2(y1 - y0, x1 - x0)
    size = 6.0 + 2.0 * width
    for sgn in (1, -1):
        xa = x1 - size * math.cos(ang + sgn * 0.45)
        ya = y1 - size * math.sin(ang + sgn * 0.45)
        parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{xa:.2f}" y2="{ya:.2f}" '
            f'stroke="#555" stroke-width="{width:.2f}" stroke-opacity="0.75"/>\n'
        )


def write_plan_svg(path, mu, nu, support_masses, title="causal transport plan"):
    """Scatter both atom families in the (x, y) plane with mass-scaled arrows.

    support_masses is an iterable of (i, j, mass) triples.
    """
    xs = [a.x for a in mu.atoms] + [b.x for b in nu.atoms]
    ys = [a.y for a in mu.atoms] + [b.y for b in nu.atoms]
    frame = _Frame(xs, ys)
    parts = [_header(_W, _H)]
    _axes(parts, "x", "y", title)
    mmax = max((m for _, _, m in support_masses), default=1.0) or 1.0
    for i, j, m in support_masses:
        a, b = mu.atoms[i], nu.atoms[j]
        _arrow(parts, frame, (a.x, a.y), (b.x, b.y), 0.8 + 2.4 * m / mmax)
    for measure, colour in ((mu, "#3465a4"), (nu, "#a40000")):
        for a, w in zip(measure.atoms, measure.weights):
            r = 3.0 + 4.0 * math.sqrt(float(w))
            parts.append(
                f'<circle cx="{frame.px(a.x):.2f}" cy="{frame.py(a.y):.2f}" r="{r:.2f}" '
                f'fill="{colour}" fill-opacity="0.85"/>\n'
            )
    parts.append("</svg>\n")
    with open(path, "w") as fh:
        fh.write("".join(parts))


def write_trace_svg(path, rows):
    """Two stacked panels of a trajectory: (x, y) above, (x, z) below.

    rows are (t, GroupPoint) pairs as produced by geodesic sampling.
    """
    pts = [p for _, p in rows]
    panels = []
    for ylabel, get in (("y", lambda p: p.y), ("z", lambda p: p.z)):
        frame = _Frame([p.x for p in pts], [get(p) for p in pts])
        poly = " ".join(f"{frame.px(p.x):.2f},{frame.py(get(p)):.2f}" for p in pts)
        panels.append((frame, ylabel, get, poly))
    height = 2 * _H
    parts = [_header(_W, height)]
    for k, (frame, ylabel, get, poly) in enumerate(panels):
        shift = k * _H
        parts.append(f'<g transform="translate(0 {shift})">\n')
        _axes(parts, "x", ylabel, "geodesic" if k == 0 else "")
        parts.append(
            f'<polyline points="{poly}" fill="none" stroke="#3465a4" stroke-width="1.6"/>\n'
        )
        for p, colour in ((pts[0], "#3465a4"), (pts[-1], "#a40000")):
            parts.append(f'<circle cx="{frame.px(p.x):.2f}" cy="{frame.py(get(p)):.2f}" r="4" fill="{colour}"/>\n')
        parts.append("</g>\n")
    parts.append("</svg>\n")
    with open(path, "w") as fh:
        fh.write("".join(parts))
