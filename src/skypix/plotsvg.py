"""Static SVG 1.1 charts: line/scatter/bar plots and an equal-area
all-sky point view.

Output is deterministic: fixed coordinate formatting, no timestamps, so
identical inputs give byte-identical files.
"""

import math

import numpy as np

from .errors import DomainError

WIDTH = 720
HEIGHT = 480
MARGIN = 60

# Diverging map-intensity ramp, approximating the familiar blue-to-red sky
# palette with linear interpolation between these anchor stops (position in
# 0..255, then r, g, b).
RAMP_ANCHORS = (
    (0, 0, 0, 255),
    (42, 0, 112, 255),
    (85, 0, 221, 255),
    (127, 255, 237, 217),
    (170, 255, 180, 0),
    (212, 255, 75, 0),
    (255, 100, 0, 0),
)


def color_ramp(n=256):
    """``n`` interpolated (r, g, b) stops from the anchor table."""
    anchors = np.array(RAMP_ANCHORS, dtype=float)
    pos = np.linspace(0, 255, n)
    return np.stack([np.interp(pos, anchors[:, 0], anchors[:, 1 + c])
                     for c in range(3)], axis=1).round().astype(int)


def _hex(rgb):
    return "#%02x%02x%02x" % tuple(int(c) for c in rgb)


def _fmt(v):
    return "%.2f" % v


class _Canvas:
    def __init__(self, width=WIDTH, height=HEIGHT):
        self.width = width
        self.height = height
        self.parts = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            'width="%d" height="%d" viewBox="0 0 %d %d">'
            % (width, height, width, height),
            '<rect width="%d" height="%d" fill="white"/>' % (width, height),
        ]

    def add(self, element):
        self.parts.append(element)

    def text(self, x, y, s, size=12, anchor="middle", rotate=None):
        extra = ""
        if rotate is not None:
            extra = ' transform="rotate(%d %s %s)"' % (rotate, _fmt(x), _fmt(y))
        self.add('<text x="%s" y="%s" font-size="%d" font-family="sans-serif" '
                 'text-anchor="%s"%s>%s</text>'
                 % (_fmt(x), _fmt(y), size, anchor, extra, s))

    def render(self):
        return "\n".join(self.parts + ["</svg>"]) + "\n"


class _Axes:
    """Maps data coordinates onto the plot box and draws the frame."""

    def __init__(self, canvas, xlim, ylim, xlabel="", ylabel="", title=""):
        self.canvas = canvas
        self.x0, self.x1 = xlim
        self.y0, self.y1 = ylim
        if self.x1 == self.x0:
            self.x1 = self.x0 + 1.0
        if self.y1 == self.y0:
            self.y1 = self.y0 + 1.0
        self.left = MARGIN
        self.right = canvas.width - MARGIN // 2
        self.top = MARGIN // 2
        self.bottom = canvas.height - MARGIN
        canvas.add('<rect x="%d" y="%d" width="%d" height="%d" fill="none" '
                   'stroke="black"/>' % (self.left, self.top,
                                         self.right - self.left,
                                         self.bottom - self.top))
        for tx in np.linspace(self.x0, self.x1, 6):
            px = self.px(tx)
            canvas.add('<line x1="%s" y1="%d" x2="%s" y2="%d" stroke="black"/>'
                       % (_fmt(px), self.bottom, _fmt(px), self.bottom + 4))
            canvas.text(px, self.bottom + 18, "%.3g" % tx, size=10)
        for ty in np.linspace(self.y0, self.y1, 6):
            py = self.py(ty)
            canvas.add('<line x1="%d" y1="%s" x2="%d" y2="%s" stroke="black"/>'
                       % (self.left - 4, _fmt(py), self.left, _fmt(py)))
            canvas.text(self.left - 8, py + 3, "%.3g" % ty, size=10,
                        anchor="end")
        if xlabel:
            canvas.text((self.left + self.right) / 2, canvas.height - 14,
                        xlabel)
        if ylabel:
            canvas.text(16, (self.top + self.bottom) / 2, ylabel, rotate=-90)
        if title:
            canvas.text((self.left + self.right) / 2, 18, title, size=14)

    def px(self, x):
        return self.left + (x - self.x0) / (self.x1 - self.x0) * (self.right - self.left)

    def py(self, y):
        return self.bottom - (y - self.y0) / (self.y1 - self.y0) * (self.bottom - self.top)


def _finite_xy(x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    keep = np.isfinite(x) & np.isfinite(y)
    return x[keep], y[keep]


def _limits(series):
    xs = np.concatenate([s[0] for s in series])
    ys = np.concatenate([s[1] for s in series])
    if xs.size == 0:
        raise DomainError("nothing to plot")
    pad = 0.05 * (ys.max() - ys.min() or 1.0)
    return (xs.min(), xs.max()), (ys.min() - pad, ys.max() + pad)


def line_chart(series, xlabel="", ylabel="", title=""):
    """Polyline chart; ``series`` is a list of (x, y, style) where style is
    'line', 'points' or 'dashed'."""
    cleaned = [(*_finite_xy(x, y), style) for x, y, style in series]
    canvas = _Canvas()
    axes = _Axes(canvas, *_limits(cleaned),
                 xlabel=xlabel, ylabel=ylabel, title=title)
    palette = ["#1f4e9c", "#c23b22", "#2e7d32", "#7b1fa2"]
    for k, (x, y, style) in enumerate(cleaned):
        color = palette[k % len(palette)]
        if style == "points":
            for xi, yi in zip(x, y):
                canvas.add('<circle cx="%s" cy="%s" r="3" fill="%s"/>'
                           % (_fmt(axes.px(xi)), _fmt(axes.py(yi)), color))
        else:
            pts = " ".join("%s,%s" % (_fmt(axes.px(xi)), _fmt(axes.py(yi)))
                           for xi, yi in zip(x, y))
            dash = ' stroke-dasharray="6 4"' if style == "dashed" else ""
            canvas.add('<polyline points="%s" fill="none" stroke="%s" '
                       'stroke-width="1.5"%s/>' % (pts, color, dash))
    return canvas.render()


def bar_chart(centers, heights, xlabel="", ylabel="", title=""):
    centers, heights = _finite_xy(centers, heights)
    if centers.size < 1:
        raise DomainError("nothing to plot")
    width = (centers.max() - centers.min()) / max(len(centers) - 1, 1) or 1.0
    canvas = _Canvas()
    lo = min(0.0, heights.min())
    hi = max(0.0, heights.max())
    axes = _Axes(canvas, (centers.min() - width, centers.max() + width),
                 (lo, hi or 1.0), xlabel=xlabel, ylabel=ylabel, title=title)
    for c, h in zip(centers, heights):
        x0 = axes.px(c - 0.4 * width)
        x1 = axes.px(c + 0.4 * width)
        y0 = axes.py(max(h, 0.0))
        y1 = axes.py(min(h, 0.0))
        canvas.add('<rect x="%s" y="%s" width="%s" height="%s" '
                   'fill="#4a79c4" stroke="black" stroke-width="0.5"/>'
                   % (_fmt(x0), _fmt(y0), _fmt(x1 - x0), _fmt(y1 - y0)))
    return canvas.render()


# ---------------------------------------------------------------------------
# all-sky view

def mollweide_xy(theta, phi):
    """Equal-area projection of (theta, phi) onto an ellipse of width
    2*sqrt(2)*2 and height 2*sqrt(2): Newton iteration for the auxiliary
    angle a in 2a + sin 2a = pi sin(lat), at most 25 steps."""
    theta = np.asarray(theta, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    lat = math.pi / 2 - theta
    lon = (phi + math.pi) % (2 * math.pi) - math.pi
    target = math.pi * np.sin(lat)
    alpha = np.arcsin(np.clip(target / math.pi, -1, 1))
    for _ in range(25):
        f = 2 * alpha + np.sin(2 * alpha) - target
        fprime = 2 + 2 * np.cos(2 * alpha)
        step = np.where(np.abs(fprime) > 1e-12, f / np.maximum(fprime, 1e-12), 0.0)
        alpha = alpha - step
        if np.all(np.abs(f) < 1e-12):
            break
    x = 2 * math.sqrt(2) / math.pi * lon * np.cos(alpha)
    y = math.sqrt(2) * np.sin(alpha)
    return x, y


def sky_chart(theta, phi, values, title=""):
    """All-sky scatter in the equal-area elliptical view; values color
    points through the 256-stop ramp."""
    x, y = mollweide_xy(theta, phi)
    canvas = _Canvas(width=WIDTH, height=WIDTH // 2 + 40)
    cx, cy = WIDTH / 2, (WIDTH // 2 + 40) / 2
    scale = (WIDTH / 2 - 20) / (2 * math.sqrt(2))
    canvas.add('<ellipse cx="%s" cy="%s" rx="%s" ry="%s" fill="none" '
               'stroke="black"/>' % (_fmt(cx), _fmt(cy),
                                     _fmt(2 * math.sqrt(2) * scale),
                                     _fmt(math.sqrt(2) * scale)))
    if title:
        canvas.text(cx, 16, title, size=14)
    values = np.asarray(values, dtype=np.float64)
    ramp = color_ramp(256)
    lo, hi = float(np.nanmin(values)), float(np.nanmax(values))
    span = hi - lo or 1.0
    idx = np.clip(((values - lo) / span * 255).astype(int), 0, 255)
    colors = [_hex(ramp[i]) for i in idx]
    for xi, yi, color in zip(x, y, colors):
        canvas.add('<circle cx="%s" cy="%s" r="1.50" fill="%s"/>'
                   % (_fmt(cx + xi * scale), _fmt(cy - yi * scale), color))
    return canvas.render()
