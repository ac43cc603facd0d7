"""Deterministic output formats: canonical JSON, CSV, and SVG plot data.

All floats are written with 17 significant digits so identical inputs produce
byte-identical files.  Writes go through a temp file plus rename so concurrent
writers never expose partial content.
"""

from __future__ import annotations

import json
import math
import os
import tempfile


def format_float(x):
    """17-significant-digit decimal representation, stable across runs."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return repr(x) if float(repr(x)) == x else format(x, ".17g")


def _canonicalize(obj):
    if isinstance(obj, dict):
        return {str(k): _canonicalize(obj[k]) for k in sorted(obj, key=str)}
    if isinstance(obj, (list, tuple)):
        return [_canonicalize(v) for v in obj]
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if hasattr(obj, "tolist"):
        return _canonicalize(obj.tolist())
    if hasattr(obj, "item"):
        return _canonicalize(obj.item())
    raise TypeError(f"cannot canonicalize {type(obj).__name__}")


def canonical_json(obj):
    """Sorted-keys JSON text with fixed float formatting."""
    canon = _canonicalize(obj)

    def default(o):
        raise TypeError(f"not JSON serializable: {type(o).__name__}")

    # json always uses repr(float), which is shortest-roundtrip and stable
    return json.dumps(canon, sort_keys=True, separators=(",", ":"),
                      default=default, allow_nan=True)


def atomic_write_text(path, text):
    """Write text atomically (temp file in the same directory, then rename)."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_json(path, obj):
    atomic_write_text(path, canonical_json(obj) + "\n")


def write_csv(path, header, rows):
    """CSV with ',' separator, '.' decimal, mandatory header row."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            format_float(v) if isinstance(v, (int, float)) or hasattr(v, "item")
            else str(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# SVG plot data
# ---------------------------------------------------------------------------

_SVG_HEAD = ('<svg xmlns="http://www.w3.org/2000/svg" width="480" height="480" '
             'viewBox="0 0 480 480">\n')


def _marching_segments(xs, ys, values, level):
    """Line segments of the level set via marching squares (no saddles split)."""
    segs = []
    ny, nx = values.shape
    for i in range(ny - 1):
        for j in range(nx - 1):
            corners = [(xs[j], ys[i], values[i, j]),
                       (xs[j + 1], ys[i], values[i, j + 1]),
                       (xs[j + 1], ys[i + 1], values[i + 1, j + 1]),
                       (xs[j], ys[i + 1], values[i + 1, j])]
            pts = []
            for k in range(4):
                x0, y0, v0 = corners[k]
                x1, y1, v1 = corners[(k + 1) % 4]
                if (v0 - level) * (v1 - level) < 0:
                    t = (level - v0) / (v1 - v0)
                    pts.append((x0 + t * (x1 - x0), y0 + t * (y1 - y0)))
            if len(pts) >= 2:
                segs.append((pts[0], pts[1]))
    return segs


def field_contour_svg(path, xs, ys, values, levels):
    """Contour plot of a scalar field as SVG line segments."""
    x0, x1 = float(xs[0]), float(xs[-1])
    y0, y1 = float(ys[0]), float(ys[-1])
    sx = 460.0 / (x1 - x0)
    sy = 460.0 / (y1 - y0)

    def tx(x):
        return 10.0 + (x - x0) * sx

    def ty(y):
        return 470.0 - (y - y0) * sy

    # subsample large grids to keep files small
    step = max(1, values.shape[0] // 128)
    vs = values[::step, ::step]
    xss = xs[::step]
    yss = ys[::step]
    parts = [_SVG_HEAD]
    for lev in levels:
        segs = _marching_segments(xss, yss, vs, lev)
        d = []
        for (px, py), (qx, qy) in segs:
            d.append(f"M {tx(px):.3f} {ty(py):.3f} L {tx(qx):.3f} {ty(qy):.3f}")
        parts.append(f'<path fill="none" stroke="black" stroke-width="0.7" '
                     f'data-level="{format_float(lev)}" d="{" ".join(d)}"/>\n')
    parts.append("</svg>\n")
    atomic_write_text(path, "".join(parts))
