"""Deterministic output formats: canonical JSON, CSV, and SVG plot data.

Every float is written as its shortest round-trip decimal text (Python's
repr), so identical inputs produce byte-identical files.  ``float_texts``
formats a whole float array that way in one orjson call, with the bytes of
``float.__repr__``; the CSV writer and the extremal runner format through
it.  Canonical JSON takes dicts with ``str`` keys only, and writes numpy
arrays and scalars as the Python values their ``tolist``/``item`` return.  A
caller that already holds the text of some top-level values (an extremal
run formats each float once, for its CSV and its JSON) hands that text to
``canonical_json`` or ``write_json``, which splice it in as is; the result
is the plain encode byte for byte, so this module stays the one place that
knows the canonical format.  CSV takes columns, not rows: a column of exact
Python floats is formatted by ``float_texts``, a column of ``str`` is
written as is, and any other column goes cell by cell through
``format_float``/``str``; a large CSV can be handed over as blocks of
columns, which are made and written one at a time.  Writes (``Cache``
entries too) go through a temp file plus rename so concurrent writers never
expose partial content; the atomic writer takes its text as one str or as
blocks written in order.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import numpy as np
import orjson


def float_texts(values):
    """``float.__repr__`` of every value of a float array (or a sequence of
    floats), in C order, as a list of str.

    orjson writes the same shortest round-trip digits as repr, in one call
    for the whole array.  Its layout differs from repr's only where repr
    writes an exponent (``1e-05``, ``1.5e+16``: orjson writes ``0.00001``
    and ``1.5e16``), and it writes NaN and the infinities as ``null``; the
    values with ``|a| < 1e-4`` or ``|a| >= 1e16``, zeros aside, are therefore
    written by repr, and NaN and the infinities fall among them.  When they
    are more than half of the input, repr writes every value, which is then
    cheaper than orjson plus the rewrite.

    The rewrite window is orjson 3.8's float layout, which orjson does not
    document; ``pyproject.toml`` pins that series, and the ``float_texts``
    tests in ``tests/test_serialize.py`` and
    ``tests/test_serialize_properties.py`` must pass before another orjson
    is allowed.
    """
    a = np.ascontiguousarray(values, dtype=np.float64).ravel()
    if not a.size:
        return []
    mag = np.abs(a)
    redo = np.flatnonzero((a != 0) & ~((1e-4 <= mag) & (mag < 1e16)))
    if 2 * redo.size > a.size:
        # mostly repr's exponent range: repr alone is cheaper than both
        return list(map(float.__repr__, a.tolist()))
    texts = orjson.dumps(a, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1]
    texts = texts.decode().split(",")
    for i, t in zip(redo.tolist(), map(float.__repr__, a[redo].tolist())):
        texts[i] = t
    return texts


def format_float(x):
    """Shortest round-trip decimal text of a number, stable across runs.

    Floats go through repr, which also gives nan, inf, -inf and -0.0.
    """
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


def _plain(o):
    # json's C encoder hands over what it cannot write itself: numpy arrays
    # and scalars (np.float64 is a float subclass and never gets here)
    if hasattr(o, "tolist"):
        return o.tolist()
    if hasattr(o, "item"):
        return o.item()
    raise TypeError(f"not JSON serializable: {type(o).__name__}")


_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                           allow_nan=True, default=_plain).encode


def canonical_json(obj, texts=None):
    """Sorted-keys JSON text with fixed float formatting, in one C encode
    (one per top-level key when ``texts`` is given).

    Dict keys must be ``str``.  Numpy arrays and scalars are written as the
    Python values their ``tolist``/``item`` return; anything else that JSON
    cannot encode raises TypeError.  Floats, float subclasses included, are
    written with ``float.__repr__``: shortest round-trip text, with NaN and
    Infinity for the non-finite values.

    ``texts`` maps top-level keys of the dict ``obj`` to the text of their
    values, which is spliced in as is.  The caller vouches that each
    ``texts[k]`` equals ``canonical_json(obj[k])`` (a list of finite floats
    is ``"[" + ",".join(float_texts(v)) + "]"``), so the result is
    ``canonical_json(obj)`` byte for byte; every other key is encoded here.
    """
    if not texts:
        return _encode(obj)
    return "{" + ",".join([
        f"{_encode(k)}:{texts[k] if k in texts else _encode(obj[k])}"
        for k in sorted(obj)]) + "}"


def atomic_write_text(path, text):
    """Write text atomically (temp file in the same directory, then rename).

    ``text`` is a str or an iterable of str blocks, written in order.  The
    first block is taken before the directory or the temp file is made, so
    an error there leaves neither; an error in a later one removes the temp
    file, and ``path`` is left as it was.
    """
    blocks = iter((text,) if isinstance(text, str) else text)
    first = next(blocks, "")
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(first)
            f.writelines(blocks)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_json(path, obj, texts=None):
    """``canonical_json(obj, texts)`` and a newline, written atomically."""
    atomic_write_text(path, (canonical_json(obj, texts), "\n"))


class Cache:
    """Canonical JSON documents by key, one file each under root;
    Cache(None) keeps none.  An entry that is not JSON reads as absent, and
    one that cannot be written (root is a file, say) is skipped, with a
    warning either way."""

    def __init__(self, root):
        self.root = root

    def path(self, key):
        return os.path.join(self.root, key[:2], key + ".json")

    def get(self, key):
        if self.root is None or not os.path.exists(p := self.path(key)):
            return None
        try:
            with open(p, encoding="utf-8") as f:
                return json.load(f)
        # not UTF-8, not JSON, or nested too deep to parse
        except (ValueError, OSError, RecursionError):
            print(f"warning: cache entry {p} unreadable, recomputing",
                  file=sys.stderr)
            return None

    def put(self, key, doc):
        """Store doc under key; a failed write warns and is skipped."""
        if self.root is None:
            return
        try:
            atomic_write_text(p := self.path(key), canonical_json(doc) + "\n")
        except OSError as exc:              # root is a file, or read-only
            print(f"warning: cache entry {p} not written: {exc}",
                  file=sys.stderr)


def _column_text(col):
    """The cells of one CSV column as text."""
    kinds = set(map(type, col))
    if kinds <= {float}:
        return float_texts(col)
    if kinds <= {str}:
        return col
    # a numpy scalar must not reach repr (numpy 2 writes np.float64(0.1))
    return [repr(v) if type(v) is float
            else format_float(v) if isinstance(v, (int, float)) or hasattr(v, "item")
            else str(v) for v in col]


def _csv_blocks(header, blocks):
    """The text of a CSV file, one block of rows at a time; the header line
    comes with the first block."""
    lines = [",".join(header)]
    for columns in blocks:
        lines += map(",".join, zip(*map(_column_text, columns), strict=True))
        if lines:
            # the "" ends the last row with a newline; the row strings are
            # let go before the block's text is written
            lines.append("")
            text, lines = "\n".join(lines), []
            yield text
    if lines:                                   # no block at all
        yield lines[0] + "\n"


def write_csv(path, header, columns=None, *, blocks=None):
    """CSV with ',' separator, '.' decimal, mandatory header row.

    ``columns`` is a sequence of columns, each a sequence (a list, not an
    iterator) of cells.  A column whose cells are all exactly ``float`` is
    written with ``float.__repr__`` (through ``float_texts``), a column of
    ``str`` as is; in any other column a float is its repr, an int, bool or
    numpy scalar goes through ``format_float`` and anything else through
    ``str``.  Columns of unequal length raise ValueError before the file is
    created.

    ``blocks``, given in place of ``columns``, is an iterable of such
    column sequences, whose rows follow one another in the file.  Each
    block is taken from it only when the one before is written, so a
    generator can make the rows of a large file a block at a time.  An
    error while a later block is made or written leaves no file at
    ``path`` and no temp file.
    """
    atomic_write_text(path, _csv_blocks(
        header, [columns] if blocks is None else blocks))


# ---------------------------------------------------------------------------
# SVG plot data
# ---------------------------------------------------------------------------

_SVG_HEAD = ('<svg xmlns="http://www.w3.org/2000/svg" width="480" height="480" '
             'viewBox="0 0 480 480">\n')


def _marching_segments(xs, ys, values, levels):
    """Line segments of each level set via marching squares (no saddles split).

    The edges of cell (i, j) run 0..3 around its corners (xs[j], ys[i]),
    (xs[j+1], ys[i]), (xs[j+1], ys[i+1]), (xs[j], ys[i+1]); a cell with two or
    more crossing edges gives one segment, between the crossings of the first
    two.  Only cells with a corner on each side of a level can have a
    crossing edge, so only those are tested at that level.  Returns, per
    level, the arrays (px, py, qx, qy) of segment ends, cells in row-major
    order.
    """
    X, Y = np.meshgrid(xs, ys)

    def corners(a):
        # (cells, 4): corner k of each cell, and corner k + 1 (mod 4)
        c = np.stack([a[:-1, :-1], a[:-1, 1:], a[1:, 1:], a[1:, :-1]],
                     axis=-1).reshape(-1, 4)
        return c, c[:, [1, 2, 3, 0]]

    (x0, x1), (y0, y1), (v0, v1) = corners(X), corners(Y), corners(values)
    # fmin/fmax pass over a NaN corner, whose two edges never cross; four
    # column-wise calls, since a reduction along a length-4 axis is slow
    a, b, c, d = v0.T
    lo = np.fmin(np.fmin(np.fmin(a, b), c), d)
    hi = np.fmax(np.fmax(np.fmax(a, b), c), d)
    out = []
    for level in levels:
        near = np.flatnonzero((lo < level) & (level < hi))
        cross = (v0[near] - level) * (v1[near] - level) < 0
        two = np.count_nonzero(cross, axis=1) >= 2
        cells, cross = near[two], cross[two]
        first = cross.argmax(axis=1)
        cross[np.arange(len(cells)), first] = False
        ends = []
        for e in ((cells, first), (cells, cross.argmax(axis=1))):
            t = (level - v0[e]) / (v1[e] - v0[e])
            ends += [x0[e] + t * (x1[e] - x0[e]), y0[e] + t * (y1[e] - y0[e])]
        out.append(ends)
    return out


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
    for lev, (px, py, qx, qy) in zip(levels,
                                     _marching_segments(xss, yss, vs, levels)):
        d = map("M {:.3f} {:.3f} L {:.3f} {:.3f}".format, tx(px).tolist(),
                ty(py).tolist(), tx(qx).tolist(), ty(qy).tolist())
        parts.append(f'<path fill="none" stroke="black" stroke-width="0.7" '
                     f'data-level="{format_float(lev)}" d="{" ".join(d)}"/>\n')
    parts.append("</svg>\n")
    atomic_write_text(path, "".join(parts))
