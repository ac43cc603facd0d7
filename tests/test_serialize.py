import json
import math
import os

import numpy as np
import orjson
import pytest

from pllab.extremal import RelativeField, relative_extremal_1c
from pllab.geometry import ComplexBall
from pllab.serialize import (_marching_segments, atomic_write_text,
                             canonical_json, field_contour_svg, float_texts,
                             format_float, write_csv, write_json)


def test_format_float_roundtrip():
    for x in (0.1, 1.0 / 3.0, 1e-300, 12345.6789, -2.5e17):
        assert float(format_float(x)) == x
    assert format_float(1) == "1"
    assert format_float(True) == "true"
    assert format_float(float("nan")) == "nan"
    assert format_float(float("inf")) == "inf"


def _reprs(values):
    return list(map(float.__repr__, np.asarray(values, float).ravel().tolist()))


def _assert_repr_on_both_paths(values):
    """float_texts is repr on values padded to a third of the input by
    values orjson's text is kept for (orjson plus rewrite), and padded to a
    third by values repr rewrites (repr alone)."""
    values = np.asarray(values, float).ravel()
    n = 2 * values.size + 1
    for pad in (np.linspace(1.0, 2.0, n), np.full(n, 1e-300)):
        padded = np.concatenate([values, pad])
        assert float_texts(padded) == _reprs(padded)


def test_float_texts_match_repr_on_random_bit_patterns():
    bits = np.random.default_rng(5).integers(0, 2 ** 64, 1 << 17,
                                              dtype=np.uint64)
    # half of them moved into [2**-14, 2**54), around [1e-4, 1e16), where
    # orjson's own text is kept
    exponent = np.uint64(1023 - 14) + bits % np.uint64(68)
    inside = (bits & ~np.uint64(0x7FF << 52)) | (exponent << np.uint64(52))
    values = np.where(np.arange(bits.size) % 2 == 0, bits, inside)
    _assert_repr_on_both_paths(values.view(np.float64))


FLOAT_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308,
               1e-4, float(np.nextafter(1e-4, 0)), -1e-4,
               1e16, float(np.nextafter(1e16, 0)), -1e16, 1.5e16,
               0.1, 1.0 / 3.0, 2.0, 1e15, 123456789012345.6,
               float("nan"), float("inf"), float("-inf")]


def test_float_texts_match_repr_on_edges():
    _assert_repr_on_both_paths(FLOAT_EDGES)
    for x in FLOAT_EDGES:
        _assert_repr_on_both_paths([x])
    assert float_texts(FLOAT_EDGES) == list(map(float.__repr__, FLOAT_EDGES))


@pytest.mark.parametrize("share, orjson_calls", [(0.0, 1), (0.5, 1), (0.51, 0),
                                                 (1.0, 0)])
def test_float_texts_leaves_mostly_exponent_input_to_repr(monkeypatch, share,
                                                           orjson_calls):
    """Up to half of the values in repr's exponent range, orjson formats
    the array and repr rewrites them; beyond half, repr formats it all."""
    calls, dumps = [], orjson.dumps
    monkeypatch.setattr(orjson, "dumps",
                        lambda *a, **k: calls.append(1) or dumps(*a, **k))
    rng = np.random.default_rng(4)
    values = rng.uniform(0.1, 10.0, 1000)
    small = round(share * values.size)
    values[:small] = rng.uniform(1e-9, 1e-5, small)
    assert float_texts(values) == _reprs(values)
    assert len(calls) == orjson_calls


def test_float_texts_empty_strided_and_list_inputs():
    assert float_texts(np.array([])) == []
    assert float_texts([]) == []
    xy = np.random.default_rng(2).uniform(-2.0, 2.0, (50, 2, 2)) * 1e-3
    for view in (xy[:, 0, 0], xy[::3, 1, 1], xy[:, 0, :].T):
        assert float_texts(view) == _reprs(view)
    assert float_texts([0.5, -3e-05, 7.0]) == ["0.5", "-3e-05", "7.0"]


def test_canonical_json_sorted_and_stable():
    a = canonical_json({"b": 1, "a": [1.5, 2], "c": {"y": None, "x": True}})
    b = canonical_json({"c": {"x": True, "y": None}, "a": [1.5, 2], "b": 1})
    assert a == b
    assert a == '{"a":[1.5,2],"b":1,"c":{"x":true,"y":null}}'


def test_canonical_json_numpy_scalars_and_arrays():
    doc = {"x": np.float64(0.25), "v": np.array([1.0, 2.0]), "n": np.int64(3)}
    assert canonical_json(doc) == '{"n":3,"v":[1.0,2.0],"x":0.25}'


def test_canonical_json_rejects_unknown():
    with pytest.raises(TypeError):
        canonical_json({"f": object()})


# ---------------------------------------------------------------------------
# canonical JSON against the recursive walk it replaced
# ---------------------------------------------------------------------------

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


def canonical_json_reference(obj):
    """canonical_json as a Python walk to plain values, then one encode."""
    def default(o):
        raise TypeError(f"not JSON serializable: {type(o).__name__}")

    return json.dumps(_canonicalize(obj), sort_keys=True,
                      separators=(",", ":"), default=default, allow_nan=True)


CANONICAL_CASES = {
    "nested": {"b": [1, (2, 3.5), {"z": None, "a": [True, False]}],
               "a": {"y": (), "x": {"q": [[]], "p": "s"}}},
    "tuples": ((1, 2), [(0.5,), ()], {"t": (("a", 1),)}),
    "numpy-scalars": {"f32": np.float32(0.1), "f64": np.float64(0.1),
                      "i64": np.int64(-7), "bool": np.bool_(True),
                      "list": [np.float32(1e-8), np.int64(2 ** 62),
                               np.bool_(False), np.float64(-0.0)]},
    "arrays": {"zero-d": np.array(2.5), "zero-d-int": np.array(3),
               "two-d": np.arange(6.0).reshape(2, 3) / 7.0,
               "two-d-int": np.arange(4).reshape(2, 2),
               "bool": np.array([[True, False]]),
               "f32": np.array([0.1, 1e30], dtype=np.float32)},
    "special-floats": [float("nan"), float("inf"), float("-inf"), -0.0,
                       5e-324, 1e-300, 1e16, 2.5e17, 1.0 / 3.0,
                       np.float64("nan"), np.float64("-inf"),
                       np.array([np.nan, -np.inf, -0.0, 5e-324])],
    "non-ascii": {"λ": "Fekete–Leja ✓", "ключ": ["𝔼", "é", "\u0000\n\""],
                  "a": "plain"},
    "scalars": [0, -1, 10 ** 30, "", None, True],
}


@pytest.mark.parametrize("case", list(CANONICAL_CASES))
def test_canonical_json_matches_walk(case):
    obj = CANONICAL_CASES[case]
    assert canonical_json(obj) == canonical_json_reference(obj)


@pytest.mark.parametrize("bad", [object(), {1, 2}, 1 + 2j, b"bytes",
                                 np.complex128(1 + 2j), [1, object()],
                                 {"a": {"b": range(2)}}])
def test_canonical_json_rejects_what_has_no_plain_value(bad):
    with pytest.raises(TypeError):
        canonical_json_reference(bad)
    with pytest.raises(TypeError):
        canonical_json(bad)


def test_atomic_write_creates_dirs_and_no_temp_left(tmp_path):
    p = tmp_path / "sub" / "deep" / "out.txt"
    atomic_write_text(str(p), "hello")
    assert p.read_text() == "hello"
    leftovers = [f for f in os.listdir(p.parent) if f.endswith(".tmp")]
    assert leftovers == []


def test_write_json_deterministic_bytes(tmp_path):
    doc = {"z": [0.1, 0.2], "a": "s"}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_json(str(p1), doc)
    write_json(str(p2), dict(reversed(list(doc.items()))))
    assert p1.read_bytes() == p2.read_bytes()
    assert json.loads(p1.read_text()) == doc


def test_write_csv_layout(tmp_path):
    p = tmp_path / "t.csv"
    write_csv(str(p), ["x", "y"], [[1, 2], [0.5, 0.25]])
    lines = p.read_text().splitlines()
    assert lines[0] == "x,y"
    assert lines[1] == "1,0.5"
    assert lines[2] == "2,0.25"


def test_field_contour_svg(tmp_path):
    xs = np.linspace(-1, 1, 32)
    ys = np.linspace(-1, 1, 32)
    X, Y = np.meshgrid(xs, ys)
    vals = X ** 2 + Y ** 2
    p = tmp_path / "c.svg"
    field_contour_svg(str(p), xs, ys, vals, [0.25, 0.5])
    text = p.read_text()
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    assert 'data-level="0.25"' in text
    assert text.count("<path") == 2
    assert "M " in text



# ---------------------------------------------------------------------------
# per-cell references for the array writers
# ---------------------------------------------------------------------------

def _format_float_reference(x):
    """The 17-digit fallback formatter that format_float replaced."""
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


def _csv_reference(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            _format_float_reference(v)
            if isinstance(v, (int, float)) or hasattr(v, "item")
            else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _marching_segments_loop(xs, ys, values, level):
    """Per-cell marching squares: the first two crossing edges of each cell."""
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


def _contour_svg_reference(xs, ys, values, levels):
    x0, x1 = float(xs[0]), float(xs[-1])
    y0, y1 = float(ys[0]), float(ys[-1])
    sx = 460.0 / (x1 - x0)
    sy = 460.0 / (y1 - y0)
    step = max(1, values.shape[0] // 128)
    vs, xss, yss = values[::step, ::step], xs[::step], ys[::step]
    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="480" '
             'height="480" viewBox="0 0 480 480">\n']
    for lev in levels:
        d = []
        for (px, py), (qx, qy) in _marching_segments_loop(xss, yss, vs, lev):
            d.append(f"M {10.0 + (px - x0) * sx:.3f} {470.0 - (py - y0) * sy:.3f} "
                     f"L {10.0 + (qx - x0) * sx:.3f} {470.0 - (qy - y0) * sy:.3f}")
        parts.append(f'<path fill="none" stroke="black" stroke-width="0.7" '
                     f'data-level="{_format_float_reference(lev)}" '
                     f'd="{" ".join(d)}"/>\n')
    parts.append("</svg>\n")
    return "".join(parts)


def _contour_cases():
    rng = np.random.default_rng(3)
    deciles = [0.1 * k for k in range(1, 10)]
    grid = np.linspace(-1.0, 1.0, 40)
    X, Y = np.meshgrid(grid, grid)
    big = np.linspace(-1.0, 1.0, 300)
    BX, BY = np.meshgrid(big, big)
    uneven_x = np.cumsum(rng.uniform(0.1, 1.0, 35))
    uneven_y = -1.0 + np.geomspace(1e-3, 2.0, 20)
    return {
        "random": (grid, grid, rng.random((40, 40)), deciles),
        "random-signed": (grid, grid, rng.standard_normal((40, 40)),
                          [-1.0, -0.25, 0.0, 0.5, 2.0]),
        "on-levels-deciles": (grid, grid, np.round(rng.random((40, 40)), 1),
                              deciles),
        "on-levels-quarters": (grid, grid,
                               np.round(4 * rng.random((40, 40))) / 4,
                               [0.25, 0.5, 0.75]),
        "constant-zero": (grid, grid, np.zeros((40, 40)), deciles),
        "constant-on-level": (grid, grid, np.full((40, 40), 0.5),
                              [0.25, 0.5]),
        "smooth": (grid, grid, X ** 2 + Y ** 2, [0.25, 0.5, 1.0]),
        "non-square-uneven": (uneven_x, uneven_y, rng.random((20, 35)),
                              deciles),
        "subsampled-300": (big, big,
                           np.hypot(BX, BY) + 0.05 * rng.random((300, 300)),
                           deciles),
    }


@pytest.mark.parametrize("case", list(_contour_cases()))
def test_field_contour_svg_matches_per_cell_loop(tmp_path, case):
    xs, ys, values, levels = _contour_cases()[case]
    p = tmp_path / "c.svg"
    field_contour_svg(str(p), xs, ys, values, levels)
    assert p.read_text() == _contour_svg_reference(xs, ys, values, levels)


def _marching_segments_every_cell(xs, ys, values, levels):
    """The vectorized marching squares that tested all four edges of every
    cell at every level."""
    X, Y = np.meshgrid(xs, ys)

    def corners(a):
        c = np.stack([a[:-1, :-1], a[:-1, 1:], a[1:, 1:], a[1:, :-1]],
                     axis=-1).reshape(-1, 4)
        return c, c[:, [1, 2, 3, 0]]

    (x0, x1), (y0, y1), (v0, v1) = corners(X), corners(Y), corners(values)
    out = []
    for level in levels:
        cross = (v0 - level) * (v1 - level) < 0
        cells = np.flatnonzero(np.count_nonzero(cross, axis=1) >= 2)
        cross = cross[cells]
        first = cross.argmax(axis=1)
        cross[np.arange(len(cells)), first] = False
        ends = []
        for e in ((cells, first), (cells, cross.argmax(axis=1))):
            t = (level - v0[e]) / (v1[e] - v0[e])
            ends += [x0[e] + t * (x1[e] - x0[e]), y0[e] + t * (y1[e] - y0[e])]
        out.append(ends)
    return out


def _marching_cases():
    rng = np.random.default_rng(11)
    deciles = [0.1 * k for k in range(1, 10)]
    g97 = np.linspace(-1.0, 1.0, 97)
    with_nan = rng.random((40, 40))
    with_nan[rng.random((40, 40)) < 0.05] = np.nan
    with_inf = rng.standard_normal((40, 40))
    with_inf.flat[::37] = np.inf
    with_inf.flat[5::41] = -np.inf
    g40 = np.linspace(-1.0, 1.0, 40)
    half_disc = relative_extremal_1c(ComplexBall((0.0,), 0.5),
                                     ComplexBall((0.0,), 1.0), grid_n=128)
    return {
        "half-disc-g128": (half_disc.xs, half_disc.ys, half_disc.values,
                           deciles),
        "random-97": (g97, g97, rng.random((97, 97)), deciles),
        "nan-corners": (g40, g40, with_nan, deciles),
        "inf-corners": (g40, g40, with_inf, [-1.0, 0.0, 0.5]),
        "on-levels": (g40, g40, np.round(rng.random((40, 40)), 1), deciles),
    }


@pytest.mark.parametrize("case", list(_marching_cases()))
def test_marching_segments_match_every_cell_search(case):
    xs, ys, values, levels = _marching_cases()[case]
    got = _marching_segments(xs, ys, values, levels)
    ref = _marching_segments_every_cell(xs, ys, values, levels)
    assert len(got) == len(ref) == len(levels)
    for g, r in zip(got, ref):
        for a, b in zip(g, r, strict=True):
            assert np.array_equal(a, b, equal_nan=True)


def _relative_field(xs, ys, values):
    return RelativeField(xs=xs, ys=ys, values=values,
                         e_mask=np.zeros(values.shape, dtype=bool),
                         outer_mask=np.zeros(values.shape, dtype=bool),
                         residual=0.0, iterations=0)


def test_relative_field_csv_matches_row_loop(tmp_path):
    rng = np.random.default_rng(5)
    xs = np.linspace(-1.0, 1.0, 7)
    ys = np.linspace(-0.5, 2.0, 5)
    values = rng.random((5, 7))
    values.flat[:6] = [0.0, -0.0, 1.0, 1e-300, 5e-324, 1.0 / 3.0]
    field = _relative_field(xs, ys, values)
    rows = []
    for i, y in enumerate(field.ys):
        for j, x in enumerate(field.xs):
            rows.append([x, y, field.values[i, j]])
    p = tmp_path / "f.csv"
    field.to_csv(str(p))
    assert p.read_text() == _csv_reference(["re", "im", "value"], rows)


def test_write_csv_cells_match_reference_formatter(tmp_path):
    row = [1, True, False, np.int64(3), np.float64(0.1), np.float32(0.1),
           0.1, -0.0, 1e-300, 5e-324, float("nan"), float("inf"),
           float("-inf"), 2.5e17, "pass", None]
    p = tmp_path / "m.csv"
    write_csv(str(p), [str(k) for k in range(len(row))], [[v] for v in row])
    assert p.read_text() == _csv_reference(
        [str(k) for k in range(len(row))], [row])


# ---------------------------------------------------------------------------
# the columnar write_csv against the row writer it replaced
# ---------------------------------------------------------------------------

def _csv_rows_reference(header, rows):
    """The row writer that the columnar write_csv replaced."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join([
            repr(v) if type(v) is float
            else format_float(v) if isinstance(v, (int, float)) or hasattr(v, "item")
            else str(v) for v in row]))
    return "\n".join(lines) + "\n"


CSV_COLUMN_CASES = {
    "special-floats": [[float("nan"), float("inf"), float("-inf"), -0.0,
                        0.0, 1e-300, 5e-324, 2.5e17, 1.0 / 3.0, 0.1],
                       [1e16, -1e-7, 1.5, -2.0, 123456.789, 1e308, -5e-324,
                        float("nan"), 0.5, -0.0]],
    "str": [["pass", "fail", "", "a b"], ["x", "λ", "1.0", "nan"]],
    "mixed": [[1, True, np.int64(3), np.float32(0.1), np.float64(0.1), None],
              [0.5, False, -7, np.float64(-0.0), "s", np.float32(np.nan)],
              [2 ** 70, np.bool_(True), np.int64(-1), 1.0, None, "t"]],
    "np-float64-list": [list(np.array([0.1, -0.0, 1e-300, np.nan, np.inf]))],
    "float-and-str": [[0.25, -0.0, 3.0], ["a", "b", "c"], [1, 2, 3]],
    "zero-rows": [[], [], []],
}


@pytest.mark.parametrize("case", list(CSV_COLUMN_CASES))
def test_write_csv_columns_match_row_writer(tmp_path, case):
    columns = CSV_COLUMN_CASES[case]
    header = [f"c{k}" for k in range(len(columns))]
    p = tmp_path / "c.csv"
    write_csv(str(p), header, columns)
    assert p.read_text() == _csv_rows_reference(header, zip(*columns))


def test_write_csv_zero_rows_is_header_line(tmp_path):
    p = tmp_path / "c.csv"
    write_csv(str(p), ["a", "b"], [[], []])
    assert p.read_bytes() == b"a,b\n"


@pytest.mark.parametrize("columns", [[[1.0, 2.0], [3.0]], [["a"], []],
                                     [[], [0.5]]])
def test_write_csv_unequal_columns_raise_before_writing(tmp_path, columns):
    p = tmp_path / "sub" / "c.csv"
    with pytest.raises(ValueError):
        write_csv(str(p), ["a", "b"], columns)
    assert not (tmp_path / "sub").exists()


# ---------------------------------------------------------------------------
# write_csv in blocks, and the atomic writer's text blocks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case", list(CSV_COLUMN_CASES))
@pytest.mark.parametrize("cuts", [[], [0], [1], [1, 1, 3], [0, 2, 100]])
def test_write_csv_blocks_match_one_block(tmp_path, case, cuts):
    columns = CSV_COLUMN_CASES[case]
    header = [f"c{k}" for k in range(len(columns))]
    n = len(columns[0])
    edges = [0] + [min(c, n) for c in cuts] + [n]
    blocks = [[c[a:b] for c in columns] for a, b in zip(edges, edges[1:])]
    one, split = tmp_path / "one.csv", tmp_path / "split.csv"
    write_csv(str(one), header, columns)
    write_csv(str(split), header, blocks=iter(blocks))
    assert split.read_bytes() == one.read_bytes()


def test_write_csv_no_blocks_is_header_line(tmp_path):
    p = tmp_path / "c.csv"
    write_csv(str(p), ["a", "b"], blocks=iter([]))
    assert p.read_bytes() == b"a,b\n"


def test_write_csv_takes_the_blocks_one_at_a_time(tmp_path):
    p = tmp_path / "c.csv"
    temp_file_open = []

    def blocks():
        for k in range(3):
            temp_file_open.append(any(f.endswith(".tmp")
                                      for f in os.listdir(tmp_path)))
            yield [[float(k)], [str(k)]]

    write_csv(str(p), ["x", "s"], blocks=blocks())
    assert p.read_text() == "x,s\n0.0,0\n1.0,1\n2.0,2\n"
    # the first block is made before the temp file, the others while the
    # temp file is open
    assert temp_file_open == [False, True, True]


def test_write_csv_error_in_a_later_block_leaves_no_file(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("old\n")

    def blocks():
        yield [[0.5], [1.5]]
        raise ValueError("bad block")

    with pytest.raises(ValueError, match="bad block"):
        write_csv(str(p), ["a", "b"], blocks=blocks())
    assert os.listdir(tmp_path) == ["c.csv"]
    assert p.read_text() == "old\n"


def test_atomic_write_text_blocks_in_order(tmp_path):
    p = tmp_path / "sub" / "t.txt"
    atomic_write_text(str(p), iter(["a", "", "bc", "\n"]))
    assert p.read_text() == "abc\n"
    atomic_write_text(str(p), ())
    assert p.read_text() == ""


# ---------------------------------------------------------------------------
# canonical_json with spliced top-level texts against the plain encode
# ---------------------------------------------------------------------------

SPLICE_FLOATS = [-0.0, 5e-324, 1e16, 1e-5, 1.0 / 3.0, 2.0, -1.25e-300]

SPLICE_CASES = {
    "extremal-doc": {"degree": 4, "gamma": 1.0000000000000002,
                     "gap": 1e-5, "lower": SPLICE_FLOATS,
                     "upper": SPLICE_FLOATS[::-1]},
    "manifest": {"command": "extremal", "degree": 4, "seed": 3,
                 "spec": {"kind": "ComplexBall", "center": [[0.0, -0.0]],
                          "radius": 1.0},
                 "points": [[[x, y]] for x, y in zip(SPLICE_FLOATS,
                                                     SPLICE_FLOATS[1:])]},
    "escapes": {"\"q\\": -0.0, "\u0000\n\t": "x ", "λ": [1e-5],
                "ключ": {"b": [0.1, None], "a": {"𝔼": 1.0 / 3.0}},
                "Z": [[1e16]], "a": True, "": []},
    "nested": CANONICAL_CASES["nested"],
    "non-ascii": CANONICAL_CASES["non-ascii"],
    "arrays": CANONICAL_CASES["arrays"],
    "numpy-scalars": CANONICAL_CASES["numpy-scalars"],
}


def _key_sets(obj):
    keys = sorted(obj)
    return [[k for i, k in enumerate(keys) if mask >> i & 1]
            for mask in range(1 << len(keys))]


@pytest.mark.parametrize("case", list(SPLICE_CASES))
def test_canonical_json_splice_matches_plain_encode(case):
    obj = SPLICE_CASES[case]
    plain = canonical_json(obj)
    assert canonical_json(obj, None) == canonical_json(obj, {}) == plain
    # every top-level key alone, and every set of keys
    for keys in _key_sets(obj):
        texts = {k: canonical_json(obj[k]) for k in keys}
        assert canonical_json(obj, texts) == plain, keys


def test_canonical_json_splice_uses_the_given_text():
    # the text is spliced as is, not re-encoded: the caller vouches for it
    assert canonical_json({"b": [1.0], "a": 2}, {"b": "[1.0]"}) == \
        '{"a":2,"b":[1.0]}'
    assert canonical_json({"b": [1.0], "a": 2}, {"b": "TEXT"}) == \
        '{"a":2,"b":TEXT}'


def test_write_json_splice_matches_plain(tmp_path):
    doc = SPLICE_CASES["extremal-doc"]
    texts = {k: "[" + ",".join(map(float.__repr__, doc[k])) + "]"
             for k in ("lower", "upper")}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_json(str(p1), doc)
    write_json(str(p2), doc, texts)
    assert p1.read_bytes() == p2.read_bytes()
