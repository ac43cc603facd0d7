import json
import os

import numpy as np
import pytest

from pllab.serialize import (atomic_write_text, canonical_json,
                             field_contour_svg, format_float, write_csv,
                             write_json)


def test_format_float_roundtrip():
    for x in (0.1, 1.0 / 3.0, 1e-300, 12345.6789, -2.5e17):
        assert float(format_float(x)) == x
    assert format_float(1) == "1"
    assert format_float(True) == "true"
    assert format_float(float("nan")) == "nan"
    assert format_float(float("inf")) == "inf"


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
    write_csv(str(p), ["x", "y"], [[1, 0.5], [2, 0.25]])
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

