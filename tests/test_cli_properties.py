"""Property tests of the manifest boundary: random extremal `points`,
random `anchor`, `radii`, `delta_grid` and `radius` fields of
`scan-regularity` and `localize`, and one random field anywhere in a small
valid manifest of each command, either run (exit 0), are rejected naming
the field (exit 2), or fail numerically (exit 3); none escapes as an
exception, and no scan exits 0 with an empty report."""

import contextlib
import io
import json
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from pllab.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_SCHEMA, main  # noqa: E402

SPECS = [{"kind": "Interval", "a": -1.0, "b": 1.0},
         {"kind": "ComplexBall", "center": [[0.0, 0.0], [0.0, 0.0]],
          "radius": 1.0}]

NUMBERS = st.one_of(st.floats(-5.0, 5.0), st.integers(-5, 5), st.floats())
LEAVES = st.one_of(NUMBERS, st.sampled_from(
    [True, False, None, "1", 10 ** 400, -0.0, [], {}]))
PAIRS = st.one_of(st.lists(LEAVES, min_size=2, max_size=2),
                  st.lists(LEAVES, max_size=3), LEAVES)
# well-formed points of 1 or 2 coordinates (so some runs reach the bounds),
# and arbitrary nestings of the leaves
WELL_FORMED = st.integers(1, 2).flatmap(lambda n: st.lists(
    st.lists(st.lists(NUMBERS, min_size=2, max_size=2), min_size=n,
             max_size=n), min_size=1, max_size=3))
POINTS = st.one_of(WELL_FORMED,
                   st.lists(st.lists(PAIRS, max_size=3), max_size=4),
                   st.lists(PAIRS, max_size=2), LEAVES)


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("cache"))


def _run(d, man, *cache_args):
    mp = os.path.join(d, "man.json")
    with open(mp, "w") as f:
        json.dump(man, f)
    return main(["--manifest", mp, "--out", os.path.join(d, "o"),
                 *cache_args])


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(SPECS), points=POINTS)
def test_random_points_exit_cleanly(cache_dir, spec, points):
    man = {"command": "extremal", "spec": spec, "degree": 2,
           "cloud_target": 201, "points": points}
    with tempfile.TemporaryDirectory() as d:
        assert _run(d, man, "--cache", cache_dir) in (EXIT_OK, EXIT_SCHEMA,
                                                      EXIT_NUMERICAL)


# scan-regularity and localize solve per radius and skip the cache, so they
# run in C^1 only, at degree <= 2, on well-formed values near the set
C1_SPECS = [SPECS[0], {"kind": "ComplexBall", "center": [[0.0, 0.0]],
                       "radius": 1.0}]
NEAR = st.floats(-1.5, 1.5)
SIZES = st.floats(0.05, 1.5)
# radii at which no point of the set survives: every such radius is dropped
TINY = st.floats(5e-324, 1e-300)
ANCHORS = st.one_of(
    st.lists(st.lists(NEAR, min_size=2, max_size=2), min_size=1, max_size=2),
    st.lists(PAIRS, max_size=2), LEAVES)
RADII = st.one_of(st.lists(SIZES, min_size=1, max_size=4),
                  st.lists(TINY, min_size=1, max_size=2),
                  st.lists(st.one_of(SIZES, TINY), min_size=1, max_size=3),
                  st.lists(LEAVES, max_size=3), LEAVES)
DELTAS = st.one_of(
    st.floats(0.05, 0.5).map(lambda d: [d * 0.7 ** k for k in range(6)]),
    # geometric with a ratio above 0.7, or with a repeated value
    st.tuples(st.floats(0.05, 0.5), st.floats(0.71, 1.0)).map(
        lambda t: [t[0] * t[1] ** k for k in range(6)]),
    st.lists(SIZES, min_size=6, max_size=7),
    st.lists(st.one_of(SIZES, LEAVES), min_size=5, max_size=7), LEAVES)
SCAN_FIELDS = {
    "scan-regularity": {"anchor": ANCHORS, "radii": RADII,
                        "delta_grid": DELTAS},
    "localize": {"anchor": ANCHORS, "radius": st.one_of(SIZES, LEAVES)},
}


@settings(max_examples=20, deadline=None)
@given(spec=st.sampled_from(C1_SPECS), degree=st.integers(1, 2),
       doc=st.sampled_from(list(SCAN_FIELDS)).flatmap(
           lambda cmd: st.fixed_dictionaries(
               {"command": st.just(cmd), **SCAN_FIELDS[cmd]})))
def test_random_scan_and_localize_fields_exit_cleanly(spec, degree, doc):
    man = dict(doc, spec=spec, degree=degree)
    with tempfile.TemporaryDirectory() as d:
        code = _run(d, man, "--no-cache")
        assert code in (EXIT_OK, EXIT_SCHEMA, EXIT_NUMERICAL)
        if code == EXIT_OK and doc["command"] == "scan-regularity":
            with open(os.path.join(d, "o", "hcp_report.json")) as f:
                assert json.load(f)["radii"]


# one small valid manifest per command: degrees <= 2 (capacity's line needs a
# third degree), clouds of 201 points
SMALL = {
    "fekete": {"command": "fekete", "spec": SPECS[0], "degrees": [2],
               "cloud_target": 201, "seed": 0, "weight": "zero"},
    "extremal": {"command": "extremal", "spec": C1_SPECS[1], "degree": 2,
                 "cloud_target": 201, "seed": 1, "weight": "fubini-study",
                 "points": [[[2.0, 0.0]], [[0.0, 1.5]]]},
    "capacity": {"command": "capacity", "spec": SPECS[0],
                 "degrees": [1, 2, 3], "cloud_target": 201, "seed": 0},
    "relative": {"command": "relative",
                 "set": {"kind": "ComplexBall", "center": [[0.0, 0.0]],
                         "radius": 0.5},
                 "disc": C1_SPECS[1], "grid_n": 64},
    "scan-regularity": {"command": "scan-regularity", "spec": SPECS[0],
                        "anchor": [[1.0, 0.0]], "radii": [0.5],
                        "delta_grid": [0.1 * 0.7 ** k for k in range(6)],
                        "degree": 2, "seed": 11},
    "localize": {"command": "localize", "spec": C1_SPECS[1],
                 "anchor": [[1.0, 0.0]], "radius": 0.3, "degree": 2,
                 "seed": 5},
    # equidist fits a rate, so it needs four degrees
    "equidist": {"command": "equidist", "spec": SPECS[0],
                 "degrees": [1, 2, 3, 4],
                 "measure": {"kind": "arcsine", "a": -1.0, "b": 1.0},
                 "test_function": {"kind": "tabulated", "grid": [-1.0, 1.0],
                                   "values": [0.0, 1.0]},
                 "alpha_prime": 0.5, "seed": 0},
}
# a set spec of every kind, each swapped in for a manifest's spec
KIND_SPECS = [
    {"kind": "RealBall", "center": [0.0], "radius": 1.0},
    {"kind": "Box", "intervals": [[-1.0, 1.0]]},
    {"kind": "ConvexHull", "vertices": [[[0.0, 0.0]], [[1.0, 0.0]],
                                        [[0.0, 1.0]]]},
    {"kind": "AffineImage", "inner": SPECS[0], "matrix": [[2.0, 0.0]],
     "shift": [[1.0, 0.0]]},
    {"kind": "Union", "parts": [{"kind": "Interval", "a": -1.0, "b": 0.0},
                                {"kind": "Interval", "a": 0.5, "b": 1.0}]},
    {"kind": "Cusp", "h_coeffs": [[0.0, 1.0]], "M": 0.5, "m": 2},
    {"kind": "BallIntersection", "inner": C1_SPECS[1],
     "center": [[1.0, 0.0]], "radius": 0.5},
]
VALUES = st.one_of(LEAVES, st.sampled_from(
    ["zero", "fubini-study", "Interval", "arcsine", [1.0, 0.0],
     [[1.0, 0.0]], {"kind": "ComplexBall"}]))
_DELETE = object()


def _paths(node, prefix=()):
    """The path of every value below node: dict keys and list indexes."""
    items = (node.items() if type(node) is dict
             else enumerate(node) if type(node) is list else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutated(man, path, value):
    man = json.loads(json.dumps(man))
    *parents, last = path
    node = man
    for key in parents:
        node = node[key]
    if value is _DELETE:
        del node[last]
    else:
        node[last] = value
    return man


@st.composite
def mutated_manifests(draw):
    man = draw(st.sampled_from(list(SMALL.values())))
    if "spec" in man and draw(st.booleans()):
        man = dict(man, spec=draw(st.sampled_from(KIND_SPECS)))
    path = draw(st.sampled_from(list(_paths(man))))
    value = draw(st.one_of(VALUES, st.just(_DELETE)))
    return _mutated(man, path, value)


@pytest.mark.parametrize("command", list(SMALL))
def test_small_manifests_run(command):
    with tempfile.TemporaryDirectory() as d:
        assert _run(d, SMALL[command], "--no-cache") == EXIT_OK


@settings(max_examples=80, deadline=None)
@given(man=mutated_manifests())
def test_mutated_manifest_exits_cleanly(man):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as d, \
            contextlib.redirect_stderr(err):
        code = _run(d, man, "--no-cache")
    assert code in (EXIT_OK, EXIT_SCHEMA, EXIT_NUMERICAL)
    assert "Traceback" not in err.getvalue()
    if code == EXIT_SCHEMA:
        assert "field '" in err.getvalue() or "manifest" in err.getvalue()
