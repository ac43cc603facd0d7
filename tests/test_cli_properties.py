"""Property test of the manifest boundary: random extremal `points` either
run (exit 0), are rejected naming the field (exit 2), or fail numerically
(exit 3); none escapes as an exception."""

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


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(SPECS), points=POINTS)
def test_random_points_exit_cleanly(cache_dir, spec, points):
    man = {"command": "extremal", "spec": spec, "degree": 2,
           "cloud_target": 201, "points": points}
    with tempfile.TemporaryDirectory() as d:
        mp = os.path.join(d, "man.json")
        with open(mp, "w") as f:
            json.dump(man, f)
        code = main(["--manifest", mp, "--out", os.path.join(d, "o"),
                     "--cache", cache_dir])
    assert code in (EXIT_OK, EXIT_SCHEMA, EXIT_NUMERICAL)
