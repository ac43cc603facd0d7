import json
import os
import subprocess
import sys

import pytest

import pllab
from pllab.cli import (EXIT_NUMERICAL, EXIT_OK, EXIT_SCHEMA, ManifestError,
                       main, manifest_hash, validate_manifest)

DISC = {"kind": "ComplexBall", "center": [[0.0, 0.0]], "radius": 1.0}
INTERVAL = {"kind": "Interval", "a": -1.0, "b": 1.0}


def _write_manifest(tmp_path, man, name="man.json"):
    p = tmp_path / name
    p.write_text(json.dumps(man))
    return str(p)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_unknown_command():
    with pytest.raises(ManifestError, match="command"):
        validate_manifest({"command": "frobnicate"})


def test_validate_missing_field():
    with pytest.raises(ManifestError, match="missing field 'degrees'"):
        validate_manifest({"command": "fekete", "spec": INTERVAL})


def test_validate_bad_degree_names_field():
    with pytest.raises(ManifestError, match="field 'degrees' is invalid"):
        validate_manifest({"command": "fekete", "spec": INTERVAL,
                           "degrees": [4, 0]})


def test_validate_bad_spec():
    with pytest.raises(ManifestError, match="field 'spec' is invalid"):
        validate_manifest({"command": "fekete", "degrees": [2],
                           "spec": {"kind": "dodecahedron"}})


def test_manifest_hash_key_order_invariant():
    m1 = {"command": "fekete", "spec": INTERVAL, "degrees": [2]}
    m2 = {"degrees": [2], "spec": dict(INTERVAL), "command": "fekete"}
    assert manifest_hash(m1) == manifest_hash(m2)


# ---------------------------------------------------------------------------
# end-to-end runs
# ---------------------------------------------------------------------------

def test_main_fekete_and_cache_determinism(tmp_path):
    man = {"command": "fekete", "spec": INTERVAL, "degrees": [3],
           "cloud_target": 801}
    mp = _write_manifest(tmp_path, man)
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    cache = str(tmp_path / "cache")
    assert main(["--manifest", mp, "--out", out1, "--cache", cache]) == EXIT_OK
    assert main(["--manifest", mp, "--out", out2, "--cache", cache]) == EXIT_OK
    for name in ("fekete.json", "fekete_nodes_d3.csv", "manifest.json"):
        with open(os.path.join(out1, name), "rb") as f1, \
                open(os.path.join(out2, name), "rb") as f2:
            assert f1.read() == f2.read(), name
    # the cache directory was populated
    entries = [f for _, _, fs in os.walk(cache) for f in fs]
    assert len(entries) == 1


def test_main_bad_manifest_exit_schema(tmp_path):
    mp = _write_manifest(tmp_path, {"command": "fekete", "spec": INTERVAL})
    assert main(["--manifest", mp, "--out", str(tmp_path / "o")]) == EXIT_SCHEMA


def test_main_unreadable_manifest(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["--manifest", str(p), "--out",
                 str(tmp_path / "o")]) == EXIT_SCHEMA


def test_main_numerical_failure_exit(tmp_path):
    # collinear 2-d set is degenerate at degree 2: numerical exit, not schema
    thin = {"kind": "Interval", "a": -1.0, "b": 1.0}
    man = {"command": "capacity", "spec": thin, "degrees": [2, 3],
           "cloud_target": 401}
    mp = _write_manifest(tmp_path, man)
    # transfinite_diameter requires >= 3 degrees: numerical error path
    assert main(["--manifest", mp, "--out",
                 str(tmp_path / "o")]) == EXIT_NUMERICAL


def test_cache_corruption_recovers(tmp_path, capsys):
    man = {"command": "fekete", "spec": INTERVAL, "degrees": [2],
           "cloud_target": 401}
    mp = _write_manifest(tmp_path, man)
    cache = str(tmp_path / "cache")
    assert main(["--manifest", mp, "--out", str(tmp_path / "o1"),
                 "--cache", cache]) == EXIT_OK
    # corrupt every cache entry
    for root, _, files in os.walk(cache):
        for f in files:
            with open(os.path.join(root, f), "w") as fh:
                fh.write("{broken")
    assert main(["--manifest", mp, "--out", str(tmp_path / "o2"),
                 "--cache", cache]) == EXIT_OK
    assert "unreadable" in capsys.readouterr().err
    with open(os.path.join(str(tmp_path / "o1"), "fekete.json"), "rb") as f1, \
            open(os.path.join(str(tmp_path / "o2"), "fekete.json"), "rb") as f2:
        assert f1.read() == f2.read()


def test_no_cache_flag(tmp_path):
    man = {"command": "fekete", "spec": INTERVAL, "degrees": [2],
           "cloud_target": 401}
    mp = _write_manifest(tmp_path, man)
    cache = str(tmp_path / "cache")
    assert main(["--manifest", mp, "--out", str(tmp_path / "o"),
                 "--cache", cache, "--no-cache"]) == EXIT_OK
    assert not os.path.exists(cache)


def test_cache_env_override(tmp_path, monkeypatch):
    env_cache = str(tmp_path / "envcache")
    monkeypatch.setenv("PLLAB_CACHE", env_cache)
    man = {"command": "fekete", "spec": INTERVAL, "degrees": [2],
           "cloud_target": 401}
    mp = _write_manifest(tmp_path, man)
    assert main(["--manifest", mp, "--out", str(tmp_path / "o"),
                 "--cache", str(tmp_path / "ignored")]) == EXIT_OK
    assert os.path.isdir(env_cache)
    assert not os.path.exists(str(tmp_path / "ignored"))


def test_extremal_command(tmp_path):
    man = {"command": "extremal", "spec": DISC, "degree": 8,
           "points": [[[2.0, 0.0]], [[1.5, 0.5]]], "cloud_target": 801}
    mp = _write_manifest(tmp_path, man)
    out = str(tmp_path / "o")
    assert main(["--manifest", mp, "--out", out]) == EXIT_OK
    with open(os.path.join(out, "extremal.json")) as f:
        doc = json.load(f)
    import math
    assert doc["lower"][0] <= math.log(2.0) <= doc["upper"][0]


def test_relative_command(tmp_path):
    man = {"command": "relative",
           "set": {"kind": "ComplexBall", "center": [[0.0, 0.0]],
                   "radius": 0.5},
           "disc": DISC, "grid_n": 64}
    mp = _write_manifest(tmp_path, man)
    out = str(tmp_path / "o")
    assert main(["--manifest", mp, "--out", out]) == EXIT_OK
    assert os.path.exists(os.path.join(out, "relative_field.csv"))
    assert os.path.exists(os.path.join(out, "relative_field.svg"))


def test_equidist_command(tmp_path):
    man = {"command": "equidist", "spec": INTERVAL,
           "degrees": [2, 4, 8, 16],
           "measure": {"kind": "arcsine", "a": -1.0, "b": 1.0},
           "test_function": {"kind": "polynomial",
                             "coefficients": [[0.0, 0.0], [0.0, 0.0],
                                              [1.0, 0.0]]}}
    mp = _write_manifest(tmp_path, man)
    out = str(tmp_path / "o")
    assert main(["--manifest", mp, "--out", out]) == EXIT_OK
    with open(os.path.join(out, "rate_fit.json")) as f:
        fit = json.load(f)
    assert fit["errors"][0] == pytest.approx(1.0 / 6.0, abs=1e-9)


def test_verify_command(tmp_path, capsys):
    mp = _write_manifest(tmp_path, {"command": "verify"})
    out = str(tmp_path / "o")
    assert main(["--manifest", mp, "--out", out]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "PASS" in printed and "FAIL" not in printed
    assert os.path.exists(os.path.join(out, "verify.csv"))


def test_console_script_help():
    # the child imports the pllab under test, installed or not
    src = os.path.dirname(os.path.dirname(pllab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    res = subprocess.run([sys.executable, "-m", "pllab.cli", "--help"],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0
    assert "--manifest" in res.stdout
