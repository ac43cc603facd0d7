import dataclasses
import hashlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import pllab
from pllab.cli import (EXIT_NUMERICAL, EXIT_OK, EXIT_SCHEMA, MAX_BASIS_CLOUD,
                       Cache, ManifestError, cached_fekete, main,
                       manifest_hash, validate_manifest)
from pllab.extremal import BLOCK_ROWS, SandwichEvaluator
from pllab.fekete import solve_fekete
from pllab.regularity import (HCP_CLOUD_FLOOR, LOCALIZE_CLOUD_FLOOR,
                              scan_cloud_target)
from pllab.geometry import (MAX_NESTING, exact_extremal, sample,
                            spec_from_dict)
from pllab.serialize import canonical_json
from test_serialize import canonical_json_reference

DISC = {"kind": "ComplexBall", "center": [[0.0, 0.0]], "radius": 1.0}
INTERVAL = {"kind": "Interval", "a": -1.0, "b": 1.0}


def _write_manifest(tmp_path, man, name="man.json"):
    p = tmp_path / name
    p.write_text(json.dumps(man))
    return str(p)


def _child_env(**extra):
    """os.environ plus extra, with the pllab under test (installed or not)
    first on the child's PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(pllab.__file__))
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


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


@pytest.mark.parametrize("data", [b"\xff", b"[" * 200000],
                         ids=["not-utf8", "nested-200000-deep"])
def test_manifest_that_does_not_parse_exits_schema(tmp_path, capsys, data):
    p = tmp_path / "bad.json"
    p.write_bytes(data)
    assert main(["--manifest", str(p), "--out",
                 str(tmp_path / "o")]) == EXIT_SCHEMA
    assert "error: cannot read manifest" in capsys.readouterr().err


def test_non_ascii_manifest_reads_as_utf8_in_any_locale(tmp_path):
    man = dict(SOLVE_MANIFESTS["fekete"], note="caf\u00e9")
    mp = tmp_path / "man.json"
    mp.write_bytes(json.dumps(man, ensure_ascii=False).encode("utf-8"))
    assert b"caf\xc3\xa9" in mp.read_bytes()
    trees = []
    for name, env in (("utf8", {"PYTHONUTF8": "1"}),
                      ("c", {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0",
                             "PYTHONUTF8": "0"})):
        out = str(tmp_path / name)
        res = subprocess.run([sys.executable, "-m", "pllab.cli", "--manifest",
                              mp, "--out", out, "--no-cache"],
                             capture_output=True, text=True,
                             env=_child_env(**env))
        assert res.returncode == 0, res.stderr
        trees.append(_tree_bytes(out))
    assert trees[0] == trees[1]


def test_main_numerical_failure_exit(tmp_path, capsys):
    # a segment in C^2 is pluripolar, so its degree-2 Vandermonde is
    # singular: a numerical exit, not a schema one
    segment = {"kind": "ConvexHull",
               "vertices": [[[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]]}
    man = {"command": "fekete", "spec": segment, "degrees": [2],
           "cloud_target": 401}
    mp = _write_manifest(tmp_path, man)
    assert main(["--manifest", mp, "--out",
                 str(tmp_path / "o")]) == EXIT_NUMERICAL
    assert "pluripolar" in capsys.readouterr().err


@pytest.mark.parametrize("field, extra", [
    ("degrees", {"degrees": [2, 3]}),
    ("degrees", {"degrees": [4]}),
    ("degrees", {"degrees": [4, 4, 4]}),
    ("degrees", {"degrees": [2, 3, 3, 2]}),
    ("spec", {"spec": {"kind": "ComplexBall",
                       "center": [[0.0, 0.0], [0.0, 0.0]], "radius": 1.0}}),
], ids=["two-degrees", "one-degree", "one-degree-thrice",
        "two-distinct-degrees", "c2-spec"])
def test_capacity_shape_exits_schema_before_sampling(tmp_path, capsys,
                                                     sample_fails, field,
                                                     extra):
    man = dict(SOLVE_MANIFESTS["capacity"], **extra)
    assert main(["--manifest", _write_manifest(tmp_path, man), "--out",
                 str(tmp_path / "o"), "--no-cache"]) == EXIT_SCHEMA
    assert f"field '{field}'" in capsys.readouterr().err


# an entry's new bytes, or a dict of keys to overwrite in the stored entry
CORRUPT_ENTRIES = [
    (b"{broken", "unreadable"),
    (b"\xff\xfe{}", "unreadable"),                 # not UTF-8
    (b"[" * 200000, "unreadable"),                 # too deep to parse
    (b"5", "inconsistent"),
    (b'{"node_indices": [1e400]}', "inconsistent"),
    ({"node_indices": [-100, 10, 50, 89, 99]}, "inconsistent"),
] + [
    # accepted_swaps is an int >= 0; a missing value (None) is deleted
    ({"accepted_swaps": value}, "inconsistent")
    for value in (None, -1, True, 1.5, "3")
] + [
    # gamma is at least 1 and lebesgue at least gamma, both finite floats
    ({key: value}, "inconsistent") for key in ("gamma", "lebesgue")
    for value in (None, "1.0", float("nan"), float("inf"), True, 0.5)
]


def test_cache_corruption_recovers(tmp_path, capsys):
    man = {"command": "fekete", "spec": INTERVAL, "degrees": [4],
           "cloud_target": 401}
    mp = _write_manifest(tmp_path, man)
    cache = str(tmp_path / "cache")
    assert main(["--manifest", mp, "--out", str(tmp_path / "o1"),
                 "--cache", cache]) == EXIT_OK
    expected = (tmp_path / "o1" / "fekete.json").read_bytes()
    for content, warning in CORRUPT_ENTRIES:
        # corrupt every cache entry; each recovery writes it afresh
        for root, _, files in os.walk(cache):
            for f in files:
                path = os.path.join(root, f)
                data = content
                if isinstance(content, dict):
                    with open(path) as fh:
                        entry = dict(json.load(fh), **content)
                    data = json.dumps({k: v for k, v in entry.items()
                                       if v is not None}).encode()
                with open(path, "wb") as fh:
                    fh.write(data)
        capsys.readouterr()
        assert main(["--manifest", mp, "--out", str(tmp_path / "o2"),
                     "--cache", cache]) == EXIT_OK, content
        err = capsys.readouterr().err
        assert warning in err and "cache hit" not in err, content
        assert (tmp_path / "o2" / "fekete.json").read_bytes() == expected
    assert main(["--manifest", mp, "--out", str(tmp_path / "o3"),
                 "--cache", cache]) == EXIT_OK
    assert "cache hit" in capsys.readouterr().err


def test_unwritable_cache_warns_and_runs(tmp_path, capsys):
    mp = _write_manifest(tmp_path, SOLVE_MANIFESTS["fekete"])
    cache = tmp_path / "cache"
    cache.write_text("a regular file, not a directory")
    assert main(["--manifest", mp, "--out", str(tmp_path / "c"),
                 "--cache", str(cache)]) == EXIT_OK
    assert "not written" in capsys.readouterr().err
    assert main(["--manifest", mp, "--out", str(tmp_path / "n"),
                 "--no-cache"]) == EXIT_OK
    assert _tree_bytes(str(tmp_path / "c")) == _tree_bytes(str(tmp_path / "n"))


def test_out_is_a_file_exits_schema(tmp_path, capsys):
    mp = _write_manifest(tmp_path, SOLVE_MANIFESTS["fekete"])
    out = tmp_path / "o"
    out.write_text("a regular file, not a directory")
    assert main(["--manifest", mp, "--out", str(out),
                 "--no-cache"]) == EXIT_SCHEMA
    assert "error: cannot write output" in capsys.readouterr().err


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


@pytest.mark.parametrize("field, value", [
    ("grid_n", "x"), ("grid_n", 64.5), ("grid_n", True), ("grid_n", 32),
    ("grid_n", 4096), ("grid_n", 2048),
    ("set", {"kind": "ComplexBall", "center": [[0.0, 0.0], [0.0, 0.0]],
             "radius": 0.5}),
    # spec leaves: "x" < "y", so Interval's own a < b check lets it pass
    ("set", {"kind": "Interval", "a": "x", "b": "y"}),
    ("set", {"kind": "Interval", "a": -0.5, "b": float("inf")}),
    ("disc", {"kind": "ComplexBall", "center": [[0.0, 0.0]],
              "radius": float("inf")}),
    ("disc", {"kind": "ComplexBall", "center": [[True, 0.0]],
              "radius": 1.0}),
])
def test_relative_manifest_bad_field_exits_schema(tmp_path, capsys, field,
                                                 value):
    man = {"command": "relative",
           "set": {"kind": "ComplexBall", "center": [[0.0, 0.0]],
                   "radius": 0.5},
           "disc": DISC, field: value}
    mp = _write_manifest(tmp_path, man)
    assert main(["--manifest", mp, "--out", str(tmp_path / "o")]) == EXIT_SCHEMA
    assert f"field '{field}'" in capsys.readouterr().err


SOLVE_MANIFESTS = {
    "fekete": {"command": "fekete", "spec": INTERVAL, "degrees": [2]},
    "extremal": {"command": "extremal", "spec": INTERVAL, "degree": 2,
                 "points": [[[2.0, 0.0]]]},
    "capacity": {"command": "capacity", "spec": INTERVAL,
                 "degrees": [2, 3, 4]},
}


@pytest.mark.parametrize("command, field, value", [
    (cmd, "cloud_target", v) for cmd in SOLVE_MANIFESTS
    for v in ("x", True, 0, -5, 400.5, None)
] + [
    ("fekete", "degrees", [True]), ("capacity", "degrees", [2, True, 4]),
])
def test_solve_manifest_bad_field_exits_schema(tmp_path, capsys, command,
                                               field, value):
    man = dict(SOLVE_MANIFESTS[command], **{field: value})
    mp = _write_manifest(tmp_path, man)
    assert main(["--manifest", mp, "--out", str(tmp_path / "o")]) == EXIT_SCHEMA
    assert f"field '{field}'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# extremal outputs against the per-point loop and the two-encode manifest.json
# ---------------------------------------------------------------------------

def _extremal_reference(man):
    """extremal.csv, extremal.json and manifest.json as the per-point row
    loop and the two-encode manifest.json write produced them."""
    spec = spec_from_dict(man["spec"])
    config, cloud, _ = cached_fekete(spec, man["degree"], "zero",
                                     man.get("seed", 0),
                                     man.get("cloud_target", 2001), Cache(None))
    ev = SandwichEvaluator(config, cloud)
    pts = np.array([[complex(a, b) for a, b in p] for p in man["points"]])
    lower, upper = ev.bounds(pts)
    rows = []
    for p, lo, up in zip(pts, lower, upper):
        flat = []
        for z in p:
            flat.extend([z.real, z.imag])
        rows.append(flat + [float(lo), float(up)])
    header = []
    for k in range(spec.dim):
        header.extend([f"re{k + 1}", f"im{k + 1}"])
    csv = "\n".join([",".join(header + ["lower", "upper"])]
                    + [",".join(repr(float(v)) for v in row)
                       for row in rows]) + "\n"
    doc = {"degree": man["degree"], "gamma": config.gamma, "gap": ev.gap,
           "lower": [float(x) for x in lower],
           "upper": [float(x) for x in upper]}
    h = hashlib.sha256(canonical_json_reference(man).encode()).hexdigest()
    manifest = {"manifest": man, "hash": h, "version": pllab.__version__}
    return {"extremal.csv": csv,
            "extremal.json": canonical_json_reference(doc) + "\n",
            "manifest.json": canonical_json_reference(manifest) + "\n"}


BALL2 = {"kind": "ComplexBall", "center": [[0.0, 0.0], [0.0, 0.0]],
         "radius": 1.0}
REALBALL = {"kind": "RealBall", "center": [0.0, 0.0], "radius": 1.0}
EXTREMAL_REFERENCE_CASES = {
    "disc": (DISC, [[[2, 0]], [[-0.0, 1.5]], [[1.5, -0.0]], [[-0.0, -3]],
                    [[2.0, 5e-324]], [[-1.25, 1.0 / 3.0]]]),
    "interval": (INTERVAL, [[[2, -0.0]], [[-0.0, 2.0]], [[0, 1]],
                            [[-1.5, 0.25]], [[1e3, -1e-3]]]),
    "ball2": (BALL2, [[[2, 0], [-0.0, 0.0]], [[0.0, -0.0], [1, -2]],
                      [[-0.0, 1.5], [0.5, -0.0]], [[0.3, 0.4], [1.1, -1.2]]]),
    "realball": (REALBALL, [[[2, 0], [-0.0, 0]], [[-1.5, -0.0], [1, 1]],
                            [[0.0, 0.0], [3, -0.0]]]),
    # every leaf a float: manifest.json takes the spliced points text
    "disc-float": (DISC, [[[2.0, -0.0]], [[-0.0, 1e16]], [[5e-324, 1.5]],
                          [[1e-5, -1.0 / 3.0]], [[-1.25, 1.0 / 3.0]]]),
    "ball2-float": (BALL2, [[[2.0, -0.0], [1e-5, 1.0 / 3.0]],
                            [[-0.0, 5e-324], [1e16, -0.0]],
                            [[0.3, 0.4], [-1.1, 1e-5]]]),
}


@pytest.mark.parametrize("case", list(EXTREMAL_REFERENCE_CASES))
def test_extremal_outputs_match_reference(tmp_path, case):
    spec, points = EXTREMAL_REFERENCE_CASES[case]
    man = {"command": "extremal", "spec": spec, "degree": 4,
           "points": points, "cloud_target": 401, "seed": 3}
    out = str(tmp_path / "o")
    assert main(["--manifest", _write_manifest(tmp_path, man),
                 "--out", out, "--no-cache"]) == EXIT_OK
    for name, text in _extremal_reference(man).items():
        with open(os.path.join(out, name), encoding="utf-8") as f:
            assert f.read() == text, name


ALL_FLOAT_EXTREMAL = {"command": "extremal", "spec": BALL2, "degree": 4,
                      "points": EXTREMAL_REFERENCE_CASES["ball2-float"][1],
                      "cloud_target": 401, "seed": 3}


def _tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in pathlib.Path(root).rglob("*") if p.is_file()}


def test_extremal_points_text_only_for_all_float_points(tmp_path,
                                                         monkeypatch):
    seen = []

    def spy(obj, texts=None):
        if "command" in obj:        # the manifest, not a cache key
            seen.append(texts)
        return canonical_json(obj, texts)

    monkeypatch.setattr(pllab.cli, "canonical_json", spy)
    for name, points in (("f", [[[2.0, 0.0]], [[-0.0, 1.5]]]),
                         ("i", [[[2.0, 0.0]], [[-0.0, 1]]])):
        man = {"command": "extremal", "spec": DISC, "degree": 4,
               "points": points, "cloud_target": 401}
        assert main(["--manifest", _write_manifest(tmp_path, man),
                     "--out", str(tmp_path / name), "--no-cache"]) == EXIT_OK
    assert seen == [{"points": "[[[2.0,0.0]],[[-0.0,1.5]]]"}, None]
    # an int leaf: 1 in manifest.json, 1.0 in the CSV
    assert '[[-0.0,1]]]' in (tmp_path / "i" / "manifest.json").read_text()
    assert "-0.0,1.0," in (tmp_path / "i" / "extremal.csv").read_text()


def test_extremal_all_float_miss_hit_no_cache_identical(tmp_path):
    mp = _write_manifest(tmp_path, ALL_FLOAT_EXTREMAL)
    cache = str(tmp_path / "cache")
    outs = [str(tmp_path / o) for o in ("miss", "hit", "none")]
    for out, flags in zip(outs, (["--cache", cache], ["--cache", cache],
                                 ["--no-cache"])):
        assert main(["--manifest", mp, "--out", out] + flags) == EXIT_OK
    trees = [_tree_bytes(o) for o in outs]
    assert sorted(trees[0]) == ["extremal.csv", "extremal.json",
                                "manifest.json"]
    assert trees[0] == trees[1] == trees[2]


def test_extremal_non_finite_bound_exits_numerical(tmp_path, monkeypatch):
    def nan_bounds(self, points):
        nan = np.full(len(points), np.nan)
        return nan, nan

    monkeypatch.setattr(SandwichEvaluator, "bounds", nan_bounds)
    out = tmp_path / "o"
    assert main(["--manifest", _write_manifest(tmp_path, ALL_FLOAT_EXTREMAL),
                 "--out", str(out), "--no-cache"]) == EXIT_NUMERICAL
    assert not out.exists() or os.listdir(out) == []


# ---------------------------------------------------------------------------
# extremal in row blocks: a partial last block, same bytes, clean failures
# ---------------------------------------------------------------------------

def _block_points(dim, all_float):
    """2 * BLOCK_ROWS + 17 exterior points as manifest leaves; without
    all_float every third point has int leaves."""
    rng = np.random.default_rng(7)
    count = 2 * BLOCK_ROWS + 17
    xy = rng.uniform(1.0, 2.0, (count, dim, 2)) * rng.choice([-1, 1],
                                                             (count, dim, 2))
    points = xy.tolist()
    if not all_float:
        for p in points[::3]:
            p[0] = [int(round(3 * v)) for v in p[0]]
    return points


def _exponent_points():
    """tools/same_bytes.py's EXPONENT_POINTS: float leaves that repr writes
    with an exponent or as -0.0; one list serves both checks."""
    path = pathlib.Path(__file__).resolve().parents[1] / "tools" / "same_bytes.py"
    spec = importlib.util.spec_from_file_location("same_bytes", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.EXPONENT_POINTS


@pytest.mark.parametrize("spec, all_float", [(BALL2, True), (DISC, False),
                                             (DISC, "exponents")])
def test_extremal_blocks_match_reference(tmp_path, spec, all_float):
    points = (_exponent_points() if all_float == "exponents"
              else _block_points(len(spec["center"]), all_float))
    man = {"command": "extremal", "spec": spec, "degree": 4,
           "points": points, "cloud_target": 401, "seed": 3}
    out = str(tmp_path / "o")
    assert main(["--manifest", _write_manifest(tmp_path, man),
                 "--out", out, "--no-cache"]) == EXIT_OK
    with pllab.cli._one_blas_thread():
        reference = _extremal_reference(man)
    for name, text in reference.items():
        with open(os.path.join(out, name), encoding="utf-8") as f:
            assert f.read() == text, name


def test_extremal_nan_in_last_block_leaves_no_outputs(tmp_path, monkeypatch):
    bounds, calls = SandwichEvaluator.bounds, []

    def nan_in_last_block(self, points):
        lower, upper = bounds(self, points)
        calls.append(len(points))
        upper[-1] = np.nan
        return lower, upper

    monkeypatch.setattr(SandwichEvaluator, "bounds", nan_in_last_block)
    man = {"command": "extremal", "spec": DISC, "degree": 4,
           "points": _block_points(1, True), "cloud_target": 401}
    out = tmp_path / "o"
    assert main(["--manifest", _write_manifest(tmp_path, man),
                 "--out", str(out), "--no-cache"]) == EXIT_NUMERICAL
    # one call on every point: bounds is the only loop over row blocks
    assert calls == [2 * BLOCK_ROWS + 17]
    assert os.listdir(out) == []


def test_extremal_far_point_is_named_by_its_own_index(tmp_path, capsys):
    far = BLOCK_ROWS + 5
    points = [[[2.0, 0.0]]] * (2 * BLOCK_ROWS + 17)
    points[far] = [[1e25, 0.0]]
    man = {"command": "extremal", "spec": INTERVAL, "degree": 16,
           "points": points}
    out = tmp_path / "o"
    assert main(["--manifest", _write_manifest(tmp_path, man), "--out",
                 str(out), "--no-cache"]) == EXIT_NUMERICAL
    assert not out.exists() or os.listdir(out) == []
    assert f"not finite at query point {far}:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# cache soundness and the N*M cap
# ---------------------------------------------------------------------------

def _moved_sample(shift):
    def moved(spec, target_count, seed=0):
        cloud = sample(spec, target_count, seed=seed)
        return dataclasses.replace(cloud, points=cloud.points + shift)
    return moved


def _recording_cached_fekete(monkeypatch):
    hits = []

    def recording(*args):
        result = cached_fekete(*args)
        hits.append(result[2])
        return result

    monkeypatch.setattr(pllab.cli, "cached_fekete", recording)
    return hits


def test_cache_misses_when_the_sampler_moves_the_cloud(tmp_path,
                                                       monkeypatch):
    mp = _write_manifest(tmp_path, ALL_FLOAT_EXTREMAL)
    cache = str(tmp_path / "cache")
    hits = _recording_cached_fekete(monkeypatch)
    assert main(["--manifest", mp, "--out", str(tmp_path / "before"),
                 "--cache", cache]) == EXIT_OK
    monkeypatch.setattr(pllab.fekete, "sample", _moved_sample(1e-9))
    assert main(["--manifest", mp, "--out", str(tmp_path / "moved"),
                 "--cache", cache]) == EXIT_OK
    assert main(["--manifest", mp, "--out", str(tmp_path / "none"),
                 "--no-cache"]) == EXIT_OK
    assert hits == [False, False, False]
    moved = _tree_bytes(str(tmp_path / "moved"))
    assert moved == _tree_bytes(str(tmp_path / "none"))
    assert moved != _tree_bytes(str(tmp_path / "before"))
    assert len([f for _, _, fs in os.walk(cache) for f in fs]) == 2


@pytest.mark.parametrize("version", [2, 3, 4, 5])
def test_old_version_cache_entry_is_never_replayed(tmp_path, monkeypatch,
                                                   version):
    man = {"command": "fekete", "spec": INTERVAL, "degrees": [3],
           "cloud_target": 401}
    # an older-format key (version 2 had no cloud fingerprint, version 3
    # kept no gamma, version 4 read gamma off a full Lagrange solve,
    # version 5 also held the set and the cloud size) holding
    # wrong nodes and a well-formed gamma
    key_doc = {"op": "fekete", "spec": INTERVAL, "degree": 3,
               "weight": "zero", "seed": 0, "cloud_target": 401,
               "version": version}
    if version >= 3:
        cloud = sample(spec_from_dict(INTERVAL), 401, seed=0)
        key_doc["cloud"] = hashlib.sha256(cloud.points.tobytes()).hexdigest()
    cache = str(tmp_path / "cache")
    Cache(cache).put(manifest_hash(key_doc), {
        "node_indices": [0, 1, 2, 3], "provenance": {"cloud_seed": 0},
        "accepted_swaps": 0, "gamma": 1.0, "lebesgue": 1.0})
    hits = _recording_cached_fekete(monkeypatch)
    mp = _write_manifest(tmp_path, man)
    assert main(["--manifest", mp, "--out", str(tmp_path / "c"),
                 "--cache", cache]) == EXIT_OK
    assert main(["--manifest", mp, "--out", str(tmp_path / "n"),
                 "--no-cache"]) == EXIT_OK
    assert hits == [False, False]
    assert _tree_bytes(str(tmp_path / "c")) == _tree_bytes(str(tmp_path / "n"))


def test_cache_key_holds_the_cloud_and_the_seed(tmp_path, monkeypatch):
    # an Interval cloud does not depend on the seed, but the seed is in the
    # key: the seed-2 manifest solves afresh, and a second seed-1 run hits
    cache = str(tmp_path / "cache")
    hits = _recording_cached_fekete(monkeypatch)
    for run, seed in enumerate((1, 2, 1)):
        mp = _write_manifest(tmp_path, {
            "command": "fekete", "spec": INTERVAL, "degrees": [4, 8],
            "seed": seed, "cloud_target": 401})
        cached, plain = tmp_path / f"c{run}", tmp_path / f"n{run}"
        assert main(["--manifest", mp, "--out", str(cached),
                     "--cache", cache]) == EXIT_OK
        assert main(["--manifest", mp, "--out", str(plain),
                     "--no-cache"]) == EXIT_OK
        assert _tree_bytes(str(cached)) == _tree_bytes(str(plain))
    assert hits == [False] * 8 + [True, True, False, False]
    doc = json.loads((tmp_path / "c1" / "fekete.json").read_text())
    assert [c["provenance"]["cloud_seed"] for c in doc["configs"]] == [2, 2]
    # the key holds what the solve reads and the seed, the entry what the
    # solve computed
    cloud = sample(spec_from_dict(INTERVAL), 401, seed=1)
    for seed in (1, 2):
        for d in (4, 8):
            entry = Cache(cache).get(manifest_hash({
                "op": "fekete", "n": 1, "degree": d, "weight": "zero",
                "seed": seed, "cloud": cloud.fingerprint, "version": 6}))
            assert set(entry) == {"node_indices", "accepted_swaps", "gamma",
                                  "lebesgue"}
    assert len([f for _, _, fs in os.walk(cache) for f in fs]) == 4


@pytest.mark.parametrize("command, rebuilds", [
    ("fekete", 0), ("capacity", 0), ("extremal", 1)])
def test_cache_hit_replays_gamma_and_rebuilds_only_to_certify(
        tmp_path, monkeypatch, command, rebuilds):
    # a fekete or capacity hit replays the stored gamma and lebesgue; an
    # extremal hit recomputes them once, with the basis its bracket needs
    calls = {"orthonormal_basis": 0, "quality_gamma": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        wrapped = counting(name, getattr(pllab.fekete, name))
        monkeypatch.setattr(pllab.fekete, name, wrapped)
        if name == "quality_gamma":
            monkeypatch.setattr(pllab.extremal, name, wrapped)
    mp = _write_manifest(tmp_path, SOLVE_MANIFESTS[command])
    cache = str(tmp_path / "cache")
    assert main(["--manifest", mp, "--out", str(tmp_path / "miss"),
                 "--cache", cache]) == EXIT_OK
    hits = _recording_cached_fekete(monkeypatch)
    calls.update(dict.fromkeys(calls, 0))
    assert main(["--manifest", mp, "--out", str(tmp_path / "hit"),
                 "--cache", cache]) == EXIT_OK
    assert hits and all(hits)
    assert calls == {"orthonormal_basis": rebuilds, "quality_gamma": rebuilds}
    assert (_tree_bytes(str(tmp_path / "hit"))
            == _tree_bytes(str(tmp_path / "miss")))


@pytest.mark.parametrize("command, fields, extra", [
    ("fekete", ["degrees"], {"degrees": [5000]}),
    ("capacity", ["degrees"], {"degrees": [2, 3, 5000]}),
    ("extremal", ["degree"], {"degree": 5000}),
    # comb(102, 2) = 5151 basis functions in C^2
    ("extremal", ["degree"], {"spec": BALL2, "degree": 100,
                              "points": [[[2.0, 0.0], [0.0, 0.0]]]}),
    ("fekete", ["degrees", "cloud_target"],
     {"degrees": [20], "cloud_target": 10 ** 7}),
    ("extremal", ["degree", "cloud_target"], {"cloud_target": 4 * 10 ** 6}),
    ("capacity", ["degrees", "cloud_target"], {"cloud_target": 3 * 10 ** 6}),
    # 5151 basis functions on max(4N, 600) and max(4N, 800) points
    ("scan-regularity", ["degree"], {"spec": BALL2, "degree": 100,
                                     "anchor": [[0.0, 0.0], [0.0, 0.0]]}),
    ("localize", ["degree"], {"spec": BALL2, "degree": 100,
                              "anchor": [[0.0, 0.0], [0.0, 0.0]]}),
    # N = 5001 on max(4N, 2001) points at the top degree
    ("equidist", ["degrees"], {"degrees": [1, 2, 3, 5000]}),
])
def test_basis_cloud_cap_exits_schema_before_sampling(tmp_path, capsys,
                                                      sample_fails, command,
                                                      fields, extra):
    man = dict(SEEDED_MANIFESTS[command], **extra)
    assert main(["--manifest", _write_manifest(tmp_path, man), "--out",
                 str(tmp_path / "o"), "--no-cache"]) == EXIT_SCHEMA
    err = capsys.readouterr().err
    for field in fields:
        assert f"field '{field}'" in err


def test_basis_cloud_cap_boundary():
    # N = 2 at degree 1 in C^1: M up to half the cap passes
    at_cap = {"command": "fekete", "spec": INTERVAL, "degrees": [1],
              "cloud_target": MAX_BASIS_CLOUD // 2}
    validate_manifest(at_cap)
    with pytest.raises(ManifestError, match="field 'cloud_target'"):
        validate_manifest(dict(at_cap, cloud_target=MAX_BASIS_CLOUD // 2 + 1))
    # a C^2 solve at degree 12 on 4000 points (3.6e5 entries) is far below
    validate_manifest({"command": "extremal", "spec": BALL2, "degree": 12,
                       "cloud_target": 4000, "points": [[[2.0, 0.0]] * 2]})
    # equidist: N = d + 1 on 4N points, and 4 * 1581**2 <= 10**7 < 4 * 1582**2
    validate_manifest(dict(EQUIDIST, degrees=[1, 2, 3, 1580]))
    with pytest.raises(ManifestError, match="field 'degrees'"):
        validate_manifest(dict(EQUIDIST, degrees=[1, 2, 3, 1581]))


def test_manifest_json_matches_two_encode_write(tmp_path):
    # keys out of order, non-ASCII text, -0.0 and special floats
    man = {"seed": 7, "degrees": [3], "spec": INTERVAL, "command": "fekete",
           "note": "λ–✓", "extra": [-0.0, 5e-324, 1e300, {"b": 1, "a": 2}]}
    out = str(tmp_path / "o")
    assert main(["--manifest", _write_manifest(tmp_path, man),
                 "--out", out, "--no-cache"]) == EXIT_OK
    h = hashlib.sha256(canonical_json_reference(man).encode()).hexdigest()
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as f:
        assert f.read() == canonical_json_reference(
            {"manifest": man, "hash": h,
             "version": pllab.__version__}) + "\n"
    assert manifest_hash(man) == h


# ---------------------------------------------------------------------------
# manifest boundary: nested fields exit 2 and name the field
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec, points", [
    (DISC, [[2.0]]), (DISC, [[["x", 0.0]]]), (DISC, [[[True, 0.0]]]),
    (DISC, [[[2.0, False]]]), (DISC, [[[2.0, None]]]),
    (DISC, [[[2.0, 0.0], [1.0, 0.0]]]), (DISC, [[]]), (DISC, []),
    (DISC, [[[2.0, 0.0, 1.0]]]), (DISC, [[[2.0]]]), (DISC, "x"),
    (DISC, [[[float("nan"), 0.0]]]), (DISC, [[[2.0, float("inf")]]]),
    (DISC, [[[10 ** 400, 0.0]]]), (DISC, [[[2.0, 0.0]], [[1.0, 0.0], 5]]),
    (DISC, [[[2.0, 0.0]], [[1.0, 0.0]], [[1.0, "0"]]]),
    (DISC, [{"re": 2.0, "im": 0.0}]),
    (BALL2, [[[2.0, 0.0]]]), (BALL2, [[[2.0, 0.0], [1.0, 0.0], [0.0, 0.0]]]),
    (BALL2, [[[2.0, 0.0], [True, 0.0]]]),
])
def test_extremal_bad_points_exit_schema(tmp_path, capsys, spec, points):
    man = {"command": "extremal", "spec": spec, "degree": 2,
           "points": points, "cloud_target": 401}
    mp = _write_manifest(tmp_path, man)
    assert main(["--manifest", mp, "--out", str(tmp_path / "o"),
                 "--no-cache"]) == EXIT_SCHEMA
    assert "field 'points'" in capsys.readouterr().err


SCALAR_DEGREE_MANIFESTS = {
    "extremal": SOLVE_MANIFESTS["extremal"],
    "scan-regularity": {"command": "scan-regularity", "spec": INTERVAL,
                        "anchor": [[1.0, 0.0]], "radii": [0.5, 0.25],
                        "delta_grid": [0.1 * 0.7 ** k for k in range(8)],
                        "degree": 4},
    "localize": {"command": "localize", "spec": DISC,
                 "anchor": [[1.0, 0.0]], "radius": 0.3, "degree": 4},
}


@pytest.mark.parametrize("command", list(SCALAR_DEGREE_MANIFESTS))
@pytest.mark.parametrize("degree", [True, False, 0, 2.0, "4"])
def test_scalar_degree_exits_schema(tmp_path, capsys, command, degree):
    man = dict(SCALAR_DEGREE_MANIFESTS[command], degree=degree)
    mp = _write_manifest(tmp_path, man)
    assert main(["--manifest", mp, "--out", str(tmp_path / "o")]) == EXIT_SCHEMA
    assert "field 'degree'" in capsys.readouterr().err


SIX_DELTAS = [0.1, 0.07, 0.05, 0.035, 0.025, 0.017]
GEOMETRIC_DELTAS = [0.1 * 0.7 ** k for k in range(6)]


@pytest.mark.parametrize("command, field, value", [
    ("scan-regularity", "anchor", [["x", 0]]),
    ("scan-regularity", "anchor", [[1.0, 0.0], [0.0, 0.0]]),
    ("scan-regularity", "anchor", []),
    ("scan-regularity", "anchor", [[True, 0.0]]),
    ("scan-regularity", "anchor", [[float("nan"), 0.0]]),
    ("scan-regularity", "anchor", [[1.0]]),
    ("scan-regularity", "anchor", [1.0, 0.0]),
    ("scan-regularity", "radii", ["x"]),
    ("scan-regularity", "radii", []),
    ("scan-regularity", "radii", [0.5, 0]),
    ("scan-regularity", "radii", [-0.25]),
    ("scan-regularity", "radii", [True]),
    ("scan-regularity", "radii", [float("inf")]),
    ("scan-regularity", "radii", [10 ** 400]),
    ("scan-regularity", "radii", 0.5),
    ("scan-regularity", "delta_grid", ["a"] + SIX_DELTAS[1:]),
    ("scan-regularity", "delta_grid", SIX_DELTAS[:5]),
    ("scan-regularity", "delta_grid", SIX_DELTAS[:5] + [0.0]),
    ("scan-regularity", "delta_grid", SIX_DELTAS[:5] + [None]),
    ("scan-regularity", "delta_grid", SIX_DELTAS[:5] + [float("nan")]),
    ("localize", "anchor", [["x", 0]]),
    ("localize", "anchor", [[1.0, 0.0], [0.0, 0.0]]),
    ("localize", "anchor", [[1.0, None]]),
    ("localize", "radius", True),
    ("localize", "radius", 0),
    ("localize", "radius", -0.3),
    ("localize", "radius", "0.3"),
    ("localize", "radius", float("inf")),
    ("localize", "radius", None),
    # not geometric with ratio <= 0.7: 0.025 / 0.035 > 0.7
    ("scan-regularity", "delta_grid", SIX_DELTAS),
    ("scan-regularity", "delta_grid", GEOMETRIC_DELTAS[:5]
     + [GEOMETRIC_DELTAS[4]]),
    # finite, but not a point of the set
    ("scan-regularity", "anchor", [[3.0, 0.0]]),
    ("localize", "anchor", [[3.0, 0.0]]),
])
def test_scan_and_localize_bad_field_exits_schema(tmp_path, capsys,
                                                  monkeypatch, command,
                                                  field, value):
    def no_solve(*args, **kwargs):
        raise AssertionError("a bad manifest reached the solver")

    for mod in (pllab.fekete, pllab.cli):
        monkeypatch.setattr(mod, "solve_fekete", no_solve)
    man = dict(SCALAR_DEGREE_MANIFESTS[command], **{field: value})
    mp = _write_manifest(tmp_path, man)
    assert main(["--manifest", mp, "--out", str(tmp_path / "o"),
                 "--no-cache"]) == EXIT_SCHEMA
    assert f"field '{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["scan-regularity", "localize"])
def test_scan_and_localize_replay_from_the_cache(tmp_path, monkeypatch,
                                                 command):
    solves = []

    def counting(*args):
        solves.append(args)
        return solve_fekete(*args)

    monkeypatch.setattr(pllab.fekete, "solve_fekete", counting)
    mp = _write_manifest(tmp_path, SCALAR_DEGREE_MANIFESTS[command])
    cache = str(tmp_path / "cache")
    trees, counts = [], []
    for mode, flags in (("none", ["--no-cache"]), ("miss", ["--cache", cache]),
                        ("hit", ["--cache", cache])):
        before = len(solves)
        assert main(["--manifest", mp, "--out", str(tmp_path / mode)]
                    + flags) == EXIT_OK
        trees.append(_tree_bytes(str(tmp_path / mode)))
        counts.append(len(solves) - before)
    assert trees[0] == trees[1] == trees[2]
    # one configuration per kept radius; the full set and K cap B(a, r)
    configs = (len(json.loads(trees[0]["hcp_report.json"])["radii"])
               if command == "scan-regularity" else 2)
    assert len([f for _, _, fs in os.walk(cache) for f in fs]) == configs
    assert counts == [configs, configs, 0]


@pytest.mark.parametrize("radii", [[1e-300], [5e-324]])
def test_scan_every_radius_dropped_exits_numerical(tmp_path, capsys, radii):
    man = dict(SCALAR_DEGREE_MANIFESTS["scan-regularity"], radii=radii)
    out = tmp_path / "o"
    assert main(["--manifest", _write_manifest(tmp_path, man), "--out",
                 str(out), "--no-cache"]) == EXIT_NUMERICAL
    assert "every radius was dropped" in capsys.readouterr().err
    assert not (out / "hcp_scan.csv").exists()


def test_scan_one_radius_kept_exits_ok(tmp_path):
    man = dict(SCALAR_DEGREE_MANIFESTS["scan-regularity"], radii=[1e-300, 0.5])
    out = tmp_path / "o"
    assert main(["--manifest", _write_manifest(tmp_path, man), "--out",
                 str(out), "--no-cache"]) == EXIT_OK
    doc = json.loads((out / "hcp_report.json").read_text())
    assert doc["radii"] == [0.5] and doc["dropped_radii"] == [1e-300]
    assert (out / "hcp_scan.csv").read_text().count("\n") == 2


def test_extremal_overflowing_point_exits_numerical(tmp_path, capsys):
    man = {"command": "extremal", "spec": INTERVAL, "degree": 16,
           "points": [[[1e25, 0.0]]]}
    out = tmp_path / "o"
    assert main(["--manifest", _write_manifest(tmp_path, man), "--out",
                 str(out), "--no-cache"]) == EXIT_NUMERICAL
    assert not (out / "extremal.csv").exists()
    assert "not finite at query point 0:" in capsys.readouterr().err


def test_extremal_large_point_brackets_exact(tmp_path):
    man = {"command": "extremal", "spec": INTERVAL, "degree": 16,
           "points": [[[1e18, 0.0]]]}
    out = tmp_path / "o"
    assert main(["--manifest", _write_manifest(tmp_path, man), "--out",
                 str(out), "--no-cache"]) == EXIT_OK
    doc = json.loads((out / "extremal.json").read_text())
    exact = exact_extremal(spec_from_dict(INTERVAL), 1e18)
    assert doc["lower"][0] <= exact <= doc["upper"][0]


EQUIDIST = {"command": "equidist", "spec": INTERVAL,
            "degrees": [2, 4, 6, 8],
            "measure": {"kind": "arcsine", "a": -1.0, "b": 1.0},
            "test_function": {"kind": "polynomial",
                              "coefficients": [[0.0, 0.0], [1.0, 0.0]]}}


@pytest.mark.parametrize("field, doc", [
    ("measure", {"kind": "arcsine", "b": 1.0}),
    ("measure", {"kind": "arcsine", "a": "x", "b": 1.0}),
    ("measure", {"kind": "arcsine", "a": -1.0, "b": None}),
    ("measure", {"kind": "arcsine", "a": True, "b": 2.0}),
    ("measure", {"kind": "arcsine", "a": 1.0, "b": -1.0}),
    ("measure", {"kind": "arcsine", "a": -1.0, "b": float("inf")}),
    ("measure", {"kind": "uniform-circle", "center": [0.0, 0.0]}),
    ("measure", {"kind": "uniform-circle", "center": "x", "radius": 1.0}),
    ("measure", {"kind": "uniform-circle", "center": [], "radius": 1.0}),
    ("measure", {"kind": "uniform-circle", "center": [0.0, 0.0, 1.0],
                 "radius": 1.0}),
    ("measure", {"kind": "uniform-circle", "center": [0.0, None],
                 "radius": 1.0}),
    ("measure", {"kind": "uniform-circle", "center": [0.0, 0.0],
                 "radius": "1"}),
    ("measure", {"kind": "uniform-circle", "center": [0.0, 0.0],
                 "radius": -1.0}),
    ("measure", {"kind": "gaussian"}),
    ("test_function", {"kind": "polynomial"}),
    ("test_function", {"kind": "polynomial", "coefficients": [["x", 0.0]]}),
    ("test_function", {"kind": "polynomial", "coefficients": [[1.0]]}),
    ("test_function", {"kind": "polynomial", "coefficients": []}),
    ("test_function", {"kind": "polynomial", "coefficients": 3}),
    ("test_function", {"kind": "tabulated", "grid": [-1.0, 1.0]}),
    ("test_function", {"kind": "tabulated", "grid": ["x"], "values": [1.0]}),
    ("test_function", {"kind": "tabulated", "grid": [-1.0, 1.0],
                       "values": [0.0, None]}),
    ("test_function", {"kind": "tabulated", "grid": [-1.0, 0.0, 1.0],
                       "values": [0.0, 1.0]}),
    ("test_function", {}),
] + [("alpha_prime", v) for v in ("x", None, True, 0, -0.5, float("inf"),
                                  float("nan"), [0.5])] + [
    ("degrees", [2, 4, 6]),
    ("degrees", [2, 4, 4, 8]),
    ("degrees", [8, 6, 4, 2]),
    ("spec", BALL2),
    ("spec", REALBALL),
    # np.interp would read a grid out of order as if it were sorted
    ("test_function", {"kind": "tabulated", "grid": [-1.0, 0.5, 0.0, 1.0],
                       "values": [0.0, 1.0, 2.0, 3.0]}),
    ("test_function", {"kind": "tabulated", "grid": [-1.0, 0.0, 0.0, 1.0],
                       "values": [0.0, 1.0, 2.0, 3.0]}),
])
def test_equidist_bad_doc_exits_schema(tmp_path, capsys, sample_fails, field,
                                       doc):
    man = dict(EQUIDIST, **{field: doc})
    mp = _write_manifest(tmp_path, man)
    assert main(["--manifest", mp, "--out", str(tmp_path / "o")]) == EXIT_SCHEMA
    assert f"field '{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("field, doc, says", [
    ("measure", {"kind": "arcsine", "a": "x", "b": 1.0},
     "field 'measure' is invalid: 'a' must be "),
    ("measure", {"kind": "arcsine", "b": 1.0},
     "field 'measure' is invalid: missing 'a'"),
    ("test_function", {"kind": "tabulated", "grid": ["x"], "values": [1.0]},
     "field 'test_function' is invalid: 'grid' must be "),
])
def test_equidist_bad_leaf_reads_like_a_spec_leaf(tmp_path, capsys,
                                                  sample_fails, field, doc,
                                                  says):
    mp = _write_manifest(tmp_path, dict(EQUIDIST, **{field: doc}))
    assert main(["--manifest", mp, "--out", str(tmp_path / "o")]) == EXIT_SCHEMA
    assert says in capsys.readouterr().err


def test_equidist_circle_center_real_or_pair(tmp_path):
    outs = []
    for center in ([0.0], [0.0, 0.0]):
        man = dict(EQUIDIST, spec=DISC, measure={
            "kind": "uniform-circle", "center": center, "radius": 1.0})
        out = str(tmp_path / f"o{len(center)}")
        assert main(["--manifest", _write_manifest(tmp_path, man),
                     "--out", out, "--no-cache"]) == EXIT_OK
        with open(os.path.join(out, "rate_fit.json")) as f:
            outs.append(f.read())
    assert outs[0] == outs[1]


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


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    # a C^2 ball solve whose lebesgue moved in its last digit between one
    # and two BLAS threads before the CLI pinned one
    man = {"command": "fekete", "spec": {
        "kind": "ComplexBall", "center": [[0.0, 0.0], [0.0, 0.0]],
        "radius": 1.0}, "degrees": [6], "cloud_target": 1000, "seed": 653343}
    mp = _write_manifest(tmp_path, man)
    trees = []
    for threads in ("1", "2"):
        out = str(tmp_path / f"t{threads}")
        res = subprocess.run([sys.executable, "-m", "pllab.cli", "--manifest",
                              mp, "--out", out, "--no-cache"],
                             capture_output=True, text=True,
                             env=_child_env(OPENBLAS_NUM_THREADS=threads))
        assert res.returncode == 0, res.stderr
        trees.append(_tree_bytes(out))
    assert trees[0] == trees[1]


def test_console_script_help():
    res = subprocess.run([sys.executable, "-m", "pllab.cli", "--help"],
                         capture_output=True, text=True, env=_child_env())
    assert res.returncode == 0
    assert "--manifest" in res.stdout


# ---------------------------------------------------------------------------
# spec leaves, seed, weight and alpha_prime are checked before any sample
# ---------------------------------------------------------------------------

def _no_sample(*args, **kwargs):
    raise AssertionError("a bad manifest reached sample")


@pytest.fixture
def sample_fails(monkeypatch):
    for mod in (pllab.cli, pllab.fekete, pllab.equidist):
        monkeypatch.setattr(mod, "sample", _no_sample)
    monkeypatch.setattr(pllab.cli, "relative_extremal_1c", _no_sample)


# "x" < "y", [0] < [1] and False < True: Interval's a < b check passes them
BAD_SPECS = [
    {"kind": "Interval", "a": "x", "b": "y"},
    {"kind": "Interval", "a": [0], "b": [1]},
    {"kind": "Interval", "a": False, "b": True},
    {"kind": "Interval", "a": float("-inf"), "b": 1.0},
    {"kind": "Interval", "a": -1.0, "b": 10 ** 400},
    {"kind": "Interval", "a": -1.0},
    {"kind": "ComplexBall", "center": [[0.0, 0.0]], "radius": float("inf")},
    {"kind": "ComplexBall", "center": [[0.0, "0"]], "radius": 1.0},
    {"kind": "ComplexBall", "center": [[0.0]], "radius": 1.0},
    {"kind": "RealBall", "center": ["x", 0], "radius": 1.0},
    {"kind": "RealBall", "center": [], "radius": 1.0},
    {"kind": "Box", "intervals": [["a", "b"]]},
    {"kind": "Box", "intervals": [[0.0, 1.0], [0.0, float("nan")]]},
    {"kind": "ConvexHull", "vertices": [[[0.0, 0.0]], [[1.0, None]]]},
    {"kind": "Cusp", "h_coeffs": [[0.0, 1.0], [0.0]], "M": 0.5, "m": 2.5},
    {"kind": "Cusp", "h_coeffs": [[0.0, 1.0], [0.0]], "M": 0.5, "m": True},
    {"kind": "Cusp", "h_coeffs": [[0.0, 1.0], [0.0]], "M": 0.5, "m": 2,
     "degree_bound": 1.5},
    {"kind": "Cusp", "h_coeffs": [[0.0, "1"], [0.0]], "M": 0.5, "m": 2},
    {"kind": "AffineImage", "inner": INTERVAL, "matrix": [[2.0, 0.0]],
     "shift": [[float("inf"), 0.0]]},
    {"kind": "AffineImage", "inner": INTERVAL,
     "matrix": [[2.0, 0.0], [1.0, 0.0]], "shift": [[0.0, 0.0]]},
    {"kind": "Union", "parts": [INTERVAL, {"kind": "Interval", "a": 2.0,
                                           "b": "3"}]},
    {"kind": "Union", "parts": [INTERVAL, 5]},
    {"kind": "BallIntersection", "inner": "x", "center": [[0.0, 0.0]],
     "radius": 0.5},
    {"kind": "BallIntersection", "inner": INTERVAL, "center": [[0.0, 0.0]],
     "radius": False},
]


@pytest.mark.parametrize("spec", BAD_SPECS)
def test_bad_spec_leaf_exits_schema(tmp_path, capsys, sample_fails, spec):
    man = {"command": "fekete", "spec": spec, "degrees": [2]}
    assert main(["--manifest", _write_manifest(tmp_path, man), "--out",
                 str(tmp_path / "o"), "--no-cache"]) == EXIT_SCHEMA
    assert "field 'spec'" in capsys.readouterr().err


def _nested_interval(levels):
    """Interval(-1, 1) inside levels trivial BallIntersection levels."""
    spec = INTERVAL
    for _ in range(levels):
        spec = {"kind": "BallIntersection", "inner": spec,
                "center": [[0.0, 0.0]], "radius": 2.0}
    return spec


@pytest.mark.parametrize("levels", [MAX_NESTING + 1, 20, 600])
def test_deeply_nested_spec_exits_schema_before_sampling(
        tmp_path, capsys, sample_fails, levels):
    # 20 levels used to sample past 1.7 GB; 600 hit the recursion limit
    man = {"command": "fekete", "spec": _nested_interval(levels),
           "degrees": [2], "cloud_target": 50}
    out = tmp_path / "o"
    assert main(["--manifest", _write_manifest(tmp_path, man), "--out",
                 str(out), "--no-cache"]) == EXIT_SCHEMA
    assert "field 'spec' is invalid: set specs nest" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field", ["set", "disc"])
def test_deeply_nested_relative_spec_names_its_field(tmp_path, capsys,
                                                      sample_fails, field):
    nested = {"kind": "AffineImage", "inner": DISC, "matrix": [[1.0, 0.0]],
              "shift": [[0.0, 0.0]]}
    for _ in range(MAX_NESTING):
        nested = {"kind": "Union", "parts": [nested]}
    man = dict({"command": "relative",
                "set": {"kind": "ComplexBall", "center": [[0.0, 0.0]],
                        "radius": 0.5}, "disc": DISC}, **{field: nested})
    assert main(["--manifest", _write_manifest(tmp_path, man), "--out",
                 str(tmp_path / "o")]) == EXIT_SCHEMA
    assert f"field '{field}' is invalid: set specs nest" in \
        capsys.readouterr().err


def test_spec_nested_to_the_cap_runs(tmp_path):
    man = {"command": "fekete", "spec": _nested_interval(MAX_NESTING),
           "degrees": [2], "cloud_target": 50}
    assert main(["--manifest", _write_manifest(tmp_path, man), "--out",
                 str(tmp_path / "o"), "--no-cache"]) == EXIT_OK


SEEDED_MANIFESTS = dict(SOLVE_MANIFESTS, disc={
    "command": "fekete", "spec": DISC, "degrees": [2]},
    equidist=EQUIDIST, **SCALAR_DEGREE_MANIFESTS)


@pytest.mark.parametrize("name", sorted(SEEDED_MANIFESTS))
@pytest.mark.parametrize("seed", ["x", None, [1], True, False, 1.0, 10 ** 400])
def test_bad_seed_exits_schema(tmp_path, capsys, sample_fails, name, seed):
    man = dict(SEEDED_MANIFESTS[name], seed=seed)
    assert main(["--manifest", _write_manifest(tmp_path, man), "--out",
                 str(tmp_path / "o"), "--no-cache"]) == EXIT_SCHEMA
    assert "field 'seed'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fekete", "extremal"])
@pytest.mark.parametrize("weight", ["uniform", "", 0, True, ["zero"],
                                    {"kind": "zero"}])
def test_bad_weight_exits_schema_before_sampling(tmp_path, capsys,
                                                 sample_fails, command,
                                                 weight):
    man = dict(SOLVE_MANIFESTS[command], weight=weight)
    assert main(["--manifest", _write_manifest(tmp_path, man), "--out",
                 str(tmp_path / "o"), "--no-cache"]) == EXIT_SCHEMA
    assert "field 'weight'" in capsys.readouterr().err


def test_null_and_absent_weight_mean_zero(tmp_path):
    trees = []
    for name, extra in (("absent", {}), ("null", {"weight": None}),
                        ("zero", {"weight": "zero"})):
        man = dict(SOLVE_MANIFESTS["fekete"], cloud_target=401, **extra)
        out = tmp_path / name
        assert main(["--manifest", _write_manifest(tmp_path, man), "--out",
                     str(out), "--no-cache"]) == EXIT_OK
        trees.append((out / "fekete.json").read_bytes())
    assert trees[0] == trees[1] == trees[2]


def test_validate_returns_runner_arguments():
    args = validate_manifest({"command": "extremal", "spec": DISC,
                              "degree": 3, "points": [[[2, -0.0]]]})
    assert (args.degree, args.seed, args.cloud_target, args.weight) == (
        3, 0, 2001, "zero")
    assert args.xy.shape == (1, 1, 2) and not args.all_float
    scan = validate_manifest(SCALAR_DEGREE_MANIFESTS["scan-regularity"])
    assert scan.anchor == [1 + 0j] and scan.seed == 11
    assert validate_manifest(SCALAR_DEGREE_MANIFESTS["localize"]).seed == 5
    assert validate_manifest(EQUIDIST).alpha_prime == 0.5
    rel = validate_manifest({"command": "relative", "set": INTERVAL,
                             "disc": DISC})
    assert rel.grid_n == 256 and not hasattr(rel, "seed")


# ---------------------------------------------------------------------------
# the N*M cap on scan-regularity and localize, at their own cloud sizes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command", ["scan-regularity", "localize"])
def test_scan_basis_cloud_cap_boundary(command):
    floor = {"scan-regularity": HCP_CLOUD_FLOOR,
             "localize": LOCALIZE_CLOUD_FLOOR}[command]
    man = dict(SCALAR_DEGREE_MANIFESTS[command], spec=BALL2,
               anchor=[[0.0, 0.0], [0.0, 0.0]])
    # C^2 at degree 54: N = 1540, M = 4N = 6160, N*M = 9.49e6 passes
    assert scan_cloud_target(1540, floor) == 6160
    validate_manifest(dict(man, degree=54))
    # degree 55: N = 1596, M = 6384, N*M = 1.02e7 is over
    with pytest.raises(ManifestError, match="field 'degree' is invalid"):
        validate_manifest(dict(man, degree=55))
    # C^1 at degree 1580: N = 1581, 4N^2 = 9.998e6; degree 1581 is over
    c1 = dict(man, spec=INTERVAL, anchor=[[0.0, 0.0]])
    validate_manifest(dict(c1, degree=1580))
    with pytest.raises(ManifestError, match="field 'degree' is invalid"):
        validate_manifest(dict(c1, degree=1581))


# ---------------------------------------------------------------------------
# start-up: a process loads only the scipy subpackages its command uses
# ---------------------------------------------------------------------------

LAZY = ("scipy.special", "scipy.optimize", "scipy.spatial", "scipy.sparse")


def _lazy_loaded(code):
    """The subpackages in LAZY that a fresh interpreter holds after code."""
    probe = (f"{code}\nimport sys\n"
             f"print(*[m for m in {LAZY!r} if m in sys.modules])\n")
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, env=_child_env())
    assert res.returncode == 0, res.stderr
    return set(res.stdout.split())


def _cli_run(tmp_path, man):
    """Code that runs man through cli.main, with a check that it exits 0."""
    mp = _write_manifest(tmp_path, man)
    out = str(tmp_path / "o")
    return ("from pllab import cli\n"
            f"assert cli.main(['--manifest', {mp!r}, '--out', {out!r}, "
            "'--no-cache']) == 0\n")


def test_cli_loads_no_lazy_subpackage(tmp_path):
    assert _lazy_loaded("import pllab.cli") == set()
    assert _lazy_loaded(_cli_run(tmp_path, SOLVE_MANIFESTS["fekete"])) == set()


# the one code path that needs each subpackage, as a manifest for cli.main
# or as code that checks its own result
LAZY_PATHS = {
    "scipy.sparse": {"command": "relative", "set": {
        "kind": "ComplexBall", "center": [[0.0, 0.0]], "radius": 0.5},
        "disc": DISC, "grid_n": 64},
    "scipy.special": EQUIDIST,
    "scipy.optimize": (
        "from pllab.geometry import ConvexHull, contains\n"
        "hull = ConvexHull(((0j,), (1 + 0j,), (1j,)))\n"
        "assert contains(hull, [0.25 + 0.25j])\n"
        "assert not contains(hull, [1 + 1j])\n"),
}


@pytest.mark.parametrize("subpackage", sorted(LAZY_PATHS))
def test_lazy_path_loads_only_its_subpackage(tmp_path, subpackage):
    code = LAZY_PATHS[subpackage]
    if isinstance(code, dict):
        code = _cli_run(tmp_path, code)
    loaded = _lazy_loaded(code)
    assert subpackage in loaded
    # scipy.optimize itself imports special, spatial and sparse
    assert loaded == _lazy_loaded(f"import {subpackage}")
