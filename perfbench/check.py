"""Output checks and oracle figures for one manifest's ``--out`` directory.

Every value is read back from the files the CLI wrote; nothing is taken from
library objects.  The only library calls are the set parser and the
closed-form oracle ``geometry.exact_extremal``, which the checks compare
against.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

from pllab.geometry import exact_extremal, spec_from_dict

GAP_TOL = 1e-12
GAMMA_FLOOR = 1.0 - 1e-9
ORACLE_TOL = 1e-9
CLOSED_FORM_KINDS = ("Interval", "ComplexBall", "RealBall")


class CheckFailed(Exception):
    """A structural check on the outputs failed; the message says which."""


def expected_files(manifest):
    cmd = manifest["command"]
    files = {
        "fekete": ["fekete.json"] + [f"fekete_nodes_d{d}.csv"
                                     for d in manifest.get("degrees", [])],
        "extremal": ["extremal.csv", "extremal.json"],
        "relative": ["relative.json", "relative_field.csv",
                     "relative_field.svg"],
        "scan-regularity": ["hcp_report.json", "hcp_scan.csv"],
        "localize": ["localize.json"],
        "capacity": ["capacity.json"],
        "equidist": ["rate_fit.json", "rate.csv"],
    }[cmd]
    return files + ["manifest.json"]


def digest(outdir):
    """sha256 of every file under outdir, keyed by relative path."""
    out = {}
    for root, _, names in os.walk(outdir):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, outdir)] = hashlib.sha256(
                    f.read()).hexdigest()
    return out


def _load_json(outdir, name):
    with open(os.path.join(outdir, name)) as f:
        return json.load(f)


def _read_csv(outdir, name):
    with open(os.path.join(outdir, name), newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def _check_gamma(gamma, where):
    if gamma is None or not math.isfinite(gamma) or gamma < GAMMA_FLOOR:
        raise CheckFailed(f"{where}: gamma {gamma!r} is not finite and >= 1")


def _exact_capacity(spec):
    if spec["kind"] == "Interval":
        return 0.25 * (spec["b"] - spec["a"])
    if spec["kind"] == "ComplexBall" and len(spec["center"]) == 1:
        return spec["radius"]
    return None


def inspect(manifest, outdir):
    """Run every structural check on outdir; return the oracle figures.

    Raises CheckFailed on a missing file or a failed check.  The returned
    dict may hold ``log_gammas`` (list), ``oracle`` ((misses, points)),
    ``capacity_rel_err`` and ``field_oracle_err``.
    """
    for name in expected_files(manifest):
        if not os.path.isfile(os.path.join(outdir, name)):
            raise CheckFailed(f"expected file {name} is missing")
    cmd = manifest["command"]
    if cmd == "fekete":
        return _inspect_fekete(manifest, outdir)
    if cmd == "extremal":
        return _inspect_extremal(manifest, outdir)
    if cmd == "relative":
        return _inspect_relative(manifest, outdir)
    if cmd == "capacity":
        return _inspect_capacity(manifest, outdir)
    for name in expected_files(manifest):
        if name.endswith(".json"):
            _load_json(outdir, name)
    return {}


def _inspect_fekete(manifest, outdir):
    doc = _load_json(outdir, "fekete.json")
    configs = doc["configs"]
    if [c["d"] for c in configs] != list(manifest["degrees"]):
        raise CheckFailed("fekete.json degrees differ from the manifest")
    for cfg in configs:
        n, d = cfg["n"], cfg["d"]
        _check_gamma(cfg["gamma"], f"fekete degree {d}")
        _, rows = _read_csv(outdir, f"fekete_nodes_d{d}.csv")
        if len(cfg["nodes"]) != math.comb(n + d, n) or len(rows) != len(cfg["nodes"]):
            raise CheckFailed(f"fekete degree {d}: node count is not C(n+d, n)")
    return {"log_gammas": [math.log(c["gamma"]) for c in configs]}


def _inspect_extremal(manifest, outdir):
    doc = _load_json(outdir, "extremal.json")
    d = manifest["degree"]
    points = manifest["points"]
    n = len(points[0])
    gamma = doc["gamma"]
    _check_gamma(gamma, "extremal")
    gap = math.log(math.comb(n + d, n) * gamma) / d
    lower, upper = doc["lower"], doc["upper"]
    if len(lower) != len(points) or len(upper) != len(points):
        raise CheckFailed(f"extremal.json has {len(lower)} bounds for "
                          f"{len(points)} query points")
    if abs(doc["gap"] - gap) > GAP_TOL:
        raise CheckFailed(f"gap {doc['gap']!r} != log(N gamma)/d = {gap!r}")
    for i, (lo, up) in enumerate(zip(lower, upper)):
        if not lo <= up:
            raise CheckFailed(f"point {i}: lower {lo!r} > upper {up!r}")
        if abs((up - lo) - gap) > GAP_TOL:
            raise CheckFailed(f"point {i}: upper - lower breaks the gap law")
    header, rows = _read_csv(outdir, "extremal.csv")
    if header[-2:] != ["lower", "upper"] or len(rows) != len(points) or any(
            row[-2] != lo or row[-1] != up
            for row, lo, up in zip(rows, lower, upper)):
        raise CheckFailed("extremal.csv bounds differ from extremal.json")
    found = {"log_gammas": [math.log(gamma)]}
    if manifest["spec"]["kind"] in CLOSED_FORM_KINDS:
        spec = spec_from_dict(manifest["spec"])
        misses = 0
        for p, lo, up in zip(points, lower, upper):
            exact = exact_extremal(spec, [complex(a, b) for a, b in p])
            misses += not lo - ORACLE_TOL <= exact <= up + ORACLE_TOL
        found["oracle"] = (misses, len(points))
    return found


def _inspect_relative(manifest, outdir):
    header, rows = _read_csv(outdir, "relative_field.csv")
    if header != ["re", "im", "value"]:
        raise CheckFailed(f"relative_field.csv header {header!r}")
    grid_n = _load_json(outdir, "relative.json")["grid_n"]
    if len(rows) != grid_n * grid_n:
        raise CheckFailed("relative_field.csv is not grid_n x grid_n")
    for x, y, v in rows:
        if not 0.0 <= v <= 1.0:
            raise CheckFailed(f"relative field value {v!r} at ({x}, {y}) "
                              "is outside [0, 1]")
    E, B = manifest["set"], manifest["disc"]
    if (E["kind"] == B["kind"] == "ComplexBall" and len(E["center"]) == 1
            and E["center"] == B["center"] and E["radius"] < B["radius"]):
        # harmonic measure of the outer circle in the annulus
        c = complex(*E["center"][0])
        r, R = E["radius"], B["radius"]
        err = 0.0
        for x, y, v in rows:
            rho = abs(complex(x, y) - c)
            if rho < R:
                exact = math.log(max(rho, r) / r) / math.log(R / r)
                err = max(err, abs(v - exact))
        return {"field_oracle_err": err}
    return {}


def _inspect_capacity(manifest, outdir):
    cap = _load_json(outdir, "capacity.json")["transfinite_diameter"]
    if not (isinstance(cap, float) and math.isfinite(cap) and cap > 0):
        raise CheckFailed(f"transfinite diameter {cap!r} is not positive")
    exact = _exact_capacity(manifest["spec"])
    return {} if exact is None else {"capacity_rel_err": abs(cap - exact) / exact}
