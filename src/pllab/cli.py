"""Manifest-driven experiment runner.

One manifest per invocation; outputs (canonical JSON + CSV + SVG plot data)
land in the output directory together with a copy of the manifest and the
library version.  Fekete solves are cached by a content hash of their inputs,
so reruns of an identical manifest are byte-identical and fast.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .basis import BasisSpec
from .equidist import (Arcsine, Polynomial, TabulatedLipschitz, UniformCircle,
                       equilibrium_pairing, rate_experiment)
from .extremal import SandwichEvaluator, relative_extremal_1c
from .fekete import (FeketeConfig, FubiniStudyWeight, ZeroWeight,
                     solve_fekete, transfinite_diameter)
from .geometry import (ComplexBall, Interval, exact_extremal, sample,
                       spec_from_dict, spec_to_dict)
from .regularity import (capacity_density_from_supnorm, hcp_scan,
                         localization_experiment)
from .serialize import (atomic_write_text, canonical_json, format_float,
                        write_csv, write_json)

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_NUMERICAL = 3

COMMANDS = ("fekete", "extremal", "relative", "scan-regularity", "localize",
            "capacity", "equidist", "verify")


class ManifestError(ValueError):
    """Schema violation; the message names the offending field."""


# ---------------------------------------------------------------------------
# manifest validation
# ---------------------------------------------------------------------------

def _require(man, field, types, pred=None, what=""):
    if field not in man:
        raise ManifestError(f"missing field '{field}'")
    v = man[field]
    if not isinstance(v, types):
        raise ManifestError(f"field '{field}' has invalid type")
    if pred is not None and not pred(v):
        raise ManifestError(f"field '{field}' is invalid: {what}")
    return v


def _validate_spec_doc(man, field="spec"):
    doc = _require(man, field, dict)
    try:
        return spec_from_dict(doc)
    except (KeyError, ValueError, TypeError) as exc:
        raise ManifestError(f"field '{field}' is invalid: {exc}")


def _positive_degree_list(man, field="degrees"):
    ds = _require(man, field, list, lambda v: len(v) >= 1, "must be nonempty")
    for d in ds:
        if not isinstance(d, int) or d < 1:
            raise ManifestError(f"field '{field}' is invalid: degree {d!r} "
                                "must be an integer >= 1")
    return ds


def validate_manifest(man):
    if not isinstance(man, dict):
        raise ManifestError("manifest must be a JSON object")
    cmd = _require(man, "command", str)
    if cmd not in COMMANDS:
        raise ManifestError(f"field 'command' is invalid: unknown command {cmd!r}")
    if cmd in ("fekete", "capacity"):
        _validate_spec_doc(man)
        _positive_degree_list(man)
    elif cmd == "extremal":
        _validate_spec_doc(man)
        _require(man, "degree", int, lambda d: d >= 1, "must be >= 1")
        _require(man, "points", list, lambda p: len(p) >= 1, "must be nonempty")
    elif cmd == "relative":
        _validate_spec_doc(man, "set")
        B = _validate_spec_doc(man, "disc")
        if not isinstance(B, ComplexBall) or B.dim != 1:
            raise ManifestError("field 'disc' is invalid: must be a ComplexBall in C^1")
    elif cmd == "scan-regularity":
        _validate_spec_doc(man)
        _require(man, "anchor", list)
        _require(man, "radii", list, lambda r: len(r) >= 1, "must be nonempty")
        _require(man, "delta_grid", list, lambda g: len(g) >= 6,
                 "needs at least 6 points")
        _require(man, "degree", int, lambda d: d >= 1, "must be >= 1")
    elif cmd == "localize":
        _validate_spec_doc(man)
        _require(man, "anchor", list)
        _require(man, "radius", (int, float), lambda r: r > 0, "must be positive")
        _require(man, "degree", int, lambda d: d >= 1, "must be >= 1")
    elif cmd == "equidist":
        _validate_spec_doc(man)
        _positive_degree_list(man)
        _require(man, "measure", dict)
        _require(man, "test_function", dict)
    return man


def _anchor(man):
    return [complex(a, b) for a, b in man["anchor"]]


def manifest_hash(man):
    return hashlib.sha256(canonical_json(man).encode()).hexdigest()


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

class Cache:
    def __init__(self, root):
        self.root = root

    def path(self, key):
        return os.path.join(self.root, key[:2], key + ".json")

    def get(self, key):
        if self.root is None:
            return None
        p = self.path(key)
        if not os.path.exists(p):
            return None
        try:
            with open(p) as f:
                return json.load(f)
        except (json.JSONDecodeError, OSError):
            print(f"warning: cache entry {p} unreadable, recomputing",
                  file=sys.stderr)
            return None

    def put(self, key, doc):
        if self.root is None:
            return
        atomic_write_text(self.path(key), canonical_json(doc) + "\n")


def _weight_from_tag(tag):
    if tag in (None, "zero"):
        return ZeroWeight()
    if tag == "fubini-study":
        return FubiniStudyWeight()
    raise ManifestError(f"field 'weight' is invalid: unknown tag {tag!r}")


def cached_fekete(spec, degree, weight_tag, seed, cloud_target, cache):
    """Solve (or replay from cache) one Fekete configuration.

    The cache stores the selected node indices; a hit re-samples the
    deterministic cloud and rebuilds the configuration without the solve.
    """
    key_doc = {"op": "fekete", "spec": spec_to_dict(spec), "degree": degree,
               "weight": weight_tag or "zero", "seed": seed,
               "cloud_target": cloud_target, "version": 2}
    key = manifest_hash(key_doc)
    basis = BasisSpec(spec.dim, degree)
    weight = _weight_from_tag(weight_tag)
    cloud = sample(spec, cloud_target, seed=seed)
    hit = cache.get(key)
    if hit is not None and "node_indices" in hit:
        try:
            sel = np.asarray(hit["node_indices"], dtype=int)
            config = FeketeConfig.from_indices(
                cloud, basis, weight, sel,
                provenance=hit.get("provenance", {"cloud_seed": seed}))
            return config, cloud, True
        except (IndexError, ValueError):
            print("warning: cache entry inconsistent, recomputing",
                  file=sys.stderr)
    config = solve_fekete(cloud, basis, weight)
    cache.put(key, {"node_indices": [int(i) for i in config.node_indices],
                    "provenance": {k: v for k, v in config.provenance.items()
                                   if isinstance(v, (int, float, str, bool))}})
    return config, cloud, False


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _run_fekete(man, outdir, cache):
    spec = spec_from_dict(man["spec"])
    seed = man.get("seed", 0)
    target = man.get("cloud_target", 2001)
    weight_tag = man.get("weight", "zero")
    results = []
    for d in man["degrees"]:
        config, _, hit = cached_fekete(spec, d, weight_tag, seed, target, cache)
        if hit:
            print(f"cache hit: fekete degree {d}", file=sys.stderr)
        doc = config.to_dict()
        results.append(doc)
        nodes_rows = []
        for row in config.nodes:
            flat = []
            for z in row:
                flat.extend([z.real, z.imag])
            nodes_rows.append(flat)
        header = []
        for k in range(spec.dim):
            header.extend([f"re{k + 1}", f"im{k + 1}"])
        write_csv(os.path.join(outdir, f"fekete_nodes_d{d}.csv"),
                  header, nodes_rows)
    write_json(os.path.join(outdir, "fekete.json"),
               {"spec": man["spec"], "configs": results})


def _run_extremal(man, outdir, cache):
    spec = spec_from_dict(man["spec"])
    d = man["degree"]
    seed = man.get("seed", 0)
    target = man.get("cloud_target", 2001)
    weight_tag = man.get("weight", "zero")
    config, cloud, _ = cached_fekete(spec, d, weight_tag, seed, target, cache)
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
    write_csv(os.path.join(outdir, "extremal.csv"),
              header + ["lower", "upper"], rows)
    write_json(os.path.join(outdir, "extremal.json"),
               {"degree": d, "gamma": config.gamma, "gap": ev.gap,
                "lower": [float(x) for x in lower],
                "upper": [float(x) for x in upper]})


def _run_relative(man, outdir, cache):
    E = spec_from_dict(man["set"])
    B = spec_from_dict(man["disc"])
    field = relative_extremal_1c(E, B, grid_n=man.get("grid_n", 256),
                                 tol=man.get("tol", 1e-8))
    field.to_csv(os.path.join(outdir, "relative_field.csv"))
    field.to_svg(os.path.join(outdir, "relative_field.svg"))
    write_json(os.path.join(outdir, "relative.json"),
               {"residual": field.residual, "iterations": field.iterations,
                "grid_n": len(field.xs)})


def _run_scan_regularity(man, outdir, cache):
    spec = spec_from_dict(man["spec"])
    report = hcp_scan(spec, _anchor(man), man["radii"], man["delta_grid"],
                      man["degree"], seed=man.get("seed", 11))
    write_json(os.path.join(outdir, "hcp_report.json"), report.to_dict())
    write_csv(os.path.join(outdir, "hcp_scan.csv"),
              ["r", "sup", "mu_hat"],
              [[r, s, m if m is not None else float("nan")]
               for r, s, m in zip(report.radii, report.sup_values,
                                  report.mu_per_radius)])
    if report.q_hat is not None:
        kappa, expo = capacity_density_from_supnorm(
            max(report.coefficient, 1e-300), max(report.q_hat, 0.0), spec.dim)
        write_json(os.path.join(outdir, "capacity_density.json"),
                   {"kappa": kappa, "exponent": expo})


def _run_localize(man, outdir, cache):
    spec = spec_from_dict(man["spec"])
    res = localization_experiment(spec, _anchor(man), man["radius"],
                                  man["degree"], seed=man.get("seed", 5))
    write_json(os.path.join(outdir, "localize.json"),
               {"full": res.report_full.to_dict(),
                "local": res.report_local.to_dict(),
                "mu_difference": res.mu_difference})


def _run_capacity(man, outdir, cache):
    spec = spec_from_dict(man["spec"])
    seed = man.get("seed", 0)
    target = man.get("cloud_target", 2001)
    configs = []
    for d in man["degrees"]:
        config, _, _ = cached_fekete(spec, d, "zero", seed, target, cache)
        configs.append(config)
    cap = transfinite_diameter(configs)
    write_json(os.path.join(outdir, "capacity.json"),
               {"degrees": man["degrees"], "transfinite_diameter": cap})


def _measure_from_doc(doc):
    kind = doc.get("kind")
    if kind == "arcsine":
        return Arcsine(doc["a"], doc["b"])
    if kind == "uniform-circle":
        return UniformCircle(complex(*doc["center"]), doc["radius"])
    raise ManifestError(f"field 'measure' is invalid: unknown kind {kind!r}")


def _test_function_from_doc(doc):
    kind = doc.get("kind")
    if kind == "polynomial":
        return Polynomial([complex(a, b) for a, b in doc["coefficients"]])
    if kind == "tabulated":
        return TabulatedLipschitz(doc["grid"], doc["values"])
    raise ManifestError(f"field 'test_function' is invalid: unknown kind {kind!r}")


def _run_equidist(man, outdir, cache):
    spec = spec_from_dict(man["spec"])
    measure = _measure_from_doc(man["measure"])
    v = _test_function_from_doc(man["test_function"])
    fit = rate_experiment(spec, v, man["degrees"], measure,
                          alpha_prime=man.get("alpha_prime", 0.5),
                          seed=man.get("seed", 0))
    write_json(os.path.join(outdir, "rate_fit.json"), fit.to_dict())
    write_csv(os.path.join(outdir, "rate.csv"), ["d", "e_d", "bound_line"],
              list(zip(fit.degrees, fit.errors, fit.bound_line)))


def _run_verify(man, outdir, cache):
    """Quick invariant suite; prints a pass/fail table."""
    checks = []

    def check(name, fn):
        try:
            ok = bool(fn())
        except Exception as exc:
            print(f"FAIL {name}: {exc}")
            checks.append((name, False))
            return
        print(("PASS" if ok else "FAIL") + f" {name}")
        checks.append((name, ok))

    import math
    check("disc extremal closed form",
          lambda: abs(exact_extremal(ComplexBall((0,), 1.0), 2.0) - math.log(2))
          < 1e-12)
    check("interval extremal closed form",
          lambda: abs(exact_extremal(Interval(-1, 1), 2.0)
                      - math.log(2 + math.sqrt(3))) < 1e-12)

    def fekete_gamma():
        cloud = sample(Interval(-1, 1), 801, seed=0)
        cfg = solve_fekete(cloud, BasisSpec(1, 6))
        return cfg.gamma <= 1.05
    check("fekete quality factor", fekete_gamma)

    def pairing():
        return abs(equilibrium_pairing(Arcsine(-1, 1), Polynomial([0, 0, 1]))
                   - 0.5) < 1e-10
    check("arcsine pairing", pairing)

    rows = [[name, "pass" if ok else "fail"] for name, ok in checks]
    write_csv(os.path.join(outdir, "verify.csv"), ["check", "status"], rows)
    if not all(ok for _, ok in checks):
        raise RuntimeError("verification suite reported failures")


_RUNNERS = {"fekete": _run_fekete, "extremal": _run_extremal,
            "relative": _run_relative, "scan-regularity": _run_scan_regularity,
            "localize": _run_localize, "capacity": _run_capacity,
            "equidist": _run_equidist, "verify": _run_verify}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_manifest(man, outdir, cache_dir=None):
    """Execute one validated manifest; returns the manifest content hash."""
    validate_manifest(man)
    os.makedirs(outdir, exist_ok=True)
    cache = Cache(cache_dir)
    h = manifest_hash(man)
    _RUNNERS[man["command"]](man, outdir, cache)
    write_json(os.path.join(outdir, "manifest.json"),
               {"manifest": man, "hash": h, "version": __version__})
    return h


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="pllab",
        description="numerical laboratory for extremal functions, Fekete "
                    "configurations, and capacity on compact sets")
    parser.add_argument("--manifest", required=True, help="path to a JSON manifest")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--cache", default=None, help="cache directory")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the Fekete cache")
    args = parser.parse_args(argv)

    cache_dir = None
    if not args.no_cache:
        cache_dir = os.environ.get("PLLAB_CACHE") or args.cache

    try:
        with open(args.manifest) as f:
            man = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read manifest: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    try:
        run_manifest(man, args.out, cache_dir)
    except ManifestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (ValueError, RuntimeError, FloatingPointError,
            np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
