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
import math
import os
import sys
from itertools import chain

import numpy as np

from . import __version__
from .basis import BasisSpec
from .equidist import (Arcsine, Polynomial, TabulatedLipschitz, UniformCircle,
                       equilibrium_pairing, rate_experiment)
from .extremal import SandwichEvaluator, relative_extremal_1c
from .fekete import (FeketeConfig, FubiniStudyWeight, ZeroWeight,
                     _scalar_provenance, solve_fekete, transfinite_diameter)
from .geometry import (ComplexBall, Interval, exact_extremal, sample,
                       spec_from_dict, spec_to_dict)
from .regularity import (_check_delta_grid, capacity_density_from_supnorm,
                         hcp_scan, localization_experiment)
from .serialize import atomic_write_text, canonical_json, write_csv, write_json

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


_FMAX = sys.float_info.max


def _real(x):
    """A finite int or float, not a bool; an int must convert to a float."""
    return type(x) in (int, float) and -_FMAX <= x <= _FMAX


def _pair(v):
    return type(v) is list and len(v) == 2 and _real(v[0]) and _real(v[1])


def _positive(x):
    return _real(x) and x > 0


def _anchor_field(man, dim):
    _require(man, "anchor", list,
             lambda a: len(a) == dim and all(map(_pair, a)),
             f"must be a list of {dim} [re, im] pairs of finite numbers")


def _degree(man):
    return _require(man, "degree", int,
                    lambda d: not isinstance(d, bool) and d >= 1,
                    "must be an integer >= 1")


def _points_ok(points, dim):
    """Every point is a list of dim [re, im] pairs of finite numbers."""
    # _pair and _real inlined: an extremal manifest can hold 10^4 points
    for p in points:
        if type(p) is not list or len(p) != dim:
            return False
        for z in p:
            if type(z) is not list or len(z) != 2:
                return False
            a, b = z
            if (type(a) not in (int, float) or type(b) not in (int, float)
                    or not (-_FMAX <= a <= _FMAX and -_FMAX <= b <= _FMAX)):
                return False
    return True


def _positive_degree_list(man, field="degrees"):
    ds = _require(man, field, list, lambda v: len(v) >= 1, "must be nonempty")
    for d in ds:
        if not isinstance(d, int) or isinstance(d, bool) or d < 1:
            raise ManifestError(f"field '{field}' is invalid: degree {d!r} "
                                "must be an integer >= 1")
    return ds


# Cap on N*M, the basis size N = comb(n + d, n) times the cloud size M: a
# solve holds a few N x M complex matrices (16 bytes an entry).
MAX_BASIS_CLOUD = 10 ** 7


def _check_basis_cloud(man, field, degree, dim):
    """Exit 2 before sampling when N*M is over MAX_BASIS_CLOUD."""
    n, m = math.comb(dim + degree, dim), man.get("cloud_target", 2001)
    if n * m > MAX_BASIS_CLOUD:
        fields = f"field '{field}'" + (" with field 'cloud_target'"
                                       if "cloud_target" in man else "")
        raise ManifestError(
            f"{fields} is invalid: basis size {n} times cloud size {m} is "
            f"over the cap of {MAX_BASIS_CLOUD} matrix entries")


def validate_manifest(man):
    if not isinstance(man, dict):
        raise ManifestError("manifest must be a JSON object")
    cmd = _require(man, "command", str)
    if cmd not in COMMANDS:
        raise ManifestError(f"field 'command' is invalid: unknown command {cmd!r}")
    if cmd in ("fekete", "extremal", "capacity") and "cloud_target" in man:
        _require(man, "cloud_target", int,
                 lambda t: not isinstance(t, bool) and t >= 1,
                 "must be an integer >= 1")
    if cmd in ("fekete", "capacity"):
        dim = _validate_spec_doc(man).dim
        _check_basis_cloud(man, "degrees", max(_positive_degree_list(man)),
                           dim)
    elif cmd == "extremal":
        dim = _validate_spec_doc(man).dim
        _check_basis_cloud(man, "degree", _degree(man), dim)
        _require(man, "points", list,
                 lambda p: len(p) >= 1 and _points_ok(p, dim),
                 f"must be a nonempty list of points, each a list of {dim} "
                 "[re, im] pairs of finite numbers")
    elif cmd == "relative":
        if _validate_spec_doc(man, "set").dim != 1:
            raise ManifestError("field 'set' is invalid: must be a set in C^1")
        B = _validate_spec_doc(man, "disc")
        if not isinstance(B, ComplexBall) or B.dim != 1:
            raise ManifestError("field 'disc' is invalid: must be a ComplexBall in C^1")
        if "grid_n" in man:
            _require(man, "grid_n", int,
                     lambda g: not isinstance(g, bool) and 64 <= g <= 1024,
                     "must be an integer in [64, 1024]")
    elif cmd == "scan-regularity":
        _anchor_field(man, _validate_spec_doc(man).dim)
        _require(man, "radii", list,
                 lambda r: len(r) >= 1 and all(map(_positive, r)),
                 "must be a nonempty list of finite positive numbers")
        grid = _require(man, "delta_grid", list,
                        lambda g: len(g) >= 6 and all(map(_positive, g)),
                        "must be a list of at least 6 finite positive numbers")
        try:
            _check_delta_grid(grid)
        except ValueError as exc:
            raise ManifestError(f"field 'delta_grid' is invalid: {exc}")
        _degree(man)
    elif cmd == "localize":
        _anchor_field(man, _validate_spec_doc(man).dim)
        _require(man, "radius", (int, float), _positive,
                 "must be a finite positive number")
        _degree(man)
    elif cmd == "equidist":
        _validate_spec_doc(man)
        _positive_degree_list(man)
        _measure_from_doc(_require(man, "measure", dict))
        _test_function_from_doc(_require(man, "test_function", dict))
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
    The key holds a sha256 of the cloud's points, so a sampler that moves
    the cloud misses instead of replaying indices onto other points.
    """
    cloud = sample(spec, cloud_target, seed=seed)
    key_doc = {"op": "fekete", "spec": spec_to_dict(spec), "degree": degree,
               "weight": weight_tag or "zero", "seed": seed,
               "cloud_target": cloud_target,
               "cloud": hashlib.sha256(cloud.points.tobytes()).hexdigest(),
               "version": 3}
    key = manifest_hash(key_doc)
    basis = BasisSpec(spec.dim, degree)
    weight = _weight_from_tag(weight_tag)
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
                    "provenance": _scalar_provenance(config.provenance)})
    return config, cloud, False


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _array_text(texts):
    return "[" + ",".join(texts) + "]"


def _coord_header(dim):
    return [f"{part}{k + 1}" for k in range(dim) for part in ("re", "im")]


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
        results.append(config.to_dict())
        z = config.nodes
        write_csv(os.path.join(outdir, f"fekete_nodes_d{d}.csv"),
                  _coord_header(spec.dim),
                  [c.tolist() for k in range(spec.dim)
                   for c in (z[:, k].real, z[:, k].imag)])
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
    xy = np.asarray(man["points"], dtype=float)     # (k, n, 2): re, im
    # each (re, im) pair read in place as one complex: signed zeros kept
    lower, upper = ev.bounds(xy.view(complex)[..., 0])
    # repr of a finite float is also its JSON text; NaN is not
    if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
        raise ValueError("a sandwich bound is not finite")
    # format each float once, for extremal.csv and the JSON files alike
    coords = [list(map(float.__repr__, c))
              for c in xy.reshape(len(xy), -1).T.tolist()]
    lo, up = (list(map(float.__repr__, b.tolist())) for b in (lower, upper))
    write_csv(os.path.join(outdir, "extremal.csv"),
              _coord_header(spec.dim) + ["lower", "upper"], coords + [lo, up])
    write_json(os.path.join(outdir, "extremal.json"),
               {"degree": d, "gamma": config.gamma, "gap": ev.gap,
                "lower": lower, "upper": upper},
               {"lower": _array_text(lo), "upper": _array_text(up)})
    # an int leaf is written 2 in manifest.json but 2.0 in the CSV
    if {float} == set(map(type, chain.from_iterable(
            chain.from_iterable(man["points"])))):
        point = _array_text(["[{},{}]"] * spec.dim)
        return {"points": _array_text(map(point.format, *coords))}
    return None


def _run_relative(man, outdir, cache):
    E = spec_from_dict(man["set"])
    B = spec_from_dict(man["disc"])
    field = relative_extremal_1c(E, B, grid_n=man.get("grid_n", 256))
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
              [report.radii, report.sup_values,
               [m if m is not None else float("nan")
                for m in report.mu_per_radius]])
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


_NUMBER = (_real, "a finite number")
_CENTER = (lambda v: type(v) is list and 1 <= len(v) <= 2
           and all(map(_real, v)), "[re] or [re, im] of finite numbers")
_NUMBERS = (lambda v: type(v) is list and len(v) >= 1 and all(map(_real, v)),
            "a nonempty list of finite numbers")
_PAIRS = (lambda v: type(v) is list and len(v) >= 1 and all(map(_pair, v)),
          "a nonempty list of [re, im] pairs of finite numbers")


def _get(doc, key, check):
    """doc[key], or ValueError when it is missing or fails check."""
    ok, what = check
    if key not in doc:
        raise ValueError(f"missing '{key}'")
    if not ok(doc[key]):
        raise ValueError(f"'{key}' must be {what}")
    return doc[key]


def _measure_from_doc(doc):
    kind = doc.get("kind")
    try:
        if kind == "arcsine":
            return Arcsine(_get(doc, "a", _NUMBER), _get(doc, "b", _NUMBER))
        if kind == "uniform-circle":
            return UniformCircle(complex(*_get(doc, "center", _CENTER)),
                                 _get(doc, "radius", _NUMBER))
    except ValueError as exc:
        raise ManifestError(f"field 'measure' is invalid: {exc}") from None
    raise ManifestError(f"field 'measure' is invalid: unknown kind {kind!r}")


def _test_function_from_doc(doc):
    kind = doc.get("kind")
    try:
        if kind == "polynomial":
            return Polynomial([complex(a, b) for a, b in
                               _get(doc, "coefficients", _PAIRS)])
        if kind == "tabulated":
            return TabulatedLipschitz(_get(doc, "grid", _NUMBERS),
                                      _get(doc, "values", _NUMBERS))
    except ValueError as exc:
        raise ManifestError(
            f"field 'test_function' is invalid: {exc}") from None
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
              [fit.degrees, fit.errors, fit.bound_line])


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

    write_csv(os.path.join(outdir, "verify.csv"), ["check", "status"],
              [[name for name, _ in checks],
               ["pass" if ok else "fail" for _, ok in checks]])
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
    # a runner may return the text of some manifest values it formatted
    texts = _RUNNERS[man["command"]](man, outdir, Cache(cache_dir))
    # runners leave the manifest as it is: encode it once, after the run
    # (not held through it), for both the hash and
    # canonical_json({"hash": h, "manifest": man, "version": __version__})
    text = canonical_json(man, texts)
    h = hashlib.sha256(text.encode()).hexdigest()
    atomic_write_text(os.path.join(outdir, "manifest.json"),
                      f'{{"hash":"{h}","manifest":{text},'
                      f'"version":{json.dumps(__version__)}}}\n')
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
