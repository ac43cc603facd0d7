"""Manifest-driven experiment runner.

One manifest per invocation; outputs (canonical JSON + CSV + SVG plot data)
land in the output directory together with a copy of the manifest and the
library version.  Fekete solves are cached by a content hash of their inputs,
so reruns of an identical manifest are byte-identical and fast.

``validate_manifest`` is the one parser: it checks every field the command's
runner reads and returns the runner's arguments (spec objects, degrees,
seed, anchor as complex numbers, query points as an array, ...) with each
default applied there; the runners never read the manifest itself.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import math
import os
import sys
from itertools import chain
from types import SimpleNamespace

# A process loads only what its command uses: numpy and scipy.linalg, which
# every solve needs, at module level; every other scipy subpackage (special,
# optimize, sparse) inside the one function that calls it.
import numpy as np
import scipy

from . import __version__
from .basis import BasisSpec
from .equidist import (RATE_CLOUD_TARGET, Arcsine, Polynomial,
                       TabulatedLipschitz, UniformCircle, equilibrium_pairing,
                       rate_experiment)
from .extremal import BLOCK_ROWS, SandwichEvaluator, relative_extremal_1c
from .fekete import (_WEIGHTS, cached_fekete, manifest_hash, solve_fekete,
                     transfinite_diameter)
from .geometry import (_NUMBER, _NUMBERS, _PAIRS, ComplexBall, Interval,
                       _get as _leaf, _nonempty, contains, exact_extremal,
                       finite_pair, finite_real, sample, spec_from_dict)
from .regularity import (HCP_CLOUD_FLOOR, LOCALIZE_CLOUD_FLOOR,
                         _check_delta_grid, capacity_density_from_supnorm,
                         hcp_scan, localization_experiment, scan_cloud_target)
from .serialize import (Cache, atomic_write_text, canonical_json, float_texts,
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

_REQUIRED = object()


def _get(doc, key, check, default=_REQUIRED):
    """doc[key] when check = (predicate, description) holds for it, default
    when the key is absent and a default is given; else ManifestError."""
    if key not in doc:
        if default is _REQUIRED:
            raise ManifestError(f"missing field '{key}'")
        return default
    ok, what = check
    if not ok(doc[key]):
        raise ManifestError(f"field '{key}' is invalid: must be {what}")
    return doc[key]


def _positive(x):
    return finite_real(x) and x > 0


def _count(lo, hi=math.inf):
    return lambda v: type(v) is int and lo <= v <= hi


_OBJECT = (lambda v: type(v) is dict, "a JSON object")
_COMMAND = (lambda v: v in COMMANDS, "one of " + ", ".join(COMMANDS))
_COUNT = (_count(1), "an integer >= 1")
_DEGREES = (_nonempty(_COUNT[0]), "a nonempty list of integers >= 1")
_CAPACITY_DEGREES = (lambda v: _DEGREES[0](v) and len(set(v)) >= 3,
                     "a list of at least 3 distinct integers >= 1")
_RATE_DEGREES = (lambda v: _DEGREES[0](v) and len(v) >= 4
                 and all(a < b for a, b in zip(v, v[1:])),
                 "a strictly increasing list of at least 4 integers >= 1")
_SEED = (lambda v: type(v) is int and finite_real(v),
         "an integer within the float range")
_WEIGHT = (lambda v: v is None or type(v) is str and v in _WEIGHTS,
           '"zero", "fubini-study" or null')
_POSITIVE = (_positive, "a finite positive number")
_RADII = (_nonempty(_positive),
          "a nonempty list of finite positive numbers")
_DELTA_GRID = (lambda g: _RADII[0](g) and len(g) >= 6,
               "a list of at least 6 finite positive numbers")
_GRID_N = (_count(64, 1024), "an integer in [64, 1024]")
_CENTER = (lambda v: type(v) is list and 1 <= len(v) <= 2
           and all(map(finite_real, v)), "[re] or [re, im] of finite numbers")

# the seeds of the commands that sample, when the manifest gives none
_SEEDS = {"scan-regularity": 11, "localize": 5}

# their leaves are read as spec_from_dict reads a spec's
_MEASURES = {
    "arcsine": lambda doc: Arcsine(_leaf(doc, "a", _NUMBER),
                                   _leaf(doc, "b", _NUMBER)),
    "uniform-circle": lambda doc: UniformCircle(
        complex(*_leaf(doc, "center", _CENTER)),
        _leaf(doc, "radius", _NUMBER)),
}
_TEST_FUNCTIONS = {
    "polynomial": lambda doc: Polynomial(
        [complex(a, b) for a, b in _leaf(doc, "coefficients", _PAIRS)]),
    "tabulated": lambda doc: TabulatedLipschitz(
        _leaf(doc, "grid", _NUMBERS), _leaf(doc, "values", _NUMBERS)),
}


def _parse(man, field, build):
    """build(man[field]) for an object field; its ValueError names field."""
    doc = _get(man, field, _OBJECT)
    try:
        return build(doc)
    except ValueError as exc:
        raise ManifestError(f"field '{field}' is invalid: {exc}") from None


def _of_kind(kinds):
    """A builder that picks the constructor of doc["kind"] from kinds."""
    def build(doc):
        kind = doc.get("kind")
        if type(kind) is not str or kind not in kinds:
            raise ValueError(f"unknown kind {kind!r}")
        return kinds[kind](doc)
    return build


# Cap on N*M, the basis size N = comb(n + d, n) times the cloud size M: a
# solve holds a few N x M complex matrices (16 bytes an entry).
MAX_BASIS_CLOUD = 10 ** 7


def _check_basis_cloud(field, n, m, target_given):
    """Exit 2 before sampling when N*M is over MAX_BASIS_CLOUD."""
    if n * m > MAX_BASIS_CLOUD:
        fields = f"field '{field}'" + (" with field 'cloud_target'"
                                       if target_given else "")
        raise ManifestError(
            f"{fields} is invalid: basis size {n} times cloud size {m} is "
            f"over the cap of {MAX_BASIS_CLOUD} matrix entries")


def _points(man, dim):
    """extremal's points as a (k, dim, 2) float array of (re, im), and
    whether every leaf is a float."""
    what = (f"a nonempty list of points, each a list of {dim} [re, im] "
            "pairs of finite numbers")
    points = _get(man, "points", (lambda p: type(p) is list, what))
    try:
        leaves = set(map(type, chain.from_iterable(
            chain.from_iterable(points))))
        xy = np.asarray(points, dtype=float) if leaves <= {int, float} else None
    except (TypeError, ValueError, OverflowError):    # ragged, or 10**400
        xy = None
    if (xy is None or len(xy) == 0 or xy.shape[1:] != (dim, 2)
            or not np.isfinite(xy).all()):
        raise ManifestError(f"field 'points' is invalid: must be {what}")
    return xy, leaves == {float}


def validate_manifest(man):
    """Check every field the command's runner reads, and return the runner's
    arguments, with every default applied here."""
    if type(man) is not dict:
        raise ManifestError("manifest must be a JSON object")
    cmd = _get(man, "command", _COMMAND)
    args = SimpleNamespace(command=cmd)
    if cmd == "verify":
        return args
    if cmd == "relative":
        args.set = _parse(man, "set", spec_from_dict)
        if args.set.dim != 1:
            raise ManifestError("field 'set' is invalid: must be a set in C^1")
        args.disc = _parse(man, "disc", spec_from_dict)
        if not isinstance(args.disc, ComplexBall) or args.disc.dim != 1:
            raise ManifestError(
                "field 'disc' is invalid: must be a ComplexBall in C^1")
        args.grid_n = _get(man, "grid_n", _GRID_N, 256)
        return args
    args.spec = _parse(man, "spec", spec_from_dict)
    args.seed = _get(man, "seed", _SEED, _SEEDS.get(cmd, 0))
    dim = args.spec.dim
    if cmd in ("capacity", "equidist") and dim != 1:
        raise ManifestError("field 'spec' is invalid: must be a set in C^1")
    if cmd in ("fekete", "extremal", "capacity"):
        args.cloud_target = _get(man, "cloud_target", _COUNT, 2001)
        if cmd == "extremal":
            args.degree = _get(man, "degree", _COUNT)
            field, top = "degree", args.degree
        else:
            args.degrees = _get(man, "degrees", _CAPACITY_DEGREES
                                if cmd == "capacity" else _DEGREES)
            field, top = "degrees", max(args.degrees)
        _check_basis_cloud(field, math.comb(dim + top, dim),
                           args.cloud_target, "cloud_target" in man)
        if cmd == "fekete":
            args.spec_doc = man["spec"]         # fekete.json repeats it
        if cmd != "capacity":                   # capacity solves unweighted
            args.weight = _get(man, "weight", _WEIGHT, "zero") or "zero"
        if cmd == "extremal":
            args.xy, args.all_float = _points(man, dim)
    elif cmd in ("scan-regularity", "localize"):
        anchor = _get(man, "anchor", (
            lambda a: type(a) is list and len(a) == dim
            and all(map(finite_pair, a)),
            f"a list of {dim} [re, im] pairs of finite numbers"))
        args.anchor = [complex(a, b) for a, b in anchor]
        if not contains(args.spec, args.anchor):
            raise ManifestError("field 'anchor' is invalid: must be a point "
                                "of the set 'spec'")
        if cmd == "scan-regularity":
            args.radii = _get(man, "radii", _RADII)
            args.delta_grid = _get(man, "delta_grid", _DELTA_GRID)
            try:
                _check_delta_grid(args.delta_grid)
            except ValueError as exc:
                raise ManifestError(f"field 'delta_grid' is invalid: {exc}")
        else:
            args.radius = _get(man, "radius", _POSITIVE)
        args.degree = _get(man, "degree", _COUNT)
        n = math.comb(dim + args.degree, dim)
        floor = (HCP_CLOUD_FLOOR if cmd == "scan-regularity"
                 else LOCALIZE_CLOUD_FLOOR)
        _check_basis_cloud("degree", n, scan_cloud_target(n, floor), False)
    else:                                               # equidist
        args.degrees = _get(man, "degrees", _RATE_DEGREES)
        n = args.degrees[-1] + 1            # the top degree's cloud is largest
        _check_basis_cloud("degrees", n,
                           scan_cloud_target(n, RATE_CLOUD_TARGET), False)
        args.measure = _parse(man, "measure", _of_kind(_MEASURES))
        args.test_function = _parse(man, "test_function",
                                    _of_kind(_TEST_FUNCTIONS))
        args.alpha_prime = _get(man, "alpha_prime", _POSITIVE, 0.5)
    return args


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _array_text(texts):
    return "[" + ",".join(texts) + "]"


def _coord_header(dim):
    return [f"{part}{k + 1}" for k in range(dim) for part in ("re", "im")]


def _run_fekete(args, outdir, cache):
    dim = args.spec.dim
    results = []
    cloud = None                    # sampled by the first degree's call
    for d in args.degrees:
        config, cloud, hit = cached_fekete(args.spec, d, args.weight,
                                           args.seed, args.cloud_target,
                                           cache, cloud)
        if hit:
            print(f"cache hit: fekete degree {d}", file=sys.stderr)
        results.append(config.to_dict())
        z = config.nodes
        write_csv(os.path.join(outdir, f"fekete_nodes_d{d}.csv"),
                  _coord_header(dim),
                  [c.tolist() for k in range(dim)
                   for c in (z[:, k].real, z[:, k].imag)])
    write_json(os.path.join(outdir, "fekete.json"),
               {"spec": args.spec_doc, "configs": results})


def _run_extremal(args, outdir, cache):
    config, cloud, _ = cached_fekete(args.spec, args.degree, args.weight,
                                     args.seed, args.cloud_target, cache)
    ev = SandwichEvaluator(config, cloud)
    xy = args.xy                                    # (k, n, 2): re, im
    # each (re, im) pair read in place as one complex: signed zeros kept
    lower, upper = ev.bounds(xy.view(complex)[..., 0])
    # repr of a finite float is also its JSON text; NaN is not
    if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
        raise ValueError("a sandwich bound is not finite")
    # the joined text of each block, for the splices of the JSON files
    texts = {"lower": [], "upper": [], "points": []}
    point = _array_text(["[{},{}]"] * args.spec.dim)

    def blocks():
        """extremal.csv's columns, BLOCK_ROWS points at a time."""
        for start in range(0, len(xy), BLOCK_ROWS):
            rows = slice(start, start + BLOCK_ROWS)
            block = xy[rows]
            # format each float once, for extremal.csv and the JSON files
            coords = [float_texts(c) for c in block.reshape(len(block), -1).T]
            lo, up = float_texts(lower[rows]), float_texts(upper[rows])
            texts["lower"].append(",".join(lo))
            texts["upper"].append(",".join(up))
            if args.all_float:
                texts["points"].append(",".join(map(point.format, *coords)))
            yield coords + [lo, up]

    write_csv(os.path.join(outdir, "extremal.csv"),
              _coord_header(args.spec.dim) + ["lower", "upper"],
              blocks=blocks())
    write_json(os.path.join(outdir, "extremal.json"),
               {"degree": args.degree, "gamma": config.gamma, "gap": ev.gap,
                "lower": lower, "upper": upper},
               {"lower": _array_text(texts["lower"]),
                "upper": _array_text(texts["upper"])})
    # an int leaf is written 2 in manifest.json but 2.0 in the CSV
    if args.all_float:
        return {"points": _array_text(texts["points"])}
    return None


def _run_relative(args, outdir, cache):
    field = relative_extremal_1c(args.set, args.disc, grid_n=args.grid_n)
    field.to_csv(os.path.join(outdir, "relative_field.csv"))
    field.to_svg(os.path.join(outdir, "relative_field.svg"))
    write_json(os.path.join(outdir, "relative.json"),
               {"residual": field.residual, "iterations": field.iterations,
                "grid_n": len(field.xs)})


def _run_scan_regularity(args, outdir, cache):
    report = hcp_scan(args.spec, args.anchor, args.radii, args.delta_grid,
                      args.degree, seed=args.seed, cache=cache)
    write_json(os.path.join(outdir, "hcp_report.json"), report.to_dict())
    write_csv(os.path.join(outdir, "hcp_scan.csv"),
              ["r", "sup", "mu_hat"],
              [report.radii, report.sup_values,
               [m if m is not None else float("nan")
                for m in report.mu_per_radius]])
    if report.q_hat is not None:
        kappa, expo = capacity_density_from_supnorm(
            max(report.coefficient, 1e-300), max(report.q_hat, 0.0),
            args.spec.dim)
        write_json(os.path.join(outdir, "capacity_density.json"),
                   {"kappa": kappa, "exponent": expo})


def _run_localize(args, outdir, cache):
    res = localization_experiment(args.spec, args.anchor, args.radius,
                                  args.degree, seed=args.seed, cache=cache)
    write_json(os.path.join(outdir, "localize.json"),
               {"full": res.report_full.to_dict(),
                "local": res.report_local.to_dict(),
                "mu_difference": res.mu_difference})


def _run_capacity(args, outdir, cache):
    configs, cloud = [], None       # sampled by the first degree's call
    for d in args.degrees:
        config, cloud, _ = cached_fekete(args.spec, d, "zero", args.seed,
                                         args.cloud_target, cache, cloud)
        configs.append(config)
    write_json(os.path.join(outdir, "capacity.json"),
               {"degrees": args.degrees,
                "transfinite_diameter": transfinite_diameter(configs)})


def _run_equidist(args, outdir, cache):
    fit = rate_experiment(args.spec, args.test_function, args.degrees,
                          args.measure, alpha_prime=args.alpha_prime,
                          seed=args.seed)
    write_json(os.path.join(outdir, "rate_fit.json"), fit.to_dict())
    write_csv(os.path.join(outdir, "rate.csv"), ["d", "e_d", "bound_line"],
              [fit.degrees, fit.errors, fit.bound_line])


def _run_verify(args, outdir, cache):
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

def _openblas_thread_controls():
    """(get, set) thread-count functions of the OpenBLAS libraries bundled
    with the numpy and scipy wheels; empty where there are none (another
    BLAS, or a system OpenBLAS).  Loading a library that is already loaded
    returns the instance in use."""
    controls = []
    for pkg in (np, scipy):
        libs = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)),
                            pkg.__name__ + ".libs")
        if not os.path.isdir(libs):
            continue
        for name in sorted(os.listdir(libs)):
            if "openblas" not in name:
                continue
            lib = ctypes.CDLL(os.path.join(libs, name))
            for suffix in ("64_", ""):
                get = getattr(lib, "scipy_openblas_get_num_threads" + suffix,
                              None)
                set_ = getattr(lib, "scipy_openblas_set_num_threads" + suffix,
                               None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    controls.append((get, set_))
                    break
    return controls


# Outputs are byte-identical across BLAS thread counts only if the run uses
# one thread: a threaded BLAS sums in another order (scipy's QR in the
# orthonormal basis already moves the last bits of gamma).
_BLAS_THREADS = _openblas_thread_controls()


@contextlib.contextmanager
def _one_blas_thread():
    """Pin every bundled OpenBLAS pool to one thread; restore on exit."""
    before = [get() for get, _ in _BLAS_THREADS]
    for _, set_ in _BLAS_THREADS:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), n in zip(_BLAS_THREADS, before):
            set_(n)


def run_manifest(man, outdir, cache_dir=None):
    """Execute one validated manifest; returns the manifest content hash."""
    args = validate_manifest(man)
    os.makedirs(outdir, exist_ok=True)
    # a runner may return the text of some manifest values it formatted
    texts = _RUNNERS[args.command](args, outdir, Cache(cache_dir))
    # runners leave the manifest as it is: encode it once, after the run
    # (not held through it), for both the hash and
    # canonical_json({"hash": h, "manifest": man, "version": __version__})
    text = canonical_json(man, texts)
    h = hashlib.sha256(text.encode()).hexdigest()
    atomic_write_text(os.path.join(outdir, "manifest.json"),
                      (f'{{"hash":"{h}","manifest":', text,
                       f',"version":{json.dumps(__version__)}}}\n'))
    return h


def _parser():
    parser = argparse.ArgumentParser(
        prog="pllab",
        description="numerical laboratory for extremal functions, Fekete "
                    "configurations, and capacity on compact sets")
    parser.add_argument("--manifest", required=True, help="path to a JSON manifest")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--cache", default=None, help="cache directory")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the Fekete cache")
    return parser


# built once: main runs many times in one process (tests, benchmarks)
_PARSER = _parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)

    cache_dir = (None if args.no_cache
                 else os.environ.get("PLLAB_CACHE") or args.cache)

    try:
        # JSON text is UTF-8 (RFC 8259), whatever the locale
        with open(args.manifest, encoding="utf-8") as f:
            man = json.load(f)
    except (OSError, ValueError, RecursionError) as exc:
        # unreadable, not UTF-8, not JSON, or nested too deep to parse
        print(f"error: cannot read manifest: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    try:
        with _one_blas_thread():
            run_manifest(man, args.out, cache_dir)
    except ManifestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (ValueError, RuntimeError, FloatingPointError,
            np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
