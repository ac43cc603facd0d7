"""Check that two pllab trees write the same bytes on every benchmark manifest.

    python3 tools/same_bytes.py PARENT CHANGE --seed 11

PARENT and CHANGE are pllab checkouts (or their ``src`` directories).  The
manifests are those of the three workloads in ``perfbench/workloads.py`` of
this checkout, drawn at the given seed: every solve-cold variant,
replay-warm and relative-field.  To them are added the fixed ``UNTRUSTED``
manifests, whose Fekete refinements take the full-solve branch that no
benchmark manifest reaches, the ``SEED_PAIR``, two manifests that draw the
same cloud at different seeds, two extremal manifests whose query points end
in a partial row block, one of them with int leaves, and the ``EXPONENTS``
extremal manifest, whose float leaves and bounds repr writes with an
exponent or as -0.0, the ``RELATIVE`` manifests, whose E reaches the
relative field's linear system, the ``SCANS`` manifest, whose smallest cap
makes the ball-cap sampler try every oversampling factor and ``sample`` top
up, the ``FAR`` manifests, whose one point lies at 1e200, and the ``CUSP``
manifests, whose Cusp anchor the membership grid leaves open for its search
and whose ball cap is centred at 1e6.  Each tree runs every manifest through
``pllab.cli.main`` four times, at one BLAS thread: once with ``--no-cache``,
twice on a fresh cache of its own (a miss, then a hit), and once on a cache
shared by its group (``shared``).  A group is one workload variant, the
``UNTRUSTED`` manifests, the ``SEED_PAIR``, the extremal block manifests,
``EXPONENTS``, ``RELATIVE``, ``SCANS``, ``FAR`` or ``CUSP``; its manifests
run in order, as a benchmark pass does, so a shared run may replay a solve
of an earlier manifest.  The sha256 of every output file and the exit code
of every run are compared between the trees, and inside each tree every
cached run is compared with the ``--no-cache`` run of the same manifest.
Prints each difference and each tree's count of cross-manifest cache hits
(hits of a shared run beyond those of its miss run), and exits 1 if there is
any difference, else 0.

Each tree runs in its own Python process (the two at once), which imports
pllab from that tree only.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = os.path.join(ROOT, "perfbench", "workloads.py")
MODES = ("no-cache", "miss", "hit", "shared")
# Fubini-Study weighted discs D(0, r) whose node matrices are too
# ill-conditioned for the approximate Lagrange matrix to be trusted, so the
# refinement decides on full solves (2, 21 and 11 of them).  They do not
# all match re-solving after every swap, so only a parent can check them.
UNTRUSTED = [
    (f"fekete-fubini-study-disc-r{r:g}-d{d}",
     {"command": "fekete", "degrees": [d], "weight": "fubini-study",
      "seed": 0, "spec": {"kind": "ComplexBall", "center": [[0.0, 0.0]],
                          "radius": r}})
    for r, d in ((1.0, 60), (2.0, 60), (3.0, 40))]
# An Interval cloud does not depend on the seed, so the two manifests draw
# the same points; whether or not a cache serves the seed-2 manifest from
# the seed-1 solves, it must write its own cloud_seed.
SEED_PAIR = [
    (f"fekete-interval-seed{seed}",
     {"command": "fekete", "degrees": [4, 8], "seed": seed,
      "spec": {"kind": "Interval", "a": -1.0, "b": 1.0}})
    for seed in (1, 2)]
# Extremal manifests of 2 * 2048 + 17 points: two full row blocks of
# extremal.BLOCK_ROWS and a partial last one.  The C^2 ball's leaves are
# all floats, so its manifest.json splices the points text the run formats;
# the disc's points include int leaves, so its manifest.json is the plain
# encode of the manifest.
BLOCK_POINTS = 2 * 2048 + 17
# Leaves that repr writes with an exponent (3e-05, -7.5e-06, 1.25e-300,
# -2.5e+16) or as -0.0, all floats, so extremal.csv, extremal.json and the
# spliced manifest.json take every kind of text the float formatter
# rewrites.  At d=12 the point 1.02239 has a lower bound of about 3e-05;
# 1.00064 does at d=4.  tests/test_cli.py reads this list too, for
# test_extremal_blocks_match_reference at d=4.
EXPONENT_POINTS = [
    [[1.5, 3e-05]], [[-2.0, -7.5e-06]], [[1.25, 1.25e-300]], [[-0.0, 1.5]],
    [[2.5, -0.0]], [[1e-05, 2.0]], [[-2.5e16, 1.0]], [[1.02239, 0.0]],
    [[1.00064, -0.0]], [[0.5, -7.5e-06]]]
EXPONENTS = ("extremal-disc-d12-exponents",
             {"command": "extremal", "degree": 12, "points": EXPONENT_POINTS,
              "seed": 4, "spec": {"kind": "ComplexBall",
                                  "center": [[0.0, 0.0]], "radius": 1.0}})

# Relative fields whose E holds grid cells, unlike the benchmark's grid-96
# interval, which misses every node and gives the constant field 1: the
# interval on the nodes of grid 97, and a disc off the centre of B.
RELATIVE = [
    ("relative-interval-g97",
     {"command": "relative", "set": {"kind": "Interval", "a": -0.5, "b": 0.5},
      "disc": {"kind": "ComplexBall", "center": [[0.0, 0.0]], "radius": 1.0},
      "grid_n": 97}),
    ("relative-off-centre-g200",
     {"command": "relative",
      "set": {"kind": "ComplexBall", "center": [[0.2, 0.1]], "radius": 0.3},
      "disc": {"kind": "ComplexBall", "center": [[0.1, -0.2]], "radius": 1.7},
      "grid_n": 200})]

# A scan whose cap [0.99, 1] of the interval holds 1/200 of its points: at
# every factor up to 128 the ball-cap sampler keeps too few, and sample tops
# up with a larger request; no benchmark manifest reaches either loop's end.
SCANS = [
    ("scan-regularity-interval-r0.01",
     {"command": "scan-regularity", "degree": 8, "seed": 1,
      "spec": {"kind": "Interval", "a": -1.0, "b": 1.0},
      "anchor": [[1.0, 0.0]], "radii": [0.5, 0.01],
      "delta_grid": [0.1 * 0.7 ** k for k in range(8)]})]

# Points at 1e200, whose squared norms overflow: a localize anchor off the
# unit disc, which exits 2 naming the anchor, and an extremal query point
# too far out for the monomial table of a C^2 ball at d=6, which exits 3.
FAR = [
    ("localize-disc-anchor-1e200",
     {"command": "localize", "degree": 4, "radius": 0.3,
      "spec": {"kind": "ComplexBall", "center": [[0.0, 0.0]], "radius": 1.0},
      "anchor": [[1e200, 1e200]]}),
    ("extremal-ball2-d6-point-1e200",
     {"command": "extremal", "degree": 6, "points": [[[1e200, 0.0],
                                                      [0.0, 0.0]]],
      "spec": {"kind": "ComplexBall", "center": [[0.0, 0.0], [0.0, 0.0]],
               "radius": 1.0}})]

# The benchmark's Cusp is anchored on its upper edge where the cube at
# t = 1/2 + 2^-13 touches it: that t lies a quarter step off the 2049-node
# grid of Cusp membership, so each check of the anchor stays open for the
# golden-section search.  At t = 1/2 itself the touching t is a grid node
# and the grid settles every check.
_T = 0.5 + 2 ** -13
CUSP_EDGE = [[_T - 0.5 * _T * _T, 0.0], [0.5 * _T * _T, 0.0]]


def _cusp(workloads):
    """The CUSP manifests: a scan and a localize at CUSP_EDGE, and a scan
    of an interval at 1e6, where the ball-cap sampler's dedupe slack is
    ulps of 1e6, not 1e-12."""
    return [
        ("scan-regularity-cusp-edge",
         {"command": "scan-regularity", "degree": 6, "seed": 5,
          "spec": workloads.CUSP, "anchor": CUSP_EDGE, "radii": [0.5, 0.25],
          "delta_grid": [2.6 * 0.7 ** k for k in range(10)]}),
        ("localize-cusp-edge",
         {"command": "localize", "degree": 6, "seed": 5, "radius": 0.3,
          "spec": workloads.CUSP, "anchor": CUSP_EDGE}),
        ("scan-regularity-interval-1e6",
         {"command": "scan-regularity", "degree": 8, "seed": 1,
          "spec": {"kind": "Interval", "a": 1e6 - 1, "b": 1e6 + 1},
          "anchor": [[1e6 + 1, 0.0]], "radii": [0.5, 0.25],
          "delta_grid": [0.1 * 0.7 ** k for k in range(8)]})]


def _extremal_blocks(workloads):
    """The BLOCK_POINTS extremal manifests, drawn at a fixed seed."""
    rng = np.random.default_rng(20)
    ball = workloads.exterior_points(rng, BLOCK_POINTS, 2)
    disc = workloads.exterior_points(rng, BLOCK_POINTS, 1)
    for p in disc[::3]:
        p[0][0] = round(4 * p[0][0])
    return [
        ("extremal-ball2-d6-blocks",
         {"command": "extremal", "spec": workloads.BALL2, "degree": 6,
          "points": ball, "cloud_target": 1000, "seed": 3}),
        ("extremal-disc-d12-int-leaves",
         {"command": "extremal", "spec": workloads.DISC, "degree": 12,
          "points": disc, "seed": 4})]


def _src(tree):
    """The directory that holds a tree's pllab package."""
    for path in (os.path.join(tree, "src"), tree):
        if os.path.isfile(os.path.join(path, "pllab", "cli.py")):
            return os.path.abspath(path)
    raise SystemExit(f"error: no pllab package in {tree} or {tree}/src")


def _manifests(seed):
    """(group, label, manifest) for every manifest of the three workloads,
    one group per variant, then the UNTRUSTED, SEED_PAIR, extremal block,
    EXPONENTS, RELATIVE, SCANS, FAR and CUSP ones."""
    spec = importlib.util.spec_from_file_location("_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    out = []
    for workload, draw in (("solve-cold", workloads.solve_cold),
                           ("replay-warm", workloads.replay_warm),
                           ("relative-field", workloads.relative_field)):
        for v, cases in enumerate(draw(seed)):
            out += [(f"{workload}/{v}", label, man) for label, man in cases]
    return (out + [("untrusted", *case) for case in UNTRUSTED]
            + [("seed-pair", *case) for case in SEED_PAIR]
            + [("extremal-blocks", *case)
               for case in _extremal_blocks(workloads)]
            + [("exponents", *EXPONENTS)]
            + [("relative", *case) for case in RELATIVE]
            + [("scans", *case) for case in SCANS]
            + [("far", *case) for case in FAR]
            + [("cusp", *case) for case in _cusp(workloads)])


def _digests(outdir):
    found = {}
    for root, _, files in os.walk(outdir):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as f:
                found[os.path.relpath(path, outdir)] = hashlib.sha256(
                    f.read()).hexdigest()
    return found


def _count_hits(hits):
    """Rebind cached_fekete, wherever a pllab module imported it, to a
    wrapper that appends to hits whether each lookup hit."""
    from pllab import fekete
    lookup = fekete.cached_fekete

    def counting(*args, **kwargs):
        result = lookup(*args, **kwargs)
        hits.append(result[2])
        return result

    for name, module in list(sys.modules.items()):
        if (name.startswith("pllab.") and module is not fekete
                and getattr(module, "cached_fekete", None) is lookup):
            module.cached_fekete = counting


def _worker(seed, result_path):
    """Run every manifest in this process; write {run: {rc, files, hits}}."""
    import contextlib
    import io
    from pllab import cli
    if not cli.__file__.startswith(sys.path[1] + os.sep):
        raise SystemExit(f"error: imported pllab from {cli.__file__}")
    hits = []
    _count_hits(hits)
    results = {}
    with tempfile.TemporaryDirectory() as work:
        mpath = os.path.join(work, "manifest.json")
        shared = {}
        for k, (group, label, man) in enumerate(_manifests(seed)):
            with open(mpath, "w") as f:
                json.dump(man, f)
            shared.setdefault(group, os.path.join(work, f"shared{len(shared)}"))
            own = os.path.join(work, f"cache{k}")
            caches = {"miss": own, "hit": own, "shared": shared[group]}
            for mode in MODES:
                outdir = os.path.join(work, f"out{k}-{mode}")
                argv = ["--manifest", mpath, "--out", outdir]
                argv += ["--no-cache"] if mode == "no-cache" else [
                    "--cache", caches[mode]]
                hits.clear()
                with contextlib.redirect_stderr(io.StringIO()):
                    rc = cli.main(argv)
                results[f"{group}/{label} {mode}"] = {
                    "rc": rc, "files": _digests(outdir), "hits": sum(hits)}
    with open(result_path, "w") as f:
        json.dump(results, f)


def _differences(label, ra, rb):
    """Lines naming the exit code and each output file two runs differ in."""
    lines = []
    if ra["rc"] != rb["rc"]:
        lines.append(f"{label}: exit {ra['rc']} vs {rb['rc']}")
    fa, fb = ra["files"], rb["files"]
    for name in sorted(set(fa) | set(fb)):
        if fa.get(name) != fb.get(name):
            lines.append(f"{label}: {name} differs")
    return lines


def _compare(a, b):
    """Lines naming every run whose exit code or output files differ."""
    lines = []
    for run in sorted(set(a) | set(b)):
        if run not in a or run not in b:
            lines.append(f"{run}: run by one tree only")
        else:
            lines += _differences(run, a[run], b[run])
    return lines


def _cached_vs_uncached(tree, results):
    """Lines naming every miss or hit run of a tree whose exit code or
    output files differ from the tree's --no-cache run of that manifest."""
    lines = []
    for run in sorted(results):
        name, mode = run.rsplit(" ", 1)
        if mode != MODES[0]:
            lines += _differences(f"{tree}: {run} vs {MODES[0]}",
                                  results[f"{name} {MODES[0]}"], results[run])
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env.pop("PLLAB_CACHE", None)
    with tempfile.TemporaryDirectory() as work:
        procs = []
        for k, tree in enumerate((args.parent, args.change)):
            result = os.path.join(work, f"result{k}.json")
            code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                    "sys.path.insert(0, sys.argv[2]); import same_bytes; "
                    "same_bytes._worker(int(sys.argv[3]), sys.argv[4])")
            procs.append((subprocess.Popen(
                [sys.executable, "-c", code, _src(tree),
                 os.path.dirname(os.path.abspath(__file__)), str(args.seed),
                 result], env=env), result))
        results = []
        for proc, result in procs:
            if proc.wait() != 0:
                print(f"error: a worker exited {proc.returncode}",
                      file=sys.stderr)
                return 2
            with open(result) as f:
                results.append(json.load(f))
    lines = _compare(*results)
    for tree, result in zip((args.parent, args.change), results):
        lines += _cached_vs_uncached(tree, result)
    for line in lines:
        print(line)
    for tree, result in zip((args.parent, args.change), results):
        names = {run.rsplit(" ", 1)[0] for run in result}
        cross = sum(result[f"{name} shared"]["hits"]
                    - result[f"{name} miss"]["hits"] for name in names)
        print(f"{tree}: {cross} cross-manifest cache hits in shared runs")
    manifests = len(results[0]) // len(MODES)
    files = sum(len(r["files"]) for r in results[0].values())
    print(f"{manifests} manifests at seed {args.seed}, {len(MODES)} runs each "
          f"({', '.join(MODES)}), {files} output files per tree: "
          + ("all byte-identical" if not lines
             else f"{len(lines)} differences"))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
