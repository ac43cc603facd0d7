"""Seeded manifest mixes for the three benchmark workloads.

A workload is a list of *variants*; a variant is one pass's worth of
``(label, manifest)`` cases, always in the same order.  Passes cycle through
the variants, so every variant runs more than once in a run and its output
bytes can be compared with an earlier pass.  The workload seed draws the
manifests' ``seed`` fields and the extremal query points; nothing else in a
manifest depends on it.

Sizes are trimmed so that a 30-second run on a 2-core box holds 8 to 16
passes: the latency tail needs at least ten samples beyond it, and the
median pass needs several passes.
"""

from __future__ import annotations

import numpy as np

INTERVAL = {"kind": "Interval", "a": -1.0, "b": 1.0}
DISC = {"kind": "ComplexBall", "center": [[0.0, 0.0]], "radius": 1.0}
BALL2 = {"kind": "ComplexBall", "center": [[0.0, 0.0], [0.0, 0.0]],
         "radius": 1.0}
REALBALL = {"kind": "RealBall", "center": [0.0, 0.0], "radius": 1.0}
BOX = {"kind": "Box", "intervals": [[-1.0, 1.0], [-1.0, 1.0]]}
CUSP = {"kind": "Cusp", "h_coeffs": [[0.0, 1.0], [0.0]], "M": 0.5, "m": 2}
HALF_DISC = {"kind": "ComplexBall", "center": [[0.0, 0.0]], "radius": 0.5}

# Solve-cold draws fresh manifest seeds for each variant, more variants than
# a run has passes: the cost of a 2-D Fekete solve depends on the cloud's
# lattice offset, so a run averages over many offsets instead of riding on
# a few.
SOLVE_COLD_VARIANTS = 16
COLD_POINTS = 2000
WARM_POINTS = 10000


def exterior_points(rng, count, dim):
    """Random points of C^dim with norm in [1.2, 3]: outside every unit set
    used here, with a margin that keeps mesh slack out of the oracle check."""
    z = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    z *= (rng.uniform(1.2, 3.0, count) / np.linalg.norm(z, axis=1))[:, None]
    return [[[float(w.real), float(w.imag)] for w in row] for row in z]


def _solver_cases(rng, points):
    """Fekete, capacity and extremal manifests, each with its own seed so no
    two of them share a cache key."""
    seeds = iter(int(s) for s in rng.choice(10 ** 6, size=13, replace=False))
    return [
        ("fekete-interval-d20",
         {"command": "fekete", "spec": INTERVAL, "degrees": [20],
          "seed": next(seeds)}),
        ("fekete-disc-d16",
         {"command": "fekete", "spec": DISC, "degrees": [16],
          "seed": next(seeds)}),
        ("fekete-ball2-d6",
         {"command": "fekete", "spec": BALL2, "degrees": [6],
          "cloud_target": 1000, "seed": next(seeds)}),
        ("fekete-box-d6",
         {"command": "fekete", "spec": BOX, "degrees": [6],
          "cloud_target": 1000, "seed": next(seeds)}),
        ("fekete-realball-d6",
         {"command": "fekete", "spec": REALBALL, "degrees": [6],
          "cloud_target": 1000, "seed": next(seeds)}),
        ("fekete-fubini-study-interval-d16",
         {"command": "fekete", "spec": INTERVAL, "degrees": [16],
          "weight": "fubini-study", "seed": next(seeds)}),
        ("fekete-interval-family",
         {"command": "fekete", "spec": INTERVAL, "degrees": [4, 8, 12],
          "seed": next(seeds)}),
        ("capacity-interval",
         {"command": "capacity", "spec": INTERVAL, "degrees": [4, 6, 8, 10],
          "seed": next(seeds)}),
        ("capacity-disc",
         {"command": "capacity", "spec": DISC, "degrees": [4, 6, 8, 10],
          "seed": next(seeds)}),
        # the C^2 ball misses its closed form today (degenerate lattice);
        # the case stays so that oracle_miss_frac shows the defect
        ("extremal-ball2-d6",
         {"command": "extremal", "spec": BALL2, "degree": 6,
          "points": exterior_points(rng, points, 2), "seed": next(seeds)}),
        ("extremal-interval-d16",
         {"command": "extremal", "spec": INTERVAL, "degree": 16,
          "points": exterior_points(rng, points, 1), "seed": next(seeds)}),
        ("extremal-disc-d12",
         {"command": "extremal", "spec": DISC, "degree": 12,
          "points": exterior_points(rng, points, 1), "seed": next(seeds)}),
        ("extremal-realball-d6",
         {"command": "extremal", "spec": REALBALL, "degree": 6,
          "points": exterior_points(rng, points, 2), "seed": next(seeds)}),
    ]


def _experiment_cases(rng):
    """Commands that call the solver directly, bypassing the cache."""
    seeds = iter(int(s) for s in rng.choice(10 ** 6, size=4, replace=False))
    return [
        ("scan-regularity-interval",
         {"command": "scan-regularity", "spec": INTERVAL,
          "anchor": [[1.0, 0.0]], "radii": [0.5, 0.25],
          "delta_grid": [0.1 * 0.7 ** k for k in range(8)], "degree": 8,
          "seed": next(seeds)}),
        ("scan-regularity-cusp",
         {"command": "scan-regularity", "spec": CUSP,
          "anchor": [[0.0, 0.0], [0.0, 0.0]], "radii": [0.5, 0.25],
          "delta_grid": [2.6 * 0.7 ** k for k in range(10)], "degree": 6,
          "seed": next(seeds)}),
        ("localize-disc-d10",
         {"command": "localize", "spec": DISC, "anchor": [[1.0, 0.0]],
          "radius": 0.3, "degree": 10, "seed": next(seeds)}),
        ("equidist-interval",
         {"command": "equidist", "spec": INTERVAL, "degrees": [2, 4, 6, 8],
          "measure": {"kind": "arcsine", "a": -1.0, "b": 1.0},
          "test_function": {"kind": "polynomial",
                            "coefficients": [[0.0, 0.0], [0.0, 0.0],
                                             [1.0, 0.0]]},
          "seed": next(seeds)}),
    ]


def solve_cold(seed):
    rng = np.random.default_rng(seed)
    return [_solver_cases(rng, COLD_POINTS) + _experiment_cases(rng)
            for _ in range(SOLVE_COLD_VARIANTS)]


def replay_warm(seed):
    rng = np.random.default_rng(seed)
    return [_solver_cases(rng, WARM_POINTS)]


def relative_field(seed):
    """Relative manifests carry no seed and no query points, so the seed
    leaves this workload unchanged."""
    del seed
    return [[
        ("relative-half-disc-g128",
         {"command": "relative", "set": HALF_DISC, "disc": DISC,
          "grid_n": 128}),
        ("relative-two-discs-g96",
         {"command": "relative",
          "set": {"kind": "Union", "parts": [
              {"kind": "ComplexBall", "center": [[-0.4, 0.0]], "radius": 0.2},
              {"kind": "ComplexBall", "center": [[0.4, 0.0]], "radius": 0.2}]},
          "disc": DISC, "grid_n": 96}),
        ("relative-interval-g96",
         {"command": "relative",
          "set": {"kind": "Interval", "a": -0.5, "b": 0.5},
          "disc": DISC, "grid_n": 96}),
    ]]


WORKLOADS = {"solve-cold": solve_cold, "replay-warm": replay_warm,
             "relative-field": relative_field}

# The latency tail is read at a fixed percentile per workload, so that runs
# of two commits compare the same statistic: the highest of 50/75/90/95/99
# that leaves at least ten samples beyond it at the workload's size here.
TAIL_PERCENTILE = {"solve-cold": 90, "replay-warm": 90, "relative-field": 75}

# Replay-warm runs the solver cases against a cache primed in set-up; the
# other two start every pass from an empty cache.
PRIMED = {"solve-cold": False, "replay-warm": True, "relative-field": False}


def priming(cases):
    """Manifests that fill the Fekete cache for every key the cases look up:
    an extremal case is replaced by a fekete manifest with the same key, so
    set-up pays for the solves but not for evaluating the query points."""
    out = []
    for label, man in cases:
        if man["command"] == "extremal":
            man = {"command": "fekete", "spec": man["spec"],
                   "degrees": [man["degree"]],
                   **{k: man[k] for k in ("seed", "weight", "cloud_target")
                      if k in man}}
            label = "prime-" + label
        out.append((label, man))
    return out


def fekete_keys(manifest):
    """The (spec, degree, weight, seed, cloud) tuples a manifest looks up in
    the Fekete cache; empty for commands that bypass the cache."""
    cmd = manifest["command"]
    if cmd in ("fekete", "capacity"):
        degrees = manifest["degrees"]
    elif cmd == "extremal":
        degrees = [manifest["degree"]]
    else:
        return []
    weight = manifest.get("weight", "zero") if cmd != "capacity" else "zero"
    spec = repr(sorted(manifest["spec"].items()))
    return [(spec, d, weight, manifest.get("seed", 0),
             manifest.get("cloud_target", 2001)) for d in degrees]
