"""Modulus-of-continuity scans, Holder/HCP fits, capacity-density arithmetic,
and the localization experiment.

Scans maximize the extremal estimate over deterministic direction meshes
(64 angles in C, 64 spread points on the unit sphere of C^2) at each radius
delta, with cumulative tracking so the modulus is exactly non-decreasing.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec
from .extremal import ProjectiveEvaluator, SandwichEvaluator
from .fekete import cached_fekete
from .geometry import (_PLASTIC, BallIntersection, DegenerateSetError,
                       _hopf, as_point, contains, diameter, exact_extremal)
from .serialize import Cache

N_DIRECTIONS = 64
# modulus fits keep the scales whose sandwich gap is at most this share of
# the lower track, and need this many of them
NOISE_FACTOR = 0.5
MIN_FIT_POINTS = 5
# hcp_scan reads the sup of the lower track on |z - a| = REFERENCE_RADIUS
REFERENCE_RADIUS = 1.0
# smallest clouds of hcp_scan and localization_experiment; see scan_cloud_target
HCP_CLOUD_FLOOR = 600
LOCALIZE_CLOUD_FLOOR = 800


def direction_mesh(n, count):
    """Deterministic unit directions: angles in C, Hopf spread on S^3 in C^2."""
    if n == 1:
        ang = 2 * math.pi * np.arange(count) / count
        return np.exp(1j * ang)[:, None]
    u = ((np.arange(count)[:, None] + 0.5) *
         np.array([1 / _PLASTIC, 1 / _PLASTIC ** 2, 1 / _PLASTIC ** 3])[None, :]) % 1.0
    return _hopf(u)


# ---------------------------------------------------------------------------
# engines
# ---------------------------------------------------------------------------

class ExactEngine:
    """Closed-form oracle engine; lower and upper tracks coincide."""

    source = "exact"

    def __init__(self, spec):
        self.spec = spec

    def bounds(self, points):
        vals = exact_extremal(self.spec, points)
        return vals, vals


# ---------------------------------------------------------------------------
# modulus of continuity
# ---------------------------------------------------------------------------

@dataclass
class ModulusReport:
    anchor: tuple
    deltas: np.ndarray
    lower: np.ndarray           # cumulative sup of the lower track
    upper: np.ndarray
    source: str
    mu_hat: float | None
    c_hat: float | None
    r_squared: float | None
    points_used: int
    inconclusive: bool
    notes: str = ""
    kept: np.ndarray = None     # mask of deltas above the noise floor

    def to_dict(self):
        return {
            "anchor": [[z.real, z.imag] for z in np.atleast_1d(np.asarray(self.anchor, dtype=complex))],
            "deltas": list(map(float, self.deltas)),
            "lower": list(map(float, self.lower)),
            "upper": list(map(float, self.upper)),
            "source": self.source,
            "mu_hat": self.mu_hat,
            "c_hat": self.c_hat,
            "r_squared": self.r_squared,
            "points_used": self.points_used,
            "inconclusive": self.inconclusive,
            "notes": self.notes,
        }


def _lstsq_r2(A, y):
    """Least-squares coefficients of A c = y, and the R^2 of that fit."""
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    ss_res = float(np.sum((y - A @ coef) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return coef, 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


def _loglog_fit(x, y):
    lx = np.log(x)
    coef, r2 = _lstsq_r2(np.stack([lx, np.ones_like(lx)], axis=1), np.log(y))
    return float(coef[0]), float(math.exp(coef[1])), r2


def _check_delta_grid(deltas):
    d = np.asarray(sorted(deltas, reverse=True), dtype=float)
    if len(d) < 6:
        raise ValueError("delta grid needs at least 6 points")
    ratios = d[1:] / d[:-1]
    if np.any(ratios > 0.7 + 1e-9):
        raise ValueError("delta grid must be geometric with ratio <= 0.7")
    return d[::-1]              # ascending


def scan_cloud_target(basis_size, floor):
    """Cloud size of a scan: 4 points per basis function, and at least
    floor."""
    return max(4 * basis_size, floor)


def modulus_fit(spec, a, delta_grid, engine):
    """Scan w(a, delta) = sup_{|z-a|=delta} of the extremal estimate, over
    N_DIRECTIONS directions, and fit log w against log delta on the lower
    track above the noise floor.  The circles of every delta go to one
    engine.bounds call."""
    av = as_point(a)
    if not contains(spec, av):
        raise ValueError("anchor point must belong to the set")
    deltas = _check_delta_grid(delta_grid)
    dirs = direction_mesh(spec.dim, N_DIRECTIONS)
    # every scale's circle in one call, scale-major
    Z = av[None, None, :] + deltas[:, None, None] * dirs[None, :, :]
    lo, up = engine.bounds(Z.reshape(-1, spec.dim))
    # the running sup run = max(run, x) from run = 0.0: fmax passes over a
    # NaN maximum as max does, and + 0.0 turns a -0.0 maximum into the 0.0
    # that max keeps (numpy does not fix which of two equal zeros it returns)
    lower, upper = (np.maximum.accumulate(
        np.fmax(np.max(v.reshape(len(deltas), -1), axis=1), 0.0) + 0.0)
        for v in (lo, up))

    gaps = upper - lower
    keep = lower > 0
    if engine.source != "exact":
        keep &= gaps <= NOISE_FACTOR * np.maximum(lower, 1e-300)
    used = int(np.sum(keep))
    if used < MIN_FIT_POINTS:
        return ModulusReport(anchor=tuple(av.tolist()), deltas=deltas,
                             lower=lower, upper=upper, source=engine.source,
                             mu_hat=None, c_hat=None, r_squared=None,
                             points_used=used, inconclusive=True,
                             notes="fewer than %d points above the noise floor"
                                   % MIN_FIT_POINTS, kept=keep)
    mu, c, r2 = _loglog_fit(deltas[keep], lower[keep])
    return ModulusReport(anchor=tuple(av.tolist()), deltas=deltas, lower=lower,
                         upper=upper, source=engine.source, mu_hat=mu, c_hat=c,
                         r_squared=r2, points_used=used, inconclusive=False,
                         kept=keep)


# ---------------------------------------------------------------------------
# HCP scan
# ---------------------------------------------------------------------------

@dataclass
class HcpReport:
    anchor: tuple
    radii: list
    sup_values: list            # sup of the lower track on the reference sphere
    mu_per_radius: list
    q_hat: float | None
    coefficient: float | None
    log_growth: bool
    dropped_radii: list

    def to_dict(self):
        return {
            "anchor": [[z.real, z.imag] for z in np.atleast_1d(np.asarray(self.anchor, dtype=complex))],
            "radii": list(map(float, self.radii)),
            "sup_values": list(map(float, self.sup_values)),
            "mu_per_radius": [m if m is None else float(m) for m in self.mu_per_radius],
            "q_hat": self.q_hat,
            "coefficient": self.coefficient,
            "log_growth": self.log_growth,
            "dropped_radii": list(map(float, self.dropped_radii)),
        }


def hcp_scan(spec, a, radii, delta_grid, degree, seed, cache=Cache(None)):
    """Per-radius Fekete solve on K cap B(a, r), modulus fit, and sup of the
    lower track over the reference sphere |z - a| = REFERENCE_RADIUS; fits the
    order q as the slope of log sup against log(1/r)."""
    av = as_point(a)
    if not contains(spec, av):
        raise ValueError("anchor point must belong to the set")
    radii = sorted(radii, reverse=True)
    target = scan_cloud_target(BasisSpec(spec.dim, degree).size,
                               HCP_CLOUD_FLOOR)
    dirs = direction_mesh(spec.dim, N_DIRECTIONS)
    sups, mus, kept, dropped = [], [], [], []
    for r in radii:
        sub = BallIntersection(spec, tuple(av.tolist()), r)
        try:
            config, cloud, _ = cached_fekete(sub, degree, "zero", seed,
                                             target, cache)
        except (DegenerateSetError, ValueError) as exc:
            warnings.warn(f"radius {r} dropped: {exc}")
            dropped.append(r)
            continue
        engine = SandwichEvaluator(config, cloud)
        Zref = av[None, :] + REFERENCE_RADIUS * dirs
        lo, _ = engine.bounds(Zref)
        sups.append(float(np.max(lo)))
        rep = modulus_fit(sub, av, delta_grid, engine)
        mus.append(rep.mu_hat)
        kept.append(r)
    if not kept:
        raise DegenerateSetError("every radius was dropped")
    if len(kept) < 4:
        return HcpReport(anchor=tuple(av.tolist()), radii=kept, sup_values=sups,
                         mu_per_radius=mus, q_hat=None, coefficient=None,
                         log_growth=False, dropped_radii=dropped)
    x = np.log(1.0 / np.array(kept))
    y = np.array(sups)
    q_hat, c_hat, r2_pow = _loglog_fit(1.0 / np.array(kept), y)
    # logarithmic-growth alternative: sup = b0 + b1 log(1/r)
    _, r2_log = _lstsq_r2(np.stack([np.ones_like(x), x], axis=1), y)
    log_growth = (r2_log >= 0.99) and (r2_log > r2_pow)
    if log_growth:
        q_hat = 0.0
    return HcpReport(anchor=tuple(av.tolist()), radii=kept, sup_values=sups,
                     mu_per_radius=mus, q_hat=q_hat, coefficient=c_hat,
                     log_growth=log_growth, dropped_radii=dropped)


# ---------------------------------------------------------------------------
# capacity density and condition (P)
# ---------------------------------------------------------------------------

def capacity_density_from_supnorm(A, q, n):
    """From sup L_{K cap B(a,r)} <= A / r^q derive the capacity density
    cap'(K cap B(a, r)) / r^{n q} >= 1/A: returns (kappa, exponent)."""
    if A <= 0:
        raise ValueError("A must be positive")
    if q < 0:
        raise ValueError("q must be nonnegative")
    return 1.0 / A, float(n * q)


@dataclass(frozen=True)
class CondPWitness:
    segment_min_diameter: float       # d > 0
    map_norm_bound: float             # m > 0
    set_diameter: float               # ||E||

    def __post_init__(self):
        if self.segment_min_diameter <= 0 or self.map_norm_bound <= 0:
            raise ValueError("witness constants must be positive")


def condition_p_bound(witness, delta):
    """Explicit Holder bound 4 sqrt(1 + ||E||) / (m d) * delta^(1/2)."""
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1]")
    return (4.0 * math.sqrt(1.0 + witness.set_diameter)
            / (witness.map_norm_bound * witness.segment_min_diameter)
            * math.sqrt(delta))


# ---------------------------------------------------------------------------
# localization experiment
# ---------------------------------------------------------------------------

@dataclass
class LocalizationResult:
    report_full: ModulusReport
    report_local: ModulusReport
    mu_full: float | None       # exponents refit on the common delta window
    mu_local: float | None
    mu_difference: float | None


def localization_experiment(spec, a, r, degree, seed, cache=Cache(None)):
    """Paired modulus fits (projective engine) for K and K cap B(a, r), on
    the scales 2.6 * 0.7^k, k < 8."""
    av = as_point(a)
    if not contains(spec, av):
        raise ValueError("anchor point must belong to the set")
    if not 0 < r < diameter(spec):
        raise ValueError("radius must lie in (0, diameter)")
    delta_grid = [2.6 * 0.7 ** k for k in range(8)]
    target = scan_cloud_target(BasisSpec(spec.dim, degree).size,
                               LOCALIZE_CLOUD_FLOOR)
    reports = []
    for s in (spec, BallIntersection(spec, tuple(av.tolist()), r)):
        config, cloud, _ = cached_fekete(s, degree, "fubini-study", seed,
                                         target, cache)
        reports.append(modulus_fit(s, av, delta_grid,
                                   ProjectiveEvaluator(config, cloud)))
    rep_full, rep_loc = reports

    # the exponents are compared on the common surviving delta window, so
    # neither fit leans on scales where the other is below its noise floor
    mu_f = mu_l = diff = None
    common = rep_full.kept & rep_loc.kept
    if int(np.sum(common)) >= 4:
        ds = rep_full.deltas[common]
        mu_f, _, _ = _loglog_fit(ds, rep_full.lower[common])
        mu_l, _, _ = _loglog_fit(ds, rep_loc.lower[common])
        diff = abs(mu_f - mu_l)
    return LocalizationResult(report_full=rep_full, report_local=rep_loc,
                              mu_full=mu_f, mu_local=mu_l, mu_difference=diff)
