"""Equilibrium-measure pairings and the Fekete-measure convergence-rate
experiment.

Closed-form equilibrium measures (arcsine on an interval, uniform on a circle)
are classical potential theory and serve as external oracles for the rate law
|<mu_d - mu_eq, v>| <= C ||v||_{C^alpha} d^{-alpha'}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec
from .fekete import solve_fekete
from .geometry import AffineImage, ComplexBall, Interval, SampleCloud, sample


# ---------------------------------------------------------------------------
# closed-form equilibrium measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Arcsine:
    """Density 1/(pi sqrt((x-a)(b-x))) on (a, b); total mass 1."""

    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError("Arcsine requires a < b")


@dataclass(frozen=True)
class UniformCircle:
    center: complex
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("radius must be positive")


_CIRCLE_NODES = 2 ** 14

# Each degree's cloud holds max(RATE_CLOUD_TARGET, 4 N) points.
RATE_CLOUD_TARGET = 2001


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------

class Polynomial:
    """v(z) = Re sum_k c_k z^k on C (evaluated on real points as a real
    polynomial); coefficients lowest degree first."""

    def __init__(self, coefficients):
        self.coefficients = np.asarray(coefficients, dtype=complex)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        if z.ndim > 0 and z.shape[-1] == 1:
            z = z[..., 0]
        return np.polynomial.polynomial.polyval(z, self.coefficients).real


class TabulatedLipschitz:
    """Real test function given by values on a strictly increasing real
    grid; evaluation is piecewise-linear interpolation."""

    def __init__(self, grid, values):
        self.grid = np.asarray(grid, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.grid.ndim != 1 or len(self.grid) != len(self.values):
            raise ValueError("grid and values must be 1-d arrays of equal length")
        # np.interp reads a grid out of order without complaint
        if not (np.diff(self.grid) > 0).all():
            raise ValueError("grid must be strictly increasing")

    def __call__(self, z):
        x = np.asarray(z, dtype=complex)
        if x.ndim > 0 and x.shape[-1] == 1:
            x = x[..., 0]
        x = x.real
        if np.any(x < self.grid[0] - 1e-9) or np.any(x > self.grid[-1] + 1e-9):
            raise ValueError("point outside the tabulation support")
        return np.interp(x, self.grid, self.values)


def equilibrium_pairing(measure, v):
    """Integral of v against the closed-form equilibrium measure.

    Arcsine uses Gauss-Chebyshev quadrature (exact for polynomials up to very
    high degree); UniformCircle uses the trapezoid rule with 2^14 nodes.
    """
    if isinstance(measure, Arcsine):
        if isinstance(v, Polynomial):
            k = max(len(v.coefficients), 8)
        else:
            k = 4096
        # Gauss-Chebyshev: nodes cos((2j-1)pi/2k), uniform weights 1/k
        j = np.arange(1, k + 1)
        t = np.cos((2 * j - 1) * math.pi / (2 * k))
        x = 0.5 * (measure.a + measure.b) + 0.5 * (measure.b - measure.a) * t
        return float(np.mean(v(x.astype(complex))))
    if isinstance(measure, UniformCircle):
        th = 2 * math.pi * np.arange(_CIRCLE_NODES) / _CIRCLE_NODES
        z = measure.center + measure.radius * np.exp(1j * th)
        return float(np.mean(v(z)))
    raise TypeError(f"unknown measure kind {type(measure).__name__}")


# ---------------------------------------------------------------------------
# rate experiment
# ---------------------------------------------------------------------------

@dataclass
class RateFit:
    degrees: list
    errors: list
    slope: float
    c_hat: float                # bound-line constant calibrated at min degree
    bound_line: list            # c_hat * (d / d_min)^{-alpha'}
    alpha_prime: float
    monotone: bool

    def to_dict(self):
        return {"degrees": list(map(int, self.degrees)),
                "errors": list(map(float, self.errors)),
                "slope": self.slope, "c_hat": self.c_hat,
                "bound_line": list(map(float, self.bound_line)),
                "alpha_prime": self.alpha_prime, "monotone": self.monotone}


def _interval_cloud(spec, d, target, seed):
    """Interval cloud enriched with the degree-d Gauss-Lobatto nodes so the
    discrete Fekete optimum coincides with the continuum one."""
    from scipy.special import roots_jacobi

    base = sample(spec, target, seed=seed)
    if d >= 2:
        x_int, _ = roots_jacobi(d - 1, 1.0, 1.0)
        lob = np.concatenate([[-1.0], np.sort(x_int), [1.0]])
    else:
        lob = np.array([-1.0, 1.0])
    mid = 0.5 * (spec.a + spec.b)
    half = 0.5 * (spec.b - spec.a)
    extra = (mid + half * lob).astype(complex)[:, None]
    pts = np.vstack([base.points, extra])
    order = np.argsort(pts[:, 0].real, kind="stable")
    return SampleCloud(points=pts[order], seed=seed,
                       density_parameter=base.density_parameter)


def _circle_cloud(spec, d, target, seed):
    """Boundary-circle cloud whose size is divisible by d + 1 so equispaced
    roots of unity are available to the solver."""
    c = spec.c[0]
    r = spec.radius
    m = ((max(target, 4 * (d + 1)) // (d + 1)) + 1) * (d + 1)
    ang = 2 * math.pi * np.arange(m) / m
    pts = (c + r * np.exp(1j * ang))[:, None]
    return SampleCloud(points=pts, seed=seed,
                       density_parameter=2 * math.pi * r / m)


def _rate_cloud(spec, d, target, seed):
    if isinstance(spec, Interval):
        return _interval_cloud(spec, d, target, seed)
    if isinstance(spec, ComplexBall) and spec.dim == 1:
        return _circle_cloud(spec, d, target, seed)
    if isinstance(spec, AffineImage) and isinstance(spec.inner, Interval):
        inner = _interval_cloud(spec.inner, d, target, seed)
        pts = inner.points @ spec.A.T + spec.b[None, :]
        return SampleCloud(points=pts, seed=seed,
                           density_parameter=inner.density_parameter)
    return sample(spec, target, seed=seed)


def rate_experiment(spec, v, degrees, measure, alpha_prime, seed):
    """Fekete-measure pairing errors e_d = |<mu_d - mu_eq, v>| across degrees,
    with a log-log slope fit and a falsifiable bound line calibrated at the
    smallest degree."""
    degrees = list(degrees)
    if len(degrees) < 4 or any(b <= a for a, b in zip(degrees, degrees[1:])):
        raise ValueError("degrees must be strictly increasing with >= 4 values")
    if spec.dim != 1:
        raise ValueError("rate experiment supports n = 1 sets only")
    ref = equilibrium_pairing(measure, v)
    errors = []
    for d in degrees:
        basis = BasisSpec(1, d)
        cloud = _rate_cloud(spec, d, max(RATE_CLOUD_TARGET, 4 * basis.size),
                            seed)
        config = solve_fekete(cloud, basis)
        # the Fekete measure is uniform on the nodes
        val = float(np.mean(np.asarray(v(config.nodes), dtype=float)))
        errors.append(abs(val - ref))
    ds = np.array(degrees, dtype=float)
    es = np.array(errors)
    pos = es > 1e-15
    if np.sum(pos) >= 2:
        A = np.stack([np.log(ds[pos]), np.ones(int(np.sum(pos)))], axis=1)
        coef, *_ = np.linalg.lstsq(A, np.log(es[pos]), rcond=None)
        slope = float(coef[0])
    else:
        slope = -np.inf
    c_hat = errors[0] * degrees[0] ** alpha_prime
    bound = [c_hat * d ** (-alpha_prime) for d in degrees]
    monotone = all(b < a + 1e-15 for a, b in zip(errors, errors[1:]))
    return RateFit(degrees=degrees, errors=errors, slope=slope, c_hat=c_hat,
                   bound_line=bound, alpha_prime=alpha_prime, monotone=monotone)
