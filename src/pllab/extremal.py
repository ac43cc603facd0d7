"""Certified degree-d sandwich estimates of extremal functions.

Lower bounds come from normalized Lagrange candidates (each lies in the
logarithmic-growth class after dividing by the measured quality factor gamma);
upper bounds come from interpolating any competitor through the N nodes.  The
certified object is the degree-d polynomial proxy; the lower track is also a
valid lower bound for the full envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fekete import FubiniStudyWeight, ZeroWeight
from .geometry import ComplexBall, as_point, contains


@dataclass(frozen=True)
class ExtremalEstimate:
    z: tuple
    degree: int
    lower: float
    upper: float
    mode: str                  # "unweighted" | "weighted" | "projective"

    @property
    def gap(self):
        return self.upper - self.lower


class SandwichEvaluator:
    """Reusable Lagrange machinery for one (config, cloud) pair.

    Solves the N x N node system once; per-z evaluations are vectorized.
    """

    def __init__(self, config, cloud):
        if config.gamma is None:
            from .fekete import quality_gamma
            quality_gamma(config, cloud)
        self.config = config
        self.cloud = cloud
        self.ortho = config.ortho
        self.d = config.basis.d
        self.N = config.basis.size
        self.gamma = config.gamma
        self.lebesgue = config.lebesgue or (self.N * self.gamma)
        self.gap = math.log(self.N * self.gamma) / self.d
        self.weighted = not isinstance(config.weight, ZeroWeight)
        self.phi_nodes = config.weight.evaluate(config.nodes)
        self.phi_floor = float(np.min(config.weight.evaluate(cloud.points)))
        # unweighted node matrix in the orthonormal basis
        self._B = self.ortho.evaluate(config.nodes)          # (N, N)
        self._lu = np.linalg.inv(self._B.T)

    def lagrange_abs(self, points):
        """|l_j(z)| for the plain (unweighted) Lagrange basis: (Mz, N)."""
        Q = self.ortho.evaluate(points)                      # (Mz, N)
        return np.abs(Q @ self._lu.T)

    def bounds(self, points):
        """Arrays (lower, upper) of the sandwich at each point.

        Three lower-bound candidates compete: the best single Lagrange
        polynomial (normalized by gamma), the signed sum of all Lagrange
        polynomials (normalized by the measured Lebesgue constant), and the
        trivial constant candidate.  Adding the exact gap log(N gamma)/d to
        the winner stays above the degree-d proxy because it already does so
        for each candidate separately.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=complex))
        L = self.lagrange_abs(pts)
        with np.errstate(divide="ignore"):
            logL = np.where(L > 0, np.log(np.maximum(L, 1e-300)), -np.inf)
        if self.weighted:
            cand = self.phi_nodes[None, :] + logL / self.d
            floor = self.phi_floor
        else:
            cand = logL / self.d
            floor = 0.0
        best = np.max(cand, axis=1)
        raw_max = best - math.log(self.gamma) / self.d
        # log sum_j |l_j(z)| e^{d phi(x_j)} in the log domain
        with np.errstate(divide="ignore"):
            logsum = np.log(np.sum(np.exp(self.d * (cand - best[:, None])),
                                   axis=1))
        raw_sum = np.where(np.isfinite(best),
                           best + (np.nan_to_num(logsum)
                                   - math.log(self.lebesgue)) / self.d,
                           -np.inf)
        lower = np.maximum(np.maximum(raw_max, raw_sum), floor)
        upper = lower + self.gap
        return lower, upper

    def estimate(self, z, mode=None):
        zz = as_point(z, self.config.basis.n)
        lower, upper = self.bounds(zz[None, :])
        return ExtremalEstimate(
            z=tuple(zz.tolist()), degree=self.d, lower=float(lower[0]),
            upper=float(upper[0]),
            mode=mode or ("weighted" if self.weighted else "unweighted"))


def sandwich(config, cloud, z):
    """Certified lower/upper bracket of the degree-d extremal proxy at z."""
    return SandwichEvaluator(config, cloud).estimate(z)


def projective_extremal(config, cloud, z):
    """Sandwich for the Fubini-Study extremal V_E(z) = L_{E,rho}(z) - rho(z)."""
    if not isinstance(config.weight, FubiniStudyWeight):
        raise ValueError("projective_extremal requires a Fubini-Study weight")
    ev = SandwichEvaluator(config, cloud)
    zz = as_point(z, config.basis.n)
    rho = float(config.weight.evaluate(zz[None, :])[0])
    est = ev.estimate(zz, mode="projective")
    return ExtremalEstimate(z=est.z, degree=est.degree,
                            lower=est.lower - rho, upper=est.upper - rho,
                            mode="projective")


class ProjectiveEvaluator:
    """Batch variant of projective_extremal for modulus scans."""

    def __init__(self, config, cloud):
        self.ev = SandwichEvaluator(config, cloud)
        self.weight = config.weight

    def bounds(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=complex))
        lower, upper = self.ev.bounds(pts)
        rho = self.weight.evaluate(pts)
        return lower - rho, upper - rho


# ---------------------------------------------------------------------------
# relative extremal function (1 complex dimension)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RelativeField:
    xs: np.ndarray             # grid coordinates (real parts)
    ys: np.ndarray
    values: np.ndarray         # (grid_n, grid_n) in [0, 1]
    e_mask: np.ndarray
    outer_mask: np.ndarray
    residual: float
    iterations: int

    def to_csv(self, path):
        from .serialize import write_csv
        rows = []
        for i, y in enumerate(self.ys):
            for j, x in enumerate(self.xs):
                rows.append([x, y, self.values[i, j]])
        write_csv(path, ["re", "im", "value"], rows)

    def to_svg(self, path, levels=None):
        from .serialize import field_contour_svg
        field_contour_svg(path, self.xs, self.ys, self.values,
                          levels or [0.1 * k for k in range(1, 10)])


def relative_extremal_1c(E, B, grid_n=256, tol=1e-8, omega=1.9,
                         max_sweeps=10 ** 6):
    """Zero-one relative extremal function of E inside the disc B.

    Red-black over-relaxation of the 5-point Laplacian with values clamped to 0
    on E-cells and 1 on/outside the disc boundary.
    """
    if not isinstance(B, ComplexBall) or B.dim != 1:
        raise ValueError("B must be a ComplexBall in C^1")
    if grid_n < 64:
        raise ValueError("grid_n must be >= 64")
    c = B.c[0]
    r = B.radius
    xs = np.linspace(c.real - r, c.real + r, grid_n)
    ys = np.linspace(c.imag - r, c.imag + r, grid_n)
    X, Y = np.meshgrid(xs, ys)
    Z = X + 1j * Y
    outer = np.abs(Z - c) >= r
    if isinstance(E, ComplexBall) and E.dim == 1:
        e_mask = (np.abs(Z - E.c[0]) <= E.radius) & ~outer
    else:
        flat = Z.ravel()
        inside_disc = ~outer.ravel()
        memb = np.zeros(flat.shape, dtype=bool)
        memb[inside_disc] = [contains(E, np.array([z])) for z in flat[inside_disc]]
        e_mask = memb.reshape(Z.shape)

    free = ~(outer | e_mask)
    if not free.any():
        values = np.where(outer, 1.0, 0.0)
        return RelativeField(xs=xs, ys=ys, values=values, e_mask=e_mask,
                             outer_mask=outer, residual=0.0, iterations=0)
    # E touching the outer boundary leaves no room for the harmonic layer
    pad = np.pad(outer, 1, constant_values=True)
    near_outer = (pad[:-2, 1:-1] | pad[2:, 1:-1] | pad[1:-1, :-2] | pad[1:-1, 2:])
    if np.any(e_mask & near_outer & ~outer):
        raise ValueError("E touches the boundary of B")

    v = np.where(outer, 1.0, 0.0)
    ii, jj = np.meshgrid(np.arange(grid_n), np.arange(grid_n), indexing="ij")
    red = ((ii + jj) % 2 == 0)
    masks = [free & red, free & ~red]
    update = np.inf
    sweeps = 0
    while update > tol and sweeps < max_sweeps:
        update = 0.0
        for mcolor in masks:
            nb = np.zeros_like(v)
            nb[1:-1, 1:-1] = 0.25 * (v[:-2, 1:-1] + v[2:, 1:-1] +
                                     v[1:-1, :-2] + v[1:-1, 2:])
            delta = np.where(mcolor, omega * (nb - v), 0.0)
            v = v + delta
            upd = float(np.max(np.abs(delta)))
            update = max(update, upd)
        v = np.clip(v, 0.0, 1.0)
        sweeps += 1
    nb = np.zeros_like(v)
    nb[1:-1, 1:-1] = 0.25 * (v[:-2, 1:-1] + v[2:, 1:-1] + v[1:-1, :-2] + v[1:-1, 2:])
    residual = float(np.max(np.abs(np.where(free, nb - v, 0.0))))
    if update > tol:
        raise RuntimeError("relaxation did not converge within the sweep cap")
    return RelativeField(xs=xs, ys=ys, values=v, e_mask=e_mask,
                         outer_mask=outer, residual=residual, iterations=sweeps)


# ---------------------------------------------------------------------------
# polynomial pullback check
# ---------------------------------------------------------------------------

class PolyMap:
    """Polynomial map C -> C^n, coefficient lists lowest degree first."""

    def __init__(self, coeff_lists):
        self.coeffs = [np.asarray(c, dtype=complex) for c in coeff_lists]
        self.degree = max(len(c) - 1 for c in self.coeffs)

    @property
    def n_out(self):
        return len(self.coeffs)

    def __call__(self, w):
        w = complex(np.atleast_1d(np.asarray(w, dtype=complex))[0])
        return np.array([np.polynomial.polynomial.polyval(w, c)
                         for c in self.coeffs])


@dataclass(frozen=True)
class CompositionGap:
    slack: float
    gap_domain: float
    gap_image: float

    @property
    def tolerance(self):
        return self.gap_domain + self.gap_image


def composition_gap(h, E_config, E_cloud, hE_config, hE_cloud, w):
    """Slack of L_{h(E)}(h(w)) <= deg(h) * L_E(w) from the two sandwiches.

    Returns d_h * upper_E(w) - lower_{h(E)}(h(w)); the inequality predicts the
    slack stays above minus the combined numerical gaps.
    """
    if not isinstance(h, PolyMap):
        h = PolyMap(h)
    if not isinstance(E_config.weight, ZeroWeight) or \
            not isinstance(hE_config.weight, ZeroWeight):
        raise ValueError("composition_gap requires unweighted configs")
    if hE_config.basis.n != h.n_out:
        raise ValueError("image config dimension does not match the map")
    est_e = sandwich(E_config, E_cloud, w)
    est_he = sandwich(hE_config, hE_cloud, h(w))
    slack = h.degree * est_e.upper - est_he.lower
    return CompositionGap(slack=float(slack),
                          gap_domain=h.degree * est_e.gap,
                          gap_image=est_he.gap)
