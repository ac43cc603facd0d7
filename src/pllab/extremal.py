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

from .fekete import FubiniStudyWeight, ZeroWeight, quality_gamma
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
    An evaluator is an engine for `regularity.modulus_fit`: a `source`
    label and array `bounds(points)`.  A configuration replayed from the
    cache comes without its orthonormal basis; the evaluator builds it
    through quality_gamma, which also recomputes gamma and the Lebesgue
    constant, so the bracket never rests on values read from a file.
    """

    source = "sandwich"

    def __init__(self, config, cloud):
        if config.ortho is None:
            quality_gamma(config, cloud)
        self.config = config
        self.ortho = config.ortho
        self.d = config.basis.d
        self.N = config.basis.size
        self.gamma = config.gamma
        self.lebesgue = config.lebesgue
        self.gap = math.log(self.N * self.gamma) / self.d
        self.mode = ("unweighted" if isinstance(config.weight, ZeroWeight)
                     else "weighted")
        self.phi_nodes = config.weight.evaluate(config.nodes)
        self.phi_floor = float(np.min(config.weight.evaluate(cloud.points)))
        # inverse transpose of the node matrix in the orthonormal basis
        self._lu = np.linalg.inv(self.ortho.evaluate(config.nodes).T)

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
        for each candidate separately.  Raises ValueError when a Lagrange
        value overflows (a point too far out for the monomial table).
        """
        pts = np.atleast_2d(np.asarray(points, dtype=complex))
        with np.errstate(over="ignore", invalid="ignore"):
            L = self.lagrange_abs(pts)
        if not np.isfinite(L).all():
            raise ValueError("Lagrange values are not finite at a query "
                             "point: it lies too far from the set")
        with np.errstate(divide="ignore"):
            logL = np.where(L > 0, np.log(np.maximum(L, 1e-300)), -np.inf)
        # phi is 0 for ZeroWeight, and 0.0 + x is x: log never returns -0.0
        cand = self.phi_nodes[None, :] + logL / self.d
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
        lower = np.maximum(np.maximum(raw_max, raw_sum), self.phi_floor)
        upper = lower + self.gap
        return lower, upper

    def estimate(self, z):
        zz = as_point(z, self.config.basis.n)
        lower, upper = self.bounds(zz[None, :])
        return ExtremalEstimate(
            z=tuple(zz.tolist()), degree=self.d, lower=float(lower[0]),
            upper=float(upper[0]), mode=self.mode)


class ProjectiveEvaluator(SandwichEvaluator):
    """Sandwich for the Fubini-Study extremal V_E(z) = L_{E,rho}(z) - rho(z)."""

    source = "projective"

    def __init__(self, config, cloud):
        if not isinstance(config.weight, FubiniStudyWeight):
            raise ValueError("ProjectiveEvaluator requires a Fubini-Study "
                             "weight")
        super().__init__(config, cloud)
        self.mode = "projective"

    def bounds(self, points):
        lower, upper = super().bounds(points)
        rho = self.config.weight.evaluate(points)
        return lower - rho, upper - rho


def sandwich(config, cloud, z):
    """Certified lower/upper bracket of the degree-d extremal proxy at z."""
    return SandwichEvaluator(config, cloud).estimate(z)


def projective_extremal(config, cloud, z):
    """Sandwich for the Fubini-Study extremal V_E(z) = L_{E,rho}(z) - rho(z)."""
    return ProjectiveEvaluator(config, cloud).estimate(z)


# ---------------------------------------------------------------------------
# relative extremal function (1 complex dimension)
# ---------------------------------------------------------------------------

# contour levels of RelativeField.to_svg
CONTOUR_LEVELS = [0.1 * k for k in range(1, 10)]


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
        # format each coordinate once; write_csv writes a str column as is
        re = list(map(repr, self.xs.tolist()))
        im = list(map(repr, self.ys.tolist()))
        write_csv(path, ["re", "im", "value"],
                  [re * len(im), [y for y in im for _ in re],
                   self.values.ravel().tolist()])

    def to_svg(self, path):
        from .serialize import field_contour_svg
        field_contour_svg(path, self.xs, self.ys, self.values, CONTOUR_LEVELS)


def relative_extremal_1c(E, B, grid_n=256):
    """Zero-one relative extremal function of E inside the disc B.

    In C^1 this is the harmonic measure of the boundary of B in B minus E, so
    its 5-point discretization is one linear system: cells in E are fixed at
    0, cells on or outside the boundary of B at 1, and the free cells solve
    the discrete Laplace equation, factored once by a sparse LU.  `residual`
    is the largest 5-point residual on the free cells; `iterations` counts
    linear solves (1, or 0 when no cell is free).
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    if not isinstance(B, ComplexBall) or B.dim != 1:
        raise ValueError("B must be a ComplexBall in C^1")
    if grid_n < 64:
        raise ValueError("grid_n must be >= 64")
    c = B.c[0]
    r = B.radius
    xs = np.linspace(c.real - r, c.real + r, grid_n)
    ys = np.linspace(c.imag - r, c.imag + r, grid_n)
    # far from 0 for its size, or too large, B has no grid of distinct floats
    if not all(np.isfinite(g).all() and (np.diff(g) > 0).all()
               for g in (xs, ys)):
        raise ValueError("the grid on B does not resolve in floating point")
    X, Y = np.meshgrid(xs, ys)
    Z = X + 1j * Y
    outer = np.abs(Z - c) >= r
    # rounding can put the middle of a grid side just inside the disc; the
    # solve needs every free cell to have its four neighbours on the grid
    outer[[0, -1], :] = True
    outer[:, [0, -1]] = True
    e_mask = np.zeros(Z.shape, dtype=bool)
    e_mask[~outer] = contains(E, Z[~outer][:, None])

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
    T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(grid_n, grid_n))
    L = sp.kronsum(T, T, format="csr")
    f = free.ravel()
    rows = L[f]
    # symmetric positive definite: no pivoting, and a symmetric ordering
    # keeps the fill down; SuperLU's two dense work arrays hold
    # panel_size columns each, so a one-column panel keeps the peak memory
    # down too (factoring grid 1024: 0.39 GB, 0.57 GB at the default of 10)
    lu = splu(rows[:, f].tocsc(), permc_spec="MMD_AT_PLUS_A",
              diag_pivot_thresh=0.0, panel_size=1,
              options={"SymmetricMode": True})
    v[free] = lu.solve(-(rows[:, ~f] @ v[~free]))
    v = np.clip(v, 0.0, 1.0)
    nb = np.zeros_like(v)
    nb[1:-1, 1:-1] = 0.25 * (v[:-2, 1:-1] + v[2:, 1:-1] + v[1:-1, :-2] + v[1:-1, 2:])
    residual = float(np.max(np.abs(np.where(free, nb - v, 0.0))))
    return RelativeField(xs=xs, ys=ys, values=v, e_mask=e_mask,
                         outer_mask=outer, residual=residual, iterations=1)


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
