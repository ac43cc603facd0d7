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
from .geometry import ComplexBall, contains

# Query points per block of SandwichEvaluator.bounds, and per block of an
# extremal run's text: a block's Lagrange temporaries are a few
# BLOCK_ROWS x N arrays.
BLOCK_ROWS = 2048


class SandwichEvaluator:
    """Reusable Lagrange machinery for one (config, cloud) pair.

    Solves the N x N node system once; per-z evaluations are vectorized.
    An evaluator is an engine for `regularity.modulus_fit`: a `source`
    label and array `bounds(points)`.  The extremal runner and
    modulus_fit each pass all their points to one `bounds` call, which is
    the only loop over blocks of them.  A configuration replayed from the
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
        for each candidate separately.  The points are taken BLOCK_ROWS at a
        time, so the Lagrange temporaries stay O(BLOCK_ROWS * N) for any
        number of points; at one BLAS thread a row's bounds do not depend
        on the rows that share its block.  Raises ValueError naming the
        first point, by its index in points, whose Lagrange values
        overflow (a point too far out for the monomial table).
        """
        pts = np.atleast_2d(np.asarray(points, dtype=complex))
        lower, upper = np.empty(len(pts)), np.empty(len(pts))
        for start in range(0, len(pts), BLOCK_ROWS):
            rows = slice(start, start + BLOCK_ROWS)
            lower[rows], upper[rows] = self._block_bounds(pts[rows], start)
        return lower, upper

    def _block_bounds(self, pts, start):
        """(lower, upper) at the rows pts, which begin at point start."""
        with np.errstate(over="ignore", invalid="ignore"):
            L = self.lagrange_abs(pts)
        finite = np.isfinite(L).all(axis=1)
        if not finite.all():
            raise ValueError(
                f"Lagrange values are not finite at query point "
                f"{start + int(np.argmin(finite))}: it lies too far from "
                "the set")
        # Each step below writes into L, a fresh C-ordered (rows, N) array,
        # with the operands in the order of the plain expression, so its
        # values and np.sum's order of adding a row are those on new arrays.
        # log L, floored at log 1e-300 but -inf where L is 0 (L >= 0 here)
        zero = None if L.all() else L == 0
        np.log(np.maximum(L, 1e-300, out=L), out=L)
        if zero is not None:
            L[zero] = -np.inf
        # phi is 0 for ZeroWeight, and 0.0 + x is x: log never returns -0.0
        cand = np.add(self.phi_nodes[None, :], np.divide(L, self.d, out=L),
                      out=L)
        best = np.max(cand, axis=1)
        raw_max = best - math.log(self.gamma) / self.d
        # log sum_j |l_j(z)| e^{d phi(x_j)} in the log domain
        np.subtract(cand, best[:, None], out=cand)
        np.exp(np.multiply(self.d, cand, out=cand), out=cand)
        with np.errstate(divide="ignore"):
            logsum = np.log(np.sum(cand, axis=1))
        raw_sum = np.where(np.isfinite(best),
                           best + (np.nan_to_num(logsum)
                                   - math.log(self.lebesgue)) / self.d,
                           -np.inf)
        lower = np.maximum(np.maximum(raw_max, raw_sum), self.phi_floor)
        return lower, lower + self.gap


class ProjectiveEvaluator(SandwichEvaluator):
    """Sandwich for the Fubini-Study extremal V_E(z) = L_{E,rho}(z) - rho(z)."""

    source = "projective"

    def __init__(self, config, cloud):
        if not isinstance(config.weight, FubiniStudyWeight):
            raise ValueError("ProjectiveEvaluator requires a Fubini-Study "
                             "weight")
        super().__init__(config, cloud)

    def _block_bounds(self, pts, start):
        lower, upper = super()._block_bounds(pts, start)
        rho = self.config.weight.evaluate(pts)
        return lower - rho, upper - rho


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
        from .serialize import float_texts, write_csv
        # format each coordinate once; write_csv writes a str column as is
        re, im = float_texts(self.xs), float_texts(self.ys)
        write_csv(path, ["re", "im", "value"],
                  [re * len(im), [y for y in im for _ in re],
                   float_texts(self.values)])

    def to_svg(self, path):
        from .serialize import field_contour_svg
        field_contour_svg(path, self.xs, self.ys, self.values, CONTOUR_LEVELS)


def relative_extremal_1c(E, B, grid_n):
    """Zero-one relative extremal function of E inside the disc B.

    In C^1 this is the harmonic measure of the boundary of B in B minus E, so
    its 5-point discretization is one linear system: cells in E are fixed at
    0, cells on or outside the boundary of B at 1, and the free cells solve
    the discrete Laplace equation.  The 5-point system is assembled on the
    free cells only and factored once by a sparse LU.  `residual`
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

    # the free cells in row-major order, and each grid cell's free index
    cells = np.flatnonzero(free)
    index = np.full(free.size, -1)
    index[cells] = np.arange(cells.size)
    # a free cell is off the grid border, so its four neighbours are on it
    around = cells[:, None] + np.array([-grid_n, -1, 0, 1, grid_n])
    col = index[around]
    keep = col >= 0
    data = np.full(col.shape, -1.0)
    data[:, 2] = 4.0
    indptr = np.concatenate(([0], np.cumsum(np.count_nonzero(keep, axis=1))))
    # symmetric, so the CSR arrays of the free rows are its CSC arrays
    A = sp.csc_matrix((data[keep], col[keep], indptr),
                      shape=(cells.size, cells.size))
    # the boundary value 1 of each outer neighbour moves to the right-hand
    # side; 0.0 - count keeps the sign of a sparse product, so a row with
    # no outer neighbour holds -0.0
    rhs = -(0.0 - np.count_nonzero(outer.ravel()[around], axis=1))
    del index, around, col, keep, data, indptr
    # symmetric positive definite: no pivoting, and a symmetric ordering
    # keeps the fill down; SuperLU's two dense work arrays hold
    # panel_size columns each, so a one-column panel keeps the peak memory
    # down too (factoring grid 1024: 0.39 GB, 0.57 GB at the default of 10)
    lu = splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
              panel_size=1, options={"SymmetricMode": True})
    v = np.where(outer, 1.0, 0.0)
    v[free] = lu.solve(rhs)
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
    (lo_e,), (up_e,) = SandwichEvaluator(E_config, E_cloud).bounds(w)
    (lo_he,), (up_he,) = SandwichEvaluator(hE_config, hE_cloud).bounds(h(w))
    return CompositionGap(slack=float(h.degree * up_e - lo_he),
                          gap_domain=float(h.degree * (up_e - lo_e)),
                          gap_image=float(up_he - lo_he))
