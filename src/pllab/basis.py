"""Graded monomial bases, Vandermonde assembly, log-domain determinants,
and discrete orthonormalization on sample clouds.

The graded lexicographic order is fixed globally: exponents sorted by total
degree, then lexicographically with the first variable dominant.  Determinants
are never materialized; everything stays in the log domain.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, qr

from .geometry import DegenerateSetError, DimensionMismatchError

PIVOT_FLOOR = 1e-300


@dataclass(frozen=True)
class BasisSpec:
    n: int
    d: int

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError("only n in {1, 2} is supported")
        if self.d < 1:
            raise ValueError("degree bound must be >= 1")

    @property
    def size(self):
        return math.comb(self.n + self.d, self.n)

    def exponents(self):
        """Exponent tuples in graded lexicographic order."""
        if self.n == 1:
            return [(k,) for k in range(self.d + 1)]
        out = []
        for deg in range(self.d + 1):
            for a1 in range(deg, -1, -1):
                out.append((a1, deg - a1))
        return out


def vandermonde(points, basis):
    """Value table V[i, j] = e_i(x_j) over the graded-lex monomials e_i."""
    pts = np.atleast_2d(np.asarray(points, dtype=complex))
    if pts.shape[1] != basis.n:
        raise DimensionMismatchError(
            f"points have dimension {pts.shape[1]}, basis expects {basis.n}")
    m = pts.shape[0]
    # per-coordinate power tables
    powers = []
    for k in range(basis.n):
        tab = np.empty((basis.d + 1, m), dtype=complex)
        tab[0] = 1.0
        for p in range(1, basis.d + 1):
            tab[p] = tab[p - 1] * pts[:, k]
        powers.append(tab)
    rows = []
    for alpha in basis.exponents():
        row = powers[0][alpha[0]]
        for k in range(1, basis.n):
            row = row * powers[k][alpha[k]]
        rows.append(row)
    return np.array(rows)


def _rescale(pts):
    """Shift/scale nodes into a unit bounding box; returns the scaled points,
    the center and the per-coordinate scale."""
    c = pts.mean(axis=0)
    dev = np.max(np.abs(pts - c[None, :]), axis=0).real
    s = np.where(dev > 0, dev, 1.0)
    return (pts - c[None, :]) / s[None, :], c, s


def log_abs_vdm(nodes, basis):
    """log |det [e_i(x_j)]| via pivoted LU on affinely rescaled nodes.

    Returns -inf when the configuration is polynomially degenerate at degree d.
    The rescaling correction sum_alpha sum_k alpha_k log s_k is exact because the
    scaled monomials are a graded-triangular recombination of the original ones.
    """
    pts = np.atleast_2d(np.asarray(nodes, dtype=complex))
    N = basis.size
    if pts.shape[0] != N:
        raise ValueError(f"need exactly {N} nodes, got {pts.shape[0]}")
    scaled, _, s = _rescale(pts)
    logs = np.log(s)
    V = vandermonde(scaled, basis)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")      # exact singularity returns -inf
        lu, piv = lu_factor(V, check_finite=False)
    diag = np.abs(np.diag(lu))
    if np.any(diag < PIVOT_FLOOR):
        return -np.inf
    corr = 0.0
    for alpha in basis.exponents():
        for k in range(basis.n):
            corr += alpha[k] * logs[k]
    return float(np.sum(np.log(diag)) + corr)


@dataclass(frozen=True, eq=False)
class OrthoBasis:
    """Orthonormal polynomial family w.r.t. the uniform discrete inner product
    on a cloud, stored as a triangular coefficient table over rescaled
    monomials."""

    basis: BasisSpec
    center: np.ndarray         # (n,) complex
    scale: np.ndarray          # (n,) real
    coeffs: np.ndarray         # (N, N): q_k = sum_i coeffs[i, k] * e'_i
    condition: float

    def evaluate(self, points):
        """Values q_k(x_j): array of shape (len(points), N)."""
        pts = np.atleast_2d(np.asarray(points, dtype=complex))
        if pts.shape[1] != self.basis.n:
            raise DimensionMismatchError(
                f"points have dimension {pts.shape[1]}, basis expects "
                f"{self.basis.n}")
        scaled = (pts - self.center[None, :]) / self.scale[None, :]
        V = vandermonde(scaled, self.basis)
        return V.T @ self.coeffs


# a cloud whose R factor has a diagonal ratio at or below this cannot
# separate the basis
DEGENERACY_RTOL = 1e-15


def orthonormal_basis(cloud, basis):
    """Discrete orthonormalization of the monomial basis on a cloud.

    Raises DegenerateSetError when the cloud cannot separate degree-d
    polynomials (the set is polynomially thin at this degree).
    """
    pts = cloud.points
    M = cloud.size
    N = basis.size
    if M < N:
        raise DegenerateSetError(f"set appears pluripolar at degree {basis.d}")
    scaled, c, s = _rescale(pts)
    V = vandermonde(scaled, basis)                    # (N, M)
    Phi = V.T / math.sqrt(M)                          # (M, N)
    R = qr(Phi, mode="r")[0][:N]                      # Q is never needed
    diag = np.abs(np.diag(R))
    if np.min(diag) <= DEGENERACY_RTOL * np.max(diag):
        raise DegenerateSetError(
            f"set appears pluripolar at degree {basis.d}")
    if M < 2 * N:
        raise ValueError(f"cloud size {M} < 2 N = {2 * N}")
    coeffs = np.linalg.inv(R)                         # triangular
    return OrthoBasis(basis=basis, center=c, scale=s, coeffs=coeffs,
                      condition=float(np.max(diag) / np.min(diag)))
