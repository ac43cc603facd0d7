"""Graded monomial bases, Vandermonde assembly, log-domain determinants,
and discrete orthonormalization on sample clouds.

The graded lexicographic order is fixed globally: exponents sorted by total
degree, then lexicographically with the first variable dominant.  Determinants
are never materialized; everything stays in the log domain.  The
orthonormalization takes one Householder QR (LAPACK geqrf, in place on its
own scaled Vandermonde) and keeps only the N x N triangle of R; the values
of the orthonormal basis on the cloud come with it, so a Fekete solve or a
gamma computation builds the cloud's Vandermonde once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import get_lapack_funcs, lu_factor

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
    if basis.n == 1:            # the monomials are the powers, in order
        return powers[0]
    V = np.empty((basis.size, m), dtype=complex)
    for row, (a1, a2) in zip(V, basis.exponents()):
        np.multiply(powers[0][a1], powers[1][a2], out=row)
    return V


def lapack_in_place(name, a):
    """Run the LAPACK routine name ("geqrf" or "geqp3") on the
    Fortran-ordered array a, overwriting it, with the workspace query and
    the info check of scipy.linalg.qr, which calls the same routine on a
    copy of a.  Returns the routine's outputs but work and info: (qr, tau)
    or (qr, jpvt, tau), with 1-based pivots jpvt."""
    fn, = get_lapack_funcs((name,), (a,))
    lwork = fn(a, lwork=-1, overwrite_a=True)[-2][0].real.astype(np.int_)
    *out, _, info = fn(a, lwork=lwork, overwrite_a=True)
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal "
                         f"{name}")
    return out


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
    # (M, N) values q_k(x_j) on the cloud the basis was built on, as
    # evaluate(cloud.points) gives them; only orthonormal_basis sets them,
    # and split() hands them over
    values: np.ndarray | None = field(default=None, repr=False)

    def split(self):
        """(this basis without its cloud values, the cloud values), so
        that the (M, N) values live only as long as their consumer keeps
        them."""
        return replace(self, values=None), self.values

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

    The basis comes with its values on the cloud (see OrthoBasis.split),
    V.T @ coeffs from the Vandermonde V that its QR factored: the product
    evaluate(cloud.points) forms from the same operations, bit for bit.
    R is that of scipy.linalg.qr(Phi, mode="r"), bit for bit: geqrf runs on
    Phi itself, which is a fresh array, and only its N x N triangle is
    read.  Raises ValueError when the scaled cloud is not finite (the real
    and imaginary parts of a finite scaled coordinate lie in [-1, 1], so V
    is finite exactly when the scaled cloud is), as that QR's finiteness
    check did, and DegenerateSetError when the cloud cannot separate
    degree-d polynomials (the set is polynomially thin at this degree).
    """
    pts = cloud.points
    M = cloud.size
    N = basis.size
    if M < N:
        raise DegenerateSetError(f"set appears pluripolar at degree {basis.d}")
    scaled, c, s = _rescale(pts)
    if not np.isfinite(scaled).all():
        raise ValueError("array must not contain infs or NaNs")
    V = vandermonde(scaled, basis)                    # (N, M)
    Phi = V.T / math.sqrt(M)                          # (M, N), Fortran order
    R = np.triu(lapack_in_place("geqrf", Phi)[0][:N])  # Q is never needed
    del Phi
    diag = np.abs(np.diag(R))
    if np.min(diag) <= DEGENERACY_RTOL * np.max(diag):
        raise DegenerateSetError(
            f"set appears pluripolar at degree {basis.d}")
    if M < 2 * N:
        raise ValueError(f"cloud size {M} < 2 N = {2 * N}")
    coeffs = np.linalg.inv(R)                         # triangular
    return OrthoBasis(basis=basis, center=c, scale=s, coeffs=coeffs,
                      condition=float(np.max(diag) / np.min(diag)),
                      values=V.T @ coeffs)
