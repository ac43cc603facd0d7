"""Compact-set model: membership, deterministic sampling, closed-form extremal values.

Sets live in C^n (n = 1 or 2); real sets are embedded as R^n + i*0.  Points are
numpy complex vectors of length n.  All balls are closed and membership uses a
1e-12 boundary tolerance (boundary points count as inside).
"""

from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

TOL = 1e-12

# golden-ratio family used for low-discrepancy lattices
_PHI1 = 0.6180339887498949
_PLASTIC = 1.3247179572447460


class DimensionMismatchError(ValueError):
    pass


class DegenerateSetError(ValueError):
    pass


def as_point(p):
    """Normalize a scalar or sequence into a complex vector."""
    if np.isscalar(p):
        return np.array([complex(p)])
    return np.asarray(p, dtype=complex).reshape(-1)


def _rows(spec, Z):
    """The (k, n) array Z as complex points of spec's C^n;
    DimensionMismatchError when n is not spec's dimension."""
    if Z.shape[1] != spec.dim:
        raise DimensionMismatchError(
            f"points have dimension {Z.shape[1]}, expected {spec.dim}")
    return np.asarray(Z, dtype=complex)


# ---------------------------------------------------------------------------
# SetSpec kinds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError("Interval requires a < b")

    @property
    def dim(self):
        return 1


@dataclass(frozen=True)
class ComplexBall:
    center: tuple          # complex entries
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("radius must be positive")

    @property
    def dim(self):
        return len(np.atleast_1d(np.asarray(self.center)))

    @property
    def c(self):
        return np.atleast_1d(np.asarray(self.center, dtype=complex))


@dataclass(frozen=True)
class RealBall:
    center: tuple          # real entries
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("radius must be positive")

    @property
    def dim(self):
        return len(np.atleast_1d(np.asarray(self.center)))

    @property
    def c(self):
        return np.atleast_1d(np.asarray(self.center, dtype=float))


@dataclass(frozen=True)
class Box:
    intervals: tuple       # ((a1,b1), ..., (an,bn)), real

    def __post_init__(self):
        for a, b in self.intervals:
            if not a < b:
                raise ValueError("Box requires a < b on every axis")

    @property
    def dim(self):
        return len(self.intervals)


@dataclass(frozen=True)
class ConvexHull:
    vertices: tuple        # tuple of complex vectors (tuples)

    def __post_init__(self):
        if len({len(np.atleast_1d(np.asarray(w))) for w in self.vertices}) > 1:
            raise DimensionMismatchError("ConvexHull vertices differ in "
                                         "dimension")

    @property
    def dim(self):
        return len(np.atleast_1d(np.asarray(self.vertices[0])))

    @property
    def v(self):
        return np.array([np.atleast_1d(np.asarray(w, dtype=complex)) for w in self.vertices])


@dataclass(frozen=True)
class Cusp:
    """UPC cusp: union over t in [0,1] of closed cubes D(h(t), M t^m).

    h is a real polynomial map R -> R^n, one coefficient list per output
    coordinate, lowest degree first.
    """

    h_coeffs: tuple        # tuple of coefficient tuples
    M: float
    m: int

    def __post_init__(self):
        if not (isinstance(self.m, int) and self.m >= 1):
            raise ValueError("cusp exponent m must be a positive integer")
        if not self.M > 0:
            raise ValueError("M must be positive")

    @property
    def dim(self):
        return len(self.h_coeffs)

    def h(self, t):
        t = np.asarray(t, dtype=float)
        return np.stack([np.polynomial.polynomial.polyval(t, np.asarray(c, dtype=float))
                         for c in self.h_coeffs], axis=-1)

    @property
    def vertex(self):
        return self.h(0.0)


@dataclass(frozen=True)
class AffineImage:
    inner: object
    matrix: tuple          # n x n complex, row-major nested tuples
    shift: tuple

    def __post_init__(self):
        if len(self.b) != self.inner.dim:
            raise DimensionMismatchError(
                f"AffineImage shift has dimension {len(self.b)}, its inner "
                f"set {self.inner.dim}")
        if abs(np.linalg.det(self.A)) < TOL:
            raise ValueError("affine map must be invertible")

    @property
    def A(self):
        return np.asarray(self.matrix, dtype=complex).reshape(self.inner.dim, self.inner.dim)

    @property
    def b(self):
        return np.atleast_1d(np.asarray(self.shift, dtype=complex))

    @property
    def dim(self):
        return self.inner.dim


@dataclass(frozen=True)
class Union:
    parts: tuple

    def __post_init__(self):
        if len(self.parts) == 0:
            raise ValueError("Union must be nonempty")
        dims = {p.dim for p in self.parts}
        if len(dims) != 1:
            raise DimensionMismatchError("Union parts have mixed dimensions")

    @property
    def dim(self):
        return self.parts[0].dim


@dataclass(frozen=True)
class BallIntersection:
    """The set K ∩ B(a, r) for the localization experiments."""

    inner: object
    center: tuple
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        if len(self.c) != self.inner.dim:
            raise DimensionMismatchError(
                f"BallIntersection center has dimension {len(self.c)}, "
                f"its inner set {self.inner.dim}")

    @property
    def c(self):
        return np.atleast_1d(np.asarray(self.center, dtype=complex))

    @property
    def dim(self):
        return self.inner.dim


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def contains(spec, p):
    """Closed-set membership with boundary tolerance TOL.

    p is one point, answered with a bool, or a (k, dim) ndarray of points,
    answered with a (k,) bool array.
    """
    if isinstance(p, np.ndarray) and p.ndim == 2:
        return _member(spec, _rows(spec, p), TOL)
    return bool(_member(spec, _rows(spec, as_point(p)[None, :]), TOL)[0])


def _real_rows(Z, tol):
    return np.all(np.abs(Z.imag) <= tol, axis=1)


def _row_norms(D):
    # the sums np.linalg.norm forms for one vector (a dot product of the real
    # parts, plus one of the imaginary parts), so a row of a batch gets the
    # same bits as the same point alone
    def norms(D):
        sq = np.vecdot(D.real, D.real)
        if np.iscomplexobj(D):
            sq = sq + np.vecdot(D.imag, D.imag)
        return np.sqrt(sq)

    with np.errstate(over="ignore"):
        out = norms(D)
        # a finite row whose squares overflow: scale it by its largest
        # coordinate part first
        big = np.flatnonzero(np.isinf(out))
        big = big[np.isfinite(D[big]).all(axis=1)]
        if big.size:
            B = D[big]
            s = np.max(np.maximum(np.abs(B.real), np.abs(B.imag)), axis=1)
            out[big] = s * norms(B / s[:, None])
    return out


def _member(spec, Z, tol):
    """Membership of each row of the (k, dim) complex array Z."""
    if isinstance(spec, Interval):
        x = Z[:, 0].real
        return _real_rows(Z, tol) & (spec.a - tol <= x) & (x <= spec.b + tol)
    if isinstance(spec, ComplexBall):
        return _row_norms(Z - spec.c) <= spec.radius + tol
    if isinstance(spec, RealBall):
        return _real_rows(Z, tol) & (_row_norms(Z.real - spec.c)
                                     <= spec.radius + tol)
    if isinstance(spec, Box):
        lo = np.array([a for a, _ in spec.intervals]) - tol
        hi = np.array([b for _, b in spec.intervals]) + tol
        return _real_rows(Z, tol) & np.all((lo <= Z.real) & (Z.real <= hi),
                                           axis=1)
    if isinstance(spec, ConvexHull):
        return _hull_contains(spec, Z, tol)
    if isinstance(spec, Cusp):
        inside = _real_rows(Z, tol)
        inside[inside] = _cusp_member(spec, Z[inside].real, tol)
        return inside
    if isinstance(spec, AffineImage):
        W = np.linalg.solve(spec.A, (Z - spec.b)[:, :, None])[:, :, 0]
        real = _real_rows(W, 1e-9)
        W[real] = W[real].real
        return _member(spec.inner, W, tol)
    if isinstance(spec, Union):
        inside = np.zeros(len(Z), dtype=bool)
        for part in spec.parts:
            rest = ~inside
            inside[rest] = _member(part, Z[rest], tol)
        return inside
    if isinstance(spec, BallIntersection):
        inside = ~(_row_norms(Z - spec.c) > spec.radius + tol)
        inside[inside] = _member(spec.inner, Z[inside], tol)
        return inside
    raise TypeError(f"unknown SetSpec kind {type(spec).__name__}")


def _hull_contains(spec, Z, tol):
    # feasibility of p = sum lambda_i v_i, sum lambda = 1, lambda >= 0,
    # in the real 2n embedding: one LP per row of Z
    from scipy.optimize import linprog

    V = spec.v
    k = V.shape[0]
    A_eq = np.vstack([V.real.T, V.imag.T, np.ones((1, k))])
    inside = np.zeros(len(Z), dtype=bool)
    for i, z in enumerate(Z):
        target = np.concatenate([z.real, z.imag, [1.0]])
        res = linprog(np.zeros(k), A_eq=A_eq, b_eq=target,
                      bounds=[(0, 1)] * k, method="highs")
        if res.success:
            resid = float(np.max(np.abs(A_eq @ res.x - target)))
            inside[i] = resid <= max(tol, 1e-9)
    return inside


# nodes of the grid of t that _cusp_grid tries before any search
_CUSP_NODES = 2049


def _cusp_member(spec, X, tol):
    """Whether each row x of the real (k, n) array X lies in the cusp:
    _cusp_gap(spec, X, *_cusp_grid(spec, X)) <= tol, row for row.

    The grid settles most rows, and the search runs only on the rest.  The
    search never leaves the two grid cells around the best node, so its
    point t lies within one step 1/2048 of that node, and the gap
    g(t) = max_j |x_j - h_j(t)| - M t^m moves by at most L / 2048 between
    them: L = max_j sum_k k |c_jk| + M m bounds the slope of g on [0, 1].
    The gap the search returns is at most the grid's best, so a row is in
    when best <= tol; and it is out when best > tol + L / 2048 + eps, where
    eps = 8 (D + 2) u s bounds the rounding of the two evaluations of g
    (Horner's rule on degree D, the subtraction, t^m and M t^m) at the row's
    scale s = max_j |x_j| + max_j sum_k |c_jk| + M, with u = 2^-53.
    """
    a, b, best = _cusp_grid(spec, X)
    coeffs = [np.abs(np.asarray(c, dtype=float)) for c in spec.h_coeffs]
    slope = max(float(np.arange(len(c)) @ c) for c in coeffs) \
        + spec.M * spec.m
    size = max(float(np.sum(c)) for c in coeffs) + spec.M
    degree = max(len(c) for c in coeffs) - 1
    eps = 8 * (degree + 2) * 2.0 ** -53 * (np.max(np.abs(X), axis=1) + size)
    inside = best <= tol
    rest = ~(inside | (best > tol + slope / (_CUSP_NODES - 1) + eps))
    if rest.any():
        inside[rest] = _cusp_gap(spec, X[rest], a[rest], b[rest],
                                 best[rest]) <= tol
    return inside


def _cusp_grid(spec, X):
    """For each row x of the real (k, n) array X, the grid node t_i of
    t_0 = 0 < ... < t_2048 = 1 whose cube is nearest x in the sup norm:
    the bracket (t_{i-1}, t_{i+1}), clipped to [0, 1], and the gap there,
    max_j |x_j - h_j(t_i)| - M t_i^m."""
    ts = np.linspace(0.0, 1.0, _CUSP_NODES)
    H = spec.h(ts)                                        # (T, n)
    radius = spec.M * ts ** spec.m
    # a block of rows at a time: the differences take rows x T floats, and
    # their running maximum over the coordinates is the sup norm
    i = np.zeros(len(X), dtype=int)
    best = np.zeros(len(X))
    step = max(1, 2 ** 20 // len(ts))
    for r in range(0, len(X), step):
        Y = X[r:r + step]
        gap = np.abs(Y[:, None, 0] - H[:, 0])
        for k in range(1, H.shape[1]):
            np.maximum(gap, np.abs(Y[:, None, k] - H[:, k]), out=gap)
        gap -= radius
        i[r:r + step] = np.argmin(gap, axis=1)
        best[r:r + step] = gap[np.arange(len(gap)), i[r:r + step]]
    return (ts[np.maximum(i - 1, 0)], ts[np.minimum(i + 1, len(ts) - 1)],
            best)


def _cusp_gap(spec, X, a, b, best):
    """For each row x of the real (k, n) array X: min over t in [0,1] of the
    sup-norm distance from x to the cube at t; <= 0 means inside.

    A 60-step golden-section search polishes the grid's bracket (a, b) and
    gap best of each row (_cusp_grid), on all rows at once.  Every row's
    arithmetic is that of a search on the row alone, t ** m included: it is
    taken on Python floats, since numpy's array power may round otherwise
    than its scalar power.
    """
    def f(t, Y):
        power = np.array([s ** spec.m for s in t.tolist()])
        return np.max(np.abs(Y - spec.h(t)), axis=1) - spec.M * power

    XX = np.concatenate([X, X])     # both probes of a step in one call
    for _ in range(60):
        m1 = a + 0.382 * (b - a)
        m2 = a + 0.618 * (b - a)
        f1, f2 = np.split(f(np.concatenate([m1, m2]), XX), 2)
        left = f1 <= f2
        b = np.where(left, m2, b)
        a = np.where(left, a, m1)
    polished = f(0.5 * (a + b), X)
    return np.where(polished < best, polished, best)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SampleCloud:
    points: np.ndarray     # (M, n) complex, immutable by convention
    seed: int
    density_parameter: float

    def __post_init__(self):
        self.points.setflags(write=False)

    @property
    def size(self):
        return self.points.shape[0]

    @cached_property
    def fingerprint(self):
        """sha256 hex digest of the points' bytes."""
        return hashlib.sha256(self.points.tobytes()).hexdigest()


def _dedupe(pts):
    """Stable removal of duplicates under 1e-12 tolerance.

    Points are equal when their coordinates agree after rounding to 12
    decimals (-0.0 equals 0.0); the first occurrence of each is kept, in order.
    """
    keys = np.round(np.hstack([pts.real, pts.imag]), 12) + 0.0
    # a stable sort of the rows puts each point's first occurrence first
    order = np.lexsort(keys.T[::-1])
    k = keys[order]
    new = np.ones(len(k), dtype=bool)
    new[1:] = np.any(k[1:] != k[:-1], axis=1)
    return pts[np.sort(order[new])]


def _kronecker(count, dims, seed):
    """Low-discrepancy lattice in [0,1)^dims (additive golden/plastic sequence)."""
    alphas = []
    g = _PLASTIC
    for k in range(1, dims + 1):
        alphas.append(1.0 / g ** k)
    alphas = np.array(alphas)
    offset = (seed * _PHI1) % 1.0
    idx = np.arange(1, count + 1)[:, None]
    return (offset + idx * alphas[None, :]) % 1.0


# Resource guard: the most points sample, or a BallIntersection's request
# of its inner set, may ask for.
MAX_SAMPLE = 10 ** 7


def sample(spec, target_count, seed):
    """Deterministic point cloud covering spec with boundary densification."""
    if target_count > MAX_SAMPLE:
        raise ValueError("target_count exceeds resource guard of 1e7")
    if target_count < 4:
        raise ValueError("target_count must be at least 4")

    pts, h = _sample_dispatch(spec, target_count, seed)
    pts = _dedupe(pts)

    # top up if dedupe/filtering undershot; each request is guarded before
    # it allocates
    factor = 2
    while len(pts) < target_count and factor <= 64:
        if target_count * factor > MAX_SAMPLE:
            raise ValueError(f"sample would draw {target_count * factor} "
                             "points to top up its cloud, over the resource "
                             "guard of 1e7")
        pts2, h = _sample_dispatch(spec, target_count * factor, seed)
        pts = _dedupe(pts2)
        factor *= 2
    if len(pts) < target_count:
        raise DegenerateSetError("could not reach target_count; spec appears degenerate")
    return SampleCloud(points=pts, seed=seed, density_parameter=h)


def _sample_dispatch(spec, count, seed):
    if isinstance(spec, Interval):
        pts = np.linspace(spec.a, spec.b, count).astype(complex)[:, None]
        return pts, (spec.b - spec.a) / (count - 1)
    if isinstance(spec, ComplexBall):
        if spec.dim == 1:
            return _sample_disc(spec, count, seed)
        return _sample_ball2(spec, count, seed)
    if isinstance(spec, RealBall):
        return _sample_realball(spec, count, seed)
    if isinstance(spec, Box):
        return _sample_box(spec, count, seed)
    if isinstance(spec, ConvexHull):
        return _sample_hull(spec, count, seed)
    if isinstance(spec, Cusp):
        return _sample_cusp(spec, count, seed)
    if isinstance(spec, AffineImage):
        pts, h = _sample_dispatch(spec.inner, count, seed)
        return pts @ spec.A.T + spec.b[None, :], h * np.linalg.norm(spec.A, 2)
    if isinstance(spec, Union):
        k = len(spec.parts)
        per = max(4, count // k + 1)
        chunks, hs = [], []
        for i, part in enumerate(spec.parts):
            p, h = _sample_dispatch(part, per, seed + i)
            chunks.append(p)
            hs.append(h)
        return np.vstack(chunks), max(hs)
    if isinstance(spec, BallIntersection):
        return _sample_ballcap(spec, count, seed)
    raise TypeError(f"unknown SetSpec kind {type(spec).__name__}")


def _ring_and_sunflower(r, count, seed):
    """Polar layout of count points on a disc of radius r about 0: angles
    ang of an equispaced boundary ring (30 % of the points), radii rr and
    angles th of a sunflower interior, both turned by a seed-dependent
    angle, and the mesh size h."""
    nb = int(math.ceil(0.3 * count))
    ni = count - nb
    theta0 = 2 * math.pi * ((seed * _PHI1) % 1.0)
    ang = theta0 + 2 * math.pi * np.arange(nb) / nb
    k = np.arange(ni) + 0.5
    rr = r * np.sqrt(k / ni) * math.sqrt(ni / (ni + 1))
    th = theta0 + 2 * math.pi * k * _PHI1
    h = max(2 * math.pi * r / nb, r * math.sqrt(math.pi / max(ni, 1)))
    return ang, rr, th, h


def _sample_disc(spec, count, seed):
    c = spec.c[0]
    r = spec.radius
    ang, rr, th, h = _ring_and_sunflower(r, count, seed)
    ring = c + r * np.exp(1j * ang)
    inner = c + rr * np.exp(1j * th)
    return np.concatenate([ring, inner])[:, None], h


def _hopf(u):
    """The rows of u in [0, 1)^3 on the unit sphere of C^2 (S^3), by Hopf
    coordinates, which carry the uniform measure of the cube to that of
    the sphere."""
    eta = np.arcsin(np.sqrt(u[:, 0]))
    return np.stack([np.cos(eta) * np.exp(2j * math.pi * u[:, 1]),
                     np.sin(eta) * np.exp(2j * math.pi * u[:, 2])], axis=1)


def _sphere3_points(count, seed):
    """Deterministic spread on the unit sphere of C^2 (S^3)."""
    return _hopf(_kronecker(count, 3, seed))


def _sample_ball2(spec, count, seed):
    c = spec.c
    r = spec.radius
    nb = int(math.ceil(0.3 * count))
    ni = count - nb
    sph = c[None, :] + r * _sphere3_points(nb, seed)
    u = _kronecker(int(ni * (16 / math.pi ** 2) * 2.2) + 8, 4, seed + 1)
    w = 2.0 * u - 1.0
    zz = w[:, 0] + 1j * w[:, 1]
    ww = w[:, 2] + 1j * w[:, 3]
    body = np.stack([zz, ww], axis=1)
    keep = np.linalg.norm(body, axis=1) <= 1.0
    body = c[None, :] + r * body[keep][:ni]
    h = r * (math.pi ** 2 / 2 / max(ni, 1)) ** 0.25
    return np.vstack([sph, body]), h


def _sample_realball(spec, count, seed):
    c = spec.c
    r = spec.radius
    n = spec.dim
    if n == 1:
        pts = np.linspace(c[0] - r, c[0] + r, count).astype(complex)[:, None]
        return pts, 2 * r / (count - 1)
    ang, rr, th, h = _ring_and_sunflower(r, count, seed)
    ring = np.stack([c[0] + r * np.cos(ang), c[1] + r * np.sin(ang)], axis=1)
    inner = np.stack([c[0] + rr * np.cos(th), c[1] + rr * np.sin(th)], axis=1)
    return np.vstack([ring, inner]).astype(complex), h


def _sample_box(spec, count, seed):
    n = spec.dim
    lo = np.array([ab[0] for ab in spec.intervals])
    hi = np.array([ab[1] for ab in spec.intervals])
    if n == 1:
        pts = np.linspace(lo[0], hi[0], count).astype(complex)[:, None]
        return pts, (hi[0] - lo[0]) / (count - 1)
    nb = int(math.ceil(0.3 * count))
    ni = count - nb
    # boundary: walk the perimeter uniformly, one edge at a time; t[e] is
    # the arc left after the edges before e, and a point that rounding
    # leaves past the last edge is dropped
    per = 2 * float(np.sum(hi - lo))
    lens = [hi[0] - lo[0], hi[1] - lo[1]] * 2
    t = [per * (np.arange(nb) + 0.5) / nb]
    for L in lens[:3]:
        t.append(t[-1] - L)
    on = np.array(t) <= np.array(lens)[:, None]
    e = np.argmax(on, axis=0)
    edge = np.stack([np.choose(e, [lo[0] + t[0], hi[0], hi[0] - t[2], lo[0]]),
                     np.choose(e, [lo[1], lo[1] + t[1], hi[1], hi[1] - t[3]])],
                    axis=1)[on.any(axis=0)]
    corners = [[lo[0], lo[1]], [hi[0], lo[1]], [hi[0], hi[1]], [lo[0], hi[1]]]
    u = _kronecker(ni, n, seed)
    inner = lo[None, :] + u * (hi - lo)[None, :]
    pts = np.vstack([np.array(corners), edge, inner]).astype(complex)
    return pts, float(np.max(hi - lo)) / math.sqrt(max(ni, 1))


def _sample_hull(spec, count, seed):
    V = spec.v
    k = V.shape[0]
    nb = int(math.ceil(0.3 * count))
    ni = count - nb
    # edges between all vertex pairs, plus interior via simplex lattice weights
    i, j = np.triu_indices(k, 1)
    t = np.linspace(0, 1, max(2, nb // max(len(i), 1) + 1))[None, :, None]
    edge = V[i][:, None, :] * (1 - t) + V[j][:, None, :] * t
    u = _kronecker(ni, k, seed)
    w = -np.log(np.maximum(u, 1e-12))
    w /= w.sum(axis=1, keepdims=True)
    inner = w @ V
    pts = np.vstack([V, edge.reshape(-1, V.shape[1]), inner])
    return pts, float(np.max(np.abs(V))) / math.sqrt(max(ni, 1))


def _sample_cusp(spec, count, seed):
    n = spec.dim
    # graded t grid toward the tip, cube lattice scaled by M t^m at each t
    per_t = max(4, int(round((count / 40) ** (n / (n + 1.0)))) + 3)
    nt = max(10, count // max(per_t ** n, 1) + 2)
    g = np.arange(nt) / (nt - 1)
    ts = g ** 2                                 # denser near t = 0
    H = spec.h(ts)
    axes = [np.linspace(-1.0, 1.0, per_t)] * n
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    # each slice's radius from the scalar power t ** m: the array power
    # ts ** m differs from it in the last bit for some t
    r = np.array([spec.M * t ** spec.m for t in ts])[:, None, None]
    slices = (H[:, None, :] + r * mesh[None, :, :]).reshape(-1, n)
    pts = np.vstack([spec.vertex[None, :], slices]).astype(complex)
    return pts, 2 * spec.M / max(per_t - 1, 1)


def _sample_ballcap(spec, count, seed):
    """The cap K ∩ B̄(c, r): the inner set's points within r + TOL of c,
    deduplicated, from a cloud of count * factor points at the first factor
    of 2, 4, ..., 128 that keeps count of them, then the sphere points in K.

    Only the inner points near the cap are deduplicated: those within
    r + TOL + slack of c, slack = n (2e-12 + 1e-14 (A + r + 1)) with A the
    largest coordinate part of c, and those with a coordinate part of 1e296
    or more.  That keeps the points, and the order, of deduplicating the
    whole cloud.  A cap point q is dropped only for an earlier point p with
    its key.  Below 1e296, np.round(x, 12) = rint(x 1e12) / 1e12 lies within
    0.5e-12 (1 + u) + 2.0000001 u |x| of x (u = 2^-53), so p and q differ by
    at most 1e-12 (1 + u) + 4.0000002 u max(|p_i|, |q_i|) in each of their
    2n coordinate parts, with |q_i| <= A + r + TOL.  Together with the
    rounding of the two distances, each within a relative 8 u, p lies
    within r + TOL + slack of c.  From 1e296 up, x * 1e12 may overflow to
    inf and merge points far apart; those points are all deduplicated.
    """
    c = spec.c
    r = spec.radius
    n = spec.dim
    cmax = float(np.max(np.maximum(np.abs(c.real), np.abs(c.imag))))
    near = r + TOL + n * (2e-12 + 1e-14 * (cmax + r + 1.0))
    for factor in (2, 4, 8, 16, 32, 64, 128):
        # each nested level multiplies the request: guard it before the
        # inner set allocates
        if count * factor > MAX_SAMPLE:
            raise ValueError(f"BallIntersection would sample "
                             f"{count * factor} points of its inner set, "
                             "over the resource guard of 1e7")
        pts, h = _sample_dispatch(spec.inner, count * factor, seed)
        huge = np.any((np.abs(pts.real) >= 1e296)
                      | (np.abs(pts.imag) >= 1e296), axis=1)
        pts = _dedupe(pts[(_row_norms(pts - c[None, :]) <= near) | huge])
        # the norm of membership, so the cap keeps what contains accepts
        inside = pts[_row_norms(pts - c[None, :]) <= r + TOL]
        if len(inside) >= count:
            break
    if len(inside) < 4:
        raise DegenerateSetError("BallIntersection retains too few points; "
                                 "set appears degenerate at this radius")
    # densify the spherical cap boundary: ring/sphere points kept in the set
    nb = max(16, int(0.3 * count))
    if n == 1:
        ang = 2 * math.pi * (np.arange(nb) + 0.5 * ((seed % 7) + 1) / 8) / nb
        shell = c[None, :] + r * np.exp(1j * ang)[:, None]
    else:
        shell = c[None, :] + r * _sphere3_points(nb, seed + 3)
    shell = shell[contains(spec.inner, shell)]
    return np.vstack([inside, shell]), h


# ---------------------------------------------------------------------------
# closed-form extremal oracles
# ---------------------------------------------------------------------------

def exact_extremal(spec, z):
    """Closed-form extremal function for balls, intervals and boxes.

    ComplexBall(a, r): max(log(|z-a|/r), 0).
    RealBall/Interval: (1/2) log h(|w|^2 + |<w,w> - 1|) with h(x) = x + sqrt(x^2-1)
    on the normalized point w = (z - center)/radius.
    Box: max_k V_[a_k, b_k](z_k), Siciak's product formula (Klimek,
    Pluripotential Theory, 1991, ch. 5).

    z is one point, answered with a float, or a (k, n) ndarray of points,
    answered with a (k,) array.
    """
    if isinstance(z, np.ndarray) and z.ndim == 2:
        return _exact(spec, _rows(spec, z))
    return float(_exact(spec, _rows(spec, as_point(z)[None, :]))[0])


def _exact(spec, Z):
    """exact_extremal at each row of the (k, n) complex array Z."""
    if isinstance(spec, ComplexBall):
        nrm = np.maximum(_row_norms(Z - spec.c), 1e-300)
        return np.maximum(np.log(nrm / spec.radius), 0.0)
    if isinstance(spec, Box):
        return np.max([_exact(Interval(a, b), Z[:, [k]])
                       for k, (a, b) in enumerate(spec.intervals)], axis=0)
    if isinstance(spec, Interval):
        c, r = 0.5 * (spec.a + spec.b), 0.5 * (spec.b - spec.a)
    elif isinstance(spec, RealBall):
        c, r = spec.c, spec.radius
    else:
        raise ValueError(f"no closed form for {type(spec).__name__}; "
                         "exact_extremal covers ComplexBall, RealBall, "
                         "Interval and Box")
    W = (Z - c) / r
    with np.errstate(over="ignore", invalid="ignore"):
        # log(x + sqrt(x^2 - 1)) for x >= 1, stable near 1
        x = np.maximum(_spread(W, 1.0), 1.0)
        out = 0.5 * np.log(x + np.sqrt(x * x - 1.0))
    # a finite row where that overflows, from about |W| = 1e77: with s its
    # largest coordinate part, x = s^2 x' for x' the spread of W / s against
    # s^-2, and log(x + sqrt(x^2 - 1)) = log x + log(1 + sqrt(1 - x^-2))
    big = np.flatnonzero(~np.isfinite(out))
    big = big[np.isfinite(W[big]).all(axis=1)]
    if big.size:
        B = W[big]
        s = np.max(np.maximum(np.abs(B.real), np.abs(B.imag)), axis=1)
        tiny = s ** -2.0
        xs = _spread(B / s[:, None], tiny)
        inv = tiny / xs
        out[big] = 0.5 * (2.0 * np.log(s) + np.log(xs)
                          + np.log1p(np.sqrt(1.0 - inv * inv)))
    return out


def _spread(W, one):
    """|w|^2 + |<w, w> - one| for each row w of W."""
    s = np.sum(W * W, axis=1) - one
    # |s| by hypot, as abs rounds one complex number: np.abs of a complex
    # array can differ in the last bit, and the log below magnifies that
    # near the set
    return np.sum(np.abs(W) ** 2, axis=1) + np.hypot(s.real, s.imag)


def halfdisc_harmonic_measure(tau):
    """Harmonic measure of the curved boundary of the upper half-disc at tau.

    h(tau) = (2/pi) arg((1+tau)/(1-tau)); equals 0 on (-1,1) and 1 on the open
    upper unit semicircle.
    """
    t = complex(tau)
    if abs(t) > 1 + 1e-9 or t.imag < -1e-9:
        raise ValueError("tau must lie in the closed upper half-disc")
    if abs(t - 1) <= TOL or abs(t + 1) <= TOL:
        raise ValueError("boundary singularity at tau = +-1")
    val = (2.0 / math.pi) * np.angle((1 + t) / (1 - t))
    return float(min(max(val, 0.0), 1.0))


# cloud size for the diameter of a set without a closed form
DIAMETER_SAMPLES = 4000


def diameter(spec):
    """Euclidean diameter; exact for primitives, hull-of-samples otherwise."""
    if isinstance(spec, Interval):
        return spec.b - spec.a
    if isinstance(spec, (ComplexBall, RealBall)):
        return 2.0 * spec.radius
    if isinstance(spec, Box):
        return float(math.sqrt(sum((b - a) ** 2 for a, b in spec.intervals)))
    if isinstance(spec, ConvexHull):
        pts = spec.v
    else:
        pts = sample(spec, DIAMETER_SAMPLES, seed=0).points
        if len(pts) > 1200:
            pts = pts[::len(pts) // 1200 + 1]
    d = 0.0
    for p in pts:
        d = max(d, float(np.max(np.linalg.norm(pts - p, axis=1))))
    return d


# ---------------------------------------------------------------------------
# JSON parsing
# ---------------------------------------------------------------------------

_FMAX = sys.float_info.max


def finite_real(x):
    """An int or float, not a bool, that converts to a finite float."""
    return type(x) in (int, float) and -_FMAX <= x <= _FMAX


def finite_pair(v):
    return type(v) is list and len(v) == 2 and all(map(finite_real, v))


def _nonempty(ok):
    return lambda v: type(v) is list and len(v) >= 1 and all(map(ok, v))


# (predicate, description) for each kind of leaf a spec document holds
_NUMBER = (finite_real, "a finite number")
_INTEGER = (lambda v: type(v) is int and finite_real(v), "an integer")
_NUMBERS = (_nonempty(finite_real), "a nonempty list of finite numbers")
_PAIRS = (_nonempty(finite_pair),
          "a nonempty list of [re, im] pairs of finite numbers")
_VERTICES = (_nonempty(_PAIRS[0]), "a nonempty list of points, each "
             "a nonempty list of [re, im] pairs of finite numbers")
_COEFFS = (_nonempty(_NUMBERS[0]),
           "a nonempty list of nonempty lists of finite numbers")
_INTERVALS = (_PAIRS[0],
              "a nonempty list of [a, b] pairs of finite numbers")
_SPEC = (lambda v: type(v) is dict, "a set spec")
_PARTS = (_nonempty(_SPEC[0]), "a nonempty list of set specs")


def _get(doc, key, check):
    """doc[key], or ValueError naming key when it is missing or fails check."""
    ok, what = check
    if key not in doc:
        raise ValueError(f"missing '{key}'")
    if not ok(doc[key]):
        raise ValueError(f"'{key}' must be {what}")
    return doc[key]


def _complexes(doc, key):
    return tuple(complex(a, b) for a, b in _get(doc, key, _PAIRS))


# Composite kinds (AffineImage, Union, BallIntersection) nest at most this
# many levels: each BallIntersection level asks its inner set for 2 to 128
# times its own count, and each level is a Python call deep.
MAX_NESTING = 8


def spec_from_dict(doc):
    """The SetSpec a JSON document describes; ValueError naming the key
    when a leaf is not a finite number (or an integer where one is due),
    and when composite kinds nest more than MAX_NESTING levels deep;
    DimensionMismatchError when its parts disagree on n or n is not 1
    or 2."""
    spec = _spec_from_dict(doc, 0)
    if spec.dim not in (1, 2):
        raise DimensionMismatchError(
            f"a set spec lies in C^1 or C^2, not C^{spec.dim}")
    return spec


def _spec_from_dict(doc, level):
    if type(doc) is not dict:
        raise ValueError("a set spec must be a JSON object")
    kind = doc.get("kind")
    if kind in ("AffineImage", "Union", "BallIntersection") \
            and level == MAX_NESTING:
        raise ValueError(f"set specs nest more than {MAX_NESTING} "
                         "composite levels deep")
    if kind == "Interval":
        return Interval(_get(doc, "a", _NUMBER), _get(doc, "b", _NUMBER))
    if kind == "ComplexBall":
        return ComplexBall(_complexes(doc, "center"),
                           _get(doc, "radius", _NUMBER))
    if kind == "RealBall":
        return RealBall(tuple(_get(doc, "center", _NUMBERS)),
                        _get(doc, "radius", _NUMBER))
    if kind == "Box":
        return Box(tuple(map(tuple, _get(doc, "intervals", _INTERVALS))))
    if kind == "ConvexHull":
        return ConvexHull(tuple(tuple(complex(a, b) for a, b in v)
                                for v in _get(doc, "vertices", _VERTICES)))
    if kind == "Cusp":
        return Cusp(tuple(map(tuple, _get(doc, "h_coeffs", _COEFFS))),
                    _get(doc, "M", _NUMBER), _get(doc, "m", _INTEGER))
    if kind == "AffineImage":
        inner = _spec_from_dict(_get(doc, "inner", _SPEC), level + 1)
        n = inner.dim
        mat = _complexes(doc, "matrix")
        if len(mat) != n * n:
            raise ValueError(f"'matrix' must hold {n * n} [re, im] pairs")
        return AffineImage(inner, tuple(map(tuple, np.reshape(mat, (n, n)))),
                           _complexes(doc, "shift"))
    if kind == "Union":
        return Union(tuple(_spec_from_dict(part, level + 1)
                           for part in _get(doc, "parts", _PARTS)))
    if kind == "BallIntersection":
        return BallIntersection(_spec_from_dict(_get(doc, "inner", _SPEC),
                                                level + 1),
                                _complexes(doc, "center"),
                                _get(doc, "radius", _NUMBER))
    raise ValueError(f"unknown SetSpec kind tag {kind!r}")
