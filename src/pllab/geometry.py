"""Compact-set model: membership, deterministic sampling, closed-form extremal values.

Sets live in C^n (n = 1 or 2); real sets are embedded as R^n + i*0.  Points are
numpy complex vectors of length n.  All balls are closed and membership uses a
1e-12 boundary tolerance (boundary points count as inside).
"""

from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class Point:
    """A point of C^n given by 2n reals (re_1, im_1, ..., re_n, im_n)."""

    coords: tuple
    real_slice: bool = False

    def __post_init__(self):
        z = np.asarray(self.coords, dtype=float)
        if not np.all(np.isfinite(z)):
            raise ValueError("point coordinates must be finite")
        if self.real_slice and np.any(z[1::2] != 0.0):
            raise ValueError("real_slice point has nonzero imaginary part")

    @property
    def z(self):
        c = np.asarray(self.coords, dtype=float)
        return c[0::2] + 1j * c[1::2]


def as_point(p, n=None):
    """Normalize scalars / sequences / Point into a complex vector of length n."""
    if isinstance(p, Point):
        z = p.z
    elif np.isscalar(p):
        z = np.array([complex(p)])
    else:
        z = np.asarray(p, dtype=complex).reshape(-1)
    if n is not None and z.size != n:
        raise DimensionMismatchError(f"point has dimension {z.size}, expected {n}")
    return z


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
    degree_bound: int = 0

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

    @property
    def c(self):
        return np.atleast_1d(np.asarray(self.center, dtype=complex))

    @property
    def dim(self):
        return self.inner.dim


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def contains(spec, p, tol=TOL):
    """Closed-set membership with boundary tolerance.

    p is one point, answered with a bool, or a (k, dim) ndarray of points,
    answered with a (k,) bool array.
    """
    if isinstance(p, np.ndarray) and p.ndim == 2:
        if p.shape[1] != spec.dim:
            raise DimensionMismatchError(
                f"points have dimension {p.shape[1]}, expected {spec.dim}")
        return _member(spec, np.asarray(p, dtype=complex), tol)
    return bool(_member(spec, as_point(p, spec.dim)[None, :], tol)[0])


def _real_rows(Z, tol):
    return np.all(np.abs(Z.imag) <= tol, axis=1)


def _row_norms(D):
    # the sums np.linalg.norm forms for one vector (a dot product of the real
    # parts, plus one of the imaginary parts), so a row of a batch gets the
    # same bits as the same point alone
    sq = np.vecdot(D.real, D.real)
    if np.iscomplexobj(D):
        sq = sq + np.vecdot(D.imag, D.imag)
    return np.sqrt(sq)


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
        inside[inside] = _cusp_gap(spec, Z[inside].real) <= tol
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


def _cusp_gap(spec, X):
    """For each row x of the real (k, n) array X: min over t in [0,1] of the
    sup-norm distance from x to the cube at t; <= 0 means inside.

    A grid of t gives each row its best cell, and a 60-step golden-section
    search polishes it, on all rows at once.  Every row's arithmetic is that
    of a search on the row alone, t ** m included: it is taken on Python
    floats, since numpy's array power may round otherwise than its scalar
    power.
    """
    if not len(X):
        return np.zeros(0)
    ts = np.linspace(0.0, 1.0, 2049)
    H = spec.h(ts)                                        # (T, n)
    radius = spec.M * ts ** spec.m

    def f(t, Y):
        power = np.array([s ** spec.m for s in t.tolist()])
        return np.max(np.abs(Y - spec.h(t)), axis=1) - spec.M * power

    # the grid's best cell of each row, a block of rows at a time: the
    # differences take rows x T x n floats
    i = np.zeros(len(X), dtype=int)
    best = np.zeros(len(X))
    step = max(1, 2 ** 20 // H.size)
    for r in range(0, len(X), step):
        gap = np.max(np.abs(X[r:r + step, None, :] - H), axis=2) - radius
        i[r:r + step] = np.argmin(gap, axis=1)
        best[r:r + step] = gap[np.arange(len(gap)), i[r:r + step]]
    a = ts[np.maximum(i - 1, 0)]
    b = ts[np.minimum(i + 1, len(ts) - 1)]
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
    spec: object = field(default=None, compare=False)

    def __post_init__(self):
        self.points.setflags(write=False)

    @property
    def size(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]

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


def sample(spec, target_count, seed=0):
    """Deterministic point cloud covering spec with boundary densification."""
    if target_count > 10 ** 7:
        raise ValueError("target_count exceeds resource guard of 1e7")
    if target_count < 4:
        raise ValueError("target_count must be at least 4")

    pts, h = _sample_dispatch(spec, target_count, seed)
    pts = _dedupe(pts)

    # top up if dedupe/filtering undershot
    factor = 2
    while len(pts) < target_count and factor <= 64:
        pts2, h = _sample_dispatch(spec, target_count * factor, seed)
        pts = _dedupe(pts2)
        factor *= 2
    if len(pts) < target_count:
        raise DegenerateSetError("could not reach target_count; spec appears degenerate")
    return SampleCloud(points=pts, seed=seed, density_parameter=h, spec=spec)


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


def _sample_disc(spec, count, seed):
    c = spec.c[0]
    r = spec.radius
    nb = int(math.ceil(0.3 * count))
    ni = count - nb
    theta0 = 2 * math.pi * ((seed * _PHI1) % 1.0)
    ang = theta0 + 2 * math.pi * np.arange(nb) / nb
    ring = c + r * np.exp(1j * ang)
    # sunflower interior
    k = np.arange(ni) + 0.5
    rr = r * np.sqrt(k / ni) * math.sqrt(ni / (ni + 1))
    th = theta0 + 2 * math.pi * k * _PHI1
    inner = c + rr * np.exp(1j * th)
    h = max(2 * math.pi * r / nb, r * math.sqrt(math.pi / max(ni, 1)))
    return np.concatenate([ring, inner])[:, None], h


def _sphere3_points(count, seed):
    """Deterministic spread on the unit sphere of C^2 (S^3), Hopf coordinates."""
    u = _kronecker(count, 3, seed)
    eta = np.arcsin(np.sqrt(u[:, 0]))
    t1 = 2 * math.pi * u[:, 1]
    t2 = 2 * math.pi * u[:, 2]
    return np.stack([np.cos(eta) * np.exp(1j * t1),
                     np.sin(eta) * np.exp(1j * t2)], axis=1)


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
    nb = int(math.ceil(0.3 * count))
    ni = count - nb
    theta0 = 2 * math.pi * ((seed * _PHI1) % 1.0)
    ang = theta0 + 2 * math.pi * np.arange(nb) / nb
    ring = np.stack([c[0] + r * np.cos(ang), c[1] + r * np.sin(ang)], axis=1)
    k = np.arange(ni) + 0.5
    rr = r * np.sqrt(k / ni) * math.sqrt(ni / (ni + 1))
    th = theta0 + 2 * math.pi * k * _PHI1
    inner = np.stack([c[0] + rr * np.cos(th), c[1] + rr * np.sin(th)], axis=1)
    pts = np.vstack([ring, inner]).astype(complex)
    h = max(2 * math.pi * r / nb, r * math.sqrt(math.pi / max(ni, 1)))
    return pts, h


def _sample_box(spec, count, seed):
    n = spec.dim
    lo = np.array([ab[0] for ab in spec.intervals])
    hi = np.array([ab[1] for ab in spec.intervals])
    if n == 1:
        pts = np.linspace(lo[0], hi[0], count).astype(complex)[:, None]
        return pts, (hi[0] - lo[0]) / (count - 1)
    nb = int(math.ceil(0.3 * count))
    ni = count - nb
    # boundary: walk the perimeter uniformly
    per = 2 * float(np.sum(hi - lo))
    s = per * (np.arange(nb) + 0.5) / nb
    edge_pts = []
    lens = [hi[0] - lo[0], hi[1] - lo[1], hi[0] - lo[0], hi[1] - lo[1]]
    for si in s:
        t = si
        for e, L in enumerate(lens):
            if t <= L:
                if e == 0:
                    edge_pts.append([lo[0] + t, lo[1]])
                elif e == 1:
                    edge_pts.append([hi[0], lo[1] + t])
                elif e == 2:
                    edge_pts.append([hi[0] - t, hi[1]])
                else:
                    edge_pts.append([lo[0], hi[1] - t])
                break
            t -= L
    corners = [[lo[0], lo[1]], [hi[0], lo[1]], [hi[0], hi[1]], [lo[0], hi[1]]]
    u = _kronecker(ni, n, seed)
    inner = lo[None, :] + u * (hi - lo)[None, :]
    pts = np.vstack([np.array(corners), np.array(edge_pts), inner]).astype(complex)
    return pts, float(np.max(hi - lo)) / math.sqrt(max(ni, 1))


def _sample_hull(spec, count, seed):
    V = spec.v
    k = V.shape[0]
    nb = int(math.ceil(0.3 * count))
    ni = count - nb
    # edges between all vertex pairs, plus interior via simplex lattice weights
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edge = []
    per_edge = max(2, nb // max(len(pairs), 1) + 1)
    for (i, j) in pairs:
        t = np.linspace(0, 1, per_edge)
        edge.append(V[i][None, :] * (1 - t)[:, None] + V[j][None, :] * t[:, None])
    edge = np.vstack(edge) if edge else V.copy()
    u = _kronecker(ni, k, seed)
    w = -np.log(np.maximum(u, 1e-12))
    w /= w.sum(axis=1, keepdims=True)
    inner = w @ V
    pts = np.vstack([V, edge, inner])
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
    chunks = [spec.vertex[None, :]]
    for t, ht in zip(ts, H):
        r = spec.M * t ** spec.m
        chunks.append(ht[None, :] + r * mesh)
    pts = np.vstack(chunks).astype(complex)
    return pts, 2 * spec.M / max(per_t - 1, 1)


def _sample_ballcap(spec, count, seed):
    c = spec.c
    r = spec.radius
    got = None
    for factor in (2, 4, 8, 16, 32, 64, 128):
        pts, h = _sample_dispatch(spec.inner, count * factor, seed)
        pts = _dedupe(pts)
        keep = np.linalg.norm(pts - c[None, :], axis=1) <= r + TOL
        inside = pts[keep]
        if len(inside) >= count:
            got = (inside, h)
            break
        got = (inside, h)
    if got is None or len(got[0]) < 4:
        raise DegenerateSetError("BallIntersection retains too few points; "
                                 "set appears degenerate at this radius")
    inside, h = got
    # densify the spherical cap boundary: ring/sphere points kept in the set
    n = spec.dim
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
    """Closed-form extremal function for balls and intervals.

    ComplexBall(a, r): max(log(|z-a|/r), 0).
    RealBall/Interval: (1/2) log h(|w|^2 + |<w,w> - 1|) with h(x) = x + sqrt(x^2-1)
    on the normalized point w = (z - center)/radius.

    z is one point, answered with a float, or a (k, n) ndarray of points,
    answered with a (k,) array.
    """
    if isinstance(z, np.ndarray) and z.ndim == 2:
        if z.shape[1] != spec.dim:
            raise DimensionMismatchError(
                f"points have dimension {z.shape[1]}, expected {spec.dim}")
        return _exact(spec, np.asarray(z, dtype=complex))
    return float(_exact(spec, as_point(z, spec.dim)[None, :])[0])


def _exact(spec, Z):
    """exact_extremal at each row of the (k, n) complex array Z."""
    if isinstance(spec, ComplexBall):
        nrm = np.maximum(_row_norms(Z - spec.c), 1e-300)
        return np.maximum(np.log(nrm / spec.radius), 0.0)
    if isinstance(spec, Interval):
        c, r = 0.5 * (spec.a + spec.b), 0.5 * (spec.b - spec.a)
    elif isinstance(spec, RealBall):
        c, r = spec.c, spec.radius
    else:
        raise ValueError(f"no closed form for {type(spec).__name__}; "
                         "exact_extremal covers ComplexBall, RealBall and "
                         "Interval")
    W = (Z - c) / r
    s = np.sum(W * W, axis=1) - 1.0
    # |s| by hypot, as abs rounds one complex number: np.abs of a complex
    # array can differ in the last bit, and the log below magnifies that
    # near the set
    x = np.sum(np.abs(W) ** 2, axis=1) + np.hypot(s.real, s.imag)
    # log(x + sqrt(x^2 - 1)) for x >= 1, stable near 1
    x = np.maximum(x, 1.0)
    return 0.5 * np.log(x + np.sqrt(x * x - 1.0))


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
        V = spec.v
        d = 0.0
        for i in range(len(V)):
            d = max(d, float(np.max(np.linalg.norm(V - V[i][None, :], axis=1))))
        return d
    cloud = sample(spec, DIAMETER_SAMPLES, seed=0)
    pts = cloud.points
    if len(pts) > 1200:
        step = len(pts) // 1200 + 1
        pts = pts[::step]
    d = 0.0
    for i in range(len(pts)):
        d = max(d, float(np.max(np.linalg.norm(pts - pts[i][None, :], axis=1))))
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


def spec_from_dict(doc):
    """The SetSpec a JSON document describes; ValueError naming the key
    when a leaf is not a finite number (or an integer where one is due)."""
    if type(doc) is not dict:
        raise ValueError("a set spec must be a JSON object")
    kind = doc.get("kind")
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
                    _get(doc, "M", _NUMBER), _get(doc, "m", _INTEGER),
                    _get(doc, "degree_bound", _INTEGER)
                    if "degree_bound" in doc else 0)
    if kind == "AffineImage":
        inner = spec_from_dict(_get(doc, "inner", _SPEC))
        n = inner.dim
        mat = _complexes(doc, "matrix")
        if len(mat) != n * n:
            raise ValueError(f"'matrix' must hold {n * n} [re, im] pairs")
        return AffineImage(inner, tuple(map(tuple, np.reshape(mat, (n, n)))),
                           _complexes(doc, "shift"))
    if kind == "Union":
        return Union(tuple(map(spec_from_dict, _get(doc, "parts", _PARTS))))
    if kind == "BallIntersection":
        return BallIntersection(spec_from_dict(_get(doc, "inner", _SPEC)),
                                _complexes(doc, "center"),
                                _get(doc, "radius", _NUMBER))
    raise ValueError(f"unknown SetSpec kind tag {kind!r}")
