import json
import math
import warnings

import numpy as np
import pytest

from pllab import geometry
from pllab.geometry import (TOL, AffineImage, BallIntersection, Box,
                            ComplexBall, ConvexHull, Cusp, DegenerateSetError,
                            DimensionMismatchError, Interval, RealBall, Union,
                            as_point, contains, diameter, exact_extremal,
                            halfdisc_harmonic_measure, sample, spec_from_dict)
from pllab.geometry import (_cusp_gap, _cusp_grid, _cusp_member, _dedupe,
                            _hull_contains, _kronecker, _sample_ballcap,
                            _sample_dispatch, _sphere3_points)


def test_as_point_dimension_check():
    # as_point only normalizes; membership and the oracle check the
    # dimension of the point against the set's
    assert as_point(2.0)[0] == 2.0 + 0j
    assert as_point([1.0, 2.0]).shape == (2,)
    for call in (contains, exact_extremal):
        with pytest.raises(DimensionMismatchError, match="dimension 2"):
            call(Interval(-1.0, 1.0), [1.0, 2.0])


def test_interval_membership_boundary_tolerance():
    iv = Interval(-1.0, 1.0)
    assert contains(iv, 1.0)
    assert contains(iv, 1.0 + 1e-13)
    assert not contains(iv, 1.001)
    assert not contains(iv, 0.5 + 0.1j)


def test_ball_membership():
    b = ComplexBall((0.0,), 1.0)
    assert contains(b, 1.0)
    assert contains(b, 1j)
    assert not contains(b, 1.1)
    rb = RealBall((0.0, 0.0), 1.0)
    assert contains(rb, np.array([0.6, 0.8]))
    assert not contains(rb, np.array([0.6 + 0.01j, 0.8]))


def test_box_and_hull_membership():
    box = Box(((0.0, 1.0), (0.0, 2.0)))
    assert contains(box, np.array([0.5, 1.5]))
    assert not contains(box, np.array([1.5, 0.5]))
    hull = ConvexHull(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
    assert contains(hull, np.array([0.2, 0.2]))
    assert contains(hull, np.array([0.5, 0.5]))
    assert not contains(hull, np.array([0.6, 0.6]))


def test_cusp_membership():
    cusp = Cusp(((0.0, 1.0), (0.0,)), 1.0, 2)
    # (0.5, 0.2) is covered by the cube at t around 0.53
    assert contains(cusp, np.array([0.5, 0.2]))
    assert contains(cusp, np.array([0.0, 0.0]))
    # far off the arc in the narrow region
    narrow = Cusp(((0.0, 1.0), (0.0,)), 0.5, 2)
    assert not contains(narrow, np.array([0.1, 0.2]))


def test_affine_image_membership():
    iv = Interval(-1.0, 1.0)
    img = AffineImage(iv, ((2.0,),), (1.0,))   # [-1,1] -> [-1,3]
    assert contains(img, 3.0)
    assert contains(img, -1.0)
    assert not contains(img, 3.2)
    with pytest.raises(ValueError):
        AffineImage(iv, ((0.0,),), (0.0,))


def test_union_and_ball_intersection():
    u = Union((Interval(-1.0, 0.0), Interval(0.5, 1.0)))
    assert contains(u, -0.5)
    assert contains(u, 0.75)
    assert not contains(u, 0.25)
    cap = BallIntersection(ComplexBall((0.0,), 1.0), (1.0,), 0.3)
    assert contains(cap, 0.9)
    assert not contains(cap, 0.5)       # inside the disc, outside the ball
    assert not contains(cap, 1.2)


def _cusp_gap_loop(spec, x):
    """Per-point reference for _cusp_gap: grid, then a scalar 60-step
    golden-section search on the one point x."""
    ts = np.linspace(0.0, 1.0, 2049)
    H = spec.h(ts)
    gap = np.max(np.abs(x[None, :] - H), axis=1) - spec.M * ts ** spec.m
    i = int(np.argmin(gap))
    a, b = ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)]
    f = lambda t: float(np.max(np.abs(x - spec.h(t))) - spec.M * t ** spec.m)
    for _ in range(60):
        m1 = a + 0.382 * (b - a)
        m2 = a + 0.618 * (b - a)
        if f(m1) <= f(m2):
            b = m2
        else:
            a = m1
    return min(float(gap[i]), f(0.5 * (a + b)))


def _contains_loop(spec, p, tol=TOL):
    """Per-point reference: the scalar membership test, one point at a time."""
    z = as_point(p)
    real = bool(np.all(np.abs(z.imag) <= tol))
    if isinstance(spec, Interval):
        return real and spec.a - tol <= z[0].real <= spec.b + tol
    if isinstance(spec, ComplexBall):
        return bool(np.linalg.norm(z - spec.c) <= spec.radius + tol)
    if isinstance(spec, RealBall):
        return real and bool(
            np.linalg.norm(z.real - spec.c) <= spec.radius + tol)
    if isinstance(spec, Box):
        return real and all(a - tol <= x <= b + tol
                            for x, (a, b) in zip(z.real, spec.intervals))
    if isinstance(spec, ConvexHull):
        return bool(_hull_contains(spec, z[None], tol)[0])
    if isinstance(spec, Cusp):
        return real and _cusp_gap_loop(spec, z.real) <= tol
    if isinstance(spec, AffineImage):
        w = np.linalg.solve(spec.A, z - spec.b)
        if np.all(np.abs(w.imag) <= 1e-9):
            w = w.real.astype(complex)
        return _contains_loop(spec.inner, w, tol)
    if isinstance(spec, Union):
        return any(_contains_loop(part, z, tol) for part in spec.parts)
    if isinstance(spec, BallIntersection):
        if np.linalg.norm(z - spec.c) > spec.radius + tol:
            return False
        return _contains_loop(spec.inner, z, tol)
    raise TypeError(type(spec).__name__)


# offsets across the 1e-12 boundary tolerance, inside and outside
_NEAR = np.array([-3e-12, -1e-12, -0.5e-12, 0.0, 0.5e-12, 0.9e-12, 1.5e-12,
                  3e-12])


def _sphere(n, count, rng):
    u = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def _probe(spec, rng):
    """Random points around spec plus points just inside and just outside
    each boundary, and points with tiny imaginary parts."""
    n = spec.dim
    pts = [rng.uniform(-2.5, 2.5, (60, n)) + 0j,
           rng.uniform(-2.5, 2.5, (20, n)) + 1j * rng.uniform(-1, 1, (20, n))]
    if isinstance(spec, Interval):
        ends = np.array([spec.a, spec.b])
        pts.append((ends[:, None] + _NEAR[None, :]).reshape(-1, 1) + 0j)
    elif isinstance(spec, (ComplexBall, RealBall)):
        u = _sphere(n, 12, rng)
        if isinstance(spec, RealBall):
            u = u.real / np.linalg.norm(u.real, axis=1, keepdims=True)
        rad = spec.radius + _NEAR
        pts.append((spec.c + rad[:, None, None] * u[None]).reshape(-1, n))
    elif isinstance(spec, Box):
        lo = np.array([a for a, _ in spec.intervals])
        hi = np.array([b for _, b in spec.intervals])
        mid = 0.5 * (lo + hi)
        for k in range(n):
            for face in (lo[k], hi[k]):
                q = np.tile(mid, (len(_NEAR), 1))
                q[:, k] = face + _NEAR
                pts.append(q + 0j)
        pts.append(np.tile(hi, (len(_NEAR), 1)) + _NEAR[:, None])
    elif isinstance(spec, ConvexHull):
        V = spec.v
        t = np.linspace(0.0, 1.0, 5)[:, None]
        edge = (V[0] * (1 - t) + V[1] * t)
        normal = np.zeros(n, dtype=complex)
        normal[-1] = 1.0
        pts.append(edge + 1e-9 * normal)
        pts.append(edge - 1e-9 * normal)
    elif isinstance(spec, Cusp):
        t = np.linspace(0.05, 1.0, 8)
        pts.append(spec.h(t) + 0j)
        pts.append(spec.h(t) + (spec.M * t ** spec.m)[:, None] + 0j)
    elif isinstance(spec, BallIntersection):
        u = _sphere(n, 8, rng)
        rad = spec.radius + _NEAR
        pts.append((spec.c + rad[:, None, None] * u[None]).reshape(-1, n))
        pts.append(_probe(spec.inner, rng))
    elif isinstance(spec, AffineImage):
        inner = _probe(spec.inner, rng)
        pts.append(inner @ spec.A.T + spec.b)
    elif isinstance(spec, Union):
        pts += [_probe(part, rng) for part in spec.parts]
    P = np.vstack(pts)
    # the same points nudged off the real slice, across the tolerance
    lift = np.zeros(n)
    lift[0] = 1.0
    off = P[:: max(1, len(P) // 24)]
    for eps in (-2e-12, 0.5e-12, 2e-12):
        pts.append(off + 1j * eps * lift)
    return np.vstack(pts)


def _contains_at(spec, p, tol):
    """contains(spec, p) at the boundary tolerance tol: contains itself at
    TOL, else the membership rows it answers from."""
    if tol == TOL:
        return contains(spec, p)
    if isinstance(p, np.ndarray) and p.ndim == 2:
        return geometry._member(spec, p, tol)
    return bool(geometry._member(spec, as_point(p)[None, :], tol)[0])


def _gap(spec, X):
    """The grid step and the search on every row: the gap of each row."""
    return _cusp_gap(spec, X, *_cusp_grid(spec, X))


CUSP_SPECS = [Cusp(((0.0, 1.0), (0.0,)), 0.5, 2),
              Cusp(((0.0, 1.0), (0.0, 0.0, 0.7)), 0.3, 3),
              Cusp(((0.2, -1.0), (0.0, 0.5), (0.1, 0.0, 1.0)), 1.0, 1)]
CUSP_IDS = ["m2", "m3-curved", "m1-3d"]


@pytest.mark.parametrize("spec", CUSP_SPECS, ids=CUSP_IDS)
def test_cusp_gap_matches_the_per_point_search_bit_for_bit(spec):
    rng = np.random.default_rng(3)
    t = rng.uniform(0.0, 1.0, 20)
    X = np.vstack([spec.h(t) + rng.uniform(-1, 1, (20, spec.dim))
                   * (spec.M * t ** spec.m)[:, None],
                   rng.uniform(-1.5, 1.5, (20, spec.dim))])
    gaps = _gap(spec, X)
    assert np.array_equal(gaps, [_cusp_gap_loop(spec, x) for x in X])
    assert np.array_equal(_gap(spec, X[:0]), [])


def _cusp_boundary_points(spec, rng):
    """Points on the faces of the cubes D(h(t), M t^m), pushed in and out by
    relative steps from 1e-3 down to 1e-13 and 0, and random points."""
    n = spec.dim
    t = rng.uniform(0.0, 1.0, 120)
    u = rng.uniform(-1.0, 1.0, (120, n))
    face = rng.integers(0, n, 120)
    u[np.arange(120), face] = np.sign(u[np.arange(120), face])
    step = np.array([-1e-3, -1e-5, -1e-9, -1e-12, -1e-13, 0.0, 1e-13, 1e-12,
                     1e-9, 1e-5, 1e-3])
    scale = (spec.M * t ** spec.m)[:, None, None] * (1 + step)[None, :, None]
    X = (spec.h(t)[:, None, :] + scale * u[:, None, :]).reshape(-1, n)
    return np.vstack([X, rng.uniform(-1.5, 1.5, (120, n))])


@pytest.mark.parametrize("spec", CUSP_SPECS, ids=CUSP_IDS)
def test_cusp_membership_equals_the_searched_gap(spec, monkeypatch):
    """The grid settles most rows; every decision, at TOL and at 1e-9, is
    that of the search on all rows, on boundary-heavy points and on points
    at |x| = 1e8."""
    rng = np.random.default_rng(17)
    near = _cusp_boundary_points(spec, rng)
    far = rng.standard_normal((200, spec.dim))
    far *= 1e8 / np.max(np.abs(far), axis=1, keepdims=True)
    searched = []
    search = geometry._cusp_gap

    def counting(spec, X, *args):
        searched.append(len(X))
        return search(spec, X, *args)

    monkeypatch.setattr(geometry, "_cusp_gap", counting)
    for X in (near, far):
        gap = search(spec, X, *_cusp_grid(spec, X))
        for tol in (TOL, 1e-9):
            want = gap <= tol
            assert np.array_equal(_cusp_member(spec, X, tol), want)
            assert np.array_equal(_contains_at(spec, X + 0j, tol), want)
            assert 0 < want.sum() < len(X) or X is far and not want.any()
    # the boundary points leave some rows open, but few; far rows settle
    assert len(searched) == 4
    assert all(0 < k < len(near) // 4 for k in searched)


@pytest.mark.parametrize("spec", CUSP_SPECS, ids=CUSP_IDS)
def test_cusp_vertex_never_enters_the_search(spec, monkeypatch):
    """A scan anchored at the vertex checks it on the cusp and on its caps:
    the grid settles each check."""
    calls = []
    monkeypatch.setattr(geometry, "_cusp_gap",
                        lambda *args: calls.append(args) or 1 / 0)
    v = spec.vertex
    assert contains(spec, v)
    assert contains(spec, v[None, :])[0]
    assert contains(BallIntersection(spec, tuple(v), 0.25), v)
    assert calls == []


def _cusp_grid_max(spec, X):
    """_cusp_grid as it was: the sup norm by np.max over an axis of the n
    coordinates, on a rows x T x n array of differences."""
    ts = np.linspace(0.0, 1.0, geometry._CUSP_NODES)
    H = spec.h(ts)
    radius = spec.M * ts ** spec.m
    gap = np.vstack([np.max(np.abs(X[r:r + 256, None, :] - H), axis=2)
                     - radius for r in range(0, len(X), 256)])
    i = np.argmin(gap, axis=1)
    return (ts[np.maximum(i - 1, 0)], ts[np.minimum(i + 1, len(ts) - 1)],
            gap[np.arange(len(X)), i])


@pytest.mark.parametrize("spec", CUSP_SPECS, ids=CUSP_IDS)
def test_cusp_grid_equals_the_max_over_coordinates(spec):
    # 1440 rows: three of _cusp_grid's blocks
    X = _cusp_boundary_points(spec, np.random.default_rng(23))
    for got, want in zip(_cusp_grid(spec, X), _cusp_grid_max(spec, X)):
        assert got.tobytes() == want.tobytes()


MEMBERSHIP_SPECS = [
    Interval(-1.0, 1.0),
    ComplexBall((0.3 + 0.1j,), 0.7),
    ComplexBall((0.0, 0.2j), 1.0),
    RealBall((0.5,), 1.0),
    RealBall((0.1, -0.2), 0.8),
    Box(((0.0, 1.0), (0.0, 2.0))),
    ConvexHull(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))),
    Cusp(((0.0, 1.0), (0.0,)), 0.5, 2),
    AffineImage(Interval(-1.0, 1.0), ((2.0,),), (1.0,)),
    AffineImage(ComplexBall((0.0, 0.0), 1.0),
                ((1.0, 0.5j), (0.0, 2.0)), (0.1, -0.3j)),
    Union((Interval(-1.0, 0.0), Interval(0.5, 1.0))),
    Union((ComplexBall((-0.4,), 0.2), ComplexBall((0.4,), 0.2))),
    BallIntersection(ComplexBall((0.0,), 1.0), (1.0,), 0.3),
    BallIntersection(Box(((0.0, 1.0), (0.0, 1.0))), (1.0, 1.0), 0.5),
]


@pytest.mark.parametrize("spec", MEMBERSHIP_SPECS,
                         ids=lambda s: type(s).__name__)
@pytest.mark.parametrize("tol", [TOL, 1e-9])
def test_contains_array_matches_per_point(spec, tol):
    P = _probe(spec, np.random.default_rng(7))
    ref = np.array([_contains_loop(spec, p, tol) for p in P])
    got = _contains_at(spec, P, tol)
    assert got.dtype == bool and got.shape == (len(P),)
    assert np.array_equal(got, ref)
    assert 0 < ref.sum() < len(ref)
    single = [_contains_at(spec, p, tol) for p in P]
    assert all(type(v) is bool for v in single)
    assert single == ref.tolist()


def _radius_reaching(norm):
    """A radius r with r + TOL == norm exactly, or None."""
    r = norm - TOL
    for _ in range(4):
        if r + TOL == norm:
            return r
        r = np.nextafter(r, np.inf if r + TOL < norm else -np.inf)
    return None


@pytest.mark.parametrize("kind", [ComplexBall, RealBall])
def test_contains_ball_threshold_is_linalg_norm(kind):
    """A point whose np.linalg.norm distance is exactly radius + tol is
    inside, one ulp further is outside, singly and in an array: the batch
    sums the squares as np.linalg.norm does for one point."""
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(200):
        c = rng.standard_normal(2)
        z = rng.standard_normal(2)
        if kind is ComplexBall:
            c = c + 1j * rng.standard_normal(2)
            z = z + 1j * rng.standard_normal(2)
        norm = float(np.linalg.norm(z - c))
        r = _radius_reaching(norm)
        r_below = _radius_reaching(np.nextafter(norm, 0.0))
        if r is None or r_below is None:
            continue
        spec, short = kind(tuple(c), r), kind(tuple(c), r_below)
        zc = np.asarray(z, dtype=complex)
        assert contains(spec, zc) and contains(spec, zc[None, :])[0]
        assert not contains(short, zc) and not contains(short, zc[None, :])[0]
        checked += 1
    assert checked > 100


def test_far_points_do_not_overflow_the_norm():
    """At 1e200 the squares of the coordinates overflow; membership and the
    ball oracle still answer, with no warning, from the rescaled row."""
    disc = ComplexBall((0.0,), 1.0)
    z = 1e200 * (1 + 1j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not contains(disc, z)
        assert not contains(disc, np.array([[z]]))[0]
        assert exact_extremal(disc, z) == pytest.approx(
            math.log(math.sqrt(2)) + 200 * math.log(10), rel=1e-15)
        far = np.array([[1e200, -3e200]], dtype=complex)
        assert exact_extremal(ComplexBall((0.0, 0.0), 1.0), far)[0] == \
            pytest.approx(0.5 * math.log(10) + 200 * math.log(10), rel=1e-15)
        assert not contains(RealBall((0.0, 0.0), 1.0), far.real)[0]


def test_contains_array_dimension_check():
    with pytest.raises(DimensionMismatchError):
        contains(ComplexBall((0.0, 0.0), 1.0), np.zeros((3, 1)))
    assert contains(Interval(-1.0, 1.0), np.zeros((0, 1))).shape == (0,)


@pytest.mark.parametrize("inner", [
    ComplexBall((0.0,), 1.0),
    Interval(-1.0, 1.0),
    ComplexBall((0.0, 0.0), 1.0),
    Box(((0.0, 1.0), (0.0, 1.0))),
    Cusp(((0.0, 1.0), (0.0,)), 0.5, 2),
], ids=lambda s: f"{type(s).__name__}{s.dim}")
def test_ballcap_shell_filter_matches_per_point(inner, monkeypatch):
    """Ball-intersection clouds are the same when the shell filter asks
    contains for the whole shell or one point at a time."""
    spec = BallIntersection(inner, tuple([0.9] + [0.1] * (inner.dim - 1)),
                            0.5)
    want = sample(spec, 300, seed=4)

    def listed(s, p, tol=TOL):
        if isinstance(p, np.ndarray) and p.ndim == 2:
            return np.array([_contains_loop(s, q, tol) for q in p], dtype=bool)
        return _contains_loop(s, p, tol)

    monkeypatch.setattr(geometry, "contains", listed)
    got = sample(spec, 300, seed=4)
    assert got.points.tobytes() == want.points.tobytes()
    assert got.density_parameter == want.density_parameter


def _sample_ballcap_dedupe_all(spec, count, seed):
    """Reference for _sample_ballcap: at each factor the whole inner cloud
    is deduplicated, then filtered to the cap."""
    c, r = spec.c, spec.radius
    for factor in (2, 4, 8, 16, 32, 64, 128):
        pts, h = geometry._sample_dispatch(spec.inner, count * factor, seed)
        pts = _dedupe(pts)
        inside = pts[np.linalg.norm(pts - c[None, :], axis=1) <= r + TOL]
        if len(inside) >= count:
            break
    if len(inside) < 4:
        raise DegenerateSetError("BallIntersection retains too few points")
    nb = max(16, int(0.3 * count))
    if spec.dim == 1:
        ang = 2 * math.pi * (np.arange(nb) + 0.5 * ((seed % 7) + 1) / 8) / nb
        shell = c[None, :] + r * np.exp(1j * ang)[:, None]
    else:
        shell = c[None, :] + r * _sphere3_points(nb, seed + 3)
    shell = shell[geometry.contains(spec.inner, shell)]
    return np.vstack([inside, shell]), h


def _cap_outcome(sampler, spec, count, seed=0):
    """The bytes and mesh size of a cap sampler's cloud, or its error."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            pts, h = sampler(spec, count, seed)
        except DegenerateSetError as exc:
            return type(exc)
    return pts.tobytes(), h


@pytest.mark.parametrize("spec, count", [
    # the caps of the benchmark's scans and localize, and a scan radius
    # that tries every factor
    *[(BallIntersection(Interval(-1.0, 1.0), (1.0,), r), 600)
      for r in (0.5, 0.25, 0.01)],
    *[(BallIntersection(Cusp(((0.0, 1.0), (0.0,)), 0.5, 2), (0.0, 0.0), r),
       600) for r in (0.5, 0.25)],
    (BallIntersection(ComplexBall((0.0,), 1.0), (1.0,), 0.3), 800),
    # caps centred at 1e6, where an ulp is 1e-10
    (BallIntersection(Interval(1e6 - 1, 1e6 + 1), (1e6 + 1,), 0.5), 600),
    (BallIntersection(ComplexBall((1e6 + 1e6j,), 2.0), (1e6 + 1 + 1e6j,),
                      0.3), 800),
], ids=["interval-r0.5", "interval-r0.25", "interval-r0.01", "cusp-r0.5",
        "cusp-r0.25", "disc-r0.3", "interval-1e6", "disc-1e6"])
@pytest.mark.parametrize("seed", [0, 11])
def test_ballcap_equals_dedupe_of_the_whole_cloud(spec, count, seed):
    got = _cap_outcome(_sample_ballcap, spec, count, seed)
    assert got == _cap_outcome(_sample_ballcap_dedupe_all, spec, count, seed)
    assert got is not DegenerateSetError


def _key(z):
    """The dedupe key of the point z, inf where x * 1e12 overflows."""
    with np.errstate(over="ignore"):
        return tuple(np.round(np.concatenate([z.real, z.imag]), 12) + 0.0)


def _planted_cap(case):
    """A cap, and an inner cloud in which a point p outside the cap comes
    before a point q inside it with the same dedupe key: (spec, cloud,
    [p, q])."""
    if case == "1e300":
        # keys overflow to inf: a far point merges with the cap's points
        cloud = np.array([[1.7e300, 0.0]] + [[1.5e300, 0.1 * k]
                                              for k in range(10)],
                         dtype=complex)
        spec = BallIntersection(ComplexBall((0.0, 0.0), 1.0), (1.5e300, 0.0),
                                1.0)
        return spec, cloud, cloud[:2]
    if case == "unit":
        c, r = 0.5, 0.25
        q, p = c + r + 0.9e-12, c + r + 1.4e-12
    else:
        # an ulp is 1.2e-10 at 1e6: adjacent floats with one key, and a
        # radius whose r + TOL reaches the lower one
        c, q = 1e6, 1e6 + 0.25
        while _key(np.array([q])) != _key(np.array([np.nextafter(q, 2e6)])):
            q = np.nextafter(q, 2e6)
        p = np.nextafter(q, 2e6)
        r = _radius_reaching(q - c)
    bulk = c + 0.2 * np.exp(2j * math.pi * np.arange(50) / 50)
    cloud = np.concatenate([bulk, [p, q]])[:, None]
    return BallIntersection(ComplexBall((c,), 1.0), (c,), r), cloud, cloud[-2:]


@pytest.mark.parametrize("case", ["unit", "1e6", "1e300"])
def test_ballcap_keeps_planted_key_sharing_points(case, monkeypatch):
    """Deduplicating the whole cloud drops q for the earlier p outside the
    cap, and so must the near-cap dedupe."""
    spec, cloud, pair = _planted_cap(case)
    with np.errstate(over="ignore"):
        dist = np.linalg.norm(pair - spec.c, axis=1)
    assert _key(pair[0]) == _key(pair[1])
    assert dist[0] > spec.radius + TOL >= dist[1]
    dispatch = geometry._sample_dispatch
    monkeypatch.setattr(geometry, "_sample_dispatch",
                        lambda s, count, seed: (cloud, 0.1)
                        if s is spec.inner else dispatch(s, count, seed))
    got = _cap_outcome(_sample_ballcap, spec, 4)
    assert got == _cap_outcome(_sample_ballcap_dedupe_all, spec, 4)
    # every planted point but p and q is in the cap and kept
    pts = np.frombuffer(got[0], dtype=complex).reshape(-1, spec.dim)
    assert not (pts == pair[1]).all(axis=1).any()
    assert len(pts) >= len(cloud) - 2


def test_ballcap_keeps_what_contains_accepts(monkeypatch):
    """Planted inner points within an ulp of r + TOL from the centre, where
    np.linalg.norm and the norm of membership fall on opposite sides of
    it: the cap keeps exactly the points that contains accepts."""
    spec = BallIntersection(RealBall((0.0, 0.0), 1.0), (0.0, 0.0), 0.5)
    rim = np.random.default_rng(0).standard_normal((20000, 2))
    rim *= (spec.radius + TOL) / np.hypot(rim[:, 0], rim[:, 1])[:, None]
    rim = rim.astype(complex)
    by_norm = np.linalg.norm(rim, axis=1) <= spec.radius + TOL
    accepted = contains(spec, rim)
    assert (by_norm & ~accepted).any() and (accepted & ~by_norm).any()
    cloud = np.vstack([0.2 * rim[:50], rim[by_norm != accepted]])
    dispatch = geometry._sample_dispatch
    monkeypatch.setattr(geometry, "_sample_dispatch",
                        lambda s, count, seed: (cloud, 0.1)
                        if s is spec.inner else dispatch(s, count, seed))
    pts, _ = _sample_ballcap(spec, 4, 0)
    want = cloud[contains(spec, cloud)]
    assert pts[:len(want)].tobytes() == want.tobytes()
    assert contains(spec, pts).all()


@pytest.mark.parametrize("count", [1, 64, 4097])
@pytest.mark.parametrize("seed", [0, 3, 11])
def test_sphere3_points_keep_their_bits(count, seed):
    u = _kronecker(count, 3, seed)
    eta = np.arcsin(np.sqrt(u[:, 0]))
    t1 = 2 * math.pi * u[:, 1]
    t2 = 2 * math.pi * u[:, 2]
    want = np.stack([np.cos(eta) * np.exp(1j * t1),
                     np.sin(eta) * np.exp(1j * t2)], axis=1)
    assert _sphere3_points(count, seed).tobytes() == want.tobytes()


def test_sample_interval_deterministic():
    iv = Interval(-1.0, 1.0)
    c1 = sample(iv, 501, seed=3)
    c2 = sample(iv, 501, seed=3)
    assert np.array_equal(c1.points, c2.points)
    assert c1.size >= 501
    assert abs(c1.points[0, 0].real + 1.0) < 1e-12
    assert abs(c1.points[-1, 0].real - 1.0) < 1e-12


@pytest.mark.parametrize("spec", [
    ComplexBall((0.0,), 1.0),
    ComplexBall((0.0, 0.0), 1.0),
    RealBall((0.0, 0.0), 1.0),
    Box(((0.0, 1.0), (0.0, 1.0))),
    ConvexHull(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))),
    Cusp(((0.0, 1.0), (0.0,)), 0.5, 2),
    BallIntersection(ComplexBall((0.0,), 1.0), (1.0,), 0.5),
])
def test_sample_points_belong_to_set(spec):
    cloud = sample(spec, 300, seed=1)
    assert cloud.size >= 300
    idx = np.linspace(0, cloud.size - 1, 40).astype(int)
    for p in cloud.points[idx]:
        assert contains(spec, p)


def test_sample_resource_guard():
    with pytest.raises(ValueError):
        sample(Interval(-1, 1), 10 ** 7 + 1)


def test_sample_top_up_requests_are_guarded(monkeypatch):
    # three copies of one interval dedupe to a third of each request, so
    # sample tops up at 2x and would ask for 4x next
    spec = Union((Interval(-1, 1),) * 3)
    dispatch, requests = geometry._sample_dispatch, []

    def recording(s, count, seed):
        if s is spec:
            requests.append(count)
        return dispatch(s, count, seed)

    monkeypatch.setattr(geometry, "MAX_SAMPLE", 3000)
    monkeypatch.setattr(geometry, "_sample_dispatch", recording)
    with pytest.raises(ValueError, match="resource guard"):
        sample(spec, 1000)
    assert requests == [1000, 2000]


def test_sample_no_duplicates():
    cloud = sample(ComplexBall((0.0,), 1.0), 500, seed=0)
    pts = np.round(np.column_stack([cloud.points.real, cloud.points.imag]), 12)
    assert len(np.unique(pts, axis=0)) == cloud.size


def _dedupe_loop(pts):
    """Per-point reference: first occurrence of each 12-decimal key."""
    if len(pts) == 0:
        return pts
    keep, seen = [], set()
    for p in pts:
        key = tuple(np.round(np.concatenate([p.real, p.imag]), 12))
        if key not in seen:
            seen.add(key)
            keep.append(p)
    return np.array(keep)


def _dedupe_unique(pts):
    """The np.unique form that the lexsort in _dedupe replaced."""
    keys = np.round(np.hstack([pts.real, pts.imag]), 12) + 0.0
    _, first = np.unique(keys, axis=0, return_index=True)
    return pts[np.sort(first)]


def _assert_same_dedupe(pts):
    got = _dedupe(pts)
    for ref in (_dedupe_loop(pts), _dedupe_unique(pts)):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


def test_dedupe_matches_loop_on_edge_cases():
    z = np.array([
        [0.0 + 0.0j, 1.0 + 0.0j],
        [-0.0 + 0.0j, 1.0 - 0.0j],             # signed zeros fold together
        [0.3 + 0.1j, 0.2 + 0.0j],
        [0.3 + 1e-13 + 0.1j, 0.2 + 0.0j],      # near-duplicate, 1e-13 apart
        [0.5 + 0.5j, -0.5 + 0.0j],
        [0.3 + 0.1j, 0.2 + 0.0j],              # exact repeat
        [-0.5 + 0.0j, 0.5 + 0.5j],             # same values, other order
        [0.5 + 0.5j, -0.5 + 0.0j],
    ])
    _assert_same_dedupe(z)
    got = _dedupe(z)
    assert len(got) == 4
    # first occurrences, in input order
    assert got.tobytes() == z[[0, 2, 4, 6]].tobytes()
    _assert_same_dedupe(z[:0])
    _assert_same_dedupe(z[::-1].copy())


@pytest.mark.parametrize("spec", [
    Interval(-1.0, 1.0),
    ComplexBall((0.0,), 1.0),
    ComplexBall((0.0, 0.0), 1.0),
    RealBall((0.0, 0.0), 1.0),
    Box(((0.0, 1.0), (0.0, 1.0))),
    ConvexHull(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))),
    Cusp(((0.0, 1.0), (0.0,)), 0.5, 2),
    AffineImage(ComplexBall((0.0,), 1.0), ((2.0,),), (1.0,)),
    Union((Interval(-1.0, 0.0), Interval(0.0, 1.0))),
    BallIntersection(ComplexBall((0.0,), 1.0), (1.0,), 0.5),
])
def test_dedupe_matches_loop_on_sampler_output(spec):
    pts, *_ = _sample_dispatch(spec, 600, 1)
    _assert_same_dedupe(pts)


@pytest.mark.parametrize("spec", [
    Interval(-1.0, 1.0),
    ComplexBall((0.0,), 1.0),
    ComplexBall((0.0, 0.0), 1.0),
    RealBall((0.0, 0.0), 1.0),
    Box(((0.0, 1.0), (0.0, 1.0))),
    Cusp(((0.0, 1.0), (0.0,)), 0.5, 2),
])
@pytest.mark.parametrize("count", [201, 2001, 4000])
def test_dedupe_matches_unique_on_sampler_output(spec, count):
    pts, *_ = _sample_dispatch(spec, count, 11)
    got, ref = _dedupe(pts), _dedupe_unique(pts)
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def test_exact_extremal_ball():
    b = ComplexBall((0.0,), 1.0)
    assert exact_extremal(b, 2.0) == pytest.approx(math.log(2), abs=1e-12)
    assert exact_extremal(b, 0.5) == 0.0
    shifted = ComplexBall((1.0,), 2.0)
    assert exact_extremal(shifted, 5.0) == pytest.approx(math.log(2), abs=1e-12)


def test_exact_extremal_interval():
    iv = Interval(-1.0, 1.0)
    assert exact_extremal(iv, 2.0) == pytest.approx(math.log(2 + math.sqrt(3)),
                                                    abs=1e-12)
    assert exact_extremal(iv, 0.3) == 0.0
    # purely imaginary point: known closed form log|z + sqrt(z^2-1)| at z=i t
    val = exact_extremal(iv, 1j)
    assert val == pytest.approx(math.log(1 + math.sqrt(2)), abs=1e-12)


def test_exact_extremal_real_ball():
    rb = RealBall((0.0, 0.0), 1.0)
    assert exact_extremal(rb, np.array([0.5, 0.5])) == 0.0
    v = exact_extremal(rb, np.array([2.0, 0.0]))
    assert v == pytest.approx(math.log(2 + math.sqrt(3)), abs=1e-12)


def test_exact_extremal_unsupported_kind():
    cusp = Cusp(((0.0, 1.0), (0.0,)), 0.5, 2)
    with pytest.raises(ValueError, match="no closed form") as err:
        exact_extremal(cusp, np.array([2.0, 2.0]))
    assert "ComplexBall, RealBall, Interval and Box" in str(err.value)
    with pytest.raises(ValueError, match="no closed form"):
        exact_extremal(cusp, np.array([[2.0, 2.0]]))


def test_exact_extremal_box_is_the_max_over_its_intervals():
    """Siciak's product formula, each term the interval oracle's, far
    points included."""
    box = Box(((-1.0, 1.0), (0.0, 3.0)))
    rng = np.random.default_rng(5)
    Z = (rng.standard_normal((200, 2)) + 1j * rng.standard_normal((200, 2))) \
        * np.repeat([0.3, 1.0, 4.0, 1e100, 1e300], 40)[:, None]
    Z = np.vstack([Z, [[0.5, 1.0], [-1.0, 3.0], [2.0, 1.5]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = exact_extremal(box, Z)
    want = np.maximum(exact_extremal(Interval(-1.0, 1.0), Z[:, :1]),
                      exact_extremal(Interval(0.0, 3.0), Z[:, 1:]))
    assert got.tobytes() == want.tobytes()
    assert np.isfinite(got).all()
    assert list(got[-3:-1]) == [0.0, 0.0]
    assert got[-1] == pytest.approx(math.log(2 + math.sqrt(3)), abs=1e-12)
    assert exact_extremal(box, [2.0, 1.5]) == got[-1]


def _exact_extremal_loop(spec, z):
    """The per-point oracle exact_extremal had before it took arrays."""
    if isinstance(spec, ComplexBall):
        w = as_point(z)
        return max(math.log(max(np.linalg.norm(w - spec.c), 1e-300)
                            / spec.radius), 0.0)
    if isinstance(spec, Interval):
        c = np.array([0.5 * (spec.a + spec.b)])
        r = 0.5 * (spec.b - spec.a)
    else:
        c, r = spec.c, spec.radius
    w = (as_point(z) - c) / r
    x = max(float(np.sum(np.abs(w) ** 2) + abs(np.sum(w * w) - 1.0)), 1.0)
    return 0.5 * math.log(x + math.sqrt(x * x - 1.0))


def _oracle_points(spec):
    """Points inside, on the boundary and outside spec, and signed zeros."""
    n = spec.dim
    if isinstance(spec, Interval):
        c, r = 0.5 * (spec.a + spec.b), 0.5 * (spec.b - spec.a)
        c = np.array([c])
    else:
        c, r = spec.c, spec.radius
    rng = np.random.default_rng(7)
    u = rng.standard_normal((60, n)) + 1j * rng.standard_normal((60, n))
    u /= np.linalg.norm(u, axis=1)[:, None]
    real = rng.standard_normal((20, n))
    real /= np.linalg.norm(real, axis=1)[:, None]
    scale = np.repeat([0.3, 1.0, 1.7, 40.0], 15)[:, None]
    zeros = np.array([[complex(a, b)] * n for a in (0.0, -0.0)
                      for b in (0.0, -0.0)])
    return np.vstack([c + r * scale * u,
                      c + r * np.vstack([0.5 * real, real, 2.5 * real]),
                      zeros, zeros + c]).astype(complex)


@pytest.mark.parametrize("spec", [
    ComplexBall((0.0,), 1.0), ComplexBall((0.5 - 0.25j,), 2.0),
    ComplexBall((0.0, 0.0), 1.0), ComplexBall((0.5, -1j), 0.75),
    RealBall((0.25,), 1.5), RealBall((0.0, 0.0), 1.0),
    RealBall((0.5, -0.25), 2.0), Interval(-1.0, 1.0), Interval(0.0, 3.0),
], ids=lambda s: f"{type(s).__name__}{s.dim}")
def test_exact_extremal_array_matches_per_point(spec):
    Z = _oracle_points(spec)
    got = exact_extremal(spec, Z)
    want = np.array([_exact_extremal_loop(spec, z) for z in Z])
    assert got.shape == (len(Z),)
    # np.log and math.log may round differently in the last bit
    ulp = np.spacing(np.maximum(np.abs(got), np.abs(want)))
    assert np.all(np.abs(got - want) <= 2 * ulp)
    assert np.any(want == 0.0) and np.any(want > 0.0)
    # one point, given as a scalar, a list or a 1-D array, gives a float
    # through the same code
    for z, v in zip(Z[::7], got[::7]):
        one = exact_extremal(spec, z)
        assert type(one) is float and one == v
        assert exact_extremal(spec, list(z)) == v
        if spec.dim == 1:
            assert exact_extremal(spec, complex(z[0])) == v


def test_exact_extremal_far_from_an_interval_or_real_ball():
    """Past |z| = 1e77, x^2 overflows in log(x + sqrt(x^2 - 1)); the oracle
    still gives log(2|z|), the limit of V_K there, with no warning."""
    iv, rb = Interval(-1.0, 1.0), RealBall((0.0, 0.0), 1.0)
    cases = [(iv, z) for z in (1e77, 1e150, 1e300, 1e200j, -1e300)]
    cases.append((rb, [1e77, 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for spec, z in cases:
            want = math.log(2 * np.max(np.abs(z)))
            assert exact_extremal(spec, z) == pytest.approx(want, rel=1e-12)
        far = np.array([[1e77], [1e300], [2.0]], dtype=complex)
        got = exact_extremal(iv, far)
        assert got[:2] == pytest.approx(np.log(2 * far[:2, 0].real),
                                        rel=1e-12)
        assert got[2] == exact_extremal(iv, 2.0)


def test_exact_extremal_array_dimension_check():
    with pytest.raises(DimensionMismatchError):
        exact_extremal(ComplexBall((0.0,), 1.0), np.zeros((3, 2), complex))


def test_halfdisc_harmonic_measure():
    assert halfdisc_harmonic_measure(1j) == pytest.approx(1.0, abs=1e-12)
    assert halfdisc_harmonic_measure(0.0) == pytest.approx(0.0, abs=1e-12)
    assert halfdisc_harmonic_measure(0.5) == pytest.approx(0.0, abs=1e-12)
    mid = halfdisc_harmonic_measure(0.3 + 0.4j)
    assert 0.0 < mid < 1.0
    with pytest.raises(ValueError, match="singularity"):
        halfdisc_harmonic_measure(1.0)
    with pytest.raises(ValueError):
        halfdisc_harmonic_measure(2.0)


def test_diameter():
    assert diameter(Interval(-1, 1)) == pytest.approx(2.0)
    assert diameter(ComplexBall((0.0,), 1.5)) == pytest.approx(3.0)
    assert diameter(Box(((0, 3), (0, 4)))) == pytest.approx(5.0)
    hull = ConvexHull(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
    assert diameter(hull) == pytest.approx(math.sqrt(2.0))


# the JSON document of a spec of each kind
SPEC_DOCS = {
    Interval(-1.0, 1.0): {"kind": "Interval", "a": -1.0, "b": 1.0},
    ComplexBall((0.5 + 0.5j,), 2.0): {
        "kind": "ComplexBall", "center": [[0.5, 0.5]], "radius": 2.0},
    RealBall((0.0, 1.0), 0.5): {
        "kind": "RealBall", "center": [0.0, 1.0], "radius": 0.5},
    Box(((0.0, 1.0), (-1.0, 1.0))): {
        "kind": "Box", "intervals": [[0.0, 1.0], [-1.0, 1.0]]},
    ConvexHull(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))): {
        "kind": "ConvexHull",
        "vertices": [[[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]],
                     [[0.0, 0.0], [1.0, 0.0]]]},
    Cusp(((0.0, 1.0), (0.0,)), 0.5, 2): {
        "kind": "Cusp", "h_coeffs": [[0.0, 1.0], [0.0]], "M": 0.5, "m": 2},
    AffineImage(Interval(-1, 1), ((2.0,),), (1.0,)): {
        "kind": "AffineImage", "inner": {"kind": "Interval", "a": -1, "b": 1},
        "matrix": [[2.0, 0.0]], "shift": [[1.0, 0.0]]},
    Union((Interval(-1, 0), Interval(0.5, 1))): {
        "kind": "Union", "parts": [{"kind": "Interval", "a": -1, "b": 0},
                                   {"kind": "Interval", "a": 0.5, "b": 1}]},
    BallIntersection(ComplexBall((0.0,), 1.0), (1.0,), 0.3): {
        "kind": "BallIntersection",
        "inner": {"kind": "ComplexBall", "center": [[0.0, 0.0]],
                  "radius": 1.0},
        "center": [[1.0, 0.0]], "radius": 0.3},
}


@pytest.mark.parametrize("spec", list(SPEC_DOCS))
def test_spec_json_round_trip(spec):
    assert spec_from_dict(json.loads(json.dumps(SPEC_DOCS[spec]))) == spec


def test_spec_from_dict_unknown_kind():
    with pytest.raises(ValueError, match="unknown"):
        spec_from_dict({"kind": "Torus"})


@pytest.mark.parametrize("doc, key", [
    ({"kind": "Interval", "a": "x", "b": 1.0}, "a"),
    ({"kind": "Interval", "a": [0], "b": 1.0}, "a"),
    ({"kind": "Interval", "a": -1.0, "b": True}, "b"),
    ({"kind": "Interval", "a": float("-inf"), "b": 1.0}, "a"),
    ({"kind": "ComplexBall", "center": [[0.0, 0.0]], "radius": math.inf},
     "radius"),
    ({"kind": "ComplexBall", "center": [[0.0, 0.0, 0.0]], "radius": 1.0},
     "center"),
    ({"kind": "RealBall", "center": ["x", 0], "radius": 1.0}, "center"),
    ({"kind": "Box", "intervals": [["a", "b"]]}, "intervals"),
    ({"kind": "ConvexHull", "vertices": [[[0.0, math.nan]]]}, "vertices"),
    ({"kind": "Cusp", "h_coeffs": [[0.0, 1.0], [0.0]], "M": 0.5, "m": 2.5},
     "m"),
    ({"kind": "Cusp", "h_coeffs": [[0.0, 1.0], [0.0]], "M": "0.5", "m": 2},
     "M"),
    ({"kind": "Cusp", "h_coeffs": [[]], "M": 0.5, "m": 2}, "h_coeffs"),
    ({"kind": "AffineImage", "inner": {"kind": "Interval", "a": -1, "b": 1},
      "matrix": [[1.0, 0.0], [0.0, 0.0]], "shift": [[0.0, 0.0]]}, "matrix"),
    ({"kind": "Union", "parts": []}, "parts"),
    ({"kind": "BallIntersection", "inner": [], "center": [[0.0, 0.0]],
      "radius": 1.0}, "inner"),
])
def test_spec_from_dict_names_bad_leaf(doc, key):
    with pytest.raises(ValueError, match=f"'{key}'"):
        spec_from_dict(doc)


@pytest.mark.parametrize("make, words", [
    (lambda: BallIntersection(Interval(-1.0, 1.0), (0.0, 0.0), 1.0),
     "center has dimension 2"),
    (lambda: BallIntersection(ComplexBall((0.0, 0.0), 1.0), (0.0,), 1.0),
     "center has dimension 1"),
    (lambda: AffineImage(Interval(-1.0, 1.0), ((2.0,),), (0.0, 1.0)),
     "shift has dimension 2"),
    (lambda: AffineImage(ComplexBall((0.0, 0.0), 1.0),
                         ((1.0, 0.0), (0.0, 1.0)), (1.0,)),
     "shift has dimension 1"),
    (lambda: ConvexHull(((0.0,), (1.0, 0.0), (0.0, 1.0))),
     "vertices differ in dimension"),
], ids=["cap-center-long", "cap-center-short", "shift-long", "shift-short",
        "hull-ragged"])
def test_kinds_check_their_dimensions(make, words):
    with pytest.raises(DimensionMismatchError, match=words):
        make()


@pytest.mark.parametrize("doc", [
    {"kind": "Box", "intervals": [[0.0, 1.0]] * 3},
    {"kind": "Union", "parts": [{"kind": "ComplexBall",
                                 "center": [[0.0, 0.0]] * 3,
                                 "radius": 1.0}]},
])
def test_spec_from_dict_takes_c1_and_c2_only(doc):
    with pytest.raises(DimensionMismatchError, match=r"not C\^3"):
        spec_from_dict(doc)


def _nested_doc(levels, kinds=("BallIntersection", "AffineImage", "Union")):
    """An Interval inside levels composite specs, cycling through kinds;
    every level leaves the set as it is."""
    doc = {"kind": "Interval", "a": -1.0, "b": 1.0}
    for k in range(levels):
        kind = kinds[k % len(kinds)]
        doc = ({"kind": kind, "inner": doc, "center": [[0.0, 0.0]],
                "radius": 2.0} if kind == "BallIntersection"
               else {"kind": kind, "inner": doc, "matrix": [[1.0, 0.0]],
                     "shift": [[0.0, 0.0]]} if kind == "AffineImage"
               else {"kind": kind, "parts": [doc]})
    return doc


def test_spec_from_dict_nests_up_to_the_cap():
    spec = spec_from_dict(_nested_doc(geometry.MAX_NESTING))
    for _ in range(geometry.MAX_NESTING):
        spec = spec.parts[0] if isinstance(spec, Union) else spec.inner
    assert spec == Interval(-1.0, 1.0)


@pytest.mark.parametrize("levels", [geometry.MAX_NESTING + 1, 600])
def test_spec_from_dict_rejects_deeper_nesting(levels):
    with pytest.raises(ValueError, match="nest more than"):
        spec_from_dict(_nested_doc(levels))


def test_nested_ballcap_requests_obey_the_sample_guard():
    # each level asks its inner set for twice its count: the seventh
    # inner request, 1.28e7 points, is refused before anything is drawn
    spec = Interval(-1.0, 1.0)
    for _ in range(7):
        spec = BallIntersection(spec, (0.0,), 2.0)
    with pytest.raises(ValueError, match="inner set, over the resource"):
        sample(spec, 10 ** 5)


def test_spec_from_dict_keeps_int_leaves():
    # ints stay ints, so the cache key of a spec document is unchanged
    assert spec_from_dict({"kind": "Interval", "a": -1, "b": 1}).a == -1
    cusp = spec_from_dict({"kind": "Cusp", "h_coeffs": [[0, 1], [0]],
                           "M": 1, "m": 2})
    assert cusp == Cusp(((0, 1), (0,)), 1, 2)


def _perimeter_walk(lo, hi, nb):
    """Box boundary points as the sampler placed them one at a time."""
    per = 2 * float(np.sum(hi - lo))
    s = per * (np.arange(nb) + 0.5) / nb
    edge_pts = []
    lens = [hi[0] - lo[0], hi[1] - lo[1], hi[0] - lo[0], hi[1] - lo[1]]
    for si in s:
        t = si
        for e, L in enumerate(lens):
            if t <= L:
                edge_pts.append([[lo[0] + t, lo[1]], [hi[0], lo[1] + t],
                                 [hi[0] - t, hi[1]], [lo[0], hi[1] - t]][e])
                break
            t -= L
    return np.array(edge_pts)


@pytest.mark.parametrize("intervals", [
    ((0.0, 1.0), (0.0, 1.0)),
    ((-1.0, 1.0), (-0.5, 2.0)),
    ((0.0, 1e-3), (-3.0, 3.0)),                 # thin
    ((-7.0, 7.1), (0.1, 0.1000003)),            # flat
])
@pytest.mark.parametrize("count", [4, 17, 601, 2001])
def test_box_perimeter_equals_one_point_at_a_time(intervals, count):
    box = Box(intervals)
    pts, _ = _sample_dispatch(box, count, 3)
    lo, hi = (np.array([ab[k] for ab in intervals]) for k in (0, 1))
    nb = int(math.ceil(0.3 * count))
    walk = _perimeter_walk(lo, hi, nb).astype(complex)
    assert len(pts) == 4 + len(walk) + count - nb
    assert pts[4:4 + len(walk)].tobytes() == walk.tobytes()


def _hull_edges(V, nb):
    pairs = [(i, j) for i in range(len(V)) for j in range(i + 1, len(V))]
    t = np.linspace(0, 1, max(2, nb // len(pairs) + 1))
    return np.vstack([V[i][None, :] * (1 - t)[:, None]
                      + V[j][None, :] * t[:, None] for i, j in pairs])


def _cusp_slices(spec, ts, mesh):
    return np.vstack([ht[None, :] + spec.M * t ** spec.m * mesh
                      for t, ht in zip(ts, spec.h(ts))])


@pytest.mark.parametrize("count", [4, 50, 2001])
def test_hull_and_cusp_equal_one_edge_and_slice_at_a_time(count):
    hull = ConvexHull(((0j, 0j), (1 + 0j, 0.5j), (0.2 + 0.3j, 1 + 0j),
                       (-0.4 + 0j, 0.1 - 0.2j)))
    pts, _ = _sample_dispatch(hull, count, 2)
    edges = _hull_edges(hull.v, int(math.ceil(0.3 * count)))
    assert pts[4:4 + len(edges)].tobytes() == edges.tobytes()
    for cusp in (Cusp(((0.0, 1.0), (0.0, 0.0, 1.0)), 0.3, 3),
                 Cusp(((0.1, -1.0, 0.5),), 2.0, 5)):
        pts, _ = _sample_dispatch(cusp, count, 2)
        # the sampler's graded grid and cube lattice
        n = cusp.dim
        per_t = max(4, int(round((count / 40) ** (n / (n + 1.0)))) + 3)
        nt = max(10, count // per_t ** n + 2)
        axes = [np.linspace(-1.0, 1.0, per_t)] * n
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"),
                        axis=-1).reshape(-1, n)
        slices = _cusp_slices(cusp, (np.arange(nt) / (nt - 1)) ** 2, mesh)
        assert pts[1:].tobytes() == slices.astype(complex).tobytes()
