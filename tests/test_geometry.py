import json
import math

import numpy as np
import pytest

from pllab import geometry
from pllab.geometry import (TOL, AffineImage, BallIntersection, Box,
                            ComplexBall, ConvexHull, Cusp, DegenerateSetError,
                            DimensionMismatchError, Interval, Point, RealBall,
                            Union, as_point, contains, diameter,
                            exact_extremal, halfdisc_harmonic_measure, sample,
                            spec_from_dict)
from pllab.geometry import _cusp_gap, _dedupe, _hull_contains, _sample_dispatch


def test_point_real_slice_rejects_imaginary():
    with pytest.raises(ValueError):
        Point((1.0, 0.5), real_slice=True)
    p = Point((1.0, 0.0, 2.0, 0.0), real_slice=True)
    assert np.allclose(p.z, [1.0, 2.0])


def test_as_point_dimension_check():
    with pytest.raises(DimensionMismatchError):
        as_point([1.0, 2.0], 1)
    assert as_point(2.0, 1)[0] == 2.0 + 0j


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
    z = as_point(p, spec.dim)
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


@pytest.mark.parametrize("spec", [
    Cusp(((0.0, 1.0), (0.0,)), 0.5, 2),
    Cusp(((0.0, 1.0), (0.0, 0.0, 0.7)), 0.3, 3),
    Cusp(((0.2, -1.0), (0.0, 0.5), (0.1, 0.0, 1.0)), 1.0, 1)],
    ids=["m2", "m3-curved", "m1-3d"])
def test_cusp_gap_matches_the_per_point_search_bit_for_bit(spec):
    rng = np.random.default_rng(3)
    t = rng.uniform(0.0, 1.0, 20)
    X = np.vstack([spec.h(t) + rng.uniform(-1, 1, (20, spec.dim))
                   * (spec.M * t ** spec.m)[:, None],
                   rng.uniform(-1.5, 1.5, (20, spec.dim))])
    gaps = _cusp_gap(spec, X)
    assert np.array_equal(gaps, [_cusp_gap_loop(spec, x) for x in X])
    assert np.array_equal(_cusp_gap(spec, X[:0]), [])


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
    got = contains(spec, P, tol)
    assert got.dtype == bool and got.shape == (len(P),)
    assert np.array_equal(got, ref)
    assert 0 < ref.sum() < len(ref)
    single = [contains(spec, p, tol) for p in P]
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
        assert contains(spec, p, tol=1e-9)


def test_sample_resource_guard():
    with pytest.raises(ValueError):
        sample(Interval(-1, 1), 10 ** 7 + 1)


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
    with pytest.raises(ValueError, match="no closed form") as err:
        exact_extremal(Box(((0, 1), (0, 1))), np.array([2.0, 2.0]))
    assert "ComplexBall, RealBall and Interval" in str(err.value)
    with pytest.raises(ValueError, match="no closed form"):
        exact_extremal(Box(((0, 1), (0, 1))), np.array([[2.0, 2.0]]))


def _exact_extremal_loop(spec, z):
    """The per-point oracle exact_extremal had before it took arrays."""
    if isinstance(spec, ComplexBall):
        w = as_point(z, spec.dim)
        return max(math.log(max(np.linalg.norm(w - spec.c), 1e-300)
                            / spec.radius), 0.0)
    if isinstance(spec, Interval):
        c = np.array([0.5 * (spec.a + spec.b)])
        r = 0.5 * (spec.b - spec.a)
        n = 1
    else:
        c, r, n = spec.c, spec.radius, spec.dim
    w = (as_point(z, n) - c) / r
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
    ({"kind": "Cusp", "h_coeffs": [[0.0, 1.0], [0.0]], "M": 0.5, "m": 2,
      "degree_bound": 2.0}, "degree_bound"),
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


def test_spec_from_dict_keeps_int_leaves():
    # ints stay ints, so the cache key of a spec document is unchanged
    assert spec_from_dict({"kind": "Interval", "a": -1, "b": 1}).a == -1
    cusp = spec_from_dict({"kind": "Cusp", "h_coeffs": [[0, 1], [0]],
                           "M": 1, "m": 2, "degree_bound": 3})
    assert cusp == Cusp(((0, 1), (0,)), 1, 2, 3)
