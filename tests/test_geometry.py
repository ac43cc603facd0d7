import math

import numpy as np
import pytest

from pllab.geometry import (AffineImage, BallIntersection, Box, ComplexBall,
                            ConvexHull, Cusp, DegenerateSetError,
                            DimensionMismatchError, Interval, Point, RealBall,
                            Union, as_point, contains, diameter,
                            exact_extremal, halfdisc_harmonic_measure, sample,
                            spec_from_dict, spec_to_dict)
from pllab.geometry import _dedupe, _sample_dispatch


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


def _assert_same_dedupe(pts):
    got, ref = _dedupe(pts), _dedupe_loop(pts)
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
    with pytest.raises(ValueError, match="no closed form"):
        exact_extremal(Box(((0, 1), (0, 1))), np.array([2.0, 2.0]))


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


@pytest.mark.parametrize("spec", [
    Interval(-1.0, 1.0),
    ComplexBall((0.5 + 0.5j,), 2.0),
    RealBall((0.0, 1.0), 0.5),
    Box(((0.0, 1.0), (-1.0, 1.0))),
    ConvexHull(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))),
    Cusp(((0.0, 1.0), (0.0,)), 0.5, 2),
    AffineImage(Interval(-1, 1), ((2.0,),), (1.0,)),
    Union((Interval(-1, 0), Interval(0.5, 1))),
    BallIntersection(ComplexBall((0.0,), 1.0), (1.0,), 0.3),
])
def test_spec_json_round_trip(spec):
    assert spec_from_dict(spec_to_dict(spec)) == spec


def test_spec_from_dict_unknown_kind():
    with pytest.raises(ValueError, match="unknown"):
        spec_from_dict({"kind": "Torus"})
