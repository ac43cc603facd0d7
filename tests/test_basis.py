import math

import numpy as np
import pytest

from scipy.linalg import qr

from pllab.basis import (BasisSpec, _rescale, lapack_in_place, log_abs_vdm,
                         orthonormal_basis, vandermonde)
from pllab.cli import _one_blas_thread
from pllab.geometry import (Box, ComplexBall, Cusp, DegenerateSetError,
                            DimensionMismatchError, Interval, RealBall,
                            SampleCloud, sample)


def test_dimension_counts():
    assert BasisSpec(1, 5).size == 6
    assert BasisSpec(2, 1).size == 3
    assert BasisSpec(2, 2).size == 6
    assert BasisSpec(2, 20).size == 231
    with pytest.raises(ValueError):
        BasisSpec(3, 2)


def test_graded_lex_order_n2():
    b = BasisSpec(2, 2)
    assert b.exponents() == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert b.size == 6


def test_graded_lex_order_n1():
    assert BasisSpec(1, 3).exponents() == [(0,), (1,), (2,), (3,)]


def test_basis_validation():
    with pytest.raises(ValueError):
        BasisSpec(3, 2)
    with pytest.raises(ValueError):
        BasisSpec(1, 0)


def test_vandermonde_values():
    b = BasisSpec(1, 2)
    V = vandermonde(np.array([[2.0 + 0j], [3.0 + 0j]]), b)
    assert V.shape == (3, 2)
    assert np.allclose(V[:, 0], [1, 2, 4])
    assert np.allclose(V[:, 1], [1, 3, 9])
    with pytest.raises(DimensionMismatchError):
        vandermonde(np.array([[1.0, 2.0]]), b)


def test_log_abs_vdm_matches_direct_determinant():
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
    b = BasisSpec(1, 3)
    direct = np.log(abs(np.linalg.det(vandermonde(pts, b))))
    assert log_abs_vdm(pts, b) == pytest.approx(direct, abs=1e-9)


def test_log_abs_vdm_univariate_product_formula():
    # |VDM| = prod_{i<j} |x_j - x_i| for the monomial basis in one variable
    x = np.array([0.1, 0.7, -0.4, 1.3])
    b = BasisSpec(1, 3)
    expected = sum(math.log(abs(x[j] - x[i]))
                   for i in range(4) for j in range(i + 1, 4))
    assert log_abs_vdm(x[:, None].astype(complex), b) == pytest.approx(
        expected, abs=1e-9)


def test_log_abs_vdm_scale_invariance_of_rescaling():
    # huge coordinates must not overflow: the rescaled LU plus correction
    x = (np.array([0.1, 0.7, -0.4, 1.3]) * 1e8)[:, None].astype(complex)
    b = BasisSpec(1, 3)
    expected = sum(math.log(abs(x[j, 0] - x[i, 0]))
                   for i in range(4) for j in range(i + 1, 4))
    assert log_abs_vdm(x, b) == pytest.approx(expected.real, rel=1e-12)


def test_log_abs_vdm_degenerate_is_minus_inf():
    pts = np.array([[1.0], [2.0], [1.0]]).astype(complex)
    assert log_abs_vdm(pts, BasisSpec(1, 2)) == -np.inf


def test_log_abs_vdm_node_count_check():
    with pytest.raises(ValueError):
        log_abs_vdm(np.zeros((3, 1), dtype=complex), BasisSpec(1, 3))


def test_orthonormal_basis_gram_identity():
    cloud = sample(Interval(-1, 1), 400, seed=0)
    b = BasisSpec(1, 8)
    ob = orthonormal_basis(cloud, b)
    Q = ob.evaluate(cloud.points)
    gram = (Q.conj().T @ Q) / cloud.size
    assert np.max(np.abs(gram - np.eye(b.size))) < 1e-8


def test_orthonormal_basis_triangular_coeffs():
    cloud = sample(ComplexBall((0.0,), 1.0), 400, seed=0)
    ob = orthonormal_basis(cloud, BasisSpec(1, 6))
    below = np.tril(ob.coeffs, -1)
    assert np.max(np.abs(below)) < 1e-12


def _cloud(pts):
    return SampleCloud(points=pts, seed=0, density_parameter=0.0)


def test_orthonormal_basis_degeneracy_collinear():
    # five points on a line in C^2 cannot separate degree-2 polynomials
    t = np.linspace(0, 1, 5)
    pts = np.stack([t, 2 * t], axis=1).astype(complex)
    with pytest.raises(DegenerateSetError, match="pluripolar at degree 2"):
        orthonormal_basis(_cloud(pts), BasisSpec(2, 2))


def test_orthonormal_basis_cloud_size_check():
    pts = np.linspace(-1, 1, 8)[:, None].astype(complex)
    with pytest.raises(ValueError, match="cloud size"):
        orthonormal_basis(_cloud(pts), BasisSpec(1, 5))


def test_orthonormal_basis_too_few_points_is_degenerate():
    pts = np.linspace(-1, 1, 4)[:, None].astype(complex)
    with pytest.raises(DegenerateSetError):
        orthonormal_basis(_cloud(pts), BasisSpec(1, 5))


def _economic_qr_reference(cloud, basis):
    """coeffs and condition of orthonormal_basis from the economic QR."""
    scaled, _, _ = _rescale(cloud.points)
    Phi = vandermonde(scaled, basis).T / math.sqrt(cloud.size)
    _, R = qr(Phi, mode="economic")
    diag = np.abs(np.diag(R))
    return np.linalg.inv(R), float(np.max(diag) / np.min(diag))


@pytest.mark.parametrize("spec, d, target", [
    (Interval(-1.0, 1.0), 6, 2001),
    (Interval(-1.0, 1.0), 20, 2001),
    (Interval(-1.0, 1.0), 60, 2001),
    (ComplexBall((0.0,), 1.0), 12, 2001),
    (ComplexBall((0.0,), 1.0), 16, 2001),
    (ComplexBall((0.0, 0.0), 1.0), 6, 2001),
    (ComplexBall((0.0, 0.0), 1.0), 12, 4000),
    (Box(((0.0, 1.0), (0.0, 1.0))), 6, 2001),
    (Cusp(((0.0, 1.0), (0.0,)), 0.5, 2), 6, 2001),
    (Cusp(((0.0, 1.0), (0.0,)), 0.5, 2), 20, 2001),
])
def test_orthonormal_basis_matches_economic_qr(spec, d, target):
    cloud = sample(spec, target, seed=11)
    basis = BasisSpec(spec.dim, d)
    ob = orthonormal_basis(cloud, basis)
    coeffs, condition = _economic_qr_reference(cloud, basis)
    assert ob.coeffs.tobytes() == coeffs.tobytes()
    assert ob.condition == condition


def _vandermonde_by_rows(points, basis):
    """The value table as vandermonde built it from a list of rows."""
    pts = np.atleast_2d(np.asarray(points, dtype=complex))
    powers = []
    for k in range(basis.n):
        tab = np.empty((basis.d + 1, pts.shape[0]), dtype=complex)
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


@pytest.mark.parametrize("spec, d", [
    (Interval(-1.0, 1.0), 20),
    (ComplexBall((0.0,), 1.0), 16),
    (ComplexBall((0.0, 0.0), 1.0), 6),
    (Box(((0.0, 1.0), (0.0, 1.0))), 9),
])
def test_vandermonde_equals_the_row_list_build(spec, d):
    pts = sample(spec, 500, seed=3).points
    basis = BasisSpec(spec.dim, d)
    V = vandermonde(pts, basis)
    ref = _vandermonde_by_rows(pts, basis)
    assert V.shape == ref.shape and V.flags.c_contiguous
    assert V.tobytes() == ref.tobytes()


# the distinct clouds and degrees of the benchmark's solver manifests
BENCH_CLOUDS = [
    (Interval(-1.0, 1.0), 20, 2001),
    (ComplexBall((0.0,), 1.0), 16, 2001),
    (ComplexBall((0.0, 0.0), 1.0), 6, 1000),
    (Box(((-1.0, 1.0), (-1.0, 1.0))), 6, 1000),
    (RealBall((0.0, 0.0), 1.0), 6, 1000),
    (ComplexBall((0.0, 0.0), 1.0), 6, 2001),
    (ComplexBall((0.0,), 1.0), 12, 2001),
]


@pytest.mark.parametrize("seed", [0, 1, 5])
@pytest.mark.parametrize("spec, d, target", BENCH_CLOUDS)
def test_direct_geqrf_equals_scipy_qr(spec, d, target, seed):
    """orthonormal_basis runs geqrf in place on Phi; its R, and so the
    coefficients and the condition number, are scipy.linalg.qr's bit for
    bit, and the cloud values it hands over are evaluate's."""
    cloud = sample(spec, target, seed=seed)
    basis = BasisSpec(spec.dim, d)
    N = basis.size
    with _one_blas_thread():
        scaled, _, _ = _rescale(cloud.points)
        Phi = vandermonde(scaled, basis).T / math.sqrt(cloud.size)
        R = qr(Phi, mode="r")[0][:N]
        direct = np.triu(lapack_in_place("geqrf", Phi)[0][:N])
        ob = orthonormal_basis(cloud, basis)
        values = ob.evaluate(cloud.points)
    assert direct.tobytes() == R.tobytes()
    assert ob.coeffs.tobytes() == np.linalg.inv(R).tobytes()
    assert ob.values.tobytes() == values.tobytes()
    bare, handed = ob.split()
    assert bare.values is None and handed is ob.values
    assert bare.coeffs is ob.coeffs


def test_orthonormal_basis_rejects_a_cloud_that_is_not_finite():
    # 2e308 overflows the centre, so the scaled cloud is not finite
    for bad in (np.nan, np.inf, 1e308):
        pts = np.linspace(-1, 1, 40)[:, None].astype(complex)
        pts[7:9] = bad
        with pytest.raises(ValueError, match="infs or NaNs"), \
                np.errstate(invalid="ignore", over="ignore"):
            orthonormal_basis(_cloud(pts), BasisSpec(1, 5))
