import math

import numpy as np
import pytest

from pllab.basis import (BasisSpec, dimension, log_abs_vdm, orthonormal_basis,
                         vandermonde)
from pllab.geometry import (ComplexBall, DegenerateSetError,
                            DimensionMismatchError, Interval, sample)


def test_dimension_counts():
    assert dimension(1, 5) == 6
    assert dimension(2, 1) == 3
    assert dimension(2, 2) == 6
    assert dimension(2, 20) == 231
    with pytest.raises(ValueError):
        dimension(3, 2)


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


def test_orthonormal_basis_degeneracy_collinear():
    # five points on a line in C^2 cannot separate degree-2 polynomials
    t = np.linspace(0, 1, 5)
    pts = np.stack([t, 2 * t], axis=1).astype(complex)
    with pytest.raises(DegenerateSetError, match="pluripolar at degree 2"):
        orthonormal_basis(pts, BasisSpec(2, 2))


def test_orthonormal_basis_cloud_size_check():
    pts = np.linspace(-1, 1, 8)[:, None].astype(complex)
    with pytest.raises(ValueError, match="cloud size"):
        orthonormal_basis(pts, BasisSpec(1, 5))


def test_orthonormal_basis_too_few_points_is_degenerate():
    pts = np.linspace(-1, 1, 4)[:, None].astype(complex)
    with pytest.raises(DegenerateSetError):
        orthonormal_basis(pts, BasisSpec(1, 5))
