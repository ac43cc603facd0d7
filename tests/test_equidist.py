import math

import numpy as np
import pytest

from pllab.equidist import (Arcsine, Polynomial, TabulatedLipschitz,
                            UniformCircle, equilibrium_pairing,
                            rate_experiment)
from pllab.geometry import AffineImage, ComplexBall, Interval


# ---------------------------------------------------------------------------
# equilibrium pairings
# ---------------------------------------------------------------------------

def test_arcsine_pairing_monomials():
    mu = Arcsine(-1.0, 1.0)
    assert equilibrium_pairing(mu, Polynomial([0, 1])) == pytest.approx(
        0.0, abs=1e-14)
    assert equilibrium_pairing(mu, Polynomial([0, 0, 1])) == pytest.approx(
        0.5, abs=1e-14)
    assert equilibrium_pairing(mu, Polynomial([0, 0, 0, 0, 1])) == pytest.approx(
        3.0 / 8.0, abs=1e-14)


def test_arcsine_pairing_shifted_interval():
    # x on [0, 2]: arcsine mean is the midpoint
    mu = Arcsine(0.0, 2.0)
    assert equilibrium_pairing(mu, Polynomial([0, 1])) == pytest.approx(
        1.0, abs=1e-14)


def test_circle_pairing():
    mu = UniformCircle(0.0, 1.0)
    assert equilibrium_pairing(mu, Polynomial([0, 0, 1])) == pytest.approx(
        0.0, abs=1e-12)
    assert equilibrium_pairing(mu, Polynomial([3.0])) == pytest.approx(3.0)


def test_measure_validation():
    with pytest.raises(ValueError):
        Arcsine(1.0, -1.0)
    with pytest.raises(ValueError):
        UniformCircle(0.0, 0.0)
    with pytest.raises(TypeError):
        equilibrium_pairing(object(), Polynomial([1.0]))


def test_tabulated_lipschitz():
    grid = np.linspace(-1, 1, 201)
    v = TabulatedLipschitz(grid, np.abs(grid))
    vals = v(np.array([0.5 + 0j, -0.25 + 0j]))
    assert vals[0] == pytest.approx(0.5, abs=1e-9)
    assert vals[1] == pytest.approx(0.25, abs=1e-9)
    with pytest.raises(ValueError, match="support"):
        v(np.array([2.0 + 0j, 0.0 + 0j]))


@pytest.mark.parametrize("grid", [[-1.0, 0.5, 0.0, 1.0], [-1.0, 0.0, 0.0, 1.0],
                                  [1.0, 0.5, 0.0, -1.0]])
def test_tabulated_lipschitz_rejects_unsorted_grid(grid):
    # np.interp on [-1, 0.5, 0, 1] would give 0.833 at 0.25, not 1.5
    with pytest.raises(ValueError, match="strictly increasing"):
        TabulatedLipschitz(grid, [0.0, 1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# rate experiment
# ---------------------------------------------------------------------------

def test_rate_experiment_interval_quadratic():
    # exact pairing error for v = x^2 at degree d is 1/(2(2d+1)) at even d
    fit = rate_experiment(Interval(-1.0, 1.0), Polynomial([0, 0, 1]),
                          [2, 4, 8, 16], Arcsine(-1.0, 1.0),
                          alpha_prime=0.5, seed=0)
    assert fit.errors[0] == pytest.approx(1.0 / 6.0, abs=1e-10)
    assert fit.errors[1] == pytest.approx(1.0 / 14.0, abs=1e-10)
    assert fit.monotone
    assert fit.slope < -0.9
    # bound line calibrated at the smallest degree dominates the errors
    assert all(e <= b + 1e-12 for e, b in zip(fit.errors, fit.bound_line))


def test_rate_experiment_circle_exact():
    # roots of unity integrate Re z^2 exactly for d >= 2
    fit = rate_experiment(ComplexBall((0.0,), 1.0), Polynomial([0, 0, 1]),
                          [2, 4, 8, 16], UniformCircle(0.0, 1.0),
                          alpha_prime=0.5, seed=0)
    assert max(fit.errors) <= 1e-10


def test_rate_experiment_affine_equivariance():
    # [0, 1] = affine image of [-1, 1]; pairing errors match the pullback
    v = Polynomial([0, 0, 1])
    fit_img = rate_experiment(AffineImage(Interval(-1.0, 1.0), ((0.5,),), (0.5,)),
                              v, [2, 4, 8, 16], Arcsine(0.0, 1.0),
                              alpha_prime=0.5, seed=0)
    pull = Polynomial([0.25, 0.5, 0.25])      # ((x+1)/2)^2
    fit_pull = rate_experiment(Interval(-1.0, 1.0), pull, [2, 4, 8, 16],
                               Arcsine(-1.0, 1.0), alpha_prime=0.5, seed=0)
    for a, b in zip(fit_img.errors, fit_pull.errors):
        assert a == pytest.approx(b, abs=1e-6)


def test_rate_experiment_trivial_bound():
    v = Polynomial([0, 0, 1])
    fit = rate_experiment(Interval(-1.0, 1.0), v, [2, 4, 8, 16],
                          Arcsine(-1.0, 1.0), alpha_prime=0.5, seed=0)
    sup_v = 1.0
    assert all(e <= 2 * sup_v for e in fit.errors)


def test_rate_experiment_validation():
    v = Polynomial([0, 1])
    with pytest.raises(ValueError, match="increasing"):
        rate_experiment(Interval(-1, 1), v, [4, 2, 8], Arcsine(-1, 1),
                        alpha_prime=0.5, seed=0)
    with pytest.raises(ValueError, match="increasing"):
        rate_experiment(Interval(-1, 1), v, [2, 4, 8], Arcsine(-1, 1),
                        alpha_prime=0.5, seed=0)
