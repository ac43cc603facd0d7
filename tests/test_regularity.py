import math

import numpy as np
import pytest

from pllab.basis import BasisSpec
from pllab.extremal import SandwichEvaluator
from pllab.fekete import solve_fekete
from pllab.geometry import (Box, ComplexBall, Cusp, Interval,
                            exact_extremal, sample)
from pllab.regularity import (CondPWitness, ExactEngine,
                              capacity_density_from_supnorm, condition_p_bound,
                              direction_mesh, hcp_scan,
                              localization_experiment, modulus_fit)

GRID = [0.1 * 0.7 ** k for k in range(12)]


def test_direction_mesh_shapes():
    d1 = direction_mesh(1)
    assert d1.shape == (64, 1)
    assert np.allclose(np.abs(d1[:, 0]), 1.0)
    d2 = direction_mesh(2)
    assert d2.shape == (64, 2)
    assert np.allclose(np.linalg.norm(d2, axis=1), 1.0)


def test_modulus_fit_interval_endpoint_exact():
    iv = Interval(-1.0, 1.0)
    rep = modulus_fit(iv, 1.0, GRID, ExactEngine(iv))
    assert not rep.inconclusive
    assert 0.45 <= rep.mu_hat <= 0.55
    assert rep.r_squared > 0.99
    # monotone by construction
    assert np.all(np.diff(rep.lower) >= 0)


def test_modulus_fit_disc_boundary_exact():
    disc = ComplexBall((0.0,), 1.0)
    rep = modulus_fit(disc, 1.0, GRID, ExactEngine(disc))
    assert 0.95 <= rep.mu_hat <= 1.05


def test_modulus_fit_interior_zero():
    disc = ComplexBall((0.0,), 1.0)
    rep = modulus_fit(disc, 0.0, [0.05 * 0.7 ** k for k in range(8)],
                      ExactEngine(disc))
    assert rep.inconclusive
    assert np.all(rep.lower == 0.0)


def test_modulus_fit_anchor_must_be_in_set():
    iv = Interval(-1.0, 1.0)
    with pytest.raises(ValueError, match="anchor"):
        modulus_fit(iv, 2.0, GRID, ExactEngine(iv))


def test_modulus_fit_grid_validation():
    iv = Interval(-1.0, 1.0)
    with pytest.raises(ValueError, match="6 points"):
        modulus_fit(iv, 1.0, [0.1, 0.05], ExactEngine(iv))
    with pytest.raises(ValueError, match="geometric"):
        modulus_fit(iv, 1.0, [0.1, 0.09, 0.08, 0.07, 0.06, 0.05],
                    ExactEngine(iv))


def test_modulus_fit_sandwich_engine_agrees_with_exact():
    iv = Interval(-1.0, 1.0)
    cloud = sample(iv, 2001, seed=0)
    cfg = solve_fekete(cloud, BasisSpec(1, 40))
    rep = modulus_fit(iv, 1.0, [0.6 * 0.7 ** k for k in range(8)],
                      SandwichEvaluator(cfg, cloud))
    assert not rep.inconclusive
    assert 0.35 <= rep.mu_hat <= 0.65


@pytest.mark.parametrize("spec, a", [
    (Interval(-1.0, 1.0), [1.0]),
    (ComplexBall((0.0, 0.0), 1.0), [1.0, 0.0]),
], ids=["Interval", "ComplexBall2"])
def test_exact_engine_bounds_equal_per_point_loop(spec, a):
    Z = np.asarray(a, dtype=complex)[None, :] + 0.3 * direction_mesh(spec.dim)
    lo, up = ExactEngine(spec).bounds(Z)
    want = np.array([exact_extremal(spec, z) for z in Z])
    assert lo.tobytes() == want.tobytes() and up.tobytes() == want.tobytes()


def test_mesh_halving_stability():
    iv = Interval(-1.0, 1.0)
    full = modulus_fit(iv, 1.0, GRID, ExactEngine(iv), directions=64)
    half = modulus_fit(iv, 1.0, GRID, ExactEngine(iv), directions=32)
    assert abs(full.mu_hat - half.mu_hat) <= 0.05


def test_capacity_density_arithmetic():
    assert capacity_density_from_supnorm(2.0, 1.0, 1) == (0.5, 1.0)
    assert capacity_density_from_supnorm(1.0, 0.0, 2) == (1.0, 0.0)
    with pytest.raises(ValueError):
        capacity_density_from_supnorm(-1.0, 1.0, 1)


def test_condition_p_bound_value():
    w = CondPWitness(segment_min_diameter=1.0, map_norm_bound=1.0,
                     set_diameter=2.0)
    assert condition_p_bound(w, 0.01) == pytest.approx(4 * math.sqrt(3) * 0.1,
                                                       abs=1e-12)
    with pytest.raises(ValueError):
        condition_p_bound(w, 0.0)


def test_condition_p_empirical_square():
    # unit square: measured modulus stays below the explicit bound
    sq = Box(((0.0, 1.0), (0.0, 1.0)))
    cloud = sample(sq, 1600, seed=3)
    cfg = solve_fekete(cloud, BasisSpec(2, 8))
    eng = SandwichEvaluator(cfg, cloud)
    witness = CondPWitness(segment_min_diameter=1.0, map_norm_bound=1.0,
                           set_diameter=math.sqrt(2.0))
    for delta in (1e-3, 1e-2, 1e-1):
        dirs = direction_mesh(2)
        Z = np.array([0.0, 0.0])[None, :] + delta * dirs
        lo, _ = eng.bounds(Z)
        assert float(np.max(lo)) <= condition_p_bound(witness, delta) + 1e-9


def test_hcp_scan_interval():
    iv = Interval(-1.0, 1.0)
    rep = hcp_scan(iv, 0.0, [0.5, 0.35, 0.25, 0.18, 0.125],
                   [0.4 * 0.7 ** k for k in range(8)], 14, cloud_target=1201)
    assert len(rep.radii) >= 4
    # sup over the unit reference sphere grows as r shrinks
    assert rep.sup_values == sorted(rep.sup_values)
    # interval growth is logarithmic in 1/r: sub-power fit
    assert rep.log_growth or (rep.q_hat is not None and rep.q_hat <= 0.5)


def test_hcp_scan_few_radii_no_order_fit():
    cusp = Cusp(((0.0, 1.0), (0.0,)), 0.5, 2)
    rep = hcp_scan(cusp, (0.0, 0.0), [0.5], [2.6 * 0.7 ** k for k in range(8)],
                   6, cloud_target=400)
    assert rep.q_hat is None
    assert len(rep.mu_per_radius) == 1


def test_localization_interval():
    iv = Interval(-1.0, 1.0)
    res = localization_experiment(iv, 1.0, 0.5, 40)
    assert res.mu_difference is not None
    assert res.mu_difference <= 0.15
    assert 0.2 <= res.mu_local <= 0.7


def test_localization_validation():
    iv = Interval(-1.0, 1.0)
    with pytest.raises(ValueError, match="anchor"):
        localization_experiment(iv, 3.0, 0.5, 10)
    with pytest.raises(ValueError, match="radius"):
        localization_experiment(iv, 1.0, 5.0, 10)
