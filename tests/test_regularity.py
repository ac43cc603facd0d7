import math

import numpy as np
import pytest

from pllab import regularity
from pllab.basis import BasisSpec
from pllab.cli import _one_blas_thread
from pllab.extremal import ProjectiveEvaluator, SandwichEvaluator
from pllab.fekete import cached_fekete, solve_fekete
from pllab.geometry import (Box, ComplexBall, Cusp, Interval, as_point,
                            exact_extremal, sample)
from pllab.regularity import (N_DIRECTIONS, CondPWitness, ExactEngine,
                              _check_delta_grid,
                              capacity_density_from_supnorm, condition_p_bound,
                              direction_mesh, hcp_scan,
                              localization_experiment, modulus_fit)
from pllab.serialize import Cache

GRID = [0.1 * 0.7 ** k for k in range(12)]


def test_direction_mesh_shapes():
    d1 = direction_mesh(1, N_DIRECTIONS)
    assert d1.shape == (64, 1)
    assert np.allclose(np.abs(d1[:, 0]), 1.0)
    d2 = direction_mesh(2, N_DIRECTIONS)
    assert d2.shape == (64, 2)
    assert np.allclose(np.linalg.norm(d2, axis=1), 1.0)


@pytest.mark.parametrize("count", [1, 64, 4097])
def test_direction_mesh_keeps_its_bits(count):
    g = 1.3247179572447460            # the plastic number
    u = ((np.arange(count)[:, None] + 0.5) *
         np.array([1 / g, 1 / g ** 2, 1 / g ** 3])[None, :]) % 1.0
    eta = np.arcsin(np.sqrt(u[:, 0]))
    want = np.stack([np.cos(eta) * np.exp(2j * math.pi * u[:, 1]),
                     np.sin(eta) * np.exp(2j * math.pi * u[:, 2])], axis=1)
    assert direction_mesh(2, count).tobytes() == want.tobytes()


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


def _modulus_per_scale(spec, a, delta_grid, engine):
    """(lower, upper) of modulus_fit as one bounds call per scale, with the
    running sup taken by Python's max from 0.0."""
    av = as_point(a)
    dirs = direction_mesh(spec.dim, N_DIRECTIONS)
    lows, ups, run_lo, run_up = [], [], 0.0, 0.0
    for d in _check_delta_grid(delta_grid):
        lo, up = engine.bounds(av[None, :] + d * dirs)
        run_lo = max(run_lo, float(np.max(lo)))
        run_up = max(run_up, float(np.max(up)))
        lows.append(run_lo)
        ups.append(run_up)
    return np.array(lows), np.array(ups)


def _engine(kind):
    if kind == "exact":
        iv = Interval(-1.0, 1.0)
        return iv, 1.0, ExactEngine(iv)
    if kind == "sandwich":
        box = Box(((-1.0, 1.0), (-0.5, 0.5)))
        cloud = sample(box, 400, seed=2)
        return box, (1.0, 0.0), SandwichEvaluator(
            solve_fekete(cloud, BasisSpec(2, 6)), cloud)
    disc = ComplexBall((0.0,), 1.0)
    config, cloud, _ = cached_fekete(disc, 10, "fubini-study", 5, 800,
                                     Cache(None))
    return disc, 1.0, ProjectiveEvaluator(config, cloud)


@pytest.mark.parametrize("kind", ["exact", "sandwich", "projective"])
def test_modulus_fit_equals_one_bounds_call_per_scale(kind):
    grid = [2.6 * 0.7 ** k for k in range(8)]
    with _one_blas_thread():
        spec, a, engine = _engine(kind)
        rep = modulus_fit(spec, a, grid, engine)
        lower, upper = _modulus_per_scale(spec, a, grid, engine)
    assert rep.lower.tobytes() == lower.tobytes()
    assert rep.upper.tobytes() == upper.tobytes()


class _StubEngine:
    """The lower track is value(|z|) and the upper track twice it."""

    source = "stub"

    def __init__(self, value):
        self.value = value

    def bounds(self, points):
        lo = self.value(np.abs(points[:, 0]))
        return lo, 2 * lo


# numpy may return either of two equal zeros, and which one can depend on a
# value's place in the array: every scale gets a -0.0 or a NaN maximum in
# some layout
ROW_MAXIMA = {
    # -0.0 closer than 0.02 to 0 (GRID's 7 smallest scales), NaN from 0.02
    # to 0.04 (the next two), |z| farther
    "mixed": lambda r: np.where(r < 0.02, -0.0,
                                np.where(r < 0.04, np.nan, r)),
    "negative-zero": lambda r: np.full_like(r, -0.0),
    "nan": lambda r: np.full_like(r, np.nan),
}


@pytest.mark.parametrize("layout", list(ROW_MAXIMA))
def test_modulus_fit_running_sup_keeps_positive_zero_past_nan(layout):
    disc = ComplexBall((0.0,), 1.0)
    engine = _StubEngine(ROW_MAXIMA[layout])
    rep = modulus_fit(disc, 0.0, GRID, engine)
    lower, upper = _modulus_per_scale(disc, 0.0, GRID, engine)
    zeros = 9 if layout == "mixed" else len(GRID)
    for track in (rep.lower, rep.upper):
        assert not np.signbit(track).any()
        assert (track[:zeros] == 0.0).all() and (track[zeros:] > 0.04).all()
    assert rep.lower.tobytes() == lower.tobytes()
    assert rep.upper.tobytes() == upper.tobytes()


@pytest.mark.parametrize("spec, a", [
    (Interval(-1.0, 1.0), [1.0]),
    (ComplexBall((0.0, 0.0), 1.0), [1.0, 0.0]),
], ids=["Interval", "ComplexBall2"])
def test_exact_engine_bounds_equal_per_point_loop(spec, a):
    Z = np.asarray(a, dtype=complex)[None, :] \
        + 0.3 * direction_mesh(spec.dim, N_DIRECTIONS)
    lo, up = ExactEngine(spec).bounds(Z)
    want = np.array([exact_extremal(spec, z) for z in Z])
    assert lo.tobytes() == want.tobytes() and up.tobytes() == want.tobytes()


def test_mesh_halving_stability(monkeypatch):
    iv = Interval(-1.0, 1.0)
    full = modulus_fit(iv, 1.0, GRID, ExactEngine(iv))
    monkeypatch.setattr(regularity, "N_DIRECTIONS", 32)
    half = modulus_fit(iv, 1.0, GRID, ExactEngine(iv))
    assert abs(full.mu_hat - half.mu_hat) <= 0.05


def test_box_corner_exponent_with_exact_engine():
    # the corner of the square is an endpoint of each factor interval
    box = Box(((-1.0, 1.0), (-1.0, 1.0)))
    rep = modulus_fit(box, (1.0, 1.0), GRID, ExactEngine(box))
    assert 0.45 <= rep.mu_hat <= 0.55


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
        dirs = direction_mesh(2, N_DIRECTIONS)
        Z = np.array([0.0, 0.0])[None, :] + delta * dirs
        lo, _ = eng.bounds(Z)
        assert float(np.max(lo)) <= condition_p_bound(witness, delta) + 1e-9


def test_hcp_scan_interval(monkeypatch):
    # clouds of 1201 points: max(4 N, floor) with N = 15
    monkeypatch.setattr(regularity, "HCP_CLOUD_FLOOR", 1201)
    iv = Interval(-1.0, 1.0)
    rep = hcp_scan(iv, 0.0, [0.5, 0.35, 0.25, 0.18, 0.125],
                   [0.4 * 0.7 ** k for k in range(8)], 14, seed=11)
    assert len(rep.radii) >= 4
    # sup over the unit reference sphere grows as r shrinks
    assert rep.sup_values == sorted(rep.sup_values)
    # interval growth is logarithmic in 1/r: sub-power fit
    assert rep.log_growth or (rep.q_hat is not None and rep.q_hat <= 0.5)


def test_hcp_scan_few_radii_no_order_fit(monkeypatch):
    # clouds of 400 points: max(4 N, floor) with N = 28
    monkeypatch.setattr(regularity, "HCP_CLOUD_FLOOR", 400)
    cusp = Cusp(((0.0, 1.0), (0.0,)), 0.5, 2)
    rep = hcp_scan(cusp, (0.0, 0.0), [0.5], [2.6 * 0.7 ** k for k in range(8)],
                   6, seed=11)
    assert rep.q_hat is None
    assert len(rep.mu_per_radius) == 1


def test_localization_interval():
    iv = Interval(-1.0, 1.0)
    res = localization_experiment(iv, 1.0, 0.5, 40, seed=5)
    assert res.mu_difference is not None
    assert res.mu_difference <= 0.15
    assert 0.2 <= res.mu_local <= 0.7


def test_localization_validation():
    iv = Interval(-1.0, 1.0)
    with pytest.raises(ValueError, match="anchor"):
        localization_experiment(iv, 3.0, 0.5, 10, seed=5)
    with pytest.raises(ValueError, match="radius"):
        localization_experiment(iv, 1.0, 5.0, 10, seed=5)
