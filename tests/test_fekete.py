import math

import numpy as np
import pytest
from scipy.linalg import qr

from pllab import fekete
from pllab.basis import BasisSpec, log_abs_vdm
from pllab.fekete import (DiscreteMeasure, FeketeConfig, FubiniStudyWeight,
                          TabulatedWeight, ZeroWeight, fekete_measure,
                          quality_gamma, solve_fekete, transfinite_diameter,
                          weight_from_callable)
from pllab.geometry import (AffineImage, Box, ComplexBall, DegenerateSetError,
                            Interval, sample)


@pytest.fixture(scope="module")
def interval_cloud():
    return sample(Interval(-1.0, 1.0), 2001, seed=0)


def test_weights_evaluate():
    z = np.array([[1.0 + 1j]])
    assert ZeroWeight().evaluate(z)[0] == 0.0
    assert FubiniStudyWeight().evaluate(z)[0] == pytest.approx(
        0.5 * math.log(3.0))


def test_tabulated_weight_nearest_neighbor():
    pts = np.array([[0.0 + 0j], [1.0 + 0j]])
    w = TabulatedWeight(pts, [5.0, 7.0])
    assert w.evaluate(np.array([[0.1 + 0j]]))[0] == 5.0
    assert w.evaluate(np.array([[0.9 + 0j]]))[0] == 7.0


def test_weight_from_callable(interval_cloud):
    w = weight_from_callable(lambda p: p[0].real ** 2, interval_cloud)
    vals = w.evaluate(interval_cloud.points[:5])
    assert np.allclose(vals, interval_cloud.points[:5, 0].real ** 2)


def test_solve_fekete_degree2_nodes(interval_cloud):
    cfg = solve_fekete(interval_cloud, BasisSpec(1, 2))
    nodes = np.sort(cfg.nodes[:, 0].real)
    assert np.allclose(nodes, [-1.0, 0.0, 1.0], atol=1e-3)
    assert cfg.gamma <= 1.01


def test_solve_fekete_degree3_nodes(interval_cloud):
    cfg = solve_fekete(interval_cloud, BasisSpec(1, 3))
    nodes = np.sort(cfg.nodes[:, 0].real)
    ref = np.array([-1.0, -1 / math.sqrt(5), 1 / math.sqrt(5), 1.0])
    assert np.max(np.abs(nodes - ref)) < 2e-3
    assert cfg.gamma <= 1.01


def test_solve_fekete_circle_equispaced():
    d = 7
    m = 40 * (d + 1)
    ang = 2 * math.pi * np.arange(m) / m
    pts = np.exp(1j * ang)[:, None]
    from pllab.geometry import SampleCloud
    cloud = SampleCloud(points=pts, seed=0, density_parameter=2 * math.pi / m,
                        bounding_radius=1.0, boundary_fraction=1.0)
    cfg = solve_fekete(cloud, BasisSpec(1, d))
    th = np.sort(np.angle(cfg.nodes[:, 0]))
    gaps = np.diff(np.concatenate([th, [th[0] + 2 * math.pi]]))
    assert np.max(np.abs(gaps - 2 * math.pi / (d + 1))) < 1e-3


def test_objective_matches_vdm_for_zero_weight(interval_cloud):
    b = BasisSpec(1, 5)
    cfg = solve_fekete(interval_cloud, b)
    assert cfg.objective == pytest.approx(log_abs_vdm(cfg.nodes, b), abs=1e-9)


def test_solve_fekete_cloud_size_guard():
    cloud = sample(Interval(-1, 1), 10, seed=0)
    with pytest.raises(ValueError, match="cloud size"):
        solve_fekete(cloud, BasisSpec(1, 8))


def test_fekete_measure_uniform(interval_cloud):
    cfg = solve_fekete(interval_cloud, BasisSpec(1, 2))
    mu = fekete_measure(cfg)
    assert np.allclose(mu.masses, 1.0 / 3)
    assert mu.total_mass == pytest.approx(1.0, abs=1e-12)


def test_discrete_measure_pairing():
    mu = DiscreteMeasure(support=np.array([[0.0 + 0j], [1.0 + 0j]]),
                         masses=np.array([0.5, 0.5]))
    assert mu.pair(lambda p: p[0].real) == pytest.approx(0.5)


def test_quality_gamma_exact_nodes(interval_cloud):
    cfg = solve_fekete(interval_cloud, BasisSpec(1, 2))
    assert cfg.gamma == pytest.approx(1.0, abs=1e-6)
    assert cfg.gamma >= 1.0 - 1e-9
    assert cfg.lebesgue is not None and cfg.lebesgue <= 3 * cfg.gamma


def test_quality_gamma_suboptimal_nodes(interval_cloud):
    b = BasisSpec(1, 2)
    cfg = solve_fekete(interval_cloud, b)
    # displace the middle node and re-measure
    bad = cfg.nodes.copy()
    mid = np.argmin(np.abs(bad[:, 0]))
    bad[mid, 0] = 0.1
    from pllab.fekete import FeketeConfig
    cfg_bad = FeketeConfig(basis=b, weight=ZeroWeight(), nodes=bad,
                           node_indices=cfg.node_indices, objective=0.0,
                           gamma=None, lebesgue=None, provenance={},
                           ortho=cfg.ortho)
    assert quality_gamma(cfg_bad, interval_cloud) > 1.0 + 1e-6


def test_affine_objective_shift():
    # z -> az + b shifts log|VDM| by N(N-1)/2 * log|a|
    a, b = 0.5, 0.25
    base = sample(Interval(-1, 1), 1201, seed=2)
    image = sample(AffineImage(Interval(-1, 1), ((a,),), (b,)), 1201, seed=2)
    bs = BasisSpec(1, 4)
    c1 = solve_fekete(base, bs)
    c2 = solve_fekete(image, bs)
    N = bs.size
    shift = N * (N - 1) / 2 * math.log(a)
    assert c2.objective - c1.objective == pytest.approx(shift, abs=1e-4)


def test_transfinite_diameter_validation(interval_cloud):
    cfg = solve_fekete(interval_cloud, BasisSpec(1, 4))
    with pytest.raises(ValueError, match="3 degrees"):
        transfinite_diameter([cfg, cfg])


def test_weighted_solve_runs(interval_cloud):
    cfg = solve_fekete(interval_cloud, BasisSpec(1, 6), FubiniStudyWeight())
    assert cfg.gamma >= 1.0 - 1e-9
    assert np.isfinite(cfg.objective)


def _exchange_refine_resolve(A, sel, tol, max_iters):
    """Reference exchange loop: a full solve of B^{-1} A before every swap."""
    N, M = A.shape
    sel = np.array(sel, dtype=int)
    swaps = 0
    for _ in range(max_iters):
        B = A[:, sel]
        try:
            G = np.abs(np.linalg.solve(B, A))
        except np.linalg.LinAlgError:
            break
        G[:, sel] = 0.0
        j_best = np.argmax(G, axis=0)
        col_gain = G[j_best, np.arange(M)]
        m = int(np.argmax(col_gain))
        gain = float(col_gain[m])
        if gain <= 0 or math.log(gain) < tol:
            break
        sel[int(j_best[m])] = m
        swaps += 1
    return np.sort(sel), swaps


def _refine_runs(monkeypatch, cloud, basis, weight=None, **kw):
    """Solve, recording every refinement's inputs and results."""
    runs = []
    refine = fekete._exchange_refine

    def recording(A, sel, tol, max_iters):
        out = refine(A, sel, tol, max_iters)
        runs.append(((A, np.array(sel), tol, max_iters), out))
        return out

    monkeypatch.setattr(fekete, "_exchange_refine", recording)
    solve_fekete(cloud, basis, weight, **kw)
    return runs


REFINE_SPECS = pytest.mark.parametrize("spec,d,count,weight", [
    (ComplexBall((0.0,), 1.0), 8, 2001, None),
    (ComplexBall((0.0,), 1.0), 16, 2001, None),
    (Interval(-1.0, 1.0), 60, 2001, None),
    (ComplexBall((0.0, 0.0), 1.0), 6, 1000, None),
    (Box(((-1.0, 1.0), (-1.0, 1.0))), 6, 1000, None),
    (Interval(-1.0, 1.0), 16, 2001, FubiniStudyWeight()),
], ids=["disc-d8", "disc-d16", "interval-d60", "ball2-d6", "box-d6",
        "fubini-study-interval-d16"])


@REFINE_SPECS
def test_exchange_refine_matches_full_resolve(monkeypatch, spec, d, count,
                                              weight):
    cloud = sample(spec, count, seed=5)
    runs = _refine_runs(monkeypatch, cloud, BasisSpec(spec.dim, d), weight)
    assert len(runs) == 1
    for args, (sel, swaps) in runs:
        ref_sel, ref_swaps = _exchange_refine_resolve(*args)
        assert np.array_equal(sel, ref_sel)
        assert swaps == ref_swaps


def test_exchange_refine_swap_cap_matches_full_resolve(monkeypatch):
    cloud = sample(ComplexBall((0.0,), 1.0), 2001, seed=5)
    basis = BasisSpec(1, 16)
    runs = _refine_runs(monkeypatch, cloud, basis, max_sweep_factor=1)
    for args, (sel, swaps) in runs:
        assert swaps == args[3] == basis.size
        ref_sel, ref_swaps = _exchange_refine_resolve(*args)
        assert np.array_equal(sel, ref_sel)
        assert swaps == ref_swaps


def test_from_indices_rebuilds_solved_config(interval_cloud):
    basis = BasisSpec(1, 8)
    weight = FubiniStudyWeight()
    cfg = solve_fekete(interval_cloud, basis, weight)
    again = FeketeConfig.from_indices(interval_cloud, basis, weight,
                                      cfg.node_indices, dict(cfg.provenance))
    assert again.to_dict() == cfg.to_dict()
    assert np.array_equal(again.node_indices, cfg.node_indices)


def _solve_three_restarts(cloud, basis, weight):
    """Reference solve: three randomly rotated pivoted-QR seeds, each refined,
    keeping the first of the largest logdet; returns the selected indices."""
    N = basis.size
    ortho = fekete.orthonormal_basis(cloud, basis)
    A = fekete._weighted_columns(ortho, weight, basis.d, cloud.points).T
    best = None
    for k in range(3):
        if k == 0:
            T = np.eye(N)
        else:
            G = np.random.default_rng(1000 * k + cloud.seed).standard_normal(
                (N, N))
            T, _ = qr(G)
        _, _, piv = qr(T @ A, pivoting=True, mode="economic")
        sel = np.sort(piv[:N]).astype(int)
        sel, _ = fekete._exchange_refine(A, sel, fekete._SWAP_TOL, 50 * N)
        sign, logdet = np.linalg.slogdet(A[:, sel])
        logdet = logdet if sign != 0 else -np.inf
        if best is None or logdet > best[1]:
            best = (sel, logdet)
    return best[0]


@REFINE_SPECS
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_single_seeding_matches_three_restarts(spec, d, count, weight, seed):
    cloud = sample(spec, count, seed=seed)
    basis = BasisSpec(spec.dim, d)
    weight = weight or ZeroWeight()
    cfg = solve_fekete(cloud, basis, weight)
    ref = FeketeConfig.from_indices(
        cloud, basis, weight, _solve_three_restarts(cloud, basis, weight), {})
    assert np.array_equal(cfg.node_indices, ref.node_indices)
    assert cfg.objective == ref.objective
    assert cfg.gamma == ref.gamma


def test_solve_runs_one_pivoted_qr_and_one_refinement(monkeypatch,
                                                      interval_cloud):
    qr_calls = []

    def counting_qr(*args, **kw):
        qr_calls.append(kw.get("pivoting", False))
        return qr(*args, **kw)

    monkeypatch.setattr(fekete, "qr", counting_qr)
    runs = _refine_runs(monkeypatch, interval_cloud, BasisSpec(1, 12))
    assert qr_calls == [True]
    assert len(runs) == 1
    assert runs[0][0][2] == fekete._SWAP_TOL
