import math

import numpy as np
import pytest
from scipy.linalg import qr

from pllab import cli, fekete
from pllab.basis import BasisSpec, log_abs_vdm
from pllab.fekete import (FeketeConfig, FubiniStudyWeight, FunctionWeight,
                          ZeroWeight, quality_gamma, solve_fekete,
                          transfinite_diameter)
from pllab.geometry import (AffineImage, Box, ComplexBall, DegenerateSetError,
                            Interval, RealBall, sample)


@pytest.fixture(scope="module")
def interval_cloud():
    return sample(Interval(-1.0, 1.0), 2001, seed=0)


def test_weights_evaluate():
    z = np.array([[1.0 + 1j]])
    assert ZeroWeight().evaluate(z)[0] == 0.0
    assert FubiniStudyWeight().evaluate(z)[0] == pytest.approx(
        0.5 * math.log(3.0))


def test_weight_from_callable(interval_cloud):
    """The weight is its function, on the cloud and off it."""
    w = FunctionWeight(lambda p: p[0].real ** 2)
    pts = np.vstack([interval_cloud.points[:5], [[0.123 + 0j]]])
    assert list(w.evaluate(pts)) == [p[0].real ** 2 for p in pts]


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
    cloud = SampleCloud(points=pts, seed=0, density_parameter=2 * math.pi / m)
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


def test_quality_gamma_exact_nodes(interval_cloud):
    cfg = solve_fekete(interval_cloud, BasisSpec(1, 2))
    assert cfg.gamma == pytest.approx(1.0, abs=1e-6)
    assert cfg.gamma >= 1.0 - 1e-9
    assert cfg.lebesgue is not None and cfg.lebesgue <= 3 * cfg.gamma


def test_quality_gamma_suboptimal_nodes(interval_cloud):
    b = BasisSpec(1, 2)
    cfg = solve_fekete(interval_cloud, b)
    # move the middle node to the cloud point nearest 0.1 and re-measure
    idx = cfg.node_indices.copy()
    idx[np.argmin(np.abs(cfg.nodes[:, 0]))] = np.argmin(
        np.abs(interval_cloud.points[:, 0] - 0.1))
    cfg_bad = FeketeConfig(basis=b, weight=ZeroWeight(),
                           nodes=interval_cloud.points[idx], node_indices=idx,
                           objective=0.0, gamma=None, lebesgue=None,
                           provenance={}, ortho=cfg.ortho)
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
    cfg5 = solve_fekete(interval_cloud, BasisSpec(1, 5))
    # the least-squares line needs three abscissas 1/d, not three configs
    for configs in ([cfg, cfg], [cfg, cfg, cfg], [cfg, cfg5, cfg, cfg5]):
        with pytest.raises(ValueError, match="3 distinct degrees"):
            transfinite_diameter(configs)


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


def _refine_runs(monkeypatch, cloud, basis, weight=None):
    """Solve, recording every refinement's inputs and results."""
    runs = []
    refine = fekete._exchange_refine

    def recording(A, sel, tol, max_iters):
        out = refine(A, sel, tol, max_iters)
        runs.append(((A, np.array(sel), tol, max_iters), out))
        return out

    monkeypatch.setattr(fekete, "_exchange_refine", recording)
    solve_fekete(cloud, basis, weight)
    return runs


REFINE_CASES = [
    (ComplexBall((0.0,), 1.0), 8, 2001, None),
    (ComplexBall((0.0,), 1.0), 16, 2001, None),
    (Interval(-1.0, 1.0), 60, 2001, None),
    (ComplexBall((0.0, 0.0), 1.0), 6, 1000, None),
    (Box(((-1.0, 1.0), (-1.0, 1.0))), 6, 1000, None),
    (Interval(-1.0, 1.0), 16, 2001, FubiniStudyWeight()),
    # a symmetric linspace cloud: mirror-image swaps tie to rounding, so
    # decisions fall back to the authoritative solve
    (Interval(-1.0, 1.0), 20, 2001, None),
    (RealBall((0.0, 0.0), 1.0), 6, 1000, None),
]
REFINE_IDS = ["disc-d8", "disc-d16", "interval-d60", "ball2-d6", "box-d6",
              "fubini-study-interval-d16", "interval-d20", "realball-d6"]
REFINE_SPECS = pytest.mark.parametrize("spec,d,count,weight", REFINE_CASES,
                                       ids=REFINE_IDS)
# clouds on which a float64 loop that let every decision stand takes an
# exact tie the other way than the complex re-solve, on some BLAS builds
# (which of them depends on the build)
TIE_SEEDS = [247183, 392394, 493011, 282227, 22651]


# the Fubini-Study weight on the unit disc at d = 60 makes cond(B) about
# 1e9: the approximate Lagrange matrix is not trusted, so the complex
# refinement decides on full solves (not in REFINE_CASES, which make none)
REFINE_SEEDED = pytest.mark.parametrize(
    "spec,d,count,weight,seed",
    [case + (5,) for case in REFINE_CASES]
    + [(RealBall((0.0, 0.0), 1.0), 6, 2001, None, s) for s in TIE_SEEDS]
    + [(ComplexBall((0.0,), 1.0), 60, 2001, FubiniStudyWeight(), 5)],
    ids=REFINE_IDS + [f"realball-d6-2001-seed{s}" for s in TIE_SEEDS]
    + ["fubini-study-disc-d60"])


@REFINE_SEEDED
def test_exchange_refine_matches_full_resolve(monkeypatch, spec, d, count,
                                              weight, seed):
    cloud = sample(spec, count, seed=seed)
    runs = _refine_runs(monkeypatch, cloud, BasisSpec(spec.dim, d), weight)
    assert len(runs) == 1
    for args, (sel, swaps, _) in runs:
        ref_sel, ref_swaps = _exchange_refine_resolve(*args)
        assert np.array_equal(sel, ref_sel)
        assert swaps == ref_swaps


@pytest.mark.parametrize("layout", [
    np.ascontiguousarray, np.asfortranarray,
    lambda A: np.repeat(A, 2, axis=1)[:, ::2]], ids=["C", "F", "strided"])
def test_exchange_refine_any_layout_matches_full_resolve(monkeypatch, layout):
    cloud = sample(ComplexBall((0.0,), 1.0), 2001, seed=5)
    (A, sel, tol, max_iters), _ = _refine_runs(
        monkeypatch, cloud, BasisSpec(1, 16))[0]
    A = layout(A)
    out_sel, swaps, _ = fekete._exchange_refine(A, sel, tol, max_iters)
    ref_sel, ref_swaps = _exchange_refine_resolve(A, sel, tol, max_iters)
    assert swaps > 0
    assert np.array_equal(out_sel, ref_sel)
    assert swaps == ref_swaps


def test_exchange_refine_swap_cap_matches_full_resolve(monkeypatch):
    cloud = sample(ComplexBall((0.0,), 1.0), 2001, seed=5)
    basis = BasisSpec(1, 16)
    monkeypatch.setattr(fekete, "MAX_SWEEP_FACTOR", 1)
    runs = _refine_runs(monkeypatch, cloud, basis)
    for args, (sel, swaps, lag) in runs:
        assert swaps == args[3] == basis.size
        assert lag is None
        ref_sel, ref_swaps = _exchange_refine_resolve(*args)
        assert np.array_equal(sel, ref_sel)
        assert swaps == ref_swaps


def _full_quality(A, sel):
    """(gamma, lebesgue) read off the full Lagrange matrix of sel."""
    absl = np.abs(np.linalg.solve(A[:, sel], A))
    return float(np.max(absl)), float(np.max(np.sum(absl, axis=0)))


@REFINE_SEEDED
def test_exchange_refine_returns_lagrange_matrix(monkeypatch, spec, d, count,
                                                 weight, seed):
    """The refinement returns gamma and the Lebesgue constant of the Lagrange
    matrix np.linalg.solve(A[:, sel], A) of its selection, bit for bit,
    though it solves only for their contender columns."""
    cloud = sample(spec, count, seed=seed)
    with cli._one_blas_thread():
        [((A, _, _, _), (sel, _, quality))] = _refine_runs(
            monkeypatch, cloud, BasisSpec(spec.dim, d), weight)
        assert quality == _full_quality(A, sel)


@REFINE_SPECS
def test_solve_on_some_columns_equals_those_of_the_full_solve(
        monkeypatch, spec, d, count, weight):
    """np.linalg.solve(B, A)[:, cols] equals np.linalg.solve(B, A[:, cols])
    bit for bit at one BLAS thread.  The refinement's selections, gamma and
    Lebesgue constant equal those of full solves only because of this; a
    BLAS build without it must fail here."""
    cloud = sample(spec, count, seed=5)
    rng = np.random.default_rng(0)
    with cli._one_blas_thread():
        [((A, start, _, _), (sel, _, _))] = _refine_runs(
            monkeypatch, cloud, BasisSpec(spec.dim, d), weight)
        for order in (start, sel, rng.permutation(sel)):
            full = np.linalg.solve(A[:, order], A)
            for k in (1, 2, 5, 40):
                cols = np.sort(rng.choice(A.shape[1], k, replace=False))
                assert np.array_equal(
                    full[:, cols], np.linalg.solve(A[:, order], A[:, cols]))


def _counting_full_solves(monkeypatch, width):
    """Record, per np.linalg.solve call, whether it solves for width
    columns."""
    full = []
    solve = np.linalg.solve

    def counting(a, b):
        full.append(b.ndim == 2 and b.shape[1] == width)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    return full


@REFINE_SPECS
def test_well_conditioned_solve_makes_no_full_solve(monkeypatch, spec, d,
                                                    count, weight):
    cloud = sample(spec, count, seed=5)
    full = _counting_full_solves(monkeypatch, cloud.size)
    with cli._one_blas_thread():
        solve_fekete(cloud, BasisSpec(spec.dim, d), weight)
    assert full and not any(full)


def test_ill_conditioned_solve_falls_back_to_full_solves(monkeypatch):
    """The Hoelder weight |x - 1| on the interval at d = 20 makes the node
    matrix numerically singular (cond about 1e16): the approximate Lagrange
    matrix is not trusted, so the refinement decides on full solves, and
    gamma and the Lebesgue constant, from the solve or from a cache hit,
    are still those of the full sorted-order solve."""
    cloud = sample(Interval(-1.0, 1.0), 4001, seed=0)
    basis = BasisSpec(1, 20)
    weight = FunctionWeight(lambda p: abs(p[0].real - 1.0))
    with cli._one_blas_thread():
        full = _counting_full_solves(monkeypatch, cloud.size)
        [((A, _, _, _), (sel, _, quality))] = _refine_runs(
            monkeypatch, cloud, basis, weight)
        assert sum(full) > 1
        assert np.linalg.cond(A[:, sel], 1) > 1e12
        assert quality == _full_quality(A, sel)
        full.clear()
        hit = FeketeConfig.from_indices(cloud, basis, weight, sel, {})
        assert full == [True]
        assert (hit.gamma, hit.lebesgue) == quality


@pytest.mark.parametrize("A", [np.ones((3, 12)), np.ones((3, 12)) * 1j],
                         ids=["real", "complex"])
def test_exchange_refine_singular_nodes_return_no_lagrange_matrix(A):
    sel, swaps, lag = fekete._exchange_refine(A, [0, 1, 2], 1e-10, 100)
    assert np.array_equal(sel, [0, 1, 2])
    assert swaps == 0
    assert lag is None


@REFINE_SPECS
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_solve_matches_cache_hit_path(spec, d, count, weight, seed):
    cloud = sample(spec, count, seed=seed)
    basis = BasisSpec(spec.dim, d)
    weight = weight or ZeroWeight()
    cfg = solve_fekete(cloud, basis, weight)
    hit = FeketeConfig.from_indices(cloud, basis, weight, cfg.node_indices,
                                    dict(cfg.provenance))
    assert hit.gamma == cfg.gamma
    assert hit.lebesgue == cfg.lebesgue
    assert hit.objective == cfg.objective


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
        sel, _, _ = fekete._exchange_refine(A, sel, fekete._SWAP_TOL, 50 * N)
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
