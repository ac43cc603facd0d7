import math
import tracemalloc

import numpy as np
import pytest

from pllab.basis import BasisSpec
from pllab.cli import _one_blas_thread
from pllab.extremal import (BLOCK_ROWS, PolyMap, ProjectiveEvaluator,
                            SandwichEvaluator, composition_gap,
                            relative_extremal_1c)
from pllab.fekete import FubiniStudyWeight, ZeroWeight, solve_fekete
from pllab.geometry import (Box, ComplexBall, DimensionMismatchError,
                            Interval, Union, contains, exact_extremal, sample)


@pytest.fixture(scope="module")
def interval_setup():
    cloud = sample(Interval(-1.0, 1.0), 2001, seed=0)
    cfg = solve_fekete(cloud, BasisSpec(1, 20))
    return cfg, cloud


@pytest.fixture(scope="module")
def disc_setup():
    cloud = sample(ComplexBall((0.0,), 1.0), 2001, seed=0)
    cfg = solve_fekete(cloud, BasisSpec(1, 10))
    return cfg, cloud


def test_sandwich_brackets_interval(interval_setup):
    cfg, cloud = interval_setup
    (lo,), (up,) = SandwichEvaluator(cfg, cloud).bounds(2.0)
    target = math.log(2 + math.sqrt(3))
    assert lo <= target <= up
    assert up - lo <= math.log(21 * cfg.gamma) / 20 + 1e-9


def test_sandwich_brackets_disc(disc_setup):
    cfg, cloud = disc_setup
    (lo,), (up,) = SandwichEvaluator(cfg, cloud).bounds(2.0)
    assert lo <= math.log(2) <= up


def test_gap_law(interval_setup):
    cfg, cloud = interval_setup
    (lo,), (up,) = SandwichEvaluator(cfg, cloud).bounds(1.7)
    N = cfg.basis.size
    assert (up - lo) * cfg.basis.d == pytest.approx(math.log(N * cfg.gamma),
                                                    abs=1e-12)


def test_lower_nonnegative_on_set(interval_setup):
    cfg, cloud = interval_setup
    ev = SandwichEvaluator(cfg, cloud)
    zs = np.linspace(-1, 1, 41)[:, None].astype(complex)
    lower, upper = ev.bounds(zs)
    assert np.all(lower >= -1e-9)
    assert np.all(upper >= lower)


def test_sandwich_at_node(interval_setup):
    cfg, cloud = interval_setup
    (lo,), (up,) = SandwichEvaluator(cfg, cloud).bounds(cfg.nodes[0])
    assert lo >= -math.log(cfg.gamma) / cfg.basis.d - 1e-12
    assert up >= 0.0


def test_oracle_inside_bracket_many_points(interval_setup):
    cfg, cloud = interval_setup
    ev = SandwichEvaluator(cfg, cloud)
    eps = 3 * cloud.density_parameter
    zs = np.array([1.5, 2.5, -3.0, 1.0 + 1.0j, -0.5 + 2.0j])[:, None]
    lower, upper = ev.bounds(zs)
    for z, lo, up in zip(zs[:, 0], lower, upper):
        exact = exact_extremal(Interval(-1, 1), z)
        assert lo - eps <= exact <= up + eps


def test_sandwich_brackets_the_box_product_formula():
    """Siciak's product formula for the square, max of two interval closed
    forms, lies in the sandwich at 2000 points with |z| in [1.05, 3]."""
    box = Box(((-1.0, 1.0), (-1.0, 1.0)))
    rng = np.random.default_rng(0)
    z = rng.normal(size=(2000, 2)) + 1j * rng.normal(size=(2000, 2))
    z *= (rng.uniform(1.05, 3.0, 2000) / np.linalg.norm(z, axis=1))[:, None]
    exact = exact_extremal(box, z)
    with _one_blas_thread():
        cloud = sample(box, 2001, seed=11)
        for d in (6, 12, 18, 24):
            ev = SandwichEvaluator(solve_fekete(cloud, BasisSpec(2, d)),
                                   cloud)
            lower, upper = ev.bounds(z)
            assert np.sum(lower > exact) == 0 and np.sum(upper < exact) == 0


def test_degree_monotonicity_of_lower():
    cloud = sample(Interval(-1.0, 1.0), 2001, seed=0)
    z = 2.0
    prev = -np.inf
    for d in (5, 10, 20, 40):
        cfg = solve_fekete(cloud, BasisSpec(1, d))
        (lo,), _ = SandwichEvaluator(cfg, cloud).bounds(z)
        assert lo >= prev - 2e-2
        prev = lo


def test_weight_comparison_invariant():
    cloud = sample(Interval(-1.0, 1.0), 2001, seed=0)
    b = BasisSpec(1, 12)
    cfg_u = solve_fekete(cloud, b)
    cfg_w = solve_fekete(cloud, b, FubiniStudyWeight())
    ev_u = SandwichEvaluator(cfg_u, cloud)
    ev_w = SandwichEvaluator(cfg_w, cloud)
    phi = FubiniStudyWeight().evaluate(cloud.points)
    comb = ev_u.gap + ev_w.gap
    rng = np.random.default_rng(1)
    zs = (rng.uniform(-2, 2, 20) + 1j * rng.uniform(-2, 2, 20))[:, None]
    lu, uu = ev_u.bounds(zs)
    lw, uw = ev_w.bounds(zs)
    assert np.all(lw >= lu + phi.min() - comb - 1e-9)
    assert np.all(uw <= uu + phi.max() + comb + 1e-9)


def test_projective_extremal_inside_set():
    cloud = sample(ComplexBall((0.0,), 1.0), 1201, seed=0)
    cfg = solve_fekete(cloud, BasisSpec(1, 12), FubiniStudyWeight())
    ev = ProjectiveEvaluator(cfg, cloud)
    (lo,), (up,) = ev.bounds(0.0)
    # the certificate is relative to the cloud, so allow mesh slack
    eps = 3 * cloud.density_parameter
    assert lo - eps <= 0.0 <= up + eps
    assert ev.source == "projective"


def test_projective_requires_fubini_study(disc_setup):
    cfg, cloud = disc_setup
    with pytest.raises(ValueError, match="Fubini-Study"):
        ProjectiveEvaluator(cfg, cloud).bounds(2.0)
    with pytest.raises(ValueError, match="Fubini-Study"):
        ProjectiveEvaluator(cfg, cloud)


def test_projective_identity_cross_check():
    # weighted minus rho agrees with the projective evaluator
    cloud = sample(Interval(-1.0, 1.0), 1201, seed=0)
    cfg = solve_fekete(cloud, BasisSpec(1, 12), FubiniStudyWeight())
    z = 2.0
    (lo_w,), (up_w,) = SandwichEvaluator(cfg, cloud).bounds(z)
    (lo_v,), (up_v,) = ProjectiveEvaluator(cfg, cloud).bounds(z)
    rho = 0.5 * math.log1p(abs(z) ** 2)
    assert lo_v == pytest.approx(lo_w - rho, abs=1e-12)
    assert up_v == pytest.approx(up_w - rho, abs=1e-12)


def test_projective_evaluator_batch():
    cloud = sample(ComplexBall((0.0,), 1.0), 1201, seed=0)
    cfg = solve_fekete(cloud, BasisSpec(1, 12), FubiniStudyWeight())
    ev = ProjectiveEvaluator(cfg, cloud)
    zs = np.array([[1.5 + 0j], [2.0 + 0j]])
    lo, up = ev.bounds(zs)
    assert np.all(up - lo <= ev.gap + 1e-12)
    # an engine of the sandwich's kind: its bounds minus rho, bit for bit
    sw = SandwichEvaluator(cfg, cloud)
    assert isinstance(ev, SandwichEvaluator)
    assert (ev.source, sw.source) == ("projective", "sandwich")
    lw, uw = sw.bounds(zs)
    rho = cfg.weight.evaluate(zs)
    assert lo.tobytes() == (lw - rho).tobytes()
    assert up.tobytes() == (uw - rho).tobytes()
    (single,), _ = ProjectiveEvaluator(cfg, cloud).bounds(1.5)
    assert lo[0] == pytest.approx(single, abs=1e-12)


# ---------------------------------------------------------------------------
# bounds in row blocks; each test pins one BLAS thread, as the CLI does
# ---------------------------------------------------------------------------

def _exterior(count, dim, seed=0):
    """count points of C^dim with norm in [1.2, 3]."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    return z * (rng.uniform(1.2, 3.0, count)
                / np.linalg.norm(z, axis=1))[:, None]


@pytest.fixture(scope="module")
def block_evaluators():
    """The unweighted, Fubini-Study and projective evaluators on a disc."""
    with _one_blas_thread():
        cloud = sample(ComplexBall((0.0,), 1.0), 801, seed=0)
        plain = solve_fekete(cloud, BasisSpec(1, 8))
        fs = solve_fekete(cloud, BasisSpec(1, 8), FubiniStudyWeight())
        return {"unweighted": SandwichEvaluator(plain, cloud),
                "fubini-study": SandwichEvaluator(fs, cloud),
                "projective": ProjectiveEvaluator(fs, cloud)}


@pytest.mark.parametrize("kind", ["unweighted", "fubini-study",
                                  "projective"])
@pytest.mark.parametrize("k", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                               2 * BLOCK_ROWS + 17])
def test_bounds_in_blocks_match_one_pass(block_evaluators, kind, k):
    ev = block_evaluators[kind]
    z = _exterior(k, 1)
    with _one_blas_thread():
        lower, upper = ev.bounds(z)
        # all rows in one block, as bounds took them before it had blocks
        whole = ev._block_bounds(z, 0)
        parts = [ev.bounds(z[s:s + BLOCK_ROWS])
                 for s in range(0, k, BLOCK_ROWS)]
    for got, one, blocks in zip((lower, upper), whole, zip(*parts)):
        assert got.tobytes() == one.tobytes()
        assert got.tobytes() == np.concatenate(blocks).tobytes()


def _block_bounds_by_expressions(ev, L, rho):
    """(lower, upper) of a block from its |l_j| values L, as _block_bounds
    computed them on a fresh array per step; rho is the Fubini-Study
    potential at the points for a projective evaluator, else None."""
    with np.errstate(divide="ignore"):
        logL = np.where(L > 0, np.log(np.maximum(L, 1e-300)), -np.inf)
    cand = ev.phi_nodes[None, :] + logL / ev.d
    best = np.max(cand, axis=1)
    raw_max = best - math.log(ev.gamma) / ev.d
    with np.errstate(divide="ignore"):
        logsum = np.log(np.sum(np.exp(ev.d * (cand - best[:, None])),
                               axis=1))
    raw_sum = np.where(np.isfinite(best),
                       best + (np.nan_to_num(logsum)
                               - math.log(ev.lebesgue)) / ev.d,
                       -np.inf)
    lower = np.maximum(np.maximum(raw_max, raw_sum), ev.phi_floor)
    upper = lower + ev.gap
    if rho is None:
        return lower, upper
    return lower - rho, upper - rho


@pytest.mark.parametrize("kind", ["unweighted", "fubini-study",
                                  "projective"])
@pytest.mark.parametrize("zeros", [False, True])
def test_block_bounds_in_place_equal_the_expression_chain(
        monkeypatch, block_evaluators, kind, zeros):
    """_block_bounds writes its chain of steps into one array, and gives
    the bits of a fresh array per step, in every block, the partial last
    one included.  With zeros, some Lagrange values are set to exactly 0
    (bracketed by -inf logs) or to below the 1e-300 floor, and one row is
    0 throughout."""
    ev = block_evaluators[kind]
    k = 2 * BLOCK_ROWS + 17
    z = _exterior(k, 1, seed=3)
    with _one_blas_thread():
        L = ev.lagrange_abs(z)
    if zeros:
        L[[5, BLOCK_ROWS + 1, k - 2], [0, 3, ev.N - 1]] = 0.0
        L[7, 2] = 1e-310
        L[k - 1] = 0.0
    starts = iter(range(0, k, BLOCK_ROWS))

    def prescribed(pts):
        start = next(starts)
        return L[start:start + len(pts)].copy()

    monkeypatch.setattr(ev, "lagrange_abs", prescribed)
    with _one_blas_thread(), np.errstate(invalid="ignore"):
        lower, upper = ev.bounds(z)
        parts = [_block_bounds_by_expressions(
            ev, L[s:s + BLOCK_ROWS],
            ev.config.weight.evaluate(z[s:s + BLOCK_ROWS])
            if kind == "projective" else None)
            for s in range(0, k, BLOCK_ROWS)]
    assert lower.tobytes() == np.concatenate([p[0] for p in parts]).tobytes()
    assert upper.tobytes() == np.concatenate([p[1] for p in parts]).tobytes()
    if zeros:
        assert np.isfinite(lower).all()


def test_bounds_overflow_names_the_first_far_point():
    cloud = sample(Interval(-1.0, 1.0), 401, seed=0)
    ev = SandwichEvaluator(solve_fekete(cloud, BasisSpec(1, 16)), cloud)
    z = np.full((2 * BLOCK_ROWS + 17, 1), 2.0 + 0j)
    z[[BLOCK_ROWS + 3, BLOCK_ROWS + 9, 2 * BLOCK_ROWS + 1]] = 1e25
    with pytest.raises(ValueError, match=f"query point {BLOCK_ROWS + 3}:"):
        ev.bounds(z)


def test_bounds_checks_the_point_dimension():
    # one coordinate against the C^2 basis: a scalar, and (k, 1) arrays,
    # which would broadcast against the basis centre
    cloud = sample(ComplexBall((0.0, 0.0), 1.0), 400, seed=0)
    ev = SandwichEvaluator(solve_fekete(cloud, BasisSpec(2, 3)), cloud)
    for z in (1.5, np.array([[1.5]]), np.full((3, 1), 1.5 + 0j)):
        with pytest.raises(DimensionMismatchError, match="dimension 1"):
            ev.bounds(z)


def test_bounds_memory_is_one_block_not_all_points():
    # C^2 ball at d=12: N = 91; 20 000 points in one block peaked at 70 MB
    with _one_blas_thread():
        cloud = sample(ComplexBall((0.0, 0.0), 1.0), 400, seed=0)
        ev = SandwichEvaluator(solve_fekete(cloud, BasisSpec(2, 12)), cloud)
        z = _exterior(20000, 2)
        tracemalloc.start()
        try:
            ev.bounds(z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # a few complex BLOCK_ROWS x N temporaries, plus the two outputs
    assert peak < 4 * 16 * BLOCK_ROWS * ev.N + 16 * len(z)
    assert peak < 16 * len(z) * ev.N


# ---------------------------------------------------------------------------
# relative extremal
# ---------------------------------------------------------------------------

def test_relative_field_ball_in_ball_oracle():
    E = ComplexBall((0.0,), 0.5)
    B = ComplexBall((0.0,), 1.0)
    f = relative_extremal_1c(E, B, grid_n=256)
    X, Y = np.meshgrid(f.xs, f.ys)
    r = np.abs(X + 1j * Y)
    oracle = np.clip(np.log(2 * np.maximum(r, 1e-12)) / math.log(2), 0, 1)
    err = np.max(np.abs(f.values - oracle)[~f.outer_mask])
    assert err <= 0.02
    assert np.all(f.values >= 0) and np.all(f.values <= 1)
    assert np.all(f.values[f.e_mask] == 0.0)


@pytest.mark.parametrize("E, grid_n", [
    (ComplexBall((0.0,), 0.5), 64),
    (ComplexBall((0.0,), 0.5), 128),
    (ComplexBall((0.0,), 0.3), 128),
    (ComplexBall((0.0,), 1.0), 64),
    (Union((ComplexBall((-0.4,), 0.2), ComplexBall((0.4,), 0.2))), 96),
    (Interval(-0.5, 0.5), 96),
])
def test_relative_field_e_mask_matches_per_cell(E, grid_n):
    """The one array membership call gives the mask of the per-cell calls,
    and for a disc E the mask of |z - c| <= r; the values solve the discrete
    5-point problem with 0 on E and 1 on and outside the circle."""
    B = ComplexBall((0.0,), 1.0)
    f = relative_extremal_1c(E, B, grid_n=grid_n)
    v = f.values
    assert np.all(v[f.e_mask] == 0.0) and np.all(v[f.outer_mask] == 1.0)
    assert np.all((v >= 0.0) & (v <= 1.0))
    i, j = np.nonzero(~(f.e_mask | f.outer_mask))
    nb = (v[i - 1, j] + v[i + 1, j] + v[i, j - 1] + v[i, j + 1]) / 4.0
    assert np.max(np.abs(nb - v[i, j]), initial=0.0) <= 1e-12
    assert f.residual <= 1e-12
    Z = (f.xs[None, :] + 1j * f.ys[:, None]).ravel()
    inside = ~f.outer_mask.ravel()
    ref = np.zeros(Z.shape, dtype=bool)
    ref[inside] = [contains(E, np.array([z])) for z in Z[inside]]
    assert np.array_equal(f.e_mask.ravel(), ref)
    if isinstance(E, ComplexBall):
        disc = (np.abs(Z - E.c[0]) <= E.radius) & inside
        assert np.array_equal(f.e_mask.ravel(), disc)


def test_relative_field_grid_border_is_outer():
    """Rounding puts the middle of a grid side just inside this disc; that
    cell still holds the boundary value 1."""
    B = ComplexBall((-1.2 - 0.46j,), 0.6)
    f = relative_extremal_1c(ComplexBall((-1.2 - 0.46j,), 0.2), B, grid_n=65)
    border = np.ones(f.values.shape, dtype=bool)
    border[1:-1, 1:-1] = False
    assert np.all(f.outer_mask[border])
    assert np.all(f.values[border] == 1.0)


# the factor options of relative_extremal_1c
_SPLU_OPTIONS = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0,
                 "panel_size": 1, "options": {"SymmetricMode": True}}


def _relative_reference(f, grid_n):
    """The system, right-hand side, field and residual of f's masks, with the
    5-point Laplacian of the whole grid sliced to the free cells."""
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    outer, free = f.outer_mask, ~(f.outer_mask | f.e_mask)
    v = np.where(outer, 1.0, 0.0)
    T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(grid_n, grid_n))
    L = sp.kronsum(T, T, format="csr")
    fr = free.ravel()
    rows = L[fr]
    A = rows[:, fr].tocsc()
    rhs = -(rows[:, ~fr] @ v[~free])
    v[free] = splu(A, **_SPLU_OPTIONS).solve(rhs)
    v = np.clip(v, 0.0, 1.0)
    nb = np.zeros_like(v)
    nb[1:-1, 1:-1] = 0.25 * (v[:-2, 1:-1] + v[2:, 1:-1] + v[1:-1, :-2]
                             + v[1:-1, 2:])
    return A, rhs, v, float(np.max(np.abs(np.where(free, nb - v, 0.0))))


def _same_bits(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("E, B, grid_n", [
    # the relative-field benchmark's three sets
    (ComplexBall((0.0,), 0.5), ComplexBall((0.0,), 1.0), 128),
    (Union((ComplexBall((-0.4,), 0.2), ComplexBall((0.4,), 0.2))),
     ComplexBall((0.0,), 1.0), 96),
    (Interval(-0.5, 0.5), ComplexBall((0.0,), 1.0), 96),
    # at grid 97 the interval lies on grid nodes
    (Interval(-0.5, 0.5), ComplexBall((0.0,), 1.0), 97),
    (ComplexBall((0.2 + 0.1j,), 0.3), ComplexBall((0.1 - 0.2j,), 1.7), 200),
    (ComplexBall((-1.2 - 0.46j,), 0.2), ComplexBall((-1.2 - 0.46j,), 0.6),
     65),
])
def test_relative_field_matches_whole_grid_system(E, B, grid_n, monkeypatch):
    """The system assembled on the free cells is the one sliced out of the
    whole grid's Laplacian: the same CSC arrays, right-hand side (zero signs
    included), factor options, field and residual, bit for bit."""
    import scipy.sparse.linalg as sla

    splu, seen = sla.splu, {}

    class Factor:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            seen["rhs"] = rhs.copy()
            return self.lu.solve(rhs)

    def spy(A, **options):
        seen["A"], seen["options"] = A.copy(), options
        return Factor(splu(A, **options))

    with _one_blas_thread():
        monkeypatch.setattr(sla, "splu", spy)
        f = relative_extremal_1c(E, B, grid_n=grid_n)
        monkeypatch.undo()
        A, rhs, values, residual = _relative_reference(f, grid_n)
    assert seen["options"] == _SPLU_OPTIONS
    assert seen["A"].format == "csc" and seen["A"].shape == A.shape
    for name in ("indptr", "indices", "data"):
        assert _same_bits(getattr(seen["A"], name), getattr(A, name)), name
    assert _same_bits(seen["rhs"], rhs)
    assert _same_bits(f.values, values)
    assert f.residual.hex() == residual.hex()


def test_relative_field_e_equals_b():
    B = ComplexBall((0.0,), 1.0)
    f = relative_extremal_1c(B, B, grid_n=64)
    assert np.all(f.values[~f.outer_mask] == 0.0)


def test_relative_field_monotone_in_e():
    B = ComplexBall((0.0,), 1.0)
    f_small = relative_extremal_1c(ComplexBall((0.0,), 0.3), B, grid_n=128)
    f_big = relative_extremal_1c(ComplexBall((0.0,), 0.5), B, grid_n=128)
    assert np.all(f_big.values <= f_small.values + 1e-6)


def test_relative_field_touching_boundary_error():
    B = ComplexBall((0.0,), 1.0)
    with pytest.raises(ValueError, match="touches the boundary"):
        relative_extremal_1c(ComplexBall((0.5,), 0.5), B, grid_n=128)


def test_relative_field_grid_guard():
    B = ComplexBall((0.0,), 1.0)
    with pytest.raises(ValueError, match="grid_n"):
        relative_extremal_1c(ComplexBall((0.0,), 0.5), B, grid_n=32)


# ---------------------------------------------------------------------------
# polynomial pullback
# ---------------------------------------------------------------------------

def test_composition_gap_square_map(interval_setup):
    cfg_e, cloud_e = interval_setup
    cloud_h = sample(Interval(0.0, 1.0), 2001, seed=0)
    cfg_h = solve_fekete(cloud_h, BasisSpec(1, 20))
    h = PolyMap([[0.0, 0.0, 1.0]])            # z -> z^2
    for w in (1.1, 1.2, 1.5):
        res = composition_gap(h, cfg_e, cloud_e, cfg_h, cloud_h, w)
        assert res.slack >= -res.tolerance
        # closed-form version of the same inequality is an equality here
        lhs = exact_extremal(Interval(0, 1), w ** 2)
        rhs = 2 * exact_extremal(Interval(-1, 1), w)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_composition_gap_identity(interval_setup):
    cfg, cloud = interval_setup
    h = PolyMap([[0.0, 1.0]])
    res = composition_gap(h, cfg, cloud, cfg, cloud, 1.3)
    assert abs(res.slack) <= res.tolerance + 1e-9


def test_composition_gap_requires_unweighted():
    cloud = sample(Interval(-1.0, 1.0), 1201, seed=0)
    cfg_w = solve_fekete(cloud, BasisSpec(1, 8), FubiniStudyWeight())
    h = PolyMap([[0.0, 1.0]])
    with pytest.raises(ValueError, match="unweighted"):
        composition_gap(h, cfg_w, cloud, cfg_w, cloud, 1.2)
