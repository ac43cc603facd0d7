"""Acceptance suite: twelve end-to-end criteria, one printed pass/fail line
each.  Run with `pytest -s tests/test_acceptance.py` to see the table."""

import json
import math
import os

import numpy as np
import pytest

from pllab.basis import BasisSpec
from pllab.cli import main as cli_main
from pllab.equidist import (Arcsine, Polynomial, _circle_cloud,
                            _interval_cloud, rate_experiment)
from pllab.extremal import (PolyMap, SandwichEvaluator, composition_gap,
                            relative_extremal_1c)
from pllab.fekete import (FubiniStudyWeight, FunctionWeight, solve_fekete,
                          transfinite_diameter)
from pllab.geometry import (ComplexBall, Cusp, Interval, exact_extremal,
                            halfdisc_harmonic_measure, sample)
from pllab.regularity import (ExactEngine, hcp_scan, localization_experiment,
                              modulus_fit)


def _report(num, label, ok):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"criterion {num} failed: {label}"


def test_criterion_01_closed_form_oracles():
    e1 = abs(exact_extremal(ComplexBall((0.0,), 1.0), 2.0) - math.log(2.0))
    e2 = abs(exact_extremal(Interval(-1.0, 1.0), 2.0)
             - math.log(2.0 + math.sqrt(3.0)))
    e3 = abs(halfdisc_harmonic_measure(1j) - 1.0)
    _report(1, "closed-form oracles exact to 1e-12",
            max(e1, e2, e3) < 1e-12)


def test_criterion_02_fekete_recovery():
    cloud = sample(Interval(-1.0, 1.0), 2001, seed=0)
    c2 = solve_fekete(cloud, BasisSpec(1, 2))
    n2 = np.sort(c2.nodes[:, 0].real)
    ok2 = np.max(np.abs(n2 - np.array([-1.0, 0.0, 1.0]))) < 2e-3
    c3 = solve_fekete(cloud, BasisSpec(1, 3))
    n3 = np.sort(c3.nodes[:, 0].real)
    ref3 = np.array([-1.0, -1 / math.sqrt(5), 1 / math.sqrt(5), 1.0])
    ok3 = np.max(np.abs(n3 - ref3)) < 2e-3
    _report(2, "Fekete nodes recovered at d=2,3 with gamma <= 1.01",
            ok2 and ok3 and c2.gamma <= 1.01 and c3.gamma <= 1.01)


def test_criterion_03_sandwich_brackets():
    target = 1.316958
    cloud_i = sample(Interval(-1.0, 1.0), 2001, seed=0)
    cfg_i = solve_fekete(cloud_i, BasisSpec(1, 20))
    (lo_i,), (up_i,) = SandwichEvaluator(cfg_i, cloud_i).bounds(2.0)
    ok_i = (lo_i <= target <= up_i and
            up_i - lo_i <= math.log(21 * cfg_i.gamma) / 20 + 1e-9)
    cloud_d = sample(ComplexBall((0.0,), 1.0), 2001, seed=0)
    cfg_d = solve_fekete(cloud_d, BasisSpec(1, 10))
    (lo_d,), (up_d,) = SandwichEvaluator(cfg_d, cloud_d).bounds(2.0)
    ok_d = lo_d <= math.log(2.0) <= up_d
    _report(3, "sandwich brackets at z=2 (interval d=20, disc d=10)",
            ok_i and ok_d)


def test_criterion_04_transfinite_diameter():
    degrees = [18, 22, 26, 30]
    iv = Interval(-1.0, 1.0)
    configs = [solve_fekete(_interval_cloud(iv, d, 2001, 0), BasisSpec(1, d))
               for d in degrees]
    cap_i = transfinite_diameter(configs)
    disc = ComplexBall((0.0,), 1.0)
    configs = [solve_fekete(_circle_cloud(disc, d, 2001, 0), BasisSpec(1, d))
               for d in degrees]
    cap_c = transfinite_diameter(configs)
    _report(4, f"transfinite diameter interval {cap_i:.4f} (0.5 +- 5%), "
               f"circle {cap_c:.4f} (1.0 +- 5%)",
            abs(cap_i - 0.5) <= 0.025 and abs(cap_c - 1.0) <= 0.05)


def test_criterion_05_holder_fits_exact_engine():
    grid = [0.1 * 0.7 ** k for k in range(12)]
    iv = Interval(-1.0, 1.0)
    mu_i = modulus_fit(iv, 1.0, grid, ExactEngine(iv)).mu_hat
    disc = ComplexBall((0.0,), 1.0)
    mu_d = modulus_fit(disc, 1.0, grid, ExactEngine(disc)).mu_hat
    _report(5, f"exact-engine fits: interval endpoint {mu_i:.3f}, "
               f"disc boundary {mu_d:.3f}",
            0.45 <= mu_i <= 0.55 and 0.95 <= mu_d <= 1.05)


def test_criterion_06_cusp_exponent():
    cusp = Cusp(((0.0, 1.0), (0.0,)), 0.5, 2)
    rep = hcp_scan(cusp, (0.0, 0.0), [0.5, 0.25],
                   [2.6 * 0.7 ** k for k in range(10)], 20, seed=11)
    mus = [m for m in rep.mu_per_radius if m is not None]
    ok = len(mus) == 2 and all(0.15 <= m <= 0.6 for m in mus)
    _report(6, "cusp vertex exponents " +
               ", ".join(f"{m:.3f}" for m in mus) + " in [0.15, 0.6]", ok)


def test_criterion_07_localization():
    disc = ComplexBall((0.0,), 1.0)
    res = localization_experiment(disc, 1.0, 0.3, 60, seed=5)
    ok = res.mu_difference is not None and res.mu_difference <= 0.15
    _report(7, f"localization exponent difference "
               f"{res.mu_difference if res.mu_difference is not None else 'n/a'}",
            ok)


def test_criterion_08_weighted_comparison():
    rng = np.random.default_rng(42)
    zs = (rng.uniform(-2, 2, 50) + 1j * rng.uniform(-2, 2, 50))[:, None]
    ok = True
    for spec, weight in (
            (Interval(-1.0, 1.0), FubiniStudyWeight()),
            (ComplexBall((0.0,), 1.0),
             FunctionWeight(lambda p: p[0].real / 4.0))):
        cloud = sample(spec, 2001, seed=0)
        b = BasisSpec(1, 12)
        cfg_u = solve_fekete(cloud, b)
        cfg_w = solve_fekete(cloud, b, weight)
        ev_u = SandwichEvaluator(cfg_u, cloud)
        ev_w = SandwichEvaluator(cfg_w, cloud)
        phi = weight.evaluate(cloud.points)
        comb = ev_u.gap + ev_w.gap
        lu, uu = ev_u.bounds(zs)
        lw, uw = ev_w.bounds(zs)
        ok &= bool(np.all(lw >= lu + phi.min() - comb - 1e-9))
        ok &= bool(np.all(uw <= uu + phi.max() + comb + 1e-9))
    _report(8, "weighted comparison invariant at 50 random z "
               "(interval and disc)", ok)


def test_criterion_09_pullback_inequality():
    cloud_e = sample(Interval(-1.0, 1.0), 2001, seed=0)
    cfg_e = solve_fekete(cloud_e, BasisSpec(1, 20))
    cloud_h = sample(Interval(0.0, 1.0), 2001, seed=0)
    cfg_h = solve_fekete(cloud_h, BasisSpec(1, 20))
    h = PolyMap([[0.0, 0.0, 1.0]])
    ok = True
    for w in (1.1, 1.2, 1.5):
        res = composition_gap(h, cfg_e, cloud_e, cfg_h, cloud_h, w)
        ok &= res.slack >= -res.tolerance
        lhs = exact_extremal(Interval(0.0, 1.0), w ** 2)
        rhs = 2 * exact_extremal(Interval(-1.0, 1.0), w)
        ok &= lhs <= rhs + 1e-10
        ok &= abs(lhs - rhs) <= 1e-10
    _report(9, "pullback inequality for h(z)=z^2 at w in {1.1, 1.2, 1.5}", ok)


def test_criterion_10_relative_extremal_comparison():
    E = ComplexBall((0.0,), 0.5)
    B = ComplexBall((0.0,), 1.0)
    f = relative_extremal_1c(E, B, grid_n=512)
    X, Y = np.meshgrid(f.xs, f.ys)
    r = np.abs(X + 1j * Y)
    oracle = np.clip(np.log(2 * np.maximum(r, 1e-12)) / math.log(2.0), 0, 1)
    err = float(np.max(np.abs(f.values - oracle)[~f.outer_mask]))
    cloud = sample(E, 2001, seed=0)
    cfg = solve_fekete(cloud, BasisSpec(1, 20))
    ev = SandwichEvaluator(cfg, cloud)
    mask = (f.values > 0.05) & ~f.outer_mask
    idx = np.argwhere(mask)[::7]
    pts = (X[idx[:, 0], idx[:, 1]] + 1j * Y[idx[:, 0], idx[:, 1]])[:, None]
    lo, _ = ev.bounds(pts)
    ratio = lo / f.values[idx[:, 0], idx[:, 1]]
    M_hat = float(np.max(ratio))
    m_hat = float(np.min(ratio))
    ok = err <= 0.01 and m_hat > 0 and M_hat / m_hat <= 10.0
    _report(10, f"relative field oracle error {err:.4f} <= 0.01, "
                f"M/m = {M_hat / m_hat:.2f} <= 10", ok)


def test_criterion_11_equidistribution_rate():
    fit = rate_experiment(Interval(-1.0, 1.0), Polynomial([0, 0, 1]),
                          [2, 4, 8, 16], Arcsine(-1.0, 1.0),
                          alpha_prime=0.5, seed=0)
    ok = (abs(fit.errors[0] - 1.0 / 6.0) < 1e-6 and
          abs(fit.errors[1] - 1.0 / 14.0) < 1e-6 and
          fit.monotone and fit.slope <= -0.8 and fit.errors[-1] <= 0.05)
    _report(11, f"rate errors {['%.4f' % e for e in fit.errors]}, "
                f"slope {fit.slope:.2f}", ok)


def test_criterion_12_determinism(tmp_path):
    man = {"command": "fekete",
           "spec": {"kind": "Interval", "a": -1.0, "b": 1.0},
           "degrees": [3, 5], "cloud_target": 801}
    mp = tmp_path / "man.json"
    mp.write_text(json.dumps(man))
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    cache = str(tmp_path / "cache")
    r1 = cli_main(["--manifest", str(mp), "--out", out1, "--cache", cache])
    r2 = cli_main(["--manifest", str(mp), "--out", out2, "--cache", cache])
    ok = r1 == 0 and r2 == 0
    for name in sorted(os.listdir(out1)):
        with open(os.path.join(out1, name), "rb") as f1, \
                open(os.path.join(out2, name), "rb") as f2:
            ok &= f1.read() == f2.read()
    _report(12, "manifest rerun is byte-identical", ok)
