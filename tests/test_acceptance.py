"""End-to-end acceptance gate.

Each test covers one numbered guarantee and prints a single pass/fail
line (visible with `pytest -s` or in captured output on failure).
"""

import numpy as np
import pytest

import curvecharts as cc
from curvecharts import shapes
from curvecharts.curve import interp_curve
from curvecharts.solver import TRACE_SLACK
from curvecharts.symmetry import Isometry


def report(num, name, ok):
    print(f"[{num:02d}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def random_section(c, rng, sup):
    th = cc.fourier.nodes(c.center.P)
    coeff = np.zeros((c.P, c.rank))
    for a in range(c.rank):
        for k in range(5):
            coeff[:, a] += rng.uniform(-1, 1) * np.cos(k * th + rng.uniform(0, 2 * np.pi))
    m = np.max(np.abs(coeff))
    if m > 0:
        coeff *= sup / m
    return cc.NormalSection(coeff)


def test_01_invariance_under_reparameterization():
    funcs = [cc.parse_functional(n) for n in ("length", "area", "bend")]
    worst = 0.0
    for seed in range(20):
        x = shapes.random_band_limited(256, seed=seed)
        y = cc.resample(x, cc.make_diffeo(1000 + seed, 0.3, 256))
        for F in funcs:
            a, b = cc.evaluate(F, x), cc.evaluate(F, y)
            worst = max(worst, abs(a - b) / max(1e-30, abs(a)))
    report(1, f"functional invariance (worst rel change {worst:.2e})", worst <= 1e-8)


def test_02_chart_round_trips():
    rng = np.random.default_rng(2)
    c = cc.make_chart(shapes.perturbed_circle(128, amplitude=0.06, seed=0))
    worst_u = 0.0
    for _ in range(20):
        u = random_section(c, rng, 0.49 * c.rho)
        u2, _ = cc.chart_invert(c, cc.chart_apply(c, u))
        worst_u = max(worst_u, np.max(np.abs(u2.coeff - u.coeff)))
    worst_d = 0.0
    for _ in range(20):
        u = random_section(c, rng, 0.3 * c.rho)
        y = cc.resample(cc.chart_apply(c, u), cc.make_diffeo(int(rng.integers(1 << 30)), 0.25, 128))
        u2, _ = cc.chart_invert(c, y)
        worst_d = max(worst_d, cc.image_distance(cc.chart_apply(c, u2), y))
    report(2, f"chart round trips (section {worst_u:.2e}, image {worst_d:.2e})",
           worst_u <= 1e-8 and worst_d <= 1e-6)


def test_03_transition_formula():
    rng = np.random.default_rng(3)
    worst_pt = worst_rt = 0.0
    for j in range(10):
        a = 1.0 + 0.06 * rng.uniform(-1, 1)
        b = 1.0 + 0.06 * rng.uniform(-1, 1)
        c1 = cc.make_chart(shapes.circle(96, radius=1.0 + 0.03 * rng.uniform(-1, 1)))
        c2 = cc.make_chart(shapes.ellipse(96, a=a, b=b))
        u = random_section(c1, rng, 0.04)
        y = cc.chart_apply(c1, u)
        u2, sigma = cc.chart_invert(c2, y)
        res = interp_curve(y, sigma.lift) - cc.chart_apply(c2, u2).pts
        worst_pt = max(worst_pt, np.max(np.linalg.norm(res, axis=1)))
        u3, _ = cc.transition(c2, c1, u2)
        worst_rt = max(worst_rt, np.max(np.abs(u3.coeff - u.coeff)))
    report(3, f"transition formula (pointwise {worst_pt:.2e}, double {worst_rt:.2e})",
           worst_pt <= 1e-6 and worst_rt <= 1e-6)


def test_04_tangent_lemma():
    rng = np.random.default_rng(4)
    x = shapes.perturbed_circle(96, amplitude=0.05, seed=1)
    c = cc.make_chart(x)
    th = cc.fourier.nodes(x.P)
    worst_order, worst_err = np.inf, 0.0
    for _ in range(10):
        V = np.zeros((96, 2))
        for k in range(4):
            for d in range(2):
                aa, bb = rng.uniform(-1, 1, 2)
                V[:, d] += 0.01 * (aa * np.cos(k * th) + bb * np.sin(k * th))
        pn = cc.project_normal(c, V)
        errs = []
        for r in (1e-2, 2.5e-3):
            up, _ = cc.chart_invert(c, cc.Embedding(x.space, x.pts + r * V))
            um, _ = cc.chart_invert(c, cc.Embedding(x.space, x.pts - r * V))
            errs.append(np.max(np.abs((up.coeff - um.coeff) / (2 * r) - pn.coeff)))
        order = np.log(errs[0] / max(errs[1], 1e-300)) / np.log(4.0)
        worst_order = min(worst_order, order)
        worst_err = max(worst_err, errs[1] / np.max(np.abs(V)))
    report(4, f"tangent lemma (order {worst_order:.2f}, rel err {worst_err:.2e})",
           worst_order >= 1.0 and worst_err <= 1e-4)


def test_05_criticality_chart_independent():
    circ = cc.parse_functional("length-1.0*area")
    half = cc.parse_functional("length-0.5*area")
    length = cc.parse_functional("length")

    def charts_for(x, nearby):
        c1 = cc.make_chart(x)
        c2 = cc.make_chart(nearby)
        u2, _ = cc.chart_invert(c2, x)
        return (c1, cc.NormalSection.zero(x.P, c1.rank)), (c2, u2)

    critical = [
        (circ, charts_for(shapes.circle(96), shapes.ellipse(96, a=1.02, b=0.99))),
        (half, charts_for(shapes.circle(96, radius=2.0), shapes.circle(96, radius=2.04))),
        (length, charts_for(shapes.torus_geodesic(64, (1, 0)),
                            shapes.torus_geodesic(64, (1, 0), wiggle=0.01, seed=1))),
        (length, charts_for(shapes.torus_geodesic(64, (0, 1)),
                            shapes.torus_geodesic(64, (0, 1), offset=0.01))),
        (length, charts_for(shapes.great_circle(96), shapes.great_circle(96))),
    ]
    noncritical = [
        (length, charts_for(shapes.circle(96), shapes.ellipse(96, a=1.02, b=0.99))),
        (circ, charts_for(shapes.circle(96, radius=1.2), shapes.circle(96, radius=1.25))),
        (circ, charts_for(shapes.ellipse(96, a=1.2, b=0.9), shapes.ellipse(96, a=1.22, b=0.9))),
        (length, charts_for(shapes.torus_geodesic(64, (1, 0), wiggle=0.05, seed=2),
                            shapes.torus_geodesic(64, (1, 0), wiggle=0.04, seed=2))),
        (cc.parse_functional("bend"), charts_for(shapes.circle(96),
                                                 shapes.circle(96, radius=1.02))),
    ]
    ok = True
    for F, ((c1, u1), (c2, u2)) in critical:
        ok = ok and cc.is_critical(F, c1, u1, 1e-6) and cc.is_critical(F, c2, u2, 1e-6)
    for F, ((c1, u1), (c2, u2)) in noncritical:
        ok = ok and not cc.is_critical(F, c1, u1, 1e-6) and not cc.is_critical(F, c2, u2, 1e-6)
    report(5, "criticality agrees across charts (5 critical, 5 non-critical)", ok)


def test_06_critical_circles():
    F = cc.parse_functional("length-1.0*area")
    c = cc.make_chart(shapes.circle(128))
    g = cc.grad_norm(c, cc.gradient_in_chart(F, c, cc.NormalSection.zero(128, 1)))
    x0 = shapes.perturbed_circle(128, amplitude=0.1, seed=6)
    opts = cc.SolveOptions(max_iter=3000, grad_tol=1e-10, newton=True,
                           newton_threshold=0.05)
    ch, u, trace = cc.minimize(F, x0, opts)
    kerr = np.max(np.abs(cc.curvature(cc.chart_apply(ch, u)) - 1.0))
    report(6, f"critical circle (gradient {g:.2e}, curvature error {kerr:.2e})",
           g <= 1e-8 and trace.converged and kerr <= 1e-6)


def test_07_torus_geodesics():
    F = cc.parse_functional("length")
    ok = True
    worst = 0.0
    for seed in range(5):
        x = shapes.torus_geodesic(64, (1, 0), wiggle=0.08, seed=seed)
        c, u, trace = cc.minimize(F, x, cc.SolveOptions(max_iter=2000))
        f = trace.f_values
        mono = np.all(f[1:] <= f[:-1] + TRACE_SLACK * np.maximum(1.0, np.abs(f[:-1])))
        err = abs(cc.length(cc.chart_apply(c, u)) - 1.0)
        worst = max(worst, err)
        ok = ok and trace.converged and mono and err <= 1e-5
    report(7, f"torus geodesics, 5 seeds (worst length error {worst:.2e})", ok)


def test_08_spectra():
    gc = cc.spectrum(cc.parse_functional("length"), cc.make_chart(shapes.great_circle(96)), 5)
    tg = cc.spectrum(cc.parse_functional("length"),
                     cc.make_chart(shapes.torus_geodesic(64, (1, 0))), 3)
    ok_gc = np.allclose(gc, [-1, 0, 0, 3, 3], atol=1e-3)
    ok_tg = np.allclose(tg, [0, 4 * np.pi**2, 4 * np.pi**2], atol=1e-2)
    index, nullity = int(np.sum(gc < -1e-3)), int(np.sum(np.abs(gc) <= 1e-3))
    report(8, f"spectra (great circle index {index}, nullity {nullity})",
           ok_gc and ok_tg and index == 1 and nullity == 2)


def test_09_restriction_property():
    cases = [
        (cc.parse_functional("length"), cc.make_chart(shapes.great_circle(96))),
        (cc.parse_functional("length"), cc.make_chart(shapes.torus_geodesic(64, (1, 0)))),
        (cc.parse_functional("length-1.0*area"), cc.make_chart(shapes.circle(96))),
    ]
    worst = 0.0
    for F, c in cases:
        Q = cc.hessian_in_chart(F, c)
        Qf = cc.hessian_full(F, c)
        R = cc.restriction_matrix(c)
        worst = max(worst, np.max(np.abs(R.T @ Qf @ R - Q)) / np.max(np.abs(Q)))
    report(9, f"second variation restricts (worst rel residual {worst:.2e})", worst <= 1e-6)


def test_10_orbit_ranks():
    cases = [
        (cc.make_chart(shapes.circle(96)), cc.parse_functional("length-1.0*area"), (2, 1)),
        (cc.make_chart(shapes.great_circle(96)), cc.parse_functional("length"), (2, 1)),
        (cc.make_chart(shapes.torus_geodesic(64, (1, 0))), cc.parse_functional("length"), (1, 1)),
    ]
    ok = True
    worst = 0.0
    for c, F, want in cases:
        basis = cc.standard_killing_basis(c.center.space)
        ok = ok and cc.orbit_rank(c, basis) == want
        Q = cc.hessian_in_chart(F, c)
        D = cc.orbit_differential(c, basis)
        sqw = np.sqrt(cc.quadrature_weights(c.center))
        qn = np.linalg.norm(Q, 2)
        for j in range(D.shape[1]):
            v = D[:, j].reshape(c.P, c.rank) / sqw[:, None]
            n = np.linalg.norm(v)
            if n < 1e-12:
                continue
            worst = max(worst, np.linalg.norm(Q @ v.ravel()) / (qn * n))
    report(10, f"orbit ranks and kernel containment (worst {worst:.2e})",
           ok and worst <= 1e-6)


def test_11_action_continuity_probe():
    c = cc.make_chart(shapes.circle(96))
    fam_t = lambda t: Isometry(c.center.space, translation=np.array([t, 0.0]))
    probe = cc.action_continuity_probe(c, fam_t, 0.3, 12)
    ts = np.linspace(0.0, 0.3, 13)
    trans_err = np.max(np.abs(probe - ts))

    def rot2(a):
        return np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])

    fam_r = lambda t: Isometry(c.center.space, rotation=rot2(t))
    stab = np.max(cc.action_continuity_probe(c, fam_r, 2.0, 12))
    report(11, f"action continuity (translation error {trans_err:.2e}, stabilizer {stab:.2e})",
           trans_err <= 1e-6 and stab <= 1e-8)
