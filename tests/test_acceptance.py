"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
reports.  The constant-data checks rest on the independent scalar oracle in
scalar_oracle.py; the octagon checks are property-based (residuals,
eigenvalue signs, identity defects) since no closed forms exist there.
"""

import math
import time

import numpy as np
import pytest

from minlag.continuation import (branch_point, detect_fold,
                                 nonexistence_bound, trace_curve)
from minlag.cubic import constant_cubic, synthetic_cubic
from minlag.frame import integrate_frame
from minlag.mpass import (THETA, find_mountain_pass, functional_gradient,
                          functional_value)
from minlag.pde import newton_solve
from minlag.surface import build_flat_torus, build_genus2_octagon
from minlag.wp import area_record, d_operator

from conftest import octagon_zero_classes
from reference import (F1, F2, f1, f2, legendre_pair,
                       norm_equivalence_constants,
                       poincare_trivial_coefficients, second_fundamental_form)
from scalar_oracle import U_FOLD, fold_t, scalar_roots

TOL = 1e-11


class Context:
    """Everything the criteria share, computed once."""

    def __init__(self):
        self.torus = build_flat_torus(16, 1.0, 1.0)
        self.torus32 = build_flat_torus(32, 1.0, 1.0)
        self.octagon = build_genus2_octagon(2)
        self.octagon3 = build_genus2_octagon(3)
        self.unit_cubic = constant_cubic(self.torus, 1.0)
        self.oct_cubic = synthetic_cubic(
            self.octagon, octagon_zero_classes(self.octagon), 1.0)
        self.oct3_cubic = synthetic_cubic(
            self.octagon3, octagon_zero_classes(self.octagon3), 1.0)
        self.solved_fields = []        # (surface label, u of a solve)

        # constant-data folds for c in {0.5, 1, 2}
        self.fold_runs = {}
        for c in (0.5, 1.0, 2.0):
            q = constant_cubic(self.torus, c)
            start = time.perf_counter()
            curve = trace_curve(q, tol=TOL)
            fold, _ = detect_fold(curve, tol=TOL)
            elapsed = time.perf_counter() - start
            self.fold_runs[c] = (fold, fold.t, elapsed, q)
            self.solved_fields += [("torus", p.u)
                                   for p in (*curve.points, fold)]
            # the branch at tenths of T0, each solved from u = 0: the trace
            # itself reaches the fold in two points
            self.solved_fields += [("torus", branch_point(q, frac * fold.t,
                                                          TOL))
                                   for frac in np.arange(1, 10) / 10]

        # octagon branch and fold
        curve = trace_curve(self.oct_cubic, tol=1e-10)
        oct_fold = detect_fold(curve, tol=1e-10)[0]
        self.oct_T0 = oct_fold.t
        self.oct_curve = curve
        self.solved_fields += [("octagon", p.u)
                               for p in (*curve.points, oct_fold)]
        # the octagon branch at tenths of T0, each solved from u = 0
        for frac in np.arange(1, 10) / 10:
            self.solved_fields.append(("octagon", newton_solve(
                np.zeros(self.octagon.n_classes), frac * self.oct_T0,
                self.oct_cubic, tol=TOL).u))

        # mountain-pass runs
        start = time.perf_counter()
        self.mpass_torus = {}
        for t in (0.05, 0.10, 0.13, 0.135):
            stable = newton_solve(np.zeros(self.torus.n_classes), t,
                                  self.unit_cubic, tol=TOL)
            p2 = find_mountain_pass(stable.u, t, self.unit_cubic, tol=TOL)
            self.mpass_torus[t] = (stable, p2)
            self.solved_fields += [("torus", stable.u), ("torus", p2.u)]
        self.mpass_octagon = {}
        for frac in (0.35, 0.55, 0.75):
            t = frac * self.oct_T0
            warm = self.oct_curve.points[0]
            for p in self.oct_curve.points:
                if p.t <= t:
                    warm = p
            stable = newton_solve(warm.u, t, self.oct_cubic, tol=TOL)
            p2 = find_mountain_pass(stable.u, t, self.oct_cubic, tol=TOL)
            self.mpass_octagon[t] = (stable, p2)
            self.solved_fields += [("octagon", stable.u),
                                   ("octagon", p2.u)]
        self.mpass_elapsed = time.perf_counter() - start


@pytest.fixture(scope="module")
def ctx():
    return Context()


def test_criterion_1_trivial_solution(ctx):
    start = time.perf_counter()
    p_torus = newton_solve(np.zeros(ctx.torus32.n_classes), 0.0,
                           constant_cubic(ctx.torus32, 1.0), tol=TOL)
    p_oct = newton_solve(np.zeros(ctx.octagon.n_classes), 0.0, ctx.oct_cubic,
                         tol=TOL)
    elapsed = time.perf_counter() - start
    assert np.abs(p_torus.u).max() <= 1e-10
    assert np.abs(p_oct.u).max() <= 1e-10
    assert p_torus.lambda_min >= 2.0 - 1e-6
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: trivial solves, |u| <= 1e-10, torus "
          f"lambda_min = {p_torus.lambda_min:.9f}, runtime {elapsed:.2f} s")


def test_criterion_2_constant_data_fold(ctx):
    for c, (fold, t0, elapsed, _) in ctx.fold_runs.items():
        expect = fold_t(c)
        assert t0 == pytest.approx(expect, rel=1e-3), f"c = {c}"
        assert np.abs(fold.u - U_FOLD).max() <= 1e-3
        assert elapsed < 30.0
    print("PASS criterion 2: fold T0 within 1e-3 of 1/(c sqrt(54)) and "
          "fold u within 1e-3 of ln(2/3) for c in {0.5, 1, 2}; "
          + ", ".join(f"c={c}: {v[1]:.6f} ({v[2]:.1f} s)"
                      for c, v in ctx.fold_runs.items()))


def test_criterion_3_nonexistence_bound(ctx):
    margin = 1e-6
    checks = []
    for c, (_, t0, _, q) in ctx.fold_runs.items():
        bound = nonexistence_bound(q)
        assert t0 < bound - margin
        checks.append((f"torus c={c}", t0, bound))
    bound = nonexistence_bound(ctx.oct_cubic)
    assert ctx.oct_T0 < bound - margin
    checks.append(("octagon", ctx.oct_T0, bound))
    t_unit, bound_unit = checks[1][1], checks[1][2]
    assert bound_unit == pytest.approx(0.35355339, abs=1e-6)
    assert t_unit == pytest.approx(0.13608276, abs=1e-6)
    print("PASS criterion 3: T0 < T strictly on all configurations; "
          + ", ".join(f"{n}: T0={a:.4f} < T={b:.4f}" for n, a, b in checks))


def test_criterion_4_maximum_principle(ctx):
    fields = ctx.solved_fields
    assert len(fields) >= 50
    worst = max(u.max() for _, u in fields)
    assert worst <= 1e-8
    print(f"PASS criterion 4: max u = {worst:.2e} <= 1e-8 over "
          f"{len(fields)} converged solves")


def test_criterion_5_two_solutions(ctx):
    assert ctx.mpass_elapsed < 300.0
    seps = {}
    for t in (0.05, 0.10, 0.13):
        _, p2 = ctx.mpass_torus[t]
        lower, _ = scalar_roots(16.0 * t * t)
        assert np.abs(p2.u - lower).max() <= 1e-4, f"t = {t}"
        seps[t] = p2.meta["vnorm_separation"]
    seps[0.135] = ctx.mpass_torus[0.135][1].meta["vnorm_separation"]
    assert seps[0.05] > 0.1
    assert seps[0.10] > seps[0.13] > seps[0.135]   # shrinks toward the fold
    for t, (_, p2) in ctx.mpass_octagon.items():
        assert p2.residual_norm <= 1e-8
        assert p2.lambda_min <= 1e-4
    print(f"PASS criterion 5: torus u2 matches the scalar lower root to "
          f"1e-4 at t in (0.05, 0.10, 0.13); separations "
          + ", ".join(f"{t}: {s:.3f}" for t, s in sorted(seps.items()))
          + f"; octagon second solutions at 3 t values; "
          f"runtime {ctx.mpass_elapsed:.0f} s")


def test_criterion_6_equivalence(ctx):
    m_t = ctx.torus.mass_diag
    m_o = ctx.octagon.mass_diag
    for label, (stable, p2) in {**ctx.mpass_torus, **ctx.mpass_octagon}.items():
        assert p2.u.max() <= 1e-8
        assert p2.residual_norm <= 10.0 * TOL
    checked = 0
    for t, (stable, _) in ctx.mpass_torus.items():
        g = functional_gradient(stable.u, t, ctx.unit_cubic)
        assert math.sqrt(float(m_t @ g ** 2)) <= 10.0 * TOL
        checked += 1
    for t, (stable, _) in ctx.mpass_octagon.items():
        g = functional_gradient(stable.u, t, ctx.oct_cubic)
        assert math.sqrt(float(m_o @ g ** 2)) <= 10.0 * TOL
        checked += 1
    print(f"PASS criterion 6: mountain-pass points satisfy u <= 1e-8 and "
          f"residual <= 10 tol; {checked} stable points have |grad F| <= 10 tol")


def test_criterion_7_wp_identities(ctx):
    p0 = newton_solve(np.zeros(ctx.octagon3.n_classes), 0.0, ctx.oct3_cubic,
                      tol=TOL)
    m3 = ctx.octagon3.mass_diag
    area0 = -float(m3 @ np.exp(p0.u))
    assert area0 == pytest.approx(-4.0 * math.pi, rel=0.02)

    fd1 = area_record(ctx.unit_cubic, 1e-4, tol=1e-13).fd1
    assert abs(fd1) <= 1e-3

    rec = area_record(ctx.unit_cubic, 0.01)
    rel = rec.rel_err
    assert rec.exact_second == pytest.approx(16.0, rel=1e-12)
    assert rel <= 0.02
    rel_o = area_record(ctx.oct_cubic, 0.5).rel_err
    assert rel_o <= 0.05

    rng = np.random.default_rng(0)
    for s in (ctx.torus, ctx.octagon):
        m = s.mass_diag
        assert np.abs(d_operator(s, np.ones(s.n_classes)) - 1.0).max() <= 1e-12
        for _ in range(20):
            f, g = rng.standard_normal((2, s.n_classes))
            df, dg = d_operator(s, f), d_operator(s, g)
            assert float(m @ (df * g)) == pytest.approx(float(m @ (f * dg)),
                                                        rel=1e-12, abs=1e-12)
            assert float(m @ (df * f)) > 0.0
    print(f"PASS criterion 7: octagon area(0) = {area0:.5f} vs -4pi "
          f"({abs(area0 + 4 * math.pi) / (4 * math.pi):.2%}); "
          f"fd1 = {fd1:.1e}; fd2 torus rel {rel:.1e}, octagon rel "
          f"{rel_o:.1e}; D(1) = 1 and D self-adjoint/positive to 1e-12")


def test_criterion_8_frame_fidelity(ctx):
    coeffs = poincare_trivial_coefficients()
    r = math.tanh(0.5)                      # hyperbolic length 1
    sheet = integrate_frame(coeffs, [0.0, r], step=0.005)
    assert sheet.defects[:, 0].max() <= 1e-8
    assert sheet.defects[:, 1].max() <= 1e-8

    defects = [integrate_frame(coeffs, [0.0, r], step=r / n).defects[-1, 0]
               for n in (25, 50, 100)]
    orders = [math.log2(defects[i] / defects[i + 1]) for i in range(2)]
    assert min(orders) >= 3.5

    loop = [0.0, 0.3, 0.3 + 0.3j, 0.3j, 0.0]
    hols = [np.abs(integrate_frame(coeffs, loop, step=h).frames[-1]
                   - np.eye(3)).max() for h in (0.02, 0.01)]
    loop_order = math.log2(hols[0] / hols[1])
    assert loop_order >= 3.5

    rng = np.random.default_rng(1)
    for _ in range(10000):
        II = second_fundamental_form(rng.uniform(0.1, 5.0),
                                     complex(*rng.standard_normal(2)))
        assert np.all(II[0] + II[2] == 0.0)
    print(f"PASS criterion 8: unit-length defects "
          f"{sheet.defects[:, 0].max():.2e}; step-halving orders {orders[0]:.2f}, "
          f"{orders[1]:.2f}; loop-holonomy order {loop_order:.2f}; II "
          f"trace-free exact on 10^4 samples")


def test_criterion_9_inequality_suite(ctx):
    rng = np.random.default_rng(42)
    a = 1.0 + rng.uniform(0.0, 1e6, 10000)
    b = rng.uniform(0.0, 1e3, 10000)
    for ai, bi in zip(a, b):
        h, hstar = legendre_pair(ai, bi)
        assert ai * bi <= (h + hstar) * (1.0 + 1e-12)

    s = np.linspace(-50.0, 50.0, 10001)
    consts = []
    for f, F in ((f1, F1), (f2, F2)):
        c = (F(s) - (s / THETA) * f(s)).max()
        assert np.isfinite(c)
        consts.append(c)

    vals = [functional_value(np.full(ctx.torus.n_classes, k), 0.1,
                             ctx.unit_cubic) for k in (-10.0, -20.0, -40.0)]
    assert vals[0] > vals[1] > vals[2]

    lo, hi = norm_equivalence_constants(0.1, ctx.unit_cubic)
    assert 0.0 < lo <= hi < math.inf
    print(f"PASS criterion 9: Legendre inequality on 10^4 samples; growth "
          f"constants C1 = {consts[0]:.4g}, C2 = {consts[1]:.4g}; F(k) "
          f"decreasing at k = -10, -20, -40 ({vals[0]:.3g} > {vals[1]:.3g} > "
          f"{vals[2]:.3g}); norm-equivalence constants [{lo:.4g}, {hi:.4g}]")
