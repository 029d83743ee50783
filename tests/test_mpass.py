import math

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.integrate import quad

from minlag.continuation import branch_point, detect_fold, trace_curve
from minlag import mpass
from minlag.mpass import (F1, F2, DegenerateNorm, PathCollapse,
                          find_mountain_pass, functional_gradient,
                          functional_value, v_gram)
from minlag.pde import NonConvergence, linearize, newton_solve, v_field
from minlag.cubic import constant_cubic, norm_field
from minlag.surface import ShiftedLU, integrate

from reference import norm_equivalence_constants
from scalar_oracle import U_FOLD, fold_t, scalar_roots
from test_pde import LOWER_ROOT


# ---------------------------------------------------------------------------
# cutoff functions


def test_cutoff_closed_form_regions():
    assert mpass.f1(-1.0) == pytest.approx(2.0 - 2.0 * math.exp(-1.0))
    assert mpass.f1(2.0) == pytest.approx(-12.0)       # -theta s^(theta-1)
    assert mpass.F1(2.0) == pytest.approx(-8.0)        # -s^theta
    assert mpass.f2(-2.0) == pytest.approx(-2.0 - math.exp(4.0))
    assert mpass.F2(3.0) == 0.0
    # a field with no positive entry takes the closed form whole; it must
    # match bit for bit what the three-branch path gives the same entries
    rng = np.random.default_rng(1)
    fields = (np.linspace(-30.0, 0.0, 101), -rng.exponential(2.0, 510),
              np.array([-0.0, -1e-300]), np.empty(0))
    for fn in (mpass.f1, mpass.f2, mpass.F1, mpass.F2):
        for s in fields:
            mixed = fn(np.append(s, 0.5))[:-1]
            assert fn(s).tobytes() == mixed.tobytes()


def test_cutoff_nan_propagates():
    s = np.array([np.nan, -1.0, 0.5, 2.0])
    for fn in (mpass.f1, mpass.f2, mpass.F1, mpass.F2):
        out = fn(s)
        assert np.isnan(out[0])
        assert out[1:].tolist() == [fn(v) for v in s[1:]]
        assert math.isnan(fn(float("nan")))


def test_cutoff_continuity():
    for fn in (mpass.f1, mpass.f2, mpass.F1, mpass.F2):
        for s0 in (0.0, 1.0):
            left = fn(s0 - 1e-10)
            right = fn(s0 + 1e-10)
            assert left == pytest.approx(right, abs=1e-7), f"{fn} jumps at {s0}"


def test_cutoff_f1_additive_constant():
    # F1(0-) = 2*0 - 2 + 2 = 0 by the additive constant in the formula
    assert mpass.F1(0.0) == 0.0
    assert mpass.F1(-1e-14) == pytest.approx(0.0, abs=1e-13)


def test_cutoff_sign_conditions():
    s = np.linspace(1e-6, 50.0, 20001)
    assert np.all(mpass.f1(s) < 0.0), "f1 must be negative for s > 0"
    inside = np.linspace(1e-6, 1.0 - 1e-6, 10001)
    assert np.all(mpass.f2(inside) < 0.0), "f2 must be negative on (0,1)"
    everywhere = np.linspace(-30.0, 30.0, 10001)
    assert np.all(mpass.f2(everywhere) <= np.minimum(0.0, everywhere) + 1e-12)


def test_cutoff_antiderivatives():
    rng = np.random.default_rng(2)
    for f, F in ((mpass.f1, mpass.F1), (mpass.f2, mpass.F2)):
        for _ in range(10):
            a, b = sorted(rng.uniform(-3.0, 3.0, 2))
            val, err = quad(f, a, b, points=[0.0, 1.0], limit=200,
                            epsabs=1e-13, epsrel=1e-13)
            assert F(b) - F(a) == pytest.approx(val, abs=1e-10)


def test_growth_inequality_constant():
    # F_j(s) <= (s/theta) f_j(s) + C with a finite constant over [-50, 50]
    s = np.linspace(-50.0, 50.0, 10001)
    for f, F, name in ((mpass.f1, mpass.F1, "f1"),
                       (mpass.f2, mpass.F2, "f2")):
        gap = F(s) - (s / mpass.THETA) * f(s)
        c = gap.max()
        assert np.isfinite(c)
        print(f"growth-inequality constant for {name}: C = {c:.6g}")


# ---------------------------------------------------------------------------
# functional and norms


def test_functional_at_zero(torus16, unit_cubic):
    t = 0.1
    V = 16.0 * t * t * norm_field(unit_cubic) ** 2
    expect = -0.5 * integrate(torus16, V)
    assert functional_value(np.zeros(torus16.n_classes), t,
                            unit_cubic) == pytest.approx(expect)


def test_functional_diverges_down_constants(torus16, unit_cubic):
    t = 0.1
    vals = [functional_value(np.full(torus16.n_classes, k), t, unit_cubic)
            for k in (-10.0, -20.0, -40.0)]
    assert vals[0] > vals[1] > vals[2]


def test_gradient_zero_at_origin_when_t_zero(torus16, unit_cubic):
    g = functional_gradient(np.zeros(torus16.n_classes), 0.0, unit_cubic)
    assert np.abs(g).max() <= 1e-14


def test_gradient_matches_finite_difference(torus16, unit_cubic):
    rng = np.random.default_rng(9)
    m = torus16.mass_diag
    eps = 1e-6
    for _ in range(10):
        u = rng.uniform(-1.5, 0.5, torus16.n_classes)
        v = rng.standard_normal(torus16.n_classes)
        t = rng.uniform(0.01, 0.13)
        g = functional_gradient(u, t, unit_cubic)
        pair = float(m @ (g * v))
        fd = (functional_value(u + eps * v, t, unit_cubic)
              - functional_value(u - eps * v, t, unit_cubic)) / (2.0 * eps)
        assert fd == pytest.approx(pair, rel=1e-5, abs=1e-8)


def test_stable_branch_is_critical(torus16, unit_cubic):
    # Newton solutions of the structure equation are critical points of F
    tol = 1e-11
    m = torus16.mass_diag
    p = newton_solve(np.zeros(torus16.n_classes), 0.1, unit_cubic, tol=tol)
    g = functional_gradient(p.u, p.t, unit_cubic)
    assert math.sqrt(float(m @ g ** 2)) <= 10.0 * tol


def v_norm(u, t, q):
    """V-norm sqrt(integral |grad u|^2 + V u^2) from the V-Gram matrix."""
    return math.sqrt(float(u @ (v_gram(t, q) @ u)))


def test_v_norm_constant(torus16, unit_cubic):
    t = 0.1
    V = 16.0 * t * t * norm_field(unit_cubic) ** 2
    nrm = v_norm(np.ones(torus16.n_classes), t, unit_cubic)
    assert nrm == pytest.approx(math.sqrt(integrate(torus16, V)), rel=1e-12)


def test_v_norm_reduces_to_h1(torus16):
    # V = 16 t^2 ||q||^2 = 1 for t = 1/4, q = 1, lambda = 1
    q = constant_cubic(torus16, 1.0)
    rng = np.random.default_rng(4)
    for _ in range(5):
        u = rng.standard_normal(torus16.n_classes)
        h1 = math.sqrt(float(u @ (torus16.stiffness @ u))
                       + float(torus16.mass_diag @ u ** 2))
        assert v_norm(u, 0.25, q) == pytest.approx(h1, rel=1e-12)


def test_v_norm_degenerate(torus16, unit_cubic):
    with pytest.raises(DegenerateNorm):
        v_norm(np.ones(torus16.n_classes), 0.0, unit_cubic)


def test_norm_equivalence_constants(torus16, unit_cubic):
    lo, hi = norm_equivalence_constants(0.1, unit_cubic)
    assert 0.0 < lo <= hi < math.inf
    print(f"V-norm vs H1 equivalence constants: [{lo:.6g}, {hi:.6g}]")


# ---------------------------------------------------------------------------
# mountain pass

# folds of the conftest cubics on octagon r2 and r3
T0_OCTAGON2 = 43.498131284
T0_OCTAGON3 = 44.604248922


def morse_indices(u, t, q):
    """Morse index of (L(u, t), M) from the LU's pivots and from dense eigh."""
    s = q.surface
    L = linearize(u, t, q)
    w = sla.eigh(L.matrix.toarray(), np.diag(s.mass_diag), eigvals_only=True)
    return s.factorize(L.potential).morse_index(), int(np.count_nonzero(w < 0))


@pytest.fixture(scope="module")
def torus_stables(torus16, unit_cubic):
    return {t: newton_solve(np.zeros(torus16.n_classes), t, unit_cubic,
                            tol=1e-11).u
            for t in (0.05, 0.10, 0.13, 0.135)}


def test_mountain_pass_matches_lower_root(torus16, unit_cubic, torus_stables):
    for t, root in LOWER_ROOT.items():
        p2 = find_mountain_pass(torus_stables[t], t, unit_cubic, tol=1e-11)
        assert np.abs(p2.u - root).max() <= 1e-4
        assert morse_indices(p2.u, t, unit_cubic) == (1, 1)
        assert p2.u.max() < U_FOLD          # below the fold level
        assert not p2.stable
        assert p2.lambda_min <= 1e-4
        assert p2.residual_norm <= 1e-10


def test_mountain_pass_separation_shrinks(torus16, unit_cubic, torus_stables):
    seps = {}
    for t in (0.05, 0.10, 0.13, 0.135):
        p2 = find_mountain_pass(torus_stables[t], t, unit_cubic, tol=1e-11)
        seps[t] = p2.meta["vnorm_separation"]
        # oracle separation: |u2 - u1| * sqrt(int V) for constant fields
        lo, hi = scalar_roots(16.0 * t * t)
        assert seps[t] == pytest.approx(abs(hi - lo) * 4.0 * t, rel=1e-4)
    assert seps[0.05] > 0.1
    assert seps[0.10] > seps[0.13] > seps[0.135]   # roots merge at the fold


def test_mountain_pass_octagon(octagon2, octagon2_cubic):
    curve = trace_curve(octagon2_cubic, dt0=0.5, tol=1e-10)
    t0 = detect_fold(curve)
    t = 0.5 * t0
    stable = None
    for p in curve.points:
        if p.t <= t:
            stable = p
    stable = newton_solve(stable.u, t, octagon2_cubic, tol=1e-11)
    p2 = find_mountain_pass(stable.u, t, octagon2_cubic, tol=1e-11)
    assert p2.residual_norm <= 1e-8
    assert p2.lambda_min <= 1e-4
    assert p2.u.max() <= 1e-8
    assert p2.meta["vnorm_separation"] > 0.1
    # second solution is genuinely nonconstant on the octagon
    assert p2.u.std() > 1e-3


@pytest.mark.parametrize("frac", [0.45, 0.55, 0.75])
def test_mountain_pass_has_morse_index_one(octagon2_cubic, frac):
    # a mountain-pass critical point has Morse index at most 1 (Hofer 1984),
    # and a saddle separated from the minimizer has exactly 1
    t = frac * T0_OCTAGON2
    p2 = find_mountain_pass(branch_point(octagon2_cubic, t), t,
                            octagon2_cubic, tol=1e-10)
    assert morse_indices(p2.u, t, octagon2_cubic) == (1, 1)


def test_polish_gate_admits_index_one_only(octagon3_cubic, monkeypatch):
    # on octagon r3 at 0.45 T0 the path maximum is polished 7 times without
    # the gate: 2 Newton solves fail and 4 land back on the stable field.
    # The gate admits only the 2 starts of index 1 and finds the same u2
    t = 0.45 * T0_OCTAGON3
    u_stable = branch_point(octagon3_cubic, t)
    solve_u = mpass.solve_u

    def run():
        starts = []

        def recording_solve_u(u0, *args):
            starts.append(morse_indices(u0, t, octagon3_cubic)[1])
            return solve_u(u0, *args)

        with monkeypatch.context() as m:
            m.setattr(mpass, "solve_u", recording_solve_u)
            p2 = find_mountain_pass(u_stable, t, octagon3_cubic, tol=1e-10)
        return p2, starts

    gated, starts = run()
    assert starts == [1, 1]
    monkeypatch.setattr(ShiftedLU, "morse_index", lambda self: None)
    ungated, starts = run()
    assert len(starts) == 7
    assert gated.u.tobytes() == ungated.u.tobytes()
    assert gated.meta == ungated.meta


def test_mountain_pass_degenerate_at_zero(torus16, unit_cubic):
    p0 = newton_solve(np.zeros(torus16.n_classes), 0.0, unit_cubic)
    with pytest.raises(DegenerateNorm):
        find_mountain_pass(p0.u, 0.0, unit_cubic)


def test_mountain_pass_collapse_after_three_paths(torus16, unit_cubic,
                                                  torus_stables, monkeypatch):
    # every polish fails, so each path runs out of sweeps; the search gives
    # up after the 20-, 40- and 80-node paths
    def failing_solve_u(*args):
        raise NonConvergence("injected")

    monkeypatch.setattr(mpass, "MAX_SWEEPS", 3)
    monkeypatch.setattr(mpass, "solve_u", failing_solve_u)
    with pytest.raises(PathCollapse, match="up to 80 nodes"):
        find_mountain_pass(torus_stables[0.10], 0.10, unit_cubic)


def test_polish_gate_skips_singular_linearization(torus16, unit_cubic,
                                                  torus_stables, monkeypatch):
    # an L that cannot be factorized admits no polish, as a Newton solve
    # from there would fail at its first step
    def singular(*args):
        raise RuntimeError("Factor is exactly singular")

    def no_polish(*args):
        raise AssertionError("polish attempted")

    monkeypatch.setattr(mpass, "MAX_SWEEPS", 3)
    monkeypatch.setattr(mpass, "linearize", singular)
    monkeypatch.setattr(mpass, "solve_u", no_polish)
    with pytest.raises(PathCollapse, match="up to 80 nodes"):
        find_mountain_pass(torus_stables[0.10], 0.10, unit_cubic)


def test_functional_value_stack_is_bitwise_per_row(octagon2, octagon2_cubic):
    # a (k, n) stack gives k values, each bit for bit the single-field
    # formula's, also for rows with entries on every branch of the cutoffs
    rng = np.random.default_rng(3)
    n, t = octagon2.n_classes, 20.0
    stack = np.vstack([rng.uniform(-3.0, 0.0, (4, n)),
                       rng.uniform(-1.0, 2.0, (2, n)), np.zeros((1, n))])
    vals = functional_value(stack, t, octagon2_cubic)
    assert vals.shape == (7,)
    K, m = octagon2.stiffness, octagon2.mass_diag
    V = v_field(t, octagon2_cubic)
    ref = [0.5 * float(u @ (K @ u)) + 0.5 * float(m @ (V * u * u))
           - float(m @ (F1(u) + V * F2(u))) for u in stack]
    assert vals.tobytes() == np.array(ref).tobytes()
    single = functional_value(stack[4].copy(), t, octagon2_cubic)
    assert isinstance(single, float) and single == ref[4]
