import math
import re

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.integrate import quad

from minlag.continuation import branch_point, detect_fold, trace_curve
from minlag import mpass
from minlag.mpass import (DegenerateNorm, PathCollapse, VerificationFailure,
                          find_mountain_pass, functional_gradient,
                          functional_value)
from minlag.pde import (NonConvergence, linearize, newton_solve, residual,
                        smallest_eigenvalue, solve_u, v_field)
from minlag.cubic import constant_cubic, norm_field
from minlag.surface import DiscreteSurface, ShiftedLU, integrate

from reference import (F1, F2, assembled_operator, f1, f2,
                       norm_equivalence_constants)
from scalar_oracle import U_FOLD, scalar_roots
from test_pde import LOWER_ROOT


# ---------------------------------------------------------------------------
# cutoff functions


def test_cutoff_closed_form_regions():
    assert f1(-1.0) == pytest.approx(2.0 - 2.0 * math.exp(-1.0))
    assert f1(2.0) == pytest.approx(-12.0)       # -theta s^(theta-1)
    assert F1(2.0) == pytest.approx(-8.0)        # -s^theta
    assert f2(-2.0) == pytest.approx(-2.0 - math.exp(4.0))
    assert F2(3.0) == 0.0
    # the functional's kernel takes the s <= 0 closed form over the whole
    # field and then overwrites the positive entries: the other entries
    # have the same bits whether or not the field has a positive entry
    rng = np.random.default_rng(1)
    fields = (np.linspace(-30.0, 0.0, 101), -rng.exponential(2.0, 510),
              np.array([-0.0, -1e-300]), np.empty(0))
    for gradient in (False, True):
        for s in fields:
            V = rng.uniform(0.0, 5.0, s.size)
            mixed = mpass._pointwise(np.append(s, 0.5), np.append(V, 1.0),
                                     gradient)[:-1]
            assert mpass._pointwise(s, V, gradient).tobytes() \
                == mixed.tobytes()


def test_cutoff_nan_propagates():
    s = np.array([np.nan, -1.0, 0.5, 2.0])
    for fn in (f1, f2, F1, F2):
        out = fn(s)
        assert np.isnan(out[0])
        assert out[1:].tolist() == [fn(v) for v in s[1:]]
        assert math.isnan(fn(float("nan")))
    for gradient in (False, True):
        out = mpass._pointwise(s, np.ones(4), gradient)
        assert np.isnan(out[0]) and np.isfinite(out[1:]).all()


def test_cutoff_continuity():
    for fn in (f1, f2, F1, F2):
        for s0 in (0.0, 1.0):
            left = fn(s0 - 1e-10)
            right = fn(s0 + 1e-10)
            assert left == pytest.approx(right, abs=1e-7), f"{fn} jumps at {s0}"


def test_cutoff_f1_additive_constant():
    # F1(0-) = 2*0 - 2 + 2 = 0 by the additive constant in the formula
    assert F1(0.0) == 0.0
    assert F1(-1e-14) == pytest.approx(0.0, abs=1e-13)


def test_cutoff_sign_conditions():
    s = np.linspace(1e-6, 50.0, 20001)
    assert np.all(f1(s) < 0.0), "f1 must be negative for s > 0"
    inside = np.linspace(1e-6, 1.0 - 1e-6, 10001)
    assert np.all(f2(inside) < 0.0), "f2 must be negative on (0,1)"
    everywhere = np.linspace(-30.0, 30.0, 10001)
    assert np.all(f2(everywhere) <= np.minimum(0.0, everywhere) + 1e-12)


def test_cutoff_antiderivatives():
    rng = np.random.default_rng(2)
    for f, F in ((f1, F1), (f2, F2)):
        for _ in range(10):
            a, b = sorted(rng.uniform(-3.0, 3.0, 2))
            val, err = quad(f, a, b, points=[0.0, 1.0], limit=200,
                            epsabs=1e-13, epsrel=1e-13)
            assert F(b) - F(a) == pytest.approx(val, abs=1e-10)


def test_growth_inequality_constant():
    # F_j(s) <= (s/theta) f_j(s) + C with a finite constant over [-50, 50]
    s = np.linspace(-50.0, 50.0, 10001)
    for f, F, name in ((f1, F1, "f1"),
                       (f2, F2, "f2")):
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
    """V-norm sqrt(integral |grad u|^2 + V u^2), applying the V-Gram matrix
    K + M diag(V)."""
    return math.sqrt(float(u @ q.surface.apply(v_field(t, q), u)))


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
    pot = linearize(u, t, q)
    w = sla.eigh(assembled_operator(s, pot).toarray(), np.diag(s.mass_diag),
                 eigvals_only=True)
    return s.factorize(pot).morse_index(), int(np.count_nonzero(w < 0))


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
        assert p2.lambda_min < 0.0           # off the stable branch
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
    t0 = detect_fold(curve)[0].t
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


def test_mountain_pass_is_classified_by_newton_solve(octagon2_cubic):
    # the point is `newton_solve`'s, whose residual norm and eigenpair it
    # keeps, with the search's own meta
    q, t = octagon2_cubic, 0.55 * T0_OCTAGON2
    p2 = find_mountain_pass(branch_point(q, t), t, q, tol=1e-10)
    assert sorted(p2.meta) == ["path_iterations", "path_nodes",
                               "vnorm_separation"]
    m = q.surface.mass_diag
    assert p2.residual_norm == float(np.sqrt(m @ residual(p2.u, t, q) ** 2))
    lam, vec = smallest_eigenvalue(q.surface, linearize(p2.u, t, q))
    assert p2.lambda_min == lam < 0.0
    assert p2.eigenvector.tobytes() == vec.tobytes()
    # the sign of lambda_min is the point's one record of its stability
    assert not hasattr(p2, "stable")


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


@pytest.mark.parametrize("frac", [0.45, 0.55, 0.75])
def test_polish_reuses_the_gate_lu(octagon2_cubic, frac, monkeypatch):
    # the polish's first Newton step solves with the LU the Morse-index
    # gate made of the same L, so no potential is factorized twice in a row
    q, t = octagon2_cubic, frac * T0_OCTAGON2
    u_stable = branch_point(q, t)
    potentials, factorize = [], DiscreteSurface.factorize

    def recording_factorize(self, p):
        potentials.append(np.asarray(p, dtype=float).tobytes())
        return factorize(self, p)

    monkeypatch.setattr(DiscreteSurface, "factorize", recording_factorize)
    find_mountain_pass(u_stable, t, q, tol=1e-10)
    assert len(potentials) > 2
    assert all(a != b for a, b in zip(potentials, potentials[1:]))


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


def test_mountain_pass_refuses_a_positive_critical_point(
        unit_cubic, torus_stables, monkeypatch):
    # a polish landing above u = 0 leaves the cutoff equivalence: the
    # lower root -1.0466 moved up by 2 breaks u <= 0
    def lifted_solve_u(*args):
        u, rnorm, it = solve_u(*args)
        return u + 2.0, rnorm, it

    monkeypatch.setattr(mpass, "solve_u", lifted_solve_u)
    with pytest.raises(VerificationFailure, match=r"^critical point violates "
                       r"u <= 0: max u = 0\.953$"):
        find_mountain_pass(torus_stables[0.10], 0.10, unit_cubic, tol=1e-11)


def test_mountain_pass_refuses_a_stable_critical_point(
        unit_cubic, torus_stables, monkeypatch):
    # a classifying Newton solve that lands on the stable minimizer, whose
    # lambda_min is positive, signals a path that collapsed
    u1 = torus_stables[0.10]
    lam = newton_solve(u1, 0.10, unit_cubic, tol=1e-11).lambda_min
    assert lam > mpass.EPS_UNSTABLE
    monkeypatch.setattr(mpass, "newton_solve",
                        lambda u, t, q, tol: newton_solve(u1, t, q, tol))
    with pytest.raises(VerificationFailure, match=re.escape(
            f"second critical point is stable (lambda_min = {lam:.3g}); "
            "the path converged to another minimizer")):
        find_mountain_pass(u1, 0.10, unit_cubic, tol=1e-11)


def test_no_negative_constant_below_an_unreachable_level(unit_cubic):
    # F(k) falls fast for the constants k = -1, -2, ..., -128 that the
    # search tries, yet F(-128) = -1.2e110 stays far above -1e300
    values = [functional_value(np.full(unit_cubic.surface.n_classes,
                                       -2.0 ** j), 0.10, unit_cubic)
              for j in range(8)]
    assert -1e111 < min(values) < -1e110
    with pytest.raises(VerificationFailure, match="^no negative constant "
                       "with low functional value$"):
        mpass._negative_endpoint(-1e300, 0.10, unit_cubic)


def branch_stack(n, rng):
    """Fields with entries on every branch of the cutoffs (s <= 0,
    0 < s <= 1, s > 1), a field with a NaN and an overflowing field, whose
    e^s and e^{-2s} overflow."""
    mixed = rng.uniform(-3.0, 2.0, (3, n))
    mixed[:, :3] = [-1.0, 0.5, 1.5]
    nan = rng.uniform(-1.0, 0.5, n)
    nan[n // 2] = np.nan
    return np.vstack([rng.uniform(-3.0, 0.0, (2, n)), mixed,
                      np.zeros((1, n)), nan, np.where(nan > 0, 800.0, -400.0)])


def same_or_rel(a, b, rel):
    """a and b agree to rel relative where finite, and are alike elsewhere."""
    a, b = np.asarray(a), np.asarray(b)
    finite = np.isfinite(b)
    assert (np.isfinite(a) == finite).all()
    assert (np.isnan(a) == np.isnan(b)).all()
    assert (a[np.isinf(b)] == b[np.isinf(b)]).all()
    assert np.abs(a[finite] - b[finite]).max(initial=0.0) \
        <= rel * np.abs(b[finite]).max(initial=0.0)


def test_functional_value_stack_is_bitwise_per_row(octagon2, octagon2_cubic):
    # a (k, n) stack gives k values, each bit for bit its row's value alone,
    # and each the closed-form cutoffs' functional to rounding
    rng = np.random.default_rng(3)
    n, t = octagon2.n_classes, 20.0
    stack = branch_stack(n, rng)
    vals = functional_value(stack, t, octagon2_cubic)
    assert vals.shape == (len(stack),)
    single = [functional_value(u.copy(), t, octagon2_cubic) for u in stack]
    assert all(isinstance(v, float) for v in single)
    assert vals.tobytes() == np.array(single).tobytes()
    K, m = octagon2.stiffness, octagon2.mass_diag
    V = v_field(t, octagon2_cubic)
    with np.errstate(over="ignore", invalid="ignore"):
        ref = [0.5 * float(u @ (K @ u)) + 0.5 * float(m @ (V * u * u))
               - float(m @ (F1(u) + V * F2(u))) for u in stack]
    assert np.isnan(vals[-2]) and not np.isfinite(vals[-1])
    for v, r in zip(vals, ref):
        same_or_rel(v, r, 1e-13)


def test_functional_gradient_matches_closed_form_cutoffs(octagon2,
                                                         octagon2_cubic):
    # the fused gradient is K u / m + V u - f1(u) - V f2(u) to rounding, on
    # every branch, and keeps a NaN and an overflow where they are
    rng = np.random.default_rng(4)
    t = 20.0
    K, m = octagon2.stiffness, octagon2.mass_diag
    V = v_field(t, octagon2_cubic)
    for u in branch_stack(octagon2.n_classes, rng):
        g = functional_gradient(u, t, octagon2_cubic)
        with np.errstate(over="ignore", invalid="ignore"):
            ref = (K @ u) / m + V * u - f1(u) - V * f2(u)
        same_or_rel(g, ref, 1e-13)