import math

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from minlag import pde
from minlag.continuation import fold_step
from minlag.cubic import norm_field
from minlag.pde import (EigenFailure, NonConvergence, ResidualBlowup,
                        SingularJacobian, damped_newton, linearize,
                        newton_solve, residual, smallest_eigenvalue)
from minlag.surface import build_flat_torus, build_genus2_octagon

from reference import assembled_operator, legendre_pair
from scalar_oracle import U_FOLD, fold_t, scalar_roots

# frozen scalar-oracle roots of 2 - 2e^u - 16 t^2 e^{-2u} (see scalar_oracle)
UPPER_ROOT = {0.05: -0.021081981284539634, 0.10: -0.103605884506786154,
              0.13: -0.255196844414612401}
LOWER_ROOT = {0.05: -1.872552655460861617, 0.10: -1.046604406320311996,
              0.13: -0.606474549143308812}


def test_frozen_roots_match_oracle():
    for t in UPPER_ROOT:
        lo, hi = scalar_roots(16.0 * t * t)
        assert hi == pytest.approx(UPPER_ROOT[t], abs=1e-14)
        assert lo == pytest.approx(LOWER_ROOT[t], abs=1e-14)


def test_residual_trivial(torus16, unit_cubic):
    f = residual(np.zeros(torus16.n_classes), 0.0, unit_cubic)
    assert np.all(f == 0.0)


def test_residual_constant_field(torus16, unit_cubic):
    # constants kill the Laplacian term, so the residual is the scalar value
    rng = np.random.default_rng(11)
    for _ in range(5):
        u0 = rng.uniform(-2.0, 0.0)
        t = rng.uniform(0.0, 0.2)
        f = residual(np.full(torus16.n_classes, u0), t, unit_cubic)
        expect = 2.0 - 2.0 * math.exp(u0) - 16.0 * t * t * math.exp(-2.0 * u0)
        assert f == pytest.approx(np.full_like(f, expect), rel=1e-12, abs=1e-12)


def test_residual_at_zero_u(torus16, unit_cubic):
    t = 0.3
    f = residual(np.zeros(torus16.n_classes), t, unit_cubic)
    assert f == pytest.approx(-16.0 * t * t * norm_field(unit_cubic) ** 2)


def test_residual_blowup_guard(torus16, unit_cubic):
    with pytest.raises(ResidualBlowup):
        residual(np.full(torus16.n_classes, -60.0), 0.1, unit_cubic)


def test_residual_needs_nonnegative_t(torus16, unit_cubic):
    with pytest.raises(ValueError, match="t must be nonnegative"):
        residual(np.zeros(torus16.n_classes), -0.1, unit_cubic)


def test_linearize_at_origin(torus16, unit_cubic):
    p = linearize(np.zeros(torus16.n_classes), 0.0, unit_cubic)
    assert p == pytest.approx(2.0 * np.ones_like(p))
    lam, vec = smallest_eigenvalue(torus16, p)
    assert lam == pytest.approx(2.0, abs=1e-9)
    # constant eigenvector, M-normalized on the unit-area torus
    assert np.abs(vec).std() <= 1e-8


def test_linearize_at_fold_state(torus16, unit_cubic):
    u = np.full(torus16.n_classes, U_FOLD)
    lam, _ = smallest_eigenvalue(torus16,
                                 linearize(u, fold_t(1.0), unit_cubic))
    assert abs(lam) <= 1e-6


def test_jacobian_matches_finite_differences(torus16, unit_cubic):
    rng = np.random.default_rng(5)
    eps = 1e-6
    for _ in range(20):
        u = rng.uniform(-0.5, 0.0, torus16.n_classes)
        v = rng.standard_normal(torus16.n_classes)
        t = rng.uniform(0.0, 0.13)
        L = assembled_operator(torus16, linearize(u, t, unit_cubic))
        lv = (L @ v) / torus16.mass_diag
        fd = (residual(u + eps * v, t, unit_cubic)
              - residual(u, t, unit_cubic)) / eps
        # d residual / du = -M^{-1} L by the sign convention of L
        assert np.linalg.norm(fd + lv) <= 1e-5 * np.linalg.norm(lv)


def test_newton_trivial_is_immediate(torus16, octagon2, unit_cubic,
                                     octagon2_cubic):
    for s, q in ((torus16, unit_cubic), (octagon2, octagon2_cubic)):
        p = newton_solve(np.zeros(s.n_classes), 0.0, q)
        assert p.meta["newton_iterations"] == 0
        assert np.all(p.u == 0.0)
        # L = -Delta + 2 at (0, 0): constants give the smallest eigenvalue
        assert p.lambda_min == pytest.approx(2.0, abs=1e-9)
        # the sign of lambda_min is the point's one record of its stability
        assert not hasattr(p, "stable")


def test_newton_matches_scalar_root(torus16, unit_cubic):
    for t, root in UPPER_ROOT.items():
        p = newton_solve(np.zeros(torus16.n_classes), t, unit_cubic, tol=1e-12)
        assert np.abs(p.u - root).max() <= 1e-10
        assert p.u.std() <= 1e-12            # field stays constant
        assert p.lambda_min > 0.0            # on the stable branch


def test_newton_beyond_fold_fails(torus16, unit_cubic, monkeypatch):
    # no real root exists once 16 t^2 > 8/27, i.e. t > 1/sqrt(54); the
    # damping floor MIN_DAMPING ends the hopeless solve within a few LUs
    factorizations, splu = [], spla.splu

    def counting_splu(A, *args, **kwargs):
        factorizations.append(A.shape)
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(pde.spla, "splu", counting_splu)
    with pytest.raises(NonConvergence):
        newton_solve(np.zeros(torus16.n_classes), 0.2, unit_cubic)
    assert 0 < len(factorizations) <= 6


def test_stalled_solve_fails_early(monkeypatch):
    # u^2 + 1/10 has no root: Newton slides toward u = 0, where the merit
    # has a positive minimum and J turns singular, in ever more damped steps
    # that barely lower the merit.  The damping floor 2^-6 ends the solve
    # there after 5 iterations, long before MAX_NEWTON_ITER and twice as
    # soon as a floor of 1e-4 would
    def run():
        steps = []

        def step(u, rhs):
            steps.append(u)
            return rhs / (2.0 * u)

        with pytest.raises(NonConvergence) as exc:
            damped_newton(np.full(4, 3.0), lambda u: u * u + 0.1, step,
                          np.ones(4), 1e-10)
        return exc.value, len(steps)

    stalled, stall_steps = run()
    assert "line search failed" in str(stalled)
    assert (stalled.iterations, stall_steps) == (5, 6)
    monkeypatch.setattr(pde, "MIN_DAMPING", 1e-4)
    floored, floor_steps = run()
    assert "line search failed" in str(floored)
    assert (floored.iterations, floor_steps) == (10, 11)


def test_initial_guess_below_the_guard_fails(torus16, unit_cubic):
    # u0 below BLOWUP_THRESHOLD: the first merit cannot be evaluated
    with pytest.raises(NonConvergence) as exc:
        damped_newton(np.full(torus16.n_classes, -60.0),
                      lambda v: -residual(v, 0.1, unit_cubic),
                      lambda v, rhs: rhs, torus16.mass_diag, 1e-10)
    assert type(exc.value) is NonConvergence
    assert str(exc.value).startswith("initial guess out of range: min u")
    assert exc.value.iterations == 0


def test_non_finite_step_fails():
    # a step solver that returns NaN, as a singular LU can without raising
    with pytest.raises(SingularJacobian) as exc:
        damped_newton(np.ones(4), lambda u: u,
                      lambda u, rhs: np.full_like(rhs, np.nan), np.ones(4),
                      1e-10)
    assert str(exc.value) == "non-finite Newton step"
    assert exc.value.iterations == 0


@pytest.mark.parametrize("bad, error", [
    (np.full(4, np.nan), "non-finite Newton step"),
    (RuntimeError("singular LU"), "singular LU")])
def test_singular_step_counts_its_iterations(bad, error):
    # the third step solve fails, after two full steps of x -> x / 2
    steps = []

    def step(u, rhs):
        steps.append(u)
        if len(steps) < 3:
            return 0.5 * rhs
        if isinstance(bad, Exception):
            raise bad
        return bad

    with pytest.raises(SingularJacobian) as exc:
        damped_newton(np.ones(4), lambda u: u, step, np.ones(4), 1e-10)
    assert str(exc.value) == error
    assert exc.value.iterations == 2 == len(steps) - 1


def test_trial_step_below_the_guard_is_halved():
    # a step of twice the Newton step overshoots the root u = -40 to -80,
    # below BLOWUP_THRESHOLD: that trial counts as an infinite merit, and
    # the halved step lands on the root
    trials = []

    def field(u):
        trials.append(float(u[0]))
        return pde._checked(u, 0.0) + 40.0

    u, rnorm, it = damped_newton(np.zeros(4), field,
                                 lambda u, rhs: 2.0 * rhs, np.ones(4), 1e-10)
    assert trials == [0.0, -80.0, -40.0]
    assert (it, rnorm) == (1, 0.0) and np.all(u == -40.0)


def test_damped_newton_needs_a_positive_tol():
    with pytest.raises(ValueError, match="tol must be positive"):
        damped_newton(np.ones(4), lambda u: u, lambda u, rhs: rhs,
                      np.ones(4), 0.0)


def test_iteration_cap_fails(monkeypatch):
    # a step solver with half the true step converges only linearly, so
    # three iterations leave the field short of tol
    monkeypatch.setattr(pde, "MAX_NEWTON_ITER", 3)
    steps = []

    def step(u, rhs):
        steps.append(u)
        return 0.5 * rhs

    with pytest.raises(NonConvergence) as exc:
        damped_newton(np.ones(4), lambda u: u, step, np.ones(4), 1e-10)
    assert type(exc.value) is NonConvergence
    assert str(exc.value) == "no convergence in 3 iterations"
    assert exc.value.iterations == 3 == len(steps)


def test_singular_jacobian_raises(torus16, unit_cubic):
    # the fold step with a zero border row: its Schur complement vanishes
    n = torus16.n_classes
    step = fold_step(unit_cubic, np.zeros(n))
    with pytest.raises(SingularJacobian):
        damped_newton(np.concatenate([np.zeros(n), np.ones(n), [0.1]]),
                      lambda x: x, step,
                      np.concatenate([torus16.mass_diag] * 2 + [[1.0]]), 1e-10)


def test_newton_maximum_principle(torus16, octagon2, unit_cubic,
                                  octagon2_cubic):
    for s, q, t in ((torus16, unit_cubic, 0.1), (octagon2, octagon2_cubic, 5.0)):
        p = newton_solve(np.zeros(s.n_classes), t, q, tol=1e-11)
        assert p.u.max() <= 1e-8


def test_accepted_point_integral_identity(torus16, unit_cubic):
    tol = 1e-11
    p = newton_solve(np.zeros(torus16.n_classes), 0.12, unit_cubic, tol=tol)
    nq2 = norm_field(unit_cubic) ** 2
    m = torus16.mass_diag
    bulk = 2.0 - 2.0 * np.exp(p.u) - 16.0 * p.t ** 2 * nq2 * np.exp(-2.0 * p.u)
    assert abs(m @ bulk) <= tol * math.sqrt(torus16.area)


def test_smallest_eigenvalue_shift(torus16, unit_cubic):
    u = np.full(torus16.n_classes, -0.2)
    p = linearize(u, 0.05, unit_cubic)
    lam, _ = smallest_eigenvalue(torus16, p)
    shift = 0.37
    lam2, _ = smallest_eigenvalue(torus16, p + shift)
    assert lam2 == pytest.approx(lam + shift, abs=1e-9)


def test_smallest_eigenvector_normalization(torus16, unit_cubic):
    p = linearize(np.zeros(torus16.n_classes), 0.05, unit_cubic)
    _, vec = smallest_eigenvalue(torus16, p)
    m = torus16.mass_diag
    assert float(m @ vec ** 2) == pytest.approx(1.0, rel=1e-9)


def test_newton_solve_keeps_the_eigenvector(torus16, octagon2, unit_cubic,
                                            octagon2_cubic):
    # the classified point carries the M-normalized eigenvector of its
    # lambda_min, so no caller solves the same eigenproblem again
    for s, q, t in ((torus16, unit_cubic, 0.1),
                    (octagon2, octagon2_cubic, 20.0)):
        p = newton_solve(np.zeros(s.n_classes), t, q)
        lam, vec = smallest_eigenvalue(s, linearize(p.u, t, q))
        assert p.lambda_min == lam
        assert p.eigenvector.tobytes() == vec.tobytes()
        assert float(s.mass_diag @ p.eigenvector ** 2) == pytest.approx(
            1.0, rel=1e-12)


@pytest.fixture(scope="module")
def octagon3_operators(octagon3, octagon3_cubic):
    """Potentials of a stable L at the branch solution for t = 20 and of
    an indefinite L at u = -1.5."""
    p = newton_solve(np.zeros(octagon3.n_classes), 20.0, octagon3_cubic)
    u = np.full(octagon3.n_classes, -1.5)
    return [linearize(p.u, 20.0, octagon3_cubic),
            linearize(u, 30.0, octagon3_cubic)]


def test_smallest_eigenvalue_matches_dense_reference(octagon3,
                                                     octagon3_operators):
    m = octagon3.mass_diag
    signs = []
    for p in octagon3_operators:
        w, v = sla.eigh(assembled_operator(octagon3, p).toarray(),
                        np.diag(m))
        lam, vec = smallest_eigenvalue(octagon3, p)
        assert lam == pytest.approx(w[0], abs=1e-9)
        # same M-unit eigenvector up to sign
        assert abs(m @ (vec * v[:, 0])) == pytest.approx(1.0, abs=1e-9)
        signs.append(lam > 0.0)
    assert signs == [True, False]


@pytest.mark.parametrize("surface", [
    lambda: build_flat_torus(4, 1.0, 1.0), lambda: build_genus2_octagon(1)],
    ids=["torus4", "octagon1"])
def test_smallest_eigenpair_on_coarse_trace_meshes(surface):
    # the meshes the coarse trace of `continue` runs on: 16 classes, where
    # ncv = 8 is half of n, and 30; an SPD L and one with lambda_1 < 0
    s = surface()
    m = s.mass_diag
    rng = np.random.default_rng(3)
    signs = []
    for p in (rng.uniform(0.5, 3.0, s.n_classes),
              rng.uniform(-8.0, 1.0, s.n_classes)):
        w, v = sla.eigh(assembled_operator(s, p).toarray(), np.diag(m))
        lam, vec = smallest_eigenvalue(s, p)
        assert lam == pytest.approx(w[0], rel=1e-12)
        ref = v[:, 0] * np.sign(m @ (vec * v[:, 0]))
        assert np.abs(vec - ref).max() <= 1e-9
        signs.append(lam > 0.0)
    assert signs == [True, False]


def _no_convergence(*args, **kwargs):
    raise spla.ArpackNoConvergence("injected no convergence", [], [])


def _singular_lu(*args, **kwargs):
    raise RuntimeError("injected singular factor")


@pytest.mark.parametrize("target, fail, message", [
    ("eigsh", _no_convergence, "injected no convergence"),
    ("splu", _singular_lu, "injected singular factor")], ids=["arpack", "lu"])
def test_smallest_eigenvalue_failure_raises(monkeypatch, torus16, unit_cubic,
                                            target, fail, message):
    # one eigen path: a failed ARPACK run or shift-invert LU is an
    # EigenFailure, with nothing to fall back on
    p = linearize(np.full(torus16.n_classes, -0.2), 0.05, unit_cubic)
    monkeypatch.setattr(pde.spla, target, fail)
    with pytest.raises(EigenFailure, match=message):
        smallest_eigenvalue(torus16, p)


def test_legendre_boundary():
    h, hstar = legendre_pair(1.0, 0.0)
    assert h == 0.0 and hstar == 0.0


def test_legendre_closed_form_value():
    h, _ = legendre_pair(math.e ** 2, 123.0)
    assert h == pytest.approx(math.e ** 2, rel=1e-14)


def test_legendre_domain():
    with pytest.raises(ValueError):
        legendre_pair(0.5, 1.0)
    with pytest.raises(ValueError):
        legendre_pair(2.0, -0.1)


def test_legendre_inequality_sampled():
    rng = np.random.default_rng(42)
    a = 1.0 + rng.uniform(0.0, 1e6, 10000)
    b = rng.uniform(0.0, 1e3, 10000)
    for ai, bi in zip(a, b):
        h, hstar = legendre_pair(ai, bi)
        assert ai * bi <= (h + hstar) * (1.0 + 1e-12)
