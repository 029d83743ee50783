"""Continuation of the stable solution branch and the fold as an equation.

The branch starts at the exact point (u, t) = (0, 0) and is continued in the
natural parameter t with the previous solution as warm start.  A point is
accepted when Newton converges there with lambda_min > 0, the smallest
eigenvalue of the linearization, and the step is halved whenever a point is
not accepted.  The equation depends on t only through s = t^2
(V = 16 t^2 ||q||^2), so the stable branch is analytic in s up to the fold,
a square-root branch point: T0^2 is the radius of convergence of the
branch's series in s (`branch_series`), and one LU and the ratio of its
last two area coefficients estimate T0 (Domb and Sykes, Proc. R. Soc. A
240, 1957).  The trace computes that estimate once and caps it at the
nonexistence bound T of the traced q (`nonexistence_bound`, below), past
which no solution exists.  Every step, the first included, goes
FOLD_STEP_FRACTION of the way from the last accepted t to that aim, so the
first step from t = 0 lands just short of the fold.  The long steps this
gives are safe warm starts: the stable point at t_prev is a supersolution
at t > t_prev (residual(u_prev, t) = -(V(t) - V(t_prev)) e^{-2 u_prev}
<= 0), from which Newton descends onto the stable point at t, as in
`branch_point`.  The trace stops at the first accepted point from which
the fold solve can start (`_fold_solve_can_start`: lambda_min down to
NO_FOLD_FRACTION of its value at t = 0).  The fold is then solved for directly (`solve_fold`):
Newton on the Moore-Spence extended system F(u, t) = 0, L(u, t) phi = 0,
<M phi0, phi> = 1, whose solution is the turning point (u*, T0) with its
null vector phi.  Each Newton step comes from one LU of L (`fold_step`),
and its tolerance does not depend on how close to the fold the trace
stopped.

The fold is found by nested iteration (the first half of full multigrid;
Brandt, Math. Comp. 31, 1977).  `nested_cubics` lists q on every level of
its surface's hierarchy, coarsest first; the continue command traces only
the coarsest level, and `detect_fold` solves the fold there from the last
traced point, with the null-vector guess the trace's classification
recorded, and then once per finer level, started from the prolonged
(u*, phi*, T0) of the level below.  The finest level's fold is classified
once (`pde.newton_solve`): where its K is a Z-matrix, by the
Collatz-Wielandt enclosure of phi*, which must be positive and must
enclose lambda_min within EPS_FOLD of 0, and elsewhere by an eigen solve.
The trace's point at t = 0 is classified alike from the constant field,
whose enclosure there is exactly 2 (K 1 = 0 and L(0, 0) = K + 2M).
`detect_fold` returns the fold point and the per-level table and leaves
the traced curve as it was, and `normal_form` reads the fold's quadratic
normal form off that point; the module holds results only, and `cli`
writes them out.

`branch_point` reaches a single t on the same branch with no path in t.
The stable branch is the maximal solution, u = 0 is a supersolution at
every t (residual(0, t) = -16 t^2 ||q||^2 <= 0) and the nonlinearity
2 - 2 e^u - V e^{-2u} is concave, so Newton started at u = 0 descends onto
the stable point (monotone Newton).  It is the package's one cold solve:
the solve, mountain-pass, frame and wpcheck commands start from the field
it returns, and only `solve` classifies it (`pde.newton_solve`).

The nonexistence threshold is T = (area/2 / integral ||q||^(2/3))^(3/2);
on a hyperbolic surface area/2 = 2 pi (g - 1), and every computed fold must
sit strictly below it.  It bounds the discrete equation as well: summed
against M, K u drops out (K 1 = 0), and 2 e^u + V e^{-2u} >= 3 V^(1/3)
pointwise (AM-GM), so every solution on the mesh has t <= 2 T / 3^(3/2).
Every function reads the surface from the cubic differential
(`q.surface`, `curve.cubic.surface`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cubic import CubicDifferential, norm_field
from .pde import (EigenFailure, NonConvergence, SingularJacobian,
                  SolutionPoint, damped_newton, linearize, newton_solve,
                  residual, solve_u)
from .surface import NumericalFailure, integrate

EPS_FOLD = 1e-4        # |lambda_min| above this at the solved fold rejects it
NO_FOLD_FRACTION = 0.25  # the fold solve starts only once lambda_min is at
                         # or below this fraction of its value at t = 0
FOLD_STEP_FRACTION = 0.995  # the step goes this fraction of the way to the
                            # series estimate of T0, which is within 3e-4
                            # of the traced level's fold
SERIES_TERMS = 24      # orders of `branch_series` past the constant one


class StallBeforeFold(NumericalFailure):
    """The trace ended before the fold solve could start from its last point."""


class NoFoldDetected(NumericalFailure):
    """lambda_min is bounded below along the traced range."""


class ZeroCubic(ValueError):
    """The cubic differential vanishes identically."""


@dataclass
class SolutionCurve:
    """Ordered stable-branch points of `cubic` from t = 0 toward the fold,
    with `trace_curve`'s diagnostics."""

    points: list
    cubic: CubicDifferential
    diagnostics: dict


def _fold_solve_can_start(points) -> bool:
    """True when `detect_fold` will start from the last of `points`.

    It needs the last lambda_min at or below NO_FOLD_FRACTION of the first.
    """
    return points[-1].lambda_min <= NO_FOLD_FRACTION * points[0].lambda_min


@dataclass
class BranchSeries:
    """The stable branch as u = sum_n coefficients[n] sigma^n in
    sigma = t^2 / bound^2, with the fold `t0` its coefficients give."""

    coefficients: np.ndarray       # (SERIES_TERMS + 1, classes); row 0 is 0
    bound: float                   # T = `nonexistence_bound(cubic)`
    t0: float


def branch_series(q: CubicDifferential) -> BranchSeries:
    """Taylor coefficients of the stable branch in sigma = t^2 / T^2, and T0.

    With u = sum U_n sigma^n (U_0 = 0), E = e^u and G = e^{-2u} expanded
    alike, J. C. P. Miller's recurrences for powers of a series give

        n E_n = sum_{k=1..n} k U_k E_{n-k},
        n G_n = -2 sum_{k=1..n} k U_k G_{n-k},

    so E_n = U_n + E~_n with E~_n known from the lower orders, and order n
    of the structure equation is

        (K + 2M) U_n = -M (2 E~_n + 16 T^2 ||q||^2 G_{n-1}):

    one LU of K + 2M (the `wp` operator) and SERIES_TERMS back-substitutions.
    T = `nonexistence_bound(q)` makes the coefficients independent of the
    scale of q, and bounds their growth by (T / T0)^{2n} <= (27/4)^n, since
    every discrete solution has t <= 2 T / 3^(3/2).  The fold is a
    square-root branch point at sigma0 = T0^2 / T^2, so the area
    coefficients a_n = sum_i m_i E_{n,i} go as n^(-3/2) sigma0^(-n), and
    their last ratio with that exponent fixed gives, with N = SERIES_TERMS,

        T0^2 = T^2 (1 - 3 / (2N)) a_{N-1} / a_N

    (Domb and Sykes, Proc. R. Soc. A 240, 1957).  Raises ZeroCubic when q
    vanishes and NoFoldDetected when that ratio is not positive.
    """
    s = q.surface
    bound = nonexistence_bound(q)
    n_terms, m = SERIES_TERMS, s.mass_diag
    lu = s.factorize(2.0)
    v = 16.0 * bound * bound * q.norm_sq
    k = np.arange(1.0, n_terms + 1.0)
    u = np.zeros((n_terms + 1, s.n_classes))
    e, g = np.zeros_like(u), np.zeros_like(u)
    e[0] = g[0] = 1.0
    for n in range(1, n_terms + 1):
        e_tilde = k[:n - 1] @ (u[1:n] * e[n - 1:0:-1]) / n
        u[n] = lu.solve(-m * (2.0 * e_tilde + v * g[n - 1]))
        e[n] = e_tilde + u[n]
        g[n] = -2.0 * (k[:n] @ (u[1:n + 1] * g[n - 1::-1])) / n
    area = e @ m
    ratio = (1.0 - 1.5 / n_terms) * area[-2] / area[-1]
    if not ratio > 0.0:
        raise NoFoldDetected(
            f"the branch series gives no fold: the ratio of its last area "
            f"coefficients {area[-2]:.3g} and {area[-1]:.3g} is not positive")
    return BranchSeries(coefficients=u, bound=bound,
                        t0=bound * math.sqrt(ratio))


def trace_curve(q: CubicDifferential, tol: float = 1e-10) -> SolutionCurve:
    """Natural-parameter continuation from (0, 0) to where the fold solve starts.

    The trace aims at t_est = min(T0, T), with T0 the estimate of
    `branch_series(q)`, computed once, and T = `nonexistence_bound(q)`, so
    no step lies where no solution can.  Each step, the first included, is
    FOLD_STEP_FRACTION (t_est - t_k) from the last accepted point t_k.  A
    point is accepted when its `newton_solve` converges with
    lambda_min > 0, and the step halves after any other outcome.  The
    point at t = 0 is classified from the constant field (`pde.newton_solve`
    with `positive`): where K is a Z-matrix its enclosure is [2, 2] and no
    eigen solve is made.  The estimate lies within 3e-4 of the fold, so
    the first step from t = 0 stops short of it, at a point from which
    `detect_fold` can start.
    Returns at the first such accepted point.  Raises ZeroCubic when q
    vanishes, NoFoldDetected when the series gives no fold, and
    StallBeforeFold, naming t_est, if the step falls below 1e-4 t_est (so
    a t_est short of the fold fails here, and never yields a wrong fold).
    Every accepted t lies below t_est and gains at least 1e-4 t_est on the
    last, so the loop ends.  `diagnostics` holds the rejected step count
    and `newton_iterations` (summed over the points).
    """
    series = branch_series(q)
    target = min(series.t0, series.bound)
    n = q.surface.n_classes
    p0 = newton_solve(np.zeros(n), 0.0, q, tol=tol, positive=np.ones(n))
    points = [p0]
    rejects = 0

    dt = FOLD_STEP_FRACTION * target
    while dt >= 1e-4 * target:
        prev = points[-1]
        try:
            p = newton_solve(prev.u, prev.t + dt, q, tol=tol)
            accepted = p.lambda_min > 0.0
        except NonConvergence:
            accepted = False
        if not accepted:
            dt *= 0.5
            rejects += 1
            continue
        points.append(p)
        if _fold_solve_can_start(points):
            return SolutionCurve(
                points=points, cubic=q,
                diagnostics={"rejected_steps": rejects,
                             "newton_iterations": sum(
                                 pt.meta["newton_iterations"] for pt in points)})
        dt = FOLD_STEP_FRACTION * (target - p.t)

    raise StallBeforeFold(
        f"trace stopped at t = {points[-1].t:.6g} with lambda_min = "
        f"{points[-1].lambda_min:.3g} (started at {p0.lambda_min:.3g}) "
        f"before the fold solve could start; {len(points)} points, "
        f"{rejects} rejected steps, step {dt:.3g} toward the estimated "
        f"fold t = {target:.6g}")


def branch_point(q: CubicDifferential, t: float,
                 tol: float = 1e-10) -> np.ndarray:
    """Stable field u at t: one `pde.solve_u` from u = 0, with no eigen solve.

    Raises NonConvergence, naming t and carrying the solve's iterations, when
    that solve fails (t at or beyond the fold).
    """
    try:
        u, _, _ = solve_u(np.zeros(q.surface.n_classes), t, q, tol=tol)
    except NonConvergence as exc:
        raise NonConvergence(f"no stable solution from u = 0 at t = {t:.6g} "
                             f"(at or beyond the fold): {exc}",
                             iterations=exc.iterations) from exc
    return u


def fold_step(q: CubicDifferential, m_phi0: np.ndarray):
    """Newton step solver of the Moore-Spence system, from one LU of L.

    With x = (u, phi, t) and psi = M phi0, the system's Jacobian is

        [[L, 0, a], [B, L, c], [0, psi^T, 0]],

    a = 32 t M ||q||^2 e^{-2u}, B = diag(d(M pot)/du phi) and
    c = -64 t M ||q||^2 e^{-2u} phi.  Its 2n-block [[L, 0], [B, L]] is lower
    block triangular, but at the fold it is singular twice over (its
    smallest singular value goes as lambda_min(L)^2), so the step never
    solves with it.  It solves with the bordered matrix
    Lb = [[L, psi], [psi^T, 0]] instead, regular at a quadratic fold: once
    for du, with psi^T du = k left free, and once for dphi, each for three
    right-hand sides at a time; the two scalars dt and k then follow from a
    2 x 2 system.  Each Lb solve is block elimination with the LU of L and
    one step of iterative refinement, which is accurate as L turns singular
    (Govaerts and Pryce, BIT 30, 1990; Govaerts, Numerical Methods for
    Bifurcations of Dynamical Equilibria, SIAM 2000).
    Returns `step(x, rhs)` for `pde.damped_newton`; it raises
    SingularJacobian when a Schur complement of the elimination is zero.
    """
    s = q.surface
    n, m = s.n_classes, s.mass_diag
    psi = m_phi0

    def step(x, rhs):
        u, phi, t = x[:n], x[n:-1], x[-1]
        pot = linearize(u, t, q)
        lu = s.factorize(pot)
        w = m * q.norm_sq * np.exp(-2.0 * u)    # M ||q||^2 e^{-2u}
        a = 32.0 * t * w
        b = (2.0 * m * np.exp(u) + 64.0 * t * t * w) * phi   # diag of B
        c = -64.0 * t * w * phi
        z = lu.solve(psi)
        psi_z = psi @ z
        if psi_z == 0.0:
            raise SingularJacobian("zero Schur complement in the fold step")

        def eliminate(g, h):
            y = lu.solve(g)
            mu = (psi @ y - h) / psi_z
            return y - np.outer(z, mu), mu

        def bordered(g, h):
            """Lb^{-1} (g, h) for the columns of g and entries of h."""
            y, mu = eliminate(g, h)
            dy, dmu = eliminate(g - s.apply(pot, y) - np.outer(psi, mu),
                                h - psi @ y)
            return (y + dy).T, mu + dmu

        (y_r, y_a, y_1), (mu_r, mu_a, mu_1) = bordered(
            np.column_stack([rhs[:n], a, np.zeros(n)]),
            np.array([0.0, 0.0, 1.0]))
        (p_r, p_a, p_1), (nu_r, nu_a, nu_1) = bordered(
            np.column_stack([rhs[n:-1] - b * y_r, b * y_a - c, b * y_1]),
            np.array([rhs[-1], 0.0, 0.0]))
        # (du, mu) = Lb^{-1}(r1 - a dt, k) needs mu = 0, and
        # (dphi, nu) = Lb^{-1}(r2 - B du - c dt, r3) needs nu = 0
        det = mu_a * nu_1 - nu_a * mu_1
        if det == 0.0:
            raise SingularJacobian("zero Schur complement in the fold step")
        dt = (nu_r * mu_1 + mu_r * nu_1) / det
        k = (nu_r * mu_a + mu_r * nu_a) / det
        return np.concatenate([y_r - dt * y_a + k * y_1,
                               p_r + dt * p_a - k * p_1, [dt]])

    return step


def solve_fold(q: CubicDifferential, u: np.ndarray, phi: np.ndarray,
               t: float, tol: float):
    """Moore-Spence solve for the fold of q from (u, phi, t).

    With phi0 = phi / ||phi||_M, `damped_newton` solves -F(u, t) = 0,
    L(u, t) phi = 0, <M phi0, phi> = 1 for (u, phi, t), a regular system at
    a quadratic fold, started at (u, phi0, t).  Each Newton step comes from
    one LU of L by block elimination (`fold_step`); the bordered
    (2n+1)-square Jacobian is never assembled.  Returns (u*, phi*, T0,
    Newton iterations), phi* a null vector of L(u*, T0); raises
    NonConvergence when the solve fails.
    """
    s = q.surface
    n, m = s.n_classes, s.mass_diag
    phi0 = phi / np.sqrt(m @ phi ** 2)
    m_phi0 = m * phi0

    def field_fn(x):
        u, phi, t = x[:n], x[n:-1], x[-1]
        return np.concatenate([-residual(u, t, q),
                               s.apply(linearize(u, t, q), phi) / m,
                               [m_phi0 @ phi - 1.0]])

    x, _, it = damped_newton(np.concatenate([u, phi0, [t]]), field_fn,
                             fold_step(q, m_phi0),
                             np.concatenate([m, m, [1.0]]), tol)
    return x[:n], x[n:-1], float(x[-1]), it


def nested_cubics(q: CubicDifferential) -> list:
    """q on every level of its surface's hierarchy, coarsest first.

    A coarser level's q takes the finer q's values at its chart vertices
    (a prefix); the coarser surfaces are assembled here (`Nesting.coarse`).
    """
    qs = [q]
    while (nest := qs[0].surface.nesting) is not None:
        c = nest.coarse()
        qs.insert(0, CubicDifferential(qs[0].values[:len(c.vertices)], c))
    return qs


def detect_fold(curve: SolutionCurve, finer=(),
                tol: float = 1e-11) -> tuple[SolutionPoint, list]:
    """Solve for the fold T0 from the last traced point, then on each finer level.

    `finer` lists the cubics of the finer levels of `curve.cubic`'s
    hierarchy, coarsest first (`nested_cubics` without its first entry).
    On the trace's level `solve_fold` starts from the last point with phi
    the M-normalized smallest eigenvector its `newton_solve` recorded; on
    each finer level it starts from the prolonged (u*, phi*, T0) of the
    level below, so no eigen solve is made for phi (nested iteration).
    `newton_solve` classifies the finest level's (u*, T0), given phi*
    signed so that sum m phi* > 0.  Where that level's K is a Z-matrix it
    makes no eigen solve: the fold is accepted only when phi* > 0 and its
    Collatz-Wielandt enclosure [lo, hi] of lambda_min lies in
    [-EPS_FOLD, EPS_FOLD].  A phi* with an entry <= 0 is refused, with no
    eigen solve to retry: by Perron-Frobenius it is not the ground state.
    Elsewhere the eigen solve's |lambda_min| must be at most EPS_FOLD.
    Raises NoFoldDetected, naming the level, if the curve does not approach
    a fold, a solve fails, the trace level's solve ends behind the curve or
    the finest ends off the fold.  Returns the finest level's fold point,
    whose t is T0, and the per-level table (each level's `classes`, `T0`
    and `fold_newton_iterations`, coarsest first); the curve is unchanged.
    """
    pts = curve.points
    if not _fold_solve_can_start(pts):
        raise NoFoldDetected(
            f"the curve does not approach a fold: {len(pts)} points, "
            f"lambda_min {pts[0].lambda_min:.3g} at t = 0 and "
            f"{pts[-1].lambda_min:.3g} at the end; the fold solve needs the "
            f"last lambda_min at most {NO_FOLD_FRACTION:.2f} of the first")

    p = pts[-1]
    u, t, phi = p.u, p.t, p.eigenvector
    qs = [curve.cubic, *finer]
    levels = []
    for k, q in enumerate(qs):
        where = (f"level {k + 1} of {len(qs)} "
                 f"({q.surface.n_classes} classes)")
        if k:
            u, phi = q.surface.prolong(u), q.surface.prolong(phi)
        try:
            u, phi, t, it = solve_fold(q, u, phi, t, tol)
        except NonConvergence as exc:
            raise NoFoldDetected(
                f"extended-system solve failed on {where}: {exc}") from exc
        if k == 0 and t <= p.t:
            raise NoFoldDetected(
                f"extended-system solve on {where} ended at t = {t:.10g}, "
                f"not a fold beyond t = {p.t:.10g}")
        levels.append({"classes": q.surface.n_classes, "T0": t,
                       "fold_newton_iterations": it})
    if q.surface.mass_diag @ phi < 0.0:
        phi = -phi
    try:
        fold = newton_solve(u, t, q, tol=tol, positive=phi)
    except (NonConvergence, EigenFailure) as exc:
        raise NoFoldDetected(f"fold classification failed on {where}: "
                             f"{exc}") from exc
    bounds = fold.meta.get("lambda_bounds")
    lo, hi = bounds or (fold.lambda_min, fold.lambda_min)
    if lo < -EPS_FOLD or hi > EPS_FOLD:
        within = f" in [{lo:.3g}, {hi:.3g}]" if bounds else ""
        raise NoFoldDetected(
            f"extended-system solve on {where} ended at t = {fold.t:.10g} "
            f"with lambda_min = {fold.lambda_min:.3g}{within}, not a fold")
    return fold, levels


def normal_form(q: CubicDifferential, fold: SolutionPoint):
    """(phi, a, b): the fold's null vector and its quadratic normal form.

    phi is the fold point's M-normalized eigenvector, signed so that
    sum m phi > 0.  With F the structure equation's nodal residual,

        a = <phi, F_uu[phi, phi]>_M
          = -sum m (2 e^u + 64 t^2 ||q||^2 e^{-2u}) phi^3,
        b = <phi, F_t>_M = -sum m 32 t ||q||^2 e^{-2u} phi,

    both negative for a positive phi, so the fold is quadratic (a != 0)
    and transversal (b != 0).  Near T0 the two branches are
    u ~ u* +- s phi with s^2 = 2 b (T0 - t) / a, the stable one at +s.
    """
    m, t, u = q.surface.mass_diag, fold.t, fold.u
    phi = fold.eigenvector
    if m @ phi < 0.0:
        phi = -phi
    w = m * q.norm_sq * np.exp(-2.0 * u)       # M ||q||^2 e^{-2u}
    a = -float((2.0 * m * np.exp(u) + 64.0 * t * t * w) @ phi ** 3)
    b = -32.0 * t * float(w @ phi)
    return phi, a, b


def nonexistence_bound(q: CubicDifferential) -> float:
    """Upper bound T beyond which the structure equation has no solution."""
    denom = integrate(q.surface, norm_field(q) ** (2.0 / 3.0))
    if denom <= 0.0:
        raise ZeroCubic("integral of ||q||^(2/3) vanishes")
    return (0.5 * q.surface.area / denom) ** 1.5
