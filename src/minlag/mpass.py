"""Reformulated functional with cutoff nonlinearities and mountain-pass search.

The structure equation is recast as -Delta u + V u = f1(u) + V f2(u) with
V = 16 t^2 ||q||^2 (`pde.v_field`) and cutoff functions

    f1(s) = 2 - 2 e^s        (s <= 0),   -theta s^(theta-1)  (s > 1),
    f2(s) = s - e^{-2s}      (s <= 0),   0                   (s > 1),

joined on (0, 1) by quintic blends that match value and first derivative at
both ends, stay negative inside, and integrate to the exact jump of the
closed-form antiderivatives F1, F2 so that F1' = f1 and F2' = f2 globally.
Both equations have the same solution set: any critical point of

    F(u) = 1/2 integral (|grad u|^2 + V u^2) - integral (F1(u) + V F2(u))

with u <= 0 solves the structure equation, and conversely.  The growth
exponent theta > 2 is a device of the existence proof: it gives F the
Ambrosetti-Rabinowitz growth condition.  The cutoffs depend on it only for
s > 0, so every critical point with u <= 0 is a solution whatever theta is,
and it is the constant THETA = 3.  The functional and its gradient take
the cutoffs fused, one kernel (`_pointwise`) over the whole field: on
u <= 0 the V u^2 terms of F cancel, so the s <= 0 closed form costs one
e^u and one e^{-2u} per entry, and only the positive entries are then
overwritten with the blends or the s > 1 branch.  The cutoffs one by one
are needed only by the tests (tests/reference.py), which check the kernel
against them.  The second (mountain-pass) solution at t in (0, T0) is
found by the local minimax method of Li and Zhou (SIAM J. Sci. Comput.
23, 2001): among the rays from the stable field (which the mpass command
takes from `continuation.branch_point`) it seeks one whose maximum of F is
least, then polishes that ray's peak with `pde.solve_u`, Newton on the
structure equation itself.  A mountain-pass critical point
has Morse index at most 1 (Hofer, Proc. AMS 90, 1984), so the polish is
tried only where L has index 1, read from the pivots of its LU.
The point found is classified by `pde.newton_solve`, which returns it with
residual norm at most tol and its smallest eigenpair.
Every function reads the surface from the cubic differential (`q.surface`)
and ||q||^2 from its cache (`q.norm_sq`).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from numpy.polynomial import polynomial as P

from .cubic import CubicDifferential
from .pde import (BLOWUP_THRESHOLD, MIN_DAMPING, TOL_POS, NonConvergence,
                  SolutionPoint, linearize, newton_solve, solve_u, v_field)
from .surface import NumericalFailure

THETA = 3.0           # growth exponent of the cutoffs for s > 1
EPS_UNSTABLE = 1e-4   # mountain-pass points must have lambda_min below this
MAX_STEPS = 600       # descent steps of the minimax over rays
GATE_NORM = 0.5       # gradient M-norm below which the first polish is tried
PEAK_ITER = 50        # Newton steps of one peak selection
PEAK_TOL = 1e-12      # relative Newton step at which a peak is found


class DegenerateNorm(ValueError):
    """integral V = 0: the V-inner product is not a norm (t = 0 or q = 0)."""


class PathCollapse(NumericalFailure):
    """The minimax over rays found no second critical point."""


class VerificationFailure(NumericalFailure):
    """A computed critical point violates the cutoff-equivalence checks."""


# ---------------------------------------------------------------------------
# cutoff construction


def _hermite_blend(v0, d0, v1, d1, jump, curv0):
    """Quintic on [0,1] matching end values/slopes, a prescribed integral,
    and the left second derivative.

    Returns polynomial coefficients (ascending).  The basis is the cubic
    Hermite interpolant plus a*s^2(1-s)^2 + b*s^2(1-s)^3, both of which keep
    the end values and slopes; integral and curvature constraints fix (a, b).
    """
    h = np.zeros(6)
    h[0] = v0
    h[1] = d0
    h[2] = -3 * v0 - 2 * d0 + 3 * v1 - d1
    h[3] = 2 * v0 + d0 - 2 * v1 + d1
    p4 = np.array([0.0, 0.0, 1.0, -2.0, 1.0, 0.0])        # s^2 (1-s)^2
    p5 = np.array([0.0, 0.0, 1.0, -3.0, 3.0, -1.0])       # s^2 (1-s)^3

    def poly_int01(c):
        return sum(ck / (k + 1) for k, ck in enumerate(c))

    # [integral, f''(0)] conditions on the two free coefficients
    A = np.array([[poly_int01(p4), poly_int01(p5)], [2.0, 2.0]])
    rhs = np.array([jump - poly_int01(h), curv0 - 2.0 * h[2]])
    a, b = np.linalg.solve(A, rhs)
    return h + a * p4 + b * p5


# Each blend is `_hermite_blend` with the curvature of its left branch at 0;
# at THETA = 3 both are negative on (0, 1), which `test_cutoff_sign_conditions`
# checks.  f1 matches 2 - 2e^s at 0 and -THETA s^(THETA-1) at 1; its integral
# over (0,1) must equal F1(1+) - F1(0-) = -1 so that F1' = f1
# distributionally.
_BLEND1 = _hermite_blend(v0=0.0, d0=-2.0, v1=-THETA, d1=-THETA * (THETA - 1.0),
                         jump=-1.0, curv0=-2.0)
# f2 matches s - e^{-2s} at 0 and 0 at 1; integral equals 0 - 1/2.
_BLEND2 = _hermite_blend(v0=-1.0, d0=3.0, v1=0.0, d1=0.0, jump=-0.5,
                         curv0=-4.0)

# The pointwise parts of F's integrand and of its gradient,
#     1/2 V s^2 - F1(s) - V F2(s)   and   V s - f1(s) - V f2(s).
# On s <= 0 their V s^2 and V s terms cancel, leaving
#     -(2s - 2e^s + 2) - 1/2 V e^{-2s}   and   2e^s - 2 + V e^{-2s}.
# On (0, 1] each is A(s) + V B(s), with the (A, B) coefficients below (F1(0)
# = 0 and F2(0) = 1/2 fix the antiderivatives); on s > 1, where F1 = -s^THETA
# and F2 = 0, they are 1/2 V s^2 + s^THETA and V s + THETA s^(THETA-1).
_VALUE_BLEND = (-P.polyint(_BLEND1, k=0.0),
                P.polysub([0.0, 0.0, 0.5], P.polyint(_BLEND2, k=0.5)))
_GRADIENT_BLEND = (-_BLEND1, P.polysub([0.0, 1.0], _BLEND2))


def _horner(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The polynomial with ascending coefficients c at s."""
    out = np.full_like(s, c[-1])
    for ck in c[-2::-1]:
        out *= s
        out += ck
    return out


def _pointwise(U: np.ndarray, V: np.ndarray, gradient: bool) -> np.ndarray:
    """The pointwise part of F's integrand at each entry of U, or with
    `gradient` that of its gradient.

    The s <= 0 closed form is taken over the whole array, with e^s and
    e^{-2s} once per entry, and only the positive entries are then
    overwritten.  A NaN entry is not positive, so it propagates.
    """
    e, e2 = np.exp(U), np.exp(-2.0 * U)
    if gradient:
        out = 2.0 * e - 2.0 + V * e2
    else:
        out = -(2.0 * U - 2.0 * e + 2.0) - 0.5 * V * e2
    pos = U > 0.0
    if pos.any():
        s, v = U[pos], np.broadcast_to(V, U.shape)[pos]
        a, b = _GRADIENT_BLEND if gradient else _VALUE_BLEND
        blend = _horner(a, s) + v * _horner(b, s)
        if gradient:
            top = v * s + THETA * s ** (THETA - 1.0)
        else:
            top = 0.5 * v * s * s + s ** THETA
        out[pos] = np.where(s > 1.0, top, blend)
    return out


# ---------------------------------------------------------------------------
# functional and gradient


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of a with the same row of b.

    Over C-contiguous rows each row sums in the order it would alone, so a
    stack's row and the same field alone give the same bits; a strided row
    would sum in another order.
    """
    return np.einsum("ij,ij->i", a, np.ascontiguousarray(b))


def functional_value(u: np.ndarray, t: float, q: CubicDifferential):
    """F(u) = 1/2 integral(|grad u|^2 + V u^2) - integral(F1(u) + V F2(u)).

    A (k, n) stack of fields gives the k values, each bitwise equal to the
    value of its row alone.
    """
    s = q.surface
    U = np.atleast_2d(np.asarray(u, dtype=float))
    m = np.broadcast_to(s.mass_diag, U.shape)
    # overflowing trial fields yield inf/nan, rejected by the line searches
    with np.errstate(over="ignore", invalid="ignore"):
        vals = 0.5 * _row_dots(U, (s.stiffness @ U.T).T) \
            + _row_dots(m, _pointwise(U, v_field(t, q), gradient=False))
    return float(vals[0]) if np.ndim(u) == 1 else vals


def functional_gradient(u: np.ndarray, t: float,
                        q: CubicDifferential) -> np.ndarray:
    """Nodal gradient field g with dF(u)[v] = <g, v>_M."""
    s = q.surface
    u = np.asarray(u, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        return (s.stiffness @ u) / s.mass_diag \
            + _pointwise(u, v_field(t, q), gradient=True)


# ---------------------------------------------------------------------------
# mountain pass


def find_mountain_pass(u_stable: np.ndarray, t: float,
                       q: CubicDifferential,
                       tol: float = 1e-10) -> SolutionPoint:
    """Second critical point of F at t, given the stable field u_stable at t.

    Runs the local minimax method of Li and Zhou (SIAM J. Sci. Comput. 23,
    2001) over the rays u_stable + s v from the stable point, with v of unit
    norm in the inner product of H = L(u_stable), which is positive definite
    at a stable point and is factorized once.  It has four parts.

    - Peak selection.  The peak p(v) = u_stable + s*(v) v is the local
      maximum of F on the ray, where <grad F(p), v>_M = 0 and the second
      derivative v^T L(p) v (`DiscreteSurface.apply`) is negative.  It is
      found by Newton on s, safeguarded by a bracket whose top is where the
      ray leaves the overflow guard (min p = `pde.BLOWUP_THRESHOLD`), with
      bisection when the Newton step is not a step up to a maximum inside
      the bracket.  No move, Newton's or bisection's, goes past 2s: where
      F is nearly flat a Newton step inside the bracket can land where
      e^{-2u} is huge, and the search never climbs back.  It starts at the
      last s*, and on the first ray, v along -1, at the s that lowers u
      by 1.
    - Descent.  With g the nodal gradient at the peak, v steps to
      normalize(v - alpha H^{-1}(M g) / s*), and alpha halves until F at
      the new peak is below F at the old one by Armijo's 1e-4 alpha
      <g, H^{-1} M g>_M; an accepted alpha doubles, up to 1, for the next
      step.  Each step keeps the search on the ridge: every point it visits
      is a ray's maximum.
    - Gate.  Once the gradient's M-norm falls below GATE_NORM, L(p) is
      factorized, and `pde.solve_u`, Newton on the structure equation, is
      run from p with that LU when L(p) has Morse index 1, or one
      `ShiftedLU.morse_index` cannot read (an off-diagonal pivot).  The
      saddle sought has index 1 (Hofer 1984).  A singular L admits no
      polish.  A polished point V-separated from u_stable ends the search;
      after any other gate the next one waits until the gradient's M-norm
      has halved.  The cutoff equivalence justifies the polish: for
      u <= 0, grad F = 0 is the structure equation, and the verification
      below checks u <= 0.
    - Stop.  PathCollapse is raised after MAX_STEPS descent steps, when the
      first ray has no peak, and when alpha falls below `pde.MIN_DAMPING`
      (the damping floor of Newton's line search) with F not lowered.

    DegenerateNorm is raised when integral V = 0 (t = 0 or q = 0), where
    the V-norm that measures the separation is not a norm.  MAX_STEPS,
    GATE_NORM, PEAK_ITER and PEAK_TOL are module constants, not options: no
    caller, config or benchmark workload needs other values.

    The result is verified against the cutoff equivalence: u <= 0 within
    TOL_POS, then `pde.newton_solve` from it at tol, which returns the
    point only at structure-equation residual at most tol, and its
    smallest eigenvalue at most EPS_UNSTABLE (a second minimizer would
    signal a path collapse).  The point returned is `newton_solve`'s with
    the search's own `meta`: path_iterations (descent steps),
    vnorm_separation and path_nodes (gates tried).
    """
    s, V = q.surface, v_field(t, q)
    m = s.mass_diag
    if float(m @ V) <= 0.0:
        raise DegenerateNorm("integral V = 0; V-norm requires t > 0 and q != 0")
    p_stable = linearize(u_stable, t, q)
    hessian_lu = s.factorize(p_stable)

    def hnorm(x):
        """Norm of x in the inner product of L(u_stable)."""
        return np.sqrt(float(x @ s.apply(p_stable, x)))

    def peak(v, x):
        """(s*, p, g) of the peak on the ray along v, from s = x; None when
        PEAK_ITER Newton steps do not reach it."""
        down = v < 0.0
        lo = 0.0
        hi = float(np.min((u_stable[down] - BLOWUP_THRESHOLD) / -v[down])) \
            if down.any() else np.inf
        x = min(x, 0.5 * hi)
        for _ in range(PEAK_ITER):
            p = u_stable + x * v
            g = functional_gradient(p, t, q)
            d1 = float(m @ (g * v))
            d2 = float(v @ s.apply(linearize(p, t, q), v))
            if d2 < 0.0 and abs(d1) <= PEAK_TOL * x * -d2:
                return x, p, g
            if d1 > 0.0:
                lo = x
            else:
                hi = x
            x_new = x - d1 / d2
            if not (d2 < 0.0 and lo < x_new < hi):
                x_new = 0.5 * (lo + hi)
            x = min(x_new, 2.0 * x)
        return None

    def gate_lu(u):
        """The LU of L(u) when L has Morse index 1, or one its LU cannot
        read; None otherwise.  A singular L admits no polish: its Newton
        solve would fail at once.  The polish's first step solves with it."""
        try:
            lu = s.factorize(linearize(u, t, q))
        except RuntimeError:
            return None
        return lu if lu.morse_index() in (1, None) else None

    v = -np.ones(s.n_classes)
    unit = hnorm(v)        # the s that lowers u by 1
    v /= unit
    ray = peak(v, unit)
    if ray is None:
        raise PathCollapse("F has no peak on the ray along -1")
    x, p, g = ray
    f = functional_value(p, t, q)
    alpha, gate, gates = 1.0, GATE_NORM, 0
    for steps in range(MAX_STEPS + 1):
        gnorm = np.sqrt(float(m @ g ** 2))
        if gnorm < gate:
            gates += 1
            gate = 0.5 * gnorm
            if (lu := gate_lu(p)) is not None:
                try:
                    u2, _, _ = solve_u(p, t, q, tol, lu)
                except NonConvergence:
                    pass
                else:
                    du = u2 - u_stable
                    sep = np.sqrt(float(du @ s.apply(V, du)))
                    if sep > 10.0 * tol:
                        break
        if steps == MAX_STEPS:
            raise PathCollapse(
                f"no critical point in {MAX_STEPS} descent steps")
        d = hessian_lu.solve(m * g)
        decrease = 1e-4 * float(m @ (g * d))
        while True:
            w = v - (alpha / x) * d
            w /= hnorm(w)
            ray = peak(w, x)
            if ray is not None:
                f_new = functional_value(ray[1], t, q)
                if f_new <= f - alpha * decrease:
                    break
            alpha *= 0.5
            if alpha < MIN_DAMPING:
                raise PathCollapse(
                    f"no descent step lowers F after {steps} steps")
        v, (x, p, g), f = w, ray, f_new
        alpha = min(2.0 * alpha, 1.0)

    if u2.max() > TOL_POS:
        raise VerificationFailure(
            f"critical point violates u <= 0: max u = {u2.max():.3g}")
    p2 = newton_solve(u2, t, q, tol)
    if p2.lambda_min > EPS_UNSTABLE:
        raise VerificationFailure(
            f"second critical point is stable (lambda_min = "
            f"{p2.lambda_min:.3g}); the path converged to another minimizer")
    return replace(p2, meta={"path_iterations": steps,
                             "vnorm_separation": sep, "path_nodes": gates})
