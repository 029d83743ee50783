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
and it is the constant THETA = 3.  So the cutoffs f1, f2, F1, F2 are module
functions, built once at import.  The second (mountain-pass) solution at t
in (0, T0) is found by deforming a discrete path from the stable field
(which the mpass command takes from `continuation.branch_point`) to a deep
negative constant, then polishing the path maximum with `pde.solve_u`,
Newton on the structure equation itself.  A mountain-pass critical point
has Morse index at most 1 (Hofer, Proc. AMS 90, 1984), so the polish is
tried only where L has index 1, read from the pivots of its LU.
Every function reads the surface from the cubic differential (`q.surface`)
and ||q||^2 from its cache (`q.norm_sq`).
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as P
import scipy.sparse as sp

from .cubic import CubicDifferential
from .pde import (TOL_POS, NonConvergence, SolutionPoint, linearize,
                  residual, smallest_eigenvalue, solve_u, v_field)

THETA = 3.0           # growth exponent of the cutoffs for s > 1
EPS_UNSTABLE = 1e-4   # mountain-pass points must have lambda_min below this
PATH_NODES = 20       # nodes of the first mountain-pass path
MAX_SWEEPS = 600      # relaxation sweeps per path
POLISH_PERIOD = 5     # a Newton polish at least every this many sweeps


class DegenerateNorm(ValueError):
    """integral V = 0: the V-inner product is not a norm (t = 0 or q = 0)."""


class PathCollapse(RuntimeError):
    """The deformed path slid back to the stable minimizer."""


class VerificationFailure(RuntimeError):
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


def _piecewise(neg_fn, blend_coeffs, pos_fn):
    """Vectorized cutoff: `neg_fn` for s <= 0, the blend on (0, 1] and
    `pos_fn` for s > 1.

    A field with no positive entry, as on most of a mountain-pass path, goes
    to `neg_fn` whole.  NaN counts as not positive, so it propagates.
    """
    def fn(s):
        scalar = np.isscalar(s)
        s = np.atleast_1d(np.asarray(s, dtype=float))
        pos = s > 0.0
        with np.errstate(over="ignore"):
            if not pos.any():
                out = neg_fn(s)
            else:
                out = np.empty_like(s)
                hi = s > 1.0
                mid = pos & ~hi
                out[~pos] = neg_fn(s[~pos])
                out[mid] = P.polyval(s[mid], blend_coeffs)
                out[hi] = pos_fn(s[hi])
        return float(out[0]) if scalar else out
    return fn


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

f1 = _piecewise(lambda s: 2.0 - 2.0 * np.exp(s), _BLEND1,
                lambda s: -THETA * s ** (THETA - 1.0))
f2 = _piecewise(lambda s: s - np.exp(-2.0 * s), _BLEND2,
                lambda s: np.zeros_like(s))
# F1(0) = 0 matches 2s - 2e^s + 2 from the left
F1 = _piecewise(lambda s: 2.0 * s - 2.0 * np.exp(s) + 2.0,
                P.polyint(_BLEND1, k=0.0), lambda s: -s ** THETA)
# F2(0) = 1/2 matches (s^2 + e^{-2s})/2
F2 = _piecewise(lambda s: 0.5 * (s * s + np.exp(-2.0 * s)),
                P.polyint(_BLEND2, k=0.5), lambda s: np.zeros_like(s))


# ---------------------------------------------------------------------------
# functional, gradient, V-norm


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of a with the same row of b.

    Each is one 1-D dot of C-contiguous rows, so it sums in the order of a
    dot of single fields; a strided row would sum in another order.
    """
    return np.array([x @ y for x, y in zip(a, np.ascontiguousarray(b))])


def functional_value(u: np.ndarray, t: float, q: CubicDifferential):
    """F(u) = 1/2 integral(|grad u|^2 + V u^2) - integral(F1(u) + V F2(u)).

    A (k, n) stack of fields gives the k values, each bitwise equal to the
    value of its row alone.
    """
    s = q.surface
    U = np.atleast_2d(np.asarray(u, dtype=float))
    V = v_field(t, q)
    m = np.broadcast_to(s.mass_diag, U.shape)
    # overflowing trial fields yield inf/nan, rejected by the line searches
    with np.errstate(over="ignore", invalid="ignore"):
        quad = 0.5 * _row_dots(U, (s.stiffness @ U.T).T) \
            + 0.5 * _row_dots(m, V * U * U)
        bulk = _row_dots(m, F1(U) + V * F2(U))
        vals = quad - bulk
    return float(vals[0]) if np.ndim(u) == 1 else vals


def functional_gradient(u: np.ndarray, t: float,
                        q: CubicDifferential) -> np.ndarray:
    """Nodal gradient field g with dF(u)[v] = <g, v>_M."""
    s = q.surface
    u = np.asarray(u, dtype=float)
    V = v_field(t, q)
    with np.errstate(over="ignore", invalid="ignore"):
        weak = s.stiffness @ u + s.mass_diag * (V * u - f1(u) - V * f2(u))
        return weak / s.mass_diag


def v_gram(t: float, q: CubicDifferential) -> sp.csr_matrix:
    """Gram matrix of the V-inner product: int grad f.grad g + V f g."""
    V = v_field(t, q)
    if float(q.surface.mass_diag @ V) <= 0.0:
        raise DegenerateNorm("integral V = 0; V-norm requires t > 0 and q != 0")
    return q.surface.shifted(V)


# ---------------------------------------------------------------------------
# mountain pass


def _negative_endpoint(f_target, t, q):
    """Constant field w with F(w) strictly below f_target; exists because
    F(k) -> -infinity for constants k -> -infinity."""
    n = q.surface.n_classes
    k = -1.0
    while k > -200.0:
        w = np.full(n, k)
        if functional_value(w, t, q) < f_target - 1.0:
            return w
        k *= 2.0
    raise VerificationFailure("no negative constant with low functional value")


def find_mountain_pass(u_stable: np.ndarray, t: float,
                       q: CubicDifferential,
                       tol: float = 1e-10) -> SolutionPoint:
    """Second critical point of F at t, given the stable field u_stable at t.

    Runs a discretized min-max, the path deformation of Choi and McKenna.
    The path is one (nodes, n_classes) array, at first the straight
    PATH_NODES-node path from u_stable to a deep negative constant.  Each
    sweep resamples it at uniform V-arclength with the endpoints fixed,
    takes its interior node of highest F and moves that node by one
    backtracked descent step preconditioned with the V-Gram matrix.  The
    node as it was before the step is then a polish candidate when its
    gradient norm is below 0.1, on every POLISH_PERIOD-th sweep, and when
    the step could not lower F.  A candidate is polished by `pde.solve_u`,
    Newton on the structure equation, only when L there has Morse index 1,
    or one `ShiftedLU.morse_index` cannot read (an off-diagonal pivot).
    The saddle sought has index 1 (Hofer 1984); on the octagons and tori
    measured, every solve started at another index failed or came back to
    u_stable.  A singular L admits no polish.  The gate costs one LU of L
    per candidate.  The cutoff equivalence justifies the polish: for
    u <= 0, grad F = 0 is the structure equation, and the verification
    below checks u <= 0.  A polished point V-separated from u_stable ends
    the search.  A step that cannot lower F, or MAX_SWEEPS sweeps, end the
    path; it restarts with twice the nodes, twice at most, and then
    PathCollapse is raised.

    The three are module constants, not options: no caller, config or
    benchmark workload needs other values, and the node doubling already
    refines a path that is too coarse.

    The result is verified against the cutoff equivalence: u <= 0 within
    TOL_POS, structure-equation residual at most 10*tol, and smallest
    eigenvalue of the linearization at most EPS_UNSTABLE (a second
    minimizer would signal a path collapse).
    """
    m = q.surface.mass_diag
    gram = v_gram(t, q)                         # raises DegenerateNorm at t=0
    gram_lu = q.surface.factorize(v_field(t, q))

    f_stable = functional_value(u_stable, t, q)
    w = _negative_endpoint(f_stable, t, q)

    def vnorms(X):
        """V-norm of each row of X."""
        return np.sqrt(_row_dots(X, (gram @ X.T).T))

    def admits_polish(u):
        """Whether L(u) has Morse index 1, or one its LU cannot read.

        A singular L, or a u below the overflow guard (`ResidualBlowup`,
        also a RuntimeError), admits no polish: its Newton solve would
        fail at once.
        """
        try:
            lu = q.surface.factorize(linearize(u, t, q).potential)
        except RuntimeError:
            return False
        return lu.morse_index() in (1, None)

    def relax(nodes):
        """(u, V-norm separation, sweeps), or None."""
        tau = np.linspace(0.0, 1.0, nodes)[:, None]
        path = (1.0 - tau) * u_stable + tau * w
        step = 1.0
        for sweeps in range(1, MAX_SWEEPS + 1):
            # interior targets lie strictly inside the arclength range, so
            # each falls in a segment of positive length
            seg = vnorms(np.diff(path, axis=0))
            cum = np.concatenate([[0.0], np.cumsum(seg)])
            targets = np.linspace(0.0, cum[-1], nodes)[1:-1]
            i = np.searchsorted(cum, targets) - 1
            frac = ((targets - cum[i]) / seg[i])[:, None]
            path[1:-1] = (1.0 - frac) * path[i] + frac * path[i + 1]

            vals = functional_value(path[1:-1], t, q)
            j = int(np.argmax(vals)) + 1
            u_top = path[j].copy()
            g = functional_gradient(u_top, t, q)
            gnorm = np.sqrt(float(m @ g ** 2))
            d = gram_lu.solve(m * g)   # descent in the V-inner product
            alpha, moved = step, False
            for _ in range(40):
                u_try = u_top - alpha * d
                if functional_value(u_try, t, q) < vals[j - 1]:
                    path[j] = u_try
                    step = min(alpha * 2.0, 1.0)
                    moved = True
                    break
                alpha *= 0.5

            # polish candidates near stationarity where L has Morse index 1;
            # keep deforming if Newton fails or lands back on the stable
            # minimizer
            if ((gnorm < 0.1 or sweeps % POLISH_PERIOD == 0 or not moved)
                    and admits_polish(u_top)):
                try:
                    u, _, _ = solve_u(u_top, t, q, tol)
                except NonConvergence:
                    pass
                else:
                    sep = float(vnorms((u - u_stable)[None])[0])
                    if sep > 10.0 * tol:
                        return u, sep, sweeps
            if not moved:
                return None
        return None

    for nodes in (PATH_NODES, 2 * PATH_NODES, 4 * PATH_NODES):
        found = relax(nodes)
        if found is not None:
            break
    else:
        raise PathCollapse(
            f"path slid back to the stable solution for up to {nodes} nodes")
    u2, sep, sweeps = found

    if u2.max() > TOL_POS:
        raise VerificationFailure(
            f"critical point violates u <= 0: max u = {u2.max():.3g}")
    rnorm = float(np.sqrt(m @ residual(u2, t, q) ** 2))
    if rnorm > 10.0 * tol:
        raise VerificationFailure(
            f"structure-equation residual {rnorm:.3g} exceeds 10*tol")
    lam, _ = smallest_eigenvalue(linearize(u2, t, q))
    if lam > EPS_UNSTABLE:
        raise VerificationFailure(
            f"second critical point is stable (lambda_min = {lam:.3g}); "
            "the path converged to another minimizer")

    return SolutionPoint(u=u2, t=float(t), residual_norm=rnorm,
                         lambda_min=lam, stable=False,
                         meta={"path_iterations": sweeps,
                               "vnorm_separation": sep,
                               "path_nodes": nodes})
