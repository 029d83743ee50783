"""Discrete conformal surfaces and their Laplace operators.

Two mesh backends are provided:

* a flat square torus with a constant conformal factor, used as the test
  domain where constant-data closed forms exist, and
* a regular hyperbolic octagon in the Poincare disk with all vertex angles
  pi/4, sides glued by the standard pairing a b a^-1 b^-1 c d c^-1 d^-1,
  which gives a closed genus-2 surface of area 4*pi.  Each side is an
  ordered list of chart vertices; those of side i are snapped onto the
  images of side j's vertices under the pairing isometry, so the
  identification is exact.

Assembly raises `MeshError` for any triangle that is not counterclockwise
with positive area; the builders rely on that check for orientation.

The metric is lambda(z) |dz|^2 in chart coordinates.  A surface assembles
its stiffness matrix K and lumped mass M on construction, and it factorizes
every K + M diag(p) in one fill-reducing column order, computed at its
first factorization (`DiscreteSurface.factorize`).  The P1 stiffness
matrix uses flat cotangent weights (the Dirichlet energy is conformally
invariant in two dimensions, so no curvature correction is needed), and the
mass matrix is lumped with the conformal factor interpolated linearly over
each triangle.  Scalar fields live on vertex *classes*, i.e. on the quotient
surface after boundary identification.

Both backends nest: an octagon of refinement r >= 2 refines the one of
refinement r - 1, and a torus of even n with n/2 >= 4 refines the torus of
n/2.  Such a surface records its next coarser level (`Nesting`) without
building it, and `DiscreteSurface.prolong` carries a field up from there:
every class that is not a coarse vertex is the midpoint of one coarse edge
and takes the mean of that edge's two end classes (P1 prolongation).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components


class MeshError(RuntimeError):
    """Raised when mesh construction or assembly produces degenerate data."""


def _splu(A: sp.csc_matrix, permc_spec: str) -> spla.SuperLU:
    """The package's one sparse LU, of a matrix with K's symmetric pattern.

    Symmetric mode prefers diagonal pivots, which keeps the fill of the
    symmetric column order; threshold pivoting (1e-3) still handles an
    indefinite K + M diag(p).  Raises RuntimeError when A is singular.
    """
    return spla.splu(A, permc_spec=permc_spec, diag_pivot_thresh=1e-3,
                     options={"SymmetricMode": True})


class ShiftedLU:
    """LU of K + M diag(p), factorized in the surface's column order.

    Besides solves it gives the Morse index of (K + M diag(p), M) from its
    pivots, when they all lie on the diagonal.
    """

    def __init__(self, lu: spla.SuperLU, order: np.ndarray, pos: np.ndarray):
        self._lu, self._order, self._pos = lu, order, pos

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with (K + M diag(p)) x = b, for b of shape (n,) or (n, k)."""
        return self._lu.solve(b[self._order])[self._pos]

    def morse_index(self) -> int | None:
        """Number of negative eigenvalues of (K + M diag(p), M), or None.

        When SuperLU took every pivot on the diagonal (`perm_r == perm_c`),
        the symmetric P A P^T factors as L D L^T with D the diagonal of U.
        Sylvester's law of inertia then gives the negative eigenvalues of
        A = K + M diag(p) as the negative entries of D, and those of A
        against the positive diagonal M are as many.  Threshold pivoting
        may take a pivot off the diagonal, which breaks the symmetry of the
        elimination; then the count says nothing and None is returned.
        """
        lu = self._lu
        if not np.array_equal(lu.perm_r, lu.perm_c):
            return None
        return int(np.count_nonzero(lu.U.diagonal() < 0.0))


@dataclass(frozen=True)
class Nesting:
    """How a surface refines the next coarser level of its hierarchy."""

    coarse: Callable[[], DiscreteSurface]     # builds that level
    vertices: np.ndarray   # this surface's chart vertex at each coarse one
    parents: np.ndarray    # (n_classes, 2): each class's two coarse parent
                           # classes, one class twice where it is coarse


@dataclass
class DiscreteSurface:
    """Triangulated fundamental domain plus quotient identification.

    The stiffness matrix K and the lumped mass M are assembled on
    construction.  The convention is weak: <Delta f, g> = -integral
    grad f . grad g, so f^T K g = integral grad f . grad g and the discrete
    Laplacian field is -(K f) / diag(M).

    Attributes
    ----------
    vertices : complex array, shape (Vc,)
        Chart coordinates of all mesh vertices, including duplicates on
        identified boundary edges.
    triangles : int array, shape (T, 3)
        Counterclockwise triangles indexing chart vertices.
    class_of : int array, shape (Vc,)
        Quotient class index of each chart vertex.
    conformal_factor : float array, shape (Vc,)
        Metric factor lambda at each chart vertex (chart dependent on the
        octagon, constant on the torus).
    genus : int
    stiffness : sparse CSR matrix, shape (n_classes, n_classes)
        Cotangent stiffness K on quotient classes.
    mass_diag : float array, shape (n_classes,)
        Diagonal of the lumped mass M.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    class_of: np.ndarray
    conformal_factor: np.ndarray
    genus: int
    side_pairings: list = field(default_factory=list)
    nesting: Nesting | None = field(default=None, repr=False)
    stiffness: sp.csr_matrix = field(init=False, repr=False)
    mass_diag: np.ndarray = field(init=False, repr=False)
    _diag: np.ndarray = field(init=False, repr=False)  # K_ii's index in K.data

    def __post_init__(self):
        """Assemble cotangent stiffness and lumped mass over the quotient."""
        z = self.vertices
        tris = self.triangles
        lam = self.conformal_factor
        n = self.n_classes

        p = np.column_stack([z.real, z.imag])[tris]  # (T, 3, 2)
        e = p[:, [2, 0, 1], :] - p[:, [1, 2, 0], :]  # edge opposite vertex i
        area2 = e[:, 0, 0] * e[:, 1, 1] - e[:, 0, 1] * e[:, 1, 0]
        if not np.all(np.isfinite(area2)) or np.any(area2 <= 0):
            raise MeshError("degenerate or misoriented triangle in assembly")
        tri_area = 0.5 * area2

        cls = self.class_of[tris]                    # (T, 3)
        rows, cols, vals = [], [], []
        for i in range(3):
            for j in range(3):
                w = (e[:, i, :] * e[:, j, :]).sum(axis=1) / (4.0 * tri_area)
                rows.append(cls[:, i])
                cols.append(cls[:, j])
                vals.append(w)
        K = sp.csr_matrix(
            (np.concatenate(vals),
             (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n),
        )

        # Lumped mass: integral of lambda * phi_i over each triangle with
        # lambda interpolated linearly, i.e.
        # tri_area * (2*lam_i + lam_j + lam_k) / 12.
        lam_t = lam[tris]
        m = np.zeros(n)
        for i in range(3):
            contrib = tri_area * (2.0 * lam_t[:, i] + lam_t[:, (i + 1) % 3]
                                  + lam_t[:, (i + 2) % 3]) / 12.0
            np.add.at(m, cls[:, i], contrib)
        if not np.all(np.isfinite(K.data)) or not np.all(np.isfinite(m)):
            raise MeshError("non-finite entries in assembled operators")
        # K keeps exactly the entries K + M diag(p) has: its exact zeros
        # (right angles on the torus) go, and every K_ii > 0 stays, so the
        # diagonal is structurally full and `shifted` only rewrites it
        K.eliminate_zeros()
        rows = np.repeat(np.arange(n), np.diff(K.indptr))
        self._diag = np.flatnonzero(K.indices == rows)
        self.stiffness, self.mass_diag = K, m

    @property
    def area(self) -> float:
        """Total area of the quotient surface, the sum of the lumped mass."""
        return float(self.mass_diag.sum())

    def shifted(self, p) -> sp.csr_matrix:
        """K + M diag(p) for a per-class potential p (or a scalar).

        Only the diagonal is written: the result has its own copy of K's
        values but shares K's `indices` and `indptr`.  Its values may be
        changed freely; its sparsity structure must not be, or K changes.
        """
        K = self.stiffness
        data = K.data.copy()
        data[self._diag] += self.mass_diag * p
        return sp.csr_matrix((data, K.indices, K.indptr), shape=K.shape)

    @cached_property
    def _lu_layout(self):
        """K in the column order of `factorize`, and where its diagonal is.

        The order is SuperLU's minimum degree on the pattern of A + A^T
        (`MMD_AT_PLUS_A`) for A = K + M, from one LU made when the surface
        is first factorized.  It depends only on the pattern, so it serves
        every K + M diag(p).  Returns (order, pos, Kp, diag): `order[j]` is
        the class in column j, `pos` its inverse, Kp = K[order][:, order] in
        CSC layout and `Kp.data[diag]` its diagonal, in column order.
        """
        pos = _splu(self.shifted(1.0).tocsc(), "MMD_AT_PLUS_A").perm_c
        order = np.argsort(pos)
        Kp = self.stiffness[order][:, order].tocsc()
        cols = np.repeat(np.arange(len(order)), np.diff(Kp.indptr))
        return order, pos, Kp, np.flatnonzero(Kp.indices == cols)

    def factorize(self, p) -> ShiftedLU:
        """Sparse LU of `shifted(p)` in the surface's column order.

        Its values are a copy of the permuted K plus a diagonal add, and
        SuperLU orders nothing more (`NATURAL`).  Raises RuntimeError when
        the matrix is singular.
        """
        order, pos, Kp, diag = self._lu_layout
        data = Kp.data.copy()
        data[diag] += (self.mass_diag * p)[order]
        A = sp.csc_matrix((data, Kp.indices, Kp.indptr), shape=Kp.shape)
        return ShiftedLU(_splu(A, "NATURAL"), order, pos)

    def prolong(self, f: np.ndarray) -> np.ndarray:
        """P1 prolongation of a per-class field on the next coarser level:
        each class takes the mean of its two parent classes."""
        a, b = self.nesting.parents.T
        return 0.5 * (f[a] + f[b])

    @property
    def n_classes(self) -> int:
        return int(self.class_of.max()) + 1

    @property
    def class_representative(self) -> np.ndarray:
        """Index of the first chart vertex in each class."""
        return np.unique(self.class_of, return_index=True)[1]

    def lambda_classes(self) -> np.ndarray:
        """Conformal factor sampled at class representatives."""
        return self.conformal_factor[self.class_representative]

    def euler_characteristic(self) -> int:
        """V - E + F of the quotient mesh.

        Chart edges interior to the fundamental domain are quotient edges;
        boundary chart edges are glued in pairs by the identification, and
        distinct quotient edges may connect the same class pair, so edges are
        counted by chart incidence rather than by class pairs.
        """
        pairs = self.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        a, b = np.sort(pairs, axis=1).astype(np.int64).T
        counts = np.unique(a * len(self.vertices) + b, return_counts=True)[1]
        interior, boundary = (counts == 2).sum(), (counts == 1).sum()
        if boundary % 2 or (counts > 2).any():
            raise MeshError("mesh is not a surface with pairable boundary")
        n_edges = int(interior + boundary // 2)
        return self.n_classes - n_edges + len(self.triangles)


def integrate(s: DiscreteSurface, f: np.ndarray) -> float:
    """Integrate a per-class scalar field against the area element."""
    f = np.asarray(f, dtype=float)
    if f.shape != (s.n_classes,):
        raise ValueError(f"field has shape {f.shape}, expected ({s.n_classes},)")
    return float(s.mass_diag @ f)


def build_flat_torus(n: int, side: float, lambda0: float) -> DiscreteSurface:
    """Periodic n x n grid on [0, side]^2 with constant conformal factor.

    Parameters
    ----------
    n : grid size per side, at least 4.
    side : physical side length of the square.
    lambda0 : constant metric factor, so the surface area is lambda0*side^2.

    For even n with n/2 >= 4 the grid nests in the one of n/2: vertex
    (2i, 2j) is coarse vertex (i, j), and every other vertex is the midpoint
    of a horizontal, vertical or diagonal (a-c) coarse edge.
    """
    if n < 4:
        raise MeshError("torus grid size must be at least 4")
    if side <= 0 or lambda0 <= 0:
        raise MeshError("side and lambda0 must be positive")

    h = side / n
    m = n + 1
    jj, ii = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    verts = (ii * h + 1j * jj * h).ravel()
    class_of = ((jj % n) * n + (ii % n)).ravel()

    tris = []
    for j in range(n):
        for i in range(n):
            a = j * m + i
            b = j * m + i + 1
            c = (j + 1) * m + i + 1
            d = (j + 1) * m + i
            tris.append((a, b, c))
            tris.append((a, c, d))
    triangles = np.array(tris, dtype=int)

    nesting = None
    nc = n // 2
    if n % 2 == 0 and nc >= 4:
        kc = np.arange(nc + 1)
        jc, ic = np.meshgrid(kc, kc, indexing="ij")
        jf, i_f = np.divmod(np.arange(n * n), n)    # class J n + I is (I, J)
        parents = [((j // 2) % nc) * nc + (i // 2) % nc
                   for i, j in ((i_f, jf), (i_f + 1, jf + 1))]
        nesting = Nesting(
            coarse=partial(build_flat_torus, nc, side, lambda0),
            vertices=(2 * jc * m + 2 * ic).ravel(),
            parents=np.column_stack(parents))

    return DiscreteSurface(
        vertices=verts,
        triangles=triangles,
        class_of=class_of,
        conformal_factor=np.full(m * m, float(lambda0)),
        genus=1,
        nesting=nesting,
    )


# ---------------------------------------------------------------------------
# Poincare disk helpers (metric 4 |dz|^2 / (1 - |z|^2)^2, curvature -1)


def disk_lambda(z: np.ndarray) -> np.ndarray:
    """Hyperbolic conformal factor 4 / (1 - |z|^2)^2."""
    return 4.0 / (1.0 - np.abs(z) ** 2) ** 2


def hyperbolic_midpoint(z1: complex, z2: complex) -> complex:
    """Midpoint of the geodesic segment [z1, z2] in the Poincare disk."""
    w = (z2 - z1) / (1.0 - z1.conjugate() * z2)
    r = abs(w)
    if r == 0.0:
        return z1
    rm = math.tanh(0.5 * math.atanh(r))
    m = w / r * rm
    return (m + z1) / (1.0 + z1.conjugate() * m)


def _mobius_apply(mat: np.ndarray, z: complex) -> complex:
    a, b = mat[0]
    c, d = mat[1]
    return (a * z + b) / (c * z + d)


def _disk_translation(p: complex) -> np.ndarray:
    """Isometry z -> (z - p) / (1 - conj(p) z) as a 2x2 matrix."""
    return np.array([[1.0, -p], [-p.conjugate(), 1.0]], dtype=complex)


def mobius_two_point(p: complex, q: complex, p_img: complex, q_img: complex) -> np.ndarray:
    """Unique orientation-preserving disk isometry with p -> p_img, q -> q_img.

    Requires equal hyperbolic distances d(p, q) = d(p_img, q_img).
    """
    tp = _disk_translation(p)
    tq = _disk_translation(p_img)
    w1 = _mobius_apply(tp, q)
    w2 = _mobius_apply(tq, q_img)
    alpha = cmath.phase(w2) - cmath.phase(w1)
    rot = np.array([[cmath.exp(1j * alpha), 0.0], [0.0, 1.0]], dtype=complex)
    tq_inv = np.array([[1.0, p_img], [p_img.conjugate(), 1.0]], dtype=complex)
    mat = tq_inv @ rot @ tp
    return mat / cmath.sqrt(mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0])


# Side pairs realizing the boundary word a b a^-1 b^-1 c d c^-1 d^-1: side k
# carries the k-th letter, so paired sides are two apart within each half.
_OCTAGON_PAIRS = [(0, 2), (1, 3), (4, 6), (5, 7)]


def build_genus2_octagon(refinement: int) -> DiscreteSurface:
    """Triangulated regular hyperbolic octagon with genus-2 identification.

    The octagon has all vertex angles pi/4 (vertices at Euclidean radius
    2^(-1/4)), so the eight corners glue to a single smooth point and the
    quotient is a closed genus-2 surface.  `refinement` counts recursive
    4-way subdivisions of the initial 16-triangle fan; all edge midpoints are
    hyperbolic midpoints.  Each side is an ordered list of chart vertices
    from corner k to corner k + 1, refined with the triangles.  For each
    pairing (i, j, g) the vertices inside side i are snapped onto the images
    under g of side j's vertices, and the two lists are glued entry by
    entry, so boundary identification is exact.  The corners are chart
    vertices 1..8 and keep their exact coordinates.

    For refinement >= 2 the surface nests in the one of refinement - 1:
    that level's chart vertices and classes are a bitwise prefix of these,
    and each further class is the hyperbolic midpoint of one coarse edge.
    """
    if refinement < 1:
        raise MeshError("refinement must be at least 1")

    rv = 2.0 ** -0.25
    corners = [rv * cmath.exp(1j * math.pi * k / 4.0) for k in range(8)]
    verts: list[complex] = [0.0 + 0.0j, *corners]

    # 16-triangle base fan: each side is pre-split at its hyperbolic midpoint
    # so the rim, where the conformal factor is largest, starts twice as fine.
    # Side k runs from corner k (chart vertex 1 + k) through its midpoint
    # (chart vertex 9 + k) to corner k + 1.
    sides = [[1 + k, 9 + k, 1 + (k + 1) % 8] for k in range(8)]
    verts += [hyperbolic_midpoint(verts[a], verts[b]) for a, _, b in sides]
    tris = [t for a, m, b in sides for t in ((0, a, m), (0, m, b))]

    midpoint_cache: dict[frozenset, int] = {}
    ends: list[tuple] = []          # each midpoint's edge, in vertex order

    def midpoint(a: int, b: int) -> int:
        key = frozenset((a, b))
        if key not in midpoint_cache:
            midpoint_cache[key] = len(verts)
            verts.append(hyperbolic_midpoint(verts[a], verts[b]))
            ends.append((a, b))
        return midpoint_cache[key]

    for _ in range(refinement):
        n_coarse = len(verts)       # chart vertices of the level below
        new_tris = []
        for a, b, c in tris:
            mab, mbc, mca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_tris += [(a, mab, mca), (mab, b, mbc), (mca, mbc, c), (mab, mbc, mca)]
        tris = new_tris
        # boundary edges are triangle edges, so their midpoints are cached
        for side in sides:
            side[1:] = [v for a, b in zip(side, side[1:])
                        for v in (midpoint(a, b), b)]
        midpoint_cache.clear()

    # Pairing isometries: g maps side j onto side i reversing the boundary
    # direction, so side i reversed lies on g(side j) entry by entry.
    pairings, glued = [], []
    for i, j in _OCTAGON_PAIRS:
        g = mobius_two_point(corners[j], corners[(j + 1) % 8],
                             corners[(i + 1) % 8], corners[i])
        pairings.append((i, j, g))
        partners = sides[i][::-1]
        for p, v in zip(partners[1:-1], sides[j][1:-1]):   # corners stay exact
            verts[p] = _mobius_apply(g, verts[v])
        glued += zip(sides[j], partners)

    # classes are the components of the gluing graph, numbered in order of
    # their first chart vertex
    gluing = sp.coo_matrix((np.ones(len(glued)), np.array(glued).T),
                           shape=(len(verts), len(verts)))
    _, class_of = connected_components(gluing, directed=False)
    if len(set(class_of[1:9])) != 1:
        raise MeshError("octagon corners did not glue to a single class")

    nesting = None
    if refinement >= 2:
        edge = np.repeat(np.arange(len(verts))[:, None], 2, axis=1)
        edge[n_coarse:] = ends[n_coarse - len(verts):]
        parents = np.empty((class_of.max() + 1, 2), dtype=int)
        parents[class_of] = class_of[edge]     # chart copies agree
        nesting = Nesting(coarse=partial(build_genus2_octagon, refinement - 1),
                          vertices=np.arange(n_coarse), parents=parents)

    vertices = np.array(verts, dtype=complex)
    s = DiscreteSurface(
        vertices=vertices,
        triangles=np.array(tris, dtype=int),
        class_of=class_of,
        conformal_factor=disk_lambda(vertices),
        genus=2,
        side_pairings=pairings,
        nesting=nesting,
    )
    if s.euler_characteristic() != -2:
        raise MeshError("octagon quotient is not a genus-2 surface")
    return s


def mesh_to_json(s: DiscreteSurface) -> dict:
    """Mesh export payload: vertices, triangles, classes, lambda, genus, area."""
    return {
        "vertices": [[float(z.real), float(z.imag)] for z in s.vertices],
        "triangles": s.triangles.tolist(),
        "classes": s.class_of.tolist(),
        "lambda": s.conformal_factor.tolist(),
        "genus": int(s.genus),
        "area": float(s.area),
    }
