"""Discrete conformal surfaces and their Laplace operators.

Two mesh backends are provided: a flat square torus with a constant
conformal factor, the test domain where constant-data closed forms exist,
and a regular hyperbolic octagon in the Poincare disk with all vertex
angles pi/4, sides glued by the standard pairing a b a^-1 b^-1 c d c^-1
d^-1, which gives a closed genus-2 surface of area 4*pi.  Each of the
octagon's four pairing isometries is one hyperbolic translation turned by
rotations about 0, of trace 2 + sqrt 2, all in closed form; the torus is
glued by two translations.  One routine, `_glued_polygon`, refines, glues
and nests both, with a Euclidean or a hyperbolic midpoint rule.

Assembly raises `MeshError` for any triangle that is not counterclockwise
with positive area; the builders rely on that check for orientation.

The metric is lambda(z) |dz|^2 in chart coordinates.  A surface assembles
its stiffness matrix K and lumped mass M on construction.  It is the one
place that knows the form of K + M diag(p): it factorizes it in one
fill-reducing column order, computed at its first factorization
(`DiscreteSurface.factorize`) from an incomplete LU of K + M, which orders
the columns as a full LU would, and applies it (`DiscreteSurface.apply`);
no caller assembles one.  The P1 stiffness matrix uses flat cotangent
weights (the Dirichlet energy is conformally invariant in two dimensions,
so no curvature correction is needed), and the mass matrix is lumped with
the conformal factor interpolated linearly over each triangle.  Scalar
fields live on vertex *classes*, i.e. on the quotient surface after
boundary identification.

A level of a surface's refinement with at least `MIN_CLASSES` classes
belongs to its hierarchy; a surface records its next coarser level
(`Nesting`), a prefix slice of its one build, assembled when called.
`DiscreteSurface.prolong` carries a field up: every class that is not a
coarse vertex is the midpoint of one coarse edge and takes the mean of
that edge's two end classes (P1 prolongation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class NumericalFailure(RuntimeError):
    """Base of every failure of a numerical method; the CLI exits 2 on it."""


class MeshError(NumericalFailure):
    """Raised when mesh construction or assembly produces degenerate data."""


# SuperLU's settings for every LU and for the ILU that orders the columns
# (`_splu`, `DiscreteSurface._lu_layout`)
_SUPERLU = dict(diag_pivot_thresh=1e-3, relax=1, panel_size=1,
                options={"SymmetricMode": True})


def _splu(A: sp.csc_matrix) -> spla.SuperLU:
    """The package's one sparse LU, of a matrix with K's symmetric pattern
    whose columns are already in the surface's order (`NATURAL`).

    Symmetric mode prefers diagonal pivots, which keeps the fill of the
    symmetric column order; threshold pivoting (1e-3) still handles an
    indefinite K + M diag(p).  `relax=1` turns off SuperLU's relaxed
    supernodes (Demmel et al., SIAM J. Matrix Anal. Appl. 20, 1999), which
    merge small subtrees of the elimination tree into supernodes padded
    with explicit zeros: on these meshes that padding costs far more than
    the dense kernels save.  With one BLAS thread on a shared 2-core
    machine, one LU of the octagon's K + M diag(p) takes 45 ms instead of
    130-160 ms at refinement 5 (8190 classes) and 0.25-0.31 s instead of
    6.2-6.8 s at refinement 6 (32766 classes), with the same fill and the
    same pivots.  `panel_size=1` factorizes one column at a time instead of
    SuperLU's default panel of several, whose blocking also costs more than
    it saves at these sizes.  One LU of K + M diag(p), both with
    `relax=1`, minimum of interleaved repeats, one BLAS thread on the same
    machine:

        mesh (classes)          default panel   panel_size=1
        octagon r3 (510)        0.80 ms         0.58 ms
        torus 32 (1024)         1.40 ms         1.09 ms
        octagon r4 (2046)       4.78 ms         4.00 ms
        octagon r5 (8190)       37.8 ms         32.1 ms

    Fill and pivots are the same with either panel on all four meshes, for
    p = 2, -5, -60 and a random indefinite p: the same L + U entries, the
    same negative pivots, and `perm_r == perm_c`.  Raises RuntimeError
    when A is singular.
    """
    return spla.splu(A, permc_spec="NATURAL", **_SUPERLU)


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


# fewest classes of a level of a hierarchy, more than the 8 Lanczos vectors
# of `pde.smallest_eigenvalue`
MIN_CLASSES = 16


@dataclass(frozen=True)
class Nesting:
    """How a surface refines the next coarser level, a prefix slice of it."""

    coarse: Callable[[], DiscreteSurface]     # assembles that level
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
    sides : int array, shape (n_sides, L), or None
        Row k: the chart vertices of polygon side k, corner k to corner
        k + 1; consecutive entries are the mesh's boundary edges.  A side
        pairing (i, j, g) glues sides[j, 1:-1] to sides[i, -2:0:-1].
    stiffness : sparse CSR matrix, shape (n_classes, n_classes)
        Cotangent stiffness K on quotient classes.
    mass_diag : float array, shape (n_classes,)
        Diagonal of the lumped mass M.
    z_matrix : bool
        True when K has no positive off-diagonal entry, a Z-matrix (the
        two angles opposite each edge sum to at most pi, as on a Delaunay
        mesh).  Then every K + M diag(p) is one too, and any positive
        field encloses its smallest eigenvalue (`pde.collatz_wielandt`).
        Every flat torus is one; the octagon is not.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    class_of: np.ndarray
    conformal_factor: np.ndarray
    genus: int
    sides: np.ndarray | None = field(default=None, repr=False)
    side_pairings: list = field(default_factory=list)
    nesting: Nesting | None = field(default=None, repr=False)
    stiffness: sp.csr_matrix = field(init=False, repr=False)
    mass_diag: np.ndarray = field(init=False, repr=False)
    z_matrix: bool = field(init=False, repr=False)

    def __post_init__(self):
        """Assemble cotangent stiffness and lumped mass over the quotient."""
        tris = self.triangles.T                      # (3, T): corner i
        lam = self.conformal_factor[tris]
        n = self.n_classes

        x, y = self.vertices.real[tris], self.vertices.imag[tris]
        # edge opposite corner i, components (3, T)
        ex, ey = x[[2, 0, 1]] - x[[1, 2, 0]], y[[2, 0, 1]] - y[[1, 2, 0]]
        area2 = ex[0] * ey[1] - ey[0] * ex[1]
        if not np.all(np.isfinite(area2)) or np.any(area2 <= 0):
            raise MeshError("degenerate or misoriented triangle in assembly")
        tri_area = 0.5 * area2

        # the nine weights e_i . e_j / (4 area) of each triangle, (i, j, T),
        # and M's three corner contributions
        # tri_area * (2 lam_i + lam_j + lam_k) / 12 (lambda interpolated
        # linearly), (i, T), are summed in this order, i-major over (i, j)
        # and each over the triangles, which fixes every bit of the sums
        cls = self.class_of[tris]
        w = (ex[:, None] * ex + ey[:, None] * ey) / (4.0 * tri_area)
        K = sp.csr_matrix(
            (w.ravel(), (np.repeat(cls, 3, axis=0).ravel(),
                         np.tile(cls, (3, 1)).ravel())),
            shape=(n, n),
        )
        m = np.bincount(cls.ravel(), (tri_area * (
            2.0 * lam + lam[[1, 2, 0]] + lam[[2, 0, 1]]) / 12.0).ravel(),
            minlength=n)
        if not np.all(np.isfinite(K.data)) or not np.all(np.isfinite(m)):
            raise MeshError("non-finite entries in assembled operators")
        # K keeps exactly the entries K + M diag(p) has: its exact zeros
        # (right angles on the torus) go, and every K_ii > 0 stays, so the
        # diagonal is structurally full and the diagonal shift of
        # `factorize` only rewrites values
        K.eliminate_zeros()
        rows = np.repeat(np.arange(n), np.diff(K.indptr))
        self.z_matrix = bool(np.all(K.data[K.indices != rows] <= 0.0))
        self.stiffness, self.mass_diag = K, m

    @property
    def area(self) -> float:
        """Total area of the quotient surface, the sum of the lumped mass."""
        return float(self.mass_diag.sum())

    @cached_property
    def _lu_layout(self):
        """K in the column order of `factorize`, and where its diagonal is.

        The order is SuperLU's minimum degree on the pattern of A + A^T
        (`MMD_AT_PLUS_A`) for A = K + M, computed when the surface is first
        factorized.  It depends only on the pattern, so it serves every
        K + M diag(p).  SuperLU's ILU orders the columns by the same steps
        as its LU (`get_perm_c`, then the elimination-tree postorder of
        `sp_preorder`) and, with the same `_SUPERLU` settings, gives the
        same `perm_c` (symmetric mode is the one that matters: without it
        the two orders differ); dropping every entry it may (`drop_tol=1`,
        `fill_factor=1`) it costs a fraction of the LU, whose factors would
        be thrown away.  Returns (order, pos, Kp, diag): `order[j]` is the
        class in column j, `pos` its inverse, Kp = K[order][:, order] in
        CSC layout and `Kp.data[diag]` its diagonal, in column order.
        """
        A = self.stiffness.tocsc()
        A.setdiag(A.diagonal() + self.mass_diag)
        pos = spla.spilu(A, drop_tol=1.0, fill_factor=1,
                         permc_spec="MMD_AT_PLUS_A", **_SUPERLU).perm_c
        order = np.argsort(pos)
        Kp = self.stiffness[order][:, order].tocsc()
        cols = np.repeat(np.arange(len(order)), np.diff(Kp.indptr))
        return order, pos, Kp, np.flatnonzero(Kp.indices == cols)

    def factorize(self, p) -> ShiftedLU:
        """Sparse LU of K + M diag(p) in the surface's column order.

        Its values are a copy of the permuted K plus a diagonal add, and
        SuperLU orders nothing more (`NATURAL`).  Raises RuntimeError when
        the matrix is singular.
        """
        order, pos, Kp, diag = self._lu_layout
        data = Kp.data.copy()
        data[diag] += (self.mass_diag * p)[order]
        A = sp.csc_matrix((data, Kp.indices, Kp.indptr), shape=Kp.shape)
        return ShiftedLU(_splu(A), order, pos)

    def apply(self, p, x: np.ndarray) -> np.ndarray:
        """(K + M diag(p)) x, for x of shape (n,) or (n, k)."""
        y = self.stiffness @ x
        y += ((self.mass_diag * p) * x.T).T
        return y

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
        a, b = self.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2).T
        key = _edge_key(a.astype(np.int64), b, len(self.vertices))
        counts = np.unique(key, return_counts=True)[1]
        interior, boundary = (counts == 2).sum(), (counts == 1).sum()
        if boundary % 2 or (counts > 2).any():
            raise MeshError("mesh is not a surface with pairable boundary")
        n_edges = int(interior + boundary // 2)
        return self.n_classes - n_edges + len(self.triangles)


def _edge_key(a, b, n: int):
    """One key per undirected edge (a, b) of vertices below n."""
    return np.minimum(a, b) * n + np.maximum(a, b)


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

    The top side is the bottom one moved by i side, the left side the right
    one moved by -side.  The coarsest grid n / 2^k with at least
    `MIN_CLASSES` classes, its cells split along their diagonals a-c, is
    refined k times at Euclidean midpoints by `_glued_polygon`.
    """
    if n < 4:
        raise MeshError("torus grid size must be at least 4")
    if side <= 0 or lambda0 <= 0:
        raise MeshError("side and lambda0 must be positive")

    base, refinement = n, 0
    while base % 2 == 0 and (base // 2) ** 2 >= MIN_CLASSES:
        base, refinement = base // 2, refinement + 1
    m, k = base + 1, np.arange(base + 1)
    verts = (k + 1j * k[:, None]).ravel() * (side / base)   # (i, j) at j m + i
    # cell (i, j) has corners a, a + 1, a + m + 1, a + m, split along a-c
    a = (k[:-1, None] * m + k[:-1]).ravel()
    triangles = np.stack([a, a + 1, a + m + 1, a, a + m + 1, a + m],
                         1).reshape(-1, 3)
    # bottom, right, top and left, counterclockwise from corner 0
    sides = np.array([k, k * m + base, base * m + base - k, (base - k) * m])
    pairings = [(2, 0, np.array([[1.0, 1j * side], [0.0, 1.0]])),
                (3, 1, np.array([[1.0, -side], [0.0, 1.0]], dtype=complex))]
    return _glued_polygon(verts, triangles, sides, pairings, refinement,
                          lambda z1, z2: 0.5 * (z1 + z2),
                          lambda z: np.full(len(z), float(lambda0)), 1)


# ---------------------------------------------------------------------------
# Poincare disk helpers (metric 4 |dz|^2 / (1 - |z|^2)^2, curvature -1)


def disk_lambda(z: np.ndarray) -> np.ndarray:
    """Hyperbolic conformal factor 4 / (1 - |z|^2)^2."""
    return 4.0 / (1.0 - np.abs(z) ** 2) ** 2


def hyperbolic_midpoint(z1, z2):
    """Midpoints of the geodesic segments [z1, z2] in the Poincare disk,
    elementwise over arrays.

    w = (z2 - z1) / (1 - conj(z1) z2) is z2 moved by the isometry taking z1
    to 0.  The midpoint of [0, w] is w tanh(artanh|w| / 2) / |w|, which the
    half-angle identity tanh(artanh(r) / 2) = r / (1 + sqrt(1 - r^2))
    (Beardon, *The Geometry of Discrete Groups*, ch. 7) turns into
    m = w / (1 + sqrt(1 - |w|^2)), with no branch at w = 0; the inverse
    isometry carries m back.  z1 == z2 gives z1.
    """
    w = (z2 - z1) / (1.0 - np.conj(z1) * z2)
    m = w / (1.0 + np.sqrt(1.0 - (w.real ** 2 + w.imag ** 2)))
    return (m + z1) / (1.0 + np.conj(z1) * m)


# Side pairs realizing the boundary word a b a^-1 b^-1 c d c^-1 d^-1: side k
# carries the k-th letter, so paired sides are two apart within each half.
_OCTAGON_PAIRS = [(0, 2), (1, 3), (4, 6), (5, 7)]


def build_genus2_octagon(refinement: int) -> DiscreteSurface:
    """Triangulated regular hyperbolic octagon with genus-2 identification.

    The octagon has all vertex angles pi/4 (vertices at Euclidean radius
    2^(-1/4)), so the eight corners glue to a single smooth point and the
    quotient is a closed genus-2 surface.  `refinement` counts recursive
    4-way subdivisions of the initial 16-triangle fan at hyperbolic edge
    midpoints (`_glued_polygon`).  The corners are chart vertices 1..8.  The
    fan has fewer than `MIN_CLASSES` classes, so the hierarchy of refinement
    r has r levels, down to refinement 1.
    """
    if refinement < 1:
        raise MeshError("refinement must be at least 1")

    corners = 2.0 ** -0.25 * np.exp(1j * np.pi / 4.0 * np.arange(8))

    # 16-triangle base fan: each side is pre-split at its hyperbolic midpoint
    # so the rim, where the conformal factor is largest, starts twice as fine.
    # Side k runs from corner k (chart vertex 1 + k) through its midpoint
    # (chart vertex 9 + k) to corner k + 1.
    verts = np.concatenate(
        [[0.0], corners, hyperbolic_midpoint(corners, np.roll(corners, -1))])
    sides = np.array([[1 + k, 9 + k, 1 + (k + 1) % 8] for k in range(8)])
    tris = np.array([t for a, m, b in sides.tolist()
                     for t in ((0, a, m), (0, m, b))])

    # Pairing isometries: side k's midpoint lies on the ray at angle
    # (2k + 1) pi/8 at the inradius rho, cosh rho = cot(pi/8) = 1 + sqrt 2,
    # and T translates along the real axis by 2 rho.  So g = R((2i + 1) pi/8)
    # T R(pi - (2j + 1) pi/8) maps side j onto side i reversing the boundary
    # direction, and side i reversed lies on g(side j) entry by entry.
    ch = 1.0 + math.sqrt(2.0)
    sh = math.sqrt(ch * ch - 1.0)
    T = np.array([[ch, sh], [sh, ch]])

    def rotation(a):                    # z -> e^{ia} z, with det 1
        return np.diag(np.exp([0.5j * a, -0.5j * a]))

    pairings = [(i, j, rotation((2 * i + 1) * math.pi / 8) @ T
                 @ rotation(math.pi - (2 * j + 1) * math.pi / 8))
                for i, j in _OCTAGON_PAIRS]
    return _glued_polygon(verts, tris, sides, pairings, refinement,
                          hyperbolic_midpoint, disk_lambda, 2)


def _glued_polygon(verts, tris, sides, pairings, refinement, midpoint,
                   conformal, genus) -> DiscreteSurface:
    """Refine a fundamental polygon, glue its sides and nest its levels.

    `verts` and `tris` triangulate the base polygon counterclockwise, row k
    of `sides` lists side k's chart vertices from corner k to corner k + 1,
    the corners glue to one point, and the Mobius map of g in a pairing
    (i, j, g) carries side j onto side i reversed.  Each level splits every
    triangle in four at the `midpoint(z1, z2)` of its edges, one call per
    level, numbered in the order the triangles' edges (a, b), (b, c), (c, a)
    first meet them and each placed from that first (a, b).  One array
    expression of each g then snaps side i's interior onto the images of
    side j's, and the two are glued entry by entry: a class is one chart
    vertex, one glued pair or the corners, numbered by its first chart
    vertex, so each level is a prefix of the next and keeps its refined
    `sides`.  The quotient must have Euler characteristic 2 - 2 genus.
    """
    levels = [(len(verts), tris, sides, None)]  # chart vertex count,
    for _ in range(refinement):    # triangles, sides, midpoints of each level
        n = len(verts)
        edges = tris[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        unique, first, inverse = np.unique(
            _edge_key(*edges.T, n), return_index=True, return_inverse=True)
        ends = edges[np.sort(first)]
        verts = np.concatenate([verts, midpoint(*verts[ends.T])])
        mid = n + np.argsort(np.argsort(first))     # of each unique edge
        a, b, c = tris.T
        mab, mbc, mca = mid[inverse].reshape(-1, 3).T
        tris = np.column_stack([a, mab, mca, mab, b, mbc, mca, mbc, c,
                                mab, mbc, mca]).reshape(-1, 3)
        # boundary edges are triangle edges
        keys = _edge_key(sides[:, :-1], sides[:, 1:], n)
        sides = np.repeat(sides, 2, axis=1)[:, :-1]
        sides[:, 1::2] = mid[np.searchsorted(unique, keys)]
        levels.append((len(verts), tris, sides, ends))

    rep = np.arange(len(verts))         # each class's first chart vertex
    rep[sides[:, 0]] = sides[:, 0].min()
    for i, j, g in pairings:
        (a, b), (c, d) = g
        on_j, on_i = sides[j, 1:-1], sides[i, -2:0:-1]  # corners stay exact
        z = verts[on_j]
        verts[on_i] = (a * z + b) / (c * z + d)
        rep[on_j] = rep[on_i] = np.minimum(on_j, on_i)
    class_of = np.unique(rep, return_inverse=True)[1]

    lam = conformal(verts)
    level = nesting = None
    for n, tris, sides, ends in levels:
        if (classes := class_of[:n].max() + 1) < MIN_CLASSES:
            continue
        if level is not None:           # it nests in the level before
            edge = np.column_stack([np.arange(n)] * 2)
            edge[n - len(ends):] = ends
            parents = np.empty((classes, 2), dtype=int)
            parents[class_of[:n]] = class_of[edge]     # chart copies agree
            nesting = Nesting(level, parents)
        level = partial(DiscreteSurface, verts[:n], tris, class_of[:n],
                        lam[:n], genus, sides, pairings, nesting)

    s = level()
    if s.euler_characteristic() != 2 - 2 * genus:
        raise MeshError(f"quotient is not a genus-{genus} surface")
    return s
