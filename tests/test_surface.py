import math

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from minlag.pde import newton_solve
from minlag.surface import (DiscreteSurface, MeshError, build_flat_torus,
                            build_genus2_octagon, hyperbolic_midpoint,
                            integrate, mesh_to_json)


def test_torus_unit_area():
    s = build_flat_torus(4, 1.0, 1.0)
    assert s.area == pytest.approx(1.0, rel=1e-12)
    assert s.genus == 1


def test_torus_euler_characteristic():
    s = build_flat_torus(32, 2.0 * math.pi, 1.0)
    assert s.euler_characteristic() == 0


@pytest.mark.parametrize("vertices, triangles", [
    # the edge 0-1 is shared by three triangles; the boundary count is even
    ([0, 1, 1j, -1j, 0.5 + 2j], [[0, 1, 2], [1, 0, 3], [0, 1, 4]]),
    # a lone triangle has three boundary edges, an odd number
    ([0, 1, 1j], [[0, 1, 2]]),
])
def test_euler_characteristic_rejects_non_surface(vertices, triangles):
    n = len(vertices)
    s = DiscreteSurface(vertices=np.array(vertices, dtype=complex),
                        triangles=np.array(triangles), class_of=np.arange(n),
                        conformal_factor=np.ones(n), genus=0)
    with pytest.raises(MeshError, match="pairable boundary"):
        s.euler_characteristic()


def test_torus_area_scaling():
    s = build_flat_torus(16, 1.0, 4.0)
    assert s.area == pytest.approx(4.0, rel=1e-12)


def test_torus_rejects_tiny_grid():
    with pytest.raises(MeshError):
        build_flat_torus(3, 1.0, 1.0)
    with pytest.raises(MeshError):
        build_flat_torus(8, -1.0, 1.0)


def test_octagon_topology(octagon2):
    for s in (build_genus2_octagon(1), octagon2):
        assert s.euler_characteristic() == -2
        assert s.genus == 2
        # all eight corners glue to one smooth point
        corner_classes = {int(s.class_of[k]) for k in range(1, 9)}
        assert len(corner_classes) == 1


def test_octagon_area_refinement():
    errors = []
    for k in (1, 2, 3, 4):
        s = build_genus2_octagon(k)
        errors.append(abs(s.area - 4.0 * math.pi) / (4.0 * math.pi))
    assert errors[0] > errors[1] > errors[2], f"not monotone: {errors}"
    assert errors[2] <= 0.02, f"refinement 3 area error {errors[2]:.3%}"
    # O(h^2): each refinement halves h; measured ratios 4.1 and 4.0
    ratios = [errors[k] / errors[k + 1] for k in (1, 2)]
    assert all(3.5 <= r <= 4.5 for r in ratios), f"ratios {ratios}"
    print(f"octagon area errors over refinements 1..4: "
          f"{', '.join(f'{e:.3%}' for e in errors)}")


def test_octagon_conformal_factor_positive(octagon2):
    assert np.all(octagon2.conformal_factor > 0)
    assert octagon2.conformal_factor.min() >= 4.0  # minimum of the disk factor


def test_stiffness_kills_constants(torus16, octagon2):
    for s in (torus16, octagon2):
        K = s.stiffness
        ones = np.ones(s.n_classes)
        assert np.abs(K @ ones).max() <= 1e-12


def test_stiffness_symmetric(torus16, octagon2):
    for s in (torus16, octagon2):
        K = s.stiffness
        assert abs(K - K.T).max() == 0.0


@pytest.mark.parametrize("p", ["array", 0.0, 2.0])
def test_shifted_is_bitwise_stiffness_plus_mass(torus16, octagon2, p):
    for s in (torus16, octagon2):
        pot = np.linspace(-3.0, 5.0, s.n_classes) if p == "array" else p
        ref = (s.stiffness + sp.diags(s.mass_diag * pot)).tocsr()
        got = s.shifted(pot)
        for name in ("data", "indices", "indptr"):
            assert getattr(got, name).tobytes() == getattr(ref, name).tobytes()


def test_shifted_values_do_not_alias_stiffness(torus16, octagon2):
    for s in (torus16, octagon2):
        before = s.stiffness.copy()
        s.shifted(1.0).data[:] = -7.0
        assert np.array_equal(s.stiffness.data, before.data)


def test_newton_leaves_stiffness_structure_unchanged(octagon2,
                                                     octagon2_cubic):
    # `shifted` shares K's index arrays with every operator Newton builds
    K = octagon2.stiffness
    indices, indptr = K.indices.copy(), K.indptr.copy()
    newton_solve(np.zeros(octagon2.n_classes), 5.0, octagon2_cubic)
    assert np.array_equal(K.indices, indices)
    assert np.array_equal(K.indptr, indptr)


def test_green_identity(torus16):
    rng = np.random.default_rng(7)
    K = torus16.stiffness
    scale = abs(K).max()
    for _ in range(5):
        f, g = rng.standard_normal((2, torus16.n_classes))
        assert f @ (K @ g) == pytest.approx(g @ (K @ f), rel=1e-12)
        assert abs(f @ (K @ np.ones_like(f))) <= 1e-12 * scale * np.abs(f).sum()


def test_torus_laplace_eigenvalue(torus32):
    # sin(2 pi x / side) is an exact discrete mode of the periodic stencil
    x = torus32.vertices[torus32.class_representative].real
    f = np.sin(2.0 * math.pi * x)
    mu = (f @ (torus32.stiffness @ f)) / (f @ (torus32.mass_diag * f))
    assert mu == pytest.approx((2.0 * math.pi) ** 2, rel=0.01)


def test_octagon_spectral_gap(octagon2):
    w = sla.eigh(octagon2.stiffness.toarray(), np.diag(octagon2.mass_diag),
                 eigvals_only=True)
    assert abs(w[0]) < 1e-10
    assert w[1] > 0.1


def test_mass_sums_to_area(torus16, octagon2):
    # a surface is assembled on construction, not only by the builders
    direct = DiscreteSurface(
        vertices=octagon2.vertices, triangles=octagon2.triangles,
        class_of=octagon2.class_of, conformal_factor=octagon2.conformal_factor,
        genus=octagon2.genus, side_pairings=octagon2.side_pairings)
    for s in (torus16, octagon2, direct):
        assert s.mass_diag.sum() == pytest.approx(s.area, rel=1e-12)
    assert direct.area == direct.mass_diag.sum() == octagon2.area
    assert (direct.shifted(0.0) != direct.stiffness).nnz == 0
    assert (direct.stiffness != octagon2.stiffness).nnz == 0


def test_integrate_constants(torus16, octagon2):
    assert integrate(torus16, np.ones(torus16.n_classes)) == pytest.approx(1.0)
    val = integrate(octagon2, 2.0 * np.ones(octagon2.n_classes))
    assert val == pytest.approx(2.0 * octagon2.area, rel=1e-12)


def test_integrate_is_mass_weighted_sum(torus16):
    rng = np.random.default_rng(3)
    f = rng.standard_normal(torus16.n_classes)
    m = torus16.mass_diag
    assert integrate(torus16, f) == pytest.approx(float(m @ f), rel=1e-14)


def test_integrate_dimension_mismatch(torus16):
    with pytest.raises(ValueError):
        integrate(torus16, np.ones(torus16.n_classes + 1))


def test_mesh_export_schema(octagon2):
    payload = mesh_to_json(octagon2)
    assert set(payload) == {"vertices", "triangles", "classes", "lambda",
                            "genus", "area"}
    assert len(payload["vertices"]) == len(payload["classes"])
    assert payload["genus"] == 2
    assert payload["area"] == pytest.approx(octagon2.area)


@pytest.mark.parametrize("name", ["torus16", "octagon2"])
def test_factorize_matches_spsolve(name, request):
    # an SPD and an indefinite K + M diag(p), solved in the surface's order
    s = request.getfixturevalue(name)
    n = s.n_classes
    rng = np.random.default_rng(12)
    for p in (rng.uniform(0.5, 3.0, n), rng.uniform(-8.0, 1.0, n)):
        A = s.shifted(p).tocsc()
        w = sla.eigvalsh(A.toarray(), np.diag(s.mass_diag))
        assert w[0] > 0.0 if p.min() > 0.0 else w[0] < 0.0 < w[-1]
        for b in (rng.normal(size=n), rng.normal(size=(n, 2))):
            x = s.factorize(p).solve(b)
            ref = spla.spsolve(A, b)
            assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("name", ["torus16", "octagon2"])
def test_morse_index_matches_dense_inertia(name, request):
    # SPD and indefinite K + M diag(p), from index 0 to most of the spectrum;
    # each is factorized with diagonal pivots, so the pivots give the index
    s = request.getfixturevalue(name)
    n = s.n_classes
    rng = np.random.default_rng(12)
    for p in (rng.uniform(0.5, 3.0, n), rng.uniform(-8.0, 1.0, n),
              np.full(n, -60.0), rng.uniform(-200.0, 1.0, n)):
        w = sla.eigh(s.shifted(p).toarray(), np.diag(s.mass_diag),
                     eigvals_only=True)
        assert s.factorize(p).morse_index() == np.count_nonzero(w < 0.0)


def test_morse_index_unknown_after_off_diagonal_pivot(octagon2):
    # SuperLU pivots off the diagonal here; the diagonal of U then counts 12
    # negative entries against 13 negative eigenvalues, so no index is read
    n = octagon2.n_classes
    p = np.random.default_rng(0).uniform(-30.0, 5.0, n)
    w = sla.eigh(octagon2.shifted(p).toarray(), np.diag(octagon2.mass_diag),
                 eigvals_only=True)
    assert np.count_nonzero(w < 0.0) == 13
    assert octagon2.factorize(p).morse_index() is None


@pytest.mark.parametrize("r", [2, 3])
def test_octagon_coarse_level_is_a_bitwise_prefix(r):
    s = build_genus2_octagon(r)
    c = s.nesting.coarse()
    nv = len(c.vertices)
    assert np.array_equal(s.nesting.vertices, np.arange(nv))
    assert s.vertices[:nv].tobytes() == c.vertices.tobytes()
    assert np.array_equal(s.class_of[:nv], c.class_of)
    # coarse classes are their own parents
    assert np.array_equal(s.nesting.parents[:c.n_classes],
                          np.repeat(np.arange(c.n_classes)[:, None], 2, 1))
    assert build_genus2_octagon(1).nesting is None


@pytest.mark.parametrize("r", [2, 3])
def test_octagon_new_classes_are_coarse_edge_midpoints(r):
    # every chart vertex beyond the coarse ones is the hyperbolic midpoint of
    # a coarse edge whose end classes are its class's two parents
    s = build_genus2_octagon(r)
    c = s.nesting.coarse()
    edges = c.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    mid = np.array([hyperbolic_midpoint(*c.vertices[e]) for e in edges])
    new = s.vertices[len(c.vertices):]
    gap = np.abs(new[:, None] - mid[None, :])
    nearest = gap.argmin(axis=1)
    assert gap.min(axis=1).max() <= 1e-12
    ends = np.sort(c.class_of[edges[nearest]], axis=1)
    parents = np.sort(s.nesting.parents[s.class_of[len(c.vertices):]], axis=1)
    assert np.array_equal(ends, parents) and np.all(ends[:, 0] < ends[:, 1])
    assert s.class_of[len(c.vertices):].min() == c.n_classes


def test_torus_parent_map():
    s = build_flat_torus(8, 2.0, 3.0)
    c = s.nesting.coarse()
    assert c.n_classes == 16 and c.conformal_factor[0] == 3.0
    # fine chart vertex (2i, 2j) is coarse chart vertex (i, j), bitwise
    assert s.vertices[s.nesting.vertices].tobytes() == c.vertices.tobytes()
    fine_of = s.class_of[s.nesting.vertices]
    assert np.array_equal(s.nesting.parents[fine_of],
                          np.column_stack([c.class_of, c.class_of]))
    # every other class is the Euclidean midpoint of its two parents, on a
    # horizontal, vertical or a-c diagonal coarse edge, across the seam too
    z = s.vertices[s.class_representative]
    zc = c.vertices[c.class_representative]
    za, zb = zc[s.nesting.parents].T

    def wrap(x):
        return (x + 1.0) % 2.0 - 1.0       # periodic offset in [-1, 1)

    d = wrap((zb - za).real) + 1j * wrap((zb - za).imag)
    assert set(np.round(d / 0.5, 12)) == {0, 1, 1j, 1 + 1j}
    assert np.abs(za + 0.5 * d - z).max() <= 1e-12
    assert build_flat_torus(6, 1.0, 1.0).nesting is None    # n/2 = 3 < 4
    assert build_flat_torus(9, 1.0, 1.0).nesting is None    # n odd


@pytest.mark.parametrize("surface", [build_flat_torus(16, 1.0, 1.0),
                                     build_genus2_octagon(3)],
                         ids=["torus16", "octagon3"])
def test_prolong_constant_is_exact(surface):
    c = surface.nesting.coarse()
    for value in (1.0, -0.3, 7.123456789):
        f = surface.prolong(np.full(c.n_classes, value))
        assert f.shape == (surface.n_classes,) and np.all(f == value)


@pytest.mark.parametrize("vertices", [[0, 1j, 1], [0, 1, 2]],
                         ids=["clockwise", "zero-area"])
def test_assembly_rejects_misoriented_triangle(vertices):
    with pytest.raises(MeshError, match="degenerate or misoriented"):
        DiscreteSurface(vertices=np.array(vertices, dtype=complex),
                        triangles=np.array([[0, 1, 2]]),
                        class_of=np.arange(3), conformal_factor=np.ones(3),
                        genus=0)


def _octagon_sides(s):
    """Chart vertices of each octagon side, corner k to corner k + 1, read
    off the boundary: edges in one triangle, directed counterclockwise."""
    directed = s.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    key = np.sort(directed, axis=1) @ [len(s.vertices), 1]
    _, inverse, counts = np.unique(key, return_inverse=True,
                                   return_counts=True)
    after = dict(directed[counts[inverse] == 1])
    sides = [[1]]
    while len(sides) <= 8:
        v = after[sides[-1][-1]]
        sides[-1].append(v)
        if 1 <= v <= 8:                   # the corners are chart vertices 1..8
            sides.append([v])
    assert sides[-1] == [1] and len(after) == sum(map(len, sides[:8])) - 8
    return sides[:8]


@pytest.mark.parametrize("r", [1, 2, 3])
def test_octagon_side_gluing_is_exact(r):
    # each vertex on side j has a partner on side i at g(vertex), in its class;
    # the partner is g(vertex) bitwise, except at the corners, kept exact
    s = build_genus2_octagon(r)
    sides = _octagon_sides(s)
    for i, j, g in s.side_pairings:
        assert len(sides[i]) == len(sides[j]) == 2 ** (r + 1) + 1
        on_i = s.vertices[sides[i]]
        for v in sides[j]:
            z = s.vertices[v]
            image = (g[0, 0] * z + g[0, 1]) / (g[1, 0] * z + g[1, 1])
            if v > 8:
                (hit,) = np.flatnonzero(on_i == image)
            else:
                hit = np.abs(on_i - image).argmin()
                assert abs(on_i[hit] - image) <= 1e-14
                assert sides[i][hit] <= 8
            assert s.class_of[sides[i][hit]] == s.class_of[v]


def test_octagon_first_eigenvalue_order():
    # the first nonzero eigenvalue of (K, M) converges as O(h^2): measured
    # 1.743601, 1.729740, 1.726097 at r = 3, 4, 5, a gap ratio of 3.81
    lam = []
    for r in (3, 4, 5):
        s = build_genus2_octagon(r)
        v0 = np.random.default_rng(0).standard_normal(s.n_classes)
        w = spla.eigsh(s.stiffness, k=2, M=sp.diags(s.mass_diag), sigma=-1.0,
                       v0=v0, return_eigenvectors=False)
        lam.append(np.sort(w)[1])
    ratio = (lam[0] - lam[1]) / (lam[1] - lam[2])
    assert 3.5 <= ratio <= 4.5, f"eigenvalues {lam}, gap ratio {ratio:.3f}"
    print(f"first nonzero eigenvalue at r = 3, 4, 5: "
          f"{', '.join(f'{x:.6f}' for x in lam)}; gap ratio {ratio:.2f}")
