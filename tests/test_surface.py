import math
from functools import partial

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from minlag import surface
from minlag.pde import newton_solve
from minlag.surface import (DiscreteSurface, MeshError, build_flat_torus,
                            build_genus2_octagon, hyperbolic_midpoint,
                            integrate)

from reference import (assembled_operator, blockwise_operators,
                       looped_octagon_refinement, lu_column_order,
                       mobius_apply)


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


def test_octagon_rejects_refinement_zero():
    with pytest.raises(MeshError, match="refinement must be at least 1"):
        build_genus2_octagon(0)


def test_glued_polygon_checks_the_genus(monkeypatch):
    # the torus square glued as if it closed a genus-2 surface
    glue = surface._glued_polygon
    monkeypatch.setattr(surface, "_glued_polygon",
                        lambda *args: glue(*args[:-1], 2))
    with pytest.raises(MeshError, match="quotient is not a genus-2 surface"):
        build_flat_torus(8, 1.0, 1.0)


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


def test_newton_leaves_stiffness_structure_unchanged(octagon2,
                                                     octagon2_cubic):
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


@pytest.mark.parametrize("name", ["torus16", "octagon2"])
def test_factorize_matches_spsolve(name, request):
    # an SPD and an indefinite K + M diag(p), solved in the surface's order
    # and applied; a column of a stack is applied to the bit as it is alone
    s = request.getfixturevalue(name)
    n = s.n_classes
    rng = np.random.default_rng(12)
    for p in (rng.uniform(0.5, 3.0, n), rng.uniform(-8.0, 1.0, n)):
        A = assembled_operator(s, p).tocsc()
        w = sla.eigvalsh(A.toarray(), np.diag(s.mass_diag))
        assert w[0] > 0.0 if p.min() > 0.0 else w[0] < 0.0 < w[-1]
        for b in (rng.normal(size=n), rng.normal(size=(n, 2))):
            x = s.factorize(p).solve(b)
            ref = spla.spsolve(A, b)
            assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
            Ab = s.apply(p, b)
            assert np.abs(Ab - A @ b).max() <= 1e-14 * np.abs(A @ b).max()
            assert Ab.reshape(n, -1).T.tobytes() == b"".join(
                s.apply(p, col).tobytes() for col in b.reshape(n, -1).T)


@pytest.mark.parametrize("name", ["torus16", "octagon2", "octagon3"])
def test_morse_index_matches_dense_inertia(name, request):
    # SPD and indefinite K + M diag(p), from index 0 to most of the spectrum;
    # each is factorized with diagonal pivots, so the pivots give the index
    s = request.getfixturevalue(name)
    n = s.n_classes
    rng = np.random.default_rng(12)
    for p in (rng.uniform(0.5, 3.0, n), rng.uniform(-8.0, 1.0, n),
              np.full(n, -60.0), rng.uniform(-200.0, 1.0, n)):
        w = sla.eigh(assembled_operator(s, p).toarray(),
                     np.diag(s.mass_diag), eigvals_only=True)
        assert s.factorize(p).morse_index() == np.count_nonzero(w < 0.0)


def test_morse_index_unknown_after_off_diagonal_pivot(octagon2):
    # SuperLU pivots off the diagonal here; the diagonal of U then counts 12
    # negative entries against 13 negative eigenvalues, so no index is read
    n = octagon2.n_classes
    p = np.random.default_rng(0).uniform(-30.0, 5.0, n)
    w = sla.eigh(assembled_operator(octagon2, p).toarray(),
                 np.diag(octagon2.mass_diag), eigvals_only=True)
    assert np.count_nonzero(w < 0.0) == 13
    assert octagon2.factorize(p).morse_index() is None


def _disk_distance(a, b):
    """Hyperbolic distance arccosh(1 + x) of the Poincare disk, with
    x = 2 |a - b|^2 / ((1 - |a|^2)(1 - |b|^2)), evaluated as
    log1p(x + sqrt(x (x + 2))) so that close points keep their digits."""
    x = 2.0 * np.abs(a - b) ** 2 / ((1.0 - np.abs(a) ** 2)
                                    * (1.0 - np.abs(b) ** 2))
    return np.log1p(x + np.sqrt(x * (x + 2.0)))


def _disk_pairs(n, seed=0):
    """n seeded random pairs of points of the disk |z| <= 0.95."""
    rng = np.random.default_rng(seed)
    return 0.95 * np.sqrt(rng.random((2, n))) * np.exp(
        2j * np.pi * rng.random((2, n)))


def test_hyperbolic_midpoint_halves_the_distance():
    z1, z2 = _disk_pairs(500)
    m = hyperbolic_midpoint(z1, z2)
    half = 0.5 * _disk_distance(z1, z2)
    for d in (_disk_distance(z1, m), _disk_distance(m, z2)):
        assert np.abs(d / half - 1.0).max() <= 1e-12


def test_hyperbolic_midpoint_of_a_point_is_the_point():
    z, _ = _disk_pairs(500)
    assert hyperbolic_midpoint(z, z).tobytes() == z.tobytes()


def test_hyperbolic_midpoint_is_elementwise_bitwise():
    # one call over N pairs gives what N calls over one pair give: the
    # builder places a whole level in one call
    z1, z2 = _disk_pairs(500, seed=1)
    one_by_one = [hyperbolic_midpoint(z1[[k]], z2[[k]]) for k in range(500)]
    assert (hyperbolic_midpoint(z1, z2).tobytes()
            == np.concatenate(one_by_one).tobytes())


def _levels(s):
    """s and the coarser levels of its hierarchy, finest first."""
    yield s
    while s.nesting is not None:
        s = s.nesting.coarse()
        yield s


def _hierarchy(s):
    """Class counts of the levels of s's hierarchy, coarsest first."""
    return [level.n_classes for level in _levels(s)][::-1]


def test_hierarchy_levels_have_at_least_16_classes():
    # one rule for both surfaces: a level belongs when it has 16 classes
    assert _hierarchy(build_flat_torus(32, 1.0, 1.0)) == [16, 64, 256, 1024]
    assert _hierarchy(build_flat_torus(12, 1.0, 1.0)) == [36, 144]
    assert _hierarchy(build_flat_torus(6, 1.0, 1.0)) == [36]
    assert _hierarchy(build_flat_torus(9, 1.0, 1.0)) == [81]
    for r in (1, 2, 3, 4):
        assert _hierarchy(build_genus2_octagon(r)) == [
            30, 126, 510, 2046][:r]


def _bits(*arrays):
    """Each array's dtype, shape and bytes."""
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


@pytest.mark.parametrize("build", [
    *(partial(build_flat_torus, n, 1.0, 1.0) for n in (4, 6, 12, 32, 64)),
    *(partial(build_genus2_octagon, r) for r in (1, 2, 3, 4, 5))],
    ids=[f"torus{n}" for n in (4, 6, 12, 32, 64)]
    + [f"octagon_r{r}" for r in (1, 2, 3, 4, 5)])
def test_assembly_and_column_order_match_the_oracles(build):
    # on every level, K and M are bitwise the block-by-block assembly, and
    # the column order of `factorize`, taken from an ILU, is bitwise the
    # `perm_c` of a full LU of K + M, with K permuted by it
    for s in _levels(build()):
        K, m = blockwise_operators(s)
        assert _bits(s.stiffness.indptr, s.stiffness.indices,
                     s.stiffness.data, s.mass_diag) == _bits(
            K.indptr, K.indices, K.data, m)
        pos = lu_column_order(s)
        order = np.argsort(pos)
        Kp = K[order][:, order].tocsc()
        got_order, got_pos, got_Kp, diag = s._lu_layout
        assert _bits(got_order, got_pos, got_Kp.indptr, got_Kp.indices,
                     got_Kp.data) == _bits(order, pos, Kp.indptr, Kp.indices,
                                           Kp.data)
        assert np.array_equal(got_Kp.data[diag], K.diagonal()[order])


def _assert_coarse_level_is_a_prefix(s):
    c = s.nesting.coarse()
    nv = len(c.vertices)
    assert s.vertices[:nv].tobytes() == c.vertices.tobytes()
    assert np.array_equal(s.class_of[:nv], c.class_of)
    assert s.conformal_factor[:nv].tobytes() == c.conformal_factor.tobytes()
    # coarse classes are their own parents
    assert np.array_equal(s.nesting.parents[:c.n_classes],
                          np.repeat(np.arange(c.n_classes)[:, None], 2, 1))


@pytest.mark.parametrize("r", [2, 3, 4])
def test_octagon_coarse_level_is_a_bitwise_prefix(r):
    _assert_coarse_level_is_a_prefix(build_genus2_octagon(r))
    assert build_genus2_octagon(1).nesting is None


@pytest.mark.parametrize("n", [8, 12, 16, 32])
def test_torus_coarse_level_is_a_bitwise_prefix(n):
    _assert_coarse_level_is_a_prefix(build_flat_torus(n, 2.0, 3.0))


def _fields(s):
    """Everything a surface level is made of, as bytes."""
    fields = [s.vertices, s.triangles, s.class_of, s.conformal_factor,
              s.stiffness.data, s.stiffness.indices, s.stiffness.indptr,
              s.mass_diag, *(g for _, _, g in s.side_pairings)]
    if s.nesting is not None:
        fields.append(s.nesting.parents)
    return _bits(*fields)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_octagon_coarse_levels_equal_their_own_builds(r):
    # the levels under a build are slices of it, bitwise what a build of
    # that refinement gives
    s = build_genus2_octagon(r)
    for k in range(1, r):
        s = s.nesting.coarse()
        own = build_genus2_octagon(r - k)
        assert _fields(s) == _fields(own)
    assert s.nesting is None


@pytest.mark.parametrize("n", [8, 12, 16, 20, 32, 64])
def test_torus_coarse_levels_equal_their_own_builds(n):
    # torus n / 2^k is a slice of torus n, bitwise its own build
    s, k = build_flat_torus(n, 2.0, 3.0), 0
    while s.nesting is not None:
        s, k = s.nesting.coarse(), k + 1
        assert _fields(s) == _fields(build_flat_torus(n >> k, 2.0, 3.0))
    assert s.n_classes >= 16 and (n >> k) ** 2 == s.n_classes


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_octagon_matches_the_looped_refinement(r):
    # the edge-array subdivision numbers, places and joins the vertices as
    # the triangle-by-triangle loop does; snapping each side's interior with
    # the builder's pairings then gives its chart vertices bitwise
    s = build_genus2_octagon(r)
    verts, tris, sides = looped_octagon_refinement(r)
    assert np.array_equal(s.triangles, tris)
    for i, j, g in s.side_pairings:
        verts[sides[i][-2:0:-1]] = mobius_apply(g, verts[sides[j][1:-1]])
    assert s.vertices.tobytes() == verts.tobytes()


@pytest.mark.parametrize("r", [2, 3])
def test_octagon_new_classes_are_coarse_edge_midpoints(r):
    # every chart vertex beyond the coarse ones is the hyperbolic midpoint of
    # a coarse edge whose end classes are its class's two parents
    s = build_genus2_octagon(r)
    c = s.nesting.coarse()
    edges = c.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    mid = hyperbolic_midpoint(*c.vertices[edges.T])
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
    # every other class is the Euclidean midpoint of its two parents, on a
    # horizontal, vertical or a-c diagonal coarse edge, across the seam too;
    # the parents are unordered, as `prolong` takes their mean
    z = s.vertices[s.class_representative]
    zc = c.vertices[c.class_representative]
    za, zb = zc[s.nesting.parents].T

    def wrap(x):
        return (x + 1.0) % 2.0 - 1.0       # periodic offset in [-1, 1)

    d = wrap((zb - za).real) + 1j * wrap((zb - za).imag)
    steps = np.round(d / 0.5, 12)
    new = np.arange(s.n_classes) >= c.n_classes
    assert np.all(steps[~new] == 0)
    assert set(steps[new]) <= {1, -1, 1j, -1j, 1 + 1j, -1 - 1j}
    assert set(np.abs(steps[new])) == {1, abs(1 + 1j)}
    off = za + 0.5 * d - z
    assert np.abs(wrap(off.real) + 1j * wrap(off.imag)).max() <= 1e-12
    assert build_flat_torus(6, 1.0, 1.0).nesting is None    # 3^2 < 16 classes
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


def _sides(s, corners):
    """Chart vertices of each polygon side, corner k to corner k + 1, read
    off the boundary: edges in one triangle, directed counterclockwise."""
    directed = s.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    key = np.sort(directed, axis=1) @ [len(s.vertices), 1]
    _, inverse, counts = np.unique(key, return_inverse=True,
                                   return_counts=True)
    after = dict(directed[counts[inverse] == 1])
    sides = [[corners[0]]]
    while len(sides) <= len(corners):
        v = after[sides[-1][-1]]
        sides[-1].append(v)
        if v in corners:
            sides.append([v])
    assert sides[-1] == [corners[0]]
    assert len(after) == sum(map(len, sides[:-1])) - len(corners)
    assert [side[0] for side in sides[:-1]] == list(corners)
    return sides[:-1]


def _octagon_sides(s):
    return _sides(s, range(1, 9))     # the corners are chart vertices 1..8


def _torus_sides(s, side):
    """The torus's sides: bottom, right, top and left."""
    return _sides(s, [int(np.abs(s.vertices - side * c).argmin())
                      for c in (0, 1, 1 + 1j, 1j)])


def _glued_classes(s, sides):
    """Class of each chart vertex when a class is one chart vertex, one
    glued pair (side j's interior against side i's, reversed) or the
    corners, numbered by first chart vertex."""
    groups = [{side[0] for side in sides}]
    for i, j, _ in s.side_pairings:
        groups += [{v, w} for v, w in zip(sides[j][1:-1], sides[i][-2:0:-1])]
    glued = set().union(*groups)
    groups += [{v} for v in range(len(s.vertices)) if v not in glued]
    expected = np.empty(len(s.vertices), dtype=int)
    for k, group in enumerate(sorted(groups, key=min)):
        expected[list(group)] = k
    return expected


@pytest.mark.parametrize("build", [
    *(partial(build_flat_torus, n, 2.0, 3.0)
      for n in (4, 6, 8, 12, 16, 32, 64)),
    *(partial(build_genus2_octagon, r) for r in (1, 2, 3, 4, 5))],
    ids=[f"torus{n}" for n in (4, 6, 8, 12, 16, 32, 64)]
    + [f"octagon_r{r}" for r in (1, 2, 3, 4, 5)])
def test_every_level_keeps_its_sides(build):
    # on every level the builder's sides are the boundary walk, their
    # consecutive pairs are exactly the edges of one triangle, and the glued
    # pairs read off them give the classes
    for s in _levels(build()):
        walk = _octagon_sides(s) if s.genus == 2 else _torus_sides(s, 2.0)
        assert s.sides.tolist() == walk
        key = [len(s.vertices), 1]
        edges = np.sort(s.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), 1)
        keys, counts = np.unique(edges @ key, return_counts=True)
        on_sides = np.sort(np.stack([s.sides[:, :-1], s.sides[:, 1:]], -1)
                           .reshape(-1, 2), 1) @ key
        assert np.array_equal(np.sort(on_sides), keys[counts == 1])
        assert np.array_equal(s.class_of, _glued_classes(s, s.sides))


@pytest.mark.parametrize("n", [4, 6, 8, 12, 16, 32])
def test_torus_side_gluing_is_exact(n):
    # top = bottom + i side and left = right - side: each glued pair has
    # v_i == g(v_j) bitwise and one class, and the four corners are one
    # class; nothing else merges
    side = 2.0
    s = build_flat_torus(n, side, 3.0)
    sides = _torus_sides(s, side)
    assert [(i, j) for i, j, _ in s.side_pairings] == [(2, 0), (3, 1)]
    for i, j, g in s.side_pairings:
        assert len(sides[i]) == len(sides[j]) == n + 1
        on_i, on_j = sides[i][-2:0:-1], sides[j][1:-1]
        assert (s.vertices[on_i].tobytes()
                == mobius_apply(g, s.vertices[on_j]).tobytes())
        assert np.array_equal(s.class_of[on_i], s.class_of[on_j])
        corners = s.vertices[[sides[j][0], sides[j][-1]]]
        assert np.abs(mobius_apply(g, corners)
                      - s.vertices[[sides[i][-1], sides[i][0]]]).max() <= 1e-15
    assert len({int(s.class_of[side[0]]) for side in sides}) == 1
    expected = _glued_classes(s, sides)
    assert np.array_equal(s.class_of, expected)
    assert np.array_equal(np.bincount(np.bincount(expected)),
                          [0, (n - 1) ** 2, 2 * (n - 1), 0, 1])


@pytest.mark.parametrize("r", [1, 2, 3])
def test_octagon_side_gluing_is_exact(r):
    # each vertex on side j has a partner on side i at g(vertex), in its class;
    # the partner is g(vertex) bitwise, g applied to the side's interior as
    # one array, except at the corners, kept exact
    s = build_genus2_octagon(r)
    sides = _octagon_sides(s)
    for i, j, g in s.side_pairings:
        assert len(sides[i]) == len(sides[j]) == 2 ** (r + 1) + 1
        on_i = s.vertices[sides[i]]
        z = s.vertices[sides[j]]
        images = mobius_apply(g, z)
        images[1:-1] = mobius_apply(g, z[1:-1])   # the slice the builder snaps
        for v, image in zip(sides[j], images):
            if v > 8:
                (hit,) = np.flatnonzero(on_i == image)
            else:
                hit = np.abs(on_i - image).argmin()
                assert abs(on_i[hit] - image) <= 1e-14
                assert sides[i][hit] <= 8
            assert s.class_of[sides[i][hit]] == s.class_of[v]


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_octagon_classes_are_vertices_glued_pairs_and_the_corners(r):
    # every class is exactly one chart vertex, one glued pair (side j's
    # interior against side i's, reversed) or the eight corners, numbered by
    # first chart vertex: nothing else merges.  At r3 that is 449 single
    # vertices, 60 pairs and one class of 8
    s = build_genus2_octagon(r)
    expected = _glued_classes(s, _octagon_sides(s))
    assert np.array_equal(s.class_of, expected)
    sizes = np.bincount(np.bincount(expected))
    n_pairs = 4 * (2 ** (r + 1) - 1)
    assert sizes[2] == n_pairs and sizes[8] == 1
    assert sizes[1] == len(s.vertices) - 8 - 2 * n_pairs
    if r == 3:
        assert (sizes[1], sizes[2], sizes[8]) == (449, 60, 1)


@pytest.mark.parametrize("r", [1, 3])
def test_octagon_pairing_translation_is_the_closed_form(r):
    # T = R(-(2i + 1) pi/8) g R((2j + 1) pi/8 - pi), with R(a) the rotation
    # z -> e^{ia} z, is the translation along the real axis with cosh and
    # sinh of the inradius, cot(pi/8) = 1 + sqrt 2 and sqrt(2 + 2 sqrt 2),
    # on its diagonal and off it, to 2 ulp each (a T built from the rounded
    # side midpoint is 3 ulp off)
    def rotation(a):
        return np.diag(np.exp([0.5j * a, -0.5j * a]))

    ch = 1.0 + math.sqrt(2.0)
    sh = math.sqrt(2.0 + 2.0 * math.sqrt(2.0))
    exact = np.array([[ch, sh], [sh, ch]])
    ulps = 2.0 * np.spacing(exact)
    for i, j, g in build_genus2_octagon(r).side_pairings:
        T = (rotation(-(2 * i + 1) * math.pi / 8) @ g
             @ rotation((2 * j + 1) * math.pi / 8 - math.pi))
        assert np.all(np.abs(T.real - exact) <= ulps), (i, j, T - exact)
        assert np.all(np.abs(T.imag) <= ulps), (i, j, T.imag)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_octagon_pairings_are_turned_translations(r):
    # each pairing is a rotated translation: det 1 and trace 2 + sqrt 2,
    # mapping side j's corners onto side i's in reverse order
    s = build_genus2_octagon(r)
    corners = s.vertices[1:9]
    for i, j, g in s.side_pairings:
        assert abs(np.linalg.det(g) - 1.0) <= 1e-13
        assert abs(np.trace(g) - (2.0 + math.sqrt(2.0))) <= 1e-13
        for z, image in ((corners[j], corners[(i + 1) % 8]),
                         (corners[(j + 1) % 8], corners[i])):
            w = (g[0, 0] * z + g[0, 1]) / (g[1, 0] * z + g[1, 1])
            assert abs(w - image) <= 1e-14


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


def test_z_matrix_flag():
    # every flat torus has nonpositive off-diagonal stiffness (the two
    # angles opposite each edge sum to pi/2 or pi); the octagon's obtuse
    # fan gives positive entries: 64 at refinement 1, 256 at 2, 1024 at 3
    for n in (4, 16, 32):
        assert build_flat_torus(n, 1.0, 1.0).z_matrix
    for r, positive in ((1, 64), (2, 256), (3, 1024)):
        s = build_genus2_octagon(r)
        K = s.stiffness.tocoo()
        assert np.count_nonzero(K.data[K.row != K.col] > 0.0) == positive
        assert not s.z_matrix
