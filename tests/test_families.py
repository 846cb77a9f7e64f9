import dataclasses
import functools
import random
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plkernel import complexes, families, homology, linalg, polytope, prism, suite

from oracles import fraction_box_same_point_set, on_fractions, probe_points, probe_signature

F = Fraction


def test_standard_simplex_and_horn():
    d2 = families.standard_simplex_complex(2)
    assert d2.f_vector() == (3, 3, 1)
    h = families.horn_complex(2, 1)
    assert h.f_vector() == (3, 2)
    assert complexes.validate(h).ok


def test_affine_map_carrier_and_apply():
    seg = families.standard_simplex_complex(1)
    d2 = families.standard_simplex_complex(2)
    f = families.AffineSimplicialMap(seg, d2, {0: (F(0), F(0)), 1: (F(0), F(1))})
    assert f.apply((0, 1), (F(1, 2),)) == (F(0), F(1, 2))
    assert f.carrier((0, 1)) is not None


@pytest.mark.parametrize(
    "call, dims",
    [
        (lambda f: f.apply((0, 1, 2), (F(1, 3),)), (1, 2)),
        (lambda f: f.apply((0, 1, 2), (F(1, 3), F(1, 3), F(1, 3))), (3, 2)),
        (lambda f: families.regular_fiber(f, (F(1, 2), F(1, 4))), (2, 1)),
    ],
    ids=["apply-short", "apply-long", "regular-fiber-long"],
)
def test_point_dimension_must_match_the_ambient(call, dims):
    # Δ² in ℝ² onto Δ¹; a short point once read as an underdetermined solve
    f = families.AffineSimplicialMap(
        families.standard_simplex_complex(2),
        families.standard_simplex_complex(1),
        {0: (F(0),), 1: (F(1),), 2: (F(1),)},
    )
    message = "dimension {} .* ambient dimension {}".format(*dims)
    with pytest.raises(families.FamilyError, match=message):
        call(f)


def test_affine_map_rejects_uncarried():
    seg = families.standard_simplex_complex(1)
    two = complexes.EuclideanComplex.build(
        [(0, 1, 2), (1, 2, 3)],
        {0: (F(0), F(0)), 1: (F(2), F(0)), 2: (F(1), F(2)), 3: (F(3), F(2))},
    )
    # the image segment crosses the shared edge of the two triangles
    with pytest.raises(families.FamilyError):
        families.AffineSimplicialMap(seg, two, {0: (F(0), F(0)), 1: (F(3), F(2))})


def test_affine_map_into_dependent_simplex_raises():
    # (1/2, 1/2) lies on the segment hull{(0,0), (1,1), (2,2)}, but the
    # target's simplex is not affinely independent, so no carrier is decided
    pt = complexes.EuclideanComplex.build([(0,)], {0: (F(0), F(0))})
    line = complexes.EuclideanComplex.build(
        [(0, 1, 2)], {0: (F(0), F(0)), 1: (F(1), F(1)), 2: (F(2), F(2))}
    )
    with pytest.raises(ValueError, match="not affinely independent"):
        families.AffineSimplicialMap(pt, line, {0: (F(1, 2), F(1, 2))})


def test_constant_family_checks():
    base = families.standard_simplex_complex(1)
    fiber = suite.two_point_fiber()
    w = families.constant_family(base, fiber)
    rep = families.check_family(w)
    assert rep.ok, rep.issues


def test_check_family_catches_bad_projection():
    w = suite.lift_fixtures()[3]
    bad = families.PolyhedralFamily(
        w.base, w.subdivision, w.total, w.fiber_dim,
        {k: next(iter(w.subdivision.maximal_simplices())) for k in w.projection},
        w.name,
    )
    ok = True
    try:
        ok = families.check_family(bad).ok
    except families.FamilyError:
        ok = False
    assert not ok


@pytest.mark.parametrize(
    "fiber_dim, issue",
    [(-1, "fiber dimension is negative"),
     (0, "total ambient dimension does not split as base × fiber")],
    ids=["negative-fiber", "unsplit-total"],
)
def test_check_family_with_total_in_r0(fiber_dim, issue):
    # the point family over the segment [0, 1], its total moved to R^0: the
    # projected points have no coordinates, so the projection check cannot
    # run; with fiber dimension -1 the total splits as 0 = 1 - 1
    w = families.constant_family(families.standard_simplex_complex(1), suite.point_fiber())
    point = complexes.EuclideanComplex.build([(0,)], {0: ()})
    bad = dataclasses.replace(w, total=point, fiber_dim=fiber_dim, projection={(0,): (0, 1)})
    assert families.check_family(bad).issues == (issue,)


def test_pullback_of_identity_preserves_point_set():
    w = suite.lift_fixtures()[3]  # roof over the interval
    f = families.identity_map(w.base)
    pw = families.pullback(f, w)
    assert families.check_family(pw).ok
    assert families.same_point_set(pw.total, w.total)


def test_pullback_vertex_inclusion():
    w = suite.lift_fixtures()[3]
    pt = families.standard_simplex_complex(0)
    f = families.AffineSimplicialMap(pt, w.base, {0: (F(1, 4),)})
    pw = families.pullback(f, w)
    # fiber over an interior base point of the roof: one segment
    assert pw.total.euler_characteristic() == 1


def test_slice_matches_pullback():
    w = suite.lift_fixtures()[4]  # slant over the interval
    q0 = (F(1, 3),)
    fiber = families.slice_family(w, q0)
    pt = families.standard_simplex_complex(0)
    f = families.AffineSimplicialMap(pt, w.base, {0: q0})
    pw = families.pullback(f, w)
    fib2 = families.slice_family(pw, ())
    assert families.same_point_set(fib2, fiber)


def test_same_point_set():
    a = families.standard_simplex_complex(1)
    b = complexes.EuclideanComplex.build(
        [(0, 1), (1, 2)], {0: (F(0),), 1: (F(1, 3),), 2: (F(1),)}
    )
    c = complexes.EuclideanComplex.build(
        [(0, 1)], {0: (F(0),), 1: (F(1, 2),)}
    )
    assert families.same_point_set(a, b)
    assert not families.same_point_set(a, c)


def test_same_point_set_reads_lower_dimensional_maximal_simplices():
    coords = {0: (F(0), F(0)), 1: (F(1), F(0)), 2: (F(0), F(1)), 3: (F(2), F(0)),
              4: (F(3, 2), F(0)), 5: (F(3), F(3))}

    def build(maximal):
        used = {v for s in maximal for v in s}
        return complexes.EuclideanComplex.build(maximal, {v: coords[v] for v in used})

    triangle = build([(0, 1, 2)])
    with_edge = build([(0, 1, 2), (1, 3)])
    assert not families.same_point_set(triangle, with_edge)
    assert not families.same_point_set(with_edge, triangle)
    assert not families.same_point_set(triangle, build([(0, 1, 2), (5,)]))
    # the dangling edge split at its midpoint
    split = build([(0, 1, 2), (1, 4), (3, 4)])
    assert families.same_point_set(with_edge, split) and families.same_point_set(split, with_edge)
    assert not families.same_point_set(with_edge, build([(0, 1, 2), (1, 4)]))


def test_same_point_set_boxes_integer_coordinates():
    # boxes are taken per call on each complex's integer coordinates, over
    # the other complex's denominator: no Fraction reaches bounding_box
    k = families.standard_simplex_complex(2)
    sd = complexes.barycentric_subdivide(k)
    with mock.patch.object(polytope, "bounding_box", wraps=polytope.bounding_box) as spy:
        assert families.same_point_set(k, sd) and families.same_point_set(sd, k)
    assert spy.call_count > 0
    for call in spy.call_args_list:
        assert all(type(c) is int for x in call.args[0] for c in x)


def test_same_point_set_matches_fraction_boxes():
    # pairs over different denominators, with lower-dimensional maximal
    # simplices: the integer boxes keep exactly the pairs the Fraction
    # boxes kept, so the same intersections run and the verdicts agree
    rng = random.Random(2401)
    for _ in range(12):
        pts = {v: (F(rng.randint(-4, 4), rng.randint(1, 3)), F(rng.randint(-4, 4), rng.randint(1, 3)))
               for v in range(6)}
        maximal = [(0, 1, 2), (2, 3), (4,)] if rng.random() < 0.5 else [(0, 1, 2), (1, 3), (3, 4)]
        used = {v for s in maximal for v in s}
        a = complexes.EuclideanComplex.build(maximal, {v: pts[v] for v in used})
        if not complexes.validate(a).ok:
            continue
        den = F(1, rng.randint(2, 7))
        others = [
            complexes.barycentric_subdivide(a),
            moved(a, lambda x: (x[0] + den, x[1]), "shifted"),
            moved(complexes.barycentric_subdivide(a), lambda x: (x[0], x[1] * (1 + den)), "stretched"),
        ]
        for b in others:
            for x, y in ((a, b), (b, a)):
                runs = []
                for scan in (families.same_point_set, fraction_box_same_point_set):
                    with mock.patch.object(
                        polytope, "intersect_simplices", wraps=polytope.intersect_simplices
                    ) as spy:
                        verdict = scan(x, y)
                    runs.append((verdict, [c.args[:2] for c in spy.call_args_list]))
                assert runs[0] == runs[1]


def test_subdivision_must_cover_lower_dimensional_maximal_simplices():
    # a base with a dangling edge and an isolated vertex, and a stored
    # subdivision of the triangle alone: the edge and vertex are not covered
    coords = {0: (F(0), F(0)), 1: (F(1), F(0)), 2: (F(0), F(1)), 3: (F(-1), F(1)), 4: (F(2), F(2))}
    triangle = complexes.EuclideanComplex.build([(0, 1, 2)], {v: coords[v] for v in range(3)})
    base = complexes.EuclideanComplex.build([(0, 1, 2), (2, 3), (4,)], coords)
    edge = complexes.EuclideanComplex.build([(0, 1, 2), (2, 3)], {v: coords[v] for v in range(4)})
    assert families.is_subdivision_of(base, base)
    assert families.is_subdivision_of(complexes.barycentric_subdivide(base), base)
    assert not families.is_subdivision_of(triangle, base)
    assert not families.is_subdivision_of(edge, base)
    w = families.constant_family(triangle, families.standard_simplex_complex(0))
    bad = dataclasses.replace(w, base=edge)
    assert families.check_family(w).ok
    assert families.check_family(bad).issues == ("stored subdivision does not subdivide the base",)


coords = st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(2)])


def placed(points, name="K"):
    """The placing triangulation of a point set, as a complex."""
    pts = sorted(set(points))
    return complexes.EuclideanComplex.build(
        on_fractions(polytope.placing_triangulation, pts), dict(enumerate(pts)), name=name
    )


@st.composite
def point_clouds(draw):
    """Up to six points in R^1..R^3, drawn freely or on a line or a plane
    through a base point, often coincident."""
    n = draw(st.integers(1, 3))
    size = draw(st.integers(1, 6))
    k = draw(st.integers(0, n))
    if k == 0:
        return draw(st.lists(st.tuples(*[coords] * n), min_size=size, max_size=size))
    base = draw(st.tuples(*[coords] * n))
    gens = draw(st.lists(st.tuples(*[coords] * n), min_size=k, max_size=k))
    weights = st.lists(coords, min_size=k, max_size=k)
    return [
        tuple(b + sum(w * g[i] for w, g in zip(ws, gens)) for i, b in enumerate(base))
        for ws in draw(st.lists(weights, min_size=size, max_size=size))
    ]


def first_carrier(k, points):
    """The first maximal simplex of k at which every point has
    nonnegative barycentric coordinates, or None."""
    for t in k.maximal_simplices():
        bcs = [linalg.barycentric_coordinates(x, k.points(t)) for x in points]
        if all(bc is not None and min(bc) >= 0 for bc in bcs):
            return t
    return None


@settings(max_examples=100, deadline=None)
@given(point_clouds(), st.data())
def test_carrier_matches_first_carrier_scan(pts, data):
    k = complexes.barycentric_subdivide(placed(pts))
    vertices = st.sampled_from([k.coords[v] for v in k.base.vertices])
    midpoints = st.tuples(vertices, vertices).map(
        lambda ab: tuple((x + y) / 2 for x, y in zip(*ab))
    )
    free = st.tuples(*[st.fractions(-1, 2, max_denominator=4)] * k.ambient_dim)
    for _ in range(4):
        points = data.draw(st.lists(st.one_of(vertices, midpoints, free), min_size=1, max_size=3))
        assert families._carrier(k, polytope.homogeneous(points)) == first_carrier(k, points)


def moved(k, f, name):
    return complexes.EuclideanComplex.build(
        k.maximal_simplices(), {v: f(x) for v, x in k.coords.items()}, name=name
    )


@settings(max_examples=100, deadline=None)
@given(point_clouds(), point_clouds())
def test_same_point_set_properties(pts, other_pts):
    k = placed(pts)
    hull = placed(on_fractions(polytope.hull_vertices, pts), "hull")
    other = placed(other_pts, "L")
    sd = complexes.barycentric_subdivide(k)
    assert families.same_point_set(k, k)
    # another triangulation of the same polyhedron, and its subdivision
    assert families.same_point_set(k, hull) and families.same_point_set(hull, k)
    assert families.same_point_set(k, sd) and families.same_point_set(sd, k)
    assert families.same_point_set(k, other) == families.same_point_set(other, k)
    assert families.same_point_set(sd, other) == families.same_point_set(k, other)
    shift = (F(1, 3),) + (F(0),) * (k.ambient_dim - 1)
    shifted = moved(k, lambda x: tuple(a + b for a, b in zip(x, shift)), "shifted")
    assert not families.same_point_set(k, shifted)
    assert not families.same_point_set(shifted, k)
    if k.dimension >= 1:
        x0 = k.coords[0]
        shrunk = moved(k, lambda x: tuple((a + b) / 2 for a, b in zip(x, x0)), "shrunk")
        assert not families.same_point_set(k, shrunk)
        assert not families.same_point_set(shrunk, k)


def test_regular_fiber_certificate():
    seg = families.standard_simplex_complex(1)
    square, _ = families.product_complex(seg, seg)
    proj = families.AffineSimplicialMap(
        square, seg, {v: c[:1] for v, c in square.coords.items()}
    )
    cert = families.regular_fiber(proj, (F(1, 3),))
    assert cert.ok
    assert cert.fiber.euler_characteristic() == 1


def test_regular_fiber_rejects_vertex_image():
    seg = families.standard_simplex_complex(1)
    f = families.identity_map(seg)
    with pytest.raises(families.FamilyError):
        families.regular_fiber(f, (F(0),))


@functools.cache
def _fiber_sources():
    """Sources of simplicial maps onto Δ¹ and Δ²: prisms R(p) and K(p),
    subdivided corpus complexes and products of simplices."""
    d1, d2 = families.standard_simplex_complex(1), families.standard_simplex_complex(2)
    return (
        prism.build_R(1).complex, prism.build_R(2).complex,
        prism.build_K(2).complex, prism.build_K(3).complex,
        complexes.barycentric_subdivide(suite.circle_4()),
        complexes.barycentric_subdivide(suite.boundary_tetrahedron()),
        complexes.barycentric_subdivide(suite.torus_7()),
        families.product_complex(d1, d1)[0], families.product_complex(d2, d1)[0],
    )


def _interior_point(weights):
    """The point of Δ^n's chart with the given positive barycentric weights."""
    return tuple(F(w, sum(weights)) for w in weights[1:])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_fiber_type_is_constant_over_the_open_simplex(data):
    # for a simplicial map, the fiber's f-vector, Betti numbers and piece
    # shapes are the same at λ, at the old probe points and anywhere else
    # in the open target simplex, and the one fiber built is valid
    src = data.draw(st.sampled_from(_fiber_sources()))
    n = data.draw(st.integers(1, 2))
    target = families.standard_simplex_complex(n)
    vertices = sorted(src.base.vertices)
    images = data.draw(st.lists(st.integers(0, n), min_size=len(vertices), max_size=len(vertices)))
    f = families.AffineSimplicialMap(
        src, target, {v: target.coords[i] for v, i in zip(vertices, images)}
    )
    positive = st.lists(st.integers(1, 9), min_size=n + 1, max_size=n + 1)
    lam = _interior_point(data.draw(positive))
    cert = families.regular_fiber(f, lam)
    assert cert.ok
    sig = probe_signature(f, lam)
    assert sig[0] == cert.fiber.f_vector()
    others = probe_points(target, lam) + [_interior_point(data.draw(positive)) for _ in range(2)]
    for mu in others:
        assert probe_signature(f, mu) == sig


def test_regular_fiber_builds_one_fiber_without_homology():
    # R(2) onto its [0, 1] factor, as in criterion 8
    ec = prism.build_R(2).complex
    d1 = families.standard_simplex_complex(1)
    f = families.AffineSimplicialMap(ec, d1, {v: ec.coords[v][-1:] for v in ec.base.vertices})
    clip = mock.patch.object(polytope, "intersect_simplices", wraps=polytope.intersect_simplices)
    hom = mock.patch.object(homology, "homology", wraps=homology.homology)
    hom_k = mock.patch.object(homology, "homology_of_complex", wraps=homology.homology_of_complex)
    with clip as clips, hom as homs, hom_k as homs_k:
        cert = families.regular_fiber(f, (F(1, 2),))
    assert cert.ok and cert.fiber.dimension == 2
    assert clips.call_count == len(ec.maximal_simplices())
    assert homs.call_count == homs_k.call_count == 0


def test_horn_retraction_small():
    for p, j in [(p, j) for p in range(1, 4) for j in range(p + 1)]:
        r = families.horn_retraction(p, j)
        horn = families.horn_complex(p, j)
        for s in horn.maximal_simplices():
            for c in horn.points(s):
                rs = families._carrier(r.source, polytope.homogeneous([c]))
                assert r.apply(rs, c) == c


def _walls(simplex):
    """Half-spaces (a, c), a.x >= c, of a full-dimensional simplex: wall k
    is 0 on every vertex but vertex k, where it is 1."""
    rows = [list(v) + [F(1)] for v in simplex]
    out = []
    for k in range(len(simplex)):
        sol = linalg.solve(rows, [F(int(t == k)) for t in range(len(simplex))])
        out.append((sol[:-1], -sol[-1]))
    return out


@pytest.mark.parametrize("p,j", [(p, j) for p in range(1, 4) for j in range(p + 1)])
def test_horn_retraction_cones_match_h_description(p, j):
    """Cone i of the retraction, Δ^p ∩ hull({q} ∪ facet i), is Δ^p cut by
    the walls through q of {q} ∪ facet i, except the one opposite vertex j;
    the cones' vertices are the vertices of the retraction's source."""
    from plkernel.prism import delta_vertex

    verts = [delta_vertex(p, i) for i in range(p + 1)]
    bary = [sum(v[t] for v in verts) / (p + 1) for t in range(p)]
    bmiss = [sum(v[t] for i, v in enumerate(verts) if i != j) / p for t in range(p)]
    q = tuple(2 * b - c for b, c in zip(bmiss, bary))
    source = set()
    for i in range(p + 1):
        if i == j:
            continue
        others = [t for t in range(p + 1) if t != i]
        walls = _walls([q] + [verts[t] for t in others])[1:]
        ineqs = _walls(verts) + [w for t, w in zip(others, walls) if t != j]
        cone = on_fractions(
            polytope.intersect_simplices,
            polytope.integer_simplex(verts),
            polytope.integer_simplex([q] + [verts[t] for t in others]),
        )
        assert cone == polytope.h_polytope_vertices([], ineqs)
        if len(cone) > p:
            source.update(cone)
    r = families.horn_retraction(p, j)
    assert set(r.source.coords.values()) == source


def test_horn_retraction_is_built_once():
    assert families.horn_retraction(2, 1) is families.horn_retraction(2, 1)


def test_horn_fill_family_restricts_back():
    w = suite.lift_fixtures()[6]  # point family over the triangle
    horn = families.horn_complex(2, 1)
    wh = families.restrict_family(w, horn)
    filled = families.horn_fill_family(wh, 2, 1)
    assert families.check_family(filled).ok
    back = families.restrict_family(filled, horn)
    assert families.same_point_set(back.total, wh.total)


@pytest.mark.parametrize("ends", [(2, 3), (F(1, 2), F(3, 2))], ids=["outside", "half-inside"])
def test_restrict_family_to_a_complex_outside_the_base_raises(ends):
    # a segment outside Δ^1, or half inside it, is not a subcomplex of the
    # base; restriction used to return an empty or a partial family
    w = families.constant_family(families.standard_simplex_complex(1), suite.point_fiber())
    seg = complexes.EuclideanComplex.build([(0, 1)], {0: (F(ends[0]),), 1: (F(ends[1]),)})
    with pytest.raises(families.FamilyError, match="single target simplex"):
        families.restrict_family(w, seg)


def test_manifold_check_sphere_and_disk():
    sph = suite.boundary_tetrahedron()
    rep = families.manifold_check(sph, 2)
    assert rep.ok
    tri = families.standard_simplex_complex(2)
    rep2 = families.manifold_check(tri, 2)
    assert rep2.ok  # disk with boundary vertices


def test_manifold_check_fails_on_wedge():
    # two triangles glued at one vertex
    k = complexes.EuclideanComplex.build(
        [(0, 1, 2), (2, 3, 4)],
        {
            0: (F(0), F(0)), 1: (F(2), F(0)), 2: (F(1), F(1)),
            3: (F(0), F(2)), 4: (F(2), F(2)),
        },
    )
    rep = families.manifold_check(k, 2)
    assert not rep.ok


def test_subdivision_lift_roundtrip():
    w = suite.lift_fixtures()[0]
    assignment, sd_base = families.subdivision_lift(w)
    glued = families.reassemble(assignment, sd_base, w)
    assert families.same_point_set(glued, w.total)


def test_family_file_roundtrip(tmp_path):
    w = suite.lift_fixtures()[3]
    path = tmp_path / "w.fam"
    families.dump(w, path)
    back = families.load(path)
    assert families.check_family(back).ok
    assert families.dumps(back) == families.dumps(w)


@settings(max_examples=50, deadline=None)
@given(point_clouds(), point_clouds(), st.text("abcXYZ019_", min_size=1, max_size=6))
def test_dumps_loads_roundtrip(base_pts, fiber_pts, name):
    w = families.constant_family(placed(base_pts, "B"), placed(fiber_pts, "F"), name=name)
    assert families.loads(families.dumps(w)) == w


def test_loads_reports_section_errors_at_file_lines():
    text = families.dumps(families.constant_family(
        families.standard_simplex_complex(1), families.standard_simplex_complex(0)
    ))
    lines = text.splitlines()
    at = lines.index("begin total") + 3
    lines.insert(at, lines[at - 1])  # the total's first vertex again
    with pytest.raises(complexes.ComplexStructureError, match=f"^line {at + 1}: repeated vertex id 0$"):
        families.loads("\n".join(lines))


def test_pullback_law_computes_each_functional_once():
    """Over one composition-law verdict of criterion 7 (checked families
    and their point-set comparison), `_integer_functionals` runs only in
    placing and in the complexes' caches, once per (complex, maximal
    simplex)."""
    rng = random.Random(911)
    P, Q, R = (families.standard_simplex_complex(d) for d in (2, 1, 2))
    f, g = (
        families.AffineSimplicialMap(
            a, b, {v: suite._random_point_in(rng, b) for v in a.base.vertices}
        )
        for a, b in ((P, Q), (Q, R))
    )
    w = families.constant_family(R, suite.segment_fiber())
    calls = []
    functionals = polytope._integer_functionals

    def spy(hom):
        caller = sys._getframe(1)
        names = caller.f_locals
        calls.append((caller.f_code.co_name, names.get("self"), names.get("simplex")))
        return functionals(hom)

    with mock.patch.object(polytope, "_integer_functionals", spy):
        lhs = families.pullback(families.compose_maps(g, f), w)
        rhs = families.pullback(f, families.pullback(g, w))
        assert families.check_family(lhs).ok and families.check_family(rhs).ok
        assert families.same_point_set(lhs.total, rhs.total)
    assert {name for name, _, _ in calls} <= {"functionals", "_place"}
    cached = [(k, s) for name, k, s in calls if name == "functionals"]
    assert len({(id(k), s) for k, s in cached}) == len(cached)
    assert all(s in k.maximal_simplices() for k, s in cached)


def test_families_and_join_run_no_fraction_solve():
    """Coordinate values, volumes and independence read the held integer
    form: no Fraction solve, chart or Fraction independence test runs in
    check_family, a composition-law pullback, the hexagon's regular
    fiber, a corpus star's join or a point-set comparison."""
    rng = random.Random(911)
    P, Q, R = (families.standard_simplex_complex(d) for d in (2, 1, 2))
    f, g = (
        families.AffineSimplicialMap(
            a, b, {v: suite._random_point_in(rng, b) for v in a.base.vertices}
        )
        for a, b in ((P, Q), (Q, R))
    )
    w = families.constant_family(R, suite.segment_fiber())
    pts = {0: (0, 0), 1: (1, 0), 2: (2, 1), 3: (1, 1), 4: (0, 1), 5: (-1, 0)}
    hexagon = complexes.EuclideanComplex.build(
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)], pts
    )
    height = families.AffineSimplicialMap(
        hexagon, families.standard_simplex_complex(1), {v: p[1:] for v, p in pts.items()}
    )
    ec = suite.corpus()[0]
    v = ec.base.vertices[0]
    spies = [
        mock.patch.object(owner, name, wraps=getattr(owner, name))
        for owner, name in (
            (linalg, "solve"),
            (linalg, "affinely_independent"),
            (polytope, "chart_coordinates"),
        )
    ]
    with spies[0] as solve, spies[1] as independent, spies[2] as chart:
        assert families.check_family(suite.lift_fixtures()[0]).ok
        lhs = families.pullback(families.compose_maps(g, f), w)
        rhs = families.pullback(f, families.pullback(g, w))
        assert families.same_point_set(lhs.total, rhs.total)
        assert families.regular_fiber(height, (F(1, 2),)).fiber.f_vector() == (2,)
        joined = complexes.join(ec.coords[v], complexes.link(v, ec), vertex_id=v)
        assert joined.base.simplices == complexes.star(v, ec).base.simplices
    assert (solve.call_count, independent.call_count, chart.call_count) == (0, 0, 0)


def test_manifold_check_fails_on_book_and_fin():
    """Links read directly: three pages on one spine edge, and a triangle
    glued to ∂Δ³ along an edge, fail at the spine's ends, whose links
    have a vertex of degree 3; so does the centre of a tripod in d = 1."""
    book = complexes.EuclideanComplex.build(
        [(0, 1, 2), (0, 1, 3), (0, 1, 4)],
        {0: (0, 0, 0), 1: (1, 0, 0), 2: (0, 1, 0), 3: (0, 0, 1), 4: (0, -1, -1)},
    )
    assert complexes.validate(book).ok
    rep = families.manifold_check(book, 2)
    assert not rep.ok and rep.exact
    assert rep.failures == ((0, ((1, 2), (1, 3), (1, 4))), (1, ((0, 2), (0, 3), (0, 4))))
    sphere = suite.boundary_tetrahedron()
    fin = complexes.EuclideanComplex.build(
        sphere.maximal_simplices() + [(0, 1, 4)], {**sphere.coords, 4: (F(1, 2), F(-1), F(0))}
    )
    assert complexes.validate(fin).ok
    rep = families.manifold_check(fin, 2)
    assert not rep.ok and [v for v, _ in rep.failures] == [0, 1]
    tripod = complexes.EuclideanComplex.build(
        [(0, 1), (0, 2), (0, 3)], {0: (0, 0), 1: (1, 0), 2: (0, 1), 3: (-1, -1)}
    )
    rep = families.manifold_check(tripod, 1)
    assert not rep.ok and rep.failures == ((0, ((1,), (2,), (3,))),)
    assert families.manifold_check(families.standard_simplex_complex(1), 1).ok


def test_compose_maps_reads_the_held_images():
    """compose_maps reads each vertex image in the integer form the first
    map holds: its images are those of `apply` on the Fraction image, and
    it scales no point per source vertex."""
    mid = complexes.barycentric_subdivide(families.standard_simplex_complex(2))
    src = complexes.barycentric_subdivide(families.standard_simplex_complex(2))
    t = mid.points(mid.maximal_simplices()[2])

    def onto_t(x):
        lam = (1 - sum(x),) + tuple(x)
        return tuple(sum(c * p[i] for c, p in zip(lam, t)) for i in range(2))

    first = families.AffineSimplicialMap(src, mid, {v: onto_t(x) for v, x in src.coords.items()})
    second = families.AffineSimplicialMap(
        mid,
        families.standard_simplex_complex(2),
        {v: (x[0] / 2 + F(1, 7), x[1] / 3 + F(1, 5)) for v, x in mid.coords.items()},
    )
    assert first.integer_images and mid.integer_coords
    with mock.patch.object(linalg, "integer_points", wraps=linalg.integer_points) as spy:
        composed = families.compose_maps(second, first)
    # the composed map's own images, once
    assert spy.call_count <= 1 < len(src.base.vertices)
    for v, x in first.vertex_images.items():
        home = families._carrier(mid, polytope.homogeneous([x]))
        assert composed.vertex_images[v] == second.apply(home, x)


def law_fixture():
    """The maps and family of one composition-law verdict of criterion 7."""
    rng = random.Random(911)
    P, Q, R = (families.standard_simplex_complex(d) for d in (2, 1, 2))
    f, g = (
        families.AffineSimplicialMap(
            a, b, {v: suite._random_point_in(rng, b) for v in a.base.vertices}
        )
        for a, b in ((P, Q), (Q, R))
    )
    return f, g, families.constant_family(R, suite.segment_fiber())


def held_form_is_homogeneous(k):
    vertices = k.base.vertices
    return k.integer_coords == dict(
        zip(vertices, polytope.homogeneous([k.coords[v] for v in vertices]))
    )


def test_built_complexes_hold_their_integer_form():
    """Every complex the accumulator builds (pullback pieces and totals,
    slices, transported and reassembled totals) holds, from its
    construction on, the integer coordinates `polytope.homogeneous` would
    compute from its coordinates."""
    f, g, w = law_fixture()
    lift = suite.lift_fixtures()[0]
    assignment, sd_base = families.subdivision_lift(lift)
    s = sd_base.maximal_simplices()[0]
    built = [
        families.pullback(f, families.pullback(g, w)),
        families.pullback(families.compose_maps(g, f), w),
    ]
    with mock.patch.object(linalg, "integer_points", wraps=linalg.integer_points) as spy:
        made = [
            *(x for fam in built for x in (fam.subdivision, fam.total)),
            families.slice_family(w, (F(1, 3), F(1, 4))),
            families.transport_total(assignment[s], sd_base.points(s), lift.base.ambient_dim),
            families.reassemble(assignment, sd_base, lift),
        ]
        scaled = spy.call_count
        for k in made:
            assert k._integer_coords and k.integer_coords
        assert spy.call_count == scaled
    assert all(held_form_is_homogeneous(k) for k in made)
    assert families.same_point_set(made[-1], lift.total)


def test_pullback_law_scales_few_points():
    """The clip's points reach the built complexes, the placing and the
    chart volumes in integer form: placing, hull vertices and chart
    volumes scale nothing, and one composition-law verdict scales raw
    points once per map, complex or chart, not once per piece."""
    f, g, w = law_fixture()
    cut = polytope.homogeneous([(F(0),) * 2, (F(1, 2), F(0)), (F(0), F(1, 3)), (F(1, 2), F(1, 3))])
    with mock.patch.object(linalg, "integer_points", wraps=linalg.integer_points) as scale:
        polytope.placing_triangulation(cut)
        polytope.hull_vertices(cut)
        families._chart_polytope_volume(cut, 2)
        assert scale.call_count == 0
        lhs = families.pullback(families.compose_maps(g, f), w)
        rhs = families.pullback(f, families.pullback(g, w))
        assert families.same_point_set(lhs.total, rhs.total)
    assert scale.call_count <= 20
