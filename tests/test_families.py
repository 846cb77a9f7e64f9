from fractions import Fraction

import pytest

from plkernel import complexes, families, homology, suite

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


def test_affine_map_rejects_uncarried():
    seg = families.standard_simplex_complex(1)
    two = complexes.EuclideanComplex.build(
        [(0, 1, 2), (1, 2, 3)],
        {0: (F(0), F(0)), 1: (F(2), F(0)), 2: (F(1), F(2)), 3: (F(3), F(2))},
    )
    # the image segment crosses the shared edge of the two triangles
    with pytest.raises(families.FamilyError):
        families.AffineSimplicialMap(seg, two, {0: (F(0), F(0)), 1: (F(3), F(2))})


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


def test_horn_retraction_small():
    for p, j in [(1, 0), (2, 0), (2, 1), (2, 2), (3, 1)]:
        r = families.horn_retraction(p, j)
        horn = families.horn_complex(p, j)
        for s in horn.maximal_simplices():
            for c in horn.points(s):
                rs = next(t for t in r.source.maximal_simplices()
                          if families._inside(c, r.source.points(t)))
                assert r.apply(rs, c) == c


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
