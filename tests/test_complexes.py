from fractions import Fraction

import pytest

from plkernel import complexes, delta

F = Fraction


def unit_triangle():
    return complexes.EuclideanComplex.build(
        [(0, 1, 2)], {0: (F(0), F(0)), 1: (F(1), F(0)), 2: (F(0), F(1))}
    )


def glued_triangles():
    return complexes.EuclideanComplex.build(
        [(0, 1, 2), (1, 2, 3)],
        {0: (F(0), F(0)), 1: (F(2), F(0)), 2: (F(1), F(2)), 3: (F(3), F(2))},
    )


def test_face_closure():
    k = unit_triangle()
    assert k.f_vector() == (3, 3, 1)
    assert k.euler_characteristic() == 1
    assert k.maximal_simplices() == [(0, 1, 2)]


def test_validate_good():
    assert complexes.validate(glued_triangles()).ok


def test_validate_overlap_witness():
    bad = complexes.EuclideanComplex.build(
        [(0, 1, 2), (1, 2, 3)],
        {0: (F(0), F(0)), 1: (F(2), F(0)), 2: (F(1), F(2)), 3: (F(1), F(-2))},
    )
    rep = complexes.validate(bad)
    assert not rep.ok
    assert any("intersection not a common face" in w for w in rep.issues)


def test_validate_degenerate_simplex():
    bad = complexes.EuclideanComplex.build(
        [(0, 1, 2)], {0: (F(0), F(0)), 1: (F(1), F(1)), 2: (F(2), F(2))}
    )
    rep = complexes.validate(bad)
    assert not rep.ok
    assert any("affinely independent" in w for w in rep.issues)


def test_validate_shared_edge_pair():
    k = complexes.EuclideanComplex.build(
        [(0, 1, 2), (1, 2, 3)],
        {0: (F(0), F(0)), 1: (F(1), F(0)), 2: (F(0), F(1)), 3: (F(1), F(1))},
    )
    assert complexes.validate(k).ok


def test_validate_overlapping_pair_witness():
    # two triangles without a shared vertex whose interiors overlap
    k = complexes.EuclideanComplex.build(
        [(0, 1, 2), (3, 4, 5)],
        {
            0: (F(0), F(0)), 1: (F(2), F(0)), 2: (F(1), F(2)),
            3: (F(1), F(0)), 4: (F(3), F(0)), 5: (F(2), F(2)),
        },
    )
    rep = complexes.validate(k)
    assert not rep.ok
    assert rep.issues == (
        "intersection not a common face: simplices (0, 1, 2) and (3, 4, 5)",
    )


def test_barycentric_subdivision_counts():
    sd = complexes.barycentric_subdivide(unit_triangle())
    assert sd.f_vector() == (7, 12, 6)
    assert complexes.validate(sd).ok
    assert sd.total_volume() == unit_triangle().total_volume()


def test_subdivision_iterated_euler():
    k = glued_triangles()
    for _ in range(2):
        k = complexes.barycentric_subdivide(k)
        assert k.euler_characteristic() == glued_triangles().euler_characteristic()


def test_star_link():
    k = glued_triangles()
    st = complexes.star(1, k)
    assert set(st.maximal_simplices()) == {(0, 1, 2), (1, 2, 3)}
    lk = complexes.link(1, k)
    # link of an edge-interior vertex of two glued triangles: a path
    assert lk.euler_characteristic() == 1


def test_join_cone():
    seg = complexes.EuclideanComplex.build(
        [(0, 1)], {0: (F(0), F(0)), 1: (F(1), F(0))}
    )
    cone = complexes.join((F(0), F(1)), seg)
    assert cone.f_vector() == (3, 3, 1)
    assert complexes.validate(cone).ok


def test_join_general_position_error():
    seg = complexes.EuclideanComplex.build(
        [(0, 1)], {0: (F(0), F(0)), 1: (F(1), F(0))}
    )
    with pytest.raises(complexes.GeneralPositionError):
        complexes.join((F(2), F(0)), seg)


def test_delta_set_of():
    x = complexes.delta_set_of(glued_triangles())
    assert x.f_vector() == (4, 5, 2)
    assert delta.check_identities(x).ok


def test_rational_io():
    assert complexes.parse_rational("3/4") == F(3, 4)
    assert complexes.parse_rational("-2") == -2
    with pytest.raises(ValueError):
        complexes.parse_rational("0.5")
    assert complexes.format_rational(F(3, 4)) == "3/4"
    assert complexes.format_rational(F(5)) == "5"


def test_file_roundtrip(tmp_path):
    k = glued_triangles()
    path = tmp_path / "k.cplx"
    complexes.dump(k, path)
    back = complexes.load(path)
    assert back.simplices == k.simplices
    assert back.coords == k.coords
    assert complexes.dumps(back) == complexes.dumps(k)
