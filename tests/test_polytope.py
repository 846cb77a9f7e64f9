from fractions import Fraction
from math import factorial

from hypothesis import given, settings
from hypothesis import strategies as st

from plkernel import linalg, polytope

F = Fraction

SQUARE = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))]


def test_hull_vertices_drops_interior():
    pts = SQUARE + [(F(1, 2), F(1, 2)), (F(1, 2), F(0))]
    hull = polytope.hull_vertices(pts)
    assert sorted(hull) == sorted(SQUARE)


def test_enumerate_basic_solutions_simplex():
    # x0+x1+x2 = 1, x >= 0: basic solutions are the three unit vectors
    sols = polytope.enumerate_basic_solutions([[F(1), F(1), F(1)]], [F(1)])
    assert sorted(sols) == [
        (F(0), F(0), F(1)), (F(0), F(1), F(0)), (F(1), F(0), F(0)),
    ]


def test_intersect_simplices():
    a = [(F(0), F(0)), (F(2), F(0)), (F(0), F(2))]
    b = [(F(1), F(1)), (F(3), F(1)), (F(1), F(3))]
    assert polytope.intersect_simplices(a, b) == [(F(1), F(1))]
    c = [(F(5), F(5)), (F(6), F(5)), (F(5), F(6))]
    assert polytope.intersect_simplices(a, c) == []


def test_placing_triangulation_square():
    tris = polytope.placing_triangulation(SQUARE)
    assert len(tris) == 2
    total = F(0)
    for t in tris:
        chart = polytope.chart_coordinates(
            [SQUARE[i] for i in t], [SQUARE[i] for i in t]
        )
        total += polytope.simplex_volume_in_chart(chart)
    assert total == 1


def test_placing_triangulation_deterministic():
    a = polytope.placing_triangulation(SQUARE)
    b = polytope.placing_triangulation(SQUARE)
    assert a == b


def test_relative_volume_unit_simplex():
    pts = [(F(0), F(0), F(0)), (F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))]
    chart = polytope.chart_coordinates(pts, pts)
    assert polytope.simplex_volume_in_chart(chart) == F(1, factorial(3))


def test_h_polytope_vertices_cube_slice():
    # x0+x1 = 1 inside the unit square: a segment
    eqs = [([F(1), F(1)], F(1))]
    ineqs = [
        ([F(1), F(0)], F(0)), ([F(0), F(1)], F(0)),
        ([F(-1), F(0)], F(-1)), ([F(0), F(-1)], F(-1)),
    ]
    verts = polytope.h_polytope_vertices(eqs, ineqs)
    assert sorted(verts) == [(F(0), F(1)), (F(1), F(0))]


def greedy_affine_basis(points):
    """Reference: scan the points in lex order, keep each one that is
    affinely independent of those kept so far."""
    basis = []
    for p in sorted(set(points)):
        if linalg.affinely_independent(basis + [p]):
            basis.append(p)
    return basis


# few distinct values, so that repeated, collinear and coplanar points are common
coords = st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(2)])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.lists(st.tuples(*[coords] * n), max_size=7)
))
def test_affine_basis_is_greedy(points):
    assert polytope.affine_basis(points) == greedy_affine_basis(points)
