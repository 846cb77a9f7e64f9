from fractions import Fraction
from math import factorial

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from plkernel import linalg, lp, polytope
from plkernel.prism import delta_vertex

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


def two_sided_oracle(p_points, q_points, p_out, q_out):
    """Reference: the joint system with every point a variable, λ on P and
    μ on Q, read through p_out and q_out."""
    nl, nm, n = len(p_points), len(q_points), len(p_points[0])
    rows = [[p[i] for p in p_points] + [-q[i] for q in q_points] for i in range(n)]
    rows.append([F(1)] * nl + [F(0)] * nm)
    rows.append([F(0)] * nl + [F(1)] * nm)
    rhs = [F(0)] * n + [F(1), F(1)]
    pts = set()
    for sol in polytope.enumerate_basic_solutions(rows, rhs):
        pts.add(
            tuple(sum(w * x[i] for w, x in zip(sol[:nl], p_out)) for i in range(len(p_out[0])))
            + tuple(sum(w * x[i] for w, x in zip(sol[nl:], q_out)) for i in range(len(q_out[0])))
        )
    return polytope.hull_vertices(pts)


def points(n, size):
    return st.lists(st.tuples(*[coords] * n), min_size=size[0], max_size=size[1])


@st.composite
def simplex_pairs(draw):
    n = draw(st.integers(0, 3))
    p = draw(points(n, (1, n + 2)))
    kind = draw(st.sampled_from(["any", "coincident", "disjoint"]))
    if kind == "coincident":
        q = draw(st.permutations(p))
    elif kind == "disjoint" and n:
        q = [(x[0] + 5,) + x[1:] for x in draw(points(n, (1, n + 2)))]
    else:
        q = draw(points(n, (1, n + 2)))
    p_out = draw(st.none() | st.integers(0, 2).flatmap(lambda m: points(m, (len(p), len(p)))))
    q_out = draw(st.none() | st.integers(0, 2).flatmap(lambda m: points(m, (len(q), len(q)))))
    return p, q, p_out, q_out


HALF = F(1, 2)


@settings(max_examples=300, deadline=None)
@given(simplex_pairs())
# one-point sides, a point over a point, disjoint and coincident pairs
@example(([()], [(), ()], None, None))
@example(([(HALF,)], [(F(0),), (F(1),)], [(F(7), F(-1))], [(F(1),), (F(2),)]))
@example(([(F(0), F(1))], [(F(0), F(1))], [()], [(F(3),)]))
@example(([(F(0), F(1))], [(F(1), F(1))], None, None))
@example(([(F(0),), (F(1),)], [(HALF,)], None, [(F(2),)]))
@example((SQUARE[:3], [(x + 2, y) for x, y in SQUARE[:3]], None, None))
@example((SQUARE[:3], SQUARE[2::-1], None, None))
def test_intersect_simplices_matches_two_sided_system(case):
    p, q, p_out, q_out = case
    got = polytope.intersect_simplices(p, q, p_out, q_out)
    want = two_sided_oracle(p, q, p if p_out is None else p_out, q_out or [()] * len(q))
    assert got == want
    if p_out is None and q_out is None:
        # the default reading is hull(P) ∩ hull(Q)
        assert all(lp.in_hull(x, p) and lp.in_hull(x, q) for x in got)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(points(n, (1, n + 1)), points(n, (1, n + 2)))))
def test_intersect_simplices_in_chart_of_p(case):
    # same_point_set reads each intersection in the chart of its simplex s
    s, t = case
    assume(linalg.affinely_independent(s))
    chart = [delta_vertex(len(s) - 1, i) for i in range(len(s))]
    in_chart = polytope.intersect_simplices(s, t, chart)
    charted = polytope.chart_coordinates(polytope.intersect_simplices(s, t), s)
    assert in_chart == sorted(charted)
