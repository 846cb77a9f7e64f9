import itertools
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


# few distinct values, so that repeated, collinear and coplanar points are common
coords = st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(2)])


def hull_oracle(points):
    """Reference: p is extreme iff it is not in the hull of the others."""
    pts = sorted(set(points))
    return [p for i, p in enumerate(pts) if not lp.in_hull(p, pts[:i] + pts[i + 1 :])]


def _oracle_affine_rank(points):
    if len(points) <= 1:
        return len(points) - 1
    return linalg.rank([list(linalg.vec_sub(p, points[0])) for p in points[1:]])


def _oracle_affine_basis(pts):
    diffs = [linalg.vec_sub(p, pts[0]) for p in pts[1:]]
    return [pts[0]] + [pts[1 + i] for i in polytope._row_basis(diffs)]


def placing_oracle(points):
    """Reference: lexicographic placing with a rational facet normal per
    boundary facet and visible point, in the chart of the lex-first
    affine basis."""
    pts = sorted(set(linalg.as_vec(p) for p in points))
    if not pts:
        return []
    basis = _oracle_affine_basis(pts)
    d = len(basis) - 1
    chart = {i: polytope.chart_coordinates([p], basis)[0] for i, p in enumerate(pts)}
    if d == 0:
        return [(0,)]

    simplices = [(0,)]
    placed = [0]
    cur_dim = 0
    for idx in range(1, len(pts)):
        placed_pts = [pts[i] for i in placed]
        new_rank = _oracle_affine_rank(placed_pts + [pts[idx]])
        if new_rank > cur_dim:
            simplices = [tuple(sorted(s + (idx,))) for s in simplices]
            cur_dim = new_rank
        else:
            visible = _oracle_visible_facets(simplices, placed, idx, chart, cur_dim)
            for f in visible:
                simplices.append(tuple(sorted(f + (idx,))))
        placed.append(idx)
    return sorted(simplices)


def _oracle_visible_facets(simplices, placed, new_idx, chart, dim):
    count = {}
    for s in simplices:
        for f in itertools.combinations(s, dim):
            count.setdefault(tuple(sorted(f)), []).append(s)
    visible = []
    for f, owners in sorted(count.items()):
        if len(owners) != 1:
            continue
        s = owners[0]
        inner = [v for v in s if v not in f][0]
        fpts = [chart[i] for i in f]
        sub_rows = [list(linalg.vec_sub(p, fpts[0])) for p in fpts[1:]]
        span_pts = [chart[i] for i in placed]
        normals = _oracle_facet_normal(sub_rows, fpts[0], span_pts)
        if normals is None:
            continue
        a, c = normals
        side_inner = linalg.dot(a, chart[inner]) - c
        side_new = linalg.dot(a, chart[new_idx]) - c
        if side_inner == 0 or side_new == 0:
            continue
        if (side_inner > 0) != (side_new > 0):
            visible.append(f)
    return visible


def _oracle_facet_normal(facet_diff_rows, facet_origin, span_pts):
    span_origin = span_pts[0]
    span_dirs = [list(linalg.vec_sub(p, span_origin)) for p in span_pts[1:]]
    n = len(facet_origin)
    span_basis = [span_dirs[i] for i in polytope._row_basis(span_dirs)]
    if not span_basis:
        return None
    rows = [[linalg.dot(sb, fd) for sb in span_basis] for fd in facet_diff_rows]
    if rows:
        null = linalg.nullspace(rows)
    else:
        null = [tuple(F(1) if j == 0 else F(0) for j in range(len(span_basis)))]
    for t in null:
        a = tuple(
            sum(t[k] * F(span_basis[k][i]) for k in range(len(span_basis)))
            for i in range(n)
        )
        if any(x != 0 for x in a):
            return a, linalg.dot(a, facet_origin)
    return None


@st.composite
def point_sets(draw):
    """Up to eight points in R^0..R^4: repeated, collinear, coplanar or
    lower-dimensional by construction as often as in general position."""
    n = draw(st.integers(0, 4))
    kind = draw(st.sampled_from(["any", "collinear", "coplanar", "flat"]))
    size = draw(st.integers(1, 8))
    if kind == "any" or n == 0:
        return draw(st.lists(st.tuples(*[coords] * n), min_size=size, max_size=size))
    # integer combinations of k generators through a base point
    k = {"collinear": 1, "coplanar": 2, "flat": max(1, n - 1)}[kind]
    base = draw(st.tuples(*[coords] * n))
    gens = draw(st.lists(st.tuples(*[coords] * n), min_size=k, max_size=k))
    weights = st.lists(st.sampled_from([F(0), F(1), F(-1), F(2), F(1, 2)]), min_size=k, max_size=k)
    return [
        tuple(b + sum(w * g[i] for w, g in zip(ws, gens)) for i, b in enumerate(base))
        for ws in draw(st.lists(weights, min_size=size, max_size=size))
    ]


CUBE = [(F(x), F(y), F(z)) for x in (0, 1) for y in (0, 1) for z in (0, 1)]


@settings(max_examples=400, deadline=None)
@given(point_sets())
@example([()])
@example([()] * 3)
@example(SQUARE + [(F(1, 2), F(1, 2)), (F(1, 2), F(0))])
@example([(F(0),), (F(1, 2),), (F(1),), (F(2),)])
@example(CUBE + [(F(1, 2),) * 3])
def test_hull_vertices_match_lp_oracle(pts):
    assert polytope.hull_vertices(pts) == hull_oracle(pts)


@settings(max_examples=400, deadline=None)
@given(point_sets())
@example([()])
@example(SQUARE + [(F(1, 2), F(1, 2)), (F(1, 2), F(0))])
@example([(F(0),), (F(1, 2),), (F(1),), (F(2),)])
@example(CUBE)
def test_placing_triangulation_matches_oracle(pts):
    assert polytope.placing_triangulation(pts) == placing_oracle(pts)


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
