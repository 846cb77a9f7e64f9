import itertools
import random
from fractions import Fraction
from math import factorial, lcm
from unittest import mock

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from plkernel import linalg, lp, polytope, suite
from plkernel.prism import delta_vertex

from oracles import chart_volume, on_fractions, raw_intersect_simplices

F = Fraction

SQUARE = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))]


def clip(p, q, p_out=None, q_out=None):
    """intersect_simplices on raw points, each list in its own integer form."""
    sides = [None if x is None else polytope.integer_simplex(x) for x in (p, q, p_out, q_out)]
    return on_fractions(polytope.intersect_simplices, *sides)


def test_hull_vertices_drops_interior():
    pts = SQUARE + [(F(1, 2), F(1, 2)), (F(1, 2), F(0))]
    hull = on_fractions(polytope.hull_vertices, pts)
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
    assert clip(a, b) == [(F(1), F(1))]
    c = [(F(5), F(5)), (F(6), F(5)), (F(5), F(6))]
    assert clip(a, c) == []


def test_placing_triangulation_square():
    tris = on_fractions(polytope.placing_triangulation, SQUARE)
    assert len(tris) == 2
    hom = polytope.homogeneous(SQUARE)
    total = F(sum(polytope.simplex_volume([hom[i] for i in t]) for t in tris), factorial(2))
    assert total == 1


def test_placing_triangulation_deterministic():
    a = on_fractions(polytope.placing_triangulation, SQUARE)
    b = on_fractions(polytope.placing_triangulation, SQUARE)
    assert a == b


def test_relative_volume_unit_simplex():
    pts = [(F(0), F(0), F(0)), (F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))]
    volume = F(polytope.simplex_volume(polytope.homogeneous(pts)), factorial(3))
    assert volume == F(1, factorial(3))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 4).flatmap(lambda d: points(d, (d + 1, d + 1))))
def test_simplex_volume_matches_chart_volume_oracle(pts):
    hom = polytope.homogeneous(pts)
    d = len(pts) - 1
    volume = F(polytope.simplex_volume(hom), factorial(d) * hom[0][-1] ** d)
    assert volume == chart_volume(pts)


@st.composite
def weighted_points(draw):
    """An affinely independent simplex of dimension 0..n in ℝⁿ, n <= 5,
    held over a multiple of its own denominator, and a point inside it,
    on its affine hull but outside it, or anywhere (so off the hull when
    the simplex is not full-dimensional), over denominators of its own."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, n + 1))
    vertex = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    pts = [tuple(draw(vertex) for _ in range(n)) for _ in range(m)]
    assume(linalg.affinely_independent(pts))
    weight = st.fractions(min_value=-2, max_value=2, max_denominator=7)
    kind = draw(st.sampled_from(["inside", "outside", "anywhere"]))
    if kind == "anywhere":
        point = tuple(draw(weight) for _ in range(n))
    else:
        if kind == "inside":
            raw = [abs(draw(weight)) for _ in range(m)]
            assume(sum(raw) > 0)
            w = [c / sum(raw) for c in raw]
        else:
            w = [draw(weight) for _ in range(m - 1)]
            w.insert(0, 1 - sum(w))
        point = tuple(sum(c * p[i] for c, p in zip(w, pts)) for i in range(n))
    scale = draw(st.integers(1, 6))
    hom = [tuple(scale * c for c in x) for x in polytope.homogeneous(pts)]
    return pts, hom, point


@settings(max_examples=300, deadline=None)
@given(weighted_points())
def test_weights_match_barycentric_coordinates(case):
    pts, hom, point = case
    x = polytope.homogeneous([point])[0]
    got = polytope.weights(polytope._integer_functionals(hom), hom, x)
    assert got == linalg.barycentric_coordinates(point, pts)


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


def _sub(a, b):
    return [x - y for x, y in zip(a, b, strict=True)]


def _oracle_affine_rank(points):
    if len(points) <= 1:
        return len(points) - 1
    return linalg.rank([_sub(p, points[0]) for p in points[1:]])


def _oracle_affine_basis(pts):
    diffs = [_sub(p, pts[0]) for p in pts[1:]]
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
        sub_rows = [_sub(p, fpts[0]) for p in fpts[1:]]
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
    span_dirs = [_sub(p, span_origin) for p in span_pts[1:]]
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
    assert on_fractions(polytope.hull_vertices, pts) == hull_oracle(pts)


# affinely independent sets, each its own triangulation, and four coplanar
# points in R^3, one short of independent
TETRAHEDRON = [CUBE[0], CUBE[4], CUBE[2], CUBE[1]]
TRIANGLE_R4 = [(F(0),) * 4, (F(1), F(0), F(2), F(-1)), (F(1, 2), F(3), F(0), F(1, 3))]
EDGE_R2 = [(F(2), F(1)), (F(-1), F(1, 2))]
COPLANAR_R3 = [(F(0),) * 3, (F(2), F(0), F(1)), (F(0), F(2), F(1)), (F(1), F(1), F(1))]


@settings(max_examples=400, deadline=None)
@given(point_sets())
@example([()])
@example(SQUARE + [(F(1, 2), F(1, 2)), (F(1, 2), F(0))])
@example([(F(0),), (F(1, 2),), (F(1),), (F(2),)])
@example(CUBE)
@example(TETRAHEDRON)
@example(TRIANGLE_R4)
@example(EDGE_R2)
@example(COPLANAR_R3)
def test_placing_triangulation_matches_oracle(pts):
    assert on_fractions(polytope.placing_triangulation, sorted(set(pts))) == placing_oracle(pts)


def test_placing_triangulation_places_dependent_sets_only():
    with mock.patch.object(polytope, "_place", wraps=polytope._place) as place:
        for pts in (TETRAHEDRON, TRIANGLE_R4, EDGE_R2):
            assert on_fractions(polytope.placing_triangulation, pts) == [tuple(range(len(pts)))]
        assert place.call_count == 0
        assert len(on_fractions(polytope.placing_triangulation, sorted(COPLANAR_R3))) == 2
        assert place.call_count == 1


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
    return on_fractions(polytope.hull_vertices, pts)


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
# degenerate P, degenerate Q, both degenerate
@example(([(F(0), F(0)), (F(1), F(1)), (F(2), F(2))], SQUARE[:3], None, None))
@example((SQUARE[:3], [(F(0), F(0)), (HALF, HALF), (F(2), F(2)), (F(1), F(1))], SQUARE[:3], [(F(1),)] * 4))
@example((
    [(F(0), F(0)), (F(1), F(1)), (F(2), F(2))],
    [(F(0), F(2)), (F(1), F(1)), (F(2), F(0)), (HALF, HALF)],
    [(F(0),), (F(1),), (F(2),)],
    [(F(0), F(1)), (F(1), F(0)), (F(2), F(2)), (F(0), F(0))],
))
# P inside Q, a lower-dimensional P across Q, and a pair touching along a facet
@example(([(F(1, 4), F(1, 4)), (HALF, F(1, 4)), (F(1, 4), HALF)], SQUARE[:3], None, [(F(1),)] * 3))
@example(([(F(-1), HALF), (F(2), HALF)], SQUARE[:3], [(F(0),), (F(1),)], None))
@example((SQUARE[:3], SQUARE[1:], None, None))
@example((CUBE[:3] + CUBE[4:5], CUBE[1:3] + CUBE[4:5] + CUBE[7:], None, None))
# a cut with a pair on opposite sides that is not an edge of the clipped polytope
@example(([(HALF, HALF), (F(-1), F(2)), (F(2), F(1))], [(HALF, F(1)), (F(2), F(1)), (F(1), F(2))], None, None))
# Q dependent, P and q_out independent: the vertices are read without a hull
@example((SQUARE[:3], SQUARE, None, [(F(0), F(0), F(0)), (F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))]))
@example(([(F(0),), (F(2),)], [(F(-1),), (HALF,), (F(1),)], [(F(3),)] * 2, [(F(0), F(0)), (F(1), F(0)), (F(0), F(1))]))
@example((SQUARE[1:], [(F(0), F(0)), (F(2), F(2)), (HALF, HALF)], [(F(1),)] * 3, [(F(1), F(2)), (F(0), F(3)), (F(5), F(1))]))
def test_intersect_simplices_matches_two_sided_system(case):
    p, q, p_out, q_out = case
    got = clip(p, q, p_out, q_out)
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
    in_chart = clip(s, t, chart)
    charted = polytope.chart_coordinates(clip(s, t), s)
    assert in_chart == sorted(charted)


@st.composite
def pullback_pieces(draw):
    """The systems `families.pullback` builds: a simplex of a seeded affine
    map's source over a cell of a lift fixture's subdivision, read in source
    coordinates, or over a total simplex, with its fiber coordinates."""
    w = draw(st.sampled_from(LIFT_FIXTURES))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    dp = draw(st.integers(0, 3))
    src = [delta_vertex(dp, i) for i in range(dp + 1)]
    img = []
    for _ in src:
        s = rng.choice(w.base.maximal_simplices())
        # weights may vanish, so images land on faces and coincide
        weights = [rng.randint(0, 2) for _ in s]
        weights[rng.randrange(len(s))] += 1
        pts = w.base.points(s)
        img.append(tuple(
            sum(c * p[t] for c, p in zip(weights, pts)) / sum(weights)
            for t in range(w.base.ambient_dim)
        ))
    if draw(st.booleans()):
        cell = draw(st.sampled_from(w.subdivision.maximal_simplices()))
        return img, w.subdivision.points(cell), src, None
    sigma = draw(st.sampled_from(w.total.maximal_simplices()))
    b = w.base_dim
    pts = w.total.points(sigma)
    return img, [x[:b] for x in pts], src, [x[b:] for x in pts]


# the lift fixtures of the `pointset` benchmark workload, which leaves out I-over-D2
LIFT_FIXTURES = [w for w in suite.lift_fixtures() if w.name != "I-over-D2"]


@settings(max_examples=200, deadline=None)
@given(pullback_pieces())
def test_intersect_simplices_matches_oracle_on_pullback_pieces(case):
    p, q, p_out, q_out = case
    got = clip(p, q, p_out, q_out)
    assert got == two_sided_oracle(p, q, p_out, q_out or [()] * len(q))


@st.composite
def clip_inputs(draw):
    """Two point lists over mixed denominators, with outputs or without:
    both sides affinely independent, a side with a dependent point (a
    repeat or an affine combination of its points), or sides in ℝ⁵.  A
    point of Q is free or an affine combination of P's points, so the two
    hulls often meet."""
    kind = draw(st.sampled_from(["independent", "dependent", "R5"]))
    n = 5 if kind == "R5" else draw(st.integers(1, 3))
    value = st.fractions(min_value=-2, max_value=2, max_denominator=6)
    weight = st.fractions(min_value=-1, max_value=2, max_denominator=5)

    def free(count):
        return [tuple(draw(value) for _ in range(n)) for _ in range(count)]

    def combination(pts):
        w = [draw(weight) for _ in pts[1:]]
        w.insert(0, 1 - sum(w))
        return tuple(sum(c * x[i] for c, x in zip(w, pts)) for i in range(n))

    p = free(draw(st.integers(1, min(n + 1, 4))))
    q = [
        combination(p) if draw(st.booleans()) else free(1)[0]
        for _ in range(draw(st.integers(1, min(n + 1, 4))))
    ]
    if kind == "dependent":
        side = draw(st.sampled_from([p, q]))
        side.insert(draw(st.integers(0, len(side))), combination(side))
    elif kind == "independent":
        assume(linalg.affinely_independent(p) and linalg.affinely_independent(q))
    outs = [
        draw(st.none() | st.integers(0, 2).flatmap(lambda m, k=len(x): points(m, (k, k))))
        for x in (p, q)
    ]
    return p, q, *outs


@settings(max_examples=200, deadline=None)
@given(clip_inputs())
def test_integer_clip_and_placing_match_fraction_pipeline(case):
    """The clip's homogeneous points over one shared denominator L, and
    placing on them, against the clip on raw points read as Fractions and
    the Fraction placing reference: the same points, in the same order,
    with L the lcm of their reduced denominators, and the same simplices."""
    sides = [None if x is None else polytope.integer_simplex(x) for x in case]
    hom = polytope.intersect_simplices(*sides)
    want = raw_intersect_simplices(*case)
    assert polytope.dehomogenize(hom) == want
    assert hom == sorted(set(hom))
    if hom:
        assert {x[-1] for x in hom} == {lcm(*[c.denominator for x in want for c in x])}
    assert polytope.placing_triangulation(hom) == placing_oracle(want)
