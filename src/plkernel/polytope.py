"""Exact convex-polytope primitives over the rationals.

Polytopes show up here in two guises: as vertex lists (convex position) and
as H-systems {x : E x = f, A x <= b}.  All predicates are exact; point
order is always the lexicographic order on coordinate tuples so that every
construction is deterministic.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial

from . import linalg, lp
from .linalg import Vec, as_vec, dot, vec_sub


def hull_vertices(points) -> list[Vec]:
    """Extreme points of the convex hull, sorted lexicographically."""
    pts = sorted(set(as_vec(p) for p in points))
    # affinely independent point sets are entirely extreme
    if len(pts) <= 1 or linalg.affinely_independent(pts):
        return pts
    out = []
    for i, p in enumerate(pts):
        others = pts[:i] + pts[i + 1 :]
        if not lp.in_hull(p, others):
            out.append(p)
    return out


def _row_basis(rows) -> list[int]:
    """Indices of the lex-first maximal linearly independent set of rows:
    the pivot columns of the transpose."""
    transpose = [list(col) for col in zip(*linalg.integer_rows(rows)[0])]
    return linalg.eliminate(transpose, len(rows))[0]


def enumerate_basic_solutions(a_rows, b) -> list[Vec]:
    """All basic feasible solutions of {x >= 0 : A x = b}."""
    if not a_rows:
        return []
    n = len(a_rows[0])
    # clear denominators once; everything below is integer arithmetic
    int_rows, _ = linalg.integer_rows([list(row) + [bv] for row, bv in zip(a_rows, b)])
    base_rows = [int_rows[i] for i in _row_basis([row[:n] for row in int_rows])]
    r = len(base_rows)
    sols = set()
    for basis in itertools.combinations(range(n), r):
        aug = [[row[j] for j in basis] + [row[n]] for row in base_rows]
        if len(linalg.eliminate(aug, r)[0]) < r:
            continue
        d = aug[0][0] if r else 1
        if any(row[r] * d < 0 for row in aug):
            continue
        num = [0] * n
        for j, row in zip(basis, aug):
            num[j] = row[r]
        # verify against all equations (the solve used a row basis only)
        if all(
            sum(row[k] * num[k] for k in basis) == row[n] * d for row in int_rows
        ):
            sols.add(tuple(Fraction(x, d) for x in num))
    return sorted(sols)


def h_polytope_vertices(eqs, ineqs) -> list[Vec]:
    """Vertices of {x : a.x = c for (a,c) in eqs, a.x >= c for (a,c) in ineqs}.

    Brute-force tight-set enumeration; intended for small systems only.
    """
    if eqs:
        n = len(eqs[0][0])
    elif ineqs:
        n = len(ineqs[0][0])
    else:
        return []
    eq_rows = [list(a) for a, _ in eqs]
    eq_rhs = [c for _, c in eqs]
    base_rank = linalg.rank(eq_rows) if eq_rows else 0
    need = n - base_rank
    verts = set()
    for subset in itertools.combinations(range(len(ineqs)), need):
        rows = eq_rows + [list(ineqs[i][0]) for i in subset]
        rhs = eq_rhs + [ineqs[i][1] for i in subset]
        if linalg.rank(rows) != n:
            continue
        sol = linalg.solve(rows, rhs)
        if sol is None:
            continue
        if all(dot(a, sol) >= c for a, c in ineqs) and all(
            dot(a, sol) == c for a, c in eqs
        ):
            verts.add(sol)
    return sorted(verts)


def intersect_simplices(p_points, q_points, p_out=None, q_out=None) -> list[Vec]:
    """Vertices of the polytope of weights on two simplices whose points agree.

    Over lambda, mu >= 0 with sum(lambda) = sum(mu) = 1 and
    sum(lambda_i p_i) = sum(mu_j q_j), returns the hull vertices of the
    points sum(lambda_i p_out_i) ++ sum(mu_j q_out_j), enumerating basic
    feasible solutions.  The defaults (p_out = p_points, q_out empty) give
    hull(P) ∩ hull(Q); other outputs read the same polytope through the
    affine maps that send p_i to p_out_i and q_j to q_out_j.
    """
    P = [as_vec(p) for p in p_points]
    Q = [as_vec(q) for q in q_points]
    if not P or not Q:
        return []
    p_out = P if p_out is None else [as_vec(x) for x in p_out]
    q_out = [()] * len(Q) if q_out is None else [as_vec(x) for x in q_out]
    # a one-point P has weight 1 and moves to the right-hand side
    free = P if len(P) > 1 else []
    nl = len(free)
    rows = [[p[i] for p in free] + [-q[i] for q in Q] for i in range(len(P[0]))]
    rhs = [Fraction(0) if free else -P[0][i] for i in range(len(P[0]))]
    if free:
        rows.append([Fraction(1)] * nl + [Fraction(0)] * len(Q))
        rhs.append(Fraction(1))
    rows.append([Fraction(0)] * nl + [Fraction(1)] * len(Q))
    rhs.append(Fraction(1))
    pts = set()
    for sol in enumerate_basic_solutions(rows, rhs):
        lam = sol[:nl] or (Fraction(1),)
        pts.add(_combine(lam, p_out) + _combine(sol[nl:], q_out))
    return hull_vertices(pts)


def _combine(weights, points) -> Vec:
    """The point sum(weights_i points_i)."""
    return tuple(
        sum(w * x[i] for w, x in zip(weights, points)) for i in range(len(points[0]))
    )


def chart_coordinates(points, basis_points) -> list[Vec]:
    """Coordinates of `points` in the affine chart spanned by basis_points.

    basis_points must be affinely independent; the chart sends
    basis_points[0] to the origin and basis_points[i] to e_i.  Raises if a
    point is outside the affine hull.
    """
    out = []
    for p in points:
        bc = linalg.barycentric_coordinates(p, basis_points)
        if bc is None:
            raise ValueError("point outside affine hull of chart basis")
        out.append(tuple(bc[1:]))
    return out


def affine_basis(points) -> list[Vec]:
    """Lex-first affinely independent subset spanning the points: the
    first point, then each point whose difference from it is independent
    of the differences chosen before."""
    pts = sorted(set(as_vec(p) for p in points))
    if not pts:
        return []
    diffs = [vec_sub(p, pts[0]) for p in pts[1:]]
    return [pts[0]] + [pts[1 + i] for i in _row_basis(diffs)]


def simplex_volume_in_chart(chart_pts) -> Fraction:
    """Volume of a full-dimensional simplex given by chart coordinates."""
    d = len(chart_pts) - 1
    if d == 0:
        return Fraction(1)
    diffs = [list(vec_sub(p, chart_pts[0])) for p in chart_pts[1:]]
    return abs(linalg.det(diffs)) / factorial(d)


def relative_volume(simplex_points, chart_basis) -> Fraction:
    """Volume of a simplex measured in the chart of `chart_basis`."""
    coords = chart_coordinates(simplex_points, chart_basis)
    if len(coords) != len(chart_basis):
        return Fraction(0)
    return simplex_volume_in_chart(coords)


def placing_triangulation(points) -> list[tuple[int, ...]]:
    """Triangulate the hull of `points` by lexicographic placing.

    `points` must be in convex position (each point a hull vertex); this is
    exactly what hull_vertices / vertex enumeration produce.  Returns the
    top-dimensional simplices as sorted index tuples into the lex-sorted
    point list (callers should pass points already sorted; we sort again
    defensively).
    """
    pts = sorted(set(as_vec(p) for p in points))
    if not pts:
        return []
    basis = affine_basis(pts)
    d = len(basis) - 1
    coords = {i: chart_coordinates([p], basis)[0] for i, p in enumerate(pts)}
    if d == 0:
        return [(0,)]

    simplices: list[tuple[int, ...]] = [(0,)]
    placed = [0]
    cur_dim = 0
    for idx in range(1, len(pts)):
        placed_pts = [pts[i] for i in placed]
        new_rank = linalg.affine_rank(placed_pts + [pts[idx]])
        if new_rank > cur_dim:
            simplices = [tuple(sorted(s + (idx,))) for s in simplices]
            cur_dim = new_rank
        else:
            # point lies in the current affine hull, strictly outside the
            # current hull (convex position); cone over visible facets
            visible = _visible_boundary_facets(simplices, placed, idx, coords, cur_dim)
            for f in visible:
                simplices.append(tuple(sorted(f + (idx,))))
        placed.append(idx)
    return sorted(simplices)


def _visible_boundary_facets(simplices, placed, new_idx, coords, dim):
    """Boundary facets of the current triangulation visible from a point."""
    count: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for s in simplices:
        for f in itertools.combinations(s, dim):
            count.setdefault(tuple(sorted(f)), []).append(s)
    visible = []
    for f, owners in sorted(count.items()):
        if len(owners) != 1:
            continue
        s = owners[0]
        inner = [v for v in s if v not in f][0]
        # hyperplane through facet f (within the span of the current hull)
        fpts = [coords[i] for i in f]
        sub_rows = [list(vec_sub(p, fpts[0])) for p in fpts[1:]]
        # restrict to the affine span of the current point set
        span_pts = [coords[i] for i in placed]
        normals = _facet_normal(sub_rows, fpts[0], span_pts)
        if normals is None:
            continue
        a, c = normals
        side_inner = dot(a, coords[inner]) - c
        side_new = dot(a, coords[new_idx]) - c
        if side_inner == 0 or side_new == 0:
            continue
        if (side_inner > 0) != (side_new > 0):
            visible.append(f)
    return visible


def _facet_normal(facet_diff_rows, facet_origin, span_pts):
    """A linear functional vanishing on the facet, nonzero on the hull span."""
    span_origin = span_pts[0]
    span_dirs = [list(vec_sub(p, span_origin)) for p in span_pts[1:]]
    n = len(facet_origin)
    # want a with a.(facet directions) = 0, a in row space of span directions
    # solve within span: a = sum t_k * span_dir_k with a.(facet diffs) = 0
    span_basis = [span_dirs[i] for i in _row_basis(span_dirs)]
    if not span_basis:
        return None
    rows = []
    for fd in facet_diff_rows:
        rows.append([dot(sb, fd) for sb in span_basis])
    if rows:
        null = linalg.nullspace(rows)
    else:
        null = [tuple(Fraction(1) if j == 0 else Fraction(0) for j in range(len(span_basis)))]
    for t in null:
        a = tuple(
            sum(t[k] * Fraction(span_basis[k][i]) for k in range(len(span_basis)))
            for i in range(n)
        )
        if any(x != 0 for x in a):
            return a, dot(a, facet_origin)
    return None
