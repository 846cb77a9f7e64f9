"""Exact convex-polytope primitives over the rationals.

Polytopes show up here in two guises: as vertex lists (convex position) and
as H-systems {x : E x = f, A x <= b}.  All predicates are exact; point
order is always the lexicographic order on coordinate tuples so that every
construction is deterministic.

Which side of a simplex's facet a point lies on is decided by one routine,
`_integer_functionals`: the integer facet functionals and affine-hull
equations of a simplex with integer vertices.  Placing triangulations,
hull vertices, the separating walls of `complexes.validate` and the cones
of the horn retraction in `families` all read it, on points scaled to
integers by `_integer_points`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial, gcd, lcm

from . import linalg
from .linalg import Vec, as_vec, dot


def hull_vertices(points) -> list[Vec]:
    """Extreme points of the convex hull, sorted lexicographically.

    A point is extreme exactly when the hull facets through it, together
    with the equations of the hull's affine span, cut out that point alone;
    the facets are read off the boundary of the placing triangulation.
    """
    pts = sorted(set(as_vec(p) for p in points))
    # affinely independent point sets are entirely extreme
    if len(pts) <= 1 or linalg.affinely_independent(pts):
        return pts
    _, boundary, equations, ipts = _place(pts)
    facet_rows = {tuple(row) for row in boundary.values()}
    n = len(pts[0])
    out = []
    for p, x in zip(pts, ipts):
        x = x + (1,)
        tight = [list(row) for row in facet_rows if _value(row, x) == 0]
        if len(linalg.eliminate(tight + [list(row) for row in equations])[0]) == n:
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


def simplex_volume_in_chart(chart_pts) -> Fraction:
    """Volume of a full-dimensional simplex given by chart coordinates."""
    d = len(chart_pts) - 1
    if d == 0:
        return Fraction(1)
    x0 = chart_pts[0]
    diffs = [[a - b for a, b in zip(p, x0)] for p in chart_pts[1:]]
    return abs(linalg.det(diffs)) / factorial(d)


def relative_volume(simplex_points, chart_basis) -> Fraction:
    """Volume of a simplex measured in the chart of `chart_basis`."""
    coords = chart_coordinates(simplex_points, chart_basis)
    if len(coords) != len(chart_basis):
        return Fraction(0)
    return simplex_volume_in_chart(coords)


def placing_triangulation(points) -> list[tuple[int, ...]]:
    """Triangulate the hull of `points` by lexicographic placing.

    Returns the top-dimensional simplices as sorted index tuples into the
    lex-sorted list of distinct points.  Every point is placed, so points
    not in convex position (which hull_vertices / vertex enumeration never
    produce) become vertices of the triangulation too.
    """
    pts = sorted(set(as_vec(p) for p in points))
    if not pts:
        return []
    return sorted(_place(pts)[0])


def _integer_points(points) -> tuple[list[tuple[int, ...]], int]:
    """The points times the lcm of all their coordinates' denominators,
    and that lcm."""
    den = lcm(*[c.denominator for p in points for c in p])
    return [tuple(c.numerator * (den // c.denominator) for c in p) for p in points], den


def _value(row, x) -> int:
    return sum(a * b for a, b in zip(row, x))


def _place(pts):
    """Lexicographic placing of the sorted distinct points `pts`, over
    their integer scaling.

    Each point in turn is coned over every simplex when an equation of
    their affine span is nonzero at it, else over each boundary ridge
    whose owner's facet functional is negative at it.  Returns (top
    simplices, {boundary ridge: its owner's facet functional}, the
    span's equations, the integer points); the functionals are integer
    rows (a, b) read at x as a.x + b.
    """
    ipts, _ = _integer_points(pts)
    simplices = {(0,): _integer_functionals(ipts[:1])[0]}
    boundary: dict[tuple[int, ...], list[int]] = {}
    for idx in range(1, len(pts)):
        x = ipts[idx] + (1,)
        first, rows = next(iter(simplices.items()))
        if any(_value(row, x) for row in rows[len(first) :: 2]):
            cones, simplices, boundary = list(simplices), {}, {}
        else:
            cones = [f for f, row in boundary.items() if _value(row, x) < 0]
        for f in cones:
            s = f + (idx,)
            simplices[s] = rows = _integer_functionals([ipts[v] for v in s])[0]
            for i, row in enumerate(rows[: len(s)]):
                ridge = s[:i] + s[i + 1 :]
                if boundary.pop(ridge, None) is None:
                    boundary[ridge] = row
    first, rows = next(iter(simplices.items()))
    return list(simplices), boundary, rows[len(first) :: 2], ipts


def _integer_functionals(ipts):
    """Facet and affine-hull functionals of a simplex with integer vertices.

    Returns (rows, off_vertex) where each row is an integer (a_1..a_n, b)
    with a.x + b = 0 on a wall through all vertices except off_vertex
    (off_vertex = -1 for affine-hull equations, where the wall is all of
    the simplex) and a.x + b > 0 at off_vertex.  Facet rows come first, in
    vertex order; equations follow, each with both signs.
    """
    m = len(ipts)
    n = len(ipts[0])
    # rows [v_j 1 | e_j]; eliminating the left block leaves E [V 1] = R in
    # reduced form with the transform E on the right
    aug = [
        list(p) + [1] + [1 if j == i else 0 for j in range(m)]
        for i, p in enumerate(ipts)
    ]
    pivots, _ = linalg.eliminate(aug, n + 1)
    d = aug[0][pivots[0]]  # shared by all pivot rows; column n is never 0

    def primitive(vec):
        # the primitive integer vector on the ray of vec / d
        g = gcd(*vec) if d > 0 else -gcd(*vec)
        return [x // g for x in vec]

    out_rows, out_off = [], []
    for i in range(m):
        vec = [0] * (n + 1)
        for r, c in enumerate(pivots):
            vec[c] = aug[r][n + 1 + i]
        vec = primitive(vec)
        if sum(x * y for x, y in zip(vec, ipts[i])) + vec[n] < 0:
            vec = [-x for x in vec]
        out_rows.append(vec)
        out_off.append(i)
    # affine-hull equations: nullspace of the same [v_j 1] matrix
    for fc in range(n + 1):
        if fc in pivots:
            continue
        vec = [0] * (n + 1)
        vec[fc] = d
        for r, c in enumerate(pivots):
            vec[c] = -aug[r][fc]
        vec = primitive(vec)
        out_rows.append(vec)
        out_off.append(-1)
        out_rows.append([-x for x in vec])
        out_off.append(-1)
    # safety net for the fraction-free elimination: verify the defining
    # sign pattern of every functional before it is used in a predicate
    for vec, off in zip(out_rows, out_off):
        for j, p in enumerate(ipts):
            val = sum(vec[t] * p[t] for t in range(n)) + vec[n]
            ok = val > 0 if j == off else val == 0
            if not ok:
                raise ArithmeticError("functional verification failed")
    return out_rows, out_off
