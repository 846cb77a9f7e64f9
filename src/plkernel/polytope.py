"""Exact convex-polytope primitives over the rationals.

Polytopes show up here in two guises: as vertex lists (convex position) and
as H-systems {x : E x = f, A x <= b}.  All predicates are exact; point
order is always the lexicographic order on coordinate tuples so that every
construction is deterministic.

Which side of a simplex's facet a point lies on is decided by one routine,
`_integer_functionals`: the integer facet functionals and affine-hull
equations of a simplex with integer vertices.  Placing triangulations,
hull vertices, the separating walls of `complexes.validate` and the
point-in-simplex test `contains` all read it, on points scaled to
integers by `linalg.integer_points`.  Placing runs only on affinely
dependent point sets: `placing_triangulation` returns an independent set
as its one simplex, and `hull_vertices` returns it whole, after one
integer independence test (`_independent`).

Every simplex-pair polytope comes from `intersect_simplices`: one clip of
the joint weight simplex of both simplices by double description over
integer weights (`_clip_simplex`), whichever side is affinely dependent.
The pieces of `families`, point-set comparison and the cones of the horn
retraction all read it.  The common-face test of `complexes.validate`
runs the same clip on its own integer points.  `enumerate_basic_solutions`
and `h_polytope_vertices` have no caller here; they are the independent
references the tests compare the clip against.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from math import factorial, gcd

from . import linalg
from .linalg import Vec, as_vec, dot


def hull_vertices(points) -> list[Vec]:
    """Extreme points of the convex hull, sorted lexicographically.

    A point is extreme exactly when the hull facets through it, together
    with the equations of the hull's affine span, cut out that point alone;
    the facets are read off the boundary of the placing triangulation.
    """
    pts = sorted(set(as_vec(p) for p in points))
    ipts, _ = linalg.integer_points(pts)
    # affinely independent point sets (the empty one too) are entirely
    # extreme
    if _independent(ipts):
        return pts
    _, boundary, equations = _place(ipts)
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
    """All basic feasible solutions of {x >= 0 : A x = b}.

    The reference for `intersect_simplices`: the tests enumerate the joint
    system of a simplex pair this way and compare the hull vertices.
    """
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
    points sum(lambda_i p_out_i) ++ sum(mu_j q_out_j).  The defaults
    (p_out = p_points, q_out empty) give hull(P) ∩ hull(Q); other outputs
    read the same polytope through the affine maps that send p_i to
    p_out_i and q_j to q_out_j.

    The joint weights (lambda, mu) range over the standard simplex on the
    homogeneous integer points (p_i, 1) and -(q_j, 1); one clip by the
    unit equations of their sum (`_clip_simplex`) leaves the rays with
    sum(lambda_i (p_i, 1)) = sum(mu_j (q_j, 1)), whose last coordinate
    makes both weight sums equal.  Either side may be affinely dependent.
    """
    P = [as_vec(p) for p in p_points]
    Q = [as_vec(q) for q in q_points]
    if not P or not Q:
        return []
    p_out = P if p_out is None else [as_vec(x) for x in p_out]
    q_out = [()] * len(Q) if q_out is None else [as_vec(x) for x in q_out]
    m = len(P)
    ipts, _ = linalg.integer_points(P + Q)
    joint = [x + (1,) for x in ipts[:m]] + [tuple(-c for c in x) + (-1,) for x in ipts[m:]]
    n = len(joint[0])
    units = [[int(i == t) for i in range(n)] for t in range(n)]
    # outputs as integer columns over one denominator, read at the weights
    # w / sum(lambda)
    outs, den = linalg.integer_points(p_out + q_out)
    p_cols, q_cols = list(zip(*outs[:m])), list(zip(*outs[m:]))
    pts = []
    for w in _clip_simplex(joint, [], units):
        lam, mu = w[:m], w[m:]
        total = sum(lam) * den
        pts.append(
            tuple(Fraction(_value(col, lam), total) for col in p_cols)
            + tuple(Fraction(_value(col, mu), total) for col in q_cols)
        )
    # outputs that determine the weights keep the vertices apart: lambda,
    # read off an independent p_out, fixes the point and so mu on an
    # independent Q; likewise with the sides swapped
    if (_independent(outs[:m]) and _independent(ipts[m:])) or (
        _independent(outs[m:]) and _independent(ipts[:m])
    ):
        return sorted(pts)
    return hull_vertices(pts)


def _independent(ipts) -> bool:
    """Whether the integer points are affinely independent."""
    return len(linalg.eliminate([list(x) + [1] for x in ipts])[0]) == len(ipts)


def _clip_simplex(points, facets, equations) -> list[tuple[int, ...]]:
    """Vertices of {lambda in the standard simplex : c(x) >= 0 for c in
    facets, c(x) = 0 for c in equations}, where x = sum(lambda_i
    points_i) over homogeneous integer points and each c is an integer
    row; each vertex is the primitive integer vector on its ray.

    Double description (Fukuda & Prodon, "Double description method
    revisited", 1996) on the cone lambda >= 0: each vertex carries its
    point x, where each cut is evaluated, and the bitmask of the
    constraints tight at it, bit i for lambda_i >= 0 and one bit per
    facet cut.  A cut keeps the vertices on its side and adds the
    crossing of each pair on opposite sides that is adjacent: no third
    vertex is tight on every constraint tight at both.
    """
    m = len(points)
    verts = [
        ((0,) * i + (1,) + (0,) * (m - i - 1), x, ((1 << m) - 1) ^ (1 << i))
        for i, x in enumerate(points)
    ]
    cuts = [(c, 0) for c in equations] + [(c, 1 << (m + j)) for j, c in enumerate(facets)]
    for c, bit in cuts:
        kept, pos, neg = [], [], []
        for w, x, tight in verts:
            v = _value(c, x)
            if v == 0:
                kept.append((w, x, tight | bit))
            elif v > 0:
                pos.append((v, w, x, tight))
                if bit:
                    kept.append((w, x, tight))
            else:
                neg.append((v, w, x, tight))
        for vu, wu, xu, tu in pos:
            for vx, wx, xx, tx in neg:
                common = tu & tx
                if sum((t & common) == common for _, _, t in verts) > 2:
                    continue
                ray = [vu * b - vx * a for a, b in zip(wu, wx)]
                g = gcd(*ray)
                # the crossing's point is the same combination of theirs
                x = [(vu * b - vx * a) // g for a, b in zip(xu, xx)]
                kept.append((tuple(r // g for r in ray), x, common | bit))
        verts = kept
    return [w for w, _, _ in verts]


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
    lex-sorted list of distinct points.  An affinely independent set is
    returned as its one simplex, which is all that placing would build;
    only dependent sets are placed.  Placing takes every point, so points
    not in convex position (which hull_vertices / vertex enumeration never
    produce) become vertices of the triangulation too.
    """
    pts = sorted(set(as_vec(p) for p in points))
    if not pts:
        return []
    ipts, _ = linalg.integer_points(pts)
    if _independent(ipts):
        return [tuple(range(len(pts)))]
    return sorted(_place(ipts)[0])


def _value(row, x) -> int:
    return sum(map(operator.mul, row, x))


def bounding_box(points) -> tuple:
    """The coordinatewise minima and maxima of the points."""
    columns = list(zip(*points))
    return tuple(map(min, columns)), tuple(map(max, columns))


def boxes_meet(a, b) -> bool:
    """Whether two bounding boxes share a point."""
    return all(map(operator.le, a[0], b[1])) and all(map(operator.le, b[0], a[1]))


def _place(ipts):
    """Lexicographic placing of the integer scaling `ipts` of sorted
    distinct points.

    Each point in turn is coned over every simplex when an equation of
    their affine span is nonzero at it, else over each boundary ridge
    whose owner's facet functional is negative at it.  Returns (top
    simplices, {boundary ridge: its owner's facet functional}, the
    span's equations); the functionals are integer rows (a, b) read at x
    as a.x + b.
    """
    simplices = {(0,): _integer_functionals(ipts[:1])[0]}
    boundary: dict[tuple[int, ...], list[int]] = {}
    for idx in range(1, len(ipts)):
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
    return list(simplices), boundary, rows[len(first) :: 2]


def contains(simplex_points, points) -> bool:
    """Whether every point lies in the hull of an affinely independent
    simplex: every row of its `_integer_functionals` is >= 0 at every
    point.  The affine-hull equations come with both signs, so >= 0 on
    both rows is = 0.

    Raises ValueError when the simplex is affinely dependent or a point's
    dimension differs from the simplex's.
    """
    (rows, _), ipts = _functionals_at(simplex_points, points)
    return all(_value(row, x + (1,)) >= 0 for x in ipts for row in rows)


def on_a_facet_wall(simplex_points, points) -> bool:
    """Whether one facet functional of an affinely independent simplex
    vanishes at every point, that is, whether the points lie in the
    hyperplane through one of its facets.  Raises ValueError as
    `contains` does."""
    (rows, off), ipts = _functionals_at(simplex_points, points)
    return any(
        o >= 0 and all(_value(row, x + (1,)) == 0 for x in ipts) for row, o in zip(rows, off)
    )


def _functionals_at(simplex_points, points):
    """The `_integer_functionals` of a simplex and the points, scaled
    together to integers."""
    m = len(simplex_points)
    ipts, _ = linalg.integer_points([as_vec(x) for x in itertools.chain(simplex_points, points)])
    if any(len(x) != len(ipts[0]) for x in ipts[m:]):
        raise ValueError("point dimension does not match the simplex")
    functionals = _integer_functionals(ipts[:m])
    if functionals is None:
        raise ValueError("simplex is not affinely independent")
    return functionals, ipts[m:]


def _integer_functionals(ipts):
    """Facet and affine-hull functionals of a simplex with integer vertices.

    Returns None when the vertices are affinely dependent, else
    (rows, off_vertex) where each row is an integer (a_1..a_n, b)
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
    if len(pivots) < m:
        return None
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
