"""Exact convex-polytope primitives over the rationals.

Polytopes show up here in two guises: as vertex lists (convex position) and
as H-systems {x : E x = f, A x <= b}.  All predicates are exact; point
order is always the lexicographic order on coordinate tuples so that every
construction is deterministic.

Every predicate reads points in one integer form: homogeneous integer
coordinates (D x, D), with D the lcm of the denominators
(`homogeneous`).  The form is held, not rebuilt per call:
`EuclideanComplex.integer_coords` holds a complex's vertices in it, over
the complex's own D, and `EuclideanComplex.functionals` each simplex's
functionals; an affine map holds its vertex images and a family its
simplices' base and fiber parts.  Only raw points from outside a complex
(query points, charts, tests) are scaled, by `homogeneous` and
`integer_simplex`.  Point lists pass between routines over one shared
denominator, the lcm of their reduced denominators (`_over_lcm`), so
integer order is point order.  Fractions come back only in `weights`, in
`dehomogenize` and in the test references `enumerate_basic_solutions`,
`h_polytope_vertices` and `chart_coordinates`.

Which side of a simplex's facet a point lies on is decided by one routine,
`_integer_functionals`: the integer facet functionals and affine-hull
equations of a simplex with homogeneous integer vertices.  A functional
read at (E y, E), E > 0, has the sign of the affine functional at y, so
points and simplices need not share a denominator.  A full-dimensional
simplex that shares a ridge with one whose functionals are known gets
the same rows by one integer-preserving pivot across the ridge
(`_pivot`), which `complexes.validate` walks over the ridge graph; both
routes end in the one full sign-pattern check (`_verified`).  Placing
triangulations, hull vertices, the separating walls of
`complexes.validate`, the point-in-simplex test `contains` and the
barycentric `weights` all read it; a volume is an integer determinant
(`simplex_volume`) or one of weights.  Placing runs only on dependent
point sets: `placing_triangulation` returns an independent set as its one
simplex, and `hull_vertices` returns it whole, after one integer
independence test (`_independent`), which `complexes.join` also asks.

Every simplex-pair polytope comes from `intersect_simplices`: one clip of
the joint weight simplex of both simplices by double description over
integer weights (`_clip_simplex`), whichever side is affinely dependent.
Each side comes as an `IntegerSimplex`, its homogeneous points and its
known independence, so a clip scales nothing and tests no independence.
The pieces of `families`, point-set comparison and the cones of the horn
retraction all read it.  The common-face test of `complexes.validate`
runs the same clip on the complex's integer points.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from . import linalg
from .linalg import Vec, dot


def hull_vertices(points) -> list[tuple[int, ...]]:
    """Extreme points of the convex hull of homogeneous integer points over
    one shared denominator, sorted and distinct, over the lcm of their
    reduced denominators.

    A point is extreme exactly when the hull facets through it, together
    with the equations of the hull's affine span, cut out that point alone;
    the facets are read off the boundary of the placing triangulation.
    """
    hom = sorted(set(points))
    # affinely independent point sets (the empty one too) are entirely
    # extreme
    if _independent(hom):
        return _over_lcm([primitive(x) for x in hom])
    _, boundary, equations = _place(hom)
    facet_rows = {tuple(row) for row in boundary.values()}
    n = len(hom[0]) - 1
    out = []
    for x in hom:
        tight = [list(row) for row in facet_rows if _value(row, x) == 0]
        if len(linalg.eliminate(tight + [list(row) for row in equations])[0]) == n:
            out.append(primitive(x))
    return _over_lcm(out)


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


class IntegerSimplex(NamedTuple):
    """A point list in the integer form the predicates read: homogeneous
    integer points (D x, D), all over one denominator D > 0, and whether
    the points are affinely independent."""

    points: list[tuple[int, ...]]
    independent: bool


def homogeneous(points) -> list[tuple[int, ...]]:
    """The homogeneous integer coordinates (D x, D) of points with int or
    Fraction coordinates, where D is the lcm of all their denominators:
    the form every predicate here reads."""
    ipts, den = linalg.integer_points(points)
    return [x + (den,) for x in ipts]


def dehomogenize(hom) -> list[Vec]:
    """The Fraction points of homogeneous integer points (D x, D)."""
    return [tuple(Fraction(c, x[-1]) for c in x[:-1]) for x in hom]


def primitive(x) -> tuple[int, ...]:
    """The primitive integer vector on the ray of x; of a homogeneous point,
    its one key, whose last entry is the point's reduced denominator."""
    g = gcd(*x)
    return tuple(c // g for c in x)


def _over_lcm(prim) -> list[tuple[int, ...]]:
    """Primitive homogeneous points over one denominator, the lcm of their
    reduced denominators; over it, integer order is point order."""
    den = lcm(*[x[-1] for x in prim])
    return [tuple(c * (den // x[-1]) for c in x) for x in prim]


def integer_simplex(points) -> IntegerSimplex:
    """The integer form of raw points, for callers that hold no complex."""
    hom = homogeneous(points)
    return IntegerSimplex(hom, _independent(hom))


def intersect_simplices(p, q, p_out=None, q_out=None) -> list[tuple[int, ...]]:
    """Vertices of the polytope of weights on two simplices whose points agree.

    Every argument is an `IntegerSimplex`.  Over lambda, mu >= 0 with
    sum(lambda) = sum(mu) = 1 and sum(lambda_i p_i) = sum(mu_j q_j),
    returns the hull vertices of the points sum(lambda_i p_out_i) ++
    sum(mu_j q_out_j), sorted and distinct, as homogeneous integer points
    (L x, L) over one L per call, the lcm of their reduced denominators;
    over a shared L the integer order is the lexicographic order of the
    points.  The defaults (p_out = p, q_out empty) give hull(P) ∩ hull(Q);
    other outputs read the same polytope through the affine maps that send
    p_i to p_out_i and q_j to q_out_j.

    The joint weights range over the standard simplex on the homogeneous
    points (D_P p_i, D_P) and -(D_Q q_j, D_Q); one clip by the unit
    equations of their sum (`_clip_simplex`) leaves the rays on which both
    sides name the same point.  Each side's weights, divided by their own
    sum, are its barycentric weights, so each side keeps its own
    denominator.  Either side may be affinely dependent.
    """
    if not p.points or not q.points:
        return []
    if p_out is None:
        p_out = p
    if q_out is None:  # no outputs: one empty point per vertex of Q
        q_out = IntegerSimplex([(1,)] * len(q.points), len(q.points) == 1)
    m = len(p.points)
    joint = p.points + [tuple(-c for c in x) for x in q.points]
    n = len(joint[0])
    units = [[int(i == t) for i in range(n)] for t in range(n)]
    # outputs as integer columns, read at the weights of each side over
    # that side's weight sum and output denominator
    p_den, q_den = p_out.points[0][-1], q_out.points[0][-1]
    p_cols = list(zip(*p_out.points))[:-1]
    q_cols = list(zip(*q_out.points))[:-1]
    prim = []
    for w in _clip_simplex(joint, [], units):
        lam, mu = w[:m], w[m:]
        p_total, q_total = sum(lam) * p_den, sum(mu) * q_den
        x = [_value(c, lam) * q_total for c in p_cols] + [_value(c, mu) * p_total for c in q_cols]
        prim.append(primitive(x + [p_total * q_total]))
    pts = _over_lcm(prim)
    # outputs that determine the weights keep the vertices apart: lambda,
    # read off an independent p_out, fixes the point and so mu on an
    # independent Q; likewise with the sides swapped
    if (p_out.independent and q.independent) or (q_out.independent and p.independent):
        return sorted(pts)
    return hull_vertices(pts)


def _independent(hom) -> bool:
    """Whether the homogeneous integer points are affinely independent."""
    return len(linalg.eliminate([list(x) for x in hom])[0]) == len(hom)


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


def placing_triangulation(points) -> list[tuple[int, ...]]:
    """Triangulate the hull of sorted, distinct homogeneous integer points
    over one shared denominator by lexicographic placing.

    `intersect_simplices` and `hull_vertices` return their points in that
    form, so nothing here scales, sorts or deduplicates them again.
    Returns the top-dimensional simplices as sorted index tuples into
    `points`.  An affinely independent set is returned as its one simplex,
    which is all that placing would build; only dependent sets are placed.
    Placing takes every point, so points not in convex position (which
    hull_vertices / vertex enumeration never produce) become vertices of
    the triangulation too.
    """
    if not points:
        return []
    if _independent(points):
        return [tuple(range(len(points)))]
    return sorted(_place(points)[0])


def _value(row, x) -> int:
    return sum(map(operator.mul, row, x))


def bounding_box(points) -> tuple:
    """The coordinatewise minima and maxima of the points."""
    columns = list(zip(*points))
    return tuple(map(min, columns)), tuple(map(max, columns))


def boxes_meet(a, b) -> bool:
    """Whether two bounding boxes share a point."""
    return all(map(operator.le, a[0], b[1])) and all(map(operator.le, b[0], a[1]))


def _place(hom):
    """Lexicographic placing of the homogeneous integer points `hom` of
    sorted distinct points.

    Each point in turn is coned over every simplex when an equation of
    their affine span is nonzero at it, else over each boundary ridge
    whose owner's facet functional is negative at it.  Returns (top
    simplices, {boundary ridge: its owner's facet functional}, the
    span's equations), all rows of `_integer_functionals`.
    """
    simplices = {(0,): _integer_functionals(hom[:1])[0]}
    boundary: dict[tuple[int, ...], list[int]] = {}
    for idx in range(1, len(hom)):
        x = hom[idx]
        first, rows = next(iter(simplices.items()))
        if any(_value(row, x) for row in rows[len(first) :: 2]):
            cones, simplices, boundary = list(simplices), {}, {}
        else:
            cones = [f for f, row in boundary.items() if _value(row, x) < 0]
        for f in cones:
            s = f + (idx,)
            simplices[s] = rows = _integer_functionals([hom[v] for v in s])[0]
            for i, row in enumerate(rows[: len(s)]):
                ridge = s[:i] + s[i + 1 :]
                if boundary.pop(ridge, None) is None:
                    boundary[ridge] = row
    first, rows = next(iter(simplices.items()))
    return list(simplices), boundary, rows[len(first) :: 2]


def contains(functionals, points) -> bool:
    """Whether every point lies in the hull of an affinely independent
    simplex, given its `_integer_functionals` and the points in
    homogeneous integer form (`homogeneous`): every row is >= 0 at every
    point.  The affine-hull equations come with both signs, so >= 0 on
    both rows is = 0.

    Raises ValueError when the functionals are None (the simplex is
    affinely dependent) or a point's dimension differs from the simplex's.
    """
    rows, _ = _checked(functionals, points)
    return all(_value(row, x) >= 0 for x in points for row in rows)


def on_a_facet_wall(functionals, points) -> bool:
    """Whether one facet functional of an affinely independent simplex
    vanishes at every point, that is, whether the points lie in the
    hyperplane through one of its facets.  Takes and raises as `contains`
    does."""
    rows, off = _checked(functionals, points)
    return any(
        o >= 0 and all(_value(row, x) == 0 for x in points) for row, o in zip(rows, off)
    )


def weights(functionals, vertices, x) -> Vec | None:
    """Barycentric weights of a homogeneous point x = (E y, E) on a simplex
    with homogeneous vertices (D v_i, D), or None off its affine hull: facet
    row r_i is 0 at every vertex but v_i, so weight i is D r_i.x / E r_i.v_i.
    Takes `_integer_functionals`, and raises, as `contains` does."""
    rows, _ = _checked(functionals, [x])
    if any(_value(row, x) for row in rows[len(vertices) :: 2]):
        return None
    d, e = vertices[0][-1], x[-1]
    return tuple(Fraction(d * _value(r, x), e * _value(r, v)) for r, v in zip(rows, vertices))


def simplex_volume(hom) -> int:
    """d! D^d times the volume of a simplex with homogeneous vertices (D v_i, D)
    in ℝ^d, as an int: the |det| of its edge vectors.  Callers sum, then divide."""
    return abs(linalg.det([[a - b for a, b in zip(x[:-1], hom[0])] for x in hom[1:]])).numerator


def _checked(functionals, points):
    """The functionals, once they exist and match the points' dimension."""
    if functionals is None:
        raise ValueError("simplex is not affinely independent")
    if any(len(x) != len(functionals[0][0]) for x in points):
        raise ValueError("point dimension does not match the simplex")
    return functionals


def _integer_functionals(hom):
    """Facet and affine-hull functionals of a simplex with homogeneous
    integer vertices (`homogeneous`).

    Returns None when the vertices are affinely dependent, else
    (rows, off_vertex) where each row r is an integer vector with r.x = 0
    at every vertex x except off_vertex (off_vertex = -1 for affine-hull
    equations, where the wall is all of the simplex) and r.x > 0 at
    off_vertex.  A row read at a homogeneous point (E y, E), E > 0, has
    the sign of its affine functional at y.  Facet rows come first, in
    vertex order; equations follow, each with both signs.
    """
    m = len(hom)
    n = len(hom[0])
    # rows [v_j | e_j]; eliminating the left block leaves E V = R in
    # reduced form with the transform E on the right
    aug = [list(p) + [1 if j == i else 0 for j in range(m)] for i, p in enumerate(hom)]
    pivots, _ = linalg.eliminate(aug, n)
    if len(pivots) < m:
        return None
    d = aug[0][pivots[0]]  # shared by all pivot rows; the last column is never 0
    out_rows, out_off = [], []
    for i in range(m):
        vec = [0] * n
        for r, c in enumerate(pivots):
            vec[c] = aug[r][n + i]
        vec = list(primitive(vec))
        if _value(vec, hom[i]) < 0:
            vec = [-x for x in vec]
        out_rows.append(vec)
        out_off.append(i)
    # affine-hull equations: nullspace of the same matrix V
    for fc in range(n):
        if fc in pivots:
            continue
        vec = [0] * n
        vec[fc] = d
        for r, c in enumerate(pivots):
            vec[c] = -aug[r][fc]
        vec = list(primitive(vec))
        out_rows.append(vec)
        out_off.append(-1)
        out_rows.append([-x for x in vec])
        out_off.append(-1)
    return _verified(hom, out_rows, out_off)


def _pivot(rows, i, w, j):
    """The facet rows of a full-dimensional simplex, pivoted from the rows
    of a neighbour that shares every vertex but the neighbour's i-th; the
    homogeneous point w is new, at position j.  None when it is affinely
    dependent.  With a = rows[i].w, w's row is ±rows[i] and each other row
    ±primitive(a rows[k] - (rows[k].w) rows[i]), signed by a (Edmonds,
    J. Res. NBS 71B, 1967): each is 0 at every vertex but its own and > 0
    there, so it is elimination's row, a facet normal unique up to the
    positive scalar `primitive` fixes.  `_verified` checks them."""
    ri = rows[i]
    a = _value(ri, w)
    if a == 0:
        return None
    sign = 1 if a > 0 else -1
    out = []
    for k, r in enumerate(rows):
        if k != i:
            b = _value(r, w)
            out.append([sign * c for c in primitive([a * x - b * y for x, y in zip(r, ri)])])
    out.insert(j, [sign * c for c in ri])
    return out


def _verified(hom, rows, off):
    """(rows, off), once every row is > 0 at its off vertex and 0 at every
    other vertex of `hom`: the safety net of both routes to a simplex's
    functionals, run before any predicate reads them."""
    for vec, o in zip(rows, off):
        for j, p in enumerate(hom):
            val = _value(vec, p)
            if not (val > 0 if j == o else val == 0):
                raise ArithmeticError("functional verification failed")
    return rows, off
