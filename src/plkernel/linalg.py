"""Exact linear algebra over the rationals.

Rows are sequences of ``fractions.Fraction`` or ``int`` entries.  Every
routine scales each row to integers by the lcm of its denominators and
runs the one elimination kernel, `eliminate` (fraction-free Gauss-Jordan
after Bareiss), over the integers; results come back as Fractions.
Nothing here ever touches floating point; results are bit-reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

Vec = tuple[Fraction, ...]


def as_vec(xs) -> Vec:
    """xs as a tuple of Fractions; a tuple of Fractions is returned as it is."""
    if type(xs) is tuple and all(type(x) is Fraction for x in xs):
        return xs
    return tuple(Fraction(x) for x in xs)


def dot(a, b) -> Fraction:
    return sum((Fraction(x) * Fraction(y) for x, y in zip(a, b, strict=True)), Fraction(0))


def integer_rows(rows) -> tuple[list[list[int]], list[int]]:
    """Each row scaled to integers by the lcm of its denominators.

    Returns (integer rows, the scale factor of each row).
    """
    out, scales = [], []
    for row in rows:
        row = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
        den = lcm(*[x.denominator for x in row])
        out.append([x.numerator * (den // x.denominator) for x in row])
        scales.append(den)
    return out, scales


def integer_points(points) -> tuple[list[tuple[int, ...]], int]:
    """The points times the lcm of all their coordinates' denominators,
    and that lcm."""
    den = lcm(*[c.denominator for p in points for c in p])
    return [tuple(c.numerator * (den // c.denominator) for c in p) for p in points], den


def eliminate(m: list[list[int]], ncols: int | None = None) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    Bareiss's one-step method (Math. Comp. 22, 1968) in its Gauss-Jordan
    form: every division is exact, so all entries stay integers, namely
    minors of the input.  Pivots are taken in column order among the first
    `ncols` columns (all by default), each from the first nonzero row at or
    below the next pivot row, which is swapped into place.

    Returns (pivot columns, sign of the row permutation).  Afterwards row r
    holds the same pivot value d at column pivots[r] and 0 in every other
    pivot column, and the rows below the last pivot row are 0 in the first
    `ncols` columns.  For a square matrix of full rank, det = sign * d.
    """
    if ncols is None:
        ncols = len(m[0]) if m else 0
    nrows = len(m)
    pivots: list[int] = []
    sign = 1
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
            sign = -sign
        prow = m[r]
        pv = prow[c]
        for i in range(nrows):
            if i == r:
                continue
            row = m[i]
            f = row[c]
            m[i] = [(pv * x - f * y) // prev for x, y in zip(row, prow)]
        prev = pv
        pivots.append(c)
        if len(pivots) == nrows:
            break
    return pivots, sign


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form.  Returns (rref rows, pivot column indices)."""
    m, _ = integer_rows(rows)
    pivots, _ = eliminate(m)
    d = m[0][pivots[0]] if pivots else 1
    return [[Fraction(x, d) for x in row] for row in m], pivots


def rank(rows) -> int:
    m, _ = integer_rows(rows)
    return len(eliminate(m)[0])


def det(rows) -> Fraction:
    """Determinant by fraction-free Gaussian elimination."""
    m, scales = integer_rows(rows)
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    pivots, sign = eliminate(m)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * m[-1][-1] if n else 1, prod(scales))


def solve(a_rows, b) -> Vec | None:
    """One solution of A x = b, or None if the system is inconsistent.

    When the solution space is positive-dimensional the free variables are
    set to zero, so the answer is deterministic.
    """
    if not a_rows:
        return ()
    ncols = len(a_rows[0])
    m, _ = integer_rows([list(row) + [bv] for row, bv in zip(a_rows, b, strict=True)])
    pivots, _ = eliminate(m, ncols)
    if any(row[ncols] for row in m[len(pivots):]):
        return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = Fraction(m[r][ncols], m[r][c])
    return tuple(x)


def nullspace(rows) -> list[Vec]:
    """Basis of the right nullspace of A."""
    if not rows:
        return []
    ncols = len(rows[0])
    m, _ = integer_rows(rows)
    pivots, _ = eliminate(m)
    basis = []
    for fc in [c for c in range(ncols) if c not in pivots]:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -Fraction(m[r][fc], m[r][c])
        basis.append(tuple(v))
    return basis


def affinely_independent(points) -> bool:
    """True iff the given points span a simplex of dimension len(points)-1."""
    if len(points) <= 1:
        return True
    ipts, _ = integer_points([as_vec(p) for p in points])
    diffs = [[a - b for a, b in zip(p, ipts[0])] for p in ipts[1:]]
    return len(eliminate(diffs)[0]) == len(diffs)


def barycentric_coordinates(point, simplex_points) -> Vec | None:
    """Coordinates of `point` w.r.t. an affinely independent point tuple.

    Returns None when the point is outside the affine hull.  The coordinates
    sum to 1 but may be negative (the point need not be inside the simplex).
    """
    pts = [as_vec(p) for p in simplex_points]
    p = as_vec(point)
    n = len(p)
    # rows: each ambient coordinate, plus the normalization row
    rows = [[pts[j][i] for j in range(len(pts))] for i in range(n)]
    rows.append([Fraction(1)] * len(pts))
    rhs = list(p) + [Fraction(1)]
    return solve(rows, rhs)
