import itertools
from fractions import Fraction
from math import gcd

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from plkernel import linalg, polytope

F = Fraction


def test_rref_identity():
    rows = [[F(2), F(0)], [F(0), F(3)]]
    red, pivots = linalg.rref(rows)
    assert red == [[F(1), F(0)], [F(0), F(1)]]
    assert pivots == [0, 1]


def test_rank_and_det():
    assert linalg.rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert linalg.det([[F(1), F(2)], [F(3), F(4)]]) == F(-2)
    assert linalg.det([[F(0)]]) == 0


def test_solve_exact():
    a = [[F(1), F(1)], [F(1), F(-1)]]
    x = linalg.solve(a, [F(3), F(1)])
    assert x == (F(2), F(1))
    assert linalg.solve([[F(1), F(1)], [F(2), F(2)]], [F(1), F(3)]) is None


def test_nullspace_dimension():
    ns = linalg.nullspace([[F(1), F(1), F(1)]])
    assert len(ns) == 2
    for v in ns:
        assert sum(v) == 0


def test_affine_independence():
    assert linalg.affinely_independent([(F(0), F(0)), (F(1), F(0)), (F(0), F(1))])
    assert not linalg.affinely_independent([(F(0), F(0)), (F(1), F(1)), (F(2), F(2))])


def test_barycentric_coordinates_roundtrip():
    tri = [(F(0), F(0)), (F(2), F(0)), (F(0), F(2))]
    lam = linalg.barycentric_coordinates((F(1), F(1, 2)), tri)
    assert lam is not None and sum(lam) == 1
    back = [sum(l * p[k] for l, p in zip(lam, tri)) for k in range(2)]
    assert tuple(back) == (F(1), F(1, 2))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_barycentric_coordinates_reconstruct(data):
    n = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(1, n + 1))
    coord = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    pts = [tuple(data.draw(coord) for _ in range(n)) for _ in range(m)]
    assume(linalg.affinely_independent(pts))
    inside = data.draw(st.booleans())
    if inside:
        weights = [data.draw(coord) for _ in range(m - 1)]
        weights.insert(0, 1 - sum(weights))
        point = tuple(sum(w * p[i] for w, p in zip(weights, pts)) for i in range(n))
    else:
        point = tuple(data.draw(coord) for _ in range(n))
    lam = linalg.barycentric_coordinates(point, pts)
    if lam is None:
        # None only for a point off the affine hull
        assert not inside and linalg.affinely_independent(pts + [point])
        return
    assert sum(lam) == 1
    assert tuple(sum(l * p[i] for l, p in zip(lam, pts)) for i in range(n)) == point
    if inside:
        assert lam == tuple(weights)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3), min_size=3, max_size=3))
def test_det_vanishes_iff_rank_deficient(m):
    rows = [[F(x) for x in row] for row in m]
    assert (linalg.det(rows) == 0) == (linalg.rank(rows) < 3)


# -- differential tests against a Fraction Gauss-Jordan oracle --------------


def oracle_rref(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def oracle_det(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    result = Fraction(1)
    for c in range(len(m)):
        pr = next((i for i in range(c, len(m)) if m[i][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            result = -result
        result *= m[c][c]
        for i in range(c + 1, len(m)):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return result


def oracle_solve(a_rows, b):
    if not a_rows:
        return ()
    ncols = len(a_rows[0])
    red, pivots = oracle_rref([list(row) + [bv] for row, bv in zip(a_rows, b)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][-1]
    return tuple(x)


def oracle_nullspace(rows):
    if not rows:
        return []
    red, pivots = oracle_rref(rows)
    basis = []
    for fc in [c for c in range(len(rows[0])) if c not in pivots]:
        v = [Fraction(0)] * len(rows[0])
        v[fc] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][fc]
        basis.append(tuple(v))
    return basis


# small entries, plain ints among them, so that singular matrices are common
entries = st.one_of(
    st.integers(-2, 2), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)


@st.composite
def matrices(draw, nrows=None, ncols=None):
    nrows = draw(st.integers(0, 5)) if nrows is None else nrows
    ncols = draw(st.integers(0, 5)) if ncols is None else ncols
    rows = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    if nrows >= 3 and draw(st.booleans()):
        # force a dependent row
        rows[-1] = [x - 2 * y for x, y in zip(rows[0], rows[1])]
    return rows


@st.composite
def systems(draw):
    a = draw(matrices())
    return a, [draw(entries) for _ in a]


INCONSISTENT = ([[F(1), F(2)], [F(2), F(4)]], [F(1), F(1)])


@settings(max_examples=200, deadline=None)
@given(matrices())
@example([])
@example([[], []])
@example([[F(0), F(0), F(0)], [F(0), F(0), F(0)]])
@example([[F(1, 2), F(1, 3), F(0)], [F(1), F(2, 3), F(0)]])
@example([[F(1)], [F(2)], [F(3)]])
def test_rank_rref_nullspace_match_oracle(rows):
    red, pivots = oracle_rref(rows)
    assert linalg.rref(rows) == (red, pivots)
    assert all(type(x) is Fraction for row in linalg.rref(rows)[0] for x in row)
    assert linalg.rank(rows) == len(pivots)
    assert linalg.nullspace(rows) == oracle_nullspace(rows)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: matrices(n, n)))
@example([])
@example([[F(1), F(2)], [F(2), F(4)]])
@example([[F(0), F(1)], [F(1), F(0)]])
def test_det_matches_oracle(rows):
    assert linalg.det(rows) == oracle_det(rows)


@settings(max_examples=200, deadline=None)
@given(systems())
@example(INCONSISTENT)
@example(([], []))
@example(([[], []], [F(0), F(1)]))
@example(([[F(0), F(0)]], [F(0)]))
def test_solve_matches_oracle(system):
    a, b = system
    assert linalg.solve(a, b) == oracle_solve(a, b)


def test_solve_inconsistent_is_none():
    assert linalg.solve(*INCONSISTENT) is None


@settings(max_examples=200, deadline=None)
@given(matrices(ncols=4).filter(bool))
def test_row_basis_is_greedy(rows):
    ints, _ = linalg.integer_rows(rows)
    greedy = []
    for i in range(len(ints)):
        if linalg.rank([ints[j] for j in greedy] + [ints[i]]) > len(greedy):
            greedy.append(i)
    assert polytope._row_basis(ints) == greedy
    assert polytope._row_basis(rows) == greedy


@settings(max_examples=100, deadline=None)
@given(matrices(ncols=5).filter(bool), st.data())
def test_basic_solutions_match_oracle(a, data):
    b = [data.draw(entries) for _ in a]
    r = linalg.rank(a)
    expected = set()
    for basis in itertools.combinations(range(5), r):
        cols = [[row[j] for j in basis] for row in a]
        if linalg.rank(cols) < r:
            continue
        x = oracle_solve(cols, b)
        if x is not None and min(x, default=0) >= 0:
            full = [Fraction(0)] * 5
            for j, v in zip(basis, x):
                full[j] = v
            expected.add(tuple(full))
    assert polytope.enumerate_basic_solutions(a, b) == sorted(expected)


@st.composite
def integer_simplices(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, n + 1))
    pts = [tuple(draw(st.integers(-4, 4)) for _ in range(n)) for _ in range(m)]
    assume(linalg.affinely_independent(pts))
    return pts


@settings(max_examples=200, deadline=None)
@given(integer_simplices())
@example([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
@example([(1, 1, 1), (2, 3, 5)])
@example([(3,)])
def test_integer_functionals_sign_pattern(pts):
    rows, offs = polytope._integer_functionals(pts)
    n, m = len(pts[0]), len(pts)
    assert offs == list(range(m)) + [-1] * (2 * (n + 1 - m))
    for row, off in zip(rows, offs):
        assert gcd(*row) == 1
        for j, p in enumerate(pts):
            val = sum(a * x for a, x in zip(row, p)) + row[n]
            assert val > 0 if j == off else val == 0
