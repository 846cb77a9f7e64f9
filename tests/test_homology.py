import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import determinantal_divisors, leibniz_det
from plkernel import complexes, delta, homology, prism, simplicial, suite


def test_snf_diag_2_3():
    sf = homology.smith_normal_form([[2, 0], [0, 3]])
    assert sf.diagonal == (1, 6)


def test_snf_zero_matrix():
    sf = homology.smith_normal_form([[0, 0], [0, 0]])
    assert sf.diagonal == ()
    assert sf.rank == 0


def test_snf_certifies_factorization():
    m = [[6, 4, 2], [4, 8, 6], [2, 6, 10]]
    sf = homology.smith_normal_form(m)
    for i in range(len(sf.diagonal) - 1):
        assert sf.diagonal[i + 1] % sf.diagonal[i] == 0


def _mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


_INTEGER_MATRICES = st.integers(1, 4).flatmap(
    lambda n: st.integers(1, 5).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(-6, 6), min_size=m, max_size=m), min_size=n, max_size=n
        )
    )
)


@settings(max_examples=150, deadline=None)
@given(_INTEGER_MATRICES)
@example([[0, 0, 4], [6, 0, 0]])  # row and column swaps
@example([[2, 3]])  # a remainder re-pivots
@example([[2, 0], [0, 3]])  # the divisibility fix
@example([[4, 6, 0], [6, 9, 3], [-2, 0, 5], [0, 0, 0]])
def test_snf_matches_the_determinantal_divisors(a):
    sf = homology.smith_normal_form(a)
    diag = sf.diagonal
    assert all(x > 0 for x in diag)
    assert all(y % x == 0 for x, y in zip(diag, diag[1:]))
    assert [math.prod(diag[:k]) for k in range(1, len(diag) + 1)] == determinantal_divisors(a)
    assert abs(leibniz_det(sf.u)) == 1 and abs(leibniz_det(sf.v)) == 1
    d = [[diag[i] if i == j and i < len(diag) else 0 for j in range(len(a[0]))] for i in range(len(a))]
    assert _mat_mul(_mat_mul(sf.u, a), sf.v) == d == [list(r) for r in sf.d]


def test_snf_wrong_certificate_raises(monkeypatch):
    # a product that disagrees with D must fail loudly, also under python -O
    real = homology._mat_mul
    monkeypatch.setattr(
        homology, "_mat_mul", lambda a, b: [[x + 1 for x in row] for row in real(a, b)]
    )
    with pytest.raises(ArithmeticError):
        homology.smith_normal_form([[2, 0], [0, 3]])


def test_chains_of_rejects_bad_identities():
    bad = delta.DeltaSet(
        {0: ("a", "b", "c", "d"), 1: ("p", "q", "r")},
        {
            (1, "p", 0): "b", (1, "p", 1): "a",
            (1, "q", 0): "c", (1, "q", 1): "a",
            (1, "r", 0): "c", (1, "r", 1): "d",
        },
    )
    bad2 = delta.DeltaSet(
        {**bad.generators, 2: ("t",)},
        {**bad.faces, (2, "t", 0): "r", (2, "t", 1): "q", (2, "t", 2): "p"},
    )
    with pytest.raises(homology.ChainComplexError):
        homology.chains_of(bad2)


def test_circle_homology():
    h = homology.homology_of_complex(suite.circle_4())
    assert h.betti_vector() == (1, 1)
    assert h.torsion(1) == ()


def test_sphere_homology():
    h = homology.homology_of_complex(suite.boundary_tetrahedron())
    assert h.betti_vector() == (1, 0, 1)


def test_torus_homology():
    h = homology.homology_of_complex(suite.torus_7())
    assert h.betti_vector() == (1, 2, 1)
    assert h.report() == "H_0 = Z\nH_1 = Z^2\nH_2 = Z"


def test_projective_plane_homology():
    h = homology.homology_of_complex(suite.projective_plane_6())
    assert h.describe(0) == "Z"
    assert h.describe(1) == "Z/2"
    assert h.describe(2) == "0"


def test_describe_mixed_group():
    p = homology.profile({1: (2, (2, 4))})
    assert p.describe(1) == "Z^2 ⊕ Z/2 ⊕ Z/4"


def test_subdivision_invariance_with_torsion():
    k = suite.projective_plane_6()
    sd = complexes.barycentric_subdivide(k)
    assert homology.homology_of_complex(sd) == homology.homology_of_complex(k)


def test_euler_characteristic_agreement():
    for k in suite.corpus():
        h = homology.homology_of_complex(k)
        assert h.euler_characteristic() == k.euler_characteristic()


def test_normalized_chains_of_a_delta_set_match():
    # a Δ-set is a simplicial set whose faces are all nondegenerate
    from plkernel.simplicial import SimplicialSetFP

    x = complexes.delta_set_of(suite.torus_7())
    faces = {key: ((), tg) for key, tg in x.faces.items()}
    sset = SimplicialSetFP(x.generators, faces)
    assert homology.normalized_chains(sset) == homology.chain_complex_of(x)


def test_normalized_chains_drop_degenerate_faces():
    # one vertex v, one loop e, one triangle with faces e, e, s_0 v: S^2 ∨ S^1
    from plkernel.simplicial import SimplicialSetFP

    sset = SimplicialSetFP(
        {0: ("v",), 1: ("e",), 2: ("t",)},
        {
            (1, "e", 0): ((), "v"), (1, "e", 1): ((), "v"),
            (2, "t", 0): ((), "e"), (2, "t", 1): ((), "e"), (2, "t", 2): ((0,), "v"),
        },
    )
    cc = homology.normalized_chains(sset)
    assert cc.ranks == {0: 1, 1: 1, 2: 1}
    assert cc.boundaries == {1: {}, 2: {}}
    assert homology.homology(cc).betti_vector() == (1, 1, 1)


# ---------------------------------------------------------------------------
# the chain-complex builder against boundary matrices from the definition
# ---------------------------------------------------------------------------


def dense_boundary(cc, k):
    """d_k of cc as a dense matrix; a stored zero entry or empty column
    fails the test."""
    assert all(col and all(col.values()) for col in cc.boundaries[k].values())
    return homology._dense(cc.boundaries[k], cc.ranks[k - 1], cc.ranks[k])


def reference_boundary(x, k, face):
    """Σ (-1)^i d_i from the generators of degree k to those of degree k-1,
    in their listed order; face(k, g, i) is None where d_i g is degenerate."""
    rows, cols = list(x.gens(k - 1)), list(x.gens(k))
    out = [[0] * len(cols) for _ in rows]
    for c, g in enumerate(cols):
        for i in range(k + 1):
            h = face(k, g, i)
            if h is not None:
                out[rows.index(h)][c] += (-1) ** i
    return out


def assert_matches_reference(cc, x, face):
    assert cc.ranks == {k: len(x.gens(k)) for k in range(x.dimension + 1)}
    assert set(cc.boundaries) == set(range(1, x.dimension + 1))
    for k in range(1, x.dimension + 1):
        assert dense_boundary(cc, k) == reference_boundary(x, k, face)


@st.composite
def delta_sets(draw):
    """Δ-sets up to degree 2 with loops, multiple edges and triangles whose
    faces repeat: edges have arbitrary ends, and the triangles are triples
    of edges (d_0, d_1, d_2) that meet the face identities."""
    verts = [f"v{i}" for i in range(draw(st.integers(1, 3)))]
    ends = draw(st.lists(st.tuples(st.sampled_from(verts), st.sampled_from(verts)), max_size=4))
    faces = {}
    for e, (a, b) in enumerate(ends):
        faces[(1, e, 0)], faces[(1, e, 1)] = b, a

    def d(e, i):
        return faces[(1, e, i)]

    fits = [
        t for t in itertools.product(range(len(ends)), repeat=3)
        if d(t[1], 0) == d(t[0], 0) and d(t[2], 0) == d(t[0], 1) and d(t[2], 1) == d(t[1], 1)
    ]
    tris = draw(st.lists(st.sampled_from(fits), max_size=4, unique=True)) if fits else []
    for n, t in enumerate(tris):
        for i in range(3):
            faces[(2, f"t{n}", i)] = t[i]
    gens = {0: verts, 1: range(len(ends)), 2: [f"t{n}" for n in range(len(tris))]}
    x = delta.DeltaSet(gens, faces)
    assert delta.check_identities(x)
    return x


@settings(max_examples=60, deadline=None)
@given(delta_sets(), st.booleans())
def test_chain_complex_of_matches_the_definition(x, subdivide):
    if subdivide:
        x = prism.sd_delta(x).delta_set
    assert_matches_reference(homology.chain_complex_of(x), x, x.face)


@pytest.mark.parametrize(
    "elements, mult, identity",
    [
        ((0, 1), lambda a, b: (a + b) % 2, 0),
        ((0, 1, 2), lambda a, b: (a + b) % 3, 0),
        ((0, 1, 2), lambda a, b: a * b % 3, 1),  # 0 absorbs
        ((0, 1, 2), max, 0),  # every element idempotent
    ],
    ids=["Z2", "Z3", "mul-mod-3", "max"],
)
def test_normalized_chains_match_the_definition(elements, mult, identity):
    x = simplicial.nerve_of_monoid(elements, mult, identity, cap=4)

    def face(k, g, i):
        word, h = x.faces[(k, g, i)]
        return None if word else h

    assert_matches_reference(homology.normalized_chains(x), x, face)


# ---------------------------------------------------------------------------
# homology ignores geometry and is invariant under subdivision
# ---------------------------------------------------------------------------


@st.composite
def plane_complexes(draw):
    """Complexes whose vertices sit on a 3 × 3 grid in the plane, so that
    coincident vertices, collinear simplices, simplices of more than three
    vertices and overlapping simplices are common."""
    n = draw(st.integers(1, 6))
    simplices = st.sets(st.integers(0, n - 1), min_size=1, max_size=4)
    maximal = [tuple(sorted(s)) for s in draw(st.lists(simplices, min_size=1, max_size=4))]
    grid = st.tuples(st.integers(0, 2), st.integers(0, 2))
    coords = {v: tuple(map(F, draw(grid))) for v in sorted(set().union(*maximal))}
    return complexes.EuclideanComplex.build(maximal, coords)


@settings(max_examples=40, deadline=None)
@given(plane_complexes())
@example(  # overlapping triangles, a collinear triangle, coincident vertices
    complexes.EuclideanComplex.build(
        [(0, 1, 2), (3, 4, 5), (5, 6, 7)],
        {0: (0, 0), 1: (2, 0), 2: (0, 2), 3: (1, 1), 4: (1, -1), 5: (3, 1),
         6: (3, 1), 7: (3, 3)},
    )
)
def test_homology_invariant_under_subdivision(k):
    h = homology.homology_of_complex(k)
    assert homology.homology_of_complex(complexes.barycentric_subdivide(k)) == h
    sd = prism.sd_delta(complexes.delta_set_of(k)).delta_set
    assert homology.homology_of_delta_set(sd) == h
