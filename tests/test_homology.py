import pytest

from plkernel import complexes, delta, homology, suite


def test_snf_diag_2_3():
    sf = homology.smith_normal_form([[2, 0], [0, 3]])
    assert sf.diagonal == (1, 6)


def test_snf_zero_matrix():
    sf = homology.smith_normal_form([[0, 0], [0, 0]])
    assert sf.diagonal == ()
    assert sf.rank == 0


def test_snf_certifies_factorization():
    m = [[6, 4, 2], [4, 8, 6], [2, 6, 10]]
    sf = homology.smith_normal_form(m, check=True)
    for i in range(len(sf.diagonal) - 1):
        assert sf.diagonal[i + 1] % sf.diagonal[i] == 0


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
