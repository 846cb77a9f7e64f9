import itertools

import pytest

from plkernel import complexes, delta, homology, prism, simplicial


def test_r_counts_p1():
    r = prism.build_R(1)
    assert r.complex.f_vector() == (5, 7, 3)
    assert r.complex.euler_characteristic() == 1


def test_r_counts_p2():
    r = prism.build_R(2)
    # 3 bottom vertices plus one barycenter per nonempty face
    assert r.complex.f_vector()[0] == 3 + 7
    assert complexes.validate(r.complex).ok


def test_r_top_and_bottom():
    r = prism.build_R(2)
    bottom = prism.bottom_subcomplex(r)
    top = prism.top_subcomplex(r)
    assert len(bottom) == 7  # all faces of the base simplex
    assert len(top) == 25  # barycentric subdivision of the lid, face-closed


def test_k_counts():
    for p in range(4):
        k = prism.build_K(p)
        assert len(k.complex.maximal_simplices()) == p + 1
        assert complexes.validate(k.complex).ok
        assert k.complex.euler_characteristic() == 1


def test_r_map_identity_and_composition():
    eta = (0, 1, 2)
    m = prism.build_R_map(eta, 2, 2)
    assert all(m.vertex_map[v] == v for v in m.vertex_map)
    f = prism.build_R_map((0, 1), 1, 2)
    g = prism.build_R_map((0, 0, 1), 2, 1)
    gf = prism.compose_R_maps(g, f)
    direct = prism.build_R_map((0, 0), 1, 1)
    assert gf.vertex_map == direct.vertex_map


def test_r_map_face_equivariance():
    for eta in prism.monotone_maps(1, 2):
        m = prism.build_R_map(eta, 1, 2)
        assert m.to_delta_morphism().check().ok


def test_r_map_rejects_non_monotone():
    with pytest.raises(ValueError):
        prism.build_R_map((1, 0), 1, 1)


def test_r_ordering():
    for p in (1, 2):
        assert prism.verify_R_ordering(p).ok


def test_f_isomorphism_small():
    for p in (0, 1, 2):
        f = prism.build_F(p)
        assert f.check().ok


def test_k_map_naturality():
    # product projection commutes with the chain-triangulation comparison
    for eta in prism.monotone_maps(1, 2):
        km = prism.k_map_of(eta, 1, 2)
        pm = prism.product_map_of(eta, 1, 2)
        fp, fq = prism.build_F(1), prism.build_F(2)
        left = simplicial.compose_simplicial(pm, fq)
        right = simplicial.compose_simplicial(fp, km)
        assert left.mapping == right.mapping


def test_dimension_cap():
    assert prism.DIMENSION_CAP == 6
    identity_map = lambda p: prism.build_R_map(range(p + 1), p, p)  # noqa: E731
    cases = [(build, p) for build in (prism.build_R, prism.build_K, identity_map) for p in (7, -1)]
    # a map into [7]: the target's dimension is capped too
    cases.append((lambda p: prism.build_R_map((0,), 0, p), 7))
    for build, p in cases:
        with pytest.raises(ValueError, match="outside the allowed range 0..6"):
            build(p)


def test_prism_homology_contractible():
    r = prism.build_R(2)
    h = homology.homology_of_complex(r.complex)
    assert h.betti_vector() == (1, 0, 0, 0)


def test_weak_chain_delta_set():
    r = prism.build_R(1)
    w = prism.weak_chain_delta_set(r.complex, 2)
    assert delta.check_identities(w).ok


def test_export_off_shape():
    r = prism.build_R(1)
    text = prism.export_off(r.complex)
    lines = text.strip().splitlines()
    assert lines[0] in ("OFF", "nOFF")
    assert "5" in lines[1] or "5" in lines[2]


def test_sd_delta_circle():
    x = delta.DeltaSet(
        {0: ("v",), 1: ("e",)}, {(1, "e", 0): "v", (1, "e", 1): "v"}, name="S1"
    )
    sd = prism.sd_delta(x)
    assert sd.delta_set.f_vector() == (2, 2)
    assert delta.check_identities(sd.delta_set).ok
    h = homology.homology_of_delta_set(sd.delta_set)
    assert h.betti_vector() == (1, 1)


def test_sd_delta_matches_complex():
    tri = complexes.EuclideanComplex.build(
        [(0, 1, 2)],
        {0: (0, 0), 1: (1, 0), 2: (0, 1)},
    )
    assert prism.sd_delta_matches_complex(tri)
