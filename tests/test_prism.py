import itertools
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_fixed_prism_objects_are_built_once():
    for cached in (prism._product_factors, prism.build_F, prism._k_simplicial_set, prism._r_delta_set):
        cached.cache_clear()
    with mock.patch.object(simplicial, "product", wraps=simplicial.product) as product:
        assert prism.build_F(2) is prism.build_F(2)
        prism.product_map_of((0, 1, 2), 2, 2)
    assert product.call_count == 1  # Δ^1 × Δ^2, once
    assert prism.build_K(2).simplicial_set() is prism.build_K(2).simplicial_set()
    assert prism.build_R(2).delta_set() is prism.build_R(2).delta_set()


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


# ---------------------------------------------------------------------------
# differential test: sd of a Δ-set against the colimit of subdivided simplices
# ---------------------------------------------------------------------------


def colimit_sd(x):
    """sd X as the colimit, over the simplex category of X, of the
    subdivided standard simplices glued along their face inclusions;
    returns (Δ-set, carrier) like prism.sd_delta."""
    sd = {p: delta.sd_standard_delta(p) for p in range(max(x.generators, default=-1) + 1)}
    diag = delta.Diagram()
    for p in sorted(x.generators):
        for g in x.gens(p):
            diag.add_object((p, g), sd[p])
        if p == 0:
            continue
        face = sd[p - 1]
        inclusions = [
            {
                (d, flag): tuple(tuple(v if v < i else v + 1 for v in f) for f in flag)
                for d in sorted(face.generators)
                for flag in face.gens(d)
            }
            for i in range(p + 1)
        ]
        for g in x.gens(p):
            for i, mapping in enumerate(inclusions):
                diag.add_arrow((p - 1, x.face(p, g, i)), (p, g), mapping)
    ds = delta.colimit(diag).delta_set
    carrier = {rep: (rep[0][0], rep[0][1], rep[2]) for k in ds.generators for rep in ds.gens(k)}
    return ds, carrier


def _identified(name, verts, edges, triangles):
    """A Δ-set from each edge's (d_0, d_1) and each triangle's (d_0, d_1, d_2)."""
    faces = {(1, e, i): v for e, ends in edges.items() for i, v in enumerate(ends)}
    faces.update({(2, t, i): e for t, fs in triangles.items() for i, e in enumerate(fs)})
    return delta.DeltaSet({0: verts, 1: tuple(edges), 2: tuple(triangles)}, faces, name)


# the one-vertex torus: a square cut along its diagonal e into
# T1 = [(0,0),(1,0),(1,1)] and T2 = [(0,0),(0,1),(1,1)]; a horizontal, b vertical
TORUS2 = _identified(
    "torus", ("p",), {"a": ("p", "p"), "b": ("p", "p"), "e": ("p", "p")},
    {"T1": ("b", "e", "a"), "T2": ("a", "e", "b")},
)
# RP²: the square A B C D with A ~ C = p, B ~ D = q, AB ~ CD = a, AD ~ CB = b,
# cut along e = BD into T1 = (A, B, D) and T2 = (C, B, D)
RP2_2 = _identified(
    "rp2", ("p", "q"), {"a": ("q", "p"), "b": ("q", "p"), "e": ("q", "q")},
    {"T1": ("e", "b", "a"), "T2": ("e", "a", "b")},
)


def assert_same_sd(x):
    ours = prism.sd_delta(x)
    ds, carrier = colimit_sd(x)
    assert ours.delta_set.generators == ds.generators
    assert dict(ours.delta_set.faces) == dict(ds.faces)
    assert ours.carrier == carrier
    return ours.delta_set


def test_sd_delta_matches_colimit_on_identified_surfaces():
    for x, chi, betti in ((TORUS2, 0, (1, 2, 1)), (RP2_2, 1, (1, 0, 0))):
        assert delta.check_identities(x).ok
        sd1 = assert_same_sd(x)
        assert sd1.euler_characteristic() == chi
        assert homology.homology_of_delta_set(sd1).betti_vector() == betti
        sd2 = assert_same_sd(sd1)
        assert sd2.euler_characteristic() == chi


def test_sd_delta_shares_face_targets():
    sd = prism.sd_delta(TORUS2).delta_set
    for k in sorted(sd.generators)[1:]:
        ids = {id(g) for g in sd.gens(k - 1)}
        assert all(id(sd.face(k, g, i)) in ids for g in sd.gens(k) for i in range(k + 1))


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 6).flatmap(
    lambda nv: st.lists(st.sampled_from(list(itertools.combinations(range(nv), 3))), min_size=1, max_size=4)
))
def test_sd_delta_matches_colimit_on_random_2complexes(triangles):
    x = complexes.delta_set_of(complexes.OrderedComplex.from_maximal(triangles))
    assert_same_sd(assert_same_sd(x))


def test_sd_delta_rejects_broken_identities():
    x = delta.standard_delta(2)
    bad = delta.DeltaSet(x.generators, {**x.faces, (2, (0, 1, 2), 0): (0, 1)}, "bad")
    with pytest.raises(delta.DeltaStructureError):
        prism.sd_delta(bad)
