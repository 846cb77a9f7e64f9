import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from plkernel import complexes, delta


def circle_one_vertex():
    return delta.DeltaSet(
        {0: ("v",), 1: ("e",)},
        {(1, "e", 0): "v", (1, "e", 1): "v"},
        name="S1",
    )


def test_standard_delta():
    x = delta.standard_delta(2)
    assert x.f_vector() == (3, 3, 1)
    assert delta.check_identities(x).ok


def test_identity_violation_witness():
    # a 2-generator whose faces do not satisfy d_i d_j = d_{j-1} d_i
    x = delta.DeltaSet(
        {0: ("a", "b", "c", "d"), 1: ("p", "q", "r")},
        {
            (1, "p", 0): "b", (1, "p", 1): "a",
            (1, "q", 0): "c", (1, "q", 1): "a",
            (1, "r", 0): "c", (1, "r", 1): "d",
        },
    )
    bad = delta.DeltaSet(
        {**x.generators, 2: ("t",)},
        {**x.faces, (2, "t", 0): "r", (2, "t", 1): "q", (2, "t", 2): "p"},
    )
    rep = delta.check_identities(bad)
    assert not rep.ok
    assert rep.witness[0] == 2 and rep.witness[1] == "t"


def test_missing_face_raises():
    with pytest.raises(delta.DeltaStructureError):
        delta.DeltaSet({0: ("v",), 1: ("e",)}, {(1, "e", 0): "v"})


def test_morphism_check():
    x = delta.standard_delta(1)
    f = delta.identity_morphism(x)
    assert f.check().ok
    g = delta.DeltaMorphism(x, x, {**f.mapping, (0, (0,)): (1,)})
    assert not g.check().ok


def test_sd_standard_delta():
    sd = delta.sd_standard_delta(2)
    assert sd.f_vector() == (7, 12, 6)
    assert delta.check_identities(sd).ok


def test_colimit_circle_from_interval():
    # glue both endpoints of an interval together
    i = delta.standard_delta(1)
    pt = delta.standard_delta(0)
    d = delta.Diagram()
    d.add_object("i", i)
    d.add_object("p", pt)
    d.add_arrow("p", "i", {(0, (0,)): (0,)})
    d.add_arrow("p", "i", {(0, (0,)): (1,)})
    col = delta.colimit(d)
    assert col.delta_set.f_vector() == (1, 1)
    assert delta.check_identities(col.delta_set).ok


def test_colimit_two_intervals_circle():
    a = delta.standard_delta(1, name="a")
    b = delta.standard_delta(1, name="b")
    p = delta.standard_delta(0, name="p")
    q = delta.standard_delta(0, name="q")
    d = delta.Diagram()
    for key, obj in (("a", a), ("b", b), ("p", p), ("q", q)):
        d.add_object(key, obj)
    d.add_arrow("p", "a", {(0, (0,)): (0,)})
    d.add_arrow("p", "b", {(0, (0,)): (0,)})
    d.add_arrow("q", "a", {(0, (0,)): (1,)})
    d.add_arrow("q", "b", {(0, (0,)): (1,)})
    col = delta.colimit(d)
    assert col.delta_set.f_vector() == (2, 2)


def test_kan_fill_in_simplex():
    x = delta.standard_delta(2)
    horn = {0: (1, 2), 2: (0, 1)}
    filler = delta.kan_fill(x, 2, 1, horn)
    assert filler == (0, 1, 2)


def test_kan_fill_absent():
    x = circle_one_vertex()
    # no 2-generator at all, so no filler exists
    assert delta.kan_fill(x, 2, 1, {0: "e", 2: "e"}) is None


def test_horn_compatibility_raises():
    x = delta.standard_delta(3)
    bad = {0: (0, 1, 2), 2: (0, 1, 2), 3: (0, 1, 2)}
    with pytest.raises(delta.IncompatibleHornError):
        delta.kan_fill(x, 3, 1, bad)


def test_file_roundtrip(tmp_path):
    x = circle_one_vertex()
    path = tmp_path / "s1.dset"
    delta.dump(x, path)
    back = delta.load(path)
    assert back.f_vector() == x.f_vector()
    assert delta.dumps(back) == delta.dumps(x)


set_free_names = st.recursive(
    st.integers() | st.text(max_size=3), lambda c: st.lists(c, max_size=3).map(tuple), max_leaves=8
)


@settings(max_examples=100, deadline=None)
@given(set_free_names)
def test_genkey_is_repr_on_set_free_names(g):
    assert delta.genkey(g) == repr(g)


def test_genkey_lists_set_elements_in_key_order():
    g = ("P", frozenset({("o", 1), ("i", 0)}), frozenset(), (frozenset({"b", "a"}),))
    key = "('P', frozenset({('i', 0), ('o', 1)}), frozenset(), (frozenset({'a', 'b'}),))"
    assert delta.genkey(g) == key
    assert delta._token(g) == "".join(key.split())


def test_morphism_roundtrip():
    x = delta.standard_delta(1)
    f = delta.identity_morphism(x)
    text = delta.dumps_morphism(f, "idmap")
    g = delta.loads_morphism(text, {x.name: x})
    assert g.check().ok


# ---------------------------------------------------------------------------
# the witness of check_identities: the first failure in a fixed order
# ---------------------------------------------------------------------------


def reference_check_identities(x):
    """Degrees ascending, generators in gens order, then (i, j) in
    combinations order, each face read through x.face."""
    for k in sorted(x.generators):
        if k < 2:
            continue
        for g in x.gens(k):
            for i, j in itertools.combinations(range(k + 1), 2):
                if x.face(k - 1, x.face(k, g, j), i) != x.face(k - 1, x.face(k, g, i), j - 1):
                    return delta.IdentityReport(False, (k, g, i, j))
    return delta.IdentityReport(True)


@st.composite
def corrupted_delta_sets(draw):
    """The closure of a random complex with a top simplex of dimension 2..4,
    with one face of one generator in a degree k >= 2 sent to another
    generator of degree k - 1; sometimes a second generator of degree k is
    corrupted too, so the witness must pick the first in gens order."""
    nv = draw(st.integers(4, 6))
    tops = draw(st.lists(
        st.integers(3, 5).flatmap(lambda r: st.sampled_from(list(itertools.combinations(range(nv), min(r, nv))))),
        min_size=1, max_size=5,
    ))
    x = complexes.delta_set_of(complexes.OrderedComplex.from_maximal(tops))
    k = draw(st.sampled_from([d for d in sorted(x.generators) if d >= 2]))
    faces = dict(x.faces)
    for g in draw(st.lists(st.sampled_from(x.gens(k)), min_size=1, max_size=2, unique=True)):
        i = draw(st.integers(0, k))
        others = [h for h in x.gens(k - 1) if h != x.face(k, g, i)]
        assume(others)
        faces[(k, g, i)] = draw(st.sampled_from(others))
    return x, delta.DeltaSet(x.generators, faces)


@settings(max_examples=200, deadline=None)
@given(corrupted_delta_sets())
def test_check_identities_witness_is_first_failure(sets):
    x, bad = sets
    assert delta.check_identities(x).ok
    rep = delta.check_identities(bad)
    assert not rep.ok
    assert rep == reference_check_identities(bad)
