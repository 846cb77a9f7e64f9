import itertools
import os
import re
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    dict_chain_complex_of,
    dict_check_identities,
    dict_delta_set_of,
    dict_morphism_check,
    dict_sd_delta,
    dict_weak_chain_delta_set,
    validating_delta_set,
)
from plkernel import complexes, delta, homology, prism, suite


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


def test_repeated_generator_raises():
    # counted twice, 'a' would make f = (3, 1) and chi = 2, while the
    # chains, indexed by generator, see chi = 1
    with pytest.raises(delta.DeltaStructureError, match="'a' repeats in degree 0"):
        delta.DeltaSet({0: ("a", "a", "b"), 1: ("e",)}, {(1, "e", 0): "a", (1, "e", 1): "b"})


@pytest.mark.parametrize(
    "key", [(1, "zz", 0), (1, "e", 7), (0, "a", 0), (2, "e", 0), (1, "e"), "loose"]
)
def test_stray_face_key_raises(key):
    faces = {(1, "e", 0): "a", key: "a", (1, "e", 1): "b"}
    with pytest.raises(delta.DeltaStructureError, match=re.escape(f"face key {key!r} names no face")):
        delta.DeltaSet({0: ("a", "b"), 1: ("e",)}, faces)


@st.composite
def face_inputs(draw):
    """Generators in degrees 0..3, named apart across degrees, with every
    face d_i drawn from the degree below (the face identities may fail);
    sometimes with exactly one fault injected."""
    top = draw(st.integers(0, 3))
    gens = {k: [(k, n) for n in range(draw(st.integers(1, 3)))] for k in range(top + 1)}
    faces = {
        (k, g, i): draw(st.sampled_from(gens[k - 1]))
        for k in range(1, top + 1) for g in gens[k] for i in range(k + 1)
    }
    fault = draw(st.sampled_from(
        ["none", "repeat", "negative", "stray"] + (["missing", "degree", "unknown"] if top else [])
    ))
    if fault == "repeat":
        gs = gens[draw(st.integers(0, top))]
        gs.insert(draw(st.integers(0, len(gs))), draw(st.sampled_from(gs)))
    elif fault == "negative":
        gens[-1] = [(-1, 0)]
    elif fault == "stray":
        k = draw(st.integers(0, top))
        faces[(k, draw(st.sampled_from(gens[k])), k + 1)] = gens[0][0]
    elif fault != "none":
        key = draw(st.sampled_from(sorted(faces)))
        if fault == "missing":
            del faces[key]
        elif fault == "degree":
            faces[key] = draw(st.sampled_from([*gens[key[0]], *gens.get(key[0] - 2, ())]))
        else:
            faces[key] = "nowhere"
    return {k: tuple(gs) for k, gs in gens.items()}, faces


@settings(max_examples=300, deadline=None)
@given(face_inputs())
def test_faces_constructor_matches_the_validating_one(inputs):
    gens, faces = inputs
    try:
        want = validating_delta_set(gens, faces, "X")
    except delta.DeltaStructureError as exc:
        with pytest.raises(delta.DeltaStructureError, match=f"^{re.escape(str(exc))}$"):
            delta.DeltaSet(gens, faces, "X")
    else:
        assert delta.DeltaSet(gens, faces, "X") == want


def test_repeated_face_line_raises():
    with pytest.raises(delta.DeltaStructureError, match="repeated face line 'd 1 e 0 b'"):
        delta.loads("dset X\ng 0 a\ng 0 b\ng 1 e\nd 1 e 0 a\nd 1 e 1 b\nd 1 e 0 b\n")


def test_records_skip_blank_and_comment_lines():
    text = "dset X\r\n\r\n   # an indented comment\r\n\t g 0 a  # not a comment\r\n#\n  \t\ng 0 b"
    assert list(delta.records(text)) == [
        (1, ["dset", "X"]), (4, ["g", "0", "a", "#", "not", "a", "comment"]), (7, ["g", "0", "b"])
    ]
    assert list(delta.records("")) == [] and list(delta.records("\n # c\n")) == []


def test_loads_reads_crlf_and_indented_records():
    text = "dset X\r\n  # comment\r\n g 0 a\r\n\r\n\tg 0 b\r\ng 1 e\r\nd 1 e 0 a\r\nd 1 e 1 b\r\n"
    assert delta.loads(text) == delta.loads(text.replace("\r\n", "\n"))


def test_from_table_checks():
    gens = {0: ("a", "b"), 1: ("e",)}
    x = delta.DeltaSet.from_table(gens, {1: (0, 1)}, "I")
    assert x == delta.DeltaSet(gens, {(1, "e", 0): "a", (1, "e", 1): "b"}, "I")
    with pytest.raises(delta.DeltaStructureError, match="'a' repeats in degree 0"):
        delta.DeltaSet.from_table({0: ("a", "b", "a")}, {})
    with pytest.raises(delta.DeltaStructureError, match="row of degree 1 has 1 entries, not 2"):
        delta.DeltaSet.from_table(gens, {1: (0,)})
    for row in ((0, 2), (0, -1)):
        with pytest.raises(delta.DeltaStructureError, match="face d_1 of 'e' is not a generator of degree 0"):
            delta.DeltaSet.from_table(gens, {1: row})


def test_morphism_check():
    x = delta.standard_delta(1)
    f = delta.identity_morphism(x)
    assert f.check().ok
    g = delta.DeltaMorphism(x, x, {**f.mapping, (0, (0,)): (1,)})
    assert not g.check().ok
    h = delta.DeltaMorphism(x, x, {**f.mapping, (0, (1,)): (2,)})
    assert h.check().witness == (0, (1,), None, "image not a generator")


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


@pytest.mark.parametrize(
    "edit, message",
    [
        # a second image used to replace the first
        (lambda t: t + "m 0 (0,) (1,)\n", "line 5: repeated image of '(0,)' in degree 0"),
        (lambda t: t + "map g Delta^1 Delta^1\n", "line 5: repeated header"),
        # unknown names and tokens were bare KeyErrors
        (lambda t: t.replace("map idmap Delta^1", "map idmap Z"), "line 1: unknown Δ-set 'Z'"),
        (lambda t: t.replace("m 0 (1,) (1,)", "m 0 q (1,)"),
         "line 3: Delta^1 has no generator 'q' in degree 0"),
        (lambda t: t.replace("m 0 (1,) (1,)", "m 0 (1,) q"),
         "line 3: Delta^1 has no generator 'q' in degree 0"),
        (lambda t: t.replace("m 1 (0,1)", "m 2 (0,1)"),
         "line 4: Delta^1 has no generator '(0,1)' in degree 2"),
        (lambda t: t + "n 0 (0,) (1,)\n", "line 5: unexpected line 'n 0 (0,) (1,)'"),
        (lambda t: t.replace("m 1 (0,1)", "m one (0,1)"), "line 4: bad number 'one'"),
    ],
    ids=["image", "header", "set", "source-token", "target-token", "degree", "record", "number"],
)
def test_loads_morphism_names_the_bad_line(edit, message):
    x = delta.standard_delta(1)
    text = delta.dumps_morphism(delta.identity_morphism(x), "idmap")
    assert text.splitlines()[1:] == ["m 0 (0,) (0,)", "m 0 (1,) (1,)", "m 1 (0,1) (0,1)"]
    with pytest.raises(delta.DeltaStructureError, match=f"^{re.escape(message)}$"):
        delta.loads_morphism(edit(text), {x.name: x})


def test_loads_rejects_a_second_header():
    with pytest.raises(delta.DeltaStructureError, match="^line 3: repeated header$"):
        delta.loads("dset X\ng 0 a\ndset Y\n")


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


# ---------------------------------------------------------------------------
# the face table against the faces dict
# ---------------------------------------------------------------------------


@st.composite
def tabled_delta_sets(draw):
    """A closure of a random complex, a corruption of it that fails the
    face identities, or the sd of the closure."""
    x, bad = draw(corrupted_delta_sets())
    kind = draw(st.sampled_from(["closure", "corrupted", "sd"]))
    return {"closure": x, "corrupted": bad, "sd": prism.sd_delta(x).delta_set}[kind]


@settings(max_examples=100, deadline=None)
@given(tabled_delta_sets())
def test_dumps_loads_roundtrip(x):
    # a file names each generator by its token
    x = delta.DeltaSet.from_table(
        {k: tuple(map(delta._token, gs)) for k, gs in x.generators.items()}, x.table, x.name
    )
    assert delta.loads(delta.dumps(x)) == x


@settings(max_examples=100, deadline=None)
@given(tabled_delta_sets())
def test_face_table_matches_the_faces(x):
    assert set(x.table) == set(range(1, x.dimension + 1))
    for k in x.table:
        lower = x.gens(k - 1)
        assert x.table[k] == tuple(
            lower.index(x.faces[(k, g, i)]) for g in x.gens(k) for i in range(k + 1)
        )
    assert delta.check_identities(x) == dict_check_identities(x)
    assert homology.chain_complex_of(x) == dict_chain_complex_of(x)


class CountingFaces(dict):
    """A faces dict that counts its lookups."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        self.reads += 1
        return super().__contains__(key)

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)


@pytest.mark.parametrize("broken", [False, True], ids=["valid", "corrupted"])
def test_table_readers_make_no_face_lookups(broken):
    x = complexes.delta_set_of(suite.torus_7())
    faces = dict(x.faces)
    if broken:
        t = x.gens(2)[3]
        faces[(2, t, 0)] = next(e for e in x.gens(1) if e != x.face(2, t, 0))
    faces = CountingFaces(faces)
    y = delta.DeltaSet(x.generators, faces)
    assert faces.reads == sum((k + 1) * len(x.gens(k)) for k in range(1, 3))  # one get per face
    faces.reads = 0
    assert delta.check_identities(y).ok is not broken
    homology.chain_complex_of(y)
    if not broken:
        prism.sd_delta(y)
    assert faces.reads == 0


HASH_SEED_SCRIPT = """
from plkernel import complexes, delta, homology, nerve, prism, suite
x = complexes.delta_set_of(suite.torus_7())
for _ in range(2):
    x = prism.sd_delta(x).delta_set
print(delta.dumps(x))
print(x.table)
n = nerve.nerve(nerve.demo_cobordism_category(), 4)
print(n.table)
print(prism.weak_chain_delta_set(prism.build_R(2).complex, 3).table)
print(homology.homology_of_delta_set(n).report())
"""


def test_tables_and_homology_independent_of_hash_seed():
    src = os.path.dirname(os.path.dirname(delta.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed}
        proc = subprocess.run(
            [sys.executable, "-c", HASH_SEED_SCRIPT], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# the table writers against the dict writers of tests/oracles.py
# ---------------------------------------------------------------------------


def same_build(build, oracle):
    """The builder's Δ-set (or sd) equals the oracle's, which went through
    the validating constructor, on generators, table and name; or both
    raise the same error."""

    def outcome(make):
        try:
            return make()
        except delta.DeltaStructureError as exc:
            return type(exc), str(exc)

    ours = outcome(build)
    assert ours == outcome(oracle)
    built = ours.delta_set if isinstance(ours, prism.SubdividedDeltaSet) else ours
    if isinstance(built, delta.DeltaSet):
        assert "faces" not in built.__dict__
    return ours


@settings(max_examples=100, deadline=None)
@given(tabled_delta_sets())
def test_sd_delta_matches_the_dict_writer(x):
    # sd of the sd of a 4-dimensional closure has about 10^5 generators
    assume(x.dimension <= 3 or not x.name.startswith("sd"))
    same_build(lambda: prism.sd_delta(x), lambda: dict_sd_delta(x))


@st.composite
def ordered_complexes(draw):
    nv = draw(st.integers(1, 6))
    tops = draw(st.lists(
        st.integers(1, 5).flatmap(lambda r: st.sampled_from(list(itertools.combinations(range(nv), min(r, nv))))),
        min_size=1, max_size=5,
    ))
    return complexes.OrderedComplex.from_maximal(tops)


@settings(max_examples=100, deadline=None)
@given(ordered_complexes())
def test_delta_set_of_matches_the_dict_writer(k):
    same_build(lambda: complexes.delta_set_of(k), lambda: dict_delta_set_of(k))


@pytest.mark.parametrize("p", range(4))
def test_prism_delta_sets_match_the_dict_writers(p):
    ec = prism.build_R(p).complex
    same_build(lambda: complexes.delta_set_of(ec), lambda: dict_delta_set_of(ec))
    for degree in range(5):
        same_build(
            lambda: prism.weak_chain_delta_set(ec, degree), lambda: dict_weak_chain_delta_set(ec, degree)
        )


@st.composite
def corrupted_morphisms(draw):
    """An identity of a closure, of its corruption or of its sd, or the
    Δ-morphism of a prism map; sometimes with one image removed, or sent
    to another generator of its degree, to a generator of another degree
    or to a name that is no generator."""
    kind = draw(st.sampled_from(["identity", "prism"]))
    if kind == "identity":
        f = delta.identity_morphism(draw(tabled_delta_sets()))
    else:
        p, q = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        eta = draw(st.sampled_from(prism.monotone_maps(p, q)))
        f = prism.build_R_map(eta, p, q).to_delta_morphism()
    edit = draw(st.sampled_from(["none", "remove", "same degree", "other degree", "nowhere"]))
    if edit == "none":
        return f
    mapping = dict(f.mapping)
    k, g = key = draw(st.sampled_from(sorted(mapping, key=repr)))
    if edit == "remove":
        del mapping[key]
    elif edit == "same degree":
        mapping[key] = draw(st.sampled_from(f.target.gens(k)))
    elif edit == "other degree":
        mapping[key] = draw(st.sampled_from(f.target.gens(draw(st.sampled_from(sorted(f.target.generators))))))
    else:
        mapping[key] = "nowhere"
    return delta.DeltaMorphism(f.source, f.target, mapping)


@settings(max_examples=200, deadline=None)
@given(corrupted_morphisms())
def test_morphism_check_matches_the_dict_walk(f):
    assert f.check() == dict_morphism_check(f)


def test_table_users_leave_the_faces_underived():
    from plkernel import nerve

    prism._r_delta_set.cache_clear()
    torus = complexes.delta_set_of(suite.torus_7())
    # the nerve of the chain poset 0 -> 1 -> 2
    path = nerve.nerve(
        nerve.FiniteNonUnitalCategory(
            (0, 1, 2), ("f", "g", "gf"), {"f": 0, "g": 1, "gf": 0}, {"f": 1, "g": 2, "gf": 2},
            {("f", "g"): "gf"}, name="path",
        )
    )
    built = [
        torus,
        prism.sd_delta(torus).delta_set,
        nerve.nerve(nerve.demo_cobordism_category(), 3),
        prism.weak_chain_delta_set(prism.build_R(2).complex, 3),
        path,
    ]
    for x in built:
        assert delta.check_identities(x).ok
        homology.chain_complex_of(x)
        assert delta.identity_morphism(x).check().ok
    assert delta.kan_fill(path, 2, 1, {0: ("g",), 2: ("f",)}) == ("f", "g")
    assert delta.kan_fill(path, 2, 0, {1: ("f",), 2: ("gf",)}) is None
    f = prism.build_R_map((0, 1, 1), 2, 1).to_delta_morphism()
    assert f.check().ok
    for x in built + [f.source, f.target]:
        assert "faces" not in x.__dict__
