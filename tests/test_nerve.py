import itertools
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import dict_nerve, two_mode_check_category

from plkernel import complexes, delta, homology, nerve, suite


def arrow_category():
    # a single morphism between two objects, no composites needed
    return nerve.FiniteNonUnitalCategory(
        objects=("A", "B"),
        morphisms=("f",),
        src={"f": "A"},
        tgt={"f": "B"},
        comp={},
        name="arrow",
    )


def chain_category():
    return nerve.FiniteNonUnitalCategory(
        objects=(0, 1, 2),
        morphisms=("f", "g", "gf"),
        src={"f": 0, "g": 1, "gf": 0},
        tgt={"f": 1, "g": 2, "gf": 2},
        comp={("f", "g"): "gf"},
        name="chain",
    )


def test_check_category_good():
    assert nerve.check_category(arrow_category()).ok
    assert nerve.check_category(chain_category()).ok


def test_check_category_missing_composite():
    # a composable pair without a composite is a truncation, not an issue
    c = nerve.FiniteNonUnitalCategory(
        objects=(0,), morphisms=("e",), src={"e": 0}, tgt={"e": 0}, comp={},
    )
    assert nerve.check_category(c).ok


def test_check_category_bad_endpoint():
    c = nerve.FiniteNonUnitalCategory(
        objects=(0, 1, 2),
        morphisms=("f", "g"),
        src={"f": 0, "g": 1},
        tgt={"f": 1, "g": 2},
        comp={("f", "g"): "f"},
    )
    rep = nerve.check_category(c)
    assert not rep.ok
    assert any(kind == "endpoint" for kind, _ in rep.issues)


def non_associative_category():
    # composition on {e, s} over one object with comp(e, s) = e breaks
    # associativity at the triple (s, e, s)
    tables = {
        ("e", "e"): "e", ("e", "s"): "e", ("s", "e"): "s", ("s", "s"): "e",
    }
    return nerve.FiniteNonUnitalCategory(
        objects=(0,),
        morphisms=("e", "s"),
        src={"e": 0, "s": 0},
        tgt={"e": 0, "s": 0},
        comp=tables,
    )


def test_check_category_associativity_witness():
    rep = nerve.check_category(non_associative_category())
    assert not rep.ok
    kinds = {kind for kind, _ in rep.issues}
    assert "associativity" in kinds


@st.composite
def tabled_categories(draw):
    """1-3 objects, at most 5 morphisms and a table that may be total on
    the composable pairs or a truncation, whose composites may have the
    wrong endpoints, with stray composites on non-composable pairs."""
    objects = tuple(range(draw(st.integers(1, 3))))
    morphisms = tuple(f"m{n}" for n in range(draw(st.integers(0, 5))))
    src = {m: draw(st.sampled_from(objects)) for m in morphisms}
    tgt = {m: draw(st.sampled_from(objects)) for m in morphisms}
    total = draw(st.booleans())
    comp = {}
    for f, g in itertools.product(morphisms, repeat=2):
        if tgt[f] != src[g]:
            if draw(st.integers(0, 7)) == 0:
                comp[(f, g)] = draw(st.sampled_from(morphisms))
        elif total or draw(st.booleans()):
            fitting = [h for h in morphisms if src[h] == src[f] and tgt[h] == tgt[g]]
            comp[(f, g)] = draw(st.sampled_from(fitting if fitting and draw(st.booleans()) else morphisms))
    return nerve.FiniteNonUnitalCategory(objects, morphisms, src, tgt, comp)


@settings(max_examples=300, deadline=None)
@given(tabled_categories())
def test_check_category_matches_both_modes_of_the_oracle(c):
    rep = nerve.check_category(c)
    assert rep == two_mode_check_category(c, truncated=True)
    try:
        total = two_mode_check_category(c)
    except nerve.CategoryStructureError:
        return
    assert rep == total


def test_nerve_arrow():
    n = nerve.nerve(arrow_category(), max_degree=3)
    assert n.f_vector() == (2, 1)
    h = homology.homology_of_delta_set(n)
    assert h.betti_vector() == (1, 0)


def test_nerve_chain_contractible():
    n = nerve.nerve(chain_category(), max_degree=3)
    assert n.f_vector() == (3, 3, 1)
    assert delta.check_identities(n).ok
    h = homology.homology_of_delta_set(n)
    assert h.betti_vector() == (1, 0, 0)


def test_nerve_face_identity_failure_detected():
    with pytest.raises(nerve.CategoryStructureError) as exc:
        nerve.nerve(non_associative_category(), max_degree=3)
    assert "('s', 'e', 's')" in str(exc.value)


def test_demo_cobordism_category():
    c = nerve.demo_cobordism_category()
    assert len(c.objects) == 2
    assert len(c.morphisms) == 23
    assert nerve.check_category(c).ok
    cup = ("E", "P", frozenset({(("o", 0), ("o", 1))}), 0)
    cap = ("P", "E", frozenset({(("i", 0), ("i", 1))}), 0)
    assert c.comp[(cup, cap)] == ("E", "E", frozenset(), 1)


def test_bidelta_total_homology_matches_nerve():
    c = chain_category()
    sc = nerve.constant_simplicial_category(c)
    b = nerve.nerve_simplicial(sc, max_q=3)
    assert b.check()
    h = nerve.total_homology(b)
    hn = homology.homology_of_delta_set(nerve.nerve(c, max_degree=3))
    assert h == hn


def times_delta_set(c, y):
    """C × Y as a simplicial category: Ob(C) × Y_p and Mor(C) × Y_p in
    degree p, faces acting on the Y factor, composition within each y."""

    def levels(names):
        gens = {p: [(a, g) for a in names for g in y.gens(p)] for p in y.generators}
        faces = {
            (p, (a, g), i): (a, y.face(p, g, i))
            for p in gens if p for a, g in gens[p] for i in range(p + 1)
        }
        return delta.DeltaSet(gens, faces)

    obj, mor = levels(c.objects), levels(c.morphisms)
    keys = [(p, m, g) for p in y.generators for m in c.morphisms for g in y.gens(p)]
    src = delta.DeltaMorphism(mor, obj, {(p, (m, g)): (c.src[m], g) for p, m, g in keys})
    tgt = delta.DeltaMorphism(mor, obj, {(p, (m, g)): (c.tgt[m], g) for p, m, g in keys})
    comp = {
        (p, (f, g), (h, g)): (fh, g)
        for p in y.generators for g in y.gens(p) for (f, h), fh in c.comp.items()
    }
    return nerve.SimplicialCategory(obj, mor, src, tgt, comp, name=f"{c.name}x{y.name}")


def reference_total_boundary(b, n):
    """d_n of the total complex from its definition, on the generators of
    degrees n and n-1 listed in sorted (p, q) order."""

    def listed(m):
        return [(p, q, g) for p, q in sorted(b.generators) if p + q == m for g in b.gens(p, q)]

    rows, cols = listed(n - 1), listed(n)
    out = [[0] * len(cols) for _ in rows]
    for c, (p, q, g) in enumerate(cols):
        for i in range(p + 1 if p else 0):
            out[rows.index((p - 1, q, b.horizontal[p][i](q, g)))][c] += (-1) ** i
        for j in range(q + 1 if q else 0):
            out[rows.index((p, q - 1, b.rows[p].face(q, g, j)))][c] += (-1) ** (p + j)
    return out


def dense_boundary(cc, n):
    """d_n of cc as a dense matrix; a stored zero entry or empty column
    fails the test."""
    assert all(col and all(col.values()) for col in cc.boundaries[n].values())
    return homology._dense(cc.boundaries[n], cc.ranks[n - 1], cc.ranks[n])


def _circle_times(c):
    circle = complexes.delta_set_of(suite.circle_3())
    return nerve.nerve_simplicial(times_delta_set(c, circle), max_q=3)


def _sphere_times(c):
    sphere = complexes.delta_set_of(suite.boundary_tetrahedron())
    return nerve.nerve_simplicial(times_delta_set(c, sphere), max_q=3)


def assert_boundary_squares_to_zero(cc):
    for n in range(2, cc.top_degree + 1):
        dd = homology._mat_mul(dense_boundary(cc, n - 1), dense_boundary(cc, n))
        assert not any(map(any, dd)), n


def test_bidelta_total_homology_of_chain_times_circle():
    # B(C × S^1) = BC × S^1 with BC contractible.  Here p runs to 1, so the
    # horizontal faces and the (-1)^p twist of the vertical ones are read;
    # without the twist H is still H(S^1), but ∂∂ is not zero
    b = _circle_times(chain_category())
    assert b.check()
    assert_boundary_squares_to_zero(nerve.total_complex(b))
    assert nerve.total_homology(b) == homology.homology_of_complex(suite.circle_3())


def test_bidelta_total_homology_of_chain_times_sphere():
    # p runs to 2, so the horizontal identities d^h_i d^h_j = d^h_{j-1} d^h_i
    # are read on a passing input
    b = _sphere_times(chain_category())
    assert b.check()
    assert max(p for p, _ in b.generators) == 2
    assert_boundary_squares_to_zero(nerve.total_complex(b))
    assert nerve.total_homology(b) == homology.homology_of_complex(suite.boundary_tetrahedron())


def _with_morphism_faces(sc, edits):
    """sc with some faces of its morphism Δ-set replaced; src and tgt are
    left as they were."""
    m = sc.morphisms
    mor = delta.DeltaSet(m.generators, {**m.faces, **edits}, m.name)
    return nerve.SimplicialCategory(sc.objects, mor, sc.src, sc.tgt, sc.comp, sc.name)


def _chain_times_circle_edit(name):
    circle = complexes.delta_set_of(suite.circle_3())
    e = circle.gens(1)[0]
    d0, d1 = circle.face(1, e, 0), circle.face(1, e, 1)
    edits = {
        # d_0 (f, e) = (g, d_0 e): the face of the string (f, g) is (g, g)
        "f-to-g": {(1, ("f", e), 0): ("g", d0)},
        # d_0 (g, e) = (f, d_0 e): the face of the string (f, g) is (f, f)
        "g-to-f": {(1, ("g", e), 0): ("f", d0)},
        # d_0 (m, e) = (m, d_1 e) for every m: strings go to strings, but
        # d^h_0 no longer commutes with src and tgt
        "d0-to-d1": {(1, (m, e), 0): (m, d1) for m in chain_category().morphisms},
    }[name]
    return _with_morphism_faces(times_delta_set(chain_category(), circle), edits)


LEAVES_AT_FG = re.escape("horizontal face leaves the nerve at (1, 2, (('f', (0, 1)), ('g', (0, 1))), 0)")
# d^h_0 at p = 1 fails as a Δ-morphism on its first 1-generator
D0_NOT_A_MORPHISM = re.escape("bi-Δ-set identities fail: (1, (('f', (0, 1)),), 0, 'face')")


@pytest.mark.parametrize(
    "edit, message",
    [("f-to-g", LEAVES_AT_FG), ("g-to-f", LEAVES_AT_FG), ("d0-to-d1", D0_NOT_A_MORPHISM)],
    ids=["f-to-g", "g-to-f", "d0-to-d1"],
)
def test_nerve_simplicial_rejects_a_corrupted_category(edit, message):
    with pytest.raises(nerve.CategoryStructureError, match=message):
        nerve.nerve_simplicial(_chain_times_circle_edit(edit), max_q=3)


def test_bidelta_check_reads_the_row_identities():
    # one row, no horizontal faces: d_0 d_2 t = 1 but d_1 d_0 t = 0
    row = delta.DeltaSet(
        {0: (0, 1), 1: ("e",), 2: ("t",)},
        {(1, "e", 0): 1, (1, "e", 1): 0, **{(2, "t", i): "e" for i in range(3)}},
    )
    assert not delta.check_identities(row)
    assert nerve.BiDeltaSet((row,), ((),)).check() == delta.check_identities(row)


def test_bidelta_check_reads_the_horizontal_identities():
    b = _sphere_times(chain_category())
    d0, d1, d2 = b.horizontal[2]
    swapped = nerve.BiDeltaSet(b.rows, b.horizontal[:2] + ((d1, d0, d2),), b.name)
    # each swapped face is still a Δ-morphism, and every row still holds
    assert all(d.check() for d in swapped.horizontal[2])
    assert all(map(delta.check_identities, swapped.rows))
    # d^h_0 d^h_2 differs from d^h_1 d^h_0 on the first generator of row 2
    assert swapped.check() == delta.IdentityReport(False, (2, (0, (0, (0, 1, 2))), 0, 2))


def test_nerve_to_degree_zero():
    c = nerve.demo_cobordism_category()
    assert nerve.nerve(c, 0).f_vector() == (2,)
    with pytest.raises(ValueError, match="max_degree"):
        nerve.nerve(c, -1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: nerve.nerve_simplicial(nerve.constant_simplicial_category(chain_category()), 3),
        lambda: _circle_times(chain_category()),
        lambda: _circle_times(_cyclic(2)),
        lambda: _sphere_times(chain_category()),
    ],
    ids=["constant-chain", "chain-x-circle", "Z2-x-circle", "chain-x-sphere"],
)
def test_total_complex_matches_the_definition(build):
    b = build()
    cc = nerve.total_complex(b)
    top = max(p + q for p, q in b.generators)
    assert cc.ranks == {n: sum(len(b.gens(p, n - p)) for p in range(n + 1)) for n in range(top + 1)}
    assert set(cc.boundaries) == set(range(1, top + 1))
    for n in range(1, top + 1):
        assert dense_boundary(cc, n) == reference_total_boundary(b, n)


def test_category_file_roundtrip(tmp_path):
    c = chain_category()
    path = tmp_path / "c.cat"
    nerve.dump(c, path)
    back = nerve.load(path)
    assert nerve.check_category(back).ok
    assert nerve.dumps(back) == nerve.dumps(c)


@pytest.mark.parametrize("objects, morphisms, message", [
    (("A", "B", "A"), ("f",), "object 'A' repeats"),
    (("A", "B"), ("f", "f"), "morphism 'f' repeats"),
])
def test_repeated_object_or_morphism_raises(objects, morphisms, message):
    with pytest.raises(nerve.CategoryStructureError, match=f"^{message}$"):
        nerve.FiniteNonUnitalCategory(objects, morphisms, {"f": "A"}, {"f": "B"}, {})


@pytest.mark.parametrize("line, message", [
    ("obj A", "line 3: repeated object 'A'"),
    ("mor f A A", "line 4: repeated morphism 'f'"),
    ("cmp f f f", "line 5: repeated composite of 'f' and 'f'"),
])
def test_loads_rejects_repeated_records(line, message):
    text = "category C\nobj A\nmor f A A\ncmp f f f\n"
    lines = text.splitlines()
    lines.insert(lines.index(line) + 1, line)
    with pytest.raises(nerve.CategoryStructureError, match=f"^{message}$"):
        nerve.loads("\n".join(lines))


@pytest.mark.parametrize("text, message", [
    ("obj A\nmor f A A\n", "missing category header"),
    ("category C\nobj A\ncategory C\n", "line 3: repeated header"),
    ("category C\nobj A\nmor f A\n", "line 3: unexpected line 'mor f A'"),
])
def test_loads_requires_one_header(text, message):
    with pytest.raises(nerve.CategoryStructureError, match=f"^{re.escape(message)}$"):
        nerve.loads(text)


def test_demo_category_roundtrip(tmp_path):
    c = nerve.demo_cobordism_category()
    path = tmp_path / "cob.cat"
    nerve.dump(c, path)
    back = nerve.load(path)
    n1 = nerve.nerve(c, max_degree=2)
    n2 = nerve.nerve(back, max_degree=2)
    assert n1.f_vector() == n2.f_vector()


# ---------------------------------------------------------------------------
# differential test: the incremental nerve against a string-by-string closure
# ---------------------------------------------------------------------------


def _string_closed(c, t):
    """All composites of consecutive runs of the string are defined."""
    # composite[i][j] = product of t[i..j]; filled by increasing length
    n = len(t)
    comp = {(i, i): t[i] for i in range(n)}
    for length in range(2, n + 1):
        for i in range(0, n - length + 1):
            j = i + length - 1
            a = comp.get((i, j - 1))
            if a is None:
                return False
            prod = c.comp.get((a, t[j]))
            if prod is None:
                return False
            comp[(i, j)] = prod
    return True


def reference_nerve(c, max_degree):
    """The nerve by trying every morphism after every string and testing
    each candidate with _string_closed."""
    gens = {0: tuple(sorted(c.objects, key=delta.genkey))}
    faces = {}
    strings = {1: [(f,) for f in sorted(c.morphisms, key=delta.genkey)]}
    gens[1] = tuple(strings[1])
    for f in c.morphisms:
        faces[(1, (f,), 0)] = c.tgt[f]
        faces[(1, (f,), 1)] = c.src[f]
    for k in range(2, max_degree + 1):
        level = []
        for s in strings[k - 1]:
            for g in sorted(c.morphisms, key=delta.genkey):
                t = s + (g,)
                if c.tgt[s[-1]] == c.src[g] and _string_closed(c, t):
                    level.append(t)
        strings[k] = level
        gens[k] = tuple(level)
        for t in level:
            faces[(k, t, 0)] = t[1:]
            faces[(k, t, k)] = t[:-1]
            for i in range(1, k):
                faces[(k, t, i)] = t[: i - 1] + (c.comp[(t[i - 1], t[i])],) + t[i + 1 :]
    x = delta.DeltaSet({k: v for k, v in gens.items() if v}, faces, name=f"N({c.name})")
    rep = delta.check_identities(x)
    if not rep:
        raise nerve.CategoryStructureError(f"nerve face identities fail: {rep.witness}")
    return x


def _chain(n):
    mors = [(i, j) for i in range(n) for j in range(i + 1, n)]
    comp = {((i, j), (j, k)): (i, k) for (i, j) in mors for (jj, k) in mors if jj == j}
    return nerve.FiniteNonUnitalCategory(
        tuple(range(n)), tuple(mors), {m: m[0] for m in mors}, {m: m[1] for m in mors}, comp, f"chain{n}"
    )


def _cyclic(n):
    mors = tuple(f"z{a}" for a in range(n))
    comp = {(f"z{a}", f"z{b}"): f"z{(a + b) % n}" for a in range(n) for b in range(n)}
    return nerve.FiniteNonUnitalCategory(
        ("*",), mors, {m: "*" for m in mors}, {m: "*" for m in mors}, comp, f"Z{n}"
    )


@st.composite
def small_categories(draw):
    """Chains and cyclic groups, some with one product removed or replaced
    by another morphism with the same endpoints (which can break
    associativity)."""
    kind = draw(st.sampled_from(["chain", "cyclic"]))
    c = _chain(draw(st.integers(2, 5))) if kind == "chain" else _cyclic(draw(st.integers(1, 4)))
    edit = draw(st.sampled_from(["none", "remove", "replace"]))
    if edit == "none" or not c.comp:
        return c
    comp = dict(c.comp)
    key = draw(st.sampled_from(sorted(comp, key=repr)))
    if edit == "remove":
        del comp[key]
    else:
        h = comp[key]
        same = [m for m in c.morphisms if c.src[m] == c.src[h] and c.tgt[m] == c.tgt[h]]
        comp[key] = draw(st.sampled_from(sorted(same, key=repr)))
    return nerve.FiniteNonUnitalCategory(c.objects, c.morphisms, c.src, c.tgt, comp, c.name)


@settings(max_examples=100, deadline=None)
@given(small_categories())
def test_dumps_loads_roundtrip(c):
    # a file names each object and morphism by its token
    t = delta._token
    c = nerve.FiniteNonUnitalCategory(
        tuple(map(t, c.objects)), tuple(map(t, c.morphisms)),
        {t(m): t(x) for m, x in c.src.items()}, {t(m): t(x) for m, x in c.tgt.items()},
        {(t(f), t(g)): t(h) for (f, g), h in c.comp.items()}, c.name,
    )
    assert nerve.loads(nerve.dumps(c)) == c


def _outcome(build):
    try:
        x = build()
    except (nerve.CategoryStructureError, delta.DeltaStructureError) as exc:
        return type(exc), str(exc)
    return x.generators, dict(x.faces)


@settings(max_examples=150, deadline=None)
@given(small_categories())
def test_nerve_matches_string_closure(c):
    assert _outcome(lambda: nerve.nerve(c, max_degree=4)) == _outcome(lambda: reference_nerve(c, 4))


def test_nerve_matches_string_closure_on_demo():
    c = nerve.demo_cobordism_category()
    assert _outcome(lambda: nerve.nerve(c, max_degree=3)) == _outcome(lambda: reference_nerve(c, 3))
    assert _outcome(lambda: nerve.nerve(non_associative_category(), max_degree=4)) == _outcome(
        lambda: reference_nerve(non_associative_category(), 4)
    )


# Z/2 with z0 * z0 left out: d_2 of (z0, z1, z1) is (z0, z0), which is not
# a string of the nerve
Z2_WITHOUT_SQUARE = nerve.FiniteNonUnitalCategory(
    ("*",), ("z0", "z1"), {"z0": "*", "z1": "*"}, {"z0": "*", "z1": "*"},
    {("z0", "z1"): "z1", ("z1", "z0"): "z1", ("z1", "z1"): "z0"}, "Z2",
)


def _built(build):
    try:
        x = build()
    except (nerve.CategoryStructureError, delta.DeltaStructureError) as exc:
        return type(exc), str(exc)
    assert "faces" not in x.__dict__
    return x


@settings(max_examples=150, deadline=None)
@given(small_categories())
@example(Z2_WITHOUT_SQUARE)
@example(non_associative_category())
def test_nerve_matches_the_dict_writer(c):
    # equal Δ-sets have equal generators, face tables and names
    assert _built(lambda: nerve.nerve(c, max_degree=4)) == _built(lambda: dict_nerve(c, 4))


def test_nerve_reports_a_face_that_is_not_a_string():
    with pytest.raises(delta.DeltaStructureError, match=r"face d_2 of \('z0', 'z1', 'z1'\) is not a generator of degree 2"):
        nerve.nerve(Z2_WITHOUT_SQUARE, max_degree=4)
    c = nerve.demo_cobordism_category()
    assert _built(lambda: nerve.nerve(c, 4)) == _built(lambda: dict_nerve(c, 4))
