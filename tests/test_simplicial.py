import pytest

from plkernel import delta, homology, simplicial


def test_word_insert_normal_form():
    # s_j s_i = s_{i+1} s_j for j <= i, kept sorted decreasing
    w = ()
    w = simplicial.word_insert(w, 0)
    w = simplicial.word_insert(w, 0)
    assert w == (1, 0)


def test_standard_simplicial_identities():
    x = simplicial.standard_simplicial(2)
    assert simplicial.check_simplicial_identities(x).ok
    assert tuple(len(x.gens(k)) for k in range(3)) == (3, 3, 1)


def test_simplicial_of_complex():
    tri = {(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)}
    x = simplicial.simplicial_of_complex(tri)
    assert simplicial.check_simplicial_identities(x).ok


def test_weak_chain_normal_form():
    assert simplicial.weak_chain_normal_form((0, 0, 1, 1, 2)) != (0, 0, 1, 1, 2)
    word, chain = simplicial.weak_chain_normal_form((0, 0, 1))
    assert chain == (0, 1)


def test_product_interval_interval():
    i = simplicial.standard_simplicial(1, tag="a")
    j = simplicial.standard_simplicial(1, tag="b")
    p = simplicial.product(i, j)
    assert simplicial.check_simplicial_identities(p).ok
    # square: 4 vertices, 5 edges, 2 triangles (nondegenerate)
    assert tuple(len(p.gens(k)) for k in range(3)) == (4, 5, 2)


def test_forget_degree_cap():
    x = simplicial.standard_simplicial(1)
    d = simplicial.forget(x, cap=3)
    assert d.dimension == 3
    assert delta.check_identities(d).ok


def test_nondegenerate_delta_set():
    i = simplicial.standard_simplicial(1, tag="a")
    j = simplicial.standard_simplicial(1, tag="b")
    p = simplicial.product(i, j)
    d = simplicial.nondegenerate_delta_set(p)
    assert d is not None
    assert d.f_vector() == (4, 5, 2)


def test_nerve_of_monoid_z2():
    mult = lambda a, b: (a + b) % 2
    n = simplicial.nerve_of_monoid([0, 1], mult, 0, cap=4)
    assert simplicial.check_simplicial_identities(n).ok
    # classifying-space homology of the order-2 group, odd degrees have Z/2
    # (asserted below the truncation degree only)
    h = homology.homology_of_simplicial(n)
    assert h.betti(0) == 1
    assert (h.betti(1), h.torsion(1)) == (0, (2,))
    assert (h.betti(2), h.torsion(2)) == (0, ())
    assert (h.betti(3), h.torsion(3)) == (0, (2,))


def test_kan_fill_simplicial_degenerate_filler():
    x = simplicial.standard_simplicial(0)
    # both horn faces are the degenerate edge on the unique vertex
    e = ((0,), (0,))
    filler = simplicial.kan_fill_simplicial(x, 2, 1, {0: e, 2: e})
    assert filler is not None


def test_kan_fill_simplicial_rejects_a_bad_horn():
    x = simplicial.nerve_of_monoid(range(2), lambda a, b: (a + b) % 2, 0, cap=4)
    s = ((), ("n", 1, 1, 1))
    horn = {i: x.face(i, s) for i in (0, 2, 3)}
    assert simplicial.kan_fill_simplicial(x, 3, 1, horn) == s
    with pytest.raises(delta.IncompatibleHornError, match="cover all i != 1"):
        simplicial.kan_fill_simplicial(x, 3, 1, {0: horn[0], 2: horn[2]})
    # x_2 = (1, 1) in place of its degenerate d_2 s: d_0 x_2 = (1), while
    # d_1 x_0 = (0) is the degenerate edge s_0 of the vertex
    horn[2] = ((), ("n", 1, 1))
    with pytest.raises(delta.IncompatibleHornError) as exc:
        simplicial.kan_fill_simplicial(x, 3, 1, horn)
    assert exc.value.args == ((0, 2, ((), ("n", 1)), ((0,), ("n",))),)
