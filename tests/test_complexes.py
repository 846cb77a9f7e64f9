import inspect
import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import facet_closure, facet_pass, on_fractions, raw_intersect_simplices
from plkernel import complexes, delta, families, linalg, polytope, prism, suite

F = Fraction


def unit_triangle():
    return complexes.EuclideanComplex.build(
        [(0, 1, 2)], {0: (F(0), F(0)), 1: (F(1), F(0)), 2: (F(0), F(1))}
    )


def glued_triangles():
    return complexes.EuclideanComplex.build(
        [(0, 1, 2), (1, 2, 3)],
        {0: (F(0), F(0)), 1: (F(2), F(0)), 2: (F(1), F(2)), 3: (F(3), F(2))},
    )


def test_face_closure():
    k = unit_triangle()
    assert k.f_vector() == (3, 3, 1)
    assert k.euler_characteristic() == 1
    assert k.maximal_simplices() == [(0, 1, 2)]


def test_maximal_simplices_returns_a_fresh_list():
    k = glued_triangles()
    tops = k.maximal_simplices()
    assert tops == [(0, 1, 2), (1, 2, 3)]
    tops.pop()
    tops.append((0, 1))
    assert k.maximal_simplices() == [(0, 1, 2), (1, 2, 3)]
    assert k.base.maximal_simplices() is not k.base.maximal_simplices()


@st.composite
def generator_lists(draw):
    """Vertex collections for `from_maximal` on vertices 0..7: mixed
    lengths, unsorted, some repeated in another order and some a face of
    another, in any order; possibly none."""
    tops = draw(st.lists(st.lists(st.integers(0, 7), min_size=1, max_size=5, unique=True), max_size=6))
    extra = []
    for s in tops:
        kind = draw(st.sampled_from(("none", "repeat", "face")))
        if kind == "repeat":
            extra.append(draw(st.permutations(s)))
        elif kind == "face":
            extra.append(draw(st.lists(st.sampled_from(s), min_size=1, max_size=len(s), unique=True)))
    return [tuple(g) for g in draw(st.permutations(tops + extra))]


@settings(max_examples=300, deadline=None)
@given(generator_lists())
@example([])
@example([(3,), (2, 0, 1), (1, 0), (0, 1, 2), (5, 4)])
def test_closure_matches_the_facet_oracle(generators):
    closure, maximal = complexes._closure(generators)
    assert closure == facet_closure(generators)
    assert facet_pass(closure) == (True, maximal)
    k = complexes.OrderedComplex.from_maximal(generators)
    assert k.simplices == closure
    assert k.maximal_simplices() == list(maximal)
    assert k.vertices == tuple(sorted(s[0] for s in closure if len(s) == 1))


def test_from_maximal_is_the_one_constructor():
    with pytest.raises(TypeError):
        complexes.OrderedComplex((0,), frozenset({(0,)}))


def _corpus_vertices():
    """(complex, vertex) for every vertex of every suite corpus complex."""
    return [(ec, v) for ec in suite.corpus() for v in ec.base.vertices]


_UNSORTED = "complex K ambient=1\nv 0 0\nv 1 1\nv 2 2\ns 1 0\ns 0\ns 2 1\ns 0 1\n"
_INTERVAL = families.standard_simplex_complex(1)

# production builder -> the complexes it returns
_BUILDERS = {
    "build_R": lambda: [prism.build_R(p).complex for p in range(5)],
    "build_K": lambda: [prism.build_K(p).complex for p in range(5)],
    "sd": lambda: [complexes.barycentric_subdivide(k) for ec in suite.corpus() for k in (ec, ec.base)],
    "star": lambda: [complexes.star(v, k) for ec, v in _corpus_vertices() for k in (ec, ec.base)],
    "link": lambda: [complexes.link(v, k) for ec, v in _corpus_vertices() for k in (ec, ec.base)],
    "join": lambda: [
        complexes.join(ec.coords[v], complexes.link(v, ec), vertex_id=v) for ec, v in _corpus_vertices()
    ],
    "read": lambda: [complexes.loads(complexes.dumps(ec)) for ec in suite.corpus()]
    + [complexes.loads(_UNSORTED)],
    "product_complex": lambda: [
        families.product_complex(a, b)[0]
        for a, b in [(_INTERVAL, families.standard_simplex_complex(2)), (suite.circle_4(), _INTERVAL)]
    ],
    "empty_family": lambda: [families.empty_family(_INTERVAL, 1).total],
    "pullback": lambda: [
        families.pullback(families.identity_map(w.base), w).total for w in suite.lift_fixtures()[3:5]
    ],
}


@pytest.mark.parametrize("builder", list(_BUILDERS))
def test_every_builder_returns_its_from_maximal_complex(builder):
    for k in _BUILDERS[builder]():
        base = k.base if isinstance(k, complexes.EuclideanComplex) else k
        tops = base.maximal_simplices()
        again = complexes.OrderedComplex.from_maximal(tops)
        assert (base.simplices, base.vertices, tops) == (
            again.simplices, again.vertices, again.maximal_simplices()
        )
        # sorted and closed, by the facet oracle
        assert all(list(s) == sorted(s) for s in base.simplices)
        assert facet_pass(base.simplices) == (True, tuple(tops))
        assert base.vertices == tuple(sorted(s[0] for s in base.simplices if len(s) == 1))


def test_loaded_complex_closes_once():
    # from_maximal hands its closure pass to the complex, so validate and
    # dumps find the maximal simplices without another one
    text = complexes.dumps(prism.build_R(3).complex)
    with mock.patch.object(complexes, "_closure", wraps=complexes._closure) as spy:
        k = complexes.loads(text)
        assert spy.call_count == 1
        assert complexes.validate(k).ok
        assert complexes.dumps(k) == text
        assert spy.call_count == 1


def test_validate_good():
    assert complexes.validate(glued_triangles()).ok


def test_validate_overlap_witness():
    bad = complexes.EuclideanComplex.build(
        [(0, 1, 2), (1, 2, 3)],
        {0: (F(0), F(0)), 1: (F(2), F(0)), 2: (F(1), F(2)), 3: (F(1), F(-2))},
    )
    rep = complexes.validate(bad)
    assert not rep.ok
    assert any("intersection not a common face" in w for w in rep.issues)


def test_validate_degenerate_simplex():
    bad = complexes.EuclideanComplex.build(
        [(0, 1, 2)], {0: (F(0), F(0)), 1: (F(1), F(1)), 2: (F(2), F(2))}
    )
    rep = complexes.validate(bad)
    assert not rep.ok
    assert any("affinely independent" in w for w in rep.issues)


def test_validate_shared_edge_pair():
    k = complexes.EuclideanComplex.build(
        [(0, 1, 2), (1, 2, 3)],
        {0: (F(0), F(0)), 1: (F(1), F(0)), 2: (F(0), F(1)), 3: (F(1), F(1))},
    )
    assert complexes.validate(k).ok


def test_validate_overlapping_pair_witness():
    # two triangles without a shared vertex whose interiors overlap
    k = complexes.EuclideanComplex.build(
        [(0, 1, 2), (3, 4, 5)],
        {
            0: (F(0), F(0)), 1: (F(2), F(0)), 2: (F(1), F(2)),
            3: (F(1), F(0)), 4: (F(3), F(0)), 5: (F(2), F(2)),
        },
    )
    rep = complexes.validate(k)
    assert not rep.ok
    assert rep.issues == (
        "intersection not a common face: simplices (0, 1, 2) and (3, 4, 5)",
    )


def test_barycentric_subdivision_counts():
    sd = complexes.barycentric_subdivide(unit_triangle())
    assert sd.f_vector() == (7, 12, 6)
    assert complexes.validate(sd).ok
    assert sd.total_volume() == unit_triangle().total_volume()


def all_flags_subdivision(k):
    """sd K from the definition: a vertex per simplex of K, numbered by
    (dimension, vertex tuple) and placed at its barycenter, and a simplex
    per flag (chain of simplices strictly increasing under inclusion)."""
    order = sorted(k.simplices, key=lambda s: (len(s), s))
    vid = {s: i for i, s in enumerate(order)}
    above = {s: [t for t in order if set(s) < set(t)] for s in order}
    flags = [(s,) for s in order]
    chains = list(flags)
    while chains:
        chains = [c + (t,) for c in chains for t in above[c[-1]]]
        flags += chains
    simplices = frozenset(tuple(sorted(vid[s] for s in flag)) for flag in flags)
    coords = {
        vid[s]: tuple(sum(k.coords[v][j] for v in s) / len(s) for j in range(k.ambient_dim))
        for s in order
    }
    labels = {vid[s]: ("b", s) for s in order}
    return simplices, coords, labels


@pytest.mark.parametrize("name", ["R0", "R1", "R2", "R3", "non-pure", "isolated vertex"])
def test_barycentric_subdivide_matches_all_flags(name):
    if name.startswith("R"):
        k = prism.build_R(int(name[1])).complex
    elif name == "non-pure":
        # a triangle with a dangling edge and an isolated vertex
        k = complexes.EuclideanComplex.build(
            [(0, 1, 2), (2, 3), (4,)],
            {0: (F(0), F(0)), 1: (F(1), F(0)), 2: (F(0), F(1)), 3: (F(0), F(2)), 4: (F(3), F(3))},
        )
    else:
        k = complexes.EuclideanComplex.build([(0,)], {0: (F(1), F(2))})
    sd = complexes.barycentric_subdivide(k)
    simplices, coords, labels = all_flags_subdivision(k)
    assert sd.simplices == simplices
    assert sd.base.vertices == tuple(range(len(k.simplices)))
    assert sd.coords == coords
    assert sd.base.labels == labels
    assert complexes.barycentric_subdivide(k.base) == sd.base


def test_subdivision_iterated_euler():
    k = glued_triangles()
    for _ in range(2):
        k = complexes.barycentric_subdivide(k)
        assert k.euler_characteristic() == glued_triangles().euler_characteristic()


def test_star_link():
    k = glued_triangles()
    st = complexes.star(1, k)
    assert set(st.maximal_simplices()) == {(0, 1, 2), (1, 2, 3)}
    lk = complexes.link(1, k)
    # link of an edge-interior vertex of two glued triangles: a path
    assert lk.euler_characteristic() == 1


def test_join_cone():
    seg = complexes.EuclideanComplex.build(
        [(0, 1)], {0: (F(0), F(0)), 1: (F(1), F(0))}
    )
    cone = complexes.join((F(0), F(1)), seg)
    assert cone.f_vector() == (3, 3, 1)
    assert complexes.validate(cone).ok


def test_join_general_position_error():
    seg = complexes.EuclideanComplex.build(
        [(0, 1)], {0: (F(0), F(0)), 1: (F(1), F(0))}
    )
    with pytest.raises(complexes.GeneralPositionError):
        complexes.join((F(2), F(0)), seg)


def test_delta_set_of():
    x = complexes.delta_set_of(glued_triangles())
    assert x.f_vector() == (4, 5, 2)
    assert delta.check_identities(x).ok


def test_rational_io():
    assert complexes.parse_rational("3/4") == F(3, 4)
    assert complexes.parse_rational("-2") == -2
    with pytest.raises(ValueError):
        complexes.parse_rational("0.5")
    assert complexes.format_rational(F(3, 4)) == "3/4"
    assert complexes.format_rational(F(5)) == "5"


def test_file_roundtrip(tmp_path):
    k = glued_triangles()
    path = tmp_path / "k.cplx"
    complexes.dump(k, path)
    back = complexes.load(path)
    assert back.simplices == k.simplices
    assert back.coords == k.coords
    assert complexes.dumps(back) == complexes.dumps(k)


def test_loads_rejects_repeated_vertex_id():
    # the second line used to overwrite the first without a word
    with pytest.raises(complexes.ComplexStructureError, match="line 3: repeated vertex id 1"):
        complexes.loads("complex K ambient=1\nv 1 1\nv 1 5\ns 1\n")


def test_loads_rejects_vertex_in_no_simplex():
    # dumps writes only the vertices of simplices, so the stray vertex 1
    # used to be lost on the way back
    with pytest.raises(complexes.ComplexStructureError, match="line 3: vertex 1 is in no simplex"):
        complexes.loads("complex K ambient=1\nv 0 0\nv 1 1\ns 0\n")
    with pytest.raises(complexes.ComplexStructureError, match="line 2: vertex 0 is in no simplex"):
        complexes.loads("complex K ambient=2\nv 0 0 0\n")


@st.composite
def euclidean_complexes(draw):
    """Complexes with any simplices on seeded rational points, not
    necessarily valid ones, in ℝ⁰ to ℝ³; possibly empty."""
    ambient = draw(st.integers(0, 3))
    ids = draw(st.lists(st.integers(-3, 30), unique=True, max_size=8))
    rational = st.builds(F, st.integers(-9, 9), st.integers(1, 4))
    tops = draw(st.lists(st.sets(st.sampled_from(ids), min_size=1, max_size=4), max_size=6)) if ids else []
    coords = {
        v: tuple(draw(st.lists(rational, min_size=ambient, max_size=ambient)))
        for v in sorted({v for s in tops for v in s})
    }
    name = draw(st.text("abcXYZ019_", min_size=1, max_size=6))
    return complexes.EuclideanComplex(complexes.OrderedComplex.from_maximal(tops, name=name), ambient, coords)


@settings(max_examples=100, deadline=None)
@given(euclidean_complexes())
def test_dumps_loads_roundtrip(k):
    assert complexes.loads(complexes.dumps(k)) == k


def test_empty_complex_roundtrip():
    # the header alone carries the ambient dimension of the empty complex
    e = complexes.EuclideanComplex(complexes.OrderedComplex.from_maximal([], name="E"), 2, {})
    text = complexes.dumps(e)
    assert text == "complex E ambient=2\n"
    back = complexes.loads(text)
    assert back == e and back.ambient_dim == 2
    assert complexes.dumps(back) == text
    assert complexes.validate(back).ok
    assert families.same_point_set(back, e)


@pytest.mark.parametrize("ambient", ["-1", "x", ""])
def test_loads_rejects_bad_ambient(ambient):
    with pytest.raises(complexes.ComplexStructureError, match="line 1: bad header"):
        complexes.loads(f"complex K ambient={ambient}\nv 0 0\ns 0\n")


# -- the local certificate against the pair path -----------------------------


def unimodular_image(ec, seed, extra_dims=0):
    """ec under a seeded vertex relabelling and x -> M x + t with M an
    integer matrix of determinant ±1, after appending extra_dims zero
    coordinates (a lower-dimensional copy when extra_dims > 0)."""
    rng = random.Random(seed)
    n = ec.ambient_dim + extra_dims
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(n + 1 if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        m[i] = [a + rng.choice((1, -1)) * b for a, b in zip(m[i], m[j])]
    rng.shuffle(m)
    shift = [rng.randint(-3, 3) for _ in range(n)]
    ids = list(range(len(ec.base.vertices)))
    rng.shuffle(ids)
    relabel = dict(zip(sorted(ec.base.vertices), ids))
    coords = {}
    for v, x in ec.coords.items():
        x = tuple(x) + (F(0),) * extra_dims
        coords[relabel[v]] = tuple(
            sum(a * b for a, b in zip(row, x)) + t for row, t in zip(m, shift)
        )
    tops = [tuple(sorted(relabel[v] for v in s)) for s in ec.maximal_simplices()]
    return complexes.EuclideanComplex.build(tops, coords, name=ec.name)


def with_tops(ec, tops, coords=None):
    coords = dict(ec.coords) if coords is None else coords
    return complexes.EuclideanComplex.build(
        tops, {v: coords[v] for s in tops for v in s}, name=ec.name
    )


def overlapping(ec, seed):
    """ec plus one more top-dimensional simplex on its vertices: ec already
    covers the hull of its vertices in their affine span, so it overlaps."""
    rng = random.Random(seed)
    tops = ec.maximal_simplices()
    while True:
        extra = tuple(sorted(rng.sample(sorted(ec.base.vertices), ec.dimension + 1)))
        if extra not in tops and linalg.affinely_independent(ec.points(extra)):
            return with_tops(ec, tops + [extra]), extra


def doubled(ec):
    """ec and a copy of it on new vertex ids with the same coordinates."""
    shift = 1 + max(ec.base.vertices)
    coords = dict(ec.coords)
    coords.update({v + shift: x for v, x in ec.coords.items()})
    tops = ec.maximal_simplices()
    return with_tops(ec, tops + [tuple(v + shift for v in s) for s in tops], coords)


def certificate_reports(k):
    """validate(k) with the local certificate on, validate(k) with it
    declining, the certificate's verdicts on the whole complex, and its
    retries: (removed simplex, verdict on the rest) for each simplex tried
    after a failure."""
    verdicts, retries = [], []
    certify, tops = complexes._certificate_failure, k.maximal_simplices()

    def spy(maximal, *args):
        failure = certify(maximal, *args)
        if maximal == tops:
            verdicts.append(failure is None)
        else:
            (removed,) = set(tops) - set(maximal)
            retries.append((removed, failure is None))
        return failure

    with mock.patch.object(complexes, "_certificate_failure", spy):
        with_cert = complexes.validate(k)
    with mock.patch.object(complexes, "_certificate_failure", lambda *args: ()):
        pair_path = complexes.validate(k)
    assert with_cert == pair_path
    assert verdicts in ([], [False]) or pair_path.ok
    return pair_path, verdicts, retries


KINDS = ("valid", "overlap", "doubled", "bottom-removed", "lower-dim", "lower-dim-overlap")


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(KINDS), st.integers(1, 4), st.integers(0, 2**32))
@example("valid", 4, 0)
@example("overlap", 4, 0)
@example("doubled", 1, 0)
@example("bottom-removed", 3, 0)
@example("lower-dim", 2, 0)
def test_local_certificate_matches_pair_path(kind, p, seed):
    if kind in ("doubled", "lower-dim-overlap"):
        p = min(p, 3)  # 2x the simplices or 1 more dimension: keep it quick
    r = prism.build_R(p).complex
    if kind == "bottom-removed":
        # without the top simplex on the base Δ^p × 0 the support is not convex
        r = with_tops(r, [s for s in r.maximal_simplices() if s[p] != p])
    ec = unimodular_image(r, seed, extra_dims=1 if kind.startswith("lower-dim") else 0)
    if kind == "valid":
        report, verdicts, _ = certificate_reports(ec)
        assert report.ok and verdicts == [True]
    elif kind in ("overlap", "lower-dim-overlap"):
        bad, extra = overlapping(ec, seed)
        report, verdicts, retries = certificate_reports(bad)
        assert not report.ok and str(extra) in report.issues[0]
        assert verdicts == [False]
        if kind == "overlap":
            # the failure names the extra simplex, and the rest is certified
            assert retries[-1] == (extra, True)
    elif kind == "doubled":
        # every ridge is matched or on the hull: only the covered point fails
        report, verdicts, _ = certificate_reports(doubled(ec))
        assert not report.ok and verdicts == [False]
    else:
        report, verdicts, _ = certificate_reports(ec)
        assert report.ok and verdicts == [False]


def test_local_certificate_small_cases():
    empty = complexes.EuclideanComplex(complexes.OrderedComplex.from_maximal(()), 2, {})
    assert certificate_reports(empty) == (complexes.ValidityReport(True), [], [])
    point = complexes.EuclideanComplex.build([(0,)], {0: (F(1), F(2))})
    assert certificate_reports(point) == (complexes.ValidityReport(True), [False], [])
    point0 = complexes.EuclideanComplex.build([(0,)], {0: ()})
    assert certificate_reports(point0) == (complexes.ValidityReport(True), [True], [])
    twice = doubled(unit_triangle())
    report, verdicts, _ = certificate_reports(twice)
    assert not report.ok and verdicts == [False]
    # a T-junction: the convex support is covered once, but the edge
    # (0, 1) lies in one triangle and is not on the hull
    tee = complexes.EuclideanComplex.build(
        [(0, 1, 2), (0, 3, 4), (1, 3, 4)],
        {0: (F(0), F(0)), 1: (F(2), F(0)), 2: (F(1), F(2)), 3: (F(1), F(0)), 4: (F(1), F(-2))},
    )
    report, verdicts, _ = certificate_reports(tee)
    assert not report.ok and verdicts == [False]
    # on the line: [0,1] and [1,5] cover the hull once, while two paths
    # from 2 to 4 meet at both ends from the same side; [0,1] is still
    # covered once, so only the opposite-side condition fails
    x = {0: 0, 1: 1, 2: 5, 3: 2, 4: 3, 5: F(7, 2), 6: 4}
    folded = complexes.EuclideanComplex.build(
        [(0, 1), (1, 2), (3, 4), (4, 6), (3, 5), (5, 6)], {v: (F(c),) for v, c in x.items()}
    )
    report, verdicts, _ = certificate_reports(folded)
    assert not report.ok and verdicts == [False]


# -- the streamed pair scan against the exact all-pairs path -----------------


def all_pairs(maximal, *rest):
    yield from itertools.combinations(maximal, 2)


def scan_report(k, walls, certificate=False):
    """validate(k) with the box-and-wall scan on every pair (local
    certificate declined), with the scan after the certificate and its
    retries (certificate=True), or with every pair left to the exact test;
    the pairs the scan would yield in full; the pairs tested; the scan's
    generator, as validate left it; and the scan's arguments."""
    tested, scans = [], []
    scan, test = complexes._uncertified_pairs if walls else all_pairs, complexes._common_face
    certify = complexes._certificate_failure if certificate else lambda *args: ()

    def scan_spy(*args):
        scans.append((args, scan(*args)))
        return scans[-1][1]

    def test_spy(a, b, *rest):
        tested.append((a, b, test(a, b, *rest)))
        return tested[-1][2]

    with mock.patch.object(complexes, "_certificate_failure", certify), \
            mock.patch.object(complexes, "_uncertified_pairs", scan_spy), \
            mock.patch.object(complexes, "_common_face", test_spy):
        report = complexes.validate(k)
        (args, generator), = scans
        pairs = list(scan(*args))
    return report, pairs, tested, generator, args


def with_edge(ec, seed, overlap):
    """ec, a triangulation of a convex region, plus one edge, so that its
    top simplices have mixed dimensions.  The edge joins two vertices that
    no simplex of ec holds, so that it overlaps ec; or it leaves the vertex
    of largest coordinates along the first axis, so that it meets ec there
    alone."""
    vs = sorted(ec.base.vertices)
    tops = ec.maximal_simplices()
    if overlap:
        edge = random.Random(seed).choice(
            [e for e in itertools.combinations(vs, 2) if e not in ec.simplices]
        )
        return with_tops(ec, tops + [edge])
    far = max(vs, key=lambda v: ec.coords[v])
    coords = dict(ec.coords)
    coords[vs[-1] + 1] = (coords[far][0] + 1,) + coords[far][1:]
    return with_tops(ec, tops + [(far, vs[-1] + 1)], coords)


def moment_surface(surface, seed, rounds):
    """sd^rounds of the 2-complex `surface` after a seeded relabelling that
    puts its vertices on distinct points of the moment curve in ℝ⁵."""
    rng = random.Random(seed)
    vs = sorted(surface.base.vertices)
    ids = list(range(len(vs)))
    rng.shuffle(ids)
    relabel = dict(zip(vs, ids))
    params = rng.sample(range(-7, 8), len(vs))
    coords = {relabel[v]: tuple(F(t) ** e for e in range(1, 6)) for v, t in zip(vs, params)}
    tops = [tuple(sorted(relabel[v] for v in s)) for s in surface.maximal_simplices()]
    k = complexes.EuclideanComplex.build(tops, coords, name=surface.name)
    for _ in range(rounds):
        k = complexes.barycentric_subdivide(k)
    return k


def with_copy(ec, seed):
    """ec plus a copy of one of its top simplices on new vertex ids."""
    top = random.Random(seed).choice(ec.maximal_simplices())
    shift = 1 + max(ec.base.vertices)
    coords = dict(ec.coords)
    coords.update({v + shift: ec.coords[v] for v in top})
    return with_tops(ec, ec.maximal_simplices() + [tuple(v + shift for v in top)], coords)


SCAN_KINDS = (
    "valid", "overlap", "doubled", "lower-dim", "lower-dim-overlap", "mixed", "mixed-overlap",
    "surface-overlap",
)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(SCAN_KINDS), st.integers(2, 4), st.integers(0, 2**32))
@example("overlap", 4, 0)
@example("doubled", 4, 0)
@example("valid", 3, 0)
@example("lower-dim-overlap", 3, 0)
@example("mixed", 3, 0)
@example("mixed-overlap", 3, 0)
@example("surface-overlap", 2, 0)
def test_streamed_scan_stops_at_witness(kind, p, seed):
    if kind.startswith("lower-dim"):
        p = min(p, 3)  # 1 more dimension: keep it quick
    if kind.startswith("mixed"):
        p = 3  # R(3) and one edge: 42 top simplices, 861 pairs
    ec = unimodular_image(
        prism.build_R(p).complex, seed, extra_dims=1 if kind.startswith("lower-dim") else 0
    )
    extra = None
    if kind in ("overlap", "lower-dim-overlap"):
        ec, extra = overlapping(ec, seed)
    elif kind == "doubled":
        ec = doubled(unimodular_image(prism.build_R(min(p, 3)).complex, seed))
    elif kind.startswith("mixed"):
        ec = with_edge(ec, seed, overlap=kind == "mixed-overlap")
    elif kind == "surface-overlap":
        # sd¹ torus in ℝ⁵, 84 triangles, and a copy of one of them
        ec = with_copy(moment_surface(suite.torus_7(), seed, 1), seed)
    fast = scan_report(ec, walls=True)
    exact = scan_report(ec, walls=False)
    suspect = scan_report(ec, walls=True, certificate=True)
    assert fast[0] == exact[0] == suspect[0]
    assert (kind in ("valid", "lower-dim", "mixed")) == fast[0].ok
    assert exact[1] == list(itertools.combinations(ec.maximal_simplices(), 2))
    if kind == "overlap":
        # the rest is certified without the extra simplex: only its pairs
        # are scanned
        assert suspect[1] and all(extra in pair for pair in suspect[1])
    for walls, (report, pairs, tested, generator, _) in (
        (False, exact), (True, fast), (True, suspect)
    ):
        assert [(a, b) for a, b, _ in tested] == pairs[: len(tested)]
        if report.ok:
            assert len(tested) == len(pairs) and all(ok for *_, ok in tested)
            assert inspect.getgeneratorstate(generator) == inspect.GEN_CLOSED
        else:
            a, b, ok = tested[-1]
            assert not ok and all(ok for *_, ok in tested[:-1])
            assert len(tested) == pairs.index((a, b)) + 1
            assert report.issues == (f"intersection not a common face: simplices {a} and {b}",)
            # the scan is left suspended at the witness, its later pairs
            # unscanned
            assert inspect.getgeneratorstate(generator) == inspect.GEN_SUSPENDED
            if walls:
                frame = generator.gi_frame.f_locals
                assert (frame["p"], frame["q"]) == (a, b)
    maximal, icoords, functionals, _ = fast[4]
    if kind == "surface-overlap":
        # the box filter leaves pairs out before the witness, such as pairs
        # whose intervals on the first axis are disjoint
        first = {s: [icoords[v][0] for v in s] for s in maximal}
        a, b, _ = fast[2][-1]
        before = itertools.takewhile(
            lambda pair: pair != (a, b), itertools.combinations(maximal, 2)
        )
        assert any(max(first[s]) < min(first[t]) or max(first[t]) < min(first[s])
                   for s, t in before)
    # both skips are sound: disjoint boxes hold disjoint simplices, and a
    # wall holds only pairs that meet in their common face
    boxes = {s: polytope.bounding_box([icoords[v][:-1] for v in s]) for s in maximal}
    for a, b in itertools.combinations(maximal, 2):
        if not polytope.boxes_meet(boxes[a], boxes[b]):
            assert polytope.intersect_simplices(ec.integer_simplex(a), ec.integer_simplex(b)) == []
        if complexes._walled(a, b, icoords, functionals[a]) or complexes._walled(
            b, a, icoords, functionals[b]
        ):
            assert complexes._common_face(a, b, icoords, functionals[b])


# -- the swept scan against an all-pairs reference ---------------------------


def scan_args(k):
    """The arguments validate(k) passes to the pair scan."""
    seen = []
    with mock.patch.object(complexes, "_uncertified_pairs", lambda *args: seen.append(args) or ()):
        complexes.validate(k)
    (args,) = seen
    return args


def walled_reference(p, q, icoords, p_functionals):
    """The wall test of complexes._walled, with one polytope._value per row
    and vertex and no early exit."""
    outside = [icoords[v] for v in q if v not in p]
    return any(
        (off < 0 or p[off] not in q) and all(polytope._value(row, x) < 0 for x in outside)
        for row, off in zip(*p_functionals)
    )


def reference_scan(maximal, icoords, functionals, ridges):
    """Every pair in combinations order, kept when its boxes meet and no
    wall of either simplex separates it; the ridge table is not read."""
    boxes = {s: polytope.bounding_box([icoords[v][:-1] for v in s]) for s in maximal}
    return [
        (p, q)
        for p, q in itertools.combinations(maximal, 2)
        if polytope.boxes_meet(boxes[p], boxes[q])
        and not (
            walled_reference(p, q, icoords, functionals[p])
            or walled_reference(q, p, icoords, functionals[q])
        )
    ]


def swept_scan(args):
    with mock.patch.object(complexes, "_certificate_failure", lambda *args: ()):
        return list(complexes._uncertified_pairs(*args))


def grid_complex(n, seed):
    """Affinely independent simplices on points of {0, 1, 2}^n with distinct
    vertex ids and often equal coordinates, so that intervals on the first
    axis tie and touch; in ℝ⁰ every simplex is a vertex at the origin."""
    rng = random.Random(seed)
    coords = {v: tuple(F(rng.randint(0, 2)) for _ in range(n)) for v in range(rng.randint(1, 9))}
    tops = []
    for _ in range(rng.randint(1, 12)):
        s = tuple(sorted(rng.sample(sorted(coords), rng.randint(1, min(n + 1, len(coords))))))
        if linalg.affinely_independent([coords[v] for v in s]):
            tops.append(s)
    # every draw may be dependent; a complex needs one simplex to have an
    # ambient dimension, so fall back to vertex 0
    tops = tops or [(0,)]
    return complexes.EuclideanComplex.build(tops, {v: coords[v] for s in tops for v in s})


SWEEP_KINDS = ("torus", "rp2", "lower-dim", "mixed", "grid")


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SWEEP_KINDS), st.integers(0, 3), st.integers(0, 2**32))
@example("torus", 2, 911)
@example("rp2", 2, 0)
@example("grid", 0, 0)
@example("grid", 1, 0)
@example("grid", 2, 72410045)
def test_swept_scan_matches_all_pairs(kind, n, seed):
    if kind in ("torus", "rp2"):
        surface = suite.torus_7() if kind == "torus" else suite.projective_plane_6()
        k = moment_surface(surface, seed, min(n, 2))
    elif kind == "lower-dim":
        k = unimodular_image(prism.build_R(1 + n % 3).complex, seed, extra_dims=1)
    elif kind == "mixed":
        k = with_edge(unimodular_image(prism.build_R(3).complex, seed), seed, overlap=n % 2 == 1)
    else:
        k = grid_complex(n, seed)
    args = scan_args(k)
    assert swept_scan(args) == reference_scan(*args)


def test_swept_scan_keeps_ties_and_touches():
    def build(tops, xs):
        return complexes.EuclideanComplex.build(tops, {v: tuple(map(F, x)) for v, x in xs.items()})

    cases = [
        # three vertices at the one point of ℝ⁰
        build([(0,), (1,), (2,)], {0: (), 1: (), 2: ()}),
        # segments in ℝ¹ that touch at 1 without sharing a vertex, and one
        # that starts where the first starts
        build([(0, 1), (2, 3), (4, 5)], {0: (0,), 1: (1,), 2: (1,), 3: (2,), 4: (0,), 5: (2,)}),
        # triangles in ℝ² that touch at x = 1 in a point off the common face
        build([(0, 1, 2), (3, 4, 5)],
              {0: (0, 0), 1: (1, 0), 2: (0, 1), 3: (1, 0), 4: (2, 0), 5: (2, 1)}),
        # triangles in ℝ² with equal x-intervals whose y-intervals only
        # touch, at points off their common faces: the later triangle
        # (3, 4, 5) lies below (0, 1, 2) and (6, 7, 8) above it, so a wrong
        # bisect side for either end on the second axis drops a pair
        build([(0, 1, 2), (3, 4, 5), (6, 7, 8)],
              {0: (1, 1), 1: (0, 2), 2: (2, 2), 3: (0, 0), 4: (2, 0), 5: (1, 1),
               6: (1, 2), 7: (0, 3), 8: (2, 3)}),
    ]
    for k in cases:
        args = scan_args(k)
        expected = reference_scan(*args)
        assert expected and swept_scan(args) == expected
        assert not complexes.validate(k).ok


def test_swept_scan_skips_most_box_tests():
    # sd² torus in ℝ⁵: 504 triangles, 126,756 pairs.  The walls run on
    # exactly the pairs whose integer boxes meet, and no pair is boxed
    k = moment_surface(suite.torus_7(), 911, 2)
    maximal, icoords, functionals, _ = scan_args(k)
    assert len(maximal) * (len(maximal) - 1) // 2 == 126_756
    boxes = {s: polytope.bounding_box([icoords[v][:-1] for v in s]) for s in maximal}
    meeting = {
        frozenset((p, q))
        for p, q in itertools.combinations(maximal, 2)
        if polytope.boxes_meet(boxes[p], boxes[q])
    }
    assert len(meeting) == 12_875
    with mock.patch.object(complexes, "_walled", wraps=complexes._walled) as walls, \
            mock.patch.object(polytope, "boxes_meet", wraps=polytope.boxes_meet) as boxed:
        assert complexes.validate(k).ok
    assert {frozenset(call.args[:2]) for call in walls.call_args_list} == meeting
    assert boxed.call_count == 0


# -- the suspect retry against the all-pairs reference -----------------------


def glued(ec, seed, apart):
    """ec, a triangulation of a convex region, plus a simplex outside it on
    a seeded boundary ridge r: r joined to the reflection, through r's
    centroid, of the vertex opposite r in its top simplex.  It meets ec in
    r, a common face; or, apart, it is joined to a copy of r on new vertex
    ids, so that it touches ec along r without a common face."""
    tops = ec.maximal_simplices()
    owners = {}
    for s in tops:
        for v in s:
            owners.setdefault(tuple(u for u in s if u != v), []).append((s, v))
    boundary = sorted(r for r, o in owners.items() if len(o) == 1)
    ridge = random.Random(seed).choice(boundary)
    ((_, off),) = owners[ridge]
    coords = dict(ec.coords)
    centre = [sum(c) / len(ridge) for c in zip(*(coords[v] for v in ridge))]
    new = 1 + max(coords)
    coords[new] = tuple(2 * c - x for c, x in zip(centre, coords[off]))
    if apart:
        copy = {v: new + 1 + i for i, v in enumerate(ridge)}
        coords.update({copy[v]: coords[v] for v in ridge})
        ridge = tuple(copy[v] for v in ridge)
    return with_tops(ec, tops + [ridge + (new,)], coords)


EXTRA_KINDS = ("overlap", "glued", "apart")


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.sampled_from(EXTRA_KINDS), min_size=1, max_size=2),
    st.integers(1, 3),
    st.integers(0, 2**32),
)
@example(["overlap"], 4, 0)
@example(["overlap"], 3, 1)
@example(["apart"], 3, 0)
@example(["glued"], 2, 0)
@example(["overlap", "overlap"], 3, 0)
@example(["glued", "overlap"], 2, 0)
@example(["apart", "glued"], 2, 1)
def test_suspect_scan_matches_all_pairs(extras, p, seed):
    # R(p) plus one or two simplices that overlap it or touch it, under a
    # seeded relabelling, so that an extra simplex may sort anywhere
    k = prism.build_R(p).complex
    for i, kind in enumerate(extras):
        if kind == "overlap":
            k, _ = overlapping(k, seed + i)
        else:
            k = glued(k, seed + i, apart=kind == "apart")
    k = unimodular_image(k, seed)
    args = scan_args(k)
    maximal, icoords, functionals, _ = args
    pairs, reference = list(complexes._uncertified_pairs(*args)), reference_scan(*args)
    # the scan keeps the reference's order, and every reference pair it
    # leaves out meets in a common face
    rest = iter(reference)
    assert all(pair in rest for pair in pairs)
    for a, b in set(reference) - set(pairs):
        assert complexes._common_face(a, b, icoords, functionals[b])
    assert complexes.validate(k) == scan_report(k, walls=False)[0]


# -- the exact pair test against intersect_simplices -------------------------


PAIR_KINDS = ("random", "touching", "coincident", "reflected")


def simplex_pair(kind, n, seed):
    """Coordinates and two affinely independent simplices a, b in R^n on
    small integer points, neither a face of the other, sharing 0 to
    len(a) - 1 vertices; b's other vertices are random points, points on a
    facet of a, a's other points on new ids, or their reflections through
    a's barycenter."""
    rng = random.Random(seed)

    def points(m):
        return [tuple(F(rng.randint(-2, 2)) for _ in range(n)) for _ in range(m)]

    while True:
        pa = points(rng.randint(1, n + 1))
        if not linalg.affinely_independent(pa):
            continue
        shared = sorted(rng.sample(range(len(pa)), rng.randint(0, len(pa) - 1)))
        rest = [p for i, p in enumerate(pa) if i not in shared]
        if kind == "random":
            new = points(rng.randint(1, n + 1 - len(shared)))
        elif kind == "touching":
            facet = rng.sample(pa, max(1, len(pa) - 1))
            weights = [w for w in itertools.product((0, F(1, 2), 1), repeat=len(facet)) if sum(w) == 1]
            new = [
                tuple(sum(w * x for w, x in zip(rng.choice(weights), col)) for col in zip(*facet))
                for _ in rest
            ] + points(rng.randint(0, 1))
        elif kind == "coincident":
            new = rest
        else:
            center = [sum(col) / len(pa) for col in zip(*pa)]
            new = [tuple(2 * c - x for c, x in zip(center, p)) for p in rest]
        pb = [pa[i] for i in shared] + new
        if len(pb) <= n + 1 and linalg.affinely_independent(pb):
            break
    coords = dict(enumerate(pa))
    coords.update({len(pa) + j: p for j, p in enumerate(new)})
    b = tuple(shared) + tuple(range(len(pa), len(pa) + len(new)))
    return coords, tuple(range(len(pa))), b


def pair_verdict(coords, a, b):
    """validate's verdict on the pair, after checking it against the
    intersection polytope from intersect_simplices, in both orders."""
    k = complexes.EuclideanComplex.build([a, b], coords)
    shared = sorted(linalg.as_vec(coords[v]) for v in set(a) & set(b))
    pa, pb = k.integer_simplex(a), k.integer_simplex(b)
    expected = on_fractions(polytope.intersect_simplices, pa, pb) == shared
    assert (on_fractions(polytope.intersect_simplices, pb, pa) == shared) == expected
    assert complexes.validate(k).ok == expected
    return expected


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(PAIR_KINDS), st.integers(1, 4), st.integers(0, 2**32))
def test_common_face_matches_intersect_simplices(kind, n, seed):
    pair_verdict(*simplex_pair(kind, n, seed))


def test_common_face_examples():
    def pts(*xy):
        return {v: (F(x), F(y)) for v, (x, y) in enumerate(xy)}

    # deep overlaps, where no facet of either triangle separates the other
    star = pts((0, 2), (-2, -1), (2, -1), (0, -2), (2, 1), (-2, 1))
    assert not pair_verdict(star, (0, 1, 2), (3, 4, 5))
    fan = pts((0, 0), (4, 0), (0, 4), (3, -1), (-1, 3))
    assert not pair_verdict(fan, (0, 1, 2), (0, 3, 4))
    # a shared edge, and the same edge reached from the wrong side
    kite = pts((0, 0), (2, 0), (1, 2), (1, -2), (1, 1))
    assert pair_verdict(kite, (0, 1, 2), (0, 1, 3))
    assert not pair_verdict(kite, (0, 1, 2), (0, 1, 4))
    # two segments crossing in the plane; a segment through a triangle in R^3,
    # then one that stops short of it
    cross = pts((0, 0), (2, 2), (0, 2), (2, 0))
    assert not pair_verdict(cross, (0, 1), (2, 3))
    space = {0: (F(0), F(0), F(0)), 1: (F(2), F(0), F(0)), 2: (F(0), F(2), F(0)),
             3: (F(1, 2), F(1, 2), F(-1)), 4: (F(1, 2), F(1, 2), F(1))}
    assert not pair_verdict(space, (0, 1, 2), (3, 4))
    space[4] = (F(1, 2), F(1, 2), F(-2))
    assert pair_verdict(space, (0, 1, 2), (3, 4))


# -- the integer form a complex holds, against fresh computation -----------


def cache_complex(kind, seed):
    """A complex with rational coordinates and its barycentric subdivision.

    "valid" is sd of a seeded unimodular image of R(1) or R(2); "dependent"
    adds to it the simplex on a vertex, the barycenter of an edge through
    it and the edge's other end, which are collinear; "lower-dim" is sd of
    the torus on the moment curve in ℝ⁵."""
    if kind == "lower-dim":
        k = moment_surface(suite.torus_7(), seed, 1)
    else:
        p = random.Random(seed).randint(1, 2)
        k = complexes.barycentric_subdivide(unimodular_image(prism.build_R(p).complex, seed))
    if kind == "dependent":
        vid = {s: v for v, (_, s) in k.base.labels.items()}
        u, v = min(s for s in vid if len(s) == 2)
        collinear = tuple(sorted((vid[(u,)], vid[(u, v)], vid[(v,)])))
        k = with_tops(k, k.maximal_simplices() + [collinear])
    return k, complexes.barycentric_subdivide(k)


def random_points(rng, k, count):
    """Points of k's maximal simplices, on their faces as often as not,
    and points of k's bounding box with their own denominators."""
    out = []
    lo, hi = polytope.bounding_box(list(k.coords.values()))
    for _ in range(count):
        if rng.random() < 0.6:
            s = rng.choice(k.maximal_simplices())
            weights = [rng.randint(0, 2) for _ in s]
            weights[rng.randrange(len(s))] += 1
            out.append(tuple(sum(w * x[i] for w, x in zip(weights, k.points(s))) / sum(weights)
                             for i in range(k.ambient_dim)))
        else:
            out.append(tuple(a + (b - a) * F(rng.randint(0, 6), rng.randint(1, 6))
                             for a, b in zip(lo, hi)))
    return out


def outcome(fn):
    try:
        return fn()
    except ValueError as exc:
        return ("ValueError", str(exc))


def uncached_carrier(k, points):
    """The first maximal simplex of k holding every point, by `contains` on
    functionals computed afresh from k's raw points."""
    for t in k.maximal_simplices():
        functionals = polytope._integer_functionals(polytope.homogeneous(k.points(t)))
        if polytope.contains(functionals, polytope.homogeneous(points)):
            return t
    return None


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(("valid", "dependent", "lower-dim")), st.integers(0, 2**32))
@example("valid", 0)
@example("dependent", 0)
@example("lower-dim", 0)
def test_complex_holds_its_integer_form(kind, seed):
    k, sd = cache_complex(kind, seed)
    vertices = k.base.vertices
    ipts, den = linalg.integer_points([k.coords[v] for v in vertices])
    assert k.integer_coords == {v: x + (den,) for v, x in zip(vertices, ipts)}
    dependent = []
    for s in k.maximal_simplices():
        fresh = polytope._integer_functionals([k.integer_coords[v] for v in s])
        assert k.functionals(s) == fresh
        assert k.functionals(s) is k.functionals(s)
        if fresh is None:
            dependent.append(s)
    assert len(dependent) == (kind == "dependent")
    rng = random.Random(seed)
    for _ in range(6):
        points = random_points(rng, k, rng.randint(1, 2))
        assert outcome(lambda: families._carrier(k, polytope.homogeneous(points))) == outcome(
            lambda: uncached_carrier(k, points)
        )
    # pairs of k and its subdivision, each over its own denominator, read
    # through raw outputs over theirs
    boxes = {t: polytope.bounding_box(sd.points(t)) for t in sd.maximal_simplices()}
    for _ in range(6):
        a = rng.choice(dependent if dependent and rng.random() < 0.5 else k.maximal_simplices())
        box = polytope.bounding_box(k.points(a))
        near = [t for t, tb in boxes.items() if polytope.boxes_meet(box, tb)]
        b = rng.choice(near or list(boxes))
        outs = [
            random_points(rng, k, len(s)) if rng.random() < 0.5 else None for s in (a, b)
        ]
        got = on_fractions(
            polytope.intersect_simplices,
            k.integer_simplex(a),
            sd.integer_simplex(b),
            *(None if x is None else polytope.integer_simplex(x) for x in outs),
        )
        assert got == raw_intersect_simplices(k.points(a), sd.points(b), *outs)


# -- facet functionals pivoted across ridges, against elimination ------------


def ridge_owners(ec):
    """Each ridge of ec's top simplices -> [(owner, owner's vertex off it)]."""
    owners = {}
    for s in ec.maximal_simplices():
        for v in s:
            owners.setdefault(tuple(u for u in s if u != v), []).append((s, v))
    return owners


def on_a_ridge(ec, seed, kind):
    """ec with a seeded ridge r changed, relabelled and remapped again so
    that a new vertex may come anywhere in its simplices' order.  With s
    an owner of r and v its vertex off r:
    "on-ridge": r is interior, and the other owner's vertex off r moves
    into r's hyperplane, so that a pivot across r meets a = 0;
    "flipped": r is a boundary ridge, and r joined to the midpoint of r's
    centroid and v is a misoriented neighbour of s;
    "three-owners": r is interior, and r joined to v reflected through
    r's centroid is its third owner;
    "equal-coords": r is a boundary ridge, joined to a new vertex id at
    the coordinates of a vertex of s (dependent, or covering s)."""
    rng = random.Random(seed)
    owners = ridge_owners(ec)
    interior = kind in ("on-ridge", "three-owners")
    ridge = rng.choice(sorted(r for r, o in owners.items() if (len(o) == 2) == interior))
    (s, v), *rest = owners[ridge]
    coords, tops = dict(ec.coords), ec.maximal_simplices()
    centre = [sum(c) / len(ridge) for c in zip(*(coords[u] for u in ridge))]
    new = 1 + max(coords)
    if kind == "on-ridge":
        weights = [F(rng.randint(1, 3)) for _ in ridge]
        weights[0] += 1 - sum(weights)
        coords[rest[0][1]] = tuple(
            sum(a * coords[u][c] for a, u in zip(weights, ridge)) for c in range(len(centre))
        )
    else:
        if kind == "flipped":
            coords[new] = tuple((c + x) / 2 for c, x in zip(centre, coords[v]))
        elif kind == "three-owners":
            coords[new] = tuple(2 * c - x for c, x in zip(centre, coords[v]))
        else:
            coords[new] = coords[rng.choice(s)]
        tops = tops + [ridge + (new,)]
    return unimodular_image(with_tops(ec, tops, coords), seed + 1)


def apart(ec):
    """ec and a translate of it on new vertex ids, clear of ec on the
    first axis: two components of the ridge graph."""
    shift = 1 + max(ec.base.vertices)
    width = 1 + max(x[0] for x in ec.coords.values()) - min(x[0] for x in ec.coords.values())
    coords = dict(ec.coords)
    coords.update({v + shift: (x[0] + width,) + x[1:] for v, x in ec.coords.items()})
    tops = ec.maximal_simplices()
    return with_tops(ec, tops + [tuple(v + shift for v in s) for s in tops], coords)


def pivot_complex(kind, p, seed):
    if kind == "K":
        return unimodular_image(prism.build_K(p).complex, seed)
    ec = unimodular_image(prism.build_R(p).complex, seed, extra_dims=kind == "lower-dim")
    if kind in ("on-ridge", "flipped", "three-owners", "equal-coords"):
        return on_a_ridge(ec, seed, kind)
    if kind in ("components", "doubled"):
        return (apart if kind == "components" else doubled)(ec)
    if kind == "non-pure":
        return with_edge(ec, seed, overlap=seed % 2 == 0)
    return ec


def eliminations(k):
    """validate(k) and its calls of `polytope._integer_functionals`."""
    calls = []
    eliminate = polytope._integer_functionals

    def spy(hom):
        calls.append(hom)
        return eliminate(hom)

    with mock.patch.object(polytope, "_integer_functionals", spy):
        return complexes.validate(k), len(calls)


PIVOT_KINDS = (
    "R", "K", "on-ridge", "flipped", "three-owners", "components", "equal-coords", "doubled",
    "non-pure", "lower-dim",
)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PIVOT_KINDS), st.integers(1, 4), st.integers(0, 2**32))
@example("R", 4, 0)
@example("K", 4, 0)
@example("on-ridge", 3, 0)
@example("flipped", 3, 0)
@example("three-owners", 3, 0)
@example("components", 2, 0)
@example("equal-coords", 2, 0)
@example("equal-coords", 2, 1)
@example("non-pure", 3, 0)
@example("non-pure", 3, 1)
def test_pivoted_functionals_match_elimination(kind, p, seed):
    """validate leaves each maximal simplex the functionals elimination
    gives it, and reports what validate reports with every functional
    eliminated."""
    k = pivot_complex(kind, min(p, 3) if kind in ("components", "doubled") else p, seed)
    report, calls = eliminations(k)
    for s in k.maximal_simplices():
        assert k.functionals(s) == polytope._integer_functionals([k.integer_coords[v] for v in s])
    with mock.patch.object(complexes, "_pivot_functionals", lambda *args: None):
        assert complexes.validate(with_tops(k, k.maximal_simplices())) == report
    if kind in ("R", "K"):
        assert report.ok and calls == 1
    elif kind == "lower-dim":
        assert calls == len(k.maximal_simplices())


def test_pivot_meets_a_dependent_neighbour():
    """Across the edge (1, 2), vertex 3 lies on the edge's line: the pivot
    finds a = 0, and the flat triangle is reported dependent."""
    k = complexes.EuclideanComplex.build(
        [(0, 1, 2), (1, 2, 3)],
        {0: (F(0), F(0)), 1: (F(2), F(0)), 2: (F(0), F(2)), 3: (F(-1), F(3))},
    )
    pivots = []
    pivot = polytope._pivot

    def spy(*args):
        pivots.append(pivot(*args))
        return pivots[-1]

    with mock.patch.object(polytope, "_pivot", spy):
        report, calls = eliminations(k)
    assert pivots == [None] and calls == 1
    assert report.issues == ("simplex (1, 2, 3) is not affinely independent",)
    assert k.functionals((1, 2, 3)) is None


def test_validate_eliminates_once_per_component():
    r4 = unimodular_image(prism.build_R(4).complex, 911)
    assert eliminations(r4) == (complexes.ValidityReport(True), 1)
    assert eliminations(apart(r4)) == (complexes.ValidityReport(True), 2)


@pytest.mark.parametrize("fault", ["negated", "swapped", "summed"])
def test_a_wrong_pivoted_row_raises(fault):
    """The full sign-pattern check runs on every pivoted simplex: a pivot
    that returns one wrong row stops validate with no verdict."""
    pivot = polytope._pivot

    def wrong(rows, i, w, j):
        out = pivot(rows, i, w, j)
        k = (j + 1) % len(out)
        if fault == "negated":
            out[j] = [-c for c in out[j]]
        elif fault == "swapped":
            out[j], out[k] = out[k], out[j]
        else:
            out[j] = [a + b for a, b in zip(out[j], out[k])]
        return out

    k = unimodular_image(prism.build_R(3).complex, 911)
    with mock.patch.object(polytope, "_pivot", wrong):
        with pytest.raises(ArithmeticError, match="functional verification failed"):
            complexes.validate(k)
