"""Self-verification suite: one deterministic pass/fail check per
shipped guarantee, shared by the command line (verify-suite) and the
acceptance tests.

Every check is pure and seeded, so repeated runs produce byte-identical
reports.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import factorial

from . import complexes, delta, families, homology, nerve, prism, simplicial
from .complexes import EuclideanComplex
from .families import AffineSimplicialMap, PolyhedralFamily

SEED = 20260823


# ---------------------------------------------------------------------------
# shared corpus
# ---------------------------------------------------------------------------


def _moment(v: int, dim: int = 5):
    return tuple(Fraction(v) ** k for k in range(1, dim + 1))


def circle_3() -> EuclideanComplex:
    return EuclideanComplex.build(
        [(0, 1), (1, 2), (0, 2)],
        {0: (Fraction(0), Fraction(0)), 1: (Fraction(1), Fraction(0)), 2: (Fraction(0), Fraction(1))},
        name="circle3",
    )


def circle_4() -> EuclideanComplex:
    return EuclideanComplex.build(
        [(0, 1), (1, 2), (2, 3), (0, 3)],
        {0: (Fraction(0), Fraction(0)), 1: (Fraction(1), Fraction(0)),
         2: (Fraction(1), Fraction(1)), 3: (Fraction(0), Fraction(1))},
        name="circle4",
    )


def boundary_tetrahedron() -> EuclideanComplex:
    pts = {0: (0, 0, 0), 1: (1, 0, 0), 2: (0, 1, 0), 3: (0, 0, 1)}
    return EuclideanComplex.build(
        list(itertools.combinations(range(4), 3)),
        {v: tuple(map(Fraction, p)) for v, p in pts.items()},
        name="bdDelta3",
    )


def torus_7() -> EuclideanComplex:
    maximal = sorted(
        {tuple(sorted((i % 7, (i + 1) % 7, (i + 3) % 7))) for i in range(7)}
        | {tuple(sorted((i % 7, (i + 2) % 7, (i + 3) % 7))) for i in range(7)}
    )
    return EuclideanComplex.build(maximal, {v: _moment(v) for v in range(7)}, name="torus7")


def projective_plane_6() -> EuclideanComplex:
    maximal = [
        (0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
        (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5),
    ]
    return EuclideanComplex.build(maximal, {v: _moment(v) for v in range(6)}, name="rp2")


def corpus() -> list[EuclideanComplex]:
    return [circle_3(), circle_4(), boundary_tetrahedron(), torus_7(), projective_plane_6()]


def segment_fiber() -> EuclideanComplex:
    return EuclideanComplex.build(
        [(0, 1)], {0: (Fraction(0),), 1: (Fraction(1),)}, name="I"
    )


def two_point_fiber() -> EuclideanComplex:
    return EuclideanComplex.build(
        [(0,), (1,)], {0: (Fraction(0),), 1: (Fraction(1),)}, name="2pt"
    )


def point_fiber() -> EuclideanComplex:
    return EuclideanComplex.build([(0,)], {0: (Fraction(0),)}, name="pt")


# ---------------------------------------------------------------------------
# family fixtures for the subdivision-lift criterion
# ---------------------------------------------------------------------------


def _graph_family(base, sub, heights, name) -> PolyhedralFamily:
    """Family whose total space is the graph of a piecewise affine height
    function on a subdivision of the base."""
    total = EuclideanComplex.build(
        sub.maximal_simplices(),
        {v: tuple(sub.coords[v]) + (heights[v],) for v in sub.base.vertices},
        name=name,
    )
    projection = {
        tuple(s): tuple(s) for s in total.maximal_simplices()
    }
    return PolyhedralFamily(base, sub, total, 1, projection, name)


def lift_fixtures() -> list[PolyhedralFamily]:
    d1 = families.standard_simplex_complex(1)
    d2 = families.standard_simplex_complex(2)
    half = Fraction(1, 2)
    sub1 = EuclideanComplex.build(
        [(0, 1), (1, 2)], {0: (Fraction(0),), 1: (half,), 2: (Fraction(1),)}, name="subI"
    )
    tentsub = EuclideanComplex.build(
        [(0, 1, 3), (0, 2, 3), (1, 2, 3)],
        {0: (Fraction(0), Fraction(0)), 1: (Fraction(1), Fraction(0)),
         2: (Fraction(0), Fraction(1)), 3: (Fraction(1, 3), Fraction(1, 3))},
        name="tentsub",
    )
    out = [
        families.constant_family(d1, point_fiber(), name="pt-over-I"),
        families.constant_family(d1, segment_fiber(), name="I-over-I"),
        families.constant_family(d1, two_point_fiber(), name="2pt-over-I"),
        _graph_family(d1, sub1, {0: Fraction(0), 1: Fraction(1), 2: Fraction(0)}, "roof"),
        _graph_family(d1, d1, {0: Fraction(0), 1: Fraction(1)}, "slant"),
        _graph_family(d1, sub1, {0: Fraction(2), 1: half, 2: Fraction(1)}, "vee"),
        families.constant_family(d2, point_fiber(), name="pt-over-D2"),
        families.constant_family(d2, segment_fiber(), name="I-over-D2"),
        _graph_family(d2, d2, {0: Fraction(0), 1: Fraction(1), 2: Fraction(2)}, "plane"),
        _graph_family(
            d2, tentsub,
            {0: Fraction(0), 1: Fraction(0), 2: Fraction(0), 3: Fraction(1)},
            "tent",
        ),
    ]
    return out


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def criterion_1():
    """R(p) triangulates the prism for p = 0..5: validity, volume, χ, H."""
    for p in range(6):
        r = prism.build_R(p)
        ec = r.complex
        if not complexes.validate(ec).ok:
            return False, f"R({p}) fails validity"
        if ec.total_volume() != Fraction(1, factorial(p)):
            return False, f"R({p}) volume mismatch"
        if ec.euler_characteristic() != 1:
            return False, f"R({p}) chi != 1"
        h = homology.homology_of_complex(ec)
        if h.betti_vector() != (1,) + (0,) * (len(h.betti_vector()) - 1) or any(
            h.torsion(k) for k in range(p + 2)
        ):
            return False, f"R({p}) not acyclic"
    return True, "p=0..5: valid, vol=1/p!, chi=1, H=point"


def criterion_2():
    """R(1) has 5 vertices, 7 edges, and the three listed triangles."""
    r = prism.build_R(1)
    if r.complex.f_vector() != (5, 7, 3):
        return False, f"f-vector {r.complex.f_vector()}"
    tris = {
        frozenset(r.label(v) for v in s) for s in r.complex.base.simplices_of_dim(2)
    }
    want = {
        frozenset({("e", 0), ("e", 1), ("b", (0, 1))}),
        frozenset({("e", 0), ("b", (0,)), ("b", (0, 1))}),
        frozenset({("e", 1), ("b", (1,)), ("b", (0, 1))}),
    }
    if tris != want:
        return False, "triangle labels differ"
    return True, "f=(5,7,3) with the three expected triangles"


def criterion_3():
    """The prism maps are functorial for all monotone maps with indices <= 3."""
    count = 0
    for p in range(4):
        rid = prism.build_R_map(tuple(range(p + 1)), p, p)
        ident = {v: v for v in prism.build_R(p).complex.base.vertices}
        if rid.vertex_map != ident:
            return False, f"R(id) != id at p={p}"
        for q in range(4):
            for r in range(4):
                for e1 in prism.monotone_maps(p, q):
                    for e2 in prism.monotone_maps(q, r):
                        a = prism.compose_R_maps(
                            prism.build_R_map(e2, q, r), prism.build_R_map(e1, p, q)
                        )
                        b = prism.build_R_map(tuple(e2[v] for v in e1), p, r)
                        if a.vertex_map != b.vertex_map:
                            return False, f"composition fails for {e1}, {e2}"
                        count += 1
        for q in range(4):
            for eta in prism.monotone_maps(p, q):
                m = prism.build_R_map(eta, p, q)
                if not m.to_delta_morphism().check():
                    return False, f"R({eta}) not a morphism"
    return True, f"{count} composites + identities + morphism checks"


def criterion_4():
    """F(p) is an isomorphism (p <= 4), natural in monotone maps (p,q <= 3);
    K(p) has p+1 top simplices."""
    for p in range(5):
        if len(prism.build_K(p).complex.maximal_simplices()) != p + 1:
            return False, f"K({p}) top count wrong"
        f = prism.build_F(p)
        if not f.check():
            return False, f"F({p}) not a morphism"
        for d in set(f.source.generators) | set(f.target.generators):
            imgs = {f.mapping[g] for g in f.source.gens(d)}
            if any(w != () for (w, _) in imgs):
                return False, f"F({p}) hits a degenerate simplex"
            if len(imgs) != len(f.source.gens(d)) or {g for (_, g) in imgs} != set(
                f.target.gens(d)
            ):
                return False, f"F({p}) not bijective in degree {d}"
    squares = 0
    for p in range(4):
        for q in range(4):
            for eta in prism.monotone_maps(p, q):
                fp, fq = prism.build_F(p), prism.build_F(q)
                km = prism.k_map_of(eta, p, q)
                pm = prism.product_map_of(eta, p, q)
                if not (km.check() and pm.check()):
                    return False, f"induced map fails at {eta}"
                lhs = simplicial.compose_simplicial(pm, fq)
                rhs = simplicial.compose_simplicial(fp, km)
                if lhs.mapping != rhs.mapping:
                    return False, f"naturality fails at {eta}"
                squares += 1
    return True, f"iso p<=4, {squares} naturality squares, K tops = p+1"


def criterion_5():
    """Homology is invariant under sd and sd^2 over the corpus."""
    for ec in corpus():
        h0 = homology.homology_of_complex(ec)
        k = ec
        for r in (1, 2):
            k = complexes.barycentric_subdivide(k)
            if homology.homology_of_complex(k) != h0:
                return False, f"{ec.base.name}: homology changes at sd^{r}"
    rp2 = homology.homology_of_complex(projective_plane_6())
    if rp2.betti_vector() != (1, 0, 0) or rp2.torsion(1) != (2,):
        return False, "rp2 homology wrong"
    return True, "corpus stable under sd, sd^2 (incl. Z/2 torsion)"


def _check_lift(w: PolyhedralFamily) -> str | None:
    lift, sdb = families.subdivision_lift(w, r=1)
    re = families.reassemble(lift, sdb, w)
    if not families.same_point_set(re, w.total):
        return "reassembly differs"
    tops = sdb.maximal_simplices()
    for s in tops:
        chart = [sdb.coords[v] for v in s]
        w_over_s = families.restrict_total(w, chart)
        assigned = families.transport_total(lift[s], chart, w.base.ambient_dim)
        if not families.same_point_set(assigned, w_over_s):
            return f"lift value over {s} differs from the family"
        # uniqueness: any candidate value matching the family over this flag
        # must agree with the assigned one as a point set
        for t in tops:
            cand = families.transport_total(lift[t], chart, w.base.ambient_dim)
            matches_family = families.same_point_set(cand, w_over_s)
            matches_assigned = families.same_point_set(cand, assigned)
            if matches_family != matches_assigned:
                return f"ambiguous lift value over {s}"
    return None


def criterion_6():
    """Subdivision lift at r=1 reassembles each fixture and is unique on
    top flags."""
    fixtures = lift_fixtures()
    for w in fixtures:
        err = _check_lift(w)
        if err:
            return False, f"{w.name}: {err}"
    return True, f"{len(fixtures)} fixtures lift, reassemble, unique"


def _random_point_in(rng, ec: EuclideanComplex):
    s = rng.choice(ec.maximal_simplices())
    weights = [Fraction(rng.randint(1, 4)) for _ in s]
    tot = sum(weights)
    pts = ec.points(s)
    return tuple(
        sum(w * p[i] for w, p in zip(weights, pts)) / tot for i in range(ec.ambient_dim)
    )


def criterion_7():
    """Pullback satisfies the identity and composition laws on seeded
    random instances (point-set equality of totals)."""
    rng = random.Random(SEED)
    fibers = [point_fiber, segment_fiber, two_point_fiber]
    for i in range(25):
        dp = rng.choice([1, 2])
        dq = rng.choice([1, 2])
        dr = rng.choice([1, 2])
        P = families.standard_simplex_complex(dp)
        Q = families.standard_simplex_complex(dq)
        R = families.standard_simplex_complex(dr)
        f = AffineSimplicialMap(
            P, Q, {v: _random_point_in(rng, Q) for v in P.base.vertices}
        )
        g = AffineSimplicialMap(
            Q, R, {v: _random_point_in(rng, R) for v in Q.base.vertices}
        )
        w = families.constant_family(R, rng.choice(fibers)(), name=f"w{i}")
        idw = families.pullback(families.identity_map(R), w)
        if not families.same_point_set(idw.total, w.total):
            return False, f"instance {i}: identity law fails"
        gf = families.compose_maps(g, f)
        lhs = families.pullback(gf, w)
        rhs = families.pullback(f, families.pullback(g, w))
        if not families.same_point_set(lhs.total, rhs.total):
            return False, f"instance {i}: composition law fails"
    return True, "25 seeded instances: id and composition laws hold"


def criterion_8():
    """Regular fibers: hexagon height (2 points) and prism projection."""
    pts = {
        0: (Fraction(0), Fraction(0)), 1: (Fraction(1), Fraction(0)),
        2: (Fraction(2), Fraction(1)), 3: (Fraction(1), Fraction(1)),
        4: (Fraction(0), Fraction(1)), 5: (Fraction(-1), Fraction(0)),
    }
    hexc = EuclideanComplex.build(
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)], pts, name="hex"
    )
    d1 = families.standard_simplex_complex(1)
    height = AffineSimplicialMap(hexc, d1, {v: (pts[v][1],) for v in pts})
    cert = families.regular_fiber(height, (Fraction(1, 2),))
    if not cert.ok:
        return False, "hexagon fiber is not a valid complex"
    if cert.fiber.f_vector() != (2,):
        return False, f"hexagon fiber is {cert.fiber.f_vector()}, not 2 points"
    ec = prism.build_R(2).complex
    proj = AffineSimplicialMap(
        ec, d1, {v: (ec.coords[v][-1],) for v in ec.base.vertices}
    )
    cert = families.regular_fiber(proj, (Fraction(1, 2),))
    if not cert.ok:
        return False, "prism fiber is not a valid complex"
    if cert.fiber.dimension != 2 or cert.fiber.euler_characteristic() != 1:
        return False, "prism fiber is not a 2-disc slice"
    return True, "hexagon fiber = 2 points; prism fiber = 2-dim, chi=1"


def criterion_9():
    """Horn filling: restriction of the filled family equals the input;
    nerve of Z/2 fills every horn through degree 3; the directed-path
    outer horn has no filler."""
    fills = [
        (1, 0, point_fiber()), (1, 1, segment_fiber()),
        (2, 0, point_fiber()), (2, 1, segment_fiber()), (2, 2, two_point_fiber()),
        (3, 1, point_fiber()), (3, 3, point_fiber()),
    ]
    for p, j, fib in fills:
        horn = families.horn_complex(p, j)
        w = families.constant_family(horn, fib)
        filled = families.horn_fill_family(w, p, j)
        res = families.restrict_family(filled, horn)
        if not families.same_point_set(res.total, w.total):
            return False, f"fill restriction differs at p={p}, j={j}"
    mult = {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "e"}
    bz2 = simplicial.nerve_of_monoid(["e", "s"], lambda a, b: mult[(a, b)], "e", cap=4)
    filled_count = 0
    for p in range(1, 4):
        for j in range(p + 1):
            for s in bz2.all_simplices(p):
                horn = {i: bz2.face(i, s) for i in range(p + 1) if i != j}
                if simplicial.kan_fill_simplicial(bz2, p, j, horn) is None:
                    return False, f"Z/2 horn unfilled at p={p}, j={j}"
                filled_count += 1
    chain = nerve.FiniteNonUnitalCategory(
        (0, 1, 2), ("f", "g", "gf"),
        {"f": 0, "g": 1, "gf": 0}, {"f": 1, "g": 2, "gf": 2}, {("f", "g"): "gf"},
        name="path",
    )
    n = nerve.nerve(chain)
    if delta.kan_fill(n, 2, 0, {1: ("f",), 2: ("gf",)}) is not None:
        return False, "directed-path outer horn unexpectedly filled"
    return True, f"{len(fills)} family fills; {filled_count} Z/2 horns; path horn = none"


def criterion_10():
    """Category axioms: positive and negative fixtures, plus the demo
    cobordism category and its nerve."""
    one = nerve.FiniteNonUnitalCategory(
        ("A", "B"), ("f",), {"f": "A"}, {"f": "B"}, {}, name="arrow"
    )
    chain = nerve.FiniteNonUnitalCategory(
        (0, 1, 2), ("f", "g", "gf"),
        {"f": 0, "g": 1, "gf": 0}, {"f": 1, "g": 2, "gf": 2}, {("f", "g"): "gf"},
        name="path",
    )
    if not (nerve.check_category(one).ok and nerve.check_category(chain).ok):
        return False, "positive fixture rejected"
    bad_endpoint = nerve.FiniteNonUnitalCategory(
        chain.objects, chain.morphisms, chain.src, chain.tgt, {("f", "g"): "f"}
    )
    rep = nerve.check_category(bad_endpoint)
    if rep.ok or rep.issues[0][0] != "endpoint":
        return False, "endpoint violation not witnessed"
    zcomp = {("e", "e"): "e", ("e", "s"): "e", ("s", "e"): "s", ("s", "s"): "e"}
    bad_assoc = nerve.FiniteNonUnitalCategory(
        ("*",), ("e", "s"), {"e": "*", "s": "*"}, {"e": "*", "s": "*"}, zcomp
    )
    rep = nerve.check_category(bad_assoc)
    if rep.ok or rep.issues[0][0] != "associativity":
        return False, "associativity violation not witnessed"
    try:
        nerve.nerve(bad_assoc, max_degree=3)
        return False, "non-associative nerve passed identity check"
    except nerve.CategoryStructureError:
        pass
    demo = nerve.demo_cobordism_category()
    if not nerve.check_category(demo).ok:
        return False, "demo category fails axioms"
    cup = ("E", "P", frozenset({(("o", 0), ("o", 1))}), 0)
    cap = ("P", "E", frozenset({(("i", 0), ("i", 1))}), 0)
    if demo.comp[(cup, cap)] != ("E", "E", frozenset(), 1):
        return False, "cup;cap does not add a loop"
    h = homology.homology_of_delta_set(nerve.nerve(demo, max_degree=3))
    if h.describe(0) != "Z":
        return False, f"demo H_0 = {h.describe(0)}"
    return True, "axioms, two witnessed violations, demo with H_0 = Z"


def criterion_11():
    """st(v, K) = lk(v, K) * v for every vertex of every corpus complex."""
    checked = 0
    for ec in corpus():
        for v in ec.base.vertices:
            st = complexes.star(v, ec)
            lk = complexes.link(v, ec)
            joined = complexes.join(ec.coords[v], lk, vertex_id=v)
            if st.base.simplices != joined.base.simplices:
                return False, f"{ec.base.name}: vertex {v}"
            if any(st.coords[u] != joined.coords[u] for u in st.base.vertices):
                return False, f"{ec.base.name}: vertex {v} coords"
            checked += 1
    return True, f"{checked} vertices across the corpus"


CRITERIA = [
    ("prism-triangulation", criterion_1),
    ("r1-counts", criterion_2),
    ("cosimplicial-laws", criterion_3),
    ("product-isomorphism", criterion_4),
    ("subdivision-invariance", criterion_5),
    ("subdivision-lift", criterion_6),
    ("pullback-laws", criterion_7),
    ("regular-fibers", criterion_8),
    ("kan-filling", criterion_9),
    ("nerve-axioms", criterion_10),
    ("star-link-join", criterion_11),
]


def run_criteria(names=None) -> list[tuple[str, bool, str]]:
    rows = []
    for name, fn in CRITERIA:
        if names and name not in names:
            continue
        ok, detail = fn()
        rows.append((name, ok, detail))
    return rows


def render_report(rows) -> str:
    width = max(len(n) for n, _, _ in rows)
    lines = []
    for name, ok, detail in rows:
        lines.append(f"{name.ljust(width)}  {'PASS' if ok else 'FAIL'}  {detail}")
    total = sum(1 for _, ok, _ in rows if ok)
    lines.append(f"{total}/{len(rows)} criteria passed")
    return "\n".join(lines) + "\n"


def run_suite() -> list[tuple[str, bool, str]]:
    """Rows of criteria 1-11 plus the determinism criterion: the first
    eleven are evaluated twice and their reports must agree byte for byte."""
    rows = run_criteria()
    det = render_report(rows) == render_report(run_criteria())
    rows.append(("determinism", det, "two runs byte-identical" if det else "reports differ"))
    return rows
