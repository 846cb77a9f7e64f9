"""Seeded inputs and verdicts for the four benchmark workloads.

A verdict is one checked decision about one generated input: a callable
that asks plkernel for an answer, and the answer expected by
construction.  Expected answers never come from the code under test;
they follow from how the input was built (a unimodular map keeps volume,
an inserted overlapping simplex must be named, a dropped triangle makes
two point sets differ, ...).

`build(workload, seed, input_set, size, workdir)` returns the list of
verdicts plus a canonical description of the generated inputs, whose
digest identifies them.  Everything here runs before the timed loop
(set-up); inputs that plkernel itself must build, such as R(p) or
sd^k X, are built inside the first verdict that uses them.

plkernel functions are always called through their module attribute
(`complexes.validate(...)`), so the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Any, Callable

from plkernel import (
    cli,
    complexes,
    delta,
    families,
    homology,
    nerve,
    prism,
    simplicial,
    suite,
)
from plkernel.complexes import EuclideanComplex
from plkernel.families import AffineSimplicialMap

WORKLOADS = ("triangulate", "pointset", "combinatorics", "reject")
SIZES = ("full", "tiny")


@dataclass
class Verdict:
    id: str
    decide: Callable[[], Any]
    expected: Any


class _Round:
    """Collects the verdicts of one round and the description of its inputs."""

    def __init__(self, workload: str, seed: int, input_set: int, size: str, workdir: str):
        self.rng = random.Random(f"{workload}:{seed}:{input_set}")
        self.full = size == "full"
        self.workdir = workdir
        self.verdicts: list[Verdict] = []
        self.spec: list = []

    def add(self, vid: str, decide: Callable[[], Any], expected: Any):
        self.verdicts.append(Verdict(vid, decide, expected))

    def write(self, name: str, text: str) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.spec.append((name, text))
        return path


def build(workload: str, seed: int, input_set: int, size: str, workdir: str):
    """Verdicts and input description of one input set of a workload; the
    inputs depend on (workload, seed, input_set, size) alone."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    rnd = _Round(workload, seed, input_set, size, workdir)
    _BUILDERS[workload](rnd)
    return rnd.verdicts, rnd.spec


# ---------------------------------------------------------------------------
# independent exact helpers (the oracle's own arithmetic)
# ---------------------------------------------------------------------------


def _det(rows) -> Fraction:
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    d = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            d = -d
        d *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return d


def _independent(points) -> bool:
    """Affine independence of dim+1 points in ℝ^dim."""
    x0 = points[0]
    return _det([[a - b for a, b in zip(x, x0)] for x in points[1:]]) != 0


def _unimodular(rng: random.Random, n: int):
    """A small-entry integer matrix with determinant ±1."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(n + 1 if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    rng.shuffle(m)
    return [[-a for a in row] if rng.random() < 0.5 else row for row in m]


def _relabel(rng: random.Random, vertices):
    vs = sorted(vertices)
    new = list(range(len(vs)))
    rng.shuffle(new)
    offset = rng.randint(0, 40)
    return {v: offset + n for v, n in zip(vs, new)}


def _transformed(ec: EuclideanComplex, relabel, mat, shift, name) -> EuclideanComplex:
    """Image of a complex under a vertex relabelling and x ↦ M x + t."""
    coords = {}
    for v, x in ec.coords.items():
        coords[relabel[v]] = tuple(
            sum(a * b for a, b in zip(row, x)) + t for row, t in zip(mat, shift)
        )
    maximal = [tuple(sorted(relabel[v] for v in s)) for s in ec.maximal_simplices()]
    return EuclideanComplex.build(maximal, coords, name=name)


def _moment(t: int, dim: int = 5):
    return tuple(Fraction(t) ** k for k in range(1, dim + 1))


TORUS = sorted(
    {tuple(sorted((i % 7, (i + 1) % 7, (i + 3) % 7))) for i in range(7)}
    | {tuple(sorted((i % 7, (i + 2) % 7, (i + 3) % 7))) for i in range(7)}
)
RP2 = [
    (0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
    (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5),
]
# name, maximal simplices, χ, Betti numbers up to the last nonzero one,
# torsion of H_1
SURFACES = (("torus", TORUS, 0, (1, 2, 1), ()), ("rp2", RP2, 1, (1,), (2,)))


def _surface(rng: random.Random, name, maximal) -> EuclideanComplex:
    """A seeded relabelling of a 2-complex on distinct points of the moment
    curve in ℝ⁵; any six such points are affinely independent, so every
    pair of triangles meets in a common face."""
    nv = 1 + max(v for s in maximal for v in s)
    relabel = _relabel(rng, range(nv))
    params = rng.sample(range(-7, 8), nv)
    coords = {relabel[v]: _moment(params[v]) for v in range(nv)}
    tops = [tuple(sorted(relabel[v] for v in s)) for s in maximal]
    return EuclideanComplex.build(tops, coords, name=name)


def _homology_signature(h) -> tuple:
    betti = list(h.betti_vector())
    while len(betti) > 1 and betti[-1] == 0:
        betti.pop()
    return tuple(betti), tuple(h.torsion(k) for k in range(len(h.betti_vector())) if h.torsion(k))


def _delta_of(simplices, name) -> delta.DeltaSet:
    """Δ-set of an ordered simplicial complex given by all its simplices."""
    gens: dict[int, list] = {}
    faces = {}
    for s in sorted(simplices, key=lambda s: (len(s), s)):
        d = len(s) - 1
        gens.setdefault(d, []).append(s)
        for i in range(d + 1 if d else 0):
            faces[(d, s, i)] = s[:i] + s[i + 1 :]
    return delta.DeltaSet({d: tuple(g) for d, g in gens.items()}, faces, name)


def _closure(maximal):
    return {f for s in maximal for r in range(1, len(s) + 1) for f in itertools.combinations(s, r)}


def _chi(simplices) -> int:
    return sum((-1) ** (len(s) - 1) for s in simplices)


def _random_2complex(rng: random.Random, nv: int, nt: int):
    return sorted(rng.sample(list(itertools.combinations(range(nv), 3)), nt))


def _run_cli(argv) -> tuple[int, str]:
    """cli.main in-process with its output captured in memory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue() + err.getvalue()


# ---------------------------------------------------------------------------
# triangulate
# ---------------------------------------------------------------------------


def _triangulate(rnd: _Round):
    rng = rnd.rng
    for p in range(5 if rnd.full else 3):
        n = p + 1
        relabel = _relabel(rng, range(n + 2 ** n - 1))
        mat = _unimodular(rng, n)
        shift = [rng.randint(-3, 3) for _ in range(n)]
        rnd.spec.append(("R", p, sorted(relabel.items()), mat, shift))
        state: dict = {}

        def valid(p=p, relabel=relabel, mat=mat, shift=shift, state=state):
            r = prism.build_R(p)
            state["ec"] = ec = _transformed(r.complex, relabel, mat, shift, f"R{p}")
            return complexes.validate(ec).ok

        rnd.add(f"R{p}.valid", valid, True)
        rnd.add(f"R{p}.volume", lambda s=state: s["ec"].total_volume(), Fraction(1, factorial(p)))
        rnd.add(f"R{p}.chi", lambda s=state: s["ec"].euler_characteristic(), 1)
        rnd.add(
            f"R{p}.acyclic",
            lambda s=state: _homology_signature(homology.homology_of_complex(s["ec"])),
            ((1,), ()),
        )
    levels = (1, 2) if rnd.full else (1,)
    # a star's cost grows with the vertex degree, which follows the
    # dimension of the simplex the sd vertex stands for; every level checks
    # the same mix of vertex types, and the seed picks the vertices
    star_types = (0,) * 4 + (1,) * 8 + (2,) * 8 if rnd.full else (0, 1, 2)
    for name, maximal, chi, betti, torsion in SURFACES:
        ec = _surface(rng, name, maximal)
        rnd.spec.append(("surface", name, complexes.dumps(ec)))
        state = {"ec": ec}
        for k in levels:
            def subdivide_valid(state=state):
                state["ec"] = complexes.barycentric_subdivide(state["ec"])
                return complexes.validate(state["ec"]).ok

            rnd.add(f"{name}.sd{k}.valid", subdivide_valid, True)
            rnd.add(f"{name}.sd{k}.chi", lambda s=state: s["ec"].euler_characteristic(), chi)
            rnd.add(
                f"{name}.sd{k}.homology",
                lambda s=state: _homology_signature(homology.homology_of_complex(s["ec"])),
                (betti, (torsion,) if torsion else ()),
            )
            picks = [(t, rng.random()) for t in star_types]
            rnd.spec.append(("stars", name, k, picks))
            for i, (t, u) in enumerate(picks):
                def star_is_join(t=t, u=u, state=state):
                    ec = state["ec"]
                    labels = ec.base.labels
                    verts = sorted(v for v in ec.base.vertices if len(labels[v][1]) == t + 1)
                    v = verts[int(u * len(verts))]
                    st = complexes.star(v, ec)
                    lk = complexes.link(v, ec)
                    joined = complexes.join(ec.coords[v], lk, vertex_id=v)
                    return st.base.simplices == joined.base.simplices and all(
                        st.coords[w] == joined.coords[w] for w in st.base.vertices
                    )

                rnd.add(f"{name}.sd{k}.star{i}", star_is_join, True)


# ---------------------------------------------------------------------------
# pointset
# ---------------------------------------------------------------------------


def _random_point_in(rng: random.Random, ec: EuclideanComplex):
    s = rng.choice(ec.maximal_simplices())
    weights = [Fraction(rng.randint(1, 4)) for _ in s]
    tot = sum(weights)
    pts = ec.points(s)
    return tuple(sum(w * p[i] for w, p in zip(weights, pts)) / tot for i in range(ec.ambient_dim))


_FIBERS = (suite.point_fiber, suite.segment_fiber, suite.two_point_fiber)


def _pullback_instance(rnd: _Round, i: int, dp: int, dq: int, dr: int, fiber: int):
    """The criterion-7 generator: f: P -> Q, g: Q -> R with seeded vertex
    images, a constant family over R.  Identity and composition laws hold
    for every instance."""
    rng = rnd.rng
    P, Q, R = (families.standard_simplex_complex(d) for d in (dp, dq, dr))
    fimg = {v: _random_point_in(rng, Q) for v in P.base.vertices}
    gimg = {v: _random_point_in(rng, R) for v in Q.base.vertices}
    rnd.spec.append(("pullback", dp, dq, dr, sorted(fimg.items()), sorted(gimg.items()), fiber))
    f = AffineSimplicialMap(P, Q, fimg)
    g = AffineSimplicialMap(Q, R, gimg)
    w = families.constant_family(R, _FIBERS[fiber](), name=f"w{i}")
    state: dict = {}

    def identity_law():
        state["id"] = families.pullback(families.identity_map(R), w)
        return families.same_point_set(state["id"].total, w.total)

    def composition_law():
        state["lhs"] = families.pullback(families.compose_maps(g, f), w)
        state["rhs"] = families.pullback(f, families.pullback(g, w))
        return families.same_point_set(state["lhs"].total, state["rhs"].total)

    rnd.add(f"pb{i}.identity", identity_law, True)
    rnd.add(f"pb{i}.composition", composition_law, True)
    for key in ("id", "lhs", "rhs"):
        rnd.add(f"pb{i}.family.{key}", lambda key=key: families.check_family(state[key]).ok, True)


def _lift_fixture(rnd: _Round, w):
    """Criterion 6 on one fixture: the lift reassembles to W, the value over
    each top flag is W's restriction there, and any candidate agrees with
    W over a flag exactly when it agrees with the assigned value (which
    the value verdict shows equal to W's restriction)."""
    state: dict = {}
    # every fixture base is a standard simplex Δ^d, whose sd has (d+1)! tops
    ntops = factorial(w.base.dimension + 1)

    def reassembles():
        lift, sdb = families.subdivision_lift(w, r=1)
        state["lift"], state["sdb"] = lift, sdb
        re = families.reassemble(lift, sdb, w)
        return families.same_point_set(re, w.total)

    def top(i):
        return state["sdb"].maximal_simplices()[i]

    def chart(s):
        return [state["sdb"].coords[v] for v in s]

    def value(i):
        s = top(i)
        w_over = families.restrict_total(w, chart(s))
        assigned = families.transport_total(state["lift"][s], chart(s), w.base.ambient_dim)
        state[i] = (w_over, assigned)
        return families.same_point_set(assigned, w_over)

    def unique(i, j):
        w_over, assigned = state[i]
        cand = families.transport_total(state["lift"][top(j)], chart(top(i)), w.base.ambient_dim)
        return families.same_point_set(cand, w_over) == families.same_point_set(cand, assigned)

    rnd.add(f"lift.{w.name}.reassemble", reassembles, True)
    for i in range(ntops):
        rnd.add(f"lift.{w.name}.value{i}", lambda i=i: value(i), True)
    for i in range(ntops):
        for j in range(ntops):
            rnd.add(f"lift.{w.name}.unique{i}.{j}", lambda i=i, j=j: unique(i, j), True)


# I-over-D2 alone takes over 30 s, longer than a whole run
_LIFT_FIXTURES_FULL = ("pt-over-I", "I-over-I", "2pt-over-I", "roof", "slant", "vee",
                       "pt-over-D2", "plane", "tent")
_LIFT_FIXTURES_TINY = ("pt-over-I", "roof")


# (dim P, dim Q, dim R, fiber) of each round's pullback instances.  Cost
# depends mostly on dim P and the fiber (a segment fiber costs 10-30 times
# a point), so every round holds the same mix and only the maps are seeded.
_PULLBACKS_FULL = ((2, 1, 1, 1), (1, 1, 2, 1), (1, 2, 1, 1), (2, 2, 2, 0), (2, 1, 2, 2))
_PULLBACKS_TINY = ((1, 1, 1, 0),)


def _zigzag_fiber(rnd: _Round, n: int):
    """A path through x = 0, 1, ..., m at seeded heights 0 or 1, mapped to
    Δ^1 by its height.  The map is simplicial, so the fiber type is constant
    over the open simplex (the probe certificate passes), and the fiber has
    one point per edge whose ends differ in height."""
    rng = rnd.rng
    heights = [0] + [rng.randint(0, 1) for _ in range(10)] + [1]
    lam = Fraction(rng.randint(1, 9), 10)
    rnd.spec.append(("zigzag", heights, lam))
    path = EuclideanComplex.build(
        [(i, i + 1) for i in range(len(heights) - 1)],
        {i: (Fraction(i), Fraction(h)) for i, h in enumerate(heights)},
        name=f"zigzag{n}",
    )
    f = AffineSimplicialMap(path, families.standard_simplex_complex(1),
                            {i: (Fraction(h),) for i, h in enumerate(heights)})
    crossings = sum(a != b for a, b in zip(heights, heights[1:]))

    def fiber():
        cert = families.regular_fiber(f, (lam,))
        return cert.ok, cert.fiber.f_vector()

    rnd.add(f"fiber.zigzag{n}", fiber, (True, (crossings,)))


def _prism_fiber(rnd: _Round, p: int):
    """The projection of R(p) onto its [0, 1] factor: every fiber over the
    open interval is a copy of Δ^p, so it has dimension p and χ = 1."""
    lam = Fraction(rnd.rng.randint(1, 9), 10)
    rnd.spec.append(("prism-fiber", p, lam))

    def fiber():
        ec = prism.build_R(p).complex
        proj = AffineSimplicialMap(
            ec, families.standard_simplex_complex(1), {v: (ec.coords[v][-1],) for v in ec.base.vertices}
        )
        cert = families.regular_fiber(proj, (lam,))
        return cert.ok, cert.fiber.dimension, cert.fiber.euler_characteristic()

    rnd.add(f"fiber.R{p}", fiber, (True, p, 1))


def _horn_fill(rnd: _Round, p: int, fiber: int):
    """A constant family over the horn Λ^p_j (seeded j) extends over Δ^p, and
    the extension restricts back to the family."""
    j = rnd.rng.randint(0, p)
    rnd.spec.append(("horn", p, j, fiber))
    horn = families.horn_complex(p, j)
    w = families.constant_family(horn, _FIBERS[fiber]())

    def restricts_back():
        filled = families.horn_fill_family(w, p, j)
        res = families.restrict_family(filled, horn)
        return families.same_point_set(res.total, w.total)

    rnd.add(f"horn.{p}.{j}.{fiber}", restricts_back, True)


def _pointset(rnd: _Round):
    for i, dims in enumerate(_PULLBACKS_FULL if rnd.full else _PULLBACKS_TINY):
        _pullback_instance(rnd, i, *dims)
    for n in range(3 if rnd.full else 1):
        _zigzag_fiber(rnd, n)
    _prism_fiber(rnd, 2)
    for p, fiber in ((2, 1), (2, 2), (3, 0)) if rnd.full else ((1, 0),):
        _horn_fill(rnd, p, fiber)
    names = _LIFT_FIXTURES_FULL if rnd.full else _LIFT_FIXTURES_TINY
    fixtures = {w.name: w for w in suite.lift_fixtures()}
    order = list(names)
    rnd.rng.shuffle(order)
    rnd.spec.append(("lift", order))
    for name in order:
        _lift_fixture(rnd, fixtures[name])


# ---------------------------------------------------------------------------
# combinatorics
# ---------------------------------------------------------------------------


def _monotone(p: int, q: int):
    return list(itertools.combinations_with_replacement(range(q + 1), p + 1))


def _combinatorics(rnd: _Round):
    rng = rnd.rng
    full = rnd.full
    top = 3 if full else 2
    # cosimplicial laws of the prism maps
    for p in range(top + 1):
        ident = {v: v for v in range(p + 2 ** (p + 1))}
        rnd.add(
            f"Rmap.id{p}",
            lambda p=p, ident=ident: dict(prism.build_R_map(tuple(range(p + 1)), p, p).vertex_map) == ident,
            True,
        )
    # the same number of seeded composites for every (p, q, r), so the mix
    # of sizes does not depend on the seed
    dims = range(top + 1)
    sample = [
        (p, q, r, rng.choice(_monotone(p, q)), rng.choice(_monotone(q, r)))
        for p in dims for q in dims for r in dims for _ in range(5 if full else 1)
    ]
    rnd.spec.append(("composites", sample))
    for n, (p, q, r, e1, e2) in enumerate(sample):
        def composite(p=p, q=q, r=r, e1=e1, e2=e2):
            a = prism.compose_R_maps(prism.build_R_map(e2, q, r), prism.build_R_map(e1, p, q))
            b = prism.build_R_map(tuple(e2[v] for v in e1), p, r)
            return a.vertex_map == b.vertex_map

        rnd.add(f"Rmap.compose{n}", composite, True)
    morphisms = [(p, q, rng.choice(_monotone(p, q))) for p in dims for q in dims]
    rnd.spec.append(("morphisms", morphisms))
    for n, (p, q, e) in enumerate(morphisms):
        rnd.add(
            f"Rmap.morphism{n}",
            lambda p=p, q=q, e=e: prism.build_R_map(e, p, q).to_delta_morphism().check().ok,
            True,
        )

    # F(p): Δ^1 × Δ^p ≅ K(p), natural in monotone maps
    def iso(p):
        f = prism.build_F(p)
        if not f.check().ok:
            return False
        for d in set(f.source.generators) | set(f.target.generators):
            imgs = {f.mapping[g] for g in f.source.gens(d)}
            if any(w != () for (w, _) in imgs) or len(imgs) != len(f.source.gens(d)):
                return False
            if {g for (_, g) in imgs} != set(f.target.gens(d)):
                return False
        return True

    for p in range(top + 1):
        rnd.add(f"F{p}.iso", lambda p=p: iso(p), True)
    squares = [(p, q, rng.choice(_monotone(p, q))) for p in dims for q in dims]
    rnd.spec.append(("squares", squares))
    for n, (p, q, e) in enumerate(squares):
        def natural(p=p, q=q, e=e):
            km = prism.k_map_of(e, p, q)
            pm = prism.product_map_of(e, p, q)
            if not (km.check().ok and pm.check().ok):
                return False
            lhs = simplicial.compose_simplicial(pm, prism.build_F(q))
            rhs = simplicial.compose_simplicial(prism.build_F(p), km)
            return lhs.mapping == rhs.mapping

        rnd.add(f"F.natural{n}", natural, True)

    # sd of Δ-sets as a colimit: homology and χ are invariant
    complexes_in = [(name, maximal, chi, (betti, (torsion,) if torsion else ()))
                    for name, maximal, chi, betti, torsion in SURFACES]
    for n in range(2 if full else 1):
        complexes_in.append((f"rand{n}", _random_2complex(rng, 7, 8), None, None))
    depth = {"torus": 3} if full else {}
    for name, maximal, chi, hom in complexes_in:
        relabel = _relabel(rng, range(1 + max(v for s in maximal for v in s)))
        simplices = _closure([tuple(sorted(relabel[v] for v in s)) for s in maximal])
        rnd.spec.append(("sd", name, sorted(simplices)))
        x0 = _delta_of(simplices, name)
        state = {"x": x0}
        chi = _chi(simplices) if chi is None else chi
        for k in range(1, depth.get(name, 2 if full else 1) + 1):
            def sd(state=state):
                state["x"] = prism.sd_delta(state["x"]).delta_set
                return delta.check_identities(state["x"]).ok

            rnd.add(f"sd.{name}.{k}.identities", sd, True)
            rnd.add(f"sd.{name}.{k}.chi", lambda s=state: s["x"].euler_characteristic(), chi)
            if hom is not None:
                rnd.add(
                    f"sd.{name}.{k}.homology",
                    lambda s=state: _homology_signature(homology.homology_of_delta_set(s["x"])),
                    hom,
                )
            else:
                rnd.add(
                    f"sd.{name}.{k}.invariant",
                    lambda s=state, x0=x0: homology.homology_of_delta_set(s["x"])
                    == homology.homology_of_delta_set(x0),
                    True,
                )

    # the demo cobordism category: nerve to degree 4 and H_0 = Z
    if full:
        state = {}

        def demo_nerve():
            c = nerve.demo_cobordism_category()
            state["n"] = nerve.nerve(c, max_degree=4)
            return state["n"].f_vector()

        rnd.add("demo.nerve", demo_nerve, (2, 23, 169, 931, 4225))
        rnd.add("demo.identities", lambda: delta.check_identities(state["n"]).ok, True)
        rnd.add("demo.H0", lambda: homology.homology_of_delta_set(state["n"]).describe(0), "Z")

    # Kan filling: every horn in the nerve of a group fills
    for order in (2, 3, 4) if full else (2,):
        _cyclic_kan(rnd, order)
        rnd.add(
            f"kan.Z{order}.homology",
            lambda order=order: _group_homology(order),
            ((1, ()), (0, (order,)), (0, ()), (0, (order,))),
        )

    # Δ-set Kan filling in the nerve of a finite chain poset: the inner
    # horn of f: i->j, g: j->k always fills; the outer horn Λ^2_0 given
    # h: i->k and f: i->j fills exactly when j < k
    nobj = 5 if full else 3
    chain = _chain_category(nobj)
    state2 = {}
    probes = []
    for _ in range(12 if full else 3):
        i, j, k = sorted(rng.sample(range(nobj), 3))
        probes.append(("inner", i, j, k))
        a, b, c = rng.sample(range(nobj), 3)
        i2 = min(a, b, c)
        j2, k2 = [v for v in (a, b, c) if v != i2]
        probes.append(("outer", i2, j2, k2))
    rnd.spec.append(("poset-horns", nobj, probes))

    def poset_nerve():
        state2["n"] = nerve.nerve(chain, max_degree=3)
        return state2["n"].f_vector()[:2]

    rnd.add("poset.nerve", poset_nerve, (nobj, nobj * (nobj - 1) // 2))
    for n, (kind, i, j, k) in enumerate(probes):
        if kind == "inner":
            rnd.add(
                f"poset.inner{n}",
                lambda i=i, j=j, k=k: delta.kan_fill(state2["n"], 2, 1, {0: (_mor(j, k),), 2: (_mor(i, j),)}),
                (_mor(i, j), _mor(j, k)),
            )
        else:
            rnd.add(
                f"poset.outer{n}",
                lambda i=i, j=j, k=k: delta.kan_fill(state2["n"], 2, 0, {1: (_mor(i, k),), 2: (_mor(i, j),)}),
                (_mor(i, j), _mor(j, k)) if j < k else None,
            )


def _cyclic_kan(rnd: _Round, order: int):
    """Horns cut from seeded simplices of the nerve of Z/order."""
    mult = {(a, b): (a + b) % order for a in range(order) for b in range(order)}
    state = {}

    def monoid_nerve():
        state["x"] = simplicial.nerve_of_monoid(range(order), lambda a, b: mult[(a, b)], 0, cap=4)
        return state["x"].f_vector()[:4]

    rnd.add(f"kan.Z{order}.nerve", monoid_nerve, tuple((order - 1) ** k for k in range(4)))
    picks = 2 if rnd.full else 1
    horns = [(p, j, rnd.rng.random()) for p in range(1, 4) for j in range(p + 1) for _ in range(picks)]
    rnd.spec.append(("kan", order, horns))
    for n, (p, j, u) in enumerate(horns):
        def fills(p=p, j=j, u=u):
            x = state["x"]
            simps = x.all_simplices(p)
            s = simps[int(u * len(simps))]
            horn = {i: x.face(i, s) for i in range(p + 1) if i != j}
            filler = simplicial.kan_fill_simplicial(x, p, j, horn)
            return filler is not None and all(x.face(i, filler) == horn[i] for i in horn)

        rnd.add(f"kan.Z{order}.fill{n}", fills, True)


def _group_homology(order: int):
    """H_0..H_3 of Z/order from the normalized chains of its nerve, cut off
    at degree 4: Z, Z/order, 0, Z/order."""
    mult = {(a, b): (a + b) % order for a in range(order) for b in range(order)}
    x = simplicial.nerve_of_monoid(range(order), lambda a, b: mult[(a, b)], 0, cap=4)
    h = homology.homology_of_simplicial(x)
    return tuple((h.betti(k), h.torsion(k)) for k in range(4))


def _mor(i: int, j: int) -> str:
    return f"m{i}_{j}"


def _chain_category(n: int) -> nerve.FiniteNonUnitalCategory:
    """Objects 0..n-1, one morphism i -> j for each i < j."""
    mors = [(i, j) for i in range(n) for j in range(i + 1, n)]
    comp = {(_mor(i, j), _mor(j, k)): _mor(i, k) for (i, j) in mors for k in range(j + 1, n)}
    return nerve.FiniteNonUnitalCategory(
        tuple(f"o{i}" for i in range(n)),
        tuple(_mor(i, j) for i, j in mors),
        {_mor(i, j): f"o{i}" for i, j in mors},
        {_mor(i, j): f"o{j}" for i, j in mors},
        comp,
        name=f"chain{n}",
    )


# ---------------------------------------------------------------------------
# reject
# ---------------------------------------------------------------------------


def _cli_verdict(rnd: _Round, vid: str, argv_of: Callable[[], list], code: int, named=()):
    """Exit code of `plkernel validate`, and whether every expected witness
    fragment appears in its output."""

    def decide():
        got, out = _run_cli(argv_of())
        return got, all(fragment in out for fragment in named)

    rnd.add(vid, decide, (code, True))


def _prism_file(rnd: _Round, p: int, kind: str, n: int):
    """R(p) under a seeded relabelling and unimodular map, plus one seeded
    extra simplex on existing vertices: full-dimensional ("overlap") or
    inside the top facet ("dependent").  The prism is convex and already
    covered, so a new full-dimensional simplex must overlap; p+2 top
    barycenters lie in one hyperplane, so they are affinely dependent."""
    rng = rnd.rng
    dim = p + 1
    relabel = _relabel(rng, range(dim + 2 ** dim - 1))
    mat = _unimodular(rng, dim)
    shift = [rng.randint(-3, 3) for _ in range(dim)]
    draw_seed = rng.getrandbits(64)
    rnd.spec.append(("Rbad", p, kind, sorted(relabel.items()), mat, shift, draw_seed))
    path = os.path.join(rnd.workdir, f"R{p}-{kind}{n}.complex")
    state: dict = {}

    def argv():
        ec = _transformed(prism.build_R(p).complex, relabel, mat, shift, f"R{p}{kind}")
        tops = set(ec.maximal_simplices())
        if kind == "overlap":
            pool = sorted(ec.base.vertices)
        else:
            pool = sorted(relabel[v] for v in range(dim, dim + 2 ** dim - 1))
        draws = random.Random(draw_seed)
        while True:
            extra = tuple(sorted(draws.sample(pool, p + 2)))
            if extra in tops:
                continue
            indep = _independent([ec.coords[v] for v in extra])
            if indep == (kind == "overlap"):
                break
        state["extra"] = extra
        bad = EuclideanComplex(
            complexes.OrderedComplex.from_maximal(list(tops) + [extra], name=ec.name),
            ec.ambient_dim,
            ec.coords,
        )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(complexes.dumps(bad))
        return ["validate", path]

    def decide():
        got, out = _run_cli(argv())
        return got, str(state["extra"]) in out

    rnd.add(f"R{p}.{kind}{n}", decide, (2, True))


def _dset_text(simplices, name, corrupt=None) -> str:
    """A Δ-set file of an ordered complex; `corrupt` = (generator, i, new
    face) replaces one face."""
    tok = {s: "t" + ".".join(map(str, s)) for s in simplices}
    lines = [f"dset {name}"]
    for s in sorted(simplices, key=lambda s: (len(s), s)):
        lines.append(f"g {len(s) - 1} {tok[s]}")
    for s in sorted(simplices, key=lambda s: (len(s), s)):
        for i in range(len(s) if len(s) > 1 else 0):
            face = s[:i] + s[i + 1 :]
            if corrupt and corrupt[0] == s and corrupt[1] == i:
                face = corrupt[2]
            lines.append(f"d {len(s) - 1} {tok[s]} {i} {tok[face]}")
    return "\n".join(lines) + "\n"


def _category_text(name, objects, mors, comp) -> str:
    lines = [f"category {name}"]
    lines += [f"obj {o}" for o in objects]
    lines += [f"mor {m} {s} {t}" for m, s, t in mors]
    lines += [f"cmp {f} {g} {h}" for (f, g), h in sorted(comp.items())]
    return "\n".join(lines) + "\n"


def _bad_family(rnd: _Round, n: int):
    """A constant family whose total space gains a shrunken copy of one of
    its top simplices: the copy lies inside the original's interior and
    shares no vertex with it, so the total is not a valid complex."""
    rng = rnd.rng
    # bases Δ^1, Δ^2 and fibers segment, two points in a fixed rotation
    base = families.standard_simplex_complex(1 + n % 2)
    w = families.constant_family(base, _FIBERS[1 + (n // 2) % 2](), name=f"bad{n}")
    tops = w.total.maximal_simplices()
    sigma = tops[rng.randrange(len(tops))]
    pts = w.total.points(sigma)
    centre = tuple(sum(c) / len(pts) for c in zip(*pts))
    coords = dict(w.total.coords)
    fresh = []
    for x in pts:
        vid = 1 + max(coords)
        coords[vid] = tuple(c + (a - c) / 2 for a, c in zip(x, centre))
        fresh.append(vid)
    copy = tuple(fresh)
    total = EuclideanComplex.build(tops + [copy], coords, name=w.total.name)
    projection = dict(w.projection)
    projection[copy] = w.projection[sigma]
    bad = families.PolyhedralFamily(w.base, w.subdivision, total, w.fiber_dim, projection, w.name)
    good = rnd.write(f"family{n}-good.family", families.dumps(w))
    path = rnd.write(f"family{n}-bad.family", families.dumps(bad))
    _cli_verdict(rnd, f"family{n}.valid", lambda: ["validate", good], 0)
    _cli_verdict(rnd, f"family{n}.bad-total", lambda: ["validate", path], 2,
                 ("total space is not a valid complex",))


def _bad_dsets(rnd: _Round, n: int):
    """Corrupt one face of a top-degree generator g: no other generator has
    g as a face, so any failing identity names g, and some identity fails
    because the new face differs from the old one."""
    rng = rnd.rng
    maximal = _random_2complex(rng, 8, 16)
    simplices = _closure(maximal)
    g = maximal[rng.randrange(len(maximal))]
    i = rng.randrange(3)
    old = g[:i] + g[i + 1 :]
    edges = sorted(s for s in simplices if len(s) == 2 and s != old)
    new = edges[rng.randrange(len(edges))]
    good = rnd.write(f"dset{n}-good.dset", _dset_text(simplices, f"X{n}"))
    bad = rnd.write(f"dset{n}-bad.dset", _dset_text(simplices, f"Y{n}", (g, i, new)))
    tok = "t" + ".".join(map(str, g))
    _cli_verdict(rnd, f"dset{n}.valid", lambda: ["validate", good], 0)
    _cli_verdict(rnd, f"dset{n}.identity", lambda: ["validate", bad], 2, (f"'{tok}'",))


def _bad_categories(rnd: _Round, n: int):
    rng = rnd.rng
    # a chain poset whose composite (f, g) is set to f, with g ending at the
    # last object so that no triple (f, g, h) needs the broken composite:
    # the endpoint check names that pair
    nobj = 5
    chain = _chain_category(nobj)
    mors = [(m, chain.src[m], chain.tgt[m]) for m in chain.morphisms]
    good = rnd.write(f"cat{n}-chain.category", _category_text(f"chain{n}", chain.objects, mors, chain.comp))
    ends = sorted(fg for fg in chain.comp if chain.tgt[fg[1]] == f"o{nobj - 1}")
    (f, g) = ends[rng.randrange(len(ends))]
    comp = dict(chain.comp)
    comp[(f, g)] = f
    bad = rnd.write(f"cat{n}-endpoint.category", _category_text(f"badchain{n}", chain.objects, mors, comp))
    _cli_verdict(rnd, f"cat{n}.valid", lambda: ["validate", good], 0)
    _cli_verdict(rnd, f"cat{n}.endpoint", lambda: ["validate", bad], 2, (f"('endpoint', ('{f}', '{g}'",))
    # Z/order on one object with one entry x*y changed to z != x+y
    # (x, y != 0): for w in {1, 2} with (z, w) != (x, y), (x*y)*w = z+w
    # but x*(y*w) = x+y+w, so associativity fails
    order = 5
    table = {(a, b): (a + b) % order for a in range(order) for b in range(order)}
    gmors = [(f"z{a}", "pt", "pt") for a in range(order)]
    good_z = rnd.write(
        f"cat{n}-cyclic.category",
        _category_text(f"Z{order}", ("pt",), gmors, {(f"z{a}", f"z{b}"): f"z{c}" for (a, b), c in table.items()}),
    )
    x, y = rng.randint(1, order - 1), rng.randint(1, order - 1)
    z = rng.choice([c for c in range(order) if c != (x + y) % order])
    table[(x, y)] = z
    bad_z = rnd.write(
        f"cat{n}-assoc.category",
        _category_text(f"badZ{order}", ("pt",), gmors, {(f"z{a}", f"z{b}"): f"z{c}" for (a, b), c in table.items()}),
    )
    _cli_verdict(rnd, f"cat{n}.cyclic", lambda: ["validate", good_z], 0)
    _cli_verdict(rnd, f"cat{n}.assoc", lambda: ["validate", bad_z], 2, ("'associativity'",))


def _malformed(rnd: _Round, n: int):
    """Each file breaks one rule of its format: `plkernel validate` must
    answer 1 (bad input)."""
    rng = rnd.rng
    a, b = rng.randint(1, 9), rng.randint(1, 9)
    texts = {
        "decimal": f"complex K ambient=2\nv 0 0 0\nv 1 {a}.5 0\nv 2 0 {b}\ns 0 1 2\n",
        "repeated": f"complex K ambient=2\nv 0 0 0\nv 1 {a} 0\nv 2 0 {b}\ns 0 1 1\n",
        "unknown-vertex": f"complex K ambient=2\nv 0 0 0\nv 1 {a} 0\ns 0 1 {a + 5}\n",
        "bad-coords": f"complex K ambient=3\nv 0 0 0\nv 1 {a} 0 0\ns 0 1\n",
        "zero-denominator": f"complex K ambient=1\nv 0 0\nv 1 {a}/0\ns 0 1\n",
        "unknown-record": f"complex K ambient=1\nv 0 0\nv 1 {a}\nq 0 1\n",
        "no-header": f"v 0 0\nv 1 {b}\ns 0 1\n",
        "dset-face": "dset D\ng 0 a\ng 1 e\nd 1 e 0 a\nd 1 e 1 nowhere\n",
        "category-endpoint": f"category C\nobj A\nmor f A B{a}\n",
        "family-section": f"family F fiber=1\nbegin base\ncomplex B ambient=1\nv 0 0\nv 1 {a}\ns 0 1\nend\n",
    }
    for kind, text in texts.items():
        path = rnd.write(f"bad{n}-{kind}.txt", text)
        _cli_verdict(rnd, f"malformed{n}.{kind}", lambda path=path: ["validate", path], 1)


def _differing_pairs(rnd: _Round, n: int):
    """A fan triangulation of a convex polygon on a parabola against the
    same fan minus one triangle, scaled, or translated: the point sets
    differ by construction."""
    rng = rnd.rng
    ks = sorted(rng.sample(range(-6, 7), 6))
    coords = {i: (Fraction(k), Fraction(k * k)) for i, k in enumerate(ks)}
    fan = [(0, i, i + 1) for i in range(1, len(ks) - 1)]
    poly = EuclideanComplex.build(fan, coords, name="fan")
    drop = rng.randrange(len(fan))
    variants = {
        "dropped": EuclideanComplex.build(fan[:drop] + fan[drop + 1 :], coords, name="fan-1"),
        "scaled": EuclideanComplex.build(fan, {i: (2 * x, 2 * y) for i, (x, y) in coords.items()}, name="fan*2"),
        "shifted": EuclideanComplex.build(
            fan, {i: (x + Fraction(1, rng.randint(2, 5)), y) for i, (x, y) in coords.items()}, name="fan+t"
        ),
    }
    rnd.spec.append(("fan", ks, drop, complexes.dumps(variants["shifted"])))
    for kind, other in variants.items():
        rnd.add(f"differ{n}.{kind}", lambda other=other: families.same_point_set(poly, other), False)


# p -> (overlapping, dependent) instances of R(p) plus one simplex.  How
# long the pair scan runs before it meets the inserted simplex depends on
# the seed, so the larger prisms get several instances each.
_PRISMS_FULL = {2: (1, 1), 3: (3, 1), 4: (3, 1)}
_PRISMS_TINY = {2: (1, 1)}


def _reject(rnd: _Round):
    for p, (overlap, dependent) in (_PRISMS_FULL if rnd.full else _PRISMS_TINY).items():
        for n in range(overlap):
            _prism_file(rnd, p, "overlap", n)
        for n in range(dependent):
            _prism_file(rnd, p, "dependent", n)
    for n in range(10 if rnd.full else 1):
        _bad_family(rnd, n)
        _bad_dsets(rnd, n)
        _bad_categories(rnd, n)
        _malformed(rnd, n)
        _differing_pairs(rnd, n)


_BUILDERS = {
    "triangulate": _triangulate,
    "pointset": _pointset,
    "combinatorics": _combinatorics,
    "reject": _reject,
}
