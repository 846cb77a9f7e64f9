"""Ordered simplicial complexes, abstract and Euclidean.

Vertices carry integer identifiers and the global vertex order is the
identifier order; simplices are stored as sorted vertex tuples, closed
under faces.  Euclidean complexes add exact rational coordinates and the
geometric validity predicates (affine independence, pairwise common-face
intersection), all evaluated without floating point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Hashable, Mapping

from . import linalg, polytope
from .delta import DeltaSet
from .linalg import Vec, as_vec


class ComplexStructureError(ValueError):
    """Malformed input (e.g. a simplex referencing an unknown vertex)."""


def close_under_faces(simplices) -> frozenset[tuple[int, ...]]:
    out = set()
    for s in simplices:
        s = tuple(sorted(s))
        if not s:
            raise ComplexStructureError("empty simplex")
        for r in range(1, len(s) + 1):
            out.update(itertools.combinations(s, r))
    return frozenset(out)


@dataclass(frozen=True)
class OrderedComplex:
    """Abstract ordered simplicial complex with integer vertex ids."""

    vertices: tuple[int, ...]
    simplices: frozenset[tuple[int, ...]]
    labels: Mapping[int, Hashable] = field(default_factory=dict)
    name: str = "K"

    @staticmethod
    def from_maximal(maximal, labels=None, name="K") -> "OrderedComplex":
        simplices = close_under_faces(maximal)
        vertices = tuple(sorted({v for s in simplices for v in s}))
        return OrderedComplex(vertices, simplices, dict(labels or {}), name)

    def __post_init__(self):
        vset = set(self.vertices)
        for s in self.simplices:
            if tuple(sorted(s)) != s:
                raise ComplexStructureError(f"simplex {s} not sorted by vertex order")
            for v in s:
                if v not in vset:
                    raise ComplexStructureError(f"simplex {s} references unknown vertex {v}")
        for v in self.vertices:
            if (v,) not in self.simplices:
                raise ComplexStructureError(f"vertex {v} has no singleton simplex")

    @property
    def dimension(self) -> int:
        return max((len(s) - 1 for s in self.simplices), default=-1)

    def simplices_of_dim(self, k: int) -> list[tuple[int, ...]]:
        return sorted(s for s in self.simplices if len(s) == k + 1)

    def maximal_simplices(self) -> list[tuple[int, ...]]:
        # by face-closure, s is non-maximal iff it is a facet of some simplex
        facets = set()
        for t in self.simplices:
            if len(t) >= 2:
                for i in range(len(t)):
                    facets.add(t[:i] + t[i + 1 :])
        return sorted(s for s in self.simplices if s not in facets)

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(self.simplices_of_dim(k)) for k in range(self.dimension + 1))

    def euler_characteristic(self) -> int:
        return sum((-1) ** (len(s) - 1) for s in self.simplices)

    def is_face_closed(self) -> bool:
        return all(
            f in self.simplices
            for s in self.simplices
            for r in range(1, len(s))
            for f in itertools.combinations(s, r)
        )


@dataclass(frozen=True)
class EuclideanComplex:
    """Ordered complex with exact rational vertex coordinates."""

    base: OrderedComplex
    ambient_dim: int
    coords: Mapping[int, Vec]

    @staticmethod
    def build(maximal, coords, labels=None, name="K") -> "EuclideanComplex":
        base = OrderedComplex.from_maximal(maximal, labels, name)
        coords = {v: as_vec(c) for v, c in coords.items()}
        dims = {len(c) for c in coords.values()}
        ambient = dims.pop() if len(dims) == 1 else None
        if ambient is None:
            raise ComplexStructureError("inconsistent coordinate lengths")
        return EuclideanComplex(base, ambient, coords)

    def __post_init__(self):
        object.__setattr__(
            self, "coords", {v: as_vec(c) for v, c in self.coords.items()}
        )
        for v in self.base.vertices:
            if v not in self.coords:
                raise ComplexStructureError(f"vertex {v} has no coordinates")
            if len(self.coords[v]) != self.ambient_dim:
                raise ComplexStructureError(f"vertex {v} has wrong coordinate length")

    @property
    def name(self):
        return self.base.name

    @property
    def dimension(self):
        return self.base.dimension

    @property
    def simplices(self):
        return self.base.simplices

    def points(self, simplex) -> list[Vec]:
        return [self.coords[v] for v in simplex]

    def f_vector(self):
        return self.base.f_vector()

    def euler_characteristic(self):
        return self.base.euler_characteristic()

    def maximal_simplices(self):
        return self.base.maximal_simplices()

    def total_volume(self, chart_basis=None) -> Fraction:
        """Sum of top-dimensional simplex volumes, measured in a chart.

        Without an explicit chart basis the complex must be full-dimensional
        in its ambient space.
        """
        d = self.dimension
        total = Fraction(0)
        for s in self.base.simplices_of_dim(d):
            pts = self.points(s)
            if chart_basis is not None:
                coords = polytope.chart_coordinates(pts, chart_basis)
            else:
                if d != self.ambient_dim:
                    raise ValueError("need a chart basis for a non-full-dimensional complex")
                coords = pts
            total += polytope.simplex_volume_in_chart(coords)
        return total


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValidityReport:
    ok: bool
    issues: tuple[str, ...] = ()

    def __bool__(self):
        return self.ok


def validate(k: EuclideanComplex) -> ValidityReport:
    """Geometric validity: face closure, affine independence, and pairwise
    common-face intersections.

    Affine independence and intersections are checked on maximal simplices
    only; both properties are inherited by faces.  Every test runs on the
    vertex coordinates scaled to integers.  Pairwise intersections are
    decided in up to three tiers, each exact:

    1. a local certificate, for large pure complexes of full dimension:
       matched interior ridges, boundary ridges on the hull, and one point
       covered once prove the complex a triangulation of its hull;
    2. a vectorized separating-wall certificate, for the pairs of large
       pure complexes that tier 1 did not settle;
    3. exact facet reduction (with vertex enumeration as its last resort)
       for every pair still uncertified, which decides every rejection.
    """
    issues = []
    if not k.base.is_face_closed():
        issues.append("simplex set is not closed under faces")
    maximal = k.maximal_simplices()
    # homogeneous integer coordinates: all coordinates times their lcm
    ipts, _ = polytope._integer_points([k.coords[v] for v in k.base.vertices])
    icoords = {v: x + (1,) for v, x in zip(k.base.vertices, ipts)}
    for s in maximal:
        x0 = icoords[s[0]]
        diffs = [[a - b for a, b in zip(icoords[v], x0)] for v in s[1:]]
        if diffs and len(linalg.eliminate(diffs)[0]) < len(diffs):
            issues.append(f"simplex {s} is not affinely independent")
    if not issues:
        fmemo: dict = {}
        pairs = _uncertified_pairs(maximal, icoords, fmemo)
        for a, b in pairs:
            if not _common_face_cached(k, a, b, icoords, fmemo):
                issues.append(
                    f"intersection not a common face: simplices {a} and {b}"
                )
                break
    return ValidityReport(not issues, tuple(issues))


def _common_face_cached(k: EuclideanComplex, a, b, icoords, fmemo) -> bool:
    """Exact common-face test by facet reduction over the integers.

    icoords maps each vertex to its homogeneous integer coordinates;
    functionals are memoized per face across pairs in fmemo.
    """

    def functionals(cur):
        if cur not in fmemo:
            fmemo[cur] = polytope._integer_functionals([icoords[v][:-1] for v in cur])
        return fmemo[cur]

    shared = set(a) & set(b)
    p, q = tuple(a), tuple(b)
    while True:
        if set(p) == set(q):
            return set(p) == shared
        progress = False
        for cur, other in ((p, q), (q, p)):
            rows, offs = functionals(cur)
            for row, off in zip(rows, offs):
                if off >= 0 and cur[off] in shared:
                    continue  # its value at the shared vertex is positive
                vals = []
                positive = False
                for v in other:
                    hv = icoords[v]
                    val = sum(row[j] * hv[j] for j in range(len(hv)))
                    if val > 0:
                        positive = True
                        break
                    vals.append(val)
                if positive:
                    continue
                wall = tuple(v for v, val in zip(other, vals) if val == 0)
                if not wall:
                    return not shared  # strictly separated
                if off < 0:
                    if len(wall) == len(other):
                        continue  # no progress from an affine-hull equation
                    new_cur = cur
                else:
                    new_cur = cur[:off] + cur[off + 1 :]
                    if not new_cur:
                        return not shared  # a point off its own wall
                if set(wall) == shared and shared <= set(new_cur):
                    return True
                if cur is p:
                    p, q = new_cur, wall
                else:
                    q, p = new_cur, wall
                progress = True
                break
            if progress:
                break
        if progress:
            continue
        # deep intersection: fall back to exact vertex enumeration
        verts = polytope.intersect_simplices(
            [k.coords[v] for v in p], [k.coords[v] for v in q]
        )
        return verts == sorted({linalg.as_vec(k.coords[v]) for v in shared})


# -- vectorized certificate for the pairwise intersection test --------------
#
# A pair (P, Q) with shared vertex set S intersects in the common face
# hull(S) whenever some affine functional f has f >= 0 on P, f <= 0 on Q,
# the vertices of Q with f = 0 are exactly S, and the f = 0 wall contains
# S inside P.  Then P∩Q lies in the wall, where it equals a face of P
# intersected with hull(S) = hull(S).  Candidate functionals: the
# barycentric facet functionals and affine-hull equations of each simplex.
# The certificate is sound but incomplete; uncertified pairs are retested
# exactly.

_FAST_PAIR_THRESHOLD = 200  # minimum number of pairs to bother certifying


def _locally_certified(maximal, icoords, fmemo) -> bool:
    """True when the top simplices provably triangulate the convex hull of
    the vertices, so that every pair meets in a common face.

    Applies to pure complexes of full dimension d, whose facet functionals
    are in fmemo; returns False otherwise, and whenever a condition fails.
    The local characterization of triangulations (De Loera, Rambau &
    Santos, *Triangulations*, 2010): every ridge lies in at
    most two top simplices, and in two only with the second one's
    opposite vertex strictly beyond the first one's facet; a ridge of one
    simplex lies on a facet of the hull; and some point is covered exactly
    once.  The first two keep the number of simplices covering a point
    constant across the hull's interior, off the codimension-2 skeleton;
    the barycenter of the first simplex is interior to it, so if any other
    closed simplex misses it, that number is 1.
    """
    if not maximal or len(maximal[0]) != len(icoords[maximal[0][0]]):
        return False

    value = polytope._value
    ridges: dict = {}
    for s in maximal:
        for i in range(len(s)):
            ridges.setdefault(s[:i] + s[i + 1 :], []).append((s, i))
    points = list(icoords.values())
    hull_rows = set()
    for owners in ridges.values():
        if len(owners) > 2:
            return False
        s, i = owners[0]
        row = fmemo[s][0][i]
        if len(owners) == 2:
            t, j = owners[1]
            if value(row, icoords[t[j]]) >= 0:
                return False
        elif (key := tuple(row)) not in hull_rows:
            if any(value(row, x) < 0 for x in points):
                return False
            hull_rows.add(key)
    # integer barycenter of the first simplex, times d + 1
    center = [sum(c) for c in zip(*(icoords[v] for v in maximal[0]))]
    covering = sum(
        all(value(row, center) >= 0 for row in fmemo[s][0]) for s in maximal
    )
    return covering == 1


def _uncertified_pairs(maximal, icoords, fmemo):
    """All pairs of maximal simplices, minus those certified to meet in a
    common face: none when the local certificate holds, else those the
    vectorized separating-wall test leaves.

    Functionals are stored in fmemo for reuse by _common_face_cached.
    """
    nm = len(maximal)
    if nm * (nm - 1) // 2 < _FAST_PAIR_THRESHOLD or len({len(s) for s in maximal}) != 1:
        return list(itertools.combinations(maximal, 2))
    for s in maximal:
        fmemo[s] = polytope._integer_functionals([icoords[v][:-1] for v in s])
    if _locally_certified(maximal, icoords, fmemo):
        return []
    import numpy as np

    verts = sorted(icoords)
    vindex = {v: i for i, v in enumerate(verts)}
    icoords = [icoords[v] for v in verts]

    func_rows, func_off = [], []
    for s in maximal:
        rows, offs = fmemo[s]
        for row, off in zip(rows, offs):
            func_rows.append(row)
            func_off.append(vindex[s[off]] if off >= 0 else -1)

    peak = max(max(abs(x) for x in row) for row in func_rows) * max(
        max(abs(x) for x in p) for p in icoords
    ) * (len(icoords[0]) + 1)
    dtype = np.int64 if peak < 2**62 else object
    coords_arr = np.array(icoords, dtype=dtype)
    fmat = np.array(func_rows, dtype=dtype)
    evals = fmat @ coords_arr.T  # functional value at every vertex

    width = len(maximal[0])
    vmat = np.array([[vindex[v] for v in s] for s in maximal], dtype=np.intp)
    member = np.zeros((nm, len(verts)), dtype=bool)
    for si in range(nm):
        member[si, vmat[si]] = True
    nfunc = len(func_rows) // nm
    frange = np.arange(len(func_rows)).reshape(nm, nfunc)
    foff = np.array(func_off, dtype=np.intp).reshape(nm, nfunc)

    unresolved = []
    for pi in range(nm - 1):
        qs = np.arange(pi + 1, nm)
        vq = vmat[qs]  # (nq, width)
        shared_q = member[pi][vq]  # vertex of Q lies in P
        any_shared = shared_q.any(axis=1)
        # P's functionals evaluated on Q's vertices
        vals = evals[frange[pi]][:, vq.ravel()].reshape(nfunc, len(qs), width)
        nonpos = (vals <= 0).all(axis=2)
        eq_match = ((vals == 0) == shared_q[None, :, :]).all(axis=2)
        off_ok = np.ones((nfunc, len(qs)), dtype=bool)
        for fi in range(nfunc):
            if foff[pi, fi] >= 0:
                off_ok[fi] = ~member[qs, foff[pi, fi]]
        cert_p = (nonpos & eq_match & off_ok).any(axis=0)
        disjoint = ((vals < 0).all(axis=2)).any(axis=0) & ~any_shared
        ok = cert_p | disjoint
        # Q's functionals evaluated on P's vertices, for the rest
        todo = np.flatnonzero(~ok)
        if todo.size:
            vp = vmat[pi]
            valsq = evals[frange[qs[todo]].ravel()][:, vp].reshape(len(todo), nfunc, width)
            shared_p = member[qs[todo]][:, vp]  # vertex of P lies in Q
            nonpos2 = (valsq <= 0).all(axis=2)
            eq2 = ((valsq == 0) == shared_p[:, None, :]).all(axis=2)
            offq = foff[qs[todo]]
            off_ok2 = np.where(offq >= 0, ~member[pi][np.maximum(offq, 0)], True)
            cert_q = (nonpos2 & eq2 & off_ok2).any(axis=1)
            disjoint2 = (valsq < 0).all(axis=2).any(axis=1) & ~any_shared[todo]
            ok[todo] = cert_q | disjoint2
        for qi in np.flatnonzero(~ok):
            unresolved.append((maximal[pi], maximal[pi + 1 + qi]))
    return unresolved


# ---------------------------------------------------------------------------
# barycentric subdivision
# ---------------------------------------------------------------------------


def _sd_vertex_order(simplices) -> dict[tuple[int, ...], int]:
    """New vertex ids for sd: sorted by (dimension, lex vertex list), which
    extends the face partial order bF <= bG for F ⊆ G to a total order."""
    ordered = sorted(simplices, key=lambda s: (len(s), s))
    return {s: i for i, s in enumerate(ordered)}


def flags_of(k: OrderedComplex) -> list[tuple[tuple[int, ...], ...]]:
    """All flags (strictly increasing chains of simplices) of K."""
    simplices = sorted(k.simplices, key=lambda s: (len(s), s))
    flags = [(s,) for s in simplices]
    out = list(flags)
    frontier = flags
    while frontier:
        nxt = []
        for c in frontier:
            top = set(c[-1])
            for s in simplices:
                if len(s) > len(c[-1]) and top < set(s):
                    nxt.append(c + (s,))
        out.extend(nxt)
        frontier = nxt
    return out


def barycentric_subdivide(k):
    """Barycentric subdivision of an OrderedComplex or EuclideanComplex.

    New vertices are the simplices of K (Euclidean: at barycenters); the
    q-simplices are the flags of length q+1.  New labels record the
    original vertex tuple of each barycenter.
    """
    base = k.base if isinstance(k, EuclideanComplex) else k
    vid = _sd_vertex_order(base.simplices)
    maximal = []
    for flag in flags_of(base):
        maximal.append(tuple(sorted(vid[s] for s in flag)))
    labels = {i: ("b", s) for s, i in vid.items()}
    sd_base = OrderedComplex.from_maximal(maximal, labels, f"sd {base.name}")
    if not isinstance(k, EuclideanComplex):
        return sd_base
    coords = {}
    for s, i in vid.items():
        pts = [k.coords[v] for v in s]
        coords[i] = tuple(sum(p[j] for p in pts) / len(pts) for j in range(k.ambient_dim))
    return EuclideanComplex(sd_base, k.ambient_dim, coords)


# ---------------------------------------------------------------------------
# star, link, join
# ---------------------------------------------------------------------------


def star(v: int, k):
    """Subcomplex of all simplices containing v, plus their faces."""
    base = k.base if isinstance(k, EuclideanComplex) else k
    core = [s for s in base.simplices if v in s]
    if not core:
        raise ComplexStructureError(f"vertex {v} not in complex")
    sub = OrderedComplex.from_maximal(core, dict(base.labels), f"st({v},{base.name})")
    if isinstance(k, EuclideanComplex):
        return EuclideanComplex(sub, k.ambient_dim, {u: k.coords[u] for u in sub.vertices})
    return sub


def link(v: int, k):
    """Faces of star simplices that do not contain v."""
    base = k.base if isinstance(k, EuclideanComplex) else k
    faces = {tuple(u for u in s if u != v) for s in base.simplices if v in s}
    faces.discard(())
    if not faces:
        raise ComplexStructureError(f"vertex {v} has an empty link")
    sub = OrderedComplex.from_maximal(faces, dict(base.labels), f"lk({v},{base.name})")
    if isinstance(k, EuclideanComplex):
        return EuclideanComplex(sub, k.ambient_dim, {u: k.coords[u] for u in sub.vertices})
    return sub


class GeneralPositionError(ValueError):
    def __init__(self, simplex):
        self.simplex = simplex
        super().__init__(f"simplex {simplex} is not in general position w.r.t. the point")


def join(a0, l: EuclideanComplex, vertex_id: int | None = None) -> EuclideanComplex:
    """Join of a point with a complex: L ∪ {a0} ∪ {a0 * β for β in L}.

    Requires general position: Vert(β) ∪ {a0} affinely independent for
    every simplex β.  The new vertex id defaults to max(vertices)+1.
    """
    a0 = as_vec(a0)
    for beta in sorted(l.simplices):
        if not linalg.affinely_independent(l.points(beta) + [a0]):
            raise GeneralPositionError(beta)
    if vertex_id is None:
        vertex_id = max(l.base.vertices, default=-1) + 1
    if vertex_id in l.base.vertices:
        raise ComplexStructureError(f"vertex id {vertex_id} already used")
    maximal = list(l.simplices) + [(vertex_id,)] + [
        tuple(sorted(beta + (vertex_id,))) for beta in l.simplices
    ]
    labels = dict(l.base.labels)
    base = OrderedComplex.from_maximal(maximal, labels, f"{vertex_id}*{l.name}")
    coords = dict(l.coords)
    coords[vertex_id] = a0
    return EuclideanComplex(base, l.ambient_dim, coords)


# ---------------------------------------------------------------------------
# the induced Δ-set
# ---------------------------------------------------------------------------


def delta_set_of(k) -> DeltaSet:
    """Δ-set of an ordered complex: degree-k generators are the simplices of
    cardinality k+1, d_i deletes the i-th vertex in the global order."""
    base = k.base if isinstance(k, EuclideanComplex) else k
    gens: dict[int, list] = {}
    faces = {}
    for s in sorted(base.simplices, key=lambda s: (len(s), s)):
        d = len(s) - 1
        gens.setdefault(d, []).append(s)
        if d >= 1:
            for i in range(d + 1):
                faces[(d, s, i)] = s[:i] + s[i + 1 :]
    return DeltaSet({d: tuple(v) for d, v in gens.items()}, faces, base.name)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


def format_rational(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse `p` or `p/q` with integer parts; decimal literals are rejected."""
    text = text.strip()
    num, _, den = text.partition("/")
    try:
        if den:
            return Fraction(int(num), int(den))
        return Fraction(int(num))
    except (ValueError, ZeroDivisionError) as exc:
        raise ComplexStructureError(f"bad rational literal {text!r}") from exc


def dumps(k: EuclideanComplex) -> str:
    lines = [f"complex {k.name} ambient={k.ambient_dim}"]
    for v in sorted(k.base.vertices):
        coords = " ".join(format_rational(c) for c in k.coords[v])
        lines.append(f"v {v} {coords}".rstrip())
    for s in sorted(k.maximal_simplices()):
        lines.append("s " + " ".join(str(v) for v in s))
    return "\n".join(lines) + "\n"


def loads(text: str) -> EuclideanComplex:
    name, ambient = "K", None
    coords = {}
    maximal = []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "complex":
            if len(parts) < 3 or not parts[-1].startswith("ambient="):
                raise ComplexStructureError(f"line {ln}: bad header")
            name = " ".join(parts[1:-1])
            ambient = int(parts[-1].split("=", 1)[1])
        elif parts[0] == "v":
            if ambient is None:
                raise ComplexStructureError(f"line {ln}: vertex before header")
            if len(parts) < 2:
                raise ComplexStructureError(f"line {ln}: vertex without id")
            vid = int(parts[1])
            vals = [parse_rational(t) for t in parts[2:]]
            if len(vals) != ambient:
                raise ComplexStructureError(f"line {ln}: expected {ambient} coordinates")
            coords[vid] = tuple(vals)
        elif parts[0] == "s":
            simplex = tuple(int(t) for t in parts[1:])
            if len(set(simplex)) != len(simplex):
                raise ComplexStructureError(f"line {ln}: repeated vertex in simplex")
            for v in simplex:
                if v not in coords:
                    raise ComplexStructureError(f"line {ln}: unknown vertex {v}")
            maximal.append(tuple(sorted(simplex)))
        else:
            raise ComplexStructureError(f"line {ln}: unknown record {parts[0]!r}")
    if ambient is None:
        raise ComplexStructureError("missing complex header")
    return EuclideanComplex.build(maximal, coords, name=name)


def load(path) -> EuclideanComplex:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def dump(k: EuclideanComplex, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(k))
