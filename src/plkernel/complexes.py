"""Ordered simplicial complexes, abstract and Euclidean.

Vertices carry integer identifiers and the global vertex order is the
identifier order; simplices are stored as sorted vertex tuples, closed
under faces.  Euclidean complexes add exact rational coordinates and the
geometric validity predicates (affine independence, pairwise common-face
intersection), all evaluated without floating point.
"""

from __future__ import annotations

import functools
import itertools
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import Hashable, Mapping

from . import polytope
from .delta import DeltaSet, ValidityReport, deletion_table, header, numbers, records
from .linalg import Vec, as_vec


class ComplexStructureError(ValueError):
    """Malformed input (e.g. a simplex referencing an unknown vertex)."""


def _closure(simplices) -> tuple[frozenset[tuple[int, ...]], tuple[tuple[int, ...], ...]]:
    """The face closure of a set of simplices and its maximal simplices,
    sorted, in one pass.  The sorted vertex tuples are read longest first,
    so every tuple that contains another comes before it: a tuple is
    maximal exactly when the closure built so far does not hold it, and
    only then are its faces added.  Repeats and faces of longer tuples are
    skipped."""
    closed, maximal = set(), []
    for s in sorted(map(tuple, map(sorted, simplices)), key=len, reverse=True):
        if s not in closed:
            if not s:
                raise ComplexStructureError("empty simplex")
            maximal.append(s)
            for r in range(1, len(s) + 1):
                closed.update(itertools.combinations(s, r))
    return frozenset(closed), tuple(sorted(maximal))


@dataclass(frozen=True, init=False)
class OrderedComplex:
    """Abstract ordered simplicial complex with integer vertex ids.  Its one
    constructor, :meth:`from_maximal`, takes the vertices, the face closure
    and the maximal simplices from one `_closure` pass, so the simplices
    are sorted and closed under faces."""

    vertices: tuple[int, ...]
    simplices: frozenset[tuple[int, ...]]
    labels: Mapping[int, Hashable]
    name: str
    _maximal: tuple[tuple[int, ...], ...] = field(repr=False, compare=False)

    @classmethod
    def from_maximal(cls, maximal, labels=None, name="K") -> "OrderedComplex":
        simplices, tops = _closure(maximal)
        k = cls.__new__(cls)
        k.__dict__.update(
            vertices=tuple(sorted({v for s in tops for v in s})),
            simplices=simplices,
            labels=dict(labels or {}),
            name=name,
            _maximal=tops,
        )
        return k

    @property
    def dimension(self) -> int:
        return max((len(s) - 1 for s in self.simplices), default=-1)

    def simplices_of_dim(self, k: int) -> list[tuple[int, ...]]:
        return sorted(s for s in self.simplices if len(s) == k + 1)

    def maximal_simplices(self) -> list[tuple[int, ...]]:
        return list(self._maximal)

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(self.simplices_of_dim(k)) for k in range(self.dimension + 1))

    def euler_characteristic(self) -> int:
        return sum((-1) ** (len(s) - 1) for s in self.simplices)


@dataclass(frozen=True)
class EuclideanComplex:
    """Ordered complex with exact rational vertex coordinates."""

    base: OrderedComplex
    ambient_dim: int
    coords: Mapping[int, Vec]
    # simplex -> its integer functionals, filled by `functionals`
    _functionals: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # vertex -> its integer coordinates, as `polytope.homogeneous` would
    # compute them, handed over by a builder that holds them (`build`)
    _integer_coords: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @staticmethod
    def build(maximal, coords, labels=None, name="K", integer_coords=()) -> "EuclideanComplex":
        base = OrderedComplex.from_maximal(maximal, labels, name)
        dims = {len(c) for c in coords.values()}
        ambient = dims.pop() if len(dims) == 1 else None
        if ambient is None:
            raise ComplexStructureError("inconsistent coordinate lengths")
        k = EuclideanComplex(base, ambient, coords)
        k._integer_coords.update(integer_coords)
        return k

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

    @functools.cached_property
    def integer_coords(self) -> dict[int, tuple[int, ...]]:
        """Homogeneous integer coordinates (D x, D) of every vertex, over
        the lcm D of all coordinate denominators (`polytope.homogeneous`),
        computed once unless the builder handed them over."""
        vertices = self.base.vertices
        return self._integer_coords or dict(
            zip(vertices, polytope.homogeneous([self.coords[v] for v in vertices]))
        )

    @functools.cached_property
    def cells(self) -> dict[tuple[int, ...], frozenset]:
        """Each maximal simplex -> the set of its points; computed once."""
        return {s: frozenset(self.points(s)) for s in self.maximal_simplices()}

    def functionals(self, simplex):
        """The `polytope._integer_functionals` of a simplex of the complex,
        or None when it is affinely dependent; computed once per simplex."""
        table = self._functionals
        if simplex not in table:
            coords = self.integer_coords
            table[simplex] = polytope._integer_functionals([coords[v] for v in simplex])
        return table[simplex]

    def integer_simplex(self, simplex) -> polytope.IntegerSimplex:
        """A simplex of the complex in the integer form of
        `polytope.intersect_simplices`."""
        coords = self.integer_coords
        return polytope.IntegerSimplex(
            [coords[v] for v in simplex], self.functionals(simplex) is not None
        )

    def total_volume(self) -> Fraction:
        """Sum of top-dimensional simplex volumes, for a complex that is
        full-dimensional in its ambient space: the integer determinants of
        the top simplices (`polytope.simplex_volume`), over d! D^d."""
        d = self.dimension
        total = 0
        for s in self.base.simplices_of_dim(d):
            if d != self.ambient_dim:
                raise ValueError("total volume of a complex that is not full-dimensional")
            hom = [self.integer_coords[v] for v in s]
            total += polytope.simplex_volume(hom)
        # hom[0][-1] is the complex's denominator D; an empty complex has none
        return Fraction(total, factorial(d) * hom[0][-1] ** d) if total else Fraction(0)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def validate(k: EuclideanComplex) -> ValidityReport:
    """Geometric validity: affine independence and pairwise common-face
    intersections; face closure holds by construction
    (`OrderedComplex.from_maximal`).

    Affine independence and intersections are checked on maximal simplices
    only; both properties are inherited by faces.  Every test runs on the
    complex's homogeneous integer coordinates and reads each maximal
    simplex's integer facet functionals, both held by the complex.  Pairwise
    intersections are decided in three tiers, each exact and each in
    plain Python:

    1. a local certificate, for pure complexes of full dimension: matched
       interior ridges, boundary ridges on the hull, and one point covered
       once prove the complex a triangulation of its hull.  When it
       fails, it names the simplices behind the failed condition; if it
       holds for the rest once one of them is removed, every bad pair
       holds that simplex, and only its pairs go on to tier 2;
    2. otherwise, one bitmask filter over every axis pairs each maximal
       simplex with exactly the later ones whose integer bounding boxes
       meet its own (closed intervals, so touching boxes meet); the
       pairs it leaves out are disjoint.  A pair it keeps is certified
       when a facet functional or hull equation of one simplex walls the
       other off (`_walled`).  The uncertified pairs come out in
       `itertools.combinations` order, so the first rejection and its
       witness are those of an all-pairs scan;
    3. every pair still uncertified is decided by one simplex's weight
       simplex clipped by the other's facet functionals
       (`polytope._clip_simplex`), which decides every rejection.
    """
    issues = []
    maximal = k.maximal_simplices()
    icoords = k.integer_coords
    functionals = {s: k.functionals(s) for s in maximal}
    for s in maximal:
        if functionals[s] is None:
            issues.append(f"simplex {s} is not affinely independent")
    if not issues:
        for a, b in _uncertified_pairs(maximal, icoords, functionals):
            if not _common_face(a, b, icoords, functionals[b]):
                issues.append(
                    f"intersection not a common face: simplices {a} and {b}"
                )
                break
    return ValidityReport(not issues, tuple(issues))


def _common_face(a, b, icoords, b_functionals) -> bool:
    """Whether hull(a) ∩ hull(b) is the common face hull(a ∩ b).

    The intersection is the weight simplex of a clipped by b's facet
    functionals and hull equations, evaluated at a's homogeneous integer
    coordinates; it is the common face exactly when its vertices are the
    unit vectors of the shared vertices.
    """
    rows, m = b_functionals[0], len(b)
    clipped = polytope._clip_simplex([icoords[v] for v in a], rows[:m], rows[m::2])
    units = [tuple(int(u == v) for u in a) for v in a if v in b]
    return sorted(clipped) == sorted(units)


def _certificate_failure(maximal, icoords, functionals):
    """None when the top simplices provably triangulate the convex hull of
    their vertices, so that every pair meets in a common face; otherwise
    the simplices behind the first condition that fails: the three owners
    of a ridge with three (with four or more, one removal cannot help:
    none), both owners of a misoriented interior ridge, the owner of a
    boundary ridge off the hull, or none when only the covering fails.

    Applies to pure complexes of full dimension d, whose facet functionals
    are given; fails naming none otherwise.
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
        return ()

    value = polytope._value
    ridges: dict = {}
    for s in maximal:
        for i in range(len(s)):
            ridges.setdefault(s[:i] + s[i + 1 :], []).append((s, i))
    points = [icoords[v] for v in {v for s in maximal for v in s}]
    hull_rows = set()
    for owners in ridges.values():
        if len(owners) > 2:
            return tuple(s for s, _ in owners) if len(owners) == 3 else ()
        s, i = owners[0]
        row = functionals[s][0][i]
        if len(owners) == 2:
            t, j = owners[1]
            if value(row, icoords[t[j]]) >= 0:
                return s, t
        elif (key := tuple(row)) not in hull_rows:
            if any(value(row, x) < 0 for x in points):
                return (s,)
            hull_rows.add(key)
    # integer barycenter of the first simplex, times d + 1
    center = [sum(c) for c in zip(*(icoords[v] for v in maximal[0]))]
    covering = sum(
        all(value(row, center) >= 0 for row in functionals[s][0]) for s in maximal
    )
    return None if covering == 1 else ()


def _uncertified_pairs(maximal, icoords, functionals):
    """Yield, in the order of itertools.combinations, every pair of maximal
    simplices not certified to meet in a common face: none when the local
    certificate holds, else each pair whose integer bounding boxes meet
    and that no wall of either simplex separates.  A caller that stops at
    its first rejection stops the scan at that pair.

    When the certificate fails, each simplex s it names is tried in turn:
    if the certificate holds for the other simplices, every bad pair
    holds s, and only the pairs (m, s) for m before s, then (s, m) for m
    after s, are kept for the filter; they are the pairs holding s, in
    combinations order, so the first rejection is still the all-pairs
    scan's.

    Bit j of masks[i] is set when j > i and the closed integer intervals
    of simplices i and j meet on every axis.  On each axis, the boxes
    whose lower end is at most i's upper end are a prefix in lower-end
    order, and those whose upper end is at least i's lower end a suffix
    in upper-end order; masks[i] keeps the bits in both.  Reading the
    bits in increasing j keeps combinations order.  In ℝ⁰ there is no
    axis, and every pair is listed."""
    suspects = ()
    if len({len(s) for s in maximal}) == 1:
        suspects = _certificate_failure(maximal, icoords, functionals)
        if suspects is None:
            return
    n = len(maximal)
    masks = [(1 << n) - (2 << i) for i in range(n)]
    for s in suspects:
        if _certificate_failure([m for m in maximal if m != s], icoords, functionals) is None:
            k = maximal.index(s)
            masks = [1 << k if i < k else 0 for i in range(n)]
            masks[k] = (1 << n) - (2 << k)
            break
    boxes = [polytope.bounding_box([icoords[v][:-1] for v in s]) for s in maximal]
    for lows, highs in zip(zip(*(lo for lo, _ in boxes)), zip(*(hi for _, hi in boxes))):
        if not any(masks):  # no pair left to filter
            break
        by_low = sorted(range(n), key=lows.__getitem__)
        by_high = sorted(range(n), key=highs.__getitem__)
        pre, suf = [0], [0]
        for j, k in zip(by_low, reversed(by_high)):
            pre.append(pre[-1] | 1 << j)
            suf.append(suf[-1] | 1 << k)
        suf.reverse()
        sorted_lows, sorted_highs = sorted(lows), sorted(highs)
        for i in range(n):
            below = pre[bisect_right(sorted_lows, highs[i])]
            masks[i] &= below & suf[bisect_left(sorted_highs, lows[i])]
    for i, p in enumerate(maximal):
        mask = masks[i]
        while mask:
            j = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            q = maximal[j]
            if not (_walled(p, q, icoords, functionals[p]) or _walled(q, p, icoords, functionals[q])):
                yield p, q


def _walled(p, q, icoords, p_functionals) -> bool:
    """Whether a wall of p proves that p and q meet in their common face.

    A wall is a facet functional of p whose off vertex is not in q, or an
    equation of p's affine hull; either way it is 0 at the vertices p
    shares with q and >= 0 on p.  If it is < 0 at every vertex of q not
    in p, then q meets the wall in hull(p ∩ q), and p ∩ q lies in it.
    Sound but incomplete: the pairs it leaves go to `_common_face`.
    """
    outside = [icoords[v] for v in q if v not in p]
    for row, off in zip(*p_functionals):
        if off < 0 or p[off] not in q:
            for x in outside:
                if sum(map(operator.mul, row, x)) >= 0:
                    break
            else:
                return True
    return False


# ---------------------------------------------------------------------------
# barycentric subdivision
# ---------------------------------------------------------------------------


def _sd_vertex_order(simplices) -> dict[tuple[int, ...], int]:
    """New vertex ids for sd: sorted by (dimension, lex vertex list), which
    extends the face partial order bF <= bG for F ⊆ G to a total order."""
    ordered = sorted(simplices, key=lambda s: (len(s), s))
    return {s: i for i, s in enumerate(ordered)}


def barycentric_subdivide(k):
    """Barycentric subdivision of an OrderedComplex or EuclideanComplex.

    New vertices are the simplices of K (Euclidean: at barycenters); the
    q-simplices are the flags of length q+1.  The maximal flags are the
    vertex orderings of the maximal simplices, each read as its chain of
    prefixes, and every flag is a face of one of them.  New labels record
    the original vertex tuple of each barycenter.
    """
    base = k.base if isinstance(k, EuclideanComplex) else k
    vid = _sd_vertex_order(base.simplices)
    maximal = []
    for s in base.maximal_simplices():
        for order in itertools.permutations(s):
            # vid increases along a chain, so the ids come out sorted
            maximal.append(tuple(vid[tuple(sorted(order[:i]))] for i in range(1, len(s) + 1)))
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
    apex = polytope.homogeneous([a0])[0]
    for beta in sorted(l.simplices):
        if not polytope._independent([l.integer_coords[v] for v in beta] + [apex]):
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
    for s in sorted(base.simplices, key=lambda s: (len(s), s)):
        gens.setdefault(len(s) - 1, []).append(s)
    gens = {d: tuple(v) for d, v in gens.items()}
    return DeltaSet.from_table(gens, deletion_table(gens), base.name)


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
    return read(records(text))


def read(lines) -> EuclideanComplex:
    """The complex of a complex file's records, as `records` yields them;
    a family file hands over each section's records with their file line
    numbers."""
    ln, fields, rest = header(lines, "complex", ComplexStructureError)
    key, _, value = fields[-1].partition("=")
    if len(fields) < 3 or key != "ambient" or not value.isdecimal():
        raise ComplexStructureError(f"line {ln}: bad header")
    name, ambient = " ".join(fields[1:-1]), int(value)
    coords, vertex_lines = {}, {}
    maximal = []
    for ln, parts in rest:
        if parts[0] == "v":
            if len(parts) < 2:
                raise ComplexStructureError(f"line {ln}: vertex without id")
            (vid,) = numbers(ln, parts[1:2], ComplexStructureError)
            if vid in coords:
                raise ComplexStructureError(f"line {ln}: repeated vertex id {vid}")
            vals = numbers(ln, parts[2:], ComplexStructureError, parse_rational)
            if len(vals) != ambient:
                raise ComplexStructureError(f"line {ln}: expected {ambient} coordinates")
            coords[vid] = vals
            vertex_lines[vid] = ln
        elif parts[0] == "s":
            simplex = numbers(ln, parts[1:], ComplexStructureError)
            if not simplex:
                raise ComplexStructureError(f"line {ln}: simplex without vertices")
            if len(set(simplex)) != len(simplex):
                raise ComplexStructureError(f"line {ln}: repeated vertex in simplex")
            for v in simplex:
                if v not in coords:
                    raise ComplexStructureError(f"line {ln}: unknown vertex {v}")
            maximal.append(tuple(sorted(simplex)))
        else:
            raise ComplexStructureError(f"line {ln}: unknown record {parts[0]!r}")
    # dumps writes the vertices of simplices only, so a stray one would not
    # survive loads(dumps(k))
    used = {v for s in maximal for v in s}
    for vid, ln in vertex_lines.items():
        if vid not in used:
            raise ComplexStructureError(f"line {ln}: vertex {vid} is in no simplex")
    # every coordinate line has the header's length, so a header-only file
    # is the empty complex in that space
    return EuclideanComplex(OrderedComplex.from_maximal(maximal, name=name), ambient, coords)


def load(path) -> EuclideanComplex:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def dump(k: EuclideanComplex, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(k))
