"""Polyhedral families over a base complex and their base-change calculus.

A family is a Euclidean complex W living in (base ambient) × ℝ^N together
with a stored subdivision of the base such that every simplex of W
projects affinely into a single cell of that subdivision.  Pullbacks
along affine simplicial maps, point slices, regular-value fibers, and
horn filling by a stored PL retraction are all computed exactly on
rational data.  Each of them, like point-set comparison, reads one
polytope per pair of simplices: the weights on both whose affine images
agree, from `polytope.intersect_simplices`.  These polytopes are
triangulated by placing in lexicographic order, so every result is
deterministic.

From the clip to the built complex, points stay in the clip's integer
form, which the accumulator hands each complex as its `integer_coords`.
Fractions appear once per built vertex (its coordinates), in `apply`'s
values and the horn retraction's `lp.in_hull`.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from . import complexes, homology, linalg, lp, polytope
from .complexes import ComplexStructureError, EuclideanComplex
from .delta import ValidityReport, header, numbers, records
from .linalg import Vec, as_vec
from .prism import delta_vertex


class FamilyError(ValueError):
    pass


def standard_simplex_complex(p: int, name=None) -> EuclideanComplex:
    """Δ^p in the chart hull{0, e_1..e_p} ⊂ ℝ^p, as a one-simplex complex."""
    coords = {i: delta_vertex(p, i) for i in range(p + 1)}
    return EuclideanComplex.build([tuple(range(p + 1))], coords, name=name or f"Delta^{p}")


def horn_complex(p: int, j: int) -> EuclideanComplex:
    """Λ^p_j: all facets of Δ^p except the one opposite vertex j."""
    if not 0 <= j <= p or p < 1:
        raise FamilyError("bad horn indices")
    full = tuple(range(p + 1))
    maximal = [full[:i] + full[i + 1 :] for i in range(p + 1) if i != j]
    coords = {i: delta_vertex(p, i) for i in range(p + 1)}
    return EuclideanComplex.build(maximal, coords, name=f"Horn({p},{j})")


# ---------------------------------------------------------------------------
# affine simplicial maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineSimplicialMap:
    """A map |P| -> |Q| that is affine on every simplex of P, with each
    simplex landing inside a single simplex of Q."""

    source: EuclideanComplex
    target: EuclideanComplex
    vertex_images: Mapping[int, Vec]
    # simplex -> its image in integer form, filled by `image_simplex`
    _images: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "vertex_images", {v: as_vec(x) for v, x in self.vertex_images.items()}
        )
        for v in self.source.base.vertices:
            if v not in self.vertex_images:
                raise FamilyError(f"vertex {v} has no image")
        for s in self.source.maximal_simplices():
            if self.carrier(s) is None:
                raise FamilyError(f"simplex {s} does not map into a single target simplex")

    @functools.cached_property
    def integer_images(self) -> dict[int, tuple[int, ...]]:
        """Homogeneous integer coordinates of every vertex image, over one
        denominator (`polytope.homogeneous`), computed once."""
        vertices = list(self.vertex_images)
        return dict(zip(vertices, polytope.homogeneous([self.vertex_images[v] for v in vertices])))

    def image_simplex(self, simplex) -> polytope.IntegerSimplex:
        """The images of a simplex's vertices in the integer form of
        `polytope.intersect_simplices`; computed once per simplex."""
        if simplex not in self._images:
            hom = [self.integer_images[v] for v in simplex]
            self._images[simplex] = polytope.IntegerSimplex(hom, polytope._independent(hom))
        return self._images[simplex]

    def carrier(self, simplex) -> tuple[int, ...] | None:
        """Lexicographically first maximal target simplex containing the image."""
        return _carrier(self.target, [self.integer_images[v] for v in simplex])

    def apply(self, simplex, point) -> Vec:
        """Value at a point of |simplex| (affine extension)."""
        return self._at(simplex, polytope.homogeneous([as_vec(point)])[0])

    def _at(self, simplex, x) -> Vec:
        """`apply` at a point x of |simplex| in homogeneous integer form."""
        bc = _weights(self.source, simplex, x)
        if bc is None or any(c < 0 for c in bc):
            raise FamilyError("point outside the simplex")
        imgs = [self.vertex_images[v] for v in simplex]
        n = len(imgs[0])
        return tuple(sum(bc[i] * imgs[i][j] for i in range(len(imgs))) for j in range(n))


def _carrier(k: EuclideanComplex, hom) -> tuple[int, ...] | None:
    """The first maximal simplex of k whose hull holds every point, given
    in homogeneous integer form; reads k's functionals, so a dependent
    simplex met before it is bad input."""
    for t in k.maximal_simplices():
        functionals = k.functionals(t)
        if functionals is None:
            raise FamilyError("simplex is not affinely independent")
        if polytope.contains(functionals, hom):
            return t
    return None


def _weights(k: EuclideanComplex, simplex, x):
    """`polytope.weights` of a homogeneous point x of k's space on a simplex of k."""
    if len(x) != k.ambient_dim + 1:
        raise FamilyError(f"point of dimension {len(x) - 1} in ambient dimension {k.ambient_dim}")
    return polytope.weights(k.functionals(simplex), [k.integer_coords[v] for v in simplex], x)


def _base_part(x, base_dim):
    """The projection of a homogeneous point onto its first base_dim
    coordinates, as a homogeneous point."""
    return x[:base_dim] + x[-1:]


def identity_map(k: EuclideanComplex) -> AffineSimplicialMap:
    return AffineSimplicialMap(k, k, {v: k.coords[v] for v in k.base.vertices})


def compose_maps(second: AffineSimplicialMap, first: AffineSimplicialMap) -> AffineSimplicialMap:
    """second ∘ first; requires first's vertex images to be expressible, which
    holds because second is affine on a carrier simplex of each point."""
    images = {}
    for v in first.source.base.vertices:
        x = first.integer_images[v]
        t = _carrier(second.source, [x])
        if t is None:
            raise FamilyError(f"image of vertex {v} misses the middle complex")
        images[v] = second._at(t, x)
    return AffineSimplicialMap(first.source, second.target, images)


# ---------------------------------------------------------------------------
# polyhedral families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolyhedralFamily:
    base: EuclideanComplex
    subdivision: EuclideanComplex  # triangulation of |base| refining it
    total: EuclideanComplex  # lives in base-ambient × ℝ^N
    fiber_dim: int
    # maximal total simplex -> maximal subdivision simplex containing its projection
    projection: Mapping[tuple, tuple]
    name: str = "W"

    @property
    def base_dim(self) -> int:
        return self.base.ambient_dim

    def is_empty(self) -> bool:
        return not self.total.base.vertices

    @functools.cached_property
    def integer_parts(self) -> dict:
        """Each maximal total simplex -> its base and fiber parts, each a
        `polytope.IntegerSimplex` read off the total's integer coordinates
        and computed once."""
        coords, b = self.total.integer_coords, self.base_dim
        parts = {}
        for sigma in self.total.maximal_simplices():
            base = [_base_part(coords[v], b) for v in sigma]
            fiber = [coords[v][b:] for v in sigma]
            parts[sigma] = tuple(
                polytope.IntegerSimplex(hom, polytope._independent(hom)) for hom in (base, fiber)
            )
        return parts


def empty_family(base: EuclideanComplex, fiber_dim: int, name="empty") -> PolyhedralFamily:
    total = EuclideanComplex(
        complexes.OrderedComplex.from_maximal((), name=name), base.ambient_dim + fiber_dim, {}
    )
    return PolyhedralFamily(base, base, total, fiber_dim, {}, name)


def is_subdivision_of(sub: EuclideanComplex, k: EuclideanComplex) -> bool:
    """Every maximal simplex of `sub` lies in a maximal simplex of k, and
    the pieces inside each maximal simplex of k, of its dimension, fill it
    exactly: the |det|s of their vertices' barycentric weights on it sum
    to 1."""
    kmax = k.maximal_simplices()
    coverage = dict.fromkeys(kmax, 0)
    for s in sub.maximal_simplices():
        hom = [sub.integer_coords[v] for v in s]
        home = _carrier(k, hom)
        if home is None:
            return False
        if len(s) == len(home):
            coverage[home] += abs(linalg.det([_weights(k, home, x) for x in hom]))
    return all(coverage[t] == 1 for t in kmax)


def check_family(w: PolyhedralFamily) -> ValidityReport:
    issues = []
    if w.fiber_dim < 0:
        issues.append("fiber dimension is negative")
    splits = w.total.ambient_dim == w.base.ambient_dim + w.fiber_dim
    if not splits:
        issues.append("total ambient dimension does not split as base × fiber")
    if not complexes.validate(w.total).ok:
        issues.append("total space is not a valid complex")
    # polytope.contains raises on a dependent simplex: ask it only of
    # complexes that validated
    sub_ok = complexes.validate(w.subdivision).ok
    if not sub_ok:
        issues.append("stored base subdivision is not a valid complex")
    base_ok = complexes.validate(w.base).ok
    if not base_ok:
        issues.append("base is not a valid complex")
    # and it compares points of one dimension only: projected total points
    # are base points only when the total splits over a fiber of
    # dimension >= 0
    same_space = w.subdivision.ambient_dim == w.base.ambient_dim
    projects = sub_ok and same_space and splits and w.fiber_dim >= 0
    if not same_space:
        issues.append("stored base subdivision does not live in the base's ambient space")
    if sub_ok and base_ok and same_space and not is_subdivision_of(w.subdivision, w.base):
        issues.append("stored subdivision does not subdivide the base")
    for s in w.total.maximal_simplices():
        cell = w.projection.get(s)
        if cell is None:
            issues.append(f"total simplex {s} has no assigned base cell")
            continue
        if cell not in w.subdivision.simplices:
            issues.append(f"assigned cell {cell} is not in the subdivision")
            continue
        projected = [_base_part(w.total.integer_coords[v], w.base_dim) for v in s]
        if projects and not polytope.contains(w.subdivision.functionals(cell), projected):
            issues.append(f"projection of simplex {s} leaves its cell {cell}")
    return ValidityReport(not issues, tuple(issues))


def product_complex(a: EuclideanComplex, b: EuclideanComplex, name=None) -> tuple[EuclideanComplex, dict]:
    """|A| × |B| triangulated by monotone staircases in each cell product.

    Returns the complex and the vertex-id map (u, v) -> id.
    """
    pairs = sorted(
        (u, v) for u in a.base.vertices for v in b.base.vertices
    )
    vid = {uv: i for i, uv in enumerate(pairs)}
    coords = {
        vid[(u, v)]: tuple(a.coords[u]) + tuple(b.coords[v]) for (u, v) in pairs
    }
    maximal = []
    for s in a.maximal_simplices():
        for t in b.maximal_simplices():
            la, lb = len(s) - 1, len(t) - 1
            # staircase paths from (0,0) to (la,lb)
            for updown in itertools.combinations(range(la + lb), la):
                path = [(0, 0)]
                for step in range(la + lb):
                    i, j = path[-1]
                    path.append((i + 1, j) if step in updown else (i, j + 1))
                maximal.append(tuple(sorted(vid[(s[i], t[j])] for i, j in path)))
    ec = EuclideanComplex.build(
        maximal, coords, name=name or f"{a.name}x{b.name}"
    )
    return ec, vid


def constant_family(base: EuclideanComplex, fiber: EuclideanComplex, name=None) -> PolyhedralFamily:
    """The product family |base| × |fiber|."""
    total, vid = product_complex(base, fiber, name=name or f"{base.name}x{fiber.name}")
    back = {i: uv for uv, i in vid.items()}
    projection = {}
    for s in total.maximal_simplices():
        cell = tuple(sorted({back[v][0] for v in s}))
        # the cell of the base subdivision (= base itself) containing it
        home = next(
            t for t in base.maximal_simplices() if set(cell) <= set(t)
        )
        projection[s] = home
    return PolyhedralFamily(base, base, total, fiber.ambient_dim, projection, name or "product")


# ---------------------------------------------------------------------------
# exact fiber-product machinery
# ---------------------------------------------------------------------------


class _ComplexAccumulator:
    """Collects simplices given by their points in homogeneous integer form
    and numbers the vertices in lexicographic order at the end."""

    def __init__(self, ambient: int):
        self.ambient = ambient
        self.simplices: list[tuple[tuple[int, ...], ...]] = []

    def add_polytope(self, verts):
        """Triangulate a polytope, given by its sorted, distinct vertices in
        homogeneous integer form over one denominator, as
        `polytope.intersect_simplices` and `hull_vertices` return them, and
        keep its top simplices, each point keyed by its primitive form."""
        keys = [polytope.primitive(x) for x in verts]
        for tri in polytope.placing_triangulation(verts):
            self.simplices.append(tuple(keys[i] for i in tri))

    def build(self, name="K") -> EuclideanComplex:
        first: dict = {}  # each point's id in the order seen, renumbered below
        seen = [[first.setdefault(p, len(first)) for p in s] for s in self.simplices]
        if not first:
            empty = complexes.OrderedComplex.from_maximal((), name=name)
            return EuclideanComplex(empty, self.ambient, {})
        hom = polytope._over_lcm(list(first))  # the complex's integer_coords
        order = sorted(range(len(hom)), key=hom.__getitem__)
        vid = {j: i for i, j in enumerate(order)}
        maximal = sorted({tuple(sorted(vid[j] for j in s)) for s in seen})
        held = [hom[j] for j in order]
        coords = dict(enumerate(polytope.dehomogenize(held)))
        return EuclideanComplex.build(maximal, coords, name=name, integer_coords=dict(enumerate(held)))


def pullback(f: AffineSimplicialMap, w: PolyhedralFamily, name=None) -> PolyhedralFamily:
    """Base change f*W = {(x, y) : (f(x), y) ∈ W} along f: |P| -> |Q|.

    The new base subdivision refines P so every piece maps into a single
    cell of W's stored subdivision; each piece polytope is triangulated by
    placing in lexicographic order.
    """
    if f.target.base.simplices != w.base.base.simplices:
        raise FamilyError("map target does not match the family base")
    p = f.source
    sub_acc = _ComplexAccumulator(p.ambient_dim)
    tot_acc = _ComplexAccumulator(p.ambient_dim + w.fiber_dim)
    cells = [w.subdivision.integer_simplex(cell) for cell in w.subdivision.maximal_simplices()]
    sigmas = w.integer_parts.values()
    for s in p.maximal_simplices():
        src = p.integer_simplex(s)
        img = f.image_simplex(s)
        # the piece of s over each cell, read in source coordinates
        for cell in cells:
            verts = polytope.intersect_simplices(img, cell, src)
            if len(verts) > p.dimension:
                sub_acc.add_polytope(verts)
        # (x, y) with x in s and (f(x), y) in sigma
        for base, fiber in sigmas:
            tot_acc.add_polytope(polytope.intersect_simplices(img, base, src, fiber))
    sub = sub_acc.build(name=f"{p.name} refined")
    total = tot_acc.build(name=name or f"pullback({w.name})")
    if not total.base.vertices:
        return empty_family(p, w.fiber_dim, name or f"pullback({w.name})")
    projection = {}
    for s in total.maximal_simplices():
        home = _carrier(sub, [_base_part(total.integer_coords[v], p.ambient_dim) for v in s])
        if home is None:
            raise FamilyError(f"no subdivision cell contains the projection of {s}")
        projection[s] = home
    return PolyhedralFamily(
        p, sub, total, w.fiber_dim, projection, name or f"pullback({w.name})"
    )


def slice_family(w: PolyhedralFamily, q0) -> EuclideanComplex:
    """The fiber W_{q0} ⊂ ℝ^N over a point of the base."""
    q0 = as_vec(q0)
    if len(q0) != w.base_dim:
        raise FamilyError("point dimension does not match the base ambient")
    point = polytope.integer_simplex([q0])
    if _carrier(w.base, point.points) is None:
        raise FamilyError("point lies outside the base")
    name = f"{w.name}|{'/'.join(map(str, q0))}"
    return _fiber(point, w.integer_parts.values(), w.fiber_dim, name)


def _fiber(point, parts, ambient: int, name: str) -> EuclideanComplex:
    """The points over a base point: each part is a (base, fiber) pair of
    integer simplices, and its piece is the polytope of weights on base
    whose image is point, carried into fiber (`polytope.intersect_simplices`)."""
    acc = _ComplexAccumulator(ambient)
    no_output = polytope.integer_simplex([()])
    for base, fiber in parts:
        acc.add_polytope(polytope.intersect_simplices(point, base, no_output, fiber))
    return acc.build(name=name)


# ---------------------------------------------------------------------------
# point-set equality of complexes
# ---------------------------------------------------------------------------


def _chart_polytope_volume(verts, dim) -> Fraction:
    """dim! times the dim-volume of a polytope in a dim-dimensional chart,
    given by its sorted, distinct vertices in homogeneous integer form over
    one denominator, as `polytope.intersect_simplices` returns them."""
    tops = [t for t in polytope.placing_triangulation(verts) if len(t) == dim + 1]
    total = sum(polytope.simplex_volume([verts[i] for i in t]) for t in tops)
    return Fraction(total, verts[0][-1] ** dim)


def _box(k: EuclideanComplex, simplex, scale: int) -> tuple:
    """The `polytope.bounding_box` of a simplex's integer coordinates D x,
    times scale: with each complex's boxes scaled by the other's
    denominator, the boxes of both compare over one denominator."""
    lo, hi = polytope.bounding_box([k.integer_coords[v][:-1] for v in simplex])
    return [c * scale for c in lo], [c * scale for c in hi]


def same_point_set(a: EuclideanComplex, b: EuclideanComplex) -> bool:
    """Exact equality of underlying polyhedra, by mutual volume coverage.

    Each maximal simplex s of either side, of dimension k, must be covered
    by the other side: k! times the k-volumes of s ∩ τ in the chart Δ^k of
    s, summed over the simplices τ of the other side whose relative
    interior meets s in a k-dimensional set, must make up 1.  Those τ are
    the ones with dim(s ∩ τ) = k whose facets' hyperplanes do not contain
    s; relative interiors of a complex's simplices are disjoint, so no
    part of s is counted twice.  For k = dim, τ runs over the top
    simplices of the other side.
    """
    if not a.base.vertices or not b.base.vertices:
        return not a.base.vertices and not b.base.vertices
    if a.ambient_dim != b.ambient_dim or a.dimension != b.dimension:
        return False
    a_cells, b_cells = set(a.cells.values()), set(b.cells.values())
    if a_cells == b_cells:
        return True
    d = a.dimension
    da, db = (next(iter(x.integer_coords.values()))[-1] for x in (a, b))
    sides = ((a, b, b_cells, db, da), (b, a, a_cells, da, db))
    for src, other, other_cells, scale, other_scale in sides:
        # per k: the vertices of Δ^k, and each simplex t of other of
        # dimension >= k with its box; intersections are read in the chart
        # of s, whose vertices go to those of Δ^k
        per_dim = {}
        for s in sorted(src.maximal_simplices()):
            if src.cells[s] in other_cells:
                continue
            k = len(s) - 1
            if k not in per_dim:
                pool = other.maximal_simplices() if k == d else sorted(other.base.simplices)
                per_dim[k] = (
                    polytope.integer_simplex([delta_vertex(k, i) for i in range(k + 1)]),
                    [(t, _box(other, t, other_scale)) for t in pool if len(t) > k],
                )
            chart, around = per_dim[k]
            box = _box(src, s, scale)
            piece = src.integer_simplex(s)
            covered = 0
            for t, tbox in around:
                if not polytope.boxes_meet(box, tbox):
                    continue
                if len(t) > k + 1 and polytope.on_a_facet_wall(other.functionals(t), piece.points):
                    continue
                inter = polytope.intersect_simplices(piece, other.integer_simplex(t), chart)
                if len(inter) >= k + 1:
                    covered += _chart_polytope_volume(inter, k)
                if covered == 1:
                    break
            if covered != 1:
                return False
    return True


# ---------------------------------------------------------------------------
# regular-value fibers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiberCertificate:
    ok: bool
    fiber: EuclideanComplex


def regular_fiber(f: AffineSimplicialMap, lam) -> FiberCertificate:
    """Fiber over an interior point λ of the target simplex, and whether it
    is a valid complex.

    The target must be a single standard simplex and f simplicial
    (vertices to vertices).  The piece of a source simplex σ over an
    interior point y is then an affine image of ∏ yᵢ·Δ(σ ∩ f⁻¹(i)), whose
    face lattice does not depend on y (M. M. Cohen, 1967), so the fiber's
    type is one over the open simplex.  `ok` validates the fiber, which
    fails if two pieces triangulate their shared face differently."""
    tgt = f.target
    tmax = tgt.maximal_simplices()
    if len(tmax) != 1:
        raise FamilyError("target must be a single simplex")
    top = tmax[0]
    vert_set = set(tgt.points(top))
    for v in f.source.base.vertices:
        if f.vertex_images[v] not in vert_set:
            raise FamilyError("map is not simplicial: a vertex misses the target vertices")
    lam = as_vec(lam)
    bc = _weights(tgt, top, polytope.homogeneous([lam])[0])
    if bc is None or any(c <= 0 for c in bc):
        raise FamilyError("base point is not interior to the target simplex")
    src = f.source
    parts = [(f.image_simplex(s), src.integer_simplex(s)) for s in src.maximal_simplices()]
    fiber = _fiber(polytope.integer_simplex([lam]), parts, src.ambient_dim, "fiber")
    return FiberCertificate(complexes.validate(fiber).ok, fiber)


# ---------------------------------------------------------------------------
# horn filling by a stored PL retraction
# ---------------------------------------------------------------------------


@functools.cache
def horn_retraction(p: int, j: int) -> AffineSimplicialMap:
    """A stored PL retraction Δ^p -> Λ^p_j, built once per (p, j).

    Built from the viewpoint q obtained by reflecting the barycenter
    through the missing facet's barycenter (so q sees only that facet):
    Δ^p is cut into the cones over the horn facets, the cone over facet i
    being Δ^p ∩ hull({q} ∪ facet i), each cone is triangulated, and every
    vertex maps to the exit point of the ray from q through it.  The
    construction verifies r|horn = id and image ⊆ horn.
    """
    if p > 3:
        raise FamilyError("horn retractions are stored for p <= 3 only")
    verts = [delta_vertex(p, i) for i in range(p + 1)]
    bary = tuple(sum(v[t] for v in verts) / (p + 1) for t in range(p))
    missing = [i for i in range(p + 1) if i != j]
    bmiss = tuple(sum(verts[i][t] for i in missing) / p for t in range(p))
    q = tuple(2 * bmiss[t] - bary[t] for t in range(p))
    horn = horn_complex(p, j)
    acc = _ComplexAccumulator(p)
    cone_of: list[tuple[int, list[Vec]]] = []
    for i in range(p + 1):
        if i == j:
            continue
        facet = [v for t, v in enumerate(verts) if t != i]
        cone_verts = polytope.intersect_simplices(
            polytope.integer_simplex(verts), polytope.integer_simplex([q] + facet)
        )
        if len(cone_verts) > p:
            acc.add_polytope(cone_verts)
            cone_of.append((i, polytope.dehomogenize(cone_verts)))
    tri = acc.build(name=f"cones({p},{j})")

    def bary_coord(x, i):
        # barycentric coordinate i on Δ^p in its chart
        return 1 - sum(x) if i == 0 else x[i - 1]

    # vertex images: exit point of the ray q -> v through its cone's facet,
    # where the owner's barycentric coordinate falls to 0
    images = {}
    for v in tri.base.vertices:
        x = tri.coords[v]
        owner = None
        for i, cone_verts in cone_of:
            if lp.in_hull(x, cone_verts):
                owner = i
                break
        if owner is None:
            raise FamilyError("triangulation vertex outside every cone")
        bq = bary_coord(q, owner)
        t = bq / (bq - bary_coord(x, owner))
        images[v] = tuple(q[s] + t * (x[s] - q[s]) for s in range(p))
    r = AffineSimplicialMap(tri, horn, images)
    _verify_retraction(r, horn)
    return r


def _verify_retraction(r: AffineSimplicialMap, horn: EuclideanComplex):
    # image inside the horn
    for v in r.source.base.vertices:
        if _carrier(horn, [r.integer_images[v]]) is None:
            raise FamilyError("retraction image leaves the horn")
    # identity on the horn: every source vertex lying on the horn is fixed
    for v in r.source.base.vertices:
        moved = r.vertex_images[v] != r.source.coords[v]
        if moved and _carrier(horn, [r.source.integer_coords[v]]) is not None:
            raise FamilyError("retraction moves a horn point")


def horn_fill_family(w: PolyhedralFamily, p: int, j: int, name=None) -> PolyhedralFamily:
    """Extend a family over Λ^p_j to Δ^p by pulling back along the stored
    retraction."""
    r = horn_retraction(p, j)
    if w.base.base.simplices != r.target.base.simplices:
        raise FamilyError("family base is not the expected horn")
    if w.is_empty():
        return empty_family(standard_simplex_complex(p), w.fiber_dim, name or "filled")
    return pullback(r, w, name=name or f"fill({w.name})")


def restrict_family(w: PolyhedralFamily, sub_base: EuclideanComplex, name=None) -> PolyhedralFamily:
    """Restriction of a family to a subcomplex of its base (pullback along
    the inclusion)."""
    incl = AffineSimplicialMap(
        sub_base, w.base, {v: sub_base.coords[v] for v in sub_base.base.vertices}
    )
    return pullback(incl, w, name=name or f"{w.name}|sub")


# ---------------------------------------------------------------------------
# manifold shadow check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ManifoldReport:
    ok: bool
    exact: bool  # True for d <= 2 (genuine recognition), else necessary only
    failures: tuple = ()  # (vertex, its link's top simplices, or for d >= 3 betti vector)
    note: str = ""


def manifold_check(k: EuclideanComplex, d: int) -> ManifoldReport:
    """Link condition: every vertex link is a PL (d-1)-sphere or ball
    (Rourke & Sanderson, 1972).  For d <= 2 the links are read directly,
    which decides it (`_ball_or_sphere`); for d >= 3 each link need only
    have the homology of S^{d-1}, or of a point for boundary vertices."""
    base = k.base
    if any(len(s) != d + 1 for s in base.maximal_simplices()):
        raise ComplexStructureError(f"complex is not pure of dimension {d}")
    if d <= 2:
        links: dict[int, list] = {v: [] for v in base.vertices}
        for s in base.simplices_of_dim(d):
            for i, v in enumerate(s):
                links[v].append(s[:i] + s[i + 1 :])
        failures = tuple((v, tuple(lk)) for v, lk in links.items() if not _ball_or_sphere(lk))
        return ManifoldReport(not failures, True, failures, "vertex links read directly")
    count = Counter(s[:i] + s[i + 1 :] for s in base.simplices_of_dim(d) for i in range(d + 1))
    boundary_vertices = {v for fct, c in count.items() if c == 1 for v in fct}
    # link of an interior vertex ~ S^{d-1}, of a boundary vertex ~ point
    sphere = (2,) if d == 1 else tuple([1] + [0] * (d - 2) + [1])
    point = (1,) + (0,) * (d - 1)
    failures = []
    for v in base.vertices:
        lk = complexes.link(v, base)
        h = homology.homology_of_delta_set(complexes.delta_set_of(lk))
        betti = h.betti_vector() + (0,) * (max(0, d - len(h.betti_vector())))
        want = point if v in boundary_vertices else sphere
        want = want + (0,) * (len(betti) - len(want))
        torsion_free = all(not h.torsion(i) for i in range(len(betti)))
        if betti != want or not torsion_free:
            failures.append((v, betti))
    note = "necessary condition only in dimension >= 3"
    return ManifoldReport(not failures, False, tuple(failures), note)


def _ball_or_sphere(link) -> bool:
    """Whether the top simplices of a vertex link of dimension <= 1 make a
    sphere or a ball: the empty link of a 0-manifold, one point or two, or
    a connected graph of degree at most 2, that is a cycle or a path."""
    if len(link[0]) <= 1:
        return len(link) <= 2
    degree = Counter(u for edge in link for u in edge)
    reached = set(link[0])
    for _ in link:
        reached.update(u for edge in link if reached.intersection(edge) for u in edge)
    return max(degree.values()) <= 2 and len(reached) == len(degree)


# ---------------------------------------------------------------------------
# subdivision lift of classified data
# ---------------------------------------------------------------------------


def subdivision_lift(w: PolyhedralFamily, r: int = 1) -> tuple[dict, EuclideanComplex]:
    """Classifying assignment on sd^r(base): each flag simplex F of the
    subdivided base receives the pullback of W along e_i ↦ barycenter of
    F_i.  With r = 0 this is the classifying assignment of W itself: each
    simplex σ of the base receives the pullback along e_i ↦ i-th vertex
    of σ.  Returns (assignment, subdivided base)."""
    sd_base = w.base
    for _ in range(r):
        sd_base = complexes.barycentric_subdivide(sd_base)
    tag = f"{w.name}|sd|" if r else f"{w.name}|"
    out = {}
    for s in sorted(sd_base.base.simplices, key=lambda s: (len(s), s)):
        k = len(s) - 1
        std = standard_simplex_complex(k)
        f = AffineSimplicialMap(
            std, w.base, {i: sd_base.coords[s[i]] for i in range(k + 1)}
        )
        out[s] = pullback(f, w, name=f"{tag}{s}")
    return out, sd_base


def transport_total(fam: PolyhedralFamily, chart_pts, base_ambient: int) -> EuclideanComplex:
    """Carry the total space of a family over the standard Δ^k into the
    ambient base, sending e_i to chart_pts[i] (fiber coordinates kept)."""
    k = len(chart_pts) - 1
    acc = _ComplexAccumulator(base_ambient + fam.fiber_dim)
    # (D y, D) in the chart goes to (E D x, E D), the same E D for every
    # vertex, with x = sum(lambda_i c_i) for homogeneous (E c_i, E)
    chart = polytope.homogeneous(chart_pts)
    cols, e = list(zip(*chart))[:-1], chart[0][-1]
    mapped = {}
    for v, y in fam.total.integer_coords.items():
        lams = (y[-1] - sum(y[:k]),) + y[:k]
        mapped[v] = tuple(polytope._value(col, lams) for col in cols) + tuple(e * c for c in y[k:])
    for sigma in fam.total.maximal_simplices():
        acc.add_polytope(polytope.hull_vertices([mapped[v] for v in sigma]))
    return acc.build(name="transported")


def restrict_total(w: PolyhedralFamily, base_pts) -> EuclideanComplex:
    """The part of W's total space sitting over a simplex of |base|."""
    acc = _ComplexAccumulator(w.base.ambient_dim + w.fiber_dim)
    chart = polytope.integer_simplex(base_pts)
    for base, fiber in w.integer_parts.values():
        acc.add_polytope(polytope.intersect_simplices(chart, base, q_out=fiber))
    return acc.build(name="restricted")


def reassemble(assignment: dict, carrier_base: EuclideanComplex, w: PolyhedralFamily) -> EuclideanComplex:
    """Transport each top-simplex family back over its carrier simplex and
    take the union; comparing the result to W.total as a point set is the
    finite shadow of 'the subdivision map is homotopic to the identity'."""
    acc = _ComplexAccumulator(w.base.ambient_dim + w.fiber_dim)
    for s in carrier_base.maximal_simplices():
        chart_pts = [carrier_base.coords[v] for v in s]
        piece = transport_total(assignment[s], chart_pts, w.base.ambient_dim)
        for sigma in piece.maximal_simplices():
            acc.add_polytope([piece.integer_coords[v] for v in sigma])
    return acc.build(name="reassembled")


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


def dumps(w: PolyhedralFamily) -> str:
    lines = [f"family {w.name} fiber={w.fiber_dim}"]
    for tag, comp in (("base", w.base), ("subdivision", w.subdivision), ("total", w.total)):
        lines.append(f"begin {tag}")
        lines.append(complexes.dumps(comp).rstrip("\n"))
        lines.append("end")
    for s in sorted(w.projection):
        cell = w.projection[s]
        lines.append(
            "p " + " ".join(map(str, s)) + " | " + " ".join(map(str, cell))
        )
    return "\n".join(lines) + "\n"


def loads(text: str) -> PolyhedralFamily:
    ln, fields, rest = header(records(text), "family", FamilyError)
    key, _, fiber = fields[-1].partition("=")
    if len(fields) < 3 or key != "fiber":
        raise FamilyError(f"line {ln}: bad header")
    if not fiber.isdecimal():
        raise FamilyError(f"line {ln}: family header fiber={fiber} is not a non-negative integer")
    name, fiber_dim = " ".join(fields[1:-1]), int(fiber)
    sections: dict[str, list] = {}  # section -> its records
    proj_lines = []  # (line number, the fields after `p`)
    current = None
    for ln, parts in rest:
        if parts[0] == "begin" and len(parts) > 1:
            current = parts[1]
            if current in sections:
                raise FamilyError(f"line {ln}: repeated section {current}")
            sections[current] = []
        elif parts == ["end"]:
            current = None
        elif current is not None:
            sections[current].append((ln, parts))
        elif parts[0] == "p":
            proj_lines.append((ln, parts[1:]))
        else:
            raise FamilyError(f"line {ln}: unexpected line {' '.join(parts)!r}")
    try:
        base, sub, total = (complexes.read(sections[t]) for t in ("base", "subdivision", "total"))
    except KeyError as exc:
        raise FamilyError(f"missing section {exc}") from exc
    tops = set(total.maximal_simplices())
    projection = {}
    for ln, fields in proj_lines:
        left, _, right = " ".join(fields).partition("|")
        s = tuple(sorted(numbers(ln, left.split(), FamilyError)))
        if s not in tops:
            raise FamilyError(f"line {ln}: simplex {s} is not maximal in the total")
        if s in projection:
            raise FamilyError(f"line {ln}: repeated projection of {s}")
        projection[s] = tuple(sorted(numbers(ln, right.split(), FamilyError)))
    return PolyhedralFamily(base, sub, total, fiber_dim, projection, name)


def loads_map(text: str, source: EuclideanComplex, target: EuclideanComplex) -> AffineSimplicialMap:
    """An affine-map file: `amap <name>`, then one `v <id> <rat> ...` line
    per vertex of the source, giving its image in the target's space."""
    images = {}
    vertices = set(source.base.vertices)
    for ln, parts in header(records(text), "amap", FamilyError)[2]:
        if parts[0] != "v" or len(parts) < 2:
            raise FamilyError(f"line {ln}: unexpected line {' '.join(parts)!r}")
        (vid,) = numbers(ln, parts[1:2], FamilyError)
        if vid in images:
            raise FamilyError(f"line {ln}: repeated vertex id {vid}")
        if vid not in vertices:
            raise FamilyError(f"line {ln}: vertex {vid} is not in the source")
        images[vid] = numbers(ln, parts[2:], FamilyError, complexes.parse_rational)
        if len(images[vid]) != target.ambient_dim:
            raise FamilyError(f"line {ln}: expected {target.ambient_dim} coordinates")
    return AffineSimplicialMap(source, target, images)


def load(path) -> PolyhedralFamily:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def dump(w: PolyhedralFamily, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(w))
