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
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import Mapping

from . import complexes, homology, linalg, lp, polytope
from .complexes import ComplexStructureError, EuclideanComplex
from .linalg import Vec, as_vec


class FamilyError(ValueError):
    pass


def standard_simplex_complex(p: int, name=None) -> EuclideanComplex:
    """Δ^p in the chart hull{0, e_1..e_p} ⊂ ℝ^p, as a one-simplex complex."""
    from .prism import delta_vertex

    coords = {i: delta_vertex(p, i) for i in range(p + 1)}
    return EuclideanComplex.build([tuple(range(p + 1))], coords, name=name or f"Delta^{p}")


def horn_complex(p: int, j: int) -> EuclideanComplex:
    """Λ^p_j: all facets of Δ^p except the one opposite vertex j."""
    from .prism import delta_vertex

    if not 0 <= j <= p or p < 1:
        raise ValueError("bad horn indices")
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
    # inclusions and other maps that are affine per simplex by construction
    # may skip the carrier certificate
    check_carrier: bool = True

    def __post_init__(self):
        object.__setattr__(
            self, "vertex_images", {v: as_vec(x) for v, x in self.vertex_images.items()}
        )
        for v in self.source.base.vertices:
            if v not in self.vertex_images:
                raise FamilyError(f"vertex {v} has no image")
        if self.check_carrier:
            for s in self.source.maximal_simplices():
                if self.carrier(s) is None:
                    raise FamilyError(f"simplex {s} does not map into a single target simplex")

    def carrier(self, simplex) -> tuple[int, ...] | None:
        """Lexicographically first maximal target simplex containing the image."""
        imgs = [self.vertex_images[v] for v in simplex]
        for t in self.target.maximal_simplices():
            pts = self.target.points(t)
            if all(_inside(x, pts) for x in imgs):
                return t
        return None

    def apply(self, simplex, point) -> Vec:
        """Value at a point of |simplex| (affine extension)."""
        bc = linalg.barycentric_coordinates(point, self.source.points(simplex))
        if bc is None or any(c < 0 for c in bc):
            raise FamilyError("point outside the simplex")
        imgs = [self.vertex_images[v] for v in simplex]
        n = len(imgs[0])
        return tuple(sum(bc[i] * imgs[i][j] for i in range(len(imgs))) for j in range(n))


def _inside(point, simplex_points) -> bool:
    bc = linalg.barycentric_coordinates(point, simplex_points)
    return bc is not None and all(c >= 0 for c in bc)


def identity_map(k: EuclideanComplex) -> AffineSimplicialMap:
    return AffineSimplicialMap(k, k, {v: k.coords[v] for v in k.base.vertices})


def compose_maps(second: AffineSimplicialMap, first: AffineSimplicialMap) -> AffineSimplicialMap:
    """second ∘ first; requires first's vertex images to be expressible, which
    holds because second is affine on a carrier simplex of each point."""
    images = {}
    for v in first.source.base.vertices:
        x = first.vertex_images[v]
        t = None
        for cand in second.source.maximal_simplices():
            if _inside(x, second.source.points(cand)):
                t = cand
                break
        if t is None:
            raise FamilyError(f"image of vertex {v} misses the middle complex")
        images[v] = second.apply(t, x)
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

    def project_point(self, x) -> Vec:
        return tuple(x[: self.base_dim])

    def fiber_part(self, x) -> Vec:
        return tuple(x[self.base_dim :])

    def split_points(self, sigma) -> tuple[list[Vec], list[Vec]]:
        """Base and fiber parts of the vertices of a total simplex."""
        pts = self.total.points(sigma)
        return [self.project_point(x) for x in pts], [self.fiber_part(x) for x in pts]

    def is_empty(self) -> bool:
        return not self.total.base.vertices


def empty_family(base: EuclideanComplex, fiber_dim: int, name="empty") -> PolyhedralFamily:
    total = EuclideanComplex(
        complexes.OrderedComplex((), frozenset(), {}, name),
        base.ambient_dim + fiber_dim,
        {},
    )
    return PolyhedralFamily(base, base, total, fiber_dim, {}, name)


@dataclass(frozen=True)
class FamilyReport:
    ok: bool
    issues: tuple[str, ...] = ()

    def __bool__(self):
        return self.ok


def is_subdivision_of(sub: EuclideanComplex, k: EuclideanComplex) -> bool:
    """Every maximal simplex of `sub` lies in a maximal simplex of k, and
    the pieces inside each maximal simplex of k fill it exactly (volume
    comparison in that simplex's own chart)."""
    kmax = k.maximal_simplices()
    coverage = {t: Fraction(0) for t in kmax}
    for s in sub.maximal_simplices():
        pts = sub.points(s)
        home = None
        for t in kmax:
            if all(_inside(x, k.points(t)) for x in pts):
                home = t
                break
        if home is None:
            return False
        if len(s) == len(home):
            coverage[home] += polytope.relative_volume(pts, k.points(home))
    d = k.dimension
    for t in kmax:
        if len(t) == d + 1 and coverage[t] != Fraction(1, factorial(d)):
            return False
    return True


def check_family(w: PolyhedralFamily) -> FamilyReport:
    issues = []
    if w.total.ambient_dim != w.base.ambient_dim + w.fiber_dim:
        issues.append("total ambient dimension does not split as base × fiber")
    if not complexes.validate(w.total).ok:
        issues.append("total space is not a valid complex")
    if not complexes.validate(w.subdivision).ok:
        issues.append("stored base subdivision is not a valid complex")
    if not is_subdivision_of(w.subdivision, w.base):
        issues.append("stored subdivision does not subdivide the base")
    for s in w.total.maximal_simplices():
        cell = w.projection.get(s)
        if cell is None:
            issues.append(f"total simplex {s} has no assigned base cell")
            continue
        if cell not in w.subdivision.simplices:
            issues.append(f"assigned cell {cell} is not in the subdivision")
            continue
        cell_pts = w.subdivision.points(cell)
        for v in s:
            if not _inside(w.project_point(w.total.coords[v]), cell_pts):
                issues.append(f"projection of simplex {s} leaves its cell {cell}")
                break
    return FamilyReport(not issues, tuple(issues))


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
    """Collects simplices given by exact point tuples and numbers the
    vertices in lexicographic order at the end."""

    def __init__(self, ambient: int):
        self.ambient = ambient
        self.simplices: list[tuple[Vec, ...]] = []

    def add_polytope(self, verts: list[Vec]):
        """Triangulate a polytope (vertex list) and keep its top simplices."""
        verts = sorted(set(map(as_vec, verts)))
        if not verts:
            return
        for tri in polytope.placing_triangulation(verts):
            self.simplices.append(tuple(verts[i] for i in tri))

    def build(self, name="K") -> EuclideanComplex:
        points = sorted({p for s in self.simplices for p in s})
        vid = {p: i for i, p in enumerate(points)}
        if not points:
            return EuclideanComplex(
                complexes.OrderedComplex((), frozenset(), {}, name), self.ambient, {}
            )
        maximal = sorted({tuple(sorted(vid[p] for p in s)) for s in self.simplices})
        coords = {i: p for p, i in vid.items()}
        return EuclideanComplex.build(maximal, coords, name=name)


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
    cells = [w.subdivision.points(cell) for cell in w.subdivision.maximal_simplices()]
    sigmas = [w.split_points(sigma) for sigma in w.total.maximal_simplices()]
    for s in p.maximal_simplices():
        src_pts = p.points(s)
        img_pts = [f.vertex_images[v] for v in s]
        # the piece of s over each cell, read in source coordinates
        for cell_pts in cells:
            verts = polytope.intersect_simplices(img_pts, cell_pts, src_pts)
            if len(verts) > p.dimension:
                sub_acc.add_polytope(verts)
        # (x, y) with x in s and (f(x), y) in sigma
        for base_pts, fiber_pts in sigmas:
            tot_acc.add_polytope(
                polytope.intersect_simplices(img_pts, base_pts, src_pts, fiber_pts)
            )
    sub = sub_acc.build(name=f"{p.name} refined")
    total = tot_acc.build(name=name or f"pullback({w.name})")
    if not total.base.vertices:
        return empty_family(p, w.fiber_dim, name or f"pullback({w.name})")
    sub_max = sub.maximal_simplices()
    projection = {}
    for s in total.maximal_simplices():
        proj = [tuple(total.coords[v][: p.ambient_dim]) for v in s]
        home = None
        for cand in sub_max:
            if all(_inside(x, sub.points(cand)) for x in proj):
                home = cand
                break
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
    if not any(
        _inside(q0, w.base.points(t)) for t in w.base.maximal_simplices()
    ):
        raise FamilyError("point lies outside the base")
    acc = _ComplexAccumulator(w.fiber_dim)
    for sigma in w.total.maximal_simplices():
        base_pts, fiber_pts = w.split_points(sigma)
        acc.add_polytope(polytope.intersect_simplices([q0], base_pts, [()], fiber_pts))
    return acc.build(name=f"{w.name}|{'/'.join(map(str, q0))}")


# ---------------------------------------------------------------------------
# point-set equality of complexes
# ---------------------------------------------------------------------------


def _chart_polytope_volume(chart_pts, dim) -> Fraction:
    verts = sorted(set(map(as_vec, chart_pts)))
    total = Fraction(0)
    for tri in polytope.placing_triangulation(verts):
        if len(tri) == dim + 1:
            total += polytope.simplex_volume_in_chart([verts[i] for i in tri])
    return total


def _point_simplices(ec: EuclideanComplex, d: int) -> set:
    return {frozenset(map(as_vec, ec.points(s))) for s in ec.base.simplices_of_dim(d)}


def _bbox(pts):
    return (
        tuple(min(p[i] for p in pts) for i in range(len(pts[0]))),
        tuple(max(p[i] for p in pts) for i in range(len(pts[0]))),
    )


def _bbox_overlap(a, b) -> bool:
    return all(min(a[1][i], b[1][i]) >= max(a[0][i], b[0][i]) for i in range(len(a[0])))


def same_point_set(a: EuclideanComplex, b: EuclideanComplex) -> bool:
    """Exact equality of underlying polyhedra, by mutual volume coverage
    measured in the chart of each top-dimensional simplex."""
    if not a.base.vertices or not b.base.vertices:
        return not a.base.vertices and not b.base.vertices
    if a.ambient_dim != b.ambient_dim or a.dimension != b.dimension:
        return False
    from .prism import delta_vertex

    d = a.dimension
    if _point_simplices(a, d) == _point_simplices(b, d):
        return True
    full = Fraction(1, factorial(d))
    # intersections are read in the chart of s: its vertices go to those of Δ^d
    chart = [delta_vertex(d, i) for i in range(d + 1)]
    for src, other in ((a, b), (b, a)):
        other_cells = {
            frozenset(map(as_vec, other.points(t))) for t in other.maximal_simplices()
        }
        other_boxes = {t: _bbox(other.points(t)) for t in other.maximal_simplices()}
        for s in src.base.simplices_of_dim(d):
            pts = src.points(s)
            if frozenset(map(as_vec, pts)) in other_cells:
                continue
            box = _bbox(pts)
            covered = Fraction(0)
            for t, tbox in other_boxes.items():
                if not _bbox_overlap(box, tbox):
                    continue
                inter = polytope.intersect_simplices(pts, other.points(t), chart)
                if len(inter) >= d + 1:
                    covered += _chart_polytope_volume(inter, d)
                if covered == full:
                    break
            if covered != full:
                return False
    return True


# ---------------------------------------------------------------------------
# regular-value fibers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiberCertificate:
    ok: bool
    fiber: EuclideanComplex
    probe_types: tuple = ()
    note: str = ""


def _fiber_at(f: AffineSimplicialMap, lam) -> tuple[EuclideanComplex, tuple]:
    acc = _ComplexAccumulator(f.source.ambient_dim)
    piece_shapes = []
    for s in f.source.maximal_simplices():
        imgs = [f.vertex_images[v] for v in s]
        verts = polytope.intersect_simplices([lam], imgs, [()], f.source.points(s))
        if verts:
            acc.add_polytope(verts)
            piece_shapes.append((s, len(verts)))
    fiber = acc.build(name="fiber")
    sig = (
        fiber.f_vector(),
        homology.homology_of_complex(fiber).betti_vector() if fiber.base.vertices else (),
        tuple(n for _, n in sorted(piece_shapes)),
    )
    return fiber, sig


def regular_fiber(f: AffineSimplicialMap, lam) -> FiberCertificate:
    """Fiber over an interior point of the target simplex, plus a probe
    certificate of local product structure.

    The target must be a single standard simplex and f must be simplicial
    (vertices to vertices, simplices onto faces).  The probe set takes,
    for each face F of the target, the point (2/3)λ + (1/3)bF; the
    certificate passes when the combinatorial type of the fiber (f-vector,
    Betti numbers, per-simplex piece shapes) is constant over all probes.
    """
    tgt = f.target
    tmax = tgt.maximal_simplices()
    if len(tmax) != 1:
        raise FamilyError("target must be a single simplex")
    top = tmax[0]
    tpts = tgt.points(top)
    vert_set = {as_vec(x) for x in tpts}
    for v in f.source.base.vertices:
        if as_vec(f.vertex_images[v]) not in vert_set:
            raise FamilyError("map is not simplicial: a vertex misses the target vertices")
    lam = as_vec(lam)
    bc = linalg.barycentric_coordinates(lam, tpts)
    if bc is None or any(c <= 0 for c in bc):
        raise FamilyError("base point is not interior to the target simplex")
    fiber, base_sig = _fiber_at(f, lam)
    probes = []
    for r in range(1, len(top) + 1):
        for face in itertools.combinations(range(len(top)), r):
            bf = tuple(
                sum(tpts[i][j] for i in face) / len(face) for j in range(tgt.ambient_dim)
            )
            probes.append(
                tuple(Fraction(2, 3) * lam[j] + Fraction(1, 3) * bf[j] for j in range(len(bf)))
            )
    types = []
    ok = True
    for mu in probes:
        _, sig = _fiber_at(f, mu)
        types.append(sig)
        if sig != base_sig:
            ok = False
    return FiberCertificate(ok, fiber, tuple(types), note="probe certificate")


# ---------------------------------------------------------------------------
# horn filling by a stored PL retraction
# ---------------------------------------------------------------------------


@functools.cache
def horn_retraction(p: int, j: int) -> AffineSimplicialMap:
    """A stored PL retraction Δ^p -> Λ^p_j, built once per (p, j).

    Built from the viewpoint q obtained by reflecting the barycenter
    through the missing facet's barycenter (so q sees only that facet):
    Δ^p is cut into the cones over the horn facets, each cone is
    triangulated, and every vertex maps to the exit point of the ray from
    q through it.  The construction verifies r|horn = id and image ⊆ horn.
    """
    from .prism import delta_vertex

    if p > 3:
        raise FamilyError("horn retractions are stored for p <= 3 only")
    verts = [delta_vertex(p, i) for i in range(p + 1)]
    bary = tuple(sum(v[t] for v in verts) / (p + 1) for t in range(p))
    missing = [i for i in range(p + 1) if i != j]
    bmiss = tuple(sum(verts[i][t] for i in missing) / p for t in range(p))
    q = tuple(2 * bmiss[t] - bary[t] for t in range(p))
    (iq, *iverts), den = polytope._integer_points([q] + verts)

    def half_spaces(ipts):
        # facet functional k of the simplex, as a.x >= c in unscaled coordinates
        rows = polytope._integer_functionals(ipts)[0][: len(ipts)]
        return [(row[:p], Fraction(-row[p], den)) for row in rows]

    # half-space i holds Δ^p's facet opposite vertex i
    simplex_ineqs = half_spaces(iverts)
    horn = horn_complex(p, j)
    acc = _ComplexAccumulator(p)
    cone_of: list[tuple[int, list[Vec]]] = []
    for i in range(p + 1):
        if i == j:
            continue
        # in {q} ∪ (facet opposite i), the wall opposite vertex t runs
        # through q and the ridge of Δ^p missing i and t
        others = [t for t in range(p + 1) if t != i]
        walls = half_spaces([iq] + [iverts[t] for t in others])[1:]
        ineqs = simplex_ineqs + [w for t, w in zip(others, walls) if t != j]
        cone_verts = polytope.h_polytope_vertices([], ineqs)
        if len(cone_verts) > p:
            acc.add_polytope(cone_verts)
            cone_of.append((i, cone_verts))
    tri = acc.build(name=f"cones({p},{j})")

    # vertex images: exit point of the ray q -> v through its cone's facet
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
        a, c = simplex_ineqs[owner]
        denom = linalg.dot(a, linalg.vec_sub(x, q))
        t = (c - linalg.dot(a, q)) / denom
        images[v] = tuple(q[s] + t * (x[s] - q[s]) for s in range(p))
    r = AffineSimplicialMap(tri, horn, images)
    _verify_retraction(r, horn)
    return r


def _verify_retraction(r: AffineSimplicialMap, horn: EuclideanComplex):
    # image inside the horn
    for v in r.source.base.vertices:
        x = r.vertex_images[v]
        if not any(_inside(x, horn.points(t)) for t in horn.maximal_simplices()):
            raise FamilyError("retraction image leaves the horn")
    # identity on the horn: every source vertex lying on the horn is fixed
    for v in r.source.base.vertices:
        x = r.source.coords[v]
        if any(_inside(x, horn.points(t)) for t in horn.maximal_simplices()):
            if as_vec(r.vertex_images[v]) != as_vec(x):
                raise FamilyError("retraction moves a horn point")


def horn_fill_family(w: PolyhedralFamily, p: int, j: int, name=None) -> PolyhedralFamily:
    """Extend a family over Λ^p_j to Δ^p by pulling back along the stored
    retraction."""
    if w.is_empty():
        return empty_family(standard_simplex_complex(p), w.fiber_dim, name or "filled")
    r = horn_retraction(p, j)
    if w.base.base.simplices != r.target.base.simplices:
        raise FamilyError("family base is not the expected horn")
    return pullback(r, w, name=name or f"fill({w.name})")


def restrict_family(w: PolyhedralFamily, sub_base: EuclideanComplex, name=None) -> PolyhedralFamily:
    """Restriction of a family to a subcomplex of its base (pullback along
    the inclusion)."""
    incl = AffineSimplicialMap(
        sub_base,
        w.base,
        {v: sub_base.coords[v] for v in sub_base.base.vertices},
        check_carrier=False,
    )
    return pullback(incl, w, name=name or f"{w.name}|sub")


# ---------------------------------------------------------------------------
# manifold shadow check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ManifoldReport:
    ok: bool
    exact: bool  # True for d <= 2 (genuine recognition), else necessary only
    failures: tuple = ()  # (vertex, betti vector)
    note: str = ""


def manifold_check(k: EuclideanComplex, d: int) -> ManifoldReport:
    """Necessary link condition: every vertex link has the homology of
    S^{d-1} (or of a point for boundary vertices)."""
    base = k.base
    if any(len(s) != d + 1 for s in base.maximal_simplices()):
        raise ComplexStructureError(f"complex is not pure of dimension {d}")
    boundary_faces = set()
    count: dict[tuple, int] = {}
    for s in base.simplices_of_dim(d):
        for i in range(d + 1):
            fct = s[:i] + s[i + 1 :]
            count[fct] = count.get(fct, 0) + 1
    boundary_faces = {fct for fct, c in count.items() if c == 1}
    boundary_vertices = {v for fct in boundary_faces for v in fct}
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
    note = (
        "link homology is a full recognition in dimension <= 2"
        if d <= 2
        else "necessary condition only in dimension >= 3"
    )
    return ManifoldReport(not failures, d <= 2, tuple(failures), note)


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
    for sigma in fam.total.maximal_simplices():
        pts = []
        for v in sigma:
            x = fam.total.coords[v]
            chart, fib = x[:k], x[k:]
            lams = (1 - sum(chart),) + tuple(chart)
            pt = tuple(
                sum(lams[i] * chart_pts[i][t] for i in range(k + 1))
                for t in range(base_ambient)
            )
            pts.append(pt + tuple(fib))
        acc.add_polytope(polytope.hull_vertices(pts))
    return acc.build(name="transported")


def restrict_total(w: PolyhedralFamily, base_pts) -> EuclideanComplex:
    """The part of W's total space sitting over a simplex of |base|."""
    acc = _ComplexAccumulator(w.base.ambient_dim + w.fiber_dim)
    for sigma in w.total.maximal_simplices():
        sigma_base, sigma_fiber = w.split_points(sigma)
        acc.add_polytope(
            polytope.intersect_simplices(base_pts, sigma_base, q_out=sigma_fiber)
        )
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
            acc.add_polytope(piece.points(sigma))
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
    header = None
    sections: dict[str, list[str]] = {}
    proj_lines = []
    current = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("family "):
            header = line.split()
        elif line.startswith("begin "):
            current = line.split()[1]
            sections[current] = []
        elif line == "end":
            current = None
        elif current is not None:
            sections[current].append(raw)
        elif line.startswith("p "):
            proj_lines.append(line[2:])
        else:
            raise FamilyError(f"unexpected line {line!r}")
    if header is None or len(header) < 3 or not header[-1].startswith("fiber="):
        raise FamilyError("missing family header")
    name = " ".join(header[1:-1])
    fiber_dim = int(header[-1].split("=", 1)[1])
    try:
        base = complexes.loads("\n".join(sections["base"]))
        sub = complexes.loads("\n".join(sections["subdivision"]))
        total = complexes.loads("\n".join(sections["total"]))
    except KeyError as exc:
        raise FamilyError(f"missing section {exc}") from exc
    projection = {}
    for pl in proj_lines:
        left, _, right = pl.partition("|")
        s = tuple(sorted(int(t) for t in left.split()))
        c = tuple(sorted(int(t) for t in right.split()))
        projection[s] = c
    return PolyhedralFamily(base, sub, total, fiber_dim, projection, name)


def load(path) -> PolyhedralFamily:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def dump(w: PolyhedralFamily, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(w))
