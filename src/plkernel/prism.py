"""Prism triangulations of Δ^p × [0,1] and Δ^1 × Δ^p.

Two explicit triangulations:

* R(p) triangulates Δ^p × [0,1], interpolating between Δ^p at the bottom
  and the barycentric subdivision sd Δ^p at the top.  Its simplices are
  bottom faces, top flag simplices, and joins of a bottom face with a top
  flag starting above it.
* K(p) triangulates Δ^1 × Δ^p by increasing chains mixing plain and
  primed vertices; F(p) is the resulting isomorphism with the product
  simplicial set Δ^1 × Δ^p.

The chart puts Δ^p = hull{0, e_1, ..., e_p} in ℝ^p, so both prisms are
full-dimensional in ℝ^{p+1} and all volumes are rational (vol Δ^p = 1/p!).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from . import complexes, delta, simplicial
from .complexes import EuclideanComplex
from .delta import DeltaMorphism, DeltaSet, IdentityReport
from .simplicial import SimplicialMorphism, SimplicialSetFP

# the largest prism dimension built
DIMENSION_CAP = 6


def _check_cap(p: int):
    if p < 0 or p > DIMENSION_CAP:
        raise ValueError(f"p={p} outside the allowed range 0..{DIMENSION_CAP}")


def delta_vertex(p: int, i: int) -> tuple[Fraction, ...]:
    """Vertex e_i of the chart simplex Δ^p ⊂ ℝ^p (e_0 is the origin)."""
    return tuple(Fraction(1) if j == i else Fraction(0) for j in range(1, p + 1))


def _barycenter(p: int, f: tuple[int, ...]) -> tuple[Fraction, ...]:
    pts = [delta_vertex(p, i) for i in f]
    return tuple(sum(q[j] for q in pts) / len(pts) for j in range(p))


def _subsets(p: int) -> list[tuple[int, ...]]:
    out = []
    for r in range(1, p + 2):
        out.extend(itertools.combinations(range(p + 1), r))
    return sorted(out, key=lambda f: (len(f), f))


# ---------------------------------------------------------------------------
# R(p)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrismComplexR:
    """The triangulation R(p) of Δ^p × [0,1] in the chart ℝ^{p+1}."""

    p: int
    complex: EuclideanComplex
    bottom_id: Mapping[int, int]  # i -> vertex id of (e_i, 0)
    top_id: Mapping[tuple, int]  # face F -> vertex id of (bF, 1)

    def label(self, vid: int):
        return self.complex.base.labels[vid]

    def delta_set(self) -> DeltaSet:
        return _r_delta_set(self.p)


@functools.cache
def _r_delta_set(p: int) -> DeltaSet:
    return complexes.delta_set_of(build_R(p).complex)


@functools.cache
def build_R(p: int) -> PrismComplexR:
    """The ordered triangulation of Δ^p × [0,1] by bottom faces, top flags,
    and bottom-top joins.

    Vertex ids: 0..p for the bottom copy of Δ^p, then one id per nonempty
    face F (sorted by cardinality, then lexicographically) for the top
    barycenter bF; this id order extends the face partial order on top
    vertices, so it realizes the prism ordering.
    """
    _check_cap(p)
    subsets = _subsets(p)
    bottom_id = {i: i for i in range(p + 1)}
    top_id = {f: p + 1 + r for r, f in enumerate(subsets)}
    coords = {}
    labels = {}
    for i in range(p + 1):
        coords[i] = delta_vertex(p, i) + (Fraction(0),)
        labels[i] = ("e", i)
    for f, vid in top_id.items():
        coords[vid] = _barycenter(p, f) + (Fraction(1),)
        labels[vid] = ("b", f)

    # maximal simplices: a bottom face G joined with a saturated flag of
    # faces from G up to the full face, one vertex added per step
    maximal = []
    full = tuple(range(p + 1))
    for r in range(1, p + 2):
        for g in itertools.combinations(range(p + 1), r):
            rest = [i for i in full if i not in g]
            for perm in itertools.permutations(rest):
                chain = [g]
                for e in perm:
                    chain.append(tuple(sorted(chain[-1] + (e,))))
                maximal.append(g + tuple(top_id[f] for f in chain))
    ec = EuclideanComplex.build(maximal, coords, labels, name=f"R({p})")
    return PrismComplexR(p, ec, bottom_id, top_id)


def bottom_subcomplex(r: PrismComplexR) -> list[tuple[int, ...]]:
    """Simplices of the bottom copy of Δ^p, as vertex-id tuples."""
    return [s for s in sorted(r.complex.simplices) if all(v <= r.p for v in s)]


def top_subcomplex(r: PrismComplexR) -> list[tuple[int, ...]]:
    """Simplices of the top copy of sd Δ^p."""
    return [s for s in sorted(r.complex.simplices) if all(v > r.p for v in s)]


# ---------------------------------------------------------------------------
# the maps 𝓡η making the R(p) cosimplicial
# ---------------------------------------------------------------------------


def _check_monotone(eta, p: int, q: int):
    eta = tuple(eta)
    if len(eta) != p + 1:
        raise ValueError(f"map must list the p+1 = {p + 1} vertex images")
    if any(v < 0 or v > q for v in eta):
        raise ValueError(f"image outside [0..{q}]")
    if any(eta[i] > eta[i + 1] for i in range(p)):
        raise ValueError(f"map {eta} is not order-preserving")
    return eta


@dataclass(frozen=True)
class RMap:
    """The induced map R(p) -> R(q) of a monotone map [p] -> [q].

    Bottom vertices go to bottom vertices, top barycenters bF to b(ηF).
    For non-injective η the image of a simplex is a weakly increasing
    vertex chain of R(q) (a degenerate simplex); `apply` returns that
    chain, and `to_delta_morphism` lands in the weak-chain Δ-set.
    """

    p: int
    q: int
    eta: tuple[int, ...]
    vertex_map: Mapping[int, int]

    def apply(self, chain: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(self.vertex_map[v] for v in chain)

    def to_delta_morphism(self) -> DeltaMorphism:
        src = build_R(self.p).delta_set()
        tgt = weak_chain_delta_set(build_R(self.q).complex, src.dimension)
        mapping = {
            (k, g): self.apply(g) for k in src.generators for g in src.gens(k)
        }
        return DeltaMorphism(src, tgt, mapping)


def build_R_map(eta, p: int, q: int) -> RMap:
    eta = _check_monotone(eta, p, q)
    _check_cap(p)
    _check_cap(q)
    rp, rq = build_R(p), build_R(q)
    vmap = {}
    for i in range(p + 1):
        vmap[rp.bottom_id[i]] = rq.bottom_id[eta[i]]
    for f, vid in rp.top_id.items():
        vmap[vid] = rq.top_id[tuple(sorted({eta[i] for i in f}))]
    return RMap(p, q, eta, vmap)


def compose_R_maps(second: RMap, first: RMap) -> RMap:
    """second ∘ first (so first: R(p) -> R(q), second: R(q) -> R(r))."""
    if first.q != second.p:
        raise ValueError("maps not composable")
    eta = tuple(second.eta[v] for v in first.eta)
    vmap = {v: second.vertex_map[w] for v, w in first.vertex_map.items()}
    return RMap(first.p, second.q, eta, vmap)


def weak_chain_delta_set(ec: EuclideanComplex, max_degree: int) -> DeltaSet:
    """Δ-set of weakly increasing vertex chains supported on simplices.

    Degree-k generators are (k+1)-tuples v_0 <= ... <= v_k whose underlying
    set is a simplex of the complex; faces delete entries.  This is the
    underlying Δ-set (up to max_degree) of the complex's simplicial set.
    """
    gens: dict[int, tuple] = {}
    for k in range(max_degree + 1):
        level = set()
        for s in ec.simplices:
            if len(s) > k + 1:
                continue
            # weakly increasing surjections onto s of length k+1
            for cuts in itertools.combinations(range(1, k + 1), len(s) - 1):
                bounds = (0,) + cuts + (k + 1,)
                chain = tuple(
                    s[t] for t in range(len(s)) for _ in range(bounds[t + 1] - bounds[t])
                )
                level.add(chain)
        gens[k] = tuple(sorted(level))
    return DeltaSet.from_table(gens, delta.deletion_table(gens), f"chains({ec.name})")


def monotone_maps(p: int, q: int) -> list[tuple[int, ...]]:
    """All order-preserving maps [p] -> [q] as image tuples."""
    out = []
    for comb in itertools.combinations_with_replacement(range(q + 1), p + 1):
        out.append(comb)
    return out


# ---------------------------------------------------------------------------
# ordering verification
# ---------------------------------------------------------------------------


def prism_leq(la, lb) -> bool:
    """The prism order on vertex labels: bottoms by index, tops by
    inclusion, and a bottom below a top exactly when its vertex lies in
    the top's face."""
    if la[0] == "e" and lb[0] == "e":
        return la[1] <= lb[1]
    if la[0] == "b" and lb[0] == "b":
        return set(la[1]) <= set(lb[1])
    if la[0] == "e" and lb[0] == "b":
        return la[1] in lb[1]
    return False


def verify_R_ordering(p: int, leq=None) -> IdentityReport:
    """Check that the prism order is a linear order on every simplex of
    R(p) and agrees with the vertex-id order used by the Δ-set; the
    witness is (simplex, vertex, vertex, reason)."""
    r = build_R(p)
    if leq is None:
        leq = prism_leq
    for s in sorted(r.complex.simplices):
        for u, v in itertools.combinations(s, 2):  # u < v as ids
            la, lb = r.label(u), r.label(v)
            if not leq(la, lb):
                return IdentityReport(False, (s, u, v, "id order not respected"))
            if leq(lb, la) and la != lb:
                return IdentityReport(False, (s, u, v, "antisymmetry"))
    return IdentityReport(True)


# ---------------------------------------------------------------------------
# K(p) and the product isomorphism F(p)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrismComplexK:
    """The chain triangulation K(p) of Δ^1 × Δ^p.

    Vertex ids 0..p are the plain vertices (level 0), ids p+1..2p+1 the
    primed ones (level 1); simplices are the increasing chains
    (i_0 < ... < i_m, i'_{m+1} < ... < i'_q) with i_m <= i_{m+1}.
    """

    p: int
    complex: EuclideanComplex

    def plain(self, i: int) -> int:
        return i

    def primed(self, i: int) -> int:
        return self.p + 1 + i

    def delta_set(self) -> DeltaSet:
        return complexes.delta_set_of(self.complex)

    def simplicial_set(self) -> SimplicialSetFP:
        return _k_simplicial_set(self.p)


@functools.cache
def _k_simplicial_set(p: int) -> SimplicialSetFP:
    return simplicial.simplicial_of_complex(build_K(p).complex.simplices, f"K({p})_s")


@functools.cache
def build_K(p: int) -> PrismComplexK:
    _check_cap(p)
    coords = {}
    labels = {}
    for i in range(p + 1):
        coords[i] = delta_vertex(p, i) + (Fraction(0),)
        labels[i] = ("v", i, 0)
        coords[p + 1 + i] = delta_vertex(p, i) + (Fraction(1),)
        labels[p + 1 + i] = ("v", i, 1)
    maximal = []
    for i in range(p + 1):
        maximal.append(tuple(range(i + 1)) + tuple(p + 1 + j for j in range(i, p + 1)))
    ec = EuclideanComplex.build(maximal, coords, labels, name=f"K({p})")
    return PrismComplexK(p, ec)


@functools.cache
def _product_factors(p: int) -> tuple[SimplicialSetFP, SimplicialSetFP, SimplicialSetFP]:
    x = simplicial.standard_simplicial(1, tag="a")
    y = simplicial.standard_simplicial(p, tag="b")
    return x, y, simplicial.product(x, y)


@functools.cache
def build_F(p: int) -> SimplicialMorphism:
    """The isomorphism Δ^1 × Δ^p -> K(p) of simplicial sets.

    A nondegenerate q-simplex of the product is a pair of vertex chains
    (0...01...1, i_0...i_q) increasing jointly at every step; it maps to
    the chain that keeps i_t plain while the first factor is 0 and primes
    it afterwards.
    """
    _check_cap(p)
    x, y, prod = _product_factors(p)
    k = build_K(p)
    tgt = k.simplicial_set()
    mapping = {}
    for d in sorted(prod.generators):
        for g in prod.gens(d):
            sx, sy = g
            alpha = simplicial.vertex_chain(x, sx, lambda h: h[1:])
            beta = simplicial.vertex_chain(y, sy, lambda h: h[1:])
            chain = tuple(
                k.plain(b) if a == 0 else k.primed(b) for a, b in zip(alpha, beta)
            )
            mapping[g] = ((), chain)
    return SimplicialMorphism(prod, tgt, mapping)


def k_map_of(eta, p: int, q: int) -> SimplicialMorphism:
    """The map K(p) -> K(q) induced by a monotone η (both copies of Δ^p
    map by η, primes preserved)."""
    eta = _check_monotone(eta, p, q)
    kp, kq = build_K(p), build_K(q)
    src, tgt = kp.simplicial_set(), kq.simplicial_set()

    def vmap(v):
        if v <= p:
            return kq.plain(eta[v])
        return kq.primed(eta[v - p - 1])

    mapping = {}
    for d in sorted(src.generators):
        for g in src.gens(d):
            word, core = simplicial.weak_chain_normal_form(tuple(vmap(v) for v in g))
            mapping[g] = (word, core)
    return SimplicialMorphism(src, tgt, mapping)


def product_map_of(eta, p: int, q: int) -> SimplicialMorphism:
    """Id × η : Δ^1 × Δ^p -> Δ^1 × Δ^q."""
    eta = _check_monotone(eta, p, q)
    x, yp, src = _product_factors(p)
    _, yq, tgt = _product_factors(q)
    mapping = {}
    for d in sorted(src.generators):
        for g in src.gens(d):
            sx, (wy, gy) = g
            body = tuple(eta[v] for v in gy[1:])
            w2, core = simplicial.weak_chain_normal_form(body)
            sy = (w2, ("b",) + core)
            for j in reversed(wy):
                sy = yq.degeneracy(j, sy)
            word, pair = simplicial.pair_normal_form(x, yq, sx, sy)
            mapping[g] = (word, pair)
    return SimplicialMorphism(src, tgt, mapping)


# ---------------------------------------------------------------------------
# subdivision of Δ-sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubdividedDeltaSet:
    """sd X with its carrier data: each generator of sd X is represented by
    a flag inside one standard simplex of X."""

    delta_set: DeltaSet
    # generator of sd X -> (p, generator of X in degree p, flag in sd Δ^p)
    carrier: Mapping[delta.Hashable, tuple]


def sd_delta(x: DeltaSet) -> SubdividedDeltaSet:
    """Barycentric subdivision of a Δ-set, the colimit over its simplex
    category of the subdivided standard simplices.

    Given the face identities, each generator of sd X is one g ∈ X_p with
    one flag of sd Δ^p ending at {0..p}, named ((p, g), k, flag).  Face
    i < k drops F_i; face k is the flag renumbered into the face of g on
    F_{k-1}, reached by deleting the missing vertices in descending order.
    The faces are written straight into the face table, so no nested name
    is hashed except as a key of the carrier.
    """
    rep = delta.check_identities(x)
    if not rep:
        raise delta.DeltaStructureError(f"sd needs the face identities: {rep.witness}")
    # per p, each flag ending at {0..p}: the positions of its inner faces,
    # its last face as (proper subset, position) and the tail of its name's repr
    tables, cuts = [], []
    for p in range(x.dimension + 1):
        full = tuple(range(p + 1))
        proper = [f for r in range(1, p + 1) for f in itertools.combinations(full, r)]
        flags, last = [(full,)], [None]
        for n, sub in enumerate(proper):
            for pos, (flag, *_) in enumerate(tables[len(sub) - 1]):
                flags.append(tuple(tuple(sub[v] for v in f) for f in flag) + (full,))
                last.append((n, pos))
        index = {f: n for n, f in enumerate(flags)}
        inner = [[index[f[:i] + f[i + 1 :]] for i in range(len(f) - 1)] for f in flags]
        tables.append([(f, a, b, f"{len(f) - 1}, {f!r})") for f, a, b in zip(flags, inner, last)])
        cuts.append([tuple(v for v in reversed(full) if v not in sub) for sub in proper])
    # each generator of sd X gets a serial, in the order it is made; the
    # generators inside gens(p)[m] have consecutive serials from first[p][m],
    # in table order.  Per degree: the genkeys, serials and face serials.
    first, names, carrier, table = {}, [], {}, x.table
    keys, serials, rows = {}, {}, {}
    for p in sorted(x.generators):
        first[p] = []
        for m, g in enumerate(x.gens(p)):
            pg, head = (p, g), f"(({p!r}, {delta.genkey(g)}), "
            base = len(names)
            first[p].append(base)
            below = []
            for missing in cuts[p]:
                h, d = m, p
                for v in missing:
                    h, d = table[d][h * (d + 1) + v], d - 1
                below.append(first[d][h])
            for flag, inner, last, tail in tables[p]:
                k = len(flag) - 1
                name = (pg, k, flag)
                keys.setdefault(k, []).append(head + tail)  # head + tail == genkey(name)
                serials.setdefault(k, []).append(len(names))
                names.append(name)
                carrier[name] = (p, g, flag)
                if last:
                    row = rows.setdefault(k, [])
                    row.extend([base + n for n in inner])
                    row.append(below[last[0]] + last[1])
    # sort each degree by genkey once, then turn face serials into positions
    gens, out, position = {}, {}, [0] * len(names)
    for k in sorted(keys):
        order = sorted(range(len(keys[k])), key=keys[k].__getitem__)
        ser = serials[k]
        gens[k] = tuple([names[ser[j]] for j in order])
        for n, j in enumerate(order):
            position[ser[j]] = n
        if k:
            row, w = rows[k], k + 1
            out[k] = tuple([position[f] for j in order for f in row[j * w : j * w + w]])
    return SubdividedDeltaSet(DeltaSet.from_table(gens, out, f"sd {x.name}"), carrier)


def sd_delta_matches_complex(k) -> bool:
    """sd of the Δ-set of an ordered complex is isomorphic to the Δ-set of
    the subdivided complex; verified by constructing the isomorphism."""
    base = k.base if isinstance(k, EuclideanComplex) else k
    sd_x = sd_delta(complexes.delta_set_of(base))
    sd_k = complexes.barycentric_subdivide(base)
    by_label = {lab: v for v, lab in sd_k.labels.items()}
    tgt = complexes.delta_set_of(sd_k)
    mapping = {}
    for d in sd_x.delta_set.generators:
        for gen in sd_x.delta_set.gens(d):
            p, g, flag = sd_x.carrier[gen]
            faces = [tuple(sorted(g[v] for v in f)) for f in flag]
            img = tuple(sorted(by_label[("b", f)] for f in faces))
            if len(img) != len(flag):
                return False
            mapping[(d, gen)] = img
    mor = DeltaMorphism(sd_x.delta_set, tgt, mapping)
    if not mor.check():
        return False
    for d in set(sd_x.delta_set.generators) | set(tgt.generators):
        imgs = {mapping[(d, gen)] for gen in sd_x.delta_set.gens(d)}
        if len(imgs) != len(sd_x.delta_set.gens(d)) or imgs != set(tgt.gens(d)):
            return False
    return True


# ---------------------------------------------------------------------------
# mesh export
# ---------------------------------------------------------------------------


def format_decimal(q: Fraction, digits: int = 12) -> str:
    """Exact decimal rendering of a rational, rounded half-up at `digits`."""
    if digits < 0:
        raise ValueError(f"digits must not be negative: {digits}")
    q = Fraction(q)
    sign = "-" if q < 0 else ""
    q = abs(q)
    scale = 10**digits
    units = (q.numerator * scale * 2 + q.denominator) // (q.denominator * 2)
    whole, frac = divmod(units, scale)
    if digits == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:0{digits}d}"


def export_off(ec: EuclideanComplex, digits: int = 12) -> str:
    """OFF mesh of the maximal simplices (nOFF when the ambient dimension
    is not 3); rationals are rendered as rounded decimals, so the export
    is intentionally lossy."""
    verts = sorted(ec.base.vertices)
    index = {v: i for i, v in enumerate(verts)}
    maximal = ec.maximal_simplices()
    lines = []
    if ec.ambient_dim == 3:
        lines.append("OFF")
    else:
        lines.append("nOFF")
        lines.append(str(ec.ambient_dim))
    lines.append(f"{len(verts)} {len(maximal)} 0")
    for v in verts:
        lines.append(" ".join(format_decimal(c, digits) for c in ec.coords[v]))
    for s in maximal:
        lines.append(str(len(s)) + " " + " ".join(str(index[v]) for v in s))
    return "\n".join(lines) + "\n"
