"""Finite non-unital categories, their Δ-set nerves, and bi-Δ-sets.

A non-unital category carries source/target maps and an associative
partial composition, with no identity morphisms required.  Its nerve has
no degeneracies, hence is a Δ-set.  Simplicial categories (Δ-sets of
objects and morphisms, degreewise composition) produce bi-Δ-sets whose
total-complex homology stands in for the homology of the classifying
space; the vertical differential is twisted by (-1)^p.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Hashable, Mapping

from .delta import (
    DeltaMorphism,
    DeltaSet,
    IdentityReport,
    ValidityReport,
    _token,
    check_identities,
    compose,
    genkey,
    header,
    records,
)
from .homology import ChainComplex, HomologyProfile, _chains, homology


class CategoryStructureError(ValueError):
    pass


@dataclass(frozen=True)
class FiniteNonUnitalCategory:
    """Objects, morphisms, src/tgt, and a partial composition table.

    comp maps (f, g) with tgt(f) = src(g) to the composite 'f then g'
    (so src(comp) = src(f), tgt(comp) = tgt(g)).  The table may be
    partial when the category is a truncation of a larger one.
    """

    objects: tuple
    morphisms: tuple
    src: Mapping[Hashable, Hashable]
    tgt: Mapping[Hashable, Hashable]
    comp: Mapping[tuple, Hashable]
    name: str = "C"

    def __post_init__(self):
        objs = set(self.objects)
        for kind, names in (("object", self.objects), ("morphism", self.morphisms)):
            if len(set(names)) < len(names):
                x = next(x for n, x in enumerate(names) if x in names[:n])
                raise CategoryStructureError(f"{kind} {x!r} repeats")
        for m in self.morphisms:
            if m not in self.src or m not in self.tgt:
                raise CategoryStructureError(f"morphism {m} lacks src/tgt")
            if self.src[m] not in objs or self.tgt[m] not in objs:
                raise CategoryStructureError(f"morphism {m} has unknown endpoint")
        mors = set(self.morphisms)
        for (f, g), h in self.comp.items():
            if f not in mors or g not in mors or h not in mors:
                raise CategoryStructureError(f"composition {f},{g}->{h} uses unknown morphism")

    def composable(self, f, g) -> bool:
        return self.tgt[f] == self.src[g]


def check_category(c: FiniteNonUnitalCategory) -> ValidityReport:
    """Source/target bookkeeping of the composites the table defines, and
    associativity on every triple whose two inner composites it defines;
    each issue is a (kind, witness) pair.  The table may be a truncation,
    so a composable pair without a composite is no issue, but a triple
    with only one bracketing defined is an associativity-domain issue."""
    issues = []
    for f, g in itertools.product(c.morphisms, repeat=2):
        h = c.comp.get((f, g))
        if h is None:
            continue
        if not c.composable(f, g):
            issues.append(("comp-on-noncomposable", (f, g)))
        elif c.src[h] != c.src[f] or c.tgt[h] != c.tgt[g]:
            issues.append(("endpoint", (f, g, h)))
    for f, g, h in itertools.product(c.morphisms, repeat=3):
        fg = c.comp.get((f, g))
        gh = c.comp.get((g, h))
        if fg is None or gh is None:
            continue
        left = c.comp.get((fg, h))
        right = c.comp.get((f, gh))
        if (left is None) != (right is None):
            issues.append(("associativity-domain", (f, g, h)))
        elif left != right:
            issues.append(("associativity", (f, g, h, left, right)))
    return ValidityReport(not issues, tuple(issues))


def nerve(c: FiniteNonUnitalCategory, max_degree: int = 3) -> DeltaSet:
    """Δ-set nerve: degree-k generators are composable k-strings all of
    whose consecutive multi-composites are defined (so every face exists);
    d_0/d_k drop the ends, inner d_i compose.  Each string carries the
    products of its suffixes; s + (g,) is closed iff all compose with g.
    The face table is written as the strings grow: d_k is the parent's
    position, and the other faces are looked up among the strings of the
    degree below (-1 marks one that is not a string there)."""
    if max_degree < 0:
        raise ValueError(f"nerve max_degree must be at least 0, not {max_degree}")
    mors = sorted(c.morphisms, key=genkey) if max_degree else []  # degree 0 has no strings
    by_src: dict = {}
    for g in mors:
        by_src.setdefault(c.src[g], []).append(g)
    gens: dict[int, tuple] = {
        0: tuple(sorted(c.objects, key=genkey)),
        1: tuple((f,) for f in mors),
    }
    at = {o: n for n, o in enumerate(gens[0])}
    table = {1: tuple(n for f in mors for n in (at[c.tgt[f]], at[c.src[f]]))}
    level = [(s, s) for s in gens[1]]
    at = {s: n for n, s in enumerate(gens[1])}
    for k in range(2, max_degree + 1):
        grown, row = [], []
        for parent, (s, products) in enumerate(level):
            for g in by_src.get(c.tgt[s[-1]], ()):
                folds = []
                for a in products:
                    a = c.comp.get((a, g))
                    if a is None:
                        break
                    folds.append(a)
                else:
                    t = s + (g,)
                    grown.append((t, (*folds, g)))
                    row.append(at.get(t[1:], -1))
                    for i in range(1, k):
                        inner = t[: i - 1] + (c.comp[(t[i - 1], t[i])],) + t[i + 1 :]
                        row.append(at.get(inner, -1))
                    row.append(parent)
        level = grown
        gens[k] = tuple(t for t, _ in grown)
        table[k] = tuple(row)
        if k < max_degree:
            at = {t: n for n, t in enumerate(gens[k])}
    x = DeltaSet.from_table(gens, table, name=f"N({c.name})")
    rep = check_identities(x)
    if not rep:
        raise CategoryStructureError(f"nerve face identities fail: {rep.witness}")
    return x


# ---------------------------------------------------------------------------
# simplicial categories and bi-Δ-sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimplicialCategory:
    """Non-unital category object in Δ-sets: degreewise categories whose
    structure maps commute with the face maps."""

    objects: DeltaSet
    morphisms: DeltaSet
    src: DeltaMorphism
    tgt: DeltaMorphism
    comp: Mapping[tuple, Hashable]  # (p, f, g) -> composite p-morphism
    name: str = "C"

    def level(self, p: int) -> FiniteNonUnitalCategory:
        return FiniteNonUnitalCategory(
            self.objects.gens(p),
            self.morphisms.gens(p),
            {f: self.src.mapping[(p, f)] for f in self.morphisms.gens(p)},
            {f: self.tgt.mapping[(p, f)] for f in self.morphisms.gens(p)},
            {(f, g): h for (q, f, g), h in self.comp.items() if q == p},
            name=f"{self.name}_{p}",
        )


@dataclass(frozen=True)
class BiDeltaSet:
    """A Δ-set of Δ-sets: rows[p] is row p, whose faces are the vertical
    faces, and horizontal[p] holds the horizontal faces d^h_0 ... d^h_p :
    rows[p] -> rows[p-1] as Δ-morphisms (horizontal[0] is empty)."""

    rows: tuple  # of DeltaSet
    horizontal: tuple  # of tuples of DeltaMorphism
    name: str = "B"

    @functools.cached_property
    def generators(self) -> Mapping[tuple, tuple]:
        """(p, q) -> gens, for every nonempty (p, q)."""
        return MappingProxyType(
            {(p, q): gs for p, x in enumerate(self.rows) for q, gs in sorted(x.generators.items())}
        )

    def gens(self, p: int, q: int) -> tuple:
        return self.generators.get((p, q), ())

    def check(self) -> IdentityReport:
        """Each row satisfies the face identities, each horizontal face is a
        Δ-morphism, and d^h_i d^h_j = d^h_{j-1} d^h_i for i < j.  The
        witness is the first failure in that order: a row's or a
        morphism's own witness, or (p, (q, g), i, j) for the first
        generator of row p on which a horizontal identity fails."""
        for rep in itertools.chain(
            map(check_identities, self.rows),
            (d.check() for ds in self.horizontal for d in ds),
        ):
            if not rep:
                return rep
        for p, (d, below) in enumerate(zip(self.horizontal[2:], self.horizontal[1:]), 2):
            for i, j in itertools.combinations(range(len(d)), 2):
                left = compose(d[j], below[i]).mapping
                right = compose(d[i], below[j - 1]).mapping
                if left != right:
                    none = object()
                    key = next(
                        k for k in itertools.chain(left, right)
                        if left.get(k, none) != right.get(k, none)
                    )
                    return IdentityReport(False, (p, key, i, j))
        return IdentityReport(True)


def nerve_simplicial(c: SimplicialCategory, max_q: int = 3) -> BiDeltaSet:
    """Bi-Δ-set nerve: row p is the nerve of the level-p category, whose
    q-strings of composable p-morphisms are the (p, q)-generators; the
    horizontal faces apply the object and morphism Δ-set faces entrywise."""
    degrees = sorted(set(c.objects.generators) | set(c.morphisms.generators))
    levels = {}
    for p in degrees:
        lev = c.level(p)
        rep = check_category(lev)
        if not rep:
            raise CategoryStructureError((p, rep.issues[0]))
        levels[p] = lev
    rows = tuple(nerve(levels[p], max_degree=max_q) for p in degrees)
    horizontal = [()]
    for p in degrees[1:]:
        maps = [{} for _ in range(p + 1)]
        for q, gs in sorted(rows[p].generators.items()):
            below = set(rows[p - 1].gens(q))
            for g in gs:
                for i, m in enumerate(maps):
                    img = tuple(c.morphisms.face(p, f, i) for f in g) if q else c.objects.face(p, g, i)
                    if img not in below:
                        raise CategoryStructureError(
                            f"horizontal face leaves the nerve at {(p, q, g, i)}: a face "
                            f"of a composable string is not composable"
                        )
                    m[(q, g)] = img
        horizontal.append(tuple(DeltaMorphism(rows[p], rows[p - 1], m) for m in maps))
    b = BiDeltaSet(rows, tuple(horizontal), name=f"N({c.name})")
    rep = b.check()
    if not rep:
        raise CategoryStructureError(f"bi-Δ-set identities fail: {rep.witness}")
    return b


def constant_simplicial_category(c: FiniteNonUnitalCategory) -> SimplicialCategory:
    """A category made simplicially discrete (objects/morphisms in degree 0)."""
    o = DeltaSet({0: tuple(sorted(c.objects, key=genkey))}, {}, name=f"{c.name}-obj")
    m = DeltaSet({0: tuple(sorted(c.morphisms, key=genkey))}, {}, name=f"{c.name}-mor")
    src = DeltaMorphism(m, o, {(0, f): c.src[f] for f in c.morphisms})
    tgt = DeltaMorphism(m, o, {(0, f): c.tgt[f] for f in c.morphisms})
    comp = {(0, f, g): h for (f, g), h in c.comp.items()}
    return SimplicialCategory(o, m, src, tgt, comp, name=c.name)


def total_complex(b: BiDeltaSet) -> ChainComplex:
    """Total complex of the double complex of a bi-Δ-set, on the (p, q, g)
    generators grouped by p + q in sorted (p, q) order.

    d(g at (p,q)) = Σ_i (-1)^i d^h_i g  +  (-1)^p Σ_j (-1)^j d^v_j g.
    """
    gens: dict[int, list] = {}
    for p, q in sorted(b.generators):
        gens.setdefault(p + q, []).extend((p, q, g) for g in b.gens(p, q))

    def terms(n, pqg):
        p, q, g = pqg
        out = [((p - 1, q, d(q, g)), (-1) ** i) for i, d in enumerate(b.horizontal[p])]
        if q:
            out += [((p, q - 1, b.rows[p].face(q, g, j)), (-1) ** (p + j)) for j in range(q + 1)]
        return out

    return _chains(gens, terms)


def total_homology(b: BiDeltaSet) -> HomologyProfile:
    return homology(total_complex(b))


# ---------------------------------------------------------------------------
# demo: a truncated category of combinatorial 1-cobordisms
# ---------------------------------------------------------------------------

LOOP_CAP = 3


def _compose_pairings(a_pts, b_pts, c_pts, pair1, loops1, pair2, loops2):
    """Glue two 1-cobordisms along the middle 0-manifold.

    Points are ('i', k) / ('o', k); the middle object's points appear as
    outputs of the first pairing and inputs of the second.  Follows the
    glued arcs and counts new closed loops.
    """
    adj: dict[tuple, set] = {}

    def edge(u, v):
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)

    for u, v in pair1:
        edge(("1",) + u, ("1",) + v)
    for u, v in pair2:
        edge(("2",) + u, ("2",) + v)
    for k in range(b_pts):
        edge(("1", "o", k), ("2", "i", k))
    ends = [("1", "i", k) for k in range(a_pts)] + [("2", "o", k) for k in range(c_pts)]
    seen = set()
    new_pairs = []
    for e in ends:
        if e in seen:
            continue
        prev, cur = None, e
        while True:
            seen.add(cur)
            nxt = next(u for u in adj[cur] if u != prev)
            prev, cur = cur, nxt
            if cur in ends:
                seen.add(cur)
                break
        left = ("i", e[2]) if e[0] == "1" else ("o", e[2])
        right = ("i", cur[2]) if cur[0] == "1" else ("o", cur[2])
        new_pairs.append(tuple(sorted((left, right))))
    loops = loops1 + loops2
    visited = set(seen)
    for u in adj:
        if u in visited:
            continue
        # trace the cycle through u
        prev, cur = None, u
        while True:
            visited.add(cur)
            nxt = next(x for x in adj[cur] if x != prev)
            prev, cur = cur, nxt
            if cur == u:
                break
        loops += 1
    return frozenset(new_pairs), loops


def _matchings(a_pts, c_pts):
    pts = [("i", k) for k in range(a_pts)] + [("o", k) for k in range(c_pts)]
    if len(pts) % 2:
        return []
    out = []

    def rec(rest, acc):
        if not rest:
            out.append(frozenset(acc))
            return
        u = rest[0]
        for t in range(1, len(rest)):
            v = rest[t]
            rec(rest[1:t] + rest[t + 1 :], acc + [tuple(sorted((u, v)))])

    rec(pts, [])
    return out


def demo_cobordism_category() -> FiniteNonUnitalCategory:
    """Objects: the empty 0-manifold E and the two-point 0-manifold P.
    Morphisms: 1-cobordisms (perfect matching on the boundary points plus
    a closed-loop count <= LOOP_CAP); composition glues matchings and adds
    loops, and is left undefined when the result exceeds the cap."""
    objects = ("E", "P")
    npts = {"E": 0, "P": 2}
    morphisms = []
    data = {}
    src = {}
    tgt = {}
    for a in objects:
        for c in objects:
            for pairing in sorted(_matchings(npts[a], npts[c]), key=genkey):
                for loops in range(LOOP_CAP + 1):
                    if a == "E" and c == "E" and not pairing and loops == 0:
                        continue  # the empty cobordism would be a strict unit
                    m = (a, c, pairing, loops)
                    morphisms.append(m)
                    data[m] = (a, c, pairing, loops)
                    src[m] = a
                    tgt[m] = c
    by_data = {d: m for m, d in data.items()}
    comp = {}
    for f in morphisms:
        for g in morphisms:
            if tgt[f] != src[g]:
                continue
            a, b = src[f], tgt[f]
            c = tgt[g]
            pairing, loops = _compose_pairings(
                npts[a], npts[b], npts[c], data[f][2], data[f][3], data[g][2], data[g][3]
            )
            if loops > LOOP_CAP:
                continue
            key = (a, c, pairing, loops)
            if key in by_data:
                comp[(f, g)] = by_data[key]
    return FiniteNonUnitalCategory(
        tuple(objects), tuple(morphisms), src, tgt, comp, name="Cob1"
    )


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


def dumps(c: FiniteNonUnitalCategory) -> str:
    lines = [f"category {c.name}"]
    toks = {}
    for o in c.objects:
        toks[o] = _token(o)
        lines.append(f"obj {toks[o]}")
    for m in c.morphisms:
        toks[m] = _token(m)
        lines.append(f"mor {toks[m]} {toks[c.src[m]]} {toks[c.tgt[m]]}")
    if len(set(toks.values())) != len(toks):
        raise CategoryStructureError("token collision in category dump")
    for (f, g), h in sorted(c.comp.items(), key=genkey):
        lines.append(f"cmp {toks[f]} {toks[g]} {toks[h]}")
    return "\n".join(lines) + "\n"


def loads(text: str) -> FiniteNonUnitalCategory:
    _, fields, rest = header(records(text), "category", CategoryStructureError)
    name = " ".join(fields[1:]) or "C"
    objects, src, tgt, comp = {}, {}, {}, {}
    for ln, parts in rest:
        if parts[0] == "obj" and len(parts) == 2:
            if parts[1] in objects:
                raise CategoryStructureError(f"line {ln}: repeated object {parts[1]!r}")
            objects[parts[1]] = None
        elif parts[0] == "mor" and len(parts) == 4:
            if parts[1] in src:
                raise CategoryStructureError(f"line {ln}: repeated morphism {parts[1]!r}")
            src[parts[1]], tgt[parts[1]] = parts[2:]
        elif parts[0] == "cmp" and len(parts) == 4:
            _, f, g, h = parts
            if (f, g) in comp:
                raise CategoryStructureError(f"line {ln}: repeated composite of {f!r} and {g!r}")
            comp[(f, g)] = h
        else:
            raise CategoryStructureError(f"line {ln}: unexpected line {' '.join(parts)!r}")
    return FiniteNonUnitalCategory(tuple(objects), tuple(src), src, tgt, comp, name)


def load(path) -> FiniteNonUnitalCategory:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def dump(c: FiniteNonUnitalCategory, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(c))
