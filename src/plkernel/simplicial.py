"""Finitely presented simplicial sets in Eilenberg-Zilber normal form.

Every simplex is represented canonically as a pair (word, g): a
nondegenerate generator g together with a strictly decreasing tuple of
degeneracy indices, meaning s_{w_0} s_{w_1} ... s_{w_m} g.  Face and
degeneracy operators are computed by pushing d_i / s_j through the word
with the simplicial identities, so equality of simplices is equality of
normal forms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable, Mapping

from .delta import DeltaSet, IdentityReport, check_horn_compatibility, genkey


def word_insert(word: tuple[int, ...], j: int) -> tuple[int, ...]:
    """Normal form of s_j applied after the degeneracy word (descending)."""
    if not word:
        return (j,)
    w0 = word[0]
    if j > w0:
        return (j,) + word
    # s_j s_{w0} = s_{w0+1} s_j  for j <= w0
    return (w0 + 1,) + word_insert(word[1:], j)


@dataclass(frozen=True)
class SimplicialSetFP:
    """A simplicial set presented by its nondegenerate simplices.

    generators: degree -> tuple of generator names (globally unique).
    faces: (degree, gen, i) -> (word, gen) in normal form.
    """

    generators: Mapping[int, tuple]
    faces: Mapping[tuple, tuple]
    name: str = "X"

    def __post_init__(self):
        gens = {k: tuple(v) for k, v in self.generators.items() if v}
        object.__setattr__(self, "generators", gens)
        deg = {}
        for k, gs in gens.items():
            for g in gs:
                if g in deg:
                    raise ValueError(f"generator name {g!r} used in two degrees")
                deg[g] = k
        object.__setattr__(self, "_degree", deg)

    # -- basic structure ---------------------------------------------------

    @property
    def dimension(self) -> int:
        return max(self.generators, default=-1)

    def gens(self, degree: int) -> tuple:
        return self.generators.get(degree, ())

    def simplex_degree(self, simp) -> int:
        word, g = simp
        return len(word) + self._degree[g]

    def nondegenerate(self, g) -> tuple:
        return ((), g)

    # -- operator calculus -------------------------------------------------

    def degeneracy(self, j: int, simp) -> tuple:
        word, g = simp
        return (word_insert(word, j), g)

    def face(self, i: int, simp) -> tuple:
        """d_i of a normal-form simplex."""
        word, g = simp
        emitted: list[int] = []
        for pos, j in enumerate(word):
            if i < j:
                emitted.append(j - 1)
            elif i == j or i == j + 1:
                # d_i s_j = id: drop s_j, keep the rest of the word
                res = (tuple(word[pos + 1 :]), g)
                for e in reversed(emitted):
                    res = (word_insert(res[0], e), res[1])
                return res
            else:
                emitted.append(j)
                i -= 1
        k = self._degree[g]
        if k == 0:
            raise ValueError("face of a vertex")
        res = self.faces[(k, g, i)]
        for e in reversed(emitted):
            res = (word_insert(res[0], e), res[1])
        return res

    def is_degenerate_along(self, j: int, simp) -> bool:
        """True iff simp = s_j y for some simplex y."""
        word, _ = simp
        if not word:
            return False
        return self.degeneracy(j, self.face(j + 1, simp)) == simp

    # -- enumeration -------------------------------------------------------

    def all_simplices(self, degree: int) -> list[tuple]:
        """Every simplex (degenerate included) of the given degree."""
        out = set()
        for a, gs in self.generators.items():
            if a > degree:
                continue
            m = degree - a
            for g in gs:
                if m == 0:
                    out.add(((), g))
                    continue
                # strictly decreasing words of length m; s_j on a degree-q
                # simplex needs 0 <= j <= q
                for word in _valid_words(a, m):
                    out.add((word, g))
        return sorted(out, key=genkey)

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(self.gens(k)) for k in range(self.dimension + 1))

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * len(v) for k, v in self.generators.items())


def _valid_words(base_degree: int, length: int) -> list[tuple[int, ...]]:
    """Strictly decreasing degeneracy words applicable to a base simplex.

    Applying s_{w_m} first (innermost, to a degree base_degree simplex)
    requires w_m <= base_degree; each later index may exceed the current
    degree by nothing, which for a descending word amounts to
    w_{m-t} <= base_degree + t.
    """
    words = []
    for comb in itertools.combinations(range(base_degree + length), length):
        word = tuple(sorted(comb, reverse=True))
        ok = all(word[len(word) - 1 - t] <= base_degree + t for t in range(len(word)))
        if ok:
            words.append(word)
    return words


def check_simplicial_identities(x: SimplicialSetFP) -> IdentityReport:
    """d_i d_j = d_{j-1} d_i on nondegenerate generators (the rest follows
    from the operator calculus)."""
    for k in sorted(x.generators):
        if k < 2:
            continue
        for g in x.gens(k):
            s = x.nondegenerate(g)
            for i, j in itertools.combinations(range(k + 1), 2):
                if x.face(i, x.face(j, s)) != x.face(j - 1, x.face(i, s)):
                    return IdentityReport(False, (k, g, i, j))
    return IdentityReport(True)


# ---------------------------------------------------------------------------
# standard simplices
# ---------------------------------------------------------------------------


def standard_simplicial(p: int, tag=None) -> SimplicialSetFP:
    """Δ^p as a simplicial set; nondegenerate k-simplices are the strictly
    increasing vertex tuples.  Vertex names are (tag, v0, v1, ...)."""
    prefix = () if tag is None else (tag,)
    gens = {}
    faces = {}
    for k in range(p + 1):
        gens[k] = tuple(prefix + c for c in itertools.combinations(range(p + 1), k + 1))
        for g in gens[k]:
            body = g[len(prefix) :]
            for i in range(k + 1):
                faces[(k, g, i)] = ((), prefix + body[:i] + body[i + 1 :])
    return SimplicialSetFP(gens, faces, f"Delta^{p}_s")


def simplicial_of_complex(simplices, name="K") -> SimplicialSetFP:
    """Simplicial set of an ordered complex.

    `simplices` is a face-closed collection of sorted vertex tuples; they
    become the nondegenerate generators, with d_i deleting the i-th vertex.
    """
    gens: dict[int, list] = {}
    faces = {}
    for s in sorted(set(simplices), key=lambda s: (len(s), s)):
        k = len(s) - 1
        gens.setdefault(k, []).append(s)
        for i in range(k + 1):
            faces[(k, s, i)] = ((), s[:i] + s[i + 1 :])
    return SimplicialSetFP({k: tuple(v) for k, v in gens.items()}, faces, name)


def weak_chain_normal_form(chain: tuple) -> tuple:
    """Write a weakly increasing vertex chain as s_word applied to a strict
    chain: stripping the largest duplicated index first yields the word
    already in strictly descending order."""
    word: tuple[int, ...] = ()
    c = list(chain)
    while True:
        idx = max((i for i in range(len(c) - 1) if c[i] == c[i + 1]), default=None)
        if idx is None:
            break
        del c[idx + 1]
        word = word + (idx,)
    return (word, tuple(c))


@dataclass(frozen=True)
class SimplicialMorphism:
    """Morphism of simplicial sets, given on nondegenerate generators.

    mapping: generator -> normal-form simplex of the target of the same
    degree (possibly degenerate).  Degeneracy equivariance is built into
    `apply`; face equivariance is what `check` verifies.
    """

    source: SimplicialSetFP
    target: SimplicialSetFP
    mapping: Mapping[Hashable, tuple]

    def apply(self, simp) -> tuple:
        word, g = simp
        res = self.mapping[g]
        for j in reversed(word):
            res = self.target.degeneracy(j, res)
        return res

    def check(self) -> IdentityReport:
        for k in sorted(self.source.generators):
            for g in self.source.gens(k):
                if g not in self.mapping:
                    return IdentityReport(False, (k, g, None, "missing"))
                img = self.mapping[g]
                if self.target.simplex_degree(img) != k:
                    return IdentityReport(False, (k, g, None, "degree"))
                if k == 0:
                    continue
                s = self.source.nondegenerate(g)
                for i in range(k + 1):
                    if self.target.face(i, img) != self.apply(self.source.face(i, s)):
                        return IdentityReport(False, (k, g, i, "face"))
        return IdentityReport(True)


def compose_simplicial(f: SimplicialMorphism, g: SimplicialMorphism) -> SimplicialMorphism:
    """g after f."""
    mapping = {gen: g.apply(img) for gen, img in f.mapping.items()}
    return SimplicialMorphism(f.source, g.target, mapping)


def vertex_chain(x: SimplicialSetFP, simp, vertex_of_gen) -> tuple:
    """The weakly increasing vertex tuple of a simplex of an ordered-complex
    simplicial set, given the vertex tuple of each nondegenerate generator."""
    word, g = simp
    chain = list(vertex_of_gen(g))
    for j in reversed(word):
        chain.insert(j + 1, chain[j])
    return tuple(chain)


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------


def pair_normal_form(x: SimplicialSetFP, y: SimplicialSetFP, sx, sy) -> tuple:
    """Normal form of the pair (sx, sy) in X × Y.

    Returns (word, (sx0, sy0)) with (sx0, sy0) a jointly nondegenerate pair.
    """
    k = x.simplex_degree(sx)
    assert y.simplex_degree(sy) == k
    for j in range(k - 1, -1, -1):
        if x.is_degenerate_along(j, sx) and y.is_degenerate_along(j, sy):
            word, core = pair_normal_form(x, y, x.face(j + 1, sx), y.face(j + 1, sy))
            return (word_insert(word, j), core)
    return ((), (sx, sy))


def product(x: SimplicialSetFP, y: SimplicialSetFP) -> SimplicialSetFP:
    """Cartesian product of finite simplicial sets.

    Nondegenerate k-simplices are pairs of k-simplices whose degeneracy
    words are disjoint (the shuffle description); faces are computed
    componentwise and then normalized.
    """
    maxdim = x.dimension + y.dimension
    gens: dict[int, list] = {}
    pairset = set()
    for k in range(maxdim + 1):
        xs = x.all_simplices(k)
        ys = y.all_simplices(k)
        level = []
        for sx in xs:
            for sy in ys:
                if set(sx[0]) & set(sy[0]):
                    continue
                level.append((sx, sy))
        if level:
            gens[k] = sorted(level, key=genkey)
            pairset.update(level)
    faces = {}
    for k, level in gens.items():
        if k == 0:
            continue
        for g in level:
            sx, sy = g
            for i in range(k + 1):
                fx = x.face(i, sx)
                fy = y.face(i, sy)
                word, core = pair_normal_form(x, y, fx, fy)
                faces[(k, g, i)] = (word, core)
    return SimplicialSetFP(
        {k: tuple(v) for k, v in gens.items()}, faces, f"{x.name}×{y.name}"
    )


# ---------------------------------------------------------------------------
# forgetful functor to Δ-sets
# ---------------------------------------------------------------------------


def forget(x: SimplicialSetFP, cap: int | None = None) -> DeltaSet:
    """Underlying Δ-set, with degenerate simplices up to a degree cap.

    The full Δ-set of a nonempty simplicial set is infinite; the default
    cap is dim(X)+1.
    """
    if cap is None:
        cap = x.dimension + 1
    gens = {}
    faces = {}
    for k in range(cap + 1):
        level = x.all_simplices(k)
        if level:
            gens[k] = tuple(level)
        if k >= 1:
            for s in level:
                for i in range(k + 1):
                    faces[(k, s, i)] = x.face(i, s)
    return DeltaSet(gens, faces, f"forget({x.name})")


def nondegenerate_delta_set(x: SimplicialSetFP) -> DeltaSet | None:
    """Δ-set on the nondegenerate generators, when all their faces are
    nondegenerate (e.g. for simplicial sets of ordered complexes); None
    otherwise."""
    gens = {k: tuple(v) for k, v in x.generators.items()}
    faces = {}
    for k, gs in gens.items():
        if k == 0:
            continue
        for g in gs:
            for i in range(k + 1):
                word, tg = x.faces[(k, g, i)]
                if word:
                    return None
                faces[(k, g, i)] = tg
    return DeltaSet(gens, faces, x.name)


# ---------------------------------------------------------------------------
# nerves of monoids (used for Kan-filling fixtures)
# ---------------------------------------------------------------------------


def nerve_of_monoid(elements, mult, identity, cap: int) -> SimplicialSetFP:
    """Nerve of a finite monoid as a simplicial set, truncated at `cap`.

    Nondegenerate k-simplices are k-tuples with no identity entries; faces
    drop ends / multiply adjacent entries, normalizing out identities.
    """
    nonid = sorted(e for e in elements if e != identity)

    def normal_form(t: tuple) -> tuple:
        # strip identity entries from the right: removing at the largest
        # index first yields the degeneracy word already in descending form
        word: tuple[int, ...] = ()
        t = list(t)
        while True:
            idx = max((i for i, e in enumerate(t) if e == identity), default=None)
            if idx is None:
                break
            del t[idx]
            word = word + (idx,)
        return (word, ("n",) + tuple(t))

    gens = {}
    faces = {}
    for k in range(cap + 1):
        level = [("n",) + t for t in itertools.product(nonid, repeat=k)]
        gens[k] = tuple(sorted(level, key=genkey))
        if k == 0:
            continue
        for g in gens[k]:
            t = g[1:]
            for i in range(k + 1):
                if i == 0:
                    res = t[1:]
                elif i == k:
                    res = t[:-1]
                else:
                    res = t[: i - 1] + (mult(t[i - 1], t[i]),) + t[i + 1 :]
                faces[(k, g, i)] = normal_form(res)
    return SimplicialSetFP(gens, faces, "nerve(monoid)")


# ---------------------------------------------------------------------------
# Kan horn filling for simplicial sets
# ---------------------------------------------------------------------------


def kan_fill_simplicial(x: SimplicialSetFP, p: int, j: int, assignment: Mapping[int, tuple]):
    """Find a p-simplex (degenerate allowed) with the given horn of faces.

    The assignment maps each i != j to a normal-form simplex of degree p-1.
    Returns the lexicographically least filler or None (exhaustive search
    over every p-simplex of the finite presentation).
    """
    check_horn_compatibility(lambda s, i: x.face(i, s), p, j, assignment)
    for s in x.all_simplices(p):
        if all(x.face(i, s) == assignment[i] for i in assignment):
            return s
    return None
