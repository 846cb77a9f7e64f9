"""Finitely presented semi-simplicial sets (Δ-sets) and their morphisms.

A Δ-set is stored as graded generator sets together with a face map
(degree, generator, index) -> generator.  The constructor also records each
face by position, in an integer table that the checks and builders read
instead of hashing generator names.  The semi-simplicial identities
d_i d_j = d_{j-1} d_i (i < j) are *not* enforced by the constructor so that
deliberately broken instances can be built for testing; library code calls
:func:`check_identities` after construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Hashable, Mapping


class DeltaStructureError(ValueError):
    """Malformed input: missing faces, unknown or repeated generators, bad
    degrees."""


_MISSING = object()


def genkey(g) -> str:
    """Deterministic sort key for arbitrary hashable generator names: the
    repr, except that the elements of each frozenset in a name (or in the
    tuples it nests) are listed in the order of their own keys, so that
    the key does not depend on the hash seed."""
    text = repr(g)
    if "{" not in text and "frozenset(" not in text:
        return text
    if isinstance(g, frozenset) and g:
        return "frozenset({" + ", ".join(sorted(map(genkey, g))) + "})"
    if type(g) is tuple:
        keys = [genkey(x) for x in g]
        return "(" + ", ".join(keys) + ("," if len(keys) == 1 else "") + ")"
    return text


@dataclass(frozen=True)
class DeltaSet:
    """A finite semi-simplicial set.

    The constructor checks that no generator repeats within a degree and
    that every face d_i of a degree-k generator is a generator of degree
    k - 1.  In the same pass it builds ``table``: for each degree k >= 1,
    one flat tuple whose entry n*(k+1) + i is the position in gens(k-1)
    of d_i of gens(k)[n].
    """

    generators: Mapping[int, tuple]
    faces: Mapping[tuple, Hashable]  # (degree, gen, i) -> gen of degree-1
    name: str = "X"
    table: Mapping[int, tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        gens = {k: tuple(v) for k, v in self.generators.items() if v}
        object.__setattr__(self, "generators", gens)
        faces, position, table = self.faces, {}, {}
        for k in sorted(gens):
            gs = gens[k]
            if k < 0:
                raise DeltaStructureError(f"negative degree {k}")
            pos = position[k] = {g: n for n, g in enumerate(gs)}
            if len(pos) < len(gs):
                g = next(g for n, g in enumerate(gs) if pos[g] != n)
                raise DeltaStructureError(f"generator {g!r} repeats in degree {k}")
            if k == 0:
                continue
            lower, ks = position.get(k - 1, {}), range(k + 1)
            row = [lower.get(faces.get((k, g, i), _MISSING)) for g in gs for i in ks]
            if None in row:
                n, i = divmod(row.index(None), k + 1)
                g = gs[n]
                if (k, g, i) not in faces:
                    raise DeltaStructureError(f"missing face d_{i} of {g!r} in degree {k}")
                raise DeltaStructureError(f"face d_{i} of {g!r} is not a generator of degree {k-1}")
            table[k] = tuple(row)
        object.__setattr__(self, "table", table)

    @property
    def dimension(self) -> int:
        return max(self.generators, default=-1)

    def gens(self, degree: int) -> tuple:
        return self.generators.get(degree, ())

    def face(self, degree: int, g, i: int):
        return self.faces[(degree, g, i)]

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(self.gens(k)) for k in range(self.dimension + 1))

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * len(v) for k, v in self.generators.items())


@dataclass(frozen=True)
class IdentityReport:
    ok: bool
    witness: tuple | None = None  # (degree, generator, i, j)

    def __bool__(self):
        return self.ok


def check_identities(x: DeltaSet) -> IdentityReport:
    """Verify d_i d_j = d_{j-1} d_i for i < j on every generator, reading
    the face table; the witness is the first failure in degree, gens and
    (i, j) order."""
    table = x.table
    for k in range(2, x.dimension + 1):
        pairs = tuple(itertools.combinations(range(k + 1), 2))
        below = tuple(zip(*[iter(table[k - 1])] * k))
        for n, row in enumerate(zip(*[iter(table[k])] * (k + 1))):
            d = [below[h] for h in row]
            for i, j in pairs:
                if d[j][i] != d[i][j - 1]:
                    return IdentityReport(False, (k, x.gens(k)[n], i, j))
    return IdentityReport(True)


@dataclass(frozen=True)
class DeltaMorphism:
    """A degreewise map of generators commuting with faces."""

    source: DeltaSet
    target: DeltaSet
    mapping: Mapping[tuple, Hashable]  # (degree, gen) -> gen

    def __call__(self, degree: int, g):
        return self.mapping[(degree, g)]

    def check(self) -> IdentityReport:
        targets = {k: set(gs) for k, gs in self.target.generators.items()}
        for k in sorted(self.source.generators):
            for g in self.source.gens(k):
                if (k, g) not in self.mapping:
                    return IdentityReport(False, (k, g, None, "missing"))
                if self.mapping[(k, g)] not in targets.get(k, ()):
                    return IdentityReport(False, (k, g, None, "image not a generator"))
                if k == 0:
                    continue
                for i in range(k + 1):
                    if self.target.face(k, self.mapping[(k, g)], i) != self.mapping[
                        (k - 1, self.source.face(k, g, i))
                    ]:
                        return IdentityReport(False, (k, g, i, "face"))
        return IdentityReport(True)


def compose(f: DeltaMorphism, g: DeltaMorphism) -> DeltaMorphism:
    """g after f."""
    if f.target is not g.source and f.target.generators != g.source.generators:
        raise DeltaStructureError("morphisms not composable")
    mapping = {key: g.mapping[(key[0], val)] for key, val in f.mapping.items()}
    return DeltaMorphism(f.source, g.target, mapping)


def identity_morphism(x: DeltaSet) -> DeltaMorphism:
    return DeltaMorphism(x, x, {(k, g): g for k in x.generators for g in x.gens(k)})


# ---------------------------------------------------------------------------
# standard simplices and subdivision of standard simplices, as Δ-sets
# ---------------------------------------------------------------------------


def standard_delta(p: int, name=None) -> DeltaSet:
    """The Δ-set of the ordered complex Δ^p: generators are vertex tuples."""
    gens = {}
    faces = {}
    for k in range(p + 1):
        gens[k] = tuple(itertools.combinations(range(p + 1), k + 1))
        for g in gens[k]:
            for i in range(k + 1):
                faces[(k, g, i)] = g[:i] + g[i + 1 :]
    return DeltaSet(gens, faces, name or f"Delta^{p}")


def sd_standard_delta(p: int, name=None) -> DeltaSet:
    """Barycentric subdivision of Δ^p as a Δ-set.

    Generators in degree k are flags of nonempty subsets of {0..p}: tuples
    (F_0, ..., F_k) of vertex tuples with F_0 ⊂ F_1 ⊂ ... strictly.
    """
    subsets = []
    for r in range(1, p + 2):
        subsets.extend(itertools.combinations(range(p + 1), r))
    gens: dict[int, list] = {}
    faces = {}
    chains = [(s,) for s in subsets]
    k = 0
    while chains:
        gens[k] = tuple(chains)
        nxt = []
        for c in chains:
            top = c[-1]
            for s in subsets:
                if len(s) > len(top) and set(top) < set(s):
                    nxt.append(c + (s,))
        if k >= 1:
            for c in gens[k]:
                for i in range(k + 1):
                    faces[(k, c, i)] = c[:i] + c[i + 1 :]
        chains = nxt
        k += 1
    return DeltaSet({d: tuple(v) for d, v in gens.items()}, faces, name or f"sd Delta^{p}")


# ---------------------------------------------------------------------------
# colimits
# ---------------------------------------------------------------------------


class InconsistentDiagramError(ValueError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"face maps not respected by identifications: {witness!r}")


@dataclass
class Diagram:
    """A finite diagram of Δ-sets: named objects and arrows between them."""

    objects: dict[Hashable, DeltaSet] = field(default_factory=dict)
    # arrows: (src_obj, dst_obj, {(degree, gen) -> gen})
    arrows: list[tuple] = field(default_factory=list)

    def add_object(self, key, x: DeltaSet):
        self.objects[key] = x

    def add_arrow(self, src, dst, mapping):
        self.arrows.append((src, dst, dict(mapping)))


@dataclass(frozen=True)
class Colimit:
    delta_set: DeltaSet
    # cocone: for each object key, {(degree, gen) -> colimit generator}
    cocone: Mapping[Hashable, Mapping[tuple, Hashable]]


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        if p != x:
            self.parent[x] = p = self.find(p)
        return p

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # deterministic representative: smaller sort key wins
            if genkey(rb) < genkey(ra):
                ra, rb = rb, ra
            self.parent[rb] = ra


def colimit(diagram: Diagram) -> Colimit:
    """Colimit of a finite diagram of Δ-sets, by union-find on generators.

    Raises InconsistentDiagramError when identified generators disagree on
    faces (witnessed by the offending pair).
    """
    uf = _UnionFind()
    nodes = []
    for okey in sorted(diagram.objects, key=genkey):
        x = diagram.objects[okey]
        for k in sorted(x.generators):
            for g in x.gens(k):
                nodes.append((okey, k, g))
                uf.find((okey, k, g))
    for src, dst, mapping in diagram.arrows:
        for (k, g), img in mapping.items():
            uf.union((src, k, g), (dst, k, img))

    classes: dict = {}
    for node in nodes:
        classes.setdefault(uf.find(node), []).append(node)

    gens: dict[int, list] = {}
    for rep in sorted(classes, key=genkey):
        k = rep[1]
        gens.setdefault(k, []).append(rep)

    faces = {}
    for rep, members in classes.items():
        okey, k, g = rep
        if k == 0:
            continue
        for i in range(k + 1):
            targets = set()
            for (mo, mk, mg) in members:
                x = diagram.objects[mo]
                targets.add(uf.find((mo, mk - 1, x.face(mk, mg, i))))
            if len(targets) != 1:
                pair = sorted(targets, key=genkey)[:2]
                raise InconsistentDiagramError((rep, i, tuple(pair)))
            faces[(k, rep, i)] = targets.pop()

    ds = DeltaSet({k: tuple(sorted(v, key=genkey)) for k, v in gens.items()}, faces, "colim")
    cocone = {}
    for okey, x in diagram.objects.items():
        cocone[okey] = {
            (k, g): uf.find((okey, k, g)) for k in x.generators for g in x.gens(k)
        }
    return Colimit(ds, cocone)


# ---------------------------------------------------------------------------
# Kan horn filling (Δ-set case; simplicial sets are handled in simplicial.py)
# ---------------------------------------------------------------------------


class IncompatibleHornError(ValueError):
    pass


def check_horn_compatibility(x: DeltaSet, p: int, j: int, assignment: Mapping[int, Hashable]):
    """The faces of a Λ^p_j horn must satisfy d_i x_k = d_{k-1} x_i (i<k)."""
    idx = sorted(assignment)
    if idx != [i for i in range(p + 1) if i != j]:
        raise IncompatibleHornError(f"horn assignment must cover all i != {j}")
    if p < 2:
        return
    for i, k in itertools.combinations(idx, 2):
        left = x.face(p - 1, assignment[k], i)
        right = x.face(p - 1, assignment[i], k - 1)
        if left != right:
            raise IncompatibleHornError((i, k, left, right))


def kan_fill(x: DeltaSet, p: int, j: int, assignment: Mapping[int, Hashable]):
    """Search for a p-generator whose faces match the horn assignment.

    Returns the lexicographically least filler, or None after exhaustively
    visiting every p-generator.
    """
    check_horn_compatibility(x, p, j, assignment)
    for g in sorted(x.gens(p), key=genkey):
        if all(x.face(p, g, i) == assignment[i] for i in assignment):
            return g
    return None


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


def _token(g) -> str:
    t = "".join((genkey(g) if isinstance(g, (tuple, frozenset)) else str(g)).split())
    if not t:
        raise DeltaStructureError(f"generator {g!r} has no printable token")
    return t


def dumps(x: DeltaSet) -> str:
    """Render a Δ-set as `dset` / `g` / `d` lines; generator ids become
    whitespace-free tokens (must stay distinct within each degree)."""
    lines = [f"dset {x.name}"]
    toks: dict[tuple, str] = {}
    for k in sorted(x.generators):
        seen = set()
        for g in x.gens(k):
            t = _token(g)
            if t in seen:
                raise DeltaStructureError(f"token collision {t!r} in degree {k}")
            seen.add(t)
            toks[(k, g)] = t
            lines.append(f"g {k} {t}")
    for k in sorted(x.generators):
        if k == 0:
            continue
        for g in x.gens(k):
            for i in range(k + 1):
                lines.append(f"d {k} {toks[(k, g)]} {i} {toks[(k - 1, x.face(k, g, i))]}")
    return "\n".join(lines) + "\n"


def loads(text: str) -> DeltaSet:
    name = None
    gens: dict[int, list] = {}
    faces = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "dset":
            name = " ".join(parts[1:]) or "X"
        elif parts[0] == "g" and len(parts) == 3:
            gens.setdefault(int(parts[1]), []).append(parts[2])
        elif parts[0] == "d" and len(parts) == 5:
            faces[(int(parts[1]), parts[2], int(parts[3]))] = parts[4]
        else:
            raise DeltaStructureError(f"unexpected line {line!r}")
    if name is None:
        raise DeltaStructureError("missing dset header")
    return DeltaSet({k: tuple(v) for k, v in gens.items()}, faces, name)


def dumps_morphism(f: DeltaMorphism, name: str = "f") -> str:
    lines = [f"map {name} {f.source.name} {f.target.name}"]
    for k in sorted(f.source.generators):
        for g in f.source.gens(k):
            lines.append(f"m {k} {_token(g)} {_token(f.mapping[(k, g)])}")
    return "\n".join(lines) + "\n"


def loads_morphism(text: str, sets: Mapping[str, DeltaSet]) -> DeltaMorphism:
    src = tgt = None
    raw_map = {}
    for rawline in text.splitlines():
        line = rawline.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "map" and len(parts) == 4:
            src, tgt = sets[parts[2]], sets[parts[3]]
        elif parts[0] == "m" and len(parts) == 4:
            raw_map[(int(parts[1]), parts[2])] = parts[3]
        else:
            raise DeltaStructureError(f"unexpected line {line!r}")
    if src is None:
        raise DeltaStructureError("missing map header")
    src_tok = {k: {_token(g): g for g in src.gens(k)} for k in src.generators}
    tgt_tok = {k: {_token(g): g for g in tgt.gens(k)} for k in tgt.generators}
    mapping = {
        (k, src_tok[k][t]): tgt_tok[k][raw_map[(k, t)]]
        for (k, t) in raw_map
    }
    return DeltaMorphism(src, tgt, mapping)


def load(path) -> DeltaSet:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def dump(x: DeltaSet, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(x))
