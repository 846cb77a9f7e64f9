"""Finitely presented semi-simplicial sets (Δ-sets) and their morphisms.

A Δ-set is stored as graded generator tuples together with an integer face
table that records each face d_i by its position in the degree below.
Builders write the table directly; input from outside gives the faces as a
map (degree, generator, index) -> generator, which the constructor checks
and turns into the table.  The semi-simplicial identities
d_i d_j = d_{j-1} d_i (i < j) are *not* enforced by the constructor so that
deliberately broken instances can be built for testing; library code calls
:func:`check_identities` after construction.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Hashable, Mapping


class DeltaStructureError(ValueError):
    """Malformed input: missing faces, unknown or repeated generators, bad
    degrees."""


_MISSING = object()


def _names_a_face(key, position: dict) -> bool:
    """Whether key is (k, g, i) with g a generator of degree k >= 1 and
    0 <= i <= k, given each degree's {generator: position}."""
    if not (isinstance(key, tuple) and len(key) == 3):
        return False
    k, g, i = key
    return k in position and k != 0 and g in position[k] and isinstance(i, int) and 0 <= i <= k


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


@dataclass(frozen=True, init=False)
class DeltaSet:
    """A finite semi-simplicial set, stored as its generators and its face
    table: for each degree k >= 1, one flat tuple whose entry n*(k+1) + i
    is the position in gens(k-1) of d_i of gens(k)[n].

    ``DeltaSet(generators, faces, name)`` takes the faces as a mapping
    (degree, gen, i) -> gen for input from outside.  It reads each face
    once, writes its position in the degree below (-1 for a face that is
    no generator there) and hands the table to :meth:`from_table`, which
    makes every check on generators and positions; it checks itself only
    that every face d_i is given and that every key names one.  Builders
    that compute the table themselves call :meth:`from_table` directly.
    ``faces`` is derived from the table on first read.
    """

    generators: Mapping[int, tuple]
    table: Mapping[int, tuple] = field(repr=False)
    name: str = "X"

    def __init__(
        self, generators: Mapping[int, tuple], faces: Mapping[tuple, Hashable], name: str = "X"
    ):
        gens = {k: tuple(v) for k, v in generators.items() if v}
        position = {k: {g: n for n, g in enumerate(gs)} for k, gs in gens.items()}
        table = {}
        for k in sorted(k for k in gens if k >= 1):
            gs, lower, ks = gens[k], position.get(k - 1, {}), range(k + 1)
            row = table[k] = [lower.get(faces.get((k, g, i), _MISSING), -1) for g in gs for i in ks]
            if -1 in row:
                n, i = divmod(row.index(-1), k + 1)
                if (k, gs[n], i) not in faces:
                    raise DeltaStructureError(f"missing face d_{i} of {gs[n]!r} in degree {k}")
        self.__dict__.update(DeltaSet.from_table(gens, table, name).__dict__)
        # from_table rejects repeats, so every key read above is a distinct face
        if sum(map(len, table.values())) != len(faces):
            key = next(key for key in faces if not _names_a_face(key, position))
            raise DeltaStructureError(f"face key {key!r} names no face of a generator")

    @classmethod
    def from_table(
        cls, generators: Mapping[int, tuple], table: Mapping[int, tuple], name: str = "X"
    ) -> DeltaSet:
        """A Δ-set from a face table its builder computed.  Checks that no
        generator repeats within a degree, that the row of degree k has
        len(gens(k))*(k+1) entries and that each of them lies in
        range(len(gens(k-1))); an entry outside it is reported as a face
        that is not a generator."""
        gens = {k: tuple(v) for k, v in generators.items() if v}
        rows = {}
        for k in sorted(gens):
            gs = gens[k]
            if k < 0:
                raise DeltaStructureError(f"negative degree {k}")
            if len(set(gs)) < len(gs):
                position = {g: n for n, g in enumerate(gs)}
                g = next(g for n, g in enumerate(gs) if position[g] != n)
                raise DeltaStructureError(f"generator {g!r} repeats in degree {k}")
            if k == 0:
                continue
            row = tuple(table.get(k, ()))
            if len(row) != len(gs) * (k + 1):
                raise DeltaStructureError(
                    f"table row of degree {k} has {len(row)} entries, not {len(gs) * (k + 1)}"
                )
            below = len(gens.get(k - 1, ()))
            if min(row) < 0 or max(row) >= below:
                n, i = divmod(next(j for j, h in enumerate(row) if not 0 <= h < below), k + 1)
                raise DeltaStructureError(
                    f"face d_{i} of {gs[n]!r} is not a generator of degree {k-1}"
                )
            rows[k] = row
        x = cls.__new__(cls)
        x.__dict__.update(generators=gens, table=rows, name=name)
        return x

    @functools.cached_property
    def faces(self) -> dict:
        """(degree, gen, i) -> d_i gen, for every generator of degree >= 1."""
        faces = {}
        for k, row in self.table.items():
            keys = [(k, g, i) for g in self.gens(k) for i in range(k + 1)]
            faces.update(zip(keys, map(self.gens(k - 1).__getitem__, row)))
        return faces

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
    witness: tuple | None = None  # the first failure, e.g. (degree, generator, i, j)

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class ValidityReport:
    """The verdict of a check that lists every issue it finds: complexes,
    families and categories."""

    ok: bool
    issues: tuple = ()

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
        """Every generator maps to a generator of the same degree whose
        faces are the images of its faces, compared by position through
        both face tables; the witness is the first failure in degree and
        gens order, then in i."""
        source, target, mapping = self.source, self.target, self.mapping
        image = {}
        for k in sorted(source.generators):
            where = {g: n for n, g in enumerate(target.gens(k))}
            image[k] = img = []
            if k:
                below, w = image[k - 1], k + 1
                rows, tops = source.table[k], target.table.get(k)
            for n, g in enumerate(source.gens(k)):
                h = mapping.get((k, g), _MISSING)
                if h is _MISSING:
                    return IdentityReport(False, (k, g, None, "missing"))
                t = where.get(h)
                if t is None:
                    return IdentityReport(False, (k, g, None, "image not a generator"))
                img.append(t)
                if k:
                    top = tops[t * w : t * w + w]
                    faces = tuple(map(below.__getitem__, rows[n * w : n * w + w]))
                    if top != faces:
                        i = next(i for i in range(w) if top[i] != faces[i])
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


def deletion_table(gens: Mapping[int, tuple]) -> dict:
    """The face table of tuple generators whose face d_i deletes entry i;
    an entry is -1 where that tuple is not a generator of the degree
    below, which :meth:`DeltaSet.from_table` reports."""
    table = {}
    for k, gs in gens.items():
        if k >= 1:
            pos = {g: n for n, g in enumerate(gens.get(k - 1, ()))}
            table[k] = tuple([pos.get(g[:i] + g[i + 1 :], -1) for g in gs for i in range(k + 1)])
    return table


def standard_delta(p: int, name=None) -> DeltaSet:
    """The Δ-set of the ordered complex Δ^p: generators are vertex tuples."""
    gens = {k: tuple(itertools.combinations(range(p + 1), k + 1)) for k in range(p + 1)}
    return DeltaSet.from_table(gens, deletion_table(gens), name or f"Delta^{p}")


def sd_standard_delta(p: int, name=None) -> DeltaSet:
    """Barycentric subdivision of Δ^p as a Δ-set.

    Generators in degree k are flags of nonempty subsets of {0..p}: tuples
    (F_0, ..., F_k) of vertex tuples with F_0 ⊂ F_1 ⊂ ... strictly.
    """
    subsets = []
    for r in range(1, p + 2):
        subsets.extend(itertools.combinations(range(p + 1), r))
    gens: dict[int, tuple] = {}
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
        chains = nxt
        k += 1
    return DeltaSet.from_table(gens, deletion_table(gens), name or f"sd Delta^{p}")


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


def check_horn_compatibility(face, p: int, j: int, assignment: Mapping[int, Hashable]):
    """The faces x_i of a Λ^p_j horn, read with face(s, i) = d_i s, must
    cover every i != j and satisfy d_i x_k = d_{k-1} x_i (i < k)."""
    idx = sorted(assignment)
    if idx != [i for i in range(p + 1) if i != j]:
        raise IncompatibleHornError(f"horn assignment must cover all i != {j}")
    for i, k in itertools.combinations(idx, 2):
        left, right = face(assignment[k], i), face(assignment[i], k - 1)
        if left != right:
            raise IncompatibleHornError((i, k, left, right))


def kan_fill(x: DeltaSet, p: int, j: int, assignment: Mapping[int, Hashable]):
    """Search for a p-generator whose faces match the horn assignment,
    comparing face positions in the face table.

    Returns the lexicographically least filler, or None after exhaustively
    visiting every p-generator.
    """
    where = {g: n for n, g in enumerate(x.gens(p - 1))}
    lower, below = x.table.get(p - 1), x.gens(p - 2)
    check_horn_compatibility(lambda s, i: below[lower[where[s] * p + i]], p, j, assignment)
    # a horn face that is no (p-1)-generator has no position and no filler
    want = [(i, where.get(s)) for i, s in assignment.items()]
    row, w = x.table.get(p, ()), p + 1
    fillers = [
        g for n, g in enumerate(x.gens(p)) if all(row[n * w + i] == t for i, t in want)
    ]
    return min(fillers, key=genkey, default=None)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


def records(text: str):
    """Yield (line number, whitespace-split fields) for each line of a
    plkernel text file that is neither blank nor a `#` comment: the one
    line rule of every file format."""
    for ln, fields in enumerate(map(str.split, text.splitlines()), 1):
        if fields and fields[0][0] != "#":
            yield ln, fields


def header(lines, word: str, error):
    """Split a file's records, as `records` yields them, into its header
    and the rest: (the header's line number, its fields, the remaining
    records).  The first record must be the header, and the rest yields
    no second one: the header rule of every file format."""
    lines = iter(lines)
    ln, fields = next(lines, (0, ("",)))
    if fields[0] != word:
        raise error(f"missing {word} header")

    def rest():
        for n, parts in lines:
            if parts[0] == word:
                raise error(f"line {n}: repeated header")
            yield n, parts

    return ln, fields, rest()


def numbers(ln, tokens, error, parse=int) -> tuple:
    """The number fields of line ln, each read by parse (int or a rational
    reader); a field that parse rejects is an error naming the line."""
    out = []
    for t in tokens:
        try:
            out.append(parse(t))
        except ValueError:
            raise error(f"line {ln}: bad number {t!r}") from None
    return tuple(out)


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
    error = DeltaStructureError
    _, fields, rest = header(records(text), "dset", error)
    name = " ".join(fields[1:]) or "X"
    gens: dict[int, dict] = {}  # degree -> {generator: None}, in file order
    faces = {}
    for ln, parts in rest:
        if parts[0] == "g" and len(parts) == 3:
            row = gens.setdefault(numbers(ln, parts[1:2], error)[0], {})
            if parts[2] in row:
                raise error(f"line {ln}: repeated generator {parts[2]!r} in degree {parts[1]}")
            row[parts[2]] = None
        elif parts[0] == "d" and len(parts) == 5:
            k, i = numbers(ln, (parts[1], parts[3]), error)
            key = (k, parts[2], i)
            if key in faces:
                raise error(f"line {ln}: repeated face line {' '.join(parts)!r}")
            faces[key] = parts[4]
        else:
            raise error(f"line {ln}: unexpected line {' '.join(parts)!r}")
    return DeltaSet({k: tuple(v) for k, v in gens.items()}, faces, name)


def dumps_morphism(f: DeltaMorphism, name: str = "f") -> str:
    lines = [f"map {name} {f.source.name} {f.target.name}"]
    for k in sorted(f.source.generators):
        for g in f.source.gens(k):
            lines.append(f"m {k} {_token(g)} {_token(f.mapping[(k, g)])}")
    return "\n".join(lines) + "\n"


def loads_morphism(text: str, sets: Mapping[str, DeltaSet]) -> DeltaMorphism:
    """A Δ-morphism file: `map <name> <source> <target>`, then one
    `m <degree> <generator> <image>` line per source generator, in the
    tokens of `dumps`; the Δ-sets are looked up by name in sets."""
    ln, fields, rest = header(records(text), "map", DeltaStructureError)
    if len(fields) != 4:
        raise DeltaStructureError(f"line {ln}: bad header")
    for name in fields[2:]:
        if name not in sets:
            raise DeltaStructureError(f"line {ln}: unknown Δ-set {name!r}")
    src, tgt = sets[fields[2]], sets[fields[3]]
    raw_map = {}  # (degree, source token) -> (line number, image token)
    for ln, parts in rest:
        if parts[0] == "m" and len(parts) == 4:
            key = (numbers(ln, parts[1:2], DeltaStructureError)[0], parts[2])
            if key in raw_map:
                raise DeltaStructureError(f"line {ln}: repeated image of {parts[2]!r} in degree {parts[1]}")
            raw_map[key] = ln, parts[3]
        else:
            raise DeltaStructureError(f"line {ln}: unexpected line {' '.join(parts)!r}")
    src_tok, tgt_tok = ({k: {_token(g): g for g in x.gens(k)} for k in x.generators} for x in (src, tgt))
    mapping = {}
    for (k, t), (ln, u) in raw_map.items():
        for x, tok, table in ((src, t, src_tok), (tgt, u, tgt_tok)):
            if tok not in table.get(k, ()):
                raise DeltaStructureError(f"line {ln}: {x.name} has no generator {tok!r} in degree {k}")
        mapping[(k, src_tok[k][t])] = tgt_tok[k][u]
    return DeltaMorphism(src, tgt, mapping)


def load(path) -> DeltaSet:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def dump(x: DeltaSet, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(x))
