"""Integral simplicial homology via Smith normal form.

Every chain complex (of a Δ-set, d = Σ (-1)^i d_i; the normalized chains
of a simplicial set; the total complex of a bi-Δ-set; a reduced complex)
comes from one builder, `_chains`, on generators and signed faces.  Large
inputs are first shrunk by unit-pivot Gaussian reduction on the boundary
matrices, which preserves homology exactly; the surviving small matrices
go through a certified Smith normal form (U A V = D with unimodular U, V,
checked by multiplication).

There are two routes to `homology`.  Normalized chains and total
complexes go there whole.  A Δ-set is first coreduced on its face table
(`_coreduce`), and only its survivors, restricted to surviving faces, go
on.  Coreduction is exact because each pair it removes is a unit pivot of
`_reduce_matrix` whose correction term is zero: a cell whose one
surviving face has coefficient ±1 (a coreduction), or a cell whose one
surviving coface has coefficient ±1 (a collapse); what is left is the
restriction of the chains to the survivors.  A vertex is taken as a seed
only when no such pair is left, so the surviving d_1 is augmented (every
column is v - w, or zero) and the seed splits off one free Z from H_0.
A survivor with no surviving face or coface splits off one free Z alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from . import complexes
from .delta import DeltaSet, check_identities


@dataclass(frozen=True)
class ChainComplex:
    """Finitely generated chain complex of free abelian groups.

    ranks[k] is the rank of C_k; boundaries[k] maps C_k -> C_{k-1},
    stored column-major as {col: {row: coeff}} with zero columns omitted.
    """

    ranks: Mapping[int, int]
    boundaries: Mapping[int, Mapping[int, Mapping[int, int]]]

    @property
    def top_degree(self) -> int:
        return max(self.ranks, default=-1)


class ChainComplexError(ValueError):
    pass


def chains_of(x: DeltaSet) -> ChainComplex:
    """Chain complex of a Δ-set, with the semi-simplicial identities and
    ∂∂ = 0 verified up front."""
    rep = check_identities(x)
    if not rep:
        raise ChainComplexError(f"face identities fail: {rep.witness}")
    cc = chain_complex_of(x)
    for k in range(2, x.dimension + 1):
        upper = cc.boundaries.get(k, {})
        lower = cc.boundaries.get(k - 1, {})
        for j, col in upper.items():
            acc: dict[int, int] = {}
            for r, c in col.items():
                for r2, c2 in lower.get(r, {}).items():
                    acc[r2] = acc.get(r2, 0) + c * c2
            if any(acc.values()):
                raise ChainComplexError(f"boundary squared nonzero at degree {k}, column {j}")
    return cc


def chain_complex_of(x: DeltaSet) -> ChainComplex:
    """The chains of x on generator positions, read from its face table."""
    table = x.table
    signs = [(-1) ** i for i in range(x.dimension + 1)]
    return _chains(
        {k: range(len(gs)) for k, gs in x.generators.items()},
        lambda k, n: zip(table[k][n * (k + 1) : (n + 1) * (k + 1)], signs),
    )


def _chains(gens: Mapping[int, tuple], terms) -> ChainComplex:
    """The chain complex on gens[k] in each degree k, where terms(k, g) is
    the list of (face generator, coefficient) pairs of the boundary of g.
    Coefficients of a repeated face add up, and zero entries are dropped;
    every degree up to the top one has a rank and, from 1, a boundary."""
    top = max(gens, default=-1)
    # range(n) generators are positions, indexed by the identity list, unhashed
    index = [gens.get(k, ()) for k in range(top + 1)]
    index = [list(g) if isinstance(g, range) else {x: i for i, x in enumerate(g)} for g in index]
    boundaries = {}
    for k in range(1, top + 1):
        rows = index[k - 1]
        cols = {}
        for j, g in enumerate(index[k]):
            col: dict[int, int] = {}
            for h, c in terms(k, g):
                r = rows[h]
                col[r] = col.get(r, 0) + c
            col = {r: c for r, c in col.items() if c}
            if col:
                cols[j] = col
        boundaries[k] = cols
    return ChainComplex({k: len(gs) for k, gs in enumerate(index)}, boundaries)


# ---------------------------------------------------------------------------
# unit-pivot reduction
# ---------------------------------------------------------------------------


class _Sparse:
    """Mutable sparse matrix with row and column indices."""

    def __init__(self, cols: Mapping[int, Mapping[int, int]]):
        self.cols = {j: dict(c) for j, c in cols.items()}
        self.rows: dict[int, set[int]] = {}
        for j, c in self.cols.items():
            for r in c:
                self.rows.setdefault(r, set()).add(j)

    def delete_row(self, r):
        for j in self.rows.pop(r, ()):  # noqa: B020
            self.cols[j].pop(r, None)
            if not self.cols[j]:
                del self.cols[j]

    def delete_col(self, j):
        for r in self.cols.pop(j, ()):
            s = self.rows.get(r)
            if s is not None:
                s.discard(j)
                if not s:
                    del self.rows[r]

    def add_multiple(self, dst, src, factor):
        """column dst += factor * column src."""
        dcol = self.cols.setdefault(dst, {})
        for r, v in self.cols.get(src, {}).items():
            nv = dcol.get(r, 0) + factor * v
            if nv:
                dcol[r] = nv
                self.rows.setdefault(r, set()).add(dst)
            elif r in dcol:
                del dcol[r]
                s = self.rows.get(r)
                if s is not None:
                    s.discard(dst)
                    if not s:
                        del self.rows[r]
        if not dcol:
            self.cols.pop(dst, None)


def _reduce_matrix(m: _Sparse) -> tuple[list[int], list[int]]:
    """Eliminate ±1 pivots; returns (deleted_rows, deleted_cols)."""
    dead_rows, dead_cols = [], []
    changed = True
    while changed:
        changed = False
        for b in sorted(m.cols):
            col = m.cols.get(b)
            if not col:
                continue
            pivot = None
            for r, v in col.items():
                if v == 1 or v == -1:
                    w = len(m.rows.get(r, ()))
                    if pivot is None or w < pivot[0]:
                        pivot = (w, r, v)
            if pivot is None:
                continue
            _, a, eps = pivot
            for x in list(m.rows.get(a, ())):
                if x == b:
                    continue
                coef = -m.cols[x][a] * eps  # eps = ±1, so eps^{-1} = eps
                m.add_multiple(x, b, coef)
            m.delete_row(a)
            m.delete_col(b)
            dead_rows.append(a)
            dead_cols.append(b)
            changed = True
    return dead_rows, dead_cols


def reduce_chain_complex(cc: ChainComplex) -> ChainComplex:
    """Homology-preserving reduction by unit-pivot elimination.

    Eliminating a ±1 entry of d_k removes one generator each from C_k and
    C_{k-1}; only d_k needs a correction term, the adjacent boundaries
    just lose a row / column.
    """
    top = cc.top_degree
    mats = {k: _Sparse(cc.boundaries.get(k, {})) for k in range(1, top + 1)}
    alive = {k: set(range(cc.ranks.get(k, 0))) for k in range(top + 1)}
    for k in range(1, top + 1):
        dead_rows, dead_cols = _reduce_matrix(mats[k])
        alive[k - 1] -= set(dead_rows)
        alive[k] -= set(dead_cols)
        if k >= 2:
            for r in dead_rows:
                mats[k - 1].delete_col(r)
        if k + 1 in mats:
            for c in dead_cols:
                mats[k + 1].delete_row(c)

    # compact indices: the survivors, renumbered in order
    gens = {k: sorted(alive[k]) for k in range(top + 1)}
    return _chains(gens, lambda k, j: mats[k].cols.get(j, {}).items())


# ---------------------------------------------------------------------------
# coreduction on the face table
# ---------------------------------------------------------------------------


def _coreduce(x: DeltaSet) -> tuple[ChainComplex, list[int]]:
    """Coreduction of the chains of x (Mrozek & Batko, *Discrete Comput.
    Geom.* 41, 2009), read off its face table: the chains of the generators
    that survive, restricted to surviving faces, and by degree the number
    of free Z split off, one for each vertex taken as a seed and one for
    each survivor left with no surviving face or coface.

    Cells are numbered degree after degree.  A FIFO queue holds the cells
    whose count of surviving faces or cofaces has fallen to one; a popped
    cell goes with that face (a coreduction) or that coface (a collapse)
    when their coefficient is ±1.  Only then is the pair a unit pivot with
    no correction term.  When the queue is empty the lowest surviving
    vertex is removed as a seed.
    """
    table = x.table
    top = x.dimension
    signs = [(-1) ** i for i in range(top + 1)]
    start = [0]
    for k in range(top + 1):
        start.append(start[-1] + len(x.gens(k)))
    total, nverts = start[-1], start[min(1, top + 1)]
    # faces[z]: the cells with a nonzero coefficient in the boundary of z, d_0
    # first; a cell whose faces repeat keeps its summed coefficients in mixed
    faces: list = [()] * nverts
    mixed: dict[int, dict[int, int]] = {}
    cofaces: list[list[int]] = [[] for _ in range(total)]
    for k in range(1, top + 1):
        base, w = start[k - 1], k + 1
        cells = zip(*[iter([h + base for h in table.get(k, ())])] * w)
        for z, fs in enumerate(cells, start[k]):
            if len(set(fs)) < w:
                col: dict[int, int] = {}
                for h, c in zip(fs, signs):
                    col[h] = col.get(h, 0) + c
                col = mixed[z] = {h: c for h, c in col.items() if c}
                fs = tuple(col)
            faces.append(fs)
            for h in fs:
                cofaces[h].append(z)
    nfaces = [len(fs) for fs in faces]
    ncofaces = [len(cs) for cs in cofaces]
    alive = bytearray(b"\x01") * total
    queue = [z for z in range(total) if nfaces[z] == 1 or ncofaces[z] == 1]
    free = [0] * (top + 1)
    head = vertex = 0
    while True:
        if head < len(queue):
            z = queue[head]
            head += 1
            if not alive[z]:
                continue
            pair = ()
            if nfaces[z] == 1:
                for i, a in enumerate(faces[z]):
                    if alive[a]:
                        break
                c = mixed[z][a] if z in mixed else signs[i]
                if c == 1 or c == -1:
                    pair = (a, z)
            if not pair and ncofaces[z] == 1:
                for b in cofaces[z]:
                    if alive[b]:
                        break
                c = mixed[b][z] if b in mixed else signs[faces[b].index(z)]
                if c == 1 or c == -1:
                    pair = (z, b)
            if not pair:
                continue
        else:
            # every surviving d_1 column is now v - w on surviving vertices, or
            # empty, so the augmentation splits one Z off at any vertex
            while vertex < nverts and not alive[vertex]:
                vertex += 1
            if vertex == nverts:
                break
            free[0] += 1
            pair = (vertex,)
        for z in pair:
            alive[z] = 0
        for z in pair:
            for h in faces[z]:
                if alive[h]:
                    ncofaces[h] -= 1
                    if ncofaces[h] == 1:
                        queue.append(h)
            for b in cofaces[z]:
                if alive[b]:
                    nfaces[b] -= 1
                    if nfaces[b] == 1:
                        queue.append(b)

    def terms(k, z):
        col = mixed.get(z)
        if col is None:
            return [(h, c) for h, c in zip(faces[z], signs) if alive[h]]
        return [(h, c) for h, c in col.items() if alive[h]]

    survivors = {}
    for k in range(top + 1):
        cells = [z for z in range(start[k], start[k + 1]) if alive[z]]
        survivors[k] = [z for z in cells if nfaces[z] or ncofaces[z]]
        free[k] += len(cells) - len(survivors[k])
    return _chains(survivors, terms), free


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmithForm:
    d: tuple[tuple[int, ...], ...]
    u: tuple[tuple[int, ...], ...]
    v: tuple[tuple[int, ...], ...]
    diagonal: tuple[int, ...]  # nonzero invariant factors d_1 | d_2 | ...

    @property
    def rank(self) -> int:
        return len(self.diagonal)


def _mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        for t in range(k):
            v = ai[t]
            if v:
                bt = b[t]
                row = out[i]
                for j in range(m):
                    row[j] += v * bt[j]
    return out


def smith_normal_form(matrix) -> SmithForm:
    """Smith normal form with unimodular certificate, U A V = D.

    Pivots are chosen by minimum absolute value to limit growth.  The
    identity U A V = D is verified by multiplication; ArithmeticError is
    raised if it fails.
    """
    a = [list(map(int, row)) for row in matrix]
    n = len(a)
    m = len(a[0]) if a else 0
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    v = [[int(i == j) for j in range(m)] for i in range(m)]
    t = 0
    while True:
        pivot = None
        for i in range(t, n):
            for j in range(t, m):
                if a[i][j] and (pivot is None or abs(a[i][j]) < pivot[0]):
                    pivot = (abs(a[i][j]), i, j)
        if pivot is None:
            break
        _, pi, pj = pivot
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
            for row in v:
                row[t], row[pj] = row[pj], row[t]
        dirty = False
        for i in range(t + 1, n):
            if a[i][t]:
                q = a[i][t] // a[t][t]
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[t])]
                if a[i][t]:
                    dirty = True
        for j in range(t + 1, m):
            if a[t][j]:
                q = a[t][j] // a[t][t]
                if q:
                    for row in a:
                        row[j] -= q * row[t]
                    for row in v:
                        row[j] -= q * row[t]
                if a[t][j]:
                    dirty = True
        if dirty:
            continue  # re-pick a smaller pivot in the same block
        # divisibility: a[t][t] must divide everything below-right
        bad = None
        for i in range(t + 1, n):
            for j in range(t + 1, m):
                if a[i][j] % a[t][t]:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
            u[t] = [x + y for x, y in zip(u[t], u[bad])]
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    diag = tuple(a[i][i] for i in range(t))
    if _mat_mul(_mat_mul(u, [list(r) for r in matrix]), v) != a:
        raise ArithmeticError("Smith certificate failed")
    return SmithForm(
        tuple(tuple(r) for r in a),
        tuple(tuple(r) for r in u),
        tuple(tuple(r) for r in v),
        diag,
    )


# ---------------------------------------------------------------------------
# homology
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HomologyProfile:
    """Betti numbers and torsion coefficients by degree."""

    groups: Mapping[int, tuple[int, tuple[int, ...]]]  # k -> (betti, torsion)

    def betti(self, k: int) -> int:
        return self.groups.get(k, (0, ()))[0]

    def torsion(self, k: int) -> tuple[int, ...]:
        return self.groups.get(k, (0, ()))[1]

    def betti_vector(self) -> tuple[int, ...]:
        top = max(self.groups, default=-1)
        return tuple(self.betti(k) for k in range(top + 1))

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * b for k, (b, _) in self.groups.items())

    def describe(self, k: int) -> str:
        b, tor = self.groups.get(k, (0, ()))
        parts = []
        if b == 1:
            parts.append("Z")
        elif b > 1:
            parts.append(f"Z^{b}")
        parts.extend(f"Z/{t}" for t in tor)
        return " ⊕ ".join(parts) if parts else "0"

    def report(self) -> str:
        top = max(self.groups, default=-1)
        return "\n".join(f"H_{k} = {self.describe(k)}" for k in range(top + 1))

    def __eq__(self, other):
        if not isinstance(other, HomologyProfile):
            return NotImplemented
        keys = set(self.groups) | set(other.groups)
        return all(
            self.groups.get(k, (0, ())) == other.groups.get(k, (0, ()))
            for k in keys
        )

    def __hash__(self):
        return hash(tuple(sorted((k, v) for k, v in self.groups.items() if v != (0, ()))))


def profile(groups: Mapping[int, tuple[int, tuple[int, ...]]]) -> HomologyProfile:
    return HomologyProfile(dict(groups))


def _dense(cols, nrows, ncols):
    out = [[0] * ncols for _ in range(nrows)]
    for j, col in cols.items():
        for r, val in col.items():
            out[r][j] = val
    return out


def homology(cc: ChainComplex) -> HomologyProfile:
    """Integral homology H_k = ker d_k / im d_{k+1} for all degrees."""
    cc = reduce_chain_complex(cc)
    top = cc.top_degree
    snf = {}
    for k in range(1, top + 1):
        nrows, ncols = cc.ranks.get(k - 1, 0), cc.ranks.get(k, 0)
        if nrows and ncols:
            snf[k] = smith_normal_form(_dense(cc.boundaries.get(k, {}), nrows, ncols))
        else:
            snf[k] = None
    groups = {}
    for k in range(top + 1):
        rank_k = cc.ranks.get(k, 0)
        r_dk = snf[k].rank if snf.get(k) else 0
        up = snf.get(k + 1)
        r_dk1 = up.rank if up else 0
        betti = rank_k - r_dk - r_dk1
        torsion = tuple(d for d in (up.diagonal if up else ()) if d > 1)
        groups[k] = (betti, torsion)
    return HomologyProfile(groups)


def normalized_chains(x) -> ChainComplex:
    """Normalized chain complex of a simplicial set presented by its
    nondegenerate generators; faces landing on degenerate simplices
    contribute zero."""
    faces = x.faces
    signs = {k: [(i, (-1) ** i) for i in range(k + 1)] for k in range(x.dimension + 1)}

    def terms(k, g):
        out = []
        for i, c in signs[k]:
            word, h = faces[(k, g, i)]
            if not word:
                out.append((h, c))
        return out

    return _chains(x.generators, terms)


def homology_of_simplicial(x) -> HomologyProfile:
    return homology(normalized_chains(x))


def homology_of_delta_set(x: DeltaSet) -> HomologyProfile:
    """Homology of the chains of x: `homology` of what `_coreduce` leaves,
    plus the free Z it split off in each degree."""
    cc, free = _coreduce(x)
    groups = homology(cc).groups
    return HomologyProfile({k: (betti + free[k], torsion) for k, (betti, torsion) in groups.items()})


def homology_of_complex(k) -> HomologyProfile:
    return homology_of_delta_set(complexes.delta_set_of(k))
