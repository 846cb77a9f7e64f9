"""Earlier forms of library routines, kept as test oracles.

The dict-walking forms of the Δ-set builders and checks are the oracles
for the face-table forms in the library.  Each builder writes a faces
dict keyed by (degree, generator, i) and hands it to the validating
``DeltaSet`` constructor, which builds the table from it.

`raw_intersect_simplices` is the simplex clip on raw points, scaled to
integers over one joint denominator per call, for the integer-form
`polytope.intersect_simplices`, and `chart_volume` the Fraction volume of
a simplex in chart coordinates, for `polytope.simplex_volume`.
`on_fractions` calls the integer-form polytope routines with Fraction
points, as the tests that predate that form do.  `fraction_box_same_point_set`
is `families.same_point_set` with the Fraction bounding boxes it read
before it boxed integer coordinates.  `facet_pass` is the face-closure test
and the maximal simplices of `OrderedComplex` as they were computed before
`complexes._closure`, from the set of every facet of every simplex, and
`facet_closure` the closure reached by adding facets until none is new.
`probe_signature` is the combinatorial type of a simplicial map's fiber
that `families.regular_fiber` compared at `probe_points` before it built
one fiber and validated it.  `leibniz_det` and `determinantal_divisors`
read the Smith invariant factors off the minors of a matrix, for
`homology.smith_normal_form`."""

import itertools
from fractions import Fraction
from math import factorial, gcd, prod

from plkernel import delta, families, homology, linalg, nerve, polytope, prism
from plkernel.complexes import EuclideanComplex


def dict_check_identities(x):
    """check_identities on the faces dict, as it was before the face table:
    the same scan order, each face looked up by its generator's name."""
    faces = x.faces
    for k in sorted(x.generators):
        if k < 2:
            continue
        pairs = tuple(itertools.combinations(range(k + 1), 2))
        below = {h: [faces[(k - 1, h, i)] for i in range(k)] for h in x.gens(k - 1)}
        for g in x.gens(k):
            d = [below[faces[(k, g, i)]] for i in range(k + 1)]
            for i, j in pairs:
                if d[j][i] != d[i][j - 1]:
                    return delta.IdentityReport(False, (k, g, i, j))
    return delta.IdentityReport(True)


def dict_chain_complex_of(x):
    """chain_complex_of on the faces dict, as it was before the face table."""
    faces = x.faces
    signs = {k: [(i, (-1) ** i) for i in range(k + 1)] for k in range(x.dimension + 1)}
    return homology._chains(x.generators, lambda k, g: [(faces[(k, g, i)], c) for i, c in signs[k]])


def dict_morphism_check(f):
    """DeltaMorphism.check on the faces dicts: each face image looked up
    by name, in the same scan order."""
    targets = {k: set(gs) for k, gs in f.target.generators.items()}
    for k in sorted(f.source.generators):
        for g in f.source.gens(k):
            if (k, g) not in f.mapping:
                return delta.IdentityReport(False, (k, g, None, "missing"))
            if f.mapping[(k, g)] not in targets.get(k, ()):
                return delta.IdentityReport(False, (k, g, None, "image not a generator"))
            if k == 0:
                continue
            for i in range(k + 1):
                if f.target.face(k, f.mapping[(k, g)], i) != f.mapping[(k - 1, f.source.face(k, g, i))]:
                    return delta.IdentityReport(False, (k, g, i, "face"))
    return delta.IdentityReport(True)


def dict_nerve(c, max_degree=3):
    """nerve.nerve writing the faces dict."""
    mors = sorted(c.morphisms, key=delta.genkey)
    by_src = {}
    for g in mors:
        by_src.setdefault(c.src[g], []).append(g)
    gens = {
        0: tuple(sorted(c.objects, key=delta.genkey)),
        1: tuple((f,) for f in mors),
    }
    faces = {}
    for f in c.morphisms:
        faces[(1, (f,), 0)] = c.tgt[f]
        faces[(1, (f,), 1)] = c.src[f]
    level = [(s, s) for s in gens[1]]
    for k in range(2, max_degree + 1):
        grown = []
        for s, products in level:
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
                    faces[(k, t, 0)] = t[1:]
                    faces[(k, t, k)] = s
                    for i in range(1, k):
                        faces[(k, t, i)] = t[: i - 1] + (c.comp[(t[i - 1], t[i])],) + t[i + 1 :]
        level = grown
        gens[k] = tuple(t for t, _ in grown)
    x = delta.DeltaSet({k: v for k, v in gens.items() if v}, faces, name=f"N({c.name})")
    rep = delta.check_identities(x)
    if not rep:
        raise nerve.CategoryStructureError(f"nerve face identities fail: {rep.witness}")
    return x


def dict_weak_chain_delta_set(ec, max_degree):
    """prism.weak_chain_delta_set writing the faces dict."""
    gens = {}
    faces = {}
    for k in range(max_degree + 1):
        level = set()
        for s in ec.simplices:
            if len(s) > k + 1:
                continue
            for cuts in itertools.combinations(range(1, k + 1), len(s) - 1):
                bounds = (0,) + cuts + (k + 1,)
                chain = tuple(
                    s[t] for t in range(len(s)) for _ in range(bounds[t + 1] - bounds[t])
                )
                level.add(chain)
        gens[k] = tuple(sorted(level))
        if k >= 1:
            for c in gens[k]:
                for i in range(k + 1):
                    faces[(k, c, i)] = c[:i] + c[i + 1 :]
    return delta.DeltaSet(gens, faces, f"chains({ec.name})")


def dict_delta_set_of(k):
    """complexes.delta_set_of writing the faces dict."""
    base = k.base if isinstance(k, EuclideanComplex) else k
    gens = {}
    faces = {}
    for s in sorted(base.simplices, key=lambda s: (len(s), s)):
        d = len(s) - 1
        gens.setdefault(d, []).append(s)
        if d >= 1:
            for i in range(d + 1):
                faces[(d, s, i)] = s[:i] + s[i + 1 :]
    return delta.DeltaSet({d: tuple(v) for d, v in gens.items()}, faces, base.name)


def dict_sd_delta(x):
    """prism.sd_delta writing the faces dict keyed by the nested names."""
    rep = delta.check_identities(x)
    if not rep:
        raise delta.DeltaStructureError(f"sd needs the face identities: {rep.witness}")
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
    names, gens, faces, carrier, table = {}, {}, {}, {}, x.table
    for p in sorted(x.generators):
        names[p] = []
        for m, g in enumerate(x.gens(p)):
            pg, head = (p, g), f"(({p!r}, {delta.genkey(g)}), "
            own = [(pg, len(flag) - 1, flag) for flag, *_ in tables[p]]
            names[p].append(own)
            below = []
            for missing in cuts[p]:
                h, d = m, p
                for v in missing:
                    h, d = table[d][h * (d + 1) + v], d - 1
                below.append(names[d][h])
            for name, (flag, inner, last, tail) in zip(own, tables[p]):
                k = name[1]
                gens.setdefault(k, []).append((head + tail, name))
                carrier[name] = (p, g, flag)
                for i, n in enumerate(inner):
                    faces[(k, name, i)] = own[n]
                if last:
                    faces[(k, name, k)] = below[last[0]][last[1]]
    gens = {k: tuple(name for _, name in sorted(v, key=lambda e: e[0])) for k, v in gens.items()}
    return prism.SubdividedDeltaSet(delta.DeltaSet(gens, faces, f"sd {x.name}"), carrier)


def on_fractions(routine, *args):
    """Call an integer-form `polytope` routine with Fraction points: each
    list or set of points among args is scaled over one denominator
    (`polytope.homogeneous`), any other argument passes as it is, and the
    homogeneous points that come back are read as Fractions; placing's
    index tuples come back as they are."""
    args = [polytope.homogeneous(list(a)) if isinstance(a, (list, set)) else a for a in args]
    out = routine(*args)
    return out if routine is polytope.placing_triangulation else polytope.dehomogenize(out)


def raw_intersect_simplices(p_points, q_points, p_out=None, q_out=None):
    """`polytope.intersect_simplices` on raw points: both sides scaled to
    integers over one denominator, outputs over another, and the four
    independence tests run on every call."""
    P = [linalg.as_vec(p) for p in p_points]
    Q = [linalg.as_vec(q) for q in q_points]
    if not P or not Q:
        return []
    p_out = P if p_out is None else [linalg.as_vec(x) for x in p_out]
    q_out = [()] * len(Q) if q_out is None else [linalg.as_vec(x) for x in q_out]
    m = len(P)
    ipts, _ = linalg.integer_points(P + Q)
    joint = [x + (1,) for x in ipts[:m]] + [tuple(-c for c in x) + (-1,) for x in ipts[m:]]
    n = len(joint[0])
    units = [[int(i == t) for i in range(n)] for t in range(n)]
    outs, den = linalg.integer_points(p_out + q_out)
    p_cols, q_cols = list(zip(*outs[:m])), list(zip(*outs[m:]))
    pts = []
    for w in polytope._clip_simplex(joint, [], units):
        lam, mu = w[:m], w[m:]
        total = sum(lam) * den
        pts.append(
            tuple(Fraction(polytope._value(col, lam), total) for col in p_cols)
            + tuple(Fraction(polytope._value(col, mu), total) for col in q_cols)
        )

    def independent(ipts):
        return len(linalg.eliminate([list(x) + [1] for x in ipts])[0]) == len(ipts)

    if (independent(outs[:m]) and independent(ipts[m:])) or (
        independent(outs[m:]) and independent(ipts[:m])
    ):
        return sorted(pts)
    return on_fractions(polytope.hull_vertices, pts)


def chart_volume(chart_pts):
    """The volume of a full-dimensional simplex given by its chart
    coordinates: the Fraction determinant of its edge vectors over d!."""
    d = len(chart_pts) - 1
    if d == 0:
        return Fraction(1)
    x0 = chart_pts[0]
    diffs = [[a - b for a, b in zip(p, x0)] for p in chart_pts[1:]]
    return abs(linalg.det(diffs)) / factorial(d)


def fraction_box_same_point_set(a, b):
    """`families.same_point_set` with each simplex boxed on its Fraction
    points: the same scan, coverage sums and early exits."""
    if not a.base.vertices or not b.base.vertices:
        return not a.base.vertices and not b.base.vertices
    if a.ambient_dim != b.ambient_dim or a.dimension != b.dimension:
        return False
    a_cells, b_cells = set(a.cells.values()), set(b.cells.values())
    if a_cells == b_cells:
        return True
    d = a.dimension
    for src, other, other_cells in ((a, b, b_cells), (b, a, a_cells)):
        per_dim = {}
        for s in sorted(src.maximal_simplices()):
            if src.cells[s] in other_cells:
                continue
            k = len(s) - 1
            if k not in per_dim:
                pool = other.maximal_simplices() if k == d else sorted(other.base.simplices)
                per_dim[k] = (
                    polytope.integer_simplex([prism.delta_vertex(k, i) for i in range(k + 1)]),
                    [(t, polytope.bounding_box(other.points(t))) for t in pool if len(t) > k],
                )
            chart, around = per_dim[k]
            box = polytope.bounding_box(src.points(s))
            piece = src.integer_simplex(s)
            covered = 0
            for t, tbox in around:
                if not polytope.boxes_meet(box, tbox):
                    continue
                if len(t) > k + 1 and polytope.on_a_facet_wall(other.functionals(t), piece.points):
                    continue
                inter = polytope.intersect_simplices(piece, other.integer_simplex(t), chart)
                if len(inter) >= k + 1:
                    covered += families._chart_polytope_volume(inter, k)
                if covered == 1:
                    break
            if covered != 1:
                return False
    return True


def facet_pass(simplices):
    """(closed, maximal simplices) of a set of sorted vertex tuples from one
    set of every facet of every simplex: the set is closed iff each facet
    is in it (by induction on dimension, every face of s is then a facet of
    a facet ... of s), and then s is maximal iff it is no facet."""
    facets = {t[:i] + t[i + 1 :] for t in simplices if len(t) > 1 for i in range(len(t))}
    return facets <= simplices, tuple(sorted(simplices - facets))


def facet_closure(simplices):
    """The face closure of any vertex collections, grown a facet at a time."""
    closure = {tuple(sorted(s)) for s in simplices}
    new = closure
    while new:
        new = {t[:i] + t[i + 1 :] for t in new if len(t) > 1 for i in range(len(t))} - closure
        closure |= new
    return frozenset(closure)


def probe_signature(f, lam):
    """The fiber of f over lam's f-vector, its Betti numbers, and the vertex
    count of each non-empty piece, in the order of the source simplices."""
    acc = families._ComplexAccumulator(f.source.ambient_dim)
    point, no_output = polytope.integer_simplex([lam]), polytope.integer_simplex([()])
    shapes = []
    for s in f.source.maximal_simplices():
        verts = polytope.intersect_simplices(
            point, f.image_simplex(s), no_output, f.source.integer_simplex(s)
        )
        if verts:
            acc.add_polytope(verts)
            shapes.append((s, len(verts)))
    fiber = acc.build(name="fiber")
    betti = homology.homology_of_complex(fiber).betti_vector() if fiber.base.vertices else ()
    return fiber.f_vector(), betti, tuple(n for _, n in sorted(shapes))


def probe_points(target, lam):
    """(2/3)lam + (1/3)b_F for each face F of the target's one simplex,
    b_F the barycentre of F."""
    tpts = target.points(target.maximal_simplices()[0])
    points = []
    for r in range(1, len(tpts) + 1):
        for face in itertools.combinations(tpts, r):
            bf = [sum(x[j] for x in face) / len(face) for j in range(len(lam))]
            points.append(tuple(Fraction(2, 3) * x + Fraction(1, 3) * b for x, b in zip(lam, bf)))
    return points


def leibniz_det(matrix) -> int:
    """The determinant of a square integer matrix as a sum over permutations."""
    n = len(matrix)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
        total += (-1) ** inversions * prod(matrix[i][perm[i]] for i in range(n))
    return total


def determinantal_divisors(matrix) -> list[int]:
    """d_k, the gcd of all k×k minors, for k = 1 up to the rank: the product
    of the first k Smith invariant factors."""
    n, m = len(matrix), len(matrix[0])
    out = []
    for k in range(1, min(n, m) + 1):
        d = 0
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.combinations(range(m), k):
                d = gcd(d, leibniz_det([[matrix[i][j] for j in cols] for i in rows]))
        if not d:
            break
        out.append(d)
    return out
