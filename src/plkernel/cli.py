"""Command-line front end.

Exit codes: 0 success, 2 validity-check failure (a witness is printed),
1 structural or input error.  All rational parameters are parsed as p/q
or integers; floats are rejected.  Reports are plain text by default and
stable JSON with --json.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import complexes, delta, families, homology, nerve, prism, suite
from .complexes import EuclideanComplex

STRUCTURAL_ERRORS = (ValueError, KeyError, OSError)

# file kind, the first word of its first record -> the module that reads it
_READERS = {"complex": complexes, "dset": delta, "family": families, "category": nerve}


class FileKindError(ValueError):
    """A file of another kind than the command reads."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # input errors are structural (exit 1), never validity failures
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _emit(args, payload: dict, text: str):
    if args.json:
        print(json.dumps(payload, sort_keys=True, default=str))
    else:
        print(text)


def _write_or_print(args, content: str):
    out = getattr(args, "output", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(content)
    else:
        sys.stdout.write(content)


def _read(path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load(path, *kinds):
    """The object in a plkernel file, read by the module of its kind, which
    the first record's first word names; it must be one of kinds."""
    text = _read(path)
    kind = next(delta.records(text), (0, [""]))[1][0]
    if kind not in kinds:
        raise FileKindError(f"expected a {' or '.join(kinds)} file, not {kind!r}")
    return _READERS[kind].loads(text)


def _count(text: str) -> int:
    """A count option's value: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return int(text)


def _dimension(text: str) -> int:
    """A prism dimension: a count of at most `prism.DIMENSION_CAP`."""
    p = _count(text)
    if p > prism.DIMENSION_CAP:
        raise argparse.ArgumentTypeError(f"{p} outside the allowed range 0..{prism.DIMENSION_CAP}")
    return p


def _counts(text: str) -> tuple[int, ...]:
    """Comma-separated non-negative integers."""
    return tuple(map(_count, text.split(",")))


def _rational_point(text: str):
    return tuple(map(complexes.parse_rational, text.split(",")))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_validate(args):
    ec = _load(args.file, *_READERS)
    if isinstance(ec, delta.DeltaSet):
        rep = delta.check_identities(ec)
        witness = "" if rep.ok else str(rep.witness)
    else:
        # called through their modules, which a tracer may rebind
        if isinstance(ec, families.PolyhedralFamily):
            rep = families.check_family(ec)
        elif isinstance(ec, EuclideanComplex):
            rep = complexes.validate(ec)
        else:
            rep = nerve.check_category(ec)
        witness = "; ".join(map(str, rep.issues))
    ok = rep.ok
    payload = {"command": "validate", "ok": ok, "witness": witness}
    if ok:
        _emit(args, payload, f"valid: {args.file}")
        return 0
    _emit(args, payload, f"invalid: {witness}")
    return 2


def cmd_subdivide(args):
    ec = _load(args.file, "complex")
    for _ in range(args.rounds):
        ec = complexes.barycentric_subdivide(ec)
    _write_or_print(args, complexes.dumps(ec))
    return 0


def _counts_line(ec: EuclideanComplex) -> str:
    f = ec.f_vector()
    names = ["vertices", "edges", "triangles", "tetrahedra"]
    parts = [
        f"{names[k] if k < len(names) else f'{k}-simplices'}={f[k]}"
        for k in range(len(f))
    ]
    return " ".join(parts) + f" chi={ec.euler_characteristic()}"


def cmd_prism_r(args):
    r = prism.build_R(args.p)
    if args.counts:
        payload = {
            "command": "prism-r", "p": args.p,
            "f_vector": list(r.complex.f_vector()),
            "chi": r.complex.euler_characteristic(),
        }
        _emit(args, payload, _counts_line(r.complex))
        return 0
    _write_or_print(args, complexes.dumps(r.complex))
    return 0


def cmd_prism_k(args):
    k = prism.build_K(args.p)
    if args.counts:
        payload = {
            "command": "prism-k", "p": args.p,
            "f_vector": list(k.complex.f_vector()),
            "chi": k.complex.euler_characteristic(),
            "top_simplices": len(k.complex.maximal_simplices()),
        }
        _emit(args, payload, _counts_line(k.complex))
        return 0
    _write_or_print(args, complexes.dumps(k.complex))
    return 0


def cmd_rmap(args):
    try:
        m = prism.build_R_map(args.eta, args.p, args.q)
    except ValueError as exc:  # the parser bounds p and q, so eta is at fault
        raise ValueError(f"argument eta: {exc}") from None
    if not m.to_delta_morphism().check():
        payload = {"command": "rmap", "ok": False}
        _emit(args, payload, "rmap: face equivariance fails")
        return 2
    lines = [
        f"{v} -> {m.vertex_map[v]}" for v in sorted(m.vertex_map)
    ]
    payload = {
        "command": "rmap", "ok": True,
        "vertex_map": {str(v): m.vertex_map[v] for v in sorted(m.vertex_map)},
    }
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_pullback(args):
    w = _load(args.family, "family")
    src = _load(args.source, "complex")
    f = families.loads_map(_read(args.map), src, w.base)
    out = families.pullback(f, w)
    _write_or_print(args, families.dumps(out))
    return 0


def cmd_slice(args):
    w = _load(args.family, "family")
    fiber = families.slice_family(w, _rational_point(args.at))
    _write_or_print(args, complexes.dumps(fiber))
    return 0


def cmd_fiber(args):
    src = _load(args.source, "complex")
    at = _rational_point(args.at)
    target = families.standard_simplex_complex(len(at))
    f = families.loads_map(_read(args.map), src, target)
    cert = families.regular_fiber(f, at)
    payload = {
        "command": "fiber", "ok": cert.ok,
        "f_vector": list(cert.fiber.f_vector()),
    }
    text = (
        f"certificate={'pass' if cert.ok else 'fail'} "
        f"fiber f-vector={cert.fiber.f_vector()}"
    )
    _emit(args, payload, text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(complexes.dumps(cert.fiber))
    return 0 if cert.ok else 2


def cmd_hornfill(args):
    w = _load(args.family, "family")
    filled = families.horn_fill_family(w, args.p, args.j)
    _write_or_print(args, families.dumps(filled))
    return 0


def cmd_homology(args):
    obj = _load(args.file, "complex", "dset")
    if isinstance(obj, EuclideanComplex):
        h = homology.homology_of_complex(obj)
    else:
        homology.chains_of(obj)  # the face identities and ∂∂ = 0, or exit 1
        h = homology.homology_of_delta_set(obj)
    payload = {
        "command": "homology",
        "groups": {str(k): [h.betti(k), list(h.torsion(k))] for k in sorted(h.groups)},
    }
    _emit(args, payload, ", ".join(h.report().splitlines()))
    return 0


def cmd_nerve(args):
    c = _load(args.file, "category")
    rep = nerve.check_category(c)
    if not rep.ok:
        payload = {"command": "nerve", "ok": False, "issues": [str(i) for i in rep.issues]}
        _emit(args, payload, f"category axioms fail: {rep.issues[0]}")
        return 2
    n = nerve.nerve(c, max_degree=args.max_degree)
    if args.output:
        delta.dump(n, args.output)
    payload = {"command": "nerve", "ok": True, "f_vector": list(n.f_vector())}
    _emit(args, payload, f"nerve f-vector={n.f_vector()}")
    return 0


def cmd_verify_suite(args):
    rows = suite.run_suite()
    ok = all(row_ok for _, row_ok, _ in rows)
    if args.json:
        table = [{"criterion": name, "ok": row_ok} for name, row_ok, _ in rows]
        print(json.dumps({"command": "verify-suite", "ok": ok, "rows": table}, sort_keys=True))
    else:
        sys.stdout.write(suite.render_report(rows))
    return 0 if ok else 2


def cmd_export_off(args):
    ec = _load(args.file, "complex")
    _write_or_print(args, prism.export_off(ec, digits=args.digits))
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process on first use.

    parse_args leaves a parser unchanged, so every call shares this one;
    callers must not change it."""
    p = _Parser(prog="plkernel", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, report=False, **kw):
        """A subcommand; one that prints a report can print it as JSON."""
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        if report:
            sp.add_argument("--json", action="store_true", help="JSON report output")
        return sp

    sp = add("validate", cmd_validate, report=True, help="check a complex or family")
    sp.add_argument("file")

    sp = add("subdivide", cmd_subdivide, help="barycentric subdivision")
    sp.add_argument("file")
    sp.add_argument("-r", "--rounds", type=_count, default=1)
    sp.add_argument("-o", "--output")

    sp = add("prism-r", cmd_prism_r, report=True, help="ordered prism triangulation")
    sp.add_argument("p", type=_dimension)
    sp.add_argument("--counts", action="store_true")
    sp.add_argument("-o", "--output")

    sp = add("prism-k", cmd_prism_k, report=True, help="chain triangulation of the prism")
    sp.add_argument("p", type=_dimension)
    sp.add_argument("--counts", action="store_true")
    sp.add_argument("-o", "--output")

    sp = add("rmap", cmd_rmap, report=True, help="prism map induced by a monotone map")
    sp.add_argument("p", type=_dimension)
    sp.add_argument("q", type=_dimension)
    sp.add_argument("eta", type=_counts, help="comma-separated values of the monotone map")

    sp = add("pullback", cmd_pullback, help="base change of a family")
    sp.add_argument("family")
    sp.add_argument("source")
    sp.add_argument("map")
    sp.add_argument("-o", "--output")

    sp = add("slice", cmd_slice, help="fiber of a family over a base point")
    sp.add_argument("family")
    sp.add_argument("at", help="comma-separated rational coordinates")
    sp.add_argument("-o", "--output")

    sp = add("fiber", cmd_fiber, report=True, help="regular-value fiber, checked to be a valid complex")
    sp.add_argument("source")
    sp.add_argument("map")
    sp.add_argument("--at", required=True, help="comma-separated rational coordinates")
    sp.add_argument("-o", "--output")

    sp = add("hornfill", cmd_hornfill, help="extend a family over a horn to the simplex")
    sp.add_argument("family")
    sp.add_argument("p", type=_count)
    sp.add_argument("j", type=_count)
    sp.add_argument("-o", "--output")

    sp = add("homology", cmd_homology, report=True, help="integral homology report")
    sp.add_argument("file")

    sp = add("nerve", cmd_nerve, report=True, help="nerve of a finite non-unital category")
    sp.add_argument("file")
    sp.add_argument("--max-degree", type=_count, default=3)
    sp.add_argument("-o", "--output")

    add("verify-suite", cmd_verify_suite, report=True, help="run every acceptance check")

    sp = add("export-off", cmd_export_off, help="OFF mesh export (lossy decimals)")
    sp.add_argument("file")
    sp.add_argument("--digits", type=_count, default=12)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except STRUCTURAL_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
