"""Spans and counts recorded from outside plkernel.

The traced run replaces every module attribute that binds a listed
function (including `from ... import` re-bindings such as
`nerve.homology`) and the two listed methods with a wrapper that records
a span: name, start, end, parent span and verdict id.  Spans stay in
memory and are written out when the round ends.  A function's self time
is the duration of its spans minus the time covered by their child spans.

No layer has queues, threads or retries, so there is no waiting time or
retry count to record.
"""

from __future__ import annotations

import json
import sys
import time
from math import comb

# layer -> listed functions ("Class.method" for methods)
LAYERS = {
    "complexes": ("validate", "barycentric_subdivide", "EuclideanComplex.total_volume", "loads"),
    "polytope": ("intersect_simplices", "enumerate_basic_solutions", "placing_triangulation",
                 "hull_vertices", "chart_coordinates", "h_polytope_vertices"),
    "linalg": ("rank", "rref", "solve", "det", "affinely_independent", "barycentric_coordinates"),
    "lp": ("in_hull", "solve_lp"),
    "families": ("same_point_set", "pullback", "subdivision_lift", "transport_total",
                 "restrict_total", "reassemble", "check_family", "regular_fiber",
                 "horn_fill_family"),
    "homology": ("homology", "reduce_chain_complex", "smith_normal_form", "chain_complex_of",
                 "normalized_chains"),
    "prism": ("build_R", "build_R_map", "weak_chain_delta_set", "build_F", "k_map_of",
              "product_map_of", "sd_delta"),
    "delta": ("check_identities", "colimit", "kan_fill"),
    "simplicial": ("product", "compose_simplicial", "SimplicialMorphism.check",
                   "kan_fill_simplicial"),
    "nerve": ("nerve", "check_category"),
    "cli": ("main",),
}


def _validate_counts(counts, args, result):
    counts["complexes.validate.pairs"] += comb(len(args[0].maximal_simplices()), 2)
    counts["complexes.validate.rejected"] += not result.ok


def _bases_counts(counts, args, result):
    a_rows = args[0]
    if a_rows:
        counts["polytope.enumerate_basic_solutions.bases"] += comb(len(a_rows[0]), len(a_rows))
    counts["polytope.enumerate_basic_solutions.solutions"] += len(result)


def _same_counts(counts, args, result):
    counts["families.same_point_set.false"] += result is False


def _homology_counts(counts, args, result):
    counts["homology.cells"] += sum(args[0].ranks.values())


def _snf_counts(counts, args, result):
    matrix = args[0]
    counts["homology.smith_normal_form.entries"] += len(matrix) * (len(matrix[0]) if matrix else 0)


def _cli_counts(counts, args, result):
    counts[f"cli.main.exit_{result}"] += 1


# extra counts, each computed from a call's arguments and result
COUNTERS = {
    "complexes.validate": (_validate_counts, ("complexes.validate.pairs", "complexes.validate.rejected")),
    "polytope.enumerate_basic_solutions": (
        _bases_counts,
        ("polytope.enumerate_basic_solutions.bases", "polytope.enumerate_basic_solutions.solutions"),
    ),
    "families.same_point_set": (_same_counts, ("families.same_point_set.false",)),
    "homology.homology": (_homology_counts, ("homology.cells",)),
    "homology.smith_normal_form": (_snf_counts, ("homology.smith_normal_form.entries",)),
    "cli.main": (_cli_counts, ("cli.main.exit_0", "cli.main.exit_1", "cli.main.exit_2")),
}

SPANS = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]
EXTRA = [name for _, names in COUNTERS.values() for name in names]


def metric_names():
    """Per-layer metric names with their units, in report order."""
    out = []
    for span in SPANS:
        out.append((f"{span}.calls", "count"))
        out.append((f"{span}.self_s", "s"))
    out += [(name, "count") for name in EXTRA]
    out += [("trace.overhead_s", "s"), ("trace.spans", "count")]
    return out


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.calls = [0] * len(SPANS)
        self.self_ns = [0] * len(SPANS)
        self.counts = dict.fromkeys(EXTRA, 0)
        self.verdict = -1
        self._stack: list = []  # [span index, nanoseconds covered by children]

    def _wrap(self, idx: int, fn, counter):
        tracer = self
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = tracer._stack
            frame = [len(tracer.spans), 0]
            parent = stack[-1][0] if stack else -1
            tracer.spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                tracer.spans[frame[0]] = (idx, start, end, parent, tracer.verdict)
                tracer.calls[idx] += 1
                tracer.self_ns[idx] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if counter is not None:
                counter(tracer.counts, args, result)
            return result

        return traced

    def install(self):
        """Wrap every listed function wherever a plkernel module binds it."""
        wrappers = {}
        for idx, span in enumerate(SPANS):
            layer, _, name = span.partition(".")
            owner = sys.modules[f"plkernel.{layer}"]
            cls_name, _, method = name.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[method]
                setattr(cls, method, self._wrap(idx, fn, COUNTERS.get(span, (None,))[0]))
                continue
            fn = getattr(owner, name)
            wrappers[id(fn)] = (fn, self._wrap(idx, fn, COUNTERS.get(span, (None,))[0]))
        for modname, module in list(sys.modules.items()):
            if modname != "plkernel" and not modname.startswith("plkernel."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def layer_metrics(self) -> dict:
        out = {}
        for idx, span in enumerate(SPANS):
            out[f"{span}.calls"] = self.calls[idx]
            out[f"{span}.self_s"] = self.self_ns[idx] / 1e9
        out.update(self.counts)
        out["trace.spans"] = len(self.spans)
        return out

    def dump(self, path: str):
        """Spans as JSON lines after a header naming the spans:
        [name index, start_ns, end_ns, parent span index, verdict index]."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": SPANS}) + "\n")
            for idx, start, end, parent, verdict in self.spans:
                fh.write(f"[{idx},{start},{end},{parent},{verdict}]\n")
