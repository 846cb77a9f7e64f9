"""One round of one workload, in a fresh interpreter.

Started by run.py once per round, so module caches such as
prism._R_CACHE start empty every time.  Its inputs come from the
workload, the seed and the input set's index alone.  Set-up (import, input
generation, writing CLI input files) ends at the monotonic instant
reported as `setup_end`; the verdicts are then decided one after another
and each is timed, with speed probes between them (see run.py).  The
last line of standard output is one JSON object describing the round.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
PROBE_EVERY_S = 0.25


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode("utf-8")).hexdigest()


def speed_probe() -> float:
    """Seconds taken by a fixed piece of pure-Python work (exact fractions,
    tuples, a dict), the kind of work plkernel does."""
    start = time.perf_counter()
    acc = Fraction(0)
    table: dict = {}
    for i in range(1, 400):
        f = Fraction(i, 3 * i + 7) - Fraction(2, i + 1)
        acc += f * f
        key = tuple(sorted(((i * 7919) % 97, (i * 31) % 89, i % 13)))
        table[key] = table.get(key, 0) + 1
        acc -= sum(Fraction(j, i) for j in range(5)) / (i + 3)
    return time.perf_counter() - start


def decide_all(verdicts, tracer=None):
    """Decide every verdict in order; return (latencies, outcomes, failed
    ids, probes).

    A verdict fails on a wrong answer or on any exception, which counts as
    an answer nobody expected.  A speed probe runs before the first
    verdict, after every PROBE_EVERY_S of verdict time and after the last
    verdict, outside any verdict's timing; each probe is recorded as
    (index of the next verdict, seconds)."""
    latencies, outcomes, failed = [], [], []
    probes = [(0, speed_probe())]
    since_probe = 0.0
    clock = time.perf_counter
    for i, v in enumerate(verdicts):
        if tracer is not None:
            tracer.verdict = i
        start = clock()
        try:
            observed = v.decide()
            ok = observed == v.expected
        except Exception as exc:  # a defect in the program under test
            observed = ("exception", type(exc).__name__, str(exc)[:200])
            ok = False
        latency = clock() - start
        latencies.append(latency)
        since_probe += latency
        if since_probe >= PROBE_EVERY_S and i + 1 < len(verdicts):
            probes.append((i + 1, speed_probe()))
            since_probe = 0.0
        outcomes.append((v.id, repr(observed)))
        if not ok:
            failed.append(v.id)
    if tracer is not None:
        tracer.verdict = -1
    probes.append((len(verdicts), speed_probe()))
    return latencies, outcomes, failed, probes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--input-set", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", help="file for the traced round's spans")
    args = ap.parse_args(argv)

    sys.path.insert(0, HERE)
    import workloads

    verdicts, spec = workloads.build(args.workload, args.seed, args.input_set, args.size, args.workdir)
    setup_end = time.monotonic()

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    latencies, outcomes, failed, probes = decide_all(verdicts, tracer)

    result = {
        "setup_end": setup_end,
        "probes": probes,
        "latencies": latencies,
        "attempted": len(verdicts),
        "failed": failed,
        "input_digest": digest(spec),
        "verdict_digest": digest(outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
