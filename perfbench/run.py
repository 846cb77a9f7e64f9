"""plkernel verdict benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a plkernel checkout.  One caller in a closed loop:
rounds of the workload run one after another, each in a fresh
interpreter (worker.py) with BLAS and OpenMP pools pinned to one thread,
until S seconds have passed and each of the INPUT_SETS input sets has
run at least once.  Round r decides input set r % INPUT_SETS, whose
inputs come from (workload, seed, set) alone: the same seed gives the
same inputs, and every run covers the same input sets, however many
rounds fit in S seconds.

Every time is reported at the reference speed: the worker runs a fixed
speed probe between verdicts, and each time is multiplied by PROBE_REF_S
over the probe time measured around it (see scaled_latencies).  On a
shared machine the CPU speed drifts by up to 1.7x over seconds to
minutes; the probes see the same drift as the verdicts, so the scaled
times cancel most of it.  The unscaled figures are kept in the context
line.

--trace 0 reports the end-to-end metrics: set-up time, the time to
decide every verdict, the median and 90th-percentile verdict latency,
and peak memory.  --trace 1 runs each round twice, untraced then traced,
checks that both decide the same verdicts (digest), and reports
per-layer calls, self time and counts, and the tracing overhead.  Each
metric is a per-round figure, taken as the median over the rounds of
one input set and then averaged over the input sets.

The last line of standard output is the result; the line before it is
the run's context (machine, versions, seed, input digest, lines of src/).
The exit code is 0 when every verdict was right, 1 otherwise, and 2
outside a plkernel checkout.
"""

from __future__ import annotations

import argparse
import bisect
import glob
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import worker  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")
INPUT_SETS = 6
# Typical speed-probe time (worker.speed_probe) on the 2-vCPU Intel Xeon
# VM the benchmark was tuned on.
PROBE_REF_S = 0.0175
ROUND_TIMEOUT_S = 170
WORKLOADS = ("triangulate", "pointset", "combinatorics", "reject")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class RoundError(RuntimeError):
    pass


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_round(args, env, round_index: int, trace: int, workdir: str) -> dict:
    spans = None
    if trace:
        spans = os.path.join(OUT, f"spans-{args.workload}-{args.seed}-r{round_index}.jsonl")
    input_set = round_index % INPUT_SETS
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--input-set", str(input_set), "--size", args.size, "--trace", str(trace),
           "--workdir", workdir]
    if spans:
        cmd += ["--spans", spans]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RoundError(f"round {round_index} exceeded {ROUND_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise RoundError(f"round {round_index} exited {proc.returncode}:\n{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["input_set"] = input_set
    res["traced"] = bool(trace)
    res["setup_s"] = res["setup_end"] - t0
    res["speed"] = PROBE_REF_S / statistics.fmean(t for _, t in res["probes"])
    res["scaled_latencies"] = scaled_latencies(res["latencies"], res["probes"])
    return res


def scaled_latencies(latencies, probes):
    """Each verdict latency times PROBE_REF_S over the mean of the two
    probes that bracket the verdict.  The machine's speed also changes
    within a round, so the nearest probes track it better than the
    round's mean."""
    at = [i for i, _ in probes]
    out = []
    for i, latency in enumerate(latencies):
        j = bisect.bisect_right(at, i) - 1
        out.append(latency * 2 * PROBE_REF_S / (probes[j][1] + probes[j + 1][1]))
    return out


def p90(values):
    """90th percentile, interpolated between the two nearest ranks: a round's
    slowest verdicts are few and far apart, and the nearest rank alone
    would jump between them."""
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def over_sets(rounds, figure):
    """Median of a per-round figure over the rounds of each input set,
    averaged over the input sets."""
    per_set = {}
    for r in rounds:
        per_set.setdefault(r["input_set"], []).append(figure(r))
    return statistics.fmean(statistics.median(v) for v in per_set.values())


def round_figures(r, scaled=True) -> dict:
    """A round's end-to-end figures, at the reference speed if `scaled`.
    Set-up runs before the first probe, so it takes the round's mean
    speed."""
    latencies = r["scaled_latencies"] if scaled else r["latencies"]
    return {
        "setup_s": (r["speed"] if scaled else 1.0) * r["setup_s"],
        "wall_s": sum(latencies),
        "verdict_p50_ms": 1e3 * statistics.median(latencies),
        "verdict_p90_ms": 1e3 * p90(latencies),
        "peak_rss_mb": r["peak_rss_mb"],
    }


UNITS = {"setup_s": "s", "wall_s": "s", "verdict_p50_ms": "ms", "verdict_p90_ms": "ms", "peak_rss_mb": "MB"}


def end_to_end(rounds, scaled=True) -> dict:
    figures = {id(r): round_figures(r, scaled) for r in rounds}
    return {name: {"value": over_sets(rounds, lambda r: figures[id(r)][name]), "unit": unit}
            for name, unit in UNITS.items()}


def per_layer(pairs) -> dict:
    """Per-layer figures of the traced rounds; times at the reference
    speed, by the round's mean speed (spans are not bracketed by probes)."""
    import tracing

    traced = [t for _, t in pairs]
    out = {}
    for name, unit in tracing.metric_names():
        if name == "trace.overhead_s":
            def overhead(t):
                return sum(t["scaled_latencies"]) - sum(t["untraced"]["scaled_latencies"])

            value = over_sets(traced, overhead)
        elif unit == "s":
            value = over_sets(traced, lambda t: t["speed"] * t["layers"][name])
        else:
            value = over_sets(traced, lambda t: t["layers"][name])
        out[name] = {"value": value, "unit": unit}
    return out


def src_lines(root: str) -> int:
    total = 0
    for path in glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def git_commit(root: str):
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine_context(root) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": git_commit(root),
        "src_lines": src_lines(root),
    }


def context(args, root, rounds) -> dict:
    set_digests = {r["input_set"]: r["input_digest"] for r in rounds}
    untraced = [r for r in rounds if not r["traced"]]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "rounds": len(rounds),
        "input_sets": INPUT_SETS,
        "input_digest": worker.digest([set_digests[k] for k in sorted(set_digests)]),
        "speed": over_sets(untraced, lambda r: r["speed"]),
        "unscaled": {name: m["value"] for name, m in end_to_end(untraced, scaled=False).items()},
        **machine_context(root),
    }


def checkout_root():
    """The current directory if it is the root of a plkernel checkout,
    else None after an error message."""
    root = os.getcwd()
    if os.path.isfile(os.path.join(root, "src", "plkernel", "complexes.py")):
        return root
    print("error: run from the root of a plkernel checkout (src/plkernel not found)", file=sys.stderr)
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a few verdicts per round, for the self-tests")
    args = ap.parse_args(argv)

    root = checkout_root()
    if root is None:
        return 2
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    env = child_env(root)
    start = time.monotonic()
    rounds, pairs = [], []
    try:
        r = 0
        while r < INPUT_SETS or time.monotonic() - start < args.seconds:
            plain = run_round(args, env, r, 0, workdir)
            rounds.append(plain)
            if args.trace:
                traced = run_round(args, env, r, 1, workdir)
                traced["untraced"] = plain
                rounds.append(traced)
                pairs.append((plain, traced))
            r += 1
    except RoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [vid for res in rounds for vid in res["failed"]]
    same = all(u["verdict_digest"] == t["verdict_digest"] for u, t in pairs)
    if not same:
        print("error: traced and untraced rounds decided different verdicts", file=sys.stderr)
    if failed:
        print(f"failed verdicts: {sorted(set(failed))[:20]}", file=sys.stderr)
    metrics = per_layer(pairs) if args.trace else end_to_end(rounds)
    ctx = context(args, root, rounds)
    result = {
        "correct": not failed and same,
        "attempted": sum(res["attempted"] for res in rounds),
        "failed": len(failed),
        "metrics": metrics,
    }
    with open(os.path.join(OUT, "results.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"context": ctx, **result}) + "\n")
    print(json.dumps({"context": ctx}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
