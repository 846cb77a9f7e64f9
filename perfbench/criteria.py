"""One-shot, ungated timing of each acceptance criterion.

    python3 perfbench/criteria.py

Run from the root of a plkernel checkout.  Times suite.run_criteria([name])
for every criterion, in order and in one process, as `plkernel
verify-suite` runs them (so prism caches filled by one criterion serve
the next).  Prints one JSON object with the seconds and verdict of each
criterion and the run's context, and writes it to perfbench/out/.  It
takes about a minute and a half and is not part of the gated benchmark.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    sys.path.insert(0, HERE)
    import run

    root = run.checkout_root()
    if root is None:
        return 2
    for var in run.THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(root, "src"))
    from plkernel import suite

    rows = []
    start = time.perf_counter()
    for name, _ in suite.CRITERIA:
        t0 = time.perf_counter()
        [(_, ok, detail)] = suite.run_criteria([name])
        rows.append({"criterion": name, "ok": ok, "seconds": time.perf_counter() - t0, "detail": detail})
    record = {
        "context": run.machine_context(root),
        "total_s": time.perf_counter() - start,
        "criteria": rows,
    }
    os.makedirs(run.OUT, exist_ok=True)
    with open(os.path.join(run.OUT, "criteria.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
