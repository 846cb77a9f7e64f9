"""Acceptance gate: every top-level correctness criterion, one test each.

The eleven computational criteria run once (timed); the twelfth reruns
them and demands a byte-identical report.  Neither the demo nerve's dump
nor the `verify-suite --json` report may depend on the hash seed.
"""

import os
import subprocess
import sys
import time

import pytest

from plkernel import suite

_CACHE = {}


def _run_all():
    if "rows" not in _CACHE:
        rows, times = [], {}
        for name, fn in suite.CRITERIA:
            t0 = time.monotonic()
            ok, detail = fn()
            times[name] = time.monotonic() - t0
            rows.append((name, ok, detail))
        _CACHE["rows"] = rows
        _CACHE["times"] = times
    return _CACHE["rows"], _CACHE["times"]


def _lookup(name):
    rows, times = _run_all()
    for n, ok, detail in rows:
        if n == name:
            return ok, detail, times[name]
    raise KeyError(name)


def test_criterion_01_prism_triangulation():
    ok, detail, elapsed = _lookup("prism-triangulation")
    assert ok, detail
    assert elapsed < 30, f"took {elapsed:.1f}s"


def test_criterion_02_r1_counts():
    ok, detail, _ = _lookup("r1-counts")
    assert ok, detail


def test_criterion_03_cosimplicial_laws():
    ok, detail, _ = _lookup("cosimplicial-laws")
    assert ok, detail


def test_criterion_04_product_isomorphism():
    ok, detail, _ = _lookup("product-isomorphism")
    assert ok, detail


def test_criterion_05_subdivision_invariance():
    ok, detail, elapsed = _lookup("subdivision-invariance")
    assert ok, detail
    assert elapsed < 60, f"took {elapsed:.1f}s"


def test_criterion_06_subdivision_lift():
    ok, detail, _ = _lookup("subdivision-lift")
    assert ok, detail


def test_criterion_07_pullback_laws():
    ok, detail, _ = _lookup("pullback-laws")
    assert ok, detail


def test_criterion_08_regular_fibers():
    ok, detail, _ = _lookup("regular-fibers")
    assert ok, detail


def test_criterion_09_kan_filling():
    ok, detail, _ = _lookup("kan-filling")
    assert ok, detail


def test_criterion_10_nerve_axioms():
    ok, detail, _ = _lookup("nerve-axioms")
    assert ok, detail


def test_criterion_11_star_link_join():
    ok, detail, _ = _lookup("star-link-join")
    assert ok, detail


def test_criterion_12_determinism():
    rows, _ = _run_all()
    report_a = suite.render_report(rows)
    report_b = suite.render_report(suite.run_criteria())
    assert report_a == report_b


def test_criterion_12_nerve_dump_independent_of_hash_seed():
    # the demo cobordism category's morphisms hold frozensets, whose repr
    # lists their elements in hash order
    script = (
        "import hashlib\n"
        "from plkernel import delta, nerve\n"
        "x = nerve.nerve(nerve.demo_cobordism_category(), max_degree=3)\n"
        "print(hashlib.sha256(delta.dumps(x).encode()).hexdigest())\n"
    )
    src = os.path.dirname(os.path.dirname(suite.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = set()
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed}
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout)
    assert len(digests) == 1


def test_verify_suite_independent_of_hash_seed():
    # no cache or dict the kernel holds may carry an iteration order that
    # depends on the hash seed into a verdict
    src = os.path.dirname(os.path.dirname(suite.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = set()
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed}
        proc = subprocess.run(
            [sys.executable, "-m", "plkernel.cli", "verify-suite", "--json"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1
