import json
import os
import subprocess
import sys

import pytest

from plkernel import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _env(**extra):
    """The environment of a subprocess that imports plkernel from src."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def test_tracer_finds_every_traced_name():
    # the traced benchmark wraps each name it lists in a plkernel module;
    # a deleted function or an unimported module fails here, not only in a
    # traced run
    script = (
        "import importlib.util, sys\n"
        "sys.dont_write_bytecode = True\n"
        "for name in ('workloads', 'tracing'):\n"
        f"    spec = importlib.util.spec_from_file_location(name, {PERFBENCH!r} + f'/{{name}}.py')\n"
        "    module = importlib.util.module_from_spec(spec)\n"
        "    sys.modules[name] = module\n"
        "    spec.loader.exec_module(module)\n"
        "sys.modules['tracing'].Tracer().install()\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_env())
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("workload", ["triangulate", "pointset", "combinatorics", "reject"])
def test_verdicts_do_not_depend_on_the_hash_seed(tmp_path, workload):
    # one tiny round of the workload under two hash seeds: every verdict
    # holds and the outcomes are the same
    digests = []
    for hash_seed in ("0", "1"):
        workdir = tmp_path / hash_seed
        workdir.mkdir()
        argv = [
            os.path.join(PERFBENCH, "worker.py"), "--workload", workload, "--seed", "911",
            "--input-set", "0", "--size", "tiny", "--workdir", str(workdir),
        ]
        proc = subprocess.run(
            [sys.executable, *argv], capture_output=True, text=True, cwd=tmp_path,
            env=_env(PYTHONHASHSEED=hash_seed, PYTHONDONTWRITEBYTECODE="1"),
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["attempted"] and result["failed"] == []
        digests.append(result["verdict_digest"])
    assert digests[0] == digests[1]
