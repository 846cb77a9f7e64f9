import os
import subprocess
import sys

from plkernel import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


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
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
