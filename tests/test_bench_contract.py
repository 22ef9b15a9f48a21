"""What the benchmark in bench/run.py needs from drivekit: every traced
target is a module-level function under its own name, and importing drivekit
imports scipy.optimize (its import time is reported on its own)."""
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run as bench_run  # noqa: E402


def test_every_traced_target_is_a_drivekit_function():
    for module_name, fn_name in bench_run.TRACED:
        fn = getattr(importlib.import_module(module_name), fn_name, None)
        assert inspect.isfunction(fn), (module_name, fn_name)
        assert (fn.__module__, fn.__name__) == (module_name, fn_name)


def test_importing_drivekit_imports_scipy_optimize():
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import drivekit"],
        env=bench_run.child_env(), check=True, capture_output=True, text=True,
    )
    assert bench_run.importtime_cumulative(proc.stderr, "scipy.optimize") > 0
