"""What the benchmark in bench/run.py needs from drivekit: every traced
target is a module-level function under its own name, importing drivekit
imports scipy.optimize (its import time is reported on its own), the input
files bench/gen.py builds with drivekit hash to the recorded digests, and so
does every output of one in-process pass over each workload."""
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import gate  # noqa: E402
import gen  # noqa: E402
import run as bench_run  # noqa: E402
from drivekit import save_scene_file  # noqa: E402


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


def test_generated_inputs_match_the_recorded_digests(tmp_path):
    # input variant 0: a scene-model or plan-record change that moves one byte
    # of the benchmark's inputs fails here, not only in a benchmark run
    dense = gen.dense_scene(0)
    save_scene_file(dense, tmp_path / "dense.json")
    gen.write_plans([dense], tmp_path / "dense_plans.jsonl")
    gen.write_plans(gen.corpus_scenes(0), tmp_path / "corpus_plans.jsonl")
    digests = {name: gate.file_digest(tmp_path / name) for name in (
        "dense.json", "dense_plans.jsonl", "corpus_plans.jsonl")}
    assert digests == {
        "dense.json": gate.load_recorded("dense", 0)["scene"],
        "dense_plans.jsonl": gate.load_recorded("dense", 0)["plans"],
        "corpus_plans.jsonl": gate.load_recorded("corpus", 0)["plans"],
    }


@pytest.mark.parametrize("name", bench_run.WORKLOADS)
def test_workload_outputs_match_the_recorded_digests(tmp_path, monkeypatch, name):
    # input variant 0, every stage in process; the workload writes under
    # WORK and passes the CLI paths relative to ROOT, so both point here
    monkeypatch.setattr(bench_run, "ROOT", tmp_path)
    monkeypatch.setattr(bench_run, "WORK", tmp_path / "work")
    monkeypatch.chdir(tmp_path)
    recorded = gate.load_recorded(name, 0)
    wl = bench_run.Workload(name, 0)
    checks = bench_run.Checks(recorded)
    checks.stage("setup", "", wl.setup())
    bench_run.in_process_pass(wl, checks)
    assert checks.errors == [] and checks.failed == 0
    assert sorted(checks.seen) == sorted(recorded)  # every recorded output was checked


@pytest.mark.parametrize("variant", [1, 2, 3])
def test_grounding_outputs_match_the_recorded_digests_at_more_variants(
    tmp_path, monkeypatch, variant
):
    # the grounding workload runs no CLI stage, so it is cheap to check on
    # more of its recorded input variants than the first
    monkeypatch.setattr(bench_run, "WORK", tmp_path / "work")
    recorded = gate.load_recorded("grounding", variant)
    wl = bench_run.Workload("grounding", variant)
    checks = bench_run.Checks(recorded)
    checks.stage("setup", "", wl.setup())
    bench_run.in_process_pass(wl, checks)
    assert checks.errors == [] and checks.failed == 0
    assert sorted(checks.seen) == sorted(recorded)
