#!/usr/bin/env python3
"""drivekit benchmark.

    python3 bench/run.py --workload {corpus,dense,grounding} --seed N \
        --seconds S --trace {0,1} [--record]

Run from a checkout's root. The benchmark builds its inputs from the seed,
then runs the pipeline stages one after another (a closed loop with one
client, ``--jobs 1``) until ``--seconds`` have passed. It checks every output
against the digests recorded at the seed commit (``bench/digests/``) and with
checks of its own, and prints each metric by name and unit. The last line of
stdout is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` runs each CLI stage as its own ``python -m drivekit.cli``
process and reports the end-to-end metrics, each the median over passes.
``--trace 1`` runs the same stages in-process through ``drivekit.cli.main``,
once with a span around each call into the traced drivekit functions and
then once untraced, and reports per-layer self times and counters plus the
tracing overhead: ``trace.overhead_s`` is traced minus untraced stage time
(the traced pass runs first, so it also holds the cold-start cost, and on a
busy host it carries that host's drift), and ``trace.span_cost_s`` is the
span count times the measured cost of one traced call.

The workload seed selects one of ``VARIANTS`` input sets, so that every input
has recorded output digests. ``--record`` stores the digests of this run's
outputs instead of checking them; use it only on the seed commit.
"""
from __future__ import annotations

import os

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
if __name__ == "__main__":
    # before numpy loads in this process; every child gets it too
    os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import gate  # noqa: E402
import tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
VARIANTS = 16
SETUP_REPEATS = 5  # set-ups before the passes, and as many after them
IMPORT_REPEATS = 3
WORKLOADS = ("corpus", "dense", "grounding")

# --trace 0 metrics, as listed in BENCHMARK.json: name -> unit
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


# --------------------------------------------------------------------------
# tracing: which functions get a span, what is counted at each boundary


def _count_lane_hits(c, args, kwargs, result):
    c["geometry.lane_hits"] += result is not None


def _count_relations(c, args, kwargs, result):
    c["relations.agent_frames"] += sum(len(t.states) for t in args[0].agents)
    c["relations.noton"] += sum(m.value == "NOTON" for modes in result.lane_modes.values() for m in modes)


def _count_critical(c, args, kwargs, result):
    c["interactions.critical"] += sum(x.critical for x in result)
    c["interactions.criticality_rows"] += len(result)


def _count_qa_list(c, args, kwargs, result):
    c["qa.records"] += len(result)


def _count_qa_one(c, args, kwargs, result):
    c["qa.records"] += 1


def _count_bundle_bytes(c, args, kwargs, result):
    c["tokens.bytes"] += os.path.getsize(args[1] if len(args) > 1 else kwargs["sink"])


def _count_masked(c, args, kwargs, result):
    c["metrics.masked"] += result.n_masked
    c["metrics.plan_samples"] += result.n_masked + result.n_samples


def _count_cells(c, args, kwargs, result):
    n, m = np.shape(args[0])
    c["metrics.hungarian_cells"] += n * m


# {(module, function): counter probe or None}. Leaf kernels called inside
# inner loops (projection, OBB tests, float formatting) stay inside their
# callers' spans.
TRACED = {
    ("drivekit.scene", "load_scene_file"): None,
    ("drivekit.scene", "save_scene_file"): None,
    ("drivekit.synth", "synth_corpus"): None,
    ("drivekit.synth", "synth_scene"): None,
    ("drivekit.geometry", "associate_lane"): _count_lane_hits,
    ("drivekit.geometry", "polyline_obb_distance"): None,
    ("drivekit.relations", "compute_relations"): _count_relations,
    ("drivekit.relations", "agent_ego_lane_mode"): None,
    ("drivekit.relations", "ego_lane_decisions"): None,
    ("drivekit.relations", "label_nav_commands"): None,
    ("drivekit.relations", "relations_records"): None,
    ("drivekit.interactions", "label_interactions"): None,
    ("drivekit.interactions", "critical_objects"): _count_critical,
    ("drivekit.interactions", "merge_override_labels"): None,
    ("drivekit.qa", "load_templates"): None,
    ("drivekit.qa", "gen_perception_qas"): _count_qa_list,
    ("drivekit.qa", "gen_reasoning_qas"): _count_qa_list,
    ("drivekit.qa", "gen_planning_qas"): _count_qa_one,
    ("drivekit.tokens", "fixture_encode"): None,
    ("drivekit.tokens", "write_bundle"): _count_bundle_bytes,
    ("drivekit.tokens", "read_bundle"): None,
    ("drivekit.tokens", "fixture_decode"): None,
    ("drivekit.metrics", "evaluate_plans"): _count_masked,
    ("drivekit.metrics", "apply_frame_mask"): None,
    ("drivekit.metrics", "future_complete"): None,
    ("drivekit.metrics", "plan_collision_fraction"): None,
    ("drivekit.metrics", "traj_l2"): None,
    ("drivekit.metrics", "heading_l2"): None,
    ("drivekit.metrics", "lon_weighted_l2"): None,
    ("drivekit.metrics", "report_csv"): None,
    ("drivekit.metrics", "grounding_prf"): None,
    ("drivekit.metrics", "hungarian"): _count_cells,
    ("drivekit.planners", "ego_future_waypoints"): None,
}

# --trace 1 metrics, as listed in BENCHMARK.json: name -> (unit, source).
# ("self", span) is total self time, ("calls", span) the call count,
# ("count", counter) a counter, ("ratio", counter, base counter).
PER_LAYER = {
    "cli.import_s": ("s", ("import",)),
    "cli.import_scipy_s": ("s", ("import_scipy",)),
    "cli.self_s": ("s", ("cli_self",)),
    "scene.load_s": ("s", ("self", "scene.load_scene_file")),
    "scene.load_calls": ("count", ("calls", "scene.load_scene_file")),
    "scene.save_s": ("s", ("self", "scene.save_scene_file")),
    "synth.synth_scene_s": ("s", ("self", "synth.synth_scene")),
    "synth.scenes": ("count", ("calls", "synth.synth_scene")),
    "geometry.associate_lane_s": ("s", ("self", "geometry.associate_lane")),
    "geometry.associate_lane_calls": ("count", ("calls", "geometry.associate_lane")),
    "geometry.lane_hit_frac": ("ratio", ("ratio", "geometry.lane_hits", "geometry.associate_lane")),
    "geometry.polyline_obb_distance_s": ("s", ("self", "geometry.polyline_obb_distance")),
    "relations.compute_relations_s": ("s", ("self", "relations.compute_relations")),
    "relations.agent_ego_lane_mode_s": ("s", ("self", "relations.agent_ego_lane_mode")),
    "relations.agent_frames": ("count", ("count", "relations.agent_frames")),
    "relations.noton_frac": ("ratio", ("ratio", "relations.noton", "relations.agent_frames")),
    "interactions.label_interactions_s": ("s", ("self", "interactions.label_interactions")),
    "interactions.critical_objects_s": ("s", ("self", "interactions.critical_objects")),
    "interactions.critical_objects_calls": ("count", ("calls", "interactions.critical_objects")),
    "interactions.critical_frac": ("ratio", ("ratio", "interactions.critical", "interactions.criticality_rows")),
    "qa.gen_perception_qas_s": ("s", ("self", "qa.gen_perception_qas")),
    "qa.gen_reasoning_qas_s": ("s", ("self", "qa.gen_reasoning_qas")),
    "qa.gen_planning_qas_s": ("s", ("self", "qa.gen_planning_qas")),
    "qa.records": ("count", ("count", "qa.records")),
    "tokens.fixture_encode_s": ("s", ("self", "tokens.fixture_encode")),
    "tokens.write_bundle_s": ("s", ("self", "tokens.write_bundle")),
    "tokens.bundles": ("count", ("calls", "tokens.write_bundle")),
    "tokens.bytes": ("bytes", ("count", "tokens.bytes")),
    "tokens.read_bundle_s": ("s", ("self", "tokens.read_bundle")),
    "tokens.fixture_decode_s": ("s", ("self", "tokens.fixture_decode")),
    "metrics.evaluate_plans_s": ("s", ("self", "metrics.evaluate_plans")),
    "metrics.plan_collision_fraction_s": ("s", ("self", "metrics.plan_collision_fraction")),
    "metrics.masked_frac": ("ratio", ("ratio", "metrics.masked", "metrics.plan_samples")),
    "planners.ego_future_waypoints_s": ("s", ("self", "planners.ego_future_waypoints")),
    "metrics.hungarian_s": ("s", ("self", "metrics.hungarian")),
    "metrics.hungarian_calls": ("count", ("calls", "metrics.hungarian")),
    "metrics.hungarian_cells": ("count", ("count", "metrics.hungarian_cells")),
    "metrics.grounding_prf_s": ("s", ("self", "metrics.grounding_prf")),
    "trace.overhead_s": ("s", ("overhead",)),
    "trace.spans": ("count", ("spans",)),
    "trace.span_cost_s": ("s", ("span_cost",)),
}

# Spans that must record calls on each workload, so that a renamed import
# cannot silently zero a layer.
_GROUNDING_SPANS = {"metrics.hungarian", "metrics.grounding_prf"}
_PIPELINE_SPANS = {src[1] for _, src in PER_LAYER.values() if src[0] in ("self", "calls")} - _GROUNDING_SPANS
EXPECTED_SPANS = {
    "corpus": _PIPELINE_SPANS,
    # the dense scene is written during set-up, so no stage saves a scene
    "dense": {s for s in _PIPELINE_SPANS if not s.startswith("synth.")} - {"scene.save_scene_file"},
    "grounding": _GROUNDING_SPANS,
}


# --------------------------------------------------------------------------
# workloads


class Workload:
    """Inputs of one workload, the stages of one pass over them, and the
    checks of each stage's outputs."""

    def __init__(self, name: str, variant: int):
        self.name = name
        self.variant = variant
        self.dir = WORK / name
        self.inputs = self.dir / "in"
        self.out = self.dir / "out"
        self.qa_checked = False  # the QA parse check runs once a run

    def rel(self, path) -> str:
        return Path(path).relative_to(ROOT).as_posix()

    def setup(self) -> dict:
        """Generate the inputs; returns digests of the generated files."""
        import gen
        from drivekit import Config, save_scene_file

        shutil.rmtree(self.inputs, ignore_errors=True)
        self.inputs.mkdir(parents=True)
        v = self.variant
        plans = self.inputs / "plans.jsonl"
        if self.name == "corpus":
            spec = self.inputs / "spec.json"
            spec.write_text(gen.dumps(gen.corpus_spec(v)) + "\n", "utf-8")
            self.scenes = gen.corpus_scenes(v)
            self.scene_files = [self.out / "scenes" / f"{s.id}.json" for s in self.scenes]
            gen.write_plans(self.scenes, plans)
            return {"spec": gate.file_digest(spec), "plans": gate.file_digest(plans)}
        if self.name == "dense":
            self.scenes = [gen.dense_scene(v)]
            self.scene_files = [self.inputs / "dense.json"]
            save_scene_file(self.scenes[0], self.scene_files[0])
            gen.write_plans(self.scenes, plans)
            return {"scene": gate.file_digest(self.scene_files[0]), "plans": gate.file_digest(plans)}
        self.grounding_gate = Config().grounding_gate
        self.sets = gen.detection_sets(gen.corpus_scenes(v) + [gen.dense_scene(v)], v)
        return {"detections": gate.text_digest(gen.dumps(self.sets))}

    def stages(self) -> list:
        """[(metric name, CLI argv, or None for a stage run in this process)]."""
        if self.name == "grounding":
            return [("grounding_s", None)]
        scenes = [self.rel(p) for p in self.scene_files]
        common = ["--seed", str(self.variant), "--jobs", "1"]
        out = self.out
        stages = []
        if self.name == "corpus":
            spec = self.rel(self.inputs / "spec.json")
            stages.append(("synth_s", ["synth", "--spec", spec, "--out", self.rel(out / "scenes"), *common]))
        plans = self.rel(self.inputs / "plans.jsonl")
        return stages + [
            ("label_s", ["label", *scenes, "--out", self.rel(out / "labels.jsonl"), *common]),
            ("gen_qa_s", ["gen-qa", *scenes, "--out", self.rel(out / "qa.jsonl"), *common]),
            ("tokenize_s", ["tokenize", *scenes, "--out", self.rel(out / "tokens"), *common]),
            ("tokens_read_s", None),
            ("evaluate_s", ["evaluate", *scenes, "--plans", plans, "--out", self.rel(out / "report"), *common]),
        ]

    def run_in_process(self, metric: str) -> None:
        if metric == "tokens_read_s":
            self.read_tokens()
        else:
            self.run_grounding()

    def read_tokens(self) -> None:
        """Read back every TOKB bundle and decode it against its scene."""
        import drivekit.tokens as tokens

        by_id = {s.id: s for s in self.scenes}
        paths = sorted((self.out / "tokens").glob("*.tokb"))
        expected = sum(s.n_frames for s in self.scenes)
        if len(paths) != expected:
            raise AssertionError(f"{len(paths)} bundles on disk, expected {expected}")
        for path in paths:
            bundle = tokens.read_bundle(path)
            agents, maps = tokens.fixture_decode(bundle)
            gate.check_bundle(bundle, agents, maps, by_id[bundle.scene_id])

    def run_grounding(self) -> None:
        import drivekit.metrics as metrics

        reports = [metrics.grounding_prf(s["pred"], s["gt"], self.grounding_gate) for s in self.sets]
        self.results = [(r.precision, r.recall) for r in reports]

    def output_digests(self, metric: str) -> dict:
        """Check what a stage wrote; returns its digests by output group."""
        out = self.out
        if metric == "synth_s":
            return {"scenes": gate.tree_digest(sorted((out / "scenes").glob("*.json")), out)}
        if metric == "label_s":
            return {"labels": gate.file_digest(out / "labels.jsonl")}
        if metric == "gen_qa_s":
            if not self.qa_checked:
                gate.check_qa(out / "qa.jsonl")
                self.qa_checked = True
            return {"qa": gate.file_digest(out / "qa.jsonl")}
        if metric == "tokenize_s":
            return {"tokens": gate.tree_digest(sorted((out / "tokens").glob("*.tokb")), out)}
        if metric == "evaluate_s":
            return {"report_json": gate.file_digest(out / "report.json"),
                    "report_csv": gate.file_digest(out / "report.csv")}
        if metric == "grounding_s":
            gate.check_grounding(self.sets, self.results)
            return {"results": gate.text_digest(json.dumps(self.results))}
        return {}  # tokens_read_s checks as it runs


class Checks:
    """Stage invocations, failures, and the digests seen, against the
    digests recorded for this input variant (None when recording)."""

    def __init__(self, recorded):
        self.recorded = recorded
        self.seen = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def stage(self, name: str, error: str, digests: dict) -> None:
        self.attempted += 1
        self.seen.update(digests)
        if not error and self.recorded is not None:
            bad = gate.mismatches(self.recorded, digests)
            error = f"digest mismatch in {', '.join(bad)}" if bad else ""
        if error:
            self.failed += 1
            self.errors.append(f"{name}: {error}")

    def require(self, name: str, ok: bool, error: str) -> None:
        """A check on the run as a whole rather than on one stage."""
        if not ok:
            self.errors.append(f"{name}: {error}")


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def finish_stage(wl: Workload, checks: Checks, metric: str, error: str) -> None:
    digests = {}
    if not error:
        try:
            digests = wl.output_digests(metric)
        except Exception as exc:  # a failed output check fails the stage
            error = _error(exc)
    checks.stage(metric, error, digests)


def child_env() -> dict:
    return {**os.environ, **THREAD_ENV, "PYTHONPATH": str(SRC)}


def run_child(argv, log_path) -> tuple:
    """Run one CLI process to completion: (exit code, wall s, cpu s, peak RSS
    MB), CPU and RSS from that process's own rusage."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "drivekit.cli", *argv], cwd=ROOT, env=child_env(),
            stdout=log, stderr=subprocess.STDOUT,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def _fresh_outputs(wl: Workload) -> None:
    shutil.rmtree(wl.out, ignore_errors=True)
    wl.out.mkdir(parents=True)


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced_pass(wl: Workload, checks: Checks) -> dict:
    """One pass with each CLI stage as its own process."""
    _fresh_outputs(wl)
    log_dir = wl.dir / "logs"
    log_dir.mkdir(exist_ok=True)
    values = {"wall_s": 0.0, "cpu_s": 0.0}
    rss = [_self_rss_mb()]
    for metric, argv in wl.stages():
        error = ""
        if argv:
            log = log_dir / f"{metric}.log"
            code, wall, cpu, child_rss = run_child(argv, log)
            rss.append(child_rss)
            if code:
                error = f"exit {code}, see {wl.rel(log)}"
        else:
            t0, c0 = time.perf_counter(), os.times()
            try:
                wl.run_in_process(metric)
            except Exception as exc:
                error = _error(exc)
            wall, c1 = time.perf_counter() - t0, os.times()
            cpu = (c1.user - c0.user) + (c1.system - c0.system)
            rss.append(_self_rss_mb())
        values[metric] = wall
        values["wall_s"] += wall
        values["cpu_s"] += cpu
        finish_stage(wl, checks, metric, error)
    values["peak_rss_mb"] = max(rss)
    return values


def in_process_pass(wl: Workload, checks: Checks, tr=None) -> float:
    """One pass with each CLI stage called through drivekit.cli.main here;
    with a tracer, each stage is a root span. Returns the summed stage time."""
    import drivekit.cli as cli

    _fresh_outputs(wl)
    total = 0.0
    for metric, argv in wl.stages():
        name = f"cli.{argv[0]}" if argv else f"bench.{metric[:-2]}"
        error = ""
        t0 = time.perf_counter()
        with tr.span(name) if tr else contextlib.nullcontext(), \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                if argv:
                    code = cli.main(argv)
                    error = f"exit {code}" if code else ""
                else:
                    wl.run_in_process(metric)
            except Exception as exc:
                error = _error(exc)
        total += time.perf_counter() - t0
        finish_stage(wl, checks, metric, error)
    return total


# --------------------------------------------------------------------------
# traced run


def import_times() -> tuple:
    """Medians over IMPORT_REPEATS runs of the wall time of
    `python -c "import drivekit"` and of the scipy.optimize share of it, as
    `-X importtime` reports."""
    plain, scipy_share = [], []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import drivekit"], cwd=ROOT, env=child_env(), check=True)
        plain.append(time.perf_counter() - t0)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import drivekit"],
            cwd=ROOT, env=child_env(), check=True, capture_output=True, text=True,
        )
        scipy_share.append(importtime_cumulative(proc.stderr, "scipy.optimize"))
    return statistics.median(plain), statistics.median(scipy_share)


def importtime_cumulative(stderr: str, module: str) -> float:
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) / 1e6
    raise AssertionError(f"{module} missing from -X importtime output")


def layer_metrics(spans, counters, extra: dict) -> dict:
    summary = tracer.summarize(spans)
    out = {}
    for name, (unit, src) in PER_LAYER.items():
        kind = src[0]
        if kind == "self":
            value = summary.get(src[1], {}).get("self_s", 0.0)
        elif kind == "calls":
            value = summary.get(src[1], {}).get("calls", 0)
        elif kind == "count":
            value = counters.get(src[1], 0)
        elif kind == "ratio":
            base = counters.get(src[2]) or summary.get(src[2], {}).get("calls", 0)
            value = counters.get(src[1], 0) / base if base else 0.0
        elif kind == "cli_self":
            value = sum(v["self_s"] for k, v in summary.items() if k.startswith("cli."))
        else:
            value = extra[kind]
        out[name] = int(value) if unit in ("count", "bytes") else float(value)
    return out


def traced_run(wl: Workload, checks: Checks, seed: int, seconds: float) -> dict:
    import_s, import_scipy_s = import_times()
    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        tr = tracer.Tracer(run_id=f"{wl.name}-{seed}-{len(runs)}")
        tr.install(TRACED)
        try:
            traced = in_process_pass(wl, checks, tr)
        finally:
            tr.uninstall()
        untraced = in_process_pass(wl, checks)
        tr.write(wl.dir / f"trace-{len(runs)}.jsonl")
        extra = {"import": import_s, "import_scipy": import_scipy_s, "overhead": traced - untraced,
                 "spans": len(tr.spans), "span_cost": len(tr.spans) * tracer.span_cost()}
        runs.append((tr, layer_metrics(tr.spans, tr.counters, extra)))

    first = runs[0][0]
    summary = tracer.summarize(first.spans)
    missing = sorted(s for s in EXPECTED_SPANS[wl.name] if s not in summary)
    checks.require("trace", not missing, f"spans with zero calls: {', '.join(missing)}")
    print(f"# {len(runs)} traced + untraced in-process pass pairs; self time per span, first traced pass")
    for name, entry in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"#   {name:<36} {entry['self_s']:10.4f} s  {entry['calls']:>8} calls")
    print("# stage balance: traced stage time and the sum of the self times under it")
    for name, duration, self_sum in tracer.stage_balance(first.spans):
        ok = abs(duration - self_sum) <= 1e-9 * max(1.0, duration) * len(first.spans)
        checks.require("balance", ok, f"{name}: {duration} s but {self_sum} s of self time")
        print(f"#   {name:<36} {duration:10.4f} s  {self_sum:10.4f} s")
    metrics = {}
    for name, (unit, _) in PER_LAYER.items():
        values = [m[name] for _, m in runs]
        metrics[name] = {"value": statistics.median(values) if unit == "s" else values[0], "unit": unit}
        print(f"{name:<36} {metrics[name]['value']:>14.6g} {unit}")
    return metrics


# --------------------------------------------------------------------------


def untraced_run(wl: Workload, checks: Checks, seconds: float) -> dict:
    setup_times = run_setup(wl, checks)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(untraced_pass(wl, checks))
    # a set-up lasts well under a second; timing it at both ends of the run
    # keeps one slow moment of a shared host from setting setup_s
    setup_times += run_setup(wl, checks)
    setup_s = statistics.median(setup_times)
    print(f"# {len(passes)} passes; median [q1, q3] over passes")
    print(f"{'setup_s':<16} {setup_s:10.4f} s  (median of {len(setup_times)} set-ups)")
    for key in passes[0]:
        values = [p[key] for p in passes]
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
        print(f"{key:<16} {statistics.median(values):10.4f} {END_TO_END.get(key, 's')}  [{q1:.4f}, {q3:.4f}]")
    failed_frac = checks.failed / checks.attempted
    print(f"{'failed_frac':<16} {failed_frac:10.4f} ratio  ({checks.failed} of {checks.attempted} invocations)")
    medians = {k: statistics.median(p[k] for p in passes) for k in ("wall_s", "cpu_s", "peak_rss_mb")}
    medians["setup_s"] = setup_s
    return {k: {"value": medians[k], "unit": unit} for k, unit in END_TO_END.items()}


def run_setup(wl: Workload, checks: Checks) -> list:
    """Set the workload up SETUP_REPEATS times; returns the times."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        digests = wl.setup()
        times.append(time.perf_counter() - t0)
    checks.stage("setup", "", digests)
    return times


def environment() -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "child_env": THREAD_ENV,
        "jobs": 1,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="store output digests (seed commit only)")
    args = parser.parse_args(argv)

    if not (SRC / "drivekit" / "__init__.py").is_file():
        print(f"error: no drivekit sources under {SRC}; run from a drivekit checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import drivekit

    if Path(drivekit.__file__).resolve().parent != (SRC / "drivekit").resolve():
        print(f"error: imported drivekit from {drivekit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    wl = Workload(args.workload, args.seed % VARIANTS)
    checks = Checks(None if args.record else gate.load_recorded(wl.name, wl.variant))
    print(f"# environment {json.dumps(environment(), sort_keys=True)}")
    print(f"# workload {wl.name}, seed {args.seed} (input variant {wl.variant}), trace {args.trace}; "
          "closed loop, one client, --jobs 1")
    if args.trace:
        run_setup(wl, checks)
        metrics = traced_run(wl, checks, args.seed, args.seconds)
    else:
        metrics = untraced_run(wl, checks, args.seconds)

    if args.record:
        gate.record(wl.name, wl.variant, checks.seen)
        print(f"# recorded {len(checks.seen)} digests for {wl.name} variant {wl.variant}")
    for error in checks.errors:
        print(f"# FAILED {error}")
    correct = not checks.errors
    print(json.dumps({"correct": correct, "attempted": checks.attempted, "failed": checks.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
