"""Batch command-line interface.

Subcommands: validate, label, gen-qa, synth, tokenize, evaluate. Every command
is deterministic given identical inputs and config; per-scene work can fan out
with --jobs, results are always written in scene-id order. Failures exit
nonzero with a machine-readable JSON error on stderr.

Config precedence: flag > config file > default.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .config import Config
from .errors import (
    DrivekitError, FileError, ParamError, RefError, SchemaError, parse_json, read_text
)
from .interactions import InteractionLabel, critical_objects, label_interactions, merge_override_labels
from .metrics import PlanSample, evaluate_plans, future_complete, report_csv
from .qa import (
    QATask,
    gen_perception_qas,
    gen_planning_qas,
    gen_reasoning_qas,
    load_templates,
)
from .relations import compute_relations, relations_records
from .scene import canonical_dumps, load_scene_file, save_scene_file
from .synth import synth_corpus
from .tokens import fixture_encode, write_bundle


def _resolve_config(args) -> Config:
    config = Config.from_file(args.config) if args.config else Config()
    if getattr(args, "seed", None) is not None:
        config = config.replace(seed=args.seed)
    return config


def _run_scene(fn, config: Config, extra: tuple, path: str):
    scene = load_scene_file(path)
    return scene.id, fn(scene, config, *extra)


def _per_scene(args, fn, *extra) -> list:
    """fn(scene, config, *extra) for every scene file, fanned out over --jobs
    worker processes; the results come back in scene-id order."""
    run = functools.partial(_run_scene, fn, _resolve_config(args), extra)
    paths = sorted(args.scenes)
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(run, paths))
    else:
        results = [run(path) for path in paths]
    results.sort(key=lambda r: r[0])
    return [result for _, result in results]


def _write_records(args, results) -> int:
    """Write each scene's JSONL lines to --out, then print the summary line."""
    lines = [line for scene_lines in results for line in scene_lines]
    with open(args.out, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")
    print(_dump({"scenes": len(results), "records": len(lines), "out": str(args.out)}))
    return 0


def _dump(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


# --------------------------------------------------------------------------
# validate


def cmd_validate(args) -> int:
    failures = 0
    for path in args.scenes:
        try:
            scene = load_scene_file(path)
            print(_dump({"path": str(path), "ok": True, "scene_id": scene.id}))
        except DrivekitError as exc:
            failures += 1
            print(_dump({"path": str(path), "ok": False, **exc.to_dict()}))
    return 1 if failures else 0


# --------------------------------------------------------------------------
# label


def _label_scene(scene, config: Config) -> list:
    rel = compute_relations(scene, config)
    labels = label_interactions(scene, rel, config)
    lines = [_dump(r) for r in relations_records(scene, rel)]
    lines.append(
        _dump(
            {
                "scene_id": scene.id,
                "interactions": [label.to_dict() for label in labels],
            }
        )
    )
    return lines


def cmd_label(args) -> int:
    return _write_records(args, _per_scene(args, _label_scene))


# --------------------------------------------------------------------------
# gen-qa


def _load_sidecar(path) -> list:
    """(scene_id or None, InteractionLabel) per record of a label sidecar."""
    records = parse_json(read_text(path), SchemaError, path)
    if not isinstance(records, list) or not all(isinstance(d, dict) for d in records):
        raise SchemaError(f"{path}: label sidecar must be a JSON list of objects")
    try:
        return [(d.get("scene_id"), InteractionLabel.from_dict(d)) for d in records]
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc.message}") from None


_TASK_ORDER = {task: i for i, task in enumerate(QATask)}


def _qa_scene(scene, config: Config, sidecar, templates: dict) -> list:
    rel = compute_relations(scene, config)
    labels = label_interactions(scene, rel, config)
    if sidecar is not None:
        # sidecar records may carry an optional scene_id to scope them; an
        # unscoped record applies to any scene holding that agent
        agent_ids = {t.id for t in scene.agents}
        scoped = [
            label
            for scene_id, label in sidecar
            if scene_id in (None, scene.id) and label.agent_id in agent_ids
        ]
        labels = merge_override_labels(labels, scoped)
    lines = []
    for frame in range(scene.n_frames):
        crits = critical_objects(scene, labels, frame, config)
        records = gen_perception_qas(scene, frame, rel, crits, config, templates)
        records += gen_reasoning_qas(scene, frame, rel, labels, crits, config, templates)
        if future_complete(scene.ego, frame, scene.frame_rate):
            records.append(
                gen_planning_qas(scene, frame, rel, labels, crits, config, templates)
            )
        records.sort(key=lambda r: (r.frame, _TASK_ORDER[r.task], r.id))
        lines.extend(_dump(r.to_dict()) for r in records)
    return lines


def cmd_gen_qa(args) -> int:
    sidecar = _load_sidecar(args.labels) if args.labels else None
    templates = load_templates(args.templates)
    return _write_records(args, _per_scene(args, _qa_scene, sidecar, templates))


# --------------------------------------------------------------------------
# synth


def cmd_synth(args) -> int:
    spec = parse_json(read_text(args.spec, ParamError), ParamError, args.spec)
    if not isinstance(spec, dict):
        raise ParamError(f"{args.spec}: synth spec must be a JSON object")
    counts = spec["counts"] if "counts" in spec else spec
    base_seed = spec.get("base_seed", 0) if "counts" in spec else 0
    params = spec.get("params", {}) if "counts" in spec else {}
    config = _resolve_config(args)
    scenes, manifest = synth_corpus(counts, base_seed, params, config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for scene in scenes:
        save_scene_file(scene, out_dir / f"{scene.id}.json")
    (out_dir / "manifest.json").write_text(canonical_dumps(manifest) + "\n", "utf-8")
    print(_dump({"scenes": len(scenes), "out_dir": str(out_dir)}))
    return 0


# --------------------------------------------------------------------------
# tokenize


def _tokenize_scene(scene, config: Config, out_dir: Path) -> int:
    for frame in range(scene.n_frames):
        bundle = fixture_encode(scene, frame, config.seed)
        write_bundle(bundle, out_dir / f"{scene.id}_f{frame:04d}.tokb")
    return scene.n_frames


def cmd_tokenize(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    bundles = sum(_per_scene(args, _tokenize_scene, out_dir))
    print(_dump({"bundles": bundles, "out_dir": str(out_dir)}))
    return 0


# --------------------------------------------------------------------------
# evaluate


def _load_plans(path):
    plans = []
    for i, line in enumerate(read_text(path).split("\n")):
        line = line.strip()
        if not line:
            continue
        where = f"{path}:{i + 1}"
        record = parse_json(line, SchemaError, where)
        try:
            plans.append(
                PlanSample(
                    scene_id=record["scene_id"],
                    frame=record["frame"],
                    waypoints=record["waypoints"],
                )
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"{where}: bad plan record: {exc}") from None
        except DrivekitError as exc:
            raise type(exc)(f"{where}: {exc.message}") from None
    return plans


def _plan_svg(pred, gt) -> str:
    import numpy as np

    pts = np.vstack([[[0.0, 0.0]], np.asarray(pred, float), np.asarray(gt, float)])
    lo = pts.min(axis=0) - 1.0
    hi = pts.max(axis=0) + 1.0
    span = max(float((hi - lo).max()), 1e-6)
    size = 360.0

    def map_xy(p):
        # x forward -> up, y left -> left (plot rotated into a driver's view)
        u = (p[1] - lo[1]) / span * size
        v = size - (p[0] - lo[0]) / span * size
        return size - u, v

    def poly(arr, color):
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in (map_xy(p) for p in arr))
        return (
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>'
        )

    pred_path = np.vstack([[[0.0, 0.0]], np.asarray(pred, float)])
    gt_path = np.vstack([[[0.0, 0.0]], np.asarray(gt, float)])
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" height="{size:.0f}" '
        f'viewBox="0 0 {size:.0f} {size:.0f}">'
        f'<rect width="100%" height="100%" fill="white"/>'
        + poly(gt_path, "#2a9d2a")
        + poly(pred_path, "#d43a3a")
        + "</svg>\n"
    )


def cmd_evaluate(args) -> int:
    config = _resolve_config(args)
    scenes, paths = {}, {}
    for path in args.scenes:
        scene = load_scene_file(path)
        if scene.id in scenes:
            raise RefError(f"{paths[scene.id]} and {path} both hold scene {scene.id}")
        scenes[scene.id], paths[scene.id] = scene, path
    plans = _load_plans(args.plans)
    missing = sorted({p.scene_id for p in plans} - set(scenes))
    if missing:
        raise RefError(f"plans reference unknown scenes: {', '.join(missing)}")
    report = evaluate_plans(plans, scenes, config)

    out = Path(args.out)
    payload = {"config": config.to_dict(), "report": report.to_dict()}
    out.with_suffix(".json").write_text(canonical_dumps(payload) + "\n", "utf-8")
    out.with_suffix(".csv").write_text(report_csv(report), "utf-8")

    if args.plots:
        from .metrics import apply_frame_mask
        from .planners import ego_future_waypoints

        plot_dir = Path(args.plots)
        plot_dir.mkdir(parents=True, exist_ok=True)
        kept, _ = apply_frame_mask(plans, scenes)
        for sample in sorted(kept, key=lambda p: (p.scene_id, p.frame)):
            gt = ego_future_waypoints(scenes[sample.scene_id], sample.frame)
            svg = _plan_svg(sample.waypoints, gt)
            (plot_dir / f"{sample.scene_id}_f{sample.frame:04d}.svg").write_text(svg, "utf-8")
    print(_dump({"n_samples": report.n_samples, "n_masked": report.n_masked}))
    return 0


# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drivekit",
        description="Scene labeling, QA generation, token plumbing, plan "
        "evaluation, and long-tail scenario synthesis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenes=True):
        p.add_argument("--config", help="JSON config file (see README for keys)")
        p.add_argument("--seed", type=int, help="override config seed")
        p.add_argument("--jobs", type=int, default=1, help="parallel scene workers")
        if scenes:
            p.add_argument("scenes", nargs="+", help="scene JSON files")

    p = sub.add_parser("validate", help="validate scene files")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("label", help="write relations + interaction labels JSONL")
    common(p)
    p.add_argument("--out", required=True, help="output JSONL path")
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("gen-qa", help="write the QA corpus JSONL")
    common(p)
    p.add_argument("--out", required=True, help="output JSONL path")
    p.add_argument("--labels", help="interaction label sidecar JSON to merge")
    p.add_argument("--templates", help="template JSON file (default: built-in)")
    p.set_defaults(func=cmd_gen_qa)

    p = sub.add_parser("synth", help="synthesize a scene corpus")
    common(p, scenes=False)
    p.add_argument("--spec", required=True, help="corpus spec JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("tokenize", help="write TOKB fixture bundles per frame")
    common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_tokenize)

    p = sub.add_parser("evaluate", help="score a plan file against scenes")
    common(p)
    p.add_argument("--plans", required=True, help="plan JSONL file")
    p.add_argument("--out", required=True, help="report path prefix (.json/.csv)")
    p.add_argument("--plots", help="optional directory for per-sample SVG plots")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:  # writing an output; every input goes through read_text
        error = FileError(f"{exc.filename}: {exc.strerror}" if exc.filename else str(exc))
    except DrivekitError as exc:
        error = exc
    print(json.dumps(error.to_dict(), sort_keys=True), file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
