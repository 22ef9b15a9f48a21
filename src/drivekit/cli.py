"""Batch command-line interface.

Subcommands: validate, label, gen-qa, synth, tokenize, evaluate. Every command
is deterministic given identical inputs and config; per-scene work can fan out
with --jobs, results are always written in scene-id order. Failures exit
nonzero with a machine-readable JSON error on stderr.

Config precedence: flag > config file > default.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .config import Config
from .errors import (
    DrivekitError, FileError, ParamError, RefError, SchemaError, _at, parse_json, read_text
)
from .interactions import (
    InteractionKind,
    InteractionLabel,
    label_interactions,
    merge_override_labels,
    yield_kind,
)
from .metrics import PlanSample, apply_frame_mask, evaluate_plans, report_csv
from .planners import ego_future_waypoints
from .qa import gen_scene_qas, load_templates
from .relations import compute_relations, relations_records
from .scene import canonical_dumps, load_scene_file, save_scene_file
from .synth import synth_corpus
from .tokens import fixture_encode, write_bundle


def _resolve_config(args) -> Config:
    config = Config.from_file(args.config) if args.config else Config()
    if getattr(args, "seed", None) is not None:
        config = config.replace(seed=args.seed)
    return config


def _per_scene(args, fn=None, **extra) -> list:
    """Load every scene file, then fn(scene, config, **extra) for each scene,
    both fanned out over min(--jobs, files) worker processes; the results come
    back in scene-id order. Two files of one scene id raise RefError before fn
    runs on any scene. Without fn, the scenes themselves come back."""
    config = _resolve_config(args)
    paths = sorted(args.scenes)
    workers = min(args.jobs, len(paths))
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    with pool or contextlib.nullcontext():
        run = pool.map if pool else map
        loaded = sorted(zip(run(load_scene_file, paths), paths), key=lambda pair: pair[0].id)
        for (scene, first), (other, second) in zip(loaded, loaded[1:]):
            if scene.id == other.id:
                raise RefError(f"{first} and {second} both hold scene {scene.id}")
        scenes = [scene for scene, _ in loaded]
        if fn is None:
            return scenes
        return list(run(functools.partial(fn, config=config, **extra), scenes))


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
    _resolve_config(args)  # a bad --config fails here too, not only in later stages
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
    return [_at(f"{path}: record[{i}]", _sidecar_record, d) for i, d in enumerate(records)]


def _sidecar_record(record: dict) -> tuple:
    scene_id = record.get("scene_id")
    if scene_id is not None and not isinstance(scene_id, str):
        raise SchemaError(f"scene_id must be a string or null, got {scene_id!r}")
    return scene_id, InteractionLabel.from_dict(record)


_YIELD_KINDS = (InteractionKind.YIELD_TO_PEDESTRIAN, InteractionKind.YIELD_TO_VEHICLE)


def _qa_scene(scene, config: Config, sidecar, templates: dict) -> list:
    rel = compute_relations(scene, config)
    labels = label_interactions(scene, rel, config)
    if sidecar is not None:
        # sidecar records may carry an optional scene_id to scope them; an
        # unscoped record applies to any scene holding that agent
        categories = {t.id: t.category for t in scene.agents}
        scoped = [
            label
            for scene_id, label in sidecar
            if scene_id in (None, scene.id) and label.agent_id in categories
        ]
        for label in scoped:
            category = categories[label.agent_id]
            if label.kind in _YIELD_KINDS and label.kind is not yield_kind(category):
                raise SchemaError(
                    f"scene {scene.id}: a sidecar {label.kind.value} label names "
                    f"agent {label.agent_id}, a {category.value}"
                )
        labels = merge_override_labels(labels, scoped)
    return [_dump(r.to_dict()) for r in gen_scene_qas(scene, rel, labels, config, templates)]


def cmd_gen_qa(args) -> int:
    sidecar = _load_sidecar(args.labels) if args.labels else None
    templates = load_templates(args.templates)
    return _write_records(args, _per_scene(args, _qa_scene, sidecar=sidecar, templates=templates))


# --------------------------------------------------------------------------
# synth


def cmd_synth(args) -> int:
    spec = parse_json(read_text(args.spec, ParamError), ParamError, args.spec)
    if not isinstance(spec, dict):
        raise ParamError(f"{args.spec}: synth spec must be a JSON object")
    if "counts" in spec:  # the nested form; else the spec is the counts alone
        unknown = sorted(set(spec) - {"counts", "base_seed", "params"})
        if unknown:
            raise ParamError(f"{args.spec}: unknown synth spec keys: {', '.join(unknown)}")
        counts, base_seed, params = spec["counts"], spec.get("base_seed", 0), spec.get("params")
    else:
        counts, base_seed, params = spec, 0, None
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
    out_dir.mkdir(parents=True, exist_ok=True)  # once every scene has loaded
    for frame in range(scene.n_frames):
        bundle = fixture_encode(scene, frame, config.seed)
        write_bundle(bundle, out_dir / f"{scene.id}_f{frame:04d}.tokb")
    return scene.n_frames


def cmd_tokenize(args) -> int:
    out_dir = Path(args.out)
    bundles = sum(_per_scene(args, _tokenize_scene, out_dir=out_dir))
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
            fields = record["scene_id"], record["frame"], record["waypoints"]
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"{where}: bad plan record: {exc}") from None
        plans.append(_at(where, PlanSample, *fields))
    return plans


def _plan_svg(pred, gt) -> str:
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
    scenes = {scene.id: scene for scene in _per_scene(args)}
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


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser whose errors raise ParamError instead of printing
    usage and exiting 2; subparsers are made of the same class."""

    def error(self, message):
        raise ParamError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
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
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except OSError as exc:  # writing an output; every input goes through read_text
        error = FileError(f"{exc.filename}: {exc.strerror}" if exc.filename else str(exc))
    except DrivekitError as exc:
        error = exc
    print(json.dumps(error.to_dict(), sort_keys=True), file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
