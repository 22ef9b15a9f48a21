import json
from pathlib import Path

import pytest

from drivekit.cli import main
from drivekit.metrics import future_complete
from drivekit.planners import ego_future_waypoints
from drivekit.scene import load_scene_file, save_scene_file
from drivekit.synth import synth_scene
from drivekit.tokens import read_bundle


@pytest.fixture
def scene_files(tmp_path):
    paths = []
    for kind, seed in [("CONSTRUCTION_ZONE", 1), ("NOMINAL", 2), ("OVERTAKE_ONCOMING", 3)]:
        scene = synth_scene(kind, seed)
        path = tmp_path / f"{scene.id}.json"
        save_scene_file(scene, path)
        paths.append(str(path))
    return paths


def test_validate_ok(scene_files, capsys):
    assert main(["validate", *scene_files]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert len(out) == 3
    assert all(json.loads(line)["ok"] for line in out)


def test_validate_bad_file(tmp_path, scene_files, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"id": "x"}', "utf-8")
    assert main(["validate", str(bad), scene_files[0]]) == 1
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().split("\n")]
    assert lines[0]["ok"] is False
    assert lines[0]["error"] == "SCHEMA_ERROR"
    assert lines[1]["ok"] is True


def test_label_outputs_are_deterministic(tmp_path, scene_files):
    out_a = tmp_path / "labels_a.jsonl"
    out_b = tmp_path / "labels_b.jsonl"
    assert main(["label", "--out", str(out_a), *scene_files]) == 0
    assert main(["label", "--out", str(out_b), *scene_files]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    records = [json.loads(l) for l in out_a.read_text().strip().split("\n")]
    frame_records = [r for r in records if "frame" in r]
    scene_records = [r for r in records if "interactions" in r]
    assert len(scene_records) == 3
    assert {r["ego_decision"] for r in frame_records} >= {"KEEP_LANE"}
    assert any(r["interactions"] for r in scene_records)


def test_label_parallel_jobs_identical(tmp_path, scene_files):
    serial = tmp_path / "serial.jsonl"
    parallel = tmp_path / "parallel.jsonl"
    assert main(["label", "--out", str(serial), *scene_files]) == 0
    assert main(["label", "--out", str(parallel), "--jobs", "3", *scene_files]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_gen_qa_deterministic(tmp_path, scene_files):
    out_a = tmp_path / "qa_a.jsonl"
    out_b = tmp_path / "qa_b.jsonl"
    assert main(["gen-qa", "--out", str(out_a), *scene_files]) == 0
    assert main(["gen-qa", "--out", str(out_b), *scene_files]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    records = [json.loads(l) for l in out_a.read_text().strip().split("\n")]
    tasks = {r["task"] for r in records}
    assert "PLANNING" in tasks and "PERCEPTION_OBJECT" in tasks
    # ordered by scene id, then frame, then task order
    ids = [(r["scene_id"], r["frame"]) for r in records]
    assert ids == sorted(ids, key=lambda t: (t[0], t[1]))


def test_gen_qa_seed_flag_overrides(tmp_path, scene_files):
    out_a = tmp_path / "qa_a.jsonl"
    out_b = tmp_path / "qa_b.jsonl"
    assert main(["gen-qa", "--out", str(out_a), "--seed", "1", *scene_files]) == 0
    assert main(["gen-qa", "--out", str(out_b), "--seed", "1", *scene_files]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_gen_qa_sidecar_merge(tmp_path, scene_files):
    sidecar = tmp_path / "sidecar.json"
    sidecar.write_text(
        json.dumps(
            [
                {
                    "agent_id": 10,
                    "kind": "OVERTAKE_STRADDLE",
                    "side": "RIGHT",
                    "frame_span": [0, 20],
                }
            ]
        ),
        "utf-8",
    )
    out = tmp_path / "qa.jsonl"
    assert main(["gen-qa", "--out", str(out), "--labels", str(sidecar), *scene_files]) == 0
    text = out.read_text()
    assert "straddling" in text  # sidecar kind reaches the rendered answers


def test_synth_command(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"NOMINAL": 2, "THREE_POINT_TURN": 1}), "utf-8")
    out_dir = tmp_path / "corpus"
    assert main(["synth", "--spec", str(spec), "--out", str(out_dir)]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["total"] == 3
    scene_paths = sorted(out_dir.glob("*-*.json"))
    assert len(scene_paths) == 3
    for path in scene_paths:
        load_scene_file(path)  # validates


def test_tokenize_command(tmp_path, scene_files):
    out_dir = tmp_path / "tokens"
    assert main(["tokenize", "--out", str(out_dir), "--seed", "5", scene_files[1]]) == 0
    scene = load_scene_file(scene_files[1])
    files = sorted(out_dir.glob("*.tokb"))
    assert len(files) == scene.n_frames
    bundle = read_bundle(files[0])
    assert bundle.scene_id == scene.id
    assert len(bundle.agent_tokens) == len(scene.agents)


def _write_replay_plans(scene_paths, plan_path):
    lines = []
    for path in scene_paths:
        scene = load_scene_file(path)
        for frame in range(scene.n_frames):
            if not future_complete(scene.ego, frame, scene.frame_rate):
                continue
            wp = ego_future_waypoints(scene, frame)
            lines.append(
                json.dumps(
                    {
                        "scene_id": scene.id,
                        "frame": frame,
                        "waypoints": [[float(x), float(y)] for x, y in wp],
                    }
                )
            )
    Path(plan_path).write_text("\n".join(lines) + "\n", "utf-8")
    return len(lines)


def test_evaluate_replay_reports_zero(tmp_path, scene_files, capsys):
    plans = tmp_path / "plans.jsonl"
    n = _write_replay_plans(scene_files, plans)
    out = tmp_path / "report"
    assert (
        main(["evaluate", "--plans", str(plans), "--out", str(out), *scene_files]) == 0
    )
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["report"]["n_samples"] == n
    assert report["report"]["l2"]["ave_all"] == 0
    assert report["report"]["collision_pct"] == 0
    assert "config" in report
    csv_text = (tmp_path / "report.csv").read_text()
    assert csv_text.startswith("l2_1s,")


def test_evaluate_deterministic_and_plots(tmp_path, scene_files):
    plans = tmp_path / "plans.jsonl"
    _write_replay_plans(scene_files[:1], plans)
    out_a, out_b = tmp_path / "ra", tmp_path / "rb"
    plots = tmp_path / "plots"
    assert main(
        ["evaluate", "--plans", str(plans), "--out", str(out_a), "--plots", str(plots), scene_files[0]]
    ) == 0
    assert main(
        ["evaluate", "--plans", str(plans), "--out", str(out_b), scene_files[0]]
    ) == 0
    assert (tmp_path / "ra.json").read_bytes() == (tmp_path / "rb.json").read_bytes()
    assert (tmp_path / "ra.csv").read_bytes() == (tmp_path / "rb.csv").read_bytes()
    svgs = list(plots.glob("*.svg"))
    assert svgs
    assert svgs[0].read_text().startswith("<svg")


def test_evaluate_unknown_scene_errors(tmp_path, scene_files, capsys):
    plans = tmp_path / "plans.jsonl"
    plans.write_text(
        json.dumps({"scene_id": "ghost", "frame": 0, "waypoints": [[0, 0]] * 6}) + "\n",
        "utf-8",
    )
    assert main(["evaluate", "--plans", str(plans), "--out", str(tmp_path / "r"), scene_files[0]]) == 1
    err = capsys.readouterr().err
    assert "ghost" in err


def test_config_file_and_flag_precedence(tmp_path, scene_files):
    from drivekit.config import Config

    cfg_path = tmp_path / "config.json"
    cfg = Config().replace(seed=7, distractor_ratio=0.0)
    cfg_path.write_text(json.dumps(cfg.to_dict()), "utf-8")
    out_file = tmp_path / "qa_file.jsonl"
    out_flag = tmp_path / "qa_flag.jsonl"
    assert main(["gen-qa", "--out", str(out_file), "--config", str(cfg_path), *scene_files]) == 0
    # flag overrides the file seed; ratio 0 from the file still applies
    assert main(
        ["gen-qa", "--out", str(out_flag), "--config", str(cfg_path), "--seed", "9", *scene_files]
    ) == 0
    assert out_file.read_bytes()  # both runs succeed and produce output
    assert out_flag.read_bytes()


def test_bad_config_key_fails(tmp_path, scene_files, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text('{"not_a_key": 1}', "utf-8")
    assert main(["label", "--out", str(tmp_path / "x.jsonl"), "--config", str(cfg_path), *scene_files]) == 1
    assert "PARAM_ERROR" in capsys.readouterr().err


def test_synth_then_label_closure_on_three_point_turns(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"THREE_POINT_TURN": 4}), "utf-8")
    corpus = tmp_path / "corpus"
    assert main(["synth", "--spec", str(spec), "--out", str(corpus)]) == 0
    scene_paths = sorted(str(p) for p in corpus.glob("three_point_turn-*.json"))
    assert len(scene_paths) == 4
    out = tmp_path / "labels.jsonl"
    assert main(["label", "--out", str(out), *scene_paths]) == 0
    by_scene = {}
    for line in out.read_text().strip().split("\n"):
        record = json.loads(line)
        if "nav_command" in record:
            by_scene.setdefault(record["scene_id"], set()).add(record["nav_command"])
    assert len(by_scene) == 4
    for commands in by_scene.values():
        assert "THREE_POINT_TURN_LEFT" in commands  # full tag recovery


def _one_error_line(err: str) -> dict:
    lines = err.strip().split("\n")
    assert len(lines) == 1, lines
    return json.loads(lines[0])


def test_validate_reports_bad_utf8_and_keeps_going(tmp_path, scene_files, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"id": "\xff"}')
    assert main(["validate", str(bad), scene_files[0]]) == 1
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().split("\n")]
    assert [(l["path"], l["ok"]) for l in lines] == [(str(bad), False), (scene_files[0], True)]
    assert lines[0]["error"] == "SCHEMA_ERROR"


@pytest.mark.parametrize(
    "sidecar",
    [
        b'[{"agent_id": 10,',  # malformed JSON
        b"\xff[]",  # not UTF-8
        b'{"agent_id": 10}',  # not a list
        b'[{"kind": "YIELD_TO_VEHICLE", "frame_span": [0, 1]}]',  # no agent_id
        b'[{"agent_id": 10, "kind": "YIELD_TO_VEHICLE", "frame_span": [0]}]',
    ],
)
def test_gen_qa_bad_sidecar_is_one_json_error(tmp_path, scene_files, capsys, sidecar):
    path = tmp_path / "sidecar.json"
    path.write_bytes(sidecar)
    out = tmp_path / "qa.jsonl"
    assert main(["gen-qa", "--out", str(out), "--labels", str(path), *scene_files]) == 1
    error = _one_error_line(capsys.readouterr().err)
    assert error["error"] == "SCHEMA_ERROR"
    assert str(path) in error["message"]
    assert not out.exists()


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_evaluate_rejects_non_finite_waypoints(tmp_path, scene_files, capsys, value):
    plans = tmp_path / "plans.jsonl"
    assert _write_replay_plans(scene_files[:1], plans) > 1
    lines = plans.read_text().strip().split("\n")
    record = json.loads(lines[1])
    record["waypoints"][2][1] = value
    lines[1] = json.dumps(record).replace(f'"{value}"', value)
    plans.write_text("\n".join(lines) + "\n", "utf-8")
    out = tmp_path / "report"
    assert main(["evaluate", "--plans", str(plans), "--out", str(out), scene_files[0]]) == 1
    error = _one_error_line(capsys.readouterr().err)
    assert error["error"] == "SCHEMA_ERROR"
    assert error["message"].startswith(f"{plans}:2:")
    assert not (tmp_path / "report.json").exists()
