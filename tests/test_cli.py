import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drivekit.cli
from drivekit.cli import main
from drivekit.errors import DrivekitError
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


def test_validate_rejects_a_frame_rate_off_the_plan_step(tmp_path, scene_files, capsys):
    # 3 Hz gives 1.5 frames per 0.5 s plan step: rejected at load, not mid-run by gen-qa
    doc = json.loads(Path(scene_files[1]).read_text("utf-8"))
    doc["frame_rate_hz"] = 3
    odd = tmp_path / "odd_rate.json"
    odd.write_text(json.dumps(doc), "utf-8")
    assert main(["validate", str(odd), scene_files[0]]) == 1
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().split("\n")]
    assert lines[0]["ok"] is False
    assert lines[0]["error"] == "SCHEMA_ERROR"
    assert "3.0 Hz" in lines[0]["message"]
    assert lines[1]["ok"] is True


def test_label_rejects_a_lane_of_infinite_length(tmp_path, capsys):
    # (-1e308, 0) -> (1e308, 0): both ends are finite, but the segment's
    # length overflows to inf
    path = tmp_path / "inf_lane.json"
    save_scene_file(synth_scene("NOMINAL", 0), path)
    doc = json.loads(path.read_text("utf-8"))
    [lane] = [lane for lane in doc["lanes"] if lane["id"] == 1]
    lane["centerline"] = [[-1e308, 0.0], [1e308, 0.0]]
    path.write_text(json.dumps(doc), "utf-8")
    assert main(["label", "--out", str(tmp_path / "labels.jsonl"), str(path)]) == 1
    error = _one_error_line(capsys.readouterr().err)
    assert error["error"] == "SCHEMA_ERROR"
    assert "lane 1: centerline segment 0 has squared length inf" in error["message"]


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


def _output_bytes(path):
    """The bytes of an output file, or {name: bytes} of an output directory."""
    if path.is_dir():
        return {p.name: p.read_bytes() for p in sorted(path.iterdir())}
    return path.read_bytes()


@pytest.mark.parametrize("command", ["label", "gen-qa", "tokenize"])
def test_parallel_jobs_identical(tmp_path, scene_files, command):
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    assert main([command, "--out", str(serial), *scene_files]) == 0
    assert main([command, "--out", str(parallel), "--jobs", "3", *scene_files]) == 0
    assert _output_bytes(serial)
    assert _output_bytes(serial) == _output_bytes(parallel)


def test_jobs_start_no_more_workers_than_scene_files(tmp_path, scene_files, monkeypatch):
    # under fork a pool starts all of its workers at the first submit, so a
    # worker past the file count only idles; the stand-in maps in this process
    sizes = []

    class InProcessPool(contextlib.nullcontext):
        def __init__(self, max_workers):
            super().__init__()
            sizes.append(max_workers)

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(drivekit.cli, "ProcessPoolExecutor", InProcessPool)
    serial, pooled, single = (tmp_path / name for name in ("serial", "pooled", "single"))
    assert main(["label", "--out", str(serial), *scene_files[:2]]) == 0
    assert main(["label", "--out", str(pooled), "--jobs", "1000", *scene_files[:2]]) == 0
    assert sizes == [2]
    assert pooled.read_bytes() == serial.read_bytes()
    assert main(["label", "--out", str(single), "--jobs", "1000", scene_files[0]]) == 0
    assert sizes == [2]  # one file makes no pool


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


def test_tokenize_rejects_a_scene_id_that_leaves_the_out_dir(tmp_path, scene_files, capsys):
    doc = json.loads(Path(scene_files[1]).read_text("utf-8"))
    doc["id"] = "../escaped"
    path = tmp_path / "scenes" / "escaped.json"
    path.parent.mkdir()
    path.write_text(json.dumps(doc), "utf-8")
    before = set(tmp_path.rglob("*"))
    assert main(["tokenize", "--out", str(tmp_path / "out" / "tok"), str(path)]) == 1
    assert _one_error_line(capsys.readouterr().err)["error"] == "SCHEMA_ERROR"
    assert not [p for p in set(tmp_path.rglob("*")) - before if p.is_file()]


def test_tokenize_names_the_token_that_is_not_finite_as_f32(tmp_path, capsys):
    scene = synth_scene("NOMINAL", 0)
    path = tmp_path / "huge.json"
    save_scene_file(scene, path)
    doc = json.loads(path.read_text("utf-8"))
    doc["agents"][0]["states"][0]["x"] = 1e100  # finite as f64, not as f32
    path.write_text(json.dumps(doc), "utf-8")
    assert main(["tokenize", "--out", str(tmp_path / "tok"), str(path)]) == 1
    assert _one_error_line(capsys.readouterr().err) == {
        "error": "FORMAT_ERROR",
        "message": f"{scene.id} f0: agent token {scene.agents[0].id} is not finite as f32",
    }


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


@pytest.mark.parametrize(
    "key, value, kind, same_as",
    [
        ("nav_window_s", 1e308, "CONSTRUCTION_ZONE", "scene_s"),
        ("nav_window_s", 1e308, "OVERTAKE_ONCOMING", "scene_s"),
        ("t_corridor", 1e308, "CONSTRUCTION_ZONE", "scene_s"),
        ("t_corridor", 1e308, "OVERTAKE_ONCOMING", "scene_s"),
        ("distractor_ratio", 1e308, "CONSTRUCTION_ZONE", 1e6),
        ("distractor_ratio", -1.0, "OVERTAKE_ONCOMING", 0.0),
        ("nav_window_s", -1e308, "THREE_POINT_TURN", 0.0),
        ("t_corridor", -1e308, "CONSTRUCTION_ZONE", -1.0),
    ],
)
def test_config_values_beyond_the_scene_are_clamped(tmp_path, key, value, kind, same_as):
    # each value ended in a traceback on this scene; now it reads like a value
    # at the clamp, which runs either way
    scene = synth_scene(kind, 0)
    path = tmp_path / "scene.json"
    save_scene_file(scene, path)
    if same_as == "scene_s":
        same_as = scene.n_frames / scene.frame_rate
    outputs = []
    for v in (value, same_as):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({key: v}), "utf-8")
        for command in ("label", "gen-qa"):
            out = tmp_path / f"{command}.jsonl"
            assert main([command, "--config", str(cfg), "--out", str(out), str(path)]) == 0
            outputs.append(out.read_bytes())
    assert outputs[:2] == outputs[2:]


def test_bad_config_key_fails(tmp_path, scene_files, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text('{"not_a_key": 1}', "utf-8")
    assert main(["label", "--out", str(tmp_path / "x.jsonl"), "--config", str(cfg_path), *scene_files]) == 1
    assert "PARAM_ERROR" in capsys.readouterr().err


@pytest.mark.parametrize("config", ['{"grounding_gate": -1}', '{"k_lat": "x"}'])
def test_validate_rejects_a_bad_config(tmp_path, scene_files, capsys, config):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(config, "utf-8")
    assert main(["validate", "--config", str(cfg_path), *scene_files]) == 1
    error = _one_error_line(capsys.readouterr().err)
    assert error["error"] == "PARAM_ERROR"


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
        b'[{"agent_id": 10, "kind": "YIELD_TO_VEHICLE", "frame_span": [0, 1], "scene_id": 5}]',
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
    if b'"scene_id"' in sidecar:
        assert error["message"].startswith(f"{path}: record[0]: scene_id must be a string")
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


def test_validate_reports_a_missing_file_and_keeps_going(tmp_path, scene_files, capsys):
    missing = tmp_path / "missing.json"
    assert main(["validate", str(missing), scene_files[0]]) == 1
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().split("\n")]
    assert [(l["path"], l["ok"]) for l in lines] == [(str(missing), False), (scene_files[0], True)]
    assert lines[0]["error"] == "FILE_ERROR"
    assert lines[0]["message"].startswith(f"{missing}: ")


@pytest.mark.parametrize(
    "spec",
    [
        '{"NOMINAL": "x"}',
        '{"counts": {"NOMINAL": "x"}}',
        '{"BOGUS": 2}',
        "[1]",
        '{"counts": {"NOMINAL": true}}',
        '{"counts": {"NOMINAL": -1}}',
        '{"counts": [1]}',
        '{"counts": {"NOMINAL": 1}, "base_seed": 1.5}',
        '{"counts": {"NOMINAL": 1}, "base_seed": -1}',
        '{"counts": {"NOMINAL": 1}, "params": [1]}',
        '{"counts": {"NOMINAL": 1}, "params": {"NOMINAL": 5}}',
        '{"counts": {"RESUME_FROM_STOP": 1}, "params": {"RESUME_FROM_STOP": {"stop_duration": "x"}}}',
        '{"counts": {"THREE_POINT_TURN": 1}, "params": {"THREE_POINT_TURN": {"v1": null}}}',
        '{"counts": {"CONSTRUCTION_ZONE": 1}, "params": {"CONSTRUCTION_ZONE": {"n_cones": 2.7}}}',
        '{"counts": {"NOMINAL": 1}, "params": {"NOMINAL": {"with_traffic": "no"}}}',
        '{"counts": {"NOMINAL": 1}, "params": {"NOMINALL": {}}}',
        '{"counts": {"NOMINAL": 1}, "params": {"CONSTRUCTION_ZONE": {"n_cones": 2.7}}}',
    ],
)
def test_synth_bad_spec_is_one_json_error(tmp_path, capsys, spec):
    path = tmp_path / "spec.json"
    path.write_text(spec, "utf-8")
    out_dir = tmp_path / "corpus"
    assert main(["synth", "--spec", str(path), "--out", str(out_dir)]) == 1
    assert _one_error_line(capsys.readouterr().err)["error"] == "PARAM_ERROR"
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv, names",
    [
        (["gen-qa", "--jobs", "abc", "--out", "qa.jsonl", "scene.json"], "--jobs"),
        (["gen-qa", "--out", "qa.jsonl"], "scenes"),
        (["frobnicate", "scene.json"], "frobnicate"),
    ],
)
def test_an_argument_error_is_one_json_param_error(capsys, argv, names):
    assert main(argv) == 1
    captured = capsys.readouterr()
    error = _one_error_line(captured.err)
    assert error["error"] == "PARAM_ERROR" and names in error["message"]
    assert captured.out == ""


def test_help_still_prints_help_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["gen-qa", "--help"])
    assert exit_info.value.code == 0
    assert "--templates" in capsys.readouterr().out


@pytest.mark.parametrize(
    "spec, key",
    [
        ({"counts": {"NOMINAL": 1}, "base_sed": 7}, "base_sed"),
        ({"counts": {"NOMINAL": 1}, "params": {}, "param": {"NOMINAL": {}}}, "param"),
    ],
)
def test_synth_spec_unknown_key_is_a_param_error_naming_it(tmp_path, capsys, spec, key):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), "utf-8")
    out_dir = tmp_path / "corpus"
    assert main(["synth", "--spec", str(path), "--out", str(out_dir)]) == 1
    error = _one_error_line(capsys.readouterr().err)
    assert error["error"] == "PARAM_ERROR" and key in error["message"]
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "field, value",
    [
        ("scene_id", [1]),
        ("frame", 3.7),
        ("frame", True),
        ("waypoints", [["1.5", 0.0]] + [[1.0, 0.0]] * 5),
        ("waypoints", [[1.5, True]] + [[1.0, 0.0]] * 5),
    ],
)
def test_evaluate_rejects_mistyped_plan_fields(tmp_path, scene_files, capsys, field, value):
    plans = tmp_path / "plans.jsonl"
    _write_replay_plans(scene_files[:1], plans)
    lines = plans.read_text().strip().split("\n")
    record = json.loads(lines[0])
    record[field] = value
    lines[0] = json.dumps(record)
    plans.write_text("\n".join(lines) + "\n", "utf-8")
    assert main(["evaluate", "--plans", str(plans), "--out", str(tmp_path / "r"), scene_files[0]]) == 1
    error = _one_error_line(capsys.readouterr().err)
    assert error["error"] == "SCHEMA_ERROR"
    assert error["message"].startswith(f"{plans}:1:")


def test_evaluate_rejects_two_files_of_one_scene(tmp_path, scene_files, capsys):
    copy = tmp_path / "copy.json"
    copy.write_bytes(Path(scene_files[0]).read_bytes())
    plans = tmp_path / "plans.jsonl"
    _write_replay_plans(scene_files[:1], plans)
    argv = ["evaluate", "--plans", str(plans), "--out", str(tmp_path / "r"), scene_files[0], str(copy)]
    assert main(argv) == 1
    error = _one_error_line(capsys.readouterr().err)
    assert error["error"] == "REF_ERROR"
    assert scene_files[0] in error["message"] and str(copy) in error["message"]
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command", ["label", "gen-qa", "tokenize"])
def test_two_files_of_one_scene_are_one_ref_error(tmp_path, scene_files, capsys, command):
    copy = tmp_path / "copy.json"
    copy.write_bytes(Path(scene_files[1]).read_bytes())
    out = tmp_path / "out"
    assert main([command, "--out", str(out), *scene_files, str(copy)]) == 1
    error = _one_error_line(capsys.readouterr().err)
    assert error["error"] == "REF_ERROR"
    assert scene_files[1] in error["message"] and str(copy) in error["message"]
    # the ids are checked before any scene runs: no bundle, no JSONL file
    assert not out.is_file() and not any(out.glob("*"))


@pytest.mark.parametrize(
    "agent_id, kind", [(10, "YIELD_TO_PEDESTRIAN"), (30, "YIELD_TO_VEHICLE")]
)
def test_gen_qa_sidecar_yield_must_follow_the_category(tmp_path, capsys, agent_id, kind):
    # agent 10 of nominal-000002 is a car, agent 30 of resume_from_stop-000002
    # a pedestrian
    paths = []
    for name, seed in [("NOMINAL", 2), ("RESUME_FROM_STOP", 2)]:
        paths.append(str(tmp_path / f"{name}.json"))
        save_scene_file(synth_scene(name, seed), paths[-1])
    sidecar = tmp_path / "sidecar.json"
    label = {"agent_id": agent_id, "kind": kind, "side": None, "frame_span": [0, 5]}
    sidecar.write_text(json.dumps([label]), "utf-8")
    out = tmp_path / "qa.jsonl"
    assert main(["gen-qa", "--out", str(out), "--labels", str(sidecar), *paths]) == 1
    error = _one_error_line(capsys.readouterr().err)
    assert error["error"] == "SCHEMA_ERROR"
    assert kind in error["message"]
    assert not out.exists()


# --------------------------------------------------------------------------
# error contract: every bad input file ends in exit 1 and one JSON error line

KNOWN_CODES = {cls.code for cls in DrivekitError.__subclasses__()}


def _assert_one_json_error(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 1, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    error = _one_error_line(err.getvalue())
    assert error["error"] in KNOWN_CODES, error
    return error


def _json_or_blank(data: bytes) -> bool:
    """Bytes some slot could accept: one JSON value, or only whitespace (no plans)."""
    try:
        text = data.decode("utf-8")
        if text.strip():
            json.loads(text)
        return True
    except ValueError:
        return False


JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)
# valid JSON no slot accepts: a scalar, a non-empty list, or an object whose
# keys name no scene field, config field, scenario kind, QA task or plan field
WRONG_SHAPE = st.one_of(
    JSON.filter(lambda v: not isinstance(v, (dict, list))),
    st.lists(JSON, min_size=1, max_size=3),
    st.dictionaries(st.text(max_size=5).map("~".__add__), JSON, min_size=1, max_size=3),
)
BAD_INPUT = st.one_of(
    st.binary(max_size=64).filter(lambda data: not _json_or_blank(data)),
    WRONG_SHAPE.map(lambda value: json.dumps(value).encode()),
    st.sampled_from(["missing", "directory"]),
)
SLOTS = {
    "scene": lambda bad, scene, out: ["label", "--out", out, bad],
    "tokenize scene": lambda bad, scene, out: ["tokenize", "--out", out, bad],
    "config": lambda bad, scene, out: ["label", "--config", bad, "--out", out, scene],
    "spec": lambda bad, scene, out: ["synth", "--spec", bad, "--out", out],
    "labels": lambda bad, scene, out: ["gen-qa", "--labels", bad, "--out", out, scene],
    "plans": lambda bad, scene, out: ["evaluate", "--plans", bad, "--out", out, scene],
    "templates": lambda bad, scene, out: ["gen-qa", "--templates", bad, "--out", out, scene],
}


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    save_scene_file(synth_scene("NOMINAL", 2), root / "scene.json")
    (root / "directory").mkdir()
    return root


@settings(max_examples=300, deadline=None)
@given(slot=st.sampled_from(sorted(SLOTS)), bad=BAD_INPUT)
def test_every_bad_input_file_is_one_json_error(contract_dir, slot, bad):
    if isinstance(bad, bytes):
        (contract_dir / "input").write_bytes(bad)
        bad = "input"
    # a fresh output path per example, so an output one example leaves
    # behind fails that example, not every later one
    out = Path(tempfile.mkdtemp(dir=contract_dir)) / "out"
    argv = SLOTS[slot](str(contract_dir / bad), str(contract_dir / "scene.json"), str(out))
    error = _assert_one_json_error(argv)
    if bad != "input":
        assert error["error"] == "FILE_ERROR"
        assert error["message"].startswith(str(contract_dir / bad))
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["label", "--out", "{blocked}/out.jsonl", "{scene}"],
        ["gen-qa", "--out", "{blocked}/out.jsonl", "{scene}"],
        ["tokenize", "--out", "{blocked}/tokens", "{scene}"],
        ["synth", "--spec", "{spec}", "--out", "{blocked}/corpus"],
        ["evaluate", "--plans", "{plans}", "--out", "{blocked}/report", "{scene}"],
        ["evaluate", "--plans", "{plans}", "--out", "{tmp}/r", "--plots", "{blocked}/p", "{scene}"],
    ],
    ids=["label", "gen-qa", "tokenize", "synth", "evaluate", "evaluate-plots"],
)
def test_unwritable_output_is_one_json_error(tmp_path, scene_files, argv):
    blocked = tmp_path / "blocked"
    blocked.write_text("a file, so no path can go under it", "utf-8")
    spec = tmp_path / "spec.json"
    spec.write_text('{"NOMINAL": 1}', "utf-8")
    plans = tmp_path / "plans.jsonl"
    _write_replay_plans(scene_files[:1], plans)
    fields = {"blocked": blocked, "scene": scene_files[0], "spec": spec, "plans": plans, "tmp": tmp_path}
    error = _assert_one_json_error([arg.format(**fields) for arg in argv])
    assert error["error"] == "FILE_ERROR"
    assert error["message"].startswith(f"{blocked}/")
