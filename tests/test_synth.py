import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drivekit.synth
from drivekit.cli import _label_scene, _qa_scene
from drivekit.config import Config
from drivekit.errors import ParamError
from drivekit.qa import load_templates
from drivekit.tokens import fixture_encode, write_bundle
from drivekit.relations import compute_relations
from drivekit.interactions import InteractionKind, label_interactions
from drivekit.scene import (
    NavigationCommand,
    Pose2,
    ScenarioKind,
    load_scene,
    save_scene,
    wrap_angle,
)
from drivekit.synth import (
    _three_point_turn_curve,
    corpus_manifest,
    synth_corpus,
    synth_scene,
)

ALL_KINDS = [
    "NOMINAL",
    "THREE_POINT_TURN",
    "RESUME_FROM_STOP",
    "OVERTAKE_ONCOMING",
    "CONSTRUCTION_ZONE",
]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_all_kinds_validate_and_roundtrip(kind):
    scene = synth_scene(kind, 0)
    assert scene.scenario_tag is ScenarioKind(kind)
    assert load_scene(save_scene(scene)) == scene


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_determinism_byte_identical(kind):
    a = save_scene(synth_scene(kind, 12))
    b = save_scene(synth_scene(kind, 12))
    assert a == b
    c = save_scene(synth_scene(kind, 13))
    assert c != a


def test_nominal_has_no_events(config):
    scene = synth_scene("NOMINAL", 8)
    rel = compute_relations(scene, config)
    assert set(rel.nav_commands) == {NavigationCommand.KEEP_FORWARD}
    from drivekit.relations import EgoLaneDecision

    assert set(rel.ego_decisions) == {EgoLaneDecision.KEEP_LANE}
    assert label_interactions(scene, rel, config) == []


def test_three_point_turn_net_heading_and_reversal():
    scene = synth_scene("THREE_POINT_TURN", 21)
    headings = [st.pose.heading for st in scene.ego.states]
    net = sum(wrap_angle(b - a) for a, b in zip(headings, headings[1:]))
    assert abs(net - math.pi) < math.radians(5.0)
    assert any(st.speed < -0.2 for st in scene.ego.states)


def test_three_point_turn_primitive_closed_form():
    pose_at, total = _three_point_turn_curve(Pose2(0.0, 0.0, 0.3), None)
    # net heading change is exactly pi by arc composition
    assert abs(wrap_angle(pose_at(total)[2] - 0.3 - math.pi)) < 1e-2
    speeds = [pose_at(t)[3] for t in [*np.arange(0.0, total, 0.5), total]]
    assert any(v < 0 for v in speeds)  # reversal phase present
    assert speeds[0] > 0 and speeds[-1] > 0
    # the maneuver lasts the closed-form duration: sum of r * arc / |v| over
    # the default arcs (radius 6 m; 100, 50, 30 degrees; 5, 2.5, 3 m/s)
    expected = 6 * math.radians(100) / 5 + 6 * math.radians(50) / 2.5 + 6 * math.radians(30) / 3
    assert total == pytest.approx(expected, rel=1e-12)
    # and the scene holds its frames on the 0.5 s grid
    nav = synth_scene("THREE_POINT_TURN", 0).nav_commands
    turning = [c for c in nav if c is NavigationCommand.THREE_POINT_TURN_LEFT]
    assert len(turning) == math.floor(expected / 0.5) + 1


def test_three_point_turn_pose_is_continuous_at_both_arc_ends():
    pose_at, total = _three_point_turn_curve(Pose2(3.0, -2.0, 0.3), None)
    t1 = 6 * math.radians(100) / 5
    t2 = 6 * math.radians(50) / 2.5
    for end in (t1, t1 + t2):
        before, after = pose_at(end), pose_at(math.nextafter(end, math.inf))
        assert after[:3] == pytest.approx(before[:3], abs=1e-9)
        assert before[3] * after[3] < 0  # the travel direction flips at each arc end
    # inside each arc the position moves along the heading at the signed
    # speed, which puts each turn centre on its own side
    for t in (t1 / 2, t1 + t2 / 2, (t1 + t2 + total) / 2):
        (x0, y0, _, _), (_, _, h, v), (x2, y2, _, _) = (pose_at(t + d) for d in (-1e-6, 0, 1e-6))
        velocity = ((x2 - x0) / 2e-6, (y2 - y0) / 2e-6)
        assert velocity == pytest.approx((v * math.cos(h), v * math.sin(h)), abs=1e-6)


def test_three_point_turn_param_validation():
    for params in ({"radius1": -1.0}, {"v2": 2.0}, {"arc1_deg": 140.0, "arc2_deg": 50.0}, {"bogus": 1}):
        with pytest.raises(ParamError):
            synth_scene("THREE_POINT_TURN", 0, params)


def test_nav_closure_on_three_point_turn(config):
    scene = synth_scene("THREE_POINT_TURN", 33)
    rel = compute_relations(scene, config)
    assert NavigationCommand.THREE_POINT_TURN_LEFT in rel.nav_commands


@pytest.mark.parametrize(
    "kind,expected",
    [
        ("CONSTRUCTION_ZONE", InteractionKind.BYPASS_CONES),
        ("RESUME_FROM_STOP", InteractionKind.YIELD_TO_PEDESTRIAN),
        ("OVERTAKE_ONCOMING", InteractionKind.OVERTAKE_LANE_CHANGE),
    ],
)
def test_interaction_closure_per_kind(config, kind, expected):
    for seed in range(5):
        scene = synth_scene(kind, seed)
        rel = compute_relations(scene, config)
        kinds = {l.kind for l in label_interactions(scene, rel, config)}
        assert expected in kinds, (kind, seed)


def test_resume_scene_speed_profile():
    scene = synth_scene("RESUME_FROM_STOP", 4)
    speeds = [st.speed for st in scene.ego.states]
    stopped = [i for i, v in enumerate(speeds) if abs(v) < 0.3]
    assert stopped and stopped[0] > 0 and stopped[-1] < len(speeds) - 1
    assert speeds[stopped[-1] + 1] >= 0.3  # resumes after the hold


def test_corpus_manifest_fractions():
    manifest = corpus_manifest({"THREE_POINT_TURN": 40, "NOMINAL": 33293})
    assert manifest["total"] == 33333
    frac = manifest["kinds"]["THREE_POINT_TURN"]["fraction"]
    assert abs(frac - 0.0012) < 1e-4
    assert manifest["kinds"]["NOMINAL"]["seed_range"] == [0, 33292]
    assert manifest["kinds"]["THREE_POINT_TURN"]["seed_range"] == [33293, 33332]


def test_corpus_manifest_hash_stable():
    a = corpus_manifest({"NOMINAL": 3, "CONSTRUCTION_ZONE": 2}, base_seed=7)
    b = corpus_manifest({"CONSTRUCTION_ZONE": 2, "NOMINAL": 3}, base_seed=7)
    assert a["manifest_hash"] == b["manifest_hash"]
    c = corpus_manifest({"NOMINAL": 3, "CONSTRUCTION_ZONE": 2}, base_seed=8)
    assert c["manifest_hash"] != a["manifest_hash"]


def test_empty_corpus():
    scenes, manifest = synth_corpus({})
    assert scenes == [] and manifest["total"] == 0


def test_corpus_materializes_with_sequential_seeds():
    scenes, manifest = synth_corpus({"NOMINAL": 2, "THREE_POINT_TURN": 1}, base_seed=5)
    assert len(scenes) == 3
    ids = [s.id for s in scenes]
    assert ids == ["nominal-000005", "nominal-000006", "three_point_turn-000007"]
    again, manifest2 = synth_corpus({"NOMINAL": 2, "THREE_POINT_TURN": 1}, base_seed=5)
    assert [save_scene(s) for s in scenes] == [save_scene(s) for s in again]
    assert manifest["manifest_hash"] == manifest2["manifest_hash"]


OUT_OF_RANGE = [
    ("THREE_POINT_TURN", {"radius3": 0.0}),
    ("THREE_POINT_TURN", {"arc2_deg": 0}),
    ("THREE_POINT_TURN", {"arc1_deg": 100.0, "arc2_deg": 80.0}),
    ("THREE_POINT_TURN", {"v3": -1.0}),
    ("RESUME_FROM_STOP", {"stop_duration": 0.5}),
    ("OVERTAKE_ONCOMING", {"pass_side": "up"}),
    ("CONSTRUCTION_ZONE", {"shift": 1.85}),
    ("CONSTRUCTION_ZONE", {"shift": 3.7}),
    ("CONSTRUCTION_ZONE", {"n_cones": 0}),
]


@pytest.mark.parametrize("counted", [True, False])
@pytest.mark.parametrize("kind, entry", OUT_OF_RANGE)
def test_out_of_range_params_fail_before_any_scene_is_built(monkeypatch, kind, entry, counted):
    built = []
    monkeypatch.setattr(drivekit.synth, "_scene", lambda *args: built.append(args))
    counts = {"NOMINAL": 1, kind: 1} if counted else {"NOMINAL": 1}
    with pytest.raises(ParamError, match=f"^{kind}: "):
        synth_corpus(counts, params={kind: entry})
    assert built == []


def test_construction_shift_is_judged_against_the_configured_lane_width():
    wide = Config(synth_lane_width=6.0)
    assert synth_scene("CONSTRUCTION_ZONE", 0, {"shift": 4.0}, wide).agents
    with pytest.raises(ParamError):
        synth_scene("CONSTRUCTION_ZONE", 0, {"shift": 4.0})
    with pytest.raises(ParamError):
        synth_corpus({}, params={"CONSTRUCTION_ZONE": {"shift": 2.3}}, config=wide)


def _pipeline_outputs(scene, config, templates) -> tuple:
    """The saved bytes, label lines, gen-qa lines and TOKB bytes of one scene."""
    bundles = io.BytesIO()
    for frame in range(scene.n_frames):
        write_bundle(fixture_encode(scene, frame, config.seed), bundles)
    qa = _qa_scene(scene, config, None, templates)
    return save_scene(scene), _label_scene(scene, config), qa, bundles.getvalue()


@settings(max_examples=15, deadline=None)
@given(
    kind=st.sampled_from(["NOMINAL", "OVERTAKE_ONCOMING", "CONSTRUCTION_ZONE"]),
    seed=st.integers(0, 99),
    data=st.data(),
)
def test_agent_and_lane_order_of_a_saved_scene_changes_no_output(kind, seed, data):
    params = {"n_cones": 5} if kind == "CONSTRUCTION_ZONE" else None
    doc = json.loads(save_scene(synth_scene(kind, seed, params)))
    permuted = dict(
        doc,
        agents=data.draw(st.permutations(doc["agents"])),
        lanes=data.draw(st.permutations(doc["lanes"])),
    )
    scene, other = load_scene(doc), load_scene(json.dumps(permuted))
    assert other == scene
    outputs = [_pipeline_outputs(s, Config(), load_templates()) for s in (scene, other)]
    assert outputs[0] == outputs[1]
