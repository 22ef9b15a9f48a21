import numpy as np
import pytest

from conftest import cruising_ego, point_obb_distance, scene_of, state, straight_lane, track
from drivekit.errors import SchemaError
from drivekit.interactions import (
    CriticalReason,
    InteractionKind,
    InteractionLabel,
    Side,
    critical_objects,
    ego_corridor,
    label_interactions,
    merge_override_labels,
)
from drivekit.relations import compute_relations
from drivekit.scene import AgentCategory, AgentTrack
from drivekit.synth import synth_scene


def test_lane_change_overtake_reads_side_left(config):
    scene = synth_scene("OVERTAKE_ONCOMING", 1, {"pass_side": "right", "with_oncoming": False})
    rel = compute_relations(scene, config)
    labels = label_interactions(scene, rel, config)
    assert len(labels) == 1
    label = labels[0]
    assert label.kind is InteractionKind.OVERTAKE_LANE_CHANGE
    assert label.side is Side.LEFT
    assert label.agent_id == 10


def test_straddle_bypass_of_cones(config):
    scene = synth_scene("CONSTRUCTION_ZONE", 3)
    rel = compute_relations(scene, config)
    labels = label_interactions(scene, rel, config)
    assert labels, "cones must be labeled"
    assert {l.kind for l in labels} == {InteractionKind.BYPASS_CONES}
    assert {l.agent_id for l in labels} == {20, 21, 22}
    for label in labels:
        assert label.side is Side.RIGHT  # ego passes on the left of the cones


def test_empty_scene_yields_no_labels(config):
    scene = scene_of([straight_lane(1)], [], cruising_ego(10))
    rel = compute_relations(scene, config)
    assert label_interactions(scene, rel, config) == []


def test_pedestrian_yield_span_matches_stop_frames(config):
    # stop profile by construction: cruise 2 s, decelerate 2 s, hold 5 s,
    # resume; fully stopped frames are t = 4.0 .. 9.0 -> frames 8..18
    scene = synth_scene("RESUME_FROM_STOP", 11)
    rel = compute_relations(scene, config)
    labels = label_interactions(scene, rel, config)
    assert len(labels) == 1
    label = labels[0]
    assert label.kind is InteractionKind.YIELD_TO_PEDESTRIAN
    assert label.frame_span == (8, 18)
    speeds = [st.speed for st in scene.ego.states]
    assert all(abs(speeds[f]) < config.v_stop for f in range(8, 19))
    assert speeds[19] >= config.v_stop


def _stop_and_go_ego(n):
    """Cruise 2 s at 6 m/s, brake at 3 m/s^2, hold at x=38 until t=9 s, then
    accelerate away at 2 m/s^2 (capped at 6 m/s)."""
    states = []
    for k in range(n):
        t = 0.5 * k
        if t < 2.0:
            x, v = 20.0 + 6.0 * t, 6.0
        elif t < 4.0:
            dt = t - 2.0
            x, v = 32.0 + 6.0 * dt - 1.5 * dt * dt, 6.0 - 3.0 * dt
        elif t < 9.0:
            x, v = 38.0, 0.0
        else:
            dt = t - 9.0
            v = min(6.0, 2.0 * dt)
            x = 38.0 + (dt * dt if v < 6.0 else 9.0 + 6.0 * (dt - 3.0))
        states.append(state(x, 0.0, 0.0, v))
    return states


def test_yield_to_vehicle_category(config):
    # a stalled car ahead in the ego lane drives away before the ego resumes
    n = 26
    ego = _stop_and_go_ego(n)
    car_states = []
    for k in range(n):
        t = 0.5 * k
        if t <= 7.0:
            car_states.append(state(45.0, 0.0, 0.0, 0.0, (4.5, 1.8)))
        else:
            car_states.append(state(45.0 + 5.0 * (t - 7.0), 0.0, 0.0, 5.0, (4.5, 1.8)))
    scene = scene_of([straight_lane(1, length=200.0)], [track(60, car_states)], ego)
    rel = compute_relations(scene, config)
    labels = label_interactions(scene, rel, config)
    assert [l.kind for l in labels] == [InteractionKind.YIELD_TO_VEHICLE]
    assert labels[0].frame_span == (8, 18)


def test_no_yield_without_resume(config):
    # scene ends while still stopped: no resume, no yield label
    scene = synth_scene("RESUME_FROM_STOP", 2)
    cut = 14  # mid-stop
    agents = [
        AgentTrack(id=t.id, category=t.category, states=t.states[:cut])
        for t in scene.agents
    ]
    scene2 = scene_of(
        scene.lanes, agents, scene.ego.states[:cut], nav=scene.nav_commands[:cut]
    )
    rel = compute_relations(scene2, config)
    assert label_interactions(scene2, rel, config) == []


def test_label_requires_side_for_pass_kinds():
    with pytest.raises(SchemaError):
        InteractionLabel(
            agent_id=1, kind=InteractionKind.BYPASS_CONES, side=None, frame_span=(0, 3)
        )


def test_category_compatibility(config):
    # labels never carry a kind incompatible with the agent's category
    for kind_name, seed in [
        ("OVERTAKE_ONCOMING", 5),
        ("CONSTRUCTION_ZONE", 5),
        ("RESUME_FROM_STOP", 5),
    ]:
        scene = synth_scene(kind_name, seed)
        rel = compute_relations(scene, config)
        categories = {t.id: t.category for t in scene.agents}
        for label in label_interactions(scene, rel, config):
            cat = categories[label.agent_id]
            if label.kind is InteractionKind.BYPASS_CONES:
                assert cat in (AgentCategory.TRAFFIC_CONE, AgentCategory.BARRIER)
            elif label.kind is InteractionKind.YIELD_TO_PEDESTRIAN:
                assert cat is AgentCategory.PEDESTRIAN
            elif label.kind is InteractionKind.YIELD_TO_VEHICLE:
                assert cat is not AgentCategory.PEDESTRIAN
            else:
                assert cat in (
                    AgentCategory.CAR,
                    AgentCategory.TRUCK,
                    AgentCategory.BUS,
                    AgentCategory.MOTORCYCLE,
                    AgentCategory.BICYCLE,
                )


def test_labels_stable_under_id_renaming(config):
    scene = synth_scene("CONSTRUCTION_ZONE", 7)
    rel = compute_relations(scene, config)
    base = label_interactions(scene, rel, config)

    remap = {20: 120, 21: 121, 22: 122}
    agents = [
        AgentTrack(id=remap[t.id], category=t.category, states=t.states)
        for t in scene.agents
    ]
    scene2 = scene_of(scene.lanes, agents, scene.ego.states, nav=scene.nav_commands)
    rel2 = compute_relations(scene2, config)
    renamed = label_interactions(scene2, rel2, config)
    assert [(remap[l.agent_id], l.kind, l.side, l.frame_span) for l in base] == [
        (l.agent_id, l.kind, l.side, l.frame_span) for l in renamed
    ]


def test_labels_deterministic_and_canonically_ordered(config):
    scene = synth_scene("CONSTRUCTION_ZONE", 13)
    rel = compute_relations(scene, config)
    a = label_interactions(scene, rel, config)
    b = label_interactions(scene, rel, config)
    assert a == b
    keys = [(l.agent_id, l.frame_span[0]) for l in a]
    assert keys == sorted(keys)


# --------------------------------------------------------------------------
# criticality


def test_labeled_agent_is_critical_over_full_span(config):
    scene = synth_scene("OVERTAKE_ONCOMING", 3, {"with_oncoming": False})
    rel = compute_relations(scene, config)
    labels = label_interactions(scene, rel, config)
    assert labels
    for label in labels:
        for frame in range(label.frame_span[0], label.frame_span[1] + 1):
            crits = {c.agent_id: c for c in critical_objects(scene, labels, frame, config)}
            assert crits[label.agent_id].critical
            assert crits[label.agent_id].reason is CriticalReason.HAS_INTERACTION


def test_far_parked_car_not_critical(config):
    lanes = [straight_lane(1, length=120.0)]
    ego = cruising_ego(12)
    parked = track(40, [state(30.0, 20.0, 0.0, 0.0, (4.5, 1.8))] * 12)
    scene = scene_of(lanes, [parked], ego)
    crits = critical_objects(scene, [], 0, config)
    assert crits == [
        type(crits[0])(agent_id=40, critical=False, reason=CriticalReason.NONE)
    ]


def test_cone_near_future_path_is_corridor_critical(config):
    # ego 1.0 m wide so the corridor dilation is 0.5 + 1.0 = 1.5 m; the cone
    # center sits 0.5 m off the path
    lanes = [straight_lane(1, length=120.0)]
    ego = [state(5.0 + 4.0 * k, 0.0, 0.0, 8.0, box=(3.0, 1.0)) for k in range(12)]
    cone = track(
        50,
        [state(15.0, 0.5, 0.0, 0.0, (0.4, 0.4))] * 12,  # center 0.5 m off the path
        category=AgentCategory.TRAFFIC_CONE,
    )
    scene = scene_of(lanes, [cone], ego)
    crits = {c.agent_id: c for c in critical_objects(scene, [], 0, config)}
    assert crits[50].critical
    assert crits[50].reason is CriticalReason.IN_EGO_CORRIDOR

    # corridor oracle: dense sampling of the ego future path
    corridor = ego_corridor(scene, 0, config)
    dense = []
    for a, b in zip(corridor, corridor[1:]):
        for t in np.linspace(0.0, 1.0, 500):
            p = a + t * (b - a)
            dense.append(point_obb_distance(p, (15.0, 0.5), 0.0, 0.4, 0.4))
    assert min(dense) <= 0.5 * 1.0 + config.corridor_margin + 1e-6


def test_corridor_respects_time_horizon(config):
    # object 40 m ahead is beyond the 3 s corridor of an 8 m/s ego (24 m)
    lanes = [straight_lane(1, length=200.0)]
    ego = [state(5.0 + 4.0 * k, 0.0, 0.0, 8.0) for k in range(30)]
    car = track(9, [state(60.0, 0.0, 0.0, 0.0, (4.5, 1.8))] * 30)
    scene = scene_of(lanes, [car], ego)
    crits = {c.agent_id: c for c in critical_objects(scene, [], 0, config)}
    assert not crits[9].critical
    # at frame 10 the ego sits at x=45 and its 24 m corridor reaches the car
    crits_later = {c.agent_id: c for c in critical_objects(scene, [], 10, config)}
    assert crits_later[9].critical


def test_a_negative_corridor_horizon_makes_no_agent_corridor_critical(config):
    # a negative t_corridor keeps its empty corridor, so a car just ahead of
    # the ego, critical under the default horizon, reads NONE
    lanes = [straight_lane(1, length=120.0)]
    car = track(7, [state(12.0, 0.0, 0.0, 0.0, (4.5, 1.8))] * 12)
    scene = scene_of(lanes, [car], cruising_ego(12))
    crits = critical_objects(scene, [], 0, config)
    assert crits[0].reason is CriticalReason.IN_EGO_CORRIDOR
    crits = critical_objects(scene, [], 0, config.replace(t_corridor=-1.0))
    assert crits == [
        type(crits[0])(agent_id=7, critical=False, reason=CriticalReason.NONE)
    ]


# --------------------------------------------------------------------------
# sidecar merge


def test_sidecar_overrides_overlapping_label(config):
    heuristic = [
        InteractionLabel(1, InteractionKind.OVERTAKE_STRADDLE, Side.LEFT, (2, 9)),
        InteractionLabel(2, InteractionKind.YIELD_TO_PEDESTRIAN, None, (4, 8)),
    ]
    sidecar = [
        InteractionLabel(1, InteractionKind.OVERTAKE_STRADDLE, Side.RIGHT, (3, 10)),
    ]
    merged = merge_override_labels(heuristic, sidecar)
    assert len(merged) == 2
    by_agent = {l.agent_id: l for l in merged}
    assert by_agent[1].side is Side.RIGHT
    assert by_agent[1].frame_span == (3, 10)
    assert by_agent[2].kind is InteractionKind.YIELD_TO_PEDESTRIAN


def test_sidecar_additions_pass_through(config):
    sidecar = [InteractionLabel(7, InteractionKind.YIELD_TO_VEHICLE, None, (0, 4))]
    merged = merge_override_labels([], sidecar)
    assert merged == sidecar


def test_sidecar_different_kind_does_not_override(config):
    heuristic = [InteractionLabel(1, InteractionKind.OVERTAKE_STRADDLE, Side.LEFT, (2, 9))]
    sidecar = [InteractionLabel(1, InteractionKind.OVERTAKE_LANE_CHANGE, Side.LEFT, (2, 9))]
    merged = merge_override_labels(heuristic, sidecar)
    assert len(merged) == 2


def test_label_roundtrip_dict():
    label = InteractionLabel(3, InteractionKind.BYPASS_CONES, Side.RIGHT, (1, 5))
    assert InteractionLabel.from_dict(label.to_dict()) == label


@pytest.mark.parametrize(
    "record",
    [
        {"agent_id": 3.7},
        {"agent_id": True},
        {"agent_id": "5"},
        {"frame_span": "12"},
        {"frame_span": [1, 4, 9]},
        {"frame_span": [1, 4.0]},
        {"frame_span": [False, 4]},
        {"side": ""},
        {"side": False},
    ],
)
def test_label_record_fields_are_not_coerced(record):
    data = {"agent_id": 3, "kind": "YIELD_TO_VEHICLE", "side": None, "frame_span": [1, 4]}
    with pytest.raises(SchemaError):
        InteractionLabel.from_dict({**data, **record})


@pytest.mark.parametrize("kind", ["YIELD_TO_PEDESTRIAN", "YIELD_TO_VEHICLE"])
def test_yield_label_takes_no_side(kind):
    with pytest.raises(SchemaError, match="takes no side"):
        InteractionLabel.from_dict(
            {"agent_id": 3, "kind": kind, "side": "LEFT", "frame_span": [1, 4]}
        )


@pytest.mark.parametrize(
    "fields, message",
    [
        ((1, "YIELD_TO_VEHICLE", None, (0, 1)), "label kind must be a InteractionKind"),
        ((1, InteractionKind.BYPASS_CONES, "LEFT", (0, 1)), "label side must be a Side"),
        ((1, InteractionKind.YIELD_TO_VEHICLE, None, (0, "a")), "label frame_span must be two"),
        ((1, InteractionKind.YIELD_TO_VEHICLE, None, (0, 1, 2)), "label frame_span must be two"),
        ((1.0, InteractionKind.YIELD_TO_VEHICLE, None, (0, 1)), "label agent_id must be an int"),
        ((True, InteractionKind.YIELD_TO_VEHICLE, None, (0, 1)), "label agent_id must be an int"),
    ],
)
def test_interaction_label_checks_its_fields_at_construction(fields, message):
    with pytest.raises(SchemaError, match=message):
        InteractionLabel(*fields)


def test_interaction_label_frame_span_is_a_tuple():
    label = InteractionLabel(1, InteractionKind.YIELD_TO_VEHICLE, None, [2, 3])
    assert label.frame_span == (2, 3)
    assert label == InteractionLabel.from_dict(label.to_dict())
