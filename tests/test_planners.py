import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import cruising_ego, scene_of, state, straight_lane, track
from drivekit.config import Config
from drivekit.errors import InsufficientFutureError, NoLaneError
from drivekit.geometry import LaneIndex, associate_lane, cumulative_lengths, to_frame
from drivekit.metrics import future_complete, plan_collision_fraction, traj_l2
from drivekit.planners import (
    constant_velocity_planner,
    ego_future_waypoints,
    lane_follow_planner,
    replay_planner,
)
from drivekit.scene import PLAN_DT, PLAN_STEPS, Lane
from drivekit.synth import synth_scene


def test_replay_scores_zero_everywhere(config):
    scene = synth_scene("RESUME_FROM_STOP", 1)
    for frame in range(scene.n_frames):
        if not future_complete(scene.ego, frame, scene.frame_rate):
            continue
        plan = replay_planner(scene, frame)
        gt = ego_future_waypoints(scene, frame)
        assert traj_l2(plan, gt).ave_all == 0.0


def test_replay_masked_near_scene_end(config):
    scene = synth_scene("NOMINAL", 3)
    with pytest.raises(InsufficientFutureError):
        replay_planner(scene, scene.n_frames - 3)


def test_replay_collision_equals_gt_overlap(config):
    # ego GT drives straight through a parked car, so the replayed plan must
    # report exactly the overlap of the GT footprints themselves
    lanes = [straight_lane(1, length=120.0)]
    ego = [state(5.0 + 4.0 * k, 0.0, 0.0, 8.0) for k in range(14)]
    car = track(3, [state(30.0, 0.0, 0.0, 0.0, (4.5, 1.8))] * 14)
    scene = scene_of(lanes, [car], ego)
    plan = replay_planner(scene, 0)
    frac = plan_collision_fraction(scene, 0, plan)

    # direct GT check: which of the 6 future frames overlap the car's box
    from drivekit.geometry import obb_corners, obb_overlap

    hits = 0
    for k in range(1, 7):
        st = scene.ego.states[k]
        ego_box = obb_corners((st.pose.x, st.pose.y), st.pose.heading, *st.box)
        car_box = obb_corners((30.0, 0.0), 0.0, 4.5, 1.8)
        hits += obb_overlap(ego_box, car_box)
    assert frac == pytest.approx(hits / 6)
    assert hits > 0


def test_waypoint_contract_six_uniform_steps(config):
    scene = synth_scene("OVERTAKE_ONCOMING", 8)
    planners = (
        replay_planner,
        constant_velocity_planner,
        lambda s, f: lane_follow_planner(s, f, config=config),
    )
    for planner in planners:
        plan = planner(scene, 0)
        assert isinstance(plan, np.ndarray)
        assert plan.shape == (6, 2) and plan.dtype == float


def test_constant_velocity_stationary_at_origin(config):
    lanes = [straight_lane(1)]
    ego = [state(40.0, 0.0, 0.0, 0.0) for _ in range(10)]
    scene = scene_of(lanes, [], ego)
    plan = constant_velocity_planner(scene, 0)
    assert np.allclose(plan, 0.0)


def test_constant_velocity_matches_gt_on_straight(config):
    lanes = [straight_lane(1, length=120.0)]
    scene = scene_of(lanes, [], cruising_ego(20, speed=10.0))
    plan = constant_velocity_planner(scene, 2)
    expected = np.array([(5.0 * (k + 1), 0.0) for k in range(6)])
    assert np.allclose(plan, expected, atol=1e-9)
    gt = ego_future_waypoints(scene, 2)
    assert traj_l2(plan, gt).ave_all < 1e-9


def test_constant_velocity_heading_error_on_curves(config):
    scene = synth_scene("THREE_POINT_TURN", 1)
    # anchor just before the turning begins
    frame = 3
    plan = constant_velocity_planner(scene, frame)
    gt = ego_future_waypoints(scene, frame)
    from drivekit.metrics import heading_l2

    assert heading_l2(plan, gt).ave_all > 0.05


def test_lane_follow_straight_is_collinear(config):
    lanes = [straight_lane(1, length=120.0)]
    scene = scene_of(lanes, [], cruising_ego(10, speed=8.0))
    xy = lane_follow_planner(scene, 0, config=config)
    assert np.allclose(xy[:, 1], 0.0, atol=1e-9)
    assert np.allclose(xy[:, 0], 4.0 * np.arange(1, 7), atol=1e-9)


def test_lane_follow_tracks_circular_arc(config):
    # circular lane of radius 30, ego on the arc: waypoints stay on the arc
    r = 30.0
    # 8000 points keep the chord sagitta r*(d/2)^2/2 below 1e-6
    phis = np.linspace(-math.pi / 2, math.pi / 2, 8000)
    arc = Lane(
        id=1,
        centerline=tuple((r * math.cos(p), r + r * math.sin(p)) for p in phis),
        half_width=1.85,
    )
    v = 6.0
    ego = [state(0.0, 0.0, 0.0, v)] * 8
    scene = scene_of([arc], [], ego)
    plan = lane_follow_planner(scene, 0, config=config)
    from drivekit.geometry import from_frame

    world = from_frame(plan, scene.ego.states[0].pose)
    radii = np.hypot(world[:, 0], world[:, 1] - r)
    assert np.max(np.abs(radii - r)) < 1e-6


def test_lane_follow_extends_past_lane_end(config):
    lanes = [straight_lane(1, length=20.0)]
    ego = [state(15.0, 0.0, 0.0, 8.0)] * 8
    scene = scene_of(lanes, [], ego)
    xy = lane_follow_planner(scene, 0, config=config)
    assert np.allclose(xy[:, 1], 0.0, atol=1e-9)  # continues along the tangent
    assert xy[-1, 0] == pytest.approx(24.0)


def oracle_tangent_heading(pts, segment_index: int) -> float:
    dx = pts[segment_index + 1, 0] - pts[segment_index, 0]
    dy = pts[segment_index + 1, 1] - pts[segment_index, 1]
    return math.atan2(dy, dx)


def oracle_point_at_arclength(polyline, s: float) -> tuple:
    """The former per-step lane walk: the point at arc length s, extended
    along the end tangent beyond either end."""
    pts = np.asarray(polyline, dtype=float)
    cum = cumulative_lengths(pts)
    total = float(cum[-1])
    if s <= 0.0:
        h = oracle_tangent_heading(pts, 0)
        return (pts[0, 0] + s * math.cos(h), pts[0, 1] + s * math.sin(h))
    if s >= total:
        h = oracle_tangent_heading(pts, len(pts) - 2)
        extra = s - total
        return (pts[-1, 0] + extra * math.cos(h), pts[-1, 1] + extra * math.sin(h))
    i = min(int(np.searchsorted(cum, s, side="right") - 1), len(pts) - 2)
    t = (s - float(cum[i])) / float(cum[i + 1] - cum[i])
    return (
        float(pts[i, 0] + t * (pts[i + 1, 0] - pts[i, 0])),
        float(pts[i, 1] + t * (pts[i + 1, 1] - pts[i, 1])),
    )


def bent_lane(start, steps):
    """A lane from `start` through (length, turn) steps."""
    pts, heading = [start], 0.0
    for length, turn in steps:
        heading += turn
        x, y = pts[-1]
        pts.append((x + length * math.cos(heading), y + length * math.sin(heading)))
    return Lane(id=1, centerline=tuple(pts), half_width=1.85)


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)),
    st.lists(st.tuples(st.floats(0.5, 30.0), st.floats(-2.5, 2.5)), min_size=1, max_size=7),
    st.data(),
    st.floats(0.0, 1.0),
    st.floats(-40.0, 40.0),
)
def test_lane_walk_matches_the_per_step_walk(start, steps, data, u, speed):
    # a negative target speed walks back past the lane start
    lane = bent_lane(start, steps)
    i = data.draw(st.integers(0, len(steps) - 1))
    (x0, y0), (x1, y1) = lane.centerline[i : i + 2]
    heading = math.atan2(y1 - y0, x1 - x0)
    scene = scene_of([lane], [], [state(x0 + u * (x1 - x0), y0 + u * (y1 - y0), heading)] * 2)
    ego = scene.ego.arrays[:1]
    [assoc] = associate_lane(ego["xy"], ego["heading"], LaneIndex.build([lane]), Config())
    assume(assoc is not None)  # a lane that crosses itself may hide the ego's segment
    expected = to_frame(
        [
            oracle_point_at_arclength(lane.centerline, assoc.frenet.s + speed * PLAN_DT * (k + 1))
            for k in range(PLAN_STEPS)
        ],
        scene.ego.pose(0),
    )
    plan = lane_follow_planner(scene, 0, target_speed=speed)
    assert np.max(np.abs(plan - expected)) <= 1e-9


def test_lane_follow_without_lane_errors(config):
    lanes = [straight_lane(1, length=120.0)]
    ego = [state(40.0, 12.0, 0.0, 8.0)] * 8
    scene = scene_of(lanes, [], ego)
    with pytest.raises(NoLaneError):
        lane_follow_planner(scene, 0, config=config)


def test_lane_follow_target_speed_override(config):
    lanes = [straight_lane(1, length=120.0)]
    scene = scene_of(lanes, [], cruising_ego(10, speed=8.0))
    xy = lane_follow_planner(scene, 0, target_speed=4.0, config=config)
    assert xy[-1, 0] == pytest.approx(12.0)


def test_plan_file_round_trips_through_evaluation(tmp_path, config):
    from drivekit.planners import plan_record, write_plan_file
    from drivekit.cli import _load_plans

    scene = synth_scene("NOMINAL", 4)
    records = [
        plan_record(scene.id, f, replay_planner(scene, f))
        for f in range(4)
    ]
    path = tmp_path / "plans.jsonl"
    write_plan_file(records, path)
    plans = _load_plans(path)
    assert [p.frame for p in plans] == [0, 1, 2, 3]
    from drivekit.metrics import evaluate_plans

    report = evaluate_plans(plans, {scene.id: scene}, config)
    assert report.l2.ave_all == 0.0


def test_a_plan_file_is_left_as_it_was_when_a_record_cannot_be_written(tmp_path):
    from drivekit.planners import plan_record, write_plan_file

    path = tmp_path / "plans.jsonl"
    write_plan_file([plan_record("s", 0, np.zeros((6, 2)))], path)
    before = path.read_bytes()
    bad = {"scene_id": "s", "frame": 1, "waypoints": np.zeros((6, 2))}  # not JSON
    with pytest.raises(TypeError):
        write_plan_file([plan_record("s", 0, np.ones((6, 2))), bad], path)
    assert path.read_bytes() == before


def test_resampled_waypoints_match_gt_in_global_frame(config):
    # transformed back to the world frame, frame-aligned resampled waypoints
    # reproduce the ground-truth ego positions to float precision
    from drivekit.geometry import from_frame

    for kind, seed in [("THREE_POINT_TURN", 2), ("OVERTAKE_ONCOMING", 9)]:
        scene = synth_scene(kind, seed)
        for frame in range(0, scene.n_frames - 7, 3):
            wp = ego_future_waypoints(scene, frame)
            world = from_frame(wp, scene.ego.states[frame].pose)
            gt = np.array(
                [
                    (scene.ego.states[frame + k].pose.x, scene.ego.states[frame + k].pose.y)
                    for k in range(1, 7)
                ]
            )
            assert np.max(np.abs(world - gt)) <= 1e-9
