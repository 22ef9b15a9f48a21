"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of the workload seed: the same seed gives
byte-identical scene, plan and detection files. The generators build inputs
from drivekit's public scene dataclasses and planners; they never call a
timed CLI stage.
"""
from __future__ import annotations

import json
import math

import numpy as np

from drivekit import (
    AgentCategory,
    AgentState,
    AgentTrack,
    Lane,
    NavigationCommand,
    Pose2,
    Scene,
    constant_velocity_planner,
    synth_corpus,
)
from drivekit.planners import plan_record, write_plan_file
from drivekit.scene import quantize

# The ROADMAP corpus mix: 60 small scenes.
CORPUS_MIX = {
    "NOMINAL": 20,
    "THREE_POINT_TURN": 10,
    "RESUME_FROM_STOP": 10,
    "OVERTAKE_ONCOMING": 10,
    "CONSTRUCTION_ZONE": 10,
}

# The ROADMAP stress scene: 8 parallel rows of 5 chained lanes, 100 agents,
# 60 frames at 2 Hz.
DENSE_ROWS = 8
DENSE_SEGMENTS = 5
DENSE_AGENTS = 100
DENSE_FRAMES = 60
DENSE_RATE_HZ = 2.0
DENSE_LANE_LENGTH = 50.0
DENSE_LANE_WIDTH = 3.5

# Fixed category mix of the dense scene's 100 agents.
DENSE_CATEGORIES = (
    (AgentCategory.CAR, 58),
    (AgentCategory.TRUCK, 8),
    (AgentCategory.BUS, 4),
    (AgentCategory.MOTORCYCLE, 6),
    (AgentCategory.BICYCLE, 4),
    (AgentCategory.PEDESTRIAN, 10),
    (AgentCategory.TRAFFIC_CONE, 8),
    (AgentCategory.BARRIER, 2),
)
_BOXES = {
    AgentCategory.CAR: (4.5, 1.8),
    AgentCategory.TRUCK: (8.0, 2.5),
    AgentCategory.BUS: (12.0, 2.6),
    AgentCategory.MOTORCYCLE: (2.2, 0.8),
    AgentCategory.BICYCLE: (1.8, 0.6),
    AgentCategory.PEDESTRIAN: (0.6, 0.6),
    AgentCategory.TRAFFIC_CONE: (0.4, 0.4),
    AgentCategory.BARRIER: (2.0, 0.5),
}
_SPEEDS = {
    AgentCategory.CAR: (3.0, 11.0),
    AgentCategory.TRUCK: (3.0, 8.0),
    AgentCategory.BUS: (3.0, 7.0),
    AgentCategory.MOTORCYCLE: (4.0, 12.0),
    AgentCategory.BICYCLE: (2.0, 5.0),
}


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([stream, seed]))


def _state(x, y, heading, speed, box, valid=True) -> AgentState:
    return AgentState(
        pose=Pose2(quantize(x), quantize(y), quantize(heading)),
        speed=quantize(speed),
        box=(quantize(box[0]), quantize(box[1])),
        valid=valid,
    )


# --------------------------------------------------------------------------
# corpus


def corpus_spec(seed: int) -> dict:
    """Spec for `drivekit synth`: the fixed mix, seeds offset by the workload
    seed so each seed gives a distinct corpus of the same shape."""
    return {"counts": dict(CORPUS_MIX), "base_seed": 1000 * seed}


def corpus_scenes(seed: int) -> list:
    """The scenes `drivekit synth` writes for ``corpus_spec(seed)``."""
    spec = corpus_spec(seed)
    scenes, _ = synth_corpus(spec["counts"], spec["base_seed"])
    return scenes


# --------------------------------------------------------------------------
# dense stress scene


def _dense_lane_id(row: int, segment: int) -> int:
    return 100 * (row + 1) + segment


def _dense_lanes() -> list:
    lanes = []
    step = 5.0
    for row in range(DENSE_ROWS):
        y = row * DENSE_LANE_WIDTH
        for seg in range(DENSE_SEGMENTS):
            x0 = seg * DENSE_LANE_LENGTH
            xs = np.linspace(x0, x0 + DENSE_LANE_LENGTH, int(DENSE_LANE_LENGTH / step) + 1)
            lanes.append(
                Lane(
                    id=_dense_lane_id(row, seg),
                    centerline=tuple((quantize(float(x)), quantize(y)) for x in xs),
                    half_width=quantize(DENSE_LANE_WIDTH / 2),
                    left_neighbor=_dense_lane_id(row + 1, seg) if row + 1 < DENSE_ROWS else None,
                    right_neighbor=_dense_lane_id(row - 1, seg) if row > 0 else None,
                    successors=(_dense_lane_id(row, seg + 1),) if seg + 1 < DENSE_SEGMENTS else (),
                    predecessors=(_dense_lane_id(row, seg - 1),) if seg > 0 else (),
                )
            )
    return lanes


def _vehicle_states(rng, category, dt) -> list:
    box = _BOXES[category]
    row = int(rng.integers(DENSE_ROWS))
    x0 = float(rng.uniform(0.0, DENSE_SEGMENTS * DENSE_LANE_LENGTH - 60.0))
    speed = float(rng.uniform(*_SPEEDS[category]))
    # a third of the vehicles change one row over 3 s at a seeded frame
    shift = 0.0
    if rng.random() < 1 / 3:
        shift = DENSE_LANE_WIDTH * (1.0 if row + 1 < DENSE_ROWS else -1.0)
    start = int(rng.integers(5, DENSE_FRAMES - 10))
    lat_noise = float(rng.uniform(-0.3, 0.3))
    # a tenth of the vehicles are tracked only over a window of frames
    first, last = 0, DENSE_FRAMES - 1
    if rng.random() < 0.1:
        first = int(rng.integers(0, 20))
        last = int(rng.integers(40, DENSE_FRAMES))
    change_frames = 6
    states = []
    for k in range(DENSE_FRAMES):
        u = min(max((k - start) / change_frames, 0.0), 1.0)
        ease = 0.5 - 0.5 * math.cos(math.pi * u)
        y = row * DENSE_LANE_WIDTH + lat_noise + shift * ease
        vy = shift * 0.5 * math.pi * math.sin(math.pi * u) / (change_frames * dt) if 0 < u < 1 else 0.0
        x = x0 + speed * k * dt
        states.append(_state(x, y, math.atan2(vy, speed), speed, box, first <= k <= last))
    return states


def _pedestrian_states(rng, dt) -> list:
    box = _BOXES[AgentCategory.PEDESTRIAN]
    x = float(rng.uniform(20.0, DENSE_SEGMENTS * DENSE_LANE_LENGTH - 20.0))
    direction = 1.0 if rng.random() < 0.5 else -1.0
    span = DENSE_ROWS * DENSE_LANE_WIDTH
    y0 = float(rng.uniform(-3.0, span))
    speed = float(rng.uniform(0.8, 1.6))
    states = []
    for k in range(DENSE_FRAMES):
        y = y0 + direction * speed * k * dt
        states.append(_state(x, y, direction * math.pi / 2, speed, box))
    return states


def _static_states(rng, category) -> list:
    box = _BOXES[category]
    row = int(rng.integers(DENSE_ROWS))
    x = float(rng.uniform(10.0, DENSE_SEGMENTS * DENSE_LANE_LENGTH - 10.0))
    y = row * DENSE_LANE_WIDTH + float(rng.uniform(-1.0, 1.0))
    state = _state(x, y, 0.0, 0.0, box)
    return [state] * DENSE_FRAMES


def dense_scene(seed: int) -> Scene:
    """The dense stress scene for a seed: 40 lanes, 100 agents, 60 frames."""
    rng = _rng(seed, 1)
    dt = 1.0 / DENSE_RATE_HZ
    ego_speed = float(rng.uniform(5.0, 6.5))
    ego_row = 3
    ego_x0 = float(rng.uniform(5.0, 15.0))
    ego = AgentTrack(
        id=0,
        category=AgentCategory.CAR,
        states=tuple(
            _state(ego_x0 + ego_speed * k * dt, ego_row * DENSE_LANE_WIDTH, 0.0, ego_speed, (4.5, 1.9))
            for k in range(DENSE_FRAMES)
        ),
    )
    agents = []
    agent_id = 1
    for category, count in DENSE_CATEGORIES:
        for _ in range(count):
            if category is AgentCategory.PEDESTRIAN:
                states = _pedestrian_states(rng, dt)
            elif category in (AgentCategory.TRAFFIC_CONE, AgentCategory.BARRIER):
                states = _static_states(rng, category)
            else:
                states = _vehicle_states(rng, category, dt)
            agents.append(AgentTrack(id=agent_id, category=category, states=tuple(states)))
            agent_id += 1
    scene = Scene(
        id=f"dense-{seed:06d}",
        frame_rate=DENSE_RATE_HZ,
        lanes=tuple(_dense_lanes()),
        agents=tuple(agents),
        ego=ego,
        nav_commands=(NavigationCommand.KEEP_FORWARD,) * DENSE_FRAMES,
    )
    check_dense_shape(scene)
    return scene


def check_dense_shape(scene: Scene) -> None:
    """Refuse a stress scene that has shrunk: a smaller scene would hide a
    slow kernel."""
    shape = (len(scene.lanes), len(scene.agents), scene.n_frames)
    expected = (DENSE_ROWS * DENSE_SEGMENTS, DENSE_AGENTS, DENSE_FRAMES)
    if shape != expected:
        raise AssertionError(f"dense scene is {shape} (lanes, agents, frames), expected {expected}")


# --------------------------------------------------------------------------
# plans


def write_plans(scenes, path) -> int:
    """constant_velocity_planner at every frame of every scene, so frames
    without a complete ground-truth future get masked by `evaluate`."""
    records = [
        plan_record(scene.id, frame, constant_velocity_planner(scene, frame))
        for scene in sorted(scenes, key=lambda s: s.id)
        for frame in range(scene.n_frames)
    ]
    write_plan_file(records, path)
    return len(records)


# --------------------------------------------------------------------------
# grounding detection sets


def ground_truth_centres(scene: Scene) -> list:
    """Per frame, the ego-frame centres of the agents valid at that frame."""
    frames = []
    for frame, ego in enumerate(scene.ego.states):
        pose = ego.pose
        c, s = math.cos(pose.heading), math.sin(pose.heading)
        centres = []
        for track in scene.agents:
            st = track.states[frame]
            if st.valid:
                dx, dy = st.pose.x - pose.x, st.pose.y - pose.y
                centres.append([quantize(c * dx + s * dy), quantize(-s * dx + c * dy)])
        frames.append(centres)
    return frames


def detection_sets(scenes, seed: int) -> list:
    """Seeded predictions against each frame's ground truth: jitter of the
    true centres, 10% dropped, and up to 10% false positives."""
    rng = _rng(seed, 2)
    sets = []
    for scene in scenes:
        for frame, gt in enumerate(ground_truth_centres(scene)):
            pred = []
            for x, y in gt:
                if rng.random() < 0.1:
                    continue
                jitter = rng.normal(0.0, 0.6, 2)
                pred.append([quantize(x + jitter[0]), quantize(y + jitter[1])])
            for _ in range(int(rng.integers(0, max(1, len(gt) // 10) + 1))):
                pred.append([quantize(v) for v in rng.uniform(-40.0, 40.0, 2)])
            sets.append({"scene_id": scene.id, "frame": frame, "gt": gt, "pred": pred})
    return sets


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
