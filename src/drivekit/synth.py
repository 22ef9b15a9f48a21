"""Deterministic synthesis of nominal and long-tail scenes.

Each kind builds its defining interaction structure by construction, so the
labeling pipeline can be closure-tested against it: a 3-point turn carries a
reversal and a net half-turn, the construction zone plants blocking cones the
ego straddles past, the resume scene stops for a crossing pedestrian, and the
oncoming-style overtake passes a parked car through the adjacent lane (the
adjacent lane is modeled as a same-direction neighbor so Frenet association
stays meaningful; the oncoming traffic itself is scenery).

All values are quantized to the canonical 9-digit serialization precision, so
save/load is an exact identity on synthesized scenes, and all randomness comes
from a named PRNG (numpy PCG64) seeded per scene.
"""
from __future__ import annotations

import hashlib
import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from .config import Config
from .errors import ParamError, as_finite, is_int
from .scene import (
    AgentCategory,
    AgentState,
    AgentTrack,
    Lane,
    NavigationCommand,
    Pose2,
    ScenarioKind,
    Scene,
    canonical_dumps,
    quantize,
)

FRAME_DT = 0.5

EGO_BOX = (4.5, 1.9)
CAR_BOX = (4.5, 1.8)
PED_BOX = (0.6, 0.6)
CONE_BOX = (0.4, 0.4)

DEFAULT_PARAMS: Dict[ScenarioKind, dict] = {
    ScenarioKind.NOMINAL: {"with_traffic": True},
    ScenarioKind.THREE_POINT_TURN: {
        "radius1": 6.0,
        "radius2": 6.0,
        "radius3": 6.0,
        "arc1_deg": 100.0,
        "arc2_deg": 50.0,
        "v1": 5.0,
        "v2": -2.5,
        "v3": 3.0,
    },
    ScenarioKind.RESUME_FROM_STOP: {"stop_duration": 5.0},
    ScenarioKind.OVERTAKE_ONCOMING: {"pass_side": "left", "with_oncoming": True},
    ScenarioKind.CONSTRUCTION_ZONE: {"n_cones": 3, "shift": 2.3},
}


def _turn_arcs(p: dict) -> tuple:
    """(radius, sweep, speed, turn side +1 left / -1 right) of each 3-point-turn
    arc; the third sweep completes the half-turn."""
    a1, a2 = math.radians(p["arc1_deg"]), math.radians(p["arc2_deg"])
    return (
        (p["radius1"], a1, p["v1"], 1),
        (p["radius2"], a2, p["v2"], -1),
        (p["radius3"], math.pi - a1 - a2, p["v3"], 1),
    )


# per kind: (holds(merged params, lane width), message) for each range rule
_RANGE_RULES = {
    ScenarioKind.THREE_POINT_TURN: (
        (
            lambda p, w: min(p["radius1"], p["radius2"], p["radius3"]) > 0,
            "arc radii must be positive",
        ),
        (
            lambda p, w: min(arc[1] for arc in _turn_arcs(p)) > 0,
            "arc angles must be positive and sum below 180 degrees",
        ),
        (
            lambda p, w: p["v1"] > 0 and p["v2"] < 0 and p["v3"] > 0,
            "phase speeds must be forward, reverse, forward",
        ),
    ),
    ScenarioKind.RESUME_FROM_STOP: (
        (lambda p, w: p["stop_duration"] > 1.0, "stop_duration must exceed 1 s"),
    ),
    ScenarioKind.OVERTAKE_ONCOMING: (
        (lambda p, w: p["pass_side"] in ("left", "right"), "pass_side must be 'left' or 'right'"),
    ),
    ScenarioKind.CONSTRUCTION_ZONE: (
        (
            lambda p, w: w / 2 < p["shift"] < w,
            "shift must put the ego centroid past the divider, within the neighbor lane",
        ),
        (lambda p, w: p["n_cones"] >= 1, "n_cones must be >= 1"),
    ),
}


def _merge_params(kind: ScenarioKind, params: Optional[dict], config: Optional[Config] = None):
    """The defaults of `kind` updated by `params`, the one place a parameter is
    checked. A value has the type of its default: a bool, an int (not a bool),
    a finite number or a string. The merged set then meets the kind's range
    rules; the construction-zone shift is judged against the lane width of
    `config` (default Config())."""
    merged = dict(DEFAULT_PARAMS[kind])
    if params:
        unknown = sorted(set(params) - set(merged))
        if unknown:
            raise ParamError(f"{kind.value}: unknown params {', '.join(unknown)}")
        for name, value in params.items():
            default, what = merged[name], f"{kind.value}: param {name}"
            if isinstance(default, float):
                as_finite(value, what, ParamError)
            elif not (is_int(value) if type(default) is int else isinstance(value, type(default))):
                raise ParamError(
                    f"{what} must have the type of its default {default!r}, got {value!r}"
                )
        merged.update(params)
    width = (config or Config()).synth_lane_width
    for holds, message in _RANGE_RULES.get(kind, ()):
        if not holds(merged, width):
            raise ParamError(f"{kind.value}: {message}")
    return merged


def _state(x, y, heading, speed, box) -> AgentState:
    return AgentState(
        pose=Pose2(quantize(x), quantize(y), quantize(heading)),
        speed=quantize(speed),
        box=(quantize(box[0]), quantize(box[1])),
    )


def _straight_track(agent_id: int, category, box, x: float, y: float, vx: float, n: int):
    """A track that starts at (x, y) and moves vx along the x axis for n frames,
    heading pi when vx < 0, else 0; parked when vx is 0."""
    heading = math.pi if vx < 0 else 0.0
    states = [_state(x + vx * k * FRAME_DT, y, heading, abs(vx), box) for k in range(n)]
    return AgentTrack(agent_id, category, states)


def _straight_lane(
    lane_id: int,
    y: float,
    length: float,
    half_width: float,
    left: Optional[int] = None,
    right: Optional[int] = None,
) -> Lane:
    xs = np.linspace(0.0, length, max(2, int(round(length / 4.0)) + 1))
    return Lane(
        id=lane_id,
        centerline=tuple((quantize(float(x)), quantize(y)) for x in xs),
        half_width=quantize(half_width),
        left_neighbor=left,
        right_neighbor=right,
    )


def _ease(u: float) -> float:
    """Cosine ease from 0 to 1 over u in [0, 1]."""
    return 0.5 * (1.0 - math.cos(math.pi * min(1.0, max(0.0, u))))


def _ease_slope(u: float) -> float:
    return 0.5 * math.pi * math.sin(math.pi * min(1.0, max(0.0, u)))


def _lateral_shift_profile(x: float, xa: float, xb: float, xc: float, xd: float, amount: float):
    """Piecewise lateral offset: ease out over [xa, xb], hold, ease back over
    [xc, xd]. Returns (y, dy/dx)."""
    if x < xa:
        return 0.0, 0.0
    if x < xb:
        u = (x - xa) / (xb - xa)
        return amount * _ease(u), amount * _ease_slope(u) / (xb - xa)
    if x < xc:
        return amount, 0.0
    if x < xd:
        u = (x - xc) / (xd - xc)
        return amount * (1.0 - _ease(u)), -amount * _ease_slope(u) / (xd - xc)
    return 0.0, 0.0


def _two_lane_road(length: float, width: float, side: str) -> Tuple[List[Lane], float]:
    """Ego lane (id 1) plus a neighbor lane (id 2) on the given side."""
    offset = width if side == "left" else -width
    back = "right" if side == "left" else "left"
    lanes = [
        _straight_lane(1, 0.0, length, width / 2, **{side: 2}),
        _straight_lane(2, offset, length, width / 2, **{back: 1}),
    ]
    return lanes, offset


# --------------------------------------------------------------------------
# 3-point turn primitive


def _on_circle(cx: float, cy: float, r: float, angle: float) -> tuple:
    return cx + r * math.cos(angle), cy + r * math.sin(angle)


def _three_point_turn_curve(start_pose: Pose2, params: Optional[dict]):
    """Closed-form pose/speed along the 3 arcs; returns (pose_at, total_time).

    Turn centers sit left of travel on the forward arcs and right of travel on
    the reversing arc, so the heading increases monotonically to start + pi.
    """
    # per arc: centre, radius, start heading, turn side, speed and duration;
    # each centre sits `side` of the arc's start, which is the previous arc's
    # end, and the end times are cumulative
    arcs, ends = [], []
    x, y, h, end = start_pose.x, start_pose.y, start_pose.heading, 0.0
    for r, a, v, side in _turn_arcs(_merge_params(ScenarioKind.THREE_POINT_TURN, params)):
        cx, cy = _on_circle(x, y, r, h + side * math.pi / 2)
        duration = r * a / abs(v)
        arcs.append((cx, cy, r, h, side, v, duration))
        h += a
        x, y = _on_circle(cx, cy, r, h - side * math.pi / 2)
        end += duration
        ends.append(end)

    def pose_at(t: float):
        # local time: t less each earlier arc's duration, left to right; past
        # the second arc's end, the last arc, held at its own end
        local = t
        for arc, end in zip(arcs, ends[:2]):
            if t <= end:
                break
            local -= arc[-1]
        else:
            arc = arcs[2]
            local = min(local, arc[-1])
        cx, cy, r, h, side, v, _ = arc
        h += abs(v) * local / r
        return (*_on_circle(cx, cy, r, h - side * math.pi / 2), h, v)

    return pose_at, ends[2]


# --------------------------------------------------------------------------
# scene builders: each returns (lanes, agents, ego states[, nav commands])


def _scene(kind: ScenarioKind, seed: int, lanes, agents, ego_states, nav=None) -> Scene:
    """The scene `kind`-`seed`, tagged `kind`; nav defaults to KEEP_FORWARD at
    every frame."""
    return Scene(
        id=f"{kind.value.lower()}-{seed:06d}",
        frame_rate=1.0 / FRAME_DT,
        lanes=tuple(lanes),
        agents=tuple(agents),
        ego=AgentTrack(id=0, category=AgentCategory.CAR, states=tuple(ego_states)),
        nav_commands=tuple(nav or [NavigationCommand.KEEP_FORWARD] * len(ego_states)),
        scenario_tag=kind,
    )


def _synth_nominal(seed: int, params: dict, config: Config):
    rng = np.random.Generator(np.random.PCG64(seed))
    length, width = config.synth_lane_length, config.synth_lane_width
    lanes, offset = _two_lane_road(length, width, "left")
    v = quantize(rng.uniform(config.synth_speed_min, config.synth_speed_max))
    x0 = 5.0
    n = max(min(40, int((length - 10.0 - x0) / v / FRAME_DT) + 1), 8)
    ego = [_state(x0 + v * k * FRAME_DT, 0.0, 0.0, v, EGO_BOX) for k in range(n)]

    agents = []
    if params["with_traffic"]:
        gap = float(rng.uniform(10.0, 30.0))
        agents.append(_straight_track(10, AgentCategory.CAR, CAR_BOX, x0 + gap, offset, v, n))
    return lanes, agents, ego


def _synth_three_point_turn(seed: int, params: dict, config: Config):
    lanes = [_straight_lane(1, 0.0, config.synth_lane_length, config.synth_lane_width / 2)]
    v_app, t_app = 5.0, 2.0
    v_exit, t_exit = 4.0, 2.5
    x_m = 25.0
    pose_at, t_m = _three_point_turn_curve(Pose2(x_m, 0.0, 0.0), params)
    end_x, end_y, end_h, _ = pose_at(t_m)

    keep, turn = NavigationCommand.KEEP_FORWARD, NavigationCommand.THREE_POINT_TURN_LEFT
    ego, nav = [], []
    for k in range(int((t_app + t_m + t_exit) / FRAME_DT) + 1):
        t = k * FRAME_DT
        if t < t_app - 1e-9:
            pose, command = (x_m - v_app * (t_app - t), 0.0, 0.0, v_app), keep
        elif t <= t_app + t_m + 1e-9:
            pose, command = pose_at(t - t_app), turn
        else:
            te = t - t_app - t_m
            x, y = end_x + v_exit * te * math.cos(end_h), end_y + v_exit * te * math.sin(end_h)
            pose, command = (x, y, end_h, v_exit), keep
        ego.append(_state(*pose, EGO_BOX))
        nav.append(command)
    return lanes, [], ego, nav


def _synth_resume_from_stop(seed: int, params: dict, config: Config):
    width = config.synth_lane_width
    lanes = [_straight_lane(1, 0.0, config.synth_lane_length, width / 2)]
    v0, decel, accel = 6.0, 3.0, 2.0
    t_decel_start = 2.0
    t_stop = t_decel_start + v0 / decel  # fully stopped
    t_resume = t_stop + params["stop_duration"]
    t_cruise = t_resume + v0 / accel
    total = t_cruise + 3.0
    x_stop = 20.0 + v0 * t_decel_start + v0**2 / (2 * decel)

    def ego_at(t: float):
        if t < t_decel_start:
            return 20.0 + v0 * t, v0
        if t < t_stop:
            dt = t - t_decel_start
            return 20.0 + v0 * t_decel_start + v0 * dt - 0.5 * decel * dt * dt, v0 - decel * dt
        if t < t_resume:
            return x_stop, 0.0
        if t < t_cruise:
            dt = t - t_resume
            return x_stop + 0.5 * accel * dt * dt, accel * dt
        dt = t - t_cruise
        return x_stop + v0**2 / (2 * accel) + v0 * dt, v0

    n = int(total / FRAME_DT) + 1
    ego = [_state(x, 0.0, 0.0, v, EGO_BOX) for x, v in (ego_at(k * FRAME_DT) for k in range(n))]

    # pedestrian crossing ahead of the stop point while the ego is held
    x_cross = x_stop + 7.0
    ped_speed = 1.2
    y_start = 6.0
    t_enter_target = t_stop + 0.5  # inside the lane shortly after full stop
    t_at_edge = y_start - (width / 2)  # time to reach lane edge at unit speed
    offset = t_enter_target - t_at_edge / ped_speed
    ped = [
        _state(x_cross, y_start - ped_speed * max(0.0, k * FRAME_DT - offset), -math.pi / 2,
               ped_speed, PED_BOX)
        for k in range(n)
    ]
    return lanes, [AgentTrack(30, AgentCategory.PEDESTRIAN, ped)], ego


def _shifted_ego_states(
    n: int, v: float, x0: float, xa: float, xb: float, xc: float, xd: float, amount: float
) -> list:
    states = []
    for k in range(n):
        x = x0 + v * k * FRAME_DT
        y, slope = _lateral_shift_profile(x, xa, xb, xc, xd, amount)
        heading = math.atan(slope)
        speed = v * math.hypot(1.0, slope)
        states.append(_state(x, y, heading, speed, EGO_BOX))
    return states


def _synth_overtake(seed: int, params: dict, config: Config):
    length = config.synth_lane_length
    lanes, offset = _two_lane_road(length, config.synth_lane_width, params["pass_side"])
    v, x0 = 7.0, 20.0
    n = int((length - 15.0 - x0) / v / FRAME_DT) + 1
    ego = _shifted_ego_states(n, v, x0, 40.0, 50.0, 62.0, 72.0, offset)

    agents = [_straight_track(10, AgentCategory.CAR, CAR_BOX, 55.0, 0.0, 0.0, n)]
    if params["with_oncoming"]:
        agents.append(_straight_track(11, AgentCategory.CAR, CAR_BOX, 140.0, offset, -8.0, n))
    return lanes, agents, ego


def _synth_construction(seed: int, params: dict, config: Config):
    length = config.synth_lane_length
    lanes, _ = _two_lane_road(length, config.synth_lane_width, "left")
    v, x0 = 6.0, 20.0
    n = int((length - 20.0 - x0) / v / FRAME_DT) + 1
    ego = _shifted_ego_states(n, v, x0, 40.0, 47.0, 60.0, 67.0, params["shift"])
    cones = [
        _straight_track(20 + i, AgentCategory.TRAFFIC_CONE, CONE_BOX, 50.0 + 3.0 * i, 0.0, 0.0, n)
        for i in range(params["n_cones"])
    ]
    return lanes, cones, ego


_BUILDERS = {
    ScenarioKind.NOMINAL: _synth_nominal,
    ScenarioKind.THREE_POINT_TURN: _synth_three_point_turn,
    ScenarioKind.RESUME_FROM_STOP: _synth_resume_from_stop,
    ScenarioKind.OVERTAKE_ONCOMING: _synth_overtake,
    ScenarioKind.CONSTRUCTION_ZONE: _synth_construction,
}


def synth_scene(
    kind,
    seed: int,
    params: Optional[dict] = None,
    config: Optional[Config] = None,
) -> Scene:
    """Deterministic scene of the given kind; identical (kind, seed, params)
    always yields a byte-identical scene."""
    kind = ScenarioKind(kind) if not isinstance(kind, ScenarioKind) else kind
    if not is_int(seed) or seed < 0:
        raise ParamError(f"seed must be an integer >= 0, got {seed!r}")
    config = config or Config()
    return _scene(kind, seed, *_BUILDERS[kind](seed, _merge_params(kind, params, config), config))


# --------------------------------------------------------------------------
# corpus


def corpus_manifest(counts: Dict, base_seed: int = 0) -> dict:
    """Corpus bookkeeping: per-kind counts, fractions of the total, and the
    sequential seed ranges; hashed for portability checks."""
    if not isinstance(counts, dict):
        raise ParamError("corpus counts must be an object of kind: count")
    if not is_int(base_seed) or base_seed < 0:
        raise ParamError(f"base_seed must be an integer >= 0, got {base_seed!r}")
    norm: Dict[str, int] = {}
    for kind, count in counts.items():
        try:
            kind = ScenarioKind(kind)
        except ValueError:
            raise ParamError(f"unknown scenario kind {kind!r}") from None
        if not is_int(count) or count < 0:
            raise ParamError(f"count of {kind.value} must be an integer >= 0, got {count!r}")
        norm[kind.value] = count
    total = sum(norm.values())
    kinds = {}
    seed = base_seed
    for name in sorted(norm):
        count = norm[name]
        kinds[name] = {
            "count": count,
            "fraction": count / total if total else 0.0,
            "seed_range": [seed, seed + count - 1] if count else None,
        }
        seed += count
    manifest = {"base_seed": base_seed, "total": total, "kinds": kinds}
    manifest["manifest_hash"] = hashlib.sha256(
        canonical_dumps(manifest).encode("utf-8")
    ).hexdigest()
    return manifest


def synth_corpus(
    counts: Dict,
    base_seed: int = 0,
    params: Optional[Dict] = None,
    config: Optional[Config] = None,
) -> Tuple[list, dict]:
    """Materialize a corpus per the count spec, seeds assigned sequentially in
    kind-name order; returns (scenes, manifest). Every `params` entry is
    checked, counted or not, before any scene is built."""
    manifest = corpus_manifest(counts, base_seed)
    params = {} if params is None else params
    if not isinstance(params, dict) or not all(isinstance(p, dict) for p in params.values()):
        raise ParamError("params must be an object of kind: {param: value}")
    for name, entry in params.items():  # every entry, counted or not
        try:
            kind = ScenarioKind(name)
        except ValueError:
            raise ParamError(f"params name an unknown scenario kind {name!r}") from None
        _merge_params(kind, entry, config)
    scenes = []
    for name in sorted(manifest["kinds"]):
        entry = manifest["kinds"][name]
        if not entry["count"]:
            continue
        kind = ScenarioKind(name)
        s0, s1 = entry["seed_range"]
        for seed in range(s0, s1 + 1):
            scenes.append(synth_scene(kind, seed, params.get(name), config))
    return scenes, manifest
