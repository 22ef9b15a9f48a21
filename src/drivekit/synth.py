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

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from .config import Config
from .errors import ParamError
from .scene import (
    AgentCategory,
    AgentState,
    AgentTrack,
    Lane,
    LaneSemantic,
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


def _rng(seed: int):
    return np.random.Generator(np.random.PCG64(seed))


def _merge_params(kind: ScenarioKind, params: Optional[dict]) -> dict:
    merged = dict(DEFAULT_PARAMS[kind])
    if params:
        unknown = sorted(set(params) - set(merged))
        if unknown:
            raise ParamError(f"{kind.value}: unknown params {', '.join(unknown)}")
        merged.update(params)
    return merged


def _state(x, y, heading, speed, box, valid=True) -> AgentState:
    return AgentState(
        pose=Pose2(quantize(x), quantize(y), quantize(heading)),
        speed=quantize(speed),
        box=(quantize(box[0]), quantize(box[1])),
        valid=valid,
    )


def _straight_lane(
    lane_id: int,
    y: float,
    length: float,
    half_width: float,
    left: Optional[int] = None,
    right: Optional[int] = None,
    semantic: LaneSemantic = LaneSemantic.NORMAL,
    x0: float = 0.0,
    step: float = 4.0,
) -> Lane:
    n = max(2, int(round(length / step)) + 1)
    xs = np.linspace(x0, x0 + length, n)
    return Lane(
        id=lane_id,
        centerline=tuple((quantize(float(x)), quantize(y)) for x in xs),
        half_width=quantize(half_width),
        left_neighbor=left,
        right_neighbor=right,
        semantic=semantic,
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
    if side == "left":
        lanes = [
            _straight_lane(1, 0.0, length, width / 2, left=2),
            _straight_lane(2, offset, length, width / 2, right=1),
        ]
    else:
        lanes = [
            _straight_lane(1, 0.0, length, width / 2, right=2),
            _straight_lane(2, offset, length, width / 2, left=1),
        ]
    return lanes, offset


# --------------------------------------------------------------------------
# 3-point turn primitive


def _three_point_turn_curve(start_pose: Pose2, params: Optional[dict]):
    """Closed-form pose/speed along the 3 arcs; returns (pose_at, total_time).

    Turn centers sit left of travel on the forward arcs and right of travel on
    the reversing arc, so the heading increases monotonically to start + pi.
    """
    p = _merge_params(ScenarioKind.THREE_POINT_TURN, params)
    r1, r2, r3 = p["radius1"], p["radius2"], p["radius3"]
    a1 = math.radians(p["arc1_deg"])
    a2 = math.radians(p["arc2_deg"])
    a3 = math.pi - a1 - a2
    v1, v2, v3 = p["v1"], p["v2"], p["v3"]
    if min(r1, r2, r3) <= 0:
        raise ParamError("arc radii must be positive")
    if a1 <= 0 or a2 <= 0 or a3 <= 0:
        raise ParamError("arc angles must be positive and sum below 180 degrees")
    if not (v1 > 0 and v2 < 0 and v3 > 0):
        raise ParamError("phase speeds must be forward, reverse, forward")

    t1 = r1 * a1 / v1
    t2 = r2 * a2 / abs(v2)
    t3 = r3 * a3 / v3
    x0, y0, h0 = start_pose.x, start_pose.y, start_pose.heading

    c1 = (x0 + r1 * math.cos(h0 + math.pi / 2), y0 + r1 * math.sin(h0 + math.pi / 2))
    h1 = h0 + a1
    p1 = (c1[0] + r1 * math.cos(h1 - math.pi / 2), c1[1] + r1 * math.sin(h1 - math.pi / 2))
    c2 = (p1[0] + r2 * math.cos(h1 - math.pi / 2), p1[1] + r2 * math.sin(h1 - math.pi / 2))
    h2 = h1 + a2
    p2 = (c2[0] + r2 * math.cos(h2 + math.pi / 2), c2[1] + r2 * math.sin(h2 + math.pi / 2))
    c3 = (p2[0] + r3 * math.cos(h2 + math.pi / 2), p2[1] + r3 * math.sin(h2 + math.pi / 2))

    def pose_at(t: float):
        if t <= t1:
            h = h0 + v1 * t / r1
            return (
                c1[0] + r1 * math.cos(h - math.pi / 2),
                c1[1] + r1 * math.sin(h - math.pi / 2),
                h,
                v1,
            )
        if t <= t1 + t2:
            h = h1 + abs(v2) * (t - t1) / r2
            return (
                c2[0] + r2 * math.cos(h + math.pi / 2),
                c2[1] + r2 * math.sin(h + math.pi / 2),
                h,
                v2,
            )
        tt = min(t - t1 - t2, t3)
        h = h2 + v3 * tt / r3
        return (
            c3[0] + r3 * math.cos(h - math.pi / 2),
            c3[1] + r3 * math.sin(h - math.pi / 2),
            h,
            v3,
        )

    return pose_at, t1 + t2 + t3


def synth_three_point_turn(start_pose: Pose2, params: Optional[dict] = None) -> list:
    """Ego states for a 3-phase turn: forward arc, reverse arc with opposite
    steer, forward arc; the middle phase carries negative longitudinal speeds.

    Samples at 2 Hz relative to maneuver start; a final off-grid sample lands
    exactly on the maneuver end, so the last heading is start + pi.

    Returns (t, x, y, heading, speed) tuples.
    """
    pose_at, total = _three_point_turn_curve(start_pose, params)
    out = []
    t = 0.0
    while t < total - 1e-9:
        x, y, h, v = pose_at(t)
        out.append((t, x, y, h, v))
        t += FRAME_DT
    x, y, h, v = pose_at(total)
    out.append((total, x, y, h, v))
    return out


# --------------------------------------------------------------------------
# scene builders


def _scene(scene_id, lanes, agents, ego_states, nav, tag) -> Scene:
    return Scene(
        id=scene_id,
        frame_rate=1.0 / FRAME_DT,
        lanes=tuple(lanes),
        agents=tuple(agents),
        ego=AgentTrack(id=0, category=AgentCategory.CAR, states=tuple(ego_states)),
        nav_commands=tuple(nav),
        scenario_tag=tag,
    )


def _synth_nominal(seed: int, params: dict, config: Config) -> Scene:
    rng = _rng(seed)
    length, width = config.synth_lane_length, config.synth_lane_width
    lanes, offset = _two_lane_road(length, width, "left")
    v = quantize(rng.uniform(config.synth_speed_min, config.synth_speed_max))
    x0 = 5.0
    n = min(40, int((length - 10.0 - x0) / v / FRAME_DT) + 1)
    n = max(n, 8)
    ego = [_state(x0 + v * k * FRAME_DT, 0.0, 0.0, v, EGO_BOX) for k in range(n)]

    agents = []
    if params["with_traffic"]:
        gap = float(rng.uniform(10.0, 30.0))
        agents.append(
            AgentTrack(
                id=10,
                category=AgentCategory.CAR,
                states=tuple(
                    _state(x0 + gap + v * k * FRAME_DT, offset, 0.0, v, CAR_BOX)
                    for k in range(n)
                ),
            )
        )
    nav = [NavigationCommand.KEEP_FORWARD] * n
    return _scene(f"nominal-{seed:06d}", lanes, agents, ego, nav, ScenarioKind.NOMINAL)


def _synth_three_point_turn_scene(seed: int, params: dict, config: Config) -> Scene:
    length, width = config.synth_lane_length, config.synth_lane_width
    lanes = [_straight_lane(1, 0.0, length, width / 2)]
    v_app, t_app = 5.0, 2.0
    v_exit, t_exit = 4.0, 2.5
    x_m = 25.0
    pose_at, t_m = _three_point_turn_curve(Pose2(x_m, 0.0, 0.0), params)
    end_x, end_y, end_h, _ = pose_at(t_m)

    total = t_app + t_m + t_exit
    n = int(total / FRAME_DT) + 1
    ego = []
    nav = []
    for k in range(n):
        t = k * FRAME_DT
        if t < t_app - 1e-9:
            ego.append(_state(x_m - v_app * (t_app - t), 0.0, 0.0, v_app, EGO_BOX))
            nav.append(NavigationCommand.KEEP_FORWARD)
        elif t <= t_app + t_m + 1e-9:
            x, y, h, vv = pose_at(t - t_app)
            ego.append(_state(x, y, h, vv, EGO_BOX))
            nav.append(NavigationCommand.THREE_POINT_TURN_LEFT)
        else:
            te = t - t_app - t_m
            ego.append(
                _state(
                    end_x + v_exit * te * math.cos(end_h),
                    end_y + v_exit * te * math.sin(end_h),
                    end_h,
                    v_exit,
                    EGO_BOX,
                )
            )
            nav.append(NavigationCommand.KEEP_FORWARD)
    return _scene(
        f"three_point_turn-{seed:06d}", lanes, [], ego, nav, ScenarioKind.THREE_POINT_TURN
    )


def _synth_resume_from_stop(seed: int, params: dict, config: Config) -> Scene:
    length, width = config.synth_lane_length, config.synth_lane_width
    lanes = [_straight_lane(1, 0.0, length, width / 2)]
    stop_duration = float(params["stop_duration"])
    if stop_duration <= 1.0:
        raise ParamError("stop_duration must exceed 1 s")
    v0, decel, accel = 6.0, 3.0, 2.0
    t_decel_start = 2.0
    t_stop = t_decel_start + v0 / decel  # fully stopped
    t_resume = t_stop + stop_duration
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
    ego = []
    for k in range(n):
        x, v = ego_at(k * FRAME_DT)
        ego.append(_state(x, 0.0, 0.0, v, EGO_BOX))

    # pedestrian crossing ahead of the stop point while the ego is held
    x_cross = x_stop + 7.0
    ped_speed = 1.2
    y_start = 6.0
    t_enter_target = t_stop + 0.5  # inside the lane shortly after full stop
    t_at_edge = y_start - (width / 2)  # time to reach lane edge at unit speed
    offset = t_enter_target - t_at_edge / ped_speed
    ped = AgentTrack(
        id=30,
        category=AgentCategory.PEDESTRIAN,
        states=tuple(
            _state(
                x_cross,
                y_start - ped_speed * max(0.0, k * FRAME_DT - offset),
                -math.pi / 2,
                ped_speed,
                PED_BOX,
            )
            for k in range(n)
        ),
    )
    nav = [NavigationCommand.KEEP_FORWARD] * n
    return _scene(
        f"resume_from_stop-{seed:06d}", lanes, [ped], ego, nav, ScenarioKind.RESUME_FROM_STOP
    )


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


def _synth_overtake(seed: int, params: dict, config: Config) -> Scene:
    length, width = config.synth_lane_length, config.synth_lane_width
    side = params["pass_side"]
    if side not in ("left", "right"):
        raise ParamError("pass_side must be 'left' or 'right'")
    lanes, offset = _two_lane_road(length, width, side)

    v = 7.0
    x0 = 20.0
    n = int((length - 15.0 - x0) / v / FRAME_DT) + 1
    ego = _shifted_ego_states(n, v, x0, 40.0, 50.0, 62.0, 72.0, offset)

    blocker = AgentTrack(
        id=10,
        category=AgentCategory.CAR,
        states=tuple(_state(55.0, 0.0, 0.0, 0.0, CAR_BOX) for _ in range(n)),
    )
    agents = [blocker]
    if params["with_oncoming"]:
        v_on = 8.0
        agents.append(
            AgentTrack(
                id=11,
                category=AgentCategory.CAR,
                states=tuple(
                    _state(140.0 - v_on * k * FRAME_DT, offset, math.pi, v_on, CAR_BOX)
                    for k in range(n)
                ),
            )
        )
    nav = [NavigationCommand.KEEP_FORWARD] * n
    return _scene(
        f"overtake_oncoming-{seed:06d}", lanes, agents, ego, nav, ScenarioKind.OVERTAKE_ONCOMING
    )


def _synth_construction(seed: int, params: dict, config: Config) -> Scene:
    length, width = config.synth_lane_length, config.synth_lane_width
    lanes, offset = _two_lane_road(length, width, "left")
    shift = float(params["shift"])
    if not (width / 2 < shift < width):
        raise ParamError("shift must put the ego centroid past the divider, within the neighbor lane")
    n_cones = int(params["n_cones"])
    if n_cones < 1:
        raise ParamError("n_cones must be >= 1")

    v = 6.0
    x0 = 20.0
    n = int((length - 20.0 - x0) / v / FRAME_DT) + 1
    ego = _shifted_ego_states(n, v, x0, 40.0, 47.0, 60.0, 67.0, shift)

    cones = [
        AgentTrack(
            id=20 + i,
            category=AgentCategory.TRAFFIC_CONE,
            states=tuple(_state(50.0 + 3.0 * i, 0.0, 0.0, 0.0, CONE_BOX) for _ in range(n)),
        )
        for i in range(n_cones)
    ]
    nav = [NavigationCommand.KEEP_FORWARD] * n
    return _scene(
        f"construction_zone-{seed:06d}", lanes, cones, ego, nav, ScenarioKind.CONSTRUCTION_ZONE
    )


_BUILDERS = {
    ScenarioKind.NOMINAL: _synth_nominal,
    ScenarioKind.THREE_POINT_TURN: _synth_three_point_turn_scene,
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
    merged = _merge_params(kind, params)
    return _BUILDERS[kind](seed, merged, config or Config())


# --------------------------------------------------------------------------
# corpus


def corpus_manifest(counts: Dict, base_seed: int = 0) -> dict:
    """Corpus bookkeeping: per-kind counts, fractions of the total, and the
    sequential seed ranges; hashed for portability checks."""
    if not isinstance(counts, dict):
        raise ParamError("corpus counts must be an object of kind: count")
    if isinstance(base_seed, bool) or not isinstance(base_seed, int):
        raise ParamError(f"base_seed must be an integer, got {base_seed!r}")
    norm: Dict[str, int] = {}
    for kind, count in counts.items():
        try:
            kind = ScenarioKind(kind)
        except ValueError:
            raise ParamError(f"unknown scenario kind {kind!r}") from None
        if isinstance(count, bool) or not isinstance(count, int) or count < 0:
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
    import hashlib

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
    kind-name order; returns (scenes, manifest)."""
    manifest = corpus_manifest(counts, base_seed)
    params = {} if params is None else params
    if not isinstance(params, dict) or not all(isinstance(p, dict) for p in params.values()):
        raise ParamError("params must be an object of kind: {param: value}")
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
