"""Interaction labels and critical-object determination.

Heuristics combine lane-mode patterns, ego lane decisions, and speed profiles.
A JSON sidecar of human-accepted labels can be merged over the heuristic
output; the sidecar wins on (agent_id, kind, overlapping span).
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .config import Config
from .errors import SchemaError, as_int, is_int
from .geometry import polyline_obb_distance
from .relations import EgoLaneDecision, LaneMode, RelationOutputs
from .scene import AgentCategory, Scene, _member


class InteractionKind(enum.Enum):
    BYPASS_CONES = "BYPASS_CONES"
    YIELD_TO_PEDESTRIAN = "YIELD_TO_PEDESTRIAN"
    YIELD_TO_VEHICLE = "YIELD_TO_VEHICLE"
    OVERTAKE_STRADDLE = "OVERTAKE_STRADDLE"
    OVERTAKE_LANE_CHANGE = "OVERTAKE_LANE_CHANGE"


class Side(enum.Enum):
    LEFT = "LEFT"
    RIGHT = "RIGHT"


_SIDED_KINDS = {
    InteractionKind.BYPASS_CONES,
    InteractionKind.OVERTAKE_STRADDLE,
    InteractionKind.OVERTAKE_LANE_CHANGE,
}

VEHICLE_CATEGORIES = frozenset(
    {
        AgentCategory.CAR,
        AgentCategory.TRUCK,
        AgentCategory.BUS,
        AgentCategory.MOTORCYCLE,
        AgentCategory.BICYCLE,
    }
)
BLOCKING_CATEGORIES = frozenset({AgentCategory.TRAFFIC_CONE, AgentCategory.BARRIER})


def yield_kind(category: AgentCategory) -> InteractionKind:
    """The yield kind of an agent category: to a pedestrian, else to a vehicle."""
    if category is AgentCategory.PEDESTRIAN:
        return InteractionKind.YIELD_TO_PEDESTRIAN
    return InteractionKind.YIELD_TO_VEHICLE


@dataclass(frozen=True)
class InteractionLabel:
    agent_id: int
    kind: InteractionKind
    side: Optional[Side]
    frame_span: Tuple[int, int]  # inclusive

    def __post_init__(self):
        as_int(self.agent_id, "label agent_id")
        _member(self.kind, InteractionKind, "label kind")
        if self.side is not None:
            _member(self.side, Side, "label side")
        span = self.frame_span
        if not isinstance(span, (list, tuple)) or len(span) != 2 or not all(map(is_int, span)):
            raise SchemaError(f"label frame_span must be two integers, got {span!r}")
        start, end = span
        object.__setattr__(self, "frame_span", (start, end))
        if start > end:
            raise SchemaError("frame_span start must not exceed end")
        if self.kind in _SIDED_KINDS and self.side is None:
            raise SchemaError(f"{self.kind.value} requires a side")
        if self.kind not in _SIDED_KINDS and self.side is not None:
            raise SchemaError(f"{self.kind.value} takes no side")

    def covers(self, frame: int) -> bool:
        return self.frame_span[0] <= frame <= self.frame_span[1]

    def to_dict(self) -> dict:
        return {
            "agent_id": self.agent_id,
            "kind": self.kind.value,
            "side": self.side.value if self.side else None,
            "frame_span": [self.frame_span[0], self.frame_span[1]],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "InteractionLabel":
        """A label from its record."""
        try:
            agent_id, span, side = data["agent_id"], data["frame_span"], data.get("side")
            kind = InteractionKind(data["kind"])
            side = None if side is None else Side(side)
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad interaction label record: {exc!r}") from None
        return cls(agent_id=agent_id, kind=kind, side=side, frame_span=span)


def _label_order(label: InteractionLabel) -> tuple:
    """The canonical order of a label list: agent id, span start, kind."""
    return (label.agent_id, label.frame_span[0], label.kind.value)


class CriticalReason(enum.Enum):
    HAS_INTERACTION = "HAS_INTERACTION"
    IN_EGO_CORRIDOR = "IN_EGO_CORRIDOR"
    NONE = "NONE"


@dataclass(frozen=True)
class Criticality:
    agent_id: int
    critical: bool
    reason: CriticalReason


def _mode_runs(modes) -> list:
    """Compress a per-frame mode sequence into (mode, start, end) runs."""
    runs = []
    start = 0
    for f in range(1, len(modes) + 1):
        if f == len(modes) or modes[f] is not modes[start]:
            runs.append((modes[start], start, f - 1))
            start = f
    return runs


def _mean_abs_speed(track, start: int, end: int) -> float:
    states = track.arrays[start : end + 1]
    speeds = np.abs(states["speed"][states["valid"]])
    return float(np.mean(speeds)) if len(speeds) else 0.0


def _pass_patterns(modes) -> list:
    """(span, lateral mode) for each AHEAD -> LEFT/RIGHT -> BEHIND run triple."""
    runs = _mode_runs(modes)
    found = []
    for (m0, s0, _), (m1, s1, e1), (m2, s2, _) in zip(runs, runs[1:], runs[2:]):
        if (
            m0 is LaneMode.AHEAD
            and m1 in (LaneMode.LEFT, LaneMode.RIGHT)
            and m2 is LaneMode.BEHIND
        ):
            found.append(((s0, s2), m1, (s1, e1)))
    return found


def _overtake_kind(decisions) -> Optional[InteractionKind]:
    """Kind of a pass from the ego decisions during the lateral phase: a
    KEEP_LANE dwell on the neighbor lane means a committed lane change,
    straddle frames without a dwell mean a divider-straddling pass."""
    if any(d is EgoLaneDecision.KEEP_LANE for d in decisions):
        return InteractionKind.OVERTAKE_LANE_CHANGE
    if any(d is EgoLaneDecision.STRADDLE for d in decisions):
        return InteractionKind.OVERTAKE_STRADDLE
    if any(
        d in (EgoLaneDecision.LEFT_LANE_CHANGE, EgoLaneDecision.RIGHT_LANE_CHANGE)
        for d in decisions
    ):
        return InteractionKind.OVERTAKE_LANE_CHANGE
    return None


def label_interactions(
    scene: Scene, rel: RelationOutputs, config: Config
) -> List[InteractionLabel]:
    """Heuristic interaction labels, in canonical (agent id, start frame) order.

    Passes fire on the AHEAD -> LEFT/RIGHT -> BEHIND lane-mode pattern for a
    static-or-slower agent; blocking categories read BYPASS_CONES, vehicles
    read OVERTAKE_*. Yields fire when the ego holds below v_stop while the
    agent sits AHEAD within d_yield and has cleared by the resume frame.
    """
    labels: List[InteractionLabel] = []
    stopped = (np.abs(scene.ego.arrays["speed"]) < config.v_stop).tolist()
    stop_runs = [(start, end) for run, start, end in _mode_runs(stopped) if run]

    for track in scene.agents:
        modes = rel.lane_modes[track.id]
        gaps = rel.lon_gaps[track.id]

        if track.category in VEHICLE_CATEGORIES or track.category in BLOCKING_CATEGORIES:
            for (start, end), lateral, (mid_s, mid_e) in _pass_patterns(modes):
                if _mean_abs_speed(track, start, end) >= _mean_abs_speed(
                    scene.ego, start, end
                ):
                    continue
                side = Side.LEFT if lateral is LaneMode.LEFT else Side.RIGHT
                if track.category in BLOCKING_CATEGORIES:
                    kind = InteractionKind.BYPASS_CONES
                else:
                    kind = _overtake_kind(rel.ego_decisions[mid_s : mid_e + 1])
                    if kind is None:
                        continue
                labels.append(
                    InteractionLabel(
                        agent_id=track.id, kind=kind, side=side, frame_span=(start, end)
                    )
                )

        if stop_runs and (
            track.category is AgentCategory.PEDESTRIAN or track.category in VEHICLE_CATEGORIES
        ):
            blocks = [
                m is LaneMode.AHEAD and g is not None and g <= config.d_yield
                for m, g in zip(modes, gaps)
            ]
            for run_start, run_end in stop_runs:
                resume = run_end + 1
                # a yield needs a resume frame (the scene may end stopped), a
                # block during the stop, and the agent cleared by the resume
                if resume >= len(blocks) or not any(blocks[run_start:resume]) or blocks[resume]:
                    continue
                labels.append(
                    InteractionLabel(
                        agent_id=track.id,
                        kind=yield_kind(track.category),
                        side=None,
                        frame_span=(run_start, run_end),
                    )
                )

    labels.sort(key=_label_order)
    return labels


def ego_corridor(scene: Scene, frame: int, config: Config) -> np.ndarray:
    """Ego ground-truth path over the next t_corridor seconds, as points."""
    # clamped to [-1, n] steps: a negative horizon keeps its empty corridor
    steps = round(min(max(config.t_corridor * scene.frame_rate, -1), scene.n_frames))
    states = scene.ego.arrays[frame : frame + steps + 1]
    return states["xy"][states["valid"]]


def critical_objects(
    scene: Scene, labels: List[InteractionLabel], frame: int, config: Config
) -> List[Criticality]:
    """Criticality per agent at a frame: an active interaction label, or a
    footprint within the dilated ego corridor; interaction takes precedence."""
    corridor = ego_corridor(scene, frame, config)
    dilation = 0.5 * float(scene.ego.arrays["box"][frame, 1]) + config.corridor_margin
    interacting = {l.agent_id for l in labels if l.covers(frame)}
    states = scene.agent_arrays[:, frame]
    # not interacting and valid, then within the dilated corridor
    in_corridor = np.array([t.id not in interacting for t in scene.agents], dtype=bool)
    in_corridor &= states["valid"] & (len(corridor) > 0)
    if in_corridor.any():
        near = states[in_corridor]
        in_corridor[in_corridor] = polyline_obb_distance(
            corridor, near["xy"], near["heading"], near["box"][:, 0], near["box"][:, 1]
        ) <= dilation
    out = []
    for track, near_ego in zip(scene.agents, in_corridor.tolist()):
        reason = CriticalReason.NONE
        if track.id in interacting:
            reason = CriticalReason.HAS_INTERACTION
        elif near_ego:
            reason = CriticalReason.IN_EGO_CORRIDOR
        out.append(
            Criticality(
                agent_id=track.id,
                critical=reason is not CriticalReason.NONE,
                reason=reason,
            )
        )
    return out


def _spans_overlap(a: Tuple[int, int], b: Tuple[int, int]) -> bool:
    return a[0] <= b[1] and b[0] <= a[1]


def merge_override_labels(
    heuristic: List[InteractionLabel], sidecar: List[InteractionLabel]
) -> List[InteractionLabel]:
    """Merge human-verified labels over heuristic output: a sidecar label
    replaces every heuristic label sharing (agent_id, kind) with an
    overlapping span; the rest of both lists pass through."""
    kept = [
        h
        for h in heuristic
        if not any(
            s.agent_id == h.agent_id
            and s.kind == h.kind
            and _spans_overlap(s.frame_span, h.frame_span)
            for s in sidecar
        )
    ]
    merged = kept + list(sidecar)
    merged.sort(key=_label_order)
    return merged
