"""Per-frame agent-ego lane modes, pairwise homotopy classes, ego lane
decisions, and road-level navigation command labeling.

Lane modes give lateral relations precedence over longitudinal ones: an agent
on a lane reachable by left/right neighbor hops reads LEFT/RIGHT even while it
is longitudinally offset, which is what makes an overtaken object read
AHEAD -> LEFT -> BEHIND as the ego laps it through the adjacent lane.
"""
from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .config import Config
from .errors import DegenerateError, TopologyCycleError
from .geometry import POSITION_ONLY_CATEGORIES, LaneIndex, associate_lane
from .scene import NavigationCommand, LaneSemantic, Scene, wrap_angles


class LaneMode(enum.Enum):
    LEFT = "LEFT"
    RIGHT = "RIGHT"
    AHEAD = "AHEAD"
    BEHIND = "BEHIND"
    NOTON = "NOTON"


class HomotopyClass(enum.Enum):
    S = "S"
    CW = "CW"
    CCW = "CCW"


@dataclass(frozen=True)
class Homotopy:
    kind: HomotopyClass
    winding: float  # signed accumulated angle, radians


class EgoLaneDecision(enum.Enum):
    KEEP_LANE = "KEEP_LANE"
    LEFT_LANE_CHANGE = "LEFT_LANE_CHANGE"
    RIGHT_LANE_CHANGE = "RIGHT_LANE_CHANGE"
    STRADDLE = "STRADDLE"


# --------------------------------------------------------------------------
# agent-ego lane mode


def _lateral_chain(lanes_by_id: dict, start: int, attr: str, max_hops: int) -> list:
    chain = []
    seen = {start}
    cur = start
    for _ in range(max_hops):
        nxt = getattr(lanes_by_id[cur], attr)
        if nxt is None:
            break
        if nxt in seen:
            raise TopologyCycleError(
                f"{attr} chain from lane {start} revisits lane {nxt}"
            )
        chain.append(nxt)
        seen.add(nxt)
        cur = nxt
    return chain


def _longitudinal_delta(
    index: LaneIndex,
    ego_lane: int,
    agent_lane: int,
    ego_s: float,
    agent_s: float,
    max_hops: int,
) -> Optional[float]:
    """Signed arc-length offset of the agent along the ego lane's
    successor/predecessor chain, or None if the agent lane is not on it.

    Each direction keeps one least offset per lane and walks in synchronous
    rounds of one hop, expanding only the lanes whose offset fell in the last
    round. Lane lengths are never negative and float addition is monotone
    (a <= b gives a + x <= b + x), so after h rounds a lane holds the least
    offset of any walk of at most h hops, and a walk through a larger offset
    reaches no lane with a smaller one. While s lies within its lane (the
    deltas of a direction keep one sign), the least offset of the agent lane
    gives the least |delta|, the one a walk over every path finds. No round
    improves a lane once each holds its least offset over simple paths, so
    the walk costs at most lanes x edges whatever `max_hops` is.
    """
    if agent_lane == ego_lane:
        return agent_s - ego_s

    best: Optional[float] = None
    lanes_by_id, lengths = index.by_id, index.lengths
    # successors: the offset accumulates past the end of the ego lane and
    # counts the agent's s from its lane's start; predecessors: it accumulates
    # behind the start of the ego lane, counts from the lane's end, and is negated
    for attr, sign, start in (
        ("successors", 1.0, lengths[ego_lane] - ego_s),
        ("predecessors", -1.0, ego_s),
    ):
        least = {ego_lane: start}  # lane -> least offset of its far end
        frontier = dict(least)  # the lanes whose offset fell in the last round
        for _ in range(max_hops):
            if not frontier:
                break  # no offset fell: later hops find nothing smaller
            improved = {}
            for lid, acc in frontier.items():
                for lane in sorted(getattr(lanes_by_id[lid], attr)):
                    if lane == agent_lane:
                        delta = sign * (acc + (agent_s if sign > 0 else lengths[lane] - agent_s))
                        if best is None or abs(delta) < abs(best):
                            best = delta
                    offset = acc + lengths[lane]
                    if offset < least.get(lane, math.inf):
                        least[lane] = improved[lane] = offset
            frontier = improved

    return best


def agent_ego_lane_mode(
    agent_lane: Optional[int],
    ego_lane: Optional[int],
    index: LaneIndex,
    agent_s: Optional[float],
    ego_s: Optional[float],
    config: Config,
) -> Tuple[LaneMode, Optional[float]]:
    """Topological relation of the agent's lane to the ego's lane.

    Returns the mode plus the longitudinal offset when one is defined (used by
    downstream gap heuristics).
    """
    if agent_lane is None or ego_lane is None:
        return LaneMode.NOTON, None

    if agent_lane != ego_lane:
        for attr, mode in (("left_neighbor", LaneMode.LEFT), ("right_neighbor", LaneMode.RIGHT)):
            if agent_lane in _lateral_chain(index.by_id, ego_lane, attr, config.k_lat):
                return mode, None

    delta = _longitudinal_delta(
        index, ego_lane, agent_lane, ego_s or 0.0, agent_s or 0.0, config.k_lon
    )
    if delta is None:
        return LaneMode.NOTON, None
    if abs(delta) < config.eps_s_tie:
        return LaneMode.AHEAD, delta
    return (LaneMode.AHEAD if delta > 0 else LaneMode.BEHIND), delta


# --------------------------------------------------------------------------
# homotopy


def classify_homotopy(
    traj_a, traj_b, theta_s: float, eps_rel: float = Config.eps_rel
) -> Homotopy:
    """Homotopy class of the relative motion b - a over common frames.

    winding = sum of wrapped increments of atan2(b - a); S when |winding| is
    below theta_s, otherwise the sign picks CCW/CW.
    """
    a = np.asarray(traj_a, dtype=float)
    b = np.asarray(traj_b, dtype=float)
    if a.shape != b.shape or a.ndim != 2 or len(a) < 2:
        raise DegenerateError("homotopy needs two aligned trajectories of >= 2 frames")
    rel = b - a
    norms = np.hypot(rel[:, 0], rel[:, 1])
    if np.any(norms < eps_rel):
        raise DegenerateError("relative position below eps_rel (coincident agents)")
    angles = np.arctan2(rel[:, 1], rel[:, 0])
    # fsum: correctly rounded total, so windings add exactly across splits
    winding = math.fsum(wrap_angles(np.diff(angles)).tolist())
    if abs(winding) < theta_s:
        kind = HomotopyClass.S
    elif winding > 0:
        kind = HomotopyClass.CCW
    else:
        kind = HomotopyClass.CW
    return Homotopy(kind=kind, winding=winding)


# --------------------------------------------------------------------------
# per-scene association and relation outputs


@dataclass(frozen=True)
class RelationOutputs:
    ego_decisions: tuple  # EgoLaneDecision per frame
    nav_commands: tuple  # NavigationCommand per frame
    lane_modes: dict  # agent id -> tuple[LaneMode] per frame
    lon_gaps: dict  # agent id -> tuple[Optional[float]] per frame


def ego_lane_decisions(scene: Scene, ego_assoc: tuple) -> list:
    """Per-frame ego decision from the ego's per-frame lane association, the
    (lane, s, d) arrays of associate_lane: lane-change on association-switch
    frames, straddle while the footprint crosses the divider, keep-lane
    otherwise."""
    lanes_by_id = {ln.id: ln for ln in scene.lanes}
    ego_widths = scene.ego.arrays["box"][:, 1].tolist()
    ego_lanes, _, ego_d = ego_assoc
    decisions = []
    prev_lane: Optional[int] = None
    for f, (lane_id, d) in enumerate(zip(ego_lanes.tolist(), ego_d.tolist())):
        if lane_id < 0:
            decisions.append(EgoLaneDecision.KEEP_LANE)
            continue
        decision = EgoLaneDecision.KEEP_LANE
        lane = lanes_by_id[lane_id]
        if prev_lane is not None and lane_id != prev_lane:
            prev = lanes_by_id[prev_lane]
            if prev.left_neighbor == lane_id:
                decision = EgoLaneDecision.LEFT_LANE_CHANGE
            elif prev.right_neighbor == lane_id:
                decision = EgoLaneDecision.RIGHT_LANE_CHANGE
        if decision is EgoLaneDecision.KEEP_LANE:
            if abs(d) > lane.half_width - 0.5 * ego_widths[f]:
                decision = EgoLaneDecision.STRADDLE
        decisions.append(decision)
        prev_lane = lane_id
    return decisions


def label_nav_commands(scene: Scene, config: Config, ego_assoc: tuple) -> list:
    """Road-level navigation command per frame, labeled offline from the full
    episode and the ego's per-frame lane association (the (lane, s, d) arrays
    of associate_lane).

    Forward window of nav_window_s seconds: heading change beyond theta_uturn
    reads U-turn, or 3-point turn when the window contains reversing frames;
    changes in [theta_turn, theta_uturn) read turn while the ego is on an
    intersection lane and prepare-to-turn while one is within d_prep ahead.
    """
    lanes_by_id = {ln.id: ln for ln in scene.lanes}
    n = scene.n_frames
    ego = scene.ego.arrays
    deltas = wrap_angles(np.diff(ego["heading"])).tolist()
    reversing = ego["speed"] < config.v_rev
    step = np.hypot(*(np.diff(ego["xy"], axis=0).T))

    on_intersection = [
        lane_id >= 0 and lanes_by_id[lane_id].semantic is LaneSemantic.INTERSECTION
        for lane_id in ego_assoc[0].tolist()
    ]

    # clamped to [1, n] frames: a window past the scene end reads as one to its end
    window = round(min(max(config.nav_window_s * scene.frame_rate, 1), n))
    commands = []
    for t in range(n):
        end = min(t + window, n - 1)
        # added left to right: from Python 3.12 on, sum() compensates rounding
        dpsi = functools.reduce(operator.add, deltas[t:end], 0.0)
        turn = None
        if abs(dpsi) >= config.theta_uturn:
            turn = "THREE_POINT_TURN" if reversing[t : end + 1].any() else "U_TURN"
        elif abs(dpsi) >= config.theta_turn:
            if on_intersection[t]:
                turn = "TURN"
            elif _distance_to_intersection(on_intersection, step, t) < config.d_prep:
                turn = "PREPARE_TURN"
        side = "LEFT" if dpsi > 0 else "RIGHT"
        commands.append(
            NavigationCommand.KEEP_FORWARD if turn is None else NavigationCommand[f"{turn}_{side}"]
        )
    return commands


def _distance_to_intersection(on_intersection: list, step, t: int) -> float:
    """Path length from frame t to the first frame at or after it on an
    intersection lane, added left to right over the per-frame steps; inf when
    no such frame follows."""
    dist = 0.0
    for k in range(t, len(on_intersection)):
        if on_intersection[k]:
            return dist
        if k < len(step):
            dist += float(step[k])
    return math.inf


def compute_relations(scene: Scene, config: Config) -> RelationOutputs:
    """Run the full per-scene relation pipeline once; downstream labeling and
    QA generation consume this container."""
    index = LaneIndex.build(scene.lanes)
    n = scene.n_frames
    ego, agents = scene.ego.arrays, scene.agent_arrays
    # one association for the ego's frames (all valid), then every valid
    # agent state in agent-id, frame order
    valid = agents["valid"]
    agent_of, frame_of = np.nonzero(valid)
    check_heading = np.array(
        [track.category not in POSITION_ONLY_CATEGORIES for track in scene.agents], dtype=bool
    )
    lane, s, d = associate_lane(
        np.concatenate((ego["xy"], agents["xy"][valid])),
        np.concatenate((ego["heading"], agents["heading"][valid])),
        index,
        config,
        np.concatenate((np.ones(n, dtype=bool), check_heading[agent_of])),
    )
    ego_assoc = lane[:n], s[:n], d[:n]

    # an agent-frame without a lane on both sides keeps NOTON and no gap
    modes = [[LaneMode.NOTON] * n for _ in scene.agents]
    gaps: List[List[Optional[float]]] = [[None] * n for _ in scene.agents]
    on = (lane[n:] >= 0) & (lane[:n][frame_of] >= 0)
    ego_lane, ego_s = lane[:n].tolist(), s[:n].tolist()
    pairs = zip(
        agent_of[on].tolist(), frame_of[on].tolist(), lane[n:][on].tolist(), s[n:][on].tolist()
    )
    for a, f, agent_lane, agent_s in pairs:
        modes[a][f], gaps[a][f] = agent_ego_lane_mode(
            agent_lane, ego_lane[f], index, agent_s, ego_s[f], config
        )

    return RelationOutputs(
        ego_decisions=tuple(ego_lane_decisions(scene, ego_assoc)),
        nav_commands=tuple(label_nav_commands(scene, config, ego_assoc)),
        lane_modes={track.id: tuple(m) for track, m in zip(scene.agents, modes)},
        lon_gaps={track.id: tuple(g) for track, g in zip(scene.agents, gaps)},
    )


def relations_records(scene: Scene, rel: RelationOutputs) -> list:
    """One JSON-able record per frame: lane modes, ego decision, nav command."""
    records = []
    for f in range(scene.n_frames):
        records.append(
            {
                "scene_id": scene.id,
                "frame": f,
                "lane_modes": {
                    str(track.id): rel.lane_modes[track.id][f].value
                    for track in scene.agents
                },
                "ego_decision": rel.ego_decisions[f].value,
                "nav_command": rel.nav_commands[f].value,
            }
        )
    return records
