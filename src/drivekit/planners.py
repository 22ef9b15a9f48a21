"""Reference planners that exercise the evaluation harness end to end.

Every planner returns a plan: a (6, 2) float array of the ego positions at
0.5 s, 1.0 s, ..., 3.0 s in the anchor ego frame.
"""
from __future__ import annotations

import json
from typing import Optional

import numpy as np

from .config import Config
from .errors import InsufficientFutureError, NoLaneError
from .geometry import LaneIndex, associate_lane, to_frame
from .metrics import future_complete
from .scene import PLAN_DT, PLAN_STEPS, Scene


def ego_future_waypoints(scene: Scene, frame: int) -> np.ndarray:
    """Ground-truth ego future resampled to plan steps, in the anchor ego frame."""
    if not future_complete(scene.ego, frame, scene.frame_rate):
        raise InsufficientFutureError(
            f"scene {scene.id} frame {frame}: ground-truth future incomplete"
        )
    pts = scene.ego.arrays["xy"][frame + scene.plan_stride * np.arange(1, PLAN_STEPS + 1)]
    return to_frame(pts, scene.ego.pose(frame))


def replay_planner(scene: Scene, frame: int) -> np.ndarray:
    """Oracle planner: replays the ground-truth ego future."""
    return ego_future_waypoints(scene, frame)


def constant_velocity_planner(scene: Scene, frame: int) -> np.ndarray:
    """Extrapolates the current ego velocity vector for 3 s."""
    speed = float(scene.ego.arrays["speed"][frame])
    return np.array([(speed * PLAN_DT * (k + 1), 0.0) for k in range(PLAN_STEPS)])


def plan_record(scene_id: str, frame: int, plan) -> dict:
    """One plan-file record: {scene_id, frame, waypoints[6][2]} of a (6, 2) plan."""
    return {"scene_id": scene_id, "frame": frame, "waypoints": np.asarray(plan, float).tolist()}


def write_plan_file(records, path) -> None:
    """JSON-lines plan file, the input format of the evaluation command;
    records that cannot be serialized leave the file as it was."""
    text = "".join(
        json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n" for record in records
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def lane_follow_planner(
    scene: Scene,
    frame: int,
    target_speed: Optional[float] = None,
    config: Optional[Config] = None,
) -> np.ndarray:
    """Advances along the associated lane centerline by arc length; past the
    lane end it continues along the final tangent."""
    config = config or Config()
    index = LaneIndex.build(scene.lanes)
    ego = scene.ego.arrays[frame : frame + 1]
    lane, s, _ = associate_lane(ego["xy"], ego["heading"], index, config)
    if lane[0] < 0:
        raise NoLaneError(f"scene {scene.id} frame {frame}: ego is not on any lane")
    segs = np.flatnonzero(index.lane_of == index.ids.index(lane[0]))
    speed = target_speed if target_speed is not None else abs(float(ego["speed"][0]))
    s = s[0] + speed * PLAN_DT * np.arange(1, PLAN_STEPS + 1)
    # the segment under each s; before the start or past the end it is the end
    # segment, where t < 0 or t > 1 extends it along its tangent
    seg = segs[np.clip(np.searchsorted(index.cum[segs], s, side="right") - 1, 0, len(segs) - 1)]
    t = (s - index.cum[seg]) / index.seg_len[seg]
    pts = index.starts[seg] + t[:, None] * index.vectors[seg]
    return to_frame(pts, scene.ego.pose(frame))
