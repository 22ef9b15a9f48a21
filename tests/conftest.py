import dataclasses
import math

import numpy as np
import pytest

from drivekit.config import Config
from drivekit.geometry import to_frame
from drivekit.scene import (
    AgentCategory,
    AgentState,
    AgentTrack,
    Lane,
    LaneSemantic,
    NavigationCommand,
    Pose2,
    Scene,
)


@pytest.fixture
def config():
    return Config()


def straight_lane(
    lane_id=1,
    y=0.0,
    length=100.0,
    half_width=1.85,
    left=None,
    right=None,
    successors=(),
    predecessors=(),
    semantic=LaneSemantic.NORMAL,
    x0=0.0,
    step=5.0,
):
    n = max(2, int(round(length / step)) + 1)
    xs = np.linspace(x0, x0 + length, n)
    return Lane(
        id=lane_id,
        centerline=tuple((float(x), y) for x in xs),
        half_width=half_width,
        left_neighbor=left,
        right_neighbor=right,
        successors=successors,
        predecessors=predecessors,
        semantic=semantic,
    )


def state(x, y, heading=0.0, speed=0.0, box=(4.5, 1.9), valid=True):
    return AgentState(pose=Pose2(x, y, heading), speed=speed, box=box, valid=valid)


def track(track_id, states, category=AgentCategory.CAR):
    return AgentTrack(id=track_id, category=category, states=tuple(states))


def scene_of(lanes, agents, ego_states, scene_id="test", nav=None, tag=None, frame_rate=2.0):
    n = len(ego_states)
    return Scene(
        id=scene_id,
        frame_rate=frame_rate,
        lanes=tuple(lanes),
        agents=tuple(agents),
        ego=AgentTrack(id=0, category=AgentCategory.CAR, states=tuple(ego_states)),
        nav_commands=tuple(nav or [NavigationCommand.KEEP_FORWARD] * n),
        scenario_tag=tag,
    )


def cruising_ego(n, speed=8.0, x0=5.0, y=0.0, heading=0.0, dt=0.5, box=(4.5, 1.9)):
    return [
        state(
            x0 + speed * k * dt * math.cos(heading),
            y + speed * k * dt * math.sin(heading),
            heading,
            speed,
            box,
        )
        for k in range(n)
    ]


@dataclasses.dataclass(frozen=True)
class RigidMotion:
    """Rotation by `theta` about the origin, then a shift by (tx, ty)."""

    theta: float
    tx: float
    ty: float

    def point(self, x, y):
        c, s = math.cos(self.theta), math.sin(self.theta)
        return (c * x - s * y + self.tx, s * x + c * y + self.ty)

    def pose(self, pose):
        return Pose2(*self.point(pose.x, pose.y), pose.heading + self.theta)

    def lane(self, lane):
        return dataclasses.replace(lane, centerline=tuple(self.point(*p) for p in lane.centerline))

    def track(self, tr):
        states = tuple(dataclasses.replace(st, pose=self.pose(st.pose)) for st in tr.states)
        return dataclasses.replace(tr, states=states)

    def scene(self, scene):
        """The scene with its lanes and tracks moved; the id, frame rate, nav
        commands and tag stay."""
        return dataclasses.replace(
            scene,
            lanes=tuple(map(self.lane, scene.lanes)),
            agents=tuple(map(self.track, scene.agents)),
            ego=self.track(scene.ego),
        )


def point_obb_distance(point, center, heading: float, length: float, width: float) -> float:
    """Oracle: distance from a point to an oriented box, one Pose2 per box."""
    pose = Pose2(float(center[0]), float(center[1]), heading)
    local = to_frame(np.asarray(point, float), pose)
    dx = max(abs(float(local[0])) - 0.5 * length, 0.0)
    dy = max(abs(float(local[1])) - 0.5 * width, 0.0)
    return math.hypot(dx, dy)
