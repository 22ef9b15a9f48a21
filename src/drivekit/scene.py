"""Core domain types, validation, and the scene JSON schema.

All types are immutable value objects; a ``Scene`` that constructs without
raising satisfies every schema invariant. Serialization is canonical (sorted
keys, floats at 9 significant digits) so byte-identical round trips are a
testable property rather than an accident.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import DrivekitError, LengthError, RefError, SchemaError, parse_json, read_text

TWO_PI = 2.0 * math.pi
PLAN_STEPS = 6  # waypoints per plan
PLAN_DT = 0.5  # seconds between plan waypoints

# one record per agent state: the AgentState floats, bit for bit
STATE_DTYPE = np.dtype(
    [("xy", "f8", (2,)), ("heading", "f8"), ("speed", "f8"), ("box", "f8", (2,)), ("valid", "?")]
)


def wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    a = math.fmod(a, TWO_PI)
    if a > math.pi:
        a -= TWO_PI
    elif a <= -math.pi:
        a += TWO_PI
    return a


def frames_per_step(frame_rate: float) -> int:
    """Scene frames per plan step; SchemaError unless that is a whole number >= 1."""
    spf = PLAN_DT * frame_rate
    if abs(spf - round(spf)) > 1e-9 or round(spf) < 1:
        raise SchemaError(
            f"frame rate {frame_rate} Hz does not align with {PLAN_DT} s plan steps"
        )
    return int(round(spf))


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise SchemaError(f"{name} must be finite, got {v!r}")


class AgentCategory(enum.Enum):
    CAR = "CAR"
    TRUCK = "TRUCK"
    BUS = "BUS"
    MOTORCYCLE = "MOTORCYCLE"
    BICYCLE = "BICYCLE"
    PEDESTRIAN = "PEDESTRIAN"
    TRAFFIC_CONE = "TRAFFIC_CONE"
    BARRIER = "BARRIER"
    OTHER = "OTHER"


class LaneSemantic(enum.Enum):
    NORMAL = "NORMAL"
    INTERSECTION = "INTERSECTION"
    CROSSWALK = "CROSSWALK"


class NavigationCommand(enum.Enum):
    KEEP_FORWARD = "KEEP_FORWARD"
    PREPARE_TURN_LEFT = "PREPARE_TURN_LEFT"
    PREPARE_TURN_RIGHT = "PREPARE_TURN_RIGHT"
    TURN_LEFT = "TURN_LEFT"
    TURN_RIGHT = "TURN_RIGHT"
    U_TURN_LEFT = "U_TURN_LEFT"
    U_TURN_RIGHT = "U_TURN_RIGHT"
    THREE_POINT_TURN_LEFT = "THREE_POINT_TURN_LEFT"
    THREE_POINT_TURN_RIGHT = "THREE_POINT_TURN_RIGHT"


class ScenarioKind(enum.Enum):
    NOMINAL = "NOMINAL"
    THREE_POINT_TURN = "THREE_POINT_TURN"
    RESUME_FROM_STOP = "RESUME_FROM_STOP"
    OVERTAKE_ONCOMING = "OVERTAKE_ONCOMING"
    CONSTRUCTION_ZONE = "CONSTRUCTION_ZONE"


@dataclass(frozen=True)
class Pose2:
    """2D pose; heading wrapped to (-pi, pi] at construction."""

    x: float
    y: float
    heading: float

    def __post_init__(self):
        _require_finite("pose", self.x, self.y, self.heading)
        object.__setattr__(self, "heading", wrap_angle(self.heading))


@dataclass(frozen=True)
class AgentState:
    pose: Pose2
    speed: float  # signed longitudinal speed; negative while reversing
    box: tuple  # (length, width) meters
    valid: bool = True

    def __post_init__(self):
        _require_finite("speed", self.speed)
        if len(self.box) != 2:
            raise SchemaError("box must be (length, width)")
        _require_finite("box", *self.box)
        object.__setattr__(self, "box", (float(self.box[0]), float(self.box[1])))
        if self.valid and (self.box[0] <= 0 or self.box[1] <= 0):
            raise SchemaError("box extents must be positive for valid states")


@dataclass(frozen=True)
class AgentTrack:
    id: int
    category: AgentCategory
    states: tuple  # one AgentState per scene frame

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))

    @cached_property
    def arrays(self) -> np.ndarray:
        """Read-only STATE_DTYPE record per frame."""
        arr = np.array(
            [((s.pose.x, s.pose.y), s.pose.heading, s.speed, s.box, s.valid) for s in self.states],
            dtype=STATE_DTYPE,
        )
        arr.flags.writeable = False
        return arr

    def pose(self, frame: int) -> Pose2:
        """The pose at `frame`, read from the state records."""
        x, y = self.arrays["xy"][frame].tolist()
        return Pose2(x, y, float(self.arrays["heading"][frame]))


@dataclass(frozen=True)
class Lane:
    id: int
    centerline: tuple  # ((x, y), ...) with >= 2 points
    half_width: float
    left_neighbor: Optional[int] = None
    right_neighbor: Optional[int] = None
    successors: tuple = ()
    predecessors: tuple = ()
    semantic: LaneSemantic = LaneSemantic.NORMAL

    def __post_init__(self):
        pts = tuple((float(x), float(y)) for x, y in self.centerline)
        if len(pts) < 2:
            raise SchemaError(f"lane {self.id}: centerline needs >= 2 points")
        for x, y in pts:
            _require_finite(f"lane {self.id} centerline", x, y)
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if x0 == x1 and y0 == y1:
                raise SchemaError(f"lane {self.id}: zero-length centerline segment")
        object.__setattr__(self, "centerline", pts)
        _require_finite(f"lane {self.id} half_width", self.half_width)
        if self.half_width <= 0:
            raise SchemaError(f"lane {self.id}: half_width must be > 0")
        object.__setattr__(self, "successors", tuple(self.successors))
        object.__setattr__(self, "predecessors", tuple(self.predecessors))


@dataclass(frozen=True)
class Scene:
    id: str
    frame_rate: float
    lanes: tuple
    agents: tuple
    ego: AgentTrack
    nav_commands: tuple
    scenario_tag: Optional[ScenarioKind] = None

    def __post_init__(self):
        if not self.id:
            raise SchemaError("scene id must be non-empty")
        if "/" in self.id or "\0" in self.id:  # ids name output files
            raise SchemaError(f"scene id {self.id!r} must not contain '/' or NUL")
        _require_finite("frame_rate", self.frame_rate)
        if self.frame_rate <= 0:
            raise SchemaError("frame_rate must be > 0")
        frames_per_step(self.frame_rate)  # raises for a rate off the plan step
        object.__setattr__(self, "lanes", tuple(sorted(self.lanes, key=lambda l: l.id)))
        object.__setattr__(self, "agents", tuple(sorted(self.agents, key=lambda a: a.id)))
        object.__setattr__(self, "nav_commands", tuple(self.nav_commands))

        n = len(self.ego.states)
        if n == 0:
            raise LengthError("scene must have at least one frame")
        if len(self.nav_commands) != n:
            raise LengthError(
                f"nav_commands has {len(self.nav_commands)} entries for {n} frames"
            )
        for tr in self.agents:
            if len(tr.states) != n:
                raise LengthError(
                    f"agent {tr.id} has {len(tr.states)} states for {n} frames"
                )
        for st in self.ego.states:
            if not st.valid:
                raise SchemaError("ego states must all be valid")

        ids = [tr.id for tr in self.agents]
        if len(set(ids)) != len(ids):
            raise SchemaError("agent ids must be unique")
        if self.ego.id in set(ids):
            raise SchemaError("ego id collides with an agent id")
        for track_id in ids + [self.ego.id]:
            if track_id < 0:
                raise SchemaError(f"track id {track_id} must be non-negative")

        lane_ids = {ln.id for ln in self.lanes}
        if len(lane_ids) != len(self.lanes):
            raise SchemaError("lane ids must be unique")
        if any(lid < 0 for lid in lane_ids):
            raise SchemaError("lane ids must be non-negative")
        for ln in self.lanes:
            refs = list(ln.successors) + list(ln.predecessors)
            if ln.left_neighbor is not None:
                refs.append(ln.left_neighbor)
            if ln.right_neighbor is not None:
                refs.append(ln.right_neighbor)
            for ref in refs:
                if ref not in lane_ids:
                    raise RefError(f"lane {ln.id} references unknown lane {ref}")

    @property
    def n_frames(self) -> int:
        return len(self.ego.states)

    @property
    def plan_stride(self) -> int:
        """Frames per plan step."""
        return frames_per_step(self.frame_rate)

    @cached_property
    def agent_arrays(self) -> np.ndarray:
        """Read-only (agents, frames) STATE_DTYPE records, in agent-id order."""
        if self.agents:
            arr = np.stack([tr.arrays for tr in self.agents])
        else:
            arr = np.zeros((0, self.n_frames), STATE_DTYPE)
        arr.flags.writeable = False
        return arr


@dataclass(frozen=True)
class Trajectory:
    """Planner output: (time, x, y) waypoints in the anchor ego frame."""

    waypoints: tuple

    def __post_init__(self):
        wps = tuple((float(t), float(x), float(y)) for t, x, y in self.waypoints)
        if not wps:
            raise SchemaError("trajectory needs >= 1 waypoint")
        for t, x, y in wps:
            _require_finite("waypoint", t, x, y)
        for (t0, _, _), (t1, _, _) in zip(wps, wps[1:]):
            if t1 <= t0:
                raise SchemaError("waypoint times must be strictly increasing")
        object.__setattr__(self, "waypoints", wps)

    def xy(self):
        return np.array([(x, y) for _, x, y in self.waypoints], dtype=float)

    def times(self):
        return np.array([t for t, _, _ in self.waypoints], dtype=float)


# --------------------------------------------------------------------------
# heading reconstruction


def headings_xy(xy, initial_heading: float, eps_move: float = 1e-3):
    """Per-point headings of a polyline of positions.

    heading_k points along segment k -> k+1; the final point repeats the last
    segment heading; segments shorter than eps_move carry the previous heading
    forward (initial_heading seeds the carry chain).
    """
    headings = []
    prev = wrap_angle(initial_heading)
    n = len(xy)
    for k in range(n - 1):
        dx = xy[k + 1][0] - xy[k][0]
        dy = xy[k + 1][1] - xy[k][1]
        if math.hypot(dx, dy) < eps_move:
            headings.append(prev)
        else:
            prev = wrap_angle(math.atan2(dy, dx))
            headings.append(prev)
    headings.append(prev if n > 1 else wrap_angle(initial_heading))
    return headings


# --------------------------------------------------------------------------
# canonical serialization

def format_float(x: float) -> str:
    """Canonical 9-significant-digit float formatting (idempotent on reload)."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise SchemaError(f"expected a number, got {type(x).__name__}")
    if not math.isfinite(x):
        raise SchemaError(f"non-finite value {x!r} cannot be serialized")
    if x == 0.0:
        x = 0.0  # collapse -0.0
    return format(float(x), ".9g")


def quantize(x: float) -> float:
    """Round-trip a float through the canonical 9-digit representation."""
    return float(format_float(x))


def canonical_dumps(obj) -> str:
    """Deterministic JSON: sorted keys, compact separators, 9-digit floats."""
    out = []
    _dump(obj, out)
    return "".join(out)


def _dump(obj, out: list) -> None:
    import json as _json

    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(_json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise SchemaError("JSON object keys must be strings")
            if i:
                out.append(",")
            _dump(key, out)
            out.append(":")
            _dump(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _dump(item, out)
        out.append("]")
    else:
        raise SchemaError(f"cannot serialize {type(obj).__name__}")


def _state_to_doc(st: AgentState) -> dict:
    return {
        "x": st.pose.x,
        "y": st.pose.y,
        "heading": st.pose.heading,
        "speed": st.speed,
        "length": st.box[0],
        "width": st.box[1],
        "valid": st.valid,
    }


def _lane_to_doc(ln: Lane) -> dict:
    return {
        "id": ln.id,
        "centerline": [[x, y] for x, y in ln.centerline],
        "half_width": ln.half_width,
        "left_neighbor": ln.left_neighbor,
        "right_neighbor": ln.right_neighbor,
        "successors": list(ln.successors),
        "predecessors": list(ln.predecessors),
        "semantic": ln.semantic.value,
    }


def _track_to_doc(tr: AgentTrack) -> dict:
    return {
        "id": tr.id,
        "category": tr.category.value,
        "states": [_state_to_doc(st) for st in tr.states],
    }


def scene_to_doc(scene: Scene) -> dict:
    return {
        "id": scene.id,
        "frame_rate_hz": scene.frame_rate,
        "lanes": [_lane_to_doc(ln) for ln in scene.lanes],
        "agents": [_track_to_doc(tr) for tr in scene.agents],
        "ego": _track_to_doc(scene.ego),
        "nav_commands": [cmd.value for cmd in scene.nav_commands],
        "scenario_tag": scene.scenario_tag.value if scene.scenario_tag else None,
    }


def save_scene(scene: Scene) -> str:
    return canonical_dumps(scene_to_doc(scene))


def _get(doc: dict, key: str, kinds, where: str):
    if key not in doc:
        raise SchemaError(f"{where}: missing key '{key}'")
    value = doc[key]
    if kinds is not None and not isinstance(value, kinds):
        raise SchemaError(f"{where}: key '{key}' has wrong type")
    if isinstance(value, bool) and kinds is not bool:
        raise SchemaError(f"{where}: key '{key}' has wrong type")
    return value


def _float(value, where: str, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where}: '{name}' has wrong type")
    try:
        return float(value)
    except OverflowError:  # an integer beyond float range
        raise SchemaError(f"{where}: '{name}' is too large for a float") from None


def _number(doc: dict, key: str, where: str) -> float:
    if key not in doc:
        raise SchemaError(f"{where}: missing key '{key}'")
    return _float(doc[key], where, key)


def _opt_int(doc: dict, key: str, where: str):
    v = _get(doc, key, None, where)
    if v is None:
        return None
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(f"{where}: key '{key}' must be an integer or null")
    return v


def _int_list(doc: dict, key: str, where: str) -> list:
    v = _get(doc, key, list, where)
    for item in v:
        if isinstance(item, bool) or not isinstance(item, int):
            raise SchemaError(f"{where}: '{key}' must hold integers")
    return v


def _enum(doc: dict, key: str, enum_cls, where: str):
    v = _get(doc, key, str, where)
    try:
        return enum_cls(v)
    except ValueError:
        raise SchemaError(f"{where}: '{v}' is not a valid {enum_cls.__name__}") from None


def _state_from_doc(doc, where: str) -> AgentState:
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: state must be an object")
    valid = _get(doc, "valid", bool, where)
    return AgentState(
        pose=Pose2(
            _number(doc, "x", where), _number(doc, "y", where), _number(doc, "heading", where)
        ),
        speed=_number(doc, "speed", where),
        box=(_number(doc, "length", where), _number(doc, "width", where)),
        valid=valid,
    )


def _track_from_doc(doc, where: str) -> AgentTrack:
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: must be an object")
    track_id = _get(doc, "id", int, where)
    states = _get(doc, "states", list, where)
    return AgentTrack(
        id=track_id,
        category=_enum(doc, "category", AgentCategory, where),
        states=tuple(
            _state_from_doc(st, f"{where} state[{i}]") for i, st in enumerate(states)
        ),
    )


def _lane_from_doc(doc, where: str) -> Lane:
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: must be an object")
    centerline = _get(doc, "centerline", list, where)
    pts = []
    for i, pt in enumerate(centerline):
        if not isinstance(pt, list) or len(pt) != 2:
            raise SchemaError(f"{where}: centerline[{i}] must be [x, y]")
        pts.append((_float(pt[0], where, "centerline"), _float(pt[1], where, "centerline")))
    return Lane(
        id=_get(doc, "id", int, where),
        centerline=tuple(pts),
        half_width=_number(doc, "half_width", where),
        left_neighbor=_opt_int(doc, "left_neighbor", where),
        right_neighbor=_opt_int(doc, "right_neighbor", where),
        successors=tuple(_int_list(doc, "successors", where)),
        predecessors=tuple(_int_list(doc, "predecessors", where)),
        semantic=_enum(doc, "semantic", LaneSemantic, where),
    )


def load_scene(document) -> Scene:
    """Parse and validate a scene document (JSON text or an already-parsed dict).

    Raises SchemaError for malformed fields (a scene id holding '/' or NUL, and
    a frame rate that does not give a whole number of frames per 0.5 s plan
    step, included), RefError for dangling lane references, LengthError for
    per-frame array mismatches; never anything else.
    """
    if isinstance(document, (str, bytes, bytearray)):
        document = parse_json(document, SchemaError, "scene")
    if not isinstance(document, dict):
        raise SchemaError("scene document must be a JSON object")

    scene_id = _get(document, "id", str, "scene")
    if "frame_rate_hz" in document:
        frame_rate = _number(document, "frame_rate_hz", "scene")
    else:
        frame_rate = 2.0
    lanes = [
        _lane_from_doc(doc, f"lane[{i}]")
        for i, doc in enumerate(_get(document, "lanes", list, "scene"))
    ]
    agents = [
        _track_from_doc(doc, f"agent[{i}]")
        for i, doc in enumerate(_get(document, "agents", list, "scene"))
    ]
    ego = _track_from_doc(_get(document, "ego", dict, "scene"), "ego")
    nav_raw = _get(document, "nav_commands", list, "scene")
    nav = []
    for i, item in enumerate(nav_raw):
        if not isinstance(item, str):
            raise SchemaError(f"nav_commands[{i}] must be a string")
        try:
            nav.append(NavigationCommand(item))
        except ValueError:
            raise SchemaError(f"nav_commands[{i}]: unknown command '{item}'") from None
    tag_raw = document.get("scenario_tag")
    if tag_raw is None:
        tag = None
    elif isinstance(tag_raw, str):
        try:
            tag = ScenarioKind(tag_raw)
        except ValueError:
            raise SchemaError(f"unknown scenario_tag '{tag_raw}'") from None
    else:
        raise SchemaError("scenario_tag must be a string or null")

    return Scene(
        id=scene_id,
        frame_rate=frame_rate,
        lanes=tuple(lanes),
        agents=tuple(agents),
        ego=ego,
        nav_commands=tuple(nav),
        scenario_tag=tag,
    )


def load_scene_file(path) -> Scene:
    """load_scene of the file at `path`; every error message starts with the path."""
    text = read_text(path)
    try:
        return load_scene(text)
    except DrivekitError as exc:
        raise type(exc)(f"{path}: {exc.message}") from None


def save_scene_file(scene: Scene, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(save_scene(scene))
        fh.write("\n")
