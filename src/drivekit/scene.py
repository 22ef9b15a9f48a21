"""Core domain types, validation, and the scene JSON schema.

All types are immutable value objects; a ``Scene`` that constructs without
raising satisfies every schema invariant. Serialization is canonical (sorted
keys, floats at 9 significant digits) so byte-identical round trips are a
testable property rather than an accident.
"""
from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import (
    LengthError, RefError, SchemaError, _at, as_finite, is_int, parse_json, read_text
)

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


def wrap_angles(a) -> np.ndarray:
    """wrap_angle over an array, elementwise: fmod is exact in numpy and libm
    alike, so each element gets wrap_angle's bits."""
    a = np.fmod(a, TWO_PI)
    return np.where(a > math.pi, a - TWO_PI, np.where(a <= -math.pi, a + TWO_PI, a))


def frames_per_step(frame_rate: float) -> int:
    """Scene frames per plan step; SchemaError unless that is a whole number >= 1."""
    spf = PLAN_DT * frame_rate
    if abs(spf - round(spf)) > 1e-9 or round(spf) < 1:
        raise SchemaError(
            f"frame rate {frame_rate} Hz does not align with {PLAN_DT} s plan steps"
        )
    return int(round(spf))


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


def _member(value, enum_cls, name: str) -> None:
    if not isinstance(value, enum_cls):
        raise SchemaError(f"{name} must be a {enum_cls.__name__}, got {value!r}")


def _integer(value, name: str) -> int:
    if not is_int(value):
        raise SchemaError(f"{name} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class Pose2:
    """2D pose; heading wrapped to (-pi, pi] at construction."""

    x: float
    y: float
    heading: float

    def __post_init__(self):
        object.__setattr__(self, "x", as_finite(self.x, "x"))
        object.__setattr__(self, "y", as_finite(self.y, "y"))
        object.__setattr__(self, "heading", wrap_angle(as_finite(self.heading, "heading")))


@dataclass(frozen=True)
class AgentState:
    pose: Pose2
    speed: float  # signed longitudinal speed; negative while reversing
    box: tuple  # (length, width) meters
    valid: bool = True

    def __post_init__(self):
        _member(self.pose, Pose2, "pose")
        object.__setattr__(self, "speed", as_finite(self.speed, "speed"))
        try:
            length, width = self.box
        except (TypeError, ValueError):
            raise SchemaError(f"box must be (length, width), got {self.box!r}") from None
        box = (as_finite(length, "length"), as_finite(width, "width"))
        object.__setattr__(self, "box", box)
        if not isinstance(self.valid, bool):
            raise SchemaError(f"valid must be a bool, got {self.valid!r}")
        if self.valid and (box[0] <= 0 or box[1] <= 0):
            raise SchemaError("box extents must be positive for valid states")


@dataclass(frozen=True)
class AgentTrack:
    id: int
    category: AgentCategory
    states: tuple  # one AgentState per scene frame

    def __post_init__(self):
        if _integer(self.id, "track id") < 0:
            raise SchemaError(f"track id {self.id} must be non-negative")
        _member(self.category, AgentCategory, "category")
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


def _point(pt, name: str) -> tuple:
    try:
        x, y = pt
    except (TypeError, ValueError):
        raise SchemaError(f"{name} must be [x, y], got {pt!r}") from None
    return as_finite(x, name), as_finite(y, name)


def _points(pts, name: str) -> tuple:
    """`pts` as a tuple of finite (x, y) float pairs; the i-th is named `name[i]`."""
    try:
        pts = tuple(pts)
    except TypeError:
        raise SchemaError(f"{name} must be a list of [x, y], got {pts!r}") from None
    return tuple(_point(pt, f"{name}[{i}]") for i, pt in enumerate(pts))


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
        if _integer(self.id, "lane id") < 0:
            raise SchemaError(f"lane id {self.id} must be non-negative")
        pts = _points(self.centerline, "centerline")
        if len(pts) < 2:
            raise SchemaError(f"lane {self.id}: centerline needs >= 2 points")
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if x0 == x1 and y0 == y1:
                raise SchemaError(f"lane {self.id}: zero-length centerline segment")
        object.__setattr__(self, "centerline", pts)
        object.__setattr__(self, "half_width", as_finite(self.half_width, "half_width"))
        if self.half_width <= 0:
            raise SchemaError(f"lane {self.id}: half_width must be > 0")
        for name in ("left_neighbor", "right_neighbor"):
            if getattr(self, name) is not None:
                _integer(getattr(self, name), name)
        for name in ("successors", "predecessors"):
            object.__setattr__(self, name, tuple(_integer(r, name) for r in getattr(self, name)))
        _member(self.semantic, LaneSemantic, "semantic")


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
        if not isinstance(self.id, str) or not self.id:
            raise SchemaError(f"scene id must be a non-empty string, got {self.id!r}")
        if "/" in self.id or "\0" in self.id:  # ids name output files
            raise SchemaError(f"scene id {self.id!r} must not contain '/' or NUL")
        object.__setattr__(self, "frame_rate", as_finite(self.frame_rate, "frame_rate"))
        if self.frame_rate <= 0:
            raise SchemaError("frame_rate must be > 0")
        frames_per_step(self.frame_rate)  # raises for a rate off the plan step
        object.__setattr__(self, "lanes", tuple(sorted(self.lanes, key=lambda l: l.id)))
        object.__setattr__(self, "agents", tuple(sorted(self.agents, key=lambda a: a.id)))
        object.__setattr__(self, "nav_commands", tuple(self.nav_commands))
        for i, command in enumerate(self.nav_commands):
            _member(command, NavigationCommand, f"nav_commands[{i}]")
        if self.scenario_tag is not None:
            _member(self.scenario_tag, ScenarioKind, "scenario_tag")

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

        lane_ids = {ln.id for ln in self.lanes}
        if len(lane_ids) != len(self.lanes):
            raise SchemaError("lane ids must be unique")
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

    @cached_property
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


# --------------------------------------------------------------------------
# canonical serialization

def _canonical(x: float) -> str:
    """Canonical 9-significant-digit float formatting (idempotent on reload)."""
    x = as_finite(x, "a serialized number")
    if x == 0.0:
        x = 0.0  # collapse -0.0
    return format(x, ".9g")


def quantize(x: float) -> float:
    """Round-trip a float through the canonical 9-digit representation."""
    return float(_canonical(x))


def canonical_dumps(obj) -> str:
    """Deterministic JSON: sorted keys, compact separators, 9-digit floats."""
    out = []
    _dump(obj, out)
    return "".join(out)


def _dump(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_canonical(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
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


# the JSON field names of a state and of a lane, in constructor order
_STATE_KEYS = ("x", "y", "heading", "speed", "length", "width", "valid")
_LANE_KEYS = (
    "id", "centerline", "half_width", "left_neighbor", "right_neighbor",
    "successors", "predecessors", "semantic",
)
# one state's canonical text: the seven keys in sorted order
_STATE_TEXT = '{"heading":%s,"length":%s,"speed":%s,"valid":%s,"width":%s,"x":%s,"y":%s}'


def _lane_to_doc(ln: Lane) -> dict:
    values = (
        ln.id, [[x, y] for x, y in ln.centerline], ln.half_width, ln.left_neighbor,
        ln.right_neighbor, list(ln.successors), list(ln.predecessors), ln.semantic.value,
    )
    return dict(zip(_LANE_KEYS, values))


def _track_text(tr: AgentTrack) -> str:
    states = ",".join(
        _STATE_TEXT % (
            _canonical(st.pose.heading), _canonical(st.box[0]), _canonical(st.speed),
            "true" if st.valid else "false", _canonical(st.box[1]),
            _canonical(st.pose.x), _canonical(st.pose.y),
        )
        for st in tr.states
    )
    return '{"category":"%s","id":%d,"states":[%s]}' % (tr.category.value, tr.id, states)


def save_scene(scene: Scene) -> str:
    """The scene's canonical JSON text (see canonical_dumps): the tracks are
    written state by state, and the keys after them in one canonical_dumps."""
    rest = canonical_dumps({
        "frame_rate_hz": scene.frame_rate,
        "id": scene.id,
        "lanes": [_lane_to_doc(ln) for ln in scene.lanes],
        "nav_commands": [cmd.value for cmd in scene.nav_commands],
        "scenario_tag": scene.scenario_tag.value if scene.scenario_tag else None,
    })
    agents = ",".join(_track_text(tr) for tr in scene.agents)
    return '{"agents":[%s],"ego":%s,%s' % (agents, _track_text(scene.ego), rest[1:])


def _fields(doc, keys) -> list:
    """The values of `keys` in the JSON object `doc`."""
    if not isinstance(doc, dict):
        raise SchemaError("must be an object")
    try:
        return [doc[key] for key in keys]
    except KeyError as exc:
        raise SchemaError(f"missing key {exc}") from None


def _list(value, name: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"'{name}' must be a list")
    return value


def _enum(value, enum_cls):
    """The member of `enum_cls` named `value`."""
    try:
        return enum_cls(value)
    except ValueError:
        raise SchemaError(f"{value!r} is not a valid {enum_cls.__name__}") from None


def _state_from_doc(doc) -> AgentState:
    x, y, heading, speed, length, width, valid = _fields(doc, _STATE_KEYS)
    return AgentState(Pose2(x, y, heading), speed, (length, width), valid)


def _track_from_doc(doc, where: str) -> AgentTrack:
    track_id, category, states = _at(where, _fields, doc, ("id", "category", "states"))
    states = [
        _at(f"{where} state[{i}]", _state_from_doc, st)
        for i, st in enumerate(_at(where, _list, states, "states"))
    ]
    return _at(where, lambda: AgentTrack(track_id, _enum(category, AgentCategory), states))


def _lane_from_doc(doc) -> Lane:
    lane_id, centerline, half_width, left, right, succ, pred, semantic = _fields(doc, _LANE_KEYS)
    return Lane(
        lane_id, _list(centerline, "centerline"), half_width, left, right,
        _list(succ, "successors"), _list(pred, "predecessors"), _enum(semantic, LaneSemantic),
    )


def load_scene(document) -> Scene:
    """Parse and validate a scene document (JSON text or an already-parsed dict).

    The document is mapped to the scene dataclasses, which check every value;
    an error names where in the document it is. Raises SchemaError for
    malformed fields (a scene id holding '/' or NUL, and a frame rate that does
    not give a whole number of frames per 0.5 s plan step, included), RefError
    for dangling lane references, LengthError for per-frame array mismatches;
    never anything else.
    """
    if isinstance(document, (str, bytes, bytearray)):
        document = parse_json(document, SchemaError, "scene")
    keys = ("id", "lanes", "agents", "ego", "nav_commands")
    scene_id, lanes, agents, ego, nav = _at("scene", _fields, document, keys)
    tag = document.get("scenario_tag")
    return Scene(
        id=scene_id,
        frame_rate=document.get("frame_rate_hz", 2.0),
        lanes=tuple(
            _at(f"lane[{i}]", _lane_from_doc, doc)
            for i, doc in enumerate(_at("scene", _list, lanes, "lanes"))
        ),
        agents=tuple(
            _track_from_doc(doc, f"agent[{i}]")
            for i, doc in enumerate(_at("scene", _list, agents, "agents"))
        ),
        ego=_track_from_doc(ego, "ego"),
        nav_commands=tuple(
            _at(f"nav_commands[{i}]", _enum, item, NavigationCommand)
            for i, item in enumerate(_at("scene", _list, nav, "nav_commands"))
        ),
        scenario_tag=None if tag is None else _at("scenario_tag", _enum, tag, ScenarioKind),
    )


def load_scene_file(path) -> Scene:
    """load_scene of the file at `path`; every error message starts with the path."""
    return _at(path, load_scene, read_text(path))


def save_scene_file(scene: Scene, path) -> None:
    """save_scene to `path`; a scene that cannot be serialized leaves the file as it was."""
    text = save_scene(scene) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
