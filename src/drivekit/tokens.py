"""Object-token data contract: fixed-width token types, concatenation, the
TOKB binary container, and a deterministic fixture encoder/decoder.

Token components are IEEE-754 single precision end to end: values quantize to
f32 at construction so the binary round trip is bit-exact. The fixture encoder
stands in for a trained tokenizer by planting ground-truth attributes in fixed
slots (and seeded pseudo-noise elsewhere), which makes downstream pipeline
correctness testable without any model.

TOKB layout (little-endian):

    offset  size  field
    0       4     magic "TOKB"
    4       2     version (u16, currently 1)
    6       2     scene id length in bytes (u16)
    8       4     frame index (u32)
    12      4     frame rate in hz (f32)
    16      4     agent token count (u32)
    20      4     map token count (u32)
    24      4     scene token count (u32)
    28      ...   scene id (utf-8), then per-agent [id u64 | 512 f32],
                  per-map [id u64 | 256 f32], per-scene-token [256 f32]
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .config import seeded_rng
from .errors import (
    FormatError, LengthError, MagicError, TruncatedError, VersionError, is_int, read_bytes
)
from .scene import AgentCategory, LaneSemantic, Scene

TRACK_DIM = 256
MOTION_DIM = 256
MAP_DIM = 256
AGENT_DIM = TRACK_DIM + MOTION_DIM

MAGIC = b"TOKB"
VERSION = 1
_HEADER = struct.Struct("<4sHHIfIII")
HEADER_SIZE = _HEADER.size
# the body: one record array per section, in this order
_AGENT_RECORD = np.dtype([("id", "<u8"), ("values", "<f4", (AGENT_DIM,))])
_MAP_RECORD = np.dtype([("id", "<u8"), ("values", "<f4", (MAP_DIM,))])
_SCENE_RECORD = np.dtype(("<f4", (MAP_DIM,)))

CATEGORY_ORDER = tuple(AgentCategory)  # one-hot order, 9 categories
SEMANTIC_ORDER = tuple(LaneSemantic)  # one-hot order, 3 semantics


@dataclass(frozen=True, eq=False)
class _Token:
    """Token components as one read-only little-endian f32 array. Equality is
    exact: same type, same components. Tokens are unhashable."""

    values: np.ndarray
    width = 0

    def __post_init__(self):
        arr = np.array(self.values, "<f4")
        name = type(self).__name__
        if arr.shape != (self.width,):
            raise LengthError(f"{name} must have exactly {self.width} components")
        if not np.isfinite(arr).all():
            raise FormatError(f"{name} components must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __eq__(self, other):
        return type(other) is type(self) and np.array_equal(self.values, other.values)

    __hash__ = None


class TrackToken(_Token):
    width = TRACK_DIM


class MotionToken(_Token):
    width = MOTION_DIM


class MapToken(_Token):
    width = MAP_DIM


class AgentToken(_Token):
    width = AGENT_DIM

    @property
    def track(self) -> np.ndarray:
        return self.values[:TRACK_DIM]

    @property
    def motion(self) -> np.ndarray:
        return self.values[TRACK_DIM:]


@dataclass(frozen=True)
class TokenBundle:
    """One frame's tokens. Construction rejects, with FormatError, anything
    write_bundle could not write or read_bundle could not read back."""

    scene_id: str
    frame: int
    frame_rate: float
    agent_tokens: tuple  # ((agent_id, AgentToken), ...)
    map_tokens: tuple  # ((lane_id, MapToken), ...)
    scene_tokens: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "agent_tokens", tuple(self.agent_tokens))
        object.__setattr__(self, "map_tokens", tuple(self.map_tokens))
        if any(isinstance(t, _Token) and type(t) is not MapToken for t in self.scene_tokens):
            raise FormatError("scene tokens must be MapTokens")
        object.__setattr__(
            self,
            "scene_tokens",
            tuple(
                t if isinstance(t, MapToken) else MapToken(t) for t in self.scene_tokens
            ),
        )
        try:
            sid = self.scene_id.encode("utf-8")
        except (AttributeError, UnicodeEncodeError):
            raise FormatError(f"scene id {self.scene_id!r} is not a utf-8 string") from None
        if len(sid) > 0xFFFF:
            raise FormatError("scene id too long for TOKB header")
        if not (is_int(self.frame) and 0 <= self.frame < 2**32):
            raise FormatError(f"frame {self.frame!r} is not an int in [0, 2**32)")
        try:
            with np.errstate(over="ignore"):
                rate = float(np.float32(self.frame_rate))
        except (TypeError, ValueError):
            raise FormatError(f"frame rate {self.frame_rate!r} is not a number") from None
        if not math.isfinite(rate):
            raise FormatError(f"frame rate {self.frame_rate!r} is not finite as f32")
        object.__setattr__(self, "frame_rate", rate)
        for name, pairs, cls in (
            ("agent", self.agent_tokens, AgentToken),
            ("map", self.map_tokens, MapToken),
        ):
            for i, token in pairs:
                if not (is_int(i) and 0 <= i < 2**64):
                    raise FormatError(f"{name} token id {i!r} is not an int in u64 range")
                if type(token) is not cls:
                    raise FormatError(f"{name} token {i} is not a {cls.__name__}")
            if len({i for i, _ in pairs}) != len(pairs):
                raise FormatError(f"duplicate {name} token ids in bundle")


# --------------------------------------------------------------------------
# fixture encode / decode


# the fixture slots of each token kind, by its seed tag: attribute slots from
# slot 0, named as in the decoded attributes, then a one-hot in enum order
_LAYOUTS = {
    "agent": (AgentToken, ("x", "y", "heading", "speed", "length", "width"), CATEGORY_ORDER),
    "map": (MapToken, ("x0", "y0", "x1", "y1"), SEMANTIC_ORDER),
}


def _plant(kind: str, key: tuple, i: int, attrs, member) -> tuple:
    """(i, a `kind` token): noise from the stream named by `key`, `kind` and
    `i`, with `attrs` and the one-hot of `member` in the kind's fixture slots."""
    cls, names, order = _LAYOUTS[kind]
    values = seeded_rng(*key, kind, i).standard_normal(cls.width)
    n = len(names)
    values[:n] = attrs
    values[n : n + len(order)] = 0.0
    values[n + order.index(member)] = 1.0
    return i, cls(values)


def _unplant(token: _Token, kind: str, what: str) -> list:
    """The attribute slots of a `kind` token, then the member its one-hot names."""
    _, names, order = _LAYOUTS[kind]
    values = token.values[: len(names) + len(order)].tolist()
    onehot = values[len(names) :]
    if onehot.count(1.0) != 1 or onehot.count(0.0) != len(order) - 1:
        raise FormatError(f"{what}: malformed one-hot slots")
    return values[: len(names)] + [order[onehot.index(1.0)]]


def fixture_encode(scene: Scene, frame: int, seed: int) -> TokenBundle:
    """Deterministic stand-in tokenizer: ground-truth attributes in fixed
    slots, seeded noise elsewhere. Agents invalid at the frame are skipped."""
    if not (0 <= frame < scene.n_frames):
        raise FormatError(f"frame {frame} outside scene of {scene.n_frames} frames")
    states = scene.agent_arrays[:, frame]
    attrs = np.column_stack((states["xy"], states["heading"], states["speed"], states["box"]))
    key = (seed, scene.id, frame)
    return TokenBundle(
        scene_id=scene.id,
        frame=frame,
        frame_rate=scene.frame_rate,
        agent_tokens=tuple(
            _plant("agent", key, track.id, attr, track.category)
            for track, valid, attr in zip(scene.agents, states["valid"], attrs)
            if valid
        ),
        map_tokens=tuple(
            _plant("map", key, lane.id, lane.centerline[0] + lane.centerline[-1], lane.semantic)
            for lane in scene.lanes
        ),
    )


@dataclass(frozen=True)
class AgentAttributes:
    agent_id: int
    x: float
    y: float
    heading: float
    speed: float
    length: float
    width: float
    category: AgentCategory


@dataclass(frozen=True)
class MapAttributes:
    lane_id: int
    x0: float
    y0: float
    x1: float
    y1: float
    semantic: LaneSemantic


def fixture_decode(bundle: TokenBundle) -> Tuple[list, list]:
    """Inverse of fixture_encode on the designated slots."""
    agents = [
        AgentAttributes(i, *_unplant(token, "agent", f"agent {i}"))
        for i, token in bundle.agent_tokens
    ]
    maps = [
        MapAttributes(i, *_unplant(token, "map", f"lane {i}")) for i, token in bundle.map_tokens
    ]
    return agents, maps


# --------------------------------------------------------------------------
# TOKB container


def write_bundle(bundle: TokenBundle, sink) -> None:
    """Write a bundle to a path or binary file object, bit-exactly."""
    if hasattr(sink, "write"):
        _write_stream(bundle, sink)
    else:
        with open(sink, "wb") as fh:
            _write_stream(bundle, fh)


def _write_stream(bundle: TokenBundle, fh) -> None:
    sid = bundle.scene_id.encode("utf-8")
    fh.write(
        _HEADER.pack(
            MAGIC,
            VERSION,
            len(sid),
            bundle.frame,
            bundle.frame_rate,
            len(bundle.agent_tokens),
            len(bundle.map_tokens),
            len(bundle.scene_tokens),
        )
    )
    fh.write(sid)
    fh.write(np.array([(i, t.values) for i, t in bundle.agent_tokens], _AGENT_RECORD).tobytes())
    fh.write(np.array([(i, t.values) for i, t in bundle.map_tokens], _MAP_RECORD).tobytes())
    fh.write(np.array([t.values for t in bundle.scene_tokens], "<f4").tobytes())


def read_bundle(source) -> TokenBundle:
    """Read a bundle from a path, binary file object, or bytes."""
    if isinstance(source, (bytes, bytearray)):
        data = bytes(source)
    elif hasattr(source, "read"):
        data = source.read()
    else:
        data = read_bytes(source)
    return _parse(data)


def _parse(data: bytes) -> TokenBundle:
    if len(data) < HEADER_SIZE:
        raise TruncatedError(f"need {HEADER_SIZE} header bytes, file has {len(data)}")
    magic, version, sid_len, frame, frame_rate, n_agents, n_maps, n_scene = (
        _HEADER.unpack_from(data)
    )
    if magic != MAGIC:
        raise MagicError(f"bad magic {magic!r}")
    if version != VERSION:
        raise VersionError(f"unsupported version {version}")
    sections = ((_AGENT_RECORD, n_agents), (_MAP_RECORD, n_maps), (_SCENE_RECORD, n_scene))
    size = HEADER_SIZE + sid_len + sum(dtype.itemsize * n for dtype, n in sections)
    if len(data) != size:
        raise TruncatedError(f"header promises {size} bytes, file has {len(data)}")
    try:
        scene_id = data[HEADER_SIZE : HEADER_SIZE + sid_len].decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError("scene id is not valid utf-8") from None
    pos = HEADER_SIZE + sid_len
    arrays = []
    for dtype, n in sections:
        arrays.append(np.frombuffer(data, dtype, count=n, offset=pos))
        pos += dtype.itemsize * n
    agents, maps, scene = arrays
    return TokenBundle(
        scene_id=scene_id,
        frame=frame,
        frame_rate=frame_rate,
        agent_tokens=tuple(zip(agents["id"].tolist(), map(AgentToken, agents["values"]))),
        map_tokens=tuple(zip(maps["id"].tolist(), map(MapToken, maps["values"]))),
        scene_tokens=tuple(map(MapToken, scene)),
    )
