"""Object-token data contract: a bundle as the three section arrays of its
TOKB body, the TOKB binary container, and a deterministic fixture
encoder/decoder.

A bundle holds its tokens as the file does: agent tokens as one AGENT_RECORD
array (a u64 id, then 512 f32 components: the 256-d track half, then the 256-d
motion half), map tokens as one MAP_RECORD array (a u64 id, then 256 f32) and
scene tokens as one (k, 256) f32 array. Components are IEEE-754 single
precision end to end, so the binary round trip is bit-exact. The fixture
encoder stands in for a trained tokenizer by planting ground-truth attributes
in fixed slots (and seeded pseudo-noise elsewhere), which makes downstream
pipeline correctness testable without any model.

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

import struct
from dataclasses import dataclass, field

import numpy as np

from .config import seeded_rng
from .errors import (
    FormatError, MagicError, TruncatedError, VersionError, as_finite, is_int, read_bytes
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
_F32 = struct.Struct("<f")
# the body: one record array per section, in this order
AGENT_RECORD = np.dtype([("id", "<u8"), ("values", "<f4", (AGENT_DIM,))])
MAP_RECORD = np.dtype([("id", "<u8"), ("values", "<f4", (MAP_DIM,))])
SCENE_RECORD = np.dtype(("<f4", (MAP_DIM,)))  # an array of these is (k, 256) f32
# the record dtype of each section by its TokenBundle field, in body order
_SECTIONS = {"agent_tokens": AGENT_RECORD, "map_tokens": MAP_RECORD, "scene_tokens": SCENE_RECORD}

CATEGORY_ORDER = tuple(AgentCategory)  # one-hot order, 9 categories
SEMANTIC_ORDER = tuple(LaneSemantic)  # one-hot order, 3 semantics


@dataclass(frozen=True, eq=False)
class TokenBundle:
    """One frame's tokens, each section the read-only array the TOKB body
    holds. Construction rejects, with FormatError, anything write_bundle could
    not write or read_bundle could not read back. Equality is exact: same
    header fields, same section arrays. Bundles are unhashable."""

    scene_id: str
    frame: int
    frame_rate: float
    agent_tokens: np.ndarray = field(default_factory=lambda: np.empty(0, AGENT_RECORD))
    map_tokens: np.ndarray = field(default_factory=lambda: np.empty(0, MAP_RECORD))
    scene_tokens: np.ndarray = field(default_factory=lambda: np.empty(0, SCENE_RECORD))

    def __post_init__(self):
        try:
            sid = self.scene_id.encode("utf-8")
        except (AttributeError, UnicodeEncodeError):
            raise FormatError(f"scene id {self.scene_id!r} is not a utf-8 string") from None
        if len(sid) > 0xFFFF:
            raise FormatError("scene id too long for TOKB header")
        if not (is_int(self.frame) and 0 <= self.frame < 2**32):
            raise FormatError(f"frame {self.frame!r} is not an int in [0, 2**32)")
        rate = as_finite(self.frame_rate, "frame rate", FormatError)
        try:  # packing rounds to f32 and raises for a value that rounds past it
            rate = _F32.unpack(_F32.pack(rate))[0]
        except OverflowError:
            raise FormatError(f"frame rate {self.frame_rate!r} is not finite as f32") from None
        object.__setattr__(self, "frame_rate", rate)
        for name, dtype in _SECTIONS.items():
            object.__setattr__(self, name, self._section(name, dtype))

    def _section(self, name: str, dtype: np.dtype) -> np.ndarray:
        """Field `name` checked as a section of `dtype` records, kept as it is
        when it views a bytes object and as a read-only copy otherwise: other
        memory, and the writeable flag of an array that owns it, can change."""
        arr, kind = getattr(self, name), name.partition("_")[0]
        where = f"{self.scene_id} f{self.frame}"
        if not (
            isinstance(arr, np.ndarray)
            and arr.dtype == dtype.base
            and arr.ndim == 1 + len(dtype.shape)
            and arr.shape[1:] == dtype.shape
        ):
            raise FormatError(f"{where}: {kind} tokens must be a {kind.upper()}_RECORD array")
        values = arr["values"] if dtype.names else arr
        ids = arr["id"].tolist() if dtype.names else range(len(arr))
        if not np.isfinite(values).all():
            bad = ids[np.flatnonzero(~np.isfinite(values).all(axis=1))[0]]
            raise FormatError(f"{where}: {kind} token {bad} is not finite as f32")
        if len(set(ids)) != len(ids):
            raise FormatError(f"{where}: duplicate {kind} token ids")
        base = arr
        while isinstance(base, np.ndarray):
            base = base.base
        if not isinstance(base, bytes):
            arr = arr.copy()
            arr.flags.writeable = False
        return arr

    def __eq__(self, other):
        if type(other) is not TokenBundle:
            return NotImplemented
        return (self.scene_id, self.frame, self.frame_rate) == (
            other.scene_id, other.frame, other.frame_rate
        ) and all(np.array_equal(getattr(self, f), getattr(other, f)) for f in _SECTIONS)

    __hash__ = None


# --------------------------------------------------------------------------
# fixture encode / decode


# the fixture slots of each token kind, by its seed tag: attribute slots from
# slot 0, named as in the decoded attributes, then a one-hot in enum order
_LAYOUTS = {
    "agent": (AGENT_RECORD, ("x", "y", "heading", "speed", "length", "width"), CATEGORY_ORDER),
    "map": (MAP_RECORD, ("x0", "y0", "x1", "y1"), SEMANTIC_ORDER),
}


def _plant(kind: str, key: tuple, ids: list, attrs, members: list) -> np.ndarray:
    """The `kind` section of `ids`: per id, noise from the stream named by
    `key`, `kind` and the id, then its row of `attrs` and the one-hot of its
    member in the kind's fixture slots."""
    dtype, names, order = _LAYOUTS[kind]
    records = np.empty(len(ids), dtype)
    if ids:
        if max(ids) >= 2**64:
            _, scene_id, frame = key
            raise FormatError(f"{scene_id} f{frame}: {kind} token id {max(ids)} is not a u64")
        records["id"] = ids
        values = records["values"]
        n, width = len(names), values.shape[1]
        for row, i in zip(values, ids):
            row[:] = seeded_rng(*key, kind, i).standard_normal(width)
        values[:, :n] = attrs
        values[:, n : n + len(order)] = 0.0
        values[range(len(ids)), [n + order.index(member) for member in members]] = 1.0
    return records


def _unplant(section: np.ndarray, kind: str, what: str) -> list:
    """Per token of a `kind` section: its id, its attribute slots, then the
    member its one-hot names."""
    _, names, order = _LAYOUTS[kind]
    n = len(names)
    fields = []
    for i, values in zip(section["id"].tolist(), section["values"][:, : n + len(order)].tolist()):
        onehot = values[n:]
        if onehot.count(1.0) != 1 or onehot.count(0.0) != len(order) - 1:
            raise FormatError(f"{what} {i}: malformed one-hot slots")
        fields.append((i, *values[:n], order[onehot.index(1.0)]))
    return fields


def fixture_encode(scene: Scene, frame: int, seed: int) -> TokenBundle:
    """Deterministic stand-in tokenizer: ground-truth attributes in fixed
    slots, seeded noise elsewhere. Agents invalid at the frame are skipped."""
    if not (0 <= frame < scene.n_frames):
        raise FormatError(f"frame {frame} outside scene of {scene.n_frames} frames")
    states = scene.agent_arrays[:, frame]
    valid = states["valid"]
    agents = [track for track, ok in zip(scene.agents, valid.tolist()) if ok]
    states = states[valid]
    attrs = np.column_stack((states["xy"], states["heading"], states["speed"], states["box"]))
    lanes = scene.lanes
    key = (seed, scene.id, frame)
    # a value past f32 casts to inf, which TokenBundle then rejects by id
    with np.errstate(over="ignore"):
        agent_tokens = _plant(
            "agent", key, [t.id for t in agents], attrs, [t.category for t in agents]
        )
        map_tokens = _plant(
            "map",
            key,
            [lane.id for lane in lanes],
            [lane.centerline[0] + lane.centerline[-1] for lane in lanes],
            [lane.semantic for lane in lanes],
        )
    return TokenBundle(scene.id, frame, scene.frame_rate, agent_tokens, map_tokens)


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


def fixture_decode(bundle: TokenBundle) -> tuple[list, list]:
    """Inverse of fixture_encode on the designated slots."""
    agents = [AgentAttributes(*f) for f in _unplant(bundle.agent_tokens, "agent", "agent")]
    maps = [MapAttributes(*f) for f in _unplant(bundle.map_tokens, "map", "lane")]
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
    sections = [getattr(bundle, name) for name in _SECTIONS]
    lengths = map(len, sections)
    fh.write(_HEADER.pack(MAGIC, VERSION, len(sid), bundle.frame, bundle.frame_rate, *lengths))
    fh.write(sid)
    fh.writelines(section.tobytes() for section in sections)


def read_bundle(source) -> TokenBundle:
    """Read a bundle from a path, binary file object, bytes, bytearray or memoryview."""
    if isinstance(source, (bytes, bytearray, memoryview)):
        data = bytes(source)
    elif hasattr(source, "read"):
        data = source.read()
        if not isinstance(data, bytes):
            raise FormatError(f"a bundle source must read bytes, got {type(data).__name__}")
    else:
        data = read_bytes(source)
    return _parse(data)


def _parse(data: bytes) -> TokenBundle:
    if len(data) < HEADER_SIZE:
        raise TruncatedError(f"need {HEADER_SIZE} header bytes, file has {len(data)}")
    magic, version, sid_len, frame, frame_rate, *counts = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise MagicError(f"bad magic {magic!r}")
    if version != VERSION:
        raise VersionError(f"unsupported version {version}")
    pos = HEADER_SIZE + sid_len
    size = pos + sum(dtype.itemsize * n for dtype, n in zip(_SECTIONS.values(), counts))
    if len(data) != size:
        raise TruncatedError(f"header promises {size} bytes, file has {len(data)}")
    try:
        scene_id = data[HEADER_SIZE:pos].decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError("scene id is not valid utf-8") from None
    sections = []
    for dtype, n in zip(_SECTIONS.values(), counts):
        sections.append(np.frombuffer(data, dtype, count=n, offset=pos))  # read-only views
        pos += dtype.itemsize * n
    return TokenBundle(scene_id, frame, frame_rate, *sections)
