import dataclasses
import errno
import hashlib
import io
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cruising_ego, scene_of, state, straight_lane, track
from drivekit.errors import (
    DrivekitError,
    FileError,
    FormatError,
    MagicError,
    TruncatedError,
    VersionError,
)
from drivekit.scene import AgentCategory, LaneSemantic
from drivekit.tokens import (
    _LAYOUTS,
    AGENT_DIM,
    AGENT_RECORD,
    HEADER_SIZE,
    MAGIC,
    MAP_DIM,
    MAP_RECORD,
    SCENE_RECORD,
    AgentAttributes,
    MapAttributes,
    TokenBundle,
    fixture_decode,
    fixture_encode,
    read_bundle,
    write_bundle,
)
from drivekit.synth import synth_scene


def _section(dtype, ids, values=0.0) -> np.ndarray:
    """A writable section of `dtype` records: one per id, each holding `values`."""
    records = np.zeros(len(ids), dtype)
    records["id"] = ids
    records["values"] = values
    return records


def _bundle(**changes) -> TokenBundle:
    fields = dict(scene_id="s", frame=0, frame_rate=2.0)
    fields.update(changes)
    return TokenBundle(**fields)


def test_bundle_sections_default_to_empty_arrays():
    bundle = _bundle()
    assert bundle.agent_tokens.dtype == AGENT_RECORD and bundle.agent_tokens.shape == (0,)
    assert bundle.map_tokens.dtype == MAP_RECORD and bundle.map_tokens.shape == (0,)
    assert bundle.scene_tokens.dtype == np.dtype("<f4")
    assert bundle.scene_tokens.shape == np.empty(0, SCENE_RECORD).shape == (0, MAP_DIM)


@pytest.mark.parametrize(
    "field, bad",
    [
        ("agent_tokens", np.zeros(1, [("id", "<u8"), ("values", "<f4", (AGENT_DIM - 1,))])),
        ("map_tokens", np.zeros(1, [("id", "<u8"), ("values", "<f4", (MAP_DIM + 1,))])),
        ("agent_tokens", np.zeros(1, [("id", "<u8"), ("values", "<f8", (AGENT_DIM,))])),
        ("map_tokens", np.zeros(1, [("id", ">u8"), ("values", ">f4", (MAP_DIM,))])),
        ("agent_tokens", np.zeros((1, 1), AGENT_RECORD)),
        ("map_tokens", np.zeros((), MAP_RECORD)),
        ("scene_tokens", np.zeros(MAP_DIM, "<f4")),
        ("scene_tokens", np.zeros((1, MAP_DIM - 1), "<f4")),
        ("scene_tokens", np.zeros((1, MAP_DIM), "<f8")),
        ("scene_tokens", [[0.0] * MAP_DIM]),
    ],
    ids=[
        "agent-width-511", "map-width-257", "agent-f8", "map-big-endian", "agent-2d",
        "map-0d", "scene-1d", "scene-width-255", "scene-f8", "scene-list",
    ],
)
def test_bundle_rejects_section_of_wrong_dtype_or_shape(field, bad):
    with pytest.raises(FormatError, match=f"^s f0: {field[:-7]} tokens must be a "):
        _bundle(**{field: bad})


def test_non_finite_rejected():
    agents = _section(AGENT_RECORD, [3, 41])
    agents["values"][1, 7] = np.inf
    with pytest.raises(FormatError, match="^s f0: agent token 41 is not finite as f32$"):
        _bundle(agent_tokens=agents)
    maps = _section(MAP_RECORD, [2, 8])
    maps["values"][0, 200] = np.nan
    with pytest.raises(FormatError, match="^s f0: map token 2 is not finite as f32$"):
        _bundle(map_tokens=maps)
    scene = np.zeros((2, MAP_DIM), "<f4")
    scene[1, 0] = -np.inf
    with pytest.raises(FormatError, match="^s f0: scene token 1 is not finite as f32$"):
        _bundle(scene_tokens=scene)


def test_bundle_keeps_no_view_of_a_writable_section():
    agents = _section(AGENT_RECORD, [1, 2], 0.5)
    bundle = _bundle(agent_tokens=agents)
    agents["values"][0, 0] = 5.0
    agents["id"][1] = 9
    assert bundle == _bundle(agent_tokens=_section(AGENT_RECORD, [1, 2], 0.5))
    with pytest.raises(ValueError):
        bundle.agent_tokens["values"][0, 0] = 1.0
    agents.flags.writeable = False  # an array that owns its memory can set it back
    kept = _bundle(agent_tokens=agents).agent_tokens
    assert kept is not agents and not kept.flags.writeable


def test_bundle_keeps_no_read_only_view_of_writable_memory():
    base = np.zeros(1, AGENT_RECORD)
    view = base.view()
    view.flags.writeable = False
    bundle = TokenBundle("s", 0, 2.0, view)
    base["values"][0, 0] = np.nan
    assert np.isfinite(bundle.agent_tokens["values"]).all()
    buf = io.BytesIO()
    write_bundle(bundle, buf)
    assert read_bundle(buf.getvalue()) == bundle


def test_fixture_encode_deterministic():
    scene = synth_scene("CONSTRUCTION_ZONE", 4)
    a = fixture_encode(scene, 3, seed=99)
    b = fixture_encode(scene, 3, seed=99)
    assert a == b
    c = fixture_encode(scene, 3, seed=100)
    assert a != c


def test_fixture_decode_recovers_attributes():
    lanes = [straight_lane(1, semantic=LaneSemantic.NORMAL)]
    agent = track(
        17,
        [state(10.0, 2.0, 0.25, 3.5, (4.5, 1.8))] * 6,
        category=AgentCategory.CAR,
    )
    scene = scene_of(lanes, [agent], cruising_ego(6))
    bundle = fixture_encode(scene, 0, seed=0)
    agents, maps = fixture_decode(bundle)
    assert len(agents) == 1
    rec = agents[0]
    assert rec.agent_id == 17
    # decoded slots equal the encoded attributes at token (f32) precision
    assert rec.x == float(np.float32(10.0))
    assert rec.y == float(np.float32(2.0))
    assert rec.heading == float(np.float32(0.25))
    assert rec.speed == float(np.float32(3.5))
    assert rec.length == float(np.float32(4.5))
    assert rec.width == float(np.float32(1.8))
    assert rec.category is AgentCategory.CAR

    assert len(maps) == 1
    lane_rec = maps[0]
    assert lane_rec.lane_id == 1
    assert lane_rec.x0 == float(np.float32(lanes[0].centerline[0][0]))
    assert lane_rec.y1 == float(np.float32(lanes[0].centerline[-1][1]))
    assert lane_rec.semantic is LaneSemantic.NORMAL


def test_fixture_decode_recovers_every_category_and_semantic():
    agents = [
        track(10 + k, [state(2.0 * k, 1.5, 0.1 * k, 0.7 * k, (1.0 + k, 0.5 + k))] * 6, category)
        for k, category in enumerate(AgentCategory)
    ]
    lanes = [
        straight_lane(1 + k, y=4.0 * k, semantic=semantic)
        for k, semantic in enumerate(LaneSemantic)
    ]
    scene = scene_of(lanes, agents, cruising_ego(6))
    agents_out, maps_out = fixture_decode(fixture_encode(scene, 2, seed=5))
    f32 = lambda values: tuple(float(np.float32(v)) for v in values)
    assert [(a.agent_id, a.category) for a in agents_out] == [(t.id, t.category) for t in agents]
    for a, t in zip(agents_out, agents):
        st = t.states[2]
        attrs = (st.pose.x, st.pose.y, st.pose.heading, st.speed, *st.box)
        assert (a.x, a.y, a.heading, a.speed, a.length, a.width) == f32(attrs)
    assert [(m.lane_id, m.semantic) for m in maps_out] == [(ln.id, ln.semantic) for ln in lanes]
    for m, ln in zip(maps_out, lanes):
        assert (m.x0, m.y0, m.x1, m.y1) == f32((*ln.centerline[0], *ln.centerline[-1]))


def test_fixture_slot_names_are_the_decoded_attribute_fields():
    for kind, cls in (("agent", AgentAttributes), ("map", MapAttributes)):
        names = tuple(field.name for field in dataclasses.fields(cls))
        assert names[1:-1] == _LAYOUTS[kind][1]


def test_fixture_skips_invalid_agents():
    agent_states = [state(10.0, 2.0)] * 3 + [state(10.0, 2.0, valid=False)] * 3
    agent = track(5, agent_states)
    scene = scene_of([straight_lane(1)], [agent], cruising_ego(6))
    assert len(fixture_encode(scene, 0, 0).agent_tokens) == 1
    assert len(fixture_encode(scene, 4, 0).agent_tokens) == 0


def test_decode_rejects_malformed_one_hot():
    values = np.zeros(AGENT_DIM)
    values[6] = 1.0
    values[7] = 1.0  # two categories set
    bundle = _bundle(agent_tokens=_section(AGENT_RECORD, [1], values))
    with pytest.raises(FormatError):
        fixture_decode(bundle)


def random_bundle(rng) -> TokenBundle:
    n_agents = int(rng.integers(0, 4))
    n_maps = int(rng.integers(0, 3))
    n_scene = int(rng.integers(0, 2))
    scene_id = "s" + str(rng.integers(0, 10_000))
    frame = int(rng.integers(0, 40))
    agent_ids = rng.choice(1000, size=n_agents, replace=False)
    agents = _section(AGENT_RECORD, agent_ids, rng.standard_normal((n_agents, AGENT_DIM)))
    map_ids = rng.choice(1000, size=n_maps, replace=False)
    maps = _section(MAP_RECORD, map_ids, rng.standard_normal((n_maps, MAP_DIM)))
    return TokenBundle(
        scene_id=scene_id,
        frame=frame,
        frame_rate=2.0,
        agent_tokens=agents,
        map_tokens=maps,
        scene_tokens=rng.standard_normal((n_scene, MAP_DIM)).astype("<f4"),
    )


def test_roundtrip_bit_exact_over_random_bundles():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        bundle = random_bundle(rng)
        buf = io.BytesIO()
        write_bundle(bundle, buf)
        data = buf.getvalue()
        again = read_bundle(data)
        assert again == bundle
        buf2 = io.BytesIO()
        write_bundle(again, buf2)
        assert buf2.getvalue() == data


def test_empty_bundle_is_header_only():
    bundle = _bundle(scene_id="")
    buf = io.BytesIO()
    write_bundle(bundle, buf)
    assert len(buf.getvalue()) == HEADER_SIZE == 28
    assert read_bundle(buf.getvalue()) == bundle


def test_corrupted_magic():
    bundle = _bundle()
    buf = io.BytesIO()
    write_bundle(bundle, buf)
    data = bytearray(buf.getvalue())
    data[0:4] = b"NOPE"
    with pytest.raises(MagicError):
        read_bundle(bytes(data))


def test_unsupported_version():
    bundle = _bundle()
    buf = io.BytesIO()
    write_bundle(bundle, buf)
    data = bytearray(buf.getvalue())
    data[4:6] = (99).to_bytes(2, "little")
    with pytest.raises(VersionError):
        read_bundle(bytes(data))


def test_truncated_payload():
    rng = np.random.default_rng(0)
    bundle = random_bundle(rng)
    while not len(bundle.agent_tokens):
        bundle = random_bundle(rng)
    buf = io.BytesIO()
    write_bundle(bundle, buf)
    with pytest.raises(TruncatedError):
        read_bundle(buf.getvalue()[:-10])
    with pytest.raises(TruncatedError):
        read_bundle(buf.getvalue() + b"\x00")


def test_file_roundtrip(tmp_path):
    scene = synth_scene("NOMINAL", 2)
    bundle = fixture_encode(scene, 1, seed=7)
    path = tmp_path / "frame.tokb"
    write_bundle(bundle, path)
    assert read_bundle(path) == bundle


@pytest.mark.parametrize(
    "name, code",
    [("absent.tokb", errno.ENOENT), ("", errno.EISDIR)],
    ids=["missing", "directory"],
)
def test_unreadable_bundle_path_is_file_error(tmp_path, name, code):
    path = tmp_path / name
    with pytest.raises(FileError) as exc:
        read_bundle(path)
    assert exc.value.to_dict() == {"error": "FILE_ERROR", "message": f"{path}: {os.strerror(code)}"}


def test_duplicate_ids_rejected():
    with pytest.raises(FormatError, match="^s f0: duplicate agent token ids$"):
        _bundle(agent_tokens=_section(AGENT_RECORD, [1, 1]))
    with pytest.raises(FormatError, match="^s f0: duplicate map token ids$"):
        _bundle(map_tokens=_section(MAP_RECORD, [4, 2, 4]))
    _bundle(agent_tokens=_section(AGENT_RECORD, [1]), map_tokens=_section(MAP_RECORD, [1]))


def test_encode_rejects_id_outside_u64():
    agent = track(2**64, [state(10.0, 2.0)] * 6)
    with pytest.raises(FormatError, match="agent token id 18446744073709551616 is not a u64"):
        fixture_encode(scene_of([straight_lane(1)], [agent], cruising_ego(6)), 0, 0)
    scene = scene_of([straight_lane(2**64 + 1)], [], cruising_ego(6))
    with pytest.raises(FormatError, match="map token id 18446744073709551617 is not a u64"):
        fixture_encode(scene, 0, 0)


@pytest.mark.parametrize(
    "kind, index, frame, seed, size, sha256",
    [
        ("OVERTAKE_ONCOMING", 3, 5, 11, 6228,
         "92755b26a0f5b1705b33c3b7c3a482ff4a4be4ffd9fc2f1dcf7f0638da07c201"),
        ("CONSTRUCTION_ZONE", 4, 0, 0, 8284,
         "4510c16abc645765c5dc78576176cd727ae04d74fe086decde26639dce514bdb"),
    ],
    ids=["overtake", "construction"],
)
def test_fixture_bundle_bytes_are_pinned(kind, index, frame, seed, size, sha256):
    bundle = fixture_encode(synth_scene(kind, index), frame, seed)
    buf = io.BytesIO()
    write_bundle(bundle, buf)
    assert len(buf.getvalue()) == size
    assert hashlib.sha256(buf.getvalue()).hexdigest() == sha256
    tokens = bundle.agent_tokens
    assert tokens.dtype == AGENT_RECORD
    with pytest.raises(ValueError):
        tokens["values"][0, 0] = 1.0
    with pytest.raises(ValueError):
        tokens["id"][0] = 1


def test_token_equality_is_exact_and_typed():
    values = np.linspace(-1.0, 1.0, MAP_DIM)
    bundle = _bundle(map_tokens=_section(MAP_RECORD, [4], values))
    assert bundle == _bundle(map_tokens=_section(MAP_RECORD, [4], values.astype(np.float32)))
    assert bundle != _bundle(map_tokens=_section(MAP_RECORD, [5], values))
    assert bundle != _bundle(scene_tokens=values.astype("<f4")[None])
    assert bundle != _bundle(frame=1, map_tokens=_section(MAP_RECORD, [4], values))
    assert bundle != ("s", 0, 2.0)
    nudged = values.astype(np.float32)
    nudged[3] = np.nextafter(nudged[3], np.float32(2.0))
    assert bundle != _bundle(map_tokens=_section(MAP_RECORD, [4], nudged))
    with pytest.raises(TypeError):
        hash(bundle)


def test_bundle_rejects_token_of_wrong_type():
    agents, maps = np.zeros(1, AGENT_RECORD), np.zeros(1, MAP_RECORD)
    with pytest.raises(FormatError):
        _bundle(agent_tokens=maps)
    with pytest.raises(FormatError):
        _bundle(map_tokens=agents)
    with pytest.raises(FormatError):
        _bundle(scene_tokens=agents)
    with pytest.raises(FormatError):
        _bundle(agent_tokens=((1, np.zeros(AGENT_DIM)),))


@pytest.mark.parametrize("bad_id", [1.5, True, -1, 2**64, "3"])
def test_bundle_rejects_id_outside_u64_ints(bad_id):
    # a section whose id column can hold bad_id is not one of u64 ids
    for field, dtype in (("agent_tokens", AGENT_RECORD), ("map_tokens", MAP_RECORD)):
        records = np.zeros(1, [("id", np.asarray(bad_id).dtype), ("values", dtype["values"])])
        records["id"] = bad_id
        with pytest.raises(FormatError):
            _bundle(**{field: records})
    _bundle(agent_tokens=_section(AGENT_RECORD, [2**64 - 1]))


@pytest.mark.parametrize("bad_frame", [-1, 2**32, 2**33, 1.0, False])
def test_bundle_rejects_frame_outside_u32(bad_frame):
    with pytest.raises(FormatError):
        _bundle(frame=bad_frame)
    _bundle(frame=2**32 - 1)


@pytest.mark.parametrize("bad_rate", [1e300, -1e39, float("inf"), float("nan"), "fast", True])
def test_bundle_rejects_frame_rate_not_finite_as_f32(bad_rate):
    with pytest.raises(FormatError):
        _bundle(frame_rate=bad_rate)
    assert _bundle(frame_rate=3.4e38).frame_rate == float(np.float32(3.4e38))


@pytest.mark.parametrize(
    "bad_id",
    ["\ud800", "x" * 65536, "\u00e9" * 32768, b"s", 5],
    ids=["surrogate", "too-long", "too-long-utf8", "bytes", "int"],
)
def test_bundle_rejects_scene_id_the_header_cannot_hold(bad_id):
    with pytest.raises(FormatError):
        _bundle(scene_id=bad_id)
    _bundle(scene_id="x" * 65535)


def _sample_bundle_bytes() -> bytes:
    rng = np.random.default_rng(5)
    bundle = _bundle(
        scene_id="sc\u00e8ne-7",
        frame=3,
        agent_tokens=_section(AGENT_RECORD, [9], rng.standard_normal(AGENT_DIM)),
        map_tokens=_section(MAP_RECORD, [2], rng.standard_normal(MAP_DIM)),
        scene_tokens=rng.standard_normal((1, MAP_DIM)).astype("<f4"),
    )
    buf = io.BytesIO()
    write_bundle(bundle, buf)
    return buf.getvalue()


SAMPLE = _sample_bundle_bytes()
FUZZ = settings(max_examples=300, deadline=None)
# flips land in the header and scene id half the time, in the token body otherwise
FLIP_POS = st.integers(0, HEADER_SIZE + 12) | st.integers(0, len(SAMPLE) - 1)


def test_read_bundle_sections_are_read_only_views():
    bundle = read_bundle(SAMPLE)
    assert (bundle.agent_tokens.dtype, bundle.map_tokens.dtype) == (AGENT_RECORD, MAP_RECORD)
    assert bundle.scene_tokens.shape == (1, MAP_DIM)
    for section in (bundle.agent_tokens, bundle.map_tokens, bundle.scene_tokens):
        assert not section.flags.owndata
        assert not section.flags.writeable


def test_read_bundle_takes_a_memoryview_as_bytes():
    assert read_bundle(memoryview(SAMPLE)) == read_bundle(SAMPLE)
    with pytest.raises(DrivekitError):
        read_bundle(memoryview(b"TOKB" * 10))


def test_read_bundle_rejects_a_source_that_reads_text():
    with pytest.raises(FormatError, match="a bundle source must read bytes, got str"):
        read_bundle(io.StringIO("TOKB" * 10))


def test_non_utf8_scene_id_is_format_error():
    data = bytearray(SAMPLE)
    data[HEADER_SIZE] = 0xFF
    with pytest.raises(FormatError):
        read_bundle(bytes(data))


def _read_raises_only_drivekit_errors(data: bytes) -> None:
    try:
        read_bundle(data)
    except DrivekitError:
        pass


@FUZZ
@given(st.binary(max_size=600) | st.binary(max_size=600).map(lambda b: MAGIC + b"\x01\x00" + b))
def test_read_arbitrary_bytes_raises_only_drivekit_errors(data):
    _read_raises_only_drivekit_errors(data)


@FUZZ
@given(st.integers(0, len(SAMPLE) - 1))
def test_read_truncated_bundle_is_truncated_error(n):
    with pytest.raises(TruncatedError):
        read_bundle(SAMPLE[:n])


@FUZZ
@given(FLIP_POS, st.integers(1, 255))
def test_read_flipped_byte_raises_only_drivekit_errors(pos, mask):
    data = bytearray(SAMPLE)
    data[pos] ^= mask
    _read_raises_only_drivekit_errors(bytes(data))
