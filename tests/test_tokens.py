import hashlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cruising_ego, scene_of, state, straight_lane, track
from drivekit.errors import (
    DrivekitError,
    FormatError,
    LengthError,
    MagicError,
    TruncatedError,
    VersionError,
)
from drivekit.scene import AgentCategory, LaneSemantic
from drivekit.tokens import (
    AGENT_DIM,
    HEADER_SIZE,
    MAGIC,
    MAP_DIM,
    AgentToken,
    MapToken,
    MotionToken,
    TokenBundle,
    TrackToken,
    concat_agent_token,
    fixture_decode,
    fixture_encode,
    read_bundle,
    write_bundle,
)
from drivekit.synth import synth_scene


def test_concat_track_then_motion():
    token = concat_agent_token(TrackToken([0.0] * 256), MotionToken([1.0] * 256))
    assert np.array_equal(token.values[:256], [0.0] * 256)
    assert np.array_equal(token.values[256:], [1.0] * 256)


def test_concat_wrong_lengths():
    with pytest.raises(LengthError):
        TrackToken([0.0] * 255)
    with pytest.raises(LengthError):
        MotionToken([0.0] * 257)


def test_concat_preserves_slices_exactly():
    rng = np.random.default_rng(1)
    a = TrackToken(rng.standard_normal(256).astype(np.float32))
    b = MotionToken(rng.standard_normal(256).astype(np.float32))
    token = concat_agent_token(a, b)
    assert np.array_equal(token.track, a.values)
    assert np.array_equal(token.motion, b.values)


def test_non_finite_rejected():
    bad = [0.0] * 256
    bad[7] = float("inf")
    with pytest.raises(FormatError):
        TrackToken(bad)


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
    bundle = TokenBundle(
        scene_id="x", frame=0, frame_rate=2.0, agent_tokens=((1, AgentToken(values)),), map_tokens=()
    )
    with pytest.raises(FormatError):
        fixture_decode(bundle)


def random_bundle(rng) -> TokenBundle:
    n_agents = int(rng.integers(0, 4))
    n_maps = int(rng.integers(0, 3))
    n_scene = int(rng.integers(0, 2))
    return TokenBundle(
        scene_id="s" + str(rng.integers(0, 10_000)),
        frame=int(rng.integers(0, 40)),
        frame_rate=2.0,
        agent_tokens=tuple(
            (int(i), AgentToken(rng.standard_normal(AGENT_DIM).astype(np.float32)))
            for i in rng.choice(1000, size=n_agents, replace=False)
        ),
        map_tokens=tuple(
            (int(i), MapToken(rng.standard_normal(MAP_DIM).astype(np.float32)))
            for i in rng.choice(1000, size=n_maps, replace=False)
        ),
        scene_tokens=tuple(
            MapToken(rng.standard_normal(MAP_DIM).astype(np.float32))
            for _ in range(n_scene)
        ),
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
    bundle = TokenBundle(scene_id="", frame=0, frame_rate=2.0, agent_tokens=(), map_tokens=())
    buf = io.BytesIO()
    write_bundle(bundle, buf)
    assert len(buf.getvalue()) == HEADER_SIZE == 28
    assert read_bundle(buf.getvalue()) == bundle


def test_corrupted_magic():
    bundle = TokenBundle(scene_id="s", frame=0, frame_rate=2.0, agent_tokens=(), map_tokens=())
    buf = io.BytesIO()
    write_bundle(bundle, buf)
    data = bytearray(buf.getvalue())
    data[0:4] = b"NOPE"
    with pytest.raises(MagicError):
        read_bundle(bytes(data))


def test_unsupported_version():
    bundle = TokenBundle(scene_id="s", frame=0, frame_rate=2.0, agent_tokens=(), map_tokens=())
    buf = io.BytesIO()
    write_bundle(bundle, buf)
    data = bytearray(buf.getvalue())
    data[4:6] = (99).to_bytes(2, "little")
    with pytest.raises(VersionError):
        read_bundle(bytes(data))


def test_truncated_payload():
    rng = np.random.default_rng(0)
    bundle = random_bundle(rng)
    while not bundle.agent_tokens:
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


def test_duplicate_ids_rejected():
    token = AgentToken(np.zeros(AGENT_DIM))
    with pytest.raises(FormatError):
        TokenBundle(
            scene_id="s",
            frame=0,
            frame_rate=2.0,
            agent_tokens=((1, token), (1, token)),
            map_tokens=(),
        )


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
    token = bundle.agent_tokens[0][1]
    assert token.values.dtype == np.dtype("<f4")
    with pytest.raises(ValueError):
        token.values[0] = 1.0
    with pytest.raises(ValueError):
        token.track[0] = 1.0


def test_token_equality_is_exact_and_typed():
    values = np.linspace(-1.0, 1.0, 256)
    assert TrackToken(values) == TrackToken(values.astype(np.float32))
    assert TrackToken(values) != MapToken(values)
    nudged = values.astype(np.float32)
    nudged[3] = np.nextafter(nudged[3], np.float32(2.0))
    assert TrackToken(values) != TrackToken(nudged)
    with pytest.raises(TypeError):
        hash(TrackToken(values))


def _bundle(**changes) -> TokenBundle:
    fields = dict(scene_id="s", frame=0, frame_rate=2.0, agent_tokens=(), map_tokens=())
    fields.update(changes)
    return TokenBundle(**fields)


def test_bundle_rejects_token_of_wrong_type():
    agent, lane = AgentToken(np.zeros(AGENT_DIM)), MapToken(np.zeros(MAP_DIM))
    with pytest.raises(FormatError):
        _bundle(agent_tokens=((1, lane),))
    with pytest.raises(FormatError):
        _bundle(map_tokens=((1, agent),))
    with pytest.raises(FormatError):
        _bundle(scene_tokens=(agent,))


@pytest.mark.parametrize("bad_id", [1.5, True, -1, 2**64, "3"])
def test_bundle_rejects_id_outside_u64_ints(bad_id):
    with pytest.raises(FormatError):
        _bundle(agent_tokens=((bad_id, AgentToken(np.zeros(AGENT_DIM))),))
    with pytest.raises(FormatError):
        _bundle(map_tokens=((bad_id, MapToken(np.zeros(MAP_DIM))),))
    _bundle(agent_tokens=((2**64 - 1, AgentToken(np.zeros(AGENT_DIM))),))


@pytest.mark.parametrize("bad_frame", [-1, 2**32, 2**33, 1.0, False])
def test_bundle_rejects_frame_outside_u32(bad_frame):
    with pytest.raises(FormatError):
        _bundle(frame=bad_frame)
    _bundle(frame=2**32 - 1)


@pytest.mark.parametrize("bad_rate", [1e300, -1e39, float("inf"), float("nan"), "fast"])
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
        agent_tokens=((9, AgentToken(rng.standard_normal(AGENT_DIM))),),
        map_tokens=((2, MapToken(rng.standard_normal(MAP_DIM))),),
        scene_tokens=(MapToken(rng.standard_normal(MAP_DIM)),),
    )
    buf = io.BytesIO()
    write_bundle(bundle, buf)
    return buf.getvalue()


SAMPLE = _sample_bundle_bytes()
FUZZ = settings(max_examples=300, deadline=None)
# flips land in the header and scene id half the time, in the token body otherwise
FLIP_POS = st.integers(0, HEADER_SIZE + 12) | st.integers(0, len(SAMPLE) - 1)


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
