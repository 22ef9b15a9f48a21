import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cruising_ego, scene_of, straight_lane, state, track
from drivekit.cli import main
from drivekit.errors import DrivekitError, LengthError, RefError, SchemaError
from drivekit.scene import (
    STATE_DTYPE,
    AgentCategory,
    AgentState,
    AgentTrack,
    Pose2,
    headings_xy,
    load_scene,
    load_scene_file,
    save_scene,
    wrap_angle,
)
from drivekit.synth import synth_scene


MINIMAL_DOC = {
    "id": "mini",
    "frame_rate_hz": 2,
    "lanes": [
        {
            "id": 1,
            "centerline": [[0, 0], [50, 0]],
            "half_width": 1.85,
            "left_neighbor": None,
            "right_neighbor": None,
            "successors": [],
            "predecessors": [],
            "semantic": "NORMAL",
        }
    ],
    "agents": [],
    "ego": {
        "id": 0,
        "category": "CAR",
        "states": [
            {
                "x": float(5 + 4 * k),
                "y": 0.0,
                "heading": 0.0,
                "speed": 8.0,
                "length": 4.5,
                "width": 1.9,
                "valid": True,
            }
            for k in range(6)
        ],
    },
    "nav_commands": ["KEEP_FORWARD"] * 6,
    "scenario_tag": None,
}


def test_minimal_document_loads():
    scene = load_scene(json.dumps(MINIMAL_DOC))
    assert scene.n_frames == 6
    assert len(scene.agents) == 0
    assert scene.lanes[0].half_width == 1.85


def test_dangling_lane_reference_is_ref_error():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["lanes"][0]["left_neighbor"] = 99
    with pytest.raises(RefError):
        load_scene(doc)


def test_frame_length_mismatch_is_length_error():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["nav_commands"] = ["KEEP_FORWARD"] * 5
    with pytest.raises(LengthError):
        load_scene(doc)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.__setitem__("id", 7),
        lambda d: d["ego"].__setitem__("category", "SPACESHIP"),
        lambda d: d["lanes"][0].__setitem__("half_width", -1.0),
        lambda d: d["lanes"][0].__setitem__("centerline", [[0, 0], [0, 0]]),
        lambda d: d["ego"]["states"][0].__setitem__("x", float("nan")),
        lambda d: d["nav_commands"].__setitem__(0, "WARP"),
        lambda d: d.__setitem__("scenario_tag", "MYSTERY"),
    ],
)
def test_malformed_fields_are_schema_errors(mutate):
    doc = json.loads(json.dumps(MINIMAL_DOC))
    mutate(doc)
    with pytest.raises(SchemaError):
        load_scene(doc)


def test_not_json_is_schema_error():
    with pytest.raises(SchemaError):
        load_scene("{nope")


@pytest.mark.parametrize("data", [b"\xff\xfe{}", b'{"id": "\xc3"}', b"[" * 100_000])
def test_bad_utf8_and_too_deep_json_are_schema_errors(data):
    with pytest.raises(SchemaError):
        load_scene(data)


HUGE_INT_MUTATIONS = {  # an int beyond float range where a number goes
    "half_width": lambda d: d["lanes"][0].__setitem__("half_width", 10**400),
    "centerline": lambda d: d["lanes"][0]["centerline"][1].__setitem__(0, 10**400),
    "state_x": lambda d: d["ego"]["states"][0].__setitem__("x", 10**400),
    "frame_rate_hz": lambda d: d.__setitem__("frame_rate_hz", 10**400),
}


@pytest.mark.parametrize("field", sorted(HUGE_INT_MUTATIONS))
def test_integers_beyond_float_range_are_schema_errors(field, tmp_path, capsys):
    doc = json.loads(json.dumps(MINIMAL_DOC))
    HUGE_INT_MUTATIONS[field](doc)
    for document in (doc, json.dumps(doc)):
        with pytest.raises(SchemaError, match="too large for a float"):
            load_scene(document)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc), "utf-8")
    assert main(["validate", str(path)]) == 1
    (line,) = capsys.readouterr().out.strip().split("\n")
    assert json.loads(line)["error"] == "SCHEMA_ERROR"


def test_load_scene_file_bad_utf8_is_schema_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(json.dumps(MINIMAL_DOC).encode().replace(b'"mini"', b'"mi\xffni"'))
    with pytest.raises(SchemaError):
        load_scene_file(path)


SCENE_BYTES = json.dumps(MINIMAL_DOC).encode()


def _flip(pos_value):
    pos, value = pos_value
    return SCENE_BYTES[:pos] + bytes([value]) + SCENE_BYTES[pos + 1 :]


@settings(max_examples=300, deadline=None)
@given(
    st.binary(max_size=400)
    | st.tuples(st.integers(0, len(SCENE_BYTES) - 1), st.integers(0, 255)).map(_flip)
)
def test_arbitrary_bytes_raise_only_drivekit_errors(data):
    try:
        load_scene(data)
    except DrivekitError:
        pass


def test_empty_agents_serialize_explicitly():
    scene = load_scene(json.dumps(MINIMAL_DOC))
    assert '"agents":[]' in save_scene(scene)


def test_save_rejects_non_finite():
    scene = load_scene(json.dumps(MINIMAL_DOC))
    with pytest.raises(SchemaError):
        Pose2(float("inf"), 0.0, 0.0)
    # a hand-built document with a bad float also fails at save time
    from drivekit.scene import canonical_dumps

    with pytest.raises(SchemaError):
        canonical_dumps({"x": float("nan")})
    assert scene is not None


def test_roundtrip_byte_identity_on_canonical_form():
    for kind, seed in [("NOMINAL", 0), ("THREE_POINT_TURN", 1), ("CONSTRUCTION_ZONE", 2)]:
        scene = synth_scene(kind, seed)
        doc = save_scene(scene)
        again = save_scene(load_scene(doc))
        assert again == doc


def test_load_save_identity_on_synth_scenes():
    for kind in ("NOMINAL", "RESUME_FROM_STOP", "OVERTAKE_ONCOMING"):
        scene = synth_scene(kind, 5)
        assert load_scene(save_scene(scene)) == scene


def test_duplicate_agent_ids_rejected():
    ego = cruising_ego(4)
    dup = [track(7, [state(1, 5)] * 4), track(7, [state(9, 5)] * 4)]
    with pytest.raises(SchemaError):
        scene_of([straight_lane()], dup, ego)


def test_invalid_ego_state_rejected():
    ego = cruising_ego(4)
    ego[2] = state(10, 0, valid=False)
    with pytest.raises(SchemaError):
        scene_of([straight_lane()], [], ego)


# --------------------------------------------------------------------------
# heading reconstruction


def test_headings_straight_line_all_zero():
    xy = [(1.0 * (k + 1), 0.0) for k in range(6)]
    assert headings_xy(xy, initial_heading=1.0) == [0.0] * 6


def test_headings_quarter_circle_tracks_analytic_tangent():
    # CCW quarter arc of radius 10 sampled at 6 points; the tangent at angle
    # phi is phi + pi/2. Chord headings must sit between consecutive tangents.
    r = 10.0
    phis = np.linspace(-math.pi / 2, 0.0, 6)
    xy = [(r * math.cos(p), r * math.sin(p)) for p in phis]
    headings = headings_xy(xy, 0.0)
    dphi = phis[1] - phis[0]
    for k in range(5):
        analytic = phis[k] + math.pi / 2  # tangent at segment start
        # chord direction equals tangent at the segment midpoint for a circle
        assert abs(wrap_angle(headings[k] - (analytic + dphi / 2))) < 1e-9
    assert headings[5] == headings[4]
    assert all(b >= a for a, b in zip(headings, headings[1:]))
    assert abs(headings[5] - (math.pi / 2 - dphi / 2)) < 1e-9


def test_headings_degenerate_carries_initial():
    xy = [(2.0, 3.0), (2.0, 3.0), (2.0, 3.0)]
    assert headings_xy(xy, initial_heading=1.0) == [1.0, 1.0, 1.0]


def test_headings_wrapped_and_finite_on_random_paths():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        pts = rng.uniform(-50, 50, size=(n, 2))
        # inject duplicate points to exercise the carry-forward rule
        if n > 3:
            pts[2] = pts[1]
        out = headings_xy(pts, float(rng.uniform(-3, 3)))
        assert len(out) == n
        for h in out:
            assert math.isfinite(h)
            assert -math.pi < h <= math.pi


def test_wrap_angle_range_and_boundary():
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert abs(wrap_angle(3 * math.pi / 2) - (-math.pi / 2)) < 1e-12
    rng = np.random.default_rng(0)
    for a in rng.uniform(-50, 50, 200):
        w = wrap_angle(float(a))
        assert -math.pi < w <= math.pi
        assert abs(math.sin(w - a)) < 1e-9


def test_validation_total_over_fuzzed_documents():
    # arbitrary structural damage must map to a toolkit error, never a crash
    import random as _random

    from drivekit.errors import DrivekitError

    rng = _random.Random(13)
    junk = [None, True, -1, 0.5, "x", [], {}, [[1]], float("nan")]

    def damage(node, depth=0):
        if rng.random() < 0.25:
            return rng.choice(junk)
        if isinstance(node, dict):
            out = {}
            for k, v in node.items():
                if rng.random() < 0.12:
                    continue  # drop a key
                out[k] = damage(v, depth + 1)
            return out
        if isinstance(node, list):
            return [damage(v, depth + 1) for v in node]
        return node

    base = json.loads(json.dumps(MINIMAL_DOC))
    survived = 0
    for _ in range(300):
        doc = damage(json.loads(json.dumps(base)))
        try:
            load_scene(doc)
            survived += 1
        except DrivekitError:
            pass
    assert survived < 300  # most mutations must be rejected


def test_negative_ids_rejected():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["lanes"][0]["id"] = -3
    with pytest.raises(SchemaError):
        load_scene(doc)
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["ego"]["id"] = -1
    with pytest.raises(SchemaError):
        load_scene(doc)


def test_optional_keys_default():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    del doc["frame_rate_hz"]
    del doc["scenario_tag"]
    scene = load_scene(doc)
    assert scene.frame_rate == 2.0
    assert scene.scenario_tag is None


# --------------------------------------------------------------------------
# array views of agent states

finite = st.floats(-1e6, 1e6, allow_nan=False)
extent = st.floats(0.1, 20.0, allow_nan=False)
agent_state = st.builds(
    lambda x, y, h, v, box, valid: AgentState(Pose2(x, y, h), v, box, valid),
    finite, finite, st.floats(-20.0, 20.0, allow_nan=False), finite,
    st.tuples(extent, extent), st.booleans(),
)


def _expected_fields(states):
    return {
        "xy": np.array([(s.pose.x, s.pose.y) for s in states], dtype=float),
        "heading": np.array([s.pose.heading for s in states], dtype=float),
        "speed": np.array([s.speed for s in states], dtype=float),
        "box": np.array([s.box for s in states], dtype=float),
        "valid": np.array([s.valid for s in states], dtype=bool),
    }


@settings(max_examples=100, deadline=None)
@given(st.lists(agent_state, min_size=1, max_size=12))
def test_track_arrays_hold_the_state_values_bit_for_bit(states):
    arr = AgentTrack(id=3, category=AgentCategory.CAR, states=states).arrays
    assert arr.dtype == STATE_DTYPE and arr.shape == (len(states),)
    for name, expected in _expected_fields(states).items():
        assert np.ascontiguousarray(arr[name]).tobytes() == expected.tobytes(), name


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.lists(
    st.lists(agent_state, min_size=n, max_size=n), min_size=1, max_size=4)))
def test_scene_agent_arrays_stack_the_track_arrays(tracks):
    n = len(tracks[0])
    agents = [track(10 + i, states) for i, states in enumerate(tracks)]
    scene = scene_of([straight_lane()], agents, cruising_ego(n))
    assert scene.agent_arrays.shape == (len(agents), n)
    for i, tr in enumerate(scene.agents):
        assert scene.agent_arrays[i].tobytes() == tr.arrays.tobytes()
    assert scene.agent_arrays is scene.agent_arrays  # built once


def test_array_views_are_read_only():
    scene = synth_scene("OVERTAKE_ONCOMING", 2)
    for arr in (scene.ego.arrays, scene.agents[0].arrays, scene.agent_arrays):
        with pytest.raises(ValueError):
            arr["speed"][0] = 1.0
        with pytest.raises(ValueError):
            arr[0] = arr[-1]


def test_agent_free_scene_has_empty_agent_arrays():
    scene = scene_of([straight_lane()], [], cruising_ego(5))
    assert scene.agent_arrays.shape == (0, 5)
    assert scene.agent_arrays.dtype == STATE_DTYPE
