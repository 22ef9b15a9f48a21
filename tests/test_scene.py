import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cruising_ego, scene_of, straight_lane, state, track
from drivekit.cli import main
from drivekit.errors import DrivekitError, LengthError, RefError, SchemaError
from drivekit.metrics import headings_xy
from drivekit.scene import (
    STATE_DTYPE,
    TWO_PI,
    AgentCategory,
    AgentState,
    AgentTrack,
    Lane,
    NavigationCommand,
    Pose2,
    ScenarioKind,
    Scene,
    canonical_dumps,
    load_scene,
    load_scene_file,
    save_scene,
    save_scene_file,
    wrap_angle,
    wrap_angles,
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


def _lane(**fields):
    return Lane(**{"id": 1, "centerline": ((0.0, 0.0), (10.0, 0.0)), "half_width": 1.85, **fields})


BAD_CONSTRUCTIONS = {  # each dataclass checks its own fields, built in code or loaded
    "pose_x_str": lambda: Pose2("1", 0.0, 0.0),
    "pose_x_bool": lambda: Pose2(True, 0.0, 0.0),
    "state_valid_int": lambda: state(0.0, 0.0, valid=1),
    "lane_id_str": lambda: _lane(id="x"),
    "lane_successor_str": lambda: _lane(successors=("2",)),
    "lane_centerline_int": lambda: _lane(centerline=5),
    "track_id_str": lambda: AgentTrack(id="7", category=AgentCategory.CAR, states=()),
    "scene_id_int": lambda: scene_of([straight_lane()], [], cruising_ego(4), scene_id=5),
}


@pytest.mark.parametrize("name", sorted(BAD_CONSTRUCTIONS))
def test_constructors_reject_mistyped_fields(name):
    with pytest.raises(SchemaError):
        BAD_CONSTRUCTIONS[name]()


def test_numpy_scalars_construct_as_floats():
    pose = Pose2(np.float32(1.5), np.int64(2), 0.25)
    st = AgentState(pose, np.float32(3.0), (np.int64(4), np.float32(1.5)))
    lane = _lane(centerline=((np.int64(0), np.float32(0.5)), (10, 0.5)), half_width=np.float32(2))
    scene = scene_of([lane], [], [st] * 4, frame_rate=np.int64(2))
    numbers = [pose.x, pose.y, pose.heading, st.speed, *st.box, *lane.centerline[0], lane.half_width]
    assert numbers == [1.5, 2.0, 0.25, 3.0, 4.0, 1.5, 0.0, 0.5, 2.0]
    assert all(type(v) is float for v in numbers + [scene.frame_rate])


def test_load_errors_name_their_location():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["ego"]["states"][3]["speed"] = float("nan")
    with pytest.raises(SchemaError, match=r"^ego state\[3\]: speed must be finite"):
        load_scene(doc)
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["lanes"][0]["successors"] = [True]
    with pytest.raises(SchemaError, match=r"^lane\[0\]: successors must be an integer"):
        load_scene(doc)


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
        lambda d: d.__setitem__("id", "../escaped"),  # ids name output files
        lambda d: d.__setitem__("id", "mi\0ni"),
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


def test_a_scene_that_cannot_be_saved_leaves_the_file_as_it_was(tmp_path):
    scene = load_scene(json.dumps(MINIMAL_DOC))
    path = tmp_path / "mini.json"
    save_scene_file(scene, path)
    before = path.read_bytes()
    object.__setattr__(scene.ego.states[2], "speed", float("nan"))
    with pytest.raises(SchemaError):
        save_scene_file(scene, path)
    assert path.read_bytes() == before


# --------------------------------------------------------------------------
# the scene writer against the document it writes

def _dict_path_save_scene(scene):
    """canonical_dumps of the scene as one nested document: the writer's oracle."""
    def track_doc(tr):
        states = [
            {"x": st.pose.x, "y": st.pose.y, "heading": st.pose.heading, "speed": st.speed,
             "length": st.box[0], "width": st.box[1], "valid": st.valid}
            for st in tr.states
        ]
        return {"id": tr.id, "category": tr.category.value, "states": states}

    lanes = [
        {"id": ln.id, "centerline": [[x, y] for x, y in ln.centerline],
         "half_width": ln.half_width, "left_neighbor": ln.left_neighbor,
         "right_neighbor": ln.right_neighbor, "successors": list(ln.successors),
         "predecessors": list(ln.predecessors), "semantic": ln.semantic.value}
        for ln in scene.lanes
    ]
    return canonical_dumps({
        "id": scene.id,
        "frame_rate_hz": scene.frame_rate,
        "lanes": lanes,
        "agents": [track_doc(tr) for tr in scene.agents],
        "ego": track_doc(scene.ego),
        "nav_commands": [cmd.value for cmd in scene.nav_commands],
        "scenario_tag": scene.scenario_tag.value if scene.scenario_tag else None,
    })


# the extremes of the 9-digit form, then any finite float
edge_float = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308,
    0.12345678912345, -98765.4321012345, 1e-7, 123456789012.0,
])
any_float = st.one_of(edge_float, st.floats(allow_nan=False, allow_infinity=False))
positive_float = st.one_of(
    st.sampled_from([5e-324, 1e308, 4.56789012345]),
    st.floats(min_value=5e-324, allow_infinity=False),
)


def _states(n, may_be_invalid):
    valid = st.builds(
        lambda x, y, h, v, box: AgentState(Pose2(x, y, h), v, box, True),
        any_float, any_float, any_float, any_float, st.tuples(positive_float, positive_float),
    )
    invalid = st.builds(  # an invalid state may carry a zero box
        lambda x, y, h, v, box: AgentState(Pose2(x, y, h), v, box, False),
        any_float, any_float, any_float, any_float,
        st.one_of(st.just((0.0, 0.0)), st.tuples(any_float, any_float)),
    )
    return st.lists(st.one_of(valid, invalid) if may_be_invalid else valid, min_size=n, max_size=n)


@st.composite
def scenes(draw):
    n = draw(st.integers(1, 4))
    ids = draw(st.lists(st.integers(1, 2**70), unique=True, max_size=4))  # empty: no agents
    agents = [
        AgentTrack(i, draw(st.sampled_from(AgentCategory)), draw(_states(n, True))) for i in ids
    ]
    lanes = [
        Lane(i, ((x, 0.0), (x + 10.0, y)), draw(positive_float))
        for i, (x, y) in enumerate(draw(st.lists(st.tuples(any_float, any_float), max_size=2)))
        if x + 10.0 != x or y != 0.0
    ]
    scene_id = draw(st.one_of(
        st.sampled_from(["scène-ü-東京-🚗", "plain", 'quote"back\\slash\ttab']),
        st.text(min_size=1).filter(lambda t: "/" not in t and "\0" not in t),
    ))
    return Scene(
        id=scene_id,
        frame_rate=draw(st.sampled_from([2.0, 4.0, 10.0])),
        lanes=lanes,
        agents=agents,
        ego=AgentTrack(0, draw(st.sampled_from(AgentCategory)), draw(_states(n, False))),
        nav_commands=draw(st.lists(st.sampled_from(NavigationCommand), min_size=n, max_size=n)),
        scenario_tag=draw(st.one_of(st.none(), st.sampled_from(ScenarioKind))),
    )


@settings(max_examples=300, deadline=None)
@given(scenes())
def test_the_writer_matches_the_canonical_dump_of_the_scene_document(scene):
    assert save_scene(scene) == _dict_path_save_scene(scene)


def test_the_writer_covers_every_category_and_the_float_extremes():
    states = [
        AgentState(Pose2(-0.0, 5e-324, 0.0), -1e308, (0.0, 0.0), False),
        AgentState(Pose2(1e308, 0.12345678912345, -0.0), 0.0, (1e308, 5e-324), True),
    ]
    agents = [AgentTrack(i + 1, cat, states) for i, cat in enumerate(AgentCategory)]
    scene = scene_of([straight_lane()], agents, cruising_ego(2), scene_id="scène-東京")
    text = save_scene(scene)
    assert text == _dict_path_save_scene(scene)
    assert '"id":"scène-東京"' in text and '"scenario_tag":null' in text
    invalid = '"heading":0,"length":0,"speed":-1e+308,"valid":false,"width":0,"x":0'
    assert invalid + ',"y":4.94065646e-324}' in text
    assert '"width":4.94065646e-324,"x":1e+308,"y":0.123456789}' in text


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
    assert headings_xy(xy) == [0.0] * 6


def test_headings_quarter_circle_tracks_analytic_tangent():
    # CCW quarter arc of radius 10 sampled at 6 points; the tangent at angle
    # phi is phi + pi/2. Chord headings must sit between consecutive tangents.
    r = 10.0
    phis = np.linspace(-math.pi / 2, 0.0, 6)
    xy = [(r * math.cos(p), r * math.sin(p)) for p in phis]
    headings = headings_xy(xy)
    dphi = phis[1] - phis[0]
    for k in range(5):
        analytic = phis[k] + math.pi / 2  # tangent at segment start
        # chord direction equals tangent at the segment midpoint for a circle
        assert abs(wrap_angle(headings[k] - (analytic + dphi / 2))) < 1e-9
    assert headings[5] == headings[4]
    assert all(b >= a for a, b in zip(headings, headings[1:]))
    assert abs(headings[5] - (math.pi / 2 - dphi / 2)) < 1e-9


def test_headings_degenerate_carries_initial():
    # no segment moves, so every point carries the anchor heading 0
    xy = [(2.0, 3.0), (2.0, 3.0), (2.0, 3.0)]
    assert headings_xy(xy) == [0.0, 0.0, 0.0]


def test_headings_wrapped_and_finite_on_random_paths():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        pts = rng.uniform(-50, 50, size=(n, 2))
        # inject duplicate points to exercise the carry-forward rule
        if n > 3:
            pts[2] = pts[1]
        out = headings_xy(pts)
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


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False)
        | st.sampled_from([math.pi, -math.pi, 1e300, -1e300, 0.0, -0.0])
        | st.integers(-10**6, 10**6).map(lambda k: k * TWO_PI),
        max_size=20,
    )
)
def test_wrap_angles_is_wrap_angle_elementwise(angles):
    wrapped = wrap_angles(np.array(angles, dtype=float)).tolist()
    assert list(map(repr, wrapped)) == [repr(wrap_angle(a)) for a in angles]


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
