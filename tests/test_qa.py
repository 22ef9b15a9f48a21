import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cruising_ego, scene_of, state, straight_lane, track
from drivekit.errors import FormatError, InsufficientFutureError, SchemaError
from drivekit.interactions import critical_objects, label_interactions
from drivekit.qa import (
    QATask,
    gen_perception_qas,
    gen_planning_qas,
    gen_reasoning_qas,
    load_templates,
    parse_answer,
    render_answer,
)
from drivekit.relations import EgoLaneDecision, LaneMode, compute_relations
from drivekit.scene import AgentCategory
from drivekit.synth import synth_scene


@pytest.fixture(scope="module")
def templates():
    return load_templates()


def two_lane_scene(agents, n=12):
    lanes = [straight_lane(1, left=2, length=120.0), straight_lane(2, y=3.7, right=1, length=120.0)]
    return scene_of(lanes, agents, cruising_ego(n, speed=8.0, x0=0.0))


def pipeline(scene, config):
    rel = compute_relations(scene, config)
    labels = label_interactions(scene, rel, config)
    crits = critical_objects(scene, labels, 0, config)
    return rel, labels, crits


def test_single_car_yields_classification_and_lane_qas(config, templates):
    # car 10 m ahead, 2 m left: associates with the left lane and sits inside
    # the dilated ego corridor, so it is critical and always selected
    car = track(5, [state(10.0, 2.0, 0.0, 0.0, (4.5, 1.8))] * 12)
    scene = two_lane_scene([car])
    rel, labels, crits = pipeline(scene, config)
    records = gen_perception_qas(scene, 0, rel, crits, config, templates)
    assert [r.task for r in records] == [
        QATask.PERCEPTION_OBJECT,
        QATask.PERCEPTION_LANE_ASSOC,
    ]
    assert records[0].structured == {"category": "CAR"}
    assert records[1].structured == {"lane_mode": "LEFT"}
    assert "(10.0, 2.0)" in records[0].question


def test_empty_scene_yields_no_perception_qas(config, templates):
    scene = two_lane_scene([])
    rel, labels, crits = pipeline(scene, config)
    assert gen_perception_qas(scene, 0, rel, crits, config, templates) == []


def test_noton_pedestrian_gets_classification_only(config, templates):
    car = track(5, [state(10.0, 2.0, 0.0, 0.0, (4.5, 1.8))] * 12)
    ped = track(
        6,
        [state(10.0, 12.0, 0.0, 0.0, (0.6, 0.6))] * 12,
        category=AgentCategory.PEDESTRIAN,
    )
    scene = two_lane_scene([car, ped])
    rel, labels, crits = pipeline(scene, config)
    records = gen_perception_qas(scene, 0, rel, crits, config, templates)
    by_agent = {}
    for r in records:
        agent = r.id.rsplit(":", 1)[1]
        by_agent.setdefault(agent, []).append(r.task)
    assert by_agent["5"] == [QATask.PERCEPTION_OBJECT, QATask.PERCEPTION_LANE_ASSOC]
    assert by_agent["6"] == [QATask.PERCEPTION_OBJECT]  # no lane, no lane QA


def test_reasoning_counts_with_balanced_sample(config, templates):
    critical = [
        track(1, [state(8.0, 0.0, 0.0, 0.0, (4.5, 1.8))] * 12),
        track(2, [state(16.0, 1.0, 0.0, 0.0, (4.5, 1.8))] * 12),
    ]
    far = [
        track(3, [state(30.0, 14.0, 0.0, 0.0, (4.5, 1.8))] * 12),
        track(4, [state(50.0, -14.0, 0.0, 0.0, (4.5, 1.8))] * 12),
    ]
    scene = two_lane_scene(critical + far)
    rel, labels, crits = pipeline(scene, config)
    assert sum(c.critical for c in crits) == 2
    records = gen_reasoning_qas(scene, 0, rel, labels, crits, config, templates)
    assert len(records) == 5  # 4 object-level + 1 scene-level grounding
    assert sum(r.task is QATask.REASONING_OBJECT for r in records) == 4
    assert sum(r.task is QATask.REASONING_GROUNDING for r in records) == 1


def test_grounding_answer_none_without_criticals(config, templates):
    far = track(3, [state(30.0, 14.0, 0.0, 0.0, (4.5, 1.8))] * 12)
    scene = two_lane_scene([far])
    rel, labels, crits = pipeline(scene, config)
    records = gen_reasoning_qas(scene, 0, rel, labels, crits, config, templates)
    grounding = [r for r in records if r.task is QATask.REASONING_GROUNDING]
    assert len(grounding) == 1
    assert grounding[0].structured == {"objects": []}
    assert "none" in grounding[0].answer


def test_bypass_reason_references_blocking(config, templates):
    scene = synth_scene("CONSTRUCTION_ZONE", 1)
    rel = compute_relations(scene, config)
    labels = label_interactions(scene, rel, config)
    frame = labels[0].frame_span[0] + 2
    crits = critical_objects(scene, labels, frame, config)
    records = gen_reasoning_qas(scene, frame, rel, labels, crits, config, templates)
    cone_records = [
        r
        for r in records
        if r.task is QATask.REASONING_OBJECT and r.structured.get("kind") == "BYPASS_CONES"
    ]
    assert cone_records
    assert "blocking" in cone_records[0].answer


def test_planning_record_has_six_waypoints(config, templates):
    scene = synth_scene("OVERTAKE_ONCOMING", 5)
    rel = compute_relations(scene, config)
    labels = label_interactions(scene, rel, config)
    frame = 4
    crits = critical_objects(scene, labels, frame, config)
    record = gen_planning_qas(scene, frame, rel, labels, crits, config, templates)
    assert len(record.structured["waypoints"]) == 6
    assert record.structured["critical_objects"]
    assert record.answer.count("(") >= 6
    assert "keep forward" in record.question


def test_planning_near_scene_end_raises(config, templates):
    scene = synth_scene("NOMINAL", 1)
    rel = compute_relations(scene, config)
    frame = scene.n_frames - 2
    crits = critical_objects(scene, [], frame, config)
    with pytest.raises(InsufficientFutureError):
        gen_planning_qas(scene, frame, rel, [], crits, config, templates)


def test_planning_stationary_ego_origin_waypoints(config, templates):
    lanes = [straight_lane(1, length=120.0)]
    ego = [state(40.0, 0.0, 0.0, 0.0) for _ in range(10)]
    scene = scene_of(lanes, [], ego)
    rel = compute_relations(scene, config)
    crits = critical_objects(scene, [], 0, config)
    record = gen_planning_qas(scene, 0, rel, [], crits, config, templates)
    assert record.structured["waypoints"] == [[0.0, 0.0]] * 6


def test_planning_lane_decision_reflects_upcoming_change(config, templates):
    scene = synth_scene("OVERTAKE_ONCOMING", 3, {"pass_side": "right", "with_oncoming": False})
    rel = compute_relations(scene, config)
    labels = label_interactions(scene, rel, config)
    from drivekit.relations import EgoLaneDecision

    switch = rel.ego_decisions.index(EgoLaneDecision.RIGHT_LANE_CHANGE)
    frame = max(0, switch - 3)
    crits = critical_objects(scene, labels, frame, config)
    record = gen_planning_qas(scene, frame, rel, labels, crits, config, templates)
    assert record.structured["lane_decision"] == "RIGHT_LANE_CHANGE"
    assert "right lane change" in record.answer


# --------------------------------------------------------------------------
# template round trips and determinism


def all_records_for(scene, config, templates):
    rel = compute_relations(scene, config)
    labels = label_interactions(scene, rel, config)
    from drivekit.metrics import future_complete

    records = []
    for frame in range(scene.n_frames):
        crits = critical_objects(scene, labels, frame, config)
        records += gen_perception_qas(scene, frame, rel, crits, config, templates)
        records += gen_reasoning_qas(scene, frame, rel, labels, crits, config, templates)
        if future_complete(scene.ego, frame, scene.frame_rate):
            records.append(
                gen_planning_qas(scene, frame, rel, labels, crits, config, templates)
            )
    return records


@pytest.mark.parametrize("kind,seed", [
    ("CONSTRUCTION_ZONE", 2),
    ("OVERTAKE_ONCOMING", 2),
    ("RESUME_FROM_STOP", 2),
    ("NOMINAL", 2),
])
def test_every_answer_round_trips(config, templates, kind, seed):
    scene = synth_scene(kind, seed)
    records = all_records_for(scene, config, templates)
    assert records
    for record in records:
        parsed = parse_answer(record.task, record.answer, templates)
        assert parsed == record.structured, record.answer


def test_render_parse_rejects_garbage(templates):
    with pytest.raises(FormatError):
        parse_answer(QATask.PLANNING, "gibberish", templates)


def test_generation_is_byte_deterministic(config, templates):
    scene = synth_scene("CONSTRUCTION_ZONE", 6)
    a = all_records_for(scene, config, templates)
    b = all_records_for(scene, config, templates)
    dump = lambda rs: json.dumps([r.to_dict() for r in rs], sort_keys=True)  # noqa: E731
    assert dump(a) == dump(b)


def test_distractor_sampling_seeded_by_config(config, templates):
    far = [
        track(3, [state(30.0, 14.0, 0.0, 0.0, (4.5, 1.8))] * 12),
        track(4, [state(50.0, -14.0, 0.0, 0.0, (4.5, 1.8))] * 12),
        track(7, [state(70.0, 14.0, 0.0, 0.0, (4.5, 1.8))] * 12),
    ]
    near = track(1, [state(8.0, 0.0, 0.0, 0.0, (4.5, 1.8))] * 12)
    scene = two_lane_scene([near] + far)
    rel, labels, crits = pipeline(scene, config)
    a = gen_reasoning_qas(scene, 0, rel, labels, crits, config, templates)
    b = gen_reasoning_qas(scene, 0, rel, labels, crits, config, templates)
    assert [r.id for r in a] == [r.id for r in b]
    other = gen_reasoning_qas(
        scene, 0, rel, labels, crits, config.replace(seed=123456), templates
    )
    assert len(other) == len(a)  # same balance either way: 1 critical + 1 sampled


def test_custom_template_file_is_honored(config, tmp_path):
    templates = load_templates()
    templates["PERCEPTION_OBJECT"]["answer"] = "Object category: {category}."
    path = tmp_path / "templates.json"
    path.write_text(json.dumps(templates), "utf-8")
    loaded = load_templates(path)
    payload = {"category": "TRUCK"}
    text = render_answer(QATask.PERCEPTION_OBJECT, payload, loaded)
    assert text == "Object category: truck."
    assert parse_answer(QATask.PERCEPTION_OBJECT, text, loaded) == payload


@pytest.mark.parametrize("template", ["It is an object.", "It is a {category} {category}."])
def test_answer_template_without_each_field_once_is_rejected(tmp_path, template):
    templates = load_templates()
    templates["PERCEPTION_OBJECT"]["answer"] = template
    path = tmp_path / "templates.json"
    path.write_text(json.dumps(templates), "utf-8")
    with pytest.raises(SchemaError, match="PERCEPTION_OBJECT answer"):
        load_templates(path)


@pytest.mark.parametrize(
    "task, question",
    [
        ("PERCEPTION_OBJECT", "Where is {foo}?"),
        ("REASONING_GROUNDING", "Which objects near ({x}, {y}) matter?"),
        ("PLANNING", "What is the object at ({x}, {y})?"),
    ],
)
def test_question_template_with_unfilled_field_is_rejected(tmp_path, task, question):
    templates = load_templates()
    templates[task]["question"] = question
    path = tmp_path / "templates.json"
    path.write_text(json.dumps(templates), "utf-8")
    with pytest.raises(SchemaError, match=f"{task} question"):
        load_templates(path)


@pytest.mark.parametrize(
    "task, text",
    [
        (QATask.REASONING_OBJECT, "Yes: because."),
        (QATask.PERCEPTION_OBJECT, "It is a spaceship."),
        (QATask.REASONING_GROUNDING, "Critical objects: a unicorn at (1.0, 2.0)."),
        (
            QATask.PLANNING,
            "Critical objects: none. Behavior: none; lane decision: fly. Motion plan: "
            + ", ".join(["(0.0, 0.0)"] * 6)
            + ".",
        ),
    ],
)
def test_unknown_phrase_is_a_format_error(templates, task, text):
    with pytest.raises(FormatError):
        parse_answer(task, text, templates)


@pytest.mark.parametrize(
    "objects",
    [f"a car at ({n}, 2.0)." for n in ["01.0", "\u0663.\u0663", "-0.0", "+1.0", "1.00"]]
    + ["a car at (1.0, 2.0).\n"],
)
def test_text_no_render_produces_is_a_format_error(templates, objects):
    # only quant1's canonical text, with nothing after the answer, parses
    with pytest.raises(FormatError):
        parse_answer(QATask.REASONING_GROUNDING, "Critical objects: " + objects, templates)


# --------------------------------------------------------------------------
# the answer grammar as a property

CATEGORIES = [c.value for c in AgentCategory]
COORD = st.integers(-9999, 9999).map(lambda n: n / 10)
OBJECTS = st.lists(
    st.fixed_dictionaries({"category": st.sampled_from(CATEGORIES), "x": COORD, "y": COORD}),
    max_size=4,
)
SIDED_PLAN = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(["BYPASS_CONES", "OVERTAKE_LANE_CHANGE", "OVERTAKE_STRADDLE"]),
        "side": st.sampled_from(["LEFT", "RIGHT"]),
        "category": st.sampled_from(CATEGORIES),
    }
)
YIELD_PLAN = st.sampled_from(CATEGORIES).map(
    lambda c: {
        "kind": "YIELD_TO_PEDESTRIAN" if c == "PEDESTRIAN" else "YIELD_TO_VEHICLE",
        "side": None,
        "category": c,
    }
)
REASONS = [
    ("HAS_INTERACTION", kind)
    for kind in [
        "BYPASS_CONES",
        "YIELD_TO_PEDESTRIAN",
        "YIELD_TO_VEHICLE",
        "OVERTAKE_STRADDLE",
        "OVERTAKE_LANE_CHANGE",
    ]
] + [("IN_EGO_CORRIDOR", None), ("NONE", None)]
PAYLOADS = {
    QATask.PERCEPTION_OBJECT: st.fixed_dictionaries({"category": st.sampled_from(CATEGORIES)}),
    QATask.PERCEPTION_LANE_ASSOC: st.fixed_dictionaries(
        {"lane_mode": st.sampled_from([m.value for m in LaneMode])}
    ),
    QATask.REASONING_OBJECT: st.tuples(st.booleans(), st.sampled_from(REASONS)).map(
        lambda t: {"critical": t[0], "reason": t[1][0], "kind": t[1][1]}
    ),
    QATask.REASONING_GROUNDING: st.fixed_dictionaries({"objects": OBJECTS}),
    QATask.PLANNING: st.fixed_dictionaries(
        {
            "critical_objects": OBJECTS,
            "plans": st.lists(SIDED_PLAN | YIELD_PLAN, max_size=3),
            "lane_decision": st.sampled_from([d.value for d in EgoLaneDecision]),
            "waypoints": st.lists(st.lists(COORD, min_size=2, max_size=2), min_size=6, max_size=6),
        }
    ),
}


@settings(max_examples=300, deadline=None)
@given(data=st.data(), task=st.sampled_from(list(QATask)))
def test_every_valid_payload_round_trips(templates, data, task):
    payload = data.draw(PAYLOADS[task])
    assert parse_answer(task, render_answer(task, payload, templates), templates) == payload


# arbitrary text in each slot of the answer grammar: a category, a side, a
# lane mode, a verdict, a reason, a lane decision, a number, an object, a plan
PHRASE = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["car", "traffic cone", "left", "LEFT", "Yes", "none", "keep lane", "1.0"]),
)
OBJECT_TEXT = st.builds("a {} at ({}, {})".format, PHRASE, PHRASE, PHRASE)
PLAN_TEXT = st.one_of(
    st.builds("bypass the {} on the {}".format, PHRASE, PHRASE),
    st.builds("overtake the {} via lane change on the {}".format, PHRASE, PHRASE),
    st.builds("yield to the {}".format, PHRASE),
    PHRASE,
)
LIST_TEXT = lambda item: st.lists(item, max_size=3).map("; ".join)  # noqa: E731
ANSWER_TEXT = {
    QATask.PERCEPTION_OBJECT: st.builds("It is a {}.".format, PHRASE),
    QATask.PERCEPTION_LANE_ASSOC: st.builds("{}, relative to the ego lane.".format, PHRASE),
    QATask.REASONING_OBJECT: st.builds("{}: {}.".format, PHRASE, PHRASE),
    QATask.REASONING_GROUNDING: st.builds("Critical objects: {}.".format, LIST_TEXT(OBJECT_TEXT)),
    QATask.PLANNING: st.builds(
        "Critical objects: {}. Behavior: {}; lane decision: {}. Motion plan: {}.".format,
        LIST_TEXT(OBJECT_TEXT),
        LIST_TEXT(PLAN_TEXT),
        PHRASE,
        st.lists(st.builds("({}, {})".format, PHRASE, PHRASE), max_size=7).map(", ".join),
    ),
}


@settings(max_examples=500, deadline=None)
@given(data=st.data(), task=st.sampled_from(list(QATask)))
def test_answer_shaped_text_raises_only_format_error(templates, data, task):
    text = data.draw(ANSWER_TEXT[task])
    try:
        parse_answer(task, text, templates)
    except FormatError:
        pass
