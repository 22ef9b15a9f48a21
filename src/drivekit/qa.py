"""QA corpus generation: perception, behavior reasoning, and 3-step
chain-of-thought planning records from labeled scenes.

Question/answer phrasing lives in an external template file keyed by task;
placeholders use ``{field}`` syntax. Every phrase inside an answer (an
object, an interaction plan, a waypoint, and the text of each category,
side, reason or lane decision) is written once in the tables below, and one
template compiler both renders and parses them. Rendering is mechanical and
bijective: ``parse_answer(task, render_answer(task, payload)) == payload`` for
every record, ``parse_answer`` raises only ``FormatError``, and all
coordinates are fixed at 1 decimal so corpora are byte-deterministic.
"""
from __future__ import annotations

import enum
import functools
import re
from dataclasses import dataclass
from importlib import resources
from typing import List, Optional

from .config import Config, seeded_rng
from .errors import FormatError, SchemaError, parse_json, read_text
from .geometry import to_frame
from .interactions import Criticality, CriticalReason, InteractionLabel, Side, yield_kind
from .planners import ego_future_waypoints
from .relations import EgoLaneDecision, LaneMode, RelationOutputs
from .scene import PLAN_STEPS, AgentCategory, NavigationCommand, Scene


class QATask(enum.Enum):
    PERCEPTION_OBJECT = "PERCEPTION_OBJECT"
    PERCEPTION_LANE_ASSOC = "PERCEPTION_LANE_ASSOC"
    REASONING_OBJECT = "REASONING_OBJECT"
    REASONING_GROUNDING = "REASONING_GROUNDING"
    PLANNING = "PLANNING"


@dataclass(frozen=True)
class QARecord:
    id: str
    scene_id: str
    frame: int
    task: QATask
    question: str
    answer: str
    structured: dict

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "scene_id": self.scene_id,
            "frame": self.frame,
            "task": self.task.value,
            "question": self.question,
            "answer": self.answer,
            "structured": self.structured,
        }


# --------------------------------------------------------------------------
# templates

_PLACEHOLDER = re.compile(r"\{(\w+)\}")

# per task: the placeholders its question may use, and the ones its answer
# holds, each once
_TEMPLATE_FIELDS = {
    QATask.PERCEPTION_OBJECT: ({"x", "y"}, ["category"]),
    QATask.PERCEPTION_LANE_ASSOC: ({"x", "y"}, ["lane_mode"]),
    QATask.REASONING_OBJECT: ({"x", "y"}, ["reason_text", "verdict"]),
    QATask.REASONING_GROUNDING: (set(), ["objects"]),
    QATask.PLANNING: (
        {"nav_command"},
        ["critical_objects", "lane_decision", "plans", "waypoints"],
    ),
}


def _names(fields) -> str:
    return ", ".join(f"{{{name}}}" for name in sorted(fields)) or "no placeholder"


def load_templates(path=None) -> dict:
    """Per task, string 'question' and 'answer' templates from `path` or the
    packaged file. The answer holds each of the task's answer fields once,
    and the question uses only fields the task fills."""
    if path is None:
        path = resources.files("drivekit").joinpath("data/templates.json")
    templates = parse_json(read_text(path), SchemaError, path)
    if not isinstance(templates, dict):
        raise SchemaError(f"{path}: template file must hold a JSON object")
    for task, (asked, answered) in _TEMPLATE_FIELDS.items():
        entry = templates.get(task.value)
        if not isinstance(entry, dict) or not all(
            isinstance(entry.get(key), str) for key in ("question", "answer")
        ):
            raise SchemaError(f"{path}: {task.value} needs string 'question' and 'answer'")
        if not set(_PLACEHOLDER.findall(entry["question"])) <= asked:
            raise SchemaError(f"{path}: {task.value} question may use only {_names(asked)}")
        if sorted(_PLACEHOLDER.findall(entry["answer"])) != answered:
            raise SchemaError(
                f"{path}: {task.value} answer must hold {_names(answered)} once each"
            )
    return templates


def quant1(v: float) -> float:
    """Quantize to the canonical 1-decimal text representation."""
    q = float(f"{float(v):.1f}")
    return 0.0 if q == 0.0 else q


def _fmt1(v: float) -> str:
    return f"{quant1(v):.1f}"


_REASON_TEXT = {
    ("HAS_INTERACTION", "BYPASS_CONES"): "it is blocking the ego vehicle's lane",
    ("HAS_INTERACTION", "YIELD_TO_PEDESTRIAN"):
        "the ego vehicle is yielding to it while it crosses",
    ("HAS_INTERACTION", "YIELD_TO_VEHICLE"): "the ego vehicle is yielding to it in traffic",
    ("HAS_INTERACTION", "OVERTAKE_STRADDLE"):
        "the ego vehicle is overtaking it by straddling the divider",
    ("HAS_INTERACTION", "OVERTAKE_LANE_CHANGE"):
        "the ego vehicle is overtaking it via a lane change",
    ("IN_EGO_CORRIDOR", None): "it lies in the ego vehicle's planned corridor",
    ("NONE", None): "it does not affect the ego vehicle's plan",
}

_DECISION_TEXT = {
    "KEEP_LANE": "keep lane",
    "LEFT_LANE_CHANGE": "left lane change",
    "RIGHT_LANE_CHANGE": "right lane change",
    "STRADDLE": "straddle",
}

NAV_COMMAND_TEXT = {
    NavigationCommand.KEEP_FORWARD: "keep forward",
    NavigationCommand.PREPARE_TURN_LEFT: "prepare to turn left",
    NavigationCommand.PREPARE_TURN_RIGHT: "prepare to turn right",
    NavigationCommand.TURN_LEFT: "turn left",
    NavigationCommand.TURN_RIGHT: "turn right",
    NavigationCommand.U_TURN_LEFT: "left u-turn",
    NavigationCommand.U_TURN_RIGHT: "right u-turn",
    NavigationCommand.THREE_POINT_TURN_LEFT: "left 3-point turn",
    NavigationCommand.THREE_POINT_TURN_RIGHT: "right 3-point turn",
}

# the text of each value a table placeholder takes
_TEXTS = {
    "category": {c.value: c.value.lower().replace("_", " ") for c in AgentCategory},
    "side": {s.value: s.value.lower() for s in Side},
    "lane_mode": {m.value: m.value for m in LaneMode},
    "verdict": {True: "Yes", False: "No"},
    "reason_text": _REASON_TEXT,
    "lane_decision": _DECISION_TEXT,
    "nav_command": NAV_COMMAND_TEXT,
}

_OBJECT = "a {category} at ({x}, {y})"
_WAYPOINT = "({x}, {y})"
_WAYPOINTS = ", ".join([_WAYPOINT] * PLAN_STEPS)
# interaction plan phrase per kind; a yield's kind follows the category
_YIELD = "yield to the {category}"
_PLANS = {
    "BYPASS_CONES": "bypass the {category} on the {side}",
    "OVERTAKE_LANE_CHANGE": "overtake the {category} via lane change on the {side}",
    "OVERTAKE_STRADDLE": "overtake the {category} by straddling on the {side}",
    "YIELD_TO_PEDESTRIAN": _YIELD,
    "YIELD_TO_VEHICLE": _YIELD,
}


def _value(name: str, text: str):
    """The value whose text in the `name` table is `text`."""
    for value, phrase in _TEXTS[name].items():
        if phrase == text:
            return value
    raise FormatError(f"unknown {name} text {text!r}")


def _render(template: str, values: dict) -> str:
    """`template` with each placeholder replaced by the text of its value."""

    def sub(match):
        name = match.group(1)
        if name not in values:
            raise FormatError(f"template placeholder '{name}' has no value")
        return _CODECS[name][1](values[name])

    return _PLACEHOLDER.sub(sub, template)


@functools.lru_cache(maxsize=None)
def _template_regex(template: str):
    names = []
    pattern = []
    pos = 0
    for match in _PLACEHOLDER.finditer(template):
        pattern.append(re.escape(template[pos : match.start()]))
        name = match.group(1)
        if name not in _CODECS:
            raise FormatError(f"unknown template placeholder '{name}'")
        names.append(name)
        pattern.append(_CODECS[name][0])
        pos = match.end()
    pattern.append(re.escape(template[pos:]))
    return re.compile("^" + "".join(pattern) + r"\Z"), names


def _parse(template: str, text: str, what: str) -> list:
    """Invert _render: (placeholder, value) per placeholder, in template order."""
    rx, names = _template_regex(template)
    match = rx.match(text)
    if match is None:
        raise FormatError(f"{what} does not match {template!r}: {text!r}")
    return [(name, _CODECS[name][2](part)) for name, part in zip(names, match.groups())]


def _plan_parse(text: str) -> dict:
    for kind, template in _PLANS.items():
        if _template_regex(template)[0].match(text):
            plan = {"kind": kind, "side": None, **dict(_parse(template, text, "plan"))}
            if template is _YIELD:
                plan["kind"] = yield_kind(AgentCategory(plan["category"])).value
            return plan
    raise FormatError(f"cannot parse interaction plan {text!r}")


def _phrases(render, parse) -> tuple:
    """The codec of a list rendered as its items' phrases joined by "; ", or
    "none" when empty, from one item's `render` and `parse`."""
    return (
        r"(.*?)",
        lambda items: "; ".join(map(render, items)) or "none",
        lambda text: [] if text == "none" else [parse(part) for part in text.split("; ")],
    )


def _waypoints_text(waypoints) -> str:
    return ", ".join(_render(_WAYPOINT, {"x": x, "y": y}) for x, y in waypoints)


def _waypoints_parse(text: str) -> List[list]:
    values = [value for _, value in _parse(_WAYPOINTS, text, "motion plan")]
    return [values[i : i + 2] for i in range(0, len(values), 2)]


# placeholder -> (pattern, value -> text, text -> value)
# the text _fmt1 renders: ASCII digits, no leading zero, never "-0.0"
_NUMBER = (r"(0\.0|-?0\.[1-9]|-?[1-9][0-9]*\.[0-9])", _fmt1, float)
_OBJECTS = _phrases(
    functools.partial(_render, _OBJECT), lambda part: dict(_parse(_OBJECT, part, "object"))
)
_CODECS = {
    "x": _NUMBER,
    "y": _NUMBER,
    "objects": _OBJECTS,
    "critical_objects": _OBJECTS,
    "plans": _phrases(lambda plan: _render(_PLANS[plan["kind"]], plan), _plan_parse),
    "waypoints": (r"(.*?)", _waypoints_text, _waypoints_parse),
    **{
        name: (
            "(" + "|".join(map(re.escape, table.values())) + ")",
            table.__getitem__,
            functools.partial(_value, name),
        )
        for name, table in _TEXTS.items()
    },
}


def render_answer(task: QATask, payload: dict, templates: dict) -> str:
    if task is QATask.REASONING_OBJECT:
        payload = {
            "verdict": payload["critical"],
            "reason_text": (payload["reason"], payload.get("kind")),
        }
    return _render(templates[task.value]["answer"], payload)


def parse_answer(task: QATask, text: str, templates: dict) -> dict:
    """Invert render_answer; raises FormatError when the text does not match
    the template grammar."""
    fields = dict(_parse(templates[task.value]["answer"], text, f"{task.value} answer"))
    if task is QATask.REASONING_OBJECT:
        reason, kind = fields["reason_text"]
        return {"critical": fields["verdict"], "reason": reason, "kind": kind}
    return fields


# --------------------------------------------------------------------------
# generation


def _frame_objects(scene: Scene, frame: int) -> dict:
    """By agent id, (category, ego-frame x, ego-frame y, valid) of every
    agent at the frame, from one transform of the frame's states."""
    states = scene.agent_arrays[:, frame]
    local = to_frame(states["xy"], scene.ego.pose(frame)).tolist()
    return {
        track.id: (track.category, x, y, valid)
        for track, (x, y), valid in zip(scene.agents, local, states["valid"].tolist())
    }


def _object(objects: dict, agent_id: int) -> dict:
    """The category and quantized ego-frame position of one frame object."""
    category, x, y, _ = objects[agent_id]
    return {"category": category.value, "x": quant1(x), "y": quant1(y)}


def _critical_objects(objects: dict, crits: List[Criticality]) -> List[dict]:
    """The frame objects of the critical agents valid at the frame."""
    return [_object(objects, c.agent_id) for c in crits if c.critical and objects[c.agent_id][3]]


def _record(
    scene: Scene, frame: int, task: QATask, key, asked: dict, payload: dict, templates: dict
) -> QARecord:
    """The record of one task at one frame; `key` names its subject in the id
    and `asked` fills the question."""
    return QARecord(
        id=f"{scene.id}:{frame}:{task.value}:{key}",
        scene_id=scene.id,
        frame=frame,
        task=task,
        question=_render(templates[task.value]["question"], asked),
        answer=render_answer(task, payload, templates),
        structured=payload,
    )


def select_agents(
    scene: Scene, frame: int, crits: List[Criticality], config: Config
) -> List[int]:
    """Critical agents plus a seeded uniform sample of non-critical ones at
    the configured distractor ratio, without replacement."""
    valid = scene.agent_arrays[:, frame]["valid"].tolist()
    valid_ids = {t.id for t, v in zip(scene.agents, valid) if v}
    critical = sorted(c.agent_id for c in crits if c.critical and c.agent_id in valid_ids)
    others = sorted(
        c.agent_id for c in crits if not c.critical and c.agent_id in valid_ids
    )
    want = round(min(max(config.distractor_ratio * len(critical), 0), len(others)))
    if want:
        rng = seeded_rng(config.seed, scene.id, frame, "qa")
        sampled = sorted(rng.choice(others, size=want, replace=False).tolist())
    else:
        sampled = []
    return sorted(critical + sampled)


def gen_perception_qas(
    scene: Scene,
    frame: int,
    rel: RelationOutputs,
    crits: List[Criticality],
    config: Config,
    templates: dict,
) -> List[QARecord]:
    """Object-classification QA per selected agent, plus a lane-association QA
    for those with a lane."""
    records = []
    objects = _frame_objects(scene, frame)
    for agent_id in select_agents(scene, frame, crits, config):
        obj = _object(objects, agent_id)
        payload = {"category": obj["category"]}
        task = QATask.PERCEPTION_OBJECT
        records.append(_record(scene, frame, task, agent_id, obj, payload, templates))
        mode = rel.lane_modes[agent_id][frame]
        if mode is not LaneMode.NOTON:
            task = QATask.PERCEPTION_LANE_ASSOC
            payload = {"lane_mode": mode.value}
            records.append(_record(scene, frame, task, agent_id, obj, payload, templates))
    return records


def _covering_kind(
    labels: List[InteractionLabel], agent_id: int, frame: int
) -> Optional[str]:
    for label in labels:
        if label.agent_id == agent_id and label.covers(frame):
            return label.kind.value
    return None


def gen_reasoning_qas(
    scene: Scene,
    frame: int,
    rel: RelationOutputs,
    labels: List[InteractionLabel],
    crits: List[Criticality],
    config: Config,
    templates: dict,
) -> List[QARecord]:
    """Criticality QA per selected agent plus one scene-level grounding QA."""
    records = []
    task = QATask.REASONING_OBJECT
    objects = _frame_objects(scene, frame)
    crit_by_id = {c.agent_id: c for c in crits}
    for agent_id in select_agents(scene, frame, crits, config):
        crit = crit_by_id[agent_id]
        kind = None
        if crit.reason is CriticalReason.HAS_INTERACTION:
            kind = _covering_kind(labels, agent_id, frame)
        payload = {"critical": crit.critical, "reason": crit.reason.value, "kind": kind}
        obj = _object(objects, agent_id)
        records.append(_record(scene, frame, task, agent_id, obj, payload, templates))

    task = QATask.REASONING_GROUNDING
    payload = {"objects": _critical_objects(objects, crits)}
    records.append(_record(scene, frame, task, "scene", {}, payload, templates))
    return records


def gen_planning_qas(
    scene: Scene,
    frame: int,
    rel: RelationOutputs,
    labels: List[InteractionLabel],
    crits: List[Criticality],
    config: Config,
    templates: dict,
) -> QARecord:
    """3-step chain-of-thought planning record: critical objects, behavior
    (interaction plans + lane decision), then the 6-waypoint motion plan.
    An incomplete ground-truth future raises InsufficientFutureError."""
    future = ego_future_waypoints(scene, frame)
    objects = _frame_objects(scene, frame)
    plans = [
        {
            "kind": label.kind.value,
            "side": label.side.value if label.side else None,
            "category": objects[label.agent_id][0].value,
        }
        for label in labels
        if label.covers(frame)
    ]

    horizon = rel.ego_decisions[frame + 1 : frame + PLAN_STEPS * scene.plan_stride + 1]
    decision = EgoLaneDecision.KEEP_LANE
    for d in horizon:
        if d in (EgoLaneDecision.LEFT_LANE_CHANGE, EgoLaneDecision.RIGHT_LANE_CHANGE):
            decision = d
            break
    else:
        if any(d is EgoLaneDecision.STRADDLE for d in horizon):
            decision = EgoLaneDecision.STRADDLE

    waypoints = [[quant1(float(x)), quant1(float(y))] for x, y in future]
    payload = {
        "critical_objects": _critical_objects(objects, crits),
        "plans": plans,
        "lane_decision": decision.value,
        "waypoints": waypoints,
    }
    asked = {"nav_command": scene.nav_commands[frame]}
    return _record(scene, frame, QATask.PLANNING, "ego", asked, payload, templates)
