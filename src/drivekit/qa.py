"""QA corpus generation: perception, behavior reasoning, and 3-step
chain-of-thought planning records from labeled scenes.

Question/answer phrasing lives in an external template file keyed by task;
placeholders use ``{field}`` syntax. Rendering is mechanical and bijective:
``parse_answer(task, render_answer(task, payload)) == payload`` for every
record, and all coordinates are fixed at 1 decimal so corpora are
byte-deterministic.
"""
from __future__ import annotations

import enum
import json
import re
from dataclasses import dataclass
from importlib import resources
from typing import List, Optional

from .config import Config, seeded_rng
from .errors import FormatError, InsufficientFutureError, SchemaError
from .geometry import to_frame
from .interactions import Criticality, CriticalReason, InteractionLabel
from .metrics import PLAN_STEPS, _steps_per_frame, future_complete
from .relations import EgoLaneDecision, LaneMode, RelationOutputs
from .scene import AgentCategory, NavigationCommand, Scene


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


def load_templates(path=None) -> dict:
    if path is None:
        text = resources.files("drivekit").joinpath("data/templates.json").read_text("utf-8")
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    templates = json.loads(text)
    for task in QATask:
        if task.value not in templates:
            raise SchemaError(f"template file missing task {task.value}")
        entry = templates[task.value]
        if "question" not in entry or "answer" not in entry:
            raise SchemaError(f"template {task.value} needs 'question' and 'answer'")
    return templates


_PLACEHOLDER = re.compile(r"\{(\w+)\}")

_FIELD_PATTERNS = {
    "x": r"(-?\d+\.\d)",
    "y": r"(-?\d+\.\d)",
    "category": r"([a-z ]+)",
    "lane_mode": r"(LEFT|RIGHT|AHEAD|BEHIND|NOTON)",
    "verdict": r"(Yes|No)",
    "reason_text": r"(.+?)",
    "objects": r"(.*?)",
    "critical_objects": r"(.*?)",
    "plans": r"(.*?)",
    "lane_decision": r"([a-z ]+)",
    "waypoints": r"(.*?)",
    "nav_command": r"(.+?)",
}


def _render(template: str, fields: dict) -> str:
    def sub(match):
        name = match.group(1)
        if name not in fields:
            raise FormatError(f"template placeholder '{name}' has no value")
        return fields[name]

    return _PLACEHOLDER.sub(sub, template)


def _template_regex(template: str):
    names = []
    pattern = []
    pos = 0
    for match in _PLACEHOLDER.finditer(template):
        pattern.append(re.escape(template[pos : match.start()]))
        name = match.group(1)
        if name not in _FIELD_PATTERNS:
            raise FormatError(f"unknown template placeholder '{name}'")
        names.append(name)
        pattern.append(_FIELD_PATTERNS[name])
        pos = match.end()
    pattern.append(re.escape(template[pos:]))
    return re.compile("^" + "".join(pattern) + "$"), names


def quant1(v: float) -> float:
    """Quantize to the canonical 1-decimal text representation."""
    q = float(f"{float(v):.1f}")
    return 0.0 if q == 0.0 else q


def _fmt1(v: float) -> str:
    return f"{quant1(v):.1f}"


def _category_text(category: str) -> str:
    return category.lower().replace("_", " ")


def _category_value(text: str) -> str:
    value = text.strip().upper().replace(" ", "_")
    AgentCategory(value)  # validates
    return value


def _objects_text(objects: List[dict]) -> str:
    if not objects:
        return "none"
    return "; ".join(
        f"a {_category_text(o['category'])} at ({_fmt1(o['x'])}, {_fmt1(o['y'])})"
        for o in objects
    )


_OBJECT_RE = re.compile(r"^a ([a-z ]+) at \((-?\d+\.\d), (-?\d+\.\d)\)$")


def _objects_parse(text: str) -> List[dict]:
    if text == "none":
        return []
    out = []
    for part in text.split("; "):
        m = _OBJECT_RE.match(part)
        if not m:
            raise FormatError(f"cannot parse object '{part}'")
        out.append(
            {
                "category": _category_value(m.group(1)),
                "x": float(m.group(2)),
                "y": float(m.group(3)),
            }
        )
    return out


_REASON_PHRASES = {
    ("HAS_INTERACTION", "BYPASS_CONES"): "it is blocking the ego vehicle's lane",
    ("HAS_INTERACTION", "YIELD_TO_PEDESTRIAN"): "the ego vehicle is yielding to it while it crosses",
    ("HAS_INTERACTION", "YIELD_TO_VEHICLE"): "the ego vehicle is yielding to it in traffic",
    ("HAS_INTERACTION", "OVERTAKE_STRADDLE"): "the ego vehicle is overtaking it by straddling the divider",
    ("HAS_INTERACTION", "OVERTAKE_LANE_CHANGE"): "the ego vehicle is overtaking it via a lane change",
    ("IN_EGO_CORRIDOR", None): "it lies in the ego vehicle's planned corridor",
    ("NONE", None): "it does not affect the ego vehicle's plan",
}
_REASON_FROM_PHRASE = {v: k for k, v in _REASON_PHRASES.items()}

_PLAN_SIDED_PHRASES = {
    "BYPASS_CONES": "bypass the {category} on the {side}",
    "OVERTAKE_LANE_CHANGE": "overtake the {category} via lane change on the {side}",
    "OVERTAKE_STRADDLE": "overtake the {category} by straddling on the {side}",
}
_PLAN_SIDED_RES = {
    kind: re.compile(
        "^" + phrase.format(category=r"([a-z ]+)", side="(left|right)") + "$"
    )
    for kind, phrase in _PLAN_SIDED_PHRASES.items()
}
_PLAN_YIELD_RE = re.compile(r"^yield to the ([a-z ]+)$")


def _plans_text(plans: List[dict]) -> str:
    if not plans:
        return "none"
    parts = []
    for plan in plans:
        kind = plan["kind"]
        if kind in _PLAN_SIDED_PHRASES:
            parts.append(
                _PLAN_SIDED_PHRASES[kind].format(
                    category=_category_text(plan["category"]),
                    side=plan["side"].lower(),
                )
            )
        else:  # yield kinds
            parts.append(f"yield to the {_category_text(plan['category'])}")
    return "; ".join(parts)


def _plans_parse(text: str) -> List[dict]:
    if text == "none":
        return []
    out = []
    for part in text.split("; "):
        matched = False
        for kind, rx in _PLAN_SIDED_RES.items():
            m = rx.match(part)
            if m:
                out.append(
                    {
                        "kind": kind,
                        "side": m.group(2).upper(),
                        "category": _category_value(m.group(1)),
                    }
                )
                matched = True
                break
        if matched:
            continue
        m = _PLAN_YIELD_RE.match(part)
        if not m:
            raise FormatError(f"cannot parse interaction plan '{part}'")
        category = _category_value(m.group(1))
        kind = (
            "YIELD_TO_PEDESTRIAN"
            if category == AgentCategory.PEDESTRIAN.value
            else "YIELD_TO_VEHICLE"
        )
        out.append({"kind": kind, "side": None, "category": category})
    return out


_DECISION_TEXT = {
    "KEEP_LANE": "keep lane",
    "LEFT_LANE_CHANGE": "left lane change",
    "RIGHT_LANE_CHANGE": "right lane change",
    "STRADDLE": "straddle",
}
_DECISION_FROM_TEXT = {v: k for k, v in _DECISION_TEXT.items()}

_WAYPOINT_RE = re.compile(r"\((-?\d+\.\d), (-?\d+\.\d)\)")


def _waypoints_text(waypoints) -> str:
    return ", ".join(f"({_fmt1(x)}, {_fmt1(y)})" for x, y in waypoints)


def _waypoints_parse(text: str) -> List[list]:
    pairs = _WAYPOINT_RE.findall(text)
    if len(pairs) != PLAN_STEPS:
        raise FormatError(f"expected {PLAN_STEPS} waypoints, found {len(pairs)}")
    return [[float(x), float(y)] for x, y in pairs]


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


def _answer_fields(task: QATask, payload: dict) -> dict:
    if task is QATask.PERCEPTION_OBJECT:
        return {"category": _category_text(payload["category"])}
    if task is QATask.PERCEPTION_LANE_ASSOC:
        return {"lane_mode": payload["lane_mode"]}
    if task is QATask.REASONING_OBJECT:
        phrase = _REASON_PHRASES[(payload["reason"], payload.get("kind"))]
        return {"verdict": "Yes" if payload["critical"] else "No", "reason_text": phrase}
    if task is QATask.REASONING_GROUNDING:
        return {"objects": _objects_text(payload["objects"])}
    if task is QATask.PLANNING:
        return {
            "critical_objects": _objects_text(payload["critical_objects"]),
            "plans": _plans_text(payload["plans"]),
            "lane_decision": _DECISION_TEXT[payload["lane_decision"]],
            "waypoints": _waypoints_text(payload["waypoints"]),
        }
    raise FormatError(f"unknown task {task}")


def render_answer(task: QATask, payload: dict, templates: dict) -> str:
    return _render(templates[task.value]["answer"], _answer_fields(task, payload))


def parse_answer(task: QATask, text: str, templates: dict) -> dict:
    """Invert render_answer; raises FormatError when the text does not match
    the template grammar."""
    rx, names = _template_regex(templates[task.value]["answer"])
    m = rx.match(text)
    if not m:
        raise FormatError(f"answer does not match {task.value} template: {text!r}")
    fields = dict(zip(names, m.groups()))
    if task is QATask.PERCEPTION_OBJECT:
        return {"category": _category_value(fields["category"])}
    if task is QATask.PERCEPTION_LANE_ASSOC:
        return {"lane_mode": fields["lane_mode"]}
    if task is QATask.REASONING_OBJECT:
        reason, kind = _REASON_FROM_PHRASE[fields["reason_text"]]
        return {
            "critical": fields["verdict"] == "Yes",
            "reason": reason,
            "kind": kind,
        }
    if task is QATask.REASONING_GROUNDING:
        return {"objects": _objects_parse(fields["objects"])}
    if task is QATask.PLANNING:
        return {
            "critical_objects": _objects_parse(fields["critical_objects"]),
            "plans": _plans_parse(fields["plans"]),
            "lane_decision": _DECISION_FROM_TEXT[fields["lane_decision"]],
            "waypoints": _waypoints_parse(fields["waypoints"]),
        }
    raise FormatError(f"unknown task {task}")


# --------------------------------------------------------------------------
# generation


def _ego_frame_position(scene: Scene, track, frame: int):
    anchor = scene.ego.states[frame].pose
    st = track.states[frame]
    local = to_frame((st.pose.x, st.pose.y), anchor)
    return quant1(float(local[0])), quant1(float(local[1]))


def _critical_objects(
    scene: Scene, frame: int, crits: List[Criticality], tracks: dict
) -> List[dict]:
    """Category and ego-frame position of each critical agent valid at the frame."""
    objects = []
    for crit in crits:
        if not crit.critical:
            continue
        track = tracks[crit.agent_id]
        if track.states[frame].valid:
            x, y = _ego_frame_position(scene, track, frame)
            objects.append({"category": track.category.value, "x": x, "y": y})
    return objects


def select_agents(
    scene: Scene, frame: int, crits: List[Criticality], config: Config
) -> List[int]:
    """Critical agents plus a seeded uniform sample of non-critical ones at
    the configured distractor ratio, without replacement."""
    valid_ids = {t.id for t in scene.agents if t.states[frame].valid}
    critical = sorted(c.agent_id for c in crits if c.critical and c.agent_id in valid_ids)
    others = sorted(
        c.agent_id for c in crits if not c.critical and c.agent_id in valid_ids
    )
    want = min(len(others), round(config.distractor_ratio * len(critical)))
    if want and others:
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
    qtpl = templates[QATask.PERCEPTION_OBJECT.value]["question"]
    qtpl_lane = templates[QATask.PERCEPTION_LANE_ASSOC.value]["question"]
    tracks = {t.id: t for t in scene.agents}
    for agent_id in select_agents(scene, frame, crits, config):
        track = tracks[agent_id]
        x, y = _ego_frame_position(scene, track, frame)
        payload = {"category": track.category.value}
        records.append(
            QARecord(
                id=f"{scene.id}:{frame}:PERCEPTION_OBJECT:{agent_id}",
                scene_id=scene.id,
                frame=frame,
                task=QATask.PERCEPTION_OBJECT,
                question=_render(qtpl, {"x": _fmt1(x), "y": _fmt1(y)}),
                answer=render_answer(QATask.PERCEPTION_OBJECT, payload, templates),
                structured=payload,
            )
        )
        mode = rel.lane_modes[agent_id][frame]
        if mode is not LaneMode.NOTON:
            payload = {"lane_mode": mode.value}
            records.append(
                QARecord(
                    id=f"{scene.id}:{frame}:PERCEPTION_LANE_ASSOC:{agent_id}",
                    scene_id=scene.id,
                    frame=frame,
                    task=QATask.PERCEPTION_LANE_ASSOC,
                    question=_render(qtpl_lane, {"x": _fmt1(x), "y": _fmt1(y)}),
                    answer=render_answer(QATask.PERCEPTION_LANE_ASSOC, payload, templates),
                    structured=payload,
                )
            )
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
    qtpl = templates[QATask.REASONING_OBJECT.value]["question"]
    tracks = {t.id: t for t in scene.agents}
    crit_by_id = {c.agent_id: c for c in crits}
    for agent_id in select_agents(scene, frame, crits, config):
        track = tracks[agent_id]
        crit = crit_by_id[agent_id]
        x, y = _ego_frame_position(scene, track, frame)
        kind = (
            _covering_kind(labels, agent_id, frame)
            if crit.reason is CriticalReason.HAS_INTERACTION
            else None
        )
        payload = {"critical": crit.critical, "reason": crit.reason.value, "kind": kind}
        records.append(
            QARecord(
                id=f"{scene.id}:{frame}:REASONING_OBJECT:{agent_id}",
                scene_id=scene.id,
                frame=frame,
                task=QATask.REASONING_OBJECT,
                question=_render(qtpl, {"x": _fmt1(x), "y": _fmt1(y)}),
                answer=render_answer(QATask.REASONING_OBJECT, payload, templates),
                structured=payload,
            )
        )

    payload = {"objects": _critical_objects(scene, frame, crits, tracks)}
    records.append(
        QARecord(
            id=f"{scene.id}:{frame}:REASONING_GROUNDING:scene",
            scene_id=scene.id,
            frame=frame,
            task=QATask.REASONING_GROUNDING,
            question=templates[QATask.REASONING_GROUNDING.value]["question"],
            answer=render_answer(QATask.REASONING_GROUNDING, payload, templates),
            structured=payload,
        )
    )
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
    (interaction plans + lane decision), then the 6-waypoint motion plan."""
    from .planners import ego_future_waypoints

    if not future_complete(scene.ego, frame, scene.frame_rate):
        raise InsufficientFutureError(
            f"scene {scene.id} frame {frame}: no 3 s ground-truth future"
        )

    tracks = {t.id: t for t in scene.agents}

    plans = []
    for label in labels:
        if label.covers(frame):
            plans.append(
                {
                    "kind": label.kind.value,
                    "side": label.side.value if label.side else None,
                    "category": tracks[label.agent_id].category.value,
                }
            )

    spf = _steps_per_frame(scene.frame_rate)
    horizon = rel.ego_decisions[frame + 1 : frame + PLAN_STEPS * spf + 1]
    decision = EgoLaneDecision.KEEP_LANE
    for d in horizon:
        if d in (EgoLaneDecision.LEFT_LANE_CHANGE, EgoLaneDecision.RIGHT_LANE_CHANGE):
            decision = d
            break
    else:
        if any(d is EgoLaneDecision.STRADDLE for d in horizon):
            decision = EgoLaneDecision.STRADDLE

    waypoints = [
        [quant1(float(x)), quant1(float(y))]
        for x, y in ego_future_waypoints(scene, frame)
    ]
    payload = {
        "critical_objects": _critical_objects(scene, frame, crits, tracks),
        "plans": plans,
        "lane_decision": decision.value,
        "waypoints": waypoints,
    }
    question = _render(
        templates[QATask.PLANNING.value]["question"],
        {"nav_command": NAV_COMMAND_TEXT[scene.nav_commands[frame]]},
    )
    return QARecord(
        id=f"{scene.id}:{frame}:PLANNING:ego",
        scene_id=scene.id,
        frame=frame,
        task=QATask.PLANNING,
        question=question,
        answer=render_answer(QATask.PLANNING, payload, templates),
        structured=payload,
    )
