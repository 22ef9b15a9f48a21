"""Output gate: sha256 digests recorded at the seed commit, plus checks that
do not rely on them (TOKB decode against the scene, QA answers parsing back
to their structured payloads, grounding ratios consistent with one match
count)."""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

DIGEST_DIR = Path(__file__).resolve().parent / "digests"


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def tree_digest(paths, root) -> str:
    """One digest over many files: sha256 of the sorted lines
    "<path relative to root> <file sha256>"."""
    lines = sorted(f"{Path(p).relative_to(root).as_posix()} {file_digest(p)}\n" for p in paths)
    return hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_recorded(workload: str, variant: int) -> dict:
    path = DIGEST_DIR / f"{workload}.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text("utf-8")).get(str(variant), {})


def record(workload: str, variant: int, digests: dict) -> None:
    path = DIGEST_DIR / f"{workload}.json"
    table = json.loads(path.read_text("utf-8")) if path.is_file() else {}
    table[str(variant)] = dict(sorted(digests.items()))
    DIGEST_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(dict(sorted(table.items(), key=lambda kv: int(kv[0]))), indent=1) + "\n", "utf-8")


def mismatches(recorded: dict, actual: dict) -> list:
    """Output groups whose digest is missing or differs from the record."""
    return sorted(g for g, d in actual.items() if recorded.get(g) != d)


# --------------------------------------------------------------------------
# checks that do not rely on recorded digests


def _f32(v) -> float:
    return float(np.float32(v))


def check_bundle(bundle, agents, maps, scene) -> None:
    """A decoded TOKB bundle must carry its scene's valid agents and lanes,
    attributes rounded to f32, in scene order."""
    if bundle.frame_rate != _f32(scene.frame_rate):
        raise AssertionError(f"{scene.id} f{bundle.frame}: frame rate {bundle.frame_rate}")
    frame = bundle.frame
    expected = [(t, t.states[frame]) for t in scene.agents if t.states[frame].valid]
    if [a.agent_id for a in agents] != [t.id for t, _ in expected]:
        raise AssertionError(f"{scene.id} f{frame}: agent ids differ")
    for a, (track, st) in zip(agents, expected):
        want = (st.pose.x, st.pose.y, st.pose.heading, st.speed, st.box[0], st.box[1])
        got = (a.x, a.y, a.heading, a.speed, a.length, a.width)
        if tuple(map(_f32, want)) != tuple(got) or a.category is not track.category:
            raise AssertionError(f"{scene.id} f{frame}: agent {a.agent_id} decodes to {got}")
    if [m.lane_id for m in maps] != [ln.id for ln in scene.lanes]:
        raise AssertionError(f"{scene.id} f{frame}: lane ids differ")
    for m, lane in zip(maps, scene.lanes):
        (x0, y0), (x1, y1) = lane.centerline[0], lane.centerline[-1]
        if tuple(map(_f32, (x0, y0, x1, y1))) != (m.x0, m.y0, m.x1, m.y1) or m.semantic is not lane.semantic:
            raise AssertionError(f"{scene.id} f{frame}: lane {m.lane_id} decodes wrongly")


def check_qa(path) -> int:
    """Every QA answer parses back to its structured payload."""
    from drivekit.qa import QATask, load_templates, parse_answer

    templates = load_templates()
    n = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            parsed = parse_answer(QATask(rec["task"]), rec["answer"], templates)
            if json.loads(json.dumps(parsed)) != rec["structured"]:
                raise AssertionError(f"QA {rec['id']}: answer parses to {parsed}")
            n += 1
    if n == 0:
        raise AssertionError("QA file is empty")
    return n


def check_grounding(sets, results) -> None:
    """Precision and recall are None exactly when their base is empty, lie in
    [0, 1], and come from one match count."""
    for s, (precision, recall) in zip(sets, results, strict=True):
        n, m = len(s["pred"]), len(s["gt"])
        if (precision is None) != (n == 0) or (recall is None) != (m == 0):
            raise AssertionError(f"{s['scene_id']} f{s['frame']}: undefined ratio mismatch")
        if n and m:
            matches = round(precision * n)
            if not (0 <= matches <= min(n, m)) or round(recall * m) != matches:
                raise AssertionError(f"{s['scene_id']} f{s['frame']}: inconsistent P/R")
