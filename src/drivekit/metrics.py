"""Open-loop plan evaluation: L2 variants, heading error, longitudinal-
weighted error, collision rate, frame masking, exact assignment, and
grounding precision/recall.

Plans are 6 waypoints at 0.5 s steps over 3 s in the anchor ego frame.
Horizons report at 1/2/3 s plus the mean over those three (ave123) and over
all six steps (ave_all).

The longitudinal-weighted variant decomposes the per-step error vector in the
ground-truth motion direction and scales the longitudinal component by w_lon;
w_lon = 1 reduces it to the plain L2. This decomposition is this toolkit's
declared definition of the progress-error metric and is configurable.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .config import Config
from .errors import AlignError, ParamError, SchemaError, as_finite, is_int
from .geometry import from_frame, obb_corners, obb_overlap
from .scene import PLAN_STEPS, Scene, _points, frames_per_step, wrap_angle, wrap_angles

_HORIZON_INDEX = {1: 1, 2: 3, 3: 5}  # seconds -> step index


def _as_plan_xy(plan) -> np.ndarray:
    arr = np.asarray(plan, dtype=float)
    if arr.shape != (PLAN_STEPS, 2):
        raise AlignError(f"plan must be ({PLAN_STEPS}, 2), got {arr.shape}")
    return arr


def headings_xy(xy, eps_move: float = Config.eps_move) -> list:
    """Per-point headings of a plan's positions in the anchor ego frame.

    heading_k points along segment k -> k+1; the final point repeats the last
    segment heading; segments shorter than eps_move carry the previous heading
    forward, starting from the anchor heading 0.
    """
    headings = []
    prev = 0.0
    for k in range(len(xy) - 1):
        dx = xy[k + 1][0] - xy[k][0]
        dy = xy[k + 1][1] - xy[k][1]
        if math.hypot(dx, dy) < eps_move:
            headings.append(prev)
        else:
            prev = wrap_angle(math.atan2(dy, dx))
            headings.append(prev)
    headings.append(prev)
    return headings


@dataclass(frozen=True)
class HorizonValues:
    at: dict  # horizon seconds -> value
    ave123: float
    ave_all: float
    per_step: tuple

    @classmethod
    def from_steps(cls, steps: np.ndarray) -> "HorizonValues":
        at = {h: float(steps[i]) for h, i in _HORIZON_INDEX.items()}
        return cls(
            at=at,
            ave123=float(np.mean([at[1], at[2], at[3]])),
            ave_all=float(np.mean(steps)),
            per_step=tuple(float(v) for v in steps),
        )


def traj_l2(pred, gt) -> HorizonValues:
    p = _as_plan_xy(pred)
    g = _as_plan_xy(gt)
    return HorizonValues.from_steps(np.hypot(*(p - g).T))


def heading_l2(pred, gt, eps_move: float = Config.eps_move) -> HorizonValues:
    p = _as_plan_xy(pred)
    g = _as_plan_xy(gt)
    # plans sit in the anchor ego frame, whose heading is 0
    hp = headings_xy(p, eps_move)
    hg = headings_xy(g, eps_move)
    err = np.abs(wrap_angles(np.subtract(hp, hg)))
    return HorizonValues.from_steps(err)


def lon_weighted_l2(
    pred, gt, w_lon: float = Config.w_lon, eps_move: float = Config.eps_move
) -> HorizonValues:
    p = _as_plan_xy(pred)
    g = _as_plan_xy(gt)
    hg = headings_xy(g, eps_move)
    e = p - g
    steps = np.empty(PLAN_STEPS)
    for k in range(PLAN_STEPS):
        c, s = math.cos(hg[k]), math.sin(hg[k])
        lon = e[k, 0] * c + e[k, 1] * s
        lat = -e[k, 0] * s + e[k, 1] * c
        steps[k] = math.hypot(w_lon * lon, lat)
    return HorizonValues.from_steps(steps)


# --------------------------------------------------------------------------
# collision


def plan_collision_fraction(
    scene: Scene, frame: int, plan, eps_move: float = Config.eps_move
) -> float:
    """Fraction of the 6 steps whose ego footprint overlaps any other agent's
    ground-truth box at that timestamp (separating-axis test)."""
    wp = _as_plan_xy(plan)
    spf = scene.plan_stride
    anchor = scene.ego.pose(frame)
    ego_len, ego_wid = scene.ego.arrays["box"][frame].tolist()
    wp_global = from_frame(wp, anchor)
    local_headings = headings_xy(wp, eps_move)

    # steps that land inside the scene, and every (step, valid agent) pair in
    # step-major, agent-minor order
    n_steps = min(PLAN_STEPS, (scene.n_frames - 1 - frame) // spf)
    steps = scene.agent_arrays[:, frame + spf * np.arange(1, n_steps + 1)].T
    step_of = np.nonzero(steps["valid"])[0]
    states = steps[steps["valid"]]
    if not len(states):
        return 0.0
    ego_boxes = obb_corners(
        wp_global[:n_steps],
        wrap_angles(np.add(local_headings[:n_steps], anchor.heading)),
        ego_len,
        ego_wid,
    )
    agent_boxes = obb_corners(
        states["xy"], states["heading"], states["box"][:, 0], states["box"][:, 1]
    )
    hit = obb_overlap(ego_boxes[step_of], agent_boxes)
    return len(set(step_of[hit].tolist())) / PLAN_STEPS


# --------------------------------------------------------------------------
# frame masking (samples without a complete ground-truth future are excluded)


@dataclass(frozen=True)
class PlanSample:
    scene_id: str
    frame: int
    waypoints: tuple  # 6 (x, y) pairs, anchor ego frame

    def __post_init__(self):
        if not isinstance(self.scene_id, str):
            raise SchemaError(f"plan sample scene_id must be a string, got {self.scene_id!r}")
        if not is_int(self.frame):
            raise SchemaError(f"plan sample frame must be an integer, got {self.frame!r}")
        wp = _points(self.waypoints, "plan sample waypoints")
        if len(wp) != PLAN_STEPS:
            raise AlignError(f"plan sample needs {PLAN_STEPS} waypoints")
        object.__setattr__(self, "waypoints", wp)


def future_complete(track, frame: int, frame_rate: float) -> bool:
    """True when every future plan step has a valid state to compare against."""
    spf = frames_per_step(frame_rate)
    if frame < 0 or frame + PLAN_STEPS * spf >= len(track.arrays):
        return False
    return bool(track.arrays["valid"][frame : frame + PLAN_STEPS * spf + 1 : spf].all())


def apply_frame_mask(samples, scenes: Dict[str, Scene]) -> Tuple[list, int]:
    """Drop samples whose ground-truth ego future is incomplete."""
    kept = []
    masked = 0
    for sample in samples:
        scene = scenes[sample.scene_id]
        if future_complete(scene.ego, sample.frame, scene.frame_rate):
            kept.append(sample)
        else:
            masked += 1
    return kept, masked


# --------------------------------------------------------------------------
# exact assignment


def hungarian(cost_matrix) -> list:
    """Minimum-total-cost assignment (one column per row, min(n, m) matches).

    Returns a column index per row, None for unassigned rows. Among equal-cost
    optima it returns the one the solver finds, which is deterministic for a
    given input and scipy version. The matrix must be 2-D and finite
    (ValueError otherwise).
    """
    c = np.asarray(cost_matrix, dtype=float)
    if c.ndim != 2:
        raise ValueError("cost matrix must be 2-D")
    if not np.all(np.isfinite(c)):
        raise ValueError("costs must be finite")
    result: List[Optional[int]] = [None] * len(c)
    for i, j in zip(*linear_sum_assignment(c)):
        result[i] = int(j)
    return result


# --------------------------------------------------------------------------
# grounding


@dataclass(frozen=True)
class GroundingReport:
    precision: Optional[float]
    recall: Optional[float]
    importance_accuracy: Optional[float] = None


def grounding_prf(pred_objects, gt_objects, gate: float, importance_pairs=None) -> GroundingReport:
    """Match predicted object centers to ground truth within a distance gate.

    The match count is the size of a maximum matching of the pairs at most
    `gate` apart; precision and recall divide it by the predicted and the
    ground-truth count, and are None, never 0, when undefined. Optional
    (predicted, gt) criticality pairs fill the importance accuracy field.

    Every object is a finite [x, y] pair (SchemaError naming `pred[i]` or
    `gt[i]` otherwise), and the gate a finite non-negative number
    (ParamError otherwise).
    """
    gate = as_finite(gate, "grounding gate", ParamError)
    if gate < 0:
        raise ParamError(f"grounding gate must be non-negative, got {gate!r}")
    pred = np.array(_points(pred_objects, "pred"), dtype=float).reshape(-1, 2)
    gt = np.array(_points(gt_objects, "gt"), dtype=float).reshape(-1, 2)
    n, m = len(pred), len(gt)
    matches = 0
    if n and m:
        # an overflowed distance is inf, beyond every finite gate
        with np.errstate(over="ignore"):
            diff = pred[:, None, :] - gt[None, :, :]
            far = np.hypot(diff[..., 0], diff[..., 1]) > gate
        # a minimum-cost assignment of the 0/1 matrix leaves the fewest far
        # pairs among its min(n, m), and every gate-graph matching extends to
        # one, so its near pairs form a maximum matching; integer costs make
        # the count exact at every gate
        matches = sum(1 for i, j in enumerate(hungarian(far)) if j is not None and not far[i, j])
    precision = matches / n if n else None
    recall = matches / m if m else None
    importance = (
        classification_accuracy(importance_pairs) if importance_pairs is not None else None
    )
    return GroundingReport(
        precision=precision, recall=recall, importance_accuracy=importance
    )


def classification_accuracy(pairs) -> Optional[float]:
    """Exact-match fraction over (predicted, ground truth) label pairs."""
    pairs = list(pairs)
    if not pairs:
        return None
    return sum(1 for p, g in pairs if p == g) / len(pairs)


# --------------------------------------------------------------------------
# aggregation and report output


# (MetricReport field and report.json key, CSV column prefix) per metric
# family, each reported at these horizons
_FAMILIES = (("l2", "l2"), ("heading", "heading"), ("lon_weighted", "lonw"))
_HORIZONS = ("1s", "2s", "3s", "ave123", "ave_all")


@dataclass(frozen=True)
class MetricReport:
    l2: Optional[HorizonValues]
    heading: Optional[HorizonValues]
    lon_weighted: Optional[HorizonValues]
    collision_rate_ave_all: Optional[float]  # percent
    n_samples: int
    n_masked: int

    def to_dict(self) -> dict:
        out = {}
        for family, _ in _FAMILIES:
            hv = getattr(self, family)
            out[family] = None if hv is None else dict(
                zip(_HORIZONS, (hv.at[1], hv.at[2], hv.at[3], hv.ave123, hv.ave_all))
            )
        out["collision_pct"] = self.collision_rate_ave_all
        out["n_samples"] = self.n_samples
        out["n_masked"] = self.n_masked
        return out


def _mean_horizon(values: List[HorizonValues]) -> Optional[HorizonValues]:
    if not values:
        return None
    steps = np.mean([hv.per_step for hv in values], axis=0)
    return HorizonValues.from_steps(steps)


def evaluate_plans(plans, scenes: Dict[str, Scene], config: Config) -> MetricReport:
    """Full open-loop protocol: mask incomplete futures, score each kept plan
    against the resampled ground-truth ego future, aggregate means."""
    # imported here, not at module level: planners imports this module
    from .planners import ego_future_waypoints

    kept, masked = apply_frame_mask(plans, scenes)
    kept = sorted(kept, key=lambda p: (p.scene_id, p.frame))
    l2s: List[HorizonValues] = []
    headings: List[HorizonValues] = []
    lonws: List[HorizonValues] = []
    fractions: List[float] = []
    for sample in kept:
        scene = scenes[sample.scene_id]
        gt = ego_future_waypoints(scene, sample.frame)
        pred = np.asarray(sample.waypoints, dtype=float)
        l2s.append(traj_l2(pred, gt))
        headings.append(heading_l2(pred, gt, config.eps_move))
        lonws.append(lon_weighted_l2(pred, gt, config.w_lon, config.eps_move))
        fractions.append(
            plan_collision_fraction(scene, sample.frame, pred, config.eps_move)
        )
    return MetricReport(
        l2=_mean_horizon(l2s),
        heading=_mean_horizon(headings),
        lon_weighted=_mean_horizon(lonws),
        collision_rate_ave_all=100.0 * float(np.mean(fractions)) if fractions else None,
        n_samples=len(kept),
        n_masked=masked,
    )


CSV_COLUMNS = [f"{prefix}_{h}" for _, prefix in _FAMILIES for h in _HORIZONS] + [
    "collision_pct",
    "n_samples",
    "n_masked",
]


def report_csv(report: MetricReport) -> str:
    """Single-row CSV in the fixed table layout (1s/2s/3s/ave123/ave_all per
    metric family, then collision percent)."""
    d = report.to_dict()
    values = [None if d[f] is None else d[f][h] for f, _ in _FAMILIES for h in _HORIZONS]
    values.append(d["collision_pct"])
    row = ["" if v is None else f"{v:.6f}" for v in values]
    row += [str(report.n_samples), str(report.n_masked)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerow(row)
    return buf.getvalue()
