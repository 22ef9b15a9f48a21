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
from .errors import AlignError, SchemaError
from .geometry import from_frame, obb_corners, obb_overlap
from .scene import Scene, Trajectory, headings_xy, wrap_angle

PLAN_STEPS = 6
PLAN_DT = 0.5
_HORIZON_INDEX = {1: 1, 2: 3, 3: 5}  # seconds -> step index
_FORBIDDEN = 1e12


def _as_plan_xy(plan) -> np.ndarray:
    if isinstance(plan, Trajectory):
        times = plan.times()
        if len(times) != PLAN_STEPS or np.max(
            np.abs(times - PLAN_DT * np.arange(1, PLAN_STEPS + 1))
        ) > 1e-9:
            raise AlignError("trajectory is not 6 waypoints at 0.5 s steps")
        return plan.xy()
    arr = np.asarray(plan, dtype=float)
    if arr.shape != (PLAN_STEPS, 2):
        raise AlignError(f"plan must be ({PLAN_STEPS}, 2), got {arr.shape}")
    return arr


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


def heading_l2(pred, gt, initial_heading: float = 0.0, eps_move: float = 1e-3) -> HorizonValues:
    p = _as_plan_xy(pred)
    g = _as_plan_xy(gt)
    hp = headings_xy(p, initial_heading, eps_move)
    hg = headings_xy(g, initial_heading, eps_move)
    err = np.array([abs(wrap_angle(a - b)) for a, b in zip(hp, hg)])
    return HorizonValues.from_steps(err)


def lon_weighted_l2(
    pred, gt, w_lon: float = 2.0, initial_heading: float = 0.0, eps_move: float = 1e-3
) -> HorizonValues:
    p = _as_plan_xy(pred)
    g = _as_plan_xy(gt)
    hg = headings_xy(g, initial_heading, eps_move)
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


def _steps_per_frame(frame_rate: float) -> int:
    spf = PLAN_DT * frame_rate
    if abs(spf - round(spf)) > 1e-9 or round(spf) < 1:
        raise AlignError(
            f"frame rate {frame_rate} Hz does not align with {PLAN_DT} s plan steps"
        )
    return int(round(spf))


def plan_collision_fraction(scene: Scene, frame: int, plan, eps_move: float = 1e-3) -> float:
    """Fraction of the 6 steps whose ego footprint overlaps any other agent's
    ground-truth box at that timestamp (separating-axis test)."""
    wp = _as_plan_xy(plan)
    spf = _steps_per_frame(scene.frame_rate)
    anchor = scene.ego.states[frame].pose
    ego_len, ego_wid = scene.ego.states[frame].box
    wp_global = from_frame(wp, anchor)
    local_headings = headings_xy(wp, 0.0, eps_move)

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
        [wrap_angle(local_headings[k] + anchor.heading) for k in range(n_steps)],
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
        if isinstance(self.frame, bool) or not isinstance(self.frame, int):
            raise SchemaError(f"plan sample frame must be an integer, got {self.frame!r}")
        wp = tuple((float(x), float(y)) for x, y in self.waypoints)
        if len(wp) != PLAN_STEPS:
            raise AlignError(f"plan sample needs {PLAN_STEPS} waypoints")
        if not all(math.isfinite(v) for xy in wp for v in xy):
            raise SchemaError("plan sample waypoints must be finite")
        object.__setattr__(self, "waypoints", wp)


def future_complete(track, frame: int, frame_rate: float, steps: int = PLAN_STEPS) -> bool:
    """True when every future plan step has a valid state to compare against."""
    spf = _steps_per_frame(frame_rate)
    last = frame + steps * spf
    if frame < 0 or last >= len(track.states):
        return False
    return all(track.states[frame + k * spf].valid for k in range(steps + 1))


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


def _opt_cost(c: np.ndarray, row_start: int, cols: list) -> float:
    if row_start >= c.shape[0] or not cols:
        return 0.0
    sub = c[row_start:, cols]
    ri, ci = linear_sum_assignment(sub)
    return float(sub[ri, ci].sum())


def hungarian(cost_matrix) -> list:
    """Minimum-total-cost assignment (one column per row, min(n, m) matches).

    Returns a column index per row, None for unassigned rows. Among equal-cost
    optima the lexicographically smallest assignment vector wins (None sorts
    after every real column), so output is deterministic.
    """
    c = np.asarray(cost_matrix, dtype=float)
    if c.ndim != 2:
        raise ValueError("cost matrix must be 2-D")
    n, m = c.shape
    if n == 0 or m == 0:
        return [None] * n
    if not np.all(np.isfinite(c)):
        raise ValueError("costs must be finite")

    result: List[Optional[int]] = [None] * n
    avail = list(range(m))
    matches_needed = min(n, m)
    for i in range(n):
        rows_after = n - i - 1
        best_total = None
        best_col: Optional[int] = None
        for col in avail:
            total = float(c[i, col]) + _opt_cost(c, i + 1, [x for x in avail if x != col])
            if best_total is None or total < best_total:
                best_total = total
                best_col = col
        if rows_after >= matches_needed:  # leaving this row unassigned is feasible
            total = _opt_cost(c, i + 1, avail)
            if best_total is None or total < best_total:
                best_total = total
                best_col = None
        if best_col is not None:
            result[i] = best_col
            avail.remove(best_col)
            matches_needed -= 1
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

    Pairs beyond the gate are forbidden; matching maximizes within-gate pairs,
    then minimizes summed distance. Undefined ratios are reported as None,
    never as 0. Optional (predicted, gt) criticality pairs fill the importance
    accuracy field.
    """
    pred = np.asarray(list(pred_objects), dtype=float).reshape(-1, 2)
    gt = np.asarray(list(gt_objects), dtype=float).reshape(-1, 2)
    n, m = len(pred), len(gt)
    matches = 0
    if n and m:
        diff = pred[:, None, :] - gt[None, :, :]
        cost = np.hypot(diff[..., 0], diff[..., 1])
        penalized = np.where(cost > gate, _FORBIDDEN + cost, cost)
        assignment = hungarian(penalized)
        matches = sum(
            1
            for i, j in enumerate(assignment)
            if j is not None and cost[i, j] <= gate
        )
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


@dataclass(frozen=True)
class MetricReport:
    l2: Optional[HorizonValues]
    heading: Optional[HorizonValues]
    lon_weighted: Optional[HorizonValues]
    collision_rate_ave_all: Optional[float]  # percent
    n_samples: int
    n_masked: int

    def to_dict(self) -> dict:
        def horizon(hv: Optional[HorizonValues]) -> Optional[dict]:
            if hv is None:
                return None
            return {
                "1s": hv.at[1],
                "2s": hv.at[2],
                "3s": hv.at[3],
                "ave123": hv.ave123,
                "ave_all": hv.ave_all,
            }

        return {
            "l2": horizon(self.l2),
            "heading": horizon(self.heading),
            "lon_weighted": horizon(self.lon_weighted),
            "collision_pct": self.collision_rate_ave_all,
            "n_samples": self.n_samples,
            "n_masked": self.n_masked,
        }


def _mean_horizon(values: List[HorizonValues]) -> Optional[HorizonValues]:
    if not values:
        return None
    steps = np.mean([hv.per_step for hv in values], axis=0)
    return HorizonValues.from_steps(steps)


def evaluate_plans(plans, scenes: Dict[str, Scene], config: Config) -> MetricReport:
    """Full open-loop protocol: mask incomplete futures, score each kept plan
    against the resampled ground-truth ego future, aggregate means."""
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
        headings.append(heading_l2(pred, gt, 0.0, config.eps_move))
        lonws.append(lon_weighted_l2(pred, gt, config.w_lon, 0.0, config.eps_move))
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


CSV_COLUMNS = [
    "l2_1s",
    "l2_2s",
    "l2_3s",
    "l2_ave123",
    "l2_ave_all",
    "heading_1s",
    "heading_2s",
    "heading_3s",
    "heading_ave123",
    "heading_ave_all",
    "lonw_1s",
    "lonw_2s",
    "lonw_3s",
    "lonw_ave123",
    "lonw_ave_all",
    "collision_pct",
    "n_samples",
    "n_masked",
]


def report_csv(report: MetricReport) -> str:
    """Single-row CSV in the fixed table layout (1s/2s/3s/ave123/ave_all per
    metric family, then collision percent)."""

    def cells(hv: Optional[HorizonValues]) -> list:
        if hv is None:
            return [""] * 5
        return [
            f"{v:.6f}" for v in (hv.at[1], hv.at[2], hv.at[3], hv.ave123, hv.ave_all)
        ]

    row = (
        cells(report.l2)
        + cells(report.heading)
        + cells(report.lon_weighted)
        + [
            ""
            if report.collision_rate_ave_all is None
            else f"{report.collision_rate_ave_all:.6f}",
            str(report.n_samples),
            str(report.n_masked),
        ]
    )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerow(row)
    return buf.getvalue()
