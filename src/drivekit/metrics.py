"""Open-loop plan evaluation: L2 variants, heading error, longitudinal-
weighted error, collision rate, frame masking, exact assignment, and
grounding precision/recall.

Plans are 6 waypoints at 0.5 s steps over 3 s in the anchor ego frame. Each
metric takes one (6, 2) plan or an (N, 6, 2) stack and reports the per-step
mean over the stack at 1/2/3 s plus the mean over those three (ave123) and
over all six steps (ave_all).

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
from .errors import AlignError, ParamError, SchemaError, as_finite, as_int
from .geometry import from_frame, libm, obb_corners, obb_overlap
from .scene import PLAN_STEPS, Scene, _points, frames_per_step, wrap_angles

_HORIZON_INDEX = {1: 1, 2: 3, 3: 5}  # seconds -> step index


def _as_plans(*plans) -> list:
    """Each argument as floats of one shape, a (6, 2) plan or an (N, 6, 2)
    stack of N >= 1 plans; AlignError otherwise, so a stack never broadcasts
    against a plan."""
    arrs = [np.asarray(plan, dtype=float) for plan in plans]
    shape, shapes = arrs[0].shape, [arr.shape for arr in arrs]
    if shape[-2:] != (PLAN_STEPS, 2) or len(shape) > 3 or 0 in shape or len(set(shapes)) > 1:
        raise AlignError(f"plans must be ({PLAN_STEPS}, 2) or (N, {PLAN_STEPS}, 2), got {shapes}")
    return arrs


def headings_xy(xy, eps_move: float = Config.eps_move) -> np.ndarray:
    """Per-point headings of (..., K, 2) positions in the anchor ego frame, as
    a (..., K) array.

    heading_k points along segment k -> k+1; the final point repeats the last
    segment heading; segments shorter than eps_move carry the previous heading
    forward, starting from the anchor heading 0.
    """
    xy = np.asarray(xy, dtype=float)
    # one segment per point; the final point's is empty and never moves
    dx, dy = np.moveaxis(np.diff(xy, axis=-2, append=xy[..., -1:, :]), -1, 0)
    moves = ~(libm(math.hypot, dx, dy) < eps_move)  # a NaN length moves
    moves[..., -1:] = False
    # per point, the last moving segment up to it, or -1 for the anchor
    last = np.maximum.accumulate(np.where(moves, np.arange(xy.shape[-2]), -1), axis=-1)
    headings = wrap_angles(libm(math.atan2, dy, dx))
    return np.where(last < 0, 0.0, np.take_along_axis(headings, np.maximum(last, 0), axis=-1))


@dataclass(frozen=True)
class HorizonValues:
    at: dict  # horizon seconds -> value
    ave123: float
    ave_all: float
    per_step: tuple

    @classmethod
    def from_steps(cls, steps: np.ndarray) -> "HorizonValues":
        """Horizons of one plan's (6,) per-step values, or of the per-step
        mean of an (N, 6) stack's."""
        steps = np.mean(steps, axis=0) if steps.ndim == 2 else steps
        at = {h: float(steps[i]) for h, i in _HORIZON_INDEX.items()}
        return cls(
            at=at,
            ave123=float(np.mean([at[1], at[2], at[3]])),
            ave_all=float(np.mean(steps)),
            per_step=tuple(float(v) for v in steps),
        )


def traj_l2(pred, gt) -> HorizonValues:
    p, g = _as_plans(pred, gt)
    return HorizonValues.from_steps(np.hypot(*np.moveaxis(p - g, -1, 0)))


def heading_l2(pred, gt, eps_move: float = Config.eps_move) -> HorizonValues:
    p, g = _as_plans(pred, gt)
    # plans sit in the anchor ego frame, whose heading is 0
    err = np.abs(wrap_angles(headings_xy(p, eps_move) - headings_xy(g, eps_move)))
    return HorizonValues.from_steps(err)


def lon_weighted_l2(
    pred, gt, w_lon: float = Config.w_lon, eps_move: float = Config.eps_move
) -> HorizonValues:
    p, g = _as_plans(pred, gt)
    hg = headings_xy(g, eps_move)
    c, s = libm(math.cos, hg), libm(math.sin, hg)
    e0, e1 = np.moveaxis(p - g, -1, 0)
    lon = e0 * c + e1 * s
    lat = -e0 * s + e1 * c
    return HorizonValues.from_steps(libm(math.hypot, w_lon * lon, lat))


# --------------------------------------------------------------------------
# collision


# (agent, plan, step) triples per separating-axis call, each with about 1 KB of
# working arrays: a 100-agent scene tests one plan per call, which keeps peak
# RSS at the one-plan level, and a scene of at most 4 agents 21 or more
_SAT_TRIPLES = 512


def plan_collision_fraction(scene: Scene, frame, plan, eps_move: float = Config.eps_move):
    """Fraction of the 6 steps whose ego footprint overlaps any other agent's
    ground-truth box at that timestamp (separating-axis test).

    A frame and a (6, 2) plan give a float; (N,) frames and an (N, 6, 2)
    stack give (N,) fractions, each the one-plan value. Steps past the scene's
    last frame overlap nothing. A frame outside the scene is an AlignError.
    """
    (plans,) = _as_plans(plan)
    frames = np.asarray(frame)
    if frames.shape != plans.shape[:-2] or frames.dtype.kind not in "iu":
        raise AlignError(f"frames must be int{plans.shape[:-2]}, got {frames.dtype}{frames.shape}")
    bad = frames[(frames < 0) | (frames >= scene.n_frames)]
    if bad.size:
        raise AlignError(f"frame {bad[0]} is outside scene {scene.id} of {scene.n_frames} frames")
    plans, frames = plans.reshape(-1, PLAN_STEPS, 2), frames.reshape(-1)
    anchors = [scene.ego.pose(f) for f in frames.tolist()]
    ego_boxes = obb_corners(  # (N, 6, 4, 2)
        np.stack([from_frame(wp, anchor) for wp, anchor in zip(plans, anchors)]),
        wrap_angles(headings_xy(plans, eps_move) + [[anchor.heading] for anchor in anchors]),
        *scene.ego.arrays["box"][frames].T[..., None],  # (N, 1) lengths and widths
    )
    # the scene frame of each plan step, and whether it lies inside the scene
    at = frames[:, None] + scene.plan_stride * np.arange(1, PLAN_STEPS + 1)
    inside = at < scene.n_frames
    hit = np.zeros(at.shape, dtype=bool)
    per_call = max(1, _SAT_TRIPLES // (PLAN_STEPS * max(1, len(scene.agents))))
    for lo in range(0, len(plans), per_call):
        rows = slice(lo, lo + per_call)
        states = scene.agent_arrays[:, np.minimum(at[rows], scene.n_frames - 1)]
        agent, row, step = np.nonzero(states["valid"] & inside[rows])
        s = states[agent, row, step]
        agent_boxes = obb_corners(s["xy"], s["heading"], s["box"][:, 0], s["box"][:, 1])
        overlap = obb_overlap(ego_boxes[rows][row, step], agent_boxes)
        hit[lo + row[overlap], step[overlap]] = True
    fractions = np.count_nonzero(hit, axis=1) / PLAN_STEPS
    return float(fractions[0]) if np.ndim(frame) == 0 else fractions


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
        as_int(self.frame, "plan sample frame")
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


def evaluate_plans(plans, scenes: Dict[str, Scene], config: Config) -> MetricReport:
    """Full open-loop protocol: mask incomplete futures, score the kept plans
    as one stack against the resampled ground-truth ego futures, average."""
    # imported here, not at module level: planners imports this module
    from .planners import ego_future_waypoints

    kept, masked = apply_frame_mask(plans, scenes)
    if not kept:
        return MetricReport(None, None, None, None, n_samples=0, n_masked=masked)
    kept = sorted(kept, key=lambda p: (p.scene_id, p.frame))
    pred = np.array([sample.waypoints for sample in kept], dtype=float)
    gt = np.array([ego_future_waypoints(scenes[s.scene_id], s.frame) for s in kept])
    frames = np.array([sample.frame for sample in kept])
    # one collision call per scene, on its run of the sorted stack
    starts = [i for i, s in enumerate(kept) if i == 0 or s.scene_id != kept[i - 1].scene_id]
    fractions = [
        plan_collision_fraction(scenes[kept[i].scene_id], f, p, config.eps_move)
        for i, f, p in zip(starts, np.split(frames, starts[1:]), np.split(pred, starts[1:]))
    ]
    return MetricReport(
        l2=traj_l2(pred, gt),
        heading=heading_l2(pred, gt, config.eps_move),
        lon_weighted=lon_weighted_l2(pred, gt, config.w_lon, config.eps_move),
        collision_rate_ave_all=100.0 * float(np.mean(np.concatenate(fractions))),
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
