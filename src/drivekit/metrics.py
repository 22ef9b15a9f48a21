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
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .config import Config
from .errors import AlignError, ParamError, SchemaError, as_finite, is_int
from .geometry import from_frame, obb_corners, obb_overlap
from .scene import PLAN_STEPS, Scene, _points, frames_per_step, wrap_angle

_HORIZON_INDEX = {1: 1, 2: 3, 3: 5}  # seconds -> step index
_FORBIDDEN = 1e12


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
    err = np.array([abs(wrap_angle(a - b)) for a, b in zip(hp, hg)])
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
    optima the lexicographically smallest assignment vector wins (None sorts
    after every real column), so output is deterministic. The total is the
    float sum of the assigned costs added in row order, so two assignments
    whose totals round to the same float are equal-cost.
    """
    c = np.asarray(cost_matrix, dtype=float)
    if c.ndim != 2:
        raise ValueError("cost matrix must be 2-D")
    n, m = c.shape
    if n == 0 or m == 0:
        return [None] * n
    if not np.all(np.isfinite(c)):
        raise ValueError("costs must be finite")

    # zero-cost columns after the real ones stand for "unassigned"
    full = np.hstack([c, np.zeros((n, max(n - m, 0)))])
    # an optimum of rows i.. is, on rows i+1.., an optimum of the columns its
    # row i leaves free, so one solve carries down the rows and only the walk
    # solves again
    assign = linear_sum_assignment(full)[1]
    # a row whose duals rule out a tie on every free lower column keeps its
    # column, as its walk would stop at the first solve; most assignments
    # have no row that could walk, so the duals wait for the first one
    may_tie = None
    avail = list(range(full.shape[1]))  # free columns, ascending
    fixed = 0.0  # row-order total of the rows already fixed
    result: List[Optional[int]] = []
    for i in range(n):
        k = bisect_left(avail, m)  # free real columns
        # a row on a zero-cost column is unassigned; those columns are
        # interchangeable, so its pick is the first free one
        pick = k if assign[i] >= m else bisect_left(avail, assign[i])
        if pick > 0 and may_tie is None:
            may_tie = _may_tie(full, assign, m, full)
        if pick > 0 and may_tie[i]:
            # walk row i down to the lowest column that still admits an optimum
            cols = np.array(avail)
            sub = full[i:, cols]
            rows = np.arange(n - i)
            cost = _row_order_total(fixed, full[rows + i, assign[i:]])
            start = pick
            while pick > 0:
                sub[0, pick:] = np.inf
                lower = linear_sum_assignment(sub)[1]
                lower_cost = _row_order_total(fixed, sub[rows, lower])
                if lower_cost > cost:
                    break
                pick, cost = int(lower[0]), lower_cost
                assign[i:] = cols[lower]
            if pick < start:  # the carried assignment moved: certify it anew
                local = np.searchsorted(cols, assign[i:])
                may_tie[i:] = _may_tie(full[i:, cols], local, k, full)
        fixed += full[i, avail[pick]]
        result.append(avail[pick] if pick < k else None)
        del avail[pick]
    return result


def _may_tie(c: np.ndarray, a: np.ndarray, k: int, full: np.ndarray) -> np.ndarray:
    """Per row of `c`, whether an assignment with the row on a free lower
    column might tie the assignment `a` (row r on column a[r]); True for
    every row when unsure.

    The first `k` columns of `c` are real, the rest stand for "unassigned".
    Row r's free lower columns are the real ones below a[r] (all real ones if
    it is unassigned) that no earlier row holds. `c` is taken from `full`,
    whose costs make up the totals the walk compares.
    """
    n, cmax = len(full), np.abs(full).max()
    rows, width = np.arange(len(c)), c.shape[1]
    unsure = np.ones(len(c), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        # linear-programming duals: u[r] + v[j] <= c[r, j] and v <= 0, with
        # equality on the assignment; Bellman-Ford over the columns finds v,
        # and settles within len(c) + 1 passes only if `a` is an optimum
        v = np.zeros(width)
        for _ in range(len(c) + 1):
            u = c[rows, a] - v[a]
            settled = np.minimum(v, (c - u[:, None]).min(axis=0))
            if not (settled < v).any():
                break
            v = settled
        else:
            return unsure
        reduced = c - u[:, None] - v
        # Any assignment s of the rows of c totals exactly a's total plus
        # its reduced costs, minus a's, plus v on the columns only s takes,
        # minus v on the columns only `a` takes. So s totals more than `a`
        # by more than the float errors below if one reduced cost of s, or
        # one -v[f] on a column f only `a` takes, is above tol. With unit =
        # 2^-52 (cmax + max|u| + max|v|), plus a floor for subnormals:
        #   unit       the rounding of that reduced cost;
        #   n unit     the other exact reduced costs of s, each >= -unit/2
        #              as Bellman-Ford settled, and a's own, each <= unit/2
        #              (-v >= 0 on the other columns only `a` takes);
        #   n slack    v >= -slack on the columns `a` leaves unused, and s
        #              takes at most n of them;
        #   n^2 unit   both row-order totals of n costs, each within
        #              (n - 1) 2^-53 n cmax of its exact value.
        # With slack = (n + 2) unit these add up to less than tol, as long
        # as no total of n costs overflows.
        scale = cmax + np.abs(u).max() + np.abs(v).max()
        unit = 2.0**-52 * scale + 2.0**-1074
        tol = 3 * (n + 2) ** 2 * unit
        owner = np.full(width, len(c))
        owner[a] = rows
        unused = owner == len(c)
        if not (np.isfinite(reduced).all() and np.isfinite((n + 2) * scale)) or (
            unused.any() and v[unused].min() < -(n + 2) * unit
        ):
            return unsure
    # s differs from `a` by chains of moves: row r leaves a[r] for j, j's
    # row (if any) moves on, and so on, until the chain closes back on a[r]
    # or ends on an unused column. The latter chain starts from a column f
    # that s leaves free: a[r], or the column of a row that moved into a[r],
    # and so on back. s ties only if every move and -v[f] are within tol.
    tight = reduced <= tol
    lower = (np.arange(width) < np.minimum(a, k)[:, None]) & (owner >= rows[:, None])
    # step[x, y]: the row on column x moves to column y within tol; node
    # `width` closes the chains that end on an unused column, leading on to
    # each column f with v[f] >= -tol
    step = np.zeros((width + 1, width + 1), dtype=bool)
    step[a, :width] = tight
    step[a, a] = False  # staying put is no move
    step[:width, width] = unused
    step[width, :width] = v >= -tol
    # a tie's moves form a cycle of steps: drop every column that no step
    # from a kept column enters or that no step to a kept column leaves
    kept = np.ones(width + 1, dtype=bool)
    while True:
        on = kept & (step & kept[:, None]).any(axis=0) & (step & kept).any(axis=1)
        if (on == kept).all():
            break
        kept = on
    return (tight & lower & kept[:width]).any(axis=1) & kept[a]


def _row_order_total(fixed: float, costs: np.ndarray) -> float:
    """`fixed` plus `costs`, added one at a time in row order (`.sum()` adds
    pairwise, which can round to a different float)."""
    return float(np.add.accumulate(np.concatenate(([fixed], costs)))[-1])


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
