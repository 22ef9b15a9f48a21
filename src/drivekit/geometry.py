"""Polyline arc-length parametrization, Frenet projection, lane association,
and the oriented-box primitives shared by the collision and corridor checks.

Sign convention: lateral offset d > 0 on the left of the travel direction.
Projections beyond a polyline end clamp s to [0, L] and measure d to the
clamped point, so longitudinal ordering stays well-defined off the ends.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import Config
from .scene import AgentCategory, Lane, Pose2, wrap_angles

# categories whose headings are unreliable; they skip the alignment test
POSITION_ONLY_CATEGORIES = frozenset(
    {AgentCategory.PEDESTRIAN, AgentCategory.TRAFFIC_CONE, AgentCategory.BARRIER}
)


@dataclass(frozen=True)
class FrenetCoord:
    s: float  # meters along the polyline from its start
    d: float  # signed lateral offset, positive left
    segment_index: int


def cumulative_lengths(pts: np.ndarray) -> np.ndarray:
    seg = np.hypot(np.diff(pts[:, 0]), np.diff(pts[:, 1]))
    return np.concatenate(([0.0], np.cumsum(seg)))


@dataclass(frozen=True, eq=False)
class LaneIndex:
    """Array view of a set of lanes for the batched projection and
    association kernels, built once per scene pass and passed explicitly.

    Lanes run in id order. Segment arrays stack every lane's centerline
    segments back to back; lane k owns segments ``first[k]`` up to
    ``first[k + 1]``. Each per-lane quantity is computed with the expression
    the one-lane projection uses, so results do not depend on which other
    lanes share the index. Every ``len2`` and ``seg_len`` is positive and
    finite, since `Lane` admits no other segment.
    """

    ids: tuple  # lane ids, ascending
    by_id: dict  # lane id -> Lane
    lengths: dict  # lane id -> centerline length (cumulative_lengths)
    half_widths: np.ndarray  # (L,)
    first: np.ndarray  # (L,) index of each lane's first segment
    lane_of: np.ndarray  # (S,) lane position of each segment
    starts: np.ndarray  # (S, 2) segment start points
    vectors: np.ndarray  # (S, 2) segment end minus start
    len2: np.ndarray  # (S,) squared segment lengths
    seg_len: np.ndarray  # (S,) segment lengths
    cum: np.ndarray  # (S,) arc length at each segment start
    tangents: np.ndarray  # (S,) segment headings

    @classmethod
    def build(cls, lanes) -> "LaneIndex":
        lanes = sorted(lanes, key=lambda ln: ln.id)
        pts = [np.asarray(lane.centerline, dtype=float) for lane in lanes]
        counts = np.array([len(p) - 1 for p in pts], dtype=np.intp)
        first = np.cumsum(counts) - counts
        points, values = np.empty((0, 2)), np.empty(0)  # a scene may have no lanes
        vectors = np.concatenate([points, *(p[1:] - p[:-1] for p in pts)])
        len2 = np.einsum("ij,ij->i", vectors, vectors)
        seg_len = np.sqrt(len2)
        # arc length at each segment start, summed along its own lane
        cum = [np.cumsum(seg_len[a : a + k - 1]) for a, k in zip(first.tolist(), counts.tolist())]
        return cls(
            ids=tuple(lane.id for lane in lanes),
            by_id={lane.id: lane for lane in lanes},
            lengths={lane.id: float(cumulative_lengths(p)[-1]) for lane, p in zip(lanes, pts)},
            half_widths=np.array([lane.half_width for lane in lanes], dtype=float),
            first=first,
            lane_of=np.repeat(np.arange(len(lanes)), counts),
            starts=np.concatenate([points, *(p[:-1] for p in pts)]),
            vectors=vectors,
            len2=len2,
            seg_len=seg_len,
            cum=np.concatenate([values, *(np.concatenate(([0.0], c)) for c in cum)]),
            tangents=np.array([math.atan2(dy, dx) for dx, dy in vectors.tolist()], dtype=float),
        )


# (pose, segment) pairs per _project call: its working arrays stay at
# 64-128 KB, small enough that the allocator reuses heap memory for them
# instead of mapping fresh pages for every chunk
_PAIRS_PER_BATCH = 1 << 13


def _project(xy: np.ndarray, index: LaneIndex):
    """Project P points onto every lane of the index.

    Returns (s, d, seg), each (P, L): arc length, signed lateral offset and
    the stacked index of the chosen segment. Per lane the smallest squared
    distance wins, then the smallest s, then the lowest segment index.
    """
    n_pts, n_seg = len(xy), len(index.starts)
    # coordinates run as separate (P, S) planes; the dot products go through
    # the one-lane code's einsum over interleaved (x, y) rows
    px, py = xy[:, 0:1], xy[:, 1:2]
    (ax, ay), (vx, vy) = index.starts.T, index.vectors.T
    rel = np.stack((px - ax, py - ay), axis=-1).reshape(-1, 2)
    vv = np.broadcast_to(index.vectors, (n_pts, n_seg, 2)).reshape(-1, 2)
    t = np.clip(np.einsum("ij,ij->i", rel, vv).reshape(n_pts, n_seg) / index.len2, 0.0, 1.0)
    dx = px - (ax + t * vx)
    dy = py - (ay + t * vy)
    flat = np.stack((dx, dy), axis=-1).reshape(-1, 2)
    dist2 = np.einsum("ij,ij->i", flat, flat).reshape(n_pts, n_seg)
    s_cand = index.cum + t * index.seg_len

    lane_of, first = index.lane_of, index.first
    tie = dist2 == np.minimum.reduceat(dist2, first, axis=1)[:, lane_of]
    s_tie = np.where(tie, s_cand, np.inf)
    pick = s_tie == np.minimum.reduceat(s_tie, first, axis=1)[:, lane_of]
    seg = np.minimum.reduceat(np.where(pick, np.arange(n_seg), n_seg), first, axis=1)

    rows = np.arange(n_pts)[:, None]
    cross = vx[seg] * dy[rows, seg] - vy[seg] * dx[rows, seg]
    dist = np.sqrt(dist2[rows, seg])
    signed = np.where(cross > 0, dist, np.where(cross < 0, -dist, 0.0))
    return s_cand[rows, seg], signed, seg


def project_to_polyline(point, polyline) -> FrenetCoord:
    """Global minimum-distance projection; equidistant candidates take the
    smallest s, then the lowest segment index. The polyline is taken as a
    `Lane` centerline, so one that `Lane` rejects (fewer than two points, a
    repeated point, a segment whose squared length is 0 or inf) raises
    SchemaError."""
    index = LaneIndex.build([Lane(0, polyline, 1.0)])
    s, d, seg = _project(np.asarray([point], dtype=float), index)
    return FrenetCoord(s=float(s[0, 0]), d=float(d[0, 0]), segment_index=int(seg[0, 0]))


def associate_lane(xy, heading, index: LaneIndex, config: Config, check_heading=True):
    """Best eligible lane for each of P poses, given as (P, 2) positions and
    (P,) wrapped headings.

    Returns (lane, s, d), each of shape (P,): the lane id and the arc length
    and signed lateral offset on it, or -1, NaN and NaN where no lane is
    eligible (NOTON downstream). Eligible: |d| <= half_width + margin and,
    where check_heading holds (one bool for every pose, or one per pose),
    heading within theta_align of the tangent of the projected segment.
    Minimum |d| wins; ties break by lane id order.
    """
    xy = np.asarray(xy, dtype=float).reshape(-1, 2)
    heading = np.asarray(heading, dtype=float)
    check = np.broadcast_to(np.asarray(check_heading, dtype=bool), heading.shape)
    pos = np.full(len(xy), -1)  # position of each pose's lane in the index
    s, d = np.full(len(xy), np.nan), np.full(len(xy), np.nan)
    if not index.ids:
        return pos, s, d
    # bound the (pose, segment) working arrays on long tracks and large maps;
    # only per-pose results leave a chunk
    step = max(1, _PAIRS_PER_BATCH // len(index.starts))
    for lo in range(0, len(xy), step):
        rows = slice(lo, lo + step)
        s_all, d_all, seg = _project(xy[rows], index)
        absd = np.abs(d_all)
        misalign = np.abs(wrap_angles(heading[rows, None] - index.tangents[seg]))
        ok = (absd <= index.half_widths + config.lane_margin) & (
            (misalign <= config.theta_align) | ~check[rows, None]
        )
        best = np.argmin(np.where(ok, absd, np.inf), axis=1)
        picked = np.arange(len(best)), best
        hit = ok[picked]
        pos[rows] = np.where(hit, best, -1)
        s[rows] = np.where(hit, s_all[picked], np.nan)
        d[rows] = np.where(hit, d_all[picked], np.nan)
    # position -1 reads the appended -1; lane ids beyond int64 stay Python ints
    ids = np.array(index.ids + (-1,), dtype=np.int64 if index.ids[-1] < 2**63 else object)
    return ids[pos], s, d


# --------------------------------------------------------------------------
# rigid transforms


def to_frame(xy, origin: Pose2) -> np.ndarray:
    """Transform world points into the frame anchored at origin."""
    pts = np.asarray(xy, dtype=float)
    c, s = math.cos(origin.heading), math.sin(origin.heading)
    dx = pts[..., 0] - origin.x
    dy = pts[..., 1] - origin.y
    return np.stack((c * dx + s * dy, -s * dx + c * dy), axis=-1)


def from_frame(xy, origin: Pose2) -> np.ndarray:
    """Transform frame-local points back into the world."""
    pts = np.asarray(xy, dtype=float)
    c, s = math.cos(origin.heading), math.sin(origin.heading)
    x = origin.x + c * pts[..., 0] - s * pts[..., 1]
    y = origin.y + s * pts[..., 0] + c * pts[..., 1]
    return np.stack((x, y), axis=-1)


# --------------------------------------------------------------------------
# oriented boxes


def _rotations(heading) -> tuple:
    """cos and sin of each heading, from libm one value at a time, so a box
    gets the same bits alone or in a batch; numpy's vectorized trig does not
    promise libm's results."""
    h = np.asarray(heading, dtype=float)
    c = np.array([math.cos(x) for x in h.ravel().tolist()], dtype=float).reshape(h.shape)
    s = np.array([math.sin(x) for x in h.ravel().tolist()], dtype=float).reshape(h.shape)
    return c, s


# corner signs of a box, counter-clockwise from front-left
_CORNER_SIGNS = np.array([(1.0, 1.0), (1.0, -1.0), (-1.0, -1.0), (-1.0, 1.0)])


def _local_corners(length, width, shape) -> np.ndarray:
    """Box corners in the box frame, shape + (4, 2)."""
    hl = np.broadcast_to(0.5 * np.asarray(length, dtype=float), shape)
    hw = np.broadcast_to(0.5 * np.asarray(width, dtype=float), shape)
    return np.stack((hl, hw), axis=-1)[..., None, :] * _CORNER_SIGNS


def obb_corners(center, heading, length, width) -> np.ndarray:
    """Corners of oriented boxes, counter-clockwise from front-left.

    Scalars give one (4, 2) box; N headings with (N, 2) centers give
    (N, 4, 2), with lengths and widths either per box or shared.
    """
    c, s = _rotations(heading)
    local = _local_corners(length, width, c.shape)
    rot = np.stack((c, -s, s, c), axis=-1).reshape(c.shape + (2, 2))
    # one matmul per box, the same BLAS call a single box makes
    return local @ np.swapaxes(rot, -1, -2) + np.asarray(center, dtype=float)[..., None, :]


def obb_overlap(corners_a: np.ndarray, corners_b: np.ndarray):
    """Separating-axis test for rectangles given as corner quads; touching
    counts as overlap. Broadcasts over leading axes, so one box tests against
    (N, 4, 2) boxes at once."""
    corners_a, corners_b = np.broadcast_arrays(corners_a, corners_b)
    # each rectangle has two unique edge directions; their normals are the
    # candidate separating axes
    edges = np.concatenate(
        (
            corners_a[..., 1:3, :] - corners_a[..., 0:2, :],
            corners_b[..., 1:3, :] - corners_b[..., 0:2, :],
        ),
        axis=-2,
    )
    ax = -edges[..., :, 1:2]
    ay = edges[..., :, 0:1]
    pa = corners_a[..., None, :, 0] * ax + corners_a[..., None, :, 1] * ay  # (..., axis, corner)
    pb = corners_b[..., None, :, 0] * ax + corners_b[..., None, :, 1] * ay
    separated = (pa.max(-1) < pb.min(-1)) | (pb.max(-1) < pa.min(-1))
    return ~separated.any(-1)


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise u @ v over the last axis through matmul, which makes the
    BLAS dot call a 1-D ``u @ v`` makes (fused multiply-add included)."""
    return np.matmul(u[..., None, :], v[..., :, None])[..., 0, 0]


def _point_segment_distance(p, a, b) -> np.ndarray:
    ab = b - a
    len2 = _dot(ab, ab)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.clip(_dot(p - a, ab) / len2, 0.0, 1.0)
    t = np.where(len2 == 0.0, 0.0, t)  # degenerate segment: distance to a
    q = p - (a + t[..., None] * ab)
    return np.hypot(q[..., 0], q[..., 1])


def _orient(a, b, c) -> np.ndarray:
    return (b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1]) - (b[..., 1] - a[..., 1]) * (
        c[..., 0] - a[..., 0]
    )


def polyline_obb_distance(pts, center, heading, length, width):
    """Exact distance from a polyline to oriented boxes, zero when they touch.

    Scalars give one float; arrays of N headings, lengths and widths with
    (N, 2) centers give (N,) distances. Per segment and box edge the distance
    is zero on a proper crossing and otherwise the minimum over the four
    endpoint-to-segment distances; touching or collinear contact shows as a
    zero endpoint distance.
    """
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    scalar = np.ndim(heading) == 0
    centers = np.asarray(center, dtype=float).reshape(-1, 2)
    headings = np.asarray(heading, dtype=float).reshape(-1)
    lengths = np.asarray(length, dtype=float).reshape(-1)
    widths = np.asarray(width, dtype=float).reshape(-1)

    # polyline points in each box frame, (N, K, 2), with headings wrapped as
    # Pose2 wraps them
    c, s = _rotations(wrap_angles(headings))
    dx = pts[None, :, 0] - centers[:, 0:1]
    dy = pts[None, :, 1] - centers[:, 1:2]
    c, s = c[:, None], s[:, None]
    local = np.stack((c * dx + s * dy, -s * dx + c * dy), axis=-1)
    rect = _local_corners(lengths, widths, headings.shape)[:, None]  # (N, 1, 4, 2)
    if len(pts) == 1:
        # one point: libm hypot of its gaps outside the box, per box
        gaps = np.maximum(np.abs(local[:, 0]) - rect[:, 0, 0], 0.0)  # corner 0 is (hl, hw)
        out = np.array([math.hypot(gx, gy) for gx, gy in gaps.tolist()], dtype=float)
        return float(out[0]) if scalar else out
    inside = (np.abs(local) <= rect[:, :, 0, :]).all(axis=-1)

    e0, e1 = rect, rect[..., [1, 2, 3, 0], :]  # box edges
    a = local[:, :-1, None, :]  # segment starts, (N, M, 1, 2)
    b = local[:, 1:, None, :]
    crossing = (
        ((_orient(e0, e1, a) > 0) != (_orient(e0, e1, b) > 0))
        & ((_orient(a, b, e0) > 0) != (_orient(a, b, e1) > 0))
    ).any(axis=-1)
    to_edges = _point_segment_distance(local[:, :, None, :], e0, e1).min(axis=-1)  # (N, K)
    to_corners = _point_segment_distance(rect, a, b).min(axis=-1)  # (N, M)
    seg = np.minimum(np.minimum(to_edges[:, :-1], to_edges[:, 1:]), to_corners)
    seg = np.where(inside[:, :-1] | inside[:, 1:] | crossing, 0.0, seg)
    out = seg.min(axis=1)
    return float(out[0]) if scalar else out
