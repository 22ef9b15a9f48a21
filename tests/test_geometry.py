import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import RigidMotion, point_obb_distance, scene_of, state, straight_lane
from drivekit.config import Config
from drivekit.errors import SchemaError
import drivekit.geometry
from drivekit.geometry import (
    FrenetCoord,
    LaneIndex,
    associate_lane,
    obb_corners,
    obb_overlap,
    polyline_obb_distance,
    project_to_polyline,
    to_frame,
)
from drivekit.planners import lane_follow_planner
from drivekit.scene import Lane, Pose2, wrap_angle


def brute_force_min_distance(point, polyline, n_samples=10_000):
    """Oracle: nearest distance over densely, uniformly (by arc length)
    sampled polyline points."""
    pts = np.asarray(polyline, dtype=float)
    seg = np.hypot(*np.diff(pts, axis=0).T)
    cum = np.concatenate(([0.0], np.cumsum(seg)))
    s = np.linspace(0.0, cum[-1], n_samples)
    x = np.interp(s, cum, pts[:, 0])
    y = np.interp(s, cum, pts[:, 1])
    d = np.hypot(x - point[0], y - point[1])
    i = int(np.argmin(d))
    return float(d[i]), float(s[i])


def random_polyline(rng, n_pts=None):
    n = n_pts or int(rng.integers(2, 10))
    steps = rng.uniform(0.5, 8.0, size=(n - 1, 1)) * _unit(rng.uniform(-np.pi, np.pi, n - 1))
    return np.vstack([rng.uniform(-20, 20, 2), steps]).cumsum(axis=0)


def _unit(angles):
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


def test_straight_line_closed_form():
    fc = project_to_polyline((5.0, 2.0), [(0.0, 0.0), (10.0, 0.0)])
    assert fc.s == 5.0
    assert fc.d == 2.0
    assert fc.segment_index == 0


def test_beyond_end_clamps():
    fc = project_to_polyline((12.0, 1.0), [(0.0, 0.0), (10.0, 0.0)])
    assert fc.s == 10.0
    assert abs(abs(fc.d) - math.hypot(2.0, 1.0)) < 1e-12
    assert fc.d > 0  # left of travel direction
    # oracle agrees the nearest point is the endpoint
    d_oracle, s_oracle = brute_force_min_distance((12.0, 1.0), [(0.0, 0.0), (10.0, 0.0)])
    assert abs(d_oracle - abs(fc.d)) < 1e-3
    assert abs(s_oracle - fc.s) < 1e-2


def test_equidistant_tie_takes_smaller_s():
    # right-angle polyline; (1, 1) is exactly 1.0 from both legs
    poly = [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0)]
    fc = project_to_polyline((1.0, 1.0), poly)
    assert fc.s == 1.0
    assert fc.segment_index == 0


def test_a_repeated_point_is_a_schema_error():
    # the polyline is taken as a Lane centerline, which has no zero-length segment
    poly = [(0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
    with pytest.raises(SchemaError, match=r"^lane 0: centerline segment 1 has squared length 0\.0"):
        project_to_polyline((1.5, 1.0), poly)


def test_sign_convention_right_of_travel_is_negative():
    fc = project_to_polyline((5.0, -2.0), [(0.0, 0.0), (10.0, 0.0)])
    assert fc.d == -2.0


def test_projection_matches_brute_force_on_random_pairs():
    rng = np.random.default_rng(7)
    for _ in range(100):
        poly = random_polyline(rng)
        total = float(np.hypot(*np.diff(poly, axis=0).T).sum())
        point = rng.uniform(-30, 30, 2)
        fc = project_to_polyline(point, poly)
        d_oracle, _ = brute_force_min_distance(point, poly)
        spacing = total / 10_000
        assert abs(fc.d) <= d_oracle + 1e-9
        assert d_oracle - abs(fc.d) <= spacing / 2 + 1e-6


def test_s_monotone_for_point_sliding_parallel():
    poly = [(0.0, 0.0), (30.0, 0.0), (60.0, 0.0)]
    xs = np.linspace(-5.0, 65.0, 40)
    ss = [project_to_polyline((x, 1.3), poly).s for x in xs]
    assert all(b >= a for a, b in zip(ss, ss[1:]))


def test_point_at_arclength_interpolates_and_extends(config):
    # the lane walk of lane_follow_planner: from s = 0 at 10 m/s its steps
    # sit at s = 5, 10, ..., 30, and the ego frame is the world frame
    lane = Lane(id=1, centerline=((0.0, 0.0), (10.0, 0.0), (10.0, 10.0)), half_width=1.85)
    scene = scene_of([lane], [], [state(0.0, 0.0, 0.0, 10.0)] * 2)
    plan = lane_follow_planner(scene, 0, config=config).tolist()
    assert plan[0] == [5.0, 0.0]
    assert plan[2] == [10.0, 5.0]
    assert plan[4] == [10.0, 15.0]  # past the end: along the final tangent


# --------------------------------------------------------------------------
# lane association


def associate(poses, index, config, check_heading=True):
    """associate_lane over a list of Pose2."""
    xy = [(p.x, p.y) for p in poses]
    return associate_lane(xy, [p.heading for p in poses], index, config, check_heading)


def per_pose(assoc):
    """The (lane, s, d) of each pose in an associate_lane result."""
    return list(zip(*(a.tolist() for a in assoc)))


def lane_of(pose, lanes, config, check_heading=True):
    """Associated lane id of one pose, or None."""
    [(lane, _, _)] = per_pose(associate([pose], LaneIndex.build(lanes), config, check_heading))
    return lane if lane >= 0 else None


def test_agent_on_centerline_associates(config):
    lanes = [straight_lane(1, y=0.0), straight_lane(2, y=3.7)]
    assert lane_of(Pose2(20.0, 0.0, 0.0), lanes, config) == 1


def test_lane_ids_beyond_int64_come_back_whole(config):
    lanes = [straight_lane(2**64 + 1, y=0.0), straight_lane(2**63 + 1, y=3.7)]
    poses = [Pose2(20.0, 0.0, 0.0), Pose2(20.0, 3.7, 0.0), Pose2(20.0, 10.0, 0.0)]
    lane, _, _ = associate(poses, LaneIndex.build(lanes), config)
    assert lane.tolist() == [2**64 + 1, 2**63 + 1, -1]


def test_parking_lot_agent_has_no_lane(config):
    lanes = [straight_lane(1, y=0.0)]
    assert lane_of(Pose2(20.0, 10.0, 0.0), lanes, config) is None


def test_heading_misalignment_blocks_association(config):
    lanes = [straight_lane(1, y=0.0)]
    assert lane_of(Pose2(20.0, 0.0, math.pi), lanes, config) is None
    # but heading is ignored for position-only categories
    assert lane_of(Pose2(20.0, 0.0, math.pi), lanes, config, check_heading=False) == 1


def test_between_lanes_min_abs_d_wins(config):
    # lane 1 at y=0, lane 2 at y=3.7; pose at y=2.25: d1=2.25 (eligible:
    # 2.25 <= 1.85+0.5=2.35), d2=1.45 -> lane 2 wins by min |d|
    lanes = [straight_lane(1, y=0.0, left=2), straight_lane(2, y=3.7, right=1)]
    pose = Pose2(20.0, 2.25, 0.0)
    # exhaustive check over both candidates
    cands = {}
    for lane in lanes:
        fc = project_to_polyline((pose.x, pose.y), lane.centerline)
        if abs(fc.d) <= lane.half_width + config.lane_margin:
            cands[lane.id] = abs(fc.d)
    assert lane_of(pose, lanes, config) == min(cands, key=cands.get) == 2


def test_association_invariant_under_rigid_transform(config):
    rng = np.random.default_rng(11)
    base_lanes = [straight_lane(1, y=0.0, left=2), straight_lane(2, y=3.7, right=1)]
    for _ in range(20):
        x, y = rng.uniform(5, 95), rng.uniform(-1.5, 5.2)
        h = rng.uniform(-0.6, 0.6)
        pose = Pose2(x, y, h)
        expected = lane_of(pose, base_lanes, config)

        theta = float(rng.uniform(-math.pi, math.pi))
        tx, ty = rng.uniform(-100, 100, 2)
        motion = RigidMotion(theta, tx, ty)
        lanes_t = [motion.lane(l) for l in base_lanes]
        assert lane_of(motion.pose(pose), lanes_t, config) == expected


def test_associate_lane_returns_frenet(config):
    index = LaneIndex.build([straight_lane(1, y=0.0)])
    poses = [Pose2(12.0, 0.4, 0.0), Pose2(20.0, 10.0, 0.0), Pose2(31.0, -0.2, 0.1)]
    lane, s, d = associate(poses, index, config)
    assert lane.tolist() == [1, -1, 1]
    assert abs(s[0] - 12.0) < 1e-12 and abs(s[2] - 31.0) < 1e-12
    assert abs(d[0] - 0.4) < 1e-12 and abs(d[2] + 0.2) < 1e-12
    assert np.isnan(s[1]) and np.isnan(d[1])  # no lane: -1, NaN, NaN
    assert [a.shape for a in associate([], index, config)] == [(0,)] * 3
    assert repr(per_pose(associate(poses, LaneIndex.build([]), config))) == repr(
        [(-1, math.nan, math.nan)] * 3
    )


def test_long_track_on_a_large_map_matches_per_pose_calls(config):
    # 1000 segments: the poses are projected in several batches
    index = LaneIndex.build([straight_lane(1, length=1000.0, step=1.0), straight_lane(2, y=3.7)])
    rng = np.random.default_rng(5)
    xs, ys, hs = rng.uniform(-5, 1005, 300), rng.uniform(-2, 6, 300), rng.uniform(-1, 1, 300)
    poses = [Pose2(x, y, h) for x, y, h in zip(xs, ys, hs)]
    batched = per_pose(associate(poses, index, config))
    assert repr(batched) == repr([per_pose(associate([p], index, config))[0] for p in poses])
    assert sum(lane >= 0 for lane, _, _ in batched) > 100


# --------------------------------------------------------------------------
# oriented boxes


def test_disjoint_axis_aligned_boxes():
    a = obb_corners((0.0, 0.0), 0.0, 4.0, 2.0)
    b = obb_corners((10.0, 0.0), 0.0, 4.0, 2.0)
    assert not obb_overlap(a, b)


def test_tangent_boxes_touch_counts_as_overlap():
    a = obb_corners((0.0, 0.0), 0.0, 4.0, 2.0)
    b = obb_corners((4.0, 0.0), 0.0, 4.0, 2.0)  # exactly touching at x=2
    assert obb_overlap(a, b)
    c = obb_corners((4.0 + 1e-9, 0.0), 0.0, 4.0, 2.0)
    assert not obb_overlap(a, c)


def test_rotated_overlap():
    a = obb_corners((0.0, 0.0), 0.0, 4.0, 2.0)
    b = obb_corners((2.5, 0.0), math.pi / 4, 4.0, 2.0)
    assert obb_overlap(a, b)


def test_point_obb_distance_inside_and_out():
    assert point_obb_distance((0.1, 0.2), (0.0, 0.0), 0.0, 4.0, 2.0) == 0.0
    assert abs(point_obb_distance((5.0, 0.0), (0.0, 0.0), 0.0, 4.0, 2.0) - 3.0) < 1e-12


def test_segment_obb_distance_cases():
    # crossing segment
    assert polyline_obb_distance([(-5, 0), (5, 0)], (0, 0), 0.0, 4.0, 2.0) == 0.0
    # parallel segment 2 m above the top edge
    d = polyline_obb_distance([(-5, 3), (5, 3)], (0, 0), 0.0, 4.0, 2.0)
    assert abs(d - 2.0) < 1e-12


def test_polyline_obb_distance_matches_dense_sampling():
    rng = np.random.default_rng(3)
    for _ in range(50):
        pts = np.cumsum(rng.uniform(-3, 3, size=(5, 2)), axis=0)
        center = rng.uniform(-6, 6, 2)
        heading = float(rng.uniform(-math.pi, math.pi))
        length, width = float(rng.uniform(0.5, 5)), float(rng.uniform(0.5, 3))
        exact = polyline_obb_distance(pts, center, heading, length, width)
        # oracle: dense point sampling along the polyline
        dense = []
        for a, b in zip(pts, pts[1:]):
            for t in np.linspace(0, 1, 400):
                p = a + t * (b - a)
                dense.append(point_obb_distance(p, center, heading, length, width))
        oracle = min(dense)
        assert exact <= oracle + 1e-9
        assert oracle - exact <= 0.02  # sampling resolution bound


# --------------------------------------------------------------------------
# differential tests: the batched kernels against the per-pose and
# per-segment scalar code they replaced, kept here as oracles


def oracle_project(point, polyline) -> FrenetCoord:
    pts = np.asarray(polyline, dtype=float)
    p = np.asarray(point, dtype=float)
    a = pts[:-1]
    d = pts[1:] - a
    seg_len2 = np.einsum("ij,ij->i", d, d)
    t = np.clip(np.einsum("ij,ij->i", p - a, d) / seg_len2, 0.0, 1.0)
    diff = p - (a + t[:, None] * d)
    dist2 = np.einsum("ij,ij->i", diff, diff)
    seg_len = np.sqrt(seg_len2)
    cum = np.concatenate(([0.0], np.cumsum(seg_len)))
    s_cand = cum[:-1] + t * seg_len
    i = int(np.lexsort((s_cand, dist2))[0])
    cross = d[i, 0] * diff[i, 1] - d[i, 1] * diff[i, 0]
    dist = math.sqrt(float(dist2[i]))
    signed = dist if cross > 0 else (-dist if cross < 0 else 0.0)
    return FrenetCoord(s=float(s_cand[i]), d=signed, segment_index=i)


def oracle_associate(pose, lanes, config, check_heading=True):
    """(lane id, s, d) of the pose's lane, or (-1, nan, nan)."""
    best = None
    for lane in sorted(lanes, key=lambda l: l.id):
        fc = oracle_project((pose.x, pose.y), lane.centerline)
        if abs(fc.d) > lane.half_width + config.lane_margin:
            continue
        if check_heading:
            (x0, y0), (x1, y1) = lane.centerline[fc.segment_index : fc.segment_index + 2]
            tangent = math.atan2(y1 - y0, x1 - x0)
            if abs(wrap_angle(pose.heading - tangent)) > config.theta_align:
                continue
        if best is None or abs(fc.d) < abs(best[2]):
            best = (lane.id, fc.s, fc.d)
    return best or (-1, math.nan, math.nan)


def _oracle_point_segment(p, a, b) -> float:
    ab = b - a
    len2 = float(ab @ ab)
    if len2 == 0.0:
        return float(np.hypot(*(p - a)))
    t = min(1.0, max(0.0, float((p - a) @ ab) / len2))
    return float(np.hypot(*(p - (a + t * ab))))


def _oracle_orient(a, b, c) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _oracle_segment_segment(p0, p1, q0, q1) -> float:
    d1 = _oracle_orient(q0, q1, p0)
    d2 = _oracle_orient(q0, q1, p1)
    d3 = _oracle_orient(p0, p1, q0)
    d4 = _oracle_orient(p0, p1, q1)
    if (d1 > 0) != (d2 > 0) and (d3 > 0) != (d4 > 0):
        return 0.0
    return min(
        _oracle_point_segment(p0, q0, q1),
        _oracle_point_segment(p1, q0, q1),
        _oracle_point_segment(q0, p0, p1),
        _oracle_point_segment(q1, p0, p1),
    )


def _oracle_segment_obb(p0, p1, center, heading, length, width) -> float:
    pose = Pose2(float(center[0]), float(center[1]), heading)
    a = to_frame(np.asarray(p0, float), pose)
    b = to_frame(np.asarray(p1, float), pose)
    hl, hw = 0.5 * length, 0.5 * width
    if (abs(a[0]) <= hl and abs(a[1]) <= hw) or (abs(b[0]) <= hl and abs(b[1]) <= hw):
        return 0.0
    rect = np.array([(hl, hw), (hl, -hw), (-hl, -hw), (-hl, hw)], dtype=float)
    return min(_oracle_segment_segment(a, b, rect[i], rect[(i + 1) % 4]) for i in range(4))


def oracle_polyline_obb_distance(pts, center, heading, length, width) -> float:
    pts = np.asarray(pts, dtype=float)
    if len(pts) == 1:
        return point_obb_distance(pts[0], center, heading, length, width)
    return min(
        _oracle_segment_obb(pts[i], pts[i + 1], center, heading, length, width)
        for i in range(len(pts) - 1)
    )


# coordinates on a half-meter grid make exact ties common; free floats cover
# the rest
coord = st.one_of(
    st.integers(-40, 40).map(lambda k: 0.5 * k),
    st.floats(-30.0, 30.0, allow_nan=False, allow_infinity=False),
)
point = st.tuples(coord, coord)


def measurable(pts) -> bool:
    """Every segment has a positive, finite squared length, as Lane requires:
    a subnormal step from st.floats squares to 0."""
    return all(
        0.0 < (x1 - x0) * (x1 - x0) + (y1 - y0) * (y1 - y0) < math.inf
        for (x0, y0), (x1, y1) in zip(pts, pts[1:])
    )


polyline = st.lists(point, min_size=2, max_size=7).filter(measurable)
heading = st.one_of(
    st.sampled_from([math.pi, -math.pi, 0.0, math.pi / 2, Config().theta_align]),
    st.floats(-10.0, 10.0, allow_nan=False),
)
pose = st.builds(Pose2, coord, coord, heading)
DIFF = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@DIFF
@given(polyline, st.lists(point, min_size=1, max_size=6))
def test_projection_matches_scalar_oracle(poly, points):
    for pt in points:
        assert repr(project_to_polyline(pt, poly)) == repr(oracle_project(pt, poly))


def test_a_segment_whose_squared_length_underflows_is_a_schema_error():
    # (0, 0)-(1e-200, 0) has distinct ends, but its squared length is 0, so
    # no kernel could divide by it
    poly = [(0.0, 0.0), (1e-200, 0.0), (10.0, 0.0)]
    with pytest.raises(SchemaError, match=r"^lane 1: centerline segment 0 has squared length 0\.0,"):
        Lane(id=1, centerline=poly, half_width=1.85)
    # project_to_polyline takes the polyline as the centerline of a lane 0
    with pytest.raises(SchemaError, match=r"^lane 0: centerline segment 0 "):
        project_to_polyline((5.0, 1.0), poly)


@DIFF
@given(
    st.lists(
        st.tuples(polyline, st.sampled_from([0.5, 1.0, 1.85, 3.0])), min_size=1, max_size=5
    ),
    st.lists(pose, min_size=1, max_size=8),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_association_matches_scalar_oracle(lane_specs, poses, check_heading, rnd):
    config = Config()
    lanes = [Lane(id=3 * k + 1, centerline=poly, half_width=hw) for k, (poly, hw) in enumerate(lane_specs)]
    rnd.shuffle(lanes)  # the index orders lanes by id itself
    got = associate(poses, LaneIndex.build(lanes), config, check_heading)
    expected = [oracle_associate(p, lanes, config, check_heading) for p in poses]
    assert repr(per_pose(got)) == repr(expected)


@DIFF
@given(
    st.lists(
        st.tuples(polyline, st.sampled_from([0.5, 1.0, 1.85, 3.0])), min_size=1, max_size=5
    ),
    st.lists(st.tuples(pose, st.booleans()), min_size=1, max_size=8),
)
def test_one_batch_with_a_per_pose_heading_check_matches_single_calls(lane_specs, rows):
    config = Config()
    lanes = [Lane(id=3 * k + 1, centerline=poly, half_width=hw) for k, (poly, hw) in enumerate(lane_specs)]
    index = LaneIndex.build(lanes)
    single = [per_pose(associate([p], index, config, check))[0] for p, check in rows]
    # with a small chunk, a few repeats of the rows span several projection
    # chunks, whose boundaries fall at varying offsets into the rows
    pairs = 37
    reps = pairs // len(index.starts) // len(rows) + 2
    poses, checks = zip(*rows)
    with mock.patch.object(drivekit.geometry, "_PAIRS_PER_BATCH", pairs):
        got = associate_lane(
            np.tile([(p.x, p.y) for p in poses], (reps, 1)),
            np.tile([p.heading for p in poses], reps),
            index,
            config,
            np.tile(checks, reps),
        )
    assert repr(per_pose(got)) == repr(single * reps)


box = st.tuples(
    point,
    heading,
    st.floats(0.2, 12.0, allow_nan=False),
    st.floats(0.2, 4.0, allow_nan=False),
)


@DIFF
@given(st.lists(point, min_size=1, max_size=7), st.lists(box, min_size=1, max_size=6))
def test_polyline_obb_distance_matches_scalar_oracle(pts, boxes):
    # repeated points are allowed: a stopped ego gives zero-length corridor
    # segments
    expected = [oracle_polyline_obb_distance(pts, *b) for b in boxes]
    centers, headings, lengths, widths = zip(*boxes)
    got = polyline_obb_distance(pts, list(centers), list(headings), list(lengths), list(widths))
    assert repr(got.tolist()) == repr(expected)
    assert repr([polyline_obb_distance(pts, *b) for b in boxes]) == repr(expected)


def test_association_ties_and_boundaries(config):
    # two lanes at equal |d|: the lower id wins, whatever the input order
    lanes = [straight_lane(7, y=2.0), straight_lane(4, y=0.0)]
    [(lane, _, d)] = per_pose(associate([Pose2(20.0, 1.0, 0.0)], LaneIndex.build(lanes), config))
    assert lane == 4 and d == 1.0

    # |d| exactly at half_width + lane_margin is eligible; one ulp past it is not
    index = LaneIndex.build([straight_lane(1, half_width=1.5)])
    edge = [Pose2(20.0, 2.0, 0.0), Pose2(20.0, math.nextafter(2.0, math.inf), 0.0)]
    assert associate(edge, index, config)[0].tolist() == [1, -1]

    # a point equidistant from two segments takes the smaller s
    corner = Lane(id=1, centerline=((0.0, 0.0), (2.0, 0.0), (2.0, 2.0)), half_width=1.85)
    got = per_pose(associate([Pose2(1.0, 1.0, 0.0)], LaneIndex.build([corner]), config))
    assert got == [(1, 1.0, 1.0)]

    # heading exactly at theta_align is aligned; one ulp past it is not
    index = LaneIndex.build([straight_lane(1)])
    at = Pose2(20.0, 0.0, config.theta_align)
    past = Pose2(20.0, 0.0, math.nextafter(config.theta_align, math.inf))
    assert associate([at, past], index, config)[0].tolist() == [1, -1]

    # headings at +-pi wrap to pi: aligned only when theta_align admits pi
    flipped = [Pose2(20.0, 0.0, math.pi), Pose2(20.0, 0.0, -math.pi)]
    assert associate(flipped, index, config)[0].tolist() == [-1, -1]
    wide = config.replace(theta_align=math.pi)
    assert associate(flipped, index, wide)[0].tolist() == [1, 1]

    # poses beyond both polyline ends clamp s to [0, L]
    lanes = [straight_lane(1, length=50.0)]
    beyond = [Pose2(-1.0, 0.5, 0.0), Pose2(51.0, -0.5, 0.0)]
    got = per_pose(associate(beyond, LaneIndex.build(lanes), config))
    assert [s for _, s, _ in got] == [0.0, 50.0]
    assert got == [oracle_associate(p, lanes, config) for p in beyond]
    for p in beyond + flipped + [at, past]:
        got = per_pose(associate([p], LaneIndex.build(lanes), wide))
        assert repr(got) == repr([oracle_associate(p, lanes, wide)])


def test_one_point_corridor_is_point_distance():
    boxes = [((3.0, 0.5), 0.3, 4.5, 1.9), ((-1.0, -2.0), -2.0, 1.0, 0.5)]
    expected = [point_obb_distance((0.0, 0.0), *b) for b in boxes]
    centers, headings, lengths, widths = zip(*boxes)
    got = polyline_obb_distance([(0.0, 0.0)], list(centers), list(headings), list(lengths), list(widths))
    assert got.tolist() == expected
    assert polyline_obb_distance([(0.0, 0.0)], *boxes[0]) == expected[0]


def oracle_obb_corners(center, heading, length, width):
    c, s = math.cos(heading), math.sin(heading)
    hl, hw = 0.5 * length, 0.5 * width
    local = np.array([(hl, hw), (hl, -hw), (-hl, -hw), (-hl, hw)], dtype=float)
    rot = np.array([(c, -s), (s, c)], dtype=float)
    return local @ rot.T + np.asarray(center, dtype=float)


def oracle_obb_overlap(corners_a, corners_b) -> bool:
    for quad in (corners_a, corners_b):
        edges = np.roll(quad, -1, axis=0) - quad
        for ex, ey in edges[:2]:
            ax, ay = -ey, ex
            pa = corners_a[:, 0] * ax + corners_a[:, 1] * ay
            pb = corners_b[:, 0] * ax + corners_b[:, 1] * ay
            if pa.max() < pb.min() or pb.max() < pa.min():
                return False
    return True


@DIFF
@given(box, st.lists(box, min_size=1, max_size=6))
def test_batched_obb_matches_scalar_oracle(one, many):
    ego = obb_corners(*one)
    assert repr(ego.tolist()) == repr(oracle_obb_corners(*one).tolist())
    centers, headings, lengths, widths = zip(*many)
    boxes = obb_corners(list(centers), list(headings), list(lengths), list(widths))
    expected = [oracle_obb_corners(*b) for b in many]
    assert repr(boxes.tolist()) == repr([e.tolist() for e in expected])
    overlap = obb_overlap(ego, boxes)
    assert overlap.tolist() == [oracle_obb_overlap(oracle_obb_corners(*one), e) for e in expected]
    # the test is symmetric, and broadcasts either argument
    assert obb_overlap(boxes, ego).tolist() == overlap.tolist()
