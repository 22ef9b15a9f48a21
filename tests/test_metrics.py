import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

import drivekit.metrics
from conftest import RigidMotion, cruising_ego, scene_of, state, straight_lane, track
from drivekit.errors import AlignError, ParamError, SchemaError
from drivekit.geometry import from_frame, obb_corners, obb_overlap
from drivekit.metrics import (
    GroundingReport,
    HorizonValues,
    MetricReport,
    PlanSample,
    apply_frame_mask,
    classification_accuracy,
    evaluate_plans,
    future_complete,
    grounding_prf,
    heading_l2,
    headings_xy,
    hungarian,
    lon_weighted_l2,
    plan_collision_fraction,
    report_csv,
    traj_l2,
)
from drivekit.planners import ego_future_waypoints
from drivekit.scene import AgentCategory, AgentTrack, wrap_angle, wrap_angles
from drivekit.synth import synth_scene


def straight_plan(speed=5.0):
    return np.array([(speed * 0.5 * (k + 1), 0.0) for k in range(6)])


# --------------------------------------------------------------------------
# L2 family


def test_l2_zero_for_identical():
    gt = straight_plan()
    out = traj_l2(gt, gt)
    assert out.at == {1: 0.0, 2: 0.0, 3: 0.0}
    assert out.ave123 == 0.0 and out.ave_all == 0.0


def test_l2_constant_offset():
    gt = straight_plan()
    pred = gt + (0.0, 1.0)
    out = traj_l2(pred, gt)
    assert out.at == {1: 1.0, 2: 1.0, 3: 1.0}
    assert out.ave123 == 1.0 and out.ave_all == 1.0


def test_l2_hand_arithmetic():
    gt = straight_plan()
    offsets = np.array([(0.0, 0.1 * (k + 1)) for k in range(6)])
    out = traj_l2(gt + offsets, gt)
    assert out.ave123 == pytest.approx((0.2 + 0.4 + 0.6) / 3, abs=1e-15)
    assert out.ave_all == pytest.approx(0.35, abs=1e-15)
    assert out.at[3] == pytest.approx(0.6, abs=1e-15)


def test_l2_alignment_error():
    with pytest.raises(AlignError):
        traj_l2(np.zeros((5, 2)), np.zeros((6, 2)))


@pytest.mark.parametrize(
    "pred, gt",
    [
        (np.zeros((3, 6, 2)), np.zeros((6, 2))),  # a stack never broadcasts against a plan
        (np.zeros((3, 6, 2)), np.zeros((2, 6, 2))),
        (np.zeros((0, 6, 2)), np.zeros((0, 6, 2))),
        (np.zeros((1, 1, 6, 2)), np.zeros((1, 1, 6, 2))),
    ],
)
def test_metrics_take_a_plan_or_a_stack_of_one_shape(pred, gt):
    for metric in (traj_l2, heading_l2, lon_weighted_l2):
        with pytest.raises(AlignError):
            metric(pred, gt)


def test_heading_zero_for_identical():
    gt = straight_plan()
    assert heading_l2(gt, gt).ave_all == 0.0


def test_heading_rotated_quarter_turn():
    gt = straight_plan()
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    pred = gt @ rot.T  # the same plan rotated 90 degrees about the origin
    out = heading_l2(pred, gt)
    for v in out.per_step:
        assert v == pytest.approx(math.pi / 2, abs=1e-12)


def test_heading_stationary_pred_carries_initial():
    gt = straight_plan()
    pred = np.zeros((6, 2))
    out = heading_l2(pred, gt)
    assert out.ave_all == 0.0  # carried heading equals the gt heading


def test_lonw_reduces_to_l2_at_unit_weight():
    rng = np.random.default_rng(3)
    for _ in range(100):
        gt = rng.uniform(-10, 10, (6, 2))
        pred = gt + rng.uniform(-2, 2, (6, 2))
        a = lon_weighted_l2(pred, gt, w_lon=1.0)
        b = traj_l2(pred, gt)
        assert a.ave_all == pytest.approx(b.ave_all, abs=1e-12)
        for x, y in zip(a.per_step, b.per_step):
            assert x == pytest.approx(y, abs=1e-12)


def test_lonw_pure_lateral_unchanged_by_weight():
    gt = straight_plan()
    pred = gt + (0.0, 0.7)
    for w in (1.0, 2.0, 5.0):
        out = lon_weighted_l2(pred, gt, w_lon=w)
        assert out.ave_all == pytest.approx(0.7, abs=1e-12)


def test_lonw_longitudinal_shortfall_scales():
    gt = straight_plan()
    pred = gt - (1.0, 0.0)  # 1 m short along the motion direction
    out = lon_weighted_l2(pred, gt, w_lon=2.0)
    for v in out.per_step:
        assert v == pytest.approx(2.0, abs=1e-12)


def test_lonw_monotone_in_weight():
    rng = np.random.default_rng(4)
    for _ in range(30):
        gt = rng.uniform(-10, 10, (6, 2))
        pred = gt + rng.uniform(-2, 2, (6, 2))
        values = [
            lon_weighted_l2(pred, gt, w_lon=w).ave_all for w in (0.5, 1.0, 2.0, 4.0)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


# --------------------------------------------------------------------------
# collision


def test_replay_on_collision_free_scene_is_zero(config):
    scene = synth_scene("CONSTRUCTION_ZONE", 1)
    plans = []
    for frame in range(scene.n_frames):
        if future_complete(scene.ego, frame, scene.frame_rate):
            wp = ego_future_waypoints(scene, frame)
            plans.append(PlanSample(scene.id, frame, tuple(map(tuple, wp))))
    report = evaluate_plans(plans, {scene.id: scene}, config)
    assert report.n_samples == len(plans) > 0
    assert report.collision_rate_ave_all == 0.0


def test_plan_through_static_box_collides_on_late_steps():
    # plan at 10 m/s; a 19.5 m barrier centered at x=22.5 spans [12.75, 32.25],
    # so ego footprints at steps 3..6 (x = 15, 20, 25, 30) overlap it
    lanes = [straight_lane(1, length=200.0)]
    ego = [state(0.0 + 10.0 * 0.5 * k, 0.0, 0.0, 10.0) for k in range(8)]
    barrier = track(
        77,
        [state(22.5, 0.0, 0.0, 0.0, (19.5, 1.8))] * 8,
        category=AgentCategory.BARRIER,
    )
    scene = scene_of(lanes, [barrier], ego)
    plan = straight_plan(10.0)
    assert plan_collision_fraction(scene, 0, plan) == pytest.approx(4 / 6)


def test_disjoint_boxes_never_collide():
    a = obb_corners((0.0, 0.0), 0.0, 4.0, 2.0)
    b = obb_corners((7.0, 0.0), 0.0, 4.0, 2.0)  # separation > sum half extents
    assert not obb_overlap(a, b)


def _point_in_obb_grid(corners_from, center, heading, length, width, n=24):
    """Oracle helper: dense grid of points inside one box, containment-tested
    against the other."""
    c, s = math.cos(heading), math.sin(heading)
    u = np.linspace(-0.5, 0.5, n) * length
    v = np.linspace(-0.5, 0.5, n) * width
    uu, vv = np.meshgrid(u, v)
    xs = center[0] + c * uu - s * vv
    ys = center[1] + s * uu + c * vv
    return np.stack([xs.ravel(), ys.ravel()], axis=1)


def _oracle_overlap(box_a, box_b, n=24):
    for (ca, ha, la, wa), (cb, hb, lb, wb) in ((box_a, box_b), (box_b, box_a)):
        pts = _point_in_obb_grid(None, ca, ha, la, wa, n)
        c, s = math.cos(hb), math.sin(hb)
        dx = pts[:, 0] - cb[0]
        dy = pts[:, 1] - cb[1]
        lx = c * dx + s * dy
        ly = -s * dx + c * dy
        if np.any((np.abs(lx) <= lb / 2) & (np.abs(ly) <= wb / 2)):
            return True
    return False


def test_sat_agrees_with_sampling_oracle():
    rng = np.random.default_rng(8)
    agree = 0
    n_pairs = 2000
    for _ in range(n_pairs):
        box_a = (rng.uniform(-4, 4, 2), rng.uniform(-math.pi, math.pi), *rng.uniform(0.5, 4, 2))
        box_b = (rng.uniform(-4, 4, 2), rng.uniform(-math.pi, math.pi), *rng.uniform(0.5, 4, 2))
        sat = obb_overlap(
            obb_corners(box_a[0], box_a[1], box_a[2], box_a[3]),
            obb_corners(box_b[0], box_b[1], box_b[2], box_b[3]),
        )
        oracle = _oracle_overlap(box_a, box_b)
        if oracle:
            assert sat, "sampling found containment SAT missed"
        agree += sat == oracle
    assert agree / n_pairs >= 0.99


# --------------------------------------------------------------------------
# the stacked metrics against the per-sample code they replaced, kept here as
# oracles


def oracle_headings(xy, eps_move):
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


def oracle_steps(pred, gt, w_lon, eps_move):
    """Per-step L2, heading and longitudinal-weighted errors of one plan."""
    l2 = np.hypot(*(pred - gt).T)
    hg = oracle_headings(gt, eps_move)
    heading = np.abs(wrap_angles(np.subtract(oracle_headings(pred, eps_move), hg)))
    e = pred - gt
    lonw = np.empty(6)
    for k in range(6):
        c, s = math.cos(hg[k]), math.sin(hg[k])
        lon = e[k, 0] * c + e[k, 1] * s
        lat = -e[k, 0] * s + e[k, 1] * c
        lonw[k] = math.hypot(w_lon * lon, lat)
    return l2, heading, lonw


def oracle_collision(scene, frame, wp, eps_move):
    spf = scene.plan_stride
    anchor = scene.ego.pose(frame)
    ego_len, ego_wid = scene.ego.arrays["box"][frame].tolist()
    wp_global = from_frame(wp, anchor)
    local_headings = oracle_headings(wp, eps_move)
    n_steps = min(6, (scene.n_frames - 1 - frame) // spf)
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
    return len(set(step_of[hit].tolist())) / 6


def oracle_mean_horizon(values):
    if not values:
        return None
    return HorizonValues.from_steps(np.mean([hv.per_step for hv in values], axis=0))


def oracle_evaluate(plans, scenes, config):
    """evaluate_plans one sample at a time."""
    kept, masked = apply_frame_mask(plans, scenes)
    kept = sorted(kept, key=lambda p: (p.scene_id, p.frame))
    families, fractions = ([], [], []), []
    for sample in kept:
        scene = scenes[sample.scene_id]
        gt = ego_future_waypoints(scene, sample.frame)
        pred = np.asarray(sample.waypoints, dtype=float)
        for values, steps in zip(families, oracle_steps(pred, gt, config.w_lon, config.eps_move)):
            values.append(HorizonValues.from_steps(steps))
        fractions.append(oracle_collision(scene, sample.frame, pred, config.eps_move))
    return MetricReport(
        *map(oracle_mean_horizon, families),
        collision_rate_ave_all=100.0 * float(np.mean(fractions)) if fractions else None,
        n_samples=len(kept),
        n_masked=masked,
    )


@st.composite
def point_stacks(draw, k):
    """An (N, k, 2) stack with repeated points, and an eps_move equal to one of
    its segment lengths, or next to one."""
    n = draw(st.integers(1, 5))
    scale = draw(st.sampled_from([1e-4, 1e-3, 1.0, 30.0]))
    xy = scale * draw(arrays(float, (n, k, 2), elements=st.floats(-1, 1, width=32)))
    repeat = draw(arrays(bool, (n, k)))
    for j in range(1, k):  # the carry-forward rule
        xy[repeat[:, j], j] = xy[repeat[:, j], j - 1]
    lengths = [math.hypot(dx, dy) for dx, dy in np.diff(xy, axis=1).reshape(-1, 2).tolist()]
    at = draw(st.sampled_from(lengths + [1e-3]))
    eps_move = draw(st.sampled_from([at, math.nextafter(at, 0.0), math.nextafter(at, 1.0)]))
    return xy, eps_move


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data(), k=st.integers(1, 8))
def test_stacked_headings_equal_the_per_plan_loop(data, k):
    xy, eps_move = data.draw(point_stacks(k))
    out = headings_xy(xy, eps_move)
    assert out.shape == xy.shape[:-1]
    for row, plan in zip(out, xy):
        assert bits(row) == bits(oracle_headings(plan, eps_move))


def assert_stack_matches_the_oracles(pred, gt, w_lon, eps_move):
    """Each metric's per-plan steps and its stack HorizonValues, bit for bit."""
    metrics = (
        traj_l2,
        lambda p, g: heading_l2(p, g, eps_move),
        lambda p, g: lon_weighted_l2(p, g, w_lon, eps_move),
    )
    per_sample = [oracle_steps(p, g, w_lon, eps_move) for p, g in zip(pred, gt)]
    for i, metric in enumerate(metrics):
        for (p, g), steps in zip(zip(pred, gt), per_sample):
            assert bits(metric(p, g).per_step) == bits(steps[i])
        expected = oracle_mean_horizon([HorizonValues.from_steps(s[i]) for s in per_sample])
        assert repr(metric(pred, gt)) == repr(expected)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), w_lon=st.sampled_from([1.0, 2.0, 0.3]))
def test_stacked_metrics_equal_the_per_sample_oracles(data, w_lon):
    gt, eps_move = data.draw(point_stacks(6))
    noise = data.draw(arrays(float, gt.shape, elements=st.floats(-1, 1, width=32)))
    pred = gt + noise * data.draw(st.sampled_from([0.0, 1e-3, 1.0]))
    assert_stack_matches_the_oracles(pred, gt, w_lon, eps_move)


def test_stacked_metrics_equal_the_per_sample_oracles_on_random_stacks():
    # numpy's hypot, arctan2 and trig differ from libm on a small share of
    # inputs, which only many distinct values reach
    rng = np.random.default_rng(9)
    gt = np.cumsum(rng.normal(0, 3, (400, 6, 2)), axis=1)
    pred = gt + rng.normal(0, 1, gt.shape)
    assert_stack_matches_the_oracles(pred, gt, 2.0, 1e-3)


@st.composite
def collision_cases(draw):
    """A scene whose agents are invalid at some frames, and plans at frames
    whose steps may leave the scene."""
    n_frames = draw(st.integers(2, 16))
    frame_rate = draw(st.sampled_from([2.0, 4.0]))
    ego = cruising_ego(n_frames, speed=draw(st.sampled_from([0.0, 4.0, 10.0])))
    coords = st.floats(-2, 40, width=32)
    agents = []
    for agent_id in range(1, draw(st.integers(0, 6)) + 1):
        states = [
            state(
                draw(coords),
                draw(st.floats(-3, 3, width=32)),
                draw(st.floats(-4, 4, width=32)),
                box=(draw(st.floats(0.5, 8, width=32)), draw(st.floats(0.5, 3, width=32))),
                valid=draw(st.booleans()),
            )
            for _ in range(n_frames)
        ]
        agents.append(track(agent_id, states))
    scene = scene_of([straight_lane()], agents, ego, frame_rate=frame_rate)
    n = draw(st.integers(1, 12))
    frames = draw(arrays(np.int64, n, elements=st.integers(0, n_frames - 1)))
    plans = np.array([straight_plan(draw(st.sampled_from([0.0, 4.0, 10.0]))) for _ in range(n)])
    plans += draw(arrays(float, plans.shape, elements=st.floats(-2, 2, width=32)))
    return scene, frames, plans


@settings(max_examples=200, deadline=None)
@given(case=collision_cases(), budget=st.sampled_from([1, 13, 512]))
def test_stacked_collision_equals_one_call_per_plan_and_the_oracle(case, budget):
    scene, frames, plans = case
    with mock.patch.object(drivekit.metrics, "_SAT_TRIPLES", budget):
        stacked = plan_collision_fraction(scene, frames, plans)
    one_by_one = [plan_collision_fraction(scene, f, p) for f, p in zip(frames, plans)]
    oracle = [oracle_collision(scene, f, p, 1e-3) for f, p in zip(frames.tolist(), plans)]
    assert stacked.shape == (len(plans),)
    assert stacked.tolist() == one_by_one == oracle


def test_evaluate_equals_the_per_sample_oracle(config):
    scenes = {}
    plans = []
    rng = np.random.default_rng(33)
    for kind in ("OVERTAKE_ONCOMING", "CONSTRUCTION_ZONE", "THREE_POINT_TURN", "NOMINAL"):
        for seed in (0, 1):
            scene = synth_scene(kind, seed)
            scenes[scene.id] = scene
            for frame in rng.permutation(scene.n_frames).tolist():
                if future_complete(scene.ego, frame, scene.frame_rate):
                    wp = ego_future_waypoints(scene, frame) + rng.normal(0, 0.5, (6, 2))
                else:  # masked
                    wp = rng.normal(0, 5, (6, 2))
                plans.append(PlanSample(scene.id, frame, tuple(map(tuple, wp))))
    report = evaluate_plans(plans, scenes, config)
    assert report.n_masked > 0 and report.collision_rate_ave_all > 0
    assert repr(report) == repr(oracle_evaluate(plans, scenes, config))
    assert repr(evaluate_plans(plans[:0], scenes, config)) == repr(
        oracle_evaluate(plans[:0], scenes, config)
    )


@pytest.mark.parametrize("frame", [-1, -30, 25, 26])
def test_collision_rejects_a_frame_outside_the_scene(frame):
    scene = synth_scene("OVERTAKE_ONCOMING", 0)
    message = f"frame {frame} is outside scene {scene.id} of 25 frames"
    with pytest.raises(AlignError, match=message):
        plan_collision_fraction(scene, frame, straight_plan())
    with pytest.raises(AlignError, match=message):
        plan_collision_fraction(scene, [0, frame, 3], np.stack([straight_plan()] * 3))
    assert plan_collision_fraction(scene, [0, 24], np.stack([straight_plan()] * 2)).shape == (2,)


@pytest.mark.parametrize(
    "frame, plan",
    [(1.0, straight_plan()), (True, straight_plan()), ([0], straight_plan()),
     ([0, 1], np.zeros((3, 6, 2))), (0, np.zeros((0, 6, 2)))],
)
def test_collision_takes_one_int_frame_per_plan(frame, plan):
    with pytest.raises(AlignError):
        plan_collision_fraction(synth_scene("NOMINAL", 0), frame, plan)


# --------------------------------------------------------------------------
# frame mask


def test_forty_frame_scene_masks_final_six(config):
    scene = scene_of([straight_lane(1, length=200.0)], [], cruising_ego(40))
    assert scene.n_frames == 40
    samples = [
        PlanSample(scene.id, f, tuple((0.0, 0.0) for _ in range(6)))
        for f in range(scene.n_frames)
    ]
    kept, masked = apply_frame_mask(samples, {scene.id: scene})
    assert masked == 6
    assert [s.frame for s in kept] == list(range(34))


def test_complete_futures_mask_nothing(config):
    scene = scene_of([straight_lane(1, length=200.0)], [], cruising_ego(40))
    samples = [PlanSample(scene.id, f, tuple((0.0, 0.0) for _ in range(6))) for f in range(10)]
    kept, masked = apply_frame_mask(samples, {scene.id: scene})
    assert masked == 0 and len(kept) == 10


def test_occlusion_gap_mid_future_masks():
    states = [state(4.0 * k, 0.0, 0.0, 8.0) for k in range(14)]
    states[5] = state(20.0, 0.0, 0.0, 8.0, valid=False)
    tr = AgentTrack(id=1, category=AgentCategory.CAR, states=tuple(states))
    assert not future_complete(tr, 0, 2.0)  # frame 5 sits inside the window
    assert not future_complete(tr, 4, 2.0)
    assert not future_complete(tr, 5, 2.0)  # anchor itself invalid
    assert future_complete(tr, 6, 2.0)  # window 6..12 is clear
    assert future_complete(tr, 7, 2.0)
    assert not future_complete(tr, 8, 2.0)  # runs past the track end


def test_mask_never_mutates_samples(config):
    scene = synth_scene("NOMINAL", 17)
    wp = tuple((1.0 * k, 2.0) for k in range(6))
    samples = [PlanSample(scene.id, 0, wp)]
    kept, _ = apply_frame_mask(samples, {scene.id: scene})
    assert kept[0] is samples[0]


@pytest.mark.parametrize(
    "waypoints, message",
    [
        (5, "plan sample waypoints must be a list of [x, y], got 5"),
        ([[1.0, 2.0, 3.0]] * 6, "plan sample waypoints[0] must be [x, y], got [1.0, 2.0, 3.0]"),
        ([[1, 0]] * 5 + [[1, "2"]], "plan sample waypoints[5] must be a number, got '2'"),
        ([[1, 0]] * 5 + [[1, math.inf]], "plan sample waypoints[5] must be finite, got inf"),
    ],
)
def test_plan_sample_checks_each_waypoint_with_the_point_rule(waypoints, message):
    # the rule a lane centerline point meets, so a bad plan is a SchemaError
    # from the library, not a TypeError or ValueError
    with pytest.raises(SchemaError) as info:
        PlanSample("a", 0, waypoints)
    assert info.value.message == message
    assert PlanSample("a", 0, np.ones((6, 2), int)).waypoints == ((1.0, 1.0),) * 6


# --------------------------------------------------------------------------
# hungarian


def brute_force_assignment_cost(c: np.ndarray) -> float:
    # sums accumulate in ascending row order so float totals are directly
    # comparable with assignment_cost
    n, m = c.shape
    if n <= m:
        return min(
            sum(c[i, p[i]] for i in range(n))
            for p in itertools.permutations(range(m), n)
        )
    return min(
        sum(c[i, j] for i, j in sorted(zip(p, range(m))))
        for p in itertools.permutations(range(n), m)
    )


def assignment_cost(c: np.ndarray, assignment) -> float:
    return sum(c[i, j] for i, j in enumerate(assignment) if j is not None)


def test_dominant_diagonal():
    c = np.array([[0.0, 9.0, 9.0], [9.0, 0.0, 9.0], [9.0, 9.0, 0.0]])
    assert hungarian(c) == [0, 1, 2]


def test_two_by_two_enumeration():
    c = np.array([[1.0, 2.0], [2.0, 1.0]])
    assignment = hungarian(c)
    assert assignment == [0, 1]
    assert assignment_cost(c, assignment) == 2.0 == brute_force_assignment_cost(c)


def test_random_matrices_match_brute_force():
    rng = np.random.default_rng(21)
    for _ in range(60):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 8))
        c = rng.uniform(0, 10, (n, m))
        assignment = hungarian(c)
        assert assignment_cost(c, assignment) == pytest.approx(
            brute_force_assignment_cost(c), abs=0.0
        )
        cols = [j for j in assignment if j is not None]
        assert len(cols) == len(set(cols)) == min(n, m)


def test_empty_dimensions_return_empty_assignment():
    assert hungarian(np.zeros((0, 3))) == []
    assert hungarian(np.zeros((3, 0))) == [None, None, None]


def test_rectangular_prefers_cheap_rows_only_when_optimal():
    c = np.array([[10.0], [1.0]])
    assert hungarian(c) == [None, 0]


# --------------------------------------------------------------------------
# grounding


def brute_force_gated_matches(pred, gt, gate):
    """Oracle: maximize match count, then minimize summed distance, over all
    injective partial matchings."""
    n, m = len(pred), len(gt)
    best = (0, 0.0)
    pred = np.asarray(pred, float)
    gt = np.asarray(gt, float)
    for size in range(min(n, m), -1, -1):
        found = None
        for rows in itertools.combinations(range(n), size):
            for cols in itertools.permutations(range(m), size):
                d = [math.dist(pred[i], gt[j]) for i, j in zip(rows, cols)]
                if all(x <= gate for x in d):
                    total = sum(d)
                    if found is None or total < found:
                        found = total
        if found is not None:
            return size, found
    return 0, 0.0


def test_identical_sets_perfect():
    pts = [(0.0, 0.0), (5.0, 1.0), (9.0, -2.0)]
    report = grounding_prf(pts, pts, gate=2.0)
    assert report.precision == 1.0 and report.recall == 1.0


def test_two_pred_three_gt_gated():
    pred = [(0.0, 0.0), (5.0, 0.0)]
    gt = [(0.5, 0.0), (5.5, 0.0), (40.0, 40.0)]
    report = grounding_prf(pred, gt, gate=2.0)
    assert report.precision == 1.0
    assert report.recall == pytest.approx(2.0 / 3.0, abs=1e-15)
    matches, _ = brute_force_gated_matches(pred, gt, 2.0)
    assert matches == 2


def test_empty_pred_reports_absent_precision():
    report = grounding_prf([], [(1.0, 1.0)], gate=2.0)
    assert report.precision is None
    assert report.recall == 0.0


def test_empty_gt_reports_absent_recall():
    report = grounding_prf([(1.0, 1.0)], [], gate=2.0)
    assert report.precision == 0.0
    assert report.recall is None


def test_gated_matching_matches_oracle_on_randoms():
    rng = np.random.default_rng(31)
    for _ in range(40):
        n, m = int(rng.integers(0, 5)), int(rng.integers(0, 5))
        pred = rng.uniform(0, 10, (n, 2))
        gt = rng.uniform(0, 10, (m, 2))
        report = grounding_prf(pred, gt, gate=3.0)
        matches, _ = brute_force_gated_matches(pred, gt, 3.0)
        if n:
            assert report.precision == pytest.approx(matches / n, abs=1e-12)
        if m:
            assert report.recall == pytest.approx(matches / m, abs=1e-12)


def test_classification_accuracy_counts():
    assert classification_accuracy([("a", "a"), ("b", "b")]) == 1.0
    assert classification_accuracy([("a", "b"), ("b", "a")]) == 0.0
    assert classification_accuracy([(1, 1), (2, 2), (3, 3), (4, 0)]) == 0.75
    assert classification_accuracy([]) is None


# --------------------------------------------------------------------------
# aggregation / rigid invariance


def test_evaluate_replay_plans_all_zero(config):
    scene = synth_scene("OVERTAKE_ONCOMING", 6)
    plans = []
    for frame in range(scene.n_frames):
        if future_complete(scene.ego, frame, scene.frame_rate):
            wp = ego_future_waypoints(scene, frame)
            plans.append(PlanSample(scene.id, frame, tuple(map(tuple, wp))))
    report = evaluate_plans(plans, {scene.id: scene}, config)
    assert report.n_samples == len(plans)
    assert report.l2.ave_all == 0.0
    assert report.heading.ave_all == 0.0
    assert report.lon_weighted.ave_all == 0.0
    assert report.collision_rate_ave_all == 0.0


def test_report_csv_layout(config):
    scene = synth_scene("NOMINAL", 1)
    plans = [
        PlanSample(scene.id, 0, tuple(map(tuple, ego_future_waypoints(scene, 0))))
    ]
    report = evaluate_plans(plans, {scene.id: scene}, config)
    text = report_csv(report)
    header, row = text.strip().split("\n")
    assert header.startswith("l2_1s,l2_2s,l2_3s,l2_ave123,l2_ave_all,heading_1s")
    assert header.endswith("collision_pct,n_samples,n_masked")
    assert row.split(",")[-2] == "1"


def test_metrics_invariant_under_rigid_transform(config):
    scene = synth_scene("CONSTRUCTION_ZONE", 9)
    moved = RigidMotion(theta=0.83, tx=-311.0, ty=99.0).scene(scene)
    plans = []
    for frame in range(0, scene.n_frames, 3):
        if future_complete(scene.ego, frame, scene.frame_rate):
            wp = ego_future_waypoints(scene, frame)
            pred = wp + np.array([(0.2, -0.1)])  # perturbed plan, ego frame
            plans.append(PlanSample(scene.id, frame, tuple(map(tuple, pred))))
    base = evaluate_plans(plans, {scene.id: scene}, config)
    after = evaluate_plans(plans, {moved.id: moved}, config)
    assert after.l2.ave_all == pytest.approx(base.l2.ave_all, abs=1e-9)
    assert after.heading.ave_all == pytest.approx(base.heading.ave_all, abs=1e-9)
    assert after.lon_weighted.ave_all == pytest.approx(
        base.lon_weighted.ave_all, abs=1e-9
    )
    assert after.collision_rate_ave_all == base.collision_rate_ave_all


def test_ave_all_bounded_by_step_extremes():
    rng = np.random.default_rng(44)
    for _ in range(50):
        gt = rng.uniform(-10, 10, (6, 2))
        pred = gt + rng.uniform(-3, 3, (6, 2))
        out = traj_l2(pred, gt)
        assert min(out.per_step) <= out.ave_all <= max(out.per_step)
        assert min(out.per_step) <= out.ave123 <= max(out.per_step)


def test_grounding_importance_accuracy_field():
    report = grounding_prf(
        [(0.0, 0.0)], [(0.1, 0.0)], gate=1.0, importance_pairs=[(True, True), (False, True)]
    )
    assert report.importance_accuracy == 0.5


@pytest.mark.parametrize(
    "pred, gt, message",
    [
        ([(0, 0, 5, 5)], [(0.5, 0), (5, 5)], "pred[0] must be [x, y], got (0, 0, 5, 5)"),
        ([(0.0, 0.0), (1.0,)], [], "pred[1] must be [x, y], got (1.0,)"),
        ([(0.0, math.nan)], [(0.0, 0.0)], "pred[0] must be finite, got nan"),
        ([(0.0, 0.0)], [(1.0, 0.0), (math.inf, 0.0)], "gt[1] must be finite, got inf"),
        ([(0.0, 0.0)], [("1", 0.0)], "gt[0] must be a number, got '1'"),
        ([(0.0, 0.0)], [(True, 0.0)], "gt[0] must be a number, got True"),
        ([(0.0, 0.0)], 5, "gt must be a list of [x, y], got 5"),
    ],
)
def test_grounding_rejects_an_object_that_is_not_a_finite_pair(pred, gt, message):
    with pytest.raises(SchemaError) as info:
        grounding_prf(pred, gt, gate=2.0)
    assert info.value.message == message


@pytest.mark.parametrize(
    "gate, message",
    [
        (math.nan, "grounding gate must be finite, got nan"),
        (math.inf, "grounding gate must be finite, got inf"),
        (-1.0, "grounding gate must be non-negative, got -1.0"),
        ("2", "grounding gate must be a number, got '2'"),
    ],
)
def test_grounding_rejects_a_gate_that_is_not_a_finite_non_negative_number(gate, message):
    with pytest.raises(ParamError) as info:
        grounding_prf([(0.0, 0.0)], [(0.5, 0.0)], gate)
    assert info.value.message == message


def test_grounding_takes_empty_sets_and_a_zero_gate():
    assert grounding_prf([], [], 2.0) == GroundingReport(None, None)
    assert grounding_prf([(1, 1)], [(1, 1), (2, 1)], 0) == GroundingReport(1.0, 0.5)


@pytest.mark.parametrize(
    "pred, gt, gate, expected",
    [
        # the gate graph has a perfect matching, but the least summed distance,
        # even with 1e12 added to each far pair, takes a far pair
        ([(1e12, 0.0), (5e12, 5e12)], [(0.0, 5e12), (5e12, 2e12)], 5e12, (1.0, 1.0)),
        # finite points whose difference overflows are beyond any finite gate
        ([(1e308, 0.0)], [(-1e308, 0.0)], 2.0, (0.0, 0.0)),
    ],
    ids=["penalty-too-small", "overflow"],
)
def test_grounding_count_is_exact_at_extreme_magnitudes(pred, gt, gate, expected):
    assert grounding_prf(pred, gt, gate) == GroundingReport(*expected)


# integer points: many pairs sit exactly at the gate (3-4-5, 0-2) and some
# points repeat; the scales keep every point and gate exact in float64
GRID_POINTS = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=7)


@settings(max_examples=200, deadline=None)
@given(
    pred=GRID_POINTS,
    gt=GRID_POINTS,
    gate=st.sampled_from([0.0, 1.0, 2.0, 5.0]),
    scale=st.sampled_from([1.0, 1e10, 1e12, 1e13]),
)
# summed distance with a 1e12 penalty on far pairs prefers the coincident pair
# plus the far diagonal (1.5e13) to the two within-gate pairs (2e13)
@example(pred=[(0, 0), (0, 1)], gt=[(0, 0), (1, 0)], gate=1.0, scale=1e13)
def test_grounding_match_count_is_the_maximum_matching_of_the_gate_graph(pred, gt, gate, scale):
    # the count does not depend on which of several optima breaks a tie
    pred = [(scale * x, scale * y) for x, y in pred]
    gt = [(scale * x, scale * y) for x, y in gt]
    gate *= scale
    report = grounding_prf(pred, gt, gate)
    if not pred or not gt:
        return
    p, g = np.array(pred, float), np.array(gt, float)
    within = np.hypot(*(p[:, None, :] - g[None, :, :]).transpose(2, 0, 1)) <= gate
    matching = maximum_bipartite_matching(csr_matrix(within), perm_type="column")
    assert round(report.precision * len(pred)) == np.count_nonzero(matching >= 0)
    assert round(report.recall * len(gt)) == np.count_nonzero(matching >= 0)


def assert_minimum_assignment(c: np.ndarray, assignment) -> None:
    # integer costs add exactly, so the total equals the brute-force minimum
    # whichever optimum the solver picks
    n, m = c.shape
    assert assignment_cost(c, assignment) == brute_force_assignment_cost(c)
    cols = [j for j in assignment if j is not None]
    assert len(assignment) == n
    assert len(cols) == len(set(cols)) == min(n, m)


def test_lexicographic_canonicalization_matches_enumeration():
    rng = np.random.default_rng(5150)
    for _ in range(150):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        c = rng.integers(0, 3, size=(n, m)).astype(float)  # tie-heavy
        assert_minimum_assignment(c, hungarian(c))


SHAPES = st.tuples(st.integers(1, 6), st.integers(1, 6))
INT_COSTS = st.one_of(
    arrays(float, SHAPES, elements=st.integers(0, high - 1).map(float))
    for high in (3, 30, 2**40)
)


@settings(max_examples=400, deadline=None)
@given(c=INT_COSTS)
def test_hungarian_matches_lexicographic_enumeration(c):
    assert_minimum_assignment(c, hungarian(c))


SOLVE_SHAPES = [(30, 30), (10, 4), (4, 10), (100, 100), (90, 20), (20, 90)]


def assert_one_unpadded_solve(monkeypatch, matrices):
    """Each `hungarian` call makes exactly one `linear_sum_assignment` call,
    on the rectangular matrix as it is."""
    solve = drivekit.metrics.linear_sum_assignment
    calls = []

    def counting(c):
        calls.append(c.shape)
        return solve(c)

    monkeypatch.setattr(drivekit.metrics, "linear_sum_assignment", counting)
    for c in matrices:
        calls.clear()
        hungarian(c)
        assert calls == [c.shape]


def test_hungarian_solves_at_most_twice_per_row_without_ties(monkeypatch):
    rng = np.random.default_rng(17)
    assert_one_unpadded_solve(monkeypatch, [rng.uniform(0.0, 10.0, s) for s in SOLVE_SHAPES])


def test_hungarian_carries_one_full_solve_down_the_rows(monkeypatch):
    # each row's optimum is its first free column
    rng = np.random.default_rng(17)
    matrices = [rng.uniform(1.0, 10.0, s) for s in SOLVE_SHAPES]
    for c in matrices:
        np.fill_diagonal(c, 0.0)
    assert_one_unpadded_solve(monkeypatch, matrices)


def test_hungarian_solves_once_unless_a_lower_column_may_tie(monkeypatch):
    # tie-heavy: among equal-cost optima the solver's own is returned, no re-solve
    rng = np.random.default_rng(17)
    matrices = [rng.integers(0, 3, s).astype(float) for s in SOLVE_SHAPES]
    assert_one_unpadded_solve(monkeypatch, matrices)


@pytest.mark.parametrize(
    "cost, message",
    [
        (np.zeros(3), "cost matrix must be 2-D"),
        (np.zeros((2, 2, 2)), "cost matrix must be 2-D"),
        ([[0.0, math.inf]], "costs must be finite"),
        ([[math.nan]], "costs must be finite"),
    ],
)
def test_hungarian_rejects_a_matrix_that_is_not_2d_and_finite(cost, message):
    with pytest.raises(ValueError, match=message):
        hungarian(cost)
