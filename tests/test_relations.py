import functools
import itertools
import math
import operator
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drivekit.relations
from conftest import RigidMotion, cruising_ego, scene_of, state, straight_lane, track
from drivekit.errors import DegenerateError, TopologyCycleError
from drivekit.geometry import POSITION_ONLY_CATEGORIES, LaneIndex, associate_lane
from drivekit.relations import (
    EgoLaneDecision,
    HomotopyClass,
    LaneMode,
    RelationOutputs,
    agent_ego_lane_mode,
    classify_homotopy,
    compute_relations,
    ego_lane_decisions,
    label_nav_commands,
)
from drivekit.scene import (
    AgentCategory,
    Lane,
    LaneSemantic,
    NavigationCommand,
    ScenarioKind,
)
from drivekit.synth import synth_scene


def lane_index(lanes):
    return LaneIndex.build(lanes)


def associate(states, index, config, check_heading=True):
    """associate_lane over a list of AgentState."""
    xy = [(st.pose.x, st.pose.y) for st in states]
    return associate_lane(xy, [st.pose.heading for st in states], index, config, check_heading)


def ego_assoc(scene, config):
    """The ego's per-frame lane association, as compute_relations makes it."""
    return associate(scene.ego.states, lane_index(scene.lanes), config)


# --------------------------------------------------------------------------
# agent-ego lane mode


def test_same_lane_positive_gap_is_ahead(config):
    lanes = lane_index([straight_lane(1)])
    mode, gap = agent_ego_lane_mode(1, 1, lanes, 35.0, 20.0, config)
    assert mode is LaneMode.AHEAD
    assert gap == 15.0


def test_same_lane_negative_gap_is_behind(config):
    lanes = lane_index([straight_lane(1)])
    mode, _ = agent_ego_lane_mode(1, 1, lanes, 5.0, 20.0, config)
    assert mode is LaneMode.BEHIND


def test_left_neighbor_dominates_longitudinal_offset(config):
    lanes = lane_index(
        [straight_lane(1, left=2), straight_lane(2, y=3.7, right=1)]
    )
    mode, _ = agent_ego_lane_mode(2, 1, lanes, 35.0, 20.0, config)
    assert mode is LaneMode.LEFT


def test_two_hop_lateral_within_k_lat(config):
    lanes = lane_index(
        [
            straight_lane(1, left=2),
            straight_lane(2, y=3.7, left=3, right=1),
            straight_lane(3, y=7.4, right=2),
        ]
    )
    mode, _ = agent_ego_lane_mode(3, 1, lanes, 20.0, 20.0, config)
    assert mode is LaneMode.LEFT
    mode, _ = agent_ego_lane_mode(3, 1, lanes, 20.0, 20.0, config.replace(k_lat=1))
    assert mode is LaneMode.NOTON


def test_no_lane_is_noton(config):
    lanes = lane_index([straight_lane(1)])
    mode, gap = agent_ego_lane_mode(None, 1, lanes, None, 10.0, config)
    assert mode is LaneMode.NOTON and gap is None


def test_successor_chain_ahead_with_cumulative_arclength(config):
    a = straight_lane(1, length=50.0, successors=(2,))
    b = straight_lane(2, length=50.0, x0=50.0, predecessors=(1,))
    lanes = lane_index([a, b])
    mode, gap = agent_ego_lane_mode(2, 1, lanes, 5.0, 40.0, config)
    assert mode is LaneMode.AHEAD
    assert abs(gap - 15.0) < 1e-9
    mode, gap = agent_ego_lane_mode(1, 2, lanes, 40.0, 5.0, config)
    assert mode is LaneMode.BEHIND
    assert abs(gap + 15.0) < 1e-9


def test_chain_beyond_k_lon_is_noton(config):
    chain = []
    for i in range(1, 7):
        chain.append(
            straight_lane(
                i,
                length=10.0,
                x0=10.0 * (i - 1),
                successors=(i + 1,) if i < 6 else (),
                predecessors=(i - 1,) if i > 1 else (),
            )
        )
    lanes = lane_index(chain)
    mode, _ = agent_ego_lane_mode(5, 1, lanes, 5.0, 5.0, config)  # 4 hops out
    assert mode is LaneMode.NOTON
    mode, _ = agent_ego_lane_mode(4, 1, lanes, 5.0, 5.0, config)  # 3 hops
    assert mode is LaneMode.AHEAD


def test_a_walk_past_the_end_of_the_lane_graph_stops_there(config):
    # 1 -> 2: every hop past lane 2 finds nothing, so a k_lon far beyond the
    # chain gives the k_lon = 3 answer without walking the empty hops
    lanes = lane_index(
        [straight_lane(1, successors=(2,)), straight_lane(2, x0=100.0, predecessors=(1,))]
    )
    start = time.perf_counter()
    got = agent_ego_lane_mode(2, 1, lanes, 5.0, 90.0, config.replace(k_lon=10**7))
    elapsed = time.perf_counter() - start
    assert got == agent_ego_lane_mode(2, 1, lanes, 5.0, 90.0, config.replace(k_lon=3))
    assert got == (LaneMode.AHEAD, 15.0)
    assert elapsed < 0.2


def test_a_lane_ring_that_branches_and_merges_keeps_its_frontier_small(config):
    # 1 -> {2, 3} -> 1 with equal lengths: both branches reach lane 1 at the
    # same offset, so a walk that kept one entry per path would double its
    # frontier every two hops
    lanes = lane_index([
        straight_lane(1, successors=(2, 3), predecessors=(2, 3)),
        straight_lane(2, x0=100.0, successors=(1,), predecessors=(1,)),
        straight_lane(3, x0=100.0, y=10.0, successors=(1,), predecessors=(1,)),
    ])
    start = time.perf_counter()
    got = agent_ego_lane_mode(2, 1, lanes, 5.0, 90.0, config.replace(k_lon=10**4))
    elapsed = time.perf_counter() - start
    assert got == agent_ego_lane_mode(2, 1, lanes, 5.0, 90.0, config.replace(k_lon=3))
    assert got == (LaneMode.AHEAD, 15.0)
    assert elapsed < 1.0


def test_a_lane_ring_with_branches_of_unequal_length_walks_in_bounded_time(config):
    # 1 -> {2, 3} -> 1 with lanes of 100, 100 and 90 m: the two branches
    # reach lane 1 at offsets that differ by 10 m per lap, so a walk that
    # kept each distinct offset would grow its frontier with every lap
    lanes = lane_index([
        straight_lane(1, successors=(2, 3), predecessors=(2, 3)),
        straight_lane(2, x0=100.0, successors=(1,), predecessors=(1,)),
        straight_lane(3, x0=100.0, y=10.0, length=90.0, successors=(1,), predecessors=(1,)),
    ])
    start = time.perf_counter()
    got = agent_ego_lane_mode(2, 1, lanes, 5.0, 90.0, config.replace(k_lon=10**6))
    elapsed = time.perf_counter() - start
    assert got == agent_ego_lane_mode(2, 1, lanes, 5.0, 90.0, config.replace(k_lon=3))
    assert got == (LaneMode.AHEAD, 15.0)
    assert elapsed < 1.0


def _walk_every_path(index, ego_lane, agent_lane, ego_s, agent_s, max_hops):
    """The longitudinal walk with one frontier entry per path (the oracle)."""
    if agent_lane == ego_lane:
        return agent_s - ego_s
    best = None
    for attr, sign, start in (
        ("successors", 1.0, index.lengths[ego_lane] - ego_s),
        ("predecessors", -1.0, ego_s),
    ):
        frontier = [(ego_lane, start)]
        for _ in range(max_hops):
            nxt = []
            for lid, acc in frontier:
                for lane in sorted(getattr(index.by_id[lid], attr)):
                    length = index.lengths[lane]
                    if lane == agent_lane:
                        delta = sign * (acc + (agent_s if sign > 0 else length - agent_s))
                        if best is None or abs(delta) < abs(best):
                            best = delta
                    nxt.append((lane, acc + length))
            frontier = nxt
    return best


def _random_lane_graph(data):
    """Lane id -> (successors, predecessors): any references, loops included;
    then the ego lane and the agent lane."""
    n = data.draw(st.integers(2, 6))
    refs = st.lists(st.integers(1, n), max_size=3)
    graph = {i: (data.draw(refs), data.draw(refs)) for i in range(1, n + 1)}
    return graph, data.draw(st.integers(1, n)), data.draw(st.integers(1, n))


def _layered_lane_graph(data):
    """Lane id -> (successors, predecessors) of layers that branch and merge
    again, the last layer looping back to the first when drawn so; then the
    ego lane and the agent lane, one in the first layer and one in the last."""
    widths = data.draw(st.lists(st.integers(1, 3), min_size=3, max_size=6))
    layers, first = [], 1
    for width in widths:
        layers.append(list(range(first, first + width)))
        first += width
    ends = [data.draw(st.sampled_from(layers[0])), data.draw(st.sampled_from(layers[-1]))]
    if data.draw(st.booleans()):
        layers.append(layers[0])
    graph = {i: ([], []) for layer in layers for i in layer}
    for here, there in zip(layers, layers[1:]):
        for i in here:
            for j in data.draw(st.lists(st.sampled_from(there), min_size=1, max_size=3)):
                graph[i][0].append(j)
                graph[j][1].append(i)
    return (graph, *data.draw(st.permutations(ends)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_walk_matches_the_walk_over_every_path(data):
    draw_graph = data.draw(st.sampled_from([_random_lane_graph, _layered_lane_graph]))
    graph, ego_lane, agent_lane = draw_graph(data)
    lanes = [
        straight_lane(
            i, length=data.draw(st.sampled_from([10.0, 10.0, 25.0, 40.0])),
            successors=tuple(succ), predecessors=tuple(pred),
        )
        for i, (succ, pred) in graph.items()
    ]
    index = lane_index(lanes)
    ego_s = data.draw(st.one_of(
        st.floats(0.0, 1.0).map(lambda f: f * index.lengths[ego_lane]),
        st.just(index.lengths[ego_lane] + 1e-12),  # just past the lane end
    ))
    agent_s = data.draw(st.floats(0.0, 1.0)) * index.lengths[agent_lane]
    hops = data.draw(st.integers(1, 6))
    args = (index, ego_lane, agent_lane, ego_s, agent_s, hops)
    assert drivekit.relations._longitudinal_delta(*args) == _walk_every_path(*args)


def test_branching_successors_merge_without_changing_the_gap(config):
    # 1 -> {2, 3} -> 4: both branches reach lane 4 with the same offset, and
    # the merged paths give one gap
    lanes = lane_index(
        [
            straight_lane(1, length=10.0, successors=(2, 3)),
            straight_lane(2, length=10.0, x0=10.0, successors=(4,), predecessors=(1,)),
            straight_lane(3, y=3.7, length=10.0, x0=10.0, successors=(4,), predecessors=(1,)),
            straight_lane(4, length=10.0, x0=20.0, predecessors=(2, 3)),
        ]
    )
    mode, gap = agent_ego_lane_mode(4, 1, lanes, 2.0, 5.0, config)
    assert mode is LaneMode.AHEAD and gap == 17.0
    mode, gap = agent_ego_lane_mode(1, 4, lanes, 5.0, 2.0, config)
    assert mode is LaneMode.BEHIND and gap == -17.0


def test_nearer_of_a_predecessor_and_a_successor_hit_wins(config):
    # the ring 1 -> 2 -> 3 -> 1 of 10 m lanes: lane 3 is two successor hops
    # ahead of lane 1 and one predecessor hop behind it
    lanes = lane_index(
        [
            straight_lane(i, y=4.0 * i, length=10.0, successors=(i % 3 + 1,), predecessors=(p,))
            for i, p in ((1, 3), (2, 1), (3, 2))
        ]
    )
    # ahead by 8 + 10 + 8 = 26, behind by 2 + 2 = 4
    mode, gap = agent_ego_lane_mode(3, 1, lanes, 8.0, 2.0, config)
    assert mode is LaneMode.BEHIND and gap == -4.0
    # ahead by 2 + 10 + 2 = 14, behind by 8 + 8 = 16
    mode, gap = agent_ego_lane_mode(3, 1, lanes, 2.0, 8.0, config)
    assert mode is LaneMode.AHEAD and gap == 14.0


def test_exact_longitudinal_tie_reads_ahead(config):
    lanes = lane_index([straight_lane(1)])
    mode, _ = agent_ego_lane_mode(1, 1, lanes, 20.0, 20.0, config)
    assert mode is LaneMode.AHEAD


def test_neighbor_cycle_raises(config):
    a = straight_lane(1, left=2)
    b = straight_lane(2, y=3.7, left=1, right=1)
    lanes = lane_index([a, b])
    with pytest.raises(TopologyCycleError):
        agent_ego_lane_mode(99, 1, lanes, 0.0, 0.0, config.replace(k_lat=5))


# --------------------------------------------------------------------------
# homotopy


def test_static_pair_is_s(config):
    a = np.zeros((10, 2))
    b = np.full((10, 2), (3.0, 0.0))
    h = classify_homotopy(a, b, config.theta_s)
    assert h.kind is HomotopyClass.S
    assert h.winding == 0.0


def test_full_ccw_orbit_winds_two_pi(config):
    t = np.linspace(0.0, 2.0 * math.pi, 65)  # 64 increments close the loop
    a = np.zeros((65, 2))
    b = 3.0 * np.stack([np.cos(t), np.sin(t)], axis=1)
    h = classify_homotopy(a, b, config.theta_s)
    assert abs(h.winding - 2.0 * math.pi) < 1e-3
    assert h.kind is HomotopyClass.CCW


def test_cw_orbit(config):
    t = np.linspace(0.0, -2.0 * math.pi, 65)
    a = np.zeros((65, 2))
    b = 3.0 * np.stack([np.cos(t), np.sin(t)], axis=1)
    h = classify_homotopy(a, b, config.theta_s)
    assert h.kind is HomotopyClass.CW


def test_parallel_constant_velocity_is_s(config):
    t = np.arange(20.0)[:, None]
    a = np.hstack([t * 4.0, np.zeros((20, 1))])
    b = a + (0.0, 3.7)
    h = classify_homotopy(a, b, config.theta_s)
    assert h.kind is HomotopyClass.S
    assert h.winding == 0.0


def test_coincident_agents_degenerate(config):
    a = np.zeros((5, 2))
    b = np.zeros((5, 2))
    with pytest.raises(DegenerateError):
        classify_homotopy(a, b, config.theta_s)


def random_pair(rng, n=30):
    a = rng.uniform(-1, 1, (n, 2)).cumsum(axis=0)
    b = a + rng.uniform(3, 6, (1, 2)) + rng.uniform(-0.5, 0.5, (n, 2)).cumsum(axis=0)
    return a, b


def test_winding_additivity_over_concatenation(config):
    rng = np.random.default_rng(5)
    for _ in range(100):
        a, b = random_pair(rng)
        k = int(rng.integers(2, len(a) - 1))
        whole = classify_homotopy(a, b, config.theta_s).winding
        first = classify_homotopy(a[: k + 1], b[: k + 1], config.theta_s).winding
        second = classify_homotopy(a[k:], b[k:], config.theta_s).winding
        assert whole == pytest.approx(first + second, abs=1e-12)


def test_swap_preserves_winding_magnitude(config):
    # negating the relative vector is a rigid half-turn, so both agents see
    # the same rotation; the sign of the winding cannot flip under a swap
    rng = np.random.default_rng(6)
    for _ in range(50):
        a, b = random_pair(rng)
        h_ab = classify_homotopy(a, b, config.theta_s)
        h_ba = classify_homotopy(b, a, config.theta_s)
        assert h_ba.winding == pytest.approx(h_ab.winding, abs=1e-12)
        assert h_ba.kind is h_ab.kind


# --------------------------------------------------------------------------
# ego lane decisions


def test_tracking_centerline_keeps_lane(config):
    lanes = [straight_lane(1, length=100.0)]
    scene = scene_of(lanes, [], cruising_ego(12))
    assert set(ego_lane_decisions(scene, ego_assoc(scene, config))) == {EgoLaneDecision.KEEP_LANE}


def test_small_offset_keeps_lane(config):
    # |d| = 0.3 in a 3.7 m lane with a 2.0 m ego: 0.3 < 1.85 - 1.0
    lanes = [straight_lane(1, length=100.0)]
    ego = [state(5 + 4 * k, 0.3, 0.0, 8.0, box=(4.5, 2.0)) for k in range(10)]
    scene = scene_of(lanes, [], ego)
    assert set(ego_lane_decisions(scene, ego_assoc(scene, config))) == {EgoLaneDecision.KEEP_LANE}


def test_lane_change_sequence_straddle_then_change(config):
    # cross from lane 1 (y=0) to its left neighbor 2 (y=3.7) with controlled
    # per-frame offsets: 0, 0.8, 2.0 (switch), 3.3, 3.7, 3.7
    lanes = [straight_lane(1, left=2), straight_lane(2, y=3.7, right=1)]
    ys = [0.0, 0.8, 2.0, 3.3, 3.7, 3.7]
    ego = [state(10.0 + 4 * k, y, 0.0, 8.0, box=(4.5, 1.9)) for k, y in enumerate(ys)]
    scene = scene_of(lanes, [], ego)
    decisions = ego_lane_decisions(scene, ego_assoc(scene, config))
    # y=0.8 -> d=0.8 < 0.905 keeps; y=2.0 flips association (closer to lane 2)
    assert decisions == [
        EgoLaneDecision.KEEP_LANE,
        EgoLaneDecision.KEEP_LANE,
        EgoLaneDecision.LEFT_LANE_CHANGE,
        EgoLaneDecision.KEEP_LANE,
        EgoLaneDecision.KEEP_LANE,
        EgoLaneDecision.KEEP_LANE,
    ]


def test_straddle_before_switch(config):
    lanes = [straight_lane(1, left=2), straight_lane(2, y=3.7, right=1)]
    ys = [0.0, 1.2, 1.6, 2.2, 3.0, 3.7]
    ego = [state(10.0 + 4 * k, y, 0.0, 8.0, box=(4.5, 1.9)) for k, y in enumerate(ys)]
    scene = scene_of(lanes, [], ego)
    decisions = ego_lane_decisions(scene, ego_assoc(scene, config))
    assert decisions[1] is EgoLaneDecision.STRADDLE  # 1.2 > 0.905
    assert decisions[2] is EgoLaneDecision.STRADDLE
    assert decisions[3] is EgoLaneDecision.LEFT_LANE_CHANGE  # 2.2: lane 2 closer
    assert decisions[4] is EgoLaneDecision.KEEP_LANE  # |d| to lane 2 is 0.7 < 0.905
    assert decisions[5] is EgoLaneDecision.KEEP_LANE


# --------------------------------------------------------------------------
# navigation commands


def test_straight_cruise_keeps_forward(config):
    scene = scene_of([straight_lane(1, length=120.0)], [], cruising_ego(20))
    assert set(label_nav_commands(scene, config, ego_assoc(scene, config))) == {NavigationCommand.KEEP_FORWARD}


def intersection_turn_scene():
    """Straight approach, quarter-circle left turn through an intersection
    lane (radius 12 m at 8 m/s), then straight north."""
    v, r = 8.0, 12.0
    omega = v / r
    t_turn_start = 4.75  # ego hits x=50 (turn start) at this time
    t_turn_end = t_turn_start + (math.pi / 2) / omega  # 6.60 s... computed below

    def ego_at(t):
        if t <= t_turn_start:
            return 12.0 + v * t, 0.0, 0.0
        phi = min(omega * (t - t_turn_start), math.pi / 2)
        if omega * (t - t_turn_start) <= math.pi / 2:
            x = 50.0 + r * math.cos(-math.pi / 2 + phi)
            y = 12.0 + r * math.sin(-math.pi / 2 + phi)
            return x, y, phi
        dt = t - t_turn_start - (math.pi / 2) / omega
        return 62.0, 12.0 + v * dt, math.pi / 2

    n = 21
    ego = []
    for k in range(n):
        x, y, h = ego_at(0.5 * k)
        ego.append(state(x, y, h, v))

    approach = straight_lane(1, length=50.0)
    arc = Lane(
        id=2,
        centerline=tuple(
            (50.0 + r * math.cos(p), 12.0 + r * math.sin(p))
            for p in np.linspace(-math.pi / 2, 0.0, 40)
        ),
        half_width=1.85,
        semantic=LaneSemantic.INTERSECTION,
    )
    north = Lane(
        id=3,
        centerline=tuple((62.0, float(y)) for y in np.linspace(10.0, 60.0, 11)),
        half_width=1.85,
        semantic=LaneSemantic.NORMAL,
    )
    return scene_of([approach, arc, north], [], ego)


def test_intersection_turn_labels(config):
    scene = intersection_turn_scene()
    commands = label_nav_commands(scene, config, ego_assoc(scene, config))
    # approach frames within 30 m of the intersection read prepare-left;
    # frames on the intersection lane with >= 60 degrees remaining read turn-left
    assert commands[10] is NavigationCommand.TURN_LEFT
    assert commands[11] is NavigationCommand.TURN_LEFT
    for f in range(3, 10):
        assert commands[f] is NavigationCommand.PREPARE_TURN_LEFT, (f, commands[f])
    for f in (0, 1, 2):
        assert commands[f] is NavigationCommand.KEEP_FORWARD
    for f in range(14, 21):
        assert commands[f] is NavigationCommand.KEEP_FORWARD


def test_nav_heading_change_adds_left_to_right(config):
    # the changes add up, left to right, to 0.9899999999999999, one ulp under
    # 0.99, while their exact total reaches 0.99; a compensated sum (sum() on
    # Python 3.12) would read TURN_LEFT here
    headings = [-0.74, -0.45, -0.27, -0.04, 0.07, 0.13, 0.25]
    deltas = [b - a for a, b in zip(headings, headings[1:])]
    assert functools.reduce(operator.add, deltas) < 0.99 <= sum(map(Fraction, deltas))
    lane = straight_lane(1, length=100.0, semantic=LaneSemantic.INTERSECTION)
    ego = [state(10.0 + 2.0 * k, 0.0, h, 4.0) for k, h in enumerate(headings)]
    scene = scene_of([lane], [], ego)
    assoc = ego_assoc(scene, config)
    at_total = config.replace(theta_turn=0.99)
    assert label_nav_commands(scene, at_total, assoc)[0] is NavigationCommand.KEEP_FORWARD
    below = config.replace(theta_turn=math.nextafter(0.99, 0.0))
    assert label_nav_commands(scene, below, assoc)[0] is NavigationCommand.TURN_LEFT


def test_three_point_turn_closure(config):
    scene = synth_scene("THREE_POINT_TURN", 9)
    commands = label_nav_commands(scene, config, ego_assoc(scene, config))
    assert NavigationCommand.THREE_POINT_TURN_LEFT in commands
    # reported while the maneuver is upcoming, not after it completes
    first = commands.index(NavigationCommand.THREE_POINT_TURN_LEFT)
    tagged = [c for c in scene.nav_commands]
    assert tagged.index(NavigationCommand.THREE_POINT_TURN_LEFT) >= first


def test_u_turn_without_reversal(config):
    # half-circle left at constant forward speed: a u-turn, not a 3-point turn
    v, r = 6.0, 9.0
    omega = v / r
    n = 24
    ego = []
    for k in range(n):
        t = 0.5 * k
        phi = min(omega * t, math.pi)
        if omega * t <= math.pi:
            x = 20.0 + r * math.cos(-math.pi / 2 + phi)
            y = 9.0 + r * math.sin(-math.pi / 2 + phi)
            ego.append(state(x, y, phi, v))
        else:
            dt = t - math.pi / omega
            ego.append(state(20.0 - v * dt, 18.0, math.pi, v))
    scene = scene_of([straight_lane(1, length=120.0)], [], ego)
    commands = label_nav_commands(scene, config, ego_assoc(scene, config))
    assert NavigationCommand.U_TURN_LEFT in commands
    assert NavigationCommand.THREE_POINT_TURN_LEFT not in commands


def test_nav_invariant_under_rigid_transform(config):
    base = synth_scene("THREE_POINT_TURN", 4)
    expected = label_nav_commands(base, config, ego_assoc(base, config))
    moved = RigidMotion(1.1, -214.0, 77.0).scene(base)
    assert label_nav_commands(moved, config, ego_assoc(moved, config)) == expected


# --------------------------------------------------------------------------
# canonical overtake sequence (worked example)


def test_overtake_mode_sequence_and_totality(config):
    scene = synth_scene("OVERTAKE_ONCOMING", 2, {"pass_side": "right", "with_oncoming": False})
    rel = compute_relations(scene, config)
    modes = rel.lane_modes[10]
    runs = [k for k, _ in itertools.groupby(modes)]
    assert runs == [LaneMode.AHEAD, LaneMode.LEFT, LaneMode.BEHIND]
    # totality: exactly one mode, decision, command per frame
    assert len(modes) == scene.n_frames
    assert len(rel.ego_decisions) == scene.n_frames
    assert len(rel.nav_commands) == scene.n_frames


# --------------------------------------------------------------------------
# one association per scene


def per_track_relations(scene, config):
    """Oracle: compute_relations with one association call for the ego and
    one per agent track, each over that track's valid states."""
    index = lane_index(scene.lanes)
    ego = associate(scene.ego.states, index, config)
    ego_lane, ego_s = ego[0].tolist(), ego[1].tolist()
    lane_modes, lon_gaps = {}, {}
    for tr in scene.agents:
        valid = [f for f, st in enumerate(tr.states) if st.valid]
        check_heading = tr.category not in POSITION_ONLY_CATEGORIES
        lane, s, _ = associate([tr.states[f] for f in valid], index, config, check_heading)
        modes = [LaneMode.NOTON] * len(tr.states)
        gaps = [None] * len(tr.states)
        for f, agent_lane, agent_s in zip(valid, lane.tolist(), s.tolist()):
            modes[f], gaps[f] = agent_ego_lane_mode(
                agent_lane if agent_lane >= 0 else None,
                ego_lane[f] if ego_lane[f] >= 0 else None,
                index,
                agent_s,
                ego_s[f],
                config,
            )
        lane_modes[tr.id] = tuple(modes)
        lon_gaps[tr.id] = tuple(gaps)
    return RelationOutputs(
        ego_decisions=tuple(ego_lane_decisions(scene, ego)),
        nav_commands=tuple(label_nav_commands(scene, config, ego)),
        lane_modes=lane_modes,
        lon_gaps=lon_gaps,
    )


def many_agent_scene(seed, n_agents=40, n_frames=24):
    """Four chained lanes a side, agents of every category strewn over the
    road at random headings, about a fifth of their states invalid."""
    rng = np.random.default_rng(seed)
    lanes = [
        straight_lane(1, y=0.0, length=60.0, left=2, successors=(3,)),
        straight_lane(2, y=3.7, length=60.0, right=1, successors=(4,)),
        straight_lane(3, y=0.0, length=60.0, x0=60.0, left=4, predecessors=(1,)),
        straight_lane(4, y=3.7, length=60.0, x0=60.0, right=3, predecessors=(2,)),
    ]
    categories = list(AgentCategory)
    agents = []
    for k in range(n_agents):
        x0, y0 = rng.uniform(-5.0, 110.0), rng.uniform(-3.0, 7.0)
        heading = rng.choice([0.0, math.pi, rng.uniform(-math.pi, math.pi)])
        speed = rng.uniform(0.0, 10.0)
        states = [
            state(
                x0 + speed * 0.5 * f * math.cos(heading),
                y0 + speed * 0.5 * f * math.sin(heading) + rng.normal(0.0, 0.2),
                heading + rng.normal(0.0, 0.3),
                speed,
                valid=bool(rng.random() > 0.2),
            )
            for f in range(n_frames)
        ]
        agents.append(track(10 + k, states, categories[k % len(categories)]))
    ego = cruising_ego(n_frames, speed=9.0, x0=2.0, heading=0.03)
    return scene_of(lanes, agents, ego, scene_id=f"many-{seed}")


def relation_scenes():
    for kind in ScenarioKind:
        for seed in (0, 3):
            yield synth_scene(kind, seed)
    for seed in (1, 2):
        yield many_agent_scene(seed)


def test_one_association_per_scene_matches_the_per_track_calls(config):
    categories = set()
    for scene in relation_scenes():
        got = compute_relations(scene, config)
        expected = per_track_relations(scene, config)
        assert got == expected, scene.id
        assert repr(got.lon_gaps) == repr(expected.lon_gaps), scene.id
        categories.update(tr.category for tr in scene.agents)
    assert POSITION_ONLY_CATEGORIES <= categories


def test_compute_relations_makes_one_association_call_per_scene(config, monkeypatch):
    calls = []

    def counting(xy, *args, **kwargs):
        calls.append(len(xy))
        return associate_lane(xy, *args, **kwargs)

    monkeypatch.setattr(drivekit.relations, "associate_lane", counting)
    for scene in relation_scenes():
        calls.clear()
        compute_relations(scene, config)
        valid = sum(st.valid for tr in scene.agents for st in tr.states)
        assert calls == [scene.n_frames + valid], scene.id
