"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with -s to see them). Tolerances are pinned in the asserts."""
import functools
import io
import itertools
import json
import math

import numpy as np

from conftest import cruising_ego, scene_of, state, straight_lane
from drivekit.cli import main
from drivekit.config import Config
from drivekit.geometry import obb_corners, obb_overlap, project_to_polyline
from drivekit.interactions import InteractionKind, Side, label_interactions
from drivekit.metrics import (
    PlanSample,
    apply_frame_mask,
    evaluate_plans,
    future_complete,
    grounding_prf,
    hungarian,
    lon_weighted_l2,
    traj_l2,
)
from drivekit.planners import ego_future_waypoints
from drivekit.relations import HomotopyClass, LaneMode, classify_homotopy, compute_relations
from drivekit.scene import (
    AgentCategory,
    AgentTrack,
    NavigationCommand,
    Scene,
    load_scene,
    save_scene,
)
from drivekit.synth import corpus_manifest, synth_corpus, synth_scene
from drivekit.tokens import (
    AGENT_DIM,
    AGENT_RECORD,
    MAP_DIM,
    MAP_RECORD,
    TokenBundle,
    fixture_decode,
    fixture_encode,
    read_bundle,
    write_bundle,
)

CONFIG = Config()


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num:>2} {name}: FAIL")
                raise
            print(f"ACCEPTANCE {num:>2} {name}: PASS")

        return wrapper

    return deco


def full_corpus():
    counts = {
        "NOMINAL": 4,
        "THREE_POINT_TURN": 4,
        "RESUME_FROM_STOP": 4,
        "OVERTAKE_ONCOMING": 4,
        "CONSTRUCTION_ZONE": 4,
    }
    scenes, _ = synth_corpus(counts, base_seed=0)
    return scenes


@criterion(1, "replay oracle scores zero")
def test_c01_replay_oracle_zero():
    scenes = {s.id: s for s in full_corpus()}
    plans = []
    for scene in scenes.values():
        for frame in range(scene.n_frames):
            if future_complete(scene.ego, frame, scene.frame_rate):
                wp = ego_future_waypoints(scene, frame)
                plans.append(PlanSample(scene.id, frame, tuple(map(tuple, wp))))
    assert plans
    report = evaluate_plans(plans, scenes, CONFIG)
    assert report.n_samples == len(plans)
    for hv in (report.l2, report.heading, report.lon_weighted):
        assert hv.ave_all <= 1e-9
        assert hv.ave123 <= 1e-9
        for value in hv.at.values():
            assert value <= 1e-9
    assert report.collision_rate_ave_all == 0.0  # the corpus is collision-free


@criterion(2, "assignment cost equals brute force")
def test_c02_hungarian_exact():
    rng = np.random.default_rng(1234)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 8))
        c = rng.uniform(0.0, 10.0, (n, m))
        assignment = hungarian(c)
        mine = sum(c[i, j] for i, j in enumerate(assignment) if j is not None)
        if n <= m:
            best = min(
                sum(c[i, p[i]] for i in range(n))
                for p in itertools.permutations(range(m), n)
            )
        else:
            best = min(
                sum(c[i, j] for i, j in sorted(zip(p, range(m))))
                for p in itertools.permutations(range(n), m)
            )
        assert mine == best  # tolerance 0


@criterion(3, "grounding precision/recall arithmetic")
def test_c03_grounding():
    pred = [(0.0, 0.0), (5.0, 0.0)]
    gt = [(0.4, 0.0), (5.3, 0.0), (50.0, 50.0)]
    report = grounding_prf(pred, gt, gate=2.0)
    assert report.precision == 1.0
    assert abs(report.recall - 2.0 / 3.0) <= 1e-12
    empty = grounding_prf([], gt, gate=2.0)
    assert empty.precision is None
    assert empty.recall == 0.0


@criterion(4, "frenet projection matches brute force")
def test_c04_frenet_fidelity():
    fc = project_to_polyline((5.0, 2.0), [(0.0, 0.0), (10.0, 0.0)])
    assert abs(fc.s - 5.0) <= 1e-9 and abs(fc.d - 2.0) <= 1e-9

    rng = np.random.default_rng(777)
    for _ in range(500):
        n = int(rng.integers(2, 9))
        steps = rng.uniform(0.5, 8.0, (n - 1, 1))
        angles = rng.uniform(-math.pi, math.pi, n - 1)
        deltas = steps * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        poly = np.vstack([rng.uniform(-20, 20, 2), deltas]).cumsum(axis=0)
        point = rng.uniform(-30.0, 30.0, 2)

        fc = project_to_polyline(point, poly)
        seg = np.hypot(*np.diff(poly, axis=0).T)
        cum = np.concatenate(([0.0], np.cumsum(seg)))
        s = np.linspace(0.0, cum[-1], 10_000)
        xs = np.interp(s, cum, poly[:, 0])
        ys = np.interp(s, cum, poly[:, 1])
        oracle = float(np.hypot(xs - point[0], ys - point[1]).min())
        spacing = float(cum[-1]) / 10_000
        assert abs(fc.d) <= oracle + 1e-6
        assert oracle - abs(fc.d) <= 1e-6 + spacing / 2


@criterion(5, "homotopy winding: orbit and additivity")
def test_c05_homotopy_orbit_and_additivity():
    t = np.linspace(0.0, 2.0 * math.pi, 65)  # 64 increments close one orbit
    a = np.zeros((65, 2))
    b = 3.0 * np.stack([np.cos(t), np.sin(t)], axis=1)
    h = classify_homotopy(a, b, CONFIG.theta_s)
    assert abs(h.winding - 2.0 * math.pi) < 1e-3
    assert h.kind is HomotopyClass.CCW

    rng = np.random.default_rng(55)
    for _ in range(100):
        n = 30
        pa = rng.uniform(-1, 1, (n, 2)).cumsum(axis=0)
        pb = pa + rng.uniform(3, 6, (1, 2)) + rng.uniform(-0.5, 0.5, (n, 2)).cumsum(axis=0)
        k = int(rng.integers(2, n - 1))
        whole = classify_homotopy(pa, pb, CONFIG.theta_s).winding
        first = classify_homotopy(pa[: k + 1], pb[: k + 1], CONFIG.theta_s).winding
        second = classify_homotopy(pa[k:], pb[k:], CONFIG.theta_s).winding
        # exact over the reals; float re-addition of the two halves can round
        # once more, so the comparison sits at the last-ulp scale
        assert abs(whole - (first + second)) <= 1e-12


@criterion(5, "homotopy winding: antisymmetry under agent swap")
def test_c05_homotopy_antisymmetry_under_swap():
    # Expected to fail: a sign flip under agent swap cannot hold for the
    # winding of a relative position vector. Swapping negates the vector, a
    # rigid half-turn, which leaves every wrapped angle increment unchanged,
    # so both agents always see the same winding (in the full-orbit case both
    # see one CCW revolution). Kept as an executable record of that analysis;
    # the true symmetric behavior is locked down in
    # test_relations.test_swap_preserves_winding_magnitude.
    rng = np.random.default_rng(56)
    for _ in range(100):
        n = 30
        pa = rng.uniform(-1, 1, (n, 2)).cumsum(axis=0)
        pb = pa + rng.uniform(3, 6, (1, 2)) + rng.uniform(-0.5, 0.5, (n, 2)).cumsum(axis=0)
        h_ab = classify_homotopy(pa, pb, CONFIG.theta_s)
        h_ba = classify_homotopy(pb, pa, CONFIG.theta_s)
        assert h_ba.winding == -h_ab.winding


@criterion(6, "canonical overtake sequence and label")
def test_c06_overtake_worked_example():
    scene = synth_scene(
        "OVERTAKE_ONCOMING", 0, {"pass_side": "right", "with_oncoming": False}
    )
    rel = compute_relations(scene, CONFIG)
    modes = rel.lane_modes[10]
    runs = [k for k, _ in itertools.groupby(modes)]
    assert runs == [LaneMode.AHEAD, LaneMode.LEFT, LaneMode.BEHIND]
    labels = label_interactions(scene, rel, CONFIG)
    assert len(labels) == 1
    assert labels[0].kind is InteractionKind.OVERTAKE_LANE_CHANGE
    assert labels[0].side is Side.LEFT


@criterion(7, "longitudinal weighting reduces and is monotone")
def test_c07_metric_reductions():
    rng = np.random.default_rng(99)
    for _ in range(100):
        gt = rng.uniform(-10, 10, (6, 2))
        pred = gt + rng.uniform(-2, 2, (6, 2))
        w1 = lon_weighted_l2(pred, gt, w_lon=1.0)
        l2 = traj_l2(pred, gt)
        for a, b in zip(w1.per_step, l2.per_step):
            assert abs(a - b) <= 1e-12
        assert abs(w1.ave_all - l2.ave_all) <= 1e-12
        values = [
            lon_weighted_l2(pred, gt, w_lon=w).ave_all for w in (0.5, 1.0, 2.0, 4.0, 8.0)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


@criterion(8, "separating-axis collision test vs sampling oracle")
def test_c08_collision_detector():
    # analytic cases are exact
    a = obb_corners((0.0, 0.0), 0.0, 4.0, 2.0)
    assert not obb_overlap(a, obb_corners((7.0, 0.0), 0.0, 4.0, 2.0))
    assert obb_overlap(a, obb_corners((4.0, 0.0), 0.0, 4.0, 2.0))  # tangent
    assert not obb_overlap(a, obb_corners((4.0 + 1e-9, 0.0), 0.0, 4.0, 2.0))

    rng = np.random.default_rng(2024)
    n_pairs = 10_000
    agree = 0
    grid = np.linspace(-0.5, 0.5, 16)
    uu, vv = np.meshgrid(grid, grid)
    unit = np.stack([uu.ravel(), vv.ravel()], axis=1)
    for _ in range(n_pairs):
        ca, cb = rng.uniform(-4, 4, 2), rng.uniform(-4, 4, 2)
        ha, hb = rng.uniform(-math.pi, math.pi, 2)
        la, wa = rng.uniform(0.5, 4.0, 2)
        lb, wb = rng.uniform(0.5, 4.0, 2)
        sat = obb_overlap(obb_corners(ca, ha, la, wa), obb_corners(cb, hb, lb, wb))

        def grid_hit(c_from, h_from, l_from, w_from, c_to, h_to, l_to, w_to):
            cf, sf = math.cos(h_from), math.sin(h_from)
            pts_local = unit * (l_from, w_from)
            xs = c_from[0] + cf * pts_local[:, 0] - sf * pts_local[:, 1]
            ys = c_from[1] + sf * pts_local[:, 0] + cf * pts_local[:, 1]
            ct, st = math.cos(h_to), math.sin(h_to)
            dx, dy = xs - c_to[0], ys - c_to[1]
            lx = ct * dx + st * dy
            ly = -st * dx + ct * dy
            return bool(np.any((np.abs(lx) <= l_to / 2) & (np.abs(ly) <= w_to / 2)))

        oracle = grid_hit(ca, ha, la, wa, cb, hb, lb, wb) or grid_hit(
            cb, hb, lb, wb, ca, ha, la, wa
        )
        agree += sat == oracle
    assert agree / n_pairs >= 0.99


@criterion(9, "frame masking excludes exactly the final six anchors")
def test_c09_masking():
    scene = scene_of([straight_lane(1, length=200.0)], [], cruising_ego(40))
    assert scene.n_frames == 40 and scene.frame_rate == 2.0
    samples = [
        PlanSample(scene.id, f, tuple((0.0, 0.0) for _ in range(6))) for f in range(40)
    ]
    kept, masked = apply_frame_mask(samples, {scene.id: scene})
    assert masked == 6
    assert [s.frame for s in kept] == list(range(34))


def _random_scene(rng) -> Scene:
    n = int(rng.integers(2, 8))
    lanes = [
        straight_lane(
            1,
            y=float(rng.uniform(-2, 2)),
            length=float(rng.uniform(30, 80)),
            half_width=float(rng.uniform(1.2, 2.5)),
        )
    ]
    ego_states = [
        state(
            float(rng.uniform(-50, 50)),
            float(rng.uniform(-50, 50)),
            float(rng.uniform(-math.pi, math.pi)),
            float(rng.uniform(-3, 15)),
        )
        for _ in range(n)
    ]
    agents = []
    for agent_id in range(1, int(rng.integers(0, 4)) + 1):
        category = list(AgentCategory)[int(rng.integers(0, 9))]
        states = [
            state(
                float(rng.uniform(-50, 50)),
                float(rng.uniform(-50, 50)),
                float(rng.uniform(-math.pi, math.pi)),
                float(rng.uniform(-3, 15)),
                (float(rng.uniform(0.3, 8)), float(rng.uniform(0.3, 3))),
                valid=bool(rng.integers(0, 2)),
            )
            for _ in range(n)
        ]
        agents.append(AgentTrack(id=agent_id, category=category, states=tuple(states)))
    nav = [list(NavigationCommand)[int(rng.integers(0, 9))] for _ in range(n)]
    return scene_of(lanes, agents, ego_states, scene_id=f"rand-{rng.integers(1e9)}", nav=nav)


@criterion(10, "scene and token round trips are byte-exact")
def test_c10_round_trips():
    rng = np.random.default_rng(314)
    for _ in range(1000):
        scene = _random_scene(rng)
        doc = save_scene(scene)
        assert save_scene(load_scene(doc)) == doc

    for _ in range(1000):
        scene_id, frame = f"s{rng.integers(1e6)}", int(rng.integers(0, 40))
        sections = []
        for dtype, width, most in ((AGENT_RECORD, AGENT_DIM, 4), (MAP_RECORD, MAP_DIM, 3)):
            records = np.zeros(int(rng.integers(0, most)), dtype)
            records["id"] = rng.choice(100, size=len(records), replace=False)
            records["values"] = rng.standard_normal((len(records), width))
            sections.append(records)
        bundle = TokenBundle(scene_id, frame, 2.0, *sections)
        buf = io.BytesIO()
        write_bundle(bundle, buf)
        assert read_bundle(buf.getvalue()) == bundle
        buf2 = io.BytesIO()
        write_bundle(read_bundle(buf.getvalue()), buf2)
        assert buf2.getvalue() == buf.getvalue()

    # fixture decode recovers the encoded ground-truth attributes exactly
    scene = synth_scene("CONSTRUCTION_ZONE", 0)
    bundle = fixture_encode(scene, 2, seed=11)
    agents, maps = fixture_decode(bundle)
    by_id = {t.id: t for t in scene.agents}
    assert len(agents) == len([t for t in scene.agents if t.states[2].valid])
    for rec in agents:
        st = by_id[rec.agent_id].states[2]
        assert rec.x == float(np.float32(st.pose.x))
        assert rec.y == float(np.float32(st.pose.y))
        assert rec.heading == float(np.float32(st.pose.heading))
        assert rec.speed == float(np.float32(st.speed))
        assert rec.length == float(np.float32(st.box[0]))
        assert rec.width == float(np.float32(st.box[1]))
        assert rec.category is by_id[rec.agent_id].category
    lanes_by_id = {l.id: l for l in scene.lanes}
    for rec in maps:
        lane = lanes_by_id[rec.lane_id]
        assert rec.x0 == float(np.float32(lane.centerline[0][0]))
        assert rec.y0 == float(np.float32(lane.centerline[0][1]))
        assert rec.x1 == float(np.float32(lane.centerline[-1][0]))
        assert rec.y1 == float(np.float32(lane.centerline[-1][1]))
        assert rec.semantic is lane.semantic


@criterion(11, "corpus manifest reproduces the augmentation ratio")
def test_c11_corpus_ratio():
    manifest = corpus_manifest({"THREE_POINT_TURN": 40, "NOMINAL": 33293})
    fraction = manifest["kinds"]["THREE_POINT_TURN"]["fraction"]
    assert abs(fraction - 0.0012) <= 1e-4


@criterion(12, "labeling recovers every long-tail structure")
def test_c12_closure():
    for seed in range(20):
        scene = synth_scene("THREE_POINT_TURN", seed)
        rel = compute_relations(scene, CONFIG)
        assert NavigationCommand.THREE_POINT_TURN_LEFT in rel.nav_commands, seed

    for seed in range(20):
        scene = synth_scene("RESUME_FROM_STOP", seed)
        rel = compute_relations(scene, CONFIG)
        labels = label_interactions(scene, rel, CONFIG)
        assert any(l.kind is InteractionKind.YIELD_TO_PEDESTRIAN for l in labels), seed
        speeds = [st.speed for st in scene.ego.states]
        run_end = max(l.frame_span[1] for l in labels)
        assert speeds[run_end + 1] >= CONFIG.v_stop, seed  # motion resumes

    for seed in range(20):
        scene = synth_scene("OVERTAKE_ONCOMING", seed)
        rel = compute_relations(scene, CONFIG)
        labels = label_interactions(scene, rel, CONFIG)
        assert any(
            l.kind
            in (InteractionKind.OVERTAKE_LANE_CHANGE, InteractionKind.OVERTAKE_STRADDLE)
            for l in labels
        ), seed

    for seed in range(20):
        scene = synth_scene("CONSTRUCTION_ZONE", seed)
        rel = compute_relations(scene, CONFIG)
        labels = label_interactions(scene, rel, CONFIG)
        assert any(l.kind is InteractionKind.BYPASS_CONES for l in labels), seed


@criterion(13, "pipeline commands are byte-deterministic")
def test_c13_determinism(tmp_path):
    from drivekit.scene import save_scene_file

    paths = []
    for kind, seed in [("CONSTRUCTION_ZONE", 0), ("OVERTAKE_ONCOMING", 1)]:
        scene = synth_scene(kind, seed)
        p = tmp_path / f"{scene.id}.json"
        save_scene_file(scene, p)
        paths.append(str(p))

    for args, outputs in [
        (["label", "--out", "{out}/labels.jsonl"], ["labels.jsonl"]),
        (["gen-qa", "--out", "{out}/qa.jsonl"], ["qa.jsonl"]),
    ]:
        blobs = []
        for run in ("run1", "run2"):
            run_dir = tmp_path / run
            run_dir.mkdir(exist_ok=True)
            argv = [a.format(out=run_dir) for a in args] + paths
            assert main(argv) == 0
            blobs.append([(run_dir / o).read_bytes() for o in outputs])
        assert blobs[0] == blobs[1]

    plan_path = tmp_path / "plans.jsonl"
    lines = []
    scene = synth_scene("CONSTRUCTION_ZONE", 0)
    for frame in range(scene.n_frames):
        if future_complete(scene.ego, frame, scene.frame_rate):
            wp = ego_future_waypoints(scene, frame)
            lines.append(
                json.dumps(
                    {
                        "scene_id": scene.id,
                        "frame": frame,
                        "waypoints": [[float(x), float(y)] for x, y in wp],
                    }
                )
            )
    plan_path.write_text("\n".join(lines) + "\n", "utf-8")
    blobs = []
    for run in ("eval1", "eval2"):
        run_dir = tmp_path / run
        run_dir.mkdir(exist_ok=True)
        out = run_dir / "report"
        assert main(["evaluate", "--plans", str(plan_path), "--out", str(out), paths[0]]) == 0
        blobs.append(
            ((run_dir / "report.json").read_bytes(), (run_dir / "report.csv").read_bytes())
        )
    assert blobs[0] == blobs[1]
