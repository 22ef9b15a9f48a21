"""Tests of the benchmark's own code: tracer arithmetic, generator
determinism and the digest gate.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gate  # noqa: E402
import gen  # noqa: E402
import tracer  # noqa: E402
from drivekit import save_scene_file  # noqa: E402
from drivekit.scene import Scene  # noqa: E402


# --------------------------------------------------------------------------
# tracer


def _spans():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9]
    return [
        tracer.Span(2, 1, "g", 2.0, 3.0, "r"),
        tracer.Span(1, 0, "a", 1.0, 4.0, "r"),
        tracer.Span(3, 0, "b", 5.0, 9.0, "r"),
        tracer.Span(0, -1, "root", 0.0, 10.0, "r"),
    ]


def test_self_time_subtracts_direct_children_only():
    own = tracer.self_times(_spans())
    assert own == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}


def test_self_times_of_a_stage_sum_to_its_duration():
    assert tracer.stage_balance(_spans()) == [("root", 10.0, 10.0)]


def test_summarize_counts_calls_and_self_time():
    spans = _spans() + [tracer.Span(4, -1, "b", 20.0, 21.5, "r")]
    summary = tracer.summarize(spans)
    assert summary["b"] == {"calls": 2, "self_s": 5.5}
    assert summary["root"]["self_s"] == 3.0


def test_install_traces_calls_through_imported_names_and_uninstalls():
    import drivekit.synth as synth

    original = synth.synth_scene
    tr = tracer.Tracer("t")
    tr.install({("drivekit.synth", "synth_scene"): None})
    try:
        with tr.span("cli.synth"):
            synth.synth_corpus({"NOMINAL": 2})
    finally:
        tr.uninstall()
    assert synth.synth_scene is original
    for name, module in list(sys.modules.items()):
        if name.startswith("drivekit"):
            assert not any(hasattr(v, "__wrapped_original__") for v in vars(module).values()), name
    names = [s.name for s in tr.spans]
    assert names.count("synth.synth_scene") == 2
    root = next(s for s in tr.spans if s.name == "cli.synth")
    assert all(s.parent == root.id for s in tr.spans if s is not root)
    ((_, dur, total),) = tracer.stage_balance(tr.spans)
    assert total == pytest.approx(dur, abs=1e-9)


def test_probe_counts_at_the_span_boundary():
    tr = tracer.Tracer("t")

    def probe(counters, args, kwargs, result):
        counters["hits"] += result is not None

    f = tr.wrap("m.f", lambda x: x or None, probe)
    with tr.span("root"):
        for x in (0, 1, 2):
            f(x)
    f(3)  # outside every span: not traced
    assert tr.counters["hits"] == 2
    assert [s.name for s in tr.spans] == ["m.f"] * 3 + ["root"]


# --------------------------------------------------------------------------
# generators


def test_dense_scene_file_is_byte_identical_per_seed(tmp_path):
    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    save_scene_file(gen.dense_scene(7), a)
    save_scene_file(gen.dense_scene(7), b)
    save_scene_file(gen.dense_scene(8), c)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_dense_scene_shape_is_asserted():
    scene = gen.dense_scene(0)
    assert (len(scene.lanes), len(scene.agents), scene.n_frames) == (40, 100, 60)
    categories = {t.category.value for t in scene.agents}
    assert {"PEDESTRIAN", "TRAFFIC_CONE"} <= categories
    shrunk = Scene(
        id=scene.id,
        frame_rate=scene.frame_rate,
        lanes=scene.lanes,
        agents=scene.agents[:-1],
        ego=scene.ego,
        nav_commands=scene.nav_commands,
    )
    with pytest.raises(AssertionError):
        gen.check_dense_shape(shrunk)


def test_detection_sets_are_deterministic():
    scenes = gen.corpus_scenes(1)[:5] + [gen.dense_scene(1)]
    first = gen.dumps(gen.detection_sets(scenes, 1))
    assert first == gen.dumps(gen.detection_sets(scenes, 1))
    assert first != gen.dumps(gen.detection_sets(scenes, 2))
    sizes = [len(s["gt"]) for s in gen.detection_sets(scenes, 1)]
    assert min(sizes) >= 1 and max(sizes) >= 80


def test_corpus_spec_has_the_roadmap_mix():
    spec = gen.corpus_spec(3)
    assert sum(spec["counts"].values()) == 60
    assert len(gen.corpus_scenes(3)) == 60


# --------------------------------------------------------------------------
# digest gate


def test_digest_gate_rejects_a_single_flipped_byte(tmp_path):
    files = []
    for i in range(3):
        path = tmp_path / "tokens" / f"s_f{i:04d}.tokb"
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(bytes(range(i, i + 64)))
        files.append(path)
    recorded = {"tokens": gate.tree_digest(files, tmp_path)}
    assert gate.mismatches(recorded, {"tokens": gate.tree_digest(files, tmp_path)}) == []

    data = bytearray(files[1].read_bytes())
    data[17] ^= 0x01
    files[1].write_bytes(bytes(data))
    assert gate.mismatches(recorded, {"tokens": gate.tree_digest(files, tmp_path)}) == ["tokens"]


def test_unrecorded_output_counts_as_a_mismatch():
    assert gate.mismatches({}, {"qa": "00"}) == ["qa"]


def test_grounding_check_rejects_inconsistent_ratios():
    sets = [{"scene_id": "s", "frame": 0, "pred": [[0, 0], [1, 1]], "gt": [[0, 0]]}]
    gate.check_grounding(sets, [(0.5, 1.0)])
    with pytest.raises(AssertionError):
        gate.check_grounding(sets, [(1.0, 1.0)])


def test_checks_count_mismatches_and_failed_exits():
    import run

    checks = run.Checks({"qa": "aa"})
    checks.stage("gen_qa_s", "", {"qa": "aa"})
    checks.stage("gen_qa_s", "", {"qa": "ab"})
    checks.stage("label_s", "exit 1", {})
    assert (checks.attempted, checks.failed) == (3, 2)
