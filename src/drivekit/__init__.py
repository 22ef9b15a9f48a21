"""drivekit: offline toolkit for driving-scene labeling heuristics, QA corpus
generation, object-token plumbing, open-loop plan evaluation, and long-tail
scenario synthesis."""

from .config import Config
from .scene import (
    AgentCategory,
    AgentState,
    AgentTrack,
    Lane,
    LaneSemantic,
    NavigationCommand,
    Pose2,
    ScenarioKind,
    Scene,
    load_scene,
    load_scene_file,
    save_scene,
    save_scene_file,
)
from .geometry import FrenetCoord, project_to_polyline
from .relations import (
    EgoLaneDecision,
    Homotopy,
    HomotopyClass,
    LaneMode,
    RelationOutputs,
    agent_ego_lane_mode,
    classify_homotopy,
    compute_relations,
    ego_lane_decisions,
    label_nav_commands,
)
from .interactions import (
    Criticality,
    CriticalReason,
    InteractionKind,
    InteractionLabel,
    Side,
    critical_objects,
    label_interactions,
    merge_override_labels,
)
from .tokens import (
    AgentToken,
    MapToken,
    MotionToken,
    TokenBundle,
    TrackToken,
    fixture_decode,
    fixture_encode,
    read_bundle,
    write_bundle,
)
from .metrics import (
    GroundingReport,
    HorizonValues,
    MetricReport,
    PlanSample,
    apply_frame_mask,
    classification_accuracy,
    evaluate_plans,
    grounding_prf,
    heading_l2,
    hungarian,
    lon_weighted_l2,
    traj_l2,
)
from .planners import (
    constant_velocity_planner,
    ego_future_waypoints,
    lane_follow_planner,
    replay_planner,
)
from .qa import (
    QARecord,
    QATask,
    gen_perception_qas,
    gen_planning_qas,
    gen_reasoning_qas,
    gen_scene_qas,
)
from .synth import corpus_manifest, synth_corpus, synth_scene

__version__ = "0.1.0"
