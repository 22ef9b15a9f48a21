"""Single configuration object carrying every tunable threshold.

Angles are radians, distances meters, speeds m/s throughout. The JSON config
file accepted by the CLI is exactly ``asdict(Config())``; unknown keys are
rejected so typos fail loudly. Precedence is flag > config file > default.
"""
from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParamError, as_finite, is_int, parse_json, read_text


def seeded_rng(*key) -> np.random.Generator:
    """A PCG64 stream named by `key`: seeded with the first 8 bytes (little
    endian) of the SHA-256 of its parts joined by ':', e.g.
    seeded_rng(seed, scene_id, frame, "qa")."""
    digest = hashlib.sha256(":".join(map(str, key)).encode("utf-8")).digest()
    return np.random.Generator(np.random.PCG64(int.from_bytes(digest[:8], "little")))


@dataclass(frozen=True)
class Config:
    # degenerate-segment heading carry-forward
    eps_move: float = 1e-3

    # lane association envelope
    lane_margin: float = 0.5
    theta_align: float = math.radians(70.0)

    # agent-ego lane modes
    k_lat: int = 2
    k_lon: int = 3
    eps_s_tie: float = 1e-6

    # homotopy
    theta_s: float = math.pi / 6.0
    eps_rel: float = 0.05

    # navigation command labeling
    theta_turn: float = math.radians(60.0)
    theta_uturn: float = math.radians(150.0)
    v_rev: float = -0.2
    d_prep: float = 30.0
    nav_window_s: float = 6.0

    # interaction heuristics
    v_stop: float = 0.3
    d_yield: float = 15.0

    # criticality corridor
    t_corridor: float = 3.0
    corridor_margin: float = 1.0

    # metrics
    w_lon: float = 2.0
    grounding_gate: float = 2.0

    # QA generation
    distractor_ratio: float = 1.0
    seed: int = 0

    # scenario synthesis geometry
    synth_lane_length: float = 120.0
    synth_lane_width: float = 3.7
    synth_speed_min: float = 3.0
    synth_speed_max: float = 12.0

    def __post_init__(self):
        """Integer fields take only ints (not bools), float fields take finite
        numbers, grounding_gate is non-negative (as grounding_prf requires),
        and theta_turn must stay below theta_uturn. Values are kept as given:
        report.json writes the config."""
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if not isinstance(field.default, int):
                as_finite(value, f"config {field.name}", ParamError)
            elif not is_int(value):
                raise ParamError(f"config {field.name} must be an integer, got {value!r}")
        if self.grounding_gate < 0:
            raise ParamError(
                f"config grounding_gate must be non-negative, got {self.grounding_gate!r}"
            )
        if not self.theta_turn < self.theta_uturn:
            raise ParamError(
                f"config theta_turn ({self.theta_turn}) must be below "
                f"theta_uturn ({self.theta_uturn})"
            )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def replace(self, **overrides) -> "Config":
        return dataclasses.replace(self, **overrides)

    @classmethod
    def from_dict(cls, data: dict) -> "Config":
        """Config from a JSON object; unknown keys raise ParamError."""
        unknown = sorted(set(data) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise ParamError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**data)

    @classmethod
    def from_file(cls, path) -> "Config":
        data = parse_json(read_text(path, ParamError), ParamError, path)
        if not isinstance(data, dict):
            raise ParamError(f"{path}: config file must hold a JSON object")
        return cls.from_dict(data)
