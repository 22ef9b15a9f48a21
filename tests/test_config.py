import inspect
import math

import pytest

from drivekit.config import Config
from drivekit.errors import ParamError
from drivekit.metrics import headings_xy, heading_l2, lon_weighted_l2, plan_collision_fraction
from drivekit.relations import classify_homotopy


def test_from_dict_round_trips_defaults():
    assert Config.from_dict(Config().to_dict()) == Config()
    assert Config.from_dict({"k_lat": 3, "lane_margin": 1}).lane_margin == 1


@pytest.mark.parametrize("value", ["two", 2.0, True, None, [2]])
def test_integer_fields_take_only_ints(value):
    for name in ("k_lat", "k_lon", "seed"):
        with pytest.raises(ParamError):
            Config.from_dict({name: value})


@pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf, 10**400, -(10**400), "1.0", True, None]
)
def test_float_fields_must_be_finite_numbers(value):
    for name in ("lane_margin", "theta_align", "d_yield", "synth_speed_max"):
        with pytest.raises(ParamError):
            Config.from_dict({name: value})


def test_theta_turn_must_be_below_theta_uturn():
    with pytest.raises(ParamError):
        Config.from_dict({"theta_turn": 2.0, "theta_uturn": 2.0})
    with pytest.raises(ParamError):
        Config.from_dict({"theta_turn": math.radians(170.0)})
    assert Config.from_dict({"theta_turn": 1.0, "theta_uturn": 2.0}).theta_turn == 1.0


@pytest.mark.parametrize(
    "overrides",
    [
        {"k_lat": "x"}, {"theta_turn": 4.0}, {"eps_move": math.nan}, {"seed": True},
        {"d_yield": None}, {"grounding_gate": -1},
    ],
)
def test_config_checks_its_fields_at_construction(overrides):
    with pytest.raises(ParamError, match=f"config {next(iter(overrides))}"):
        Config().replace(**overrides)
    with pytest.raises(ParamError):
        Config(**overrides)


def test_config_keeps_values_as_given():
    assert type(Config(lane_margin=1).lane_margin) is int


@pytest.mark.parametrize(
    "fn, name",
    [
        (headings_xy, "eps_move"),
        (heading_l2, "eps_move"),
        (lon_weighted_l2, "eps_move"),
        (lon_weighted_l2, "w_lon"),
        (plan_collision_fraction, "eps_move"),
        (classify_homotopy, "eps_rel"),
    ],
)
def test_threshold_defaults_are_the_config_fields(fn, name):
    assert inspect.signature(fn).parameters[name].default == getattr(Config(), name)
