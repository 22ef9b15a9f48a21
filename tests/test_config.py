import math

import pytest

from drivekit.config import Config
from drivekit.errors import ParamError


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
