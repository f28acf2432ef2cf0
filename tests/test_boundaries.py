"""The one range rule: every checked number is finite and inside its bounds.

``errors.check`` and ``errors.check_window`` hold the rule; the table below
holds one non-finite or reversed input per library boundary that once let
it through.
"""

import math

import pytest

from jjtrim.controller import CampaignConfig, run_campaign
from jjtrim.errors import ValidationError, check, check_window
from jjtrim.freqmodel import (
    PowerLawModel, freq_equiv_sigma, invert_R, predict_f,
)
from jjtrim.junction import relaxation_delta, relaxation_shape
from jjtrim.lattice import QubitLattice, detuning_error_sigma, optimize_parking

NAN, INF = math.nan, math.inf
MODEL = PowerLawModel(beta=280000.0, alpha=0.5, residual_sigma=1.0, r_min=3000.0, r_max=7000.0)
PAIR = QubitLattice(rows=1, cols=2, design_f01max=(4600.0, 4650.0))


def campaign(r_untuned=4500.0, relax_fraction=0.03, target_resistance=4600.0):
    targets = {"qubit_id": ["q"], "target_resistance": [target_resistance],
               "relaxation_reserve": [0.0289]}
    return run_campaign([r_untuned], [relax_fraction], targets, CampaignConfig(master_seed=0))


class TestCheck:
    def test_returns_value_inside_bounds(self):
        assert check("x", 0.5, ge=0, lt=1) == 0.5
        assert check("x", 3, gt=0) == 3

    @pytest.mark.parametrize(
        "value, bounds, message",
        [
            (NAN, {"gt": 0}, "x must be finite and > 0, got nan"),
            (INF, {}, "x must be finite, got inf"),
            (-0.5, {"ge": 0, "lt": 1}, "x must be finite and >= 0 and < 1, got -0.5"),
            (1.0, {"ge": 0, "lt": 1}, "x must be finite and >= 0 and < 1, got 1.0"),
            (0, {"ge": 1}, "x must be >= 1, got 0"),
        ],
    )
    def test_message_names_the_rule(self, value, bounds, message):
        with pytest.raises(ValidationError) as exc:
            check("x", value, **bounds)
        assert str(exc.value) == message

    def test_huge_int_is_not_converted(self):
        assert check("n", 10**400, ge=1) == 10**400
        with pytest.raises(ValidationError, match="n must be >= 1"):
            check("n", -(10**400), ge=1)

    @pytest.mark.parametrize("window", [(NAN, 130.0), (20.0, INF), (130.0, 20.0), (20.0, 20.0)])
    def test_window_rejected(self, window):
        with pytest.raises(ValidationError, match="w must be finite with lo < hi"):
            check_window("w", window)

    def test_window_returned_as_pair(self):
        assert check_window("w", [20.0, 130.0]) == (20.0, 130.0)


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: campaign(relax_fraction=NAN), id="run_campaign-relax_fraction-nan"),
        pytest.param(lambda: campaign(r_untuned=INF), id="run_campaign-r_untuned-inf"),
        pytest.param(lambda: relaxation_shape(NAN), id="shape-t_hr-nan"),
        pytest.param(lambda: relaxation_delta(NAN, 4500.0, 5.0), id="relaxation_delta-rho-nan"),
        pytest.param(lambda: relaxation_delta(0.03, 4500.0, NAN), id="relaxation_delta-t_hr-nan"),
        pytest.param(lambda: campaign(target_resistance=INF),
                     id="run_campaign-target_resistance-inf"),
        pytest.param(lambda: PowerLawModel(beta=INF, alpha=0.5, residual_sigma=1.0,
                                           r_min=3000.0, r_max=7000.0),
                     id="PowerLawModel-beta-inf"),
        pytest.param(lambda: freq_equiv_sigma(MODEL, 4556.0, NAN),
                     id="freq_equiv_sigma-sigma_r_rel-nan"),
        pytest.param(lambda: predict_f(MODEL, NAN), id="predict_f-r-nan"),
        pytest.param(lambda: predict_f(MODEL, [4500.0, NAN]), id="predict_f-array-nan"),
        pytest.param(lambda: predict_f(MODEL, INF), id="predict_f-r-inf"),
        pytest.param(lambda: detuning_error_sigma(NAN), id="detuning_error_sigma-nan"),
        pytest.param(lambda: optimize_parking(PAIR, (NAN, 130.0), 50.0, 1.0),
                     id="optimize_parking-window-nan"),
    ],
)
def test_non_finite_rejected(build):
    with pytest.raises(ValidationError):
        build()


@pytest.mark.parametrize("f", [NAN, [4500.0, NAN], INF], ids=["nan", "array-nan", "inf"])
def test_invert_R_names_non_finite_frequency(f):
    # a NaN was once reported as an overflow, and inf inverted to 0 Ohm
    with pytest.raises(ValidationError, match="frequency must be finite and positive"):
        invert_R(MODEL, f)
