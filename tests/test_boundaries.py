"""The one range rule: every checked number is finite and inside its bounds,
and every seed or count is an integer.

``errors.check`` and ``errors.check_window`` hold the rule; the tables below
hold one non-finite, huge, reversed, repeated or fractional input per library
boundary that once let it through or raised a bare error on it.
"""

import math
import sys

import numpy as np
import pytest

from jjtrim.controller import CampaignConfig, campaign_stats, run_campaign
from jjtrim.errors import ValidationError, check, check_rows, check_window
from jjtrim.freqmodel import (
    PowerLawModel, assign_target_R, fit_power_law, fit_segmented_power_law, freq_equiv_sigma,
    invert_R, predict_f,
)
from jjtrim.junction import relaxation_delta, relaxation_shape, sample_fabricated
from jjtrim.lattice import (
    QubitLattice, detuning_error_sigma, edge_detunings, optimize_parking, spread_after_centering,
    subtract_global_offset,
)
from jjtrim.yieldmc import (
    UnitCellDesign, YieldConfig, generate_unit_cell, mc_chip_yield, tile, wafer_projection,
    wilson_interval,
)

NAN, INF = math.nan, math.inf
MODEL = PowerLawModel(beta=280000.0, alpha=0.5, residual_sigma_mhz=1.0, r_min=3000.0, r_max=7000.0)
PAIR = QubitLattice(rows=1, cols=2, design_f01max=(4600.0, 4650.0))
CELL = generate_unit_cell(seed=7)
ROWS = [list(row) for row in CELL.offsets_mhz]


# Two targets of one id, and records of them: each qubit once drew the same
# stream and was looked up as the last target of its id.
REPEATED = {"qubit_id": ["A", "A"], "target_resistance": [4400.0, 5000.0],
            "relaxation_reserve": [0.0289] * 2}
REPEATED_RECORDS = {"qubit_id": ["A", "A"], "r_untuned": [4000.0, 4100.0],
                    "threshold": [4276.4, 4859.6], "r_last_pulse": [4277.0, 4860.0],
                    "r_tuned": [4405.0, 5006.0], "pulses": [147, 400],
                    "already_above_target": [False, False]}


def campaign(r_untuned=4500.0, relax_fraction=0.03, target_resistance=4600.0):
    targets = {"qubit_id": ["q"], "target_resistance": [target_resistance],
               "relaxation_reserve": [0.0289]}
    return run_campaign([r_untuned], [relax_fraction], targets, CampaignConfig(master_seed=0))


class TestCheck:
    def test_returns_value_inside_bounds(self):
        assert check("x", 0.5, ge=0, lt=1) == 0.5
        assert check("x", 3, gt=0) == 3
        assert check("x", 10, ge=1, le=10) == 10

    @pytest.mark.parametrize(
        "value, bounds, message",
        [
            (NAN, {"gt": 0}, "x must be finite and > 0, got nan"),
            (INF, {}, "x must be finite, got inf"),
            (-0.5, {"ge": 0, "lt": 1}, "x must be finite and >= 0 and < 1, got -0.5"),
            (1.0, {"ge": 0, "lt": 1}, "x must be finite and >= 0 and < 1, got 1.0"),
            (0, {"ge": 1}, "x must be >= 1, got 0"),
            (11, {"ge": 1, "le": 10}, "x must be >= 1 and <= 10, got 11"),
            (10.5, {"le": 10}, "x must be finite and <= 10, got 10.5"),
            # past sys.get_int_max_str_digits(), str() itself raises
            pytest.param(10**5000, {"le": 10}, "x must be <= 10, got an integer of 16610 bits",
                         id="int-past-str-limit"),
            (2.0, {"ge": 1, "integer": True}, "x must be an integer >= 1, got 2.0"),
            (True, {"integer": True}, "x must be an integer, got True"),
            (-1, {"ge": 0, "integer": True}, "x must be >= 0, got -1"),
        ],
    )
    def test_message_names_the_rule(self, value, bounds, message):
        with pytest.raises(ValidationError) as exc:
            check("x", value, **bounds)
        assert str(exc.value) == message

    def test_integer_accepts_numpy_int(self):
        assert check("x", np.int64(3), ge=1, integer=True) == 3

    def test_huge_int_is_not_converted(self):
        # a real field refuses it by name; an integer field keeps it exact
        with pytest.raises(ValidationError, match="^n must be finite and >= 1, got a 1329-bit"):
            check("n", 10**400, ge=1)
        assert check("n", 10**400, ge=1, integer=True) == 10**400
        with pytest.raises(ValidationError, match="n must be >= 1"):
            check("n", -(10**400), ge=1)
        # 2**53 + 1 as a float would equal its cap
        assert check("n", 2**53, le=2**53) == 2**53
        with pytest.raises(ValidationError, match=f"n must be <= {2**53}, got {2**53 + 1}"):
            check("n", 2**53 + 1, le=2**53)
        with pytest.raises(ValidationError, match="n must be <= 10"):
            check("n", 10**400, le=10)

    def test_int_too_long_to_print_named_by_size(self):
        with pytest.raises(ValidationError, match="trials on 9 qubits must be <= 1111111111, "
                                                  "got an integer of 16610 bits"):
            mc_chip_yield(tile(generate_unit_cell(seed=7), 1, 1),
                          YieldConfig(7.7, 1, trials=10**5000))

    def test_check_float(self):
        assert check("x", 3) == 3.0 and type(check("x", 3)) is float
        with pytest.raises(ValidationError, match="^x must be finite, got nan$"):
            check("x", NAN)
        # float() would raise OverflowError
        with pytest.raises(ValidationError, match="^x must be finite, got a 1329-bit int$"):
            check("x", -(10**400))

    def test_rows_take_every_bound(self):
        check_rows("t", {"a": [0.0, -1.0]}, {"a": {"le": 0}})
        with pytest.raises(ValidationError, match=r"^t\[1\]\.a must be finite and <= 0, got 0.5$"):
            check_rows("t", {"a": [0.0, 0.5]}, {"a": {"le": 0}})

    @pytest.mark.parametrize("window", [(NAN, 130.0), (20.0, INF), (130.0, 20.0), (20.0, 20.0),
                                        (0, 10**400), (0, 10**5000)])
    def test_window_rejected(self, window):
        with pytest.raises(ValidationError, match="w must be finite with lo < hi"):
            check_window("w", window)

    def test_window_returned_as_pair(self):
        assert check_window("w", [20.0, 130.0]) == (20.0, 130.0)
        assert list(map(type, check_window("w", (20, 130)))) == [float, float]


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
        pytest.param(lambda: PowerLawModel(beta=INF, alpha=0.5, residual_sigma_mhz=1.0,
                                           r_min=3000.0, r_max=7000.0),
                     id="PowerLawModel-beta-inf"),
        # beta 1e-310 times R**-31 = 1e310 overflows, so sigma was once nan
        pytest.param(lambda: fit_power_law([1e-10, 1.1e-10, 1.2e-10], [1.0, 1.1**-31, 1.2**-31]),
                     id="fit_power_law-residual_sigma-nan"),
        pytest.param(lambda: freq_equiv_sigma(MODEL, 4556.0, NAN),
                     id="freq_equiv_sigma-sigma_r_rel-nan"),
        pytest.param(lambda: predict_f(MODEL, NAN), id="predict_f-r-nan"),
        pytest.param(lambda: predict_f(MODEL, [4500.0, NAN]), id="predict_f-array-nan"),
        pytest.param(lambda: predict_f(MODEL, INF), id="predict_f-r-inf"),
        pytest.param(lambda: detuning_error_sigma(NAN), id="detuning_error_sigma-nan"),
        pytest.param(lambda: optimize_parking(PAIR, (NAN, 130.0), 50.0, 1.0),
                     id="optimize_parking-window-nan"),
        pytest.param(lambda: run_campaign([4000.0, 4100.0], [0.03] * 2, REPEATED,
                                          CampaignConfig(master_seed=1)),
                     id="run_campaign-qubit_id-repeated"),
        pytest.param(lambda: campaign_stats(REPEATED_RECORDS, REPEATED),
                     id="campaign_stats-qubit_id-repeated"),
    ],
)
def test_non_finite_rejected(build):
    with pytest.raises(ValidationError):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        # each once tuned or drew exactly as seed 1, or as 1 trial or thread
        (lambda: CampaignConfig(1.5), "master_seed must be an integer >= 0, got 1.5"),
        (lambda: CampaignConfig(True), "master_seed must be an integer >= 0, got True"),
        (lambda: sample_fabricated(4500.0, 1.5, ["q"]),
         "master_seed must be an integer >= 0, got 1.5"),
        (lambda: YieldConfig(18.4, 1.5), "master_seed must be an integer >= 0, got 1.5"),
        (lambda: YieldConfig(18.4, 1.9), "master_seed must be an integer >= 0, got 1.9"),
        (lambda: YieldConfig(18.4, True), "master_seed must be an integer >= 0, got True"),
        # NumPy refused it unnamed, and only once the Monte Carlo started
        (lambda: YieldConfig(18.4, -1), "master_seed must be >= 0, got -1"),
        (lambda: YieldConfig(7.7, 1, trials=2.5), "trials must be an integer >= 1, got 2.5"),
        (lambda: YieldConfig(7.7, 1, trials=True), "trials must be an integer >= 1, got True"),
        (lambda: YieldConfig(7.7, 1, n_threads=1.5),
         "n_threads must be an integer >= 1 and <= 64, got 1.5"),
        # a bool tiled one cell; a float raised a bare TypeError
        (lambda: tile(CELL, True, 1), "m must be an integer >= 1, got True"),
        (lambda: tile(CELL, 1.5, 1), "m must be an integer >= 1, got 1.5"),
        (lambda: tile(CELL, 1, 2.0), "n must be an integer >= 1, got 2.0"),
        (lambda: QubitLattice(2.0, 1, (1.0, 2.0)), "rows must be an integer >= 1, got 2.0"),
        (lambda: QubitLattice(True, 2, (1.0, 2.0)), "rows must be an integer >= 1, got True"),
        (lambda: QubitLattice(1, 2.0, (1.0, 2.0)), "cols must be an integer >= 1, got 2.0"),
        # 2.5 dice projected 1 chip, True dice 0
        (lambda: wafer_projection(0.5, dice=2.5),
         f"dice must be an integer >= 0 and < {2**53}, got 2.5"),
        (lambda: wafer_projection(0.5, dice=True),
         f"dice must be an integer >= 0 and < {2**53}, got True"),
        (lambda: wilson_interval(1.0, 3), "passes must be an integer >= 0 and <= 3, got 1.0"),
    ],
    ids=["campaign-seed-float", "campaign-seed-bool", "sample_fabricated-seed-float",
         "yield-seed-float", "yield-seed-float-1.9", "yield-seed-bool", "yield-seed-negative",
         "yield-trials-float", "yield-trials-bool", "yield-threads-float", "tile-m-bool",
         "tile-m-float", "tile-n-float", "lattice-rows-float", "lattice-rows-bool",
         "lattice-cols-float", "wafer-dice-float", "wafer-dice-bool", "wilson-passes-float"],
)
def test_integer_field_refuses_float_bool_or_negative(build, message):
    with pytest.raises(ValidationError) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize("f", [NAN, [4500.0, NAN], INF], ids=["nan", "array-nan", "inf"])
def test_invert_R_names_non_finite_frequency(f):
    # a NaN was once reported as an overflow, and inf inverted to 0 Ohm
    with pytest.raises(ValidationError, match="frequency must be finite and positive"):
        invert_R(MODEL, f)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: QubitLattice(1, 3, (4600.0, 4650.0, -INF)),
         "nodes[2].design_mhz must be finite, got -inf"),
        (lambda: QubitLattice(1, 2, (4600.0, 4650.0), (4600.0, NAN)),
         "nodes[1].measured_mhz must be finite, got nan"),
        # right neighbours are named before lower ones
        (lambda: QubitLattice(2, 2, (1e308, 0.0, -1e308, 1e308)),
         "edge (2, 3) design_mhz detuning -1e+308 - 1e+308 overflows"),
        (lambda: QubitLattice(2, 1, (4600.0, 4650.0), (1e308, -1e308)),
         "edge (0, 1) measured_mhz detuning 1e+308 - -1e+308 overflows"),
    ],
    ids=["design-node", "measured-node", "design-edge", "measured-edge"],
)
def test_lattice_names_node_or_edge(build, message):
    with pytest.raises(ValidationError) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "build, message",
    [
        # more chips than dice
        (lambda: wafer_projection(2.0, dice=10),
         "yield_fraction must be finite and >= 0 and <= 1, got 2.0"),
        # ZeroDivisionError, math domain errors and an OverflowError
        (lambda: wilson_interval(0, 0), "trials must be >= 1 and <= 10000000000, got 0"),
        (lambda: wilson_interval(5, 3), "passes must be >= 0 and <= 3, got 5"),
        (lambda: wilson_interval(-1, 3), "passes must be >= 0 and <= 3, got -1"),
        (lambda: wilson_interval(1, 10**200),
         f"trials must be >= 1 and <= 10000000000, got {10**200}"),
        # nan centred to [nan, nan] and a spread of nan; 1e308 + 1e308 to [-inf, -inf]
        (lambda: subtract_global_offset([[1.0, NAN]]), "chip 0 deviation 1 must be finite, got nan"),
        (lambda: spread_after_centering([[1.0, NAN]]),
         "chip 0 deviation 1 must be finite, got nan"),
        (lambda: subtract_global_offset([[0.0], [1.0, INF]]),
         "chip 1 deviation 1 must be finite, got inf"),
        (lambda: subtract_global_offset([[1e308, 1e308]]),
         "chip 0: centring on its mean overflows"),
        # the mean is finite, but a deviation minus it is not
        (lambda: subtract_global_offset([[1.7e308, -1.7e308, -1.7e308]]),
         "chip 0: centring on its mean overflows"),
        # centred, but numpy warned that the square of 1e200 overflows
        (lambda: spread_after_centering([[1e200, -1e200]]),
         "the pooled spread of 2 centred deviations overflows"),
        # accepted, and save_design would have written Infinity
        (lambda: UnitCellDesign(CELL.offsets_mhz, base_frequency_mhz=INF),
         "base_frequency_mhz must be finite, got inf"),
        (lambda: UnitCellDesign(CELL.offsets_mhz, base_frequency_mhz=10**400),
         "base_frequency_mhz must be finite, got a 1329-bit int"),
        # bare OverflowErrors
        (lambda: UnitCellDesign([[10**400, *ROWS[0][1:]], *ROWS[1:]]),
         "offsets_mhz[0][0] must be finite, got a 1329-bit int"),
        (lambda: QubitLattice(1, 1, (10**400,)),
         "nodes[0].design_mhz must be finite, got a 1329-bit int"),
        (lambda: QubitLattice(1, 2, (1.0, 2.0), (1.0, -(10**400))),
         "nodes[1].measured_mhz must be finite, got a 1329-bit int"),
        (lambda: QubitLattice(1, 2, (f for f in (1.0, 10**400))),
         "nodes[1].design_mhz must be finite, got a 1329-bit int"),
        # float() rounded it to the largest float
        (lambda: QubitLattice(1, 1, (int(sys.float_info.max) + 1,)),
         "nodes[0].design_mhz must be finite, got a 1024-bit int"),
        # inf - inf warned while the torus edges were checked
        (lambda: UnitCellDesign([[INF] * 3] * 3), "offsets_mhz[0][0] must be finite, got inf"),
    ],
    ids=["wafer-yield-above-one", "wilson-no-trials", "wilson-passes-above-trials",
         "wilson-passes-negative", "wilson-trials-huge", "centre-nan", "spread-nan",
         "centre-inf", "centre-mean-overflows", "centre-difference-overflows", "spread-overflows",
         "cell-base-inf", "cell-base-huge-int", "cell-offset-huge-int", "lattice-design-huge-int",
         "lattice-measured-huge-int", "lattice-generator-huge-int", "lattice-int-past-float-max",
         "cell-offsets-inf"],
)
def test_value_out_of_range_or_beyond_a_float(build, message):
    with pytest.raises(ValidationError) as exc:
        build()
    assert str(exc.value) == message


HUGE = 10**400


# Each was accepted, or raised a bare OverflowError once a float was made of it.
@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: relaxation_shape(HUGE), "t_hr must be finite and >= 0"),
        (lambda: relaxation_delta(0.03, HUGE, 5.0), "r_stop must be finite and > 0"),
        (lambda: sample_fabricated(HUGE, 1, ["q"]), "design_resistance must be finite and > 0"),
        (lambda: detuning_error_sigma(HUGE), "sigma_f_mhz must be finite and >= 0"),
        (lambda: optimize_parking(PAIR, (20.0, 130.0), HUGE, 1.0),
         "max_park must be finite and >= 0"),
        (lambda: optimize_parking(PAIR, (0, HUGE), 50.0, 1.0),
         "window must be finite with lo < hi"),
        (lambda: edge_detunings(PAIR, (0, HUGE)), "window must be finite with lo < hi"),
        (lambda: freq_equiv_sigma(MODEL, HUGE, 0.003), "f_pred must be finite and > 0"),
        (lambda: PowerLawModel(HUGE, 0.5, 1.0, 3000.0, 7000.0), "beta must be finite and > 0"),
        (lambda: CampaignConfig(0, noise_sigma=HUGE), "noise_sigma must be finite and >= 0"),
        (lambda: YieldConfig(HUGE, 1), "sigma_f must be finite and >= 0"),
        (lambda: YieldConfig(7.7, 1, window_mhz=(0, HUGE)), "window must be finite with lo < hi"),
        (lambda: UnitCellDesign(CELL.offsets_mhz, design_window_mhz=(0, HUGE)),
         "design_window_mhz[1] must be finite"),
        (lambda: wilson_interval(1, 3, z=HUGE), "z must be finite and > 0"),
    ],
    ids=["relaxation_shape-t_hr", "relaxation_delta-r_stop", "sample_fabricated-design",
         "detuning_error_sigma", "optimize_parking-max_park", "optimize_parking-window",
         "edge_detunings-window", "freq_equiv_sigma-f_pred", "PowerLawModel-beta",
         "CampaignConfig-noise_sigma", "YieldConfig-sigma_f", "YieldConfig-window",
         "UnitCellDesign-window", "wilson_interval-z"],
)
def test_int_beyond_float_range_refused_by_name(build, message):
    with pytest.raises(ValidationError) as exc:
        build()
    window = message.endswith("lo < hi")
    assert str(exc.value) == message + (f", got (0, {HUGE})" if window else ", got a 1329-bit int")


# Each raised a bare OverflowError when its column was converted to floats;
# a message without a value is the one a NaN in that column gets.
@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: campaign(r_untuned=HUGE),
         "qubits[0].r_untuned must be finite and > 0, got a 1329-bit int"),
        (lambda: campaign(relax_fraction=HUGE),
         "qubits[0].relax_fraction must be finite and >= 0, got a 1329-bit int"),
        (lambda: predict_f(MODEL, [4000.0, HUGE]), "resistance must be finite and positive"),
        (lambda: invert_R(MODEL, HUGE), "frequency must be finite and positive"),
        (lambda: assign_target_R(MODEL, [4600.0, HUGE]), "frequency must be finite and positive"),
        (lambda: fit_power_law([3000.0, 4000.0, HUGE], [5000.0, 4300.0, 4000.0]),
         "R and f must be finite and positive"),
        (lambda: fit_segmented_power_law([0.1, 0.2, 0.3, 1.0, 2.0, 3.0, 5.0, 6.0, HUGE],
                                         [1.0] * 9, breakpoints=[0.5, 4.0]),
         "t_hr and delta_r must be finite and positive"),
        (lambda: subtract_global_offset([[1.0], [2.0, HUGE]]),
         "chip 1 deviation 1 must be finite, got a 1329-bit int"),
        # a numpy bound made numpy convert the int
        (lambda: PowerLawModel(1.0, 0.5, 1.0, np.float64(3000.0), HUGE),
         "r_max must be finite and >= 3000.0, got a 1329-bit int"),
        # None in a column still reads NaN, as numpy's own conversion reads it
        (lambda: predict_f(MODEL, [4000.0, None]), "resistance must be finite and positive"),
        (lambda: subtract_global_offset([[1.0, None]]),
         "chip 0 deviation 1 must be finite, got nan"),
        (lambda: campaign(r_untuned=None), "qubits[0].r_untuned must be finite and > 0, got nan"),
        (lambda: campaign(target_resistance=None),
         "targets[0].target_resistance must be finite and > 0, got nan"),
    ],
    ids=["run_campaign-r_untuned", "run_campaign-relax_fraction", "predict_f", "invert_R",
         "assign_target_R", "fit_power_law", "fit_segmented_power_law", "subtract_global_offset",
         "check-numpy-bound", "predict_f-None", "subtract_global_offset-None",
         "run_campaign-r_untuned-None", "run_campaign-target_resistance-None"],
)
def test_int_beyond_float_range_in_a_column_refused_by_name(build, message):
    with pytest.raises(ValidationError) as exc:
        build()
    assert str(exc.value) == message
