import copy
import importlib.resources
import math
import pickle

import pytest
from hypothesis import given, strategies as st

from powergap.energy_model import (
    ALL_POWER_STATES,
    MEASURED_DROPS,
    CalibrationError,
    ClockTier,
    ConfigError,
    EnergyModelParams,
    PowerState,
    RadioMode,
    calibrate_currents,
    discharge_current,
)
from powergap.scenario import load_scenario
from powergap.track_world import run_scenario

C80_OFF = PowerState(ClockTier.C80, RadioMode.OFF)
C80_TX = PowerState(ClockTier.C80, RadioMode.TRANSMITTING)


@pytest.fixture
def params():
    return EnergyModelParams.calibrated()


class TestDischarge:
    def test_calibrated_c80_off_gap(self, params):
        v = discharge_current(9.0, params.current(C80_OFF), 0.020, params.capacitance)
        assert v == pytest.approx(7.38)
        assert 9.0 - v == pytest.approx(1.62)

    def test_zero_current_holds_voltage(self):
        p = EnergyModelParams(current_table={C80_OFF: 0.0})
        assert discharge_current(9.0, p.current(C80_OFF), 1.0, p.capacitance) == 9.0

    def test_radio_burst_crosses_threshold(self):
        # dV = 0.240 * 0.020 / 1.0e-3 = 4.8 V
        p = EnergyModelParams(current_table={C80_TX: 0.240})
        v = discharge_current(9.0, p.current(C80_TX), 0.020, p.capacitance)
        assert v == pytest.approx(4.2)
        assert 9.0 - v > p.brownout_drop

    def test_clamped_at_zero(self):
        p = EnergyModelParams(current_table={C80_TX: 10.0})
        assert discharge_current(9.0, p.current(C80_TX), 1.0, p.capacitance) == 0.0

    def test_unknown_state_is_config_error(self):
        p = EnergyModelParams(current_table={})
        with pytest.raises(ConfigError):
            discharge_current(9.0, p.current(C80_OFF), 0.01, p.capacitance)

    @given(
        v0=st.floats(0.0, 9.0),
        current=st.floats(0.0, 0.5),
        a=st.floats(0.0, 0.05),
        b=st.floats(0.0, 0.05),
    )
    def test_additivity(self, v0, current, a, b):
        one_shot = discharge_current(v0, current, a + b, 1.0e-3)
        split = discharge_current(
            discharge_current(v0, current, a, 1.0e-3), current, b, 1.0e-3
        )
        if one_shot > 0 and split > 0:  # clamping breaks exact additivity
            assert math.isclose(one_shot, split, abs_tol=1e-12)

    @given(
        i_low=st.floats(0.0, 0.3),
        delta=st.floats(0.0, 0.3),
        dt=st.floats(0.0, 0.05),
    )
    def test_monotone_in_current(self, i_low, delta, dt):
        hi = discharge_current(9.0, i_low + delta, dt, 1.0e-3)
        assert hi <= discharge_current(9.0, i_low, dt, 1.0e-3)

    @given(
        v0=st.floats(0.0, 9.0),
        current=st.floats(0.0, 10.0),
        c=st.floats(1.0e-4, 5.0e-3),
    )
    def test_zero_dt_holds_voltage(self, v0, current, c):
        assert discharge_current(v0, current, 0.0, c) == v0

    @given(
        c_low=st.floats(1.0e-4, 5.0e-3),
        delta=st.floats(0.0, 5.0e-3),
        current=st.floats(0.0, 0.3),
        dt=st.floats(0.0, 0.05),
    )
    def test_monotone_in_capacitance(self, c_low, delta, current, dt):
        # a larger capacitor never sags further under the same load
        big = discharge_current(9.0, current, dt, c_low + delta)
        assert big >= discharge_current(9.0, current, dt, c_low)


class TestCalibration:
    def test_single_drop(self):
        p = EnergyModelParams()
        table = calibrate_currents({C80_TX: 2.64}, p)
        assert table[C80_TX] == pytest.approx(0.132)

    def test_zero_drop_zero_current(self):
        table = calibrate_currents({C80_OFF: 0.0}, EnergyModelParams())
        assert table[C80_OFF] == 0.0

    def test_all_measured_cells(self, params):
        # oracle: I = C * dV / T with C = 1 mF, T = 20 ms
        for state, drop in MEASURED_DROPS.items():
            assert params.current(state) == pytest.approx(1.0e-3 * drop / 0.020)

    def test_missing_cells_get_burst_current(self, params):
        for state in ALL_POWER_STATES:
            if state not in MEASURED_DROPS:
                assert params.current(state) == 0.250
                # modeled drop must exceed the brownout threshold
                drop = params.current(state) * params.gap_duration / params.capacitance
                assert drop > params.brownout_drop

    def test_negative_drop_rejected(self):
        with pytest.raises(CalibrationError):
            calibrate_currents({C80_OFF: -0.1}, EnergyModelParams())

    def test_zero_gap_duration_refused_before_division(self):
        with pytest.raises(ConfigError, match="^gap_duration: must be > 0.0$"):
            EnergyModelParams.calibrated(gap_duration=0.0)

    def test_roundtrip_through_discharge(self, params):
        # calibrated current reproduces the measured drop over one gap
        for state, drop in MEASURED_DROPS.items():
            v = discharge_current(
                9.0, params.current(state), params.gap_duration, params.capacitance
            )
            assert 9.0 - v == pytest.approx(drop, rel=1e-9)

    def test_abstract_ratio(self):
        ratio = MEASURED_DROPS[C80_TX] / MEASURED_DROPS[C80_OFF]
        assert ratio == pytest.approx(1.63, abs=0.01)
        assert abs(ratio - 1.6) / 1.6 < 0.05

    def test_radio_ordering_within_each_tier(self, params):
        order = [RadioMode.OFF, RadioMode.IDLE_CONNECTED, RadioMode.TRANSMITTING]
        for clock in ClockTier:
            drops = [
                params.current(PowerState(clock, r))
                * params.gap_duration
                / params.capacitance
                for r in order
            ]
            assert drops == sorted(drops)


class TestTypes:
    def test_validate_rejects_bad_threshold(self):
        with pytest.raises(ConfigError):
            EnergyModelParams(brownout_drop=9.5).validate()
        with pytest.raises(ConfigError):
            EnergyModelParams(capacitance=0.0).validate()

    def test_nine_states_total(self):
        assert len(ALL_POWER_STATES) == 9
        assert len(EnergyModelParams.calibrated().current_table) == 9


class TestIdentityHash:
    """`ClockTier` and `RadioMode` hash by identity: every way of reaching
    a member gives the one singleton, so every keyed lookup still hits."""

    @pytest.mark.parametrize("state", ALL_POWER_STATES, ids=str)
    def test_copies_equal_hash_equal_and_look_up_alike(self, state, params):
        for other in (copy.deepcopy(state), pickle.loads(pickle.dumps(state)),
                      PowerState(state.clock, state.radio)):
            assert other == state
            assert hash(other) == hash(state)
            assert params.current(other) == params.current(state)

    def test_copied_config_runs_alike(self):
        cfg = load_scenario(importlib.resources.files("powergap") / "scenarios"
                            / "reference_workload.scn").build()
        want = run_scenario(cfg)
        for other in (copy.deepcopy(cfg), pickle.loads(pickle.dumps(cfg))):
            got = run_scenario(other)
            assert got.metrics == want.metrics
            assert got.trace.runs == want.trace.runs
