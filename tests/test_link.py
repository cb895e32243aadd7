import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rissim import (
    ArrayGeometry,
    ElementStateTable,
    GainProfile,
    InfeasibleTargetError,
    LinkScenario,
    MCSRow,
    MCSTable,
    Obstacle,
    Pose,
    bundled_scenario_path,
    code_table,
    coherent_power_bound,
    default_element_table,
    evaluate_scenario,
    load_scenario_bundle,
    noise_power,
    optimal_phases,
    quantization_loss,
    quantize_phases,
    received_power,
    required_transmit_power,
    state_coefficients,
    synthesize_codebook,
    wavelength,
)
import rissim.link
from rissim.link import MAX_TRANSMIT_POWER_DBM, direct_received_power_w
from rissim.units import dbm_to_watts

from conftest import CARRIER_HZ

SIMPLE_MCS = MCSTable(rows=(
    MCSRow(min_snr_db=10.0, rate_mbps=450.0, label="low"),
    MCSRow(min_snr_db=20.0, rate_mbps=1024.0, label="mid"),
    MCSRow(min_snr_db=30.0, rate_mbps=1683.0, label="high"),
))


def make_scenario(**overrides) -> LinkScenario:
    base = dict(
        transmit_power_dbm=13.6,
        carrier_hz=CARRIER_HZ,
        bandwidth_hz=800e6,
        noise_figure_db=5.0,
        gains=GainProfile(22.7, 9.2, 5.0, 5.0),
        tx_pose=Pose.from_spherical(2.6, 0.0, 0.0),
        rx_pose=Pose.from_spherical(0.05, 0.0, 0.0),
        ris_present=True,
        mcs=SIMPLE_MCS,
    )
    base.update(overrides)
    return LinkScenario(**base)


def test_noise_power_examples():
    assert noise_power(800e6, 0.0) == pytest.approx(-84.97, abs=0.01)
    assert noise_power(1.0, 0.0) == pytest.approx(-174.0)
    assert noise_power(800e6, 3.0) == pytest.approx(noise_power(800e6, 0.0) + 3.0)
    with pytest.raises(ValueError):
        noise_power(0.0, 0.0)


def test_mcs_table_mapping():
    assert SIMPLE_MCS.rate_for_snr(5.0) == 0.0
    assert SIMPLE_MCS.rate_for_snr(10.0) == 450.0
    assert SIMPLE_MCS.rate_for_snr(29.999) == 1024.0
    assert SIMPLE_MCS.rate_for_snr(99.0) == 1683.0
    assert SIMPLE_MCS.threshold_for_rate(1024.0) == 20.0
    with pytest.raises(ValueError):
        SIMPLE_MCS.threshold_for_rate(999.0)


def test_mcs_table_validation():
    with pytest.raises(ValueError):
        MCSTable(rows=())
    with pytest.raises(ValueError):
        MCSTable(rows=(MCSRow(10.0, 100.0), MCSRow(5.0, 200.0)))
    with pytest.raises(ValueError):
        MCSTable(rows=(MCSRow(10.0, 200.0), MCSRow(15.0, 100.0)))
    with pytest.raises(ValueError):
        MCSTable(rows=(MCSRow(10.0, 0.0),))


def test_mcs_rate_monotone_in_snr():
    snrs = np.linspace(-10, 60, 200)
    rates = [SIMPLE_MCS.rate_for_snr(s) for s in snrs]
    assert all(b >= a for a, b in zip(rates, rates[1:]))


def test_obstacle_validation():
    with pytest.raises(ValueError):
        Obstacle(attenuation_db=-1.0)
    with pytest.raises(ValueError):
        Obstacle(position="middle")
    assert Obstacle().attenuation_db == 25.0


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize(
    "field", ["carrier_hz", "bandwidth_hz", "noise_figure_db", "transmit_power_dbm"]
)
def test_scenario_rejects_non_finite(field, bad):
    with pytest.raises(ValueError, match=field):
        make_scenario(**{field: bad})


@pytest.mark.parametrize("bad", NON_FINITE)
def test_obstacle_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="attenuation_db"):
        Obstacle(attenuation_db=bad)


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("field", ["min_snr_db", "rate_mbps"])
def test_mcs_row_rejects_non_finite(field, bad):
    with pytest.raises(ValueError, match=field):
        MCSRow(**{"min_snr_db": 10.0, "rate_mbps": 450.0, field: bad})


def test_scenario_validation():
    with pytest.raises(ValueError):
        make_scenario(bandwidth_hz=0.0)
    with pytest.raises(ValueError):
        make_scenario(transmit_power_dbm=math.nan)
    assert make_scenario(tx_pose=Pose.from_spherical(2.6, math.radians(30), 0.0)
                         ).tx_steer_angle_deg == pytest.approx(30.0)


def test_direct_link_matches_friis(panel16):
    scenario = make_scenario(ris_present=False)
    got = direct_received_power_w(scenario)
    lam = wavelength(CARRIER_HZ)
    d = 2.6 + 0.05  # coaxial horns, receiver mirrored through the panel
    expected = (10 ** ((13.6 - 30) / 10) * 10 ** ((22.7 + 9.2) / 10)
                * (lam / (4 * math.pi * d)) ** 2)
    assert got == pytest.approx(expected, rel=1e-12)
    result = evaluate_scenario(scenario, panel16, 2)
    assert result.received_power_dbm == pytest.approx(10 * math.log10(expected) + 30, rel=1e-9)


def test_direct_link_steer_misalignment_costs_power(panel16):
    aligned = evaluate_scenario(make_scenario(ris_present=False), panel16, 2)
    steered = evaluate_scenario(
        make_scenario(ris_present=False,
                      tx_pose=Pose.from_spherical(2.6, math.radians(30), 0.0)),
        panel16, 2,
    )
    drop = aligned.snr_db - steered.snr_db
    assert 1.0 <= drop <= 3.0  # receive-horn pattern at ~30 deg off boresight


def direct_power_from_vectors_w(scenario: LinkScenario) -> float:
    """The direct link in 3-vector arithmetic: norms, unit vectors and clipped dot products."""
    tx = np.array([scenario.tx_pose.x, scenario.tx_pose.y, scenario.tx_pose.z])
    rx = np.array([scenario.rx_pose.x, scenario.rx_pose.y, -scenario.rx_pose.z])  # mirrored
    sep = rx - tx
    d = np.linalg.norm(sep)
    to_rx = sep / d
    tx_bore, rx_bore = -tx / np.linalg.norm(tx), -rx / np.linalg.norm(rx)
    angle_tx = np.arccos(np.clip(np.dot(tx_bore, to_rx), -1.0, 1.0))
    angle_rx = np.arccos(np.clip(np.dot(rx_bore, -to_rx), -1.0, 1.0))
    g = scenario.gains
    pattern = (np.clip(np.cos(angle_tx), 0.0, None) ** g.q_tx
               * np.clip(np.cos(angle_rx), 0.0, None) ** g.q_rx)
    lam = wavelength(scenario.carrier_hz)
    return float(dbm_to_watts(scenario.transmit_power_dbm) * 10 ** ((g.tx_gain_dbi + g.rx_gain_dbi) / 10)
                 * pattern * (lam / (4 * math.pi * d)) ** 2)


@given(tx_range=st.floats(0.5, 5.0), tx_polar=st.floats(0.0, 60.0), tx_azimuth=st.floats(0.0, 360.0),
       rx_range=st.floats(0.03, 0.5), rx_polar=st.floats(0.0, 60.0), rx_azimuth=st.floats(0.0, 360.0))
def test_direct_link_matches_the_vector_formula(tx_range, tx_polar, tx_azimuth,
                                                rx_range, rx_polar, rx_azimuth):
    scenario = make_scenario(
        ris_present=False,
        tx_pose=Pose.from_spherical(tx_range, math.radians(tx_polar), math.radians(tx_azimuth)),
        rx_pose=Pose.from_spherical(rx_range, math.radians(rx_polar), math.radians(rx_azimuth)),
    )
    assert direct_received_power_w(scenario) == pytest.approx(
        direct_power_from_vectors_w(scenario), rel=1e-12)


def test_direct_link_refuses_coincident_horns():
    # an Rx pose behind its face mirrors onto the transmitter
    scenario = make_scenario(ris_present=False, tx_pose=Pose.from_cartesian(0.1, -0.2, 1.0),
                             rx_pose=Pose.from_cartesian(0.1, -0.2, -1.0))
    with pytest.raises(ValueError, match="transmitter and receiver coincide"):
        direct_received_power_w(scenario)


def test_panel_link_reaches_the_top_rate(panel16):
    result = evaluate_scenario(make_scenario(), panel16, 2)
    assert result.rate_mbps == 1683.0  # SNR far above the simple table's top row


def test_obstacle_attenuates_exactly(panel16):
    for ris in (True, False):
        clear = evaluate_scenario(make_scenario(ris_present=ris), panel16, 2)
        blocked = evaluate_scenario(
            make_scenario(ris_present=ris, obstacle=Obstacle(attenuation_db=7.25)),
            panel16, 2,
        )
        assert clear.received_power_dbm - blocked.received_power_dbm == pytest.approx(7.25, abs=1e-9)


def test_obstacle_side_equivalent_for_cascade(panel16):
    tx_side = evaluate_scenario(
        make_scenario(obstacle=Obstacle(attenuation_db=5.0, position="tx_side")), panel16, 2)
    rx_side = evaluate_scenario(
        make_scenario(obstacle=Obstacle(attenuation_db=5.0, position="rx_side")), panel16, 2)
    assert tx_side.received_power_dbm == pytest.approx(rx_side.received_power_dbm, rel=1e-12)


def test_rate_monotone_in_transmit_power(panel16):
    scenario = make_scenario(ris_present=False, mcs=MCSTable(rows=(
        MCSRow(50.0, 450.0), MCSRow(55.0, 1024.0), MCSRow(60.0, 1683.0))))
    rates = [
        evaluate_scenario(replace(scenario, transmit_power_dbm=p), panel16, 2).rate_mbps
        for p in np.linspace(0.0, 25.0, 26)
    ]
    assert all(b >= a for a, b in zip(rates, rates[1:]))
    assert rates[0] < rates[-1]


def test_required_power_threshold_shift(panel16):
    scenario = make_scenario(ris_present=False, mcs=MCSTable(rows=(MCSRow(50.0, 450.0),)))
    shifted = make_scenario(ris_present=False, mcs=MCSTable(rows=(MCSRow(53.0, 450.0),)))
    p0 = required_transmit_power(scenario, panel16, 2, 450.0)
    p1 = required_transmit_power(shifted, panel16, 2, 450.0)
    assert p1 - p0 == pytest.approx(3.0, abs=0.15)


BUNDLE = load_scenario_bundle(bundled_scenario_path())
BUNDLE_TABLE = code_table(BUNDLE.bits, BUNDLE.mode)


def bundle_rate_at(scenario, p_dbm):
    return evaluate_scenario(
        replace(scenario, transmit_power_dbm=p_dbm), BUNDLE.geometry, BUNDLE.bits, table=BUNDLE_TABLE
    ).rate_mbps


@given(
    base=st.sampled_from(BUNDLE.scenarios),
    tx_range=st.floats(0.5, 5.0),
    tx_polar_deg=st.floats(0.0, 60.0),
    tx_azimuth_deg=st.floats(0.0, 360.0),
    rx_range=st.floats(0.03, 0.5),
    rate=st.sampled_from([row.rate_mbps for row in BUNDLE.scenarios[0].mcs.rows]),
)
def test_required_power_reaches_the_rate_and_a_step_lower_misses(
    base, tx_range, tx_polar_deg, tx_azimuth_deg, rx_range, rate
):
    scenario = replace(
        base,
        tx_pose=Pose.from_spherical(tx_range, math.radians(tx_polar_deg),
                                    math.radians(tx_azimuth_deg)),
        rx_pose=Pose.from_spherical(rx_range, 0.0, 0.0),
    )
    try:
        p = required_transmit_power(scenario, BUNDLE.geometry, BUNDLE.bits, rate,
                                    table=BUNDLE_TABLE)
    except InfeasibleTargetError:
        assert bundle_rate_at(scenario, MAX_TRANSMIT_POWER_DBM) < rate
        return
    assert bundle_rate_at(scenario, p) >= rate
    assert bundle_rate_at(scenario, p - 0.1) < rate


def test_required_power_rounds_up_not_to_nearest():
    # the minimum is 3.9027 dBm; rounding to the nearest step gave 3.9 dBm, which misses
    scenario = next(s for s in BUNDLE.scenarios if s.name == "array_gain_with_panel")
    p = required_transmit_power(scenario, BUNDLE.geometry, BUNDLE.bits, 1121.0,
                                table=BUNDLE_TABLE)
    assert p == pytest.approx(4.0, abs=1e-9)
    assert bundle_rate_at(scenario, p) == 1121.0
    assert bundle_rate_at(scenario, 3.9) == 1024.0


def test_required_power_evaluates_the_link_once(panel16, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].transmit_power_dbm)
        return evaluate_scenario(*args, **kwargs)

    monkeypatch.setattr(rissim.link, "evaluate_scenario", counting)
    scenario = make_scenario(ris_present=False, mcs=MCSTable(rows=(MCSRow(50.0, 450.0),)))
    required_transmit_power(scenario, panel16, 2, 450.0)
    assert calls == [scenario.transmit_power_dbm]  # the scenario as given, not moved to 0 dBm


def test_required_power_floor_and_tolerance(panel16):
    scenario = make_scenario(ris_present=False, mcs=MCSTable(rows=(MCSRow(-200.0, 450.0),)))
    assert required_transmit_power(scenario, panel16, 2, 450.0) == -100.0


def test_required_power_unknown_rate(panel16):
    with pytest.raises(ValueError):
        required_transmit_power(make_scenario(), panel16, 2, 999.0)


def test_required_power_infeasible_direct(panel16):
    # direct link would need ~87 dBm to clear a 130 dB SNR threshold
    scenario = make_scenario(ris_present=False, mcs=MCSTable(rows=(MCSRow(130.0, 1683.0),)))
    with pytest.raises(InfeasibleTargetError):
        required_transmit_power(scenario, panel16, 2, 1683.0)


def test_required_power_infeasible_opaque_panel(panel16):
    opaque = ElementStateTable.from_states(
        [(0.0, math.inf), (90.0, math.inf), (180.0, math.inf), (270.0, math.inf)]
    )
    scenario = make_scenario(mcs=MCSTable(rows=(MCSRow(-50.0, 450.0),)))
    with pytest.raises(InfeasibleTargetError):
        required_transmit_power(scenario, panel16, 2, 450.0, table=opaque)


def panel_power_w(scenario: LinkScenario, geom: ArrayGeometry,
                  weights: np.ndarray | None = None) -> float:
    """Panel-link power of a weight grid, or the coherent bound when there is none."""
    args = (dbm_to_watts(scenario.transmit_power_dbm), scenario.carrier_hz, scenario.gains, geom)
    poses = (scenario.tx_pose, scenario.rx_pose)
    if weights is None:
        return coherent_power_bound(*args, *poses)
    return received_power(*args, weights, *poses)


def test_array_gain_single_element_reference_is_zero():
    # one element has no phase to get wrong: its 2-bit codebook reaches the coherent bound
    geom = ArrayGeometry(1, 1)
    scenario = make_scenario()
    codes = synthesize_codebook(scenario.tx_pose, scenario.rx_pose, geom, CARRIER_HZ, 2)
    quantized = panel_power_w(scenario, geom,
                              state_coefficients(ElementStateTable.ideal(2), codes))
    assert quantized == pytest.approx(panel_power_w(scenario, geom), rel=1e-12)


def test_array_gain_regression_16x16(panel16):
    scenario = make_scenario()
    single = ArrayGeometry(1, 1, panel16.spacing_x, panel16.spacing_y)
    gain = 10.0 * math.log10(panel_power_w(scenario, panel16) / panel_power_w(scenario, single))
    assert gain == pytest.approx(46.784, abs=2e-3)


def test_array_gain_direct_reference_positive(panel16):
    # the per-element cascade model strongly favors the panel link
    scenario = make_scenario()
    codes = synthesize_codebook(scenario.tx_pose, scenario.rx_pose, panel16, CARRIER_HZ, 2)
    panel = panel_power_w(scenario, panel16,
                          state_coefficients(default_element_table(), codes))
    assert 10.0 * math.log10(panel / direct_received_power_w(scenario)) > 40.0


def test_quantization_cost_consistent_across_modules(panel16):
    scenario = make_scenario()
    tx, rx = scenario.tx_pose, scenario.rx_pose
    loss = quantization_loss(panel16, tx, rx, CARRIER_HZ, 2)
    table = ElementStateTable.ideal(2)
    phases = optimal_phases(tx, rx, panel16, CARRIER_HZ)
    quantized = max(
        panel_power_w(scenario, panel16,
                      state_coefficients(table, quantize_phases(phases + offset, 2)))
        for offset in np.linspace(0.0, math.pi / 2, 16, endpoint=False))
    continuous = panel_power_w(scenario, panel16)
    assert 10.0 * math.log10(continuous / quantized) == pytest.approx(loss, abs=0.1)
