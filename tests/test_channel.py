import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rissim import (
    ArrayGeometry,
    ElementStateTable,
    GainProfile,
    Pose,
    coherent_power_bound,
    cos_power_pattern,
    exponent_from_gain,
    feed_illuminations,
    optimal_phases,
    received_power,
    state_coefficients,
    wavelength,
)

from conftest import CARRIER_HZ


def test_exponent_from_gain_values():
    assert exponent_from_gain(12.7) == pytest.approx(8.31, abs=5e-3)
    assert exponent_from_gain(5.0) == pytest.approx(0.5811, abs=1e-4)
    assert exponent_from_gain(3.0103) == pytest.approx(0.0, abs=1e-4)
    with pytest.raises(ValueError):
        exponent_from_gain(0.0)
    for gain in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="gain must be finite"):
            exponent_from_gain(gain)


def test_cos_power_pattern_shape():
    angles = np.linspace(0, math.pi / 2, 200).tolist()
    for q in (0.0, 0.58, 3.16, 92.0):
        pat = [cos_power_pattern(angle, q) for angle in angles]
        assert all(type(value) is float for value in pat)
        assert pat[0] == pytest.approx(1.0)
        assert np.all(np.diff(pat) <= 1e-15)
    assert cos_power_pattern(math.pi / 2 + 0.3, 2.0) == 0.0
    with pytest.raises(ValueError):
        cos_power_pattern(0.2, -1.0)
    with pytest.raises(TypeError):  # one angle per call
        cos_power_pattern(np.zeros(2), 2.0)


def test_gain_profile_validation():
    with pytest.raises(ValueError, match="tx_gain_dbi: gain must be finite"):
        GainProfile(math.inf, 10.0, 10.0, 10.0)


GAIN_FIELDS = ("tx_gain_dbi", "rx_gain_dbi", "ris_rx_side_gain_dbi", "ris_tx_side_gain_dbi")


def test_gain_profile_derives_each_exponent_from_its_gain():
    profile = GainProfile(22.7, 9.2, 5.0, 7.0)
    exponents = (profile.q_tx, profile.q_rx, profile.q_ris_rx_side, profile.q_ris_tx_side)
    assert exponents == tuple(map(exponent_from_gain, (22.7, 9.2, 5.0, 7.0)))
    with pytest.raises(TypeError):  # an exponent is derived, never given
        GainProfile(22.7, 9.2, 5.0, 7.0, q_tx=1.0)


@pytest.mark.parametrize("name", GAIN_FIELDS)
@pytest.mark.parametrize("gain,reason", [(2.0, "below the hemispheric minimum"),
                                         (math.nan, "must be finite")])
def test_gain_profile_refuses_a_gain_naming_the_field(name, gain, reason):
    gains = dict.fromkeys(GAIN_FIELDS, 10.0)
    with pytest.raises(ValueError, match=f"^{name}: gain .*{reason}"):
        GainProfile(**{**gains, name: gain})


def hop(distance: float) -> complex:
    """One-hop channel exp(-j 2 pi d / lambda) / d of a 1x1 panel, without its prefactor.

    The sqrt(lambda / 4 pi) prefactor is pinned by the single-element
    received-power hand value below.
    """
    endpoint = Pose.from_spherical(distance, 0.0, 0.0)
    grid = feed_illuminations(endpoint, ArrayGeometry(1, 1), CARRIER_HZ, exponent=0.0)
    return complex(grid[0, 0])


def test_channel_coefficient_inverse_distance():
    assert abs(hop(2.0)) == pytest.approx(abs(hop(1.0)) / 2, rel=1e-12)


def test_channel_coefficient_phase():
    lam = wavelength(CARRIER_HZ)
    d = 0.7133
    expected = (-2 * math.pi * d / lam) % (2 * math.pi)
    assert np.angle(hop(d)) % (2 * math.pi) == pytest.approx(expected, abs=1e-9)
    assert np.angle(hop(lam)) == pytest.approx(0.0, abs=1e-9)


def test_received_power_single_element_hand_value(desk_gains):
    geom = ArrayGeometry(1, 1)
    lam = wavelength(CARRIER_HZ)
    codes = np.full((geom.num_x, geom.num_y), 0)
    p = received_power(
        1.0, CARRIER_HZ, desk_gains, geom,
        state_coefficients(ElementStateTable.ideal(2), codes),
        Pose.from_spherical(2.6, 0.0, 0.0), Pose.from_spherical(0.05, 0.0, 0.0),
    )
    # both endpoints on the normal, so F = 1 and G = 10^((22.7 + 9.2 + 5 + 5) / 10)
    expected = 10 ** 4.19 * lam**2 / (16 * math.pi**2) / (2.6 * 0.05) ** 2
    assert p == pytest.approx(expected, rel=1e-12)
    # lambda = 11.1034 mm: 15488.17 * 7.8072e-7 / 0.13^2 = 0.7154964 W
    assert p == pytest.approx(0.7154964, abs=5e-8)


def test_received_power_single_element_phase_irrelevant(table, desk_gains):
    geom = ArrayGeometry(1, 1)
    tx, rx = Pose.from_spherical(1.3, 0.2, 0.0), Pose.from_spherical(0.08, 0.0, 0.0)
    powers = {
        received_power(1.0, CARRIER_HZ, desk_gains, geom,
                       state_coefficients(ElementStateTable.ideal(2),
                                          np.full((geom.num_x, geom.num_y), c)),
                       tx, rx)
        for c in range(4)
    }
    assert max(powers) == pytest.approx(min(powers), rel=1e-12)


def test_received_power_opaque_panel(panel16, desk_gains):
    opaque = ElementStateTable.from_states(
        [(0.0, math.inf), (90.0, math.inf), (180.0, math.inf), (270.0, math.inf)]
    )
    p = received_power(
        1.0, CARRIER_HZ, desk_gains, panel16,
        state_coefficients(opaque, np.full((panel16.num_x, panel16.num_y), 0)),
        Pose.from_spherical(2.6, 0.0, 0.0), Pose.from_spherical(0.05, 0.0, 0.0),
    )
    assert p == 0.0


def test_coherent_sum_matches_direct_summation(panel16, desk_gains, tx_far, rx_near):
    phases = optimal_phases(tx_far, rx_near, panel16, CARRIER_HZ)
    direct = received_power(1.0, CARRIER_HZ, desk_gains, panel16, np.exp(1j * phases), tx_far,
                            rx_near)
    bound = coherent_power_bound(1.0, CARRIER_HZ, desk_gains, panel16, tx_far, rx_near)
    assert direct == pytest.approx(bound, rel=1e-9)


def test_received_power_reciprocity(panel16):
    tx = Pose.from_spherical(2.6, 0.3, 0.5)
    rx = Pose.from_spherical(0.05, 0.15, 2.0)
    profile = GainProfile(22.7, 9.2, 5.0, 7.0)
    swapped = GainProfile(9.2, 22.7, 7.0, 5.0)
    phases = optimal_phases(tx, rx, panel16, CARRIER_HZ)
    forward = received_power(1.0, CARRIER_HZ, profile, panel16, np.exp(1j * phases), tx, rx)
    reverse = received_power(1.0, CARRIER_HZ, swapped, panel16, np.exp(1j * phases), rx, tx)
    assert forward == pytest.approx(reverse, rel=1e-12)


def test_single_phase_perturbation_strictly_decreases(panel16, tx_far, rx_near, desk_gains):
    base = optimal_phases(tx_far, rx_near, panel16, CARRIER_HZ)
    p0 = received_power(1.0, CARRIER_HZ, desk_gains, panel16, np.exp(1j * base), tx_far, rx_near)
    for eps in (0.05, 0.5, math.pi):
        perturbed = base.copy()
        perturbed[7, 3] += eps
        p = received_power(1.0, CARRIER_HZ, desk_gains, panel16, np.exp(1j * perturbed), tx_far,
                           rx_near)
        assert p < p0


def test_magnitude_scaling_quadratic(panel16, tx_far, rx_near, desk_gains):
    # a table with uniform 6.0206 dB loss scales the ideal table's power by 0.25
    damped = ElementStateTable.from_states(
        [(0.0, 6.0206), (90.0, 6.0206), (180.0, 6.0206), (270.0, 6.0206)]
    )
    codes = np.full((panel16.num_x, panel16.num_y), 0)
    nominal = received_power(1.0, CARRIER_HZ, desk_gains, panel16,
                             state_coefficients(ElementStateTable.ideal(2), codes),
                             tx_far, rx_near)
    realized = received_power(1.0, CARRIER_HZ, desk_gains, panel16,
                              state_coefficients(damped, codes), tx_far, rx_near)
    assert realized == pytest.approx(0.25 * nominal, rel=1e-4)


def test_transmit_power_linearity(panel16, desk_gains, tx_far, rx_near, table):
    weights = state_coefficients(table, np.full((panel16.num_x, panel16.num_y), 0))
    p1 = received_power(1.0, CARRIER_HZ, desk_gains, panel16, weights, tx_far, rx_near)
    p3 = received_power(3.0, CARRIER_HZ, desk_gains, panel16, weights, tx_far, rx_near)
    assert p3 == pytest.approx(3 * p1, rel=1e-12)


def test_received_power_dimension_mismatch(panel16, table, desk_gains):
    other = ArrayGeometry(8, 8)
    codes = np.full((other.num_x, other.num_y), 0)
    poses = (Pose.from_spherical(1, 0, 0), Pose.from_spherical(0.05, 0, 0))
    with pytest.raises(ValueError):
        received_power(1.0, CARRIER_HZ, desk_gains, panel16,
                       state_coefficients(table, codes), *poses)
    with pytest.raises(ValueError):
        received_power(1.0, CARRIER_HZ, desk_gains, panel16,
                       np.exp(1j * np.zeros((8, 8))), *poses)
    # as many weights as elements, but not laid out on the panel's grid
    with pytest.raises(ValueError, match=r"weight grid shape \(256,\) does not match panel"):
        received_power(1.0, CARRIER_HZ, desk_gains, panel16, np.ones(256), *poses)


def test_feed_illumination_center():
    geom = ArrayGeometry(17, 17)
    feed = Pose.from_spherical(0.05, 0.0, 0.0)
    a = feed_illuminations(feed, geom, CARRIER_HZ, exponent=8.31)[8, 8]
    assert abs(a) == pytest.approx(1 / 0.05, rel=1e-12)


def test_feed_illumination_corner_taper(panel16):
    feed = Pose.from_spherical(0.05, 0.0, 0.0)
    d = math.sqrt(0.05**2 + 2 * 0.03675**2)
    expected = (0.05 / d) ** 8.31 / d
    a = feed_illuminations(feed, panel16, CARRIER_HZ, exponent=8.31)[0, 0]
    assert abs(a) == pytest.approx(expected, rel=1e-12)
    assert (0.05 / d) ** 8.31 == pytest.approx(0.0476, abs=2e-4)  # taper alone


def test_feed_illumination_symmetry(panel16):
    feed = Pose.from_spherical(0.05, 0.0, 0.0)
    grid = feed_illuminations(feed, panel16, CARRIER_HZ, exponent=8.31)
    np.testing.assert_allclose(grid, grid[::-1, ::-1], rtol=1e-12)


def test_feed_illumination_validation(panel16):
    behind = Pose.from_cartesian(0.0, 0.0, -0.05)
    with pytest.raises(ValueError):
        feed_illuminations(behind, panel16, CARRIER_HZ, exponent=1.0)
    with pytest.raises(ValueError):
        feed_illuminations(Pose.from_spherical(0.05, 0, 0), panel16, CARRIER_HZ, exponent=-1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf),
                                 complex(math.inf, math.inf)])
def test_received_power_refuses_non_finite_weights(panel16, tx_far, rx_near, desk_gains, bad):
    weights = np.ones((16, 16), dtype=complex)
    weights[7, 2] = bad
    with pytest.raises(ValueError, match="weight grid must be finite: its field sum has magnitude"):
        received_power(1.0, CARRIER_HZ, desk_gains, panel16, weights, tx_far, rx_near)


def test_received_power_rejects_negative_power(panel16, table, tx_far, rx_near, desk_gains):
    weights = state_coefficients(table, np.full((panel16.num_x, panel16.num_y), 0))
    with pytest.raises(ValueError):
        received_power(-1.0, CARRIER_HZ, desk_gains, panel16, weights,
                       tx_far, rx_near)


def test_channel_coefficient_degenerate_geometry(panel16, tx_far, desk_gains):
    from rissim import DegenerateGeometryError

    xe, ye = panel16.element_grid()
    on_panel = Pose.from_cartesian(xe[2, 2], ye[2, 2], 0.0)
    with pytest.raises(DegenerateGeometryError):
        received_power(1.0, CARRIER_HZ, desk_gains, panel16,
                       np.exp(1j * np.zeros((16, 16))), tx_far, on_panel)


@given(exponent=st.floats(0.0, 200.0))
def test_cos_power_pattern_monotone_any_exponent(exponent):
    angles = np.linspace(0.0, math.pi / 2, 91).tolist()
    pattern = np.array([cos_power_pattern(angle, exponent) for angle in angles])
    assert pattern[0] == pytest.approx(1.0)
    assert np.all(np.diff(pattern) <= 1e-12)
    assert np.all((0.0 <= pattern) & (pattern <= 1.0))
