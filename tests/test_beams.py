import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rissim import (
    ArrayGeometry,
    ElementStateTable,
    Pose,
    SearchSpaceError,
    bundled_scenario_path,
    code_table,
    evaluate_scenario,
    exact_distances,
    exhaustive_oracle,
    load_scenario_bundle,
    optimal_codebook,
    optimal_phases,
    quantization_loss,
    quantize_phases,
    received_power,
    state_coefficients,
    synthesize_codebook,
    uniform_phase_loss_db,
    wavelength,
)

from conftest import CARRIER_HZ

FAR = Pose.from_spherical(100.0, 0.0, 0.0)


def cascade_sum_squared(geom: ArrayGeometry, weights: np.ndarray, tx: Pose, rx: Pose) -> float:
    """|sum W exp(-j 2 pi (d^t + d^r) / lambda) / (d^t d^r)|^2, the sum the searches maximize."""
    dt, dr = exact_distances(tx, geom), exact_distances(rx, geom)
    path = np.exp(-2j * math.pi * (dt + dr) / wavelength(CARRIER_HZ)) / (dt * dr)
    return abs(np.sum(weights * path)) ** 2


def closed_form_loss_db(bits: int) -> float:
    """Coherence loss of phases uniform over one quantization cell."""
    half_cell = math.pi / (1 << bits)
    return -20.0 * math.log10(math.sin(half_cell) / half_cell)


def test_broadside_far_field_phases_equal_offset(panel16):
    phases = optimal_phases(FAR, FAR, panel16, CARRIER_HZ)
    xe, ye = panel16.element_grid()
    # each 100 m endpoint's exact path past the center path
    excess = 2.0 * (np.sqrt(xe**2 + ye**2 + 100.0**2) - 100.0)
    np.testing.assert_allclose(phases, 2 * math.pi * excess / wavelength(CARRIER_HZ),
                               rtol=0, atol=1e-9)
    assert 0.0 < phases.max() < 0.02  # within 0.02 rad of a plane wave, not equal to it


def test_offset_shifts_phase_map_and_preserves_power(panel16, rx_near, desk_gains):
    p1 = optimal_phases(FAR, rx_near, panel16, CARRIER_HZ)
    p2 = p1 + 1.234  # a phase constant on every element
    pw1 = received_power(1.0, CARRIER_HZ, desk_gains, panel16, np.exp(1j * p1), FAR, rx_near)
    pw2 = received_power(1.0, CARRIER_HZ, desk_gains, panel16, np.exp(1j * p2), FAR, rx_near)
    assert pw1 == pytest.approx(pw2, rel=1e-12)


def test_synthesize_broadside_all_zero(panel16):
    codes = synthesize_codebook(FAR, FAR, panel16, CARRIER_HZ, 2)
    assert not codes.any()


def test_synthesize_near_focus_has_ring_structure(panel16, rx_near):
    codes = synthesize_codebook(FAR, rx_near, panel16, CARRIER_HZ, 2)
    xe, ye = panel16.element_grid()
    radius = np.round((xe**2 + ye**2) * 1e9).astype(np.int64)  # ring id
    for ring in np.unique(radius):
        ring_codes = codes[radius == ring]
        assert np.all(ring_codes == ring_codes.reshape(-1)[0])
    assert len(np.unique(codes)) == 4  # the focus map uses every code


def test_quantized_never_beats_continuous(panel16, rx_near, desk_gains):
    continuous = received_power(
        1.0, CARRIER_HZ, desk_gains, panel16,
        np.exp(1j * optimal_phases(FAR, rx_near, panel16, CARRIER_HZ)), FAR, rx_near,
    )
    last = 0.0
    for bits in (1, 2, 3, 4, 5, 6):
        codes = synthesize_codebook(FAR, rx_near, panel16, CARRIER_HZ, bits)
        p = received_power(1.0, CARRIER_HZ, desk_gains, panel16,
                           state_coefficients(ElementStateTable.ideal(bits), codes),
                           FAR, rx_near)
        assert p <= continuous * (1 + 1e-12)
        assert p >= last  # finer phasing cannot hurt at matched offsets
        last = p


def test_uniform_code_shift_invariance(panel16, rx_near, desk_gains):
    codes = synthesize_codebook(FAR, rx_near, panel16, CARRIER_HZ, 2)
    table = ElementStateTable.ideal(2)
    base = received_power(1.0, CARRIER_HZ, desk_gains, panel16,
                          state_coefficients(table, codes), FAR, rx_near)
    for shift in (1, 2, 3):
        p = received_power(1.0, CARRIER_HZ, desk_gains, panel16,
                           state_coefficients(table, (codes + shift) % 4), FAR, rx_near)
        assert p == pytest.approx(base, rel=1e-12)


def test_oracle_single_element(table):
    geom = ArrayGeometry(1, 1)
    tx, rx = Pose.from_spherical(1.0, 0.1, 0.0), Pose.from_spherical(0.06, 0, 0)
    ideal = ElementStateTable.ideal(2)
    codes, power = exhaustive_oracle(tx, rx, geom, CARRIER_HZ, ideal)
    for code in range(4):
        steered = quantize_phases(optimal_phases(tx, rx, geom, CARRIER_HZ) + code * math.pi / 2, 2)
        p = cascade_sum_squared(geom, state_coefficients(ideal, steered), tx, rx)
        assert power == pytest.approx(p, rel=1e-12)
    assert codes.shape == (1, 1)


def test_oracle_dominates_and_solver_closes_gap(rng):
    geom = ArrayGeometry(2, 2)
    table = ElementStateTable.ideal(2)
    for _ in range(10):
        tx = Pose.from_spherical(rng.uniform(0.5, 3.0), rng.uniform(0, 1.0), rng.uniform(0, 6.28))
        rx = Pose.from_spherical(rng.uniform(0.03, 0.5), rng.uniform(0, 1.0), rng.uniform(0, 6.28))
        _, p_oracle = exhaustive_oracle(tx, rx, geom, CARRIER_HZ, table)
        _, p_solver = optimal_codebook(tx, rx, geom, CARRIER_HZ, table)
        assert p_oracle >= p_solver * (1 - 1e-12)
        assert 10 * math.log10(p_oracle / p_solver) <= 0.05


def test_oracle_tie_break_lexicographic():
    # broadside far-far 1x2: optimum is any uniform grid; first enumerated wins
    geom = ArrayGeometry(1, 2)
    codes, _ = exhaustive_oracle(FAR, FAR, geom, CARRIER_HZ, ElementStateTable.ideal(1))
    assert codes.tolist() == [[0, 0]]


def test_oracle_capacity_error():
    with pytest.raises(SearchSpaceError):
        exhaustive_oracle(FAR, FAR, ArrayGeometry(3, 3), CARRIER_HZ, ElementStateTable.ideal(3))


def test_quantization_loss_two_bit(panel16, rx_near):
    loss = quantization_loss(panel16, FAR, rx_near, CARRIER_HZ, 2)
    assert loss <= 1.0
    assert loss == pytest.approx(closed_form_loss_db(2), abs=0.3)


def test_quantization_loss_one_bit(panel16, rx_near):
    loss = quantization_loss(panel16, FAR, rx_near, CARRIER_HZ, 1)
    assert 3.0 <= loss <= 4.5


def test_quantization_loss_fine_grids_vanish(panel16, rx_near):
    loss = quantization_loss(panel16, FAR, rx_near, CARRIER_HZ, 8)
    assert loss < 1e-3


def test_quantization_loss_monotone_in_bits(panel16, rx_near):
    losses = [quantization_loss(panel16, FAR, rx_near, CARRIER_HZ, b) for b in (1, 2, 3, 4)]
    assert all(a >= b for a, b in zip(losses, losses[1:]))


def test_uniform_phase_loss_closed_form():
    assert uniform_phase_loss_db(2) == pytest.approx(0.912, abs=5e-4)
    for bits in range(1, 9):
        assert uniform_phase_loss_db(bits) == pytest.approx(closed_form_loss_db(bits), rel=1e-12)
    with pytest.raises(ValueError):
        uniform_phase_loss_db(0)


def test_solver_returns_the_power_of_its_codebook(panel16, rx_near):
    table = ElementStateTable.ideal(2)
    codes, power = optimal_codebook(FAR, rx_near, panel16, CARRIER_HZ, table)
    assert power == pytest.approx(cascade_sum_squared(
        panel16, state_coefficients(table, codes), FAR, rx_near), rel=1e-12)
    assert power >= cascade_sum_squared(
        panel16, state_coefficients(table, synthesize_codebook(FAR, rx_near, panel16, CARRIER_HZ,
                                                        2)),
        FAR, rx_near,
    ) * (1 - 1e-12)


# (panel shape, bits, mode): every case small enough for the exhaustive oracle
SOLVER_CASES = [((2, 2), 1, "nominal"), ((2, 2), 2, "nominal"), ((2, 2), 3, "nominal"),
                ((3, 3), 1, "nominal"), ((3, 3), 2, "nominal"),
                ((2, 2), 2, "realized"), ((3, 3), 2, "realized")]

poses = st.builds(
    Pose.from_spherical,
    st.floats(0.03, 3.0), st.floats(0.0, 1.4), st.floats(0.0, 2 * math.pi),
)


@pytest.mark.parametrize("shape,bits,mode", SOLVER_CASES)
@settings(max_examples=25)
@given(tx=poses, rx=poses)
def test_solver_matches_the_exhaustive_oracle(shape, bits, mode, tx, rx):
    geom = ArrayGeometry(*shape)
    table = code_table(bits, mode)
    _, p_oracle = exhaustive_oracle(tx, rx, geom, CARRIER_HZ, table)
    codes, p_solver = optimal_codebook(tx, rx, geom, CARRIER_HZ, table)
    assert p_solver == pytest.approx(p_oracle, rel=1e-12)
    assert p_solver == pytest.approx(cascade_sum_squared(
        geom, state_coefficients(table, codes), tx, rx), rel=1e-12)


@pytest.mark.parametrize("bits", [1, 2, 3, 4])
def test_solver_never_worse_than_a_phase_constant_sweep(panel16, rx_near, bits):
    # symmetric broadside pose: many elements share a path length, so switch events tie
    table = ElementStateTable.ideal(bits)
    step = 2 * math.pi / (1 << bits)
    phases = optimal_phases(FAR, rx_near, panel16, CARRIER_HZ)
    swept = max(
        cascade_sum_squared(panel16, state_coefficients(
            table, quantize_phases(phases + step * k / 16, bits)), FAR, rx_near)
        for k in range(16)
    )
    _, power = optimal_codebook(FAR, rx_near, panel16, CARRIER_HZ, table)
    assert power >= swept * (1 - 1e-12)


def test_solver_fires_tied_events_together(panel16, rx_near):
    # many switch events coincide at this symmetric pose; they must fire together,
    # and the optimum is the 3.493 dB the phase-constant sweep also finds here
    loss = quantization_loss(panel16, FAR, rx_near, CARRIER_HZ, 1)
    assert loss == pytest.approx(3.493, abs=5e-4)


def test_solver_on_a_degenerate_state_table(panel16, rx_near):
    # every state the same coefficient: one hull vertex, the lowest code everywhere
    flat = ElementStateTable.from_states([(10.0, 1.0)] * 4)
    codes, power = optimal_codebook(FAR, rx_near, panel16, CARRIER_HZ, flat)
    assert not codes.any()
    assert power == pytest.approx(cascade_sum_squared(
        panel16, state_coefficients(flat, codes), FAR, rx_near), rel=1e-12)


@pytest.mark.parametrize("optimiser", [exhaustive_oracle, optimal_codebook])
def test_optimisers_read_codes_as_received_power_does(optimiser, table):
    geom = ArrayGeometry(2, 2)
    tx, rx = Pose.from_spherical(1.0, 0.3, 0.2), Pose.from_spherical(0.1, 0.2, 1.0)
    # the ideal 1-bit table gives 1-bit codes, read at their own phases
    ideal = ElementStateTable.ideal(1)
    codes, power = optimiser(tx, rx, geom, CARRIER_HZ, ideal)
    assert codes.shape == (2, 2) and codes.max() <= 1
    assert power == pytest.approx(cascade_sum_squared(
        geom, state_coefficients(ideal, codes), tx, rx), rel=1e-12)
    # a table of another bit depth is refused where codes meet a table
    with pytest.raises(ValueError, match="1-bit codes"):
        code_table(1, "realized", table)
    panel_link = next(s for s in load_scenario_bundle(bundled_scenario_path()).scenarios
                      if s.ris_present)
    with pytest.raises(ValueError, match="3-bit codes"):
        evaluate_scenario(panel_link, geom, 3, table=table)
