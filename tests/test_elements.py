import cmath
import dataclasses
import math

import numpy as np
import pytest

from rissim import ElementStateTable, code_table, default_element_table, state_coefficients


def test_default_table_values(table):
    assert table.bits == 2
    np.testing.assert_allclose(
        table.magnitudes(),
        10.0 ** (-np.array([1.1, 1.3, 1.1, 1.5]) / 20.0),
    )
    np.testing.assert_allclose(
        np.degrees(table.realized_phases()), [-141.2, -56.8, 34.9, 129.0]
    )
    assert table.mean_insertion_loss_db() == pytest.approx(1.25)


def test_default_table_steps_near_quarter_turn(table):
    steps = np.diff(np.degrees(table.realized_phases()))
    np.testing.assert_allclose(steps, [84.4, 91.7, 94.1], atol=1e-9)
    assert np.all(np.abs(steps - 90.0) <= 10.0)


def test_state_coefficient_realized(table):
    c = state_coefficients(table, np.array([0]))[0]
    assert abs(c) == pytest.approx(10 ** (-1.1 / 20), rel=1e-12)
    assert math.degrees(np.angle(c)) == pytest.approx(-141.2)


def test_state_coefficient_nominal_identity():
    """Nominal mode is the ideal table: unit magnitude at the exact grid phase, bit for bit."""
    for bits in (1, 2, 3, 4):
        codes = np.arange(1 << bits)
        coefficients = state_coefficients(code_table(bits, "nominal"), codes)
        assert np.all(coefficients == np.exp(1j * codes * (2 * math.pi / (1 << bits))))
        assert coefficients[0] == 1.0 + 0.0j


def test_state_coefficient_code_range(table):
    state_coefficients(table, np.arange(4))  # the lookup is built; the range check still runs
    for codes in (np.array([4]), np.array([-1]), np.array([[0, 4]])):
        with pytest.raises(ValueError, match=r"^codes outside \[0, 4\)$"):
            state_coefficients(table, codes)


def test_code_table_resolves_a_mode_to_one_table(table):
    assert code_table(3, "nominal", table) == ElementStateTable.ideal(3)
    assert code_table(2, "realized") is default_element_table()
    custom = ElementStateTable.from_states([(0.0, 0.5), (180.0, 0.5)])
    assert code_table(1, "realized", custom) is custom
    with pytest.raises(ValueError, match="mode must be one of"):
        code_table(2, "measured")
    with pytest.raises(ValueError, match="3-bit codes cannot be read against a 2-bit state table"):
        code_table(3, "realized", table)


def test_state_coefficients_vectorized(table):
    codes = np.array([[0, 1], [2, 3]])
    got = state_coefficients(table, codes)
    # per-code reference straight from the table's two columns
    expected = np.array(
        [[10.0 ** (-table.losses_db[c] / 20.0) * cmath.exp(1j * table.phases[c]) for c in row]
         for row in codes]
    )
    np.testing.assert_allclose(got, expected)
    with pytest.raises(ValueError):
        state_coefficients(table, np.array([0, 4]))


def test_state_lookup_is_built_once_and_read_only(table):
    all_codes = np.arange(4)
    first = state_coefficients(table, all_codes)
    assert table._coefficients is table._coefficients
    with pytest.raises(ValueError, match="read-only"):
        table._coefficients[0] = 0.0
    first[:] = 0.0  # a new array: the caller's writes do not reach the table
    assert first.flags.writeable
    np.testing.assert_array_equal(state_coefficients(table, all_codes),
                                  table.magnitudes() * np.exp(1j * table.realized_phases()))


def test_tables_compare_and_hash_equal_after_a_read():
    rows = [(-141.2, 1.1), (-56.8, 1.3), (34.9, 1.1), (129.0, 1.5)]
    read, unread = ElementStateTable.from_states(rows), ElementStateTable.from_states(rows)
    state_coefficients(read, np.array([[0, 3], [1, 2]]))
    assert read == unread and unread == read and hash(read) == hash(unread)


def test_ideal_table():
    t = ElementStateTable.ideal(3)
    assert t.bits == 3
    np.testing.assert_allclose(t.magnitudes(), 1.0)
    np.testing.assert_allclose(t.realized_phases(), np.arange(8) * math.pi / 4)
    with pytest.raises(TypeError):
        ElementStateTable.ideal(2.0)  # a bit count is an integer


def test_default_table_is_one_frozen_object():
    table = default_element_table()
    assert default_element_table() is table
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.bits = 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.losses_db = (0.0,) * 4
    with pytest.raises(TypeError):
        table.losses_db[0] = 0.0


def test_table_validation_state_count():
    with pytest.raises(ValueError):
        ElementStateTable.from_states([(0.0, 1.0), (90.0, 1.0), (180.0, 1.0)])
    with pytest.raises(ValueError, match="power-of-two count"):
        ElementStateTable((0.0, 1.0, 2.0), (0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="got 4 and 2"):
        ElementStateTable((0.0, 1.0, 2.0, 3.0), (0.0, 0.0))
    with pytest.raises(ValueError, match="got 2 and 4"):
        ElementStateTable((0.0, 1.0), (0.0,) * 4)


def test_bit_depth_is_the_length_of_the_columns():
    for bits in (1, 2, 3, 4):
        phases = tuple(float(i) for i in range(1 << bits))
        assert ElementStateTable(phases, (1.0,) * (1 << bits)).bits == bits
        assert ElementStateTable.ideal(bits).bits == bits


def test_tables_with_equal_columns_compare_equal():
    rows = [(-141.2, 1.1), (-56.8, 1.3), (34.9, 1.1), (129.0, 1.5)]
    assert ElementStateTable.from_states(rows) == default_element_table()
    quarter_turns = (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)
    assert ElementStateTable(quarter_turns, (0.0,) * 4) == code_table(2, "nominal")
    assert ElementStateTable.from_states(rows[:2]) != ElementStateTable.from_states(rows[2:])


def test_table_keeps_its_own_copy_of_the_columns():
    phases = [0.0, 1.0]
    t = ElementStateTable(phases, [0.0, 0.0])
    phases[0] = math.nan  # the caller's list, not the table's column
    with pytest.raises(TypeError):
        t.phases[0] = math.nan
    assert t.realized_phases().tolist() == [0.0, 1.0]


def test_tables_from_numpy_columns_compare_equal():
    a = ElementStateTable(np.array([0.0, 1.0]), np.array([0.0, 0.5]))
    b = ElementStateTable(np.array([0.0, 1.0]), np.array([0.0, 0.5]))
    assert a == b and hash(a) == hash(b)
    assert a.phases == (0.0, 1.0) and type(a.phases[0]) is float


def test_table_validation_magnitude():
    with pytest.raises(ValueError, match="code 0 insertion loss must be >= 0 dB, got -0.5"):
        ElementStateTable.from_states([(0.0, -0.5), (90.0, 0.0), (180.0, 0.0), (270.0, 0.0)])
    with pytest.raises(ValueError, match="code 2 insertion loss must be >= 0 dB, got nan"):
        ElementStateTable.from_states([(0.0, 0.0), (90.0, 0.0), (180.0, math.nan), (270.0, 0.0)])


@pytest.mark.parametrize("phase_deg", [math.nan, math.inf, -math.inf])
def test_table_refuses_a_non_finite_phase(tmp_path, phase_deg):
    rows = [(0.0, 1.0), (90.0, 1.0), (phase_deg, 1.0), (270.0, 1.0)]
    message = f"code 2 phase must be finite, got {math.radians(phase_deg)}"
    with pytest.raises(ValueError, match=message):
        ElementStateTable.from_states(rows)
    path = tmp_path / "states.csv"
    path.write_text("code,phase_deg,loss_db\n"
                    + "".join(f"{code},{p},{loss}\n" for code, (p, loss) in enumerate(rows)))
    with pytest.raises(ValueError, match=f"element table {path}: code 2 phase must be finite"):
        ElementStateTable.from_csv(path)


def test_opaque_state_allowed():
    t = ElementStateTable.from_states([(0.0, math.inf), (90.0, math.inf),
                                       (180.0, math.inf), (270.0, math.inf)])
    np.testing.assert_allclose(t.magnitudes(), 0.0)


def test_csv_round_trip(tmp_path, table):
    path = tmp_path / "states.csv"
    path.write_text(
        "code,phase_deg,loss_db\n"
        "0,-141.2,1.1\n"
        "1,-56.8,1.3\n"
        "2,34.9,1.1\n"
        "3,129.0,1.5\n"
    )
    loaded = ElementStateTable.from_csv(path)
    np.testing.assert_allclose(loaded.magnitudes(), table.magnitudes())
    np.testing.assert_allclose(loaded.realized_phases(), table.realized_phases())


def test_csv_errors(tmp_path):
    bad_header = tmp_path / "bad1.csv"
    bad_header.write_text("code,phase\n0,0\n")
    with pytest.raises(ValueError):
        ElementStateTable.from_csv(bad_header)
    bad_codes = tmp_path / "bad2.csv"
    bad_codes.write_text("code,phase_deg,loss_db\n0,0,1\n2,90,1\n")
    with pytest.raises(ValueError):
        ElementStateTable.from_csv(bad_codes)
    dup = tmp_path / "bad3.csv"
    dup.write_text("code,phase_deg,loss_db\n0,0,1\n0,90,1\n")
    with pytest.raises(ValueError):
        ElementStateTable.from_csv(dup)
