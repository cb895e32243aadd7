import csv
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rissim import (
    ArrayGeometry,
    ElementStateTable,
    Pose,
    UnsupportedConfigurationError,
    directivity_and_gain,
    encode_bias_bitstream,
    pack_bitstream,
    quantize_phases,
    radiation_pattern,
    received_power,
    state_coefficients,
    synthesize_codebook,
)
from rissim.cli import main

from conftest import CARRIER_HZ

TWO_PI = 2 * math.pi


def quantize(phase: float, bits: int) -> int:
    return int(quantize_phases(phase, bits))


def nearest_code(phase: float, bits: int) -> int:
    """Scalar reference: the code whose grid phase is circularly nearest."""
    n = 1 << bits
    distances = [abs((phase - c * TWO_PI / n + math.pi) % TWO_PI - math.pi) for c in range(n)]
    return distances.index(min(distances))


@pytest.mark.parametrize(
    "phase,bits,code",
    [
        (0.0, 2, 0),
        (3.0, 2, 2),
        (TWO_PI - 0.1, 2, 0),
        (math.pi / 2, 2, 1),
        (-0.1, 2, 0),
        (0.0, 1, 0),
        (math.pi + 0.01, 1, 1),
    ],
)
def test_quantize_examples(phase, bits, code):
    assert quantize(phase, bits) == code


def test_quantize_midpoints_resolve_down():
    # midpoint between codes 0 and 1 at b=2 is pi/4
    assert quantize(math.pi / 4, 2) == 0
    assert quantize(3 * math.pi / 4, 2) == 1
    assert quantize(math.pi / 2, 1) == 0


def test_quantize_bits_validation():
    with pytest.raises(ValueError):
        quantize_phases(0.0, 0)
    with pytest.raises(ValueError):
        quantize_phases(np.zeros(3), 0)


@given(phase=st.floats(-100.0, 100.0), bits=st.integers(1, 8))
def test_quantize_error_bound(phase, bits):
    code = quantize(phase, bits)
    grid = code * TWO_PI / (1 << bits)
    err = abs((phase - grid + math.pi) % TWO_PI - math.pi)
    assert err <= math.pi / (1 << bits) + 1e-9


@given(bits=st.integers(1, 6))
def test_quantize_vector_matches_scalar(bits):
    phases = np.random.default_rng(bits).uniform(-10, 10, size=64)
    vec = quantize_phases(phases, bits)
    assert vec.tolist() == [nearest_code(p, bits) for p in phases]


def test_configuration_validation(desk_gains, tx_far, rx_near):
    """A code grid is a plain array; each reader of its codes refuses what it cannot read."""
    geom = ArrayGeometry(2, 3)
    ideal = ElementStateTable.ideal(2)
    misshapen = state_coefficients(ideal, np.zeros((3, 2), dtype=int))
    grid = dict(theta=np.array([0.0]), phi=np.array([0.0]))
    cut = radiation_pattern(np.ones((2, 3)), geom, CARRIER_HZ, **grid)
    for read in (
        lambda: received_power(1.0, CARRIER_HZ, desk_gains, geom, misshapen, tx_far, rx_near),
        lambda: radiation_pattern(misshapen, geom, CARRIER_HZ, **grid),
        lambda: directivity_and_gain(misshapen, geom, CARRIER_HZ, cut=cut, element_exponent=1.0),
    ):
        with pytest.raises(ValueError, match=r"shape \(3, 2\) does not match panel \(2, 3\)"):
            read()
    with pytest.raises(ValueError, match=r"codes outside \[0, 4\)"):
        state_coefficients(ideal, np.full((2, 3), 4))
    with pytest.raises(ValueError, match=r"codes outside \[0, 4\)"):
        encode_bias_bitstream(np.full((2, 3), 4), 2)
    with pytest.raises(ValueError, match="bits must be >= 1"):
        synthesize_codebook(tx_far, rx_near, geom, CARRIER_HZ, 0)
    codes = synthesize_codebook(tx_far, rx_near, geom, CARRIER_HZ, 2)
    assert codes.shape == (2, 3) and codes.dtype == np.int64
    want = codes.tolist()
    codes[...] = 3  # each call returns a fresh array: writing one changes no later grid
    assert synthesize_codebook(tx_far, rx_near, geom, CARRIER_HZ, 2).tolist() == want


def test_configuration_csv_round_trip(tmp_path):
    """`rissim codebook` writes its code grid one panel row (fixed m) per line."""
    config = tmp_path / "run.yaml"
    config.write_text("geometry: {num_x: 4, num_y: 5}\n"
                      "beam: {tx_pose: {range_m: 2.0, polar_deg: 30}, rx_pose: {range_m: 0.07}}\n")
    assert main(["codebook", "--config", str(config), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "codes.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == [f"code_n{n}" for n in range(5)]
    tx = Pose.from_spherical(2.0, math.radians(30), 0.0)
    codes = synthesize_codebook(tx, Pose.from_spherical(0.07, 0.0, 0.0), ArrayGeometry(4, 5),
                                CARRIER_HZ, 2)  # the command's default carrier
    assert [[int(v) for v in row] for row in rows] == codes.tolist()
    assert len(np.unique(codes)) > 1  # a constant grid would not show the row order


def test_bitstream_all_zero(panel16):
    bits = encode_bias_bitstream(np.zeros((16, 16), dtype=int), 2)
    assert bits.size == 512
    assert not bits.any()
    assert pack_bitstream(bits) == b"\x00" * 64
    assert pack_bitstream(bits).hex() == "00" * 64


def test_bitstream_single_element(panel16):
    codes = np.zeros((16, 16), dtype=int)
    codes[0, 0] = 3
    bits = encode_bias_bitstream(codes, 2)
    assert bits[0] == 1 and bits[1] == 1
    assert not bits[2:].any()


def test_bitstream_bit_assignment(panel16):
    codes = np.zeros((16, 16), dtype=int)
    codes[0, 0] = 2  # current-reversal line only (code bit 1)
    bits = encode_bias_bitstream(codes, 2)
    assert bits[0] == 1 and bits[1] == 0
    codes[0, 0] = 1  # 90-degree shifter line only (code bit 0)
    bits = encode_bias_bitstream(codes, 2)
    assert bits[0] == 0 and bits[1] == 1


def decode_bias_bitstream(bits: np.ndarray, geom: ArrayGeometry) -> np.ndarray:
    """Inverse of encode_bias_bitstream: two bias lines per element back to its code."""
    bits = np.asarray(bits, dtype=np.uint8)
    expected = 2 * geom.num_elements
    if bits.ndim != 1 or bits.size != expected:
        raise ValueError(f"bitstream must hold {expected} bits, got {bits.size}")
    if bits.size and bits.max() > 1:
        raise ValueError("bitstream values must be 0 or 1")
    codes = (bits[0::2].astype(np.int64) << 1) | bits[1::2]
    return codes.reshape(geom.num_x, geom.num_y)


def unpack_bitstream(data: bytes, num_bits: int) -> np.ndarray:
    """Inverse of pack_bitstream: the first num_bits bits, MSB of the first byte first."""
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    if bits.size < num_bits:
        raise ValueError(f"buffer holds {bits.size} bits, need {num_bits}")
    return bits[:num_bits]


def test_bitstream_round_trip(rng):
    geom = ArrayGeometry(5, 7)
    for _ in range(20):
        codes = rng.integers(0, 4, size=(5, 7))
        bits = encode_bias_bitstream(codes, 2)
        assert decode_bias_bitstream(bits, geom).tolist() == codes.tolist()
        packed = pack_bitstream(bits)
        np.testing.assert_array_equal(unpack_bitstream(packed, bits.size), bits)


def test_bitstream_requires_two_bits():
    with pytest.raises(UnsupportedConfigurationError):
        encode_bias_bitstream(np.zeros((2, 2), dtype=int), 3)


def test_bitstream_decode_validation(panel16):
    with pytest.raises(ValueError):
        decode_bias_bitstream(np.zeros(100, dtype=np.uint8), panel16)
    with pytest.raises(ValueError):
        decode_bias_bitstream(np.full(512, 2, dtype=np.uint8), panel16)


def test_pack_msb_first():
    assert pack_bitstream(np.array([1, 0, 0, 0, 0, 0, 0, 0], dtype=np.uint8)) == b"\x80"
    assert pack_bitstream(np.array([0, 0, 0, 0, 0, 0, 0, 1], dtype=np.uint8)) == b"\x01"


@given(bits=st.integers(1, 8), data=st.data())
def test_quantize_grid_phases_are_fixed_points(bits, data):
    code = data.draw(st.integers(0, (1 << bits) - 1))
    turns = data.draw(st.integers(-3, 3))
    phase = code * TWO_PI / (1 << bits) + turns * TWO_PI
    assert quantize(phase, bits) == code
