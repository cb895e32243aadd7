"""Phase-code grids and their wire formats.

A code grid is an (Nx, Ny) integer array of b-bit codes, element (m, n) at
row m. What a code does is held by the element's state table and read by
:func:`rissim.elements.state_coefficients`, not here. The panel is driven
through per-element bias lines; for the 2-bit element each code maps to two
lines (the current-reversing pair and the 90-degree shifter), so a 16x16
panel serializes to 512 bits.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import UnsupportedConfigurationError
from .elements import nominal_phase_step

TWO_PI = 2.0 * math.pi


def quantize_phases(phases: np.ndarray, bits: int) -> np.ndarray:
    """Nearest feasible phase code per entry by circular distance; midpoint ties go down.

    The feasible phases are the 2^b multiples of 2 pi / 2^b; the circular
    quantization error therefore never exceeds pi / 2^b.
    """
    step = nominal_phase_step(bits)  # refuses bits < 1
    x = np.mod(np.asarray(phases, dtype=float), TWO_PI)
    return np.ceil(x / step - 0.5).astype(np.int64) % (1 << bits)


# Bias-line bit assignment for the 2-bit element, per element in code order:
# bit 0 drives the 180-degree current-reversing pair (code bit 1), bit 1 the
# 90-degree shifter (code bit 0). This is a serialization convention of this
# simulator, not a statement about any physical board's polarity.


def encode_bias_bitstream(codes: np.ndarray, bits: int) -> np.ndarray:
    """Serialize a grid of 2-bit codes to its 2N control bits, row-major."""
    if bits != 2:
        raise UnsupportedConfigurationError(
            f"bias bitstream is defined for 2-bit panels, got {bits}-bit"
        )
    flat = np.asarray(codes).reshape(-1)
    if flat.size and (flat.min() < 0 or flat.max() >= 4):
        raise ValueError("codes outside [0, 4)")
    lines = np.empty(2 * flat.size, dtype=np.uint8)
    lines[0::2] = (flat >> 1) & 1
    lines[1::2] = flat & 1
    return lines


def pack_bitstream(bits: np.ndarray) -> bytes:
    """Pack bits into bytes, first bit into the MSB of the first byte."""
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes()
