"""Phase-code grids and their wire formats.

A configuration is an (Nx, Ny) grid of b-bit integer codes. What a code
does is held by the element's state table and read by
:func:`rissim.elements.state_coefficients`, not here. The panel is driven
through per-element bias lines; for the 2-bit element each code maps to two
lines (the current-reversing pair and the 90-degree shifter), so a 16x16
panel serializes to 512 bits.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import UnsupportedConfigurationError
from .geometry import ArrayGeometry
from .elements import nominal_phase_step

TWO_PI = 2.0 * math.pi


def quantize_phases(phases: np.ndarray, bits: int) -> np.ndarray:
    """Nearest feasible phase code per entry by circular distance; midpoint ties go down.

    The feasible phases are the 2^b multiples of 2 pi / 2^b; the circular
    quantization error therefore never exceeds pi / 2^b.
    """
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    step = nominal_phase_step(bits)
    x = np.mod(np.asarray(phases, dtype=float), TWO_PI)
    return np.ceil(x / step - 0.5).astype(np.int64) % (1 << bits)


@dataclass(frozen=True)
class RISConfiguration:
    """An (Nx, Ny) grid of b-bit phase codes bound to a panel geometry."""

    geom: ArrayGeometry
    bits: int
    codes: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.bits < 1:
            raise ValueError(f"bits must be >= 1, got {self.bits}")
        codes = np.asarray(self.codes, dtype=np.int64)
        if codes.shape != (self.geom.num_x, self.geom.num_y):
            raise ValueError(
                f"code grid shape {codes.shape} does not match panel "
                f"({self.geom.num_x}, {self.geom.num_y})"
            )
        if codes.size and (codes.min() < 0 or codes.max() >= (1 << self.bits)):
            raise ValueError(f"codes outside [0, {1 << self.bits})")
        codes = codes.copy()
        codes.flags.writeable = False
        object.__setattr__(self, "codes", codes)

    @classmethod
    def uniform(cls, geom: ArrayGeometry, bits: int, code: int = 0) -> "RISConfiguration":
        return cls(geom=geom, bits=bits, codes=np.full((geom.num_x, geom.num_y), code))

    def to_csv(self, path: str | Path) -> None:
        """Write the integer code grid, one panel row (fixed m) per line."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"code_n{n}" for n in range(self.geom.num_y)])
            for m in range(self.geom.num_x):
                writer.writerow([int(c) for c in self.codes[m]])


# Bias-line bit assignment for the 2-bit element, per element in code order:
# bit 0 drives the 180-degree current-reversing pair (code bit 1), bit 1 the
# 90-degree shifter (code bit 0). This is a serialization convention of this
# simulator, not a statement about any physical board's polarity.


def encode_bias_bitstream(config: RISConfiguration) -> np.ndarray:
    """Serialize a 2-bit configuration to its 2N control bits, row-major."""
    if config.bits != 2:
        raise UnsupportedConfigurationError(
            f"bias bitstream is defined for 2-bit panels, got {config.bits}-bit"
        )
    flat = config.codes.reshape(-1)
    bits = np.empty(2 * flat.size, dtype=np.uint8)
    bits[0::2] = (flat >> 1) & 1
    bits[1::2] = flat & 1
    return bits


def pack_bitstream(bits: np.ndarray) -> bytes:
    """Pack bits into bytes, first bit into the MSB of the first byte."""
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes()
