"""Behavioral model of the b-bit switchable element.

Each phase code maps to a complex transmission coefficient read from one
state table: the per-state magnitude and phase. A run's element mode is
resolved to that table once, where the mode is read (:func:`code_table`).
``nominal`` is the ideal table: unit magnitude at the exact grid phase
code * pi / 2^(b-1). ``realized`` is measured/simulated per-state data, the
default being the bundled 2-bit element characterization at its 26.5 GHz
design frequency (treated as flat across the element's 3-dB band).
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

Mode = str  # "nominal" | "realized"

_MODES = ("nominal", "realized")


def nominal_phase_step(bits: int) -> float:
    """Grid spacing of the feasible phase set: 2 pi / 2^b."""
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    return 2.0 * math.pi / (1 << bits)


@dataclass(frozen=True)
class ElementState:
    """One switchable state: code, realized phase, insertion loss."""

    code: int
    realized_phase: float  # rad
    insertion_loss_db: float

    @property
    def magnitude(self) -> float:
        """Transmission magnitude in [0, 1] from the insertion loss."""
        return 10.0 ** (-self.insertion_loss_db / 20.0)


@dataclass(frozen=True)
class ElementStateTable:
    """The 2^b states of a b-bit element, ordered by code."""

    bits: int
    states: tuple[ElementState, ...]

    def __post_init__(self):
        if self.bits < 1:
            raise ValueError(f"bits must be >= 1, got {self.bits}")
        expected = 1 << self.bits
        if len(self.states) != expected:
            raise ValueError(
                f"{self.bits}-bit table needs {expected} states, got {len(self.states)}"
            )
        for i, st in enumerate(self.states):
            if st.code != i:
                raise ValueError(f"states must be ordered by code; index {i} has code {st.code}")
            if not (0.0 <= st.magnitude <= 1.0):
                raise ValueError(f"code {i} magnitude {st.magnitude} outside [0, 1]")

    def magnitudes(self) -> np.ndarray:
        return np.array([s.magnitude for s in self.states])

    def realized_phases(self) -> np.ndarray:
        return np.array([s.realized_phase for s in self.states])

    def mean_insertion_loss_db(self) -> float:
        return sum(s.insertion_loss_db for s in self.states) / len(self.states)

    @classmethod
    def from_states(cls, entries: list[tuple[float, float]]) -> "ElementStateTable":
        """Build from (realized_phase_deg, insertion_loss_db) rows ordered by code."""
        n = len(entries)
        bits = n.bit_length() - 1
        if n < 2 or (1 << bits) != n:
            raise ValueError(f"state count must be a power of two >= 2, got {n}")
        states = tuple(
            ElementState(code=i, realized_phase=math.radians(phase_deg), insertion_loss_db=loss_db)
            for i, (phase_deg, loss_db) in enumerate(entries)
        )
        return cls(bits=bits, states=states)

    @classmethod
    def ideal(cls, bits: int) -> "ElementStateTable":
        """Lossless table whose realized phases are the nominal grid code * 2 pi / 2^b."""
        step = nominal_phase_step(bits)
        return cls(
            bits=bits,
            states=tuple(
                ElementState(code=i, realized_phase=i * step, insertion_loss_db=0.0)
                for i in range(1 << bits)
            ),
        )

    @classmethod
    def from_csv(cls, path: str | Path) -> "ElementStateTable":
        """Load a table from CSV with columns code, phase_deg, loss_db."""
        rows: dict[int, tuple[float, float]] = {}
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            required = {"code", "phase_deg", "loss_db"}
            if reader.fieldnames is None or not required.issubset(reader.fieldnames):
                raise ValueError(f"element table {path} must have columns {sorted(required)}")
            for row in reader:
                code = int(row["code"])
                if code in rows:
                    raise ValueError(f"duplicate code {code} in {path}")
                rows[code] = (float(row["phase_deg"]), float(row["loss_db"]))
        if sorted(rows) != list(range(len(rows))):
            raise ValueError(f"codes in {path} must be exactly 0..{len(rows) - 1}")
        return cls.from_states([rows[i] for i in range(len(rows))])


@functools.cache
def default_element_table() -> ElementStateTable:
    """Bundled 2-bit element behavior (insertion loss, phase at 26.5 GHz); one frozen table."""
    return ElementStateTable.from_states(
        [
            (-141.2, 1.1),  # state 0deg
            (-56.8, 1.3),  # state 90deg
            (34.9, 1.1),  # state 180deg
            (129.0, 1.5),  # state 270deg
        ]
    )


def code_table(bits: int, mode: Mode, table: ElementStateTable | None = None) -> ElementStateTable:
    """The one state table a run's b-bit codes are read against, from its element mode.

    ``nominal`` gives the ideal table of the codes' own 2^b phases;
    ``realized`` gives ``table``, or the bundled element when none is given,
    and refuses one whose bit depth is not the codes'.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    if mode == "nominal":
        return ElementStateTable.ideal(bits)
    table = table or default_element_table()
    if table.bits != bits:
        raise ValueError(f"{bits}-bit codes cannot be read against a {table.bits}-bit state table")
    return table


def state_coefficients(table: ElementStateTable, codes: np.ndarray) -> np.ndarray:
    """Complex transmission coefficients Gamma * exp(j phi) of an integer code array.

    Each code reads its state's magnitude and realized phase from ``table``.
    """
    codes = np.asarray(codes)
    if codes.size and (codes.min() < 0 or codes.max() >= (1 << table.bits)):
        raise ValueError(f"codes outside [0, {1 << table.bits})")
    lut = table.magnitudes() * np.exp(1j * table.realized_phases())
    return lut[codes]
