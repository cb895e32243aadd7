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
class ElementStateTable:
    """The 2^b states of a b-bit element: phase (rad) and insertion loss (dB) per code.

    Entry i of each column is code i's, so the bit depth b is fixed by the
    columns' length.
    """

    phases: tuple[float, ...]  # rad
    losses_db: tuple[float, ...]

    def __post_init__(self):
        for name in ("phases", "losses_db"):  # a frozen copy: the caller's column may change
            object.__setattr__(self, name, tuple(float(value) for value in getattr(self, name)))
        n = len(self.phases)
        if n < 2 or n & (n - 1) or len(self.losses_db) != n:
            raise ValueError(f"state table needs a power-of-two count >= 2 of phases and as many "
                             f"losses, got {n} and {len(self.losses_db)}")
        for code, (phase, loss) in enumerate(zip(self.phases, self.losses_db)):
            if not math.isfinite(phase):
                raise ValueError(f"code {code} phase must be finite, got {phase}")
            if not loss >= 0.0:  # a magnitude 10^(-loss/20) in [0, 1]; NaN fails too
                raise ValueError(f"code {code} insertion loss must be >= 0 dB, got {loss}")

    @property
    def bits(self) -> int:
        return len(self.phases).bit_length() - 1

    def magnitudes(self) -> np.ndarray:
        return np.array([10.0 ** (-loss / 20.0) for loss in self.losses_db])

    def realized_phases(self) -> np.ndarray:
        return np.array(self.phases)

    @functools.cached_property
    def _coefficients(self) -> np.ndarray:
        """Gamma * exp(j phi) per code, built on the first read; read-only, as it is shared."""
        lut = self.magnitudes() * np.exp(1j * self.realized_phases())
        lut.flags.writeable = False
        return lut

    def mean_insertion_loss_db(self) -> float:
        return sum(self.losses_db) / len(self.losses_db)

    @classmethod
    def from_states(cls, entries: list[tuple[float, float]]) -> "ElementStateTable":
        """Build from (realized_phase_deg, insertion_loss_db) rows ordered by code."""
        return cls(tuple(math.radians(phase_deg) for phase_deg, _ in entries),
                   tuple(loss_db for _, loss_db in entries))

    @classmethod
    def ideal(cls, bits: int) -> "ElementStateTable":
        """Lossless table whose realized phases are the nominal grid code * 2 pi / 2^b."""
        step = nominal_phase_step(bits)
        return cls(tuple(i * step for i in range(1 << bits)), (0.0,) * (1 << bits))

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
        try:
            return cls.from_states([rows[i] for i in range(len(rows))])
        except ValueError as exc:
            raise ValueError(f"element table {path}: {exc}") from None


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

    Each code reads its state's magnitude and realized phase from ``table``;
    the result is a new array.
    """
    codes = np.asarray(codes)
    if codes.size and (codes.min() < 0 or codes.max() >= (1 << table.bits)):
        raise ValueError(f"codes outside [0, {1 << table.bits})")
    return table._coefficients[codes]
