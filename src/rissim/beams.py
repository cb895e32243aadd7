"""Codebook synthesis: continuous-optimal phases, quantization, and oracles.

The power-maximizing element phase is C + 2 pi (d^t + d^r) / lambda (mod
2 pi) for an arbitrary constant C. Each side's distance model is selectable:
``spherical`` (exact), ``planar`` (far-field expansion), or ``auto``, which
picks planar when the endpoint range reaches the Fraunhofer distance.
Distances enter relative to the panel-center path, so a far-field broadside
pair maps to phase C exactly; the dropped constant shifts every element
equally and cancels in the received power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import GainProfile, coherent_power_bound, received_power, unity_gain_profile
from .codebook import RISConfiguration, quantize_phases
from .elements import ElementStateTable, Mode, nominal_phase_step, state_coefficients
from .errors import SearchSpaceError
from .geometry import (
    ArrayGeometry,
    Pose,
    exact_distances,
    fraunhofer_distance,
    planar_distances,
)
from .units import wavelength

TWO_PI = 2.0 * math.pi

_MODELS = ("auto", "spherical", "planar")

ORACLE_SEARCH_CAP = 1 << 20

_LOSS_SWEEP_SAMPLES = 16


@dataclass(frozen=True)
class BeamSpec:
    """Endpoint pair, per-side wavefront models, and the free phase constant."""

    tx: Pose
    rx: Pose
    tx_model: str = "auto"
    rx_model: str = "auto"
    phase_offset: float = 0.0

    def __post_init__(self):
        if self.tx_model not in _MODELS or self.rx_model not in _MODELS:
            raise ValueError(f"wavefront models must be one of {_MODELS}")
        object.__setattr__(self, "phase_offset", self.phase_offset % TWO_PI)

    def with_offset(self, phase_offset: float) -> "BeamSpec":
        return BeamSpec(self.tx, self.rx, self.tx_model, self.rx_model, phase_offset)


def resolve_model(pose: Pose, model: str, geom: ArrayGeometry, carrier_hz: float) -> str:
    """Apply the auto rule: planar at or beyond the Fraunhofer distance."""
    if model not in _MODELS:
        raise ValueError(f"wavefront model must be one of {_MODELS}")
    if model != "auto":
        return model
    return "planar" if pose.range >= fraunhofer_distance(geom, carrier_hz) else "spherical"


def _relative_distances(pose: Pose, model: str, geom: ArrayGeometry, carrier_hz: float) -> np.ndarray:
    """Per-element path length minus the center path length, per the side's model."""
    resolved = resolve_model(pose, model, geom, carrier_hz)
    if resolved == "planar":
        return planar_distances(pose, geom) - pose.range
    return exact_distances(pose, geom) - pose.range


def optimal_phases(spec: BeamSpec, geom: ArrayGeometry, carrier_hz: float) -> np.ndarray:
    """(Nx, Ny) grid of continuous power-maximizing phases in [0, 2 pi)."""
    lam = wavelength(carrier_hz)
    dt = _relative_distances(spec.tx, spec.tx_model, geom, carrier_hz)
    dr = _relative_distances(spec.rx, spec.rx_model, geom, carrier_hz)
    return (spec.phase_offset + TWO_PI * (dt + dr) / lam) % TWO_PI


def synthesize_codebook(
    spec: BeamSpec, geom: ArrayGeometry, carrier_hz: float, bits: int
) -> RISConfiguration:
    """Quantize the continuous-optimal phase grid onto the b-bit code grid."""
    codes = quantize_phases(optimal_phases(spec, geom, carrier_hz), bits)
    return RISConfiguration(geom=geom, bits=bits, codes=codes)


def sweep_phase_offset(
    spec: BeamSpec,
    geom: ArrayGeometry,
    carrier_hz: float,
    bits: int,
    *,
    profile: GainProfile | None = None,
    table: ElementStateTable | None = None,
    mode: Mode = "nominal",
    tx_power_w: float = 1.0,
    samples: int = 16,
) -> tuple[RISConfiguration, float, float]:
    """Best quantized codebook over a sweep of the phase constant C.

    Sweeps C over one quantizer period [0, 2 pi / 2^b) and returns the
    configuration with maximum received power, that power, and the winning C.
    """
    if samples < 1:
        raise ValueError(f"need at least one sweep sample, got {samples}")
    profile = profile or unity_gain_profile()
    table = table or ElementStateTable.ideal(bits)
    best: tuple[RISConfiguration, float, float] | None = None
    for offset in np.linspace(0.0, nominal_phase_step(bits), samples, endpoint=False):
        config = synthesize_codebook(spec.with_offset(spec.phase_offset + offset), geom, carrier_hz, bits)
        p = received_power(
            tx_power_w, carrier_hz, profile, geom, config, spec.tx, spec.rx,
            table=table, mode=mode,
        )
        if best is None or p > best[1]:
            best = (config, p, float(offset))
    assert best is not None
    return best


def exhaustive_oracle(
    spec: BeamSpec,
    geom: ArrayGeometry,
    carrier_hz: float,
    bits: int,
    *,
    profile: GainProfile | None = None,
    table: ElementStateTable | None = None,
    mode: Mode = "nominal",
    tx_power_w: float = 1.0,
) -> tuple[RISConfiguration, float]:
    """Brute-force argmax of received power over every possible code grid.

    Enumerates lexicographically with element (0, 0) as the most significant
    digit, so argmax ties resolve to the lexicographically smallest grid.
    """
    n = geom.num_elements
    n_states = 1 << bits
    if n_states**n > ORACLE_SEARCH_CAP:
        raise SearchSpaceError(
            f"{n_states}^{n} code grids exceed the {ORACLE_SEARCH_CAP} search cap"
        )
    profile = profile or unity_gain_profile()
    table = table or ElementStateTable.ideal(bits)
    lam = wavelength(carrier_hz)
    dt = exact_distances(spec.tx, geom).reshape(-1)
    dr = exact_distances(spec.rx, geom).reshape(-1)
    path = np.exp(-2j * math.pi * (dt + dr) / lam) / (dt * dr)
    lut = state_coefficients(table, np.arange(n_states), mode)
    total_configs = n_states**n
    # enumerate all grids: digit i of each config index selects element i's code
    field = np.zeros(total_configs, dtype=complex)
    idx = np.arange(total_configs)
    for i in range(n):
        digit = (idx // (n_states ** (n - 1 - i))) % n_states
        field += lut[digit] * path[i]
    best = int(np.argmax(np.abs(field)))
    codes = np.array(
        [(best // (n_states ** (n - 1 - i))) % n_states for i in range(n)]
    ).reshape(geom.num_x, geom.num_y)
    config = RISConfiguration(geom=geom, bits=bits, codes=codes)
    g = profile.total_gain_linear()
    f = profile.panel_pattern_factor(spec.tx, spec.rx)
    power = tx_power_w * g * f * lam**2 / (16.0 * math.pi**2) * float(np.abs(field[best])) ** 2
    return config, power


def quantization_loss(geom: ArrayGeometry, spec: BeamSpec, carrier_hz: float, bits: int) -> float:
    """Power lost to b-bit phasing, in dB, best case over the free constant C.

    Ratio of the fully coherent (continuous-phase) power to the best
    quantized power found over a 16-point C sweep. Ideal unit element
    magnitude on both sides, so endpoint gains cancel and the result depends
    only on geometry and the phase grid.
    """
    profile = unity_gain_profile()
    _, best_power, _ = sweep_phase_offset(
        spec, geom, carrier_hz, bits,
        profile=profile, table=ElementStateTable.ideal(bits), mode="nominal",
        samples=_LOSS_SWEEP_SAMPLES,
    )
    bound = coherent_power_bound(1.0, carrier_hz, profile, geom, spec.tx, spec.rx)
    return 10.0 * math.log10(bound / best_power)


def uniform_phase_loss_db(bits: int) -> float:
    """Closed-form b-bit loss when phase errors are uniform over one quantizer cell.

    -20 log10(sin(x) / x) with x = pi / 2^b, the half-width of the cell;
    0.912 dB at b = 2.
    """
    x = nominal_phase_step(bits) / 2.0
    return -20.0 * math.log10(math.sin(x) / x)
