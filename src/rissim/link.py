"""End-to-end scenario evaluation: received power, SNR, and data rate.

Two link types are modeled. Without the panel, the Tx and Rx horns see each
other directly through a Friis link, including any pattern misalignment when
the transmitter sits off the panel axis (both horns stay boresighted on the
panel center). With the panel, the link is the per-element cascade of
:mod:`rissim.channel` driven by a codebook synthesized for the scenario's
endpoint poses, and the direct path is ignored. Both endpoints are points at
a finite range, so the codebook phases each by its exact element distances,
however far it sits.

Endpoint poses are face-local: each side's coordinates are relative to the
panel face it illuminates, with z positive away from that face. The direct
Tx-Rx separation therefore mirrors the receiver through the panel plane.

An obstacle attenuates, once, every path that crosses it: always the direct
link, plus the panel hop on whichever side it sits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .beams import synthesize_codebook
from .channel import GainProfile, cos_power_pattern, received_power
from .elements import ElementStateTable, code_table, state_coefficients
from .errors import InfeasibleTargetError
from .geometry import ArrayGeometry, Pose, _require_finite
from .units import dbm_to_watts, watts_to_dbm, wavelength

THERMAL_NOISE_DBM_PER_HZ = -174.0
MAX_TRANSMIT_POWER_DBM = 60.0
TRANSMIT_POWER_STEP_DB = 0.1
MIN_TRANSMIT_POWER_DBM = -100.0
DEFAULT_OBSTACLE_ATTENUATION_DB = 25.0

_OBSTACLE_POSITIONS = ("tx_side", "rx_side")


@dataclass(frozen=True)
class Obstacle:
    """A blocking slab between one endpoint and the panel."""

    attenuation_db: float = DEFAULT_OBSTACLE_ATTENUATION_DB
    position: str = "tx_side"

    def __post_init__(self):
        if not (math.isfinite(self.attenuation_db) and self.attenuation_db >= 0):
            raise ValueError(f"attenuation_db must be finite and >= 0, got {self.attenuation_db}")
        if self.position not in _OBSTACLE_POSITIONS:
            raise ValueError(f"position must be one of {_OBSTACLE_POSITIONS}")


@dataclass(frozen=True)
class MCSRow:
    min_snr_db: float
    rate_mbps: float
    label: str = ""

    def __post_init__(self):
        _require_finite(min_snr_db=self.min_snr_db, rate_mbps=self.rate_mbps)


@dataclass(frozen=True)
class MCSTable:
    """Monotone SNR-threshold-to-rate steps, with an implicit (-inf, 0) floor."""

    rows: tuple[MCSRow, ...]

    def __post_init__(self):
        if not self.rows:
            raise ValueError("MCS table needs at least one row")
        for prev, cur in zip(self.rows, self.rows[1:]):
            if cur.min_snr_db <= prev.min_snr_db or cur.rate_mbps <= prev.rate_mbps:
                raise ValueError("MCS rows must be strictly increasing in SNR and rate")
        if self.rows[0].rate_mbps <= 0:
            raise ValueError("MCS rates must be positive (the zero-rate floor is implicit)")

    def rate_for_snr(self, snr_db: float) -> float:
        rate = 0.0
        for row in self.rows:
            if snr_db >= row.min_snr_db:
                rate = row.rate_mbps
            else:
                break
        return rate

    def threshold_for_rate(self, rate_mbps: float) -> float:
        for row in self.rows:
            if row.rate_mbps == rate_mbps:
                return row.min_snr_db
        raise ValueError(f"rate {rate_mbps} Mbps is not a row of this MCS table")


@dataclass(frozen=True)
class LinkScenario:
    """One operating point: powers, geometry, gains, obstacle, and MCS map."""

    transmit_power_dbm: float
    carrier_hz: float
    bandwidth_hz: float
    gains: GainProfile
    tx_pose: Pose
    rx_pose: Pose
    mcs: MCSTable
    noise_figure_db: float = 0.0
    ris_present: bool = True
    obstacle: Obstacle | None = None
    name: str = ""
    expected_rate_mbps: float | None = None

    def __post_init__(self):
        _require_finite(transmit_power_dbm=self.transmit_power_dbm, carrier_hz=self.carrier_hz,
                        bandwidth_hz=self.bandwidth_hz, noise_figure_db=self.noise_figure_db)
        for name in ("carrier_hz", "bandwidth_hz"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.tx_pose.range <= 0 or self.rx_pose.range <= 0:
            raise ValueError("endpoint poses must have positive range")

    @property
    def tx_steer_angle_deg(self) -> float:
        """Polar angle of the transmitter off the panel normal, in degrees."""
        return math.degrees(self.tx_pose.polar)


@dataclass(frozen=True)
class LinkResult:
    received_power_dbm: float
    snr_db: float
    rate_mbps: float


def noise_power(bandwidth_hz: float, noise_figure_db: float) -> float:
    """Thermal noise floor in dBm: -174 + 10 log10(BW) + NF."""
    if bandwidth_hz <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_hz}")
    return THERMAL_NOISE_DBM_PER_HZ + 10.0 * math.log10(bandwidth_hz) + noise_figure_db


def direct_received_power_w(scenario: LinkScenario) -> float:
    """Friis power of the horn-to-horn link, with pattern misalignment.

    Both horns are boresighted on the panel center; each contributes its
    cos^q power pattern evaluated at the angle between that boresight and
    the line between the horns.
    """
    tx, rx = scenario.tx_pose, scenario.rx_pose
    # Tx-to-Rx separation, with the receiver mirrored through the panel plane
    sx, sy, sz = rx.x - tx.x, rx.y - tx.y, -rx.z - tx.z
    d = math.hypot(sx, sy, sz)
    if d <= 0:
        raise ValueError("transmitter and receiver coincide")
    lam = wavelength(scenario.carrier_hz)
    # each boresight points from its horn to the panel center
    cos_tx = -(tx.x * sx + tx.y * sy + tx.z * sz) / (math.hypot(tx.x, tx.y, tx.z) * d)
    cos_rx = (rx.x * sx + rx.y * sy - rx.z * sz) / (math.hypot(rx.x, rx.y, rx.z) * d)
    angle_tx = math.acos(min(max(cos_tx, -1.0), 1.0))
    angle_rx = math.acos(min(max(cos_rx, -1.0), 1.0))
    g = scenario.gains
    pattern = cos_power_pattern(angle_tx, g.q_tx) * cos_power_pattern(angle_rx, g.q_rx)
    p_tx = dbm_to_watts(scenario.transmit_power_dbm)
    gain = 10.0 ** ((g.tx_gain_dbi + g.rx_gain_dbi) / 10.0)
    return p_tx * gain * pattern * (lam / (4.0 * math.pi * d)) ** 2


def _obstacle_factor(scenario: LinkScenario) -> float:
    if scenario.obstacle is None:
        return 1.0
    return 10.0 ** (-scenario.obstacle.attenuation_db / 10.0)


def evaluate_scenario(
    scenario: LinkScenario,
    geom: ArrayGeometry,
    bits: int,
    *,
    table: ElementStateTable | None = None,
) -> LinkResult:
    """Received power, SNR, and achievable rate for one scenario.

    With the panel present, a codebook is synthesized for the scenario's
    poses, each phased by its exact element distances, and read against
    ``table``, the bundled realized element when none is given, whose bit
    depth must be ``bits``; the obstacle, if any, attenuates the panel hop
    on its side. Without the panel the direct Friis link is used and the
    obstacle always applies.
    """
    table = code_table(bits, "realized", table)
    if scenario.ris_present:
        codes = synthesize_codebook(scenario.tx_pose, scenario.rx_pose, geom,
                                    scenario.carrier_hz, bits)
        p_w = received_power(
            dbm_to_watts(scenario.transmit_power_dbm),
            scenario.carrier_hz,
            scenario.gains,
            geom,
            state_coefficients(table, codes),
            scenario.tx_pose,
            scenario.rx_pose,
        )
        p_w *= _obstacle_factor(scenario)
    else:
        p_w = direct_received_power_w(scenario) * _obstacle_factor(scenario)
    if p_w <= 0:
        return LinkResult(received_power_dbm=-math.inf, snr_db=-math.inf, rate_mbps=0.0)
    p_dbm = watts_to_dbm(p_w)
    snr = p_dbm - noise_power(scenario.bandwidth_hz, scenario.noise_figure_db)
    return LinkResult(
        received_power_dbm=p_dbm,
        snr_db=snr,
        rate_mbps=scenario.mcs.rate_for_snr(snr),
    )


def required_transmit_power(
    scenario: LinkScenario,
    geom: ArrayGeometry,
    bits: int,
    target_rate_mbps: float,
    *,
    table: ElementStateTable | None = None,
) -> float:
    """Minimum transmit power (dBm, on the 0.1 dB step grid) reaching the rate.

    Received power is linear in transmit power on both link types, so the
    SNR in dB is exactly ``p + c``. One evaluation of the scenario at its
    own power gives ``c`` as its SNR less that power; the answer is
    ``threshold - c`` rounded up to the next multiple of
    ``TRANSMIT_POWER_STEP_DB``, and never below ``MIN_TRANSMIT_POWER_DBM``.
    Raises :class:`InfeasibleTargetError` if even the +60 dBm cap falls short.
    """
    threshold = scenario.mcs.threshold_for_rate(target_rate_mbps)
    snr_db = evaluate_scenario(scenario, geom, bits, table=table).snr_db
    minimum = threshold - (snr_db - scenario.transmit_power_dbm)
    if minimum > MAX_TRANSMIT_POWER_DBM:  # +inf when the link carries no power
        raise InfeasibleTargetError(
            f"rate {target_rate_mbps} Mbps unreachable at {MAX_TRANSMIT_POWER_DBM} dBm"
        )
    step = TRANSMIT_POWER_STEP_DB
    return max(math.ceil(minimum / step) * step, MIN_TRANSMIT_POWER_DBM)

