"""Free-space channel coefficients and received power through the panel.

The per-element channel on each side is sqrt(lambda G F / 4 pi) *
exp(-j 2 pi d / lambda) / d with d the exact element-to-endpoint distance.
Cascading both sides over all elements gives the received power

    P_r = P_t G F lambda^2 / (16 pi^2) *
          | sum_mn W_mn / (d^t_mn d^r_mn) exp(-j 2 pi (d^t_mn + d^r_mn) / lambda) |^2

of one (Nx, Ny) weight grid W_mn = Gamma_mn exp(j phi_mn), which the
caller forms as it does a radiation pattern's weights: a code grid is read
against its state table by :func:`rissim.elements.state_coefficients`. G is
the product of the four endpoint/panel-face gains and F the product of their
normalized power patterns. Both horns are modeled as boresighted on the
panel center, so only the two panel-face patterns contribute, each
evaluated at the endpoint's polar angle. The direct Tx-Rx path is not part
of this model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import ArrayGeometry, Pose, _weight_grid, exact_distances
from .units import db_to_linear, wavelength


def exponent_from_gain(gain_dbi: float) -> float:
    """Pattern exponent q of a cos^q power pattern with directivity 2(q+1)."""
    if not math.isfinite(gain_dbi):
        raise ValueError(f"gain must be finite, got {gain_dbi} dBi")
    q = db_to_linear(gain_dbi) / 2.0 - 1.0
    if q < 0:
        raise ValueError(f"gain {gain_dbi} dBi is below the hemispheric minimum (3.01 dBi)")
    return q


def cos_power_pattern(angle: float, exponent: float) -> float:
    """Normalized power pattern cos^q(angle) of one angle, zero beyond 90 degrees."""
    if exponent < 0:
        raise ValueError(f"pattern exponent must be >= 0, got {exponent}")
    return max(math.cos(angle), 0.0) ** exponent


@dataclass(frozen=True)
class GainProfile:
    """Endpoint and panel-face gains (dBi); each cos^q exponent follows from its gain.

    ``ris_rx_side`` is the panel face illuminated by the transmitter,
    ``ris_tx_side`` the face radiating toward the receiver. The exponents
    ``q_tx`` .. ``q_ris_tx_side`` are derived at construction by
    :func:`exponent_from_gain`; a gain it refuses raises naming the field.
    """

    tx_gain_dbi: float
    rx_gain_dbi: float
    ris_rx_side_gain_dbi: float
    ris_tx_side_gain_dbi: float
    q_tx: float = field(init=False)
    q_rx: float = field(init=False)
    q_ris_rx_side: float = field(init=False)
    q_ris_tx_side: float = field(init=False)

    def __post_init__(self):
        for side in ("tx", "rx", "ris_rx_side", "ris_tx_side"):
            name = f"{side}_gain_dbi"
            try:
                object.__setattr__(self, f"q_{side}", exponent_from_gain(getattr(self, name)))
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None

    def total_gain_linear(self) -> float:
        return db_to_linear(
            self.tx_gain_dbi
            + self.rx_gain_dbi
            + self.ris_rx_side_gain_dbi
            + self.ris_tx_side_gain_dbi
        )

    def panel_pattern_factor(self, tx: Pose, rx: Pose) -> float:
        """F of the panel link: both face patterns at their endpoint's polar angle."""
        return (cos_power_pattern(tx.polar, self.q_ris_rx_side)
                * cos_power_pattern(rx.polar, self.q_ris_tx_side))


def _cascade_prefactor(
    tx_power_w: float, carrier_hz: float, profile: GainProfile, tx: Pose, rx: Pose
) -> float:
    """P_t G F lambda^2 / (16 pi^2): the power scale of the cascaded panel link."""
    g = profile.total_gain_linear()
    f = profile.panel_pattern_factor(tx, rx)
    return tx_power_w * g * f * wavelength(carrier_hz) ** 2 / (16.0 * math.pi**2)


def _path_vector(carrier_hz: float, geom: ArrayGeometry, tx: Pose, rx: Pose) -> np.ndarray:
    """(Nx, Ny) cascade path terms exp(-j 2 pi (d^t + d^r) / lambda) / (d^t d^r)."""
    lam = wavelength(carrier_hz)
    dt = exact_distances(tx, geom)
    dr = exact_distances(rx, geom)
    return np.exp(-2j * math.pi * (dt + dr) / lam) / (dt * dr)


def feed_illuminations(
    feed: Pose, geom: ArrayGeometry, carrier_hz: float, exponent: float
) -> np.ndarray:
    """(Nx, Ny) excitation grid from a feed horn boresighted on the panel center.

    Amplitude is cos^q(psi) / d with psi the angle at the feed between its
    boresight and the element and d the exact feed-to-element distance; the
    phase is the spherical propagation term exp(-j 2 pi d / lambda).
    """
    if feed.z <= 0:
        raise ValueError("feed must be in front of the panel (z > 0)")
    if exponent < 0:
        raise ValueError(f"feed exponent must be >= 0, got {exponent}")
    lam = wavelength(carrier_hz)
    xe, ye = geom.element_grid()
    d = exact_distances(feed, geom)
    # cos(psi) = (boresight unit vector) . (feed-to-element unit vector)
    bore = -np.array([feed.x, feed.y, feed.z]) / feed.range
    cos_psi = (
        bore[0] * (xe - feed.x) + bore[1] * (ye - feed.y) + bore[2] * (0.0 - feed.z)
    ) / d
    cos_psi = np.clip(cos_psi, 0.0, 1.0)
    return cos_psi**exponent * np.exp(-2j * math.pi * d / lam) / d


def received_power(
    tx_power_w: float,
    carrier_hz: float,
    profile: GainProfile,
    geom: ArrayGeometry,
    weights: np.ndarray,
    tx: Pose,
    rx: Pose,
) -> float:
    """Received power (W) of the panel link for the (Nx, Ny) weight grid W = Gamma exp(j phi).

    Summation order is fixed, so results are deterministic.
    """
    if tx_power_w < 0:
        raise ValueError(f"transmit power must be >= 0, got {tx_power_w}")
    with np.errstate(invalid="ignore"):  # a non-finite W is refused below, naming its field sum
        total = abs(np.sum(_weight_grid(weights, geom) * _path_vector(carrier_hz, geom, tx, rx)))
    if not math.isfinite(total):
        raise ValueError(f"weight grid must be finite: its field sum has magnitude {total}")
    return _cascade_prefactor(tx_power_w, carrier_hz, profile, tx, rx) * total ** 2


def coherent_power_bound(
    tx_power_w: float,
    carrier_hz: float,
    profile: GainProfile,
    geom: ArrayGeometry,
    tx: Pose,
    rx: Pose,
) -> float:
    """Fully coherent upper bound: every element phased so terms add in phase.

    Equals :func:`received_power` of W = exp(j phi) with phi the
    continuous-optimal phase grid; closed form
    P_t G F lambda^2 / (16 pi^2) (sum 1 / (d^t d^r))^2.
    """
    total = np.sum(np.abs(_path_vector(carrier_hz, geom, tx, rx)))
    return _cascade_prefactor(tx_power_w, carrier_hz, profile, tx, rx) * float(total) ** 2
