"""Array-theory radiation patterns and their figures of merit.

The far-field field in direction (theta, phi) is

    E = cos^gamma(theta) * sum_mn A_mn Gamma_mn exp(j phi_mn)
                                  exp(j k (x_mn u + y_mn v))

with u = sin(theta) cos(phi), v = sin(theta) sin(phi), A_mn the feed
illumination (taper, spreading, and spherical phase), and cos^gamma(theta)
the single-element field factor (gamma = 0 gives the bare array factor).
Only the forward hemisphere is modeled. Every pattern is sampled from the
element weights W_mn = A_mn Gamma_mn exp(j phi_mn), formed by the caller.

On the uniform grid x_mn = delta_m dx, y_mn = delta_n dy the phase term
factors, exp(j k (x_m u + y_n v)) = a_m(u) b_n(v), so the array sum is the
bilinear form a(u)^T W b(v), one (Nx + Ny)-term pair of steering rows per
direction in place of Nx Ny exponentials. The rows do not depend on W, so
they are built once per (panel, carrier, grid) in a process and are read-only.

The power radiated into the hemisphere is a quadratic form in W, not a
sampled integral: |F|^2 = sum_l R(l) exp(j k l . u_hat), with R(l) the
autocorrelation of W at the element lag l = (i dx, j dy), so

    P_rad = sum_l R(l) K(l),  K(l) = 2 pi int_0^1 mu^(2 gamma) J0(k |l| sqrt(1 - mu^2)) dmu

with mu = cos(theta); the azimuth integral of exp(j k l . u_hat) is 2 pi J0.
Over element pairs it is w^H K w, w the flattened W and K the real symmetric
matrix of K at each pair's lag (Van Trees, Optimum Array Processing, 2.6),
built once per panel, carrier and gamma; K = 2 pi sin(k rho) / (k rho) at
gamma = 0, 2 pi j1(k rho) / (k rho) at gamma = 1 (Watson, Bessel Functions, 12.11).
For any gamma, Poisson's integral for J_(gamma + 1/2) makes K one mean,
K = 2 pi / (2 gamma + 1) E[cos(k rho t)] under the weight (1 - t^2)^gamma on
[-1, 1], which the Gauss-Gegenbauer rule of that weight evaluates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from .errors import MetricUndefinedError
from .geometry import ArrayGeometry, _weight_grid
from .units import db_to_linear, wavelength

DEFAULT_CUT_STEP_DEG = 0.25

# The lag kernel's Gauss-Gegenbauer rule takes k rho / 2 nodes, rho the largest lag, plus this
# many times (k rho + 1)^(1/3). The n-node rule is exact to degree 2 n - 1, and the Chebyshev
# terms J_m(k rho) of cos(k rho t) die out within a few (k rho)^(1/3) past m = k rho: about
# five reach rounding level, and eight keep K within 2e-14 of K(0) for k rho from 0 to 5,600.
_KERNEL_MARGIN = 8.0

PLANE_AZIMUTHS = {"E": 0.0, "H": math.pi / 2.0}


@dataclass(frozen=True)
class RadiationPattern:
    """Complex field sampled on a (theta, phi) direction grid.

    ``theta`` may be signed for principal cuts (negative theta means the
    mirrored azimuth phi + pi). ``field`` is indexed [theta, phi]. The
    arrays are stored as read-only views of those given, not copies. The
    direction grids are checked where they are sampled, in
    :func:`radiation_pattern`.
    """

    theta: np.ndarray  # rad
    phi: np.ndarray  # rad
    field: np.ndarray  # complex, shape (len(theta), len(phi))

    def __post_init__(self):
        theta, phi = np.asarray(self.theta, dtype=float), np.asarray(self.phi, dtype=float)
        field = np.asarray(self.field, dtype=complex)
        if field.shape != (theta.size, phi.size):
            raise ValueError(f"field shape {field.shape} != ({theta.size}, {phi.size})")
        for name, arr in (("theta", theta), ("phi", phi), ("field", field)):
            arr = arr.view()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @cached_property
    def power(self) -> np.ndarray:
        power = np.abs(self.field) ** 2
        power.flags.writeable = False
        return power

    def is_cut(self) -> bool:
        return self.phi.size == 1

    def with_element_factor(self, element_exponent: float) -> "RadiationPattern":
        """This field times the single-element factor cos^gamma(theta).

        On an array-factor pattern (gamma = 0) this gives the same field as
        evaluating the pattern again with ``element_exponent``.
        """
        return RadiationPattern(
            theta=self.theta, phi=self.phi,
            field=self.field * _element_factor(self.theta, element_exponent),
        )


def _checked_exponent(element_exponent: float) -> float:
    """The single-element exponent gamma, which must be finite and >= 0."""
    if not (math.isfinite(element_exponent) and element_exponent >= 0):
        raise ValueError(f"element exponent must be finite and >= 0, got {element_exponent}")
    return element_exponent


def _element_factor(theta: np.ndarray, element_exponent: float) -> np.ndarray:
    """The (len(theta), 1) column cos^gamma(theta) of the single-element field."""
    return np.cos(theta)[:, None] ** _checked_exponent(element_exponent)


def radiation_pattern(
    weights: np.ndarray,
    geom: ArrayGeometry,
    carrier_hz: float,
    *,
    element_exponent: float = 1.0,
    theta: np.ndarray,
    phi: np.ndarray,
) -> RadiationPattern:
    """Sample the array-theory field of the (Nx, Ny) weight grid W on a direction grid.

    ``element_exponent`` (gamma) is the single-element field factor
    cos^gamma(theta). The field is the bilinear form a(u)^T W b(v) times that
    factor; the steering rows a and b are built once per (panel, carrier,
    grid) and are read-only.
    """
    theta, phi = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    if theta.ndim != 1 or phi.ndim != 1:  # before tobytes() flattens the grid
        raise ValueError("theta and phi must be non-empty 1-D grids")
    theta, phi, x, y = _steering_rows(geom, carrier_hz, theta.tobytes(), phi.tobytes())
    weights = _weight_grid(weights, geom)
    with np.errstate(invalid="ignore"):  # a non-finite W: a non-finite field, refused when read
        field = np.einsum("ij,ij->i", x @ weights, y).reshape(theta.size, phi.size)
        field *= _element_factor(theta, element_exponent)
    return RadiationPattern(theta=theta, phi=phi, field=field)


@lru_cache(maxsize=4)
def _steering_rows(geom: ArrayGeometry, carrier_hz: float, theta: bytes, phi: bytes):
    """The checked direction grid of the float64 bytes, and its steering rows x and y.

    x[i, m] = exp(j k x_m u_i) and y[i, n] = exp(j k y_n v_i), directions in
    theta-major order. They depend only on the panel, the carrier and the grid,
    so they are built once for them and are read-only; a refused grid raises and
    caches nothing.
    """
    theta, phi = np.frombuffer(theta), np.frombuffer(phi)
    if theta.size == 0 or phi.size == 0:
        raise ValueError("theta and phi must be non-empty 1-D grids")
    for name, grid in (("theta", theta), ("phi", phi)):
        if not np.all(np.isfinite(grid)):
            raise ValueError(f"{name} must be finite")
    if np.any(np.diff(theta) <= 0) or (phi.size > 1 and np.any(np.diff(phi) <= 0)):
        raise ValueError("direction grids must be strictly increasing")
    if theta.min() < -math.pi / 2 - 1e-12 or theta.max() > math.pi / 2 + 1e-12:
        raise ValueError("theta must lie in [-pi/2, pi/2]")
    if phi.min() < 0 or phi.max() >= 2 * math.pi:
        raise ValueError("phi must lie in [0, 2 pi)")
    k = 2.0 * math.pi / wavelength(carrier_hz)
    s = np.sin(theta)[:, None]
    u, v = (s * np.cos(phi)).ravel(), (s * np.sin(phi)).ravel()
    x = np.exp(1j * np.multiply.outer(u, k * geom.spacing_x * geom.offsets_x()))
    y = np.exp(1j * np.multiply.outer(v, k * geom.spacing_y * geom.offsets_y()))
    x.flags.writeable = y.flags.writeable = False
    return theta, phi, x, y


@lru_cache(maxsize=8)  # read-only; a refused step caches nothing
def cut_grid(step_deg: float = DEFAULT_CUT_STEP_DEG) -> np.ndarray:
    """Signed theta grid of a principal cut over [-90, 90] deg; the step must divide 180 deg."""
    if not (math.isfinite(step_deg) and step_deg > 0):
        raise ValueError(f"grid step must be finite and positive, got {step_deg} deg")
    n = round(180.0 / step_deg)
    if n < 1 or not math.isclose(n * step_deg, 180.0, rel_tol=1e-9):
        raise ValueError(f"cut grid step must divide 180 deg, got {step_deg} deg")
    theta = np.radians(np.linspace(-90.0, 90.0, n + 1))
    theta.flags.writeable = False
    return theta


def principal_cut(
    weights: np.ndarray,
    geom: ArrayGeometry,
    carrier_hz: float,
    *,
    plane: str = "E",
    step_deg: float = DEFAULT_CUT_STEP_DEG,
    element_exponent: float = 1.0,
) -> RadiationPattern:
    """Signed-theta cut through the E (phi=0) or H (phi=90 deg) plane."""
    if plane not in PLANE_AZIMUTHS:
        raise ValueError(f"plane must be one of {sorted(PLANE_AZIMUTHS)}, got {plane!r}")
    return radiation_pattern(
        weights, geom, carrier_hz, element_exponent=element_exponent,
        theta=cut_grid(step_deg), phi=np.array([PLANE_AZIMUTHS[plane]]),
    )


@lru_cache(maxsize=8)
def _lag_kernel(geom: ArrayGeometry, carrier_hz: float, element_exponent: float) -> np.ndarray:
    """The (Nx Ny, Nx Ny) matrix K[mn, m'n'] = K(|m - m'| dx, |n - n'| dy), read-only; its
    row 0, reshaped to (Nx, Ny), is the table of K at the lags (i dx, j dy), i, j >= 0.

    By Poisson's integral for J_(gamma + 1/2), K(rho) = 2 pi / (2 gamma + 1) E[cos(k rho t)],
    the mean under the weight (1 - t^2)^gamma on [-1, 1]. The mean is the weight's n-node
    Gauss-Gegenbauer rule (Golub and Welsch, Math. Comp. 23, 1969): the nodes are the
    eigenvalues of its tridiagonal Jacobi matrix, and each node's weight is the square of the
    first component of its eigenvector. The weights sum to 1, so K(0) = 2 pi / (2 gamma + 1).
    """
    gamma = _checked_exponent(element_exponent)
    k = 2.0 * math.pi / wavelength(carrier_hz)
    rho = np.hypot.outer(np.arange(geom.num_x) * geom.spacing_x,
                         np.arange(geom.num_y) * geom.spacing_y)
    z = k * rho[-1, -1]
    i = np.arange(1, math.ceil(z / 2.0 + _KERNEL_MARGIN * (z + 1.0) ** (1.0 / 3.0)))
    jacobi = np.diag(np.sqrt(i * (i + 2.0 * gamma) / ((2.0 * i + 2.0 * gamma) ** 2 - 1.0)), -1)
    t, v = np.linalg.eigh(jacobi)
    kernel = np.cos(np.multiply.outer(k * rho, t)) @ v[0] ** 2
    kernel *= 2.0 * math.pi / (2.0 * gamma + 1.0)
    m, n = (np.abs(np.subtract.outer(np.arange(size), np.arange(size))) for size in kernel.shape)
    kernel = kernel[m[:, None, :, None], n[None, :, None, :]].reshape(kernel.size, kernel.size)
    kernel.flags.writeable = False
    return kernel


def _peak_power(pattern: RadiationPattern) -> float:
    """The largest sample of |F|^2, which must be finite and positive."""
    peak = float(pattern.power.max())
    if not 0 < peak < math.inf:  # NaN too
        raise ValueError("pattern has no power" if peak == 0 else
                         f"weight grid must be finite: its pattern peaks at {peak}")
    return peak


def directivity_and_gain(
    weights: np.ndarray,
    geom: ArrayGeometry,
    carrier_hz: float,
    *,
    cut: RadiationPattern,
    element_exponent: float,
    loss_budget_db: float = 0.0,
) -> tuple[float, float]:
    """Directivity (dBi) of W at the peak of ``cut``, and the gain after ``loss_budget_db``.

    ``cut`` is W's pattern sampled through its beam with the same element
    exponent; its largest sample is the peak power. The radiated power is the
    quadratic form w^H K w = re(w)^T K re(w) + im(w)^T K im(w), K real and
    symmetric: one product of K with the (re, im) column pairs of w.
    """
    if not math.isfinite(loss_budget_db):
        raise ValueError(f"loss_budget_db must be finite, got {loss_budget_db}")
    peak = _peak_power(cut)
    kernel = _lag_kernel(geom, carrier_hz, element_exponent)
    pairs = _weight_grid(weights, geom).ravel().view(np.float64).reshape(-1, 2)
    with np.errstate(invalid="ignore"):  # a non-finite W is refused below, naming its power
        radiated = float(np.vdot(pairs, kernel @ pairs))
    if not math.isfinite(radiated):
        raise ValueError(f"weight grid must be finite: its radiated power is {radiated}")
    directivity_dbi = 10.0 * math.log10(4.0 * math.pi * peak / radiated)
    return directivity_dbi, directivity_dbi - loss_budget_db


@dataclass(frozen=True)
class PatternMetrics:
    peak_direction_deg: float
    sidelobe_level_db: float
    hpbw_deg: float


def _crossing(theta_deg: np.ndarray, power: np.ndarray, i: int, j: int, level: float) -> float:
    """Linear interpolation of the theta where power crosses the level."""
    p0, p1 = power[i], power[j]
    t0, t1 = theta_deg[i], theta_deg[j]
    return t0 + (level - p0) * (t1 - t0) / (p1 - p0)


def pattern_metrics(pattern: RadiationPattern) -> PatternMetrics:
    """Peak direction, half-power beamwidth, and sidelobe level of a cut.

    The sidelobe level is the highest sample outside the main lobe's
    null-to-null region, in dB relative to the peak. Metrics are scale
    invariant.
    """
    if not pattern.is_cut():
        raise ValueError("pattern metrics are defined on a principal cut (single phi)")
    power = pattern.power[:, 0]
    theta_deg = np.degrees(pattern.theta)
    i_peak = int(np.argmax(power))
    if i_peak in (0, power.size - 1):
        raise MetricUndefinedError("pattern peak sits on the grid boundary")
    peak = power[i_peak]

    half = peak / 2.0
    low = np.flatnonzero(power <= half)  # the half-power edges are the nearest each side
    k = int(np.searchsorted(low, i_peak))
    if k == 0 or k == low.size:
        raise MetricUndefinedError("main lobe does not fall to half power inside the grid")
    i_left, i_right = low[k - 1], low[k]
    hpbw = _crossing(theta_deg, power, i_right - 1, i_right, half) - _crossing(
        theta_deg, power, i_left + 1, i_left, half
    )

    # the nulls: the nearest samples each side beyond which power no longer falls
    slope = np.diff(power)
    left_stops = np.flatnonzero(slope[:i_peak] <= 0)
    right_stops = np.flatnonzero(slope[i_peak:] >= 0)
    j_left = left_stops[-1] + 1 if left_stops.size else 0
    j_right = i_peak + right_stops[0] if right_stops.size else power.size - 1
    if j_left == 0 and j_right == power.size - 1:
        raise MetricUndefinedError("no nulls bracket the main lobe inside the grid")
    outside = np.concatenate([power[: j_left + 1], power[j_right:]])
    if outside.max() == 0.0:
        raise MetricUndefinedError("sidelobe level undefined: every sample outside the main "
                                   "lobe is zero")
    sll_db = 10.0 * math.log10(outside.max() / peak)
    return PatternMetrics(
        peak_direction_deg=float(theta_deg[i_peak]),
        sidelobe_level_db=float(sll_db),
        hpbw_deg=float(hpbw),
    )


def scan_loss(broadside: RadiationPattern, steered: RadiationPattern) -> float:
    """Peak-power drop of the steered pattern relative to broadside, in dB."""
    if broadside.theta.shape != steered.theta.shape or broadside.phi.shape != steered.phi.shape:
        raise ValueError("patterns must share the same direction grid")
    if not (
        np.allclose(broadside.theta, steered.theta) and np.allclose(broadside.phi, steered.phi)
    ):
        raise ValueError("patterns must share the same direction grid")
    return 10.0 * math.log10(broadside.power.max() / steered.power.max())


def aperture_efficiency(gain_dbi: float, aperture_area_m2: float, carrier_hz: float) -> float:
    """Realized gain over the ideal uniform-aperture gain 4 pi A / lambda^2."""
    if aperture_area_m2 <= 0:
        raise ValueError(f"aperture area must be positive, got {aperture_area_m2}")
    lam = wavelength(carrier_hz)
    return db_to_linear(gain_dbi) * lam**2 / (4.0 * math.pi * aperture_area_m2)


@lru_cache(maxsize=4)
def _row_template(theta: bytes, phi: bytes) -> bytes:
    """The ASCII CSV of one float64 (theta, phi) grid, keyed by its bytes, with %.6f for each power.

    Cached, so every cut a process writes on one grid shares its labels.
    """
    phi_deg = [f"{g:.4f}" for g in np.degrees(np.frombuffer(phi)).tolist()]
    return ("theta_deg,phi_deg,power_db_normalized\r\n" + "".join(
        [f"{th:.4f},{ph},%.6f\r\n" for th in np.degrees(np.frombuffer(theta)).tolist()
         for ph in phi_deg])).encode("ascii")


def pattern_to_csv(pattern: RadiationPattern, path: str | Path) -> None:
    """Write (theta_deg, phi_deg, power_db_normalized) rows, theta-major."""
    ratios = np.maximum(pattern.power / _peak_power(pattern), 1e-30).ravel().tolist()
    # math.log10 per sample: numpy's vector log10 may differ in the last ulp.
    text = _row_template(pattern.theta.tobytes(), pattern.phi.tobytes()) % tuple(
        [10.0 * math.log10(ratio) for ratio in ratios])
    with open(path, "wb") as fh:  # the csv module's \r\n rows, in one write
        fh.write(text)
