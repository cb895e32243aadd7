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
bilinear form a(u)^T W b(v). The element offsets are symmetric about the
panel centre, so a_{Nx-1-m}(u) = conj(a_m(u)), as in centro-symmetric array
processing (Haardt and Nossek, Unitary ESPRIT, 1995): W is folded once into
the sums and differences of its mirrored quadrants, and only the real cos and
sin rows of the first ceil(Nx/2) and ceil(Ny/2) steering columns remain. Each
half row is filled by doubling from one exponential per direction per axis
(Nx + Ny for per-element exponentials, Nx Ny for the direct sum). One real
GEMM per x half and a weighted row sum give four terms per direction, whose
signed sums are the fields at (u, v), (-u, v), (-u, -v) and (u, -v). So the
directivity samples only the azimuths of one quadrant, phi in [0, 90] deg,
and reads the mirror azimuths 180 - phi, 180 + phi and 360 - phi from the
same terms, summing the hemisphere's power row by row without storing its
field. Directions are evaluated in blocks of whole theta rows, so no
temporary grows with the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from .errors import MetricUndefinedError, ResolutionError
from .geometry import ArrayGeometry, _weight_grid
from .units import db_to_linear, wavelength

DEFAULT_CUT_STEP_DEG = 0.25
DEFAULT_GRID_STEP_DEG = 1.0

# Directions per block of the separable sum, in whole theta rows. A 0.25-degree
# cut (721 directions) fits in one block, as do 8 theta rows of a 1-degree
# hemisphere quadrant (91 azimuths). The largest temporary, the GEMM output,
# holds 4 ceil(Ny/2) reals per direction and x half: 384 KiB on a 16x16 panel.
_CHUNK_DIRECTIONS = 768

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


def _direction_grids(theta, phi) -> tuple[np.ndarray, np.ndarray]:
    """theta and phi as float arrays, checked as a pattern's direction grid."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if theta.ndim != 1 or phi.ndim != 1 or theta.size == 0 or phi.size == 0:
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
    return theta, phi


def _element_factor(theta: np.ndarray, element_exponent: float) -> np.ndarray:
    """The (len(theta), 1) column cos^gamma(theta) of the single-element field."""
    if not (math.isfinite(element_exponent) and element_exponent >= 0):
        raise ValueError(f"element exponent must be finite and >= 0, got {element_exponent}")
    return np.cos(theta)[:, None] ** element_exponent


def _half_steering(proj: np.ndarray, k_spacing: float, n: int) -> np.ndarray:
    """[cos; sin] of the first ceil(n/2) steering columns of one axis, centre outward.

    Column i is exp(j k x_m proj) at offset x_m = -(i + 1/2) d (even n) or -i d
    (odd n); the mirrored element's column is its conjugate. One exponential per
    direction, h = exp(-j k d proj / 2), gives column 0 (h, or exactly 1 for odd
    n), and columns [w, 2w) are columns [0, w) times h^(2w). Directions are last,
    so each doubling step multiplies contiguous rows.
    """
    half = (n + 1) // 2
    cols = np.empty((half, proj.size), dtype=complex)
    phase = -0.5 * k_spacing * proj
    cols[0].real, cols[0].imag = np.cos(phase), np.sin(phase)  # h, as one exponential
    factor = cols[0] * cols[0]
    if n % 2:
        cols[0] = 1.0
    width = 1
    while width < half:
        stop = min(2 * width, half)
        np.multiply(cols[: stop - width], factor, out=cols[width:stop])
        width *= 2
        if width < half:
            factor = factor * factor
    rows = np.empty((2, half, proj.size))
    rows[0], rows[1] = cols.real, cols.imag
    return rows


def _fold(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sums and differences of W's mirrored rows, in :func:`_half_steering`'s order.

    An odd count's centre row pairs with itself, so its sum is halved back to the row.
    """
    n = weights.shape[0]
    half = (n + 1) // 2
    inner, outer = weights[half - 1 :: -1], weights[n - half :]
    total = inner + outer
    if n % 2:
        total[0] *= 0.5
    return total, inner - outer


# The factors 1, j, j, -1 of T1..T4 in F(u, v), folded into Q_ss, Q_sd, Q_ds, Q_dd.
_QUADRANT_FACTORS = np.array([1.0, 1.0j, 1.0j, -1.0])[:, None, None]

# Signs of T1..T4 in the field F(su u, sv v) = T1 + sv T2 + su T3 + su sv T4
# at the mirrors (su, sv) = (+, +), (-, +), (-, -), (+, -).
_MIRROR_SIGNS = np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, -1, 1], [1, -1, 1, -1]], float)


def _mirrored_fields(weights: np.ndarray, geom: ArrayGeometry, carrier_hz: float,
                     theta: np.ndarray, phi: np.ndarray):
    """The separable sum at (u, v), (-u, v), (-u, -v) and (u, -v) of theta x phi.

    Yields (rows, fields) per block of whole theta rows; ``fields`` is complex
    (4, rows, len(phi)), the four mirrors in that order. With [c; s] the half
    steering rows of x, [c'; s'] those of y, and Q_ss, Q_sd, Q_ds, Q_dd the
    quadrant sums of W (:func:`_fold` along x, then along y), F(u, v) = T1 +
    j T2 + j T3 - T4 with T1 = c^T Q_ss c', T2 = c^T Q_sd s', T3 = s^T Q_ds c'
    and T4 = s^T Q_dd s'; mirroring u flips s, and mirroring v flips s'.
    """
    k = 2.0 * math.pi / wavelength(carrier_hz)
    x_sum, x_diff = _fold(_weight_grid(weights, geom))
    q = np.stack([*_fold(x_sum.T), *_fold(x_diff.T)]) * _QUADRANT_FACTORS  # (4, hy, hx)
    half_y, half_x = q.shape[1:]
    folded = np.stack([q.real, q.imag], axis=1).reshape(2, -1, half_x)  # rows: y half, re/im, n
    cos_phi, sin_phi = np.cos(phi), np.sin(phi)
    step = max(1, _CHUNK_DIRECTIONS // phi.size)
    for start in range(0, theta.size, step):
        rows = slice(start, min(start + step, theta.size))
        s = np.sin(theta[rows])[:, None]
        x = _half_steering((s * cos_phi).ravel(), k * geom.spacing_x, geom.num_x)
        y = _half_steering((s * sin_phi).ravel(), k * geom.spacing_y, geom.num_y)
        partial = (folded @ x).reshape(2, 2, 2, half_y, -1)  # [x half, y half, re/im, n, dir]
        terms = np.einsum("xyrnd,ynd->xydr", partial, y).reshape(4, -1)  # re/im interleaved
        yield rows, (_MIRROR_SIGNS @ terms).view(complex).reshape(4, -1, phi.size)


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
    cos^gamma(theta).
    """
    theta, phi = _direction_grids(theta, phi)
    element_factor = _element_factor(theta, element_exponent)
    field = np.empty((theta.size, phi.size), dtype=complex)
    for rows, fields in _mirrored_fields(weights, geom, carrier_hz, theta, phi):
        field[rows] = fields[0]
    field *= element_factor
    return RadiationPattern(theta=theta, phi=phi, field=field)


def _step_count(step_deg: float, span_deg: float, grid: str) -> int:
    """How many grid steps make up the span; the step must divide it exactly."""
    if not (math.isfinite(step_deg) and step_deg > 0):
        raise ValueError(f"grid step must be finite and positive, got {step_deg} deg")
    n = round(span_deg / step_deg)
    if n < 1 or not math.isclose(n * step_deg, span_deg, rel_tol=1e-9):
        raise ValueError(f"{grid} grid step must divide {span_deg:g} deg, got {step_deg} deg")
    return n


def cut_grid(step_deg: float = DEFAULT_CUT_STEP_DEG) -> np.ndarray:
    """Signed theta grid of a principal cut over [-90, 90] deg; the step must divide 180 deg."""
    n = _step_count(step_deg, 180.0, "cut")
    return np.radians(np.linspace(-90.0, 90.0, n + 1))


def hemisphere_grid(step_deg: float = DEFAULT_GRID_STEP_DEG) -> tuple[np.ndarray, np.ndarray]:
    """(theta, phi) grids covering the forward hemisphere.

    phi omits the 2 pi endpoint so the azimuth integral is a clean periodic
    sum; theta includes both poles of the range [0, pi/2]. The step must
    divide 90 deg, so that both grids keep it and phi closes the circle.
    """
    quarter = _step_count(step_deg, 90.0, "hemisphere")
    theta = np.radians(np.linspace(0.0, 90.0, quarter + 1))
    phi = np.radians(np.arange(4 * quarter) * step_deg)
    return theta, phi


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


def directivity_and_gain(
    weights: np.ndarray,
    geom: ArrayGeometry,
    carrier_hz: float,
    *,
    step_deg: float,
    element_exponent: float,
    loss_budget_db: float = 0.0,
) -> tuple[float, float]:
    """Peak directivity (dBi) of W's pattern by quadrature on ``hemisphere_grid(step_deg)``.

    Returns it with the gain after ``loss_budget_db``. Only the q + 1
    quadrant azimuths are sampled: azimuth index j is (u, v), and its
    mirrors (-u, v), (-u, -v) and (u, -v) are the indices 2q - j, 2q + j
    and 4q - j, each of the parity of j. The trapezoid over theta of each
    row's periodic azimuth sum of |E|^2 sin(theta) is checked against the
    same sum on every second theta and azimuth: the error grows ~4x when
    the step doubles, so a step-doubling shift of 0.3 dB bounds the
    step-halving change near 0.1 dB. Raises :class:`ResolutionError`
    beyond that, with both estimates attached, and ValueError for a step
    above 45 deg, whose doubled grid has one theta row.
    """
    if not math.isfinite(loss_budget_db):
        raise ValueError(f"loss_budget_db must be finite, got {loss_budget_db}")
    theta, phi = hemisphere_grid(step_deg)
    if theta.size < 3:
        raise ValueError(f"directivity needs a hemisphere step of at most 45 deg, so that the "
                         f"step-doubled grid keeps two theta rows; got {step_deg} deg")
    q = phi.size // 4
    element_power = _element_factor(theta, element_exponent) ** 2
    peak, rows_sum, even_sum = 0.0, np.empty(theta.size), np.empty(theta.size)
    for rows, fields in _mirrored_fields(weights, geom, carrier_hz, theta, phi[: q + 1]):
        power = np.abs(fields) ** 2 * element_power[rows]
        power[1::2, :, 0] = 0.0  # at j = 0, (-u, v) is (-u, -v) and (u, -v) is (u, v)
        power[0::2, :, q] = 0.0  # at j = q, (u, v) is (-u, v) and (-u, -v) is (u, -v)
        peak = max(peak, float(power.max()))
        rows_sum[rows] = power.sum(axis=(0, 2))
        even_sum[rows] = power[:, :, ::2].sum(axis=(0, 2))
    if peak <= 0:
        raise ValueError("pattern has no power")
    estimates = []
    for stride, per_theta in ((1, rows_sum), (2, even_sum)):
        th = theta[::stride]
        integral = np.trapezoid(per_theta[::stride] * (phi[stride] - phi[0]) * np.sin(th), th)
        estimates.append(10.0 * math.log10(4.0 * math.pi * peak / float(integral)))
    full_db, coarse_db = estimates
    if abs(full_db - coarse_db) >= 0.3:
        raise ResolutionError("directivity grid under-resolved", full_db, coarse_db)
    return full_db, full_db - loss_budget_db


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
    i_left = i_peak
    while i_left > 0 and power[i_left] > half:
        i_left -= 1
    i_right = i_peak
    while i_right < power.size - 1 and power[i_right] > half:
        i_right += 1
    if power[i_left] > half or power[i_right] > half:
        raise MetricUndefinedError("main lobe does not fall to half power inside the grid")
    hpbw = _crossing(theta_deg, power, i_right - 1, i_right, half) - _crossing(
        theta_deg, power, i_left + 1, i_left, half
    )

    j_left = i_peak
    while j_left > 0 and power[j_left - 1] < power[j_left]:
        j_left -= 1
    j_right = i_peak
    while j_right < power.size - 1 and power[j_right + 1] < power[j_right]:
        j_right += 1
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
def _axis_labels(grid: bytes) -> tuple[str, ...]:
    """The "deg," CSV labels of one float64 direction grid, keyed by its bytes.

    Cached, so the E and H cuts of one ``rissim pattern`` run share their theta labels.
    """
    return tuple(f"{g:.4f}," for g in np.degrees(np.frombuffer(grid)).tolist())


def pattern_to_csv(pattern: RadiationPattern, path: str | Path) -> None:
    """Write (theta_deg, phi_deg, power_db_normalized) rows, theta-major."""
    power = pattern.power
    peak = power.max()
    if peak <= 0:
        raise ValueError("pattern has no power")
    phi_deg = _axis_labels(pattern.phi.tobytes())
    leads = [th + ph for th in _axis_labels(pattern.theta.tobytes()) for ph in phi_deg]
    ratios = np.maximum(power / peak, 1e-30).ravel().tolist()
    # math.log10 per sample: numpy's vector log10 may differ in the last ulp.
    rows = "".join([f"{lead}{10.0 * math.log10(ratio):.6f}\r\n"
                    for lead, ratio in zip(leads, ratios)])
    with open(path, "w", newline="") as fh:  # the csv module's \r\n rows, in one write
        fh.write("theta_deg,phi_deg,power_db_normalized\r\n" + rows)
