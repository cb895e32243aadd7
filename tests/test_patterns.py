import csv
import math

import numpy as np
import pytest

from rissim import (
    ArrayGeometry,
    MetricUndefinedError,
    Pose,
    RadiationPattern,
    aperture_efficiency,
    code_table,
    cut_grid,
    default_element_table,
    directivity_and_gain,
    feed_illuminations,
    optimal_phases,
    pattern_metrics,
    pattern_to_csv,
    principal_cut,
    radiation_pattern,
    scan_loss,
    state_coefficients,
    synthesize_codebook,
    wavelength,
)

from rissim import patterns

from conftest import CARRIER_HZ

FEED = Pose.from_spherical(0.05, 0.0, 0.0)
FEED_Q = 8.31
FAR = Pose.from_spherical(100.0, 0.0, 0.0)


def steer_target(theta_deg: float, plane: str = "E") -> Pose:
    base = 0.0 if plane == "E" else math.pi / 2
    azimuth = base if theta_deg >= 0 else base + math.pi
    return Pose.from_spherical(100.0, math.radians(abs(theta_deg)), azimuth)


def coefficients(codes, bits, mode="nominal", table=None):
    """Gamma exp(j phi) of a b-bit code grid, read against the state table its element mode
    gives."""
    return state_coefficients(code_table(bits, mode, table), codes)


def fed(coefficients, geom):
    """The weight grid W = Gamma exp(j phi) A under the test feed's illumination A."""
    return coefficients * feed_illuminations(FEED, geom, CARRIER_HZ, FEED_Q)


def broadside_tapered_cut(geom, plane="E", element_exponent=1.0, step_deg=0.25):
    codes = synthesize_codebook(FEED, FAR, geom, CARRIER_HZ, 2)
    return principal_cut(
        fed(coefficients(codes, 2), geom), geom, CARRIER_HZ, plane=plane, step_deg=step_deg,
        element_exponent=element_exponent,
    )


SEEDED_PANELS = [(16, 16), (15, 17), (1, 9), (8, 3), (2, 2)]
SEEDED_GAMMAS = [0.0, 1.0, 2.5]


def seeded_cuts(nx, ny, gamma, count=20):
    """``count`` weight grids of an nx x ny panel with the E and H cut of each: even ones a
    2-bit codebook steered to a random angle under the test feed, odd ones random complex."""
    geom = ArrayGeometry(nx, ny)
    rng = np.random.default_rng([nx, ny, round(10 * gamma)])
    for i in range(count):
        if i % 2:
            weights = rng.standard_normal((nx, ny)) + 1j * rng.standard_normal((nx, ny))
        else:
            target = steer_target(rng.uniform(-60.0, 60.0), rng.choice(["E", "H"]))
            weights = fed(coefficients(synthesize_codebook(FEED, target, geom, CARRIER_HZ, 2), 2),
                          geom)
        step_deg = rng.choice([0.25, 0.5, 1.0])
        for plane in ("E", "H"):
            yield geom, weights, principal_cut(weights, geom, CARRIER_HZ, plane=plane,
                                               step_deg=step_deg, element_exponent=gamma)


# --------------------------------------------------------- basic field sums


def test_uniform_broadside_peak_equals_element_count(panel16):
    pattern = radiation_pattern(
        np.ones((16, 16)), panel16, CARRIER_HZ,
        element_exponent=0.0, theta=cut_grid(0.25), phi=np.array([0.0]),
    )
    power = pattern.power[:, 0]
    i0 = int(np.argmax(power))
    assert pattern.theta[i0] == pytest.approx(0.0, abs=1e-12)
    assert math.sqrt(power[i0]) == pytest.approx(256.0, rel=1e-12)


def dirichlet_power(n: int, spacing: float, lam: float, theta: np.ndarray) -> np.ndarray:
    """Independent array-factor oracle for a uniform linear array."""
    psi = math.pi * spacing / lam * np.sin(theta)
    with np.errstate(divide="ignore", invalid="ignore"):
        af = np.where(np.abs(np.sin(psi)) < 1e-15, 1.0, np.sin(n * psi) / (n * np.sin(psi)))
    return af**2


def test_linear_cut_matches_dirichlet_kernel():
    carrier = 26.5e9
    geom = ArrayGeometry(16, 1)
    theta = cut_grid(0.05)
    pattern = radiation_pattern(
        np.ones((16, 1)), geom, carrier,
        element_exponent=0.0, theta=theta, phi=np.array([0.0]),
    )
    oracle = dirichlet_power(16, geom.spacing_x, wavelength(carrier), theta)
    np.testing.assert_allclose(pattern.power[:, 0] / 16**2, oracle, atol=1e-10)

    m = pattern_metrics(pattern)
    fine = np.radians(np.linspace(0.0, 20.0, 200001))
    fine_af = dirichlet_power(16, geom.spacing_x, wavelength(carrier), fine)
    # first null then first sidelobe peak beyond it
    i_null = int(np.argmax((np.diff(fine_af) > 0)))
    sll_oracle = 10 * math.log10(fine_af[i_null:].max())
    assert m.sidelobe_level_db == pytest.approx(sll_oracle, abs=0.05)
    assert m.sidelobe_level_db == pytest.approx(-13.2, abs=0.2)
    # half-power width from the same oracle
    i_half = int(np.argmax(fine_af < 0.5))
    hpbw_oracle = 2 * math.degrees(fine[i_half])
    assert m.hpbw_deg == pytest.approx(hpbw_oracle, abs=0.05)


def test_pattern_scale_invariance(panel16):
    cut = broadside_tapered_cut(panel16)
    scaled = RadiationPattern(theta=cut.theta, phi=cut.phi, field=cut.field * 3.7j)
    m1, m2 = pattern_metrics(cut), pattern_metrics(scaled)
    assert m1.sidelobe_level_db == pytest.approx(m2.sidelobe_level_db, abs=1e-12)
    assert m1.hpbw_deg == pytest.approx(m2.hpbw_deg, abs=1e-12)


def test_h_plane_mirror_symmetry(panel16):
    cut = broadside_tapered_cut(panel16, plane="H")
    power = cut.power[:, 0]
    np.testing.assert_allclose(power, power[::-1], rtol=1e-9)


def direct_array_sum(weights, geom, carrier_hz, theta, phi, element_exponent):
    """Brute-force field: the full element sum, one direction at a time."""
    k = 2.0 * math.pi / wavelength(carrier_hz)
    xs = (np.arange(geom.num_x) - (geom.num_x - 1) / 2.0) * geom.spacing_x
    ys = (np.arange(geom.num_y) - (geom.num_y - 1) / 2.0) * geom.spacing_y
    xe, ye = np.meshgrid(xs, ys, indexing="ij")
    field = np.empty((theta.size, phi.size), dtype=complex)
    for i, th in enumerate(theta):
        for j, ph in enumerate(phi):
            u = math.sin(th) * math.cos(ph)
            v = math.sin(th) * math.sin(ph)
            field[i, j] = np.sum(weights * np.exp(1j * k * (xe * u + ye * v)))
            field[i, j] *= math.cos(th) ** element_exponent
    return field


@pytest.mark.parametrize("n", [1, 2, 7, 16, 64, 256])
@pytest.mark.parametrize("spacing", [4.9e-3, 11e-3])
def test_steering_rows_match_per_element_exponentials(n, spacing):
    k = 2.0 * math.pi / wavelength(CARRIER_HZ)
    k_offsets = k * ((np.arange(n) - (n - 1) / 2.0) * spacing)
    theta, phi = np.linspace(-math.pi / 2, math.pi / 2, 1001), np.array([0.0, math.pi / 2])
    _, _, x, y = patterns._steering_rows(ArrayGeometry(n, n, spacing, spacing), CARRIER_HZ,
                                         theta.tobytes(), phi.tobytes())
    s = np.sin(theta)[:, None]
    for rows, proj in ((x, s * np.cos(phi)), (y, s * np.sin(phi))):  # theta-major directions
        assert rows.shape == (theta.size * phi.size, n)
        assert np.abs(rows - np.exp(1j * np.outer(proj.ravel(), k_offsets))).max() <= 1e-12
        if n % 2:  # the centre element's column is exactly 1
            assert np.all(rows[:, n // 2] == 1.0)


@pytest.mark.parametrize("nx,ny,dx,dy", [(3, 5, 3.1e-3, 4.9e-3), (1, 7, 4.9e-3, 2.7e-3),
                                         (16, 16, 4.9e-3, 4.9e-3), (64, 2, 4.9e-3, 11e-3)])
@pytest.mark.parametrize("excitation", ["phases", "realized_codes"])
def test_separable_engine_matches_direct_array_sum(nx, ny, dx, dy, excitation, rng):
    geom = ArrayGeometry(nx, ny, dx, dy)
    theta = np.linspace(-math.pi / 2, math.pi / 2, 46)
    phi = np.arange(67) * (2.0 * math.pi / 67)
    if excitation == "phases":
        phases = rng.uniform(0.0, 2.0 * math.pi, (nx, ny))
        gamma = 0.0
        weights = np.exp(1j * phases)
    else:
        table = default_element_table()
        codes = rng.integers(0, 4, (nx, ny))
        gamma = 1.0
        weights = (state_coefficients(table, codes)
                   * feed_illuminations(FEED, geom, CARRIER_HZ, FEED_Q))
    got = radiation_pattern(weights, geom, CARRIER_HZ, element_exponent=gamma,
                            theta=theta, phi=phi)
    want = direct_array_sum(weights, geom, CARRIER_HZ, theta, phi, gamma)
    assert np.abs(got.field - want).max() <= 1e-12 * np.abs(want).max()


def hemisphere_directions(step_deg):
    """(theta, phi) over the forward hemisphere: theta from 0 to 90 deg with both ends, and
    phi round the circle without its 360-deg end, both at the step, which divides 90 deg."""
    quarter = round(90.0 / step_deg)
    theta = np.radians(np.linspace(0.0, 90.0, quarter + 1))
    return theta, np.radians(np.arange(4 * quarter) * step_deg)


def reference_directivity(weights, geom, step_deg, gamma):
    """(fine, coarse) directivity in dBi by quadrature of |F|^2 on the hemisphere grid of the
    step: the periodic sum over phi and the trapezoid over theta, on the whole grid and on
    every second theta and azimuth, each at the grid's largest sample. The field is sampled
    32 theta rows at a time."""
    theta, phi = hemisphere_directions(step_deg)
    peak, per_theta = 0.0, np.empty((2, theta.size))
    for start in range(0, theta.size, 32):
        rows = slice(start, start + 32)
        power = radiation_pattern(weights, geom, CARRIER_HZ, element_exponent=gamma,
                                  theta=theta[rows], phi=phi).power
        peak = max(peak, power.max())
        per_theta[:, rows] = power.sum(axis=1), power[:, ::2].sum(axis=1)
    estimates = []
    for stride, sums in zip((1, 2), per_theta):
        th = theta[::stride]
        integral = np.trapezoid(sums[::stride] * (phi[stride] - phi[0]) * np.sin(th), th)
        estimates.append(10.0 * math.log10(4.0 * math.pi * peak / integral))
    return tuple(estimates)


@pytest.mark.parametrize("nx,ny,dx,dy", [(1, 1, 4.9e-3, 4.9e-3), (1, 7, 4.9e-3, 2.7e-3),
                                         (3, 5, 3.1e-3, 4.9e-3), (16, 16, 4.9e-3, 4.9e-3)])
@pytest.mark.parametrize("step_deg", [1.0, 2.0, 6.0, 10.0])
@pytest.mark.parametrize("excitation", ["phases", "realized_codes"])
@pytest.mark.parametrize("gamma", [0.0, 1.0])
def test_hemisphere_pattern_matches_radiation_pattern(nx, ny, dx, dy, step_deg, excitation,
                                                      gamma, rng):
    """The lag kernel's directivity is what the quadrature of the full field converges to: at
    the same peak, it lies within the quadrature's step-doubling change of the fine grid."""
    geom = ArrayGeometry(nx, ny, dx, dy)
    if excitation == "phases":
        weights = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, (nx, ny)))
    else:
        weights = fed(coefficients(rng.integers(0, 4, (nx, ny)), 2, "realized"), geom)
    theta, phi = hemisphere_directions(step_deg)
    grid = radiation_pattern(weights, geom, CARRIER_HZ, element_exponent=gamma,
                             theta=theta, phi=phi)
    got = directivity_and_gain(weights, geom, CARRIER_HZ, cut=grid, element_exponent=gamma)[0]
    fine, coarse = reference_directivity(weights, geom, step_deg, gamma)
    assert abs(got - fine) <= abs(fine - coarse)


@pytest.mark.parametrize("gamma", [1.0, 2.5])
@pytest.mark.parametrize("plane,steer_deg", [("E", -60.0), ("H", 30.0)])
@pytest.mark.parametrize("mode", ["nominal", "realized"])
def test_element_factor_of_array_factor_cut_is_exact(panel16, table, gamma, plane, steer_deg,
                                                     mode):
    codes = synthesize_codebook(FEED, steer_target(steer_deg, plane), panel16, CARRIER_HZ, 2)
    weights = fed(coefficients(codes, 2, mode, table), panel16)
    af = principal_cut(weights, panel16, CARRIER_HZ, plane=plane, element_exponent=0.0)
    want = principal_cut(weights, panel16, CARRIER_HZ, plane=plane, element_exponent=gamma)
    got = af.with_element_factor(gamma)
    assert np.array_equal(got.field, want.field)
    assert np.array_equal(got.theta, want.theta) and np.array_equal(got.phi, want.phi)
    with pytest.raises(ValueError, match="element exponent"):
        af.with_element_factor(-1.0)


def test_code_grid_bit_depth_against_state_table(panel16, table):
    """Nominal mode reads codes at their own 2^b phases; a realized table needs their bit depth."""
    codes = np.arange(16 * 16).reshape(16, 16) % 2
    grid = dict(theta=cut_grid(1.0), phi=np.array([0.0]), element_exponent=0.0)
    got = radiation_pattern(coefficients(codes, 1), panel16, CARRIER_HZ, **grid)
    want = radiation_pattern(np.exp(1j * np.pi * codes), panel16, CARRIER_HZ, **grid)
    np.testing.assert_allclose(got.field, want.field, rtol=0.0, atol=1e-12 * panel16.num_elements)
    with pytest.raises(ValueError, match="1-bit codes .* 2-bit state table"):
        coefficients(codes, 1, "realized", table)


# ------------------------------------------------------------ steering


def af_peak_deg(weights, geom):
    pattern = radiation_pattern(
        weights, geom, CARRIER_HZ,
        element_exponent=0.0, theta=cut_grid(0.25), phi=np.array([0.0]),
    )
    return math.degrees(pattern.theta[int(np.argmax(pattern.power[:, 0]))])


def test_continuous_codebook_points_exactly(panel16):
    for target_deg in (-60.0, -35.0, 20.0):
        phases = optimal_phases(FAR, steer_target(target_deg), panel16, CARRIER_HZ)
        peak = af_peak_deg(np.exp(1j * phases), panel16)
        assert abs(peak - target_deg) <= 0.25 + 1e-9


def test_quantized_feed_codebook_points_within_grid_cell(panel16):
    # 2-bit pointing holds for the spherical-feed codebooks the study uses;
    # a bare linear phase aliases to a squinted grating structure instead.
    for target_deg in (-60.0, -50.0, -40.0, -30.0, -20.0, -10.0):
        codes = synthesize_codebook(FEED, steer_target(target_deg), panel16, CARRIER_HZ, 2)
        peak = af_peak_deg(fed(coefficients(codes, 2), panel16), panel16)
        assert abs(peak - target_deg) <= 0.25 + 1e-9


def test_scan_loss_same_pattern_is_zero(panel16):
    cut = broadside_tapered_cut(panel16)
    assert scan_loss(cut, cut) == 0.0


def test_scan_loss_rejects_mismatched_grids(panel16):
    a = broadside_tapered_cut(panel16, step_deg=0.25)
    b = broadside_tapered_cut(panel16, step_deg=0.5)
    with pytest.raises(ValueError):
        scan_loss(a, b)


def test_scan_loss_sixty_degrees_in_window(panel16):
    broadside = broadside_tapered_cut(panel16)
    codes = synthesize_codebook(FEED, steer_target(-60.0), panel16, CARRIER_HZ, 2)
    steered = principal_cut(fed(coefficients(codes, 2), panel16), panel16, CARRIER_HZ, plane="E",
                            step_deg=0.25, element_exponent=1.0)
    assert 2.5 <= scan_loss(broadside, steered) <= 6.0


def test_scan_loss_monotone_with_continuous_phases(panel16):
    # continuous collimating + steering phases: no quantization jitter
    losses = []
    reference = None
    for angle in (0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0):
        phases = optimal_phases(FEED, steer_target(-angle), panel16, CARRIER_HZ)
        cut = radiation_pattern(
            fed(np.exp(1j * phases), panel16), panel16, CARRIER_HZ,
            element_exponent=1.0, theta=cut_grid(0.25), phi=np.array([0.0]),
        )
        if reference is None:
            reference = cut
        losses.append(scan_loss(reference, cut))
    assert losses[0] == 0.0
    assert all(b >= a - 1e-9 for a, b in zip(losses, losses[1:]))


# --------------------------------------------------- tapered broadside beam


def test_tapered_broadside_sidelobes_and_width(panel16):
    m = pattern_metrics(broadside_tapered_cut(panel16))
    assert m.peak_direction_deg == pytest.approx(0.0, abs=0.25)
    assert m.sidelobe_level_db <= -18.0
    assert 6.0 <= m.hpbw_deg <= 10.0


# ------------------------------------------------------------- directivity


def directivity_of_ones(geom, loss_budget_db=0.0):
    """Directivity and gain of the uniform array factor (gamma = 0), whose E cut peaks at 0 deg."""
    weights = np.ones((geom.num_x, geom.num_y))
    cut = principal_cut(weights, geom, CARRIER_HZ, element_exponent=0.0)
    return directivity_and_gain(weights, geom, CARRIER_HZ, cut=cut, element_exponent=0.0,
                                loss_budget_db=loss_budget_db)


def test_directivity_uniform_aperture(panel16):
    directivity_dbi, gain_dbi = directivity_of_ones(panel16)
    ideal = 10 * math.log10(4 * math.pi * panel16.aperture_area / wavelength(CARRIER_HZ) ** 2)
    assert ideal == pytest.approx(27.97, abs=0.01)
    assert directivity_dbi == pytest.approx(ideal, abs=0.5)
    assert gain_dbi == directivity_dbi


def test_directivity_isotropic_hemisphere_element():
    directivity_dbi, _ = directivity_of_ones(ArrayGeometry(1, 1))
    assert directivity_dbi == pytest.approx(10 * math.log10(2.0), abs=1e-9)


def test_gain_subtracts_loss_budget(panel16):
    d0, g0 = directivity_of_ones(panel16, loss_budget_db=0.0)
    d1, g1 = directivity_of_ones(panel16, loss_budget_db=2.16)
    assert d0 == d1
    assert g1 == pytest.approx(g0 - 2.16)


def closed_form_kernel(x, gamma):
    """2 pi sin(x) / x at gamma = 0 and 2 pi j1(x) / x at gamma = 1, with x = k |l|."""
    z = np.where(x == 0, 1.0, x)
    if gamma == 0:
        return 2.0 * math.pi * np.where(x == 0, 1.0, np.sin(z) / z)
    return 2.0 * math.pi * np.where(x == 0, 1.0 / 3.0, (np.sin(z) / z**2 - np.cos(z) / z) / z)


@pytest.mark.parametrize("geom", [ArrayGeometry(16, 16), ArrayGeometry(64, 2, 4.9e-3, 11e-3)],
                         ids=["16x16", "64x2"])
@pytest.mark.parametrize("gamma", [0.0, 1.0])
def test_lag_kernel_matches_its_closed_forms(geom, gamma):
    """To 1e-12 of K(0); the 64x2 panel reaches k |l| = 175, three times the 16x16 panel's 59."""
    x = 2.0 * math.pi / wavelength(CARRIER_HZ) * np.hypot(
        np.arange(geom.num_x)[:, None] * geom.spacing_x, np.arange(geom.num_y) * geom.spacing_y)
    matrix = patterns._lag_kernel(geom, CARRIER_HZ, gamma)
    assert matrix.shape == (geom.num_elements, geom.num_elements)
    got = matrix[0].reshape(geom.num_x, geom.num_y)  # the lags (i dx, j dy), i, j >= 0
    assert np.abs(got - closed_form_kernel(x, gamma)).max() <= 1e-12 * got[0, 0]
    assert not matrix.flags.writeable


@pytest.mark.parametrize("nx,ny,dx,dy", [(3, 5, 3.1e-3, 4.9e-3), (16, 16, 4.9e-3, 4.9e-3)])
@pytest.mark.parametrize("gamma", [0.0, 1.0])
def test_radiated_power_is_the_double_sum_over_element_pairs(nx, ny, dx, dy, gamma, rng):
    """sum_nm W_n W_m* K(|r_n - r_m|), summed pair by pair with the closed-form kernel."""
    geom = ArrayGeometry(nx, ny, dx, dy)
    weights = rng.standard_normal((nx, ny)) + 1j * rng.standard_normal((nx, ny))
    cut = principal_cut(weights, geom, CARRIER_HZ, element_exponent=gamma)
    xe, ye = (c.ravel() for c in geom.element_grid())
    distances = np.hypot(np.subtract.outer(xe, xe), np.subtract.outer(ye, ye))
    kernel = closed_form_kernel(2.0 * math.pi / wavelength(CARRIER_HZ) * distances, gamma)
    radiated = np.vdot(weights.ravel(), kernel @ weights.ravel()).real
    want = 10.0 * math.log10(4.0 * math.pi * cut.power.max() / radiated)
    got = directivity_and_gain(weights, geom, CARRIER_HZ, cut=cut, element_exponent=gamma)[0]
    assert got == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("gamma", [0.3, 400.0])
def test_lag_kernel_is_converged_in_its_step(panel16, gamma, monkeypatch):
    """Halving the tanh-sinh step moves K by less than 1e-9 of K(0), also where mu^(2 gamma)
    has an infinite slope at mu = 0 or is a spike of width 1/800 at mu = 1."""
    kernel = patterns._lag_kernel(panel16, CARRIER_HZ, gamma)
    monkeypatch.setattr(patterns, "_KERNEL_STEP", patterns._KERNEL_STEP / 2.0)
    halved = patterns._lag_kernel.__wrapped__(panel16, CARRIER_HZ, gamma)  # past the cache
    assert np.abs(halved - kernel).max() <= 1e-9 * kernel[0, 0]


@pytest.mark.parametrize("mode,steer_deg", [("nominal", -30.0), ("nominal", 0.0),
                                            ("nominal", 47.5), ("realized", -30.0)])
def test_directivity_matches_a_fine_quadrature(panel16, table, mode, steer_deg):
    """The beams of the pinned pattern outputs, each at the peak of its 0.25-deg E cut."""
    codes = synthesize_codebook(FEED, steer_target(steer_deg), panel16, CARRIER_HZ, 2)
    weights = fed(coefficients(codes, 2, mode, table), panel16)
    cut = principal_cut(weights, panel16, CARRIER_HZ, element_exponent=1.0)
    got = directivity_and_gain(weights, panel16, CARRIER_HZ, cut=cut, element_exponent=1.0)[0]
    assert got == pytest.approx(reference_directivity(weights, panel16, 0.125, 1.0)[0], abs=0.005)


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_directivity_refuses_a_bad_element_exponent(panel16, bad):
    cut = broadside_tapered_cut(panel16)
    with pytest.raises(ValueError, match="element exponent must be finite and >= 0"):
        directivity_and_gain(np.ones((16, 16)), panel16, CARRIER_HZ, cut=cut,
                             element_exponent=bad)


def reference_radiated_power(weights, geom, gamma):
    """The per-x-lag sum that the quadratic form w^H K w replaced, kept as its reference: the
    products W[m + i, n] W*[m, n'] summed over m hold the autocorrelation at the lags
    (i, n - n'), and those at -i are their conjugates."""
    table = patterns._lag_kernel(geom, CARRIER_HZ, gamma)[0].reshape(geom.num_x, geom.num_y)
    y_lags = np.abs(np.subtract.outer(np.arange(geom.num_y), np.arange(geom.num_y)))
    radiated = 0.0
    for i in range(geom.num_x):
        products = weights[i:].T @ weights[: geom.num_x - i].conj()
        radiated += (2.0 if i else 1.0) * float(np.vdot(table[i][y_lags], products.real))
    return radiated


@pytest.mark.parametrize("nx,ny", SEEDED_PANELS, ids=lambda n: str(n))
@pytest.mark.parametrize("gamma", SEEDED_GAMMAS)
def test_radiated_power_matches_the_per_lag_sum(nx, ny, gamma):
    for geom, weights, cut in seeded_cuts(nx, ny, gamma, count=6):
        directivity_dbi, _ = directivity_and_gain(weights, geom, CARRIER_HZ, cut=cut,
                                                  element_exponent=gamma)
        got = 4.0 * math.pi * cut.power.max() / 10.0 ** (directivity_dbi / 10.0)
        want = reference_radiated_power(weights, geom, gamma)
        assert abs(got - want) <= 1e-12 * want


def test_cached_kernel_is_the_read_only_symmetric_lag_matrix():
    geom = ArrayGeometry(3, 5, 3.1e-3, 4.9e-3)
    matrix = patterns._lag_kernel(geom, CARRIER_HZ, 1.0)
    assert patterns._lag_kernel(geom, CARRIER_HZ, 1.0) is matrix
    with pytest.raises(ValueError, match="read-only"):
        matrix[0, 0] = 0.0
    np.testing.assert_array_equal(matrix, matrix.T)
    table = matrix[0].reshape(3, 5)  # K at the lags (i dx, j dy), i, j >= 0
    for m, n, m2, n2 in np.ndindex(3, 5, 3, 5):
        assert matrix[5 * m + n, 5 * m2 + n2] == table[abs(m - m2), abs(n - n2)]


def test_a_refused_exponent_caches_no_kernel(panel16):
    patterns._lag_kernel.cache_clear()
    with pytest.raises(ValueError, match="element exponent must be finite and >= 0"):
        patterns._lag_kernel(panel16, CARRIER_HZ, -1.0)
    assert patterns._lag_kernel.cache_info().currsize == 0


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(math.inf, math.inf)])
def test_directivity_refuses_non_finite_weights(panel16, bad):
    weights = np.ones((16, 16), dtype=complex)
    weights[3, 5] = bad
    finite_cut = broadside_tapered_cut(panel16)  # a cut not sampled from these weights
    cut = principal_cut(weights, panel16, CARRIER_HZ)
    with pytest.raises(ValueError, match="weight grid must be finite: its pattern peaks at"):
        directivity_and_gain(weights, panel16, CARRIER_HZ, cut=cut, element_exponent=1.0)
    with pytest.raises(ValueError, match="weight grid must be finite: its radiated power is"):
        directivity_and_gain(weights, panel16, CARRIER_HZ, cut=finite_cut, element_exponent=1.0)


# ----------------------------------------------------------------- metrics


def test_metrics_boundary_peak_rejected():
    theta = np.radians(np.linspace(-60, 60, 241))
    field = np.exp(-((np.degrees(theta) + 60) / 10) ** 2).reshape(-1, 1).astype(complex)
    monotone = RadiationPattern(theta=theta, phi=np.array([0.0]), field=field)
    with pytest.raises(MetricUndefinedError):
        pattern_metrics(monotone)


def test_metrics_refuse_sidelobes_that_are_all_zero():
    theta = np.radians(np.linspace(-60, 60, 241))
    lobe = np.clip(np.cos(4.5 * theta), 0.0, None)  # the main lobe |theta| < 20 deg, zero beyond
    cut = RadiationPattern(theta=theta, phi=np.array([0.0]), field=lobe.reshape(-1, 1))
    with pytest.raises(MetricUndefinedError, match="every sample outside the main lobe is zero"):
        pattern_metrics(cut)


def test_metrics_need_a_null_bracket():
    geom = ArrayGeometry(1, 1)
    pattern = radiation_pattern(np.ones((1, 1)), geom, CARRIER_HZ, element_exponent=2.0,
                                theta=cut_grid(0.5), phi=np.array([0.0]))
    with pytest.raises(MetricUndefinedError):
        pattern_metrics(pattern)


def test_metrics_reject_2d_patterns(panel16):
    theta, phi = hemisphere_directions(2.0)
    pattern = radiation_pattern(np.ones((16, 16)), panel16, CARRIER_HZ,
                                element_exponent=0.0, theta=theta, phi=phi)
    with pytest.raises(ValueError):
        pattern_metrics(pattern)


def reference_pattern_metrics(pattern):
    """The while-loop lobe search that pattern_metrics replaced, kept as its reference."""
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
    hpbw = patterns._crossing(theta_deg, power, i_right - 1, i_right, half) - patterns._crossing(
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
    return patterns.PatternMetrics(
        peak_direction_deg=float(theta_deg[i_peak]),
        sidelobe_level_db=float(sll_db),
        hpbw_deg=float(hpbw),
    )


def metrics_or_refusal(metrics, pattern):
    try:
        return metrics(pattern)
    except MetricUndefinedError as err:
        return f"refused: {err}"


def test_lobe_search_matches_the_while_loops_on_seeded_cuts():
    outcomes = []
    for nx, ny in SEEDED_PANELS:
        for gamma in SEEDED_GAMMAS:
            for _, _, cut in seeded_cuts(nx, ny, gamma):
                got = metrics_or_refusal(pattern_metrics, cut)
                assert got == metrics_or_refusal(reference_pattern_metrics, cut)
                outcomes.append(got)
    refusals = [outcome for outcome in outcomes if isinstance(outcome, str)]
    assert len(outcomes) == 600 and len(outcomes) - len(refusals) >= 300
    assert len(set(refusals)) >= 2  # the refusals are exercised as well


@pytest.mark.parametrize("field", [  # equal fields are equal powers
    [0, 1, 1, 2, 2, 1, 1, 0, .5, .5, 0],  # a flat top, flat shoulders and a flat sidelobe
    [0, 0, 3, 3, 0, 0],
    [.5, .5, 0, 1, 4, 4, 4, 1, 0, 0, .5],
    [0, .2, 1, 1, 4, 1, 0, .1, 0],  # a flat shoulder left of the peak only
    [0, 1, 0, 7, math.sqrt(98), 7],  # falls to exactly half power (49 of 98) at the last sample
    [.3, .3, 1, 4, 1, .3, .3],  # flat past the shoulders: no nulls, but sidelobes
    [0, 0, 1, 2, 1, 0, 0],  # every sample outside the lobe is zero
    [0, 3, 3, 3, 2.5, 2.5, 2.5],  # never falls to half power on the right
    [2, 2, 1, 0, 1, 2],  # the peak sits on the boundary
    [1, 2, 3, 2, 1],  # no nulls inside the grid
], ids=lambda f: "-".join(map(str, f)))
def test_lobe_search_matches_the_while_loops_on_plateaus(field):
    theta = np.radians(np.linspace(-50.0, 50.0, len(field)))
    cut = RadiationPattern(theta=theta, phi=np.array([0.0]),
                           field=np.array(field, dtype=complex).reshape(-1, 1))
    got = metrics_or_refusal(pattern_metrics, cut)
    assert got == metrics_or_refusal(reference_pattern_metrics, cut)


def test_radiation_pattern_validation(panel16):
    with pytest.raises(ValueError, match="strictly increasing"):
        radiation_pattern(np.ones((16, 16)), panel16, CARRIER_HZ,
                          theta=np.array([0.2, 0.1]), phi=np.array([0.0]))
    with pytest.raises(ValueError, match=r"phi must lie in \[0, 2 pi\)"):
        radiation_pattern(np.ones((16, 16)), panel16, CARRIER_HZ,
                          theta=np.array([0.0, 0.1]), phi=np.array([7.0]))
    with pytest.raises(ValueError):
        RadiationPattern(theta=np.array([0.0, 0.1]), phi=np.array([0.0]),
                         field=np.zeros((3, 1), dtype=complex))
    with pytest.raises(ValueError):
        radiation_pattern(np.ones((16, 16)), panel16, CARRIER_HZ,
                          theta=np.array([]), phi=np.array([0.0]))
    with pytest.raises(ValueError, match=r"weight grid shape \(16, 15\) does not match panel"):
        radiation_pattern(np.ones((16, 15)), panel16, CARRIER_HZ,
                          theta=np.array([0.0]), phi=np.array([0.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["theta", "phi"])
def test_direction_grids_must_be_finite(panel16, name, bad):
    grids = {"theta": np.array([0.0, 0.1]), "phi": np.array([0.0])}
    grids[name] = np.append(grids[name][:-1], bad)
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        radiation_pattern(np.ones((16, 16)), panel16, CARRIER_HZ, **grids)


def test_a_warm_steering_cache_samples_the_same_field(panel16, rng):
    weights = _random_field(rng, (16, 16))
    hemisphere = hemisphere_directions(3.0)
    for theta, phi in [(cut_grid(), np.array([patterns.PLANE_AZIMUTHS["H"]])), hemisphere]:
        radiation_pattern(weights, panel16, CARRIER_HZ, theta=theta, phi=phi)  # fills the cache
        warm = radiation_pattern(weights, panel16, CARRIER_HZ, theta=theta, phi=phi)
        patterns._steering_rows.cache_clear()
        cold = radiation_pattern(weights, panel16, CARRIER_HZ, theta=theta, phi=phi)
        assert warm.field.tobytes() == cold.field.tobytes()


def test_cached_steering_rows_are_read_only(panel16):
    theta, phi, x, y = patterns._steering_rows(panel16, CARRIER_HZ, cut_grid(1.0).tobytes(),
                                               np.array([0.0]).tobytes())
    for array in (theta, phi, x, y):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


@pytest.mark.parametrize("theta,message", [
    (np.array([0.0, math.nan]), "theta must be finite"),
    (np.array([0.2, 0.1]), "direction grids must be strictly increasing"),
    (np.array([[0.0, 0.1], [0.2, 0.3]]), "theta and phi must be non-empty 1-D grids"),
], ids=["nan", "decreasing", "2-d"])
def test_a_refused_grid_caches_nothing(panel16, theta, message):
    patterns._steering_rows.cache_clear()
    with pytest.raises(ValueError, match=message):
        radiation_pattern(np.ones((16, 16)), panel16, CARRIER_HZ, theta=theta, phi=np.array([0.0]))
    assert patterns._steering_rows.cache_info().currsize == 0


@pytest.mark.parametrize("step_deg", [0.0, -1.0, math.nan, math.inf, 0.7, 100.0])
def test_grids_reject_bad_steps(step_deg):
    with pytest.raises(ValueError, match=f"grid step .*got {step_deg} deg"):
        cut_grid(step_deg)  # 0.7 and 100 do not divide 180 deg


def test_cut_grid_keeps_its_step():
    theta_deg = np.degrees(cut_grid())
    assert theta_deg.size == 721 and theta_deg[0] == -90.0 and theta_deg[-1] == 90.0
    np.testing.assert_allclose(np.diff(theta_deg), 0.25, rtol=1e-12)
    with pytest.raises(ValueError, match="cut grid step must divide 180 deg, got 0.7 deg"):
        cut_grid(0.7)  # 258 samples 0.70039 deg apart, if it were accepted


def test_cut_grid_is_built_once_per_step_and_read_only():
    cut_grid.cache_clear()
    grid = cut_grid(0.5)
    assert cut_grid(0.5) is grid
    with pytest.raises(ValueError, match="read-only"):
        grid[0] = 0.0
    for _ in range(2):
        with pytest.raises(ValueError, match="^cut grid step must divide 180 deg, got 0.7 deg$"):
            cut_grid(0.7)
    assert cut_grid.cache_info().currsize == 1


# -------------------------------------------------------------- efficiency


def test_aperture_efficiency_measured_point():
    eff = aperture_efficiency(22.0, 0.0784**2, 27.0e9)
    assert 100 * eff == pytest.approx(25.3, abs=0.1)


def test_aperture_efficiency_unity_at_ideal_gain(panel16):
    ideal = 10 * math.log10(4 * math.pi * panel16.aperture_area / wavelength(CARRIER_HZ) ** 2)
    assert aperture_efficiency(ideal, panel16.aperture_area, CARRIER_HZ) == pytest.approx(1.0, rel=1e-12)


def test_aperture_efficiency_linear_in_gain():
    base = aperture_efficiency(20.0, 0.0784**2, 27.0e9)
    assert aperture_efficiency(23.0103, 0.0784**2, 27.0e9) == pytest.approx(2 * base, rel=1e-6)
    with pytest.raises(ValueError):
        aperture_efficiency(20.0, 0.0, 27.0e9)


# --------------------------------------------------------------------- csv


def test_pattern_csv_deterministic(tmp_path, panel16):
    cut = broadside_tapered_cut(panel16, step_deg=1.0)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    pattern_to_csv(cut, p1)
    pattern_to_csv(cut, p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == "theta_deg,phi_deg,power_db_normalized"


def reference_pattern_to_csv(pattern, path):
    """The per-sample writer that pattern_to_csv replaced, kept as its reference."""
    power = pattern.power
    peak = power.max()
    if peak <= 0:
        raise ValueError("pattern has no power")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["theta_deg", "phi_deg", "power_db_normalized"])
        for i, th in enumerate(np.degrees(pattern.theta)):
            for j, ph in enumerate(np.degrees(pattern.phi)):
                writer.writerow([f"{th:.4f}", f"{ph:.4f}", f"{10.0 * math.log10(max(power[i, j] / peak, 1e-30)):.6f}"])


def _random_field(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("kind", ["random_cut", "cut_with_zeros", "hemisphere", "grid_sequence"])
def test_pattern_csv_bytes_match_reference_writer(tmp_path, rng, kind):
    h_plane = np.array([patterns.PLANE_AZIMUTHS["H"]])
    if kind == "hemisphere":
        grids = [hemisphere_directions(10.0)]
    elif kind == "grid_sequence":  # one process, so the template cached for a grid serves it again
        patterns._row_template.cache_clear()
        grids = [(cut_grid(1.0), h_plane), (cut_grid(1.0), np.array([0.0])), (cut_grid(0.5), h_plane),
                 (cut_grid(1.0), h_plane), hemisphere_directions(10.0)]
    else:
        grids = [(cut_grid(1.0), h_plane)]
    for i, (theta, phi) in enumerate(grids):
        field = _random_field(rng, (theta.size, phi.size))
        if kind == "cut_with_zeros":
            field[::7] = 0.0  # below the 1e-30 floor
        pattern = RadiationPattern(theta=theta, phi=phi, field=field)
        got, want = tmp_path / f"got{i}.csv", tmp_path / f"want{i}.csv"
        pattern_to_csv(pattern, got)
        reference_pattern_to_csv(pattern, want)
        assert got.read_bytes() == want.read_bytes()
    if kind == "cut_with_zeros":
        assert "-300.000000" in got.read_text()
    if kind == "grid_sequence":
        distinct = {(theta.tobytes(), phi.tobytes()) for theta, phi in grids}
        assert len(distinct) <= patterns._row_template.cache_info().maxsize  # none evicted
        assert patterns._row_template.cache_info().hits == len(grids) - len(distinct)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(math.inf, math.inf)])
def test_pattern_csv_refuses_a_non_finite_pattern(tmp_path, panel16, bad):
    weights = np.ones((16, 16), dtype=complex)
    weights[3, 5] = bad
    cut = principal_cut(weights, panel16, CARRIER_HZ)
    with pytest.raises(ValueError, match="weight grid must be finite: its pattern peaks at"):
        pattern_to_csv(cut, tmp_path / "cut.csv")
    assert not (tmp_path / "cut.csv").exists()


def test_power_is_computed_once_and_read_only(rng):
    theta, phi = hemisphere_directions(10.0)
    field = _random_field(rng, (theta.size, phi.size))
    pattern = RadiationPattern(theta=theta, phi=phi, field=field)
    power = pattern.power
    np.testing.assert_array_equal(power, np.abs(pattern.field) ** 2)  # bit for bit
    assert pattern.power is power
    with pytest.raises(ValueError, match="read-only"):
        power[0, 0] = 1.0


def test_pattern_stores_read_only_views_of_the_arrays_it_is_given(rng):
    theta, phi = hemisphere_directions(10.0)
    field = _random_field(rng, (theta.size, phi.size))
    pattern = RadiationPattern(theta=theta, phi=phi, field=field)
    for given, stored in ((theta, pattern.theta), (phi, pattern.phi), (field, pattern.field)):
        assert np.shares_memory(stored, given)
        with pytest.raises(ValueError, match="read-only"):
            stored[0] = stored[-1]
    assert field.flags.writeable  # the caller's own array stays writable
