"""The release campaign: each of the paper's measured claims, measured and judged.

:func:`measure_campaign` runs the scenario bundle, the quantization-loss
ladder, the broadside pattern and gain, the steer sweep and the small-panel
oracle trials, and judges each measured value against its window in
:data:`RELEASE_CRITERIA`. It returns data and writes nothing. Other layers
are called through their modules (``patterns.principal_cut``), so that a
function replaced on its module is the one called here too.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import beams, channel, codebook, elements, geometry, link, patterns, scenario_io
from .errors import ConfigError
from .units import wavelength

DEFAULT_FEED_RANGE_M = 0.05
DEFAULT_FEED_EXPONENT = channel.exponent_from_gain(12.7)  # the panel's 12.7 dBi feed horn
FAR_FIELD_RANGE_M = 100.0

# The release criteria: each of the paper's measured claims and the closed
# window [low, high] its measured value must fall in. `rissim reproduce` and
# tests/test_acceptance.py both judge them through measure_campaign.
RELEASE_CRITERIA: dict[str, tuple[float, float]] = {
    "scenario rates": (0.0, 0.0),  # rows off the campaign's rate column
    "transmit-power reduction": (7.0, 10.5),  # dB
    "2-bit quantization loss": (beams.uniform_phase_loss_db(2) - 0.3, 1.0),  # dB
    "1-bit quantization loss": (3.0, 4.5),  # dB
    "broadside sidelobes": (-math.inf, -18.0),  # dB
    "broadside beamwidth": (6.0, 10.0),  # deg
    "broadside gain": (20.0, 24.0),  # dBi
    "aperture-efficiency identity": (25.3 - 0.1, 25.3 + 0.1),  # percent
    "steered pointing": (-math.inf, 1.0),  # worst error, deg
    "60-deg scan loss": (2.5, 6.0),  # dB, each plane
    "codebook-vs-oracle gap": (-math.inf, 0.05),  # worst gap, dB
}

QUANTIZATION_BITS = (1, 2, 3, 4)
STEER_ANGLES_DEG = [0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0]
_POWER_PAIR = {"array_gain_without_panel": 1024.0, "array_gain_with_panel": 1121.0}  # row: Mbps


@functools.lru_cache(maxsize=4)
def _feed(range_m: float, exponent: float, geom: geometry.ArrayGeometry, carrier_hz: float):
    """The path less the center path, and the illumination A, of a boresight feed; read-only."""
    feed = geometry.Pose.from_spherical(range_m, 0.0, 0.0)
    path = geometry.exact_distances(feed, geom) - feed.range
    illumination = channel.feed_illuminations(feed, geom, carrier_hz, exponent)
    path.flags.writeable = illumination.flags.writeable = False
    return path, illumination


class SteerStudy:
    """Beams steered from the feed horn into far-field directions, and their patterns.

    The feed is a point and a steer target a direction: each element's code
    quantizes 2 pi / lambda times its feed path less the center path, plus the
    plane-wave path -(x sin(theta) cos(phi) + y sin(theta) sin(phi)) toward
    the direction. The feed path and illumination A are computed once per
    process per feed, and one study serves a whole command: each steer's codes,
    read against the state table, become the weight grid W = Gamma exp(j phi) A
    its patterns are sampled from. The codes have the table's bit depth; cuts
    are sampled every ``cut_step_deg``.
    """

    def __init__(self, geom: geometry.ArrayGeometry, carrier_hz: float,
                 table: elements.ElementStateTable, feed_range_m: float, feed_exponent: float,
                 cut_step_deg: float):
        self.geom, self.carrier_hz, self.table = geom, carrier_hz, table
        self.cut_step_deg = cut_step_deg
        self.feed_path, self.illumination = _feed(feed_range_m, feed_exponent, geom, carrier_hz)

    def weights(self, steer_deg: float, plane: str) -> np.ndarray:
        """W of the codes that steer the feed's beam to a signed steer angle in a plane."""
        azimuth = patterns.PLANE_AZIMUTHS[plane] + (0.0 if steer_deg >= 0 else math.pi)
        st = math.sin(math.radians(abs(steer_deg)))
        xe, ye = self.geom.element_grid()
        plane_wave = -(xe * st * math.cos(azimuth) + ye * st * math.sin(azimuth))
        phases = codebook.TWO_PI * (self.feed_path + plane_wave) / wavelength(self.carrier_hz)
        codes = codebook.quantize_phases(phases, self.table.bits)
        return elements.state_coefficients(self.table, codes) * self.illumination

    def cut(self, weights: np.ndarray, plane: str,
            element_exponent: float) -> patterns.RadiationPattern:
        return patterns.principal_cut(weights, self.geom, self.carrier_hz, plane=plane,
                                      step_deg=self.cut_step_deg,
                                      element_exponent=element_exponent)

    def patterns(self, steer_deg: float, planes: list[str], element_exponent: float,
                 loss_budget_db: float):
        """(cuts, metrics) per plane and (directivity_dbi, gain_dbi) of the first plane's beam.

        The peak comes from the first plane's cut, sampled again at the default
        step when the study's is coarser. All computed before a caller writes,
        so a rejected input writes no file.
        """
        weights = [self.weights(steer_deg, plane) for plane in planes]
        cuts = [self.cut(w, plane, element_exponent) for w, plane in zip(weights, planes)]
        metrics = [patterns.pattern_metrics(cut) for cut in cuts]
        peak_cut = cuts[0]
        if self.cut_step_deg > patterns.DEFAULT_CUT_STEP_DEG:  # a coarse cut can miss the peak
            peak_cut = patterns.principal_cut(weights[0], self.geom, self.carrier_hz,
                                              plane=planes[0], element_exponent=element_exponent)
        return cuts, metrics, *patterns.directivity_and_gain(
            weights[0], self.geom, self.carrier_hz, cut=peak_cut,
            element_exponent=element_exponent, loss_budget_db=loss_budget_db)


def steer_sweep(study: SteerStudy, angles: list[float],
                element_exponent: float) -> dict[str, list[tuple[float, float]]]:
    """Scan loss and array-factor peak per plane for beams steered to -angle.

    Each (plane, angle) gets one codebook and one array-factor cut
    (gamma = 0), whose peak gives the pointing. The same cut times the
    element factor cos^gamma(theta) gives the scan loss, taken against the
    first angle's. Returns {plane: [(loss_db, peak_deg) per angle]}.
    """
    sweep = {"E": [], "H": []}
    for plane, results in sweep.items():
        reference = None
        for angle in angles:
            af_cut = study.cut(study.weights(-angle, plane), plane, 0.0)
            cut = af_cut.with_element_factor(element_exponent)
            if reference is None:
                reference = cut
            peak_deg = math.degrees(af_cut.theta[int(np.argmax(af_cut.power[:, 0]))])
            results.append((patterns.scan_loss(reference, cut), peak_deg))
    return sweep


def evaluate_bundle(path: Path, element_table: elements.ElementStateTable):
    """The bundle, the state table its mode reads codes against, each scenario's result,
    and the scenarios whose rate is not their expected one."""
    bundle = scenario_io.load_scenario_bundle(path)
    table = elements.code_table(bundle.bits, bundle.mode, element_table)
    results = [(s, link.evaluate_scenario(s, bundle.geometry, bundle.bits, table=table))
               for s in bundle.scenarios]
    mismatches = [s for s, r in results if s.expected_rate_mbps not in (None, r.rate_mbps)]
    return bundle, table, results, mismatches


@dataclass(frozen=True)
class Verdict:
    """One release criterion judged: its measured value against its window."""

    name: str
    value: float | tuple[float, ...]  # a tuple when every entry must lie in the window
    window: tuple[float, float]
    passed: bool
    detail: str

    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


def judge(name: str, value: float | tuple[float, ...], detail: str, holds: bool = True) -> Verdict:
    """Judge a value against the window of release criterion ``name``.

    It passes when ``holds`` and every entry lies in the window; an empty
    value fails.
    """
    low, high = RELEASE_CRITERIA[name]
    values = value if isinstance(value, tuple) else (value,)
    passed = bool(holds and values and all(low <= v <= high for v in values))
    return Verdict(name, value, (low, high), passed, detail)


@dataclass(frozen=True)
class Campaign:
    """The measured release campaign and one verdict per release criterion."""

    link_results: list
    mismatches: list  # the scenarios of link_results off their expected rate
    losses_db: list[float]  # per bit count in QUANTIZATION_BITS
    broadside: patterns.PatternMetrics
    directivity_dbi: float
    gain_dbi: float
    aperture_efficiency: float
    sweep: dict[str, list[tuple[float, float]]]  # steer_sweep over STEER_ANGLES_DEG
    verdicts: list[Verdict]


def measure_campaign(scenario_path: Path | None, element_table: elements.ElementStateTable,
                     feed_range_m: float, feed_exponent: float, cut_step_deg: float, seed: int,
                     oracle_trials: int) -> Campaign:
    """Measure the release campaign once and judge every release criterion.

    The bundle at ``scenario_path`` (the packaged one if None) is read against
    ``element_table``; the steer study's feed and cut step are the next three.
    Measurements are shared between criteria: the 2-bit loss as written to
    ``quantization_loss.csv`` enters the gain budget, and one steer sweep
    gives both the pointing and the scan loss. The oracle trials draw their
    random 2x2 poses from ``seed``; there must be at least one.
    """
    if oracle_trials < 1:
        raise ConfigError(f"oracle trials must be at least 1, got {oracle_trials}")

    # scenario bundle, and the required-power reduction for its back-to-back rate pair
    path = scenario_path or scenario_io.bundled_scenario_path()
    bundle, table, results, mismatches = evaluate_bundle(path, element_table)
    rows = {s.name: s for s, _ in results}
    missing = [name for name in _POWER_PAIR if name not in rows]
    if missing:
        raise ConfigError(f"{path}: scenario bundle has no {missing[0]!r} row")
    p_direct, p_panel = [link.required_transmit_power(rows[name], bundle.geometry, bundle.bits,
                                                      rate, table=table)
                         for name, rate in _POWER_PAIR.items()]
    delta = p_direct - p_panel

    # quantization loss ladder, judged at the 4 decimals the CSV holds
    carrier = bundle.scenarios[0].carrier_hz
    tx = geometry.Pose.from_spherical(FAR_FIELD_RANGE_M, 0.0, 0.0)
    rx = geometry.Pose.from_spherical(0.05, 0.0, 0.0)
    losses = [beams.quantization_loss(bundle.geometry, tx, rx, carrier, bits)
              for bits in QUANTIZATION_BITS]
    loss1, loss2 = round(losses[0], 4), round(losses[1], 4)

    # broadside pattern metrics and gain estimate; the steer sweep shares the study
    study = SteerStudy(bundle.geometry, carrier, elements.code_table(bundle.bits, "nominal"),
                       feed_range_m, feed_exponent, cut_step_deg)
    budget = element_table.mean_insertion_loss_db() + loss2
    _, (m,), directivity_dbi, gain_dbi = study.patterns(0.0, ["E"], 1.0, budget)
    eff = patterns.aperture_efficiency(gain_dbi, bundle.geometry.aperture_area, carrier)
    eff_meas = 100 * patterns.aperture_efficiency(22.0, 0.0784 * 0.0784, 27.0e9)  # the paper's

    # steering: pointing on array-factor cuts, scan loss with the element factor
    sweep = steer_sweep(study, STEER_ANGLES_DEG, 1.0)
    pointing_error = max(abs(peak_deg + angle)
                         for plane in ("E", "H")
                         for angle, (_, peak_deg) in zip(STEER_ANGLES_DEG, sweep[plane])
                         if angle >= 10.0)
    sixty = (sweep["E"][-1][0], sweep["H"][-1][0])

    # small-panel oracle agreement; the solver may never beat the brute-force optimum
    rng = random.Random(seed)
    small = geometry.ArrayGeometry(2, 2, bundle.geometry.spacing_x, bundle.geometry.spacing_y)
    ideal = elements.ElementStateTable.ideal(2)
    worst, dominated = 0.0, True
    for _ in range(oracle_trials):
        tx = geometry.Pose.from_spherical(rng.uniform(0.5, 3.0), rng.uniform(0, math.pi / 3),
                                          rng.uniform(0, 2 * math.pi))
        rx = geometry.Pose.from_spherical(rng.uniform(0.03, 0.5), rng.uniform(0, math.pi / 3),
                                          rng.uniform(0, 2 * math.pi))
        _, p_solver = beams.optimal_codebook(tx, rx, small, carrier, ideal)
        _, p_oracle = beams.exhaustive_oracle(tx, rx, small, carrier, ideal)
        dominated &= p_oracle >= p_solver * (1 - 1e-12)
        worst = max(worst, 10.0 * math.log10(p_oracle / p_solver))

    verdicts = [
        judge("scenario rates", len(mismatches), f"{len(results)} rows from {path.name}"
              + (f"; mismatches: {[s.name for s in mismatches]}" if mismatches else "")),
        judge("transmit-power reduction", delta,
              f"{p_direct:.1f} dBm for 1024 Mbps direct vs {p_panel:.1f} dBm for 1121 Mbps "
              f"with panel: {delta:.2f} dB saved"),
        judge("2-bit quantization loss", loss2,
              f"{loss2:.3f} dB (closed form {beams.uniform_phase_loss_db(2):.3f} dB)"),
        judge("1-bit quantization loss", loss1, f"{loss1:.3f} dB"),
        judge("broadside sidelobes", m.sidelobe_level_db, f"SLL {m.sidelobe_level_db:.2f} dB"),
        judge("broadside beamwidth", m.hpbw_deg, f"HPBW {m.hpbw_deg:.2f} deg"),
        judge("broadside gain", gain_dbi,
              f"directivity {directivity_dbi:.2f} dBi - {budget:.2f} dB budget = "
              f"{gain_dbi:.2f} dBi (aperture efficiency {100 * eff:.1f}%)"),
        judge("aperture-efficiency identity", eff_meas,
              f"22.0 dBi over 78.4x78.4 mm at 27 GHz -> {eff_meas:.2f}%"),
        judge("steered pointing", pointing_error,
              "array-factor peaks within 1 deg of target, both planes"),
        judge("60-deg scan loss", sixty,
              f"E {sixty[0]:.3f} dB, H {sixty[1]:.3f} dB (window 2.5..6.0)"),
        judge("codebook-vs-oracle gap", worst,
              f"worst gap {worst:.4f} dB over {oracle_trials} random 2x2 poses (seed {seed})",
              holds=dominated),
    ]
    return Campaign(results, mismatches, losses, m, directivity_dbi, gain_dbi, eff, sweep,
                    verdicts)
