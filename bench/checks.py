"""Correctness checks for the benchmark's ops, computed apart from rissim.

Each check returns a list of ``(kind, message)`` failures; an empty list
means the op's outputs are correct. The references here are written from
the model's stated physics (Friis, the coherent-sum bound, the array sum
with a spherical feed), not from rissim's functions, and none compares
with a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np

SPEED_OF_LIGHT = 299792458.0
THERMAL_NOISE_DBM_PER_HZ = -174.0
MAX_TRANSMIT_POWER_DBM = 60.0
POWER_STEP_DB = 0.1  # required_transmit_power's stated tolerance

# The kind of the one known fault that the link workload counts as failed.
UNDERSHOOT = "required_power_undershoot"

# Defaults of `rissim pattern`: 16x16 panel at 4.9 mm, 27 GHz, 2-bit nominal
# codes, feed horn of 12.7 dBi at 5 cm on the axis, cos(theta) element
# factor, 0.25-degree cuts, steer target at 100 m.
PATTERN_NUM = 16
PATTERN_SPACING_M = 4.9e-3
PATTERN_CARRIER_HZ = 27.0e9
PATTERN_FEED_RANGE_M = 0.05
PATTERN_FEED_GAIN_DBI = 12.7
PATTERN_CUT_STEP_DEG = 0.25
PATTERN_BITS = 2
CSV_POWER_PRECISION_DB = 1e-6  # power_db_normalized is printed with 6 decimals


def pattern_exponent(gain_dbi: float) -> float:
    """q of a cos^q power pattern whose directivity is 2(q + 1)."""
    return 10.0 ** (gain_dbi / 10.0) / 2.0 - 1.0


def noise_floor_dbm(bandwidth_hz: float, noise_figure_db: float) -> float:
    return THERMAL_NOISE_DBM_PER_HZ + 10.0 * math.log10(bandwidth_hz) + noise_figure_db


def mcs_rate(rows: list[dict], snr_db: float) -> float:
    """Rate of the highest MCS step whose threshold the SNR reaches, else 0."""
    rate = 0.0
    for row in sorted(rows, key=lambda r: float(r["min_snr_db"])):
        if snr_db >= float(row["min_snr_db"]):
            rate = float(row["rate_mbps"])
    return rate


def cartesian(pose: dict) -> np.ndarray:
    """Face-local (x, y, z) of a scenario pose given in meters and degrees."""
    r = float(pose["range_m"])
    th = math.radians(float(pose.get("polar_deg", 0.0)))
    ph = math.radians(float(pose.get("azimuth_deg", 0.0)))
    return np.array([r * math.sin(th) * math.cos(ph), r * math.sin(th) * math.sin(ph),
                     r * math.cos(th)])


def direct_power_w(point: dict) -> float:
    """Friis power of the horn-to-horn link with both horns aimed at the panel.

    The receiver pose is face-local on the far face, so it is mirrored
    through the panel plane. Each horn's cos^q pattern is taken at the angle
    between its boresight (toward the panel center) and the line to the
    other horn. The obstacle, if any, attenuates this path once.
    """
    tx = cartesian(point["tx_pose"])
    rx = cartesian(point["rx_pose"]) * np.array([1.0, 1.0, -1.0])
    sep = rx - tx
    d = float(np.linalg.norm(sep))
    cos_tx = float(np.dot(-tx / np.linalg.norm(tx), sep / d))
    cos_rx = float(np.dot(-rx / np.linalg.norm(rx), -sep / d))
    gains = point["gains"]
    pattern = (max(cos_tx, 0.0) ** pattern_exponent(float(gains["tx_dbi"]))
               * max(cos_rx, 0.0) ** pattern_exponent(float(gains["rx_dbi"])))
    lam = SPEED_OF_LIGHT / float(point["carrier_hz"])
    p_tx = 10.0 ** ((float(point["transmit_power_dbm"]) - 30.0) / 10.0)
    g = 10.0 ** ((float(gains["tx_dbi"]) + float(gains["rx_dbi"])) / 10.0)
    return p_tx * g * pattern * (lam / (4.0 * math.pi * d)) ** 2 * obstacle_factor(point)


def coherent_bound_w(point: dict, geometry: dict) -> float:
    """Upper bound on the panel link: every element lossless and in phase.

    P_t G F lambda^2 / (16 pi^2) (sum 1 / (d_t d_r))^2 with G the four
    gains, F both panel-face patterns at their endpoint's polar angle, and
    exact element-to-endpoint distances, times the obstacle factor.
    """
    xs = (np.arange(int(geometry["num_x"])) - (int(geometry["num_x"]) - 1) / 2.0) * float(
        geometry["spacing_x_m"])
    ys = (np.arange(int(geometry["num_y"])) - (int(geometry["num_y"]) - 1) / 2.0) * float(
        geometry["spacing_y_m"])
    xe, ye = np.meshgrid(xs, ys, indexing="ij")
    tx, rx = cartesian(point["tx_pose"]), cartesian(point["rx_pose"])
    dt = np.sqrt((tx[0] - xe) ** 2 + (tx[1] - ye) ** 2 + tx[2] ** 2)
    dr = np.sqrt((rx[0] - xe) ** 2 + (rx[1] - ye) ** 2 + rx[2] ** 2)
    gains = point["gains"]
    g = 10.0 ** (sum(float(gains[k]) for k in ("tx_dbi", "rx_dbi", "ris_rx_side_dbi",
                                                 "ris_tx_side_dbi")) / 10.0)
    f = (max(math.cos(math.radians(float(point["tx_pose"].get("polar_deg", 0.0)))), 0.0)
         ** pattern_exponent(float(gains["ris_rx_side_dbi"]))
         * max(math.cos(math.radians(float(point["rx_pose"].get("polar_deg", 0.0)))), 0.0)
         ** pattern_exponent(float(gains["ris_tx_side_dbi"])))
    lam = SPEED_OF_LIGHT / float(point["carrier_hz"])
    p_tx = 10.0 ** ((float(point["transmit_power_dbm"]) - 30.0) / 10.0)
    total = float(np.sum(1.0 / (dt * dr)))
    return p_tx * g * f * lam**2 / (16.0 * math.pi**2) * total**2 * obstacle_factor(point)


def obstacle_factor(point: dict) -> float:
    obstacle = point.get("obstacle")
    if obstacle is None:
        return 1.0
    return 10.0 ** (-float(obstacle["attenuation_db"]) / 10.0)


def check_link(point: dict, geometry: dict, mcs_rows: list[dict], received_power_dbm: float,
               snr_db: float, rate_mbps: float) -> list[tuple[str, str]]:
    """Check one evaluate_scenario result against the independent link budget.

    ``point`` is the scenario as written to the bundle, with the bundle's
    defaults merged in.
    """
    name = point["name"]
    failures = []
    if point["ris_present"]:
        bound = coherent_bound_w(point, geometry)
        p_w = 0.0 if received_power_dbm == -math.inf else 10.0 ** ((received_power_dbm - 30.0) / 10.0)
        if not p_w <= bound * (1.0 + 1e-9):
            failures.append(("panel_power", f"{name}: panel power {received_power_dbm:.6f} dBm "
                             f"exceeds the coherent bound {10 * math.log10(bound) + 30:.6f} dBm"))
    else:
        expected = direct_power_w(point)
        if expected == 0.0:
            ok = received_power_dbm == -math.inf
        else:
            ok = abs(received_power_dbm - (10.0 * math.log10(expected) + 30.0)) <= 1e-6
        if not ok:
            failures.append(("direct_power", f"{name}: direct power {received_power_dbm:.6f} dBm, "
                             f"Friis gives {10 * math.log10(max(expected, 1e-300)) + 30:.6f} dBm"))
    floor = noise_floor_dbm(float(point["bandwidth_hz"]), float(point.get("noise_figure_db", 0.0)))
    if received_power_dbm == -math.inf:
        snr_ok = snr_db == -math.inf
    else:
        snr_ok = abs(snr_db - (received_power_dbm - floor)) <= 1e-9
    if not snr_ok:
        failures.append(("snr", f"{name}: SNR {snr_db} dB is not power {received_power_dbm} dBm "
                         f"minus the {floor:.3f} dBm floor"))
    expected_rate = mcs_rate(mcs_rows, snr_db)
    if rate_mbps != expected_rate:
        failures.append(("rate", f"{name}: rate {rate_mbps} Mbps at SNR {snr_db:.3f} dB, "
                         f"the MCS step is {expected_rate} Mbps"))
    return failures


def check_required_power(name: str, target_mbps: float, power_dbm: float | None, rate_at) -> list[tuple[str, str]]:
    """Check a required_transmit_power answer by evaluating the link around it.

    ``power_dbm`` is None when the search raised InfeasibleTargetError, which
    is right only if the cap of 60 dBm misses the rate. Otherwise the rate
    must be reached at the returned power and missed 0.1 dB below it.
    ``rate_at(p)`` evaluates the scenario at transmit power ``p`` dBm.
    """
    label = f"{name} @ {target_mbps:.0f} Mbps"
    if power_dbm is None:
        rate = rate_at(MAX_TRANSMIT_POWER_DBM)
        if rate >= target_mbps:
            return [("infeasible", f"{label}: declared infeasible, yet {MAX_TRANSMIT_POWER_DBM} dBm "
                     f"gives {rate:.0f} Mbps")]
        return []
    failures = []
    rate = rate_at(power_dbm)
    if rate < target_mbps:
        failures.append((UNDERSHOOT, f"{label}: {power_dbm:.4f} dBm returned, which gives only "
                         f"{rate:.0f} Mbps"))
    below = rate_at(power_dbm - POWER_STEP_DB)
    if below >= target_mbps:
        failures.append(("not_minimal", f"{label}: {power_dbm - POWER_STEP_DB:.4f} dBm already "
                         f"gives {below:.0f} Mbps"))
    return failures


def steer_direction(steer_deg: float, plane: str) -> tuple[float, float]:
    """(u, v) of the far-field steer target for a signed angle in a principal plane."""
    azimuth = (0.0 if plane == "E" else math.pi / 2.0) + (0.0 if steer_deg >= 0 else math.pi)
    s = math.sin(math.radians(abs(steer_deg)))
    return s * math.cos(azimuth), s * math.sin(azimuth)


def reference_cut(steer_deg: float, plane: str) -> tuple[np.ndarray, np.ndarray]:
    """(theta_deg, normalized power dB) of a steered principal cut, by direct array sum.

    The codes quantize, to the nearest of the 2-bit phases, the phase that
    cancels the spherical feed path (relative to the center path) plus the
    plane-wave path toward the target. The field sums every element's feed
    excitation cos^q(psi) exp(-jkd)/d, code phase and propagation phase, and
    is weighted by the cos(theta) element factor.
    """
    k = 2.0 * math.pi * PATTERN_CARRIER_HZ / SPEED_OF_LIGHT
    offsets = (np.arange(PATTERN_NUM) - (PATTERN_NUM - 1) / 2.0) * PATTERN_SPACING_M
    xe, ye = np.meshgrid(offsets, offsets, indexing="ij")
    zf = PATTERN_FEED_RANGE_M
    d_feed = np.sqrt(xe**2 + ye**2 + zf**2)
    feed = (zf / d_feed) ** pattern_exponent(PATTERN_FEED_GAIN_DBI) * np.exp(-1j * k * d_feed) / d_feed
    u0, v0 = steer_direction(steer_deg, plane)
    phase = np.mod(k * (d_feed - zf) - k * (xe * u0 + ye * v0), 2.0 * math.pi)
    step = 2.0 * math.pi / (1 << PATTERN_BITS)
    codes = np.mod(np.ceil(phase / step - 0.5), 1 << PATTERN_BITS)
    weights = (np.exp(1j * codes * step) * feed).reshape(-1)
    n = int(round(180.0 / PATTERN_CUT_STEP_DEG))
    theta = np.radians(np.linspace(-90.0, 90.0, n + 1))
    phi = 0.0 if plane == "E" else math.pi / 2.0
    u = np.sin(theta) * math.cos(phi)
    v = np.sin(theta) * math.sin(phi)
    field = np.exp(1j * k * (np.outer(u, xe.reshape(-1)) + np.outer(v, ye.reshape(-1)))) @ weights
    power = np.abs(field * np.cos(theta)) ** 2
    db = 10.0 * np.log10(np.maximum(power / power.max(), 1e-30))
    return np.degrees(theta), db


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_pattern(out_dir: Path, steer_deg: float) -> list[tuple[str, str]]:
    """Check `rissim pattern --plane both` outputs against the direct array sum."""
    failures = []
    metrics = {row["plane"]: row for row in read_csv(out_dir / "pattern_metrics.csv")}
    for plane in ("E", "H"):
        theta_deg, ref_db = reference_cut(steer_deg, plane)
        rows = read_csv(out_dir / f"pattern_cut_{plane.lower()}.csv")
        if len(rows) != theta_deg.size:
            failures.append(("cut", f"{plane} cut has {len(rows)} samples, expected {theta_deg.size}"))
            continue
        got_theta = np.array([float(r["theta_deg"]) for r in rows])
        got_db = np.array([float(r["power_db_normalized"]) for r in rows])
        if np.any(np.abs(got_theta - theta_deg) > 1e-4):
            failures.append(("cut", f"{plane} cut theta grid differs from the 0.25-degree grid"))
        worst = int(np.argmax(np.abs(got_db - ref_db)))
        if abs(got_db[worst] - ref_db[worst]) > CSV_POWER_PRECISION_DB:
            failures.append(("cut", f"{plane} cut at {theta_deg[worst]:.2f} deg: "
                             f"{got_db[worst]:.6f} dB, array sum {ref_db[worst]:.6f} dB"))
        peak = f"{theta_deg[int(np.argmax(ref_db))]:.3f}"
        if plane not in metrics or metrics[plane]["peak_direction_deg"] != peak:
            got = metrics.get(plane, {}).get("peak_direction_deg")
            failures.append(("peak", f"{plane} peak direction {got}, array-sum argmax {peak}"))
    return failures


def uniform_phase_loss_db(bits: int) -> float:
    """Quantization loss of b-bit phases with uniformly distributed error."""
    x = math.pi / (1 << bits)
    return -20.0 * math.log10(math.sin(x) / x)


def csv_digests(out_dir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.glob("*.csv"))}


def check_reproduce(out_dir: Path, returncode: int, bundle: dict,
                    reference_digests: dict[str, str]) -> list[tuple[str, str]]:
    """Check one `rissim reproduce` run: exit code, rates, losses, pointing, bound, bytes.

    ``bundle`` is the packaged scenario bundle as parsed YAML;
    ``reference_digests`` are the CSV digests of an earlier op of the run.
    """
    if returncode != 0:
        return [("exit", f"reproduce exited with {returncode}: a built-in check failed")]
    failures = []
    expected = {s["name"]: float(s["expected_rate_mbps"]) for s in bundle["scenarios"]}
    rows = read_csv(out_dir / "link_report.csv")
    got = {r["name"]: float(r["rate_mbps"]) for r in rows}
    if got != expected:
        bad = sorted(n for n in expected.keys() | got.keys() if got.get(n) != expected.get(n))
        failures.append(("link_rates", f"link_report.csv rates differ from the bundle on {bad}"))

    losses = {int(r["bits_count"]): float(r["loss_db"]) for r in read_csv(out_dir / "quantization_loss.csv")}
    ladder = [losses[b] for b in sorted(losses)]
    if any(b >= a for a, b in zip(ladder, ladder[1:])):
        failures.append(("quant_loss", f"quantization loss does not fall with bits: {ladder}"))
    if 2 not in losses or abs(losses[2] - uniform_phase_loss_db(2)) > 0.3:
        failures.append(("quant_loss", f"2-bit loss {losses.get(2)} dB is not within 0.3 dB of "
                         f"{uniform_phase_loss_db(2):.3f} dB"))

    for r in read_csv(out_dir / "scan_loss.csv"):
        if abs(float(r["af_peak_deg"]) + float(r["steer_deg"])) > 1.0:
            failures.append(("pointing", f"{r['plane']}-plane steer {r['steer_deg']} deg: "
                             f"array-factor peak at {r['af_peak_deg']} deg"))

    geometry = bundle["geometry"]
    area = (int(geometry["num_x"]) * float(geometry["spacing_x_m"])
            * int(geometry["num_y"]) * float(geometry["spacing_y_m"]))
    lam = SPEED_OF_LIGHT / float(bundle["defaults"]["carrier_hz"])
    bound_dbi = 10.0 * math.log10(4.0 * math.pi * area / lam**2)
    for r in read_csv(out_dir / "pattern_metrics.csv"):
        if float(r["directivity_dbi"]) > bound_dbi:
            failures.append(("directivity", f"directivity {r['directivity_dbi']} dBi exceeds the "
                             f"uniform-aperture bound {bound_dbi:.2f} dBi"))

    digests = csv_digests(out_dir)
    if digests != reference_digests:
        changed = sorted(n for n in digests.keys() | reference_digests.keys()
                         if digests.get(n) != reference_digests.get(n))
        failures.append(("bytes", f"CSVs differ from the first op of the run: {changed}"))
    return failures
