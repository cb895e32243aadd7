#!/usr/bin/env python3
"""Regenerate the shipped scenario bundle and its calibrated MCS thresholds.

The SNR-to-rate thresholds are not derivable from the measurement campaign
(the modem chain is out of scope), so they are calibrated once against this
model: compute the model SNR of every operating point, then place each
threshold midway between the operating points it must separate. The obstacle
attenuation is likewise chosen from its feasible window (it must zero the
direct link yet leave the panel link at max rate).

Writes src/rissim/data/tables_4_5_6.scenario. Rerun after any model change
that shifts link SNRs, then rerun the test suite.
"""

import math
from pathlib import Path

from rissim import (
    ArrayGeometry,
    GainProfile,
    LinkScenario,
    MCSRow,
    MCSTable,
    Obstacle,
    Pose,
    code_table,
    evaluate_scenario,
)

OUT = Path(__file__).resolve().parents[1] / "src" / "rissim" / "data" / "tables_4_5_6.scenario"

GEOM = ArrayGeometry(num_x=16, num_y=16, spacing_x=4.9e-3, spacing_y=4.9e-3)
BITS = 2
MODE = "realized"
TABLE = code_table(BITS, MODE)  # the state table the bundle's codes are read against
CARRIER_HZ = 27.0e9
BANDWIDTH_HZ = 800.0e6
NOISE_FIGURE_DB = 5.0
TX_RANGE_M = 2.6  # transmitter-to-panel (obstacle at 2.4 m + 0.2 m)
RX_RANGE_M = 0.05
GAINS = GainProfile(
    tx_gain_dbi=22.7, rx_gain_dbi=9.2, ris_rx_side_gain_dbi=5.0, ris_tx_side_gain_dbi=5.0
)
STEER_DEG = 30.0
RATE_LADDER_MBPS = (450.0, 1024.0, 1121.0, 1683.0)
# measured power pair: 13.6 dBm without the panel vs 5.4 dBm with it
P_HIGH_DBM = 13.6
P_LOW_DBM = 5.4
TARGET_POWER_DELTA_DB = 8.75  # required-power reduction the thresholds encode

_DUMMY_MCS = MCSTable(rows=(MCSRow(min_snr_db=0.0, rate_mbps=1.0),))


def model_snr(ris_present: bool, steer_deg: float, power_dbm: float) -> float:
    scenario = LinkScenario(
        transmit_power_dbm=power_dbm,
        carrier_hz=CARRIER_HZ,
        bandwidth_hz=BANDWIDTH_HZ,
        noise_figure_db=NOISE_FIGURE_DB,
        gains=GAINS,
        tx_pose=Pose.from_spherical(TX_RANGE_M, math.radians(steer_deg), 0.0),
        rx_pose=Pose.from_spherical(RX_RANGE_M, 0.0, 0.0),
        ris_present=ris_present,
        mcs=_DUMMY_MCS,
    )
    return evaluate_scenario(scenario, GEOM, BITS, table=TABLE).snr_db


def main() -> None:
    a0 = model_snr(False, 0.0, P_HIGH_DBM)
    a30 = model_snr(False, STEER_DEG, P_HIGH_DBM)
    b0 = model_snr(True, 0.0, P_HIGH_DBM)
    b30 = model_snr(True, STEER_DEG, P_HIGH_DBM)
    b_low = model_snr(True, 0.0, P_LOW_DBM)
    misalign = a0 - a30
    steer_drop = b0 - b30

    print(f"direct link SNR @{P_HIGH_DBM} dBm: broadside {a0:.3f} dB, "
          f"{STEER_DEG:.0f} deg {a30:.3f} dB (misalignment {misalign:.3f} dB)")
    print(f"panel link SNR @{P_HIGH_DBM} dBm: broadside {b0:.3f} dB, "
          f"{STEER_DEG:.0f} deg {b30:.3f} dB (steer drop {steer_drop:.3f} dB)")
    print(f"panel link SNR @{P_LOW_DBM} dBm: {b_low:.3f} dB")

    # Obstacle window: deep enough to silence the steered direct link's 450
    # Mbps threshold, shallow enough that the obstructed panel link still
    # clears the max-rate threshold placed above the low-power operating point.
    window_lo = misalign
    window_hi = (P_HIGH_DBM - P_LOW_DBM) - steer_drop
    obstacle_db = round(0.5 * (window_lo + window_hi), 1)
    print(f"obstacle window ({window_lo:.2f}, {window_hi:.2f}) dB -> {obstacle_db} dB")

    t_450 = a0 - 0.5 * (misalign + obstacle_db)
    t_1024 = a0 - 0.5 * misalign
    t_1024 = min(t_1024, a0)  # threshold may not exceed the operating point
    t_1121 = (t_1024 - a0) + b0 - TARGET_POWER_DELTA_DB
    t_1683 = 0.5 * (b_low + (b30 - obstacle_db))
    thresholds = dict(zip(RATE_LADDER_MBPS, (t_450, t_1024, t_1121, t_1683)))
    for rate, thr in thresholds.items():
        print(f"threshold {rate:6.0f} Mbps: {thr:.3f} dB SNR")

    margins = {
        "450 row": a30 - t_450,
        "1024 row": a0 - t_1024,
        "1121 row": b_low - t_1121,
        "1121 below 1683": t_1683 - b_low,
        "1683 obstructed+steered": (b30 - obstacle_db) - t_1683,
        "blocked direct": t_450 - (a0 - obstacle_db),
    }
    worst = min(margins.items(), key=lambda kv: kv[1])
    for name, margin in margins.items():
        print(f"margin {name}: {margin:+.3f} dB")
    if worst[1] <= 0.3:
        raise SystemExit(f"calibration margin too thin: {worst[0]} = {worst[1]:.3f} dB")

    mcs_rows = "\n".join(
        f"  - {{min_snr_db: {thresholds[r]:.3f}, rate_mbps: {r:.0f}, label: MCS-{i + 1}}}"
        for i, r in enumerate(RATE_LADDER_MBPS)
    )
    obstacle_line = f"{{attenuation_db: {obstacle_db}, position: tx_side}}"
    rows = [
        # (name, power, ris, obstacle, steer, expected rate)
        ("array_gain_without_panel", P_HIGH_DBM, False, False, 0.0, 1024),
        ("array_gain_with_panel", P_LOW_DBM, True, False, 0.0, 1121),
        ("rate_clear_without_panel", P_HIGH_DBM, False, False, 0.0, 1024),
        ("rate_clear_with_panel", P_HIGH_DBM, True, False, 0.0, 1683),
        ("rate_blocked_without_panel", P_HIGH_DBM, False, True, 0.0, 0),
        ("rate_blocked_with_panel", P_HIGH_DBM, True, True, 0.0, 1683),
        ("steer_clear_without_panel", P_HIGH_DBM, False, False, STEER_DEG, 450),
        ("steer_clear_with_panel", P_HIGH_DBM, True, False, STEER_DEG, 1683),
        ("steer_blocked_without_panel", P_HIGH_DBM, False, True, STEER_DEG, 0),
        ("steer_blocked_with_panel", P_HIGH_DBM, True, True, STEER_DEG, 1683),
    ]
    scenario_blocks = []
    for name, power, ris, obstructed, steer, rate in rows:
        lines = [
            f"  - name: {name}",
            f"    transmit_power_dbm: {power}",
            f"    ris_present: {str(ris).lower()}",
        ]
        if obstructed:
            lines.append(f"    obstacle: {obstacle_line}")
        if steer:
            lines.append(
                f"    tx_pose: {{range_m: {TX_RANGE_M}, polar_deg: {steer}, azimuth_deg: 0.0}}"
            )
        lines.append(f"    expected_rate_mbps: {rate}")
        scenario_blocks.append("\n".join(lines))
    scenarios = "\n".join(scenario_blocks)

    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(f"""\
# Desk-scale measurement campaign: array-gain, obstacle, and beam-steering
# rows at {CARRIER_HZ / 1e9:.1f} GHz. MCS thresholds are calibrated against this
# model (see scripts/calibrate_mcs.py); the rate column reproduces the
# measured operating points, it does not predict them from first principles.
description: calibrated desk-scale link campaign ({GEOM.num_x}x{GEOM.num_y} panel)
geometry: {{num_x: {GEOM.num_x}, num_y: {GEOM.num_y}, spacing_x_m: {GEOM.spacing_x}, spacing_y_m: {GEOM.spacing_y}}}
bits: {BITS}
mode: {MODE}
mcs:
{mcs_rows}
defaults:
  transmit_power_dbm: {P_HIGH_DBM}
  carrier_hz: {CARRIER_HZ}
  bandwidth_hz: {BANDWIDTH_HZ}
  noise_figure_db: {NOISE_FIGURE_DB}
  gains: {{tx_dbi: {GAINS.tx_gain_dbi}, rx_dbi: {GAINS.rx_gain_dbi}, ris_rx_side_dbi: {GAINS.ris_rx_side_gain_dbi}, ris_tx_side_dbi: {GAINS.ris_tx_side_gain_dbi}}}
  tx_pose: {{range_m: {TX_RANGE_M}, polar_deg: 0.0, azimuth_deg: 0.0}}
  rx_pose: {{range_m: {RX_RANGE_M}, polar_deg: 0.0, azimuth_deg: 0.0}}
scenarios:
{scenarios}
""")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
