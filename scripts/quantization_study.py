#!/usr/bin/env python3
"""Quantization-loss study: coarse phase bits vs received-power penalty.

Sweeps the bit depth on the desk-scale geometry (far-field transmitter,
receiver 50 mm behind the panel) and compares against the uniform-phase
closed form sinc(pi/2^b)^-2. Also spot-checks the offset-swept codebook
against the exhaustive optimum on a 2x2 panel.

Usage: python scripts/quantization_study.py [outdir]
"""

import csv
import math
import sys
from pathlib import Path

import numpy as np

from rissim import (
    ArrayGeometry,
    BeamSpec,
    Pose,
    exhaustive_oracle,
    quantization_loss,
    sweep_phase_offset,
    uniform_phase_loss_db,
    unity_gain_profile,
)

CARRIER_HZ = 27.0e9
PANEL = ArrayGeometry(16, 16)
SPEC = BeamSpec(tx=Pose.from_spherical(100.0, 0.0, 0.0),
                rx=Pose.from_spherical(0.05, 0.0, 0.0))


def main() -> None:
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("quantization_study_out")
    outdir.mkdir(parents=True, exist_ok=True)

    rows = []
    for bits in range(1, 7):
        loss = quantization_loss(PANEL, SPEC, CARRIER_HZ, bits)
        closed_form = uniform_phase_loss_db(bits)
        rows.append((bits, loss, closed_form))
        print(f"b={bits}: loss {loss:.4f} dB (closed form {closed_form:.4f} dB)")
    with open(outdir / "loss_vs_bits.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bits_count", "loss_db", "uniform_phase_closed_form_db"])
        writer.writerows((b, f"{l:.4f}", f"{c:.4f}") for b, l, c in rows)

    rng = np.random.default_rng(0)
    small = ArrayGeometry(2, 2)
    profile = unity_gain_profile()
    worst = 0.0
    for _ in range(100):
        tx = Pose.from_spherical(rng.uniform(0.5, 3.0), rng.uniform(0, math.pi / 3),
                                 rng.uniform(0, 2 * math.pi))
        rx = Pose.from_spherical(rng.uniform(0.03, 0.5), rng.uniform(0, math.pi / 3),
                                 rng.uniform(0, 2 * math.pi))
        spec = BeamSpec(tx=tx, rx=rx)
        _, p_sweep, _ = sweep_phase_offset(spec, small, CARRIER_HZ, 2,
                                           profile=profile, samples=64)
        _, p_oracle = exhaustive_oracle(spec, small, CARRIER_HZ, 2, profile=profile)
        worst = max(worst, 10 * math.log10(p_oracle / p_sweep))
    print(f"offset-swept codebook vs exhaustive optimum (100 random 2x2 poses): "
          f"worst gap {worst:.6f} dB")
    print(f"results written to {outdir}")


if __name__ == "__main__":
    main()
