"""Acceptance suite: every release criterion, judged by the one registry.

The criteria, their windows and their measurement live in
``rissim.campaign`` (``RELEASE_CRITERIA`` and ``measure_campaign``), which
``rissim reproduce`` runs too. Here the campaign is measured once, with
100 oracle trials at a fixed seed, and each test asserts the verdicts of
one criterion. ``WINDOWS`` pins every window, so loosening one in the
package fails this suite. Criterion 8 and the closed-form pins are
independent references computed here.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL line
and the measured value for every criterion.
"""

import math

import numpy as np
import pytest

from rissim import (
    ArrayGeometry,
    Pose,
    cartesian_to_spherical,
    coherent_power_bound,
    default_element_table,
    optimal_phases,
    quantize_phases,
    received_power,
    spherical_to_cartesian,
)
from rissim.campaign import (DEFAULT_FEED_EXPONENT, DEFAULT_FEED_RANGE_M, RELEASE_CRITERIA,
                             measure_campaign)
from rissim.cli import build_parser

CARRIER_HZ = 27.0e9
PANEL = ArrayGeometry(16, 16)
RX_NEAR = Pose.from_spherical(0.05, 0.0, 0.0)

ORACLE_TRIALS = 100
SEED = 20260810


def closed_form_loss_db(bits: int) -> float:
    half_cell = math.pi / (1 << bits)
    return -20.0 * math.log10(math.sin(half_cell) / half_cell)


WINDOWS = {
    "scenario rates": (0.0, 0.0),
    "transmit-power reduction": (7.0, 10.5),
    "2-bit quantization loss": (closed_form_loss_db(2) - 0.3, 1.0),
    "1-bit quantization loss": (3.0, 4.5),
    "broadside sidelobes": (-math.inf, -18.0),
    "broadside beamwidth": (6.0, 10.0),
    "broadside gain": (22.0 - 2.0, 22.0 + 2.0),
    "aperture-efficiency identity": (25.3 - 0.1, 25.3 + 0.1),
    "steered pointing": (-math.inf, 1.0),
    "60-deg scan loss": (2.5, 6.0),
    "codebook-vs-oracle gap": (-math.inf, 0.05),
}


@pytest.fixture(scope="module")
def verdicts():
    campaign = measure_campaign(None, default_element_table(), DEFAULT_FEED_RANGE_M,
                                DEFAULT_FEED_EXPONENT, 0.25, SEED, ORACLE_TRIALS)
    return {v.name: v for v in campaign.verdicts}


def report(verdicts, *names: str) -> None:
    for name in names:
        print(verdicts[name].line())
    failed = [verdicts[name].line() for name in names if not verdicts[name].passed]
    assert not failed, f"release criteria failed: {failed}"


def test_windows_trials_and_seed_pinned(verdicts):
    assert list(RELEASE_CRITERIA) == list(WINDOWS) == list(verdicts)
    for name, (low, high) in WINDOWS.items():
        assert RELEASE_CRITERIA[name] == pytest.approx((low, high), rel=1e-12, abs=0.0), name
        assert verdicts[name].window == RELEASE_CRITERIA[name]
    assert verdicts["codebook-vs-oracle gap"].detail.endswith(
        f"over {ORACLE_TRIALS} random 2x2 poses (seed {SEED})")
    assert build_parser().parse_args(["reproduce"]).oracle_trials == 20


def test_criterion_1_aperture_efficiency_identity(verdicts):
    report(verdicts, "aperture-efficiency identity")


def test_criterion_2_quantization_loss(verdicts):
    report(verdicts, "2-bit quantization loss", "1-bit quantization loss")
    assert closed_form_loss_db(2) == pytest.approx(0.912, abs=1e-3)
    assert closed_form_loss_db(1) == pytest.approx(3.92, abs=5e-3)


def test_criterion_3_pattern_suite(verdicts):
    report(verdicts, "broadside sidelobes", "broadside beamwidth", "steered pointing",
           "60-deg scan loss")


def test_criterion_4_gain_estimate(verdicts):
    report(verdicts, "broadside gain")


def test_criterion_5_power_reduction(verdicts):
    report(verdicts, "transmit-power reduction")


def test_criterion_6_scenario_reproduction(verdicts):
    report(verdicts, "scenario rates")


def test_criterion_7_oracle_equivalence(verdicts):
    report(verdicts, "codebook-vs-oracle gap")


def test_criterion_8_numerical_identities(desk_gains):
    # coherent closed form vs direct complex summation
    tx = Pose.from_spherical(2.6, 0.2, 0.4)
    phases = optimal_phases(tx, RX_NEAR, PANEL, CARRIER_HZ)
    direct = received_power(1.0, CARRIER_HZ, desk_gains, PANEL, np.exp(1j * phases), tx, RX_NEAR)
    bound = coherent_power_bound(1.0, CARRIER_HZ, desk_gains, PANEL, tx, RX_NEAR)
    coherent_rel = abs(direct - bound) / bound
    coherent_ok = coherent_rel <= 1e-9

    # coordinate round trips
    rng = np.random.default_rng(7)
    worst_rt = 0.0
    for _ in range(10_000):
        x, y, z = rng.uniform(-10, 10, size=3)
        d, th, ph = cartesian_to_spherical(x, y, z)
        xx, yy, zz = spherical_to_cartesian(d, th, ph)
        worst_rt = max(worst_rt, max(abs(xx - x), abs(yy - y), abs(zz - z)) / max(d, 1e-30))
    round_trip_ok = worst_rt <= 1e-12

    # quantizer error bound over a million random phases per bit depth
    quant_ok = True
    for bits in (1, 2, 3, 8):
        phases_rand = rng.uniform(-40.0, 40.0, size=1_000_000)
        codes = quantize_phases(phases_rand, bits)
        grid = codes * (2 * math.pi / (1 << bits))
        err = np.abs((phases_rand - grid + math.pi) % (2 * math.pi) - math.pi)
        quant_ok &= bool(np.all(err <= math.pi / (1 << bits) + 1e-9))

    ok = coherent_ok and round_trip_ok and quant_ok
    detail = (f"coherent-sum agreement {coherent_rel:.2e} (cap 1e-9), coordinate round-trip "
              f"{worst_rt:.2e} (cap 1e-12), quantizer bound held on 4x10^6 trials: {quant_ok}")
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance 8: {detail}")
    assert ok, f"acceptance criterion 8 failed: {detail}"
