"""Tests of the benchmark's checks and tracer, apart from the tier-1 suite.

Run from the repository root with ``python -m pytest bench``. Each check
must accept today's correct outputs and reject a perturbed one.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
from pathlib import Path

import pytest
import yaml

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import rissim  # noqa: E402
import rissim.cli  # noqa: E402
from rissim.errors import InfeasibleTargetError  # noqa: E402

import checks  # noqa: E402
import worker  # noqa: E402


@pytest.fixture(scope="module")
def link(tmp_path_factory):
    workload = worker.LinkSweep(seed=7, work=tmp_path_factory.mktemp("link"), tracer=None)
    workload.setup()
    return workload


def kinds(failures):
    return {kind for kind, _ in failures}


def test_link_check_rejects_direct_power_off_by_a_hundredth_db(link):
    (panel, direct), _ = link.op(0)
    point = link.points[1]
    assert not point["ris_present"]
    args = (point, link.raw["geometry"], link.raw["mcs"])
    assert checks.check_link(*args, direct.received_power_dbm, direct.snr_db, direct.rate_mbps) == []
    assert checks.check_link(link.points[0], link.raw["geometry"], link.raw["mcs"],
                             panel.received_power_dbm, panel.snr_db, panel.rate_mbps) == []
    off = checks.check_link(*args, direct.received_power_dbm + 0.01, direct.snr_db + 0.01,
                            direct.rate_mbps)
    assert "direct_power" in kinds(off)


def test_link_check_rejects_a_rate_off_the_mcs_step(link):
    (panel, _), _ = link.op(0)
    wrong = 0.0 if panel.rate_mbps else link.rates[0]
    failures = checks.check_link(link.points[0], link.raw["geometry"], link.raw["mcs"],
                                 panel.received_power_dbm, panel.snr_db, wrong)
    assert kinds(failures) == {"rate"}


def test_required_power_check_rejects_a_power_a_tenth_db_under_the_minimum(link):
    scenario = next(s for s in link.direct if s.name == "array_gain_without_panel")
    rate = 1024.0
    power = link.required_power(scenario, link.campaign.geometry, link.campaign.bits, rate)
    rate_at = link._rate_at(scenario)
    assert checks.check_required_power(scenario.name, rate, power, rate_at) == []
    under = checks.check_required_power(scenario.name, rate, power - checks.POWER_STEP_DB, rate_at)
    assert kinds(under) == {checks.UNDERSHOOT}


def test_required_power_check_accepts_an_infeasible_target_only_beyond_the_cap(link):
    scenario = next(s for s in link.direct if s.name == "array_gain_without_panel")
    with pytest.raises(InfeasibleTargetError):
        link.required_power(scenario, link.campaign.geometry, link.campaign.bits, 1683.0)
    rate_at = link._rate_at(scenario)
    assert checks.check_required_power(scenario.name, 1683.0, None, rate_at) == []
    assert kinds(checks.check_required_power(scenario.name, 1024.0, None, rate_at)) == {"infeasible"}


def run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return rissim.cli.main(argv)


def test_pattern_check_rejects_a_cut_shifted_by_one_sample(tmp_path):
    steer = -37.25
    assert run_cli(["pattern", "--steer-deg", str(steer), "--plane", "both", "--out", str(tmp_path)]) == 0
    assert checks.check_pattern(tmp_path, steer) == []

    path = tmp_path / "pattern_cut_h.csv"
    rows = list(csv.reader(path.open()))
    header, body = rows[0], rows[1:]
    shifted = [row[:2] + [body[i - 1][2]] for i, row in enumerate(body)]
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows([header, *shifted])
    assert "cut" in kinds(checks.check_pattern(tmp_path, steer))


def test_reproduce_check_rejects_one_changed_csv_byte(tmp_path):
    assert run_cli(["reproduce", "--seed", "3", "--out", str(tmp_path)]) == 0
    bundle = yaml.safe_load(worker.CAMPAIGN.read_text())
    reference = checks.csv_digests(tmp_path)
    assert checks.check_reproduce(tmp_path, 0, bundle, reference) == []

    path = tmp_path / "link_report.csv"
    data = bytearray(path.read_bytes())
    data[-2] = ord("x") if data[-2] != ord("x") else ord("y")
    path.write_bytes(bytes(data))
    assert kinds(checks.check_reproduce(tmp_path, 0, bundle, reference)) == {"bytes"}
    assert kinds(checks.check_reproduce(tmp_path, 1, bundle, reference)) == {"exit"}


def test_traced_run_reports_a_missing_function_as_absent(tmp_path, monkeypatch, capsys):
    for namespace in (rissim, rissim.beams, rissim.cli):
        monkeypatch.delattr(namespace, "sweep_phase_offset")
    monkeypatch.setattr(worker, "OUT_DIR", tmp_path)
    monkeypatch.setenv("PYTHONPATH", str(worker.ROOT / "src"))

    argv = ["--workload", "link_sweep", "--seed", "1", "--seconds", "0", "--trace", "1"]
    assert worker.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["absent"] == ["beams.sweep_phase_offset"]
    assert result["per_layer"]["beams.sweep_phase_offset.calls"] == 0
    assert result["per_layer"]["link.required_transmit_power.evals_per_call"] > 0
    assert result["correct"] and result["attempted"] == 20
    assert rissim.link.evaluate_scenario.__module__ == "rissim.link"
