"""Each script under scripts/ imports cleanly against the current package.

Importing catches a public name a script uses that no longer exists. The
calibration script is also run, writing into a temporary directory, and
must regenerate the packaged scenario bundle byte for byte.
"""

import importlib.util
from pathlib import Path

import pytest

from rissim import bundled_scenario_path

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


def load_script(path: Path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda path: path.name)
def test_script_imports(path):
    assert callable(load_script(path).main)


def test_calibration_regenerates_the_packaged_bundle(tmp_path, monkeypatch, capsys):
    script = load_script(next(path for path in SCRIPTS if path.name == "calibrate_mcs.py"))
    out = tmp_path / "tables_4_5_6.scenario"
    monkeypatch.setattr(script, "OUT", out)
    script.main()
    assert out.read_bytes() == bundled_scenario_path().read_bytes()
    assert capsys.readouterr().out.endswith(f"wrote {out}\n")
