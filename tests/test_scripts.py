"""Smoke tests of the standalone programs in scripts/, run as subprocesses."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
J7_FILE = str(ROOT / "src" / "jalg" / "data" / "J7.jalg")


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_complements_report_over_f7():
    done = run_script("complements_report.py", "--field", "F7", "--json")
    assert done.returncode == 0, done.stderr
    data = json.loads(done.stdout)
    assert data["field"] == "F7"
    assert data["maps"] == 28
    assert data["index"] == 4
    assert sorted(c["size"] for c in data["classes"]) == [1, 1, 2, 24]


@pytest.mark.parametrize("field", ["F4", "G7", "F7x", "Q"])
def test_complements_report_bad_field_exits_two(field):
    done = run_script("complements_report.py", "--field", field)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


def test_abelian_census_over_f7():
    done = run_script("abelian_census.py", "--dim", "2", "--p", "7")
    assert done.returncode == 0, done.stderr
    assert "closed form confirmed" in done.stdout


def test_bicross_scan_over_f5():
    done = run_script("bicross_scan.py", "--p", "5")
    assert done.returncode == 0, done.stderr
    assert "89 matched pairs of 625" in done.stdout
    assert "verdict disagreements: 0" in done.stdout


@pytest.mark.parametrize(
    "script, args, message",
    [
        ("bicross_scan.py", ["--p", "4"], "characteristic 4 is not prime"),
        ("bicross_scan.py", ["--p", "0"], "the scan needs a finite field: give a prime p >= 5"),
        ("abelian_census.py", ["--p", "4"], "characteristic 4 is not prime"),
        ("abelian_census.py", ["--p", "0"], "enumeration needs a finite field"),
        ("abelian_census.py", ["--dim", "-1"], "base dimension must be at least 0, got -1"),
        ("complements_report.py", ["--pair", "J7"], "J7 holds an algebra; a matched pair is needed"),
        (
            "complements_report.py",
            ["--pair", J7_FILE],
            f"{J7_FILE} holds an algebra; a matched pair is needed",
        ),
    ],
)
def test_scripts_bad_input_exits_two(script, args, message):
    done = run_script(script, *args)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == f"error: {message}\n"
