"""The golden CLI cases (`cli_golden/`) pass, and their comparison reports a
changed number and a changed exit code."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

from cli_contract import CASES, compare, run_case

SRC = Path(__file__).resolve().parents[1] / "src"


def test_golden_cases_pass_without_scipy():
    # A fresh interpreter: other test modules import scipy into this one.
    proc = subprocess.run([sys.executable, str(CASES.parent / "cli_contract.py")],
                          env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_compare_reports_a_changed_digit_and_exit_code():
    want = json.loads((CASES / "radial_convection_bare.json").read_text())
    got = run_case(want["argv"])
    assert compare(want, got) == []
    digit = copy.deepcopy(want)  # the 12th significant figure of the total, 7 -> 8
    digit["stdout"][0] = want["stdout"][0].replace('"total": 6.283185307179586', '"total": 6.283185307189586')
    assert compare(digit, got) == [f"stdout line 1: {got['stdout'][0]!r}, want {digit['stdout'][0]!r}"]
    assert compare(dict(want, exit=1), got) == ["exit code 0, want 1"]
