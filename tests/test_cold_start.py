"""Importing the package, running the CLI, `epsilon_regularize` and
`high_cutoff_bound` load no scipy.

No module under `src/` imports scipy; only the tests use it, as an
independent oracle.  The check runs in a fresh interpreter, because other
test modules import scipy into the pytest process.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CONV1 = '{"type":"convection","beta":1}'
LAMBDA_SWEEP = '{"axis":"lambda","lo":0.1,"hi":0.5,"count":2,"law":{"type":"radiation","gamma":1.0}}'
INIT = '{"inner":[1.0,0.0,0.0,0.04,0.0],"outer":[2.4,0.0,0.0,0.08,0.0]}'

COMMANDS = {
    "radial": ["radial", "--n", "2", "--law", CONV1, "--R", "1"],
    "regime": ["regime", "--n", "2", "--beta", "0.5", "--rmax", "3"],
    "sweep": ["sweep", "--spec", LAMBDA_SWEEP, "--out", os.devnull],
    "solve": ["solve", "--pair", '{"inner":[1.0],"outer":[2.0]}', "--law", CONV1, "--mesh", "9,32"],
    "optimize": [
        "optimize", "--mode", "constrained", "--law", CONV1, "--M", repr(9 * math.pi),
        "--init", INIT, "--order", "2", "--mesh", "9,32", "--max-iters", "2",
    ],
    "verify regimes": ["verify", "regimes", "--n", "2", "--beta", "0.5", "--rmax", "3"],
    "verify h": ["verify", "h", "--mesh", "17,64"],
}

# Runs in the fresh interpreter: argv[1] is the JSON command table.  Prints
# one JSON line of [step, exit code, loaded scipy modules] records; the last
# two steps call the public functions that no CLI command reaches.
CHILD = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import thermoshield, thermoshield.cli as cli
records = [["import", 0, scipy_modules()]]
for name, argv in json.loads(sys.argv[1]).items():
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(argv)
    records.append([name, code, scipy_modules()])
thermoshield.epsilon_regularize(thermoshield.Radiation(1.0), 0.1)
records.append(["epsilon_regularize", 0, scipy_modules()])
thermoshield.high_cutoff_bound(thermoshield.Convection(1.0), 2, 3.1416)
records.append(["high_cutoff_bound", 0, scipy_modules()])
print(json.dumps(records))
"""


def test_import_and_cli_commands_load_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(COMMANDS)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    records = json.loads(proc.stdout)
    assert [r[0] for r in records] == ["import", *COMMANDS, "epsilon_regularize", "high_cutoff_bound"]
    for name, code, loaded in records:
        assert code == 0, f"{name}: exit code {code}\n{proc.stderr}"
        assert loaded == [], f"{name} loaded {loaded}"
