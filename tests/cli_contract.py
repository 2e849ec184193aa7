"""The CLI contract: `python tests/cli_contract.py` runs every golden case in
`cli_golden/` (stdlib only; exit 0 when all pass).

A case holds one command's argv, exit code, stdout and every file it writes
(texts as lists of lines), and may hold a `stderr` substring and a `tol`.
Texts match exactly, except float literals, which agree within `tol` (default
1e-12), relatively or absolutely.  A case that holds only its argv gets its
expectations written, and the run fails: that is how a case is regenerated.
`public_names.json` pins `thermoshield.__all__`.  Last, the public functions
that no command reaches run, and the run fails if anything loaded scipy.
"""

import io
import json
import math
import os
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import thermoshield
from thermoshield import cli

CASES = Path(__file__).resolve().parent / "cli_golden"
TOL = 1e-12
NUMBER = re.compile(r"(-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)")
FLOAT = re.compile(r"[.eE]")


def run_case(argv):
    """Run one command in a fresh directory; return what it printed and wrote."""
    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.run(argv)
        finally:
            os.chdir(cwd)
        files = {name: Path(tmp, name).read_text().split("\n") for name in sorted(os.listdir(tmp))}
    return {"argv": argv, "exit": code, "stdout": out.getvalue().split("\n"), "files": files,
            "stderr": err.getvalue()}


def _same_line(want, got, tol):
    a, b = NUMBER.split(want), NUMBER.split(got)
    return len(a) == len(b) and all(
        x == y or (i % 2 == 1 and FLOAT.search(x) and FLOAT.search(y)
                   and math.isclose(float(x), float(y), rel_tol=tol, abs_tol=tol))
        for i, (x, y) in enumerate(zip(a, b)))


def compare(want, got):
    """The ways in which the run `got` breaks the case `want`, as messages."""
    tol, problems = want.get("tol", TOL), []
    if got["exit"] != want["exit"]:
        problems.append(f"exit code {got['exit']}, want {want['exit']}")
    if sorted(got["files"]) != sorted(want["files"]):
        problems.append(f"wrote {sorted(got['files'])}, want {sorted(want['files'])}")
    texts = [("stdout", want["stdout"], got["stdout"])] + [
        (name, lines, got["files"][name]) for name, lines in want["files"].items() if name in got["files"]]
    for name, lines, have in texts:
        if len(have) != len(lines):
            problems.append(f"{name} has {len(have)} lines, want {len(lines)}")
            continue
        bad = next((i for i, (w, g) in enumerate(zip(lines, have)) if not _same_line(w, g, tol)), None)
        if bad is not None:
            problems.append(f"{name} line {bad + 1}: {have[bad][:160]!r}, want {lines[bad][:160]!r}")
    if want.get("stderr", "") not in got["stderr"]:
        problems.append(f"stderr {got['stderr']!r} lacks {want['stderr']!r}")
    return problems


def main():
    names = json.loads((CASES / "public_names.json").read_text())
    problems = {"public_names": [] if names == thermoshield.__all__ else ["thermoshield.__all__ differs"]}
    for path in sorted(set(CASES.glob("*.json")) - {CASES / "public_names.json"}):
        want = json.loads(path.read_text())
        got = run_case(want["argv"])
        if set(want) == {"argv"}:
            path.write_text(json.dumps({k: v for k, v in got.items() if k != "stderr"}, indent=1) + "\n")
        problems[path.stem] = ["expectations written"] if set(want) == {"argv"} else compare(want, got)
    thermoshield.epsilon_regularize(thermoshield.Radiation(1.0), 0.1).value(0.5)
    thermoshield.high_cutoff_bound(thermoshield.Convection(1.0), 2, 3.1416)
    problems["scipy"] = [f"loaded {m}" for m in sorted(sys.modules) if m.split(".")[0] == "scipy"]
    failed = [name for name, found in problems.items() if found]
    for name in failed:
        print("\n".join(f"FAIL {name}: {problem}" for problem in problems[name]))
    print(f"{len(problems) - 2} cases, {len(failed)} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
