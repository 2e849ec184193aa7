"""Command-line surface: JSON/CSV outputs, exit codes, determinism."""

import json
import math
from dataclasses import astuple

import pytest

from thermoshield.annulus import FourierShape, _write_csv
from thermoshield.cli import (
    EXIT_BAD_INPUT,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    SWEEP_COLUMNS,
    run,
)
from thermoshield.dissipation import Convection, Radiation, law_from_json, unit_ball_volume
from thermoshield.radial import best_radius, general_radial_energy

CONV1 = '{"type":"convection","beta":1}'
CONV1_SPEC = json.loads(CONV1)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestRadial:
    def test_bare_ball(self, capsys):
        code, data = run_json(
            capsys, ["radial", "--n", "2", "--law", CONV1, "--R", "1"]
        )
        assert code == EXIT_OK
        assert data["total"] == pytest.approx(2 * math.pi, rel=1e-9)
        assert set(data) == {"total", "dirichlet", "boundary", "penalty", "trace"}

    def test_deterministic_output(self, capsys):
        argv = ["radial", "--n", "2", "--law", CONV1, "--R", "2.5"]
        run(argv)
        first = capsys.readouterr().out
        run(argv)
        second = capsys.readouterr().out
        assert first == second


class TestRegime:
    def test_regime_c(self, capsys):
        code, data = run_json(
            capsys, ["regime", "--n", "3", "--beta", "0.8", "--rmax", "5"]
        )
        assert code == EXIT_OK
        assert data["regime"] == "c"
        assert data["optimal_radius"] == 1.0


class TestExitCodes:
    def test_unknown_law(self, capsys):
        assert run(["radial", "--n", "2", "--law", '{"type":"x"}', "--R", "1"]) == EXIT_BAD_INPUT

    @pytest.mark.parametrize(
        "law", ['{"type":"radiation","foo":1}', '{"type":"radiation"}']
    )
    def test_bad_law_keys(self, capsys, law):
        assert run(["radial", "--n", "2", "--R", "2", "--law", law]) == EXIT_BAD_INPUT

    def test_malformed_json(self, capsys):
        assert run(["radial", "--n", "2", "--law", "junk", "--R", "1"]) == EXIT_BAD_INPUT

    def test_missing_arguments(self, capsys):
        assert run(["radial", "--n", "2"]) == EXIT_BAD_INPUT

    @pytest.mark.parametrize(
        "law",
        [
            '{"type":"convection","beta":"x"}',
            '{"type":"convection","beta":null}',
            '{"type":"convection","beta":NaN}',
            '{"type":"radiation","gamma":Infinity}',
            '{"type":"power","c":1,"alpha":[1]}',
            '{"type":"tabulated","knots":5}',
        ],
    )
    def test_malformed_law_parameters(self, capsys, law):
        assert run(["radial", "--n", "2", "--R", "2", "--law", law]) == EXIT_BAD_INPUT

    @pytest.mark.parametrize("pair", ["[1]", '{"inner":1,"outer":[2.0]}'])
    def test_malformed_pair(self, capsys, pair):
        assert run(["solve", "--pair", pair, "--law", CONV1]) == EXIT_BAD_INPUT

    def test_mesh_without_comma(self, capsys):
        argv = ["solve", "--pair", '{"inner":[1.0],"outer":[2.0]}', "--law", CONV1, "--mesh", "33"]
        assert run(argv) == EXIT_BAD_INPUT
        assert "mesh must be given as n_s,n_theta" in capsys.readouterr().err

    def test_sweep_spec_not_an_object(self, capsys, tmp_path):
        out = str(tmp_path / "x.csv")
        assert run(["sweep", "--spec", "[1]", "--out", out]) == EXIT_BAD_INPUT

    def test_nonfinite_argument(self, capsys):
        assert run(["regime", "--n", "2", "--beta", "nan", "--rmax", "3"]) == EXIT_BAD_INPUT

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("R", ["1e160", "1e200"])
    def test_radius_whose_power_overflows(self, capsys, R):
        argv = ["radial", "--n", "2", "--law", '{"type":"radiation","gamma":1}', "--R", R]
        assert run(argv) == EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "R must be below" in captured.err

    def test_bad_sweep_range(self, capsys, tmp_path):
        spec = '{"axis":"beta","lo":2.0,"hi":1.0,"count":5,"n":2,"R":2.0}'
        out = str(tmp_path / "x.csv")
        assert run(["sweep", "--spec", spec, "--out", out]) == EXIT_BAD_INPUT

    @pytest.mark.parametrize(
        "spec",
        [
            '{"axis":"beta","lo":1.0,"hi":2.0,"count":3,"scale":"cubic","R":2.0}',
            '{"axis":"volume","lo":1.0,"hi":2.0,"count":3,"law":{"type":"convection","beta":1}}',
            '{"axis":"M","lo":1.0,"hi":20.0,"count":3,"law":{"type":"convection","beta":1}}',
        ],
        ids=["unknown-scale", "unknown-axis", "M-below-inner-ball"],
    )
    def test_bad_sweep_spec(self, capsys, tmp_path, spec):
        out = str(tmp_path / "x.csv")
        assert run(["sweep", "--spec", spec, "--out", out]) == EXIT_BAD_INPUT

    @pytest.mark.parametrize(
        "spec, key",
        [
            ('{"lo":1,"hi":2,"count":2}', "axis"),
            ('{"axis":"beta","hi":2,"count":2,"R":2}', "lo"),
            ('{"axis":"beta","lo":1,"count":2,"R":2}', "hi"),
            ('{"axis":"beta","lo":1,"hi":2,"R":2}', "count"),
            ('{"axis":"beta","lo":1,"hi":2,"count":2}', "R"),
            ('{"axis":"gamma","lo":1,"hi":2,"count":2}', "R"),
        ],
    )
    def test_missing_sweep_key_named(self, capsys, tmp_path, spec, key):
        out = tmp_path / "x.csv"
        assert run(["sweep", "--spec", spec, "--out", str(out)]) == EXIT_BAD_INPUT
        assert capsys.readouterr().err == f"error: sweep spec is missing the key {key!r}\n"
        assert not out.exists()

    def test_nonconvergence_exit(self, capsys, monkeypatch):
        import thermoshield.cli as cli
        from thermoshield.annulus import ConvergenceError

        def explode(*args, **kwargs):
            raise ConvergenceError("stalled")

        monkeypatch.setattr(cli, "solve_state", explode)
        pair = '{"inner":[1.0],"outer":[2.0]}'
        code = run(["solve", "--pair", pair, "--law", CONV1])
        assert code == EXIT_NO_CONVERGENCE

    def test_verify_failure_exit(self, capsys, monkeypatch):
        import thermoshield.cli as cli

        monkeypatch.setattr(cli, "_verify_regimes", lambda args: False)
        code = run(["verify", "regimes"])
        assert code == EXIT_VERIFY_FAILED


class TestSweep:
    def test_beta_sweep_csv(self, capsys, tmp_path):
        out = str(tmp_path / "sweep.csv")
        spec = '{"axis":"beta","lo":0.25,"hi":2.0,"count":5,"scale":"linear","n":2,"R":2.0}'
        assert run(["sweep", "--spec", spec, "--out", out]) == EXIT_OK
        lines = open(out).read().splitlines()
        assert lines[0] == "value,total,dirichlet,boundary,penalty,trace"
        assert len(lines) == 6
        row = [float(v) for v in lines[3].split(",")]
        from thermoshield.radial import convection_energy

        assert row[1] == pytest.approx(convection_energy(2, row[0], 2.0).total, rel=1e-7)

    def test_log_gamma_sweep(self, capsys, tmp_path):
        out = str(tmp_path / "sweep.csv")
        spec = '{"axis":"gamma","lo":0.1,"hi":10.0,"count":3,"scale":"log","R":2.0}'
        assert run(["sweep", "--spec", spec, "--out", out]) == EXIT_OK
        lines = open(out).read().splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert [float(line.split(",")[0]) for line in lines[1:]] == pytest.approx([0.1, 1.0, 10.0])

    def test_radius_sweep_under_radiation(self, capsys, tmp_path):
        out = str(tmp_path / "sweep.csv")
        spec = '{"axis":"R","lo":1.5,"hi":3.0,"count":4,"law":{"type":"radiation","gamma":1.0}}'
        assert run(["sweep", "--spec", spec, "--out", out]) == EXIT_OK
        assert len(open(out).read().splitlines()) == 5

    def test_lambda_sweep_uses_best_radius(self, capsys, tmp_path):
        out = str(tmp_path / "lambda.csv")
        law = {"type": "surface_cost", "c1": 0.3, "c2": 1.0, "alpha": 0.9}
        spec = {"axis": "lambda", "lo": 0.05, "hi": 0.5, "count": 3, "scale": "log", "law": law}
        assert run(["sweep", "--spec", json.dumps(spec), "--out", out]) == EXIT_OK
        lines = open(out).read().splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 4
        for line in lines[1:]:
            lam, total = (float(v) for v in line.split(",")[:2])
            assert total == best_radius(2, law_from_json(law), math.inf, lam).energy.total

    def test_m_sweep_uses_best_radius(self, capsys, tmp_path):
        out = str(tmp_path / "m.csv")
        spec = f'{{"axis":"M","lo":{4 * math.pi},"hi":{9 * math.pi},"count":3,"law":{{"type":"convection","beta":1.0}}}}'
        assert run(["sweep", "--spec", spec, "--out", out]) == EXIT_OK
        lines = open(out).read().splitlines()
        from thermoshield.radial import convection_energy

        last = [float(v) for v in lines[-1].split(",")]
        assert last[1] == pytest.approx(convection_energy(2, 1.0, 3.0).total, rel=1e-7)


KINKED = {"type": "tabulated", "knots": [[0, 0], [0.4, 0.2], [1, 1.4]]}
SURFACE = {"type": "surface_cost", "c1": 0.3, "c2": 1.0, "alpha": 0.9}
POWER = {"type": "power", "c": 3.0, "alpha": 0.5}
# One spec per axis, each with a nonsmooth law where the axis takes one, and
# the one-point energy that each row must reproduce.
AXES = {
    "beta": ({"axis": "beta", "lo": 0.25, "hi": 2.0, "count": 11, "n": 3, "R": 2.0, "lambda": 0.1},
             lambda v: general_radial_energy(3, Convection(v), 2.0, 0.1)),
    "gamma": ({"axis": "gamma", "lo": 0.1, "hi": 10.0, "count": 9, "scale": "log", "R": 2.5},
              lambda v: general_radial_energy(2, Radiation(v), 2.5)),
    "R": ({"axis": "R", "lo": 1.0, "hi": 4.0, "count": 13, "law": KINKED},
          lambda v: general_radial_energy(2, law_from_json(KINKED), v)),
    "lambda": ({"axis": "lambda", "lo": 0.01, "hi": 3.0, "count": 10, "scale": "log", "law": SURFACE},
               lambda v: best_radius(2, law_from_json(SURFACE), math.inf, v).energy),
    "M": ({"axis": "M", "lo": 4.5, "hi": 200.0, "count": 10, "scale": "log", "n": 3, "lambda": 0.02,
           "law": POWER},
          lambda v: best_radius(3, law_from_json(POWER), (v / unit_ball_volume(3)) ** (1 / 3), 0.02).energy),
}


class TestSweepRows:
    @pytest.mark.parametrize("axis", sorted(AXES))
    def test_csv_is_the_one_point_values(self, tmp_path, axis):
        spec, one_point = AXES[axis]
        out, expected = tmp_path / "sweep.csv", tmp_path / "expected.csv"
        assert run(["sweep", "--spec", json.dumps(spec), "--out", str(out)]) == EXIT_OK
        values = [float(line.split(",")[0]) for line in out.read_text().splitlines()[1:]]
        assert len(values) == spec["count"]
        rows = [(v, e.total, *astuple(e)) for v, e in ((v, one_point(v)) for v in values)]
        _write_csv(str(expected), [SWEEP_COLUMNS, *rows])
        assert out.read_bytes() == expected.read_bytes()

    @pytest.mark.filterwarnings("error")
    def test_penalty_that_overflows_exits_2(self, capsys):
        argv = ["radial", "--n", "2", "--law", '{"type":"radiation","gamma":1}', "--R", "1e154",
                "--lambda", "1"]
        assert run(argv) == EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "lam=1.0, R=1e+154" in captured.err

    @pytest.mark.filterwarnings("error")
    def test_penalty_too_small_to_bound_the_radius_exits_2(self, capsys, tmp_path):
        spec = {"axis": "lambda", "lo": 5e-324, "hi": 1e-300, "count": 2, "scale": "log",
                "law": {"type": "radiation", "gamma": 1}}
        assert run(["sweep", "--spec", json.dumps(spec), "--out", str(tmp_path / "x.csv")]) == EXIT_BAD_INPUT
        assert "lam must be large enough" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [2.5, 2.7, 2.9, 2.0, True, 1])
    @pytest.mark.parametrize("key", ["n", "count"])
    def test_count_that_is_not_an_integer_of_at_least_2_exits_2(self, capsys, tmp_path, key, bad):
        # int() would read "n": 2.7 as a 2D sweep and "count": 2.9 as two rows.
        spec = {"axis": "beta", "lo": 0.5, "hi": 2.0, "count": 3, "R": 2.0, key: bad}
        out = tmp_path / "x.csv"
        assert run(["sweep", "--spec", json.dumps(spec), "--out", str(out)]) == EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"sweep key '{key}' must be an integer of at least 2, got {bad!r}" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "spec, key",
        [
            ({"axis": "R", "lo": 1.5, "hi": 3, "count": 2, "law": CONV1_SPEC, "lamda": 0.5}, "lamda"),
            ({"axis": "beta", "lo": 0.5, "hi": 2, "count": 2, "R": 2.0, "law": CONV1_SPEC}, "law"),
            ({"axis": "gamma", "lo": 0.5, "hi": 2, "count": 2, "R": 2.0, "law": CONV1_SPEC}, "law"),
            ({"axis": "R", "lo": 1.5, "hi": 3, "count": 2, "law": CONV1_SPEC, "R": 2.0}, "R"),
            ({"axis": "M", "lo": 4.0, "hi": 9.0, "count": 2, "law": CONV1_SPEC, "R": 2.0}, "R"),
            ({"axis": "lambda", "lo": 0.1, "hi": 1, "count": 2, "law": CONV1_SPEC, "lambda": 0.5},
             "lambda"),
            ({"axis": "lambda", "lo": 0.1, "hi": 1, "count": 2, "law": CONV1_SPEC, "R": 2.0}, "R"),
        ],
        ids=["R-misspelled-lambda", "beta-law", "gamma-law", "R-R", "M-R", "lambda-lambda",
             "lambda-R"],
    )
    def test_key_the_axis_does_not_read_exits_2(self, capsys, tmp_path, spec, key):
        out = tmp_path / "x.csv"
        assert run(["sweep", "--spec", json.dumps(spec), "--out", str(out)]) == EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"a sweep over {spec['axis']} reads no key {key!r}" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("lo", [0.0, -1.0])
    def test_log_sweep_from_zero_or_below_exits_2(self, capsys, tmp_path, lo):
        spec = {"axis": "R", "lo": lo, "hi": 3.0, "count": 3, "scale": "log", "law": CONV1_SPEC}
        out = tmp_path / "x.csv"
        assert run(["sweep", "--spec", json.dumps(spec), "--out", str(out)]) == EXIT_BAD_INPUT
        assert "log sweeps need lo > 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("axis, lo, hi", [("R", 1.0, 3.0), ("lambda", 0.1, 1.0), ("M", 4.0, 9.0)])
    def test_axis_without_a_law_exits_2(self, capsys, tmp_path, axis, lo, hi):
        spec = {"axis": axis, "lo": lo, "hi": hi, "count": 2}
        out = tmp_path / "x.csv"
        assert run(["sweep", "--spec", json.dumps(spec), "--out", str(out)]) == EXIT_BAD_INPUT
        assert f"sweep over {axis} requires a law" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_budget_exits_2(self, capsys, tmp_path):
        spec = {"axis": "M", "lo": -5.0, "hi": 20.0, "count": 3, "law": {"type": "convection", "beta": 1}}
        assert run(["sweep", "--spec", json.dumps(spec), "--out", str(tmp_path / "x.csv")]) == EXIT_BAD_INPUT
        assert "M below the inner ball volume" in capsys.readouterr().err


class TestSolveAndOptimize:
    def test_solve_writes_field(self, capsys, tmp_path):
        path = str(tmp_path / "field.csv")
        pair = '{"inner":[1.0],"outer":[2.0]}'
        code = run(
            ["solve", "--pair", pair, "--law", CONV1, "--mesh", "17,64", "--out-field", path]
        )
        assert code == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        from thermoshield.radial import convection_energy

        assert data["total"] == pytest.approx(convection_energy(2, 1.0, 2.0).total, rel=1e-3)
        from thermoshield.annulus import load_field

        field = load_field(path)
        assert field.values.shape == (17, 64)

    def test_optimize_quick(self, capsys, tmp_path):
        trace = str(tmp_path / "trace.csv")
        init = '{"inner":[1.0,0.0,0.0,0.04,0.0],"outer":[2.4,0.0,0.0,0.08,0.0]}'
        code = run(
            [
                "optimize",
                "--mode",
                "constrained",
                "--law",
                CONV1,
                "--M",
                str(9 * math.pi),
                "--init",
                init,
                "--order",
                "2",
                "--mesh",
                "17,64",
                "--max-iters",
                "8",
                "--trace",
                trace,
            ]
        )
        assert code == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert "pair" in data and "energy" in data
        lines = open(trace).read().splitlines()
        assert lines[0].startswith("iter,energy")
        assert len(lines) >= 2

    def test_optimize_penalized(self, capsys):
        init = '{"inner":[1.0,0.0,0.0,0.04,0.0],"outer":[2.0,0.0,0.0,0.08,0.0]}'
        argv = ["optimize", "--mode", "penalized", "--law", CONV1, "--lambda", "0.1", "--init",
                init, "--order", "2", "--mesh", "9,32", "--max-iters", "2"]
        code, data = run_json(capsys, argv)
        assert code == EXIT_OK
        outer_area = FourierShape(data["pair"]["outer"]).area()
        assert data["energy"]["penalty"] == pytest.approx(0.1 * (outer_area - math.pi), rel=1e-12)

    def test_optimize_requires_budget_or_weight(self, capsys):
        init = '{"inner":[1.0],"outer":[2.0]}'
        code = run(["optimize", "--mode", "constrained", "--law", CONV1, "--init", init])
        assert code == EXIT_BAD_INPUT

    def test_penalized_mode_requires_lambda(self, capsys):
        init = '{"inner":[1.0],"outer":[2.0]}'
        assert run(["optimize", "--mode", "penalized", "--law", CONV1, "--init", init]) == EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "penalized mode requires --lambda" in captured.err


# The flags each verify check reads, and their defaults.
VERIFY_FLAGS = {
    "regimes": {"n": 2, "beta": 1.0, "rmax": 3.0},
    "h": {"beta": 1.0, "amplitude": 0.1, "levels": 64, "mesh": "48,192", "out_levels": None},
    "truncation": {"mesh": "48,192"},
    "perturbation": {"n": 2, "law": '{"type":"radiation","gamma":1.0}', "eps": 1e-3},
}
ALL_VERIFY_FLAGS = {flag for flags in VERIFY_FLAGS.values() for flag in flags}


class TestVerifyFlags:
    @pytest.mark.parametrize("check", sorted(VERIFY_FLAGS))
    def test_each_check_reads_its_flags_with_their_defaults(self, check):
        from thermoshield.cli import _build_parser

        args = vars(_build_parser().parse_args(["verify", check]))
        assert {k: v for k, v in args.items() if k not in ("command", "check", "func")} == VERIFY_FLAGS[check]

    @pytest.mark.parametrize(
        "check, flag",
        [(c, f) for c in sorted(VERIFY_FLAGS) for f in sorted(ALL_VERIFY_FLAGS - set(VERIFY_FLAGS[c]))],
    )
    def test_flag_of_another_check_exits_2(self, capsys, check, flag):
        assert run(["verify", check, "--" + flag.replace("_", "-"), "2"]) == EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err

    def test_flags_follow_the_check(self, capsys):
        assert run(["verify", "--mesh", "17,64", "truncation"]) == EXIT_BAD_INPUT
        assert capsys.readouterr().out == ""


class TestVerify:
    def test_regimes_pass(self, capsys):
        assert run(["verify", "regimes", "--n", "2", "--beta", "0.5", "--rmax", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("PASS regimes")
        assert "threshold 4.92" in out

    def test_perturbation_radiation(self, capsys):
        code = run(
            ["verify", "perturbation", "--law", '{"type":"radiation","gamma":1.0}', "--eps", "1e-3"]
        )
        assert code == EXIT_OK
        assert capsys.readouterr().out.startswith("PASS")

    def test_perturbation_flat_coefficient(self, capsys):
        # Zero first-order coefficient: the extrapolated slope must agree
        # within the absolute floor.
        code = run(["verify", "perturbation", "--law", CONV1, "--eps", "1e-3"])
        assert code == EXIT_OK

    def test_truncation(self, capsys):
        assert run(["verify", "truncation", "--mesh", "33,128"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("PASS truncation")

    def test_h(self, capsys):
        assert run(["verify", "h", "--beta", "1.0", "--mesh", "33,128", "--levels", "48"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("PASS h")

    def test_h_emits_level_csv(self, capsys, tmp_path):
        path = str(tmp_path / "levels.csv")
        code = run(
            [
                "verify",
                "h",
                "--beta",
                "1.0",
                "--mesh",
                "33,128",
                "--levels",
                "16",
                "--out-levels",
                path,
            ]
        )
        assert code == EXIT_OK
        lines = open(path).read().splitlines()
        assert lines[0] == "t,interior_length,exterior_length,area,H_value"
        assert len(lines) == 17
