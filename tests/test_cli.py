"""Command-line interface tests: exit-code contract, output formats,
determinism."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from pendnf.cli import _linspace, main


def run_cli(argv):
    """Invoke main() in-process, capturing SystemExit from argparse."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestExitCodes:
    def test_verify_pass_is_zero(self, capsys):
        assert run_cli(["verify", "--suite", "legendre"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "legendre" in out

    def test_usage_error_is_two(self):
        assert run_cli(["verify", "--suite", "identity51", "--order", "0"]) == 2

    def test_unknown_suite_is_two(self):
        assert run_cli(["verify", "--suite", "nonsense"]) == 2

    def test_missing_command_is_two(self):
        assert run_cli([]) == 2

    def test_bad_trajectory_selector_is_two(self):
        assert run_cli(["trajectory", "--method", "closed", "--t1", "1", "--dt", "0.5"]) == 2

    def test_invalid_modulus_is_two(self, capsys):
        code = run_cli(["trajectory", "--method", "closed", "--h", "1.5",
                        "--t1", "1", "--dt", "0.5"])
        assert code == 2

    def test_failing_check_is_one(self, capsys):
        # an absurd tolerance makes a real measurement fail
        assert run_cli(["verify", "--suite", "legendre", "--tol", "1e-30"]) == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, flag", [
        (["map", "--p", "nan", "--q", "1"], "--p"),
        (["map", "--p", "0.3", "--q=-inf"], "--q"),
        (["trajectory", "--method", "series", "--h", "0.3", "--t1", "inf", "--dt", "0.5"], "--t1"),
        (["trajectory", "--method", "closed", "--h", "0.3", "--t0", "nan", "--t1", "1",
          "--dt", "0.5"], "--t0"),
        (["trajectory", "--method", "closed", "--h", "nan", "--t1", "1", "--dt", "0.5"], "--h"),
        (["trajectory", "--method", "rk", "--energy", "inf", "--t1", "1", "--dt", "0.5"],
         "--energy"),
        (["trajectory", "--method", "closed", "--h", "0.3", "--t1", "1", "--dt", "inf"], "--dt"),
        (["map", "--p", "0.3", "--q", "0.2", "--I", "inf"], "--I"),
        (["map", "--p", "0.3", "--q", "0.2", "--g", "inf"], "--g"),
        (["verify", "--suite", "legendre", "--tol", "inf"], "--tol"),
    ])
    def test_non_finite_float_is_two(self, capsys, argv, flag):
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert f"error: argument {flag}: must be finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag, value", [("--g", "-2"), ("--I", "0"), ("--g", "0"),
                                             ("--I", "-1/32")])
    def test_non_positive_exact_parameter_is_two(self, capsys, flag, value):
        argv = ["coeffs", "--series", "calU", "--order", "3", "--physical", f"{flag}={value}"]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert f"error: argument {flag}: must be positive, got {value}\n" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("t0, t1, dt", [("0", "1e300", "1e-300"), ("-1e308", "1e308", "1")])
    def test_non_finite_sample_count_is_two(self, capsys, t0, t1, dt):
        # (t1 - t0) / dt overflows: a usage error, not a failed check
        argv = ["trajectory", "--method", "closed", "--h", "0.3", f"--t0={t0}", "--t1", t1,
                "--dt", dt]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert err == (f"pend-nf: error: no finite sample count from t0 = {float(t0)} "
                       f"to t1 = {float(t1)} in steps dt = {float(dt)}\n")

    @pytest.mark.parametrize("argv", [
        ["trajectory", "--method", "closed", "--h", "0.3", "--t1", "0.02", "--dt", "0.01",
         "--I", "1e300", "--g", "1e10"],
        ["map", "--p", "0.3", "--q", "0.2", "--I", "1e308", "--g", "1e308"],
        ["verify", "--suite", "dynamics", "--I", "1e300", "--g", "1e10"],
        ["map", "--p", "0.3", "--q", "0.2", "--I", "1e-200", "--g", "1e-200"],
        ["map", "--p", "0.3", "--q", "0.2", "--I", "1e-300", "--g", "1e-20"],
    ])
    def test_overflowing_physical_scales_are_two(self, capsys, argv):
        # 32 I g or 32 I g^2 is not a finite positive float
        assert run_cli(argv) == 2
        out, err = capsys.readouterr()
        I, g = float(argv[argv.index("--I") + 1]), float(argv[argv.index("--g") + 1])
        assert out == ""
        assert err == (f"pend-nf: error: 32*I*g and 32*I*g^2 must be finite and positive, "
                       f"got I = {I}, g = {g}\n")

    def test_unwritable_output_is_two_without_traceback(self, tmp_path):
        target = tmp_path / "missing" / "x"
        result = subprocess.run(
            [sys.executable, "-m", "pendnf.cli", "coeffs", "--series", "g0", "--order", "3",
             "--output", str(target)],
            capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == f"pend-nf: error: cannot write {target}: No such file or directory\n"
        assert "Traceback" not in result.stderr

    def test_tolerance_override_pass(self, capsys):
        assert run_cli(["verify", "--suite", "legendre", "--tol", "1e-12"]) == 0
        assert "1.000e-12" in capsys.readouterr().out


class TestVerify:
    def test_identity_suite_small_order(self, capsys):
        assert run_cli(["verify", "--suite", "identity51", "--order", "12"]) == 0
        assert "rescaling_identity" in capsys.readouterr().out

    def test_theta_suite(self, capsys):
        assert run_cli(["verify", "--suite", "theta", "--order", "30"]) == 0

    def test_order_is_used_as_given(self, capsys, monkeypatch):
        # PEND_NF_MAX_ORDER once capped --order; no output reads it now
        argvs = [["verify", "--suite", "identity51", "--order", "150"],
                 ["coeffs", "--series", "calU", "--order", "12"],
                 ["map", "--p", "0.3", "--q", "0.2", "--format", "text"]]
        outputs = []
        for argv in argvs:
            assert run_cli(argv) == 0
            outputs.append(capsys.readouterr().out)
        monkeypatch.setenv("PEND_NF_MAX_ORDER", "8")
        for argv, out in zip(argvs, outputs):
            assert run_cli(argv) == 0
            assert capsys.readouterr().out == out
        assert "exact to order 150" in outputs[0]
        assert "x^12 + O(x^13)" in outputs[1]

    def test_tol_overrides_only_the_float_tolerances(self, capsys):
        fixed = {"jacobi_periodicity": 1e-10, "factorization_gamma_independent": 1e-10,
                 "stable_small_amplitude_frequency": 1e-6}
        # the exact identities and the sign checks compare against 0
        zero = {"g0_at_least_g", "nome_monotonic", "rescaling_identity", "theta_logderiv",
                "stable_hyperbolic_energy_relation"}
        for tol in (1e-30, 1e-3):
            run_cli(["verify", "--suite", "all", "--order", "12", "--tol", str(tol)])
            lines = capsys.readouterr().out.splitlines()[:-1]
            bounds = {line.split()[1].rstrip(":"): float(line.split()[6]) for line in lines}
            assert len(bounds) == 20
            for name, bound in bounds.items():
                if name in zero:
                    assert bound == 0.0, name
                elif name == "jacobi_periodicity":
                    assert bound == max(tol, 1e-10)
                else:
                    assert bound == fixed.get(name, tol), name

    def test_summary_line(self, capsys):
        run_cli(["verify", "--suite", "legendre"])
        assert "1/1 checks passed" in capsys.readouterr().out


class TestCoeffs:
    def test_normal_energy_csv(self, capsys):
        assert run_cli(["coeffs", "--series", "calU", "--order", "6", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        rows = [line for line in out.splitlines() if line and not line.startswith("#")]
        assert rows[0] == "power,numerator,denominator"
        values = [row.split(",")[1] for row in rows[1:]]
        assert values == ["0", "1", "2", "-4", "20", "-132", "1008"]

    def test_rate_series_text(self, capsys):
        assert run_cli(["coeffs", "--series", "g0", "--order", "2"]) == 0
        out = capsys.readouterr().out
        assert "1 + 4*x' + 12*x'^2" in out

    def test_json_schema(self, capsys):
        assert run_cli(["coeffs", "--series", "U", "--order", "4", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["order"] == 4
        assert obj["coeffs"][1] == ["1", "1"]

    def test_physical_rescaling(self, capsys):
        # with I = 1/32 and g = 1 the physical table equals the normalized one
        assert run_cli([
            "coeffs", "--series", "U", "--order", "3", "--format", "csv",
            "--physical", "--I", "1/32", "--g", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "convention=physical" in out
        rows = [r for r in out.splitlines() if r and not r.startswith(("#", "power"))]
        assert [r.split(",")[1] for r in rows] == ["0", "1", "8", "44"]

    def test_physical_rate_scaling(self, capsys):
        assert run_cli([
            "coeffs", "--series", "g0", "--order", "1", "--format", "csv",
            "--physical", "--I", "2", "--g", "3",
        ]) == 0
        rows = [r for r in capsys.readouterr().out.splitlines() if r[:1].isdigit()]
        assert rows == ["0,3,1", "1,12,1"]

    def test_all_series_available(self, capsys):
        for name in ("g0", "U", "D", "a2", "calU", "W", "Us"):
            assert run_cli(["coeffs", "--series", name, "--order", "6"]) == 0
            capsys.readouterr()


class TestTrajectory:
    def test_csv_columns_and_energy(self, capsys):
        assert run_cli([
            "trajectory", "--method", "closed", "--h", "0.3",
            "--t1", "10", "--dt", "0.1",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "t,B,beta,energy,method"
        energies = [float(line.split(",")[3]) for line in lines[1:]]
        e0 = energies[0]
        assert max(abs(e - e0) for e in energies) / e0 < 1e-11
        assert lines[1].endswith(",closed")

    def test_energy_selector(self, capsys):
        assert run_cli([
            "trajectory", "--method", "rk", "--energy", "0.5",
            "--t1", "1", "--dt", "0.5",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert float(lines[1].split(",")[3]) == pytest.approx(0.5, rel=1e-12)

    def test_output_file_deterministic(self, tmp_path):
        args = [
            "trajectory", "--method", "series", "--h", "0.4",
            "--t1", "2", "--dt", "0.25",
        ]
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--output", str(f1)]) == 0
        assert run_cli(args + ["--output", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()
        assert b"\r" not in f1.read_bytes()


    @pytest.mark.parametrize("orbit", [
        ["--h", "0.3", "--t0", "800", "--t1", "801"],
        ["--h", "0.3", "--t0", "-801", "--t1", "-800"],
        ["--h", "0", "--t0", "800", "--t1", "801"],
    ])
    def test_series_far_from_t0(self, capsys, orbit):
        # |g0 t| past the float range of exp(g0 t)
        assert run_cli(["trajectory", "--method", "series", *orbit, "--dt", "1"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 2
        assert all(math.isfinite(float(v)) for row in rows for v in row[:4])


class TestMap:
    def test_json_payload(self, capsys):
        assert run_cli(["map", "--p", "0.3", "--q", "0.2"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["x"] == pytest.approx(0.06)
        assert obj["energy_phase"] == pytest.approx(obj["energy_normal"], rel=1e-9)

    def test_text_format(self, capsys):
        assert run_cli(["map", "--p", "0.1", "--q", "0.1", "--format", "text"]) == 0
        assert "beta =" in capsys.readouterr().out

    def test_out_of_range_is_two(self):
        assert run_cli(["map", "--p", "100.0", "--q", "100.0"]) == 2

    def test_nome_nonconvergence_is_one_without_traceback(self):
        # Newton stalls on this negative action, where the map saturates
        result = subprocess.run(
            [sys.executable, "-m", "pendnf.cli", "map", "--p", "1", "--q", "-2.5445688846475436"],
            capture_output=True, text=True,
        )
        assert result.returncode == 1
        assert result.stderr == "pend-nf: check failed: nome inversion did not converge\n"
        assert "Traceback" not in result.stderr


# every grid the verify suites sample, at the default and two other rates g
SUITE_GRIDS = [
    (-3.0, 3.0, 13), (-2.0, 2.0, 9), (0.01, 0.99, 100), (0.05, 0.9, 18),
    (0.05, 0.95, 50), (0.5, 2.0, 7),
] + [(0.0, span / g, num) for g in (1.0, 0.7, 3.0) for span, num in ((10.0, 101), (5.0, 41))]


@pytest.mark.parametrize("start, stop, num", SUITE_GRIDS)
def test_linspace_matches_numpy_exactly(start, stop, num):
    assert _linspace(start, stop, num) == np.linspace(start, stop, num).tolist()


def test_console_script_installed():
    result = subprocess.run(
        [sys.executable, "-m", "pendnf.cli", "coeffs", "--series", "g0", "--order", "2"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "12" in result.stdout
