"""Command-line interface tests: exit-code contract, output formats,
determinism."""

import json
import math
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

import pins
from pendnf import cli, dynamics
from pendnf.cli import _linspace, main


def run_cli(argv):
    """Invoke main() in-process, capturing SystemExit from argparse."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestExitCodes:
    def test_usage_error_is_two(self):
        assert run_cli(["verify", "--suite", "identity51", "--order", "0"]) == 2

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

    @pytest.mark.parametrize("method", ["closed", "series", "normal", "rk"])
    def test_large_momentum_answers(self, capsys, method):
        # B near 6.3e294 squares past the largest float; the energy
        # 2 I g^2 h^2/(1 - h^2) = 1.978e289 does not
        argv = ["trajectory", "--method", method, "--h", "0.3", "--t1", "0.02", "--dt", "0.01",
                "--I", "1e300", "--g", "1e-5"]
        with np.errstate(over="raise"):
            assert run_cli(argv) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 3
        for row in rows:
            assert float(row[3]) == pytest.approx(2e290 * 0.09 / 0.91, rel=1e-12)

    def test_large_momentum_verifies(self, capsys):
        assert run_cli(["verify", "--suite", "dynamics", "--I", "1e300", "--g", "1e-5"]) == 0
        assert capsys.readouterr().out.endswith("OK: 3/3 checks passed\n")

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

    @pytest.mark.parametrize("argv, message", [
        (["verify", "--suite", "theta", "--order", "abc"], "argument --order: not an integer: 'abc'"),
        (["map", "--p", "abc", "--q", "0.2"], "argument --p: not a number: 'abc'"),
        (["coeffs", "--series", "g0", "--physical", "--I", "1/x"],
         "argument --I: not an exact rational: '1/x'"),
    ])
    def test_unparsable_argument_is_two(self, capsys, argv, message):
        assert run_cli(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (["--method", "closed", "--t0", "1", "--t1", "0"], "t1 must be >= t0"),
        (["--method", "rk", "--t0", "-1", "--t1", "1"], "reference trajectories start at t = 0"),
    ])
    def test_bad_time_window_is_two(self, capsys, argv, message):
        assert run_cli(["trajectory", "--h", "0.3", "--dt", "0.5", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"pend-nf: error: {message}")


class TestVerify:
    def test_order_is_used_as_given(self, capsys):
        # coeffs --order is pinned byte for byte by perfbench/golden.json's catalogue
        assert run_cli(["verify", "--suite", "identity51", "--order", "150"]) == 0
        assert "exact to order 150" in capsys.readouterr().out

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

    @pytest.mark.parametrize("I, g, option", list(pins.VERIFY))
    def test_non_default_scales_keep_their_bytes(self, I, g, option):
        # the golden catalogue pins I = g = 1 only; these digests were
        # recorded while the dynamics suite integrated its reference orbit on
        # its own time grid, before it sampled through dynamics.trajectory
        pins.check(pins.VERIFY[I, g, option])

    def test_dynamics_suite_samples_through_trajectory(self, capsys, monkeypatch):
        calls = []
        sample = dynamics.trajectory

        def recording(method, mod, par, t0, t1, dt, tol=1e-10):
            calls.append((method, t0, t1, dt, tol))
            return sample(method, mod, par, t0, t1, dt, tol=tol)

        monkeypatch.setattr(dynamics, "trajectory", recording)
        assert run_cli(["verify", "--suite", "dynamics", "--g", "2"]) == 0
        assert calls[0] == ("rk", 0.0, 5.0, 0.05, 1e-12)
        assert [c[0] for c in calls[1:]] == ["closed", "closed"]
        assert all(c[1:4] == (0.0, 5.0, 0.05) for c in calls[1:])


class TestCoeffs:
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
        ["--h", "1e-8", "--t0", "800", "--t1", "801"],
    ])
    def test_series_far_from_t0(self, capsys, orbit):
        # |g0 t| past the float range of exp(g0 t)
        assert run_cli(["trajectory", "--method", "series", *orbit, "--dt", "1"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 2
        assert all(math.isfinite(float(v)) for row in rows for v in row[:4])

    @pytest.mark.parametrize("method", ["closed", "series", "rk", "normal"])
    @pytest.mark.parametrize("h", ["0", "-0.0"])
    def test_zero_h_is_two(self, capsys, method, h):
        # h = 0 is the separatrix, outside the (0, 1) the help names: every
        # method refuses it as a usage error, before any work
        argv = ["trajectory", "--method", method, "--h", h, "--t0", "800", "--t1", "801", "--dt", "1"]
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --h: must be positive, got {float(h)}" in captured.err
        assert run_cli([*argv[:3], "--h", "1e-8", *argv[5:]]) == 0

    @pytest.mark.parametrize("method", ["closed", "series", "normal"])
    def test_h_whose_complement_rounds_to_one_is_two(self, capsys, method):
        # at h <= 2^-27 h' = sqrt(1 - h^2) rounds to 1: the error names h and
        # the limit and points to rk, which answers there
        argv = ["trajectory", "--method", method, "--h", "5e-9", "--t1", "1", "--dt", "0.5"]
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"pend-nf: error: h = 5e-09 is too small for the {method} method: its "
                                f"complement h' rounds to 1, as sqrt(1 - h^2) does for every h <= 2^-27 "
                                f"= 7.45e-09; the rk method (--method rk) answers there\n")
        assert run_cli([*argv[:2], "rk", *argv[3:]]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4

    def test_normal_past_its_nome_bound_is_two(self, capsys):
        # above h_from_nome(0.5) the error names the h given and its nome, not
        # an action derived from the a^2 series outside its domain
        argv = ["trajectory", "--method", "normal", "--h", "0.9999999", "--t1", "0.02", "--dt", "0.01"]
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "h = 0.9999999 has the nome 0.58" in captured.err and "action" not in captured.err

    @pytest.mark.parametrize("orbit", [
        ["--h", "0.3", "--t0", "800", "--t1", "801"],
        ["--h", "0.3", "--t0", "-801", "--t1", "-800"],
        ["--h", "0.9", "--t0", "1e5", "--t1", "100001"],
    ])
    def test_normal_far_from_t0(self, capsys, orbit):
        # the normal flow past the float range takes whole periods off t
        assert run_cli(["trajectory", "--method", "normal", *orbit, "--dt", "1"]) == 0
        normal = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert run_cli(["trajectory", "--method", "series", *orbit, "--dt", "1"]) == 0
        series = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(normal) == len(series) == 2
        for n, s in zip(normal, series):
            assert n[0] == s[0] and n[4] == "normal"
            assert abs(float(n[1]) - float(s[1])) <= 1e-10
            assert abs(float(n[2]) - float(s[2])) <= 1e-15 * max(1.0, abs(float(s[2])))


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

    def test_failed_check_is_one_without_traceback(self):
        # a numerical step that fails at run time, here inside the jacobian
        # suite, exits 1 with one line on stderr
        script = "\n".join((
            "import sys",
            "from pendnf import cli, dynamics",
            "def stalled(*args):",
            "    raise RuntimeError('iteration did not converge')",
            "dynamics.jacobian_det = stalled",
            "sys.argv = ['pend-nf', 'verify', '--suite', 'jacobian']",
            "cli.entry_point()",
        ))
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert result.returncode == 1
        assert result.stderr == "pend-nf: check failed: iteration did not converge\n"
        assert "Traceback" not in result.stderr


# the verify suites' _linspace grids at the default and two other rates g;
# (0, 10/g, 101) is also the grid of the dynamics suite's trajectories, up to
# the rounding of their last point
SUITE_GRIDS = [
    (-3.0, 3.0, 13), (-2.0, 2.0, 9), (0.01, 0.99, 100), (0.05, 0.9, 18),
    (0.05, 0.95, 50), (0.5, 2.0, 7),
] + [(0.0, span / g, num) for g in (1.0, 0.7, 3.0) for span, num in ((10.0, 101), (5.0, 41))]


@pytest.mark.parametrize("start, stop, num", SUITE_GRIDS)
def test_linspace_matches_numpy_exactly(start, stop, num):
    assert _linspace(start, stop, num) == np.linspace(start, stop, num).tolist()


@pytest.mark.parametrize("key", sorted(pins.CLI_HELP | pins.CLI_USAGE_ERRORS | pins.CLI_PARSED))
def test_command_surface_keeps_its_bytes(key):
    # help text, usage errors with their exit codes, and parsed values
    pins.check(key)


@pytest.mark.parametrize("argv, built", [
    ([], []),
    (["map", "--p", "0.3", "--q", "0.2"], ["map"]),
    (["--x", "coeffs", "--series", "g0"], ["coeffs"]),
    (["-h", "verify"], ["verify"]),
])
def test_only_the_dispatched_command_gets_arguments(argv, built, capsys):
    # the first word that names a command is the one argparse dispatches to
    seen = []
    counted = {name: (help_line, common, lambda p, name=name, add=add: seen.append(name) or add(p))
               for name, (help_line, common, add) in cli._COMMANDS.items()}
    with mock.patch.dict(cli._COMMANDS, counted):
        run_cli(argv)
    assert seen == built


def test_console_script_installed():
    result = subprocess.run(
        [sys.executable, "-m", "pendnf.cli", "coeffs", "--series", "g0", "--order", "2"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "12" in result.stdout
