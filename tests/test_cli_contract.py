"""The CLI's contract over drawn argv of every command (README, "Exit
codes"): exit 0, 2, or 1 with one `pend-nf: check failed:` line or, from
`verify`, its report ending in `FAILED`; otherwise at a nonzero exit one
`pend-nf:` line on stderr and nothing on stdout; at exit 0 every printed number
finite, and every coefficient an exact rational; and no exception out of `main`.

Values are edge and uniform draws that parse, so every exit comes from the
library, not from argparse; a negative one is passed as `--t0 -1e-08`.  The
`verify` and `coeffs` argv are drawn from the option table, `cli._COMMANDS`:
each required option, one of an exclusive pair and any optional ones, with
`--output` a path that cannot be opened.  A
trajectory draws its sample count (up to 40), not t1, so a grid stays
small; one example asks for 1e9 samples, which the sample cap refuses at
once.  The reference integrator's step cap is cut to 500 steps, so a long
`rk` solve reaches its named error in some 40 ms; the alarm only guards
against a hang.
"""

import contextlib
import io
import json
import math
import os
import signal
from fractions import Fraction
from unittest import mock

from hypothesis import assume, example, given, settings, strategies as st

from pendnf import _dop853, cli

EDGES = (5e-324, 2.2250738585072014e-308, 1e-300, 1e-12, 1e-8, 0.5, 0.999999, 1.0, 2.0, 700.0,
         249700.0, 1e10, 1e154, 1e300, 1.7976931348623157e308)
POSITIVE = st.one_of(st.sampled_from(EDGES), st.floats(1e-3, 1e3))
MODULUS = st.one_of(st.sampled_from((5e-324, 1e-300, 1e-8, 0.999999, 1.0)), st.floats(1e-9, 0.999))
FINITE = st.one_of(st.just(0.0), st.tuples(POSITIVE, st.booleans()).map(lambda v: -v[0] if v[1] else v[0]))
CONTRACT = settings(max_examples=150, derandomize=True, database=None, deadline=None)
# a value per type function of the option table
VALUES = {cli._positive_float: POSITIVE.map(repr), cli._finite_float: FINITE.map(repr),
          cli._positive_int: st.integers(1, 24).map(str),
          cli._positive_fraction: st.one_of(st.sampled_from(("1/32", "1e-300", "1e300", "7")),
                                            st.fractions(1e-3, 1e3).filter(bool).map(str)),
          None: st.just(os.path.join(os.devnull, "out"))}


@st.composite
def table_argv(draw, command):
    _, options, exclusive = cli._COMMANDS[command]
    pick = draw(st.sampled_from(exclusive)) if exclusive else None
    argv = [command]
    for flag, kw in options:
        if flag in exclusive and flag != pick or not (kw.get("required") or flag == pick or draw(st.booleans())):
            continue
        argv.append(flag)
        if "action" not in kw:
            argv.append(draw(st.sampled_from(kw["choices"]) if "choices" in kw else VALUES[kw.get("type")]))
    return argv


@st.composite
def trajectory_argv(draw):
    method = draw(st.sampled_from(cli.dynamics.TRAJECTORY_METHODS))
    orbit = draw(st.one_of(st.tuples(st.just("--h"), MODULUS), st.tuples(st.just("--energy"), FINITE)))
    t0, dt, count = draw(FINITE), draw(POSITIVE), draw(st.integers(0, 40))
    assume(math.isfinite(t0 + count * dt))
    argv = ["trajectory", "--method", method, orbit[0], repr(orbit[1]), "--I", repr(draw(POSITIVE)),
            "--g", repr(draw(POSITIVE)), "--t0", repr(t0), "--t1", repr(t0 + count * dt), "--dt", repr(dt)]
    if draw(st.booleans()):
        argv += ["--tol", repr(draw(st.sampled_from((1e-14, 1e-13, 1e-10, 1e-6, 1e-3))))]
    return argv


@st.composite
def map_argv(draw):
    return ["map", "--p", repr(draw(FINITE)), "--q", repr(draw(FINITE)), "--I", repr(draw(POSITIVE)),
            "--g", repr(draw(POSITIVE)), "--format", draw(st.sampled_from(("json", "text")))]


def _printed_numbers(argv, out):
    """Every number printed; a coefficient as the exact rational it spells."""
    lines = out.splitlines()
    if argv[0] == "trajectory":
        return [float(v) for line in lines[1:] for v in line.split(",")[:4]]
    if argv[0] == "verify":
        return [float(v) for line in lines[:-1] for v in line.split("measured ")[1].split()[:4:3]]
    if argv[0] == "coeffs":
        pairs = (json.loads(out)["coeffs"] if "json" in argv else
                 [line.split(",")[1:] for line in lines[2:]] if "csv" in argv else [])
        return [Fraction(int(n), int(d)) for n, d in pairs]
    if "json" in argv:
        return list(json.loads(out).values())
    return [float(line.split(" = ")[1]) for line in lines]


def _alarm(signum, frame):
    raise TimeoutError("pend-nf did not return within 30 s")


def check_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(30)
    try:
        with mock.patch.object(_dop853, "MAX_STEPS", 500), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code, err)
    if code == 0 or code == 1 and argv[0] == "verify" and out:
        assert err == "", (argv, err)
        numbers = _printed_numbers(argv, out)
        if argv[0] == "verify":
            assert out.splitlines()[-1].startswith("OK" if code == 0 else "FAILED"), (argv, out)
        if code == 0:
            assert all(isinstance(v, Fraction) or math.isfinite(v) for v in numbers), (argv, out)
    else:
        prefix = "pend-nf: check failed: " if code == 1 else "pend-nf: error: "
        assert out == "" and err.startswith(prefix) and err.count("\n") == 1 and err.endswith("\n"), (argv, err)


@CONTRACT
@given(trajectory_argv())
@example(["trajectory", "--method", "rk", "--h", "0.3", "--t1", "0.002", "--dt", "0.001",
          "--I", "1e300", "--g", "700"])
@example(["trajectory", "--method", "closed", "--h", "0.3", "--t1", "1e9", "--dt", "1"])
def test_trajectory(argv):
    check_contract(argv)


@CONTRACT
@given(map_argv())
def test_map(argv):
    check_contract(argv)


@settings(CONTRACT, max_examples=100)
@given(table_argv("verify"))
def test_verify(argv):
    check_contract(argv)


@settings(CONTRACT, max_examples=150)
@given(table_argv("coeffs"))
def test_coeffs(argv):
    check_contract(argv)
