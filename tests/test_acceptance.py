"""Acceptance suite: every headline claim at its stated tolerance, one
printed line per criterion.  Run with `pytest tests/test_acceptance.py -v -s`
(or plain pytest; the lines also show with -rA).

Criteria 1, 3 and 4 read exact tables.  The others run the `pend-nf verify`
suite that states the claim, with its own grid and tolerances, and print the
measured value and tolerance of each of its checks."""

import time
from fractions import Fraction as F

from pendnf import cli, normal_form as nf
from pendnf.dynamics import PendulumParams

from helpers import integer_coefficients_start

PAR = PendulumParams(I=1.0, g=1.0)


def report(num, passed, detail):
    print(f"{'PASS' if passed else 'FAIL'}  criterion {num}: {detail}")
    assert passed


def report_suite(num, suite, order=200, seconds=None):
    """Run the verify suite at the default tolerances and report each of its
    checks; with seconds, the suite must also finish within that bound."""
    t0 = time.perf_counter()
    results = getattr(cli, f"_suite_{suite}")(order, None, PAR)
    elapsed = time.perf_counter() - t0
    detail = ", ".join(f"{r.name} {r.measured:.2g} (tol {r.tolerance:.2g}{'; ' + r.note if r.note else ''})"
                       for r in results)
    timely = seconds is None or elapsed < seconds
    if seconds is not None:
        detail += f" in {elapsed:.2f} s (< {seconds:g} s)"
    report(num, all(r.passed for r in results) and timely, f"verify --suite {suite}: {detail}")


def test_criterion_1_normal_energy_coefficients():
    t0 = time.perf_counter()
    s = nf.normal_energy_series(6)
    expected = (F(2), F(-4), F(20), F(-132), F(1008))
    exact = s.coeffs[2:7] == expected and s.coeffs[1] == 1
    elapsed = time.perf_counter() - t0
    report(
        1,
        exact and elapsed < 1.0,
        f"normal-energy coefficients 2..6 exact ({elapsed * 1e3:.0f} ms)",
    )


def test_criterion_2_rescaling_identity_order_200():
    # the phase-area identity D = d/dx'(x' a^2) exact through order 200
    report_suite(2, "identity51", seconds=60.0)


def test_criterion_3_stable_normal_form():
    # the mirror relation to calU is criterion 10's stable_hyperbolic_energy_relation
    w = nf.stable_bundle(12).normal_energy
    head = w.coeffs[1:7] == (F(1), F(-2), F(-4), F(-20), F(-132), F(-1008))
    report(3, head, "stable normal form W head 1, -2, -4, -20, -132, -1008 exact")


def test_criterion_4_series_leading_terms_and_integrality():
    g0 = nf.g0_series(200)
    u = nf.energy_series(200)
    d = nf.jacobian_series(200)
    heads = (
        g0.coeffs[:3] == (F(1), F(4), F(12))
        and d.coeffs[0] == 1
        and u.coeffs[0] == 0
        and u.coeffs[1] == 1
    )
    # exact physical scaling: D(0) = 32 I g and U ~ 32 I g^2 x' for any I, g
    I, g = F(3), F(5)
    physical = d.coeffs[0] * 32 * I * g == 480 and u.coeffs[1] * 32 * I * g * g == 2400
    integral = (
        integer_coefficients_start(g0)
        and integer_coefficients_start(u, start=1)
        and integer_coefficients_start(d)
    )
    report(
        4,
        heads and physical and integral,
        "rate/energy/Jacobian leading terms exact; positive integers to order 200",
    )


def test_criterion_5_legendre_relation():
    report_suite(5, "legendre", seconds=1.0)


def test_criterion_6_theta_log_derivative():
    # three expansions of the theta log-derivative identical to order 30
    report_suite(6, "theta", order=30)


def test_criterion_7_dynamics_cross_validation():
    report_suite(7, "dynamics")


def test_criterion_8_canonical_map_checks():
    report_suite(8, "jacobian")


def test_criterion_9_energy_factorization():
    report_suite(9, "factorization")


def test_criterion_10_stable_chart():
    report_suite(10, "stable")
