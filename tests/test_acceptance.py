"""Acceptance suite: every headline claim at its stated tolerance, one
printed line per criterion.  Run with `pytest tests/test_acceptance.py -v -s`
(or plain pytest; the lines also show with -rA)."""

import math
import time
from fractions import Fraction as F

import numpy as np
import pytest

from pendnf import dynamics as dyn, elliptic as el, normal_form as nf
from pendnf.dynamics import NormalCoords, PendulumParams, PhaseState
from pendnf.elliptic import Modulus

PAR = PendulumParams(I=1.0, g=1.0)


def report(num, passed, detail):
    print(f"{'PASS' if passed else 'FAIL'}  criterion {num}: {detail}")
    assert passed


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
    t0 = time.perf_counter()
    rep = nf.rescaling_identity_check(200)
    elapsed = time.perf_counter() - t0
    report(
        2,
        rep.passed and rep.first_mismatch is None and elapsed < 60.0,
        f"phase-area identity exact through order 200 ({elapsed:.2f} s)",
    )


def test_criterion_3_stable_normal_form():
    order = 12
    w = nf.stable_bundle(order).normal_energy
    head = w.coeffs[1:7] == (F(1), F(-2), F(-4), F(-20), F(-132), F(-1008))
    calu = nf.normal_energy_series(order)
    relation = all(
        calu.coeffs[n] == -((-1) ** n) * w.coeffs[n] for n in range(order + 1)
    )
    report(
        3,
        head and relation,
        f"stable normal form W and its hyperbolic mirror exact to order {order}",
    )


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
        nf.integer_coefficients_start(g0)
        and nf.integer_coefficients_start(u, start=1)
        and nf.integer_coefficients_start(d)
    )
    report(
        4,
        heads and physical and integral,
        "rate/energy/Jacobian leading terms exact; positive integers to order 200",
    )


def test_criterion_5_legendre_relation():
    t0 = time.perf_counter()
    worst = max(
        abs(el.legendre_defect(Modulus.from_h(float(h))))
        for h in np.linspace(0.05, 0.95, 50)
    )
    elapsed = time.perf_counter() - t0
    report(
        5,
        worst <= 1e-12 and elapsed < 1.0,
        f"Legendre defect <= {worst:.2e} on the 50-point grid ({elapsed * 1e3:.0f} ms)",
    )


def test_criterion_6_theta_log_derivative():
    rep = nf.theta_logderiv_check(30)
    report(6, rep.passed, "three log-derivative expansions identical to order 30")


def test_criterion_7_dynamics_cross_validation():
    mod = Modulus.from_k(1.0)
    start = PhaseState(2 * PAR.I * PAR.g / mod.k, 0.0)
    worst_rk = 0.0
    for t in np.linspace(0.0, 10.0 / PAR.g, 51):
        c = dyn.closed_form_state(float(t), mod, PAR)
        r = dyn.rk_oracle(start, PAR, float(t), tol=1e-12)
        worst_rk = max(worst_rk, abs(c.beta - r.beta))

    worst_series = 0.0
    for h in (0.3, 0.9, 0.975):
        mod = Modulus.from_h(h)
        x = el.nome_from_h(mod)
        assert x <= 0.2
        for t in np.linspace(0.0, 5.0 / PAR.g, 26):
            c = dyn.closed_form_state(float(t), mod, PAR)
            s = dyn.series_state(x, float(t), PAR)
            worst_series = max(worst_series, abs(c.beta - s.beta), abs(c.B - s.B))

    worst_energy = 0.0
    for h in (0.3, 0.7):
        mod = Modulus.from_h(h)
        energy = 2 * PAR.g**2 * PAR.I / mod.k**2
        for t in np.linspace(0.0, 10.0 / PAR.g, 201):
            drift = abs(
                dyn.hamiltonian(dyn.closed_form_state(float(t), mod, PAR), PAR) - energy
            ) / energy
            worst_energy = max(worst_energy, drift)

    report(
        7,
        worst_rk <= 1e-8 and worst_series <= 1e-10 and worst_energy <= 1e-11,
        f"closed-vs-rk {worst_rk:.1e} (<=1e-8), closed-vs-series {worst_series:.1e} "
        f"(<=1e-10), energy drift {worst_energy:.1e} (<=1e-11)",
    )


def test_criterion_8_canonical_map_checks():
    worst_det = 0.0
    for x_prime in (-0.1, -0.05, 0.02, 0.05, 0.1):
        x = PAR.action_scale * nf.x_of_nome_series(48)(x_prime)
        t = math.sqrt(abs(x))
        for n in (NormalCoords(t, x / t), NormalCoords(-1.4 * t, x / (-1.4 * t))):
            worst_det = max(worst_det, abs(dyn.jacobian_det(n, PAR) - 1.0))
    edge = 0.45 * math.sqrt(PAR.action_scale)
    for n in (NormalCoords(0.0, edge), NormalCoords(edge, 0.0)):
        worst_det = max(worst_det, abs(dyn.jacobian_det(n, PAR) - 1.0))

    worst_slope = 0.0
    for x_prime in (0.02, 0.05, 0.1):
        slope, g0 = dyn.normal_energy_slope(x_prime, PAR)
        worst_slope = max(worst_slope, abs(slope - g0) / g0)

    report(
        8,
        worst_det <= 1e-6 and worst_slope <= 1e-6,
        f"Jacobian det defect {worst_det:.1e} (<=1e-6), energy slope vs rate "
        f"{worst_slope:.1e} (<=1e-6)",
    )


def test_criterion_9_energy_factorization():
    gammas = np.linspace(0.5, 2.0, 13)
    reports = [dyn.factorization_check(0.1, float(g), PAR) for g in gammas]
    worst_match = max(r.rel_diff for r in reports)
    values = [r.energy_factored for r in reports]
    spread = (max(values) - min(values)) / abs(reports[0].energy_direct)
    report(
        9,
        spread <= 1e-10 and worst_match <= 1e-8,
        f"gamma spread {spread:.1e} (<=1e-10), match to direct energy "
        f"{worst_match:.1e} (<=1e-8)",
    )


def test_criterion_10_stable_chart():
    worst_rel = 0.0
    for xs, t in ((0.02, 0.3), (0.04, 0.6), (0.08, 1.4)):
        g0s = el.g0_from_nome(-xs, PAR.g)
        root = math.sqrt(xs)
        pp, qq = root * math.cos(g0s * t), root * math.sin(g0s * t)
        eps = 1e-6

        def s_at(p, q):
            return dyn.stable_scaled_state(p, q, PAR).beta

        lhs = dyn.stable_scaled_state(pp, qq, PAR).B
        rhs = g0s * PAR.I * (
            pp * (s_at(pp, qq + eps) - s_at(pp, qq - eps)) / (2 * eps)
            - qq * (s_at(pp + eps, qq) - s_at(pp - eps, qq)) / (2 * eps)
        )
        worst_rel = max(worst_rel, abs(lhs - rhs) / abs(lhs))

    amp = 1e-7
    lo, hi = 0.9 * math.pi / PAR.g, 1.1 * math.pi / PAR.g
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if dyn.stable_state(amp, mid, PAR).beta < 0.0:
            lo = mid
        else:
            hi = mid
    freq = math.pi / (0.5 * (lo + hi))
    freq_rel = abs(freq - PAR.g) / PAR.g

    report(
        10,
        worst_rel <= 1e-8 and freq_rel <= 1e-6,
        f"angular-derivative relation {worst_rel:.1e} (<=1e-8), small-amplitude "
        f"frequency defect {freq_rel:.1e} (<=1e-6)",
    )
