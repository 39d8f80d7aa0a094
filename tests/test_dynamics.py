"""Dynamics tests: the four trajectory representations must agree with each
other and with the adaptive reference integrator; the canonical map must be
area preserving and energy consistent."""

import cmath
import contextlib
import hashlib
import io
import math
import random
import re
import sys

import numpy as np
import pytest

from pendnf import cli, dynamics as dyn, elliptic as el, normal_form as nf
from pendnf.dynamics import NormalCoords, PendulumParams, PhaseState
from pendnf.elliptic import Modulus


class TestHamiltonian:
    def test_unstable_equilibrium(self, par):
        assert dyn.hamiltonian(PhaseState(0.0, 0.0), par) == 0.0

    def test_bottom_of_well(self, par_phys):
        h = dyn.hamiltonian(PhaseState(0.0, math.pi), par_phys)
        assert h == pytest.approx(-2 * par_phys.I * par_phys.g**2, rel=1e-15)

    def test_libration_energy(self, par_phys):
        k = 1.7
        state = PhaseState(2 * par_phys.I * par_phys.g / k, 0.0)
        expected = 2 * par_phys.I * par_phys.g**2 / k**2
        assert dyn.hamiltonian(state, par_phys) == pytest.approx(expected, rel=1e-15)


class TestClosedForm:
    def test_initial_state(self, par):
        mod = Modulus.from_h(0.4)
        s = dyn.closed_form_state(0.0, mod, par)
        assert s.beta == 0.0
        assert s.B == pytest.approx(2 * par.I * par.g / mod.k, rel=1e-15)

    def test_energy_conserved(self, par):
        mod = Modulus.from_h(0.3)
        energy = 2 * par.g**2 * par.I / mod.k**2
        for t in np.linspace(0.0, 10.0 / par.g, 101):
            h = dyn.hamiltonian(dyn.closed_form_state(float(t), mod, par), par)
            assert abs(h - energy) / energy < 1e-11

    def test_matches_reference_integrator(self, par):
        mod = Modulus.from_k(1.0)
        start = PhaseState(2 * par.I * par.g / mod.k, 0.0)
        for t in np.linspace(0.0, 10.0 / par.g, 21):
            c = dyn.closed_form_state(float(t), mod, par)
            r = dyn.rk_oracle(start, par, float(t), tol=1e-12)
            assert abs(c.beta - r.beta) < 1e-8
            assert abs(c.B - r.B) < 1e-8

    def test_physical_parameters(self, par_phys):
        mod = Modulus.from_h(0.5)
        energy = 2 * par_phys.g**2 * par_phys.I / mod.k**2
        for t in (0.0, 1.3, 4.1):
            h = dyn.hamiltonian(dyn.closed_form_state(t, mod, par_phys), par_phys)
            assert h == pytest.approx(energy, rel=1e-11)

    def test_needs_libration(self, par):
        with pytest.raises(ValueError):
            dyn.closed_form_state(1.0, Modulus.from_h(0.0), par)

    def test_beta_unwrapped_monotone(self, par):
        mod = Modulus.from_h(0.4)
        betas = [dyn.closed_form_state(t, mod, par).beta for t in np.linspace(0, 20, 200)]
        assert all(b < c for b, c in zip(betas, betas[1:]))


class TestSeriesState:
    def test_symmetric_point_has_zero_angle(self, par):
        for x in (0.0, 0.05, 0.3):
            s = dyn.series_state(x, 0.0, par)
            assert s.beta == 0.0

    def test_symmetric_point_momentum(self, par):
        mod = Modulus.from_h(0.3)
        x = el.nome_from_h(mod)
        s = dyn.series_state(x, 0.0, par)
        assert s.B == pytest.approx(2 * par.I * par.g / mod.k, abs=1e-10)

    def test_swap_symmetry(self, par):
        # reversing time swaps the contracting and the expanding coordinate
        a = dyn.series_state(0.2, 0.6, par)
        b = dyn.series_state(0.2, -0.6, par)
        assert a.beta == pytest.approx(-b.beta, rel=1e-14)
        assert a.B == pytest.approx(b.B, rel=1e-14)

    def test_matches_closed_form(self, par):
        for h in (0.3, 0.9, 0.975):
            mod = Modulus.from_h(h)
            x = el.nome_from_h(mod)
            assert x <= 0.2
            for t in np.linspace(0.0, 5.0 / par.g, 26):
                c = dyn.closed_form_state(float(t), mod, par)
                s = dyn.series_state(x, float(t), par)
                assert abs(c.beta - s.beta) < 1e-10
                assert abs(c.B - s.B) / (par.I * par.g) < 1e-10

    def test_partial_sums_agree_with_resummation(self, par):
        mod = Modulus.from_h(0.3)
        x = el.nome_from_h(mod)
        g0 = el.g0_from_nome(x, par.g)
        for t in (0.0, 0.4, 1.1, 2.0):
            if math.exp(g0 * t) ** 2 * x >= 1.0:
                continue
            a = dyn.series_state(x, t, par)
            b = dyn.series_state_partial_sums(x, t, par)
            assert abs(a.B - b.B) < 1e-11
            assert abs(a.beta - b.beta) < 1e-11

    def test_partial_sums_domain(self, par):
        # exp(g0 t) = 10, so exp(2 g0 t) x' = 30
        t = math.log(10.0) / el.g0_from_nome(0.3, par.g)
        with pytest.raises(ValueError):
            dyn.series_state_partial_sums(0.3, t, par)

    def test_domain(self, par):
        with pytest.raises(ValueError):
            dyn.series_state(1.0, 0.0, par)

    def test_matches_caller_side_flow_factors(self):
        # bit for bit against the path where each caller formed g0 and the
        # flow factors gamma = exp(g0 t), delta = 1/gamma and passed them in
        rng = random.Random(9001)
        for i in range(5000):
            par = PendulumParams(rng.uniform(0.1, 10.0), rng.uniform(0.1, 10.0))
            x = (0.0, rng.uniform(0.0, 1e-6), rng.uniform(0.0, 0.5), rng.uniform(0.5, 0.95))[i % 4]
            # g0 t spans [-20, 20]: e^20 sqrt(x') is far outside the unit disk
            t = 0.0 if i % 7 == 0 else rng.uniform(-20.0, 20.0) / el.g0_from_nome(x, par.g)
            got = dyn.series_state(x, t, par)
            want = _series_state_from_flow_factors(x, t, par)
            assert (got.B.hex(), got.beta.hex()) == (want.B.hex(), want.beta.hex())

    @pytest.mark.parametrize("h", [0.3, 0.9])
    @pytest.mark.parametrize("t0", [800.0, -800.0, 1e5, -1e5])
    def test_long_times_keep_the_energy(self, h, t0, par, par_phys):
        # |g0 t| past the float range of exp(g0 t): the chart reduces t by
        # whole periods, and every sample stays on the orbit's energy surface
        # to the closed_vs_series tolerance
        mod = Modulus.from_h(h)
        for params in (par, par_phys):
            energy = 2.0 * params.g**2 * params.I / mod.k**2
            records = dyn.trajectory("series", mod, params, t0, t0 + 1.0, 0.5)
            assert len(records) == 3
            for r in records:
                assert abs(r.energy - energy) / energy <= 1e-10

    @pytest.mark.parametrize("t", [800.0, -800.0, 1e5, -1e5, 3e7])
    def test_long_times_shift_by_whole_periods(self, t, par_phys):
        # B(t) = B(t - kT) and beta(t) = beta(t - kT) + 2 pi k for the
        # period T = ln(1/x') / g0, with t - kT inside the unshifted range
        for h in (0.3, 0.9):
            x = el.nome_from_h(Modulus.from_h(h))
            g0 = el.g0_from_nome(x, par_phys.g)
            period = math.log(1.0 / x) / g0
            k = round(t / period)
            assert abs(g0 * (t - k * period)) < 10.0
            got = dyn.series_state(x, t, par_phys)
            want = _series_state_from_flow_factors(x, t - k * period, par_phys)
            assert abs(got.B - want.B) <= 1e-9 * par_phys.I * par_phys.g
            assert abs(got.beta - (want.beta + 2.0 * math.pi * k)) <= 1e-9 * max(1.0, abs(got.beta))

    def test_inside_the_float_range_unchanged(self, par):
        # up to the largest |g0 t| with exp(g0 t) and 1/exp(-|g0 t|) finite,
        # no period is taken off
        bound = math.log(sys.float_info.max)
        for h in (0.3, 0.9):
            x = el.nome_from_h(Modulus.from_h(h))
            g0 = el.g0_from_nome(x, par.g)
            for gt in (700.0, -700.0, bound, -bound):
                t = gt / g0
                if abs(g0 * t) > bound:
                    t = math.nextafter(t, 0.0)
                got = dyn.series_state(x, t, par)
                want = _series_state_from_flow_factors(x, t, par)
                assert (got.B.hex(), got.beta.hex()) == (want.B.hex(), want.beta.hex())
            # one step past the bound the old path fails; the chart does not
            t = math.nextafter(bound / g0, math.inf)
            with pytest.raises(OverflowError):
                _series_state_from_flow_factors(x, t, par)
            assert all(math.isfinite(v) for v in vars(dyn.series_state(x, t, par)).values())

    def test_zero_nome_is_the_equilibrium_at_any_time(self, par):
        for t in (0.0, 1.0, 800.0, -801.0, 1e300, -1e300):
            s = dyn.series_state(0.0, t, par)
            assert (s.B.hex(), s.beta.hex()) == ((0.0).hex(), (0.0).hex())


def _series_state_from_flow_factors(x_prime, t, par):
    g0 = el.g0_from_nome(x_prime, par.g)
    e = math.exp(g0 * t)
    gamma, delta = e, 1.0 / e
    root = math.sqrt(x_prime)
    s_sum, r_sum = dyn._arctan_sums(delta * root, gamma * root, x_prime)
    return PhaseState(B=4.0 * par.I * el.g0_from_nome(x_prime, par.g) * r_sum, beta=4.0 * s_sum)


class TestHyperbolicState:
    def test_origin_is_equilibrium(self, par):
        s = dyn.hyperbolic_state(0.0, 0.0, par)
        assert (s.B, s.beta) == (0.0, 0.0)

    def test_swap_antisymmetry(self, par):
        a = dyn.hyperbolic_state(0.3, 0.5, par)
        b = dyn.hyperbolic_state(0.5, 0.3, par)
        assert a.beta == pytest.approx(-b.beta, rel=1e-14)
        assert a.B == pytest.approx(b.B, rel=1e-14)

    def test_consistent_with_flow_factors(self, par):
        mod = Modulus.from_h(0.5)
        x = el.nome_from_h(mod)
        e = math.exp(el.g0_from_nome(x, par.g) * 0.8)
        root = math.sqrt(x)
        a = dyn.series_state(x, 0.8, par)
        b = dyn.hyperbolic_state((1.0 / e) * root, e * root, par)
        assert a.B == pytest.approx(b.B, abs=1e-12)
        assert a.beta == pytest.approx(b.beta, abs=1e-12)

    def test_negative_product_allowed(self, par):
        s = dyn.hyperbolic_state(-0.2, 0.3, par)
        assert math.isfinite(s.B) and math.isfinite(s.beta)

    def test_divergent_product_rejected(self, par):
        with pytest.raises(ValueError):
            dyn.hyperbolic_state(1.2, 0.9, par)


class TestCanonicalMap:
    def test_origin(self, par):
        s = dyn.canonical_from_normal(NormalCoords(0.0, 0.0), par)
        assert (s.B, s.beta) == (0.0, 0.0)

    def test_small_action_linearization(self, par_phys):
        # x' ~ x / (32 I g) at leading order
        x = 1e-6 * par_phys.action_scale
        x_prime = dyn.nome_from_action(x, par_phys)
        assert x_prime == pytest.approx(x / par_phys.action_scale, rel=1e-4)

    def test_round_trip_energy(self, par):
        for x_prime in (0.01, 0.05, 0.1):
            a = math.sqrt(par.action_scale * nf.rescale_sq_series(48)(x_prime))
            root = math.sqrt(x_prime)
            for split in (1.0, 1.6):
                n = NormalCoords(a * root / split, a * root * split)
                state = dyn.canonical_from_normal(n, par)
                direct = dyn.hamiltonian(state, par)
                normal = dyn.normal_energy(n.x, par)
                assert abs(direct - normal) / abs(direct) < 1e-9

    def test_series_evaluation_inside_radius(self, par):
        # the Taylor series of the normal energy converges only on a small
        # disk; inside it the direct summation must match the composed route
        for x_prime in (0.005, 0.02):
            x = par.action_scale * nf.x_of_nome_series(48)(x_prime)
            series_value = par.action_scale * par.g * nf.normal_energy_series(48)(
                x / par.action_scale
            )
            assert series_value == pytest.approx(dyn.normal_energy(x, par), rel=1e-10)

    def test_nome_inversion_tolerance(self, par_phys):
        for x_prime in (-0.08, 0.0, 0.3):
            x = par_phys.action_scale * nf.x_of_nome_series(64)(x_prime)
            back = dyn.nome_from_action(x, par_phys)
            assert back == pytest.approx(x_prime, abs=1e-12)

    def test_action_round_trip(self, par, par_phys):
        # nome_from_action inverts exactly the polynomial action_from_nome evaluates
        for params in (par, par_phys):
            for x_prime in np.linspace(0.0, 0.5, 51):
                x = dyn.action_from_nome(float(x_prime), params)
                assert dyn.nome_from_action(x, params) == pytest.approx(x_prime, abs=1e-15)

    def test_negative_side_matches_the_bracket_search(self):
        # the bracket [-_NOME_BOUND, 0] gives the bits the widening search
        # gave, or the same error, two thirds of the actions near the
        # saturated end of the map
        rng = random.Random(8401)
        solve = dyn.nome_from_action.__wrapped__
        for i in range(5000):
            par = SCAN_PARAMS[i % 3]
            x_prime = rng.uniform(-0.5, -0.25) if i % 3 else rng.uniform(-0.25, 0.0)
            x = dyn.action_from_nome(x_prime, par) * (1.0 + rng.uniform(-1e-3, 1e-3))
            assert _outcome_hex(solve, x, par) == _outcome_hex(_bracket_search_nome, x, par)

    def test_negative_side_checks_the_bound_then_runs_newton(self, par, monkeypatch):
        x = dyn.action_from_nome(-0.05, par)
        points = []
        rescale_sq = dyn._rescale_sq

        def recorded(y):
            points.append(y)
            return rescale_sq(y)

        monkeypatch.setattr(dyn, "_rescale_sq", recorded)
        dyn.nome_from_action.__wrapped__(x, par)
        assert points[:2] == [-dyn._NOME_BOUND, x / par.action_scale]
        assert points.count(-dyn._NOME_BOUND) == 1

    def test_out_of_range_action(self, par):
        # positive actions are reachable up to x(0.5); negative ones saturate
        # near -0.08 * 32*I*g long before the nome bound
        with pytest.raises(ValueError):
            dyn.nome_from_action(par.action_scale * 1e4, par)
        with pytest.raises(ValueError):
            dyn.nome_from_action(-par.action_scale * 0.2, par)


SCAN_PARAMS = (PendulumParams(1.0, 1.0), PendulumParams(0.37, 2.3), PendulumParams(2.5, 0.7))


def _bracket_search_nome(x, par):
    """nome_from_action with its former negative-side bracket: start at the
    target and widen by 1.5 until f(lo) <= 0, for at most 64 steps."""
    if not math.isfinite(x):
        raise ValueError(f"action x = p q must be finite, got {x}")
    target = x / par.action_scale
    bound = dyn._NOME_BOUND

    def f_and_slope(y):
        a2, slope = dyn._rescale_sq(y)
        return y * a2 - target, slope

    if target == 0.0:
        return 0.0
    if target > 0.0:
        lo, hi = 0.0, min(target, bound)
        if f_and_slope(hi)[0] < 0.0:
            raise ValueError(f"action {x} is outside the invertible range (|x'| <= {bound})")
    else:
        lo = max(target, -bound)
        for _ in range(64):
            if f_and_slope(lo)[0] <= 0.0:
                break
            lo = max(lo * 1.5, -bound)
            if lo == -bound and f_and_slope(lo)[0] > 0.0:
                raise ValueError(f"action {x} is outside the invertible range (|x'| <= {bound})")
        hi = 0.0
    y = min(max(target, lo), hi)
    for _ in range(200):
        val, slope = f_and_slope(y)
        if val > 0.0:
            hi = y
        else:
            lo = y
        step = -val / slope if slope != 0.0 else math.nan
        y_new = y + step
        if not lo <= y_new <= hi:
            y_new = 0.5 * (lo + hi)
        if abs(y_new - y) <= 1e-14 * max(1.0, abs(y_new)):
            return y_new
        y = y_new
    raise RuntimeError("nome inversion did not converge")


def _outcome_hex(fn, *args) -> str:
    try:
        return fn(*args).hex()
    except (ValueError, RuntimeError) as exc:
        return f"{type(exc).__name__}: {exc}"


class TestNormalFlow:
    def test_time_zero_identity(self, par):
        n = NormalCoords(0.4, 0.3)
        assert dyn.normal_flow(n, 0.0, par) == n

    def test_product_invariant(self, par):
        n = NormalCoords(0.4, 0.3)
        moved = dyn.normal_flow(n, 3.7, par)
        assert moved.x == pytest.approx(n.x, rel=5e-16)

    def test_commutes_with_closed_form(self, par):
        mod = Modulus.from_h(0.93)
        x_prime = el.nome_from_h(mod)
        assert abs(x_prime) <= 0.13
        a = math.sqrt(par.action_scale * nf.rescale_sq_series(48)(x_prime))
        n0 = NormalCoords(a * math.sqrt(x_prime), a * math.sqrt(x_prime))
        for t in np.linspace(0.0, 5.0 / par.g, 21):
            via_normal = dyn.canonical_from_normal(dyn.normal_flow(n0, float(t), par), par)
            via_closed = dyn.closed_form_state(float(t), mod, par)
            assert abs(via_normal.B - via_closed.B) < 1e-9
            assert abs(via_normal.beta - via_closed.beta) < 1e-9

    def test_energy_constant_along_flow(self, par):
        n0 = NormalCoords(0.5, 0.35)
        e0 = dyn.hamiltonian(dyn.canonical_from_normal(n0, par), par)
        for t in (0.5, 1.5, 3.0):
            e = dyn.hamiltonian(
                dyn.canonical_from_normal(dyn.normal_flow(n0, t, par), par), par
            )
            assert abs(e - e0) / abs(e0) < 1e-10


class TestJacobianDeterminant:
    def test_unit_on_grid(self, par):
        for x_prime in (-0.1, -0.05, 0.02, 0.05, 0.1):
            x = par.action_scale * nf.x_of_nome_series(48)(x_prime)
            t = math.sqrt(abs(x))
            for n in (NormalCoords(t, x / t), NormalCoords(-1.3 * t, x / (-1.3 * t))):
                assert abs(dyn.jacobian_det(n, par) - 1.0) < 1e-6

    def test_unit_on_axes(self, par):
        edge = 0.45 * math.sqrt(par.action_scale)
        assert abs(dyn.jacobian_det(NormalCoords(0.0, edge), par) - 1.0) < 1e-6
        assert abs(dyn.jacobian_det(NormalCoords(edge, 0.0), par) - 1.0) < 1e-6

    def test_unit_for_physical_parameters(self, par_phys):
        n = NormalCoords(0.2 * math.sqrt(par_phys.action_scale), 0.3)
        assert abs(dyn.jacobian_det(n, par_phys) - 1.0) < 1e-6

    def test_each_stencil_point_mapped_once(self, par, monkeypatch):
        calls = []
        original = dyn.canonical_from_normal

        def counted(n, params):
            calls.append(n)
            return original(n, params)

        monkeypatch.setattr(dyn, "canonical_from_normal", counted)
        dyn.jacobian_det(NormalCoords(0.3, 0.2), par)
        assert len(calls) == len(set(calls)) == 4

    def test_misnormalized_map_detected(self, par):
        # freeze the rescale at the separatrix value: the determinant must
        # drift away from 1 as soon as x' is not negligible
        a0 = math.sqrt(par.action_scale)
        step = 1e-5 * a0

        def naive(p, q):
            return dyn.hyperbolic_state(p / a0, q / a0, par)

        p, q = 0.8, 0.7
        dB_dp = (naive(p + step, q).B - naive(p - step, q).B) / (2 * step)
        dB_dq = (naive(p, q + step).B - naive(p, q - step).B) / (2 * step)
        db_dp = (naive(p + step, q).beta - naive(p - step, q).beta) / (2 * step)
        db_dq = (naive(p, q + step).beta - naive(p, q - step).beta) / (2 * step)
        det = dB_dp * db_dq - dB_dq * db_dp
        assert abs(det - 1.0) > 1e-3


class TestEnergySlope:
    def test_matches_rate(self, par):
        for x_prime in (0.02, 0.05, 0.1):
            slope, g0 = dyn.normal_energy_slope(x_prime, par)
            assert abs(slope - g0) / g0 < 1e-6

    def test_matches_rate_physical(self, par_phys):
        slope, g0 = dyn.normal_energy_slope(0.05, par_phys)
        assert abs(slope - g0) / g0 < 1e-6


class TestFactorization:
    def test_matches_direct_energy(self, par):
        for gamma in (0.5, 1.0, 2.0):
            rep = dyn.factorization_check(0.1, gamma, par)
            assert rep.rel_diff < 1e-8

    def test_gamma_independent(self, par):
        values = [
            dyn.factorization_check(0.1, float(g), par).energy_factored
            for g in np.linspace(0.5, 2.0, 11)
        ]
        spread = (max(values) - min(values)) / dyn.energy_from_nome(0.1, par)
        assert spread < 1e-10

    def test_small_nome_leading_order(self, par):
        x = 1e-4
        rep = dyn.factorization_check(x, 1.0, par)
        assert rep.energy_factored / (par.action_scale * par.g * x) == pytest.approx(
            1.0, abs=0.01
        )

    def test_domain(self, par):
        with pytest.raises(ValueError):
            dyn.factorization_check(0.0, 1.0, par)
        with pytest.raises(ValueError):
            dyn.factorization_check(0.1, -1.0, par)


class TestStableChart:
    def test_zero_amplitude_is_equilibrium(self, par):
        s = dyn.stable_state(0.0, 1.3, par)
        assert (s.B, s.beta) == (0.0, 0.0)

    def test_differential_relation(self, par):
        for xs, t in ((0.02, 0.3), (0.04, 0.6), (0.08, 1.4)):
            g0s = el.g0_from_nome(-xs, par.g)
            root = math.sqrt(xs)
            pp, qq = root * math.cos(g0s * t), root * math.sin(g0s * t)
            eps = 1e-6

            def s_at(p, q):
                return dyn.stable_scaled_state(p, q, par).beta

            lhs = dyn.stable_scaled_state(pp, qq, par).B
            rhs = g0s * par.I * (
                pp * (s_at(pp, qq + eps) - s_at(pp, qq - eps)) / (2 * eps)
                - qq * (s_at(pp + eps, qq) - s_at(pp - eps, qq)) / (2 * eps)
            )
            assert abs(lhs - rhs) / abs(lhs) < 1e-8

    def test_small_amplitude_frequency(self, par):
        amp = 1e-7
        g0s = el.g0_from_nome(-amp, par.g)
        lo, hi = 0.9 * math.pi / par.g, 1.1 * math.pi / par.g
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if dyn.stable_state(amp, mid, par).beta < 0.0:
                lo = mid
            else:
                hi = mid
        freq = math.pi / (0.5 * (lo + hi))
        assert abs(freq - g0s) / g0s < 1e-9
        assert abs(freq - par.g) / par.g < 1e-6

    def test_energy_matches_stable_product(self, par):
        for xs in (0.01, 0.05, 0.15):
            prod, odd = 1.0, xs
            while odd > 1e-18:
                prod *= ((1 + odd * xs) / (1 + odd)) ** 8
                odd *= xs * xs
            energy = 32 * par.I * par.g**2 * xs * prod
            for t in (0.0, 0.7, 2.2):
                s = dyn.stable_state(xs, t, par)
                h = s.B**2 / (2 * par.I) + par.I * par.g**2 * (1 - math.cos(s.beta))
                assert h == pytest.approx(energy, rel=1e-12)

    def test_pole_detection(self, par):
        with pytest.raises(ValueError):
            dyn.stable_scaled_state(0.99999999999, 0.0, par)

    def test_domain(self, par):
        with pytest.raises(ValueError):
            dyn.stable_state(1.0, 0.0, par)
        with pytest.raises(ValueError):
            dyn.stable_scaled_state(0.8, 0.7, par)

    def test_matches_conjugate_pair_sums(self):
        # bit for bit, or the same error type, against the path that summed
        # both members of every conjugate pair in complex arithmetic: axis
        # points, signed zeros, radii down to 1e-200, points next to the
        # poles and outside the disk
        rng = random.Random(10_007)
        for i in range(20_000):
            par = SCAN_PARAMS[i % 3]
            p, q = _stable_scan_point(rng, i)
            got = _outcome_state(dyn.stable_scaled_state, p, q, par)
            assert got == _outcome_state(_stable_scaled_state_conjugate_pairs, p, q, par)
        for p, q in ((1.0 - 4.9e-10, 0.0), (-1.0 + 5.1e-10, 1e-12), (0.0, 1.0 - 5e-10)):
            got = _outcome_state(dyn.stable_scaled_state, p, q, SCAN_PARAMS[0])
            assert got == _outcome_state(_stable_scaled_state_conjugate_pairs, p, q, SCAN_PARAMS[0])


def _stable_scan_point(rng, i):
    kind = i % 8
    if kind == 0:
        r = math.sqrt(rng.uniform(0.0, 0.99))
        return rng.choice((r, -r, 0.0, -0.0)), rng.choice((0.0, -0.0))
    if kind == 1:
        r = math.sqrt(rng.uniform(0.0, 0.99))
        return rng.choice((0.0, -0.0)), rng.choice((r, -r))
    if kind == 2:
        r, a = 10 ** rng.uniform(-200, 0), rng.uniform(-math.pi, math.pi)
        return r * math.cos(a), r * math.sin(a)
    if kind == 3:
        # |1 - w^2| just below the pole threshold at w = +-1 (beyond it the
        # sums run to the term cap, as the boundary cases below do)
        return rng.choice((1.0, -1.0)) * (1.0 - 10 ** rng.uniform(-13, -9.31)), rng.uniform(-1e-10, 1e-10)
    if kind == 4:
        return rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2)
    r, a = math.sqrt(rng.uniform(0.0, 0.9)), rng.uniform(-math.pi, math.pi)
    return r * math.cos(a), r * math.sin(a)


def _outcome_state(fn, *args):
    try:
        s = fn(*args)
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        return type(exc).__name__
    return s.B.hex(), s.beta.hex()


def _stable_scaled_state_conjugate_pairs(p, q, par):
    """The stable chart as it summed each conjugate pair w, conj(w) in
    complex arithmetic and checked the imaginary parts cancelled."""
    xs = p * p + q * q
    if not xs < 1.0:
        raise ValueError(f"stable sums require p'^2 + q'^2 < 1, got {xs}")
    w0 = complex(p, q)
    s_sum = 0 + 0j
    r_sum = 0 + 0j
    rho_pow = 1.0
    sign = 1.0
    for _ in range(dyn._MAX_TERMS):
        w = rho_pow * w0
        wc = w.conjugate()
        for den in (1.0 - w * w, 1.0 - wc * wc):
            if abs(den) < dyn._POLE_EPS:
                raise ValueError("stable sum too close to a pole")
        s_sum += sign * (cmath.atanh(w) - cmath.atanh(wc))
        r_sum += sign * (w / (1.0 - w * w) + wc / (1.0 - wc * wc))
        rho_pow *= xs
        sign = -sign
        if rho_pow * abs(w0) < dyn._TERM_RTOL * (1.0 + abs(s_sum) + abs(r_sum)):
            break
    else:
        raise RuntimeError("stable sums did not converge within the term cap")
    g0s = el.g0_from_nome(-xs, par.g)
    s_val = 4j * s_sum
    r_val = -4.0 * par.I * g0s * r_sum
    scale = max(1.0, abs(s_val), abs(r_val))
    if abs(s_val.imag) > 1e-12 * scale or abs(r_val.imag) > 1e-12 * scale:
        raise ArithmeticError("conjugate-pair sums left a non-cancelling imaginary part")
    return PhaseState(B=r_val.real, beta=s_val.real)


class TestSignedNomeEnergy:
    def test_normal_energy_matches_the_two_branch_form(self):
        # bit for bit, or the same error type, against the form that took
        # the libration product for x' >= 0 and a separate oscillation
        # product with a sign flag for x' < 0
        rng = random.Random(10_009)
        for i in range(20_000):
            par = SCAN_PARAMS[i % 3]
            kind = i % 5
            if kind == 0:
                x = rng.choice((1.0, -1.0)) * 10 ** rng.uniform(-300, -3) * par.action_scale
            elif kind == 1:
                x = rng.choice((0.0, -0.0))
            elif kind == 2:
                # out past the negative saturation and the positive bound
                x = rng.uniform(-0.2, 0.4) * par.action_scale
            else:
                x = dyn.action_from_nome(rng.uniform(-0.5, 0.5), par)
            got = _outcome_hex(dyn.normal_energy, x, par)
            assert got == _outcome_hex(_normal_energy_two_branch, x, par)

    def test_negative_nome_matches_the_oscillation_product(self):
        rng = random.Random(10_011)
        for i in range(20_000):
            par = SCAN_PARAMS[i % 3]
            xs = 10 ** rng.uniform(-300, 0) * 0.998 if i % 2 else rng.uniform(0.0, 0.998)
            want = -par.action_scale * par.g * xs * _energy_product_with_sign(xs, 1.0)
            assert dyn.energy_from_nome(-xs, par).hex() == want.hex()
        assert dyn.energy_from_nome(-0.0, PendulumParams(1.0, 1.0)).hex() == (-0.0).hex()

    def test_product_cap_raises(self, par):
        # the oscillation energy tends to -2 I g^2; 10,000 factors do not
        # reach the tail bound this close to |x'| = 1, and a truncated
        # product would be far off
        with pytest.raises(RuntimeError, match="energy product did not converge"):
            dyn.energy_from_nome(-0.9999, par)
        assert dyn.energy_from_nome(-0.99, par) == pytest.approx(-2.0 * par.I * par.g**2, rel=1e-12)

    def test_domain(self, par):
        for x in (1.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                dyn.energy_from_nome(x, par)


def _energy_product_with_sign(xs, sign):
    prod = 1.0
    odd = xs
    for _ in range(1, dyn._MAX_TERMS):
        prod *= ((1.0 + odd * xs) / (1.0 + sign * odd)) ** 8
        odd *= xs * xs
        if odd < dyn._TAIL_EPS:
            break
    return prod


def _normal_energy_two_branch(x, par):
    x_prime = dyn.nome_from_action(x, par)
    if x_prime >= 0.0:
        return par.action_scale * par.g * x_prime * _energy_product_with_sign(x_prime, -1.0)
    xs = -x_prime
    return -par.action_scale * par.g * xs * _energy_product_with_sign(xs, 1.0)


class TestReferenceIntegrator:
    def test_fixed_points(self, par):
        for state in (PhaseState(0.0, 0.0), PhaseState(0.0, math.pi)):
            end = dyn.rk_oracle(state, par, 5.0, tol=1e-10)
            assert end.B == pytest.approx(state.B, abs=1e-8)
            assert end.beta == pytest.approx(state.beta, abs=1e-8)

    def test_energy_drift_bound(self, par):
        tol = 1e-10
        start = PhaseState(2.0 * par.I * par.g, 0.0)
        e0 = dyn.hamiltonian(start, par)
        end = dyn.rk_oracle(start, par, 10.0 / par.g, tol=tol)
        assert abs(dyn.hamiltonian(end, par) - e0) <= 100 * tol

    def test_tolerance_domain(self, par):
        with pytest.raises(ValueError):
            dyn.rk_oracle(PhaseState(1.0, 0.0), par, 1.0, tol=1e-3)

    def test_pinned_endpoints(self):
        # endpoints of seeded forward, backward and t = 0 solves, by float
        # hex, as computed when the endpoint had its own integration path
        rng = random.Random(8501)
        for i, (B_hex, beta_hex) in enumerate(RK_ENDPOINTS):
            par = PendulumParams(rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0))
            state = PhaseState(rng.uniform(-3.0, 3.0), rng.uniform(-3.5, 3.5))
            t = (0.0, rng.uniform(-15.0, 0.0), rng.uniform(0.0, 15.0))[i % 3]
            tol = 10.0 ** rng.uniform(-12.0, -8.0)
            end = dyn.rk_oracle(state, par, t, tol)
            assert (end.B.hex(), end.beta.hex()) == (B_hex, beta_hex)


RK_ENDPOINTS = [
    ("0x1.a18824e034848p+0", "-0x1.e33baa0403678p-2"),  # t = 0
    ("-0x1.041148d469cbfp+1", "0x1.e6487f741b8aap+2"),  # t = -12
    ("-0x1.c986be2f36060p+0", "-0x1.f071a332ea598p+3"),  # t = 7.27
    ("-0x1.59fc89e0c4946p+0", "-0x1.9f9541cdb7d7cp+0"),  # t = 0
    ("0x1.81c6e9cb505ccp+3", "-0x1.8fbf8eaa4de7bp+1"),  # t = -10.2
    ("0x1.bd5310fb35b52p+0", "-0x1.c9ea8bf48853ap+1"),  # t = 2.09
    ("-0x1.8bc8faaaa4822p+0", "-0x1.ea4c3a4daca95p+0"),  # t = 0
    ("-0x1.3c71982ca651ep+2", "0x1.4e3d7c9349c0cp+1"),  # t = -9.68
    ("-0x1.489536cce7e1cp+1", "0x1.cac4b385d6b10p+1"),  # t = 10.9
    ("-0x1.359ddd538f182p+1", "0x1.d05568154374cp+0"),  # t = 0
]


class TestTrajectory:
    def test_all_methods_agree(self, par):
        mod = Modulus.from_h(0.5)
        runs = {
            m: dyn.trajectory(m, mod, par, 0.0, 3.0, 0.5, tol=1e-12)
            for m in ("closed", "series", "normal", "rk")
        }
        base = runs["closed"]
        for method, recs in runs.items():
            assert [r.t for r in recs] == [r.t for r in base]
            for r, b in zip(recs, base):
                assert abs(r.beta - b.beta) < 1e-8
                assert abs(r.B - b.B) < 1e-8

    def test_energy_column_constant(self, par):
        recs = dyn.trajectory("closed", Modulus.from_h(0.3), par, 0.0, 10.0, 0.01)
        e0 = recs[0].energy
        assert max(abs(r.energy - e0) for r in recs) / e0 < 1e-11

    def test_method_tag(self, par):
        recs = dyn.trajectory("rk", Modulus.from_h(0.3), par, 0.0, 1.0, 0.5)
        assert all(r.method == "rk" for r in recs)

    def test_unknown_method(self, par):
        with pytest.raises(ValueError):
            dyn.trajectory("euler", Modulus.from_h(0.3), par, 0.0, 1.0, 0.5)

    def test_grid_validation(self, par):
        with pytest.raises(ValueError):
            dyn.trajectory("closed", Modulus.from_h(0.3), par, 0.0, 1.0, -0.5)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            PendulumParams(I=0.0, g=1.0)
        with pytest.raises(ValueError):
            PendulumParams(I=1.0, g=-2.0)

    @pytest.mark.parametrize("I, g", [(1e300, 1e10), (1e308, 1e308), (1e-200, 1e-200),
                                      (1e150, 1e150), (1e-100, 1e-120), (math.inf, 1.0)])
    def test_scales_must_be_finite_and_positive(self, I, g):
        # 32 I g or 32 I g^2 overflows or underflows to 0
        with pytest.raises(ValueError, match=re.escape(f"got I = {I}, g = {g}") + "$"):
            PendulumParams(I=I, g=g)

    def test_extreme_but_representable_scales(self):
        par = PendulumParams(I=1e150, g=1e-150)
        assert par.action_scale == 32.0 * 1e150 * 1e-150

    def test_action_scale(self, par_phys):
        assert par_phys.action_scale == 32.0 * 2.5 * 0.7


def _time_grid_floor(t0, t1, dt):
    """The plain floor rule, which drops the t1 sample whenever forming t1
    and t1 - t0 loses more than 1e-9 dt to rounding."""
    steps = int(math.floor((t1 - t0) / dt + 1e-9))
    return [t0 + i * dt for i in range(steps + 1)]


class TestTimeGrid:
    def test_keeps_endpoint_far_from_origin(self):
        t0, dt = 3640414.2781883497, 0.1
        t1 = t0 + 193 * dt
        assert t1 == 3640433.5781883495
        grid = dyn._time_grid(t0, t1, dt)
        assert len(grid) == 194 and grid[-1] == t1
        assert grid == [t0 + i * dt for i in range(194)]
        assert len(_time_grid_floor(t0, t1, dt)) == 193

    def test_seeded_lattice_endpoints(self):
        # t1 on the grid's own lattice, t1 = t0 + n dt, at every magnitude
        # and sign of t0: the grid has its n + 1 points t0 + i dt
        rng = random.Random(6)
        for _ in range(4000):
            t0 = rng.choice((1.0, -1.0)) * 10 ** rng.uniform(-3, 8) * rng.random()
            dt = 10 ** rng.uniform(-3, 1)
            n = rng.randint(0, 300)
            t1 = t0 + n * dt
            assert dyn._time_grid(t0, t1, dt) == [t0 + i * dt for i in range(n + 1)]

    def test_seeded_grids_otherwise_unchanged(self):
        # any other t1: the grid is the floor rule's, or that plus the one
        # lattice point the floor rule lost to rounding
        rng = random.Random(7)
        added = 0
        for _ in range(4000):
            t0 = rng.choice((1.0, -1.0)) * 10 ** rng.uniform(-3, 8) * rng.random()
            dt = 10 ** rng.uniform(-3, 1)
            t1 = t0 + rng.choice((rng.uniform(0, 300), rng.randint(0, 300))) * dt
            grid, floor_grid = dyn._time_grid(t0, t1, dt), _time_grid_floor(t0, t1, dt)
            if grid != floor_grid:
                added += 1
                assert grid[:-1] == floor_grid
                assert grid[-1] - t1 <= 4 * math.ulp(max(abs(t0), abs(t1)))
        assert added > 0

    def test_grids_from_origin_keep_their_endpoint(self):
        for t1, dt, n in ((10.0, 0.01, 1000), (2.0, 0.01, 200), (1.0, 0.3, 3), (0.0, 0.5, 0)):
            assert dyn._time_grid(0.0, t1, dt) == _time_grid_floor(0.0, t1, dt)
            assert len(dyn._time_grid(0.0, t1, dt)) == n + 1


def _sha(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _normal_trajectory_digest(h: float, par: PendulumParams) -> str:
    recs = dyn.trajectory("normal", Modulus.from_h(h), par, 0.0, 10.0, 0.05)
    return _sha(f"{r.t!r} {r.B!r} {r.beta!r} {r.energy!r}" for r in recs)


def _outcome(fn, *args) -> str:
    try:
        return repr(fn(*args))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def _map_points(par: PendulumParams, seed: int, count: int):
    """Seeded normal coordinates over |x'| <= 0.5: uneven splits of the
    action, random signs, and one point in ten on an axis."""
    rng = random.Random(seed)
    for _ in range(count):
        x = dyn.action_from_nome(rng.uniform(-0.5, 0.5), par)
        if rng.random() < 0.1:
            root = math.sqrt(par.action_scale) * rng.uniform(-0.7, 0.7)
            yield NormalCoords(root, 0.0) if rng.random() < 0.5 else NormalCoords(0.0, root)
            continue
        p = math.copysign(math.sqrt(abs(x)) * rng.uniform(0.25, 4.0), rng.uniform(-1, 1))
        yield NormalCoords(p, x / p)


def _map_digest(par: PendulumParams, seed: int, count: int) -> str:
    def phase(n):
        state = dyn.canonical_from_normal(n, par)
        return state, dyn.hamiltonian(state, par)

    return _sha(" ".join((
        repr(n.p), repr(n.q),
        _outcome(dyn.nome_from_action, n.x, par),
        _outcome(phase, n),
        _outcome(dyn.normal_energy, n.x, par),
        _outcome(dyn.jacobian_det, n, par),
    )) for n in _map_points(par, seed, count))


PARAMS = {"unit": PendulumParams(I=1.0, g=1.0), "b": PendulumParams(I=0.37, g=2.3)}


class TestPinnedBytes:
    """Outputs the CLI digests do not cover, pinned bit for bit: the normal
    trajectory and the canonical map, with their errors."""

    TRAJECTORY = {
        (1e-6, "unit"):
            "040debaee5d9f26267866f8cf326b0cecb5c0f503e8f67c6659825ac1c08210e",
        (0.3, "unit"):
            "59d277cdddfbdf6324d2e04122c1f27eab7e021a2624098ecf1da835a0d9d132",
        (0.9, "unit"):
            "1700b35c1909d67562dad25ac96646bf2a9447a76e7edf119d5b6ee935167b38",
        (1e-6, "b"):
            "1b80c6b71fb22f656dcf5f5d4e48c76dc018d1d80a1ddcb3b277f7313c9348da",
        (0.3, "b"):
            "8988b9aa8f9eef1da7a1f7b901af92e9fd9a848ce6e9c5fa083023c38938fff4",
        (0.9, "b"):
            "d3c2072c6bd1606056b1fbf8d6249b340035cd9a6b6fcd1cbf6a8fd4867e7510",
    }
    # seed of the points, digest
    MAP = {
        "unit": (60, "ffe096f3a5965556ce502d7029437045cc5b5f3345b90da3b84f03b8d0770917"),
        "b": (61, "97833587d5b2ec15f7642e6ca0d8dc10bfab8fdd9fb091c5c2cc0f4f78e0376f"),
    }

    @pytest.mark.parametrize("h,which", sorted(TRAJECTORY))
    def test_normal_trajectory(self, h, which):
        assert _normal_trajectory_digest(h, PARAMS[which]) == self.TRAJECTORY[(h, which)]

    @pytest.mark.parametrize("which", sorted(MAP))
    def test_map_outputs(self, which):
        seed, digest = self.MAP[which]
        assert _map_digest(PARAMS[which], seed, 100) == digest


class TestNomeCache:
    def test_alternating_params_match_uncached(self, par):
        x = 0.9
        for _ in range(3):
            for params in (par, PARAMS["b"], par):
                assert dyn.nome_from_action(x, params) == dyn.nome_from_action.__wrapped__(x, params)
        assert dyn.nome_from_action(x, par) != dyn.nome_from_action(x, PARAMS["b"])

    def test_errors_are_not_cached(self, par):
        argv = ["map", "--p", "1", "--q", "-2.5445688846475436"]
        for _ in range(3):
            with pytest.raises(RuntimeError, match="did not converge"):
                dyn.nome_from_action(-2.5445688846475436, par)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                assert cli.main(argv) == 1
            assert "nome inversion did not converge" in err.getvalue()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected_before_any_step(self, par, monkeypatch, bad):
        steps = []
        rescale_sq = dyn._rescale_sq

        def counted(y):
            steps.append(y)
            return rescale_sq(y)

        monkeypatch.setattr(dyn, "_rescale_sq", counted)
        # a non-finite coordinate makes the action p q non-finite (inf * 0 is nan)
        calls = [
            (dyn.nome_from_action, (bad, par)),
            (dyn.normal_energy, (bad, par)),
            (dyn.canonical_from_normal, (NormalCoords(bad, 0.5), par)),
            (dyn.canonical_from_normal, (NormalCoords(0.5, bad), par)),
            (dyn.canonical_from_normal, (NormalCoords(bad, 0.0), par)),
        ]
        message = "action x = p q must be finite, got (nan|inf|-inf)"
        for _ in range(2):      # an error is not cached: the second call raises too
            for fn, args in calls:
                with pytest.raises(ValueError, match=message):
                    fn(*args)
        assert steps == []

    def test_one_solve_per_map_query(self):
        dyn.nome_from_action.cache_clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["map", "--p", "0.31", "--q", "0.27"]) == 0
        assert dyn.nome_from_action.cache_info().misses == 1

    def test_normal_trajectory_reuses_the_start_action(self, par):
        dyn.nome_from_action.cache_clear()
        recs = dyn.trajectory("normal", Modulus.from_h(0.3), par, 0.0, 10.0, 0.01)
        info = dyn.nome_from_action.cache_info()
        assert len(recs) == 1001
        assert info.hits + info.misses == 2002
        assert info.misses < len(recs)
        assert info.currsize <= 2
