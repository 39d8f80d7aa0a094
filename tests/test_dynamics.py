"""Dynamics tests: the four trajectory representations must agree with each
other and with the adaptive reference integrator; the canonical map must be
area preserving and energy consistent."""

import contextlib
import io
import math
import random
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

import pins
from pendnf import _dop853, cli, dynamics as dyn, elliptic as el, normal_form as nf
from pendnf.dynamics import NormalCoords, PendulumParams, PhaseState
from pendnf.elliptic import Modulus
from pins import PARAMS


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

    @pytest.mark.parametrize("B", [6.2897090203315096e294, np.float64(6.2897090203315096e294),
                                   -np.float64(6.2897090203315096e294)],
                             ids=["float", "numpy", "numpy-negative"])
    def test_large_momentum_is_finite(self, B):
        # B^2 passes the largest float while B^2/(2I) does not: the energy
        # 2 I g^2 h^2/(1 - h^2) of the orbit h = 0.3
        par = PendulumParams(1e300, 1e-5)
        with np.errstate(over="raise"):
            energy = dyn.hamiltonian(PhaseState(B, 0.0), par)
        assert energy == pytest.approx(2e290 * 0.09 / 0.91, rel=1e-12)

    def test_bits_where_the_square_is_finite(self):
        pins.check("hamiltonian/square_below_limit")

    def test_kinetic_term_is_correctly_rounded_at_unit_inertia(self):
        # at beta = 0 the energy is the kinetic term alone; at I = 1 it is
        # B^2/2 rounded once, where libm's B**2 misrounds about one square in 1,200
        rng = random.Random(2900)
        par = PendulumParams(1.0, 1.0)
        for _ in range(20_000):
            B = rng.choice((rng.uniform(-10.0, 10.0), rng.choice((1, -1)) * 10 ** rng.uniform(-150, 154)))
            assert dyn.hamiltonian(PhaseState(B, 0.0), par) == float(Fraction(B) ** 2 / 2)

    @pytest.mark.parametrize("I", [1e-300, 0.37, 2.5, 1e300])
    def test_kinetic_term_within_one_and_a_half_ulp(self, I):
        # two roundings, B/(2I) and the product, with both normal: B from
        # 1e-50 sqrt(I) to 1e50 sqrt(I), past sqrt(float max) at I = 1e300
        rng = random.Random(2901)
        par = PendulumParams(I, 1.0)
        for _ in range(5_000):
            B = rng.choice((1, -1)) * math.sqrt(I) * 10 ** rng.uniform(-50, 50)
            exact = Fraction(B) ** 2 / (2 * Fraction(I))
            error = abs(Fraction(dyn.hamiltonian(PhaseState(B, 0.0), par)) - exact)
            assert error <= Fraction(3, 2) * Fraction(math.ulp(float(exact)))


class TestClosedForm:
    def test_initial_state(self, par):
        mod = Modulus.from_h(0.4)
        s = dyn.closed_form_state(0.0, mod, par)
        assert s.beta == 0.0
        assert s.B == pytest.approx(2 * par.I * par.g / mod.k, rel=1e-15)

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
            b = series_state_partial_sums(x, t, par)
            assert abs(a.B - b.B) < 1e-11
            assert abs(a.beta - b.beta) < 1e-11

    def test_partial_sums_domain(self, par):
        # exp(g0 t) = 10, so exp(2 g0 t) x' = 30
        t = math.log(10.0) / el.g0_from_nome(0.3, par.g)
        with pytest.raises(ValueError):
            series_state_partial_sums(0.3, t, par)

    def test_domain(self, par):
        with pytest.raises(ValueError):
            dyn.series_state(1.0, 0.0, par)

    def test_matches_caller_side_flow_factors(self):
        pins.check("series_state/flow_factors")

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
        # period T = ln(1/x') / g0, with t - kT inside the range where the
        # chart takes no period off
        for h in (0.3, 0.9):
            x = el.nome_from_h(Modulus.from_h(h))
            g0 = el.g0_from_nome(x, par_phys.g)
            period = math.log(1.0 / x) / g0
            k = round(t / period)
            assert abs(g0 * (t - k * period)) < 10.0
            got = dyn.series_state(x, t, par_phys)
            want = dyn.series_state(x, t - k * period, par_phys)
            assert abs(got.B - want.B) <= 1e-9 * par_phys.I * par_phys.g
            assert abs(got.beta - (want.beta + 2.0 * math.pi * k)) <= 1e-9 * max(1.0, abs(got.beta))

    def test_inside_the_float_range_unchanged(self, par):
        pins.check("series_state/float_range")
        bound = math.log(sys.float_info.max)
        for h in (0.3, 0.9):
            x = el.nome_from_h(Modulus.from_h(h))
            g0 = el.g0_from_nome(x, par.g)
            # one step past the bound the chart still answers
            t = math.nextafter(bound / g0, math.inf)
            assert all(math.isfinite(v) for v in dyn.series_state(x, t, par))

    def test_whole_periods_come_off_exactly(self):
        # t = s + n T exactly, |s| <= T / 2 and beta gains 2 pi n, also at
        # the ties t = (n +- 1/2) T and their neighbours
        for x, g0 in ((0.3, 1.7), (0.01, 0.37)):
            period = -math.log(x) / g0
            for n in (1, 2, 7, -3, 1000, -10**6):
                for tie in ((n + 0.5) * period, (n - 0.5) * period):
                    for t in (math.nextafter(tie, -math.inf), tie, math.nextafter(tie, math.inf)):
                        s, beta = dyn._whole_periods(lambda reduced: PhaseState(reduced, 0.0), x, g0, t)
                        turns = round(beta / (2.0 * math.pi))
                        assert beta == 2.0 * math.pi * turns
                        assert Fraction(t) - Fraction(s) == turns * Fraction(period)
                        assert abs(s) <= period / 2

    def test_zero_nome_is_the_equilibrium_at_any_time(self, par):
        for t in (0.0, 1.0, 800.0, -801.0, 1e300, -1e300):
            s = dyn.series_state(0.0, t, par)
            assert (s.B.hex(), s.beta.hex()) == ((0.0).hex(), (0.0).hex())


def series_state_partial_sums(x_prime, t, par):
    """Direct partial sums (80 terms) of the alternating nome series, before
    the arctan resummation.  Converges only where exp(2 g0 |t|) x' < 1; the
    cross-check companion of series_state.
    """
    if not 0.0 < x_prime < 1.0:
        raise ValueError(f"partial sums need 0 < x' < 1, got {x_prime}")
    g0 = el.g0_from_nome(x_prime, par.g)
    gamma = math.exp(g0 * t)
    delta = 1.0 / gamma
    if gamma**2 * x_prime >= 1.0 or delta**2 * x_prime >= 1.0:
        raise ValueError(f"partial sums diverge unless exp(2 g0 |t|) x' < 1, got g0 t = {g0 * t}")
    root = math.sqrt(x_prime)
    r_sum = 0.0
    s_sum = 0.0
    for n in range(1, 81):
        sign = -1.0 if n % 2 else 1.0
        xpow = root * x_prime ** (n - 1)          # x'^(n - 1/2)
        gpow = gamma ** (2 * n - 1)
        dpow = delta ** (2 * n - 1)
        den = 1.0 - x_prime ** (2 * n - 1)
        r_sum += sign * xpow * (gpow + dpow) / den
        s_sum += sign * xpow / den * (gpow - dpow) / (2 * n - 1)
    return PhaseState(B=-4.0 * g0 * par.I * r_sum, beta=-4.0 * s_sum)


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

    def test_term_cap_names_the_nome(self, par):
        # x' = 0.99 with p' = 1e300: the terms x'^m p' need more than the cap
        with pytest.raises(RuntimeError, match=r"^nome series did not converge within the term cap "
                                               r"at x' = 0\.99$"):
            dyn.hyperbolic_state(1e300, 0.99e-300, par)


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
        pins.check("nome_from_action/negative_side")

    def test_negative_side_checks_the_bound_then_runs_newton(self, par, monkeypatch):
        # the bound is the cached end of the range, so every Horner pass of a
        # solve is a Newton step, the first at the clamped target
        dyn._action_range()
        x = dyn.action_from_nome(-0.05, par)
        points = []
        rescale_sq = dyn._rescale_sq

        def recorded(y):
            points.append(y)
            return rescale_sq(y)

        monkeypatch.setattr(dyn, "_rescale_sq", recorded)
        _solve(x, par)
        assert points[0] == x / par.action_scale
        assert -dyn._NOME_BOUND not in points

    def test_range_bounds_match_the_end_evaluation(self):
        # "outside" as two cached bounds decides as the Horner pass at the
        # end of the range on the target's side did, on both ends, their
        # float neighbours and seeded targets across and around the range
        low, high = dyn._action_range()
        targets = [0.5, -0.5, 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max]
        for end in (low, high):
            for direction in (-math.inf, math.inf):
                t = end
                for _ in range(8):
                    targets.append(t)
                    t = math.nextafter(t, direction)
        rng = random.Random(12_001)
        for i in range(100_000):
            if i % 4 == 0:
                targets.append(rng.uniform(1.2 * low, 1.2 * high))
            elif i % 4 == 1:
                targets.append(rng.choice((low, high)) * (1.0 + rng.uniform(-1e-12, 1e-12)))
            elif i % 4 == 2:
                targets.append(rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-300.0, 0.0))
            else:
                targets.append(rng.uniform(0.45, 0.55) * rng.choice((-1.0, 1.0)))
        assert len(targets) > 100_000
        for target in targets:
            assert (not low <= target <= high) == _outside_by_end_evaluation(target), target

    def test_solves_raise_exactly_outside_the_bounds(self):
        # 32 I g = 1, so the action is the normalized target itself
        unit = PendulumParams(1.0 / 32.0, 1.0)
        low, high = dyn._action_range()
        rng = random.Random(12_002)
        targets = [rng.choice((low, high)) * (1.0 + rng.uniform(-1e-14, 1e-14)) for _ in range(2000)]
        for end in (low, high):
            for direction in (-math.inf, math.inf):
                t = end
                for _ in range(4):
                    targets.append(t)
                    t = math.nextafter(t, direction)
        for target in targets:
            outcome = pins.outcome(_solve, target, unit)
            assert outcome.startswith("ValueError") == _outside_by_end_evaluation(target), target

    def test_out_of_range_action(self, par):
        # positive actions are reachable up to x(0.5); negative ones saturate
        # near -0.08 * 32*I*g long before the nome bound
        with pytest.raises(ValueError):
            dyn.nome_from_action(par.action_scale * 1e4, par)
        with pytest.raises(ValueError):
            dyn.nome_from_action(-par.action_scale * 0.2, par)
        # a nome past |x'| = 0.5 is named, by action_from_nome and the slope that calls it
        for x_prime in (0.9, -0.6, math.nan, math.inf):
            with pytest.raises(ValueError, match=re.escape(f"nome must satisfy |x'| <= 0.5, got {x_prime}") + "$"):
                dyn.action_from_nome(x_prime, par)
        with pytest.raises(ValueError, match=r"got 0\.6$"):
            dyn.normal_energy_slope(0.6, par)


def _solve(x, par):
    """nome_from_action past its cache: a fresh solve."""
    return dyn._action_orbit.__wrapped__(x, par)[0]


def _outside_by_end_evaluation(target):
    """nome_from_action's range test before the ends were cached: one
    Horner pass at the end of the range on the target's side."""
    bound = dyn._NOME_BOUND
    if target > 0.0:
        hi = min(target, bound)
        return hi * dyn._rescale_sq(hi)[0] - target < 0.0
    return -bound * dyn._rescale_sq(-bound)[0] - target > 0.0


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

    # at t = 1e308 and g = 2, g0 t itself overflows to inf
    @pytest.mark.parametrize("t, g", [(800.0, 1.0), (1e300, 1.0), (-800.0, 1.0), (-1e300, 1.0), (1e308, 2.0)])
    def test_flow_factor_past_the_float_range_is_named(self, t, g):
        n, par = NormalCoords(0.3, 0.2), PendulumParams(1.0, g)
        g0 = el.g0_from_nome(dyn.nome_from_action(n.x, par), par.g)
        with pytest.raises(OverflowError, match=re.escape(f"range at t = {t}, g0 = {g0}") + "$"):
            dyn.normal_flow(n, t, par)

    # (p, q, g0 t inside, g0 t outside), where e = exp(g0 t) is still a
    # nonzero float: at g0 t = -720 p / e is inf and q e subnormal, at -700
    # q e = 1e-5 e^-700 alone is subnormal, and at 709.5 q e = 4 e^709.5 is
    # inf, or p / e = 0.01 e^-709.5 subnormal
    @pytest.mark.parametrize("p, q, inside, outside", [
        (0.3, 0.2, -700.0, -720.0), (1e-5, 1e-5, -690.0, -700.0),
        (0.01, 4.0, 700.0, 709.5), (0.01, 1.0, 700.0, 709.5),
    ])
    def test_flowed_coordinate_past_the_normal_range_is_named(self, p, q, inside, outside):
        n, par = NormalCoords(p, q), PendulumParams(1.0, 1.0)
        g0 = el.g0_from_nome(dyn.nome_from_action(n.x, par), par.g)
        moved = dyn.normal_flow(n, inside / g0, par)
        assert all(sys.float_info.min <= abs(c) < math.inf for c in moved)
        t = outside / g0
        assert 0.0 < math.exp(g0 * t) < math.inf
        with pytest.raises(OverflowError, match=re.escape(f"range at t = {t}, g0 = {g0}") + "$"):
            dyn.normal_flow(n, t, par)

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


class TestFactorization:
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

    def test_term_cap_names_the_nome(self, par):
        with pytest.raises(RuntimeError, match=r"^factorization sums did not converge at x' = 0\.999$"):
            dyn.factorization_check(0.999, 1.0, par)


class TestStableChart:
    def test_zero_amplitude_is_equilibrium(self, par):
        s = dyn.stable_state(0.0, 1.3, par)
        assert (s.B, s.beta) == (0.0, 0.0)

    def test_differential_relation(self, par):
        # (0.04, 0.6) is the stable suite's stable_differential_relation
        for xs, t in ((0.02, 0.3), (0.08, 1.4)):
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
        # against g itself at 1e-6 is the stable suite's stable_small_amplitude_frequency
        assert abs(freq - g0s) / g0s < 1e-9

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

    def test_working_range(self, par):
        # the rate's product converges for x_s' below about 0.99586; past it
        # both entry points raise, naming the nome
        for state in (dyn.stable_state(0.995, 1.0, par),
                      dyn.stable_scaled_state(math.sqrt(0.995), 0.0, par)):
            assert math.isfinite(state.B) and math.isfinite(state.beta)
        with pytest.raises(RuntimeError, match=r"^g0 product did not converge at x' = -0\.9959$"):
            dyn.stable_state(0.9959, 1.0, par)
        with pytest.raises(RuntimeError, match=r"did not converge at x' = -0\.995"):
            dyn.stable_scaled_state(math.sqrt(0.9959), 0.0, par)

    def test_term_cap_names_the_amplitude(self, par):
        # from about x_s' = 0.9966 the sums pass their cap before the rate's product is taken
        p = math.sqrt(0.998)
        with pytest.raises(RuntimeError, match=rf"^stable sums did not converge within the term cap "
                                               rf"at x_s' = {re.escape(repr(p * p))}$"):
            dyn.stable_scaled_state(p, 0.0, par)

    def test_matches_conjugate_pair_sums(self):
        pins.check("stable_scaled_state/scan")


class TestSignedNomeEnergy:
    def test_normal_energy_matches_the_two_branch_form(self):
        pins.check("normal_energy/signed_scan")

    def test_negative_nome_matches_the_oscillation_product(self):
        pins.check("energy_from_nome/negative")
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

    def test_product_caps_name_the_nome(self, par):
        with pytest.raises(RuntimeError, match=r"^energy product did not converge at x' = -0\.9999$"):
            dyn.energy_from_nome(-0.9999, par)
        with pytest.raises(OverflowError, match=r"^g0 exceeds the float range at x' = 0\.9999$"):
            el.g0_from_nome(0.9999, par.g)
        with pytest.raises(OverflowError, match=r"^energy exceeds the float range at x' = 0\.9999$"):
            dyn.energy_from_nome(0.9999, par)

    def test_overflow_names_the_nome(self):
        pins.check("energy_from_nome/overflow")


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
        pins.check("rk_oracle/endpoints")

    def test_pinned_scan(self):
        # 301 seeded solves, recorded from scipy's solve_ivp, bit for bit
        pins.check("rk/scan")

    def test_numpy_inputs_give_the_same_floats(self):
        par, state = PendulumParams(0.37, 2.3), PhaseState(0.5, 0.25)
        want = dyn._rk_batch(state, par, [0.0, 0.5, 1.0], 1e-9)
        got = dyn._rk_batch(PhaseState(*map(np.float64, state)), PendulumParams(np.float64(0.37), np.float64(2.3)),
                            list(np.array([0.0, 0.5, 1.0])), np.float64(1e-9))
        assert [(type(B), type(beta)) for B, beta in got[1:]] == [(float, float)] * 2
        assert got == want

    def test_pinned_extremes(self):
        # 140 solves at the edges of the float range, recorded from the numpy port
        pins.check("rk/extremes")

    def test_failed_integration_is_named(self, par, monkeypatch):
        # an error estimate that rejects every step shrinks the step below
        # the spacing of the floats; the error carries the solver's message
        monkeypatch.setattr(_dop853, "_error_norm", lambda K, h, scale: math.inf)
        message = "reference integration failed: Required step size is less than spacing between numbers."
        with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
            dyn.trajectory("rk", Modulus.from_h(0.3), par, 0.0, 1.0, 0.5)
        # a backward endpoint fails on its mirrored forward solve, by the same name
        with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
            dyn.rk_oracle(PhaseState(1.0, 0.0), par, -1.0)

    def test_step_cap_is_named(self, par, monkeypatch):
        # the cap bounds the work of a long horizon; the error names the cap
        # and the time, forward and backward
        monkeypatch.setattr(_dop853, "MAX_STEPS", 3)
        message = "reference integration to |t| = 1.0 needs more than the cap of 3 steps"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dyn.trajectory("rk", Modulus.from_h(0.3), par, 0.0, 1.0, 0.5)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dyn.rk_oracle(PhaseState(1.0, 0.0), par, -1.0)

    def test_dense_output_past_the_float_range_is_named(self):
        # slopes I g^2 sin(beta) near 5e305 times the dense output's
        # coefficients pass the largest float, where the polynomial formed
        # inf - inf; the error names |t|, forward and backward
        state = PhaseState(6.096092952767045e302, -2.7610356490065)
        par, t, tol = PendulumParams(1e300, 731.143177135984), 0.001154756123524308, 2.2073969145595686e-08
        message = f"reference integration to |t| = {t} passes the float range in its dense output"
        with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
            dyn.rk_oracle(state, par, t, tol)
        with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
            dyn.rk_oracle(PhaseState(-state.B, state.beta), par, -t, tol)

    @pytest.mark.parametrize("state", [PhaseState(math.nan, 0.0), PhaseState(0.0, math.inf)])
    def test_nonfinite_start_is_named(self, par, state):
        # a NaN never trips the minimum-step failure, so it must not start
        message = f"the reference integration needs a finite start state, got {state}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dyn.rk_oracle(state, par, 1.0)


def _fma_oracle(x: float, a: float, c: float) -> float:
    """x a + c rounded once to the nearest float, ties to even, with IEEE
    754's signed zeros and specials: by rationals and comparison alone."""
    if not math.isfinite(x):
        return x * a + c
    if not math.isfinite(c):
        return c
    exact = Fraction(x) * Fraction(a) + Fraction(c)
    if exact == 0:              # an exact zero product keeps its sign rule
        return x * a + c if x == 0 or a == 0 else 0.0
    if abs(exact) >= 2**1024 - 2**970:
        return math.inf if exact > 0 else -math.inf
    best = float(exact)
    for y in (math.nextafter(best, -math.inf), math.nextafter(best, math.inf)):
        if math.isfinite(y):
            dy, db = abs(Fraction(y) - exact), abs(Fraction(best) - exact)
            if dy < db or (dy == db and Fraction(y) / Fraction(math.ulp(y)) % 2 == 0):
                best = y
    return best


def _dgemv_order(k: list[float], a: list[float]) -> float:
    """OpenBLAS's dgemv_n sum of k[:s] a[:s] for two rows, every coefficient
    included: blocks of four in pairs, then the tail, from +0.0."""
    t, body = 0.0, len(a) - len(a) % 4
    for i in range(0, body, 2):
        t = t + _fma_oracle(k[i], a[i], k[i + 1] * a[i + 1])
    for i in range(body, len(a)):
        t = _fma_oracle(k[i], a[i], t)
    return t + 0.0


def _random_slopes(rng: random.Random, n: int) -> list[float]:
    """n finite floats of every scale and sign, zeros and subnormals among
    them; one draw in four only signed zeros and the least subnormals, whose
    sums come out as signed zeros."""
    if rng.random() < 0.25:
        return [rng.choice((0.0, -0.0, 5e-324, -5e-324)) for _ in range(n)]
    return [rng.choice((0.0, -0.0, rng.uniform(-3, 3), 5e-324 * rng.randint(-9, 9),
                        rng.choice((1, -1)) * 10 ** rng.uniform(-323, 308))) for _ in range(n)]


class TestReferenceArithmetic:
    """The integrator rounds in the order OpenBLAS's kernels round, on Python
    floats; each helper against a rational restatement of that order."""

    MAX = sys.float_info.max
    CASES = [
        (1 + 2.0**-30, 1 + 2.0**-30, -(1 + 2.0**-29)),          # cancellation to the product's error
        (1 + 2.0**-26, 1 + 2.0**-27, 0.0),                      # ties, from short mantissas
        (1 + 2.0**-26, 1 + 2.0**-27, 2.0**-52),
        (3 + 2.0**-25, 1 + 2.0**-28, -3.0),
        *((x, 1.5, c) for x in (0.0, -0.0, 1e-320, -1e-320) for c in (0.0, -0.0)),  # signed zeros
        (2.0**-540, 0.75, 0.0), (-2.0**-537, 0.3, 2.0**-1073),  # subnormal results
        (2.0**-500, 2.0**-500, 0.0),
        (2.0**1000 * 1.1, 0.3, -(2.0**1000 * 1.1 * 0.3)),       # near 2^1000
        (2.0**999, 527.8, -MAX),
        (2.0**979, 1.0, MAX), (-2.0**979 * 1.5, 1.0, -MAX),     # fsum's intermediate overflow
        (2.0**979, 1.0, -MAX),
        (math.inf, 0.3, 1.0), (math.inf, -0.3, math.inf),       # specials
        (1e300, 0.3, -math.inf), (math.nan, 0.3, 1.0), (1.0, 0.3, math.nan), (2.0**1020, 500.0, -math.inf),
    ]

    @pytest.mark.parametrize("x, a, c", CASES)
    def test_fma_is_rounded_once(self, x, a, c):
        assert _dop853._fma(x, _dop853._split(a), c).hex() == _fma_oracle(x, a, c).hex()

    def test_fma_on_seeded_short_mantissas(self):
        # 28-bit factors and addends: the exact sum often falls on a tie
        rng = random.Random(28)
        for _ in range(3000):
            x, a, c = (rng.choice((1, -1)) * math.ldexp(rng.getrandbits(28), rng.randint(-60, -20))
                       for _ in range(3))
            if a and abs(a) > 2**-14:
                assert _dop853._fma(x, _dop853._split(a), c).hex() == _fma_oracle(x, a, c).hex()

    def test_dot_follows_dgemv_order(self):
        # every row the solver sums, zero coefficients included in the restatement
        rows = [(_dop853.A[s][:s], plan) for s, plan in _dop853._ROWS.items()]
        rows += [(_dop853.E3, _dop853._E3), (_dop853.E5, _dop853._E5)]
        rng = random.Random(16)
        for _ in range(60):
            K0, K1 = _random_slopes(rng, 16), _random_slopes(rng, 16)
            for a, plan in rows:
                got = _dop853._dot(K0, K1, plan)
                assert [v.hex() for v in got] == [_dgemv_order(k, a).hex() for k in (K0, K1)]

    def test_dot16_follows_dgemm_lanes(self):
        rng = random.Random(8)
        for i in range(400):
            k = _random_slopes(rng, 16)
            for d, lanes in zip(_dop853.D, _dop853._LANES):
                if i % 2:   # every product -0.0 but those of one zero lane l: it sets the sign
                    k = [math.copysign(0.0, -c) if c else -0.0 for c in d]
                    l = rng.randint(1, 4)
                    k[l], k[l + 8] = rng.choice((0.0, -0.0)), rng.choice((0.0, -0.0, 5e-324, -5e-324))
                acc = [_fma_oracle(k[l + 8], d[l + 8], k[l] * d[l]) for l in range(8)]
                want = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
                assert _dop853._dot16(k, lanes).hex() == want.hex()

    @pytest.mark.parametrize("e5, e3, want", [
        ((1e155, 0.0), (0.0, 0.0), math.nan),   # err5^2 is inf, as numpy's power gives it: inf / inf
        ((0.0, 0.0), (1e155, 0.0), 0.0),        # err3^2 is inf: 0 / inf
        ((0.0, 0.0), (3e-162, 0.0), math.nan),  # 0.01 err3^2 underflows: numpy's 0 / 0
    ])
    def test_error_norm_keeps_numpy_specials(self, monkeypatch, e5, e3, want):
        sums = {id(_dop853._E5): e5, id(_dop853._E3): e3}
        monkeypatch.setattr(_dop853, "_dot", lambda K0, K1, plan: sums[id(plan)])
        got = _dop853._error_norm(([0.0] * 16, [0.0] * 16), 0.5, (1.0, 1.0))
        assert got == want or math.isnan(got) and math.isnan(want)

    def test_norm_is_ddot_root(self):
        rng = random.Random(2)
        for _ in range(500):
            x0, x1 = _random_slopes(rng, 2)
            assert _dop853._norm(x0, x1).hex() == math.sqrt(_fma_oracle(x1, x1, x0 * x0)).hex()


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
        # every method's rows are read-only records of built-in floats
        for method in ("closed", "series", "normal", "rk"):
            recs = dyn.trajectory(method, Modulus.from_h(0.3), par, 0.0, 1.0, 0.5)
            for r in recs:
                assert type(r) is dyn.TrajectoryRecord and r.method == method
                assert all(type(v) is float for v in (r.t, r.B, r.beta, r.energy))
            with pytest.raises(AttributeError):
                recs[0].B = 0.0

    def test_repeated_times(self, par):
        # a step below the spacing of the floats at t0 repeats grid times;
        # rk answers there as the charts do, one row per grid time
        mod = Modulus.from_h(0.3)
        closed = dyn.trajectory("closed", mod, par, 1.0, 1.0 + 2.0**-52, 1e-17)
        rk = dyn.trajectory("rk", mod, par, 1.0, 1.0 + 2.0**-52, 1e-17)
        assert len(set(r.t for r in closed)) == 2
        assert [r.t for r in rk] == [r.t for r in closed]
        for r, c in zip(rk, closed):
            assert abs(r.B - c.B) < 1e-8 and abs(r.beta - c.beta) < 1e-8

    def test_unknown_method(self, par, monkeypatch):
        # named before the grid is checked, and before a legal grid is built
        with pytest.raises(ValueError, match="^unknown trajectory method 'bogus'$"):
            dyn.trajectory("bogus", Modulus.from_h(0.3), par, 0.0, 1.0, -1.0)

        def no_grid(*args):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(dyn, "_time_grid", no_grid)
        with pytest.raises(ValueError, match="^unknown trajectory method 'euler'$"):
            dyn.trajectory("euler", Modulus.from_h(0.3), par, 0.0, 1e9, 1e-3)

    @pytest.mark.parametrize("h", [1e-6, 0.3, 0.9])
    @pytest.mark.parametrize("t0", [0.0, 1e3])
    @pytest.mark.parametrize("which", sorted(PARAMS))
    def test_records_are_the_per_sample_definition(self, h, t0, which):
        # each record holds a chart's state at t and hamiltonian of that state
        par, mod = PARAMS[which], Modulus.from_h(h)
        x_prime = el.nome_from_h(mod)
        charts = {"closed": lambda t: dyn.closed_form_state(t, mod, par),
                  "series": lambda t: dyn.series_state(x_prime, t, par)}
        times = dyn._time_grid(t0, t0 + 2.0, 0.05)
        for method in ("closed", "series", "normal", "rk"):
            recs = dyn.trajectory(method, mod, par, t0, t0 + 2.0, 0.05)
            assert [r.t for r in recs] == times
            for r in recs:
                assert all(type(v) is float for v in (r.t, r.B, r.beta, r.energy))
                assert r.energy == dyn.hamiltonian(PhaseState(r.B, r.beta), par)
            if method in charts:
                assert recs == [dyn.TrajectoryRecord(t, s.B, s.beta, dyn.hamiltonian(s, par), method)
                                for t, s in zip(times, map(charts[method], times))]

    def test_grid_validation(self, par):
        with pytest.raises(ValueError):
            dyn.trajectory("closed", Modulus.from_h(0.3), par, 0.0, 1.0, -0.5)


@pytest.mark.parametrize("call, value", [
    (lambda v, par: dyn.normal_flow(NormalCoords(0.3, 0.2), v, par), math.nan),
    (lambda v, par: dyn.normal_flow(NormalCoords(0.3, 0.2), v, par), math.inf),
    (lambda v, par: dyn.series_state(0.1, v, par), math.nan),
    (lambda v, par: dyn.series_state(0.1, v, par), -math.inf),
    (lambda v, par: dyn.stable_state(0.1, v, par), math.inf),
    (lambda v, par: dyn.stable_state(0.1, v, par), math.nan),
    (lambda v, par: dyn.factorization_check(0.1, v, par), math.inf),
    (lambda v, par: dyn.rk_oracle(PhaseState(1.0, 0.0), par, v), math.nan),
    (lambda v, par: dyn.wrap_angle(v), math.inf),
    (lambda v, par: dyn.wrap_angle(v), math.nan),
])
def test_non_finite_time_or_gamma_is_named(call, value, par):
    with pytest.raises(ValueError, match=f"got {value}$"):
        call(value, par)


def test_wrap_angle_is_the_exact_remainder():
    # beta less whole turns of the float 2 pi, exactly, in (-pi, pi]: at the
    # multiples of pi, where the ties sit, and their neighbours
    for k in (*range(-40, 41), 10**6 + 1, -(10**6) - 1, 2**40):
        for beta in (math.nextafter(k * math.pi, -math.inf), k * math.pi, math.nextafter(k * math.pi, math.inf)):
            got = dyn.wrap_angle(beta)
            assert -math.pi < got <= math.pi
            assert ((Fraction(beta) - Fraction(got)) / Fraction(2.0 * math.pi)).denominator == 1


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            PendulumParams(I=0.0, g=1.0)
        with pytest.raises(ValueError):
            PendulumParams(I=1.0, g=-2.0)

    @pytest.mark.parametrize("I, g", [(1e300, 1e10), (1e308, 1e308), (1e-200, 1e-200),
                                      (1e150, 1e150), (1e-100, 1e-120), (math.inf, 1.0),
                                      (5e-324, 1e300), (1e-200, 1e170), (5e-324, 2.0**512),
                                      (1e300, 1e-170)])
    def test_scales_must_be_finite_and_positive(self, I, g):
        # 32 I g or 32 I g^2 overflows or underflows to 0; in the last four,
        # I g^2 as the energies form it, I * g**2, does: g**2 overflows, and
        # pow raises OverflowError, or it underflows to 0
        with pytest.raises(ValueError, match=re.escape(f"got I = {I}, g = {g}") + "$"):
            PendulumParams(I=I, g=g)

    def test_the_largest_g_whose_square_is_finite(self):
        # one ulp below 2^512, g**2 is the float below the largest one
        g = math.nextafter(2.0**512, 0.0)
        par = PendulumParams(I=5e-324, g=g)
        assert g**2 == math.nextafter(sys.float_info.max, 0.0)
        assert dyn.hamiltonian(PhaseState(0.0, math.pi), par) == -2.0 * (5e-324 * g**2)

    def test_extreme_but_representable_scales(self):
        par = PendulumParams(I=1e150, g=1e-150)
        assert par.action_scale == 32.0 * 1e150 * 1e-150

    def test_action_scale(self, par_phys):
        assert par_phys.action_scale == 32.0 * 2.5 * 0.7

    def test_hash_of_the_fields(self):
        # formed once at construction, the value the dataclass hash gave
        assert hash(PendulumParams(0.37, 2.3)) == hash(PendulumParams(0.37, 2.3)) == hash((0.37, 2.3))
        assert PendulumParams(0.37, 2.3) == PendulumParams(0.37, 2.3) != PendulumParams(0.37, 2.4)


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

    def test_sample_count_is_capped_before_the_grid_is_built(self, monkeypatch):
        monkeypatch.setattr(dyn, "_MAX_SAMPLES", 10)
        assert len(dyn._time_grid(0.0, 9.0, 1.0)) == 10
        with pytest.raises(ValueError, match=r"^11 samples exceed the cap of 10 \(t0 = 0\.0, t1 = 10\.0, dt = 1\.0\)$"):
            dyn._time_grid(0.0, 10.0, 1.0)

    def test_a_huge_trajectory_is_refused_at_once(self):
        # 1e9 samples, which the list would need gigabytes for
        with pytest.raises(ValueError, match=r"^1000000001 samples exceed the cap of 1000000 "):
            dyn.trajectory("closed", Modulus.from_h(0.3), PendulumParams(1.0, 1.0), 0.0, 1e9, 1.0)

    def test_grids_from_origin_keep_their_endpoint(self):
        for t1, dt, n in ((10.0, 0.01, 1000), (2.0, 0.01, 200), (1.0, 0.3, 3), (0.0, 0.5, 0)):
            assert dyn._time_grid(0.0, t1, dt) == _time_grid_floor(0.0, t1, dt)
            assert len(dyn._time_grid(0.0, t1, dt)) == n + 1


class TestPinnedBytes:
    """Outputs the CLI digests do not cover, pinned bit for bit: the normal
    trajectory and the canonical map, with their errors."""

    @pytest.mark.parametrize("h,which", sorted(pins.NORMAL_TRAJECTORIES))
    def test_normal_trajectory(self, h, which):
        pins.check(pins.NORMAL_TRAJECTORIES[h, which])

    @pytest.mark.parametrize("which", sorted(pins.MAP_SEEDS))
    def test_map_outputs(self, which):
        pins.check(f"map/{which}")

    @pytest.mark.parametrize("key", ["orbits/rk", *sorted(
        k for k in pins.PRODUCERS if k.startswith(("orbits_far/", "orbits_scale/")))])
    def test_orbits(self, key):
        # the rk energy column, the whole-period branches far from t = 0, and
        # the kinetic term B (B/(2I)) where B^2 overflows
        pins.check(key)


class TestNomeCache:
    def test_alternating_params_match_uncached(self, par):
        x = 0.9
        for _ in range(3):
            for params in (par, PARAMS["b"], par):
                assert dyn._action_orbit(x, params) == dyn._action_orbit.__wrapped__(x, params)
        assert dyn.nome_from_action(x, par) != dyn.nome_from_action(x, PARAMS["b"])

    def test_errors_are_not_cached(self, par):
        x = -0.2 * par.action_scale         # past the negative saturation
        argv = ["map", "--p", "1", "--q", repr(x)]
        for _ in range(3):
            misses = dyn._action_orbit.cache_info().misses
            with pytest.raises(ValueError, match="outside the invertible range"):
                dyn.nome_from_action(x, par)
            assert dyn._action_orbit.cache_info().misses == misses + 1
            err = io.StringIO()
            with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exit_info:
                cli.main(argv)
            assert exit_info.value.code == 2
            assert "outside the invertible range" in err.getvalue()

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
        dyn._action_orbit.cache_clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["map", "--p", "0.31", "--q", "0.27"]) == 0
        assert dyn._action_orbit.cache_info().misses == 1

    @pytest.mark.parametrize("h", [1e-8, 1e-4, 0.01, 0.3, 0.6, 0.9, 0.99])
    @pytest.mark.parametrize("which", sorted(PARAMS))
    def test_at_most_four_solves_per_normal_orbit(self, h, which):
        # the flowed action cycles through 3-4 rounded values; with four
        # entries each is solved once (up to 146 solves with two).  Two
        # lookups per sample, and one per trajectory for the flow's nome
        assert dyn._action_orbit.cache_info().maxsize == 4
        dyn._action_orbit.cache_clear()
        recs = dyn.trajectory("normal", Modulus.from_h(h), PARAMS[which], 0.0, 10.0, 0.01)
        info = dyn._action_orbit.cache_info()
        assert len(recs) == 1001 and info.hits + info.misses == 2003
        assert info.misses <= 4

    def test_cache_bounded(self, par):
        assert dyn._action_orbit.cache_info().maxsize == 4
        for i in range(1000):
            dyn.nome_from_action(i / 1000.0, par)
            assert dyn._action_orbit.cache_info().currsize <= 4
        assert dyn._action_orbit.cache_info().currsize == 4


class TestActionOrbit:
    """One cached record per action serves the nome, the map and the flow."""

    @pytest.mark.parametrize("which", sorted(PARAMS))
    def test_bits_match_separate_lookups(self, which):
        pins.check(f"action_orbit/{which}")


class TestOrbitCaches:
    """The per-orbit invariants (g0, the action's record, the AGM pass) are
    computed once per orbit, and every trajectory keeps its bits."""

    @pytest.mark.parametrize("method", ["closed", "normal", "series"])
    def test_trajectory_bytes(self, method):
        # the pins were recorded before the caches went in
        el._agm.cache_clear()
        el._g0_product.cache_clear()
        dyn._action_orbit.cache_clear()
        pins.check(f"orbits/{method}")
        # and again from warm caches
        pins.check(f"orbits/{method}")

    @pytest.mark.parametrize("h", [1e-8, 0.01, 0.3, 0.9, 0.99])
    def test_normal_trajectory_misses(self, h, par):
        # p'q' takes a few rounded values along one orbit: each rate is
        # computed once, not once per sample
        el._g0_product.cache_clear()
        dyn._action_orbit.cache_clear()
        dyn.trajectory("normal", Modulus.from_h(h), par, 0.0, 10.0, 0.01)
        orbit = dyn._action_orbit.cache_info()
        g0 = el._g0_product.cache_info()
        # the hyperbolic chart's rate once per sample, and one per record
        assert g0.misses <= 8 and g0.hits + g0.misses == 1001 + orbit.misses


class TestNormalLongTimes:
    """trajectory("normal") past the float range of its flow takes whole
    periods off t, as the series chart does, and agrees with it."""

    @pytest.mark.parametrize("h", [1e-8, 0.3, 0.9])
    @pytest.mark.parametrize("t0", [-800.0, 800.0, 1e5])
    @pytest.mark.parametrize("which", sorted(PARAMS))
    def test_matches_series(self, h, t0, which):
        # past t0 = 5e5 the rounding of t itself costs 1e-10 in both charts
        par = PARAMS[which]
        mod = Modulus.from_h(h)
        energy = 2.0 * par.g**2 * par.I / mod.k**2
        normal = dyn.trajectory("normal", mod, par, t0, t0 + 10.0, 0.1)
        series = dyn.trajectory("series", mod, par, t0, t0 + 10.0, 0.1)
        assert len(normal) == len(series) == 101
        for n, s in zip(normal, series):
            assert n.t == s.t
            assert abs(n.energy - energy) <= 1e-10 * max(par.I * par.g**2, energy)
            assert abs(n.B - s.B) <= 1e-10 * par.I * par.g
            assert abs(n.beta - s.beta) <= 1e-15 * max(1.0, abs(s.beta))

    @pytest.mark.parametrize("h", [1e-8, 0.3, 0.9])
    def test_edge_of_the_flow_range(self, h, par):
        # up to g0 |t| = 709.7, where p / e turns subnormal or q e overflows
        # before exp(g0 t) does: at h = 0.9 the direct flow raised at
        # g0 t = 709, and at h = 1e-8 it lost B to 1e-10.  The series chart
        # still takes no period off here, and drifts by up to 1.4e-12
        mod = Modulus.from_h(h)
        energy = 2.0 * par.g**2 * par.I / mod.k**2
        x = el.nome_from_h(mod)
        g0 = el.g0_from_nome(x, par.g)
        for gt in (690.0, 700.0, 705.0, 709.0, 709.7, -709.0):
            n = dyn.trajectory("normal", mod, par, gt / g0, gt / g0, 1.0)[0]
            s = dyn.trajectory("series", mod, par, gt / g0, gt / g0, 1.0)[0]
            assert abs(n.energy - energy) <= 1e-10 * max(par.I * par.g**2, energy)
            assert abs(n.B - s.B) <= 1e-10 * par.I * par.g
            assert abs(n.beta - s.beta) <= 1e-14 * max(1.0, abs(s.beta))

    def test_inside_the_flow_range_unchanged(self, par):
        # where the flowed coordinates stay normal floats no period is taken off
        for h in (1e-8, 0.3, 0.9):
            mod = Modulus.from_h(h)
            x = el.nome_from_h(mod)
            a = math.sqrt(par.action_scale * dyn._rescale_sq(x)[0])
            start = NormalCoords(a * math.sqrt(x), a * math.sqrt(x))
            for t in (0.0, 3.5, -3.5, 100.0, -100.0, 600.0 / el.g0_from_nome(x, par.g)):
                got = dyn.trajectory("normal", mod, par, t, t, 1.0)[0]
                want = dyn.canonical_from_normal(dyn.normal_flow(start, t, par), par)
                assert (got.B.hex(), got.beta.hex()) == (want.B.hex(), want.beta.hex())

