"""Dynamics tests: the four trajectory representations must agree with each
other and with the adaptive reference integrator; the canonical map must be
area preserving and energy consistent."""

import math

import numpy as np
import pytest

from pendnf import dynamics as dyn, elliptic as el, normal_form as nf
from pendnf.dynamics import (
    FlowFactors,
    NormalCoords,
    PendulumParams,
    PhaseState,
    ScaledCoords,
)
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
            s = dyn.series_state(FlowFactors(1.0, 1.0), x, par)
            assert s.beta == 0.0

    def test_symmetric_point_momentum(self, par):
        mod = Modulus.from_h(0.3)
        x = el.nome_from_h(mod)
        s = dyn.series_state(FlowFactors(1.0, 1.0), x, par)
        assert s.B == pytest.approx(2 * par.I * par.g / mod.k, abs=1e-10)

    def test_swap_symmetry(self, par):
        f = FlowFactors(1.7, 0.4)
        swapped = FlowFactors(0.4, 1.7)
        a = dyn.series_state(f, 0.2, par)
        b = dyn.series_state(swapped, 0.2, par)
        assert a.beta == pytest.approx(-b.beta, rel=1e-14)
        assert a.B == pytest.approx(b.B, rel=1e-14)

    def test_matches_closed_form(self, par):
        for h in (0.3, 0.9, 0.975):
            mod = Modulus.from_h(h)
            x = el.nome_from_h(mod)
            assert x <= 0.2
            g0 = el.g0_from_nome(x, par.g)
            for t in np.linspace(0.0, 5.0 / par.g, 26):
                c = dyn.closed_form_state(float(t), mod, par)
                s = dyn.series_state(FlowFactors.at_time(g0, float(t)), x, par)
                assert abs(c.beta - s.beta) < 1e-10
                assert abs(c.B - s.B) / (par.I * par.g) < 1e-10

    def test_partial_sums_agree_with_resummation(self, par):
        mod = Modulus.from_h(0.3)
        x = el.nome_from_h(mod)
        g0 = el.g0_from_nome(x, par.g)
        for t in (0.0, 0.4, 1.1, 2.0):
            f = FlowFactors.at_time(g0, t)
            if f.gamma**2 * x >= 1.0:
                continue
            a = dyn.series_state(f, x, par)
            b = dyn.series_state_partial_sums(f, x, par)
            assert abs(a.B - b.B) < 1e-11
            assert abs(a.beta - b.beta) < 1e-11

    def test_partial_sums_domain(self, par):
        with pytest.raises(ValueError):
            dyn.series_state_partial_sums(FlowFactors(10.0, 0.1), 0.3, par)

    def test_domain(self, par):
        with pytest.raises(ValueError):
            dyn.series_state(FlowFactors(1.0, 1.0), 1.0, par)


class TestHyperbolicState:
    def test_origin_is_equilibrium(self, par):
        s = dyn.hyperbolic_state(ScaledCoords(0.0, 0.0), par)
        assert (s.B, s.beta) == (0.0, 0.0)

    def test_swap_antisymmetry(self, par):
        a = dyn.hyperbolic_state(ScaledCoords(0.3, 0.5), par)
        b = dyn.hyperbolic_state(ScaledCoords(0.5, 0.3), par)
        assert a.beta == pytest.approx(-b.beta, rel=1e-14)
        assert a.B == pytest.approx(b.B, rel=1e-14)

    def test_consistent_with_flow_factors(self, par):
        mod = Modulus.from_h(0.5)
        x = el.nome_from_h(mod)
        g0 = el.g0_from_nome(x, par.g)
        f = FlowFactors.at_time(g0, 0.8)
        root = math.sqrt(x)
        a = dyn.series_state(f, x, par)
        b = dyn.hyperbolic_state(ScaledCoords(f.delta * root, f.gamma * root), par)
        assert a.B == pytest.approx(b.B, abs=1e-12)
        assert a.beta == pytest.approx(b.beta, abs=1e-12)

    def test_negative_product_allowed(self, par):
        s = dyn.hyperbolic_state(ScaledCoords(-0.2, 0.3), par)
        assert math.isfinite(s.B) and math.isfinite(s.beta)

    def test_divergent_product_rejected(self, par):
        with pytest.raises(ValueError):
            dyn.hyperbolic_state(ScaledCoords(1.2, 0.9), par)


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

    def test_out_of_range_action(self, par):
        # positive actions are reachable up to x(0.5); negative ones saturate
        # near -0.08 * 32*I*g long before the nome bound
        with pytest.raises(ValueError):
            dyn.nome_from_action(par.action_scale * 1e4, par)
        with pytest.raises(ValueError):
            dyn.nome_from_action(-par.action_scale * 0.2, par)


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

    def test_misnormalized_map_detected(self, par):
        # freeze the rescale at the separatrix value: the determinant must
        # drift away from 1 as soon as x' is not negligible
        a0 = math.sqrt(par.action_scale)
        step = 1e-5 * a0

        def naive(p, q):
            return dyn.hyperbolic_state(ScaledCoords(p / a0, q / a0), par)

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
                return dyn.stable_scaled_state(ScaledCoords(p, q), par).beta

            lhs = dyn.stable_scaled_state(ScaledCoords(pp, qq), par).B
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
            dyn.stable_scaled_state(ScaledCoords(0.99999999999, 0.0), par)

    def test_domain(self, par):
        with pytest.raises(ValueError):
            dyn.stable_state(1.0, 0.0, par)
        with pytest.raises(ValueError):
            dyn.stable_scaled_state(ScaledCoords(0.8, 0.7), par)


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

    def test_action_scale(self, par_phys):
        assert par_phys.action_scale == 32.0 * 2.5 * 0.7
