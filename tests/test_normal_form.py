"""Coefficient-level tests of the normal-form series.  Numeric oracles go
through the elliptic kernel, so the exact-arithmetic route and the floating
route stay independent."""

import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pins

from pendnf import elliptic as el, normal_form as nf
from pendnf.elliptic import Modulus
from pendnf.series import RationalSeries, product_series


class TestRateSeries:
    def test_order_zero(self):
        assert nf.g0_series(0).coeffs == (F(1),)

    def test_cubic_term_against_kernel_fit(self):
        # evaluate the rate at three small nomes and solve the Vandermonde
        # system for the residual cubic; it must round to the exact integer
        known = nf.g0_series(2)
        xs = np.array([0.01, 0.02, 0.04])
        resid = []
        for x in xs:
            mod = Modulus.from_h(el.h_from_nome(float(x)))
            value = el.g0_eval(mod, 1.0) - float(known(float(x)))
            resid.append(value / x**3)
        fit = np.linalg.solve(np.vander(xs, 3, increasing=True), resid)
        assert round(fit[0]) == nf.g0_series(3).coeff(3)

    def test_matches_kernel_on_grid(self):
        s = nf.g0_series(60)
        for h in (0.2, 0.5, 0.8):
            mod = Modulus.from_h(h)
            x = el.nome_from_h(mod)
            assert s(x) == pytest.approx(el.g0_eval(mod, 1.0), rel=1e-12)


class TestEnergySeries:
    def test_kernel_round_trip(self):
        # series energy at x' = 0.05 against 2 g^2 I / k^2 with h from the
        # inverse nome (I = 1/32, g = 1 in the normalization)
        x = 0.05
        mod = Modulus.from_h(el.h_from_nome(x))
        direct = 2.0 * (1.0 / 32.0) / mod.k**2
        assert nf.energy_series(60)(x) == pytest.approx(direct, rel=1e-10)


class TestJacobianSeries:
    def test_finite_difference_oracle(self):
        # D = (dU/dx')/g0 from kernel-route float evaluations at x' = 0.03
        x, step = 0.03, 1e-5

        def u_at(xv):
            mod = Modulus.from_h(el.h_from_nome(xv))
            return 2.0 * (1.0 / 32.0) / mod.k**2

        g0 = el.g0_from_nome(x, 1.0)
        fd = (u_at(x + step) - u_at(x - step)) / (2 * step) / g0
        assert float(nf.jacobian_series(40)(x)) == pytest.approx(fd, abs=1e-8)


class TestRescaleSeries:
    def test_constant_term_matches_jacobian(self):
        assert nf.rescale_sq_series(10).coeffs[0] == 1
        assert nf.rescale_sq_series(10).coeffs[0] == nf.jacobian_series(10).coeffs[0]

    def test_linear_coefficient_consistency(self):
        # expanding d/dx' (x' a^2) at first order forces 2 a2_1 = D_1
        assert 2 * nf.rescale_sq_series(2).coeff(1) == nf.jacobian_series(2).coeff(1)


class TestRescalingIdentity:
    def test_detects_perturbation(self):
        lhs = nf.jacobian_series(12)
        a2 = nf.rescale_sq_series(11)
        broken = RationalSeries(
            a2.coeffs[:5] + (a2.coeffs[5] + 1,) + a2.coeffs[6:], a2.var
        )
        rhs = broken.shift().derivative()
        mism = [n for n in range(12) if lhs.coeffs[n] != rhs.coeffs[n]]
        assert mism and mism[0] == 5

    def test_order_validation(self):
        with pytest.raises(ValueError):
            nf.rescaling_identity_check(0)

    @pytest.mark.parametrize("k", [0, 3, 11])
    def test_reports_perturbed_jacobian_coefficient(self, monkeypatch, k):
        # one wrong stored coefficient of D shows at exactly that power
        stored = nf.jacobian_series

        def perturbed(order):
            s = stored(order)
            return RationalSeries(s.coeffs[:k] + (s.coeffs[k] + 1,) + s.coeffs[k + 1:], s.var)

        monkeypatch.setattr(nf, "jacobian_series", perturbed)
        report = nf.rescaling_identity_check(12)
        assert not report.passed and report.first_mismatch == k and report.order == 12


class TestNormalEnergy:
    def test_alternating_signs_to_50(self):
        assert nf.alternating_signs_hold(50)

    def test_slope_composition_recovers_rate(self):
        # d(energy)/dx composed with x(x') equals the rate series, exactly
        order = 24
        slope = nf.normal_energy_series(order + 1).derivative()
        composed = slope.compose(nf.x_of_nome_series(order))
        assert composed.coeffs == nf.g0_series(order).coeffs


class TestStableBundle:
    def test_rate_is_alternating_image(self):
        b = nf.stable_bundle(12)
        hyper = nf.g0_series(12)
        assert b.g0.coeffs == tuple(
            c if n % 2 == 0 else -c for n, c in enumerate(hyper.coeffs)
        )

    def test_stable_energy_is_negated_hyperbolic(self):
        # negating the nome flips exactly the odd-exponent denominators, so
        # the two energy products coincide: Us(z) = -U(-z), coefficient-wise
        us = nf.stable_bundle(12).energy
        u = nf.energy_series(12)
        negated = tuple(-((-1) ** n) * c for n, c in enumerate(u.coeffs))
        assert us.coeffs == negated

    def test_stable_energy_matches_its_product(self):
        # the stable energy xs' prod((1+xs'^(2n))/(1+xs'^(2n-1)))^8, expanded
        # directly, against the negated hyperbolic energy the bundle serves
        order = 60
        direct = product_series(((1, 2, 0, 1), (1, 2, -1, -1)), 8, order - 1).shift()
        assert nf.stable_bundle(order).energy.coeffs == direct.coeffs

    def test_rescale_constant(self):
        assert nf.stable_bundle(6).rescale_sq.coeffs[0] == 1


class TestThetaLogDeriv:
    def test_leading_coefficient(self):
        report = nf.theta_logderiv_check(1)
        assert report.passed

    def test_order_validation(self):
        with pytest.raises(ValueError, match="order must be >= 1"):
            nf.theta_logderiv_check(0)

    def test_constant_term_vanishes(self):
        s = nf.g0_series(5).derivative().shift() / nf.g0_series(5)
        assert s.coeffs[0] == 0 and s.coeffs[1] == 4

    @pytest.mark.parametrize("k", [1, 2, 17, 40])
    def test_detects_perturbed_rate_coefficient(self, monkeypatch, k):
        # g0 is built from the descriptors' log-derivative, which route (i)
        # gives back by construction; one wrong stored coefficient must still
        # show against the divisor sum (ii) at exactly that power
        stored = nf.g0_series

        def perturbed(order):
            s = stored(order)
            return RationalSeries(s.coeffs[:k] + (s.coeffs[k] + 1,) + s.coeffs[k + 1:], s.var)

        monkeypatch.setattr(nf, "g0_series", perturbed)
        report = nf.theta_logderiv_check(40)
        assert not report.passed and report.first_mismatch == k


SRC = Path(__file__).resolve().parent.parent / "src"

# a fresh interpreter (empty stores) asks each function for orders 61, 78
# and 61 again, and prints every result as JSON, field by field; then it
# replays an exact-deep benchmark session (table at 78, theta check at 220,
# table at 61, rescaling check at 240), whose two checks extend the stored g0
# and U, and prints the stored products at 240 coefficient by coefficient
_STORE_SCRIPT = """
import json
from pendnf import normal_form as nf
out = {"calU": [], "bundle": []}
for order in (61, 78, 61):
    out["calU"].append(nf.normal_energy_series(order).to_json_obj())
    b = nf.stable_bundle(order)
    out["bundle"].append({f: getattr(b, f).to_json_obj()
                          for f in ("g0", "energy", "rescale_sq", "normal_energy")})
nf.normal_energy_series(78)
out["checks"] = [nf.theta_logderiv_check(220).passed]
nf.normal_energy_series(61)
out["checks"].append(nf.rescaling_identity_check(240).passed)
out["products"] = {name: [str(c) for c in getattr(nf, name)(240).coeffs]
                   for name in ("g0_series", "energy_series")}
print(json.dumps(out))
"""


class TestSeriesStore:
    @pytest.fixture(scope="class")
    def fresh(self):
        proc = subprocess.run([sys.executable, "-c", _STORE_SCRIPT], capture_output=True,
                              text=True, check=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(SRC)})
        return json.loads(proc.stdout)

    @pytest.mark.parametrize("name", ["calU", "bundle"])
    def test_lower_order_after_longer_equals_first_call(self, fresh, name):
        first, _, again = fresh[name]
        assert again == first

    def test_orders_as_requested(self, fresh):
        assert [s["order"] for s in fresh["calU"]] == [61, 78, 61]
        for bundle in fresh["bundle"]:
            assert {s["order"] for s in bundle.values()} == {bundle["g0"]["order"]}
        assert [b["normal_energy"]["order"] for b in fresh["bundle"]] == [61, 78, 61]

    @pytest.mark.parametrize("name", ["g0_series", "energy_series"])
    def test_extended_products_keep_their_pins(self, fresh, name):
        # the pins were recorded from a direct computation at order 240
        assert fresh["checks"] == [True, True]
        recorded = json.loads(pins.STORE.read_text())[f"{name}/240"]
        assert pins.digest(fresh["products"][name], ",") == recorded

    @settings(max_examples=15, deadline=None)
    @given(low=st.integers(1, 120), extra=st.integers(1, 120))
    def test_extension_equals_direct_computation(self, low, extra):
        # a new store for each product: asked at low, then at high, it extends
        for name, min_order in (("g0_series", 0), ("energy_series", 1)):
            direct = getattr(nf, name).__wrapped__
            stored = nf._longest(min_order, "order too low", extends=True)(direct)
            assert stored(low).order == low
            assert stored(low + extra) == direct(low + extra)
            assert stored(low) == direct(low)

    def test_higher_order_after_lower(self):
        low = nf.g0_series(3)
        high = nf.g0_series(300)
        assert high.order == 300 and high.coeffs[:4] == low.coeffs

    def test_validation_after_longer_series(self):
        nf.normal_energy_series(78)
        nf.stable_bundle(78)
        with pytest.raises(ValueError):
            nf.normal_energy_series(1)
        with pytest.raises(ValueError):
            nf.energy_series(0)
        with pytest.raises(ValueError):
            nf.stable_bundle(1)

    def test_stored_series_reject_negative_truncation(self):
        with pytest.raises(ValueError):
            nf.normal_energy_series(10).truncate(-3)
