"""Elliptic kernel tests: classical identities, pinned bits, caches, domain
errors.  The kernel's high-precision oracle is mpmath, in test_oracles."""

import math
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pins
from pendnf import elliptic as el
from pendnf.elliptic import Modulus


class TestCompleteIntegrals:
    def test_k_monotonic(self):
        grid = np.linspace(0.0, 0.99, 60)
        values = [el.complete_k(float(m)) for m in grid]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_k_domain(self):
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                el.complete_k(bad)

    def test_e_endpoints(self):
        assert el.complete_e(1.0) == 1.0

    def test_e_domain(self):
        for bad in (-0.2, 1.1):
            with pytest.raises(ValueError):
                el.complete_e(bad)

    @pytest.mark.parametrize("name", ["complete_e", "complete_k"])
    def test_pinned_bits(self, name):
        # recorded while K and E still both summed the squared
        # half-differences in the shared AGM loop
        pins.check(f"{name}/grid")


class TestJacobiFunctions:
    def test_at_zero(self):
        for m in (0.0, 0.3, 0.9):
            am, sn, cn, dn = el.jacobi_elliptic(0.0, m)
            assert (am, sn, cn, dn) == (0.0, 0.0, 1.0, 1.0)

    def test_degenerate_modulus(self):
        u = 1.7
        am, sn, cn, dn = el.jacobi_elliptic(u, 0.0)
        assert (am, sn, cn, dn) == (u, math.sin(u), math.cos(u), 1.0)

    @settings(max_examples=80, deadline=None)
    @given(
        u=st.floats(min_value=-8.0, max_value=8.0),
        m=st.floats(min_value=0.0, max_value=0.99),
    )
    def test_pythagorean_identities(self, u, m):
        _, sn, cn, dn = el.jacobi_elliptic(u, m)
        assert abs(sn * sn + cn * cn - 1.0) < 1e-12
        assert abs(dn * dn + (m * sn) ** 2 - 1.0) < 1e-12

    def test_periodicity(self):
        for m in (0.2, 0.6, 0.95):
            period = 4.0 * el.complete_k(m)
            for u in np.linspace(-2 * el.complete_k(m), 2 * el.complete_k(m), 9):
                s0 = el.jacobi_elliptic(float(u), m)[1]
                s1 = el.jacobi_elliptic(float(u) + period, m)[1]
                assert abs(s1 - s0) < 1e-10

    def test_amplitude_unwraps(self):
        m = 0.6
        period = 4.0 * el.complete_k(m)
        a0 = el.jacobi_elliptic(1.1, m)[0]
        a1 = el.jacobi_elliptic(1.1 + period, m)[0]
        assert a1 - a0 == pytest.approx(2 * math.pi, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            el.jacobi_elliptic(1.0, 1.0)
        with pytest.raises(ValueError):
            el.jacobi_elliptic(math.inf, 0.5)


class TestModulus:
    def test_from_h_round_trip(self):
        for h in (0.05, 0.4, 0.9):
            mod = Modulus.from_h(h)
            back = Modulus.from_k(mod.k)
            assert back.h == pytest.approx(h, abs=1e-13)
            assert back.h_prime == pytest.approx(mod.h_prime, abs=1e-13)

    def test_pythagorean_invariant(self):
        for k in (0.1, 1.0, 50.0):
            mod = Modulus.from_k(k)
            assert abs(mod.h**2 + mod.h_prime**2 - 1.0) < 1e-14

    def test_separatrix_limit(self):
        mod = Modulus.from_h(0.0)
        assert mod.k == math.inf and mod.h_prime == 1.0

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Modulus.from_h(1.0)
        with pytest.raises(ValueError):
            Modulus.from_k(-2.0)
        with pytest.raises(ValueError):
            Modulus(h=0.5, h_prime=0.5, k=1.0)  # h^2 + h'^2 != 1

    @pytest.mark.parametrize("h, h_prime, k, message", [
        (1.5, 0.0, 0.0, "h must lie in [0, 1), got 1.5"),
        (-0.6, 0.8, 1.0, "h must lie in [0, 1), got -0.6"),
        (0.0, 1.0, 5.0, "h = 0 requires k = inf"),
        (0.6, 0.8, 1.0, "k*h must equal h_prime"),
        # NaN fails every test, and h' must be positive
        (math.nan, 0.8, 1.0, "h must lie in [0, 1), got nan"),
        (0.6, math.nan, 4 / 3, "h_prime must lie in (0, 1], got nan"),
        (0.6, 0.8, math.nan, "k*h must equal h_prime"),
        (0.0, 1.0, math.nan, "h = 0 requires k = inf"),
        (0.6, -0.8, -4 / 3, "h_prime must lie in (0, 1], got -0.8"),
        (0.0, -1.0, math.inf, "h_prime must lie in (0, 1], got -1.0"),
    ])
    def test_direct_construction_checks_invariants(self, h, h_prime, k, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Modulus(h=h, h_prime=h_prime, k=k)

    def test_from_energy(self):
        mod = Modulus.from_energy(2.0, 1.0, 1.0)
        assert mod.k == pytest.approx(1.0, rel=1e-14)
        separatrix = "only motions above the separatrix (energy > 0) have a real modulus"
        for args, message in (
            ((-1.0, 1.0, 1.0), separatrix),
            ((-math.inf, 1.0, 1.0), separatrix),
            ((math.nan, 1.0, 1.0), "energy must be finite, got nan"),
            ((math.inf, 1.0, 1.0), "energy must be finite, got inf"),
            ((2.0, -1.0, 1.0), "inertia must be positive and finite, got -1.0"),
            ((2.0, math.inf, 1.0), "inertia must be positive and finite, got inf"),
            ((2.0, 1.0, 0.0), "g must be positive and finite, got 0.0"),
            ((2.0, 1.0, math.nan), "g must be positive and finite, got nan"),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                Modulus.from_energy(*args)


class TestNome:
    def test_separatrix_limit(self):
        assert el.nome_from_h(Modulus.from_h(0.0)) == 0.0
        # small-h asymptotics: nome ~ h^2 / 16
        for h in (1e-2, 1e-3):
            nome = el.nome_from_h(Modulus.from_h(h))
            assert nome == pytest.approx(h * h / 16.0, rel=1e-3)

    def test_lambda_expansion(self):
        # wherever lambda <= 0.05 the cubic-free expansion must hold tightly
        for h in np.linspace(0.05, 0.74, 20):
            mod = Modulus.from_h(float(h))
            lam = el.lambda_from_h(mod)
            if lam > 0.05:
                continue
            expansion = lam + 2 * lam**5 + 15 * lam**9
            assert el.nome_from_h(mod) == pytest.approx(expansion, abs=1e-12)

    def test_theta_quotient_inversion(self):
        # recover h = 0.5 from the nome through the theta quotient for lambda
        mod = Modulus.from_h(0.5)
        lam = el.lambda_from_nome(el.nome_from_h(mod))
        root_hp = (1 - 2 * lam) / (1 + 2 * lam)
        h_back = math.sqrt(1.0 - root_hp**4)
        assert h_back == pytest.approx(0.5, abs=1e-12)

    def test_lambda_endpoints(self):
        assert el.lambda_from_h(Modulus.from_h(0.0)) == 0.0
        # lambda -> 1/2 like 1/2 - sqrt(h') as the complementary modulus dies
        near_one = Modulus.from_k(1e-6)
        assert el.lambda_from_h(near_one) == pytest.approx(0.5, abs=2e-3)

    def test_h_round_trip(self):
        for h in (0.1, 0.5, 0.9):
            q = el.nome_from_h(Modulus.from_h(h))
            assert el.h_from_nome(q) == pytest.approx(h, abs=1e-13)

    def test_h_stays_a_modulus(self):
        # the rounded quotient reaches 1 from q = 0.7655 (1.0000000000000004
        # at q = 0.9); h is held below 1 and keeps the quotient's bits
        # there, so every nome the theta sums take gives a Modulus
        rng = random.Random(14_009)
        qs = [rng.uniform(0.0, 0.99) for _ in range(3000)]
        qs += [1.0 - 10 ** rng.uniform(-6.3, -2.0) for _ in range(200)]
        clamped = 0
        for q in qs:
            h = el.h_from_nome(q)
            quotient = (2.0 * q**0.25 * el._theta_sum(q, lambda n: n * (n + 1), 0.0)
                        / el._theta_sum(q, lambda n: n * n, 1.0)) ** 2
            assert h.hex() == min(quotient, 1.0 - 2.0**-53).hex(), q
            clamped += quotient >= 1.0
            back = el.nome_from_h(Modulus.from_h(h))
            if q <= 0.5:
                assert abs(back - q) <= 1e-11, q
        assert clamped > 500

    def test_h_at_zero_nome(self):
        # the theta quotient itself gives 0 at either zero
        for q in (0.0, -0.0):
            h = el.h_from_nome(q)
            assert h == 0.0 and h.hex() == (0.0).hex()

    def test_theta_sums_raise_past_their_term_cap(self):
        # 10,000 terms reach 1e-18 up to about q = 1 - 4.2e-7
        q = 1.0 - 1e-7
        for nome_to in (el.h_from_nome, el.lambda_from_nome):
            with pytest.raises(RuntimeError, match=f"theta sum did not converge at q = {q}"):
                nome_to(q)
        assert 0.0 < el.h_from_nome(1.0 - 1e-6) <= 1.0 + 1e-14

    def test_domain(self):
        with pytest.raises(ValueError):
            el.h_from_nome(1.0)
        with pytest.raises(ValueError):
            el.lambda_from_nome(-0.1)


class TestRate:
    def test_separatrix_value(self):
        assert el.g0_eval(Modulus.from_h(0.0), 3.7) == pytest.approx(3.7, rel=1e-15)

    def test_linear_in_g(self):
        mod = Modulus.from_h(0.3)
        assert el.g0_eval(mod, 2.0) == pytest.approx(2 * el.g0_eval(mod, 1.0), rel=1e-15)

    def test_product_oracle(self):
        # independent truncated product at h = 0.4
        mod = Modulus.from_h(0.4)
        x = el.nome_from_h(mod)
        prod = 1.0
        xn = x
        while xn > 1e-17:
            prod *= ((1.0 + xn) / (1.0 - xn)) ** 2
            xn *= x
        assert el.g0_eval(mod, 1.0) == pytest.approx(prod, rel=1e-12)

    def test_never_below_g(self):
        for h in np.linspace(0.01, 0.95, 40):
            assert el.g0_eval(Modulus.from_h(float(h)), 1.0) >= 1.0

    def test_nome_route_matches(self):
        for h in (0.1, 0.5, 0.8):
            mod = Modulus.from_h(h)
            assert el.g0_from_nome(el.nome_from_h(mod), 1.0) == pytest.approx(
                el.g0_eval(mod, 1.0), rel=1e-13
            )

    def test_domain(self):
        with pytest.raises(ValueError):
            el.g0_from_nome(1.0)
        with pytest.raises(ValueError):
            el.g0_eval(Modulus.from_h(0.3), -1.0)


class TestLegendre:
    def test_midpoint(self):
        assert abs(el.legendre_defect(Modulus.from_h(0.5))) < 1e-12

    def test_symmetric_in_complementary_modulus(self):
        mod = Modulus.from_h(0.3)
        swapped = Modulus.from_h(mod.h_prime)
        assert el.legendre_defect(mod) == pytest.approx(
            el.legendre_defect(swapped), abs=1e-13
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            el.legendre_defect(Modulus.from_h(0.0))


class TestAgmSum:
    def test_k_and_e_bits_match_the_flagged_agm(self):
        # a and b never read the sum, so one loop serves K and E
        pins.check("agm/k_and_e")

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=5e-324, max_value=1.0 - 2.0**-53))
    @example(5e-324)
    @example(1.0 - 2.0**-53)
    def test_landen_ratios_below_one(self, m):
        # b_0 = sqrt((1 - m)(1 + m)) >= 1.05e-8, so every |c_i / a_i| < 1
        # (the last can round just below 0) and |ratio * sin(phi)| <= 1:
        # asin needs no clamp
        _, _, ratios, _ = el._agm.__wrapped__(m)
        assert all(abs(r) < 1.0 for r in ratios)


class TestOneAgmPass:
    """One cached AGM pass per modulus serves K, E and the Landen descent
    with the bits of the two loops it replaced."""

    def test_bits_match_the_two_loops(self):
        pins.check("agm/one_pass")

    def test_one_entry_per_modulus(self):
        el._agm.cache_clear()
        for m in (0.3, 5e-324):
            el.complete_k(m)
            el.complete_e(m)
            el.jacobi_elliptic(1.5, m)
            el.jacobi_elliptic(-0.25, m)
        info = el._agm.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 6, 2)

    def test_types_follow_the_argument(self):
        # E reads 0.5 m^2 from the cache, a numpy scalar for a numpy m: the
        # cache is keyed on m's type too, so neither type leaks to the other
        ms = (0.3, np.float64(0.3), 0.3, 0, np.float64(0.0), 0.0)
        el._agm.cache_clear()
        # a new type of m misses, as a new value does
        calls = [(m,) for m in ms]
        assert _cached_and_fresh(el._agm, lambda m: (el.complete_k(m), el.complete_e(m)), calls) == (7, 5)


def _cached_and_fresh(cache, fn, calls):
    """Assert that fn's calls in turn through the cache give the values, and
    their types, or the errors of a fresh evaluation from an empty cache;
    return the cache's hits and misses over the calls in turn."""
    def typed(*args):
        result = fn(*args)
        return [(type(v).__name__, v) for v in (result if isinstance(result, tuple) else (result,))]

    before = cache.cache_info()
    got = [pins.outcome(typed, *args) for args in calls]
    after = cache.cache_info()
    for args, outcome in zip(calls, got):
        cache.cache_clear()
        assert outcome == pins.outcome(typed, *args), args
    return after.hits - before.hits, after.misses - before.misses


class TestKernelCaches:
    """The cached kernels give the bits of a fresh evaluation, hold at most
    their stated number of entries, and never cache an error."""

    EDGE_MODULI = (0.0, -0.0, 5e-324, 1e-16, 1e-15, 2e-15, 0.5, 1.0 - 2.0**-53, 0, 1.0, math.nan)

    def test_jacobi_bits_match_uncached(self):
        rng = random.Random(11)
        # 12 recurring moduli, drawn at random, against a cache of 8: entries
        # are evicted and recomputed, and hits come from every position
        pool = [rng.random() for _ in range(12)]
        calls = []
        for i in range(12_000):
            if i % 5 == 0:
                m = self.EDGE_MODULI[i // 5 % len(self.EDGE_MODULI)]
            elif i % 5 == 1:
                m = rng.random()
            else:
                m = rng.choice(pool)
            u = (0.0, -0.0, 3, rng.uniform(-10.0, 10.0), rng.uniform(-1e8, 1e8),
                 rng.uniform(-1e-300, 1e-300), math.inf)[i % 7]
            calls.append((u, m))
        hits, misses = _cached_and_fresh(el._agm, el.jacobi_elliptic, calls)
        assert hits > 1000 and misses > 1000
        # am is a float for an int u also with m below AGM resolution
        assert {type(v) for m in (0, 0.0, 1e-16) for v in el.jacobi_elliptic(3, m)} == {float}

    def test_g0_bits_match_uncached(self):
        rng = random.Random(12)
        pool = [rng.uniform(-0.9, 0.9) for _ in range(24)]
        edges = (0.0, -0.0, 0, False, 5e-324, -5e-324, 0.5, -0.5, np.float64(0.3), 0.3,
                 np.float64(0.0), 0.9999, 1.0, math.nan)
        calls = []
        for i in range(12_000):
            if i % 4 == 0:
                x = edges[i // 4 % len(edges)]
            elif i % 4 == 1:
                x = rng.uniform(-0.99, 0.99)
            else:
                x = rng.choice(pool)
            g = (1.0, 1, 2, 0.0, -0.0, rng.uniform(0.01, 100.0), np.float64(0.7))[i % 7]
            calls.append((x, g))
        hits, misses = _cached_and_fresh(el._g0_product, el.g0_from_nome, calls)
        assert hits > 1000 and misses > 1000

    @pytest.mark.parametrize("cache,bound,call", [
        (el._agm, 8, lambda i: el.jacobi_elliptic(1.0, i / 1000.0)),
        (el._g0_product, 16, lambda i: el.g0_from_nome(i / 2000.0, 1.0)),
    ])
    def test_size_stays_bounded(self, cache, bound, call):
        assert cache.cache_info().maxsize == bound
        for i in range(1000):
            call(i)
            assert cache.cache_info().currsize <= bound
        assert cache.cache_info().currsize == bound

    def test_error_is_not_cached(self):
        # above x' = 0.9931 the product overflows, and past -0.9959 it
        # cannot reach its stop test
        el._g0_product.cache_clear()
        for x_prime in (0.995, 0.9999, 0.995):
            with pytest.raises(OverflowError, match="g0 exceeds the float range"):
                el.g0_from_nome(x_prime)
        with pytest.raises(RuntimeError):
            el.g0_from_nome(-0.9999, 2.0)
        info = el._g0_product.cache_info()
        assert (info.currsize, info.misses) == (0, 4)
