"""Float charts against 50-digit mpmath oracles that take an independent
route: theta functions and Jacobi elliptic functions of the modulus, not the
nome products and sums the charts evaluate.

The oracles use
    U(x') =  2 I g^2 (theta_2(x') / theta_4(x'))^4      for x' >= 0,
    U(-q) = -2 I g^2 (theta_2(q) / theta_3(q))^4        for q > 0,
the libration energy 2 I g^2 / k^2 and the oscillation energy 2 I g^2 kappa^2
of the moduli that the nome fixes.  For x' near 1 theta_4(x') cancels to far
below 50 digits, so there the oracle reads h' from the conjugate nome
exp(pi^2 / ln x') instead (Jacobi's imaginary transformation).

The stable chart is the oscillation of modulus kappa = (theta_2/theta_3)^2(x_s')
about the bottom, beta = -2 asin(kappa sn(g t)), B = -2 I g kappa cn(g t), where
the scaled coordinates turn at the rate g0_s = g / theta_3(x_s')^2 = pi g / (2 K).
"""

import math
import random
import sys

import mpmath
import pytest

from pendnf import dynamics as dyn
from pendnf.dynamics import PendulumParams

mp = mpmath.mp
DIGITS = 50


def energy_oracle(x_prime, I, g):
    with mp.workdps(DIGITS):
        x = mpmath.mpf(x_prime)
        scale = 2 * mpmath.mpf(I) * mpmath.mpf(g) ** 2
        if x < 0:
            return -scale * (mpmath.jtheta(2, 0, -x) / mpmath.jtheta(3, 0, -x)) ** 4
        if x == 0:
            return mpmath.mpf(0)
        if x <= 0.5:
            return scale * (mpmath.jtheta(2, 0, x) / mpmath.jtheta(4, 0, x)) ** 4
        conjugate = mpmath.exp(mpmath.pi**2 / mpmath.log(x))
        hp2 = (mpmath.jtheta(2, 0, conjugate) / mpmath.jtheta(3, 0, conjugate)) ** 4
        return scale * (1 - hp2) / hp2


def stable_oracle(p, q, I, g):
    """(B, beta) of the stable chart at scaled coordinates (p', q')."""
    with mp.workdps(DIGITS):
        p, q, I, g = map(mpmath.mpf, (p, q, I, g))
        xs = p * p + q * q
        if xs == 0:
            return mpmath.mpf(0), mpmath.mpf(0)
        th2, th3 = mpmath.jtheta(2, 0, xs), mpmath.jtheta(3, 0, xs)
        m = (th2 / th3) ** 4                    # kappa^2
        u = th3**2 * mpmath.atan2(q, p)         # g t, with t = phase / g0_s
        kappa = mpmath.sqrt(m)
        sn, cn = mpmath.ellipfun("sn", u, m=m), mpmath.ellipfun("cn", u, m=m)
        return -2 * I * g * kappa * cn, -2 * mpmath.asin(kappa * sn)


PARAMS = (PendulumParams(1.0, 1.0), PendulumParams(0.37, 2.3), PendulumParams(2.5, 0.7))


class TestEnergyFromNome:
    def test_both_signs_against_theta_quotients(self):
        # relative error within 3e-14 / (1 - |x'|): the product takes about
        # 18 / (1 - |x'|) factors, each rounding once
        rng = random.Random(20_001)
        for i in range(1500):
            par = PARAMS[i % 3]
            if i % 3 == 0:
                x = rng.choice((1.0, -1.0)) * 10 ** rng.uniform(-12, 0) * 0.98
            elif i % 3 == 1:
                x = rng.uniform(-0.99, 0.0)
            else:
                x = rng.uniform(0.0, 0.985)
            want = energy_oracle(x, par.I, par.g)
            got = dyn.energy_from_nome(x, par)
            assert float(abs((got - want) / want)) <= 3e-14 / (1.0 - abs(x)), x

    def test_edges(self, par):
        assert dyn.energy_from_nome(0.0, par) == 0.0
        for x in (-0.99, -0.9, 0.9, 0.985):
            want = energy_oracle(x, par.I, par.g)
            assert float(abs((dyn.energy_from_nome(x, par) - want) / want)) <= 3e-14 / (1.0 - abs(x))
        # past the largest float the libration energy overflows, as it should
        assert energy_oracle(0.99, par.I, par.g) > sys.float_info.max
        assert dyn.energy_from_nome(0.99, par) == math.inf


class TestStableChart:
    def test_scaled_state_against_jacobi_functions(self):
        # B / (I g) and beta within 5e-14 absolute, amplitudes x_s' <= 0.9,
        # axis points included
        rng = random.Random(20_003)
        for i in range(1500):
            par = PARAMS[i % 3]
            r = math.sqrt(rng.uniform(0.0, 0.9)) if i % 4 else 10 ** rng.uniform(-8, 0) * 0.9
            a = rng.uniform(-math.pi, math.pi) if i % 5 else rng.choice((0.0, 0.5, -0.5, 1.0)) * math.pi
            p, q = r * math.cos(a), r * math.sin(a)
            got = dyn.stable_scaled_state(p, q, par)
            B, beta = stable_oracle(p, q, par.I, par.g)
            assert float(abs(got.B - B)) <= 5e-14 * par.I * par.g, (p, q)
            assert float(abs(got.beta - beta)) <= 5e-14, (p, q)

    def test_state_against_jacobi_functions(self):
        # stable_state turns the coordinates at the float g0_s for a time
        # t; within 5e-14 (1 + g t) once the phase error g t * 1e-16 adds on
        rng = random.Random(20_005)
        for i in range(600):
            par = PARAMS[i % 3]
            xs = rng.uniform(0.0, 0.9)
            t = rng.uniform(-20.0, 20.0) / par.g
            got = dyn.stable_state(xs, t, par)
            with mp.workdps(DIGITS):
                th3 = mpmath.jtheta(3, 0, mpmath.mpf(xs))
                phase = mpmath.mpf(t) * par.g / th3**2
                root = mpmath.sqrt(mpmath.mpf(xs))
                B, beta = stable_oracle(root * mpmath.cos(phase), root * mpmath.sin(phase), par.I, par.g)
            bound = 5e-14 * (1.0 + abs(par.g * t))
            assert float(abs(got.B - B)) <= bound * par.I * par.g, (xs, t)
            assert float(abs(got.beta - beta)) <= bound, (xs, t)
