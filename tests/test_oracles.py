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

The elliptic kernel is checked against mpmath's K, E and Jacobi functions
(which take the parameter m^2), the nome exp(-pi K'/K), and g0 as
g / theta_4(x')^2 (g / theta_3(|x'|)^2 at a negative nome).

The hyperbolic chart, the canonical map and the closed form are checked
against the libration or oscillation that the nome fixes, written with the
Jacobi functions of its modulus (see hyperbolic_oracle), and the map's nome
against the root of x = 32 I g x' a^2(x') with a^2 = (d/dx' theta_4^-2) / 4.

The stable chart is the oscillation of modulus kappa = (theta_2/theta_3)^2(x_s')
about the bottom, beta = -2 asin(kappa sn(g t)), B = -2 I g kappa cn(g t), where
the scaled coordinates turn at the rate g0_s = g / theta_3(x_s')^2 = pi g / (2 K).
"""

import functools
import json
import math
import random
import sys
from pathlib import Path

import mpmath
import pytest

from helpers import newton_nome
from pins import SCAN_PARAMS
from pendnf import cli, dynamics as dyn, elliptic as el
from pendnf.elliptic import Modulus

mp = mpmath.mp
DIGITS = 50
EPS = sys.float_info.epsilon


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


class TestEnergyFromNome:
    def test_both_signs_against_theta_quotients(self):
        # relative error within 3e-14 / (1 - |x'|): the product takes about
        # 18 / (1 - |x'|) factors, each rounding once
        rng = random.Random(20_001)
        for i in range(1500):
            par = SCAN_PARAMS[i % 3]
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
        # past the largest float the libration energy overflows, and says so
        assert energy_oracle(0.99, par.I, par.g) > sys.float_info.max
        with pytest.raises(OverflowError, match=r"^energy exceeds the float range at x' = 0\.99$"):
            dyn.energy_from_nome(0.99, par)


class TestStableChart:
    def test_scaled_state_against_jacobi_functions(self):
        # B / (I g) and beta within 5e-14 absolute, amplitudes x_s' <= 0.9,
        # axis points included
        rng = random.Random(20_003)
        for i in range(1500):
            par = SCAN_PARAMS[i % 3]
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
            par = SCAN_PARAMS[i % 3]
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


# ---------------------------------------------------------------------------
# the elliptic kernel: K, E, the Jacobi functions, the nome and the rate


def _moduli(seed, count):
    """Seeded moduli in [0, 1): uniform, up to 1 - 2^-53, and down to 1e-300,
    after the edges."""
    rng = random.Random(seed)
    ms = [0.0, 5e-324, 1e-300, 1e-16, 0.2, 0.3, 0.5, 0.9, 0.95, 0.99, 1.0 - 2.0**-53]
    for i in range(count):
        ms.append((rng.random(), 1.0 - 10 ** rng.uniform(-16, 0), 10 ** rng.uniform(-300, 0))[i % 3])
    return ms


def jacobi_oracle(u, m):
    """(am, sn, cn, dn) at modulus m (mpmath takes the parameter m^2): sn, cn,
    dn at u less 2K n, |u - 2K n| <= K, where am(u) = atan2(sn, cn) + n pi."""
    with mp.workdps(DIGITS):
        u, p = mpmath.mpf(u), mpmath.mpf(m) ** 2
        K = mpmath.ellipk(p)
        n = mpmath.floor((u + K) / (2 * K))
        r = u - 2 * K * n
        sn, cn, dn = (mpmath.ellipfun(f, r, m=p) for f in ("sn", "cn", "dn"))
        sign = -1 if int(n) % 2 else 1
        return mpmath.atan2(sn, cn) + n * mpmath.pi, sign * sn, sign * cn, dn


def g0_oracle(x_prime, g):
    """g0 = g / theta_4(x')^2, and g / theta_3(|x'|)^2 at a negative nome;
    past x' = 0.5 theta_4 comes from the conjugate nome exp(-pi^2 / eps),
    eps = ln(1/x'), as theta_4 = sqrt(pi / eps) theta_2(exp(-pi^2 / eps))."""
    with mp.workdps(DIGITS):
        x = mpmath.mpf(x_prime)
        if x < 0:
            return g / mpmath.jtheta(3, 0, -x) ** 2
        if x <= 0.5:
            return g / mpmath.jtheta(4, 0, x) ** 2
        eps = -mpmath.log(x)
        th4 = mpmath.sqrt(mpmath.pi / eps) * mpmath.jtheta(2, 0, mpmath.exp(-mpmath.pi**2 / eps))
        return g / th4**2


class TestEllipticKernel:
    def test_complete_integrals(self):
        # relative error: K within 4 eps, E within 4 eps / (1 - m^2 + eps)^(1/4),
        # as E -> 1 at m -> 1 takes the cancelling 1 - sum 2^(n-1) c_n^2
        for m in _moduli(20_011, 1500):
            with mp.workdps(DIGITS):
                p = mpmath.mpf(m) ** 2
                K, E = mpmath.ellipk(p), mpmath.ellipe(p)
                err_k = float(abs((el.complete_k(m) - K) / K))
                err_e = float(abs((el.complete_e(m) - E) / E))
            assert err_k <= 4 * EPS, m
            assert err_e <= 4 * EPS / ((1.0 - m) * (1.0 + m) + EPS) ** 0.25, m

    @pytest.mark.parametrize("lo,hi,bound,edges", [
        (0.0, 1.0, 4 * EPS, [(1.0, 0.7)]),
        (1.0, 1e3, 16 * EPS, []),
        (1e3, 1e6, 6 * EPS, []),
        (1e6, 1e8, 6 * EPS, []),
    ], ids=["u_to_1", "u_to_1e3", "u_to_1e6", "u_to_1e8"])
    def test_jacobi_functions(self, lo, hi, bound, edges):
        # absolute error of am, sn, cn, dn within bound * max(1, |u|): the
        # descent seeds the phase with 2^n a_n u, whose rounding grows with u;
        # at 1 - m ~ 1e-15 (K ~ 20) an error of a few eps K adds on, which
        # shows as up to 10 eps |u| for |u| of a few K
        rng = random.Random(20_013 + int(hi))
        inputs = list(edges)
        for i in range(150):
            u = rng.uniform(lo, hi) * rng.choice((-1.0, 1.0))
            m = (rng.random(), 1.0 - 10 ** rng.uniform(-16, 0), 10 ** rng.uniform(-20, 0))[i % 3]
            inputs.append((u, m))
        for u, m in inputs:
            got = el.jacobi_elliptic(u, m)
            for value, want in zip(got, jacobi_oracle(u, m)):
                assert float(abs(value - want)) <= bound * max(1.0, abs(u)), (u, m)

    def test_modulus_from_k(self):
        # h = 1/hypot(1, k) and h' = k/hypot(1, k): two roundings each, within
        # 1.5 ulp of 1/sqrt(1 + k^2) and k/sqrt(1 + k^2)
        rng = random.Random(20_029)
        for k in [1e-7, 1.0, 1e300] + [10 ** rng.uniform(-7, 300) for _ in range(3000)]:
            mod = Modulus.from_k(k)
            with mp.workdps(DIGITS):
                root = mpmath.sqrt(1 + mpmath.mpf(k) ** 2)
                for got, want in ((mod.h, 1 / root), (mod.h_prime, k / root)):
                    assert float(abs(got - want)) <= 1.5 * math.ulp(float(want)), k

    def test_nome_from_h(self):
        # relative error within 4 eps (1 + ln(1/x')) against
        # exp(-pi K(h') / K(h)) of the Modulus's own floats h and h'; near
        # h = 0 the rounding of h' itself costs 2 eps / h^2 more, which this
        # does not bound
        rng = random.Random(20_017)
        for i in range(1500):
            h = (rng.random(), 10 ** rng.uniform(-7.9, 0), 1 - 10 ** rng.uniform(-16, 0))[i % 3]
            mod = Modulus.from_h(h)
            if not (0.0 < mod.h and mod.h_prime < 1.0):
                continue
            with mp.workdps(DIGITS):
                K = mpmath.ellipk(mpmath.mpf(mod.h) ** 2)
                Kp = mpmath.ellipk(mpmath.mpf(mod.h_prime) ** 2)
                want = mpmath.exp(-mpmath.pi * Kp / K)
                err = float(abs((el.nome_from_h(mod) - want) / want))
            assert err <= 4 * EPS * (1.0 - math.log(float(want))), h

    def test_g0_both_signs(self):
        # relative error within 2 eps per factor of the product, about
        # 41 / ln(1/|x'|) factors; positive nomes up to 0.99 (g0 overflows
        # from x' = 0.9931), negative ones up to the stable chart's 0.995
        rng = random.Random(20_019)
        for i in range(1500):
            g = (1.0, 2.3, 0.7)[i % 3]
            x = (rng.uniform(-0.995, 0.99), rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-300, 0) * 0.99)[i % 2]
            factors = 1.0 + 41.0 / -math.log(abs(x))
            err = float(abs((el.g0_from_nome(x, g) - g0_oracle(x, g)) / g0_oracle(x, g)))
            assert err <= 2 * EPS * factors, x


class TestThetaSums:
    """h_from_nome and lambda_from_nome sum until a term falls below 1e-18,
    about sqrt(42 / (1 - q)) terms, so their rounding grows like the square
    root of that count near q = 1 rather than the sums stopping short."""

    @staticmethod
    def oracles(q):
        with mp.workdps(DIGITS):
            q = mpmath.mpf(q)
            h = (mpmath.jtheta(2, 0, q) / mpmath.jtheta(3, 0, q)) ** 2
            lam = mpmath.jtheta(2, 0, q**4) / (2 * mpmath.jtheta(3, 0, q**4))
        return h, lam

    def check(self, q):
        h, lam = self.oracles(q)
        growth = 1.0 + (1.0 - q) ** -0.25
        assert float(abs((el.h_from_nome(q) - h) / h)) <= 8 * EPS * growth, q
        assert float(abs((el.lambda_from_nome(q) - lam) / lam)) <= 4 * EPS * growth, q

    @pytest.mark.parametrize("q", [0.991, 0.995, 0.999, 0.9999, 0.99999])
    def test_near_one(self, q):
        self.check(q)

    def test_seeded_nomes(self):
        rng = random.Random(20_023)
        for i in range(200):
            self.check(1.0 - 10 ** rng.uniform(-5, -2) if i % 2 else rng.uniform(0.0, 0.99))


# ---------------------------------------------------------------------------
# the hyperbolic chart, the canonical map and the closed form


def libration_oracle(w, hp, I, g):
    """(B, beta) of the libration whose Jacobi functions have modulus h', at
    w = g t / h' - K(h'): beta / 2 = pi / 2 + am(w), B = 2 I g dn(w) / h'.
    At w = -K the angle is 0 and B = 2 I g h / h' = 2 I g / k."""
    with mp.workdps(DIGITS):
        am, _, _, dn = jacobi_oracle(w, hp)
        return 2 * I * g * dn / hp, mpmath.pi + 2 * am


def hyperbolic_oracle(p, q, I, g):
    """(B, beta) of the hyperbolic chart at scaled coordinates (p', q').

    (-p', -q') gives the opposite state, so q' > 0 (or q' = 0 < p') is taken.
    The chart flows (p', q') -> (p' / e, q' e), e = exp(g0 t), at the rate
    g0 = g / theta_4(x)^2 of the nome x = p'q'; with the theta functions at
    r = |x|, its clock reads g t = theta_3^2 ln|q'/p'| / 2 from |p'| = q'.
      x > 0: the libration of modulus h' = (theta_4/theta_3)^2 through
             beta = 0 at |p'| = q' (libration_oracle);
      x < 0: the oscillation of amplitude kappa' = (theta_4/theta_3)^2 about
             beta = pi, beta = pi + 2 asin(kappa' sn(w)), B = 2 I g kappa' cn(w),
             w = g t - K(kappa'), turning at |p'| = q';
      x = 0: the separatrix, beta = pi + 2 asin(tanh s), B = 2 I g / cosh s
             at s = ln q' (mirrored, beta -> -beta, on the p' axis).
    """
    with mp.workdps(DIGITS):
        p, q, I, g = map(mpmath.mpf, (p, q, I, g))
        if q < 0 or (q == 0 and p < 0):
            B, beta = hyperbolic_oracle(-p, -q, I, g)
            return -B, -beta
        if p == 0 or q == 0:
            s = mpmath.log(q + p)
            beta = mpmath.pi + 2 * mpmath.asin(mpmath.tanh(s))
            return 2 * I * g / mpmath.cosh(s), beta if p == 0 else -beta
        r = abs(p * q)
        th3, th4 = mpmath.jtheta(3, 0, r), mpmath.jtheta(4, 0, r)
        mod = (th4 / th3) ** 2
        w = th3**2 * mpmath.log(q / abs(p)) / 2 - mpmath.ellipk(mod**2)
        if p > 0:
            return libration_oracle(w, mod, I, g)
        sn, cn = mpmath.ellipfun("sn", w, m=mod**2), mpmath.ellipfun("cn", w, m=mod**2)
        return 2 * I * g * mod * cn, mpmath.pi + 2 * mpmath.asin(mod * sn)


def rescale_sq_oracle(y):
    """The normalized a^2(y) = (d/dy theta_4(y)^-2) / 4."""
    return mpmath.diff(lambda s: 1 / mpmath.jtheta(4, 0, s) ** 2, y) / 4


def map_oracle(p, q, start, I=1.0, g=1.0):
    """Every output of `pend-nf map` at (p, q): the nome is the root of
    32 I g x' a^2(x') = p q next to `start`, and the state the hyperbolic
    chart at (p, q) / a, a = sqrt(32 I g a^2(x'))."""
    with mp.workdps(DIGITS):
        p, q, I, g = map(mpmath.mpf, (p, q, I, g))
        scale = 32 * I * g
        xp = mpmath.findroot(lambda y: scale * y * rescale_sq_oracle(y) - p * q, mpmath.mpf(start))
        a = mpmath.sqrt(scale * rescale_sq_oracle(xp))
        B, beta = hyperbolic_oracle(p / a, q / a, I, g)
        energy = energy_oracle(xp, I, g)
        return {
            "p": p, "q": q, "x": p * q, "x_prime": xp, "g0": g0_oracle(xp, g), "B": B, "beta": beta,
            "beta_mod_2pi": beta - 2 * mpmath.pi * mpmath.ceil((beta - mpmath.pi) / (2 * mpmath.pi)),
            "energy_phase": energy, "energy_normal": energy,
        }


# the float a^2 series' Horner pairs (c_n, (n+1) c_n), exactly, as mpf
RESCALE_SQ_COEFFS = [(mpmath.mpf(c), mpmath.mpf(dc)) for c, dc in dyn._rescale_sq_coeffs()]


def polynomial_root(target, start):
    """The root of y a^2(y) = target next to `start`, for the truncated float
    a^2 series that nome_from_action inverts: two Newton steps at 50 digits
    from a start within 1e-11 of it."""
    with mp.workdps(DIGITS):
        y = mpmath.mpf(start)
        for _ in range(2):
            val = slope = 0
            for c, dc in RESCALE_SQ_COEFFS:
                slope = slope * y + dc
                val = val * y + c
            y -= (y * val - target) / slope
        return y


CATALOGUE = [key.split()[1:] for key in json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "golden.json").read_text())["cli"]
    if key.startswith("map ")]


@functools.cache
def stalled_actions():
    """1,000 seeded actions at x' in [-0.5, -0.3], over SCAN_PARAMS, where
    Newton alone (helpers.newton_nome) alternates between two roundings of
    the root and used to stall."""
    rng = random.Random(20_033)
    stalled = []
    while len(stalled) < 1000:
        par = SCAN_PARAMS[len(stalled) % 3]
        x = dyn.action_from_nome(rng.uniform(-0.5, -0.3), par)
        try:
            newton_nome(x, par)
        except RuntimeError:
            stalled.append((x, par))
    return stalled


class TestNomeInversion:
    # max |x' - root| by |x'| band, up to 0.35, 0.40, 0.45 and 0.5, above
    # what 2,000 solves that Newton finishes reach there (2.0e-14, 1.0e-13,
    # 7.7e-13 and 9.7e-13, measured)
    BANDS = ((0.35, 3e-14), (0.40, 1.5e-13), (0.45, 1e-12), (math.inf, 2e-12))

    def test_formerly_stalled_solves_against_polynomial_roots(self):
        # where Newton alone cycles, the bisection step that breaks the cycle
        # leads to an answer as close as a finished solve's
        for x, par in stalled_actions():
            got = dyn.nome_from_action(x, par)
            want = polynomial_root(x / par.action_scale, got)
            bound = next(b for edge, b in self.BANDS if abs(got) < edge)
            assert float(abs(got - want)) <= bound, (x, par)

    def test_formerly_stalled_solves_take_few_steps(self, monkeypatch):
        # Horner passes per uncached solve, the rescale's after the loop
        # included: 11-25 measured, where 200 capped Newton steps and a
        # bisection of the bracket took 202-209
        dyn._action_range()
        rescale_sq, points = dyn._rescale_sq, []
        monkeypatch.setattr(dyn, "_rescale_sq", lambda y: points.append(y) or rescale_sq(y))
        passes = []
        for x, par in stalled_actions():
            points.clear()
            dyn._action_orbit.__wrapped__(x, par)
            passes.append(len(points))
        assert max(passes) <= 40, max(passes)


class TestHyperbolicChart:
    def test_both_signs_and_axes(self):
        # |dB| within 4 eps (I g + |B|) per term, with 4 + (80 + ln(1 + |q'|
        # + |p'|)) / ln(1/|x|) terms counting g0's factors and the arctan
        # sums', and |d beta| within 32 eps (1 + |beta|), for |p'q'| <= 0.5 on
        # both sides, |q'/p'| up to e^25 either way, and points on both axes
        rng = random.Random(20_029)
        for i in range(1200):
            par = SCAN_PARAMS[i % 3]
            x = rng.uniform(-0.5, 0.5) if i % 4 else rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-12, -0.3)
            q = math.sqrt(abs(x) * math.exp(rng.uniform(-25.0, 25.0))) * rng.choice((-1.0, 1.0))
            p = x / q
            if i % 20 == 0:
                p, q = (0.0, rng.uniform(-30.0, 30.0)) if i % 40 else (rng.uniform(-30.0, 30.0), 0.0)
            x = p * q
            got = dyn.hyperbolic_state(p, q, par)
            B, beta = hyperbolic_oracle(p, q, par.I, par.g)
            terms = 4.0 + ((80.0 + math.log1p(abs(p) + abs(q))) / -math.log(abs(x)) if x else 0.0)
            assert float(abs(got.B - B)) <= 4 * EPS * terms * (par.I * par.g + abs(float(B))), (p, q)
            assert float(abs(got.beta - beta)) <= 32 * EPS * (1.0 + abs(float(beta))), (p, q)


class TestClosedForm:
    def test_seeded_states(self):
        # against the libration of the Modulus's own h': B within
        # 4 eps (1 + k^2 + |v|) relative and beta within 4 eps (1 + |beta|)(1 + k^2),
        # v = g t / h'.  The k^2 is the gap between the float h and
        # sqrt(1 - h'^2), which k = h'/h and the angle correction read; |v| is
        # the descent's phase rounding, which reaches dn
        rng = random.Random(20_031)
        for i in range(1200):
            par = SCAN_PARAMS[i % 3]
            mod = Modulus.from_h((rng.random(), 10 ** rng.uniform(-6, 0), 1 - 10 ** rng.uniform(-16, 0))[i % 3])
            if not (0.0 < mod.h and mod.h_prime < 1.0):
                continue
            t = rng.uniform(-30.0, 30.0) / par.g
            got = dyn.closed_form_state(t, mod, par)
            v = t * par.g / mod.h_prime
            with mp.workdps(DIGITS):
                w = mpmath.mpf(t) * par.g / mod.h_prime - mpmath.ellipk(mpmath.mpf(mod.h_prime) ** 2)
                B, beta = libration_oracle(w, mod.h_prime, par.I, par.g)
            k2 = mod.k * mod.k
            assert float(abs((got.B - B) / B)) <= 4 * EPS * (1.0 + k2 + abs(v)), (mod.h, t)
            assert float(abs(got.beta - beta)) <= 4 * EPS * (1.0 + abs(float(beta))) * (1.0 + k2), (mod.h, t)


class TestMapCatalogue:
    """Every output of `pend-nf map` at the 24 points of the benchmark's
    catalogue, I = g = 1.  The order-48 truncation of the float a^2(x') sets
    the error of the nome and of everything read from it (ROADMAP item 3): it
    is below 1e-13 inside |x'| <= 0.35 and reaches 1e-2 beyond, worst on the
    negative side, where the slope of x' a^2(x') falls to 6e-4 and
    multiplies it."""

    # bounds in eps per output, relative, and beta's over 1 + |beta|, by region
    INNER = {"x": 1, "x_prime": 256, "g0": 256, "B": 1024, "beta": 32, "beta_mod_2pi": 32,
             "energy_phase": 64, "energy_normal": 128}
    OUTER = {"x": 1, "x_prime": 3e-3 / EPS, "g0": 3e-3 / EPS, "B": 2e-2 / EPS, "beta": 1e-5 / EPS,
             "beta_mod_2pi": 1e-5 / EPS, "energy_phase": 1e-5 / EPS, "energy_normal": 1e-5 / EPS}

    @staticmethod
    def errors(got, want):
        """Each output's error in eps: relative, and beta's over 1 + |beta|."""
        scale = {"beta": 1 + abs(want["beta"]), "beta_mod_2pi": 1 + abs(want["beta"])}
        return {key: float(abs(got[key] - want[key]) / scale.get(key, abs(want[key]))) / EPS
                for key in want if key not in ("p", "q")}

    @pytest.mark.parametrize("argv", CATALOGUE, ids=lambda argv: " ".join(argv))
    def test_outputs(self, capsys, argv):
        assert cli.main(["map", *argv]) == 0
        got = json.loads(capsys.readouterr().out)
        want = map_oracle(got["p"], got["q"], got["x_prime"])
        bounds = self.INNER if abs(got["x_prime"]) <= 0.35 else self.OUTER
        errors = self.errors(got, want)
        assert all(errors[key] <= bounds[key] for key in bounds), errors
        # the form H = B (B / (2I)) - 2 I g^2 sin^2(beta / 2), from the same
        # state, meets energy_phase's bound too
        B, beta = got["B"], got["beta"]
        energy = B * (B / 2.0) - 2.0 * math.sin(beta / 2.0) ** 2
        error = float(abs((energy - want["energy_phase"]) / want["energy_phase"])) / EPS
        assert error <= bounds["energy_phase"], error
