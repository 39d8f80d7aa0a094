"""Complete elliptic integrals, Jacobi elliptic functions and nome machinery
for real modulus at double precision.

Modulus convention: every routine takes the *modulus* m, as in
K(m) = integral_0^{pi/2} (1 - m^2 sin^2 a)^(-1/2) da, not the parameter m^2
used by scipy.special.  Pendulum-facing entry points are parametrized by the
coupled pair (h, h') with h^2 + h'^2 = 1 and k = h'/h; the separatrix is the
smooth limit h -> 0 (where k diverges but nothing else does).

K and E use the arithmetic-geometric mean, sn/cn/dn the descending Landen
transformation; both converge quadratically and reach machine precision in
at most ~10 iterations.  All functions are pure.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

__all__ = [
    "Modulus",
    "complete_k",
    "complete_e",
    "jacobi_elliptic",
    "nome_from_h",
    "lambda_from_h",
    "lambda_from_nome",
    "h_from_nome",
    "g0_eval",
    "g0_from_nome",
    "legendre_defect",
]

# Stop the AGM once |a - b| reaches a few ulp; the midpoint (a + b)/2 is then
# within (a-b)^2/(8a) ~ 1e-31 of the true limit.  A tighter threshold would
# sit below the rounding floor and never be reached.
_AGM_RTOL = 1e-15
_AGM_MAX_ITER = 40
_PRODUCT_EPS = 1e-18
_MAX_PRODUCT_TERMS = 10_000


@dataclass(frozen=True)
class Modulus:
    """Coupled modulus parameters (h, h_prime, k).

    Invariants: h^2 + h_prime^2 = 1 and k*h = h_prime, so k = h_prime/h.
    High energy (near the separatrix) is h -> 0, k -> infinity; small k means
    fast libration far above the separatrix.
    """

    h: float
    h_prime: float
    k: float

    def __post_init__(self):
        if not 0.0 <= self.h < 1.0:
            raise ValueError(f"h must lie in [0, 1), got {self.h}")
        if abs(self.h * self.h + self.h_prime * self.h_prime - 1.0) > 1e-14:
            raise ValueError("h^2 + h_prime^2 must equal 1")
        if self.h == 0.0:
            if self.k != math.inf:
                raise ValueError("h = 0 requires k = inf")
        elif abs(self.k * self.h - self.h_prime) > 1e-13 * max(1.0, self.h_prime):
            raise ValueError("k*h must equal h_prime")

    @classmethod
    def from_h(cls, h: float) -> "Modulus":
        if not 0.0 <= h < 1.0:
            raise ValueError(f"h must lie in [0, 1), got {h}")
        h_prime = math.sqrt(1.0 - h * h)
        k = h_prime / h if h > 0.0 else math.inf
        return cls(h, h_prime, k)

    @classmethod
    def from_k(cls, k: float) -> "Modulus":
        if not k > 0.0:
            raise ValueError(f"k must be positive, got {k}")
        if k > 1.0:
            r = 1.0 / k
            h_prime = 1.0 / math.sqrt(1.0 + r * r)
            h = r * h_prime
        else:
            h = 1.0 / math.sqrt(1.0 + k * k)
            h_prime = k * h
        return cls(h, h_prime, k)

    @classmethod
    def from_energy(cls, energy: float, inertia: float, g: float) -> "Modulus":
        """Modulus of the libration with the given (positive) energy."""
        if energy <= 0.0:
            raise ValueError("only motions above the separatrix (energy > 0) have a real modulus")
        return cls.from_k(g * math.sqrt(2.0 * inertia / energy))


def _agm(m: float, with_sum: bool) -> tuple[float, float, float]:
    """The AGM of 1 and sqrt(1 - m^2), stopped once |a - b| reaches a few
    ulp: the last (a, b) and the sum sum_n 2^(n-1) c_n^2 over the
    half-differences, c_0 = m (only E needs it; with_sum=False keeps n = 0).
    """
    a, b = 1.0, math.sqrt((1.0 - m) * (1.0 + m))
    total = 0.5 * m * m
    scale = 0.125               # 2^(n-1) c_n^2 = 2^(n-3) (a - b)^2 of the step before
    for _ in range(_AGM_MAX_ITER):
        if abs(a - b) <= _AGM_RTOL * a:
            break
        if with_sum:
            scale *= 2.0
            total += scale * (a - b) * (a - b)
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return a, b, total


def complete_k(m: float) -> float:
    """Complete elliptic integral of the first kind, modulus convention.

    K(m) = pi / (2 agm(1, sqrt(1 - m^2))); strictly increasing on [0, 1).
    """
    if not 0.0 <= m < 1.0:
        raise ValueError(f"modulus must lie in [0, 1), got {m}")
    a, b, _ = _agm(m, with_sum=False)
    return math.pi / (2.0 * (0.5 * (a + b)))


def complete_e(m: float) -> float:
    """Complete elliptic integral of the second kind, modulus convention.

    Uses the AGM with the classical sum over the squared half-differences:
    E = K * (1 - sum_n 2^(n-1) c_n^2), c_0 = m.
    """
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"modulus must lie in [0, 1], got {m}")
    if m == 1.0:
        return 1.0
    a, _, total = _agm(m, with_sum=True)
    return math.pi / (2.0 * a) * (1.0 - total)


def jacobi_elliptic(u: float, m: float) -> tuple[float, float, float, float]:
    """Jacobi functions (am, sn, cn, dn) at argument u, modulus m in [0, 1).

    Descending Landen transformation: build the AGM scales, seed the phase in
    the trigonometric regime and fold it back down.  The amplitude comes out
    unwrapped, am(u + 4K) = am(u) + 2 pi, which is what trajectory code needs.
    """
    if not 0.0 <= m < 1.0:
        raise ValueError(f"modulus must lie in [0, 1), got {m}")
    if not math.isfinite(u):
        raise ValueError(f"argument must be finite, got {u}")

    a_prev, b_prev = 1.0, math.sqrt((1.0 - m) * (1.0 + m))
    a_list = [1.0]
    c_list = [m]
    for _ in range(_AGM_MAX_ITER):
        if c_list[-1] <= _AGM_RTOL * a_list[-1]:
            break
        a_list.append(0.5 * (a_prev + b_prev))
        c_list.append(0.5 * (a_prev - b_prev))
        a_prev, b_prev = a_list[-1], math.sqrt(a_prev * b_prev)
    n = len(a_list) - 1
    if n == 0:
        # m = 0 or below AGM resolution: trigonometric values are already exact here
        sn, cn = math.sin(u), math.cos(u)
        return u, sn, cn, math.hypot(b_prev, m * cn)

    phi = math.ldexp(a_list[n] * u, n)
    phi_one = phi
    for i in range(n, 0, -1):
        s = c_list[i] / a_list[i] * math.sin(phi)
        s = max(-1.0, min(1.0, s))
        if i == 1:
            phi_one = phi
        phi = 0.5 * (phi + math.asin(s))
    am = phi
    sn = math.sin(am)
    cn = math.cos(am)
    if abs(cn) >= 0.25:
        dn = cn / math.cos(phi_one - am)
    else:
        # the phase ratio turns 0/0 near the zeros of cn; the rearranged
        # radical sqrt(m'^2 + (m cn)^2) is a cancellation-free equivalent
        dn = math.hypot(math.sqrt((1.0 - m) * (1.0 + m)), m * cn)
    return am, sn, cn, dn


def nome_from_h(mod: Modulus) -> float:
    """Nome x' = exp(-pi K(h') / K(h)), in [0, 1); the h -> 0 limit is 0."""
    if mod.h == 0.0:
        return 0.0
    return math.exp(-math.pi * complete_k(mod.h_prime) / complete_k(mod.h))


def lambda_from_h(mod: Modulus) -> float:
    """The quarter-nome parameter lambda = (1 - sqrt(h')) / (2 (1 + sqrt(h')))."""
    r = math.sqrt(mod.h_prime)
    return 0.5 * (1.0 - r) / (1.0 + r)


def _theta_sum(q: float, exponent: Callable[[int], int], start: float) -> float:
    """A theta-function sum in the nome q, from its first term on: with
    start 0.0 the theta_2 shape sum_{n>=0} q^exponent(n), with start 1.0 the
    theta_3 shape 1 + 2 sum_{n>=1} q^exponent(n).  Stops after the first
    term below _PRODUCT_EPS, or past n = 64.
    """
    total = start
    n = 0 if start == 0.0 else 1
    while True:
        term = (1.0 + start) * q ** exponent(n)
        total += term
        n += 1
        if term < _PRODUCT_EPS or n > 64:
            return total


def lambda_from_nome(q: float) -> float:
    """lambda from the nome by the theta quotient
    sum q^((2n+1)^2) / (1 + 2 sum q^(4n^2)); exact companion to lambda_from_h.
    """
    if not 0.0 <= q < 1.0:
        raise ValueError(f"nome must lie in [0, 1), got {q}")
    num = _theta_sum(q, lambda n: (2 * n + 1) ** 2, 0.0)
    return num / _theta_sum(q, lambda n: 4 * n * n, 1.0)


def h_from_nome(q: float) -> float:
    """Inverse of nome_from_h via the classical theta quotient h = (th2/th3)^2."""
    if not 0.0 <= q < 1.0:
        raise ValueError(f"nome must lie in [0, 1), got {q}")
    if q == 0.0:
        return 0.0
    th2 = 2.0 * q**0.25 * _theta_sum(q, lambda n: n * (n + 1), 0.0)
    return (th2 / _theta_sum(q, lambda n: n * n, 1.0)) ** 2


def g0_eval(mod: Modulus, g: float) -> float:
    """Energy-dependent hyperbolicity rate g0 = (pi/2) g / (h' K(h)).

    g0(h=0) = g exactly; g0 >= g with equality only at the separatrix.
    """
    if not g > 0.0:
        raise ValueError(f"rate g must be positive, got {g}")
    return 0.5 * math.pi * g / (mod.h_prime * complete_k(mod.h))


def g0_from_nome(x_prime: float, g: float = 1.0) -> float:
    """g0 from the nome alone, by the quadratic infinite product
    g0 = g prod_n ((1 + x'^n)/(1 - x'^n))^2; valid for |x'| < 1 of either
    sign (negative arguments serve the stable chart).
    """
    if not -1.0 < x_prime < 1.0:
        raise ValueError(f"nome must satisfy |x'| < 1, got {x_prime}")
    prod = 1.0
    xn = 1.0
    for _ in range(_MAX_PRODUCT_TERMS):
        xn *= x_prime
        if abs(xn) < _PRODUCT_EPS:
            break
        f = (1.0 + xn) / (1.0 - xn)
        prod *= f * f
    else:
        raise RuntimeError("g0 product did not converge")
    return g * prod


def legendre_defect(mod: Modulus) -> float:
    """Residual of Legendre's relation
    E(h) K(h') + E(h') K(h) - K(h) K(h') - pi/2; certifies the kernel when
    it vanishes at the 1e-12 level.
    """
    if not 0.0 < mod.h < 1.0:
        raise ValueError("Legendre defect needs 0 < h < 1 (K diverges at the endpoints)")
    kh = complete_k(mod.h)
    khp = complete_k(mod.h_prime)
    eh = complete_e(mod.h)
    ehp = complete_e(mod.h_prime)
    return eh * khp + ehp * kh - kh * khp - 0.5 * math.pi
