"""Complete elliptic integrals, Jacobi elliptic functions and nome machinery
for real modulus at double precision.

Modulus convention: every routine takes the *modulus* m, as in
K(m) = integral_0^{pi/2} (1 - m^2 sin^2 a)^(-1/2) da, not the parameter m^2
used by scipy.special.  Pendulum-facing entry points are parametrized by the
coupled pair (h, h') with h^2 + h'^2 = 1 and k = h'/h; the separatrix is the
smooth limit h -> 0 (where k diverges but nothing else does).

K and E use the arithmetic-geometric mean, sn/cn/dn the descending Landen
transformation of the same AGM; it converges quadratically and reaches
machine precision in at most ~10 iterations.  Every function returns a value
determined by its arguments alone.  Two keep small bounded caches of what one
orbit asks for again and again: one AGM pass per modulus serves K, E and the
Landen descent, and one g0 product per nome.  A cache hit returns the same
bits as a fresh evaluation, and an input that raises is never cached.
"""

from __future__ import annotations

import functools
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
        # each test is written so that a NaN field fails it
        if not 0.0 <= self.h < 1.0:
            raise ValueError(f"h must lie in [0, 1), got {self.h}")
        if not 0.0 < self.h_prime <= 1.0:
            raise ValueError(f"h_prime must lie in (0, 1], got {self.h_prime}")
        if not abs(self.h * self.h + self.h_prime * self.h_prime - 1.0) <= 1e-14:
            raise ValueError("h^2 + h_prime^2 must equal 1")
        if self.h == 0.0:
            if self.k != math.inf:
                raise ValueError("h = 0 requires k = inf")
        elif not abs(self.k * self.h - self.h_prime) <= 1e-13 * max(1.0, self.h_prime):
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
        if not math.isfinite(energy):
            raise ValueError(f"energy must be finite, got {energy}")
        for name, value in (("inertia", inertia), ("g", g)):
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        return cls.from_k(g * math.sqrt(2.0 * inertia / energy))


@functools.lru_cache(maxsize=8, typed=True)
def _agm(m: float) -> tuple[tuple[float, float, float], float, tuple[float, ...], float]:
    """One AGM pass over (a, b, c) from (1, sqrt(1 - m^2), m), cached on m
    (and its type) for the last 8 moduli: an orbit asks for one or two.

    It records (a, b, sum_n 2^(n-1) c_n^2) at the first step where |a - b|
    reaches a few ulp, which is what K and E read, and runs on until c does
    (at most one step more) for the descending Landen scales: the last a, the
    ratios c_i / a_i in descent order i = n, ..., 1, and b_0.
    """
    a, b, c = 1.0, math.sqrt((1.0 - m) * (1.0 + m)), m
    b_0, ratios, mean = b, [], None
    total = 0.5 * m * m
    scale = 0.125               # 2^(n-1) c_n^2 = 2^(n-3) (a - b)^2 of the step before
    for _ in range(_AGM_MAX_ITER):
        if mean is None and abs(a - b) <= _AGM_RTOL * a:
            mean = a, b, total
        if c <= _AGM_RTOL * a:
            break
        scale *= 2.0
        total += scale * (a - b) * (a - b)
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        ratios.append(c / a)
    return mean, a, tuple(reversed(ratios)), b_0


def complete_k(m: float) -> float:
    """Complete elliptic integral of the first kind, modulus convention.

    K(m) = pi / (2 agm(1, sqrt(1 - m^2))); strictly increasing on [0, 1).
    """
    if not 0.0 <= m < 1.0:
        raise ValueError(f"modulus must lie in [0, 1), got {m}")
    a, b, _ = _agm(m)[0]
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
    a, _, total = _agm(m)[0]
    return math.pi / (2.0 * a) * (1.0 - total)


def jacobi_elliptic(u: float, m: float) -> tuple[float, float, float, float]:
    """Jacobi functions (am, sn, cn, dn) at argument u, modulus m in [0, 1).

    Descending Landen transformation: take the scales of m from its AGM pass
    (cached per modulus, the same bits as recomputing them), seed the phase
    in the trigonometric regime and fold it back down.  Below AGM resolution
    there is nothing to fold and am = 1.0 * u.  The amplitude comes out
    unwrapped, am(u + 4K) = am(u) + 2 pi, which is what trajectory code needs.
    """
    if not 0.0 <= m < 1.0:
        raise ValueError(f"modulus must lie in [0, 1), got {m}")
    if not math.isfinite(u):
        raise ValueError(f"argument must be finite, got {u}")

    _, a_n, ratios, b_0 = _agm(m)
    phi = math.ldexp(a_n * u, len(ratios))
    for ratio in ratios:
        phi_one = phi
        # |ratio| < 1 for every m < 1, so the sine needs no clamp
        phi = 0.5 * (phi + math.asin(ratio * math.sin(phi)))
    am = phi
    sn = math.sin(am)
    cn = math.cos(am)
    if ratios and abs(cn) >= 0.25:
        dn = cn / math.cos(phi_one - am)
    else:
        # the phase ratio turns 0/0 near the zeros of cn, and without a
        # descent there is none; the rearranged radical sqrt(m'^2 + (m cn)^2)
        # is a cancellation-free equivalent
        dn = math.hypot(b_0, m * cn)
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
    term below _PRODUCT_EPS; raises if _MAX_PRODUCT_TERMS terms do not get
    there (from about q = 1 - 4.2e-7 on).
    """
    total = start
    first = 0 if start == 0.0 else 1
    for n in range(first, first + _MAX_PRODUCT_TERMS):
        term = (1.0 + start) * q ** exponent(n)
        total += term
        if term < _PRODUCT_EPS:
            return total
    raise RuntimeError(f"theta sum did not converge at q = {q}")


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
    th2 = 2.0 * q**0.25 * _theta_sum(q, lambda n: n * (n + 1), 0.0)
    # the rounded quotient reaches 1 from q = 0.7655; keep it a modulus
    return min((th2 / _theta_sum(q, lambda n: n * n, 1.0)) ** 2, 1.0 - 2.0**-53)


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
    sign (negative arguments serve the stable chart).  Past the largest
    float (above x' = 0.9931 at g = 1) it raises an OverflowError that names
    the nome.

    The product is cached on x' (and its type) for the last 16 nomes, so
    the few nomes one orbit visits are multiplied out once; g multiplies
    the cached product exactly as it multiplies a fresh one.
    """
    if not -1.0 < x_prime < 1.0:
        raise ValueError(f"nome must satisfy |x'| < 1, got {x_prime}")
    return g * _g0_product(x_prime)


@functools.lru_cache(maxsize=16, typed=True)
def _g0_product(x_prime: float) -> float:
    prod = 1.0
    xn = 1.0
    for _ in range(_MAX_PRODUCT_TERMS):
        xn *= x_prime
        if abs(xn) < _PRODUCT_EPS:
            break
        f = (1.0 + xn) / (1.0 - xn)
        prod *= f * f
    else:
        if prod < math.inf:
            raise RuntimeError(f"g0 product did not converge at x' = {x_prime}")
    if prod == math.inf:
        raise OverflowError(f"g0 exceeds the float range at x' = {x_prime}")
    return prod


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
