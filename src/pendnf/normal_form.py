"""Exact nome-power-series for the canonical normal form near the unstable
equilibrium, plus the matching stable-equilibrium series.

Normalization: every series here sets g = 1 and the action scale 32*I*g = 1
(so I = 1/32).  Under that convention the rate, energy and Jacobian series
all have positive integer coefficients, which is what makes the identity
checks exact.  Physical values are recovered by the scalings

    rate               g0(x')  = g * g0_series(x')
    energy             U(x')   = 32*I*g^2 * energy_series(x')
    phase-area factor  D(x')   = 32*I*g   * jacobian_series(x')
    squared rescale    a^2(x') = 32*I*g   * rescale_sq_series(x')
    action of the map  x(x')   = 32*I*g   * x_of_nome_series(x')
    normal energy      32*I*g^2 * normal_energy_series(x / (32*I*g))

Stable chart: the rotation rate is the hyperbolic rate at negated nome, the
squared rescale carries twice the scale (64*I*g), and the stable normal-form
energy is W with argument x/(64*I*g).

Each series function keeps, for the life of the process, the longest result
it has computed, and answers a lower order by truncating it: coefficients
never change with the order (see series.py), so the truncation is exactly
what a direct computation at that order returns.  A higher order than any
seen so far replaces the stored one: g0 and U extend theirs by the product
recurrence, and the rest are computed afresh from them.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .series import RationalSeries, product_series

__all__ = [
    "StableFormBundle",
    "IdentityReport",
    "g0_series",
    "energy_series",
    "jacobian_series",
    "rescale_sq_series",
    "x_of_nome_series",
    "normal_energy_series",
    "stable_bundle",
    "rescaling_identity_check",
    "theta_logderiv_check",
    "alternating_signs_hold",
]

# (sign, step, offset, exponent) patterns; see series.product_series
_G0_FACTORS = ((1, 1, 0, 1), (-1, 1, 0, -1))          # (1+x^n)/(1-x^n)
_ENERGY_FACTORS = ((1, 2, 0, 1), (-1, 2, -1, -1))     # (1+x^(2n))/(1-x^(2n-1))

NOME_VAR = "x'"
STABLE_NOME_VAR = "xs'"


class StableFormBundle(NamedTuple):
    """Stable-chart series (normalized; W carries the 64*I*g argument scale)."""

    g0: RationalSeries
    energy: RationalSeries
    rescale_sq: RationalSeries
    normal_energy: RationalSeries

    @property
    def order(self) -> int:
        return self.normal_energy.order

    def truncate(self, order: int) -> "StableFormBundle":
        return StableFormBundle(*(s.truncate(order) for s in self))


class IdentityReport(NamedTuple):
    passed: bool
    order: int
    first_mismatch: int | None = None


def _longest(min_order: int, message: str, extends: bool = False):
    """Check the order, then serve it from the longest result stored so far
    (truncated), or compute it and store it when it is longer; a function
    that extends is handed the stored result to continue from."""

    def decorate(fn):
        longest = None

        @functools.wraps(fn)
        def stored(order: int):
            nonlocal longest
            if order < min_order:
                raise ValueError(message)
            if longest is None or order > longest.order:
                longest = fn(order, longest) if extends else fn(order)
            return longest.truncate(order)

        return stored

    return decorate


@_longest(0, "order must be >= 0", extends=True)
def g0_series(order: int, stored: RationalSeries | None = None) -> RationalSeries:
    """Rate series g0/g = prod((1+x'^n)/(1-x'^n))^2 = 1 + 4x' + 12x'^2 + ..."""
    return product_series(_G0_FACTORS, 2, order, NOME_VAR, prefix=stored)


@_longest(1, "the energy series starts at first order; need order >= 1", extends=True)
def energy_series(order: int, stored: RationalSeries | None = None) -> RationalSeries:
    """Energy series U/(32 I g^2) = x' prod((1+x'^(2n))/(1-x'^(2n-1)))^8."""
    return product_series(_ENERGY_FACTORS, 8, order, NOME_VAR, shift=1, prefix=stored)


@_longest(0, "order must be >= 0")
def jacobian_series(order: int) -> RationalSeries:
    """Phase-area factor D/(32 I g) = (dU/dx') / g0; constant term 1."""
    return energy_series(order + 1).derivative() / g0_series(order)


@_longest(0, "order must be >= 0")
def rescale_sq_series(order: int) -> RationalSeries:
    """Squared canonical rescale a^2/(32 I g) = (d g0_series/dx') / 4.

    The quarter is the normalization of 8*I*g: the rate derivative at 0 is 4,
    so the constant term is 1, matching the Jacobian at the separatrix.
    """
    return g0_series(order + 1).derivative() / 4


@_longest(1, "x(x') starts at first order; need order >= 1")
def x_of_nome_series(order: int) -> RationalSeries:
    """The action of the canonical map, x/(32 I g) = x' * rescale_sq(x')."""
    return rescale_sq_series(order - 1).shift()


@_longest(2, "need order >= 2 to see past the linear term")
def normal_energy_series(order: int) -> RationalSeries:
    """Energy as a function of the normal action x = p*q (normalized):
    x + 2x^2 - 4x^3 + ...; obtained by reverting x(x') into the energy series.
    """
    inverse = x_of_nome_series(order).revert(var="x")
    return energy_series(order).compose(inverse)


@_longest(2, "need order >= 2 to see past the linear term")
def stable_bundle(order: int) -> StableFormBundle:
    """Stable-chart series: rotation rate, energy, squared rescale and W.

    The rate is the hyperbolic one at negated nome.  The squared rescale is
    a_s^2/(64 I g) = rescale_sq(-xs); its doubled scale is why W takes the
    argument x/(64 I g), and W(z) = z (1 - 2z - 4z^2 - 20z^3 - ...).
    """
    g0s = g0_series(order).alternate(STABLE_NOME_VAR)
    # negating the nome flips exactly the odd-exponent denominators of the
    # energy product, so Us(z) = -U(-z)
    energy_s = -energy_series(order).alternate(STABLE_NOME_VAR)
    a2s = rescale_sq_series(order).alternate(STABLE_NOME_VAR)
    x_of = a2s.truncate(order - 1).shift()
    w = energy_s.compose(x_of.revert(var="z"))
    return StableFormBundle(g0=g0s, energy=energy_s, rescale_sq=a2s, normal_energy=w)


def _report(order: int, *series: RationalSeries) -> IdentityReport:
    """Compare whole series; only where they differ, find the first power that does."""
    if all(s == series[0] for s in series[1:]):
        return IdentityReport(passed=True, order=order)
    columns = zip(*(s.coeffs for s in series))
    mismatch = next(n for n, column in enumerate(columns) if len(set(column)) > 1)
    return IdentityReport(passed=False, order=order, first_mismatch=mismatch)


def rescaling_identity_check(order: int) -> IdentityReport:
    """Coefficient-level check that the phase-area factor D equals
    d/dx' (x' * a^2(x')), i.e. that the rate derivative supplies the
    canonical rescale.  Exact comparison through the given order.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    # rhs first: it asks g0 one order higher, so lhs's g0 is a stored truncation
    rhs = x_of_nome_series(order + 1).derivative()
    return _report(order, jacobian_series(order), rhs)


def theta_logderiv_check(order: int) -> IdentityReport:
    """Three independent expansions of x' dlog(g0)/dx', compared exactly:

    (i)   from the g0 product series itself;
    (ii)  the divisor sum 4 sum_n n x'^n / (1 - x'^(2n));
    (iii) half the second z-derivative at z = 0 of log theta_4(z, x') with
          theta_4(z, q) = 1 + 2 sum (-1)^n q^(n^2) cos(2nz).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    via_product = g0_series(order).derivative().shift() / g0_series(order)

    coeffs = [0] * (order + 1)
    for n in range(1, order + 1):
        e = n
        while e <= order:
            coeffs[e] += 4 * n
            e += 2 * n
    via_divisors = RationalSeries.from_coeffs(coeffs, var=NOME_VAR)

    nums = [0] * (order + 1)
    dens = [0] * (order + 1)
    dens[0] = 1
    n = 1
    while n * n <= order:
        sign = -1 if n % 2 else 1
        nums[n * n] += -4 * sign * n * n
        dens[n * n] += 2 * sign
        n += 1
    via_theta = RationalSeries.from_coeffs(nums, var=NOME_VAR) / RationalSeries.from_coeffs(
        dens, var=NOME_VAR
    )

    return _report(order, via_product, via_divisors, via_theta)


def alternating_signs_hold(order: int = 50) -> bool:
    """Observed (not proven) sign pattern of the normal energy: from the
    quadratic term on, coefficients alternate starting positive.
    """
    s = normal_energy_series(order)
    return all(
        (c > 0 if n % 2 == 0 else c < 0) for n, c in enumerate(s.coeffs[2:], start=2)
    )
