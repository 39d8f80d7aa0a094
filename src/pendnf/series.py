"""Truncated formal power series over exact arbitrary-precision rationals.

A series carries its truncation order explicitly: coefficients beyond the
order are unknown, not zero, and every operation returns only the order it
can certify from its operands.  Re-running any computation at a higher order
never changes previously computed coefficients.

A series stores and exposes its coefficients as fractions.Fraction, so
identity checks between series are exact, no matter how large the
coefficients grow.  The kernels behind the products, quotients, powers,
compositions and reversions compute on Python int lists over one common
denominator: an operation converts its operands once, runs the kernel on
integers, and converts the result back once, so no gcd runs inside a loop.
A power of a q-product needs no series product: it comes from the small-integer
logarithmic derivative L by m c_m = power sum_k L_k c_(m-k) (Knuth, TAOCP 4.7).

Composition and reversion split their powers into baby and giant steps
(Brent & Kung 1978, "Fast algorithms for manipulating formal power series"):
composition is Brent-Kung composition, blocks of the outer series summed by
Horner in the m-th power of the inner one, and reversion is Lagrange
inversion that reads each coefficient off a baby and a giant power.  Both make
about 2 sqrt(order) full products where one product per power would make
order of them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from operator import mul
from typing import Iterable, Sequence, Union

__all__ = ["RationalSeries", "product_series"]

Coeff = Union[Fraction, int]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _rat(value) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def _ints(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """(numerators, den) with coeffs[n] == numerators[n] / den."""
    den = lcm(*(c.denominator for c in coeffs))
    if den == 1:
        return [c.numerator for c in coeffs], 1
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _fracs(nums: Sequence[int], den: int) -> tuple[Fraction, ...]:
    if den == 1:
        return tuple(map(Fraction, nums))
    return tuple(Fraction(n, den) for n in nums)


# ---------------------------------------------------------------------------
# integer coefficient-list kernels (length = order + 1, index = power)

def _mul_lists(a: Sequence[int], b: Sequence[int], order: int) -> list[int]:
    # one dot product per output coefficient, b read backwards
    rb = b[::-1]
    la, lb = len(a), len(b)
    out = []
    for m in range(order + 1):
        lo, hi = max(0, m - lb + 1), min(m, la - 1)
        out.append(sum(map(mul, a[lo:hi + 1], rb[lb - 1 - m + lo:lb - m + hi])))
    return out


def _div_lists(a: Sequence[int], b: Sequence[int], order: int) -> list[int]:
    """Q with a/b = sum_m Q[m] t^m / b[0]^(m+1).

    The quotient recurrence multiplied through by powers of b[0], so it stays
    in integers whatever b[0] is: Q[m] = b0^m a[m] - sum_j b0^(j-1) b[j] Q[m-j].
    """
    b0 = b[0]
    if b0 == 0:
        raise ZeroDivisionError("division by a series with zero constant term")
    powers = [1]
    for _ in range(order):
        powers.append(powers[-1] * b0)
    scaled = [b[j] * powers[j - 1] for j in range(1, min(len(b), order + 1))]
    q: list[int] = []
    for m in range(order + 1):
        am = a[m] * powers[m] if m < len(a) else 0
        q.append(am - sum(map(mul, scaled, reversed(q))))
    return q


def _powers(a: Sequence[int], count: int, order: int) -> list[list[int]]:
    """[a^0, a^1, ..., a^count], each through t^order (count >= 1)."""
    out = [[1] + [0] * order, list(a)]
    while len(out) <= count:
        out.append(_mul_lists(out[-1], a, order))
    return out


def _compose_lists(f: Sequence[int], g: Sequence[int], order: int) -> list[int]:
    """sum_j f[j] g^j through t^order; g must have zero constant term.

    Brent-Kung baby-step/giant-step: with baby powers g^0..g^(m-1) and the
    giant step G = g^m, each block P_j = sum_(i<m) f[m j + i] g^i is an
    integer linear combination, and the blocks are summed by Horner in G.
    After block j is added, j more factors of G (each of valuation >= m)
    follow, so only the terms through order - m j can still reach the result.
    """
    m = isqrt(len(f))
    baby = _powers(g, m, order)
    giant = baby.pop()
    columns = list(zip(*baby))      # columns[k][i] = [t^k] g^i
    out: list[int] = []
    for j in range((len(f) - 1) // m, -1, -1):
        top = order - m * j
        out = _mul_lists(out, giant, top) if out else [0] * (top + 1)
        block = f[m * j:m * j + m]
        for k in range(top + 1):
            out[k] += sum(map(mul, block, columns[k]))
    return out


def _pow_list(a: Sequence[int], exponent: int, order: int) -> list[int]:
    # the first set bit assigns the base: no product with the unit series
    result = None
    base = list(a)
    e = exponent
    while e:
        if e & 1:
            result = base if result is None else _mul_lists(result, base, order)
        e >>= 1
        if e:
            base = _mul_lists(base, base, order)
    return [1] + [0] * order if result is None else result


@dataclass(frozen=True)
class RationalSeries:
    """Power series sum_n coeffs[n] * var^n, exact through var^order."""

    coeffs: tuple[Fraction, ...]
    var: str = "x"

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise ValueError("a series needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", tuple(_rat(c) for c in self.coeffs))

    # -- construction -------------------------------------------------------

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[Coeff], var: str = "x") -> "RationalSeries":
        return cls(tuple(_rat(c) for c in coeffs), var)

    @classmethod
    def constant(cls, value: Coeff, order: int, var: str = "x") -> "RationalSeries":
        return cls((_rat(value),) + (_ZERO,) * order, var)

    @classmethod
    def identity(cls, order: int, var: str = "x") -> "RationalSeries":
        if order < 1:
            raise ValueError("the identity series needs order >= 1")
        return cls((_ZERO, _ONE) + (_ZERO,) * (order - 1), var)

    # -- basics --------------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> Fraction:
        if not 0 <= n <= self.order:
            raise ValueError(f"coefficient of {self.var}^{n} is beyond truncation order {self.order}")
        return self.coeffs[n]

    def truncate(self, order: int) -> "RationalSeries":
        if order < 0:
            raise ValueError(f"cannot truncate a series to negative order {order}")
        if order > self.order:
            raise ValueError(f"cannot extend a series from order {self.order} to {order}")
        # the kept coefficients are Fractions already: skip __post_init__
        out = object.__new__(RationalSeries)
        object.__setattr__(out, "coeffs", self.coeffs[: order + 1])
        object.__setattr__(out, "var", self.var)
        return out

    def shift(self) -> "RationalSeries":
        """Multiply by the variable; gains one certified order."""
        return RationalSeries((_ZERO,) + self.coeffs, self.var)

    def _check_var(self, other: "RationalSeries"):
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var!r} vs {other.var!r}")

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, RationalSeries):
            self._check_var(other)
            n = min(self.order, other.order)
            return RationalSeries(
                tuple(self.coeffs[i] + other.coeffs[i] for i in range(n + 1)), self.var
            )
        return RationalSeries((self.coeffs[0] + _rat(other),) + self.coeffs[1:], self.var)

    __radd__ = __add__

    def __neg__(self):
        return RationalSeries(tuple(-c for c in self.coeffs), self.var)

    def __sub__(self, other):
        if isinstance(other, RationalSeries):
            return self + (-other)
        return self + (-_rat(other))

    def __rsub__(self, other):
        return (-self) + _rat(other)

    def __mul__(self, other):
        if isinstance(other, RationalSeries):
            self._check_var(other)
            n = min(self.order, other.order)
            (a, da), (b, db) = _ints(self.coeffs[: n + 1]), _ints(other.coeffs[: n + 1])
            return RationalSeries(_fracs(_mul_lists(a, b, n), da * db), self.var)
        c = _rat(other)
        nums, den = _ints(self.coeffs)
        return RationalSeries(_fracs([n * c.numerator for n in nums], den * c.denominator), self.var)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, RationalSeries):
            self._check_var(other)
            n = min(self.order, other.order)
            (a, da), (b, db) = _ints(self.coeffs[: n + 1]), _ints(other.coeffs[: n + 1])
            q = _div_lists(a, b, n)
            # (a/da) / (b/db) = (db/da) sum q[m] t^m / b0^(m+1), over the one
            # denominator da b0^(n+1)
            nums = [qm * db * b[0] ** (n - m) for m, qm in enumerate(q)]
            return RationalSeries(_fracs(nums, da * b[0] ** (n + 1)), self.var)
        c = _rat(other)
        if c == 0:
            raise ZeroDivisionError("division of a series by zero")
        return self * (1 / c)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("series powers must be nonnegative integers")
        a, den = _ints(self.coeffs)
        return RationalSeries(_fracs(_pow_list(a, exponent, self.order), den**exponent), self.var)

    # -- calculus and composition --------------------------------------------

    def derivative(self) -> "RationalSeries":
        if self.order < 1:
            raise ValueError("derivative of an order-0 series certifies no coefficients")
        nums, den = _ints(self.coeffs)
        return RationalSeries(_fracs([n * c for n, c in enumerate(nums) if n], den), self.var)

    def compose(self, inner: "RationalSeries") -> "RationalSeries":
        """self(inner); inner must have zero constant term."""
        if inner.coeffs[0] != 0:
            raise ValueError("composition needs an inner series with zero constant term")
        n = min(self.order, inner.order)
        (f, df), (g, dg) = _ints(self.coeffs[: n + 1]), _ints(inner.coeffs[: n + 1])
        # sum f[j] (g/dg)^j = sum f[j] dg^(n-j) g^j / dg^n
        f = [fj * dg ** (n - j) for j, fj in enumerate(f)]
        return RationalSeries(_fracs(_compose_lists(f, g, n), df * dg**n), inner.var)

    def revert(self, var: str | None = None) -> "RationalSeries":
        """Compositional inverse g with self(g) = identity, exact.

        Needs zero constant term and nonzero linear coefficient.  Lagrange
        inversion: g_k = [t^(k-1)] (t/self(t))^k / k.  With q the reciprocal
        of self(t)/t and m = isqrt(order), baby powers q^0..q^m and giant
        powers q^(m j) give each [t^(k-1)] q^k, k = m j + i, as one dot
        product, for about 2 sqrt(order) full products in all.
        """
        if self.coeffs[0] != 0:
            raise ValueError("reversion needs a series with zero constant term")
        if self.order < 1 or self.coeffs[1] == 0:
            raise ValueError("reversion needs a nonzero linear coefficient")
        n = self.order
        f, den = _ints(self.coeffs)
        # t/self = den / p with p = f/t; 1/p = sum q[m] t^m / p0^(m+1), so
        # [t^m] (1/p)^k = [t^m] q^k / p0^(m+k) and g_k needs it at m = k-1
        p0 = f[1]
        q = _div_lists([1], f[1:], n - 1)
        m = isqrt(n)
        baby = _powers(q, m, n - 1)
        giant = baby[0]
        g = [_ZERO]
        for k in range(1, n + 1):
            j, i = divmod(k, m)
            if i == 0:
                giant = baby[m] if j == 1 else _mul_lists(giant, baby[m], n - 1)
            power = sum(map(mul, giant[:k], baby[i][k - 1::-1]))
            g.append(Fraction(den**k * power, k * p0 ** (2 * k - 1)))
        return RationalSeries(tuple(g), var if var is not None else self.var)

    # -- evaluation and serialization ------------------------------------------

    def __call__(self, x):
        """Horner evaluation; exact for Fraction arguments, float otherwise."""
        if isinstance(x, Fraction) or isinstance(x, int):
            acc = Fraction(0)
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return acc
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + float(c)
        return acc

    def to_json_obj(self) -> dict:
        return {
            "var": self.var,
            "order": self.order,
            "coeffs": [[str(c.numerator), str(c.denominator)] for c in self.coeffs],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    @classmethod
    def from_json(cls, text: str) -> "RationalSeries":
        obj = json.loads(text)
        coeffs = [Fraction(int(num), int(den)) for num, den in obj["coeffs"]]
        if len(coeffs) != obj["order"] + 1:
            raise ValueError("JSON series length does not match its order")
        return cls(tuple(coeffs), obj["var"])

    def __str__(self):
        parts = []
        for n, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if n == 0:
                parts.append(str(c))
            elif n == 1:
                parts.append(f"{c}*{self.var}")
            else:
                parts.append(f"{c}*{self.var}^{n}")
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O({self.var}^{self.order + 1})"


def product_series(
    factors: Sequence[tuple[int, int, int, int]],
    power: int,
    order: int,
    var: str = "x",
) -> RationalSeries:
    """Exact series of (prod over factor patterns)^power through var^order.

    Each factor is a tuple (sign, step, offset, exponent) standing for
    prod_{n>=1} (1 + sign * var^(step*n + offset))^exponent with sign and
    exponent in {+1, -1}.  Binomials whose exponent step*n+offset exceeds the
    order cannot touch the kept coefficients, so the truncation is exact.

    The power comes from the small-integer logarithmic derivative L = var d/dvar
    log of the product, (1 + s var^e)^eps adding eps e sum_k -(-s)^k var^(e k):
    m c_m = sum_(k=1..m) power L_k c_(m-k), c_0 = 1 (Knuth, TAOCP Vol. 2, 4.7).
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if not isinstance(power, int) or power < 0:
        raise ValueError("power must be a nonnegative integer")
    weights = [0] * order              # weights[k - 1] = power L_k
    for sign, step, offset, exponent in factors:
        if sign not in (1, -1) or exponent not in (1, -1) or step < 1:
            raise ValueError(f"invalid factor descriptor {(sign, step, offset, exponent)}")
        if step + offset < 1:
            raise ValueError("factor exponents must start at a positive power")
        for e in range(step + offset, order + 1, step):
            term = sign * power * exponent * e
            for i in range(e, order + 1, e):
                weights[i - 1] += term
                term *= -sign
    acc = [1]
    for m in range(1, order + 1):
        acc.append(sum(map(mul, weights, reversed(acc))) // m)
    return RationalSeries(_fracs(acc, 1), var)
