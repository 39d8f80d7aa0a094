"""Truncated formal power series over exact arbitrary-precision rationals.

A series carries its truncation order explicitly: coefficients beyond the
order are unknown, not zero, and every operation returns only the order it
can certify from its operands.  Re-running any computation at a higher order
never changes previously computed coefficients.

A series stores its coefficients as Python int numerators over one reduced,
positive common denominator, so identity checks are exact however large the
coefficients grow.  That is the form the kernels behind the products,
quotients, compositions and reversions compute on: each hands its output and
denominator to the result, reduced by one gcd pass, so no coefficient is boxed
between operations.  The public `coeffs`, a tuple of fractions.Fraction, is
built on first access and kept.
A power of a q-product needs no series product: it comes from the small-integer
logarithmic derivative L by m c_m = power sum_k L_k c_(m-k) (Knuth, TAOCP 4.7),
continued from a stored lower order of the same product when one is given.

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
from functools import cached_property
from math import gcd, isqrt, lcm
from operator import mul
from typing import Iterable, Sequence, Union

__all__ = ["RationalSeries", "product_series"]

Coeff = Union[Fraction, int]

def _rat(value) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


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


@dataclass(frozen=True, init=False, repr=False)
class RationalSeries:
    """Power series sum_n coeffs[n] * var^n, exact through var^order.

    Int numerators over one reduced positive denominator: equal series store the same.
    """

    var: str
    _den: int
    _nums: tuple[int, ...]

    def __init__(self, coeffs: Iterable[Coeff], var: str = "x"):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        if all(type(c) is int for c in coeffs):
            nums, den = coeffs, 1
        else:
            coeffs = tuple(map(_rat, coeffs))
            den = lcm(*(c.denominator for c in coeffs))
            nums = tuple(c.numerator * (den // c.denominator) for c in coeffs)
            vars(self)["coeffs"] = coeffs
        vars(self).update(_nums=nums, _den=den, var=var)

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self._den) for n in self._nums)

    def __repr__(self):
        return f"{type(self).__qualname__}(coeffs={self.coeffs!r}, var={self.var!r})"

    # -- construction -------------------------------------------------------

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[Coeff], var: str = "x") -> "RationalSeries":
        return cls(coeffs, var)

    @classmethod
    def constant(cls, value: Coeff, order: int, var: str = "x") -> "RationalSeries":
        if order < 0:
            raise ValueError(f"a constant series needs order >= 0, got {order}")
        return cls((value,) + (0,) * order, var)

    @classmethod
    def identity(cls, order: int, var: str = "x") -> "RationalSeries":
        if order < 1:
            raise ValueError("the identity series needs order >= 1")
        return _series((0, 1) + (0,) * (order - 1), 1, var)

    # -- basics --------------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._nums) - 1

    def coeff(self, n: int) -> Fraction:
        if not 0 <= n <= self.order:
            raise ValueError(f"coefficient of {self.var}^{n} is beyond truncation order {self.order}")
        return self.coeffs[n]

    def truncate(self, order: int) -> "RationalSeries":
        if order < 0:
            raise ValueError(f"cannot truncate a series to negative order {order}")
        if order >= len(self._nums):
            raise ValueError(f"cannot extend a series from order {self.order} to {order}")
        # a slice: over denominator 1 (every normal-form series) nothing reduces
        return _series(self._nums[: order + 1], self._den, self.var)

    def shift(self) -> "RationalSeries":
        """Multiply by the variable; gains one certified order."""
        return _series((0,) + self._nums, self._den, self.var)

    def _check_var(self, other: "RationalSeries"):
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var!r} vs {other.var!r}")

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, RationalSeries):
            self._check_var(other)
            den = lcm(self._den, other._den)
            sa, sb = den // self._den, den // other._den
            return _series([a * sa + b * sb for a, b in zip(self._nums, other._nums)], den, self.var)
        c = _rat(other)
        return self + _series([c.numerator] + [0] * self.order, c.denominator, self.var)

    __radd__ = __add__

    def __neg__(self):
        return _series([-a for a in self._nums], self._den, self.var)

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
            return _series(_mul_lists(self._nums, other._nums, n), self._den * other._den, self.var)
        c = _rat(other)
        return _series([a * c.numerator for a in self._nums], self._den * c.denominator, self.var)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, RationalSeries):
            self._check_var(other)
            n = min(self.order, other.order)
            b0 = other._nums[0]
            q = _div_lists(self._nums, other._nums, n)
            # (a/da) / (b/db) = (db/da) sum q[m] t^m / b0^(m+1), over the one
            # denominator da b0^(n+1)
            nums = [qm * other._den * b0 ** (n - m) for m, qm in enumerate(q)]
            return _series(nums, self._den * b0 ** (n + 1), self.var)
        c = _rat(other)
        if c == 0:
            raise ZeroDivisionError("division of a series by zero")
        return self * (1 / c)

    # -- calculus and composition --------------------------------------------

    def derivative(self) -> "RationalSeries":
        if self.order < 1:
            raise ValueError("derivative of an order-0 series certifies no coefficients")
        return _series([n * a for n, a in enumerate(self._nums) if n], self._den, self.var)

    def alternate(self, var: str | None = None) -> "RationalSeries":
        """self(-t), exact: the odd coefficients negated; in var if given."""
        nums = [-a if n % 2 else a for n, a in enumerate(self._nums)]
        return _series(nums, self._den, var if var is not None else self.var)

    def compose(self, inner: "RationalSeries") -> "RationalSeries":
        """self(inner); inner must have zero constant term."""
        if inner._nums[0] != 0:
            raise ValueError("composition needs an inner series with zero constant term")
        n = min(self.order, inner.order)
        dg = inner._den
        # sum f[j] (g/dg)^j = sum f[j] dg^(n-j) g^j / dg^n
        f = [fj * dg ** (n - j) for j, fj in enumerate(self._nums[: n + 1])]
        return _series(_compose_lists(f, inner._nums[: n + 1], n), self._den * dg**n, inner.var)

    def revert(self, var: str | None = None) -> "RationalSeries":
        """Compositional inverse g with self(g) = identity, exact.

        Needs zero constant term and nonzero linear coefficient.  Lagrange
        inversion: g_k = [t^(k-1)] (t/self(t))^k / k.  With q the reciprocal
        of self(t)/t and m = isqrt(order), baby powers q^0..q^m and giant
        powers q^(m j) give each [t^(k-1)] q^k, k = m j + i, as one dot
        product, for about 2 sqrt(order) full products in all.
        """
        f, den = self._nums, self._den
        if f[0] != 0:
            raise ValueError("reversion needs a series with zero constant term")
        if self.order < 1 or f[1] == 0:
            raise ValueError("reversion needs a nonzero linear coefficient")
        n = self.order
        # t/self = den / p with p = f/t; 1/p = sum q[m] t^m / p0^(m+1), so
        # [t^m] (1/p)^k = [t^m] q^k / p0^(m+k) and g_k needs it at m = k-1
        p0 = f[1]
        q = _div_lists([1], f[1:], n - 1)
        m = isqrt(n)
        baby = _powers(q, m, n - 1)
        giant = baby[0]
        L = lcm(*range(1, n + 1))       # g_k = den^k [t^(k-1)] q^k / (k p0^(2k-1))
        g = [0]                         # over the common denominator L p0^(2n-1)
        for k in range(1, n + 1):
            j, i = divmod(k, m)
            if i == 0:
                giant = baby[m] if j == 1 else _mul_lists(giant, baby[m], n - 1)
            power = sum(map(mul, giant[:k], baby[i][k - 1::-1]))
            g.append(den**k * power * (L // k) * p0 ** (2 * (n - k)))
        return _series(g, L * p0 ** (2 * n - 1), var if var is not None else self.var)

    # -- evaluation and serialization ------------------------------------------

    def __call__(self, x):
        """Horner evaluation; exact for Fraction and int arguments.  For a float
        x, Fraction + float rounds each coefficient to a float first."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = c + acc * x
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
        """The series of to_json's text; a missing or malformed field raises a
        ValueError that names it, and a coefficient its index."""
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError(f"a JSON series is an object, got {type(obj).__name__}")
        for field in ("var", "order", "coeffs"):
            if field not in obj:
                raise ValueError(f"JSON series has no {field!r} field")
        var, order, pairs = obj["var"], obj["order"], obj["coeffs"]
        if not isinstance(var, str):
            raise ValueError(f"the JSON series' 'var' must be a string, got {var!r}")
        if type(order) is not int or order < 0:    # bool is an int subclass
            raise ValueError(f"the JSON series' 'order' must be an integer >= 0, got {order!r}")
        if not isinstance(pairs, list):
            raise ValueError(f"the JSON series' 'coeffs' must be a list, got {pairs!r}")
        if len(pairs) != order + 1:
            raise ValueError("JSON series length does not match its order")
        coeffs = []
        for n, pair in enumerate(pairs):
            if not (isinstance(pair, list) and len(pair) == 2 and all(isinstance(c, str) for c in pair)):
                raise ValueError(f"coefficient {n} of the JSON series is not a "
                                 f"[numerator, denominator] pair of strings: {pair!r}")
            try:
                num, den = int(pair[0]), int(pair[1])
            except ValueError:
                raise ValueError(f"coefficient {n} of the JSON series is not a pair of integers: "
                                 f"{pair!r}") from None
            if den == 0:
                raise ValueError(f"coefficient {n} of the JSON series has denominator 0")
            coeffs.append(Fraction(num, den))
        return cls(coeffs, var)

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


def _series(nums: Sequence[int], den: int, var: str) -> RationalSeries:
    """sum_n nums[n] var^n / den (den != 0), reduced: every operation's constructor."""
    if den != 1:
        g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
        if g != 1:
            nums, den = [n // g for n in nums], den // g
    out = object.__new__(RationalSeries)
    fields = vars(out)
    fields["_nums"], fields["_den"], fields["var"] = tuple(nums), den, var
    return out


def product_series(
    factors: Sequence[tuple[int, int, int, int]],
    power: int,
    order: int,
    var: str = "x",
    *,
    shift: int = 0,
    prefix: RationalSeries | None = None,
) -> RationalSeries:
    """Exact series of var^shift (prod over factor patterns)^power through var^order.

    Each factor is a tuple (sign, step, offset, exponent) standing for
    prod_{n>=1} (1 + sign * var^(step*n + offset))^exponent with sign and
    exponent in {+1, -1}.  Binomials whose exponent step*n+offset exceeds the
    order cannot touch the kept coefficients, so the truncation is exact.

    The power comes from the small-integer logarithmic derivative L = var d/dvar
    log of the product, (1 + s var^e)^eps adding eps e sum_k -(-s)^k var^(e k):
    m c_m = sum_(k=1..m) power L_k c_(m-k), c_0 = 1 (Knuth, TAOCP Vol. 2, 4.7).
    A prefix, the same call's result at a lower order, is continued.
    """
    if not 0 <= shift <= order:
        raise ValueError(f"order must be >= 0 and >= shift, got order {order}, shift {shift}")
    if not isinstance(power, int) or power < 0:
        raise ValueError("power must be a nonnegative integer")
    order -= shift
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
    acc = [1, *prefix._nums[shift + 1:shift + order + 1]] if prefix else [1]
    for m in range(len(acc), order + 1):
        acc.append(sum(map(mul, weights, reversed(acc))) // m)
    return _series([0] * shift + acc, 1, var)
