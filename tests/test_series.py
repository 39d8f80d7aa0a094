"""Exact power-series engine tests.  Oracles here are deliberately naive
re-implementations over plain Fraction lists (double-loop convolution,
Horner composition, Lagrange inversion, factor-by-factor products)."""

import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import pins
from pendnf import series
from pendnf.series import RationalSeries as RS, product_series


# ---------------------------------------------------------------------------
# naive oracles

def conv_oracle(a, b, order):
    out = [F(0)] * (order + 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if i + j <= order:
                out[i + j] += ai * bj
    return out


def horner_oracle(f, g, order):
    acc = [F(0)] * (order + 1)
    for c in reversed(f):
        acc = conv_oracle(acc, g, order)
        acc[0] += c
    return acc


def lagrange_revert_oracle(f, order):
    """g_n = [x^(n-1)] (x / f(x))^n / n for n = 1..order."""
    base = [F(0)] * order
    unit = f[1:]
    # invert the unit series x/f -> need 1/(f/x)
    inv = [F(0)] * order
    inv[0] = 1 / unit[0]
    for n in range(1, order):
        acc = F(0)
        for j in range(1, n + 1):
            if j < len(unit):
                acc -= unit[j] * inv[n - j]
        inv[n] = acc / unit[0]
    out = [F(0)] * (order + 1)
    power = [F(1)] + [F(0)] * (order - 1)
    for n in range(1, order + 1):
        power = conv_oracle(power, inv, order - 1)
        out[n] = power[n - 1] / n
    return out


def binomial_product_oracle(factors, power, order):
    """The expansion product_series made before the log-derivative power
    recurrence: one in-place pass per binomial, then the power as a
    repeated product."""
    acc = [1] + [0] * order
    for sign, step, offset, exponent in factors:
        for e in range(step + offset, order + 1, step):
            if exponent == 1:
                # multiply by (1 + sign x^e), highest power first
                for i in range(order, e - 1, -1):
                    acc[i] += sign * acc[i - e]
            else:
                # divide by (1 + sign x^e)
                for i in range(e, order + 1):
                    acc[i] -= sign * acc[i - e]
    out = [F(1)] + [F(0)] * order
    for _ in range(power):
        out = conv_oracle(out, acc, order)
    return out


rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


# sparse coefficients: zeros drawn as often as any other value
sparse_rationals = st.one_of(st.just(F(0)), rationals)

# orders 1..40 give the block kernels m = isqrt from 1 to 6, perfect-square
# and other orders, and a partial last block
deep_orders = st.integers(min_value=1, max_value=40)


def series_strategy(order=6, var="x", elements=rationals):
    return st.lists(elements, min_size=order + 1, max_size=order + 1).map(
        lambda cs: RS.from_coeffs(cs, var=var)
    )


class CountProducts:
    """Counts the full series products (`_mul_lists` calls) made inside."""

    def __init__(self, monkeypatch):
        self.calls = 0
        inner = series._mul_lists

        def counted(*args):
            self.calls += 1
            return inner(*args)

        monkeypatch.setattr(series, "_mul_lists", counted)


# ---------------------------------------------------------------------------


class TestArithmetic:
    def test_binomial_product(self):
        a = RS.from_coeffs([1, 1, 0])
        b = RS.from_coeffs([1, -1, 0])
        assert (a * b).coeffs == (F(1), F(0), F(-1))

    def test_geometric_division(self):
        one = RS.constant(1, 5)
        geo = one / RS.from_coeffs([1, -1, 0, 0, 0, 0])
        assert geo.coeffs == tuple(F(1) for _ in range(6))

    @settings(max_examples=40, deadline=None)
    @given(a=series_strategy(), b=series_strategy())
    def test_product_matches_convolution_oracle(self, a, b):
        got = (a * b).coeffs
        want = conv_oracle(a.coeffs, b.coeffs, 6)
        assert list(got) == want

    @settings(max_examples=40, deadline=None)
    @given(a=series_strategy(), b=series_strategy())
    def test_division_inverts_product(self, a, b):
        if b.coeffs[0] == 0:
            with pytest.raises(ZeroDivisionError):
                a / b
            return
        assert ((a * b) / b).coeffs == a.coeffs

    def test_min_order_truncation(self):
        long = RS.from_coeffs([1, 2, 3, 4, 5])
        short = RS.from_coeffs([1, 1])
        assert (long + short).order == 1
        assert (long * short).order == 1

    def test_variable_mismatch(self):
        with pytest.raises(ValueError):
            RS.from_coeffs([1, 2], var="x") + RS.from_coeffs([1, 2], var="z")

    def test_scalar_operations(self):
        s = RS.from_coeffs([1, 2, 3])
        assert (2 * s).coeffs == (F(2), F(4), F(6))
        assert (s / 2).coeffs == (F(1, 2), F(1), F(3, 2))
        assert (s + 1).coeffs == (F(2), F(2), F(3))

    @settings(max_examples=60, deadline=None)
    @given(a=series_strategy(elements=sparse_rationals),
           b=series_strategy(elements=sparse_rationals),
           c=st.one_of(st.integers(-6, 6), rationals, st.sampled_from([0.5, -0.125, 3.0, 0.0])))
    def test_scalar_operations_match_fraction_oracle(self, a, b, c):
        # one Fraction operation per coefficient is the oracle
        exact = F(c)
        assert (a * c).coeffs == (c * a).coeffs == tuple(v * exact for v in a.coeffs)
        assert (a - b).coeffs == tuple(u - v for u, v in zip(a.coeffs, b.coeffs))
        assert (a - c).coeffs == (a.coeffs[0] - exact,) + a.coeffs[1:]
        assert (c - a).coeffs == (exact - a.coeffs[0],) + tuple(-v for v in a.coeffs[1:])
        if exact == 0:
            with pytest.raises(ZeroDivisionError):
                a / c
        else:
            assert (a / c).coeffs == tuple(v / exact for v in a.coeffs)
        assert all(type(v) is F for v in (a * c).coeffs)


class TestComposition:
    def test_identity_composition(self):
        f = RS.from_coeffs([2, 3, 5, 7])
        x = RS.identity(3)
        assert f.compose(x).coeffs == f.coeffs

    def test_substitute_square(self):
        geo = RS.constant(1, 6) / RS.from_coeffs([1, -1] + [0] * 5)
        sq = RS.from_coeffs([0, 0, 1, 0, 0, 0, 0])
        got = geo.compose(sq)
        assert got.coeffs == (F(1), F(0), F(1), F(0), F(1), F(0), F(1))

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), order=deep_orders)
    def test_matches_horner_oracle(self, data, order):
        f = data.draw(series_strategy(order, elements=sparse_rationals))
        g = data.draw(series_strategy(order, elements=sparse_rationals))
        g = RS.from_coeffs((F(0),) + g.coeffs[1:], var=g.var)
        got = f.compose(g).coeffs
        want = horner_oracle(f.coeffs, g.coeffs, order)
        assert list(got) == want

    def test_product_count_is_sublinear(self, monkeypatch):
        order = 400
        f = RS.from_coeffs([1] * (order + 1))
        g = RS.from_coeffs([0, 1, 1] + [0] * (order - 2))
        counter = CountProducts(monkeypatch)
        f.compose(g)
        assert counter.calls <= 2 * math.ceil(math.sqrt(order + 1)) + 2

    def test_nonzero_constant_rejected(self):
        with pytest.raises(ValueError):
            RS.from_coeffs([1, 1]).compose(RS.from_coeffs([1, 1]))


class TestReversion:
    def test_identity(self):
        x = RS.identity(5)
        assert x.revert().coeffs == x.coeffs

    def test_known_coefficients(self):
        f = RS.from_coeffs([0, 1, 1, 0, 0, 0])
        assert f.revert().coeffs == (F(0), F(1), F(-1), F(2), F(-5), F(14))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), order=deep_orders)
    def test_round_trip_and_lagrange(self, data, order):
        f = data.draw(series_strategy(order, elements=sparse_rationals))
        coeffs = (F(0), F(1) if f.coeffs[1] == 0 else f.coeffs[1]) + f.coeffs[2:]
        f = RS.from_coeffs(coeffs, var=f.var)
        g = f.revert()
        assert f.compose(g).coeffs == RS.identity(order).coeffs
        assert g.compose(f).coeffs == RS.identity(order).coeffs
        assert g.revert().coeffs == f.coeffs
        assert list(g.coeffs) == lagrange_revert_oracle(f.coeffs, order)

    def test_product_count_is_sublinear(self, monkeypatch):
        # Lagrange inversion with one product per power would make 399
        order = 400
        f = RS.from_coeffs([0, 1, 1] + [0] * (order - 2))
        counter = CountProducts(monkeypatch)
        f.revert()
        assert counter.calls <= 2 * math.ceil(math.sqrt(order + 1)) + 2

    def test_preconditions(self):
        with pytest.raises(ValueError):
            RS.from_coeffs([1, 1]).revert()
        with pytest.raises(ValueError):
            RS.from_coeffs([0, 0, 1]).revert()


class TestDerivative:
    def test_constant(self):
        assert RS.constant(5, 3).derivative().coeffs == (F(0), F(0), F(0))

    def test_cube(self):
        s = RS.from_coeffs([0, 0, 0, 1])
        assert s.derivative().coeffs == (F(0), F(0), F(3))

    @settings(max_examples=30, deadline=None)
    @given(f=series_strategy(), g=series_strategy())
    def test_leibniz_rule(self, f, g):
        lhs = (f * g).derivative()
        rhs = f.derivative() * g.truncate(5) + f.truncate(5) * g.derivative()
        assert lhs.coeffs == rhs.coeffs

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError):
            RS.constant(1, 0).derivative()


class TestProducts:
    def test_quadratic_rate_pattern(self):
        s = product_series(((1, 1, 0, 1), (-1, 1, 0, -1)), 2, 6)
        assert s.coeffs[:3] == (F(1), F(4), F(12))

    def test_empty_factor_list(self):
        s = product_series((), 1, 4)
        assert s.coeffs == (F(1), F(0), F(0), F(0), F(0))

    def test_energy_pattern_positive_integers(self):
        s = product_series(((1, 2, 0, 1), (-1, 2, -1, -1)), 8, 29).shift()
        assert s.coeffs[1] == 1
        assert all(c.denominator == 1 and c > 0 for c in s.coeffs[1:])

    def test_against_naive_factor_expansion(self):
        order = 18
        got = product_series(((1, 2, 0, 1), (-1, 2, -1, -1)), 8, order)
        # naive: expand each binomial power as an explicit list, convolve
        acc = [F(1)] + [F(0)] * order
        for rep in range(8):
            n = 1
            while 2 * n <= order:
                acc = conv_oracle(acc, [F(1)] + [F(0)] * (2 * n - 1) + [F(1)], order)
                n += 1
            n = 1
            while 2 * n - 1 <= order:
                e = 2 * n - 1
                geo = [F(0)] * (order + 1)
                for j in range(0, order + 1, e):
                    geo[j] = F(1)
                acc = conv_oracle(acc, geo, order)
                n += 1
        assert list(got.coeffs) == acc

    @settings(max_examples=60, deadline=None)
    @given(
        factors=st.lists(
            st.tuples(
                st.sampled_from((1, -1)),
                st.integers(min_value=1, max_value=3),
                st.integers(min_value=0, max_value=4),
                st.sampled_from((1, -1)),
            ).map(lambda f: (f[0], f[1], f[2] - f[1] + 1, f[3])),   # step + offset >= 1
            max_size=4,
        ),
        power=st.integers(min_value=0, max_value=9),
        order=st.integers(min_value=0, max_value=60),
    )
    def test_matches_binomial_oracle(self, factors, power, order):
        got = product_series(factors, power, order)
        assert got.order == order
        assert list(got.coeffs) == binomial_product_oracle(factors, power, order)

    @pytest.mark.parametrize("power, order, message", [
        (1, -1, "order must be >= 0"),
        (-1, 4, "power must be a nonnegative integer"),
        (1.5, 4, "power must be a nonnegative integer"),
    ])
    def test_invalid_power_or_order(self, power, order, message):
        with pytest.raises(ValueError, match=message):
            product_series(((1, 1, 0, 1),), power, order)

    def test_invalid_descriptor(self):
        with pytest.raises(ValueError):
            product_series(((2, 1, 0, 1),), 1, 4)
        with pytest.raises(ValueError):
            product_series(((1, 1, -1, 1),), 1, 4)


class TestStability:
    def test_higher_order_extends_coefficients(self):
        lo = product_series(((1, 1, 0, 1), (-1, 1, 0, -1)), 2, 10)
        hi = product_series(((1, 1, 0, 1), (-1, 1, 0, -1)), 2, 40)
        assert hi.coeffs[:11] == lo.coeffs

    def test_coeff_beyond_order_rejected(self):
        s = RS.from_coeffs([1, 2, 3])
        with pytest.raises(ValueError):
            s.coeff(3)

    def test_truncate_cannot_extend(self):
        with pytest.raises(ValueError):
            RS.from_coeffs([1, 2]).truncate(5)

    def test_truncate_rejects_negative_order(self):
        with pytest.raises(ValueError):
            RS.from_coeffs([1, 2, 3, 4, 5, 6]).truncate(-2)
        with pytest.raises(ValueError):
            RS.from_coeffs([1, 2]).truncate(-1)

    def test_truncate_keeps_prefix(self):
        s = RS.from_coeffs([1, F(1, 2), 3, -4], var="z")
        for order in range(4):
            t = s.truncate(order)
            assert t == RS.from_coeffs(s.coeffs[: order + 1], var="z")
            assert all(type(c) is F for c in t.coeffs)


class TestConstruction:
    def test_needs_a_constant_coefficient(self):
        with pytest.raises(ValueError, match="at least the constant coefficient"):
            RS(())

    def test_identity_needs_order_one(self):
        assert RS.identity(1).coeffs == (F(0), F(1))
        with pytest.raises(ValueError, match="order >= 1"):
            RS.identity(0)


class TestSerialization:
    def test_json_round_trip_with_big_integers(self):
        huge = F(10**40 + 7, 3**30)
        s = RS.from_coeffs([1, huge, -(10**50)], var="x'")
        back = RS.from_json(s.to_json())
        assert back == s

    def test_json_order_must_match_length(self):
        obj = json.loads(RS.from_coeffs([1, 2, 3]).to_json())
        obj["order"] = 3
        with pytest.raises(ValueError, match="length does not match its order"):
            RS.from_json(json.dumps(obj))

    def test_json_schema(self):
        s = RS.from_coeffs([F(1, 2), 3])
        obj = json.loads(s.to_json())
        assert obj == {"var": "x", "order": 1, "coeffs": [["1", "2"], ["3", "1"]]}

    def test_evaluation(self):
        s = RS.from_coeffs([1, 2, 3])
        assert s(F(1, 2)) == F(1) + F(1) + F(3, 4)
        assert s(0.5) == pytest.approx(2.75)

    def test_evaluation_matches_the_two_branch_horner(self):
        # one Horner loop from the int 0: the exact branch's values for
        # Fraction and int arguments, and the float branch's bits (the pin)
        for s, _, r, n in pins.horner_cases():
            assert (s(r), s(n)) == (_horner_exact(s, r), _horner_exact(s, n))
            assert type(s(n)) is F
        pins.check("rational_series/float_horner")


def _horner_exact(s, x):
    acc = F(0)
    for c in reversed(s.coeffs):
        acc = acc * x + c
    return acc
