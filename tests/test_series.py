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


def div_oracle(a, b, order):
    """The quotient recurrence q[m] = (a[m] - sum_j b[j] q[m-j]) / b[0]."""
    q = []
    for m in range(order + 1):
        q.append((a[m] - sum(b[j] * q[m - j] for j in range(1, m + 1))) / b[0])
    return q


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


# coefficients over denominators 2..7, most of them not integers
fractional = st.builds(F, st.integers(-30, 30), st.integers(2, 7))


def series_strategy(order=6, var="x", elements=rationals):
    return st.lists(elements, min_size=order + 1, max_size=order + 1).map(
        lambda cs: RS.from_coeffs(cs, var=var)
    )


def fractional_lists(order):
    """Coefficient lists, at least one of them not an integer."""
    return st.lists(st.one_of(st.just(F(0)), rationals, fractional),
                    min_size=order + 1, max_size=order + 1).filter(
        lambda cs: any(c.denominator > 1 for c in cs))


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


class TestStorage:
    """Each operation against the plain Fraction-list oracle, on series whose
    coefficients are not all integers: the result has the oracle's
    coefficients, and equals (with the same hash) the series built directly
    from them, so its stored denominator is the reduced one."""

    @staticmethod
    def same(got, want, var="x"):
        built = RS.from_coeffs(want, var=var)
        assert list(got.coeffs) == list(want) and all(type(c) is F for c in got.coeffs)
        assert got == built and hash(got) == hash(built)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), order=st.integers(0, 12),
           c=st.one_of(st.integers(-6, 6), rationals, fractional))
    def test_ring_operations(self, data, order, c):
        a, b = data.draw(fractional_lists(order)), data.draw(fractional_lists(order))
        sa, sb = RS.from_coeffs(a), RS.from_coeffs(b)
        self.same(sa + sb, [u + v for u, v in zip(a, b)])
        self.same(sa - sb, [u - v for u, v in zip(a, b)])
        self.same(sa + c, [a[0] + c] + a[1:])
        self.same(c - sa, [c - a[0]] + [-v for v in a[1:]])
        self.same(-sa, [-v for v in a])
        self.same(sa * c, [v * c for v in a])
        self.same(sa * sb, conv_oracle(a, b, order))
        if c != 0:
            self.same(sa / c, [v / F(c) for v in a])
        if b[0] != 0:
            self.same(sa / sb, div_oracle(a, b, order))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), order=st.integers(1, 16), x=rationals)
    def test_calculus_and_evaluation(self, data, order, x):
        a = data.draw(fractional_lists(order))
        s = RS.from_coeffs(a, var="z")
        self.same(s.derivative(), [n * v for n, v in enumerate(a)][1:], "z")
        self.same(s.shift(), [F(0)] + a, "z")
        self.same(s.alternate(), [(-1) ** n * v for n, v in enumerate(a)], "z")
        self.same(s.alternate("w"), [(-1) ** n * v for n, v in enumerate(a)], "w")
        for k in range(order + 1):
            self.same(s.truncate(k), a[: k + 1], "z")
        assert s(x) == sum(v * x**n for n, v in enumerate(a)) and type(s(x)) is F

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), order=st.integers(1, 12))
    def test_compose_and_revert(self, data, order):
        f = data.draw(fractional_lists(order))
        g = [F(0)] + data.draw(fractional_lists(order))[1:]
        self.same(RS.from_coeffs(f).compose(RS.from_coeffs(g)), horner_oracle(f, g, order))
        if g[1] != 0:
            self.same(RS.from_coeffs(g).revert(), lagrange_revert_oracle(g, order))

    @settings(max_examples=40, deadline=None)
    @given(cs=st.lists(st.integers(-10**30, 10**30), min_size=1, max_size=30),
           var=st.sampled_from(["x", "x'"]))
    def test_ints_and_fractions_build_one_series(self, cs, var):
        ints, fracs = RS.from_coeffs(cs, var=var), RS.from_coeffs(map(F, cs), var=var)
        assert ints == fracs and hash(ints) == hash(fracs)
        assert ints.coeffs == fracs.coeffs and repr(ints) == repr(fracs)
        assert RS.from_coeffs(cs, var=var + "'") != ints

    def test_truncation_reduces_its_denominator(self):
        s = RS.from_coeffs([1, F(1, 2), F(5, 3)])
        for t, kept in ((s.truncate(1), [1, F(1, 2)]), (s.truncate(0), [1]),
                        ((s * 6).truncate(1), [6, 3])):
            assert t == RS.from_coeffs(kept) and hash(t) == hash(RS.from_coeffs(kept))
            assert t.coeffs == tuple(map(F, kept))
        assert (s - s) == RS.constant(0, 2) and hash(s - s) == hash(RS.constant(0, 2))

    def test_repr_and_immutability(self):
        s = RS.from_coeffs([1, F(-1, 2)], var="q")
        assert repr(s) == "RationalSeries(coeffs=(Fraction(1, 1), Fraction(-1, 2)), var='q')"
        for name, value in (("coeffs", (F(2),)), ("var", "x"), ("order", 3), ("extra", 1)):
            with pytest.raises(AttributeError):
                setattr(s, name, value)
        with pytest.raises(AttributeError):
            del s.var
        assert s == RS.from_coeffs([1, F(-1, 2)], var="q")


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

    @settings(max_examples=40, deadline=None)
    @given(low=st.integers(0, 50), extra=st.integers(1, 50), shift=st.integers(0, 2),
           power=st.integers(0, 9))
    def test_prefix_continues_the_same_product(self, low, extra, shift, power):
        factors = ((1, 2, 0, 1), (-1, 2, -1, -1))
        low, high = low + shift, low + shift + extra
        direct = product_series(factors, power, high, shift=shift)
        stored = product_series(factors, power, low, shift=shift)
        assert product_series(factors, power, high, shift=shift, prefix=stored) == direct
        unshifted = product_series(factors, power, high - shift)
        for _ in range(shift):
            unshifted = unshifted.shift()
        assert direct == unshifted

    def test_shift_beyond_order_rejected(self):
        with pytest.raises(ValueError, match="order must be >= 0 and >= shift"):
            product_series(((1, 1, 0, 1),), 1, 2, shift=3)

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

    @pytest.mark.parametrize("order", [-1, -3])
    def test_constant_rejects_negative_order(self, order):
        with pytest.raises(ValueError, match=f"order >= 0, got {order}"):
            RS.constant(5, order)

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

    @pytest.mark.parametrize("field", ["var", "order", "coeffs"])
    def test_json_missing_field_is_named(self, field):
        obj = json.loads(RS.from_coeffs([1, 2]).to_json())
        del obj[field]
        with pytest.raises(ValueError, match=f"no '{field}' field"):
            RS.from_json(json.dumps(obj))

    def test_json_zero_denominator_is_named(self):
        obj = json.loads(RS.from_coeffs([1, 2, 3]).to_json())
        obj["coeffs"][2] = ["1", "0"]
        with pytest.raises(ValueError, match="coefficient 2 of the JSON series has denominator 0"):
            RS.from_json(json.dumps(obj))

    @pytest.mark.parametrize("field, value, message", [
        ("order", "1", r"^the JSON series' 'order' must be an integer >= 0, got '1'$"),
        ("order", True, r"^the JSON series' 'order' must be an integer >= 0, got True$"),
        ("var", 3, r"^the JSON series' 'var' must be a string, got 3$"),
        ("coeffs", {"0": ["1", "1"]}, r"^the JSON series' 'coeffs' must be a list"),
    ])
    def test_json_bad_field_is_named(self, field, value, message):
        obj = json.loads(RS.from_coeffs([1, 2]).to_json())
        obj[field] = value
        with pytest.raises(ValueError, match=message):
            RS.from_json(json.dumps(obj))

    @pytest.mark.parametrize("pair, message", [
        (["1", "1", "3"], r"^coefficient 1 of the JSON series is not a \[numerator, denominator\] pair"),
        ("2", r"^coefficient 1 of the JSON series is not a \[numerator, denominator\] pair"),
        (["1", 2.5], r"^coefficient 1 of the JSON series is not a \[numerator, denominator\] pair"),
        (["a", "1"], r"^coefficient 1 of the JSON series is not a pair of integers: \['a', '1'\]$"),
    ])
    def test_json_bad_coefficient_is_named(self, pair, message):
        obj = json.loads(RS.from_coeffs([1, 2, 3]).to_json())
        obj["coeffs"][1] = pair
        with pytest.raises(ValueError, match=message):
            RS.from_json(json.dumps(obj))

    def test_json_top_level_must_be_an_object(self):
        with pytest.raises(ValueError, match=r"^a JSON series is an object, got list$"):
            RS.from_json("[1, 2]")

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
