from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from supertrace.exactnum import (
    HSeries,
    SeriesValuationError,
    q_bracket,
    q_power,
    rat_str,
)

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)
nonzero_rationals = rationals.filter(lambda x: x != 0)


def hs(*coeffs) -> HSeries:
    return HSeries.from_coeffs([F(c) for c in coeffs])


class TestRationals:
    def test_add(self):
        assert F(1, 2) + F(1, 3) == F(5, 6)

    def test_sub_self(self):
        assert F(2, 3) - F(2, 3) == 0

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            F(5, 48) / 0

    def test_rat_str(self):
        assert rat_str(F(-5, 48)) == "-5/48"
        assert rat_str(F(4, 2)) == "2"
        assert rat_str(-3) == "-3"

    @pytest.mark.parametrize("x", [0.1, 2.0, Decimal("0.5"), "1/2"])
    def test_rat_str_refuses_an_inexact_value(self, x):
        with pytest.raises(TypeError, match="not an exact rational"):
            rat_str(x)

    @given(rationals, rationals, rationals)
    def test_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)

    @given(nonzero_rationals, nonzero_rationals)
    def test_division_inverts(self, a, b):
        assert (a / b) * b == a


class TestQPower:
    def test_zero_exponent(self):
        assert q_power(0, 4) == hs(1, 0, 0, 0, 0)

    def test_exp_h(self):
        # q^2 = e^h
        assert q_power(2, 2) == hs(1, 1, F(1, 2))

    def test_two_sinh(self):
        assert q_bracket(1, 3) == hs(0, 1, 0, F(1, 24))

    @given(rationals, rationals)
    def test_additivity(self, z1, z2):
        order = 5
        assert q_power(z1, order) * q_power(z2, order) == q_power(z1 + z2, order)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            q_power(1, -1)


INEXACT = [0.1, 0.5, Decimal("0.5"), 1j]


class TestInexactRefused:
    @pytest.mark.parametrize("x", INEXACT, ids=repr)
    def test_series_and_exponent_refuse_inexact_values(self, x):
        for build in (lambda: HSeries(1, (1, x)), lambda: HSeries.from_coeffs([x]),
                      lambda: HSeries.constant(x, 2), lambda: hs(1, 2) * x,
                      lambda: q_power(x, 2), lambda: q_bracket(x, 2)):
            with pytest.raises(TypeError):
                build()

    def test_exact_values_still_work(self):
        assert HSeries(1, (1, F(1, 2))) == hs(1, F(1, 2))
        assert HSeries.constant(F(3, 2), 1) * 2 == hs(3, 0)
        assert q_power(F(1, 2), 1) == hs(1, F(1, 4))


class TestSeries:
    def test_self_division(self):
        a = hs(0, 1, 0, F(1, 24))
        q = a.divide(a)
        assert q == HSeries.from_coeffs([1, 0, 0], order=2)

    def test_quantum_denominator_division(self):
        # The degree-2 valuation cancellation behind the deformed dimension of
        # the smallest typical module: h^2 over the product of two brackets.
        a = HSeries.from_coeffs([0, 0, 1], order=6)
        b = HSeries.from_coeffs([0, 1, 0, F(1, 24)], order=6) * HSeries.from_coeffs(
            [0, 2, 0, F(1, 3)], order=6
        )
        q = a.divide(b)
        assert q.order == 4
        assert q.coeffs[:4] == (F(1, 2), F(0), F(-5, 48), F(0))

    def test_difference_of_squares(self):
        a = HSeries.from_coeffs([1, 1], order=2)
        b = HSeries.from_coeffs([1, -1], order=2)
        assert a * b == hs(1, 0, -1)

    def test_valuation_mismatch_rejected(self):
        a = HSeries.from_coeffs([0, 1], order=4)
        b = HSeries.from_coeffs([0, 0, 1], order=4)
        with pytest.raises(SeriesValuationError):
            a.divide(b)

    def test_zero_divisor_rejected(self):
        a = HSeries.from_coeffs([1], order=3)
        with pytest.raises(ZeroDivisionError):
            a.divide(HSeries.zero(3))

    def test_zero_dividend(self):
        z = HSeries.zero(5).divide(HSeries.from_coeffs([0, 3, 1], order=5))
        assert z == HSeries.zero(4)

    def test_equality_requires_matching_order(self):
        assert HSeries.one(3) != HSeries.one(4)

    @given(st.lists(rationals, min_size=1, max_size=5),
           st.lists(rationals, min_size=1, max_size=5))
    def test_division_roundtrip(self, acs, bcs):
        order = 6
        a = HSeries.from_coeffs(acs, order=order)
        b = HSeries.from_coeffs(bcs, order=order)
        va, vb = a.valuation(), b.valuation()
        if vb is None or (vb != 0 and va != vb):
            return
        q = a.divide(b)
        back = q * b.truncate(q.order)
        assert back.coeffs == a.truncate(back.order).coeffs

    def test_truncating_multiplication(self):
        a = HSeries.from_coeffs([1, 1, 1], order=2)
        b = HSeries.from_coeffs([1, 1], order=1)
        assert (a * b).order == 1
