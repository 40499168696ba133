"""Closed-form certificate data on the moment curve and the weak majorant bound.

The closed form runs against the cofactor route (two genuinely different
derivations).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from majorant.cvector import build_c, build_v, is_even_exponent, sign_condition
from majorant.errors import DimensionError, DomainError
from majorant import moment_curve
from majorant.lp_engine import EvalConfig
from majorant.moment_curve import (
    c_closed_form,
    factorial_product,
    gamma_point,
    smallest_admissible_k,
    vandermonde_check,
    weak_majorant_bound,
    weak_majorant_ratio,
)


class TestGammaPoint:
    def test_powers(self):
        assert gamma_point(3, 2) == (2, 4, 8)
        assert gamma_point(1, -3) == (-3,)

    def test_dimension_guard(self):
        with pytest.raises(DimensionError):
            gamma_point(0, 1)


class TestClosedForm:
    def test_frozen_small_cases(self):
        assert c_closed_form(2, 1).c == (3, -3, 1)
        assert c_closed_form(2, 2).c == (6, -8, 3)
        assert c_closed_form(1, 1).c == (2, -1)
        assert c_closed_form(1, 5).c == (6, -5)

    def test_scale_is_factorial_product(self):
        assert factorial_product(3) == 12
        assert c_closed_form(3, 4).d_gcd == 12

    def test_factorial_product_values(self):
        assert [factorial_product(d) for d in range(1, 7)] == [1, 2, 12, 288, 34560, 24883200]
        for d in range(1, 7):
            assert c_closed_form(d, 3).d_gcd == factorial_product(d)

    @given(d=st.integers(1, 7), k=st.integers(1, 40))
    @settings(max_examples=120)
    def test_matches_rising_and_falling_products(self, d, k):
        # c_i = (-1)^i [k (k+1) ... (k+i-1) / i!] [(k+i+1) ... (k+d) / (d-i)!]
        expected = []
        for i in range(d + 1):
            rising, r = divmod(prod(range(k, k + i)), factorial(i))
            falling, f = divmod(prod(range(k + i + 1, k + d + 1)), factorial(d - i))
            assert r == f == 0
            expected.append((-1) ** i * rising * falling)
        assert c_closed_form(d, k).c == tuple(expected)

    @given(d=st.integers(1, 4), k=st.integers(1, 12))
    @settings(max_examples=80)
    def test_matches_cofactor_route(self, d, k):
        closed = c_closed_form(d, k)
        points = tuple(gamma_point(d, k + i) for i in range(d + 1))
        assert closed == build_c(build_v(points))

    @given(d=st.integers(1, 5), k=st.integers(1, 20))
    @settings(max_examples=120)
    def test_entry_identities(self, d, k):
        cv = c_closed_form(d, k)
        assert sum(cv.c) == 1
        assert sum(abs(x) for x in cv.c) % 2 == 1
        assert min(abs(x) for x in cv.c) * factorial(d) ** 2 >= k**d

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            c_closed_form(2, 0)
        with pytest.raises(DimensionError):
            c_closed_form(0, 1)


class TestSmallestAdmissibleK:
    def test_desk_instance(self):
        k, cv = smallest_admissible_k(2, 3)
        assert k == 2
        assert cv.c == (6, -8, 3)
        # k = 1 fails because its smallest entry is 1 <= 3/2
        assert min(abs(x) for x in c_closed_form(2, 1).c) == 1

    def test_small_exponent_accepts_first_offset(self):
        k, _ = smallest_admissible_k(2, 0.5)
        assert k == 1

    def test_grows_with_exponent(self):
        k_small, _ = smallest_admissible_k(2, 3)
        k_large, cv = smallest_admissible_k(2, 9.5)
        assert k_large > k_small
        assert all(2 * abs(x) > 9.5 for x in cv.c)

    def test_invalid_exponent(self):
        with pytest.raises(DomainError):
            smallest_admissible_k(2, 0)

    @given(
        d=st.integers(1, 6),
        p=st.one_of(
            st.fractions(Fraction(1, 8), 60, max_denominator=8),
            st.floats(1 / 64, 60, allow_nan=False, allow_infinity=False),
        ).filter(lambda p: not is_even_exponent(p)),
    )
    @settings(max_examples=200)
    def test_sign_condition_holds(self, d, p):
        # every |c_i| > p/2 and sum c_i = 1 leave an odd count of negative factors
        _, cv = smallest_admissible_k(d, p)
        assert sign_condition(p, cv)

    def test_least_entry_is_the_last(self):
        # |c_i(k)| = C(k+i-1, i) C(k+d, d-i) is log-concave in i and |c_d| < |c_0|
        for d in range(1, 31):
            for k in range(1, 51):
                assert min(abs(x) for x in c_closed_form(d, k).c) == comb(k + d - 1, d)

    def test_equals_the_all_entries_search(self):
        exponents = [Fraction(1, 3), 0.5, 0.999, 1, 3, 5.5, Fraction(41, 2), 41.5, 99, 123.25]
        for d in range(1, 9):
            for p in exponents:
                k = 1
                while not all(2 * abs(x) > p for x in c_closed_form(d, k).c):
                    k += 1
                assert smallest_admissible_k(d, p) == (k, c_closed_form(d, k))

    def test_one_closed_form_per_call(self, monkeypatch):
        calls = []

        def counted(d, k):
            calls.append(k)
            return c_closed_form(d, k)

        monkeypatch.setattr(moment_curve, "c_closed_form", counted)
        for d, p in [(1, 0.5), (2, 3), (3, 300), (12, 41.5), (41, 7)]:
            calls.clear()
            k, _ = smallest_admissible_k(d, p)
            assert calls == [k]

    @pytest.mark.parametrize("d, p", [(2, 10**15 + 1), (3, Fraction(2 * 10**18 + 1, 2))])
    def test_huge_exponent_is_found_by_bisection(self, time_limit, d, p):
        with time_limit(2):
            k, cv = smallest_admissible_k(d, p)
            assert cv == c_closed_form(d, k)
            assert all(2 * abs(x) > p for x in cv.c)
            assert k == 1 or any(2 * abs(x) <= p for x in c_closed_form(d, k - 1).c)


class TestVandermonde:
    def test_frozen_value(self):
        # det[[1,1,1],[1,2,3],[1,4,9]] = 2 = 2! 1!
        assert vandermonde_check(2, 1)

    @given(d=st.integers(1, 6), k=st.integers(1, 50))
    @settings(max_examples=100)
    def test_holds_everywhere(self, d, k):
        assert vandermonde_check(d, k)


class TestWeakMajorant:
    def test_equal_coefficients_give_ratio_one(self):
        ratio = weak_majorant_ratio(2, 2, (0.5, 0.5), (0.5, 0.5), (1, 2))
        assert ratio == pytest.approx(1.0, abs=1e-9)

    def test_bound_constant(self):
        assert weak_majorant_bound(2) == pytest.approx(2**0.25)
        assert weak_majorant_bound(1) == pytest.approx(1.0)

    def test_sign_flips_stay_below_bound(self):
        big = (0.9, 0.7, 0.5, 0.3, 0.2)
        small = (0.9, -0.7, 0.5, -0.3, 0.2)
        for p in (2, 3, 4):
            r = weak_majorant_ratio(2, p, small, big, (1, 2, 3, 4, 5))
            assert r <= weak_majorant_bound(2) + 1e-9

    def test_exponent_range_enforced(self):
        with pytest.raises(DomainError):
            weak_majorant_ratio(2, 1.5, (0.5,), (0.5,), (1,))
        with pytest.raises(DomainError):
            weak_majorant_ratio(2, 4.5, (0.5,), (0.5,), (1,))

    def test_domination_enforced(self):
        with pytest.raises(DomainError):
            weak_majorant_ratio(2, 2, (0.6,), (0.5,), (1,))

    def test_support_must_be_distinct(self):
        with pytest.raises(DomainError):
            weak_majorant_ratio(2, 2, (0.5, 0.5), (0.5, 0.5), (3, 3))

    def test_seven_point_support_is_accepted(self):
        # only the quadrature's point budget limits the support: at p = 2 the
        # ratio is 1 by Parseval, and at p = 4 it is within the bound
        signs = (0.5, -0.5, 0.5, 0.5, -0.5, 0.5, -0.5)
        support = tuple(range(1, 8))
        assert weak_majorant_ratio(2, 2, signs, (0.5,) * 7, support) == pytest.approx(1.0)
        assert weak_majorant_ratio(2, 4, signs, (0.5,) * 7, support) <= weak_majorant_bound(2)

    @pytest.mark.parametrize("t", [1e200, 1e-200])
    def test_ratio_ignores_a_common_scale(self, t):
        # unscaled, the norm powers overflow to nan at 1e200 and underflow to 0 / 0 at 1e-200
        big, small = (0.9, 0.7, 0.5, 0.3, 0.2), (0.9, 0.7, 0.5, 0.3, -0.2)
        support = (1, 2, 3, 4, 5)
        unit = weak_majorant_ratio(2, 3, small, big, support)
        scaled = weak_majorant_ratio(2, 3, [t * x for x in small], [t * x for x in big], support)
        assert unit > 1
        assert scaled == pytest.approx(unit, rel=1e-12)

    def test_all_zero_majorant_rejected(self):
        with pytest.raises(DomainError):
            weak_majorant_ratio(2, 2, (0.0,), (0.0,), (1,))

    def test_majorant_beyond_float_range_rejected(self):
        with pytest.raises(DomainError):
            weak_majorant_ratio(2, 2, (1, 1), (10**400, 1), (1, 2))
