"""Certificate vectors, generalized binomials, and exponent intervals.

The null-vector identities are checked against exact dot products and
lifted determinants; binomial values against hand-reduced fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, comb, factorial, inf, log2

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from majorant.cvector import (
    OpenInterval,
    build_c,
    build_v,
    gen_binom,
    is_even_exponent,
    log2_leading_term,
    multinomial,
    p_interval,
    sign_condition,
)
from majorant.errors import DimensionError, DomainError, HypothesisError
from majorant.exact_lattice import det_exact, lifted_matrix, rank_exact


class TestMultinomial:
    def test_known_values(self):
        assert multinomial((2, 1)) == 3
        assert multinomial((6, 0, 3)) == comb(9, 3)
        assert multinomial(()) == 1
        assert multinomial((0, 0)) == 1

    @given(entries=st.lists(st.integers(0, 6), min_size=1, max_size=4))
    def test_factorial_ratio(self, entries):
        total = sum(entries)
        expected = factorial(total)
        for x in entries:
            expected //= factorial(x)
        assert multinomial(tuple(entries)) == expected

    def test_negative_entry_rejected(self):
        with pytest.raises(DomainError):
            multinomial((1, -1))


INDEPENDENT_TUPLES = st.integers(1, 3).flatmap(
    lambda d: st.lists(
        st.tuples(*[st.integers(-6, 6)] * d).map(tuple),
        min_size=d + 1,
        max_size=d + 1,
        unique=True,
    )
)


class TestBuildV:
    def test_one_dim_pair(self):
        assert build_v(((1,), (2,))) == (2, -1)

    def test_moment_triple(self):
        assert build_v(((1, 1), (2, 4), (3, 9))) == (6, -6, 2)

    def test_wrong_count_rejected(self):
        with pytest.raises(DimensionError):
            build_v(((1, 0), (0, 1)))

    @given(freqs=INDEPENDENT_TUPLES)
    @settings(max_examples=150)
    def test_orthogonality_and_sum(self, freqs):
        freqs = tuple(freqs)
        d = len(freqs[0])
        v = build_v(freqs)
        # v annihilates the frequency tuple coordinate-wise
        for axis in range(d):
            assert sum(vi * f[axis] for vi, f in zip(v, freqs)) == 0
        # and its total is the lifted determinant
        assert sum(v) == det_exact(lifted_matrix(freqs))


class TestBuildC:
    def test_primitive_and_parts(self):
        cv = build_c((6, -6, 2))
        assert cv.d_gcd == 2
        assert cv.c == (3, -3, 1)
        assert cv.c_plus == (3, 0, 1)
        assert cv.c_minus == (0, 3, 0)
        assert cv.m_plus == 4
        assert cv.m_minus == 3
        assert cv.total_order == 7

    def test_zero_vector_rejected(self):
        with pytest.raises(HypothesisError):
            build_c((0, 0, 0))

    @given(
        v=st.lists(st.integers(-40, 40), min_size=2, max_size=5).filter(
            lambda xs: any(x != 0 for x in xs)
        )
    )
    def test_structure_invariants(self, v):
        cv = build_c(tuple(v))
        from math import gcd

        g = 0
        for x in cv.c:
            g = gcd(g, x)
        assert g == 1
        assert tuple(p - m for p, m in zip(cv.c_plus, cv.c_minus)) == cv.c
        assert all(p == 0 or m == 0 for p, m in zip(cv.c_plus, cv.c_minus))
        assert cv.m_plus == max(sum(cv.c_plus), sum(cv.c_minus))
        assert cv.m_minus == min(sum(cv.c_plus), sum(cv.c_minus))
        assert tuple(x * cv.d_gcd for x in cv.c) == cv.v


class TestGenBinom:
    def test_hand_values(self):
        assert gen_binom(4, 1) == 2
        assert gen_binom(4, 3) == 0
        assert gen_binom(Fraction(1), 1) == Fraction(1, 2)
        assert gen_binom(Fraction(1), 2) == Fraction(-1, 8)
        assert gen_binom(Fraction(3), 0) == 1

    def test_float_in_float_out(self):
        out = gen_binom(1.0, 2)
        assert isinstance(out, float)
        assert out == -0.125

    def test_rational_in_fraction_out(self):
        assert isinstance(gen_binom(Fraction(3, 2), 4), Fraction)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            gen_binom(0, 1)
        with pytest.raises(DomainError):
            gen_binom(2, -1)

    @given(
        p_num=st.integers(1, 40),
        p_den=st.integers(1, 8),
        j=st.integers(0, 30),
    )
    @settings(max_examples=200)
    def test_sign_pattern(self, p_num, p_den, j):
        p = Fraction(p_num, p_den)
        value = gen_binom(p, j)
        half_up = ceil(p / 2)
        if j <= p / 2:
            assert value > 0
        elif is_even_exponent(p):
            assert value == 0
        else:
            assert value != 0
            expected_sign = (-1) ** (j - half_up)
            assert (value > 0) == (expected_sign > 0)

    def test_even_exponent_vanishes_beyond_half(self):
        for j in range(3, 10):
            assert gen_binom(4, j) == 0


class TestSignCondition:
    def test_classical_case(self):
        cv = build_c((2, -1))
        assert sign_condition(1, cv)
        assert sign_condition(Fraction(1, 2), cv)

    def test_even_exponent_rejected(self):
        cv = build_c((2, -1))
        with pytest.raises(DomainError):
            sign_condition(2, cv)
        with pytest.raises(DomainError):
            sign_condition(4.0, cv)

    def test_moment_instance(self):
        cv = build_c((12, -16, 6))
        assert cv.c == (6, -8, 3)
        assert sign_condition(3, cv)

    def test_outside_interval_flips(self):
        # For c = (2, -1) the favorable range is (0, 2); above it the
        # product of binomial signs no longer certifies.
        cv = build_c((2, -1))
        assert not sign_condition(3, cv)

    @given(
        v=st.lists(st.integers(-9, 9), min_size=2, max_size=4).filter(any),
        p=st.fractions(Fraction(1, 8), 30).filter(lambda q: not is_even_exponent(q)),
    )
    @settings(max_examples=200)
    def test_agrees_with_the_exact_product(self, v, p):
        cv = build_c(tuple(v))
        product = gen_binom(p, cv.m_minus) * gen_binom(p, cv.m_plus)
        assert sign_condition(p, cv) == (-product > 0)

    def test_huge_entries_are_decided_by_counting(self, time_limit):
        # At p = 3, (3/2 choose j) has j - 2 negative factors for j >= 2, so
        # the condition holds exactly when |c+| and |c-| differ in parity.
        with time_limit(2):
            assert sign_condition(3, build_c((10**12, 1 - 10**12)))
            assert not sign_condition(3, build_c((10**12 + 1, 1 - 10**12)))


def exact_main_term(p, cv, a):
    """-2 C(p/2,|c-|) C(p/2,|c+|) multinom(c-) multinom(c+) (|a^|c|| - a^|c|), in Fraction."""
    a_pow = Fraction(1)
    for x, e in zip(a, (x + y for x, y in zip(cv.c_plus, cv.c_minus))):
        a_pow *= Fraction(x) ** e
    q = Fraction(p)
    coef = -2 * gen_binom(q, sum(cv.c_minus)) * gen_binom(q, sum(cv.c_plus))
    return coef * multinomial(cv.c_minus) * multinomial(cv.c_plus) * (abs(a_pow) - a_pow)


def assert_log2_of_exact(p, cv, a):
    exact = exact_main_term(p, cv, a)
    got = log2_leading_term(p, cv, a)
    if exact > 0:
        want = log2(exact.numerator) - log2(exact.denominator)
        assert got == pytest.approx(want, abs=1e-9)
    else:
        assert got == -inf


class TestLog2LeadingTerm:
    @given(
        v=st.lists(st.integers(-40, 40), min_size=2, max_size=5).filter(any),
        p=st.fractions(Fraction(1, 8), 90).filter(lambda q: not is_even_exponent(q)),
        flip=st.integers(0, 4),
        magnitude=st.sampled_from([0.25, 0.125, 0.3]),
    )
    @settings(max_examples=300)
    # p/2 - 46 + 1 = 4.3e-5: in float arithmetic log2 was off by 1.1e-9
    @example(v=[0, 1, -6, -40], p=Fraction(29925088, 332501), flip=1, magnitude=0.25)
    def test_log2_of_the_exact_term(self, v, p, flip, magnitude):
        cv = build_c(tuple(v))
        a = [magnitude] * len(v)
        a[flip % len(v)] = -magnitude
        assert_log2_of_exact(p, cv, a)

    @pytest.mark.parametrize(
        "p, freqs, a",
        [
            # all signs positive: the term is 0
            (1, ((1,), (2,)), (0.1, 0.1)),
            # (1200 choose 600) alone exceeds float range: the term is positive
            # at p = 1 and negative at p = 3
            (1, ((1, 0), (0, 1), (600, 600)), (0.25, 0.25, -0.25)),
            (3, ((1, 0), (0, 1), (600, 600)), (0.25, 0.25, -0.25)),
        ],
    )
    def test_explicit_inputs(self, p, freqs, a):
        assert_log2_of_exact(p, build_c(build_v(freqs)), a)

    def test_hand_value(self):
        # c = (2, -1), p = 1: the coefficient is 1/8 and |a^|c|| - a^|c| = 2 * 0.25^3
        assert log2_leading_term(1, build_c((2, -1)), (0.25, -0.25)) == pytest.approx(-8)

    def test_even_exponent_and_positive_signs_give_minus_inf(self):
        cv = build_c((2, -1))
        assert log2_leading_term(2, cv, (0.25, -0.25)) == -inf
        assert log2_leading_term(4.0, cv, (0.25, -0.25)) == -inf
        assert log2_leading_term(1, cv, (0.25, 0.25)) == -inf
        assert log2_leading_term(3, cv, (0.25, -0.25)) == -inf  # sign condition fails

    def test_huge_entries_take_constant_time(self, time_limit):
        cv = build_c((10**12 + 1, -(10**12)))
        with time_limit(2):
            lead = log2_leading_term(1.5, cv, (-0.25, 0.25))
        # about (2 * 10^12) * log2(1/4) = -4e12, far below any float margin
        assert -4.1e12 < lead < -3.9e12


class TestPInterval:
    def test_classical(self):
        assert p_interval(build_c((2, -1))) == OpenInterval(0, 2)

    def test_moment_walk_instance(self):
        cv = build_c((2, 6, -6))
        assert p_interval(cv) == OpenInterval(2 * cv.m_plus - 4, 2 * cv.m_plus - 2)

    def test_balanced_parts_rejected(self):
        with pytest.raises(HypothesisError):
            p_interval(build_c((1, -1)))

    def test_tiny_m_plus_rejected(self):
        with pytest.raises(HypothesisError):
            p_interval(build_c((1,)))

    @given(v=st.lists(st.integers(-30, 30), min_size=2, max_size=5))
    @settings(max_examples=200)
    def test_no_even_integer_strictly_inside(self, v):
        if all(x == 0 for x in v):
            return
        cv = build_c(tuple(v))
        if cv.m_plus < 2 or cv.m_plus == cv.m_minus:
            return
        lo, hi = p_interval(cv)
        assert hi - lo == 2
        for even in range(0, hi + 2, 2):
            assert not lo < even < hi

    def test_contains(self):
        iv = OpenInterval(0, 2)
        assert iv.contains(1.0)
        assert not iv.contains(0)
        assert not iv.contains(2)


class TestOddEntryExists:
    @given(
        v=st.lists(st.integers(-50, 50), min_size=2, max_size=6).filter(
            lambda xs: any(x != 0 for x in xs)
        )
    )
    def test_primitive_vector_has_odd_entry(self, v):
        # The sign-flip construction needs one; primitivity guarantees it.
        cv = build_c(tuple(v))
        assert any(x % 2 != 0 for x in cv.c)
