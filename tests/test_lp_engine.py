"""Norm-power backends: quadrature, exact even-p enumeration, series.

Expected values come from closed forms (|1 + r e(x)|^2 integrates to
1 + r^2, |1 + e(x)| to 4/pi) and from hand-expanded low-order series; the
three backends then cross-check each other on random instances.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import subprocess
import sys
import threading
import time
import warnings
from decimal import Context, Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from majorant.cvector import (
    build_c,
    build_v,
    gen_binom,
    is_even_exponent,
    log2_leading_term,
    multinomial,
)
import majorant
from majorant import lp_engine
from majorant.cli import main as cli_main
from majorant.errors import (
    BudgetError,
    ConvergenceError,
    DimensionError,
    DomainError,
)
from majorant.exact_lattice import IntMatrix, rank_exact
from majorant.lp_engine import (
    ENUM_BUDGET,
    EvalConfig,
    _grid_means,
    _paired_differences,
    g_function,
    lp_norm_even_exact,
    lp_norm_quadrature,
    lp_norm_taylor,
    paired_difference,
)

TIGHT = EvalConfig(backend_agreement_tol=1e-12)


def frequency_lists(max_size):
    """Distinct frequencies in Z or Z^2 with entries in [-3, 3]."""
    return st.integers(1, 2).flatmap(
        lambda d: st.lists(
            st.tuples(*[st.integers(-3, 3)] * d), min_size=1, max_size=max_size, unique=True
        )
    )


def frequency_sum(freqs, beta):
    return tuple(sum(e * f[axis] for e, f in zip(beta, freqs)) for axis in range(len(freqs[0])))


def power(b, beta):
    return math.prod((x**e for x, e in zip(b, beta)), start=Fraction(1))


class TestEvalConfig:
    def test_defaults_valid(self):
        cfg = EvalConfig()
        assert cfg.grid_points_per_axis >= 4
        assert cfg.margin_safety_factor > 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"grid_points_per_axis": 2},
            {"series_total_degree_cutoff": -1},
            {"backend_agreement_tol": 0.0},
            {"margin_safety_factor": 1.0},
            {"grid_points_per_axis": 256.5},
            {"grid_points_per_axis": True},
            {"series_total_degree_cutoff": 1.5},
            {"backend_agreement_tol": "1e-9"},
            {"margin_safety_factor": True},
            {"backend_agreement_tol": math.inf},
            {"backend_agreement_tol": math.nan},
            {"backend_agreement_tol": 10**400},  # an exact integer beyond float range
            {"backend_agreement_tol": Fraction(1, 10**9)},  # eval_config stays plain JSON
            {"margin_safety_factor": math.inf},
            {"margin_safety_factor": math.nan},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(DomainError):
            EvalConfig(**kwargs)


class TestQuadrature:
    def test_pure_tone_any_exponent(self):
        for p in (0.5, 1, 2, 3.7):
            res = lp_norm_quadrature(((3,),), (0.5,), p, TIGHT)
            assert res.value == pytest.approx(0.5**p, abs=1e-12)

    def test_p2_closed_form(self):
        res = lp_norm_quadrature(((0,), (1,)), (1.0, 0.3), 2, TIGHT)
        assert res.value == pytest.approx(1.09, abs=1e-12)

    def test_p1_kink_value(self):
        res = lp_norm_quadrature(((0,), (1,)), (1.0, 1.0), 1, TIGHT)
        assert res.value == pytest.approx(4 / math.pi, abs=1e-8)

    def test_two_dim_product_structure(self):
        # |f(x)| |g(y)| factorizes, so the mean is the product of means.
        fx = lp_norm_quadrature(((1,),), (0.7,), 3, TIGHT).value
        joint = lp_norm_quadrature(((1, 0),), (0.7,), 3, TIGHT).value
        assert joint == pytest.approx(fx, abs=1e-12)

    def test_refinement_reports_grid(self):
        res = lp_norm_quadrature(((0,), (1,)), (1.0, 1.0), 1, EvalConfig())
        assert res.grid_points_per_axis >= 256
        assert res.error_estimate <= 1e-9

    def test_the_point_budget_is_the_only_limit(self, grid_passes):
        # 5-D runs on the 256 grid halved to 16, the largest within 2^22 points
        assert lp_norm_quadrature(((1, 0, 0, 0, 2),), (0.5,), 2, TIGHT) == (0.25, 0.0, 16)
        # 8^8 points exceed the budget: refused before any pass, as out of reach
        with pytest.raises(BudgetError, match="the 8\\^8 grid exceeds the quadrature budget"):
            lp_norm_quadrature(((1, 0, 0, 0, 0, 0, 0, 0),), (0.5,), 2, TIGHT)
        assert grid_passes == [16]  # the 8 grid read from the 16 pass, and no 8-D pass

    @pytest.mark.parametrize("d, grid, start", [(6, 15, 8), (7, 9, 8), (4, 45, 45), (4, 46, 23)])
    def test_start_grid_halves_to_no_fewer_than_eight_points(self, grid_passes, d, grid, start):
        # 15 // 2 would be 7 in 6-D; in 4-D nothing changes: 45^4 fits, 46^4 does not
        freqs = (tuple(range(1, d + 1)),)
        lp_norm_quadrature(freqs, (0.5,), 3, EvalConfig(grid_points_per_axis=grid))
        assert grid_passes[0] == start

    def test_a_small_one_dimensional_start_grid_doubles_to_the_budget(self):
        # |1 + e(x)| has a kink: each step stays above 1e-15, so only the budget ends the ladder
        cfg = EvalConfig(grid_points_per_axis=8, backend_agreement_tol=1e-15)
        res = lp_norm_quadrature(((0,), (1,)), (1.0, 1.0), 1, cfg)
        assert res.grid_points_per_axis == lp_engine.QUAD_POINT_BUDGET
        assert res.value == pytest.approx(4 / math.pi, abs=1e-12)

    def test_rejects_bad_exponent_and_coeffs(self):
        with pytest.raises(DomainError):
            lp_norm_quadrature(((1,),), (0.5,), 0, TIGHT)
        with pytest.raises(DomainError):
            lp_norm_quadrature(((1,),), (complex(0, 1),), 2, TIGHT)
        with pytest.raises(DomainError):
            lp_norm_quadrature(((1,),), (float("nan"),), 2, TIGHT)
        with pytest.raises(DomainError):  # beyond float range, as an exact integer
            lp_norm_quadrature(((1,),), (10**400,), 1, TIGHT)
        with pytest.raises(DimensionError):
            lp_norm_quadrature(((1,), (2,)), (0.5,), 2, TIGHT)

    @pytest.mark.parametrize("d, n", [(5, 6), (5, 8), (6, 4), (6, 5)])
    def test_kernel_matches_full_grid_reference_beyond_four_dimensions(self, d, n):
        rng = random.Random(d * n)
        freqs = sorted({tuple(rng.randint(-9, 9) for _ in range(d)) for _ in range(6)})
        row = [1.0, *(rng.uniform(-1, 1) for _ in freqs[1:])]
        rows = [row, [abs(x) for x in row]]
        for p in (1.0, 3.5):
            got, want = half_grid_means(freqs, rows, p, n), full_grid_means(freqs, rows, p, n)
            assert got == pytest.approx(want, rel=1e-12)

    def test_huge_frequency_reduces_to_its_residue(self):
        # 10^400 + 1 is 1 mod every power-of-two grid; as a float it overflows
        huge = lp_norm_quadrature(((0,), (10**400 + 1,)), (1.0, 0.5), 3, EvalConfig())
        assert huge == lp_norm_quadrature(((0,), (1,)), (1.0, 0.5), 3, EvalConfig())

    @pytest.mark.parametrize("bad", [1.5, 1.9, True, "1"])
    def test_non_integer_frequency_rejected_by_every_backend(self, bad):
        freqs, coeffs = ((0,), (bad,)), (1.0, -0.5)
        backends = [
            lambda: lp_norm_quadrature(freqs, coeffs, 3, EvalConfig()),
            lambda: paired_difference(freqs, coeffs, 3, EvalConfig()),
            lambda: lp_norm_even_exact(freqs, coeffs, 2),
            lambda: lp_norm_taylor(freqs[1:], coeffs[1:], 3, EvalConfig()),
        ]
        for backend in backends:
            with pytest.raises(DomainError, match="exact integer"):
                backend()

    def test_duplicate_frequencies_rejected(self):
        with pytest.raises(DomainError):
            lp_norm_quadrature(((1,), (1,)), (0.5, 0.5), 2, TIGHT)

    @pytest.mark.parametrize("size", [1e-200, 1e200, 5e-324, 1.7e308])
    def test_tiny_and_huge_coefficients_keep_their_size(self, size):
        # unscaled, |sum|^2 underflows to 0 below about 1e-154 and overflows above 1e154
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = lp_norm_quadrature(((3,),), (size,), 1, EvalConfig())
        assert res.value == pytest.approx(size, rel=1e-14)
        assert res.error_estimate <= 1e-14 * size

    def test_scaled_tolerance_and_error(self):
        freqs, row = ((0,), (1,), (3,)), (1.0, 0.5, -0.25)
        unit = lp_norm_quadrature(freqs, row, 1.5, EvalConfig())
        for t in (2.0**-600, 2.0**500):
            res = lp_norm_quadrature(freqs, [t * x for x in row], 1.5, EvalConfig())
            assert res == (unit.value * t**1.5, unit.error_estimate * t**1.5, unit[2])

    def test_unit_led_row_is_not_rescaled(self):
        freqs, row = ((0, 0), (1, 0), (0, 1), (2, 1)), (1.0, 0.25, -0.5, 0.25)
        res = lp_norm_quadrature(freqs, row, 2.5, EvalConfig())
        n = res.grid_points_per_axis
        assert res.value == _grid_means(freqs, [row], n, [2.5])[0][0][0]

    def test_value_beyond_float_range_is_a_budget_error(self, grid_passes):
        with pytest.raises(BudgetError):
            lp_norm_quadrature(((3,),), (1e200,), 2, EvalConfig())
        with warnings.catch_warnings(), pytest.raises(BudgetError):
            warnings.simplefilter("error")  # |sum|^p overflows on the grid: no warning either
            lp_norm_quadrature(((0,), (1,)), (1.0, 1.0), 2000, EvalConfig())
        with pytest.raises(BudgetError):
            paired_difference(((0,), (1,), (2,)), (1.0, 0.5, -0.5), 2000, EvalConfig())
        # refused on the start grid, not after doubling to the point budget
        assert grid_passes == [256] * 3


# the p = 47 member of the pinned moment-curve family (t_start 1): means near 1.28e9
FLOOR_BOUND = ((0, 0), (5, 45), (-1, -3), (1, 5)), (1.0, -0.25, 0.25, 0.25), 47


class TestRoundingFloor:
    """A step within 4 ulps of the largest mean stops the ladder; smaller means never see it."""

    @pytest.mark.parametrize("k", [-20, 20])
    def test_a_power_of_two_rescaling_stops_on_the_same_grid(self, grid_passes, k):
        freqs, row, p = FLOOR_BOUND
        unit = paired_difference(freqs, row, p, EvalConfig())
        res = paired_difference(freqs, [math.ldexp(x, k) for x in row], p, EvalConfig())
        # the step from 256 to 512 is 1 ulp of the sides, 2.4e-7: above the tolerance
        assert grid_passes == [256, 512] * 2
        assert res == tuple(math.ldexp(x, k * p) for x in unit[:4]) + (512,)

    @pytest.mark.parametrize(
        "d, seed, tol, grids",
        [
            # the grids at which the tolerance alone stops each ladder
            (1, 0, 1e-12, [524288, 524288, 65536, 16384]),
            (1, 1, 1e-12, [524288, 524288, 131072, 32768]),
            (1, 2, 1e-12, [131072, 131072, 65536, 16384]),
            (1, 3, 1e-12, [65536, 65536, 32768, 8192]),
            (1, 4, 1e-9, [262144, 65536, 8192, 4096]),
            (1, 5, 1e-9, [32768, 32768, 16384, 4096]),
            (2, 0, 1e-9, [2048, 2048, 2048, 1024]),
            (2, 5, 1e-9, [2048, 2048, 1024, 1024]),
        ],
    )
    def test_small_means_keep_the_tolerance_rule(self, d, seed, tol, grids):
        # means below 60: 4 ulps are under 3e-14, within either tolerance
        freqs, rows = random_case(seed, d)
        cfg = EvalConfig(backend_agreement_tol=tol)
        res = _paired_differences(freqs, rows[0], [1.0, 1.5, 3.0, 5.0], cfg)
        assert [r.grid_points_per_axis for r in res] == grids
        below_budget = [r for r in res if r.grid_points_per_axis**d < lp_engine.QUAD_POINT_BUDGET]
        assert all(r.error_estimate <= tol for r in below_budget)


class TestEvenExact:
    def test_hand_expanded_quartic(self):
        # |1 + a e(x)|^4 integrates to 1 + 4a^2 + a^4.
        a = Fraction(1, 3)
        value = lp_norm_even_exact(((0,), (1,)), (1, a), 2)
        assert value == 1 + 4 * a**2 + a**4

    def test_s1_is_coefficient_energy(self):
        coeffs = (Fraction(1), Fraction(-2, 5), Fraction(3, 7))
        value = lp_norm_even_exact(((0,), (1,), (5,)), coeffs, 1)
        assert value == sum(c**2 for c in coeffs)

    def test_returns_fraction(self):
        assert isinstance(lp_norm_even_exact(((1,),), (Fraction(1, 2),), 2), Fraction)

    def test_agrees_with_quadrature(self):
        freqs = ((0, 0), (1, 0), (0, 1), (2, 1))
        coeffs = (1, Fraction(1, 4), Fraction(-1, 3), Fraction(1, 5))
        exact = lp_norm_even_exact(freqs, coeffs, 3)
        quad = lp_norm_quadrature(freqs, [float(c) for c in coeffs], 6, TIGHT)
        assert quad.value == pytest.approx(float(exact), abs=1e-10)

    @given(
        freqs=frequency_lists(5),
        nums=st.lists(st.integers(-4, 4), min_size=5, max_size=5),
        s=st.integers(1, 3),
    )
    @settings(max_examples=60)
    def test_equals_ordered_tuple_enumeration(self, freqs, nums, s):
        coeffs = [Fraction(x, 3) for x in nums[: len(freqs)]]
        grouped = {}
        for combo in itertools.product(range(len(freqs)), repeat=s):
            total = frequency_sum(freqs, [combo.count(j) for j in range(len(freqs))])
            grouped[total] = grouped.get(total, 0) + math.prod(coeffs[j] for j in combo)
        assert lp_norm_even_exact(freqs, coeffs, s) == sum(t * t for t in grouped.values())

    def test_budget_guard(self, monkeypatch):
        monkeypatch.setattr(lp_engine, "ENUM_BUDGET", 10)  # C(4 + 3, 4) = 35 multi-indices
        with pytest.raises(BudgetError, match="budget of 10"):
            lp_norm_even_exact(((0,), (1,), (2,), (3,)), (1, 1, 1, 1), 3)

    def test_budget_is_not_an_argument(self):
        with pytest.raises(TypeError):
            lp_norm_even_exact(((0,), (1,)), (1, 1), 2, 10)
        with pytest.raises(TypeError):
            lp_norm_even_exact(((0,), (1,)), (1, 1), 2, budget=10)

    def test_invalid_s(self):
        with pytest.raises(DomainError):
            lp_norm_even_exact(((1,),), (1,), 0)

    @given(
        signs=st.lists(st.sampled_from([-1, 1]), min_size=2, max_size=4),
        s=st.integers(1, 3),
    )
    @settings(max_examples=60)
    def test_majorant_dominates_signed(self, signs, s):
        freqs = tuple((k,) for k in range(len(signs)))
        nums = [Fraction(n + 1, 7) for n in range(len(signs))]
        signed = [sg * x for sg, x in zip(signs, nums)]
        assert lp_norm_even_exact(freqs, nums, s) >= lp_norm_even_exact(freqs, signed, s)


# sets with no relation or one: the series sums them over the multiples of the relation
AT_MOST_ONE_RELATION = [
    ((1, 0), (0, 1)),  # none
    tuple(tuple(int(i == j) for j in range(16)) for i in range(16)),  # none, in Z^16
    ((1,), (2,)),  # c = (2, -1)
    ((0, 1), (1, 1), (2, 1)),  # c = (1, -2, 1): affine, P = M
    ((1,), (-1,)),  # c = (1, 1)
    ((0,),),  # the zero frequency alone: c = (1,)
    ((0, 0), (1, 2)),  # c = (1, 0)
    ((1, -2, 3), (0, 3, -1), (2, 2, 1), (-3, 1, 0)),  # c = (17, 29, -22, -9): |c| = 77
]


class TestTaylor:
    def test_hand_expanded_low_order(self):
        # Degree <= 3 pairs for 1 + b0 e(x) + b1 e(2x) at p = 1: the diagonal
        # gives (b0^2 + b1^2)/4 and the single null-direction pair -b0^2 b1 / 8.
        b = (Fraction(1, 5), Fraction(1, 7))
        cfg = EvalConfig(series_total_degree_cutoff=3)
        res = lp_norm_taylor(((1,), (2,)), b, Fraction(1), cfg)
        expected = 1 + (b[0] ** 2 + b[1] ** 2) / 4 - b[0] ** 2 * b[1] / 8
        assert res.value == expected

    def test_even_exponent_terminates_exactly(self):
        b = (Fraction(1, 4), Fraction(-1, 6))
        cfg = EvalConfig(series_total_degree_cutoff=2)
        res = lp_norm_taylor(((1,), (2,)), b, 2, cfg)
        assert res.value == 1 + b[0] ** 2 + b[1] ** 2
        assert res.converged

    def test_even_p_matches_enumeration_on_dependent_tuple(self):
        # Three frequencies in Z: the groups of equal frequency hold pairs
        # beyond the diagonal and the multiples of one relation; p = 4 closes
        # at the cutoff.
        freqs = ((1,), (2,), (3,))
        b = (Fraction(1, 5), Fraction(-1, 6), Fraction(1, 9))
        cfg = EvalConfig(series_total_degree_cutoff=4)
        res = lp_norm_taylor(freqs, b, 4, cfg)
        exact = lp_norm_even_exact(((0,), *freqs), (1, *b), 2)
        assert res.value == exact

    @pytest.mark.parametrize(
        "freqs",
        [
            ((1,), (2,)),
            ((1, 0), (0, 1), (2, 1)),
            ((1,), (2,), (3,)),
            ((1, 1), (2, 4), (3, 9), (1, 0)),
        ],
        ids=["independent-1d", "independent-2d", "dependent-1d", "dependent-2d"],
    )
    @pytest.mark.parametrize("s, extra", [(2, 1), (3, 0), (3, 2)])
    def test_even_p_equals_the_even_backend(self, freqs, s, extra):
        b = [Fraction((-1) ** j, 5 + j) for j in range(len(freqs))]
        cfg = EvalConfig(series_total_degree_cutoff=2 * s + extra)
        res = lp_norm_taylor(freqs, b, 2 * s, cfg)
        assert res == (lp_norm_even_exact(((0,) * len(freqs[0]), *freqs), (1, *b), s), True, 0.0)

    @given(
        freqs=frequency_lists(4),
        nums=st.lists(st.integers(-4, 4), min_size=4, max_size=4),
        p=st.fractions(Fraction(1, 8), 12, max_denominator=16).filter(
            lambda q: not is_even_exponent(q)
        ),
        cutoff=st.integers(0, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_value_and_tail_equal_a_pair_scan(self, freqs, nums, p, cutoff):
        # every (beta, gamma) of total order <= cutoff with equal frequency sums
        b = [Fraction(x, 16) for x in nums[: len(freqs)]]
        orders = itertools.product(range(cutoff + 1), repeat=len(freqs))
        betas = [e for e in orders if sum(e) <= cutoff]
        value, by_degree = Fraction(0), {}
        for beta, gamma in itertools.product(betas, repeat=2):
            degree = sum(beta) + sum(gamma)
            if degree <= cutoff and frequency_sum(freqs, beta) == frequency_sum(freqs, gamma):
                term = math.prod(
                    gen_binom(p, sum(e)) * multinomial(e) * power(b, e) for e in (beta, gamma)
                )
                value += term
                by_degree[degree] = by_degree.get(degree, 0) + abs(term)
        res = lp_norm_taylor(freqs, b, p, EvalConfig(series_total_degree_cutoff=cutoff))
        assert res.value == value and isinstance(res.value, Fraction)
        top = max(by_degree.get(cutoff, 0), by_degree.get(cutoff - 1, 0))
        assert res.tail_estimate == pytest.approx(10 * float(top), rel=1e-12, abs=0)

    def test_budget_is_checked_before_enumerating(self, time_limit):
        assert math.comb(20 + 12, 20) > ENUM_BUDGET  # about 2.3e8 multi-indices
        freqs = tuple((j,) for j in range(1, 21))
        with time_limit(1), pytest.raises(BudgetError):
            lp_norm_taylor(freqs, [Fraction(1, 100)] * 20, Fraction(1, 2), EvalConfig())

    def test_a_pruned_walk_answers_what_the_cutoff_refused(self, time_limit):
        # e_1..e_16 have no relation: the series takes one product of 16 factors to
        # z^6, where the cutoff's C(28, 12) multi-indices, about 3.0e7, exceed the budget
        assert math.comb(16 + 12, 16) > ENUM_BUDGET >= math.comb(16 + 6, 16)
        freqs = tuple(tuple(int(i == j) for j in range(16)) for i in range(16))
        with time_limit(2):
            res = lp_norm_taylor(freqs, [Fraction(1, 100)] * 16, Fraction(1, 2), EvalConfig())
        assert res.converged

    @pytest.mark.parametrize(
        "freqs, depth",
        [
            (((1,), (2,), (3,)), 12),  # two relations, (1, 1, -1) among them: the cutoff
            (((1, 0), (0, 1), (2, -1), (-1, 2)), 6),  # two, both affine: cutoff // 2
        ],
    )
    def test_the_walk_depth_is_refused_before_any_walk(self, monkeypatch, freqs, depth):
        # with two or more relations the walk's one check refuses the
        # C(m + depth, m) multi-indices of its depth before one is formed
        m = len(freqs)
        monkeypatch.setattr(lp_engine, "ENUM_BUDGET", math.comb(m + depth, m) - 1)

        def step(*args):
            raise AssertionError("a multi-index was walked")

        monkeypatch.setattr(lp_engine, "add", step)  # the walk's one frequency sum
        with pytest.raises(BudgetError, match=rf"C\({m} \+ {depth}, {m}\)"):
            lp_norm_taylor(freqs, [Fraction(1, 8)] * m, Fraction(1, 2), EvalConfig())

    @pytest.mark.parametrize("freqs", AT_MOST_ONE_RELATION)
    def test_at_most_one_relation_never_walks(self, monkeypatch, freqs):
        def walk(*args):
            raise AssertionError("the multi-indices were walked")

        monkeypatch.setattr(lp_engine, "_frequency_groups", walk)
        b = [Fraction((-1) ** j, 7 + j) for j in range(len(freqs))]
        for cutoff in (0, 1, 7, 12):
            lp_norm_taylor(freqs, b, Fraction(3, 2), EvalConfig(series_total_degree_cutoff=cutoff))

    @pytest.mark.parametrize(
        "freqs, cutoff",
        [
            (((1,), (2,)), 10**9),
            (((1, 0), (0, 1)), 10**9),
            (((0,),), 10**9),
            # 2 (2000 + 1)^2 steps at k = 0 fit the budget; with k = 1 they do not
            (((1,), (2,)), 4000),
        ],
    )
    def test_an_oversized_cutoff_is_refused_before_any_product(
        self, monkeypatch, time_limit, freqs, cutoff
    ):
        def product(*args):
            raise AssertionError("a series product was formed")

        monkeypatch.setattr(lp_engine, "_pair_weights", product)
        cfg = EvalConfig(series_total_degree_cutoff=cutoff)
        with time_limit(1), pytest.raises(BudgetError, match="budget of"):
            lp_norm_taylor(freqs, [Fraction(1, 8)] * len(freqs), Fraction(1, 2), cfg)

    def test_the_relation_path_equals_the_walk(self, monkeypatch):
        # every kind of set with at most one relation, at cutoffs 0-14
        rng = random.Random(2031)
        cases = [(freqs, k) for freqs in AT_MOST_ONE_RELATION for k in (0, 1, 2, 5, 12, 13, 14)]
        while len(cases) < 800:
            m, d = rng.randint(1, 4), rng.randint(1, 3)
            freqs = tuple(sorted({tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(m)}))
            if relation_count(freqs) <= 1:
                cases.append((freqs, rng.randint(0, 14)))
        runs = []
        for i, (freqs, cutoff) in enumerate(cases):
            b = [Fraction(rng.randint(-7, 7), rng.choice([9, 16, 32])) for _ in freqs]
            p = rng.choice([Fraction(1, 2), Fraction(5, 3), Fraction(21, 4), 3, 4, 1.5, 0.3])
            if i % 4 == 3:
                b = [float(x) for x in b]
            runs.append((freqs, b, p, EvalConfig(series_total_degree_cutoff=cutoff)))
        assert {relation_count(freqs) for freqs, _ in cases} == {0, 1}
        assert {every_relation_is_affine(freqs) for freqs, _ in cases if relation_count(freqs)} == {
            True,
            False,
        }
        assert any(isinstance(run[2], float) for run in runs)
        related = [lp_norm_taylor(*run) for run in runs]
        monkeypatch.setattr(lp_engine, "_relation_pairs", lambda *args: None)
        for run, res in zip(runs, related):
            walked = lp_norm_taylor(*run)
            assert res == walked and type(res.value) is type(walked.value), run

    @staticmethod
    def comb_pair_weights(r, u, depth):
        """Reference: `_pair_weights` with every binomial taken by `math.comb`."""
        weights, plus, minus = None, 0, 0
        for x, e in zip(u, r):
            up, down = max(e, 0), max(-e, 0)
            plus, minus = plus + up, minus + down
            powers = [abs(x) ** (2 * j + up + down) for j in range(depth + 1)]
            if weights is None:
                weights = powers
                continue
            weights = [
                sum(
                    weights[s - j]
                    * math.comb(s + plus, j + up)
                    * math.comb(s + minus, j + down)
                    * powers[j]
                    for j in range(s + 1)
                )
                for s in range(depth + 1)
            ]
        return weights

    def test_pair_weights_equal_the_comb_form(self):
        rng = random.Random(2033)
        cases = [((0, 0), (3, -5), 200), ((2, -1), (1, 1), 0)]
        for _ in range(400):
            m = rng.randint(1, 5)
            r = [rng.randint(-3, 3) for _ in range(m)]
            cases.append((r, [rng.randint(-9, 9) for _ in range(m)], rng.randint(0, 30)))
        assert {depth for *_, depth in cases} >= set(range(31))
        for case in cases:
            assert lp_engine._pair_weights(*case) == self.comb_pair_weights(*case), case

    @pytest.mark.parametrize("b", [(0.5,), (Fraction(1, 2),)])
    @pytest.mark.parametrize("p", [1e30, Fraction(10**30), 10**30])
    def test_values_beyond_float_range(self, b, p):
        # (p/2 choose 6)^2 / 2^12 alone is about 1e341
        if isinstance(p, float) or isinstance(b[0], float):
            with pytest.raises(BudgetError, match="beyond floating-point range"):
                lp_norm_taylor(((1,),), b, p, EvalConfig())
        else:  # the exact value stands; only its tail has no float
            res = lp_norm_taylor(((1,),), b, p, EvalConfig())
            assert isinstance(res.value, Fraction) and res.value > 10**340
            assert res.tail_estimate == math.inf and not res.converged

    def test_pair_depth_walk_equals_the_cutoff_walk(self, monkeypatch):
        # 0, 1 and 2 or more relations, a zero frequency and relations with P = M
        cases = [
            ((1, 0), (0, 1)),  # none
            ((1,), (2,)),  # c = (2, -1)
            ((0, 1), (1, 1), (2, 1)),  # c = (1, -2, 1): P = M
            ((1,), (-1,)),  # c = (1, 1)
            ((0, 0), (1, 2)),  # the zero frequency is a relation alone
            ((1,), (2,), (3,)),  # two
            ((1, 0), (0, 1), (2, -1), (-1, 2)),  # two, both affine
            ((1, -2, 3), (0, 3, -1), (2, 2, 1), (-3, 1, 0)),  # P + M = 77 > 12
        ]
        rng = random.Random(2029)
        while len(cases) < 60:
            m, d = rng.randint(1, 4), rng.randint(1, 3)
            freqs = {tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(m)}
            cases.append(tuple(sorted(freqs)))
        runs = []
        for i, freqs in enumerate(cases):
            b = [Fraction(rng.randint(-4, 4), 16) for _ in freqs]
            if i % 5 == 4:
                b = [float(x) for x in b]
            p = rng.choice([Fraction(1, 2), Fraction(5, 3), Fraction(3), 1.5, 4])
            runs.append((freqs, b, p, EvalConfig(series_total_degree_cutoff=i % 13)))
        pruned = [lp_norm_taylor(*run) for run in runs]
        cutoffs = [run[3].series_total_degree_cutoff for run in runs]
        depths = [lp_engine._pair_depth(freqs, k) for freqs, k in zip(cases, cutoffs)]
        assert {min(relation_count(freqs), 2) for freqs in cases} == {0, 1, 2}
        assert sum(depth < k for depth, k in zip(depths, cutoffs)) > 20
        # the reference walks every set, whatever its relations, to the cutoff
        monkeypatch.setattr(lp_engine, "_relation_pairs", lambda *args: None)
        monkeypatch.setattr(lp_engine, "_pair_depth", lambda freqs, cutoff: cutoff)
        for run, res in zip(runs, pruned):
            full = lp_norm_taylor(*run)
            assert res == full and type(res.value) is type(full.value)

    @pytest.mark.parametrize(
        "freqs, depth",
        [
            # two relations, (1, 1, -1) unbalanced: the walk goes to the cutoff
            (((1,), (2,), (3,)), 12),
            # two relations, both affine (on the line x + y = 1): it visits
            # C(4 + 6, 4) = 210 of the C(4 + 12, 4) = 1 820 multi-indices up to the cutoff
            (((1, 0), (0, 1), (2, -1), (-1, 2)), 6),
        ],
        ids=["two-relations", "affine-plane"],
    )
    def test_walk_depth(self, monkeypatch, freqs, depth):
        b = [Fraction(1, 8), Fraction(-1, 9), Fraction(1, 10), Fraction(1, 7)][: len(freqs)]
        walked = []
        groups = lp_engine._frequency_groups

        def spy(freqs, u, max_order):
            walked.append(max_order)
            return groups(freqs, u, max_order)

        monkeypatch.setattr(lp_engine, "_frequency_groups", spy)
        res = lp_norm_taylor(freqs, b, Fraction(3, 2), EvalConfig())
        assert walked == [depth]
        monkeypatch.setattr(lp_engine, "_pair_depth", lambda freqs, cutoff: cutoff)
        assert res == lp_norm_taylor(freqs, b, Fraction(3, 2), EvalConfig())
        assert walked == [depth, 12]

    def test_float_path_tracks_quadrature(self):
        freqs = ((1,), (3,))
        b = (0.1, -0.15)
        res = lp_norm_taylor(freqs, b, 1.0, EvalConfig(series_total_degree_cutoff=14))
        quad = lp_norm_quadrature(((0,), *freqs), (1.0, *b), 1.0, TIGHT)
        assert res.converged
        assert res.value == pytest.approx(quad.value, abs=1e-9)

    def test_large_coefficients_rejected(self):
        with pytest.raises(ConvergenceError):
            lp_norm_taylor(((1,),), (1.0,), 1.0, EvalConfig())

    def test_unconverged_is_flagged(self):
        res = lp_norm_taylor(((1,),), (0.9,), 1.0, EvalConfig(series_total_degree_cutoff=4))
        assert not res.converged
        assert res.tail_estimate > EvalConfig().backend_agreement_tol


def relation_count(freqs):
    """m - rank: the rank of the integer relations of m frequencies."""
    return len(freqs) - rank_exact(IntMatrix.from_rows(freqs))


def every_relation_is_affine(freqs):
    """Whether the lifts (1, n) have the rank of the frequencies n."""
    lifts = [(1, *n) for n in freqs]
    return rank_exact(IntMatrix.from_rows(lifts)) == rank_exact(IntMatrix.from_rows(freqs))


def pair_scan(freqs, cutoffs):
    """For each cutoff K, the largest order of a multi-index with a partner of
    equal frequency sum within K, by a scan of every multi-index up to max K."""
    top = max(cutoffs)
    orders = {}  # frequency sum: the orders of the multi-indices reaching it
    for beta in itertools.product(range(top + 1), repeat=len(freqs)):
        if sum(beta) <= top:
            orders.setdefault(frequency_sum(freqs, beta), set()).add(sum(beta))
    return [
        max(max(k, l) for ks in orders.values() for k in ks for l in ks if k + l <= cutoff)
        for cutoff in cutoffs
    ]


class TestPairDepth:
    # (frequencies, relations, whether one of them is not affine)
    CASES = [
        (((1, 0), (0, 1)), 0, False),
        (((3,),), 0, False),
        (((0, 1), (1, 1), (2, 1)), 1, False),  # c = (1, -2, 1)
        (((1,), (2,)), 1, True),  # c = (2, -1)
        (((1,), (-1,)), 1, True),  # c = (1, 1)
        (((0, 0),), 1, True),  # the zero frequency alone: c = (1,)
        (((0, 0), (1, 2)), 1, True),
        (((-2, 1), (1, -3), (3, 2)), 1, True),
        (((1, 0), (0, 1), (2, -1), (-1, 2)), 2, False),
        (((0, 1), (1, 1), (2, 1), (3, 1)), 2, False),
        (((1,), (2,), (3,)), 2, True),
        (((1, 0), (0, 1), (1, 1), (2, 1)), 2, True),
        (((1,), (-1,), (2,), (-3,)), 3, True),
    ]

    def test_depth_is_never_below_a_pair_scan(self):
        rng = random.Random(2030)
        cases = [freqs for freqs, _, _ in self.CASES]
        while len(cases) < 60:
            m, d = rng.randint(1, 4), rng.randint(1, 2)
            freqs = {tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(m)}
            cases.append(tuple(sorted(freqs)))
        cutoffs = range(9)
        for freqs in cases:
            affine = every_relation_is_affine(freqs)
            for k, scanned in zip(cutoffs, pair_scan(freqs, cutoffs)):
                depth = lp_engine._pair_depth(freqs, k)
                assert depth >= scanned, (freqs, k)
                if affine:  # every pair is balanced: cutoff // 2 is exact
                    assert depth == scanned == k // 2, (freqs, k)

    @pytest.mark.parametrize("freqs, relations, unbalanced", CASES)
    def test_cases_cover_every_kind(self, freqs, relations, unbalanced):
        assert relation_count(freqs) == relations
        assert every_relation_is_affine(freqs) is not unbalanced


def full_grid_means(freqs, rows, p, n):
    """Reference: each phase by np.exp over all n^d points, one frequency at a time."""
    d = len(freqs[0])
    x = np.indices((n,) * d) / n
    totals = [np.zeros((n,) * d, dtype=complex) for _ in rows]
    for j, f in enumerate(freqs):
        k = [(e + n // 2) % n - n // 2 for e in f]  # e(k x) on the grid depends on k mod n
        phase = np.exp(2j * np.pi * sum(kk * xa for kk, xa in zip(k, x)))
        for row, total in zip(rows, totals):
            total += row[j] * phase
    return [float(np.mean(np.abs(total) ** p)) for total in totals]


def half_grid_means(freqs, rows, p, n):
    return _grid_means(freqs, rows, n, [p])[0][0]


def one_matmul_means(freqs, rows, p, n):
    """Reference: means of |sum|^p from one matrix product over the half grid, slices weighted.

    A 1-D grid is the A x B grid of x = a + A b, with the width B that
    `lp_engine._axes` gives: its tables are e(k a / n) and e(k b / B).
    """
    m, d, h = len(freqs), len(freqs[0]), n // 2 + 1
    roots = np.exp((2j * np.pi / n) * np.arange(n))
    residues = np.array([[k % n for k in f] for f in freqs], dtype=np.int64)
    tables = [
        roots[np.outer(residues[:, axis], np.arange(n if axis else h)) % n]
        for axis in range(d)
    ]
    first = n
    if d == 1:
        first, width = lp_engine._axes(1, n)
        h, ks = first // 2 + 1, np.array([k % width for (k,) in freqs], dtype=np.int64)
        last = np.exp((2j * np.pi / width) * (np.outer(ks, np.arange(width)) % width))
        tables = [tables[0][:, :h], last]
    head = np.ones((m, 1), dtype=complex)
    for table in tables[:-1]:
        head = (head[:, :, None] * table[:, None, :]).reshape(m, -1)
    weights = np.where(2 * np.arange(h) % first == 0, 1.0, 2.0)
    means = []
    for row in rows:
        field = (np.asarray(row)[:, None] * head).T @ tables[-1]
        square = (field.real**2 + field.imag**2).reshape(h, -1)
        means.append(float(weights @ (square ** (p / 2.0)).sum(axis=1)) / n**d)
    return means


def chunk_sizes(freqs, rows, n):
    """The number of first-axis slices in each chunk of a pass over the n grid."""
    chunks, _ = lp_engine._tensor_pass(freqs, np.array(rows), n)
    return [hi - lo for lo, hi in chunks]


def assert_chunks_of_three(sizes, widths):
    """Every chunk but the last holds three first-axis slices, the last up to four.

    The last one is four where a lone last slice joined it.
    """
    assert sum(sizes) == widths[0] // 2 + 1
    assert sizes[:-1] == [3] * (len(sizes) - 1) and sizes[-1] <= 4


def random_case(seed, d, m=5):
    """m distinct frequencies in Z^d (one entry 10^400 + 1) and a signed row with its majorant."""
    rng = random.Random(seed)
    freqs = set()
    while len(freqs) < m:
        freqs.add(tuple(rng.randint(-60, 60) for _ in range(d)))
    freqs = sorted(freqs)
    freqs[-1] = (10**400 + 1, *freqs[-1][1:])
    row = [1.0, *(rng.choice((-1, 1)) * rng.uniform(0.01, 1) for _ in range(m - 1))]
    return freqs, [row, [abs(x) for x in row]]


@st.composite
def kernel_cases(draw):
    """Frequencies in Z^1..Z^4 up to 40 (maybe one entry of 10^400 + 1), rows, p, grid, scale.

    Row entries are moderate, because the full-grid reference squares them
    unscaled; the scale t in [1e-300, 1e300] takes them through
    `lp_norm_quadrature`, which divides each row by a power of two first.
    """
    d = draw(st.integers(1, 4))
    grids = (4, 5, 8, 9, 12, 16) + ((33, 64) if d <= 2 else ()) + ((67, 96, 256) if d == 1 else ())
    n = draw(st.sampled_from(grids))
    entries = st.tuples(*[st.integers(-40, 40)] * d)
    freqs = draw(st.lists(entries, min_size=1, max_size=6, unique=True))
    if draw(st.booleans()):
        j, axis = draw(st.integers(0, len(freqs) - 1)), draw(st.integers(0, d - 1))
        freqs[j] = freqs[j][:axis] + (10**400 + 1,) + freqs[j][axis + 1 :]
    size = st.floats(1e-6, 3)
    coeff = st.one_of(st.just(0.0), size, size.map(lambda x: -x))
    row = st.lists(coeff, min_size=len(freqs), max_size=len(freqs))
    rows = draw(st.lists(row, min_size=1, max_size=2))
    return freqs, rows, draw(st.floats(1, 6)), n, draw(st.floats(1e-300, 1e300))


class TestHalfGridKernel:
    @settings(max_examples=150, deadline=None)
    @given(kernel_cases())
    def test_matches_full_grid_reference(self, case):
        freqs, rows, p, n, _ = case
        for got, want, row in zip(
            half_grid_means(freqs, rows, p, n), full_grid_means(freqs, rows, p, n), rows
        ):
            # the absolute floor only matters when aliased terms cancel on the grid
            scale = sum(abs(x) for x in row) ** p
            assert got == pytest.approx(want, rel=1e-12, abs=1e-14 * scale)

    @pytest.mark.parametrize(
        "freqs",
        [
            ((0,), (1,), (7,), (3,)),
            ((0, 0), (1, 0), (7, 0), (3, 1)),
            ((0, 0, 0), (1, 0, 0), (7, 0, 0), (2, 1, 1)),
        ],
    )
    def test_odd_grid_reduces_mod_the_full_axis(self, freqs):
        # 7 is -2 mod 9 but 2 mod the 5 kept first-axis points
        rows = [(1.0, 0.5, -0.3, 0.2), (1.0, 0.5, 0.3, 0.2)]
        for p in (1.0, 3.0):
            got, want = half_grid_means(freqs, rows, p, 9), full_grid_means(freqs, rows, p, 9)
            assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n", [64, 67, 96, 256, 1 << 12, 100003])
    def test_one_dimensional_layouts_match_full_grid_reference(self, n):
        # A x B = 1 x 64, 67 x 1 (a column of zeros pads the last axis), 2 x 48, 4 x 64,
        # 64 x 64 and 100003 x 1
        freqs, rows = random_case(n, 1)
        for p in (1.0, 3.5):
            got, want = half_grid_means(freqs, rows, p, n), full_grid_means(freqs, rows, p, n)
            assert got == pytest.approx(want, rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(kernel_cases())
    def test_quadrature_scales_as_the_pth_power(self, case):
        freqs, (a, *_), p, n, t = case
        # t a and a are scaled by different powers of two, so a tolerance that a
        # step can reach could stop their ladders on different grids; with 1e300
        # both stay on the start grid
        cfg = EvalConfig(grid_points_per_axis=n, backend_agreement_tol=1e300)
        base = lp_norm_quadrature(freqs, a, p, cfg)
        ctx = Context(prec=40)
        factor = ctx.power(Decimal(t), Decimal(p))
        want = float(Decimal(base.value) * factor)
        if want == math.inf:
            with pytest.raises(BudgetError):
                lp_norm_quadrature(freqs, [t * x for x in a], p, cfg)
            return
        if not 1e-305 < want < 1e305:  # subnormal, or within rounding of the top
            return
        got = lp_norm_quadrature(freqs, [t * x for x in a], p, cfg)
        # rounding t * a_j moves the value by about 1e-16 of sum |t a_j|^p
        floor = 1e-14 * float(Decimal(sum(map(abs, a)) ** p) * factor)
        assert got.value == pytest.approx(want, rel=1e-12, abs=floor)
        want_error = float(Decimal(base.error_estimate) * factor)
        assert got.error_estimate == pytest.approx(want_error, rel=1e-12, abs=floor)
        assert got.grid_points_per_axis == base.grid_points_per_axis == max(8, n)

    @pytest.mark.parametrize(
        "d, n, block, chunks",
        [
            # 1025 slices of 64 points in chunks of 512: a lone last slice joins the one before
            (1, 1 << 17, None, 2),
            (1, 2048, 3, 6),  # 17 slices of 64 points in chunks of three
            (2, 1024, None, 16),  # 513 slices in chunks of 32: a lone last slice
            (2, 600, None, 6),  # 301 slices in chunks of 54
            (3, 100, None, 17),  # 51 slices in chunks of three
            (4, 36, None, 19),  # 19 slices, each over 2^16 values
            (2, 9, 2, 2),  # 5 slices in chunks of two: a lone last slice
            (2, 16, 4, 2),  # 9 slices in chunks of four: a lone last slice
            (3, 12, 1, 7),  # 7 slices, one per chunk
        ],
    )
    def test_blocked_build_equals_one_matrix_product(self, monkeypatch, d, n, block, chunks):
        freqs, rows = random_case(n + d, d)
        if block:  # chunks of `block` first-axis slices
            values = block * math.prod(lp_engine._axes(d, n)[1:]) * len(rows)
            monkeypatch.setattr(lp_engine, "_CHUNK_VALUES", values)
        assert len(chunk_sizes(freqs, rows, n)) == chunks
        ps = [1.0, 2.5]
        got = _grid_means(freqs, rows, n, ps)[0]
        want = [one_matmul_means(freqs, rows, p, n) for p in ps]
        assert got == want

    @pytest.mark.parametrize(
        "d, n",
        [(d, n) for d in (1, 2, 3, 4) for n in (8, 12, 16, 24, 64)]
        + [(1, 96), (1, 256), (1, 1 << 12)],
    )
    def test_start_grid_half_equals_a_direct_build(self, monkeypatch, grid_passes, d, n):
        n = 32 if (d, n) == (4, 64) else n  # 32 is the 4-D start grid; 64 is 9e6 points
        freqs, rows = random_case(10 * n + d, d)
        ps = [1.0, 2.5]
        cfg = EvalConfig(grid_points_per_axis=n, backend_agreement_tol=1e300)
        _paired_differences(freqs, rows[0], ps, cfg)
        # read from the start grid's pass on multiples of 16, where BLAS column groups line
        # up, and in 1-D where n//2 keeps the slice width: 96 = 2 x 48, 256 = 4 x 64
        read = n in (96, 256, 1 << 12) if d == 1 else n % 16 == 0
        assert grid_passes == ([n] if read else [n, n // 2])
        if read:
            full, half = _grid_means(freqs, rows, n, ps, half=True)
            assert full == _grid_means(freqs, rows, n, ps)[0]
            assert half == _grid_means(freqs, rows, n // 2, ps)[0]
            # chunks of three first-axis slices, half of which start at an odd slice
            widths = lp_engine._axes(d, n)
            monkeypatch.setattr(lp_engine, "_CHUNK_VALUES", 3 * math.prod(widths[1:]) * len(rows))
            assert_chunks_of_three(chunk_sizes(freqs, rows, n), widths)
            assert _grid_means(freqs, rows, n, ps, half=True) == [full, half]

    @pytest.mark.parametrize(
        "d, n, chunks",
        [
            (1, 1 << 17, 2),  # the lone last slice joins the chunk before
            (1, 1 << 20, 16),
            (2, 1024, 16),  # the lone last slice joins the chunk before
            (3, 128, 33),
            (4, 16, 2),  # at 32, a slice holds 2^16 values: one slice per chunk either way
        ],
    )
    def test_default_chunks_equal_chunks_of_2_13_points(self, monkeypatch, d, n, chunks):
        freqs, rows = random_case(3 * n + d, d)
        ps = [1.0, 2.5]
        assert len(chunk_sizes(freqs, rows, n)) == chunks
        default = [_grid_means(freqs, rows, n, ps, half) for half in (False, True)]
        monkeypatch.setattr(lp_engine, "_CHUNK_VALUES", (1 << 13) * len(rows))
        assert len(chunk_sizes(freqs, rows, n)) > chunks
        assert [_grid_means(freqs, rows, n, ps, half) for half in (False, True)] == default

    def test_a_plot_is_the_same_in_chunks_of_2_13_points(self, monkeypatch):
        # nine exponents share each pass, as in `emit_plot_data`; |F| has zeros, so
        # most exponents take the ladder to 2048
        freqs, signed = ((0, 0), (1, 1), (2, 4), (3, 9)), (1.0, -0.9, 0.8, 0.7)
        ps = [1.0 + 0.5 * i for i in range(9)]
        default = _paired_differences(freqs, signed, ps, TIGHT)
        monkeypatch.setattr(lp_engine, "_CHUNK_VALUES", 2 * (1 << 13))
        assert _paired_differences(freqs, signed, ps, TIGHT) == default
        assert {res.grid_points_per_axis for res in default} == {256, 1024, 2048}

    def test_odd_start_grid_builds_its_half(self, grid_passes):
        freqs, row, p = ((0, 0), (1, 2), (3, 1), (2, 5)), (1.0, -0.25, 0.5, 0.25), 3.0
        res = lp_norm_quadrature(freqs, row, p, EvalConfig(grid_points_per_axis=9))
        assert grid_passes[:2] == [9, 4]
        n = res.grid_points_per_axis
        assert res.value == pytest.approx(full_grid_means(freqs, [row], p, n)[0], rel=1e-12)

    @pytest.mark.parametrize("n", [4, 5, 8, 9])
    def test_weights_count_every_point_once(self, n):
        for d in (1, 2, 3):
            [[mean]] = _grid_means(((0,) * d,), [(1.0,)], n, [1.7])[0]
            assert mean == pytest.approx(1.0, rel=1e-15)


class TestKeptEstimates:
    """Every exponent a ladder evaluates keeps its error estimate, also where a
    start grid that cannot double ends every ladder and its n//2 grid serves
    only the estimates."""

    @pytest.mark.parametrize("d, n, own_pass", [(3, 128, False), (4, 32, False), (6, 8, True)])
    def test_a_start_grid_that_cannot_double_reads_its_half_once(self, grid_passes, d, n, own_pass):
        freqs, rows = random_case(d, d)
        _paired_differences(freqs, rows[0], [1.5, 2.5, 3.5], EvalConfig())
        assert grid_passes == ([n, n // 2] if own_pass else [n])

    @pytest.mark.parametrize("d", [3, 4, 6, 2])  # 3-D 128, 4-D 32, 6-D 8; 2-D 256 doubles
    def test_every_exponent_has_a_finite_estimate_of_its_own(self, d):
        freqs, rows = random_case(d, d)
        ps = [1.5, 2.5, 3.5]
        shared = _paired_differences(freqs, rows[0], ps, EvalConfig())
        assert all(math.isfinite(res.error_estimate) for res in shared)
        assert shared == [paired_difference(freqs, rows[0], p, EvalConfig()) for p in ps]
        if d == 2:
            assert {res.grid_points_per_axis for res in shared} != {256}

    @pytest.mark.parametrize("d, slices", [(1, 32769), (2, 1025), (3, 65), (4, 17)])
    def test_slice_sums_are_counted_at_the_finest_grid(self, d, slices):
        # 2^22 points in 1-D (65 536 x 64), 2048 in 2-D, 128 in 3-D, 32 in 4-D
        fit = lp_engine.QUAD_POINT_BUDGET // (2 * slices)
        lp_engine._check_slice_sums(d, fit, 2, EvalConfig())
        with pytest.raises(BudgetError, match=f"{fit + 1} exponents keep"):
            lp_engine._check_slice_sums(d, fit + 1, 2, EvalConfig())
        # the nine default plot samples and p_tested fit with room to spare
        lp_engine._check_slice_sums(d, 10, 2, EvalConfig(grid_points_per_axis=8))


class TestSharedSquares:
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_bad_exponent_refused_before_any_grid(self, grid_passes, bad):
        freqs, signed = ((0, 0), (1, 1), (2, 4), (3, 9)), (1.0, -0.25, 0.25, 0.25)
        with pytest.raises(DomainError):
            _paired_differences(freqs, signed, [1.5, 2.5, bad, 3.5], EvalConfig())
        assert grid_passes == []


class TestBlasThreads:
    SCRIPT = (
        "from majorant.lp_engine import EvalConfig, paired_difference\n"
        "cases = [(((0, 0, 0), (2, 4, 8), (3, 9, 27), (4, 16, 64), (5, 25, 125)),"
        " (1.0, 0.25, 0.25, -0.25, 0.25), 3.0),"
        " (((0, 0), (1, 1), (2, 4), (3, 9)), (1.0, -0.25, 0.25, 0.25), 1.0)]\n"
        "grids = [256, 256, 128, 2048, 1 << 16]\n"
        "cases.append((((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (3, 5, 7)),"
        " (1.0, -0.25, 0.25, 0.25, -0.25), 1.5))\n"
        # 1-D with many frequencies, where a BLAS vector product would split across threads
        "line = tuple((k * k,) for k in range(12))\n"
        "cases += [(line, (1.0,) + (0.25, -0.25) * 5 + (0.25,), p) for p in (1.0, 2.5)]\n"
        # 1-D grids of a prime, with 50 002 slices of one point, and of 2^20 points
        "cases += [(line, (1.0,) + (0.25, -0.25) * 5 + (0.25,), 1.5)] * 2\n"
        "grids += [100003, 1 << 20]\n"
        # half grids of 2.1e6 and 5.6e5 points: passes that run on two threads
        "grids += [2048, 32]\n"
        "cases.append((((0, 0), (1, 1), (2, 4), (3, 9)), (1.0, -0.25, 0.25, 0.25), 2.5))\n"
        "cases.append((((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),"
        " (2, 1, 1, 3)), (1.0, 0.25, -0.25, 0.25, 0.25, -0.25), 3.0))\n"
        "for (freqs, signed, p), grid in zip(cases, grids):\n"
        "    res = paired_difference(freqs, signed, p, EvalConfig(grid_points_per_axis=grid))\n"
        "    print(res.lhs.hex(), res.rhs.hex(), res.difference.hex(),"
        " res.error_estimate.hex(), res.grid_points_per_axis)\n"
    )

    def test_values_do_not_depend_on_the_thread_count(self):
        src = str(Path(majorant.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            done = subprocess.run(
                [sys.executable, "-c", self.SCRIPT],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
            outputs.append(done.stdout)
        assert len(outputs[0].splitlines()) == 9
        assert outputs[0] == outputs[1]


class TestParallelPasses:
    @pytest.mark.parametrize(
        "d, n",
        [(d, n) for d in (1, 2, 3, 4) for n in (8, 9, 12, 16, 64)]
        + [(1, 256), (1, 1 << 12), (1, 1 << 17), (1, 100003), (2, 1024), (2, 2048)],
    )
    def test_means_do_not_depend_on_the_worker_count(self, monkeypatch, d, n):
        n = 32 if (d, n) == (4, 64) else n  # 64 is 9e6 points
        freqs, rows = random_case(7 * n + d, d)
        ps = [1.0, 2.5, 7.0]
        monkeypatch.setattr(lp_engine, "_PARALLEL_POINTS", 0)
        widths = lp_engine._axes(d, n)
        halves = 2 * lp_engine._axes(d, n // 2)[0] == widths[0]  # n//2 is a subgrid of n
        if widths[0] <= 64:  # chunks of three slices, so that several start at an odd slice
            monkeypatch.setattr(lp_engine, "_CHUNK_VALUES", 3 * math.prod(widths[1:]) * len(rows))
            assert_chunks_of_three(chunk_sizes(freqs, rows, n), widths)
        else:
            # the default chunks: 2-D 1024 and 2048 and 1-D 2^17 each end with a lone slice, and
            # the 1-D prime 100003 has 50002 slices of one point (and a column of zeros)
            chunks = {(1, 1 << 17): 2, (1, 100003): 4, (2, 1024): 16, (2, 2048): 64}[d, n]
            assert len(chunk_sizes(freqs, rows, n)) == chunks
        chunk_threads = set()
        real = lp_engine._tensor_squares

        def spy(*args):
            for chunk in real(*args):
                chunk_threads.add(threading.current_thread().name)
                yield chunk

        monkeypatch.setattr(lp_engine, "_tensor_squares", spy)
        means = {}
        for workers in (1, 2):
            monkeypatch.setattr(lp_engine, "_WORKERS", workers)
            means[workers] = [
                _grid_means(freqs, rows, n, ps, half) for half in (False, True)[: 1 + halves]
            ]
        assert means[2] == means[1]
        if (d, n) in ((2, 2048), (1, 100003)):  # 64 and 4 chunks: the pool takes some
            assert any(name.startswith("majorant-grid") for name in chunk_threads)

    @pytest.mark.parametrize("scale, p", [(1e200, 3.0), (1.0, 2000.0)])
    def test_overflow_in_a_pooled_thread_warns_nothing(self, monkeypatch, scale, p):
        monkeypatch.setattr(lp_engine, "_WORKERS", 2)
        freqs, rows = random_case(5, 3)
        rows = [[scale * x for x in row] for row in rows]
        pooled_went = threading.Event()
        real = lp_engine._tensor_squares

        def spy(*args):
            # the calling thread waits until the pooled one has overflowed on its chunks
            pooled = threading.current_thread() is not threading.main_thread()
            if not pooled:
                assert pooled_went.wait(10)
            try:
                yield from real(*args)
            finally:
                pooled_went.set()

        monkeypatch.setattr(lp_engine, "_tensor_squares", spy)
        with warnings.catch_warnings(), pytest.raises(BudgetError, match="beyond floating-point"):
            warnings.simplefilter("error")
            _grid_means(freqs, rows, 128, [p])

    def test_an_error_in_the_pool_reaches_the_caller_and_stops_the_pass(self):
        taken, done = threading.Event(), []

        def work(share):
            if threading.current_thread() is threading.main_thread():
                assert taken.wait(10)
                for chunk in share:
                    done.append(chunk)
                    time.sleep(0.005)
            else:
                for chunk in share:
                    taken.set()
                    raise BudgetError("raised in the pool")

        with pytest.raises(BudgetError, match="raised in the pool"):
            lp_engine._run_shared(work, [(i, i + 1) for i in range(400)])
        assert len(done) < 200  # 400 chunks at 5 ms would take 2 s

    def test_beyond_float_range_stops_at_the_first_chunk(self, monkeypatch, time_limit):
        # p = 2000 overflows on each of the 17 chunks of this 4-D 32 pass: a thread takes one
        freqs, rows = random_case(3, 4)
        chunks = []
        real = lp_engine._tensor_squares

        def spy(*args):
            for chunk in real(*args):
                chunks.append(chunk[:2])
                yield chunk

        monkeypatch.setattr(lp_engine, "_tensor_squares", spy)
        for workers in (1, 2):
            monkeypatch.setattr(lp_engine, "_WORKERS", workers)
            chunks.clear()
            with time_limit(0.1), pytest.raises(BudgetError, match=r"\|sum\|\^2000 is beyond"):
                _grid_means(freqs, rows, 32, [2000.0, 3000.0])
            assert len(chunks) <= workers


class TestThreadLifecycle:
    def run_python(self, *args, timeout=60):
        src = str(Path(majorant.__file__).resolve().parents[1])
        env = {**os.environ}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout
        )

    def test_exact_work_starts_no_thread(self):
        script = (
            "import sys, threading\n"
            "import majorant as mj\n"
            "counts = [threading.active_count(), 'concurrent.futures' in sys.modules]\n"
            "g = mj.FrequencySet(2, ((0, 0), (1, 0), (0, 1), (1, 1), (3, 5)))\n"
            "mj.classify(g, with_certificate=False)\n"
            "mj.reduce_full_dim(g)\n"
            "mj.lp_norm_taylor(g.points[1:], (0.25, -0.25, 0.25, 0.25), 3, mj.EvalConfig())\n"
            "mj.lp_norm_even_exact(g.points, (1, 1, -1, 1, 1), 3)\n"
            "counts += [threading.active_count(), 'concurrent.futures' in sys.modules]\n"
            "print(counts)\n"
        )
        done = self.run_python("-c", script)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == "[1, False, 1, False]\n"

    def test_a_forked_child_runs_parallel_passes(self):
        # the child inherits the pool object but none of its threads
        script = (
            "import multiprocessing as mp\n"
            "from majorant import lp_engine\n"
            "from majorant.lp_engine import EvalConfig, paired_difference\n"
            "lp_engine._WORKERS = 2\n"
            "args = (((0, 0), (1, 1), (2, 4), (3, 9)), (1.0, -0.25, 0.25, 0.25), 2.5,"
            " EvalConfig(grid_points_per_axis=1024))\n"
            "first = paired_difference(*args)\n"
            "with mp.get_context('fork').Pool(1) as pool:\n"
            "    print(pool.apply_async(paired_difference, args).get(timeout=30) == first)\n"
        )
        done = self.run_python("-c", script)
        assert (done.returncode, done.stdout, done.stderr) == (0, "True\n", "")

    def test_a_parallel_pass_lets_the_process_exit(self, monkeypatch, tmp_path):
        argv = ["moment", "--d", "3", "--p", "13", "--plot", str(tmp_path / "rows.csv")]
        # the plot is what evaluates here: the d = 3 leading term is below the floor
        monkeypatch.setattr(lp_engine, "_WORKERS", 2)
        shared = []
        real = lp_engine._run_shared
        monkeypatch.setattr(lp_engine, "_run_shared", lambda *args: shared.append(real(*args)))
        assert cli_main(argv) == 0 and shared
        done = self.run_python("-m", "majorant.cli", *argv, timeout=60)
        assert done.returncode == 0
        assert done.stderr == f"wrote 9 plot rows to {tmp_path / 'rows.csv'}\n"


@pytest.fixture
def empty_workspaces():
    """Drop the workspaces that this thread and the pooled one keep, so a test sees them made."""

    def empty():
        vars(lp_engine._kept).clear()

    empty()
    lp_engine._helper().submit(empty).result(timeout=10)


class TestMemory:
    @pytest.mark.parametrize(
        "freqs, signed, p, grid",
        [
            # 3-D start grid 128: one row's |F|^2 over the half grid would take 8.1 MiB
            (((0, 0, 0), (2, 4, 8), (3, 9, 27), (4, 16, 64), (5, 25, 125)),
             (1.0, 0.25, 0.25, -0.25, 0.25), 3.0, 256),
            (((0, 0), (1, 1), (2, 4), (3, 9)), (1.0, -0.25, 0.25, 0.25), 1.0, 2048),
            (((0,), (1,), (3,), (7,)), (1.0, -0.25, 0.25, 0.25), 1.5, 1 << 20),
        ],
        ids=["3d-128", "2d-2048", "1d-2^20"],
    )
    def test_paired_difference_peak(
        self, monkeypatch, traced_peak_mb, empty_workspaces, freqs, signed, p, grid
    ):
        monkeypatch.setattr(lp_engine, "_WORKERS", 2)  # every thread holds a workspace of its own
        cfg = EvalConfig(grid_points_per_axis=grid)
        # the workspaces are made in the pass: 1.5 MiB per thread that takes a chunk
        assert 1.5 <= traced_peak_mb(paired_difference, freqs, signed, p, cfg) <= 4

    def test_a_second_pass_allocates_no_new_buffer(
        self, monkeypatch, traced_peak_mb, empty_workspaces
    ):
        monkeypatch.setattr(lp_engine, "_WORKERS", 1)
        freqs, rows = random_case(2, 2)
        first = traced_peak_mb(_grid_means, freqs, rows, 512, [3.0])
        kept = lp_engine._kept.buffers
        second = traced_peak_mb(_grid_means, freqs, rows, 512, [3.0])
        assert lp_engine._kept.buffers is kept
        # the first pass made the 1.5 MiB workspace; the second only small per-pass arrays
        assert first >= 1.5 and second <= 0.25


class TestPairedDifference:
    def test_all_positive_row_gives_exact_zero(self):
        freqs = ((0,), (1,), (2,))
        res = paired_difference(freqs, (1.0, 0.3, 0.2), 1.5, EvalConfig())
        assert res.difference == 0.0

    def test_orientation_signed_exceeds_majorant(self):
        freqs = ((0,), (1,), (2,))
        res = paired_difference(freqs, (1.0, 0.25, -0.25), 1.0, EvalConfig())
        assert res.rhs > res.lhs
        assert res.difference == res.rhs - res.lhs > 0


class TestPairedDifferenceLeadingTerm:
    """Paired margins of 1 + a_1 e(x) + a_2 e(2x) against the exact leading term."""

    FREQS = ((0,), (1,), (2,))
    CV = build_c(build_v(((1,), (2,))))

    def test_classical_margin_near_leading_term(self):
        cfg = EvalConfig(grid_points_per_axis=4096)
        res = paired_difference(self.FREQS, (1, 0.1, -0.1), 1, cfg)
        term = 2 ** log2_leading_term(1, self.CV, (0.1, -0.1))
        assert term == pytest.approx(2.5e-4, rel=1e-12)
        assert res.difference == pytest.approx(term, rel=0.01)

    def test_even_exponent_difference_is_nonpositive(self):
        # At p = 2 both sides agree exactly; at p = 4 the signed side loses.
        # Neither has a positive leading term.
        res2 = paired_difference(self.FREQS, (1, 0.2, -0.2), 2, TIGHT)
        assert abs(res2.difference) < 1e-13
        res4 = paired_difference(self.FREQS, (1, 0.2, -0.2), 4, TIGHT)
        assert res4.difference < 0
        for p in (2, 4):
            assert 2 ** log2_leading_term(p, self.CV, (0.2, -0.2)) == 0.0


class TestGFunction:
    def test_r_zero_is_one(self):
        assert g_function(0.0, 2.5, TIGHT) == pytest.approx(1.0, abs=1e-12)

    def test_unit_ratio_p1_is_4_over_pi(self):
        val = g_function(1.0, 1.0, EvalConfig(backend_agreement_tol=1e-10))
        assert val == pytest.approx(4 / math.pi, abs=1e-8)

    def test_p2_closed_form(self):
        assert g_function(0.7, 2.0, TIGHT) == pytest.approx(1.49, abs=1e-12)

    def test_nondecreasing_sample(self):
        for p in (0.5, 3.0):
            vals = [g_function(r / 4, p, EvalConfig()) for r in range(9)]
            assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
