"""End-to-end constructors, certification, verification, and classification.

Frozen instances were computed once from the building blocks (certificate
vector of {1, 2} translated from {0, 1, 2}, closed-form moment data) and
pinned here; everything else checks structure and invariants.
"""

from __future__ import annotations

import json
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, fields, replace
from fractions import Fraction
from math import inf, isfinite, log2, nextafter, ulp
from pathlib import Path

import jsonschema
import pytest

from majorant import constructions, exact_lattice
from majorant.constructions import (
    Certificate,
    assign_signs,
    classify,
    construct_abundant,
    construct_certificates,
    construct_independent,
    construct_moment,
    emit_plot_data,
    verify_certificate,
)
from majorant.cvector import OpenInterval, build_c, build_v, log2_leading_term
from majorant.errors import BudgetError, DomainError, HypothesisError, MajorantError
from majorant.exact_lattice import FrequencySet, affine_dimension
from majorant.lp_engine import EvalConfig, paired_difference

DOCS = Path(__file__).resolve().parent.parent / "docs"

MOMENT_GEN = FrequencySet.from_json(
    {
        "dim": 2,
        "points": [],
        "generator": {"kind": "moment_curve", "params": {}},
    }
)

# c = (2, 0, 0, -1) at p = 1: margin 4.7e-3, error estimate 3.7e-8 on the
# 128-point grid the point budget allows, above the default tolerance 1e-9
SPACE_SET = FrequencySet(3, ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0)))

COLLINEAR_GEN = FrequencySet.from_json(
    {
        "dim": 2,
        "points": [],
        "generator": {"kind": "arith_progression", "params": {"start": [0, 0], "step": [1, 1]}},
    }
)

# {0, 1} with a zero-step tail at 2: a finite, dependent set of three points
ZERO_STEP = FrequencySet.from_json(
    {
        "dim": 1,
        "points": [[0], [1]],
        "generator": {"kind": "arith_progression", "params": {"start": [2], "step": [0]}},
    }
)
LINE = FrequencySet(1, ((0,), (1,), (2,)))
# {0, e1, e2} with a progression tail from (2, 1) by (1, 1): abundant
PROGRESSION_2D = FrequencySet.from_json(
    {
        "dim": 2,
        "points": [[0, 0], [1, 0], [0, 1]],
        "generator": {"kind": "arith_progression", "params": {"start": [2, 1], "step": [1, 1]}},
    }
)
# {0, 1, 10^20}: m_plus is 10^20, so p = 2 m_plus - 3 rounds to the even float 2e+20
HUGE_LINE = FrequencySet(1, ((0,), (1,), (10**20,)))


def affine_basis_calls(monkeypatch) -> list[tuple]:
    """Record the input of every `_affine_basis` call, in both modules that call it."""
    calls: list[tuple] = []
    real = exact_lattice._affine_basis

    def spy(points):
        calls.append(tuple(points))
        return real(calls[-1])

    for module in (exact_lattice, constructions):
        monkeypatch.setattr(module, "_affine_basis", spy)
    return calls


class TestAssignSigns:
    def test_flip_sits_at_first_odd_entry(self):
        cv = build_c((4, -2))  # primitive form (2, -1)
        assert assign_signs(cv, 0.25) == (0.25, -0.25)
        cv2 = build_c((3, -1))
        assert assign_signs(cv2, 0.5) == (-0.5, 0.5)

    def test_magnitude_range(self):
        cv = build_c((2, -1))
        with pytest.raises(DomainError):
            assign_signs(cv, 0.0)
        with pytest.raises(DomainError):
            assign_signs(cv, 1.0)


class TestConstructIndependent:
    def test_three_point_line_frozen(self):
        cert = construct_independent(FrequencySet(1, ((0,), (1,), (2,))))
        assert cert.theorem_tag == "independent"
        assert cert.frequencies == ((0,), (1,), (2,))
        assert cert.coefficients == (1.0, 0.25, -0.25)
        assert cert.cvector.c == (2, -1)
        assert cert.p_interval == OpenInterval(0, 2)
        assert cert.p_tested == 1.0
        assert cert.verified
        assert cert.margin is not None and cert.margin > 0
        assert cert.reduction is None

    def test_collinear_plane_set_reduces(self):
        cert = construct_independent(FrequencySet(2, ((1, 1), (3, 3), (7, 7))))
        assert cert.dim == 1
        assert cert.cvector.c == (3, -1)
        assert cert.verified
        assert cert.reduction is not None
        origin = cert.reduction["origin"]
        cols = cert.reduction["basis_columns"]
        # the recorded affine map must reproduce members of the input set
        for reduced, original in (((0,), (1, 1)), ((1,), (3, 3)), ((3,), (7, 7))):
            image = tuple(
                origin[axis] + sum(cols[j][axis] * t for j, t in enumerate(reduced))
                for axis in range(2)
            )
            assert image == original

    def test_unit_square_is_dependent_and_certifies(self):
        pts = ((0, 0), (1, 0), (0, 1), (1, 1))
        cert = construct_independent(FrequencySet(2, pts))
        assert cert.dim == 2
        assert cert.verified
        assert cert.reduction is None
        # translated square corners give c = (-1, -1, 1) up to ordering
        assert cert.cvector.m_plus == 2
        assert cert.p_interval == OpenInterval(0, 2)

    def test_rejects_affinely_independent_set(self):
        with pytest.raises(HypothesisError):
            construct_independent(FrequencySet(2, ((0, 0), (1, 0), (0, 1))))

    def test_rejects_generated_set(self):
        with pytest.raises(HypothesisError):
            construct_independent(MOMENT_GEN)

    def test_rejects_progression_with_nonzero_step(self):
        with pytest.raises(HypothesisError):
            construct_independent(COLLINEAR_GEN)

    def test_zero_step_tail_is_one_more_point(self):
        assert construct_independent(ZERO_STEP) == construct_independent(LINE)

    def test_whole_input_basis_is_computed_once(self, monkeypatch):
        calls = affine_basis_calls(monkeypatch)
        construct_independent(SPACE_SET)
        assert calls[0] == SPACE_SET.points
        # the rest come from the bullet loop, one point left out each
        assert [len(c) for c in calls[1:]] == [4] * (len(calls) - 1)


def unit_vectors_and_diagonal(d: int) -> FrequencySet:
    """{0, e1, ..., ed, e1 + e2}: d + 2 points of full affine dimension in Z^d."""
    units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    return FrequencySet(d, ((0,) * d, *units, tuple(a + b for a, b in zip(*units[:2]))))


def reach_corpus():
    """(d, sets): d + 2 distinct points of full affine dimension, 30 sets in
    [0, 2]^5, 20 in [0, 1]^6 and 10 in [0, 1]^7."""
    rng = random.Random(20)
    for d, side, count in ((5, 2, 30), (6, 1, 20), (7, 1, 10)):
        sets: list[FrequencySet] = []
        while len(sets) < count:
            points = {tuple(rng.randint(0, side) for _ in range(d)) for _ in range(d + 2)}
            g = FrequencySet(d, tuple(sorted(points)))
            if len(points) == d + 2 and affine_dimension(g) == d:
                sets.append(g)
        yield d, sets


class TestBeyondFourDimensions:
    """The quadrature's point budget is its one limit: 8 points per axis fit up to 7-D."""

    def test_seeded_corpus_never_raises(self):
        for d, sets in reach_corpus():
            certs = [construct_independent(g) for g in sets]
            assert any(c.verified for c in certs), d
            for cert in certs:
                assert cert.dim == d and bool(cert.note) != cert.verified
                if cert.verified:  # on the largest grid within the budget, never below 8
                    assert cert.grid_points_per_axis == (16 if d == 5 else 8)

    def test_classify_attaches_a_five_dimensional_certificate(self):
        cert = classify(unit_vectors_and_diagonal(5))["certificate"]
        assert cert["dim"] == 5 and cert["verified"] and cert["grid_points_per_axis"] == 16
        assert verify_certificate(Certificate.from_json(cert)).verdict is True

    def test_eight_dimensions_exceed_the_budget_without_a_pass(self, grid_passes):
        rep = classify(unit_vectors_and_diagonal(8))
        assert rep["smp_status"] == "violated_with_certificate" and rep["note"] == ""
        cert = rep["certificate"]
        assert not cert["verified"] and cert["margin"] is None
        assert cert["note"] == "the 8^8 grid exceeds the quadrature budget of 4194304 points"
        assert grid_passes == []


class TestConstructAbundant:
    def test_moment_generator_family(self):
        certs = construct_abundant(MOMENT_GEN, 2, EvalConfig())
        assert len(certs) == 2
        first, second = certs
        assert first.cvector.m_plus == 4
        assert first.cvector.c == (-1, 1, 3)
        assert first.p_interval == OpenInterval(4, 6)
        assert first.verified
        assert second.cvector.m_plus == 9
        assert second.p_interval == OpenInterval(14, 16)
        # escalation keeps the violation intervals disjoint
        assert first.p_interval.hi <= second.p_interval.lo

    def test_count_validation(self):
        with pytest.raises(DomainError):
            construct_abundant(MOMENT_GEN, 0)

    @pytest.mark.parametrize("budget", [0, -2])
    def test_stream_budget_must_be_positive(self, budget):
        # an empty stream used to end as "stream budget exhausted", a BudgetError
        with pytest.raises(DomainError, match="stream budget must be an exact integer >= 1"):
            construct_abundant(MOMENT_GEN, 1, stream_budget=budget)

    def test_rejects_non_abundant_set(self):
        with pytest.raises(HypothesisError):
            construct_abundant(COLLINEAR_GEN, 1)
        with pytest.raises(HypothesisError):
            construct_abundant(FrequencySet(1, ((0,), (1,), (2,))), 1)

    def test_the_status_is_checked_before_the_count(self):
        with pytest.raises(HypothesisError):
            construct_abundant(COLLINEAR_GEN, 0)


class TestConstructMoment:
    def test_plane_cubic_instance(self):
        cert = construct_moment(2, 3, EvalConfig(grid_points_per_axis=1024))
        assert cert.theorem_tag == "moment_curve"
        assert cert.cvector.c == (6, -8, 3)
        assert cert.p_interval == OpenInterval(2, 4)
        assert cert.p_tested == 3.0
        assert cert.verified
        assert "k=2" in cert.note
        assert cert.frequencies[0] == (0, 0)
        assert cert.frequencies[1:] == ((2, 4), (3, 9), (4, 16))

    def test_rejects_even_and_nonpositive_exponents(self):
        with pytest.raises(DomainError):
            construct_moment(2, 4)
        with pytest.raises(DomainError):
            construct_moment(2, 0)
        with pytest.raises(DomainError):
            construct_moment(2, -1.5)

    def test_large_exponent_fails_honestly(self):
        cert = construct_moment(2, 9.5, EvalConfig(grid_points_per_axis=64))
        assert cert.cvector.c == (10, -15, 6)
        assert not cert.verified
        assert "resolution" in cert.note
        # the structural data is still usable even though numerics cannot
        # resolve a margin of order 0.25^31
        assert cert.p_interval.contains(9.5)


@pytest.fixture(scope="module")
def cert():
    return construct_independent(FrequencySet(1, ((0,), (1,), (2,))))


class TestVerifyCertificate:
    def test_round_trip_verifies(self, cert):
        res = verify_certificate(cert)
        assert res.verdict is True
        assert res.margin > 0
        assert res.rhs > res.lhs

    def test_sign_stripped_coefficients_fail(self, cert):
        tampered = replace(cert, coefficients=tuple(abs(x) for x in cert.coefficients))
        assert verify_certificate(tampered).verdict is False

    def test_exponent_moved_to_even_fails(self, cert):
        tampered = replace(cert, p_tested=2.0)
        assert verify_certificate(tampered).verdict is False

    def test_json_survives_verification(self, cert):
        res = verify_certificate(Certificate.from_json(cert.to_json()))
        assert res.verdict is True


class TestOneRule:
    """Construction's `verified` is verify_certificate's verdict with the same settings."""

    def test_certifying_margin_above_the_tolerance_verifies(self):
        cert = construct_independent(SPACE_SET)
        assert cert.verified
        assert cert.error_estimate > cert.eval_config.backend_agreement_tol
        assert verify_certificate(cert).verdict is True

    @pytest.mark.parametrize(
        "cfg", [EvalConfig(), EvalConfig(grid_points_per_axis=64)], ids=["default", "grid64"]
    )
    def test_construction_agrees_with_verify(self, cfg):
        certs = [
            construct_independent(FrequencySet(1, ((0,), (1,), (2,))), cfg),
            construct_independent(FrequencySet(2, ((0, 0), (1, 0), (0, 1), (1, 1))), cfg),
            construct_independent(SPACE_SET, cfg),
            construct_moment(2, 3, cfg),
            construct_moment(2, Fraction(11, 3), cfg),
            *construct_abundant(MOMENT_GEN, 2, cfg),
            construct_abundant(PROGRESSION_2D, 1, cfg)[0],
        ]
        for cert in certs:
            assert cert.margin is not None
            res = verify_certificate(cert, cfg)
            assert cert.verified is (res.verdict is True)
            assert (cert.lhs, cert.rhs, cert.margin) == (res.lhs, res.rhs, res.margin)


GRID64 = EvalConfig(grid_points_per_axis=64)

# (certificate, the settings it was made with), one of each kind the package
# makes; construction evaluated each of them last
MADE = {
    "line": lambda: (construct_independent(LINE), None),
    "collinear-plane": lambda: (
        construct_independent(FrequencySet(2, ((1, 1), (3, 3), (7, 7)))),
        None,
    ),
    "unit-square": lambda: (
        construct_independent(FrequencySet(2, ((0, 0), (1, 0), (0, 1), (1, 1)))),
        None,
    ),
    "space": lambda: (construct_independent(SPACE_SET), None),
    "four-dim": lambda: (construct_independent(unit_vectors_and_diagonal(4)), None),
    "zero-step-tail": lambda: (construct_independent(ZERO_STEP), None),
    "grid64": lambda: (construct_independent(SPACE_SET, GRID64), GRID64),
    "moment-plane-quintic": lambda: (construct_moment(2, 5), None),
    # margin -2.1e-6 against error 3.5e-6: inconclusive
    "moment-space-linear": lambda: (construct_moment(3, 1), None),
    "abundant-last": lambda: (construct_abundant(MOMENT_GEN, 2)[-1], None),
    # p = 47, a roundoff margin that does not verify
    "abundant-roundoff": lambda: (family({"t_start": 25}, 4)[-1], None),
    "classify-five-dim": lambda: (
        Certificate.from_json(classify(unit_vectors_and_diagonal(5))["certificate"]),
        None,
    ),
}


class TestLastEvaluation:
    """Within a process, verify_certificate reuses its last evaluation when every input matches."""

    @pytest.mark.parametrize("make", MADE.values(), ids=MADE.keys())
    def test_verify_after_a_json_round_trip_makes_no_pass(
        self, grid_passes, forget_evaluation, make
    ):
        cert, cfg = make()
        assert grid_passes and cert.margin is not None
        back = Certificate.from_json(json.loads(json.dumps(cert.to_json())))
        grid_passes.clear()
        reused = verify_certificate(back, cfg)
        assert grid_passes == []
        forget_evaluation()
        fresh = verify_certificate(back, cfg)
        assert grid_passes
        assert reused._asdict() == fresh._asdict()
        assert (reused.margin, reused.error_estimate) == (cert.margin, cert.error_estimate)
        assert cert.verified is (reused.verdict is True)

    @pytest.mark.parametrize(
        "change",
        [
            lambda c: (replace(c, p_tested=1), None),
            lambda c: (replace(c, frequencies=[list(f) for f in c.frequencies]), None),
            lambda c: (replace(c, coefficients=(1, Fraction(1, 4), Fraction(-1, 4))), None),
            lambda c: (c, EvalConfig()),
            lambda c: (c, EvalConfig(margin_safety_factor=10)),
        ],
        ids=["int-exponent", "list-frequencies", "fraction-coefficients", "default", "int-safety"],
    )
    def test_equal_inputs_of_another_type_reuse(self, grid_passes, forget_evaluation, change):
        cert = construct_independent(LINE)
        assert cert.coefficients == (1.0, 0.25, -0.25) and cert.p_tested == 1.0
        other, cfg = change(cert)
        grid_passes.clear()
        reused = verify_certificate(other, cfg)
        assert grid_passes == []
        forget_evaluation()
        assert verify_certificate(other, cfg)._asdict() == reused._asdict()
        assert reused.verdict is True

    def test_the_judgment_reruns(self, grid_passes, monkeypatch):
        cert = construct_independent(LINE)
        assert verify_certificate(cert).verdict is True
        monkeypatch.setattr(constructions, "LEAD_FLOOR", 1.0)
        grid_passes.clear()
        assert verify_certificate(cert).verdict is not True
        assert grid_passes == []

    @pytest.mark.parametrize(
        "change",
        [
            lambda c: (replace(c, coefficients=(1.0, nextafter(0.25, 1), -0.25)), None),
            lambda c: (replace(c, p_tested=1.5), None),
            lambda c: (replace(c, frequencies=((0,), (1,), (3,))), None),
            lambda c: (c, EvalConfig(backend_agreement_tol=2e-9)),
            lambda c: (c, EvalConfig(grid_points_per_axis=128)),
            lambda c: (c, EvalConfig(series_total_degree_cutoff=11)),
            lambda c: (c, EvalConfig(margin_safety_factor=20.0)),
            # the same sum, its terms in another order
            lambda c: (
                replace(c, frequencies=((0,), (2,), (1,)), coefficients=(1.0, -0.25, 0.25)),
                None,
            ),
        ],
        ids=[
            "coefficient-ulp",
            "p_tested",
            "frequency",
            "tolerance",
            "grid",
            "series-cutoff",
            "safety",
            "permuted",
        ],
    )
    def test_any_other_input_evaluates(self, grid_passes, change):
        cert = construct_independent(LINE)
        assert cert.coefficients == (1.0, 0.25, -0.25) and cert.p_tested == 1.0
        other, cfg = change(cert)
        grid_passes.clear()
        verify_certificate(other, cfg)
        assert grid_passes
        # one entry: the original is now a miss too
        grid_passes.clear()
        verify_certificate(cert)
        assert grid_passes

    def test_inputs_are_checked_on_a_hit(self):
        cert = construct_independent(LINE)
        # True == 1, but a frequency entry is never a bool
        with pytest.raises(DomainError, match="True"):
            verify_certificate(replace(cert, frequencies=((0,), (True,), (2,))))

    def test_an_evaluation_that_raises_is_not_kept(self, grid_passes, time_limit):
        cert = construct_independent(LINE)
        huge = construct_moment(2, 10**15 + 1)  # below the floor: construction does not evaluate
        for _ in range(2):
            grid_passes.clear()
            with time_limit(1), pytest.raises(BudgetError, match="beyond floating-point range"):
                verify_certificate(huge)
            assert grid_passes
        grid_passes.clear()
        assert verify_certificate(cert).verdict is True
        assert grid_passes == []

    def test_a_certificate_construction_did_not_evaluate_is_evaluated(self, grid_passes):
        cert = construct_moment(3, 3)  # leading term 2^-86.3, below the floor
        assert grid_passes == [] and cert.margin is None
        first = verify_certificate(cert)
        assert grid_passes
        grid_passes.clear()
        assert verify_certificate(cert) == first
        assert grid_passes == []
        assert first.verdict is not True

    def test_only_the_last_member_of_a_family_is_kept(self, grid_passes):
        certs = construct_abundant(MOMENT_GEN, 3)
        grid_passes.clear()
        verify_certificate(certs[-1])
        assert grid_passes == []
        verify_certificate(certs[0])
        assert grid_passes

    def test_plot_data_is_reused_and_the_engine_stays_uncached(self, grid_passes):
        cert = construct_independent(LINE)
        grid_passes.clear()
        rows = emit_plot_data(cert, 2)  # the two samples; p_tested is construction's
        assert grid_passes
        grid_passes.clear()
        assert emit_plot_data(cert, 2) == rows
        assert grid_passes == []
        for _ in range(2):
            grid_passes.clear()
            paired_difference(cert.frequencies, cert.coefficients, cert.p_tested, EvalConfig())
            assert grid_passes
        # neither replaced the entry
        grid_passes.clear()
        verify_certificate(cert)
        assert grid_passes == []

    def test_threads_racing_on_two_certificates_get_fresh_results(self, forget_evaluation):
        certs = [construct_independent(LINE), construct_independent(SPACE_SET)]
        fresh = []
        for cert in certs:
            forget_evaluation()
            fresh.append(verify_certificate(cert))

        def alternate(start: int) -> list:
            return [verify_certificate(certs[(start + i) % 2]) for i in range(20)]

        with ThreadPoolExecutor(2) as pool:
            runs = list(pool.map(alternate, (0, 1)))
        for start, results in zip((0, 1), runs):
            assert results == [fresh[(start + i) % 2] for i in range(20)]

    def test_threads_mixing_plots_and_verifications_get_fresh_results(self, forget_evaluation):
        square = FrequencySet(2, ((0, 0), (1, 0), (0, 1), (1, 1)))
        certs = [construct_independent(LINE), construct_independent(square)]
        fresh = []
        for cert in certs:
            forget_evaluation()
            verdict = verify_certificate(cert)
            forget_evaluation()
            fresh.append((verdict, emit_plot_data(cert, 3)))

        def mix(start: int) -> list:
            out = []
            for i in range(12):
                cert = certs[(start + i // 2) % 2]
                out.append(emit_plot_data(cert, 3) if i % 2 else verify_certificate(cert))
            return out

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(mix, start) for start in (0, 1, 0, 1)]
                runs = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(switch)
        for start, results in zip((0, 1, 0, 1), runs):
            assert results == [fresh[(start + i // 2) % 2][i % 2] for i in range(12)]


class TestEmitPlotData:
    def test_samples_are_interior_and_positive(self, cert):
        rows = emit_plot_data(cert, 5)
        assert len(rows) == 5
        lo, hi = cert.p_interval
        for row in rows:
            assert lo < row["p"] < hi
            assert row["rhs"] > row["lhs"]
            assert row["difference"] > 0
        ps = [row["p"] for row in rows]
        assert ps == sorted(ps)

    def test_rows_share_grids_and_match_single_evaluations(self, grid_passes):
        cert = construct_moment(2, 1.0)
        grid_passes.clear()
        rows = emit_plot_data(cert, 9)
        shared = list(grid_passes)
        grid_passes.clear()
        for row in rows:
            res = paired_difference(cert.frequencies, cert.coefficients, row["p"], EvalConfig())
            assert (row["lhs"], row["rhs"], row["difference"]) == (res.lhs, res.rhs, res.difference)
        # one pass per grid any exponent's ladder visits, where single calls repeat them
        assert sorted(shared) == sorted(set(grid_passes))
        assert len(grid_passes) > len(shared)
        # the even start grid's half, which seeds the first error estimate, is
        # read from the start grid's pass and never passed over
        start = EvalConfig().grid_points_per_axis
        assert start % 2 == 0 and start in shared
        assert start // 2 not in shared + grid_passes

    @pytest.mark.parametrize(
        "make, samples, start_grid",
        [
            (lambda: construct_independent(SPACE_SET), 9, 128),
            (lambda: construct_independent(SPACE_SET), 4, 128),  # p_tested is no sample
            (lambda: construct_independent(unit_vectors_and_diagonal(4)), 9, 32),
            (lambda: construct_moment(2, 3.25), 9, None),  # the start grid doubles
        ],
        ids=["space", "space-4", "four-dim", "moment"],
    )
    def test_the_plot_takes_p_tested_and_verification_reuses_it(
        self, grid_passes, forget_evaluation, make, samples, start_grid
    ):
        cert = make()
        forget_evaluation()
        fresh = verify_certificate(cert)
        forget_evaluation()
        grid_passes.clear()
        rows = emit_plot_data(cert, samples)
        plotted = list(grid_passes)
        assert plotted and (start_grid is None or plotted == [start_grid])
        assert verify_certificate(cert) == fresh
        assert grid_passes == plotted
        for row in rows:
            res = paired_difference(cert.frequencies, cert.coefficients, row["p"], EvalConfig())
            assert (row["lhs"], row["rhs"], row["difference"]) == (res.lhs, res.rhs, res.difference)
        # every sample's result carries its error estimate, so a copy tested at
        # any sample verifies from the plot's ladder
        grid_passes.clear()
        for row in rows:
            res = verify_certificate(replace(cert, p_tested=row["p"]))
            assert isfinite(res.error_estimate)
        assert grid_passes == []

    def test_a_plot_beyond_the_slice_sum_budget_makes_no_pass(self, grid_passes):
        # 1-D ladders reach 2^22 points, whose passes keep 32 769 slice sums a
        # row: 63 samples and p_tested on two rows exceed the 2^22 budget
        cert = construct_independent(LINE)
        grid_passes.clear()
        with pytest.raises(BudgetError, match="64 exponents keep 4194432 slice sums"):
            emit_plot_data(cert, 63)
        assert grid_passes == []

    def test_zero_samples_give_empty_table(self, cert):
        assert emit_plot_data(cert, 0) == []

    def test_negative_request_rejected(self, cert):
        with pytest.raises(DomainError):
            emit_plot_data(cert, -1)


class TestClassify:
    def test_affinely_independent_set(self):
        rep = classify(FrequencySet(2, ((0, 0), (1, 0), (0, 1))))
        assert rep["smp_status"] == "holds_all_p"
        assert rep["affinely_independent"]
        assert rep["certificate"] is None

    def test_dependent_finite_set(self):
        rep = classify(FrequencySet(1, ((0,), (1,), (2,))))
        assert rep["smp_status"] == "violated_with_certificate"
        assert rep["certificate"] is not None
        assert rep["certificate"]["verified"]

    def test_moment_generator_is_abundant(self):
        rep = classify(MOMENT_GEN)
        assert rep["abundance"] == "yes"
        assert rep["smp_status"] == "violated_with_certificate"
        assert rep["certificate"]["theorem_tag"] == "abundant"

    def test_collinear_generator_uses_sample(self):
        rep = classify(COLLINEAR_GEN)
        assert rep["abundance"] == "no"
        assert rep["smp_status"] == "violated_with_certificate"
        cert = rep["certificate"]
        assert cert["theorem_tag"] == "independent"
        assert cert["reduction"] is not None

    def test_certificate_can_be_suppressed(self):
        rep = classify(FrequencySet(1, ((0,), (1,), (2,))), with_certificate=False)
        assert rep["smp_status"] == "violated_with_certificate"
        assert rep["certificate"] is None

    def test_whole_input_basis_is_computed_once(self, monkeypatch):
        calls = affine_basis_calls(monkeypatch)
        classify(SPACE_SET, with_certificate=False)
        assert calls == [SPACE_SET.points]

    def test_abundant_set_is_scanned_once(self, monkeypatch):
        scans = []

        def spy(g, budget):
            scans.append((g, budget))
            return exact_lattice.abundance_scan(g, budget)

        monkeypatch.setattr(constructions, "abundance_scan", spy)
        rep = classify(MOMENT_GEN)
        assert scans == [(MOMENT_GEN, 64)]
        assert rep["certificate"] == construct_abundant(MOMENT_GEN, 1)[0].to_json()

    def test_zero_step_tail_is_certified(self):
        rep = classify(ZERO_STEP)
        assert rep["smp_status"] == "violated_with_certificate"
        assert rep["note"] == ""
        assert rep["certificate"] == construct_independent(LINE).to_json()

    def test_zero_step_tail_counts_beyond_eight_points(self):
        # eight listed points on a line; the tail point lifts the dimension
        gen = {"kind": "arith_progression", "params": {"start": [0, 1], "step": [0, 0]}}
        g = FrequencySet.from_json(
            {"dim": 2, "points": [[x, 0] for x in range(8)], "generator": gen}
        )
        assert classify(g, with_certificate=False)["affine_dimension"] == 2


class TestJsonContracts:
    def test_certificate_round_trip(self):
        cert = construct_independent(FrequencySet(2, ((1, 1), (3, 3), (7, 7))))
        assert Certificate.from_json(cert.to_json()) == cert

    def test_certificate_schema(self):
        schema = json.loads((DOCS / "certificate.schema.json").read_text())
        cert = construct_moment(2, 3, EvalConfig(grid_points_per_axis=256))
        jsonschema.validate(cert.to_json(), schema)

    def test_frequency_set_schema(self):
        schema = json.loads((DOCS / "frequency_set.schema.json").read_text())
        jsonschema.validate(MOMENT_GEN.to_json(), schema)
        jsonschema.validate(FrequencySet(1, ((0,), (1,), (2,))).to_json(), schema)


class TestVerifierSettings:
    """verify_certificate judges with its own settings, not the certificate's."""

    def forged(self, cert):
        # {(0,0),(1,0),(2,16),(0,1)} has c = (2, -1, 16), so its certificate
        # claims p_interval (32, 34) and is tested at 33.  On a 16-point grid
        # the frequency 16 aliases to 0, and the forged settings make any
        # error estimate pass.
        cv = build_c((2, -1, 16))
        return replace(
            cert,
            frequencies=((0, 0), (1, 0), (2, 16), (0, 1)),
            coefficients=(1.0, *assign_signs(cv, 0.25)),
            p_tested=33.0,
            eval_config=EvalConfig(
                grid_points_per_axis=16,
                backend_agreement_tol=1e300,
                margin_safety_factor=1.0000001,
            ),
        )

    def test_forged_settings_would_pass(self, cert):
        # On the 16-point grid the margin is the aliased set's, far from the
        # leading term of c, so not even the forged settings pass it.
        forged = self.forged(cert)
        assert forged.cvector.c == (2, -1, 16)
        assert verify_certificate(forged, forged.eval_config).verdict is not True

    def test_forged_certificate_does_not_verify(self, cert):
        forged = self.forged(cert)
        res = verify_certificate(forged)
        assert res.verdict is not True
        assert res.grid_points_per_axis >= EvalConfig().grid_points_per_axis
        assert verify_certificate(Certificate.from_json(forged.to_json())).verdict is not True

    def test_plot_uses_default_settings(self, cert):
        forged = self.forged(cert)
        for row in emit_plot_data(forged, 3):
            assert row["difference"] <= 1e-12


def family(params, count):
    """The first `count` members of construct_abundant on a generated plane set."""
    kind = "arith_progression" if "step" in params else "moment_curve"
    params = dict(params)
    points = params.pop("points", [])
    g = FrequencySet.from_json(
        {"dim": 2, "points": points, "generator": {"kind": kind, "params": params}}
    )
    return construct_abundant(g, count)


class TestLeadingTermRule:
    """A margin certifies only within a factor 10 of the exact leading term,
    and only when that term is at least LEAD_FLOOR."""

    @pytest.mark.parametrize(
        "params, count, p, c",
        [
            # margin 0.03125 on lhs 1.6e14: one ulp, the leading term is 5e-14
            ({"t_start": 1}, 6, 69, (-1, 15, 21)),
            ({"t_start": 25}, 4, 47, (-1, 10, 15)),
            # margin 0.0234 on lhs 5.46e13: 3 ulps
            (
                {"points": [[-2, 2], [0, -1], [3, -1]], "start": [0, 0], "step": [0, 2]},
                3,
                67,
                (-9, 21, 14),
            ),
        ],
    )
    def test_roundoff_margins_stay_unverified(self, params, count, p, c):
        member = next(m for m in family(params, count) if m.p_tested == p)
        assert member.cvector.c == c
        assert not member.verified
        assert verify_certificate(member).verdict is not True
        assert verify_certificate(replace(member, verified=True)).verdict is not True

    @pytest.mark.parametrize(
        "others, p",
        [
            # the sign condition is false, yet the 512-point grid shows 3.1e-8
            (((-38,), (-46,)), 5),
            # the 256-point grid shows 2.6e-9; a 65536-point grid shows -1.8e-15
            (((-22,), (-29,)), 11),
        ],
    )
    def test_aliased_margins_do_not_verify(self, cert, others, p):
        cv = build_c(build_v(others))
        aliased = replace(
            cert,
            frequencies=((0,), *others),
            coefficients=(1.0, *assign_signs(cv, 0.25)),
            p_tested=float(p),
        )
        res = verify_certificate(aliased)
        assert res.margin > 0
        assert res.verdict is False

    def test_aliased_independent_set_does_not_verify(self, cert):
        # {(0,0),(1,0),(2,256)} is affinely independent; 256 aliases to 0 on
        # both compared grids, so the set looks like {0, 1, 2}
        forged = replace(cert, frequencies=((0, 0), (1, 0), (2, 256)))
        assert verify_certificate(forged).verdict is False

    def test_huge_relation_entry_is_judged_quickly(self, cert, time_limit):
        # 2 + 256 k aliases to 2 on the compared grids, but c = (2 + 256 k, -1)
        # has an entry near 10^12 and a leading term of size 4^-(10^12)
        forged = replace(cert, frequencies=((0,), (1,), (2 + 256 * 3_906_250_000,)))
        with time_limit(2):
            res = verify_certificate(forged)
        assert res.margin > 0
        assert res.verdict is False

    def test_stored_cvector_must_be_the_frequencies_relation(self, cert):
        doc = {**cert.to_json(), "cvector": build_c((5, -3)).to_json()}
        with pytest.raises(DomainError, match="cvector"):
            Certificate.from_json(doc)

    def test_leading_term_needs_the_origin_with_coefficient_one(self, cert):
        rescaled = replace(cert, coefficients=(0.5, *cert.coefficients[1:]))
        assert verify_certificate(rescaled).verdict is False
        shifted = replace(cert, frequencies=((1,), (2,), (3,)))
        assert verify_certificate(shifted).verdict is False

    def test_huge_odd_exponent_is_refused_without_evaluation(self, time_limit, grid_passes):
        # the leading term 4^-(10^15) is below the floor, so construction does
        # not evaluate; verification and plotting do, and the engine refuses
        with time_limit(5):
            cert = construct_moment(2, 10**15 + 1)
        assert grid_passes == []
        assert not cert.verified and cert.margin is None
        assert cert.note.endswith(" is below numerical resolution")
        for evaluate in (verify_certificate, emit_plot_data):
            with time_limit(1), pytest.raises(BudgetError) as info:
                evaluate(cert)
            assert str(info.value) == "the mean of |sum|^1e+15 is beyond floating-point range"

    def test_beyond_float_range_above_the_floor_keeps_the_engine_message(self):
        # p = 290 359 369 and a leading term above the floor: construction
        # evaluates, and the engine finds the mean of |sum|^p beyond range
        points = [(-55, 96, -82, 98), (24, -57, 19, 30), (-23, -62, 18, -34)]
        points += [(54, -98, -11, -33), (81, 5, 75, 39)]
        cert = construct_independent(FrequencySet(4, ((0, 0, 0, 0), *points)))
        assert cert.p_tested == 290_359_369
        lead = log2_leading_term(cert.p_tested, cert.cvector, cert.coefficients[1:])
        assert lead >= log2(constructions.LEAD_FLOOR)
        assert not cert.verified and cert.margin is None
        assert cert.note == "the mean of |sum|^2.90359e+08 is beyond floating-point range"

    def test_beyond_float_range_is_refused_at_the_first_chunk(self, time_limit):
        points = [(-55, 96, -82, 98), (24, -57, 19, 30), (-23, -62, 18, -34)]
        points += [(54, -98, -11, -33), (81, 5, 75, 39)]
        cert = construct_independent(FrequencySet(4, ((0, 0, 0, 0), *points)))
        # a whole start-grid pass took 0.11 s for the verify and 0.9 s for the plot
        for evaluate in (verify_certificate, emit_plot_data):
            with time_limit(0.1), pytest.raises(BudgetError, match="beyond floating-point range"):
                evaluate(cert)

    def test_roundoff_below_the_floor_does_not_verify(self, cert):
        # c = (4, -1) at p = 5 with magnitude 2^-10: leading term 2^-51.4; the
        # grid margin is 2 ulp of the sides and once matched it within 10x
        small = 2.0**-10
        forged = replace(
            cert, frequencies=((0,), (2,), (8,)), coefficients=(1.0, small, -small), p_tested=5.0
        )
        lead = log2_leading_term(5.0, forged.cvector, forged.coefficients[1:])
        assert forged.cvector.c == (4, -1) and lead < log2(constructions.LEAD_FLOOR)
        res = verify_certificate(forged)
        assert res.margin > 0 and abs(log2(res.margin) - lead) <= log2(10)
        assert res.verdict is False


class TestRoundingFloor:
    """A ladder stops at the first grid whose step is within 4 ulps of its largest mean."""

    @pytest.mark.parametrize("p, c", [(47, (-1, 10, 15)), (69, (-1, 15, 21))])
    def test_floor_bound_members_stop_at_512(self, grid_passes, forget_evaluation, p, c):
        # the pinned moment-curve family (t_start 1); its last evaluation is
        # forgotten, so verification runs the ladder afresh
        member = next(m for m in family({"t_start": 1}, 6) if m.p_tested == p)
        forget_evaluation()
        grid_passes.clear()
        assert member.cvector.c == c
        res = verify_certificate(member)
        # 256 steps by 16 105 (p = 47) and 216 795 (p = 69) ulps; 512 by 1 ulp
        assert grid_passes == [256, 512]
        assert res.grid_points_per_axis == member.grid_points_per_axis == 512
        step, sides = res.error_estimate, max(res.lhs, res.rhs)
        assert member.eval_config.backend_agreement_tol < step <= 4 * ulp(sides)
        # doubling on would chase rounding; at p = 69 grids 512 and 1024 tie
        # exactly, an error of 0 that would read as False
        assert res.verdict == "inconclusive"
        assert not member.verified


class TestCertificateJson:
    @pytest.mark.parametrize(
        "key, index, value",
        [
            ("frequencies", (1, 0), 1.5),
            ("frequencies", (1, 0), "1"),
            ("frequencies", (1, 0), True),
            ("coefficients", (1,), "0.25"),
            ("coefficients", (1,), True),
            ("p_tested", (), "1"),
            ("p_tested", (), True),
            ("margin", (), "0.1"),
            ("lhs", (), False),
            ("verified", (), "no"),
            ("verified", (), 1),
            ("verified", (), None),
            ("dim", (), "1"),
            ("p_interval", (0,), None),
        ],
    )
    def test_wrong_types_are_rejected_not_coerced(self, cert, key, index, value):
        doc = cert.to_json()
        if index:
            slot = doc[key]
            for i in index[:-1]:
                slot = slot[i]
            slot[index[-1]] = value
        else:
            doc[key] = value
        with pytest.raises(DomainError, match=repr(value)):
            Certificate.from_json(doc)

    @pytest.mark.parametrize("key", ["v", "c", "c_plus", "c_minus", "D", "m_plus"])
    @pytest.mark.parametrize("value", [1.5, "2", True])
    def test_cvector_entries_must_be_integers(self, cert, key, value):
        doc = cert.to_json()
        entry = doc["cvector"][key]
        doc["cvector"][key] = [value, *entry[1:]] if isinstance(entry, list) else value
        with pytest.raises(DomainError, match=repr(value)):
            Certificate.from_json(doc)

    @pytest.mark.parametrize("key", ["frequencies", "coefficients", "p_tested", "eval_config"])
    def test_missing_key_is_a_domain_error(self, cert, key):
        doc = cert.to_json()
        del doc[key]
        with pytest.raises(DomainError, match=key):
            Certificate.from_json(doc)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("frequencies", [["a"]]),
            ("coefficients", 3),
            ("cvector", None),
            ("eval_config", []),
            ("reduction", {"origin": [0, 0], "basis_columns": [[1]]}),
        ],
    )
    def test_malformed_value_is_a_domain_error(self, cert, key, value):
        doc = dict(cert.to_json(), **{key: value})
        with pytest.raises(DomainError):
            Certificate.from_json(doc)

    def test_reduction_needs_one_column_per_dimension(self, cert):
        # three basis columns for the 1-D certificate of {0, 1, 2}
        reduction = {"origin": [0, 5], "basis_columns": [[1, 0], [2, 3], [4, 4]]}
        with pytest.raises(DomainError, match="reduction needs 1 basis_columns"):
            Certificate.from_json({**cert.to_json(), "reduction": reduction})

    @pytest.mark.parametrize(
        "change",
        [
            {"grid_points_per_axis": "abc"},
            {"grid_points_per_axis": 1.5},
            {"grid_points_per_axis": True},
            {"theorem_tag": 3},
            {"theorem_tag": "guessed"},
            {"note": ["a"]},
            {"reduction": "none"},
            {"reduction": {"origin": [0]}},
            {"reduction": {"origin": [0.5], "basis_columns": []}},
            {"schema_version": 99},
            {"schema_version": True},
            {"unknown": 1},
            {"eval_config": {"grid_points_per_axis": 256}},
            {"eval_config": {**asdict(EvalConfig()), "grid_points_per_axis": 256.5}},
            {"eval_config": {**asdict(EvalConfig()), "margin_safety_factor": True}},
            {"eval_config": {**asdict(EvalConfig()), "extra": 1}},
            {"dim": 0},
            {"p_tested": -1.0},
            {"frequencies": [[0], [1]], "coefficients": [1.0, 0.25]},
            {"cvector": {**build_c((2, -1)).to_json(), "extra": 1}},
            {"cvector": {**build_c((2, -1)).to_json(), "D": 0}},
            {"cvector": {**build_c((2, -1)).to_json(), "c_plus": [-2, 0]}},
            {"cvector": build_c((1, -1)).to_json()},
        ],
    )
    def test_rejected_as_the_schema_rejects(self, cert, change):
        schema = json.loads((DOCS / "certificate.schema.json").read_text())
        doc = {**cert.to_json(), **change}
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, schema)
        with pytest.raises(DomainError):
            Certificate.from_json(doc)


class TestDerivedEntries:
    """dim, cvector and p_interval come from the frequencies, never from storage."""

    def test_thirteen_stored_fields(self):
        names = {f.name for f in fields(Certificate)}
        assert len(names) == 13
        assert not names & {"dim", "cvector", "p_interval"}

    def test_derived_from_the_frequencies(self, cert):
        assert (cert.dim, cert.cvector.c, cert.p_interval) == (1, (2, -1), OpenInterval(0, 2))
        moved = replace(cert, frequencies=((0, 0), (1, 0), (0, 1), (1, 1)))
        assert (moved.dim, moved.cvector.c, moved.p_interval) == (2, (-1, -1, 1), (0, 2))
        moment = construct_moment(2, 5.5)
        assert moment.p_interval == OpenInterval(4, 6)
        assert replace(moment, p_tested=7.5).p_interval == OpenInterval(6, 8)

    @pytest.mark.parametrize(
        "frequencies",
        [
            ((0, 0), (1, 0), (2, 16)),
            ((0,), (1,), (2,), (3,)),
            ((0,), (1,), (1,)),
            ((0, 0), (1,), (2,)),
        ],
        ids=["too-few", "too-many", "repeated", "mixed-dimension"],
    )
    def test_no_relation_raises(self, cert, frequencies):
        bad = replace(cert, frequencies=frequencies)
        for name in ("dim", "cvector", "p_interval"):
            with pytest.raises(MajorantError):
                getattr(bad, name)

    def test_balanced_relation_has_no_interval(self, cert):
        # c = (-1, -1, 2) sums to 0: m+ = m- = 2 gives no sign change
        bad = replace(cert, frequencies=((0, 0), (2, 0), (0, 2), (1, 1)))
        assert (bad.dim, bad.cvector.c) == (2, (-1, -1, 2))
        with pytest.raises(MajorantError):
            bad.p_interval

    @pytest.mark.parametrize(
        "change",
        [
            {"p_interval": [10, 12]},
            {"p_interval": [0.0, 2]},
            {"p_interval": [False, 2]},
            {"dim": 5},
            {"dim": 1.0},
            {"dim": True},
            {"cvector": build_c((5, -3)).to_json()},
            {"cvector": {**build_c((2, -1)).to_json(), "m_minus": 1.0}},
            {"cvector": {**build_c((2, -1)).to_json(), "c": [2.0, -1]}},
            {"cvector": {**build_c((2, -1)).to_json(), "c_plus": [2, False]}},
            {"cvector": {**build_c((2, -1)).to_json(), "extra": 1}},
            {"cvector": {**build_c((2, -1)).to_json(), "c": [2, -1, 0]}},
            {"cvector": {**build_c((2, -1)).to_json(), "c": {"0": 2, "1": -1}}},
            {"p_tested": 5},
            {"p_tested": 2.0},
            {"p_tested": 3.0},
            {"p_tested": inf},
            {"p_tested": float("nan")},
            {"coefficients": [1.0, 0.25, -0.25, 0.25]},
            {"coefficients": [1.0, 0.25, inf]},
            {"frequencies": [[0, 0], [1], [2]]},
            {"frequencies": [[0], [1], [3]]},
        ],
    )
    def test_load_rejects_what_the_frequencies_contradict(self, cert, change):
        with pytest.raises(DomainError):
            Certificate.from_json({**cert.to_json(), **change})

    @pytest.mark.parametrize(
        "change",
        [
            {"cvector": dict(reversed(build_c((2, -1)).to_json().items()))},
            {"cvector": {**build_c((2, -1)).to_json(), "c": (2, -1)}, "p_interval": (0, 2)},
        ],
        ids=["reordered-keys", "tuples"],
    )
    def test_load_accepts_the_same_json(self, cert, change):
        assert Certificate.from_json({**cert.to_json(), **change}) == cert

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"p_interval": [10, 12]}, "p_interval [10, 12] is not the frequencies' [0, 2]"),
            # c = (2, -1) fails the sign condition at 3: the gap (2, 4) is no violation interval
            (
                {"theorem_tag": "moment_curve", "p_tested": 3.0, "p_interval": [2, 4]},
                "the sign condition fails at p_tested 3",
            ),
        ],
    )
    def test_load_states_the_contradiction_once(self, cert, change, message):
        with pytest.raises(DomainError) as exc:
            Certificate.from_json({**cert.to_json(), **change})
        assert str(exc.value) == message

    def test_moment_interval_follows_the_exponent(self):
        doc = construct_moment(2, 5.5).to_json()
        assert Certificate.from_json(doc).p_interval == OpenInterval(4, 6)
        for p in (6.5, 4.0, -0.5, inf):
            with pytest.raises(DomainError):
                Certificate.from_json({**doc, "p_tested": p})


class TestOneDerivation:
    """A certificate derives its relation c once; construction hands over the one it built."""

    @pytest.fixture
    def build_v_calls(self, monkeypatch):
        calls: list[tuple] = []
        real = constructions.build_v

        def spy(freqs):
            calls.append(tuple(freqs))
            return real(freqs)

        monkeypatch.setattr(constructions, "build_v", spy)
        return calls

    def test_a_certify_request_derives_c_twice(self, build_v_calls):
        cert = construct_independent(SPACE_SET)
        back = Certificate.from_json(json.loads(json.dumps(cert.to_json())))
        assert verify_certificate(back).verdict is True
        # once to choose the certificate, once to check the loaded one
        assert len(build_v_calls) == 2

    def test_replace_derives_c_again(self, cert, build_v_calls):
        moved = replace(cert, frequencies=((0, 0), (1, 0), (0, 1), (1, 1)))
        assert moved.cvector.c == (-1, -1, 1) != cert.cvector.c
        assert moved.dim == 2 and moved.p_interval == (0, 2)
        assert build_v_calls == [((1, 0), (0, 1), (1, 1))]

    @pytest.mark.parametrize(
        "make",
        [
            lambda: construct_independent(SPACE_SET),
            lambda: construct_abundant(MOMENT_GEN, 2)[1],
            lambda: construct_moment(3, 2.5),
            lambda: construct_moment(2, Fraction(11, 3)),
        ],
        ids=["independent", "abundant", "moment", "moment-fraction"],
    )
    def test_the_relation_handed_over_is_the_frequencies_own(self, make):
        cert = make()
        assert replace(cert).cvector == cert.cvector
        assert Certificate.from_json(cert.to_json()) == cert


class TestConstructMomentExponent:
    @pytest.mark.parametrize("p", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_exponent_rejected(self, p):
        with pytest.raises(DomainError):
            construct_moment(2, p)


class TestOneLeadingTerm:
    """Construction's gate and verification read one leading term, at the float p_tested."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: construct_moment(2, Fraction(11, 3)),
            lambda: construct_abundant(MOMENT_GEN, 1)[0],
        ],
        ids=["moment-fraction", "abundant"],
    )
    def test_every_call_takes_p_tested(self, monkeypatch, make):
        calls: list = []
        real = constructions.log2_leading_term

        def spy(p, cv, a):
            calls.append(p)
            return real(p, cv, a)

        monkeypatch.setattr(constructions, "log2_leading_term", spy)
        cert = make()
        assert verify_certificate(cert).verdict is cert.verified is True
        assert len(calls) >= 2
        assert all(type(p) is float and p == cert.p_tested for p in calls), calls


class TestBeyondFloatPrecision:
    """A certificate whose float p_tested leaves its own interval is refused, never emitted."""

    def test_the_largest_exact_exponent_is_kept(self):
        cert = construct_independent(FrequencySet(1, ((0,), (1,), (2**52 + 1,))))
        assert cert.p_tested == 2**53 - 1
        assert Certificate.from_json(cert.to_json()) == cert

    @pytest.mark.parametrize(
        "make",
        [
            lambda: construct_independent(HUGE_LINE),
            lambda: construct_independent(FrequencySet(1, ((0,), (1,), (2**52 + 2,)))),
            lambda: construct_certificates(
                FrequencySet.from_json(
                    {
                        "dim": 1,
                        "points": [[0], [1]],
                        "generator": {
                            "kind": "arith_progression",
                            "params": {"start": [10**20], "step": [10**20]},
                        },
                    }
                ),
                2,
            ),
        ],
        ids=["ten-to-twenty", "two-to-fifty-two-plus-two", "family"],
    )
    def test_a_rounded_exponent_is_a_budget_error(self, make):
        with pytest.raises(BudgetError, match=r"^p_tested \S+ is not inside \["):
            make()

    def test_classify_notes_the_refusal(self):
        report = classify(HUGE_LINE)
        assert report["certificate"] is None
        assert report["note"] == (
            "certificate construction failed: p_tested 2e+20 is not inside "
            "[199999999999999999996, 199999999999999999998]"
        )

    def test_a_moment_exponent_is_even_when_its_float_is(self):
        with pytest.raises(DomainError, match="even"):
            construct_moment(2, 2**53 + 1)
