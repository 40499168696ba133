"""End-to-end constructors, certification, verification, and classification.

Frozen instances were computed once from the building blocks (certificate
vector of {1, 2} translated from {0, 1, 2}, closed-form moment data) and
pinned here; everything else checks structure and invariants.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields, replace
from math import inf
from pathlib import Path

import jsonschema
import pytest

from majorant.constructions import (
    Certificate,
    assign_signs,
    classify,
    construct_abundant,
    construct_independent,
    construct_moment,
    emit_plot_data,
    verify_certificate,
)
from majorant.cvector import OpenInterval, build_c, build_v
from majorant.errors import BudgetError, DomainError, HypothesisError, MajorantError
from majorant.exact_lattice import FrequencySet
from majorant.lp_engine import EvalConfig

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

    def test_rejects_non_abundant_set(self):
        with pytest.raises(HypothesisError):
            construct_abundant(COLLINEAR_GEN, 1)
        with pytest.raises(HypothesisError):
            construct_abundant(FrequencySet(1, ((0,), (1,), (2,))), 1)


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
        assert cert.cvector.total_order == 31
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
            *construct_abundant(MOMENT_GEN, 2, cfg),
        ]
        for cert in certs:
            assert cert.margin is not None
            res = verify_certificate(cert, cfg)
            assert cert.verified is (res.verdict is True)
            assert (cert.lhs, cert.rhs, cert.margin) == (res.lhs, res.rhs, res.margin)


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
    """A margin certifies only within a factor 10 of the exact leading term."""

    @pytest.mark.parametrize(
        "params, count, p, c",
        [
            # margin 0.1875 on lhs 1.6e14: a few ulps, the leading term is 5e-14
            ({"t_start": 1}, 6, 69, (-1, 15, 21)),
            ({"t_start": 25}, 4, 47, (-1, 10, 15)),
            # margin 0.0312 on lhs 5.46e13
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

    def test_huge_odd_exponent_is_refused_without_evaluation(self, time_limit):
        with time_limit(5):
            cert = construct_moment(2, 10**15 + 1)
        assert not cert.verified and cert.margin is None
        assert cert.note.endswith("; exponent 1e+15 is beyond floating-point evaluation range")
        for evaluate in (verify_certificate, emit_plot_data):
            with time_limit(1), pytest.raises(BudgetError, match="evaluation range"):
                evaluate(cert)


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
        [("frequencies", [["a"]]), ("coefficients", 3), ("cvector", None), ("eval_config", [])],
    )
    def test_malformed_value_is_a_domain_error(self, cert, key, value):
        doc = dict(cert.to_json(), **{key: value})
        with pytest.raises(DomainError):
            Certificate.from_json(doc)

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

    def test_moment_interval_follows_the_exponent(self):
        doc = construct_moment(2, 5.5).to_json()
        assert Certificate.from_json(doc).p_interval == OpenInterval(4, 6)
        for p in (6.5, 4.0, -0.5, inf):
            with pytest.raises(DomainError):
                Certificate.from_json({**doc, "p_tested": p})


class TestConstructMomentExponent:
    @pytest.mark.parametrize("p", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_exponent_rejected(self, p):
        with pytest.raises(DomainError):
            construct_moment(2, p)
