"""Command-line behavior: exit codes, JSON output, CSV plots, diagnostics.

Tests call main() in process and read stdout through capsys; no subprocess
is spawned, so the suite stays fast and failures carry tracebacks.
"""

from __future__ import annotations

import copy
import csv
import inspect
import json
from dataclasses import replace
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from majorant import constructions, moment_curve
from majorant.cli import _build_parser, main
from majorant.constructions import (
    Certificate,
    construct_certificates,
    construct_independent,
    construct_moment,
    emit_plot_data,
    verify_certificate,
)
from majorant.cvector import build_c
from majorant.errors import DomainError
from majorant.exact_lattice import FrequencySet
from majorant.lp_engine import EvalConfig, paired_difference

DOCS = Path(__file__).resolve().parent.parent / "docs"

LINE_SET = {"dim": 1, "points": [[0], [1], [2]]}
INDEPENDENT_SET = {"dim": 2, "points": [[0, 0], [1, 0], [0, 1]]}
# c = (2, 0, 0, -1): its margin certifies while the error estimate stays above --tol
SPACE_SET = {"dim": 3, "points": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [2, 0, 0]]}
# {0, 1} with a zero-step tail at 2: finite, so it takes the independent constructor
ZERO_STEP_SET = {
    "dim": 1,
    "points": [[0], [1]],
    "generator": {"kind": "arith_progression", "params": {"start": [2], "step": [0]}},
}
# an infinite set on a line in Z^2: dependent, not abundant
LINE_GEN_SET = {
    "dim": 2,
    "points": [[0, 0], [1, 0]],
    "generator": {"kind": "arith_progression", "params": {"start": [2, 0], "step": [1, 0]}},
}
MOMENT_GEN_SET = {
    "dim": 2,
    "points": [],
    "generator": {"kind": "moment_curve", "params": {}},
}
# abundant sets whose first certificates verify: 3-D ones at the 128 start grid, which
# cannot double within the point budget, and a 2-D one whose ladders start at 256
MOMENT_GEN_3D = {
    "dim": 3,
    "points": [],
    "generator": {"kind": "moment_curve", "params": {"t_start": 7}},
}
PROGRESSION_3D = {
    "dim": 3,
    "points": [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
    "generator": {"kind": "arith_progression", "params": {"start": [1, 1, 1], "step": [1, 2, -1]}},
}
PROGRESSION_2D = {
    "dim": 2,
    "points": [[0, 0], [1, 0], [0, 1]],
    "generator": {"kind": "arith_progression", "params": {"start": [2, 1], "step": [1, 1]}},
}
UNIT_SQUARE = {"dim": 2, "points": [[0, 0], [1, 0], [0, 1], [1, 1]]}
WEAK_QUERY = {
    "d": 2,
    "p": 3,
    "support": [1, 2],
    "coefficients": [0.5, -0.4],
    "majorant": [0.5, 0.4],
}


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_independent_set_holds(self, tmp_path, capsys):
        inp = write_json(tmp_path / "g.json", INDEPENDENT_SET)
        code, out, _ = run(capsys, "classify", "--input", inp)
        assert code == 0
        report = json.loads(out)
        assert report["smp_status"] == "holds_all_p"
        assert report["certificate"] is None

    def test_dependent_set_carries_certificate(self, tmp_path, capsys):
        inp = write_json(tmp_path / "g.json", LINE_SET)
        code, out, _ = run(capsys, "classify", "--input", inp)
        assert code == 0
        report = json.loads(out)
        assert report["smp_status"] == "violated_with_certificate"
        assert report["certificate"]["verified"] is True


class TestConstruct:
    def test_finite_set_single_certificate(self, tmp_path, capsys):
        inp = write_json(tmp_path / "g.json", LINE_SET)
        code, out, _ = run(capsys, "construct", "--input", inp)
        assert code == 0
        cert = json.loads(out)
        assert cert["theorem_tag"] == "independent"
        assert cert["verified"] is True
        assert cert["coefficients"] == [1.0, 0.25, -0.25]

    def test_zero_step_tail_gives_one_certificate(self, tmp_path, capsys):
        inp = write_json(tmp_path / "g.json", ZERO_STEP_SET)
        code, out, _ = run(capsys, "construct", "--input", inp)
        assert code == 0
        cert = json.loads(out)
        assert isinstance(cert, dict)
        assert cert["frequencies"] == [[0], [1], [2]]

    def test_count_on_a_finite_set_says_it_is_ignored(self, tmp_path, capsys):
        inp = write_json(tmp_path / "g.json", LINE_SET)
        _, single, _ = run(capsys, "construct", "--input", inp)
        code, out, err = run(capsys, "construct", "--input", inp, "--count", "3")
        assert (code, out) == (0, single)
        assert err == "a finite set gives one certificate; --count 3 ignored\n"

    def test_count_note_follows_a_written_plot_only(self, tmp_path, capsys):
        inp = write_json(tmp_path / "g.json", LINE_SET)
        plot = str(tmp_path / "missing-dir" / "rows.csv")
        code, out, err = run(capsys, "construct", "--input", inp, "--count", "3", "--plot", plot)
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot write") and err.count("\n") == 1

    def test_set_that_is_not_abundant_gets_the_classify_certificate(self, tmp_path, capsys):
        inp = write_json(tmp_path / "g.json", LINE_GEN_SET)
        _, out, _ = run(capsys, "classify", "--input", inp)
        report = json.loads(out)
        assert report["abundance"] == "no"
        assert report["smp_status"] == "violated_with_certificate"
        code, out, err = run(capsys, "construct", "--input", inp)
        assert (code, err) == (0, "")
        assert json.loads(out) == [report["certificate"]]
        code, out, err = run(capsys, "construct", "--input", inp, "--count", "3")
        assert (code, json.loads(out)) == (0, [report["certificate"]])
        assert err == "found 1 of 3 certificates: the set is not affinely abundant\n"

    def test_inconclusive_scan_is_not_called_not_abundant(self, tmp_path, capsys):
        # the 400 listed points outlast the scan's stream, though the tail spans the plane
        tail = {"kind": "arith_progression", "params": {"start": [0, 1], "step": [0, 1]}}
        doc = {"dim": 2, "points": [[x, 0] for x in range(400)], "generator": tail}
        inp = write_json(tmp_path / "g.json", doc)
        _, out, _ = run(capsys, "classify", "--input", inp, "--scan-budget", "64")
        assert json.loads(out)["abundance"] == "inconclusive"
        code, out, err = run(capsys, "construct", "--input", inp, "--count", "3")
        assert (code, len(json.loads(out))) == (0, 1)
        note = "found 1 of 3 certificates: abundance scan inconclusive within --scan-budget 64"
        assert err == note + "\n"

    def test_generator_set_emits_array(self, tmp_path, capsys):
        inp = write_json(tmp_path / "g.json", MOMENT_GEN_SET)
        code, out, err = run(capsys, "construct", "--input", inp, "--count", "2")
        assert (code, err) == (0, "")
        certs = json.loads(out)
        assert isinstance(certs, list) and len(certs) == 2
        assert certs[0]["cvector"]["m_plus"] < certs[1]["cvector"]["m_plus"]

    def test_plot_file(self, tmp_path, capsys):
        inp = write_json(tmp_path / "g.json", LINE_SET)
        plot = tmp_path / "rows.csv"
        code, _, err = run(
            capsys, "construct", "--input", inp, "--plot", str(plot), "--plot-samples", "4"
        )
        assert code == 0
        assert "4 plot rows" in err
        with open(plot, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        for row in rows:
            assert float(row["rhs"]) > float(row["lhs"])
            assert float(row["difference"]) > 0

    def test_independent_input_is_a_hypothesis_error(self, tmp_path, capsys):
        inp = write_json(tmp_path / "g.json", INDEPENDENT_SET)
        code, _, err = run(capsys, "construct", "--input", inp)
        assert code == 1
        assert "error:" in err

    def test_partial_family_says_so_on_stderr(self, tmp_path, capsys):
        inp = write_json(tmp_path / "g.json", MOMENT_GEN_SET)
        argv = ["construct", "--input", inp, "--count", "6", "--stream-budget", "6"]
        code, out, err = run(capsys, *argv)
        assert code == 0
        assert len(json.loads(out)) == 3
        assert err == "found 3 of 6 certificates within --stream-budget 6\n"

    def test_an_exponent_beyond_float_precision_exits_two(self, tmp_path, capsys):
        # m_plus = 10^20, so p = 2 m_plus - 3 rounds to 2e+20, outside (2e20 - 4, 2e20 - 2)
        inp = write_json(tmp_path / "g.json", {"dim": 1, "points": [[0], [1], [10**20]]})
        code, out, err = run(capsys, "construct", "--input", inp)
        assert (code, out) == (2, "")
        assert err == (
            "inconclusive: p_tested 2e+20 is not inside "
            "[199999999999999999996, 199999999999999999998]\n"
        )

    def test_exhausted_stream_budget_is_one_line(self, tmp_path, capsys):
        inp = write_json(tmp_path / "g.json", MOMENT_GEN_SET)
        code, out, err = run(capsys, "construct", "--input", inp, "--stream-budget", "2")
        assert (code, out) == (2, "")
        assert err == "inconclusive: stream budget exhausted before any certificate was found\n"


class TestPlotThenCertify:
    """`construct --plot` and `moment --plot` choose, plot the first certificate,
    then certify: its certification reuses the plot's ladder, which takes p_tested."""

    @staticmethod
    def plotted(capsys, tmp_path, grid_passes, argv):
        """(certificates, CSV rows, grid passes) of one CLI request with --plot."""
        plot = tmp_path / "rows.csv"
        grid_passes.clear()
        code, out, _ = run(capsys, *argv, "--plot", str(plot))
        assert code == 0
        with open(plot, newline="") as fh:
            rows = list(csv.DictReader(fh))
        docs = json.loads(out)
        return (docs if isinstance(docs, list) else [docs]), rows, list(grid_passes)

    @staticmethod
    def assert_as_separate_calls(docs, expected, rows, forget):
        """The JSON is what the constructor gives after a forgotten memo, the CSV what
        `paired_difference` gives sample by sample, and so is p_tested's error."""
        forget()
        assert [c.to_json() for c in expected()] == docs
        first = Certificate.from_json(docs[0])
        for p, key in [(first.p_tested, None)] + [(float(row["p"]), row) for row in rows]:
            forget()
            res = paired_difference(first.frequencies, first.coefficients, p, EvalConfig())
            if key is None:
                assert res.error_estimate == docs[0]["error_estimate"]
            else:
                got = [float(key[k]) for k in ("lhs", "rhs", "difference")]
                assert got == [res.lhs, res.rhs, res.difference]

    @pytest.mark.parametrize("points", [MOMENT_GEN_3D, PROGRESSION_3D], ids=["moment", "prog"])
    def test_a_3d_family_makes_one_pass(
        self, tmp_path, capsys, grid_passes, forget_evaluation, points
    ):
        inp = write_json(tmp_path / "g.json", points)
        argv = ["construct", "--input", inp, "--count", "1"]
        docs, rows, passes = self.plotted(capsys, tmp_path, grid_passes, argv)
        assert passes == [128]
        assert len(rows) == 9 and docs[0]["verified"] is True
        g = FrequencySet.from_json(points)
        self.assert_as_separate_calls(
            docs, lambda: construct_certificates(g, 1), rows, forget_evaluation
        )

    @pytest.mark.parametrize(
        "argv, samples, sampled",
        [
            (["construct", "--input", "GEN", "--count", "3"], 9, True),
            # p_tested is no sample: the plot's ladder takes it besides them
            (["construct", "--input", "GEN", "--plot-samples", "4"], 4, False),
            (["moment", "--d", "2", "--p", "3.25"], 9, False),
        ],
        ids=["count-3", "samples-4", "moment"],
    )
    def test_the_first_certificate_takes_one_ladder(
        self, tmp_path, capsys, grid_passes, forget_evaluation, argv, samples, sampled
    ):
        inp = write_json(tmp_path / "g.json", PROGRESSION_2D)
        argv = [inp if a == "GEN" else a for a in argv]
        docs, rows, passes = self.plotted(capsys, tmp_path, grid_passes, argv)
        first = Certificate.from_json(docs[0])
        assert len(rows) == samples and all(doc["verified"] for doc in docs)
        assert (first.p_tested in [float(row["p"]) for row in rows]) is sampled
        # the plot's ladder, then a ladder for each later certificate
        grid_passes.clear()
        forget_evaluation()
        emit_plot_data(first, samples)
        for doc in docs[1:]:
            forget_evaluation()
            verify_certificate(Certificate.from_json(doc))
        assert passes == grid_passes
        if argv[0] == "moment":
            expected = lambda: [construct_moment(2, 3.25)]
        else:
            count = int(argv[argv.index("--count") + 1]) if "--count" in argv else 1
            expected = lambda: construct_certificates(FrequencySet.from_json(PROGRESSION_2D), count)
        self.assert_as_separate_calls(docs, expected, rows, forget_evaluation)

    def test_a_plot_beyond_the_slice_sum_budget_exits_two(self, tmp_path, capsys, time_limit):
        # 10^8 samples on two rows of the 2048 grid's 1025 slices: a pass would
        # keep 2 x 10^11 slice sums; neither the samples nor any array is built
        inp = write_json(tmp_path / "sq.json", UNIT_SQUARE)
        plot = tmp_path / "f.csv"
        argv = ["construct", "--input", inp, "--plot-samples", "100000000", "--plot", str(plot)]
        with time_limit(5):
            code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("inconclusive: 100000001 exponents keep ")
        assert err.endswith(" beyond the quadrature budget of 4194304\n") and err.count("\n") == 1
        assert not plot.exists()


class TestVerify:
    @pytest.mark.parametrize("points", [LINE_SET, SPACE_SET], ids=["line", "space"])
    def test_pipeline_round_trip(self, tmp_path, capsys, points):
        inp = write_json(tmp_path / "g.json", points)
        code, out, _ = run(capsys, "construct", "--input", inp)
        assert code == 0
        assert json.loads(out)["verified"] is True
        cert_path = write_json(tmp_path / "cert.json", json.loads(out))
        code, out, _ = run(capsys, "verify", "--input", cert_path)
        assert code == 0
        assert json.loads(out)["verdict"] is True

    def test_verify_after_construct_reuses_the_evaluation(
        self, tmp_path, capsys, grid_passes, forget_evaluation
    ):
        inp = write_json(tmp_path / "g.json", SPACE_SET)
        _, out, _ = run(capsys, "construct", "--input", inp)
        assert grid_passes
        cert_path = write_json(tmp_path / "cert.json", json.loads(out))
        grid_passes.clear()
        reused = run(capsys, "verify", "--input", cert_path)
        assert grid_passes == []
        forget_evaluation()  # as in another process
        assert run(capsys, "verify", "--input", cert_path) == reused
        assert grid_passes and reused[0] == 0

    def test_tampered_certificate_exits_one(self, tmp_path, capsys):
        inp = write_json(tmp_path / "g.json", LINE_SET)
        _, out, _ = run(capsys, "construct", "--input", inp)
        doc = json.loads(out)
        doc["coefficients"] = [abs(x) for x in doc["coefficients"]]
        cert_path = write_json(tmp_path / "cert.json", doc)
        code, out, err = run(capsys, "verify", "--input", cert_path)
        assert code == 1
        assert json.loads(out)["verdict"] is False
        assert "failed" in err

    def test_roundoff_below_the_leading_term_floor_exits_one(self, tmp_path, capsys):
        # c = (4, -1) at p = 5 with magnitude 2^-10: leading term 2^-51.4, below
        # LEAD_FLOOR; the grid margin of 2 ulp once matched it within 10x
        line = construct_independent(FrequencySet(1, ((0,), (1,), (2,))))
        small = 2.0**-10
        forged = replace(
            line, frequencies=((0,), (2,), (8,)), coefficients=(1.0, small, -small), p_tested=5.0
        )
        cert_path = write_json(tmp_path / "cert.json", forged.to_json())
        code, out, err = run(capsys, "verify", "--input", cert_path)
        assert code == 1
        assert json.loads(out)["verdict"] is False
        assert err.count("\n") == 1 and "failed" in err

    def test_eval_overrides_accepted(self, tmp_path, capsys):
        inp = write_json(tmp_path / "g.json", LINE_SET)
        _, out, _ = run(capsys, "construct", "--input", inp)
        cert_path = write_json(tmp_path / "cert.json", json.loads(out))
        code, out, _ = run(capsys, "verify", "--input", cert_path, "--grid", "512")
        assert code == 0
        assert json.loads(out)["grid_points_per_axis"] >= 512


class TestMoment:
    def test_huge_odd_exponent_answers_quickly(self, capsys, time_limit):
        with time_limit(5):
            code, out, _ = run(capsys, "moment", "--d", "2", "--p", "1000000000000001")
        assert code == 0
        cert = json.loads(out)
        assert cert["verified"] is False and cert["margin"] is None
        assert all(2 * abs(x) > 10**15 + 1 for x in cert["cvector"]["c"])

    def test_beyond_float_range_exits_two_with_one_line(self, tmp_path, capsys, time_limit):
        plot = tmp_path / "f.csv"
        argv = ["moment", "--d", "2", "--p", "1000000000000001"]
        message = "inconclusive: the mean of |sum|^1e+15 is beyond floating-point range\n"
        with time_limit(5):
            code, out, err = run(capsys, *argv, "--plot", str(plot))
        assert (code, out, err) == (2, "", message)
        assert not plot.exists()
        _, out, _ = run(capsys, *argv)
        with time_limit(5):
            cert_path = write_json(tmp_path / "c.json", json.loads(out))
            code, out, err = run(capsys, "verify", "--input", cert_path)
        assert (code, out, err) == (2, "", message)

    def test_a_weighted_sum_beyond_range_exits_two_with_one_line(self, tmp_path, capsys):
        # at p = 1259.6 each slice sum is finite and their weighted sum is not
        plot = tmp_path / "f.csv"
        code, out, err = run(capsys, "moment", "--d", "2", "--p", "1258.5", "--plot", str(plot))
        assert (code, out) == (2, "")
        assert err == "inconclusive: the mean of |sum|^1259.6 is beyond floating-point range\n"
        assert not plot.exists()

    def test_p_tested_beyond_range_leaves_the_plot_as_it_was(self, tmp_path, capsys):
        # the sample 1259 is within range; p_tested 1259.75, which the plot's
        # ladder takes besides it, is not, and construction never evaluates it
        plot = tmp_path / "f.csv"
        argv = ["moment", "--d", "2", "--p", "1259.75", "--plot", str(plot), "--plot-samples", "1"]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, f"wrote 1 plot rows to {plot}\n")
        cert = json.loads(out)
        assert cert["margin"] is None and cert["note"].endswith("below numerical resolution")
        with open(plot, newline="") as fh:
            [row] = list(csv.DictReader(fh))
        assert float(row["p"]) == 1259.0

    def test_an_unprintable_integer_is_one_line_and_no_json(self, capsys, time_limit):
        # c has an entry of more than 4 300 digits, beyond what Python prints
        with time_limit(20):
            code, out, err = run(capsys, "moment", "--d", "85", "--p", "3")
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot print the result: ") and err.count("\n") == 1

    def test_plane_cubic(self, capsys):
        code, out, _ = run(capsys, "moment", "--d", "2", "--p", "3")
        assert code == 0
        cert = json.loads(out)
        assert cert["cvector"]["c"] == [6, -8, 3]
        assert cert["p_interval"] == [2, 4]
        assert cert["verified"] is True

    def test_even_exponent_rejected(self, capsys):
        code, _, err = run(capsys, "moment", "--d", "2", "--p", "4")
        assert code == 1
        assert "even" in err


class TestParserDefaults:
    def test_the_parser_is_built_once_per_process(self, monkeypatch, capsys):
        built = _build_parser()
        monkeypatch.setattr("argparse.ArgumentParser.__init__", None)  # no parser can be made
        assert run(capsys, "moment", "--d", "2", "--p", "3")[0] == 0
        assert _build_parser() is built

    def test_budgets_and_samples_are_the_library_constants(self, tmp_path):
        inp = str(tmp_path / "g.json")
        parse = _build_parser().parse_args
        classify = parse(["classify", "--input", inp])
        construct = parse(["construct", "--input", inp])
        moment = parse(["moment", "--d", "2", "--p", "3"])
        assert classify.scan_budget == construct.scan_budget == constructions.SCAN_BUDGET
        assert construct.stream_budget == constructions.STREAM_BUDGET
        assert construct.plot_samples == moment.plot_samples == constructions.PLOT_SAMPLES

    @pytest.mark.parametrize(
        "func, name, constant",
        [
            ("classify", "scan_budget", "SCAN_BUDGET"),
            ("construct_abundant", "scan_budget", "SCAN_BUDGET"),
            ("construct_abundant", "stream_budget", "STREAM_BUDGET"),
            ("construct_certificates", "scan_budget", "SCAN_BUDGET"),
            ("construct_certificates", "stream_budget", "STREAM_BUDGET"),
            ("emit_plot_data", "p_samples", "PLOT_SAMPLES"),
        ],
    )
    def test_library_defaults_are_the_same_constants(self, func, name, constant):
        default = inspect.signature(getattr(constructions, func)).parameters[name].default
        assert default == getattr(constructions, constant)


class TestWeakMajorant:
    def test_ratio_within_bound(self, tmp_path, capsys):
        inp = write_json(
            tmp_path / "w.json",
            {
                "d": 2,
                "p": 3,
                "support": [1, 2, 3],
                "coefficients": [0.5, -0.4, 0.3],
                "majorant": [0.5, 0.4, 0.3],
            },
        )
        code, out, _ = run(capsys, "weak-majorant", "--input", inp)
        assert code == 0
        doc = json.loads(out)
        assert doc["within_bound"] is True
        assert doc["ratio"] <= doc["bound"] + 1e-9

    @pytest.mark.parametrize("t", [1e200, 1e-200])
    def test_ratio_ignores_a_common_scale(self, tmp_path, capsys, t):
        query = {
            "d": 2,
            "p": 3,
            "support": [1, 2, 3, 4, 5],
            "coefficients": [0.9, 0.7, 0.5, 0.3, -0.2],
            "majorant": [0.9, 0.7, 0.5, 0.3, 0.2],
        }
        code, out, err = run(capsys, "weak-majorant", "--input", write_json(tmp_path / "w.json", query))
        unit = json.loads(out)["ratio"]
        assert unit > 1
        for key in ("coefficients", "majorant"):
            query[key] = [t * x for x in query[key]]
        code, out, err = run(capsys, "weak-majorant", "--input", write_json(tmp_path / "t.json", query))
        assert (code, err) == (0, "")
        assert json.loads(out)["ratio"] == pytest.approx(unit, rel=1e-12)

    def test_majorant_beyond_float_range_is_one_line(self, tmp_path, capsys):
        query = {"d": 2, "p": 2, "support": [1, 2], "coefficients": [1, 1], "majorant": [10**400, 1]}
        code, out, err = run(capsys, "weak-majorant", "--input", write_json(tmp_path / "w.json", query))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("d", [8, 1_000_000, 10**9])
    def test_the_grid_budget_refuses_d_before_any_curve_point(
        self, tmp_path, capsys, monkeypatch, d
    ):
        def no_point(d, t):
            raise AssertionError("a curve point was formed")

        monkeypatch.setattr(moment_curve, "gamma_point", no_point)
        inp = write_json(tmp_path / "q.json", {**WEAK_QUERY, "d": d})
        code, out, err = run(capsys, "weak-majorant", "--input", inp)
        assert (code, out) == (2, "")
        message = f"the 8^{d} grid exceeds the quadrature budget of 4194304 points"
        assert err == f"inconclusive: {message}\n"

    def test_missing_key_rejected(self, tmp_path, capsys):
        inp = write_json(tmp_path / "w.json", {"d": 2, "p": 3})
        code, _, err = run(capsys, "weak-majorant", "--input", inp)
        assert code == 1
        assert "missing" in err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        inp = write_json(tmp_path / "w.json", {**WEAK_QUERY, "magnitude": 0.5})
        code, out, err = run(capsys, "weak-majorant", "--input", inp)
        assert (code, out) == (1, "")
        assert err == "error: weak-majorant input has the unknown key 'magnitude'\n"


class TestDiagnostics:
    def test_malformed_json_reports_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 1,\n  "points": [[0], [1],]}')
        code, _, err = run(capsys, "classify", "--input", str(bad))
        assert code == 1
        assert "line 2" in err

    @pytest.mark.parametrize(
        "content, reason",
        [
            (b'\xff\xfe{"dim": 1}', "codec can't decode"),
            (b"[" * 200_000, "recursion"),
            (b'{"dim": ' + b"7" * 5000 + b"}", "digits"),
        ],
        ids=["not-utf-8", "nested-too-deep", "integer-too-long"],
    )
    def test_unreadable_json_is_one_line(self, tmp_path, capsys, content, reason):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        code, out, err = run(capsys, "classify", "--input", str(bad))
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith(f"error: cannot read {bad}: ")
        assert reason in err

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "classify", "--input", str(tmp_path / "absent.json"))
        assert code == 1
        assert "cannot read" in err

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["frobnicate"], "invalid choice: 'frobnicate'"),
            (["moment", "--d", "x", "--p", "3"], "argument --d: invalid int value: 'x'"),
            (["moment", "--d", "2"], "the following arguments are required: --p"),
            ([], "the following arguments are required: command"),
        ],
    )
    def test_usage_errors_exit_1_with_one_line(self, capsys, argv, reason):
        # exit 2 means inconclusive numerics: a usage error is the caller's, like a domain error
        code, out, err = run(capsys, *argv)
        assert (code, out, err.count("\n")) == (1, "", 1)
        assert err.startswith("error: majorant") and reason in err

    @pytest.mark.parametrize("argv", [["--help"], ["moment", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: majorant" in capsys.readouterr().out


FORGED_SETTINGS = {
    "grid_points_per_axis": 16,
    "series_total_degree_cutoff": 12,
    "backend_agreement_tol": 1e300,
    "margin_safety_factor": 1.0000001,
}


def line_certificate(tmp_path, capsys):
    inp = write_json(tmp_path / "g.json", LINE_SET)
    code, out, _ = run(capsys, "construct", "--input", inp)
    assert code == 0
    return json.loads(out)


class TestVerifierSettings:
    def test_forged_certificate_exits_one(self, tmp_path, capsys):
        # {(0,0),(1,0),(2,16)} is affinely independent; the stated grid of 16
        # aliases it onto {0, 1, 2} and the stated tolerance accepts anything.
        # Its frequencies determine no relation, so the file is rejected at load.
        doc = line_certificate(tmp_path, capsys)
        doc.update(
            dim=2,
            frequencies=[[0, 0], [1, 0], [2, 16]],
            eval_config=FORGED_SETTINGS,
        )
        cert_path = write_json(tmp_path / "forged.json", doc)
        code, out, err = run(capsys, "verify", "--input", cert_path)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error:")


CURVE_FROM_3 = {"kind": "moment_curve", "params": {"t_start": 3}}
STEP_ONE = {"kind": "arith_progression", "params": {"start": [1], "step": [1]}}
SET_FILES = [
    {"dim": 1, "points": [[1], [2]]},
    {"dim": 2, "points": [], "generator": CURVE_FROM_3},
    {"dim": 2, "generator": {"kind": "moment_curve"}},
    {"dim": 1, "points": [[0]], "generator": STEP_ONE},
    {"dim": 1, "points": [[0]], "generator": None},
]
# one misspelt or misplaced key or value in each; read leniently, the first
# would be the set {1, 2} and the second the curve from t = 1
TYPO_SETS = [
    {"dim": 1, "points": [[1], [2]], "pionts": [[3]]},
    {"dim": 2, "generator": {"kind": "moment_curve", "parmas": {"t_start": 3}}},
    {"dmi": 1, "points": [[1], [2]]},
    {"dim": 2, "generator": {"kind": "moment_curve", "params": {"t_strat": 3}}},
    {"dim": 2, "generator": {"Kind": "moment_curve", "params": {"t_start": 3}}},
    {"dim": 2, "generator": {"kind": "moment_curve", "params": {"start": [1, 1], "step": [1, 2]}}},
    {"dim": 1, "generator": {"kind": "arith_progression", "params": {"start": [1], "stpe": [1]}}},
    {"dim": 1, "generator": {"kind": "arith_progression", "params": {"t_start": 1}}},
    {"dim": 1, "generator": {"kind": "arith_progression", "param": {"start": [1], "step": [1]}}},
    {"dim": 1, "generator": {"kind": "arith_progresion", "params": {"start": [1], "step": [1]}}},
    {"dim": 1, "points": [[0]], "generator": {**STEP_ONE, "params": {"start": [1]}}},
    {"dim": 1, "points": [[0]], "generators": STEP_ONE},
]


@pytest.mark.parametrize("doc", SET_FILES + TYPO_SETS)
def test_set_files_are_read_as_the_schema_reads_them(doc):
    schema = json.loads((DOCS / "frequency_set.schema.json").read_text())
    valid = jsonschema.Draft202012Validator(schema).is_valid(doc)
    try:
        FrequencySet.from_json(doc)
        read = True
    except DomainError:
        read = False
    assert read == valid == (doc in SET_FILES)


class TestRejections:
    """Malformed requests end with exit 1 and one line on stderr."""

    @pytest.mark.parametrize("doc", TYPO_SETS)
    def test_typo_in_a_set_file(self, tmp_path, capsys, doc):
        code, out, err = run(capsys, "classify", "--input", write_json(tmp_path / "g.json", doc))
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error:")

    @pytest.mark.parametrize("p", ["nan", "inf", "-inf"])
    def test_non_finite_moment_exponent(self, capsys, p):
        code, out, err = run(capsys, "moment", "--d", "2", f"--p={p}")
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error:")

    @pytest.mark.parametrize(
        "flag, value", [("--tol", "inf"), ("--tol", "nan"), ("--safety", "inf")]
    )
    def test_non_finite_setting(self, tmp_path, capsys, flag, value):
        doc = line_certificate(tmp_path, capsys)
        cert_path = write_json(tmp_path / "c.json", doc)
        code, out, err = run(capsys, "verify", "--input", cert_path, flag, value)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error:") and "finite" in err

    @pytest.mark.parametrize("flag", ["--scan-budget", "--stream-budget"])
    def test_non_positive_budget(self, tmp_path, capsys, flag):
        inp = write_json(tmp_path / "g.json", MOMENT_GEN_SET)
        code, out, err = run(capsys, "construct", "--input", inp, flag, "0")
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and "budget must be an exact integer >= 1" in err

    def test_certificate_missing_keys(self, tmp_path, capsys):
        doc = line_certificate(tmp_path, capsys)
        del doc["coefficients"]
        code, out, err = run(capsys, "verify", "--input", write_json(tmp_path / "c.json", doc))
        assert (code, out) == (1, "")
        assert "coefficients" in err and err.count("\n") == 1

    def test_reduction_contradicting_the_dimension(self, tmp_path, capsys):
        doc = line_certificate(tmp_path, capsys)
        doc["reduction"] = {"origin": [0, 5], "basis_columns": [[1, 0], [2, 3], [4, 4]]}
        code, out, err = run(capsys, "verify", "--input", write_json(tmp_path / "c.json", doc))
        assert (code, out) == (1, "")
        assert "basis_columns" in err and err.count("\n") == 1

    def test_weak_majorant_exponent_not_a_number(self, tmp_path, capsys):
        inp = write_json(tmp_path / "w.json", {**WEAK_QUERY, "p": "abc"})
        code, out, err = run(capsys, "weak-majorant", "--input", inp)
        assert (code, out) == (1, "")
        assert "'p'" in err

    def test_negative_plot_samples_prints_nothing(self, tmp_path, capsys):
        inp = write_json(tmp_path / "g.json", LINE_SET)
        plot = tmp_path / "rows.csv"
        code, out, err = run(
            capsys, "construct", "--input", inp, "--plot", str(plot), "--plot-samples", "-1"
        )
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert not plot.exists()

    def test_half_integer_point(self, tmp_path, capsys):
        inp = write_json(tmp_path / "g.json", {"dim": 1, "points": [[0], [1.5], [2]]})
        code, out, err = run(capsys, "classify", "--input", inp)
        assert (code, out) == (1, "")
        assert "1.5" in err

    @pytest.mark.parametrize(
        "changes",
        [
            {"frequencies": [[0], [1.9], [2.2]], "verified": "no"},
            {"verified": "no"},
            {"coefficients": [1.0, "0.25", -0.25]},
            {"p_tested": True},
            {"grid_points_per_axis": "abc"},
            {"schema_version": 99},
            {"reduction": "none"},
            {"eval_config": {**FORGED_SETTINGS, "grid_points_per_axis": 256.5}},
        ],
    )
    def test_certificate_values_are_not_coerced(self, tmp_path, capsys, changes):
        doc = {**line_certificate(tmp_path, capsys), **changes}
        code, out, err = run(capsys, "verify", "--input", write_json(tmp_path / "c.json", doc))
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error:")

    def test_frequency_beyond_float_range(self, tmp_path, capsys):
        # c = (10^400, -1) moves p_interval far from p_tested, so the file is
        # rejected at load
        doc = line_certificate(tmp_path, capsys)
        doc["frequencies"][2] = [10**400]
        code, out, err = run(capsys, "verify", "--input", write_json(tmp_path / "c.json", doc))
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error:")

    @pytest.mark.parametrize(
        "changes",
        [
            {"p_interval": [10, 12]},
            {"dim": 5},
            {"cvector": build_c((5, -3)).to_json()},
            {"p_tested": 5},
            {"theorem_tag": "moment_curve", "p_tested": 3.0, "p_interval": [2, 4]},
        ],
    )
    def test_stored_claims_must_match_the_frequencies(self, tmp_path, capsys, changes):
        doc = {**line_certificate(tmp_path, capsys), **changes}
        code, out, err = run(capsys, "verify", "--input", write_json(tmp_path / "c.json", doc))
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error:")
        assert "Error(" not in err  # the loading message once, not wrapped in its repr

    def test_cutoff_flag_is_gone(self, capsys):
        code, out, err = run(capsys, "moment", "--d", "2", "--p", "3", "--cutoff", "4")
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --cutoff 4" in err


# Flag values that are all out of range or not numbers, so that no request
# below can start an expensive evaluation.
BAD_VALUES = {
    "--d": ["0", "-1", "x", "1.5", ""],
    "--p": ["nan", "inf", "-inf", "abc", "0", "-2", "4"],
    "--grid": ["3", "0", "-8", "x", "2.5"],
    "--tol": ["0", "-1", "nan", "inf", "x"],
    "--safety": ["1", "0.5", "nan", "inf", "x"],
    "--plot-samples": ["-1", "-7", "x"],
    "--scan-budget": ["0", "-3", "x"],
    "--count": ["0", "-1", "x"],
    "--stream-budget": ["x", "1.5"],
}
COMMANDS = ["classify", "construct", "verify", "moment", "weak-majorant", "frobnicate"]
# Junk JSON values.  Bare floats are all non-finite or negative: a finite
# positive one could make a valid but slow request instead of a malformed one.
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -1.0]),
    st.text(max_size=4),
    st.lists(st.one_of(st.text(max_size=2), st.floats(0.1, 0.9)), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-2, 2), max_size=2),
)
# the documents the JSON fuzzing damages, one per subcommand
FUZZ_BASES = {
    "classify": {
        **LINE_SET,
        "generator": {"kind": "arith_progression", "params": {"start": [3], "step": [0]}},
    },
    "construct": {**LINE_SET, "generator": {"kind": "moment_curve", "params": {"t_start": 1}}},
    "verify": construct_independent(FrequencySet(1, ((0,), (1,), (2,)))).to_json(),
    "weak-majorant": WEAK_QUERY,
}
FIXTURE_EXAMPLES = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def assert_clean_exit(capsys, argv):
    """main(argv) returns 0, 1 or 2, and a failure ends in one message line."""
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code != 0:
        lines = err.splitlines()
        assert len(lines) == 1
        assert any(word in lines[0] for word in ("error", "inconclusive", "failed"))


class TestMalformedRequests:
    @given(data=st.data())
    @FIXTURE_EXAMPLES
    def test_argv(self, tmp_path, capsys, data):
        command = data.draw(st.sampled_from(COMMANDS))
        argv = [command]
        if command != "moment":
            inp = data.draw(st.sampled_from([LINE_SET, INDEPENDENT_SET]))
            argv += ["--input", write_json(tmp_path / "in.json", inp)]
        flags = data.draw(st.lists(st.sampled_from(sorted(BAD_VALUES)), unique=True, max_size=3))
        for flag in flags:
            argv += [flag, data.draw(st.sampled_from(BAD_VALUES[flag]))]
        if command == "moment" and "--p" not in flags:
            argv += ["--p", data.draw(st.sampled_from(BAD_VALUES["--p"]))]
        if data.draw(st.booleans()):
            argv += ["--plot", str(tmp_path / "missing-dir" / "rows.csv")]
        assert_clean_exit(capsys, argv)

    @given(data=st.data())
    @FIXTURE_EXAMPLES
    def test_json(self, tmp_path, capsys, data):
        command = data.draw(st.sampled_from(sorted(FUZZ_BASES)))
        doc = copy.deepcopy(FUZZ_BASES[command])
        key = data.draw(st.sampled_from(sorted(doc)))
        action = data.draw(st.sampled_from(["delete", "replace", "replace_entry"]))
        inner = doc[key]
        if action == "delete":
            del doc[key]
        elif action == "replace_entry" and isinstance(inner, (list, dict)) and inner:
            slots = sorted(inner) if isinstance(inner, dict) else range(len(inner))
            inner[data.draw(st.sampled_from(slots))] = data.draw(JUNK)
        else:
            doc[key] = data.draw(JUNK)
        if data.draw(st.booleans()):
            doc = data.draw(st.sampled_from([[doc], "text", 3, None]))
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        assert_clean_exit(capsys, [command, "--input", str(path)])
