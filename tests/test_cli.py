"""Command-line behavior: exit codes, JSON output, CSV plots, diagnostics.

Tests call main() in process and read stdout through capsys; no subprocess
is spawned, so the suite stays fast and failures carry tracebacks.
"""

from __future__ import annotations

import copy
import csv
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from majorant.cli import main
from majorant.constructions import construct_independent
from majorant.cvector import build_c
from majorant.exact_lattice import FrequencySet

LINE_SET = {"dim": 1, "points": [[0], [1], [2]]}
INDEPENDENT_SET = {"dim": 2, "points": [[0, 0], [1, 0], [0, 1]]}
# c = (2, 0, 0, -1): its margin certifies while the error estimate stays above --tol
SPACE_SET = {"dim": 3, "points": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [2, 0, 0]]}
MOMENT_GEN_SET = {
    "dim": 2,
    "points": [],
    "generator": {"kind": "moment_curve", "params": {}},
}
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

    def test_generator_set_emits_array(self, tmp_path, capsys):
        inp = write_json(tmp_path / "g.json", MOMENT_GEN_SET)
        code, out, _ = run(capsys, "construct", "--input", inp, "--count", "2")
        assert code == 0
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

    def test_beyond_float_range_is_not_evaluated(self, tmp_path, capsys, time_limit):
        plot = tmp_path / "f.csv"
        argv = ["moment", "--d", "2", "--p", "1000000000000001"]
        with time_limit(5):
            code, out, err = run(capsys, *argv, "--plot", str(plot))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "floating-point evaluation range" in err
        assert not plot.exists()
        _, out, _ = run(capsys, *argv)
        with time_limit(5):
            cert_path = write_json(tmp_path / "c.json", json.loads(out))
            code, out, err = run(capsys, "verify", "--input", cert_path)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "floating-point evaluation range" in err

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

    def test_missing_key_rejected(self, tmp_path, capsys):
        inp = write_json(tmp_path / "w.json", {"d": 2, "p": 3})
        code, _, err = run(capsys, "weak-majorant", "--input", inp)
        assert code == 1
        assert "missing" in err


class TestDiagnostics:
    def test_malformed_json_reports_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 1,\n  "points": [[0], [1],]}')
        code, _, err = run(capsys, "classify", "--input", str(bad))
        assert code == 1
        assert "line 2" in err

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "classify", "--input", str(tmp_path / "absent.json"))
        assert code == 1
        assert "cannot read" in err

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


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


class TestRejections:
    """Malformed requests end with exit 1 and one line on stderr."""

    @pytest.mark.parametrize("p", ["nan", "inf", "-inf"])
    def test_non_finite_moment_exponent(self, capsys, p):
        code, out, err = run(capsys, "moment", "--d", "2", f"--p={p}")
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error:")

    def test_certificate_missing_keys(self, tmp_path, capsys):
        doc = line_certificate(tmp_path, capsys)
        del doc["coefficients"]
        code, out, err = run(capsys, "verify", "--input", write_json(tmp_path / "c.json", doc))
        assert (code, out) == (1, "")
        assert "coefficients" in err and err.count("\n") == 1

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
        ],
    )
    def test_stored_claims_must_match_the_frequencies(self, tmp_path, capsys, changes):
        doc = {**line_certificate(tmp_path, capsys), **changes}
        code, out, err = run(capsys, "verify", "--input", write_json(tmp_path / "c.json", doc))
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error:")

    def test_cutoff_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["moment", "--d", "2", "--p", "3", "--cutoff", "4"])
        assert exc.value.code == 2


# Flag values that are all out of range or not numbers, so that no request
# below can start an expensive evaluation.
BAD_VALUES = {
    "--d": ["0", "-1", "x", "1.5", ""],
    "--p": ["nan", "inf", "-inf", "abc", "0", "-2", "4"],
    "--grid": ["3", "0", "-8", "x", "2.5"],
    "--tol": ["0", "-1", "nan", "x"],
    "--safety": ["1", "0.5", "nan", "x"],
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
    try:
        code = main(argv)
        from_argparse = False
    except SystemExit as exc:  # argparse's own usage errors
        code, from_argparse = exc.code, True
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code != 0:
        lines = err.splitlines()
        if from_argparse:  # usage text, then the one error line
            assert "error:" in lines[-1]
        else:
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
