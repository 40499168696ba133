"""Self-tests of the benchmark: its oracle, percentile rule, generators and output.

    python3 -m pytest bench
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# The d=2 moment-curve family (t_start=1, count 6) as the package emitted it.
PINNED = {int(c["p_tested"]): c for c in json.loads((BENCH / "pinned_family.json").read_text())}


# ---------------- oracle ----------------


@pytest.mark.parametrize("p", [5, 15, 29, 47, 69, 95])
def test_pinned_family_passes_exact_checks(p):
    assert oracle.certificate_problems(PINNED[p]) == []


@pytest.mark.parametrize("p", [5, 15, 29])
def test_pinned_family_low_members_are_sound(p):
    assert PINNED[p]["verified"] and oracle.certificate_is_sound(PINNED[p])


def test_p69_is_the_known_false_positive():
    cert = PINNED[69]
    assert cert["verified"] and cert["margin"] == 0.1875
    lead = oracle.leading_term(cert)
    assert 5e-14 < lead < 6e-14  # the real margin is far below float64 resolution at lhs 1.6e14
    assert not oracle.certificate_is_sound(cert)


def test_p29_clears_roundoff_by_the_relative_rule():
    cert = PINNED[29]
    assert cert["margin"] > oracle.ROUNDOFF_ULPS * oracle.EPS * cert["lhs"]


def test_tampered_all_positive_certificate_is_rejected():
    cert = copy.deepcopy(PINNED[29])
    cert["coefficients"] = [abs(a) for a in cert["coefficients"]]
    assert "not exactly one coefficient sign is flipped" in oracle.certificate_problems(cert)
    assert oracle.leading_term(cert) == 0


def test_broken_relation_and_interval_are_caught():
    cert = copy.deepcopy(PINNED[5])
    cert["cvector"]["c"] = [-1, 1, 2]
    cert["p_interval"] = [0, 2]
    problems = oracle.certificate_problems(cert)
    assert "sum c_i n_i is not zero" in problems
    assert any(p.startswith("p_interval") for p in problems)


def test_leading_term_matches_a_hand_computation():
    # c = (-1, 1, 3): |c-| = 1, |c+| = 4, a^w = -(1/4)^5, p = 5
    cert = PINNED[5]
    want = -2 * Fraction(5, 2) * (Fraction(5, 2) * Fraction(3, 2) * Fraction(1, 2) * Fraction(-1, 2) / 24) * 1 * 4 * 2 * Fraction(1, 4**5)
    assert oracle.leading_term(cert) == want


def test_lattice_index_and_even_norm():
    assert oracle.lattice_index([[2, 0], [0, 1]], 2) == 2
    assert oracle.lattice_index([[2, 1], [3, 1]], 2) == 1
    assert oracle.lattice_index([[1, 1], [2, 2]], 2) == 0
    # |1 + e(x)|^4 has mean 1 + 4 + 1 = 6; |e(0) - e(x)/2|^2 has mean 5/4
    assert oracle.even_norm_exact([(0,), (1,)], [Fraction(1), Fraction(1)], 2) == 6
    assert oracle.even_norm_exact([(0,), (1,)], [Fraction(1), Fraction(-1, 2)], 1) == Fraction(5, 4)


def test_series_bound_covers_a_known_integral():
    # mean of |1 + b e(x)|^2 is 1 + b^2 for any cutoff >= 2
    ref = oracle.quadrature_norm([(1,)], [0.125], 2.0)
    assert abs(ref - (1 + 0.125**2)) < 1e-14
    assert oracle.taylor_problems([[1]], [Fraction(1, 8)], Fraction(2), 12, Fraction(65, 64)) == []
    assert oracle.taylor_problems([[1]], [Fraction(1, 8)], Fraction(2), 12, Fraction(66, 64)) != []


# ---------------- percentile rule ----------------


def test_percentile_needs_ten_samples_beyond():
    assert run.percentile([float(x) for x in range(92)], 0.9) is not None
    assert run.percentile([float(x) for x in range(91)], 0.9) is None
    assert run.percentile([1.0] * 500, 0.9) is None
    assert run.percentile([float(x) for x in range(1000)], 0.9) == pytest.approx(899.1)


# ---------------- generators ----------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_rounds_are_deterministic_and_seeded(name):
    w = workloads.WORKLOADS[name]
    assert workloads.make_round(w, 7, 3) == workloads.make_round(w, 7, 3)
    assert workloads.make_round(w, 7, 3) != workloads.make_round(w, 8, 3)
    kinds = sorted(op.kind for op in workloads.make_round(w, 7, 0))
    assert all(sorted(op.kind for op in workloads.make_round(w, s, i)) == kinds for s in (1, 2) for i in (0, 1, 5))


def test_certify_sets_are_dependent_with_a_quarter_embedded():
    w = workloads.WORKLOADS["certify_finite"]
    ops = [op for i in range(40) for op in workloads.make_round(w, 11, i)]
    for op in ops:
        pts, r = op.args["points"], op.args["affine_dim"]
        assert 1 <= r <= 4 and len({tuple(p) for p in pts}) == len(pts)
        assert oracle.affine_dim(pts) == r and len(pts) > r + 1
    embedded = [op for op in ops if op.args["dim"] != op.args["affine_dim"]]
    assert all(op.args["dim"] in (5, 6) for op in embedded)
    assert len(embedded) * 4 == len(ops)


def test_family_rounds_include_the_pinned_family():
    w = workloads.WORKLOADS["family_sweep"]
    for i in range(4):
        fams = [op.args for op in workloads.make_round(w, 3, i) if op.kind == "family"]
        assert {"set": workloads.PINNED_FAMILY, "count": 6} in fams


# ---------------- the command ----------------


def _run(cwd: Path, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact_structure", "--seed", "1", "--seconds", "0.1", *extra],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_names_every_declared_metric(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run(ROOT, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
