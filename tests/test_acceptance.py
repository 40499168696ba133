"""Acceptance gate: ten numbered criteria, one test each.

Each test is self-contained and pinned to explicit tolerances; `pytest -v`
on this file reads as the release checklist.  Randomness is seeded so a
failure reproduces exactly.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import pi

import pytest

from majorant.constructions import construct_abundant, construct_moment
from majorant.cvector import build_c, build_v, sign_condition
from majorant.exact_lattice import FrequencySet, IntMatrix, det_exact, hnf
from majorant.lp_engine import (
    EvalConfig,
    g_function,
    lp_norm_even_exact,
    lp_norm_quadrature,
    lp_norm_taylor,
    paired_difference,
)
from majorant.moment_curve import (
    c_closed_form,
    gamma_point,
    vandermonde_check,
    weak_majorant_bound,
    weak_majorant_ratio,
)

MOMENT_GEN = FrequencySet.from_json(
    {"dim": 2, "points": [], "generator": {"kind": "moment_curve", "params": {}}}
)


def test_01_classical_line_violation():
    # {0, 1, 2} with coefficients (1, m, -m), m = 0.1, at p = 1: the signed
    # mean exceeds the majorant mean by about 2 * (1/8) * m^3 = 2.5e-4.
    started = time.perf_counter()
    res = paired_difference(
        ((0,), (1,), (2,)),
        (1.0, 0.1, -0.1),
        1.0,
        EvalConfig(grid_points_per_axis=4096),
    )
    elapsed = time.perf_counter() - started
    assert res.difference > 0
    assert res.difference == pytest.approx(2.5e-4, rel=0.30)
    assert elapsed < 1.0


def test_02_even_exponents_never_violate():
    rng = random.Random(20208)
    violations = 0
    for _ in range(200):
        d = rng.choice((1, 2))
        count = rng.randint(2, 5)
        freqs: set[tuple[int, ...]] = set()
        while len(freqs) < count:
            freqs.add(tuple(rng.randint(-4, 4) for _ in range(d)))
        mags = [Fraction(rng.randint(1, 9), rng.randint(10, 19)) for _ in range(count)]
        signed = [m if rng.random() < 0.5 else -m for m in mags]
        s = rng.choice((1, 2, 3))
        majorant = lp_norm_even_exact(tuple(freqs), mags, s)
        actual = lp_norm_even_exact(tuple(freqs), signed, s)
        if actual > majorant:  # exact Fraction comparison
            violations += 1
    assert violations == 0


def test_03_backend_triangle():
    rng = random.Random(31337)
    cfg = EvalConfig(series_total_degree_cutoff=8)
    started = time.perf_counter()
    worst = 0.0
    for i in range(50):
        d = rng.choice((1, 2))
        count = rng.randint(1, 3)
        freqs: set[tuple[int, ...]] = set()
        while len(freqs) < count:
            f = tuple(rng.randint(-3, 3) for _ in range(d))
            if any(f):
                freqs.add(f)
        fl = tuple(freqs)
        b = [rng.uniform(-0.3, 0.3) for _ in fl]
        p = (2, 4)[i % 2]
        # the series backend works relative to a unit constant term
        full_freqs = ((0,) * d, *fl)
        full_coeffs = [1.0, *b]
        taylor = lp_norm_taylor(fl, b, p, cfg).value
        quad = lp_norm_quadrature(full_freqs, full_coeffs, p, cfg).value
        exact = float(lp_norm_even_exact(full_freqs, full_coeffs, p // 2))
        worst = max(worst, abs(taylor - quad), abs(quad - exact), abs(taylor - exact))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-8
    assert elapsed < 30.0


def test_04_closed_form_identities():
    from math import factorial

    for d in range(1, 6):
        for k in range(1, 21):
            cv = c_closed_form(d, k)
            points = tuple(gamma_point(d, k + i) for i in range(d + 1))
            assert cv == build_c(build_v(points))
            assert sum(cv.c) == 1
            assert min(abs(x) for x in cv.c) * factorial(d) ** 2 >= k**d
            assert sum(abs(x) for x in cv.c) % 2 == 1


def test_05_vandermonde_determinants():
    rng = random.Random(5)
    for d in range(1, 7):
        for k in rng.sample(range(1, 51), 10):
            assert vandermonde_check(d, k)


def test_06_moment_curve_desk_instance():
    started = time.perf_counter()
    cert = construct_moment(2, 3, EvalConfig(grid_points_per_axis=2048))
    elapsed = time.perf_counter() - started
    assert "k=2" in cert.note
    assert cert.cvector.c == (6, -8, 3)
    assert sign_condition(3, cert.cvector)
    assert cert.verified
    assert cert.margin is not None and cert.margin > 0
    assert elapsed < 120.0


def product(a: IntMatrix, b: IntMatrix) -> tuple[tuple[int, ...], ...]:
    """Entries of the integer matrix product a . b."""
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b.entries)) for row in a.entries
    )


def test_07_hnf_factorization_and_substitution_invariance():
    rng = random.Random(77)
    checked = 0
    triangular_pool = []
    while checked < 100:
        d = rng.randint(1, 4)
        m = IntMatrix(
            tuple(tuple(rng.randint(-9, 9) for _ in range(d)) for _ in range(d))
        )
        if det_exact(m) == 0:
            continue
        res = hnf(m)
        assert product(res.e, res.b) == m.entries
        assert abs(det_exact(res.e)) == 1
        assert all(res.b.entries[i][j] == 0 for i in range(m.rows) for j in range(i))
        checked += 1
    # substitution by an integer matrix with nonzero determinant preserves
    # the torus mean, so the norm computed on transformed frequencies must
    # match; grids are sized past the p = 4 bandwidth so both are exact
    while len(triangular_pool) < 40:
        m = IntMatrix(tuple(tuple(rng.randint(-9, 9) for _ in range(2)) for _ in range(2)))
        if det_exact(m) == 0:
            continue
        b = hnf(m).b
        if max(abs(x) for row in b.entries for x in row) <= 60:
            triangular_pool.append(b)
    done = 0
    for b in triangular_pool:
        if done == 20:
            break
        freqs: set[tuple[int, int]] = set()
        while len(freqs) < 3:
            f = (rng.randint(-2, 2), rng.randint(-2, 2))
            if any(f):
                freqs.add(f)
        fl = tuple(freqs)
        coeffs = [rng.uniform(-1, 1) for _ in fl]
        moved = tuple(
            tuple(sum(b.entries[i][j] * n[i] for i in range(2)) for j in range(2))
            for n in fl
        )
        if len(set(moved)) < len(moved):
            continue
        fmax = max(abs(x) for f in (*fl, *moved) for x in f)
        cfg = EvalConfig(grid_points_per_axis=min(2048, 8 * fmax + 8))
        base = lp_norm_quadrature(fl, coeffs, 4, cfg).value
        subst = lp_norm_quadrature(moved, coeffs, 4, cfg).value
        assert abs(base - subst) <= 1e-9
        done += 1
    assert done == 20


def test_08_single_tone_profile_and_sign_invariance():
    cfg = EvalConfig()
    for p in (0.5, 1, 3, 5):
        values = [g_function(r / 10, p, cfg) for r in range(41)]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-9
    assert g_function(1, 1, cfg) == pytest.approx(4 / pi, abs=1e-8)

    rng = random.Random(88)
    freqs = ((0, 0), (1, 0), (0, 1))
    mags = (1.0, 0.5, 0.3)
    base = lp_norm_quadrature(freqs, mags, 3, cfg).value
    for _ in range(100):
        signed = tuple(m if rng.random() < 0.5 else -m for m in mags)
        flipped = lp_norm_quadrature(freqs, signed, 3, cfg).value
        assert abs(flipped - base) <= 1e-9


def test_09_weak_majorant_ratio_bounded():
    rng = random.Random(99)
    support = (1, 2, 3, 4, 5)
    bound = weak_majorant_bound(2)
    assert bound == pytest.approx(2**0.25)
    for i in range(100):
        p = (2, 3, 4)[i % 3]
        majorant = tuple(rng.uniform(0.05, 1.0) for _ in support)
        coeffs = tuple(a * rng.uniform(-1.0, 1.0) for a in majorant)
        ratio = weak_majorant_ratio(2, p, coeffs, majorant, support)
        assert ratio <= bound + 1e-6


def test_10_abundant_family_escalates():
    certs = construct_abundant(MOMENT_GEN, 2)
    assert len(certs) >= 2
    first, second = certs[0], certs[1]
    assert first.cvector.m_plus < second.cvector.m_plus
    assert first.p_interval.hi <= second.p_interval.lo
    assert first.verified
    assert first.margin is not None and first.margin > 0
