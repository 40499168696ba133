"""Output checks written independently of the package under test.

Nothing here imports `majorant`: every fact is recomputed from the emitted
output with plain integer, `Fraction` and numpy arithmetic.

Two kinds of finding are kept apart.  A *wrong* output breaks an exact
invariant (an integer relation, a gcd, an interval, a sign pattern, a
lattice identity, an exact series value).  An *unsound* output is a
verified margin that floating-point evidence cannot support: it neither
clears 2^10 eps times the size of the integrals nor sits within a factor 10
of the exactly computed leading term.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Iterable, Sequence

import numpy as np

EPS = 2.0**-52
ROUNDOFF_ULPS = 2**10
LEADING_FACTOR = 10


# ---------------- exact integer helpers ----------------


def rank(vectors: Sequence[Sequence[int]]) -> int:
    """Rank over Q of a list of integer vectors (fraction-free elimination)."""
    rows = [list(v) for v in vectors]
    if not rows:
        return 0
    out = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(out, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[out], rows[pivot] = rows[pivot], rows[out]
        a = rows[out][col]
        for i in range(out + 1, len(rows)):
            b = rows[i][col]
            if b:
                rows[i] = [a * x - b * y for x, y in zip(rows[i], rows[out])]
        out += 1
    return out


def affine_dim(points: Sequence[Sequence[int]]) -> int:
    if len(points) < 2:
        return 0
    base = points[0]
    return rank([[a - b for a, b in zip(p, base)] for p in points[1:]])


def lattice_index(vectors: Sequence[Sequence[int]], r: int) -> int:
    """Index in Z^r of the lattice the vectors generate (0 if not full rank).

    Integer row reduction by repeated division (Euclid down each column);
    the product of the surviving pivots is the index.
    """
    rows = [list(v) for v in vectors if any(v)]
    index = 1
    for col in range(r):
        live = [row for row in rows if row[col] != 0]
        rest = [row for row in rows if row[col] == 0]
        while len(live) > 1:
            live.sort(key=lambda row: abs(row[col]))
            head = live[0]
            reduced = [head]
            for row in live[1:]:
                q = row[col] // head[col]
                row = [x - q * y for x, y in zip(row, head)]
                (reduced if row[col] != 0 else rest).append(row)
            live = reduced
        if not live:
            return 0
        index *= abs(live[0][col])
        rows = [row for row in rest if any(row)]
    return index


def multinomial(parts: Iterable[int]) -> int:
    parts = list(parts)
    out = math.factorial(sum(parts))
    for x in parts:
        out //= math.factorial(x)
    return out


def half_binom(p: Fraction, j: int) -> Fraction:
    """Generalized binomial (p/2 choose j)."""
    out = Fraction(1)
    for l in range(j):
        out *= p / 2 - l
    return out / math.factorial(j)


def is_even_integer(x: float) -> bool:
    return float(x).is_integer() and int(x) % 2 == 0


# ---------------- certificates ----------------


def leading_term(cert: dict[str, Any]) -> Fraction:
    """-2 C(p/2,|c-|) C(p/2,|c+|) multinom(c-) multinom(c+) (|a^w| - a^w), exactly."""
    c = cert["cvector"]["c"]
    c_plus = [max(x, 0) for x in c]
    c_minus = [max(-x, 0) for x in c]
    p = Fraction(cert["p_tested"])
    a_w = Fraction(1)
    for a, w in zip(cert["coefficients"][1:], c):
        a_w *= Fraction(a) ** abs(w)
    return (
        -2
        * half_binom(p, sum(c_minus))
        * half_binom(p, sum(c_plus))
        * multinomial(c_minus)
        * multinomial(c_plus)
        * (abs(a_w) - a_w)
    )


def margin_is_sound(margin: float, lhs: float, rhs: float, lead: Fraction) -> bool:
    """A positive margin is real evidence if it clears roundoff or matches the leading term."""
    if not (margin > 0 and math.isfinite(margin)):
        return False
    if margin > ROUNDOFF_ULPS * EPS * max(abs(lhs), abs(rhs)):
        return True
    m = Fraction(margin)
    return lead > 0 and lead / LEADING_FACTOR <= m <= lead * LEADING_FACTOR


def certificate_problems(cert: dict[str, Any]) -> list[str]:
    """Exact invariants every certificate must satisfy, verified or not."""
    out: list[str] = []
    freqs = [tuple(f) for f in cert["frequencies"]]
    coeffs = cert["coefficients"]
    dim = cert["dim"]
    if any(len(f) != dim for f in freqs) or len(coeffs) != len(freqs):
        return ["frequency or coefficient shapes disagree with dim"]
    if any(freqs[0]) or coeffs[0] != 1.0:
        out.append("first frequency is not the origin with coefficient 1")
    rest = freqs[1:]
    cv = cert["cvector"]
    c = list(cv["c"])
    if len(c) != len(rest) or not any(c):
        return out + ["certificate vector has the wrong length or is zero"]
    if any(sum(ci * f[axis] for ci, f in zip(c, rest)) for axis in range(dim)):
        out.append("sum c_i n_i is not zero")
    if math.gcd(*c) != 1:
        out.append("certificate vector is not primitive")
    if rank(rest) != dim:
        out.append("frequencies do not span, so c is not determined")
    c_plus = [max(x, 0) for x in c]
    c_minus = [max(-x, 0) for x in c]
    m_plus = max(sum(c_plus), sum(c_minus))
    if (
        list(cv["c_plus"]) != c_plus
        or list(cv["c_minus"]) != c_minus
        or cv["m_plus"] != m_plus
        or cv["m_minus"] != min(sum(c_plus), sum(c_minus))
    ):
        out.append("split parts of c are inconsistent")
    p = cert["p_tested"]
    if cert["theorem_tag"] == "moment_curve":
        half = math.floor(p / 2)
        expected = [2 * half, 2 * half + 2]
    else:
        expected = [2 * m_plus - 4, 2 * m_plus - 2]
    if list(cert["p_interval"]) != expected:
        out.append(f"p_interval {cert['p_interval']} is not {expected}")
    if is_even_integer(p) or not expected[0] < p < expected[1]:
        out.append(f"p_tested {p} is even or outside the interval")
    small = coeffs[1:]
    if len({abs(a) for a in small}) != 1 or not 0 < abs(small[0]) < 1:
        out.append("coefficients do not share one magnitude in (0, 1)")
    if sum(1 for a in small if a < 0) != 1:
        out.append("not exactly one coefficient sign is flipped")
    if cert["verified"] and (cert["margin"] is None or cert["lhs"] is None):
        out.append("verified certificate carries no margin")
    return out


def certificate_is_sound(cert: dict[str, Any]) -> bool:
    """Soundness of the constructor's `verified: true` claim."""
    if not cert["verified"]:
        return True
    return margin_is_sound(cert["margin"], cert["lhs"], cert["rhs"], leading_term(cert))


def verdict_is_sound(cert: dict[str, Any], verdict: dict[str, Any]) -> bool:
    """Soundness of a `verify_certificate` verdict of True."""
    if verdict["verdict"] is not True:
        return True
    return margin_is_sound(verdict["margin"], verdict["lhs"], verdict["rhs"], leading_term(cert))


def comes_from(cert: dict[str, Any], points: Sequence[Sequence[int]]) -> bool:
    """Whether the certificate's frequencies are a translate of input points.

    With a recorded reduction, frequency f stands for the input point
    q + B f, where q is the input point that became the origin.
    """
    pts = {tuple(p) for p in points}
    freqs = cert["frequencies"][1:]
    red = cert.get("reduction")
    cols = None if red is None else red["basis_columns"]

    def lift(f: Sequence[int]) -> tuple[int, ...]:
        if cols is None:
            return tuple(f)
        return tuple(sum(fj * col[i] for fj, col in zip(f, cols)) for i in range(len(cols[0])))

    lifted = [lift(f) for f in freqs]
    return any(
        all(tuple(a + b for a, b in zip(q, v)) in pts for v in lifted) for q in pts
    )


def moment_request_problems(cert: dict[str, Any], d: int, p: float) -> list[str]:
    out = certificate_problems(cert)
    if cert["theorem_tag"] != "moment_curve" or cert["dim"] != d or cert["p_tested"] != p:
        out.append("moment certificate does not answer the request")
    ts = [f[0] for f in cert["frequencies"][1:]]
    if ts != list(range(ts[0], ts[0] + d + 1)) or any(
        list(f) != [t**i for i in range(1, d + 1)] for t, f in zip(ts, cert["frequencies"][1:])
    ):
        out.append("frequencies are not consecutive moment-curve points")
    if any(2 * abs(x) <= p for x in cert["cvector"]["c"]):
        out.append("an entry of c is not above p/2")
    return out


def family_problems(certs: list[dict[str, Any]], count: int) -> list[str]:
    out: list[str] = []
    if not 1 <= len(certs) <= count:
        out.append(f"{len(certs)} certificates for a request of {count}")
    m = [cert["cvector"]["m_plus"] for cert in certs]
    if any(b <= a for a, b in zip(m, m[1:])):
        out.append("m_plus does not strictly increase along the family")
    for cert in certs:
        out.extend(certificate_problems(cert))
    return out


def plot_problems(rows: list[dict[str, str]], cert: dict[str, Any], samples: int) -> list[str]:
    if len(rows) != samples:
        return [f"{len(rows)} plot rows, expected {samples}"]
    lo, hi = cert["p_interval"]
    out = []
    for i, row in enumerate(rows):
        p = float(row["p"])
        want = lo + (hi - lo) * (i + 1) / (samples + 1)
        if abs(p - want) > 1e-9 * max(1.0, abs(want)):
            out.append(f"plot row {i} at p={p}, expected {want}")
        if not all(math.isfinite(float(row[k])) for k in ("lhs", "rhs", "difference")):
            out.append(f"plot row {i} is not finite")
    return out


# ---------------- exact structure ----------------


def stream_points(spec: dict[str, Any], limit: int) -> list[tuple[int, ...]]:
    """First `limit` distinct points of a frequency-set spec: prefix, then tail."""
    dim = spec["dim"]
    seen: list[tuple[int, ...]] = []
    for p in spec.get("points", []):
        if tuple(p) not in seen:
            seen.append(tuple(p))
    gen = spec.get("generator")
    k = 0
    while gen is not None and len(seen) < limit:
        params = gen["params"]
        if gen["kind"] == "moment_curve":
            t = params.get("t_start", 1) + k
            p = tuple(t**i for i in range(1, dim + 1))
        else:
            p = tuple(s + k * d for s, d in zip(params["start"], params["step"]))
        if p not in seen:
            seen.append(p)
        k += 1
    return seen[:limit]


def classify_problems(report: dict[str, Any], spec: dict[str, Any], expect_abundance: str) -> list[str]:
    dim = spec["dim"]
    sample = stream_points(spec, max(dim + 2, len(spec.get("points", [])), 8))
    out = []
    if report["dim"] != dim:
        out.append("dim differs from the input")
    if report["affine_dimension"] != affine_dim(sample):
        out.append(f"affine dimension {report['affine_dimension']} != {affine_dim(sample)}")
    if report["affinely_independent"] or report["smp_status"] != "violated_with_certificate":
        out.append("an infinite set was not reported as violating")
    if report["abundance"] != expect_abundance:
        out.append(f"abundance {report['abundance']}, expected {expect_abundance}")
    if report["certificate"] is not None:
        out.append("certificate attached although none was requested")
    return out


def reduction_problems(points: Sequence[Sequence[int]], n_star, basis_cols, coords) -> list[str]:
    """n_star + B y_i = p_i exactly, and the y_i generate all of Z^r."""
    r = rank([[a - b for a, b in zip(p, points[0])] for p in points[1:]])
    out = []
    if tuple(n_star) != tuple(points[0]):
        out.append("n_star is not the first point")
    if len(basis_cols) != r or any(len(y) != r for y in coords):
        return out + [f"reduced dimension differs from the rank {r}"]
    for p, y in zip(points, coords):
        image = tuple(n + sum(yj * col[i] for yj, col in zip(y, basis_cols)) for i, n in enumerate(n_star))
        if image != tuple(p):
            out.append("a point is not reproduced by its lattice coordinates")
            break
    if lattice_index(coords, r) != 1:
        out.append("coordinates do not generate Z^r; the basis is too coarse")
    return out


def even_norm_exact(freqs: Sequence[Sequence[int]], coeffs: Sequence[Fraction], s: int) -> Fraction:
    """Mean of |sum a_j e(n_j x)|^(2s): sum of squared coefficients of the s-th power."""
    poly: dict[tuple[int, ...], Fraction] = {(0,) * len(freqs[0]): Fraction(1)}
    for _ in range(s):
        nxt: dict[tuple[int, ...], Fraction] = {}
        for key, val in poly.items():
            for f, a in zip(freqs, coeffs):
                k = tuple(x + y for x, y in zip(key, f))
                nxt[k] = nxt.get(k, Fraction(0)) + val * a
        poly = nxt
    return sum((v * v for v in poly.values()), Fraction(0))


def series_tail_bound(p: Fraction, s: float, cutoff: int, terms: int = 100) -> float:
    """Bound on the part of the |1+g|^p series beyond total order `cutoff`.

    Each term is at most |C(p/2,j) C(p/2,l)| s^(j+l) in size, with s the sum
    of the coefficient magnitudes; the sum runs far enough that the rest is
    negligible for s <= 1/2, and the factor 2 covers rounding in the bound.
    """
    half = float(p) / 2
    gb = [1.0]
    for j in range(terms - 1):
        gb.append(gb[-1] * abs(half - j) / (j + 1))
    total = 0.0
    for n in range(cutoff + 1, terms):
        total += s**n * sum(gb[j] * gb[n - j] for j in range(n + 1))
    return 2 * total


def quadrature_norm(freqs: Sequence[Sequence[int]], coeffs: Sequence[float], p: float, n: int = 64) -> float:
    """Mean of |1 + sum b_j e(n_j x)|^p on an n^d tensor grid (trapezoid rule)."""
    d = len(freqs[0])
    t = np.arange(n) / n
    total = np.ones((n,) * d, dtype=complex)
    for f, b in zip(freqs, coeffs):
        term = np.array(b, dtype=complex)
        for axis, k in enumerate(f):
            shape = [1] * d
            shape[axis] = n
            term = term * np.exp(2j * np.pi * k * t).reshape(shape)
        total += term
    return float(np.mean((total.real**2 + total.imag**2) ** (p / 2)))


def taylor_problems(freqs, coeffs: Sequence[Fraction], p: Fraction, cutoff: int, value: Any) -> list[str]:
    if not isinstance(value, Fraction):
        return [f"exact-mode series returned {type(value).__name__}, not Fraction"]
    ref = quadrature_norm(freqs, [float(b) for b in coeffs], float(p))
    tol = series_tail_bound(p, float(sum(abs(b) for b in coeffs)), cutoff) + 1e-12
    if abs(float(value) - ref) > tol:
        return [f"series value {float(value)!r} is {abs(float(value) - ref):.3g} from quadrature, bound {tol:.3g}"]
    return []
