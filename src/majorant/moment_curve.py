"""Moment-curve frequency tuples and their closed-form certificate data.

Consecutive points t, t+1, ..., t+d on the curve (t, t^2, ..., t^d) carry
fully explicit certificate vectors: the null-vector entries are signed
products of binomial factors, the primitive entries sum to 1, and every
entry grows like k^d.  This module provides those closed forms plus the
weak (constant-loss) majorant bound on the curve.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, prod
from typing import Sequence

from .cvector import CVector, Real, _check_real_coeffs, _exponent, build_c
from .errors import DimensionError, DomainError
from .exact_lattice import IntMatrix, Vec, _as_vec, _integer, det_exact
from .lp_engine import EvalConfig, _ladder_grids, lp_norm_quadrature


def gamma_point(d: int, t: int) -> Vec:
    """Point (t, t^2, ..., t^d) on the d-dimensional moment curve."""
    _integer(d, "dimension", 1, DimensionError)
    _integer(t, "t")
    return tuple(t**i for i in range(1, d + 1))


def factorial_product(d: int) -> int:
    """d! (d-1)! ... 1!, the gcd of the closed-form null vector."""
    return prod(factorial(j) for j in range(1, d + 1))


def c_closed_form(d: int, k: int) -> CVector:
    """Certificate vector of gamma(k), ..., gamma(k+d) from the closed form.

    c_i = (-1)^i C(k+i-1, i) C(k+d, d-i), exact binomials; the null vector
    is c scaled by the factorial product.
    """
    _integer(d, "dimension", 1, DimensionError)
    _integer(k, "curve parameter k", 1)
    scale = factorial_product(d)
    return build_c(
        tuple((-1) ** i * comb(k + i - 1, i) * comb(k + d, d - i) * scale for i in range(d + 1))
    )


def smallest_admissible_k(d: int, p: Real) -> tuple[int, CVector]:
    """Smallest k >= 1 with every |c_i(k)| > p/2, plus its certificate vector.

    |c_i(k)| = C(k+i-1, i) C(k+d, d-i) is log-concave in i and |c_d| < |c_0|, so
    the least entry is C(k+d-1, d), which grows with k and is at least k: a
    bisection on [1, floor(p/2) + 1] finds the smallest k with 2 C(k+d-1, d) > p,
    and the closed form is evaluated once, at it.
    """
    pf = Fraction(_exponent(p))
    _integer(d, "dimension", 1, DimensionError)
    lo, hi = 1, pf // 2 + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if 2 * comb(mid + d - 1, d) > pf:
            hi = mid
        else:
            lo = mid + 1
    return lo, c_closed_form(d, lo)


def vandermonde_check(d: int, k: int) -> bool:
    """Whether det[(k+j)^i, i,j = 0..d] equals d! (d-1)! ... 1! exactly."""
    _integer(d, "dimension", 1, DimensionError)
    _integer(k, "k")
    rows = [[(k + j) ** i for j in range(d + 1)] for i in range(d + 1)]
    return det_exact(IntMatrix.from_rows(rows)) == factorial_product(d)


def weak_majorant_ratio(
    d: int,
    p: Real,
    coeffs: Sequence[Real],
    majorant: Sequence[Real],
    support: Sequence[int],
    cfg: EvalConfig | None = None,
) -> float:
    """Ratio of L^p norms of the signed and majorant sums on curve points.

    Frequencies are gamma(t) for t in support.  For 2 <= p <= 2d the ratio
    is bounded by (d!)^(1/2d) uniformly in the coefficients; values are
    computed by quadrature, with both rows divided by the largest majorant
    entry.
    """
    cfg = cfg or EvalConfig()
    _integer(d, "dimension", 1, DimensionError)
    pf = float(_exponent(p))
    if not 2 <= pf <= 2 * d:
        raise DomainError(f"exponent must lie in [2, {2 * d}]")
    ts = _as_vec(support, "support")
    if not ts or len(ts) != len(set(ts)):
        raise DomainError("support must be nonempty distinct integers")
    big = _check_real_coeffs(majorant, len(ts), name="majorant")
    small = _check_real_coeffs(coeffs, len(ts))
    if any(b < 0 for b in big):
        raise DomainError("majorant coefficients must be nonnegative")
    if all(b == 0 for b in big):
        raise DomainError("majorant coefficients must not all vanish")
    if any(abs(s) > b for s, b in zip(small, big)):
        raise DomainError("majorant must dominate the coefficients entrywise")
    _ladder_grids(d, cfg)  # the grid budget refuses d before any curve point is formed
    freqs = [gamma_point(d, t) for t in ts]
    # the ratio is unchanged by a common factor, and at unit scale neither
    # norm power under- or overflows
    top = max(big)
    num = lp_norm_quadrature(freqs, [s / top for s in small], pf, cfg).value
    den = lp_norm_quadrature(freqs, [b / top for b in big], pf, cfg).value
    return (num / den) ** (1.0 / pf)


def weak_majorant_bound(d: int) -> float:
    """(d!)^(1/2d), the uniform constant in the weak majorant bound."""
    _integer(d, "dimension", 1, DimensionError)
    return float(factorial(d)) ** (1.0 / (2 * d))
