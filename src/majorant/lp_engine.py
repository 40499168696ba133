"""L^p norms of trigonometric polynomials on the torus, three ways.

Backends: tensor-grid quadrature (any p > 0, d <= 4), exact rational
enumeration at even integer p, and a truncated series around a dominant
constant term.  The quadrature rule is the rectangle rule per axis, which on
the torus is the trapezoid rule and converges spectrally for smooth
integrands; error estimates come from comparing two successive grid
doublings.

Signed-versus-majorant differences are always evaluated pairwise on the same
grid: the two integrands share all sign-even spectral content, so the
quadrature and rounding errors largely cancel and differences far below
either integral's own error remain trustworthy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .cvector import CVector, Real, build_c, build_v, gen_binom, is_even_exponent, multinomial
from .errors import (
    BudgetError,
    ConvergenceError,
    DimensionError,
    DomainError,
)
from .exact_lattice import Vec, _typed

QUAD_POINT_BUDGET = 1 << 22  # total tensor-grid points per evaluation
QUAD_MAX_DIM = 4
QUAD_MAX_DOUBLINGS = 16
ENUM_BUDGET = 10_000_000


@dataclass(frozen=True)
class EvalConfig:
    """Numerical knobs shared by the quadrature and series backends."""

    grid_points_per_axis: int = 256
    series_total_degree_cutoff: int = 12
    backend_agreement_tol: float = 1e-9
    margin_safety_factor: float = 10.0

    def __post_init__(self) -> None:
        """Reject values of the wrong type (a bool is no number) or range."""
        if not _typed(self.grid_points_per_axis, int) or self.grid_points_per_axis < 4:
            raise DomainError(f"grid must be an integer >= 4, got {self.grid_points_per_axis!r}")
        if not _typed(self.series_total_degree_cutoff, int) or self.series_total_degree_cutoff < 0:
            raise DomainError("series cutoff must be a nonnegative integer")
        tol, safety = self.backend_agreement_tol, self.margin_safety_factor
        if not (_typed(tol, (int, float)) and tol > 0):
            raise DomainError("tolerance must be a positive number")
        if not (_typed(safety, (int, float)) and safety > 1):
            raise DomainError("safety factor must be a number above 1")


def _check_freqs(freqs: Sequence[Vec]) -> int:
    if not freqs:
        raise DimensionError("no frequencies")
    d = len(freqs[0])
    if d == 0:
        raise DimensionError("dimension must be at least 1")
    if any(len(f) != d for f in freqs):
        raise DimensionError("frequency vectors of mixed dimension")
    if len(set(freqs)) != len(freqs):
        raise DomainError("frequencies must be pairwise distinct")
    return d


def _check_real_coeffs(coeffs: Sequence[Real], count: int) -> None:
    if len(coeffs) != count:
        raise DimensionError("coefficient count differs from frequency count")
    for x in coeffs:
        if isinstance(x, complex):
            raise DomainError("coefficients must be real")
        if not math.isfinite(float(x)):
            raise DomainError("coefficients must be finite")


def _abs_power(values: np.ndarray, p: float) -> np.ndarray:
    intensity = values.real**2 + values.imag**2
    if float(p) == 2.0:
        return intensity
    half = float(p) / 2.0
    if half == int(half) and half >= 1:
        return intensity ** int(half)
    return intensity**half


def _phase_factor(freq: Vec, t: np.ndarray, d: int) -> np.ndarray:
    """exp(2 pi i freq.x) on the tensor grid, built axis by axis.

    On n points e(k j/n) depends only on k mod n, so an entry larger than
    n/2 in size is first reduced to its centered residue: exact integers of
    any size then give a finite phase, and smaller entries are used unchanged.
    """
    n = t.size
    out: Optional[np.ndarray] = None
    for axis, k in enumerate(freq):
        if abs(k) > n // 2:
            k = (k + n // 2) % n - n // 2
        if k == 0:
            continue
        shape = [1] * d
        shape[axis] = n
        factor = np.exp((2j * np.pi * k) * t).reshape(shape)
        out = factor if out is None else out * factor
    if out is None:
        return np.ones((1,) * d)
    return out


def _mean_abs_powers(
    freqs: Sequence[Vec],
    coeff_rows: Sequence[Sequence[float]],
    p: float,
    n: int,
) -> list[float]:
    """Mean of |sum_j c_j e(n_j . x)|^p over the n^d grid, one per coeff row.

    All rows share the per-frequency phase arrays, keeping their errors
    correlated so that differences between rows are computed stably.
    """
    d = len(freqs[0])
    t = np.arange(n) / n
    totals = [np.zeros((n,) * d, dtype=complex) for _ in coeff_rows]
    for j, f in enumerate(freqs):
        phase = _phase_factor(f, t, d)
        for row, total in zip(coeff_rows, totals):
            if row[j] != 0.0:
                total += row[j] * phase
        del phase
    return [float(np.mean(_abs_power(total, p))) for total in totals]


class QuadResult(NamedTuple):
    value: float
    error_estimate: float
    grid_points_per_axis: int


def _refine(
    freqs: Sequence[Vec], coeffs: Sequence[Real], p: Real, cfg: EvalConfig, paired: bool
) -> tuple[list[float], float, int]:
    """Means of |sum|^p on doubling grids until the tracked quantity settles.

    One row (the coefficients) tracks its own mean; a paired run adds the
    absolute-value row and tracks signed minus majorant.  Doubling stops when
    two successive values agree within the configured tolerance or the point
    budget runs out; the last successive difference is returned as the error
    estimate, never silently dropped.  Returns (means, error, grid).
    """
    d = _check_freqs(freqs)
    _check_real_coeffs(coeffs, len(freqs))
    pf = float(p)
    if not 0 < pf < math.inf:
        raise DomainError("exponent must be positive and finite")
    if d > QUAD_MAX_DIM:
        raise DomainError(f"tensor quadrature is limited to dimension {QUAD_MAX_DIM}")
    row = [float(x) for x in coeffs]
    rows = [row, [abs(x) for x in row]] if paired else [row]

    def tracked(means: list[float]) -> float:
        return means[0] - means[1] if paired else means[0]

    n = max(8, cfg.grid_points_per_axis)
    while n**d > QUAD_POINT_BUDGET and n > 8:
        n //= 2
    prev = tracked(_mean_abs_powers(freqs, rows, pf, max(4, n // 2)))
    means = _mean_abs_powers(freqs, rows, pf, n)
    err = abs(tracked(means) - prev)
    for _ in range(QUAD_MAX_DOUBLINGS):
        if err <= cfg.backend_agreement_tol or (2 * n) ** d > QUAD_POINT_BUDGET:
            break
        n *= 2
        prev = tracked(means)
        means = _mean_abs_powers(freqs, rows, pf, n)
        err = abs(tracked(means) - prev)
    return means, err, n


def lp_norm_quadrature(
    freqs: Sequence[Vec], coeffs: Sequence[Real], p: Real, cfg: EvalConfig
) -> QuadResult:
    """p-th power of the L^p norm of sum_j coeffs[j] e(freqs[j] . x)."""
    means, err, n = _refine(freqs, coeffs, p, cfg, paired=False)
    return QuadResult(means[0], err, n)


class PairedDifference(NamedTuple):
    lhs: float  # majorant (absolute-value) side
    rhs: float  # signed side
    difference: float  # rhs - lhs; positive means the majorant comparison fails
    error_estimate: float  # successive-grid movement of the difference
    grid_points_per_axis: int


def paired_difference(
    freqs: Sequence[Vec], signed: Sequence[Real], p: Real, cfg: EvalConfig
) -> PairedDifference:
    """Signed minus absolute-value norm powers, evaluated on shared grids."""
    (rhs, lhs), err, n = _refine(freqs, signed, p, cfg, paired=True)
    return PairedDifference(lhs, rhs, rhs - lhs, err, n)


def lp_norm_even_exact(
    freqs: Sequence[Vec], coeffs: Sequence[Real], s: int, budget: int = ENUM_BUDGET
) -> Fraction:
    """Exact rational value of the L^{2s} norm power for rational coefficients.

    Expanding the 2s-th power pairs an s-fold product against its conjugate;
    only index tuples whose frequency sums collide survive integration, so
    the value is the sum over attained frequency sums of the squared grouped
    coefficient products.
    """
    _check_freqs(freqs)
    if not isinstance(s, int) or isinstance(s, bool) or s < 1:
        raise DomainError("s must be a positive integer")
    _check_real_coeffs(coeffs, len(freqs))
    m = len(freqs)
    if m**s > budget:
        raise BudgetError(f"{m}^{s} enumeration exceeds the budget of {budget}")
    exact = [Fraction(x) for x in coeffs]
    grouped: dict[Vec, Fraction] = {}
    for combo in itertools.product(range(m), repeat=s):
        total = tuple(sum(freqs[i][axis] for i in combo) for axis in range(len(freqs[0])))
        prod = Fraction(1)
        for i in combo:
            prod *= exact[i]
        grouped[total] = grouped.get(total, Fraction(0)) + prod
    return sum((t * t for t in grouped.values()), Fraction(0))


def i_indicator(u: Sequence[int], freqs: Sequence[Vec]) -> int:
    """1 when sum_i u_i n_i = 0 in Z^d, else 0; exact integer arithmetic."""
    d = _check_freqs(freqs)
    if len(u) != len(freqs):
        raise DimensionError("weight length differs from frequency count")
    return int(all(sum(ui * f[axis] for ui, f in zip(u, freqs)) == 0 for axis in range(d)))


class TaylorResult(NamedTuple):
    value: Real
    converged: bool
    tail_estimate: float


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _multi_indices(max_order: int, parts: int) -> list[tuple[int, ...]]:
    out = []
    for total in range(max_order + 1):
        out.extend(_compositions(total, parts))
    return out


def _power(b: Sequence, idx: Sequence[int]):
    out = b[0] ** idx[0]
    for x, e in zip(b[1:], idx[1:]):
        if e:
            out = out * x**e
    return out


def lp_norm_taylor(
    freqs: Sequence[Vec], b: Sequence[Real], p: Real, cfg: EvalConfig
) -> TaylorResult:
    """Series value of the norm power of 1 + sum_j b_j e(n_j . x).

    Expands both conjugate factors of |1 + g|^p into generalized binomial
    series and keeps the multi-index pairs (beta, gamma) of total order up to
    the configured cutoff whose frequency sums cancel exactly.  When the
    frequency tuple is affinely independent the surviving pairs are the
    diagonal plus integer multiples of the primitive null direction, which is
    enumerated directly; otherwise all pairs are scanned against the exact
    integer indicator.

    With rational p and coefficients the computation is exact rational
    arithmetic; otherwise floats.  The reported tail estimate is ten times
    the largest included top-degree magnitude; converged means it is within
    the configured backend tolerance.
    """
    d = _check_freqs(freqs)
    m = len(freqs)
    _check_real_coeffs(b, m)
    if not float(p) > 0:
        raise DomainError("exponent must be positive")
    if max(abs(float(x)) for x in b) >= 1.0:
        raise ConvergenceError("series requires every |b_i| < 1")
    exact_mode = not isinstance(p, float) and all(not isinstance(x, float) for x in b)
    k_max = cfg.series_total_degree_cutoff
    num = Fraction if exact_mode else float
    gb = [num(gen_binom(Fraction(p), j)) for j in range(k_max + 1)]
    bvals = [num(x) for x in b]
    zero = num(0)

    cv: Optional[CVector] = None
    if m == d + 1:
        v = build_v(freqs)
        if sum(v) != 0:
            cv = build_c(v)

    degree_mag: dict[int, float] = {}
    value = zero

    def add(term, degree: int) -> None:
        nonlocal value
        value = value + term
        degree_mag[degree] = degree_mag.get(degree, 0.0) + abs(float(term))

    if cv is not None:
        # diagonal: beta = gamma, any multi-index
        for beta in _multi_indices(k_max // 2, m):
            t = gb[sum(beta)] * multinomial(beta) * _power(bvals, beta)
            add(t * t, 2 * sum(beta))
        # coupled: beta - gamma = k c, k != 0; symmetric in k <-> -k
        span = cv.total_order
        k = 1
        while span * k <= k_max:
            shift_p = tuple(k * x for x in cv.c_plus)
            shift_m = tuple(k * x for x in cv.c_minus)
            base = span * k
            for delta in _multi_indices((k_max - base) // 2, m):
                beta = tuple(a + b_ for a, b_ in zip(delta, shift_p))
                gamma = tuple(a + b_ for a, b_ in zip(delta, shift_m))
                term = (
                    gb[sum(beta)]
                    * gb[sum(gamma)]
                    * multinomial(beta)
                    * multinomial(gamma)
                    * _power(bvals, beta)
                    * _power(bvals, gamma)
                )
                add(2 * term, base + 2 * sum(delta))
            k += 1
    else:
        indices = _multi_indices(k_max, m)
        ind_cache: dict[tuple[int, ...], int] = {}
        for beta in indices:
            sb = sum(beta)
            fb = gb[sb] * multinomial(beta) * _power(bvals, beta)
            for gamma in indices:
                if sb + sum(gamma) > k_max:
                    continue
                diff = tuple(x - y for x, y in zip(beta, gamma))
                hit = ind_cache.get(diff)
                if hit is None:
                    hit = i_indicator(diff, freqs)
                    ind_cache[diff] = hit
                if hit:
                    term = fb * gb[sum(gamma)] * multinomial(gamma) * _power(bvals, gamma)
                    add(term, sb + sum(gamma))

    if is_even_exponent(p) and k_max >= float(p):
        # Every binomial factor beyond order p/2 vanishes, so the cutoff
        # already captured the whole (finite) series.
        return TaylorResult(value, True, 0.0)
    tail = 10.0 * max(degree_mag.get(k_max, 0.0), degree_mag.get(k_max - 1, 0.0))
    return TaylorResult(value, tail <= cfg.backend_agreement_tol, tail)


def g_function(r: Real, p: Real, cfg: EvalConfig) -> float:
    """G(r) = integral over one period of |1 + r e(t)|^p."""
    return lp_norm_quadrature(((0,), (1,)), (1.0, float(r)), p, cfg).value
