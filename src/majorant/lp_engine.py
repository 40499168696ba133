"""L^p norms of trigonometric polynomials on the torus, three ways.

Backends: tensor-grid quadrature (any p > 0, d <= 4), exact rational values
at even integer p, and a series truncated at a total order around a dominant
constant term.  The two exact backends read one expansion, every multi-index
up to an order grouped by its frequency, and share its budget check.  The
quadrature rule is the rectangle rule per axis, which on the torus is the
trapezoid rule and converges spectrally for smooth integrands; error
estimates come from comparing two successive grid doublings.

The quadrature kernel works on half the grid: real coefficients make |F|
even, so the first axis keeps indices 0..n//2, each weighted by the number
of grid slices it stands for.  A row's sum at every point is a matrix
product: the per-axis phase tables of all axes but the last, multiplied
together and scaled by the row, times the last axis's table.  It is taken a
block of slices at a time and squared into the row's |F|^2, so no complex
array of the whole grid is held.  One call keeps each grid's |F|^2 and
every exponent it evaluates reads it, so a table of exponents builds each
grid once; the start grid's n//2 grid, which seeds the first error
estimate, is read as every other point of the start grid's squares.  Each
row is first divided by a power of two that brings its largest entry into
[1, 2), so |F|^2 neither under- nor overflows for any coefficient size.

Signed-versus-majorant differences are always evaluated pairwise on the same
grid: the two integrands share all sign-even spectral content, so the
quadrature and rounding errors largely cancel and differences far below
either integral's own error remain trustworthy.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import NamedTuple, Sequence

import numpy as np

from .cvector import Real, gen_binom, is_even_exponent
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
_BLOCK_POINTS = 1 << 14  # grid points per block of the squares build
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


def _half_grid_squares(
    freqs: Sequence[Vec], coeff_rows: Sequence[Sequence[float]], n: int
) -> list[np.ndarray]:
    """|sum_j c_j e(n_j . x)|^2 on the half n^d grid, one array per coeff row.

    The first axis keeps indices 0..n//2 (see `_half_grid_mean`), and each
    array has shape (n//2 + 1, n^(d-1)).  A phase e(n_j . x) is a product of
    1-D phases e(k i / n), one per axis, which depend only on k mod n: every
    entry is reduced mod the full n, so exact integers of any size give a
    finite phase, read from one table of n-th roots of unity.  The tables of
    all axes but the last are multiplied into one (point x frequency) array
    whose rows, scaled by a row's coefficients, stand for the slices of the
    grid along the last axis.  The output is filled a block of about
    `_BLOCK_POINTS` points at a time: one matrix product of the block's
    slices with the last axis's table, squared in place through its float64
    view, real and imaginary halves added into the output.  No complex array
    of the whole grid is ever held.  All rows share the tables, keeping
    their errors correlated so that differences between rows are computed
    stably.
    """
    m, h = len(freqs), n // 2 + 1
    roots = np.exp((2j * np.pi / n) * np.arange(n))
    residues = np.array([[k % n for k in f] for f in freqs], dtype=np.int64)
    tables = [
        roots[np.outer(residues[:, axis], np.arange(n if axis else h)) % n]
        for axis in range(len(freqs[0]))
    ]
    head = np.ones((m, 1), dtype=complex)
    for table in tables[:-1]:
        head = (head[:, :, None] * table[:, None, :]).reshape(m, -1)
    head, last = np.ascontiguousarray(head.T), tables[-1]
    slices = len(head)
    bounds = [*range(0, slices, max(2, _BLOCK_POINTS // last.shape[1])), slices]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        # numpy takes a one-row product as a vector product, with other
        # arithmetic than a matrix product: a lone last slice joins the block before
        del bounds[-2]
    squares = []
    for row in coeff_rows:
        scaled = head * np.asarray(row)
        square = np.empty((slices, last.shape[1]))
        for lo, hi in zip(bounds, bounds[1:]):
            parts = (scaled[lo:hi] @ last).view(np.float64)
            np.square(parts, out=parts)
            np.add(parts[:, 0::2], parts[:, 1::2], out=square[lo:hi])
        squares.append(square.reshape(h, -1))
    return squares


def _start_squares(
    freqs: Sequence[Vec], rows: Sequence[Sequence[float]], n: int
) -> dict[int, list[np.ndarray]]:
    """Squares on the start grid n and on n//2, the grid of the first error estimate.

    The n//2 grid's points are the n grid's points with every index even,
    and its kept first-axis indices 0..n//4 are the even ones among 0..n//2.
    Where n is a multiple of 16, the n//2 squares are read as that subgrid
    of the n squares, copied contiguous so that their row sums add in the
    same order as a direct build's.  A BLAS matrix product gives a column
    the arithmetic of a full group of columns (4 wide in OpenBLAS) or of the
    remainder, and on multiples of 16 each subgrid column falls in the same
    kind of group in both builds, so the read squares equal the built ones
    bit for bit (with one BLAS thread: threads split a 1-D product's columns
    their own way).  On other grids they could differ in the last bits, and
    the n//2 grid is built.
    """
    d = len(freqs[0])
    squares = {n: _half_grid_squares(freqs, rows, n)}
    if n % 16:
        squares[n // 2] = _half_grid_squares(freqs, rows, n // 2)
    else:
        shape, even = (n // 2 + 1,) + (n,) * (d - 1), (slice(None, None, 2),) * d
        squares[n // 2] = [
            np.ascontiguousarray(sq.reshape(shape)[even]).reshape(n // 4 + 1, -1)
            for sq in squares[n]
        ]
    return squares


def _half_grid_mean(square: np.ndarray, p: float, n: int) -> float:
    """Mean of |sum|^p over the full n^d grid, from its squares on the half grid.

    Real coefficients give F(-x) = conj F(x), and x -> -x maps the points
    with first index i onto those with first index -i mod n.  So the slice
    at i stands for two slices, unless 2i = 0 mod n, where it stands for
    itself; this is exact for odd n as well as even.  Raises BudgetError
    when the mean overflows.
    """
    first = np.arange(square.shape[0])
    weights = np.where(2 * first % n == 0, 1.0, 2.0)
    with np.errstate(over="ignore"):
        mean = float(weights @ (square ** (p / 2.0)).sum(axis=1)) / (n * square.shape[1])
    if not math.isfinite(mean):
        raise BudgetError(f"the mean of |sum|^{p:g} is beyond floating-point range")
    return mean


def _scaled_back(x: float, shift: int, p: float) -> float:
    """x * 2^(shift p): a mean of |sum|^p taken with the row divided by 2^shift, unscaled."""
    try:
        whole = math.floor(shift * p)
        x = math.ldexp(x * 2.0 ** (shift * p - whole), whole)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise BudgetError(f"the mean of |sum|^{p:g} is beyond floating-point range")
    return x


class QuadResult(NamedTuple):
    value: float
    error_estimate: float
    grid_points_per_axis: int


def _refine(
    freqs: Sequence[Vec],
    coeffs: Sequence[Real],
    ps: Sequence[Real],
    cfg: EvalConfig,
    paired: bool,
) -> list[tuple[list[float], float, int]]:
    """Means of |sum|^p on doubling grids until the tracked quantity settles.

    One row (the coefficients) tracks its own mean; a paired run adds the
    absolute-value row and tracks signed minus majorant.  The rows are first
    divided by the power of two 2^shift that brings the largest |entry| into
    [1, 2), so that no |sum|^2 under- or overflows; a row whose largest
    entry is 1.0, as every certificate's is, stays as it is.  Doubling stops
    when two successive values of the scaled rows agree within the
    configured tolerance or the point budget, counted on the full grid, runs
    out; the last successive difference is returned as the error estimate,
    never silently dropped.  The means and the error come back multiplied
    by 2^(shift p), and BudgetError is raised when one leaves the float range.

    Every exponent is checked before any grid work, then runs this ladder on
    its own; the squares of a grid are built once and read by every
    exponent that visits it.  The start grid's squares are built first, and
    its n//2 grid, which seeds the first error estimate, is read from them
    (see `_start_squares`).  Returns (means, error, grid) per exponent.
    """
    d = _check_freqs(freqs)
    _check_real_coeffs(coeffs, len(freqs))
    pfs = [float(p) for p in ps]
    if not all(0 < pf < math.inf for pf in pfs):
        raise DomainError("exponent must be positive and finite")
    if d > QUAD_MAX_DIM:
        raise DomainError(f"tensor quadrature is limited to dimension {QUAD_MAX_DIM}")
    row = [float(x) for x in coeffs]
    shift = math.frexp(max(map(abs, row)))[1] - 1
    row = [math.ldexp(x, -shift) for x in row]
    rows = [row, [abs(x) for x in row]] if paired else [row]
    start = max(8, cfg.grid_points_per_axis)
    while start**d > QUAD_POINT_BUDGET and start > 8:
        start //= 2
    squares = _start_squares(freqs, rows, start)

    def tracked(n: int, pf: float) -> tuple[list[float], float]:
        if n not in squares:
            squares[n] = _half_grid_squares(freqs, rows, n)
        means = [_half_grid_mean(sq, pf, n) for sq in squares[n]]
        return means, (means[0] - means[1] if paired else means[0])

    results = []
    for pf in pfs:
        n = start
        prev = tracked(n // 2, pf)[1]
        means, value = tracked(n, pf)
        err = abs(value - prev)
        for _ in range(QUAD_MAX_DOUBLINGS):
            if err <= cfg.backend_agreement_tol or (2 * n) ** d > QUAD_POINT_BUDGET:
                break
            n *= 2
            prev = value
            means, value = tracked(n, pf)
            err = abs(value - prev)
        unscaled = [_scaled_back(x, shift, pf) for x in means]
        results.append((unscaled, _scaled_back(err, shift, pf), n))
    return results


def lp_norm_quadrature(
    freqs: Sequence[Vec], coeffs: Sequence[Real], p: Real, cfg: EvalConfig
) -> QuadResult:
    """p-th power of the L^p norm of sum_j coeffs[j] e(freqs[j] . x)."""
    [(means, err, n)] = _refine(freqs, coeffs, (p,), cfg, paired=False)
    return QuadResult(means[0], err, n)


class PairedDifference(NamedTuple):
    lhs: float  # majorant (absolute-value) side
    rhs: float  # signed side
    difference: float  # rhs - lhs; positive means the majorant comparison fails
    error_estimate: float  # successive-grid movement of the difference
    grid_points_per_axis: int


def _paired_differences(
    freqs: Sequence[Vec], signed: Sequence[Real], ps: Sequence[Real], cfg: EvalConfig
) -> list[PairedDifference]:
    """`paired_difference` at each exponent of `ps`, sharing grid squares."""
    return [
        PairedDifference(lhs, rhs, rhs - lhs, err, n)
        for (rhs, lhs), err, n in _refine(freqs, signed, ps, cfg, paired=True)
    ]


def paired_difference(
    freqs: Sequence[Vec], signed: Sequence[Real], p: Real, cfg: EvalConfig
) -> PairedDifference:
    """Signed minus absolute-value norm powers, evaluated on shared grids."""
    return _paired_differences(freqs, signed, (p,), cfg)[0]


def _numerators(coeffs: Sequence[Real]) -> tuple[list[int], int]:
    """Integers u and one denominator w with coeffs[j] = u[j] / w exactly (floats too)."""
    exact = [Fraction(x) for x in coeffs]
    w = math.lcm(*(x.denominator for x in exact))
    return [x.numerator * (w // x.denominator) for x in exact], w


def _frequency_groups(
    freqs: Sequence[Vec], u: Sequence[int], max_order: int, budget: int
) -> dict[Vec, dict[int, list[int]]]:
    """Every multi-index beta with |beta| <= max_order, grouped by its frequency.

    Maps each frequency F = sum_j beta_j n_j and order k to two sums over the
    beta of order k reaching F: of the weights multinomial(beta) u^beta, which
    is the coefficient of e(F . x) in (sum_j u_j e(n_j . x))^k, and of their
    sizes.  Summed by order, the pairs formed at one F stay (max_order + 1)^2
    however many beta reach it.  Raises BudgetError, before walking, when the
    C(m + max_order, m) multi-indices exceed `budget`.
    """
    m = len(freqs)
    if math.comb(m + max_order, m) > budget:
        raise BudgetError(f"C({m} + {max_order}, {m}) multi-indices exceed the budget of {budget}")
    groups: dict[Vec, dict[int, list[int]]] = {}
    # (next index j, order, frequency and weight of the entries before j)
    stack = [(0, 0, (0,) * len(freqs[0]), 1)]
    while stack:
        j, order, total, weight = stack.pop()
        for e in range(max_order - order + 1):
            if e:  # one more copy of index j: multinomial gains (order + e) / e
                weight = weight * (order + e) * u[j] // e
                total = tuple(map(add, total, freqs[j]))
            if j + 1 < m:
                stack.append((j + 1, order + e, total, weight))
            else:
                sums = groups.setdefault(total, {}).setdefault(order + e, [0, 0])
                sums[0] += weight
                sums[1] += abs(weight)
    return groups


def lp_norm_even_exact(
    freqs: Sequence[Vec], coeffs: Sequence[Real], s: int, budget: int = ENUM_BUDGET
) -> Fraction:
    """Exact rational value of the L^{2s} norm power for rational coefficients.

    The 2s-th power is the s-th power times its conjugate, so the value is
    the sum over frequencies F of the squared coefficient of e(F . x) in the
    s-th power: of (sum of multinomial(beta) a^beta over the multi-indices of
    order s reaching F)^2, read from the grouped expansion that the series
    backend shares.  Raises BudgetError when C(m + s, m) exceeds `budget`.
    """
    _check_freqs(freqs)
    if not isinstance(s, int) or isinstance(s, bool) or s < 1:
        raise DomainError("s must be a positive integer")
    _check_real_coeffs(coeffs, len(freqs))
    u, w = _numerators(coeffs)
    groups = _frequency_groups(freqs, u, s, budget)
    total = sum(orders[s][0] ** 2 for orders in groups.values() if s in orders)
    return Fraction(total, w ** (2 * s))


class TaylorResult(NamedTuple):
    value: Real
    converged: bool
    tail_estimate: float


def lp_norm_taylor(
    freqs: Sequence[Vec], b: Sequence[Real], p: Real, cfg: EvalConfig
) -> TaylorResult:
    """Series value of the norm power of 1 + sum_j b_j e(n_j . x).

    Expands both conjugate factors of |1 + g|^p into generalized binomial
    series and keeps the multi-index pairs (beta, gamma) of total order up to
    the configured cutoff whose frequency sums agree, summed group by group
    from the grouped expansion shared with lp_norm_even_exact, for dependent
    and independent frequencies alike.  Raises BudgetError when
    C(m + cutoff, m) exceeds ENUM_BUDGET.

    The sum is exact for the inputs: a Fraction when p and every b_j are
    rational (not float), else rounded to float.  The reported tail estimate
    is ten times the larger |term| sum of the top two degrees; converged
    means it is within the configured backend tolerance.
    """
    _check_freqs(freqs)
    _check_real_coeffs(b, len(freqs))
    if not float(p) > 0:
        raise DomainError("exponent must be positive")
    if max(abs(float(x)) for x in b) >= 1.0:
        raise ConvergenceError("series requires every |b_i| < 1")
    k_max = cfg.series_total_degree_cutoff
    u, w = _numerators(b)
    # (p/2 choose k) / w^k = g[k] / den: every term becomes an integer over den^2
    g, den = _numerators([gen_binom(Fraction(p), k) / w**k for k in range(k_max + 1)])
    # sums of x y and of the size products over the pairs at one frequency, by orders
    signed, size = Counter(), Counter()
    for orders in _frequency_groups(freqs, u, k_max, ENUM_BUDGET).values():
        for k, (x, x_size) in orders.items():
            for l, (y, y_size) in orders.items():
                if k + l <= k_max:
                    signed[k, l] += x * y
                    size[k, l] += x_size * y_size
    value: Real = Fraction(sum(g[k] * g[l] * x for (k, l), x in signed.items()), den * den)
    if isinstance(p, float) or any(isinstance(x, float) for x in b):
        value = float(value)
    if is_even_exponent(p) and k_max >= float(p):
        # Every binomial factor beyond order p/2 vanishes, so the cutoff
        # already captured the whole (finite) series.
        return TaylorResult(value, True, 0.0)
    top = [
        sum(abs(g[k] * g[l]) * x for (k, l), x in size.items() if k + l == n)
        for n in (k_max - 1, k_max)
    ]
    tail = 10.0 * float(Fraction(max(top), den * den))
    return TaylorResult(value, tail <= cfg.backend_agreement_tol, tail)


def g_function(r: Real, p: Real, cfg: EvalConfig) -> float:
    """G(r) = integral over one period of |1 + r e(t)|^p."""
    return lp_norm_quadrature(((0,), (1,)), (1.0, float(r)), p, cfg).value
