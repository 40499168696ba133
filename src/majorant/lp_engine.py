"""L^p norms of trigonometric polynomials on the torus, three ways.

Backends: tensor-grid quadrature (any p > 0), exact rational values at even
integer p, and a series truncated at a total order around a dominant
constant term.  The even backend walks every multi-index of its order by
frequency.  The series sums the pairs of equal frequency over the multiples
of the frequencies' one relation, a product of univariate series each, or,
with two or more relations, walks the same multi-indices.  The quadrature rule
is the rectangle rule per axis, which on the torus is the trapezoid rule and
converges spectrally for smooth integrands; error estimates come from
comparing two successive grid doublings.  Grids double until that step is
within the absolute tolerance or, since a step at float64's rounding floor
cannot shrink by doubling, within 4 ulps of the largest mean (which stops a
ladder early only for means of 2^21, about 2e6, and above, where 4 ulps
exceed the default tolerance of 1e-9); the estimate is the step either way.
The point budget is the quadrature's one limit: a grid of any dimension runs
when it fits at 8 or more points per axis, and BudgetError refuses one that
does not.

The quadrature streams: one pass over a grid builds |F|^2 a chunk of
about 2^16 values (points times rows) at a time, raises it to every
exponent the grid serves and keeps per-slice sums only.  Each thread keeps
one workspace between passes, a complex field buffer and a real squares
buffer (1.5 MiB at that chunk size), so a pass allocates nothing of a
chunk's size.  It covers half of a tensor grid (|F| is even) with matrix
products of per-axis phase tables, in every dimension: a 1-D grid is the
A x B grid of x = a + A b.  Exponents double grid by grid, so each grid is
passed over once per call.  The start grid's pass also gives the n//2 grid
of the first error estimates, so every exponent a ladder evaluates carries
its estimate.  Rows are scaled by a power of two, so |F|^2 neither under-
nor overflows for any coefficient size.  A pass over a half grid of at
least 2^17 points splits its chunks between the calling thread and one
pooled thread (one thread on a single CPU); each slice's arithmetic depends
on neither the chunk size nor our or BLAS's thread count, so the results
are bit for bit the same.  The kernel imports numpy at its first pass: the
exact backends form no grid, so a process that runs only them never loads it.

Signed-versus-majorant differences are always evaluated pairwise on the same
grid: the two integrands share all sign-even spectral content, so the
quadrature and rounding errors largely cancel and differences far below
either integral's own error remain trustworthy.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import accumulate
from operator import add
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .cvector import (
    Real,
    _check_real_coeffs,
    _exponent,
    _half_binomial_numerators,
    build_c,
    build_v,
    is_even_exponent,
)
from .errors import BudgetError, ConvergenceError, DomainError
from .exact_lattice import Vec, _eliminate, _integer, _typed, _vectors

if TYPE_CHECKING:
    import numpy as np

QUAD_POINT_BUDGET = 1 << 22  # total tensor-grid points per evaluation, the quadrature's one limit
_CHUNK_VALUES = 1 << 16  # |F|^2 values (points x rows) per chunk of a grid pass
_BLOCK_POINTS = 1 << 13  # slice sums per block of a mean's weighted sum
_PARALLEL_POINTS = 1 << 17  # a pass over fewer points runs on the calling thread alone
# threads per larger pass, the calling one included; two keep a pass's buffers small
_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1)
_SLICE_POINTS = 64  # a 1-D grid's slices hold the most points up to this that divide n
# a step within this many ulps of the largest |row mean| is rounding, which doubling cannot shrink
_FLOOR_ULPS = 4
ENUM_BUDGET = 10_000_000
_kept = threading.local()  # each thread's workspace, kept between passes


@dataclass(frozen=True)
class EvalConfig:
    """Numerical knobs shared by the quadrature and series backends.

    The tolerance is absolute and finite, as is the safety factor; both are
    plain JSON numbers (int or float), never inf, NaN or a Fraction.
    """

    grid_points_per_axis: int = 256
    series_total_degree_cutoff: int = 12
    backend_agreement_tol: float = 1e-9
    margin_safety_factor: float = 10.0

    def __post_init__(self) -> None:
        _integer(self.grid_points_per_axis, "grid", 4)
        _integer(self.series_total_degree_cutoff, "series cutoff", 0)
        tol, safety = self.backend_agreement_tol, self.margin_safety_factor
        if not (_typed(tol, (int, float)) and 0 < tol <= sys.float_info.max):
            raise DomainError(f"tolerance must be a positive finite number, got {tol!r}")
        if not (_typed(safety, (int, float)) and 1 < safety <= sys.float_info.max):
            raise DomainError(f"safety factor must be a finite number above 1, got {safety!r}")


def _check_freqs(freqs: Sequence[Vec]) -> tuple[Vec, ...]:
    """The frequency vectors, which must share one length and be pairwise distinct."""
    vecs = _vectors(freqs, "frequency")
    if len(set(vecs)) != len(vecs):
        raise DomainError("frequencies must be pairwise distinct")
    return vecs


def _pass_inputs(
    freqs: Sequence[Vec], coeffs: Sequence[Real], ps: Sequence[Real]
) -> tuple[tuple[Vec, ...], tuple[float, ...], list[float]]:
    """Everything of its arguments that `_refine` reads: the checked frequencies,
    the coefficients as floats and the exponents as floats."""
    vecs = _check_freqs(freqs)
    return vecs, tuple(_check_real_coeffs(coeffs, len(vecs))), [float(_exponent(p)) for p in ps]


def _axes(d: int, n: int) -> tuple[int, ...]:
    """The widths of the axes of the n^d grid: its d axes, or in 1-D (A, B).

    A 1-D point x is a + A b, with B the largest divisor of n up to
    `_SLICE_POINTS` and A = n / B: e(k x / n) = e(k a / n) e(k b / B), and
    -x mod n lies in slice -a mod A, mirrored as a d-axis grid's first axis.
    """
    if d > 1:
        return (n,) * d
    width = max(w for w in range(1, _SLICE_POINTS + 1) if n % w == 0)
    return n // width, width


def _phases(residues: np.ndarray, indices: np.ndarray, modulus: int) -> np.ndarray:
    """The table of e(k i / modulus), a row per residue k and a column per index i.

    Each phase is taken at k i mod modulus: exact for integers of any size.
    """
    import numpy as np

    phases = (2j * np.pi / modulus) * np.remainder(np.outer(residues, indices), modulus)
    return np.exp(phases, out=phases)


def _tensor_pass(freqs: Sequence[Vec], coeffs: np.ndarray, n: int):
    """The chunks (lo, hi) of a pass, and `_tensor_squares` bound to its tables.

    A chunk is the first-axis slices lo..hi-1 of the `_axes` grid, about
    `_CHUNK_VALUES` values of |F|^2 over all rows (or one slice).  A phase
    is a product of `_phases` per axis, modulo n on the first axis and its
    width on the others.  The tables of the other axes are built once and
    only read by every thread; a chunk builds its own slices' first-axis
    phases, so no table spans the first axis (in 1-D, n / 64 wide).
    """
    import numpy as np

    d, widths = len(freqs[0]), _axes(len(freqs[0]), n)
    residues = [
        np.array([f[min(axis, d - 1)] % modulus for f in freqs], dtype=np.int64)
        for axis, modulus in enumerate((n, *widths[1:]))
    ]
    tables = [_phases(r, np.arange(w), w) for r, w in zip(residues[1:], widths[1:])]
    if widths[-1] == 1:  # numpy would take a vector product: a column of zeros adds nothing
        tables[-1] = np.pad(tables[-1], ((0, 0), (0, 1)))
    h, per_slice = widths[0] // 2 + 1, len(coeffs) * math.prod(t.shape[1] for t in tables)
    bounds = [*range(0, h, max(1, _CHUNK_VALUES // per_slice)), h]
    if len(widths) == 2 and len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        # numpy takes a one-row product as a vector product, with other BLAS
        # arithmetic than a matrix product: a lone last slice joins the chunk before
        del bounds[-2]
    chunks = list(zip(bounds, bounds[1:]))
    size = max(hi - lo for lo, hi in chunks) * per_slice
    return chunks, partial(_tensor_squares, residues[0], n, tables, coeffs, size)


def _workspace(size: int) -> tuple[np.ndarray, np.ndarray]:
    """This thread's complex field buffer and real squares buffer, each of `size` or more.

    Both are kept between passes and hold at least `_CHUNK_VALUES` entries,
    so the passes of a ladder share them; only a larger chunk replaces them.
    """
    import numpy as np

    kept = getattr(_kept, "buffers", None)
    if kept is None or len(kept[1]) < size:
        size = max(size, _CHUNK_VALUES)
        kept = _kept.buffers = np.empty(size, dtype=complex), np.empty(size)
    return kept


def _tensor_squares(
    first: np.ndarray, n: int, tables: list[np.ndarray], coeffs: np.ndarray, size: int, chunks
):
    """Yield (lo, hi, squares, powers) for each chunk of `chunks`.

    The squares are |F|^2 of each row on the first-axis slices lo..hi-1, at
    most `size` values; powers is a buffer of their shape.  The chunk's
    first-axis phases (residues `first`, modulo n) and the tables of the
    other axes but the last multiply into a (point x frequency) head, whose
    copies scaled by each row take one matrix product with the last axis's
    table; shared tables keep the rows' errors correlated, so their
    difference is stable.  The product fills this thread's field buffer and
    its squares the squares buffer (see `_workspace`); once the squares are
    taken the field is spent, and the powers are written over it.  So a
    chunk allocates nothing of its size.
    """
    import numpy as np

    m, last = len(first), tables[-1].shape[1]
    fields, kept_squares = _workspace(size)
    for lo, hi in chunks:
        head = np.ones((m, 1), dtype=complex)
        for table in (_phases(first, np.arange(lo, hi), n), *tables[:-1]):
            head = (head[:, :, None] * table[:, None, :]).reshape(m, -1)
        scaled = (np.ascontiguousarray(head.T) * coeffs[:, None, :]).reshape(-1, m)
        count = len(scaled) * last
        field = fields[:count].reshape(len(scaled), last)
        parts = np.matmul(scaled, tables[-1], out=field).view(np.float64)
        np.square(parts, out=parts)
        shape = (len(coeffs), hi - lo, -1)
        squares = kept_squares[:count].reshape(shape)
        np.add(parts[:, 0::2], parts[:, 1::2], out=squares.reshape(len(scaled), last))
        yield lo, hi, squares, fields.view(np.float64)[:count].reshape(shape)


class _Share:
    """The chunks of one pass, handed out in order to the threads that run it."""

    def __init__(self, chunks: list[tuple[int, int]]):
        self._chunks, self._lock = iter(chunks), threading.Lock()

    def __iter__(self) -> _Share:
        return self

    def __next__(self) -> tuple[int, int]:
        with self._lock:
            return next(self._chunks)

    def stop(self) -> None:
        """Hand out no further chunk."""
        with self._lock:
            self._chunks = iter(())


@cache
def _helper():
    """The one-thread pool that runs passes beside the calling thread, made at first use."""
    from concurrent.futures import ThreadPoolExecutor  # here: most processes never need it

    return ThreadPoolExecutor(1, thread_name_prefix="majorant-grid")


if hasattr(os, "register_at_fork"):  # a forked child has none of the pool's threads: a new pool
    os.register_at_fork(after_in_child=_helper.cache_clear)


def _run_shared(work, chunks: list[tuple[int, int]]) -> None:
    """Run work(share) on the calling thread and the pooled one, sharing `chunks`.

    A thread that raises stops the share, so the other takes no further
    chunk.  Both threads are done before this returns or raises; the calling
    thread's exception comes first, then the pooled thread's.
    """
    share = _Share(chunks)

    def guarded() -> None:
        try:
            work(share)
        except BaseException:
            share.stop()
            raise

    future = _helper().submit(guarded)
    try:
        guarded()
    finally:
        future.exception()  # waits: no thread writes the sums once this returns
    future.result()


def _beyond_range(p: float) -> BudgetError:
    return BudgetError(f"the mean of |sum|^{p:g} is beyond floating-point range")


def _grid_means(
    freqs: Sequence[Vec], rows: list[list[float]], n: int, ps: list[float], half: bool = False
) -> list[list[list[float]]]:
    """Means of |sum|^p over the n^d grid per exponent and row, from one pass.

    A chunk's squares are raised to every exponent while in cache and summed
    slice by slice; a mean is the weighted sum of slice sums over n^d.  Only
    first-axis indices 0..A//2 of the A-point first axis are visited: real
    coefficients give F(-x) = conj F(x), so the slice at i stands for itself
    where 2i = 0 mod A and for two slices elsewhere.  With `half` (where the
    n//2 grid's first axis is half as wide) its means come back too, read
    from the even first-axis slices of the same powers, at the even points
    of the later axes that n//2 halves; with two or more later axes (d >= 3)
    they are copied contiguous, to add as one run in the order of a pass
    over n//2.  Returns means per grid, exponent and row.

    The powers of a chunk are held in its thread's spent field buffer (see
    `_tensor_squares`), so a pass allocates per-slice sums, not powers.  A
    pass whose half grid has at least `_PARALLEL_POINTS` points runs its
    chunks on `_WORKERS` threads.  The chunks do not depend on the thread
    count and each writes only its own slice sums, so neither do the means,
    which weigh slice sums in blocks of `_BLOCK_POINTS` that one BLAS thread
    adds (a d >= 2 grid has fewer slices).  A slice's sums do not depend on
    the chunk size either: only these blocks fix the last bits of a mean.
    The powers are nonnegative: a chunk whose sums are not finite raises
    BudgetError at once.
    """
    import numpy as np

    d, widths = len(freqs[0]), _axes(len(freqs[0]), n)
    coeffs = np.array(rows, dtype=float)
    chunks, squares_of = _tensor_pass(freqs, coeffs, n)
    slices = widths[0] // 2 + 1
    sums = np.zeros((len(ps), len(coeffs), slices))
    halves = np.zeros((len(ps), len(coeffs), (slices + 1) // 2))
    steps = [w // v for w, v in zip(widths[1:], _axes(d, n // 2)[1:])]

    def work(mine) -> None:
        with np.errstate(over="ignore"):  # in each thread: numpy's error state is a thread's own
            for lo, hi, squares, powers in squares_of(mine):
                for i, p in enumerate(ps):
                    if p == 1:  # as numpy's squares ** 0.5: a square root
                        np.sqrt(squares, out=powers)
                    else:
                        np.power(squares, p / 2.0, out=powers)
                    np.add.reduce(powers, axis=2, out=sums[i, :, lo:hi])
                    # the powers are >= 0: a sum beyond range (or NaN) puts the mean there too
                    if not sums[i, :, lo:hi].max() < math.inf:
                        raise _beyond_range(p)
                    if half:
                        add_even_subgrid(i, lo, powers)

    def add_even_subgrid(i: int, lo: int, powers: np.ndarray) -> None:
        thin = (slice(lo % 2, None, 2), *(slice(None, None, step) for step in steps))
        even = powers.reshape(powers.shape[:2] + widths[1:])[(slice(None), *thin)]
        even = even.reshape(*even.shape[:2], math.prod(even.shape[2:]))
        np.add.reduce(even, axis=2, out=halves[i, :, (lo + 1) // 2 :][:, : even.shape[1]])

    if _WORKERS > 1 and slices * math.prod(widths[1:]) >= _PARALLEL_POINTS:
        _run_shared(work, chunks)
    else:
        work(chunks)
    out = []
    grids = [(widths[0], n, sums)] + ([(widths[0] // 2, n // 2, halves)] if half else [])
    for first, size, grid in grids:
        weights = np.where(2 * np.arange(grid.shape[2]) % first == 0, 1.0, 2.0)
        blocks = [slice(k, k + _BLOCK_POINTS) for k in range(0, len(weights), _BLOCK_POINTS)]
        with np.errstate(over="ignore"):  # finite slice sums can weigh past range: refused below
            weighted = [
                [sum(float(weights[b] @ s[b]) for b in blocks) for s in by_p] for by_p in grid
            ]
        out.append([[x / size**d for x in by_p] for by_p in weighted])
        for p, means in zip(ps, out[-1]):
            if not all(map(math.isfinite, means)):
                raise _beyond_range(p)
    return out


def _scaled_back(x: float, shift: int, p: float) -> float:
    """x * 2^(shift p): a mean of |sum|^p taken with the row divided by 2^shift, unscaled."""
    try:
        whole = math.floor(shift * p)
        x = math.ldexp(x * 2.0 ** (shift * p - whole), whole)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise _beyond_range(p)
    return x


class QuadResult(NamedTuple):
    value: float
    error_estimate: float
    grid_points_per_axis: int


def _ladder_grids(d: int, cfg: EvalConfig) -> tuple[int, int]:
    """The start grid of a ladder in d dimensions and the finest grid it can reach.

    The start grid is the configured one, lifted to 8 and halved while it
    exceeds the point budget, but never below 8 points per axis; where 8^d
    exceeds the budget, BudgetError.  Doubling it while the budget allows
    gives the finest grid.
    """
    n, budget = max(8, cfg.grid_points_per_axis), QUAD_POINT_BUDGET
    # 8^d exceeds the budget exactly when 8^min(d, 23) does, a small power at any d
    if 8 ** min(d, budget.bit_length()) > budget:
        raise BudgetError(f"the 8^{d} grid exceeds the quadrature budget of {budget} points")
    while n**d > budget:
        n = max(8, n // 2)
    finest = n
    while (2 * finest) ** d <= budget:
        finest *= 2
    return n, finest


def _check_slice_sums(d: int, exponents: int, rows: int, cfg: EvalConfig) -> None:
    """BudgetError when a pass of the ladder keeps more slice sums than the point budget.

    A pass keeps a sum per exponent, row and first-axis slice, and the
    finest grid has the most slices; the check builds nothing.
    """
    n = _ladder_grids(d, cfg)[1]
    sums = exponents * rows * (_axes(d, n)[0] // 2 + 1)
    if sums > QUAD_POINT_BUDGET:
        raise BudgetError(
            f"{exponents} exponents keep {sums} slice sums in a pass over the {n}^{d} grid, "
            f"beyond the quadrature budget of {QUAD_POINT_BUDGET}"
        )


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
    [1, 2) (a row led by 1.0, as every certificate's is, stays as it is).
    An exponent stops doubling when two successive values agree within the
    tolerance, or within `_FLOOR_ULPS` ulps of the largest |row mean| at the
    finer grid (in the scaled units: a step at the rounding floor of the
    means cannot shrink by doubling), or the point budget, counted on the
    full grid, runs out; the last successive difference is the error
    estimate.  Where `_FLOOR_ULPS` ulps are within the tolerance (means below
    2^21, about 2e6, at the default 1e-9), the floor stops nothing.  The
    means and the error come back multiplied by 2^(shift p); BudgetError
    beyond float range.

    The start grid is that of `_ladder_grids`; where 8^d exceeds the budget,
    BudgetError before any pass.  Every exponent is checked before any grid
    work; those still doubling share one pass per grid.  The start grid's
    pass gives the n//2 grid of the first error estimate where that grid's
    slices are its even ones, whole (1-D, as at 256) or at even columns of a
    multiple of 16: only there does each column fall in the same kind of
    OpenBLAS column group (4 wide, or the rest) as in a pass over n//2.
    Every exponent carries its error estimate, also where the start grid
    cannot double ((2n)^d over the budget: 3-D at 128, 4-D at 32), and its
    results do not depend on the others in the call.  A pass whose half grid
    has at least 2^17 points runs on two threads (see `_grid_means`), with
    the same result as on one.  Returns (means, err, n).
    """
    vecs, coeff_row, pfs = _pass_inputs(freqs, coeffs, ps)
    d = len(vecs[0])
    n, budget = _ladder_grids(d, cfg)[0], QUAD_POINT_BUDGET
    shift = math.frexp(max(map(abs, coeff_row)))[1] - 1
    row = [math.ldexp(x, -shift) for x in coeff_row]
    rows = [row, [abs(x) for x in row]] if paired else [row]

    def tracked(row_means: list[float]) -> float:
        return row_means[0] - row_means[1] if paired else row_means[0]

    def settled(step: float, row_means: list[float]) -> bool:
        floor = _FLOOR_ULPS * math.ulp(max(map(abs, row_means)))
        return step <= cfg.backend_agreement_tol or step <= floor

    wide, narrow = _axes(d, n), _axes(d, n // 2)
    if 2 * narrow[0] == wide[0] and (narrow[1:] == wide[1:] or n % 16 == 0):
        means, coarse = _grid_means(freqs, rows, n, pfs, half=True)
    else:  # the coarse grid gets a pass of its own
        [means], [coarse] = _grid_means(freqs, rows, n, pfs), _grid_means(freqs, rows, n // 2, pfs)
    values = [tracked(m) for m in means]
    errs = [abs(v - tracked(c)) for v, c in zip(values, coarse)]
    grids = [n] * len(pfs)
    while (2 * n) ** d <= budget:
        active = [i for i, err in enumerate(errs) if not settled(err, means[i])]
        if not active:
            break
        n *= 2
        [finer] = _grid_means(freqs, rows, n, [pfs[i] for i in active])
        for i, m in zip(active, finer):
            means[i], grids[i] = m, n
            values[i], errs[i] = tracked(m), abs(tracked(m) - values[i])
    return [
        ([_scaled_back(x, shift, pf) for x in m], _scaled_back(err, shift, pf), grid)
        for m, err, grid, pf in zip(means, errs, grids, pfs)
    ]


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
    """`paired_difference` at each exponent of `ps`, sharing grid passes."""
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
    freqs: Sequence[Vec], u: Sequence[int], max_order: int
) -> dict[Vec, dict[int, list[int]]]:
    """Every multi-index beta with |beta| <= max_order, grouped by its frequency.

    Maps each frequency F = sum_j beta_j n_j and order k to two sums over the
    beta of order k reaching F: of the weights multinomial(beta) u^beta, which
    is the coefficient of e(F . x) in (sum_j u_j e(n_j . x))^k, and of their
    sizes.  Summed by order, the pairs formed at one F stay (max_order + 1)^2
    however many beta reach it.  The series, with two or more relations,
    passes its pair depth as max_order (`_pair_depth`), the even backend its
    s.  Raises BudgetError, before walking, when the C(m + max_order, m)
    multi-indices it would walk exceed ENUM_BUDGET.
    """
    m = len(freqs)
    if math.comb(m + max_order, m) > ENUM_BUDGET:
        raise BudgetError(
            f"C({m} + {max_order}, {m}) multi-indices exceed the budget of {ENUM_BUDGET}"
        )
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


def _pair_depth(freqs: Sequence[Vec], cutoff: int) -> int:
    """The depth of the series' walk: cutoff // 2 when the lifts (1, n_j) keep
    the rank of the n_j, so that every relation r = beta - gamma of a pair is
    affine (|r+| = |r-|) and neither order exceeds it; else the cutoff."""
    rank = _eliminate(freqs)[0]
    return cutoff // 2 if _eliminate([(1, *n) for n in freqs])[0] == rank else cutoff


def _pair_weights(r: Sequence[int], u: Sequence[int], depth: int) -> list[int]:
    """D_t(r) = sum over |delta| = t of multinomial(delta + r+) times
    multinomial(delta + r-) |u|^(2 delta + |r|), for t <= depth, in integers:
    r+ and r- have disjoint supports, so coordinate i (parts e+, e-) folds the
    sums B over the earlier ones into sum_j B[s - j] C(s + P, j + e+) C(s +
    M, j + e-) |u_i|^(2j + e+ + e-), P and M the sizes of r+ and r- so far.
    Each binomial C(n, k) is `math.comb` at j = 0 and steps to C(n, k + 1) =
    C(n, k) (n - k) / (k + 1), an exact division."""
    weights, plus, minus = None, 0, 0
    for x, e in zip(u, r):
        up, down = max(e, 0), max(-e, 0)
        plus, minus = plus + up, minus + down
        powers = [abs(x) ** (2 * j + up + down) for j in range(depth + 1)]
        if weights is None:  # one coordinate: both multinomials are 1
            weights = powers
            continue
        folded = []
        for s in range(depth + 1):
            a, b, total = math.comb(s + plus, up), math.comb(s + minus, down), 0
            for j in range(s + 1):
                total += weights[s - j] * a * b * powers[j]
                a = a * (s + plus - j - up) // (j + up + 1)
                b = b * (s + minus - j - down) // (j + down + 1)
            folded.append(total)
        weights = folded
    return weights


def _relation_pairs(
    freqs: Sequence[Vec], u: Sequence[int], cutoff: int
) -> list[tuple[int, int, int, int]] | None:
    """`lp_norm_taylor`'s pairs over the multiples r = k c of the frequencies'
    one primitive relation c (0 with none, (1,) for the zero frequency alone,
    else `build_c` of the cofactors on coordinates that keep the rank), or
    None with two or more.  A pair is (delta + r+, delta + r-), of orders
    (t + kP, t + kM) for t = |delta|, P = |c+| and M = |c-|; those of one t
    weigh sigma(r) D_t(r) (`_pair_weights`), sigma(r) = prod sign(u_i)^|r_i|.
    BudgetError, before any product, when the products' m (T_k + 1)^2 steps
    (T_k = (cutoff - k (P + M)) // 2) exceed ENUM_BUDGET."""
    rank = _eliminate(freqs)[0]
    if rank < len(freqs) - 1:
        return None
    c: Vec = (0,) * rank or (1,)  # no relation, or the zero frequency alone
    if 0 < rank < len(freqs):
        coords = list(zip(*freqs))
        for i in reversed(range(len(coords))):
            if len(coords) > rank and _eliminate(coords[:i] + coords[i + 1 :])[0] == rank:
                del coords[i]
        c = build_c(build_v(list(zip(*coords)))).c
    norm, plus = sum(map(abs, c)), sum(x for x in c if x > 0)
    multiples = range(cutoff // norm + 1 if norm else 1)
    steps = accumulate(len(u) * ((cutoff - k * norm) // 2 + 1) ** 2 for k in multiples)
    if any(n > ENUM_BUDGET for n in steps):
        raise BudgetError(f"series products to order {cutoff} exceed the budget of {ENUM_BUDGET}")
    odd, pairs = sum(abs(x) for x, y in zip(c, u) if y < 0), []  # sigma(k c) = (-1)^(k odd)
    for k in multiples:
        for t, weight in enumerate(_pair_weights([k * x for x in c], u, (cutoff - k * norm) // 2)):
            size = weight if k == 0 else 2 * weight  # -k c weighs as k c
            pairs.append((t + k * plus, t + k * (norm - plus), (-1) ** (k * odd) * size, size))
    return pairs


def lp_norm_even_exact(freqs: Sequence[Vec], coeffs: Sequence[Real], s: int) -> Fraction:
    """Exact rational value of the L^{2s} norm power for rational coefficients.

    The 2s-th power is the s-th power times its conjugate, so the value is
    the sum over frequencies F of the squared coefficient of e(F . x) in the
    s-th power: of (sum of multinomial(beta) a^beta over the multi-indices of
    order s reaching F)^2, read from the grouped expansion that the series
    backend shares.  Raises BudgetError when C(m + s, m) exceeds ENUM_BUDGET.
    """
    _check_freqs(freqs)
    _integer(s, "s", 1)
    _check_real_coeffs(coeffs, len(freqs))
    u, w = _numerators(coeffs)
    groups = _frequency_groups(freqs, u, s)
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
    the configured cutoff whose frequency sums agree: over the multiples of
    the frequencies' one relation (`_relation_pairs`) or, with two or more,
    from the grouped expansion walked to the pair depth (`_pair_depth`).
    Each path raises BudgetError before its work exceeds ENUM_BUDGET.

    The sum is exact for the inputs: a Fraction when p and every b_j are
    rational (not float), else rounded to float (BudgetError beyond float
    range).  The reported tail estimate is ten times the larger |term| sum
    of the top two degrees, inf beyond float range; converged means it is
    within the configured backend tolerance.
    """
    freqs = _check_freqs(freqs)
    row = _check_real_coeffs(b, len(freqs), name="b")
    _exponent(p)
    if max(map(abs, row)) >= 1.0:
        raise ConvergenceError("series requires every |b_i| < 1")
    k_max = cfg.series_total_degree_cutoff
    u, w = _numerators(b)
    # (k, l, sum of x y, sum of |x y|) over pairs of equal frequency of orders k and l
    pairs = _relation_pairs(freqs, u, k_max)
    if pairs is None:  # two or more relations: pair the orders of each group of the walk
        groups = _frequency_groups(freqs, u, _pair_depth(freqs, k_max)).values()
        pairs = [
            (k, l, x * y, x_size * y_size)
            for orders in groups
            for k, (x, x_size) in orders.items()
            for l, (y, y_size) in orders.items()
            if k + l <= k_max
        ]
    # (p/2 choose k) / w^k = g[k] / den: every term becomes an integer over den^2
    g, den = _half_binomial_numerators(p, w, k_max)
    value: Real = Fraction(sum(g[k] * g[l] * x for k, l, x, _ in pairs), den * den)
    if isinstance(p, float) or any(isinstance(x, float) for x in b):
        try:
            value = float(value)
        except OverflowError:
            raise _beyond_range(float(p)) from None
    if is_even_exponent(p) and k_max >= float(p):
        # Every binomial factor beyond order p/2 vanishes, so the cutoff
        # already captured the whole (finite) series.
        return TaylorResult(value, True, 0.0)
    top = [
        sum(abs(g[k] * g[l]) * size for k, l, _, size in pairs if k + l == n)
        for n in (k_max - 1, k_max)
    ]
    try:
        tail = 10.0 * float(Fraction(max(top), den * den))
    except OverflowError:  # the tail alone is beyond float range
        tail = math.inf
    return TaylorResult(value, tail <= cfg.backend_agreement_tol, tail)


def g_function(r: Real, p: Real, cfg: EvalConfig) -> float:
    """G(r) = integral over one period of |1 + r e(t)|^p."""
    return lp_norm_quadrature(((0,), (1,)), (1.0, r), p, cfg).value
