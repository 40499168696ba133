"""Exact integer linear algebra and frequency-set structure tests.

Determinants and ranks are checked against independent small oracles
(cofactor expansion, rational Gaussian elimination) so the fraction-free
implementations never certify themselves.
"""

from __future__ import annotations

import random
import tracemalloc
from collections import deque
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from majorant.constructions import classify
from majorant.errors import DimensionError, DomainError, HypothesisError
from majorant.exact_lattice import (
    Abundance,
    FrequencySet,
    IntMatrix,
    PointGenerator,
    Reduction,
    _affine_basis,
    abundance_scan,
    affine_dimension,
    det_exact,
    hnf,
    is_affinely_independent,
    rank_exact,
    reduce_full_dim,
)


def det_cofactor(rows: list[list[int]]) -> int:
    """Independent determinant oracle: Laplace expansion along the top row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j, x in enumerate(rows[0]):
        if x == 0:
            continue
        minor = [[r[jj] for jj in range(n) if jj != j] for r in rows[1:]]
        total += (-1) ** j * x * det_cofactor(minor)
    return total


def rank_rational(rows: list[list[int]]) -> int:
    """Independent rank oracle: Gaussian elimination over Fractions."""
    work = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(work)) if work[i][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for i in range(len(work)):
            if i != rank and work[i][col] != 0:
                f = work[i][col] / work[rank][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def product(a: IntMatrix, b: IntMatrix) -> tuple[tuple[int, ...], ...]:
    """Entries of the integer matrix product a . b."""
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b.entries)) for row in a.entries
    )


SMALL_SQUARE = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n
    )
)

SMALL_RECT = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda shape: st.lists(
        st.lists(st.integers(-9, 9), min_size=shape[1], max_size=shape[1]),
        min_size=shape[0],
        max_size=shape[0],
    )
)


@st.composite
def combination_rows(draw):
    """Up to 6 x 7 rows, each an integer combination of 1-3 rows with entries
    up to 10^12, some columns zeroed: ranks fall short of the shape, and
    elimination must pass over columns with no pivot."""
    width = draw(st.integers(1, 7))
    zero = draw(st.sets(st.integers(0, width - 1), max_size=width - 1))
    big = st.integers(-(10**12), 10**12)
    basis = draw(st.lists(st.lists(big, min_size=width, max_size=width), min_size=1, max_size=3))
    basis = [[0 if j in zero else x for j, x in enumerate(row)] for row in basis]
    combos = draw(
        st.lists(
            st.lists(st.integers(-3, 3), min_size=len(basis), max_size=len(basis)),
            min_size=1,
            max_size=6,
        )
    )
    return [[sum(c * row[j] for c, row in zip(cs, basis)) for j in range(width)] for cs in combos]


@st.composite
def embedded_sets(draw):
    """Distinct points n* + M . x in Z^dim, dim 1-7, for an integer map M with
    up to dim columns (its rank may fall short of that).  Half the sets put
    every x on the first axis, so all difference vectors repeat one direction
    of M, at multiples whose gcd need not be 1."""
    dim = draw(st.integers(1, 7))
    width = draw(st.integers(1, dim))
    small = st.integers(-4, 4)
    col = st.lists(small, min_size=dim, max_size=dim)
    cols = draw(st.lists(col, min_size=width, max_size=width))
    base = draw(st.lists(st.integers(-20, 20), min_size=dim, max_size=dim))
    xs = draw(st.lists(st.lists(small, min_size=width, max_size=width), min_size=1, max_size=8))
    if draw(st.booleans()):
        xs = [[x[0]] + [0] * (width - 1) for x in xs]

    def image(x):
        return tuple(n + sum(a * col[i] for a, col in zip(x, cols)) for i, n in enumerate(base))

    points = list(dict.fromkeys([tuple(base), *map(image, xs)]))
    assume(len(points) >= 2)
    return FrequencySet(dim, tuple(points))


@st.composite
def zero_corner_squares(draw):
    """Squares with a zero top-left entry, so elimination must look for a
    pivot below; some have a zero first column, some a repeated row."""
    n = draw(st.integers(2, 5))
    rows = draw(
        st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n)
    )
    rows[0][0] = 0
    if draw(st.booleans()):
        for row in rows:
            row[0] = 0
    if draw(st.booleans()):
        rows[-1] = list(rows[draw(st.integers(0, n - 2))])
    return rows


class TestIntMatrix:
    def test_from_rows_shape_and_indexing(self):
        m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert (m.rows, m.cols) == (2, 3)
        assert m.entries[1][2] == 6
        assert m.column(0) == (1, 4)
        assert IntMatrix.from_columns(m.entries).entries == ((1, 4), (2, 5), (3, 6))

    def test_from_columns_round_trip(self):
        cols = [(1, 2), (3, 4), (5, 6)]
        m = IntMatrix.from_columns(cols)
        assert tuple(m.column(j) for j in range(3)) == tuple(cols)

    def test_ragged_rows_rejected(self):
        with pytest.raises(DimensionError):
            IntMatrix.from_rows([[1, 2], [3]])

    def test_bool_entries_rejected(self):
        with pytest.raises(DomainError):
            IntMatrix.from_rows([[True, 0], [0, 1]])

    @pytest.mark.parametrize("bad", [1.5, True, "2"])
    def test_from_rows_checks_every_entry(self, bad):
        # hnf builds its factors unchecked; the public constructors still check
        with pytest.raises(DomainError):
            IntMatrix.from_rows([[1, 0], [0, bad]])


class TestDetRank:
    def test_det_known_values(self):
        assert det_exact(IntMatrix.identity(3)) == 1
        assert det_exact(IntMatrix.from_rows([[2, 1], [1, 1]])) == 1
        assert det_exact(IntMatrix.from_rows([[1, 1, 1], [1, 2, 3], [1, 4, 9]])) == 2
        assert det_exact(IntMatrix.from_rows([[1, 2], [2, 4]])) == 0

    def test_det_rejects_rectangular(self):
        with pytest.raises(DimensionError):
            det_exact(IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))

    @given(rows=SMALL_SQUARE)
    def test_det_matches_cofactor_oracle(self, rows):
        assert det_exact(IntMatrix.from_rows(rows)) == det_cofactor(rows)

    @given(rows=SMALL_RECT)
    def test_rank_matches_rational_oracle(self, rows):
        assert rank_exact(IntMatrix.from_rows(rows)) == rank_rational(rows)

    @given(rows=combination_rows())
    @settings(max_examples=150)
    def test_rank_of_row_combinations(self, rows):
        assert rank_exact(IntMatrix.from_rows(rows)) == rank_rational(rows)

    @given(rows=zero_corner_squares())
    @settings(max_examples=150)
    def test_det_with_zero_leading_entry(self, rows):
        assert det_exact(IntMatrix.from_rows(rows)) == det_cofactor(rows)

    def test_det_large_entries_stay_exact(self):
        # Bareiss on a Vandermonde-style matrix with entries far beyond 2^53.
        nodes = [10**8 + i for i in range(4)]
        rows = [[n**i for n in nodes] for i in range(4)]
        expected = 1
        for i in range(4):
            for j in range(i):
                expected *= nodes[i] - nodes[j]
        assert det_exact(IntMatrix.from_rows(rows)) == expected


class TestHnf:
    def test_worked_example(self):
        # Hand replay: swap rows (smaller pivot 1 to the top), clear, then
        # normalize the trailing -1; the mirrored column ops give e exactly.
        e, b = hnf(IntMatrix.from_rows([[2, 1], [1, 1]]))
        assert b.entries == ((1, 1), (0, 1))
        assert e.entries == ((2, -1), (1, 0))
        assert product(e, b) == ((2, 1), (1, 1))
        assert det_exact(e) == 1

    @given(rows=SMALL_SQUARE)
    def test_factorization_and_unimodularity(self, rows):
        m = IntMatrix.from_rows(rows)
        e, b = hnf(m)
        assert product(e, b) == m.entries
        assert abs(det_exact(e)) == 1
        assert all(b.entries[i][j] == 0 for i in range(b.rows) for j in range(i))

    @given(rows=SMALL_SQUARE)
    def test_nonsingular_diagonal_positive(self, rows):
        m = IntMatrix.from_rows(rows)
        if det_exact(m) == 0:
            return
        _, b = hnf(m)
        assert all(b.entries[i][i] > 0 for i in range(b.rows))

    @given(rows=SMALL_RECT)
    def test_rectangular_echelon(self, rows):
        m = IntMatrix.from_rows(rows)
        e, b = hnf(m)
        assert product(e, b) == m.entries
        assert abs(det_exact(e)) == 1

    def test_diagonal_entry_is_column_gcd_on_triangular_reachable_case(self):
        # First column (6, 4): the Euclid sweep must leave gcd 2 as pivot.
        _, b = hnf(IntMatrix.from_rows([[6, 0], [4, 1]]))
        assert b.entries[0][0] == 2

    @given(rows=SMALL_RECT)
    def test_factors_equal_checked_matrices(self, rows):
        for factor in hnf(IntMatrix.from_rows(rows)):
            assert factor == IntMatrix.from_rows(factor.entries)
            assert all(type(x) is int for row in factor.entries for x in row)


class TestFrequencySet:
    def test_distinctness_enforced(self):
        with pytest.raises(DomainError):
            FrequencySet(1, ((1,), (1,)))

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            FrequencySet(2, ((1,),))

    def test_generator_vectors_are_checked_when_the_set_is_built(self):
        # a progression in Z^2 does not fit a set in Z^3, and the set says so at once
        gen = PointGenerator("arith_progression", {"start": [0, 0], "step": [1, 1]})
        with pytest.raises(DimensionError):
            FrequencySet(3, ((0, 0, 1),), gen)

    def test_a_generator_needs_dimension_at_least_one(self):
        with pytest.raises(DimensionError):
            FrequencySet(0, (), PointGenerator("moment_curve"))

    def test_non_positive_stream_yields_nothing(self):
        g = FrequencySet(1, ((0,),), PointGenerator("moment_curve"))
        assert list(g.stream(0)) == []
        assert list(g.stream(-2)) == []
        assert list(g.stream(2)) == [(0,), (1,)]

    def test_json_round_trip_finite(self):
        g = FrequencySet(2, ((0, 0), (1, 2)))
        assert FrequencySet.from_json(g.to_json()) == g

    def test_json_round_trip_generator(self):
        g = FrequencySet.from_json(
            {
                "dim": 2,
                "points": [[5, 5]],
                "generator": {"kind": "moment_curve", "params": {"t_start": 3}},
            }
        )
        assert g.generator is not None
        assert FrequencySet.from_json(g.to_json()) == g

    def test_json_rejects_dim_zero(self):
        with pytest.raises(DomainError):
            FrequencySet.from_json({"dim": 0, "points": []})

    def test_unknown_generator_kind(self):
        with pytest.raises(DomainError):
            PointGenerator(kind="fibonacci")

    def test_progression_requires_start_and_step(self):
        with pytest.raises(DomainError):
            PointGenerator(kind="arith_progression", params={"start": [0, 0]})

    def test_stream_merges_and_deduplicates(self):
        g = FrequencySet.from_json(
            {
                "dim": 1,
                "points": [[2]],
                "generator": {
                    "kind": "arith_progression",
                    "params": {"start": [0], "step": [1]},
                },
            }
        )
        got = list(g.stream(5))
        assert len(got) == len(set(got)) == 5
        assert (2,) in got

    def test_stream_holds_no_per_point_state(self, traced_peak_mb):
        # the tail starts at t = 1, so the listed (1, 1) comes again and is dropped
        g = FrequencySet(2, ((0, 0), (1, 1)), PointGenerator("moment_curve"))
        assert list(g.stream(4)) == [(0, 0), (1, 1), (2, 4), (3, 9)]
        assert traced_peak_mb(deque, g.stream(50_000), 0) < 1
        assert sum(p == (1, 1) for p in g.stream(50_000)) == 1

    def test_stream_exhausts_zero_step_progression(self):
        g = FrequencySet.from_json(
            {
                "dim": 1,
                "points": [],
                "generator": {
                    "kind": "arith_progression",
                    "params": {"start": [7], "step": [0]},
                },
            }
        )
        assert list(g.stream(10)) == [(7,)]
        assert not g.is_structurally_infinite()

    def test_moment_generator_is_structurally_infinite(self):
        g = FrequencySet.from_json(
            {"dim": 2, "points": [], "generator": {"kind": "moment_curve"}}
        )
        assert g.is_structurally_infinite()
        assert list(g.stream(3)) == [(1, 1), (2, 4), (3, 9)]


class TestAffineStructure:
    def test_simplex_dimension(self):
        g = FrequencySet(2, ((0, 0), (1, 0), (0, 1)))
        assert affine_dimension(g) == 2
        assert is_affinely_independent(g)

    def test_collinear_dimension(self):
        g = FrequencySet(2, ((0, 0), (2, 2), (4, 4)))
        assert affine_dimension(g) == 1
        assert not is_affinely_independent(g)

    def test_single_point(self):
        g = FrequencySet(3, ((5, 5, 5),))
        assert affine_dimension(g) == 0
        assert is_affinely_independent(g)

    def test_translation_invariance(self):
        pts = ((0, 0), (1, 2), (3, 1), (2, 2))
        shifted = tuple(tuple(x + 7 for x in p) for p in pts)
        assert affine_dimension(FrequencySet(2, pts)) == affine_dimension(
            FrequencySet(2, shifted)
        )


def tailed(dim, points, generator):
    return FrequencySet.from_json({"dim": dim, "points": points, "generator": generator})


MOMENT = {"kind": "moment_curve"}
# (set, affine dimension, independent, reduce_full_dim's reduced points or
# HypothesisError); the affine data is that of the whole set, tail included
STRUCTURE = {
    "finite-line": (FrequencySet(2, ((1, 1), (3, 3), (7, 7))), 1, False, ((0,), (1,), (3,))),
    "finite-simplex": (FrequencySet(2, ((0, 0), (1, 0), (0, 1))), 2, True, ((0, 0), (1, 0), (0, 1))),
    # the dependent set {0, 1, 2}: a zero-step tail is one more point
    "zero-step-tail": (
        tailed(1, [[0], [1]], {"kind": "arith_progression", "params": {"start": [2], "step": [0]}}),
        1,
        False,
        ((0,), (1,), (2,)),
    ),
    "moment-two-listed": (tailed(2, [[0, 0], [1, 1]], MOMENT), 2, False, HypothesisError),
    "moment-one-listed": (tailed(2, [[0, 0]], MOMENT), 2, False, HypothesisError),
    "moment-none-listed": (tailed(2, [], MOMENT), 2, False, HypothesisError),
    # seven listed points on the x-axis; the tail leaves it along y
    "x-axis-and-y-line": (
        tailed(
            3,
            [[x, 0, 0] for x in range(7)],
            {"kind": "arith_progression", "params": {"start": [7, 0, 0], "step": [0, 1, 0]}},
        ),
        2,
        False,
        HypothesisError,
    ),
    # seven listed points spanning a hyperplane; the tail's second point leaves it
    "6d-progression": (
        tailed(
            6,
            [
                [-3, 1, -1, -1, 2, 0],
                [-3, 2, -2, 1, -3, 0],
                [-3, -2, -3, 2, 1, 0],
                [0, -2, -1, -3, -2, 3],
                [0, -3, -3, -1, 1, 3],
                [-1, 0, 0, 0, -3, 2],
                [0, -2, -2, 2, 1, 3],
            ],
            {
                "kind": "arith_progression",
                "params": {"start": [0, -1, 2, -3, 1, 3], "step": [2, -2, 2, 0, 0, 0]},
            },
        ),
        6,
        False,
        HypothesisError,
    ),
}


class TestStructuralAnswers:
    """Every structural answer reads the whole set, a generator tail included."""

    @pytest.fixture(params=sorted(STRUCTURE))
    def row(self, request):
        return STRUCTURE[request.param]

    def test_affine_dimension(self, row):
        g, dimension, _, _ = row
        assert affine_dimension(g) == dimension

    def test_independence(self, row):
        g, _, independent, _ = row
        assert is_affinely_independent(g) is independent

    def test_reduction(self, row):
        g, _, _, reduced = row
        if reduced is HypothesisError:
            with pytest.raises(HypothesisError, match="structurally infinite"):
                reduce_full_dim(g)
        else:
            assert reduce_full_dim(g).reduced.points == reduced

    def test_classify(self, row):
        g, dimension, independent, _ = row
        report = classify(g, with_certificate=False)
        assert (report["affine_dimension"], report["affinely_independent"]) == (
            dimension,
            independent,
        )


def lifts(points) -> list[list[int]]:
    return [[1, *p] for p in points]


class TestAffineBasis:
    @given(
        data=st.integers(1, 4).flatmap(
            lambda d: st.lists(st.tuples(*[st.integers(-3, 3)] * d), min_size=1, max_size=8)
        )
    )
    @settings(max_examples=150)
    def test_spans_the_points_it_reads(self, data):
        basis = _affine_basis(data)
        # the rank of the lifts of the whole input, by rational elimination
        assert len(basis) == rank_rational(lifts(data))
        assert rank_rational(lifts(basis)) == len(basis)
        for q in data:
            assert rank_rational(lifts([*basis, q])) == len(basis)

    @given(points=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1))
    @settings(max_examples=50)
    def test_first_point_is_always_kept(self, points):
        assert _affine_basis(points)[0] == points[0]

    def test_keeps_points_in_listed_order(self):
        pts = [(0, 0), (2, 2), (1, 1), (5, 0), (0, 5)]
        assert _affine_basis(pts) == ((0, 0), (2, 2), (5, 0))

    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_reading_stops_after_dim_plus_one_points(self, dim):
        unit = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]

        def points():
            yield (0,) * dim
            yield (0,) * dim  # dependent: read and skipped
            yield from unit
            raise AssertionError("read past the last basis point")

        assert _affine_basis(points()) == ((0,) * dim, *unit)

    def test_empty_input_has_empty_basis(self):
        assert _affine_basis([]) == ()


class TestReduceFullDim:
    def test_full_dimension_is_identity_like(self):
        g = FrequencySet(2, ((0, 0), (1, 0), (0, 1), (1, 1)))
        red = reduce_full_dim(g)
        assert red.reduced.dim == 2
        assert len(red.reduced.points) == 4

    def test_collinear_reduces_to_line(self):
        g = FrequencySet(2, ((1, 1), (3, 3), (7, 7)))
        red = reduce_full_dim(g)
        assert red.n_star == (1, 1)
        assert red.reduced.dim == 1
        assert red.reduced.points[0] == (0,)
        # reconstruction: original = n_star + basis . coords
        assert red.basis is not None
        for orig, coord in zip(g.points, red.reduced.points):
            rebuilt = tuple(
                n + sum(red.basis.entries[i][j] * coord[j] for j in range(red.basis.cols))
                for i, n in enumerate(red.n_star)
            )
            assert rebuilt == orig

    def test_single_point_reduces_to_dim_zero(self):
        red = reduce_full_dim(FrequencySet(2, ((4, 9),)))
        assert red.reduced.dim == 0
        assert red.basis is None
        assert red.reduced.points == ((),)

    @given(
        coords=st.lists(
            st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
            min_size=2,
            max_size=6,
            unique=True,
        )
    )
    @settings(max_examples=60)
    def test_planar_slice_of_z4_reconstructs(self, coords):
        # Embed a genuinely 2-dimensional configuration into Z^4 through a
        # fixed rank-2 affine map; reduction must invert it exactly.
        base = (3, -1, 4, 1)
        u = (1, 0, 2, -1)
        w = (0, 1, 1, 1)
        pts = []
        for a, b in coords:
            pts.append(tuple(n + a * x + b * y for n, x, y in zip(base, u, w)))
        g = FrequencySet(4, tuple(pts))
        red = reduce_full_dim(g)
        assert red.reduced.dim == affine_dimension(g)
        assert len(red.reduced.points) == len(pts)
        assert red.basis is not None
        for orig, coord in zip(pts, red.reduced.points):
            rebuilt = tuple(
                n + sum(red.basis.entries[i][j] * coord[j] for j in range(red.basis.cols))
                for i, n in enumerate(red.n_star)
            )
            assert rebuilt == orig

    @given(g=embedded_sets())
    @settings(max_examples=200)
    def test_coordinates_rebuild_every_point_and_span_the_lattice(self, g):
        red = reduce_full_dim(g)
        r = red.reduced.dim
        assert red.basis is not None and (red.basis.rows, red.basis.cols) == (g.dim, r)
        assert r == affine_dimension(g)
        assert red.n_star == g.points[0] and red.reduced.points[0] == (0,) * r
        assert len(red.reduced.points) == len(g.points)
        for orig, coord in zip(g.points, red.reduced.points):
            image = product(red.basis, IntMatrix.from_columns([coord]))
            assert tuple(n + y for n, (y,) in zip(red.n_star, image)) == orig
        # index 1: the coordinate differences generate Z^r exactly when the
        # gcd of their r x r minors is 1
        diffs = red.reduced.points[1:]
        minors = [det_exact(IntMatrix.from_rows(rows)) for rows in combinations(diffs, r)]
        assert gcd(*minors) == 1


def reduce_by_hnf(g: FrequencySet) -> Reduction:
    """Reference reduction read off hnf's factors of the difference rows: the
    nonzero echelon rows are the basis, and a difference's row of e, cut at
    the rank r, holds its coordinates."""
    n_star, *rest = g.stream(len(g.points) + g.dim + 2)
    if not rest:
        return Reduction(n_star, None, FrequencySet(0, ((),)))
    e, b = hnf(IntMatrix.from_rows([[x - y for x, y in zip(p, n_star)] for p in rest]))
    rows = [row for row in b.entries if any(row)]
    r = len(rows)
    coords = ((0,) * r, *(row[:r] for row in e.entries))
    return Reduction(n_star, IntMatrix.from_columns(rows), FrequencySet(r, coords))


def seeded_finite_sets(seed: int, count: int) -> list[FrequencySet]:
    """Finite sets n* + M . x in Z^1 .. Z^10 for an integer map M of 0-5
    columns (rank may fall short), 1-40 points; every fifth set has a
    zero-step tail, whose start is one more point."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        dim = rng.randint(1, 10)
        cols = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(rng.randint(0, min(5, dim)))]
        base = [rng.randint(-9, 9) for _ in range(dim)]
        xs = [[rng.randint(-4, 4) for _ in cols] for _ in range(rng.randint(1, 40))]
        points = {
            tuple(n + sum(a * col[j] for a, col in zip(x, cols)) for j, n in enumerate(base))
            for x in xs
        }
        tail = None
        if i % 5 == 0:
            start = [n + rng.randint(-1, 1) for n in base]
            tail = PointGenerator("arith_progression", {"start": start, "step": [0] * dim})
            points = points - {tuple(start)} or {tuple(n + 1 for n in start)}
        out.append(FrequencySet(dim, tuple(sorted(points)), tail))
    return out


class TestReduceAgainstHnf:
    """reduce_full_dim solves for coordinates on the echelon that hnf shares."""

    @pytest.mark.parametrize("g", seeded_finite_sets(30, 300))
    def test_equals_the_hnf_construction(self, g):
        assert reduce_full_dim(g) == reduce_by_hnf(g)

    def test_thousand_points_in_z6_stay_small(self):
        # reduce_by_hnf peaks at about 16 MiB on this set: its factor e is 999 x 999
        rng = random.Random(6)
        points: set[tuple[int, ...]] = set()
        while len(points) < 1000:
            points.add(tuple(rng.randint(-9, 9) for _ in range(6)))
        g = FrequencySet(6, tuple(sorted(points)))
        tracemalloc.start()
        try:
            red = reduce_full_dim(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert red.reduced.dim == 6 and len(red.reduced.points) == 1000
        assert peak < 4 * 2**20


class TestAbundance:
    def test_finite_set_is_not_abundant(self):
        g = FrequencySet(2, ((0, 0), (1, 0), (0, 1), (5, 7)))
        scan = abundance_scan(g, 16)
        assert scan.status is Abundance.NO

    def test_progression_is_not_abundant(self):
        g = FrequencySet.from_json(
            {
                "dim": 2,
                "points": [],
                "generator": {
                    "kind": "arith_progression",
                    "params": {"start": [0, 1], "step": [1, 0]},
                },
            }
        )
        assert abundance_scan(g, 16).status is Abundance.NO

    def test_moment_generator_is_abundant(self):
        g = FrequencySet.from_json(
            {"dim": 2, "points": [], "generator": {"kind": "moment_curve"}}
        )
        scan = abundance_scan(g, 16)
        assert scan.status is Abundance.YES
        assert scan.witness is not None and len(scan.witness) == 3
        assert scan.dtuple is not None and len(scan.dtuple) == 2
        assert set(scan.dtuple) < set(scan.witness)

    def test_witness_is_affinely_independent(self):
        g = FrequencySet.from_json(
            {"dim": 2, "points": [], "generator": {"kind": "moment_curve"}}
        )
        scan = abundance_scan(g, 16)
        assert rank_exact(IntMatrix.from_columns([(1, *q) for q in scan.witness])) == 3

    def test_count_is_judged_only_after_the_witness(self):
        # budget 1 streams 68 points, and the 68th, the curve's first,
        # completes the witness: no point is left to judge the count at
        g = FrequencySet(2, tuple((j, 0) for j in range(67)), PointGenerator("moment_curve"))
        scan = abundance_scan(g, 1)
        assert scan == (Abundance.INCONCLUSIVE, ((0, 0), (1, 0), (1, 1)), None)
        assert abundance_scan(g, 2).status is Abundance.YES

    def test_line_with_off_point_needs_the_right_dtuple(self):
        # All streamed determinants against the pair of line points vanish,
        # so a scan that fixed one greedy pair would stall; pairs through the
        # off-line point see determinant k at line point (k, 0) and certify.
        g = FrequencySet.from_json(
            {
                "dim": 2,
                "points": [[0, 1]],
                "generator": {
                    "kind": "arith_progression",
                    "params": {"start": [0, 0], "step": [1, 0]},
                },
            }
        )
        scan = abundance_scan(g, 12)
        assert scan.status is Abundance.YES
        assert scan.dtuple is not None
        assert (0, 1) in scan.dtuple


# abundance_scan(g, 16) as recorded before the scan used the shared
# elimination.  Moment curve, (d, t_start) -> the curve parameters t of the
# witness and of the d-tuple; every status was "yes".
MOMENT_SCANS = {
    (1, 1): ((1, 2), (2,)),
    (1, 7): ((7, 8), (8,)),
    (1, 25): ((25, 26), (26,)),
    (2, 1): ((1, 2, 3), (1, 3)),
    (2, 7): ((7, 8, 9), (7, 9)),
    (2, 25): ((25, 26, 27), (25, 27)),
    (3, 1): ((1, 2, 3, 4), (2, 3, 4)),
    (3, 7): ((7, 8, 9, 10), (8, 9, 10)),
    (3, 25): ((25, 26, 27, 28), (26, 27, 28)),
    (4, 1): ((1, 2, 3, 4, 5), (1, 3, 4, 5)),
    (4, 7): ((7, 8, 9, 10, 11), (7, 9, 10, 11)),
    (4, 25): ((25, 26, 27, 28, 29), (25, 27, 28, 29)),
    (5, 1): ((1, 2, 3, 4, 5, 6), (2, 3, 4, 5, 6)),
    (5, 7): ((7, 8, 9, 10, 11, 12), (8, 9, 10, 11, 12)),
    (5, 25): ((25, 26, 27, 28, 29, 30), (26, 27, 28, 29, 30)),
    (6, 1): ((1, 2, 3, 4, 5, 6, 7), (1, 3, 4, 5, 6, 7)),
    (6, 7): ((7, 8, 9, 10, 11, 12, 13), (7, 9, 10, 11, 12, 13)),
    (6, 25): ((25, 26, 27, 28, 29, 30, 31), (25, 27, 28, 29, 30, 31)),
}
# progressions: (points, start, step) -> (status, witness, d-tuple)
PROGRESSION_SCANS = [
    (([[0, 1]], [0, 0], [1, 0]), ("yes", ((0, 1), (0, 0), (1, 0)), ((0, 1), (1, 0)))),
    (([[5]], [-4], [3]), ("yes", ((5,), (-4,)), ((-4,),))),
    (
        ([[0, 1, 0], [0, 0, 1], [2, 3, 5]], [1, 1, 1], [2, -1, 3]),
        (
            "yes",
            ((0, 1, 0), (0, 0, 1), (2, 3, 5), (1, 1, 1)),
            ((0, 0, 1), (2, 3, 5), (1, 1, 1)),
        ),
    ),
]


class TestPinnedScans:
    @pytest.mark.parametrize("d, t_start", sorted(MOMENT_SCANS))
    def test_moment_curve(self, d, t_start):
        g = FrequencySet(d, (), PointGenerator("moment_curve", {"t_start": t_start}))
        witness, dtuple = (
            tuple(tuple(t**i for i in range(1, d + 1)) for t in ts)
            for ts in MOMENT_SCANS[d, t_start]
        )
        assert abundance_scan(g, 16) == (Abundance.YES, witness, dtuple)

    @pytest.mark.parametrize("case, expected", PROGRESSION_SCANS)
    def test_progression(self, case, expected):
        points, start, step = case
        gen = {"kind": "arith_progression", "params": {"start": start, "step": step}}
        g = FrequencySet.from_json({"dim": len(start), "points": points, "generator": gen})
        status, witness, dtuple = abundance_scan(g, 16)
        assert (status.value, witness, dtuple) == expected


class TestJsonRejectsCoercion:
    """JSON input is checked, never rounded or parsed into integers."""

    @pytest.mark.parametrize("bad", [1.5, "2", True, None])
    def test_non_integer_point_entry(self, bad):
        # {0, 1.5, 2} used to be read as the dependent set {0, 1, 2}
        with pytest.raises(DomainError, match="exact integer"):
            FrequencySet.from_json({"dim": 1, "points": [[0], [bad], [2]]})

    @pytest.mark.parametrize("bad", [1.5, "2", True, None, [1]])
    def test_non_integer_dim(self, bad):
        with pytest.raises(DomainError):
            FrequencySet.from_json({"dim": bad, "points": [[0], [1]]})

    @pytest.mark.parametrize("points", ["[[0]]", [0, 1], [[0], "1"], {"0": [0]}])
    def test_points_must_be_a_list_of_lists(self, points):
        with pytest.raises(DomainError):
            FrequencySet.from_json({"dim": 1, "points": points})

    @pytest.mark.parametrize(
        "generator",
        [
            {"kind": "moment_curve", "params": {"t_start": 1.5}},
            {"kind": "moment_curve", "params": {"t_start": "2"}},
            {"kind": "moment_curve", "params": "t_start"},
            {"kind": "arith_progression", "params": {"start": [0], "step": 1}},
            {"kind": "arith_progression", "params": {"start": [0.5], "step": [1]}},
        ],
    )
    def test_malformed_generator(self, generator):
        with pytest.raises(DomainError):
            FrequencySet.from_json({"dim": 1, "points": [], "generator": generator})
