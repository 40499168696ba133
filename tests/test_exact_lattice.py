"""Exact integer linear algebra and frequency-set structure tests.

Determinants and ranks are checked against independent small oracles
(cofactor expansion, rational Gaussian elimination) so the fraction-free
implementations never certify themselves.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from majorant.errors import DimensionError, DomainError, HypothesisError
from majorant.exact_lattice import (
    Abundance,
    FrequencySet,
    IntMatrix,
    PointGenerator,
    abundance_scan,
    affine_dimension,
    det_exact,
    hnf,
    is_affinely_independent,
    lifted_matrix,
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


class TestIntMatrix:
    def test_from_rows_shape_and_indexing(self):
        m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert (m.rows, m.cols) == (2, 3)
        assert m[1, 2] == 6
        assert m.column(0) == (1, 4)
        assert m.transpose().entries == ((1, 4), (2, 5), (3, 6))

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

    def test_matmul_identity(self):
        m = IntMatrix.from_rows([[2, 1], [7, -3]])
        assert m.matmul(IntMatrix.identity(2)).entries == m.entries


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
        assert e.matmul(b).entries == ((2, 1), (1, 1))
        assert det_exact(e) == 1

    @given(rows=SMALL_SQUARE)
    def test_factorization_and_unimodularity(self, rows):
        m = IntMatrix.from_rows(rows)
        e, b = hnf(m)
        assert e.matmul(b).entries == m.entries
        assert abs(det_exact(e)) == 1
        assert b.is_upper_triangular()

    @given(rows=SMALL_SQUARE)
    def test_nonsingular_diagonal_positive(self, rows):
        m = IntMatrix.from_rows(rows)
        if det_exact(m) == 0:
            return
        _, b = hnf(m)
        assert all(b[i, i] > 0 for i in range(b.rows))

    @given(rows=SMALL_RECT)
    def test_rectangular_echelon(self, rows):
        m = IntMatrix.from_rows(rows)
        e, b = hnf(m)
        assert e.matmul(b).entries == m.entries
        assert abs(det_exact(e)) == 1

    def test_diagonal_entry_is_column_gcd_on_triangular_reachable_case(self):
        # First column (6, 4): the Euclid sweep must leave gcd 2 as pivot.
        _, b = hnf(IntMatrix.from_rows([[6, 0], [4, 1]]))
        assert b[0, 0] == 2


class TestFrequencySet:
    def test_distinctness_enforced(self):
        with pytest.raises(DomainError):
            FrequencySet(1, ((1,), (1,)))

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            FrequencySet(2, ((1,),))

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

    def test_lifted_matrix_shape(self):
        m = lifted_matrix([(1, 2), (3, 4)])
        assert m.column(0) == (1, 1, 2)
        assert m.column(1) == (1, 3, 4)


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
                n + sum(red.basis[i, j] * coord[j] for j in range(red.basis.cols))
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
                n + sum(red.basis[i, j] * coord[j] for j in range(red.basis.cols))
                for i, n in enumerate(red.n_star)
            )
            assert rebuilt == orig


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
        assert rank_exact(lifted_matrix(list(scan.witness))) == 3

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
