"""Exact integer linear algebra over frequency sets.

Everything in this module is computed with arbitrary-precision Python
integers; nothing here rounds.  Determinants use fraction-free Bareiss
elimination, the triangular factorization uses a Euclidean sweep driven by
row swaps and row additions, and affine data of a frequency set is read off
the lattice generated by the difference vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from math import gcd
from typing import Any, Iterator, NamedTuple, Optional, Sequence

from .errors import DimensionError, DomainError

Vec = tuple[int, ...]


def _typed(value: Any, kinds: Any, is_list: bool = False) -> bool:
    """Whether value has one of `kinds` (a list of such when is_list).

    A bool has a kind only when `kinds` is bool: it never counts as a number.
    """
    if is_list:
        return isinstance(value, list) and all(_typed(x, kinds) for x in value)
    return isinstance(value, kinds) and (kinds is bool or not isinstance(value, bool))


def _as_vec(values: Sequence[int]) -> Vec:
    out = []
    for x in values:
        if isinstance(x, bool) or not isinstance(x, int):
            raise DomainError(f"expected exact integer entries, got {x!r}")
        out.append(x)
    return tuple(out)


@dataclass(frozen=True)
class IntMatrix:
    """Dense matrix of exact integers, row-major."""

    entries: tuple[Vec, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise DimensionError("matrix needs at least one row")
        width = len(self.entries[0])
        if width == 0:
            raise DimensionError("matrix needs at least one column")
        rows = []
        for row in self.entries:
            if len(row) != width:
                raise DimensionError("ragged rows")
            rows.append(_as_vec(row))
        object.__setattr__(self, "entries", tuple(rows))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        return cls(tuple(tuple(r) for r in rows))

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence[int]]) -> "IntMatrix":
        return cls.from_rows(list(zip(*cols)))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls.from_rows([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i][j]

    def transpose(self) -> "IntMatrix":
        return IntMatrix.from_rows(list(zip(*self.entries)))

    def column(self, j: int) -> Vec:
        return tuple(row[j] for row in self.entries)

    def matmul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionError("inner dimensions differ")
        cols = list(zip(*other.entries))
        return IntMatrix.from_rows(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.entries]
        )

    def is_upper_triangular(self) -> bool:
        return all(
            self.entries[i][j] == 0 for i in range(self.rows) for j in range(min(i, self.cols))
        )


def det_exact(m: IntMatrix) -> int:
    """Exact determinant via fraction-free Bareiss elimination.

    Every intermediate quantity is an integer; the interior division is exact
    by the Sylvester identity, so the result carries no rounding at any size.
    """
    if m.rows != m.cols:
        raise DimensionError("determinant needs a square matrix")
    n = m.rows
    a = [list(row) for row in m.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def rank_exact(m: IntMatrix) -> int:
    """Rank over Q (equals the rank of the generated lattice)."""
    rows = [list(r) for r in m.entries]
    rank = 0
    for col in range(m.cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        a = rows[rank][col]
        for i in range(rank + 1, len(rows)):
            b = rows[i][col]
            if b:
                rows[i] = [a * x - b * y for x, y in zip(rows[i], rows[rank])]
                g = 0
                for x in rows[i]:
                    g = gcd(g, x)
                if g > 1:
                    rows[i] = [x // g for x in rows[i]]
        rank += 1
        if rank == len(rows):
            break
    return rank


class HnfResult(NamedTuple):
    e: IntMatrix  # unimodular, det = +-1
    b: IntMatrix  # upper triangular (echelon for rectangular input)


def hnf(m: IntMatrix) -> HnfResult:
    """Factor m = e . b with e unimodular and b upper triangular.

    The sweep works one column at a time: the entry of smallest nonzero
    absolute value (ties: smallest row index) is swapped into the pivot row
    and normalized positive, then multiples of the pivot row are subtracted
    below until the column clears.  Repeating the selection runs Euclid's
    algorithm down the column, so the surviving pivot is the gcd of the
    entries the sweep saw.  Row operations on the working copy are mirrored
    by inverse column operations on e, keeping m = e . b exact throughout.
    """
    w = [list(row) for row in m.entries]
    n, cols = m.rows, m.cols
    e = [list(row) for row in IntMatrix.identity(n).entries]

    def swap(i: int, k: int) -> None:
        w[i], w[k] = w[k], w[i]
        for row in e:
            row[i], row[k] = row[k], row[i]

    def negate(i: int) -> None:
        w[i] = [-x for x in w[i]]
        for row in e:
            row[i] = -row[i]

    def reduce_row(i: int, k: int, q: int) -> None:
        # w_i <- w_i - q w_k corresponds to e column k gaining q times column i
        w[i] = [x - q * y for x, y in zip(w[i], w[k])]
        for row in e:
            row[k] += q * row[i]

    r = 0
    for col in range(cols):
        while True:
            candidates = [i for i in range(r, n) if w[i][col] != 0]
            if not candidates:
                break
            pivot = min(candidates, key=lambda i: (abs(w[i][col]), i))
            if pivot != r:
                swap(r, pivot)
            if w[r][col] < 0:
                negate(r)
            clean = True
            for i in range(r + 1, n):
                if w[i][col] != 0:
                    reduce_row(i, r, w[i][col] // w[r][col])
                    if w[i][col] != 0:
                        clean = False
            if clean:
                break
        if any(w[i][col] != 0 for i in range(r, n)):
            r += 1
            if r == n:
                break
    return HnfResult(IntMatrix.from_rows(e), IntMatrix.from_rows(w))


# ---------------- Frequency sets ----------------


_GENERATOR_KINDS = ("moment_curve", "arith_progression")


@dataclass(frozen=True)
class PointGenerator:
    """Rule producing the infinite tail of a frequency set."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _GENERATOR_KINDS:
            raise DomainError(f"unknown generator kind {self.kind!r}")
        if self.kind == "arith_progression":
            vectors = [self.params.get(key) for key in ("start", "step")]
            if not all(isinstance(v, (list, tuple)) for v in vectors):
                raise DomainError("arith_progression needs 'start' and 'step' vectors")
            for v in vectors:
                _as_vec(v)
        else:
            t_start = self.params.get("t_start", 1)
            if isinstance(t_start, bool) or not isinstance(t_start, int):
                raise DomainError(f"t_start must be an integer, got {t_start!r}")

    def iter_points(self, dim: int) -> Iterator[Vec]:
        if self.kind == "moment_curve":
            t = self.params.get("t_start", 1)
            while True:
                yield tuple(t**i for i in range(1, dim + 1))
                t += 1
        else:
            start = _as_vec(self.params["start"])
            step = _as_vec(self.params["step"])
            if len(start) != dim or len(step) != dim:
                raise DimensionError("generator vectors must match the set dimension")
            k = 0
            while True:
                yield tuple(s + k * d for s, d in zip(start, step))
                k += 1

    def yields_infinitely_many(self, dim: int) -> bool:
        if self.kind == "moment_curve":
            return True
        return any(x != 0 for x in self.params["step"])


@dataclass(frozen=True)
class FrequencySet:
    """Finite list of integer frequency vectors, optionally with a generator tail.

    Points are pairwise distinct.  dim = 0 only occurs as the output of
    reduce_full_dim on a single point; JSON input requires dim >= 1.
    """

    dim: int
    points: tuple[Vec, ...]
    generator: Optional[PointGenerator] = None

    def __post_init__(self) -> None:
        if self.dim < 0:
            raise DimensionError("dimension must be nonnegative")
        pts = tuple(_as_vec(p) for p in self.points)
        if any(len(p) != self.dim for p in pts):
            raise DimensionError("point length differs from the set dimension")
        if len(set(pts)) != len(pts):
            raise DomainError("points must be pairwise distinct")
        if not pts and self.generator is None:
            raise DomainError("empty frequency set")
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_json(cls, obj: dict) -> "FrequencySet":
        if not isinstance(obj, dict):
            raise DomainError("frequency set JSON must be an object")
        dim = obj.get("dim")
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
            raise DomainError(f"dim must be an integer >= 1, got {dim!r}")
        points = obj.get("points", [])
        if not isinstance(points, list) or not all(isinstance(p, list) for p in points):
            raise DomainError("points must be a list of integer vectors")
        gen = None
        if obj.get("generator") is not None:
            g = obj["generator"]
            if not isinstance(g, dict) or "kind" not in g:
                raise DomainError("generator must be an object with a 'kind'")
            params = g.get("params", {})
            if not isinstance(params, dict):
                raise DomainError("generator params must be an object")
            gen = PointGenerator(kind=g["kind"], params=dict(params))
        # entries are checked, never coerced, by the constructor
        return cls(dim=dim, points=tuple(tuple(p) for p in points), generator=gen)

    def to_json(self) -> dict:
        out: dict = {"dim": self.dim, "points": [list(p) for p in self.points]}
        if self.generator is not None:
            out["generator"] = {"kind": self.generator.kind, "params": dict(self.generator.params)}
        return out

    def stream(self, limit: int) -> Iterator[Vec]:
        """Yield up to `limit` distinct points: the prefix first, then the tail."""
        seen: set[Vec] = set()
        emitted = 0
        draws = 0
        draw_cap = 4 * limit + 64
        sources: list[Iterator[Vec]] = [iter(self.points)]
        if self.generator is not None:
            sources.append(self.generator.iter_points(self.dim))
        for source in sources:
            for p in source:
                draws += 1
                if p not in seen:
                    seen.add(p)
                    yield p
                    emitted += 1
                    if emitted >= limit:
                        return
                if draws >= draw_cap:
                    return

    def is_structurally_infinite(self) -> bool:
        return self.generator is not None and self.generator.yields_infinitely_many(self.dim)


def difference_matrix(points: Sequence[Vec], base: Vec) -> Optional[IntMatrix]:
    """Columns n - base for n in points, skipping base itself; None if empty."""
    cols = [tuple(a - b for a, b in zip(p, base)) for p in points if p != base]
    if not cols:
        return None
    return IntMatrix.from_columns(cols)


def affine_dimension(g: FrequencySet) -> int:
    """Affine dimension of the listed points.

    This is the rank of the lattice generated by the differences from any one
    of the points; translation and the choice of base point do not change it.
    """
    if not g.points:
        raise DimensionError("affine dimension needs at least one listed point")
    diff = difference_matrix(g.points, g.points[0])
    if diff is None:
        return 0
    return rank_exact(diff)


def is_affinely_independent(g: FrequencySet) -> bool:
    return len(g.points) == affine_dimension(g) + 1


def _echelon_coordinates(rows: Sequence[Vec], target: Vec) -> Vec:
    """Integer y with sum_i y_i rows[i] = target, for echelon rows.

    Each row's leading entry sits right of the previous row's, so the
    coordinates follow by forward substitution on the pivot columns; every
    division is exact because target lies in the lattice the rows generate.
    """
    residual = list(target)
    coords = []
    for row in rows:
        col = next(j for j, x in enumerate(row) if x != 0)
        y = residual[col] // row[col]
        residual = [r - y * x for r, x in zip(residual, row)]
        coords.append(y)
    assert not any(residual), "target lies outside the lattice of the rows"
    return tuple(coords)


class Reduction(NamedTuple):
    n_star: Vec
    basis: Optional[IntMatrix]  # d x d' columns; None when d' = 0
    reduced: FrequencySet


def reduce_full_dim(g: FrequencySet) -> Reduction:
    """Rewrite g as n_star + basis . g' with g' full-dimensional in Z^d'.

    n_star is the first listed point.  The basis columns generate the lattice
    spanned by the difference vectors (read off the nonzero rows of the
    triangular factor of the transposed difference matrix), and g' collects
    the exact lattice coordinates of each point.  Cardinality is preserved
    and n_star itself maps to the origin.
    """
    if not g.points:
        raise DomainError("reduce_full_dim needs at least one listed point")
    n_star = g.points[0]
    diff = difference_matrix(g.points, n_star)
    if diff is None:
        reduced = FrequencySet(dim=0, points=((),))
        return Reduction(n_star, None, reduced)
    _, echelon = hnf(diff.transpose())
    # distinct points give a nonzero difference, so at least one row survives
    basis_rows = [row for row in echelon.entries if any(x != 0 for x in row)]
    basis = IntMatrix.from_columns(basis_rows)
    coords = tuple(
        _echelon_coordinates(basis_rows, tuple(a - b for a, b in zip(p, n_star))) for p in g.points
    )
    reduced = FrequencySet(dim=basis.cols, points=coords)
    return Reduction(n_star, basis, reduced)


class Abundance(str, Enum):
    YES = "yes"
    NO = "no"
    INCONCLUSIVE = "inconclusive"


class AbundanceScan(NamedTuple):
    status: Abundance
    witness: Optional[tuple[Vec, ...]]  # affinely independent (d+1)-subset when found
    dtuple: Optional[tuple[Vec, ...]]  # d-subset whose determinant count certified YES


def lifted_matrix(points: Sequence[Vec]) -> IntMatrix:
    """Columns (1, n) for n in points."""
    return IntMatrix.from_columns([(1,) + p for p in points])


def abundance_scan(g: FrequencySet, scan_budget: int) -> AbundanceScan:
    """Tri-state abundance decision with the witness subsets the scan found.

    yes: some d-tuple of points, completed by streamed points, produced more
    than scan_budget distinct lifted determinants.  no: the set is provably
    finite or its affine dimension provably stays below d.  inconclusive: the
    stream budget ran out first.
    """
    if scan_budget < 1:
        raise DomainError("scan budget must be positive")
    d = g.dim
    if not g.is_structurally_infinite():
        return AbundanceScan(Abundance.NO, None, None)
    gen = g.generator
    if gen is not None and gen.kind == "arith_progression":
        # a progression tail lies on one line, so the affine dimension of the
        # whole set is that of prefix + two line points, computable exactly
        start = _as_vec(gen.params["start"])
        second = tuple(s + t for s, t in zip(start, _as_vec(gen.params["step"])))
        span = tuple(dict.fromkeys(list(g.points) + [start, second]))
        if affine_dimension(FrequencySet(dim=d, points=span)) < d:
            return AbundanceScan(Abundance.NO, None, None)
    stream_cap = 4 * scan_budget + 64
    seen: list[Vec] = []
    independent: list[Vec] = []
    det_sets: list[tuple[tuple[Vec, ...], set[int]]] = []
    for p in g.stream(stream_cap):
        seen.append(p)
        if len(independent) < d + 1:
            if rank_exact(lifted_matrix(independent + [p])) == len(independent) + 1:
                independent.append(p)
                if len(independent) == d + 1:
                    # candidate tuples: every d-subset of the independent set
                    det_sets = [
                        (tuple(independent[:i] + independent[i + 1 :]), set())
                        for i in range(d + 1)
                    ]
                    for q in seen:
                        for tp, ds in det_sets:
                            if q not in tp:
                                ds.add(det_exact(lifted_matrix([q, *tp])))
            continue
        for tp, ds in det_sets:
            if p not in tp:
                ds.add(det_exact(lifted_matrix([p, *tp])))
        for tp, ds in det_sets:
            if len(ds) > scan_budget:
                return AbundanceScan(Abundance.YES, tuple(independent), tp)
    witness = tuple(independent) if len(independent) == d + 1 else None
    return AbundanceScan(Abundance.INCONCLUSIVE, witness, None)
