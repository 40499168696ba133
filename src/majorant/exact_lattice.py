"""Exact integer linear algebra over frequency sets.

Everything in this module is computed with arbitrary-precision Python
integers; nothing here rounds.  One fraction-free Bareiss elimination gives
every rank and determinant, one Euclidean sweep (`_sweep`) the echelon form
that `hnf` factors and `reduce_full_dim` solves for coordinates, and affine
data of a frequency set is read off its lifted points (1, n) and its
difference vectors.  Every structural answer reads a set through one finite
sample (`_sample`) and that sample's greedy affine basis (`_hull`).

Each sequence argument of the package passes one of three checks, which take
lists and tuples only: `_as_vec` (exact integers), `_vectors` (such vectors
of one length) and `cvector._check_real_coeffs` (real coefficients).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, islice
from typing import Any, Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import DimensionError, DomainError, HypothesisError

Vec = tuple[int, ...]


def _typed(value: Any, kinds: Any) -> bool:
    """Whether value has one of `kinds`.

    A bool has a kind only when `kinds` is bool: it never counts as a number.
    """
    return isinstance(value, kinds) and (kinds is bool or not isinstance(value, bool))


def _integer(value: Any, name: str, least: Optional[int] = None, error: type = DomainError) -> int:
    """`value` if it is an exact integer (never a bool) of at least `least`, else `error`."""
    if not _typed(value, int) or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise error(f"{name} must be an exact integer{bound}, got {value!r}")
    return value


def _as_vec(values: Sequence[int], name: str = "vector") -> Vec:
    """`values` as a tuple if it is a list or tuple of exact integers, else DomainError."""
    if not isinstance(values, (list, tuple)):
        raise DomainError(f"{name} must be a list or tuple of exact integers, got {values!r}")
    out = tuple(values)
    for x in out:
        if type(x) is not int:  # a plain int passes with one test: matrices check every entry
            _integer(x, "entry")
    return out


def _vectors(
    values: Sequence[Sequence[int]], name: str, dim: Optional[int] = None
) -> tuple[Vec, ...]:
    """`values` as a tuple of `_as_vec` vectors of length `dim`, or else of the
    first vector's length, which must be at least 1.  A container other than a
    list or tuple raises DomainError, a wrong length (or no vector) DimensionError."""
    if not isinstance(values, (list, tuple)):
        raise DomainError(f"{name} vectors must come in a list or tuple, got {values!r}")
    out = tuple(_as_vec(v, name) for v in values)
    lengths = {len(v) for v in out}
    if (lengths <= {dim}) if dim is not None else (len(lengths) == 1 and 0 not in lengths):
        return out
    want = "one length of at least 1" if dim is None else f"length {dim}"
    raise DimensionError(f"{name} vectors need {want}, got lengths {sorted(lengths)}")


def _json_object(value: Any, keys: set[str], name: str) -> dict:
    """`value` if it is a dict whose keys are among `keys`, else DomainError."""
    if not (isinstance(value, dict) and keys.issuperset(value)):
        raise DomainError(f"{name} must be an object with keys among {sorted(keys)}, got {value!r}")
    return value


@dataclass(frozen=True)
class IntMatrix:
    """Dense matrix of exact integers, row-major."""

    entries: tuple[Vec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", _vectors(self.entries, "row"))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        return cls(rows)

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence[int]]) -> "IntMatrix":
        return cls(tuple(zip(*_vectors(cols, "column"))))

    @classmethod
    def _computed(cls, rows: Iterable[Iterable[int]]) -> "IntMatrix":
        """Rows this module computed from checked integers, kept without
        re-checking each entry; the public constructors check every one."""
        out = object.__new__(cls)
        object.__setattr__(out, "entries", tuple(map(tuple, rows)))
        return out

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._computed([[int(i == j) for j in range(n)] for i in range(n)])

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def column(self, j: int) -> Vec:
        return tuple(row[j] for row in self.entries)


def _eliminate(rows: Sequence[Sequence[int]]) -> tuple[int, int]:
    """(rank, det) of integer rows by fraction-free Bareiss elimination.

    Each pass takes the next column with a nonzero entry at or below the
    current row (a lower row is swapped up only when the diagonal entry is
    zero) and updates the entries right of it in each row below by a 2 x 2
    cross product over the previous pivot.  Entries stay integer minors of
    the input, so that division is exact (Sylvester's identity) and nothing
    rounds.  det is 0 unless the rows form a square matrix of full rank.
    """
    a = [list(row) for row in rows]
    n, cols = len(a), len(a[0]) if a else 0
    rank, sign, prev = 0, 1, 1
    for col in range(cols):
        if a[rank][col] == 0:
            pivot = next((i for i in range(rank + 1, n) if a[i][col] != 0), None)
            if pivot is None:
                continue
            a[rank], a[pivot] = a[pivot], a[rank]
            sign = -sign
        top = a[rank]
        piv = top[col]
        for row in a[rank + 1 :]:
            f = row[col]
            for j in range(col + 1, cols):
                row[j] = (row[j] * piv - f * top[j]) // prev
        prev = piv
        rank += 1
        if rank == n:
            break
    return rank, sign * prev if rank == n == cols else 0


def det_exact(m: IntMatrix) -> int:
    """Exact determinant of a square matrix; see _eliminate."""
    if m.rows != m.cols:
        raise DimensionError("determinant needs a square matrix")
    return _eliminate(m.entries)[1]


def rank_exact(m: IntMatrix) -> int:
    """Rank over Q (equals the rank of the generated lattice)."""
    return _eliminate(m.entries)[0]


class HnfResult(NamedTuple):
    e: IntMatrix  # unimodular, det = +-1
    b: IntMatrix  # upper triangular (echelon for rectangular input)


def _sweep(w: list[list[int]]) -> list[tuple[int, int, int]]:
    """Bring the rows `w` to echelon form in place and return its row operations
    in order: (i, k, q) subtracts q != 0 times row k from row i, (i, k, 0)
    swaps rows i and k, and (i, i, 0) negates row i.

    The sweep works one column at a time: the entry of smallest nonzero
    absolute value (ties: smallest row index) is swapped into the pivot row
    and normalized positive, then multiples of the pivot row are subtracted
    below until the column clears.  Repeating the selection runs Euclid's
    algorithm down the column, so the surviving pivot is the gcd of the
    entries the sweep saw.  The nonzero rows come first.
    """
    ops: list[tuple[int, int, int]] = []
    n, r = len(w), 0
    for col in range(len(w[0])):
        while True:
            candidates = [i for i in range(r, n) if w[i][col] != 0]
            if not candidates:
                break
            pivot = min(candidates, key=lambda i: (abs(w[i][col]), i))
            if pivot != r:
                w[r], w[pivot] = w[pivot], w[r]
                ops.append((r, pivot, 0))
            if w[r][col] < 0:
                w[r] = [-x for x in w[r]]
                ops.append((r, r, 0))
            clean = True
            for i in range(r + 1, n):
                if w[i][col] != 0:
                    q = w[i][col] // w[r][col]  # nonzero: |w[r][col]| <= |w[i][col]|
                    w[i] = [x - q * y for x, y in zip(w[i], w[r])]
                    ops.append((i, r, q))
                    clean = clean and w[i][col] == 0
            if clean:
                break
        if any(w[i][col] != 0 for i in range(r, n)):
            r += 1
            if r == n:
                break
    return ops


def hnf(m: IntMatrix) -> HnfResult:
    """Factor m = e . b with e unimodular and b upper triangular: b is the
    echelon `_sweep` leaves, and e replays its row operations on the identity
    as inverse column operations (row i losing q times row k is column k
    gaining q times column i), keeping m = e . b exact throughout."""
    w = [list(row) for row in m.entries]
    e = [list(row) for row in IntMatrix.identity(m.rows).entries]
    for i, k, q in _sweep(w):
        for row in e:
            if q:
                row[k] += q * row[i]
            elif i == k:
                row[i] = -row[i]
            else:
                row[i], row[k] = row[k], row[i]
    return HnfResult(IntMatrix._computed(e), IntMatrix._computed(w))


# ---------------- Frequency sets ----------------


# the parameters each generator kind takes
_GENERATOR_PARAMS = {"moment_curve": {"t_start"}, "arith_progression": {"start", "step"}}


@dataclass(frozen=True)
class PointGenerator:
    """Rule producing the infinite tail of a frequency set."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (isinstance(self.kind, str) and self.kind in _GENERATOR_PARAMS):
            raise DomainError(f"unknown generator kind {self.kind!r}")
        _json_object(self.params, _GENERATOR_PARAMS[self.kind], f"{self.kind} params")
        object.__setattr__(self, "params", dict(self.params))  # not the caller's dict
        if self.kind == "arith_progression":
            _vectors([self.params.get("start"), self.params.get("step")], "generator")
        else:
            _integer(self.params.get("t_start", 1), "t_start")

    def iter_points(self, dim: int) -> Iterator[Vec]:
        """The tail in dimension `dim`, without repeats: a zero step gives its start once."""
        if self.kind == "moment_curve":
            t = self.params.get("t_start", 1)
            while True:
                yield tuple(t**i for i in range(1, dim + 1))
                t += 1
        else:
            start, step = self.params["start"], self.params["step"]
            k = 0
            while True:
                yield tuple(s + k * d for s, d in zip(start, step))
                if not any(step):
                    return
                k += 1


@dataclass(frozen=True)
class FrequencySet:
    """Finite list of integer frequency vectors, optionally with a generator tail.

    Points are pairwise distinct.  dim = 0 only occurs as the output of
    reduce_full_dim on a single point.
    """

    dim: int
    points: tuple[Vec, ...]
    generator: Optional[PointGenerator] = None

    def __post_init__(self) -> None:
        gen = self.generator  # a tail needs room: in dimension 0 it would repeat one point
        _integer(self.dim, "dimension", 0 if gen is None else 1, DimensionError)
        pts = _vectors(self.points, "point", self.dim)
        if len(set(pts)) != len(pts):
            raise DomainError("points must be pairwise distinct")
        if gen is None and not pts:
            raise DomainError("empty frequency set")
        if gen is not None and gen.kind == "arith_progression":
            _vectors([gen.params["start"], gen.params["step"]], "generator", self.dim)
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_json(cls, obj: dict) -> "FrequencySet":
        """Read a frequency set, rejecting (never coercing) what
        docs/frequency_set.schema.json rejects, unknown keys included."""
        _json_object(obj, {"dim", "points", "generator"}, "frequency set")
        dim = _integer(obj.get("dim"), "dim", 1)
        gen = obj.get("generator")
        if gen is not None:
            _json_object(gen, {"kind", "params"}, "generator")
            gen = PointGenerator(gen.get("kind"), gen.get("params", {}))
        # entries are checked, never coerced, by the constructors
        return cls(dim, obj.get("points", []), gen)

    def to_json(self) -> dict:
        out: dict = {"dim": self.dim, "points": [list(p) for p in self.points]}
        if self.generator is not None:
            out["generator"] = {"kind": self.generator.kind, "params": dict(self.generator.params)}
        return out

    def stream(self, limit: int) -> Iterator[Vec]:
        """Yield up to `limit` distinct points: the prefix first, then the tail."""
        listed = set(self.points)
        tail = () if self.generator is None else self.generator.iter_points(self.dim)
        # no tail repeats itself, so only the listed points can repeat
        return islice(chain(self.points, (p for p in tail if p not in listed)), max(limit, 0))

    def is_structurally_infinite(self) -> bool:
        gen = self.generator
        return gen is not None and (gen.kind == "moment_curve" or any(gen.params["step"]))


def _affine_basis(points: Iterable[Vec]) -> tuple[Vec, ...]:
    """Greedy affine basis: each point, in listed order, that is affinely
    independent of those already kept.

    A point is kept when its lift (1, n) raises the rank of the kept lifts.
    The iterable is read lazily, and reading stops once len(point) + 1
    points are kept, the most any affinely independent set in that
    dimension has.
    """
    kept: list[Vec] = []
    for p in points:
        if _eliminate([(1, *q) for q in (*kept, p)])[0] > len(kept):
            kept.append(p)
            if len(kept) == len(p) + 1:
                break
    return tuple(kept)


def _sample(g: FrequencySet) -> FrequencySet:
    """The finite set every structural answer reads `g` by: the listed points
    and dim + 2 more streamed points, so every point of a set that is not
    structurally infinite.  It has at least dim + 2 points, so the sample of
    a structurally infinite set is always dependent."""
    return FrequencySet(g.dim, tuple(g.stream(len(g.points) + g.dim + 2)))


def _hull(g: FrequencySet) -> tuple[Vec, ...]:
    """The greedy affine basis of `_sample(g)`, which spans the affine hull of
    the whole set: two points of a progression tail span its line, and any
    dim + 1 distinct points of the moment curve span Z^dim."""
    return _affine_basis(_sample(g).points)


def affine_dimension(g: FrequencySet) -> int:
    """Affine dimension of the whole set, tail included: the size of its
    hull (`_hull`), less one.  Translation does not change it."""
    return len(_hull(g)) - 1


def is_affinely_independent(g: FrequencySet) -> bool:
    """Whether the set is finite and its hull keeps every point of it."""
    return not g.is_structurally_infinite() and len(_hull(g)) == len(_sample(g).points)


class Reduction(NamedTuple):
    n_star: Vec
    basis: Optional[IntMatrix]  # d x d' columns; None when d' = 0
    reduced: FrequencySet


def reduce_full_dim(g: FrequencySet) -> Reduction:
    """Rewrite the finite set g as n_star + basis . g' with g' full-dimensional
    in Z^d'; a structurally infinite set raises HypothesisError.

    The points are those of `_sample(g)`, a zero-step tail's start included,
    and n_star is the first.  `_sweep` brings the difference vectors to
    echelon form by unimodular row operations, so its r nonzero rows b_k, the
    basis columns, generate the lattice the differences span.  Row k is zero
    left of its pivot column j_k, so a difference d has the unique coordinates
    y_k = (d[j_k] - sum_{l<k} y_l b_l[j_k]) / b_k[j_k], every division exact.
    Cardinality is preserved and n_star itself maps to the origin.
    """
    if g.is_structurally_infinite():
        raise HypothesisError("set is structurally infinite; only a finite set reduces")
    n_star, *rest = _sample(g).points
    diffs = [tuple(a - b for a, b in zip(p, n_star)) for p in rest]
    if not diffs:
        reduced = FrequencySet(dim=0, points=((),))
        return Reduction(n_star, None, reduced)
    echelon = [list(d) for d in diffs]
    _sweep(echelon)
    # distinct points give a nonzero difference, so at least one row survives
    basis_rows = [row for row in echelon if any(row)]
    pivots = [(b, next(j for j, x in enumerate(b) if x)) for b in basis_rows]
    coords = []
    for d in diffs:
        y: list[int] = []
        for b, j in pivots:
            y.append((d[j] - sum(yl * bl[j] for yl, bl in zip(y, basis_rows))) // b[j])
        coords.append(tuple(y))
    basis = IntMatrix._computed(zip(*basis_rows))
    r = len(basis_rows)
    reduced = FrequencySet(dim=r, points=((0,) * r, *coords))
    return Reduction(n_star, basis, reduced)


class Abundance(str, Enum):
    YES = "yes"
    NO = "no"
    INCONCLUSIVE = "inconclusive"


class AbundanceScan(NamedTuple):
    status: Abundance
    witness: Optional[tuple[Vec, ...]]  # affinely independent (d+1)-subset when found
    dtuple: Optional[tuple[Vec, ...]]  # d-subset whose determinant count certified YES


def abundance_scan(g: FrequencySet, scan_budget: int) -> AbundanceScan:
    """Tri-state abundance decision with the witness subsets the scan found.

    no: the set is finite (not structurally infinite) or its affine
    dimension, read from its hull (`_hull`), is below d.  Otherwise the hull
    is the witness.  yes: some d-subset of the witness, completed by
    streamed points, produced more than scan_budget distinct lifted
    determinants; the count is judged after each point beyond the witness's
    last.  inconclusive: the 4 scan_budget + 64 streamed points ran out first.
    """
    _integer(scan_budget, "scan budget", 1)
    d = g.dim
    witness = _hull(g) if g.is_structurally_infinite() else ()
    if len(witness) <= d:
        return AbundanceScan(Abundance.NO, None, None)
    stream_cap = 4 * scan_budget + 64
    # candidate tuples: every d-subset of the witness
    det_sets = [(witness[:i] + witness[i + 1 :], set()) for i in range(d + 1)]
    judged = False
    for p in g.stream(stream_cap):
        for tp, ds in det_sets:
            if p not in tp:
                ds.add(_eliminate([(1, *x) for x in (p, *tp)])[1])
        if judged:
            for tp, ds in det_sets:
                if len(ds) > scan_budget:
                    return AbundanceScan(Abundance.YES, witness, tp)
        judged = judged or p == witness[-1]
    return AbundanceScan(Abundance.INCONCLUSIVE, witness, None)
