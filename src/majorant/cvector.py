"""Certificate vectors for affinely independent frequency tuples.

Given d+1 frequency vectors n_0, ..., n_d in Z^d, the signed maximal minors
of the d x (d+1) matrix (n_0 ... n_d) form an exact integer null vector v;
dividing by the gcd gives the primitive direction c, whose positive and
negative parts drive everything else: which exponents p make a coordinated
sign flip raise the L^p norm, and by how much at leading order.

That leading order, `log2_leading_term`, takes p/2 in floats for an int or
float p in [2^-1021, 2^53) when m_plus is below 2^53, and as a `Fraction`
otherwise (a `Fraction` p, larger p or entries); both give the same bits,
because each float step there is exact or rounds once, as the conversion of
the exact value does.  `sign_condition` needs only floor(p/2), which p // 2
gives exactly for every p.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, inf, isfinite, lgamma, log, log2, nan, pi, sin
from sys import float_info
from typing import Any, NamedTuple, Sequence

from .errors import DimensionError, DomainError, HypothesisError
from .exact_lattice import Vec, _as_vec, _integer, _typed, _vectors

Real = int | float | Fraction  # a types.UnionType: isinstance checks it natively
# p/2 of a float p at least this is a normal float, so it is exact
_HALF_EXACT = 2 * float_info.min


def _exponent(p: Any, name: str = "p") -> Real:
    """`p` if it is a positive Real (never a bool) finite as a float, else
    DomainError quoting the argument's `name`."""
    if not (_typed(p, Real) and 0 < p <= float_info.max):
        raise DomainError(f"exponent {name!r} must be a positive finite number, got {p!r}")
    return p


def _check_real_coeffs(
    coeffs: Sequence[Real], count: int, kinds: Any = Real, name: str = "coefficients"
) -> list[float]:
    """The coefficients as floats: DomainError unless `coeffs` is a list or tuple
    of `kinds` (never bools) finite as floats, DimensionError unless it has
    `count`.  Both messages quote the argument's `name`."""
    if not isinstance(coeffs, (list, tuple)):
        raise DomainError(f"{name!r} must be a list or tuple of real numbers, got {coeffs!r}")
    if len(coeffs) != count:
        raise DimensionError(f"{name!r} has {len(coeffs)} entries for {count} frequencies")
    floats = []
    for x in coeffs:
        try:
            f = float(x) if _typed(x, kinds) else nan
        except OverflowError:  # an exact number beyond the float range
            f = inf
        if not isfinite(f):
            raise DomainError(f"{name!r} must hold real numbers finite as floats, got {x!r}")
        floats.append(f)
    return floats


def multinomial(entries: Sequence[int]) -> int:
    """(|entries| choose entries), computed exactly."""
    entries = _as_vec(entries, "entries")
    if any(e < 0 for e in entries):
        raise DomainError("multinomial needs nonnegative entries")
    out = factorial(sum(entries))
    for e in entries:
        out //= factorial(e)
    return out


def build_v(freqs: Sequence[Vec]) -> Vec:
    """Signed cofactor null vector of the d x (d+1) frequency matrix.

    v_i is (-1)^i times the minor obtained by deleting column i, i.e. the
    coefficients of the Laplace expansion of det((x, 1-lift of freqs)) along
    the top row.  Consequently (n_0 ... n_d) v = 0 exactly and the entries
    sum to det of the lifted (d+1) x (d+1) matrix.

    One fraction-free Gauss-Jordan pass finds them all: entries stay integer
    minors, so each division is exact.  At rank d it leaves D times the
    identity on the pivot columns, D their minor times the sign s of the row
    swaps; with a_k row k's entry in the free column f, v is (-1)^f s times
    x_f = D, x_(j_k) = -a_k.  A lower rank makes every minor zero.
    """
    freqs = _vectors(freqs, "frequency")
    d = len(freqs[0])
    if len(freqs) != d + 1:
        raise DimensionError(f"need d+1 = {d + 1} frequency vectors, got {len(freqs)}")
    a = [list(row) for row in zip(*freqs)]
    rank, sign, prev, free = 0, 1, 1, d
    for col in range(d + 1):
        if a[rank][col] == 0:
            pivot = next((i for i in range(rank + 1, d) if a[i][col] != 0), None)
            if pivot is None:
                free = col  # a second such column leaves the rank below d
                continue
            a[rank], a[pivot] = a[pivot], a[rank]
            sign = -sign
        top, piv = a[rank], a[rank][col]
        for i, row in enumerate(a):
            if i != rank:  # each other row: its 2 x 2 cross products with the pivot row
                f = row[col]
                a[i] = [(x * piv - f * y) // prev for x, y in zip(row, top)]
        prev = piv
        rank += 1
        if rank == d:
            break
    if rank < d:
        return (0,) * (d + 1)
    sign *= (-1) ** free  # the pivot columns are the others, in order, one per row
    v = [-sign * row[free] for row in a]
    v.insert(free, sign * prev)
    return tuple(v)


class CVector(NamedTuple):
    """Primitive null direction of a frequency tuple, with its split parts.

    c = v / D where D = gcd of the entries of v; c_plus and c_minus are the
    entrywise positive and negative parts (disjoint supports, c = c_plus -
    c_minus), and m_plus >= m_minus are the larger and smaller of their
    coordinate sums.
    """

    v: Vec
    d_gcd: int
    c: Vec
    c_plus: tuple[int, ...]
    c_minus: tuple[int, ...]
    m_plus: int
    m_minus: int

    def to_json(self) -> dict:
        return {
            "v": list(self.v),
            "D": self.d_gcd,
            "c": list(self.c),
            "c_plus": list(self.c_plus),
            "c_minus": list(self.c_minus),
            "m_plus": self.m_plus,
            "m_minus": self.m_minus,
        }


def build_c(v: Sequence[int]) -> CVector:
    """Divide out the gcd of v and split the result into signed parts."""
    v = _as_vec(v, "null vector")
    d_gcd = gcd(*v)
    if d_gcd == 0:
        raise HypothesisError("null vector is zero; the frequency tuple is degenerate")
    c = tuple(x // d_gcd for x in v)
    c_plus = tuple(max(x, 0) for x in c)
    c_minus = tuple(max(-x, 0) for x in c)
    s_plus, s_minus = sum(c_plus), sum(c_minus)
    return CVector(
        v=v,
        d_gcd=d_gcd,
        c=c,
        c_plus=c_plus,
        c_minus=c_minus,
        m_plus=max(s_plus, s_minus),
        m_minus=min(s_plus, s_minus),
    )


def is_even_exponent(p: Real) -> bool:
    """Whether the Real p is a positive even integer (where every sign pattern ties)."""
    if not _typed(p, Real):
        raise DomainError(f"exponent must be a real number, got {p!r}")
    return 0 < p < inf and p % 2 == 0  # exact for floats too: fmod rounds nothing


def _half_binomial_numerators(p: Real, w: int, k_max: int) -> tuple[list[int], int]:
    """Integers g and one denominator den with g[k] / den = (p/2 choose k) / w^k
    for every k <= k_max: with p/2 = h/q in lowest terms, den = (q w)^k_max
    k_max! and each g[k + 1] is g[k] (h - k q) / (q w (k + 1)), exactly."""
    h, q = (Fraction(p) / 2).as_integer_ratio()
    g = [(q * w) ** k_max * factorial(k_max)]
    for k in range(k_max):
        g.append(g[-1] * (h - k * q) // (q * w * (k + 1)))
    return g, g[0]


def gen_binom(p: Real, j: int) -> Real:
    """Generalized binomial coefficient (p/2 choose j).

    One running Fraction, times (p/2 - k) / (k + 1) at each step; the return
    type follows the input (float in, float out).  For even p the product
    hits zero once j exceeds p/2, exactly.
    """
    _integer(j, "index", 0)
    half, value = Fraction(_exponent(p)) / 2, Fraction(1)
    for k in range(j):
        value = value * (half - k) / (k + 1)
    return float(value) if isinstance(p, float) else value


def _negative_factors(p: Real, j: int) -> int:
    """How many factors p/2 - l (l < j) of (p/2 choose j) are negative, for non-even p > 0.

    p // 2 is exact for a float p too: floor division by 2 rounds nothing.
    """
    return max(0, j - int(p // 2) - 1)


def sign_condition(p: Real, cv: CVector) -> bool:
    """Whether -(p/2 choose |c_minus|)(p/2 choose |c_plus|) > 0.

    This is the exact sign test for the leading coupled term.  It counts the
    negative factors of both binomials instead of forming them, so it is
    exact and takes constant time however large the entries of c are.
    Even integer p is rejected: there every sign pattern gives the same norm
    and the product above is never probative.
    """
    if is_even_exponent(_exponent(p)):
        raise DomainError("even integer exponents admit no strict violation")
    return (_negative_factors(p, cv.m_minus) + _negative_factors(p, cv.m_plus)) % 2 == 1


def _log_abs_gamma(half: Real, m: int) -> float:
    """log |Gamma(half - m + 1)|; below 1/2 by reflection, with the distance to a
    pole of Gamma taken exactly from the fractional part of `half`.

    For a Fraction `half` every step is exact until a float function takes
    it.  For a float `half` that is p/2 exactly, with m below 2^53, each float
    operation is exact or rounds once, so it hands each float function the
    same float as the Fraction steps do.
    """
    x = half - (m - 1)
    if x >= 0.5:
        return lgamma(x)
    frac = half % 1  # x - floor(x), exact
    if frac > 0.5:  # now +-(x - round(x)), whose sine has the same size
        frac -= 1
    return log(pi) - log(abs(sin(pi * frac))) - lgamma(m - half)


def log2_leading_term(p: Real, cv: CVector, a: Sequence[Real]) -> float:
    """log2 of the leading coupled term, or -inf unless that term is positive.

    The term is -2 (p/2 choose |c-|)(p/2 choose |c+|) (|c-| choose c-)
    (|c+| choose c+) (|a^|c|| - a^|c|) for the coefficients `a`, one per
    entry of c (the origin's coefficient is 1); a length other than len(c)
    raises DimensionError, an entry that is not a real number finite as a
    float (a bool included) DomainError.  Only its sign and log-size are
    formed, in O(len c) time whatever the size of the entries: for each
    part e of c, (p/2 choose |e|)(|e| choose e) has log size lgamma(p/2+1)
    - lgamma(p/2-|e|+1) - sum lgamma(e_i+1).  The term is positive exactly
    when p is not even, the sign condition holds and a^|c| is negative (a
    zero coefficient makes it vanish).  Entries too large for float
    arithmetic also give -inf: no float margin can be compared with such a
    term.

    p/2 is formed in floats when p is an int or float in [2^-1021, 2^53) and
    m_plus is below 2^53, where that gives the bits the exact `Fraction`
    p/2 gives (see `_log_abs_gamma`), and as a `Fraction` otherwise.
    """
    a = _check_real_coeffs(a, len(cv.c), name="a")
    if is_even_exponent(p) or not sign_condition(p, cv):
        return -inf
    w = [x + y for x, y in zip(cv.c_plus, cv.c_minus)]
    if sum(e for x, e in zip(a, w) if x < 0) % 2 == 0:
        return -inf
    in_floats = _typed(p, (int, float)) and _HALF_EXACT <= p < 2**53 and cv.m_plus < 2**53
    half = p / 2 if in_floats else Fraction(p) / 2
    try:
        log_coef = sum(
            lgamma(half + 1) - _log_abs_gamma(half, sum(e)) - sum(lgamma(x + 1) for x in e)
            for e in (cv.c_minus, cv.c_plus)
        )
        # the factor 4 is the -2 above times |a^|c|| - a^|c| = 2 |a^|c||
        return 2.0 + log_coef / log(2) + sum(e * log2(abs(x)) for x, e in zip(a, w) if e)
    except (OverflowError, ValueError):  # entries beyond float range; log2(0)
        return -inf


class OpenInterval(NamedTuple):
    lo: Real
    hi: Real

    def contains(self, x: Real) -> bool:
        return self.lo < x < self.hi


def p_interval(cv: CVector) -> OpenInterval:
    """Open exponent interval (2 m_plus - 4, 2 m_plus - 2).

    Throughout this interval the larger binomial factor has just turned
    negative while the smaller is still positive, so sign_condition holds at
    every interior (necessarily non-even) exponent.  Requires m_plus >= 2 and
    m_plus != m_minus.
    """
    if cv.m_plus < 2:
        raise HypothesisError("m_plus < 2 leaves no admissible exponent interval")
    if cv.m_plus == cv.m_minus:
        raise HypothesisError("balanced parts (m_plus = m_minus) give no sign change")
    return OpenInterval(2 * cv.m_plus - 4, 2 * cv.m_plus - 2)
