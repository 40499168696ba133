"""Certificate vectors for affinely independent frequency tuples.

Given d+1 frequency vectors n_0, ..., n_d in Z^d, the signed maximal minors
of the d x (d+1) matrix (n_0 ... n_d) form an exact integer null vector v;
dividing by the gcd gives the primitive direction c, whose positive and
negative parts drive everything else: which exponents p make a coordinated
sign flip raise the L^p norm, and by how much at leading order.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, inf, lgamma, log, log2
from typing import NamedTuple, Sequence, Union

from .errors import DimensionError, DomainError, HypothesisError
from .exact_lattice import IntMatrix, Vec, det_exact

Real = Union[int, float, Fraction]


def multinomial(entries: Sequence[int]) -> int:
    """(|entries| choose entries), computed exactly."""
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
    """
    if not freqs:
        raise DimensionError("no frequencies")
    d = len(freqs[0])
    if len(freqs) != d + 1:
        raise DimensionError(f"need d+1 = {d + 1} frequency vectors, got {len(freqs)}")
    if any(len(f) != d for f in freqs):
        raise DimensionError("frequency vectors of mixed dimension")
    if d == 0:
        raise DimensionError("dimension must be at least 1")
    v = []
    for i in range(d + 1):
        minor = IntMatrix.from_columns([f for j, f in enumerate(freqs) if j != i])
        v.append((-1) ** i * det_exact(minor))
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

    @property
    def total_order(self) -> int:
        """|c_plus| + |c_minus|, the degree of the leading coupled term."""
        return self.m_plus + self.m_minus

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
    v = tuple(v)
    d_gcd = 0
    for x in v:
        d_gcd = gcd(d_gcd, x)
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
    """Whether p is a positive even integer (where every sign pattern ties)."""
    q = Fraction(p)  # exact for floats too: binary floats are rationals
    return q > 0 and q.denominator == 1 and q.numerator % 2 == 0


def gen_binom(p: Real, j: int) -> Real:
    """Generalized binomial coefficient (p/2 choose j).

    Computed as prod_{l<j} (p - 2l) / (2^j j!) in exact rational arithmetic;
    the return type follows the input (float in, float out).  For even p the
    product hits zero once j exceeds p/2, exactly.
    """
    if j < 0:
        raise DomainError("index must be nonnegative")
    q = Fraction(p)
    if q <= 0:
        raise DomainError("exponent must be positive")
    num = Fraction(1)
    for l in range(j):
        num *= q - 2 * l
    value = num / (2**j * factorial(j))
    return float(value) if isinstance(p, float) else value


def _negative_factors(p: Real, j: int) -> int:
    """How many factors p/2 - l (l < j) of (p/2 choose j) are negative, for non-even p > 0."""
    return max(0, j - Fraction(p) // 2 - 1)


def sign_condition(p: Real, cv: CVector) -> bool:
    """Whether -(p/2 choose |c_minus|)(p/2 choose |c_plus|) > 0.

    This is the exact sign test for the leading coupled term.  It counts the
    negative factors of both binomials instead of forming them, so it is
    exact and takes constant time however large the entries of c are.
    Even integer p is rejected: there every sign pattern gives the same norm
    and the product above is never probative.
    """
    if is_even_exponent(p):
        raise DomainError("even integer exponents admit no strict violation")
    if not p > 0:
        raise DomainError("exponent must be positive")
    return (_negative_factors(p, cv.m_minus) + _negative_factors(p, cv.m_plus)) % 2 == 1


def log2_leading_term(p: Real, cv: CVector, a: Sequence[Real]) -> float:
    """log2 of the leading coupled term, or -inf unless that term is positive.

    The term is -2 (p/2 choose |c-|)(p/2 choose |c+|) (|c-| choose c-)
    (|c+| choose c+) (|a^|c|| - a^|c|) for the coefficients `a` (the
    origin's coefficient is 1).  Only its sign and log-size are formed, in
    O(len c) time whatever the size of the entries: for each part e of c,
    (p/2 choose |e|)(|e| choose e) has log size lgamma(p/2+1) -
    lgamma(p/2-|e|+1) - sum lgamma(e_i+1).  The term is
    positive exactly when p is not even, the sign condition holds and a^|c|
    is negative (a zero coefficient makes it vanish).  Entries too large for
    float arithmetic also give -inf: no float margin can be compared with
    such a term.
    """
    if is_even_exponent(p) or not sign_condition(p, cv):
        return -inf
    w = [x + y for x, y in zip(cv.c_plus, cv.c_minus)]
    if sum(e for x, e in zip(a, w) if x < 0) % 2 == 0:
        return -inf
    half = Fraction(p) / 2  # exact, as p/2 - |e| + 1 may lie near a pole of lgamma
    try:
        log_coef = sum(
            lgamma(half + 1) - lgamma(half - sum(e) + 1) - sum(lgamma(x + 1) for x in e)
            for e in (cv.c_minus, cv.c_plus)
        )
        # the factor 4 is the -2 above times |a^|c|| - a^|c| = 2 |a^|c||
        return 2.0 + log_coef / log(2) + sum(e * log2(abs(float(x))) for x, e in zip(a, w) if e)
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
