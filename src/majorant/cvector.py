"""Certificate vectors for affinely independent frequency tuples.

Given d+1 frequency vectors n_0, ..., n_d in Z^d, the signed maximal minors
of the d x (d+1) matrix (n_0 ... n_d) form an exact integer null vector v;
dividing by the gcd gives the primitive direction c, whose positive and
negative parts drive everything else: which exponents p make a coordinated
sign flip raise the L^p norm, and by how much at leading order.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, inf, lgamma, log, log2, pi, sin
from sys import float_info
from typing import Any, NamedTuple, Sequence, Union

from .errors import DimensionError, DomainError, HypothesisError
from .exact_lattice import Vec, _as_vec, _eliminate, _integer, _typed, _vectors

Real = Union[int, float, Fraction]


def _exponent(p: Any, name: str = "p") -> Real:
    """`p` if it is a positive Real (never a bool) finite as a float, else
    DomainError quoting the argument's `name`."""
    if not (_typed(p, Real) and 0 < p <= float_info.max):
        raise DomainError(f"exponent {name!r} must be a positive finite number, got {p!r}")
    return p


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
    """
    freqs = _vectors(freqs, "frequency")
    d = len(freqs[0])
    if len(freqs) != d + 1:
        raise DimensionError(f"need d+1 = {d + 1} frequency vectors, got {len(freqs)}")
    # the minors are determinants of row slices: a transpose keeps each one
    return tuple((-1) ** i * _eliminate([*freqs[:i], *freqs[i + 1 :]])[1] for i in range(d + 1))


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


def gen_binom(p: Real, j: int) -> Real:
    """Generalized binomial coefficient (p/2 choose j).

    Computed as prod_{l<j} (p - 2l) / (2^j j!) in exact rational arithmetic;
    the return type follows the input (float in, float out).  For even p the
    product hits zero once j exceeds p/2, exactly.
    """
    _integer(j, "index", 0)
    q = Fraction(_exponent(p))
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
    if is_even_exponent(_exponent(p)):
        raise DomainError("even integer exponents admit no strict violation")
    return (_negative_factors(p, cv.m_minus) + _negative_factors(p, cv.m_plus)) % 2 == 1


def _log_abs_gamma(x: Fraction) -> float:
    """log |Gamma(x)|; below 1/2 by reflection, keeping the distance to a pole exact."""
    if x >= Fraction(1, 2):
        return lgamma(x)
    return log(pi) - log(abs(sin(pi * (x - round(x))))) - lgamma(1 - x)


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
    half = Fraction(p) / 2  # exact, as p/2 - |e| + 1 may lie near a pole of Gamma
    try:
        log_coef = sum(
            lgamma(half + 1) - _log_abs_gamma(half - sum(e) + 1) - sum(lgamma(x + 1) for x in e)
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
