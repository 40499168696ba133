"""Counterexample construction and certification.

Each constructor picks a frequency tuple, whose primitive relation c fixes
the certificate vector and the open exponent interval (a `Certificate`
derives both from its frequencies), chooses signed coefficients of one
magnitude whose majorant comparison fails on that interval, and certifies
the failure by one quadrature evaluation in `verify_certificate`.

`verify_certificate` is the only code that evaluates and judges a margin.
It certifies when the margin is finite, exceeds the safety multiple of the
error estimate and lies within a factor 10 of the exact leading coupled
term, which depends only on the certificate vector, the magnitude and p.
Roundoff and aliased grid modes give margins unrelated to that term, so
they cannot pass.  A constructed certificate is `verified` exactly when
`verify_certificate` with the same settings returns True.
"""

from __future__ import annotations

import json
from contextlib import suppress
from dataclasses import asdict, dataclass, fields, replace
from fractions import Fraction
from functools import cached_property
from math import inf, isfinite, log2
from sys import float_info
from typing import Any, NamedTuple, Sequence

from .cvector import (
    CVector,
    OpenInterval,
    Real,
    build_c,
    build_v,
    is_even_exponent,
    log2_leading_term,
    p_interval,
    sign_condition,
)
from .errors import BudgetError, DomainError, HypothesisError, MajorantError
from .exact_lattice import (
    Abundance,
    FrequencySet,
    Vec,
    _as_vec,
    _typed,
    abundance_scan,
    affine_dimension,
    is_affinely_independent,
    lifted_matrix,
    rank_exact,
    reduce_full_dim,
)
from .lp_engine import QUAD_POINT_BUDGET, EvalConfig, _check_freqs, paired_difference
from .moment_curve import gamma_point, smallest_admissible_k

MAGNITUDE = 0.25
# Leading terms below this are indistinguishable from accumulated roundoff
# in a paired grid evaluation, so construction does not evaluate them.
LEAD_FLOOR = 5e-15
# A certifying margin lies within this factor of the exact leading term.
LEAD_AGREEMENT = 10.0

SCHEMA_VERSION = 1
# JSON types of a certificate's single entries, as docs/certificate.schema.json
# states them (EvalConfig checks its own); a null margin was never evaluated
_NUMBER = (int, float)
_ENTRY_TYPES = {
    "schema_version": int,
    "theorem_tag": str,
    "p_tested": _NUMBER,
    "verified": bool,
    **dict.fromkeys(("lhs", "rhs", "margin", "error_estimate"), (*_NUMBER, type(None))),
    "grid_points_per_axis": (int, type(None)),
    "note": str,
    "reduction": (dict, type(None)),
}
# JSON entries that the frequencies determine; loading checks them against the derivation
_DERIVED = ("dim", "cvector", "p_interval")


def assign_signs(cv: CVector, magnitude: float) -> tuple[float, ...]:
    """Coefficients of size `magnitude` with one sign flipped.

    The flip sits at the first index where the certificate vector is odd,
    so the monomial a^(|c|) picks up a minus sign and the violation's
    leading term is strictly positive.  An odd entry always exists because
    the certificate vector is primitive.
    """
    if not 0.0 < magnitude < 1.0:
        raise DomainError("magnitude must lie in (0, 1)")
    flip = next(i for i, x in enumerate(cv.c) if x % 2 != 0)
    return tuple(-magnitude if i == flip else magnitude for i in range(len(cv.c)))


@dataclass(frozen=True)
class Certificate:
    """Fully explicit counterexample plus the numbers that certify it.

    `frequencies` starts with the origin, whose coefficient is fixed at 1;
    the remaining coefficients are the signed small ones.  `lhs` is the
    majorant (absolute-value) side, `rhs` the signed side, and `margin` is
    rhs - lhs in the p-th power scale (means of |sum|^p, not norms), so a
    positive margin exhibits the violation.  `verified` is False when the
    margin was not evaluated or does not certify; `note` then says why.

    `dim`, `cvector` and `p_interval` are not stored: the primitive relation
    c of `frequencies[1:]` fixes all three.  Each raises MajorantError when
    the frequencies determine no such c, and `p_interval` also when c has none.
    """

    theorem_tag: str
    frequencies: tuple[Vec, ...]
    coefficients: tuple[float, ...]
    p_tested: float
    verified: bool
    lhs: float | None
    rhs: float | None
    margin: float | None
    error_estimate: float | None
    grid_points_per_axis: int | None
    eval_config: EvalConfig
    note: str = ""
    reduction: dict[str, Any] | None = None

    @cached_property
    def cvector(self) -> CVector:
        """The primitive relation of the frequencies after the origin (all distinct, one dim)."""
        _check_freqs(self.frequencies)
        return build_c(build_v(self.frequencies[1:]))

    @property
    def dim(self) -> int:
        return len(self.cvector.c) - 1

    @property
    def p_interval(self) -> OpenInterval:
        """The even-to-even gap around p_tested on the moment curve, else (2m+ - 4, 2m+ - 2)."""
        cv = self.cvector
        if self.theorem_tag != "moment_curve":
            return p_interval(cv)
        half = Fraction(self.p_tested) // 2
        return OpenInterval(2 * half, 2 * half + 2)

    def to_json(self) -> dict[str, Any]:
        out = {"schema_version": SCHEMA_VERSION, "theorem_tag": self.theorem_tag, "dim": self.dim}
        out["frequencies"] = [list(f) for f in self.frequencies]
        out["coefficients"] = list(self.coefficients)
        out["cvector"] = self.cvector.to_json()
        out["p_interval"] = list(self.p_interval)
        out.update((f.name, getattr(self, f.name)) for f in fields(self) if f.name not in out)
        return {**out, "eval_config": asdict(self.eval_config)}

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "Certificate":
        """Read a certificate, rejecting (never coercing) what its schema rejects.

        As in docs/certificate.schema.json, unknown keys, an incomplete
        eval_config, a schema version other than SCHEMA_VERSION, an unknown
        theorem tag and entries of the wrong JSON type raise DomainError.
        So do a stored dim, cvector or p_interval other than the one the
        frequencies determine (compared as JSON, so 2.0 is not 2 and true is
        not 1), and a p_tested outside that interval.
        """
        try:
            data = {"note": "", "reduction": None, **data}
            for key, kinds in _ENTRY_TYPES.items():
                if not _typed(data[key], kinds):
                    raise DomainError(f"entry {key!r} has the wrong type: {data[key]!r}")
            for x in data["coefficients"]:
                if not (_typed(x, _NUMBER) and isfinite(x)):
                    raise DomainError(f"expected a finite number, got {x!r}")
            if set(data) - {"schema_version", *_DERIVED, *(f.name for f in fields(cls))}:
                raise DomainError(f"unknown certificate keys in {sorted(data)}")
            if set(data["eval_config"]) != {f.name for f in fields(EvalConfig)}:
                raise DomainError(f"bad eval_config keys {sorted(data['eval_config'])}")
            if data["schema_version"] != SCHEMA_VERSION:
                raise DomainError(f"unsupported schema version {data['schema_version']}")
            if data["theorem_tag"] not in ("independent", "abundant", "moment_curve"):
                raise DomainError(f"unknown theorem tag {data['theorem_tag']!r}")
            red = data["reduction"]
            if red is not None and set(red) != {"origin", "basis_columns"}:
                raise DomainError(f"reduction needs origin and basis_columns, got {sorted(red)}")
            for vec in [] if red is None else [red["origin"], *red["basis_columns"]]:
                _as_vec(vec)
            if len(data["frequencies"]) != len(data["coefficients"]):
                raise DomainError("coefficient count differs from frequency count")
            given = {f.name: data[f.name] for f in fields(cls)}
            given.update(
                frequencies=tuple(_as_vec(f) for f in data["frequencies"]),
                coefficients=tuple(float(x) for x in data["coefficients"]),
                p_tested=float(data["p_tested"]),
                eval_config=EvalConfig(**data["eval_config"]),
            )
            cert = cls(**given)
            derived = cert.dim, cert.cvector.to_json(), list(cert.p_interval)
            for key, value in zip(_DERIVED, derived):
                if json.dumps(data[key], sort_keys=True) != json.dumps(value, sort_keys=True):
                    raise DomainError(f"{key} {data[key]!r} is not the frequencies' {value!r}")
            if not (cert.p_tested > 0 and cert.p_interval.contains(cert.p_tested)):
                raise DomainError(f"p_tested {cert.p_tested:g} is not inside {derived[2]}")
            return cert
        except (LookupError, ArithmeticError, AttributeError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed certificate: {exc!r}") from exc


def _overflow_note(coefficients: Sequence[float], p: Real) -> str:
    """Why a grid mean of |sum|^p <= max(1, sum |a_i|)^p could overflow, or ""."""
    size = max(1.0, sum(map(abs, coefficients)))
    if float(p) * log2(size) + log2(QUAD_POINT_BUDGET) < float_info.max_exp:
        return ""
    return f"exponent {float(p):g} is beyond floating-point evaluation range"


def _certify(
    theorem_tag: str,
    freqs: Sequence[Vec],
    cv: CVector,
    p: Real,
    cfg: EvalConfig,
    reduction: dict[str, Any] | None = None,
    note_prefix: str = "",
) -> Certificate:
    """Certificate at MAGNITUDE, verified exactly when `verify_certificate` says True.

    No evaluation happens when |sum|^p could overflow or the leading term is
    below LEAD_FLOOR; otherwise the candidate is verified with `cfg`, the
    settings it records, and takes its measured fields from the result.
    """
    coeffs = assign_signs(cv, MAGNITUDE)
    log2_lead = log2_leading_term(p, cv, coeffs)
    cert = Certificate(
        theorem_tag=theorem_tag,
        frequencies=((0,) * len(freqs[0]), *freqs),
        coefficients=(1.0, *coeffs),
        p_tested=float(p),
        verified=False,
        lhs=None,
        rhs=None,
        margin=None,
        error_estimate=None,
        grid_points_per_axis=None,
        eval_config=cfg,
        reduction=reduction,
    )
    note = _overflow_note(cert.coefficients, p)
    if not note and log2_lead < log2(LEAD_FLOOR):
        note = f"leading term 2^{log2_lead:.1f} is below numerical resolution"
    elif not note:
        res = verify_certificate(cert, cfg)
        measured = {k: v for k, v in res._asdict().items() if k != "verdict"}  # Certificate names
        cert = replace(cert, verified=res.verdict is True, **measured)
        note = f"margin {res.margin:.3g} does not certify against error "
        note += f"{res.error_estimate:.3g} and leading term 2^{log2_lead:.1f}"
    note = "" if cert.verified else note
    return replace(cert, note="; ".join(x for x in (note_prefix, note) if x))


def _greedy_affine_basis(points: Sequence[Vec], d: int) -> list[Vec] | None:
    """First affinely independent (d+1)-subset of `points` in listed order."""
    chosen: list[Vec] = []
    for pt in points:
        trial = chosen + [pt]
        if rank_exact(lifted_matrix(trial)) == len(trial):
            chosen = trial
            if len(chosen) == d + 1:
                return chosen
    return None


def construct_independent(g: FrequencySet, cfg: EvalConfig | None = None) -> Certificate:
    """Counterexample for a finite, affinely dependent frequency set.

    Translates so one point sits at the origin, selects an affinely
    independent subset of full dimension among the rest, and certifies at
    the odd midpoint 2 m_plus - 3 of the violation interval.
    """
    cfg = cfg or EvalConfig()
    if g.generator is not None:
        raise HypothesisError(
            "set has a generator; use construct_abundant for infinite sets"
        )
    if is_affinely_independent(g):
        raise HypothesisError(
            "affinely independent set: the majorant property holds for every p"
        )
    reduction_rec: dict[str, Any] | None = None
    work = g
    if affine_dimension(g) < g.dim:
        red = reduce_full_dim(g)
        work = red.reduced
        assert red.basis is not None  # dependent sets have at least two points
        reduction_rec = {
            "origin": list(red.n_star),
            "basis_columns": [list(red.basis.column(j)) for j in range(red.basis.cols)],
        }
    pts = work.points
    d = work.dim
    for bullet in pts:
        rest = [q for q in pts if q != bullet]
        chosen = _greedy_affine_basis(rest, d)
        if chosen is not None:
            break
    else:
        raise HypothesisError("no point leaves behind a full-dimensional subset")
    translated = tuple(tuple(x - y for x, y in zip(q, bullet)) for q in chosen)
    cv = build_c(build_v(translated))
    return _certify("independent", translated, cv, 2 * cv.m_plus - 3, cfg, reduction_rec)


def construct_abundant(
    g: FrequencySet,
    how_many: int,
    cfg: EvalConfig | None = None,
    scan_budget: int = 64,
    stream_budget: int = 400,
) -> list[Certificate]:
    """Certificates with strictly increasing m_plus from an abundant set.

    The abundance scan supplies a d-tuple whose translated span meets the
    set in points of unboundedly many determinant values; each new point
    beyond the witness gives a fresh certificate vector, and those with a
    larger m_plus than everything before them are kept, so the violation
    intervals march off to infinity without overlapping.
    """
    cfg = cfg or EvalConfig()
    if how_many < 1:
        raise DomainError("how_many must be at least 1")
    scan = abundance_scan(g, scan_budget)
    if scan.status is Abundance.NO:
        raise HypothesisError("set is not affinely abundant; no escalating family exists")
    if scan.status is Abundance.INCONCLUSIVE:
        raise BudgetError(
            "abundance scan inconclusive within budget; raise scan_budget"
        )
    assert scan.witness is not None and scan.dtuple is not None
    bullet = next(q for q in scan.witness if q not in scan.dtuple)
    anchor = tuple(tuple(x - y for x, y in zip(q, bullet)) for q in scan.dtuple)
    skip = set(scan.dtuple) | {bullet}
    certs: list[Certificate] = []
    last_m = 1
    for n0 in g.stream(stream_budget):
        if n0 in skip:
            continue
        t0 = tuple(x - y for x, y in zip(n0, bullet))
        freqs = (t0, *anchor)
        v = build_v(freqs)
        if sum(v) == 0 or all(x == 0 for x in v):
            continue
        cv = build_c(v)
        if cv.m_plus <= last_m or cv.m_plus == cv.m_minus or cv.m_plus < 2:
            continue
        certs.append(_certify("abundant", freqs, cv, 2 * cv.m_plus - 3, cfg))
        last_m = cv.m_plus
        if len(certs) == how_many:
            return certs
    if not certs:
        raise BudgetError("stream budget exhausted before any certificate was found")
    return certs


def construct_moment(d: int, p: Real, cfg: EvalConfig | None = None) -> Certificate:
    """Counterexample at a prescribed non-even exponent on the moment curve.

    Chooses the smallest curve offset k whose certificate vector has all
    entries above p/2 in absolute value; the violation interval is then the
    whole even-to-even gap around p.
    """
    cfg = cfg or EvalConfig()
    if not isfinite(p) or p <= 0:
        raise DomainError("exponent must be positive and finite")
    if is_even_exponent(p):
        raise DomainError("even integer exponents admit no strict violation")
    k, cv = smallest_admissible_k(d, p)
    if not sign_condition(p, cv):
        raise HypothesisError("sign condition failed for the selected curve offset")
    freqs = tuple(gamma_point(d, k + i) for i in range(d + 1))
    return _certify("moment_curve", freqs, cv, p, cfg, note_prefix=f"curve offset k={k}")


class VerifyResult(NamedTuple):
    """Outcome of re-deriving a certificate's margin from scratch.

    verdict is True when the margin certifies (finite, above the safety
    multiple of the error estimate, within a factor LEAD_AGREEMENT of the
    leading term), else False when the margin is finite and the error
    estimate is within the tolerance, else the string "inconclusive": the
    margin did not certify and the error stayed above the tolerance.
    """

    verdict: bool | str
    margin: float
    error_estimate: float
    grid_points_per_axis: int
    lhs: float
    rhs: float

    def to_json(self) -> dict[str, Any]:
        return self._asdict()


def verify_certificate(cert: Certificate, cfg: EvalConfig | None = None) -> VerifyResult:
    """Recompute both sides on a paired grid and judge the margin; see VerifyResult.

    This is the one evaluation and the one rule behind every certificate:
    construction calls it too, so a constructed certificate's `verified`
    is True exactly when this returns True with the same settings.

    Trusts nothing but the frequencies, coefficients, and exponent: the
    leading term takes c from `cert.cvector`, which the frequencies fix, and
    is -inf, so nothing verifies, unless the origin with coefficient 1 comes
    first and the rest determine c.  A certificate with its signs stripped,
    or with frequencies that alias on the grid, therefore does not verify.
    The grid, tolerance and safety factor are `cfg` (defaults when omitted),
    never the certificate's.  Raises BudgetError, before any evaluation,
    when |sum|^p could overflow.
    """
    cfg = cfg or EvalConfig()
    if note := _overflow_note(cert.coefficients, cert.p_tested):
        raise BudgetError(note)
    res = paired_difference(cert.frequencies, cert.coefficients, cert.p_tested, cfg)
    log2_lead = -inf
    if not any(cert.frequencies[0]) and cert.coefficients[0] == 1.0:
        with suppress(MajorantError):  # the frequencies determine no c
            log2_lead = log2_leading_term(cert.p_tested, cert.cvector, cert.coefficients[1:])
    margin, err = res.difference, res.error_estimate
    verdict: bool | str = "inconclusive"
    above_error = isfinite(margin) and margin > cfg.margin_safety_factor * err
    if above_error and abs(log2(margin) - log2_lead) <= log2(LEAD_AGREEMENT):
        verdict = True
    elif isfinite(margin) and err <= cfg.backend_agreement_tol:
        verdict = False
    return VerifyResult(verdict, margin, err, res.grid_points_per_axis, res.lhs, res.rhs)


def emit_plot_data(
    cert: Certificate, p_samples: int = 9, cfg: EvalConfig | None = None
) -> list[dict[str, float]]:
    """Evaluate both sides at evenly spaced interior points of the interval.

    A request for zero samples returns an empty table.  As in verification,
    the settings are `cfg` or the defaults, and BudgetError comes before any
    evaluation when |sum|^p could overflow at the interval's upper end.
    """
    if p_samples < 0:
        raise DomainError("p_samples must be nonnegative")
    cfg = cfg or EvalConfig()
    lo, hi = cert.p_interval
    if note := _overflow_note(cert.coefficients, hi):
        raise BudgetError(note)
    span = hi - lo
    rows = []
    for i in range(p_samples):
        p = lo + span * (i + 1) / (p_samples + 1)
        res = paired_difference(cert.frequencies, cert.coefficients, p, cfg)
        rows.append(
            {"p": p, "lhs": res.lhs, "rhs": res.rhs, "difference": res.difference}
        )
    return rows


def classify(
    g: FrequencySet,
    scan_budget: int = 64,
    cfg: EvalConfig | None = None,
    with_certificate: bool = True,
) -> dict[str, Any]:
    """Full structural report: dimension, independence, abundance, verdict.

    The majorant property holds at every p exactly when the set is affinely
    independent; otherwise a certificate is attached when one can be built.
    """
    cfg = cfg or EvalConfig()
    sample = FrequencySet(g.dim, tuple(g.stream(max(g.dim + 2, len(g.points), 8))))
    adim = affine_dimension(sample)
    infinite = g.is_structurally_infinite()
    independent = not infinite and is_affinely_independent(sample)
    scan = abundance_scan(g, scan_budget)
    report: dict[str, Any] = {
        "dim": g.dim,
        "affine_dimension": adim,
        "affinely_independent": independent,
        "abundance": scan.status.value,
        "note": "",
        "certificate": None,
    }
    if independent:
        report["smp_status"] = "holds_all_p"
        return report
    # Any dependent set admits a violation; the supported generators
    # enumerate distinct points, so an infinite set is always dependent.
    report["smp_status"] = "violated_with_certificate"
    if not with_certificate:
        return report
    try:
        if scan.status is Abundance.YES:
            cert = construct_abundant(g, 1, cfg, scan_budget=scan_budget)[0]
        elif infinite:
            cert = construct_independent(sample, cfg)
        else:
            cert = construct_independent(g, cfg)
        report["certificate"] = cert.to_json()
    except MajorantError as exc:
        report["note"] = f"certificate construction failed: {exc}"
    return report
