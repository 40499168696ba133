"""Counterexample construction and certification.

Each constructor picks a frequency tuple, whose primitive relation c fixes
the certificate vector and the open exponent interval (a `Certificate`
derives both from its frequencies), chooses signed coefficients of one
magnitude whose majorant comparison fails on that interval, and certifies
the failure by one quadrature evaluation in `verify_certificate`.

A `Certificate` derives c at most once per object.  A constructor hands
the relation it chose the tuple by to every certificate it makes, so c is
derived once per construction and once per `Certificate.from_json`, which
compares the stored dim, cvector and p_interval with the derived ones by
JSON type (2.0 is not 2, true is not 1, a list equals a tuple).  A
`dataclasses.replace` copy derives c again from its own frequencies.

`verify_certificate` is the only code that evaluates and judges a margin.
It certifies when the exact leading coupled term, which depends only on the
certificate vector, the magnitude and p, is at least LEAD_FLOOR, and the
margin is finite, exceeds the safety multiple of the error estimate and lies
within a factor 10 of that term.  Roundoff and aliased grid modes give
margins unrelated to a term above the floor, so they cannot pass.  A
constructed certificate is `verified` exactly when `verify_certificate` with
the same settings returns True; construction skips the evaluation when the
term is below the floor, where that cannot happen.

Construction takes two steps: choosing a certificate, unmeasured, which
evaluates nothing, and certifying it, whose gate reads the leading term at
p_tested as verification does.  The command line plots a chosen certificate
between the two, so its certification reuses the plot's ladder.

Within one process the last evaluation is kept for one certificate: its
checked frequencies, coefficients and settings, and the result, with its
error estimate, at each exponent of the last call that evaluated.
`verify_certificate` and `emit_plot_data` evaluate only the exponents it
lacks, in one ladder, so verifying the certificate just constructed or
plotted, or its JSON round trip, passes over no grid again; the judgment
always reruns.  A new interpreter always evaluates.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, fields, replace
from functools import cached_property
from math import inf, isfinite, log2
from typing import Any, NamedTuple, Sequence

from .cvector import (
    CVector,
    OpenInterval,
    Real,
    _exponent,
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
    AbundanceScan,
    FrequencySet,
    Vec,
    _affine_basis,
    _hull,
    _integer,
    _sample,
    _typed,
    _vectors,
    abundance_scan,
    reduce_full_dim,
)
from .lp_engine import (
    EvalConfig,
    PairedDifference,
    _check_freqs,
    _check_slice_sums,
    _check_real_coeffs,
    _paired_differences,
    _pass_inputs,
    paired_difference,
)
from .moment_curve import gamma_point, smallest_admissible_k

MAGNITUDE = 0.25
# Leading terms below this are indistinguishable from accumulated roundoff
# in a paired grid evaluation, so no margin certifies against them.
LEAD_FLOOR = 5e-15
# A certifying margin lies within this factor of the exact leading term.
LEAD_AGREEMENT = 10.0
# An abundance scan says yes once a d-tuple meets more lifted determinants than this.
SCAN_BUDGET = 64
# Points of an abundant set read before its escalating family gives up.
STREAM_BUDGET = 400
# Interior exponents at which plot data is sampled.
PLOT_SAMPLES = 9

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
    if not (_typed(magnitude, Real) and 0 < magnitude < 1):
        raise DomainError(f"magnitude must be a number in (0, 1), got {magnitude!r}")
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
    the frequencies determine no such c, and `p_interval` also when c has none
    (on the moment curve: when the sign condition fails at p_tested).
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
        """The primitive relation of the frequencies after the origin (all distinct, one dim).

        It is derived once per object; `dataclasses.replace` makes a new
        object, which derives it again from its own frequencies.
        """
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
        if not sign_condition(self.p_tested, cv):  # floor(p/2) fixes it, so it holds on the gap
            raise HypothesisError(f"the sign condition fails at p_tested {self.p_tested:g}")
        half = int(self.p_tested // 2)
        return OpenInterval(2 * half, 2 * half + 2)

    def to_json(self) -> dict[str, Any]:
        out = {"schema_version": SCHEMA_VERSION, "theorem_tag": self.theorem_tag, "dim": self.dim}
        out["frequencies"] = [list(f) for f in self.frequencies]
        out["coefficients"] = list(self.coefficients)
        out["cvector"] = self.cvector.to_json()
        out["p_interval"] = list(self.p_interval)
        out.update((f.name, getattr(self, f.name)) for f in fields(self) if f.name not in out)
        cfg = self.eval_config
        return {**out, "eval_config": {f.name: getattr(cfg, f.name) for f in fields(cfg)}}

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "Certificate":
        """Read a certificate, rejecting (never coercing) what its schema rejects.

        As in docs/certificate.schema.json, unknown keys, an incomplete
        eval_config, a schema version other than SCHEMA_VERSION, an unknown
        theorem tag and entries of the wrong JSON type raise DomainError.
        So do a stored dim, cvector or p_interval other than the one the
        frequencies determine (compared by JSON type, so 2.0 is not 2, true
        is not 1 and a list equals a tuple), a reduction whose basis column
        count is not that dim, and a p_tested outside that interval.  The
        relation c is derived once, and the certificate keeps it.
        """
        try:
            data = {"note": "", "reduction": None, **data}
            for key, kinds in _ENTRY_TYPES.items():
                if not _typed(data[key], kinds):
                    raise DomainError(f"entry {key!r} has the wrong type: {data[key]!r}")
            names = [f.name for f in fields(cls)]
            if set(data) - {"schema_version", *_DERIVED, *names}:
                raise DomainError(f"unknown certificate keys in {sorted(data)}")
            if set(data["eval_config"]) != {f.name for f in fields(EvalConfig)}:
                raise DomainError(f"bad eval_config keys {sorted(data['eval_config'])}")
            if data["schema_version"] != SCHEMA_VERSION:
                raise DomainError(f"unsupported schema version {data['schema_version']}")
            if data["theorem_tag"] not in ("independent", "abundant", "moment_curve"):
                raise DomainError(f"unknown theorem tag {data['theorem_tag']!r}")
            red = data["reduction"]
            if red is not None:
                if set(red) != {"origin", "basis_columns"}:
                    raise DomainError(f"reduction needs origin and basis_columns: {sorted(red)}")
                _vectors([red["origin"], *red["basis_columns"]], "reduction")
            freqs = _check_freqs(data["frequencies"])
            given = {name: data[name] for name in names}
            given.update(
                frequencies=freqs,
                coefficients=tuple(_check_real_coeffs(data["coefficients"], len(freqs), _NUMBER)),
                p_tested=float(data["p_tested"]),
                eval_config=EvalConfig(**data["eval_config"]),
            )
            cv = build_c(build_v(freqs[1:]))
            cert = _holding(cls(**given), cv)
            interval = cert.p_interval
            derived = cert.dim, cv.to_json(), list(interval)
            for key, value in zip(_DERIVED, derived):
                if not _same_json(data[key], value):
                    raise DomainError(f"{key} {data[key]!r} is not the frequencies' {value!r}")
            if red is not None and len(red["basis_columns"]) != cert.dim:
                raise DomainError(f"reduction needs {cert.dim} basis_columns: {red!r}")
            if not (cert.p_tested > 0 and interval.contains(cert.p_tested)):
                raise DomainError(f"p_tested {cert.p_tested:g} is not inside {derived[2]}")
            return cert
        except MajorantError as exc:  # the package's own message, not wrapped again
            raise DomainError(str(exc)) from exc
        except (LookupError, ArithmeticError, AttributeError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed certificate: {exc!r}") from exc


def _holding(cert: Certificate, cv: CVector) -> Certificate:
    """`cert` with `cv`, the relation already derived from its frequencies, as its `cvector`."""
    vars(cert)["cvector"] = cv  # where the cached_property keeps its value
    return cert


def _same_json(given: Any, derived: Any) -> bool:
    """Whether `given` is the JSON value `derived`, made of ints, lists and string-keyed
    dicts: a list or tuple matches a list, and only an int (never a bool or float) an int."""
    if isinstance(derived, dict):
        return (
            isinstance(given, dict)
            and given.keys() == derived.keys()
            and all(_same_json(given[k], v) for k, v in derived.items())
        )
    if isinstance(derived, list):
        return (
            isinstance(given, (list, tuple))
            and len(given) == len(derived)
            and all(map(_same_json, given, derived))
        )
    return _typed(given, int) and given == derived


def _choose(
    theorem_tag: str,
    freqs: Sequence[Vec],
    cv: CVector,
    p: Real,
    cfg: EvalConfig,
    reduction: dict[str, Any] | None = None,
    note_prefix: str = "",
) -> Certificate:
    """The unmeasured certificate at MAGNITUDE, tested at p as a float, for `_certify`.

    It records `cfg` and notes `note_prefix`.  `cv`, the relation of
    `freqs`, is the certificate's `cvector`: it is not derived again.
    BudgetError when p_tested lies outside the certificate's own interval (p
    beyond float precision), as `Certificate.from_json` would say.
    """
    coeffs = assign_signs(cv, MAGNITUDE)
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
        note=note_prefix,
        reduction=reduction,
    )
    interval = _holding(cert, cv).p_interval
    if not interval.contains(cert.p_tested):
        raise BudgetError(f"p_tested {cert.p_tested:g} is not inside {list(interval)}")
    return cert


def _certify(cert: Certificate) -> Certificate:
    """The chosen, unmeasured `cert`, verified exactly when `verify_certificate` says True.

    A leading term at p_tested (`_log2_lead`, as verification reads it)
    below LEAD_FLOOR cannot certify, so it is not evaluated; otherwise the
    certificate is verified with the settings it records and takes its
    measured fields from the result, unless the engine finds a mean of
    |sum|^p beyond floating-point range; its message is then the note,
    after the chosen one.
    """
    log2_lead = _log2_lead(cert)
    measured: dict[str, Any] = {}
    note = f"leading term 2^{log2_lead:.1f} is below numerical resolution"
    if log2_lead >= log2(LEAD_FLOOR):
        try:
            res = verify_certificate(cert, cert.eval_config)
        except BudgetError as exc:
            note = str(exc)
        else:
            measured = {k: v for k, v in res._asdict().items() if k != "verdict"}
            measured["verified"] = res.verdict is True
            note = f"margin {res.margin:.3g} does not certify against error "
            note += f"{res.error_estimate:.3g} and leading term 2^{log2_lead:.1f}"
    note = "" if measured.get("verified") else note
    note = "; ".join(x for x in (cert.note, note) if x)
    return _holding(replace(cert, note=note, **measured), cert.cvector)


def construct_independent(g: FrequencySet, cfg: EvalConfig | None = None) -> Certificate:
    """Counterexample for a finite, affinely dependent frequency set.

    Finite means not structurally infinite, so a zero-step progression tail
    counts as one more point.  The points of `_sample(g)`, the whole set, are
    taken in order; the first whose removal leaves a greedy affine basis
    (`_affine_basis`) of full dimension is translated to the origin, and the
    certificate is made at the odd midpoint 2 m_plus - 3 of the violation
    interval.
    """
    return _certify(_choose_independent(g, cfg or EvalConfig()))


def _choose_independent(g: FrequencySet, cfg: EvalConfig) -> Certificate:
    """`construct_independent`'s certificate, chosen."""
    if g.is_structurally_infinite():
        raise HypothesisError("set is structurally infinite; use construct_abundant")
    work = _sample(g)
    basis = _affine_basis(work.points)
    if len(basis) == len(work.points):
        raise HypothesisError("affinely independent set: the majorant property holds for every p")
    reduction_rec: dict[str, Any] | None = None
    if len(basis) <= g.dim:
        red = reduce_full_dim(work)
        work = red.reduced
        assert red.basis is not None  # dependent sets have at least two points
        reduction_rec = {
            "origin": list(red.n_star),
            "basis_columns": [list(red.basis.column(j)) for j in range(red.basis.cols)],
        }
    # removing a point outside `basis` keeps `basis`, so the loop always breaks
    for bullet in work.points:
        chosen = _affine_basis(q for q in work.points if q != bullet)
        if len(chosen) == work.dim + 1:
            break
    translated = tuple(tuple(x - y for x, y in zip(q, bullet)) for q in chosen)
    cv = build_c(build_v(translated))
    return _choose("independent", translated, cv, 2 * cv.m_plus - 3, cfg, reduction_rec)


def construct_abundant(
    g: FrequencySet,
    how_many: int,
    cfg: EvalConfig | None = None,
    scan_budget: int = SCAN_BUDGET,
    stream_budget: int = STREAM_BUDGET,
) -> list[Certificate]:
    """Certificates with strictly increasing m_plus from an abundant set.

    The abundance scan supplies a d-tuple whose translated span meets the
    set in points of unboundedly many determinant values; each new point
    beyond the witness gives a fresh certificate vector, and those with a
    larger m_plus than everything before them are kept, so the violation
    intervals march off to infinity without overlapping.
    """
    scan = abundance_scan(g, scan_budget)
    if scan.status is Abundance.NO:
        raise HypothesisError("set is not affinely abundant; no escalating family exists")
    if scan.status is Abundance.INCONCLUSIVE:
        raise BudgetError("abundance scan inconclusive within budget; raise scan_budget")
    chosen = _choose_certificates(g, scan, how_many, cfg or EvalConfig(), stream_budget)
    return [_certify(c) for c in chosen]


def construct_certificates(
    g: FrequencySet,
    how_many: int = 1,
    cfg: EvalConfig | None = None,
    scan_budget: int = SCAN_BUDGET,
    stream_budget: int = STREAM_BUDGET,
) -> list[Certificate]:
    """The certificates `classify` attaches to `g`, up to `how_many` of them.

    An abundant set gives up to `how_many` members of its escalating family,
    as `construct_abundant` does; any other set gives the one certificate of
    its finite sample (the whole set when it is finite), which raises
    HypothesisError when the sample is affinely independent.
    """
    scan = abundance_scan(g, scan_budget)
    chosen = _choose_certificates(g, scan, how_many, cfg or EvalConfig(), stream_budget)
    return [_certify(c) for c in chosen]


def _choose_certificates(
    g: FrequencySet, scan: AbundanceScan, how_many: int, cfg: EvalConfig, stream_budget: int
) -> list[Certificate]:
    """The unmeasured certificates `scan`, the abundance scan of `g`, chooses: up to
    `how_many` of an abundant set's escalating family, else the one of `_sample(g)`."""
    _integer(how_many, "how_many", 1)
    _integer(stream_budget, "stream budget", 1)
    if scan.status is not Abundance.YES:
        return [_choose_independent(_sample(g), cfg)]
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
        if sum(v) == 0:
            continue
        cv = build_c(v)
        if cv.m_plus <= last_m:  # sum(v) != 0 and last_m >= 1: c unbalanced, m_plus >= 2
            continue
        certs.append(_choose("abundant", freqs, cv, 2 * cv.m_plus - 3, cfg))
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
    return _certify(_choose_moment(d, p, cfg or EvalConfig()))


def _choose_moment(d: int, p: Real, cfg: EvalConfig) -> Certificate:
    """`construct_moment`'s certificate, chosen; p is even when its float, p_tested, is."""
    if is_even_exponent(float(_exponent(p))):
        raise DomainError("even integer exponents admit no strict violation")
    k, cv = smallest_admissible_k(d, p)
    freqs = tuple(gamma_point(d, k + i) for i in range(d + 1))
    return _choose("moment_curve", freqs, cv, p, cfg, note_prefix=f"curve offset k={k}")


class VerifyResult(NamedTuple):
    """Outcome of re-deriving a certificate's margin from scratch.

    verdict is True when the margin certifies (the leading term at least
    LEAD_FLOOR, the margin finite, above the safety multiple of the error
    estimate and within a factor LEAD_AGREEMENT of that term), else False
    when the margin is finite and the error estimate is within the
    tolerance, else the string "inconclusive": the margin did not certify
    and the error stayed above the tolerance.
    """

    verdict: bool | str
    margin: float
    error_estimate: float
    grid_points_per_axis: int
    lhs: float
    rhs: float

    def to_json(self) -> dict[str, Any]:
        return self._asdict()


# The last evaluation: one certificate's checked (frequencies, coefficients,
# settings) and its result at each exponent of the last call that evaluated.
# It is replaced whole, so a thread reads one consistent pair.
_last: tuple[Any, dict[float, PairedDifference]] = (None, {})


def _evaluations(
    freqs: tuple[Vec, ...],
    coeffs: tuple[float, ...],
    ps: Sequence[float],
    cfg: EvalConfig,
) -> list[PairedDifference]:
    """The paired evaluation of the checked inputs at each exponent of `ps`.

    The last evaluation's results are reused where every input matches, and
    the exponents it lacks are evaluated in one ladder: a lone one through
    `paired_difference`, more through `_paired_differences`.  Every result
    carries its error estimate.  An evaluation that raises changes nothing;
    one that succeeds becomes the last evaluation, with the results at `ps`.
    """
    global _last
    key = freqs, coeffs, cfg
    last_key, known = _last
    if last_key != key:
        known = {}
    missing = [p for p in dict.fromkeys(ps) if p not in known]
    if missing:
        if len(missing) == 1:
            found = [paired_difference(freqs, coeffs, missing[0], cfg)]
        else:
            found = _paired_differences(freqs, coeffs, missing, cfg)
        known = {**known, **dict(zip(missing, found))}
        _last = key, {p: known[p] for p in ps}
    return [known[p] for p in ps]


def verify_certificate(cert: Certificate, cfg: EvalConfig | None = None) -> VerifyResult:
    """Recompute both sides on a paired grid and judge the margin; see VerifyResult.

    This is the one evaluation and the one rule behind every certificate:
    construction calls it too, so a constructed certificate's `verified`
    is True exactly when this returns True with the same settings.

    Trusts nothing but the frequencies, coefficients, and exponent: the
    leading term at p_tested (`_log2_lead`, which construction's gate reads
    too) takes c from `cert.cvector`, which the frequencies fix, and is -inf,
    so nothing verifies, unless the origin with coefficient 1 comes first and
    the rest determine c.  A certificate with its signs stripped, or with
    frequencies that alias on the grid, therefore does not verify.
    The grid, tolerance and safety factor are `cfg` (defaults when omitted),
    never the certificate's.  Raises BudgetError when a mean of |sum|^p is
    beyond floating-point range.

    Within one process the last evaluation (see `_evaluations`) is reused
    when its inputs, the checked frequencies, the coefficients as floats and
    `cfg`, all equal this call's and it holds p as a float: that of the
    last verification, or any sample or p_tested of the last plot of this
    certificate.  Otherwise p is evaluated alone, by `paired_difference`, and
    becomes the last evaluation.  The judgment below always reruns, and an
    evaluation that raised was never kept.  A new interpreter always
    evaluates.
    """
    cfg = cfg or EvalConfig()
    freqs, coeffs, [p] = _pass_inputs(cert.frequencies, cert.coefficients, [cert.p_tested])
    [res] = _evaluations(freqs, coeffs, [p], cfg)
    log2_lead = _log2_lead(cert)
    margin, err = res.difference, res.error_estimate
    verdict: bool | str = "inconclusive"
    above_error = isfinite(margin) and margin > cfg.margin_safety_factor * err
    resolved = log2_lead >= log2(LEAD_FLOOR)
    if resolved and above_error and abs(log2(margin) - log2_lead) <= log2(LEAD_AGREEMENT):
        verdict = True
    elif isfinite(margin) and err <= cfg.backend_agreement_tol:
        verdict = False
    return VerifyResult(verdict, margin, err, res.grid_points_per_axis, res.lhs, res.rhs)


def _log2_lead(cert: Certificate) -> float:
    """log2 of `cert`'s leading term at p_tested; -inf unless the origin, with
    coefficient 1, comes first and the rest determine c."""
    log2_lead = -inf
    if not any(cert.frequencies[0]) and cert.coefficients[0] == 1.0:
        with suppress(MajorantError):  # the frequencies determine no c
            log2_lead = log2_leading_term(cert.p_tested, cert.cvector, cert.coefficients[1:])
    return log2_lead


def emit_plot_data(
    cert: Certificate, p_samples: int = PLOT_SAMPLES, cfg: EvalConfig | None = None
) -> list[dict[str, float]]:
    """Evaluate both sides at evenly spaced interior points of the interval.

    A request for zero samples returns an empty table.  As in verification,
    the settings are `cfg` or the defaults, and BudgetError is raised when a
    mean of |sum|^p at a sample is beyond floating-point range.  BudgetError
    also refuses, before any sample is formed, a request whose passes would
    keep more slice sums (samples and p_tested, times two rows, times the
    finest grid's first-axis slices) than the quadrature's point budget.

    The samples and the certificate's own p_tested (inside the interval)
    share one ladder, less what the last evaluation already holds (see
    `_evaluations`), and each carries its error estimate, so a verification
    of `cert` with `cfg` at p_tested or at any sample right after the plot
    passes over no grid.  Should p_tested alone be beyond floating-point
    range, the samples are evaluated without it.
    """
    _integer(p_samples, "p_samples", 0)
    cfg = cfg or EvalConfig()
    lo, hi = cert.p_interval
    if not p_samples:
        return []
    freqs, coeffs, _ = _pass_inputs(cert.frequencies, cert.coefficients, ())
    _check_slice_sums(len(freqs[0]), p_samples + 1, 2, cfg)
    span = hi - lo
    ps = [lo + span * (i + 1) / (p_samples + 1) for i in range(p_samples)]
    tested = cert.p_tested
    extra = [float(tested)] if _typed(tested, Real) and lo < tested < hi else []
    try:
        results = _evaluations(freqs, coeffs, ps + extra, cfg)
    except BudgetError:
        if not extra or extra[0] in ps:
            raise
        results = _evaluations(freqs, coeffs, ps, cfg)
    return [
        {"p": p, "lhs": res.lhs, "rhs": res.rhs, "difference": res.difference}
        for p, res in zip(ps, results)
    ]


def classify(
    g: FrequencySet,
    scan_budget: int = SCAN_BUDGET,
    cfg: EvalConfig | None = None,
    with_certificate: bool = True,
) -> dict[str, Any]:
    """Full structural report: dimension, independence, abundance, verdict.

    Dimension and independence come from the greedy affine basis of a
    sample (`_hull`), which spans the affine hull of the whole set.  The
    majorant property holds at every p exactly when the set is finite (not
    structurally infinite) and affinely independent.  Otherwise a
    certificate is attached when one can be built, as
    `construct_certificates` builds it.
    """
    cfg = cfg or EvalConfig()
    scan = abundance_scan(g, scan_budget)
    hull = scan.witness or _hull(g)  # a witness is the hull
    independent = not g.is_structurally_infinite() and len(hull) == len(_sample(g).points)
    report: dict[str, Any] = {
        "dim": g.dim,
        "affine_dimension": len(hull) - 1,
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
        cert = _certify(_choose_certificates(g, scan, 1, cfg, STREAM_BUDGET)[0])
        report["certificate"] = cert.to_json()
    except MajorantError as exc:
        report["note"] = f"certificate construction failed: {exc}"
    return report
