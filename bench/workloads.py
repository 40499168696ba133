"""Seeded requests, their executors and their checks, for the three workloads.

A workload repeats a *round*: a fixed list of request slots that is filled
with fresh instances drawn from `random.Random(f"{workload}:{seed}:{round}")`.
The same seed always gives the same requests, and the share of cheap and
expensive requests is the same in every round, run and seed.  The slot lists
are chosen so that the median and the 90th percentile of the whole mix fall
inside a block of similar requests rather than on the edge between two, so
the percentiles do not jump from one seed to the next.

The package is driven only through public entry points, looked up on the
module at call time so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import csv
import io
import json
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import majorant as mj
import majorant.cli

import oracle

PLOT_SAMPLES = 9  # the CLI default for --plot
SCAN_BUDGET = 256
SERIES_CUTOFF = 12
PINNED_FAMILY = {"dim": 2, "generator": {"kind": "moment_curve", "params": {"t_start": 1}}}
PINNED_COUNT = 6


@dataclass(frozen=True)
class Op:
    kind: str
    args: dict[str, Any]


@dataclass
class Outcome:
    ms: float
    parts: dict[str, float] = field(default_factory=dict)
    out: Any = None
    refused: str | None = None  # honest DomainError/BudgetError refusal
    error: str | None = None  # unexpected exception


@dataclass
class Verdict:
    """What the checks made of one outcome."""

    wrong: list[str] = field(default_factory=list)
    unsound_construct: int = 0
    unsound_verify: int = 0
    verify_disagree: int = 0
    certs_requested: int = 0
    certs_emitted: int = 0
    certs_sound: int = 0
    fingerprint: Any = None

    @property
    def failed(self) -> bool:
        return bool(self.wrong or self.unsound_construct or self.unsound_verify)


# ---------------- generators ----------------


def _box_points(rng: random.Random, dim: int, count: int, lo: int, hi: int) -> list[tuple[int, ...]]:
    pts: set[tuple[int, ...]] = set()
    while len(pts) < count:
        pts.add(tuple(rng.randint(lo, hi) for _ in range(dim)))
    out = sorted(pts)
    rng.shuffle(out)
    return out


CERTIFY_BOX = {1: 5, 2: 3, 3: 2, 4: 2}
CERTIFY_SLOTS = (1, 1, 1, 2, 2, 2, 2, 3, 3, 4, 4, 4)


def dependent_set(rng: random.Random, r: int, embed: bool) -> dict[str, Any]:
    """Affinely dependent set of affine dimension r, optionally embedded in Z^5 or Z^6."""
    while True:
        pts = _box_points(rng, r, r + 2 + rng.randint(0, 1), 0, CERTIFY_BOX[r])
        if oracle.affine_dim(pts) == r:
            break
    if not embed:
        return {"dim": r, "points": [list(p) for p in pts], "affine_dim": r}
    ambient = rng.choice((5, 6))
    while True:
        cols = [[rng.randint(-2, 2) for _ in range(ambient)] for _ in range(r)]
        if oracle.rank(cols) == r:
            break
    origin = [rng.randint(-3, 3) for _ in range(ambient)]
    lifted = [
        [o + sum(x * col[i] for x, col in zip(p, cols)) for i, o in enumerate(origin)]
        for p in pts
    ]
    return {"dim": ambient, "points": lifted, "affine_dim": r}


def certify_round(rng: random.Random, index: int) -> list[Op]:
    # three of the twelve sets (one per dimension, rotating) are embedded
    skip = 1 + index % 4
    first = {r: CERTIFY_SLOTS.index(r) for r in (1, 2, 3, 4)}
    return [
        Op("certify", dependent_set(rng, r, embed=i == first[r] and r != skip))
        for i, r in enumerate(CERTIFY_SLOTS)
    ]


def progression(rng: random.Random, d: int, full: bool) -> dict[str, Any]:
    """Generated set: seeded prefix plus an arithmetic progression tail.

    With full=False every point has last coordinate 0, so the set spans less
    than Z^d and is not abundant.
    """
    while True:
        prefix = _box_points(rng, d, rng.randint(max(1, d - 1), d + 1), -3, 3)
        start = [rng.randint(-3, 3) for _ in range(d)]
        step = [rng.randint(-2, 2) for _ in range(d)]
        if not full:
            prefix = sorted({p[:-1] + (0,) for p in prefix})
            start[-1] = step[-1] = 0
        if not any(step):
            continue
        span = prefix + [tuple(start), tuple(s + t for s, t in zip(start, step))]
        if (oracle.affine_dim(span) == d) == full:
            return {
                "dim": d,
                "points": [list(p) for p in prefix],
                "generator": {"kind": "arith_progression", "params": {"start": start, "step": step}},
            }


def moment_family(rng: random.Random, d: int, lo: int, hi: int) -> dict[str, Any]:
    t_start = rng.randint(lo, hi)
    return {"dim": d, "points": [], "generator": {"kind": "moment_curve", "params": {"t_start": t_start}}}


# (d, even gap) of the nineteen `moment` requests in a round; p is drawn
# inside the gap (2 gap, 2 gap + 2) as a multiple of 1/8 at least 3/8 from
# either end, so it is never even and never in the sliver next to an even
# integer where construction gives up at once.  Thirteen d=2 requests with p < 6 run 2-D quadrature and hold the
# median; the six others are refused early or cost little.
MOMENT_SLOTS = ((2, 0),) * 5 + ((2, 1),) * 4 + ((2, 2),) * 4 + ((1, 0), (1, 2), (2, 3), (3, 0), (3, 2), (4, 1))


def family_round(rng: random.Random, index: int) -> list[Op]:
    """Nineteen `moment` requests and six families.

    The pinned family runs twice: the two copies sit just below the two 3-D
    families and hold the p90, which a seeded family, whose cost depends on
    its instance, could not do steadily.
    """
    ops = [
        Op("moment", {"d": d, "p": (16 * gap + rng.randint(3, 13)) / 8}) for d, gap in MOMENT_SLOTS
    ]
    ops += [Op("family", {"set": PINNED_FAMILY, "count": PINNED_COUNT}) for _ in range(2)]
    ops.append(Op("family", {"set": moment_family(rng, 2, 2, 60), "count": 4}))
    ops.append(Op("family", {"set": progression(rng, 2, full=True), "count": 3}))
    ops.append(Op("family", {"set": moment_family(rng, 3, 2, 30), "count": 1}))
    ops.append(Op("family", {"set": progression(rng, 3, full=True), "count": 1}))
    rng.shuffle(ops)
    return ops


REDUCE_SLOTS = ((6, 3, 20), (8, 4, 30), (10, 5, 40), (9, 3, 30))  # (ambient, rank, points)
TAYLOR_SLOTS = (1, 2, 3, 1, 2, 3)
EVEN_SLOTS = ((2, 8), (3, 7), (4, 6), (5, 4))  # (s, points): m^s index tuples stay below 1300


def lattice_set(rng: random.Random, ambient: int, r: int, m: int) -> list[list[int]]:
    while True:
        cols = [[rng.randint(-3, 3) for _ in range(ambient)] for _ in range(r)]
        if oracle.rank(cols) == r:
            break
    origin = [rng.randint(-5, 5) for _ in range(ambient)]
    coords = _box_points(rng, r, m, -4, 4)
    return [
        [o + sum(y * col[i] for y, col in zip(c, cols)) for i, o in enumerate(origin)]
        for c in coords
    ]


def taylor_args(rng: random.Random, d: int) -> dict[str, Any]:
    while True:
        freqs = _box_points(rng, d, d + 1, -3, 3)
        if all(any(f) for f in freqs) and oracle.affine_dim(freqs) == d:
            break
    b = [str(Fraction(rng.choice((1, -1)), 2 ** rng.randint(4, 5))) for _ in freqs]
    num = rng.choice([k for k in range(1, 32) if k % 8])  # p = num/4, never an even integer
    return {"freqs": [list(f) for f in freqs], "b": b, "p": str(Fraction(num, 4))}


def even_args(rng: random.Random, s: int, m: int) -> dict[str, Any]:
    freqs = _box_points(rng, rng.randint(1, 3), m, -4, 4)
    coeffs = [str(Fraction(rng.choice((1, -1)) * rng.randint(1, 4), 2 ** rng.randint(0, 2))) for _ in freqs]
    return {"freqs": [list(f) for f in freqs], "coeffs": coeffs, "s": s}


def exact_round(rng: random.Random, index: int) -> list[Op]:
    ops = [Op("classify", moment_family(rng, d, 1, 50)) for d in range(2, 7)]
    ops += [Op("classify", progression(rng, d, full=True)) for d in range(2, 7)]
    ops.append(Op("classify", progression(rng, rng.randint(3, 6), full=False)))
    ops += [
        Op("reduce", {"dim": a, "points": lattice_set(rng, a, r, m)}) for a, r, m in REDUCE_SLOTS
    ]
    ops += [Op("taylor", taylor_args(rng, d)) for d in TAYLOR_SLOTS]
    ops += [Op("even", even_args(rng, s, m)) for s, m in EVEN_SLOTS]
    rng.shuffle(ops)
    return ops


# ---------------- executors ----------------


def _ms(t0: float) -> float:
    return (time.perf_counter() - t0) * 1e3


def run_certify(args: dict[str, Any], work: Path) -> Outcome:
    g = mj.FrequencySet(args["dim"], tuple(tuple(p) for p in args["points"]))
    t0 = time.perf_counter()
    try:
        cert = mj.construct_independent(g)
    except (mj.DomainError, mj.BudgetError) as exc:
        return Outcome(_ms(t0), refused=f"{type(exc).__name__}: {exc}")
    t1 = time.perf_counter()
    doc = cert.to_json()
    back = mj.Certificate.from_json(json.loads(json.dumps(doc)))
    verdict = mj.verify_certificate(back)
    t2 = time.perf_counter()
    return Outcome(
        (t2 - t0) * 1e3,
        parts={"construct": (t1 - t0) * 1e3, "verify": (t2 - t1) * 1e3},
        out={"cert": doc, "verdict": verdict.to_json()},
    )


def run_cli(argv: list[str]) -> tuple[float, int, str]:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = majorant.cli.main(argv)
        except SystemExit as exc:  # argparse rejects a request this way
            code = exc.code if isinstance(exc.code, int) else 1
    return _ms(t0), code, out.getvalue()


def run_family(args: dict[str, Any], work: Path) -> Outcome:
    src, plot = work / "gen.json", work / "rows.csv"
    src.write_text(json.dumps(args["set"]))
    plot.unlink(missing_ok=True)
    argv = ["construct", "--input", str(src), "--count", str(args["count"]), "--plot", str(plot)]
    ms, code, stdout = run_cli(argv)
    rows = None
    if plot.exists():
        with plot.open() as fh:
            rows = list(csv.DictReader(fh))
    return Outcome(ms, out={"code": code, "stdout": stdout, "rows": rows})


def run_moment(args: dict[str, Any], work: Path) -> Outcome:
    ms, code, stdout = run_cli(["moment", "--d", str(args["d"]), "--p", repr(args["p"])])
    return Outcome(ms, out={"code": code, "stdout": stdout})


def run_classify(args: dict[str, Any], work: Path) -> Outcome:
    g = mj.FrequencySet.from_json(args)
    t0 = time.perf_counter()
    report = mj.classify(g, scan_budget=SCAN_BUDGET, with_certificate=False)
    return Outcome(_ms(t0), out=report)


def run_reduce(args: dict[str, Any], work: Path) -> Outcome:
    g = mj.FrequencySet(args["dim"], tuple(tuple(p) for p in args["points"]))
    t0 = time.perf_counter()
    red = mj.reduce_full_dim(g)
    ms = _ms(t0)
    cols = [] if red.basis is None else [list(red.basis.column(j)) for j in range(red.basis.cols)]
    return Outcome(ms, out={"n_star": list(red.n_star), "cols": cols, "coords": [list(y) for y in red.reduced.points]})


def run_taylor(args: dict[str, Any], work: Path) -> Outcome:
    freqs = [tuple(f) for f in args["freqs"]]
    b = [Fraction(x) for x in args["b"]]
    cfg = mj.EvalConfig(series_total_degree_cutoff=SERIES_CUTOFF)
    t0 = time.perf_counter()
    res = mj.lp_norm_taylor(freqs, b, Fraction(args["p"]), cfg)
    return Outcome(_ms(t0), out={"value": res.value, "converged": res.converged})


def run_even(args: dict[str, Any], work: Path) -> Outcome:
    freqs = [tuple(f) for f in args["freqs"]]
    coeffs = [Fraction(x) for x in args["coeffs"]]
    t0 = time.perf_counter()
    value = mj.lp_norm_even_exact(freqs, coeffs, args["s"])
    return Outcome(_ms(t0), out={"value": value})


# ---------------- checks ----------------


def _cert_fields(cert: dict[str, Any]) -> list[Any]:
    return [cert["verified"], cert["cvector"]["c"], cert["p_interval"], cert["grid_points_per_axis"]]


def _judge_certs(v: Verdict, certs: list[dict[str, Any]]) -> None:
    v.certs_emitted += len(certs)
    for cert in certs:
        if not oracle.certificate_is_sound(cert):
            v.unsound_construct += 1
        elif cert["verified"]:
            v.certs_sound += 1


def check_certify(args: dict[str, Any], o: Outcome) -> Verdict:
    v = Verdict(certs_requested=1)
    if o.refused:
        v.fingerprint = ["refused"]
        return v
    cert, verdict = o.out["cert"], o.out["verdict"]
    v.wrong = oracle.certificate_problems(cert)
    if not oracle.comes_from(cert, args["points"]):
        v.wrong.append("certificate frequencies are not drawn from the input set")
    if cert["dim"] != args["affine_dim"]:
        v.wrong.append(f"certificate dimension {cert['dim']} != affine dimension {args['affine_dim']}")
    _judge_certs(v, [cert])
    if not oracle.verdict_is_sound(cert, verdict):
        v.unsound_verify += 1
    v.verify_disagree = int(verdict["verdict"] is not cert["verified"])
    v.fingerprint = _cert_fields(cert) + [verdict["verdict"]]
    return v


def _cli_verdict(o: Outcome, requested: int) -> tuple[Verdict, Any]:
    v = Verdict(certs_requested=requested)
    code = o.out["code"]
    v.fingerprint = [code]
    if code not in (0, 1, 2):
        v.wrong.append(f"exit code {code}")
    if code != 0:
        return v, None
    try:
        return v, json.loads(o.out["stdout"])
    except json.JSONDecodeError:
        v.wrong.append("stdout is not one JSON document")
        return v, None


def check_family(args: dict[str, Any], o: Outcome) -> Verdict:
    v, certs = _cli_verdict(o, args["count"])
    if certs is None:
        return v
    v.wrong += oracle.family_problems(certs, args["count"])
    if o.out["rows"] is None:
        v.wrong.append("no plot file written")
    else:
        v.wrong += oracle.plot_problems(o.out["rows"], certs[0], PLOT_SAMPLES)
    _judge_certs(v, certs)
    v.fingerprint.append([_cert_fields(c) for c in certs])
    return v


def check_moment(args: dict[str, Any], o: Outcome) -> Verdict:
    v, cert = _cli_verdict(o, 1)
    if cert is None:
        return v
    v.wrong += oracle.moment_request_problems(cert, args["d"], args["p"])
    _judge_certs(v, [cert])
    v.fingerprint += _cert_fields(cert)
    return v


def check_classify(args: dict[str, Any], o: Outcome) -> Verdict:
    report = o.out
    gen = args["generator"]
    if gen["kind"] == "moment_curve":
        expect = "yes"
    else:
        step = gen["params"]["step"]
        start = gen["params"]["start"]
        span = [tuple(p) for p in args["points"]] + [tuple(start), tuple(a + b for a, b in zip(start, step))]
        expect = "yes" if oracle.affine_dim(span) == args["dim"] else "no"
    return Verdict(
        wrong=oracle.classify_problems(report, args, expect),
        fingerprint=[report["smp_status"], report["abundance"], report["affine_dimension"]],
    )


def check_reduce(args: dict[str, Any], o: Outcome) -> Verdict:
    r = o.out
    return Verdict(
        wrong=oracle.reduction_problems(args["points"], r["n_star"], r["cols"], r["coords"]),
        fingerprint=[len(r["cols"]), r["cols"]],
    )


def check_taylor(args: dict[str, Any], o: Outcome) -> Verdict:
    value = o.out["value"]
    wrong = oracle.taylor_problems(
        args["freqs"], [Fraction(x) for x in args["b"]], Fraction(args["p"]), SERIES_CUTOFF, value
    )
    return Verdict(wrong=wrong, fingerprint=[str(value), o.out["converged"]])


def check_even(args: dict[str, Any], o: Outcome) -> Verdict:
    value = o.out["value"]
    ref = oracle.even_norm_exact(args["freqs"], [Fraction(x) for x in args["coeffs"]], args["s"])
    wrong = [] if value == ref else [f"even-p value {value} differs from the exact {ref}"]
    return Verdict(wrong=wrong, fingerprint=[str(value)])


@dataclass(frozen=True)
class Kind:
    run: Callable[[dict[str, Any], Path], Outcome]
    check: Callable[[dict[str, Any], Outcome], Verdict]
    warmup: dict[str, Any]


KINDS: dict[str, Kind] = {
    "certify": Kind(run_certify, check_certify, {"dim": 2, "points": [[0, 0], [1, 0], [0, 1], [1, 1]], "affine_dim": 2}),
    "family": Kind(
        run_family,
        check_family,
        {"set": {"dim": 2, "points": [[0, 0], [1, 0], [0, 1]], "generator": {"kind": "arith_progression", "params": {"start": [2, 1], "step": [1, 1]}}}, "count": 1},
    ),
    "moment": Kind(run_moment, check_moment, {"d": 2, "p": 3.0}),
    "classify": Kind(run_classify, check_classify, {"dim": 3, "points": [], "generator": {"kind": "moment_curve", "params": {"t_start": 1}}}),
    "reduce": Kind(run_reduce, check_reduce, {"dim": 3, "points": [[0, 0, 0], [1, 1, 0], [2, 2, 0], [0, 1, 1]]}),
    "taylor": Kind(run_taylor, check_taylor, {"freqs": [[1], [2]], "b": ["1/16", "-1/16"], "p": "3/2"}),
    "even": Kind(run_even, check_even, {"freqs": [[0], [1], [3]], "coeffs": ["1", "-1/2", "1/4"], "s": 2}),
}


def judge(op: Op, outcome: Outcome) -> Verdict:
    if outcome.error is not None:
        return Verdict(wrong=[outcome.error], fingerprint=["error", outcome.error.split(":")[0]])
    return KINDS[op.kind].check(op.args, outcome)


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: Callable[[random.Random, int], list[Op]]
    prefill: int  # rounds generated during set-up; more are made if a run needs them


WORKLOADS = {
    w.name: w
    for w in (
        Workload("certify_finite", certify_round, 24),
        Workload("family_sweep", family_round, 6),
        Workload("exact_structure", exact_round, 80),
    )
}


def make_round(workload: Workload, seed: int, index: int) -> list[Op]:
    return workload.make_round(random.Random(f"{workload.name}:{seed}:{index}"), index)
