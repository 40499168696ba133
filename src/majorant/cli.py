"""Command-line front end.

One subcommand per process; the JSON result goes to stdout, diagnostics to
stderr.  Exit codes: 0 success, 1 for usage errors and hypothesis or domain
failures (the mathematics rules the request out, or a verification came back
false), 2 when numerics were inconclusive (`verify`: no certifying margin,
error above tol).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from functools import cache
from pathlib import Path
from typing import Any, Callable, NoReturn

from .constructions import (
    PLOT_SAMPLES,
    SCAN_BUDGET,
    STREAM_BUDGET,
    Certificate,
    _certify,
    _choose_certificates,
    _choose_moment,
    classify,
    emit_plot_data,
    verify_certificate,
)
from .errors import BudgetError, DomainError, MajorantError
from .exact_lattice import Abundance, FrequencySet, abundance_scan
from .lp_engine import EvalConfig
from .moment_curve import weak_majorant_bound, weak_majorant_ratio


def _load_json(path: str) -> Any:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DomainError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (OSError, ValueError, RecursionError) as exc:  # not UTF-8, too deep, too many digits
        raise DomainError(f"cannot read {path}: {exc}") from exc


# flag: (EvalConfig field, type, help); every subcommand takes these
_EVAL_FLAGS = {
    "grid": ("grid_points_per_axis", int, "quadrature grid points per axis"),
    "tol": ("backend_agreement_tol", float, "backend agreement tolerance"),
    "safety": ("margin_safety_factor", float, "margin safety factor"),
}


def _eval_config(args: argparse.Namespace) -> EvalConfig:
    """Defaults overridden by whichever evaluation flags were given."""
    given = {field: getattr(args, flag) for flag, (field, _, _) in _EVAL_FLAGS.items()}
    return EvalConfig(**{k: v for k, v in given.items() if v is not None})


def _emit(doc: Any) -> None:
    """Print `doc` as JSON, formed whole first: one that cannot be printed prints nothing."""
    try:
        text = json.dumps(doc, indent=2)
    except ValueError as exc:  # an integer beyond the interpreter's digit limit
        raise DomainError(f"cannot print the result: {exc}") from exc
    sys.stdout.write(text + "\n")


def _write_plot(path: str, cert: Certificate, samples: int, cfg: EvalConfig) -> None:
    """Write the plot CSV; callers do this before printing, so a rejected plot prints nothing.

    Callers plot a chosen, unmeasured certificate before they certify it: the
    plot's ladder takes its p_tested, which certification then reuses.
    """
    rows = emit_plot_data(cert, samples, cfg)
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["p", "lhs", "rhs", "difference"])
            writer.writeheader()
            writer.writerows(rows)
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc}") from exc
    print(f"wrote {len(rows)} plot rows to {path}", file=sys.stderr)


def _cmd_classify(args: argparse.Namespace) -> int:
    g = FrequencySet.from_json(_load_json(args.input))
    report = classify(g, scan_budget=args.scan_budget, cfg=_eval_config(args))
    _emit(report)
    return 0


def _cmd_construct(args: argparse.Namespace) -> int:
    g = FrequencySet.from_json(_load_json(args.input))
    cfg = _eval_config(args)
    scan = abundance_scan(g, args.scan_budget)
    chosen = _choose_certificates(g, scan, args.count, cfg, args.stream_budget)
    if args.plot:
        _write_plot(args.plot, chosen[0], args.plot_samples, cfg)
    certs = [_certify(c) for c in chosen]
    infinite = g.is_structurally_infinite()
    _emit([c.to_json() for c in certs] if infinite else certs[0].to_json())
    # a note on the count only once the plot and the JSON are out: a failure stays one line
    if len(certs) < args.count:
        found = f"found {len(certs)} of {args.count} certificates"
        if not infinite:
            note = f"a finite set gives one certificate; --count {args.count} ignored"
        elif scan.status is Abundance.YES:
            note = f"{found} within --stream-budget {args.stream_budget}"
        elif scan.status is Abundance.NO:
            note = f"{found}: the set is not affinely abundant"
        else:
            note = f"{found}: abundance scan inconclusive within --scan-budget {args.scan_budget}"
        print(note, file=sys.stderr)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    cert = Certificate.from_json(_load_json(args.input))
    result = verify_certificate(cert, _eval_config(args))
    _emit(result.to_json())
    if result.verdict is True:
        return 0
    if result.verdict is False:
        print("verification failed: margin does not certify", file=sys.stderr)
        return 1
    print("verification inconclusive: no certifying margin, error above --tol", file=sys.stderr)
    return 2


def _cmd_moment(args: argparse.Namespace) -> int:
    cfg = _eval_config(args)
    chosen = _choose_moment(args.d, args.p, cfg)
    if args.plot:
        _write_plot(args.plot, chosen, args.plot_samples, cfg)
    _emit(_certify(chosen).to_json())
    return 0


_WEAK_KEYS = {"d", "p", "support", "coefficients", "majorant"}


def _cmd_weak_majorant(args: argparse.Namespace) -> int:
    """The keys are checked here, their values by `weak_majorant_ratio`."""
    data = _load_json(args.input)
    if not isinstance(data, dict):
        raise DomainError("weak-majorant input must be a JSON object")
    odd = sorted(_WEAK_KEYS.symmetric_difference(data))
    if odd:
        state = "has the unknown" if odd[0] in data else "is missing the"
        raise DomainError(f"weak-majorant input {state} key {odd[0]!r}")
    ratio = weak_majorant_ratio(
        data["d"],
        data["p"],
        data["coefficients"],
        data["majorant"],
        data["support"],
        _eval_config(args),
    )
    bound = weak_majorant_bound(data["d"])
    _emit(
        {
            "d": data["d"],
            "p": data["p"],
            "ratio": ratio,
            "bound": bound,
            "within_bound": ratio <= bound + 1e-9,
        }
    )
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises DomainError on a usage error; `add_subparsers` gives subcommands this class."""

    def error(self, message: str) -> NoReturn:
        raise DomainError(f"{self.prog}: {message}")


@cache  # one parser per process: building it costs as much as a small request
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="majorant",
        description="Classify frequency sets for the strict majorant property "
        "and build certified counterexamples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(
        name: str, func: Callable[[argparse.Namespace], int], help_text: str, input_help: str = ""
    ) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(func=func)
        if input_help:
            cmd.add_argument("--input", required=True, help=input_help)
        return cmd

    sets = "frequency set JSON file"
    p_classify = command("classify", _cmd_classify, "structural report for a frequency set", sets)
    p_classify.add_argument("--scan-budget", type=int, default=SCAN_BUDGET)

    p_construct = command("construct", _cmd_construct, "build and certify counterexamples", sets)
    p_construct.add_argument(
        "--count", type=int, default=1, help="certificates to emit for generator sets"
    )
    p_construct.add_argument("--scan-budget", type=int, default=SCAN_BUDGET)
    p_construct.add_argument("--stream-budget", type=int, default=STREAM_BUDGET)

    command("verify", _cmd_verify, "recompute a certificate's margin", "certificate JSON file")

    p_moment = command(
        "moment", _cmd_moment, "counterexample on the moment curve at a given exponent"
    )
    p_moment.add_argument("--d", type=int, required=True, help="ambient dimension")
    p_moment.add_argument("--p", type=float, required=True, help="target exponent")

    command(
        "weak-majorant",
        _cmd_weak_majorant,
        "norm ratio against a majorant on moment-curve points",
        "JSON file with d, p, support, coefficients, majorant",
    )

    for cmd in sub.choices.values():
        for flag, (_, kind, text) in _EVAL_FLAGS.items():
            cmd.add_argument(f"--{flag}", type=kind, help=text)
    for cmd in (p_construct, p_moment):
        cmd.add_argument("--plot", metavar="FILE", help="write (p, lhs, rhs, difference) CSV")
        cmd.add_argument(
            "--plot-samples",
            type=int,
            default=PLOT_SAMPLES,
            help="interior sample count for --plot",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except BudgetError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 2
    except MajorantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
