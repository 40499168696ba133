"""Benchmark of the certificate pipeline: one workload per invocation.

    python3 bench/run.py --workload certify_finite --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from
`src/`.  One process, one client thread, closed loop: each request is sent
when the previous one has returned.  With `--trace 0` it prints the
end-to-end metrics; with `--trace 1` it measures the same rounds untraced
and then traced, and prints the per-layer metrics.  A record with the
environment, op counts and the verdict fingerprint goes to
`.bench_out/` and onto the line before the result; the last line of stdout
is the result object.

A shared virtual machine can change speed by a factor of two within a
minute.  A fixed pure-Python loop is therefore timed every half second,
and every time the benchmark reports is scaled to the speed at which that
loop takes CALIB_NOMINAL_S; the record keeps the unscaled figures too.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPS = 3
FINGERPRINT_ROUNDS = 2  # every run measures at least this many whole rounds
TAIL_SAMPLES = 10  # a percentile is reported only with this many samples beyond it
SPAN_BUDGET = 1_500_000  # the traced replay stops at a round boundary past this
CALIB_ITERS = 100_000
CALIB_NOMINAL_S = 0.008  # the calibration loop on an unloaded 2-core Xeon VM, Python 3.11
CALIB_EVERY_S = 0.5
CALIB_WINDOW_S = 2.0  # a request is scaled by the median calibration within this distance


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIB_ITERS):
        acc += i * i % 7
    return time.perf_counter() - t0


@dataclass
class Record:
    round: int
    op: Any
    out: Any
    start: float  # perf_counter() when the request was sent
    speed: float = 1.0  # CALIB_NOMINAL_S over the calibration time around this request

    @property
    def ms(self) -> float:
        """Latency scaled to the nominal machine speed."""
        return self.out.ms * self.speed


def percentile(values: list[float], q: float) -> float | None:
    """The q-quantile of values, or None unless TAIL_SAMPLES values lie above it."""
    if len(values) < 2:
        return None
    cut = statistics.quantiles(values, n=1000, method="inclusive")[round(q * 1000) - 1]
    if sum(1 for v in values if v > cut) < TAIL_SAMPLES:
        return None
    return cut


def environment(seed: int) -> dict[str, Any]:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "seed": seed,
    }


class Runner:
    def __init__(self, workload, seed: int, work: Path) -> None:
        import workloads

        self.w = workloads
        self.workload = workload
        self.seed = seed
        self.work = work
        self.rounds: list[list[Any]] = []

    def round(self, i: int) -> list[Any]:
        while len(self.rounds) <= i:
            self.rounds.append(self.w.make_round(self.workload, self.seed, len(self.rounds)))
        return self.rounds[i]

    def execute(self, op) -> Any:
        t0 = time.perf_counter()
        try:
            return self.w.KINDS[op.kind].run(op.args, self.work)
        except Exception as exc:  # an unexpected exception fails the request; the run goes on
            return self.w.Outcome((time.perf_counter() - t0) * 1e3, error=f"{type(exc).__name__}: {exc}")

    def set_up(self) -> tuple[float, list[str]]:
        """Generate the inputs and warm every request kind once; returns (seconds, problems)."""
        t0 = time.perf_counter()
        self.rounds = [
            self.w.make_round(self.workload, self.seed, i) for i in range(self.workload.prefill)
        ]
        problems = []
        for kind in sorted({op.kind for op in self.rounds[0]}):
            op = self.w.Op(kind, self.w.KINDS[kind].warmup)
            problems += self.w.judge(op, self.execute(op)).wrong
        return time.perf_counter() - t0, problems

    def loop(self, rounds, done, tracer=None) -> list[Record]:
        """Closed loop over whole rounds until done(records); calibrates as it goes.

        Each request is scaled by the median of the calibrations taken within
        CALIB_WINDOW_S of it (at least the two around it), which follows the
        machine's slow drifts without adding the jitter of a single sample.
        """
        records: list[Record] = []
        times, cals = [time.perf_counter()], [calibrate()]
        for i in rounds:
            for op in self.round(i):
                if time.perf_counter() - times[-1] >= CALIB_EVERY_S:
                    times.append(time.perf_counter())
                    cals.append(calibrate())
                if tracer is not None:
                    tracer.op_id = len(records)
                start = time.perf_counter()
                records.append(Record(i, op, self.execute(op), start))
            if done(records):
                break
        times.append(time.perf_counter())
        cals.append(calibrate())
        for rec in records:
            at = bisect.bisect(times, rec.start)
            lo = min(at - 1, bisect.bisect_left(times, rec.start - CALIB_WINDOW_S))
            hi = max(at + 1, bisect.bisect_right(times, rec.start + CALIB_WINDOW_S))
            rec.speed = CALIB_NOMINAL_S / statistics.median(cals[lo:hi])
        return records

    def measure(self, seconds: float, need_tail: bool) -> list[Record]:
        """Whole rounds until `seconds` of request time have passed (and the p90 has its tail)."""

        def done(records: list[Record]) -> bool:
            if records[-1].round + 1 < FINGERPRINT_ROUNDS or sum(r.out.ms for r in records) < seconds * 1e3:
                return False
            return not need_tail or percentile([r.ms for r in records], 0.9) is not None

        return self.loop(itertools.count(), done)

    def replay(self, tracer, rounds: int, budget_s: float) -> list[Record]:
        """The first `rounds` rounds again, traced, stopping early past the time or span budget."""

        def done(records: list[Record]) -> bool:
            return sum(r.out.ms for r in records) >= budget_s * 1e3 or len(tracer) >= SPAN_BUDGET

        tracer.install()
        try:
            return self.loop(range(rounds), done, tracer)
        finally:
            tracer.restore()


def judge_all(w, records: list[Record]) -> list[Any]:
    return [w.judge(r.op, r.out) for r in records]


def fingerprint(records, verdicts) -> dict[str, Any]:
    rows = [[r.op.kind, v.fingerprint] for r, v in zip(records, verdicts) if r.round < FINGERPRINT_ROUNDS]
    picked = [v for r, v in zip(records, verdicts) if r.round < FINGERPRINT_ROUNDS]
    blob = json.dumps(rows, sort_keys=True, default=str).encode()
    return {
        "rounds": FINGERPRINT_ROUNDS,
        "ops": len(rows),
        "digest": hashlib.sha256(blob).hexdigest(),
        "certs_requested": sum(v.certs_requested for v in picked),
        "certs_emitted": sum(v.certs_emitted for v in picked),
        "certs_sound_verified": sum(v.certs_sound for v in picked),
    }


def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


def end_to_end(records: list[Record], verdicts, setup_s: float, scaled: bool = True) -> dict[str, Any]:
    lat = [r.ms if scaled else r.out.ms for r in records]
    failed = sum(v.failed for v in verdicts)
    return {
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ops_per_s": metric(len(lat) * 1e3 / sum(lat), "ops/s"),
        "op_ms_p50": metric(statistics.median(lat), "ms"),
        "op_ms_p90": metric(percentile(lat, 0.9), "ms"),
        "passed_ratio": metric((len(records) - failed) / len(records), "ratio"),
    }


KIND_LATENCIES = (
    # metric, request kinds, latency part, quantile
    ("construct_ms_p50", ("certify",), "construct", 0.5),
    ("construct_ms_p90", ("certify",), "construct", 0.9),
    ("verify_ms_p50", ("certify",), "verify", 0.5),
    ("verify_ms_p90", ("certify",), "verify", 0.9),
    ("family_ms_p50", ("family",), None, 0.5),
    ("moment_ms_p50", ("moment",), None, 0.5),
    ("classify_ms_p50", ("classify",), None, 0.5),
    ("classify_ms_p90", ("classify",), None, 0.9),
    ("series_ms_p50", ("taylor", "even"), None, 0.5),
)

SPAN_METRICS = (
    # span label, report self time too
    ("exact_lattice.abundance_scan", True),
    ("exact_lattice.det_exact", True),
    ("exact_lattice.rank_exact", True),
    ("exact_lattice.reduce_full_dim", True),
    ("exact_lattice.hnf", True),
    ("cvector.build_v", True),
    ("cvector.build_c", False),
    ("moment_curve.smallest_admissible_k", True),
    ("lp_engine.paired_difference", True),
    ("lp_engine.smp_difference", False),
    ("lp_engine.lp_norm_taylor", True),
    ("lp_engine.lp_norm_even_exact", True),
    ("cli.main", True),
)


def per_layer(untraced: list[Record], traced: list[Record], v_untraced, v_traced, summary) -> dict[str, Any]:
    m: dict[str, Any] = {}
    for name, kinds, part, q in KIND_LATENCIES:
        lat = [
            (r.out.parts[part] if part else r.out.ms) * r.speed
            for r in untraced
            if r.op.kind in kinds and r.out.error is None and not r.out.refused
        ]
        value = (statistics.median(lat) if q == 0.5 else percentile(lat, q)) if lat else None
        m[name] = metric(value or 0.0, "ms")
    requested = sum(v.certs_requested for v in v_untraced)
    m["sound_cert_ratio"] = metric(
        sum(v.certs_sound for v in v_untraced) / requested if requested else 0.0, "ratio"
    )

    n = len(traced)
    for label, with_self in SPAN_METRICS:
        row = summary.get(label, {})
        m[f"{label}.calls"] = metric(row.get("calls", 0.0) / n, "calls/op")
        if with_self:
            m[f"{label}.self_ms"] = metric(row.get("self_s", 0.0) * 1e3 / n, "ms/op")
    paired = summary.get("lp_engine.paired_difference", {})
    for d in (1, 2, 3, 4):
        m[f"lp_engine.paired_difference.d{d}.self_ms"] = metric(paired.get(f"d{d}.self_s", 0.0) * 1e3 / n, "ms/op")
    m["lp_engine.paired_difference.grid_points"] = metric(paired.get("grid_points", 0.0) / n, "points/op")
    m["constructions.self_ms"] = metric(
        sum(row["self_s"] for label, row in summary.items() if label.startswith("constructions.")) * 1e3 / n,
        "ms/op",
    )
    attempts = summary.get("lp_engine.smp_difference", {}).get("calls", 0.0)
    emitted = sum(v.certs_emitted for v in v_traced)
    m["constructions.certs_per_attempt"] = metric(emitted / attempts if attempts else 0.0, "certs/attempt")
    m["constructions.unsound.construct"] = metric(sum(v.unsound_construct for v in v_traced) / n, "count/op")
    m["constructions.unsound.verify"] = metric(sum(v.unsound_verify for v in v_traced) / n, "count/op")
    m["constructions.verify_disagree"] = metric(sum(v.verify_disagree for v in v_traced) / n, "count/op")
    cli = [r.out for r in traced if r.op.kind in ("family", "moment") and r.out.error is None]
    codes = [o.out["code"] for o in cli]
    for code in (0, 1, 2):
        m[f"cli.exit.{code}"] = metric(codes.count(code) / n, "count/op")
    m["cli.stdout_bytes"] = metric(sum(len(o.out["stdout"].encode()) for o in cli) / n, "bytes/op")
    replayed = {r.round for r in traced}
    traced_ms = sum(r.ms for r in traced)
    m["trace.overhead_ratio"] = metric(
        traced_ms / sum(r.ms for r in untraced if r.round in replayed), "ratio"
    )
    m["trace.op_ms"] = metric(traced_ms / n, "ms/op")
    m["trace.ops"] = metric(float(n), "count")
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "majorant" / "__init__.py").is_file():
        print(f"bench: no package at {SRC / 'majorant'}; run from a source checkout", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True  # every run compiles the package the same way
    # one client thread: keep numpy's BLAS from starting a worker pool at import
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    before = calibrate()
    t0 = time.perf_counter()
    import majorant
    import majorant.cli  # noqa: F401  (part of the import cost of the CLI workload)

    import_s = time.perf_counter() - t0
    import_speed = 2 * CALIB_NOMINAL_S / (before + calibrate())
    if Path(majorant.__file__).resolve().parent != (SRC / "majorant").resolve():
        print(f"bench: imported majorant from {majorant.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(workload, args.seed, work)

    reps, speeds, problems = [], [], []
    for _ in range(SETUP_REPS):
        before = calibrate()
        seconds, found = runner.set_up()
        speeds.append(2 * CALIB_NOMINAL_S / (before + calibrate()))
        reps.append(seconds)
        problems += found
    setup_s = import_s * import_speed + statistics.median(s * f for s, f in zip(reps, speeds))

    t_start = time.perf_counter()
    records = runner.measure(args.seconds / 2 if args.trace else args.seconds, need_tail=not args.trace)
    verdicts = judge_all(workloads, records)
    fp = fingerprint(records, verdicts)
    record: dict[str, Any] = {"workload": workload.name, "trace": args.trace}
    if args.trace:
        tracer = Tracer()
        traced = runner.replay(tracer, records[-1].round + 1, args.seconds)
        v_traced = judge_all(workloads, traced)
        if traced[-1].round + 1 >= FINGERPRINT_ROUNDS and fingerprint(traced, v_traced)["digest"] != fp["digest"]:
            problems.append("the traced replay changed a verdict")
        summary = tracer.summary([r.speed for r in traced])
        metrics = per_layer(records, traced, verdicts, v_traced, summary)
        spans = OUT / f"spans-{workload.name}-seed{args.seed}.tsv.gz"
        tracer.write(spans)
        record["spans"] = {"file": str(spans.relative_to(ROOT)), "count": len(tracer)}
    else:
        metrics = end_to_end(records, verdicts, setup_s)
        record["unscaled"] = end_to_end(records, verdicts, import_s + statistics.median(reps), scaled=False)

    wrong = [f"{r.op.kind}: {p}" for r, v in zip(records, verdicts) for p in v.wrong]
    failed = sum(v.failed for v in verdicts)
    kinds: dict[str, int] = {}
    for r in records:
        kinds[r.op.kind] = kinds.get(r.op.kind, 0) + 1
    record.update(
        environment=environment(args.seed),
        seconds=args.seconds,
        run_wall_s=time.perf_counter() - t_start,
        request_s=sum(r.out.ms for r in records) / 1e3,
        rounds=records[-1].round + 1,
        ops_by_kind=kinds,
        attempted=len(records),
        failed=failed,
        unsound_construct=sum(v.unsound_construct for v in verdicts),
        unsound_verify=sum(v.unsound_verify for v in verdicts),
        problems=(problems + wrong)[:20],
        fingerprint=fp,
        setup={"import_s": import_s, "reps_s": reps},
        speed={"min": min(r.speed for r in records), "median": statistics.median(r.speed for r in records), "max": max(r.speed for r in records)},
        metrics=metrics,
    )
    correct = not problems and not wrong
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    for f in work.iterdir():
        f.unlink()
    work.rmdir()
    print(json.dumps(record, default=str))
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
