"""The bhqc benchmark: one seeded workload, a closed loop of CLI calls, metrics as JSON.

Usage::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in one process, no threads: each operation is one in-process
call to ``bhqc.cli.main(argv)`` with stdout captured, made only after the
previous one returned.  Every output is checked outside the timed region
(see ``workloads``).  Times are reported in reference seconds, rescaled by a
calibration kernel run around every operation (see ``speed``); the raw
figures are printed beside them.  The last line of stdout is a JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

- ``--trace 0`` reports the end-to-end metrics (``END_TO_END``).
- ``--trace 1`` reports the per-layer metrics (``PER_LAYER``): a traced
  pass timing each module's functions from outside (``probes``), the same
  operations again untraced for the tracing overhead, and two scalar
  counting passes that must agree exactly.

bhqc is imported from ``src/`` next to this directory; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import workloads  # noqa: E402  (sits next to this file)
from probes import PROBES, ScalarCounter, Tracer  # noqa: E402
from speed import REFERENCE_S, calibrate, rescale  # noqa: E402

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_SELF_MS = ("cli.main", "cli.build_parser", "dsl.parse_ket", "dsl.parse_circuit",
            "claims.verify_claims", "circuit.run", "circuit.compare_kets",
            "operators.embed", "operators.apply", "states.project", "states.render",
            "classify.classify")
_CALLS = ("circuit.run", "operators.embed", "operators.apply")
_COUNTERS = ("dsl.chars", "claims.records", "circuit.instructions",
             "operators.embed.entries", "operators.apply.products", "states.terms_out")
_SCALARS = ("gr_mul", "gr_add", "amp_mul", "amp_add")

PER_LAYER = {
    **{f"{n}.self_ms": "ms/op" for n in _SELF_MS},
    **{f"{n}.calls": "count/op" for n in _CALLS},
    "classify.calls": "count/op",
    **{n: "count/op" for n in _COUNTERS},
    **{f"scalars.{n}": "count/op" for n in _SCALARS},
    "scalars.int_share": "ratio",
    "trace.overhead": "ratio",
}

MIN_SAMPLES = 100        # p90 needs at least ten samples above it
MAX_EXTRA_S = 60         # how long the loop may run past --seconds to reach MIN_SAMPLES
SETUP_RUNS = 7           # fresh interpreters timed for setup_s (after one warm-up)


class Checker:
    """Counts attempted and failed operations; a verified output is remembered
    per case, so repeats of it are confirmed by comparison."""

    def __init__(self, workload: workloads.Workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self._verified: dict[int, tuple[int, str]] = {}

    def __call__(self, idx: int, rc: int | None, out: str, error: str | None = None) -> bool:
        self.attempted += 1
        if error is None and self._verified.get(idx) == (rc, out):
            return True
        case = self.workload.cases[idx]
        reason = error
        if reason is None:
            try:
                reason = self.workload.check(case, rc, out)
            except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
                reason = f"unreadable output: {exc!r}"
        if reason is None:
            self._verified[idx] = (rc, out)
            return True
        self.failed += 1
        self.reasons.append(f"case {idx} {case.argv[0]}: {reason}")
        return False


def run_op(case: workloads.Case) -> tuple[float, int | None, str, str | None]:
    """One timed call of bhqc.cli.main: (seconds, exit code, stdout, error)."""
    import bhqc.cli
    out = io.StringIO()
    error = None
    rc = None
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        t0 = perf_counter()
        try:
            rc = bhqc.cli.main(list(case.argv))
        except Exception as exc:  # a raising operation is a failed one
            error = f"raised {exc!r}"
        t1 = perf_counter()
    return t1 - t0, rc, out.getvalue(), error


def checked_op(workload: workloads.Workload, idx: int, checker: Checker) -> float:
    dt, rc, out, error = run_op(workload.cases[idx])
    checker(idx, rc, out, error)
    return dt


def warm_up(workload: workloads.Workload, checker: Checker) -> None:
    for idx in range(len(workload.cases)):
        checked_op(workload, idx, checker)


def timed_ops(workload: workloads.Workload, indices, checker: Checker,
              on_op=None) -> tuple[list[float], list[float]]:
    """Run the given cases in order: raw latencies, and calibrations between them."""
    latencies: list[float] = []
    calibrations = [calibrate()]
    for k, idx in enumerate(indices):
        if on_op is not None:
            on_op(k)
        latencies.append(checked_op(workload, idx, checker))
        calibrations.append(calibrate())
    return latencies, calibrations


def closed_loop(workload: workloads.Workload, seconds: float, checker: Checker,
                on_op=None) -> tuple[list[int], list[float], list[float]]:
    """Cycle through the seeded order for ``seconds``.

    Returns the case indices run, their raw latencies and the calibrations.
    """
    done: list[int] = []
    start = perf_counter()

    def indices():
        while True:
            elapsed = perf_counter() - start
            if elapsed >= seconds and (len(done) >= MIN_SAMPLES
                                       or elapsed >= seconds + MAX_EXTRA_S):
                return
            done.append(workload.order[len(done) % len(workload.order)])
            yield done[-1]

    latencies, calibrations = timed_ops(workload, indices(), checker, on_op)
    return done, latencies, calibrations


def setup_seconds(workload: workloads.Workload, checker: Checker) -> tuple[float, float]:
    """Median over fresh interpreters of: before ``import bhqc`` to end of the first op.

    Returns (reference seconds, raw seconds).
    """
    idx = workload.order[0]
    raw, ref = [], []
    for k in range(SETUP_RUNS + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "first_op.py"), str(SRC), *workload.cases[idx].argv],
            capture_output=True, text=True, timeout=120, check=True)
        data = json.loads(proc.stdout)
        checker(idx, data["rc"], data["out"])
        if k:  # the first interpreter warms the file cache
            raw.append(data["seconds"])
            ref.append(data["seconds"] * REFERENCE_S / data["calibration"])
    return statistics.median(ref), statistics.median(raw)


def _latency_metrics(lat: list[float]) -> dict:
    return {
        "ops_per_s": len(lat) / sum(lat),
        "latency_ms_p50": statistics.median(lat) * 1e3,
        "latency_ms_p90": statistics.quantiles(lat, n=10)[8] * 1e3,
    }


def end_to_end(workload: workloads.Workload, seconds: float,
               checker: Checker) -> tuple[dict, dict, int]:
    """Metrics in reference seconds, the same in raw seconds, and the sample count."""
    setup, setup_raw = setup_seconds(workload, checker)
    warm_up(workload, checker)
    _, raw, calibrations = closed_loop(workload, seconds, checker)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {**_latency_metrics(rescale(raw, calibrations)), "setup_s": setup,
               "peak_rss_mb": rss}
    raw_metrics = {**_latency_metrics(raw), "setup_s": setup_raw, "peak_rss_mb": rss}
    return metrics, raw_metrics, len(raw)


def scalar_counts(workload: workloads.Workload, checker: Checker) -> tuple[dict, set[str]]:
    """Exact scalar-operation counts over one pass of every case."""
    with ScalarCounter() as counter:
        for idx in range(len(workload.cases)):
            checked_op(workload, idx, checker)
    return dict(counter.counts), counter.absent


def per_layer(workload: workloads.Workload, seconds: float,
              checker: Checker) -> tuple[dict, int, set[str], bool]:
    warm_up(workload, checker)
    with Tracer(PROBES) as tracer:
        done, traced_raw, traced_cal = closed_loop(workload, seconds / 2, checker,
                                                   on_op=lambda k: setattr(tracer, "op", k))
    traced = rescale(traced_raw, traced_cal)
    untraced = rescale(*timed_ops(workload, done, checker))
    to_ref_ms = 1e3 * REFERENCE_S / statistics.median(traced_cal)
    first, absent = scalar_counts(workload, checker)
    second, _ = scalar_counts(workload, checker)

    n_ops, n_cases = len(done), len(workload.cases)
    self_s, calls, counts = tracer.self_times(), tracer.calls(), tracer.counts
    gr_ops = first.get("gr_ops", 0)
    metrics = {
        **{f"{n}.self_ms": self_s.get(n, 0.0) * to_ref_ms / n_ops for n in _SELF_MS},
        **{f"{n}.calls": calls[n] / n_ops for n in _CALLS},
        "classify.calls": calls["classify.classify"] / n_ops,
        **{n: counts[n] / n_ops for n in _COUNTERS},
        **{f"scalars.{n}": first.get(n, 0) / n_cases for n in _SCALARS},
        "scalars.int_share": first.get("gr_int_ops", 0) / gr_ops if gr_ops else 0.0,
        "trace.overhead": sum(traced) / sum(untraced),
    }
    absent_metrics = {m for m in PER_LAYER
                      if any(m == a or m.startswith(a + ".") for a in tracer.absent)}
    absent_metrics |= {f"scalars.{n}" for n in absent}
    if "classify.classify" in tracer.absent:
        absent_metrics.add("classify.calls")
    return metrics, n_ops, absent_metrics, first == second


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import bhqc.cli
    except ImportError as exc:
        print(f"error: cannot import bhqc from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(bhqc.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: bhqc was imported from {bhqc.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    workload = workloads.make(args.workload, args.seed)
    checker = Checker(workload)
    repeat_ok = True
    absent: set[str] = set()
    with tempfile.TemporaryDirectory(prefix=".bench_run_", dir=ROOT) as work:
        for case in workload.cases:
            if case.file_name is not None:
                Path(work, case.file_name).write_text(case.file_text, encoding="utf-8")
        os.chdir(work)
        try:
            raw = {}
            if args.trace:
                values, samples, absent, repeat_ok = per_layer(workload, args.seconds, checker)
                units = PER_LAYER
            else:
                values, raw, samples = end_to_end(workload, args.seconds, checker)
                units = END_TO_END
        finally:
            os.chdir(ROOT)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  samples {samples}")
    for name, unit in units.items():
        note = "  (absent: no such name in bhqc)" if name in absent else ""
        if name in raw and raw[name] != values[name]:
            note = f"  (raw {raw[name]:.6g})"
        print(f"  {name:<32} {values[name]:>14.6g} {unit}{note}")
    print(f"  {'error_rate':<32} {checker.failed / checker.attempted:>14.6g} "
          f"({checker.failed} of {checker.attempted} operations)")
    for reason in checker.reasons[:10]:
        print(f"  failed: {reason}")
    if not repeat_ok:
        print("  failed: scalar counts differ between two passes over the same inputs")
    print(json.dumps({
        "correct": checker.failed == 0 and repeat_ok,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
