"""Self-test of the benchmark itself.

Usage: ``python3 bench/selftest.py``; exits 0 when every check holds.

- The same seed generates byte-identical inputs; another seed does not.
- Outputs altered by hand fail their checks, so error_rate rises above 0.
- The traced run survives probes whose names are gone, reports them
  absent, and restores every wrapped name.
- Spans carry parent ids, and self times add up to the root spans' time.
- Scalar counts repeat exactly over two passes of the same inputs.
- BENCHMARK.json names the workloads and metrics that run.py produces.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

from run import (END_TO_END, PER_LAYER, ROOT, SRC, Checker, per_layer, run_op,
                 scalar_counts)
from probes import PROBES, Probe, Tracer
import workloads

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


@contextmanager
def workdir(workload: workloads.Workload):
    with tempfile.TemporaryDirectory(prefix=".bench_run_", dir=ROOT) as work:
        for case in workload.cases:
            if case.file_name is not None:
                Path(work, case.file_name).write_text(case.file_text, encoding="utf-8")
        os.chdir(work)
        try:
            yield
        finally:
            os.chdir(ROOT)


def _edit_json(out: str, edit) -> str:
    data = json.loads(out)
    edit(data)
    return json.dumps(data)


def _set(obj, key, value):
    obj[key] = value


ALTERATIONS = {
    "verify-paper": [
        ("exit code 0", lambda rc, out: (0, out)),
        ("a MISMATCH verdict read as MATCH",
         lambda rc, out: (rc, out.replace('"verdict": "MISMATCH"', '"verdict": "MATCH"', 1))),
        ("summary count changed", lambda rc, out: (rc, out.replace('"match": 73', '"match": 74'))),
        ("a computed state changed",
         lambda rc, out: (rc, out.replace('"computed": "-|0>"', '"computed": "|0>"', 1))),
    ],
    "classify-mix": [
        ("class label changed", lambda rc, out: (rc, "class: NULL\n" + out.split("\n", 1)[1])),
        ("hyperdeterminant changed",
         lambda rc, out: (rc, "\n".join(line + "1" if line.startswith("det: ") else line
                                        for line in out.splitlines()))),
        ("rank pattern changed", lambda rc, out: (rc, out.replace("ranks: ", "ranks: 0", 1))),
    ],
    "wide-circuits": [
        ("final state replaced by the initial one",
         lambda rc, out: (rc, _edit_json(out, lambda d: _set(
             d["steps"][-1], "state", d["steps"][0]["state"])))),
        ("claim verdict changed",
         lambda rc, out: (rc, _edit_json(out, lambda d: _set(
             d["claims"][0], "verdict",
             "MATCH" if d["claims"][0]["verdict"] != "MATCH" else "MISMATCH")))),
        ("instruction text changed",
         lambda rc, out: (rc, _edit_json(out, lambda d: _set(
             d["steps"][1], "instruction", d["steps"][1]["instruction"] + " 0")))),
    ],
}


def check_inputs() -> None:
    for name in workloads.WORKLOADS:
        a = workloads.make(name, 7).inputs_bytes()
        expect(a == workloads.make(name, 7).inputs_bytes(),
               f"{name}: seed 7 twice gives byte-identical inputs")
        if name != "verify-paper":
            expect(a != workloads.make(name, 8).inputs_bytes(),
                   f"{name}: seeds 7 and 8 give different inputs")


def check_altered_outputs() -> None:
    for name, alterations in ALTERATIONS.items():
        workload = workloads.make(name, 3)
        checker = Checker(workload)
        with workdir(workload):
            for idx in range(min(3, len(workload.cases))):
                _, rc, out, error = run_op(workload.cases[idx])
                expect(checker(idx, rc, out, error), f"{name} case {idx}: real output passes")
                for what, alter in alterations:
                    bad_rc, bad_out = alter(rc, out)
                    if (bad_rc, bad_out) == (rc, out):
                        continue
                    expect(not checker(idx, bad_rc, bad_out), f"{name} case {idx}: {what} is caught")
        expect(checker.failed / checker.attempted > 0, f"{name}: error_rate rises above 0")


def check_missing_names() -> None:
    import bhqc.circuit
    original = {n: vars(bhqc.circuit)[n] for n in ("embed", "apply")}
    workload = workloads.make("classify-mix", 1)
    checker = Checker(workload)
    try:
        for n in original:      # as if the operator layer no longer had these names
            delattr(bhqc.circuit, n)
        with workdir(workload):
            metrics, _, absent, repeat_ok = per_layer(workload, 0.5, checker)
    finally:
        for n, fn in original.items():
            setattr(bhqc.circuit, n, fn)
    expect({"operators.embed.self_ms", "operators.embed.calls", "operators.embed.entries",
            "operators.apply.products"} <= absent,
           "removed names are reported absent by the traced run")
    expect(set(metrics) == set(PER_LAYER), "the traced run still reports every metric")
    expect(checker.failed == 0 and repeat_ok, "the traced run stays correct")

    probes = PROBES + (Probe("operators.gone", "bhqc.circuit", "no_such_function"),
                       Probe("nowhere.fn", "bhqc.no_such_module", "fn"))
    workload = workloads.make("verify-paper", 1)
    with workdir(workload), Tracer(probes) as tracer:
        run_op(workload.cases[0])
    expect({"operators.gone", "nowhere.fn"} <= tracer.absent, "missing probes are marked absent")
    expect(vars(bhqc.circuit)["embed"] is original["embed"], "wrapped names are restored")

    spans = [s for s in tracer.spans if s is not None]
    nested = all(s.parent is None or (s.parent < sid and spans[s.parent].t0 <= s.t0
                                      and s.t_end <= spans[s.parent].t1)
                 for sid, s in enumerate(spans))
    expect(len(spans) == len(tracer.spans) and nested, "child spans nest inside their parents")
    roots = sum(s.t1 - s.t0 for s in spans if s.parent is None)
    total_self = sum(tracer.self_times().values())
    expect(total_self <= roots and total_self > 0.9 * roots,
           "self times exclude child spans and add up to the root spans")


def check_scalar_counts() -> None:
    for name in workloads.WORKLOADS:
        workload = workloads.make(name, 5)
        checker = Checker(workload)
        with workdir(workload):
            first, _ = scalar_counts(workload, checker)
            second, _ = scalar_counts(workload, checker)
        expect(first == second and first.get("gr_ops", 0) > 0,
               f"{name}: scalar counts repeat exactly over two passes")


def check_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json lists the workloads run.py accepts")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END,
           "BENCHMARK.json end_to_end matches run.py")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER,
           "BENCHMARK.json per_layer matches run.py")


def main() -> int:
    sys.path.insert(0, str(SRC))
    check_inputs()
    check_altered_outputs()
    check_missing_names()
    check_scalar_counts()
    check_benchmark_json()
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks hold")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
