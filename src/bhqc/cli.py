"""Command-line front end.

Commands: ``run <file>``, ``demo <name>``, ``classify <state>``, and
``verify-paper``; flags ``--json`` and ``--trace``.  Output is fully
deterministic (there is no randomness anywhere in the tool).  Exit codes:
0 success, 1 usage or parse error, 2 when verify-paper finds any MISMATCH
(the expected outcome, since the catalog contains known divergences).
"""

from __future__ import annotations

import argparse
import os
import sys
from math import isfinite
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .circuit import RunResult

# command -> the names it calls, read from the package (which imports each
# name's module on first access) and bound into this module when the command
# runs, so a process imports only what its command runs
_IMPORTS = {
    "run": ("DslError", "parse_circuit", "instruction_text", "run"),
    "demo": ("parse_circuit", "instruction_text", "run", "classify", "transition_report"),
    "classify": ("parse_ket", "classify"),
    "verify-paper": ("MATCH", "MATCH_UP_TO_SCALAR", "MISMATCH", "verify_claims"),
}


def _load(command: str) -> None:
    """Bind the names ``command`` calls here.

    Commands call these names as globals of this module.  A name already
    bound is left alone, so a wrapper put in its place (a tracer's, say)
    survives a later command that needs the same name.
    """
    package = sys.modules[__package__]
    bound = globals()
    for name in _IMPORTS[command]:
        bound.setdefault(name, getattr(package, name))


# demo name -> stem of its file in circuits/
_DEMOS = {"bell": "bell_chain", "teleport": "teleport", "ghz": "ghz",
          "class-change": "class_change"}


# json's C string escaper, imported on the first _json_text call
_escape = None


def _json_text(obj: object) -> str:
    """``json.dumps(obj, indent=2, ensure_ascii=False)``, byte for byte.

    CPython 3.10-3.13 drops to its pure-Python encoder whenever ``indent``
    is set.  This writer pads the containers itself and sends every string
    through the C escaper that ``ensure_ascii=False`` uses.  Dict keys are
    strings.  The writer is a module-level function handed the buffer's
    append, so no reference cycle keeps a call's pieces alive until the
    collector runs.
    """
    global _escape
    if _escape is None:
        from json.encoder import encode_basestring as _escape
    out: list[str] = []
    _write(obj, "\n", out.append, _escape, {})
    return "".join(out)


def _write(value: object, pad: str, put, string, keys: dict[str, str]) -> None:
    """Append the JSON text of ``value`` to a buffer, piece by piece, with ``put``.

    pad is the newline and indent of the line that holds value; string is
    the escaper; keys maps each dict key met so far in this call to its
    escaped text and ``": "``.
    """
    if isinstance(value, str):
        put(string(value))
    elif isinstance(value, dict):
        if not value:
            put("{}")
            return
        inner = pad + "  "
        lead, sep = "{" + inner, "," + inner
        for k, v in value.items():
            put(lead)
            key = keys.get(k)
            if key is None:
                key = keys[k] = string(k) + ": "
            put(key)
            # a string value, the common leaf, skips a call
            if type(v) is str:
                put(string(v))
            else:
                _write(v, inner, put, string, keys)
            lead = sep
        put(pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            put("[]")
            return
        inner = pad + "  "
        lead, sep = "[" + inner, "," + inner
        for v in value:
            put(lead)
            _write(v, inner, put, string, keys)
            lead = sep
        put(pad + "]")
    elif type(value) is int or type(value) is float and isfinite(value):
        put(repr(value))  # the text json itself writes for them
    else:
        from json import dumps
        put(dumps(value))  # bools, None, NaN and the infinities


def _print_json(obj: object) -> None:
    print(_json_text(obj))


def _result_json(result: RunResult) -> dict:
    """The steps and claims of a run, as ``run --json`` and ``demo --json`` print them."""
    return {"steps": [{"instruction": instruction_text(ins), "state": str(state)}
                      for ins, state in result.steps],
            "claims": [c.to_json() for c in result.claims]}


def _print_steps(result: RunResult) -> None:
    for index, (ins, state) in enumerate(result.steps):
        print(f"step {index:>2}  {instruction_text(ins):<24} {state}")


def _print_claims(result: RunResult) -> None:
    if result.claims:
        print("claims:")
        for record in result.claims:
            print(f"  {record.summary()}")


def _cmd_run(args: argparse.Namespace) -> int:
    path = Path(args.path)
    try:
        # a leading byte-order mark is no text; decoding it as utf-8 (not
        # utf-8-sig) keeps the byte offsets of decode errors true
        text = path.read_text(encoding="utf-8").removeprefix("\ufeff")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:
        print(f"error: {path}: not UTF-8 text ({exc.reason} at byte {exc.start})",
              file=sys.stderr)
        return 1
    try:
        circuit = parse_circuit(text)
    except DslError as exc:
        print(f"{path}:{exc.line}:{exc.col}: {exc.message}", file=sys.stderr)
        return 1
    result = run(circuit)
    if args.json:
        _print_json(_result_json(result))
        return 0
    if args.trace:
        _print_steps(result)
    print(f"final: {result.final_state}")
    _print_claims(result)
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    if args.name not in _DEMOS:
        known = ", ".join(sorted(_DEMOS))
        print(f"error: unknown demo name '{args.name}' (choose from {known})",
              file=sys.stderr)
        return 1
    path = Path(__file__).with_name("circuits") / f"{_DEMOS[args.name]}.bhqc"
    circuit = parse_circuit(path.read_text(encoding="utf-8"))
    result = run(circuit)
    try:
        before, report = classify(circuit.initial_state), classify(result.final_state)
    except ValueError:  # symbolic amplitudes or a qubit count
        report = transition = None
    else:
        transition = transition_report(before, report)

    if args.json:
        _print_json({
            **_result_json(result),
            "classification": None if report is None else report.to_json(),
            "transition": transition,
        })
        return 0

    print(f"demo: {args.name}")
    if circuit.mode_labels:
        print("labels: " + " ".join(circuit.mode_labels))
    _print_steps(result)
    _print_claims(result)
    if report is None:
        print("classification: skipped (symbolic amplitudes)")
    else:
        print("classification (final state):")
        for line in report.lines():
            print(f"  {line}")
        print("transition (initial → final):")
        for key, value in transition.items():
            if value is not None:
                print(f"  {'SUSY' if key == 'susy' else key}: {value}")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    try:
        report = classify(parse_ket(args.state))
    except ValueError as exc:  # a DslError, symbolic amplitudes or a qubit count
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        _print_json(report.to_json())
    else:
        for line in report.lines():
            print(line)
    return 0


def _cmd_verify_paper(args: argparse.Namespace) -> int:
    records = verify_claims()
    counts = dict.fromkeys((MATCH, MATCH_UP_TO_SCALAR, MISMATCH), 0)
    for record in records:
        counts[record.verdict] += 1
    n_match, n_scalar, n_mismatch = counts.values()
    if args.json:
        _print_json({
            "claims": [r.to_json(with_states=True) for r in records],
            "summary": {"total": len(records), "match": n_match,
                        "match_up_to_scalar": n_scalar, "mismatch": n_mismatch},
        })
    else:
        for record in records:
            print(record.summary())
        print(f"summary: {len(records)} claims — {n_match} MATCH, "
              f"{n_scalar} MATCH_UP_TO_SCALAR, {n_mismatch} MISMATCH")
    return 2 if n_mismatch else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bhqc",
        description="Exact simulator, identity verifier, and SLOCC classifier "
                    "for the black-hole/qubit-correspondence gate algebra.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a .bhqc circuit file")
    p_run.add_argument("path")
    p_run.add_argument("--json", action="store_true")
    p_run.add_argument("--trace", action="store_true")
    p_run.set_defaults(func=_cmd_run)

    p_demo = sub.add_parser("demo", help="run a canned circuit with classification")
    p_demo.add_argument("name", metavar="{" + ",".join(_DEMOS) + "}")
    p_demo.add_argument("--json", action="store_true")
    p_demo.set_defaults(func=_cmd_demo)

    p_classify = sub.add_parser("classify", help="classify an inline 2- or 3-qubit state")
    p_classify.add_argument("state")
    p_classify.add_argument("--json", action="store_true")
    p_classify.set_defaults(func=_cmd_classify)

    p_verify = sub.add_parser("verify-paper",
                              help="re-derive the full identity catalog and report verdicts")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=_cmd_verify_paper)

    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    _load(args.command)
    return args.func(args)


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left early; the exit flush must not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entry()
