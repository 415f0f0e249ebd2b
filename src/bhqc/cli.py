"""Command-line front end.

Commands: ``run <file>``, ``demo <name>``, ``classify <state>``, and
``verify-paper``; flags ``--json`` and ``--trace``.  Output is fully
deterministic (there is no randomness anywhere in the tool).  Exit codes:
0 success, 1 usage or parse error, 2 when verify-paper finds any MISMATCH
(the expected outcome, since the catalog contains known divergences).

A plain command line is read straight from ``_COMMANDS``; argparse, which
owns the help and usage texts, is imported only for help, usage errors and
the other forms it accepts (abbreviated flags, ``--``).  Each command's row
also names what the command calls, bound from the package when it runs, so
a process imports only the modules its command uses.

Every ``--json`` text comes from one writer, ``_json_text``.  Claim records
and run steps, whose shape is fixed, reach it as rows (``_claim_rows``,
``_step_rows``): each record is formatted straight from its fields, with no
dict in between.
"""

from __future__ import annotations

import os
import sys
from math import isfinite

TYPE_CHECKING = False  # type checkers read it as true, so typing never loads
if TYPE_CHECKING:
    import argparse

    from .circuit import ClaimRecord, Instruction, RunResult
    from .states import Ket

# demo name -> stem of its file in circuits/
_DEMOS = {"bell": "bell_chain", "teleport": "teleport", "ghz": "ghz",
          "class-change": "class_change"}


def _json_text(obj: object) -> str:
    """``json.dumps(obj, indent=2, ensure_ascii=False)``, byte for byte.

    CPython 3.10-3.13 drops to its pure-Python encoder whenever ``indent``
    is set.  This writer pads the containers itself and sends every string
    through the C escaper that ``ensure_ascii=False`` uses.  Dict keys are
    strings.  A value may also be *rows*, a list whose shape is known in
    advance: a callable ``rows(pad, string)`` (``_claim_rows``,
    ``_step_rows``) that returns the list's text at that indent, escaping
    every string with ``string``.  The writer is a module-level function
    handed the buffer's append, so no reference cycle keeps a call's pieces
    alive until the collector runs.
    """
    from json.encoder import encode_basestring

    out: list[str] = []
    _write(obj, "\n", out.append, encode_basestring, {})
    return "".join(out)


def _write(value: object, pad: str, put, string, keys: dict[str, str]) -> None:
    """Append the JSON text of ``value`` to a buffer, piece by piece, with ``put``.

    pad is the newline and indent of the line that holds value; string is
    the escaper; keys maps each dict key met so far in this call to its
    escaped text and ``": "``.  A rows value writes its own text, which is
    put as it is.
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
    elif callable(value):
        put(value(pad, string))
    elif type(value) is int or type(value) is float and isfinite(value):
        put(repr(value))  # the text json itself writes for them
    else:
        from json import dumps
        put(dumps(value))  # bools, None, NaN and the infinities


def _listed(pad: str, items: list[str]) -> str:
    """The JSON list at ``pad`` of the texts ``items``, each already padded as a member."""
    if not items:
        return "[]"
    inner = pad + "  "
    return f"[{inner}" + f",{inner}".join(items) + pad + "]"


def _claim_rows(records: list[ClaimRecord], with_states: bool = False):
    """Rows of claim records as ``--json`` prints them, each record one
    f-string of its fields: ``id``, ``location``, ``verdict``, ``scalar`` on
    a MATCH_UP_TO_SCALAR record, then ``expected`` and ``computed`` if
    ``with_states`` (verify-paper)."""
    def rows(pad: str, string) -> str:
        close = pad + "  "
        field = close + "  "
        texts = []
        for r in records:
            scalar = (f',{field}"scalar": {string(str(r.scalar))}'
                      if r.verdict == MATCH_UP_TO_SCALAR else "")
            states = (f',{field}"expected": {string(str(r.expected))}'
                      f',{field}"computed": {string(str(r.computed))}' if with_states else "")
            texts.append(f'{{{field}"id": {string(r.claim_id)},{field}"location": '
                         f'{string(r.location)},{field}"verdict": {string(r.verdict)}'
                         f'{scalar}{states}{close}}}')
        return _listed(pad, texts)
    return rows


def _step_rows(steps: list[tuple[Instruction | None, Ket]]):
    """Rows of a run's steps as ``--json`` prints them, each step one
    f-string of ``instruction`` and ``state``."""
    def rows(pad: str, string) -> str:
        close = pad + "  "
        field = close + "  "
        return _listed(pad, [f'{{{field}"instruction": {string(instruction_text(ins))},'
                             f'{field}"state": {string(str(state))}{close}}}'
                             for ins, state in steps])
    return rows


def _result_json(result: RunResult) -> dict:
    """The steps and claims of a run, as ``run --json`` and ``demo --json`` print them."""
    return {"steps": _step_rows(result.steps), "claims": _claim_rows(result.claims)}


def _print_steps(result: RunResult) -> None:
    for index, (ins, state) in enumerate(result.steps):
        print(f"step {index:>2}  {instruction_text(ins):<24} {state}")


def _print_claims(result: RunResult) -> None:
    if result.claims:
        print("claims:")
        for record in result.claims:
            print(f"  {record.summary()}")


def _cmd_run(path: str, json: bool, trace: bool) -> int:
    try:
        # a leading byte-order mark is no text; decoding it as utf-8 (not
        # utf-8-sig) keeps the byte offsets of decode errors true
        with open(path, encoding="utf-8") as file:
            text = file.read().removeprefix("\ufeff")
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
    if json:
        print(_json_text(_result_json(result)))
        return 0
    if trace:
        _print_steps(result)
    print(f"final: {result.final_state}")
    _print_claims(result)
    return 0


def _cmd_demo(name: str, json: bool) -> int:
    if name not in _DEMOS:
        known = ", ".join(sorted(_DEMOS))
        print(f"error: unknown demo name '{name}' (choose from {known})",
              file=sys.stderr)
        return 1
    path = os.path.join(os.path.dirname(__file__), "circuits", f"{_DEMOS[name]}.bhqc")
    with open(path, encoding="utf-8") as file:
        circuit = parse_circuit(file.read())
    result = run(circuit)
    try:
        before, report = classify(circuit.initial_state), classify(result.final_state)
    except ValueError:  # symbolic amplitudes or a qubit count
        report = transition = None
    else:
        transition = transition_report(before, report)

    if json:
        print(_json_text({
            **_result_json(result),
            "classification": None if report is None else report.to_json(),
            "transition": transition,
        }))
        return 0

    print(f"demo: {name}")
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


def _cmd_classify(state: str, json: bool) -> int:
    try:
        report = classify(parse_ket(state))
    except ValueError as exc:  # a DslError, symbolic amplitudes or a qubit count
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if json:
        print(_json_text(report.to_json()))
    else:
        for line in report.lines():
            print(line)
    return 0


def _cmd_verify_paper(json: bool) -> int:
    records = verify_claims()
    counts = dict.fromkeys((MATCH, MATCH_UP_TO_SCALAR, MISMATCH), 0)
    for record in records:
        counts[record.verdict] += 1
    n_match, n_scalar, n_mismatch = counts.values()
    if json:
        print(_json_text({
            "claims": _claim_rows(records, with_states=True),
            "summary": {"total": len(records), "match": n_match,
                        "match_up_to_scalar": n_scalar, "mismatch": n_mismatch},
        }))
    else:
        for record in records:
            print(record.summary())
        print(f"summary: {len(records)} claims — {n_match} MATCH, "
              f"{n_scalar} MATCH_UP_TO_SCALAR, {n_mismatch} MISMATCH")
    return 2 if n_mismatch else 0


# command -> its help text, its positional and that positional's metavar
# (None for none), its flags, the names it calls, and the function that runs
# it, called with the positional and each flag as keyword arguments
_COMMANDS = {
    "run": ("execute a .bhqc circuit file", "path", None, ("json", "trace"),
            ("DslError", "parse_circuit", "instruction_text", "run", "MATCH_UP_TO_SCALAR"),
            _cmd_run),
    "demo": ("run a canned circuit with classification",
             "name", "{" + ",".join(_DEMOS) + "}", ("json",),
             ("parse_circuit", "instruction_text", "run", "MATCH_UP_TO_SCALAR", "classify",
              "transition_report"),
             _cmd_demo),
    "classify": ("classify an inline 2- or 3-qubit state", "state", None, ("json",),
                 ("parse_ket", "classify"), _cmd_classify),
    "verify-paper": ("re-derive the full identity catalog and report verdicts",
                     None, None, ("json",),
                     ("MATCH", "MATCH_UP_TO_SCALAR", "MISMATCH", "verify_claims"),
                     _cmd_verify_paper),
}


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="bhqc",
        description="Exact simulator, identity verifier, and SLOCC classifier "
                    "for the black-hole/qubit-correspondence gate algebra.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, positional, metavar, flags, *_) in _COMMANDS.items():
        p_command = sub.add_parser(command, help=text)
        if positional:
            p_command.add_argument(positional, metavar=metavar)
        for flag in flags:
            p_command.add_argument(f"--{flag}", action="store_true")
    return parser


def _plain(words: list) -> dict | None:
    """The attributes argparse gives ``words``, read from ``_COMMANDS``, or
    None when ``words`` is not a plain command line.

    A plain line is a command, then ``str`` words: that command's flags
    spelled out in full, and as many words not starting with ``-`` as it
    takes positionals.  Every other line (help, abbreviations, ``--``, a
    word starting with ``-``, too few or too many words) is argparse's.
    """
    if not words or any(type(word) is not str for word in words) or words[0] not in _COMMANDS:
        return None
    command = words[0]
    _, positional, _, flags, *_ = _COMMANDS[command]
    args = {"command": command, **dict.fromkeys(flags, False)}
    values = []
    for word in words[1:]:
        if word[:2] == "--" and word[2:] in flags:
            args[word[2:]] = True
        elif word[:1] == "-":
            return None
        else:
            values.append(word)
    if len(values) != (positional is not None):
        return None
    if values:
        args[positional] = values[0]
    return args


def main(argv: list[str] | None = None) -> int:
    words = sys.argv[1:] if argv is None else list(argv)
    args = _plain(words)
    if args is None:
        try:
            args = vars(build_parser().parse_args(words))
        except SystemExit as exc:
            return 0 if exc.code in (0, None) else 1
    *_, names, function = _COMMANDS[args.pop("command")]
    # commands call these names as globals of this module, read from the
    # package, which imports each name's module on first access; a name
    # already bound is left alone, so a wrapper put in its place (a tracer's,
    # say) survives a later command that needs the same name
    package, bound = sys.modules[__package__], globals()
    for name in names:
        bound.setdefault(name, getattr(package, name))
    return function(**args)


def entry() -> None:
    if sys.stdout is None:  # fd 1 is closed, so nothing can be written
        sys.exit(1)
    # the output is UTF-8 text, whatever the locale or PYTHONIOENCODING says
    sys.stdout.reconfigure(encoding="utf-8")
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left early; the exit flush must not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
