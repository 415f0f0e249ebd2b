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

Every ``--json`` text has one layout, ``json.dumps(indent=2,
ensure_ascii=False)``'s.  ``classify`` prints json.dumps itself.  The other
commands print a top-level object (``_object``) whose values are JSON texts
one level down: claim records and run steps (``_claim_rows``,
``_step_rows``), each formatted straight from its fields with no dict in
between; verify-paper's summary, one f-string of its counts; and demo's
classification and transition, json.dumps re-indented (``_dumped``).
"""

from __future__ import annotations

import os
import sys

TYPE_CHECKING = False  # type checkers read it as true, so typing never loads
if TYPE_CHECKING:
    import argparse

    from .circuit import ClaimRecord, Instruction, RunResult
    from .states import Ket

# demo name -> stem of its file in circuits/
_DEMOS = {"bell": "bell_chain", "teleport": "teleport", "ghz": "ghz",
          "class-change": "class_change"}


def _object(fields: dict[str, str]) -> str:
    """The JSON object, at the top level, of ``fields``: each key (an ASCII
    literal) and the JSON text of its value, already laid out one level down."""
    return "{\n  " + ",\n  ".join(f'"{key}": {text}' for key, text in fields.items()) + "\n}"


def _dumped(value: object) -> str:
    """``json.dumps(value, indent=2, ensure_ascii=False)`` one level down.

    json escapes every newline inside a string, so each newline of its text
    is layout and takes the extra indent.
    """
    from json import dumps

    return dumps(value, indent=2, ensure_ascii=False).replace("\n", "\n  ")


def _listed(items: list[str]) -> str:
    """The JSON list, one level down, of the texts ``items``, each already padded as a member."""
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


def _claim_rows(records: list[ClaimRecord], string, with_states: bool = False) -> str:
    """Claim records as ``--json`` prints them one level down, each record one
    f-string of its fields: ``id``, ``location``, ``verdict``, ``scalar`` on a
    MATCH_UP_TO_SCALAR record, then ``expected`` and ``computed`` if
    ``with_states`` (verify-paper).  ``string`` is json's C escaper."""
    texts = []
    for r in records:
        scalar = (f',\n      "scalar": {string(str(r.scalar))}'
                  if r.verdict == MATCH_UP_TO_SCALAR else "")
        states = (f',\n      "expected": {string(str(r.expected))}'
                  f',\n      "computed": {string(str(r.computed))}' if with_states else "")
        texts.append(f'{{\n      "id": {string(r.claim_id)},\n      "location": '
                     f'{string(r.location)},\n      "verdict": {string(r.verdict)}'
                     f'{scalar}{states}\n    }}')
    return _listed(texts)


def _step_rows(steps: list[tuple[Instruction | None, Ket]], string) -> str:
    """A run's steps as ``--json`` prints them one level down, each step one
    f-string of ``instruction`` and ``state``.  ``string`` is json's C escaper."""
    return _listed([f'{{\n      "instruction": {string(instruction_text(ins))},'
                    f'\n      "state": {string(str(state))}\n    }}' for ins, state in steps])


def _result_json(result: RunResult) -> dict[str, str]:
    """The texts of a run's steps and claims, as ``run --json`` and ``demo --json`` print them."""
    from json.encoder import encode_basestring

    return {"steps": _step_rows(result.steps, encode_basestring),
            "claims": _claim_rows(result.claims, encode_basestring)}


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
        print(_object(_result_json(result)))
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
        print(_object({
            **_result_json(result),
            "classification": _dumped(None if report is None else report.to_json()),
            "transition": _dumped(transition),
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
        from json import dumps

        print(dumps(report.to_json(), indent=2, ensure_ascii=False))
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
        from json.encoder import encode_basestring

        print(_object({
            "claims": _claim_rows(records, encode_basestring, with_states=True),
            "summary": f'{{\n    "total": {len(records)},\n    "match": {n_match},'
                       f'\n    "match_up_to_scalar": {n_scalar},'
                       f'\n    "mismatch": {n_mismatch}\n  }}',
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
