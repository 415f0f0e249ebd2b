import contextlib
import gc
import importlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import types
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bhqc
import bhqc.cli
from bhqc.cli import _COMMANDS, _json_text, _plain, build_parser, main
from bhqc.dsl import parse_ket

from _shipped import CIRCUITS

ROOT = Path(__file__).resolve().parent.parent


def child_env() -> dict:
    """The environment for a child interpreter that finds bhqc where this process does."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def bench_module(monkeypatch, stem):
    """``bench/<stem>.py``, loaded from its file under the name its neighbours import."""
    spec = importlib.util.spec_from_file_location(stem, ROOT / "bench" / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, stem, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def assert_indented_json(out):
    """``out`` is the text ``json.dumps(..., indent=2, ensure_ascii=False)`` prints for its value."""
    assert out == json.dumps(json.loads(out), indent=2, ensure_ascii=False) + "\n"


class TestRun:
    def test_bell_b1(self, capsys):
        code, out, err = invoke(capsys, "run", str(CIRCUITS / "bell_b1.bhqc"))
        assert code == 0
        assert "final: |01> + |10>" in out
        assert "MATCH" in out

    def test_trace_flag_shows_steps(self, capsys):
        code, out, _ = invoke(capsys, "run", str(CIRCUITS / "bell_b1.bhqc"), "--trace")
        assert code == 0
        assert "init" in out and "apply LL1 0 1" in out

    def test_syntax_error_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.bhqc"
        bad.write_text("qubits 2\nstate |00>\napply LX 0\n")
        # the error names the file as it was given, unnormalized
        given = f"{tmp_path}/./bad.bhqc"
        code, _, err = invoke(capsys, "run", given)
        assert code == 1
        assert "unknown gate 'LX'" in err
        assert err.startswith(f"{given}:3:")

    def test_missing_file_exits_one(self, capsys):
        code, _, err = invoke(capsys, "run", "no_such_file.bhqc")
        assert code == 1
        assert "error" in err

    def test_non_utf8_file_exits_one_without_traceback(self, tmp_path, capsys):
        bad = tmp_path / "bad.bhqc"
        bad.write_bytes(b"\xff\xfe")
        code, out, err = invoke(capsys, "run", str(bad))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "UTF-8" in err

    def test_a_leading_byte_order_mark_is_not_read(self, tmp_path, capsys):
        plain = CIRCUITS / "bell_b1.bhqc"
        marked = tmp_path / "marked.bhqc"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for flags in ((), ("--trace",), ("--json",)):
            want = invoke(capsys, "run", str(plain), *flags)
            assert want[0] == 0
            assert invoke(capsys, "run", str(marked), *flags) == want

    def test_only_a_leading_byte_order_mark_is_dropped(self, tmp_path, capsys):
        bad = tmp_path / "bad.bhqc"
        bad.write_text("\ufeffqubits 1\n\ufeffstate |0>\n", encoding="utf-8")
        code, _, err = invoke(capsys, "run", str(bad))
        assert code == 1
        assert err.startswith(f"{bad}:2:1: ")

    def test_a_decode_error_after_a_byte_order_mark_gives_its_true_offset(self, tmp_path,
                                                                         capsys):
        bad = tmp_path / "bad.bhqc"
        bad.write_bytes(b"\xef\xbb\xbfqubits 1\n\xff\n")
        code, _, err = invoke(capsys, "run", str(bad))
        assert code == 1
        assert err == f"error: {bad}: not UTF-8 text (invalid start byte at byte 12)\n"

    def test_teleport_json_contains_matching_claim(self, capsys):
        code, out, _ = invoke(capsys, "run", str(CIRCUITS / "teleport.bhqc"), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["claims"] and all(c["verdict"] == "MATCH"
                                         for c in payload["claims"])
        assert payload["steps"][-1]["state"] == "(alpha)|000> + (beta)|001>"

    def test_coefficients_past_the_str_digit_limit(self, tmp_path, capsys):
        n = "9" * 2200
        # (10^2200 - 1)^2 has 4400 digits, past the interpreter's default
        # 4300-digit int-to-str limit
        d = "9" * 2199 + "8" + "0" * 2199 + "1"
        path = tmp_path / "long.bhqc"
        path.write_text(f"qubits 1\nstate (({n})*({n}))|0> - (({n})*({n}))|1>\napply STAR 0\n")
        limit = sys.get_int_max_str_digits()
        code, out, err = invoke(capsys, "run", str(path))
        assert (code, err) == (0, "")
        assert out == f"final: (-{d})|0> + (-{d})|1>\n"
        code, out, err = invoke(capsys, "run", str(path), "--json")
        assert (code, err) == (0, "")
        assert [s["state"] for s in json.loads(out)["steps"]] == [
            f"({d})|0> + (-{d})|1>", f"(-{d})|0> + (-{d})|1>"]
        assert_indented_json(out)
        assert sys.get_int_max_str_digits() == limit

    def test_symbolic_json_layout(self, tmp_path, capsys):
        path = tmp_path / "five.bhqc"
        path.write_text("qubits 5\nsymbols alpha beta\n"
                        "state (alpha)|00000> + (beta~)|11111> - (2*alpha*beta)|01010>\n"
                        "apply CNOT 0 1\napply HPLUS 2\napply STAR 4\n")
        code, out, err = invoke(capsys, "run", str(path), "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["steps"][-1]["state"] == (
            "(-alpha)|00000> + (-alpha)|00100> + ((2)*alpha*beta)|01010>"
            " + ((2)*alpha*beta)|01110> + (-beta~)|10011> + (beta~)|10111>")
        assert_indented_json(out)

    def test_json_states_round_trip_through_the_grammar(self, capsys):
        for name in ("bell_chain.bhqc", "teleport.bhqc", "ghz.bhqc",
                     "class_change.bhqc"):
            code, out, _ = invoke(capsys, "run", str(CIRCUITS / name), "--json")
            assert code == 0
            payload = json.loads(out)
            n = len(payload["steps"][0]["state"].split("|")[1].split(">")[0])
            for step in payload["steps"]:
                ket = parse_ket(step["state"], n_qubits=n)
                assert str(ket) == step["state"]


class TestDemo:
    def test_ghz(self, capsys):
        code, out, _ = invoke(capsys, "demo", "ghz")
        assert code == 0
        assert "|000> + |111>" in out
        assert "class: GHZ" in out
        assert "fts_rank: 4" in out
        assert "size: large" in out
        assert "attractor: true" in out
        assert "brane: four D3-branes intersecting over a string" in out

    def test_class_change_reports_the_susy_transition(self, capsys):
        code, out, _ = invoke(capsys, "demo", "class-change")
        assert code == 0
        assert "1/2 → 1/4 preserved" in out
        assert "line 6 expect-2: MISMATCH (computed |000> + |011>)" in out
        assert "class: BISEPARABLE(A-BC)" in out

    def test_bell_shows_the_four_staged_claims(self, capsys):
        code, out, _ = invoke(capsys, "demo", "bell")
        assert code == 0
        assert "line 6 expect-1: MATCH" in out
        assert "line 8 expect-2: MATCH" in out
        assert "line 10 expect-3: MISMATCH (computed -|11>)" in out
        assert "line 13 expect-4: MISMATCH (computed |11>)" in out
        assert "B4-text" not in out  # the chain runs the Eq.(25) form only

    def test_teleport_skips_classification(self, capsys):
        code, out, _ = invoke(capsys, "demo", "teleport")
        assert code == 0
        assert "classification: skipped (symbolic amplitudes)" in out

    def test_unknown_name(self, capsys):
        code, _, err = invoke(capsys, "demo", "warpdrive")
        assert code == 1
        assert "unknown demo name" in err

    def test_json_payload(self, capsys):
        code, out, _ = invoke(capsys, "demo", "ghz", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["classification"]["class"] == "GHZ"
        assert payload["transition"]["size"] == "small → large (attractor)"

    @pytest.mark.parametrize("name, stem", [("bell", "bell_chain"), ("teleport", "teleport"),
                                            ("ghz", "ghz"), ("class-change", "class_change")])
    def test_reports_the_steps_and_claims_of_the_file_it_runs(self, capsys, name, stem):
        path = str(CIRCUITS / f"{stem}.bhqc")
        demo = json.loads(invoke(capsys, "demo", name, "--json")[1])
        ran = json.loads(invoke(capsys, "run", path, "--json")[1])
        assert (demo["steps"], demo["claims"]) == (ran["steps"], ran["claims"])
        assert ran["claims"]
        # run's text ends with its claim lines; demo's go on, unindented
        block = invoke(capsys, "run", path)[1].split("claims:\n")[1]
        rest = invoke(capsys, "demo", name)[1].split("claims:\n")[1]
        assert rest.startswith(block) and rest[len(block)] != " "


class TestClassify:
    def test_w_state(self, capsys):
        code, out, _ = invoke(capsys, "classify", "|001>+|010>+|100>")
        assert code == 0
        assert "class: W" in out
        assert "susy: 1/8 preserved" in out
        assert "size: small" in out

    def test_two_qubit_state(self, capsys):
        code, out, _ = invoke(capsys, "classify", "|00>")
        assert code == 0
        assert "class: SEPARABLE" in out

    def test_a_state_with_a_leading_minus_follows_a_double_dash(self, capsys):
        # argparse reads "-|00>" as an option; after "--" it is the state
        code, out, _ = invoke(capsys, "classify", "--", "-|00>")
        assert code == 0
        assert "class: SEPARABLE" in out

    def test_symbolic_state_rejected(self, capsys):
        assert invoke(capsys, "classify", "(alpha)|000>") == (
            1, "", "error: symbolic amplitudes are not classifiable\n")

    def test_parse_error(self, capsys):
        assert invoke(capsys, "classify", "|0") == (1, "", "error: line 1, col 3: expected '>'\n")

    def test_one_qubit_state_rejected(self, capsys):
        assert invoke(capsys, "classify", "|0> - |1>") == (
            1, "", "error: classification covers 2- and 3-qubit states only\n")

    def test_too_wide_ket_exits_one_with_one_line(self, capsys):
        code, out, err = invoke(capsys, "classify", "|0000000>")
        assert code == 1
        assert out == ""
        assert err == "error: line 1, col 1: kets have at most 6 qubits\n"

    def test_entropy_past_the_float_range(self, capsys):
        state = f"({'9' * 400})|000>+|111>"
        code, out, _ = invoke(capsys, "classify", state)
        assert code == 0
        # pi * |Det|^(1/2) with Det = (10^400 - 1)^2
        assert out.splitlines()[-1] == "entropy: 3.14159265359e+400"
        code, out, _ = invoke(capsys, "classify", state, "--json")
        assert code == 0
        assert json.loads(out)["entropy"] == "3.14159265359e+400"

    def test_entropy_within_the_float_range_is_a_number(self, capsys):
        state = f"({'9' * 70})|000>+|111>"
        code, out, _ = invoke(capsys, "classify", state)
        assert code == 0
        assert out.splitlines()[-1] == "entropy: 3.14159265359e+70"
        code, out, _ = invoke(capsys, "classify", state, "--json")
        assert json.loads(out)["entropy"] == 3.14159265359e+70

    def test_tau3_below_the_float_range(self, capsys):
        state = f"({'9' * 400})|000>+|111>"
        code, out, err = invoke(capsys, "classify", state)
        assert (code, err) == (0, "")
        # tau3 = 4|Det| / <x|x>^2 = 4N^2 / (N^2 + 1)^2 with N = 10^400 - 1;
        # its square is below the smallest float
        assert "tau3: 4e-800" in out.splitlines()
        code, out, err = invoke(capsys, "classify", state, "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["tau3"] == "4e-800"
        assert_indented_json(out)

    def test_tau3_within_the_float_range_is_a_number(self, capsys):
        state = f"({'9' * 70})|000>+|111>"
        code, out, _ = invoke(capsys, "classify", state)
        assert "tau3: 4e-140" in out.splitlines()
        code, out, _ = invoke(capsys, "classify", state, "--json")
        assert json.loads(out)["tau3"] == 4e-140

    def test_integers_past_the_str_digit_limit(self, capsys):
        n = 2200
        state = f"({'9' * n})|000>+|111>"
        # Det = (10^n - 1)^2 = 10^2n - 2*10^n + 1 has 2n = 4400 digits,
        # past the interpreter's default 4300-digit int-to-str limit
        det = "9" * (n - 1) + "8" + "0" * (n - 1) + "1"
        limit = sys.get_int_max_str_digits()
        code, out, err = invoke(capsys, "classify", state)
        assert (code, err) == (0, "")
        assert f"det: {det}" in out.splitlines()
        assert "tau3: 4e-4400" in out.splitlines()
        code, out, err = invoke(capsys, "classify", state, "--json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["det"] == {"re": det, "im": "0"}
        assert payload["entropy"] == "3.14159265359e+2200"
        assert_indented_json(out)
        assert sys.get_int_max_str_digits() == limit

    def test_json_schema(self, capsys):
        code, out, _ = invoke(capsys, "classify", "|000>+|111>", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "class": "GHZ",
            "ranks": [2, 2, 2],
            "fts_rank": "4",
            "det": {"re": "1", "im": "0"},
            "tau3": 1.0,
            "susy": "1/8-or-broken",
            "size": "large",
            "attractor": True,
            "brane_note": "four D3-branes intersecting over a string",
            "entropy": 3.14159265359,
        }

    def test_two_qubit_json_prints_null_fields(self, capsys):
        code, out, _ = invoke(capsys, "classify", "|00>+|11>", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["class"] == "ENTANGLED"
        assert [k for k, v in payload.items() if v is None] == [
            "fts_rank", "det", "tau3", "susy", "size", "brane_note", "entropy"]
        assert_indented_json(out)


class TestVerifyPaper:
    def test_exit_code_flags_known_mismatches(self, capsys):
        code, out, _ = invoke(capsys, "verify-paper")
        assert code == 2
        assert "Eq.(22) B1: MATCH" in out
        assert "Eq.(24) B3: MISMATCH (computed -|11>)" in out
        assert "summary: 81 claims — 73 MATCH, 1 MATCH_UP_TO_SCALAR, 7 MISMATCH" in out

    def test_json_ledger_round_trips_exact_states(self, capsys):
        code, out, _ = invoke(capsys, "verify-paper", "--json")
        assert code == 2
        payload = json.loads(out)
        assert payload["summary"] == {"total": 81, "match": 73,
                                      "match_up_to_scalar": 1, "mismatch": 7}
        scalar_claims = [c for c in payload["claims"]
                         if c["verdict"] == "MATCH_UP_TO_SCALAR"]
        assert scalar_claims[0]["id"] == "B4-text"
        assert scalar_claims[0]["scalar"] == "-1"
        for claim in payload["claims"]:
            for key in ("expected", "computed"):
                text = claim[key]
                if text == "0":
                    continue  # arity is context the grammar cannot carry
                assert str(parse_ket(text)) == text


class TestDeterminismAndUsage:
    def test_identical_invocations_are_byte_identical(self, capsys):
        _, first, _ = invoke(capsys, "verify-paper")
        _, second, _ = invoke(capsys, "verify-paper")
        assert first == second
        _, d1, _ = invoke(capsys, "demo", "ghz", "--json")
        _, d2, _ = invoke(capsys, "demo", "ghz", "--json")
        assert d1 == d2

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "bhqc", "classify", "|00>"],
            capture_output=True, text=True, cwd=ROOT, env=child_env())
        assert result.returncode == 0
        assert "class: SEPARABLE" in result.stdout

    def test_demo_finds_its_circuit_from_any_directory(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "bhqc", "demo", "ghz"],
            capture_output=True, text=True, encoding="utf-8", cwd=tmp_path, env=child_env())
        assert (result.returncode, result.stderr) == (0, "")
        golden = ROOT / "tests" / "golden" / "demo-ghz.txt"
        assert result.stdout == golden.read_text(encoding="utf-8")

    def test_a_closed_stdout_ends_quietly_with_exit_one(self):
        read, write = os.pipe()
        os.close(read)  # every write to the pipe now fails with EPIPE
        try:
            result = subprocess.run(
                [sys.executable, "-m", "bhqc", "verify-paper"],
                stdout=write, stderr=subprocess.PIPE, text=True, cwd=ROOT, env=child_env())
        finally:
            os.close(write)
        assert (result.returncode, result.stderr) == (1, "")

    @pytest.mark.parametrize("encoding", ["ascii", "cp1252"])
    @pytest.mark.parametrize("argv, code, golden", [
        (["verify-paper"], 2, "verify-paper.txt"),
        (["demo", "ghz", "--json"], 0, "demo-ghz.json"),
    ])
    def test_the_output_is_utf8_under_any_stdout_encoding(self, encoding, argv, code, golden):
        result = subprocess.run(
            [sys.executable, "-m", "bhqc", *argv], capture_output=True, cwd=ROOT,
            env={**child_env(), "PYTHONIOENCODING": encoding})
        assert (result.returncode, result.stderr) == (code, b"")
        assert result.stdout == (ROOT / "tests" / "golden" / golden).read_bytes()

    @pytest.mark.parametrize("argv", [["verify-paper"], ["demo", "ghz"], ["classify", "|00>"]])
    def test_a_stdout_closed_from_the_start_ends_quietly_with_exit_one(self, argv):
        # the child closes fd 1 and then becomes bhqc, which starts with no stdout
        start = ("import os, sys; os.close(1); "
                 "os.execv(sys.executable, [sys.executable, '-m', 'bhqc', *sys.argv[1:]])")
        result = subprocess.run([sys.executable, "-c", start, *argv], stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True, cwd=ROOT, env=child_env())
        assert (result.returncode, result.stderr) == (1, "")


# words a command line may hold: every plain word kind, and forms argparse
# reads its own way (abbreviations, "=", "--", leading "-", non-str words)
_WORDS = [*_COMMANDS, "--json", "--trace", "--js", "--tr", "--j", "--json=1", "-h", "--help",
          "--", "-", "-1", "-1.5", "-x", "", " ", "a b", "-a b", "|00>", "-|00>", "x=y", "—",
          None, b"-x"]
# the words a plain line is made of
_PLAIN_WORDS = [word for word in _WORDS
                if word in ("--json", "--trace") or type(word) is str and word[:1] != "-"]
_PARSER = build_parser()


def argparse_attributes(argv):
    """``vars(build_parser().parse_args(argv))``, or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(_PARSER.parse_args(argv))
        except SystemExit:
            return None


def flags_first(argv):
    """``argv`` with its flags moved in front of its positional."""
    flags = [word for word in argv[1:] if word.startswith("--")]
    return [argv[0], *flags, *(word for word in argv[1:] if word not in flags)]


class TestCommandLine:
    @settings(max_examples=2000, deadline=None)
    @given(st.lists(st.sampled_from(_WORDS), max_size=6)
           | st.builds(lambda command, rest: [command, *rest], st.sampled_from(list(_COMMANDS)),
                       st.lists(st.sampled_from(_WORDS), max_size=5)
                       | st.lists(st.sampled_from(_PLAIN_WORDS), max_size=5)))
    @example([])
    @example(["classify", "", "--json"])
    @example(["run", "—", "--trace", "--json", "--trace"])
    @example(["verify-paper", "--json", "--json"])
    @example(["demo", "classify"])
    def test_a_plain_line_reads_as_argparse_reads_it(self, argv):
        plain = _plain(argv)
        if plain is not None:
            assert plain == argparse_attributes(argv)

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["--help"], ["classify", "--js", "|00>"], ["classify", "--json=1", "|00>"],
        ["classify", "--", "|00>"], ["classify", "-|00>"], ["classify", "-1"],
        ["classify", "|00>", "|11>"], ["classify"], ["verify-paper", "x"], ["frobnicate"],
        ["run", "--trace=", "x"], ["run", "-", "--json"], ["classify", None], [b"classify", "|00>"],
    ])
    def test_every_other_line_is_left_to_argparse(self, argv):
        assert _plain(argv) is None

    def test_every_workload_and_golden_line_is_plain_with_flags_either_side(self, monkeypatch):
        bench_module(monkeypatch, "exact")
        workloads = bench_module(monkeypatch, "workloads")
        lines = [list(case.argv) for name in workloads.WORKLOADS
                 for case in workloads.make(name, 1).cases]
        golden = ROOT / "tests" / "golden"
        kets = [line.split("\t")[1] for line in
                (golden / "classify.txt").read_text(encoding="utf-8").splitlines()]
        circuits = [str(path) for path in sorted(CIRCUITS.glob("*.bhqc"))]
        for command, positionals in [("classify", kets), ("run", circuits),
                                     ("demo", ["bell", "teleport", "ghz", "class-change"]),
                                     ("verify-paper", [None])]:
            flags = [f"--{flag}" for flag in _COMMANDS[command][3]]
            for positional in positionals:
                lines += [[command, *filter(None, [positional]), *order]
                          for k in range(len(flags) + 1) for order in permutations(flags, k)]
        assert {line[0] for line in lines} == set(_COMMANDS)
        assert any(len(line) > 2 for line in lines)
        for argv in lines:
            for form in (argv, flags_first(argv)):
                plain = _plain(form)
                assert plain is not None, form
                assert plain == argparse_attributes(form), form

    @pytest.mark.parametrize("full, other", [
        (["classify", "|000>+|111>", "--json"], ["classify", "|000>+|111>", "--js"]),
        (["classify", "|000>+|111>", "--json"], ["classify", "--json", "|000>+|111>"]),
        (["run", str(CIRCUITS / "teleport.bhqc"), "--trace"],
         ["run", str(CIRCUITS / "teleport.bhqc"), "--tr"]),
        (["run", str(CIRCUITS / "teleport.bhqc"), "--trace"],
         ["run", "--trace", str(CIRCUITS / "teleport.bhqc")]),
        (["run", str(CIRCUITS / "ghz.bhqc"), "--json"], ["run", "--js", str(CIRCUITS / "ghz.bhqc")]),
        (["demo", "ghz", "--json"], ["demo", "--json", "ghz"]),
        (["demo", "ghz", "--json"], ["demo", "ghz", "--js"]),
        (["verify-paper", "--json"], ["verify-paper", "--js"]),
    ])
    def test_abbreviated_and_flag_first_forms_print_what_the_full_forms_print(self, capsys,
                                                                             full, other):
        want = invoke(capsys, *full)
        assert want[0] in (0, 2) and want[1] and want[2] == ""
        assert invoke(capsys, *other) == want


# Runs one command in a fresh interpreter and prints the modules it added.
_FOOTPRINT = """
import contextlib, io, json, sys
before = set(sys.modules)
from bhqc.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({"code": code, "loaded": sorted(set(sys.modules) - before)}))
"""

COMMANDS = {
    "classify": ["classify", "|000> + |111>"],
    "run": ["run", str(CIRCUITS / "ghz.bhqc")],
    "verify-paper": ["verify-paper"],
    "demo": ["demo", "ghz"],
}

def _forms(command: str) -> list[list[str]]:
    """Each plain form of ``command``: bare, and with each flag after and before its positional."""
    bare = COMMANDS[command]
    forms = [bare]
    for flag in (f"--{name}" for name in _COMMANDS[command][3]):
        forms.append([*bare, flag])
        if len(bare) > 1:
            forms.append([bare[0], flag, *bare[1:]])
    return forms


class TestImports:
    @pytest.mark.parametrize("command, used, unused", [
        ("classify", {"bhqc.dsl", "bhqc.classifier"},
         {"bhqc.operators", "bhqc.circuit", "bhqc.claims"}),
        ("run", {"bhqc.dsl", "bhqc.circuit", "bhqc.operators"},
         {"bhqc.claims", "bhqc.classifier"}),
        ("verify-paper", {"bhqc.claims", "bhqc.circuit", "bhqc.operators"},
         {"bhqc.dsl", "bhqc.classifier"}),
        ("demo", {"bhqc.dsl", "bhqc.classifier"}, {"bhqc.claims"}),
    ])
    def test_a_command_imports_only_the_modules_it_runs(self, command, used, unused):
        # in one process an earlier command may have bound a name a later one
        # needs, so each form runs in a fresh one.  -S skips the site step,
        # whose .pth hooks may import typing or pathlib before the snapshot
        for argv in [*_forms(command), [command, "--help"]]:
            result = subprocess.run(
                [sys.executable, "-S", "-c", _FOOTPRINT, *argv],
                capture_output=True, text=True, cwd=ROOT, env=child_env(), check=True)
            report = json.loads(result.stdout)
            loaded = set(report["loaded"])
            if argv[-1] == "--help":
                # only argparse writes help and usage texts
                assert (report["code"], "argparse" in loaded) == (0, True)
                continue
            assert report["code"] in (0, 2), argv
            assert "dataclasses" not in loaded
            # a plain line is read without argparse, its gettext lookup and
            # the shutil its constructor imports
            assert not {"argparse", "gettext", "shutil"} & loaded, argv
            # only annotations use typing, and open reads the files
            assert not {"typing", "pathlib"} & loaded, argv
            assert used <= loaded, argv
            assert not unused & loaded, argv

    @staticmethod
    def _probes(monkeypatch):
        return bench_module(monkeypatch, "probes")

    def test_names_the_tracer_wraps_are_bound_after_each_command_ran(self, capsys,
                                                                      monkeypatch):
        for argv in COMMANDS.values():
            assert main(argv) in (0, 2)
        capsys.readouterr()
        probes = self._probes(monkeypatch)
        wanted = {p.attr for p in probes.PROBES if p.owner == "bhqc.cli"}
        assert {"main", "build_parser", "parse_ket", "classify"} <= wanted
        assert wanted <= set(vars(bhqc.cli))

    def test_a_run_calls_every_ket_method_the_tracer_wraps(self, capsys, monkeypatch):
        # the teleport circuit has a project step, and --trace renders every step
        probes = self._probes(monkeypatch)
        on_ket = [p for p in probes.PROBES if p.owner == "bhqc.states:Ket"]
        assert {p.attr for p in on_ket} >= {"project", "__str__"}
        with probes.Tracer(on_ket) as tracer:
            assert main(["run", str(CIRCUITS / "teleport.bhqc"), "--trace"]) == 0
        capsys.readouterr()
        assert not tracer.absent
        assert set(tracer.calls()) == {p.name for p in on_ket}

    def test_a_later_command_keeps_a_wrapper_around_a_bound_name(self, capsys, monkeypatch):
        assert main(COMMANDS["run"]) == 0
        calls = []
        original = bhqc.cli.run
        monkeypatch.setattr(bhqc.cli, "run", lambda c: calls.append(c) or original(c))
        assert main(COMMANDS["demo"]) == 0
        assert main(COMMANDS["run"]) == 0
        capsys.readouterr()
        assert len(calls) == 2

    def test_the_exported_names(self):
        # a new public name must show up here as an edit
        assert sorted(bhqc.__all__) == [
            "ApplyGate", "CLAIMS", "COSET_CHAIN", "Circuit", "DslError", "Expect", "GATES",
            "GaussianRational", "KNOWN_MISMATCHES", "KNOWN_SCALAR_MATCHES", "Ket", "MATCH",
            "MATCH_UP_TO_SCALAR", "MAX_QUBITS", "MISMATCH", "Operator", "Project",
            "SymbolicAmplitude", "amp", "apply", "classify", "compare_kets",
            "instruction_text", "parse_circuit", "parse_ket", "run", "transition_report",
            "verify_claims"]

    def test_every_exported_name_resolves_to_its_module_object(self):
        assert set(bhqc.__all__) <= set(dir(bhqc))
        for name in bhqc.__all__:
            home = importlib.import_module(f"bhqc.{bhqc._HOME[name]}")
            assert getattr(bhqc, name) is getattr(home, name), name
        with pytest.raises(AttributeError):
            bhqc.no_such_name

    def test_no_exported_name_is_a_module_name(self):
        stems = {path.stem for path in Path(bhqc.__file__).parent.glob("*.py")}
        assert "classifier" in stems
        assert not stems & set(bhqc.__all__)

    def test_importing_every_module_first_leaves_every_export(self):
        # importing a submodule binds it on the package, after which each
        # export must still be its home module's object
        code = ("import importlib, pkgutil, bhqc\n"
                "for m in pkgutil.iter_modules(bhqc.__path__):\n"
                "    importlib.import_module(f'bhqc.{m.name}')\n"
                "for name in bhqc.__all__:\n"
                "    home = importlib.import_module(f'bhqc.{bhqc._HOME[name]}')\n"
                "    assert getattr(bhqc, name) is getattr(home, name), name\n")
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(), check=True)

    def test_the_readme_library_block_prints_what_its_comments_say(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        code = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        # each print's trailing "# " comment gives its line of output, up to any ": "
        want = [line.partition(" # ")[2].split(": ", 1)[0]
                for line in code.splitlines() if line.startswith("print(")]
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                encoding="utf-8", cwd=ROOT, env=child_env())
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout.splitlines() == want
        assert len(want) == 4


# -- the JSON writer: json.dumps(indent=2, ensure_ascii=False), byte for byte --

# quotes, backslashes, control characters, non-ASCII and the line separators
_json_strings = st.text(st.sampled_from('"\\/\x00\x08\t\n\r\x1b\x1f\x7f\x85\u2028\u2029\ufeff'
                                        'é中€😀 a'))
_json_leaves = (st.none() | st.booleans() | st.integers() | st.integers(-10**80, 10**80)
                | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
                | _json_strings)
_json_values = st.recursive(
    _json_leaves,
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(_json_strings, kids, max_size=4)),
    max_leaves=12)


class _Text(str):
    pass


@settings(max_examples=200)
@given(_json_values)
@example({"a": {}, "b": [], "c": (), "d": [{}, [[]], ((),)], "e": {"f": {"g": []}}})
@example({_Text("key"): _Text("value"), "other": [_Text("é\n")], "sub": {_Text("other"): 1}})
@example([True, None, math.nan, -0.0, 10**80])
def test_json_text_is_json_dumps_with_indent_2(value):
    assert _json_text(value) == json.dumps(value, indent=2, ensure_ascii=False)


def test_json_text_leaves_no_garbage():
    # the writer's buffer and pieces must go when the call returns, without
    # waiting in a reference cycle for the collector
    report = bhqc.classify(parse_ket("|000> + |111>")).to_json()
    value = {"claims": [{"id": "a", "n": 1, "states": [report, [], {}]}] * 3,
             "summary": {"total": 3, "tau3": 0.5, "ok": None}}
    expected = json.dumps(value, indent=2, ensure_ascii=False)
    enabled, debug = gc.isenabled(), gc.get_debug()
    gc.disable()
    try:
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        for _ in range(5):
            assert _json_text(value) == expected
        # only a call's own objects count: the collector may also find others,
        # such as a tracer's closures
        gc.collect()
        pieces = [o for o in gc.garbage
                  if type(o) is list and o and all(type(p) is str for p in o)]
        keys = [o for o in gc.garbage if type(o) is dict and o
                and all(type(k) is str and type(v) is str for k, v in o.items())]
        writers = [o for o in gc.garbage
                   if type(o) is types.FunctionType and o.__module__ == "bhqc.cli"]
        assert (pieces, keys, writers) == ([], [], [])
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
        if enabled:
            gc.enable()
