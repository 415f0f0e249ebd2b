import json
import os
import subprocess
import sys
from pathlib import Path

from bhqc.cli import main
from bhqc.dsl import parse_ket

CIRCUITS = Path(__file__).resolve().parent.parent / "circuits"


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        code, _, err = invoke(capsys, "run", str(bad))
        assert code == 1
        assert "unknown gate 'LX'" in err
        assert ":3:" in err

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

    def test_teleport_json_contains_matching_claim(self, capsys):
        code, out, _ = invoke(capsys, "run", str(CIRCUITS / "teleport.bhqc"), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["claims"] and all(c["verdict"] == "MATCH"
                                         for c in payload["claims"])
        assert payload["steps"][-1]["state"] == "(alpha)|000> + (beta)|001>"

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
        assert "interchange-step2: MISMATCH" in out
        assert "class: BISEPARABLE(A-BC)" in out

    def test_bell_shows_the_four_staged_claims(self, capsys):
        code, out, _ = invoke(capsys, "demo", "bell")
        assert code == 0
        assert "Eq.(22) B1: MATCH" in out
        assert "Eq.(23) B2: MATCH" in out
        assert "Eq.(24) B3: MISMATCH (computed -|11>)" in out
        assert "B4-text: MATCH_UP_TO_SCALAR(-1)" in out
        assert "B4-eq25" not in out

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

    def test_symbolic_state_rejected(self, capsys):
        code, _, err = invoke(capsys, "classify", "(alpha)|000>")
        assert code == 1
        assert "symbolic amplitudes are not classifiable" in err

    def test_parse_error(self, capsys):
        code, _, err = invoke(capsys, "classify", "|0")
        assert code == 1
        assert "expected" in err

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

    def test_usage_error_exits_one(self, capsys):
        assert main([]) == 1
        capsys.readouterr()
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_module_entry_point(self):
        root = Path(__file__).resolve().parent.parent
        # the child finds the package where this process does, installed or not
        path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "bhqc", "classify", "|00>"],
            capture_output=True, text=True, cwd=root,
            env={**os.environ, "PYTHONPATH": path})
        assert result.returncode == 0
        assert "class: SEPARABLE" in result.stdout
