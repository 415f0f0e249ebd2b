"""The CLI contract: every input ends with exit 0, 1 or 2, never an exception.

Hypothesis mutates the shipped circuit files and a set of ``classify``
arguments, and nests valid amplitudes in parentheses up to 2,000 deep, and
sends each input through ``main`` in process, under a per-example deadline.
Explicit cases pin one-line inputs that used to run for seconds or hours (a
product of symbol sums that would expand to millions of terms, a long chain
of top-degree powers, a 4,096-term product times thousands of one-term
factors) or to end in a RecursionError (10,000 nested parentheses).  A
failing run's message is one printable line, whatever characters its input
or its file name holds.
"""

import contextlib
import io
import time
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhqc.cli import main
from bhqc.dsl import MAX_EXPONENT, MAX_NESTING, MAX_PRODUCT_TERMS

from _shipped import CIRCUITS

CIRCUIT_TEXTS = [p.read_text(encoding="utf-8") for p in sorted(CIRCUITS.glob("*.bhqc"))]
STATES = ["|000>+|111>", "|001>+|010>+|100>", "(1/2)|00>-(i)|11>",
          "(alpha)|0>+(beta)|1>", "((1/2)+(-3)i)|01>+(a^2*b~)|10>",
          "(2)|000>+(3/4)|011>-|101>", "0"]
# characters the grammar gives meaning to, plus a few it rejects
ALPHABET = "01|<>()+-*/^~i abq\n\t#23456789" + "α⁹é"
CONTRACT = settings(max_examples=150, deadline=timedelta(seconds=2))
# valid amplitudes under the declarations of NESTED_CIRCUIT
AMPLITUDES = ["1", "1/2", "-3", "i", "(1/2)+(-3)i", "alpha", "alpha^2*beta~ - 2"]
NESTED_CIRCUIT = "qubits 3\nsymbols alpha beta\nstate {state}\nexpect {expect}\n"


@st.composite
def mutants(draw, seeds):
    """A seed text after one to four character-level edits."""
    text = draw(st.sampled_from(seeds))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 8)))
        edit = draw(st.sampled_from(["insert", "delete", "replace", "duplicate"]))
        if edit == "insert":
            text = text[:i] + draw(st.text(ALPHABET, min_size=1, max_size=8)) + text[i:]
        elif edit == "delete":
            text = text[:i] + text[j:]
        elif edit == "replace":
            text = text[:i] + draw(st.text(ALPHABET, min_size=1, max_size=3)) + text[j:]
        else:
            text = text[:j] + text[i:j] + text[j:]
    return text


@st.composite
def nested_amplitudes(draw):
    """A valid amplitude inside 1 to 2,000 pairs of parentheses."""
    depth = draw(st.integers(1, 2000))
    return "(" * depth + draw(st.sampled_from(AMPLITUDES)) + ")" * depth


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _one_printable_line(err):
    return err.endswith("\n") and err[:-1].isprintable()


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@CONTRACT
@given(text=mutants(CIRCUIT_TEXTS),
       junk=st.none() | st.tuples(st.integers(0, 400), st.binary(min_size=1, max_size=2)),
       flags=st.sampled_from([[], ["--trace"], ["--json"]]))
def test_mutated_circuit_files(work_dir, text, junk, flags):
    data = text.encode("utf-8")
    if junk is not None:  # raw bytes, often not UTF-8
        at, raw = junk
        data = data[:at] + raw + data[at:]
    path = work_dir / "mutant.bhqc"
    path.write_bytes(data)
    code, _, err = _call(["run", str(path), *flags])
    assert code in (0, 1)
    if code:
        assert _one_printable_line(err), err
    else:
        assert err == ""


@CONTRACT
@given(state=mutants(STATES), flags=st.sampled_from([[], ["--json"]]))
def test_mutated_classify_arguments(state, flags):
    code, _, err = _call(["classify", state, *flags])
    assert code in (0, 1, 2)
    assert "Traceback" not in err


# an escape sequence, two characters that str.splitlines breaks at but a
# circuit file does not, and a form feed, which splits no word of a line
UNPRINTABLE = pytest.mark.parametrize("char", ["\x1b[31m", "\u2028", "\x85", "\x0c"],
                                      ids=["escape", "U+2028", "U+0085", "form-feed"])


@UNPRINTABLE
@pytest.mark.parametrize("line", ["ST{}AR 0", "apply ST{}AR 0"], ids=["directive", "gate"])
def test_an_unprintable_character_in_a_circuit_word_is_quoted(work_dir, line, char):
    path = work_dir / "unprintable.bhqc"
    path.write_text("qubits 2\n" + line.format(char) + "\n", encoding="utf-8")
    code, out, err = _call(["run", str(path)])
    assert (code, out) == (1, "")
    assert _one_printable_line(err), err
    assert repr(f"ST{char}AR") in err


@UNPRINTABLE
def test_an_unprintable_character_in_a_demo_name_is_quoted(char):
    name = f"gh{char}z"
    code, out, err = _call(["demo", name])
    assert (code, out) == (1, "")
    assert _one_printable_line(err), err
    assert err.startswith(f"error: unknown demo name {name!r} (choose from ")


@pytest.mark.parametrize("char", ["\x1b", "\n", "\u2028", "\x85"],
                         ids=["escape", "newline", "U+2028", "U+0085"])
@pytest.mark.parametrize("data", [b"frob x\n", b"qubits 2\n\xff\n"],
                         ids=["unknown-directive", "not-utf8"])
def test_an_unprintable_character_in_a_file_name_is_quoted(work_dir, char, data):
    path = work_dir / f"bad{char}name.bhqc"
    path.write_bytes(data)
    code, out, err = _call(["run", str(path)])
    assert (code, out) == (1, "")
    assert _one_printable_line(err), err
    assert repr(str(path)) in err


def test_long_product_of_symbol_sums_exits_one_within_a_second():
    factor = "(a+b+c+d+e+f+g+h+j+k)"
    state = "(" + "*".join([factor] * 20) + ")|000>+|111>"
    started = time.perf_counter()
    code, out, err = _call(["classify", state])
    assert time.perf_counter() - started < 1.0
    assert (code, out) == (1, "")
    assert err.startswith("error: line 1, col ") and err.count("\n") == 1
    assert f"past {MAX_PRODUCT_TERMS} terms" in err


@pytest.mark.parametrize("factor, count", [("1", 5000), ("x", MAX_EXPONENT - 2),
                                           ("(x)", MAX_EXPONENT - 2)],
                         ids=["numbers", "names", "parenthesised-names"])
def test_many_term_product_times_one_term_factors_exits_one_within_a_second(factor, count):
    # each one-term factor keeps the product within both bounds, so only
    # the time it costs to multiply out stops the line
    sums = ["(" + "+".join(f"{x}{k}" for k in range(64)) + ")" for x in "ab"]
    state = "(" + "*".join(sums + [factor] * count) + ")|000>+|111>"
    started = time.perf_counter()
    code, out, err = _call(["classify", state])
    assert time.perf_counter() - started < 1.0
    assert (code, out, err) == (1, "", "error: symbolic amplitudes are not classifiable\n")


def test_long_chain_of_top_powers_exits_one_within_a_second():
    state = "(" + "*".join([f"a^{MAX_EXPONENT}"] * 800) + ")|000>+|111>"
    started = time.perf_counter()
    code, out, err = _call(["classify", state])
    assert time.perf_counter() - started < 1.0
    assert (code, out) == (1, "")
    # rejected at the first '*', before any product is formed
    col = state.index("*") + 1
    assert err == f"error: line 1, col {col}: degree must be at most {MAX_EXPONENT}\n"


@CONTRACT
@given(amplitude=nested_amplitudes(), in_state=st.booleans(),
       flags=st.sampled_from([[], ["--trace"], ["--json"]]))
def test_nested_parentheses_in_circuit_files(work_dir, amplitude, in_state, flags):
    ket = f"{amplitude}|000> + |111>"
    plain = "|000> + |111>"
    text = NESTED_CIRCUIT.format(state=ket if in_state else plain,
                                 expect=plain if in_state else ket)
    path = work_dir / "nested.bhqc"
    path.write_text(text, encoding="utf-8")
    code, _, err = _call(["run", str(path), *flags])
    assert code in (0, 1)
    if code:
        assert _one_printable_line(err), err
    else:
        assert err == ""


@CONTRACT
@given(amplitude=nested_amplitudes(), flags=st.sampled_from([[], ["--json"]]))
def test_nested_parentheses_in_classify_arguments(amplitude, flags):
    code, _, err = _call(["classify", f"{amplitude}|000>+|111>", *flags])
    assert code in (0, 1, 2)
    assert "Traceback" not in err


DEEP = "(" * 10_000 + "1" + ")" * 10_000 + "|00>"


def test_ten_thousand_nested_parentheses_in_a_classify_argument_exit_one():
    code, out, err = _call(["classify", DEEP])
    assert (code, out) == (1, "")
    # rejected at the first '(' past the bound
    message = f"parentheses nest at most {MAX_NESTING} deep"
    assert err == f"error: line 1, col {MAX_NESTING + 1}: {message}\n"


def test_ten_thousand_nested_parentheses_in_a_circuit_file_exit_one(work_dir):
    path = work_dir / "deep.bhqc"
    path.write_text(f"qubits 2\nstate {DEEP}\n", encoding="utf-8")
    code, out, err = _call(["run", str(path)])
    assert (code, out) == (1, "")
    col = len("state ") + MAX_NESTING + 1
    assert err == f"{path}:2:{col}: parentheses nest at most {MAX_NESTING} deep\n"
