import math
import re
import time
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bhqc.circuit
import bhqc.dsl
from bhqc.circuit import ApplyGate, Circuit, Expect, Project
from bhqc.dsl import (MAX_EXPONENT, MAX_NESTING, MAX_PRODUCT_TERMS, DslError, parse_circuit,
                      parse_ket)
from bhqc.scalars import GaussianRational, I, amp
from bhqc.states import Ket

from _exact import Q, exact, vector
from _shipped import CIRCUITS


def amplitude_of(text):
    """The amplitude ``text`` denotes, read as the coefficient of ``(text)|0>``.

    The ``(`` puts each character of ``text`` one column further right.
    """
    return parse_ket(f"({text})|0>").terms.get("0", amp(0))


# a 64-term sum: its square has 2080 terms
WIDE = "(" + "+".join(f"s{k}" for k in range(64)) + ")"


class TestKetExpressions:
    @pytest.mark.parametrize("text, expected", [
        ("|01> + |10>", Ket(2, {"01": 1, "10": 1})),
        ("|01> - |10>", Ket(2, {"01": 1, "10": -1})),
        ("-|11>", Ket(2, {"11": -1})),
        ("(alpha)|0> + (beta)|1>", Ket(1, {"0": amp("alpha"), "1": amp("beta")})),
        ("2|00>", Ket(2, {"00": 2})),
        ("1/2|0>", Ket(1, {"0": GaussianRational(Fraction(1, 2))})),
        ("(1/2)|0>", Ket(1, {"0": GaussianRational(Fraction(1, 2))})),
        ("((1/2)+(-3)i)|0>", Ket(1, {"0": GaussianRational(Fraction(1, 2), -3)})),
        ("(i)|1>", Ket(1, {"1": GaussianRational(0, 1)})),
        ("(-alpha)|1>", Ket(1, {"1": -amp("alpha")})),
        ("(alpha^2 - beta~)|00>", Ket(2, {"00": amp("alpha") * amp("alpha") - amp("beta~")})),
        ("|0> - |0>", Ket.zero(1)),
        pytest.param("(" * MAX_NESTING + "1" + ")" * MAX_NESTING + "|00>", Ket.basis("00"),
                     id="deepest-nesting"),
        # near the nesting bound, rendered text falls to the general grammar,
        # which opens two parentheses for a complex scalar, as the text does
        pytest.param("(" * (MAX_NESTING - 2) + "((1)+(2)i)" + ")" * (MAX_NESTING - 2) + "|0>",
                     Ket(1, {"0": GaussianRational(1, 2)}), id="deepest-complex-scalar"),
        pytest.param("(" * (MAX_NESTING - 1) + "(3/4)" + ")" * (MAX_NESTING - 1) + "|0>",
                     Ket(1, {"0": GaussianRational(Fraction(3, 4))}), id="deepest-real-scalar"),
        pytest.param("((1)+(2)i)i|0>", Ket(1, {"0": GaussianRational(-2, 1)}),
                     id="rotated-complex-scalar"),
        # purely imaginary scalars as str writes them, alone and as coefficients
        pytest.param("((1/2)i)|0>", Ket(1, {"0": GaussianRational(0, Fraction(1, 2))}),
                     id="imaginary-scalar"),
        pytest.param("((-2/3)i)|0>", Ket(1, {"0": GaussianRational(0, Fraction(-2, 3))}),
                     id="negative-imaginary-scalar"),
        pytest.param("(((-1)i)*beta~)|0>", Ket(1, {"0": -I * amp("beta~")}),
                     id="polynomial-imaginary-coefficient"),
        pytest.param("(((0)i)*a + b)|0>", Ket(1, {"0": amp("b")}),
                     id="polynomial-zero-imaginary-coefficient"),
        pytest.param("((1/2)i)i|0>", Ket(1, {"0": GaussianRational(Fraction(-1, 2))}),
                     id="rotated-imaginary-scalar"),
        # a polynomial read in one match opens up to three parentheses
        pytest.param("(" * (MAX_NESTING - 3) + "(((1)+(2)i)*a)" + ")" * (MAX_NESTING - 3) + "|0>",
                     Ket(1, {"0": amp(GaussianRational(1, 2)) * amp("a")}),
                     id="deepest-polynomial"),
        # rendered polynomials, and texts one edit away that read otherwise
        pytest.param("((2)*alpha*i)|0>", Ket(1, {"0": amp(GaussianRational(0, 2)) * amp("alpha")}),
                     id="polynomial-times-i"),
        pytest.param("((2)*alpha)i|0>", Ket(1, {"0": amp(GaussianRational(0, 2)) * amp("alpha")}),
                     id="rotated-polynomial"),
        pytest.param("(-alpha + (2)*beta - (1/2)*alpha)|0>",
                     Ket(1, {"0": amp(Fraction(-3, 2)) * amp("alpha") + 2 * amp("beta")}),
                     id="polynomial-like-terms-collect"),
        pytest.param("(alpha - alpha)|0> + |1>", Ket.basis("1"), id="polynomial-terms-cancel"),
        pytest.param("((0)*alpha + (1)*beta)|0>", Ket(1, {"0": amp("beta")}),
                     id="polynomial-zero-coefficient"),
    ])
    def test_parse(self, text, expected):
        assert parse_ket(text) == expected

    def test_zero_needs_a_qubit_count(self):
        assert parse_ket("0", n_qubits=2) == Ket.zero(2)
        assert parse_ket(" 0\t", n_qubits=2) == Ket.zero(2)
        with pytest.raises(DslError):
            parse_ket("0")

    # every row names itself, so a row inserted mid-table renames no other test
    @pytest.mark.parametrize("text, where", [
        pytest.param("|0> |1>", (1, 5, "unexpected trailing input"), id="|0> |1>-where0"),
        pytest.param("|0>  )", (1, 6, "unexpected trailing input"), id="|0>  )-where1"),
        pytest.param("0", (1, 1, "cannot infer the qubit count of the zero state"), id="0-where2"),
        pytest.param("(1/)|0>", (1, 4, "expected a denominator"), id="(1/)|0>-where3"),
        pytest.param("(1/ 2)|0>", (1, 4, "expected a denominator"), id="(1/ 2)|0>-where4"),
        pytest.param("(1/0)|0>", (1, 4, "denominator cannot be zero"), id="(1/0)|0>-where5"),
        pytest.param("(a^0)|0>", (1, 2, "exponent must be positive"), id="(a^0)|0>-where6"),
        pytest.param("(a^)|0>", (1, 4, "expected a number"), id="(a^)|0>-where7"),
        pytest.param("(a^ 2)|0>", (1, 4, "expected a number"), id="(a^ 2)|0>-where8"),
        pytest.param("3 |0>", (1, 2, "expected '|'"), id="3 |0>-where9"),
        pytest.param("(1/2)(3)|0>", (1, 6, "expected '|'"), id="(1/2)(3)|0>-where10"),
        pytest.param("(2))|0>", (1, 4, "expected '|'"), id="(2))|0>-where11"),
        pytest.param("| 01>", (1, 2, "expected bits after '|'"), id="| 01>-where12"),
        pytest.param("(1 + )|0>", (1, 6, "expected a number, symbol, 'i', or '('"),
                     id="(1 + )|0>-where13"),
        pytest.param("(a*b", (1, 5, "expected ')'"), id="(a*b-where14"),
        pytest.param("|0> + |0", (1, 9, "expected '>'"), id="|0> + |0-where15"),
        pytest.param("(" + "9" * 5000 + ")|0>", (1, 2, "invalid number"), id="5000-nines"),
        pytest.param("|01> + 2|1>", (1, 7, "expected 2-qubit kets throughout"),
                     id="|01> + 2|1>-where17"),
        pytest.param("(" * 101 + "1" + ")" * 101 + "|00>",
                     (1, 101, "parentheses nest at most 100 deep"), id="101-deep"),
        # numbers and bits are ASCII digits only
        pytest.param("(\u0663/\uff14)|0>", (1, 2, "expected a number, symbol, 'i', or '('"),
                     id="(\u0663/\uff14)|0>-where19"),
        pytest.param("(3/\uff14)|0>", (1, 4, "expected a denominator"),
                     id="(3/\uff14)|0>-where20"),
        pytest.param("|0> + \u0662|1>", (1, 7, "expected a coefficient or '|'"),
                     id="|0> + \u0662|1>-where21"),
        pytest.param("(a^\u0662)|0>", (1, 4, "expected a number"), id="(a^\u0662)|0>-where22"),
        pytest.param("|0\u0661>", (1, 3, "expected '>'"), id="|0\u0661>-where23"),
        pytest.param("(a + 2*i~)|0>", (1, 8, "'i' is reserved for the imaginary unit"),
                     id="(a + 2*i~)|0>-where24"),
        # a number literal: p/q, then an "i" suffix only inside parentheses
        pytest.param("(3/)|0>", (1, 4, "expected a denominator"), id="(3/)|0>-where25"),
        pytest.param("(3/ 4)|0>", (1, 4, "expected a denominator"), id="(3/ 4)|0>-where26"),
        pytest.param("(3/0)i|0>", (1, 4, "denominator cannot be zero"), id="(3/0)i|0>-where27"),
        pytest.param("3i|0>", (1, 2, "expected '|'"), id="3i|0>-where28"),
        pytest.param("(3) i|0>", (1, 5, "expected '|'"), id="(3) i|0>-where29"),
        pytest.param("(2ix)|0>", (1, 3, "expected ')'"), id="(2ix)|0>-where30"),
        pytest.param("(2i~)|0>", (1, 3, "expected ')'"), id="(2i~)|0>-where31"),
        pytest.param("(1/" + "9" * 5000 + ")|0>", (1, 4, "invalid number"),
                     id="5000-digit-denominator"),
        # bounds passed at a parenthesised one-term factor
        pytest.param("((a^1000)*(a^30))|0>", (1, 10, "degree must be at most 1024"),
                     id="((a^1000)*(a^30))|0>-where33"),
        pytest.param("(b*(a^1000)*(a^30))|0>", (1, 12, "degree must be at most 1024"),
                     id="(b*(a^1000)*(a^30))|0>-where34"),
        pytest.param("(" + WIDE + "*(a)*" + WIDE + "*(b)*(c+d))|0>",
                     (1, 505, "product expands past 4096 terms"), id="wide*(a)*wide*(b)*(c+d)"),
        # parenthesised numbers with blanks, signs, suffixes and bad digits
        pytest.param("( 1/0 )|0>", (1, 5, "denominator cannot be zero"), id="( 1/0 )|0>-where36"),
        pytest.param("(-1/0)i|0>", (1, 5, "denominator cannot be zero"), id="(-1/0)i|0>-where37"),
        pytest.param("(- 3/)|0>", (1, 6, "expected a denominator"), id="(- 3/)|0>-where38"),
        pytest.param("(3 i)|0>", (1, 4, "expected ')'"), id="(3 i)|0>-where39"),
        pytest.param("(-3)ii|0>", (1, 5, "expected '|'"), id="(-3)ii|0>-where40"),
        pytest.param("(-" + "9" * 5000 + ")|0>", (1, 3, "invalid number"), id="-5000-nines"),
        pytest.param("(\t- 2/4 i )i|0>", (1, 9, "expected ')'"), id="(\t- 2/4 i )i|0>-where42"),
        # scalars in the rendered form keep the general grammar's errors
        pytest.param("(" * (MAX_NESTING - 1) + "((1)+(2)i)" + ")" * (MAX_NESTING - 1) + "|0>",
                     (1, 101, "parentheses nest at most 100 deep"), id="too-deep-complex-scalar"),
        pytest.param("((1/0)+(1)i)|0>", (1, 5, "denominator cannot be zero"),
                     id="complex-scalar-zero-real-denominator"),
        pytest.param("((1)+(1/0)i)|0>", (1, 9, "denominator cannot be zero"),
                     id="complex-scalar-zero-imaginary-denominator"),
        pytest.param("((1)+(" + "9" * 5000 + ")i)|0>", (1, 7, "invalid number"),
                     id="complex-scalar-5000-nines"),
        pytest.param("((1/0)i)|0>", (1, 5, "denominator cannot be zero"),
                     id="imaginary-scalar-zero-denominator"),
        # polynomials in the rendered form keep the general grammar's errors
        pytest.param("(" * (MAX_NESTING - 2) + "(((1)+(2)i)*a)" + ")" * (MAX_NESTING - 2) + "|0>",
                     (1, 101, "parentheses nest at most 100 deep"), id="too-deep-polynomial"),
        pytest.param("((2)*i~)|0>", (1, 6, "'i' is reserved for the imaginary unit"),
                     id="polynomial-i~"),
        pytest.param("((1/0)*alpha)|0>", (1, 5, "denominator cannot be zero"),
                     id="polynomial-zero-denominator"),
        pytest.param("((" + "9" * 5000 + ")*alpha)|0>", (1, 3, "invalid number"),
                     id="polynomial-5000-nines"),
        pytest.param("(a - -b)|0>", (1, 6, "expected a number, symbol, 'i', or '('"),
                     id="polynomial-second-sign"),
        pytest.param("(" + "*".join(["a"] * (MAX_EXPONENT + 1)) + ")|0>",
                     (1, 2049, "degree must be at most 1024"), id="polynomial-1025-names"),
    ])
    def test_exact_error_positions(self, text, where):
        with pytest.raises(DslError) as excinfo:
            parse_ket(text)
        assert (excinfo.value.line, excinfo.value.col, excinfo.value.message) == where

    @pytest.mark.parametrize("text, where", [
        ("0\x0c", (1, 2, "expected '|'")),
        ("\x0b0", (1, 1, "expected a coefficient or '|'")),
    ])
    def test_only_space_and_tab_are_blanks_around_the_zero_state(self, text, where):
        with pytest.raises(DslError) as excinfo:
            parse_ket(text, n_qubits=2)
        assert (excinfo.value.line, excinfo.value.col, excinfo.value.message) == where

    def test_round_trip_through_rendering(self):
        kets = [
            Ket(2, {"01": 1, "10": -1}),
            Ket(1, {"0": amp("alpha"), "1": -amp("beta")}),
            Ket(2, {"00": GaussianRational(Fraction(1, 2), -3)}),
            Ket(3, {"000": amp("alpha") * amp("alpha~"), "111": 2}),
            Ket(1, {"0": GaussianRational(0, Fraction(1, 2))}),
            Ket(1, {"1": GaussianRational(0, -1)}),
        ]
        for ket in kets:
            assert parse_ket(str(ket)) == ket

    def test_inconsistent_arity(self):
        with pytest.raises(DslError, match="2-qubit"):
            parse_ket("|00> + |1>")

    def test_too_wide_ket_is_a_positioned_parse_error(self):
        with pytest.raises(DslError, match="at most 6 qubits") as excinfo:
            parse_ket("2|0000000>")
        assert excinfo.value.col == 1

    def test_digit_characters_int_cannot_read_are_parse_errors(self):
        # "\u00b2" (superscript two) passes str.isdigit but is no ASCII digit
        with pytest.raises(DslError) as excinfo:
            parse_ket("(\u00b2)|0>")
        assert (excinfo.value.col, excinfo.value.message) == (
            2, "expected a number, symbol, 'i', or '('")


class TestAmplitudeExpressions:
    @pytest.mark.parametrize("text, expected", [
        ("2", amp(2)),
        ("-i", amp(GaussianRational(0, -1))),
        ("2i", amp(GaussianRational(0, 2))),
        ("(1/2)i", amp(GaussianRational(0, Fraction(1, 2)))),
        ("(1/2)+(-3)i", amp(GaussianRational(Fraction(1, 2), -3))),
        ("alpha*beta~", amp("alpha") * amp("beta~")),
        ("alpha^2", amp("alpha") * amp("alpha")),
        ("(2)*alpha - beta", 2 * amp("alpha") - amp("beta")),
        ("((1/2)+(-3)i)*alpha", amp(GaussianRational(Fraction(1, 2), -3)) * amp("alpha")),
    ])
    def test_parse(self, text, expected):
        assert amplitude_of(text) == expected

    @pytest.mark.parametrize("text, poly", [
        ("(2*alpha)*beta", {("alpha", "beta"): 2}),
        ("(alpha)*(beta~)*(3)", {("alpha", "beta~"): 3}),
        ("beta*(alpha)*(alpha+beta)", {("alpha", "alpha", "beta"): 1,
                                       ("alpha", "beta", "beta"): 1}),
        ("(0*alpha)*beta", {}),
        ("(2*alpha)i*(beta)", {("alpha", "beta"): Q(0, 2)}),
        ("(alpha)i*(beta)*(alpha-beta)", {("alpha", "alpha", "beta"): Q(0, 1),
                                          ("alpha", "beta", "beta"): Q(0, -1)}),
    ])
    def test_products_with_a_parenthesised_one_term_factor(self, text, poly):
        # read term by term: sorted monomials and no stored zero
        assert vector(parse_ket(f"({text})|0>")) == [poly, {}]

    def test_rendered_amplitudes_round_trip(self, monkeypatch):
        values = [
            amp(GaussianRational(Fraction(1, 2), -3)),
            2 * amp("alpha") - amp("beta~"),
            amp("alpha") * amp("alpha") * amp("beta"),
            amp(GaussianRational(0, -2)) * amp("gamma"),
            amp(GaussianRational(Fraction(-7, 3))),
            amp(GaussianRational(5, Fraction(2, 9))),
            -amp("alpha") + amp(GaussianRational(Fraction(1, 2), -3)) * amp("beta") * amp("gamma~"),
            amp(Fraction(-5, 4)) * amp("alpha~") + amp("beta"),
        ]
        for value in values:
            assert amplitude_of(str(value)) == value

        # a scalar is read in one match unless it renders as i, -i or Ni, and
        # so is a polynomial with no constant term, no power and such
        # coefficients
        def general_grammar(self):
            raise AssertionError("read by the general grammar")

        def whole(c):
            return bool(c.re) or str(c).startswith("(")

        def one_match(value):
            if type(value) is GaussianRational:
                return whole(value)
            return all(mono and len(set(mono)) == len(mono) and whole(c)
                       for mono, c in value.items())

        monkeypatch.setattr(bhqc.dsl._Expr, "amplitude", general_grammar)
        read = [value for value in values if one_match(value)]
        assert len(read) == 7
        for value in read:
            assert amplitude_of(str(value)) == value


# Amplitude trees: ("num", p, q, imag) for p, p/q, pi or p/qi; ("sym", name, k)
# for name^k; ("i",); ("paren", sum, imag) for (sum) or (sum)i.  A sum is
# (negate, [(separator, term), ...]) and a term a list of factors.
_SEPARATORS = {"+": ["+", " + ", "+ "], "-": ["-", " - ", " -"], "*": ["*", " * ", "* "]}
_leaves = st.one_of(
    st.tuples(st.just("num"), st.integers(0, 12), st.sampled_from([None, 1, 2, 3, 9]),
              st.booleans()),
    st.tuples(st.just("sym"), st.sampled_from(["a", "b", "a~", "b~"]), st.integers(1, 3)),
    st.just(("i",)))


def _sums(factors):
    terms = st.lists(factors, min_size=1, max_size=3)
    return st.tuples(st.booleans(), st.lists(st.tuples(st.sampled_from(["+", "-"]), terms),
                                             min_size=1, max_size=3))


_factors = st.recursive(
    _leaves, lambda inner: st.tuples(st.just("paren"), _sums(inner), st.booleans()),
    max_leaves=10)


def _render(node, blanks):
    """Text of a sum, a term or a factor, with blanks drawn from ``blanks``."""
    if isinstance(node, list):
        return blanks.draw(st.sampled_from(_SEPARATORS["*"])).join(
            _render(f, blanks) for f in node)
    kind = node[0]
    if isinstance(kind, bool):
        text = "-" if kind else ""
        for k, (sep, term) in enumerate(node[1]):
            if k:
                text += blanks.draw(st.sampled_from(_SEPARATORS[sep]))
            text += _render(term, blanks)
        return text
    if kind == "num":
        _, p, q, imag = node
        return (str(p) if q is None else f"{p}/{q}") + ("i" if imag else "")
    if kind == "sym":
        _, name, k = node
        return name if k == 1 else f"{name}^{k}"
    if kind == "i":
        return "i"
    _, inner, imag = node
    return f"({_render(inner, blanks)})" + ("i" if imag else "")


def _evaluate(node):
    """The value of a tree, built factor by factor with SymbolicAmplitude arithmetic."""
    if isinstance(node, list):
        return reduce(mul, map(_evaluate, node))
    kind = node[0]
    if isinstance(kind, bool):
        total = amp(0)
        for k, (sep, term) in enumerate(node[1]):
            value = _evaluate(term)
            total = total - value if (sep == "-" and k) or (kind and not k) else total + value
        return total
    if kind == "num":
        _, p, q, imag = node
        value = amp(GaussianRational(Fraction(p, q or 1)))
        return value * amp(I) if imag else value
    if kind == "sym":
        _, name, k = node
        return reduce(mul, [amp(name)] * k)
    if kind == "i":
        return amp(I)
    _, inner, imag = node
    value = _evaluate(inner)
    return value * amp(I) if imag else value


@settings(max_examples=300)
@given(_sums(_factors), st.data())
def test_parsed_amplitude_equals_the_tree_evaluated_factor_by_factor(tree, blanks):
    text = _render(tree, blanks)
    assert amplitude_of(text) == _evaluate(tree), text


_blanks = st.sampled_from(["", " ", "\t", " \t "])


@settings(max_examples=300)
@given(st.booleans(), st.integers(0, 10 ** 6), st.one_of(st.none(), st.integers(1, 10 ** 6)),
       st.booleans(), st.booleans(), st.lists(_blanks, min_size=5, max_size=5))
def test_a_number_atom_with_blanks_reads_as_its_value(negative, p, q, inner, outer, blanks):
    """``(r)``, ``(-r)``, ``(ri)``, each optionally times ``i``, with blanks beside
    each parenthesis and the sign, reads as the value its arithmetic gives."""
    b = blanks
    text = (f"{b[0]}({b[1]}{'-' if negative else ''}{b[2]}{p}{'' if q is None else f'/{q}'}"
            f"{'i' if inner else ''}{b[3]}){'i' if outer else ''}{b[4]}|0> + |1>")
    want = Q(Fraction(-p if negative else p, q or 1))
    for _ in range(inner + outer):
        want = want * Q(0, 1)
    assert vector(parse_ket(text)) == [{(): want} if want else {}, {(): 1}], text


def _read(text):
    """``parse_ket(text)``, or the state of ``parse_circuit(text)`` when ``text``
    is a circuit, and its rendering, or the error's line, column and message."""
    try:
        ket = parse_circuit(text).initial_state if text.startswith("qubits") else parse_ket(text)
    except DslError as exc:
        return exc.line, exc.col, exc.message
    return ket, str(ket)


def _read_generally(text):
    """``_read(text)`` with both one-match reads turned off."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bhqc.dsl, "_SCALAR", re.compile(r"(?!)"))
        patch.setattr(bhqc.dsl, "_POLY", re.compile(r"(?!)"))
        return _read(text)


_gaussians = st.builds(GaussianRational, st.fractions(max_denominator=10 ** 6),
                       st.fractions(max_denominator=10 ** 6))


@st.composite
def _scalar_texts(draw):
    """A rendered scalar as a coefficient, as it stands or with a blank, an
    ``i`` suffix or a digit put in."""
    text = f"({draw(_gaussians)})"
    edit = draw(st.sampled_from(["none", "blank", "i", "digit"]))
    k = draw(st.integers(0, len(text) - 1))
    if edit == "blank":
        text = text[:k] + draw(st.sampled_from([" ", "\t"])) + text[k:]
    elif edit == "i":
        text += "i"
    elif edit == "digit":
        text = text[:k] + draw(st.sampled_from("0123456789")) + text[k + 1:]
    return text + "|0>"


@settings(max_examples=300)
@given(st.one_of(_scalar_texts(), _sums(_factors)), st.data())
@example("((3/9)*a)|0>", None)
def test_a_scalar_read_in_one_match_reads_as_the_general_grammar_reads_it(source, blanks):
    text = source if isinstance(source, str) else f"({_render(source, blanks)})|0>"
    assert _read(text) == _read_generally(text), text


# a monomial's names, most often with no name repeated, so with no power
_poly_names = st.one_of(*[st.lists(st.sampled_from(["a", "b", "alpha", "beta~", "a~"]),
                                   min_size=1, max_size=3, unique=unique)
                          for unique in (True, True, False)])
# integers, which bhqc renders bare for 1 and -1, Gaussian rationals, and
# purely imaginary values: i, which only the general grammar reads, and -2i
_poly_coefficients = st.one_of(st.builds(GaussianRational, st.sampled_from([1, -1, 2, -3])),
                               _gaussians,
                               st.builds(GaussianRational, st.just(0), st.sampled_from([1, -2])))


@st.composite
def _polynomial_texts(draw):
    """A rendered polynomial as a ket's coefficient, as bhqc or ``exact.poly_text``
    writes it, as it stands or with a blank, ``^2``, ``i``, ``-`` or a digit put in,
    and as a ket or as a circuit's state, where ``b`` is undeclared."""
    terms = draw(st.lists(st.tuples(_poly_coefficients, _poly_names), min_size=1, max_size=4))
    if draw(st.booleans()):
        value = amp(0)
        for c, names in terms:
            value = value + reduce(mul, map(amp, names), amp(c))
        text = f"({value})"
    else:
        poly = {}
        for c, names in terms:
            if c:
                poly[tuple(sorted(names))] = exact.Q(c.re, c.im)
        text = exact.poly_text(poly) if poly else "(0)"
    edit = draw(st.sampled_from([None, None, None, " ", "^2", "i", "-", "digit"]))
    if edit is not None:
        k = draw(st.integers(0, len(text)))
        text = text[:k] + (draw(st.sampled_from("0123456789")) if edit == "digit" else edit) + text[k:]
    text += "|0>"
    return draw(st.sampled_from(["", "qubits 1\nsymbols a alpha beta\nstate "])) + text


@settings(max_examples=300)
@given(_polynomial_texts())
def test_a_polynomial_read_in_one_match_reads_as_the_general_grammar_reads_it(text):
    assert _read(text) == _read_generally(text), text


# names of both kinds: identifiers with an optional ~, and short strings of
# the characters a name can be confused with
_symbol_names = st.one_of(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,4}~?", fullmatch=True),
                          st.text(st.sampled_from("ai_~0 +-*/()|>é"), max_size=4))


@settings(max_examples=300)
@given(_symbol_names)
@example("i")
@example("x + -y")
def test_every_name_amp_accepts_reads_back_from_a_ket(name):
    try:
        a = amp(name)
    except ValueError:
        return
    ket = Ket(2, {"00": a, "01": 2 * a * a - I, "10": a * amp("b") + 1, "11": a - amp("b~")})
    assert parse_ket(str(ket)) == ket, str(ket)


@settings(max_examples=300)
@given(_symbol_names)
@example("i~")
@example("a*b~")
def test_every_symbol_a_ket_reads_amp_accepts(name):
    try:
        ket = parse_ket(f"({name})|0>")
    except DslError:
        return
    for a in ket.terms.values():
        if a.has_symbols:
            for mono, _ in a.items():
                for symbol in mono:
                    amp(symbol)


class TestExponentBound:
    def test_huge_exponent_is_rejected_at_its_position(self):
        started = time.perf_counter()
        with pytest.raises(DslError) as excinfo:
            parse_ket("(a^99999999)|0>")
        assert time.perf_counter() - started < 1.0
        assert excinfo.value.col == 4
        assert f"at most {MAX_EXPONENT}" in excinfo.value.message

    def test_exponents_up_to_the_bound_parse(self):
        assert amplitude_of("alpha^2") == amp("alpha") * amp("alpha")
        top = amplitude_of(f"a^{MAX_EXPONENT}")
        assert top.coefficient(("a",) * MAX_EXPONENT) == 1
        assert amplitude_of("*".join(["a"] * MAX_EXPONENT)) == top
        half = MAX_EXPONENT // 2
        mixed = amplitude_of(f"(a^{half} + 3)*b^{half}")
        assert mixed.coefficient(("a",) * half + ("b",) * half) == 1
        assert mixed.coefficient(("b",) * half) == 3
        for zero in (f"0*a^{MAX_EXPONENT}*a", f"a^{MAX_EXPONENT}*0*a^{MAX_EXPONENT}"):
            assert amplitude_of(zero) == 0
        with pytest.raises(DslError):
            amplitude_of(f"a^{MAX_EXPONENT + 1}")

    def test_a_top_degree_chain_with_blanks_parses_within_a_second(self):
        # blanks keep the chain from the one-match read, so the general
        # grammar multiplies it out, re-sorting a longer monomial at each '*'
        text = "(" + " * ".join(["a"] * MAX_EXPONENT) + ")|0>"
        started = time.perf_counter()
        ket = parse_ket(text)
        assert time.perf_counter() - started < 1.0
        assert ket.terms["0"].coefficient(("a",) * MAX_EXPONENT) == 1

    def test_product_degree_is_bounded_at_the_star_that_passes_it(self):
        chain = "*".join(["a"] * (MAX_EXPONENT + 1))
        with pytest.raises(DslError) as excinfo:
            amplitude_of(chain)
        assert excinfo.value.col == len(chain)
        assert f"degree must be at most {MAX_EXPONENT}" in excinfo.value.message
        # (text, which '*' passes the bound): degrees add through sums and parens
        for text, k in [(f"a^{MAX_EXPONENT}*b", 0),
                        (f"2*(a^{MAX_EXPONENT - 1}+b)*c^2", 1),
                        (f"(a^{MAX_EXPONENT}+b)i*b", 0)]:
            with pytest.raises(DslError, match="degree must be at most") as excinfo:
                amplitude_of(text)
            stars = [j + 2 for j, ch in enumerate(text) if ch == "*"]
            assert excinfo.value.col == stars[k]


class TestProductBound:
    SUM = "(a+b+c+d+e+f+g+h+j+k)"

    def test_long_product_is_rejected_at_the_star_that_passes_the_bound(self):
        text = "(" + "*".join([self.SUM] * 20) + ")|000>+|111>"
        started = time.perf_counter()
        with pytest.raises(DslError) as excinfo:
            parse_ket(text)
        assert time.perf_counter() - started < 1.0
        # three factors expand to 220 terms; 220 * 10 passes no bound, but
        # the four-factor product (715 terms) times 10 does, at the fourth '*'
        stars = [k + 1 for k, ch in enumerate(text) if ch == "*"]
        assert excinfo.value.col == stars[3]
        assert f"past {MAX_PRODUCT_TERMS} terms" in excinfo.value.message

    def test_products_up_to_the_bound_parse(self):
        four = amplitude_of("*".join([self.SUM] * 4))
        assert four.coefficient("abcd") == 24
        width = math.isqrt(MAX_PRODUCT_TERMS)
        wide = "(" + "+".join(f"s{k}" for k in range(width)) + ")"
        assert amplitude_of(f"{wide}*{wide}").coefficient(("s0", "s1")) == 2
        with pytest.raises(DslError, match="past"):
            amplitude_of(f"{wide}*{wide}*{wide}")

    def test_a_wide_square_times_a_top_degree_chain_parses_within_a_second(self):
        # blanks keep it from the one-match read; the square's 2,080 terms
        # meet the 1,022 names once, in one product at the end of the chain
        square = "(" + "+".join(f"s{k}" for k in range(64)) + ")"
        names = ["x"] * (MAX_EXPONENT - 2)
        text = "(" + " * ".join([square, square, *names]) + ")|0>"
        started = time.perf_counter()
        ket = parse_ket(text)
        assert time.perf_counter() - started < 1.0
        result = ket.terms["0"]
        assert len(result) == 64 * 65 // 2
        assert result.coefficient(["s0", "s1", *names]) == 2
        assert result.coefficient(["s5", "s5", *names]) == 1


class TestCircuitParsing:
    def test_bell_example(self):
        text = "qubits 2\nstate |00>\napply LL1 0 1\napply STAR 0\napply STAR 1\n"
        circuit = parse_circuit(text)
        assert circuit == Circuit(Ket.basis("00"), (
            ApplyGate("LL1", (0, 1)), ApplyGate("STAR", (0,)), ApplyGate("STAR", (1,))))

    def test_comments_and_blank_lines(self):
        text = "# a comment\nqubits 1\n\nstate |0>  # trailing comment\napply L4 0\n"
        circuit = parse_circuit(text)
        assert circuit.instructions == (ApplyGate("L4", (0,)),)

    def test_symbols_and_conjugates(self):
        text = "qubits 1\nsymbols alpha\nstate (alpha~)|0>\n"
        circuit = parse_circuit(text)
        assert circuit.initial_state == Ket(1, {"0": amp("alpha~")})

    def test_state_defaults_to_all_zeros(self):
        assert parse_circuit("qubits 3\n").initial_state == Ket.basis("000")

    @pytest.mark.parametrize("path", sorted(CIRCUITS.glob("*.bhqc")), ids=lambda p: p.stem)
    def test_each_apply_and_project_line_is_checked_once(self, monkeypatch, path):
        checked = []

        def check_instruction(ins, n_qubits):
            checked.append(ins)
            return check(ins, n_qubits)

        check = bhqc.circuit.check_instruction
        monkeypatch.setattr(bhqc.circuit, "check_instruction", check_instruction)
        circuit = parse_circuit(path.read_text(encoding="utf-8"))
        assert checked == [ins for ins in circuit.instructions if not isinstance(ins, Expect)]
        assert checked

    def test_project_and_expect(self):
        text = ("qubits 2\nstate |00> + |11>\nproject 0 0\nexpect |00>\n")
        result = parse_circuit(text)
        assert result.instructions == (Project("0", (0,)), Expect(Ket.basis("00")))

    @pytest.mark.parametrize("text, line, fragment", [
        ("state |00>\n", 1, "first directive must be 'qubits'"),
        ("qubits 7\n", 1, "between 1 and 6"),
        ("qubits two\n", 1, "must be an integer"),
        ("qubits 2\napply LX 0\n", 2, "unknown gate 'LX'"),
        ("qubits 1\nstate |0>\napply CNOT 0\n", 3, "gate CNOT needs 2 targets"),
        ("qubits 2\napply STAR 5\n", 2, "out of range"),
        ("qubits 2\nproject 00 0\n", 2, "expected 2 targets"),
        ("qubits 2\nstate (alpha)|00>\n", 2, "undeclared symbol 'alpha'"),
        ("qubits 2\nstate |01\n", 2, "expected '>'"),
        ("qubits 2\nstate |02>\n", 2, "bitstring may only contain 0 and 1"),
        ("qubits 2\napply CNOT 0 0\n", 2, "duplicate target"),
        ("qubits 2\nlabels a\n", 2, "expected 2 labels"),
        ("qubits 2\nwiggle 1\n", 2, "unknown directive"),
        ("qubits 2\nstate |00>\nstate |11>\n", 3, "duplicate 'state'"),
        ("qubits 2\nsymbols i\n", 2, "reserved"),
        ("qubits 2\nstate |00> + |1>\n", 2, "2-qubit"),
        ("qubits 2\r\n# note\rapply LX 0\r\n", 3, "unknown gate 'LX'"),
    ])
    def test_positioned_errors(self, text, line, fragment):
        with pytest.raises(DslError) as excinfo:
            parse_circuit(text)
        assert excinfo.value.line == line
        assert excinfo.value.col >= 1
        assert fragment in excinfo.value.message

    # every row names itself, so a row inserted mid-table renames no other test
    @pytest.mark.parametrize("text, where", [
        pytest.param("state |00>\n", (1, 1, "first directive must be 'qubits'"),
                     id="state |00>\n-where0"),
        pytest.param("qubits 7\n", (1, 8, "qubit count must be between 1 and 6"),
                     id="qubits 7\n-where1"),
        pytest.param("qubits two\n", (1, 8, "qubit count must be an integer"),
                     id="qubits two\n-where2"),
        pytest.param("qubits 2\napply LX 0\n", (2, 7, "unknown gate 'LX'"),
                     id="qubits 2\napply LX 0\n-where3"),
        pytest.param("qubits 1\nstate |0>\napply CNOT 0\n", (3, 7, "gate CNOT needs 2 targets"),
                     id="qubits 1\nstate |0>\napply CNOT 0\n-where4"),
        pytest.param("qubits 2\napply STAR 5\n", (2, 12, "target qubit 5 out of range"),
                     id="qubits 2\napply STAR 5\n-where5"),
        pytest.param("qubits 2\nproject 00 0\n", (2, 9, "expected 2 targets for 2 projection bits"),
                     id="qubits 2\nproject 00 0\n-where6"),
        pytest.param("qubits 2\nstate (alpha)|00>\n", (2, 8, "undeclared symbol 'alpha'"),
                     id="qubits 2\nstate (alpha)|00>\n-where7"),
        pytest.param("qubits 2\nstate |01\n", (2, 10, "expected '>'"),
                     id="qubits 2\nstate |01\n-where8"),
        pytest.param("qubits 2\nstate |02>\n", (2, 9, "bitstring may only contain 0 and 1"),
                     id="qubits 2\nstate |02>\n-where9"),
        pytest.param("qubits 2\napply CNOT 0 0\n", (2, 14, "duplicate target qubit 0"),
                     id="qubits 2\napply CNOT 0 0\n-where10"),
        pytest.param("qubits 2\nlabels a\n", (2, 1, "expected 2 labels"),
                     id="qubits 2\nlabels a\n-where11"),
        pytest.param("qubits 2\nwiggle 1\n", (2, 1, "unknown directive 'wiggle'"),
                     id="qubits 2\nwiggle 1\n-where12"),
        pytest.param("qubits 2\nstate |00>\nstate |11>\n", (3, 1, "duplicate 'state' directive"),
                     id="qubits 2\nstate |00>\nstate |11>\n-where13"),
        pytest.param("qubits 2\nsymbols i\n", (2, 9, "'i' is reserved for the imaginary unit"),
                     id="qubits 2\nsymbols i\n-where14"),
        pytest.param("qubits 2\nstate |00> + |1>\n", (2, 13, "expected 2-qubit kets throughout"),
                     id="qubits 2\nstate |00> + |1>\n-where15"),
        pytest.param("qubits 2\nproject 2 0\n", (2, 9, "projection bits must be 0/1"),
                     id="qubits 2\nproject 2 0\n-where16"),
        pytest.param("qubits 2\nproject 01 0 7\n", (2, 14, "target qubit 7 out of range"),
                     id="qubits 2\nproject 01 0 7\n-where17"),
        pytest.param("qubits 3\napply CNOT 2 2\n", (2, 14, "duplicate target qubit 2"),
                     id="qubits 3\napply CNOT 2 2\n-where18"),
        pytest.param("qubits 2\napply STAR\n", (2, 7, "gate STAR needs 1 target"),
                     id="qubits 2\napply STAR\n-where19"),
        pytest.param("qubits 2\napply CNOT 0 x\n", (2, 14, "target must be an integer"),
                     id="qubits 2\napply CNOT 0 x\n-where20"),
        pytest.param("qubits 2\nstate |00> junk\n", (2, 12, "unexpected trailing input"),
                     id="qubits 2\nstate |00> junk\n-where21"),
        pytest.param("qubits 2\nexpect |00> junk\n", (2, 13, "unexpected trailing input"),
                     id="qubits 2\nexpect |00> junk\n-where22"),
        pytest.param("qubits 2\nsymbols a a\n", (2, 11, "symbol 'a' already declared"),
                     id="qubits 2\nsymbols a a\n-where23"),
        pytest.param("qubits 2\nsymbols 2bad\n", (2, 9, "invalid symbol name '2bad'"),
                     id="qubits 2\nsymbols 2bad\n-where24"),
        pytest.param("qubits 2\nsymbols alpha~\n", (2, 9, "invalid symbol name 'alpha~'"),
                     id="qubits 2\nsymbols alpha~\n-where25"),
        pytest.param("qubits 2\nstate\u30000\n", (2, 1, "unknown directive 'state\u30000'"),
                     id="qubits 2\nstate\u30000\n-where26"),
        pytest.param("qubits 2\nexpect 0\x0c\n", (2, 9, "expected '|'"),
                     id="qubits 2\nexpect 0\x0c\n-where27"),
        # words of a directive are split at space and tab only, as in kets
        pytest.param("qubits\u30002\n", (1, 1, "first directive must be 'qubits'"),
                     id="qubits\u30002\n-where28"),
        pytest.param("qubits 2\napply\u3000STAR 0\n", (2, 1, "unknown directive 'apply\u3000STAR'"),
                     id="qubits 2\napply\u3000STAR 0\n-where29"),
        pytest.param("qubits 2\napply STAR\x0c0\n", (2, 7, "unknown gate 'STAR\x0c0'"),
                     id="qubits 2\napply STAR\x0c0\n-where30"),
        pytest.param("qubits 2\nstate \u3000|00>\n", (2, 7, "expected a coefficient or '|'"),
                     id="qubits 2\nstate \u3000|00>\n-where31"),
        # a directive's integer is an optional '-' and a digit run, as in kets
        pytest.param("qubits +2\n", (1, 8, "qubit count must be an integer"),
                     id="qubits +2\n-where32"),
        pytest.param("qubits 0_3\n", (1, 8, "qubit count must be an integer"),
                     id="qubits 0_3\n-where33"),
        pytest.param("qubits 2\napply CNOT 0 +1\n", (2, 14, "target must be an integer"),
                     id="qubits 2\napply CNOT 0 +1\n-where34"),
        pytest.param("qubits 2\nproject 01 0 1_0\n", (2, 14, "target must be an integer"),
                     id="qubits 2\nproject 01 0 1_0\n-where35"),
        pytest.param("qubits 2\napply STAR -1\n", (2, 12, "target qubit -1 out of range"),
                     id="qubits 2\napply STAR -1\n-where36"),
        # integers and numbers are ASCII digits only
        pytest.param("qubits \u0662\n", (1, 8, "qubit count must be an integer"),
                     id="qubits \u0662\n-where37"),
        pytest.param("qubits 2\napply STAR \uff10\n", (2, 12, "target must be an integer"),
                     id="qubits 2\napply STAR \uff10\n-where38"),
        pytest.param("qubits 1\nstate (\u0663/\uff14)|0>\n", (2, 8, "expected a number, symbol, 'i', or '('"),
                     id="qubits 1\nstate (\u0663/\uff14)|0>\n-where39"),
        pytest.param("qubits 1\nstate (3/\uff14)|0>\n", (2, 10, "expected a denominator"),
                     id="qubits 1\nstate (3/\uff14)|0>\n-where40"),
        pytest.param("qubits 1\nsymbols a\nexpect (a*i~)|0>\n", (3, 11, "'i' is reserved for the imaginary unit"),
                     id="qubits 1\nsymbols a\nexpect (a*i~)|0>\n-where41"),
        pytest.param("qubits 1\nsymbols alpha\nstate ((2)*beta)|0>",
                     (3, 12, "undeclared symbol 'beta'"), id="polynomial-undeclared-symbol"),
        pytest.param("qubits 2\nqubits 2", (2, 1, "duplicate 'qubits' directive"),
                     id="duplicate-qubits"),
        pytest.param("qubits\n", (1, 1, "usage: qubits N"), id="qubits-without-count"),
        pytest.param("qubits 2 3\n", (1, 1, "usage: qubits N"), id="qubits-with-two-counts"),
        pytest.param("qubits 2\nsymbols", (2, 1, "usage: symbols name [name ...]"),
                     id="symbols-without-names"),
        pytest.param("qubits 2\nlabels a b\nlabels a b", (3, 1, "duplicate 'labels' directive"),
                     id="duplicate-labels"),
        pytest.param("qubits 2\napply STAR 0\nstate |00>",
                     (3, 1, "'state' must come before instructions"), id="state-after-apply"),
        pytest.param("qubits 2\napply", (2, 1, "usage: apply GATE q [q ...]"),
                     id="apply-without-gate"),
        pytest.param("qubits 2\nproject 0", (2, 1, "usage: project BITS q [q ...]"),
                     id="project-without-targets"),
        # past the interpreter's int digit limit, a digit run is still no count
        pytest.param("qubits " + "9" * 5000, (1, 8, "qubit count must be an integer"),
                     id="qubit-count-past-the-digit-limit"),
    ])
    def test_exact_error_positions(self, text, where):
        # (line, col, message) of each single-fault input, as the parser has
        # always reported them
        with pytest.raises(DslError) as excinfo:
            parse_circuit(text)
        assert (excinfo.value.line, excinfo.value.col, excinfo.value.message) == where

    def test_error_columns_point_at_the_offending_token(self):
        with pytest.raises(DslError) as excinfo:
            parse_circuit("qubits 2\napply LX 0\n")
        assert (excinfo.value.line, excinfo.value.col) == (2, 7)
        with pytest.raises(DslError) as excinfo:
            parse_circuit("qubits 2\nstate |02>\n")
        assert (excinfo.value.line, excinfo.value.col) == (2, 9)

    # characters str.splitlines breaks on that a file's lines may hold
    @pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                           "\u2028", "\u2029"])
    def test_only_line_breaks_end_a_line(self, separator):
        text = f"qubits 2\n# see Eq.(22){separator}and Eq.(23)\nstate |00>\napply LX 0\n"
        with pytest.raises(DslError) as excinfo:
            parse_circuit(text)
        assert (excinfo.value.line, excinfo.value.message) == (4, "unknown gate 'LX'")

    @pytest.mark.parametrize("text, line", [
        ("", 1), ("\n", 1), ("# c", 1), ("# c\n", 1), ("\n\n", 2), ("# a\n\n# c", 3),
        ("# a\r\n# b\r# c\r\n", 3), ("# a\u2028# b\n", 1),
    ])
    def test_a_missing_qubits_directive_is_reported_on_the_last_line(self, text, line):
        with pytest.raises(DslError) as excinfo:
            parse_circuit(text)
        assert (excinfo.value.line, excinfo.value.message) == (line, "missing 'qubits' directive")


class TestRoundTrip:
    def test_symbol_table_shared_between_state_and_expect(self):
        text = ("qubits 1\nsymbols a\nstate (a)|0>\napply L4 0\nexpect (a)|1>\n")
        circuit = parse_circuit(text)
        expected = circuit.instructions[-1].expected
        assert expected == Ket(1, {"1": amp("a")})
