import gc
import operator
import re
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bhqc.operators import GATES, apply
from bhqc.scalars import (GaussianRational, I, MINUS_ONE, ONE, SymbolicAmplitude, ZERO, amp,
                          join_terms, scaled_str)
from bhqc.states import Ket


class TestGaussianRational:
    def test_imaginary_unit_squares_to_minus_one(self):
        assert I * I == GaussianRational(-1)

    def test_integer_addition(self):
        assert GaussianRational(1) + GaussianRational(1) == GaussianRational(2)

    def test_division(self):
        z = GaussianRational(1, 1)
        assert z / z == ONE
        assert (z * z.inverse()) == ONE
        with pytest.raises(ZeroDivisionError):
            ZERO.inverse()

    def test_mixed_arithmetic_with_ints_and_fractions(self):
        assert GaussianRational(1) + 1 == GaussianRational(2)
        assert 2 * GaussianRational(0, 1) == GaussianRational(0, 2)
        assert GaussianRational(Fraction(1, 2)) + Fraction(1, 2) == ONE

    @pytest.mark.parametrize("value, text", [
        (GaussianRational(2), "2"),
        (GaussianRational(-3), "-3"),
        (GaussianRational(Fraction(1, 2)), "1/2"),
        (GaussianRational(0, 1), "i"),
        (GaussianRational(0, -1), "-i"),
        (GaussianRational(0, 2), "2i"),
        (GaussianRational(0, Fraction(1, 2)), "(1/2)i"),
        (GaussianRational(0, -3), "(-3)i"),
        (GaussianRational(Fraction(1, 2), -3), "(1/2)+(-3)i"),
        (ZERO, "0"),
    ])
    def test_rendering(self, value, text):
        assert str(value) == text

    # a part that is no exact int or Fraction, in either place, is refused by name
    @pytest.mark.parametrize("part, value", [
        pytest.param(part, value, id=f"{part}-{label}")
        for part in ("re", "im")
        for label, value in [("float", 0.1), ("str", "1/3"), ("bool", True),
                             ("Decimal", Decimal("0.5")), ("None", None)]])
    def test_a_part_of_another_type_is_a_type_error(self, part, value):
        message = f"{part} must be int or Fraction, not {type(value).__name__}"
        for other in (0, Fraction(1, 2)):
            args = (value, other) if part == "re" else (other, value)
            with pytest.raises(TypeError, match=message):
                GaussianRational(*args)


class TestSymbolicAmplitude:
    def test_additive_inverse_is_zero(self):
        a = amp("alpha")
        assert not (a + (-1) * a)
        assert type(a + (-1) * a) is GaussianRational
        assert a + (-1) * a == ZERO

    def test_rational_coefficients_accumulate(self):
        half = amp(Fraction(1, 2)) * amp("alpha")
        assert half + half == amp("alpha")

    def test_formal_product(self):
        assert dict((amp("alpha") * amp("beta")).items()) == {("alpha", "beta"): ONE}

    def test_ring_identity_difference_of_squares(self):
        a, b = amp("alpha"), amp("beta")
        lhs = (a + b) * (a - b)
        assert dict(lhs.items()) == {("alpha", "alpha"): ONE, ("beta", "beta"): MINUS_ONE}

    def test_only_a_symbol_name_gives_a_symbolic_amplitude(self):
        for value in (5, Fraction(1, 2), GaussianRational(1, -1)):
            assert type(amp(value)) is GaussianRational
        assert amp(5) == GaussianRational(5)
        assert type(amp("alpha")) is SymbolicAmplitude
        assert amp("alpha") != amp(1) and amp(1) != amp("alpha")
        with pytest.raises(TypeError, match="cannot coerce 1.5"):
            amp(1.5)
        for args in ((), ({("alpha",): ONE},)):
            with pytest.raises(TypeError, match="no public constructor"):
                SymbolicAmplitude(*args)  # values come from amp and arithmetic

    # an operand that is no exact number or amplitude, on either side, is
    # refused by the operator it meets, as _coerce refuses it
    @pytest.mark.parametrize("left, right", [
        pytest.param(x, y, id=f"{xid}-{yid}")
        for value, vid in [(amp("a"), "amp"), (ONE, "scalar")]
        for other, oid in [(True, "bool"), (1.5, "float")]
        for (x, xid), (y, yid) in [((value, vid), (other, oid)), ((other, oid), (value, vid))]])
    @pytest.mark.parametrize("op, symbol", [(operator.add, "+"), (operator.sub, "-"),
                                            (operator.mul, "*"), (operator.truediv, "/")],
                             ids=["add", "sub", "mul", "truediv"])
    def test_an_operand_of_another_type_is_refused_by_its_operator(self, left, right, op, symbol):
        with pytest.raises(TypeError, match=re.escape(f"unsupported operand type(s) for {symbol}:")):
            op(left, right)

    # i is the imaginary unit, and the rest are no DSL name: each rendered
    # as text that reads back as something else, or not at all
    @pytest.mark.parametrize("name", ["i", "i~", "", "2", "x + -y", "a b", "x~~", "~", "é"])
    def test_a_name_the_dsl_cannot_read_back_is_rejected(self, name):
        with pytest.raises(ValueError, match="invalid symbol name"):
            amp(name)
        with pytest.raises(ValueError, match="invalid symbol name"):
            Ket(1, {"0": name, "1": 1})

    @pytest.mark.parametrize("value, text", [
        (amp("alpha"), "alpha"),
        (-amp("alpha"), "-alpha"),
        (amp("alpha") * amp("alpha"), "alpha^2"),
        (amp("alpha") + amp("beta~"), "alpha + beta~"),
        (amp("alpha") - amp("beta"), "alpha - beta"),
        (amp(2) * amp("alpha"), "(2)*alpha"),
        (amp(GaussianRational(Fraction(1, 2), -3)) * amp("alpha"), "((1/2)+(-3)i)*alpha"),
        (amp("alpha") - amp("alpha"), "0"),
    ])
    def test_rendering(self, value, text):
        assert str(value) == text


_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)
_scalars = st.builds(GaussianRational, _rationals, _rationals)
_names = st.sampled_from(["a", "a~", "b", "b~", "c"])
_monomials = st.lists(_names, max_size=3).map(tuple)
_term_maps = st.dictionaries(_monomials, _scalars, max_size=4)


def _build(terms):
    """The sum of ``coeff * name * ...`` over ``terms``, built with ``amp`` and arithmetic."""
    total = amp(0)
    for mono, coeff in terms.items():
        term = amp(coeff)
        for name in mono:
            term = term * amp(name)
        total = total + term
    return total


def _terms(a):
    """The term map of an amplitude; a scalar is its constant term."""
    if type(a) is SymbolicAmplitude:
        return dict(a.items())
    assert type(a) is GaussianRational
    return {(): a} if a else {}


_amps = _term_maps.map(_build)


@settings(max_examples=80)
@given(_amps, _amps, _amps)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=80)
@given(_scalars)
def test_symbol_free_modulus_is_real_and_nonnegative(z):
    m = z * GaussianRational(z.re, -z.im)
    assert m.im == 0
    assert m.re >= 0


@settings(max_examples=80)
@given(_amps, _amps)
def test_results_of_amplitude_arithmetic_are_canonical(a, b):
    for r in (a + b, a - b, a * b, -a, a * I, amp(_terms(a).get((), ZERO))):
        monos = list(_terms(r))
        assert monos == sorted(monos)
        assert all(m == tuple(sorted(m)) for m in monos)
        assert all(_terms(r).values())
        # a SymbolicAmplitude keeps a symbol; a symbol-free value is a scalar
        assert (type(r) is SymbolicAmplitude) == any(monos)
        assert r == _build(_terms(r))


def test_scaling_and_negation_keep_the_order_without_a_sort(monkeypatch):
    p = _build({(): I, ("a",): GaussianRational(1, 2), ("a", "b"): ONE, ("b", "b"): MINUS_ONE,
                ("c",): GaussianRational(0, -3)})
    g = GaussianRational(2, 3)
    scaled = sorted((m, c * g) for m, c in p.items())
    negated = sorted((m, -c) for m, c in p.items())

    def no_sort(cls, terms):
        raise AssertionError("scaling and negation need no sort")

    monkeypatch.setattr(SymbolicAmplitude, "_canonical", classmethod(no_sort))
    assert list((p * g).items()) == list((g * p).items()) == scaled
    assert list((-p).items()) == negated


def _ref_sum(p, q):
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, ZERO) + c
    return {m: c for m, c in out.items() if c}


def _ref_product(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            key = tuple(sorted(m1 + m2))
            out[key] = out.get(key, ZERO) + c1 * c2
    return {m: c for m, c in out.items() if c}


@settings(max_examples=120)
@given(_amps, _amps, st.one_of(_names, _rationals, _scalars, st.integers(-3, 3)))
@example(amp("a") + 1, amp("a"), 0)
@example(amp("a") * amp("b"), amp(0), "a")
def test_a_value_is_symbolic_exactly_while_a_symbol_remains(a, b, x):
    p, q = _terms(a), _terms(b)
    minus_q = {m: -c for m, c in q.items()}
    cases = [(a + b, _ref_sum(p, q)), (a - b, _ref_sum(p, minus_q)),
             (a * b, _ref_product(p, q)), (-a, {m: -c for m, c in p.items()}),
             (amp(x), {(x,): ONE} if isinstance(x, str) else {(): ZERO + x} if x else {})]
    for r, want in cases:
        assert type(r) in (GaussianRational, SymbolicAmplitude)
        assert (type(r) is SymbolicAmplitude) == any(want)
        assert _terms(r) == want


# -- differential test against a plain (Fraction, Fraction) reference -------

_parts = st.one_of(
    st.just(Fraction(0)),
    st.integers(-9, 9).map(Fraction),
    st.builds(Fraction, st.integers(-99, 99), st.integers(2, 30)),
)
_pairs = st.tuples(_parts, _parts)


def _ref_mul(p, q):
    return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def _ref_inverse(p):
    d = p[0] * p[0] + p[1] * p[1]
    return (p[0] / d, -p[1] / d)


def _ref_str(p):
    re, im = p
    if not im:
        return str(re)
    if not re:
        if im == 1:
            return "i"
        if im == -1:
            return "-i"
        if im.denominator == 1 and im > 0:
            return f"{im.numerator}i"
        return f"({im})i"
    return f"({re})+({im})i"


def _check(z, p):
    """``z`` has the value of the reference pair ``p``, in canonical form."""
    assert (z.re, z.im) == p
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert z == GaussianRational(*p)
    # a real value hashes as the Fraction it equals, any other as its pair
    assert hash(z) == (hash(p) if p[1] else hash(p[0]))
    assert str(z) == _ref_str(p)


# near the sizes the CLI tests render, and under the str digit limit that
# _ref_str meets: a quotient's numerator has about 3,000 digits
_BIG = 10**1000


@settings(max_examples=300)
@given(_pairs, _pairs)
@example((Fraction(1, 2), Fraction(-3)), (Fraction(0), Fraction(0)))
@example((Fraction(_BIG + 7), Fraction(-_BIG // 10 - 3)),
         (Fraction(1 - _BIG), Fraction(3 * _BIG + 1)))
@example((Fraction(_BIG + 1, 3), Fraction(-2 * _BIG)), (Fraction(_BIG - 1), Fraction(7)))
# the sum's shared denominator 3 divides both its parts
@example((Fraction(_BIG + 1, 3), Fraction(-2 * _BIG)), (Fraction(2 * _BIG + 2, 3), Fraction(5)))
def test_arithmetic_matches_a_fraction_pair_reference(p, q):
    z, w = GaussianRational(*p), GaussianRational(*q)
    _check(z, p)
    _check(z + w, (p[0] + q[0], p[1] + q[1]))
    _check(z - w, (p[0] - q[0], p[1] - q[1]))
    _check(z * w, _ref_mul(p, q))
    _check(-z, (-p[0], -p[1]))
    _check(z + q[0], (p[0] + q[0], p[1]))
    _check(q[0] - z, (q[0] - p[0], -p[1]))
    _check(z * q[1], (p[0] * q[1], p[1] * q[1]))
    if any(q):
        _check(w.inverse(), _ref_inverse(q))
        _check(z / w, _ref_mul(p, _ref_inverse(q)))
    else:
        with pytest.raises(ZeroDivisionError):
            w.inverse()
        with pytest.raises(ZeroDivisionError):
            z / w
    assert (z == w) == (p == q)
    assert bool(z) == any(p)
    if not p[1]:
        assert z == p[0] and p[0] == z
        if p[0].denominator == 1:
            assert z == int(p[0])


@settings(max_examples=200)
@given(_pairs)
@example((Fraction(2), Fraction(0)))
def test_equal_values_hash_equal(p):
    """Also across types: a real value equals, and hashes as, its int or Fraction."""
    z = GaussianRational(*p)
    twice = GaussianRational(2 * p[0], 2 * p[1]) / 2  # built another way
    assert z == twice and hash(z) == hash(twice)
    real = GaussianRational(p[0])
    plain = (p[0], int(p[0])) if p[0].denominator == 1 else (p[0],)
    for x in plain:
        assert real == x and hash(real) == hash(x)
        assert len({x, real}) == 1
        assert {x: "found"}.get(real) == "found"


# -- sharing: results may be their operands, and text is cached ------------

_factors = st.one_of(st.sampled_from([1, -1, ONE, MINUS_ONE, Fraction(-1), I, -I, ZERO, 0]),
                     _scalars, st.integers(-3, 3))


# symbolic values scaled by a unit, either side of it
_SYMBOLIC = (2 * amp("a") - amp("b~"), amp("a") * amp("b") + GaussianRational(0, Fraction(1, 2)))


@settings(max_examples=120)
@given(_amps, _factors, st.booleans())
@example(_SYMBOLIC[0], 1, True)
@example(_SYMBOLIC[0], -1, False)
@example(_SYMBOLIC[1], MINUS_ONE, True)
@example(_SYMBOLIC[1], ONE, False)
def test_scaling_multiplies_every_term(x, g, rendered):
    if rendered:
        str(x)  # fill x's text cache before it is shared
    want = {m: c * g for m, c in _terms(x).items() if c * g}
    for got in (x * g, g * x):
        assert _terms(got) == want
        assert str(got) == str(_build(want))


@settings(max_examples=80)
@given(_term_maps, st.booleans())
def test_sharing_leaves_the_operand_and_its_text_unchanged(terms, rendered):
    x, fresh = _build(terms), _build(terms)
    if rendered:
        str(x)
    if type(x) is SymbolicAmplitude:
        assert x * 1 == x and x * ONE == x
        assert x + 0 is x and 0 + x is x
    neg = -x
    assert str(x) == str(fresh)
    assert str(neg) == str(-fresh)
    assert -neg == x and str(-neg) == str(x)
    if type(x) is SymbolicAmplitude:
        # a negation holds its operand, and the link is no part of the value
        assert -neg is x
        assert x == fresh and neg == -fresh and x != neg
        with pytest.raises(TypeError):
            hash(x)


class TestSharedUnits:
    """+1 and -1 are single objects, so a unit move allocates nothing."""

    def test_one_and_minus_one_are_shared(self):
        assert amp(1) is ONE and amp(-1) is MINUS_ONE
        assert -ONE is MINUS_ONE and -MINUS_ONE is ONE

    def test_a_star_move_hands_on_the_shared_unit(self):
        assert apply(GATES["STAR"], Ket.basis("0")).terms["0"] is MINUS_ONE

    @pytest.mark.parametrize("unit, other", [(ONE, 1), (MINUS_ONE, -1)])
    def test_equality_and_hashing_do_not_depend_on_identity(self, unit, other):
        built = GaussianRational(other)
        assert built is not unit
        for value in (built, Fraction(other), other):
            assert value == unit and unit == value
            assert hash(value) == hash(unit)
        assert -built == -unit and hash(-built) == hash(-unit)


def test_a_negation_pair_is_freed_without_the_cycle_collector():
    enabled, debug = gc.isenabled(), gc.get_debug()
    gc.disable()
    try:
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        x = amp("a") * amp("b") + 2
        neg = -x
        assert -neg is x
        del x, neg
        # a reference cycle would leave the pair for the collector to find;
        # anything else it finds, such as a tracer's closures, is not the pair's
        gc.collect()
        assert not [o for o in gc.garbage if type(o) is SymbolicAmplitude]
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
        if enabled:
            gc.enable()


# -- term text: read from an integer's numerator, as the coefficient's text says --

def _scaled_by_text(coeff, body, sep):
    """``scaled_str``'s rule applied to ``str(coeff)``."""
    text = str(coeff)
    if text == "1":
        return body
    if text == "-1":
        return f"-{body}"
    return f"({text}){sep}{body}"


def _joined_one_by_one(parts):
    out = ""
    for p in parts:
        if not out:
            out = p
        elif p.startswith("-"):
            out += f" - {p[1:]}"
        else:
            out += f" + {p}"
    return out or "0"


def test_rendering_past_the_str_digit_limit_leaves_the_limit_alone(monkeypatch):
    # the limit is process-wide: lifting it, even briefly, lifts it for every thread
    def refuse(maxdigits):
        raise AssertionError("the int-to-str limit was changed")

    monkeypatch.setattr(sys, "set_int_max_str_digits", refuse)
    n = 10 ** 2200 - 1
    # (10^2200 - 1)^2 has 4400 digits, past the default 4300-digit limit
    d = "9" * 2199 + "8" + "0" * 2199 + "1"
    assert str(GaussianRational(-n * n)) == f"-{d}"
    assert str(GaussianRational(Fraction(n * n, 7), n * n)) == f"({d}/7)+({d})i"
    assert scaled_str(GaussianRational(n * n), "X", "*") == f"({d})*X"


# (10^k - 1) with k past the interpreter's 4300-digit int-to-str limit
_long_integers = st.builds(lambda k, sign: GaussianRational(sign * (10 ** k - 1)),
                           st.integers(4250, 4400), st.sampled_from([1, -1]))
_coefficients = st.one_of(_scalars, st.sampled_from([ONE, MINUS_ONE]), _long_integers, _amps)


@settings(max_examples=150)
@given(st.lists(_coefficients, max_size=5), st.sampled_from(["", "*"]))
@example([ONE, MINUS_ONE, GaussianRational(-2), amp("a") - amp("b")], "*")
def test_term_text_is_the_rule_read_off_the_coefficient_text(coeffs, sep):
    parts = [scaled_str(c, f"X{k}", sep) for k, c in enumerate(coeffs)]
    assert parts == [_scaled_by_text(c, f"X{k}", sep) for k, c in enumerate(coeffs)]
    assert join_terms(parts) == _joined_one_by_one(parts)
