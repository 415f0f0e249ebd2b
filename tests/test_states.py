from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhqc.dsl import parse_ket
from bhqc.operators import Operator
from bhqc.scalars import GaussianRational, amp
from bhqc.states import Ket

from _kets import permute


class TestConstruction:
    def test_basis_ket(self):
        k = Ket(1, {"0": 1})
        assert k == Ket.basis("0")
        assert str(k) == "|0>"

    def test_formal_qubit(self):
        k = Ket(1, {"1": amp("alpha"), "0": amp("beta")})
        assert k.terms == {"0": amp("beta"), "1": amp("alpha")}
        assert k.has_symbols

    def test_malformed_bitstring(self):
        with pytest.raises(ValueError, match="bitstring"):
            Ket(2, {"0": 1})
        with pytest.raises(ValueError, match="bitstring"):
            Ket(1, {"2": 1})

    @pytest.mark.parametrize("build, match", [
        (lambda: Ket(2.0, {}), "n_qubits must be int, not float"),
        (lambda: Ket(True, {}), "n_qubits must be int, not bool"),
        (lambda: Ket(2, {0: 1}), "bitstring must be str, not int"),
        (lambda: Ket.basis(5), "bits must be str, not int"),
        (lambda: Operator(1.0), "arity must be int, not float"),
    ], ids=["width float", "width bool", "bitstring int", "basis int", "arity float"])
    def test_a_wrongly_typed_width_or_bitstring_is_named(self, build, match):
        with pytest.raises(TypeError, match=match):
            build()

    def test_qubit_count_bounds(self):
        with pytest.raises(ValueError, match="between 1 and 6"):
            Ket.zero(0)
        with pytest.raises(ValueError, match="between 1 and 6"):
            Ket.zero(7)

    def test_duplicates_sum_and_zeros_drop(self):
        k = parse_ket("|0> - |0> + (2)|1>")
        assert k == Ket(1, {"1": 2})
        assert "0" not in k.terms
        assert parse_ket("|0> - |0>") == Ket.zero(1)

    def test_symbol_free_amplitudes_are_stored_as_scalars(self):
        # the symbols of alpha + 1 - alpha cancel
        k = Ket(2, {"00": 1, "01": Fraction(1, 2), "10": amp(3),
                    "11": amp("alpha") + 1 - amp("alpha")})
        assert all(type(a) is GaussianRational for a in k.terms.values())
        assert k == Ket(2, {"00": 1, "01": Fraction(1, 2), "10": 3, "11": 1})

    def test_zero_ket_is_legal(self):
        z = Ket.zero(3)
        assert not z.terms
        assert str(z) == "0"


class TestTensor:
    def test_ghz_input(self):
        pair = Ket(2, {"00": 1, "11": 1})
        assert pair.tensor(Ket.basis("0")) == Ket(3, {"000": 1, "110": 1})

    def test_bilinear_expansion(self):
        carrier = Ket(1, {"0": amp("alpha"), "1": amp("beta")})
        pair = Ket(2, {"00": 1, "11": 1})
        expected = Ket(3, {"000": amp("alpha"), "011": amp("alpha"),
                           "100": amp("beta"), "111": amp("beta")})
        assert carrier.tensor(pair) == expected

    def test_zero_absorbs(self):
        assert Ket.zero(1).tensor(Ket.basis("0")) == Ket.zero(2)

    def test_associative_up_to_labels(self):
        a, b, c = Ket.basis("0"), Ket(1, {"0": 1, "1": 1}), Ket.basis("1")
        assert a.tensor(b).tensor(c) == a.tensor(b.tensor(c))

    def test_size_overflow(self):
        with pytest.raises(ValueError, match="exceeds"):
            Ket.zero(4).tensor(Ket.zero(3))


class TestProjection:
    def test_term_filter(self):
        k = Ket(3, {"000": amp("alpha"), "001": amp("beta"), "100": amp("alpha")})
        assert k.project([0, 1], "00") == Ket(3, {"000": amp("alpha"),
                                                  "001": amp("beta")})

    def test_annihilation_gives_zero_ket(self):
        assert Ket.basis("11").project([0], "0") == Ket.zero(2)

    def test_idempotent(self):
        k = Ket(3, {"000": 1, "001": 2, "110": 3})
        once = k.project([0, 1], "00")
        assert once.project([0, 1], "00") == once

    def test_errors(self):
        k = Ket.basis("00")
        with pytest.raises(ValueError, match="out of range"):
            k.project([2], "0")
        with pytest.raises(ValueError, match="duplicate"):
            k.project([0, 0], "00")
        with pytest.raises(ValueError, match="bits"):
            k.project([0, 1], "0")
        with pytest.raises(ValueError, match="target qubit 1.0 is not an int"):
            Ket.basis("01").project([1.0], "1")


class TestAlgebraAndRendering:
    def test_scaling_and_addition(self):
        k = Ket.basis("01") + Ket.basis("10")
        assert 2 * k == Ket(2, {"01": 2, "10": 2})
        assert k - k == Ket.zero(2)

    def test_kets_of_different_widths_do_not_add(self):
        with pytest.raises(ValueError, match="different qubit counts"):
            Ket.basis("0") + Ket.basis("00")

    def test_an_operand_that_is_no_ket_is_refused(self):
        k = Ket.basis("0")
        with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for \+"):
            k + 1
        with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for -"):
            k - 1
        assert (k == 1) is False

    def test_operations_keep_scalar_amplitudes(self):
        x = Ket(2, {"00": 1, "01": Fraction(1, 2), "11": GaussianRational(1, 1)})
        y = Ket(2, {"00": -1, "10": 2})
        for r in (x + y, x - y, -x, x * 2, 2 * x, x * amp(-1), x.tensor(y),
                  x.project([0], "0")):
            assert all(type(a) is GaussianRational for a in r.terms.values())

    def test_permute(self):
        k = Ket(3, {"001": 1, "110": 2})
        swapped = permute(k, [2, 1, 0])
        assert swapped == Ket(3, {"100": 1, "011": 2})
        assert permute(k, [0, 1, 2]) == k

    @pytest.mark.parametrize("ket, text", [
        (Ket(2, {"01": 1, "10": 1}), "|01> + |10>"),
        (Ket(2, {"01": 1, "10": -1}), "|01> - |10>"),
        (Ket(1, {"0": amp("alpha"), "1": amp("beta")}), "(alpha)|0> + (beta)|1>"),
        (Ket(2, {"11": -1}), "-|11>"),
        (Ket(2, {"00": 2}), "(2)|00>"),
        (Ket.zero(2), "0"),
    ])
    def test_rendering(self, ket, text):
        assert str(ket) == text
        assert repr(ket) == f"Ket({text})"


_symbolic_kets = st.dictionaries(
    st.sampled_from(["000", "011", "101", "110", "111"]),
    st.sampled_from([amp("a"), -amp("a"), amp("b~") * 2, amp(1), amp(-1),
                     amp("a") + amp("b")]),
    max_size=5).map(lambda terms: Ket(3, terms))


@settings(max_examples=60)
@given(_symbolic_kets, _symbolic_kets)
def test_results_of_ket_operations_are_canonical(x, y):
    """Sorted bits, no zero amplitude, and the ket the validating constructor builds."""
    results = [x + y, x - y, -x, x * -1, x * 1, x * 0, amp("a") * x,
               x.project([1], "1"), x.tensor(Ket.basis("0") + Ket.basis("1"))]
    for r in results:
        assert list(r.terms) == sorted(r.terms)
        assert all(r.terms.values())
        assert r == Ket(r.n_qubits, dict(r.terms))
        assert str(r) == str(Ket(r.n_qubits, dict(r.terms)))


# one term of a two-qubit ket: its bits and the parts its amplitude sums
_term_parts = st.tuples(
    st.sampled_from(["00", "01", "10", "11"]),
    st.lists(st.sampled_from([amp("a"), -amp("a"), amp("b~") * 2, amp("a") * amp("b"),
                              amp(1), amp(-1), amp(GaussianRational(Fraction(1, 2), -3)),
                              amp(GaussianRational(0, 1))]),
             min_size=1, max_size=3))


def _summed(terms, reverse_parts):
    ket = Ket.zero(2)
    for bits, parts in terms:
        a = parts[::-1] if reverse_parts else parts
        ket = ket + Ket(2, {bits: sum(a[1:], a[0])})
    return ket


@settings(max_examples=100)
@given(st.data())
def test_equal_kets_built_in_different_term_orders_render_the_same_text(data):
    terms = data.draw(st.lists(_term_parts, max_size=6))
    order = data.draw(st.permutations(range(len(terms))))
    x = _summed(terms, False)
    y = _summed([terms[k] for k in order], True)
    z = Ket._canonical(2, dict(reversed(x.terms.items())))
    assert x == y == z
    assert str(x) == str(y) == str(z)
