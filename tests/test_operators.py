from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhqc.circuit import ApplyGate, check_instruction
from bhqc.operators import GATES, Operator, apply
from bhqc.scalars import GaussianRational, amp
from bhqc.states import MAX_QUBITS, Ket

from _exact import exact, vector

K0, K1 = Ket.basis("0"), Ket.basis("1")
STAR = GATES["STAR"]
RAISE = GATES["RAISE"]
LOWER = GATES["LOWER"]
L1, L2, L3, L4 = (GATES[f"L{k}"] for k in range(1, 5))
HPLUS, HMINUS = GATES["HPLUS"], GATES["HMINUS"]
CNOT = GATES["CNOT"]
ID1 = Operator.identity(1)


def columns(op):
    """The image of each basis ket under ``op``, in basis order."""
    return [apply(op, Ket.basis(format(c, f"0{op.arity}b"))) for c in range(1 << op.arity)]


class TestGenerators:
    def test_star_action(self):
        assert apply(STAR, K0) == -K0
        assert apply(STAR, K1) == K1
        assert apply(STAR, K1 + K0) == K1 - K0
        assert apply(STAR, K1 - K0) == K1 + K0

    def test_bit_flippers(self):
        assert apply(RAISE, K0) == K1
        assert apply(RAISE, K1) == Ket.zero(1)
        assert apply(LOWER, K0) == Ket.zero(1)
        assert apply(LOWER, K1) == K0

    def test_nilpotency_and_involution(self):
        assert RAISE @ RAISE == Operator(1)
        assert LOWER @ LOWER == Operator(1)
        assert STAR @ STAR == ID1

    def test_anticommutator_of_flippers_is_identity(self):
        assert RAISE @ LOWER + LOWER @ RAISE == ID1


class TestLambdaOps:
    def test_action_table(self):
        zero = Ket.zero(1)
        for j, kj, flipped in (("0", K0, K1), ("1", K1, K0)):
            assert apply(L1, kj) == zero
            assert apply(L2, kj) == zero
            assert apply(L3, kj) == -flipped
            assert apply(L4, kj) == flipped

    def test_lambda_one_and_two_are_the_zero_operator(self):
        assert L1 == Operator(1)
        assert L2 == Operator(1)

    def test_squares_and_negation(self):
        assert L3 @ L3 == ID1
        assert L4 @ L4 == ID1
        assert columns(L4) == [-k for k in columns(L3)]

    def test_not_gate_on_a_formal_qubit(self):
        q = Ket(1, {"0": amp("alpha"), "1": amp("beta")})
        assert apply(L4, q) == Ket(1, {"1": amp("alpha"), "0": amp("beta")})
        assert apply(L3, q) == Ket(1, {"1": -amp("alpha"), "0": -amp("beta")})


class TestHadamardAndSigma2:
    def test_hadamard_plus(self):
        assert apply(HPLUS, K0) == K0 + K1
        assert apply(HPLUS, K1) == K1 - K0

    def test_hadamard_minus(self):
        assert apply(HMINUS, K0) == K0 + K1
        assert apply(HMINUS, K1) == K0 - K1
        assert HMINUS == L4 @ HPLUS

    def test_hadamard_plus_squared_matrix_identity(self):
        assert columns(HPLUS @ HPLUS) == [2 * k for k in columns(STAR @ L4)]

    def test_sigma2_actions(self):
        a = GATES["SIG2A"]
        b = GATES["SIG2B"]
        assert apply(a, K0) == -K1
        assert apply(a, K1) == K0
        assert apply(b, K0) == K1
        assert apply(b, K1) == -K0

    def test_sigma2_squares_to_minus_identity(self):
        for name in ("SIG2A", "SIG2B"):
            g = GATES[name]
            assert columns(g @ g) == [-k for k in columns(ID1)]


class TestTwoModeTensors:
    def test_star_star(self):
        op = STAR.tensor(STAR)
        for bits in ("00", "11"):
            assert apply(op, Ket.basis(bits)) == Ket.basis(bits)
        for bits in ("01", "10"):
            assert apply(op, Ket.basis(bits)) == -Ket.basis(bits)

    def test_raise_raise(self):
        op = RAISE.tensor(RAISE)
        assert apply(op, Ket.basis("00")) == Ket.basis("11")
        for bits in ("01", "10", "11"):
            assert apply(op, Ket.basis(bits)) == Ket.zero(2)

    def test_lower_lower(self):
        op = LOWER.tensor(LOWER)
        assert apply(op, Ket.basis("11")) == Ket.basis("00")
        for bits in ("00", "01", "10"):
            assert apply(op, Ket.basis(bits)) == Ket.zero(2)

    def test_mixed_flippers(self):
        up_dn = RAISE.tensor(LOWER)
        dn_up = LOWER.tensor(RAISE)
        assert apply(up_dn, Ket.basis("01")) == Ket.basis("10")
        assert apply(dn_up, Ket.basis("10")) == Ket.basis("01")
        for bits in ("00", "10", "11"):
            assert apply(up_dn, Ket.basis(bits)) == Ket.zero(2)
        for bits in ("00", "01", "11"):
            assert apply(dn_up, Ket.basis(bits)) == Ket.zero(2)


class TestBigLambdaOps:
    def test_derived_action_table(self):
        zero = Ket.zero(2)
        cases = {
            (1, "00"): Ket(2, {"01": -1, "10": -1}),
            (1, "11"): zero,
            (1, "01"): Ket.basis("11"),
            (1, "10"): Ket.basis("11"),
            (2, "00"): zero,
            (2, "11"): Ket(2, {"01": 1, "10": 1}),
            (2, "01"): -Ket.basis("00"),
            (2, "10"): -Ket.basis("00"),
            (3, "00"): -Ket.basis("01"),
            (3, "11"): Ket.basis("01"),
            (3, "01"): zero,
            (3, "10"): Ket(2, {"11": 1, "00": -1}),
            # the derived LL4 actions are the mode swap of LL3's, not the
            # printed list (the catalog records that divergence)
            (4, "00"): -Ket.basis("10"),
            (4, "11"): Ket.basis("10"),
            (4, "01"): Ket(2, {"11": 1, "00": -1}),
            (4, "10"): zero,
        }
        for (k, bits), expected in cases.items():
            assert apply(GATES[f"LL{k}"], Ket.basis(bits)) == expected

    def test_composition_identities(self):
        assert apply(GATES["LL2"] @ GATES["LL1"], Ket.basis("00")) == \
            Ket(2, {"00": 2})
        assert apply(GATES["LL1"] @ GATES["LL2"], Ket.basis("11")) == \
            Ket(2, {"11": 2})


class TestCnot:
    def test_basis_table(self):
        for i, j in product("01", repeat=2):
            flipped = i + str(int(i) ^ int(j))
            assert apply(CNOT, Ket.basis(i + j)) == Ket.basis(flipped)

    def test_squares_to_identity(self):
        assert CNOT @ CNOT == Operator.identity(2)

    def test_sector_form(self):
        # the classically indexed form (I (x) L4)^i agrees on each control sector
        conditional = ID1.tensor(L4)
        for i, j in product("01", repeat=2):
            sector = conditional if i == "1" else Operator.identity(2)
            assert apply(CNOT, Ket.basis(i + j)) == apply(sector, Ket.basis(i + j))


def symbolic_ket(n):
    """Every basis term with its own symbol, so equal results mean equal maps."""
    return Ket(n, {format(k, f"0{n}b"): amp(f"a{k}") for k in range(1 << n)})


class TestEmbedAndApply:
    """A gate applied in place at its target qubits, i.e. embedded in the register."""

    def test_star_on_second_qubit(self):
        assert apply(STAR, Ket.basis("01"), [1]) == Ket.basis("01")
        assert apply(STAR, Ket.basis("00"), [1]) == -Ket.basis("00")

    def test_identity_embedding(self):
        for state in (K0, K1, symbolic_ket(1)):
            assert apply(L4, state, [0]) == apply(L4, state)

    def test_cnot_embedded_in_three_qubits(self):
        assert apply(CNOT, Ket.basis("110"), [0, 1]) == Ket.basis("100")

    def test_target_order_selects_control(self):
        assert apply(CNOT, Ket.basis("001"), [2, 1]) == Ket.basis("011")
        assert apply(CNOT, Ket.basis("010"), [2, 1]) == Ket.basis("010")

    def test_embed_against_dense_oracle(self):
        # a fresh copy acts through an empty move table, and the registry
        # gate's second call reads the table its first call filled
        states = [symbolic_ket(4), *(Ket.basis(format(k, "04b")) for k in range(16))]
        for name, op in GATES.items():
            for targets in permutations(range(4), op.arity):
                for state in states:
                    want = exact.apply_gate(name, targets, 4, vector(state))
                    cold = Operator(op.arity, op.columns)
                    assert vector(apply(cold, state, targets)) == want, (name, targets)
                    apply(op, state, targets)
                    assert vector(apply(op, state, targets)) == want, (name, targets)

    def test_non_adjacent_cnot_on_six_qubits(self):
        state = symbolic_ket(6)
        want = exact.apply_gate("CNOT", (4, 1), 6, vector(state))
        assert vector(apply(CNOT, state, [4, 1])) == want

    def test_embed_commutes_with_composition(self):
        pairs = [(STAR, RAISE), (L4, HPLUS),
                 (GATES["SIG2A"], LOWER)]
        state = symbolic_ket(3)
        for a, b in pairs:
            for target in range(3):
                lhs = apply(a @ b, state, [target])
                rhs = apply(a, apply(b, state, [target]), [target])
                assert lhs == rhs

    def test_embed_errors(self):
        state = Ket.basis("000")
        with pytest.raises(ValueError, match="arity"):
            apply(CNOT, state, [0])
        with pytest.raises(ValueError, match="duplicate"):
            apply(CNOT, state, [1, 1])
        with pytest.raises(ValueError, match="out of range"):
            apply(STAR, state, [3])
        with pytest.raises(ValueError, match="target qubit 0.0 is not an int"):
            apply(CNOT, Ket.basis("10"), [0.0, 1.0])
        with pytest.raises(ValueError, match="^an arity-1 operator needs 1 target$"):
            apply(STAR, state, [0, 1])

    def test_apply_size_mismatch(self):
        with pytest.raises(ValueError):
            apply(CNOT, Ket.basis("0"))

    def test_cancelling_contributions_leave_sorted_nonzero_terms(self):
        # HPLUS sends |0> to |0> + |1> and |1> to |1> - |0>, so a|0> + a|1>
        # on qubit 0 loses its |0...> terms and doubles its |1...> terms
        rest = ["00", "01", "11"]
        symbols = [amp(s) for s in ("alpha", "beta", "gamma~")]
        state = Ket(3, {q + r: a for r, a in zip(rest, symbols) for q in "01"})
        out = apply(HPLUS, state, [0])
        assert list(out.terms) == sorted(out.terms) == ["100", "101", "111"]
        assert all(out.terms.values())
        assert vector(out) == exact.apply_gate("HPLUS", (0,), 3, vector(state))
        assert str(out) == "((2)*alpha)|100> + ((2)*beta)|101> + ((2)*gamma~)|111>"
        # and scalars: |0> + |1> goes to 2|1>, with no |0> term left
        out = apply(HPLUS, K0 + K1)
        assert out == 2 * K1 and list(out.terms) == ["1"]

    def test_the_move_table_is_bounded_by_the_register(self):
        # one entry per basis bitstring of each register size at each target tuple
        for name, gate in GATES.items():
            op = Operator(gate.arity, gate.columns)
            sweep = [(targets, Ket.basis(format(k, f"0{n}b")))
                     for n in range(1, MAX_QUBITS + 1)
                     for targets in permutations(range(n), op.arity)
                     for k in range(1 << n)]
            for _ in range(2):
                for targets, state in sweep:
                    apply(op, state, targets)
                assert sum(map(len, op._moves.values())) == len(sweep), name
            assert len(sweep) == {1: 642, 2: 2808}[op.arity]

    def test_apply_is_linear(self):
        x, y = Ket.basis("01"), Ket.basis("10")
        combo = amp("alpha") * x + amp("beta") * y
        assert apply(HPLUS, combo, [0]) == \
            amp("alpha") * apply(HPLUS, x, [0]) + amp("beta") * apply(HPLUS, y, [0])


class TestActionTables:
    def test_generators_are_their_action_tables(self):
        assert STAR.columns == {"0": -K0, "1": K1}
        assert RAISE.columns == {"0": K1}
        assert LOWER.columns == {"1": K0}
        assert ID1.columns == {"0": K0, "1": K1}

    def test_zero_images_are_dropped(self):
        assert Operator(1, {"0": Ket.zero(1)}).columns == {}
        assert (RAISE + RAISE @ STAR).columns == {}  # |1> - |1>
        assert (RAISE @ RAISE).columns == {}

    @pytest.mark.parametrize("columns, match", [
        ({"2": K0}, "bitstring '2'"),
        ({"00": Ket.basis("00")}, "bitstring '00'"),
        ({"0": Ket.basis("00")}, "1-qubit ket"),
        ({"0": amp("alpha") * K0}, "formal symbols"),
        ({"0": "|0>"}, "1-qubit ket"),
    ])
    def test_bad_tables_are_rejected(self, columns, match):
        with pytest.raises(ValueError, match=match):
            Operator(1, columns)

    def test_arity_errors(self):
        with pytest.raises(ValueError, match="arity must be between 1 and 6"):
            Operator(7)
        with pytest.raises(ValueError, match="operator arity mismatch"):
            STAR + CNOT
        with pytest.raises(ValueError, match="operator arity mismatch"):
            STAR @ CNOT
        with pytest.raises(ValueError, match="tensor product exceeds 6 qubits"):
            CNOT.tensor(CNOT).tensor(CNOT).tensor(STAR)

    def test_an_operand_that_is_no_operator_is_refused(self):
        with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for \+"):
            STAR + 1
        with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for @"):
            STAR @ 1
        assert (STAR == 1) is False

    def test_repr_lists_the_action_table(self):
        assert repr(GATES["NOT"]) == "Operator(arity=1, {|0> -> |1>, |1> -> |0>})"


class TestRegistry:
    def test_names(self):
        assert set(GATES) == {"STAR", "RAISE", "LOWER", "L1", "L2", "L3", "L4",
                              "NOT", "LL1", "LL2", "LL3", "LL4", "HPLUS",
                              "HMINUS", "SIG2A", "SIG2B", "CNOT"}
        assert GATES["NOT"] == GATES["L4"]

    def test_every_entry_is_plus_or_minus_one(self):
        # so apply moves every term through a registry gate by its sign
        for name, op in GATES.items():
            for image in op.columns.values():
                assert all(a in (1, -1) for a in image.terms.values()), name
            columns(op)  # fills the move table at the gate's own targets
            moves = op._moves[tuple(range(op.arity))]
            assert set(map("".join, product("01", repeat=op.arity))) <= set(moves), name
            assert all(sign == v for entries in moves.values() for _, v, sign in entries), name

    def test_unknown_gate(self):
        with pytest.raises(ValueError, match="unknown gate"):
            check_instruction(ApplyGate("LX", (0,)), 1)

    def test_every_gate_matches_the_dense_oracle(self):
        for name, op in GATES.items():
            m = exact.GATES[name]
            for c, column in enumerate(columns(op)):
                assert vector(column) == [{(): row[c]} if row[c] else {} for row in m], name


# +-1 most often, as in the catalog, so that contributions often cancel
_MIXED = st.sampled_from([1, -1, 1, -1, 2, Fraction(-1, 2), GaussianRational(0, 1),
                          GaussianRational(2, -1), amp("alpha"), -amp("alpha"),
                          amp("alpha") + 2, amp("alpha") * amp("beta~") - 1])


@st.composite
def _gate_steps(draw):
    """A registry gate, ordered targets for it and a 1-6 qubit ket to act on."""
    name = draw(st.sampled_from(sorted(GATES)))
    arity = GATES[name].arity
    n = draw(st.integers(arity, MAX_QUBITS))
    targets = tuple(draw(st.permutations(range(n)))[:arity])
    # terms that share a base's bits off the targets can meet in one output
    # and cancel there, so a few bases hold them all
    bases = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=4))
    cells = draw(st.dictionaries(st.tuples(st.sampled_from(bases), st.integers(0, (1 << arity) - 1)),
                                 _MIXED, max_size=16))
    terms = {}
    for (base, pattern), a in cells.items():
        bits = list(format(base, f"0{n}b"))
        for t, c in zip(targets, format(pattern, f"0{arity}b")):
            bits[t] = c
        terms["".join(bits)] = a
    return name, targets, Ket(n, terms)


@settings(max_examples=300)
@given(_gate_steps(), st.booleans())
def test_act_matches_the_dense_oracle(step, cold):
    # a fresh copy of the gate fills its move table; the registry gate may read its own
    name, targets, state = step
    op = GATES[name]
    if cold:
        op = Operator(op.arity, op.columns)
    out = apply(op, state, targets)
    assert vector(out) == exact.apply_gate(name, targets, state.n_qubits, vector(state))
    assert list(out.terms) == sorted(out.terms)
    assert all(out.terms.values())


_AMPLITUDES = st.sampled_from([1, -1, 3, Fraction(-1, 2), GaussianRational(2, -1),
                               amp("alpha"), -amp("beta~"), amp("alpha") + 2])


@settings(max_examples=80)
@given(st.integers(2, 3).flatmap(lambda n: st.tuples(
    st.dictionaries(st.text("01", min_size=n, max_size=n), _AMPLITUDES, max_size=1 << n)
    .map(lambda terms: Ket(n, terms)),
    st.permutations(range(n)).map(lambda order: order[:2]))))
def test_a_product_with_non_unit_entries_applies_as_its_factors(case):
    # LL2 @ LL1 has the entry 2, which apply multiplies rather than moves
    state, targets = case
    ll1, ll2 = GATES["LL1"], GATES["LL2"]
    product_op = ll2 @ ll1
    columns(product_op)  # fills the move table at targets (0, 1)
    assert any(sign == 0 for entries in product_op._moves[(0, 1)].values()
               for _, _, sign in entries)
    want = apply(ll2, apply(ll1, state, targets), targets)
    assert apply(product_op, state, targets) == want
    assert apply(product_op, state, targets) == want  # read from the filled move table
