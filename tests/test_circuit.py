from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bhqc.circuit import (MATCH, MATCH_UP_TO_SCALAR, MISMATCH, ApplyGate,
                          Circuit, Expect, Project, check_instruction,
                          compare_kets, instruction_text, run)
from bhqc.claims import CLAIMS
from bhqc.dsl import parse_circuit
from bhqc.operators import GATES, Operator
from bhqc.scalars import GaussianRational, amp
from bhqc.states import Ket

from _exact import run as run_exact, vector
from _shipped import CIRCUITS, shipped


def _two_qubit(*instructions):
    return lambda: Circuit(Ket.basis("00"), instructions)


# every fault a circuit can be built with, which ``run`` trusts the constructor to catch
_VALIDATION_ERRORS = [
    ("needs 2 targets", lambda: Circuit(Ket.basis("0"), (ApplyGate("CNOT", (0,)),))),
    ("out of range", _two_qubit(ApplyGate("STAR", (5,)))),
    ("target qubit -1 out of range", _two_qubit(ApplyGate("STAR", (-1,)))),
    ("duplicate target qubit 1", _two_qubit(ApplyGate("CNOT", (1, 1)))),
    ("unknown gate", lambda: Circuit(Ket.basis("0"), (ApplyGate("LX", (0,)),))),
    ("target qubit 0.0 is not an int", _two_qubit(ApplyGate("CNOT", (0.0, 1)))),
    ("target qubit '0' is not an int", _two_qubit(ApplyGate("STAR", ("0",)))),
    ("target qubit True is not an int", _two_qubit(Project("1", (True,)))),
    ("label count must match qubit count", lambda: Circuit(Ket.basis("00"), (), ["a"])),
    ("projection bits must be 0/1", _two_qubit(Project("", ()))),
    ("bits must be 0/1", _two_qubit(Project("2", (0,)))),
    ("expected 2 targets for 2 projection bits", _two_qubit(Project("00", (0,)))),
    ("target qubit 2 out of range", _two_qubit(Project("0", (2,)))),
    ("duplicate target qubit 0", _two_qubit(Project("00", (0, 0)))),
    ("expected state has the wrong qubit count", _two_qubit(Expect(Ket.basis("0")))),
    ("expected state has the wrong qubit count", _two_qubit(Expect(Ket.basis("000")))),
    # a part of the wrong type; the messages repeat, so each row names its id
    pytest.param("initial state must be Ket", lambda: Circuit("|0>"), id="initial state str"),
    pytest.param("expected state must be Ket", lambda: Circuit(Ket.basis("0"), (Expect("|0>"),)),
                 id="expected state str"),
    pytest.param("projection bits must be 0/1", _two_qubit(Project(1, (0,))), id="bits int"),
    pytest.param("projection bits must be 0/1", _two_qubit(Project(b"0", (0,))), id="bits bytes"),
    pytest.param("projection bits must be 0/1", _two_qubit(Project(["0"], (0,))), id="bits list"),
    pytest.param("unknown gate", _two_qubit(ApplyGate(["STAR"], (0,))), id="gate list"),
    pytest.param("mode label must be str, not int", lambda: Circuit(Ket.basis("00"), (), [1, 2]),
                 id="labels int"),
    pytest.param("mode label must be str, not NoneType", lambda: Circuit(Ket.basis("0"), (), [None]),
                 id="labels None"),
    pytest.param("claim id must be str, not float",
                 lambda: Circuit(Ket.basis("0"), (Expect(Ket.basis("0"), 1.5),)),
                 id="claim id float"),
    pytest.param("location must be str, not list",
                 lambda: Circuit(Ket.basis("0"), (Expect(Ket.basis("0"), None, ["x"]),)),
                 id="location list"),
    # a count of one takes the singular
    pytest.param("^gate STAR needs 1 target$", _two_qubit(ApplyGate("STAR", ())),
                 id="one target"),
    pytest.param("^expected 1 target for 1 projection bit$", _two_qubit(Project("0", (0, 1))),
                 id="one projection bit"),
]


class TestCompareKets:
    def test_match(self):
        k = Ket(2, {"01": 1, "10": 1})
        assert compare_kets(k, Ket(2, {"01": 1, "10": 1})) == (MATCH, None)

    def test_zero_matches_zero(self):
        assert compare_kets(Ket.zero(1), Ket.zero(1)) == (MATCH, None)

    def test_scalar_match(self):
        expected = Ket(2, {"00": 1, "11": 1})
        computed = Ket(2, {"00": -1, "11": -1})
        verdict, scalar = compare_kets(expected, computed)
        assert verdict == MATCH_UP_TO_SCALAR
        assert scalar == GaussianRational(-1)

    def test_scalar_match_with_symbolic_amplitudes(self):
        expected = Ket(1, {"0": amp("alpha")})
        computed = Ket(1, {"0": 2 * amp("alpha")})
        verdict, scalar = compare_kets(expected, computed)
        assert verdict == MATCH_UP_TO_SCALAR
        assert scalar == GaussianRational(2)

    def test_mismatch_cases(self):
        one = Ket.basis("0")
        assert compare_kets(one, Ket.zero(1))[0] == MISMATCH
        assert compare_kets(Ket.zero(1), one)[0] == MISMATCH
        assert compare_kets(one, Ket.basis("1"))[0] == MISMATCH
        # a symbolic ratio is not a scalar match
        assert compare_kets(Ket(1, {"0": amp("alpha")}),
                            Ket(1, {"0": amp("beta")}))[0] == MISMATCH
        assert compare_kets(Ket(1, {"0": 1}),
                            Ket(1, {"0": amp("alpha")}))[0] == MISMATCH

    def test_partial_proportionality_is_a_mismatch(self):
        expected = Ket(2, {"00": 1, "11": 1})
        computed = Ket(2, {"00": 2, "11": 3})
        assert compare_kets(expected, computed)[0] == MISMATCH

    @pytest.mark.parametrize("expected, computed", [
        (Ket.basis("0"), Ket.basis("00")),
        (Ket.basis("1"), Ket.basis("10") + Ket.basis("11")),
        (Ket.zero(1), Ket.zero(2)),
    ])
    def test_kets_of_different_widths_are_a_mismatch(self, expected, computed):
        assert compare_kets(expected, computed) == (MISMATCH, None)


class TestExecutor:
    def test_empty_instruction_list(self):
        result = run(Circuit(Ket.basis("00")))
        assert len(result.steps) == 1
        assert result.final_state == Ket.basis("00")

    def test_steps_are_instruction_state_pairs(self):
        gate, project = ApplyGate("HPLUS", (0,)), Project("1", (1,))
        initial = Ket(2, {"00": 1, "01": 1})
        result = run(Circuit(initial, (gate, Expect(initial), project)))
        assert result.steps == [(None, initial),
                                (gate, Ket(2, {"00": 1, "10": 1, "01": 1, "11": 1})),
                                (project, Ket(2, {"01": 1, "11": 1}))]
        assert result.steps[0][1] is initial
        assert all(type(step) is tuple for step in result.steps)
        assert result.final_state is result.steps[-1][1]

    def test_bell_b1_sequence(self):
        circuit = Circuit(Ket.basis("00"), (
            ApplyGate("LL1", (0, 1)), ApplyGate("STAR", (0,)), ApplyGate("STAR", (1,))))
        assert run(circuit).final_state == Ket(2, {"01": 1, "10": 1})

    def test_an_amplitude_whose_symbols_cancel_is_stored_as_a_scalar(self):
        # HPLUS sends |0> to |0> + |1> and |1> to -|0> + |1>
        circuit = parse_circuit("qubits 1\nsymbols alpha\n"
                                "state (alpha)|0> + (1 - alpha)|1>\napply HPLUS 0\n")
        final = run(circuit).final_state
        assert type(final.terms["1"]) is GaussianRational
        assert final.terms["1"] == GaussianRational(1)
        assert final.terms["0"] == 2 * amp("alpha") - 1

    def test_a_sign_flipped_back_is_the_initial_amplitude(self):
        # a -1 gate entry negates a term and a second one returns the same object
        c = parse_circuit("qubits 1\nsymbols a b\nstate (a + 2*b~)|0>\n"
                          "apply STAR 0\napply STAR 0\n")
        initial = c.initial_state.terms["0"]
        assert run(c).final_state.terms["0"] is initial

    def test_expect_records_without_advancing(self):
        circuit = Circuit(Ket.basis("0"), (
            Expect(Ket.basis("0")),
            ApplyGate("L4", (0,)),
            Expect(Ket.basis("0")),
        ))
        result = run(circuit)
        assert len(result.steps) == 2  # init plus one gate
        assert [c.verdict for c in result.claims] == [MATCH, MISMATCH]
        assert result.claims[0].claim_id == "expect-1"

    def test_expect_names_its_record_or_gets_a_numbered_name(self):
        circuit = Circuit(Ket.basis("0"), (
            ApplyGate("L4", (0,)),
            Expect(Ket.basis("1"), claim_id="flip", location="Eq.(1)"),
            Expect(Ket.basis("1")),
        ))
        named, numbered = run(circuit).claims
        assert (named.claim_id, named.location) == ("flip", "Eq.(1)")
        assert (numbered.claim_id, numbered.location) == ("expect-2", "step 1")

    def test_every_catalog_circuit_ends_in_its_one_expect(self):
        for circuit in CLAIMS:
            expects = [ins for ins in circuit.instructions if isinstance(ins, Expect)]
            assert expects == [circuit.instructions[-1]]
            assert expects[0].claim_id and expects[0].location

    def test_projection_is_post_selection_without_renormalization(self):
        circuit = Circuit(Ket(2, {"00": 2, "11": 2}), (Project("0", (0,)),))
        assert run(circuit).final_state == Ket(2, {"00": 2})

    def test_ghz_controls_agree(self):
        final1 = run(shipped("ghz_a1")).final_state
        final2 = run(shipped("ghz")).final_state
        assert final1 == final2 == Ket(3, {"000": 1, "111": 1})

    def test_teleport_factors_exactly(self):
        result = run(shipped("teleport"))
        expected = Ket.basis("00").tensor(Ket(1, {"0": amp("alpha"),
                                                  "1": amp("beta")}))
        assert result.final_state == expected
        assert all(c.verdict == MATCH for c in result.claims)

    def test_class_change_verdicts(self):
        result = run(shipped("class_change"))
        assert [c.verdict for c in result.claims] == [MATCH, MISMATCH]
        assert result.final_state == Ket(3, {"000": 1, "011": 1})

    def test_bell_chain_exposes_the_divergent_stages(self):
        result = run(shipped("bell_chain"))
        assert [c.verdict for c in result.claims] == [MATCH, MATCH, MISMATCH, MISMATCH]
        assert result.final_state == Ket.basis("11")

    def test_linearity_over_formal_combinations(self):
        gates = (ApplyGate("LL1", (0, 1)), ApplyGate("HPLUS", (0,)),
                 ApplyGate("STAR", (1,)), ApplyGate("CNOT", (1, 0)))
        x, y = Ket.basis("00"), Ket.basis("11")
        combo = amp("alpha") * x + amp("beta") * y
        run_x = run(Circuit(x, gates)).final_state
        run_y = run(Circuit(y, gates)).final_state
        run_combo = run(Circuit(combo, gates)).final_state
        assert run_combo == amp("alpha") * run_x + amp("beta") * run_y

    def test_deterministic_traces(self):
        def render_once():
            result = run(shipped("bell_chain"))
            return "\n".join(f"{k} {instruction_text(ins)} {state}"
                             for k, (ins, state) in enumerate(result.steps))
        assert render_once() == render_once()

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="needs 2 targets"):
            run(Circuit(Ket.basis("0"), (ApplyGate("CNOT", (0,)),)))
        with pytest.raises(ValueError, match="out of range"):
            run(Circuit(Ket.basis("00"), (ApplyGate("STAR", (5,)),)))
        with pytest.raises(ValueError, match="unknown gate"):
            run(Circuit(Ket.basis("0"), (ApplyGate("LX", (0,)),)))

    @pytest.mark.parametrize("match, build", _VALIDATION_ERRORS,
                             ids=[getattr(row, "id", row[0]) for row in _VALIDATION_ERRORS])
    def test_circuits_are_checked_when_built(self, match, build):
        with pytest.raises(ValueError, match=match):
            build()

    def test_only_an_instruction_is_checked(self):
        with pytest.raises(TypeError, match="not an instruction"):
            check_instruction("apply STAR 0", 1)

    def test_a_circuit_keeps_its_own_labels(self):
        labels = ["a", "b"]
        circuit = Circuit(Ket.basis("00"), (), labels)
        labels.append("c")
        assert circuit.mode_labels == ("a", "b")
        assert circuit == parse_circuit("qubits 2\nlabels a b")

    @pytest.mark.parametrize("targets", [(0, 1), (7,)])
    def test_a_checked_circuit_cannot_be_changed(self, targets):
        # run trusts what the constructor checked, so no record may change after it
        gate = ApplyGate("STAR", [0])
        project, expect = Project("0", [1]), Expect(Ket.basis("00"))
        circuit = Circuit(Ket.basis("00"), [gate, project, expect])
        assert gate.targets == (0,) and project.targets == (1,)
        with pytest.raises(AttributeError):
            gate.targets = targets
        for record, name in [(gate, "gate"), (project, "targets"), (expect, "expected"),
                             (circuit, "instructions")]:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert run(circuit).final_state == Ket(2, {"00": -1})

    def test_a_record_equals_only_a_record_of_its_type_and_prints_its_slots(self):
        gate = ApplyGate("LL1", [0, 1])
        assert gate == ApplyGate("LL1", (0, 1))
        assert gate != Project("01", (0, 1)) and gate != ("LL1", (0, 1))
        assert repr(gate) == "ApplyGate(gate='LL1', targets=(0, 1))"


# values of the wrong type for any part of a ket, an operator or a circuit
_WRONG = (st.none() | st.floats() | st.binary(max_size=2) | st.text("01i", max_size=3)
          | st.lists(st.sampled_from(["0", 0, None]), max_size=2)
          | st.dictionaries(st.sampled_from(["0", "1", 0]), st.integers(-1, 1), max_size=2)
          | st.booleans())
_K2 = Ket.basis("00")
_BUILDS = {
    "Ket width": lambda w: Ket(w),
    "Ket terms": lambda w: Ket(1, w),
    "Ket bitstring": lambda w: Ket(2, {w: 1}),
    "Ket amplitude": lambda w: Ket(1, {"0": w}),
    "Ket.basis": lambda w: Ket.basis(w),
    "Operator arity": lambda w: Operator(w),
    "Operator columns": lambda w: Operator(1, w),
    "Operator image": lambda w: Operator(1, {"0": w}),
    "gate": lambda w: Circuit(_K2, (ApplyGate(w, (0,)),)),
    "gate targets": lambda w: Circuit(_K2, (ApplyGate("STAR", w),)),
    "projection bits": lambda w: Circuit(_K2, (Project(w, (0,)),)),
    "projection targets": lambda w: Circuit(_K2, (Project("0", w),)),
    "expected state": lambda w: Circuit(_K2, (Expect(w),)),
    "initial state": lambda w: Circuit(w),
    "instructions": lambda w: Circuit(_K2, w),
    "mode labels": lambda w: Circuit(_K2, (), w),
    "GaussianRational re": lambda w: GaussianRational(w),
    "GaussianRational im": lambda w: GaussianRational(0, w),
}


def _well_typed(built):
    """Every part of a built ket, operator or circuit has the type it is declared with."""
    if isinstance(built, GaussianRational):
        return False  # no value drawn is an int or a Fraction, the parts it takes
    if isinstance(built, Operator):
        return type(built.arity) is int and all(map(_well_typed, built.columns.values()))
    if isinstance(built, Ket):
        return type(built.n_qubits) is int and all(type(b) is str for b in built.terms)
    parts = [type(built.initial_state) is Ket, *(type(x) is str for x in built.mode_labels or ())]
    for ins in built.instructions:
        parts.append(type(ins.gate) is str if isinstance(ins, ApplyGate)
                     else type(ins.bits) is str if isinstance(ins, Project)
                     else type(ins.expected) is Ket)
    return all(parts)


@settings(max_examples=300)
@given(st.sampled_from(sorted(_BUILDS)), _WRONG)
@example("Ket width", 2.0)
@example("Ket width", True)
@example("Operator arity", 1.0)
@example("Ket bitstring", 0)
@example("Ket.basis", 5)
@example("projection bits", ["0"])
@example("mode labels", [None, None])
@example("GaussianRational re", True)
@example("GaussianRational im", 0.5)
def test_a_part_of_the_wrong_type_raises_a_type_or_value_error(part, value):
    # either the constructor refuses the value, or what it builds is well typed
    try:
        built = _BUILDS[part](value)
    except (TypeError, ValueError):
        return
    assert _well_typed(built)


def _records_and_states(circuit):
    """Each claim record of ``run(circuit)`` paired with the state at its expect."""
    result = run(circuit)
    step, states = 0, []
    for ins in circuit.instructions:
        if isinstance(ins, Expect):
            _, state = result.steps[step]
            states.append(state)
        else:
            step += 1
    return list(zip(result.claims, states, strict=True))


def test_a_match_record_holds_the_stated_ket_and_any_other_the_state():
    circuits = [*CLAIMS, *(shipped(p.stem) for p in sorted(CIRCUITS.glob("*.bhqc")))]
    verdicts = Counter()
    for circuit in circuits:
        for record, state in _records_and_states(circuit):
            verdicts[record.verdict] += 1
            if record.verdict == MATCH:
                assert record.computed is record.expected
            else:
                assert record.computed is state
            assert str(record.computed) == str(state), record.claim_id
    assert verdicts[MATCH] and verdicts[MATCH_UP_TO_SCALAR] and verdicts[MISMATCH]


_SCALARS = st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-2, 3),
                            GaussianRational(0, 1), GaussianRational(1, -3),
                            GaussianRational(Fraction(1, 2), Fraction(5, 7))])


@st.composite
def _scalar_words(draw):
    """A symbol-free 1-3 qubit ket and a word of registry gates and projections."""
    n = draw(st.integers(1, 3))
    bits = st.text("01", min_size=n, max_size=n)
    state = Ket(n, draw(st.dictionaries(bits, _SCALARS, max_size=1 << n)))
    names = sorted(name for name, op in GATES.items() if op.arity <= n)
    word = []
    for _ in range(draw(st.integers(0, 6))):
        order = tuple(draw(st.permutations(range(n))))
        if draw(st.integers(0, 4)):
            name = draw(st.sampled_from(names))
            word.append(ApplyGate(name, order[:GATES[name].arity]))
        else:
            k = draw(st.integers(1, n))
            word.append(Project(draw(st.text("01", min_size=k, max_size=k)), order[:k]))
    return state, tuple(word)


@settings(max_examples=150)
@given(_scalar_words())
def test_symbol_free_kets_stay_gaussian_rationals(case):
    state, word = case
    result = run(Circuit(state, word))
    for _, step_state in result.steps:
        assert all(type(a) is GaussianRational for a in step_state.terms.values())
    assert vector(result.final_state) == run_exact(state, word)
