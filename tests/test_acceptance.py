"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as the
criteria execute.  Every check is an exact identity or an exact count; the
only tolerances anywhere are none.
"""

import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import permutations, product

import pytest

from bhqc.circuit import MATCH, MATCH_UP_TO_SCALAR, MISMATCH, instruction_text, run
from bhqc.claims import verify_claims
from bhqc.classifier import classify, transition_report
from bhqc.dsl import DslError, parse_circuit
from bhqc.operators import GATES, Operator, apply
from bhqc.scalars import GaussianRational, amp
from bhqc.states import Ket

from _kets import permute
from _oracle import brute_classify
from _shipped import CIRCUITS, shipped

K0, K1 = Ket.basis("0"), Ket.basis("1")
STAR = GATES["STAR"]
RAISE = GATES["RAISE"]
LOWER = GATES["LOWER"]
L1, L2, L3, L4 = (GATES[f"L{k}"] for k in range(1, 5))


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:>2} [{title}]: FAIL")
        raise
    print(f"criterion {number:>2} [{title}]: PASS")


def test_criterion_01_generator_tables():
    with criterion(1, "generator tables"):
        assert apply(STAR, K0) == -K0
        assert apply(STAR, K1) == K1
        assert apply(STAR, K1 + K0) == K1 - K0
        assert apply(STAR, K1 - K0) == K1 + K0
        assert apply(RAISE, K0) == K1
        assert apply(RAISE, K1) == Ket.zero(1)
        assert apply(LOWER, K0) == Ket.zero(1)
        assert apply(LOWER, K1) == K0


def test_criterion_02_lambda_algebra():
    with criterion(2, "one-mode lambda algebra"):
        for j, kj, flipped in (("0", K0, K1), ("1", K1, K0)):
            assert apply(L1, kj) == Ket.zero(1)
            assert apply(L2, kj) == Ket.zero(1)
            assert apply(L3, kj) == -flipped
            assert apply(L4, kj) == flipped
        identity = Operator.identity(1)
        assert L3 @ L3 == identity
        assert L4 @ L4 == identity
        for kj in (K0, K1):
            assert apply(L4, kj) == -apply(L3, kj)


def test_criterion_03_two_mode_tables():
    with criterion(3, "two-mode tables"):
        basis = {b: Ket.basis(b) for b in ("00", "01", "10", "11")}
        zero = Ket.zero(2)
        star2 = STAR.tensor(STAR)
        up2 = RAISE.tensor(RAISE)
        dn2 = LOWER.tensor(LOWER)
        for b, kb in basis.items():
            assert apply(star2, kb) == (kb if b[0] == b[1] else -kb)
            assert apply(up2, kb) == (Ket.basis("11") if b == "00" else zero)
            assert apply(dn2, kb) == (Ket.basis("00") if b == "11" else zero)
        stated = {
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
        }
        for (k, b), expected in stated.items():
            assert apply(GATES[f"LL{k}"], basis[b]) == expected
        assert apply(GATES["LL2"] @ GATES["LL1"], basis["00"]) == \
            Ket(2, {"00": 2})
        assert apply(GATES["LL1"] @ GATES["LL2"], basis["11"]) == \
            Ket(2, {"11": 2})


def test_criterion_04_cnot():
    with criterion(4, "controlled gate"):
        gate = GATES["CNOT"]
        for i, j in product("01", repeat=2):
            assert apply(gate, Ket.basis(i + j)) == Ket.basis(i + str(int(i) ^ int(j)))
        assert gate @ gate == Operator.identity(2)


def test_criterion_05_bell_chain_ledger():
    with criterion(5, "Bell chain verdicts"):
        records = {r.claim_id: r for r in verify_claims()}
        assert records["B1"].verdict == MATCH
        assert records["B2"].verdict == MATCH
        assert records["B3"].verdict == MISMATCH
        assert records["B3"].computed == Ket(2, {"11": -1})
        assert records["B4-text"].verdict == MATCH_UP_TO_SCALAR
        assert records["B4-text"].scalar == GaussianRational(-1)
        assert records["B4-eq25"].verdict == MISMATCH


def test_criterion_06_teleportation():
    with criterion(6, "teleportation identity"):
        final = run(shipped("teleport")).final_state
        factor = Ket(1, {"0": amp("alpha"), "1": amp("beta")})
        assert final == Ket.basis("00").tensor(factor)
        assert final.terms == {"000": amp("alpha"), "001": amp("beta")}


def test_criterion_07_ghz():
    with criterion(7, "GHZ generation and classification"):
        ghz = Ket(3, {"000": 1, "111": 1})
        assert run(shipped("ghz_a1")).final_state == ghz
        assert run(shipped("ghz")).final_state == ghz
        report = classify(ghz)
        assert report.slocc_class == "GHZ"
        assert report.fts_rank == "4"
        assert report.size_class == "LARGE"
        assert report.attractor is True
        assert report.brane_note == "four D3-branes intersecting over a string"


def test_criterion_08_class_interchange():
    with criterion(8, "class-change chain"):
        records = {r.claim_id: r for r in verify_claims()}
        assert records["interchange-step2"].verdict == MISMATCH
        result = run(shipped("class_change"))
        computed = result.final_state
        assert computed == Ket(3, {"000": 1, "011": 1})
        report = classify(computed)
        assert report.slocc_class == "BISEPARABLE"
        transition = transition_report(classify(Ket.basis("000")), report)
        assert transition["susy"] == "1/2 → 1/4 preserved"


def test_criterion_09_classifier_oracle_equivalence():
    with criterion(9, "oracle agreement on all 6561 small states"):
        values = (GaussianRational(-1), GaussianRational(0), GaussianRational(1))
        count = 0
        for assignment in product(values, repeat=8):
            terms = {format(i, "03b"): v for i, v in enumerate(assignment) if v}
            state = Ket(3, terms)
            report = classify(state)
            family, party = brute_classify(state)
            assert report.slocc_class == family
            assert report.separated_party == party
            count += 1
        assert count == 3**8


def _random_small_state(rng: random.Random) -> Ket:
    while True:
        terms = {}
        for i in range(8):
            v = rng.randint(-3, 3)
            if v:
                terms[format(i, "03b")] = GaussianRational(v)
        if terms:
            return Ket(3, terms)


def test_criterion_10_invariance_suite():
    with criterion(10, "hyperdeterminant and class invariances"):
        rng = random.Random(20260810)
        for _ in range(100):
            state = _random_small_state(rng)
            c = GaussianRational(
                Fraction(rng.choice([n for n in range(-6, 7) if n]), rng.randint(1, 6)),
                Fraction(rng.randint(-6, 6), rng.randint(1, 6)))
            det = classify(state).hyperdeterminant
            assert classify(c * state).hyperdeterminant == c * c * c * c * det
            for perm in permutations(range(3)):
                assert classify(permute(state, perm)).hyperdeterminant == det
        for _ in range(500):
            state = _random_small_state(rng)
            base = classify(state)
            gate = rng.choice(("NOT", "STAR"))
            qubit = rng.randrange(3)
            moved = apply(GATES[gate], state, [qubit])
            report = classify(moved)
            assert report.slocc_class == base.slocc_class
            assert report.fts_rank == base.fts_rank


def test_criterion_11_parser_round_trip_and_errors():
    with criterion(11, "parser round trip and positioned errors"):
        # each shipped file's instruction lines are what its parsed
        # instructions print as
        for path in sorted(CIRCUITS.glob("*.bhqc")):
            text = path.read_text(encoding="utf-8")
            lines = [line.split("#")[0].strip() for line in text.split("\n")]
            written = [line for line in lines if line.startswith(("apply ", "project ", "expect "))]
            parsed = parse_circuit(text).instructions
            assert [instruction_text(i) for i in parsed] == written, path.name
        malformed = [
            "state |00>\n",
            "qubits 7\n",
            "qubits two\n",
            "qubits 2\napply LX 0\n",
            "qubits 1\nstate |0>\napply CNOT 0\n",
            "qubits 2\napply STAR 5\n",
            "qubits 2\nproject 00 0\n",
            "qubits 2\nstate (alpha)|00>\n",
            "qubits 2\nstate |01\n",
            "qubits 2\nstate |02>\n",
        ]
        assert len(malformed) == 10
        for text in malformed:
            with pytest.raises(DslError) as excinfo:
                parse_circuit(text)
            assert excinfo.value.line >= 1
            assert excinfo.value.col >= 1
