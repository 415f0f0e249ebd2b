"""Canned circuits for the constructions this gate set is known for."""

from __future__ import annotations

from .circuit import ApplyGate, Circuit, Expect, Project
from .scalars import amp
from .states import Ket


def bell_chain() -> Circuit:
    """Four-stage Bell chain on |00>, with the stated target of each stage.

    Stages 3 and 4 are kept exactly as stated even though they do not follow
    from the generator rules; running the circuit reports the divergence.
    """
    stages = (
        ApplyGate("LL1", (0, 1)),
        ApplyGate("STAR", (0,)),
        ApplyGate("STAR", (1,)),
        Expect(Ket(2, {"01": 1, "10": 1})),
        ApplyGate("STAR", (1,)),
        Expect(Ket(2, {"01": 1, "10": -1})),
        ApplyGate("RAISE", (1,)),
        Expect(Ket(2, {"00": 1, "11": -1})),
        ApplyGate("L3", (1,)),
        ApplyGate("L4", (1,)),
        Expect(Ket(2, {"00": 1, "11": 1})),
    )
    return Circuit(2, Ket.basis("00"), stages)


def teleport_circuit() -> Circuit:
    """Teleport a formal (alpha, beta) qubit from mode a to mode b2.

    CNOT with a as control, Hadamard on a, then NOT on a (the composite
    equals HMINUS), and post-selection on |00> of a,b1 without
    renormalization.
    """
    alpha, beta = amp("alpha"), amp("beta")
    carrier = Ket(1, {"0": alpha, "1": beta})
    pair = Ket(2, {"00": 1, "11": 1})
    instructions = (
        ApplyGate("CNOT", (0, 1)),
        ApplyGate("HPLUS", (0,)),
        ApplyGate("NOT", (0,)),
        Project("00", (0, 1)),
        Expect(Ket(3, {"000": alpha, "001": beta})),
    )
    return Circuit(3, carrier.tensor(pair), instructions, mode_labels=("a", "b1", "b2"))


def ghz_circuit(control: int = 2) -> Circuit:
    """Extend the Bell pair a1,a2 by mode b; ``control`` picks a1 or a2."""
    if control not in (1, 2):
        raise ValueError("control must be 1 or 2")
    initial = Ket(3, {"000": 1, "110": 1})
    instructions = (
        ApplyGate("CNOT", (control - 1, 2)),
        Expect(Ket(3, {"000": 1, "111": 1})),
    )
    return Circuit(3, initial, instructions, mode_labels=("a1", "a2", "b"))


def class_change_circuit() -> Circuit:
    """Hadamard on the third mode, then CNOT with the third mode as control.

    Zero-based targets: HPLUS on qubit 2, CNOT control 2 -> target 1.  The
    stated end state |101>+|110> does not follow from these gates under any
    target assignment; the final expect records that honestly, and the
    classifier checks the class-level statement on the computed output.
    """
    instructions = (
        ApplyGate("HPLUS", (2,)),
        Expect(Ket(3, {"000": 1, "001": 1})),
        ApplyGate("CNOT", (2, 1)),
        Expect(Ket(3, {"101": 1, "110": 1})),
    )
    return Circuit(3, Ket.basis("000"), instructions)
