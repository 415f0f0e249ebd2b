"""Circuit IR, the deterministic executor, and claim verdicts.

``check_instruction`` is the one check of an instruction, for ``run`` and
``parse_circuit`` alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .operators import apply, gate_named
from .scalars import GaussianRational
from .states import Ket, check_projection, check_targets

MATCH = "MATCH"
MATCH_UP_TO_SCALAR = "MATCH_UP_TO_SCALAR"
MISMATCH = "MISMATCH"


@dataclass(frozen=True, slots=True)
class ApplyGate:
    gate: str
    targets: tuple[int, ...]
    line: int | None = field(default=None, compare=False)


@dataclass(frozen=True, slots=True)
class Project:
    bits: str
    targets: tuple[int, ...]
    line: int | None = field(default=None, compare=False)


@dataclass(frozen=True, slots=True, eq=True)
class Expect:
    expected: Ket
    line: int | None = field(default=None, compare=False)


Instruction = Union[ApplyGate, Project, Expect]


def check_instruction(ins: Instruction, n_qubits: int) -> None:
    """Raise OperandError (a ValueError) for a bad gate, projection or target."""
    if isinstance(ins, ApplyGate):
        op = gate_named(ins.gate)
        check_targets(ins.targets, n_qubits, op.arity,
                      f"gate {ins.gate} needs {op.arity} targets")
    elif isinstance(ins, Project):
        check_projection(ins.bits, ins.targets, n_qubits)
    elif isinstance(ins, Expect):
        if ins.expected.n_qubits != n_qubits:
            raise ValueError("expected state has the wrong qubit count")
    else:
        raise TypeError(f"not an instruction: {ins!r}")


def instruction_text(ins: Instruction | None) -> str:
    if ins is None:
        return "init"
    if isinstance(ins, ApplyGate):
        return f"apply {ins.gate} " + " ".join(map(str, ins.targets))
    if isinstance(ins, Project):
        return f"project {ins.bits} " + " ".join(map(str, ins.targets))
    return f"expect {ins.expected}"


@dataclass(slots=True)
class Circuit:
    n_qubits: int
    initial_state: Ket
    instructions: tuple[Instruction, ...] = ()
    mode_labels: tuple[str, ...] | None = None
    symbols: tuple[str, ...] = ()

    def validate(self) -> None:
        if self.initial_state.n_qubits != self.n_qubits:
            raise ValueError("initial state has the wrong qubit count")
        if self.mode_labels is not None and len(self.mode_labels) != self.n_qubits:
            raise ValueError("label count must match qubit count")
        for ins in self.instructions:
            check_instruction(ins, self.n_qubits)


@dataclass(frozen=True, slots=True)
class ClaimRecord:
    """One re-derived identity: the stated state versus the computed one."""

    claim_id: str
    location: str
    expected: Ket
    computed: Ket
    verdict: str
    scalar: GaussianRational | None = None

    def summary(self) -> str:
        head = f"{self.location} {self.claim_id}: {self.verdict}"
        if self.verdict == MATCH_UP_TO_SCALAR:
            head += f"({self.scalar})"
        elif self.verdict == MISMATCH:
            head += f" (computed {self.computed})"
        return head


def _scalar_ratio(computed: Ket, expected: Ket) -> GaussianRational | None:
    """Nonzero scalar s with computed == s * expected, if one exists."""
    if computed.is_zero or expected.is_zero:
        return None
    if computed.n_qubits != expected.n_qubits:
        return None
    if set(computed.terms) != set(expected.terms):
        return None
    bits = next(iter(expected.terms))
    mono, coeff = next(iter(expected.terms[bits].items()))
    c_coeff = computed.terms[bits].coefficient(mono)
    if not c_coeff:
        return None
    s = c_coeff / coeff
    if computed == expected * s:
        return s
    return None


def compare_kets(expected: Ket, computed: Ket) -> tuple[str, GaussianRational | None]:
    """Verdict for a stated equality, computed rather than asserted."""
    if computed == expected:
        return MATCH, None
    s = _scalar_ratio(computed, expected)
    if s is not None:
        return MATCH_UP_TO_SCALAR, s
    return MISMATCH, None


@dataclass(slots=True)
class TraceStep:
    index: int
    instruction: Instruction | None
    state: Ket


@dataclass(slots=True)
class RunResult:
    steps: list[TraceStep]
    claims: list[ClaimRecord]

    @property
    def final_state(self) -> Ket:
        return self.steps[-1].state


def run(circuit: Circuit) -> RunResult:
    """Deterministic execution; step 0 is the initial state.

    ApplyGate and Project each advance one step; Expect records a claim
    against the current state without changing it.
    """
    circuit.validate()
    state = circuit.initial_state
    steps = [TraceStep(0, None, state)]
    claims: list[ClaimRecord] = []
    n_expect = 0
    for ins in circuit.instructions:
        if isinstance(ins, ApplyGate):
            state = apply(gate_named(ins.gate), state, ins.targets)
            steps.append(TraceStep(len(steps), ins, state))
        elif isinstance(ins, Project):
            state = state.project(ins.targets, ins.bits)
            steps.append(TraceStep(len(steps), ins, state))
        else:
            n_expect += 1
            verdict, scalar = compare_kets(ins.expected, state)
            where = f"line {ins.line}" if ins.line is not None else f"step {len(steps) - 1}"
            claims.append(ClaimRecord(f"expect-{n_expect}", where,
                                      ins.expected, state, verdict, scalar))
    return RunResult(steps, claims)
