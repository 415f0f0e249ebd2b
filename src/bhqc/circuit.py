"""Circuit IR, the deterministic executor, and claim verdicts.

A circuit takes its width from its initial state.  ``check_instruction``
is the one check of an instruction, for ``Circuit`` and ``parse_circuit``
alike.  A ``Circuit`` is checked once, when it is built (``parse_circuit``
checks each part as it reads it and wraps them with ``Circuit._checked``);
it and its instruction records refuse assignment after that, so ``run``
trusts it and calls the unchecked gate action.  A project step calls
``Ket.project``, whose check costs little beside the filtering.
"""

from __future__ import annotations

from .operators import GATES, act
from .scalars import GaussianRational
from .states import Ket, OperandError, check_projection, check_targets, check_type, counted

MATCH = "MATCH"
MATCH_UP_TO_SCALAR = "MATCH_UP_TO_SCALAR"
MISMATCH = "MISMATCH"


# sets a slot of a record, which refuses plain assignment
_set = object.__setattr__


class _Record:
    """Base of the immutable records compared by value: every slot but
    ``location`` counts.  Each ``__init__`` sets the slots with ``_set``;
    assigning or deleting one afterwards raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__ if name != "location")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class ApplyGate(_Record):
    __slots__ = ("gate", "targets")

    def __init__(self, gate: str, targets: tuple[int, ...]) -> None:
        _set(self, "gate", gate)
        _set(self, "targets", tuple(targets))


class Project(_Record):
    __slots__ = ("bits", "targets")

    def __init__(self, bits: str, targets: tuple[int, ...]) -> None:
        _set(self, "bits", bits)
        _set(self, "targets", tuple(targets))


class Expect(_Record):
    __slots__ = ("expected", "claim_id", "location")

    def __init__(self, expected: Ket, claim_id: str | None = None,
                 location: str | None = None) -> None:
        _set(self, "expected", expected)
        _set(self, "claim_id", claim_id)
        _set(self, "location", location)


Instruction = ApplyGate | Project | Expect


def check_instruction(ins: Instruction, n_qubits: int) -> None:
    """Raise OperandError (a ValueError) for a bad gate, projection or target."""
    if isinstance(ins, ApplyGate):
        op = GATES.get(ins.gate) if type(ins.gate) is str else None
        if op is None:
            raise OperandError(f"unknown gate {ins.gate!r}")
        check_targets(ins.targets, n_qubits, op.arity,
                      lambda: f"gate {ins.gate} needs {counted(op.arity, 'target')}")
    elif isinstance(ins, Project):
        check_projection(ins.bits, ins.targets, n_qubits)
    elif isinstance(ins, Expect):
        check_type(ins.expected, Ket, "expected state", ValueError)
        for value, name in ((ins.claim_id, "claim id"), (ins.location, "location")):
            if value is not None:
                check_type(value, str, name, ValueError)
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


class Circuit(_Record):
    """A circuit as wide as its initial state, checked when it is built: the
    constructor raises ValueError (OperandError for a bad gate, projection
    or target)."""

    __slots__ = ("initial_state", "instructions", "mode_labels")

    def __init__(self, initial_state: Ket, instructions: tuple[Instruction, ...] = (),
                 mode_labels: tuple[str, ...] | None = None) -> None:
        check_type(initial_state, Ket, "initial state", ValueError)
        n_qubits = initial_state.n_qubits
        if mode_labels is not None:
            mode_labels = tuple(mode_labels)
            if len(mode_labels) != n_qubits:
                raise ValueError("label count must match qubit count")
            for label in mode_labels:
                check_type(label, str, "mode label", ValueError)
        instructions = tuple(instructions)
        for ins in instructions:
            check_instruction(ins, n_qubits)
        _set(self, "initial_state", initial_state)
        _set(self, "instructions", instructions)
        _set(self, "mode_labels", mode_labels)

    @classmethod
    def _checked(cls, initial_state: Ket, instructions: tuple[Instruction, ...],
                 mode_labels: tuple[str, ...] | None) -> Circuit:
        """Wrap parts whose every check has passed, as ``parse_circuit`` has
        them; outside input goes through ``__init__``."""
        circuit = object.__new__(cls)
        _set(circuit, "initial_state", initial_state)
        _set(circuit, "instructions", instructions)
        _set(circuit, "mode_labels", mode_labels)
        return circuit


class ClaimRecord:
    """One re-derived identity: the stated state versus the computed one."""

    __slots__ = ("claim_id", "location", "expected", "computed", "verdict", "scalar")

    def __init__(self, claim_id: str, location: str, expected: Ket, computed: Ket,
                 verdict: str, scalar: GaussianRational | None = None) -> None:
        self.claim_id = claim_id
        self.location = location
        self.expected = expected
        self.computed = computed
        self.verdict = verdict
        self.scalar = scalar

    def summary(self) -> str:
        head = f"{self.location} {self.claim_id}: {self.verdict}"
        if self.scalar is not None:
            head += f"({self.scalar})"
        elif self.verdict == MISMATCH:
            head += f" (computed {self.computed})"
        return head


def _scalar_ratio(computed: Ket, expected: Ket) -> GaussianRational | None:
    """Nonzero scalar s with computed == s * expected, if one exists."""
    # nonzero kets of different widths share no bitstring
    if not expected.terms or computed.terms.keys() != expected.terms.keys():
        return None
    bits = next(iter(expected.terms))
    e, c = expected.terms[bits], computed.terms[bits]
    if type(e) is not type(c):
        return None  # a nonzero scalar keeps an amplitude symbolic or symbol-free
    if e.has_symbols:
        mono, e = next(e.items())
        c = c.coefficient(mono)
    if not c:
        return None
    s = c / e
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


class RunResult:
    """``steps`` holds one ``(instruction, state)`` pair per step, the
    instruction ``None`` at step 0; ``claims`` holds the verdict records."""

    __slots__ = ("steps", "claims")

    def __init__(self, steps: list[tuple[Instruction | None, Ket]],
                 claims: list[ClaimRecord]) -> None:
        self.steps = steps
        self.claims = claims

    @property
    def final_state(self) -> Ket:
        return self.steps[-1][1]


def run(circuit: Circuit) -> RunResult:
    """Deterministic execution; step 0 is the initial state.

    ApplyGate and Project each advance one step; Expect records a claim
    against the current state without changing it, named by its claim_id
    and location if it has them, else ``expect-N`` at ``step K``.  A MATCH
    record's ``computed`` is the stated ket itself, which equals the state
    and renders the same text.
    """
    state = circuit.initial_state
    steps = [(None, state)]
    claims: list[ClaimRecord] = []
    for ins in circuit.instructions:
        if isinstance(ins, ApplyGate):
            state = act(GATES[ins.gate], state, ins.targets)
            steps.append((ins, state))
        elif isinstance(ins, Project):
            state = state.project(ins.targets, ins.bits)
            steps.append((ins, state))
        else:
            verdict, scalar = compare_kets(ins.expected, state)
            claims.append(ClaimRecord(ins.claim_id or f"expect-{len(claims) + 1}",
                                      ins.location or f"step {len(steps) - 1}",
                                      ins.expected,
                                      ins.expected if verdict == MATCH else state,
                                      verdict, scalar))
    return RunResult(steps, claims)
