"""The gate algebra: star/raise/lower generators and every derived operator.

An operator is stored as its action table: the ket each basis ket goes to,
in the same sparse format as states.  The generators are written that way,
as the paper defines them (star|0> = -|0>, star|1> = |1>, raise|0> = |1>,
lower|1> = |0>).  Operators are exact, not unitary in general (raise and
lower are nilpotent) and carry no normalization factors.  All derived gates
are built *from* the generators; their stated action tables are checked
elsewhere, never hard-coded here.  ``GATES`` is the registry, the one place
a gate is looked up by name.

A k-qubit gate acts in place: ``act`` moves each basis term of the state to
the basis terms its action table sends that column to; no 2^n x 2^n matrix
is built.  Where one basis bitstring goes under a gate at one target tuple
never changes, so each operator keeps those moves in a table that ``act``
fills the first time it meets the pair and reads with one lookup per term
after that.  Each move carries its entry's sign, so a term moves through a
+1 or -1 entry (every entry of a registry gate) as itself or its negation,
and only another value, such as the 2 in ``LL2 @ LL1``, costs a multiply.
``apply`` is ``act`` behind the target check; a checked circuit step calls
``act`` itself.  Composition ``a @ b`` is ``a`` acting on each column of ``b``.
"""

from __future__ import annotations

from itertools import product
from collections.abc import Mapping, Sequence

from .scalars import MINUS_ONE, ONE, Amplitude, GaussianRational
from .states import MAX_QUBITS, Ket, check_bits, check_targets, check_type

# one move of a basis term: (output bitstring, entry value, entry sign)
_Move = tuple[str, GaussianRational, int]


class Operator:
    """Sparse linear map on k qubits, stored as its action table.

    ``columns`` maps each basis bitstring c to the nonzero ket that |c>
    goes to.

    ``_moves`` maps a target tuple to {input bitstring: its moves}, the
    table ``act`` reads and ``_fill`` builds from ``columns``; a column with
    no image moves to ``()``.  It is bounded by the register, not by the
    traffic: one entry per n-bit bitstring, n <= MAX_QUBITS, at each target
    tuple.  It needs no lock, because two threads that fill one entry at
    once store equal tuples.
    """

    __slots__ = ("arity", "columns", "_moves")

    def __init__(self, arity: int, columns: Mapping[str, Ket] | None = None) -> None:
        check_type(arity, int, "arity")
        if not 1 <= arity <= MAX_QUBITS:
            raise ValueError(f"operator arity must be between 1 and {MAX_QUBITS}")
        self.arity = arity
        self.columns: dict[str, Ket] = {}
        self._moves: dict[tuple[int, ...], dict[str, tuple[_Move, ...]]] = {}
        for c, image in dict(columns or {}).items():
            check_bits(c, arity)
            if type(image) is not Ket or image.n_qubits != arity:
                raise ValueError(f"the image of |{c}> must be a {arity}-qubit ket")
            if image.has_symbols:
                raise ValueError(f"the image of |{c}> contains formal symbols")
            if image.terms:
                self.columns[c] = image

    @classmethod
    def identity(cls, arity: int) -> Operator:
        return cls(arity, {c: Ket.basis(c) for c in map("".join, product("01", repeat=arity))})

    def __add__(self, other: object) -> Operator:
        if not isinstance(other, Operator):
            return NotImplemented
        if other.arity != self.arity:
            raise ValueError("operator arity mismatch")
        merged = dict(self.columns)
        for c, image in other.columns.items():
            merged[c] = merged[c] + image if c in merged else image
        return Operator(self.arity, merged)

    def __matmul__(self, other: object) -> Operator:
        """Composition self . other: ``other`` acts first."""
        if not isinstance(other, Operator):
            return NotImplemented
        if other.arity != self.arity:
            raise ValueError("operator arity mismatch")
        all_qubits = tuple(range(self.arity))
        return Operator(self.arity, {c: act(self, image, all_qubits)
                                     for c, image in other.columns.items()})

    def tensor(self, other: Operator) -> Operator:
        arity = self.arity + other.arity
        if arity > MAX_QUBITS:
            raise ValueError(f"tensor product exceeds {MAX_QUBITS} qubits")
        return Operator(arity, {ca + cb: ia.tensor(ib)
                                for ca, ia in self.columns.items()
                                for cb, ib in other.columns.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Operator):
            return NotImplemented
        return self.arity == other.arity and self.columns == other.columns

    __hash__ = None

    def __repr__(self) -> str:
        body = ", ".join(f"|{c}> -> {image}" for c, image in sorted(self.columns.items()))
        return f"Operator(arity={self.arity}, {{{body}}})"


def apply(op: Operator, state: Ket, targets: Sequence[int] | None = None) -> Ket:
    """``op`` acting on the qubits ``targets`` of ``state`` (default: all, in order).

    ``targets[j]`` receives qubit j of ``op``, so ``apply(GATES["CNOT"], s, [2, 1])``
    uses qubit 2 as control and qubit 1 as target.  The checked entry point:
    raises OperandError unless ``targets`` are ``op.arity`` distinct qubits of
    ``state``, then calls ``act``.
    """
    n = state.n_qubits
    targets = tuple(range(n)) if targets is None else tuple(targets)
    check_targets(targets, n, op.arity,
                  lambda: f"an arity-{op.arity} operator needs {op.arity} targets")
    return act(op, state, targets)


def act(op: Operator, state: Ket, targets: tuple[int, ...]) -> Ket:
    """``op`` acting on the tuple ``targets``, with no check of them: the
    caller has checked that they are ``op.arity`` distinct qubits of
    ``state``, as ``apply`` and ``Circuit`` do."""
    moves = op._moves.setdefault(targets, {})
    out: dict[str, Amplitude] = {}
    for bits, a in state.terms.items():
        entries = moves.get(bits)
        if entries is None:
            entries = _fill(op, moves, bits, targets)
        for key, v, sign in entries:
            x = a if sign > 0 else -a if sign else a * v
            prev = out.get(key)
            out[key] = x if prev is None else prev + x
    return Ket._canonical(state.n_qubits, out)


def _fill(op: Operator, moves: dict[str, tuple[_Move, ...]], bits: str,
          targets: tuple[int, ...]) -> tuple[_Move, ...]:
    """Store and return the moves of basis term ``bits`` under ``op`` at ``targets``.

    A move's sign is 1 or -1 for an entry of +1 or -1 and 0 for any other.
    """
    chars = list(bits)
    entries = []
    image = op.columns.get("".join([bits[t] for t in targets]))
    for row, v in image.terms.items() if image is not None else ():
        # every row sets every target, so one list serves all rows
        for t, c in zip(targets, row):
            chars[t] = c
        entries.append(("".join(chars), v, 1 if v == ONE else -1 if v == MINUS_ONE else 0))
    moves[bits] = found = tuple(entries)
    return found


_ID = Operator.identity(1)
_STAR = Operator(1, {"0": -Ket.basis("0"), "1": Ket.basis("1")})
_RAISE = Operator(1, {"0": Ket.basis("1")})
_LOWER = Operator(1, {"1": Ket.basis("0")})
_L3 = _STAR @ _LOWER + _RAISE @ _STAR
_L4 = _STAR @ _RAISE + _LOWER @ _STAR
_HPLUS = _ID + _STAR @ _L4

GATES: dict[str, Operator] = {
    "STAR": _STAR,
    "RAISE": _RAISE,
    "LOWER": _LOWER,
    # one-mode operators: sums of star/derivative compositions
    "L1": _STAR @ _RAISE + _RAISE @ _STAR,
    "L2": _STAR @ _LOWER + _LOWER @ _STAR,
    "L3": _L3,
    "L4": _L4,
    "NOT": _L4,
    # two-mode operators: sums of generator tensor products
    "LL1": _STAR.tensor(_RAISE) + _RAISE.tensor(_STAR),
    "LL2": _STAR.tensor(_LOWER) + _LOWER.tensor(_STAR),
    "LL3": _STAR.tensor(_RAISE) + _LOWER.tensor(_STAR),
    "LL4": _STAR.tensor(_LOWER) + _RAISE.tensor(_STAR),
    "HPLUS": _HPLUS,
    "HMINUS": _L4 @ _HPLUS,
    "SIG2A": _L4 @ _STAR,
    "SIG2B": _L3 @ _STAR,
    # controlled flip |ij> -> |i>|i xor j>; qubit 0 is the control, and
    # lower.raise and raise.lower project it onto |0> and |1>
    "CNOT": (_LOWER @ _RAISE).tensor(_ID) + (_RAISE @ _LOWER).tensor(_L4),
}
