"""The gate algebra: star/raise/lower generators and every derived operator.

Operators are exact sparse matrices over Gaussian rationals.  They are not
unitary in general (raise and lower are nilpotent) and carry no
normalization factors.  All derived gates are built *from* the generators;
their stated action tables are checked elsewhere, never hard-coded here.

A k-qubit gate acts in place: ``apply`` rewrites each basis term's bits at
the gate's targets through the gate's by-column table; no 2^n x 2^n matrix
is built.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .scalars import GaussianRational, SymbolicAmplitude, ZERO
from .states import MAX_QUBITS, Ket, OperandError, check_targets


class Operator:
    """Sparse 2^k x 2^k linear map with exact scalar entries.

    ``by_column`` maps each column's k-bit string to its nonzero entries as
    (row bits, value) pairs.
    """

    __slots__ = ("arity", "entries", "by_column")

    def __init__(self, arity: int,
                 entries: Mapping[tuple[int, int], object] | None = None) -> None:
        if not 1 <= arity <= MAX_QUBITS:
            raise ValueError(f"operator arity must be between 1 and {MAX_QUBITS}")
        dim = 1 << arity
        canon: dict[tuple[int, int], GaussianRational] = {}
        for (r, c), value in (entries or {}).items():
            if not (0 <= r < dim and 0 <= c < dim):
                raise ValueError(f"entry ({r}, {c}) out of range for arity {arity}")
            g = value if isinstance(value, GaussianRational) else GaussianRational(value)
            if g:
                canon[(r, c)] = g
        self.arity = arity
        self.entries = canon
        self.by_column: dict[str, list[tuple[str, GaussianRational]]] = {}
        for (r, c), v in canon.items():
            self.by_column.setdefault(format(c, f"0{arity}b"), []).append(
                (format(r, f"0{arity}b"), v))

    @classmethod
    def identity(cls, arity: int) -> Operator:
        return cls(arity, {(k, k): 1 for k in range(1 << arity)})

    def __add__(self, other: object) -> Operator:
        if not isinstance(other, Operator):
            return NotImplemented
        if other.arity != self.arity:
            raise ValueError("operator arity mismatch")
        merged = dict(self.entries)
        for key, v in other.entries.items():
            merged[key] = merged.get(key, ZERO) + v
        return Operator(self.arity, merged)

    def __sub__(self, other: object) -> Operator:
        if not isinstance(other, Operator):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> Operator:
        return Operator(self.arity, {k: -v for k, v in self.entries.items()})

    def __mul__(self, scalar: object) -> Operator:
        g = scalar if isinstance(scalar, GaussianRational) else GaussianRational(scalar)
        return Operator(self.arity, {k: v * g for k, v in self.entries.items()})

    __rmul__ = __mul__

    def __matmul__(self, other: object) -> Operator:
        """Composition self . other: ``other`` acts first."""
        if not isinstance(other, Operator):
            return NotImplemented
        if other.arity != self.arity:
            raise ValueError("operator arity mismatch")
        rows_of: dict[int, list[tuple[int, GaussianRational]]] = {}
        for (r, k), v in self.entries.items():
            rows_of.setdefault(k, []).append((r, v))
        out: dict[tuple[int, int], GaussianRational] = {}
        for (k, c), w in other.entries.items():
            for r, v in rows_of.get(k, ()):
                acc = out.get((r, c), ZERO) + v * w
                if acc:
                    out[(r, c)] = acc
                else:
                    out.pop((r, c), None)
        return Operator(self.arity, out)

    def __pow__(self, k: int) -> Operator:
        if not isinstance(k, int) or k < 0:
            raise ValueError("operator powers must be nonnegative integers")
        result = Operator.identity(self.arity)
        for _ in range(k):
            result = result @ self
        return result

    def tensor(self, other: Operator) -> Operator:
        arity = self.arity + other.arity
        if arity > MAX_QUBITS:
            raise ValueError(f"tensor product exceeds {MAX_QUBITS} qubits")
        dim_b = 1 << other.arity
        out = {}
        for (ra, ca), va in self.entries.items():
            for (rb, cb), vb in other.entries.items():
                out[(ra * dim_b + rb, ca * dim_b + cb)] = va * vb
        return Operator(arity, out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Operator):
            return NotImplemented
        return self.arity == other.arity and self.entries == other.entries

    __hash__ = None

    def __repr__(self) -> str:
        body = ", ".join(f"({r},{c})={v}" for (r, c), v in sorted(self.entries.items()))
        return f"Operator(arity={self.arity}, {{{body}}})"


_ID = Operator.identity(1)
_STAR = Operator(1, {(0, 0): -1, (1, 1): 1})
_RAISE = Operator(1, {(1, 0): 1})
_LOWER = Operator(1, {(0, 1): 1})


def lambda_op(k: int) -> Operator:
    """One-mode operators 1..4, each a sum of star/derivative compositions."""
    s, up, dn = _STAR, _RAISE, _LOWER
    table = {
        1: s @ up + up @ s,
        2: s @ dn + dn @ s,
        3: s @ dn + up @ s,
        4: s @ up + dn @ s,
    }
    if k not in table:
        raise ValueError("index must be 1..4")
    return table[k]


def hadamard_plus() -> Operator:
    return _ID + _STAR @ lambda_op(4)


def hadamard_minus() -> Operator:
    return lambda_op(4) @ hadamard_plus()


def sigma2_gate(variant: str) -> Operator:
    if variant == "A":
        return lambda_op(4) @ _STAR
    if variant == "B":
        return lambda_op(3) @ _STAR
    raise ValueError("variant must be 'A' or 'B'")


def big_lambda_op(k: int) -> Operator:
    """Two-mode operators 1..4 built from generator tensor products."""
    s, up, dn = _STAR, _RAISE, _LOWER
    table = {
        1: s.tensor(up) + up.tensor(s),
        2: s.tensor(dn) + dn.tensor(s),
        3: s.tensor(up) + dn.tensor(s),
        4: s.tensor(dn) + up.tensor(s),
    }
    if k not in table:
        raise ValueError("index must be 1..4")
    return table[k]


def cnot() -> Operator:
    """Controlled flip |ij> -> |i>|i xor j>; qubit 0 is the control."""
    p0 = Operator(1, {(0, 0): 1})
    p1 = Operator(1, {(1, 1): 1})
    return p0.tensor(_ID) + p1.tensor(lambda_op(4))


def apply(op: Operator, state: Ket, targets: Sequence[int] | None = None) -> Ket:
    """``op`` acting on the qubits ``targets`` of ``state`` (default: all, in order).

    ``targets[j]`` receives qubit j of ``op``, so ``apply(cnot(), s, [2, 1])``
    uses qubit 2 as control and qubit 1 as target.
    """
    n = state.n_qubits
    targets = tuple(range(n)) if targets is None else tuple(targets)
    check_targets(targets, n, op.arity,
                  f"an arity-{op.arity} operator needs {op.arity} targets")
    out: dict[str, SymbolicAmplitude] = {}
    for bits, a in state.terms.items():
        column = "".join([bits[t] for t in targets])
        for row, v in op.by_column.get(column, ()):
            chars = list(bits)
            for t, c in zip(targets, row):
                chars[t] = c
            key = "".join(chars)
            prev = out.get(key)
            out[key] = a * v if prev is None else prev + a * v
    return Ket(n, out, state.labels)


GATES: dict[str, Operator] = {
    "STAR": _STAR,
    "RAISE": _RAISE,
    "LOWER": _LOWER,
    "L1": lambda_op(1),
    "L2": lambda_op(2),
    "L3": lambda_op(3),
    "L4": lambda_op(4),
    "NOT": lambda_op(4),
    "LL1": big_lambda_op(1),
    "LL2": big_lambda_op(2),
    "LL3": big_lambda_op(3),
    "LL4": big_lambda_op(4),
    "HPLUS": hadamard_plus(),
    "HMINUS": hadamard_minus(),
    "SIG2A": sigma2_gate("A"),
    "SIG2B": sigma2_gate("B"),
    "CNOT": cnot(),
}


def gate_named(name: str) -> Operator:
    try:
        return GATES[name]
    except KeyError:
        raise OperandError(f"unknown gate '{name}'") from None
