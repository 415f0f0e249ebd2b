"""Unnormalized multi-qubit kets with exact symbolic amplitudes.

Qubit 0 is the leftmost character of a basis bitstring.  States are never
normalized; the zero vector (empty term map) is a legal value.  An
amplitude is a ``SymbolicAmplitude`` exactly while a symbol remains in it
and a ``GaussianRational`` otherwise, so a ket free of symbols pays for no
polynomial arithmetic, and one whose symbols cancel holds scalars.  Kets are
immutable value objects, shared freely: a circuit step holds the amplitude
objects the gate passed through unchanged, and each ket and each amplitude
caches its text the first time it is rendered.  ``Ket(...)`` validates
outside input; the results of ket operations skip that check.  Operators
use the same format: a gate is the table of kets its basis kets go to.
Mode labels belong to circuits, not to kets.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence

from .scalars import Amplitude, amp, join_terms, scaled_str

MAX_QUBITS = 6


def check_type(value: object, kind: type, name: str, error: type = TypeError) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is exactly a ``kind``: a bool is no int."""
    if type(value) is not kind:
        raise error(f"{name} must be {kind.__name__}, not {type(value).__name__}")


def check_bits(bits: str, n: int) -> None:
    check_type(bits, str, "bitstring")
    if len(bits) != n or any(c not in "01" for c in bits):
        raise ValueError(f"bitstring {bits!r} must be {n} characters over {{0,1}}")


class OperandError(ValueError):
    """A bad gate, projection or target list.

    ``index`` is the position of the target at fault, or None.
    """

    def __init__(self, message: str, index: int | None = None) -> None:
        super().__init__(message)
        self.index = index


def check_targets(targets: Sequence[int], n_qubits: int, count: int,
                  count_error: Callable[[], str]) -> None:
    """The one target check: ``count`` distinct qubits of an ``n_qubits`` register.

    ``count_error()`` builds the message for a wrong count, only when raising.
    """
    if len(targets) != count:
        raise OperandError(count_error())
    for k, t in enumerate(targets):
        if type(t) is not int:  # a float or a bool would pass the range test
            raise OperandError(f"target qubit {t!r} is not an int", k)
        if not 0 <= t < n_qubits:
            raise OperandError(f"target qubit {t} out of range", k)
        if t in targets[:k]:
            raise OperandError(f"duplicate target qubit {t}", k)


def check_projection(bits: str, targets: Sequence[int], n_qubits: int) -> None:
    """Nonempty 0/1 ``bits``, one for each of ``targets``."""
    if type(bits) is not str or not bits or any(c not in "01" for c in bits):
        raise OperandError("projection bits must be 0/1")
    check_targets(targets, n_qubits, len(bits),
                  lambda: f"expected {len(bits)} targets for {len(bits)} projection bits")


class Ket:
    """Sparse ket: map from basis bitstring to amplitude, in bit order.

    Immutable; ``_text`` caches the rendering.
    """

    __slots__ = ("n_qubits", "terms", "_text")

    def __init__(self, n_qubits: int, terms: Mapping[str, object] | None = None) -> None:
        check_type(n_qubits, int, "n_qubits")
        if not 1 <= n_qubits <= MAX_QUBITS:
            raise ValueError(f"qubit count must be between 1 and {MAX_QUBITS}, got {n_qubits}")
        canon: dict[str, Amplitude] = {}
        for bits, value in dict(terms or {}).items():
            check_bits(bits, n_qubits)
            a = amp(value)
            if a:
                canon[bits] = a
        self.n_qubits = n_qubits
        self.terms = dict(sorted(canon.items()))
        self._text = None

    @classmethod
    def _canonical(cls, n_qubits: int, terms: Mapping[str, Amplitude]) -> Ket:
        """Wrap valid ``n_qubits``-bit keys and canonical amplitudes, dropping
        zeros and putting the bits in order.  For results built from kets;
        outside input goes through ``__init__``."""
        k = object.__new__(cls)
        k.n_qubits = n_qubits
        items = sorted(terms.items()) if len(terms) > 1 else terms.items()
        k.terms = {b: a for b, a in items if a}
        k._text = None
        return k

    @classmethod
    def zero(cls, n_qubits: int) -> Ket:
        return cls(n_qubits)

    @classmethod
    def basis(cls, bits: str) -> Ket:
        check_type(bits, str, "bits")
        return cls(len(bits), {bits: 1})

    @property
    def has_symbols(self) -> bool:
        return any(a.has_symbols for a in self.terms.values())

    def __add__(self, other: object) -> Ket:
        if not isinstance(other, Ket):
            return NotImplemented
        if other.n_qubits != self.n_qubits:
            raise ValueError("cannot add kets of different qubit counts")
        merged = dict(self.terms)
        for bits, a in other.terms.items():
            prev = merged.get(bits)
            merged[bits] = a if prev is None else prev + a
        return Ket._canonical(self.n_qubits, merged)

    def __sub__(self, other: object) -> Ket:
        if not isinstance(other, Ket):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> Ket:
        return Ket._canonical(self.n_qubits, {b: -a for b, a in self.terms.items()})

    def __mul__(self, value: object) -> Ket:
        a = amp(value)
        return Ket._canonical(self.n_qubits, {b: x * a for b, x in self.terms.items()})

    __rmul__ = __mul__

    def tensor(self, other: Ket) -> Ket:
        """Bilinear tensor product; bitstrings concatenate."""
        n = self.n_qubits + other.n_qubits
        if n > MAX_QUBITS:
            raise ValueError(f"tensor product exceeds {MAX_QUBITS} qubits")
        out: dict[str, Amplitude] = {}
        for b1, a1 in self.terms.items():
            for b2, a2 in other.terms.items():
                out[b1 + b2] = a1 * a2
        return Ket._canonical(n, out)

    def project(self, targets: Sequence[int], bits: str) -> Ket:
        """Keep exactly the terms whose restriction to ``targets`` equals ``bits``.

        Raises OperandError for a bad projection, which a circuit's project
        step, checked when the circuit was built, never is.
        """
        targets = tuple(targets)
        check_projection(bits, targets, self.n_qubits)
        kept = {b: a for b, a in self.terms.items()
                if all(b[t] == bits[k] for k, t in enumerate(targets))}
        return Ket._canonical(self.n_qubits, kept)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ket):
            return NotImplemented
        return self.n_qubits == other.n_qubits and self.terms == other.terms

    __hash__ = None

    def __str__(self) -> str:
        if self._text is None:
            self._text = join_terms([scaled_str(a, f"|{bits}>")
                                     for bits, a in self.terms.items()])
        return self._text

    def __repr__(self) -> str:
        return f"Ket({self})"
