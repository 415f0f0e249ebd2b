"""Ket helpers for the tests: state transformations the package has no use for."""

from bhqc.states import Ket


def permute(ket: Ket, order) -> Ket:
    """Reorder qubits: output qubit i is input qubit order[i]."""
    if sorted(order) != list(range(ket.n_qubits)):
        raise ValueError("order must be a permutation of the qubit indices")
    return Ket(ket.n_qubits, {"".join(b[q] for q in order): a for b, a in ket.terms.items()})
