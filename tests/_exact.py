"""bhqc's kets and circuit steps in the terms of ``bench/exact.py``, which imports
nothing from bhqc.

A ket is read from its stored terms as they are, with no bhqc arithmetic,
comparison or rendering, so a stored zero or an unsorted monomial never equals
exact's vector, which holds neither.
"""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "bench_exact", Path(__file__).resolve().parents[1] / "bench" / "exact.py")
exact = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(exact)
Q, ONE = exact.Q, exact.ONE


def _coefficient(c):
    """A bhqc scalar as exact writes a coefficient: an int where it can be, else a ``Q``."""
    re, im = c.re, c.im
    return re.numerator if re.denominator == 1 and not im else Q(re, im)


def vector(ket) -> list:
    """``ket`` as exact's dense vector of polynomials; a stored empty amplitude reads as None."""
    vec = [{} for _ in range(1 << ket.n_qubits)]
    for bits, a in ket.terms.items():
        items = a.items() if hasattr(a, "items") else [((), a)]
        vec[int(bits, 2)] = {mono: _coefficient(c) for mono, c in items} or None
    return vec


def run(ket, steps) -> list:
    """exact's vector after the ApplyGate and Project ``steps``, from ``ket``."""
    vec = vector(ket)
    for s in steps:
        kind = type(s).__name__
        if kind == "ApplyGate":
            vec = exact.apply_gate(s.gate, tuple(s.targets), ket.n_qubits, vec)
        elif kind == "Project":
            vec = exact.project(s.bits, tuple(s.targets), ket.n_qubits, vec)
        else:
            raise ValueError(f"exact cannot interpret {s!r}")
    return vec
