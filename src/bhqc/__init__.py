"""Exact gate-algebra simulator, identity verifier, and SLOCC classifier.

``import bhqc`` loads none of the modules below: each name in ``__all__``
imports its module on first access (PEP 562), so a caller pays only for the
modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the names it exports through the package
_EXPORTS = {
    "scalars": ("GaussianRational", "SymbolicAmplitude", "amp"),
    "states": ("MAX_QUBITS", "Ket"),
    "operators": ("GATES", "Operator", "apply"),
    "circuit": ("MATCH", "MATCH_UP_TO_SCALAR", "MISMATCH", "ApplyGate", "Circuit", "Expect",
                "Project", "compare_kets", "instruction_text", "run"),
    "dsl": ("DslError", "parse_circuit", "parse_ket"),
    "claims": ("CLAIMS", "KNOWN_MISMATCHES", "KNOWN_SCALAR_MATCHES", "verify_claims"),
    "classifier": ("classify", "transition_report"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str) -> object:
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

