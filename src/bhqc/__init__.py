"""Exact gate-algebra simulator, identity verifier, and SLOCC classifier."""

from .scalars import (GaussianRational, SymbolTable, SymbolicAmplitude, amp,
                      conjugate_name)
from .states import MAX_QUBITS, Ket
from .operators import (GATES, Operator, apply, big_lambda_op, cnot, gate_named,
                        hadamard_minus, hadamard_plus, lambda_op, sigma2_gate)
from .circuit import (MATCH, MATCH_UP_TO_SCALAR, MISMATCH, ApplyGate, Circuit,
                      ClaimRecord, Expect, Instruction, Project, RunResult,
                      TraceStep, compare_kets, instruction_text, run)
from .dsl import (DslError, parse_amplitude, parse_circuit, parse_ket,
                  render_circuit)
from .builders import (bell_chain, class_change_circuit, ghz_circuit,
                       teleport_circuit)
from .claims import (CLAIMS, KNOWN_MISMATCHES, KNOWN_SCALAR_MATCHES, ClaimSpec,
                     verify_claims)
from .classify import (COSET_CHAIN, GHZ_BRANE_NOTE, SUSY_PHRASE,
                       EntanglementReport, SymbolicStateError, TransitionReport,
                       classify, flattening_ranks, hyperdeterminant,
                       three_tangle, transition_report)

__version__ = "0.1.0"

__all__ = [
    "GaussianRational", "SymbolTable", "SymbolicAmplitude", "amp",
    "conjugate_name", "MAX_QUBITS", "Ket", "GATES", "Operator", "apply",
    "big_lambda_op", "cnot", "gate_named", "hadamard_minus", "hadamard_plus",
    "lambda_op", "sigma2_gate", "MATCH", "MATCH_UP_TO_SCALAR", "MISMATCH",
    "ApplyGate", "Circuit", "ClaimRecord", "Expect", "Instruction", "Project", "RunResult", "TraceStep",
    "compare_kets", "instruction_text", "run", "DslError", "parse_amplitude",
    "parse_circuit", "parse_ket", "render_circuit", "bell_chain",
    "class_change_circuit", "ghz_circuit", "teleport_circuit", "CLAIMS",
    "KNOWN_MISMATCHES", "KNOWN_SCALAR_MATCHES", "ClaimSpec", "verify_claims",
    "COSET_CHAIN", "GHZ_BRANE_NOTE", "SUSY_PHRASE", "EntanglementReport",
    "SymbolicStateError", "TransitionReport", "classify", "flattening_ranks",
    "hyperdeterminant", "three_tangle", "transition_report",
]
