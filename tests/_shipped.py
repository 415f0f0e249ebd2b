"""The circuit files the package ships, which ``bhqc demo`` runs."""

from pathlib import Path

import bhqc
from bhqc.circuit import Circuit
from bhqc.dsl import parse_circuit

CIRCUITS = Path(bhqc.__file__).with_name("circuits")


def shipped(stem: str) -> Circuit:
    """The circuit in the shipped file ``<stem>.bhqc``."""
    return parse_circuit((CIRCUITS / f"{stem}.bhqc").read_text(encoding="utf-8"))
