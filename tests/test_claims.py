import ast
from pathlib import Path

import pytest

from bhqc.circuit import MATCH, MATCH_UP_TO_SCALAR, MISMATCH
from bhqc.claims import CLAIMS, KNOWN_MISMATCHES, KNOWN_SCALAR_MATCHES, verify_claims
from bhqc.scalars import GaussianRational
from bhqc.states import Ket

from _exact import run, vector

ROOT = Path(__file__).resolve().parents[1]


def _by_id(records):
    return {r.claim_id: r for r in records}


def test_catalog_is_exhaustive_and_ids_unique():
    ids = [c.instructions[-1].claim_id for c in CLAIMS]
    assert len(ids) == len(set(ids))
    assert len(ids) == 81


def test_verdicts_are_exactly_the_known_set():
    records = verify_claims()
    mismatches = {r.claim_id for r in records if r.verdict == MISMATCH}
    scalars = {r.claim_id for r in records if r.verdict == MATCH_UP_TO_SCALAR}
    matches = {r.claim_id for r in records if r.verdict == MATCH}
    assert mismatches == set(KNOWN_MISMATCHES)
    assert scalars == set(KNOWN_SCALAR_MATCHES)
    assert len(matches) == len(records) - len(mismatches) - len(scalars)


def test_bell_stage_details():
    records = _by_id(verify_claims())
    assert records["B1"].verdict == MATCH
    assert records["B2"].verdict == MATCH
    assert records["B3"].verdict == MISMATCH
    assert records["B3"].computed == Ket(2, {"11": -1})
    assert records["B4-text"].verdict == MATCH_UP_TO_SCALAR
    assert records["B4-text"].scalar == GaussianRational(-1)
    assert records["B4-eq25"].verdict == MISMATCH


def test_interchange_chain():
    records = _by_id(verify_claims())
    assert records["interchange-step1"].verdict == MATCH
    assert records["interchange-step2"].verdict == MISMATCH
    assert records["interchange-step2"].computed == Ket(3, {"000": 1, "011": 1})


def test_summary_lines_match_the_documented_format():
    records = _by_id(verify_claims())
    assert records["B1"].summary() == "Eq.(22) B1: MATCH"
    assert records["B3"].summary() == "Eq.(24) B3: MISMATCH (computed -|11>)"
    assert records["B4-text"].summary() == "Eq.(25) prose B4-text: MATCH_UP_TO_SCALAR(-1)"


def test_ledger_soundness_against_the_dense_oracle():
    # every computed state, and hence every verdict, must be reproduced by
    # the independent dense path
    records = _by_id(verify_claims())
    for circuit in CLAIMS:
        *steps, expect = circuit.instructions
        want = run(circuit.initial_state, steps)
        assert vector(records[expect.claim_id].computed) == want, expect.claim_id


@pytest.mark.parametrize("path", ["tests/_exact.py", "tests/_oracle.py", "bench/exact.py"])
def test_the_references_import_nothing_from_bhqc(path):
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    modules = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names]
    modules += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert [m for m in modules if m.split(".")[0] == "bhqc"] == []
