"""Seeded inputs for the three workloads, each with a reference bhqc did not produce.

- ``verify-paper``: ``verify-paper --json``.  The reference is the paper's
  verdict ledger, copied below.  The input is fixed, so the seed is unused.
- ``classify-mix``: ``classify "<ket>"`` on states built inside a known
  SLOCC class (Dur, Vidal and Cirac, PRA 62, 062314).  The reference is
  that class, its rank pattern and its exact hyperdeterminant.
- ``wide-circuits``: ``run <file> --json`` on 4-6 qubit circuits with
  polynomial amplitudes.  The reference is the dense evaluator in
  ``exact``, compared at fixed exact values of the symbols.

A workload is a pool of cases plus a seeded order in which the benchmark
cycles through them; the order starts with case 0, whose work is the same
at every seed.  ``check`` returns None for a correct output and a
reason otherwise; it raises on output it cannot read.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from exact import (ZERO, Q, add_scaled, apply_gate, eval_ket, eval_scalar,
                   ket_text, poly_eval, project, q_text, scaled, GATES)


@dataclass(frozen=True)
class Case:
    argv: tuple[str, ...]
    ref: object
    file_name: str | None = None     # written to the working directory before the run
    file_text: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    cases: tuple[Case, ...]
    order: tuple[int, ...]
    check: Callable[[Case, int, str], str | None]

    def inputs_bytes(self) -> bytes:
        """Every generated input, serialized; equal seeds give equal bytes."""
        return json.dumps({"order": self.order,
                           "cases": [[c.argv, c.file_name, c.file_text] for c in self.cases]},
                          sort_keys=True).encode()


def make(name: str, seed: int) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    cases, check = _MAKERS[name](rng)
    rest = list(range(1, len(cases)))
    rng.shuffle(rest)
    return Workload(name, tuple(cases), (0, *rest), check)


# -- verify-paper --------------------------------------------------------

CLAIM_IDS = (
    "star-0 star-1 star-plus star-minus raise-0 raise-1 lower-0 lower-1 "
    "lambda1-0 lambda2-0 lambda3-0 lambda4-0 lambda1-1 lambda2-1 lambda3-1 lambda4-1 "
    "lambda3-qubit lambda4-qubit hplus-0 hplus-1 hminus-0 hminus-1 "
    "sig2a-0 sig2a-1 sig2b-0 sig2b-1 "
    "starstar-00 starstar-01 starstar-10 starstar-11 upup-00 upup-01 upup-10 upup-11 "
    "dndn-00 dndn-01 dndn-10 dndn-11 updn-00 updn-01 updn-10 updn-11 "
    "dnup-00 dnup-01 dnup-10 dnup-11 "
    "LL1-00 LL1-11 LL1-01 LL1-10 LL2-00 LL2-11 LL2-01 LL2-10 "
    "LL3-00 LL3-11 LL3-01 LL3-10 LL4-00 LL4-11 LL4-01 LL4-10 "
    "LL2LL1-00 LL1LL2-11 cnot-00 cnot-01 cnot-10 cnot-11 "
    "B1 B2 B3 B4-text B4-eq25 "
    "teleport-cnot teleport-hadamard teleport-not teleport-project "
    "ghz-a1 ghz-a2 interchange-step1 interchange-step2"
).split()
MISMATCHES = frozenset({"LL4-00", "LL4-01", "LL4-10", "LL4-11",
                        "B3", "B4-eq25", "interchange-step2"})
SCALAR_MATCHES = {"B4-text": Q(-1)}
SUMMARY = {"total": 81, "match": 73, "match_up_to_scalar": 1, "mismatch": 7}


def _verify_paper(rng: random.Random):
    return [Case(("verify-paper", "--json"), None)], _check_verify_paper


def _check_verify_paper(case: Case, rc: int, out: str) -> str | None:
    if rc != 2:
        return f"exit code {rc}, expected 2"
    data = json.loads(out)
    claims = data["claims"]
    if [c["id"] for c in claims] != CLAIM_IDS:
        return "claim ids or their order differ"
    for c in claims:
        cid = c["id"]
        if cid in MISMATCHES:
            want = "MISMATCH"
        elif cid in SCALAR_MATCHES:
            want = "MATCH_UP_TO_SCALAR"
            if eval_scalar(c["scalar"]) != SCALAR_MATCHES[cid]:
                return f"{cid}: scalar {c['scalar']}"
        else:
            want = "MATCH"
        if c["verdict"] != want:
            return f"{cid}: verdict {c['verdict']}, expected {want}"
        if (c["expected"] == c["computed"]) != (want == "MATCH"):
            return f"{cid}: expected/computed states disagree with the verdict"
    if data["summary"] != SUMMARY:
        return f"summary {data['summary']}"
    return None


# -- classify-mix --------------------------------------------------------

# Class -> number of states in one pool; the mix is fixed, only values vary.
CLASS_MIX = (("SEPARABLE3", 8), ("BISEPARABLE-A", 7), ("BISEPARABLE-B", 7),
             ("BISEPARABLE-C", 7), ("W", 10), ("GHZ", 11),
             ("SEPARABLE2", 5), ("ENTANGLED", 5))

_BIPARTITION = {"A": "A-BC", "B": "B-CA", "C": "C-AB"}


def _rand_q(rng: random.Random, bits: int) -> Q:
    """Gaussian rational with numerators below 2**bits; most are not integers."""
    lim = 1 << bits
    return Q(Fraction(rng.randint(-lim, lim), rng.randint(1, 9)),
             Fraction(rng.randint(-lim, lim), rng.randint(1, 9)))


def _det2(m) -> Q:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def _rand_vec(rng: random.Random, bits: int):
    while True:
        v = (_rand_q(rng, bits), _rand_q(rng, bits))
        if v[0] or v[1]:
            return v


def _rand_invertible(rng: random.Random, bits: int):
    while True:
        m = [[_rand_q(rng, bits) for _ in range(2)] for _ in range(2)]
        if _det2(m):
            return m


def _local(maps, terms: tuple[str, ...]) -> dict[str, Q]:
    """(A x B x C) applied to the sum of the given 3-qubit basis kets."""
    out = {}
    for a in range(2):
        for b in range(2):
            for c in range(2):
                v = ZERO
                for t in terms:
                    x, y, z = (int(ch) for ch in t)
                    v = v + maps[0][a][x] * maps[1][b][y] * maps[2][c][z]
                out[f"{a}{b}{c}"] = v
    return out


def _state(kind: str, rng: random.Random) -> tuple[dict[str, Q], dict[str, str], Q | None]:
    """Amplitudes, expected report lines and expected hyperdeterminant (3 qubits)."""
    bits3 = [f"{a}{b}{c}" for a in range(2) for b in range(2) for c in range(2)]
    if kind == "SEPARABLE3":
        u, v, w = (_rand_vec(rng, 7) for _ in range(3))
        amps = {k: u[int(k[0])] * v[int(k[1])] * w[int(k[2])] for k in bits3}
        return amps, _lines3("SEPARABLE(A-B-C)", "1,1,1", "1", "1/2 preserved", "small"), ZERO
    if kind.startswith("BISEPARABLE"):
        party = kind[-1]
        u, m = _rand_vec(rng, 7), _rand_invertible(rng, 14)
        p = "ABC".index(party)
        amps = {}
        for k in bits3:
            rest = k[:p] + k[p + 1:]
            amps[k] = u[int(k[p])] * m[int(rest[0])][int(rest[1])]
        ranks = ",".join("1" if q == p else "2" for q in range(3))
        return (amps, _lines3(f"BISEPARABLE({_BIPARTITION[party]})", ranks,
                              "2" + party.lower(), "1/4 preserved", "small"), ZERO)
    if kind == "W":
        maps = [_rand_invertible(rng, 7) for _ in range(3)]
        amps = _local(maps, ("001", "010", "100"))
        return amps, _lines3("W", "2,2,2", "3", "1/8 preserved", "small"), ZERO
    if kind == "GHZ":
        maps = [_rand_invertible(rng, 7) for _ in range(3)]
        amps = _local(maps, ("000", "111"))
        # Cayley's hyperdeterminant has weight 2 in each local determinant.
        d = _det2(maps[0]) * _det2(maps[1]) * _det2(maps[2])
        return (amps, _lines3("GHZ", "2,2,2", "4", "1/8 preserved or completely broken",
                              "large"), d * d)
    if kind == "SEPARABLE2":
        u, v = _rand_vec(rng, 10), _rand_vec(rng, 10)
        amps = {f"{a}{b}": u[a] * v[b] for a in range(2) for b in range(2)}
        return amps, {"class": "SEPARABLE", "ranks": "1,1", "fts_rank": "1",
                      "susy": "1/2 preserved", "size": "small"}, None
    m = _rand_invertible(rng, 20)
    amps = {f"{a}{b}": m[a][b] for a in range(2) for b in range(2)}
    return amps, {"class": "ENTANGLED", "ranks": "2,2", "fts_rank": None,
                  "susy": None, "size": None}, None


def _lines3(label: str, ranks: str, fts: str, susy: str, size: str) -> dict[str, str]:
    return {"class": label, "ranks": ranks, "fts_rank": fts, "susy": susy, "size": size}


def _classify_mix(rng: random.Random):
    cases = []
    for kind, count in CLASS_MIX:
        for _ in range(count):
            amps, lines, det = _state(kind, rng)
            text = " + ".join(f"{q_text(v)}|{k}>" for k, v in amps.items() if v)
            cases.append(Case(("classify", text), (lines, det)))
    return cases, _check_classify


def _check_classify(case: Case, rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    got = dict(line.split(": ", 1) for line in out.splitlines())
    want, det = case.ref
    for key, value in want.items():
        if got.get(key) != value:
            return f"{key}: {got.get(key)!r}, expected {value!r}"
    if det is not None:
        if eval_scalar(got["det"]) != det:
            return f"det {got['det']}"
        tau3 = float(got["tau3"])
        if (tau3 > 0) != bool(det) or tau3 < 0:
            return f"tau3 {tau3}"
    return None


# -- wide-circuits -------------------------------------------------------

SYMBOLS = ("alpha", "beta", "alpha~", "beta~")
# Fixed exact values at which the reference and bhqc's output are compared.
ENV = {"alpha": Q(Fraction(7, 3), 2), "beta": Q(-5, Fraction(11, 7)),
       "alpha~": Q(Fraction(13, 5), -1), "beta~": Q(3, Fraction(17, 2))}
# Weighted towards gates that keep terms; RAISE and projection remove them.
GATE_MENU = (("HPLUS", 6), ("HMINUS", 4), ("CNOT", 6), ("NOT", 3), ("STAR", 3),
             ("SIG2A", 2), ("SIG2B", 2), ("L3", 2), ("L4", 2), ("LL3", 2),
             ("LL4", 2), ("RAISE", 1), ("project", 1))
QUBIT_MIX = (4, 5, 6)
# Amplitude work per circuit (monomials summed over every step's state, which
# tracks run and render time closely).  Each qubit count gets one circuit per
# rung, drawn until its work is within WORK_BAND of the rung, so every seed
# has the same spread of work and only the contents change.
WORK_LADDER = (150, 225, 300, 375, 450, 550, 650, 800)
WORK_BAND = 0.1
FIRST_RUNG = 4           # the rung of the first operation, which setup_s times
GATES_PER_CIRCUIT = 14
INITIAL_TERMS = 8
SCALINGS = (Q(2), Q(-1), Q(0, 1), Q(1, 1))


@dataclass(frozen=True)
class CircuitRef:
    steps: tuple[tuple[str, dict[str, Q]], ...]   # instruction text, amplitudes at ENV
    expect_line: int
    verdict: str
    scalar: Q | None


def _rand_poly(rng: random.Random) -> dict:
    poly: dict = {}
    for _ in range(rng.randint(1, 2)):
        mono = tuple(sorted(rng.choice(SYMBOLS) for _ in range(rng.randint(1, 2))))
        add_scaled(poly, {mono: 1}, rng.choice((-3, -2, -1, 1, 2, 3)))
    return poly or {("alpha",): 1}


def _values(vec: list[dict], n: int) -> dict[str, Q]:
    vals = {f"{i:0{n}b}": poly_eval(p, ENV) for i, p in enumerate(vec) if p}
    return {b: v for b, v in vals.items() if v}


def _work(vec: list[dict]) -> int:
    return sum(len(p) for p in vec)


def _circuit(rng: random.Random, n: int, work: int) -> tuple[str, CircuitRef]:
    names = [g for g, _ in GATE_MENU]
    weights = [w for _, w in GATE_MENU]
    while True:
        vec: list[dict] = [{} for _ in range(1 << n)]
        for idx in rng.sample(range(1 << n), INITIAL_TERMS):
            vec[idx] = _rand_poly(rng)
        lines = [f"qubits {n}", "symbols alpha beta", f"state {ket_text(vec, n)}"]
        steps = [("init", vec)]
        for _ in range(GATES_PER_CIRCUIT):
            gate = rng.choices(names, weights)[0]
            if gate == "project":
                t, bit = rng.randrange(n), rng.choice("01")
                vec = project(bit, (t,), n, vec)
                text = f"project {bit} {t}"
            else:
                targets = tuple(rng.sample(range(n), 2 if len(GATES[gate]) == 4 else 1))
                vec = apply_gate(gate, targets, n, vec)
                text = f"apply {gate} " + " ".join(map(str, targets))
            lines.append(text)
            steps.append((text, vec))
        if any(vec) and abs(sum(_work(v) for _, v in steps) - work) <= WORK_BAND * work:
            break
    roll = rng.random()
    if roll < 0.5:
        expected, verdict, scalar = vec, "MATCH", None
    elif roll < 0.75:
        c = rng.choice(SCALINGS)
        expected, verdict, scalar = [scaled(p, c) for p in vec], "MATCH_UP_TO_SCALAR", c.inverse()
    else:
        # An extra term (or a changed one) makes it no scalar multiple of the result.
        expected = [dict(p) for p in vec]
        empty = [i for i, p in enumerate(vec) if not p]
        idx = rng.choice(empty) if empty else rng.randrange(1 << n)
        add_scaled(expected[idx], {("alpha", "beta"): 1}, 1)
        verdict, scalar = "MISMATCH", None
    lines.append(f"expect {ket_text(expected, n)}")
    ref = CircuitRef(tuple((text, _values(v, n)) for text, v in steps),
                     len(lines), verdict, scalar)
    return "\n".join(lines) + "\n", ref


def _wide_circuits(rng: random.Random):
    cases = []
    for n, work in [(QUBIT_MIX[1], WORK_LADDER[FIRST_RUNG])] + [
            (n, w) for n in QUBIT_MIX for k, w in enumerate(WORK_LADDER)
            if (n, k) != (QUBIT_MIX[1], FIRST_RUNG)]:
        name = f"w{len(cases):02d}.bhqc"
        text, ref = _circuit(rng, n, work)
        cases.append(Case(("run", name, "--json"), ref, name, text))
    return cases, _check_wide


def _check_wide(case: Case, rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    data = json.loads(out)
    ref: CircuitRef = case.ref
    if len(data["steps"]) != len(ref.steps):
        return f"{len(data['steps'])} steps, expected {len(ref.steps)}"
    for k, (got, (text, vals)) in enumerate(zip(data["steps"], ref.steps)):
        if got["instruction"] != text:
            return f"step {k}: instruction {got['instruction']!r}"
        if eval_ket(got["state"], ENV) != vals:
            return f"step {k}: state differs from the dense reference"
    (claim,) = data["claims"]
    if (claim["id"], claim["location"], claim["verdict"]) != (
            "expect-1", f"line {ref.expect_line}", ref.verdict):
        return f"claim {claim}"
    if ref.scalar is not None and eval_scalar(claim["scalar"]) != ref.scalar:
        return f"scalar {claim['scalar']}"
    return None


_MAKERS = {
    "verify-paper": _verify_paper,
    "classify-mix": _classify_mix,
    "wide-circuits": _wide_circuits,
}
WORKLOADS = tuple(_MAKERS)
