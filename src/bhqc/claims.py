"""Catalog of the stated identities of this gate algebra, re-derived.

Every entry is a circuit: the gate sequence that is supposed to produce a
stated right-hand side, ending in an ``Expect`` of that state which carries
the claim's id and location.  ``verify_claims`` runs the circuits through
the generator-built operators, and ``run`` computes each verdict; nothing
is asserted by fiat.  ``CLAIMS`` is the tuple of circuits, in order.  The
catalog is exhaustive over the stated single-mode rules, the one- and
two-mode operator action tables, the CNOT rules, the Bell chain, the
teleportation steps, the GHZ construction, and the class-change chain.

Known divergences (reported as MISMATCH, never silently corrected):
the printed two-mode LL4 action table duplicates LL3's and contradicts the
LL4 definition; Bell stages B3 and the Eq.(25) form of B4 do not follow
from the stated operator rules; the class-change chain's end state does
not follow from its stated gates.
"""

from __future__ import annotations

from .circuit import ApplyGate, Circuit, ClaimRecord, Expect, Instruction, Project, run
from .scalars import amp
from .states import Ket


KNOWN_MISMATCHES = frozenset({
    "LL4-00", "LL4-01", "LL4-10", "LL4-11",
    "B3", "B4-eq25",
    "interchange-step2",
})

KNOWN_SCALAR_MATCHES = frozenset({"B4-text"})


def _gates(*specs: tuple[str, tuple[int, ...]]) -> tuple[Instruction, ...]:
    return tuple(ApplyGate(g, t) for g, t in specs)


def _build_claims() -> tuple[Circuit, ...]:
    claims: list[Circuit] = []

    def add(claim_id, location, input_state, steps, expected):
        claims.append(Circuit(input_state, (*steps, Expect(expected, claim_id, location))))

    def table(name, location, steps, images):
        """The claims ``{name}-{b}`` that ``steps`` send each basis ket |b> to ``images[b]``."""
        for b, image in images.items():
            add(f"{name}-{b}", location, basis[b], steps, image)

    basis = {b: Ket.basis(b) for b in ("0", "1", "00", "01", "10", "11")}
    zero1, zero2 = Ket.zero(1), Ket.zero(2)
    k0, k1 = basis["0"], basis["1"]
    alpha, beta = amp("alpha"), amp("beta")

    # single-mode generator rules
    star, star0 = "Sec.2 Hodge star action", _gates(("STAR", (0,)))
    table("star", star, star0, {"0": -k0, "1": k1})
    add("star-plus", star, Ket(1, {"1": 1, "0": 1}), star0, Ket(1, {"1": 1, "0": -1}))
    add("star-minus", star, Ket(1, {"1": 1, "0": -1}), star0, Ket(1, {"1": 1, "0": 1}))
    flip = "Sec.2 covariant-derivative actions"
    table("raise", flip, _gates(("RAISE", (0,))), {"0": k1, "1": zero1})
    table("lower", flip, _gates(("LOWER", (0,))), {"0": zero1, "1": k0})

    # one-mode lambda action table
    lam = "Sec.2 lambda actions"
    for j, kj in (("0", k0), ("1", k1)):
        flipped = k1 if j == "0" else k0
        add(f"lambda1-{j}", lam, kj, _gates(("L1", (0,))), zero1)
        add(f"lambda2-{j}", lam, kj, _gates(("L2", (0,))), zero1)
        add(f"lambda3-{j}", lam, kj, _gates(("L3", (0,))), -flipped)
        add(f"lambda4-{j}", lam, kj, _gates(("L4", (0,))), flipped)
    qubit = Ket(1, {"0": alpha, "1": beta})
    add("lambda3-qubit", lam, qubit, _gates(("L3", (0,))), Ket(1, {"1": -alpha, "0": -beta}))
    add("lambda4-qubit", lam, qubit, _gates(("L4", (0,))), Ket(1, {"1": alpha, "0": beta}))

    # Hadamard composites
    had = "Sec.2 Hadamard gates"
    table("hplus", had, _gates(("HPLUS", (0,))),
          {"0": Ket(1, {"0": 1, "1": 1}), "1": Ket(1, {"1": 1, "0": -1})})
    table("hminus", had, _gates(("HMINUS", (0,))),
          {"0": Ket(1, {"0": 1, "1": 1}), "1": Ket(1, {"0": 1, "1": -1})})

    # sigma2-type composites, written as the stated two-step compositions
    sig = "Sec.2 sigma2 gates"
    table("sig2a", sig, _gates(("STAR", (0,)), ("L4", (0,))), {"0": -k1, "1": k0})
    table("sig2b", sig, _gates(("STAR", (0,)), ("L3", (0,))), {"0": k1, "1": -k0})

    # two-mode generator tensor tables; each bit-flipper tensor keeps one
    # basis ket, flipped, and sends the other three to 0
    pairs = ("00", "01", "10", "11")
    table("starstar", "Eq.(9)", _gates(("STAR", (0,)), ("STAR", (1,))),
          {b: basis[b] if b[0] == b[1] else -basis[b] for b in pairs})
    mixed = "Sec.2 mixed bit-flipper tensors"
    for name, location, gate0, gate1, kept, image in (
            ("upup", "Eq.(10)", "RAISE", "RAISE", "00", "11"),
            ("dndn", "Eq.(11)", "LOWER", "LOWER", "11", "00"),
            ("updn", mixed, "RAISE", "LOWER", "01", "10"),
            ("dnup", mixed, "LOWER", "RAISE", "10", "01")):
        table(name, location, _gates((gate0, (0,)), (gate1, (1,))),
              {b: basis[image] if b == kept else zero2 for b in pairs})

    # two-mode lambda action table as printed; the LL4 rows repeat LL3's
    # and contradict the LL4 definition, so those four records MISMATCH
    ll3 = {"00": -basis["01"], "11": basis["01"], "01": zero2, "10": Ket(2, {"11": 1, "00": -1})}
    for gate, images in (
            ("LL1", {"00": Ket(2, {"01": -1, "10": -1}), "11": zero2,
                     "01": basis["11"], "10": basis["11"]}),
            ("LL2", {"00": zero2, "11": Ket(2, {"01": 1, "10": 1}),
                     "01": -basis["00"], "10": -basis["00"]}),
            ("LL3", ll3),
            ("LL4", ll3)):
        table(gate, "Sec.2 two-mode lambda actions", _gates((gate, (0, 1))), images)

    prod = "Sec.2 two-mode lambda products"
    add("LL2LL1-00", prod, basis["00"],
        _gates(("LL1", (0, 1)), ("LL2", (0, 1))), Ket(2, {"00": 2}))
    add("LL1LL2-11", prod, basis["11"],
        _gates(("LL2", (0, 1)), ("LL1", (0, 1))), Ket(2, {"11": 2}))

    # CNOT conjugation rules
    for eq, b in (("Eq.(17)", "00"), ("Eq.(18)", "01"), ("Eq.(19)", "10"), ("Eq.(20)", "11")):
        flipped = b[0] + str(int(b[0]) ^ int(b[1]))
        add(f"cnot-{b}", eq, basis[b], _gates(("CNOT", (0, 1))), basis[flipped])

    # Bell chain; each stage starts from the stated previous state
    b1 = Ket(2, {"01": 1, "10": 1})
    b2 = Ket(2, {"01": 1, "10": -1})
    b3 = Ket(2, {"00": 1, "11": -1})
    b4 = Ket(2, {"00": 1, "11": 1})
    add("B1", "Eq.(22)", basis["00"],
        _gates(("LL1", (0, 1)), ("STAR", (0,)), ("STAR", (1,))), b1)
    add("B2", "Eq.(23)", b1, _gates(("STAR", (1,))), b2)
    add("B3", "Eq.(24)", b2, _gates(("RAISE", (1,))), b3)
    add("B4-text", "Eq.(25) prose", b3, _gates(("STAR", (1,))), b4)
    add("B4-eq25", "Eq.(25)", b3, _gates(("L3", (1,)), ("L4", (1,))), b4)

    # teleportation steps over modes a, b1, b2
    initial = Ket(3, {"000": alpha, "011": alpha, "100": beta, "111": beta})
    eq27 = Ket(3, {"000": alpha, "011": alpha, "110": beta, "101": beta})
    eq28 = Ket(3, {"000": alpha, "100": alpha, "010": -beta, "110": beta,
                  "011": alpha, "111": alpha, "001": -beta, "101": beta})
    eq29 = Ket(3, {"000": alpha, "100": alpha, "010": beta, "110": -beta,
                  "011": alpha, "111": alpha, "001": beta, "101": -beta})
    teleported = Ket(3, {"000": alpha, "001": beta})
    add("teleport-cnot", "Eq.(27)", initial, _gates(("CNOT", (0, 1))), eq27)
    add("teleport-hadamard", "Eq.(28)", eq27, _gates(("HPLUS", (0,))), eq28)
    add("teleport-not", "Eq.(29)", eq28, _gates(("NOT", (0,))), eq29)
    add("teleport-project", "Sec.2 projection onto |00>", eq29,
        (Project("00", (0, 1)),), teleported)

    # GHZ construction, both control choices
    pair_ext = Ket(3, {"000": 1, "110": 1})
    ghz = Ket(3, {"000": 1, "111": 1})
    add("ghz-a1", "Sec.3 GHZ circuit", pair_ext, _gates(("CNOT", (0, 2))), ghz)
    add("ghz-a2", "Sec.3 GHZ circuit", pair_ext, _gates(("CNOT", (1, 2))), ghz)

    # class-change chain; the stated end state does not follow from the gates
    chain = "Sec.3 class-change chain"
    add("interchange-step1", chain, Ket.basis("000"), _gates(("HPLUS", (2,))),
        Ket(3, {"000": 1, "001": 1}))
    add("interchange-step2", chain, Ket(3, {"000": 1, "001": 1}),
        _gates(("CNOT", (2, 1))), Ket(3, {"101": 1, "110": 1}))

    return tuple(claims)


CLAIMS: tuple[Circuit, ...] = _build_claims()


def verify_claims() -> list[ClaimRecord]:
    """Run the catalog and return the verdict records of its ``Expect``s in order."""
    return [record for circuit in CLAIMS for record in run(circuit).claims]
